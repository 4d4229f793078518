//! Prefix-sharing incremental restriction checking along the DFS tree.
//!
//! [`verify_system`](crate::verify_system) explores runs with a
//! checkpoint/undo DFS whose leaves share long prefixes, yet the batch
//! pipeline re-does the whole seal → project → check chain per leaf. The
//! [`IncrChecker`] keeps a *projection-and-verdict state synchronised
//! with the growing program builder*: at each leaf it rewinds to the
//! longest agreed prefix (found by diffing the builder's event list and
//! undo journals) and replays only the fresh suffix — matching the
//! correspondence, projecting enable edges through insignificant events,
//! assigning thread tags, and advancing every compiled restriction
//! ([`gem_logic::incr`]) by O(formula) per event.
//!
//! A leaf that finishes **clean** — no incremental violation, no
//! condition the incremental pipeline cannot reproduce — is guaranteed to
//! satisfy the specification, so the caller skips seal/projection/check
//! entirely. Everything else returns [`LeafStatus::Fallback`] and the
//! caller runs the unchanged batch pipeline, which keeps verdicts,
//! failure details, artifacts, and blame byte-identical to a batch-only
//! sweep (violating leaves *adopt the batch verdict wholesale*; the
//! incremental layer only ever proves cleanliness).
//!
//! ## Soundness in one paragraph
//!
//! For simulation-grown builders every enable edge targets the newest
//! event, so the temporal order between existing events is final and the
//! downsets of a prefix remain downsets of every extension. The compiled
//! `◻∀*` shapes check each variable binding exactly once — when its
//! newest event arrives — and a clean verdict at the leaf means *no*
//! binding over *any* downset falsifies, which implies the batch checker
//! (which samples history sequences of the same computation) also finds
//! no counterexample. Builders that violate the monotone-journal
//! discipline (retroactive edges) are detected and disable the checker
//! for the rest of the sweep; builders carrying memberships or foreign
//! thread tags fall back per leaf.

use std::sync::Arc;

use gem_core::{ClassId, ComputationBuilder, ElementId, EventId, Structure, ThreadTypeId, Value};
use gem_logic::incr::{compile, Compiled};
use gem_logic::{holds_on_computation, EventSel, Formula, World};
use gem_spec::{Specification, ThreadSpec};

use crate::correspondence::{Correspondence, Pair};

/// When [`verify_system`](crate::verify_system) uses the incremental
/// checker. The checker is always safe — it proves cleanliness or falls
/// back to batch — so the modes only control whether the attempt is made.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IncrCheck {
    /// Use it when the system exposes a trace builder and every
    /// restriction compiled; skip the per-leaf work entirely when the
    /// whole specification fell back. (Default.)
    #[default]
    Auto,
    /// Attempt synchronisation on every leaf even under a global
    /// fallback, so the `logic.incr.*` per-leaf counters are reported.
    On,
    /// Never use the incremental checker.
    Off,
}

/// Verdict of synchronising to one leaf.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeafStatus {
    /// Every restriction provably holds of this leaf's computation; the
    /// caller may skip the batch pipeline.
    Clean,
    /// The leaf needs the batch pipeline (incremental violation, an
    /// unsupported condition, or the checker is disabled).
    Fallback,
}

/// One restriction, compiled (or not) for incremental checking.
struct CompiledRestriction {
    name: String,
    formula: Formula,
    compiled: Option<Compiled>,
}

/// Synced copy of one program event's identity, for prefix diffing.
struct ProgMeta {
    element: ElementId,
    class: ClassId,
    params: Vec<Value>,
}

impl ProgMeta {
    fn matches(&self, ev: &gem_core::Event) -> bool {
        self.element == ev.element() && self.class == ev.class() && self.params == ev.params()
    }
}

/// Dense parallel arrays over the incrementally projected (spec-side)
/// events, in emission order.
#[derive(Default)]
struct SpecEvents {
    prog_of: Vec<u32>,
    element: Vec<ElementId>,
    class: Vec<ClassId>,
    seq: Vec<u32>,
    params: Vec<Vec<Value>>,
    /// Thread-path matches: `(thread spec, path, stage, head spec id)`.
    /// The head id is the canonical instance — equal head ⇔ equal
    /// instance, which is all the thread predicates observe.
    tags: Vec<Vec<(u16, u16, u16, u32)>>,
    enables_out: Vec<Vec<u32>>,
    enablers_in: Vec<Vec<u32>>,
    /// Spec enable edges in insertion order; targets are non-decreasing
    /// (each edge lands while its target is the newest spec event).
    edge_journal: Vec<(u32, u32)>,
    /// Spec events per problem element, in element order.
    by_element: Vec<Vec<u32>>,
}

impl SpecEvents {
    fn len(&self) -> usize {
        self.prog_of.len()
    }
}

/// The prefix-synchronised incremental checker; see the module docs.
pub struct IncrChecker {
    problem: Arc<Structure>,
    pairs: Vec<Pair>,
    threads: Vec<ThreadSpec>,
    check_program_legality: bool,
    restrictions: Vec<CompiledRestriction>,
    /// Set at construction when any restriction (or thread declaration)
    /// cannot be handled: the whole sweep uses batch checking.
    global_fallback: bool,
    /// Sticky runtime disable: a non-monotone undo journal broke the
    /// prefix-finality assumption, so no later leaf may trust the state.
    disabled: bool,

    // Program-side synced state.
    prog: Vec<ProgMeta>,
    enables: Vec<(u32, u32)>,
    precedences: Vec<(u32, u32)>,
    spec_of: Vec<Option<u32>>,
    /// For insignificant events: the significant spec events that reach
    /// them through insignificant-only enable paths.
    bridge: Vec<Vec<u32>>,

    spec: SpecEvents,
    /// Per restriction: program-event indices where an incremental
    /// violation was found (ascending; sticky below that point).
    violations: Vec<Vec<u32>>,
    /// Program-event indices at which a condition arose that only the
    /// batch pipeline reproduces (legality/projection failures, ambiguous
    /// thread tags, evaluation errors). Ascending.
    batch_required: Vec<u32>,
}

fn obs_add(key: &str, n: u64) {
    if gem_obs::ambient::active() {
        gem_obs::ambient::add(key, n);
    }
}

impl IncrChecker {
    /// Compiles `problem`'s restrictions for incremental checking against
    /// projections through `corr`. Fallback decisions are recorded per
    /// restriction under `logic.incr.restriction.*`.
    pub fn new(
        problem: &Specification,
        corr: &Correspondence,
        check_program_legality: bool,
    ) -> Self {
        let mut restrictions = Vec::new();
        let mut compiled_n = 0u64;
        let mut fallback_n = 0u64;
        let mut global_fallback = false;
        for r in problem.restrictions() {
            let compiled = match compile(&r.formula) {
                Ok(c) => {
                    compiled_n += 1;
                    obs_add(&format!("logic.incr.restriction.{}.incremental", r.name), 1);
                    Some(c)
                }
                Err(reason) => {
                    fallback_n += 1;
                    global_fallback = true;
                    obs_add(
                        &format!("logic.incr.restriction.{}.fallback.{}", r.name, reason),
                        1,
                    );
                    None
                }
            };
            restrictions.push(CompiledRestriction {
                name: r.name.clone(),
                formula: r.formula.clone(),
                compiled,
            });
        }
        // Thread-path selectors constraining a concrete instance would
        // need the final assignment's numbering; everything else the tag
        // engine reproduces.
        if problem
            .threads()
            .iter()
            .any(|t| t.paths.iter().flatten().any(|sel| sel.thread.is_some()))
        {
            global_fallback = true;
            obs_add("logic.incr.threads.fallback", 1);
        }
        obs_add("logic.incr.restrictions.compiled", compiled_n);
        obs_add("logic.incr.restrictions.fallback", fallback_n);
        let n_restrictions = restrictions.len();
        Self {
            problem: problem.structure_arc(),
            pairs: corr.pairs().to_vec(),
            threads: problem.threads().to_vec(),
            check_program_legality,
            restrictions,
            global_fallback,
            disabled: false,
            prog: Vec::new(),
            enables: Vec::new(),
            precedences: Vec::new(),
            spec_of: Vec::new(),
            bridge: Vec::new(),
            spec: SpecEvents {
                by_element: vec![Vec::new(); problem.structure().element_count()],
                ..SpecEvents::default()
            },
            violations: vec![Vec::new(); n_restrictions],
            batch_required: Vec::new(),
        }
    }

    /// True when the whole sweep must use batch checking (some
    /// restriction or thread declaration did not compile). The caller can
    /// skip per-leaf synchronisation entirely.
    pub fn global_fallback(&self) -> bool {
        self.global_fallback
    }

    /// Synchronises the checker with the builder's current (leaf) state:
    /// rewinds to the agreed prefix, replays the fresh suffix, and
    /// reports whether the leaf is provably clean.
    pub fn sync_to(&mut self, b: &ComputationBuilder) -> LeafStatus {
        if self.global_fallback || self.disabled {
            obs_add("logic.incr.leaf_fallback", 1);
            return LeafStatus::Fallback;
        }
        obs_add("logic.incr.syncs", 1);

        let bev = b.events();
        // Longest common prefix of the event lists…
        let mut estar = {
            let max = self.prog.len().min(bev.len());
            let mut l = 0usize;
            while l < max && self.prog[l].matches(&bev[l]) {
                l += 1;
            }
            l
        };
        // …capped by the first divergence of either undo journal: every
        // synced entry at or beyond the divergent target must be undone.
        if let Some(t) = divergence_bound(&self.enables, b.enable_journal()) {
            estar = estar.min(t);
        }
        if let Some(t) = divergence_bound(&self.precedences, b.precedence_journal()) {
            estar = estar.min(t);
        }

        self.rewind(estar);
        obs_add("logic.incr.events_reused", estar as u64);
        obs_add("logic.incr.events_replayed", (bev.len() - estar) as u64);

        // Replay the fresh suffix, consuming journal entries by target.
        let mut epos = self.enables.len();
        let mut ppos = self.precedences.len();
        let bej = b.enable_journal();
        let bpj = b.precedence_journal();
        for i in estar..bev.len() {
            self.process_event(b, i);
            // Enable edges landing on the event just emitted.
            while epos < bej.len() && bej[epos].1.index() == i {
                let from = bej[epos].0.index();
                if from >= i {
                    return self.disable();
                }
                self.consume_enable(b, from, i);
                epos += 1;
            }
            if epos < bej.len() && bej[epos].1.index() < i {
                return self.disable();
            }
            while ppos < bpj.len() && bpj[ppos].1.index() == i {
                let from = bpj[ppos].0.index();
                if from >= i {
                    return self.disable();
                }
                self.precedences.push((from as u32, i as u32));
                ppos += 1;
            }
            if ppos < bpj.len() && bpj[ppos].1.index() < i {
                return self.disable();
            }
            self.finalize_event(b, i);
        }
        if epos < bej.len() || ppos < bpj.len() {
            // Entries targeting events that were already finalized:
            // retroactive edges break prefix finality.
            return self.disable();
        }

        // Conditions the incremental state does not model.
        if !b.memberships().is_empty() || b.tag_count() > 0 {
            obs_add("logic.incr.leaf_fallback", 1);
            return LeafStatus::Fallback;
        }
        if !self.batch_required.is_empty() || self.violations.iter().any(|v| !v.is_empty()) {
            obs_add("logic.incr.leaf_fallback", 1);
            return LeafStatus::Fallback;
        }
        // Non-temporal restrictions: immediate assertions on the one full
        // history, decided at the leaf by the batch evaluator reading the
        // synced projection.
        let world = SpecWorld { chk: self, b };
        for r in &self.restrictions {
            if matches!(r.compiled, Some(Compiled::Leaf))
                && holds_on_computation(&r.formula, &world) != Ok(true)
            {
                obs_add("logic.incr.leaf_fallback", 1);
                return LeafStatus::Fallback;
            }
        }
        obs_add("logic.incr.leaf_clean", 1);
        LeafStatus::Clean
    }

    fn disable(&mut self) -> LeafStatus {
        self.disabled = true;
        obs_add("logic.incr.disabled", 1);
        obs_add("logic.incr.leaf_fallback", 1);
        LeafStatus::Fallback
    }

    /// Truncates all synced state to the first `estar` program events.
    fn rewind(&mut self, estar: usize) {
        for v in &mut self.violations {
            while v.last().is_some_and(|&p| p as usize >= estar) {
                v.pop();
            }
        }
        while self
            .batch_required
            .last()
            .is_some_and(|&p| p as usize >= estar)
        {
            self.batch_required.pop();
        }
        while self
            .enables
            .last()
            .is_some_and(|&(_, t)| t as usize >= estar)
        {
            self.enables.pop();
        }
        while self
            .precedences
            .last()
            .is_some_and(|&(_, t)| t as usize >= estar)
        {
            self.precedences.pop();
        }
        // Spec events are appended in program order, so the survivors are
        // a prefix.
        let sstar = self.spec.prog_of.partition_point(|&p| (p as usize) < estar);
        while self
            .spec
            .edge_journal
            .last()
            .is_some_and(|&(_, t)| t as usize >= sstar)
        {
            let (from, to) = self.spec.edge_journal.pop().expect("checked non-empty");
            let popped = self.spec.enables_out[from as usize].pop();
            debug_assert_eq!(popped, Some(to), "edge journal mirrors enables_out");
        }
        for sid in (sstar..self.spec.len()).rev() {
            let el = self.spec.element[sid];
            let popped = self.spec.by_element[el.index()].pop();
            debug_assert_eq!(popped, Some(sid as u32), "element chains append-only");
        }
        self.spec.prog_of.truncate(sstar);
        self.spec.element.truncate(sstar);
        self.spec.class.truncate(sstar);
        self.spec.seq.truncate(sstar);
        self.spec.params.truncate(sstar);
        self.spec.tags.truncate(sstar);
        self.spec.enables_out.truncate(sstar);
        self.spec.enablers_in.truncate(sstar);
        self.prog.truncate(estar);
        self.spec_of.truncate(estar);
        self.bridge.truncate(estar);
    }

    fn push_batch(&mut self, i: usize) {
        if self.batch_required.last() != Some(&(i as u32)) {
            self.batch_required.push(i as u32);
        }
    }

    /// Registers program event `i`: identity copy, program legality, and
    /// the correspondence match (creating the projected event).
    fn process_event(&mut self, b: &ComputationBuilder, i: usize) {
        let ev = &b.events()[i];
        self.prog.push(ProgMeta {
            element: ev.element(),
            class: ev.class(),
            params: ev.params().to_vec(),
        });
        if self.check_program_legality {
            let ps = b.structure();
            if !ps.element_info(ev.element()).allows(ev.class())
                || ps.class_info(ev.class()).arity() != ev.params().len()
            {
                self.push_batch(i);
            }
        }
        let Some(pair_ix) = self.pairs.iter().position(|p| p.program.matches(ev)) else {
            self.spec_of.push(None);
            self.bridge.push(Vec::new());
            return;
        };
        let pair = &self.pairs[pair_ix];
        let el = pair.problem_element;
        let cl = pair.problem_class;
        let arity = self.problem.class_info(cl).arity();
        let mut params = vec![Value::Unit; arity];
        let mut bad_param = false;
        for &(prog_idx, prob_idx) in &pair.params {
            match ev.param(prog_idx) {
                Some(v) => {
                    if prob_idx < arity {
                        params[prob_idx] = v.clone();
                    }
                }
                None => bad_param = true,
            }
        }
        let legal = self.problem.element_info(el).allows(cl);
        let sid = self.spec.len() as u32;
        self.spec.prog_of.push(i as u32);
        self.spec.element.push(el);
        self.spec.class.push(cl);
        self.spec
            .seq
            .push(self.spec.by_element[el.index()].len() as u32);
        self.spec.params.push(params);
        self.spec.tags.push(Vec::new());
        self.spec.enables_out.push(Vec::new());
        self.spec.enablers_in.push(Vec::new());
        self.spec.by_element[el.index()].push(sid);
        self.spec_of.push(Some(sid));
        self.bridge.push(Vec::new());
        if bad_param || !legal {
            self.push_batch(i);
        }
    }

    /// Consumes a program enable edge `from ⊳ i` (with `i` the newest
    /// event): program-side legality, then the projected edge(s) —
    /// bridged through insignificant events exactly as
    /// [`project`](crate::project) does.
    fn consume_enable(&mut self, b: &ComputationBuilder, from: usize, i: usize) {
        self.enables.push((from as u32, i as u32));
        if self.check_program_legality {
            let ps = b.structure();
            let (ef, et) = (&b.events()[from], &b.events()[i]);
            if !ps.may_enable(ef.element(), et.element(), et.class()) {
                self.push_batch(i);
            }
        }
        let sources: Vec<u32> = match self.spec_of[from] {
            Some(s) => vec![s],
            None => self.bridge[from].clone(),
        };
        if sources.is_empty() {
            return;
        }
        match self.spec_of[i] {
            Some(t) => {
                for s in sources {
                    if self.spec.enables_out[s as usize].contains(&t) {
                        continue;
                    }
                    if !self.problem.may_enable(
                        self.spec.element[s as usize],
                        self.spec.element[t as usize],
                        self.spec.class[t as usize],
                    ) {
                        self.push_batch(i);
                    }
                    self.spec.enables_out[s as usize].push(t);
                    self.spec.enablers_in[t as usize].push(s);
                    self.spec.edge_journal.push((s, t));
                }
            }
            None => {
                for s in sources {
                    if !self.bridge[i].contains(&s) {
                        self.bridge[i].push(s);
                    }
                }
            }
        }
    }

    /// After all of event `i`'s edges are in: element-order consistency,
    /// thread tags, and the per-event binding check of every compiled
    /// `◻∀*` restriction.
    fn finalize_event(&mut self, b: &ComputationBuilder, i: usize) {
        let Some(t) = self.spec_of[i] else { return };
        let t = t as usize;

        // Projection rejects concurrent same-element significant events;
        // consecutive-pair order suffices by transitivity (emission order
        // is consistent with temporal order for monotone builders).
        let chain = &self.spec.by_element[self.spec.element[t].index()];
        if chain.len() >= 2 {
            let prev = chain[chain.len() - 2] as usize;
            let prev_prog = EventId::from_raw(self.spec.prog_of[prev]);
            if !b.order_precedes(prev_prog, EventId::from_raw(i as u32)) {
                self.push_batch(i);
            }
        }

        // Thread tags, mirroring `infer_threads`: one instance per head
        // event (first matching path), propagated along enable edges that
        // continue the path. The head's spec id is the canonical
        // instance.
        let mut entries: Vec<(u16, u16, u16, u32)> = Vec::new();
        for (si, ts) in self.threads.iter().enumerate() {
            for (pi, path) in ts.paths.iter().enumerate() {
                let Some(head) = path.first() else { continue };
                if self.sel_matches_spec(head, t) {
                    entries.push((si as u16, pi as u16, 0, t as u32));
                    break;
                }
            }
        }
        for ei in 0..self.spec.enablers_in[t].len() {
            let s = self.spec.enablers_in[t][ei] as usize;
            for ti in 0..self.spec.tags[s].len() {
                let (si, pi, stage, head) = self.spec.tags[s][ti];
                let path = &self.threads[si as usize].paths[pi as usize];
                let next = stage as usize + 1;
                if next < path.len() && self.sel_matches_spec(&path[next], t) {
                    let e = (si, pi, next as u16, head);
                    if !entries.contains(&e) {
                        entries.push(e);
                    }
                }
            }
        }
        // Two distinct instances of one thread type on one event make
        // `thread_instance` ambiguous — only the full assignment
        // disambiguates.
        let mut ambiguous = false;
        for (si, _, _, head) in &entries {
            let ty = self.threads[*si as usize].ty;
            if entries
                .iter()
                .any(|(sj, _, _, h2)| self.threads[*sj as usize].ty == ty && h2 != head)
            {
                ambiguous = true;
                break;
            }
        }
        self.spec.tags[t] = entries;
        if ambiguous {
            self.push_batch(i);
        }

        // A pending batch condition poisons the whole leaf, so binding
        // enumeration would be wasted work; sticky violations likewise
        // skip their restriction (the leaf verdict is already Fallback —
        // this is the early-exit prune).
        if !self.batch_required.is_empty() {
            return;
        }
        let mut found: Vec<usize> = Vec::new();
        let mut errored = false;
        {
            let world = SpecWorld { chk: self, b };
            for (ri, r) in self.restrictions.iter().enumerate() {
                if !self.violations[ri].is_empty() {
                    continue;
                }
                if let Some(Compiled::Boxed(shape)) = &r.compiled {
                    match shape.check_event(&world, t) {
                        Ok(true) => found.push(ri),
                        Ok(false) => {}
                        Err(_) => errored = true,
                    }
                }
            }
        }
        for ri in found {
            obs_add("logic.incr.violations", 1);
            obs_add(
                &format!(
                    "logic.incr.restriction.{}.violations",
                    self.restrictions[ri].name
                ),
                1,
            );
            self.violations[ri].push(i as u32);
        }
        if errored {
            self.push_batch(i);
        }
    }

    /// Selector match over a projected event (thread constraints are
    /// excluded at construction).
    fn sel_matches_spec(&self, sel: &EventSel, t: usize) -> bool {
        sel.element.is_none_or(|el| self.spec.element[t] == el)
            && sel.class.is_none_or(|c| self.spec.class[t] == c)
            && sel
                .params
                .iter()
                .all(|(i, v)| self.spec.params[t].get(*i) == Some(v))
    }
}

/// First journal index where the synced copy and the builder disagree,
/// mapped to the smallest event index that must be rewound; `None` when
/// the copy is a prefix of the builder's journal.
fn divergence_bound(mine: &[(u32, u32)], theirs: &[(EventId, EventId)]) -> Option<usize> {
    let n = mine.len().min(theirs.len());
    for j in 0..n {
        let (mf, mt) = mine[j];
        let (tf, tt) = theirs[j];
        if mf as usize != tf.index() || mt as usize != tt.index() {
            return Some((mt as usize).min(tt.index()));
        }
    }
    (mine.len() > n).then(|| mine[n].1 as usize)
}

/// [`World`] view over the synced projection, with order queries
/// delegated to the program builder's incrementally maintained
/// reachability (the projected temporal order *is* the program order
/// restricted to significant events).
struct SpecWorld<'a> {
    chk: &'a IncrChecker,
    b: &'a ComputationBuilder,
}

impl World for SpecWorld<'_> {
    fn event_count(&self) -> usize {
        self.chk.spec.len()
    }
    fn element_of(&self, e: usize) -> ElementId {
        self.chk.spec.element[e]
    }
    fn class_of(&self, e: usize) -> ClassId {
        self.chk.spec.class[e]
    }
    fn seq_of(&self, e: usize) -> u32 {
        self.chk.spec.seq[e]
    }
    fn params_of(&self, e: usize) -> &[Value] {
        &self.chk.spec.params[e]
    }
    fn thread_instance(&self, e: usize, ty: ThreadTypeId) -> Option<u32> {
        self.chk.spec.tags[e]
            .iter()
            .find(|(si, _, _, _)| self.chk.threads[*si as usize].ty == ty)
            .map(|&(_, _, _, head)| head)
    }
    fn matches(&self, sel: &EventSel, e: usize) -> bool {
        self.chk.sel_matches_spec(sel, e)
    }
    fn precedes(&self, a: usize, b: usize) -> bool {
        self.b.order_precedes(
            EventId::from_raw(self.chk.spec.prog_of[a]),
            EventId::from_raw(self.chk.spec.prog_of[b]),
        )
    }
    fn enables(&self, a: usize, b: usize) -> bool {
        self.chk.spec.enables_out[a].contains(&(b as u32))
    }
    fn enabled_from(&self, e: usize) -> impl Iterator<Item = usize> + '_ {
        self.chk.spec.enables_out[e].iter().map(|&s| s as usize)
    }
    fn nth_at(&self, element: ElementId, i: usize) -> Option<usize> {
        self.chk
            .spec
            .by_element
            .get(element.index())?
            .get(i)
            .map(|&s| s as usize)
    }
    fn structure(&self) -> &Structure {
        &self.chk.problem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_logic::Strategy;
    use gem_spec::{ElementType, SpecBuilder};

    /// The incremental leaf status and the batch verdict of a computation
    /// over two `Act` elements `P` and `Q` under "every event has a
    /// concurrent partner", a leaf restriction. The builder emits one
    /// event per flag, at `Q` when it is set and at `P` otherwise.
    fn leaf_verdicts(at_q: &[bool]) -> (LeafStatus, bool) {
        let ty = ElementType::new("Proc").event("Act", &[]);
        let mut sb = SpecBuilder::new("Pair");
        let p = sb.instantiate_element(&ty, "P").unwrap();
        let q = sb.instantiate_element(&ty, "Q").unwrap();
        sb.add_restriction(
            "has-concurrent-partner",
            Formula::forall(
                "a",
                EventSel::any(),
                Formula::exists("b", EventSel::any(), Formula::concurrent("a", "b")),
            ),
        );
        let spec = sb.finish();
        let corr = Correspondence::new()
            .map(p.sel("Act"), p.id(), p.class("Act"))
            .map(q.sel("Act"), q.id(), q.class("Act"));
        let mut b = ComputationBuilder::new(spec.structure_arc());
        for &on_q in at_q {
            let el = if on_q { &q } else { &p };
            b.add_event(el.id(), el.class("Act"), vec![]).unwrap();
        }
        let mut chk = IncrChecker::new(&spec, &corr, false);
        let status = chk.sync_to(&b);
        let sealed = b.seal().unwrap();
        let projected = crate::project(&sealed, spec.structure_arc(), &corr).unwrap();
        let batch = spec.check(&projected, Strategy::default()).unwrap();
        (status, batch.is_legal())
    }

    #[test]
    fn leaf_restrictions_are_judged_as_the_batch_checker_judges_them() {
        // One event at each element: concurrent, so the leaf is clean.
        assert_eq!(leaf_verdicts(&[false, true]), (LeafStatus::Clean, true));
        // Two events at P are ordered, and no event is concurrent with
        // itself: the restriction fails, so the leaf must not be clean.
        assert_eq!(
            leaf_verdicts(&[false, false]),
            (LeafStatus::Fallback, false)
        );
    }
}
