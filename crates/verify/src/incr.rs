//! Prefix-sharing incremental restriction checking along the DFS tree.
//!
//! [`verify_system`](crate::verify_system) explores runs with a
//! checkpoint/undo DFS whose leaves share long prefixes, yet the batch
//! pipeline re-does the whole seal → project → check chain per leaf. The
//! [`IncrChecker`] keeps a *projection-and-verdict state synchronised
//! with the growing program builder*. It remembers the builder's change
//! stamp of every event it has processed
//! ([`ComputationBuilder::event_stamps`]); at each leaf it rewinds to the
//! first event whose stamp differs — the point the last undo went back
//! to, or an event that gained an edge since — and replays the suffix
//! from there, consuming the builder's edge journals from
//! [`ComputationBuilder::journal_at`]. Replaying an event looks up its
//! correspondence pair by `(element, class)`
//! ([`Correspondence::first_match`]), projects enable edges through
//! insignificant events (scope legality read from memoised `may_enable`
//! tables), ORs the rows of its direct predecessors into its row of the
//! projected events that precede it (the only temporal order a verdict
//! reads; the builder keeps none), assigns thread tags, advances every
//! compiled `◻∀*` restriction by O(formula), and settles the
//! leaf-restriction conjuncts whose value the event makes final
//! ([`gem_logic::incr::LeafPlan`]): the ground ones naming the event's
//! position, found in an index by `(element, k)`, and the per-binding and
//! per-enabler ones whose trigger selectors name its class. A settled
//! conjunct that fails is a sticky violation of its restriction; the leaf
//! evaluates only the conjuncts that did not settle.
//! The per-event rows rewound at an undo stay allocated as spares, so a
//! replay without string parameters allocates nothing once the deepest
//! leaf has been seen, and neither does judging the leaf restrictions
//! ([`gem_logic`]'s evaluator binds variables on the stack and walks the
//! per-class and per-element rows kept here).
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
//! For simulation-grown builders every edge targets the newest event, so
//! the temporal order between existing events is final, an event's row
//! of preceding projected events is complete once its own edges are
//! replayed, and the downsets of a prefix remain downsets of every
//! extension. The compiled `◻∀*` shapes check each variable binding exactly once — when its
//! newest event arrives — and a clean verdict at the leaf means *no*
//! binding over *any* downset falsifies, which implies the batch checker
//! (which samples history sequences of the same computation) also finds
//! no counterexample. Leaf restrictions have the same value on every
//! history sequence ([`gem_logic::incr`]), so judging them on the
//! complete leaf computation is exact; a conjunct settled during replay
//! has its complete-computation value already, and a leaf under a
//! settled violation evaluates the whole restriction before it falls back
//! to batch. Equal stamps mean the same event with the same
//! incoming edges, in any builder (clones draw their own stamps), so the
//! state kept for the events before the first differing stamp is exactly
//! the state a fresh replay would build. A journal whose targets run out
//! of order (a retroactive edge) is detected during replay and disables
//! the checker for the rest of the sweep; builders carrying memberships
//! or foreign thread tags fall back per leaf.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;

use gem_core::{
    ClassId, ComputationBuilder, ElementId, MayEnableMemo, Structure, ThreadTypeId, Value,
};
use gem_logic::incr::{compile, Compiled, Settle};
use gem_logic::{holds_on_computation, EventSel, Formula, World};
use gem_spec::{Specification, ThreadSpec};

use crate::correspondence::{Correspondence, Pair, PairIndex};

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
    compiled: Option<Compiled>,
    /// For a leaf restriction, its `logic.incr.leaf_eval.by_restriction`
    /// keys, formatted once: conjuncts evaluated at the leaf, their time,
    /// and judgements settled per event.
    leaf_keys: Option<LeafKeys>,
}

struct LeafKeys {
    evals: String,
    ns: String,
    settled: String,
}

/// One row per event. Rewinding keeps the dropped rows allocated (and
/// empty) as spares for the next replay.
struct Rows<T> {
    rows: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Rows<T> {
    /// Appends an empty row, reusing a spare when there is one.
    fn push(&mut self) -> &mut Vec<T> {
        if self.len == self.rows.len() {
            self.rows.push(Vec::new());
        }
        self.len += 1;
        &mut self.rows[self.len - 1]
    }

    /// Keeps the first `n` rows; the rest become empty spares.
    fn truncate(&mut self, n: usize) {
        for row in &mut self.rows[n.min(self.len)..self.len] {
            row.clear();
        }
        self.len = self.len.min(n);
    }
}

impl<T> Deref for Rows<T> {
    type Target = [Vec<T>];
    fn deref(&self) -> &[Vec<T>] {
        &self.rows[..self.len]
    }
}

impl<T> DerefMut for Rows<T> {
    fn deref_mut(&mut self) -> &mut [Vec<T>] {
        &mut self.rows[..self.len]
    }
}

/// Per synced program event, the projected events that strictly precede
/// it: a bitset over spec ids, row `i` at `words[i * stride..][..stride]`.
///
/// A simulator adds maximal events, so every edge into event `i` comes
/// from an earlier event whose row is final: row `i` is the OR of
/// `row(p) ∪ {spec(p)}` over its direct predecessors `p`. The stride
/// doubles when the spec events outgrow it. Rewound rows stay allocated,
/// so a replay allocates nothing once the deepest leaf has been seen.
struct PastTable {
    words: Vec<u64>,
    stride: usize,
    len: usize,
}

impl PastTable {
    fn new() -> Self {
        Self {
            words: Vec::new(),
            stride: 1,
            len: 0,
        }
    }

    /// Appends an empty row.
    fn push(&mut self) {
        let end = (self.len + 1) * self.stride;
        if self.words.len() < end {
            self.words.resize(end, 0);
        }
        self.words[end - self.stride..end].fill(0);
        self.len += 1;
    }

    fn truncate(&mut self, n: usize) {
        self.len = self.len.min(n);
    }

    /// Widens the rows to hold spec id `sid`, moving them from the last
    /// to the first so that no row overwrites one not yet moved.
    fn fit(&mut self, sid: usize) {
        if sid < 64 * self.stride {
            return;
        }
        let (old, new) = (self.stride, self.stride * 2);
        if self.words.len() < self.len * new {
            self.words.resize(self.len * new, 0);
        }
        for i in (0..self.len).rev() {
            self.words.copy_within(i * old..(i + 1) * old, i * new);
            self.words[i * new + old..(i + 1) * new].fill(0);
        }
        self.stride = new;
    }

    /// Row `i` gains row `p` and, when `p` is significant, its spec id.
    fn join(&mut self, i: usize, p: usize, spec: Option<u32>) {
        let w = self.stride;
        for k in 0..w {
            self.words[i * w + k] |= self.words[p * w + k];
        }
        if let Some(s) = spec {
            self.words[i * w + s as usize / 64] |= 1 << (s % 64);
        }
    }

    /// True if spec event `s` strictly precedes program event `i`.
    fn contains(&self, i: usize, s: u32) -> bool {
        self.words[i * self.stride + s as usize / 64] & (1 << (s % 64)) != 0
    }
}

/// A thread-path match on a projected event: `(thread spec, path, stage,
/// head spec id)`. The head id is the canonical instance — equal head ⇔
/// equal instance, which is all the thread predicates observe.
type Tag = (u16, u16, u16, u32);

/// Dense parallel arrays over the incrementally projected (spec-side)
/// events, in emission order.
#[derive(Default)]
struct SpecEvents {
    prog_of: Vec<u32>,
    element: Vec<ElementId>,
    class: Vec<ClassId>,
    seq: Vec<u32>,
    params: Rows<Value>,
    tags: Rows<Tag>,
    enables_out: Rows<u32>,
    enablers_in: Rows<u32>,
    /// Spec enable edges in insertion order; targets are non-decreasing
    /// (each edge lands while its target is the newest spec event).
    edge_journal: Vec<(u32, u32)>,
    /// Spec events per problem element, in element order.
    by_element: Vec<Vec<u32>>,
    /// Spec events per problem class, ascending: the candidates of a
    /// class selector.
    by_class: Vec<Vec<u32>>,
}

impl SpecEvents {
    fn len(&self) -> usize {
        self.prog_of.len()
    }

    /// Selector match over a projected event (thread constraints are
    /// excluded at construction).
    fn matches(&self, sel: &EventSel, t: usize) -> bool {
        sel.element.is_none_or(|el| self.element[t] == el)
            && sel.class.is_none_or(|c| self.class[t] == c)
            && sel
                .params
                .iter()
                .all(|(i, v)| self.params[t].get(*i) == Some(v))
    }
}

/// The stamp-synchronised incremental checker; see the module docs.
pub struct IncrChecker {
    problem: Arc<Structure>,
    pairs: Vec<Pair>,
    /// `pairs` indexed by program (element, class).
    pair_index: PairIndex,
    threads: Vec<ThreadSpec>,
    check_program_legality: bool,
    restrictions: Vec<CompiledRestriction>,
    /// `ground_at[element][k]`: the `(restriction, conjunct)` ground leaf
    /// conjuncts that name the `k`-th event at `element`, whose arrival
    /// may settle them.
    ground_at: Vec<Vec<Vec<(usize, usize)>>>,
    /// `by_class[class]`: the per-binding and per-enabler leaf conjuncts
    /// an arriving event of `class` may settle (their trigger selectors
    /// name it).
    by_class: Vec<Vec<(usize, usize)>>,
    /// The per-binding and per-enabler leaf conjuncts with a trigger
    /// selector of no class, judged on every projected event.
    any_class: Vec<(usize, usize)>,
    /// Set at construction when any restriction (or thread declaration)
    /// cannot be handled: the whole sweep uses batch checking.
    global_fallback: bool,
    /// Sticky runtime disable: an out-of-order journal entry broke the
    /// prefix-finality assumption, so no later leaf may trust the state.
    disabled: bool,

    /// `may_enable` answers of the problem structure, and of the program
    /// structure of the builders synced (with that structure), memoised.
    problem_scope: MayEnableMemo,
    program_scope: Option<(Arc<Structure>, MayEnableMemo)>,

    // Program-side synced state.
    /// The builder's change stamp of every synced program event.
    stamps: Vec<u64>,
    spec_of: Vec<Option<u32>>,
    /// For insignificant events: the significant spec events that reach
    /// them through insignificant-only enable paths.
    bridge: Rows<u32>,
    /// The projected temporal order, read by every verdict.
    past: PastTable,

    spec: SpecEvents,
    /// Per restriction: program-event indices where an incremental
    /// violation was found, or for a leaf restriction where a settled
    /// conjunct was judged false (ascending; sticky below that point).
    violations: Vec<Vec<u32>>,
    /// Per restriction: judgements settled since the last flush to the
    /// ambient probe (`logic.incr.leaf_eval.*.settled`), which happens
    /// once per sync rather than once per judgement.
    settled: Vec<u64>,
    /// Program-event indices at which a condition arose that only the
    /// batch pipeline reproduces (legality/projection failures, ambiguous
    /// thread tags, evaluation errors). Ascending.
    batch_required: Vec<u32>,

    // Scratch buffers, kept so that replay does not allocate.
    tag_scratch: Vec<Tag>,
    binding: Vec<usize>,
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
        for (i, r) in problem.restrictions().iter().enumerate() {
            let counting = gem_obs::ambient::active();
            let compiled = match compile(&r.formula) {
                Ok(c) => {
                    compiled_n += 1;
                    if counting {
                        obs_add(&format!("logic.incr.restriction.{}.incremental", r.name), 1);
                    }
                    Some(c)
                }
                Err(reason) => {
                    fallback_n += 1;
                    global_fallback = true;
                    if counting {
                        obs_add(
                            &format!("logic.incr.restriction.{}.fallback.{}", r.name, reason),
                            1,
                        );
                    }
                    None
                }
            };
            let leaf_keys = matches!(compiled, Some(Compiled::Leaf(_))).then(|| {
                let key = |k: &str| format!("logic.incr.leaf_eval.by_restriction.{i}.{k}");
                LeafKeys {
                    evals: key("evals"),
                    ns: key("ns"),
                    settled: key("settled"),
                }
            });
            restrictions.push(CompiledRestriction {
                name: r.name.clone(),
                compiled,
                leaf_keys,
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
        // Index the leaf settle plans: ground conjuncts under each position
        // they name, the other settleable ones judged on every event.
        let mut ground_at = vec![Vec::new(); problem.structure().element_count()];
        let mut by_class = vec![Vec::new(); problem.structure().class_count()];
        let mut any_class = Vec::new();
        for (ri, r) in restrictions.iter().enumerate() {
            let Some(Compiled::Leaf(plan)) = &r.compiled else {
                continue;
            };
            for (ci, c) in plan.conjuncts().iter().enumerate() {
                match c.settle() {
                    Settle::AtLeaf => {}
                    Settle::Ground(needs) => {
                        for &(el, k) in needs {
                            let Some(row) = ground_at.get_mut(el.index()) else {
                                continue;
                            };
                            if row.len() <= k {
                                row.resize(k + 1, Vec::new());
                            }
                            row[k].push((ri, ci));
                        }
                    }
                    Settle::PerBinding(_) | Settle::PerEnabler => {
                        let classes: Option<Vec<ClassId>> = c
                            .triggers()
                            .iter()
                            .map(|sel| sel.class.filter(|cl| cl.index() < by_class.len()))
                            .collect();
                        match classes {
                            Some(mut classes) => {
                                classes.sort();
                                classes.dedup();
                                for cl in classes {
                                    by_class[cl.index()].push((ri, ci));
                                }
                            }
                            None => any_class.push((ri, ci)),
                        }
                    }
                }
            }
        }
        let n_restrictions = restrictions.len();
        Self {
            problem: problem.structure_arc(),
            problem_scope: MayEnableMemo::new(problem.structure()),
            program_scope: None,
            pairs: corr.pairs().to_vec(),
            pair_index: corr.pair_index().clone(),
            threads: problem.threads().to_vec(),
            check_program_legality,
            restrictions,
            ground_at,
            by_class,
            any_class,
            global_fallback,
            disabled: false,
            stamps: Vec::new(),
            spec_of: Vec::new(),
            bridge: Rows::default(),
            past: PastTable::new(),
            spec: SpecEvents {
                by_element: vec![Vec::new(); problem.structure().element_count()],
                by_class: vec![Vec::new(); problem.structure().class_count()],
                ..SpecEvents::default()
            },
            violations: vec![Vec::new(); n_restrictions],
            settled: vec![0; n_restrictions],
            batch_required: Vec::new(),
            tag_scratch: Vec::new(),
            binding: Vec::new(),
        }
    }

    /// True when the whole sweep must use batch checking (some
    /// restriction or thread declaration did not compile). The caller can
    /// skip per-leaf synchronisation entirely.
    pub fn global_fallback(&self) -> bool {
        self.global_fallback
    }

    /// Synchronises the checker with the builder's current (leaf) state:
    /// rewinds to the first event whose change stamp differs from the one
    /// synced last, replays the suffix, and reports whether the leaf is
    /// provably clean.
    pub fn sync_to(&mut self, b: &ComputationBuilder) -> LeafStatus {
        if self.global_fallback || self.disabled {
            obs_add("logic.incr.leaf_fallback", 1);
            return LeafStatus::Fallback;
        }
        obs_add("logic.incr.syncs", 1);

        // The program-side scope memo belongs to one structure; the
        // `Arc` kept with it pins that structure's address.
        if !matches!(&self.program_scope, Some((s, _)) if std::ptr::eq(&**s, b.structure())) {
            self.program_scope = Some((b.structure_arc(), MayEnableMemo::new(b.structure())));
        }

        // A linear scan, not a binary search: a retroactive edge restamps
        // an older event, so stamp equality is not prefix-closed.
        let stamps = b.event_stamps();
        let estar = self
            .stamps
            .iter()
            .zip(stamps)
            .take_while(|(mine, theirs)| mine == theirs)
            .count();
        self.rewind(estar);
        self.stamps.extend_from_slice(&stamps[estar..]);
        obs_add("logic.incr.events_reused", estar as u64);
        obs_add("logic.incr.events_replayed", (stamps.len() - estar) as u64);

        // Replay the suffix, consuming journal entries by target. Every
        // edge into a rewound event sits past the journal lengths recorded
        // when the first of them was added.
        let bej = b.enable_journal();
        let bpj = b.precedence_journal();
        let (mut epos, mut ppos) = if estar < stamps.len() {
            b.journal_at(estar)
        } else {
            (bej.len(), bpj.len())
        };
        for i in estar..stamps.len() {
            self.process_event(b, i);
            // The event's direct predecessors: the previous event at its
            // element, then the sources of the edges landing on it.
            self.past.push();
            let ev = &b.events()[i];
            if let Some(k) = ev.seq().checked_sub(1) {
                let prev = b.events_at(ev.element())[k as usize].index();
                self.past.join(i, prev, self.spec_of[prev]);
            }
            while epos < bej.len() && bej[epos].1.index() == i {
                let from = bej[epos].0.index();
                if from >= i {
                    return self.disable();
                }
                self.past.join(i, from, self.spec_of[from]);
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
                self.past.join(i, from, self.spec_of[from]);
                ppos += 1;
            }
            if ppos < bpj.len() && bpj[ppos].1.index() < i {
                return self.disable();
            }
            self.finalize_event(i);
        }
        self.flush_settled();
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
        let boxed_violation = self
            .restrictions
            .iter()
            .zip(&self.violations)
            .any(|(r, v)| !v.is_empty() && matches!(r.compiled, Some(Compiled::Boxed(_))));
        if !self.batch_required.is_empty() || boxed_violation {
            obs_add("logic.incr.leaf_fallback", 1);
            return LeafStatus::Fallback;
        }
        // Leaf restrictions (non-temporal or history-stable `◇`) have one
        // value on every history sequence: the one the batch evaluator
        // gives on the full history, reading the synced projection. The
        // conjuncts settled during replay are known to hold; the leaf
        // evaluates the rest. A restriction with a settled violation takes
        // the full-history evaluation of all its conjuncts, in order, as
        // every leaf restriction did before settling, so the verdict never
        // rests on a settle alone.
        let world = SpecWorld {
            spec: &self.spec,
            threads: &self.threads,
            problem: &self.problem,
            past: &self.past,
        };
        let counting = gem_obs::ambient::active();
        let timing = gem_obs::ambient::timings_active();
        let judge = |f: &Formula, keys: &LeafKeys| {
            let started = timing.then(Instant::now);
            let holds = holds_on_computation(f, &world) == Ok(true);
            if counting {
                gem_obs::ambient::add(&keys.evals, 1);
                gem_obs::ambient::add("logic.incr.leaf_eval.at_leaf", 1);
            }
            if let Some(started) = started {
                let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                gem_obs::ambient::time_ns(&keys.ns, elapsed);
            }
            holds
        };
        for (r, violations) in self.restrictions.iter().zip(&self.violations) {
            let (Some(Compiled::Leaf(plan)), Some(keys)) = (&r.compiled, &r.leaf_keys) else {
                continue;
            };
            let holds = if violations.is_empty() {
                plan.unsettled(&world).all(|c| judge(c.formula(), keys))
            } else {
                plan.conjuncts().iter().all(|c| judge(c.formula(), keys))
            };
            if !holds {
                obs_add("logic.incr.leaf_fallback", 1);
                return LeafStatus::Fallback;
            }
        }
        obs_add("logic.incr.leaf_clean", 1);
        LeafStatus::Clean
    }

    /// Adds the judgements settled during the last replay to the ambient
    /// probe's counters.
    fn flush_settled(&mut self) {
        let counting = gem_obs::ambient::active();
        for (r, n) in self.restrictions.iter().zip(&mut self.settled) {
            if counting && *n > 0 {
                let keys = r.leaf_keys.as_ref().expect("only leaf restrictions settle");
                gem_obs::ambient::add(&keys.settled, *n);
                gem_obs::ambient::add("logic.incr.leaf_eval.settled", *n);
            }
            *n = 0;
        }
    }

    fn disable(&mut self) -> LeafStatus {
        self.flush_settled();
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
            let cl = self.spec.class[sid];
            let popped = self.spec.by_class[cl.index()].pop();
            debug_assert_eq!(popped, Some(sid as u32), "class rows append-only");
        }
        self.spec.prog_of.truncate(sstar);
        self.spec.element.truncate(sstar);
        self.spec.class.truncate(sstar);
        self.spec.seq.truncate(sstar);
        self.spec.params.truncate(sstar);
        self.spec.tags.truncate(sstar);
        self.spec.enables_out.truncate(sstar);
        self.spec.enablers_in.truncate(sstar);
        self.stamps.truncate(estar);
        self.spec_of.truncate(estar);
        self.bridge.truncate(estar);
        self.past.truncate(estar);
    }

    fn push_batch(&mut self, i: usize) {
        if self.batch_required.last() != Some(&(i as u32)) {
            self.batch_required.push(i as u32);
        }
    }

    /// Registers program event `i`: program legality and the
    /// correspondence match (creating the projected event).
    fn process_event(&mut self, b: &ComputationBuilder, i: usize) {
        let ev = &b.events()[i];
        if self.check_program_legality {
            let ps = b.structure();
            if !ps.element_info(ev.element()).allows(ev.class())
                || ps.class_info(ev.class()).arity() != ev.params().len()
            {
                self.push_batch(i);
            }
        }
        let Some(pair) = self
            .pair_index
            .first_match(&self.pairs, ev)
            .map(|k| &self.pairs[k])
        else {
            self.spec_of.push(None);
            self.bridge.push();
            return;
        };
        let el = pair.problem_element;
        let cl = pair.problem_class;
        let arity = self.problem.class_info(cl).arity();
        let params = self.spec.params.push();
        params.resize(arity, Value::Unit);
        let mut bad_param = false;
        for &(prog_idx, prob_idx) in &pair.params {
            match ev.param(prog_idx) {
                Some(v) => {
                    if prob_idx < arity {
                        params[prob_idx] = *v;
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
        self.spec.tags.push();
        self.spec.enables_out.push();
        self.spec.enablers_in.push();
        self.spec.by_element[el.index()].push(sid);
        self.spec.by_class[cl.index()].push(sid);
        self.spec_of.push(Some(sid));
        self.bridge.push();
        self.past.fit(sid as usize);
        if bad_param || !legal {
            self.push_batch(i);
        }
    }

    /// Consumes a program enable edge `from ⊳ i` (with `i` the newest
    /// event): program-side legality, then the projected edge(s) —
    /// bridged through insignificant events exactly as
    /// [`project`](crate::project) does.
    fn consume_enable(&mut self, b: &ComputationBuilder, from: usize, i: usize) {
        if self.check_program_legality {
            let ps = b.structure();
            let (ef, et) = (&b.events()[from], &b.events()[i]);
            let scope = &mut self.program_scope.as_mut().expect("set by sync_to").1;
            if !scope.may_enable(ps, ef.element(), et.element(), et.class()) {
                self.push_batch(i);
            }
        }
        // The sources are `from` itself when it is significant, else the
        // significant events bridged into it.
        let n_sources = match self.spec_of[from] {
            Some(_) => 1,
            None => self.bridge[from].len(),
        };
        for k in 0..n_sources {
            let s = self.spec_of[from].unwrap_or_else(|| self.bridge[from][k]);
            match self.spec_of[i] {
                Some(t) => {
                    if self.spec.enables_out[s as usize].contains(&t) {
                        continue;
                    }
                    if !self.problem_scope.may_enable(
                        &self.problem,
                        self.spec.element[s as usize],
                        self.spec.element[t as usize],
                        self.spec.class[t as usize],
                    ) {
                        self.push_batch(i);
                    }
                    // `t` is the newest spec event, so `enables_out` rows
                    // stay ascending; the enablers are kept ascending too.
                    self.spec.enables_out[s as usize].push(t);
                    let enablers = &mut self.spec.enablers_in[t as usize];
                    enablers.insert(enablers.partition_point(|&x| x < s), s);
                    self.spec.edge_journal.push((s, t));
                }
                None => {
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
    fn finalize_event(&mut self, i: usize) {
        let Some(t) = self.spec_of[i] else { return };
        let t = t as usize;

        // Projection rejects concurrent same-element significant events;
        // consecutive-pair order suffices by transitivity (emission order
        // is consistent with temporal order for monotone builders).
        let chain = &self.spec.by_element[self.spec.element[t].index()];
        if chain.len() >= 2 && !self.past.contains(i, chain[chain.len() - 2]) {
            self.push_batch(i);
        }

        // Thread tags, mirroring `infer_threads`: one instance per head
        // event (first matching path), propagated along enable edges that
        // continue the path. The head's spec id is the canonical
        // instance.
        let entries = &mut self.tag_scratch;
        entries.clear();
        for (si, ts) in self.threads.iter().enumerate() {
            for (pi, path) in ts.paths.iter().enumerate() {
                let Some(head) = path.first() else { continue };
                if self.spec.matches(head, t) {
                    entries.push((si as u16, pi as u16, 0, t as u32));
                    break;
                }
            }
        }
        for &s in &self.spec.enablers_in[t] {
            for &(si, pi, stage, head) in &self.spec.tags[s as usize] {
                let path = &self.threads[si as usize].paths[pi as usize];
                let next = stage as usize + 1;
                if next < path.len() && self.spec.matches(&path[next], t) {
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
        let ambiguous = entries.iter().any(|(si, _, _, head)| {
            let ty = self.threads[*si as usize].ty;
            entries
                .iter()
                .any(|(sj, _, _, h2)| self.threads[*sj as usize].ty == ty && h2 != head)
        });
        let tags = &mut self.spec.tags[t];
        tags.clear();
        tags.extend_from_slice(entries);
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
        let world = SpecWorld {
            spec: &self.spec,
            threads: &self.threads,
            problem: &self.problem,
            past: &self.past,
        };
        let mut errored = false;
        for (ri, r) in self.restrictions.iter().enumerate() {
            if !self.violations[ri].is_empty() {
                continue;
            }
            if let Some(Compiled::Boxed(shape)) = &r.compiled {
                match shape.check_event(&world, t, &mut self.binding) {
                    Ok(true) => {
                        obs_add("logic.incr.violations", 1);
                        obs_add(&format!("logic.incr.restriction.{}.violations", r.name), 1);
                        self.violations[ri].push(i as u32);
                    }
                    Ok(false) => {}
                    Err(_) => errored = true,
                }
            }
        }
        if errored {
            self.push_batch(i);
            return;
        }

        // Leaf conjuncts whose value the arrival of `t` makes final: the
        // ground ones naming its position, and the per-binding and
        // per-enabler ones with a trigger selector of its class. A false
        // or failing judgement is a sticky violation of its restriction.
        let ground = self
            .ground_at
            .get(self.spec.element[t].index())
            .and_then(|row| row.get(self.spec.seq[t] as usize))
            .map_or(&[][..], Vec::as_slice);
        let of_class = &self.by_class[self.spec.class[t].index()];
        for &(ri, ci) in ground.iter().chain(of_class).chain(&self.any_class) {
            if !self.violations[ri].is_empty() {
                continue;
            }
            let r = &self.restrictions[ri];
            let Some(Compiled::Leaf(plan)) = &r.compiled else {
                unreachable!("only leaf plans are indexed");
            };
            let holds =
                plan.conjuncts()[ci].judge_event(&world, t, &mut self.settled[ri]) == Ok(true);
            if !holds {
                obs_add("logic.incr.leaf_eval.violations", 1);
                self.violations[ri].push(i as u32);
            }
        }
    }
}

/// [`World`] view over the synced projection. Order queries read the
/// checker's [`PastTable`]: the projected temporal order *is* the program
/// order restricted to significant events.
struct SpecWorld<'a> {
    spec: &'a SpecEvents,
    threads: &'a [ThreadSpec],
    problem: &'a Structure,
    past: &'a PastTable,
}

impl World for SpecWorld<'_> {
    fn event_count(&self) -> usize {
        self.spec.len()
    }
    fn element_of(&self, e: usize) -> ElementId {
        self.spec.element[e]
    }
    fn class_of(&self, e: usize) -> ClassId {
        self.spec.class[e]
    }
    fn seq_of(&self, e: usize) -> u32 {
        self.spec.seq[e]
    }
    fn params_of(&self, e: usize) -> &[Value] {
        &self.spec.params[e]
    }
    fn thread_instance(&self, e: usize, ty: ThreadTypeId) -> Option<u32> {
        self.spec.tags[e]
            .iter()
            .find(|(si, _, _, _)| self.threads[*si as usize].ty == ty)
            .map(|&(_, _, _, head)| head)
    }
    fn matches(&self, sel: &EventSel, e: usize) -> bool {
        self.spec.matches(sel, e)
    }
    fn precedes(&self, a: usize, b: usize) -> bool {
        self.past.contains(self.spec.prog_of[b] as usize, a as u32)
    }
    fn enables(&self, a: usize, b: usize) -> bool {
        self.spec.enables_out[a].contains(&(b as u32))
    }
    fn enabled_from(&self, e: usize) -> impl Iterator<Item = usize> + '_ {
        self.spec.enables_out[e].iter().map(|&s| s as usize)
    }
    fn nth_at(&self, element: ElementId, i: usize) -> Option<usize> {
        self.spec
            .by_element
            .get(element.index())?
            .get(i)
            .map(|&s| s as usize)
    }
    fn structure(&self) -> &Structure {
        self.problem
    }
    /// The class row of a class selector, the element row of an
    /// element-only one, every event otherwise.
    fn candidates(&self, sel: &EventSel) -> impl Iterator<Item = usize> + '_ {
        fn row(rows: &[Vec<u32>], i: usize) -> &[u32] {
            rows.get(i).map_or(&[], Vec::as_slice)
        }
        let (listed, all) = match (sel.class, sel.element) {
            (Some(c), _) => (row(&self.spec.by_class, c.index()), 0..0),
            (None, Some(el)) => (row(&self.spec.by_element, el.index()), 0..0),
            (None, None) => (&[][..], 0..self.spec.len()),
        };
        listed.iter().map(|&s| s as usize).chain(all)
    }
    fn enablers_of(&self, e: usize) -> impl Iterator<Item = usize> + '_ {
        self.spec.enablers_in[e].iter().map(|&s| s as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_core::EventId;
    use gem_logic::Strategy;
    use gem_spec::{ElementType, SpecBuilder};

    /// A specification over two `Act` elements `P` and `Q` with the one
    /// restriction `restriction(P.Act, Q.Act)`, the identity
    /// correspondence, and the ids of `P`, `Q` and `Act`.
    fn pair_spec(
        name: &str,
        restriction: impl FnOnce(EventSel, EventSel) -> Formula,
    ) -> (Specification, Correspondence, ElementId, ElementId, ClassId) {
        let ty = ElementType::new("Proc").event("Act", &[]);
        let mut sb = SpecBuilder::new("Pair");
        let p = sb.instantiate_element(&ty, "P").unwrap();
        let q = sb.instantiate_element(&ty, "Q").unwrap();
        sb.add_restriction(name, restriction(p.sel("Act"), q.sel("Act")));
        let spec = sb.finish();
        let corr = Correspondence::new()
            .map(p.sel("Act"), p.id(), p.class("Act"))
            .map(q.sel("Act"), q.id(), q.class("Act"));
        (spec, corr, p.id(), q.id(), p.class("Act"))
    }

    /// The incremental leaf status and the batch verdict of a computation
    /// over `P` and `Q` under "every event has a concurrent partner", a
    /// leaf restriction. The builder emits one event per flag, at `Q` when
    /// it is set and at `P` otherwise.
    fn leaf_verdicts(at_q: &[bool]) -> (LeafStatus, bool) {
        let (spec, corr, p, q, act) = pair_spec("has-concurrent-partner", |_, _| {
            Formula::forall(
                "a",
                EventSel::any(),
                Formula::exists("b", EventSel::any(), Formula::concurrent("a", "b")),
            )
        });
        let mut b = ComputationBuilder::new(spec.structure_arc());
        for &on_q in at_q {
            b.add_event(if on_q { q } else { p }, act, vec![]).unwrap();
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

    /// [`pair_spec`] with one `◻∀` restriction: no `P` event directly
    /// enables a `Q` event.
    fn p_never_enables_q() -> (Specification, Correspondence, ElementId, ElementId, ClassId) {
        pair_spec("p-never-enables-q", |p, q| {
            Formula::forall(
                "a",
                p,
                Formula::forall("b", q, Formula::enables("a", "b").not()),
            )
            .henceforth()
        })
    }

    /// A specification over elements `P` and `Q` with the classes
    /// `Act()` and `Val(x)`, no restriction, the identity correspondence
    /// (carrying `x`), and the ids of `P`, `Q`, `Act` and `Val`.
    fn two_class_spec() -> (Specification, Correspondence, [ElementId; 2], [ClassId; 2]) {
        let ty = ElementType::new("Proc")
            .event("Act", &[])
            .event("Val", &["x"]);
        let mut sb = SpecBuilder::new("TwoClass");
        let p = sb.instantiate_element(&ty, "P").unwrap();
        let q = sb.instantiate_element(&ty, "Q").unwrap();
        let spec = sb.finish();
        let mut corr = Correspondence::new();
        for el in [&p, &q] {
            corr = corr
                .map(el.sel("Act"), el.id(), el.class("Act"))
                .map_with_params(el.sel("Val"), el.id(), el.class("Val"), &[(0, 0)]);
        }
        (
            spec,
            corr,
            [p.id(), q.id()],
            [p.class("Act"), p.class("Val")],
        )
    }

    /// The leaf-evaluation world of `chk` synced to `b`.
    fn spec_world(chk: &IncrChecker) -> SpecWorld<'_> {
        SpecWorld {
            spec: &chk.spec,
            threads: &chk.threads,
            problem: &chk.problem,
            past: &chk.past,
        }
    }

    /// Asserts that every formula of `fs` evaluates on the checker's
    /// synced projection of `b` exactly as on the sealed projection,
    /// errors included.
    fn assert_worlds_agree(
        chk: &mut IncrChecker,
        b: &ComputationBuilder,
        spec: &Specification,
        corr: &Correspondence,
        fs: &[Formula],
    ) {
        chk.sync_to(b);
        let sealed = b.seal_ref().unwrap();
        let projected = crate::project(&sealed, spec.structure_arc(), corr).unwrap();
        let world = spec_world(chk);
        for f in fs {
            assert_eq!(
                holds_on_computation(f, &world),
                holds_on_computation(f, &projected),
                "{f:?} on {} events",
                projected.event_count()
            );
        }
    }

    #[test]
    fn a_foreign_element_names_no_event_in_either_world() {
        let (spec, corr, [p, q], [act, _]) = two_class_spec();
        let mut b = ComputationBuilder::new(spec.structure_arc());
        b.add_event(p, act, vec![]).unwrap();
        b.add_event(q, act, vec![]).unwrap();
        let foreign = ElementId::from_raw(7);
        let fs = [
            Formula::occurred(gem_logic::EventTerm::NthAt(foreign, 0)),
            Formula::exists("e", EventSel::at_element(foreign), Formula::True),
            Formula::exists("e", EventSel::of_class(ClassId::from_raw(7)), Formula::True),
        ];
        let mut chk = IncrChecker::new(&spec, &corr, false);
        assert_worlds_agree(&mut chk, &b, &spec, &corr, &fs);
        let world = spec_world(&chk);
        for f in &fs {
            assert_eq!(holds_on_computation(f, &world), Ok(false), "{f:?}");
        }
    }

    #[test]
    fn indexed_leaf_evaluation_matches_the_sealed_projection_across_rewinds() {
        use gem_logic::ValueTerm;
        let (spec, corr, [p, q], [act, val]) = two_class_spec();
        let x = |n: i64| vec![Value::Int(n)];
        let fs = [
            // The newest event is the only `Val` with x = 2.
            Formula::forall(
                "v",
                EventSel::of_class(val),
                Formula::value_eq(ValueTerm::param("v", "x"), ValueTerm::lit(2i64)).not(),
            ),
            Formula::exists("e", EventSel::at_element(q), Formula::True),
            // Anchored on the enablers of the `Val` with x = 2, which
            // arrive out of order: in id order the `Val` with x = 1 is a
            // witness before an `Act` raises `UnknownParam`.
            Formula::forall(
                "t",
                EventSel::of_class(val).with_param(0, 2i64),
                Formula::occurred("t").implies(Formula::exists(
                    "s",
                    EventSel::any(),
                    Formula::enables("s", "t").and(Formula::value_eq(
                        ValueTerm::param("s", "x"),
                        ValueTerm::lit(1i64),
                    )),
                )),
            ),
            Formula::forall(
                "s",
                EventSel::of_class(val),
                Formula::at_most_one("t", EventSel::any(), Formula::enables("s", "t")),
            ),
        ];
        let mut chk = IncrChecker::new(&spec, &corr, false);
        // Two concurrent minimal events, `Q.Act` first, both enabling the
        // `Val` with x = 2. The projection numbers them least id first,
        // as the checker does, so both worlds meet the `Act` before the
        // witness and raise the same `UnknownParam`.
        let mut b = ComputationBuilder::new(spec.structure_arc());
        let a0 = b.add_event(q, act, vec![]).unwrap();
        let v1 = b.add_event(p, val, x(1)).unwrap();
        let v2 = b.add_event(p, val, x(2)).unwrap();
        b.enable(a0, v2).unwrap();
        b.enable(v1, v2).unwrap();
        assert_worlds_agree(&mut chk, &b, &spec, &corr, &fs);
        assert!(holds_on_computation(&fs[2], &spec_world(&chk)).is_err());
        // Totally ordered leaves, across rewinds.
        let mut chk = IncrChecker::new(&spec, &corr, false);
        let mut b = ComputationBuilder::new(spec.structure_arc());
        let v0 = b.add_event(p, val, x(1)).unwrap();
        let a1 = b.add_event(q, act, vec![]).unwrap();
        b.enable(v0, a1).unwrap();
        assert_worlds_agree(&mut chk, &b, &spec, &corr, &fs);
        let mark = b.mark();
        let a2 = b.add_event(p, act, vec![]).unwrap();
        b.enable(a1, a2).unwrap();
        let v3 = b.add_event(q, val, x(2)).unwrap();
        b.enable(a2, v3).unwrap();
        b.enable(v0, v3).unwrap();
        b.enable(a1, v3).unwrap();
        assert_worlds_agree(&mut chk, &b, &spec, &corr, &fs);
        // A sibling leaf: the rewind must drop the rolled-back events from
        // every row the candidates are drawn from.
        b.truncate_to(&mark);
        let a2 = b.add_event(q, act, vec![]).unwrap();
        b.enable(v0, a2).unwrap();
        assert_worlds_agree(&mut chk, &b, &spec, &corr, &fs);
        let v3 = b.add_event(p, val, x(2)).unwrap();
        b.enable(a2, v3).unwrap();
        b.enable(a1, v3).unwrap();
        assert_worlds_agree(&mut chk, &b, &spec, &corr, &fs);
    }

    /// Grows `b` by `n` events from `seed` over `els`, of which the first
    /// two are significant: each event has an enable edge from a random
    /// earlier event with probability 1/2, a second one with 1/4 and a
    /// precedence edge with 1/5, all forward.
    fn grow_random(b: &mut ComputationBuilder, els: &[ElementId], mut seed: u64, n: usize) {
        let mut next = move |bound: usize| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize % bound.max(1)
        };
        for _ in 0..n {
            let el = els[[0, 0, 0, 1, 1, 1, 2, 2, 3, 3][next(10)]];
            let before = b.event_count();
            let e = b.add_event(el, ClassId::from_raw(0), []).unwrap();
            if before == 0 {
                continue;
            }
            let from = |k: usize| EventId::from_raw(k as u32);
            if next(2) == 0 {
                b.enable(from(next(before)), e).unwrap();
            }
            if next(4) == 0 {
                b.enable(from(next(before)), e).unwrap();
            }
            if next(5) == 0 {
                b.add_precedence(from(next(before)), e).unwrap();
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The checker's projected order is the sealed projection's, on
        /// random forward builders over two significant and two
        /// insignificant elements. Order reaches a significant event
        /// through enable edges, precedence edges and element chains,
        /// often only through insignificant events. Up to 240 events give
        /// more than 64 significant ones, so rows take a second word, and
        /// rounds roll back to marks on either side of that boundary.
        #[test]
        fn projected_order_matches_the_sealed_projection(
            rounds in proptest::collection::vec(
                (1usize..90, proptest::prelude::any::<u64>(), 0u8..2, 0usize..4),
                2..8,
            )
        ) {
            let ty = ElementType::new("Proc").event("Act", &[]);
            let mut sb = SpecBuilder::new("Order");
            let els: Vec<_> = (0..4)
                .map(|i| sb.instantiate_element(&ty, format!("P{i}")).unwrap())
                .collect();
            let spec = sb.finish();
            let corr = Correspondence::new()
                .map(els[0].sel("Act"), els[0].id(), els[0].class("Act"))
                .map(els[1].sel("Act"), els[1].id(), els[1].class("Act"));
            let ids: Vec<_> = els.iter().map(|el| el.id()).collect();
            let mut b = ComputationBuilder::new(spec.structure_arc());
            let mut chk = IncrChecker::new(&spec, &corr, false);
            let mut marks = Vec::new();
            for (grow, seed, mark, target) in rounds {
                if mark > 0 {
                    marks.push(b.mark());
                }
                let room = 240usize.saturating_sub(b.event_count());
                grow_random(&mut b, &ids, seed, grow.min(room));
                if target < marks.len() {
                    b.truncate_to(&marks[target]);
                    marks.truncate(target + 1);
                }
                chk.sync_to(&b);
                let sealed = b.seal_ref().unwrap();
                let projected = crate::project(&sealed, spec.structure_arc(), &corr).unwrap();
                let world = spec_world(&chk);
                let n = projected.event_count();
                proptest::prop_assert_eq!(world.event_count(), n);
                for x in 0..n {
                    proptest::prop_assert_eq!(
                        world.element_of(x),
                        projected.event(EventId::from_raw(x as u32)).element()
                    );
                    for y in 0..n {
                        let (ex, ey) = (EventId::from_raw(x as u32), EventId::from_raw(y as u32));
                        proptest::prop_assert_eq!(
                            world.precedes(x, y),
                            projected.closure().precedes(ex, ey)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn syncing_across_clones_equals_a_fresh_sync() {
        // The same rule as a `◻∀` restriction and as a leaf restriction
        // settled per event: the violating clone's settle point lies
        // past the common ancestor, so syncing from it to the clean clone
        // rewinds below the point where the violation was settled.
        let leaf = pair_spec("no-p-enables-q", |p, q| {
            Formula::forall(
                "b",
                q,
                Formula::occurred("b")
                    .implies(Formula::exists("a", p, Formula::enables("a", "b")).not()),
            )
        });
        for (spec, corr, p, q, act) in [p_never_enables_q(), leaf] {
            let fresh = |b: &ComputationBuilder| IncrChecker::new(&spec, &corr, false).sync_to(b);
            let mut ancestor = ComputationBuilder::new(spec.structure_arc());
            let p0 = ancestor.add_event(p, act, vec![]).unwrap();
            // Both clones add one event and one edge into it, so they issue
            // the same number of stamps: only their distinct stamp ranges
            // tell the second events apart.
            let mut violating = ancestor.clone();
            let q1 = violating.add_event(q, act, vec![]).unwrap();
            violating.enable(p0, q1).unwrap();
            let mut clean = ancestor.clone();
            let p1 = clean.add_event(p, act, vec![]).unwrap();
            clean.enable(p0, p1).unwrap();
            assert_eq!(fresh(&violating), LeafStatus::Fallback);
            assert_eq!(fresh(&clean), LeafStatus::Clean);
            for (first, second) in [(&clean, &violating), (&violating, &clean)] {
                let mut chk = IncrChecker::new(&spec, &corr, false);
                assert_eq!(chk.sync_to(first), fresh(first));
                assert_eq!(chk.sync_to(second), fresh(second));
            }
        }
    }

    /// A bounded buffer of two `In.Dep(x)` and `Out.Rem(x)` elements
    /// with the leaf restrictions of `gem_problems::bounded` for `items`
    /// items through `cap` slots, the identity correspondence, and the
    /// ids of `In`, `Out`, `Dep` and `Rem`.
    fn buffer_spec(
        items: usize,
        cap: usize,
    ) -> (Specification, Correspondence, [ElementId; 2], [ClassId; 2]) {
        use gem_logic::{EventTerm, ValueTerm};
        let mut sb = SpecBuilder::new("Buffer");
        let inp = sb
            .instantiate_element(&ElementType::new("In").event("Dep", &["x"]), "In")
            .unwrap();
        let out = sb
            .instantiate_element(&ElementType::new("Out").event("Rem", &["x"]), "Out")
            .unwrap();
        let (mut fifo, mut capacity) = (Vec::new(), Vec::new());
        for k in 0..items {
            let (d, r) = (EventTerm::NthAt(inp.id(), k), EventTerm::NthAt(out.id(), k));
            fifo.push(Formula::occurred(r.clone()).implies(
                Formula::precedes(d.clone(), r.clone()).and(Formula::value_eq(
                    ValueTerm::param(d.clone(), "x"),
                    ValueTerm::param(r, "x"),
                )),
            ));
            if k >= cap {
                capacity.push(
                    Formula::occurred(d.clone())
                        .implies(Formula::precedes(EventTerm::NthAt(out.id(), k - cap), d)),
                );
            }
        }
        sb.add_restriction("fifo", Formula::And(fifo));
        sb.add_restriction("capacity", Formula::And(capacity));
        let spec = sb.finish();
        let corr = Correspondence::new()
            .map_with_params(inp.sel("Dep"), inp.id(), inp.class("Dep"), &[(0, 0)])
            .map_with_params(out.sel("Rem"), out.id(), out.class("Rem"), &[(0, 0)]);
        (
            spec,
            corr,
            [inp.id(), out.id()],
            [inp.class("Dep"), out.class("Rem")],
        )
    }

    /// The batch verdict of the leaf `b`.
    fn batch_holds(b: &ComputationBuilder, spec: &Specification, corr: &Correspondence) -> bool {
        let sealed = b.seal_ref().unwrap();
        let projected = crate::project(&sealed, spec.structure_arc(), corr).unwrap();
        spec.check(&projected, Strategy::default())
            .unwrap()
            .is_legal()
    }

    /// Appends an event of `class` at `el` with parameter `x` to `b`,
    /// enabled by `after` if given.
    fn push(
        b: &mut ComputationBuilder,
        el: ElementId,
        class: ClassId,
        x: i64,
        after: Option<EventId>,
    ) -> EventId {
        let e = b.add_event(el, class, [Value::Int(x)]).unwrap();
        if let Some(a) = after {
            b.enable(a, e).unwrap();
        }
        e
    }

    #[test]
    fn a_ground_conjunct_that_never_resolves_is_judged_at_the_leaf() {
        // A partial run: two deposits and one removal of a three-item
        // buffer. The conjuncts naming `Out^1`, `Out^2` and `In^2` never
        // settle, so the leaf evaluates them; the others settled on the
        // way. Both agree with batch, holding and failing.
        let (spec, corr, [inp, out], [dep, rem]) = buffer_spec(3, 1);
        let stats = Arc::new(gem_obs::StatsProbe::new());
        let _ambient = gem_obs::ambient::install(stats.clone());
        let mut b = ComputationBuilder::new(spec.structure_arc());
        let d0 = push(&mut b, inp, dep, 7, None);
        let r0 = push(&mut b, out, rem, 7, Some(d0));
        let d1 = push(&mut b, inp, dep, 8, Some(r0));
        let mut chk = IncrChecker::new(&spec, &corr, false);
        assert_eq!(chk.sync_to(&b), LeafStatus::Clean);
        assert!(batch_holds(&b, &spec, &corr));
        // fifo: Out^0 settled when it arrived, Out^1 and Out^2 at the
        // leaf; capacity: `In^1 ⊃ Out^0 ⇒ In^1` settled at `In^1`,
        // `In^2 ⊃ Out^1 ⇒ In^2` at the leaf.
        assert_eq!(
            stats.counter("logic.incr.leaf_eval.by_restriction.0.settled"),
            1
        );
        assert_eq!(
            stats.counter("logic.incr.leaf_eval.by_restriction.0.evals"),
            2
        );
        assert_eq!(
            stats.counter("logic.incr.leaf_eval.by_restriction.1.settled"),
            1
        );
        assert_eq!(
            stats.counter("logic.incr.leaf_eval.by_restriction.1.evals"),
            1
        );
        assert_eq!(stats.counter("logic.incr.leaf_eval.at_leaf"), 3);
        // A third deposit without the removal that frees its slot: the
        // unresolved `Out^1` makes `Out^1 ⇒ In^2` false at the leaf.
        push(&mut b, inp, dep, 9, Some(d1));
        assert_eq!(chk.sync_to(&b), LeafStatus::Fallback);
        assert!(!batch_holds(&b, &spec, &corr));
        assert_eq!(stats.counter("logic.incr.leaf_eval.violations"), 0);
    }

    #[test]
    fn a_settled_violation_is_sticky_until_the_replay_rewinds_below_it() {
        // One slot: the second deposit must follow the first removal.
        let (spec, corr, [inp, out], [dep, rem]) = buffer_spec(2, 1);
        let stats = Arc::new(gem_obs::StatsProbe::new());
        let _ambient = gem_obs::ambient::install(stats.clone());
        let mut b = ComputationBuilder::new(spec.structure_arc());
        let d0 = push(&mut b, inp, dep, 1, None);
        let r0 = push(&mut b, out, rem, 1, Some(d0));
        let mark = b.mark();
        // `In^1` concurrent with `Out^0`: capacity settles false at `In^1`.
        let d1 = push(&mut b, inp, dep, 2, Some(d0));
        let mut chk = IncrChecker::new(&spec, &corr, false);
        assert_eq!(chk.sync_to(&b), LeafStatus::Fallback);
        assert_eq!(stats.counter("logic.incr.leaf_eval.violations"), 1);
        // The leaf under the violation evaluates the whole restriction.
        assert_eq!(
            stats.counter("logic.incr.leaf_eval.by_restriction.1.evals"),
            1
        );
        // Extending the violating prefix keeps it.
        push(&mut b, out, rem, 2, Some(d1));
        assert_eq!(chk.sync_to(&b), LeafStatus::Fallback);
        assert!(!batch_holds(&b, &spec, &corr));
        assert_eq!(stats.counter("logic.incr.leaf_eval.violations"), 1);
        // Rewinding below the settle point drops it.
        b.truncate_to(&mark);
        let d1 = push(&mut b, inp, dep, 2, Some(r0));
        push(&mut b, out, rem, 2, Some(d1));
        assert_eq!(chk.sync_to(&b), LeafStatus::Clean);
        assert!(batch_holds(&b, &spec, &corr));
        assert_eq!(
            chk.sync_to(&b),
            IncrChecker::new(&spec, &corr, false).sync_to(&b)
        );
    }

    #[test]
    fn an_edge_into_the_newest_synced_event_is_replayed() {
        let (spec, corr, p, q, act) = p_never_enables_q();
        let stats = Arc::new(gem_obs::StatsProbe::new());
        let _ambient = gem_obs::ambient::install(stats.clone());
        let mut b = ComputationBuilder::new(spec.structure_arc());
        let p0 = b.add_event(p, act, vec![]).unwrap();
        let q1 = b.add_event(q, act, vec![]).unwrap();
        let mut chk = IncrChecker::new(&spec, &corr, false);
        assert_eq!(chk.sync_to(&b), LeafStatus::Clean);
        // No new event, only a new edge into the newest one.
        let mark = b.mark();
        b.enable(p0, q1).unwrap();
        assert_eq!(chk.sync_to(&b), LeafStatus::Fallback);
        assert_eq!(stats.counter("logic.incr.events_reused"), 1);
        assert_eq!(stats.counter("logic.incr.events_replayed"), 2 + 1);
        // Rolling that edge back changes the event again.
        b.truncate_to(&mark);
        assert_eq!(chk.sync_to(&b), LeafStatus::Clean);
        assert_eq!(stats.counter("logic.incr.events_replayed"), 2 + 1 + 1);
        assert_eq!(stats.counter("logic.incr.disabled"), 0);
    }

    #[test]
    fn a_retroactive_edge_disables_the_checker_for_good() {
        let (spec, corr, p, q, act) = p_never_enables_q();
        let fresh = |b: &ComputationBuilder| IncrChecker::new(&spec, &corr, false).sync_to(b);
        let stats = Arc::new(gem_obs::StatsProbe::new());
        let _ambient = gem_obs::ambient::install(stats.clone());
        let mut b = ComputationBuilder::new(spec.structure_arc());
        let q0 = b.add_event(q, act, vec![]).unwrap();
        let q1 = b.add_event(q, act, vec![]).unwrap();
        let p2 = b.add_event(p, act, vec![]).unwrap();
        b.enable(q0, p2).unwrap();
        let mut chk = IncrChecker::new(&spec, &corr, false);
        assert_eq!(chk.sync_to(&b), LeafStatus::Clean);
        // An edge into `q1` after `p2` was added: its journal entry is out
        // of target order, which breaks prefix finality.
        let mark = b.mark();
        b.enable(q0, q1).unwrap();
        assert_eq!(chk.sync_to(&b), LeafStatus::Fallback);
        assert_eq!(stats.counter("logic.incr.disabled"), 1);
        // Rolling the edge back does not re-enable the checker.
        b.truncate_to(&mark);
        assert_eq!(chk.sync_to(&b), LeafStatus::Fallback);
        let p3 = b.add_event(p, act, vec![]).unwrap();
        b.enable(p2, p3).unwrap();
        assert_eq!(chk.sync_to(&b), LeafStatus::Fallback);
        assert_eq!(fresh(&b), LeafStatus::Clean);
        assert_eq!(stats.counter("logic.incr.disabled"), 1);
    }
}
