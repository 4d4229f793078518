//! Computations: complete concurrent executions (§3).
//!
//! A [`Computation`] is an immutable record of a set of events, the enable
//! relation between them, the element order (induced by per-element
//! occurrence numbers), and the materialised temporal order. Computations
//! are constructed through [`ComputationBuilder`] and *sealed*, at which
//! point the temporal order is built and checked for irreflexivity
//! (acyclicity). Scope-rule legality is checked separately by
//! [`check_legality`](crate::check_legality), so that deliberately illegal
//! computations can be constructed and diagnosed.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::order::{Closure, CycleError};
use crate::{ClassId, ElementId, Event, EventId, Structure, ThreadTag, Value};

/// Errors arising while building a computation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// The element id is not from this structure.
    UnknownElement(ElementId),
    /// The class id is not from this structure.
    UnknownClass(ClassId),
    /// The event id has not been added to this builder.
    UnknownEvent(EventId),
    /// The enable or element-order union is cyclic (reported at seal).
    Cyclic(CycleError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownElement(e) => write!(f, "unknown element {e}"),
            BuildError::UnknownClass(c) => write!(f, "unknown class {c}"),
            BuildError::UnknownEvent(e) => write!(f, "unknown event {e}"),
            BuildError::Cyclic(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<CycleError> for BuildError {
    fn from(c: CycleError) -> Self {
        BuildError::Cyclic(c)
    }
}

// Domain tags keeping the fingerprint's item kinds in disjoint hash
// families (an enable edge can never collide with a precedence over the
// same endpoints, etc.).
const FP_EVENT: u64 = 1;
const FP_ENABLE: u64 = 2;
const FP_PRECEDENCE: u64 = 3;
const FP_MEMBERSHIP: u64 = 4;
const FP_THREAD: u64 = 5;

/// SplitMix64 finalizer: spreads one word over all 64 bits so the
/// commutative sum in [`Computation::fingerprint`] keeps distinct item
/// multisets apart.
fn fp_mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The hash of one fingerprint item — a short, domain-tagged word
/// sequence — folded word by word into a single well-mixed word. Items
/// combine by wrapping addition, so the fingerprint does not depend on
/// the order in which a schedule emitted them.
struct FpItem(u64);

impl FpItem {
    fn new() -> Self {
        Self(0x517c_c1b7_2722_0a95)
    }

    fn word(&mut self, w: u64) {
        self.0 = fp_mix(self.0 ^ w);
    }

    /// Serialises a parameter value into the item (same variant-tag scheme
    /// as the exact canonical key, so distinct values never alias).
    fn value(&mut self, v: &Value) {
        match v {
            Value::Unit => self.word(0),
            Value::Bool(b) => {
                self.word(1);
                self.word(u64::from(*b));
            }
            Value::Int(i) => {
                self.word(2);
                self.word(*i as u64);
            }
            Value::Str(s) => {
                self.word(3);
                self.word(s.len() as u64);
                for b in s.bytes() {
                    self.word(u64::from(b));
                }
            }
        }
    }
}

/// Hashes one fingerprint item given as a word slice.
fn fp_item(words: &[u64]) -> u64 {
    let mut item = FpItem::new();
    for &w in words {
        item.word(w);
    }
    item.0
}

/// The schedule-independent coordinate of an event: its element and its
/// occurrence number there, packed into one word. Event *ids* are
/// insertion-ordered (schedule-dependent), so fingerprint items must
/// never mention them.
fn fp_coord(element: ElementId, seq: u32) -> u64 {
    (u64::from(element.as_raw()) << 32) | u64::from(seq)
}

/// Stamps a builder draws from the process-wide source at a time.
const STAMP_BLOCK: u64 = 1 << 20;

/// The process-wide source of change-stamp blocks: every block is handed
/// out once, so no two builders (clones included) ever issue one stamp.
static STAMP_BLOCKS: AtomicU64 = AtomicU64::new(0);

/// A builder's private range of unissued change stamps. A clone starts
/// with an empty range, so the first stamp it issues draws a fresh block
/// and it never repeats a stamp its original issues after the clone.
#[derive(Debug)]
struct StampSource {
    next: u64,
    end: u64,
}

impl StampSource {
    fn new() -> Self {
        Self { next: 0, end: 0 }
    }

    fn fresh(&mut self) -> u64 {
        if self.next == self.end {
            // `Relaxed` suffices: the counter publishes no other data, and
            // every `fetch_add` still returns a distinct block.
            self.next = STAMP_BLOCKS.fetch_add(STAMP_BLOCK, Ordering::Relaxed);
            self.end = self.next + STAMP_BLOCK;
        }
        self.next += 1;
        self.next - 1
    }
}

impl Clone for StampSource {
    fn clone(&self) -> Self {
        Self::new()
    }
}

/// Emptied parameter vectors of rolled-back events, waiting to be refilled
/// by [`ComputationBuilder::add_event`]. [`ComputationBuilder::truncate_to`]
/// pushes them in reverse event order, so regrowing the same suffix pops
/// each event's own vector back and its capacity already fits. A clone
/// starts with none: spares are capacity, not content.
#[derive(Debug, Default)]
struct SpareParams(Vec<Vec<Value>>);

impl Clone for SpareParams {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Incremental constructor for [`Computation`].
///
/// # Examples
///
/// Modelling the paper's §7 diamond computation
/// (`e1 ⊳ e2`, `e1 ⊳ e3`, `e2 ⊳ e4`, `e3 ⊳ e4`):
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gem_core::{ComputationBuilder, Structure};
/// let mut s = Structure::new();
/// let act = s.add_class("Act", &[])?;
/// let els: Vec<_> = (0..4)
///     .map(|i| s.add_element(format!("P{i}"), &[act]))
///     .collect::<Result<_, _>>()?;
/// let mut b = ComputationBuilder::new(s);
/// let e: Vec<_> = els
///     .iter()
///     .map(|&el| b.add_event(el, act, vec![]))
///     .collect::<Result<_, _>>()?;
/// b.enable(e[0], e[1])?;
/// b.enable(e[0], e[2])?;
/// b.enable(e[1], e[3])?;
/// b.enable(e[2], e[3])?;
/// let c = b.seal()?;
/// assert!(c.temporally_precedes(e[0], e[3]));
/// assert!(c.concurrent(e[1], e[2]));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ComputationBuilder {
    structure: Arc<Structure>,
    events: Vec<Event>,
    element_events: Vec<Vec<EventId>>,
    enables: Vec<(EventId, EventId)>,
    precedences: Vec<(EventId, EventId)>,
    memberships: Vec<Membership>,
    /// Per event, the `enables` and `precedences` journal lengths when it
    /// was added: an edge into the event can only sit past those indices.
    journal_at: Vec<(usize, usize)>,
    /// Per event, its change stamp; see
    /// [`ComputationBuilder::event_stamps`].
    stamps: Vec<u64>,
    stamp_source: StampSource,
    /// Events that received a *fresh* thread tag, in push order — the undo
    /// journal for [`ComputationBuilder::truncate_to`].
    tag_log: Vec<EventId>,
    /// Parameter vectors of rolled-back events, kept for reuse.
    spare_params: SpareParams,
}

/// A snapshot of a builder's growth point, taken with
/// [`ComputationBuilder::mark`] and restored with
/// [`ComputationBuilder::truncate_to`].
///
/// Exploration grows a computation along a schedule and rolls it back when
/// backtracking; a mark plus truncate is O(rolled-back suffix) instead of
/// the full-builder clone per branch it replaces.
#[derive(Clone, Debug)]
pub struct BuilderMark {
    events: usize,
    enables: usize,
    precedences: usize,
    memberships: usize,
    tags: usize,
}

/// A dynamic group-structure change (§5): the event `event` adds `member`
/// to `group`. Group structure grows monotonically; the membership is in
/// force for exactly the events that temporally follow (or are) the
/// membership event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Membership {
    /// The event representing the structure change.
    pub event: EventId,
    /// The group gaining a member.
    pub group: crate::GroupId,
    /// The new member.
    pub member: crate::NodeRef,
}

impl ComputationBuilder {
    /// Creates a builder over `structure`.
    pub fn new(structure: impl Into<Arc<Structure>>) -> Self {
        let structure = structure.into();
        let element_events = vec![Vec::new(); structure.element_count()];
        Self {
            structure,
            events: Vec::new(),
            element_events,
            enables: Vec::new(),
            precedences: Vec::new(),
            memberships: Vec::new(),
            journal_at: Vec::new(),
            stamps: Vec::new(),
            stamp_source: StampSource::new(),
            tag_log: Vec::new(),
            spare_params: SpareParams::default(),
        }
    }

    /// The structure this builder constructs computations over.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Shared handle to that structure (cheap to clone).
    pub fn structure_arc(&self) -> Arc<Structure> {
        Arc::clone(&self.structure)
    }

    /// Adds an event of `class` at `element` carrying `params`.
    ///
    /// The event receives the next occurrence number at its element; the
    /// element order between events at the same element follows insertion
    /// order. `params` is any iterator of values, an array as much as a
    /// `Vec`: the builder fills a parameter vector recycled from a
    /// rolled-back event when it has one, so a simulator that passes an
    /// array allocates nothing once the branch has been grown before.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownElement`] / [`BuildError::UnknownClass`]
    /// for foreign ids. Whether `class` is *allowed* at `element` is a
    /// legality question left to [`check_legality`](crate::check_legality).
    pub fn add_event(
        &mut self,
        element: ElementId,
        class: ClassId,
        params: impl IntoIterator<Item = Value>,
    ) -> Result<EventId, BuildError> {
        if element.index() >= self.structure.element_count() {
            return Err(BuildError::UnknownElement(element));
        }
        if class.index() >= self.structure.class_count() {
            return Err(BuildError::UnknownClass(class));
        }
        // Without a spare, collecting takes over a passed `Vec`'s buffer.
        let params: Vec<Value> = match self.spare_params.0.pop() {
            Some(mut spare) => {
                spare.extend(params);
                spare
            }
            None => params.into_iter().collect(),
        };
        let id = EventId::from_raw(self.events.len() as u32);
        let chain = &mut self.element_events[element.index()];
        let seq = chain.len() as u32;
        chain.push(id);
        self.journal_at
            .push((self.enables.len(), self.precedences.len()));
        self.stamps.push(self.stamp_source.fresh());
        self.events.push(Event {
            id,
            element,
            class,
            seq,
            params,
            threads: Vec::new(),
        });
        Ok(id)
    }

    /// Records the enable edge `from ⊳ to`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownEvent`] if either endpoint has not been
    /// added. Cycles are reported at [`ComputationBuilder::seal`].
    pub fn enable(&mut self, from: EventId, to: EventId) -> Result<(), BuildError> {
        if from.index() >= self.events.len() {
            return Err(BuildError::UnknownEvent(from));
        }
        if to.index() >= self.events.len() {
            return Err(BuildError::UnknownEvent(to));
        }
        self.enables.push((from, to));
        self.stamps[to.index()] = self.stamp_source.fresh();
        Ok(())
    }

    /// Records a pure temporal-precedence constraint `before ⇒ after`
    /// without an enable edge or element order between the events.
    ///
    /// GEM derives the temporal order from the enable relation and the
    /// element order; a *projection* of a computation onto significant
    /// objects (§9), however, must preserve the temporal order the
    /// significant events had in the full computation even where the
    /// mediating (insignificant) events are gone. This method is the
    /// device for that: the pair contributes to the temporal order only —
    /// it does not appear in [`Computation::enables`] or the element
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownEvent`] if either endpoint has not
    /// been added. Cycles are reported at [`ComputationBuilder::seal`].
    pub fn add_precedence(&mut self, before: EventId, after: EventId) -> Result<(), BuildError> {
        if before.index() >= self.events.len() {
            return Err(BuildError::UnknownEvent(before));
        }
        if after.index() >= self.events.len() {
            return Err(BuildError::UnknownEvent(after));
        }
        self.precedences.push((before, after));
        self.stamps[after.index()] = self.stamp_source.fresh();
        Ok(())
    }

    /// Declares that an already-added event represents a dynamic group
    /// change (§5): from `event` onwards, `member` belongs to `group`.
    ///
    /// Group structure grows monotonically; the new membership affects the
    /// access rules for enable edges whose *source* temporally follows (or
    /// is) the membership event — see
    /// [`check_legality`](crate::check_legality).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownEvent`] if the event has not been
    /// added; unknown group/member ids surface as panics at legality
    /// checking, matching [`Structure::add_member`]'s validation there.
    pub fn add_membership_event(
        &mut self,
        event: EventId,
        group: crate::GroupId,
        member: crate::NodeRef,
    ) -> Result<(), BuildError> {
        if event.index() >= self.events.len() {
            return Err(BuildError::UnknownEvent(event));
        }
        self.memberships.push(Membership {
            event,
            group,
            member,
        });
        Ok(())
    }

    /// Attaches a thread tag to an event (§8.3).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownEvent`] if the event has not been added.
    pub fn tag_thread(&mut self, event: EventId, tag: ThreadTag) -> Result<(), BuildError> {
        let ev = self
            .events
            .get_mut(event.index())
            .ok_or(BuildError::UnknownEvent(event))?;
        if !ev.threads.contains(&tag) {
            ev.threads.push(tag);
            self.tag_log.push(event);
        }
        Ok(())
    }

    /// Number of events added so far.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The events added so far, in emission order (index = raw event id).
    ///
    /// Together with [`ComputationBuilder::event_stamps`],
    /// [`ComputationBuilder::journal_at`], the edge journals and
    /// [`ComputationBuilder::events_at`] this lets incremental observers
    /// (e.g. prefix-sharing restriction checkers) read the
    /// computation-under-construction without sealing it. The builder
    /// derives no order while it grows: such an observer keeps the part
    /// of the temporal order it reads, from those same edges.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events at `element` so far, in element order (which is id order):
    /// the `k`-th is the event with occurrence number `k`. Empty for an
    /// element outside the structure.
    pub fn events_at(&self, element: ElementId) -> &[EventId] {
        self.element_events
            .get(element.index())
            .map_or(&[], Vec::as_slice)
    }

    /// One change stamp per event, in emission order. An event gets a
    /// fresh stamp when it is added and whenever an enable or precedence
    /// edge into it is added or rolled back, and no stamp is ever issued
    /// twice, by this builder or any other (clones included). So two
    /// builders with equal stamps at index `k` hold the same event `k`
    /// with the same incoming edges, and an observer that remembers the
    /// stamps it has seen finds what changed without comparing contents.
    pub fn event_stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// The enable and precedence journal lengths when event `i` was
    /// added: every edge into event `i` or a later event sits at or past
    /// these positions.
    ///
    /// # Panics
    ///
    /// Panics if event `i` has not been added.
    pub fn journal_at(&self, i: usize) -> (usize, usize) {
        self.journal_at[i]
    }

    /// The enable edges in insertion order (the builder's undo journal;
    /// may contain duplicates that [`Computation::enables`] would drop).
    /// For simulation-grown builders each edge targets the newest event
    /// when it is added, so the targets are non-decreasing.
    pub fn enable_journal(&self) -> &[(EventId, EventId)] {
        &self.enables
    }

    /// The explicit precedence edges in insertion order.
    pub fn precedence_journal(&self) -> &[(EventId, EventId)] {
        &self.precedences
    }

    /// The membership events added so far.
    pub fn memberships(&self) -> &[Membership] {
        &self.memberships
    }

    /// Number of fresh thread tags recorded so far.
    pub fn tag_count(&self) -> usize {
        self.tag_log.len()
    }

    /// Snapshots the current growth point for a later
    /// [`ComputationBuilder::truncate_to`].
    pub fn mark(&self) -> BuilderMark {
        BuilderMark {
            events: self.events.len(),
            enables: self.enables.len(),
            precedences: self.precedences.len(),
            memberships: self.memberships.len(),
            tags: self.tag_log.len(),
        }
    }

    /// Rolls the builder back to `mark`, undoing every event, edge,
    /// membership, and thread tag added since.
    ///
    /// Every journal is cut back to its length at the mark, so the cost is
    /// the rolled-back suffix. A rolled-back edge that pointed at a
    /// pre-mark event (a retroactive edge; simulation-grown builders draw
    /// none) gives that event a fresh change stamp.
    ///
    /// # Panics
    ///
    /// Panics if the builder is shorter than the mark (marks only roll
    /// *back*).
    pub fn truncate_to(&mut self, mark: &BuilderMark) {
        assert!(
            mark.events <= self.events.len()
                && mark.enables <= self.enables.len()
                && mark.precedences <= self.precedences.len()
                && mark.memberships <= self.memberships.len()
                && mark.tags <= self.tag_log.len(),
            "mark is ahead of the builder"
        );
        while self.tag_log.len() > mark.tags {
            let ev = self.tag_log.pop().expect("checked above");
            // Tags on rolled-back events vanish with the event itself.
            if ev.index() < mark.events {
                self.events[ev.index()].threads.pop();
            }
        }
        for ev in self.events[mark.events..].iter_mut().rev() {
            let popped = self.element_events[ev.element.index()].pop();
            debug_assert_eq!(popped, Some(ev.id), "element chains append-only");
            let mut params = std::mem::take(&mut ev.params);
            params.clear();
            self.spare_params.0.push(params);
        }
        self.stamps.truncate(mark.events);
        // Surviving events that lose an incoming edge change.
        for &(_, to) in self.enables[mark.enables..]
            .iter()
            .chain(&self.precedences[mark.precedences..])
        {
            if to.index() < mark.events {
                self.stamps[to.index()] = self.stamp_source.fresh();
            }
        }
        self.events.truncate(mark.events);
        self.journal_at.truncate(mark.events);
        self.enables.truncate(mark.enables);
        self.precedences.truncate(mark.precedences);
        self.memberships.truncate(mark.memberships);
    }

    /// The direct edge set feeding the temporal order, in the canonical
    /// order: enables, then precedences, then per-element occurrence
    /// chains.
    fn order_edges(&self) -> Vec<(EventId, EventId)> {
        let mut edges = self.enables.clone();
        edges.extend(self.precedences.iter().copied());
        for evs in &self.element_events {
            for pair in evs.windows(2) {
                edges.push((pair[0], pair[1]));
            }
        }
        edges
    }

    /// Computes the temporal order once, from the recorded edges: the
    /// Kahn pass of [`Closure::from_edges`] picks the topological order or
    /// the cycle witness.
    fn build_closure(&self) -> Result<Closure, BuildError> {
        Ok(Closure::from_edges(self.events.len(), &self.order_edges())?)
    }

    fn assemble(
        structure: Arc<Structure>,
        events: Vec<Event>,
        element_events: Vec<Vec<EventId>>,
        enables: &[(EventId, EventId)],
        precedences: &[(EventId, EventId)],
        memberships: Vec<Membership>,
        closure: Closure,
    ) -> Computation {
        let n = events.len();
        let mut enables_out: Vec<Vec<EventId>> = vec![Vec::new(); n];
        let mut enables_in: Vec<Vec<EventId>> = vec![Vec::new(); n];
        for &(a, b) in enables {
            if !enables_out[a.index()].contains(&b) {
                enables_out[a.index()].push(b);
                enables_in[b.index()].push(a);
            }
        }
        let mut precedences_out: Vec<(EventId, EventId)> = Vec::with_capacity(precedences.len());
        for &p in precedences {
            if !precedences_out.contains(&p) {
                precedences_out.push(p);
            }
        }
        Computation {
            structure,
            events,
            enables_out,
            enables_in,
            element_events,
            precedences: precedences_out,
            closure,
            memberships,
        }
    }

    /// Seals the builder: computes the temporal order and checks that it is
    /// a strict partial order.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Cyclic`] if the union of the enable relation
    /// and the element order is cyclic.
    pub fn seal(self) -> Result<Computation, BuildError> {
        let closure = self.build_closure()?;
        Ok(Self::assemble(
            self.structure,
            self.events,
            self.element_events,
            &self.enables,
            &self.precedences,
            self.memberships,
            closure,
        ))
    }

    /// Seals without consuming the builder: the sealed [`Computation`]
    /// copies the event records, but the builder stays usable — this is
    /// what lets exploration extract a computation per run from one shared,
    /// rolled-back builder instead of cloning the whole trace first.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Cyclic`] if the union of the enable relation
    /// and the element order is cyclic.
    pub fn seal_ref(&self) -> Result<Computation, BuildError> {
        let closure = self.build_closure()?;
        Ok(Self::assemble(
            Arc::clone(&self.structure),
            self.events.clone(),
            self.element_events.clone(),
            &self.enables,
            &self.precedences,
            self.memberships.clone(),
            closure,
        ))
    }
}

/// A complete, sealed GEM computation.
///
/// Exposes the three relations of the model: the enable relation
/// ([`Computation::enables`]), the element order
/// ([`Computation::element_precedes`]), and the temporal order
/// ([`Computation::temporally_precedes`]), which is by construction the
/// transitive closure of the former two minus identity.
#[derive(Clone, Debug)]
pub struct Computation {
    structure: Arc<Structure>,
    events: Vec<Event>,
    enables_out: Vec<Vec<EventId>>,
    enables_in: Vec<Vec<EventId>>,
    element_events: Vec<Vec<EventId>>,
    precedences: Vec<(EventId, EventId)>,
    closure: Closure,
    memberships: Vec<Membership>,
}

impl Computation {
    /// An empty computation over `structure`.
    pub fn empty(structure: impl Into<Arc<Structure>>) -> Self {
        ComputationBuilder::new(structure)
            .seal()
            .expect("empty computation cannot be cyclic")
    }

    /// The static structure this computation is over.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Shared handle to the structure (cheap to clone).
    pub fn structure_arc(&self) -> Arc<Structure> {
        Arc::clone(&self.structure)
    }

    /// Number of events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// True if the computation has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this computation.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// All events, in id order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Human-readable label for `id` in the paper's `El.Class^seq`
    /// notation (e.g. `Reader1.StartRead^0`); used by counterexample
    /// descriptions, dot export, and blame reports.
    pub fn event_label(&self, id: EventId) -> String {
        let ev = self.event(id);
        format!(
            "{}.{}^{}",
            self.structure.element_info(ev.element).name(),
            self.structure.class_info(ev.class).name(),
            ev.seq
        )
    }

    /// Iterates over the ids of all events.
    pub fn event_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.events.len()).map(|i| EventId::from_raw(i as u32))
    }

    /// Ids of events of class `class`, in id order.
    pub fn events_of_class(&self, class: ClassId) -> impl Iterator<Item = EventId> + '_ {
        self.events
            .iter()
            .filter(move |e| e.class == class)
            .map(|e| e.id)
    }

    /// Events at `element`, in element order (which is id order); empty
    /// for an element outside the structure.
    pub fn events_at(&self, element: ElementId) -> &[EventId] {
        self.element_events
            .get(element.index())
            .map_or(&[], Vec::as_slice)
    }

    /// The `i`-th event at `element` (the paper's `EL^i`), if it occurred;
    /// `None` for an element outside the structure.
    pub fn nth_at(&self, element: ElementId, i: usize) -> Option<EventId> {
        self.events_at(element).get(i).copied()
    }

    /// True if `from ⊳ to` is a (direct) enable edge.
    pub fn enables(&self, from: EventId, to: EventId) -> bool {
        self.enables_out[from.index()].contains(&to)
    }

    /// Events directly enabled by `e`.
    pub fn enabled_from(&self, e: EventId) -> &[EventId] {
        &self.enables_out[e.index()]
    }

    /// Events that directly enable `e`.
    pub fn enablers_of(&self, e: EventId) -> &[EventId] {
        &self.enables_in[e.index()]
    }

    /// Iterates over all enable edges.
    pub fn enable_edges(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.enables_out
            .iter()
            .enumerate()
            .flat_map(|(i, outs)| outs.iter().map(move |&b| (EventId::from_raw(i as u32), b)))
    }

    /// A schedule-independent 64-bit fingerprint of this computation,
    /// hashed on each call in O(events + edges). It hashes the generators
    /// of the computation — events with classes, parameters, and thread
    /// tags in `(element, seq)` coordinates, the enable-edge set, the
    /// precedence-edge set, and the memberships — so two schedules sealing
    /// to the same computation always agree on it. Distinct computations
    /// collide only with hash probability; the exact identity is
    /// `gem_verify::canonical_key`. No sweep reads it: the golden step
    /// semantics digest it to pin each run's computation in one word.
    pub fn fingerprint(&self) -> u64 {
        self.hash_generators()
    }

    /// Hashes the generators behind [`Computation::fingerprint`]: the
    /// wrapping sum of one well-mixed item per event (with its class and
    /// parameters), thread tag, distinct enable edge, distinct precedence,
    /// and membership, each in `(element, seq)` coordinates. Event *ids*
    /// are insertion-ordered (schedule-dependent), so no item mentions
    /// them.
    fn hash_generators(&self) -> u64 {
        let coord = |e: EventId| {
            let ev = &self.events[e.index()];
            fp_coord(ev.element, ev.seq)
        };
        let mut fp = 0u64;
        for ev in &self.events {
            let at = fp_coord(ev.element, ev.seq);
            let mut item = FpItem::new();
            item.word(FP_EVENT);
            item.word(at);
            item.word(u64::from(ev.class.as_raw()));
            item.word(ev.params.len() as u64);
            for p in &ev.params {
                item.value(p);
            }
            fp = fp.wrapping_add(item.0);
            for t in &ev.threads {
                fp = fp.wrapping_add(fp_item(&[
                    FP_THREAD,
                    at,
                    u64::from(t.thread_type().as_raw()),
                    u64::from(t.instance()),
                ]));
            }
        }
        for (from, to) in self.enable_edges() {
            fp = fp.wrapping_add(fp_item(&[FP_ENABLE, coord(from), coord(to)]));
        }
        for &(before, after) in &self.precedences {
            fp = fp.wrapping_add(fp_item(&[FP_PRECEDENCE, coord(before), coord(after)]));
        }
        for m in &self.memberships {
            let (kind, raw) = match m.member {
                crate::NodeRef::Element(el) => (0u64, el.as_raw()),
                crate::NodeRef::Group(g) => (1u64, g.as_raw()),
            };
            fp = fp.wrapping_add(fp_item(&[
                FP_MEMBERSHIP,
                coord(m.event),
                u64::from(m.group.as_raw()),
                kind,
                u64::from(raw),
            ]));
        }
        fp
    }

    /// True if `a ⇒ₑ b`: same element and `a` occurs earlier (§5 — partial,
    /// irreflexive, transitive; total within an element).
    pub fn element_precedes(&self, a: EventId, b: EventId) -> bool {
        let (ea, eb) = (&self.events[a.index()], &self.events[b.index()]);
        ea.element == eb.element && ea.seq < eb.seq
    }

    /// True if `a ⇒ b` in the temporal order.
    pub fn temporally_precedes(&self, a: EventId, b: EventId) -> bool {
        self.closure.precedes(a, b)
    }

    /// True if `a` and `b` are potentially concurrent (distinct, unordered).
    pub fn concurrent(&self, a: EventId, b: EventId) -> bool {
        self.closure.concurrent(a, b)
    }

    /// The materialised temporal order.
    pub fn closure(&self) -> &Closure {
        &self.closure
    }

    /// `new(e)` (§8.2): no event observably follows `e` in this
    /// computation.
    pub fn is_new(&self, e: EventId) -> bool {
        self.closure.successors(e).is_empty()
    }

    /// `e1 at E2` (§8.2): `e1` occurred and has not enabled an event of
    /// class `class`.
    pub fn at_control_point(&self, e: EventId, class: ClassId) -> bool {
        !self.enables_out[e.index()]
            .iter()
            .any(|&s| self.events[s.index()].class == class)
    }

    /// The dynamic group-structure changes of this computation (§5), in
    /// declaration order.
    pub fn memberships(&self) -> &[Membership] {
        &self.memberships
    }

    /// The structure as seen by `event`: the static structure plus every
    /// dynamic membership whose event temporally precedes (or is)
    /// `event`. Groups grow monotonically along the temporal order.
    ///
    /// Returns the shared static structure unchanged when no dynamic
    /// membership applies, so the common case allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a membership references ids foreign to the structure or
    /// would create a group cycle.
    pub fn structure_at(&self, event: EventId) -> Arc<Structure> {
        let applicable: Vec<&Membership> = self
            .memberships
            .iter()
            .filter(|m| m.event == event || self.closure.precedes(m.event, event))
            .collect();
        if applicable.is_empty() {
            return Arc::clone(&self.structure);
        }
        let mut s = (*self.structure).clone();
        for m in applicable {
            s.add_member(m.group, m.member)
                .expect("membership event ids are valid and acyclic");
        }
        Arc::new(s)
    }

    /// Returns a copy of this computation with every event's thread tags
    /// replaced by `tags(event_id)`.
    ///
    /// Thread assignment (§8.3) is often inferred *after* a computation is
    /// built (e.g. by matching path expressions); this rebuilds the event
    /// records without recomputing the temporal order, which is unaffected
    /// by tags.
    pub fn retagged(&self, mut tags: impl FnMut(EventId) -> Vec<ThreadTag>) -> Computation {
        let mut copy = self.clone();
        for ev in &mut copy.events {
            ev.threads = tags(ev.id);
        }
        copy
    }

    /// Events with no temporal predecessor (the minimal events).
    pub fn minimal_events(&self) -> Vec<EventId> {
        self.event_ids()
            .filter(|&e| self.closure.predecessors(e).is_empty())
            .collect()
    }

    /// Events with no temporal successor (the maximal events).
    pub fn maximal_events(&self) -> Vec<EventId> {
        self.event_ids().filter(|&e| self.is_new(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var_structure() -> (Structure, ElementId, ClassId, ClassId) {
        let mut s = Structure::new();
        let assign = s.add_class("Assign", &["newval"]).unwrap();
        let getval = s.add_class("Getval", &["oldval"]).unwrap();
        let var = s.add_element("Var", &[assign, getval]).unwrap();
        (s, var, assign, getval)
    }

    #[test]
    fn element_order_is_total_at_element() {
        let (s, var, assign, getval) = var_structure();
        let mut b = ComputationBuilder::new(s);
        let a1 = b.add_event(var, assign, vec![Value::Int(1)]).unwrap();
        let g1 = b.add_event(var, getval, vec![Value::Int(1)]).unwrap();
        let a2 = b.add_event(var, assign, vec![Value::Int(2)]).unwrap();
        let c = b.seal().unwrap();
        assert!(c.element_precedes(a1, g1));
        assert!(c.element_precedes(g1, a2));
        assert!(c.element_precedes(a1, a2), "element order is transitive");
        assert!(!c.element_precedes(a2, a1));
        // Element order feeds the temporal order even without enables.
        assert!(c.temporally_precedes(a1, a2));
        assert!(!c.concurrent(a1, g1));
    }

    #[test]
    fn occurrence_numbers_assigned_in_order() {
        let (s, var, assign, _) = var_structure();
        let mut b = ComputationBuilder::new(s);
        let a1 = b.add_event(var, assign, vec![Value::Int(1)]).unwrap();
        let a2 = b.add_event(var, assign, vec![Value::Int(2)]).unwrap();
        let c = b.seal().unwrap();
        assert_eq!(c.event(a1).seq(), 0);
        assert_eq!(c.event(a2).seq(), 1);
        assert_eq!(c.nth_at(var, 0), Some(a1));
        assert_eq!(c.nth_at(var, 1), Some(a2));
        assert_eq!(c.nth_at(var, 2), None);
        assert_eq!(c.events_at(var), &[a1, a2]);
        // An element of another structure names no event.
        let foreign = ElementId::from_raw(7);
        assert_eq!(c.nth_at(foreign, 0), None);
        assert!(c.events_at(foreign).is_empty());
    }

    #[test]
    fn enable_vs_element_order_distinction() {
        // §5: two assignments to Var from different processes are related
        // by the element order but NOT the enable relation.
        let mut s = Structure::new();
        let assign = s.add_class("Assign", &["newval"]).unwrap();
        let var = s.add_element("Var", &[assign]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let assign1 = b.add_event(var, assign, vec![Value::Int(1)]).unwrap();
        let assign2 = b.add_event(var, assign, vec![Value::Int(2)]).unwrap();
        let c = b.seal().unwrap();
        assert!(!c.enables(assign1, assign2));
        assert!(c.element_precedes(assign1, assign2));
        assert!(c.temporally_precedes(assign1, assign2));
    }

    #[test]
    fn cyclic_enable_rejected_at_seal() {
        let (s, var, assign, _) = var_structure();
        let mut b = ComputationBuilder::new(s);
        let a1 = b.add_event(var, assign, vec![]).unwrap();
        let a2 = b.add_event(var, assign, vec![]).unwrap();
        // Element order says a1 before a2; enabling a2 ⊳ a1 closes a cycle.
        b.enable(a2, a1).unwrap();
        assert!(matches!(b.seal(), Err(BuildError::Cyclic(_))));
    }

    #[test]
    fn unknown_ids_rejected() {
        let (s, var, assign, _) = var_structure();
        let mut b = ComputationBuilder::new(s);
        assert!(matches!(
            b.add_event(ElementId::from_raw(9), assign, vec![]),
            Err(BuildError::UnknownElement(_))
        ));
        assert!(matches!(
            b.add_event(var, ClassId::from_raw(9), vec![]),
            Err(BuildError::UnknownClass(_))
        ));
        let e = b.add_event(var, assign, vec![]).unwrap();
        assert!(matches!(
            b.enable(e, EventId::from_raw(5)),
            Err(BuildError::UnknownEvent(_))
        ));
        assert!(matches!(
            b.tag_thread(
                EventId::from_raw(5),
                crate::ThreadTag::new(crate::ThreadTypeId::from_raw(0), 0)
            ),
            Err(BuildError::UnknownEvent(_))
        ));
    }

    #[test]
    fn class_and_element_queries() {
        let (s, var, assign, getval) = var_structure();
        let mut b = ComputationBuilder::new(s);
        let a1 = b.add_event(var, assign, vec![]).unwrap();
        let g1 = b.add_event(var, getval, vec![]).unwrap();
        let c = b.seal().unwrap();
        assert_eq!(c.events_of_class(assign).collect::<Vec<_>>(), vec![a1]);
        assert_eq!(c.events_of_class(getval).collect::<Vec<_>>(), vec![g1]);
        assert_eq!(c.event_count(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn minimal_maximal_and_new() {
        let (s, var, assign, _) = var_structure();
        let mut b = ComputationBuilder::new(s);
        let a1 = b.add_event(var, assign, vec![]).unwrap();
        let a2 = b.add_event(var, assign, vec![]).unwrap();
        let c = b.seal().unwrap();
        assert_eq!(c.minimal_events(), vec![a1]);
        assert_eq!(c.maximal_events(), vec![a2]);
        assert!(c.is_new(a2));
        assert!(!c.is_new(a1));
    }

    #[test]
    fn at_control_point() {
        let mut s = Structure::new();
        let req = s.add_class("Req", &[]).unwrap();
        let start = s.add_class("Start", &[]).unwrap();
        let ctl = s.add_element("Control", &[req, start]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let r1 = b.add_event(ctl, req, vec![]).unwrap();
        let r2 = b.add_event(ctl, req, vec![]).unwrap();
        let s1 = b.add_event(ctl, start, vec![]).unwrap();
        b.enable(r1, s1).unwrap();
        let c = b.seal().unwrap();
        // r1 has enabled a Start, so it is no longer "at Start"; r2 is.
        assert!(!c.at_control_point(r1, start));
        assert!(c.at_control_point(r2, start));
    }

    #[test]
    fn duplicate_enable_edges_collapse() {
        let (s, var, assign, _) = var_structure();
        let mut b = ComputationBuilder::new(s);
        let a1 = b.add_event(var, assign, vec![]).unwrap();
        let a2 = b.add_event(var, assign, vec![]).unwrap();
        b.enable(a1, a2).unwrap();
        b.enable(a1, a2).unwrap();
        let c = b.seal().unwrap();
        assert_eq!(c.enabled_from(a1), &[a2]);
        assert_eq!(c.enablers_of(a2), &[a1]);
        assert_eq!(c.enable_edges().count(), 1);
    }

    #[test]
    fn precedence_orders_without_enabling() {
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).unwrap();
        let p = s.add_element("P", &[act]).unwrap();
        let q = s.add_element("Q", &[act]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let e1 = b.add_event(p, act, vec![]).unwrap();
        let e2 = b.add_event(q, act, vec![]).unwrap();
        b.add_precedence(e1, e2).unwrap();
        let c = b.seal().unwrap();
        assert!(c.temporally_precedes(e1, e2));
        assert!(!c.enables(e1, e2), "precedence is not an enable edge");
        assert!(!c.element_precedes(e1, e2));
        assert!(!c.concurrent(e1, e2));
    }

    #[test]
    fn cyclic_precedence_rejected() {
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).unwrap();
        let p = s.add_element("P", &[act]).unwrap();
        let q = s.add_element("Q", &[act]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let e1 = b.add_event(p, act, vec![]).unwrap();
        let e2 = b.add_event(q, act, vec![]).unwrap();
        b.enable(e1, e2).unwrap();
        b.add_precedence(e2, e1).unwrap();
        assert!(matches!(b.seal(), Err(BuildError::Cyclic(_))));
        let mut b2 = ComputationBuilder::new(Structure::new());
        assert!(matches!(
            b2.add_precedence(EventId::from_raw(0), EventId::from_raw(1)),
            Err(BuildError::UnknownEvent(_))
        ));
    }

    #[test]
    fn seal_ref_equals_seal() {
        let (s, var, assign, getval) = var_structure();
        let mut b = ComputationBuilder::new(s);
        let a1 = b.add_event(var, assign, vec![Value::Int(1)]).unwrap();
        let g1 = b.add_event(var, getval, vec![Value::Int(1)]).unwrap();
        b.enable(a1, g1).unwrap();
        let by_ref = b.seal_ref().unwrap();
        let owned = b.seal().unwrap();
        assert_eq!(by_ref.events(), owned.events());
        assert_eq!(
            by_ref.enable_edges().collect::<Vec<_>>(),
            owned.enable_edges().collect::<Vec<_>>()
        );
        assert_eq!(by_ref.closure(), owned.closure());
    }

    #[test]
    fn mark_and_truncate_roll_back_growth() {
        let (s, var, assign, getval) = var_structure();
        let mut b = ComputationBuilder::new(s);
        let a1 = b.add_event(var, assign, vec![Value::Int(1)]).unwrap();
        let before = b.seal_ref().unwrap();
        let mark = b.mark();
        let g1 = b.add_event(var, getval, vec![]).unwrap();
        b.enable(a1, g1).unwrap();
        let tag = crate::ThreadTag::new(crate::ThreadTypeId::from_raw(0), 7);
        b.tag_thread(a1, tag).unwrap();
        b.truncate_to(&mark);
        assert_eq!(b.event_count(), 1);
        let after = b.seal_ref().unwrap();
        assert_eq!(after.events(), before.events());
        assert_eq!(after.closure(), before.closure());
        assert!(after.event(a1).threads().is_empty(), "tag rolled back");
        // The builder keeps growing correctly after a rollback.
        let g2 = b.add_event(var, getval, vec![]).unwrap();
        b.enable(a1, g2).unwrap();
        let c = b.seal().unwrap();
        assert!(c.temporally_precedes(a1, g2));
        assert!(c.enables(a1, g2));
        assert_eq!(c.event(g2).seq(), 1);
    }

    #[test]
    fn truncate_handles_retro_edges_via_rebuild() {
        // A post-mark precedence between two *pre-mark* events exercises
        // the rebuild fallback (column masking alone cannot undo it).
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).unwrap();
        let p = s.add_element("P", &[act]).unwrap();
        let q = s.add_element("Q", &[act]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let e1 = b.add_event(p, act, vec![]).unwrap();
        let e2 = b.add_event(q, act, vec![]).unwrap();
        let mark = b.mark();
        b.add_precedence(e1, e2).unwrap();
        assert!(b.seal_ref().unwrap().temporally_precedes(e1, e2));
        b.truncate_to(&mark);
        let c = b.seal_ref().unwrap();
        assert!(c.concurrent(e1, e2), "retro precedence rolled back");
    }

    #[test]
    fn truncate_restores_cycle_state() {
        let (s, var, assign, _) = var_structure();
        let mut b = ComputationBuilder::new(s);
        let a1 = b.add_event(var, assign, vec![]).unwrap();
        let mark = b.mark();
        let a2 = b.add_event(var, assign, vec![]).unwrap();
        b.enable(a2, a1).unwrap(); // cycle with the element order
        assert!(matches!(b.seal_ref(), Err(BuildError::Cyclic(_))));
        b.truncate_to(&mark);
        assert!(b.seal_ref().is_ok(), "cycle rolled back with its edges");
        assert_eq!(b.event_count(), 1);
        let _ = a2;
    }

    #[test]
    fn membership_rolls_back() {
        let mut s = Structure::new();
        let act = s.add_class("Act", &[]).unwrap();
        let el = s.add_element("P", &[act]).unwrap();
        let g = s.add_group("G", &[]).unwrap();
        let mut b = ComputationBuilder::new(s);
        let e1 = b.add_event(el, act, vec![]).unwrap();
        let mark = b.mark();
        b.add_membership_event(e1, g, crate::NodeRef::Element(el))
            .unwrap();
        assert_eq!(b.seal_ref().unwrap().memberships().len(), 1);
        b.truncate_to(&mark);
        assert!(b.seal_ref().unwrap().memberships().is_empty());
    }

    fn two_element_structure() -> (Structure, ElementId, ElementId, ClassId) {
        let mut s = Structure::new();
        let step = s.add_class("Step", &["n"]).unwrap();
        let p = s.add_element("P", &[step]).unwrap();
        let q = s.add_element("Q", &[step]).unwrap();
        (s, p, q, step)
    }

    #[test]
    fn fingerprint_is_schedule_independent() {
        let (s, p, q, step) = two_element_structure();
        let s = Arc::new(s);
        let mut b1 = ComputationBuilder::new(Arc::clone(&s));
        let p0 = b1.add_event(p, step, vec![Value::Int(1)]).unwrap();
        let q0 = b1.add_event(q, step, vec![Value::Int(2)]).unwrap();
        let _p1 = b1.add_event(p, step, vec![Value::Int(3)]).unwrap();
        b1.enable(p0, q0).unwrap();
        // Same events and edges, interleaved differently.
        let mut b2 = ComputationBuilder::new(Arc::clone(&s));
        let p0 = b2.add_event(p, step, vec![Value::Int(1)]).unwrap();
        let _p1 = b2.add_event(p, step, vec![Value::Int(3)]).unwrap();
        let q0 = b2.add_event(q, step, vec![Value::Int(2)]).unwrap();
        b2.enable(p0, q0).unwrap();
        assert_eq!(
            b1.seal().unwrap().fingerprint(),
            b2.seal().unwrap().fingerprint()
        );
    }

    #[test]
    fn fingerprint_restored_by_truncate() {
        let (s, p, q, step) = two_element_structure();
        let mut b = ComputationBuilder::new(s);
        let fp = |b: &ComputationBuilder| b.seal_ref().unwrap().fingerprint();
        let p0 = b.add_event(p, step, vec![Value::Int(1)]).unwrap();
        let before = fp(&b);
        let mark = b.mark();
        let q0 = b.add_event(q, step, vec![Value::Int(2)]).unwrap();
        b.enable(p0, q0).unwrap();
        b.add_precedence(p0, q0).unwrap();
        b.tag_thread(
            p0,
            crate::ThreadTag::new(crate::ThreadTypeId::from_raw(0), 1),
        )
        .unwrap();
        assert_ne!(fp(&b), before);
        b.truncate_to(&mark);
        assert_eq!(fp(&b), before);
        // Regrowing the same suffix reproduces the same fingerprint.
        let q0 = b.add_event(q, step, vec![Value::Int(2)]).unwrap();
        b.enable(p0, q0).unwrap();
        let fp1 = fp(&b);
        let mark2 = b.mark();
        b.truncate_to(&mark2);
        assert_eq!(fp(&b), fp1);
    }

    #[test]
    fn fingerprint_counts_each_surviving_item_once() {
        let (mut s, p, q, step) = two_element_structure();
        let g = s.add_group("G", &[]).unwrap();
        let s = Arc::new(s);
        let tag = crate::ThreadTag::new(crate::ThreadTypeId::from_raw(0), 1);
        let build = |noisy: bool, member: bool| {
            let mut b = ComputationBuilder::new(Arc::clone(&s));
            let p0 = b.add_event(p, step, vec![Value::Int(1)]).unwrap();
            let q0 = b.add_event(q, step, vec![Value::Int(2)]).unwrap();
            b.enable(p0, q0).unwrap();
            b.add_precedence(p0, q0).unwrap();
            b.tag_thread(q0, tag).unwrap();
            if member {
                b.add_membership_event(q0, g, crate::NodeRef::Element(p))
                    .unwrap();
            }
            if noisy {
                // Duplicates collapse in the sealed computation; a tag on
                // a surviving event and a whole event are rolled back.
                b.enable(p0, q0).unwrap();
                b.add_precedence(p0, q0).unwrap();
                b.tag_thread(q0, tag).unwrap();
                let mark = b.mark();
                b.tag_thread(p0, tag).unwrap();
                let p1 = b.add_event(p, step, vec![Value::Int(3)]).unwrap();
                b.enable(q0, p1).unwrap();
                b.truncate_to(&mark);
                assert_eq!(b.enable_journal().len(), 2);
            }
            b.seal().unwrap().fingerprint()
        };
        assert_eq!(build(true, true), build(false, true));
        assert_ne!(build(false, false), build(false, true), "membership");
    }

    #[test]
    fn fingerprint_separates_data_edges_and_tags() {
        let (s, p, q, step) = two_element_structure();
        let s = Arc::new(s);
        let build = |param: i64, edge: bool, prec: bool, tag: bool| {
            let mut b = ComputationBuilder::new(Arc::clone(&s));
            let p0 = b.add_event(p, step, vec![Value::Int(param)]).unwrap();
            let q0 = b.add_event(q, step, vec![Value::Int(0)]).unwrap();
            if edge {
                b.enable(p0, q0).unwrap();
            }
            if prec {
                b.add_precedence(p0, q0).unwrap();
            }
            if tag {
                b.tag_thread(
                    p0,
                    crate::ThreadTag::new(crate::ThreadTypeId::from_raw(0), 1),
                )
                .unwrap();
            }
            b.seal().unwrap().fingerprint()
        };
        let base = build(1, false, false, false);
        assert_ne!(base, build(2, false, false, false), "params");
        assert_ne!(base, build(1, true, false, false), "enables");
        assert_ne!(base, build(1, false, true, false), "precedences");
        assert_ne!(base, build(1, false, false, true), "thread tags");
        assert_ne!(
            build(1, true, false, false),
            build(1, false, true, false),
            "enable vs precedence over the same endpoints"
        );
    }

    #[test]
    fn stamps_change_with_an_event_or_its_incoming_edges() {
        let (s, p, q, step) = two_element_structure();
        let mut b = ComputationBuilder::new(s);
        let p0 = b.add_event(p, step, vec![]).unwrap();
        let mark = b.mark();
        let q0 = b.add_event(q, step, vec![]).unwrap();
        let grown = b.event_stamps().to_vec();
        assert_ne!(grown[0], grown[1]);
        // An edge restamps its target only.
        b.enable(p0, q0).unwrap();
        assert_eq!(b.event_stamps()[0], grown[0]);
        assert_ne!(b.event_stamps()[1], grown[1]);
        // Regrowing the same event after a rollback never reuses a stamp.
        b.truncate_to(&mark);
        assert_eq!(b.event_stamps(), &grown[..1]);
        b.add_event(q, step, vec![]).unwrap();
        assert!(!grown.contains(&b.event_stamps()[1]));
        // Rolling back a retroactive edge restamps the event it entered.
        let before = b.event_stamps().to_vec();
        let mark = b.mark();
        b.add_precedence(q0, p0).unwrap();
        b.truncate_to(&mark);
        assert_ne!(b.event_stamps()[0], before[0]);
        assert_eq!(b.event_stamps()[1], before[1]);
        assert_eq!(b.journal_at(1), (0, 0));
    }

    #[test]
    fn clones_never_issue_the_same_stamp() {
        let (s, p, q, step) = two_element_structure();
        let mut a = ComputationBuilder::new(s);
        let p0 = a.add_event(p, step, vec![]).unwrap();
        let mut c = a.clone();
        assert_eq!(c.event_stamps(), a.event_stamps());
        let qa = a.add_event(q, step, vec![]).unwrap();
        let qc = c.add_event(q, step, vec![]).unwrap();
        assert_ne!(a.event_stamps()[1], c.event_stamps()[1]);
        a.enable(p0, qa).unwrap();
        c.enable(p0, qc).unwrap();
        assert_ne!(a.event_stamps()[1], c.event_stamps()[1]);
    }

    #[test]
    fn retagged_adjusts_fingerprint() {
        let (s, p, _, step) = two_element_structure();
        let mut b = ComputationBuilder::new(s);
        let p0 = b.add_event(p, step, vec![]).unwrap();
        let tag = crate::ThreadTag::new(crate::ThreadTypeId::from_raw(0), 3);
        let untagged = b.seal_ref().unwrap();
        b.tag_thread(p0, tag).unwrap();
        let tagged = b.seal().unwrap();
        assert_ne!(untagged.fingerprint(), tagged.fingerprint());
        // Retagging to the same tag set reproduces the built fingerprint;
        // stripping the tags recovers the untagged one.
        assert_eq!(
            untagged.retagged(|_| vec![tag]).fingerprint(),
            tagged.fingerprint()
        );
        assert_eq!(
            tagged.retagged(|_| Vec::new()).fingerprint(),
            untagged.fingerprint()
        );
    }

    #[test]
    fn empty_computation() {
        let (s, _, _, _) = var_structure();
        let c = Computation::empty(s);
        assert!(c.is_empty());
        assert_eq!(c.event_count(), 0);
        assert!(c.minimal_events().is_empty());
    }
}
