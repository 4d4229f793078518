//! The temporal order `⇒`: transitive closure of the enable relation and
//! the element order, minus identity (§3, §5).
//!
//! A legal computation's temporal order must be a strict partial order, so
//! the union of enable edges and element-successor edges must be acyclic.
//! [`Closure`] materialises the order as a reachability matrix (one bitset
//! row per event for successors and one per event for predecessors), giving
//! O(1) `precedes`/`concurrent` queries and O(n/64) predecessor-set
//! retrieval — the operations history enumeration and restriction
//! evaluation perform constantly.
//!
//! An alternative on-demand DFS implementation ([`DfsReachability`]) is
//! provided for the closure-representation ablation (DESIGN.md §4,
//! bench `closure_scaling`).

use crate::{DenseBitSet, EventId};

/// Error returned when the union of enable and element order is cyclic,
/// i.e. the temporal order would not be irreflexive.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CycleError {
    /// An event on the cycle.
    pub on_cycle: EventId,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "temporal order is cyclic: event {} precedes itself",
            self.on_cycle
        )
    }
}

impl std::error::Error for CycleError {}

/// Materialised strict partial order over `n` events.
///
/// Built from a DAG of direct edges with [`Closure::from_edges`]; exposes
/// reachability both ways plus a topological order of the events.
#[derive(Clone, PartialEq, Debug)]
pub struct Closure {
    /// `succ[i]` = set of `j` with `i ⇒ j`.
    succ: Vec<DenseBitSet>,
    /// `pred[j]` = set of `i` with `i ⇒ j`.
    pred: Vec<DenseBitSet>,
    /// The events in some topological order of the direct-edge DAG.
    topo: Vec<EventId>,
}

impl Closure {
    /// Builds the closure of the relation given by `edges` over events
    /// `0..n`: successor rows by one sweep in reverse topological order,
    /// predecessor rows as their blocked bit transpose.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the edges contain a cycle (including a
    /// self-loop), since the temporal order must be irreflexive and
    /// transitive.
    pub fn from_edges(n: usize, edges: &[(EventId, EventId)]) -> Result<Self, CycleError> {
        let started = gem_obs::ambient::timings_active().then(std::time::Instant::now);
        let (topo, out) = topo_from_edges(n, edges)?;
        // succ rows in reverse topological order: row(v) = ∪ (row(w) ∪ {w}).
        let mut succ = vec![DenseBitSet::new(n); n];
        for &v in topo.iter().rev() {
            let mut row = std::mem::take(&mut succ[v.index()]);
            for &w in out.targets_of(v.index()) {
                row.insert(w as usize);
                row.union_with(&succ[w as usize]);
            }
            succ[v.index()] = row;
        }
        let pred = transpose(&succ);
        let closure = Self { succ, pred, topo };
        if gem_obs::ambient::active() {
            gem_obs::ambient::add("core.closure.built", 1);
            gem_obs::ambient::add("core.closure.edges", closure.pair_count() as u64);
        }
        if let Some(started) = started {
            gem_obs::ambient::time_ns(
                "phase.closure",
                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        Ok(closure)
    }

    /// Number of events covered by this closure.
    pub fn len(&self) -> usize {
        self.succ.len()
    }

    /// True if the closure covers zero events.
    pub fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    /// True if `a ⇒ b` (strictly precedes in the temporal order).
    pub fn precedes(&self, a: EventId, b: EventId) -> bool {
        self.succ[a.index()].contains(b.index())
    }

    /// True if `a` and `b` are potentially concurrent: distinct and
    /// unordered by `⇒` (§2: "no observable order between them").
    pub fn concurrent(&self, a: EventId, b: EventId) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }

    /// The set of strict successors of `a` (everything `a` precedes).
    pub fn successors(&self, a: EventId) -> &DenseBitSet {
        &self.succ[a.index()]
    }

    /// The set of strict predecessors of `b` (everything preceding `b`).
    pub fn predecessors(&self, b: EventId) -> &DenseBitSet {
        &self.pred[b.index()]
    }

    /// Events in a topological order consistent with `⇒`.
    pub fn topological(&self) -> &[EventId] {
        &self.topo
    }

    /// Number of ordered pairs in the order (size of `⇒` as a relation).
    pub fn pair_count(&self) -> usize {
        self.succ.iter().map(DenseBitSet::len).sum()
    }
}

/// Direct edges in compressed rows: the targets of `v` are
/// `targets[start[v]..start[v + 1]]`, in insertion order. Two buffers
/// instead of one list per event keep a seal's allocations independent of
/// the event count.
#[derive(Clone, Debug)]
struct Adjacency {
    start: Vec<usize>,
    targets: Vec<u32>,
}

impl Adjacency {
    fn new(n: usize, edges: &[(EventId, EventId)]) -> Self {
        let mut start = vec![0; n + 1];
        for &(a, b) in edges {
            debug_assert!(a.index() < n && b.index() < n, "edge endpoint out of range");
            start[a.index()] += 1;
        }
        // Running sums make `start[v]` the end of v's range; filling from
        // the last edge backwards moves it to the beginning.
        for v in 1..=n {
            start[v] += start[v - 1];
        }
        let mut targets = vec![0; edges.len()];
        for &(a, b) in edges.iter().rev() {
            start[a.index()] -= 1;
            targets[start[a.index()]] = b.as_raw();
        }
        Self { start, targets }
    }

    fn targets_of(&self, v: usize) -> &[u32] {
        &self.targets[self.start[v]..self.start[v + 1]]
    }
}

/// Kahn's algorithm over `edges`: a topological order of `0..n` plus the
/// adjacency, or the same [`CycleError`] the closure build reports.
fn topo_from_edges(
    n: usize,
    edges: &[(EventId, EventId)],
) -> Result<(Vec<EventId>, Adjacency), CycleError> {
    let out = Adjacency::new(n, edges);
    let mut indegree = vec![0u32; n];
    for &(_, b) in edges {
        indegree[b.index()] += 1;
    }
    let mut stack: Vec<u32> = (0..n as u32)
        .filter(|&i| indegree[i as usize] == 0)
        .collect();
    let mut topo = Vec::with_capacity(n);
    while let Some(v) = stack.pop() {
        topo.push(EventId::from_raw(v));
        for &w in out.targets_of(v as usize) {
            indegree[w as usize] -= 1;
            if indegree[w as usize] == 0 {
                stack.push(w);
            }
        }
    }
    if topo.len() != n {
        let on_cycle = (0..n)
            .find(|&i| indegree[i] > 0)
            .map(|i| EventId::from_raw(i as u32))
            .unwrap_or_else(|| EventId::from_raw(0));
        return Err(CycleError { on_cycle });
    }
    Ok((topo, out))
}

const WORD_BITS: usize = 64;

/// Transposes a 64×64 bit block in place: afterwards bit `c` of `a[r]` is
/// what bit `r` of `a[c]` was. Recursive block swap (Hacker's Delight
/// §7-3), six rounds of 32 masked exchanges.
fn transpose64(a: &mut [u64; WORD_BITS]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < WORD_BITS {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// The transpose of the square relation whose row `i` is `rows[i]`:
/// `j ∈ out[i]` iff `i ∈ rows[j]`. Turns predecessor rows into successor
/// rows and back, one 64×64 block at a time, skipping all-zero blocks.
fn transpose(rows: &[DenseBitSet]) -> Vec<DenseBitSet> {
    let n = rows.len();
    let words = n.div_ceil(WORD_BITS);
    let mut out: Vec<DenseBitSet> = (0..n).map(|_| DenseBitSet::new(n)).collect();
    let mut block = [0u64; WORD_BITS];
    for (bi, band) in rows.chunks(WORD_BITS).enumerate() {
        for bj in 0..words {
            let mut any = 0;
            for (slot, row) in block.iter_mut().zip(band) {
                *slot = row.words()[bj];
                any |= *slot;
            }
            if any == 0 {
                continue;
            }
            block[band.len()..].fill(0);
            transpose64(&mut block);
            for (row, &word) in out[bj * WORD_BITS..].iter_mut().zip(&block) {
                row.words_mut()[bi] = word;
            }
        }
    }
    out
}

/// On-demand reachability by DFS over direct edges — the ablation
/// counterpart of [`Closure`] (no precomputation, O(V+E) per query).
#[derive(Clone, Debug)]
pub struct DfsReachability {
    out: Adjacency,
    /// Epoch-stamped visited marks + DFS stack, reused across queries so a
    /// query allocates nothing after the first (`RefCell`: queries take
    /// `&self`).
    scratch: std::cell::RefCell<DfsScratch>,
}

#[derive(Clone, Debug, Default)]
struct DfsScratch {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl DfsReachability {
    /// Builds the adjacency representation from direct edges over `0..n`.
    ///
    /// Unlike [`Closure::from_edges`], this performs no cycle check; pair
    /// it with `Closure` when legality matters.
    pub fn from_edges(n: usize, edges: &[(EventId, EventId)]) -> Self {
        Self {
            out: Adjacency::new(n, edges),
            scratch: std::cell::RefCell::new(DfsScratch {
                stamp: vec![0; n],
                epoch: 0,
                stack: Vec::new(),
            }),
        }
    }

    /// True if `b` is reachable from `a` by one or more direct edges.
    ///
    /// Direct edges short-circuit without touching the scratch state; longer
    /// paths run an iterative DFS over the reusable stamp buffer.
    pub fn precedes(&self, a: EventId, b: EventId) -> bool {
        let target = b.as_raw();
        let direct = self.out.targets_of(a.index());
        if direct.contains(&target) {
            return true;
        }
        if direct.is_empty() {
            return false;
        }
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.stamp.fill(0);
            scratch.epoch = 1;
        }
        let epoch = scratch.epoch;
        scratch.stack.clear();
        scratch.stack.push(a.as_raw());
        scratch.stamp[a.index()] = epoch;
        while let Some(v) = scratch.stack.pop() {
            for &w in self.out.targets_of(v as usize) {
                if w == target {
                    scratch.stack.clear();
                    return true;
                }
                if scratch.stamp[w as usize] != epoch {
                    scratch.stamp[w as usize] = epoch;
                    scratch.stack.push(w);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EventId {
        EventId::from_raw(i)
    }

    #[test]
    fn diamond_closure() {
        // e0 -> e1, e0 -> e2, e1 -> e3, e2 -> e3 (the §7 example shape).
        let edges = [(e(0), e(1)), (e(0), e(2)), (e(1), e(3)), (e(2), e(3))];
        let c = Closure::from_edges(4, &edges).unwrap();
        assert!(c.precedes(e(0), e(3)));
        assert!(c.precedes(e(0), e(1)));
        assert!(!c.precedes(e(3), e(0)));
        assert!(c.concurrent(e(1), e(2)));
        assert!(!c.concurrent(e(0), e(3)));
        assert!(!c.concurrent(e(1), e(1)), "concurrency is irreflexive");
        assert_eq!(c.pair_count(), 4 + 1); // 0⇒{1,2,3}, 1⇒3, 2⇒3
    }

    #[test]
    fn cycle_detected() {
        let edges = [(e(0), e(1)), (e(1), e(0))];
        let err = Closure::from_edges(2, &edges).unwrap_err();
        assert!(err.on_cycle == e(0) || err.on_cycle == e(1));
        assert!(err.to_string().contains("cyclic"));
    }

    #[test]
    fn self_loop_detected() {
        let err = Closure::from_edges(1, &[(e(0), e(0))]).unwrap_err();
        assert_eq!(err.on_cycle, e(0));
    }

    #[test]
    fn predecessors_are_transpose() {
        let edges = [(e(0), e(1)), (e(1), e(2))];
        let c = Closure::from_edges(3, &edges).unwrap();
        assert_eq!(c.predecessors(e(2)).iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(c.successors(e(0)).iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(c.predecessors(e(0)).is_empty());
    }

    #[test]
    fn topological_order_is_consistent() {
        let edges = [(e(2), e(0)), (e(0), e(1))];
        let c = Closure::from_edges(3, &edges).unwrap();
        let pos: Vec<usize> = (0..3)
            .map(|i| {
                c.topological()
                    .iter()
                    .position(|&x| x == e(i as u32))
                    .unwrap()
            })
            .collect();
        assert!(pos[2] < pos[0]);
        assert!(pos[0] < pos[1]);
    }

    #[test]
    fn empty_and_edgeless() {
        let c = Closure::from_edges(0, &[]).unwrap();
        assert!(c.is_empty());
        let c = Closure::from_edges(3, &[]).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.concurrent(e(0), e(2)));
        assert_eq!(c.pair_count(), 0);
    }

    #[test]
    fn dfs_matches_closure_on_random_dags() {
        // Deterministic pseudo-random DAG: edge (i, j) for i < j when hash
        // condition holds.
        let n = 40;
        let mut edges = Vec::new();
        let mut seed = 0x9e3779b97f4a7c15u64;
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if seed >> 61 == 0 {
                    edges.push((e(i), e(j)));
                }
            }
        }
        let c = Closure::from_edges(n, &edges).unwrap();
        let d = DfsReachability::from_edges(n, &edges);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                assert_eq!(
                    c.precedes(e(i), e(j)),
                    d.precedes(e(i), e(j)),
                    "mismatch at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn transpose_matches_bitwise_transpose() {
        let mut seed = 0x2545f4914f6cdd1du64;
        for n in [1usize, 63, 64, 65, 129, 200] {
            // Rows of varying density, with whole 64×64 blocks left empty.
            let rows: Vec<DenseBitSet> = (0..n)
                .map(|i| {
                    let mut row = DenseBitSet::new(n);
                    for j in 0..n {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let empty_block = (i / 64 + j / 64) % 3 == 1;
                        if !empty_block && seed.is_multiple_of(1 + (i % 5) as u64) {
                            row.insert(j);
                        }
                    }
                    row
                })
                .collect();
            let t = transpose(&rows);
            assert_eq!(t.len(), n);
            for (i, col) in t.iter().enumerate() {
                assert_eq!(col.capacity(), n);
                for (j, row) in rows.iter().enumerate() {
                    assert_eq!(col.contains(j), row.contains(i), "n={n} ({i}, {j})");
                }
            }
            assert_eq!(transpose(&t), rows, "n={n}: transposing twice is identity");
        }
    }

    #[test]
    fn dfs_reuses_scratch_across_queries() {
        let edges = [(e(0), e(1)), (e(1), e(2)), (e(3), e(4))];
        let d = DfsReachability::from_edges(5, &edges);
        for _ in 0..3 {
            assert!(d.precedes(e(0), e(2)));
            assert!(d.precedes(e(0), e(1)), "direct edge fast path");
            assert!(!d.precedes(e(2), e(0)));
            assert!(!d.precedes(e(0), e(4)));
            assert!(d.precedes(e(3), e(4)));
        }
    }

    #[test]
    fn long_chain() {
        let n = 300;
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (e(i), e(i + 1))).collect();
        let c = Closure::from_edges(n, &edges).unwrap();
        assert!(c.precedes(e(0), e(n as u32 - 1)));
        assert_eq!(c.pair_count(), n * (n - 1) / 2);
    }
}
