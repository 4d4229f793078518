//! Search-space estimation fed by sampled runs.
//!
//! An exhaustive sweep gives an exact run count only *after* it
//! finishes. [`KnuthEstimator`] answers "how big is this instance?" from
//! a handful of random schedules *before* the sweep runs: Knuth's
//! weighted-backtrack estimator of the run-tree leaf count. One probe
//! walks a uniformly random root-to-leaf path and reports the product of
//! the branching factors it saw; the expectation of that product over
//! random paths is exactly the number of leaves (maximal runs), so the
//! sample mean is an unbiased estimate. `tests/proptest_invariants.rs`
//! pins the unbiasedness on fully-enumerable trees.
//!
//! The estimator is a pure accumulator: exploration hands it samples and
//! it never touches a clock or a probe, so it cannot perturb the sweep
//! it describes.

/// Knuth weighted-backtrack estimator of a tree's leaf count.
///
/// Feed it one `record(product)` per sampled root-to-leaf walk, where
/// `product` is the product of the branching factors (number of enabled
/// actions) at every node along the walk. The sample mean estimates the
/// number of leaves without bias; the spread across samples indicates
/// how unbalanced the tree is.
#[derive(Clone, Debug, Default)]
pub struct KnuthEstimator {
    samples: Vec<f64>,
}

impl KnuthEstimator {
    /// An empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one probe: the product of branching factors along a
    /// uniformly random root-to-leaf path.
    pub fn record(&mut self, product: f64) {
        self.samples.push(product);
    }

    /// Number of probes recorded so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The estimated leaf (run) count: the sample mean. `None` before
    /// the first probe.
    pub fn estimate(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// [`KnuthEstimator::estimate`] rounded to a whole run count
    /// (minimum 1 once any probe was recorded — a tree that yielded a
    /// sample has at least one leaf).
    pub fn estimate_runs(&self) -> Option<u64> {
        self.estimate().map(|e| (e.round() as u64).max(1))
    }
}

/// A tiny deterministic RNG (SplitMix64) for sampling probes where
/// pulling in a full RNG crate is not worth it. Not cryptographic.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knuth_is_exact_on_uniform_trees() {
        // A complete k-ary tree of depth d: every root-to-leaf walk sees
        // the same branching product k^d, so one probe is already exact.
        let mut est = KnuthEstimator::new();
        est.record(3.0 * 3.0); // k=3, d=2 → 9 leaves
        assert_eq!(est.estimate_runs(), Some(9));
        assert_eq!(est.samples(), 1);
    }

    #[test]
    fn knuth_mean_over_skewed_tree() {
        // Root with 2 children: left is a leaf, right has 3 leaf
        // children → 4 leaves. Probes: left path product 2 (prob 1/2),
        // right paths product 6 (prob 1/2 total). E = 2*0.5 + 6*0.5 = 4.
        let mut est = KnuthEstimator::new();
        est.record(2.0);
        est.record(6.0);
        assert_eq!(est.estimate(), Some(4.0));
    }

    #[test]
    fn knuth_empty_is_none() {
        assert_eq!(KnuthEstimator::new().estimate(), None);
        assert_eq!(KnuthEstimator::new().estimate_runs(), None);
    }

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            let x = a.below(7);
            assert_eq!(x, b.below(7));
            assert!(x < 7);
        }
    }
}
