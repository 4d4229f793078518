//! Fixed-size log-bucket histograms for latency and size distributions.
//!
//! A [`Histogram`] folds `u64` samples into 65 power-of-two buckets:
//! bucket 0 holds the value 0 and bucket `i` (1..=64) holds values whose
//! bit length is `i`, i.e. the range `[2^(i-1), 2^i - 1]`. Recording is
//! a `leading_zeros` plus two adds — cheap enough for per-step hot
//! paths — and the fixed shape makes merging across threads a
//! bucket-wise sum. Quantiles are read back at bucket granularity
//! (the bucket's upper bound, clamped to the observed maximum), which
//! is exact to within 2x — plenty for the "where does explore time go"
//! questions the summaries answer.

/// Number of buckets: one for zero plus one per possible bit length.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-size log-bucket (power-of-two) histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a value: 0 for 0, else its bit length (1..=64).
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (saturating at `u64::MAX`).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Folds one sample into the histogram.
    #[inline]
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Bucket-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The quantile `q` in `[0, 1]` at bucket granularity: the upper
    /// bound of the smallest bucket whose cumulative count reaches
    /// `ceil(q * count)`, clamped to the observed maximum. Returns 0 on
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(index, count)` pairs, in index order —
    /// the sparse form the report JSON serializes.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }

    /// Cumulative `(upper_bound, cumulative_count)` pairs over the
    /// non-empty buckets — the shape an OpenMetrics histogram exposition
    /// wants (`le`-labelled cumulative series).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                cumulative += n;
                out.push((bucket_upper(i), cumulative));
            }
        }
        out
    }

    /// Reconstructs a histogram from its serialized sparse form.
    /// `buckets` entries past [`HIST_BUCKETS`] are rejected.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range bucket index.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: &[(usize, u64)],
    ) -> Result<Self, String> {
        let mut h = Self::new();
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        for &(i, n) in buckets {
            if i >= HIST_BUCKETS {
                return Err(format!("histogram bucket index {i} out of range"));
            }
            h.buckets[i] = n;
        }
        Ok(h)
    }

    /// The histogram with every sample-derived value zeroed but the
    /// count kept — the timing-invariant shape `Report::without_timings`
    /// applies to duration-valued histograms (`*_ns` keys).
    pub fn without_values(&self) -> Self {
        let mut h = Self::new();
        h.count = self.count;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 184);
        assert!(!h.is_empty());
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds_clamped_to_max() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(10); // bucket 4, upper 15
        }
        for _ in 0..10 {
            h.record(1000); // bucket 10, upper 1023
        }
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(0.9), 15);
        assert_eq!(h.quantile(0.99), 1000, "clamped to observed max");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn single_sample_quantiles_collapse_to_it() {
        let mut h = Histogram::new();
        h.record(7);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7);
        }
    }

    #[test]
    fn merge_is_bucket_wise_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [1, 5, 9] {
            a.record(v);
            whole.record(v);
        }
        for v in [0, 700] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        let mut empty = Histogram::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        whole.merge(&Histogram::new());
        assert_eq!(whole, a);
    }

    #[test]
    fn parts_roundtrip() {
        let mut h = Histogram::new();
        for v in [3, 3, 4, 90000] {
            h.record(v);
        }
        let parts: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        let back = Histogram::from_parts(h.count(), h.sum(), h.min(), h.max(), &parts).unwrap();
        assert_eq!(back, h);
        assert!(Histogram::from_parts(1, 1, 1, 1, &[(65, 1)]).is_err());
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 6, 6, 6] {
            h.record(v);
        }
        let cum = h.cumulative_buckets();
        assert_eq!(cum, vec![(0, 1), (1, 3), (7, 6)]);
    }

    #[test]
    fn without_values_keeps_count_only() {
        let mut h = Histogram::new();
        h.record(123);
        let stripped = h.without_values();
        assert_eq!(stripped.count(), 1);
        assert_eq!(stripped.sum(), 0);
        assert_eq!(stripped.max(), 0);
        assert_eq!(stripped.nonzero_buckets().count(), 0);
    }
}
