//! Power-of-two-bucketed latency histogram.
//!
//! Mean latencies hide the tail; the SimFlex methodology the thesis
//! follows reports distributions over sampled measurements. This
//! histogram is cheap enough to keep always-on in the simulated machine
//! and is the canonical `Histogram` for the whole workspace (`sop-sim`
//! re-exports it as `sop_sim::stats::Histogram`).

use std::fmt;

use crate::json::Json;

/// A histogram over `u64` samples with power-of-two buckets:
/// bucket `i` holds samples in `[2^i, 2^(i+1))` (bucket 0 holds 0 and 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 32],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample. The running sum saturates rather than wrapping
    /// so a long run can never corrupt `mean()` via overflow.
    pub fn record(&mut self, sample: u64) {
        self.record_n(sample, 1);
    }

    /// Records `n` occurrences of the same sample in O(1). The fleet
    /// simulator admits whole batches of requests whose latencies share
    /// a bucket; recording them one by one would dominate its hot path.
    pub fn record_n(&mut self, sample: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(sample)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(sample.saturating_mul(n));
        self.max = self.max.max(sample);
    }

    /// Records a non-empty batch of samples already counted per bucket,
    /// in one update of the count, sum and maximum: the `i`-th count
    /// goes to bucket `first + i`, `total` is the batch's exact sum and
    /// `max` its largest sample. Leaves exactly the state that recording
    /// each sample in turn would: the sum saturates once instead of term
    /// by term, which is the same because no term is negative. The fleet
    /// simulator records each admission's latencies this way, however
    /// many buckets they cross.
    #[inline]
    pub fn record_batch(
        &mut self,
        first: usize,
        counts: impl IntoIterator<Item = u64>,
        total: u128,
        max: u64,
    ) {
        let mut n = 0;
        counts.into_iter().enumerate().for_each(|(i, k)| {
            self.buckets[first + i] += k;
            n += k;
        });
        self.count += n;
        self.sum = (u128::from(self.sum) + total).min(u128::from(u64::MAX)) as u64;
        self.max = self.max.max(max);
    }

    /// Inclusive upper bound of the bucket that `sample` lands in
    /// (`u64::MAX` for the open-ended top bucket). Lets batch callers
    /// find the run of consecutive samples sharing one bucket.
    pub fn bucket_upper(sample: u64) -> u64 {
        Self::index_upper(Self::bucket_index(sample))
    }

    /// Index of the bucket that `sample` lands in: `floor(log2(sample))`
    /// for samples of at least 2, 0 below, 31 for the open-ended top.
    pub fn bucket_index(sample: u64) -> usize {
        (64 - sample.max(1).leading_zeros())
            .saturating_sub(1)
            .min(31) as usize
    }

    /// Inclusive upper bound of bucket `index` (`u64::MAX` for the
    /// open-ended top bucket, index 31).
    pub fn index_upper(index: usize) -> u64 {
        if index >= 31 {
            u64::MAX
        } else {
            (1u64 << (index + 1)) - 1
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded samples (saturating, see [`record`](Self::record)).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 < q <= 1.0`), i.e. an upper estimate of the quantile.
    /// Returns `None` if `q` is out of range or the histogram is empty.
    pub fn try_quantile_upper(&self, q: f64) -> Option<u64> {
        if !(q > 0.0 && q <= 1.0) || self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // The top bucket is open-ended; report the true maximum.
                return Some(if i == 31 {
                    self.max
                } else {
                    (1u64 << (i + 1)) - 1
                });
            }
        }
        Some(self.max)
    }

    /// Panicking variant of [`try_quantile_upper`](Self::try_quantile_upper),
    /// kept for call sites where an empty histogram is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or the histogram is empty.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        assert!(self.count > 0, "empty histogram has no quantiles");
        self.try_quantile_upper(q).expect("checked above")
    }

    /// Median upper estimate (`None` when empty).
    pub fn p50(&self) -> Option<u64> {
        self.try_quantile_upper(0.50)
    }

    /// 95th-percentile upper estimate (`None` when empty).
    pub fn p95(&self) -> Option<u64> {
        self.try_quantile_upper(0.95)
    }

    /// 99th-percentile upper estimate (`None` when empty).
    pub fn p99(&self) -> Option<u64> {
        self.try_quantile_upper(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << i }, n))
    }

    /// Summary + buckets as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::object()
            .with("count", self.count)
            .with("mean", self.mean())
            .with("max", self.max);
        for (q, name) in [
            (self.p50(), "p50"),
            (self.p95(), "p95"),
            (self.p99(), "p99"),
        ] {
            j.insert(name, q.map_or(Json::Null, Json::UInt));
        }
        j.insert(
            "buckets",
            Json::Arr(
                self.buckets()
                    .map(|(lo, n)| Json::Arr(vec![Json::UInt(lo), Json::UInt(n)]))
                    .collect(),
            ),
        );
        j
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.1} p50<={} p95<={} p99<={} max={}",
            self.count,
            self.mean(),
            self.p50().expect("non-empty"),
            self.p95().expect("non-empty"),
            self.p99().expect("non-empty"),
            self.max
        )
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_count_are_exact() {
        let mut h = Histogram::new();
        for s in [1u64, 2, 3, 4] {
            h.record(s);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 2.5);
        assert_eq!(h.max(), 4);
        assert_eq!(h.sum(), 10);
    }

    #[test]
    fn quantile_upper_bounds_the_true_quantile() {
        let mut h = Histogram::new();
        for s in 0..1000u64 {
            h.record(s);
        }
        // True p50 is ~500; the bucketed upper estimate must cover it
        // without being wildly above (next power of two).
        let p50 = h.p50().expect("non-empty");
        assert!((500..=1023).contains(&p50), "p50 {p50}");
        let p99 = h.p99().expect("non-empty");
        assert!(p99 >= 990, "p99 {p99}");
        assert_eq!(h.quantile_upper(0.5), p50);
    }

    #[test]
    fn try_quantile_handles_bad_inputs_without_panicking() {
        let empty = Histogram::new();
        assert_eq!(empty.try_quantile_upper(0.5), None);
        assert_eq!(empty.p50(), None);
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!(h.try_quantile_upper(0.0), None);
        assert_eq!(h.try_quantile_upper(1.5), None);
        assert_eq!(h.try_quantile_upper(f64::NAN), None);
        assert_eq!(h.try_quantile_upper(1.0), Some(7));
    }

    #[test]
    fn zero_samples_are_representable() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_upper(1.0), 1);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        // A wrapping sum would make the mean tiny; saturation keeps it
        // pinned at the representable maximum.
        assert!(h.mean() > 1e18);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.mean(), 505.0);
    }

    #[test]
    fn buckets_iterate_in_order() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(100);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert!(buckets[0].0 < buckets[1].0);
    }

    #[test]
    fn huge_samples_saturate_the_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_upper(1.0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn quantile_of_empty_panics() {
        Histogram::new().quantile_upper(0.5);
    }

    #[test]
    fn display_summarizes() {
        let mut h = Histogram::new();
        assert_eq!(h.to_string(), "n=0");
        for s in [1u64, 2, 4, 8] {
            h.record(s);
        }
        let s = h.to_string();
        assert!(s.starts_with("n=4 mean=3.8"), "{s}");
        assert!(s.contains("max=8"), "{s}");
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut batched = Histogram::new();
        let mut looped = Histogram::new();
        for (s, n) in [(0u64, 3u64), (7, 5), (1000, 2), (u64::MAX, 2)] {
            batched.record_n(s, n);
            for _ in 0..n {
                looped.record(s);
            }
        }
        batched.record_n(42, 0); // no-op
        assert_eq!(batched, looped);
    }

    #[test]
    fn record_batch_matches_record_n_then_record() {
        let mut batched = Histogram::new();
        let mut split = Histogram::new();
        for (first, n, last) in [
            (20u64, 1u64, 20u64),
            (20, 1, 31),
            (0, 4, 1),
            (1000, 7, 1023),
            (u64::MAX / 3, 5, u64::MAX / 2),
            (1 << 62, 3, (1 << 63) - 1),
        ] {
            let total = u128::from(first) * u128::from(n - 1) + u128::from(last);
            batched.record_batch(Histogram::bucket_index(last), [n], total, last);
            split.record_n(first, n - 1);
            split.record(last);
            assert_eq!(batched, split, "run of {n}: {first}..{last}");
        }
        assert_eq!(batched.sum(), u64::MAX, "the sum saturated along the way");
    }

    #[test]
    fn record_batch_spans_buckets_like_single_records() {
        let samples = [3u64, 3, 5, 9, 9, 9, 40];
        let mut one_by_one = Histogram::new();
        for s in [7u64, 100] {
            one_by_one.record(s);
        }
        let mut batched = one_by_one.clone();
        for s in samples {
            one_by_one.record(s);
        }
        // Buckets 2..3, 4..7, 8..15, 16..31 (skipped) and 32..63.
        let total = samples.iter().map(|&s| u128::from(s)).sum();
        batched.record_batch(1, [2, 1, 3, 0, 1], total, 40);
        assert_eq!(batched, one_by_one);
    }

    #[test]
    fn bucket_upper_bounds_its_own_bucket() {
        for s in [0u64, 1, 2, 3, 4, 7, 8, 1000, 1 << 30, u64::MAX] {
            let hi = Histogram::bucket_upper(s);
            assert!(hi >= s, "upper {hi} below sample {s}");
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            a.record(s);
            b.record(hi);
            // Same bucket: identical bucket vectors.
            assert_eq!(
                a.buckets().map(|(lo, _)| lo).collect::<Vec<_>>(),
                b.buckets().map(|(lo, _)| lo).collect::<Vec<_>>()
            );
        }
        assert_eq!(Histogram::bucket_upper(0), 1);
        assert_eq!(Histogram::bucket_upper(u64::MAX), u64::MAX);
    }

    #[test]
    fn bucket_indices_partition_the_samples() {
        // Each bucket's upper bound is the last sample with its index,
        // and one more starts the next bucket.
        assert_eq!(Histogram::bucket_index(0), 0);
        for i in 0..31 {
            let hi = Histogram::index_upper(i);
            assert_eq!(Histogram::bucket_index(hi), i);
            assert_eq!(Histogram::bucket_index(hi + 1), i + 1);
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 31);
        assert_eq!(Histogram::index_upper(31), u64::MAX);
    }

    #[test]
    fn json_form_is_wellformed() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(300);
        let j = h.to_json();
        assert_eq!(j.get("count"), Some(&Json::UInt(2)));
        crate::json::parse(&j.to_compact_string()).expect("valid JSON");
    }
}
