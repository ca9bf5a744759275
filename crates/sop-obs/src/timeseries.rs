//! Windowed metric time series with associative merge semantics.
//!
//! A [`TimeSeries`] buckets samples into fixed-interval windows keyed by
//! their aligned start tick. Two sample kinds exist, chosen so that every
//! combining operation is exact and order-insensitive:
//!
//! - **counter** buckets hold exact `u64` sums and merge by addition;
//! - **digest** buckets hold a power-of-two [`Histogram`] and merge
//!   bucket-wise (`Histogram::merge`).
//!
//! There is deliberately no gauge kind: a last-writer-wins sample would
//! make merge order-dependent, and the whole point of this module is
//! that `merge` and `downsample` are associative and commutative, so a
//! report assembled from per-worker shards is byte-identical to one
//! assembled serially. Derived rates (availability = goodput/offered,
//! retry amplification = issued/offered) are computed at render time
//! from exact integer counters instead of being stored.
//!
//! [`SeriesSet`] is a named, ordered collection of series — the JSON
//! form that lands in a report's `series` section and that `sop slo`
//! re-analyzes offline.

use crate::hist::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;

/// Error from [`TimeSeries::merge`]: the operands disagree on interval
/// or sample kind, so combining them would be meaningless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesMismatch {
    pub expected: String,
    pub found: String,
}

impl std::fmt::Display for SeriesMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "series mismatch: expected {}, found {}",
            self.expected, self.found
        )
    }
}

impl std::error::Error for SeriesMismatch {}

#[derive(Debug, Clone, PartialEq)]
enum SeriesData {
    Counter(BTreeMap<u64, u64>),
    Digest(BTreeMap<u64, Histogram>),
}

/// A fixed-interval windowed metric series. Bucket keys are start ticks
/// aligned down to a multiple of `interval`; empty buckets are simply
/// absent (a missing counter bucket reads as zero).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    interval: u64,
    data: SeriesData,
}

impl TimeSeries {
    /// A counter series with the given bucket width in ticks.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn counter(interval: u64) -> TimeSeries {
        assert!(interval > 0, "series interval must be nonzero");
        TimeSeries {
            interval,
            data: SeriesData::Counter(BTreeMap::new()),
        }
    }

    /// A histogram-digest series with the given bucket width in ticks.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn digest(interval: u64) -> TimeSeries {
        assert!(interval > 0, "series interval must be nonzero");
        TimeSeries {
            interval,
            data: SeriesData::Digest(BTreeMap::new()),
        }
    }

    /// Bucket width in ticks.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// `"counter"` or `"digest"` — the JSON `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self.data {
            SeriesData::Counter(_) => "counter",
            SeriesData::Digest(_) => "digest",
        }
    }

    /// Number of non-empty buckets.
    pub fn len(&self) -> usize {
        match &self.data {
            SeriesData::Counter(m) => m.len(),
            SeriesData::Digest(m) => m.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn align(&self, tick: u64) -> u64 {
        tick / self.interval * self.interval
    }

    /// Adds `n` to the counter bucket covering `tick` (saturating).
    ///
    /// # Panics
    /// Panics on a digest series.
    pub fn record_count(&mut self, tick: u64, n: u64) {
        let key = self.align(tick);
        match &mut self.data {
            SeriesData::Counter(m) => {
                let slot = m.entry(key).or_insert(0);
                *slot = slot.saturating_add(n);
            }
            SeriesData::Digest(_) => panic!("record_count on a digest series"),
        }
    }

    /// Merges `h` into the digest bucket covering `tick`.
    ///
    /// # Panics
    /// Panics on a counter series.
    pub fn record_digest(&mut self, tick: u64, h: &Histogram) {
        let key = self.align(tick);
        match &mut self.data {
            SeriesData::Digest(m) => m.entry(key).or_insert_with(Histogram::new).merge(h),
            SeriesData::Counter(_) => panic!("record_digest on a counter series"),
        }
    }

    /// Counter buckets as `(start_tick, sum)` in tick order. Empty for a
    /// digest series.
    pub fn counter_points(&self) -> Vec<(u64, u64)> {
        match &self.data {
            SeriesData::Counter(m) => m.iter().map(|(&k, &v)| (k, v)).collect(),
            SeriesData::Digest(_) => Vec::new(),
        }
    }

    /// Digest buckets as `(start_tick, histogram)` in tick order. Empty
    /// for a counter series.
    pub fn digest_points(&self) -> Vec<(u64, &Histogram)> {
        match &self.data {
            SeriesData::Digest(m) => m.iter().map(|(&k, v)| (k, v)).collect(),
            SeriesData::Counter(_) => Vec::new(),
        }
    }

    /// Value of the last bucket: the counter sum, or the digest sample
    /// count. `None` when the series is empty.
    pub fn last_value(&self) -> Option<u64> {
        match &self.data {
            SeriesData::Counter(m) => m.values().next_back().copied(),
            SeriesData::Digest(m) => m.values().next_back().map(Histogram::count),
        }
    }

    /// Merges another series into this one: counter buckets add, digest
    /// buckets merge bucket-wise. Associative and commutative, so shard
    /// merge order never changes the result.
    pub fn merge(&mut self, other: &TimeSeries) -> Result<(), SeriesMismatch> {
        if self.interval != other.interval || self.kind() != other.kind() {
            return Err(SeriesMismatch {
                expected: format!("{}/{}t", self.kind(), self.interval),
                found: format!("{}/{}t", other.kind(), other.interval),
            });
        }
        match (&mut self.data, &other.data) {
            (SeriesData::Counter(a), SeriesData::Counter(b)) => {
                for (&k, &v) in b {
                    let slot = a.entry(k).or_insert(0);
                    *slot = slot.saturating_add(v);
                }
            }
            (SeriesData::Digest(a), SeriesData::Digest(b)) => {
                for (&k, h) in b {
                    a.entry(k).or_insert_with(Histogram::new).merge(h);
                }
            }
            _ => unreachable!("kind equality checked above"),
        }
        Ok(())
    }

    /// Re-buckets into windows `factor` times wider. Counter sums add,
    /// digests merge; totals are preserved exactly. Commutes with
    /// [`merge`](TimeSeries::merge).
    ///
    /// # Panics
    /// Panics if `factor` is zero.
    pub fn downsample(&self, factor: u64) -> TimeSeries {
        assert!(factor > 0, "downsample factor must be nonzero");
        let interval = self.interval.saturating_mul(factor);
        let align = |tick: u64| tick / interval * interval;
        let data = match &self.data {
            SeriesData::Counter(m) => {
                let mut out: BTreeMap<u64, u64> = BTreeMap::new();
                for (&k, &v) in m {
                    let slot = out.entry(align(k)).or_insert(0);
                    *slot = slot.saturating_add(v);
                }
                SeriesData::Counter(out)
            }
            SeriesData::Digest(m) => {
                let mut out: BTreeMap<u64, Histogram> = BTreeMap::new();
                for (&k, h) in m {
                    out.entry(align(k)).or_default().merge(h);
                }
                SeriesData::Digest(out)
            }
        };
        TimeSeries { interval, data }
    }

    /// Sum of all counter buckets, or total digest sample count.
    pub fn total(&self) -> u64 {
        match &self.data {
            SeriesData::Counter(m) => m.values().fold(0u64, |a, &v| a.saturating_add(v)),
            SeriesData::Digest(m) => m.values().fold(0u64, |a, h| a.saturating_add(h.count())),
        }
    }

    /// JSON form: `{"interval": N, "kind": "...", "points": [[start,
    /// value], ...]}` with points in tick order. Counter points carry
    /// the exact sum; digest points carry the histogram's JSON form.
    pub fn to_json(&self) -> Json {
        let points: Vec<Json> = match &self.data {
            SeriesData::Counter(m) => m
                .iter()
                .map(|(&k, &v)| Json::Arr(vec![Json::UInt(k), Json::UInt(v)]))
                .collect(),
            SeriesData::Digest(m) => m
                .iter()
                .map(|(&k, h)| Json::Arr(vec![Json::UInt(k), h.to_json()]))
                .collect(),
        };
        Json::object()
            .with("interval", self.interval)
            .with("kind", self.kind())
            .with("points", Json::Arr(points))
    }

    /// Rebuilds a series from its JSON form. Counter buckets round-trip
    /// exactly; digest buckets are reconstructed from their bucket table
    /// (`record_n` at each lower bound), which preserves bucket counts
    /// and quantile-upper answers but approximates `sum`/`max`.
    pub fn from_json(doc: &Json) -> Option<TimeSeries> {
        let interval = doc.get("interval")?.as_f64()? as u64;
        if interval == 0 {
            return None;
        }
        let kind = doc.get("kind")?.as_str()?;
        let points = doc.get("points")?.as_arr()?;
        let mut out = match kind {
            "counter" => TimeSeries::counter(interval),
            "digest" => TimeSeries::digest(interval),
            _ => return None,
        };
        for point in points {
            let pair = point.as_arr()?;
            let tick = pair.first()?.as_f64()? as u64;
            match (&mut out.data, pair.get(1)?) {
                (SeriesData::Counter(m), value) => {
                    let v = value.as_f64()? as u64;
                    let slot = m.entry(tick / interval * interval).or_insert(0);
                    *slot = slot.saturating_add(v);
                }
                (SeriesData::Digest(m), doc) => {
                    let mut h = Histogram::new();
                    for pair in doc.get("buckets")?.as_arr()? {
                        let pair = pair.as_arr()?;
                        let lo = pair.first()?.as_f64()? as u64;
                        let n = pair.get(1)?.as_f64()? as u64;
                        h.record_n(lo, n);
                    }
                    m.entry(tick / interval * interval)
                        .or_insert_with(Histogram::new)
                        .merge(&h);
                }
            }
        }
        Some(out)
    }
}

/// A named, ordered collection of [`TimeSeries`] — one report `series`
/// entry. Names are kept sorted (BTreeMap) so the JSON form is stable
/// regardless of insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesSet {
    series: BTreeMap<String, TimeSeries>,
}

impl SeriesSet {
    pub fn new() -> SeriesSet {
        SeriesSet::default()
    }

    /// Inserts (or replaces) a named series.
    pub fn insert(&mut self, name: &str, ts: TimeSeries) {
        self.series.insert(name.to_owned(), ts);
    }

    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    pub fn len(&self) -> usize {
        self.series.len()
    }

    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another set: series sharing a name merge (same interval
    /// and kind required), unmatched series are copied in. Associative
    /// and commutative like [`TimeSeries::merge`].
    pub fn merge(&mut self, other: &SeriesSet) -> Result<(), SeriesMismatch> {
        for (name, ts) in &other.series {
            match self.series.get_mut(name) {
                Some(mine) => mine.merge(ts)?,
                None => {
                    self.series.insert(name.clone(), ts.clone());
                }
            }
        }
        Ok(())
    }

    /// Per-bucket ratio of two counter series, in tick order: for each
    /// bucket of `den`, `num/den` clamped to `[0, 1]` (a numerator
    /// exceeding the denominator — retries served after their offered
    /// window — reads as 1.0). Buckets where `den` is zero are skipped.
    pub fn ratio(&self, num: &str, den: &str) -> Vec<(u64, f64)> {
        let (Some(num), Some(den)) = (self.get(num), self.get(den)) else {
            return Vec::new();
        };
        let num: BTreeMap<u64, u64> = num.counter_points().into_iter().collect();
        den.counter_points()
            .into_iter()
            .filter(|&(_, d)| d > 0)
            .map(|(tick, d)| {
                let n = num.get(&tick).copied().unwrap_or(0);
                (tick, (n as f64 / d as f64).min(1.0))
            })
            .collect()
    }

    /// JSON form: an object with one member per series, in name order.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        for (name, ts) in &self.series {
            doc.insert(name, ts.to_json());
        }
        doc
    }

    /// Rebuilds a set from its JSON form (see [`TimeSeries::from_json`]
    /// for digest fidelity).
    pub fn from_json(doc: &Json) -> Option<SeriesSet> {
        let Json::Obj(members) = doc else {
            return None;
        };
        let mut out = SeriesSet::new();
        for (name, value) in members {
            out.insert(name, TimeSeries::from_json(value)?);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_abc() -> (TimeSeries, TimeSeries, TimeSeries) {
        let mut a = TimeSeries::counter(300);
        let mut b = TimeSeries::counter(300);
        let mut c = TimeSeries::counter(300);
        a.record_count(0, 10);
        a.record_count(299, 5);
        b.record_count(300, 7);
        c.record_count(0, 1);
        c.record_count(900, 3);
        (a, b, c)
    }

    #[test]
    fn counter_buckets_align_and_sum() {
        let (a, _, _) = counter_abc();
        assert_eq!(a.counter_points(), vec![(0, 15)]);
        assert_eq!(a.total(), 15);
        assert_eq!(a.last_value(), Some(15));
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = counter_abc();
        let mut left = a.clone();
        left.merge(&b).unwrap();
        left.merge(&c).unwrap();
        let mut right = b.clone();
        right.merge(&c).unwrap();
        let mut a2 = a.clone();
        a2.merge(&right).unwrap();
        assert_eq!(left, a2);
        let mut rev = c.clone();
        rev.merge(&b).unwrap();
        rev.merge(&a).unwrap();
        assert_eq!(left, rev);
    }

    #[test]
    fn merge_rejects_mismatched_interval_or_kind() {
        let mut a = TimeSeries::counter(300);
        assert!(a.merge(&TimeSeries::counter(600)).is_err());
        assert!(a.merge(&TimeSeries::digest(300)).is_err());
    }

    #[test]
    fn downsample_preserves_totals_and_commutes_with_merge() {
        let (a, b, _) = counter_abc();
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        let down_then = merged.downsample(2);
        let mut then_down = a.downsample(2);
        then_down.merge(&b.downsample(2)).unwrap();
        assert_eq!(down_then, then_down);
        assert_eq!(down_then.total(), a.total() + b.total());
        assert_eq!(down_then.interval(), 600);
        assert_eq!(down_then.counter_points(), vec![(0, 22)]);
    }

    #[test]
    fn digest_series_merges_histograms() {
        let mut a = TimeSeries::digest(300);
        let mut h = Histogram::new();
        h.record(8);
        h.record(9);
        a.record_digest(10, &h);
        a.record_digest(20, &h);
        let points = a.digest_points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].1.count(), 4);
        assert_eq!(a.last_value(), Some(4));
    }

    #[test]
    fn json_round_trips_counters_exactly() {
        let (a, _, _) = counter_abc();
        let back = TimeSeries::from_json(&a.to_json()).unwrap();
        assert_eq!(a, back);
        assert_eq!(
            a.to_json().to_compact_string(),
            back.to_json().to_compact_string()
        );
    }

    #[test]
    fn json_round_trips_digest_bucket_counts() {
        let mut a = TimeSeries::digest(300);
        let mut h = Histogram::new();
        for v in [1, 3, 900, 4000] {
            h.record(v);
        }
        a.record_digest(450, &h);
        let back = TimeSeries::from_json(&a.to_json()).unwrap();
        let (tick, hist) = back.digest_points()[0];
        assert_eq!(tick, 300);
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.try_quantile_upper(0.99), h.try_quantile_upper(0.99));
    }

    #[test]
    fn set_ratio_derives_availability_from_exact_counters() {
        let mut set = SeriesSet::new();
        let mut offered = TimeSeries::counter(300);
        let mut goodput = TimeSeries::counter(300);
        offered.record_count(0, 100);
        offered.record_count(300, 100);
        offered.record_count(600, 100);
        goodput.record_count(0, 100);
        goodput.record_count(300, 40);
        goodput.record_count(600, 120); // retry drain: clamped to 1.0
        set.insert("offered", offered);
        set.insert("goodput", goodput);
        let ratio = set.ratio("goodput", "offered");
        assert_eq!(ratio, vec![(0, 1.0), (300, 0.4), (600, 1.0)]);
    }

    #[test]
    fn set_json_is_name_ordered_and_round_trips() {
        let mut set = SeriesSet::new();
        set.insert("zeta", TimeSeries::counter(10));
        let mut a = TimeSeries::counter(10);
        a.record_count(5, 2);
        set.insert("alpha", a);
        let doc = set.to_json();
        let Json::Obj(members) = &doc else { panic!() };
        assert_eq!(members[0].0, "alpha");
        let back = SeriesSet::from_json(&doc).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn set_merge_unions_names() {
        let mut a = SeriesSet::new();
        let mut b = SeriesSet::new();
        let mut x = TimeSeries::counter(10);
        x.record_count(0, 1);
        a.insert("x", x.clone());
        b.insert("x", x.clone());
        b.insert("y", x);
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("x").unwrap().total(), 2);
        assert_eq!(a.get("y").unwrap().total(), 1);
    }
}
