//! Order statistics over a metric's samples.

use sop_obs::Json;

/// Median, quartiles and range of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for even counts).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none. Quartiles use
    /// the exclusive method of Python's `statistics.quantiles(values,
    /// n=4)`, so the spreads printed here are the ones a reader
    /// recomputes from the results file.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let [q1, median, q3] = quartiles(&sorted);
        Some(Summary {
            median,
            q1,
            q3,
            min,
            max,
            n: sorted.len(),
        })
    }

    /// The distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// `{unit, median, q1, q3, min, max, n}`.
    pub fn to_json(self, unit: &str) -> Json {
        Json::object()
            .with("unit", unit)
            .with("median", self.median)
            .with("q1", self.q1)
            .with("q3", self.q3)
            .with("min", self.min)
            .with("max", self.max)
            .with("n", self.n)
    }
}

/// The three cut points of `statistics.quantiles(sorted, n=4)` with the
/// default exclusive method (which extrapolates beyond the extremes for
/// fewer than three samples); a single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative or above 4 once `j` is clamped: Python extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Six decimals, or scientific notation below 0.01, so microsecond
/// set-ups and multi-second walls both stay readable in one column.
pub fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

/// The `p`-th percentile (0 < p ≤ 1) by nearest rank; 0 when empty.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
    }

    #[test]
    fn median_of_an_even_count_is_the_middle_mean() {
        // statistics.quantiles([1, 4], n=4) == [0.25, 2.5, 4.75]
        let s = Summary::of(&[4.0, 1.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (0.25, 2.5, 4.75));
        let one = Summary::of(&[7.0]).expect("non-empty");
        assert_eq!(
            (one.q1, one.median, one.q3, one.spread()),
            (7.0, 7.0, 7.0, 0.0)
        );
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        let s = Summary::of(&[9.0, 10.0, 11.0]).expect("non-empty");
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }
}
