//! Experiment harness: regenerates every table and figure of the thesis.
//!
//! [`figures::FIGURES`] is the one definition of each experiment: its
//! id, the simulation points it reads, and how it renders them as text
//! and, for the figures `sop sweep` serialises, as JSON. The chapter
//! modules hold each figure's typed rows and its text; the table builds
//! the JSON from the same rows. The `repro`
//! binary and [`campaign::run_campaign`] both run the entries they are
//! asked for as one engine campaign. The `sop-benchmark` crate under
//! `benchmark/` at the repository root times the machinery these
//! experiments run on.

pub mod ablation;
pub mod campaign;
pub mod ch2;
pub mod ch3;
pub mod ch4;
pub mod ch5;
pub mod ch6;
pub mod degradation;
pub mod figures;
pub mod points;
pub mod report;

/// Formats a ratio row for figure-style output.
pub fn fmt_series(label: &str, values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:7.3}")).collect();
    format!("{label:22} {}", cells.join(" "))
}

/// Geometric mean of a slice.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let g = geomean(&[1.0, 4.0]);
        assert!(g > 1.0 && g < 4.0);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn series_formatting_is_stable() {
        let s = fmt_series("x", &[1.0, 2.5]);
        assert!(s.contains("1.000") && s.contains("2.500"));
    }
}
