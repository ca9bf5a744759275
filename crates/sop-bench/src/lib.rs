//! Experiment harness: regenerates every table and figure of the thesis.
//!
//! Each chapter module exposes functions that compute and print one
//! experiment; the `repro` binary dispatches on experiment ids (`fig2.1`,
//! `tab3.2`, `fig4.6`, ... or `all`). The `sop-benchmark` crate under
//! `benchmark/` at the repository root times the machinery these
//! experiments run on.

pub mod campaign;
pub mod ch2;
pub mod ch3;
pub mod ch4;
pub mod ch5;
pub mod ch6;
pub mod degradation;
pub mod points;
pub mod report;

/// Checks every `--flag` in `args` against the flags one command
/// accepts: `switches` stand alone, `valued` take the next argument as
/// their value. Positional arguments pass through for the command to
/// validate. Returns the message for the first flag the command does not
/// accept, or for a valued flag with nothing after it; callers print it
/// and exit 2 before doing any work, so a removed or misspelled flag can
/// never be silently ignored.
pub fn check_flags(args: &[String], switches: &[&str], valued: &[&str]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") || switches.contains(&a.as_str()) {
            continue;
        }
        if !valued.contains(&a.as_str()) {
            return Err(format!("unknown flag {a}"));
        }
        if rest.next().is_none() {
            return Err(format!("{a} needs a value"));
        }
    }
    Ok(())
}

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
    fn flags_are_checked_against_the_accepted_lists() {
        let args =
            |list: &[&str]| -> Vec<String> { list.iter().map(|s| (*s).to_owned()).collect() };
        let ok = check_flags(
            &args(&["ch3", "--quick", "--jobs", "2", "--json", "x.json"]),
            &["--quick"],
            &["--jobs", "--json"],
        );
        assert_eq!(ok, Ok(()));
        // A valued flag's value is never mistaken for a flag.
        assert_eq!(
            check_flags(&args(&["--json", "--x"]), &[], &["--json"]),
            Ok(())
        );
        assert_eq!(
            check_flags(&args(&["ch3", "--bogus", "2"]), &["--quick"], &["--jobs"]),
            Err("unknown flag --bogus".to_owned())
        );
        assert_eq!(
            check_flags(&args(&["--jobs"]), &[], &["--jobs"]),
            Err("--jobs needs a value".to_owned())
        );
    }

    #[test]
    fn series_formatting_is_stable() {
        let s = fmt_series("x", &[1.0, 2.5]);
        assert!(s.contains("1.000") && s.contains("2.500"));
    }
}
