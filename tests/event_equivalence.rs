//! The event-driven engine must be indistinguishable from per-cycle
//! simulation.
//!
//! `Machine::set_reference_mode(true)` disables every fast-path shortcut:
//! the machine ticks every cycle, sweeps every router, and polls every
//! core — the semantics the event-driven engine (idle-cycle jumps, the
//! active-router worklist, per-core poll scheduling) claims to reproduce
//! exactly. These tests run both engines over the chapter-3 validation
//! configurations and a chapter-4 pod and require the *entire* result —
//! every named metric, histogram bucket, and NOC counter — to be equal.

use scale_out_processors::noc::TopologyKind;
use scale_out_processors::sim::{Machine, SimConfig, SimResult};
use scale_out_processors::workloads::Workload;

/// Runs one window on a fresh machine in each mode and returns both
/// results.
fn both_modes(cfg: SimConfig, warm: u64, measure: u64) -> (SimResult, SimResult) {
    let mut event = Machine::new(cfg);
    let mut reference = Machine::new(cfg);
    reference.set_reference_mode(true);
    (
        event.run_window(warm, measure),
        reference.run_window(warm, measure),
    )
}

fn assert_equivalent(cfg: SimConfig, warm: u64, measure: u64, what: &str) {
    let (event, reference) = both_modes(cfg, warm, measure);
    assert_eq!(
        event, reference,
        "event-driven diverged from per-cycle reference: {what}"
    );
}

#[test]
fn validation_configs_match_reference() {
    for topology in [TopologyKind::Crossbar, TopologyKind::Mesh] {
        for cores in [1u32, 4, 16] {
            for workload in [Workload::WebSearch, Workload::DataServing] {
                let cfg = SimConfig::validation(workload, cores, topology);
                assert_equivalent(
                    cfg,
                    500,
                    1_500,
                    &format!("{workload:?} x{cores} on {topology:?}"),
                );
            }
        }
    }
}

#[test]
fn pod_64_nocout_matches_reference() {
    let cfg = SimConfig::pod_64(Workload::WebSearch, TopologyKind::NocOut);
    assert_equivalent(cfg, 1_500, 3_000, "pod_64 WebSearch on NOC-Out");
}

#[test]
fn pod_64_flattened_butterfly_matches_reference() {
    let cfg = SimConfig::pod_64(Workload::MapReduceC, TopologyKind::FlattenedButterfly);
    assert_equivalent(
        cfg,
        1_500,
        3_000,
        "pod_64 MapReduceC on flattened butterfly",
    );
}

/// Consecutive windows over one long execution (the SimFlex sampling
/// pattern) must also agree: the event engine's carried-over state —
/// worklists, poll schedules, pending events — matches the reference
/// between windows, not just within one. The 64-tile pod carries the
/// most of that state across a window boundary.
#[test]
fn consecutive_windows_match_reference() {
    for cfg in [
        SimConfig::validation(Workload::MediaStreaming, 4, TopologyKind::Mesh),
        SimConfig::pod_64(Workload::DataServing, TopologyKind::Mesh),
    ] {
        let mut event = Machine::new(cfg);
        let mut reference = Machine::new(cfg);
        reference.set_reference_mode(true);
        for window in 0..2 {
            let e = event.run_window(500, 1_000);
            let r = reference.run_window(500, 1_000);
            assert_eq!(e, r, "{cfg:?}: window {window} diverged");
        }
    }
}
