//! Deterministic event-driven simulation of a fleet of Scale-Out
//! Processor servers serving heavy traffic from millions of users.
//!
//! The thesis' TCO chapter (chapter 5) sizes chips against *static*
//! datacenter capacity: a 20MW facility, every server at peak, no
//! traffic, no failures. This crate extends that analysis to dynamic
//! load. A fleet of identical servers sits behind a load balancer;
//! each server's request capacity derives from its chip organization
//! (pod count and size through `sop-model`'s analytic IPC, composed by
//! `sop-core::compose_pods`), and its amortized monthly cost from
//! `sop-tco`. Seeded open-loop arrival traffic with diurnal and bursty
//! components ([`traffic`]) meets seeded per-server failure processes
//! ([`failure`], following the `sop-fault` plan idiom); an operator
//! policy — drain or derate, the two repair postures of the TCO derate
//! model — decides what a damaged server does until repair.
//!
//! Everything is deterministic: all randomness comes from the vendored
//! shim RNG with explicit per-stream seeds, time advances in integer
//! ticks (1 tick = 1 simulated second), queues are integer fluid
//! queues, and the load balancer splits arrivals with exact integer
//! largest-prefix arithmetic. Two runs of the same
//! [`SimParams`](sim::SimParams) are bit-identical regardless of host,
//! worker count, or cache state — which is what lets fleet runs be
//! pure, cacheable `sop-exec` jobs ([`point`]) and fleet reports be
//! diffed with `--tol 0`.
//!
//! The headline outputs, per chip organization × policy:
//! cost-per-sustained-QPS and the tail-latency-vs-utilization curve
//! (p50/p95/p99 per utilization decile), i.e. "what does a served
//! query cost, and what latency do users see as the fleet loads up".

pub mod domains;
pub mod failure;
pub mod org;
pub mod point;
pub mod resilience;
pub mod sim;
pub mod traffic;

pub use domains::{DomainFault, DomainFaultPlan, DomainLevel, DomainTopology, TOPOLOGIES};
pub use failure::{FleetFault, FleetFaultPlan};
pub use org::{org_by_name, ChipOrg, ServerSpec, ORGS};
pub use point::{
    add_slo_metrics, fleet_points, grid, resilience_grid, resilience_points, storm_pair,
    FleetPointSpec, ResiliencePointSpec, SLO_AVAILABILITY_TARGET,
};
pub use resilience::{simulate_resilience, ResilienceParams, RetryPolicy, RETRY_POLICIES};
pub use sim::{simulate, FleetOutcome, Policy, SimParams, WindowStats};
pub use traffic::TrafficModel;

/// Derives an independent per-stream seed from a run seed and a stream
/// tag, so the traffic, burst, jitter, and per-server failure streams
/// never alias even though they share one user-facing `--seed`.
/// SplitMix64 finalizer over the combined value — the same mixer the
/// shim RNG seeds itself with, applied once more for stream separation.
pub(crate) fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_distinct_per_stream_and_seed() {
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 42, u64::MAX] {
            for stream in 0..8u64 {
                assert!(seen.insert(stream_seed(seed, stream)));
            }
        }
    }
}
