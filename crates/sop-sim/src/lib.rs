//! Cycle-level chip-multiprocessor simulation (the Flexus substitute).
//!
//! The thesis validates its analytic model (Fig 3.3) and evaluates the
//! NOC-Out pod microarchitecture (Figs 4.3, 4.6, 4.8) with cycle-accurate
//! full-system simulation. This crate provides the equivalent engine for
//! the reproduction: trace-driven cores (synthetic traces from
//! [`sop_workloads`]), a set-associative NUCA LLC with an invalidation
//! directory, bandwidth-modelled memory controllers, and any of the
//! [`sop_noc`] fabrics in between.
//!
//! # Example
//!
//! ```no_run
//! use sop_sim::{Machine, SimConfig};
//! use sop_noc::TopologyKind;
//! use sop_workloads::Workload;
//!
//! let cfg = SimConfig::pod_64(Workload::WebSearch, TopologyKind::NocOut);
//! let result = Machine::new(cfg).run(20_000, 40_000);
//! println!("aggregate IPC = {:.2}", result.aggregate_ipc());
//! ```

pub mod cache;
pub mod core;
pub mod l1;
pub mod machine;
pub mod memory;
pub mod sampling;
pub mod stats;
pub mod warmup;

pub use cache::{DirectoryState, LlcBank};
pub use core::{CoreState, SimCore};
pub use l1::{L1Cache, MesiState, SnoopOutcome};
pub use machine::{HaltReason, Machine, SimConfig, SimResult};
pub use memory::MemoryController;
pub use sampling::{measure, SampledMeasurement};
pub use stats::Histogram;
