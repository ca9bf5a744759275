//! Analytic performance model for scale-out server chips.
//!
//! The thesis drives its design-space exploration with an analytic model
//! (§2.4.3, §3.3, citing Hardavellas et al.) that extends classical
//! average-memory-access-time analysis: per-core performance is the
//! reciprocal of the time per application instruction, which is the sum of
//! a compute term, a serialized LLC-access term, and a memory term — each
//! parameterised by the workload statistics of [`sop_workloads`] and the
//! physical constants of [`sop_tech`]. The model is validated against the
//! cycle-level simulator in the Fig 3.3 experiment (see `sop-sim` and the
//! `repro fig3.3` harness).
//!
//! # Example
//!
//! ```
//! use sop_model::{DesignPoint, Interconnect};
//! use sop_tech::CoreKind;
//! use sop_workloads::Workload;
//!
//! // A 16-core pod with a 4MB crossbar-connected LLC (the thesis' chosen
//! // OoO pod) outperforms per-core a 64-tile mesh with the same cache.
//! let pod = DesignPoint::new(CoreKind::OutOfOrder, 16, 4.0, Interconnect::Crossbar)
//!     .evaluate(Workload::WebSearch);
//! let tiled = DesignPoint::new(CoreKind::OutOfOrder, 64, 4.0, Interconnect::Mesh)
//!     .evaluate(Workload::WebSearch);
//! assert!(pod.per_core_ipc > tiled.per_core_ipc);
//! ```

pub mod interconnect;
pub mod perf;
pub mod sweep;
pub mod validation;

pub use interconnect::{grid_dims, Interconnect};
pub use perf::{DesignPoint, PerfBreakdown, PerfEstimate};
pub use sweep::{average_per_core_ipc, capacity_sweep, core_count_sweep, SweepPoint};
pub use validation::ErrorStats;
