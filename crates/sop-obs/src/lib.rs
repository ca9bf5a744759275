//! Structured telemetry for the Scale-Out Processors reproduction.
//!
//! Dependency-free observability primitives shared by every crate in
//! the workspace:
//!
//! * [`Registry`] — named [`Counter`](Metric::Counter) /
//!   [`Gauge`](Metric::Gauge) / [`Histogram`](Metric::Histogram) metrics
//!   under hierarchical dotted keys (`sim.llc.bank3.misses`), cheap
//!   enough to stay always-on and mergeable across windows and machines;
//! * [`SpanLog`] — nested wall-clock phase timing for `repro` and the
//!   `sop` campaigns;
//! * [`json`] — a hand-rolled JSON value tree, writer, and parser (the
//!   hermetic build has no serde), used by the `--json` run reports;
//! * [`Report`] — the schema-versioned ([`SCHEMA_VERSION`]) run-report
//!   document those binaries emit;
//! * [`EventLog`] — a bounded ring buffer of simulator lifecycle events
//!   exportable in Chrome trace format (`chrome://tracing` / Perfetto).
//!
//! Key naming scheme: `<subsystem>.<component>[.<instance>].<what>`,
//! all lowercase, dot-separated, with plural event names for counters
//! (`misses`, `snoops`) — e.g. `sim.llc.bank3.misses`, `noc.class.
//! response.packets`, `mem.chan0.lines`.

//! * [`txn`] — the transaction-tracing model: the causal hop-stage
//!   taxonomy ([`Stage`](txn::Stage)) and the per-stage histogram bundle
//!   ([`TxnStats`](txn::TxnStats)) the simulator exports as `sim.txn.*`;
//! * [`analyze`] — per-stage percentile latency-breakdown tables over a
//!   traced run's registry (`sop trace --analyze`);
//! * [`diff`] — structural comparison of two `sop-report/v1` documents
//!   with per-metric tolerances (`sop diff`);
//! * [`prof`] — host-side self-profiling of the engine hot path: scoped
//!   [`RegionTimer`](prof::RegionTimer)s accumulate per-component wall
//!   time into `prof.*` counters, and [`ProfBreakdown`] renders the
//!   host self-time table (`sop prof --analyze`);
//! * [`prom`] — Prometheus text exposition of a registry or a report's
//!   metrics object (`sop metrics --text`);
//! * [`timeseries`] — fixed-interval windowed metric series
//!   ([`TimeSeries`], [`SeriesSet`]) with exact-integer counter and
//!   histogram-digest buckets, mergeable and downsampleable with
//!   associative semantics (a report's `series` section);
//! * [`slo`] — SLO objectives and multi-window multi-burn-rate alert
//!   rules evaluated deterministically over a series set, producing an
//!   incident timeline and time-to-detect (`sop slo`).

pub mod analyze;
pub mod diff;
pub mod event;
pub mod hist;
pub mod json;
pub mod prof;
pub mod prom;
pub mod registry;
pub mod report;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod txn;

pub use analyze::TxnBreakdown;
pub use diff::{diff_reports, DiffConfig, DiffEntry, DiffResult};
pub use event::{Event, EventLog};
pub use hist::Histogram;
pub use json::{write_atomic, Json};
pub use prof::{PhaseMark, Prof, ProfBreakdown, RegionTimer};
pub use registry::{Metric, MetricKindError, Registry, RenameError};
pub use report::{stabilized, Report, SCHEMA_VERSION};
pub use slo::{BurnRule, Incident, ScriptedCause, SloAnalysis, SloSpec};
pub use span::{SpanLog, SpanRecord};
pub use timeseries::{SeriesSet, TimeSeries};
pub use txn::{Stage, TxnStats};
