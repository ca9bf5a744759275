//! Datacenter total-cost-of-ownership analysis (chapter 5).
//!
//! The thesis evaluates server chips at the datacenter level with the
//! EETCO model: a 20MW facility of 17kW racks, each rack holding 42 1U
//! servers whose leftover power budget (after network gear, fans, power
//! conversion, motherboard, disks, and memory) is filled with processors.
//! TCO sums four expense categories — infrastructure, server and network
//! hardware, power, and maintenance — and the figure of merit is
//! performance per TCO dollar (Figs 5.1–5.5).
//!
//! # Example
//!
//! ```
//! use sop_core::designs::DesignKind;
//! use sop_tco::{Datacenter, TcoParams};
//! use sop_tech::{CoreKind, TechnologyNode};
//!
//! let params = TcoParams::thesis();
//! let conv = Datacenter::for_design(DesignKind::Conventional, &params, 64);
//! let sop = Datacenter::for_design(
//!     DesignKind::ScaleOut(CoreKind::InOrder),
//!     &params,
//!     64,
//! );
//! // The headline claim: 4.4x-7.1x better performance/TCO than
//! // conventional-processor datacenters.
//! let gain = sop.perf_per_tco() / conv.perf_per_tco();
//! assert!(gain > 4.0);
//! ```

pub mod datacenter;
pub mod derate;
pub mod params;
pub mod price;
pub mod qos;

pub use datacenter::{Datacenter, TcoBreakdown};
pub use derate::{cost_per_delivered_kqps, derated_performance, DegradationCurve};
pub use params::TcoParams;
pub use price::{estimated_price_usd, market_price_usd};
pub use qos::{MixedFleet, PoolChoice};

use sop_tech::TechnologyNode;

/// The node at which chapter 5 compares chips.
pub const CHAPTER5_NODE: TechnologyNode = TechnologyNode::N40;
