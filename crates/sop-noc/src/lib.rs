//! Flit-level on-chip network simulation for the chapter-4 pod study.
//!
//! The thesis compares three 64-core pod fabrics — a mesh, a flattened
//! butterfly, and the proposed **NOC-Out** (reduction trees into a central
//! LLC row joined by a one-row flattened butterfly, with dispersion trees
//! back out) — on performance (Fig 4.6), area (Fig 4.7), equal-area
//! performance (Fig 4.8), and power (§4.4.4). This crate implements all
//! four fabrics (plus the pod crossbar) as flit-level, credit-flow-
//! controlled wormhole networks with virtual channels per message class,
//! and provides the ORION-style area and wire-energy accounting used for
//! the figures.
//!
//! # Example
//!
//! ```
//! use sop_noc::{Network, NocConfig, TopologyKind, MessageClass};
//!
//! let mut net = Network::new(NocConfig::pod_64(TopologyKind::NocOut));
//! let core = net.core_endpoints()[0];
//! let bank = net.llc_endpoints()[0];
//! let id = net.inject(core, bank, MessageClass::Request, 8, 0);
//! let mut delivered = Vec::new();
//! for cycle in 1..200 {
//!     delivered.extend(net.step(cycle));
//! }
//! assert!(delivered.iter().any(|d| d.packet == id));
//! ```

pub mod area;
pub mod message;
pub mod scaled;
pub mod sim;
pub mod slab;
pub mod topology;

pub use area::{NocAreaBreakdown, NocPowerEstimate};
pub use message::{Delivered, MessageClass, PacketId};
pub use scaled::ScaledNocOut;
pub use sim::{Network, NocConfig, NocSpans, TrafficCounters};
pub use topology::{NodeRole, RouteHealth, Topology, TopologyKind, UNREACHABLE};
