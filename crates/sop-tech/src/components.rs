//! Component area and power tables (thesis Tables 2.1, 2.2, 4.1, 6.1).
//!
//! Three core types appear throughout the thesis:
//!
//! * **Conventional** — the aggressive Xeon-class core of existing server
//!   processors: 4-wide, 128-entry ROB, 32-entry LSQ, 64KB L1s. 25mm² and
//!   11W at 40nm.
//! * **Out-of-order** — an ARM Cortex-A15-like core: 3-wide, 60-entry ROB,
//!   16-entry LSQ, 32KB L1s. 4.5mm² and 1W at 40nm (2.9mm² at 32nm,
//!   Table 4.1).
//! * **In-order** — an ARM Cortex-A8-like core: 2-wide dual-issue. 1.3mm²
//!   and 0.48W at 40nm.

use crate::node::TechnologyNode;

/// The three core microarchitectures evaluated in the thesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreKind {
    /// Aggressive 4-wide server core (Xeon-class).
    Conventional,
    /// 3-wide out-of-order core (Cortex-A15-like).
    OutOfOrder,
    /// 2-wide in-order core (Cortex-A8-like).
    InOrder,
}

impl CoreKind {
    /// All core kinds, most aggressive first.
    pub const ALL: [CoreKind; 3] = [
        CoreKind::Conventional,
        CoreKind::OutOfOrder,
        CoreKind::InOrder,
    ];

    /// Die area of one core, including its L1 caches, in mm² (Table 2.1 at
    /// 40nm; perfect area scaling to other nodes per §2.4.1).
    pub fn area_mm2(self, node: TechnologyNode) -> f64 {
        let base = match self {
            CoreKind::Conventional => 25.0,
            CoreKind::OutOfOrder => 4.5,
            CoreKind::InOrder => 1.3,
        };
        base * node.area_scale_from_40nm()
    }

    /// Peak power of one core in watts (Table 2.1 at 40nm).
    pub fn power_w(self, node: TechnologyNode) -> f64 {
        let base = match self {
            CoreKind::Conventional => 11.0,
            CoreKind::OutOfOrder => 1.0,
            CoreKind::InOrder => 0.48,
        };
        base * node.power_scale_from_40nm()
    }

    /// Pipeline and memory-system parameters of the core (Table 2.2).
    pub fn microarch(self) -> CoreMicroarch {
        match self {
            CoreKind::Conventional => CoreMicroarch {
                kind: self,
                dispatch_width: 4,
                rob_entries: 128,
                lsq_entries: 32,
                l1i_kb: 64,
                l1d_kb: 64,
                l1_load_to_use_cycles: 3,
                l1_mshrs: 32,
                out_of_order: true,
            },
            CoreKind::OutOfOrder => CoreMicroarch {
                kind: self,
                dispatch_width: 3,
                rob_entries: 60,
                lsq_entries: 16,
                l1i_kb: 32,
                l1d_kb: 32,
                l1_load_to_use_cycles: 2,
                l1_mshrs: 32,
                out_of_order: true,
            },
            CoreKind::InOrder => CoreMicroarch {
                kind: self,
                dispatch_width: 2,
                rob_entries: 0,
                lsq_entries: 0,
                l1i_kb: 32,
                l1d_kb: 32,
                l1_load_to_use_cycles: 2,
                l1_mshrs: 32,
                out_of_order: false,
            },
        }
    }

    /// Short label used in the thesis' tables.
    pub fn label(self) -> &'static str {
        match self {
            CoreKind::Conventional => "Conv",
            CoreKind::OutOfOrder => "OoO",
            CoreKind::InOrder => "IO",
        }
    }
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Pipeline and L1 parameters for a core (Table 2.2 / Table 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreMicroarch {
    /// Which core this describes.
    pub kind: CoreKind,
    /// Dispatch/retirement width in instructions per cycle.
    pub dispatch_width: u32,
    /// Reorder-buffer entries (0 for in-order cores).
    pub rob_entries: u32,
    /// Load/store-queue entries (0 for in-order cores).
    pub lsq_entries: u32,
    /// L1 instruction cache capacity in KB.
    pub l1i_kb: u32,
    /// L1 data cache capacity in KB.
    pub l1d_kb: u32,
    /// L1 load-to-use latency in cycles.
    pub l1_load_to_use_cycles: u32,
    /// L1 miss-status-holding registers.
    pub l1_mshrs: u32,
    /// Whether the core issues out of program order.
    pub out_of_order: bool,
}

/// Shared last-level-cache cost parameters (Table 2.1: 16-way
/// set-associative, 5mm² and 1W per MB at 40nm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcParams {
    /// Area per megabyte in mm².
    pub area_mm2_per_mb: f64,
    /// Power per megabyte in watts.
    pub power_w_per_mb: f64,
    /// Set associativity (ways).
    pub associativity: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Miss-status-holding registers per bank.
    pub mshrs: u32,
    /// Victim-cache entries.
    pub victim_entries: u32,
}

impl LlcParams {
    /// LLC parameters at the given node. The 40nm values are Table 2.1;
    /// Table 4.1's 3.2mm²/MB at 32nm is consistent with perfect area
    /// scaling (5 x 0.64 = 3.2).
    pub fn at(node: TechnologyNode) -> Self {
        LlcParams {
            area_mm2_per_mb: 5.0 * node.area_scale_from_40nm(),
            power_w_per_mb: 1.0 * node.power_scale_from_40nm(),
            associativity: 16,
            line_bytes: 64,
            mshrs: 64,
            victim_entries: 16,
        }
    }

    /// Die area of a cache of `capacity_mb` megabytes.
    pub fn area_mm2(&self, capacity_mb: f64) -> f64 {
        self.area_mm2_per_mb * capacity_mb
    }

    /// Peak power of a cache of `capacity_mb` megabytes.
    pub fn power_w(&self, capacity_mb: f64) -> f64 {
        self.power_w_per_mb * capacity_mb
    }
}

/// Miscellaneous system-on-chip components: I/O, peripherals, and glue logic
/// (Table 2.1: 42mm² and 5W at 40nm, estimated from an UltraSPARC T2 McPAT
/// configuration). Like the memory PHYs, this area is dominated by pads and
/// analog circuitry and does not scale with the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocParams {
    /// Die area in mm².
    pub area_mm2: f64,
    /// Power in watts.
    pub power_w: f64,
}

impl SocParams {
    /// SoC overhead at any node (non-scaling).
    pub fn at(_node: TechnologyNode) -> Self {
        SocParams {
            area_mm2: 42.0,
            power_w: 5.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_1_core_areas_at_40nm() {
        assert_eq!(CoreKind::Conventional.area_mm2(TechnologyNode::N40), 25.0);
        assert_eq!(CoreKind::OutOfOrder.area_mm2(TechnologyNode::N40), 4.5);
        assert_eq!(CoreKind::InOrder.area_mm2(TechnologyNode::N40), 1.3);
    }

    #[test]
    fn table_2_1_core_power_at_40nm() {
        assert_eq!(CoreKind::Conventional.power_w(TechnologyNode::N40), 11.0);
        assert_eq!(CoreKind::OutOfOrder.power_w(TechnologyNode::N40), 1.0);
        assert_eq!(CoreKind::InOrder.power_w(TechnologyNode::N40), 0.48);
    }

    #[test]
    fn table_4_1_a15_core_area_at_32nm() {
        // Table 4.1 quotes 2.9mm² for the A15-like core at 32nm; perfect
        // scaling of the 4.5mm² 40nm core gives 2.88mm².
        let a = CoreKind::OutOfOrder.area_mm2(TechnologyNode::N32);
        assert!((a - 2.9).abs() < 0.05, "got {a}");
    }

    #[test]
    fn table_4_1_llc_area_at_32nm() {
        let llc = LlcParams::at(TechnologyNode::N32);
        assert!((llc.area_mm2_per_mb - 3.2).abs() < 1e-9);
    }

    #[test]
    fn microarch_matches_table_2_2() {
        let conv = CoreKind::Conventional.microarch();
        assert_eq!(conv.dispatch_width, 4);
        assert_eq!(conv.rob_entries, 128);
        assert_eq!(conv.l1i_kb, 64);
        let ooo = CoreKind::OutOfOrder.microarch();
        assert_eq!(ooo.dispatch_width, 3);
        assert_eq!(ooo.rob_entries, 60);
        assert_eq!(ooo.lsq_entries, 16);
        let io = CoreKind::InOrder.microarch();
        assert_eq!(io.dispatch_width, 2);
        assert!(!io.out_of_order);
    }

    #[test]
    fn llc_area_scales_linearly_in_capacity() {
        let llc = LlcParams::at(TechnologyNode::N40);
        assert_eq!(llc.area_mm2(4.0), 20.0);
        assert_eq!(llc.power_w(4.0), 4.0);
    }

    #[test]
    fn soc_overhead_does_not_scale() {
        for node in TechnologyNode::ALL {
            let soc = SocParams::at(node);
            assert_eq!(soc.area_mm2, 42.0);
            assert_eq!(soc.power_w, 5.0);
        }
    }

    #[test]
    fn core_labels() {
        assert_eq!(CoreKind::OutOfOrder.to_string(), "OoO");
        assert_eq!(CoreKind::InOrder.to_string(), "IO");
    }
}
