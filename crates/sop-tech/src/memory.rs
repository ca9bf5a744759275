//! Off-chip memory interface model.
//!
//! The thesis models single-channel DDR3-1667 interfaces at 40/32nm and the
//! (then-emerging) DDR4 interface at 20nm, which doubles per-channel
//! bandwidth (§2.4.1). Each interface costs (2 + 10)mm² for PHY plus
//! controller and burns 5.7W (Table 2.1). Crucially, the analog PHY
//! circuitry prevents the interface from scaling with the process, which is
//! why memory interfaces eat a growing share of the die at 20nm.

use crate::node::TechnologyNode;

/// DRAM interface generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryGen {
    /// DDR3-1667: 12.8GB/s per channel peak.
    Ddr3,
    /// DDR4: double the DDR3 per-channel bandwidth.
    Ddr4,
}

impl MemoryGen {
    /// Peak channel bandwidth in GB/s.
    pub fn peak_gbps(self) -> f64 {
        match self {
            MemoryGen::Ddr3 => 12.8,
            MemoryGen::Ddr4 => 25.6,
        }
    }
}

impl std::fmt::Display for MemoryGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryGen::Ddr3 => f.write_str("DDR3-1667"),
            MemoryGen::Ddr4 => f.write_str("DDR4"),
        }
    }
}

/// A single-channel memory interface (PHY + controller).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryInterface {
    /// Interface generation.
    pub gen: MemoryGen,
    /// Die area in mm² (PHY + controller; does not scale with process).
    pub area_mm2: f64,
    /// Power in watts per channel.
    pub power_w: f64,
    /// Fraction of the peak bandwidth that is usable (70%, §2.4.1 citing
    /// dramsim-style effective-utilization studies).
    pub utilization: f64,
}

impl MemoryInterface {
    /// The memory interface paired with a technology node.
    pub fn at(node: TechnologyNode) -> Self {
        MemoryInterface {
            gen: node.memory_gen(),
            // Table 2.1: PHY 2mm² + controller 10mm²; analog circuitry keeps
            // this constant across nodes (§2.4.1, §3.4.4).
            area_mm2: 12.0,
            power_w: 5.7,
            utilization: 0.70,
        }
    }

    /// Useful (sustainable) bandwidth per channel in GB/s. A DDR3-1667
    /// channel provides 12.8 x 0.70 ≈ 9GB/s (§2.4.1).
    pub fn useful_gbps(&self) -> f64 {
        self.gen.peak_gbps() * self.utilization
    }

    /// Number of channels needed to sustain `demand_gbps` of off-chip
    /// traffic. Zero demand still requires one channel: every server chip
    /// must reach memory.
    pub fn channels_for(&self, demand_gbps: f64) -> u32 {
        assert!(demand_gbps >= 0.0, "bandwidth demand must be non-negative");
        ((demand_gbps / self.useful_gbps()).ceil() as u32).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_useful_bandwidth_is_about_9gbps() {
        let m = MemoryInterface::at(TechnologyNode::N40);
        assert!((m.useful_gbps() - 8.96).abs() < 1e-9);
    }

    #[test]
    fn ddr4_doubles_ddr3() {
        assert_eq!(
            MemoryGen::Ddr4.peak_gbps(),
            2.0 * MemoryGen::Ddr3.peak_gbps()
        );
    }

    #[test]
    fn channel_provisioning_rounds_up() {
        let m = MemoryInterface::at(TechnologyNode::N40);
        assert_eq!(m.channels_for(0.0), 1);
        assert_eq!(m.channels_for(8.9), 1);
        assert_eq!(m.channels_for(9.0), 2);
        assert_eq!(m.channels_for(18.8), 3); // two SOP OoO pods at 9.4GB/s each
    }

    #[test]
    fn interface_area_constant_across_nodes() {
        for node in TechnologyNode::ALL {
            assert_eq!(MemoryInterface::at(node).area_mm2, 12.0);
            assert_eq!(MemoryInterface::at(node).power_w, 5.7);
        }
    }

    #[test]
    fn node_20nm_gets_ddr4() {
        assert_eq!(
            MemoryInterface::at(TechnologyNode::N20).gen,
            MemoryGen::Ddr4
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_demand_panics() {
        MemoryInterface::at(TechnologyNode::N40).channels_for(-1.0);
    }
}
