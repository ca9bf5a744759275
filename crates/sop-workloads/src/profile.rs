//! Per-workload statistical profiles.
//!
//! Each profile packages the workload statistics the thesis measures with
//! Flexus and feeds into its analytic model (§2.4.3, §3.3): base ILP, L1
//! miss rates, the LLC miss-rate-versus-capacity curve, MLP, coherence
//! activity, off-chip traffic intensity, and software scalability. The
//! constants below are calibrated so that the reproduction matches the
//! per-workload behaviour the thesis reports in Figs 2.1, 2.2, 4.3 and the
//! design-level aggregates of Tables 2.3/2.4/3.2 (see EXPERIMENTS.md).

use sop_tech::CoreKind;

/// The seven CloudSuite 1.0 scale-out workloads (§2.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// Cassandra-style NoSQL data store serving YCSB requests.
    DataServing,
    /// Hadoop MapReduce: text classification (the thesis' MapReduce-C).
    MapReduceC,
    /// Hadoop MapReduce: word count (the thesis' MapReduce-W).
    MapReduceW,
    /// Darwin-style video streaming server.
    MediaStreaming,
    /// Cloud9 distributed SAT solver (batch).
    SatSolver,
    /// SPECweb2009 e-banking front end.
    WebFrontend,
    /// Nutch/Lucene index-serving node.
    WebSearch,
}

impl Workload {
    /// All seven workloads in the thesis' figure order.
    pub const ALL: [Workload; 7] = [
        Workload::DataServing,
        Workload::MapReduceC,
        Workload::MapReduceW,
        Workload::MediaStreaming,
        Workload::SatSolver,
        Workload::WebFrontend,
        Workload::WebSearch,
    ];

    /// The label used on the thesis' figure axes.
    pub fn label(self) -> &'static str {
        match self {
            Workload::DataServing => "Data Serving",
            Workload::MapReduceC => "MapReduce-C",
            Workload::MapReduceW => "MapReduce-W",
            Workload::MediaStreaming => "Media Streaming",
            Workload::SatSolver => "SAT Solver",
            Workload::WebFrontend => "Web Frontend",
            Workload::WebSearch => "Web Search",
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// LLC misses per kilo-instruction as a function of cache capacity and
/// sharer count.
///
/// The thesis decomposes LLC content into three parts (§2.1.3, §3.2.2):
/// a *dataset* part with essentially no reuse (misses regardless of
/// capacity), a *shared* part (instructions plus OS data, shared by all
/// cores, captured once capacity reaches a few MB), and a small
/// *per-thread private* part that divides the cache among sharers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissCurve {
    /// Capacity-independent dataset misses (per kilo-instruction).
    pub dataset_mpki: f64,
    /// Shared instruction/OS working-set misses at zero capacity.
    pub shared_mpki: f64,
    /// e-folding capacity (MB) for capturing the shared working set.
    pub shared_capture_mb: f64,
    /// Per-thread private working-set misses at zero capacity.
    pub private_mpki: f64,
    /// e-folding per-core capacity (MB) for the private working set.
    pub private_capture_mb: f64,
}

impl MissCurve {
    /// LLC misses per kilo-instruction with `capacity_mb` of cache shared
    /// by `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mb` is not positive or `cores` is zero.
    pub fn misses_per_kilo_instr(&self, capacity_mb: f64, cores: u32) -> f64 {
        assert!(capacity_mb > 0.0, "LLC capacity must be positive");
        assert!(cores > 0, "at least one core must share the LLC");
        let shared = self.shared_mpki * (-capacity_mb / self.shared_capture_mb).exp();
        let per_core_mb = capacity_mb / f64::from(cores);
        let private = self.private_mpki * (-per_core_mb / self.private_capture_mb).exp();
        self.dataset_mpki + shared + private
    }
}

/// Off-chip traffic intensity versus LLC capacity, in bytes per
/// (application) instruction. Includes write-back and fetch traffic, which
/// is why it exceeds the read-miss line volume. The thesis measures this
/// per configuration in simulation and provisions memory channels for the
/// worst case across workloads (§2.5); we model it with a saturating curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficCurve {
    /// Traffic that no amount of cache removes (dataset), bytes/instr.
    pub floor_bytes_per_instr: f64,
    /// Capacity-sensitive traffic at zero capacity, bytes/instr.
    pub capture_bytes_per_instr: f64,
    /// e-folding capacity (MB) for the capacity-sensitive traffic.
    pub capture_mb: f64,
}

impl TrafficCurve {
    /// Off-chip bytes per instruction at `capacity_mb` of LLC.
    pub fn bytes_per_instr(&self, capacity_mb: f64) -> f64 {
        assert!(capacity_mb > 0.0, "LLC capacity must be positive");
        self.floor_bytes_per_instr
            + self.capture_bytes_per_instr * (-capacity_mb / self.capture_mb).exp()
    }

    /// Off-chip bandwidth in GB/s for a group of `cores` cores each
    /// committing `per_core_ipc` application instructions per cycle at
    /// `ghz` GHz.
    pub fn bandwidth_gbps(&self, capacity_mb: f64, cores: u32, per_core_ipc: f64, ghz: f64) -> f64 {
        let instr_per_sec = per_core_ipc * ghz * 1e9 * f64::from(cores);
        self.bytes_per_instr(capacity_mb) * instr_per_sec / 1e9
    }
}

/// Service-level requirements of a workload (§4.3.3 separates the batch
/// workloads from the latency-sensitive ones; §5.3.1 argues out-of-order
/// cores for tight latency and in-order cores for throughput).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Tuned to meet response-time objectives (most online services).
    LatencySensitive,
    /// Throughput-oriented with lax deadlines (analytics, solvers).
    Batch,
}

/// How far the workload's software stack scales before sub-linear effects
/// appear (§3.4.1: Data Serving, Web Search, and SAT Solver degrade at
/// 32–64 cores; §4.3.3: Media Streaming, Web Frontend, and Web Search only
/// scale to 16 cores in the 64-core pod study).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scalability {
    /// Core count up to which the software scales essentially linearly.
    pub knee_cores: u32,
    /// Amdahl-style serial fraction that appears beyond the knee.
    pub serial_fraction: f64,
    /// Largest core count the chapter-4 pod study runs this workload at.
    pub pod_cores: u32,
}

impl Scalability {
    /// Software efficiency factor in `[0, 1]` at `cores` threads: the
    /// fraction of ideal linear speed-up the software stack retains.
    pub fn efficiency(&self, cores: u32) -> f64 {
        assert!(cores > 0, "at least one core");
        if cores <= self.knee_cores {
            return 1.0;
        }
        // Amdahl beyond the knee: the extra cores contend on the serial
        // fraction. Normalize so efficiency is continuous at the knee.
        let n = f64::from(cores) / f64::from(self.knee_cores);
        let s = self.serial_fraction;
        (1.0 / (s + (1.0 - s) / n)) / n
    }
}

/// The full statistical profile of one workload.
///
/// All rates are expressed for the out-of-order (Cortex-A15-like) core; use
/// the `*_for` accessors to obtain core-kind-adjusted values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Which workload this profiles.
    pub workload: Workload,
    /// Application IPC with a perfect (zero-latency, infinite) LLC.
    pub ipc_infinite: f64,
    /// L1-I misses per kilo-instruction (the large-instruction-footprint
    /// trait: these all go to the LLC and stall the front end).
    pub l1i_mpki: f64,
    /// L1-D misses per kilo-instruction that the LLC can serve.
    pub l1d_mpki: f64,
    /// Overlap factor for data accesses to the LLC (≥ 1).
    pub data_mlp: f64,
    /// Overlap factor for off-chip memory accesses (≥ 1). Scale-out
    /// workloads have notoriously low MLP (§4.2.2).
    pub mem_mlp: f64,
    /// LLC miss-rate-versus-capacity curve.
    pub miss_curve: MissCurve,
    /// Off-chip traffic intensity curve.
    pub traffic: TrafficCurve,
    /// Fraction of LLC accesses that trigger a snoop to a core (Fig 4.3).
    pub snoop_fraction: f64,
    /// Software scalability behaviour.
    pub scalability: Scalability,
    /// Service-level requirements.
    pub qos: QosClass,
}

impl WorkloadProfile {
    /// The calibrated profile of `workload`.
    pub fn of(workload: Workload) -> Self {
        match workload {
            Workload::DataServing => WorkloadProfile {
                workload,
                ipc_infinite: 2.35,
                l1i_mpki: 9.0,
                l1d_mpki: 6.5,
                data_mlp: 1.7,
                mem_mlp: 1.35,
                miss_curve: MissCurve {
                    dataset_mpki: 6.2,
                    shared_mpki: 13.8,
                    shared_capture_mb: 1.35,
                    private_mpki: 4.5,
                    private_capture_mb: 0.25,
                },
                traffic: TrafficCurve {
                    floor_bytes_per_instr: 0.25,
                    capture_bytes_per_instr: 0.20,
                    capture_mb: 3.0,
                },
                snoop_fraction: 0.045,
                scalability: Scalability {
                    knee_cores: 32,
                    serial_fraction: 0.04,
                    pod_cores: 64,
                },
                qos: QosClass::LatencySensitive,
            },
            Workload::MapReduceC => WorkloadProfile {
                workload,
                ipc_infinite: 1.85,
                l1i_mpki: 5.5,
                l1d_mpki: 8.5,
                data_mlp: 1.5,
                mem_mlp: 1.30,
                miss_curve: MissCurve {
                    dataset_mpki: 7.2,
                    shared_mpki: 4.5,
                    shared_capture_mb: 5.5,
                    private_mpki: 3.0,
                    private_capture_mb: 0.6,
                },
                traffic: TrafficCurve {
                    floor_bytes_per_instr: 0.21,
                    capture_bytes_per_instr: 0.21,
                    capture_mb: 6.0,
                },
                snoop_fraction: 0.010,
                scalability: Scalability {
                    knee_cores: 64,
                    serial_fraction: 0.02,
                    pod_cores: 64,
                },
                qos: QosClass::Batch,
            },
            Workload::MapReduceW => WorkloadProfile {
                workload,
                ipc_infinite: 3.00,
                l1i_mpki: 6.0,
                l1d_mpki: 7.0,
                data_mlp: 1.6,
                mem_mlp: 1.60,
                miss_curve: MissCurve {
                    dataset_mpki: 5.0,
                    shared_mpki: 11.4,
                    shared_capture_mb: 1.35,
                    private_mpki: 4.5,
                    private_capture_mb: 0.25,
                },
                traffic: TrafficCurve {
                    floor_bytes_per_instr: 0.22,
                    capture_bytes_per_instr: 0.19,
                    capture_mb: 3.5,
                },
                snoop_fraction: 0.015,
                scalability: Scalability {
                    knee_cores: 64,
                    serial_fraction: 0.02,
                    pod_cores: 64,
                },
                qos: QosClass::Batch,
            },
            Workload::MediaStreaming => WorkloadProfile {
                workload,
                ipc_infinite: 1.65,
                l1i_mpki: 8.0,
                l1d_mpki: 5.5,
                data_mlp: 1.2,
                mem_mlp: 1.05,
                miss_curve: MissCurve {
                    dataset_mpki: 7.5,
                    shared_mpki: 9.6,
                    shared_capture_mb: 1.2,
                    private_mpki: 4.5,
                    private_capture_mb: 0.25,
                },
                traffic: TrafficCurve {
                    floor_bytes_per_instr: 0.33,
                    capture_bytes_per_instr: 0.18,
                    capture_mb: 2.5,
                },
                snoop_fraction: 0.005,
                scalability: Scalability {
                    knee_cores: 16,
                    serial_fraction: 0.08,
                    pod_cores: 16,
                },
                qos: QosClass::LatencySensitive,
            },
            Workload::SatSolver => WorkloadProfile {
                workload,
                ipc_infinite: 3.60,
                l1i_mpki: 2.5,
                l1d_mpki: 8.5,
                data_mlp: 2.0,
                mem_mlp: 1.70,
                miss_curve: MissCurve {
                    dataset_mpki: 7.0,
                    shared_mpki: 3.5,
                    shared_capture_mb: 5.5,
                    private_mpki: 4.0,
                    private_capture_mb: 0.8,
                },
                traffic: TrafficCurve {
                    floor_bytes_per_instr: 0.15,
                    capture_bytes_per_instr: 0.19,
                    capture_mb: 7.0,
                },
                snoop_fraction: 0.025,
                scalability: Scalability {
                    knee_cores: 32,
                    serial_fraction: 0.04,
                    pod_cores: 64,
                },
                qos: QosClass::Batch,
            },
            Workload::WebFrontend => WorkloadProfile {
                workload,
                ipc_infinite: 3.30,
                l1i_mpki: 10.0,
                l1d_mpki: 6.0,
                data_mlp: 1.6,
                mem_mlp: 1.45,
                miss_curve: MissCurve {
                    dataset_mpki: 3.6,
                    shared_mpki: 12.6,
                    shared_capture_mb: 1.45,
                    private_mpki: 4.5,
                    private_capture_mb: 0.25,
                },
                traffic: TrafficCurve {
                    floor_bytes_per_instr: 0.17,
                    capture_bytes_per_instr: 0.22,
                    capture_mb: 3.0,
                },
                snoop_fraction: 0.055,
                scalability: Scalability {
                    knee_cores: 32,
                    serial_fraction: 0.05,
                    pod_cores: 16,
                },
                qos: QosClass::LatencySensitive,
            },
            Workload::WebSearch => WorkloadProfile {
                workload,
                ipc_infinite: 3.55,
                l1i_mpki: 8.5,
                l1d_mpki: 5.0,
                data_mlp: 1.7,
                mem_mlp: 1.50,
                miss_curve: MissCurve {
                    dataset_mpki: 3.2,
                    shared_mpki: 11.4,
                    shared_capture_mb: 1.35,
                    private_mpki: 4.5,
                    private_capture_mb: 0.25,
                },
                traffic: TrafficCurve {
                    floor_bytes_per_instr: 0.14,
                    capture_bytes_per_instr: 0.21,
                    capture_mb: 2.5,
                },
                snoop_fraction: 0.030,
                scalability: Scalability {
                    knee_cores: 32,
                    serial_fraction: 0.05,
                    pod_cores: 16,
                },
                qos: QosClass::LatencySensitive,
            },
        }
    }

    /// Profiles of all seven workloads, in figure order.
    pub fn all() -> Vec<WorkloadProfile> {
        Workload::ALL
            .iter()
            .copied()
            .map(WorkloadProfile::of)
            .collect()
    }

    /// Perfect-LLC IPC for `kind`. The conventional 4-wide core extracts
    /// only modestly more ILP than the 3-wide OoO (the thesis' central
    /// inefficiency argument, §2.2.1); the 2-wide in-order core extracts
    /// substantially less.
    pub fn ipc_infinite_for(&self, kind: CoreKind) -> f64 {
        match kind {
            CoreKind::Conventional => (self.ipc_infinite * 1.25).min(3.6),
            CoreKind::OutOfOrder => self.ipc_infinite,
            CoreKind::InOrder => self.ipc_infinite * 0.60,
        }
    }

    /// (L1-I, L1-D) misses per kilo-instruction for `kind`. The
    /// conventional core's 64KB L1s filter more of the footprint than the
    /// 32KB L1s of the simpler cores (Table 2.2).
    pub fn l1_mpki_for(&self, kind: CoreKind) -> (f64, f64) {
        match kind {
            CoreKind::Conventional => (self.l1i_mpki * 0.65, self.l1d_mpki * 0.70),
            CoreKind::OutOfOrder => (self.l1i_mpki, self.l1d_mpki),
            CoreKind::InOrder => (self.l1i_mpki, self.l1d_mpki * 1.05),
        }
    }

    /// Memory-level parallelism for `kind`: the 128-entry-ROB conventional
    /// core overlaps more misses; the in-order core overlaps almost none.
    pub fn mem_mlp_for(&self, kind: CoreKind) -> f64 {
        match kind {
            CoreKind::Conventional => self.mem_mlp * 1.45,
            CoreKind::OutOfOrder => self.mem_mlp,
            CoreKind::InOrder => (self.mem_mlp * 0.78).max(1.0),
        }
    }

    /// LLC-hit data-access overlap for `kind`.
    pub fn data_mlp_for(&self, kind: CoreKind) -> f64 {
        match kind {
            CoreKind::Conventional => self.data_mlp * 1.25,
            CoreKind::OutOfOrder => self.data_mlp,
            CoreKind::InOrder => 1.0,
        }
    }

    /// Effective *serialized* LLC accesses per instruction for `kind`:
    /// instruction fetches stall the front end and count in full; data
    /// accesses are divided by the data MLP.
    pub fn serialized_llc_accesses_per_instr(&self, kind: CoreKind) -> f64 {
        let (i, d) = self.l1_mpki_for(kind);
        (i + d / self.data_mlp_for(kind)) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seven_workloads_have_profiles() {
        assert_eq!(WorkloadProfile::all().len(), 7);
    }

    #[test]
    fn snoop_rates_average_about_2_7_percent() {
        // Fig 4.3: an average of 2.7 LLC accesses in 100 trigger a snoop.
        let avg: f64 = WorkloadProfile::all()
            .iter()
            .map(|p| p.snoop_fraction)
            .sum::<f64>()
            / 7.0;
        assert!((avg - 0.027).abs() < 0.004, "got {avg}");
    }

    #[test]
    fn miss_curves_are_monotone_in_capacity() {
        for p in WorkloadProfile::all() {
            let mut prev = f64::INFINITY;
            for c in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
                let m = p.miss_curve.misses_per_kilo_instr(c, 4);
                assert!(m <= prev, "{}: miss rate rose at {c}MB", p.workload);
                assert!(m > 0.0);
                prev = m;
            }
        }
    }

    #[test]
    fn miss_curves_degrade_gently_with_sharers() {
        // Fig 2.3a: sharing a 4MB LLC among 256 cores costs only a modest
        // amount of hit rate because most useful content is shared. The
        // extra misses are bounded by the (small) per-thread private set;
        // the resulting perf effect is checked against Fig 2.3 in
        // sop-bench.
        for p in WorkloadProfile::all() {
            let m4 = p.miss_curve.misses_per_kilo_instr(4.0, 4);
            let m256 = p.miss_curve.misses_per_kilo_instr(4.0, 256);
            assert!(m256 >= m4);
            assert!(
                m256 - m4 <= p.miss_curve.private_mpki,
                "{}: sharing penalty exceeds the private set",
                p.workload
            );
        }
    }

    #[test]
    fn traffic_decreases_with_capacity() {
        for p in WorkloadProfile::all() {
            assert!(p.traffic.bytes_per_instr(1.0) > p.traffic.bytes_per_instr(16.0));
        }
    }

    #[test]
    fn media_streaming_has_the_most_floor_traffic() {
        let ms = WorkloadProfile::of(Workload::MediaStreaming);
        for p in WorkloadProfile::all() {
            assert!(ms.traffic.floor_bytes_per_instr >= p.traffic.floor_bytes_per_instr);
        }
    }

    #[test]
    fn in_order_cores_extract_less_ilp() {
        for p in WorkloadProfile::all() {
            assert!(
                p.ipc_infinite_for(CoreKind::InOrder) < p.ipc_infinite_for(CoreKind::OutOfOrder)
            );
            assert!(
                p.ipc_infinite_for(CoreKind::OutOfOrder)
                    <= p.ipc_infinite_for(CoreKind::Conventional)
            );
        }
    }

    #[test]
    fn conventional_l1s_filter_more() {
        for p in WorkloadProfile::all() {
            let (ci, cd) = p.l1_mpki_for(CoreKind::Conventional);
            let (oi, od) = p.l1_mpki_for(CoreKind::OutOfOrder);
            assert!(ci < oi && cd < od);
        }
    }

    #[test]
    fn efficiency_is_one_below_knee_and_decays_after() {
        let s = Scalability {
            knee_cores: 16,
            serial_fraction: 0.05,
            pod_cores: 16,
        };
        assert_eq!(s.efficiency(1), 1.0);
        assert_eq!(s.efficiency(16), 1.0);
        let e32 = s.efficiency(32);
        let e64 = s.efficiency(64);
        assert!(e32 < 1.0 && e64 < e32);
        assert!(e64 > 0.0);
    }

    #[test]
    fn bandwidth_scales_linearly_with_cores_and_ipc() {
        let p = WorkloadProfile::of(Workload::WebSearch);
        let b1 = p.traffic.bandwidth_gbps(4.0, 16, 0.75, 2.0);
        let b2 = p.traffic.bandwidth_gbps(4.0, 32, 0.75, 2.0);
        assert!((b2 - 2.0 * b1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_miss_curve_panics() {
        WorkloadProfile::of(Workload::WebSearch)
            .miss_curve
            .misses_per_kilo_instr(0.0, 4);
    }

    #[test]
    fn serialized_accesses_weight_instruction_misses_fully() {
        let p = WorkloadProfile::of(Workload::WebFrontend);
        let a = p.serialized_llc_accesses_per_instr(CoreKind::OutOfOrder);
        let (i, d) = p.l1_mpki_for(CoreKind::OutOfOrder);
        assert!(a * 1000.0 >= i);
        assert!(a * 1000.0 <= i + d);
    }

    #[test]
    fn workload_labels_match_figures() {
        assert_eq!(Workload::MapReduceC.to_string(), "MapReduce-C");
        assert_eq!(Workload::WebFrontend.to_string(), "Web Frontend");
    }
}
