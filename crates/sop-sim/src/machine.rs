//! The full chip-multiprocessor: cores + NOC + LLC + directory + memory.
//!
//! Transactions follow the §4.2.1 protocol. A core's L1 miss travels as a
//! `Request` to the home LLC bank. The bank either hits (responding after
//! its access latency, possibly after snooping sharers/owners), or misses
//! and fetches the line from the interleaved memory controllers (paying a
//! write-back when the victim was owned). Snoops travel as
//! `SnoopRequest`s to the cores, whose acknowledgements return as
//! `Response`s before the original access completes — the full
//! invalidation/forwarding round trip of an inclusive directory LLC.

use crate::cache::{BankOutcome, LlcBank};
use crate::core::{CoreRequest, SimCore};
use crate::l1::L1Cache;
use crate::memory::{channel_of, MemoryController};
use crate::stats::Histogram;
use crate::warmup::{warm, WarmKey};
use sop_fault::{ComponentKind, Fault, FaultMode, FaultPlan};
use sop_noc::slab::{Key, SideTable, Slab};
use sop_noc::{Delivered, MessageClass, Network, NocConfig, Topology, TopologyKind};
use sop_obs::prof::{Component as HostComponent, PhaseMark, Prof, RegionTimer};
use sop_obs::txn::{Stage, TxnStats, STAGES};
use sop_obs::{EventLog, Registry};
use sop_tech::{CacheGeometry, CoreKind, TechnologyNode};
use sop_workloads::trace::LineAddr;
use sop_workloads::{TraceConfig, Workload, WorkloadProfile};
use std::collections::{BinaryHeap, VecDeque};

/// Configuration of a simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Workload to run.
    pub workload: Workload,
    /// Core microarchitecture.
    pub core_kind: CoreKind,
    /// Cores instantiated (the fabric is built for this count).
    pub cores: u32,
    /// Cores actually running threads (§4.3.3: workloads that only scale
    /// to 16 use the 16 tiles nearest the LLC).
    pub active_cores: u32,
    /// Total LLC capacity in MB.
    pub llc_mb: f64,
    /// On-chip fabric.
    pub noc: NocConfig,
    /// Memory channels.
    pub memory_channels: u32,
    /// Technology node.
    pub node: TechnologyNode,
    /// Trace seed.
    pub seed: u64,
}

impl SimConfig {
    /// The chapter-4 pod: 64 A15-like cores, 8MB LLC, four DDR3 channels
    /// at 32nm (Table 4.1), honouring the workload's scalability limit.
    pub fn pod_64(workload: Workload, topology: TopologyKind) -> Self {
        let profile = WorkloadProfile::of(workload);
        SimConfig {
            workload,
            core_kind: CoreKind::OutOfOrder,
            cores: 64,
            active_cores: profile.scalability.pod_cores.min(64),
            llc_mb: 8.0,
            noc: NocConfig::pod_64(topology),
            memory_channels: 4,
            node: TechnologyNode::N32,
            seed: 42,
        }
    }

    /// A chapter-3 validation configuration (Fig 3.3): `cores` cores and a
    /// 4MB LLC on the given fabric at 40nm.
    pub fn validation(workload: Workload, cores: u32, topology: TopologyKind) -> Self {
        let llc_tiles = match topology {
            TopologyKind::Mesh | TopologyKind::FlattenedButterfly => cores,
            _ => cores.div_ceil(4),
        };
        SimConfig {
            workload,
            core_kind: CoreKind::OutOfOrder,
            cores,
            active_cores: cores,
            llc_mb: 4.0,
            noc: NocConfig {
                topology,
                cores,
                llc_tiles,
                link_bits: 128,
                vc_depth: 5,
                tile_mm: 2.2,
                hub_cycles: 2,
            },
            // Scale channels with the machine so the validation study
            // isolates interconnect and software effects, as the thesis'
            // full-system configurations do.
            memory_channels: cores.div_ceil(8).max(2),
            node: TechnologyNode::N40,
            seed: 42,
        }
    }
}

/// Why a faulted machine stopped simulating. Reported as a structured
/// outcome — never a hang: the quiesce barrier applies faults on an idle
/// fabric and checks reachability immediately, so a request that could
/// never complete is never issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// Some surviving core and some live LLC bank can no longer reach
    /// each other across the faulted fabric.
    Partition,
    /// Every LLC bank has failed.
    NoLlc,
    /// Every memory channel has failed.
    NoMemory,
    /// Every active core has failed.
    NoCores,
}

impl HaltReason {
    /// Stable machine-readable key (`degradation` report sections).
    pub fn key(self) -> &'static str {
        match self {
            HaltReason::Partition => "partition",
            HaltReason::NoLlc => "no_llc",
            HaltReason::NoMemory => "no_memory",
            HaltReason::NoCores => "no_cores",
        }
    }

    /// Inverse of [`HaltReason::key`], for cache round-trips.
    pub fn from_key(key: &str) -> Option<Self> {
        match key {
            "partition" => Some(HaltReason::Partition),
            "no_llc" => Some(HaltReason::NoLlc),
            "no_memory" => Some(HaltReason::NoMemory),
            "no_cores" => Some(HaltReason::NoCores),
            _ => None,
        }
    }
}

/// Live fault-injection state: the not-yet-applied schedule plus the
/// degraded-machine bookkeeping. Boxed behind an `Option` on [`Machine`]
/// — `None` (the empty-plan case) leaves every hot path on its original
/// branch, so fault support costs a fault-free run nothing but a
/// null check.
#[derive(Debug)]
struct FaultState {
    /// Faults not yet applied, ascending by cycle.
    pending: VecDeque<Fault>,
    /// Scheduled ends of intermittent link outages: `(cycle, link id)`,
    /// ascending.
    restores: Vec<(u64, u32)>,
    /// True while draining in-flight work before applying a fault; the
    /// issue phase is frozen so the fabric empties.
    quiescing: bool,
    /// Which threads still execute (indexed like `Machine::cores`).
    online: Vec<bool>,
    /// Which LLC banks still serve lines.
    bank_live: Vec<bool>,
    /// Power-of-two remap over the live banks, once any bank has died:
    /// a line hashes into this table instead of `0..banks`. `None`
    /// while all banks live (mapping identical to fault-free).
    bank_map: Option<Vec<usize>>,
    /// Per-bank access latency (doubled by degradation faults).
    bank_latency: Vec<u64>,
    /// Memory channels still accepting requests, ascending.
    live_channels: Vec<usize>,
    /// Set once the machine can no longer make forward progress.
    halted: Option<HaltReason>,
    /// Cycles spent draining at quiesce barriers.
    quiesce_cycles: u64,
    applied: u64,
    routers_dead: u64,
    routers_degraded: u64,
    links_dead: u64,
    links_degraded: u64,
    links_restored: u64,
    banks_dead: u64,
    banks_degraded: u64,
    channels_dead: u64,
    channels_degraded: u64,
    cores_offline: u64,
    llc_lines_invalidated: u64,
}

impl FaultState {
    /// Publishes the degradation bookkeeping as `sim.fault.*` gauges
    /// (gauges, not counters: these are state snapshots, idempotent
    /// across windows).
    fn export(&self, reg: &mut Registry) {
        reg.gauge_set("sim.fault.applied", self.applied as f64);
        reg.gauge_set("sim.fault.routers.dead", self.routers_dead as f64);
        reg.gauge_set("sim.fault.routers.degraded", self.routers_degraded as f64);
        reg.gauge_set("sim.fault.links.dead", self.links_dead as f64);
        reg.gauge_set("sim.fault.links.degraded", self.links_degraded as f64);
        reg.gauge_set("sim.fault.links.restored", self.links_restored as f64);
        reg.gauge_set("sim.fault.llc_banks.dead", self.banks_dead as f64);
        reg.gauge_set("sim.fault.llc_banks.degraded", self.banks_degraded as f64);
        reg.gauge_set(
            "sim.fault.llc.lines_invalidated",
            self.llc_lines_invalidated as f64,
        );
        reg.gauge_set("sim.fault.mem_channels.dead", self.channels_dead as f64);
        reg.gauge_set(
            "sim.fault.mem_channels.degraded",
            self.channels_degraded as f64,
        );
        reg.gauge_set("sim.fault.cores.offline", self.cores_offline as f64);
        reg.gauge_set(
            "sim.fault.cores.online",
            self.online.iter().filter(|&&o| o).count() as f64,
        );
        reg.gauge_set("sim.fault.quiesce_cycles", self.quiesce_cycles as f64);
        reg.gauge_set(
            "sim.fault.halted",
            if self.halted.is_some() { 1.0 } else { 0.0 },
        );
    }
}

/// Aggregated simulation results over the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Measured cycles.
    pub cycles: u64,
    /// Application instructions committed by all cores in the window.
    pub instructions: u64,
    /// LLC accesses in the window.
    pub llc_accesses: u64,
    /// LLC misses in the window.
    pub llc_misses: u64,
    /// Snoop messages sent to cores.
    pub snoops: u64,
    /// Lines transferred from memory.
    pub memory_lines: u64,
    /// Snoop invalidations that found a line in an L1 (the rest were
    /// stale-sharer snoops).
    pub l1_invalidations: u64,
    /// Mean NOC packet latency.
    pub mean_packet_latency: f64,
    /// End-to-end L1-miss round-trip latency distribution (request issue
    /// to response delivery, including bank, directory, and memory time).
    pub request_latency: Histogram,
    /// Flit-hops through routers during the window (for power analysis).
    pub noc_flit_hops: u64,
    /// Flit-millimetres of wire traversed during the window.
    pub noc_flit_mm: f64,
    /// Cores that ran threads.
    pub active_cores: u32,
    /// Why the machine stopped early, if injected faults made forward
    /// progress impossible. Always `None` on fault-free runs.
    pub halted: Option<HaltReason>,
    /// Every named metric of the window: `sim.llc.bank<i>.*`, `sim.l1.*`,
    /// `mem.chan<i>.*`, `noc.*`, `sim.cycles`, `sim.instructions`, and
    /// the `sim.request_latency` histogram. The typed fields above are a
    /// view over this registry; the registry is what reports serialize.
    pub metrics: Registry,
}

impl SimResult {
    /// Aggregate application IPC (the thesis' performance metric, §3.3).
    pub fn aggregate_ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles as f64
    }

    /// Per-core application IPC.
    pub fn per_core_ipc(&self) -> f64 {
        self.aggregate_ipc() / f64::from(self.active_cores)
    }

    /// Fraction of LLC accesses that triggered at least one snoop-ish
    /// message (Fig 4.3 numerator counts accesses causing a snoop).
    pub fn snoop_fraction(&self) -> f64 {
        if self.llc_accesses == 0 {
            0.0
        } else {
            self.snoops as f64 / self.llc_accesses as f64
        }
    }

    /// Off-chip bandwidth in GB/s at `ghz`.
    pub fn offchip_gbps(&self, ghz: f64) -> f64 {
        self.memory_lines as f64 * 64.0 / (self.cycles as f64 / (ghz * 1e9)) / 1e9
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenRequest {
    core: u32,
    line: LineAddr,
    write: bool,
    fetch: bool,
    bank: usize,
    /// Cycle the core issued the request.
    issued_at: u64,
    /// Snoop acknowledgements still outstanding.
    pending_acks: u32,
}

/// What a packet in flight means to the protocol — attached to the
/// network's packet keys through a [`SideTable`], so delivery handling is
/// one array access instead of probing three hash maps.
#[derive(Debug, Clone, Copy)]
enum PacketRole {
    /// A core's request travelling to its home LLC bank.
    Request(Key),
    /// A directory snoop travelling to a sharer/owner core.
    Snoop(Key),
    /// A snoop acknowledgement returning to the directory.
    SnoopAck(Key),
    /// The final data/instruction response returning to the core.
    Data {
        core: u32,
        fetch: bool,
        issued_at: u64,
    },
}

/// Per-transaction causal-tracing state, boxed behind an `Option` like
/// [`FaultState`]: `None` (the default) keeps every hot path on its
/// untraced branch and exports no `sim.txn.*` keys, so an untraced run
/// is byte-identical to one built before tracing existed.
///
/// Transaction ids come from a monotonic issue counter — issue order is
/// already part of the engine's semantics (it decides packet ids), so
/// ids and the `id % sample_every == 0` sampling decision are
/// bit-deterministic and identical between the event-driven and
/// reference engines.
#[derive(Debug, Clone)]
struct TxnTraceState {
    /// Trace every `sample_every`-th transaction (1 = all).
    sample_every: u64,
    /// Transactions issued so far; the next transaction's id.
    issued: u64,
    /// Sampled transactions in flight, keyed by open-request key.
    live: SideTable<TxnLive>,
    /// Sampled transactions whose response is in the NOC, keyed by the
    /// response packet id ([`PacketRole::Data`] carries no request key).
    resp: SideTable<TxnLive>,
    /// Per-stage span histograms for the current window.
    stats: TxnStats,
}

/// One sampled transaction's accumulated hop spans. Spans are staged
/// here and recorded into [`TxnStats`] only at completion, so the
/// exported histograms contain whole transactions exclusively — which
/// makes per-stage sums equal `sim.txn.total`'s sum *exactly*, even for
/// transactions straddling a measurement-window boundary.
#[derive(Debug, Clone, Copy)]
struct TxnLive {
    id: u64,
    /// Cycle of the previous causal hand-off; every hop records
    /// `now - last` and advances it, so spans tile the transaction's
    /// lifetime with no gaps or overlaps.
    last: u64,
    /// Span cycles per stage (NOC stages accumulate across the request
    /// and response packets).
    spans: [u64; STAGES],
    /// Bitmask of stages this transaction actually visited.
    visited: u8,
}

impl TxnLive {
    fn new(id: u64, issued_at: u64) -> Self {
        TxnLive {
            id,
            last: issued_at,
            spans: [0; STAGES],
            visited: 0,
        }
    }

    fn add(&mut self, stage: Stage, span: u64) {
        self.spans[stage as usize] += span;
        self.visited |= 1 << (stage as usize);
    }
}

/// Emits one hop span into the lifecycle event log (when tracing is on)
/// on the owning component's track, tagged with the transaction id.
fn hop_event(
    events: &mut Option<EventLog>,
    stage: Stage,
    id: u64,
    start: u64,
    dur: u64,
    track: u64,
) {
    if let Some(log) = events {
        log.record(sop_obs::Event {
            ts: start,
            dur: Some(dur),
            name: stage.key(),
            cat: "txn.hop",
            track,
            args: vec![("txn", id)],
        });
    }
}

/// A transaction completion event. Ties break on the transaction key:
/// transaction keys are allocated in request-issue order, which is also
/// the order request packet ids used to supply here — so heap pop order
/// is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    due: u64,
    txn: Key,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due).then(other.txn.cmp(&self.txn))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Where a machine built from `cfg` on `topo` runs its threads, and how
/// many LLC banks it has: `(active physical cores, bank count)`. The
/// machine keys its warm-up on what this returned when it was built;
/// [`SimConfig::warm_key`] calls it to name that key without a machine.
pub(crate) fn layout(cfg: &SimConfig, topo: &Topology) -> (Vec<u32>, usize) {
    // Pick the active cores closest to the LLC: the thesis places
    // 16-core workloads on the central mesh tiles and on the core
    // tiles adjacent to the LLC row in NOC-Out (§4.3.3). Rank cores by
    // mean zero-load latency to the LLC endpoints.
    let mut ranked: Vec<(u64, u32)> = topo
        .core_nodes
        .iter()
        .enumerate()
        .map(|(core, &node)| {
            let sum: u64 = topo
                .llc_nodes
                .iter()
                .map(|&l| {
                    if l == node {
                        0
                    } else {
                        u64::from(topo.zero_load_latency(node, l))
                    }
                })
                .sum();
            (sum, core as u32)
        })
        .collect();
    ranked.sort();
    let mut active: Vec<u32> = ranked[..cfg.active_cores as usize]
        .iter()
        .map(|&(_, c)| c)
        .collect();
    active.sort_unstable();
    // Two banks per NOC-Out LLC tile (Table 4.1), one per tile/endpoint
    // elsewhere.
    let nocout = cfg.noc.topology == TopologyKind::NocOut;
    (active, topo.llc_nodes.len() * if nocout { 2 } else { 1 })
}

/// A line's home among `n` banks. The mask dodges a hardware divide on
/// the warm-up and request hot paths (bank counts are usually powers of
/// two); the value is the same either way.
pub(crate) fn home_bank(line: LineAddr, n: usize) -> usize {
    let h = (line.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 29) as usize;
    if n.is_power_of_two() {
        h & (n - 1)
    } else {
        h % n
    }
}

/// A runnable machine instance.
#[derive(Debug)]
pub struct Machine {
    cfg: SimConfig,
    net: Network,
    cores: Vec<SimCore>,
    /// Which cores run threads (indices into `cores`).
    active: Vec<u32>,
    banks: Vec<LlcBank>,
    bank_free_at: Vec<u64>,
    bank_latency: u64,
    mcs: Vec<MemoryController>,
    /// Open transactions, from request issue to response injection.
    txns: Slab<OpenRequest>,
    /// Protocol role of every packet in flight, keyed by packet id. The
    /// network's deferred slot reclaim guarantees a delivered packet's
    /// index is not reissued until the next step, after its role entry is
    /// gone — so index-keyed storage cannot alias.
    roles: SideTable<PacketRole>,
    /// Bank pipeline completion events.
    bank_events: BinaryHeap<Scheduled>,
    /// Memory completion events.
    mem_events: BinaryHeap<Scheduled>,
    /// Next cycle each thread's core must be polled (`u64::MAX` while a
    /// core is blocked and only a response delivery can unblock it).
    core_next_poll: Vec<u64>,
    /// Step every cycle and sweep every router, bypassing all event-driven
    /// shortcuts: the reference semantics the fast path must match.
    reference: bool,
    cycle: u64,
    memory_lines: u64,
    request_latency: Histogram,
    /// Per-thread private L1 data caches (coherence state only: snoops
    /// must find real lines, and finite capacity drops stale sharers).
    l1s: Vec<L1Cache>,
    warmed: bool,
    /// Fault-injection state; `None` (always, for an empty plan) keeps
    /// every hot path on its fault-free branch.
    faults: Option<Box<FaultState>>,
    /// Cumulative named metrics across all measurement windows.
    registry: Registry,
    /// Optional transaction-lifecycle trace (off by default: recording
    /// is allocation-free but still costs a branch per protocol step).
    events: Option<EventLog>,
    /// Per-transaction causal tracing; `None` (the default) keeps every
    /// hot path on its untraced branch and exports no `sim.txn.*` keys.
    txn_trace: Option<Box<TxnTraceState>>,
    /// Host-side self-profiling; `None` (the default) keeps every hot
    /// path on its unprofiled branch — no clock reads — and exports no
    /// `prof.*` keys.
    prof: Option<Box<Prof>>,
}

impl Machine {
    /// Builds the machine for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `active_cores` exceeds `cores`.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.active_cores <= cfg.cores, "more threads than cores");
        let net = Network::new(cfg.noc);
        let profile = WorkloadProfile::of(cfg.workload);
        let (active, n_banks) = layout(&cfg, net.topology());
        // Only active cores execute; their trace identities are contiguous
        // regardless of which physical tiles they occupy.
        let cores = (0..cfg.active_cores)
            .map(|thread| {
                SimCore::new(TraceConfig {
                    profile,
                    core_kind: cfg.core_kind,
                    core_id: thread,
                    total_cores: cfg.active_cores.max(1),
                    seed: cfg.seed,
                })
            })
            .collect();
        let bank_bytes = (cfg.llc_mb * 1024.0 * 1024.0 / n_banks as f64) as u64;
        let banks = (0..n_banks).map(|_| LlcBank::new(bank_bytes, 16)).collect();
        let bank_latency =
            u64::from(CacheGeometry::new().bank_latency_cycles(cfg.llc_mb / n_banks as f64));
        let mcs = (0..cfg.memory_channels)
            .map(|_| match cfg.node.memory_gen() {
                sop_tech::MemoryGen::Ddr3 => MemoryController::ddr3_at_2ghz(),
                sop_tech::MemoryGen::Ddr4 => MemoryController::ddr4_at_2ghz(),
            })
            .collect();
        Machine {
            cfg,
            net,
            cores,
            active,
            banks,
            bank_free_at: vec![0; n_banks],
            bank_latency,
            mcs,
            txns: Slab::new(),
            roles: SideTable::new(),
            bank_events: BinaryHeap::new(),
            mem_events: BinaryHeap::new(),
            core_next_poll: vec![0; cfg.active_cores as usize],
            reference: false,
            cycle: 0,
            memory_lines: 0,
            request_latency: Histogram::new(),
            l1s: {
                let ua = cfg.core_kind.microarch();
                (0..cfg.active_cores)
                    .map(|_| L1Cache::new(ua.l1d_kb, 2))
                    .collect()
            },
            warmed: false,
            faults: None,
            registry: Registry::new(),
            events: None,
            txn_trace: None,
            prof: None,
        }
    }

    /// Arms a deterministic fault schedule. Faults are applied at their
    /// cycles behind quiesce barriers (issue freezes, in-flight work
    /// drains, the fault lands on an idle fabric), which keeps the run
    /// bit-deterministic and identical between the event-driven and
    /// reference engines. An empty plan stores nothing: the machine is
    /// byte-identical to one that never saw a plan.
    ///
    /// Component ids: routers/links use NOC node ids ([`sop_fault::
    /// link_id`] packs links), LLC banks and memory channels their
    /// machine indices, cores *physical* core ids (faults on inactive
    /// cores are no-ops).
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            self.faults = None;
            return;
        }
        self.faults = Some(Box::new(FaultState {
            pending: plan.faults().iter().copied().collect(),
            restores: Vec::new(),
            quiescing: false,
            online: vec![true; self.cores.len()],
            bank_live: vec![true; self.banks.len()],
            bank_map: None,
            bank_latency: vec![self.bank_latency; self.banks.len()],
            live_channels: (0..self.mcs.len()).collect(),
            halted: None,
            quiesce_cycles: 0,
            applied: 0,
            routers_dead: 0,
            routers_degraded: 0,
            links_dead: 0,
            links_degraded: 0,
            links_restored: 0,
            banks_dead: 0,
            banks_degraded: 0,
            channels_dead: 0,
            channels_degraded: 0,
            cores_offline: 0,
            llc_lines_invalidated: 0,
        }));
    }

    /// Why the machine stopped early, if it did.
    pub fn halted(&self) -> Option<HaltReason> {
        self.faults.as_ref().and_then(|f| f.halted)
    }

    /// Number of NOC routers in the fabric — the victim universe for
    /// seeded router-death plans ([`FaultPlan::seeded_router_deaths`]).
    pub fn router_count(&self) -> u32 {
        self.net.topology().len() as u32
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Turns on transaction-lifecycle tracing into a ring buffer of
    /// `capacity` events (issue → LLC → snoop → memory → retire). Export
    /// the result with [`event_log`](Self::event_log) and
    /// [`sop_obs::EventLog::to_chrome_trace`].
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.events = Some(EventLog::new(capacity));
    }

    /// The event log, if tracing was enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// Arms per-transaction causal tracing: every `sample_every`-th L1
    /// miss (deterministically, by issue order) has each hop of its life
    /// timed — NOC inject/route/eject, bank queue/service, directory
    /// indirection, memory channel queue/service — and aggregated into
    /// `sim.txn.*` histograms in [`metrics`](Self::metrics). With
    /// lifecycle tracing also on ([`enable_tracing`](Self::enable_tracing)),
    /// each hop additionally lands in the event log on its component's
    /// track. Tracing observes the simulation without perturbing it:
    /// every other metric is bit-identical to an untraced run.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` is zero.
    pub fn enable_txn_tracing(&mut self, sample_every: u64) {
        assert!(sample_every > 0, "sample period must be at least 1");
        self.net.enable_packet_tracing();
        self.txn_trace = Some(Box::new(TxnTraceState {
            sample_every,
            issued: 0,
            live: SideTable::new(),
            resp: SideTable::new(),
            stats: TxnStats::new(),
        }));
    }

    /// Per-stage transaction span histograms for the current window, if
    /// tracing is armed.
    pub fn txn_stats(&self) -> Option<&TxnStats> {
        self.txn_trace.as_ref().map(|t| &t.stats)
    }

    /// Arms host-side self-profiling of the engine hot path. Scoped
    /// timers attribute `Machine::advance` wall time to the disjoint
    /// tick phases — NOC step, delivery/directory handling, LLC bank
    /// service, memory returns, core issue — plus the event scheduler's
    /// next-event computation, exported as `prof.*` counters in
    /// [`metrics`](Self::metrics) (see [`sop_obs::prof`]). Profiling
    /// reads clocks and nothing else: simulated results stay
    /// bit-identical to an unprofiled run, and a machine that never
    /// arms it pays only a dead `Option` branch per region.
    pub fn enable_profiling(&mut self) {
        self.prof = Some(Box::new(Prof::new()));
    }

    /// The live host-time profile accumulated since the last window
    /// export, if profiling is armed.
    pub fn host_prof(&self) -> Option<&Prof> {
        self.prof.as_deref()
    }

    /// Named metrics accumulated over every window run so far.
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Switches between the event-driven engine (default) and the
    /// exhaustive reference semantics: stepping every cycle, sweeping
    /// every router, polling every core. The two are bit-identical by
    /// construction; the reference mode exists so equivalence tests can
    /// prove it rather than assume it.
    pub fn set_reference_mode(&mut self, reference: bool) {
        self.reference = reference;
    }

    fn bank_of(&self, line: LineAddr) -> usize {
        // After a bank death the same hash lands in the power-of-two
        // remap over the surviving banks instead.
        match self.faults.as_ref().and_then(|f| f.bank_map.as_ref()) {
            Some(map) => map[home_bank(line, map.len())],
            None => home_bank(line, self.banks.len()),
        }
    }

    fn llc_node_of_bank(&self, bank: usize) -> usize {
        let per = if self.cfg.noc.topology == TopologyKind::NocOut {
            2
        } else {
            1
        };
        self.net.llc_endpoints()[bank / per]
    }

    fn core_node(&self, core: u32) -> usize {
        self.net.core_endpoints()[core as usize]
    }

    fn thread_of(&self, physical: u32) -> usize {
        self.active
            .iter()
            .position(|&p| p == physical)
            .expect("responses only target active cores")
    }

    fn issue_request(&mut self, core: u32, req: CoreRequest, now: u64) {
        let bank = self.bank_of(req.line);
        let src = self.core_node(core);
        let dst = self.llc_node_of_bank(bank);
        if let Some(log) = &mut self.events {
            log.instant(
                now,
                if req.fetch {
                    "fetch_issue"
                } else {
                    "data_issue"
                },
                "core",
                u64::from(core),
            );
        }
        let packet = self.net.inject(src, dst, MessageClass::Request, now);
        let txn = self.txns.insert(OpenRequest {
            core,
            line: req.line,
            write: req.write,
            fetch: req.fetch,
            bank,
            issued_at: now,
            pending_acks: 0,
        });
        self.roles.insert(packet, PacketRole::Request(txn));
        if let Some(ts) = &mut self.txn_trace {
            let id = ts.issued;
            ts.issued += 1;
            if id % ts.sample_every == 0 {
                ts.live.insert(txn, TxnLive::new(id, now));
                self.net.trace_packet(packet);
            }
        }
    }

    fn respond(&mut self, txn: Key, now: u64) {
        let open = self.txns.remove(txn).expect("open request");
        // Fill the requester's private L1 (instruction fetches go to the
        // L1-I, which we do not track for coherence).
        if !open.fetch {
            let thread = self.thread_of(open.core);
            self.l1s[thread].fill(open.line, open.write);
        }
        let src = self.llc_node_of_bank(open.bank);
        let dst = self.core_node(open.core);
        let resp = self.net.inject(src, dst, MessageClass::Response, now);
        self.roles.insert(
            resp,
            PacketRole::Data {
                core: open.core,
                fetch: open.fetch,
                issued_at: open.issued_at,
            },
        );
        if let Some(ts) = &mut self.txn_trace {
            // Re-key a sampled transaction's state from the (now
            // retired) request key to its response packet, and time the
            // response's trip through the NOC too.
            if let Some(l) = ts.live.remove(txn) {
                debug_assert_eq!(l.last, now, "causal hand-offs must be contiguous");
                self.net.trace_packet(resp);
                ts.resp.insert(resp, l);
            }
        }
    }

    /// Runs `warmup` cycles, resets statistics, then runs `measure`
    /// cycles and reports results. Before the timed warm-up the LLC and
    /// directory are *functionally* warmed from the same traces — the
    /// warmed-checkpoint methodology of SimFlex (§3.3) — so steady-state
    /// hit rates are reached without simulating millions of cold cycles.
    pub fn run(mut self, warmup: u64, measure: u64) -> SimResult {
        self.run_window(warmup, measure)
    }

    /// Runs one measurement window without consuming the machine: warms
    /// functionally on first use, advances `warmup` timed cycles, then
    /// measures `measure` cycles. Calling this repeatedly yields the
    /// SimFlex sampling pattern — consecutive windows drawn over one long
    /// execution (§3.3).
    pub fn run_window(&mut self, warmup: u64, measure: u64) -> SimResult {
        if !self.warmed {
            let key = WarmKey::new(&self.cfg, &self.active, self.banks.len());
            warm(&key, &mut self.banks, &mut self.cores);
            self.warmed = true;
        }
        self.advance(warmup);
        for bank in &mut self.banks {
            bank.reset_stats();
        }
        for core in &mut self.cores {
            core.reset_stats();
        }
        for mc in &mut self.mcs {
            mc.reset_stats();
        }
        for l1 in &mut self.l1s {
            l1.reset_stats();
        }
        self.memory_lines = 0;
        self.request_latency = Histogram::new();
        if let Some(ts) = &mut self.txn_trace {
            ts.stats.reset();
        }
        let before_packets = self.net.counters();
        self.advance(measure);
        let noc = self.net.counters().delta_since(&before_packets);
        let instructions = self.cores.iter().map(SimCore::committed).sum();

        // Publish every component's counters into one named-metric map for
        // the window; the cumulative machine registry merges each window.
        let mut window = Registry::new();
        window.counter_add("sim.cycles", measure);
        window.counter_add("sim.instructions", instructions);
        for (i, bank) in self.banks.iter().enumerate() {
            bank.export_metrics(&mut window, &format!("sim.llc.bank{i}."));
        }
        for l1 in &self.l1s {
            l1.export_metrics(&mut window, "sim.l1.");
        }
        for (i, mc) in self.mcs.iter().enumerate() {
            mc.export_metrics(&mut window, &format!("mem.chan{i}."));
        }
        window.counter_add("mem.lines", self.memory_lines);
        noc.export_metrics(&mut window, "noc.");
        let merged = window.histogram_merge("sim.request_latency", &self.request_latency);
        debug_assert!(merged.is_ok(), "{merged:?}");
        // Degradation bookkeeping appears only when a plan is armed, so
        // empty-plan reports stay byte-identical to fault-free ones.
        if let Some(f) = &self.faults {
            f.export(&mut window);
        }
        // Likewise, sim.txn.* appears only while transaction tracing is
        // armed: untraced reports are byte-identical to pre-tracing ones.
        if let Some(ts) = &self.txn_trace {
            ts.stats.export(&mut window);
            window.counter_add("sim.txn.sampled", ts.stats.completed());
            window.gauge_set("sim.txn.sample_every", ts.sample_every as f64);
        }
        // Host self-profiling too: prof.* keys exist only when armed.
        // Export-and-reset keeps the additive counters window-scoped, so
        // the cumulative registry never double-counts.
        if let Some(p) = &mut self.prof {
            p.export(&mut window);
            p.reset();
        }
        self.registry.merge(&window);

        SimResult {
            cycles: measure,
            instructions,
            l1_invalidations: window.counter("sim.l1.invalidations"),
            llc_accesses: window.sum_counters_matching("sim.llc.", ".accesses"),
            llc_misses: window.sum_counters_matching("sim.llc.", ".misses"),
            snoops: window.sum_counters_matching("sim.llc.", ".snoops"),
            memory_lines: self.memory_lines,
            mean_packet_latency: noc.mean_latency(),
            request_latency: self.request_latency.clone(),
            noc_flit_hops: noc.flit_hops,
            noc_flit_mm: noc.flit_mm,
            active_cores: self.cfg.active_cores,
            halted: self.halted(),
            metrics: window,
        }
    }

    /// Advances simulated time by `cycles`.
    ///
    /// The event-driven engine only executes a tick when something can
    /// happen, then jumps straight to the next interesting cycle — the
    /// minimum over the network's next event, the pending bank/memory
    /// completions, and each core's next required poll. Every skipped
    /// cycle is one where the per-cycle reference tick would have done
    /// nothing, so results are bit-identical to stepping every cycle
    /// (and the equivalence tests hold both engines to that).
    fn advance(&mut self, cycles: u64) {
        // When profiling is armed, the whole call is timed: this is the
        // denominator the per-component self-times are shares of.
        let t0 = self.prof.as_ref().map(|_| std::time::Instant::now());
        self.advance_inner(cycles);
        if let Some(p) = self.prof.as_deref_mut() {
            p.record_advance(t0.expect("armed").elapsed(), cycles);
        }
    }

    fn advance_inner(&mut self, cycles: u64) {
        let end = self.cycle + cycles;
        if self.faults.is_none() {
            return self.advance_plain(end);
        }
        // Fault path: run normally between fault cycles; at each one,
        // quiesce, apply everything due, and continue on the degraded
        // machine. A halt pins the clock to the end of the window so the
        // caller gets a structured result instead of a hang.
        while self.cycle < end {
            if self.faults.as_ref().is_some_and(|f| f.halted.is_some()) {
                self.cycle = end;
                return;
            }
            match self.next_fault_cycle() {
                Some(due) if due <= end => {
                    if due > self.cycle {
                        self.advance_plain(due);
                    }
                    self.quiesce_and_apply();
                }
                _ => self.advance_plain(end),
            }
        }
    }

    /// [`advance`](Self::advance) without fault barriers, to an absolute
    /// end cycle.
    fn advance_plain(&mut self, end: u64) {
        if self.reference {
            while self.cycle < end {
                let now = self.cycle;
                self.tick(now, true);
                self.cycle += 1;
            }
            return;
        }
        while self.cycle < end {
            let now = self.cycle;
            self.tick(now, false);
            self.cycle = self.next_event(now, end);
        }
    }

    /// The next cycle anything can happen, clamped to `(now, end]` — the
    /// minimum over the network's next event, pending bank/memory
    /// completions, and each core's next required poll.
    fn next_event(&mut self, now: u64, end: u64) -> u64 {
        let t = RegionTimer::start(self.prof.is_some());
        let mut next = end;
        if let Some(c) = self.net.next_event_cycle() {
            next = next.min(c);
        }
        if let Some(e) = self.bank_events.peek() {
            next = next.min(e.due);
        }
        if let Some(e) = self.mem_events.peek() {
            next = next.min(e.due);
        }
        for &c in &self.core_next_poll {
            next = next.min(c);
        }
        t.stop(&mut self.prof, HostComponent::NextEvent);
        next.clamp(now + 1, end)
    }

    /// The earliest cycle at which a pending fault (or intermittent-link
    /// restore) is due. Fault path only.
    fn next_fault_cycle(&self) -> Option<u64> {
        let f = self.faults.as_ref().expect("fault path");
        let fault = f.pending.front().map(|fa| fa.cycle);
        let restore = f.restores.first().map(|&(c, _)| c);
        match (fault, restore) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether no transaction, packet, or scheduled completion is in
    /// flight anywhere in the machine.
    fn is_drained(&self) -> bool {
        self.txns.is_empty()
            && self.net.in_flight() == 0
            && self.bank_events.is_empty()
            && self.mem_events.is_empty()
    }

    /// Freezes issue, drains every in-flight transaction (per-cycle
    /// stepping, exact in both engines), then applies everything due on
    /// the now-idle machine and re-checks core↔bank reachability.
    fn quiesce_and_apply(&mut self) {
        self.faults.as_mut().expect("fault path").quiescing = true;
        let start = self.cycle;
        while !self.is_drained() {
            let now = self.cycle;
            self.tick(now, self.reference);
            self.cycle += 1;
            assert!(
                self.cycle - start < 10_000_000,
                "quiesce failed to drain by cycle {}",
                self.cycle
            );
        }
        let mut f = self.faults.take().expect("fault path");
        f.quiescing = false;
        f.quiesce_cycles += self.cycle - start;
        let now = self.cycle;
        while f.restores.first().is_some_and(|&(c, _)| c <= now) {
            let (_, link) = f.restores.remove(0);
            let (node, port) = sop_fault::split_link_id(link);
            self.net.restore_link(node as usize, port as usize);
            f.links_restored += 1;
        }
        while f.pending.front().is_some_and(|fa| fa.cycle <= now) {
            let fault = f.pending.pop_front().expect("peeked");
            self.apply_one(&mut f, fault, now);
        }
        self.check_connectivity(&mut f);
        self.faults = Some(f);
    }

    /// Applies one fault to the idle machine. `f` is detached from
    /// `self.faults` for the duration (the machine is not ticking).
    fn apply_one(&mut self, f: &mut FaultState, fault: Fault, now: u64) {
        f.applied += 1;
        match fault.component {
            ComponentKind::Router => {
                let node = fault.id as usize;
                assert!(node < self.net.topology().len(), "router id out of range");
                match fault.mode {
                    FaultMode::Dead => {
                        if self.net.router_is_dead(node) {
                            return;
                        }
                        self.net.fail_router(node);
                        f.routers_dead += 1;
                        // A tile's router carries its core and its LLC
                        // slice with it.
                        for t in 0..self.active.len() {
                            if self.core_node(self.active[t]) == node {
                                Self::offline_thread(f, &mut self.core_next_poll, t);
                            }
                        }
                        let colocated: Vec<usize> = (0..self.banks.len())
                            .filter(|&b| self.llc_node_of_bank(b) == node)
                            .collect();
                        for bank in colocated {
                            self.kill_bank(f, bank);
                        }
                    }
                    // Degraded (or flaky) router: +2 pipeline stages;
                    // routing detours around it where cheaper paths exist.
                    FaultMode::Degraded | FaultMode::Intermittent { .. } => {
                        self.net.degrade_router(node);
                        f.routers_degraded += 1;
                    }
                }
            }
            ComponentKind::Link => {
                let (node, port) = sop_fault::split_link_id(fault.id);
                let (node, port) = (node as usize, port as usize);
                match fault.mode {
                    FaultMode::Dead => {
                        self.net.fail_link(node, port);
                        f.links_dead += 1;
                    }
                    FaultMode::Intermittent { down_cycles } => {
                        self.net.fail_link(node, port);
                        f.links_dead += 1;
                        f.restores.push((now + down_cycles.max(1), fault.id));
                        f.restores.sort_unstable();
                    }
                    FaultMode::Degraded => {
                        self.net.degrade_link(node, port);
                        f.links_degraded += 1;
                    }
                }
            }
            ComponentKind::LlcBank => {
                let bank = fault.id as usize;
                assert!(bank < self.banks.len(), "bank id out of range");
                match fault.mode {
                    FaultMode::Dead => self.kill_bank(f, bank),
                    FaultMode::Degraded | FaultMode::Intermittent { .. } => {
                        f.bank_latency[bank] = f.bank_latency[bank].saturating_mul(2);
                        f.banks_degraded += 1;
                    }
                }
            }
            ComponentKind::MemChannel => {
                let ch = fault.id as usize;
                assert!(ch < self.mcs.len(), "memory channel id out of range");
                match fault.mode {
                    FaultMode::Dead => {
                        if f.live_channels.contains(&ch) {
                            f.live_channels.retain(|&c| c != ch);
                            f.channels_dead += 1;
                            if f.live_channels.is_empty() {
                                f.halted.get_or_insert(HaltReason::NoMemory);
                            }
                        }
                    }
                    FaultMode::Degraded | FaultMode::Intermittent { .. } => {
                        self.mcs[ch].degrade();
                        f.channels_degraded += 1;
                    }
                }
            }
            // The trace-driven core has no partial-speed mode, so a
            // degraded core is treated as dead. Ids are physical; faults
            // on inactive cores are no-ops.
            ComponentKind::Core => {
                if let Some(t) = self.active.iter().position(|&p| p == fault.id) {
                    Self::offline_thread(f, &mut self.core_next_poll, t);
                }
            }
        }
        if f.online.iter().all(|&o| !o) {
            f.halted.get_or_insert(HaltReason::NoCores);
        }
    }

    fn offline_thread(f: &mut FaultState, polls: &mut [u64], t: usize) {
        if f.online[t] {
            f.online[t] = false;
            f.cores_offline += 1;
            polls[t] = u64::MAX;
        }
    }

    /// Removes a bank: the surviving banks shrink to a power-of-two
    /// remap (so the line hash stays a mask), and every bank's warm
    /// contents are invalidated — the remap reassigns nearly every
    /// line's home, so stale state must not serve wrong-home hits.
    fn kill_bank(&mut self, f: &mut FaultState, bank: usize) {
        if !f.bank_live[bank] {
            return;
        }
        f.bank_live[bank] = false;
        f.banks_dead += 1;
        let live: Vec<usize> = f
            .bank_live
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l)
            .map(|(b, _)| b)
            .collect();
        if live.is_empty() {
            f.bank_map = None;
            f.halted.get_or_insert(HaltReason::NoLlc);
            return;
        }
        let pow2 = 1usize << live.len().ilog2();
        f.bank_map = Some(live[..pow2].to_vec());
        for bank in &mut self.banks {
            f.llc_lines_invalidated += bank.clear();
        }
    }

    /// Halts with [`HaltReason::Partition`] if any online core and any
    /// traffic-bearing live bank can no longer reach each other.
    fn check_connectivity(&mut self, f: &mut FaultState) {
        if f.halted.is_some() {
            return;
        }
        let topo = self.net.topology();
        for (t, &online) in f.online.iter().enumerate() {
            if !online {
                continue;
            }
            let core_node = self.net.core_endpoints()[self.active[t] as usize];
            for (bank, &live) in f.bank_live.iter().enumerate() {
                if !live {
                    continue;
                }
                // Banks outside the remap receive no traffic.
                if let Some(map) = &f.bank_map {
                    if !map.contains(&bank) {
                        continue;
                    }
                }
                let bank_node = self.llc_node_of_bank(bank);
                if !(topo.routes(core_node, bank_node) && topo.routes(bank_node, core_node)) {
                    f.halted = Some(HaltReason::Partition);
                    return;
                }
            }
        }
    }

    /// One simulation cycle, in the reference phase order: network
    /// deliveries, bank completions, memory returns, core issue. With
    /// `full` the network sweeps every router and every core is polled
    /// (the reference semantics); otherwise only active routers and
    /// cores whose poll is due run.
    fn tick(&mut self, now: u64, full: bool) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.tick();
        }
        // 1. Network deliveries. The switch-allocation sweep (route,
        // eject, credit returns) is charged to the NOC; handling what it
        // delivered — protocol dispatch at the directory, bank
        // scheduling, snoop fan-out — is charged to the directory. The
        // four phases are sequential, so one chained mark per boundary
        // both halves the clock reads and leaves no unattributed gap
        // between phases.
        let mut mark = PhaseMark::start(self.prof.is_some());
        let delivered = if full {
            self.net.step_full(now)
        } else {
            self.net.step(now)
        };
        mark.lap(&mut self.prof, HostComponent::Noc);
        for d in delivered {
            self.handle_delivered(d, now);
        }
        mark.lap(&mut self.prof, HostComponent::Directory);
        // 2. Bank accesses completing.
        self.pop_bank_events(now);
        mark.lap(&mut self.prof, HostComponent::LlcBank);
        // 3. Memory returns.
        self.pop_mem_events(now);
        mark.lap(&mut self.prof, HostComponent::Mem);
        // 4. Cores issue, in ascending thread order (injection order
        // decides packet ids, so the order is part of the semantics).
        // Skipped cores are exactly those whose poll would return None
        // without side effects — see `SimCore::next_poll_cycle`.
        for t in 0..self.active.len() {
            if !full && self.core_next_poll[t] > now {
                continue;
            }
            // Quiesce barriers freeze issue; offline cores never resume
            // (their poll is also pinned to u64::MAX for the fast path,
            // but reference mode polls unconditionally and needs this).
            if let Some(f) = &self.faults {
                if f.quiescing || !f.online[t] {
                    continue;
                }
            }
            if let Some(req) = self.cores[t].poll(now) {
                let physical = self.active[t];
                self.issue_request(physical, req, now);
            }
            self.core_next_poll[t] = self.cores[t].next_poll_cycle(now).unwrap_or(u64::MAX);
        }
        mark.lap(&mut self.prof, HostComponent::Core);
    }

    /// Protocol dispatch for one delivered packet, charged to the
    /// directory phase: requests schedule bank accesses, snoops
    /// invalidate L1s and acknowledge, acknowledgements count down
    /// toward the response, data retires at the issuing core.
    fn handle_delivered(&mut self, d: Delivered, now: u64) {
        match self.roles.remove(d.packet).expect("packet has a role") {
            PacketRole::Request(txn) => {
                // Arrived at the home bank: start the array access
                // when the bank pipeline has a slot.
                let open = *self.txns.get(txn).expect("open request");
                let bank = open.bank;
                let start = now.max(self.bank_free_at[bank]);
                // Initiation interval of 2 cycles per bank.
                self.bank_free_at[bank] = start + 2;
                let latency = match &self.faults {
                    Some(f) => f.bank_latency[bank],
                    None => self.bank_latency,
                };
                self.bank_events.push(Scheduled {
                    due: start + latency,
                    txn,
                });
                if let Some(ts) = &mut self.txn_trace {
                    if let Some(l) = ts.live.get_mut(txn) {
                        let s = self
                            .net
                            .take_packet_trace(&d)
                            .expect("sampled request packet is traced");
                        let core = u64::from(open.core);
                        let t0 = l.last;
                        l.add(Stage::NocInject, s.inject);
                        l.add(Stage::NocRoute, s.route);
                        l.add(Stage::NocEject, s.eject);
                        hop_event(&mut self.events, Stage::NocInject, l.id, t0, s.inject, core);
                        hop_event(
                            &mut self.events,
                            Stage::NocRoute,
                            l.id,
                            t0 + s.inject,
                            s.route,
                            core,
                        );
                        hop_event(
                            &mut self.events,
                            Stage::NocEject,
                            l.id,
                            t0 + s.inject + s.route,
                            s.eject,
                            core,
                        );
                        // Armed runs only, so release builds check the
                        // hop tiling and disarmed runs pay nothing.
                        assert_eq!(
                            t0 + s.inject + s.route + s.eject,
                            now,
                            "request hop spans must tile its network time"
                        );
                        // Bank queueing and service are fully
                        // determined at arrival; account them now.
                        l.add(Stage::BankQueue, start - now);
                        l.add(Stage::BankService, latency);
                        hop_event(
                            &mut self.events,
                            Stage::BankQueue,
                            l.id,
                            now,
                            start - now,
                            bank as u64,
                        );
                        hop_event(
                            &mut self.events,
                            Stage::BankService,
                            l.id,
                            start,
                            latency,
                            bank as u64,
                        );
                        l.last = start + latency;
                    }
                }
            }
            PacketRole::Snoop(txn) => {
                // Arrived at a core: invalidate the line in its L1
                // and acknowledge.
                if let Some(open) = self.txns.get(txn) {
                    let line = open.line;
                    // Map the snooped node back to a thread.
                    if let Some(t) = self.active.iter().position(|&p| self.core_node(p) == d.dst) {
                        self.l1s[t].snoop_invalidate(line);
                    }
                }
                let ack = self.net.inject(d.dst, d.src, MessageClass::Response, now);
                self.roles.insert(ack, PacketRole::SnoopAck(txn));
            }
            PacketRole::SnoopAck(txn) => {
                // A snoop acknowledgement back at the directory.
                let open = self.txns.get_mut(txn).expect("parent open");
                open.pending_acks -= 1;
                if open.pending_acks == 0 {
                    let bank = open.bank;
                    if let Some(ts) = &mut self.txn_trace {
                        // The directory span covers the whole snoop
                        // round trip: bank done → last ack back.
                        // (Snoop packets themselves are not
                        // NOC-traced — their time lives here, so
                        // nothing is double-counted.)
                        if let Some(l) = ts.live.get_mut(txn) {
                            let span = now - l.last;
                            l.add(Stage::Directory, span);
                            hop_event(
                                &mut self.events,
                                Stage::Directory,
                                l.id,
                                l.last,
                                span,
                                bank as u64,
                            );
                            l.last = now;
                        }
                    }
                    self.respond(txn, now);
                }
            }
            PacketRole::Data {
                core,
                fetch,
                issued_at,
            } => {
                self.request_latency.record(now - issued_at);
                if let Some(ts) = &mut self.txn_trace {
                    if let Some(mut l) = ts.resp.remove(d.packet) {
                        let s = self
                            .net
                            .take_packet_trace(&d)
                            .expect("sampled response packet is traced");
                        let track = u64::from(core);
                        let t0 = l.last;
                        l.add(Stage::NocInject, s.inject);
                        l.add(Stage::NocRoute, s.route);
                        l.add(Stage::NocEject, s.eject);
                        hop_event(
                            &mut self.events,
                            Stage::NocInject,
                            l.id,
                            t0,
                            s.inject,
                            track,
                        );
                        hop_event(
                            &mut self.events,
                            Stage::NocRoute,
                            l.id,
                            t0 + s.inject,
                            s.route,
                            track,
                        );
                        hop_event(
                            &mut self.events,
                            Stage::NocEject,
                            l.id,
                            t0 + s.inject + s.route,
                            s.eject,
                            track,
                        );
                        // The transaction is whole: its spans tile
                        // [issued_at, now] exactly, so committing
                        // them with the total keeps per-stage sums
                        // equal to sim.txn.total's sum. Checked in
                        // release builds too: only armed runs get here.
                        assert_eq!(
                            l.spans.iter().sum::<u64>(),
                            now - issued_at,
                            "transaction spans must tile issue to retire"
                        );
                        for stage in Stage::ALL {
                            if l.visited & (1 << (stage as usize)) != 0 {
                                ts.stats.record(stage, l.spans[stage as usize]);
                            }
                        }
                        ts.stats.record_total(now - issued_at);
                    }
                }
                if let Some(log) = &mut self.events {
                    // One Chrome-trace slice per completed
                    // transaction, spanning issue to retire on
                    // the issuing core's track.
                    log.record(sop_obs::Event {
                        ts: issued_at,
                        dur: Some(now - issued_at),
                        name: if fetch { "fetch" } else { "data" },
                        cat: "txn",
                        track: u64::from(core),
                        args: Vec::new(),
                    });
                }
                let thread = self.thread_of(core);
                self.cores[thread].on_response(fetch);
                // The response may unblock the core this very cycle;
                // the issue phase below runs after deliveries, exactly
                // as the reference phase order has it.
                self.core_next_poll[thread] = now;
            }
        }
    }
    /// Completes every LLC bank access due by `now` (phase 2 of the
    /// reference order).
    fn pop_bank_events(&mut self, now: u64) {
        while self
            .bank_events
            .peek()
            .map(|e| e.due <= now)
            .unwrap_or(false)
        {
            let ev = self.bank_events.pop().expect("peeked");
            self.finish_bank_access(ev.txn, now);
        }
    }

    /// Injects every memory response due by `now` (phase 3).
    fn pop_mem_events(&mut self, now: u64) {
        while self
            .mem_events
            .peek()
            .map(|e| e.due <= now)
            .unwrap_or(false)
        {
            let ev = self.mem_events.pop().expect("peeked");
            self.respond(ev.txn, now);
        }
    }

    fn finish_bank_access(&mut self, txn: Key, now: u64) {
        let open = *self.txns.get(txn).expect("open request");
        let mut outcome = self.banks[open.bank].access(open.core, open.line, open.write);
        // Directory entries may still name offline cores; those snoops
        // would wait forever for an acknowledgement. The inclusive LLC
        // holds the data, so dropping them is safe and exact.
        if let (Some(f), BankOutcome::Hit { snoop }) = (&self.faults, &mut outcome) {
            if !snoop.is_empty() && f.cores_offline > 0 {
                let active = &self.active;
                snoop.retain(|&c| {
                    let t = active
                        .iter()
                        .position(|&p| p == c)
                        .expect("snoops target active cores");
                    f.online[t]
                });
            }
        }
        match outcome {
            BankOutcome::Hit { snoop } if snoop.is_empty() => {
                if let Some(log) = &mut self.events {
                    log.instant(now, "llc_hit", "llc", open.bank as u64);
                }
                self.respond(txn, now);
            }
            BankOutcome::Hit { snoop } => {
                if let Some(log) = &mut self.events {
                    log.instant(now, "llc_hit", "llc", open.bank as u64);
                }
                let src = self.llc_node_of_bank(open.bank);
                let n = snoop.len() as u32;
                for target in snoop {
                    if let Some(log) = &mut self.events {
                        log.instant(now, "snoop", "coherence", u64::from(target));
                    }
                    let dst = self.core_node(target);
                    let sp = self.net.inject(src, dst, MessageClass::SnoopRequest, now);
                    self.roles.insert(sp, PacketRole::Snoop(txn));
                }
                self.txns.get_mut(txn).expect("open").pending_acks = n;
            }
            BankOutcome::Miss { writeback } => {
                if let Some(log) = &mut self.events {
                    log.instant(now, "llc_miss", "llc", open.bank as u64);
                }
                // Channel failover: with any channel dead, lines
                // re-interleave across the survivors.
                let ch = match &self.faults {
                    Some(f) if f.channels_dead > 0 => {
                        f.live_channels[channel_of(open.line, f.live_channels.len() as u32)]
                    }
                    _ => channel_of(open.line, self.cfg.memory_channels),
                };
                if writeback {
                    // Write-backs consume channel bandwidth only.
                    self.mcs[ch].request(now);
                    self.memory_lines += 1;
                }
                // Read after any write-back: queueing behind one's own
                // victim write-back is channel-queue time.
                let busy_before = self.mcs[ch].busy_until();
                let ready = self.mcs[ch].request(now);
                self.memory_lines += 1;
                if let Some(log) = &mut self.events {
                    // The memory access occupies the channel from now until
                    // its data returns.
                    log.complete(now, ready - now, "mem_fetch", "mem", ch as u64);
                }
                if let Some(ts) = &mut self.txn_trace {
                    if let Some(l) = ts.live.get_mut(txn) {
                        let mstart = now.max(busy_before);
                        l.add(Stage::MemQueue, mstart - l.last);
                        l.add(Stage::MemService, ready - mstart);
                        hop_event(
                            &mut self.events,
                            Stage::MemQueue,
                            l.id,
                            l.last,
                            mstart - l.last,
                            ch as u64,
                        );
                        hop_event(
                            &mut self.events,
                            Stage::MemService,
                            l.id,
                            mstart,
                            ready - mstart,
                            ch as u64,
                        );
                        l.last = ready;
                    }
                }
                self.mem_events.push(Scheduled { due: ready, txn });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_simulation_commits_instructions() {
        let cfg = SimConfig::pod_64(Workload::MapReduceW, TopologyKind::NocOut);
        let r = Machine::new(cfg).run(3_000, 6_000);
        assert!(r.instructions > 10_000, "instructions {}", r.instructions);
        assert!(r.aggregate_ipc() > 1.0);
        assert!(r.llc_accesses > 500);
        assert!(r.llc_misses < r.llc_accesses);
    }

    #[test]
    fn snoop_fraction_is_small() {
        // Fig 4.3: a few percent of LLC accesses trigger snoops.
        let cfg = SimConfig::pod_64(Workload::MapReduceW, TopologyKind::Mesh);
        let r = Machine::new(cfg).run(3_000, 8_000);
        assert!(
            r.snoop_fraction() < 0.12,
            "snoop fraction {}",
            r.snoop_fraction()
        );
    }

    #[test]
    fn scalability_limit_restricts_active_cores() {
        let cfg = SimConfig::pod_64(Workload::WebSearch, TopologyKind::Mesh);
        assert_eq!(cfg.active_cores, 16);
        let r = Machine::new(cfg).run(1_000, 2_000);
        assert_eq!(r.active_cores, 16);
    }

    #[test]
    fn nocout_outperforms_mesh_on_a_pod() {
        // Fig 4.6's headline: NOC-Out beats the mesh at 64 cores.
        let mesh = Machine::new(SimConfig::pod_64(Workload::WebSearch, TopologyKind::Mesh))
            .run(4_000, 10_000);
        let nocout = Machine::new(SimConfig::pod_64(Workload::WebSearch, TopologyKind::NocOut))
            .run(4_000, 10_000);
        assert!(
            nocout.aggregate_ipc() > mesh.aggregate_ipc(),
            "nocout {} vs mesh {}",
            nocout.aggregate_ipc(),
            mesh.aggregate_ipc()
        );
    }

    #[test]
    fn latency_distribution_is_populated_and_ordered() {
        let r = Machine::new(SimConfig::pod_64(Workload::WebSearch, TopologyKind::NocOut))
            .run(3_000, 8_000);
        let h = &r.request_latency;
        assert!(h.count() > 100, "samples {}", h.count());
        // LLC hits bound the low end; memory round trips the high end.
        assert!(h.quantile_upper(0.5) < h.quantile_upper(0.99));
        assert!(h.max() >= 90, "some requests reach memory");
        assert!(h.mean() > 5.0);
    }

    #[test]
    fn snoops_find_real_l1_lines() {
        // The directory's snoops must hit actual cached lines some of the
        // time (not only stale sharers): shared-write invalidations are
        // what MESI exists for.
        let cfg = SimConfig::pod_64(Workload::WebFrontend, TopologyKind::Mesh);
        let r = Machine::new(cfg).run(3_000, 10_000);
        assert!(r.snoops > 0, "workload generates snoops");
        assert!(r.l1_invalidations > 0, "some snoops must find L1 lines");
        assert!(r.l1_invalidations <= r.snoops + r.llc_accesses);
    }

    #[test]
    fn memory_traffic_is_reported() {
        let cfg = SimConfig::pod_64(Workload::MediaStreaming, TopologyKind::NocOut);
        let r = Machine::new(cfg).run(2_000, 5_000);
        assert!(r.memory_lines > 0);
        assert!(r.offchip_gbps(2.0) > 0.0);
    }

    #[test]
    fn validation_config_runs_small_machines() {
        for cores in [1u32, 4, 16] {
            let cfg = SimConfig::validation(Workload::SatSolver, cores, TopologyKind::Crossbar);
            let r = Machine::new(cfg).run(2_000, 4_000);
            assert!(r.instructions > 0, "{cores} cores");
        }
    }

    #[test]
    fn registry_is_a_superset_of_the_typed_result() {
        let cfg = SimConfig::validation(Workload::WebSearch, 8, TopologyKind::Crossbar);
        let mut m = Machine::new(cfg);
        let r = m.run_window(1_000, 3_000);
        assert_eq!(
            r.metrics.sum_counters_matching("sim.llc.", ".accesses"),
            r.llc_accesses
        );
        assert_eq!(
            r.metrics.sum_counters_matching("sim.llc.", ".misses"),
            r.llc_misses
        );
        assert_eq!(r.metrics.counter("sim.instructions"), r.instructions);
        assert_eq!(r.metrics.counter("sim.cycles"), r.cycles);
        assert_eq!(r.metrics.counter("mem.lines"), r.memory_lines);
        assert_eq!(r.metrics.counter("noc.flit_hops"), r.noc_flit_hops);
        assert_eq!(
            r.metrics.counter("sim.l1.invalidations"),
            r.l1_invalidations
        );
        assert!(r.metrics.counter("sim.l1.fills") > 0);
        assert_eq!(
            r.metrics
                .histogram("sim.request_latency")
                .map(Histogram::count),
            Some(r.request_latency.count())
        );
        // Per-channel memory counters partition the total.
        assert_eq!(
            r.metrics.sum_counters_matching("mem.chan", ".lines"),
            r.memory_lines
        );
        // The cumulative machine registry merges windows.
        m.run_window(0, 3_000);
        assert_eq!(m.metrics().counter("sim.cycles"), 6_000);
    }

    #[test]
    fn event_log_captures_the_transaction_lifecycle() {
        let cfg = SimConfig::validation(Workload::WebSearch, 8, TopologyKind::Crossbar);
        let mut m = Machine::new(cfg);
        m.enable_tracing(65_536);
        m.run_window(500, 3_000);
        let log = m.event_log().expect("tracing enabled");
        assert!(!log.is_empty());
        let names: std::collections::HashSet<&str> = log.events().map(|e| e.name).collect();
        for expected in ["data_issue", "llc_hit", "llc_miss", "mem_fetch", "data"] {
            assert!(names.contains(expected), "missing {expected} in {names:?}");
        }
        // Retire slices span issue → response delivery.
        let txn = log
            .events()
            .find(|e| e.cat == "txn")
            .expect("has transactions");
        assert!(txn.dur.expect("complete event") > 0);
        // And the whole log exports as valid Chrome-trace JSON.
        let trace = log.to_chrome_trace("validation-8");
        sop_obs::json::parse(&trace.to_compact_string()).expect("valid JSON");
    }

    #[test]
    fn txn_tracing_attributes_every_cycle_of_every_sampled_transaction() {
        // Mesh + WebFrontend exercises all stages: NOC hops, bank
        // queue/service, directory snoop round trips, and memory.
        let cfg = SimConfig::validation(Workload::WebFrontend, 16, TopologyKind::Mesh);
        let mut m = Machine::new(cfg);
        m.enable_txn_tracing(1);
        let r = m.run_window(1_000, 4_000);
        let stats = m.txn_stats().expect("tracing armed");
        assert!(stats.completed() > 100, "completed {}", stats.completed());
        // The exactness invariant: per-stage span sums tile the totals.
        assert_eq!(stats.stage_sum(), stats.total().sum());
        // Sampling every transaction makes sim.txn.total the same
        // distribution as the always-on request-latency histogram.
        assert_eq!(
            r.metrics.histogram("sim.txn.total"),
            r.metrics.histogram("sim.request_latency")
        );
        // Every stage the protocol can visit is populated on this config.
        for stage in Stage::ALL {
            assert!(
                r.metrics.histogram(stage.key()).expect("exported").count() > 0,
                "no samples for {}",
                stage.key()
            );
        }
        assert_eq!(r.metrics.counter("sim.txn.sampled"), stats.completed());
        assert_eq!(r.metrics.gauge("sim.txn.sample_every"), Some(1.0));
    }

    #[test]
    fn txn_tracing_does_not_perturb_the_simulation() {
        let cfg = SimConfig::validation(Workload::WebSearch, 8, TopologyKind::Mesh);
        let plain = Machine::new(cfg).run(1_000, 3_000);
        let mut m = Machine::new(cfg);
        m.enable_txn_tracing(1);
        let traced = m.run_window(1_000, 3_000);
        // Everything but the additional sim.txn.* keys is bit-identical.
        assert_eq!(plain.instructions, traced.instructions);
        assert_eq!(plain.request_latency, traced.request_latency);
        assert_eq!(plain.noc_flit_hops, traced.noc_flit_hops);
        let untraced_keys: Vec<_> = plain.metrics.iter().collect();
        let traced_minus_txn: Vec<_> = traced
            .metrics
            .iter()
            .filter(|(k, _)| !k.starts_with("sim.txn."))
            .collect();
        assert_eq!(untraced_keys, traced_minus_txn);
        assert!(plain.metrics.histogram("sim.txn.total").is_none());
    }

    #[test]
    fn profiling_does_not_perturb_the_simulation() {
        let cfg = SimConfig::validation(Workload::WebSearch, 8, TopologyKind::Mesh);
        let plain = Machine::new(cfg).run(1_000, 3_000);
        let mut m = Machine::new(cfg);
        m.enable_profiling();
        let profiled = m.run_window(1_000, 3_000);
        // Everything but the additional prof.* keys is bit-identical.
        assert_eq!(plain.instructions, profiled.instructions);
        assert_eq!(plain.request_latency, profiled.request_latency);
        assert_eq!(plain.noc_flit_hops, profiled.noc_flit_hops);
        let plain_keys: Vec<_> = plain.metrics.iter().collect();
        let profiled_minus_prof: Vec<_> = profiled
            .metrics
            .iter()
            .filter(|(k, _)| !k.starts_with("prof."))
            .collect();
        assert_eq!(plain_keys, profiled_minus_prof);
        assert_eq!(plain.metrics.counter("prof.advance.calls"), 0);
    }

    #[test]
    fn profiled_self_times_are_bounded_by_advance_wall() {
        let cfg = SimConfig::validation(Workload::DataServing, 8, TopologyKind::Mesh);
        let mut m = Machine::new(cfg);
        m.enable_profiling();
        let r = m.run_window(1_000, 3_000);
        let b = sop_obs::ProfBreakdown::from_registry(&r.metrics).expect("profiled run");
        // Disjoint regions can never out-spend the advance total.
        assert!(b.consistent(), "{}", b.render());
        assert!(b.advance_ns > 0 && b.ticks > 0, "{}", b.render());
        assert_eq!(b.cycles, 4_000);
        for row in &b.rows {
            assert!(row.calls > 0, "{} never sampled:\n{}", row.key, b.render());
        }
        // Windows export-and-reset: the live profile is empty again.
        assert_eq!(m.host_prof().expect("armed").advance_calls, 0);
    }

    #[test]
    fn txn_tracing_is_deterministic_and_engine_independent() {
        let run = |reference: bool, sample_every: u64| {
            let cfg = SimConfig::validation(Workload::WebFrontend, 16, TopologyKind::Mesh);
            let mut m = Machine::new(cfg);
            m.set_reference_mode(reference);
            m.enable_txn_tracing(sample_every);
            m.run_window(1_000, 3_000)
        };
        let a = run(false, 4);
        let b = run(false, 4);
        assert_eq!(a, b, "same config, same bits");
        let reference = run(true, 4);
        assert_eq!(a, reference, "event-driven vs per-cycle reference");
        // 1-in-4 sampling records roughly a quarter of the transactions.
        let full = run(false, 1);
        let full_n = full.metrics.counter("sim.txn.sampled");
        let quarter_n = a.metrics.counter("sim.txn.sampled");
        assert!(
            quarter_n > 0 && quarter_n < full_n,
            "{quarter_n} vs {full_n}"
        );
    }

    #[test]
    fn txn_hops_land_in_the_event_log_on_component_tracks() {
        let cfg = SimConfig::validation(Workload::WebFrontend, 16, TopologyKind::Mesh);
        let mut m = Machine::new(cfg);
        m.enable_tracing(1 << 16);
        m.enable_txn_tracing(1);
        m.run_window(500, 3_000);
        let log = m.event_log().expect("tracing enabled");
        let hop_names: std::collections::HashSet<&str> = log
            .events()
            .filter(|e| e.cat == "txn.hop")
            .map(|e| e.name)
            .collect();
        for stage in Stage::ALL {
            assert!(hop_names.contains(stage.key()), "missing {}", stage.key());
        }
        // Hop events carry their transaction id for cross-lane tracking.
        let hop = log.events().find(|e| e.cat == "txn.hop").expect("has hops");
        assert!(hop.args.iter().any(|(k, _)| *k == "txn"));
        let trace = log.to_chrome_trace("traced");
        sop_obs::json::parse(&trace.to_compact_string()).expect("valid JSON");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_sample_period_panics() {
        let cfg = SimConfig::validation(Workload::WebSearch, 2, TopologyKind::Mesh);
        Machine::new(cfg).enable_txn_tracing(0);
    }

    #[test]
    #[should_panic(expected = "more threads than cores")]
    fn too_many_active_cores_panics() {
        let mut cfg = SimConfig::pod_64(Workload::MapReduceW, TopologyKind::Mesh);
        cfg.active_cores = 65;
        Machine::new(cfg);
    }

    fn faulted_run(plan: &FaultPlan, reference: bool) -> SimResult {
        let cfg = SimConfig::validation(Workload::WebSearch, 16, TopologyKind::Mesh);
        let mut m = Machine::new(cfg);
        m.set_reference_mode(reference);
        m.set_fault_plan(plan);
        m.run_window(1_000, 3_000)
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        let cfg = SimConfig::validation(Workload::WebSearch, 8, TopologyKind::Mesh);
        let plain = Machine::new(cfg).run(1_000, 3_000);
        let mut m = Machine::new(cfg);
        m.set_fault_plan(&FaultPlan::new());
        let with_plan = m.run_window(1_000, 3_000);
        assert_eq!(plain, with_plan);
        assert_eq!(with_plan.halted, None);
    }

    #[test]
    fn router_death_degrades_but_does_not_stop_the_machine() {
        let healthy = faulted_run(&FaultPlan::new(), false);
        let mut plan = FaultPlan::new();
        // An interior mesh router dies mid-warmup: its tile's core and
        // LLC slice go with it, traffic detours around the hole.
        plan.push(Fault::dead(ComponentKind::Router, 5, 500));
        let r = faulted_run(&plan, false);
        assert_eq!(r.halted, None);
        assert!(r.instructions > 0, "survivors keep executing");
        assert!(
            r.instructions < healthy.instructions,
            "losing a tile must cost throughput: {} vs {}",
            r.instructions,
            healthy.instructions
        );
        assert_eq!(r.metrics.gauge("sim.fault.routers.dead"), Some(1.0));
        assert_eq!(r.metrics.gauge("sim.fault.cores.offline"), Some(1.0));
        assert!(r.metrics.gauge("sim.fault.llc_banks.dead").expect("gauge") >= 1.0);
        assert!(healthy.metrics.gauge("sim.fault.routers.dead").is_none());
    }

    #[test]
    fn same_fault_plan_is_bit_deterministic_and_engine_independent() {
        let mut plan = FaultPlan::new();
        plan.push(Fault::dead(ComponentKind::Router, 9, 600));
        plan.push(Fault::dead(ComponentKind::Core, 3, 1_500));
        plan.push(Fault::degraded(ComponentKind::MemChannel, 0, 2_000));
        let a = faulted_run(&plan, false);
        let b = faulted_run(&plan, false);
        assert_eq!(a, b, "same plan, same bits");
        let reference = faulted_run(&plan, true);
        assert_eq!(a, reference, "event-driven vs per-cycle reference");
    }

    #[test]
    fn bank_death_remaps_and_invalidates_warm_state() {
        let mut plan = FaultPlan::new();
        plan.push(Fault::dead(ComponentKind::LlcBank, 2, 0));
        let r = faulted_run(&plan, false);
        assert_eq!(r.halted, None);
        assert!(r.llc_accesses > 0, "remapped LLC still serves requests");
        assert_eq!(r.metrics.gauge("sim.fault.llc_banks.dead"), Some(1.0));
        assert!(
            r.metrics
                .gauge("sim.fault.llc.lines_invalidated")
                .expect("gauge")
                > 0.0,
            "warm state must be invalidated on remap"
        );
        // The dead bank serves nothing during the window.
        assert_eq!(r.metrics.counter("sim.llc.bank2.accesses"), 0);
    }

    #[test]
    fn memory_channel_death_fails_over_to_survivors() {
        let mut plan = FaultPlan::new();
        plan.push(Fault::dead(ComponentKind::MemChannel, 1, 0));
        let r = faulted_run(&plan, false);
        assert_eq!(r.halted, None);
        assert!(r.memory_lines > 0, "memory still serves lines");
        assert_eq!(r.metrics.counter("mem.chan1.lines"), 0);
        assert_eq!(
            r.metrics.sum_counters_matching("mem.chan", ".lines"),
            r.memory_lines
        );
    }

    #[test]
    fn hub_death_partitions_the_star_and_halts_structurally() {
        let cfg = SimConfig::validation(Workload::WebSearch, 8, TopologyKind::Crossbar);
        let mut m = Machine::new(cfg);
        let mut plan = FaultPlan::new();
        plan.push(Fault::dead(ComponentKind::Router, 0, 500)); // the hub
        m.set_fault_plan(&plan);
        let r = m.run_window(1_000, 2_000);
        assert_eq!(r.halted, Some(HaltReason::Partition));
        assert_eq!(m.halted(), Some(HaltReason::Partition));
        assert_eq!(r.metrics.gauge("sim.fault.halted"), Some(1.0));
    }

    #[test]
    fn all_cores_dead_halts_with_no_cores() {
        let cfg = SimConfig::validation(Workload::WebSearch, 2, TopologyKind::Mesh);
        let mut m = Machine::new(cfg);
        let mut plan = FaultPlan::new();
        plan.push(Fault::dead(ComponentKind::Core, 0, 100));
        plan.push(Fault::dead(ComponentKind::Core, 1, 100));
        m.set_fault_plan(&plan);
        let r = m.run_window(500, 1_000);
        assert_eq!(r.halted, Some(HaltReason::NoCores));
    }

    #[test]
    fn intermittent_link_outage_heals() {
        let cfg = SimConfig::validation(Workload::WebSearch, 16, TopologyKind::Mesh);
        let mut m = Machine::new(cfg);
        let mut plan = FaultPlan::new();
        plan.push(Fault::intermittent_link(0, 0, 500, 1_000));
        m.set_fault_plan(&plan);
        let r = m.run_window(1_000, 3_000);
        assert_eq!(r.halted, None);
        assert!(r.instructions > 0);
        assert_eq!(r.metrics.gauge("sim.fault.links.dead"), Some(1.0));
        assert_eq!(r.metrics.gauge("sim.fault.links.restored"), Some(1.0));
    }

    #[test]
    fn seeded_router_deaths_sweep_is_monotone_under_growing_damage() {
        // The degradation experiment's core claim: more dead routers,
        // no more throughput. (Seeded victim sets nest by construction.)
        let cfg = SimConfig::validation(Workload::WebSearch, 16, TopologyKind::Mesh);
        let routers = Machine::new(cfg).net.topology().len() as u32;
        let ipc = |k: u32| {
            let plan = FaultPlan::seeded_router_deaths(4, k, routers, 0);
            let mut m = Machine::new(cfg);
            m.set_fault_plan(&plan);
            let r = m.run_window(1_000, 3_000);
            (r.aggregate_ipc(), r.halted)
        };
        // Adjacent victim counts can tie within noise; well-separated
        // damage levels must order strictly.
        let (ipc0, h0) = ipc(0);
        let (ipc2, h2) = ipc(2);
        let (ipc4, h4) = ipc(4);
        assert_eq!((h0, h2, h4), (None, None, None));
        assert!(ipc0 > 0.0 && ipc2 > 0.0 && ipc4 > 0.0);
        assert!(ipc0 > ipc2 && ipc2 > ipc4, "{ipc0} {ipc2} {ipc4}");
    }
}
