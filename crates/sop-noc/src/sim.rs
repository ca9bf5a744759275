//! Cycle-stepped flit-level network simulation.
//!
//! The engine models input-buffered routers with one virtual channel per
//! message class, credit-based flow control, and flit-interleaved
//! switching: every cycle each output port moves at most one flit, chosen
//! by class priority (responses > snoops > requests, §4.2.2) and
//! round-robin among input ports. Router pipelines and link flight times
//! are charged as in-transit delay; per-packet flit order is preserved by
//! deterministic routing and FIFO queues, so wormhole-style multi-flit
//! packets reassemble in order at the destination.

use crate::message::{Delivered, Flit, MessageClass, PacketId};
use crate::slab::{SideTable, Slab};
use crate::topology::{RouteHealth, Topology, TopologyKind};
use std::collections::{BinaryHeap, VecDeque};

/// Number of virtual channels (one per message class).
const VCS: usize = 3;

/// Configuration of a network instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Which fabric to build.
    pub topology: TopologyKind,
    /// Number of core endpoints.
    pub cores: u32,
    /// Number of LLC endpoints (tiles in NOC-Out and star fabrics; equal
    /// to `cores` in tiled fabrics, where every tile has a slice).
    pub llc_tiles: u32,
    /// Link width in bits (128 in the Table 4.1 baseline).
    pub link_bits: u32,
    /// Buffer depth per virtual channel, in flits.
    pub vc_depth: u32,
    /// Tile edge length in mm (sets link lengths for area/energy).
    pub tile_mm: f64,
    /// Crossbar hub arbitration depth in cycles (star fabrics only).
    pub hub_cycles: u32,
}

impl NocConfig {
    /// The 64-core, 8MB chapter-4 pod (Table 4.1) on the given fabric.
    pub fn pod_64(topology: TopologyKind) -> Self {
        let llc_tiles = match topology {
            TopologyKind::NocOut => 8,
            TopologyKind::Mesh | TopologyKind::FlattenedButterfly => 64,
            TopologyKind::Crossbar | TopologyKind::Ideal => 16,
        };
        NocConfig {
            topology,
            cores: 64,
            llc_tiles,
            link_bits: 128,
            vc_depth: 5,
            tile_mm: 1.82,
            hub_cycles: 3,
        }
    }

    /// Returns a copy with a different link width (the Fig 4.8 equal-area
    /// study squeezes links until fabrics match NOC-Out's area).
    pub fn with_link_bits(mut self, bits: u32) -> Self {
        assert!(bits > 0, "links must be at least one bit wide");
        self.link_bits = bits;
        self
    }

    /// Builds the topology graph for this configuration.
    pub fn build_topology(&self) -> Topology {
        match self.topology {
            TopologyKind::Mesh => {
                let (w, h) = near_square(self.cores);
                Topology::mesh(w, h, self.tile_mm)
            }
            TopologyKind::FlattenedButterfly => {
                let (w, h) = near_square(self.cores);
                Topology::flattened_butterfly(w, h, self.tile_mm)
            }
            TopologyKind::NocOut => Topology::noc_out(self.cores, self.llc_tiles, self.tile_mm),
            TopologyKind::Crossbar => Topology::crossbar(
                self.cores,
                self.llc_tiles,
                self.hub_cycles,
                (f64::from(self.cores)).sqrt() * self.tile_mm,
            ),
            TopologyKind::Ideal => Topology::ideal(self.cores, self.llc_tiles),
        }
    }
}

fn near_square(n: u32) -> (u32, u32) {
    let mut h = (n as f64).sqrt().floor() as u32;
    while h > 1 && !n.is_multiple_of(h) {
        h -= 1;
    }
    (n / h.max(1), h.max(1))
}

#[derive(Debug, Default)]
struct InputBuffer {
    queues: [VecDeque<Flit>; VCS],
}

#[derive(Debug)]
struct RouterState {
    /// One buffer per input port; the last entry is the injection port
    /// (endpoint nodes only).
    inputs: Vec<InputBuffer>,
    /// Credits toward each downstream input, per output port and VC.
    credits: Vec<[u32; VCS]>,
    /// Round-robin pointer per output port (+1 for the local/eject port).
    rr: Vec<usize>,
}

impl RouterState {
    /// Whether any input buffer still holds a flit.
    fn has_buffered_flits(&self) -> bool {
        self.inputs
            .iter()
            .any(|b| b.queues.iter().any(|q| !q.is_empty()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arrival {
    due: u64,
    node: usize,
    in_port: usize,
    flit: Flit,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CreditReturn {
    due: u64,
    node: usize,
    out_port: usize,
    vc: usize,
}

// BinaryHeap is a max-heap; order events so earliest-due pops first.
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .due
            .cmp(&self.due)
            .then(other.flit.packet.cmp(&self.flit.packet))
    }
}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CreditReturn {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due)
    }
}
impl PartialOrd for CreditReturn {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy)]
struct PacketMeta {
    src: usize,
    dst: usize,
    class: MessageClass,
    injected_at: u64,
    flits: u32,
    received: u32,
}

/// Causal timestamps collected for one traced packet: when its head
/// flit first won switch allocation (leaving the source's injection
/// queue) and when its tail flit reached the destination's input
/// buffer. Both stay `None` for hops the packet never took — a
/// self-injected packet bypasses the fabric entirely — and the span
/// decomposition in [`Network::take_packet_trace`] degrades gracefully.
#[derive(Debug, Clone, Copy, Default)]
struct PacketTrace {
    depart: Option<u64>,
    tail_arrived: Option<u64>,
}

/// One delivered packet's time split into the three NOC hop stages:
/// source queueing (`inject`), fabric traversal (`route`), and
/// destination ejection (`eject`). The three always sum exactly to
/// [`Delivered::latency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocSpans {
    /// Cycles the head flit waited at the source for link access.
    pub inject: u64,
    /// Head departure until the tail reached the destination buffer.
    pub route: u64,
    /// Tail arrival until the packet was fully ejected.
    pub eject: u64,
}

/// Aggregate traffic counters for power estimation, with per-message-class
/// breakdowns (indexed by [`MessageClass::vc`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficCounters {
    /// Total flit-hops through router switches.
    pub flit_hops: u64,
    /// Total flit-millimetres of wire traversed.
    pub flit_mm: f64,
    /// Total packets delivered.
    pub packets: u64,
    /// Sum of packet latencies (for averaging).
    pub total_latency: u64,
    /// Flit-hops per message class.
    pub class_flit_hops: [u64; VCS],
    /// Packets delivered per message class.
    pub class_packets: [u64; VCS],
    /// Latency sums per message class.
    pub class_latency: [u64; VCS],
}

impl TrafficCounters {
    /// Mean end-to-end packet latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.packets as f64
        }
    }

    /// Mean latency of one message class.
    pub fn class_mean_latency(&self, class: MessageClass) -> f64 {
        let vc = class.vc();
        if self.class_packets[vc] == 0 {
            0.0
        } else {
            self.class_latency[vc] as f64 / self.class_packets[vc] as f64
        }
    }

    /// Publishes these counters under `prefix` (e.g. `"noc."`):
    /// `<p>flit_hops`, `<p>flit_mm`, `<p>packets`, `<p>mean_latency`, and
    /// per-class `<p>class.<name>.{packets,flit_hops,mean_latency}`.
    pub fn export_metrics(&self, reg: &mut sop_obs::Registry, prefix: &str) {
        reg.counter_add(&format!("{prefix}flit_hops"), self.flit_hops);
        reg.gauge_set(&format!("{prefix}flit_mm"), self.flit_mm);
        reg.counter_add(&format!("{prefix}packets"), self.packets);
        reg.gauge_set(&format!("{prefix}mean_latency"), self.mean_latency());
        for class in MessageClass::ALL {
            let vc = class.vc();
            let name = class.key();
            reg.counter_add(
                &format!("{prefix}class.{name}.packets"),
                self.class_packets[vc],
            );
            reg.counter_add(
                &format!("{prefix}class.{name}.flit_hops"),
                self.class_flit_hops[vc],
            );
            reg.gauge_set(
                &format!("{prefix}class.{name}.mean_latency"),
                self.class_mean_latency(class),
            );
        }
    }

    /// Counter-wise difference against an earlier snapshot (for window
    /// deltas). Means are recomputed from the deltas by the callers.
    #[must_use]
    pub fn delta_since(&self, earlier: &TrafficCounters) -> TrafficCounters {
        let mut d = TrafficCounters {
            flit_hops: self.flit_hops - earlier.flit_hops,
            flit_mm: self.flit_mm - earlier.flit_mm,
            packets: self.packets - earlier.packets,
            total_latency: self.total_latency - earlier.total_latency,
            ..TrafficCounters::default()
        };
        for vc in 0..VCS {
            d.class_flit_hops[vc] = self.class_flit_hops[vc] - earlier.class_flit_hops[vc];
            d.class_packets[vc] = self.class_packets[vc] - earlier.class_packets[vc];
            d.class_latency[vc] = self.class_latency[vc] - earlier.class_latency[vc];
        }
        d
    }
}

/// A running network instance.
#[derive(Debug)]
pub struct Network {
    cfg: NocConfig,
    topo: Topology,
    routers: Vec<RouterState>,
    /// `(node, out_port)` -> (downstream node, downstream input port).
    link_dst: Vec<Vec<(usize, usize)>>,
    /// `(node, in_port)` -> (upstream node, upstream out_port), if any.
    link_src: Vec<Vec<Option<(usize, usize)>>>,
    arrivals: BinaryHeap<Arrival>,
    credit_returns: BinaryHeap<CreditReturn>,
    /// Per-packet state, indexed by [`PacketId`]. Slots retired by a step
    /// are reclaimed only at the *next* step, so between two steps a
    /// caller may key its own side tables by packet id without a
    /// delivered packet's index being reissued under it (see
    /// [`crate::slab::SideTable`]).
    packets: Slab<PacketMeta>,
    counters: TrafficCounters,
    /// Flits sent per (node, output port), for utilization analysis.
    channel_flits: Vec<Vec<u64>>,
    /// Nodes holding at least one buffered flit, ascending — the only
    /// routers switch allocation has to visit.
    worklist: Vec<usize>,
    /// `worklist` membership flags (including nodes pending insertion).
    is_active: Vec<bool>,
    /// Nodes activated since the last step, merged into `worklist` (and
    /// re-sorted) when the next step begins.
    pending_activation: Vec<usize>,
    /// Routers removed by faults. Empty on fault-free runs; routing
    /// tables (not per-flit checks) carry the effect, so the hot path
    /// never consults this.
    dead_routers: Vec<bool>,
    /// Directed channels removed by faults, as `(node, out_port)`.
    dead_links: Vec<(usize, usize)>,
    /// Hop timestamps for packets marked by [`Network::trace_packet`].
    /// `None` until [`Network::enable_packet_tracing`] arms it, so an
    /// untraced run pays exactly one pointer-null test per hook.
    trace: Option<Box<SideTable<PacketTrace>>>,
    cycle: u64,
}

impl Network {
    /// Builds a network from a configuration.
    pub fn new(cfg: NocConfig) -> Self {
        let topo = cfg.build_topology();
        let n = topo.len();
        // Input port maps.
        let mut link_dst = vec![Vec::new(); n];
        let mut link_src: Vec<Vec<Option<(usize, usize)>>> = vec![Vec::new(); n];
        let mut in_count = vec![0usize; n];
        for (u, dsts) in link_dst.iter_mut().enumerate() {
            for (port, ch) in topo.channels[u].iter().enumerate() {
                let in_port = in_count[ch.to];
                in_count[ch.to] += 1;
                dsts.push((ch.to, in_port));
                while link_src[ch.to].len() <= in_port {
                    link_src[ch.to].push(None);
                }
                link_src[ch.to][in_port] = Some((u, port));
            }
        }
        let mut routers = Vec::with_capacity(n);
        for node in 0..n {
            // +1 injection pseudo-port on every node (harmless where unused).
            let inputs = (0..=in_count[node])
                .map(|_| InputBuffer::default())
                .collect();
            let out_ports = topo.channels[node].len();
            routers.push(RouterState {
                inputs,
                credits: vec![[cfg.vc_depth; VCS]; out_ports],
                rr: vec![0; out_ports + 1],
            });
            link_src[node].resize(in_count[node], None);
            let _ = node;
        }
        let channel_flits = (0..n).map(|u| vec![0u64; topo.channels[u].len()]).collect();
        Network {
            cfg,
            topo,
            routers,
            link_dst,
            link_src,
            arrivals: BinaryHeap::new(),
            credit_returns: BinaryHeap::new(),
            packets: Slab::new(),
            counters: TrafficCounters::default(),
            channel_flits,
            worklist: Vec::new(),
            is_active: vec![false; n],
            pending_activation: Vec::new(),
            dead_routers: vec![false; n],
            dead_links: Vec::new(),
            trace: None,
            cycle: 0,
        }
    }

    /// Arms per-packet hop tracing. Until a packet is marked with
    /// [`Network::trace_packet`] nothing is recorded; without arming,
    /// marking is a no-op and the hot path stays on its original branch.
    pub fn enable_packet_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Box::default());
        }
    }

    /// Marks an in-flight packet for hop tracing (no-op when tracing is
    /// not armed). Call between [`Network::inject`] and the packet's
    /// first step.
    pub fn trace_packet(&mut self, packet: PacketId) {
        if let Some(trace) = &mut self.trace {
            trace.insert(packet, PacketTrace::default());
        }
    }

    /// Consumes the hop timestamps of a delivered traced packet and
    /// returns its inject/route/eject span split, which sums exactly to
    /// `d.latency()`. Returns `None` for untraced packets. Must be
    /// called in the same inter-step window as the delivery (packet
    /// slots are reclaimed at the next step).
    pub fn take_packet_trace(&mut self, d: &Delivered) -> Option<NocSpans> {
        let t = self.trace.as_mut()?.remove(d.packet)?;
        // A self-injected packet never wins a fabric switch slot nor
        // crosses a link: both timestamps default so its whole latency
        // lands in the eject span.
        let depart = t
            .depart
            .unwrap_or(d.injected_at)
            .clamp(d.injected_at, d.delivered_at);
        let tail = t
            .tail_arrived
            .unwrap_or(d.delivered_at)
            .clamp(depart, d.delivered_at);
        Some(NocSpans {
            inject: depart - d.injected_at,
            route: tail - depart,
            eject: d.delivered_at - tail,
        })
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The underlying topology graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Nodes at which cores inject and eject.
    pub fn core_endpoints(&self) -> &[usize] {
        &self.topo.core_nodes
    }

    /// Nodes at which LLC tiles inject and eject.
    pub fn llc_endpoints(&self) -> &[usize] {
        &self.topo.llc_nodes
    }

    /// Traffic counters accumulated so far.
    pub fn counters(&self) -> TrafficCounters {
        self.counters
    }

    /// Utilization of every channel over `cycles` of simulated time:
    /// `(source node, output port, flits-per-cycle)`. A channel moves at
    /// most one flit per cycle, so values are in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn channel_utilization(&self, cycles: u64) -> Vec<(usize, usize, f64)> {
        assert!(cycles > 0, "need a non-empty window");
        let mut out = Vec::new();
        for (node, ports) in self.channel_flits.iter().enumerate() {
            for (port, &flits) in ports.iter().enumerate() {
                out.push((node, port, flits as f64 / cycles as f64));
            }
        }
        out
    }

    /// The hottest channel and its utilization — congestion diagnosis for
    /// the §4.4.1 "networks are not congested" check.
    pub fn max_channel_utilization(&self, cycles: u64) -> f64 {
        self.channel_utilization(cycles)
            .into_iter()
            .map(|(_, _, u)| u)
            .fold(0.0, f64::max)
    }

    /// Injects a packet of `class` from node `src` to node `dst` at
    /// `cycle`, returning its id. The packet's flit count follows the
    /// class payload and the configured link width. Injecting to `src`
    /// itself is allowed (a core talking to its own tile's LLC slice) and
    /// delivers through the local port without touching the fabric.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn inject(
        &mut self,
        src: usize,
        dst: usize,
        class: MessageClass,
        _weight: u32,
        cycle: u64,
    ) -> PacketId {
        assert!(
            src < self.topo.len() && dst < self.topo.len(),
            "node out of range"
        );
        let flits = class.flits(self.cfg.link_bits);
        let id = self.packets.insert(PacketMeta {
            src,
            dst,
            class,
            injected_at: cycle,
            flits,
            received: 0,
        });
        let inj_port = self.routers[src].inputs.len() - 1;
        for f in 0..flits {
            self.routers[src].inputs[inj_port].queues[class.vc()].push_back(Flit {
                packet: id,
                class,
                dst,
                is_head: f == 0,
                is_tail: f == flits - 1,
            });
        }
        self.activate(src);
        id
    }

    /// Number of packets injected but not yet fully delivered.
    pub fn in_flight(&self) -> usize {
        self.packets.len()
    }

    /// Marks a node as holding buffered flits, queueing it for the next
    /// step's worklist merge.
    fn activate(&mut self, node: usize) {
        if !self.is_active[node] {
            self.is_active[node] = true;
            self.pending_activation.push(node);
        }
    }

    /// The earliest future cycle at which [`Network::step`] could do any
    /// work, or `None` while the fabric is guaranteed to stay inert.
    ///
    /// Any buffered flit means switch allocation must run next cycle; an
    /// otherwise-empty fabric sleeps until its next in-flight arrival.
    /// Pending credit returns alone never wake the network: with no
    /// buffered flits there is nothing a credit could unblock, and a
    /// later step restores every credit due by then before allocating
    /// the switch, so skipping over them is exact.
    pub fn next_event_cycle(&self) -> Option<u64> {
        if !self.worklist.is_empty() || !self.pending_activation.is_empty() {
            return Some(self.cycle + 1);
        }
        self.arrivals.peek().map(|a| a.due.max(self.cycle + 1))
    }

    /// Advances the network to `cycle` (which must be monotonically
    /// increasing) and returns the packets fully delivered during it.
    ///
    /// Only *active* routers — those holding buffered flits — are swept
    /// by switch allocation; an idle router has nothing to arbitrate, so
    /// skipping it is exact. Callers that advance time themselves can
    /// consult [`Network::next_event_cycle`] and jump over idle spans.
    pub fn step(&mut self, cycle: u64) -> Vec<Delivered> {
        self.step_inner(cycle, false)
    }

    /// [`Network::step`] sweeping *every* router, active or not: the
    /// pre-worklist reference semantics, bit-identical by construction.
    /// Equivalence tests drive one network with `step` and one with
    /// `step_full` and assert the outputs match.
    pub fn step_full(&mut self, cycle: u64) -> Vec<Delivered> {
        self.step_inner(cycle, true)
    }

    fn step_inner(&mut self, cycle: u64, sweep_all: bool) -> Vec<Delivered> {
        assert!(cycle >= self.cycle, "cycles must not go backwards");
        self.cycle = cycle;
        // Packet slots retired by the previous step become reusable now
        // that the caller has had a full inter-step window to finish its
        // side-table bookkeeping for those deliveries.
        self.packets.reclaim_deferred();
        // 1. Credits that have returned upstream.
        while let Some(cr) = self.credit_returns.peek() {
            if cr.due > cycle {
                break;
            }
            let cr = self.credit_returns.pop().expect("peeked");
            self.routers[cr.node].credits[cr.out_port][cr.vc] += 1;
        }
        // 2. Flits arriving at input buffers.
        while let Some(a) = self.arrivals.peek() {
            if a.due > cycle {
                break;
            }
            let a = self.arrivals.pop().expect("peeked");
            if let Some(trace) = &mut self.trace {
                // A traced packet's tail reaching its destination's input
                // buffer ends the route span; later re-deliveries of the
                // timestamp are impossible (the tail arrives once).
                if a.flit.is_tail && a.node == a.flit.dst {
                    if let Some(t) = trace.get_mut(a.flit.packet) {
                        t.tail_arrived.get_or_insert(cycle);
                    }
                }
            }
            self.routers[a.node].inputs[a.in_port].queues[a.flit.class.vc()].push_back(a.flit);
            self.activate(a.node);
        }
        // 3. Switch allocation: one flit per output port per active node,
        // visited in ascending node order — the same relative order as a
        // full 0..n sweep, so delivery order is unchanged.
        if !self.pending_activation.is_empty() {
            let mut pending = std::mem::take(&mut self.pending_activation);
            self.worklist.append(&mut pending);
            self.worklist.sort_unstable();
        }
        let mut delivered = Vec::new();
        let worklist = std::mem::take(&mut self.worklist);
        let full_sweep: Vec<usize>;
        let sweep: &[usize] = if sweep_all {
            full_sweep = (0..self.topo.len()).collect();
            &full_sweep
        } else {
            &worklist
        };
        for &node in sweep {
            let out_ports = self.topo.channels[node].len();
            // Local ejection is pseudo-port `out_ports`.
            for out in 0..=out_ports {
                if let Some((in_port, vc)) =
                    pick_input(&mut self.routers[node], &self.topo, node, out)
                {
                    let flit = self.routers[node].inputs[in_port].queues[vc]
                        .pop_front()
                        .expect("picked head exists");
                    if let Some(trace) = &mut self.trace {
                        // A traced head flit's *first* switch win is at
                        // the source (later hops happen at later cycles),
                        // ending the inject span.
                        if flit.is_head {
                            if let Some(t) = trace.get_mut(flit.packet) {
                                t.depart.get_or_insert(cycle);
                            }
                        }
                    }
                    // Return a credit to the upstream router feeding this
                    // input buffer (injection ports have no upstream).
                    if let Some(Some((u, uport))) = self.link_src[node].get(in_port).copied() {
                        let latency = self.topo.channels[u][uport].latency;
                        self.credit_returns.push(CreditReturn {
                            due: cycle + u64::from(latency),
                            node: u,
                            out_port: uport,
                            vc,
                        });
                    }
                    if out == out_ports {
                        // Ejected at the destination.
                        if let Some(d) =
                            eject_flit(&mut self.packets, &mut self.counters, node, flit, cycle)
                        {
                            delivered.push(d);
                        }
                    } else {
                        let ch = self.topo.channels[node][out];
                        let (to, to_in) = self.link_dst[node][out];
                        self.routers[node].credits[out][vc] -= 1;
                        self.arrivals.push(Arrival {
                            due: cycle
                                + u64::from(self.topo.pipeline[node])
                                + u64::from(ch.latency),
                            node: to,
                            in_port: to_in,
                            flit,
                        });
                        self.counters.flit_hops += 1;
                        self.counters.flit_mm += ch.length_mm;
                        self.counters.class_flit_hops[flit.class.vc()] += 1;
                        self.channel_flits[node][out] += 1;
                    }
                }
            }
        }
        // Drop drained routers from the worklist (buffers only empty
        // during the sweep, so this is the one place nodes retire).
        self.worklist = worklist;
        let mut retained = 0;
        for i in 0..self.worklist.len() {
            let node = self.worklist[i];
            if self.routers[node].has_buffered_flits() {
                self.worklist[retained] = node;
                retained += 1;
            } else {
                self.is_active[node] = false;
            }
        }
        self.worklist.truncate(retained);
        delivered
    }

    /// Runs the network until idle or `max_cycles`, returning deliveries.
    /// Idle spans between in-flight arrivals are skipped outright, which
    /// changes nothing observable: skipped cycles are exactly those where
    /// a step would have found no work.
    pub fn drain(&mut self, max_cycles: u64) -> Vec<Delivered> {
        let mut out = Vec::new();
        let end = self.cycle + max_cycles;
        while let Some(next) = self.next_event_cycle() {
            if next > end {
                break;
            }
            out.extend(self.step(next));
            if self.packets.is_empty() && self.arrivals.is_empty() {
                break;
            }
        }
        out
    }

    /// Fault operations must run on an idle fabric: routing tables are
    /// rewritten wholesale, and a flit already committed to a removed
    /// channel would be silently re-aimed (or stranded) mid-flight. The
    /// machine layer quiesces (stops issuing, drains) before applying a
    /// fault, so this only fires on a sequencing bug.
    /// (In-flight credit returns are fine: credits reference channel
    /// structures, which faults disable in the routing tables but never
    /// remove.)
    fn assert_idle_for_fault(&self, what: &str) {
        assert!(
            self.packets.is_empty() && self.arrivals.is_empty(),
            "{what} requires an idle fabric ({} packets in flight)",
            self.packets.len()
        );
    }

    fn reroute(&mut self) -> RouteHealth {
        let dead = std::mem::take(&mut self.dead_routers);
        let links = std::mem::take(&mut self.dead_links);
        let health = self.topo.reroute(&dead, |u, p| links.contains(&(u, p)));
        self.dead_routers = dead;
        self.dead_links = links;
        health
    }

    /// Removes router `node` from the fabric: nothing routes to, from, or
    /// through it again. Returns the surviving fabric's reachability.
    /// Idempotent. Must be called on an idle fabric.
    pub fn fail_router(&mut self, node: usize) -> RouteHealth {
        self.assert_idle_for_fault("fail_router");
        self.dead_routers[node] = true;
        self.reroute()
    }

    /// Removes the directed channel at `(node, out_port)`; traffic takes
    /// a deterministic detour where one exists. Idle fabric only.
    pub fn fail_link(&mut self, node: usize, port: usize) -> RouteHealth {
        self.assert_idle_for_fault("fail_link");
        assert!(port < self.topo.channels[node].len(), "no such port");
        if !self.dead_links.contains(&(node, port)) {
            self.dead_links.push((node, port));
        }
        self.reroute()
    }

    /// Restores a previously failed link (an intermittent fault ending
    /// its down window). Idle fabric only.
    pub fn restore_link(&mut self, node: usize, port: usize) -> RouteHealth {
        self.assert_idle_for_fault("restore_link");
        self.dead_links.retain(|&l| l != (node, port));
        self.reroute()
    }

    /// Degrades router `node`: +2 pipeline stages (a faulty stage retimed
    /// with spares). Routes shift away from it where a cheaper detour
    /// exists. Idle fabric only.
    pub fn degrade_router(&mut self, node: usize) -> RouteHealth {
        self.assert_idle_for_fault("degrade_router");
        self.topo.pipeline[node] += 2;
        self.reroute()
    }

    /// Degrades the channel at `(node, out_port)`: flight latency doubles
    /// (half-width operation after a lane failure). Idle fabric only.
    pub fn degrade_link(&mut self, node: usize, port: usize) -> RouteHealth {
        self.assert_idle_for_fault("degrade_link");
        let ch = &mut self.topo.channels[node][port];
        ch.latency = ch.latency.saturating_mul(2);
        self.reroute()
    }

    /// Whether router `node` has been removed by a fault.
    pub fn router_is_dead(&self, node: usize) -> bool {
        self.dead_routers[node]
    }
}

/// Picks the input (port, vc) that wins output `out` at `node` this
/// cycle: highest VC (class priority) first, round-robin among ports.
fn pick_input(
    router: &mut RouterState,
    topo: &Topology,
    node: usize,
    out: usize,
) -> Option<(usize, usize)> {
    let out_ports = topo.channels[node].len();
    let is_local = out == out_ports;
    let n_inputs = router.inputs.len();
    let rr = router.rr[out];
    for vc in (0..VCS).rev() {
        if !is_local && router.credits[out][vc] == 0 {
            continue;
        }
        for i in 0..n_inputs {
            let in_port = (rr + i) % n_inputs;
            let head = router.inputs[in_port].queues[vc].front();
            let Some(flit) = head else { continue };
            let want_local = flit.dst == node;
            if want_local != is_local {
                continue;
            }
            if !is_local && topo.next_hop[node][flit.dst] != out {
                continue;
            }
            router.rr[out] = (in_port + 1) % n_inputs;
            return Some((in_port, vc));
        }
    }
    None
}

/// Books one ejected flit into the packet slab and traffic counters,
/// returning the delivery when it was the packet's last flit.
fn eject_flit(
    packets: &mut Slab<PacketMeta>,
    counters: &mut TrafficCounters,
    node: usize,
    flit: Flit,
    cycle: u64,
) -> Option<Delivered> {
    let meta = packets.get_mut(flit.packet).expect("packet meta exists");
    meta.received += 1;
    if meta.received == meta.flits {
        // Deferred: the slot stays unissuable until the next step so
        // callers can key side tables by packet index across the
        // inter-step delivery-processing window.
        let meta = packets.remove_deferred(flit.packet).expect("just seen");
        debug_assert_eq!(meta.dst, node);
        counters.packets += 1;
        counters.total_latency += cycle - meta.injected_at;
        counters.class_packets[meta.class.vc()] += 1;
        counters.class_latency[meta.class.vc()] += cycle - meta.injected_at;
        Some(Delivered {
            packet: flit.packet,
            class: meta.class,
            src: meta.src,
            dst: meta.dst,
            injected_at: meta.injected_at,
            delivered_at: cycle,
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_single(kind: TopologyKind, class: MessageClass) -> u64 {
        let mut net = Network::new(NocConfig::pod_64(kind));
        let src = net.core_endpoints()[0];
        let dst = *net.llc_endpoints().last().expect("has llc endpoints");
        net.inject(src, dst, class, 0, 0);
        let done = net.drain(10_000);
        assert_eq!(done.len(), 1);
        done[0].latency()
    }

    #[test]
    fn single_request_latency_tracks_zero_load() {
        for kind in [
            TopologyKind::Mesh,
            TopologyKind::FlattenedButterfly,
            TopologyKind::NocOut,
        ] {
            let cfg = NocConfig::pod_64(kind);
            let net = Network::new(cfg);
            let src = net.core_endpoints()[0];
            let dst = *net.llc_endpoints().last().expect("has llc");
            let zero_load = net.topology().zero_load_latency(src, dst);
            let measured = run_single(kind, MessageClass::Request);
            // Measured = zero-load + injection + ejection cycles.
            assert!(
                measured >= u64::from(zero_load) && measured <= u64::from(zero_load) + 4,
                "{kind:?}: measured {measured} vs zero-load {zero_load}"
            );
        }
    }

    #[test]
    fn traced_packet_spans_sum_to_latency() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        net.enable_packet_tracing();
        let src = net.core_endpoints()[0];
        let dst = *net.llc_endpoints().last().expect("has llc endpoints");
        let id = net.inject(src, dst, MessageClass::Response, 0, 0);
        net.trace_packet(id);
        let done = net.drain(10_000);
        assert_eq!(done.len(), 1);
        let spans = net.take_packet_trace(&done[0]).expect("traced");
        assert_eq!(
            spans.inject + spans.route + spans.eject,
            done[0].latency(),
            "{spans:?}"
        );
        assert!(spans.route > 0, "multi-hop trip crosses the fabric");
        assert_eq!(net.take_packet_trace(&done[0]), None, "consumed");
    }

    #[test]
    fn self_injection_attributes_everything_to_ejection() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        net.enable_packet_tracing();
        let node = net.core_endpoints()[0];
        let id = net.inject(node, node, MessageClass::Request, 0, 0);
        net.trace_packet(id);
        let done = net.drain(10_000);
        assert_eq!(done.len(), 1);
        let spans = net.take_packet_trace(&done[0]).expect("traced");
        assert_eq!(spans.inject + spans.route + spans.eject, done[0].latency());
        assert_eq!(spans.route, 0, "never touched the fabric: {spans:?}");
    }

    #[test]
    fn untraced_packets_yield_no_spans() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        let src = net.core_endpoints()[0];
        let dst = net.llc_endpoints()[0];
        // Not armed: marking is a no-op, delivery yields nothing.
        let id = net.inject(src, dst, MessageClass::Request, 0, 0);
        net.trace_packet(id);
        let done = net.drain(10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(net.take_packet_trace(&done[0]), None);
        // Armed but unmarked packets also stay invisible.
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        net.enable_packet_tracing();
        net.inject(src, dst, MessageClass::Request, 0, 0);
        let done = net.drain(10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(net.take_packet_trace(&done[0]), None);
    }

    #[test]
    fn responses_pay_serialization() {
        let req = run_single(TopologyKind::Mesh, MessageClass::Request);
        let resp = run_single(TopologyKind::Mesh, MessageClass::Response);
        // A 5-flit response's tail trails the head by 4 cycles.
        assert_eq!(resp, req + 4);
    }

    #[test]
    fn narrow_links_stretch_responses() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh).with_link_bits(32));
        let src = net.core_endpoints()[0];
        let dst = net.llc_endpoints()[63];
        net.inject(src, dst, MessageClass::Response, 0, 0);
        let done = net.drain(10_000);
        let wide = run_single(TopologyKind::Mesh, MessageClass::Response);
        assert!(done[0].latency() > wide + 10);
    }

    #[test]
    fn all_packets_are_delivered_under_load() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::NocOut));
        let cores: Vec<usize> = net.core_endpoints().to_vec();
        let llcs: Vec<usize> = net.llc_endpoints().to_vec();
        let mut expected = 0;
        for cycle in 0..120u64 {
            for (i, &c) in cores.iter().enumerate() {
                if (cycle as usize + i).is_multiple_of(7) {
                    let dst = llcs[(i * 31 + cycle as usize) % llcs.len()];
                    net.inject(c, dst, MessageClass::Request, 0, cycle);
                    expected += 1;
                }
            }
            net.step(cycle);
        }
        let mut got = net.counters().packets;
        let done = net.drain(50_000);
        got += done.len() as u64;
        // counters().packets already includes drained ones; recompute:
        let total = net.counters().packets;
        assert_eq!(total, expected, "lost packets: {got}");
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn responses_beat_requests_under_contention() {
        // Saturate one LLC tile with requests, then send a response
        // through the same column: the response's VC has priority.
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        let dst = net.llc_endpoints()[0];
        for src in net.core_endpoints().to_vec() {
            if src != dst {
                net.inject(src, dst, MessageClass::Request, 0, 0);
            }
        }
        let far = net.core_endpoints()[63];
        let resp = net.inject(far, dst, MessageClass::Response, 0, 0);
        let done = net.drain(100_000);
        let resp_done = done.iter().find(|d| d.packet == resp).expect("delivered");
        let worst_req = done
            .iter()
            .filter(|d| d.class == MessageClass::Request)
            .map(Delivered::latency)
            .max()
            .expect("requests delivered");
        assert!(resp_done.latency() < worst_req);
    }

    #[test]
    fn counters_accumulate() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        let src = net.core_endpoints()[0];
        let dst = net.llc_endpoints()[63];
        net.inject(src, dst, MessageClass::Request, 0, 0);
        net.drain(1000);
        let c = net.counters();
        assert_eq!(c.packets, 1);
        assert_eq!(c.flit_hops, 14); // corner-to-corner hop count
        assert!(c.flit_mm > 0.0);
        assert!(c.mean_latency() > 0.0);
    }

    #[test]
    fn per_class_counters_partition_the_totals() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        let src = net.core_endpoints()[0];
        let dst = net.llc_endpoints()[63];
        net.inject(src, dst, MessageClass::Request, 0, 0);
        net.inject(dst, src, MessageClass::Response, 0, 0);
        net.inject(dst, src, MessageClass::SnoopRequest, 0, 0);
        net.drain(10_000);
        let c = net.counters();
        assert_eq!(c.class_packets.iter().sum::<u64>(), c.packets);
        assert_eq!(c.class_flit_hops.iter().sum::<u64>(), c.flit_hops);
        assert_eq!(c.class_latency.iter().sum::<u64>(), c.total_latency);
        assert_eq!(c.class_packets[MessageClass::Request.vc()], 1);
        // Responses are 5 flits on 128-bit links, requests 1.
        assert_eq!(
            c.class_flit_hops[MessageClass::Response.vc()],
            5 * c.class_flit_hops[MessageClass::Request.vc()]
        );
        assert!(c.class_mean_latency(MessageClass::Response) > 0.0);
    }

    #[test]
    fn counters_export_named_metrics() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        let src = net.core_endpoints()[0];
        let dst = net.llc_endpoints()[63];
        net.inject(src, dst, MessageClass::Request, 0, 0);
        net.drain(1000);
        let before = net.counters();
        net.inject(src, dst, MessageClass::Response, 0, net.counters().packets);
        net.drain(1000);
        let mut reg = sop_obs::Registry::new();
        net.counters()
            .delta_since(&before)
            .export_metrics(&mut reg, "noc.");
        assert_eq!(reg.counter("noc.packets"), 1);
        assert_eq!(reg.counter("noc.class.response.packets"), 1);
        assert_eq!(reg.counter("noc.class.request.packets"), 0);
        assert!(reg.gauge("noc.mean_latency").expect("gauge") > 0.0);
    }

    #[test]
    fn channel_utilization_is_bounded_and_finds_hot_links() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        let cores = net.core_endpoints().to_vec();
        let dst = net.llc_endpoints()[27]; // a central tile
        let horizon = 3_000u64;
        for cycle in 0..horizon {
            for (i, &c) in cores.iter().enumerate() {
                if (cycle as usize + i).is_multiple_of(20) && c != dst {
                    net.inject(c, dst, MessageClass::Response, 0, cycle);
                }
            }
            net.step(cycle);
        }
        let max = net.max_channel_utilization(horizon);
        assert!(
            max > 0.1,
            "hot-spotted traffic should load some channel: {max}"
        );
        assert!(
            max <= 1.0,
            "no channel can exceed one flit per cycle: {max}"
        );
        // Channels into the destination tile must be among the hottest.
        let hot: Vec<_> = net
            .channel_utilization(horizon)
            .into_iter()
            .filter(|&(_, _, u)| u > max * 0.9)
            .collect();
        assert!(!hot.is_empty());
    }

    #[test]
    fn pod_networks_are_not_congested_under_realistic_load() {
        // §4.4.1: differences in latency, not bandwidth, drive the fabric
        // comparison. At pod-like injection rates no channel saturates.
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::NocOut));
        let cores = net.core_endpoints().to_vec();
        let llcs = net.llc_endpoints().to_vec();
        let horizon = 4_000u64;
        for cycle in 0..horizon {
            for (i, &c) in cores.iter().enumerate() {
                if (cycle as usize + 3 * i).is_multiple_of(35) {
                    let dst = llcs[(i * 13 + cycle as usize) % llcs.len()];
                    if dst != c {
                        net.inject(c, dst, MessageClass::Request, 0, cycle);
                        net.inject(dst, c, MessageClass::Response, 0, cycle);
                    }
                }
            }
            net.step(cycle);
        }
        assert!(net.max_channel_utilization(horizon) < 0.85);
    }

    #[test]
    fn crossbar_and_ideal_fabrics_work() {
        for kind in [TopologyKind::Crossbar, TopologyKind::Ideal] {
            let lat = run_single(kind, MessageClass::Request);
            assert!(lat > 0 && lat < 20, "{kind:?}: {lat}");
        }
    }

    #[test]
    fn dead_router_forces_a_deterministic_detour() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        let baseline = net.topology().hops(0, 63);
        // Kill a router on the pristine XY path from corner 0 to corner
        // 63 (X-first along row 0: node 1 is the first hop).
        let health = net.fail_router(1);
        assert!(!health.is_partitioned());
        assert!(net.router_is_dead(1));
        assert!(net.topology().routes(0, 63));
        net.inject(0, 63, MessageClass::Request, 0, 0);
        let done = net.drain(10_000);
        assert_eq!(done.len(), 1, "detoured packet must still deliver");
        // The detour never transits the dead router and costs at most two
        // extra hops in a mesh.
        assert!(net.topology().hops(0, 63) <= baseline + 2);
        let path_avoids_dead = {
            let topo = net.topology();
            let mut at = 0;
            let mut ok = true;
            while at != 63 {
                let port = topo.next_hop[at][63];
                at = topo.channels[at][port].to;
                ok &= at != 1;
            }
            ok
        };
        assert!(path_avoids_dead);
    }

    #[test]
    fn dead_link_reroutes_and_restore_heals() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        let topo = net.topology().clone();
        let east = topo.next_hop[0][1];
        let health = net.fail_link(0, east);
        assert!(!health.is_partitioned());
        // 0 -> 1 must now leave through a different port but still route.
        assert_ne!(net.topology().next_hop[0][1], east);
        net.inject(0, 1, MessageClass::Request, 0, 0);
        assert_eq!(net.drain(10_000).len(), 1);
        // Restoring the link brings the original table back.
        net.restore_link(0, east);
        assert_eq!(net.topology().next_hop[0][1], east);
    }

    #[test]
    fn severed_fabric_reports_a_partition_instead_of_hanging() {
        // 2x2 mesh: killing routers 1 and 2 isolates node 0 from node 3.
        let mut net = Network::new(NocConfig {
            topology: TopologyKind::Mesh,
            cores: 4,
            llc_tiles: 4,
            link_bits: 128,
            vc_depth: 5,
            tile_mm: 1.0,
            hub_cycles: 3,
        });
        assert!(!net.fail_router(1).is_partitioned());
        let health = net.fail_router(2);
        assert!(health.is_partitioned());
        assert!(health.unreachable.contains(&(0, 3)));
        assert!(health.unreachable.contains(&(3, 0)));
        assert!(!net.topology().routes(0, 3));
    }

    #[test]
    fn degraded_link_stretches_latency_without_losing_packets() {
        let mut healthy = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        let mut faulty = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        // Degrade every outgoing channel of node 0 so no detour escapes
        // the slowdown.
        for port in 0..faulty.topology().channels[0].len() {
            faulty.degrade_link(0, port);
        }
        for net in [&mut healthy, &mut faulty] {
            net.inject(0, 63, MessageClass::Request, 0, 0);
        }
        let h = healthy.drain(10_000)[0].latency();
        let f = faulty.drain(10_000)[0].latency();
        assert!(f > h, "degraded {f} vs healthy {h}");
    }

    #[test]
    fn same_faults_produce_identical_routing_tables() {
        let build = || {
            let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
            net.fail_router(27);
            net.fail_link(0, 0);
            net.degrade_router(9);
            net
        };
        let a = build();
        let b = build();
        assert_eq!(a.topology().next_hop, b.topology().next_hop);
    }

    #[test]
    #[should_panic(expected = "idle fabric")]
    fn faults_on_a_busy_fabric_panic() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        net.inject(0, 63, MessageClass::Request, 0, 0);
        net.fail_router(5);
    }

    #[test]
    fn self_injection_delivers_locally() {
        let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
        let node = net.core_endpoints()[0];
        let id = net.inject(node, node, MessageClass::Request, 0, 0);
        let done = net.drain(100);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].packet, id);
        assert!(done[0].latency() <= 2, "local delivery is near-free");
    }
}
