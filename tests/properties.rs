//! Property-based tests (proptest) over the core data structures and
//! model invariants.

use proptest::prelude::*;
use scale_out_processors::core::PodConfig;
use scale_out_processors::exec::heartbeat::{read_events, snapshot};
use scale_out_processors::model::{DesignPoint, Interconnect};
use scale_out_processors::noc::slab::Slab;
use scale_out_processors::noc::{MessageClass, Network, NocConfig, TopologyKind};
use scale_out_processors::obs::{json, Json};
use scale_out_processors::sim::{DirectoryState, LlcBank};
use scale_out_processors::tco::estimated_price_usd;
use scale_out_processors::tech::{CacheGeometry, CoreKind, TechnologyNode};
use scale_out_processors::threed::{Pod3d, StackStrategy};
use scale_out_processors::workloads::{Workload, WorkloadProfile};

/// The LLC bank as it was before sets kept their recency order in one
/// word: a last-use stamp per way (the bank's access count at the last
/// touch), the victim found by a minimum scan over the stamps, and
/// swap-remove on eviction. Kept as a reference model only.
mod stamp_lru {
    use scale_out_processors::sim::cache::{BankOutcome, MAX_SHARERS};
    use scale_out_processors::sim::DirectoryState;

    pub struct Bank {
        tags: Vec<u64>,
        last_use: Vec<u64>,
        dirs: Vec<DirectoryState>,
        len: Vec<u8>,
        ways: usize,
        pub accesses: u64,
        pub misses: u64,
        pub snoops: u64,
        tick: u64,
    }

    impl Bank {
        pub fn new(capacity_bytes: u64, ways: usize) -> Self {
            let sets = (capacity_bytes / 64 / ways as u64).max(1) as usize;
            Bank {
                tags: vec![0; sets * ways],
                last_use: vec![0; sets * ways],
                dirs: vec![DirectoryState::Owned(0); sets * ways],
                len: vec![0; sets],
                ways,
                accesses: 0,
                misses: 0,
                snoops: 0,
                tick: 0,
            }
        }

        fn set_of(&self, line: u64) -> usize {
            let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
            (h % self.len.len() as u64) as usize
        }

        pub fn access(&mut self, core: u32, line: u64, write: bool) -> BankOutcome {
            self.accesses += 1;
            self.tick += 1;
            let tick = self.tick;
            let ways = self.ways;
            let set_idx = self.set_of(line);
            let base = set_idx * ways;
            let mut n = usize::from(self.len[set_idx]);
            if let Some(i) = self.tags[base..base + n].iter().position(|&t| t == line) {
                let w = base + i;
                self.last_use[w] = tick;
                let snoop = match (self.dirs[w], write) {
                    (
                        DirectoryState::Shared {
                            mut count,
                            mut cores,
                        },
                        false,
                    ) => {
                        if !cores[..usize::from(count)].contains(&core) {
                            if usize::from(count) < MAX_SHARERS {
                                cores[usize::from(count)] = core;
                                count += 1;
                            } else {
                                cores.copy_within(1.., 0);
                                cores[MAX_SHARERS - 1] = core;
                            }
                        }
                        self.dirs[w] = DirectoryState::Shared { count, cores };
                        Vec::new()
                    }
                    (DirectoryState::Shared { count, cores }, true) => {
                        self.dirs[w] = DirectoryState::Owned(core);
                        cores[..usize::from(count)]
                            .iter()
                            .copied()
                            .filter(|&s| s != core)
                            .collect()
                    }
                    (DirectoryState::Owned(prev), _) if prev == core => Vec::new(),
                    (DirectoryState::Owned(prev), _) => {
                        self.dirs[w] = if write {
                            DirectoryState::Owned(core)
                        } else {
                            let mut cores = [0; MAX_SHARERS];
                            cores[0] = prev;
                            cores[1] = core;
                            DirectoryState::Shared { count: 2, cores }
                        };
                        vec![prev]
                    }
                };
                self.snoops += snoop.len() as u64;
                return BankOutcome::Hit { snoop };
            }
            self.misses += 1;
            let mut writeback = false;
            if n >= ways {
                let lru = (0..n)
                    .min_by_key(|&i| self.last_use[base + i])
                    .expect("set is non-empty");
                writeback = matches!(self.dirs[base + lru], DirectoryState::Owned(_));
                let last = base + n - 1;
                self.tags[base + lru] = self.tags[last];
                self.last_use[base + lru] = self.last_use[last];
                self.dirs[base + lru] = self.dirs[last];
                n -= 1;
            }
            let w = base + n;
            self.tags[w] = line;
            self.last_use[w] = tick;
            self.dirs[w] = if write {
                DirectoryState::Owned(core)
            } else {
                let mut cores = [0; MAX_SHARERS];
                cores[0] = core;
                DirectoryState::Shared { count: 1, cores }
            };
            self.len[set_idx] = (n + 1) as u8;
            BankOutcome::Miss { writeback }
        }

        pub fn clear(&mut self) -> u64 {
            let lines = self.len.iter().map(|&l| u64::from(l)).sum();
            self.len.iter_mut().for_each(|l| *l = 0);
            lines
        }
    }
}

fn any_workload() -> impl Strategy<Value = Workload> {
    prop::sample::select(Workload::ALL.to_vec())
}

fn any_core_kind() -> impl Strategy<Value = CoreKind> {
    prop::sample::select(CoreKind::ALL.to_vec())
}

proptest! {
    // Network-building cases are expensive; 48 cases per property keeps
    // the suite fast while still exploring the space.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The network never loses or duplicates packets, whatever the
    /// injection pattern.
    #[test]
    fn noc_conserves_packets(
        seed in 0u64..1000,
        kind in prop::sample::select(vec![
            TopologyKind::Mesh,
            TopologyKind::NocOut,
            TopologyKind::Crossbar,
        ]),
        n_packets in 1usize..120,
    ) {
        let mut net = Network::new(NocConfig::pod_64(kind));
        let cores = net.core_endpoints().to_vec();
        let llcs = net.llc_endpoints().to_vec();
        let mut state = seed;
        let mut injected = 0u64;
        for i in 0..n_packets {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let src = cores[(state >> 33) as usize % cores.len()];
            let dst = llcs[(state >> 17) as usize % llcs.len()];
            let class = MessageClass::ALL[i % 3];
            net.inject(src, dst, class, 0);
            injected += 1;
        }
        let delivered = net.drain(200_000);
        prop_assert_eq!(delivered.len() as u64, injected);
        prop_assert_eq!(net.in_flight(), 0);
        // No duplicates.
        let mut ids: Vec<_> = delivered.iter().map(|d| d.packet).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, injected);
    }

    /// Sweeping only the routers that hold flits changes nothing. Two
    /// networks get the same random traffic, one stepped with `step`
    /// and one with `step_full`, which sweeps every router; they must
    /// deliver the same packets at the same cycles and move the same
    /// flits over every channel. A small destination set congests the
    /// fabric until credits run out, so routers drain and refill.
    #[test]
    fn noc_worklist_matches_full_sweep(
        seed in 0u64..1000,
        kind in prop::sample::select(vec![
            TopologyKind::Mesh,
            TopologyKind::FlattenedButterfly,
            TopologyKind::NocOut,
            TopologyKind::Crossbar,
            TopologyKind::Ideal,
        ]),
        per_cycle in 1usize..6,
        hot in 1usize..16,
        cycles in 10u64..120,
    ) {
        let mut fast = Network::new(NocConfig::pod_64(kind));
        let mut reference = Network::new(NocConfig::pod_64(kind));
        let cores = fast.core_endpoints().to_vec();
        let llcs = fast.llc_endpoints().to_vec();
        let mut state = seed;
        let mut cycle = 0;
        while cycle < cycles || fast.in_flight() + reference.in_flight() > 0 {
            prop_assert!(cycle < 100_000, "traffic never drained");
            for i in 0..if cycle < cycles { per_cycle } else { 0 } {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let core = cores[(state >> 33) as usize % cores.len()];
                let llc = llcs[(state >> 17) as usize % llcs.len().min(hot)];
                let (src, dst) = if (state >> 60) & 1 == 0 { (core, llc) } else { (llc, core) };
                let class = MessageClass::ALL[i % 3];
                prop_assert_eq!(
                    fast.inject(src, dst, class, cycle),
                    reference.inject(src, dst, class, cycle)
                );
            }
            prop_assert_eq!(fast.step(cycle), reference.step_full(cycle), "cycle {}", cycle);
            cycle += 1;
        }
        prop_assert_eq!(fast.counters(), reference.counters());
        prop_assert_eq!(fast.channel_utilization(cycle), reference.channel_utilization(cycle));
    }

    /// Directory coherence: after any access sequence, a write leaves the
    /// line owned by the writer, and stats never overcount.
    #[test]
    fn llc_bank_directory_invariants(
        ops in prop::collection::vec((0u32..8, 0u64..200, prop::bool::ANY), 1..300)
    ) {
        let mut bank = LlcBank::new(64 * 64, 4); // small: forces evictions
        // Track the last access of each line; only a line whose final
        // access was a write is guaranteed to be exclusively owned.
        let mut last_access = std::collections::HashMap::new();
        for &(core, line, write) in &ops {
            bank.access(core, line, write);
            last_access.insert(line, (core, write));
        }
        let (acc, miss) = (bank.accesses(), bank.misses());
        prop_assert_eq!(acc, ops.len() as u64);
        prop_assert!(miss <= acc);
        // Re-writing a line as its most recent (writing) accessor never
        // snoops anyone: single-owner invariant.
        for (&line, &(core, write)) in last_access.iter().take(8) {
            if !write {
                continue;
            }
            match bank.access(core, line, true) {
                scale_out_processors::sim::cache::BankOutcome::Hit { snoop } => {
                    prop_assert!(snoop.is_empty(), "owner re-write snooped {snoop:?}")
                }
                scale_out_processors::sim::cache::BankOutcome::Miss { .. } => {}
            }
        }
    }

    /// Recency-ordered LLC sets agree with the per-way-stamp bank they
    /// replaced ([`stamp_lru::Bank`]) on every outcome — snoop order
    /// included — and every counter, at 1, 4 and 16 ways, for up to 64
    /// cores reading and writing a few lines per set (heavy conflict),
    /// with every resident line dropped half-way through the stream.
    #[test]
    fn llc_bank_matches_stamp_reference(
        sets in prop::sample::select(vec![1u64, 2, 8]),
        lines_per_set in prop::sample::select(vec![2u64, 5, 24]),
        ops in prop::collection::vec((0u32..64, 0u64..u64::MAX, prop::bool::ANY), 1..600)
    ) {
        use scale_out_processors::sim::cache::BankOutcome;
        for ways in [1usize, 4, 16] {
            let capacity = sets * ways as u64 * 64;
            let mut bank = LlcBank::new(capacity, ways);
            let mut reference = stamp_lru::Bank::new(capacity, ways);
            let distinct = sets * lines_per_set * ways as u64;
            for (i, &(core, raw, write)) in ops.iter().enumerate() {
                if i == ops.len() / 2 {
                    prop_assert_eq!(bank.clear(), reference.clear(), "op {}", i);
                }
                let line = raw % distinct;
                let got: BankOutcome = bank.access(core, line, write);
                prop_assert_eq!(got, reference.access(core, line, write), "ways {} op {}", ways, i);
            }
            prop_assert_eq!(
                (bank.accesses(), bank.misses(), bank.snoops()),
                (reference.accesses, reference.misses, reference.snoops)
            );
        }
    }

    /// Directory states are well-formed: shared lists never contain
    /// duplicates (checked via the public API by re-reading).
    #[test]
    fn repeated_reads_do_not_duplicate_sharers(core in 0u32..6, line in 0u64..50) {
        let mut bank = LlcBank::new(1 << 16, 16);
        for _ in 0..5 {
            bank.access(core, line, false);
        }
        // A write by another core snoops `core` exactly once.
        match bank.access(core + 100, line, true) {
            scale_out_processors::sim::cache::BankOutcome::Hit { snoop } => {
                let hits = snoop.iter().filter(|&&c| c == core).count();
                prop_assert_eq!(hits, 1);
            }
            _ => prop_assert!(false, "line must be resident"),
        }
        let _ = DirectoryState::Owned(0); // type is exercised above
    }

    /// The analytic model is monotone: more network latency never helps,
    /// and the ideal fabric upper-bounds every realizable one.
    #[test]
    fn model_latency_monotonicity(
        w in any_workload(),
        kind in any_core_kind(),
        // From 4 cores up: a 1-2 tile "mesh" degenerates to a wire and
        // legitimately beats the fixed-4-cycle ideal fabric.
        cores_pow in 2u32..8,
        llc in prop::sample::select(vec![1.0, 2.0, 4.0, 8.0]),
    ) {
        let cores = 1u32 << cores_pow;
        for ic in [Interconnect::Crossbar, Interconnect::Mesh] {
            let real = DesignPoint::new(kind, cores, llc, ic).evaluate(w);
            // Compare against an ideal fabric with the SAME banking, so
            // only network latency differs.
            let banks = DesignPoint::new(kind, cores, llc, ic).llc_banks;
            let ideal = DesignPoint::new(kind, cores, llc, Interconnect::Ideal)
                .with_banks(banks)
                .evaluate(w);
            prop_assert!(real.per_core_ipc <= ideal.per_core_ipc * 1.0001,
                "{ic} beat ideal at {cores} cores");
            prop_assert!(real.per_core_ipc > 0.0);
        }
    }

    /// Miss curves are monotone non-increasing in capacity and
    /// non-decreasing in sharer count.
    #[test]
    fn miss_curve_monotonicity(
        w in any_workload(),
        c1 in 1.0f64..32.0,
        c2 in 1.0f64..32.0,
        n1 in 1u32..256,
        n2 in 1u32..256,
    ) {
        let (lo_c, hi_c) = if c1 < c2 { (c1, c2) } else { (c2, c1) };
        let (lo_n, hi_n) = if n1 < n2 { (n1, n2) } else { (n2, n1) };
        let curve = WorkloadProfile::of(w).miss_curve;
        prop_assert!(curve.misses_per_kilo_instr(hi_c, lo_n)
            <= curve.misses_per_kilo_instr(lo_c, lo_n) + 1e-12);
        prop_assert!(curve.misses_per_kilo_instr(lo_c, hi_n) + 1e-12
            >= curve.misses_per_kilo_instr(lo_c, lo_n));
    }

    /// Pod metrics are internally consistent: PD equals aggregate over
    /// area, and both components are positive.
    #[test]
    fn pod_metrics_consistency(
        kind in any_core_kind(),
        cores_pow in 0u32..8,
        llc in prop::sample::select(vec![1.0, 2.0, 4.0, 8.0]),
    ) {
        let m = PodConfig::new(kind, 1 << cores_pow, llc, Interconnect::Crossbar).metrics();
        prop_assert!(m.area_mm2 > 0.0 && m.aggregate_ipc > 0.0);
        prop_assert!((m.performance_density - m.aggregate_ipc / m.area_mm2).abs() < 1e-12);
    }

    /// Cache bank latency is monotone in capacity.
    #[test]
    fn bank_latency_monotone(a in 0.01f64..64.0, b in 0.01f64..64.0) {
        let g = CacheGeometry::new();
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(g.bank_latency_cycles(lo) <= g.bank_latency_cycles(hi));
    }

    /// Chip price falls with volume and rises with die area.
    #[test]
    fn price_monotonicity(
        die in 50.0f64..400.0,
        v1 in 10_000.0f64..2_000_000.0,
        v2 in 10_000.0f64..2_000_000.0,
    ) {
        let (lo_v, hi_v) = if v1 < v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(estimated_price_usd(die, hi_v) <= estimated_price_usd(die, lo_v));
        prop_assert!(estimated_price_usd(die + 50.0, lo_v) > estimated_price_usd(die, lo_v));
    }

    /// 3D identities: footprint x dies equals total silicon, and one die
    /// reduces PD3D to plain perf/area.
    #[test]
    fn pod3d_identities(
        kind in any_core_kind(),
        dies in 1u32..5,
        strategy in prop::sample::select(vec![
            StackStrategy::FixedPod,
            StackStrategy::FixedDistance,
        ]),
    ) {
        let pod = Pod3d::new(kind, 16, 2.0, dies, strategy);
        let m = pod.metrics();
        prop_assert!(
            (m.footprint_mm2 * f64::from(dies) - pod.total_area_mm2()).abs() < 1e-9
        );
        if dies == 1 {
            prop_assert!(
                (m.performance_density_3d - m.aggregate_ipc / m.footprint_mm2).abs() < 1e-12
            );
        }
    }

    /// Software efficiency is in (0, 1] and non-increasing in cores.
    #[test]
    fn scalability_efficiency_bounds(w in any_workload(), n in 1u32..512) {
        let s = WorkloadProfile::of(w).scalability;
        let e = s.efficiency(n);
        prop_assert!(e > 0.0 && e <= 1.0);
        prop_assert!(s.efficiency(n.saturating_mul(2).max(n)) <= e + 1e-12);
    }

    /// Traffic curves are monotone non-increasing in LLC capacity.
    #[test]
    fn traffic_monotone(w in any_workload(), c1 in 0.5f64..64.0, c2 in 0.5f64..64.0) {
        let (lo, hi) = if c1 < c2 { (c1, c2) } else { (c2, c1) };
        let t = WorkloadProfile::of(w).traffic;
        prop_assert!(t.bytes_per_instr(hi) <= t.bytes_per_instr(lo) + 1e-12);
    }

    /// Delivered packet latency is never below the topology's zero-load
    /// latency plus serialization.
    #[test]
    fn noc_latency_lower_bound(
        kind in prop::sample::select(vec![
            TopologyKind::Mesh,
            TopologyKind::NocOut,
            TopologyKind::FlattenedButterfly,
        ]),
        core_sel in 0usize..64,
        llc_sel in 0usize..64,
        class in prop::sample::select(MessageClass::ALL.to_vec()),
    ) {
        let mut net = Network::new(NocConfig::pod_64(kind));
        let src = net.core_endpoints()[core_sel % net.core_endpoints().len()];
        let dst = net.llc_endpoints()[llc_sel % net.llc_endpoints().len()];
        prop_assume!(src != dst);
        let zero_load = net.topology().zero_load_latency(src, dst);
        let serialization = class.flits(net.config().link_bits) - 1;
        let id = net.inject(src, dst, class, 0);
        let done = net.drain(100_000);
        let d = done.iter().find(|d| d.packet == id).expect("delivered");
        prop_assert!(d.latency() >= u64::from(zero_load + serialization));
    }

    /// Slab keys never alias: whatever interleaving of inserts and
    /// removes runs, a key handed out for a since-removed value sees
    /// nothing, even when its slot has been recycled many times over.
    #[test]
    fn slab_generation_reuse_never_aliases(
        ops in prop::collection::vec((prop::bool::ANY, 0usize..8), 1..200)
    ) {
        let mut slab = Slab::new();
        let mut live: Vec<(scale_out_processors::noc::slab::Key, u64)> = Vec::new();
        let mut dead: Vec<scale_out_processors::noc::slab::Key> = Vec::new();
        let mut stamp = 0u64;
        for &(insert, pick) in &ops {
            if insert || live.is_empty() {
                stamp += 1;
                live.push((slab.insert(stamp), stamp));
            } else {
                let (key, _) = live.swap_remove(pick % live.len());
                prop_assert!(slab.remove(key).is_some());
                dead.push(key);
            }
            // Every live key reads exactly its own value…
            for &(key, value) in &live {
                prop_assert_eq!(slab.get(key), Some(&value));
            }
            // …and every retired key reads nothing, forever.
            for &key in &dead {
                prop_assert_eq!(slab.get(key), None);
                prop_assert!(!slab.contains(key));
            }
            prop_assert_eq!(slab.len(), live.len());
        }
    }

    /// The slab agrees with a HashMap oracle under random packet
    /// inject/deliver traffic, including deferred slot reclaim at step
    /// boundaries (the network's usage pattern).
    #[test]
    fn slab_matches_hashmap_oracle(
        steps in prop::collection::vec(
            prop::collection::vec((prop::bool::ANY, 0u64..1_000_000), 0..12),
            1..30,
        )
    ) {
        let mut slab = Slab::new();
        let mut oracle = std::collections::HashMap::new();
        let mut keys: Vec<scale_out_processors::noc::slab::Key> = Vec::new();
        for step in &steps {
            slab.reclaim_deferred();
            for &(inject, payload) in step {
                if inject || keys.is_empty() {
                    let key = slab.insert(payload);
                    oracle.insert(key, payload);
                    keys.push(key);
                } else {
                    // Deliver the oldest in-flight packet, FIFO-ish.
                    let key = keys.remove(payload as usize % keys.len());
                    prop_assert_eq!(slab.remove_deferred(key), oracle.remove(&key));
                }
            }
            prop_assert_eq!(slab.len(), oracle.len());
            for (&key, value) in &oracle {
                prop_assert_eq!(slab.get(key), Some(value));
            }
        }
    }

    /// The whole machine is deterministic: identical configurations give
    /// identical results.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..50) {
        use scale_out_processors::sim::{Machine, SimConfig};
        let mut cfg = SimConfig::validation(
            scale_out_processors::workloads::Workload::MapReduceW,
            4,
            TopologyKind::Crossbar,
        );
        cfg.seed = seed;
        let a = Machine::new(cfg).run(500, 1_500);
        let b = Machine::new(cfg).run(500, 1_500);
        prop_assert_eq!(a.instructions, b.instructions);
        prop_assert_eq!(a.llc_accesses, b.llc_accesses);
        prop_assert_eq!(a.snoops, b.snoops);
    }

    /// Histogram invariants: the mean lies within [0, max], quantiles are
    /// monotone in q, and merging preserves counts.
    #[test]
    fn histogram_invariants(samples in prop::collection::vec(0u64..100_000, 1..200)) {
        use scale_out_processors::sim::Histogram;
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let max = *samples.iter().max().expect("non-empty");
        prop_assert_eq!(h.max(), max);
        prop_assert!(h.mean() <= max as f64);
        let mut prev = 0;
        for q in [0.1, 0.5, 0.9, 1.0] {
            let v = h.quantile_upper(q);
            prop_assert!(v >= prev);
            prev = v;
        }
        prop_assert!(h.quantile_upper(1.0) >= max);
    }

    /// Merging split histograms is lossless: recording a sample stream
    /// into k shards and merging them yields exactly the histogram of
    /// recording the whole stream into one — same counts, same sum, same
    /// quantiles at every q. (Merge is a bucket-wise add, so this is an
    /// identity, not an approximation; it is what makes per-window
    /// `sim.txn.*` exports safe to aggregate across reports.)
    #[test]
    fn histogram_merge_matches_single_recording(
        samples in prop::collection::vec(0u64..1_000_000, 1..300),
        shards in 1usize..6,
    ) {
        use scale_out_processors::obs::Histogram;
        let mut single = Histogram::new();
        for &s in &samples {
            single.record(s);
        }
        let mut parts = vec![Histogram::new(); shards];
        for (i, &s) in samples.iter().enumerate() {
            parts[i % shards].record(s);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged.count(), single.count());
        prop_assert_eq!(merged.sum(), single.sum());
        prop_assert_eq!(merged.max(), single.max());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(
                merged.try_quantile_upper(q),
                single.try_quantile_upper(q),
                "q={}", q
            );
        }
    }

    /// Pareto frontier properties: nothing on the frontier is dominated,
    /// and everything off it is dominated by something on it.
    #[test]
    fn pareto_frontier_is_sound(
        points in prop::collection::vec((0.01f64..10.0, 0.01f64..10.0), 1..40)
    ) {
        use scale_out_processors::core::{pareto_frontier, FrontierPoint};
        let pts: Vec<FrontierPoint> = points
            .iter()
            .enumerate()
            .map(|(i, &(pd, ppw))| FrontierPoint {
                label: format!("p{i}"),
                performance_density: pd,
                perf_per_watt: ppw,
            })
            .collect();
        let frontier = pareto_frontier(&pts);
        prop_assert!(!frontier.is_empty());
        for f in &frontier {
            prop_assert!(!pts.iter().any(|q| q.dominates(f)));
        }
        for p in &pts {
            let on_frontier = frontier.iter().any(|f| {
                f.performance_density == p.performance_density
                    && f.perf_per_watt == p.perf_per_watt
            });
            if !on_frontier {
                prop_assert!(frontier.iter().any(|f| f.dominates(p)));
            }
        }
    }

    /// Zipf sampling stays in range and is monotone in the uniform draw.
    #[test]
    fn zipf_is_monotone_and_bounded(n in 1u64..1_000_000, s in 0.0f64..0.99) {
        use scale_out_processors::workloads::ZipfSampler;
        let z = ZipfSampler::new(n, s);
        let mut prev = 0;
        for i in 0..=20 {
            let u = f64::from(i) / 20.0;
            let idx = z.index(u);
            prop_assert!(idx < n);
            prop_assert!(idx >= prev);
            prev = idx;
        }
    }

    /// Fleet conservation: in every reporting window, served plus
    /// dropped plus the change in in-flight backlog exactly tiles the
    /// offered load — the simulator never loses or invents a request,
    /// whatever the fleet size, policy, seed, or fault pressure.
    #[test]
    fn fleet_windows_tile_offered_load(
        servers in 1u32..6,
        per_server_qps in 50u64..5_000,
        policy in prop::sample::select(vec![
            scale_out_processors::fleet::Policy::Drain,
            scale_out_processors::fleet::Policy::Derate,
        ]),
        seed in 0u64..1_000,
        duration in 400u64..1_600,
        window in 50u64..400,
        peak_util in prop::sample::select(vec![0.5, 0.9, 1.2]),
        mtbf in 100u64..2_000,
    ) {
        use scale_out_processors::fleet::{simulate, SimParams};
        let params = SimParams {
            servers,
            per_server_qps,
            policy,
            seed,
            duration_ticks: duration,
            window_ticks: window,
            peak_util,
            mtbf_ticks: mtbf,
            mttr_ticks: (mtbf / 4).max(1),
            deadline_ms: 4_000,
            service_ms: 20,
        };
        let out = simulate(&params);
        let mut ticks = 0u64;
        let mut carried_inflight = 0u64;
        for w in &out.windows {
            // Written addition-only: backlog can shrink over a window.
            prop_assert_eq!(
                w.offered + w.inflight_start,
                w.dropped + w.served + w.inflight_end,
                "window at tick {} does not tile", w.start_tick
            );
            prop_assert_eq!(w.accepted, w.offered - w.dropped);
            prop_assert_eq!(
                w.inflight_start, carried_inflight,
                "windows must chain their backlog"
            );
            carried_inflight = w.inflight_end;
            ticks += w.ticks;
        }
        prop_assert_eq!(ticks, duration, "windows must cover the whole run");
        prop_assert_eq!(carried_inflight, out.totals.inflight_end);
        prop_assert_eq!(
            out.offered(),
            out.served() + out.dropped() + out.totals.inflight_end,
            "run totals must tile once the final backlog is counted"
        );
    }

    /// Node scaling shrinks everything consistently: the same design at
    /// 20nm is smaller and at least as performant per area.
    #[test]
    fn node_scaling_improves_density(
        kind in any_core_kind(),
        cores_pow in 2u32..7,
    ) {
        let cores = 1u32 << cores_pow;
        let at = |node: TechnologyNode| {
            PodConfig::new(kind, cores, 4.0, Interconnect::Crossbar)
                .at_node(node)
                .metrics()
        };
        let m40 = at(TechnologyNode::N40);
        let m20 = at(TechnologyNode::N20);
        prop_assert!(m20.area_mm2 < m40.area_mm2 * 0.3);
        prop_assert!(m20.performance_density > m40.performance_density * 2.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The seeded fleet fault schedule is physically coherent for any
    /// seed and sizing: every strike lands inside the run, no server is
    /// struck again while still under repair (the planner must not
    /// stack faults on a down machine), and the schedule arrives sorted
    /// by (tick, server) as the simulators assume.
    #[test]
    fn fleet_fault_plan_never_overlaps_and_stays_in_bounds(
        seed in 0u64..u64::MAX,
        servers in 1u32..40,
        duration in 100u64..20_000,
        mtbf in 2u64..2_000,
        mttr in 2u64..500,
    ) {
        use scale_out_processors::fleet::FleetFaultPlan;
        let plan = FleetFaultPlan::seeded(seed, servers, duration, mtbf, mttr);
        let faults = plan.faults();
        for pair in faults.windows(2) {
            prop_assert!(
                (pair[0].tick, pair[0].server) <= (pair[1].tick, pair[1].server),
                "schedule must be sorted by (tick, server)"
            );
        }
        let mut down_until = vec![0u64; servers as usize];
        for f in faults {
            prop_assert!(f.server < servers);
            prop_assert!(f.tick < duration, "strike at {} past duration {duration}", f.tick);
            prop_assert!(f.repair_ticks >= 1, "a zero-length fault repairs nothing");
            prop_assert!(
                f.failed_fraction > 0.0 && f.failed_fraction <= 0.5,
                "severity {} outside the drawn set", f.failed_fraction
            );
            prop_assert!(
                f.tick >= down_until[f.server as usize],
                "server {} struck at {} while down until {}",
                f.server, f.tick, down_until[f.server as usize]
            );
            down_until[f.server as usize] = f.tick + f.repair_ticks;
        }
        // Determinism: the same inputs redraw the identical schedule.
        prop_assert_eq!(&plan, &FleetFaultPlan::seeded(seed, servers, duration, mtbf, mttr));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Windowed counter series are mergeable with associative,
    /// order-insensitive semantics: recording a sample stream into k
    /// shards and merging them in any rotation reproduces exactly the
    /// series of recording the whole stream into one. This is what
    /// makes per-worker telemetry safe to aggregate across report rows.
    #[test]
    fn timeseries_merge_is_associative_and_order_insensitive(
        samples in prop::collection::vec((0u64..10_000, 0u64..1_000), 1..200),
        interval in prop::sample::select(vec![1u64, 7, 60, 300]),
        shards in 1usize..5,
        rotate in 0usize..4,
    ) {
        use scale_out_processors::obs::TimeSeries;
        let mut single = TimeSeries::counter(interval);
        for &(tick, n) in &samples {
            single.record_count(tick, n);
        }
        let mut parts = vec![TimeSeries::counter(interval); shards];
        for (i, &(tick, n)) in samples.iter().enumerate() {
            parts[i % shards].record_count(tick, n);
        }
        parts.rotate_left(rotate % shards);
        let mut merged = TimeSeries::counter(interval);
        for p in &parts {
            merged.merge(p).expect("shards share interval and kind");
        }
        prop_assert_eq!(&merged, &single);
        prop_assert_eq!(
            merged.to_json().to_compact_string(),
            single.to_json().to_compact_string()
        );
    }

    /// Downsampling re-buckets without losing mass, and commutes with
    /// merge: aggregate-then-coarsen equals coarsen-then-aggregate.
    #[test]
    fn timeseries_downsample_commutes_with_merge(
        a in prop::collection::vec((0u64..5_000, 0u64..500), 0..100),
        b in prop::collection::vec((0u64..5_000, 0u64..500), 0..100),
        interval in prop::sample::select(vec![1u64, 5, 60]),
        factor in 1u64..8,
    ) {
        use scale_out_processors::obs::TimeSeries;
        let record = |points: &[(u64, u64)]| {
            let mut ts = TimeSeries::counter(interval);
            for &(t, n) in points {
                ts.record_count(t, n);
            }
            ts
        };
        let (sa, sb) = (record(&a), record(&b));
        prop_assert_eq!(sa.downsample(factor).total(), sa.total());
        let mut merged = record(&a);
        merged.merge(&sb).expect("same shape");
        let coarse_of_merge = merged.downsample(factor);
        let mut merge_of_coarse = sa.downsample(factor);
        merge_of_coarse
            .merge(&sb.downsample(factor))
            .expect("same shape");
        prop_assert_eq!(&coarse_of_merge, &merge_of_coarse);
    }

    /// Digest series shard-merge losslessly (bucket-wise histogram
    /// add), and reloading a series set from its JSON form preserves
    /// bucket counts and quantile answers — reloading twice is a fixed
    /// point, which is what lets `sop slo` replay a report's series
    /// section and reach the identical burn-rate verdicts.
    #[test]
    fn digest_series_merge_and_json_reload(
        samples in prop::collection::vec((0u64..3_000, 0u64..100_000), 1..200),
        shards in 1usize..5,
    ) {
        use scale_out_processors::obs::{Histogram, SeriesSet, TimeSeries};
        let interval = 300;
        let mut single = TimeSeries::digest(interval);
        let mut parts = vec![TimeSeries::digest(interval); shards];
        for (i, &(tick, v)) in samples.iter().enumerate() {
            let mut h = Histogram::new();
            h.record(v);
            single.record_digest(tick, &h);
            parts[i % shards].record_digest(tick, &h);
        }
        let mut merged = TimeSeries::digest(interval);
        for p in &parts {
            merged.merge(p).expect("shards share interval and kind");
        }
        prop_assert_eq!(&merged, &single);
        let mut set = SeriesSet::new();
        set.insert("latency_ms", single);
        let reloaded = SeriesSet::from_json(&set.to_json()).expect("well-formed JSON");
        let (orig, back) = (
            set.get("latency_ms").expect("present"),
            reloaded.get("latency_ms").expect("survives reload"),
        );
        prop_assert_eq!(orig.len(), back.len());
        for ((t0, h0), (t1, h1)) in orig.digest_points().iter().zip(back.digest_points()) {
            prop_assert_eq!(*t0, t1);
            prop_assert_eq!(h0.count(), h1.count());
            for q in [0.5, 0.95, 0.99, 1.0] {
                prop_assert_eq!(h0.try_quantile_upper(q), h1.try_quantile_upper(q));
            }
        }
        let twice = SeriesSet::from_json(&reloaded.to_json()).expect("well-formed JSON");
        prop_assert_eq!(
            twice.to_json().to_compact_string(),
            reloaded.to_json().to_compact_string()
        );
    }
}

/// A JSON document built from a tape of random words: every value kind
/// the writer emits, nested at most `depth` levels, with strings that
/// need escaping (quotes, backslashes, control and non-ASCII chars).
/// Only values that survive a write exactly are drawn: finite floats,
/// and `Int` for negative integers alone (a non-negative one reads back
/// as `UInt`).
fn tape_document(tape: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let mut next = || tape.next().unwrap_or(0);
    let string = |word: u64| -> String {
        (0..word % 6)
            .map(|i| {
                let code = (word >> (8 * i)) as u32 % 0x300;
                match code % 5 {
                    0 => ['"', '\\', '\n', '\u{1}', '/'][(code / 5 % 5) as usize],
                    _ => char::from_u32(code).unwrap_or('?'),
                }
            })
            .collect()
    };
    let kinds = if depth == 0 { 6 } else { 8 };
    match next() % kinds {
        0 => Json::Null,
        1 => Json::Bool(next() % 2 == 0),
        2 => Json::UInt(next()),
        3 => Json::Int(-1 - (next() >> 1) as i64),
        4 => {
            let n = f64::from_bits(next());
            Json::Num(if n.is_finite() { n } else { 0.5 })
        }
        5 => Json::Str(string(next())),
        6 => Json::Arr(
            (0..next() % 4)
                .map(|_| tape_document(tape, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..next() % 4)
                .map(|_| {
                    (
                        string(tape.next().unwrap_or(0)),
                        tape_document(tape, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The JSON reader returns a document or an error for any input —
    /// random JSON-ish bytes, written documents cut short or with a
    /// byte changed, and nesting far past the depth limit — and never
    /// panics or overflows the stack.
    #[test]
    fn json_parse_never_panics(
        pieces in prop::collection::vec(0usize..24, 0..64),
        nesting in 0usize..100_000,
        tape in prop::collection::vec(0u64..u64::MAX, 1..64),
        cut in 0usize..4096,
        flip in 0u8..255,
    ) {
        const PIECES: [&[u8]; 24] = [
            b"[", b"]", b"{", b"}", b"\"", b":", b",", b"\\", b"\\u", b"0", b"7", b"-",
            b".", b"e", b"E+", b"true", b"nul", b" ", b"\n", b"\"k\":", b"\xc3\xa9",
            b"\xff", b"\x01", b"1e999",
        ];
        let mut bytes = if nesting % 2 == 0 {
            b"[".repeat(nesting)
        } else {
            b"{\"a\":".repeat(nesting)
        };
        for p in &pieces {
            bytes.extend_from_slice(PIECES[*p]);
        }
        let _ = json::parse(&String::from_utf8_lossy(&bytes));

        let mut written = tape_document(&mut tape.into_iter(), 6)
            .to_compact_string()
            .into_bytes();
        let at = cut % (written.len() + 1);
        let _ = json::parse(&String::from_utf8_lossy(&written[..at]));
        if at < written.len() {
            written[at] ^= flip;
            let _ = json::parse(&String::from_utf8_lossy(&written));
        }
    }

    /// Reading a written document gives back the same document, in
    /// compact and pretty form alike.
    #[test]
    fn json_write_then_parse_is_identity(
        tape in prop::collection::vec(0u64..u64::MAX, 1..96),
    ) {
        let doc = tape_document(&mut tape.into_iter(), 6);
        prop_assert_eq!(&json::parse(&doc.to_compact_string()).expect("compact parses"), &doc);
        prop_assert_eq!(&json::parse(&doc.to_pretty_string()).expect("pretty parses"), &doc);
    }
}

/// Values a `sop top` stream's numeric fields take: zero, small, huge,
/// negative, fractional, and past `u64::MAX`.
const TOP_VALUES: [&str; 10] = [
    "0",
    "1",
    "-1",
    "0.5",
    "-2.75",
    "7200",
    "18446744073709551615",
    "123456789012345678901234567890",
    "1e300",
    "-1e300",
];
const TOP_KEYS: [&str; 11] = [
    "cycles",
    "ticks",
    "slo_fired",
    "slo_active",
    "jobs",
    "workers",
    "t_us",
    "eta_us",
    "worker",
    "wall_us",
    "queue",
];
const TOP_EVENTS: [&str; 7] = [
    "campaign_start",
    "job_start",
    "job_finish",
    "cache_hit",
    "job_fail",
    "job_retry",
    "campaign_end",
];
/// Lines that are not heartbeat events at all.
const TOP_JUNK: [&str; 6] = [
    "",
    "[1,2]",
    "42",
    "{\"ev\":5}",
    "{\"ev\":\"job_fin",
    "\u{e9}\u{1f600}",
];

/// One NDJSON line of a heartbeat stream drawn from a tape of words: an
/// event of any kind with up to five numeric fields at extreme values
/// (keys may repeat), or a line that is no event.
fn top_line(tape: &mut impl Iterator<Item = u64>) -> String {
    let mut next = || tape.next().unwrap_or(0) as usize;
    let word = next();
    if word % 8 == 7 {
        return TOP_JUNK[next() % TOP_JUNK.len()].to_owned();
    }
    let mut line = format!(
        "{{\"ev\":\"{}\",\"campaign\":\"c{}\",\"job\":\"j\u{e9}{}\"",
        TOP_EVENTS[word % TOP_EVENTS.len()],
        next() % 2,
        next() % 3
    );
    for _ in 0..next() % 6 {
        let key = TOP_KEYS[next() % TOP_KEYS.len()];
        line.push_str(&format!(
            ",\"{key}\":{}",
            TOP_VALUES[next() % TOP_VALUES.len()]
        ));
    }
    line.push('}');
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `sop top`'s reader never panics: `read_events`, `snapshot` and
    /// `render` accept arbitrary event lines with extreme values, junk
    /// bytes, and the stream cut short at any byte (even inside a
    /// multi-byte character), whose only effect is on the last event.
    #[test]
    fn top_reader_never_panics(
        tape in prop::collection::vec(0u64..u64::MAX, 1..160),
        noise in prop::collection::vec(0u8..255, 0..32),
        cut in 0usize..1_000_000,
    ) {
        let mut tape = tape.into_iter().peekable();
        let mut bytes = Vec::new();
        while tape.peek().is_some() {
            bytes.extend_from_slice(top_line(&mut tape).as_bytes());
            bytes.push(b'\n');
            if tape.peek().is_some_and(|w| w % 13 == 0) {
                bytes.extend_from_slice(&noise);
                bytes.push(b'\n');
            }
        }
        let dir = std::env::temp_dir().join(format!("sop-top-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("progress.ndjson");
        let read = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("write stream");
            let events = read_events(&path);
            if let Some(snap) = snapshot(&events) {
                let _ = snap.render();
            }
            events
        };
        let full = read(&bytes);
        let cut = cut % (bytes.len() + 1);
        let cut_events = read(&bytes[..cut]);
        let whole = bytes[..cut].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let whole_events = read(&bytes[..whole]);
        let _ = std::fs::remove_dir_all(&dir);
        // Every line the cut left whole reads as it did in the full
        // stream; the torn line adds at most one event.
        prop_assert!(whole_events.len() <= full.len());
        prop_assert_eq!(&whole_events[..], &full[..whole_events.len()]);
        prop_assert!((whole_events.len()..=whole_events.len() + 1).contains(&cut_events.len()));
        prop_assert_eq!(&cut_events[..whole_events.len()], &whole_events[..]);
    }
}
