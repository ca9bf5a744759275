//! Functional warm-up: the warmed-checkpoint methodology of SimFlex
//! (§3.3). Before its first timed cycle a machine streams enough trace
//! accesses through its LLC banks to populate the working set, so
//! steady-state hit rates are reached without simulating millions of
//! cold cycles. The outcome is a pure function of a [`WarmKey`]; each
//! thread keeps its last warm-up in one slot for the next machine with
//! the same key, or the same trace, to reuse.

use crate::cache::LlcBank;
use crate::core::{SimCore, WRITE_BIT};
use crate::machine::{home_bank, layout, SimConfig};
use sop_tech::CoreKind;
use sop_workloads::Workload;
use std::cell::RefCell;

/// Everything the functional warm-up outcome depends on — and nothing it
/// does not. Fabric link width, hub latency, memory-channel count and the
/// fault plan never enter the warm-up loop, so sweep points varying only
/// those share one warmed state.
///
/// Fields are ordered so that sorting by key puts equal keys next to each
/// other *and* keys that draw the same trace (see
/// [`shares_trace`](Self::shares_trace)) next to each other.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WarmKey {
    workload: Workload,
    core_kind: CoreKind,
    seed: u64,
    /// Physical ids of the cores running threads (they feed the
    /// directory's sharer lists during warm-up).
    active: Vec<u32>,
    /// Warm-up accesses drawn per active core.
    per_core: u64,
    /// `llc_mb` bit pattern (`f64` is neither `Hash` nor `Ord`; configs
    /// hold exact values, so bit equality is the right equality).
    llc_mb_bits: u64,
    n_banks: usize,
}

impl WarmKey {
    /// The key of a machine built from `cfg` that runs its threads on the
    /// physical cores `active` and banks its LLC `n_banks` ways.
    pub(crate) fn new(cfg: &SimConfig, active: &[u32], n_banks: usize) -> Self {
        let llc_lines = (cfg.llc_mb * 1024.0 * 1024.0 / 64.0) as u64;
        WarmKey {
            workload: cfg.workload,
            core_kind: cfg.core_kind,
            seed: cfg.seed,
            per_core: (llc_lines * 6 / active.len() as u64).clamp(2_000, 100_000),
            active: active.to_vec(),
            llc_mb_bits: cfg.llc_mb.to_bits(),
            n_banks,
        }
    }

    /// True when both warm-ups draw the very same accesses: a mesh point
    /// and a crossbar point bank the same LLC differently, but share the
    /// (Zipf-heavy) trace generation and differ only in the bank walk.
    pub fn shares_trace(&self, other: &WarmKey) -> bool {
        let trace = |k: &WarmKey| (k.workload, k.core_kind, k.seed, k.per_core);
        trace(self) == trace(other) && self.active == other.active
    }
}

impl SimConfig {
    /// The [`WarmKey`] a [`Machine`](crate::Machine) built from this
    /// configuration warms under, its bank count and active cores placed
    /// by the function the machine uses.
    pub fn warm_key(&self) -> WarmKey {
        let (active, n_banks) = layout(self, &self.noc.build_topology());
        WarmKey::new(self, &active, n_banks)
    }
}

/// A thread's last warm-up: its key, the accesses it drew per active core
/// (as [`SimCore::functional_accesses`] packs them), and the cores and
/// banks as it left them.
struct Warmed {
    key: WarmKey,
    accesses: Vec<Vec<u64>>,
    cores: Vec<SimCore>,
    banks: Vec<LlcBank>,
}

thread_local! {
    static LAST: RefCell<Option<Warmed>> = const { RefCell::new(None) };
}

/// Where a bucketed warm-up access keeps its core slot: bits 48..63,
/// between the line (trace lines stay below 2^42) and [`WRITE_BIT`].
const SLOT_SHIFT: u32 = 48;
const SLOT_MASK: u64 = ((1 << 15) - 1) << SLOT_SHIFT;

/// Warms `banks` and advances `cores` as the warm-up for `key` leaves
/// them, reusing this thread's last warm-up when the key allows. Reuse
/// is bit-identical to recomputing: the slot holds a pure function of
/// its key, so neither it nor the order in which machines are warmed can
/// change a simulated outcome, only how fast warm-up runs.
pub(crate) fn warm(key: &WarmKey, banks: &mut Vec<LlcBank>, cores: &mut Vec<SimCore>) {
    let accesses = match LAST.take() {
        Some(w) if w.key == *key => {
            banks.clone_from(&w.banks);
            cores.clone_from(&w.cores);
            LAST.set(Some(w));
            return;
        }
        Some(w) if w.key.shares_trace(key) => {
            // Same accesses another banking already drew; fast-forward
            // the trace streams to where generation would leave them.
            cores.clone_from(&w.cores);
            w.accesses
        }
        stale => {
            // Dropped before the next warm-up is built, so a thread
            // never holds two.
            drop(stale);
            cores
                .iter_mut()
                .map(|core| core.functional_accesses(key.per_core))
                .collect()
        }
    };
    walk(key, &accesses, banks);
    for bank in banks.iter_mut() {
        bank.reset_stats();
    }
    LAST.set(Some(Warmed {
        key: key.clone(),
        accesses,
        cores: cores.clone(),
        banks: banks.clone(),
    }));
}

/// Replays the warm-up accesses through the banks. Cores interleave
/// access by access (index major, slot minor) so sharer lists build up
/// the way concurrent execution would build them. Banks share no state
/// and each bank's recency order sees only its own accesses, so a stable
/// counting sort of that order by bank, replayed bucket by bucket, leaves
/// every bank exactly as the interleaved walk would — while each bank's
/// tags and directory stay hot in the host's cache for its whole bucket.
fn walk(key: &WarmKey, accesses: &[Vec<u64>], banks: &mut [LlcBank]) {
    assert!(accesses.len() <= 1 << 15, "slot field holds 2^15 cores");
    let n = banks.len();
    let bank_of = |packed: u64| home_bank(packed & !WRITE_BIT, n);
    let mut starts = vec![0usize; n + 1];
    for &packed in accesses.iter().flatten() {
        starts[bank_of(packed) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    let mut buckets = vec![0u64; starts[n]];
    for i in 0..key.per_core as usize {
        for (slot, accesses) in accesses.iter().enumerate() {
            let packed = accesses[i];
            debug_assert_eq!(packed & SLOT_MASK, 0, "line reaches the slot field");
            let bank = bank_of(packed);
            buckets[next[bank]] = packed | (slot as u64) << SLOT_SHIFT;
            next[bank] += 1;
        }
    }
    for (bank, range) in banks.iter_mut().zip(starts.windows(2)) {
        for &word in &buckets[range[0]..range[1]] {
            let slot = ((word & SLOT_MASK) >> SLOT_SHIFT) as usize;
            let line = word & !(WRITE_BIT | SLOT_MASK);
            bank.access(key.active[slot], line, word & WRITE_BIT != 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;
    use sop_noc::TopologyKind;

    /// A short window's result on a machine warmed on this thread.
    fn window(cfg: SimConfig) -> crate::SimResult {
        Machine::new(cfg).run(0, 1_000)
    }

    /// The same, warmed on a fresh thread, whose slots start empty.
    fn cold_window(cfg: SimConfig) -> crate::SimResult {
        std::thread::spawn(move || window(cfg))
            .join()
            .expect("cold run")
    }

    #[test]
    fn keys_name_what_warm_up_depends_on() {
        let base = SimConfig::pod_64(Workload::WebSearch, TopologyKind::NocOut);
        let mut fabric = base;
        fabric.noc = fabric.noc.with_link_bits(64);
        fabric.memory_channels = 2;
        assert_eq!(
            fabric.warm_key(),
            base.warm_key(),
            "links and channels do not enter"
        );
        let mut tiles = base;
        tiles.noc.llc_tiles = 4;
        assert_ne!(tiles.warm_key(), base.warm_key(), "the bank count does");
        let mut seed = base;
        seed.seed += 1;
        assert!(!seed.warm_key().shares_trace(&base.warm_key()));
    }

    #[test]
    fn keys_sort_shared_traces_together() {
        use TopologyKind::{Crossbar, Mesh};
        let mesh = SimConfig::validation(Workload::WebSearch, 16, Mesh).warm_key();
        let xbar = SimConfig::validation(Workload::WebSearch, 16, Crossbar).warm_key();
        let other = SimConfig::validation(Workload::DataServing, 16, Mesh).warm_key();
        assert_ne!(mesh, xbar, "the banking differs");
        assert!(mesh.shares_trace(&xbar), "the accesses do not");
        assert!(!mesh.shares_trace(&other));
        let mut keys = [mesh.clone(), other, xbar.clone()];
        keys.sort();
        let at = |key: &WarmKey| keys.iter().position(|k| k == key).expect("sorted");
        assert_eq!(at(&mesh).abs_diff(at(&xbar)), 1, "{keys:?}");
    }

    #[test]
    fn reused_slots_warm_exactly_like_a_fresh_thread() {
        use TopologyKind::{Crossbar, Mesh};
        let mesh = SimConfig::validation(Workload::WebSearch, 16, Mesh);
        let xbar = SimConfig::validation(Workload::WebSearch, 16, Crossbar);
        // Mesh, then crossbar (trace slot hit), then crossbar again
        // (state slot hit), then mesh (state evicted, trace slot hit).
        for cfg in [mesh, xbar, xbar, mesh] {
            assert_eq!(window(cfg), cold_window(cfg), "{:?}", cfg.noc.topology);
        }
    }
}
