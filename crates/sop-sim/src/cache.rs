//! Set-associative LLC banks with an invalidation directory.
//!
//! Each bank is a 16-way set-associative array with LRU replacement
//! (Table 2.2). The directory tracks which cores hold each resident line
//! so writes can invalidate remote sharers and reads can be forwarded
//! from an owner — the (rare) snoop activity of Fig 4.3. L1 eviction is
//! approximated by bounding the sharer list: the oldest sharer is dropped
//! when a ninth core touches a line.

use sop_workloads::trace::LineAddr;

/// Maximum sharers tracked per line (stale-sharer bound).
pub const MAX_SHARERS: usize = 8;

/// Directory state of one resident line. Sharers live in a fixed inline
/// array (the list is bounded by [`MAX_SHARERS`] anyway), so directory
/// updates never touch the heap and a way's state is a flat `Copy` value
/// — the warm-up loop streams hundreds of thousands of accesses per
/// simulation point through this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryState {
    /// Cached read-only by `count` cores, in insertion order.
    Shared {
        /// Live entries in `cores`.
        count: u8,
        /// The sharer list; only the first `count` entries are valid.
        cores: [u32; MAX_SHARERS],
    },
    /// Held modifiable by one core.
    Owned(u32),
}

impl DirectoryState {
    fn shared_one(core: u32) -> Self {
        let mut cores = [0; MAX_SHARERS];
        cores[0] = core;
        DirectoryState::Shared { count: 1, cores }
    }
}

/// Outcome of a bank lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BankOutcome {
    /// Line present; the listed cores (excluding the requester) must be
    /// snooped before the access completes (empty for plain hits).
    Hit {
        /// Cores to invalidate (write to shared line) or the owner to
        /// interrogate (read of an owned line).
        snoop: Vec<u32>,
    },
    /// Line absent; fetch from memory (and write back a victim if the
    /// evicted line was owned).
    Miss {
        /// Whether the victim needs a write-back to memory.
        writeback: bool,
    },
}

/// One LLC bank.
///
/// Ways are stored structure-of-arrays in flat, `ways`-strided vectors:
/// the tag scan of a 16-way set walks 128 contiguous bytes instead of
/// chasing per-set heap allocations, and filling a line writes plain
/// `Copy` values. Within a set's stripe, only the first `len` ways are
/// valid. Each set's recency order is one `u64`: the valid ways' indices
/// from most to least recently used, four bits each, MRU in the low
/// nibble. A hit moves its way to the front, a fill pushes the filled way
/// to the front, and a full set evicts the way in the LRU nibble. Tags
/// are unique within a set, so which way a line occupies is never
/// observable: only the recency order and the directory state are.
#[derive(Debug, Clone)]
pub struct LlcBank {
    /// Line tags, `ways`-strided per set.
    tags: Vec<LineAddr>,
    /// Directory state per way, same layout.
    dirs: Vec<DirectoryState>,
    /// Recency order per set: way indices, MRU in the low nibble.
    order: Vec<u64>,
    /// Occupied ways per set.
    len: Vec<u8>,
    ways: usize,
    accesses: u64,
    misses: u64,
    snoops: u64,
}

/// Every nibble of a recency word set to one.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// The low `k` nibbles of a recency word.
fn nibbles(k: usize) -> u64 {
    if k >= 16 {
        u64::MAX
    } else {
        (1 << (4 * k)) - 1
    }
}

/// Moves `way`, which must be in `order`, to the front of `order`.
fn move_to_front(order: u64, way: usize) -> u64 {
    // The lowest zero nibble of `order ^ way...way` is `way`'s position:
    // the borrow trick flags it exactly, and can only misflag nibbles
    // above it.
    let x = order ^ (way as u64 * NIBBLE_ONES);
    let zero = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
    debug_assert_ne!(zero, 0, "way {way} is not in the set");
    let pos = zero.trailing_zeros() as usize / 4;
    (order & !nibbles(pos + 1)) | ((order & nibbles(pos)) << 4) | way as u64
}

impl LlcBank {
    /// Builds a bank of `capacity_bytes` with `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not hold at least one set or if the
    /// associativity exceeds 16 (a set's recency order is 16 nibbles).
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0 && ways <= 16, "associativity range");
        let lines = capacity_bytes / 64;
        let sets = (lines / ways as u64).max(1) as usize;
        LlcBank {
            tags: vec![0; sets * ways],
            dirs: vec![DirectoryState::Owned(0); sets * ways],
            order: vec![0; sets],
            len: vec![0; sets],
            ways,
            accesses: 0,
            misses: 0,
            snoops: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        // Mix the bits so region bases do not alias into a few sets.
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        let sets = self.len.len() as u64;
        // Same value either way; the mask avoids a hardware divide on the
        // warm-up hot path (set counts are powers of two in practice).
        if sets.is_power_of_two() {
            (h & (sets - 1)) as usize
        } else {
            (h % sets) as usize
        }
    }

    /// Performs an access by `core` to `line`; `write` requests ownership.
    /// Updates directory and LRU state and returns what must happen next.
    pub fn access(&mut self, core: u32, line: LineAddr, write: bool) -> BankOutcome {
        self.accesses += 1;
        let ways = self.ways;
        let set_idx = self.set_of(line);
        let base = set_idx * ways;
        let n = usize::from(self.len[set_idx]);
        if let Some(i) = self.tags[base..base + n].iter().position(|&t| t == line) {
            let w = base + i;
            let order = self.order[set_idx];
            if order & 0xF != i as u64 {
                self.order[set_idx] = move_to_front(order, i);
            }
            let snoop = match (&mut self.dirs[w], write) {
                (DirectoryState::Shared { count, cores }, false) => {
                    let sharers = &mut cores[..usize::from(*count)];
                    if !sharers.contains(&core) {
                        if usize::from(*count) < MAX_SHARERS {
                            cores[usize::from(*count)] = core;
                            *count += 1;
                        } else {
                            // Bounded list: drop the oldest sharer.
                            cores.copy_within(1.., 0);
                            cores[MAX_SHARERS - 1] = core;
                        }
                    }
                    Vec::new()
                }
                (DirectoryState::Shared { count, cores }, true) => {
                    let victims: Vec<u32> = cores[..usize::from(*count)]
                        .iter()
                        .copied()
                        .filter(|&s| s != core)
                        .collect();
                    self.dirs[w] = DirectoryState::Owned(core);
                    victims
                }
                (DirectoryState::Owned(owner), _) => {
                    let prev = *owner;
                    if prev == core {
                        Vec::new()
                    } else {
                        // L1-to-L1 forwarding (read) or ownership transfer.
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
                }
            };
            self.snoops += snoop.len() as u64;
            return BankOutcome::Hit { snoop };
        }
        // Miss: fill a free way, or the LRU way if the set is full.
        self.misses += 1;
        let order = self.order[set_idx];
        let (way, writeback) = if n >= ways {
            let lru = (order >> (4 * (ways - 1))) as usize & 0xF;
            (
                lru,
                matches!(self.dirs[base + lru], DirectoryState::Owned(_)),
            )
        } else {
            self.len[set_idx] = (n + 1) as u8;
            (n, false)
        };
        self.order[set_idx] = ((order << 4) | way as u64) & nibbles(ways);
        self.tags[base + way] = line;
        self.dirs[base + way] = if write {
            DirectoryState::Owned(core)
        } else {
            DirectoryState::shared_one(core)
        };
        BankOutcome::Miss { writeback }
    }

    /// Lookups so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Snoop messages generated so far.
    pub fn snoops(&self) -> u64 {
        self.snoops
    }

    /// Publishes this bank's counters under `prefix` (e.g.
    /// `"sim.llc.bank3."`): `<p>accesses`, `<p>misses`, `<p>snoops`.
    pub fn export_metrics(&self, reg: &mut sop_obs::Registry, prefix: &str) {
        reg.counter_add(&format!("{prefix}accesses"), self.accesses);
        reg.counter_add(&format!("{prefix}misses"), self.misses);
        reg.counter_add(&format!("{prefix}snoops"), self.snoops);
    }

    /// Resets statistics (after warm-up) without touching contents.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
        self.snoops = 0;
    }

    /// Drops every resident line — tags, LRU state, and directory —
    /// returning how many lines were lost. Statistics are untouched.
    /// Used when a bank-death remap reassigns line homes: the warm state
    /// left in surviving banks belongs to the old mapping and must not
    /// be served as hits.
    pub fn clear(&mut self) -> u64 {
        let lines = self.len.iter().map(|&l| u64::from(l)).sum();
        self.len.iter_mut().for_each(|l| *l = 0);
        self.order.iter_mut().for_each(|o| *o = 0);
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_access_hits() {
        let mut b = LlcBank::new(1 << 20, 16);
        assert!(matches!(b.access(0, 42, false), BankOutcome::Miss { .. }));
        assert!(matches!(b.access(0, 42, false), BankOutcome::Hit { snoop } if snoop.is_empty()));
        assert_eq!((b.accesses(), b.misses(), b.snoops()), (2, 1, 0));
    }

    #[test]
    fn write_to_shared_line_snoops_other_sharers() {
        let mut b = LlcBank::new(1 << 20, 16);
        b.access(0, 7, false);
        b.access(1, 7, false);
        b.access(2, 7, false);
        match b.access(1, 7, true) {
            BankOutcome::Hit { snoop } => {
                assert_eq!(snoop.len(), 2);
                assert!(snoop.contains(&0) && snoop.contains(&2));
            }
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn read_of_owned_line_forwards_from_owner() {
        let mut b = LlcBank::new(1 << 20, 16);
        b.access(3, 9, true);
        match b.access(5, 9, false) {
            BankOutcome::Hit { snoop } => assert_eq!(snoop, vec![3]),
            other => panic!("expected forwarding hit, got {other:?}"),
        }
    }

    #[test]
    fn owner_rewrite_is_silent() {
        let mut b = LlcBank::new(1 << 20, 16);
        b.access(3, 9, true);
        match b.access(3, 9, true) {
            BankOutcome::Hit { snoop } => assert!(snoop.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn capacity_pressure_evicts_lru() {
        // A 16-line (1-set-at-16-ways) bank: the 17th distinct line evicts.
        let mut b = LlcBank::new(16 * 64, 16);
        for l in 0..16u64 {
            b.access(0, l, false);
        }
        b.access(0, 0, false); // refresh line 0
        assert!(matches!(b.access(0, 100, false), BankOutcome::Miss { .. }));
        // Line 0 was refreshed, so it should still be resident.
        assert!(matches!(b.access(0, 0, false), BankOutcome::Hit { .. }));
    }

    #[test]
    fn dirty_victim_requires_writeback() {
        let mut b = LlcBank::new(64, 1); // one line total
        b.access(0, 1, true);
        match b.access(0, 2, false) {
            BankOutcome::Miss { writeback } => assert!(writeback),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sharer_list_is_bounded() {
        let mut b = LlcBank::new(1 << 20, 16);
        for core in 0..12u32 {
            b.access(core, 5, false);
        }
        match b.access(50, 5, true) {
            BankOutcome::Hit { snoop } => assert!(snoop.len() <= MAX_SHARERS),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut b = LlcBank::new(1 << 20, 16);
        b.access(0, 42, false);
        b.reset_stats();
        assert_eq!((b.accesses(), b.misses(), b.snoops()), (0, 0, 0));
        assert!(matches!(b.access(0, 42, false), BankOutcome::Hit { .. }));
    }

    #[test]
    fn recency_order_tracks_touches() {
        // One 4-way set: fill ways 0..4, touch line 1, then two misses
        // evict lines 0 and 2, the least recently used.
        let mut b = LlcBank::new(4 * 64, 4);
        for l in 0..4u64 {
            b.access(0, l, false);
        }
        assert_eq!(b.order[0], 0x0123);
        b.access(0, 1, false);
        assert_eq!(b.order[0], 0x0231);
        b.access(0, 10, false);
        b.access(0, 11, false);
        assert_eq!(b.order[0], 0x3102);
        assert_eq!(&b.tags[..], &[10, 1, 11, 3]);
        assert_eq!(b.clear(), 4);
        assert_eq!((b.order[0], b.len[0]), (0, 0));
    }

    #[test]
    #[should_panic(expected = "associativity range")]
    fn more_than_sixteen_ways_panics() {
        LlcBank::new(1 << 20, 17);
    }

    #[test]
    fn bank_exports_named_metrics() {
        let mut b = LlcBank::new(1 << 20, 16);
        b.access(0, 42, false);
        b.access(0, 42, false);
        let mut reg = sop_obs::Registry::new();
        b.export_metrics(&mut reg, "sim.llc.bank0.");
        assert_eq!(reg.counter("sim.llc.bank0.accesses"), 2);
        assert_eq!(reg.counter("sim.llc.bank0.misses"), 1);
        assert_eq!(reg.counter("sim.llc.bank0.snoops"), 0);
    }
}
