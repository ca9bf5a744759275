//! Synthetic instruction-trace generation for the cycle-level simulator.
//!
//! Flexus replays full-system SPARC traces; we synthesize statistically
//! equivalent core event streams from a [`WorkloadProfile`]. Each stream
//! interleaves compute bursts with L1-I fetch misses, L1-D read/write
//! misses, and (beyond the software-scalability knee) synchronization
//! stalls. Addresses are drawn from three regions that mirror the thesis'
//! working-set decomposition (§2.1, §4.2.1):
//!
//! * a *shared* region (instructions + OS data) sized to the workload's
//!   capture capacity — hits in the LLC once warm, shared by every core;
//! * a *private* region per core — small, mostly LLC-resident;
//! * a *dataset* region — vastly larger than any LLC, so accesses to it
//!   miss and go to memory.
//!
//! A small fraction of data accesses touch lines recently written by
//! another core, which is what produces the (rare) snoop activity of
//! Fig 4.3.

use crate::profile::WorkloadProfile;
use crate::zipf::ZipfSampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sop_tech::CoreKind;

/// A 64-byte cache-line address.
pub type LineAddr = u64;

/// The profiles carry *serialization-weighted* L1-I miss rates (what the
/// analytic model charges in full); the raw architectural rate that a
/// cycle simulator must replay is higher because front ends hide part of
/// the fetch latency. CloudSuite's measured L1-I MPKI runs well above the
/// effective rates, so traces scale instruction fetches up by this factor
/// while the simulated core hides the same share via its fetch overlap.
pub const TRACE_IFETCH_FACTOR: f64 = 1.6;

/// One event in a core's synthetic execution stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreEvent {
    /// Commit `instructions` instructions of pure compute (no L1 misses).
    Compute {
        /// Number of instructions in the burst.
        instructions: u32,
    },
    /// An L1-I miss: fetch `line` from the LLC. Stalls the front end.
    InstructionFetch {
        /// Line address within the shared instruction region.
        line: LineAddr,
    },
    /// An L1-D read miss for `line`.
    DataRead {
        /// Line address.
        line: LineAddr,
    },
    /// An L1-D write miss (or upgrade) for `line`; requires ownership and
    /// may trigger invalidation snoops.
    DataWrite {
        /// Line address.
        line: LineAddr,
    },
    /// A software synchronization stall of `cycles` (lock/barrier time that
    /// appears beyond the scalability knee).
    SyncStall {
        /// Stall length in cycles.
        cycles: u32,
    },
}

/// Configuration for generating one core's trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Workload statistics to synthesize from.
    pub profile: WorkloadProfile,
    /// Core microarchitecture executing the trace.
    pub core_kind: CoreKind,
    /// This core's index within the machine.
    pub core_id: u32,
    /// Total cores running the workload (drives sharing and sync stalls).
    pub total_cores: u32,
    /// RNG seed; streams are deterministic given (seed, core_id).
    pub seed: u64,
}

/// Address-space layout constants. Regions are disjoint by construction.
const SHARED_BASE: LineAddr = 0x0000_0000_0000;
const PRIVATE_BASE: LineAddr = 0x0100_0000_0000;
const DATASET_BASE: LineAddr = 0x0200_0000_0000;
const LINES_PER_MB: u64 = (1 << 20) / 64;

/// An infinite, deterministic iterator of [`CoreEvent`]s.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    cfg: TraceConfig,
    rng: SmallRng,
    /// Lines in the shared (instruction + OS) region.
    shared_lines: u64,
    /// Lines in this core's private region.
    private_lines: u64,
    /// Lines in the (effectively infinite) dataset region.
    dataset_lines: u64,
    /// Next sequential dataset cursor (scale-out dataset scans mix random
    /// and streaming access).
    dataset_cursor: u64,
    /// Per-event probabilities, derived once from the profile.
    p_ifetch: f64,
    p_dread: f64,
    p_dwrite: f64,
    /// Probability that a data access targets the dataset region.
    p_dataset: f64,
    /// Probability that a data access targets the shared region.
    p_shared_data: f64,
    /// Probability of a sync stall per event slot (0 below the knee).
    p_sync: f64,
    /// The event that follows the compute gap just emitted, if any.
    pending: Option<CoreEvent>,
    /// Popularity skew over the shared region: instruction streams have a
    /// hot head (dispatch loops, allocator, syscall paths).
    shared_popularity: ZipfSampler,
}

impl TraceGenerator {
    /// Creates a generator for one core.
    ///
    /// # Panics
    ///
    /// Panics if `core_id >= total_cores` or `total_cores == 0`.
    pub fn new(cfg: TraceConfig) -> Self {
        assert!(cfg.total_cores > 0, "need at least one core");
        assert!(cfg.core_id < cfg.total_cores, "core_id out of range");
        let p = &cfg.profile;
        let (l1i, l1d) = p.l1_mpki_for(cfg.core_kind);
        let write_fraction = 0.3;
        // Region sizes: the shared set saturates around 3x its e-folding
        // capacity; privates likewise; the dataset dwarfs any LLC.
        let shared_lines = ((p.miss_curve.shared_capture_mb * 3.0) * LINES_PER_MB as f64) as u64;
        let private_lines = ((p.miss_curve.private_capture_mb * 3.0) * LINES_PER_MB as f64) as u64;
        let dataset_lines = 4096 * LINES_PER_MB; // 256GB: never cacheable
        let total_data = l1d / 1000.0;
        // Split data accesses so the steady-state LLC miss rate approaches
        // the profile's dataset floor.
        let p_dataset_given_data = (p.miss_curve.dataset_mpki / l1d.max(1e-9)).clamp(0.05, 0.95);
        let p_shared_given_data = (p.snoop_fraction * 2.0).clamp(0.01, 0.5);
        let eff = p.scalability.efficiency(cfg.total_cores);
        let p_sync = if eff < 1.0 { (1.0 - eff) * 0.06 } else { 0.0 };
        let mut hasher = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        hasher ^= u64::from(cfg.core_id).wrapping_mul(0xD1B5_4A32_D192_ED03);
        TraceGenerator {
            rng: SmallRng::seed_from_u64(hasher),
            shared_lines: shared_lines.max(64),
            private_lines: private_lines.max(16),
            dataset_lines,
            dataset_cursor: 0,
            p_ifetch: l1i * TRACE_IFETCH_FACTOR / 1000.0,
            p_dread: total_data * (1.0 - write_fraction),
            p_dwrite: total_data * write_fraction,
            p_dataset: p_dataset_given_data,
            p_shared_data: p_shared_given_data,
            p_sync,
            pending: None,
            shared_popularity: ZipfSampler::new(shared_lines.max(64), 0.35),
            cfg,
        }
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    fn shared_line(&mut self) -> LineAddr {
        // A 40/60 blend of hot-head (Zipf) and uniform reuse keeps the
        // shared footprint's effective size near its nominal size while
        // giving the fetch stream a realistic hot spot.
        if self.rng.gen_bool(0.4) {
            SHARED_BASE + self.shared_popularity.index(self.rng.gen())
        } else {
            SHARED_BASE + self.rng.gen_range(0..self.shared_lines)
        }
    }

    fn private_line(&mut self) -> LineAddr {
        let region = u64::from(self.cfg.core_id) << 28;
        PRIVATE_BASE + region + self.rng.gen_range(0..self.private_lines)
    }

    fn dataset_line(&mut self) -> LineAddr {
        // 60% streaming, 40% random — both defeat the LLC.
        if self.rng.gen_bool(0.6) {
            self.dataset_cursor = (self.dataset_cursor + 1) % self.dataset_lines;
            let stride_base = u64::from(self.cfg.core_id) * (self.dataset_lines / 64);
            DATASET_BASE + ((stride_base + self.dataset_cursor) % self.dataset_lines)
        } else {
            DATASET_BASE + self.rng.gen_range(0..self.dataset_lines)
        }
    }

    fn data_line(&mut self) -> LineAddr {
        let r: f64 = self.rng.gen();
        if r < self.p_dataset {
            self.dataset_line()
        } else if r < self.p_dataset + self.p_shared_data {
            self.shared_line()
        } else {
            self.private_line()
        }
    }
}

impl TraceGenerator {
    /// Draws the next non-compute event and the uniform variate that
    /// sizes the compute gap before it. The variate is drawn whether or
    /// not the caller wants the gap, so both consumers advance the RNG
    /// stream identically.
    fn draw(&mut self, p_event: f64) -> (CoreEvent, f64) {
        let r: f64 = self.rng.gen::<f64>() * p_event;
        let ev = if r < self.p_ifetch {
            let line = self.shared_line();
            CoreEvent::InstructionFetch { line }
        } else if r < self.p_ifetch + self.p_dread {
            let line = self.data_line();
            CoreEvent::DataRead { line }
        } else if r < self.p_ifetch + self.p_dread + self.p_dwrite {
            let line = self.data_line();
            CoreEvent::DataWrite { line }
        } else {
            let cycles = 20 + self.rng.gen_range(0..200);
            CoreEvent::SyncStall { cycles }
        };
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        (ev, u)
    }

    fn p_event(&self) -> f64 {
        let p_event = self.p_ifetch + self.p_dread + self.p_dwrite + self.p_sync;
        debug_assert!(p_event < 1.0, "event probability must stay below 1");
        p_event
    }

    /// The next event that is not a compute burst, exactly as
    /// [`Iterator::next`] would yield it after skipping any burst, but
    /// without sizing the skipped burst. For functional warming, which
    /// has no use for compute time.
    pub fn next_untimed(&mut self) -> CoreEvent {
        match self.pending.take() {
            Some(ev) => ev,
            None => {
                let p_event = self.p_event();
                self.draw(p_event).0
            }
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = CoreEvent;

    fn next(&mut self) -> Option<CoreEvent> {
        if let Some(ev) = self.pending.take() {
            return Some(ev);
        }
        // Each instruction independently produces an event with total
        // probability `p_event`; we draw the geometric inter-event gap as a
        // compute burst and stash the event itself for the next call, so
        // the event rate per instruction matches the profile exactly.
        let p_event = self.p_event();
        let (ev, u) = self.draw(p_event);
        // Geometric gap with mean (1-p)/p, sampled via the exponential
        // approximation; the event instruction itself is counted by the
        // consumer when it processes the stashed event.
        let gap = (-u.ln() * (1.0 - p_event) / p_event).round() as u32;
        if gap == 0 {
            Some(ev)
        } else {
            self.pending = Some(ev);
            Some(CoreEvent::Compute { instructions: gap })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Workload, WorkloadProfile};

    fn cfg(w: Workload, cores: u32, id: u32) -> TraceConfig {
        TraceConfig {
            profile: WorkloadProfile::of(w),
            core_kind: CoreKind::OutOfOrder,
            core_id: id,
            total_cores: cores,
            seed: 42,
        }
    }

    #[test]
    fn trace_is_deterministic_for_same_seed() {
        let a: Vec<_> = TraceGenerator::new(cfg(Workload::WebSearch, 16, 3))
            .take(1000)
            .collect();
        let b: Vec<_> = TraceGenerator::new(cfg(Workload::WebSearch, 16, 3))
            .take(1000)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_cores_get_different_streams() {
        let a: Vec<_> = TraceGenerator::new(cfg(Workload::WebSearch, 16, 0))
            .take(100)
            .collect();
        let b: Vec<_> = TraceGenerator::new(cfg(Workload::WebSearch, 16, 1))
            .take(100)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn miss_rate_matches_profile() {
        let p = WorkloadProfile::of(Workload::DataServing);
        let mut gen = TraceGenerator::new(cfg(Workload::DataServing, 16, 0));
        let mut instrs = 0u64;
        let mut misses = 0u64;
        for ev in gen.by_ref().take(200_000) {
            match ev {
                CoreEvent::Compute { instructions } => instrs += u64::from(instructions),
                CoreEvent::InstructionFetch { .. }
                | CoreEvent::DataRead { .. }
                | CoreEvent::DataWrite { .. } => {
                    instrs += 1;
                    misses += 1;
                }
                CoreEvent::SyncStall { .. } => {}
            }
        }
        let mpki = misses as f64 / instrs as f64 * 1000.0;
        let (i, d) = p.l1_mpki_for(CoreKind::OutOfOrder);
        let expect = i * TRACE_IFETCH_FACTOR + d;
        assert!(
            (mpki - expect).abs() / expect < 0.15,
            "mpki {mpki} vs expected {expect}"
        );
    }

    #[test]
    fn address_regions_are_disjoint() {
        let mut gen = TraceGenerator::new(cfg(Workload::MapReduceW, 8, 2));
        for ev in gen.by_ref().take(50_000) {
            let line = match ev {
                CoreEvent::InstructionFetch { line } => line,
                CoreEvent::DataRead { line } | CoreEvent::DataWrite { line } => line,
                _ => continue,
            };
            // Each line lands in exactly one region.
            let regions = [
                line < PRIVATE_BASE,
                (PRIVATE_BASE..DATASET_BASE).contains(&line),
                line >= DATASET_BASE,
            ];
            assert_eq!(regions.iter().filter(|r| **r).count(), 1);
        }
    }

    #[test]
    fn instruction_fetches_come_from_shared_region() {
        let mut gen = TraceGenerator::new(cfg(Workload::WebFrontend, 4, 1));
        for ev in gen.by_ref().take(50_000) {
            if let CoreEvent::InstructionFetch { line } = ev {
                assert!(
                    line < PRIVATE_BASE,
                    "instruction fetch outside shared region"
                );
            }
        }
    }

    #[test]
    fn no_sync_stalls_below_knee() {
        let mut gen = TraceGenerator::new(cfg(Workload::MediaStreaming, 16, 0));
        assert!(gen
            .by_ref()
            .take(100_000)
            .all(|e| !matches!(e, CoreEvent::SyncStall { .. })));
    }

    #[test]
    fn sync_stalls_appear_beyond_knee() {
        // Media Streaming's knee is 16 cores; at 64 it stalls.
        let mut gen = TraceGenerator::new(cfg(Workload::MediaStreaming, 64, 0));
        assert!(gen
            .by_ref()
            .take(200_000)
            .any(|e| matches!(e, CoreEvent::SyncStall { .. })));
    }

    #[test]
    fn untimed_events_are_the_timed_stream_without_bursts() {
        for (w, cores) in [(Workload::WebSearch, 16), (Workload::MediaStreaming, 64)] {
            let mut timed = TraceGenerator::new(cfg(w, cores, 1));
            let mut untimed = timed.clone();
            // Stop part-way through a stashed event too: both must resume
            // at the same event with the same RNG state.
            timed.next();
            untimed.next();
            for _ in 0..20_000 {
                let ev = timed
                    .by_ref()
                    .find(|e| !matches!(e, CoreEvent::Compute { .. }))
                    .expect("traces are infinite");
                assert_eq!(untimed.next_untimed(), ev);
            }
            assert_eq!(
                timed.take(1_000).collect::<Vec<_>>(),
                untimed.take(1_000).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_id_panics() {
        TraceGenerator::new(cfg(Workload::WebSearch, 4, 4));
    }
}
