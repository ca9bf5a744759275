//! Trace-driven core model.
//!
//! A core replays the synthetic event stream of its workload: compute
//! bursts retire at the core's perfect-LLC IPC; instruction-fetch misses
//! block the front end until the line returns; data misses overlap up to
//! the core's memory-level parallelism (one outstanding miss for the
//! in-order core, a handful for the out-of-order ones); synchronization
//! stalls idle the core outright.

use sop_tech::CoreKind;
use sop_workloads::trace::LineAddr;
use sop_workloads::{CoreEvent, TraceConfig, TraceGenerator, WorkloadProfile};

/// What a core asks the memory system for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRequest {
    /// Cache line requested.
    pub line: LineAddr,
    /// Whether ownership (write permission) is needed.
    pub write: bool,
    /// Whether this is an instruction fetch (blocking).
    pub fetch: bool,
}

/// Externally visible execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Able to consume trace events.
    Ready,
    /// Retiring a compute burst.
    Computing,
    /// Front end blocked on an instruction fetch.
    WaitingFetch,
    /// All miss slots occupied; a data access is waiting.
    WaitingMshr,
    /// Software synchronization stall.
    Stalled,
}

/// Cycles of execution a decoupled front end can continue past an
/// outstanding instruction fetch (fetch/decode buffering). Short-latency
/// fabrics hide fetches almost entirely behind this window; multi-hop
/// meshes expose most of theirs.
pub const FETCH_AHEAD_CYCLES: u64 = 6;

/// The write flag of a packed functional access (see
/// [`SimCore::functional_accesses`]); trace lines never reach bit 63.
pub const WRITE_BIT: u64 = 1 << 63;

/// A simulated core.
#[derive(Debug, Clone)]
pub struct SimCore {
    trace: TraceGenerator,
    state: CoreState,
    /// Cycle at which the current compute burst or stall ends.
    wake_at: u64,
    /// Instructions the current burst will retire when it completes.
    burst_instructions: u32,
    /// Data access waiting for a free miss slot.
    deferred: Option<CoreRequest>,
    outstanding_data: u32,
    max_outstanding: u32,
    /// Whether an instruction fetch is outstanding.
    fetch_pending: bool,
    /// Run-ahead budget left under the outstanding fetch.
    fetch_ahead_left: u64,
    /// A fetch that arrived while another was outstanding, to be issued
    /// when the first returns.
    deferred_fetch: Option<CoreRequest>,
    /// A request ready to issue on the next poll (replayed fetch).
    pending_issue: Option<CoreRequest>,
    ipc_infinite: f64,
    committed: u64,
}

impl SimCore {
    /// Builds a core replaying `trace_cfg`.
    pub fn new(trace_cfg: TraceConfig) -> Self {
        let profile: &WorkloadProfile = &trace_cfg.profile;
        let kind: CoreKind = trace_cfg.core_kind;
        let max_outstanding = profile.data_mlp_for(kind).round().max(1.0) as u32;
        SimCore {
            trace: TraceGenerator::new(trace_cfg),
            state: CoreState::Ready,
            wake_at: 0,
            burst_instructions: 0,
            deferred: None,
            outstanding_data: 0,
            max_outstanding,
            fetch_pending: false,
            fetch_ahead_left: 0,
            deferred_fetch: None,
            pending_issue: None,
            ipc_infinite: profile.ipc_infinite_for(kind),
            committed: 0,
        }
    }

    /// Current execution state. A core whose front-end run-ahead budget
    /// is exhausted under an outstanding fetch reports `WaitingFetch`
    /// regardless of what it was doing underneath.
    pub fn state(&self) -> CoreState {
        if self.fetch_pending && self.fetch_ahead_left == 0 {
            CoreState::WaitingFetch
        } else {
            self.state
        }
    }

    /// Application instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Resets the committed-instruction counter (after warm-up).
    pub fn reset_stats(&mut self) {
        self.committed = 0;
    }

    /// Advances the core by one cycle, returning a memory request if one
    /// is issued this cycle.
    pub fn poll(&mut self, now: u64) -> Option<CoreRequest> {
        if let Some(req) = self.pending_issue.take() {
            return Some(req);
        }
        // A pending fetch lets execution continue only while the front-end
        // buffer lasts; after that the core is fetch-bound. The underlying
        // state (e.g. a compute burst in flight) is preserved and resumes
        // when the fetch returns.
        if self.fetch_pending {
            if self.fetch_ahead_left == 0 {
                return None;
            }
            self.fetch_ahead_left -= 1;
        }
        match self.state {
            CoreState::Computing | CoreState::Stalled => {
                if now < self.wake_at {
                    return None;
                }
                self.committed += u64::from(self.burst_instructions);
                self.burst_instructions = 0;
                self.state = CoreState::Ready;
                self.next_event(now)
            }
            CoreState::WaitingFetch => None, // cleared by on_response
            CoreState::WaitingMshr => {
                if self.outstanding_data < self.max_outstanding {
                    let req = self.deferred.take().expect("deferred access present");
                    self.outstanding_data += 1;
                    self.committed += 1;
                    self.state = CoreState::Ready;
                    Some(req)
                } else {
                    None
                }
            }
            CoreState::Ready => self.next_event(now),
        }
    }

    /// The next cycle at which [`SimCore::poll`] must run, as judged
    /// right after a poll at `now`; `None` while the core is blocked and
    /// only [`SimCore::on_response`] can unblock it. Polls before the
    /// returned cycle are guaranteed no-ops, so an event-driven caller
    /// may skip them without changing anything:
    ///
    /// * a pending (replayed) issue or an unexhausted fetch run-ahead
    ///   budget mutates state on every poll — poll next cycle;
    /// * an exhausted run-ahead budget makes every poll return early
    ///   with no effect until the fetch response arrives — blocked;
    /// * a compute burst or sync stall does nothing until `wake_at`;
    /// * a full miss-slot wait does nothing until a response frees one;
    /// * `Ready` consumes a trace event every poll — poll next cycle.
    pub fn next_poll_cycle(&self, now: u64) -> Option<u64> {
        if self.pending_issue.is_some() {
            return Some(now + 1);
        }
        if self.fetch_pending {
            if self.fetch_ahead_left == 0 {
                return None;
            }
            return Some(now + 1);
        }
        match self.state {
            CoreState::Computing | CoreState::Stalled => Some(self.wake_at.max(now + 1)),
            CoreState::WaitingFetch => None,
            CoreState::WaitingMshr => None,
            CoreState::Ready => Some(now + 1),
        }
    }

    fn next_event(&mut self, now: u64) -> Option<CoreRequest> {
        match self.trace.next().expect("traces are infinite") {
            CoreEvent::Compute { instructions } => {
                let cycles = (f64::from(instructions) / self.ipc_infinite)
                    .ceil()
                    .max(1.0);
                self.state = CoreState::Computing;
                self.wake_at = now + cycles as u64;
                self.burst_instructions = instructions;
                None
            }
            CoreEvent::InstructionFetch { line } => {
                if self.fetch_pending {
                    // Only one fetch may be outstanding: stall on it and
                    // replay this one once it returns.
                    self.deferred_fetch = Some(CoreRequest {
                        line,
                        write: false,
                        fetch: true,
                    });
                    self.fetch_ahead_left = 0;
                    return None;
                }
                self.fetch_pending = true;
                self.fetch_ahead_left = FETCH_AHEAD_CYCLES;
                self.committed += 1;
                Some(CoreRequest {
                    line,
                    write: false,
                    fetch: true,
                })
            }
            ev @ (CoreEvent::DataRead { .. } | CoreEvent::DataWrite { .. }) => {
                let (line, write) = match ev {
                    CoreEvent::DataRead { line } => (line, false),
                    CoreEvent::DataWrite { line } => (line, true),
                    _ => unreachable!("matched data events only"),
                };
                let req = CoreRequest {
                    line,
                    write,
                    fetch: false,
                };
                if self.outstanding_data >= self.max_outstanding {
                    self.deferred = Some(req);
                    self.state = CoreState::WaitingMshr;
                    None
                } else {
                    self.outstanding_data += 1;
                    self.committed += 1;
                    Some(req)
                }
            }
            CoreEvent::SyncStall { cycles } => {
                self.state = CoreState::Stalled;
                self.wake_at = now + u64::from(cycles);
                None
            }
        }
    }

    /// Draws the next `count` memory accesses from the trace *without*
    /// timing, for functional cache warming (the checkpoint-based warm-up
    /// of the SimFlex methodology, §3.3). Each access is its line with
    /// [`WRITE_BIT`] set for a write; instruction fetches and data reads
    /// are both plain reads, since warming does not tell them apart.
    /// Compute and synchronization events are skipped; the
    /// committed-instruction counter is untouched (warming happens before
    /// measurement anyway).
    pub fn functional_accesses(&mut self, count: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(count as usize);
        while out.len() < count as usize {
            match self.trace.next_untimed() {
                CoreEvent::InstructionFetch { line } | CoreEvent::DataRead { line } => {
                    debug_assert_eq!(line & WRITE_BIT, 0);
                    out.push(line);
                }
                CoreEvent::DataWrite { line } => {
                    debug_assert_eq!(line & WRITE_BIT, 0);
                    out.push(line | WRITE_BIT);
                }
                CoreEvent::Compute { .. } | CoreEvent::SyncStall { .. } => {}
            }
        }
        out
    }

    /// Delivers a memory response to the core.
    pub fn on_response(&mut self, fetch: bool) {
        if fetch {
            debug_assert!(self.fetch_pending);
            self.fetch_pending = false;
            // Replay a fetch that stalled behind this one.
            if let Some(req) = self.deferred_fetch.take() {
                self.fetch_pending = true;
                self.fetch_ahead_left = FETCH_AHEAD_CYCLES;
                self.committed += 1;
                self.pending_issue = Some(req);
            }
        } else {
            debug_assert!(self.outstanding_data > 0);
            self.outstanding_data -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sop_workloads::Workload;

    fn core(kind: CoreKind) -> SimCore {
        SimCore::new(TraceConfig {
            profile: WorkloadProfile::of(Workload::WebSearch),
            core_kind: kind,
            core_id: 0,
            total_cores: 16,
            seed: 7,
        })
    }

    #[test]
    fn core_makes_progress_and_issues_requests() {
        let mut c = core(CoreKind::OutOfOrder);
        let mut requests = 0;
        for now in 0..20_000 {
            if let Some(req) = c.poll(now) {
                requests += 1;
                // Feed an instant response.
                c.on_response(req.fetch);
            }
        }
        assert!(requests > 50, "got {requests}");
        assert!(c.committed() > 1_000);
    }

    #[test]
    fn fetch_blocks_after_run_ahead() {
        let mut c = core(CoreKind::OutOfOrder);
        let mut fetch_seen = false;
        'outer: for now in 0..50_000u64 {
            if let Some(req) = c.poll(now) {
                if req.fetch {
                    fetch_seen = true;
                    // The decoupled front end may run ahead briefly, but
                    // without a response the core must eventually stall.
                    let mut t = now;
                    for _ in 0..FETCH_AHEAD_CYCLES + 64 {
                        t += 1;
                        if c.poll(t).is_none() && c.state() == CoreState::WaitingFetch {
                            break;
                        }
                    }
                    assert_eq!(c.state(), CoreState::WaitingFetch, "never stalled");
                    assert!(c.poll(t + 100).is_none());
                    c.on_response(true);
                    assert_ne!(c.state(), CoreState::WaitingFetch);
                    break 'outer;
                }
                c.on_response(req.fetch);
            }
        }
        assert!(fetch_seen, "workload has instruction fetches");
    }

    #[test]
    fn in_order_core_never_overlaps_misses() {
        let mut c = core(CoreKind::InOrder);
        let mut max_outstanding = 0u32;
        let mut outstanding = 0u32;
        for now in 0..100_000 {
            if let Some(req) = c.poll(now) {
                if req.fetch {
                    c.on_response(true);
                } else {
                    outstanding += 1;
                    max_outstanding = max_outstanding.max(outstanding);
                    // Respond after a delay pattern: hold one outstanding.
                    c.on_response(false);
                    outstanding -= 1;
                }
            }
        }
        assert!(max_outstanding <= 1);
    }

    #[test]
    fn ooo_core_overlaps_data_misses() {
        let mut c = core(CoreKind::OutOfOrder);
        let mut in_flight = 0u32;
        let mut max_in_flight = 0u32;
        for now in 0..200_000u64 {
            if let Some(req) = c.poll(now) {
                if req.fetch {
                    c.on_response(true);
                } else {
                    in_flight += 1;
                    max_in_flight = max_in_flight.max(in_flight);
                }
            }
            // Respond to one data miss every 40 cycles.
            if now % 40 == 0 && in_flight > 0 {
                c.on_response(false);
                in_flight -= 1;
            }
        }
        assert!(max_in_flight >= 2, "got {max_in_flight}");
    }

    #[test]
    fn committed_resets() {
        let mut c = core(CoreKind::OutOfOrder);
        for now in 0..1000 {
            if let Some(req) = c.poll(now) {
                c.on_response(req.fetch);
            }
        }
        assert!(c.committed() > 0);
        c.reset_stats();
        assert_eq!(c.committed(), 0);
    }
}
