//! The observer: every recorder the machine reports to, behind one call
//! per commit point.
//!
//! A commit point is a single hardware event: an instruction retiring
//! on either engine, entry to a native body, a CALL or RETURN (Figs.
//! 8–9), trap entry, RETT, a scheduler dispatch, a chaos injection.
//! Each reports here exactly once, and the observer hands the event to
//! whichever recorders are on:
//!
//! * the trace ring, a drop-oldest window of [`TraceEvent`]s (beyond
//!   its capacity the *oldest* events are discarded; sequence numbers
//!   reveal how many);
//! * [`Metrics`], counters and histograms;
//! * the span log ([`SpanRecorder`]);
//! * the sampling [`Profiler`], which keeps its own frame stack from
//!   these calls, so it needs no span log;
//! * the [`TimeSeries`], which records five cumulative counters.
//!
//! The profiler and the time series are driven by simulated cycles;
//! the step loop asks [`Observer::due`] once per step for both.
//! Per-reference counters (SDW lookups, segment accesses, EA depth) are
//! not commit points: on the reference path they stay plain [`Metrics`]
//! updates at their chokepoints, and a fast-path commit carries its own
//! in its one [`Metrics::fast_commit`] call.

use ring_core::access::{vector, Fault};
use ring_core::addr::{SegAddr, SegNo, WordNo};
use ring_core::registers::Ipr;
use ring_core::ring::Ring;
use ring_metrics::{CommitRefs, Crossing, EventRing, Metrics};
use ring_prof::{Profiler, TimeSeries, Totals};
use ring_trace::{InstantKind, SpanKey, SpanKind, SpanRecorder};

use crate::isa::{Instr, OperandUse};
use crate::machine::ExecStats;
use crate::trace::TraceEvent;
use crate::trap::TRAP_SEGNO;

/// The machine's recorders. All start off; each costs one branch per
/// commit point while off and never changes architectural state.
#[derive(Clone, Default)]
pub(crate) struct Observer {
    trace: Option<EventRing<TraceEvent>>,
    pub(crate) metrics: Metrics,
    pub(crate) spans: SpanRecorder,
    pub(crate) prof: Profiler,
    pub(crate) timeseries: TimeSeries,
    /// Page-fault traps taken (the time series' paging curve).
    page_faults: u64,
    /// The earliest cycle the profiler or the time series is due at
    /// (0 until the first tick works it out).
    next_tick: u64,
}

impl Observer {
    // ---- enabling and draining ------------------------------------------

    pub(crate) fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(EventRing::new(capacity));
    }

    pub(crate) fn enable_profiler(&mut self, sample_every: u64, timeseries_every: u64) {
        self.prof = Profiler::new(sample_every);
        self.timeseries = TimeSeries::new(timeseries_every);
        self.next_tick = self.prof.next_due().min(self.timeseries.next_due());
    }

    /// Drains the trace ring with each event's global sequence number.
    pub(crate) fn take_trace_seq(&mut self) -> Vec<(u64, TraceEvent)> {
        self.trace.as_mut().map_or_else(Vec::new, EventRing::drain)
    }

    /// Trace events discarded so far because the ring was full.
    pub(crate) fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map_or(0, EventRing::dropped)
    }

    #[inline]
    fn push(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(ring) = self.trace.as_mut() {
            ring.push(make());
        }
    }

    // ---- the cycle-driven pipelines --------------------------------------

    /// Whether the profiler or the time series wants the step boundary
    /// at `cycles`: the one comparison the step loop makes for both.
    #[inline]
    pub(crate) fn due(&self, cycles: u64) -> bool {
        cycles >= self.next_tick
    }

    /// Samples the profiler and records a time-series point, each if
    /// due, at the step boundary before the instruction at `at`.
    pub(crate) fn tick(&mut self, cycles: u64, at: Ipr, stats: &ExecStats) {
        self.prof
            .tick(cycles, at.ring.number(), at.addr.segno.value());
        self.timeseries.record(Totals {
            cycles,
            instructions: stats.instructions,
            faults: stats.traps,
            ring_changes: stats.calls_downward + stats.returns_upward + stats.traps,
            page_faults: self.page_faults,
        });
        self.next_tick = self.prof.next_due().min(self.timeseries.next_due());
    }

    // ---- commit points ---------------------------------------------------

    /// The reference interpreter decoded `instr` at `at`.
    #[inline]
    pub(crate) fn instruction(&mut self, at: Ipr, instr: Instr, use_class: OperandUse) {
        self.push(|| TraceEvent::Instr { at, instr });
        self.metrics.instruction(at.ring, use_class.metric_class());
    }

    /// The fast path committed `instr` from `at`: the same events as
    /// its reference twin, with the twin's segment references `refs`
    /// and effective-address event, in one metrics call. Each reference
    /// stands for one SDW lookup that hit the associative memory, since
    /// the twin's `Machine::sdw_for` reports a lookup and an access
    /// together.
    #[inline]
    pub(crate) fn fast_instruction(
        &mut self,
        at: Ipr,
        instr: Instr,
        use_class: OperandUse,
        refs: &CommitRefs,
        ea_event: Option<(u32, bool)>,
    ) {
        self.push(|| TraceEvent::Instr { at, instr });
        self.metrics
            .fast_commit(at.ring, use_class.metric_class(), refs, ea_event);
    }

    /// A native procedure body was entered at `segno|entry`.
    pub(crate) fn native(&mut self, segno: SegNo, entry: WordNo) {
        self.push(|| TraceEvent::Native { segno, entry });
    }

    /// A CALL from `from` entered `to` in `new_ring`.
    #[inline]
    pub(crate) fn call(
        &mut self,
        from: Ipr,
        to: SegAddr,
        new_ring: Ring,
        downward: bool,
        cycles: u64,
    ) {
        self.push(|| TraceEvent::Call { from, to, new_ring });
        let kind = if downward {
            Crossing::CallDown
        } else {
            Crossing::CallSameRing
        };
        self.metrics.crossing(kind, from.ring, new_ring);
        let key = SpanKey {
            ring: new_ring.number(),
            segno: to.segno.value(),
            entry: to.wordno.value(),
        };
        self.spans
            .open(SpanKind::Call, key, from.ring.number(), cycles);
        self.prof.open(SpanKind::Call, key);
    }

    /// A RETURN from `from` went back to `to` in `new_ring`.
    #[inline]
    pub(crate) fn ret(
        &mut self,
        from: Ipr,
        to: SegAddr,
        new_ring: Ring,
        upward: bool,
        cycles: u64,
    ) {
        self.push(|| TraceEvent::Return { from, to, new_ring });
        let kind = if upward {
            Crossing::ReturnUp
        } else {
            Crossing::ReturnSameRing
        };
        self.metrics.crossing(kind, from.ring, new_ring);
        self.close(new_ring, cycles);
    }

    /// `fault` forced ring 0 from ring `from`, vectoring into the trap
    /// segment.
    pub(crate) fn trap(&mut self, fault: Fault, from: Ring, cycles: u64) {
        self.push(|| TraceEvent::Trap { fault });
        self.metrics.fault(&fault, from);
        // The software-assisted crossings get their own kind; every
        // other trap is a plain forced entry to ring 0.
        let kind = match fault {
            Fault::UpwardCall { .. } => Crossing::UpwardCallTrap,
            Fault::DownwardReturn { .. } => Crossing::DownwardReturnTrap,
            _ => Crossing::TrapToRing0,
        };
        self.metrics.crossing(kind, from, Ring::R0);
        if fault.vector() == vector::PAGE_FAULT {
            self.page_faults += 1;
        }
        let key = SpanKey {
            ring: 0,
            segno: TRAP_SEGNO.value(),
            entry: fault.vector(),
        };
        if self.spans.is_enabled() {
            let ikind = if matches!(fault, Fault::AccessViolation { .. }) {
                InstantKind::Violation
            } else {
                InstantKind::Fault
            };
            self.spans
                .instant(ikind, from.number(), cycles, || fault.to_string());
            self.spans.open(SpanKind::Trap, key, from.number(), cycles);
        }
        self.prof.open(SpanKind::Trap, key);
    }

    /// RETT resumed the interrupted computation in `ring`.
    pub(crate) fn rett(&mut self, ring: Ring, cycles: u64) {
        self.close(ring, cycles);
    }

    /// The supervisor dispatched process `pid`.
    pub(crate) fn sched(&mut self, pid: u32, cycles: u64) {
        self.spans.sched(pid, cycles);
        self.prof.dispatch(pid);
    }

    /// A structural marker (a chaos injection) while executing in
    /// `ring`; `name` is built only when spans are on.
    pub(crate) fn marker(&mut self, ring: Ring, cycles: u64, name: impl FnOnce() -> String) {
        self.spans
            .instant(InstantKind::Marker, ring.number(), cycles, name);
    }

    /// The innermost span closed, returning control to `ring`.
    #[inline]
    fn close(&mut self, ring: Ring, cycles: u64) {
        self.spans.close(ring.number(), cycles);
        self.prof.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn derail(code: u32) -> Fault {
        Fault::Derail { code }
    }

    fn trap(o: &mut Observer, fault: Fault) {
        o.trap(fault, Ring::R4, 0);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut o = Observer::default();
        trap(&mut o, Fault::TimerRunout);
        assert!(o.take_trace_seq().is_empty());
    }

    #[test]
    fn enabled_trace_respects_capacity() {
        let mut o = Observer::default();
        o.enable_trace(2);
        for _ in 0..5 {
            trap(&mut o, Fault::TimerRunout);
        }
        assert_eq!(o.take_trace_seq().len(), 2);
        // Taking drains.
        assert!(o.take_trace_seq().is_empty());
    }

    #[test]
    fn full_trace_keeps_newest_events() {
        let mut o = Observer::default();
        o.enable_trace(2);
        for i in 0..5u32 {
            trap(&mut o, derail(i));
        }
        assert_eq!(o.trace_dropped(), 3);
        let held = o.take_trace_seq();
        // The two *newest* events survive, with their true positions in
        // the event stream — the drop-oldest contract.
        assert_eq!(held.len(), 2);
        assert_eq!(held[0].0, 3);
        assert_eq!(held[1].0, 4);
        for (seq, e) in held {
            match e {
                TraceEvent::Trap {
                    fault: Fault::Derail { code },
                } => assert_eq!(u64::from(code), seq),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
}
