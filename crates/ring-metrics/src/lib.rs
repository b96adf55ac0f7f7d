//! Unified observability layer for the ring-protection simulator.
//!
//! The paper's central claim is that ring crossings (Figs. 8 and 9)
//! happen in hardware *without trapping*, so the cost of protection is a
//! handful of checks per reference. This crate is the instrumentation
//! substrate that lets the simulator show it: every layer of the stack
//! reports events into a [`Metrics`] aggregate, and the result is
//! exported as a machine-readable [`snapshot::MetricsSnapshot`] (JSON or
//! CSV).
//!
//! What is recorded:
//!
//! * **Ring-crossing telemetry** ([`counters::CrossingCounters`]) — an
//!   8×8 from-ring × to-ring matrix plus per-kind counts for the five
//!   ways control moves between rings: hardware down-calls through
//!   gates, hardware up-returns, same-ring calls/returns, traps to
//!   ring 0, and the software-assisted upward-call / downward-return
//!   traps.
//! * **Fault accounting** ([`counters::FaultCounters`]) — counts keyed
//!   by trap vector and by the ring that was executing at fault time.
//! * **Opcode-class counters** ([`counters::OpClassCounters`]) — the
//!   paper's grouping of instructions by the kind of operand reference
//!   they make (Figs. 6 and 7).
//! * **Cycle histograms** ([`hist::CycleHistogram`]) — log₂-bucketed
//!   latency distributions for CALL and RETURN paths, effective-address
//!   indirect-chain depth, and SDW-cache hit/miss descriptor-walk
//!   costs, plus a count of Fig. 5 TPR ring-maximisation events.
//! * **Per-segment heatmap** ([`heatmap::SegmentHeatmap`]) — R/W/E
//!   reference counts and access-violation faults per segment.
//! * **Bounded event recording** ([`ring_buffer::EventRing`]) — the
//!   generic drop-oldest ring buffer the CPU's execution trace is built
//!   on.
//!
//! The layer is zero-cost when disabled: every [`Metrics`] entry point
//! checks one boolean and returns, and the machine reaches a bit-for-bit
//! identical architectural state whether metrics are on or off (a
//! property test in the workspace enforces this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commit;
pub mod counters;
pub mod heatmap;
pub mod hist;
pub mod ring_buffer;
pub mod snapshot;

pub use commit::CommitRefs;
pub use counters::{Crossing, CrossingCounters, FaultCounters, OpClass, OpClassCounters};
pub use heatmap::{SegHeat, SegmentHeatmap};
pub use hist::CycleHistogram;
pub use ring_buffer::EventRing;
pub use snapshot::{
    json_escape, json_f64, FastPathStats, MetricsSnapshot, ProcCounters, ProfStats, SchedStats,
    SdwCacheStats,
};

use ring_core::access::{AccessMode, Fault};
use ring_core::ring::Ring;

use commit::{CommitTable, Tallies};

/// The aggregate recorder threaded through the machine and supervisor.
///
/// Constructed disabled; [`Metrics::enable`] turns recording on. Every
/// recording method bails on the first branch when disabled, so a
/// disabled `Metrics` costs one predictable-taken compare per event.
/// The counters are read through [`MetricsSnapshot::new`]: fast-path
/// commits wait in a fixed table ([`commit`]) until a snapshot folds
/// them in.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    enabled: bool,
    /// Ring-crossing counts (matrix and per-kind).
    crossings: CrossingCounters,
    /// Fault counts by vector and by faulting ring.
    faults: FaultCounters,
    /// Cycle cost of completed CALL instructions.
    call_cycles: CycleHistogram,
    /// Cycle cost of completed RETURN instructions.
    return_cycles: CycleHistogram,
    /// Extra descriptor-walk references on SDW-cache misses.
    sdw_miss_refs: CycleHistogram,
    /// The counters fast-path commits feed, less the commits `commits`
    /// still holds: instructions by ring and by class, EA depth and TPR
    /// maximisations, SDW-cache hits and the per-segment heatmap.
    tallies: Tallies,
    /// Fast-path commits not yet in `tallies`.
    commits: CommitTable,
}

impl Metrics {
    /// A disabled recorder (the machine's initial state).
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// An enabled recorder with zeroed counters.
    pub fn enabled() -> Metrics {
        Metrics {
            enabled: true,
            ..Metrics::default()
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on (existing counts are kept).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// An instruction of the given operand class completed decode in
    /// `ring`.
    pub fn instruction(&mut self, ring: Ring, class: OpClass) {
        if !self.enabled {
            return;
        }
        self.tallies.instr_by_ring[ring.number() as usize] += 1;
        self.tallies.opclasses.record(class);
    }

    /// A fast-path commit: one instruction of `class` in `ring`, whose
    /// segment references `refs` each hit the SDW cache, with the Fig. 5
    /// event `ea` (see [`Metrics::ea_formed`]). It counts what
    /// [`Metrics::instruction`], an [`Metrics::sdw_hit`] and an
    /// [`Metrics::access`] per reference, and [`Metrics::ea_formed`]
    /// count, as one record in the commit table.
    #[inline]
    pub fn fast_commit(
        &mut self,
        ring: Ring,
        class: OpClass,
        refs: &CommitRefs,
        ea: Option<(u32, bool)>,
    ) {
        if !self.enabled {
            return;
        }
        match refs.record(ring, class, ea) {
            Some(record) => self.commits.count(record, &mut self.tallies),
            None => self.tallies.add_unpacked(ring, class, refs, ea),
        }
    }

    /// Control crossed (or stayed within) a ring boundary.
    pub fn crossing(&mut self, kind: Crossing, from: Ring, to: Ring) {
        if !self.enabled {
            return;
        }
        self.crossings.record(kind, from, to);
    }

    /// A fault was detected while executing in `ring`. An access
    /// violation also marks the faulting segment in the heatmap.
    pub fn fault(&mut self, fault: &Fault, ring: Ring) {
        if !self.enabled {
            return;
        }
        self.faults.record(fault, ring);
        if let Fault::AccessViolation { addr, .. } = fault {
            self.tallies.heatmap.record_violation(addr.segno.value());
        }
    }

    /// A reference of the given mode reached segment `segno`'s
    /// descriptor. The bracket check happens after descriptor fetch, so
    /// this counts *attempts*.
    pub fn access(&mut self, segno: u32, mode: AccessMode) {
        if !self.enabled {
            return;
        }
        self.tallies.heatmap.record(segno, mode);
    }

    /// An SDW lookup hit the associative memory, at the cost of no
    /// descriptor-walk memory reference.
    pub fn sdw_hit(&mut self) {
        if !self.enabled {
            return;
        }
        self.tallies.sdw_hits += 1;
    }

    /// An SDW lookup missed the associative memory, costing
    /// `extra_refs` descriptor-walk memory references.
    pub fn sdw_miss(&mut self, extra_refs: u64) {
        if !self.enabled {
            return;
        }
        self.sdw_miss_refs.record(extra_refs);
    }

    /// A CALL instruction completed, costing `cycles`.
    pub fn call_cycles(&mut self, cycles: u64) {
        if !self.enabled {
            return;
        }
        self.call_cycles.record(cycles);
    }

    /// A RETURN instruction completed, costing `cycles`.
    pub fn return_cycles(&mut self, cycles: u64) {
        if !self.enabled {
            return;
        }
        self.return_cycles.record(cycles);
    }

    /// Effective-address formation finished after following `depth`
    /// indirect words; `maximised` reports whether any fold raised the
    /// effective ring above the ring of execution (Fig. 5).
    pub fn ea_formed(&mut self, depth: u32, maximised: bool) {
        if !self.enabled {
            return;
        }
        self.tallies.ea_depth.record(u64::from(depth));
        if maximised {
            self.tallies.tpr_maximisations += 1;
        }
    }

    /// The counters fast-path commits feed, with the commit table
    /// folded in: what counting each event as it happened would hold.
    fn folded(&self) -> Tallies {
        let mut folded = self.tallies.clone();
        folded.add_records(self.commits.iter());
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_core::access::Violation;
    use ring_core::addr::SegAddr;

    fn snapshot(m: &Metrics) -> MetricsSnapshot {
        MetricsSnapshot::new(m, 0, 0, SdwCacheStats::default(), FastPathStats::default())
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let mut m = Metrics::disabled();
        m.instruction(Ring::R4, OpClass::Read);
        m.crossing(Crossing::CallDown, Ring::R4, Ring::R1);
        m.fault(&Fault::TimerRunout, Ring::R4);
        m.access(10, AccessMode::Read);
        m.sdw_miss(2);
        m.call_cycles(9);
        m.ea_formed(3, true);
        assert!(!m.is_enabled());
        let s = snapshot(&m);
        assert_eq!(s.crossings.total(), 0);
        assert_eq!(s.faults.total(), 0);
        assert_eq!(s.opclasses.total(), 0);
        assert_eq!(s.call_cycles.count(), 0);
        assert_eq!(s.ea_depth.count(), 0);
        assert_eq!(s.tpr_maximisations, 0);
        assert!(s.heatmap.is_empty());
    }

    #[test]
    fn enabled_metrics_record_everything() {
        let mut m = Metrics::enabled();
        m.instruction(Ring::R4, OpClass::Read);
        m.instruction(Ring::R1, OpClass::Call);
        m.crossing(Crossing::CallDown, Ring::R4, Ring::R1);
        m.crossing(Crossing::ReturnUp, Ring::R1, Ring::R4);
        m.fault(
            &Fault::AccessViolation {
                mode: AccessMode::Write,
                violation: Violation::OutsideBracket,
                addr: SegAddr::from_parts(11, 3).unwrap(),
                ring: Ring::R5,
            },
            Ring::R5,
        );
        m.access(11, AccessMode::Write);
        m.sdw_hit();
        m.sdw_miss(2);
        m.call_cycles(9);
        m.return_cycles(7);
        m.ea_formed(2, true);

        let s = snapshot(&m);
        assert_eq!(s.instr_by_ring[4], 1);
        assert_eq!(s.instr_by_ring[1], 1);
        assert_eq!(s.crossings.count(Crossing::CallDown), 1);
        assert_eq!(s.crossings.matrix[4][1], 1);
        assert_eq!(s.crossings.matrix[1][4], 1);
        assert_eq!(s.faults.total(), 1);
        assert_eq!(s.faults.by_ring[5], 1);
        // The access-violation fault also marks the heatmap.
        let heat = s.heatmap.get(11).unwrap();
        assert_eq!(heat.writes, 1);
        assert_eq!(heat.violations, 1);
        assert_eq!(s.sdw_hit_refs.count(), 1);
        assert_eq!(s.sdw_miss_refs.count(), 1);
        assert_eq!(s.call_cycles.count(), 1);
        assert_eq!(s.tpr_maximisations, 1);
    }
}
