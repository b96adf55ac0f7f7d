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

pub mod counters;
pub mod heatmap;
pub mod hist;
pub mod ring_buffer;
pub mod snapshot;

pub use counters::{Crossing, CrossingCounters, FaultCounters, OpClass, OpClassCounters};
pub use heatmap::{SegHeat, SegmentHeatmap};
pub use hist::CycleHistogram;
pub use ring_buffer::EventRing;
pub use snapshot::{
    json_escape, json_f64, FastPathStats, HistogramSnapshot, MetricsSnapshot, ProcCounters,
    ProfStats, SchedStats, SdwCacheStats,
};

use ring_core::access::{AccessMode, Fault};
use ring_core::ring::Ring;

/// The aggregate recorder threaded through the machine and supervisor.
///
/// Constructed disabled; [`Metrics::enable`] turns recording on. Every
/// recording method bails on the first branch when disabled, so a
/// disabled `Metrics` costs one predictable-taken compare per event.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    enabled: bool,
    /// Ring-crossing counts (matrix and per-kind).
    pub crossings: CrossingCounters,
    /// Fault counts by vector and by faulting ring.
    pub faults: FaultCounters,
    /// Instruction counts by operand-reference class.
    pub opclasses: OpClassCounters,
    /// Instruction counts by ring of execution.
    pub instr_by_ring: [u64; counters::NUM_RINGS],
    /// Cycle cost of completed CALL instructions.
    pub call_cycles: CycleHistogram,
    /// Cycle cost of completed RETURN instructions.
    pub return_cycles: CycleHistogram,
    /// Indirect-chain depth of each effective-address formation.
    pub ea_depth: CycleHistogram,
    /// Fig. 5 events where folding raised the effective ring above the
    /// ring of execution.
    pub tpr_maximisations: u64,
    /// Extra descriptor-walk references on SDW-cache hits (always 0,
    /// recorded for the latency contrast with misses).
    pub sdw_hit_refs: CycleHistogram,
    /// Extra descriptor-walk references on SDW-cache misses.
    pub sdw_miss_refs: CycleHistogram,
    /// Per-segment reference and violation counts.
    pub heatmap: SegmentHeatmap,
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
        self.instr_by_ring[ring.number() as usize] += 1;
        self.opclasses.record(class);
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
            self.heatmap.record_violation(addr.segno.value());
        }
    }

    /// A reference of the given mode reached segment `segno`'s
    /// descriptor. The bracket check happens after descriptor fetch, so
    /// this counts *attempts*.
    pub fn access(&mut self, segno: u32, mode: AccessMode) {
        if !self.enabled {
            return;
        }
        self.heatmap.record(segno, mode);
    }

    /// An SDW lookup completed: a cache hit, or a miss costing
    /// `extra_refs` descriptor-walk memory references.
    pub fn sdw_lookup(&mut self, hit: bool, extra_refs: u64) {
        if !self.enabled {
            return;
        }
        if hit {
            self.sdw_hit_refs.record(extra_refs);
        } else {
            self.sdw_miss_refs.record(extra_refs);
        }
    }

    /// `n` SDW lookups hit the cache: the same as `n` hit
    /// [`Metrics::sdw_lookup`]s, in one event.
    pub fn sdw_hits(&mut self, n: u64) {
        if !self.enabled {
            return;
        }
        self.sdw_hit_refs.record_n(0, n);
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
        self.ea_depth.record(u64::from(depth));
        if maximised {
            self.tpr_maximisations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_core::access::Violation;
    use ring_core::addr::SegAddr;

    #[test]
    fn disabled_metrics_record_nothing() {
        let mut m = Metrics::disabled();
        m.instruction(Ring::R4, OpClass::Read);
        m.crossing(Crossing::CallDown, Ring::R4, Ring::R1);
        m.fault(&Fault::TimerRunout, Ring::R4);
        m.access(10, AccessMode::Read);
        m.sdw_lookup(false, 2);
        m.call_cycles(9);
        m.ea_formed(3, true);
        assert!(!m.is_enabled());
        assert_eq!(m.crossings.total(), 0);
        assert_eq!(m.faults.total(), 0);
        assert_eq!(m.opclasses.total(), 0);
        assert_eq!(m.call_cycles.count(), 0);
        assert_eq!(m.ea_depth.count(), 0);
        assert_eq!(m.tpr_maximisations, 0);
        assert!(m.heatmap.is_empty());
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
        m.sdw_lookup(true, 0);
        m.sdw_lookup(false, 2);
        m.call_cycles(9);
        m.return_cycles(7);
        m.ea_formed(2, true);

        assert_eq!(m.instr_by_ring[4], 1);
        assert_eq!(m.instr_by_ring[1], 1);
        assert_eq!(m.crossings.count(Crossing::CallDown), 1);
        assert_eq!(m.crossings.matrix[4][1], 1);
        assert_eq!(m.crossings.matrix[1][4], 1);
        assert_eq!(m.faults.total(), 1);
        assert_eq!(m.faults.by_ring[5], 1);
        // The access-violation fault also marks the heatmap.
        let heat = m.heatmap.get(11).unwrap();
        assert_eq!(heat.writes, 1);
        assert_eq!(heat.violations, 1);
        assert_eq!(m.sdw_hit_refs.count(), 1);
        assert_eq!(m.sdw_miss_refs.count(), 1);
        assert_eq!(m.call_cycles.count(), 1);
        assert_eq!(m.tpr_maximisations, 1);
    }
}
