//! Execution tracing for examples, debugging and tests.
//!
//! Disabled by default; when enabled ([`crate::Machine::enable_trace`])
//! the machine records one event per instruction plus
//! call/return/trap/native events into a drop-oldest ring buffer
//! ([`ring_metrics::EventRing`]): beyond the capacity the *oldest*
//! events are discarded, so the recorder always holds the most recent
//! window of execution. Sequence numbers reveal how many earlier events
//! were dropped.

use ring_core::access::Fault;
use ring_core::addr::{SegAddr, SegNo, WordNo};
use ring_core::registers::Ipr;
use ring_core::ring::Ring;

use crate::isa::Instr;

/// One traced event.
#[derive(Clone, Copy, Debug)]
pub enum TraceEvent {
    /// An instruction was decoded at `at`.
    Instr {
        /// Location (and ring) the instruction came from.
        at: Ipr,
        /// The decoded instruction.
        instr: Instr,
    },
    /// A CALL transferred control.
    Call {
        /// Caller's IPR (already advanced past the CALL).
        from: Ipr,
        /// Entry point called.
        to: SegAddr,
        /// Ring of execution after the call.
        new_ring: Ring,
    },
    /// A RETURN transferred control.
    Return {
        /// Returner's IPR.
        from: Ipr,
        /// Return point.
        to: SegAddr,
        /// Ring of execution after the return.
        new_ring: Ring,
    },
    /// A fault trapped to ring 0.
    Trap {
        /// The fault taken.
        fault: Fault,
    },
    /// A native procedure body was invoked.
    Native {
        /// The native segment.
        segno: SegNo,
        /// Entry word number.
        entry: WordNo,
    },
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::Instr { at, instr } => write!(
                f,
                "[ring {}] {}|{}: {} {:o}",
                at.ring,
                at.addr.segno,
                at.addr.wordno,
                instr.opcode.mnemonic(),
                instr.offset
            ),
            TraceEvent::Call { from, to, new_ring } => write!(
                f,
                "CALL ring {} -> ring {} at {to} (from {})",
                from.ring, new_ring, from.addr
            ),
            TraceEvent::Return { from, to, new_ring } => write!(
                f,
                "RETURN ring {} -> ring {} to {to} (from {})",
                from.ring, new_ring, from.addr
            ),
            TraceEvent::Trap { fault } => write!(f, "TRAP: {fault}"),
            TraceEvent::Native { segno, entry } => {
                write!(f, "native procedure {segno}|{entry}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = TraceEvent::Trap {
            fault: Fault::TimerRunout,
        };
        assert!(e.to_string().contains("TRAP"));
    }
}
