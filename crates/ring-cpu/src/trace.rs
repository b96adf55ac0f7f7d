//! Execution tracing for examples, debugging and tests.
//!
//! Disabled by default; when enabled the machine records one event per
//! instruction plus call/return/trap/native events into a drop-oldest
//! ring buffer ([`ring_metrics::EventRing`]): beyond the capacity the
//! *oldest* events are discarded, so the recorder always holds the most
//! recent window of execution. Sequence numbers reveal how many earlier
//! events were dropped.

use ring_core::access::Fault;
use ring_core::addr::{SegAddr, SegNo, WordNo};
use ring_core::registers::Ipr;
use ring_core::ring::Ring;
use ring_metrics::EventRing;

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

/// Event recorder: a drop-oldest ring buffer with a capacity bound.
#[derive(Clone)]
pub(crate) struct Trace {
    events: Option<EventRing<TraceEvent>>,
}

impl Trace {
    pub(crate) fn disabled() -> Trace {
        Trace { events: None }
    }

    pub(crate) fn enabled(capacity: usize) -> Trace {
        Trace {
            events: Some(EventRing::new(capacity)),
        }
    }

    /// Records the event produced by `make` if tracing is on; once the
    /// buffer is full the oldest event is discarded to make room (the
    /// closure avoids constructing events when disabled).
    pub(crate) fn push<F: FnOnce() -> TraceEvent>(&mut self, make: F) {
        if let Some(ring) = self.events.as_mut() {
            ring.push(make());
        }
    }

    /// Events discarded so far because the buffer was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.events.as_ref().map_or(0, |r| r.dropped())
    }

    pub(crate) fn take(&mut self) -> Vec<TraceEvent> {
        match self.events.as_mut() {
            Some(ring) => ring.drain().into_iter().map(|(_, e)| e).collect(),
            None => Vec::new(),
        }
    }

    /// Drains the recorded events with their global sequence numbers.
    pub(crate) fn take_seq(&mut self) -> Vec<(u64, TraceEvent)> {
        match self.events.as_mut() {
            Some(ring) => ring.drain(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(|| TraceEvent::Trap {
            fault: Fault::TimerRunout,
        });
        assert!(t.take().is_empty());
    }

    #[test]
    fn enabled_trace_respects_capacity() {
        let mut t = Trace::enabled(2);
        for _ in 0..5 {
            t.push(|| TraceEvent::Trap {
                fault: Fault::TimerRunout,
            });
        }
        assert_eq!(t.take().len(), 2);
        // take() drains.
        assert!(t.take().is_empty());
    }

    #[test]
    fn full_trace_keeps_newest_events() {
        let mut t = Trace::enabled(2);
        for i in 0..5u32 {
            t.push(|| TraceEvent::Trap {
                fault: Fault::Derail { code: i },
            });
        }
        assert_eq!(t.dropped(), 3);
        let held = t.take_seq();
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

    #[test]
    fn display_formats() {
        let e = TraceEvent::Trap {
            fault: Fault::TimerRunout,
        };
        assert!(e.to_string().contains("TRAP"));
    }
}
