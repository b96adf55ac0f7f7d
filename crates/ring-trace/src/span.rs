//! The span model: CALL/trap-entry opens a span, RETURN/trap-exit
//! closes it.
//!
//! A span is keyed by `(ring, segment, entry word)` — the gate the
//! crossing went through — so the stream reconstructs the cross-ring
//! call tree of Figs. 8–9 and attributes simulated cycles to each gate
//! both inclusively (`total_cycles`) and exclusively (`self_cycles`).
//!
//! [`SpanRecorder`] is the machine-facing half: an append-only event
//! log, a few bytes an event, that is a no-op until enabled (the
//! recorder is consulted only at CALL, RETURN, trap entry and RETT, so
//! the disabled cost is a single branch per crossing).
//! [`build_tree`] and [`gate_table`] are the analysis half.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

/// Why a span was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A CALL instruction transferred here (possibly through a gate).
    Call,
    /// A trap vectored here (fault, timer runout, I/O completion).
    Trap,
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanKind::Call => write!(f, "call"),
            SpanKind::Trap => write!(f, "trap"),
        }
    }
}

/// The identity of a span: which entry point, executing in which ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanKey {
    /// The ring the span executes in (the ring after the crossing).
    pub ring: u8,
    /// The target segment number.
    pub segno: u32,
    /// The entry word within the segment (for traps, the fault vector).
    pub entry: u32,
}

impl fmt::Display for SpanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{} {}|{}", self.ring, self.segno, self.entry)
    }
}

/// What an instant (zero-duration) event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstantKind {
    /// A fault that is not an access-bracket violation.
    Fault,
    /// An access violation — a bracket, gate, or bounds check refused
    /// the reference.
    Violation,
    /// A structural marker (e.g. a RETURN with no matching open span).
    Marker,
}

impl InstantKind {
    /// The Chrome trace-event category string for this kind.
    pub fn category(self) -> &'static str {
        match self {
            InstantKind::Fault => "fault",
            InstantKind::Violation => "violation",
            InstantKind::Marker => "marker",
        }
    }
}

/// One record in the raw span stream, in emission order.
///
/// Timestamps are simulated cycles at the moment the crossing
/// instruction (or trap) was processed. The stream is strictly
/// sequential — spans nest globally, so `Close` always closes the most
/// recently opened span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanEvent {
    /// A span opened: control entered `key` from `from_ring`.
    Open {
        /// Why the span opened.
        kind: SpanKind,
        /// The entry point, including the ring now executing.
        key: SpanKey,
        /// The ring control came from.
        from_ring: u8,
        /// Simulated cycles at the crossing.
        cycles: u64,
    },
    /// The innermost open span closed: control returned to `to_ring`.
    Close {
        /// The ring control returned to.
        to_ring: u8,
        /// Simulated cycles at the crossing.
        cycles: u64,
    },
    /// A zero-duration event (fault, violation, or marker).
    Instant {
        /// What the event marks.
        kind: InstantKind,
        /// Human-readable description (e.g. the fault display).
        name: String,
        /// The ring executing when the event fired.
        ring: u8,
        /// Simulated cycles at the event.
        cycles: u64,
    },
    /// The scheduler dispatched process `pid`: the previous process's
    /// run slice ends here and `pid`'s begins. Scheduler slices live on
    /// per-process tracks, orthogonal to the ring-crossing span stack,
    /// so [`build_tree`] ignores them.
    Sched {
        /// Process-table index of the process now running.
        pid: u32,
        /// Simulated cycles at the dispatch.
        cycles: u64,
    },
}

impl SpanEvent {
    /// The simulated-cycle timestamp of the event.
    pub fn cycles(&self) -> u64 {
        match self {
            SpanEvent::Open { cycles, .. }
            | SpanEvent::Close { cycles, .. }
            | SpanEvent::Instant { cycles, .. }
            | SpanEvent::Sched { cycles, .. } => *cycles,
        }
    }
}

// The recorder's byte stream. The low two bits of an event's first byte
// name its form; `SpanRecorder` describes the layouts.
const FORM_MASK: u8 = 0b11;
const FORM_OPEN: u8 = 0;
const FORM_CLOSE: u8 = 1;
const FORM_GENERAL: u8 = 2;
// Rings, segment numbers and entries up to these widths fit the fixed
// forms: 8 rings, and the architecture's 15-bit segment and 18-bit word
// numbers.
const RING_BITS: u32 = 3;
const SEGNO_BITS: u32 = 15;
const ENTRY_BITS: u32 = 18;
const OPEN_KIND_SHIFT: u32 = 2;
const OPEN_RING_SHIFT: u32 = 3;
const OPEN_FROM_SHIFT: u32 = 6;
const OPEN_SEGNO_SHIFT: u32 = 9;
const OPEN_ENTRY_SHIFT: u32 = 24;
const OPEN_DELTA_SHIFT: u32 = 42;
const OPEN_DELTA_BITS: u32 = 64 - OPEN_DELTA_SHIFT;
const CLOSE_RING_SHIFT: u32 = 2;
const CLOSE_DELTA_SHIFT: u32 = 5;
const CLOSE_DELTA_BITS: u32 = 16 - CLOSE_DELTA_SHIFT;
// The event a general-form header byte carries, in its bits 2–3.
const EVENT_OPEN: u8 = 0;
const EVENT_CLOSE: u8 = 1;
const EVENT_INSTANT: u8 = 2;
const EVENT_SCHED: u8 = 3;
/// The longest general form: a header, a 10-byte delta, two rings and
/// two 5-byte varints.
const GENERAL_MAX: usize = 23;

/// A signed cycle step (a wrapped difference) as an unsigned varint
/// value: small steps either way stay small.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// One event in the general form, built on the stack so that it joins
/// the stream with one capacity check.
struct General {
    buf: [u8; GENERAL_MAX],
    len: usize,
}

impl General {
    fn new(event: u8, kind: u8, delta: u64) -> General {
        let mut g = General {
            buf: [0; GENERAL_MAX],
            len: 0,
        };
        g.byte(FORM_GENERAL | event << 2 | kind << 4);
        g.varint(zigzag(delta));
        g
    }

    fn byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    /// LEB128: seven bits a byte, low first, the top bit set on all but
    /// the last.
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Reads events back from a recorder's byte stream.
#[derive(Clone, Debug)]
struct Decoder<'a> {
    bytes: &'a [u8],
    /// The cycle count of the last event read.
    cycles: u64,
}

impl Decoder<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0; N];
        out.copy_from_slice(&self.bytes[..N]);
        self.bytes = &self.bytes[N..];
        out
    }

    fn byte(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
        }
        v
    }

    /// Applies a cycle delta and returns the event's cycle count.
    fn step(&mut self, delta: u64) -> u64 {
        self.cycles = self.cycles.wrapping_add(delta);
        self.cycles
    }

    /// The next event; `name` yields an instant's name from its index.
    fn event(&mut self, name: impl FnOnce(usize) -> String) -> SpanEvent {
        match self.bytes[0] & FORM_MASK {
            FORM_OPEN => {
                let word = u64::from_le_bytes(self.take());
                let field = |shift: u32, bits: u32| (word >> shift) & ((1 << bits) - 1);
                SpanEvent::Open {
                    kind: span_kind(field(OPEN_KIND_SHIFT, 1) as u8),
                    key: SpanKey {
                        ring: field(OPEN_RING_SHIFT, RING_BITS) as u8,
                        segno: field(OPEN_SEGNO_SHIFT, SEGNO_BITS) as u32,
                        entry: field(OPEN_ENTRY_SHIFT, ENTRY_BITS) as u32,
                    },
                    from_ring: field(OPEN_FROM_SHIFT, RING_BITS) as u8,
                    cycles: self.step(word >> OPEN_DELTA_SHIFT),
                }
            }
            FORM_CLOSE => {
                let word = u16::from_le_bytes(self.take());
                SpanEvent::Close {
                    to_ring: (word >> CLOSE_RING_SHIFT) as u8 & ((1 << RING_BITS) - 1),
                    cycles: self.step(u64::from(word >> CLOSE_DELTA_SHIFT)),
                }
            }
            _ => {
                let header = self.byte();
                let kind = header >> 4 & 0b11;
                let delta = unzigzag(self.varint());
                let cycles = self.step(delta);
                match header >> 2 & 0b11 {
                    EVENT_OPEN => {
                        let ring = self.byte();
                        let from_ring = self.byte();
                        let segno = self.varint() as u32;
                        let entry = self.varint() as u32;
                        SpanEvent::Open {
                            kind: span_kind(kind),
                            key: SpanKey { ring, segno, entry },
                            from_ring,
                            cycles,
                        }
                    }
                    EVENT_CLOSE => SpanEvent::Close {
                        to_ring: self.byte(),
                        cycles,
                    },
                    EVENT_INSTANT => {
                        let ring = self.byte();
                        let index = self.varint() as usize;
                        SpanEvent::Instant {
                            kind: match kind {
                                0 => InstantKind::Fault,
                                1 => InstantKind::Violation,
                                _ => InstantKind::Marker,
                            },
                            name: name(index),
                            ring,
                            cycles,
                        }
                    }
                    _ => SpanEvent::Sched {
                        pid: self.varint() as u32,
                        cycles,
                    },
                }
            }
        }
    }
}

fn span_kind(bits: u8) -> SpanKind {
    if bits == 0 {
        SpanKind::Call
    } else {
        SpanKind::Trap
    }
}

/// The machine-facing event log.
///
/// Disabled (the default) it is inert: every method returns after one
/// branch and the machine's architectural behaviour is untouched either
/// way — the recorder only observes crossings, it never participates in
/// them.
///
/// Enabled, it appends each event to one byte stream, with its cycle
/// count as the wrapped difference from the previous event's. The low
/// two bits of an event's first byte name its form:
///
/// * An open whose rings fit 3 bits, whose segment and entry fit the
///   architecture's 15 and 18 bits, and whose delta fits 22 bits is one
///   little-endian 64-bit word. From bit 0 up it holds the form, the
///   span kind (1 bit), the ring (3), the ring control came from (3),
///   the segment (15), the entry (18) and the delta (22).
/// * A close whose ring fits 3 bits and whose delta fits 11 bits is one
///   little-endian 16-bit word: the form, the ring (3 bits) and the
///   delta (11).
/// * Every other event takes the general form: a header byte (the form,
///   the event in bits 2–3, the span's or instant's kind in bits 4–5),
///   the delta as a zigzag varint, then the event's fields, with rings
///   as whole bytes and segments, entries, pids and name indices as
///   varints.
///
/// So any sequence round-trips — cycles may stand still, step back or
/// jump to `u64::MAX`, and a key may hold any `u32` — while a gate
/// call and its return take 10 bytes. Each distinct instant name is
/// stored once; an instant holds its index.
#[derive(Clone, Debug, Default)]
pub struct SpanRecorder {
    enabled: bool,
    /// The encoded events, in recording order.
    bytes: Vec<u8>,
    /// Number of events in `bytes`.
    len: usize,
    /// The last event's cycle count, which the next delta is taken from.
    cycles: u64,
    /// Each distinct instant name, with its index in order of first use.
    names: BTreeMap<String, usize>,
}

impl SpanRecorder {
    /// A disabled recorder (records nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether the recorder is capturing events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Counts one more event at `cycles` and returns its delta.
    #[inline]
    fn advance(&mut self, cycles: u64) -> u64 {
        let delta = cycles.wrapping_sub(self.cycles);
        self.cycles = cycles;
        self.len += 1;
        delta
    }

    /// Records a span opening. No-op when disabled.
    #[inline]
    pub fn open(&mut self, kind: SpanKind, key: SpanKey, from_ring: u8, cycles: u64) {
        if !self.enabled {
            return;
        }
        let delta = self.advance(cycles);
        let wide = u64::from((key.ring | from_ring) >> RING_BITS)
            | u64::from(key.segno >> SEGNO_BITS)
            | u64::from(key.entry >> ENTRY_BITS)
            | delta >> OPEN_DELTA_BITS;
        if wide == 0 {
            let word = u64::from(FORM_OPEN)
                | (kind as u64) << OPEN_KIND_SHIFT
                | u64::from(key.ring) << OPEN_RING_SHIFT
                | u64::from(from_ring) << OPEN_FROM_SHIFT
                | u64::from(key.segno) << OPEN_SEGNO_SHIFT
                | u64::from(key.entry) << OPEN_ENTRY_SHIFT
                | delta << OPEN_DELTA_SHIFT;
            self.bytes.extend_from_slice(&word.to_le_bytes());
        } else {
            let mut g = General::new(EVENT_OPEN, kind as u8, delta);
            g.byte(key.ring);
            g.byte(from_ring);
            g.varint(key.segno.into());
            g.varint(key.entry.into());
            self.bytes.extend_from_slice(g.bytes());
        }
    }

    /// Records the innermost span closing. No-op when disabled.
    #[inline]
    pub fn close(&mut self, to_ring: u8, cycles: u64) {
        if !self.enabled {
            return;
        }
        let delta = self.advance(cycles);
        if u64::from(to_ring >> RING_BITS) | delta >> CLOSE_DELTA_BITS == 0 {
            let word = u16::from(FORM_CLOSE)
                | u16::from(to_ring) << CLOSE_RING_SHIFT
                | (delta as u16) << CLOSE_DELTA_SHIFT;
            self.bytes.extend_from_slice(&word.to_le_bytes());
        } else {
            let mut g = General::new(EVENT_CLOSE, 0, delta);
            g.byte(to_ring);
            self.bytes.extend_from_slice(g.bytes());
        }
    }

    /// Records an instant event; `name` is only evaluated when enabled.
    #[inline]
    pub fn instant(
        &mut self,
        kind: InstantKind,
        ring: u8,
        cycles: u64,
        name: impl FnOnce() -> String,
    ) {
        if !self.enabled {
            return;
        }
        let next = self.names.len();
        let index = *self.names.entry(name()).or_insert(next);
        let mut g = General::new(EVENT_INSTANT, kind as u8, self.advance(cycles));
        g.byte(ring);
        g.varint(index as u64);
        self.bytes.extend_from_slice(g.bytes());
    }

    /// Records a scheduler dispatch of process `pid`. No-op when
    /// disabled.
    #[inline]
    pub fn sched(&mut self, pid: u32, cycles: u64) {
        if !self.enabled {
            return;
        }
        let mut g = General::new(EVENT_SCHED, 0, self.advance(cycles));
        g.varint(pid.into());
        self.bytes.extend_from_slice(g.bytes());
    }

    /// The events recorded so far, decoded as they are iterated.
    pub fn events(&self) -> SpanEvents<'_> {
        let mut names = vec![""; self.names.len()];
        for (name, &i) in &self.names {
            names[i] = name;
        }
        SpanEvents {
            decoder: Decoder {
                bytes: &self.bytes,
                cycles: 0,
            },
            remaining: self.len,
            names,
        }
    }

    /// Drains the recorded events, leaving the recorder enabled.
    pub fn take_events(&mut self) -> Vec<SpanEvent> {
        let events = self.events().collect();
        *self = SpanRecorder {
            enabled: self.enabled,
            ..SpanRecorder::default()
        };
        events
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The events of a [`SpanRecorder`], in recording order: an iterator
/// that decodes the byte stream into [`SpanEvent`]s (copying an
/// instant's name).
#[derive(Clone, Debug)]
pub struct SpanEvents<'a> {
    decoder: Decoder<'a>,
    /// Events not yet decoded.
    remaining: usize,
    /// Instant names by index.
    names: Vec<&'a str>,
}

impl SpanEvents<'_> {
    /// True when no events are left ([`ExactSizeIterator::len`] counts
    /// them).
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl Iterator for SpanEvents<'_> {
    type Item = SpanEvent;

    fn next(&mut self) -> Option<SpanEvent> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let names = &self.names;
        Some(self.decoder.event(|i| names[i].to_string()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SpanEvents<'_> {}

/// One node of the reconstructed call tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Why the span opened.
    pub kind: SpanKind,
    /// The entry point.
    pub key: SpanKey,
    /// The ring control came from at open.
    pub from_ring: u8,
    /// The ring control returned to, if the span closed.
    pub to_ring: Option<u8>,
    /// Cycles at open.
    pub open_cycles: u64,
    /// Cycles at close (`None` if still open when the run ended; the
    /// tree charges such spans up to the run's final cycle count).
    pub close_cycles: Option<u64>,
    /// Nesting depth (0 = top level).
    pub depth: u32,
    /// Index of the enclosing span in [`SpanTree::spans`].
    pub parent: Option<usize>,
    /// Inclusive cycles: close (or end of run) minus open.
    pub total_cycles: u64,
    /// Exclusive cycles: `total_cycles` minus the children's totals.
    pub self_cycles: u64,
    /// Number of direct child spans.
    pub children: u32,
}

/// The call tree reconstructed from a span stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// All spans in open order.
    pub spans: Vec<Span>,
    /// `Close` events that arrived with no span open (e.g. a RETURN
    /// used as a plain jump before any CALL).
    pub unmatched_closes: u32,
}

/// Rebuilds the call tree from a raw event stream.
///
/// `final_cycles` is the simulated cycle count at the end of the run;
/// spans still open at that point are charged up to it (and keep
/// `close_cycles == None` so callers can tell).
pub fn build_tree<E: Borrow<SpanEvent>>(
    events: impl IntoIterator<Item = E>,
    final_cycles: u64,
) -> SpanTree {
    let mut tree = SpanTree::default();
    let mut stack: Vec<usize> = Vec::new();
    for ev in events {
        match ev.borrow() {
            SpanEvent::Open {
                kind,
                key,
                from_ring,
                cycles,
            } => {
                let idx = tree.spans.len();
                tree.spans.push(Span {
                    kind: *kind,
                    key: *key,
                    from_ring: *from_ring,
                    to_ring: None,
                    open_cycles: *cycles,
                    close_cycles: None,
                    depth: stack.len() as u32,
                    parent: stack.last().copied(),
                    total_cycles: 0,
                    self_cycles: 0,
                    children: 0,
                });
                if let Some(&p) = stack.last() {
                    tree.spans[p].children += 1;
                }
                stack.push(idx);
            }
            SpanEvent::Close { to_ring, cycles } => match stack.pop() {
                Some(idx) => {
                    tree.spans[idx].to_ring = Some(*to_ring);
                    tree.spans[idx].close_cycles = Some(*cycles);
                }
                None => tree.unmatched_closes += 1,
            },
            SpanEvent::Instant { .. } | SpanEvent::Sched { .. } => {}
        }
    }
    // Cycle attribution: children precede parents in close order, so a
    // reverse pass over open order sees every child's total before the
    // parent needs it.
    for i in (0..tree.spans.len()).rev() {
        let end = tree.spans[i].close_cycles.unwrap_or(final_cycles);
        let total = end.saturating_sub(tree.spans[i].open_cycles);
        tree.spans[i].total_cycles = total;
        tree.spans[i].self_cycles = tree.spans[i].self_cycles.wrapping_add(total);
        if let Some(p) = tree.spans[i].parent {
            let child_total = tree.spans[i].total_cycles;
            tree.spans[p].self_cycles = tree.spans[p].self_cycles.wrapping_sub(child_total);
        }
    }
    // self_cycles accumulated as total - sum(children); clamp any
    // wrap from unclosed-child charging to zero.
    for s in &mut tree.spans {
        if s.self_cycles > s.total_cycles {
            s.self_cycles = 0;
        }
    }
    tree
}

/// Per-gate aggregate of a call tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateStat {
    /// The gate (entry point) the rows aggregate.
    pub key: SpanKey,
    /// Why spans at this gate opened.
    pub kind: SpanKind,
    /// How many spans opened here.
    pub calls: u64,
    /// Sum of inclusive cycles.
    pub total_cycles: u64,
    /// Sum of exclusive cycles.
    pub self_cycles: u64,
}

/// Aggregates a call tree per `(kind, key)`, sorted by total cycles
/// descending (ties broken by key for determinism).
pub fn gate_table(tree: &SpanTree) -> Vec<GateStat> {
    let mut rows: Vec<GateStat> = Vec::new();
    for s in &tree.spans {
        match rows.iter_mut().find(|r| r.key == s.key && r.kind == s.kind) {
            Some(r) => {
                r.calls += 1;
                r.total_cycles += s.total_cycles;
                r.self_cycles += s.self_cycles;
            }
            None => rows.push(GateStat {
                key: s.key,
                kind: s.kind,
                calls: 1,
                total_cycles: s.total_cycles,
                self_cycles: s.self_cycles,
            }),
        }
    }
    rows.sort_by(|a, b| {
        b.total_cycles
            .cmp(&a.total_cycles)
            .then(a.key.cmp(&b.key))
            .then(a.kind.cmp(&b.kind))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ring: u8, segno: u32, entry: u32) -> SpanKey {
        SpanKey { ring, segno, entry }
    }

    #[test]
    fn disabled_recorder_stays_empty() {
        let mut r = SpanRecorder::new();
        assert!(!r.is_enabled());
        r.open(SpanKind::Call, key(1, 20, 0), 4, 10);
        r.close(4, 20);
        r.instant(InstantKind::Fault, 4, 30, || unreachable!("lazy name"));
        assert!(r.is_empty());
    }

    /// Every event kind at its extremes: each ring pair, segments and
    /// entries at and past their architectural widths, the largest pid,
    /// and named instants.
    fn extreme_events() -> Vec<SpanEvent> {
        let mut events = Vec::new();
        let mut cycles = u64::MAX - 1_000;
        for ring in 0..8u8 {
            for from_ring in 0..8u8 {
                for (kind, segno, entry) in [
                    (SpanKind::Call, 32_767, 262_143),
                    (SpanKind::Call, 32_768, 0),
                    (SpanKind::Call, 0, 262_144),
                    (SpanKind::Call, 0, 0),
                    (SpanKind::Trap, 1, 31),
                    (SpanKind::Trap, u32::MAX, u32::MAX),
                ] {
                    cycles += 1;
                    events.push(SpanEvent::Open {
                        kind,
                        key: key(ring, segno, entry),
                        from_ring,
                        cycles,
                    });
                }
                events.push(SpanEvent::Close {
                    to_ring: from_ring,
                    cycles,
                });
            }
            for kind in [
                InstantKind::Fault,
                InstantKind::Violation,
                InstantKind::Marker,
            ] {
                events.push(SpanEvent::Instant {
                    kind,
                    name: format!("{kind:?} in ring {ring}"),
                    ring,
                    cycles,
                });
            }
        }
        events.push(SpanEvent::Instant {
            kind: InstantKind::Marker,
            name: String::new(),
            ring: u8::MAX,
            cycles: 0,
        });
        for pid in [0, 1, 12, u32::MAX] {
            events.push(SpanEvent::Sched {
                pid,
                cycles: pid.into(),
            });
        }
        events.push(SpanEvent::Open {
            kind: SpanKind::Trap,
            key: key(u8::MAX, 32_767, 262_143),
            from_ring: u8::MAX,
            cycles: u64::MAX,
        });
        events.push(SpanEvent::Close {
            to_ring: u8::MAX,
            cycles: u64::MAX,
        });
        events
    }

    fn record(r: &mut SpanRecorder, ev: &SpanEvent) {
        match ev.clone() {
            SpanEvent::Open {
                kind,
                key,
                from_ring,
                cycles,
            } => r.open(kind, key, from_ring, cycles),
            SpanEvent::Close { to_ring, cycles } => r.close(to_ring, cycles),
            SpanEvent::Instant {
                kind,
                name,
                ring,
                cycles,
            } => r.instant(kind, ring, cycles, || name),
            SpanEvent::Sched { pid, cycles } => r.sched(pid, cycles),
        }
    }

    /// Records `events`, checks every view of them, and drains them.
    fn round_trip(r: &mut SpanRecorder, events: &[SpanEvent]) {
        for ev in events {
            record(r, ev);
        }
        assert_eq!(r.len(), events.len());
        assert_eq!(r.events().len(), events.len());
        assert_eq!(r.events().collect::<Vec<_>>(), events, "the view");
        let clone = r.clone();
        assert_eq!(clone.events().collect::<Vec<_>>(), events, "a clone");
        assert_eq!(r.take_events(), events, "the drain");
        assert!(r.is_empty() && r.events().is_empty());
    }

    #[test]
    fn records_round_trip_every_event_kind() {
        let mut r = SpanRecorder::new();
        r.enable();
        round_trip(&mut r, &extreme_events());
    }

    #[test]
    fn records_round_trip_across_a_mid_run_drain() {
        let events = extreme_events();
        let (first, second) = events.split_at(events.len() / 2);
        let mut r = SpanRecorder::new();
        r.enable();
        round_trip(&mut r, first);
        round_trip(&mut r, second);
    }

    /// A call through `key` and its return, recorded and read back.
    fn call_round_trips(key: SpanKey) {
        let mut r = SpanRecorder::new();
        r.enable();
        let events = [
            SpanEvent::Open {
                kind: SpanKind::Call,
                key,
                from_ring: 4,
                cycles: 0,
            },
            SpanEvent::Close {
                to_ring: 4,
                cycles: 13,
            },
        ];
        round_trip(&mut r, &events);
    }

    #[test]
    fn a_segment_wider_than_fifteen_bits_round_trips() {
        call_round_trips(key(0, 32_768, 0));
    }

    #[test]
    fn an_entry_wider_than_eighteen_bits_round_trips() {
        call_round_trips(key(0, 0, 262_144));
    }

    /// A seeded generator (splitmix64), so that a failing seed replays.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = self.0;
            let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// One of the eight rings, or now and then any byte.
        fn ring(&mut self) -> u8 {
            if self.below(4) == 0 {
                self.next() as u8
            } else {
                self.below(8) as u8
            }
        }

        /// A segment or entry: within its architectural width of
        /// `bits`, on either side of that edge, or anywhere in `u32`.
        fn field(&mut self, bits: u32) -> u32 {
            let edge = 1u32 << bits;
            match self.below(5) {
                0 => self.next() as u32,
                1 => edge - 1,
                2 => edge,
                3 => u32::MAX,
                _ => self.below(edge.into()) as u32,
            }
        }

        fn pid(&mut self) -> u32 {
            match self.below(3) {
                0 => u32::MAX,
                1 => self.next() as u32,
                _ => self.below(16) as u32,
            }
        }

        /// The cycle count after `now`: a step forward (small, or as
        /// far as the fixed forms reach, or anywhere), no step, a step
        /// back, or a jump to 0 or `u64::MAX`.
        fn cycles(&mut self, now: u64) -> u64 {
            match self.below(8) {
                0 => now,
                1 => now.wrapping_sub(1 + self.below(1 << 12)),
                2 => 0,
                3 => u64::MAX,
                4 => now.wrapping_add(self.next()),
                5 => now.wrapping_add(self.below(1 << 23)),
                _ => now.wrapping_add(self.below(1 << 12)),
            }
        }

        /// `n` events in runs of one kind at a time.
        fn events(&mut self, n: usize) -> Vec<SpanEvent> {
            let names = ["page fault 20|3", "", "chaos: \"x\"\n", "access violation"];
            let mut events = Vec::with_capacity(n);
            let mut cycles = 0;
            while events.len() < n {
                let kind = self.below(4);
                for _ in 0..1 + self.below(8) {
                    cycles = self.cycles(cycles);
                    events.push(match kind {
                        0 => SpanEvent::Open {
                            kind: [SpanKind::Call, SpanKind::Trap][self.below(2) as usize],
                            key: key(self.ring(), self.field(SEGNO_BITS), self.field(ENTRY_BITS)),
                            from_ring: self.ring(),
                            cycles,
                        },
                        1 => SpanEvent::Close {
                            to_ring: self.ring(),
                            cycles,
                        },
                        2 => SpanEvent::Instant {
                            kind: [
                                InstantKind::Fault,
                                InstantKind::Violation,
                                InstantKind::Marker,
                            ][self.below(3) as usize],
                            name: match self.below(names.len() as u64 + 1) as usize {
                                i if i < names.len() => names[i].to_string(),
                                _ => format!("fault {}", self.below(64)),
                            },
                            ring: self.ring(),
                            cycles,
                        },
                        _ => SpanEvent::Sched {
                            pid: self.pid(),
                            cycles,
                        },
                    });
                }
            }
            events
        }
    }

    #[test]
    fn generated_streams_round_trip_with_drains_in_mid_run() {
        for seed in 0..64 {
            let mut g = Gen(seed);
            let events = g.events(500);
            let mut whole = SpanRecorder::new();
            whole.enable();
            round_trip(&mut whole, &events);
            // The same stream, drained at random points.
            let mut r = SpanRecorder::new();
            r.enable();
            let mut rest = &events[..];
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(g.below(rest.len() as u64 + 1) as usize);
                round_trip(&mut r, chunk);
                rest = tail;
            }
        }
    }

    #[test]
    fn a_gate_call_and_its_return_take_ten_bytes() {
        let mut r = SpanRecorder::new();
        r.enable();
        let mut cycles = 0;
        for _ in 0..1_000 {
            cycles += 13;
            r.open(SpanKind::Call, key(1, 20, 0), 4, cycles);
            cycles += 7;
            r.close(4, cycles);
        }
        assert_eq!(r.len(), 2_000);
        assert!(r.bytes.len() <= 10_000, "{} bytes", r.bytes.len());
    }

    #[test]
    fn each_instant_name_is_stored_once() {
        let mut r = SpanRecorder::new();
        r.enable();
        let name = |i: u64| format!("page fault 20|{}", i % 8);
        for i in 0..1_000 {
            r.instant(InstantKind::Fault, 4, i, || name(i));
        }
        assert_eq!(r.names.len(), 8);
        for (i, ev) in (0..).zip(r.events()) {
            assert!(matches!(ev, SpanEvent::Instant { name: n, .. } if n == name(i)));
        }
    }

    /// The time to record the gate storm's open/close pattern, against
    /// the 16-byte record (cycles and one packed word) the byte stream
    /// replaced. Prints the fastest of 15 runs over 4 M events of each;
    /// run with `cargo test --release -p ring-trace -- --ignored
    /// --nocapture record_timing`.
    #[test]
    #[ignore = "a timing, not a check; run it in release"]
    fn record_timing() {
        use std::hint::black_box;
        use std::time::Instant;
        const PAIRS: u64 = 2_000_000;
        const RUNS: usize = 15;
        let gate = key(1, 20, 0);
        let sixteen = || {
            let mut records: Vec<[u64; 2]> = Vec::new();
            let mut cycles = 0;
            for _ in 0..PAIRS {
                let key = black_box(gate);
                cycles += black_box(13);
                assert!(key.segno >> 15 == 0 && key.entry >> 18 == 0);
                let payload = u64::from(key.segno) | u64::from(key.entry) << 15;
                let word = u64::from(key.ring) << 8 | 4 << 16 | payload << 24;
                records.push([cycles, word]);
                cycles += black_box(7);
                records.push([cycles, 1 | 4 << 8]);
            }
            records.len() * 16
        };
        let stream = || {
            let mut r = SpanRecorder::new();
            r.enable();
            let mut cycles = 0;
            for _ in 0..PAIRS {
                let key = black_box(gate);
                cycles += black_box(13);
                r.open(SpanKind::Call, key, 4, cycles);
                cycles += black_box(7);
                r.close(4, cycles);
            }
            r.bytes.len()
        };
        let layouts: [(&str, &dyn Fn() -> usize); 2] =
            [("16-byte records", &sixteen), ("byte stream", &stream)];
        let mut best = [f64::INFINITY; 2];
        let mut bytes = [0; 2];
        for _ in 0..RUNS {
            for (i, (_, record)) in layouts.iter().enumerate() {
                let start = Instant::now();
                bytes[i] = black_box(record());
                best[i] = best[i].min(start.elapsed().as_secs_f64());
            }
        }
        let events = (2 * PAIRS) as f64;
        for (i, (name, _)) in layouts.iter().enumerate() {
            println!(
                "{name}: {:.2} ns/event, {:.2} bytes/event (fastest of {RUNS} runs over {events} events)",
                best[i] * 1e9 / events,
                bytes[i] as f64 / events,
            );
        }
    }

    #[test]
    fn tree_attributes_self_and_total_cycles() {
        // R4 calls gate A at t=10; A calls B at t=20; B returns at
        // t=50; A returns at t=100.
        let mut r = SpanRecorder::new();
        r.enable();
        r.open(SpanKind::Call, key(1, 20, 0), 4, 10);
        r.open(SpanKind::Call, key(0, 30, 2), 1, 20);
        r.close(1, 50);
        r.close(4, 100);
        let tree = build_tree(r.events(), 100);
        assert_eq!(tree.spans.len(), 2);
        assert_eq!(tree.unmatched_closes, 0);
        let a = &tree.spans[0];
        let b = &tree.spans[1];
        assert_eq!(a.total_cycles, 90);
        assert_eq!(a.self_cycles, 60);
        assert_eq!(a.depth, 0);
        assert_eq!(a.children, 1);
        assert_eq!(b.total_cycles, 30);
        assert_eq!(b.self_cycles, 30);
        assert_eq!(b.parent, Some(0));
        assert_eq!(b.depth, 1);
    }

    #[test]
    fn open_spans_charge_to_end_of_run() {
        let mut r = SpanRecorder::new();
        r.enable();
        r.open(SpanKind::Trap, key(0, 1, 5), 4, 40);
        let tree = build_tree(r.events(), 100);
        assert_eq!(tree.spans[0].close_cycles, None);
        assert_eq!(tree.spans[0].total_cycles, 60);
    }

    #[test]
    fn unmatched_close_is_counted_not_fatal() {
        let tree = build_tree(
            &[SpanEvent::Close {
                to_ring: 4,
                cycles: 5,
            }],
            10,
        );
        assert!(tree.spans.is_empty());
        assert_eq!(tree.unmatched_closes, 1);
    }

    #[test]
    fn gate_table_aggregates_and_sorts() {
        let mut r = SpanRecorder::new();
        r.enable();
        for i in 0..3u64 {
            r.open(SpanKind::Call, key(1, 20, 0), 4, i * 100);
            r.close(4, i * 100 + 10);
        }
        r.open(SpanKind::Call, key(0, 30, 2), 4, 500);
        r.close(4, 600);
        let tree = build_tree(r.events(), 600);
        let table = gate_table(&tree);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].key, key(0, 30, 2));
        assert_eq!(table[0].total_cycles, 100);
        assert_eq!(table[1].key, key(1, 20, 0));
        assert_eq!(table[1].calls, 3);
        assert_eq!(table[1].total_cycles, 30);
    }
}
