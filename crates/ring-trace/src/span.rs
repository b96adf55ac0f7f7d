//! The span model: CALL/trap-entry opens a span, RETURN/trap-exit
//! closes it.
//!
//! A span is keyed by `(ring, segment, entry word)` — the gate the
//! crossing went through — so the stream reconstructs the cross-ring
//! call tree of Figs. 8–9 and attributes simulated cycles to each gate
//! both inclusively (`total_cycles`) and exclusively (`self_cycles`).
//!
//! [`SpanRecorder`] is the machine-facing half: a cheap append-only
//! event log that is a no-op until enabled (the recorder is consulted
//! only at CALL, RETURN, trap entry and RETT, so the disabled cost is
//! a single branch per crossing).
//! [`build_tree`] and [`gate_table`] are the analysis half.

use std::borrow::Borrow;
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

/// One stored event: its cycle count and one packed word, 16 bytes in
/// all where a [`SpanEvent`] takes 40 (an instant carries a `String`).
///
/// The word's fields, from bit 0 up: the event (bits 0–1); the span's
/// or the instant's kind (bits 2–3); a ring (bits 8–15: the
/// span's, the one a close returns to, or the instant's); the ring an
/// open came from (bits 16–23); and from bit 24 a payload: an open's
/// segment number (15 bits) and entry (18 bits), a dispatch's pid, or
/// the index of an instant's name in [`SpanRecorder`]'s side list.
#[derive(Clone, Copy, Debug)]
struct SpanRecord {
    cycles: u64,
    word: u64,
}

/// Width of the event field at the bottom of a [`SpanRecord`] word.
const TAG_BITS: u32 = 2;
const TAG_OPEN: u64 = 0;
const TAG_CLOSE: u64 = 1;
const TAG_INSTANT: u64 = 2;
const TAG_SCHED: u64 = 3;
const KIND_SHIFT: u32 = 2;
const RING_SHIFT: u32 = 8;
const FROM_SHIFT: u32 = 16;
const PAYLOAD_SHIFT: u32 = 24;
/// Segment numbers are 15 bits in the architecture.
const SEGNO_BITS: u32 = 15;
/// A call entry is an 18-bit word number; a trap entry is a fault
/// vector, far smaller.
const ENTRY_BITS: u32 = 18;

impl SpanRecord {
    fn new(cycles: u64, tag: u64, kind: u64, ring: u8, payload: u64) -> SpanRecord {
        SpanRecord {
            cycles,
            word: tag
                | kind << KIND_SHIFT
                | u64::from(ring) << RING_SHIFT
                | payload << PAYLOAD_SHIFT,
        }
    }

    fn field(self, shift: u32, bits: u32) -> u64 {
        (self.word >> shift) & ((1 << bits) - 1)
    }

    fn ring(self, shift: u32) -> u8 {
        self.field(shift, 8) as u8
    }

    /// The event this record stores; `name` yields an instant's name
    /// from its index.
    fn decode(self, name: impl FnOnce(usize) -> String) -> SpanEvent {
        let cycles = self.cycles;
        let payload = self.word >> PAYLOAD_SHIFT;
        match self.field(0, TAG_BITS) {
            TAG_OPEN => SpanEvent::Open {
                kind: if self.field(KIND_SHIFT, 2) == 0 {
                    SpanKind::Call
                } else {
                    SpanKind::Trap
                },
                key: SpanKey {
                    ring: self.ring(RING_SHIFT),
                    segno: (payload & ((1 << SEGNO_BITS) - 1)) as u32,
                    entry: (payload >> SEGNO_BITS) as u32,
                },
                from_ring: self.ring(FROM_SHIFT),
                cycles,
            },
            TAG_CLOSE => SpanEvent::Close {
                to_ring: self.ring(RING_SHIFT),
                cycles,
            },
            TAG_INSTANT => SpanEvent::Instant {
                kind: match self.field(KIND_SHIFT, 2) {
                    0 => InstantKind::Fault,
                    1 => InstantKind::Violation,
                    _ => InstantKind::Marker,
                },
                name: name(payload as usize),
                ring: self.ring(RING_SHIFT),
                cycles,
            },
            _ => SpanEvent::Sched {
                pid: payload as u32,
                cycles,
            },
        }
    }
}

/// The machine-facing event log.
///
/// Disabled (the default) it is inert: every method returns after one
/// branch and the machine's architectural behaviour is untouched either
/// way — the recorder only observes crossings, it never participates in
/// them. Each event is stored as a 16-byte record; an instant's name is
/// the one heap string, kept in a side list.
#[derive(Clone, Debug, Default)]
pub struct SpanRecorder {
    enabled: bool,
    records: Vec<SpanRecord>,
    /// Instant names in recording order; an instant's record holds its
    /// index here.
    names: Vec<String>,
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

    /// Records a span opening. No-op when disabled.
    ///
    /// # Panics
    ///
    /// Panics if `key.segno` is wider than a segment number (15 bits)
    /// or `key.entry` wider than a word number (18 bits): a record
    /// cannot hold it, and the machine never makes such a key.
    #[inline]
    pub fn open(&mut self, kind: SpanKind, key: SpanKey, from_ring: u8, cycles: u64) {
        if !self.enabled {
            return;
        }
        assert!(
            key.segno >> SEGNO_BITS == 0 && key.entry >> ENTRY_BITS == 0,
            "span key {key} does not fit a span record"
        );
        let payload = u64::from(key.segno) | u64::from(key.entry) << SEGNO_BITS;
        let mut rec = SpanRecord::new(cycles, TAG_OPEN, kind as u64, key.ring, payload);
        rec.word |= u64::from(from_ring) << FROM_SHIFT;
        self.records.push(rec);
    }

    /// Records the innermost span closing. No-op when disabled.
    #[inline]
    pub fn close(&mut self, to_ring: u8, cycles: u64) {
        if !self.enabled {
            return;
        }
        self.records
            .push(SpanRecord::new(cycles, TAG_CLOSE, 0, to_ring, 0));
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
        let index = self.names.len() as u64;
        self.names.push(name());
        self.records.push(SpanRecord::new(
            cycles,
            TAG_INSTANT,
            kind as u64,
            ring,
            index,
        ));
    }

    /// Records a scheduler dispatch of process `pid`. No-op when
    /// disabled.
    #[inline]
    pub fn sched(&mut self, pid: u32, cycles: u64) {
        if !self.enabled {
            return;
        }
        self.records
            .push(SpanRecord::new(cycles, TAG_SCHED, 0, 0, u64::from(pid)));
    }

    /// The events recorded so far, decoded as they are iterated.
    pub fn events(&self) -> SpanEvents<'_> {
        SpanEvents {
            records: self.records.iter(),
            names: &self.names,
        }
    }

    /// Drains the recorded events, leaving the recorder enabled.
    pub fn take_events(&mut self) -> Vec<SpanEvent> {
        let mut names = std::mem::take(&mut self.names);
        std::mem::take(&mut self.records)
            .into_iter()
            .map(|r| r.decode(|i| std::mem::take(&mut names[i])))
            .collect()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The events of a [`SpanRecorder`], in recording order: an iterator
/// that decodes each record into a [`SpanEvent`] (cloning an instant's
/// name).
#[derive(Clone, Debug)]
pub struct SpanEvents<'a> {
    records: std::slice::Iter<'a, SpanRecord>,
    names: &'a [String],
}

impl SpanEvents<'_> {
    /// True when no events are left ([`ExactSizeIterator::len`] counts
    /// them).
    pub fn is_empty(&self) -> bool {
        self.records.len() == 0
    }
}

impl Iterator for SpanEvents<'_> {
    type Item = SpanEvent;

    fn next(&mut self) -> Option<SpanEvent> {
        let names = self.names;
        self.records.next().map(|r| r.decode(|i| names[i].clone()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
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

    /// Every event kind at its extremes: each ring pair, the widest
    /// segment and entry, the largest pid, and named instants.
    fn extreme_events() -> Vec<SpanEvent> {
        let mut events = Vec::new();
        let mut cycles = u64::MAX - 1_000;
        for ring in 0..8u8 {
            for from_ring in 0..8u8 {
                for (kind, segno, entry) in [
                    (SpanKind::Call, 32_767, 262_143),
                    (SpanKind::Call, 0, 0),
                    (SpanKind::Trap, 1, 31),
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

    #[test]
    fn a_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<SpanRecord>(), 16);
    }

    #[test]
    fn records_round_trip_every_event_kind() {
        let events = extreme_events();
        let mut r = SpanRecorder::new();
        r.enable();
        for ev in &events {
            record(&mut r, ev);
        }
        assert_eq!(r.len(), events.len());
        assert_eq!(r.events().len(), events.len());
        assert_eq!(r.events().collect::<Vec<_>>(), events, "the view");
        assert_eq!(r.take_events(), events, "the drain");
        assert!(r.is_empty() && r.events().is_empty());
    }

    #[test]
    fn records_round_trip_across_a_mid_run_drain() {
        let events = extreme_events();
        let (first, second) = events.split_at(events.len() / 2);
        let mut r = SpanRecorder::new();
        r.enable();
        for ev in first {
            record(&mut r, ev);
        }
        assert_eq!(r.take_events(), first);
        for ev in second {
            record(&mut r, ev);
        }
        assert_eq!(r.events().collect::<Vec<_>>(), second);
        assert_eq!(r.take_events(), second);
    }

    #[test]
    #[should_panic(expected = "does not fit a span record")]
    fn a_segment_wider_than_fifteen_bits_is_refused() {
        let mut r = SpanRecorder::new();
        r.enable();
        r.open(SpanKind::Call, key(0, 32_768, 0), 4, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit a span record")]
    fn an_entry_wider_than_eighteen_bits_is_refused() {
        let mut r = SpanRecorder::new();
        r.enable();
        r.open(SpanKind::Call, key(0, 0, 262_144), 4, 0);
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
