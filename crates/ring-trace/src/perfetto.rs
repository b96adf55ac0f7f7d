//! Chrome trace-event / Perfetto JSON export of a span stream.
//!
//! The exported document is the [Trace Event Format] JSON-object form
//! (`{"traceEvents": [...]}`), loadable in `ui.perfetto.dev` and
//! `chrome://tracing`. Each protection ring is one track (`tid` = ring
//! number, with a `thread_name` metadata record), spans become `B`/`E`
//! duration events, and faults/violations become thread-scoped `i`
//! instant events. Scheduler dispatches additionally paint one track
//! *per process* (`tid` = [`PROC_TID_BASE`] + pid): each dispatch ends
//! the previous process's run slice and begins the next one's, so the
//! process rows show the interleaving the round-robin scheduler chose,
//! aligned under the per-ring rows. Timestamps are simulated cycles
//! reported in the format's microsecond field — a cycle reads as a
//! microsecond in the UI, which only rescales the axis.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::borrow::Borrow;
use std::io::{self, Write};

use crate::json::{self, escape, ArrayWriter};
use crate::span::{SpanEvent, SpanKind};

/// The `pid` every track shares (one machine = one "process").
const PID: u32 = 1;

/// Offset separating per-process scheduler tracks from per-ring tracks
/// (`tid` = `PROC_TID_BASE` + simulated pid; rings use `tid` 0..7).
pub const PROC_TID_BASE: u32 = 100;

/// Renders a span stream as a Chrome trace-event JSON document: the
/// bytes [`write_chrome_trace`] writes, as one string.
pub fn chrome_trace_json<E: Borrow<SpanEvent>>(
    events: impl IntoIterator<Item = E>,
    final_cycles: u64,
) -> String {
    json::written(|out| write_chrome_trace(out, events, final_cycles))
}

/// Writes a span stream to `out` as a Chrome trace-event JSON document,
/// each record as its event is read, so the export holds no more than
/// the open spans and the tracks named so far.
///
/// `final_cycles` closes any span still open when the run ended (its
/// `E` record is emitted at that timestamp so the UI shows a complete
/// slice). Unmatched `Close` events are skipped — the stream they close
/// never opened, so there is nothing to draw.
pub fn write_chrome_trace<E: Borrow<SpanEvent>>(
    mut out: impl Write,
    events: impl IntoIterator<Item = E>,
    final_cycles: u64,
) -> io::Result<()> {
    out.write_all(b"{\"traceEvents\": [\n")?;
    let mut records = ArrayWriter::new(out, "  ");
    let mut rings_seen: Vec<u8> = Vec::new();
    // Per-process scheduler tracks: name them on first sight and keep
    // at most one run slice open (the currently dispatched process).
    let mut procs_seen: Vec<u32> = Vec::new();
    let mut running: Option<u32> = None;
    // Replay the stack so each `E` lands on the track its `B` used.
    let mut stack: Vec<(u8, SpanKind)> = Vec::new();
    for ev in events {
        match ev.borrow() {
            SpanEvent::Open {
                kind,
                key,
                from_ring,
                cycles,
            } => {
                note_ring(&mut records, &mut rings_seen, key.ring)?;
                // The names are digits, letters, spaces and `|`: nothing
                // to escape.
                let (prefix, vector) = match kind {
                    SpanKind::Call => ("seg", ""),
                    SpanKind::Trap => ("trap", "v"),
                };
                write!(
                    records.element()?,
                    "{{\"ph\": \"B\", \"name\": \"{prefix} {}|{vector}{}\", \"cat\": \"{kind}\", \
                     \"pid\": {PID}, \"tid\": {}, \"ts\": {cycles}, \
                     \"args\": {{\"from_ring\": {from_ring}}}}}",
                    key.segno,
                    key.entry,
                    key.ring,
                )?;
                stack.push((key.ring, *kind));
            }
            SpanEvent::Close { cycles, to_ring } => {
                if let Some((tid, _)) = stack.pop() {
                    write!(
                        records.element()?,
                        "{{\"ph\": \"E\", \"pid\": {PID}, \"tid\": {tid}, \"ts\": {cycles}, \
                         \"args\": {{\"to_ring\": {to_ring}}}}}"
                    )?;
                }
            }
            SpanEvent::Instant {
                kind,
                name,
                ring,
                cycles,
            } => {
                note_ring(&mut records, &mut rings_seen, *ring)?;
                write!(
                    records.element()?,
                    "{{\"ph\": \"i\", \"s\": \"t\", \"name\": \"{}\", \"cat\": \"{}\", \
                     \"pid\": {PID}, \"tid\": {ring}, \"ts\": {cycles}}}",
                    escape(name),
                    kind.category(),
                )?;
            }
            SpanEvent::Sched { pid, cycles } => {
                if let Some(prev) = running.take() {
                    write!(
                        records.element()?,
                        "{{\"ph\": \"E\", \"pid\": {PID}, \"tid\": {}, \"ts\": {cycles}}}",
                        PROC_TID_BASE + prev,
                    )?;
                }
                let tid = PROC_TID_BASE + pid;
                if !procs_seen.contains(pid) {
                    procs_seen.push(*pid);
                    write!(
                        records.element()?,
                        "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {PID}, \
                         \"tid\": {tid}, \"args\": {{\"name\": \"process {pid}\"}}}}"
                    )?;
                    write!(
                        records.element()?,
                        "{{\"ph\": \"M\", \"name\": \"thread_sort_index\", \"pid\": {PID}, \
                         \"tid\": {tid}, \"args\": {{\"sort_index\": {tid}}}}}"
                    )?;
                }
                write!(
                    records.element()?,
                    "{{\"ph\": \"B\", \"name\": \"run p{pid}\", \"cat\": \"sched\", \
                     \"pid\": {PID}, \"tid\": {tid}, \"ts\": {cycles}, \
                     \"args\": {{\"proc\": {pid}}}}}"
                )?;
                running = Some(*pid);
            }
        }
    }
    // Close out spans that were still open at the end of the run,
    // innermost first, then the run slice of whichever process held
    // the machine when the run ended.
    while let Some((tid, _)) = stack.pop() {
        write!(
            records.element()?,
            "{{\"ph\": \"E\", \"pid\": {PID}, \"tid\": {tid}, \"ts\": {final_cycles}}}"
        )?;
    }
    if let Some(prev) = running.take() {
        write!(
            records.element()?,
            "{{\"ph\": \"E\", \"pid\": {PID}, \"tid\": {}, \"ts\": {final_cycles}}}",
            PROC_TID_BASE + prev,
        )?;
    }
    records.finish()?.write_all(
        b"], \"displayTimeUnit\": \"ms\", \"otherData\": {\"clock\": \"simulated cycles\"}}\n",
    )
}

/// Names `ring`'s track and pins its sort order, so ring 0 is the top
/// row, the first time the ring appears.
fn note_ring<W: Write>(
    records: &mut ArrayWriter<W>,
    seen: &mut Vec<u8>,
    ring: u8,
) -> io::Result<()> {
    if !seen.contains(&ring) {
        seen.push(ring);
        write!(
            records.element()?,
            "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {PID}, \"tid\": {ring}, \
             \"args\": {{\"name\": \"ring {ring}\"}}}}"
        )?;
        write!(
            records.element()?,
            "{{\"ph\": \"M\", \"name\": \"thread_sort_index\", \"pid\": {PID}, \
             \"tid\": {ring}, \"args\": {{\"sort_index\": {ring}}}}}"
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::span::{InstantKind, SpanKey, SpanRecorder};

    #[test]
    fn export_is_valid_chrome_trace_json() {
        let mut r = SpanRecorder::new();
        r.enable();
        r.open(
            SpanKind::Call,
            SpanKey {
                ring: 1,
                segno: 20,
                entry: 0,
            },
            4,
            10,
        );
        r.instant(InstantKind::Fault, 1, 15, || "page fault 20|3".to_string());
        r.close(4, 40);
        r.open(
            SpanKind::Trap,
            SpanKey {
                ring: 0,
                segno: 1,
                entry: 7,
            },
            4,
            50,
        );
        // Left open: must be closed at final_cycles.
        let doc = chrome_trace_json(r.events(), 99);
        let v = json::parse(&doc).expect("export parses as JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // Every record has a phase; B/E pair up per tid.
        let mut depth_per_tid = std::collections::HashMap::new();
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            let tid = ev.get("tid").unwrap().as_u64().unwrap();
            match ph {
                "B" => *depth_per_tid.entry(tid).or_insert(0i64) += 1,
                "E" => *depth_per_tid.entry(tid).or_insert(0i64) -= 1,
                "i" | "M" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(depth_per_tid.values().all(|&d| d == 0), "unbalanced B/E");
        // The dangling trap span closes at the final cycle count.
        let last = events.last().unwrap();
        assert_eq!(last.get("ph").unwrap().as_str(), Some("E"));
        assert_eq!(last.get("ts").unwrap().as_u64(), Some(99));
    }

    #[test]
    fn sched_events_paint_per_process_tracks() {
        let mut r = SpanRecorder::new();
        r.enable();
        r.sched(0, 0);
        r.open(
            SpanKind::Call,
            SpanKey {
                ring: 1,
                segno: 20,
                entry: 0,
            },
            4,
            10,
        );
        r.close(4, 40);
        r.sched(1, 100);
        r.sched(0, 200);
        let doc = chrome_trace_json(r.events(), 300);
        let v = json::parse(&doc).expect("export parses as JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // B/E balance holds on every track, including the process ones.
        let mut depth_per_tid = std::collections::HashMap::new();
        let mut names = Vec::new();
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            let tid = ev.get("tid").unwrap().as_u64().unwrap();
            match ph {
                "B" => {
                    *depth_per_tid.entry(tid).or_insert(0i64) += 1;
                    names.push(ev.get("name").unwrap().as_str().unwrap().to_string());
                }
                "E" => *depth_per_tid.entry(tid).or_insert(0i64) -= 1,
                "i" | "M" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(depth_per_tid.values().all(|&d| d == 0), "unbalanced B/E");
        // Three dispatches -> three run slices on tids 100 and 101,
        // alongside the ring-1 gate slice.
        assert_eq!(
            names,
            vec!["run p0", "seg 20|0", "run p1", "run p0"],
            "slices in dispatch order"
        );
        let tids: std::collections::BTreeSet<u64> = depth_per_tid.keys().copied().collect();
        assert!(tids.contains(&1), "ring 1 track");
        assert!(
            tids.contains(&(u64::from(PROC_TID_BASE))),
            "process 0 track"
        );
        assert!(
            tids.contains(&(u64::from(PROC_TID_BASE) + 1)),
            "process 1 track"
        );
        // The final record closes process 0's still-open run slice at
        // the end of the run.
        let last = events.last().unwrap();
        assert_eq!(last.get("ph").unwrap().as_str(), Some("E"));
        assert_eq!(last.get("ts").unwrap().as_u64(), Some(300));
        assert_eq!(
            last.get("tid").unwrap().as_u64(),
            Some(u64::from(PROC_TID_BASE))
        );
    }

    #[test]
    fn unmatched_close_is_skipped() {
        let doc = chrome_trace_json(
            &[SpanEvent::Close {
                to_ring: 4,
                cycles: 5,
            }],
            10,
        );
        let v = json::parse(&doc).unwrap();
        assert!(v.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    }
}
