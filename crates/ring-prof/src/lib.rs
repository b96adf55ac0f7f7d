//! Cycle-attributed profiling for the ring simulator.
//!
//! Two pipelines, both driven by **simulated cycles** so they are
//! deterministic and replay-stable:
//!
//! * [`Profiler`] — a sampling profiler. The machine reports every
//!   span opening (CALL, trap entry), closing (RETURN, RETT) and
//!   scheduler dispatch to it, and it keeps its own frame stack from
//!   those calls. Every `sample_every` cycles, at a `Machine::step`
//!   boundary (never inside a trap, the ring-chaos discipline), it
//!   folds that stack into `process;span…;ring:segment` and
//!   accumulates a sample. The result exports as folded stacks
//!   (`flamegraph.pl` format) and Perfetto counter tracks.
//! * [`TimeSeries`] — interval telemetry. Every `timeseries_every`
//!   cycles the machine records five cumulative counters
//!   ([`Totals`]); the pipeline deltas consecutive points into a
//!   `ring-prof/timeseries/v1` JSON stream (instructions-per-cycle,
//!   fault-rate and paging-rate curves over time).
//!
//! Both are pure observers: they read state that already exists and
//! never touch the memory system, so simulated cycles are identical
//! with profiling on or off — the fastpath differential suite pins
//! this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io::{self, Write};

use ring_metrics::json_f64;
use ring_trace::json::{self, ArrayWriter};
use ring_trace::{SpanKey, SpanKind};

/// One frame of the sampled stack: an open span (gate or trap entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Frame {
    kind: SpanKind,
    key: SpanKey,
}

impl Frame {
    /// Renders the frame for folded-stack output, e.g. `call:r1:s20:e0`.
    fn render(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{}:r{}:s{}:e{}",
            self.kind, self.key.ring, self.key.segno, self.key.entry
        );
    }
}

/// The deterministic sampling profiler.
///
/// The machine reports each span opening and closing and each
/// scheduler dispatch ([`Profiler::open`], [`Profiler::close`],
/// [`Profiler::dispatch`]); whenever simulated time crosses a sampling
/// boundary, [`Profiler::tick`] records one weighted sample against the
/// folded stack. A sampling period of zero leaves the profiler inert.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    sample_every: u64,
    next_sample: u64,
    /// The open spans, innermost last.
    stack: Vec<Frame>,
    /// Process dispatched most recently.
    pid: Option<u32>,
    /// Folded stack → accumulated sample weight.
    folded: BTreeMap<String, u64>,
    samples: u64,
    by_ring: [u64; 8],
    /// Every sample in order: `(cycles, ring, weight)`, for counter
    /// tracks.
    timeline: Vec<(u64, u8, u64)>,
}

impl Profiler {
    /// A profiler sampling every `sample_every` simulated cycles
    /// (0 = disabled).
    pub fn new(sample_every: u64) -> Profiler {
        Profiler {
            sample_every,
            next_sample: sample_every,
            ..Profiler::default()
        }
    }

    /// Whether the profiler takes samples.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// The sampling period in simulated cycles (0 = disabled).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Total sample weight accumulated.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Sample weight per ring of execution.
    pub fn samples_by_ring(&self) -> &[u64; 8] {
        &self.by_ring
    }

    /// The cycle count at which the next sample is due (`u64::MAX`
    /// while disabled). A caller compares the cycle counter against it
    /// and calls [`Profiler::tick`] only once it is reached.
    #[inline]
    pub fn next_due(&self) -> u64 {
        if self.is_enabled() {
            self.next_sample
        } else {
            u64::MAX
        }
    }

    /// A span opened: control entered `key` by a CALL or a trap.
    pub fn open(&mut self, kind: SpanKind, key: SpanKey) {
        if self.is_enabled() {
            self.stack.push(Frame { kind, key });
        }
    }

    /// The innermost open span closed (RETURN or RETT). A close with no
    /// span open is ignored.
    pub fn close(&mut self) {
        self.stack.pop();
    }

    /// The scheduler dispatched process `pid`; later samples are
    /// rooted at it.
    pub fn dispatch(&mut self, pid: u32) {
        if self.is_enabled() {
            self.pid = Some(pid);
        }
    }

    /// The step-boundary hook. `cycles` is the machine's simulated
    /// cycle count and `(ring, segno)` the instruction about to
    /// execute. Records one weighted sample for the current stack once
    /// a sampling boundary has been reached.
    pub fn tick(&mut self, cycles: u64, ring: u8, segno: u32) {
        if !self.is_enabled() || cycles < self.next_sample {
            return;
        }
        // One weighted sample covers every boundary the last
        // instruction (or trap excursion) skipped over, so total weight
        // tracks cycles / sample_every regardless of step granularity.
        let weight = (cycles - self.next_sample) / self.sample_every + 1;
        self.next_sample += weight * self.sample_every;
        let mut key = match self.pid {
            Some(p) => format!("pid{p}"),
            None => "machine".to_string(),
        };
        for f in &self.stack {
            key.push(';');
            f.render(&mut key);
        }
        use std::fmt::Write;
        let _ = write!(key, ";r{ring}:s{segno}");
        *self.folded.entry(key).or_insert(0) += weight;
        self.samples += weight;
        self.by_ring[(ring & 7) as usize] += weight;
        self.timeline.push((cycles, ring & 7, weight));
    }

    /// The profile as folded stacks, one `stack count` line per unique
    /// stack in lexicographic order — the `flamegraph.pl` input format.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// The folded profile as `(stack, weight)` pairs in lexicographic
    /// order.
    pub fn folded_entries(&self) -> impl Iterator<Item = (&str, u64)> {
        self.folded.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Writes Perfetto counter-track events (`"ph": "C"`) for the
    /// cumulative per-ring sample weight over simulated time into a
    /// `traceEvents` array.
    fn write_counter_events<W: Write>(&self, events: &mut ArrayWriter<W>) -> io::Result<()> {
        let mut cumulative = [0u64; 8];
        for &(cycles, ring, weight) in &self.timeline {
            cumulative[ring as usize] += weight;
            write!(
                events.element()?,
                "{{\"ph\": \"C\", \"name\": \"prof.samples.r{ring}\", \"pid\": 1, \
                 \"tid\": 0, \"ts\": {cycles}, \"args\": {{\"value\": {}}}}}",
                cumulative[ring as usize]
            )?;
        }
        Ok(())
    }
}

/// One exported time-series point: deltas over one interval.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeriesPoint {
    /// Simulated cycles at the point (interval end).
    pub cycles: u64,
    /// Cycles elapsed since the previous point.
    pub dcycles: u64,
    /// Instructions retired in the interval.
    pub instructions: u64,
    /// Faults taken in the interval.
    pub faults: u64,
    /// Ring-changing crossings in the interval.
    pub ring_changes: u64,
    /// Page faults (the `page_fault` trap vector) in the interval.
    pub page_faults: u64,
    /// Instructions per simulated cycle over the interval.
    pub ipc: f64,
    /// Faults per simulated cycle over the interval.
    pub fault_rate: f64,
    /// Page faults per simulated cycle over the interval.
    pub paging_rate: f64,
}

/// The cumulative counters a time-series point records: everything
/// its deltas are computed from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Traps taken, by any cause.
    pub faults: u64,
    /// Crossings that changed the ring of execution: downward CALLs,
    /// upward RETURNs and traps.
    pub ring_changes: u64,
    /// Traps through the `page_fault` vector.
    pub page_faults: u64,
}

/// The interval time-series pipeline: cumulative [`Totals`] every
/// `every` simulated cycles, exported as per-interval deltas
/// (`ring-prof/timeseries/v1`).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    every: u64,
    next: u64,
    /// Cumulative counters in time order.
    points: Vec<Totals>,
}

impl TimeSeries {
    /// A pipeline recording every `every` simulated cycles
    /// (0 = disabled).
    pub fn new(every: u64) -> TimeSeries {
        TimeSeries {
            every,
            next: every,
            points: Vec::new(),
        }
    }

    /// Whether the pipeline records points.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.every > 0
    }

    /// The recording interval in simulated cycles (0 = disabled).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// The cycle count at which the next point is due (`u64::MAX`
    /// while disabled).
    #[inline]
    pub fn next_due(&self) -> u64 {
        if self.is_enabled() {
            self.next
        } else {
            u64::MAX
        }
    }

    /// Records `totals` if a point is due at `totals.cycles`, and
    /// advances to the next interval boundary past it.
    pub fn record(&mut self, totals: Totals) {
        if totals.cycles < self.next_due() {
            return;
        }
        self.next = (totals.cycles / self.every + 1) * self.every;
        self.points.push(totals);
    }

    /// Number of points recorded.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The per-interval deltas (first point deltas against zero).
    pub fn deltas(&self) -> Vec<TimeSeriesPoint> {
        self.each_delta().collect()
    }

    /// [`TimeSeries::deltas`], computed as they are iterated.
    fn each_delta(&self) -> impl Iterator<Item = TimeSeriesPoint> + '_ {
        let mut prev = Totals::default();
        self.points.iter().map(move |t| {
            let dcycles = t.cycles.saturating_sub(prev.cycles);
            let instructions = t.instructions.saturating_sub(prev.instructions);
            let faults = t.faults.saturating_sub(prev.faults);
            let ring_changes = t.ring_changes.saturating_sub(prev.ring_changes);
            let page_faults = t.page_faults.saturating_sub(prev.page_faults);
            prev = *t;
            let rate = |n: u64| {
                if dcycles == 0 {
                    0.0
                } else {
                    n as f64 / dcycles as f64
                }
            };
            TimeSeriesPoint {
                cycles: t.cycles,
                dcycles,
                instructions,
                faults,
                ring_changes,
                page_faults,
                ipc: rate(instructions),
                fault_rate: rate(faults),
                paging_rate: rate(page_faults),
            }
        })
    }

    /// Serializes the series as a `ring-prof/timeseries/v1` JSON
    /// document of per-interval deltas.
    pub fn to_json(&self) -> String {
        json::written(|out| self.write_json(out))
    }

    /// Writes [`TimeSeries::to_json`]'s document to `out`, a point at a
    /// time.
    pub fn write_json(&self, mut out: impl Write) -> io::Result<()> {
        write!(
            out,
            "{{\n  \"schema\": \"ring-prof/timeseries/v1\",\n  \"interval\": {},\n  \"points\": [\n",
            self.every
        )?;
        let mut points = ArrayWriter::new(out, "    ");
        for p in self.each_delta() {
            write!(
                points.element()?,
                "{{\"cycles\": {}, \"dcycles\": {}, \"instructions\": {}, \
                 \"faults\": {}, \"ring_changes\": {}, \"page_faults\": {}, \
                 \"ipc\": {}, \"fault_rate\": {}, \"paging_rate\": {}}}",
                p.cycles,
                p.dcycles,
                p.instructions,
                p.faults,
                p.ring_changes,
                p.page_faults,
                json_f64(p.ipc),
                json_f64(p.fault_rate),
                json_f64(p.paging_rate),
            )?;
        }
        points.finish()?.write_all(b"  ]\n}\n")
    }

    /// Writes Perfetto counter-track events for the rate curves into a
    /// `traceEvents` array.
    fn write_counter_events<W: Write>(&self, events: &mut ArrayWriter<W>) -> io::Result<()> {
        for p in self.each_delta() {
            for (name, value) in [
                ("ts.ipc", p.ipc),
                ("ts.fault_rate", p.fault_rate),
                ("ts.paging_rate", p.paging_rate),
            ] {
                write!(
                    events.element()?,
                    "{{\"ph\": \"C\", \"name\": \"{name}\", \"pid\": 1, \"tid\": 0, \
                     \"ts\": {}, \"args\": {{\"value\": {}}}}}",
                    p.cycles,
                    json_f64(value)
                )?;
            }
        }
        Ok(())
    }
}

/// A Chrome trace-event JSON document carrying the profiler's per-ring
/// sample counters and the time-series rate curves as Perfetto counter
/// tracks (`"ph": "C"`), loadable in ui.perfetto.dev alongside the
/// span trace.
pub fn perfetto_counters(profiler: &Profiler, series: &TimeSeries) -> String {
    json::written(|out| write_perfetto_counters(out, profiler, series))
}

/// Writes [`perfetto_counters`]'s document to `out`, an event at a time.
pub fn write_perfetto_counters(
    mut out: impl Write,
    profiler: &Profiler,
    series: &TimeSeries,
) -> io::Result<()> {
    out.write_all(b"{\"traceEvents\": [\n")?;
    let mut events = ArrayWriter::new(out, "");
    events.element()?.write_all(
        b"{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, \
          \"args\": {\"name\": \"ring-prof counters\"}}",
    )?;
    profiler.write_counter_events(&mut events)?;
    series.write_counter_events(&mut events)?;
    events.finish()?.write_all(b"]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(ring: u8, segno: u32, entry: u32) -> SpanKey {
        SpanKey { ring, segno, entry }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::new(0);
        p.dispatch(2);
        p.open(SpanKind::Call, call(1, 20, 0));
        p.tick(1_000_000, 4, 10);
        assert!(!p.is_enabled());
        assert_eq!(p.next_due(), u64::MAX);
        assert_eq!(p.samples(), 0);
        assert!(p.folded().is_empty());
        assert!(p.stack.is_empty());
    }

    #[test]
    fn samples_land_on_cycle_boundaries_with_weights() {
        let mut p = Profiler::new(100);
        p.tick(50, 4, 10); // before the first boundary
        assert_eq!(p.samples(), 0);
        p.tick(100, 4, 10); // exactly on it
        assert_eq!(p.samples(), 1);
        assert_eq!(p.next_due(), 200);
        p.tick(150, 4, 10); // not yet
        assert_eq!(p.samples(), 1);
        // A long excursion skipped boundaries 200..=500: one weighted
        // sample covers all four.
        p.tick(520, 4, 10);
        assert_eq!(p.samples(), 5);
        assert_eq!(p.next_due(), 600);
        assert_eq!(p.folded(), "machine;r4:s10 5\n");
        assert_eq!(p.samples_by_ring()[4], 5);
    }

    #[test]
    fn folded_stacks_mirror_open_spans_and_process() {
        let mut p = Profiler::new(100);
        p.dispatch(2);
        p.open(SpanKind::Call, call(1, 20, 0));
        // Sample at cycle 100: pid2 -> gate -> leaf.
        p.tick(100, 1, 20);
        p.open(SpanKind::Trap, call(0, 30, 2));
        // Deeper: both spans open.
        p.tick(200, 0, 30);
        p.close();
        p.close();
        // All closed again; a stray close changes nothing.
        p.close();
        p.tick(300, 4, 10);
        let folded = p.folded();
        assert!(
            folded.contains("pid2;call:r1:s20:e0;r1:s20 1\n"),
            "{folded}"
        );
        assert!(
            folded.contains("pid2;call:r1:s20:e0;trap:r0:s30:e2;r0:s30 1\n"),
            "{folded}"
        );
        assert!(folded.contains("pid2;r4:s10 1\n"), "{folded}");
        assert_eq!(p.samples(), 3);
    }

    #[test]
    fn identical_input_gives_bit_identical_profile() {
        let run = || {
            let mut p = Profiler::new(64);
            p.open(SpanKind::Call, call(1, 20, 0));
            p.tick(64, 0, 10);
            p.close();
            p.open(SpanKind::Call, call(0, 30, 1));
            p.tick(130, 2, 10);
            p.tick(512, 0, 10);
            p.folded()
        };
        assert_eq!(run(), run());
    }

    fn totals(cycles: u64, instructions: u64, faults: u64) -> Totals {
        Totals {
            cycles,
            instructions,
            faults,
            ..Totals::default()
        }
    }

    #[test]
    fn timeseries_records_on_interval_and_deltas() {
        let mut ts = TimeSeries::new(1000);
        assert_eq!(ts.next_due(), 1000);
        ts.record(totals(999, 200, 1)); // not due: ignored
        assert!(ts.is_empty());
        ts.record(totals(1000, 300, 2));
        assert_eq!(ts.next_due(), 2000);
        // Skipping a whole interval still lands one point at the next
        // boundary crossing.
        ts.record(totals(3100, 900, 5));
        assert_eq!(ts.next_due(), 4000);
        assert_eq!(ts.len(), 2);
        let d = ts.deltas();
        assert_eq!(d[0].instructions, 300);
        assert_eq!(d[0].dcycles, 1000);
        assert_eq!(d[1].instructions, 600);
        assert_eq!(d[1].dcycles, 2100);
        assert_eq!(d[1].faults, 3);
        assert!((d[0].ipc - 0.3).abs() < 1e-9);
        assert_eq!(TimeSeries::new(0).next_due(), u64::MAX);
    }

    #[test]
    fn timeseries_json_carries_schema_and_points() {
        let mut ts = TimeSeries::new(500);
        ts.record(totals(500, 100, 0));
        ts.record(totals(1000, 260, 1));
        let json = ts.to_json();
        assert!(json.contains("\"schema\": \"ring-prof/timeseries/v1\""));
        assert!(json.contains("\"interval\": 500"));
        assert!(json.contains("\"cycles\": 500"));
        assert!(json.contains("\"instructions\": 160"));
        assert!(json.contains("\"ipc\": 0.320000"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON:\n{json}");
    }

    #[test]
    fn perfetto_counters_emit_counter_phase_events() {
        let mut p = Profiler::new(100);
        p.tick(100, 1, 20);
        p.tick(200, 4, 10);
        let mut ts = TimeSeries::new(100);
        ts.record(totals(100, 30, 0));
        let doc = perfetto_counters(&p, &ts);
        assert!(doc.contains("\"ph\": \"C\""));
        assert!(doc.contains("prof.samples.r1"));
        assert!(doc.contains("prof.samples.r4"));
        assert!(doc.contains("ts.ipc"));
        let opens = doc.matches(['{', '[']).count();
        let closes = doc.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON:\n{doc}");
    }
}
