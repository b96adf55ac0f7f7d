//! In-memory host-time spans recorded around calls into the crates.
//!
//! Spans are opened and closed by the benchmark itself, never inside
//! the simulator, so a layer is whatever public call the benchmark
//! wraps. They stay in memory until the run ends, then feed the layer
//! table and a Chrome-trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The machine (or repeat) the span belongs to.
    pub id: u64,
}

/// Span recorder with an explicit open-span stack.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// Per-span self time: its duration minus the part of its interval
    /// that its direct children cover (overlapping or adjacent children
    /// are counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// Total self time and span count per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Chrome trace-event JSON of the first `limit` spans (complete
    /// events, microsecond timestamps, one track per id).
    pub fn chrome_json(&self, limit: usize) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.id,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    fn with(spans: Vec<Span>) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let r = with(vec![
            span("member", 0, 100, None),
            span("boot", 10, 30, Some(0)),
            span("install", 30, 50, Some(0)), // adjacent to boot
            span("run", 60, 90, Some(0)),
            span("step", 65, 70, Some(3)), // nested two deep
            span("step", 70, 80, Some(3)),
        ]);
        assert_eq!(r.self_times(), vec![30, 20, 20, 15, 5, 10]);
        let by = r.by_name();
        assert_eq!(by["step"], (15, 2));
        assert_eq!(by["member"], (30, 1));
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let r = with(vec![
            span("p", 0, 50, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 45, 60, Some(0)), // runs past the parent's end
        ]);
        assert_eq!(r.self_times()[0], 50 - 30 - 5);
    }

    #[test]
    fn recorder_nests_by_open_stack() {
        let mut r = Recorder::new();
        r.time("outer", 7, || ());
        r.begin("member", 1);
        r.time("inner", 1, || ());
        r.end();
        let s = &r.spans;
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, None, Some(1))
        );
        assert!(s.iter().all(|s| s.end >= s.start));
        let json = r.chrome_json(10);
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"tid\": 7"));
        ring_trace::json::parse(&json).expect("chrome trace is valid JSON");
    }
}
