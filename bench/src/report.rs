//! Result records: the printed metric table, the JSON result file with
//! its provenance, the one-line summary, and `agree`.

use std::fmt::Write as _;
use std::path::Path;

use ring_trace::json::{escape, parse, Json};

use crate::stats::{compare, Summary, Verdict};
use crate::workload::{Opts, Workload};

/// End-to-end metrics (untraced runs): name and unit. `failed_frac`, the
/// fifth, is a run's `failed` over `attempted`; it is 0 on a sound run,
/// so it lives in the result record and `agree` rather than here.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_mips", "Minstr/s"),
    ("machines_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit. Step and layer times
/// are per machine; `.pct` layers are shares of the traced member time.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("cpu.fast.ns_per_step", "ns"),
    ("cpu.fast.steps", "count"),
    ("cpu.ref.ns_per_step", "ns"),
    ("cpu.ref.steps", "count"),
    ("cpu.trap.ns_per_entry", "ns"),
    ("cpu.trap.entries", "count"),
    ("os.native.ns_per_call", "ns"),
    ("os.native.calls", "count"),
    ("segmem.tlb.hit_ratio", "ratio"),
    ("segmem.icache.hit_ratio", "ratio"),
    ("segmem.sdw_cache.hit_ratio", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_events", "count"),
    ("prof.samples", "count"),
    ("sched.page_faults_major", "count"),
    ("sched.evictions", "count"),
    ("os.boot.pct", "%"),
    ("os.install.pct", "%"),
    ("cpu.run.pct", "%"),
    ("os.invariants.pct", "%"),
    ("os.checkpoint.pct", "%"),
    ("os.checkpoint.count", "count"),
    ("cpu.run.us", "us"),
    ("os.snapshot.us", "us"),
    ("metrics.merge.us", "us"),
    ("member.us_p50", "us"),
    ("segmem.cow.dirty_pages_p50", "count"),
    ("fleet.restarts", "count"),
    ("chaos.recoveries", "count"),
];

/// One correctness check and what it saw.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// One metric's samples within a run.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

/// Everything one workload run produced.
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    /// Values kept in the result file only (per-layer microseconds,
    /// tail percentiles, the layer-sum comparison).
    pub detail: Vec<(String, f64)>,
    /// Simulated instructions and cycles of one repeat (solo) or one
    /// fleet (fleets), printed for diffing across commits.
    pub sim: (u64, u64),
    /// Timed repeats (untraced) or traced passes.
    pub repeats: usize,
    /// Chrome trace-event JSON of the traced pass.
    pub chrome: Option<String>,
}

impl Outcome {
    pub fn new(workload: Workload, opts: &Opts) -> Outcome {
        Outcome {
            workload,
            seed: opts.seed,
            trace: opts.trace,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Vec::new(),
            detail: Vec::new(),
            sim: (0, 0),
            repeats: 0,
            chrome: None,
        }
    }

    /// Counts one machine run; it fails unless it halted cleanly.
    pub fn machine_ran(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// Records a metric listed in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, samples: Vec<f64>) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"))
            .1;
        self.metrics.push(Metric {
            name,
            unit,
            samples,
        });
    }

    /// Checks that no machine run so far failed.
    pub fn check_all_halted(&mut self) {
        let failed = self.failed;
        self.check(
            "every machine halted",
            failed == 0,
            format!("{failed} failed"),
        );
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Failed operations as reported: a failed check fails the whole run.
    pub fn failed_count(&self) -> u64 {
        if self.correct() {
            self.failed
        } else {
            self.attempted.max(1)
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed_count() as f64 / self.attempted.max(1) as f64
    }

    pub fn mode(&self) -> &'static str {
        mode(self.trace)
    }

    /// Prints checks, simulated totals and every metric by name and unit.
    pub fn print(&self) {
        let w = self.workload.name();
        println!(
            "== {w} ({}, {} repeats, {} machines attempted, {} failed)",
            self.mode(),
            self.repeats,
            self.attempted,
            self.failed_count()
        );
        println!("sim {w} instructions={} cycles={}", self.sim.0, self.sim.1);
        println!("failed_frac {}", self.failed_frac());
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            println!("check {verdict} {}: {}", c.name, c.detail);
        }
        for m in &self.metrics {
            let s = Summary::of(&m.samples).expect("every metric has a sample");
            println!(
                "metric {:<28} {:>16.6} {:<9} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
                m.name, s.median, m.unit, s.q1, s.q3, s.min, s.max, s.n
            );
        }
        for (k, v) in &self.detail {
            println!("detail {k:<36} {v:.3}");
        }
    }

    /// The run as a result-file record.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let s = Summary::of(&m.samples).expect("every metric has a sample");
            let fields = [
                ("median", s.median),
                ("q1", s.q1),
                ("q3", s.q3),
                ("min", s.min),
                ("max", s.max),
                ("n", s.n as f64),
            ];
            let mut o = vec![("unit".to_string(), Json::Str(m.unit.to_string()))];
            o.extend(fields.map(|(k, v)| (k.to_string(), Json::Num(v))));
            (m.name.to_string(), Json::Obj(o))
        });
        let checks = self.checks.iter().map(|c| {
            obj([
                ("name", Json::Str(c.name.to_string())),
                ("ok", Json::Bool(c.ok)),
                ("detail", Json::Str(c.detail.clone())),
            ])
        });
        let detail = self.detail.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
        obj([
            ("workload", Json::Str(self.workload.name().to_string())),
            ("mode", Json::Str(self.mode().to_string())),
            ("seed", Json::Num(self.seed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed_count() as f64)),
            ("failed_frac", Json::Num(self.failed_frac())),
            ("repeats", Json::Num(self.repeats as f64)),
            (
                "sim",
                obj([
                    ("instructions", Json::Num(self.sim.0 as f64)),
                    ("cycles", Json::Num(self.sim.1 as f64)),
                ]),
            ),
            ("checks", Json::Arr(checks.collect())),
            ("metrics", Json::Obj(metrics.collect())),
            ("detail", Json::Obj(detail.collect())),
        ])
    }

    /// The one-line summary: medians of this run's metrics.
    pub fn summary_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let s = Summary::of(&m.samples).expect("every metric has a sample");
            let v = obj([
                ("value", Json::Num(s.median)),
                ("unit", Json::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), v)
        });
        let mut line = String::new();
        write_json(
            &obj([
                ("correct", Json::Bool(self.correct())),
                ("attempted", Json::Num(self.attempted as f64)),
                ("failed", Json::Num(self.failed_count() as f64)),
                ("metrics", Json::Obj(metrics.collect())),
            ]),
            None,
            &mut line,
        );
        line
    }
}

/// A run's mode as named in result files.
pub fn mode(trace: bool) -> &'static str {
    if trace {
        "traced"
    } else {
        "untraced"
    }
}

pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
}

/// Serialises `v`; `Some(depth)` pretty-prints, keeping all-scalar
/// objects on one line.
pub fn write_json(v: &Json, indent: Option<usize>, out: &mut String) {
    let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Json::Arr(items) => {
            let items: Vec<(Option<&str>, &Json)> = items.iter().map(|v| (None, v)).collect();
            write_seq(&items, ('[', ']'), indent, out);
        }
        Json::Obj(members) => {
            let inline = members.iter().all(|(_, v)| scalar(v));
            let items: Vec<(Option<&str>, &Json)> =
                members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
            write_seq(&items, ('{', '}'), indent.filter(|_| !inline), out);
        }
    }
}

fn write_seq(
    items: &[(Option<&str>, &Json)],
    brackets: (char, char),
    indent: Option<usize>,
    out: &mut String,
) {
    out.push(brackets.0);
    for (i, (key, v)) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match indent {
            Some(d) => {
                out.push('\n');
                out.push_str(&"  ".repeat(d + 1));
            }
            None if i > 0 => out.push(' '),
            None => {}
        }
        if let Some(k) = key {
            let _ = write!(out, "\"{}\": ", escape(k));
        }
        write_json(v, indent.map(|d| d + 1), out);
    }
    if let (Some(d), false) = (indent, items.is_empty()) {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(brackets.1);
}

/// Where and on what a result was measured.
pub fn provenance(root: &Path, opts: &Opts) -> Json {
    // Only ask git when the checkout is itself a repository, so nothing
    // outside the checkout is read.
    let git = |args: &[&str]| -> Option<String> {
        if !root.join(".git").exists() {
            return None;
        }
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        (
            "commit",
            Json::Str(commit.unwrap_or_else(|| "unknown".to_string())),
        ),
        ("dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
    ])
}

/// A whole result file.
pub fn document(provenance: Json, runs: Vec<Json>) -> String {
    let mut out = String::new();
    write_json(
        &obj([
            ("schema", Json::Str("bench/result/v1".to_string())),
            ("provenance", provenance),
            ("runs", Json::Arr(runs)),
        ]),
        Some(0),
        &mut out,
    );
    out.push('\n');
    out
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(v: &Json, key: &str) -> Option<f64> {
    match v.get(key)? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// The runs recorded in a result file.
pub fn runs(doc: &Json) -> Vec<&Json> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .collect()
}

/// The untraced runs of `workload` in a result file: one run, or a run
/// set written with `--runs`.
fn untraced<'a>(doc: &'a Json, workload: &str) -> Vec<&'a Json> {
    runs(doc)
        .into_iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("mode").and_then(Json::as_str) == Some(mode(false))
        })
        .collect()
}

/// A run set's `metric`, summarised over each run's median. A run's own
/// repeat quartiles play no part: only the spread between runs decides
/// whether a comparison is resolved.
fn run_medians(runs: &[&Json], metric: &str) -> Option<Summary> {
    let medians: Option<Vec<f64>> = runs
        .iter()
        .map(|r| num(r.get("metrics")?.get(metric)?, "median"))
        .collect();
    Summary::of(&medians?)
}

/// A run set's failed operations over its attempts, as one value.
fn failed_frac(runs: &[&Json]) -> Option<Summary> {
    let (mut failed, mut attempted) = (0.0, 0.0);
    for r in runs {
        failed += num(r, "failed")?;
        attempted += num(r, "attempted")?;
    }
    if attempted > 0.0 {
        Summary::of(&[failed / attempted])
    } else {
        None
    }
}

/// One line of `agree`: a metric on a workload, both run sets summarised
/// with the verdict, or `None` when a file lacks the metric.
struct Row {
    workload: &'static str,
    metric: String,
    bound: f64,
    sets: Option<(Summary, Summary, Verdict)>,
}

/// Compares the untraced run sets of `b` against those of `a` on every
/// end-to-end metric in `spec` (`BENCHMARK.json`), and on `failed_frac`
/// with a bound of 0, so that any rise in failures is worse.
fn compare_files(spec: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut metrics = Vec::new();
    for m in spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let name = m.get("name").and_then(Json::as_str);
        let bound = num(m, "bound");
        let higher = m.get("better").and_then(Json::as_str) == Some("higher");
        metrics.push((
            name.ok_or("metric without name")?,
            bound.ok_or("metric without bound")?,
            higher,
        ));
    }
    let mut rows = Vec::new();
    for w in Workload::ALL.map(Workload::name) {
        let (ra, rb) = (untraced(a, w), untraced(b, w));
        if ra.is_empty() && rb.is_empty() {
            continue;
        }
        for &(name, bound, higher) in &metrics {
            let sets = run_medians(&ra, name).zip(run_medians(&rb, name));
            rows.push(Row {
                workload: w,
                metric: name.to_string(),
                bound,
                sets: sets.map(|(sa, sb)| (sa, sb, compare(&sa, &sb, bound, higher))),
            });
        }
        let sets = failed_frac(&ra).zip(failed_frac(&rb));
        rows.push(Row {
            workload: w,
            metric: "failed_frac".to_string(),
            bound: 0.0,
            sets: sets.map(|(sa, sb)| (sa, sb, compare(&sa, &sb, 0.0, false))),
        });
    }
    Ok(rows)
}

/// Compares the untraced runs of result file `b` against `a`, metric by
/// metric, with the bounds in `benchmark` (`BENCHMARK.json`). Each file
/// holds one run or a run set per workload. Returns false when a metric
/// is worse by more than its bound or is missing from one file;
/// `unresolved` is reported but is not a regression.
pub fn agree(benchmark: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let rows = compare_files(&read_json(benchmark)?, &read_json(a)?, &read_json(b)?)?;
    let (mut worse, mut unresolved, mut missing) = (0, 0, 0);
    println!(
        "{:<14} {:<15} {:>14} {:>7} {:>3} {:>14} {:>7} {:>3} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "spread",
        "n",
        "B median",
        "spread",
        "n",
        "change",
        "bound"
    );
    for r in &rows {
        let (w, name) = (r.workload, &r.metric);
        let Some((sa, sb, verdict)) = r.sets else {
            println!("{w:<14} {name:<15} missing from a result file");
            missing += 1;
            continue;
        };
        worse += usize::from(verdict == Verdict::Worse);
        unresolved += usize::from(verdict == Verdict::Unresolved);
        let change = if sa.median == 0.0 {
            format!("{:+.4}", sb.median - sa.median)
        } else {
            format!("{:+.2}%", (sb.median / sa.median - 1.0) * 100.0)
        };
        println!(
            "{w:<14} {name:<15} {:>14.6} {:>6.2}% {:>3} {:>14.6} {:>6.2}% {:>3} {change:>8} {:>5.1}%  {}",
            sa.median,
            sa.spread() * 100.0,
            sa.n,
            sb.median,
            sb.spread() * 100.0,
            sb.n,
            r.bound * 100.0,
            verdict.label()
        );
    }
    println!("{worse} worse, {unresolved} unresolved, {missing} missing");
    Ok(worse == 0 && missing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = read_json(&path).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let mut v: Vec<_> = spec
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            v.sort();
            v
        };
        let table = |t: &[(&str, &str)]| {
            let mut v: Vec<_> = t
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<_> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    /// A result file of untraced `fleet_mixed` runs, one per
    /// `(sim_mips median, its q1, its q3, failed)`, 100 attempts each.
    fn result_file(runs: &[(f64, f64, f64, f64)]) -> Json {
        let runs = runs.iter().map(|&(median, q1, q3, failed)| {
            let m = [
                ("median", median),
                ("q1", q1),
                ("q3", q3),
                ("min", q1),
                ("max", q3),
                ("n", 40.0),
            ];
            obj([
                ("workload", Json::Str("fleet_mixed".to_string())),
                ("mode", Json::Str("untraced".to_string())),
                ("attempted", Json::Num(100.0)),
                ("failed", Json::Num(failed)),
                (
                    "metrics",
                    obj([("sim_mips", obj(m.map(|(k, v)| (k, Json::Num(v)))))]),
                ),
            ])
        });
        obj([("runs", Json::Arr(runs.collect()))])
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<(String, Verdict)> {
        let spec = parse(
            r#"{"end_to_end": [{"name": "sim_mips", "unit": "Minstr/s", "better": "higher", "bound": 0.25}]}"#,
        )
        .unwrap();
        compare_files(&spec, a, b)
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.sets.unwrap().2))
            .collect()
    }

    #[test]
    fn agree_judges_run_medians_not_spread_within_a_run() {
        // Each run's repeats spread by 25.5%, just above the bound; the
        // medians still decide.
        let base = result_file(&[(3.443, 2.892, 3.770, 0.0)]);
        let slower = result_file(&[(2.2, 1.85, 2.41, 0.0)]);
        let close = result_file(&[(3.3, 2.77, 3.61, 0.0)]);
        let same = |v: Verdict| {
            vec![
                ("sim_mips".to_string(), v),
                ("failed_frac".to_string(), Verdict::Same),
            ]
        };
        assert_eq!(verdicts(&base, &slower), same(Verdict::Worse));
        assert_eq!(verdicts(&base, &close), same(Verdict::Same));
        // Run sets: the spread between run medians decides resolution.
        let steady = result_file(&[
            (3.4, 3.0, 3.8, 0.0),
            (3.5, 3.1, 3.9, 0.0),
            (3.45, 3.0, 3.9, 0.0),
        ]);
        let scattered = result_file(&[
            (2.0, 1.9, 2.1, 0.0),
            (3.4, 3.3, 3.5, 0.0),
            (4.8, 4.7, 4.9, 0.0),
        ]);
        assert_eq!(verdicts(&steady, &scattered), same(Verdict::Unresolved));
        // Any rise in failures is worse.
        let failing = result_file(&[(3.443, 2.892, 3.770, 1.0)]);
        assert_eq!(
            verdicts(&base, &failing),
            vec![
                ("sim_mips".to_string(), Verdict::Same),
                ("failed_frac".to_string(), Verdict::Worse)
            ]
        );
    }

    #[test]
    fn json_writer_round_trips_through_the_reader() {
        let doc = obj([
            ("a", Json::Num(0.1 + 0.2)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", obj([("s", Json::Str("q\"\n".to_string()))])),
            ("d", Json::Arr(vec![])),
        ]);
        for indent in [None, Some(0)] {
            let mut s = String::new();
            write_json(&doc, indent, &mut s);
            assert_eq!(parse(&s).unwrap(), doc);
        }
    }
}
