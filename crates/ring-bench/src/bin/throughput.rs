//! Wall-clock throughput of the simulator, fast path versus the
//! reference slow path.
//!
//! The fast-path engine (ring-checked translation lookaside +
//! predecoded instruction cache) changes nothing architectural — the
//! differential tests pin that — so the only honest way to show it
//! earns its complexity is host wall-clock: simulated instructions per
//! second with the engine on and off, over workloads that stress the
//! paths it accelerates.
//!
//! ```text
//! cargo run --release -p ring-bench --bin throughput [-- --quick] [--out FILE]
//! ```
//!
//! Three workloads (shared builders in `ring_os::workload::micro`, so
//! this harness, the fleet runner, and the replay suites all measure
//! the same worlds):
//!
//! * `tight_loop` — a same-ring counting loop: fetch + operand
//!   read/write/AOS + taken transfer, all fast-path eligible.
//! * `gate_storm` — a cross-ring CALL/RETURN round trip per iteration:
//!   CALL and RETURN commit on the fast path through the reference
//!   Fig. 8–9 check once their target descriptors are resident.
//! * `indirect_chain` — each iteration follows a three-deep indirect
//!   chain, exercising the per-hop lookaside probes.
//!
//! The harness runs every workload under both engines (interleaved
//! best-of-3, minimum wall-clock per engine), *asserts the simulated
//! cycle counts and instruction counts are identical*, and writes a
//! JSON report (schema `ring-bench/throughput/v1`, default
//! `BENCH_throughput.json`) with both wall-clock numbers and the
//! speedup. A second section measures the span flight recorder's
//! wall-clock overhead (recorder on versus off, same engine) on the
//! tight loop — which crosses rings only at exit, so this is the
//! no-crossing cost — and on the gate storm, which emits two events
//! per iteration;
//! the report's `spans` block carries both runs and the slowdown
//! factor. A third section (`prof`) prices the sampling profiler and
//! time-series pipeline the same way — on versus off, same engine —
//! and the harness *fails* if profiling slows the tight loop beyond
//! 1.15x, since the profiler is designed to be left on. `--quick`
//! shrinks iteration counts to one short pass for CI smoke runs; the
//! report then carries `"quick": true` so nobody mistakes the numbers
//! for measurements (the profiler gate widens to a 2x sanity bound
//! there, wall-clock ratios on millisecond runs being noise).

use std::time::Instant;

use ring_cpu::machine::RunExit;
use ring_cpu::testkit::World;
use ring_os::workload::micro::{gate_storm, indirect_chain, tight_loop};

struct EngineRun {
    seconds: f64,
    ips: f64,
    instructions: u64,
    cycles: u64,
}

struct WorkloadReport {
    name: &'static str,
    instructions: u64,
    baseline: EngineRun,
    fastpath: EngineRun,
    speedup: f64,
    cycles_equal: bool,
}

fn run_engine(mut w: World, budget: u64) -> EngineRun {
    let start = Instant::now();
    let exit = w.machine.run(budget);
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(exit, RunExit::Halted, "workload did not run to completion");
    let instructions = w.machine.stats().instructions;
    EngineRun {
        seconds,
        ips: instructions as f64 / seconds.max(1e-9),
        instructions,
        cycles: w.machine.cycles(),
    }
}

fn measure(
    name: &'static str,
    iters: u64,
    passes: u32,
    build: fn(bool, u64) -> World,
) -> WorkloadReport {
    let budget = 64 * iters + 10_000;
    // Warm-up pass so page-cache / allocator noise lands outside the
    // measured runs.
    run_engine(build(true, iters.min(1000)), budget);
    run_engine(build(false, iters.min(1000)), budget);
    // Interleaved best-of-N: wall-clock minima are the standard robust
    // statistic for microbenchmarks (anything slower than the minimum
    // is the host interfering, not the workload), and interleaving the
    // engines spreads slow host phases across both fairly.
    let mut fast_best: Option<EngineRun> = None;
    let mut base_best: Option<EngineRun> = None;
    for _ in 0..passes.max(1) {
        let f = run_engine(build(true, iters), budget);
        if fast_best.as_ref().is_none_or(|b| f.seconds < b.seconds) {
            fast_best = Some(f);
        }
        let b = run_engine(build(false, iters), budget);
        if base_best.as_ref().is_none_or(|x| b.seconds < x.seconds) {
            base_best = Some(b);
        }
    }
    let fastpath = fast_best.expect("at least one pass");
    let baseline = base_best.expect("at least one pass");
    assert_eq!(
        fastpath.cycles, baseline.cycles,
        "{name}: simulated cycles diverged between engines"
    );
    assert_eq!(
        fastpath.instructions, baseline.instructions,
        "{name}: instruction counts diverged between engines"
    );
    WorkloadReport {
        name,
        instructions: fastpath.instructions,
        speedup: fastpath.ips / baseline.ips.max(1e-9),
        cycles_equal: fastpath.cycles == baseline.cycles,
        baseline,
        fastpath,
    }
}

struct SpanOverheadReport {
    name: &'static str,
    span_events: u64,
    disabled: EngineRun,
    enabled: EngineRun,
    /// Slowdown factor of recording: disabled ips / enabled ips.
    overhead: f64,
    cycles_equal: bool,
}

/// One fastpath-engine run of `build`'s workload with the span flight
/// recorder on or off; returns the run plus the events recorded.
fn run_with_spans(
    build: fn(bool, u64) -> World,
    iters: u64,
    budget: u64,
    spans: bool,
) -> (EngineRun, u64) {
    let mut w = build(true, iters);
    if spans {
        w.machine.enable_spans();
    }
    let start = Instant::now();
    let exit = w.machine.run(budget);
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(exit, RunExit::Halted, "workload did not run to completion");
    let instructions = w.machine.stats().instructions;
    let events = w.machine.spans().events().len() as u64;
    (
        EngineRun {
            seconds,
            ips: instructions as f64 / seconds.max(1e-9),
            instructions,
            cycles: w.machine.cycles(),
        },
        events,
    )
}

/// Span-recording overhead on one workload: same engine (fastpath),
/// recorder on versus off, interleaved best-of-N. Recording must never
/// change simulated cycles; the wall-clock ratio is the honest price
/// of the flight recorder.
fn measure_spans(
    name: &'static str,
    iters: u64,
    passes: u32,
    build: fn(bool, u64) -> World,
) -> SpanOverheadReport {
    let budget = 64 * iters + 10_000;
    run_with_spans(build, iters.min(1000), budget, true);
    run_with_spans(build, iters.min(1000), budget, false);
    let mut on_best: Option<(EngineRun, u64)> = None;
    let mut off_best: Option<EngineRun> = None;
    for _ in 0..passes.max(1) {
        let on = run_with_spans(build, iters, budget, true);
        if on_best.as_ref().is_none_or(|b| on.0.seconds < b.0.seconds) {
            on_best = Some(on);
        }
        let (off, _) = run_with_spans(build, iters, budget, false);
        if off_best.as_ref().is_none_or(|b| off.seconds < b.seconds) {
            off_best = Some(off);
        }
    }
    let (enabled, span_events) = on_best.expect("at least one pass");
    let disabled = off_best.expect("at least one pass");
    assert_eq!(
        enabled.cycles, disabled.cycles,
        "{name}: span recording changed simulated cycles"
    );
    SpanOverheadReport {
        name,
        span_events,
        overhead: disabled.ips / enabled.ips.max(1e-9),
        cycles_equal: enabled.cycles == disabled.cycles,
        disabled,
        enabled,
    }
}

struct ProfOverheadReport {
    name: &'static str,
    samples: u64,
    timeseries_points: u64,
    disabled: EngineRun,
    enabled: EngineRun,
    /// Slowdown factor of profiling: disabled ips / enabled ips.
    overhead: f64,
    cycles_equal: bool,
}

/// One fastpath-engine run of `build`'s workload with the sampling
/// profiler and time-series pipeline on or off; returns the run plus
/// the samples and time-series points recorded.
fn run_with_prof(
    build: fn(bool, u64) -> World,
    iters: u64,
    budget: u64,
    prof: bool,
) -> (EngineRun, u64, u64) {
    let mut w = build(true, iters);
    if prof {
        w.machine.enable_profiler(1_000, 5_000);
    }
    let start = Instant::now();
    let exit = w.machine.run(budget);
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(exit, RunExit::Halted, "workload did not run to completion");
    let instructions = w.machine.stats().instructions;
    let samples = w.machine.profiler().samples();
    let points = w.machine.timeseries().len() as u64;
    (
        EngineRun {
            seconds,
            ips: instructions as f64 / seconds.max(1e-9),
            instructions,
            cycles: w.machine.cycles(),
        },
        samples,
        points,
    )
}

/// Profiler overhead on one workload: same engine (fastpath), sampling
/// profiler + time series on versus off, interleaved best-of-N.
/// Profiling must never change simulated cycles, and the wall-clock
/// price on the tight loop is gated at 1.15x — the profiler is meant
/// to be left on.
fn measure_prof(
    name: &'static str,
    iters: u64,
    passes: u32,
    build: fn(bool, u64) -> World,
) -> ProfOverheadReport {
    let budget = 64 * iters + 10_000;
    run_with_prof(build, iters.min(1000), budget, true);
    run_with_prof(build, iters.min(1000), budget, false);
    let mut on_best: Option<(EngineRun, u64, u64)> = None;
    let mut off_best: Option<EngineRun> = None;
    for _ in 0..passes.max(1) {
        let on = run_with_prof(build, iters, budget, true);
        if on_best.as_ref().is_none_or(|b| on.0.seconds < b.0.seconds) {
            on_best = Some(on);
        }
        let (off, _, _) = run_with_prof(build, iters, budget, false);
        if off_best.as_ref().is_none_or(|b| off.seconds < b.seconds) {
            off_best = Some(off);
        }
    }
    let (enabled, samples, timeseries_points) = on_best.expect("at least one pass");
    let disabled = off_best.expect("at least one pass");
    assert_eq!(
        enabled.cycles, disabled.cycles,
        "{name}: profiling changed simulated cycles"
    );
    ProfOverheadReport {
        name,
        samples,
        timeseries_points,
        overhead: disabled.ips / enabled.ips.max(1e-9),
        cycles_equal: enabled.cycles == disabled.cycles,
        disabled,
        enabled,
    }
}

fn engine_json(run: &EngineRun) -> String {
    format!(
        "{{\"seconds\": {:.6}, \"ips\": {:.1}, \"instructions\": {}, \"cycles\": {}}}",
        run.seconds, run.ips, run.instructions, run.cycles
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut out = "BENCH_throughput.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            out = it.next().expect("--out takes a file name").clone();
        }
    }
    let iters = if quick { 2_000 } else { 200_000 };
    let passes = if quick { 1 } else { 3 };

    let reports = [
        measure("tight_loop", iters, passes, tight_loop),
        measure("gate_storm", iters / 5, passes, gate_storm),
        measure("indirect_chain", iters, passes, indirect_chain),
    ];
    let span_reports = [
        measure_spans("tight_loop", iters, passes, tight_loop),
        measure_spans("gate_storm", iters / 5, passes, gate_storm),
    ];
    let prof_reports = [
        measure_prof("tight_loop", iters, passes, tight_loop),
        measure_prof("gate_storm", iters / 5, passes, gate_storm),
    ];
    // The profiler is designed to be left on, so its price on the
    // all-fast-path loop is a hard gate. Quick CI runs are too short
    // for stable wall-clock ratios, so they get a wide sanity bound
    // instead of the real budget.
    let budget_factor = if quick { 2.0 } else { 1.15 };
    for p in &prof_reports {
        if p.name == "tight_loop" {
            assert!(
                p.overhead <= budget_factor,
                "profiler overhead on tight_loop is {:.3}x (> {budget_factor}x budget)",
                p.overhead
            );
        }
    }

    println!(
        "{:<16} {:>12} {:>14} {:>14} {:>9}",
        "workload", "instructions", "baseline ips", "fastpath ips", "speedup"
    );
    for r in &reports {
        println!(
            "{:<16} {:>12} {:>14.0} {:>14.0} {:>8.2}x",
            r.name, r.instructions, r.baseline.ips, r.fastpath.ips, r.speedup
        );
    }
    println!(
        "\n{:<16} {:>12} {:>14} {:>14} {:>9}",
        "span recording", "span events", "disabled ips", "enabled ips", "overhead"
    );
    for s in &span_reports {
        println!(
            "{:<16} {:>12} {:>14.0} {:>14.0} {:>8.2}x",
            s.name, s.span_events, s.disabled.ips, s.enabled.ips, s.overhead
        );
    }
    println!(
        "\n{:<16} {:>12} {:>14} {:>14} {:>9}",
        "profiler", "samples", "disabled ips", "enabled ips", "overhead"
    );
    for p in &prof_reports {
        println!(
            "{:<16} {:>12} {:>14.0} {:>14.0} {:>8.2}x",
            p.name, p.samples, p.disabled.ips, p.enabled.ips, p.overhead
        );
    }

    let workloads = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"instructions\": {}, \"baseline\": {}, \"fastpath\": {}, \"speedup\": {:.3}, \"cycles_equal\": {}}}",
                r.name,
                r.instructions,
                engine_json(&r.baseline),
                engine_json(&r.fastpath),
                r.speedup,
                r.cycles_equal
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let spans = span_reports
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"span_events\": {}, \"disabled\": {}, \"enabled\": {}, \"overhead\": {:.3}, \"cycles_equal\": {}}}",
                s.name,
                s.span_events,
                engine_json(&s.disabled),
                engine_json(&s.enabled),
                s.overhead,
                s.cycles_equal
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let prof = prof_reports
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": \"{}\", \"samples\": {}, \"timeseries_points\": {}, \"disabled\": {}, \"enabled\": {}, \"overhead\": {:.3}, \"cycles_equal\": {}}}",
                p.name,
                p.samples,
                p.timeseries_points,
                engine_json(&p.disabled),
                engine_json(&p.enabled),
                p.overhead,
                p.cycles_equal
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"schema\": \"ring-bench/throughput/v1\",\n  \"quick\": {quick},\n  \"workloads\": [\n{workloads}\n  ],\n  \"spans\": [\n{spans}\n  ],\n  \"prof\": [\n{prof}\n  ]\n}}\n"
    );
    std::fs::write(&out, json).expect("write report");
    println!("wrote {out}");
}
