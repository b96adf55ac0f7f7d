//! `runasm` — assemble and run a program on the ring-protection
//! simulator, in the bare world or on the booted kernel.
//!
//! ```text
//! runasm [machine flags] [--budget N] [--trace] [--disasm]
//!        [--metrics-out <file.json|file.csv>] [--trace-out <file.json>]
//!        [--record <file>] [--replay <file>] [--checkpoint-every N]
//!        [--profile-out <file.folded|file.json>]
//!        [--timeseries-out <file.json>]
//!        [--sample-every N] [--timeseries-every N]
//! ```
//!
//! The machine flags — the program file, `--ring`, `--no-fastpath`,
//! `--procs` with the kernel and storm flags, and the chaos flags —
//! choose and build the world; `multiring::cli` lists them. In the bare
//! world `runasm` prints the exit line. With `--procs` it prints one
//! line per process, the scheduler counters and the exit line, and exits
//! nonzero unless every process runs to a clean `drl 0o777` exit. Under
//! chaos a process abort is confinement, not failure: the run succeeds
//! as long as the machine survives, every process ends (cleanly or
//! killed), and the post-run protection-invariant check passes.
//!
//! * `--budget N` — instruction budget (default 100 000 in the bare
//!   world, 5 000 000 on the kernel).
//! * `--trace` — keep the last 4096 trace events and print them after
//!   the run.
//! * `--disasm` — print the assembled program instead of running it.
//! * `--metrics-out <file>` — enable the metrics recorder and write the
//!   full observability snapshot — ring-crossing counters, fault
//!   accounting, cycle histograms, the per-segment heatmap and SDW-cache
//!   statistics, and on the kernel the `scheduler` section — to the
//!   named file (CSV when the name ends in `.csv`, JSON otherwise; see
//!   `docs/OBSERVABILITY.md`).
//!
//! Flight-recorder options (see the "Spans and replay" section of
//! `docs/OBSERVABILITY.md`):
//!
//! * `--trace-out <file.json>` — record ring-crossing spans and export
//!   them as a Chrome trace-event / Perfetto JSON document (one track
//!   per ring, one per process on the kernel, instant events for
//!   faults), loadable in `ui.perfetto.dev`.
//! * `--record <file>` — record the run deterministically (initial
//!   machine image, periodic checkpoints every `--checkpoint-every`
//!   cycles, every I/O completion and, on the kernel, every
//!   timer-interrupt delivery point) into a recording file.
//! * `--replay <file>` — re-run a recording in a world rebuilt from the
//!   same flags and verify it bit-for-bit (final registers, memory,
//!   cycles, I/O timeline), then report and write outputs as after a
//!   run. Exits nonzero on divergence, and before running when the
//!   flags build a world other than the recorded one (another program,
//!   ring or kernel shape).
//!
//! Profiler options (see the "Profiling and time series" section of
//! `docs/OBSERVABILITY.md`):
//!
//! * `--profile-out <file>` — attach the deterministic cycle-driven
//!   sampling profiler and write the profile: folded stacks
//!   (`flamegraph.pl` input) by default, Perfetto counter tracks when
//!   the name ends in `.json`. `--sample-every N` sets the sampling
//!   period in simulated cycles (default 1000).
//! * `--timeseries-out <file.json>` — record an interval time series
//!   of cycles, instructions, faults, ring changes and page faults and
//!   write the `ring-prof/timeseries/v1` delta stream (ipc, fault-rate,
//!   paging-rate curves). `--timeseries-every N` sets the interval in
//!   simulated cycles (default 5000).
//!
//! Both are driven by simulated cycles, never wall-clock, so they
//! compose with `--record`/`--replay`: replaying a recording
//! reproduces the profile and the time series bit-for-bit.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use multiring::cli::{number, positive, text, value, MachineArgs, Session};
use multiring::core::access::Fault;
use multiring::cpu::machine::{Machine, RunExit};
use multiring::cpu::native::NativeAction;
use multiring::cpu::Recorder;
use multiring::trace::{perfetto, Recording, SpanEvent};

/// The flags `runasm` owns; `MachineArgs` holds the rest.
struct Options {
    budget: Option<u64>,
    trace: bool,
    disasm: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    record: Option<String>,
    replay: Option<String>,
    checkpoint_every: u64,
    profile_out: Option<String>,
    timeseries_out: Option<String>,
    sample_every: u64,
    timeseries_every: u64,
}

const USAGE: &str = "usage: runasm <file.rasm> [--ring N] [--budget N] [--trace] [--disasm] \
     [--no-fastpath] [--metrics-out <file>] [--trace-out <file.json>] \
     [--record <file>] [--replay <file>] [--checkpoint-every N] \
     [--profile-out <file>] [--timeseries-out <file.json>] \
     [--sample-every N] [--timeseries-every N] \
     [--procs N [--quantum N] [--frames N] [--pages N] [--rounds N] \
     [--chaos-seed N] [--chaos-rate N] [--chaos-plan <file>]]";

fn parse_args() -> Result<(Options, MachineArgs), String> {
    let mut opts = Options {
        budget: None,
        trace: false,
        disasm: false,
        metrics_out: None,
        trace_out: None,
        record: None,
        replay: None,
        checkpoint_every: multiring::cpu::DEFAULT_CHECKPOINT_EVERY,
        profile_out: None,
        timeseries_out: None,
        sample_every: 1_000,
        timeseries_every: 5_000,
    };
    let args = MachineArgs::parse(std::env::args().skip(1), |flag, args| {
        match flag {
            "--budget" => opts.budget = Some(value(args, flag, "an instruction count", number)?),
            "--trace" => opts.trace = true,
            "--disasm" => opts.disasm = true,
            "--metrics-out" => opts.metrics_out = Some(value(args, flag, "a file name", text)?),
            "--trace-out" => opts.trace_out = Some(value(args, flag, "a file name", text)?),
            "--record" => opts.record = Some(value(args, flag, "a file name", text)?),
            "--replay" => opts.replay = Some(value(args, flag, "a file name", text)?),
            "--checkpoint-every" => {
                opts.checkpoint_every = value(args, flag, "a cycle count", number)?;
            }
            "--profile-out" => opts.profile_out = Some(value(args, flag, "a file name", text)?),
            "--timeseries-out" => {
                opts.timeseries_out = Some(value(args, flag, "a file name", text)?);
            }
            "--sample-every" => {
                opts.sample_every = value(args, flag, "a cycle count >= 1", positive)?;
            }
            "--timeseries-every" => {
                opts.timeseries_every = value(args, flag, "a cycle count >= 1", positive)?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if opts.record.is_some() && opts.replay.is_some() {
        return Err("--record and --replay are mutually exclusive".to_string());
    }
    Ok((opts, args))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let (opts, args) = parse_args()?;
    if opts.disasm {
        let (_, image) = args.program()?.ok_or("--disasm needs a program file")?;
        print!("{}", image.dump());
        return Ok(ExitCode::SUCCESS);
    }
    let mut session = args.build()?;
    if let Session::Bare { world, trap, .. } = &mut session {
        world.machine.register_native(*trap, |m, vector| {
            if let Some(f) = m.last_fault() {
                if !matches!(f, Fault::Derail { code: 0o777 }) {
                    eprintln!("trap (vector {}): {f}", vector.value());
                }
            }
            Ok(NativeAction::Halt)
        });
    }
    let budget = opts
        .budget
        .unwrap_or(if args.procs > 0 { 5_000_000 } else { 100_000 });
    let m = session.machine_mut();
    if opts.trace {
        m.enable_trace(4096);
    }
    if opts.metrics_out.is_some() {
        m.enable_metrics();
    }
    if opts.trace_out.is_some() {
        m.enable_spans();
    }
    if let Some((sample, ts)) = profiler_config(&opts) {
        m.enable_profiler(sample, ts);
    }

    let exit = if let Some(path) = &opts.replay {
        replay(m, path)?
    } else if let Some(path) = &opts.record {
        let name = args.file.as_deref().unwrap_or("page-storm");
        let mut rec = Recorder::start(m, name, opts.checkpoint_every);
        let exit = multiring::cpu::run_recorded(m, budget, &mut rec);
        let recording = rec.finish(m);
        write(path, recording.to_json())?;
        println!(
            "recorded: {} checkpoints, {} I/O completions -> {path}",
            recording.checkpoints.len(),
            recording.io_events.len()
        );
        exit
    } else {
        m.run(budget)
    };
    if opts.trace {
        for ev in m.take_trace() {
            println!("{ev}");
        }
    }

    let ok = report(&session, exit, args.chaos());
    write_outputs(&session, &opts)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Re-runs the recording at `path` on `m`, which the same flags built,
/// and checks it bit-for-bit. A world other than the recorded one is
/// refused before anything runs, not replaced by the recorded image.
fn replay(m: &mut Machine, path: &str) -> Result<RunExit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let recording = Recording::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if m.capture_image().words() != recording.initial {
        return Err(format!(
            "replay refused: {path} recorded `{}` in a world these flags do not build",
            recording.program
        ));
    }
    let report =
        multiring::cpu::replay(m, &recording).map_err(|e| format!("replay failed: {e}"))?;
    if !report.ok {
        let why = report.mismatch.as_deref().unwrap_or("unknown");
        return Err(format!("replay DIVERGED: {why}"));
    }
    println!(
        "replay OK: {} instructions, {} cycles, bit-identical final image",
        report.instructions, report.cycles
    );
    // A recording does not store how its run ended: report a halted
    // machine as halted and any other as out of budget.
    Ok(if m.halted() {
        RunExit::Halted
    } else {
        RunExit::BudgetExhausted
    })
}

/// Prints how the run ended: the exit line, and on the kernel every
/// process, the scheduler counters and the chaos summary. Returns false
/// when the kernel run failed.
fn report(session: &Session, exit: RunExit, chaos: bool) -> bool {
    let m = session.machine();
    let Session::Kernel { sys, procs } = session else {
        println!(
            "exit: {exit:?}  ring {}  A={:o} Q={:o}  cycles={}  instructions={}",
            m.ring(),
            m.a().raw(),
            m.q().raw(),
            m.cycles(),
            m.stats().instructions
        );
        return true;
    };
    let mut ok = exit == RunExit::Halted;
    let st = sys.state();
    for p in procs {
        let ps = &st.processes[p.pid];
        let status = match ps.aborted.as_deref() {
            Some("exit") => "exited".to_string(),
            Some(r) => {
                // Under chaos a kill is successful confinement, not a
                // run failure.
                ok &= chaos;
                format!("ABORTED ({r})")
            }
            None => {
                ok = false;
                "UNFINISHED (out of budget)".to_string()
            }
        };
        println!(
            "proc {}: {status}  page-faults={}  preemptions={}",
            p.pid, ps.page_faults, ps.preemptions
        );
    }
    let sc = st.sched.stats;
    println!(
        "sched: {} context switches ({} preemptions), {} minor + {} major page \
         faults, {} evictions, {} idle cycles",
        sc.context_switches,
        sc.preemptions,
        sc.page_faults_minor,
        sc.page_faults_major,
        sc.evictions,
        sc.idle_cycles
    );
    println!(
        "exit: {exit:?}  cycles={}  instructions={}",
        m.cycles(),
        m.stats().instructions
    );
    if !chaos {
        return ok;
    }
    let cs = sys.chaos_stats();
    let e = m.chaos();
    println!(
        "chaos: {} injected, {} detected, {} recovered, {} killed, {} salvaged, \
         {} refetched, {} drum retries, {} io timeouts, degraded segs={} global={}",
        e.injected_total(),
        e.detected_total(),
        cs.recovered,
        cs.killed,
        cs.salvaged,
        cs.refetched,
        cs.drum_retries,
        cs.io_timeouts,
        e.degraded_segs().len(),
        e.degraded_global()
    );
    match sys.check_invariants() {
        Ok(()) => println!("chaos: post-run invariant check OK"),
        Err(msg) => {
            eprintln!("chaos: INVARIANT VIOLATION: {msg}");
            ok = false;
        }
    }
    if cs.invariant_failures > 0 {
        eprintln!(
            "chaos: {} recovery-time invariant failures",
            cs.invariant_failures
        );
        ok = false;
    }
    ok
}

/// Writes the metrics snapshot, the Perfetto trace, the profile and the
/// time series the flags ask for.
fn write_outputs(session: &Session, opts: &Options) -> Result<(), String> {
    let m = session.machine();
    if let Some(path) = &opts.metrics_out {
        let snap = session.metrics_snapshot();
        let body = if path.ends_with(".csv") {
            snap.to_csv()
        } else {
            snap.to_json()
        };
        write(path, body)?;
        println!(
            "metrics: {} crossings ({} ring changes), {} faults, sdw cache {:.0}% hit -> {path}",
            snap.crossings.total(),
            snap.crossings.total_ring_changes(),
            snap.faults.total(),
            100.0 * snap.sdw_cache.hit_ratio()
        );
    }
    if let Some(path) = &opts.trace_out {
        // One pass: the export streams into the file while the summary
        // counts the spans and their distinct gates.
        let (mut spans, mut gates) = (0, BTreeSet::new());
        let events = m.spans().events().inspect(|ev| {
            if let SpanEvent::Open { kind, key, .. } = ev {
                spans += 1;
                gates.insert((*kind, *key));
            }
        });
        write_with(path, |out| {
            perfetto::write_chrome_trace(out, events, m.cycles())
        })?;
        println!(
            "trace: {spans} spans across {} gates -> {path} (load in ui.perfetto.dev)",
            gates.len()
        );
    }
    if let Some(path) = &opts.profile_out {
        let prof = m.profiler();
        if path.ends_with(".json") {
            write_with(path, |out| {
                multiring::prof::write_perfetto_counters(out, prof, m.timeseries())
            })?;
        } else {
            write(path, prof.folded())?;
        }
        println!(
            "profile: {} samples every {} cycles, {} stacks -> {path}",
            prof.samples(),
            prof.sample_every(),
            prof.folded_entries().count()
        );
    }
    if let Some(path) = &opts.timeseries_out {
        let ts = m.timeseries();
        write_with(path, |out| ts.write_json(out))?;
        println!(
            "timeseries: {} points every {} cycles -> {path}",
            ts.len(),
            ts.every()
        );
    }
    Ok(())
}

fn write(path: &str, body: String) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Creates `path` and lets `write` fill it through a buffer.
fn write_with(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), String> {
    let fail = |e: io::Error| format!("cannot write {path}: {e}");
    let mut out = BufWriter::new(File::create(path).map_err(fail)?);
    write(&mut out).and_then(|()| out.flush()).map_err(fail)
}

/// The profiler configuration the flags ask for: `(sample_every,
/// timeseries_every)` with 0 disabling that half, or `None` when no
/// profiler output was requested at all.
fn profiler_config(opts: &Options) -> Option<(u64, u64)> {
    let sample = opts.profile_out.as_ref().map_or(0, |_| opts.sample_every);
    let ts = opts
        .timeseries_out
        .as_ref()
        .map_or(0, |_| opts.timeseries_every);
    (sample > 0 || ts > 0).then_some((sample, ts))
}
