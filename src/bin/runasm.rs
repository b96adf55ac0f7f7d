//! `runasm` — assemble and run a program on the ring-protection
//! simulator.
//!
//! ```text
//! runasm <file.rasm> [--ring N] [--budget N] [--trace] [--disasm]
//!                    [--no-fastpath] [--metrics-out <file.json|file.csv>]
//!                    [--trace-out <file.json>] [--record <file>]
//!                    [--replay <file>] [--checkpoint-every N]
//!                    [--profile-out <file.folded|file.json>]
//!                    [--timeseries-out <file.json>]
//!                    [--sample-every N] [--timeseries-every N]
//!                    [--procs N] [--quantum N] [--frames N]
//!                    [--pages N] [--rounds N]
//!                    [--chaos-seed N] [--chaos-rate N] [--chaos-plan <file>]
//! ```
//!
//! The program is loaded into segment 10 of a bare world (standard
//! per-ring stacks at segments 48–55, a data segment at 11, a trap
//! segment that halts on any fault) and executed in the chosen ring
//! (default 4). Exit with `drl 0o777`. `--disasm` prints the assembled
//! image instead of running. `--metrics-out` enables the metrics
//! recorder and writes the full observability snapshot — ring-crossing
//! counters, fault accounting, cycle histograms, the per-segment
//! heatmap and SDW-cache statistics — to the named file (CSV when the
//! name ends in `.csv`, JSON otherwise; see `docs/OBSERVABILITY.md`).
//!
//! Flight-recorder options (see the "Spans and replay" section of
//! `docs/OBSERVABILITY.md`):
//!
//! * `--trace-out <file.json>` — record ring-crossing spans and export
//!   them as a Chrome trace-event / Perfetto JSON document (one track
//!   per ring, instant events for faults), loadable in
//!   `ui.perfetto.dev`.
//! * `--record <file>` — record the run deterministically (initial
//!   machine image, periodic checkpoints, every I/O completion) into a
//!   recording file.
//! * `--replay <file>` — re-run a recording in a world rebuilt from the
//!   same program and verify it bit-for-bit (final registers, memory,
//!   cycles, I/O timeline). Exits nonzero on divergence.
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
//!
//! Multiprogramming options (see `docs/KERNEL.md`):
//!
//! * `--procs N` — boot the full kernel instead of the bare world and
//!   run `N` processes, each in its own DBR-switched address space,
//!   under the preemptive round-robin scheduler. Each process gets a
//!   private paged data segment (segment 64, `--pages` pages) and runs
//!   a copy of `<file.rasm>` — or, when no file is given, the built-in
//!   page-storm sweep (`--rounds` rounds over every page). Exits
//!   nonzero unless every process runs to a clean `drl 0o777` exit.
//! * `--quantum N` — timer quantum in cycles (default 400).
//! * `--frames N` — physical-frame budget for demand paging; faults
//!   beyond the budget evict by CLOCK to a simulated drum (default 16;
//!   0 means unlimited, no paging pressure).
//! * `--pages N`, `--rounds N` — page-storm shape (defaults 5 and 30).
//!
//! `--record`/`--replay`, `--metrics-out` and `--trace-out` compose
//! with `--procs`: recordings replay bit-identically including every
//! timer-interrupt delivery point, the metrics snapshot gains the
//! `scheduler` section, and the Perfetto export gains one track per
//! process.
//!
//! Chaos options (require `--procs`; see `docs/RELIABILITY.md`):
//!
//! * `--chaos-seed N` — arm a seeded fault-injection campaign: parity
//!   errors, descriptor/page-table/TLB corruption, drum errors, lost
//!   I/O completions and spurious timer runouts, drawn from a
//!   deterministic PRNG stream. Identical seeds produce bit-identical
//!   runs (and recordings).
//! * `--chaos-rate N` — mean cycles between injections (default 5000).
//! * `--chaos-plan <file>` — explicit schedule instead of a campaign:
//!   one `CYCLE KIND` pair per line (kinds: `mem_parity`,
//!   `sdw_corrupt`, `ptw_corrupt`, `drum_read_error`,
//!   `drum_write_error`, `lost_io_completion`, `tlb_corrupt`,
//!   `spurious_timer`).
//!
//! Under chaos a process abort is confinement, not failure: the run
//! succeeds as long as the machine survives, every process ends
//! (cleanly or killed), and the post-run protection-invariant check
//! passes.

use std::process::ExitCode;

use multiring::core::access::Fault;
use multiring::core::ring::Ring;
use multiring::core::sdw::SdwBuilder;
use multiring::cpu::native::NativeAction;
use multiring::cpu::testkit::World;
use multiring::cpu::Recorder;
use multiring::trace::Recording;

struct Options {
    file: String,
    ring: u8,
    budget: Option<u64>,
    trace: bool,
    disasm: bool,
    fastpath: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    record: Option<String>,
    replay: Option<String>,
    checkpoint_every: u64,
    profile_out: Option<String>,
    timeseries_out: Option<String>,
    sample_every: u64,
    timeseries_every: u64,
    procs: usize,
    quantum: u64,
    frames: u32,
    pages: u32,
    rounds: u32,
    chaos_seed: Option<u64>,
    chaos_rate: u64,
    chaos_plan: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        file: String::new(),
        ring: 4,
        budget: None,
        trace: false,
        disasm: false,
        fastpath: true,
        metrics_out: None,
        trace_out: None,
        record: None,
        replay: None,
        checkpoint_every: multiring::cpu::DEFAULT_CHECKPOINT_EVERY,
        profile_out: None,
        timeseries_out: None,
        sample_every: 1_000,
        timeseries_every: 5_000,
        procs: 0,
        quantum: 400,
        frames: 16,
        pages: 5,
        rounds: 30,
        chaos_seed: None,
        chaos_rate: 5_000,
        chaos_plan: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ring" => {
                opts.ring = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r < 8)
                    .ok_or("--ring takes a number 0..=7")?;
            }
            "--budget" => {
                opts.budget = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--budget takes an instruction count")?,
                );
            }
            "--trace" => opts.trace = true,
            "--disasm" => opts.disasm = true,
            "--no-fastpath" => opts.fastpath = false,
            "--metrics-out" => {
                opts.metrics_out = Some(args.next().ok_or("--metrics-out takes a file name")?);
            }
            "--trace-out" => {
                opts.trace_out = Some(args.next().ok_or("--trace-out takes a file name")?);
            }
            "--record" => {
                opts.record = Some(args.next().ok_or("--record takes a file name")?);
            }
            "--replay" => {
                opts.replay = Some(args.next().ok_or("--replay takes a file name")?);
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--checkpoint-every takes a cycle count")?;
            }
            "--profile-out" => {
                opts.profile_out = Some(args.next().ok_or("--profile-out takes a file name")?);
            }
            "--timeseries-out" => {
                opts.timeseries_out =
                    Some(args.next().ok_or("--timeseries-out takes a file name")?);
            }
            "--sample-every" => {
                opts.sample_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--sample-every takes a cycle count >= 1")?;
            }
            "--timeseries-every" => {
                opts.timeseries_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--timeseries-every takes a cycle count >= 1")?;
            }
            "--procs" => {
                opts.procs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--procs takes a process count >= 1")?;
            }
            "--quantum" => {
                opts.quantum = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--quantum takes a cycle count >= 1")?;
            }
            "--frames" => {
                opts.frames = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--frames takes a frame count (0 = unlimited)")?;
            }
            "--pages" => {
                opts.pages = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--pages takes a page count >= 1")?;
            }
            "--rounds" => {
                opts.rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--rounds takes a round count >= 1")?;
            }
            "--chaos-seed" => {
                opts.chaos_seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--chaos-seed takes a seed number")?,
                );
            }
            "--chaos-rate" => {
                opts.chaos_rate = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--chaos-rate takes a mean cycle interval >= 1")?;
            }
            "--chaos-plan" => {
                opts.chaos_plan = Some(args.next().ok_or("--chaos-plan takes a file name")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: runasm <file.rasm> [--ring N] [--budget N] [--trace] [--disasm] \
                     [--no-fastpath] [--metrics-out <file>] [--trace-out <file.json>] \
                     [--record <file>] [--replay <file>] [--checkpoint-every N] \
                     [--profile-out <file>] [--timeseries-out <file.json>] \
                     [--sample-every N] [--timeseries-every N] \
                     [--procs N [--quantum N] [--frames N] [--pages N] [--rounds N] \
                     [--chaos-seed N] [--chaos-rate N] [--chaos-plan <file>]]"
                        .to_string(),
                )
            }
            f if !f.starts_with('-') && opts.file.is_empty() => opts.file = f.to_string(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.file.is_empty() && opts.procs == 0 {
        return Err("no input file (try --help)".to_string());
    }
    if opts.record.is_some() && opts.replay.is_some() {
        return Err("--record and --replay are mutually exclusive".to_string());
    }
    if opts.chaos_seed.is_some() && opts.chaos_plan.is_some() {
        return Err("--chaos-seed and --chaos-plan are mutually exclusive".to_string());
    }
    if (opts.chaos_seed.is_some() || opts.chaos_plan.is_some()) && opts.procs == 0 {
        return Err("chaos injection requires --procs (recovery lives in the kernel)".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.procs > 0 {
        return run_multiproc(&opts);
    }
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let image = match multiring::asm::assemble(&source) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };

    if opts.disasm {
        print!("{}", image.dump());
        return ExitCode::SUCCESS;
    }

    let ring = Ring::new(opts.ring).expect("checked");
    let mut world = World::with_config(multiring::cpu::machine::MachineConfig {
        fastpath: opts.fastpath,
        ..multiring::cpu::machine::MachineConfig::default()
    });
    let code = world.add_segment(
        10,
        SdwBuilder::procedure(ring, ring, Ring::R7)
            .gates(4)
            .bound_words(image.len().max(16)),
    );
    world.add_segment(11, SdwBuilder::data(ring, ring).bound_words(1024));
    world.add_standard_stacks(16);
    let trap = world.add_trap_segment();
    world.machine.register_native(trap, |m, vector| {
        if let Some(f) = m.last_fault() {
            if !matches!(f, Fault::Derail { code: 0o777 }) {
                eprintln!("trap (vector {}): {f}", vector.value());
            }
        }
        Ok(NativeAction::Halt)
    });
    for (i, w) in image.words.iter().enumerate() {
        world.poke(code, i as u32, *w);
    }
    if opts.trace {
        world.machine.enable_trace(4096);
    }
    if opts.metrics_out.is_some() {
        world.machine.enable_metrics();
    }
    if opts.trace_out.is_some() {
        world.machine.enable_spans();
    }
    if let Some((sample, ts)) = profiler_config(&opts) {
        world.machine.enable_profiler(sample, ts);
    }
    world.start(ring, code, 0);

    // Replay mode: ignore the freshly initialised machine state and
    // re-run the recording in this identically built world.
    if let Some(path) = &opts.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let recording = match Recording::from_json(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = match multiring::cpu::replay(&mut world.machine, &recording) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        finish(&world, &opts);
        return if report.ok {
            println!(
                "replay OK: {} instructions, {} cycles, bit-identical final image",
                report.instructions, report.cycles
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "replay DIVERGED: {}",
                report.mismatch.as_deref().unwrap_or("unknown")
            );
            ExitCode::FAILURE
        };
    }

    let budget = opts.budget.unwrap_or(100_000);
    let exit = if opts.record.is_some() {
        let mut rec = Recorder::start(&world.machine, &opts.file, opts.checkpoint_every);
        let exit = multiring::cpu::run_recorded(&mut world.machine, budget, &mut rec);
        let recording = rec.finish(&world.machine);
        let path = opts.record.as_deref().expect("checked");
        if let Err(e) = std::fs::write(path, recording.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "recorded: {} checkpoints, {} I/O completions -> {path}",
            recording.checkpoints.len(),
            recording.io_events.len()
        );
        exit
    } else {
        world.machine.run(budget)
    };

    if opts.trace {
        for ev in world.machine.take_trace() {
            println!("{ev}");
        }
    }
    let m = &world.machine;
    println!(
        "exit: {exit:?}  ring {}  A={:o} Q={:o}  cycles={}  instructions={}",
        m.ring(),
        m.a().raw(),
        m.q().raw(),
        m.cycles(),
        m.stats().instructions
    );
    finish(&world, &opts);
    ExitCode::SUCCESS
}

/// The `--procs` branch: boot the full kernel and multiplex N
/// DBR-switched processes over the one simulated processor, with
/// demand paging under the `--frames` budget.
fn run_multiproc(opts: &Options) -> ExitCode {
    use multiring::cpu::machine::RunExit;
    use multiring::os::workload::{install_page_storm, install_storm_program, StormSpec};
    use multiring::os::{System, SystemConfig};

    let spec = StormSpec {
        procs: opts.procs,
        pages: opts.pages,
        rounds: opts.rounds,
    };
    let source = if opts.file.is_empty() {
        None
    } else {
        let text = match std::fs::read_to_string(&opts.file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", opts.file);
                return ExitCode::FAILURE;
            }
        };
        // Assemble once up front for a readable diagnostic; the
        // installer assembles again per process.
        if let Err(e) = multiring::asm::assemble(&text) {
            eprintln!("{}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
        Some(text)
    };
    let chaos_plan = match chaos_plan_from(opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let chaos = chaos_plan.is_some();
    // Building the world is deterministic — the chaos engine included,
    // since it is armed here, before execution — so a recording made
    // in one build replays bit-for-bit in another.
    let build = || {
        let cfg = SystemConfig {
            quantum: opts.quantum,
            frame_budget: (opts.frames > 0).then_some(opts.frames),
            fastpath: opts.fastpath,
            ..SystemConfig::default()
        };
        let mut sys = System::boot_with(cfg);
        let procs = match &source {
            Some(text) => install_storm_program(&mut sys, &spec, text),
            None => install_page_storm(&mut sys, &spec),
        };
        if opts.metrics_out.is_some() {
            sys.enable_metrics();
        }
        if opts.trace_out.is_some() {
            sys.enable_spans();
        }
        if let Some(plan) = &chaos_plan {
            sys.enable_chaos(plan.clone());
        }
        if let Some((sample, ts)) = profiler_config(opts) {
            sys.enable_profiler(sample, ts);
        }
        sys.machine.set_timer(Some(opts.quantum));
        (sys, procs)
    };
    let (mut sys, procs) = build();
    let budget = opts.budget.unwrap_or(5_000_000);

    let exit = if let Some(path) = &opts.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let recording = match Recording::from_json(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = match multiring::cpu::replay(&mut sys.machine, &recording) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if report.ok {
            println!(
                "replay OK: {} instructions, {} cycles, bit-identical final image",
                report.instructions, report.cycles
            );
        } else {
            eprintln!(
                "replay DIVERGED: {}",
                report.mismatch.as_deref().unwrap_or("unknown")
            );
            return ExitCode::FAILURE;
        }
        RunExit::Halted
    } else if opts.record.is_some() {
        let name = if opts.file.is_empty() {
            "page-storm"
        } else {
            opts.file.as_str()
        };
        let mut rec = Recorder::start(&sys.machine, name, opts.checkpoint_every);
        let exit = multiring::cpu::run_recorded(&mut sys.machine, budget, &mut rec);
        let recording = rec.finish(&sys.machine);
        let path = opts.record.as_deref().expect("checked");
        if let Err(e) = std::fs::write(path, recording.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "recorded: {} checkpoints, {} I/O completions -> {path}",
            recording.checkpoints.len(),
            recording.io_events.len()
        );
        exit
    } else {
        sys.machine.run(budget)
    };

    let mut all_ok = exit == RunExit::Halted;
    {
        let st = sys.state();
        for p in &procs {
            let ps = &st.processes[p.pid];
            let status = match ps.aborted.as_deref() {
                Some("exit") => "exited".to_string(),
                Some(r) => {
                    // Under chaos a kill is successful confinement,
                    // not a run failure.
                    if !chaos {
                        all_ok = false;
                    }
                    format!("ABORTED ({r})")
                }
                None => {
                    all_ok = false;
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
    }
    println!(
        "exit: {exit:?}  cycles={}  instructions={}",
        sys.machine.cycles(),
        sys.machine.stats().instructions
    );
    if chaos {
        let cs = sys.chaos_stats();
        let e = sys.machine.chaos();
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
                all_ok = false;
            }
        }
        if cs.invariant_failures > 0 {
            eprintln!(
                "chaos: {} recovery-time invariant failures",
                cs.invariant_failures
            );
            all_ok = false;
        }
    }
    if let Some(path) = &opts.metrics_out {
        let snap = sys.metrics_snapshot();
        let body = if path.ends_with(".csv") {
            snap.to_csv()
        } else {
            snap.to_json()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics -> {path}");
    }
    if let Some(path) = &opts.trace_out {
        let m = &sys.machine;
        let doc = multiring::trace::perfetto::chrome_trace_json(m.spans().events(), m.cycles());
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace -> {path} (load in ui.perfetto.dev)");
    }
    if let Err(e) = write_prof_artifacts(&sys.machine, opts) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds the fault plan the chaos flags ask for, if any.
fn chaos_plan_from(opts: &Options) -> Result<Option<multiring::cpu::FaultPlan>, String> {
    if let Some(path) = &opts.chaos_plan {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let plan = multiring::cpu::FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        return Ok(Some(plan));
    }
    Ok(opts
        .chaos_seed
        .map(|seed| multiring::cpu::FaultPlan::Campaign {
            seed,
            mean_interval: opts.chaos_rate,
        }))
}

/// Writes the post-run artifacts (metrics snapshot, Perfetto trace).
fn finish(world: &World, opts: &Options) {
    let m = &world.machine;
    if let Some(path) = &opts.metrics_out {
        let snap = m.metrics_snapshot();
        let body = if path.ends_with(".csv") {
            snap.to_csv()
        } else {
            snap.to_json()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "metrics: {} crossings ({} ring changes), {} faults, sdw cache {:.0}% hit -> {path}",
            snap.crossings.iter().map(|(_, v)| v).sum::<u64>(),
            snap.ring_changes,
            snap.faults_total,
            100.0 * snap.sdw_cache.hit_ratio()
        );
    }
    if let Some(path) = &opts.trace_out {
        let doc = multiring::trace::perfetto::chrome_trace_json(m.spans().events(), m.cycles());
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        let tree = multiring::trace::build_tree(m.spans().events(), m.cycles());
        println!(
            "trace: {} spans across {} gates -> {path} (load in ui.perfetto.dev)",
            tree.spans.len(),
            multiring::trace::gate_table(&tree).len()
        );
    }
    if let Err(e) = write_prof_artifacts(m, opts) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// The profiler configuration the flags ask for: `(sample_every,
/// timeseries_every)` with 0 disabling that half, or `None` when no
/// profiler output was requested at all.
fn profiler_config(opts: &Options) -> Option<(u64, u64)> {
    if opts.profile_out.is_none() && opts.timeseries_out.is_none() {
        return None;
    }
    let sample = if opts.profile_out.is_some() {
        opts.sample_every
    } else {
        0
    };
    let ts = if opts.timeseries_out.is_some() {
        opts.timeseries_every
    } else {
        0
    };
    Some((sample, ts))
}

/// Writes the profiler artifacts (folded stacks or Perfetto counters,
/// and the time-series JSON), if requested.
fn write_prof_artifacts(
    m: &multiring::cpu::machine::Machine,
    opts: &Options,
) -> Result<(), String> {
    if let Some(path) = &opts.profile_out {
        let prof = m.profiler();
        let body = if path.ends_with(".json") {
            multiring::prof::perfetto_counters(prof, m.timeseries())
        } else {
            prof.folded()
        };
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "profile: {} samples every {} cycles, {} stacks -> {path}",
            prof.samples(),
            prof.sample_every(),
            prof.folded_entries().count()
        );
    }
    if let Some(path) = &opts.timeseries_out {
        let ts = m.timeseries();
        std::fs::write(path, ts.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "timeseries: {} points every {} cycles -> {path}",
            ts.len(),
            ts.every()
        );
    }
    Ok(())
}
