//! `ringdbg` — an interactive monitor for the ring-protection
//! simulator (a front panel with a disassembler and a flight
//! recorder).
//!
//! ```text
//! ringdbg <file.rasm> [--ring N] [--no-fastpath]
//! ringdbg [file.rasm] --procs N [--frames N] [--quantum N]
//!                     [--pages N] [--rounds N]
//! ```
//!
//! With `--procs` the debugger boots the full multiprogramming kernel
//! (see `docs/KERNEL.md`) instead of the bare world: `N` DBR-switched
//! processes run the given program — or the built-in page-storm sweep
//! when no file is named — under the preemptive scheduler and the
//! `--frames` budget, and the prompt switches to the process-aware
//! command set:
//!
//! ```text
//! s [n]            step n instructions through the whole system
//! g [n]            run until a breakpoint, halt, or n instructions
//! r                print registers (and the owning process)
//! b <pid|*> <seg> <w>   toggle a process-qualified breakpoint: hits
//!                  only when the named process is the one running
//!                  (`*` hits in any process)
//! ps               process states (running/ready/blocked/exited)
//! stats            scheduler counters
//! q                quit
//! ```
//!
//! Commands in single-process mode (also `help` at the prompt):
//!
//! ```text
//! s [n]          step n instructions (default 1), printing each
//! r              print registers
//! g [n]          run up to n instructions (default 100000)
//! rs [n]         reverse-step n instructions (default 1)
//! d <w> [n]      disassemble n words of the code segment at word w
//! m <s> <w> [n]  dump n words of segment s at word w
//! b [<seg>] <w>  toggle a breakpoint (code segment when seg omitted)
//! w <seg> <w>    toggle a data watchpoint (break when the word changes)
//! seg <s>        print segment s's descriptor
//! stats          metrics snapshot: crossings, faults, SDW cache
//! spans          per-gate cycle attribution from the span recorder
//! prof [n]       sampling profiler: the n hottest stacks (default 10)
//! trace [--json] drain the execution trace (JSON lines with --json)
//! record <file>  write the flight recording to <file> on stop/quit
//! record stop    write the flight recording now
//! replay <file>  re-run a recording and verify it bit-for-bit
//! q              quit
//! ```
//!
//! Execution tracing, the metrics recorder, the span recorder, the
//! sampling profiler (one sample per 500 simulated cycles), and the
//! deterministic flight recorder are always on in the debugger. `trace`
//! drains the drop-oldest ring buffer (sequence numbers show how many
//! earlier events were discarded; with `--json` a `{"dropped": n}`
//! header record is emitted first whenever events were lost). `rs`
//! works by restoring the nearest flight-recorder checkpoint at or
//! before the target instruction and re-executing forward — the
//! simulator is deterministic, so the machine lands exactly where it
//! was.

use std::io::{BufRead, Write as _};
use std::process::ExitCode;

use multiring::asm::disassemble_word;
use multiring::core::addr::SegNo;
use multiring::core::ring::Ring;
use multiring::core::sdw::SdwBuilder;
use multiring::cpu::machine::StepOutcome;
use multiring::cpu::native::NativeAction;
use multiring::cpu::testkit::World;
use multiring::cpu::{seek, Recorder, TraceEvent, DEFAULT_CHECKPOINT_EVERY};
use multiring::metrics::json_escape;
use multiring::trace::Recording;

const CODE_SEG: u32 = 10;

/// One trace event as a JSON object (for `trace --json`).
fn trace_event_json(seq: u64, ev: &TraceEvent) -> String {
    let body = match ev {
        TraceEvent::Instr { at, instr } => format!(
            "\"kind\": \"instr\", \"ring\": {}, \"segno\": {}, \"wordno\": {}, \
             \"mnemonic\": \"{}\", \"offset\": {}",
            at.ring.number(),
            at.addr.segno.value(),
            at.addr.wordno.value(),
            instr.opcode.mnemonic(),
            instr.offset
        ),
        TraceEvent::Call { from, to, new_ring } => format!(
            "\"kind\": \"call\", \"from_ring\": {}, \"to_ring\": {}, \
             \"target_segno\": {}, \"target_wordno\": {}",
            from.ring.number(),
            new_ring.number(),
            to.segno.value(),
            to.wordno.value()
        ),
        TraceEvent::Return { from, to, new_ring } => format!(
            "\"kind\": \"return\", \"from_ring\": {}, \"to_ring\": {}, \
             \"target_segno\": {}, \"target_wordno\": {}",
            from.ring.number(),
            new_ring.number(),
            to.segno.value(),
            to.wordno.value()
        ),
        TraceEvent::Trap { fault } => format!(
            "\"kind\": \"trap\", \"vector\": {}, \"fault\": \"{}\"",
            fault.vector(),
            json_escape(&fault.to_string())
        ),
        TraceEvent::Native { segno, entry } => format!(
            "\"kind\": \"native\", \"segno\": {}, \"entry\": {}",
            segno.value(),
            entry.value()
        ),
    };
    format!("{{\"seq\": {seq}, {body}}}")
}

fn print_regs(w: &World) {
    let m = &w.machine;
    println!(
        "IPR ring {} at {}   A={:0>12o} Q={:0>12o}",
        m.ring(),
        m.ipr().addr,
        m.a().raw(),
        m.q().raw()
    );
    for n in 0..8 {
        let pr = m.pr(n);
        print!("PR{n}={}^{} ", pr.addr, pr.ring);
        if n == 3 {
            println!();
        }
    }
    println!();
    print!("X: ");
    for n in 0..8 {
        print!("{} ", m.xreg(n));
    }
    println!("  cycles={} instrs={}", m.cycles(), m.stats().instructions);
}

fn print_instr_at(w: &World) {
    let ipr = w.machine.ipr();
    if ipr.addr.segno.value() == CODE_SEG {
        let word = w.peek(ipr.addr.segno, ipr.addr.wordno.value());
        println!(
            "  next: {}|{}: {}",
            ipr.addr.segno,
            ipr.addr.wordno,
            disassemble_word(word)
        );
    }
}

/// The always-on flight recorder behind `record`/`replay`/`rs`.
struct Flight {
    rec: Recorder,
    /// Where `record stop`/quit writes the recording, once `record
    /// <file>` names a destination.
    path: Option<String>,
    /// Cycle high-water mark of recorded execution. Re-execution after
    /// a reverse-step walks through already-recorded territory; only
    /// steps beyond this mark feed the recorder, so checkpoints and
    /// I/O events are never duplicated.
    hw_cycles: u64,
}

impl Flight {
    fn start(world: &World) -> Flight {
        Flight {
            rec: Recorder::start(&world.machine, "ringdbg", DEFAULT_CHECKPOINT_EVERY),
            path: None,
            hw_cycles: world.machine.cycles(),
        }
    }

    fn note_step(&mut self, world: &World, outcome: &StepOutcome) {
        if world.machine.cycles() > self.hw_cycles {
            self.rec.after_step(&world.machine, outcome);
            self.hw_cycles = world.machine.cycles();
        }
    }

    fn write_if_named(&self, world: &World) {
        if let Some(path) = &self.path {
            let recording = self.rec.snapshot(&world.machine);
            match std::fs::write(path, recording.to_json()) {
                Ok(()) => println!(
                    "  wrote recording ({} checkpoints, {} I/O completions) to {path}",
                    recording.checkpoints.len(),
                    recording.io_events.len()
                ),
                Err(e) => println!("  cannot write {path}: {e}"),
            }
        }
    }
}

/// A data watchpoint: break when `segno|wordno` changes value.
struct Watchpoint {
    segno: u32,
    wordno: u32,
    last: u64,
}

/// Checks every watchpoint against current memory; reports and
/// rebaselines the first that changed.
fn watch_hit(world: &World, watchpoints: &mut [Watchpoint]) -> bool {
    for wp in watchpoints.iter_mut() {
        let seg = SegNo::new(wp.segno).expect("validated on creation");
        let now = world.peek(seg, wp.wordno).raw();
        if now != wp.last {
            println!(
                "  watchpoint {}|{}: {:o} -> {:o}",
                wp.segno, wp.wordno, wp.last, now
            );
            wp.last = now;
            return true;
        }
    }
    false
}

/// Re-reads every watchpoint's baseline (after a reverse-step or
/// replay repositions the machine).
fn rebaseline(world: &World, watchpoints: &mut [Watchpoint]) {
    for wp in watchpoints.iter_mut() {
        let seg = SegNo::new(wp.segno).expect("validated on creation");
        wp.last = world.peek(seg, wp.wordno).raw();
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut file = String::new();
    let mut ring = Ring::R4;
    let mut fastpath = true;
    let mut procs = 0usize;
    let mut frames = 16u32;
    let mut quantum = 400u64;
    let mut pages = 5u32;
    let mut rounds = 30u32;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ring" => {
                ring = match args
                    .next()
                    .and_then(|n| n.parse::<u8>().ok())
                    .and_then(Ring::new)
                {
                    Some(r) => r,
                    None => {
                        eprintln!("--ring takes 0..=7");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--no-fastpath" => fastpath = false,
            "--procs" => {
                procs = match args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                    Some(n) => n,
                    None => {
                        eprintln!("--procs takes a process count >= 1");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--frames" => {
                frames = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--frames takes a frame count (0 = unlimited)");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--quantum" => {
                quantum = match args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                    Some(n) => n,
                    None => {
                        eprintln!("--quantum takes a cycle count >= 1");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--pages" => {
                pages = match args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                    Some(n) => n,
                    None => {
                        eprintln!("--pages takes a page count >= 1");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--rounds" => {
                rounds = match args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                    Some(n) => n,
                    None => {
                        eprintln!("--rounds takes a round count >= 1");
                        return ExitCode::FAILURE;
                    }
                };
            }
            f if !f.starts_with('-') && file.is_empty() => file = f.to_string(),
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    if procs > 0 {
        return debug_multiproc(&file, procs, frames, quantum, pages, rounds, fastpath);
    }
    if file.is_empty() {
        eprintln!(
            "usage: ringdbg <file.rasm> [--ring N] [--no-fastpath] | ringdbg [file.rasm] \
             --procs N [--frames N] [--quantum N] [--pages N] [--rounds N]"
        );
        return ExitCode::FAILURE;
    }
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let image = match multiring::asm::assemble(&source) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut world = World::with_config(multiring::cpu::machine::MachineConfig {
        fastpath,
        ..multiring::cpu::machine::MachineConfig::default()
    });
    let code = world.add_segment(
        CODE_SEG,
        SdwBuilder::procedure(ring, ring, Ring::R7)
            .gates(4)
            .bound_words(image.len().max(16)),
    );
    world.add_segment(11, SdwBuilder::data(ring, ring).bound_words(1024));
    world.add_standard_stacks(16);
    let trap = world.add_trap_segment();
    world.machine.register_native(trap, |m, vector| {
        if let Some(f) = m.last_fault() {
            println!("  ** trap (vector {}): {f}", vector.value());
        }
        Ok(NativeAction::Halt)
    });
    for (i, w) in image.words.iter().enumerate() {
        world.poke(code, i as u32, *w);
    }
    world.start(ring, code, 0);
    world.machine.enable_trace(4096);
    world.machine.enable_metrics();
    world.machine.enable_spans();
    world.machine.enable_profiler(500, 5_000);
    let mut flight = Flight::start(&world);
    println!(
        "loaded {} words into segment {CODE_SEG}; ring {ring}",
        image.len()
    );
    print_instr_at(&world);

    let mut breakpoints: Vec<(u32, u32)> = Vec::new();
    let mut watchpoints: Vec<Watchpoint> = Vec::new();
    let stdin = std::io::stdin();
    loop {
        print!("ringdbg> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => {}
            ["q"] | ["quit"] => break,
            ["help"] | ["h"] => {
                println!("s [n] step | r regs | g [n] run | rs [n] reverse-step");
                println!("d <w> [n] disasm | m <s> <w> [n] memory | seg <s> descriptor");
                println!("b [<seg>] <w> breakpoint | w <seg> <w> data watchpoint | q quit");
                println!("stats metrics snapshot | spans per-gate cycle attribution");
                println!("prof [n] sampling-profiler hot stacks (cycle-driven)");
                println!("trace [--json] drain execution trace");
                println!("record <file>|stop flight recording | replay <file> verify a recording");
            }
            ["r"] => print_regs(&world),
            ["s", rest @ ..] => {
                let n: u64 = rest.first().and_then(|v| v.parse().ok()).unwrap_or(1);
                for _ in 0..n {
                    let outcome = world.machine.step();
                    flight.note_step(&world, &outcome);
                    match outcome {
                        StepOutcome::Ran => {}
                        StepOutcome::Trapped(f) => println!("  trapped: {f}"),
                        StepOutcome::Halted => {
                            println!("  halted");
                            break;
                        }
                    }
                    print_instr_at(&world);
                    if watch_hit(&world, &mut watchpoints) {
                        break;
                    }
                }
            }
            ["g", rest @ ..] => {
                let n: u64 = rest.first().and_then(|v| v.parse().ok()).unwrap_or(100_000);
                let mut ran = 0;
                for _ in 0..n {
                    let at = world.machine.ipr().addr;
                    if breakpoints.contains(&(at.segno.value(), at.wordno.value())) {
                        println!("  breakpoint at {at}");
                        break;
                    }
                    let outcome = world.machine.step();
                    flight.note_step(&world, &outcome);
                    match outcome {
                        StepOutcome::Ran | StepOutcome::Trapped(_) => ran += 1,
                        StepOutcome::Halted => {
                            println!("  halted after {ran} instructions");
                            break;
                        }
                    }
                    if watch_hit(&world, &mut watchpoints) {
                        break;
                    }
                }
                print_instr_at(&world);
            }
            ["rs", rest @ ..] => {
                let n: u64 = rest.first().and_then(|v| v.parse().ok()).unwrap_or(1);
                let cur = world.machine.stats().instructions;
                if cur == 0 {
                    println!("  already at the beginning");
                    continue;
                }
                let target = cur.saturating_sub(n);
                match seek(&mut world.machine, flight.rec.recording(), target) {
                    Ok(()) => {
                        rebaseline(&world, &mut watchpoints);
                        println!(
                            "  reverse-stepped to instruction {} (cycles={})",
                            world.machine.stats().instructions,
                            world.machine.cycles()
                        );
                        print_instr_at(&world);
                    }
                    Err(e) => println!("  reverse-step failed: {e}"),
                }
            }
            ["d", at, rest @ ..] => {
                let at: u32 = at.parse().unwrap_or(0);
                let n: u32 = rest.first().and_then(|v| v.parse().ok()).unwrap_or(8);
                for i in at..(at + n).min(image.len().max(at + n)) {
                    let w = world.peek(code, i);
                    println!("{i:6}  {:0>12o}  {}", w.raw(), disassemble_word(w));
                }
            }
            ["m", s, at, rest @ ..] => {
                let (Ok(s), Ok(at)) = (s.parse::<u32>(), at.parse::<u32>()) else {
                    println!("  m <segno> <wordno> [n]");
                    continue;
                };
                let n: u32 = rest.first().and_then(|v| v.parse().ok()).unwrap_or(8);
                match SegNo::new(s) {
                    Some(seg) => {
                        for i in at..at + n {
                            let w = world.peek(seg, i);
                            println!("{s}|{i:<6}  {:0>12o}", w.raw());
                        }
                    }
                    None => println!("  bad segment number"),
                }
            }
            ["seg", n] => match n.parse::<u32>() {
                Ok(n) if n < 64 => {
                    let sdw = world.read_sdw(n);
                    println!("  segment {n}: {sdw}");
                }
                _ => println!("  seg <segno 0..63>"),
            },
            ["stats"] => {
                let snap = world.machine.metrics_snapshot();
                println!(
                    "  {} instructions, {} cycles",
                    snap.instructions, snap.cycles
                );
                let crossings: Vec<String> = snap
                    .crossings
                    .iter()
                    .filter(|(_, v)| *v > 0)
                    .map(|(k, v)| format!("{v} {k}"))
                    .collect();
                println!(
                    "  crossings: {} ({} ring changes)",
                    if crossings.is_empty() {
                        "none recorded".to_string()
                    } else {
                        crossings.join(", ")
                    },
                    snap.ring_changes
                );
                println!("  faults: {}", snap.faults_total);
                let cs = snap.sdw_cache;
                println!(
                    "  sdw cache: {} hits, {} misses ({:.1}% hit)",
                    cs.hits,
                    cs.misses,
                    100.0 * cs.hit_ratio()
                );
                if snap.call_cycles.count > 0 {
                    println!(
                        "  call path: {} calls, {:.1} cycles mean (min {}, max {})",
                        snap.call_cycles.count,
                        snap.call_cycles.mean,
                        snap.call_cycles.min,
                        snap.call_cycles.max
                    );
                }
                if snap.return_cycles.count > 0 {
                    println!(
                        "  return path: {} returns, {:.1} cycles mean (min {}, max {})",
                        snap.return_cycles.count,
                        snap.return_cycles.mean,
                        snap.return_cycles.min,
                        snap.return_cycles.max
                    );
                }
            }
            ["prof", rest @ ..] => {
                // The deterministic sampling profiler, live: one sample
                // per 500 simulated cycles, attributed to ring, segment
                // and the innermost open span.
                let prof = world.machine.profiler();
                if prof.samples() == 0 {
                    println!("  (no samples yet — step or run past cycle 500 first)");
                    continue;
                }
                let limit: usize = rest.first().and_then(|v| v.parse().ok()).unwrap_or(10);
                let total = prof.samples();
                println!(
                    "  {total} samples, one per {} simulated cycles",
                    prof.sample_every()
                );
                let mut entries: Vec<(&str, u64)> = prof.folded_entries().collect();
                entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                for (stack, n) in entries.into_iter().take(limit) {
                    println!(
                        "  {n:>7} {:>5.1}%  {stack}",
                        100.0 * n as f64 / total as f64
                    );
                }
            }
            ["spans"] => {
                let m = &world.machine;
                let tree = multiring::trace::build_tree(m.spans().events(), m.cycles());
                let table = multiring::trace::gate_table(&tree);
                if table.is_empty() {
                    println!("  (no cross-ring spans yet — run a gate call first)");
                }
                for g in &table {
                    println!(
                        "  {} {:>4} {:>5} calls  {:>8} total cycles  {:>8} self",
                        g.kind, g.key, g.calls, g.total_cycles, g.self_cycles
                    );
                }
                if tree.unmatched_closes > 0 {
                    println!("  ({} unmatched closes)", tree.unmatched_closes);
                }
            }
            ["trace", rest @ ..] => {
                let dropped = world.machine.trace_dropped();
                let events = world.machine.take_trace_seq();
                let as_json = rest.first() == Some(&"--json");
                if dropped > 0 {
                    if as_json {
                        println!("{{\"dropped\": {dropped}}}");
                    } else {
                        println!("  ({dropped} earlier events dropped by the ring buffer)");
                    }
                }
                if events.is_empty() && !as_json {
                    println!("  (trace empty — step or run first)");
                }
                for (seq, ev) in &events {
                    if as_json {
                        println!("{}", trace_event_json(*seq, ev));
                    } else {
                        println!("{seq:>6}  {ev}");
                    }
                }
            }
            ["record", "stop"] => {
                if flight.path.is_some() {
                    flight.write_if_named(&world);
                    flight.path = None;
                } else {
                    println!("  not recording to a file (use record <file> first)");
                }
            }
            ["record", path] => {
                flight.path = Some((*path).to_string());
                println!("  recording to {path} (written on `record stop` or quit)");
            }
            ["replay", path] => {
                let recording = match std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|t| Recording::from_json(&t))
                {
                    Ok(r) => r,
                    Err(e) => {
                        println!("  cannot load {path}: {e}");
                        continue;
                    }
                };
                match multiring::cpu::replay(&mut world.machine, &recording) {
                    Ok(report) if report.ok => println!(
                        "  replay OK: {} instructions, {} cycles, bit-identical final image",
                        report.instructions, report.cycles
                    ),
                    Ok(report) => println!(
                        "  replay DIVERGED: {}",
                        report.mismatch.as_deref().unwrap_or("unknown")
                    ),
                    Err(e) => println!("  replay failed: {e}"),
                }
                // The machine now sits at the recording's end; restart
                // the flight recorder so `rs` is relative to it.
                flight = Flight::start(&world);
                rebaseline(&world, &mut watchpoints);
                print_instr_at(&world);
            }
            ["b", at] => {
                let at: u32 = at.parse().unwrap_or(0);
                toggle_breakpoint(&mut breakpoints, CODE_SEG, at);
            }
            ["b", seg, at] => {
                let (Ok(seg), Ok(at)) = (seg.parse::<u32>(), at.parse::<u32>()) else {
                    println!("  b [<seg>] <wordno>");
                    continue;
                };
                if SegNo::new(seg).is_none() {
                    println!("  bad segment number");
                    continue;
                }
                toggle_breakpoint(&mut breakpoints, seg, at);
            }
            ["w", seg, at] => {
                let (Ok(seg), Ok(at)) = (seg.parse::<u32>(), at.parse::<u32>()) else {
                    println!("  w <segno> <wordno>");
                    continue;
                };
                let Some(segno) = SegNo::new(seg) else {
                    println!("  bad segment number");
                    continue;
                };
                if let Some(pos) = watchpoints
                    .iter()
                    .position(|wp| wp.segno == seg && wp.wordno == at)
                {
                    watchpoints.remove(pos);
                    println!("  cleared watchpoint at {seg}|{at}");
                } else {
                    let last = world.peek(segno, at).raw();
                    watchpoints.push(Watchpoint {
                        segno: seg,
                        wordno: at,
                        last,
                    });
                    println!("  set watchpoint at {seg}|{at} (current value {last:o})");
                }
            }
            other => println!("  unknown command {other:?} (try help)"),
        }
    }
    flight.write_if_named(&world);
    ExitCode::SUCCESS
}

/// The `--procs` debugger: steps the whole multiprogramming kernel and
/// understands which process the processor is executing for, so
/// breakpoints can be qualified by pid (the same virtual address means
/// a different word in every address space).
fn debug_multiproc(
    file: &str,
    procs: usize,
    frames: u32,
    quantum: u64,
    pages: u32,
    rounds: u32,
    fastpath: bool,
) -> ExitCode {
    use multiring::os::workload::{install_page_storm, install_storm_program, StormSpec};
    use multiring::os::{System, SystemConfig};

    let spec = StormSpec {
        procs,
        pages,
        rounds,
    };
    let cfg = SystemConfig {
        quantum,
        frame_budget: (frames > 0).then_some(frames),
        fastpath,
        ..SystemConfig::default()
    };
    let mut sys = System::boot_with(cfg);
    let installed = if file.is_empty() {
        install_page_storm(&mut sys, &spec)
    } else {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = multiring::asm::assemble(&source) {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
        install_storm_program(&mut sys, &spec, &source)
    };
    sys.machine.set_timer(Some(quantum));
    println!(
        "kernel world: {} processes (code segment {}, paged data segment {}), \
         {} frames, quantum {quantum}",
        installed.len(),
        installed[0].code_segno,
        installed[0].data_segno,
        frames
    );

    // (pid filter, segno, wordno); `None` pid hits in every process.
    let mut breakpoints: Vec<(Option<usize>, u32, u32)> = Vec::new();
    let print_where = |sys: &System| {
        let ipr = sys.machine.ipr();
        let pid = sys.state().current;
        let mut line = format!(
            "  proc {pid} at {}|{} ring {}",
            ipr.addr.segno,
            ipr.addr.wordno,
            sys.machine.ring()
        );
        let sdw = sys.read_sdw(pid, ipr.addr.segno.value());
        if sdw.present && sdw.unpaged {
            if let Ok(w) = sys
                .machine
                .phys()
                .peek(sdw.addr.wrapping_add(ipr.addr.wordno.value()))
            {
                line.push_str(&format!(": {}", disassemble_word(w)));
            }
        }
        println!("{line}");
    };
    let bp_hit = |sys: &System, bps: &[(Option<usize>, u32, u32)]| -> bool {
        let at = sys.machine.ipr().addr;
        let pid = sys.state().current;
        bps.iter().any(|&(p, s, w)| {
            p.is_none_or(|p| p == pid) && s == at.segno.value() && w == at.wordno.value()
        })
    };
    print_where(&sys);

    let stdin = std::io::stdin();
    loop {
        print!("ringdbg> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => {}
            ["q"] | ["quit"] => break,
            ["help"] | ["h"] => {
                println!("s [n] step | g [n] run | r regs | ps processes | stats scheduler");
                println!("b <pid|*> <seg> <w>  toggle process-qualified breakpoint | q quit");
            }
            ["r"] => {
                let m = &sys.machine;
                let pid = sys.state().current;
                println!(
                    "  proc {pid}  IPR ring {} at {}   A={:0>12o} Q={:0>12o}  cycles={} instrs={}",
                    m.ring(),
                    m.ipr().addr,
                    m.a().raw(),
                    m.q().raw(),
                    m.cycles(),
                    m.stats().instructions
                );
            }
            ["s", rest @ ..] => {
                let n: u64 = rest.first().and_then(|v| v.parse().ok()).unwrap_or(1);
                for _ in 0..n {
                    match sys.machine.step() {
                        StepOutcome::Ran => {}
                        StepOutcome::Trapped(f) => println!("  trapped: {f}"),
                        StepOutcome::Halted => {
                            println!("  halted (all processes done or blocked forever)");
                            break;
                        }
                    }
                }
                print_where(&sys);
            }
            ["g", rest @ ..] => {
                let n: u64 = rest
                    .first()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1_000_000);
                let mut ran = 0u64;
                for _ in 0..n {
                    if bp_hit(&sys, &breakpoints) {
                        println!(
                            "  breakpoint in proc {} after {ran} instructions",
                            sys.state().current
                        );
                        break;
                    }
                    match sys.machine.step() {
                        StepOutcome::Ran | StepOutcome::Trapped(_) => ran += 1,
                        StepOutcome::Halted => {
                            println!("  halted after {ran} instructions");
                            break;
                        }
                    }
                }
                print_where(&sys);
            }
            ["b", pid, seg, at] => {
                let pid_filter = if *pid == "*" {
                    None
                } else {
                    match pid.parse::<usize>() {
                        Ok(p) if p < procs => Some(p),
                        _ => {
                            println!("  b <pid|*> <seg> <w> (pid < {procs})");
                            continue;
                        }
                    }
                };
                let (Ok(seg), Ok(at)) = (seg.parse::<u32>(), at.parse::<u32>()) else {
                    println!("  b <pid|*> <seg> <w>");
                    continue;
                };
                let key = (pid_filter, seg, at);
                let who = pid_filter.map_or("any process".to_string(), |p| format!("proc {p}"));
                if let Some(pos) = breakpoints.iter().position(|&b| b == key) {
                    breakpoints.remove(pos);
                    println!("  cleared breakpoint at {seg}|{at} ({who})");
                } else {
                    breakpoints.push(key);
                    println!("  set breakpoint at {seg}|{at} ({who})");
                }
            }
            ["ps"] => {
                let st = sys.state();
                for (i, p) in st.processes.iter().enumerate() {
                    let state = if let Some(reason) = p.aborted.as_deref() {
                        if reason == "exit" {
                            "exited".to_string()
                        } else {
                            format!("aborted ({reason})")
                        }
                    } else if let Some(reason) = st.sched.blocked_reason(i) {
                        format!("blocked ({reason})")
                    } else if st.sched.is_ready(i) {
                        "ready".to_string()
                    } else if st.current == i {
                        "running".to_string()
                    } else {
                        "idle".to_string()
                    };
                    println!(
                        "  {i}: {} state={state} faults={} preempts={}",
                        p.user, p.page_faults, p.preemptions
                    );
                }
            }
            ["stats"] => {
                let sc = sys.state().sched.stats;
                println!(
                    "  {} context switches ({} preemptions), {} minor + {} major page \
                     faults, {} evictions, {} io blocks, {} idle cycles",
                    sc.context_switches,
                    sc.preemptions,
                    sc.page_faults_minor,
                    sc.page_faults_major,
                    sc.evictions,
                    sc.io_blocks,
                    sc.idle_cycles
                );
            }
            other => println!("  unknown command {other:?} (try help)"),
        }
    }
    ExitCode::SUCCESS
}

fn toggle_breakpoint(breakpoints: &mut Vec<(u32, u32)>, seg: u32, at: u32) {
    if let Some(pos) = breakpoints.iter().position(|&b| b == (seg, at)) {
        breakpoints.remove(pos);
        println!("  cleared breakpoint at {seg}|{at}");
    } else {
        breakpoints.push((seg, at));
        println!("  set breakpoint at {seg}|{at}");
    }
}
