//! `ringsh` — an interactive shell over the booted system: create
//! users and stored segments, stage and run ring-4 programs, watch the
//! supervisor work.
//!
//! ```text
//! $ cargo run --bin ringsh [-- --no-fastpath]
//! ring> login alice
//! ring> create udd>alice>notes 1 2 3 4
//! ring> asm examples/asm/fibonacci.rasm
//! ring> run 64
//! ring> stats
//! ```
//!
//! Commands (also `help` at the prompt):
//!
//! ```text
//! login <user>             create a process for <user> and switch to it
//! create <path> [w...]     create a stored segment (user gets RW at ring 4)
//! share <path> <user> <r|rw|re>   add an ACL entry for another user
//! asm <file.rasm>          assemble a file into the current process
//! run <segno> [entry]      run the current process from segno|entry
//! cat <path>               print a stored segment's first words
//! ps                       list processes with scheduler state
//!                          (running/ready/blocked-with-reason/exited)
//! storm [n] [pages] [rounds] [frames]
//!                          run an n-process demand-paging storm under
//!                          the preemptive scheduler (see docs/KERNEL.md)
//! chaos <seed> [rate] [n]  run the paging storm under a seeded
//!                          fault-injection campaign (mean one fault
//!                          per [rate] cycles, default 5000) and report
//!                          what the supervisor recovered, killed or
//!                          degraded (see docs/RELIABILITY.md)
//! stats                    supervisor + machine statistics; every
//!                          populated section prints — scheduler
//!                          counters, ring crossings, SDW cache, chaos
//!                          recovery, profiler — whichever mode filled it
//! top [n]                  `top`-style profiler view: sample counts by
//!                          ring and the n hottest stacks (default 10)
//! heatmap                  per-segment access counts (R/W/E/violations)
//! metrics [file]           dump the full JSON snapshot (to a file, or
//!                          the terminal)
//! tty                      show what the typewriter has printed
//! audit                    show the audit subsystem log
//! quit
//! ```

use std::io::{BufRead, Write as _};
use std::process::ExitCode;

use multiring::core::ring::Ring;
use multiring::core::word::Word;
use multiring::os::acl::{Acl, AclEntry, Modes};
use multiring::os::System;

struct Shell {
    sys: System,
    current: Option<usize>,
}

impl Shell {
    fn need_login(&self) -> Option<usize> {
        if self.current.is_none() {
            println!("  no process: `login <user>` first");
        }
        self.current
    }

    fn cmd(&mut self, parts: &[&str]) -> bool {
        match parts {
            [] => {}
            ["quit"] | ["q"] | ["exit"] => return false,
            ["help"] | ["h"] => {
                println!("login <user> | create <path> [words...] | share <path> <user> <r|rw|re>");
                println!("asm <file> | run <segno> [entry] | cat <path> | ps | logout | stats | top [n] | heatmap | metrics [file] | tty | audit | quit");
                println!(
                    "storm [procs] [pages] [rounds] [frames]   run a multiprogramming page storm"
                );
                println!(
                    "chaos <seed> [rate] [procs]               page storm under fault injection"
                );
            }
            ["login", user] => {
                let pid = self.sys.login(user);
                // A scratch data segment at segno 11, matching the
                // convention the shipped .rasm samples use.
                let base = self.sys.alloc_mut().alloc(1024).expect("scratch storage");
                let sdw = multiring::core::sdw::SdwBuilder::data(Ring::R4, Ring::R4)
                    .addr(base)
                    .bound_words(1024)
                    .build();
                self.sys.install_sdw(pid, 11, &sdw);
                self.current = Some(pid);
                println!("  {user} is process {pid} (now current; scratch data at segment 11)");
            }
            ["create", path, words @ ..] => {
                let Some(pid) = self.need_login() else {
                    return true;
                };
                let user = self.sys.state().processes[pid].user.clone();
                let acl = Acl::single(
                    AclEntry::new(&user, Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0)
                        .expect("rings ordered"),
                );
                let data: Vec<Word> = words
                    .iter()
                    .map(|w| Word::new(w.parse::<u64>().unwrap_or(0)))
                    .collect();
                match self.sys.state_mut().fs.create_segment(path, acl, data) {
                    Ok(id) => println!("  created {path} (stored id {})", id.0),
                    Err(e) => println!("  {e}"),
                }
            }
            ["share", path, user, modes] => {
                let Some(_) = self.need_login() else {
                    return true;
                };
                let m = match *modes {
                    "r" => Modes::R,
                    "rw" => Modes::RW,
                    "re" => Modes::RE,
                    other => {
                        println!("  unknown mode `{other}` (r|rw|re)");
                        return true;
                    }
                };
                let entry = AclEntry::new(user, m, (Ring::R4, Ring::R4, Ring::R4), 0)
                    .expect("rings ordered");
                let st = self.sys.state_mut();
                match st.fs.resolve(path) {
                    Ok(id) => match st.fs.segment_mut(id).acl.set(entry, Ring::R4) {
                        Ok(()) => println!("  {user} now has {modes} on {path}"),
                        Err(e) => println!("  refused: {e}"),
                    },
                    Err(e) => println!("  {e}"),
                }
            }
            ["asm", file] => {
                let Some(pid) = self.need_login() else {
                    return true;
                };
                match std::fs::read_to_string(file) {
                    Ok(src) => {
                        // Give programs a scratch data segment first so
                        // `its 4, <data>, ...` conventions can use it.
                        let staged = self.sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
                        println!("  staged at segment {} (labels: {})", staged.segno, {
                            let mut names: Vec<&str> =
                                staged.symbols.keys().map(|s| s.as_str()).collect();
                            names.sort_unstable();
                            names.join(", ")
                        });
                    }
                    Err(e) => println!("  cannot read {file}: {e}"),
                }
            }
            ["run", segno, rest @ ..] => {
                let Some(pid) = self.need_login() else {
                    return true;
                };
                let Ok(segno) = segno.parse::<u32>() else {
                    println!("  run <segno> [entry]");
                    return true;
                };
                let entry: u32 = rest.first().and_then(|v| v.parse().ok()).unwrap_or(0);
                // A fresh run clears a previous exit.
                self.sys.state_mut().processes[pid].aborted = None;
                let exit = self.sys.run_user(pid, segno, entry, Ring::R4, 200_000);
                let m = &self.sys.machine;
                println!(
                    "  {exit:?}: A={:o} Q={:o} cycles={}",
                    m.a().raw(),
                    m.q().raw(),
                    m.cycles()
                );
                if let Some(reason) = &self.sys.state().processes[pid].aborted {
                    if reason != "exit" {
                        println!("  process stopped: {reason}");
                    }
                }
            }
            ["cat", path] => {
                let st = self.sys.state_mut();
                match st.fs.resolve(path) {
                    Ok(id) => {
                        let seg = st.fs.segment(id);
                        let words: Vec<String> = seg
                            .data
                            .iter()
                            .take(8)
                            .map(|w| format!("{:o}", w.raw()))
                            .collect();
                        println!(
                            "  {} words; first: {} {}",
                            seg.data.len(),
                            words.join(" "),
                            if seg.image.is_some() {
                                "(in memory)"
                            } else {
                                ""
                            }
                        );
                    }
                    Err(e) => println!("  {e}"),
                }
            }
            ["logout"] => {
                if let Some(pid) = self.current {
                    self.sys.logout(pid);
                    self.current = None;
                    println!("  process {pid} logged out");
                } else {
                    println!("  no current process");
                }
            }
            ["ps"] => {
                let st = self.sys.state();
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
                        "  {i}: {} segs={} state={state} faults={} preempts={}{}",
                        p.user,
                        p.kst.len(),
                        p.page_faults,
                        p.preemptions,
                        if Some(i) == self.current {
                            "  *current*"
                        } else {
                            ""
                        }
                    );
                }
                if st.processes.is_empty() {
                    println!("  (no processes)");
                }
            }
            ["storm", rest @ ..] => {
                // A canned multiprogramming demonstration: N processes
                // sweeping private paged segments under a frame budget.
                let procs: usize = rest.first().and_then(|v| v.parse().ok()).unwrap_or(4);
                let pages: u32 = rest.get(1).and_then(|v| v.parse().ok()).unwrap_or(5);
                let rounds: u32 = rest.get(2).and_then(|v| v.parse().ok()).unwrap_or(10);
                let frames: u32 = rest.get(3).and_then(|v| v.parse().ok()).unwrap_or(16);
                if procs == 0 || u64::from(pages) * 1024 <= 4096 {
                    println!(
                        "  storm [procs>=1] [pages>=5] [rounds] [frames] (segments must page)"
                    );
                    return true;
                }
                {
                    // First storm decides the frame budget; later ones
                    // keep the pool (frames may already hold pages).
                    let st = self.sys.state_mut();
                    if st.frames.is_none() && frames > 0 {
                        st.frames = Some(multiring::segmem::FramePool::new(frames));
                    }
                }
                let spec = multiring::os::workload::StormSpec {
                    procs,
                    pages,
                    rounds,
                };
                let installed = multiring::os::workload::install_page_storm(&mut self.sys, &spec);
                let quantum = self.sys.state().quantum;
                self.sys.machine.set_timer(Some(quantum));
                let exit = self.sys.machine.run(5_000_000);
                println!(
                    "  {exit:?} after {} cycles; {} storm processes (see ps / stats)",
                    self.sys.machine.cycles(),
                    installed.len()
                );
                self.current = Some(installed[0].pid);
            }
            ["chaos", rest @ ..] => {
                // The paging storm again, but under a seeded fault
                // campaign: the supervisor must recover, confine or
                // degrade around every injection.
                let Some(seed) = rest.first().and_then(|v| v.parse::<u64>().ok()) else {
                    println!("  chaos <seed> [rate-cycles] [procs]");
                    return true;
                };
                let rate: u64 = rest.get(1).and_then(|v| v.parse().ok()).unwrap_or(5_000);
                let procs: usize = rest.get(2).and_then(|v| v.parse().ok()).unwrap_or(3);
                if rate == 0 || procs == 0 {
                    println!("  chaos <seed> [rate-cycles>=1] [procs>=1]");
                    return true;
                }
                {
                    let st = self.sys.state_mut();
                    if st.frames.is_none() {
                        st.frames = Some(multiring::segmem::FramePool::new(16));
                    }
                }
                self.sys.enable_chaos(multiring::cpu::FaultPlan::Campaign {
                    seed,
                    mean_interval: rate,
                });
                let spec = multiring::os::workload::StormSpec {
                    procs,
                    pages: 5,
                    rounds: 10,
                };
                let installed = multiring::os::workload::install_page_storm(&mut self.sys, &spec);
                let quantum = self.sys.state().quantum;
                self.sys.machine.set_timer(Some(quantum));
                let exit = self.sys.machine.run(5_000_000);
                let cs = self.sys.chaos_stats();
                let e = self.sys.machine.chaos();
                println!(
                    "  {exit:?} after {} cycles; {} injected, {} detected, {} recovered, \
                     {} killed, {} salvaged, {} refetched, {} drum retries, {} io timeouts",
                    self.sys.machine.cycles(),
                    e.injected_total(),
                    e.detected_total(),
                    cs.recovered,
                    cs.killed,
                    cs.salvaged,
                    cs.refetched,
                    cs.drum_retries,
                    cs.io_timeouts
                );
                println!(
                    "  degraded: {} segment(s), global={}",
                    e.degraded_segs().len(),
                    e.degraded_global()
                );
                match self.sys.check_invariants() {
                    Ok(()) => println!("  invariants OK"),
                    Err(msg) => println!("  INVARIANT VIOLATION: {msg}"),
                }
                self.current = Some(installed[0].pid);
            }
            ["stats"] => {
                // Every section prints under the same rule — whenever
                // it has recorded anything — regardless of which mode
                // (run / storm / chaos) populated it.
                let s = self.sys.stats();
                let m = self.sys.machine.stats();
                println!(
                    "  machine: {} instrs, {} cycles, {} traps ({} down-calls, {} up-returns in hardware)",
                    m.instructions,
                    self.sys.machine.cycles(),
                    m.traps,
                    m.calls_downward,
                    m.returns_upward
                );
                println!(
                    "  supervisor: {} hcs calls, {} ring-1 calls, {} seg faults, {} page faults, {} schedules, {} acl denials",
                    s.gate_calls_hcs, s.gate_calls_ring1, s.segment_faults, s.page_faults, s.schedules, s.acl_denials
                );
                let snap = self.sys.metrics_snapshot();
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
                let sc = self.sys.state().sched.stats;
                if sc.context_switches > 0
                    || sc.page_faults_minor > 0
                    || sc.page_faults_major > 0
                    || sc.idle_cycles > 0
                {
                    println!(
                        "  scheduler: {} context switches ({} preemptions), {} minor + {} major \
                         page faults, {} evictions, {} io blocks, {} idle cycles",
                        sc.context_switches,
                        sc.preemptions,
                        sc.page_faults_minor,
                        sc.page_faults_major,
                        sc.evictions,
                        sc.io_blocks,
                        sc.idle_cycles
                    );
                }
                let cs = self.sys.machine.sdw_cache_stats();
                if cs.hits + cs.misses > 0 {
                    println!(
                        "  sdw cache: {} hits, {} misses ({:.1}% hit), {} flushes, {} invalidations",
                        cs.hits,
                        cs.misses,
                        100.0 * cs.hit_ratio(),
                        cs.flushes,
                        cs.invalidations
                    );
                }
                if snap.call_cycles.count > 0 {
                    println!(
                        "  call path: {} calls, {:.1} cycles mean (min {}, max {}); return path: {} returns, {:.1} mean",
                        snap.call_cycles.count,
                        snap.call_cycles.mean,
                        snap.call_cycles.min,
                        snap.call_cycles.max,
                        snap.return_cycles.count,
                        snap.return_cycles.mean
                    );
                }
                let ce = self.sys.machine.chaos();
                if ce.injected_total() > 0 {
                    let cr = self.sys.chaos_stats();
                    println!(
                        "  chaos: {} injected, {} detected, {} recovered, {} killed, \
                         {} salvaged, degraded segs={} global={}",
                        ce.injected_total(),
                        ce.detected_total(),
                        cr.recovered,
                        cr.killed,
                        cr.salvaged,
                        ce.degraded_segs().len(),
                        ce.degraded_global()
                    );
                }
                let prof = self.sys.profiler();
                if prof.samples() > 0 {
                    println!(
                        "  profiler: {} samples every {} cycles across {} stacks \
                         ({} time-series points; see `top`)",
                        prof.samples(),
                        prof.sample_every(),
                        prof.folded_entries().count(),
                        self.sys.timeseries().len()
                    );
                }
            }
            ["top", rest @ ..] => {
                // A `top`-style view of the sampling profiler: where
                // have the simulated cycles gone, by ring and by stack.
                let prof = self.sys.profiler();
                if prof.samples() == 0 {
                    println!("  (no samples yet — run something first)");
                    return true;
                }
                let limit: usize = rest.first().and_then(|v| v.parse().ok()).unwrap_or(10);
                let total = prof.samples();
                println!(
                    "  {total} samples, one per {} simulated cycles",
                    prof.sample_every()
                );
                let rings: Vec<String> = prof
                    .samples_by_ring()
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(r, &n)| format!("r{r} {:.1}%", 100.0 * n as f64 / total as f64))
                    .collect();
                println!("  rings: {}", rings.join(", "));
                let mut entries: Vec<(&str, u64)> = prof.folded_entries().collect();
                entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                println!("  {:>7}      %  stack", "samples");
                for (stack, n) in entries.into_iter().take(limit) {
                    println!(
                        "  {n:>7} {:>5.1}%  {stack}",
                        100.0 * n as f64 / total as f64
                    );
                }
            }
            ["heatmap"] => {
                let snap = self.sys.metrics_snapshot();
                if snap.heatmap.is_empty() {
                    println!("  (no references recorded — run something first)");
                } else {
                    println!("  segno      reads     writes   executes violations");
                    for (segno, h) in &snap.heatmap {
                        println!(
                            "  {segno:<6} {:>9} {:>10} {:>10} {:>10}",
                            h.reads, h.writes, h.executes, h.violations
                        );
                    }
                }
            }
            ["metrics", rest @ ..] => {
                let json = self.sys.metrics_json();
                match rest.first() {
                    Some(path) => match std::fs::write(path, &json) {
                        Ok(()) => println!("  wrote {} bytes to {path}", json.len()),
                        Err(e) => println!("  cannot write {path}: {e}"),
                    },
                    None => print!("{json}"),
                }
            }
            ["tty"] => {
                println!("  typewriter: {:?}", self.sys.tty_printed());
            }
            ["audit"] => {
                let st = self.sys.state();
                for rec in &st.audit_log {
                    println!(
                        "  {} (ring {}): {}",
                        rec.user, rec.caller_ring, rec.operation
                    );
                }
                if st.audit_log.is_empty() {
                    println!("  (empty)");
                }
            }
            other => println!("  unknown command {other:?} (try help)"),
        }
        true
    }
}

fn main() -> ExitCode {
    let fastpath = !std::env::args().skip(1).any(|a| a == "--no-fastpath");
    println!("multiring shell — `help` for commands");
    let mut sys = System::boot_with(multiring::os::boot::SystemConfig {
        fastpath,
        ..multiring::os::boot::SystemConfig::default()
    });
    // The shell is an observability surface; always record metrics and
    // sample the profiler (cycle-driven, so it never perturbs a run).
    sys.enable_metrics();
    sys.enable_profiler(500, 5_000);
    let mut shell = Shell { sys, current: None };
    let stdin = std::io::stdin();
    loop {
        print!("ring> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if !shell.cmd(&parts) {
            break;
        }
    }
    ExitCode::SUCCESS
}
