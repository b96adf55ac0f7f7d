//! The machine tools (`runasm`, `ringdbg`, `ringsh`) refuse bad command
//! lines with a message and a nonzero exit status, survive hostile
//! commands on stdin, and print the same bytes on either engine.

use std::io::{ErrorKind, Write as _};
use std::process::{Command, Output, Stdio};

use multiring::trace::json::{self, Json};

const RUNASM: &str = env!("CARGO_BIN_EXE_runasm");
const RINGDBG: &str = env!("CARGO_BIN_EXE_ringdbg");
const RINGSH: &str = env!("CARGO_BIN_EXE_ringsh");

/// Runs `bin` with `args`, feeding it `stdin`. A tool that refuses its
/// command line may exit before reading its input, so a broken pipe on
/// that write is not an error; the caller checks the exit status.
fn run(bin: &str, args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tool starts");
    let written = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes());
    if let Err(e) = written {
        assert_eq!(e.kind(), ErrorKind::BrokenPipe, "stdin written: {e}");
    }
    child.wait_with_output().expect("tool exits")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Runs `bin` and requires a clean exit with no panic anywhere.
fn survives(bin: &str, args: &[&str], stdin: &str) -> String {
    let out = run(bin, args, stdin);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(out.status.success(), "{bin} {args:?}: {stderr}");
    stdout
}

#[test]
fn bad_command_lines_exit_nonzero_with_a_message() {
    let prog = "examples/asm/gcd.rasm";
    let refused = |bin: &str, args: &[&str]| {
        let out = run(bin, args, "");
        let stderr = text(&out.stderr);
        assert!(!out.status.success(), "{bin} {args:?} succeeded");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{bin} {args:?} printed nothing");
    };
    for args in [
        &["--frobnicate", prog][..],
        &[prog, "--quantum"],
        &["--procs", "many"],
        &["--ring", "9", prog],
        &["--procs", "0"],
        &["--procs", "1", "--pages", "4"],
        &["--procs", "1", "--pages", "257"],
        &["--chaos-seed", "1", prog],
        &[prog, "--chaos-rate", "50"],
        &["--procs", "1", "--chaos-rate", "50", "--chaos-plan", prog],
    ] {
        refused(RUNASM, args);
        refused(RINGDBG, args);
    }
    refused(RUNASM, &["--record", "a", "--replay", "b", prog]);
    refused(RINGSH, &["--frobnicate"]);
}

/// `--chaos-rate` on its own arms the campaign of `--chaos-seed 0`, as
/// it does in `fleetbench`.
#[test]
fn a_lone_chaos_rate_runs_the_seed_0_campaign() {
    let lone = survives(RUNASM, &["--procs", "1", "--chaos-rate", "1"], "");
    let seeded = ["--procs", "1", "--chaos-seed", "0", "--chaos-rate", "1"];
    assert!(lone.contains("chaos:"), "{lone}");
    assert_eq!(lone, survives(RUNASM, &seeded, ""));
}

/// A program whose last word is at `org`, written to a file.
fn program(org: u32) -> String {
    let path = format!("{}/org{org}.rasm", env!("CARGO_TARGET_TMPDIR"));
    let source = format!("        drl 0o777\n        org {org}\n        dw 0\n");
    std::fs::write(&path, source).expect("program written");
    path
}

/// A program the assembler accepts but the bare world cannot hold is
/// refused with a message: too big for its own segment (`org 262143`,
/// the assembler's limit), for the stacks (`org 253000`) or for the
/// trap segment (`org 252500`). One that fits (`org 252000`) runs.
#[test]
fn programs_too_big_for_the_bare_world_exit_nonzero_with_a_message() {
    for org in [262_143, 253_000, 252_500] {
        let path = program(org);
        for bin in [RUNASM, RINGDBG] {
            let out = run(bin, &[&path], "q\n");
            let stderr = text(&out.stderr);
            assert!(!out.status.success(), "{bin} org {org} succeeded");
            assert!(!stderr.contains("panicked"), "{bin} org {org}: {stderr}");
            assert!(
                stderr.contains("does not fit the bare world"),
                "{bin} org {org}: {stderr}"
            );
        }
    }
    let fits = program(252_000);
    assert!(survives(RUNASM, &[&fits], "").contains("exit: Halted"));
    assert!(survives(RINGDBG, &[&fits], "g\nq\n").contains("halted after"));
}

/// Processes that do not fit the kernel's physical memory are refused
/// with a message naming the process count: 240 storm processes run
/// out at a descriptor segment, ten copies of a 210 000-word program
/// at a code segment. 239 storm processes still build, and the shell's
/// storm and login report the shortfall.
#[test]
fn kernels_too_big_for_physical_memory_exit_nonzero_with_a_message() {
    let big = program(209_999);
    for args in [
        &["--procs", "240"][..],
        &["--procs", "250"],
        &["--procs", "10", "--rounds", "1", &big],
    ] {
        for bin in [RUNASM, RINGDBG] {
            let out = run(bin, args, "q\n");
            let stderr = text(&out.stderr);
            assert!(!out.status.success(), "{bin} {args:?} succeeded");
            assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
            let named = format!(
                "--procs {}: the processes do not fit physical memory",
                args[1]
            );
            assert!(stderr.contains(&named), "{bin} {args:?}: {stderr}");
        }
    }
    // 239 fit; most then abort in the simulation when their page
    // tables find no memory, so the exit status reports failure.
    let out = run(RUNASM, &["--procs", "239", "--rounds", "1"], "");
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stdout.contains("proc 238: ") && stdout.contains("exit: Halted"),
        "{stdout}"
    );
    let session = "storm 300\nlogin alice\nquit\n";
    let out = survives(RINGSH, &[], session);
    let shortfall = "needs 8704 words of physical memory for its descriptor segment and stacks";
    assert_eq!(out.matches(shortfall).count(), 2, "{out}");
}

#[test]
fn hostile_monitor_commands_print_a_reason() {
    let session = "m 12 0\nw 12 0\nm 10 99999999\nd 0 4294967295\nd 4294967295 8\n\
                   b x\nd y\nd 0 x\nm 11 0 x\ng\nq\n";
    let out = survives(RINGDBG, &["examples/asm/subroutine.rasm"], session);
    assert_eq!(out.matches("  no word at ").count(), 5, "{out}");
    assert!(
        out.contains("no word at 10|16:"),
        "d stops at the bound: {out}"
    );
    // A word number or count that does not parse prints the usage
    // line; it does not set a breakpoint at word 0, disassemble from
    // there, or dump eight words.
    assert!(out.contains("  b [<seg>] <wordno>"), "{out}");
    assert_eq!(out.matches("  d <wordno> [n]").count(), 2, "{out}");
    assert!(out.contains("  m <segno> <wordno> [n]"), "{out}");
    assert!(out.contains("halted after"), "{out}");
}

#[test]
fn hostile_shell_commands_and_repeated_storms_run() {
    let session = "login alice\nrun 99999\nrun 64 999999\nstorm 1 300\n\
                   storm 2 5 3\nstorm 2 5 3\nchaos 7 300 2\nps\nquit\n";
    let out = survives(RINGSH, &[], session);
    assert_eq!(out.matches("run <segno> [entry]").count(), 2, "{out}");
    assert_eq!(out.matches("storm [procs>=1]").count(), 1, "{out}");
    assert_eq!(out.matches("storm processes").count(), 2, "{out}");
    assert!(out.contains("invariants OK"), "{out}");
    assert!(out.contains("6: storm6"), "pid-named storm users: {out}");
}

/// Runs the session on both engines and requires identical output.
fn same_on_both_engines(bin: &str, args: &[&str], session: &str) {
    let fast = survives(bin, args, session);
    let reference = [args, &["--no-fastpath"]].concat();
    assert_eq!(fast, survives(bin, &reference, session), "{bin} {args:?}");
}

#[test]
fn debugger_sessions_print_the_same_bytes_on_both_engines() {
    let rec = format!("{}/cli-parity.rec", env!("CARGO_TARGET_TMPDIR"));
    let bare = format!(
        "r\ns 3\nd 0 6\nm 11 0 4\nseg 10\nb 10 7\ng\nw 11 2\ng\nrs 2\nr\nspans\n\
         trace --json\nrecord {rec}\ns 5\nrecord stop\nreplay {rec}\nstats\nb 10 7\n\
         g\nprof 3\nq\n"
    );
    same_on_both_engines(RINGDBG, &["examples/asm/subroutine.rasm"], &bare);
    let kernel = "r\ns 40\nps\nb * 65 2\ng 20000\nb * 65 2\nb 1 65 6\ng\nr\nps\n\
                  stats\nb 1 65 6\ng\nps\nstats\nq\n";
    same_on_both_engines(RINGDBG, &["--procs", "3", "--frames", "8"], kernel);
}

#[test]
fn shell_sessions_print_the_same_bytes_on_both_engines() {
    let session = "login alice\nasm examples/asm/subroutine.rasm\nrun 64\nstorm 3 5 8\n\
                   storm 2 6 4 8\nchaos 7 300 2\nps\nstats\ntop 5\nheatmap\nquit\n";
    same_on_both_engines(RINGSH, &[], session);
}

/// The path of `examples/asm/<name>.rasm`.
fn example(name: &str) -> String {
    format!("{}/examples/asm/{name}.rasm", env!("CARGO_MANIFEST_DIR"))
}

/// The path of a file `name` in the target's temporary directory.
fn scratch(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"))
}

/// A profiled sieve recorded in one process replays in another with
/// `replay OK` and writes its CSV metrics, folded stacks and time series
/// again byte for byte. The stacks are distinct with positive weights,
/// and the time series keeps its schema and interval and has points at
/// strictly increasing cycles.
#[test]
fn a_recording_replays_its_metrics_profile_and_time_series() {
    let (sieve, rec) = (example("sieve"), scratch("cli-sieve.rec"));
    let run = |mode: &str, tag: &str| {
        let outputs = [".csv", ".folded", "-ts.json"].map(|ext| scratch(&format!("{tag}{ext}")));
        let flags = ["--metrics-out", "--profile-out", "--timeseries-out"];
        let mut args = vec![mode, &rec, &sieve, "--sample-every", "100"];
        args.extend(["--timeseries-every", "500"]);
        args.extend(flags.iter().zip(&outputs).flat_map(|(f, o)| [*f, o]));
        let read = |o| std::fs::read_to_string(o).expect("output written");
        (survives(RUNASM, &args, ""), outputs.map(read))
    };
    let (_, recorded) = run("--record", "cli-sieve-recorded");
    let (stdout, replayed) = run("--replay", "cli-sieve-replayed");
    assert!(stdout.contains("replay OK"), "{stdout}");
    assert_eq!(recorded, replayed, "the replay wrote other outputs");

    let [csv, folded, series] = &recorded;
    assert!(csv.starts_with("key,value\nenabled,1\n"), "{csv}");
    let mut stacks = std::collections::BTreeSet::new();
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight`");
        assert!(weight.parse::<u64>().expect("a weight") > 0, "{line}");
        assert!(stacks.insert(stack), "duplicate stack {stack}");
    }
    assert!(!stacks.is_empty(), "no folded stacks");
    let ts = json::parse(series).expect("the time series parses");
    let schema = ts.get("schema").and_then(Json::as_str);
    assert_eq!(schema, Some("ring-prof/timeseries/v1"));
    assert_eq!(ts.get("interval").and_then(Json::as_u64), Some(500));
    let mut cycles = vec![0];
    for p in ts.get("points").and_then(Json::as_arr).expect("points") {
        let counters = "cycles dcycles instructions faults ring_changes page_faults";
        for key in counters
            .split(' ')
            .chain(["ipc", "fault_rate", "paging_rate"])
        {
            assert!(p.get(key).is_some(), "a point without {key}");
        }
        cycles.extend(p.get("cycles").and_then(Json::as_u64));
    }
    assert!(cycles.windows(2).all(|w| w[0] < w[1]), "cycles {cycles:?}");
    assert!(cycles.len() > 1, "no time-series points");
}

/// A recording replays only in the world it was made in. Another
/// program, another ring or another kernel shape is refused before
/// anything runs, with a message naming the recorded program; restoring
/// the recorded image instead would approve a run these flags never
/// made.
#[test]
fn a_recording_is_refused_in_another_world() {
    let (gcd, fibonacci) = (example("gcd"), example("fibonacci"));
    let (gcd_rec, storm_rec) = (scratch("cli-gcd.rec"), scratch("cli-storm.rec"));
    survives(RUNASM, &["--record", &gcd_rec, &gcd], "");
    let storm = ["--procs", "4", "--frames", "16", "--record", &storm_rec];
    survives(RUNASM, &storm, "");
    for (args, program) in [
        (&["--replay", &gcd_rec, &fibonacci][..], gcd.as_str()),
        (&["--replay", &gcd_rec, "--ring", "2", &gcd], &gcd),
        (
            &["--replay", &storm_rec, "--procs", "3", "--frames", "8"],
            "page-storm",
        ),
    ] {
        let out = run(RUNASM, args, "");
        let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
        assert!(!out.status.success(), "{args:?} succeeded: {stdout}");
        assert!(stdout.is_empty(), "{args:?} ran: {stdout}");
        assert!(
            stderr.contains(&format!("recorded `{program}`")),
            "{args:?}: {stderr}"
        );
    }
}
