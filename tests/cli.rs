//! The machine tools (`runasm`, `ringdbg`, `ringsh`) refuse bad command
//! lines with a message and a nonzero exit status, survive hostile
//! commands on stdin, and print the same bytes on either engine.

use std::io::{ErrorKind, Write as _};
use std::process::{Command, Output, Stdio};

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
    ] {
        refused(RUNASM, args);
        refused(RINGDBG, args);
    }
    refused(RUNASM, &["--record", "a", "--replay", "b", prog]);
    refused(RINGSH, &["--frobnicate"]);
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

/// Every output of the two observer runs that `tests/golden/sim_hashes.py`
/// documents keeps its bytes: the metrics exports, the span traces, the
/// profiles, the time series and the second run's standard output (the
/// trace ring). `tests/golden/sim-hashes.txt` pins the same files by
/// SHA-256; these are their FNV-1a 64 hashes.
#[test]
fn observer_runs_write_their_pinned_bytes() {
    const PINNED: [(&str, u64); 9] = [
        ("obs-metrics.json", 0xf561_2f6e_a599_a381),
        ("obs-trace.json", 0xf055_ef80_6a67_3dc0),
        ("obs.folded", 0xd743_a831_424d_34a5),
        ("obs-ts.json", 0x8c7a_ad43_2606_2d61),
        ("sub-metrics.json", 0x845e_aab4_c0c9_45f2),
        ("sub-trace.json", 0xebc4_666c_6289_6683),
        ("counters.json", 0xc9bd_7992_eccc_039a),
        ("sub-ts.json", 0x2f16_42c1_17d1_f985),
        ("sub.out", 0x7830_045d_99a3_daf8),
    ];
    let dir = std::env::temp_dir().join(format!("multiring-observers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let runasm = |args: &str, program: Option<&str>| {
        let out = Command::new(RUNASM)
            .args(args.split_whitespace().chain(program))
            .current_dir(&dir)
            .output()
            .expect("runasm starts");
        assert!(out.status.success(), "{args}: {}", text(&out.stderr));
        out.stdout
    };
    runasm(
        "--procs 3 --frames 6 --pages 5 --rounds 20 --metrics-out obs-metrics.json \
         --trace-out obs-trace.json --profile-out obs.folded --timeseries-out obs-ts.json \
         --sample-every 50 --timeseries-every 2000",
        None,
    );
    let sub_out = runasm(
        "--trace --metrics-out sub-metrics.json --trace-out sub-trace.json \
         --profile-out counters.json --timeseries-out sub-ts.json \
         --sample-every 4 --timeseries-every 8",
        Some(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/examples/asm/subroutine.rasm"
        )),
    );
    let mut moved = Vec::new();
    for (name, pinned) in PINNED {
        let bytes = match name {
            "sub.out" => sub_out.clone(),
            _ => std::fs::read(dir.join(name)).expect("output written"),
        };
        let hash = multiring::fleet::report::fnv1a64(&bytes);
        if hash != pinned {
            moved.push(format!("{name}: fnv1a64 {hash:016x}, pinned {pinned:016x}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}
