//! Computes `tests/golden/sim-hashes.txt` and compares it with the
//! committed file as one text: the quick fleets' merged snapshot hashes,
//! the SHA-256 of the figure and experiment tables, and the SHA-256 of
//! every output of five `runasm` commands. Each metrics export is hashed
//! again "without fastpath", its `fastpath` block dropped and the rest
//! written as Python's `json.dumps(sort_keys=True, separators=(",",
//! ":"))` writes it: those lines pin the simulation apart from which
//! engine ran each step. So each command must also print the same stdout
//! and reproduce every other line with `--no-fastpath`, and each
//! recording must replay with the same metrics export. The test writes
//! the text it computed under `CARGO_TARGET_TMPDIR`; on a mismatch it
//! names that file and each moved line, and a change meant to move a
//! pinned output copies that file over the golden file.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use multiring::fleet::report::fleet_json;
use multiring::fleet::{run_fleet, ChaosParams, FleetConfig};
use multiring::trace::json::{self, Json};
use multiring::trace::Recording;

const GOLDEN: &str = include_str!("golden/sim-hashes.txt");
const HEADER: &str = "# Computed by tests/golden.rs, which writes this text on a mismatch.";

/// A `runasm` command whose outputs the golden file pins, each on a
/// line `<name> <output>: sha256 <hex>`.
struct Runasm {
    name: &'static str,
    args: &'static str,
    /// The outputs it pins, in order; a `.out` name is standard output.
    pinned: &'static str,
    /// What the run must do besides keep its bytes, given its standard
    /// output and directory.
    check: fn(&str, &Path),
}

/// The commands in the golden file's order; the tables line follows
/// the first.
const RUNASM: [Runasm; 5] = [
    Runasm {
        name: "chaos smoke",
        args: "--procs 3 --frames 10 --pages 6 --rounds 40 --chaos-seed 7 --chaos-rate 250 \
               --budget 20000000 --record chaos.rec --metrics-out chaos.json",
        pinned: "chaos.json chaos.rec",
        check: chaos_recovers,
    },
    Runasm {
        name: "runasm --procs 12 --rounds 3",
        args: "--procs 12 --rounds 3 --metrics-out procs12.json",
        pinned: "procs12.json",
        check: |_, _| {},
    },
    Runasm {
        name: "multiprogramming smoke",
        args: "--procs 4 --frames 16 --record storm.rec --metrics-out storm.json",
        pinned: "storm.rec",
        check: storm_interleaves,
    },
    Runasm {
        name: "observer run",
        args: "--procs 3 --frames 6 --pages 5 --rounds 20 --metrics-out obs-metrics.json \
               --trace-out obs-trace.json --profile-out obs.folded --timeseries-out obs-ts.json \
               --sample-every 50 --timeseries-every 2000",
        pinned: "obs-metrics.json obs-trace.json obs.folded obs-ts.json",
        check: |_, _| {},
    },
    Runasm {
        name: "observer run",
        args: "--trace --metrics-out sub-metrics.json --trace-out sub-trace.json \
               --profile-out counters.json --timeseries-out sub-ts.json \
               --sample-every 4 --timeseries-every 8 examples/asm/subroutine.rasm",
        pinned: "sub-metrics.json sub-trace.json counters.json sub-ts.json sub.out",
        check: |_, _| {},
    },
];

impl Runasm {
    /// The value of `flag` in the command's arguments.
    fn flag(&self, flag: &str) -> Option<&'static str> {
        let mut args = self.args.split_whitespace();
        args.find(|a| *a == flag)?;
        args.next()
    }

    /// Checks `run`, the command's standard output and golden lines in
    /// `fast`: its own check, a rerun on the reference interpreter alone
    /// in `reference`, and a replay of its recording.
    fn holds(&self, (stdout, lines): &(String, Vec<String>), fast: &Path, reference: &Path) {
        (self.check)(stdout, fast);
        let (ref_stdout, ref_lines) = self.run(reference, &["--no-fastpath"]);
        assert_eq!(stdout, &ref_stdout, "--no-fastpath moved stdout");
        // The fast-path counters make the only engine-dependent line.
        let metrics = self.flag("--metrics-out").expect("a metrics export");
        let plain = format!("{} {metrics}: ", self.name);
        for (line, ref_line) in lines.iter().zip(&ref_lines) {
            if !line.starts_with(&plain) {
                assert_eq!(line, ref_line, "--no-fastpath moved a line");
            }
        }
        if let Some(rec) = self.flag("--record") {
            let args = self.args.split_whitespace().map(|a| match a {
                "--record" => "--replay",
                a if a == metrics => "replayed.json",
                a => a,
            });
            let replayed = runasm(fast, args);
            assert!(replayed.contains("replay OK"), "{rec}: {replayed}");
            let same = read(fast, metrics) == read(fast, "replayed.json");
            assert!(same, "{rec} replayed to another metrics export");
        }
    }

    /// Runs the command in `dir` with `extra` flags; returns its
    /// standard output and its golden lines.
    fn run(&self, dir: &Path, extra: &[&str]) -> (String, Vec<String>) {
        let stdout = runasm(
            dir,
            self.args.split_whitespace().chain(extra.iter().copied()),
        );
        let name = self.name;
        let mut lines = Vec::new();
        for output in self.pinned.split(' ') {
            let bytes = match output.ends_with(".out") {
                true => stdout.clone().into_bytes(),
                false => read(dir, output),
            };
            lines.push(format!("{name} {output}: sha256 {}", sha256(&bytes)));
            if self.flag("--metrics-out") == Some(output) {
                let rest = without_fastpath(std::str::from_utf8(&bytes).expect("UTF-8"));
                let hash = sha256(rest.as_bytes());
                lines.push(format!("{name} {output} without fastpath: sha256 {hash}"));
            }
        }
        (stdout, lines)
    }
}

/// Runs `runasm` with `args` in `dir` and requires success; returns its
/// standard output.
fn runasm<'a>(dir: &Path, args: impl IntoIterator<Item = &'a str>) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_runasm"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("runasm starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "runasm failed:\n{stdout}{stderr}");
    stdout
}

/// A new directory `name` under the target's temporary directory that
/// holds the one program the commands name, where it is in the
/// repository.
fn fresh(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("examples/asm")).expect("directory made");
    let program = "examples/asm/subroutine.rasm";
    let source = Path::new(env!("CARGO_MANIFEST_DIR")).join(program);
    fs::copy(source, dir.join(program)).expect("program copied");
    dir
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn json_file(dir: &Path, name: &str) -> Json {
    json::parse(std::str::from_utf8(&read(dir, name)).expect("UTF-8")).expect("JSON")
}

/// The value at the `/`-separated `path` in `doc`.
fn at<'a>(doc: &'a Json, path: &str) -> &'a Json {
    let found = path.split('/').try_fold(doc, |v, k| v.get(k));
    found.unwrap_or_else(|| panic!("no {path}"))
}

fn num(doc: &Json, path: &str) -> f64 {
    match at(doc, path) {
        Json::Num(n) => *n,
        other => panic!("{path} is {other:?}"),
    }
}

fn text<'a>(doc: &'a Json, path: &str) -> &'a str {
    let found = at(doc, path).as_str();
    found.unwrap_or_else(|| panic!("{path} is not a string"))
}

/// The campaign runs to a halt with the protection state consistent,
/// injects faults, detects no more than it injected, and recovers or
/// confines what it detects.
fn chaos_recovers(stdout: &str, dir: &Path) {
    assert!(stdout.contains("exit: Halted"), "{stdout}");
    assert!(stdout.contains("post-run invariant check OK"), "{stdout}");
    let snap = json_file(dir, "chaos.json");
    let extra = |key: &str| num(&snap, &format!("extra/chaos.{key}"));
    let (injected, detected) = (extra("injected"), extra("detected"));
    assert!(
        0.0 < detected && detected <= injected,
        "{detected} of {injected}"
    );
    assert!(
        extra("recovered") + extra("killed") > 0.0,
        "nothing recovered"
    );
    assert_eq!(extra("invariant_failures"), 0.0);
}

/// Four processes under a 16-frame budget run to completion and really
/// multiprogram: they interleave, the timer preempts, pages fault in and
/// the frame budget evicts.
fn storm_interleaves(stdout: &str, dir: &Path) {
    assert!(stdout.contains("exit: Halted"), "{stdout}");
    let snap = json_file(dir, "storm.json");
    let sched = |path: &str| num(&snap, &format!("scheduler/{path}"));
    for path in "page_faults/major blocks/io blocks/page idle_cycles".split(' ') {
        sched(path);
    }
    for path in "context_switches preemptions page_faults/minor evictions".split(' ') {
        assert!(sched(path) > 0.0, "scheduler/{path} is 0");
    }
}

/// The two golden lines of the quick fleet, under `--chaos-seed 7
/// --chaos-rate 300` when `chaos` is set. The fleet runs in-process at 1
/// and 4 worker threads; both reports must pass the checks a fleet
/// report is held to and give the same lines and health report.
fn quick_fleet_lines(chaos: bool) -> Vec<String> {
    let [one, four] = [1, 4].map(|threads| {
        let mut cfg = FleetConfig {
            machines: 256,
            threads,
            ..FleetConfig::default()
        };
        let campaign = ChaosParams {
            seed: 7,
            mean_interval: 300,
        };
        cfg.supervisor.chaos = chaos.then_some(campaign);
        let result = run_fleet(&cfg);
        // fleetbench exits nonzero unless every machine completes, or
        // under chaos halts or is quarantined.
        assert!(result.member_errors.is_empty());
        assert!(result.machines.iter().all(|m| match chaos {
            false => m.completed,
            true => m.halted || m.health.is_quarantined(),
        }));
        let report = json::parse(&fleet_json(&cfg, &result, true)).expect("report");
        check_report(&report, threads, chaos);
        report
    });
    assert!(at(&one, "chaos") == at(&four, "chaos"), "health differs");
    let name = match chaos {
        false => "fleetbench --quick",
        true => "fleetbench --quick --chaos-seed 7 --chaos-rate 300",
    };
    ["", "_without_fastpath"]
        .map(|suffix| {
            let key = format!("merged_snapshot_hash{suffix}");
            let [a, b] = [&one, &four].map(|r| format!("{name}: {key} {}", text(r, &key)));
            assert_eq!(a, b, "thread-count dependent");
            a
        })
        .to_vec()
}

/// The checks a `ring-fleet/bench/v2` report of the quick fleet is held
/// to: every machine accounted for, the image shared, no member errors,
/// and under chaos a campaign that injected.
fn check_report(report: &Json, threads: usize, chaos: bool) {
    let num = |path: &str| num(report, path);
    assert_eq!(text(report, "schema"), "ring-fleet/bench/v2");
    assert_eq!(at(report, "quick"), &Json::Bool(true));
    assert_eq!(num("threads"), threads as f64);
    assert!(
        num("aggregate/instructions") > 0.0,
        "fleet executed nothing"
    );
    for section in ["wall_ns", "instructions"] {
        for key in ["min", "p50", "p99", "max", "mean"] {
            num(&format!("per_machine/{section}/{key}"));
        }
    }
    assert!(num("cow/image_pages") > 0.0);
    assert_eq!(num("member_errors"), 0.0);
    assert!(text(report, "merged_snapshot_hash").starts_with("fnv1a64:"));
    assert_eq!(at(report, "chaos/enabled"), &Json::Bool(chaos));
    if chaos {
        assert_eq!(
            [num("chaos/seed"), num("chaos/mean_interval")],
            [7.0, 300.0]
        );
        assert!(num("chaos/recoveries") > 0.0, "campaign never injected");
        assert!(text(report, "chaos/quarantine_hash").starts_with("fnv1a64:"));
    } else {
        assert_eq!(num("aggregate/completed"), num("machines"));
        assert!(num("cow/shared_fraction") > 0.5, "image is not shared");
        assert_eq!(at(report, "chaos/quarantined"), &Json::Arr(Vec::new()));
    }
}

/// The figure and experiment tables, as `tables` prints them.
fn tables() -> String {
    ring_bench::figures::all_figures() + &ring_bench::tables::all_tables()
}

#[test]
fn the_golden_file_is_what_the_simulator_computes() {
    let (fast, reference) = (fresh("golden-fast"), fresh("golden-reference"));
    let runs = RUNASM.each_ref().map(|cmd| cmd.run(&fast, &[]));
    let [chaos, rest @ ..] = &runs;
    let mut lines = vec![HEADER.to_string()];
    lines.extend(quick_fleet_lines(false));
    lines.extend(quick_fleet_lines(true));
    lines.extend(chaos.1.iter().cloned());
    let tables = sha256(tables().as_bytes());
    lines.push(format!("tables stdout: sha256 {tables}"));
    for (_, pinned) in rest {
        lines.extend(pinned.iter().cloned());
    }
    let computed: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim-hashes.txt");
    fs::write(&path, &computed).expect("computed text written");
    let moved: Vec<&String> = lines
        .iter()
        .filter(|l| !GOLDEN.lines().any(|g| g == *l))
        .collect();
    assert!(
        computed == GOLDEN,
        "tests/golden/sim-hashes.txt is not what the simulator computes; copy {} over \
         it to accept the change. The moved lines, as computed:\n{moved:#?}",
        path.display(),
    );
    for (cmd, run) in RUNASM.iter().zip(&runs) {
        cmd.holds(run, &fast, &reference);
    }
}

/// The chaos smoke and the multiprogramming smoke end before the
/// default checkpoint interval, so their golden recordings hold no
/// checkpoint. Recorded again at a shorter interval, each holds six,
/// replays OK to the same metrics export, and replays to `replay
/// DIVERGED` at checkpoint 2 once a word of that checkpoint's image is
/// changed.
#[test]
fn kernel_recordings_with_checkpoints_replay_and_check_each() {
    for (cmd, every) in [(&RUNASM[0], "4000"), (&RUNASM[2], "2000")] {
        let dir = fresh(&format!("checkpoints-every-{every}"));
        let rec = cmd.flag("--record").expect("a recording");
        let metrics = cmd.flag("--metrics-out").expect("a metrics export");
        // The command with `--record` swapped for `flag` on `file` and
        // the metrics export written to `out`.
        let args = |flag: &'static str, file: &'static str, out: &'static str| {
            let mut args = cmd.args.split_whitespace().collect::<Vec<_>>();
            for a in &mut args {
                *a = match *a {
                    "--record" => flag,
                    a if a == rec => file,
                    a if a == metrics => out,
                    a => a,
                };
            }
            args.extend(["--checkpoint-every", every]);
            args
        };
        runasm(&dir, args("--record", rec, metrics));
        let text = String::from_utf8(read(&dir, rec)).expect("UTF-8");
        let recording = Recording::from_json(&text).expect("a recording");
        assert_eq!(recording.checkpoints.len(), 6, "{rec} every {every} cycles");

        let replayed = runasm(&dir, args("--replay", rec, "replayed.json"));
        assert!(replayed.contains("replay OK"), "{rec}: {replayed}");
        let same = read(&dir, metrics) == read(&dir, "replayed.json");
        assert!(same, "{rec} replayed to another metrics export");

        let mut tampered = recording.clone();
        *tampered.checkpoints[2].image.last_mut().expect("an image") ^= 1;
        fs::write(dir.join("tampered.rec"), tampered.to_json()).expect("written");
        let out = Command::new(env!("CARGO_BIN_EXE_runasm"))
            .args(args("--replay", "tampered.rec", "tampered.json"))
            .current_dir(&dir)
            .output()
            .expect("runasm starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "a changed checkpoint replayed clean");
        assert!(
            stderr.contains("replay DIVERGED: checkpoint 2 diverged"),
            "{rec}: {stderr}"
        );
    }
}

/// EXPERIMENTS.md quotes the tables' output as its "Raw output".
#[test]
fn experiments_raw_output_is_the_tables() {
    let doc = include_str!("../EXPERIMENTS.md");
    let start = "## Raw output\n\n```text\n";
    let (_, raw) = doc.split_once(start).expect("a raw output block");
    let (raw, _) = raw.split_once("```\n").expect("a closed block");
    assert!(raw == tables(), "stale raw output");
}

/// SHA-256 (FIPS 180-4) of `data`, in lowercase hex.
fn sha256(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let sum = |words: &[u32]| words.iter().fold(0, |x: u32, y| x.wrapping_add(*y));
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in message.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("four bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = sum(&[w[i - 16], s0, w[i - 7], s1]);
        }
        let mut v = h;
        for (k, w) in K.iter().zip(w) {
            let [a, b, c, d, e, f, g, hh] = v;
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = sum(&[hh, s1, ch, *k, w]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let t2 = s0.wrapping_add((a & b) ^ (a & c) ^ (b & c));
            v = [t1.wrapping_add(t2), a, b, c, d.wrapping_add(t1), e, f, g];
        }
        for (x, y) in h.iter_mut().zip(v) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}

#[test]
fn sha256_gives_the_fips_180_4_digests() {
    let million = vec![b'a'; 1_000_000];
    let messages: [&[u8]; 5] = [
        b"",
        b"abc",
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
          hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        &million,
    ];
    assert_eq!(
        messages.map(sha256),
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ]
    );
}

/// A metrics export without its `fastpath` block, written as Python's
/// `json.dumps(sort_keys=True, separators=(",", ":"))` writes it after
/// `json.load`: keys sorted, no spaces, a number with a fraction or an
/// exponent as the `repr` of its float (`0.000000` is `0.0`) and an
/// integer as written. Strings must be printable ASCII without escapes,
/// which `json.dumps` writes as they are.
fn without_fastpath(export: &str) -> String {
    let mut text = export.trim_start().strip_prefix('{').expect("an object");
    let mut snap = fields(&mut text);
    snap.remove("fastpath").expect("a fastpath block");
    object(&snap)
}

/// The fields of the object whose `{` `text` starts after, each value
/// written as `json.dumps` writes it; moves `text` past the `}`.
fn fields(text: &mut &str) -> BTreeMap<String, String> {
    let mut fields = BTreeMap::new();
    while !closes(text, '}') {
        let key = value(text);
        *text = text.trim_start().strip_prefix(':').expect(":");
        fields.insert(key.trim_matches('"').to_string(), value(text));
    }
    fields
}

fn object(fields: &BTreeMap<String, String>) -> String {
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// The JSON value at the start of `text`, written as `json.dumps` writes
/// it; moves `text` past it.
fn value(text: &mut &str) -> String {
    *text = text.trim_start();
    if let Some(rest) = text.strip_prefix('{') {
        *text = rest;
        return object(&fields(text));
    }
    if let Some(rest) = text.strip_prefix('[') {
        *text = rest;
        let mut items = Vec::new();
        while !closes(text, ']') {
            items.push(value(text));
        }
        return format!("[{}]", items.join(","));
    }
    let end = match text.strip_prefix('"') {
        Some(string) => string.find('"').expect("a closed string") + 2,
        None => text.find([',', ']', '}', ' ', '\n']).unwrap_or(text.len()),
    };
    let (token, rest) = text.split_at(end);
    *text = rest;
    let plain = |b: u8| (b' '..=b'~').contains(&b) && b != b'\\';
    assert!(token.bytes().all(plain), "json.dumps rewrites {token}");
    match token.parse::<f64>() {
        Ok(x) if token.contains(['.', 'e', 'E']) => py_float(x),
        _ => token.to_string(),
    }
}

/// Skips a `,` and then, if `close` follows, that too; says whether it
/// did.
fn closes(text: &mut &str, close: char) -> bool {
    let rest = text.trim_start();
    let rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    *text = rest.strip_prefix(close).unwrap_or(rest);
    text.len() < rest.len()
}

/// `x` as Python's `repr` writes a float: the shortest digits that
/// round-trip, which Rust's `Debug` also writes, with the exponent signed
/// and at least two digits long.
fn py_float(x: f64) -> String {
    let s = format!("{x:?}");
    let Some((mantissa, exp)) = s.split_once('e') else {
        return s;
    };
    let (sign, digits) = exp.strip_prefix('-').map_or(("+", exp), |d| ("-", d));
    format!("{mantissa}e{sign}{digits:0>2}")
}

#[test]
fn without_fastpath_writes_what_python_json_dumps_writes() {
    let export = concat!(
        r#"{"fastpath": {"hits": 3}, "b": 0.000000, "a": [0, -0.5, 1e-5, 2.5E20, 1234.500000], "#,
        r#""c": {"z": null, "y": true, "x": false}, "e": {}, "f": [], "s": "a, b: [c]"}"#,
    );
    assert_eq!(
        without_fastpath(export),
        concat!(
            r#"{"a":[0,-0.5,1e-05,2.5e+20,1234.5],"b":0.0,"c":{"x":false,"y":true,"z":null},"#,
            r#""e":{},"f":[],"s":"a, b: [c]"}"#,
        )
    );
}
