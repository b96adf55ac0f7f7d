//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     [--workload NAME | --runs N] [--seed N] [--seconds N] [--trace [0|1]] [--out FILE]
//! cargo run --release --manifest-path bench/Cargo.toml -- agree A.json B.json
//! ```
//!
//! With `--workload`, one workload runs in this process, untraced
//! (end-to-end metrics) or traced (per-layer metrics). Without it, every
//! workload runs in its own child process, untraced and then traced
//! unless `--trace` picks one, and the results are combined into one
//! file; `--runs N` repeats that sweep with seeds `S..S+N`, which makes
//! a run set for `agree`. The last line of a single-workload run is a
//! JSON summary; the exit code is nonzero when any check fails.

mod report;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::{document, mode, provenance};
use workload::{Opts, Workload};

const USAGE: &str =
    "usage: bench [--workload NAME | --runs N] [--seed N] [--seconds N] [--trace [0|1]] [--out FILE]
       bench agree A.json B.json
workloads: solo_loop solo_gate_obs fleet_mixed fleet_chaos";

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    manifest_dir().join("..")
}

struct Args {
    workload: Option<Workload>,
    /// Sweeps of every workload, each with the next seed.
    runs: u64,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        runs: 1,
        seed: 1,
        seconds: 20.0,
        trace: None,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} takes a value")).cloned();
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--runs" => {
                a.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                let explicit = it.next_if(|v| *v == "0" || *v == "1");
                a.trace = Some(explicit.is_none_or(|v| v == "1"));
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_some() && a.runs > 1 {
        return Err("--runs applies to a run of every workload, not to --workload".to_string());
    }
    Ok(a)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(w: Workload, a: &Args) -> Result<bool, String> {
    let opts = Opts {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace.unwrap_or(false),
        scale: 1.0,
    };
    let outcome = workload::run(w, &opts);
    outcome.print();
    let out_dir = manifest_dir().join("out");
    let path = a.out.clone().unwrap_or_else(|| {
        out_dir.join(format!(
            "{}-{}-seed{}.json",
            w.name(),
            mode(opts.trace),
            a.seed
        ))
    });
    write(
        &path,
        &document(provenance(&repo_root(), &opts), vec![outcome.to_json()]),
    )?;
    if let Some(chrome) = &outcome.chrome {
        let trace = out_dir.join(format!("trace-{}-seed{}.json", w.name(), a.seed));
        write(&trace, chrome)?;
        println!("chrome trace {}", trace.display());
    }
    println!("result {}", path.display());
    println!("{}", outcome.summary_line());
    Ok(outcome.correct())
}

/// Runs every workload in its own child process, so each peak RSS is
/// that workload's alone, and combines their result files. Sweeps run
/// seed by seed, so slow drift in the host's load spreads over every
/// workload alike.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let modes = a.trace.map_or(vec![false, true], |t| vec![t]);
    let out_dir = manifest_dir().join("out");
    let (mut runs, mut ok) = (Vec::new(), true);
    for seed in a.seed..a.seed + a.runs {
        for w in Workload::ALL {
            for &trace in &modes {
                let path = out_dir.join(format!("{}-{}-seed{seed}.json", w.name(), mode(trace)));
                // A child that dies before writing must not leave an old result.
                let _ = std::fs::remove_file(&path);
                let status = Command::new(&exe)
                    .args(["--workload", w.name(), "--seed", &seed.to_string()])
                    .args(["--seconds", &a.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&path)
                    .status()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                ok &= status.success();
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{} left no result: {e}", w.name()))?;
                let doc = ring_trace::json::parse(&text)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                runs.extend(report::runs(&doc).into_iter().cloned());
            }
        }
    }
    let opts = Opts {
        seed: a.seed,
        seconds: a.seconds,
        trace: false,
        scale: 1.0,
    };
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("run-seed{}.json", a.seed)));
    write(&path, &document(provenance(&repo_root(), &opts), runs))?;
    println!(
        "combined result {} ({})",
        path.display(),
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("agree") {
        match &args[1..] {
            [a, b] => report::agree(
                &repo_root().join("BENCHMARK.json"),
                Path::new(a),
                Path::new(b),
            ),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse_args(&args).and_then(|a| match a.workload {
            Some(w) => run_one(w, &a),
            None => run_all(&a),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn trace_takes_an_optional_zero_or_one() {
        assert_eq!(args("--trace 0 --seed 3").unwrap().trace, Some(false));
        assert_eq!(args("--trace 1").unwrap().trace, Some(true));
        assert_eq!(args("--trace --seed 3").unwrap().trace, Some(true));
        let a = args("--workload fleet_chaos --seed 9 --seconds 2.5").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::FleetChaos), 9, 2.5, None)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--seed").is_err());
        assert_eq!(args("--runs 10 --trace 0").unwrap().runs, 10);
        assert!(args("--runs 0").is_err());
        assert!(args("--runs 2 --workload solo_loop").is_err());
    }
}
