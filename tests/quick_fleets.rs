//! The quick fleets of `fleetbench --quick`, run in-process: their
//! merged snapshot hashes must equal the `fleetbench --quick` lines of
//! `tests/golden/sim-hashes.txt`, at 1 and at 4 worker threads, and
//! their `ring-fleet/bench/v2` reports must pass the checks a fleet
//! report is held to — every machine accounted for, the image shared,
//! and the merged snapshot and health report equal at both thread
//! counts.

use std::path::Path;

use multiring::fleet::report::{fleet_json, snapshot_hash, snapshot_hash_without_fastpath};
use multiring::fleet::{run_fleet, ChaosParams, FleetConfig, FleetResult};
use multiring::trace::json::{self, Json};

/// The golden value of `line` in `tests/golden/sim-hashes.txt`.
fn golden(line: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim-hashes.txt");
    let text = std::fs::read_to_string(path).expect("readable golden hashes");
    let prefix = format!("{line} ");
    let mut found = text.lines().filter_map(|l| l.strip_prefix(&prefix));
    let value = found
        .next()
        .unwrap_or_else(|| panic!("no golden line {line:?}"));
    assert!(found.next().is_none(), "two golden lines {line:?}");
    value.to_string()
}

/// `fleetbench --quick --threads <threads>`, with `--chaos-seed 7
/// --chaos-rate 300` when `chaos` is set.
fn quick(threads: usize, chaos: bool) -> FleetConfig {
    let mut cfg = FleetConfig {
        machines: 256,
        threads,
        ..FleetConfig::default()
    };
    if chaos {
        cfg.supervisor.chaos = Some(ChaosParams {
            seed: 7,
            mean_interval: 300,
        });
    }
    cfg
}

/// Runs the quick fleet, checks its hashes against the golden lines
/// named `name` and returns its parsed report.
fn run_quick(name: &str, threads: usize, chaos: bool) -> (FleetResult, Json) {
    let cfg = quick(threads, chaos);
    let result = run_fleet(&cfg);
    for (line, hash) in [
        ("merged_snapshot_hash", snapshot_hash(&result.merged)),
        (
            "merged_snapshot_hash_without_fastpath",
            snapshot_hash_without_fastpath(&result.merged),
        ),
    ] {
        assert_eq!(
            format!("fnv1a64:{hash:016x}"),
            golden(&format!("{name}: {line}")),
            "{name} at {threads} threads: {line}"
        );
    }
    let report = json::parse(&fleet_json(&cfg, &result, true)).expect("the report parses");
    (result, report)
}

/// The number at `path` in `report`.
fn num(report: &Json, path: &[&str]) -> f64 {
    match path.iter().try_fold(report, |v, k| v.get(k)) {
        Some(Json::Num(n)) => *n,
        other => panic!("{path:?} is {other:?}"),
    }
}

/// The string at `key` in `report`.
fn text<'a>(report: &'a Json, key: &str) -> &'a str {
    report
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is not a string"))
}

#[test]
fn quick_fleet_reproduces_its_golden_hashes_at_1_and_4_threads() {
    let runs = [1, 4].map(|threads| run_quick("fleetbench --quick", threads, false));
    for ((result, report), threads) in runs.iter().zip([1, 4]) {
        // fleetbench exits nonzero unless every machine completes.
        assert!(result.member_errors.is_empty());
        assert!(result.machines.iter().all(|m| m.completed));
        assert_eq!(text(report, "schema"), "ring-fleet/bench/v2");
        assert_eq!(report.get("quick"), Some(&Json::Bool(true)));
        assert_eq!(num(report, &["threads"]), f64::from(threads));
        assert!(
            num(report, &["aggregate", "instructions"]) > 0.0,
            "fleet executed nothing"
        );
        assert_eq!(
            num(report, &["aggregate", "completed"]),
            num(report, &["machines"])
        );
        for section in ["wall_ns", "instructions"] {
            for key in ["min", "p50", "p99", "max", "mean"] {
                num(report, &["per_machine", section, key]);
            }
        }
        assert!(num(report, &["cow", "image_pages"]) > 0.0);
        assert!(
            num(report, &["cow", "shared_fraction"]) > 0.5,
            "image is not shared"
        );
        assert_eq!(num(report, &["member_errors"]), 0.0);
        let chaos = report.get("chaos").expect("chaos section");
        assert_eq!(chaos.get("enabled"), Some(&Json::Bool(false)));
        assert_eq!(chaos.get("quarantined"), Some(&Json::Arr(Vec::new())));
        assert!(text(report, "merged_snapshot_hash").starts_with("fnv1a64:"));
    }
    assert_eq!(
        text(&runs[0].1, "merged_snapshot_hash"),
        text(&runs[1].1, "merged_snapshot_hash"),
        "merged snapshot depends on worker-thread count"
    );
}

#[test]
fn quick_chaos_fleet_reproduces_its_golden_hashes_at_1_and_4_threads() {
    let name = "fleetbench --quick --chaos-seed 7 --chaos-rate 300";
    let runs = [1, 4].map(|threads| run_quick(name, threads, true));
    for (result, report) in &runs {
        // fleetbench exits nonzero unless every machine halts or is
        // quarantined.
        assert!(result.member_errors.is_empty());
        assert!(result
            .machines
            .iter()
            .all(|m| m.halted || m.health.is_quarantined()));
        assert_eq!(text(report, "schema"), "ring-fleet/bench/v2");
        let chaos = report.get("chaos").expect("chaos section");
        assert_eq!(chaos.get("enabled"), Some(&Json::Bool(true)));
        assert_eq!(num(chaos, &["seed"]), 7.0);
        assert_eq!(num(chaos, &["mean_interval"]), 300.0);
        assert!(num(chaos, &["recoveries"]) > 0.0, "campaign never injected");
        assert_eq!(num(report, &["member_errors"]), 0.0);
        assert!(text(chaos, "quarantine_hash").starts_with("fnv1a64:"));
    }
    let (one, four) = (&runs[0].1, &runs[1].1);
    assert_eq!(
        text(one, "merged_snapshot_hash"),
        text(four, "merged_snapshot_hash"),
        "chaos merged snapshot depends on worker-thread count"
    );
    assert_eq!(
        one.get("chaos"),
        four.get("chaos"),
        "health report depends on worker-thread count"
    );
}
