//! Fleet-scale benchmark: thousands of deterministic machines over a
//! shared copy-on-write boot image.
//!
//! ```text
//! cargo run --release -p ring-fleet --bin fleetbench [-- OPTIONS]
//!
//!   --quick          256 machines (the golden-hash fleet); default 10,000
//!   --machines N     explicit fleet size
//!   --threads K      worker threads (default: host parallelism),
//!                    at most one per machine
//!   --seed S         fleet seed (default 0x5EED0F1EE7)
//!   --mix M          pagestorm | gatestorm | mixed (default mixed)
//!   --chaos-seed S   arm the chaos campaign with fleet chaos seed S
//!   --chaos-rate R   mean cycles between faults (default 50000;
//!                    implies --chaos-seed 0 if not given)
//!   --out FILE       report path (default BENCH_fleet.json)
//! ```
//!
//! Boots every machine from one frozen image per workload kind,
//! runs the fleet across a work-stealing queue, prints aggregate
//! simulated-instructions-per-second plus p50/p99 per-machine
//! wall-clock, and writes a `ring-fleet/bench/v2` JSON report whose
//! `merged_snapshot_hash` — and, under chaos, health report and
//! quarantine hash — are bit-stable across `--threads` values for a
//! fixed seed — the determinism contract `tests/golden.rs` enforces
//! on the quick fleets. The report's
//! `merged_snapshot_hash_without_fastpath` hashes the merged snapshot
//! with its `fastpath` block zeroed: the simulation alone, whichever
//! engine ran each step.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use ring_fleet::report::{
    fleet_json, snapshot_hash, snapshot_hash_without_fastpath, HealthReport, Percentiles,
};
use ring_fleet::{run_fleet, ChaosParams, FleetConfig, WorkloadMix};

/// The value after `flag`, parsed.
fn value<T: FromStr>(flag: &str, it: &mut std::slice::Iter<String>) -> Result<T, String>
where
    T::Err: Display,
{
    let v = it.next().ok_or(format!("{flag} takes a value"))?;
    v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))
}

/// The fleet and the report path the command line asks for.
fn parse_args(args: &[String], quick: bool) -> Result<(FleetConfig, String), String> {
    let mut cfg = FleetConfig {
        machines: if quick { 256 } else { 10_000 },
        ..FleetConfig::default()
    };
    let mut out = "BENCH_fleet.json".to_string();
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_rate: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--machines" => cfg.machines = value(a, &mut it)?,
            "--threads" => cfg.threads = value(a, &mut it)?,
            "--seed" => cfg.seed = value(a, &mut it)?,
            "--mix" => {
                cfg.mix = match value::<String>(a, &mut it)?.as_str() {
                    "pagestorm" => WorkloadMix::PageStorm,
                    "gatestorm" => WorkloadMix::GateStorm,
                    "mixed" => WorkloadMix::Mixed,
                    other => {
                        return Err(format!("unknown mix {other:?} (pagestorm|gatestorm|mixed)"))
                    }
                }
            }
            "--chaos-seed" => chaos_seed = Some(value(a, &mut it)?),
            "--chaos-rate" => chaos_rate = Some(value(a, &mut it)?),
            "--out" => out = value(a, &mut it)?,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if chaos_seed.is_some() || chaos_rate.is_some() {
        cfg.supervisor.chaos = Some(ChaosParams {
            seed: chaos_seed.unwrap_or(0),
            mean_interval: chaos_rate.unwrap_or(50_000).max(1),
        });
    }
    Ok((cfg, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (cfg, out) = match parse_args(&args, quick) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };

    let result = run_fleet(&cfg);
    let completed = result.machines.iter().filter(|m| m.completed).count();
    let instructions: u64 = result.machines.iter().map(|m| m.instructions).sum();
    let wall_ns: Vec<u64> = result.machines.iter().map(|m| m.wall_ns).collect();
    let wall = Percentiles::of(&wall_ns);
    let dirty: Vec<u64> = result
        .machines
        .iter()
        .map(|m| u64::from(m.dirty_pages))
        .collect();
    let dirty_stats = Percentiles::of(&dirty);
    let image_pages = result.image_words.div_ceil(ring_segmem::COW_PAGE_WORDS);
    let hash = snapshot_hash(&result.merged);

    println!(
        "fleet: {} machines, {} threads, seed {:#x}",
        result.machines.len(),
        result.threads,
        cfg.seed
    );
    println!(
        "  completed {completed}/{}, {instructions} instructions in {:.3}s host \
         ({:.0} aggregate ips)",
        result.machines.len(),
        result.wall_seconds,
        instructions as f64 / result.wall_seconds.max(1e-9),
    );
    println!(
        "  per-machine wall-clock: p50 {:.3}ms  p99 {:.3}ms  max {:.3}ms",
        wall.p50 as f64 / 1e6,
        wall.p99 as f64 / 1e6,
        wall.max as f64 / 1e6,
    );
    println!(
        "  cow image: {} pages shared, dirty p50 {} p99 {} per machine",
        image_pages, dirty_stats.p50, dirty_stats.p99,
    );
    println!("  merged snapshot hash: fnv1a64:{hash:016x}");
    println!(
        "  without the fastpath block: fnv1a64:{:016x}",
        snapshot_hash_without_fastpath(&result.merged)
    );
    let health = HealthReport::of(&result.machines);
    if cfg.supervisor.chaos.is_some() {
        println!(
            "  chaos: {} ring-0 recoveries, {} restarts on {} machines \
             (mean {:.0} cycles to recover), {} quarantined",
            health.recoveries,
            health.restarts_total,
            health.restarted_machines,
            health.mean_cycles_to_recover(),
            health.quarantined.len(),
        );
        println!(
            "  quarantine hash: fnv1a64:{:016x}",
            health.quarantine_hash()
        );
    }

    if let Err(e) = std::fs::write(&out, fleet_json(&cfg, &result, quick)) {
        eprintln!("fleetbench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    assert!(
        result.member_errors.is_empty(),
        "host-side member errors: {:?}",
        result.member_errors
    );
    if cfg.supervisor.chaos.is_some() {
        // Under chaos, killed (confined) processes make `completed`
        // too strict; health means every machine either halted cleanly
        // or was explicitly quarantined.
        let accounted = result
            .machines
            .iter()
            .filter(|m| m.halted || m.health.is_quarantined())
            .count();
        assert_eq!(
            accounted,
            result.machines.len(),
            "every machine must halt or be quarantined"
        );
    } else {
        assert_eq!(
            completed,
            result.machines.len(),
            "every machine must run its workload to completion"
        );
    }
    ExitCode::SUCCESS
}
