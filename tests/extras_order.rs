//! The `extra` section of a metrics export lists its keys in a fixed
//! order, pinned against `tests/golden/snapshot-extras.txt`: an unmerged
//! snapshot in push order with the per-process `os.proc.<pid>.*` keys
//! last in pid order, a merged one with every key sorted (so
//! `os.proc.10.*` precedes `os.proc.2.*`). `MetricsSnapshot::extra`
//! answers every key either writer lists.

use multiring::cpu::machine::RunExit;
use multiring::cpu::FaultPlan;
use multiring::metrics::MetricsSnapshot;
use multiring::os::boot::{System, SystemConfig};
use multiring::os::workload::{install_page_storm, StormSpec};
use multiring::trace::json::{self, Json};

const GOLDEN: &str = include_str!("golden/snapshot-extras.txt");

/// The snapshot of a page storm of `procs` processes run to the end,
/// under a chaos campaign seeded `chaos` if one is given.
fn storm_snapshot(procs: usize, chaos: Option<u64>) -> MetricsSnapshot {
    let mut sys = System::boot_with(SystemConfig {
        quantum: 300,
        frame_budget: Some(16),
        ..SystemConfig::default()
    });
    let spec = StormSpec {
        procs,
        pages: 5,
        rounds: 3,
    };
    install_page_storm(&mut sys, &spec);
    if let Some(seed) = chaos {
        sys.enable_chaos(FaultPlan::Campaign {
            seed,
            mean_interval: 400,
        });
    }
    sys.machine.set_timer(Some(300));
    assert_eq!(sys.machine.run(10_000_000), RunExit::Halted);
    sys.metrics_snapshot()
}

/// A fleet-style fold of `snaps` from the default snapshot.
fn merged(snaps: &[&MetricsSnapshot]) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    for s in snaps {
        out.merge(s);
    }
    out
}

/// Each pinned case by its name in the golden file.
fn cases() -> Vec<(&'static str, MetricsSnapshot)> {
    let two = storm_snapshot(2, None);
    let twelve = storm_snapshot(12, None);
    let chaos_a = storm_snapshot(3, Some(7));
    let chaos_b = storm_snapshot(3, Some(11));
    vec![
        ("kernel-12", twelve.clone()),
        ("kernel-chaos", chaos_a.clone()),
        ("merge-2-12", merged(&[&two, &twelve])),
        ("merge-12-2", merged(&[&twelve, &two])),
        ("merge-chaos", merged(&[&chaos_a, &chaos_b])),
    ]
}

/// The `"extra": {...}` line of a JSON export.
fn extra_line(doc: &str) -> &str {
    doc.lines()
        .find(|l| l.trim_start().starts_with("\"extra\": "))
        .expect("an extra section")
        .trim()
}

#[test]
fn extras_keep_their_export_order() {
    let cases = cases();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(golden.len(), cases.len(), "one golden line per case");
    for ((name, snap), want) in cases.iter().zip(golden) {
        assert_eq!(format!("{name}: {}", extra_line(&snap.to_json())), want);
    }
}

#[test]
fn extra_answers_every_exported_key() {
    for (name, snap) in cases() {
        let doc = json::parse(&snap.to_json()).expect("export parses");
        let Some(Json::Obj(members)) = doc.get("extra") else {
            panic!("{name}: extra is an object");
        };
        assert!(!members.is_empty(), "{name}");
        for (key, v) in members {
            assert_eq!(snap.extra(key), v.as_u64(), "{name}: {key}");
        }
        let csv = snap.to_csv();
        for (key, v) in snap.extras() {
            assert!(
                csv.contains(&format!("\nextra.{key},{v}\n")),
                "{name}: {key}"
            );
        }
    }
}
