//! The self-healing supervisor, pinned: restart from checkpoints,
//! quarantine after an exhausted restart budget, host-panic capture,
//! and the isolation guarantee — a quarantined machine never perturbs
//! a healthy machine's result.

use ring_fleet::report::HealthReport;
use ring_fleet::{
    run_fleet, ChaosParams, FailureClass, FleetConfig, SupervisorConfig, WorkloadMix,
};

/// A fleet whose instruction budget is far too small to finish: every
/// attempt wedges, so every machine burns its restart budget (restoring
/// from mid-run checkpoints along the way) and ends quarantined.
fn doomed_fleet() -> FleetConfig {
    FleetConfig {
        machines: 4,
        threads: 2,
        budget: 60,
        supervisor: SupervisorConfig {
            chaos: Some(ChaosParams {
                seed: 5,
                mean_interval: 10_000,
            }),
            // Well under one attempt's cycle span, so checkpoints are
            // actually captured and restarts actually restore them.
            checkpoint_every: 100,
            restart_budget: 2,
            ..SupervisorConfig::default()
        },
        ..FleetConfig::default()
    }
}

#[test]
fn exhausted_restart_budget_quarantines_deterministically() {
    let a = run_fleet(&doomed_fleet());
    let b = run_fleet(&FleetConfig {
        threads: 1,
        ..doomed_fleet()
    });
    assert!(a.member_errors.is_empty());
    for m in &a.machines {
        // Every attempt gets a fresh instruction budget from the last
        // checkpoint, so a doomed machine either ratchets its way to a
        // clean halt across restarts or burns the whole restart budget
        // and is quarantined — nothing in between.
        assert_eq!(m.health.restarts, 2, "the full restart budget is spent");
        assert!(
            m.health.recovery_cycles > 0,
            "restarts must charge backoff and rolled-back work"
        );
        match &m.health.quarantined {
            Some(q) => {
                // The budget guarantees failure but not its flavor:
                // most attempts wedge, and some die to a genuine
                // post-recovery invariant violation when the fault
                // lands in paging state.
                assert!(
                    matches!(
                        q.class,
                        FailureClass::Wedged | FailureClass::InvariantViolation
                    ),
                    "unexpected quarantine class {}",
                    q.class
                );
                assert_eq!(
                    m.health.failures.len(),
                    3,
                    "original attempt plus both restarts each failed"
                );
                assert!(!m.halted && !m.completed);
            }
            None => {
                assert!(m.halted, "an unquarantined doomed machine healed");
                assert_eq!(m.health.failures.len(), 2);
            }
        }
    }
    let (ha, hb) = (HealthReport::of(&a.machines), HealthReport::of(&b.machines));
    // Pin the seed's outcome: checkpoint restarts genuinely heal at
    // least one machine (restart progress is real), and at least one
    // machine exhausts its budget into quarantine.
    assert!(!ha.quarantined.is_empty(), "no machine was quarantined");
    assert!(
        ha.quarantined.len() < a.machines.len(),
        "no machine healed through restarts"
    );
    // Quarantine is itself part of the determinism contract.
    assert_eq!(ha, hb, "quarantine outcome depends on threads");
    assert_eq!(ha.quarantine_hash(), hb.quarantine_hash());
    // The healthy merge folds exactly the non-quarantined machines.
    let mut healthy = ring_metrics::MetricsSnapshot::default();
    for m in a.machines.iter().filter(|m| !m.health.is_quarantined()) {
        healthy.merge(&m.snapshot);
    }
    assert_eq!(
        a.merged.to_json(),
        healthy.to_json(),
        "quarantined machines must never reach the healthy merge"
    );
}

#[test]
fn host_kill_injector_quarantines_without_perturbing_healthy_machines() {
    let plain = FleetConfig {
        machines: 4,
        threads: 2,
        ..FleetConfig::default()
    };
    let killed = FleetConfig {
        supervisor: SupervisorConfig {
            kill_machine: Some(2),
            restart_budget: 1,
            ..SupervisorConfig::default()
        },
        ..plain
    };
    let baseline = run_fleet(&plain);
    let result = run_fleet(&killed);
    assert!(
        result.member_errors.is_empty(),
        "kills are health, not errors"
    );

    let victim = &result.machines[2];
    let q = victim
        .health
        .quarantined
        .as_ref()
        .expect("the killed machine ends quarantined");
    assert_eq!(q.class, FailureClass::HostPanic);
    assert!(q.detail.contains("kill injector"), "{}", q.detail);
    assert_eq!(
        victim.health.failures.len(),
        2,
        "one original try + one restart"
    );

    // Every other machine's result is bit-identical to the kill-free
    // fleet: quarantine is perfectly isolated.
    for id in [0, 1, 3] {
        let (b, r) = (&baseline.machines[id], &result.machines[id]);
        assert_eq!(b.instructions, r.instructions);
        assert_eq!(b.cycles, r.cycles);
        assert_eq!(
            b.snapshot.to_json(),
            r.snapshot.to_json(),
            "machine {id} perturbed by machine 2's quarantine"
        );
    }

    let health = HealthReport::of(&result.machines);
    assert_eq!(health.quarantined.len(), 1);
    assert_eq!(health.quarantined[0].id, 2);
    assert_eq!(
        health.failures_by_class[FailureClass::HostPanic as usize],
        2
    );
}

#[test]
fn hot_chaos_fleet_heals_and_reports() {
    // A campaign hot enough to inject plenty of faults; ring-0 recovery
    // plus the supervisor must leave every machine halted or
    // quarantined, and the health report must account for the faults.
    let cfg = FleetConfig {
        machines: 8,
        threads: 4,
        mix: WorkloadMix::Mixed,
        supervisor: SupervisorConfig {
            chaos: Some(ChaosParams {
                seed: 0xDEAD_BEEF,
                mean_interval: 100,
            }),
            checkpoint_every: 250,
            ..SupervisorConfig::default()
        },
        ..FleetConfig::default()
    };
    let result = run_fleet(&cfg);
    assert!(result.member_errors.is_empty());
    for m in &result.machines {
        assert!(
            m.halted || m.health.is_quarantined(),
            "machine {} neither halted nor quarantined",
            m.spec.id
        );
    }
    let health = HealthReport::of(&result.machines);
    assert!(
        health.recoveries > 0,
        "a campaign this hot must exercise ring-0 recovery"
    );
}

/// Runs one doomed page-storm member under the supervisor with a build
/// closure that counts its calls, and returns (restarts, builds).
fn count_builds(checkpoint_every: u64) -> (u32, usize) {
    use ring_os::workload::{install_page_storm, StormSpec};
    use ring_os::System;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let mut cfg = doomed_fleet();
    cfg.supervisor.checkpoint_every = checkpoint_every;
    let builds = AtomicUsize::new(0);
    let build = || {
        builds.fetch_add(1, Ordering::Relaxed);
        let mut sys = System::boot_with(cfg.system_config());
        let procs = install_page_storm(
            &mut sys,
            &StormSpec {
                procs: cfg.procs,
                pages: cfg.pages,
                rounds: cfg.base_rounds,
            },
        );
        sys.enable_metrics();
        sys.machine.set_timer(Some(cfg.quantum));
        (sys, procs)
    };
    let result = ring_fleet::run_supervised(&build, &cfg, cfg.spec(0));
    (result.health.restarts, builds.load(Ordering::Relaxed))
}

#[test]
fn restarts_resume_checkpoint_clones_without_rebuilding() {
    // Checkpoints every 100 cycles: attempt 0 captures one before it
    // wedges, so both restarts resume clones and the member is built
    // exactly once.
    assert_eq!(count_builds(100), (2, 1));
    // No checkpoint before the first failure: each restart is rebuilt
    // from scratch, as attempt 0 was.
    assert_eq!(count_builds(u64::MAX / 4), (2, 3));
}
