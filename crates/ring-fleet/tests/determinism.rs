//! The fleet determinism contract, pinned.
//!
//! Host threading is a scheduling convenience, never an input: a fleet
//! run's merged snapshot must be bit-identical across worker-thread
//! counts, and any single member must be bit-identical to the same
//! spec run standalone on a private flat memory (the `runasm`-style
//! single-machine path). The copy-on-write boot image is likewise
//! required to be architecturally invisible. A fleet keeps only a
//! summary of each member, so members are compared through
//! `run_member`, which runs exactly what a fleet member runs, and the
//! merged snapshot must be the index-order fold of their snapshots.

mod common;

use common::{assert_same_summary, assert_summaries_of, healthy_fold, run_members};
use ring_fleet::report::{fleet_json, fnv1a64, HealthReport};
use ring_fleet::{
    build_image, run_fleet, run_member, run_standalone, ChaosParams, FleetConfig, SupervisorConfig,
    WorkloadMix,
};
use ring_metrics::MetricsSnapshot;

fn small_fleet() -> FleetConfig {
    FleetConfig {
        machines: 16,
        mix: WorkloadMix::Mixed,
        ..FleetConfig::default()
    }
}

#[test]
fn merged_snapshot_is_bit_identical_across_thread_counts() {
    let one = run_fleet(&FleetConfig {
        threads: 1,
        ..small_fleet()
    });
    let eight = run_fleet(&FleetConfig {
        threads: 8,
        ..small_fleet()
    });
    assert_eq!(one.threads, 1);
    assert_eq!(eight.threads, 8);
    let json_one = one.merged.to_json();
    let json_eight = eight.merged.to_json();
    assert_eq!(json_one, json_eight, "merged snapshot depends on threads");
    assert_eq!(fnv1a64(json_one.as_bytes()), fnv1a64(json_eight.as_bytes()));
    // Per-machine summaries are index-addressed and equally invariant.
    assert_eq!(one.machines.len(), eight.machines.len());
    for (a, b) in one.machines.iter().zip(eight.machines.iter()) {
        assert_same_summary(a, b);
    }
    // The merge is the members' own snapshots folded in index order.
    let members = run_members(&small_fleet());
    assert_summaries_of(&one.machines, &members);
    assert_eq!(
        json_one,
        healthy_fold(&members).to_json(),
        "merged snapshot is not the index-order fold of the members"
    );
}

#[test]
fn merged_snapshot_is_the_index_order_fold_at_any_thread_count() {
    // Enough machines that a worker that drains its range early steals,
    // splitting the fleet into runs that fold separately.
    let cfg = FleetConfig {
        machines: 24,
        ..small_fleet()
    };
    let members = run_members(&cfg);
    let want = healthy_fold(&members).to_json();
    for threads in [1, 2, 3, 8] {
        let fleet = run_fleet(&FleetConfig { threads, ..cfg });
        assert_eq!(fleet.threads, threads);
        assert!(fleet.member_errors.is_empty());
        assert_summaries_of(&fleet.machines, &members);
        assert_eq!(fleet.merged.to_json(), want, "{threads} threads");
    }
}

#[test]
fn a_fleet_starts_at_most_one_worker_per_machine() {
    let cfg = FleetConfig {
        machines: 3,
        ..small_fleet()
    };
    let many = run_fleet(&FleetConfig { threads: 16, ..cfg });
    let one = run_fleet(&FleetConfig { threads: 1, ..cfg });
    assert_eq!(many.threads, 3, "a worker with no machine was started");
    assert_eq!(one.threads, 1);
    assert_eq!(many.merged.to_json(), one.merged.to_json());
}

#[test]
fn fleet_member_is_bit_identical_to_standalone_flat_run() {
    let cfg = small_fleet();
    for id in [0, 1] {
        // One machine of each workload kind under the mixed assignment.
        let spec = cfg.spec(id);
        let image = build_image(&cfg, spec.kind);
        let member = run_member(&image, &cfg, spec);
        let standalone = run_standalone(&cfg, spec);
        assert!(member.completed && standalone.completed);
        assert_eq!(member.instructions, standalone.instructions);
        assert_eq!(member.cycles, standalone.cycles);
        assert_eq!(
            member.snapshot.to_json(),
            standalone.snapshot.to_json(),
            "machine {id}: copy-on-write boot must be architecturally invisible"
        );
        assert_eq!(
            standalone.dirty_pages, 0,
            "flat boots have no copy-on-write overlay"
        );
    }
}

#[test]
fn members_share_almost_all_of_the_image() {
    let cfg = small_fleet();
    let result = run_fleet(&cfg);
    let image_pages = result.image_words.div_ceil(ring_segmem::COW_PAGE_WORDS) as u64;
    assert!(image_pages > 0);
    for m in &result.machines {
        assert!(
            u64::from(m.dirty_pages) <= image_pages / 4,
            "machine {} dirtied {}/{} pages — the image is not shared",
            m.spec.id,
            m.dirty_pages,
            image_pages
        );
    }
}

#[test]
fn fleet_completes_and_reports_consistently() {
    let cfg = small_fleet();
    let result = run_fleet(&cfg);
    assert_eq!(result.machines.len(), cfg.machines);
    assert!(result.machines.iter().all(|m| m.completed));
    let sum: u64 = result.machines.iter().map(|m| m.instructions).sum();
    assert_eq!(
        result.merged.instructions, sum,
        "merged totals equal the sum of members"
    );
    assert!(result.member_errors.is_empty(), "no host-side failures");
    let json = fleet_json(&cfg, &result, true);
    for needle in [
        "\"schema\": \"ring-fleet/bench/v2\"",
        "\"machines\": 16",
        "\"pagestorm\": 8",
        "\"gatestorm\": 8",
        "\"merged_snapshot_hash\": \"fnv1a64:",
        "\"p50\"",
        "\"p99\"",
        "\"shared_fraction\"",
        "\"chaos\": {\"enabled\": false",
        "\"quarantine_hash\": \"fnv1a64:",
        "\"member_errors\": 0",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}

fn chaotic_fleet(threads: usize) -> FleetConfig {
    FleetConfig {
        threads,
        supervisor: SupervisorConfig {
            chaos: Some(ChaosParams {
                seed: 0xC4A05,
                mean_interval: 300,
            }),
            checkpoint_every: 500,
            ..SupervisorConfig::default()
        },
        ..small_fleet()
    }
}

#[test]
fn chaos_fleet_is_bit_identical_across_thread_counts() {
    let one = run_fleet(&chaotic_fleet(1));
    let eight = run_fleet(&chaotic_fleet(8));
    assert!(one.member_errors.is_empty() && eight.member_errors.is_empty());
    assert_eq!(
        one.merged.to_json(),
        eight.merged.to_json(),
        "chaos merged snapshot depends on threads"
    );
    let health_one = HealthReport::of(&one.machines);
    let health_eight = HealthReport::of(&eight.machines);
    assert_eq!(health_one, health_eight, "health report depends on threads");
    assert_eq!(health_one.quarantine_hash(), health_eight.quarantine_hash());
    assert!(
        health_one.recoveries > 0,
        "the campaign must actually inject (got a silent no-op)"
    );
    assert_eq!(one.machines.len(), eight.machines.len());
    for (a, b) in one.machines.iter().zip(eight.machines.iter()) {
        assert_same_summary(a, b);
    }
    let members = run_members(&chaotic_fleet(1));
    assert_summaries_of(&one.machines, &members);
    assert_eq!(
        one.merged.to_json(),
        healthy_fold(&members).to_json(),
        "chaos merged snapshot is not the index-order fold of the members"
    );
}

/// A snapshot's JSON without its `fastpath` block, the one part that
/// legitimately depends on the engine.
fn arch_json(snapshot: &MetricsSnapshot) -> String {
    let mut snapshot = snapshot.clone();
    snapshot.fastpath = Default::default();
    snapshot.to_json()
}

#[test]
fn chaos_fleet_is_bit_identical_with_fast_path_on_and_off() {
    let on = run_fleet(&chaotic_fleet(4));
    let off = run_fleet(&FleetConfig {
        fastpath: false,
        ..chaotic_fleet(4)
    });
    assert!(on.member_errors.is_empty() && off.member_errors.is_empty());
    assert_eq!(on.machines.len(), off.machines.len());
    for (a, b) in on.machines.iter().zip(off.machines.iter()) {
        let id = a.spec.id;
        assert_eq!(a.instructions, b.instructions, "machine {id} instructions");
        assert_eq!(a.cycles, b.cycles, "machine {id} cycles");
        assert_eq!(a.halted, b.halted, "machine {id} halt");
        assert_eq!(
            format!("{:?}", a.health),
            format!("{:?}", b.health),
            "machine {id} health"
        );
    }
    let members_on = run_members(&chaotic_fleet(4));
    let members_off = run_members(&FleetConfig {
        fastpath: false,
        ..chaotic_fleet(4)
    });
    assert_eq!(members_on.len(), 16);
    for (a, b) in members_on.iter().zip(&members_off) {
        assert_eq!(
            arch_json(&a.snapshot),
            arch_json(&b.snapshot),
            "machine {}: a chaos injection must not depend on the fast path",
            a.spec.id
        );
    }
    assert_eq!(arch_json(&on.merged), arch_json(&off.merged));
}

#[test]
fn chaos_member_is_bit_identical_to_standalone_flat_run() {
    let cfg = chaotic_fleet(1);
    for id in [0, 1] {
        let spec = cfg.spec(id);
        let image = build_image(&cfg, spec.kind);
        let member = run_member(&image, &cfg, spec);
        let standalone = run_standalone(&cfg, spec);
        assert_eq!(member.instructions, standalone.instructions);
        assert_eq!(member.cycles, standalone.cycles);
        assert_eq!(member.halted, standalone.halted);
        assert_eq!(member.health.restarts, standalone.health.restarts);
        assert_eq!(
            member.snapshot.to_json(),
            standalone.snapshot.to_json(),
            "machine {id}: supervision must not make copy-on-write visible"
        );
    }
}

#[test]
fn different_seeds_change_the_fleet() {
    let a = run_fleet(&small_fleet());
    let b = run_fleet(&FleetConfig {
        seed: 1,
        ..small_fleet()
    });
    assert_ne!(
        a.merged.to_json(),
        b.merged.to_json(),
        "the seed must actually steer the workloads"
    );
}
