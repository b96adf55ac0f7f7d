//! Helpers shared by the fleet's integration tests: a fleet's members
//! run one at a time through `run_member`, which is exactly what each
//! fleet worker runs, and the folds and summaries a fleet must match.

use ring_fleet::{
    build_image, run_member, FleetConfig, MachineResult, MemberSummary, WorkloadKind,
};
use ring_metrics::MetricsSnapshot;

/// Every member of `cfg`'s fleet, run in index order on this thread.
pub fn run_members(cfg: &FleetConfig) -> Vec<MachineResult> {
    let page = build_image(cfg, WorkloadKind::PageStorm);
    let gate = build_image(cfg, WorkloadKind::GateStorm);
    cfg.specs()
        .into_iter()
        .map(|spec| {
            let image = match spec.kind {
                WorkloadKind::PageStorm => &page,
                WorkloadKind::GateStorm => &gate,
            };
            run_member(image, cfg, spec)
        })
        .collect()
}

/// The snapshots of the non-quarantined `members`, folded in the order
/// given from `MetricsSnapshot::default()`: what the merged snapshot of
/// a fleet of them must equal.
pub fn healthy_fold<'a>(members: impl IntoIterator<Item = &'a MachineResult>) -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::default();
    for m in members {
        if !m.health.is_quarantined() {
            merged.merge(&m.snapshot);
        }
    }
    merged
}

/// Asserts that two summaries of one member agree in every field but
/// the host wall-clock time.
pub fn assert_same_summary(a: &MemberSummary, b: &MemberSummary) {
    let id = a.spec.id;
    assert_eq!(a.spec, b.spec, "machine {id} spec");
    assert_eq!(a.instructions, b.instructions, "machine {id} instructions");
    assert_eq!(a.cycles, b.cycles, "machine {id} cycles");
    assert_eq!(a.completed, b.completed, "machine {id} completion");
    assert_eq!(a.halted, b.halted, "machine {id} halt");
    assert_eq!(a.dirty_pages, b.dirty_pages, "machine {id} dirty pages");
    assert_eq!(a.recovered, b.recovered, "machine {id} recoveries");
    assert_eq!(
        format!("{:?}", a.health),
        format!("{:?}", b.health),
        "machine {id} health"
    );
}

/// Asserts that a fleet's summaries are those of `members`, one for
/// one.
pub fn assert_summaries_of(fleet: &[MemberSummary], members: &[MachineResult]) {
    assert_eq!(fleet.len(), members.len());
    for (summary, member) in fleet.iter().zip(members) {
        assert_same_summary(summary, &MemberSummary::from(member.clone()));
    }
}
