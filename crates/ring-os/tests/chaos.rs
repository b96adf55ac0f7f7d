//! Deterministic chaos: fault-injection campaigns over the
//! multiprogramming kernel must be (a) survivable — every injected
//! fault is detected and then recovered, confined to a per-process
//! kill, or absorbed by fast-path degradation, never a machine abort —
//! and (b) bit-for-bit reproducible: the same `--chaos-seed` replays
//! to the identical final image, metrics snapshot included, and a
//! `FaultPlan::Off` engine is indistinguishable from no engine at all.

use ring_cpu::machine::RunExit;
use ring_cpu::recorder::{replay, run_recorded, Recorder};
use ring_cpu::FaultPlan;
use ring_os::boot::{System, SystemConfig};
use ring_os::workload::{install_page_storm, StormProc, StormSpec};

use proptest::prelude::*;

fn build_chaos(
    spec: StormSpec,
    frames: u32,
    quantum: u64,
    plan: Option<FaultPlan>,
) -> (System, Vec<StormProc>) {
    let cfg = SystemConfig {
        quantum,
        frame_budget: Some(frames),
        ..SystemConfig::default()
    };
    let mut sys = System::boot_with(cfg);
    let procs = install_page_storm(&mut sys, &spec);
    if let Some(plan) = plan {
        sys.enable_chaos(plan);
    }
    sys.machine.set_timer(Some(quantum));
    (sys, procs)
}

/// The scheduler's dispatches as the span log holds them: the pid
/// dispatched and the cycle of the dispatch, in order.
fn dispatches(sys: &mut System) -> Vec<(u32, u64)> {
    sys.take_span_events()
        .into_iter()
        .filter_map(|e| match e {
            ring_trace::SpanEvent::Sched { pid, cycles } => Some((pid, cycles)),
            _ => None,
        })
        .collect()
}

fn storm() -> StormSpec {
    StormSpec {
        procs: 3,
        pages: 5,
        rounds: 10,
    }
}

fn campaign(seed: u64, mean_interval: u64) -> FaultPlan {
    FaultPlan::Campaign {
        seed,
        mean_interval,
    }
}

/// Runs a seeded campaign to completion and returns the system plus
/// its exit. The machine itself must survive: chaos may kill
/// processes, never the simulator.
fn run_campaign(seed: u64, mean_interval: u64) -> (System, RunExit) {
    let (mut sys, _) = build_chaos(storm(), 8, 300, Some(campaign(seed, mean_interval)));
    let exit = sys.machine.run(10_000_000);
    (sys, exit)
}

#[test]
fn campaign_survives_and_accounts_for_every_fault() {
    let (sys, exit) = run_campaign(7, 400);
    assert_eq!(exit, RunExit::Halted, "chaos must never abort the machine");
    let injected = sys.machine.chaos().injected_total();
    let detected = sys.machine.chaos().detected_total();
    assert!(injected > 0, "a 400-cycle campaign over a storm injects");
    assert!(
        detected <= injected,
        "detection cannot exceed injection ({detected} > {injected})"
    );
    // Every process ends decisively: clean exit or a confined kill.
    let st = sys.state();
    for p in &st.processes {
        assert!(
            p.aborted.is_some(),
            "process left in limbo after the campaign"
        );
    }
    let cs = sys.chaos_stats();
    assert_eq!(
        cs.invariant_failures, 0,
        "recovery left the protection state inconsistent"
    );
    sys.check_invariants()
        .expect("post-campaign invariant check");
}

#[test]
fn same_seed_same_world_bit_identical() {
    let run = || {
        let (mut sys, _) = build_chaos(storm(), 8, 300, Some(campaign(42, 500)));
        sys.enable_spans();
        let exit = sys.machine.run(10_000_000);
        (sys, exit)
    };
    let (mut a, exit_a) = run();
    let (mut b, exit_b) = run();
    assert_eq!(exit_a, exit_b);
    assert_eq!(
        a.machine.capture_image(),
        b.machine.capture_image(),
        "identical seeds must produce identical final machine images"
    );
    assert_eq!(
        a.metrics_json(),
        b.metrics_json(),
        "identical seeds must produce identical metrics snapshots"
    );
    let schedule = dispatches(&mut a);
    assert!(schedule.len() > 1, "the storm switches processes");
    assert_eq!(
        schedule,
        dispatches(&mut b),
        "identical seeds must produce identical schedules"
    );
}

#[test]
fn record_replay_bit_identical_under_chaos() {
    let (mut a, _) = build_chaos(storm(), 8, 300, Some(campaign(11, 400)));
    let mut rec = Recorder::start(&a.machine, "chaos-storm", 10_000);
    let exit = run_recorded(&mut a.machine, 10_000_000, &mut rec);
    assert_eq!(exit, RunExit::Halted);
    assert!(
        a.machine.chaos().injected_total() > 0,
        "recording should contain injected faults"
    );
    let recording = rec.finish(&a.machine);

    let (mut b, _) = build_chaos(storm(), 8, 300, Some(campaign(11, 400)));
    let report = replay(&mut b.machine, &recording).expect("replay applies");
    assert!(report.ok, "chaos replay diverged: {:?}", report.mismatch);
    assert_eq!(
        a.metrics_json(),
        b.metrics_json(),
        "replayed metrics snapshot must match the recording's"
    );
    assert_eq!(
        a.chaos_stats().export_pairs(),
        b.chaos_stats().export_pairs(),
        "recovery accounting must replay identically"
    );
}

#[test]
fn plan_off_is_indistinguishable_from_no_engine() {
    let (mut with_off, _) = build_chaos(storm(), 8, 300, Some(FaultPlan::Off));
    let (mut without, _) = build_chaos(storm(), 8, 300, None);
    let exit_a = with_off.machine.run(10_000_000);
    let exit_b = without.machine.run(10_000_000);
    assert_eq!(exit_a, RunExit::Halted);
    assert_eq!(exit_a, exit_b);
    assert_eq!(
        with_off.machine.capture_image(),
        without.machine.capture_image(),
        "an Off plan must not perturb execution"
    );
    assert_eq!(
        with_off.metrics_json(),
        without.metrics_json(),
        "an Off plan must not perturb the metrics snapshot"
    );
    assert_eq!(with_off.machine.chaos().injected_total(), 0);
}

#[test]
fn explicit_schedule_injects_at_the_named_cycles() {
    let plan = FaultPlan::parse(
        "# one of each early fault\n\
         2000 mem_parity\n\
         4000 tlb_corrupt\n\
         6000 spurious_timer\n",
    )
    .expect("plan parses");
    let (mut sys, _) = build_chaos(storm(), 8, 300, Some(plan));
    let exit = sys.machine.run(10_000_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(sys.machine.chaos().injected_total(), 3);
    sys.check_invariants().expect("invariants after schedule");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seed survives a hostile (high-rate) campaign, and running
    /// it twice is bit-identical — the determinism contract that makes
    /// a chaos failure reportable as "seed N".
    #[test]
    fn any_seed_survives_and_reproduces(seed in 1u64..1_000_000) {
        let (a, exit_a) = run_campaign(seed, 300);
        prop_assert_eq!(exit_a, RunExit::Halted);
        prop_assert!(a.check_invariants().is_ok());
        prop_assert_eq!(a.chaos_stats().invariant_failures, 0);
        let (b, exit_b) = run_campaign(seed, 300);
        prop_assert_eq!(exit_a, exit_b);
        prop_assert_eq!(a.machine.capture_image(), b.machine.capture_image());
        prop_assert_eq!(a.metrics_json(), b.metrics_json());
    }
}

#[test]
fn misordered_ring_fields_break_bracket_ordering() {
    // Decoding clamps R2 up to R1 and R3 up to R2, so only the raw
    // fields of a stored descriptor can show R1 > R2.
    let mut sys = System::boot();
    let pid = sys.login("alice");
    sys.check_invariants().expect("a fresh login is consistent");
    let dbr = sys.state().processes[pid].dbr;
    let segno = ring_core::addr::SegNo::new(ring_os::conventions::segs::SUP_DATA).unwrap();
    let w0_addr = dbr.sdw_addr(segno).unwrap();
    let w0 = sys.machine.phys().peek(w0_addr).unwrap();
    assert!(w0.bit(33), "the descriptor is present");
    let damaged = w0.with_field(24, 3, 5).with_field(27, 3, 3);
    sys.machine.phys_mut().poke(w0_addr, damaged).unwrap();
    let violation = sys.check_invariants().unwrap_err();
    assert_eq!(
        violation.class,
        ring_os::invariants::InvariantClass::BracketOrdering,
        "{violation}"
    );
}
