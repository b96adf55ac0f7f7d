//! A booted system is a plain owned value: a checkpoint is a clone, a
//! resumed checkpoint runs exactly as the original did from that point
//! (fast-path caches and their counters included), and a clone never
//! perturbs the system it was cloned from.

use ring_cpu::machine::RunExit;
use ring_cpu::FaultPlan;
use ring_os::workload::{install_page_storm, StormSpec};
use ring_os::{System, SystemConfig};

const _: () = {
    const fn clone_and_send<T: Clone + Send>() {}
    clone_and_send::<System>();
    clone_and_send::<ring_os::SystemCheckpoint>();
};

/// Everything a run leaves behind that a test can compare: the full
/// metrics snapshot (fast-path block included), registers, counters
/// and the final machine image.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    exit: RunExit,
    snapshot: String,
    image: Vec<u64>,
    a: u64,
    q: u64,
    cycles: u64,
    instructions: u64,
    injected: u64,
    aborted: Vec<Option<String>>,
}

/// A chaos page storm under frame pressure: demand paging, drum
/// traffic, preemption and injected faults with ring-0 recovery.
fn chaos_storm() -> System {
    let mut sys = System::boot_with(SystemConfig {
        phys_words: 1 << 17,
        quantum: 2_000,
        frame_budget: Some(6),
        ..SystemConfig::default()
    });
    install_page_storm(
        &mut sys,
        &StormSpec {
            procs: 3,
            pages: 8,
            rounds: 40,
        },
    );
    sys.enable_metrics();
    sys.machine.set_timer(Some(2_000));
    sys.enable_chaos(FaultPlan::Campaign {
        seed: 0x5eed,
        mean_interval: 1_500,
    });
    sys
}

/// Runs in 5 000-cycle slices to `until` cycles (or an earlier stop).
fn run_slices(sys: &mut System, until: u64) -> RunExit {
    loop {
        let at = sys.machine.cycles();
        if at >= until {
            return RunExit::CycleLimit;
        }
        let exit = sys.machine.run_to_cycle((at + 5_000).min(until), 1_000_000);
        if exit != RunExit::CycleLimit {
            return exit;
        }
    }
}

fn finish(mut sys: System) -> Outcome {
    let exit = sys.machine.run(5_000_000);
    Outcome {
        exit,
        snapshot: sys.metrics_json(),
        image: sys.machine.capture_image().into_words(),
        a: sys.machine.a().raw(),
        q: sys.machine.q().raw(),
        cycles: sys.machine.cycles(),
        instructions: sys.machine.stats().instructions,
        injected: sys.machine.chaos().injected_total(),
        aborted: sys
            .state()
            .processes
            .iter()
            .map(|p| p.aborted.clone())
            .collect(),
    }
}

#[test]
fn resumed_checkpoint_finishes_byte_identically() {
    let total = finish(chaos_storm()).cycles;
    let mut sys = chaos_storm();
    assert_eq!(run_slices(&mut sys, total / 3), RunExit::CycleLimit);
    let ck = sys.checkpoint();
    assert_eq!(ck.cycles(), sys.machine.cycles());
    let first = finish(sys);
    assert_eq!(first.exit, RunExit::Halted, "the storm runs to completion");
    assert!(first.injected > 0, "faults were injected");
    assert!(
        first.snapshot.contains("\"fastpath\""),
        "the comparison covers the fast-path block"
    );
    let again = finish(ck.resume());
    assert_eq!(first, again);
    // The checkpoint is reusable: a second resume is identical too.
    assert_eq!(first, finish(ck.resume()));
}

#[test]
fn clone_and_source_never_perturb_each_other() {
    let reference = finish(chaos_storm());
    let tenth = reference.cycles / 10;

    let mut source = chaos_storm();
    assert_eq!(run_slices(&mut source, 3 * tenth), RunExit::CycleLimit);
    let mut clone = source.clone();
    // Interleave the two, a tenth of the run at a time, so any state
    // they shared would be mutated out from under the other.
    for step in 4..9 {
        assert_eq!(run_slices(&mut clone, step * tenth), RunExit::CycleLimit);
        assert_eq!(run_slices(&mut source, step * tenth), RunExit::CycleLimit);
    }
    assert_eq!(finish(clone), reference, "the clone runs as the original");
    assert_eq!(finish(source), reference, "the source is unperturbed");
}
