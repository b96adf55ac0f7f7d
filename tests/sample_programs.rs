//! The shipped sample assembly programs (`examples/asm/*.rasm`)
//! assemble and compute the right answers on the simulator.

use multiring::cli::{MachineArgs, Session};
use multiring::cpu::machine::RunExit;
use multiring::cpu::native::NativeAction;
use multiring::cpu::testkit::World;

fn run_sample(path: &str, budget: u64) -> (World, RunExit) {
    let mut world = sample(path, true);
    let exit = world.machine.run(budget);
    (world, exit)
}

/// The bare world `runasm` builds for `path`, on the fast path or not.
fn sample(path: &str, fastpath: bool) -> World {
    let args = MachineArgs {
        file: Some(path.to_string()),
        fastpath,
        ..MachineArgs::default()
    };
    let Session::Bare {
        mut world, trap, ..
    } = args.build().expect("sample assembles")
    else {
        panic!("no --procs builds the bare world");
    };
    world
        .machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    world
}

#[test]
fn fibonacci_sample_computes_fib_12() {
    let (world, exit) = run_sample("examples/asm/fibonacci.rasm", 10_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(world.machine.a().raw(), 144);
    // The stored sequence is right too.
    let data = ring_core::addr::SegNo::new(11).unwrap();
    let expect = [0u64, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89];
    for (i, &v) in expect.iter().enumerate() {
        assert_eq!(world.peek(data, i as u32).raw(), v, "fib({i})");
    }
}

#[test]
fn sieve_sample_counts_primes_below_64() {
    let (world, exit) = run_sample("examples/asm/sieve.rasm", 50_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(world.machine.a().raw(), 18, "18 primes below 64");
    let data = ring_core::addr::SegNo::new(11).unwrap();
    assert_eq!(world.peek(data, 13).raw(), 0, "13 is prime");
    assert_eq!(world.peek(data, 15).raw(), 1, "15 is composite");
}

/// The access heatmap files each operand reference under its class. In
/// the sieve's data segment 11, its stores (STA, STZ, AOS) count as
/// writes and its loads as reads; in its code segment 10, its taken
/// transfers count as executes beside the fetches, and the one read is
/// the indirect word EAP follows. Both engines agree.
#[test]
fn sieve_heatmap_counts_stores_as_writes_and_transfers_as_executes() {
    for fastpath in [true, false] {
        let mut world = sample("examples/asm/sieve.rasm", fastpath);
        world.machine.enable_metrics();
        assert_eq!(world.machine.run(50_000), RunExit::Halted);
        assert_eq!(world.machine.stats().fast_steps > 0, fastpath);
        let snap = world.machine.metrics_snapshot();
        let heat = |segno| {
            let h = snap.heatmap.get(segno).expect("segment referenced");
            (h.reads, h.writes, h.executes)
        };
        assert_eq!(heat(11), (489, 273, 0), "data segment, fastpath {fastpath}");
        assert_eq!(heat(10), (1, 0, 1562), "code segment, fastpath {fastpath}");
    }
}

#[test]
fn subroutine_sample_uses_internal_calls() {
    let (world, exit) = run_sample("examples/asm/subroutine.rasm", 1_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(world.machine.a().raw(), 20);
    // Two same-ring CALLs and RETURNs; no ring was crossed.
    let st = world.machine.stats();
    assert_eq!(st.calls_same_ring, 2);
    assert_eq!(st.returns_same_ring, 2);
    assert_eq!(st.calls_downward, 0);
}

#[test]
fn gcd_sample_computes_gcd() {
    let (world, exit) = run_sample("examples/asm/gcd.rasm", 5_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(world.machine.a().raw(), 21, "gcd(252, 105) = 21");
}
