//! A machine built on a thread that has already run and dropped one
//! reuses that machine's fast-path tables (the per-thread stock of
//! clean tables in `ring_segmem::slot_table`). Reuse must leave no
//! trace: the second world's metrics snapshot, `fastpath` block
//! included, equals the same world's on a fresh thread.

use std::thread;

use ring_cpu::machine::RunExit;
use ring_cpu::testkit::World;
use ring_os::workload::micro;

type Builder = fn(bool, u64) -> World;

/// Runs a micro world to its halt and exports its metrics snapshot.
fn run(build: Builder, iters: u64) -> String {
    let mut w = build(true, iters);
    assert_eq!(w.machine.run(64 * iters + 10_000), RunExit::Halted);
    w.machine.metrics_snapshot().to_json()
}

/// Every ordered pair of worlds, a world after itself included: both
/// run ring-4 code in segment 10 and data in segment 11, so an entry
/// the first left behind would be one the second could hit.
#[test]
fn a_world_after_a_dropped_world_reports_what_it_reports_alone() {
    let worlds: [(&str, Builder, u64); 3] = [
        ("tight_loop", micro::tight_loop, 300),
        ("gate_storm", micro::gate_storm, 100),
        ("indirect_chain", micro::indirect_chain, 300),
    ];
    for (first, build_first, iters_first) in worlds {
        for (second, build_second, iters) in worlds {
            let alone = thread::spawn(move || run(build_second, iters))
                .join()
                .expect("fresh thread");
            let after = thread::spawn(move || {
                run(build_first, iters_first);
                run(build_second, iters)
            })
            .join()
            .expect("reusing thread");
            assert_eq!(after, alone, "{second} after {first}");
        }
    }
}
