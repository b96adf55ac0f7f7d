//! Property: address spaces isolate. No instruction sequence one
//! process can run reaches a segment that is mapped only in another
//! process's descriptor segment — the probe aborts on a segment fault
//! and the victim's storage is untouched.

use proptest::prelude::*;
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_os::System;

/// How the probing program tries to reach the victim segment.
#[derive(Debug, Clone, Copy)]
enum Probe {
    Read,
    Write,
    Execute,
}

fn arb_probe() -> impl Strategy<Value = Probe> {
    (0u8..3).prop_map(|m| match m {
        0 => Probe::Read,
        1 => Probe::Write,
        _ => Probe::Execute,
    })
}

/// A program that probes `(segno, offset)` once and then exits. If the
/// probe is stopped by the hardware the exit is never reached.
fn probe_source(probe: Probe, segno: u32, offset: u32) -> String {
    let op = match probe {
        Probe::Read => "lda",
        Probe::Write => "sta",
        Probe::Execute => "tra",
    };
    format!(
        "        lda one\n        {op} p,*\n        drl 0o777\none:    dw 1\np:      its 4, {segno}, {offset}\n"
    )
}

proptest! {
    /// Process A (alice) runs a random read/write/execute probe at a
    /// segment number mapped only in process B's (bob's) descriptor
    /// segment. The probe must abort A on a segment fault, and bob's
    /// words must keep their sentinel value.
    #[test]
    fn other_processes_segments_are_unreachable(
        probe in arb_probe(),
        target in 66u32..72,
        offset in 0u32..64,
        sentinel in 2u64..1000,
    ) {
        let mut sys = System::boot();
        let alice = sys.login("alice");
        let bob = sys.login("bob");

        // Fill bob's address space up to `target`; the segment at
        // `target` holds the sentinel. None of these exist for alice.
        let mut victim = None;
        for segno in 64..=target {
            let staged = sys.install_data(
                bob,
                Ring::R4,
                Ring::R4,
                &vec![Word::new(sentinel); 64],
                64,
            );
            prop_assert_eq!(staged.segno, segno);
            if segno == target {
                victim = Some(staged.segno);
            }
        }
        let victim = victim.expect("target installed");
        let victim_base = sys.read_sdw(bob, victim).addr;

        // Alice's probe program is her only segment (her segno 64).
        let staged = sys.install_code(
            alice,
            Ring::R4,
            Ring::R4,
            0,
            &probe_source(probe, target, offset),
        );
        sys.run_user(alice, staged.segno, 0, Ring::R4, 10_000);

        // The probe died on the segment fault instead of exiting.
        let st = sys.state();
        let reason = st.processes[alice].aborted.as_deref();
        prop_assert!(
            matches!(reason, Some(r) if r != "exit"),
            "probe {probe:?} at {target}|{offset} should abort alice, got {reason:?}"
        );
        // Bob's storage is bit-for-bit untouched.
        for i in 0..64 {
            let w = sys
                .machine
                .phys()
                .peek(victim_base.wrapping_add(i))
                .expect("victim word");
            prop_assert_eq!(w.raw(), sentinel, "victim word {i} changed");
        }
    }
}
