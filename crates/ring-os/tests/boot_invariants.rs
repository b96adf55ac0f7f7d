//! Invariants of a freshly booted system and a fresh login.

use ring_core::ring::Ring;
use ring_os::conventions::{hcs, ring1, segs};
use ring_os::System;

#[test]
fn login_installs_the_paper_layout() {
    let mut sys = System::boot();
    let pid = sys.login("alice");

    // Trap segment: ring-0 only, executable, room for vectors + save.
    let trap = sys.read_sdw(pid, segs::TRAP);
    assert!(trap.execute && trap.present && trap.unpaged);
    assert_eq!(trap.r2, Ring::R0);
    assert!(trap.length_words() >= 128);

    // HCS gates: execute in ring 0, gate extension through ring 5
    // ("procedures executing in rings 6 and 7 are not given access to
    // supervisor gates"), one gate word per service.
    let hcs_sdw = sys.read_sdw(pid, segs::HCS);
    assert_eq!(
        (hcs_sdw.r1, hcs_sdw.r2, hcs_sdw.r3),
        (Ring::R0, Ring::R0, Ring::R5)
    );
    assert_eq!(hcs_sdw.gate, hcs::COUNT);

    // Ring-1 gates: execute in ring 1, same extension.
    let r1_sdw = sys.read_sdw(pid, segs::RING1);
    assert_eq!(
        (r1_sdw.r1, r1_sdw.r2, r1_sdw.r3),
        (Ring::R1, Ring::R1, Ring::R5)
    );
    assert_eq!(r1_sdw.gate, ring1::COUNT);

    // Supervisor data per layer.
    assert_eq!(sys.read_sdw(pid, segs::SUP_DATA).r1, Ring::R0);
    assert_eq!(sys.read_sdw(pid, segs::RING1_DATA).r1, Ring::R1);

    // Eight per-ring stacks: brackets end at their ring, next-free word
    // initialised.
    for r in Ring::all() {
        let s = sys.read_sdw(pid, segs::STACK_BASE + u32::from(r.number()));
        assert_eq!(s.r1, r, "stack {r} write bracket");
        assert_eq!(s.r2, r, "stack {r} read bracket");
        assert!(s.write && s.read && !s.execute);
        let first = sys.machine.phys().peek(s.addr).unwrap();
        assert_eq!(
            first.raw(),
            u64::from(ring_os::conventions::frame::FIRST_FRAME)
        );
    }

    // The DBR uses the standard stack base.
    let dbr = sys.state().processes[pid].dbr;
    assert_eq!(dbr.stack_base.value(), segs::STACK_BASE);
    assert_eq!(dbr.bound, segs::DESCRIPTOR_SLOTS);
}

#[test]
fn two_logins_share_supervisor_but_not_stacks() {
    let mut sys = System::boot();
    let a = sys.login("alice");
    let b = sys.login("bob");
    // Same physical supervisor segments.
    assert_eq!(
        sys.read_sdw(a, segs::HCS).addr,
        sys.read_sdw(b, segs::HCS).addr
    );
    assert_eq!(
        sys.read_sdw(a, segs::TRAP).addr,
        sys.read_sdw(b, segs::TRAP).addr
    );
    // Different descriptor segments and different stacks.
    let dbr_a = sys.state().processes[a].dbr;
    let dbr_b = sys.state().processes[b].dbr;
    assert_ne!(dbr_a.addr, dbr_b.addr);
    for r in Ring::all() {
        let seg = segs::STACK_BASE + u32::from(r.number());
        assert_ne!(
            sys.read_sdw(a, seg).addr,
            sys.read_sdw(b, seg).addr,
            "ring {r} stacks are per-process"
        );
    }
}

#[test]
fn fresh_process_has_no_user_segments() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let st = sys.state();
    let p = &st.processes[pid];
    assert!(p.kst.is_empty());
    assert_eq!(p.next_segno, segs::FIRST_USER);
    assert!(p.return_gates.is_empty());
    assert!(p.aborted.is_none());
}

#[test]
fn logout_removes_the_process_from_scheduling() {
    let mut sys = System::boot();
    let a = sys.login("alice");
    let b = sys.login("bob");
    sys.logout(a);
    {
        let st = sys.state();
        assert_eq!(st.processes[a].aborted.as_deref(), Some("logout"));
        assert!(st.processes[a].saved.is_none());
        assert!(st.next_runnable(a) == Some(b));
    }
    // Storage survives the process.
    sys.create_segment(
        "kept",
        ring_os::acl::Acl::new(),
        vec![ring_core::word::Word::new(1)],
    );
    assert_eq!(sys.state().fs.segment_count(), 1);
}
