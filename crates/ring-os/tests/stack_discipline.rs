//! The paper's stack discipline, implemented entirely in machine code:
//!
//! * CALL generates the stack-base pointer `PR0` for the new ring; "a
//!   fixed word of each stack segment can point to the beginning of the
//!   next available stack area", so the callee builds its own `PR6`
//!   from `PR0` alone — no caller-supplied information.
//! * The callee saves the caller's stack pointer in its frame and
//!   restores it before the return ("it is reasonable to trust the
//!   called procedure to save the value left in the stack pointer
//!   register ... and then restore it").
//! * The return point was saved by the caller at a standard position
//!   in *its* stack area before the call, and the RETURN addresses it
//!   through the restored SP — whose ring field cannot be below the
//!   caller's ring, making the return secure.

use ring_core::registers::PtrReg;
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_os::conventions::{frame, segs};
use ring_os::System;

#[test]
fn full_stack_frame_discipline_in_machine_code() {
    let mut sys = System::boot();
    let pid = sys.login("alice");

    // The ring-1 service: allocates a frame from its own per-ring
    // stack, saves the caller's SP there, does its work (doubling the
    // word the caller left in Q), restores the caller's SP, pops the
    // frame, and returns through the caller-saved return pointer.
    let service_src = format!(
        "
        equ stackseg, {stack1}
        equ frsize, {frsize}
gate0:  ldq pr0|0           ; F := next free frame offset
        ; Build PR6 = stack|F: construct an ITS pair in the stack
        ; header scratch words (2,3), then EAP through it.
        lda =stackseg
        als 18
        adq =0              ; (keep Q = F)
        sta pr0|2           ; word0 so far: segno<<18
        stq pr0|3           ; temporarily park F
        lda pr0|2
        ada pr0|3           ; segno<<18 | F
        sta pr0|2
        stz pr0|3
        spri pr6, pr0|4     ; park the CALLER's SP pair in header scratch
        eap pr6, pr0|2,*    ; PR6 := our frame base
        ; Bump the next-free word.
        lda pr0|0
        ada =frsize
        sta pr0|0
        ; Move the parked caller SP into our frame (offset {saved_sp}).
        lda pr0|4
        sta pr6|{saved_sp}
        lda pr0|5
        sta pr6|{saved_sp_hi}
        ; ---- the body: A := 2 * caller's Q ----
        lda pr7|0           ; caller passed a data pointer in PR7
        ada pr7|0
        sta pr7|0           ; result back through the caller-level ptr
        ; ---- epilogue ----
        lda pr6|{saved_sp}  ; restore caller SP pair into header scratch
        sta pr0|4
        lda pr6|{saved_sp_hi}
        sta pr0|5
        ; Pop the frame.
        lda pr0|0
        sba =frsize
        sta pr0|0
        eap pr6, pr0|4,*    ; PR6 := caller's SP again (ring rides along)
        return pr6|{ret_slot},*  ; through the return point saved in the
                                 ; CALLER's stack frame
",
        stack1 = segs::STACK_BASE + 1,
        frsize = frame::SIZE,
        saved_sp = frame::SAVED_SP + 8,
        saved_sp_hi = frame::SAVED_SP + 9,
        ret_slot = 2,
    );
    let service = sys.install_code(pid, Ring::R1, Ring::R5, 1, &service_src);

    // The ring-4 caller: saves its return point at a standard position
    // in its own stack frame (SP|2,3 as an ITS pair), points PR7 at the
    // argument word, and calls down.
    let data = sys.install_data(pid, Ring::R4, Ring::R4, &[Word::new(21)], 16);
    let caller_src = format!(
        "
        eap pr7, datap,*
        eap pr3, retp       ; the return point...
        spri pr3, pr6|2     ; ...saved at the standard stack position
        eap pr3, gatep,*
        call pr3|0
retp:   drl 0o777
gatep:  its 4, {service}, 0
datap:  its 4, {data}, 0
",
        service = service.segno,
        data = data.segno,
    );
    let caller = sys.install_code(pid, Ring::R4, Ring::R4, 0, &caller_src);
    let exit = sys.run_user(pid, caller.segno, 0, Ring::R4, 10_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(
        sys.state().processes[pid].aborted.as_deref(),
        Some("exit"),
        "returned through the restored SP and exited cleanly"
    );
    // The body ran in ring 1 and doubled the argument.
    let sdw = sys.read_sdw(pid, data.segno);
    assert_eq!(sys.machine.phys().peek(sdw.addr).unwrap(), Word::new(42));
    // The callee's frame was popped: next-free is back at its initial
    // value in the ring-1 stack.
    let stack1 = sys.read_sdw(pid, segs::STACK_BASE + 1);
    assert_eq!(
        sys.machine.phys().peek(stack1.addr).unwrap(),
        Word::new(u64::from(frame::FIRST_FRAME)),
        "frame popped"
    );
    // No traps were needed in either direction.
    assert_eq!(sys.machine.stats().calls_downward, 1);
    assert_eq!(sys.machine.stats().returns_upward, 1);
    assert_eq!(sys.stats().upward_calls, 0);
}

#[test]
fn caller_stack_is_invisible_to_higher_rings() {
    // "Stack areas for these procedures are not accessible to
    // procedures executing in any ring m > n": a ring-4 program cannot
    // read the ring-1 stack at all.
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let src = format!(
        "
        eap pr4, sp1,*
        lda pr4|0           ; read ring-1 stack header from ring 4
        drl 0o777
sp1:    its 4, {stack1}, 0
",
        stack1 = segs::STACK_BASE + 1,
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
    sys.run_user(pid, code.segno, 0, Ring::R4, 1_000);
    let reason = sys.state().processes[pid].aborted.clone().unwrap();
    assert!(
        reason.contains("read") && reason.contains("outside bracket"),
        "{reason}"
    );
}

#[test]
fn callee_cannot_be_tricked_into_low_return_by_caller_pointer() {
    // The caller "restores" a forged SP whose ring field claims ring 0;
    // the EAP in the callee folds rings, and the eventual RETURN's
    // effective ring can never drop below the callee's ring of
    // execution — so the forged value is harmless. Demonstrated at the
    // pure-register level here: EAP through a caller-writable pair
    // cannot produce a pointer below the write-bracket top.
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let data = sys.install_data(pid, Ring::R4, Ring::R4, &[], 16);
    sys.activate(pid);
    // Forged pair: claims ring 0.
    let sdw = sys.read_sdw(pid, data.segno);
    let its = ring_core::registers::IndWord::new(
        Ring::R0,
        ring_core::addr::SegAddr::from_parts(data.segno, 8).unwrap(),
        false,
    );
    let (w0, w1) = its.pack();
    sys.machine.phys_mut().poke(sdw.addr, w0).unwrap();
    sys.machine
        .phys_mut()
        .poke(sdw.addr.wrapping_add(1), w1)
        .unwrap();
    // Dereference it from ring 1 (a supervisor callee reading what the
    // ring-4 caller "restored"): the write-bracket fold raises the
    // effective ring to 4.
    sys.prepare(pid, segs::HCS, 0, Ring::R1);
    let p = PtrReg::new(
        Ring::R4, // a PR loaded by the callee necessarily carries >= caller ring
        ring_core::addr::SegAddr::from_parts(data.segno, 0).unwrap(),
    );
    let derefed = sys.machine.read_pointer_validated(p).unwrap();
    assert_eq!(
        derefed.ring,
        Ring::R4,
        "the forged ring-0 field was overridden by provenance tracking"
    );
}
