//! End-to-end tests of the instruction cycle: every phase of Figs. 4–9
//! driven through `Machine::step`, not through the pure decision
//! functions.

use ring_core::access::{AccessMode, Fault, Violation};
use ring_core::addr::SegNo;
use ring_core::callret::StackRule;
use ring_core::registers::{IndWord, PtrReg};
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;
use ring_cpu::isa::{Instr, Opcode};
use ring_cpu::machine::{MachineConfig, StepOutcome};
use ring_cpu::native::NativeAction;
use ring_cpu::testkit::{addr, World};

const CODE: u32 = 10;
const DATA: u32 = 11;

/// A world with a user code segment at ring 4, a data segment, standard
/// stacks, and a trap segment whose native handler halts on any trap.
fn user_world() -> (World, SegNo, SegNo) {
    let mut w = World::new();
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(256),
    );
    let data = w.add_segment(DATA, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(256));
    w.add_standard_stacks(16);
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    w.start(Ring::R4, code, 0);
    (w, code, data)
}

fn step_ok(w: &mut World) {
    assert_eq!(w.machine.step(), StepOutcome::Ran);
}

fn step_traps(w: &mut World) -> Fault {
    match w.machine.step() {
        StepOutcome::Trapped(f) => f,
        other => panic!("expected trap, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// ALU and data-movement semantics
// ---------------------------------------------------------------------

#[test]
fn lda_sta_round_trip() {
    let (mut w, code, data) = user_world();
    w.poke(data, 5, Word::new(0o4242));
    w.poke_instr(code, 0, Instr::direct(Opcode::Lda, 5).with_xreg(0));
    // Direct addressing is relative to the instruction's own segment;
    // reading from the data segment needs a pointer register.
    // Use PR1 -> data.
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 0)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Lda, 1, 5));
    w.poke_instr(code, 1, Instr::pr_relative(Opcode::Sta, 1, 6));
    step_ok(&mut w);
    assert_eq!(w.machine.a(), Word::new(0o4242));
    step_ok(&mut w);
    assert_eq!(w.peek(data, 6), Word::new(0o4242));
}

#[test]
fn arithmetic_ops_and_indicators() {
    let (mut w, code, _data) = user_world();
    w.poke_instr(code, 0, Instr::direct(Opcode::Lda, 10).immediate());
    w.poke_instr(code, 1, Instr::direct(Opcode::Ada, 7).immediate());
    w.poke_instr(code, 2, Instr::direct(Opcode::Sba, 17).immediate());
    w.poke_instr(code, 3, Instr::direct(Opcode::Sba, 1).immediate());
    for _ in 0..2 {
        step_ok(&mut w);
    }
    assert_eq!(w.machine.a(), Word::new(17));
    step_ok(&mut w);
    assert_eq!(w.machine.a(), Word::ZERO);
    step_ok(&mut w);
    assert!(w.machine.a().is_negative(), "0 - 1 is negative");
}

#[test]
fn logical_ops() {
    let (mut w, code, _) = user_world();
    w.poke_instr(code, 0, Instr::direct(Opcode::Lda, 0b1100).immediate());
    w.poke_instr(code, 1, Instr::direct(Opcode::Ana, 0b1010).immediate());
    w.poke_instr(code, 2, Instr::direct(Opcode::Ora, 0b0001).immediate());
    w.poke_instr(code, 3, Instr::direct(Opcode::Era, 0b1111).immediate());
    for _ in 0..4 {
        step_ok(&mut w);
    }
    assert_eq!(w.machine.a().raw(), (0b1100 & 0b1010 | 0b0001) ^ 0b1111);
}

#[test]
fn mpy_neg_shifts_eaa() {
    let (mut w, code, _) = user_world();
    w.poke_instr(code, 0, Instr::direct(Opcode::Lda, 6).immediate());
    w.poke_instr(code, 1, Instr::direct(Opcode::Mpy, 7).immediate());
    w.poke_instr(code, 2, Instr::direct(Opcode::Als, 1));
    w.poke_instr(code, 3, Instr::direct(Opcode::Ars, 2));
    w.poke_instr(code, 4, Instr::direct(Opcode::Neg, 0));
    w.poke_instr(code, 5, Instr::direct(Opcode::Eaa, 0o777));
    step_ok(&mut w);
    step_ok(&mut w);
    assert_eq!(w.machine.a().raw(), 42);
    step_ok(&mut w);
    assert_eq!(w.machine.a().raw(), 84);
    step_ok(&mut w);
    assert_eq!(w.machine.a().raw(), 21);
    step_ok(&mut w);
    assert_eq!(w.machine.a().as_signed(), -21);
    step_ok(&mut w);
    assert_eq!(w.machine.a().raw(), 0o777, "EAA loads the word number");
}

#[test]
fn q_register_and_index_registers() {
    let (mut w, code, data) = user_world();
    w.poke(data, 3, Word::new(100));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 0)));
    w.poke_instr(code, 0, Instr::direct(Opcode::Ldq, 40).immediate());
    w.poke_instr(code, 1, Instr::direct(Opcode::Adq, 2).immediate());
    w.poke_instr(code, 2, Instr::direct(Opcode::Sbq, 1).immediate());
    w.poke_instr(code, 3, Instr::pr_relative(Opcode::Stq, 1, 9));
    // ldx x2, 3 ; lda data[x2] (indexed)
    w.poke_instr(
        code,
        4,
        Instr::direct(Opcode::Ldx, 3).immediate().with_xreg(2),
    );
    w.poke_instr(code, 5, Instr::pr_relative(Opcode::Lda, 1, 0).with_index(2));
    w.poke_instr(code, 6, Instr::pr_relative(Opcode::Stx, 1, 10).with_xreg(2));
    for _ in 0..4 {
        step_ok(&mut w);
    }
    assert_eq!(w.peek(data, 9), Word::new(41));
    step_ok(&mut w);
    step_ok(&mut w);
    assert_eq!(w.machine.a(), Word::new(100), "indexed load hit data[3]");
    step_ok(&mut w);
    assert_eq!(w.peek(data, 10), Word::new(3));
}

#[test]
fn aos_requires_and_uses_both_permissions() {
    let (mut w, code, data) = user_world();
    w.poke(data, 4, Word::new(9));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 4)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Aos, 1, 0));
    step_ok(&mut w);
    assert_eq!(w.peek(data, 4), Word::new(10));
}

#[test]
fn aos_fails_on_read_only_segment() {
    let (mut w, code, _) = user_world();
    // Readable everywhere, writable nowhere (write flag off).
    let ro = w.add_segment(
        12,
        SdwBuilder::new()
            .rings(Ring::R4, Ring::R7, Ring::R7)
            .read(true)
            .bound_words(16),
    );
    w.machine
        .set_pr(1, PtrReg::new(Ring::R4, addr(ro.value(), 0)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Aos, 1, 0));
    let f = step_traps(&mut w);
    assert!(matches!(
        f,
        Fault::AccessViolation {
            mode: AccessMode::Write,
            violation: Violation::FlagOff,
            ..
        }
    ));
}

#[test]
fn stz_clears_and_store_to_immediate_faults() {
    let (mut w, code, data) = user_world();
    w.poke(data, 8, Word::new(77));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 8)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Stz, 1, 0));
    step_ok(&mut w);
    assert_eq!(w.peek(data, 8), Word::ZERO);
    w.poke_instr(code, 1, Instr::direct(Opcode::Sta, 3).immediate());
    let f = step_traps(&mut w);
    assert!(matches!(f, Fault::IllegalModifier));
}

#[test]
fn cmpa_sets_indicators_without_changing_a() {
    let (mut w, code, _) = user_world();
    w.poke_instr(code, 0, Instr::direct(Opcode::Lda, 5).immediate());
    w.poke_instr(code, 1, Instr::direct(Opcode::Cmpa, 5).immediate());
    w.poke_instr(code, 2, Instr::direct(Opcode::Tze, 10));
    w.poke_instr(code, 10, Instr::direct(Opcode::Nop, 0));
    step_ok(&mut w);
    step_ok(&mut w);
    assert_eq!(w.machine.a(), Word::new(5), "CMPA leaves A intact");
    step_ok(&mut w);
    assert_eq!(w.machine.ipr().addr.wordno.value(), 10, "TZE taken");
}

// ---------------------------------------------------------------------
// Transfers (Fig. 7)
// ---------------------------------------------------------------------

#[test]
fn conditional_transfers_follow_indicators() {
    let (mut w, code, _) = user_world();
    w.poke_instr(code, 0, Instr::direct(Opcode::Lda, 1).immediate());
    w.poke_instr(code, 1, Instr::direct(Opcode::Tze, 20)); // not taken
    w.poke_instr(code, 2, Instr::direct(Opcode::Tnz, 4)); // taken
    w.poke_instr(code, 4, Instr::direct(Opcode::Tpl, 6)); // taken (positive)
    w.poke_instr(code, 6, Instr::direct(Opcode::Tmi, 20)); // not taken
    w.poke_instr(code, 7, Instr::direct(Opcode::Tra, 30)); // taken
    w.poke_instr(code, 30, Instr::direct(Opcode::Nop, 0));
    for _ in 0..6 {
        step_ok(&mut w);
    }
    assert_eq!(w.machine.ipr().addr.wordno.value(), 30);
    step_ok(&mut w);
    assert_eq!(w.machine.ipr().addr.wordno.value(), 31);
}

#[test]
fn transfer_to_non_executable_segment_faults_at_the_transfer() {
    let (mut w, code, _data) = user_world();
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 0)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Tra, 1, 0));
    let f = step_traps(&mut w);
    // The advance check catches it while the transfer instruction is
    // still identifiable.
    assert!(matches!(
        f,
        Fault::AccessViolation {
            mode: AccessMode::Execute,
            violation: Violation::FlagOff,
            ..
        }
    ));
}

#[test]
fn transfer_out_of_execute_bracket_faults() {
    let (mut w, code, _) = user_world();
    // A ring-2 procedure segment: ring 4 cannot execute it.
    let low = w.add_segment(
        13,
        SdwBuilder::procedure(Ring::R2, Ring::R2, Ring::R2).bound_words(16),
    );
    w.machine
        .set_pr(1, PtrReg::new(Ring::R4, addr(low.value(), 0)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Tra, 1, 0));
    let f = step_traps(&mut w);
    assert!(matches!(
        f,
        Fault::AccessViolation {
            violation: Violation::OutsideBracket,
            ..
        }
    ));
}

// ---------------------------------------------------------------------
// EAP and SPRI (Fig. 7, pointer group)
// ---------------------------------------------------------------------

#[test]
fn eap_is_the_only_way_to_load_a_pr_and_captures_effective_ring() {
    let (mut w, code, data) = user_world();
    // An indirect word in DATA pointing into DATA, ring 6.
    w.write_ind_word(data, 0, IndWord::new(Ring::R6, addr(DATA, 20), false));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 0)));
    w.poke_instr(
        code,
        0,
        Instr::pr_relative(Opcode::Eap, 1, 0)
            .with_indirect()
            .with_xreg(3),
    );
    step_ok(&mut w);
    let pr3 = w.machine.pr(3);
    assert_eq!(pr3.addr, addr(DATA, 20));
    assert_eq!(
        pr3.ring,
        Ring::R6,
        "EAP captured the effective ring from the indirect word"
    );
}

#[test]
fn spri_stores_a_pair_and_respects_write_bracket() {
    let (mut w, code, data) = user_world();
    w.machine.set_pr(3, PtrReg::new(Ring::R5, addr(CODE, 7)));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 30)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Spri, 1, 0).with_xreg(3));
    step_ok(&mut w);
    let iw = IndWord::unpack(w.peek(data, 30), w.peek(data, 31));
    assert_eq!(iw.addr, addr(CODE, 7));
    assert_eq!(iw.ring, Ring::R5);
    assert!(!iw.indirect);
    // Writing into the (read-only) code segment is refused.
    w.machine.set_pr(2, PtrReg::new(Ring::R4, addr(CODE, 100)));
    w.poke_instr(code, 1, Instr::pr_relative(Opcode::Spri, 2, 0).with_xreg(3));
    let f = step_traps(&mut w);
    assert!(matches!(
        f,
        Fault::AccessViolation {
            mode: AccessMode::Write,
            ..
        }
    ));
}

// ---------------------------------------------------------------------
// CALL and RETURN through the pipeline (Figs. 8, 9)
// ---------------------------------------------------------------------

/// Builds a gate segment at `segno` executing in `ring`, with gates open
/// through ring `r3`, whose body halts (native) after recording entry.
fn gate_world(gate_ring: Ring, r3: Ring) -> (World, SegNo, SegNo) {
    let mut w = World::new();
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(256),
    );
    let gate = w.add_segment(
        20,
        SdwBuilder::procedure(gate_ring, gate_ring, r3)
            .gates(4)
            .bound_words(64),
    );
    w.add_standard_stacks(16);
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    w.start(Ring::R4, code, 0);
    (w, code, gate)
}

#[test]
fn downward_call_switches_ring_and_builds_stack_base() {
    let (mut w, code, gate) = gate_world(Ring::R1, Ring::R5);
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(20, 2)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Call, 1, 0));
    // Native body: verify we are in ring 1, then halt.
    w.machine.register_native(gate, |m, entry| {
        assert_eq!(m.ring(), Ring::R1);
        assert_eq!(entry.value(), 2);
        Ok(NativeAction::Halt)
    });
    assert_eq!(w.machine.step(), StepOutcome::Ran);
    assert_eq!(w.machine.ring(), Ring::R1);
    // PR0 = stack base for the new ring: DBR rule -> stack_base + 1.
    let sb = w.machine.pr(0);
    assert_eq!(sb.addr.segno.value(), 48 + 1);
    assert_eq!(sb.addr.wordno.value(), 0);
    assert_eq!(sb.ring, Ring::R1);
    assert_eq!(w.machine.stats().calls_downward, 1);
}

#[test]
fn stack_rule_ring_is_segno() {
    let cfg = MachineConfig {
        stack_rule: StackRule::RingIsSegno,
        ..Default::default()
    };
    let mut w = World::with_config(cfg);
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(256),
    );
    let gate = w.add_segment(
        20,
        SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R5)
            .gates(4)
            .bound_words(64),
    );
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    w.machine
        .register_native(gate, |_, _| Ok(NativeAction::Halt));
    w.start(Ring::R4, code, 0);
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(20, 0)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Call, 1, 0));
    w.machine.step();
    assert_eq!(
        w.machine.pr(0).addr.segno.value(),
        1,
        "plain Fig. 8 rule: stack segno == new ring number"
    );
}

#[test]
fn same_ring_call_keeps_stack_segment_under_footnote_rule() {
    let (mut w, code, gate) = gate_world(Ring::R4, Ring::R4);
    // SP (PR6) currently points at a nonstandard stack segment.
    w.machine.set_pr(6, PtrReg::new(Ring::R4, addr(DATA, 40)));
    w.machine
        .register_native(gate, |_, _| Ok(NativeAction::Halt));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(20, 0)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Call, 1, 0));
    w.machine.step();
    assert_eq!(w.machine.ring(), Ring::R4);
    assert_eq!(
        w.machine.pr(0).addr.segno.value(),
        DATA,
        "same-ring call keeps the nonstandard stack segment"
    );
    assert_eq!(w.machine.stats().calls_same_ring, 1);
}

#[test]
fn call_to_non_gate_word_faults_even_same_ring() {
    let (mut w, code, _gate) = gate_world(Ring::R4, Ring::R4);
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(20, 10))); // word 10 >= 4 gates
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Call, 1, 0));
    let f = step_traps(&mut w);
    assert!(matches!(
        f,
        Fault::AccessViolation {
            violation: Violation::NotAGate,
            ..
        }
    ));
}

#[test]
fn internal_call_within_same_segment_skips_gate_list() {
    let (mut w, code, _) = user_world();
    // CALL to word 50 of the code segment itself (not a gate; the code
    // segment has no gates at all).
    w.poke_instr(code, 0, Instr::direct(Opcode::Call, 50));
    w.poke_instr(code, 50, Instr::direct(Opcode::Nop, 0));
    step_ok(&mut w);
    assert_eq!(w.machine.ipr().addr.wordno.value(), 50);
    assert_eq!(w.machine.ring(), Ring::R4);
}

#[test]
fn upward_call_traps_to_software() {
    // Gate segment executes in ring 6; caller is ring 4 -> upward call.
    let (mut w, code, _gate) = gate_world(Ring::R6, Ring::R7);
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(20, 0)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Call, 1, 0));
    let f = step_traps(&mut w);
    assert!(matches!(f, Fault::UpwardCall { .. }));
    assert_eq!(w.machine.ring(), Ring::R0, "trap forced ring 0");
    assert_eq!(w.machine.stats().upward_call_traps, 1);
}

#[test]
fn call_above_gate_extension_is_refused() {
    // Gates open only through ring 3; ring 4 may not call.
    let (mut w, code, _gate) = gate_world(Ring::R1, Ring::R3);
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(20, 0)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Call, 1, 0));
    let f = step_traps(&mut w);
    assert!(matches!(
        f,
        Fault::AccessViolation {
            violation: Violation::AboveGateExtension,
            ..
        }
    ));
}

#[test]
fn full_downward_call_and_upward_return_round_trip() {
    let (mut w, code, gate) = gate_world(Ring::R1, Ring::R5);
    // Convention: PR2 = return pointer. The native gate body returns
    // through it.
    w.machine.register_native(gate, |m, _| {
        assert_eq!(m.ring(), Ring::R1);
        m.set_a(Word::new(0o555));
        Ok(NativeAction::Return { via: m.pr(2) })
    });
    // Caller: set up return pointer (ring 4 via set_pr floor), call.
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(20, 1)));
    w.machine.set_pr(2, PtrReg::new(Ring::R4, addr(CODE, 1)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Call, 1, 0));
    w.poke_instr(code, 1, Instr::direct(Opcode::Nop, 0));
    assert_eq!(w.machine.step(), StepOutcome::Ran); // CALL
    assert_eq!(w.machine.ring(), Ring::R1);
    assert_eq!(w.machine.step(), StepOutcome::Ran); // native body + RETURN
    assert_eq!(w.machine.ring(), Ring::R4, "returned to the caller's ring");
    assert_eq!(w.machine.ipr().addr, addr(CODE, 1));
    assert_eq!(w.machine.a(), Word::new(0o555));
    assert_eq!(w.machine.stats().returns_upward, 1);
    // No trap was involved in either direction: the headline claim.
    assert_eq!(w.machine.stats().traps, 0);
}

#[test]
fn upward_return_raises_all_pr_ring_floors() {
    let (mut w, code, gate) = gate_world(Ring::R1, Ring::R5);
    w.machine.register_native(gate, |m, _| {
        // Inside ring 1: PRs may legitimately hold ring-1 values.
        m.set_pr(5, PtrReg::new(Ring::R1, addr(DATA, 0)));
        Ok(NativeAction::Return { via: m.pr(2) })
    });
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(20, 0)));
    w.machine.set_pr(2, PtrReg::new(Ring::R4, addr(CODE, 1)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Call, 1, 0));
    w.poke_instr(code, 1, Instr::direct(Opcode::Nop, 0));
    w.machine.step();
    w.machine.step();
    assert_eq!(w.machine.ring(), Ring::R4);
    for n in 0..8 {
        assert!(
            w.machine.pr(n).ring >= Ring::R4,
            "PR{n} ring must be >= the new ring of execution"
        );
    }
}

#[test]
fn return_cannot_go_below_the_pointer_ring() {
    // A malicious ring-4 caller cannot fabricate a silent return into
    // ring 1: every pointer it can produce carries ring >= 4, so the
    // RETURN's effective ring is 4, above the ring-1 target's execute
    // bracket top — the hardware hands the *downward return* to the
    // ring-0 supervisor, which is where the forgery is refused (the
    // ring-os crate implements that refusal against its return-gate
    // stack).
    let (mut w, code, _gate) = gate_world(Ring::R1, Ring::R5);
    w.machine.set_pr(3, PtrReg::new(Ring::R1, addr(20, 0))); // attempt ring 1...
    assert_eq!(
        w.machine.pr(3).ring,
        Ring::R4,
        "set_pr floors the ring at IPR.RING, like EAP"
    );
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Return, 3, 0));
    let f = step_traps(&mut w);
    assert!(matches!(f, Fault::DownwardReturn { ring: Ring::R4, .. }));
    assert_eq!(w.machine.ring(), Ring::R0, "decision is the supervisor's");
    assert_eq!(w.machine.stats().downward_return_traps, 1);
}

#[test]
fn indirect_word_cannot_lower_the_return_ring() {
    // Even an indirect word with RING=1 planted in memory cannot lower
    // the effective ring: the Fig. 5 fold is a running max.
    let (mut w, code, _gate) = gate_world(Ring::R1, Ring::R5);
    let table = w.add_segment(30, SdwBuilder::data(Ring::R0, Ring::R7).bound_words(16));
    w.write_ind_word(table, 0, IndWord::new(Ring::R1, addr(20, 0), false));
    w.machine.set_pr(3, PtrReg::new(Ring::R4, addr(30, 0)));
    w.poke_instr(
        code,
        0,
        Instr::pr_relative(Opcode::Return, 3, 0).with_indirect(),
    );
    let f = step_traps(&mut w);
    // Effective ring = max(4, 4, 1, 0) = 4 -> downward-return trap, not
    // a silent entry into ring 1.
    assert!(matches!(f, Fault::DownwardReturn { ring: Ring::R4, .. }));
}

#[test]
fn software_mediated_upward_call_and_downward_return() {
    // The full round trip the hardware cannot do alone (the paper's
    // "upward call / downward return" case): ring-1 supervisor code
    // calls a ring-4 procedure; the hardware traps; a ring-0 handler
    // performs the upward call, pushing a return gate; the ring-4
    // procedure returns; the hardware traps the downward return; the
    // handler validates it against the pushed gate and restores ring 1.
    use std::sync::{Arc, Mutex};

    let mut w = World::new();
    // Ring-1 caller code (native, so we can observe re-entry).
    let low = w.add_segment(
        33,
        SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R1).bound_words(16),
    );
    // Ring-4 callee with a gate at word 0.
    let high = w.add_segment(
        34,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4)
            .gates(1)
            .bound_words(16),
    );
    w.add_standard_stacks(16);
    let trap = w.add_trap_segment();

    // Return-gate stack maintained by the ring-0 mediator.
    type Gate = (Ring, ring_core::registers::Ipr);
    let gates: Arc<Mutex<Vec<Gate>>> = Arc::new(Mutex::new(Vec::new()));
    let phases: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));

    {
        let gates = gates.clone();
        let phases = phases.clone();
        w.machine.register_native(trap, move |m, vector| {
            let upward = Fault::UpwardCall {
                target: addr(0, 0),
                ring: Ring::R0,
            }
            .vector();
            let downward = Fault::DownwardReturn {
                target: addr(0, 0),
                ring: Ring::R0,
            }
            .vector();
            let v = vector.value();
            if v == upward {
                phases.lock().unwrap().push("upward-call");
                let (_, ring, target, _) = m.fault_info().unwrap();
                let mut state = m.saved_state().unwrap();
                // Push the dynamic return gate: the caller's declared
                // return point (PR2 by convention) in the caller's
                // ring. (The saved IPR is the faulting CALL itself —
                // resuming there would just retry the call.)
                gates.lock().unwrap().push((
                    state.ipr.ring,
                    ring_core::registers::Ipr::new(state.ipr.ring, state.prs[2].addr),
                ));
                // Enter the higher ring at the called gate; floor every
                // PR ring like a hardware upward switch would.
                let new_ring = Ring::R4;
                assert_eq!(ring, Ring::R1);
                state.ipr = ring_core::registers::Ipr::new(new_ring, target);
                for pr in state.prs.iter_mut() {
                    *pr = pr.with_ring_floor(new_ring);
                }
                m.set_saved_state(&state).unwrap();
                Ok(NativeAction::Resume)
            } else if v == downward {
                phases.lock().unwrap().push("downward-return");
                let (_, _, target, _) = m.fault_info().unwrap();
                let (ring, cont) = gates.lock().unwrap().pop().expect("return gate");
                // Software verification: the return must match the
                // pushed gate (here: same ring; a real supervisor also
                // validates the stack pointer).
                assert_eq!(ring, Ring::R1);
                assert_eq!(target.segno, cont.addr.segno);
                let mut state = m.saved_state().unwrap();
                state.ipr = cont;
                m.set_saved_state(&state).unwrap();
                Ok(NativeAction::Resume)
            } else {
                Ok(NativeAction::Halt)
            }
        });
    }

    // Ring-1 caller: on first entry CALL the ring-4 gate; on re-entry
    // (after the mediated return) record success and halt.
    let called_back: Arc<Mutex<bool>> = Arc::new(Mutex::new(false));
    {
        let called_back = called_back.clone();
        w.machine.register_native(low, move |m, entry| {
            if entry.value() == 0 {
                // CALL high|0: executed through the real pipeline by
                // pointing the IPR at a one-instruction stub... natives
                // cannot execute CALL, so raise the upward-call trap
                // exactly as the hardware would on `call pr1|0`.
                assert_eq!(m.ring(), Ring::R1);
                Err(Fault::UpwardCall {
                    target: addr(34, 0),
                    ring: Ring::R1,
                })
            } else {
                assert_eq!(m.ring(), Ring::R1, "mediated return restored ring 1");
                *called_back.lock().unwrap() = true;
                Ok(NativeAction::Halt)
            }
        });
    }

    // Ring-4 callee: RETURN through PR2 (which, after the mediated
    // upward switch, carries ring >= 4).
    w.machine.register_native(high, move |m, _| {
        assert_eq!(m.ring(), Ring::R4);
        Ok(NativeAction::Return { via: m.pr(2) })
    });

    w.start(Ring::R1, low, 0);
    // PR2 = the ring-1 continuation (word 1 of the caller segment).
    w.machine.set_pr(2, PtrReg::new(Ring::R1, addr(33, 1)));
    let exit = w.machine.run(50);
    assert_eq!(exit, ring_cpu::machine::RunExit::Halted);
    assert!(*called_back.lock().unwrap(), "control returned to ring 1");
    assert_eq!(
        *phases.lock().unwrap(),
        vec!["upward-call", "downward-return"],
        "both software assists ran"
    );
    assert!(gates.lock().unwrap().is_empty(), "return gate consumed");
}

// ---------------------------------------------------------------------
// Privileged instructions and traps
// ---------------------------------------------------------------------

#[test]
fn privileged_instructions_fault_outside_ring_0() {
    for op in [
        Opcode::Ldbr,
        Opcode::Sio,
        Opcode::Rett,
        Opcode::Ldt,
        Opcode::Halt,
    ] {
        let (mut w, code, _) = user_world();
        w.poke_instr(code, 0, Instr::direct(op, 0));
        let f = step_traps(&mut w);
        assert!(
            matches!(f, Fault::PrivilegedViolation { ring } if ring == Ring::R4),
            "{op:?} must be privileged, got {f:?}"
        );
    }
}

#[test]
fn halt_in_ring_0_stops_the_machine() {
    let mut w = World::new();
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0).bound_words(16),
    );
    w.add_trap_segment();
    w.start(Ring::R0, code, 0);
    w.poke_instr(code, 0, Instr::direct(Opcode::Halt, 0));
    assert_eq!(w.machine.step(), StepOutcome::Halted);
    assert!(w.machine.halted());
}

#[test]
fn illegal_opcode_and_derail_trap() {
    let (mut w, code, _) = user_world();
    w.poke(code, 0, Word::ZERO.with_field(28, 8, 0o76));
    let f = step_traps(&mut w);
    assert!(matches!(f, Fault::IllegalOpcode { opcode: 0o76 }));

    let (mut w, code, _) = user_world();
    w.poke_instr(code, 0, Instr::direct(Opcode::Drl, 5));
    let f = step_traps(&mut w);
    assert!(matches!(f, Fault::Derail { code: 5 }));
}

#[test]
fn trap_enters_ring_0_at_the_fault_vector() {
    let (mut w, code, _) = user_world();
    w.poke_instr(code, 0, Instr::direct(Opcode::Drl, 3));
    let f = step_traps(&mut w);
    let vector = f.vector();
    assert_eq!(w.machine.ring(), Ring::R0);
    assert_eq!(
        w.machine.ipr().addr.wordno.value(),
        w.machine.config().trap_vector_base + vector
    );
    assert_eq!(w.machine.ipr().addr.segno, w.machine.config().trap_segno);
}

#[test]
fn fault_info_describes_the_fault() {
    let (mut w, code, _) = user_world();
    w.poke_instr(code, 0, Instr::direct(Opcode::Drl, 42));
    let f = step_traps(&mut w);
    let (vector, _ring, _addr, detail) = w.machine.fault_info().unwrap();
    assert_eq!(vector, f.vector());
    assert_eq!(detail.raw(), 42);
}

#[test]
fn rett_resumes_the_disrupted_instruction() {
    // A page-fault-and-resume round trip: the classic use of the
    // save/restore mechanism.
    let mut w = World::new();
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(16),
    );
    // A paged data segment whose single page is missing.
    let pt = w.alloc_raw(4);
    let frame = {
        let base = w.alloc_raw(1024 + 1024); // room to page-align
        base.value().div_ceil(1024)
    };
    w.machine
        .phys_mut()
        .poke(pt, ring_segmem::paging::Ptw::MISSING.pack())
        .unwrap();
    let paged = SdwBuilder::data(Ring::R4, Ring::R4)
        .unpaged(false)
        .addr(pt)
        .bound_words(1024)
        .build();
    w.install_sdw(14, &paged);
    let trap = w.add_trap_segment();
    // Ring-0 handler: fix the PTW, then resume.
    w.machine.register_native(trap, move |m, vector| {
        assert_eq!(
            vector.value(),
            Fault::PageFault { addr: addr(14, 0) }.vector()
        );
        m.phys_mut()
            .poke(pt, ring_segmem::paging::Ptw::present(frame).unwrap().pack())
            .unwrap();
        Ok(NativeAction::Resume)
    });
    w.start(Ring::R4, code, 0);
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(14, 3)));
    w.poke_instr(code, 0, Instr::direct(Opcode::Lda, 0o123).immediate());
    w.poke_instr(code, 1, Instr::pr_relative(Opcode::Sta, 1, 0));
    step_ok(&mut w); // LDA
    let f = step_traps(&mut w); // STA faults
    assert!(matches!(f, Fault::PageFault { .. }));
    // Next step runs the native handler (fetch lands in trap segment)
    // which resumes; the step after that retries STA successfully.
    assert_eq!(w.machine.step(), StepOutcome::Ran);
    assert_eq!(w.machine.step(), StepOutcome::Ran);
    assert_eq!(w.machine.ring(), Ring::R4, "resumed back in ring 4");
    let abs = ring_core::addr::AbsAddr::new(frame * 1024 + 3).unwrap();
    assert_eq!(w.machine.phys().peek(abs).unwrap(), Word::new(0o123));
}

#[test]
fn timer_runout_traps() {
    let (mut w, code, _) = user_world();
    for i in 0..20 {
        w.poke_instr(code, i, Instr::direct(Opcode::Nop, 0));
    }
    w.machine.set_timer(Some(10));
    let mut trapped = false;
    for _ in 0..20 {
        match w.machine.step() {
            StepOutcome::Trapped(Fault::TimerRunout) => {
                trapped = true;
                break;
            }
            StepOutcome::Ran => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(trapped, "timer must run out");
    assert_eq!(w.machine.ring(), Ring::R0);
}

#[test]
fn execute_from_data_segment_faults() {
    let (mut w, _code, data) = user_world();
    w.start(Ring::R4, data, 0);
    let f = step_traps(&mut w);
    assert!(matches!(
        f,
        Fault::AccessViolation {
            mode: AccessMode::Execute,
            violation: Violation::FlagOff,
            ..
        }
    ));
}

#[test]
fn execute_below_bracket_bottom_faults() {
    // "preventing the accidental transfer to and execution of a
    // procedure in a ring lower than intended".
    let mut w = World::new();
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R4, Ring::R5, Ring::R5).bound_words(16),
    );
    w.add_trap_segment();
    let trap = w.machine.config().trap_segno;
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    w.start(Ring::R2, code, 0);
    let f = step_traps(&mut w);
    assert!(matches!(
        f,
        Fault::AccessViolation {
            violation: Violation::OutsideBracket,
            ..
        }
    ));
}

// ---------------------------------------------------------------------
// Cycle accounting: the headline comparison in miniature
// ---------------------------------------------------------------------

#[test]
fn downward_call_costs_like_same_ring_call() {
    // Run the same CALL twice: once crossing rings, once not; the
    // hardware cost must be identical (same number of references).
    let cost_of = |gate_ring: Ring| -> u64 {
        let (mut w, code, gate) = gate_world(gate_ring, Ring::R5);
        w.machine
            .register_native(gate, |_, _| Ok(NativeAction::Halt));
        w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(20, 0)));
        w.poke_instr(code, 0, Instr::pr_relative(Opcode::Call, 1, 0));
        let before = w.machine.cycles();
        w.machine.step();
        w.machine.cycles() - before
    };
    let same_ring = cost_of(Ring::R4);
    let downward = cost_of(Ring::R1);
    assert_eq!(
        same_ring, downward,
        "a downward call is *identical* to a same-ring call in cost"
    );
}

#[test]
fn pr_ring_invariant_holds_across_arbitrary_programs() {
    // Run a program that loads PRs through every mechanism and check
    // the invariant after each step.
    let (mut w, code, data) = user_world();
    // Establish the invariant for the initial state: a freshly built
    // world has null PRs (ring 0); real processes enter user rings only
    // through mechanisms that floor the PR rings.
    for n in 0..8 {
        w.machine.set_pr(n, PtrReg::NULL);
    }
    w.write_ind_word(data, 0, IndWord::new(Ring::R6, addr(DATA, 20), false));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 0)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Eap, 1, 0).with_xreg(3));
    w.poke_instr(
        code,
        1,
        Instr::pr_relative(Opcode::Eap, 1, 0)
            .with_indirect()
            .with_xreg(4),
    );
    w.poke_instr(code, 2, Instr::direct(Opcode::Call, 5));
    w.poke_instr(code, 5, Instr::direct(Opcode::Nop, 0));
    for _ in 0..4 {
        if w.machine.step() != StepOutcome::Ran {
            break;
        }
        for n in 0..8 {
            assert!(
                w.machine.pr(n).ring >= w.machine.ring(),
                "PR{n} ring below ring of execution"
            );
        }
    }
}

#[test]
fn same_ring_tra_bypasses_the_gate_list() {
    // "On intersegment transfers of control within the same ring, the
    // gate restriction can be bypassed by using a normal transfer
    // instruction rather than a CALL."
    let (mut w, code, _data) = user_world();
    // Another ring-4 procedure segment with only one gate.
    let lib = w.add_segment(
        21,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4)
            .gates(1)
            .bound_words(64),
    );
    w.poke_instr(lib, 9, Instr::direct(Opcode::Nop, 0));
    w.machine.set_pr(3, PtrReg::new(Ring::R4, addr(21, 9)));
    // CALL to the non-gate word 9 is refused...
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Call, 3, 0));
    let f = step_traps(&mut w);
    assert!(matches!(
        f,
        Fault::AccessViolation {
            violation: Violation::NotAGate,
            ..
        }
    ));
    // ...but a plain TRA to the same word is fine (same ring).
    let (mut w, code, _data) = user_world();
    let lib = w.add_segment(
        21,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4)
            .gates(1)
            .bound_words(64),
    );
    w.poke_instr(lib, 9, Instr::direct(Opcode::Nop, 0));
    w.machine.set_pr(3, PtrReg::new(Ring::R4, addr(21, 9)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Tra, 3, 0));
    step_ok(&mut w);
    assert_eq!(w.machine.ipr().addr, addr(21, 9));
    step_ok(&mut w); // the NOP executes
    assert_eq!(w.machine.ring(), Ring::R4);
}
