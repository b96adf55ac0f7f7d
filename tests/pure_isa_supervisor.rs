//! A supervisor written entirely in machine code — no native
//! procedures anywhere — proving the trap mechanism (memory-based
//! state save, vectors, RETT) is self-sufficient, exactly as the
//! paper's hardware had to be.

use ring_core::access::{vector, Fault};
use ring_core::registers::PtrReg;
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;
use ring_cpu::machine::{MachineConfig, RunExit};
use ring_cpu::testkit::{addr, World};
use ring_cpu::trap::TRAP_SEGNO;

const CODE: u32 = 10;
const DATA: u32 = 11;

/// Builds the trap segment image in assembly: a vector table of TRAs
/// into handlers, a derail handler that counts derails and resumes
/// after the trapping instruction, and a timer handler that counts
/// runouts and resumes. Any other fault halts.
fn supervisor_source() -> String {
    // Save-area layout (trap.rs): IPR at save+0; vector table at 0.
    // The derail handler must advance the saved IPR past the DRL
    // instruction before RETT (a system call returns to the next
    // instruction).
    let save = 64;
    let mut vecs = String::new();
    for v in 0..ring_core::access::Fault::NUM_VECTORS {
        let target = match v {
            vector::DERAIL => "on_drl",
            vector::TIMER_RUNOUT => "on_timer",
            _ => "on_other",
        };
        vecs.push_str(&format!("        tra {target}\n"));
    }
    format!(
        "
{vecs}
on_drl: aos drl_count
        lda save_ipr        ; saved IPR (packed pointer)
        ada =1              ; wordno is the low field: +1 word
        sta save_ipr
        rett
on_timer:
        aos timer_count
        eap pr5, qptr
        ldt pr5|0           ; reload the interval timer
        rett
on_other:
        halt
        org {save}
save_ipr: dw 0
        org 100
drl_count: dw 0
timer_count: dw 0
quantum: dw 120
qptr    = 0                 ; unused label trick avoided
"
    )
    .replace(
        "qptr    = 0                 ; unused label trick avoided",
        "",
    )
    .replace("eap pr5, qptr", "eap pr5, quantum")
}

fn build() -> World {
    let config = MachineConfig::default();
    let mut w = World::with_config(config);
    let trap_segno = TRAP_SEGNO.value();
    let sup = ring_asm::assemble(&supervisor_source()).expect("supervisor assembles");
    let trap = w.add_segment(
        trap_segno,
        SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0)
            .write(true)
            .bound_words(256),
    );
    for (i, word) in sup.words.iter().enumerate() {
        w.poke(trap, i as u32, *word);
    }
    w
}

#[test]
fn asm_trap_handler_services_derails_and_resumes() {
    let mut w = build();
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
    );
    let user = ring_asm::assemble(
        "
        lda =1
        drl 1               ; system call #1
        ada =10             ; runs after the handler resumes us
        drl 1
        ada =100
        tra done
done:   tra done            ; spin (budget-bounded)
",
    )
    .unwrap();
    for (i, word) in user.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    w.start(Ring::R4, code, 0);
    assert_eq!(w.machine.run(400), RunExit::BudgetExhausted);
    assert_eq!(w.machine.a().raw(), 111, "both resumes landed correctly");
    let trap_segno = TRAP_SEGNO.value();
    let trap = ring_core::addr::SegNo::new(trap_segno).unwrap();
    assert_eq!(w.peek(trap, 100).raw(), 2, "two derails counted");
    assert_eq!(w.machine.ring(), Ring::R4, "resumed in the user ring");
}

#[test]
fn asm_timer_handler_reloads_and_resumes() {
    let mut w = build();
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
    );
    let data = w.add_segment(DATA, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
    let user = ring_asm::assemble(
        "
        eap pr4, ctr,*
loop:   aos pr4|0
        tra loop
ctr:    its 4, 11, 0
",
    )
    .unwrap();
    for (i, word) in user.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    w.start(Ring::R4, code, 0);
    w.machine.set_timer(Some(120));
    assert_eq!(w.machine.run(2_000), RunExit::BudgetExhausted);
    let trap = ring_core::addr::SegNo::new(TRAP_SEGNO.value()).unwrap();
    let ticks = w.peek(trap, 101).raw();
    assert!(ticks >= 3, "several timer runouts serviced in asm: {ticks}");
    assert!(w.peek(data, 0).raw() > 0, "user loop kept making progress");
}

#[test]
fn asm_handler_halts_on_access_violation() {
    let mut w = build();
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
    );
    // Reference a segment readable only through ring 2.
    let secret = w.add_segment(12, SdwBuilder::data(Ring::R2, Ring::R2).bound_words(16));
    let user = ring_asm::assemble(
        "
        eap pr4, sp,*
        lda pr4|0
        drl 1
sp:     its 4, 12, 0
",
    )
    .unwrap();
    let _ = secret;
    for (i, word) in user.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    w.start(Ring::R4, code, 0);
    assert_eq!(w.machine.run(100), RunExit::Halted);
    assert!(matches!(
        w.machine.last_fault(),
        Some(Fault::AccessViolation { .. })
    ));
}

#[test]
fn privileged_segment_hardening_blocks_unmarked_ring0_code() {
    // With the hardening on, even ring-0 code in an unprivileged
    // segment cannot execute RETT/HALT-class instructions.
    let config = MachineConfig {
        require_privileged_segments: true,
        ..Default::default()
    };
    let mut w = World::with_config(config);
    let trap_segno = TRAP_SEGNO.value();
    // The trap segment is marked privileged (the supervisor).
    let sup = ring_asm::assemble(
        &"        halt\n".repeat(ring_core::access::Fault::NUM_VECTORS as usize),
    )
    .unwrap();
    let trap = w.add_segment(
        trap_segno,
        SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0)
            .write(true)
            .privileged(true)
            .bound_words(256),
    );
    for (i, word) in sup.words.iter().enumerate() {
        w.poke(trap, i as u32, *word);
    }
    // Ring-0 code in an ordinary segment tries HALT.
    let rogue = w.add_segment(
        20,
        SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0).bound_words(16),
    );
    w.poke_instr(
        rogue,
        0,
        ring_cpu::isa::Instr::direct(ring_cpu::isa::Opcode::Halt, 0),
    );
    w.start(Ring::R0, rogue, 0);
    // HALT faults PrivilegedViolation -> trap segment (privileged)
    // HALTs cleanly.
    assert_eq!(w.machine.run(10), RunExit::Halted);
    assert!(matches!(
        w.machine.last_fault(),
        Some(Fault::PrivilegedViolation { .. })
    ));

    // Control: with the hardening off (default), the same rogue HALT
    // simply halts the machine.
    let mut w2 = World::new();
    let rogue = w2.add_segment(
        20,
        SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0).bound_words(16),
    );
    w2.add_trap_segment();
    w2.poke_instr(
        rogue,
        0,
        ring_cpu::isa::Instr::direct(ring_cpu::isa::Opcode::Halt, 0),
    );
    w2.start(Ring::R0, rogue, 0);
    assert_eq!(w2.machine.run(10), RunExit::Halted);
    assert_eq!(w2.machine.last_fault(), None);
}

#[test]
fn ldbr_instruction_switches_virtual_memories() {
    // Ring-0 machine code uses LDBR to switch to a second descriptor
    // segment mid-run (what a pure-ISA scheduler would do).
    let mut w = World::new();
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0).bound_words(64),
    );
    w.add_trap_segment();

    // Build a second descriptor segment whose segment 10 maps *other*
    // code: a single HALT.
    let other_store = w.alloc_raw(16);
    w.machine
        .phys_mut()
        .poke(
            other_store,
            ring_cpu::isa::Instr::direct(ring_cpu::isa::Opcode::Halt, 0).encode(),
        )
        .unwrap();
    let desc2 = w.alloc_raw(2 * 32);
    let other_sdw = SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0)
        .addr(other_store)
        .bound_words(16)
        .build();
    let (s0, s1) = other_sdw.pack();
    w.machine
        .phys_mut()
        .poke(desc2.wrapping_add(2 * CODE), s0)
        .unwrap();
    w.machine
        .phys_mut()
        .poke(desc2.wrapping_add(2 * CODE + 1), s1)
        .unwrap();
    let dbr2 = ring_core::registers::Dbr::new(desc2, 32, ring_core::addr::SegNo::new(48).unwrap());
    let (d0, d1) = dbr2.pack();

    // Program: LDBR from an in-segment image. The *next* fetch
    // (same segno 10!) comes from the other descriptor's world and
    // halts.
    let prog = ring_asm::assemble(
        "
        ldbr dbrimg
        nop                 ; never reached: new world's 10|1 differs
dbrimg: dw 0, 0             ; patched below
",
    )
    .unwrap();
    for (i, word) in prog.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    let img = prog.symbols["dbrimg"];
    w.poke(code, img, d0);
    w.poke(code, img + 1, d1);
    // The old-world code segment must be readable for the LDBR operand
    // — procedure segments have R set. But wait: after LDBR, the next
    // fetch is 10|1 in the NEW world, which maps word 1 of the other
    // store (zero -> illegal opcode)... place HALT at word 1 as well.
    w.machine
        .phys_mut()
        .poke(
            other_store.wrapping_add(1),
            ring_cpu::isa::Instr::direct(ring_cpu::isa::Opcode::Halt, 0).encode(),
        )
        .unwrap();

    w.start(Ring::R0, code, 0);
    assert_eq!(w.machine.run(10), RunExit::Halted);
    assert_eq!(w.machine.dbr(), dbr2, "the DBR switched worlds");
}

#[test]
fn sio_instruction_prints_through_the_channel() {
    // Ring-0 machine code starts a typewriter transfer with SIO and
    // spins until the completion trap bumps a counter (asm handler).
    let mut w = build();
    let trap_segno = TRAP_SEGNO.value();
    let _ = trap_segno;
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0).bound_words(128),
    );
    // Buffer in absolute memory: reuse the code segment's storage via
    // its SDW address + offset of `buf`.
    let prog_src = "
        sio chprog
loop:   tra loop
chprog: dw 0, 0             ; patched: channel program
buf:    dw 0o110, 0o111     ; 'H', 'I'
";
    let prog = ring_asm::assemble(prog_src).unwrap();
    for (i, word) in prog.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    let code_sdw = w.read_sdw(CODE);
    let buf_abs = code_sdw.addr.wrapping_add(prog.symbols["buf"]);
    let (c0, c1) =
        ring_cpu::io::IoSystem::channel_program(1, ring_cpu::io::Direction::Output, buf_abs, 2);
    let chprog = prog.symbols["chprog"];
    w.poke(code, chprog, c0);
    w.poke(code, chprog + 1, c1);
    w.start(Ring::R0, code, 0);
    // The completion trap lands on the supervisor's catch-all halt —
    // after the channel has already moved the data.
    assert_eq!(w.machine.run(200), RunExit::Halted);
    assert!(matches!(
        w.machine.last_fault(),
        Some(Fault::IoCompletion { channel: 1 })
    ));
    assert_eq!(w.machine.io().device(1).printed(), "HI");
}

/// The interplay is honest: the asm derail handler's +1 on the saved
/// IPR manipulates the packed pointer, which only works because the
/// word number occupies the low bits of the canonical layout — pin
/// that assumption.
#[test]
fn packed_pointer_low_bits_are_the_word_number() {
    let p = PtrReg::new(Ring::R4, addr(100, 41));
    let bumped = PtrReg::unpack(Word::new(p.pack().raw() + 1));
    assert_eq!(bumped.addr.wordno.value(), 42);
    assert_eq!(bumped.addr.segno, p.addr.segno);
    assert_eq!(bumped.ring, p.ring);
}
