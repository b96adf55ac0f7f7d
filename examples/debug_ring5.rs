//! User self-protection (the paper's "Use of Rings"): running an
//! untested program in ring 5 so its addressing errors cannot damage
//! the segments accessible from ring 4.
//!
//! The same buggy program — it scribbles through a wild pointer — is
//! run twice: once in ring 4, where it corrupts a ring-4 data segment;
//! then in ring 5, where the ring mechanisms catch the wild write
//! before any damage.
//!
//! Run with: `cargo run --example debug_ring5`

use multiring::core::ring::Ring;
use multiring::core::word::Word;
use multiring::os::System;

/// The buggy program: writes 0 through a pointer it "computed wrong" —
/// it lands in valuable ring-4 data.
fn buggy_program(victim_segno: u32) -> String {
    format!(
        "
        eap pr4, wildp,*
        stz pr4|5           ; the wild store
        drl 0o777
wildp:  its 4, {victim_segno}, 0
"
    )
}

fn main() {
    // --- Run in ring 4: the bug silently destroys data ---------------
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let valuable = sys.install_data(
        pid,
        Ring::R4,
        Ring::R5, // readable from ring 5, writable only through ring 4
        &[Word::new(7); 16],
        16,
    );
    let src = buggy_program(valuable.segno);
    // The untested program is certified for rings 4-5 (execute bracket
    // [4,5]) so it can be tried in either ring.
    let base = {
        let out = ring_asm::assemble(&src).unwrap();
        let base = sys.alloc_mut().alloc(out.len().max(1)).unwrap();
        for (i, w) in out.words.iter().enumerate() {
            sys.machine
                .phys_mut()
                .poke(base.wrapping_add(i as u32), *w)
                .unwrap();
        }
        base
    };
    let sdw = multiring::core::sdw::SdwBuilder::new()
        .rings(Ring::R4, Ring::R5, Ring::R5)
        .read(true)
        .execute(true)
        .addr(base)
        .bound_words(32)
        .build();
    let code_segno = sys.state_mut().processes[pid].alloc_segno().unwrap();
    sys.install_sdw(pid, code_segno, &sdw);

    let exit = sys.run_user(pid, code_segno, 0, Ring::R4, 1_000);
    let vsdw = sys.read_sdw(pid, valuable.segno);
    let after = sys.machine.phys().peek(vsdw.addr.wrapping_add(5)).unwrap();
    println!(
        "ring 4 run: {exit:?}; valuable[5] = {} (was 7)",
        after.raw()
    );
    assert_eq!(after, Word::ZERO, "the bug corrupted the data in ring 4");

    // --- Run in ring 5: the wild store is refused ---------------------
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let valuable = sys.install_data(pid, Ring::R4, Ring::R5, &[Word::new(7); 16], 16);
    let src = buggy_program(valuable.segno);
    let out = ring_asm::assemble(&src).unwrap();
    let base = sys.alloc_mut().alloc(out.len().max(1)).unwrap();
    for (i, w) in out.words.iter().enumerate() {
        sys.machine
            .phys_mut()
            .poke(base.wrapping_add(i as u32), *w)
            .unwrap();
    }
    let sdw = multiring::core::sdw::SdwBuilder::new()
        .rings(Ring::R4, Ring::R5, Ring::R5)
        .read(true)
        .execute(true)
        .addr(base)
        .bound_words(32)
        .build();
    let code_segno = sys.state_mut().processes[pid].alloc_segno().unwrap();
    sys.install_sdw(pid, code_segno, &sdw);

    let exit = sys.run_user(pid, code_segno, 0, Ring::R5, 1_000);
    let vsdw = sys.read_sdw(pid, valuable.segno);
    let after = sys.machine.phys().peek(vsdw.addr.wrapping_add(5)).unwrap();
    let reason = sys.state().processes[pid].aborted.clone().unwrap();
    println!(
        "ring 5 run: {exit:?}; valuable[5] = {} (still 7)",
        after.raw()
    );
    println!("caught: {reason}");
    assert_eq!(after.raw(), 7, "ring 5 debugging protected the data");
    assert!(reason.contains("access violation"));
    println!(
        "the same program, the same bug — ring 5 turned silent corruption into a caught fault"
    );
}
