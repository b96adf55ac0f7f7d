//! Error paths: string marshalling limits, bad gate arguments, and
//! descriptor exhaustion.

use ring_core::registers::PtrReg;
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_os::conventions::{gate_addr, hcs, segs};
use ring_os::driver::gen_call_sequence;
use ring_os::services::status;
use ring_os::strings::{encode_string, read_string, write_string, MAX_STRING};
use ring_os::System;

#[test]
fn unterminated_string_is_refused() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    // A data segment full of non-NUL words: no terminator anywhere.
    let data = vec![Word::new(u64::from(b'a')); (MAX_STRING + 8) as usize];
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 0);
    // Call initiate with the unterminated "path": must come back
    // NO_ACCESS/BAD_ARG rather than hanging or panicking.
    let seq = gen_call_sequence(
        Ring::R4,
        &[(
            gate_addr(segs::HCS, hcs::INITIATE),
            vec![
                ring_core::addr::SegAddr::from_parts(scratch.segno, 0).unwrap(),
                ring_core::addr::SegAddr::from_parts(scratch.segno, 4).unwrap(),
            ],
        )],
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    assert_eq!(
        sys.run_user(pid, code.segno, 0, Ring::R4, 20_000),
        RunExit::Halted
    );
    assert_eq!(sys.machine.a().raw(), status::BAD_ARG);
}

#[test]
fn string_round_trip_through_simulated_memory() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &[], 64);
    sys.activate(pid);
    let p = PtrReg::new(
        Ring::R4,
        ring_core::addr::SegAddr::from_parts(scratch.segno, 0).unwrap(),
    );
    write_string(&mut sys.machine, p, "hello>world_123").unwrap();
    assert_eq!(read_string(&mut sys.machine, p).unwrap(), "hello>world_123");
    // Empty string round-trips too.
    write_string(&mut sys.machine, p, "").unwrap();
    assert_eq!(read_string(&mut sys.machine, p).unwrap(), "");
}

#[test]
fn string_read_respects_brackets() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    // Readable only through ring 2.
    let secret = sys.install_data(pid, Ring::R2, Ring::R2, &encode_string("top"), 16);
    sys.activate(pid);
    // Force the machine into ring 4 to attempt the read.
    sys.prepare(pid, segs::HCS, 0, Ring::R4); // sets IPR ring 4 (address irrelevant)
    let p = PtrReg::new(
        Ring::R4,
        ring_core::addr::SegAddr::from_parts(secret.segno, 0).unwrap(),
    );
    assert!(read_string(&mut sys.machine, p).is_err());
}

#[test]
fn gate_with_bad_entry_number_reports_bad_arg() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &[Word::ZERO], 32);
    // HCS gate word COUNT-1 is fs_step (valid); there is no gate at
    // COUNT, so a CALL there is refused by the hardware gate check.
    let seq = gen_call_sequence(
        Ring::R4,
        &[(
            gate_addr(segs::HCS, hcs::COUNT),
            vec![ring_core::addr::SegAddr::from_parts(scratch.segno, 0).unwrap()],
        )],
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    sys.run_user(pid, code.segno, 0, Ring::R4, 2_000);
    let reason = sys.state().processes[pid].aborted.clone().unwrap();
    assert!(reason.contains("not directed at a gate"), "{reason}");
}

#[test]
fn kst_exhaustion_reports_full() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let acl = ring_os::acl::Acl::single(
        ring_os::acl::AclEntry::new(
            "alice",
            ring_os::acl::Modes::RW,
            (Ring::R4, Ring::R4, Ring::R4),
            0,
        )
        .unwrap(),
    );
    sys.create_segment("f", acl, vec![Word::ZERO]);
    let mut data = encode_string("f");
    data.resize(64, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 64);
    let seq = gen_call_sequence(
        Ring::R4,
        &[(
            gate_addr(segs::HCS, hcs::INITIATE),
            vec![
                ring_core::addr::SegAddr::from_parts(scratch.segno, 0).unwrap(),
                ring_core::addr::SegAddr::from_parts(scratch.segno, 32).unwrap(),
            ],
        )],
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    // Exhaust the segment-number space only after staging code/data.
    sys.state_mut().processes[pid].next_segno = ring_os::conventions::segs::DESCRIPTOR_SLOTS;
    assert_eq!(
        sys.run_user(pid, code.segno, 0, Ring::R4, 10_000),
        RunExit::Halted
    );
    assert_eq!(sys.machine.a().raw(), status::KST_FULL);
}
