//! ACL-driven gate policy: "not all gates into supervisor rings need be
//! available to the processes of all users, and not all gates need have
//! the same gate extension associated with them." Plus terminate and
//! the immediate effectiveness of ACL changes.

use ring_core::addr::SegAddr;
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_os::acl::{Acl, AclEntry, Modes};
use ring_os::conventions::{gate_addr, hcs, segs};
use ring_os::driver::gen_call_sequence;
use ring_os::services::status;
use ring_os::strings::encode_string;
use ring_os::System;

/// A stored "registration subsystem" whose ACL gives the admin a gate
/// extension up to ring 5 but gives ordinary users no access at all —
/// the paper's registering-new-users example. The subsystem body is a
/// single RETURN-via-PR2 stub in machine code.
fn create_admin_gate(sys: &mut System) {
    let stub = ring_asm::assemble("        return pr2|0\n").unwrap();
    let mut acl = Acl::new();
    // Admin: executable in ring 1 with gates open through ring 5.
    acl.push(AclEntry::new("admin", Modes::RE, (Ring::R1, Ring::R1, Ring::R5), 1).unwrap());
    // Everyone else: no entry at all.
    sys.create_segment("sss>register_user", acl, stub.words);
}

fn initiate_and_call(sys: &mut System, pid: usize, expect_status: u64) -> RunExit {
    let mut data = encode_string("sss>register_user");
    data.resize(128, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 128);
    // First initiate; then, if that worked, construct a pointer to the
    // returned segno and CALL its gate 0.
    let src = format!(
        "
        eap pr4, scratchp,*
        eap pr1, args
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0          ; hcs$initiate
ret0:   tnz out             ; stop on initiate failure (status in A)
        lda pr4|100         ; the new segno
        als 18
        sta pr4|110         ; ITS word0: segno<<18 | wordno 0
        stz pr4|111
        eap pr2, ret1
        eap pr3, pr4|110,*  ; pointer to the subsystem gate
        call pr3|0
ret1:   lda =0
out:    drl 0o777
gatep:  its 4, {hcs_seg}, {init}
scratchp: its 4, {sc}, 0
args:   its 4, {sc}, 0
        its 4, {sc}, 100
",
        hcs_seg = segs::HCS,
        init = hcs::INITIATE,
        sc = scratch.segno,
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
    let exit = sys.run_user(pid, code.segno, 0, Ring::R4, 10_000);
    assert_eq!(
        sys.machine.a().raw(),
        expect_status,
        "status for {}",
        sys.state().processes[pid].user
    );
    exit
}

#[test]
fn admin_only_gate_is_open_to_admin() {
    let mut sys = System::boot();
    create_admin_gate(&mut sys);
    let admin = sys.login("admin");
    let exit = initiate_and_call(&mut sys, admin, 0);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(
        sys.state().processes[admin].aborted.as_deref(),
        Some("exit"),
        "the admin's call went down to ring 1 and back"
    );
}

#[test]
fn admin_only_gate_is_closed_to_others() {
    let mut sys = System::boot();
    create_admin_gate(&mut sys);
    let bob = sys.login("bob");
    // Initiate itself is refused: no ACL entry for bob.
    initiate_and_call(&mut sys, bob, status::NO_ACCESS);
}

#[test]
fn per_user_gate_extension_differs() {
    // Same stored subsystem, different gate extensions per user: carol
    // may call from ring 4 (R3 = 5); dave only from ring 2 (R3 = 2), so
    // his ring-4 call is refused by the hardware.
    let stub = ring_asm::assemble("        return pr2|0\n").unwrap();
    let mut acl = Acl::new();
    acl.push(AclEntry::new("carol", Modes::RE, (Ring::R2, Ring::R2, Ring::R5), 1).unwrap());
    acl.push(AclEntry::new("dave", Modes::RE, (Ring::R2, Ring::R2, Ring::R2), 1).unwrap());
    let mut sys = System::boot();
    sys.create_segment("sss>subsys", acl, stub.words);

    for (user, ok) in [("carol", true), ("dave", false)] {
        let pid = sys.login(user);
        let mut data = encode_string("sss>subsys");
        data.resize(128, Word::ZERO);
        let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 128);
        let src = format!(
            "
        eap pr4, scratchp,*
        eap pr1, args
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0
ret0:   tnz out
        lda pr4|100
        als 18
        sta pr4|110
        stz pr4|111
        eap pr2, ret1
        eap pr3, pr4|110,*
        call pr3|0          ; refused for dave: ring 4 > his R3 = 2
ret1:   lda =0
out:    drl 0o777
gatep:  its 4, {hcs_seg}, {init}
scratchp: its 4, {sc}, 0
args:   its 4, {sc}, 0
        its 4, {sc}, 100
",
            hcs_seg = segs::HCS,
            init = hcs::INITIATE,
            sc = scratch.segno,
        );
        let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
        sys.run_user(pid, code.segno, 0, Ring::R4, 10_000);
        let aborted = sys.state().processes[pid].aborted.clone().unwrap();
        if ok {
            assert_eq!(aborted, "exit", "carol's call succeeds");
            assert_eq!(sys.machine.a().raw(), 0);
        } else {
            assert!(
                aborted.contains("gate extension"),
                "dave's ring-4 call must be outside his gate extension: {aborted}"
            );
        }
    }
}

#[test]
fn terminate_gate_unmaps_a_segment() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let acl =
        Acl::single(AclEntry::new("alice", Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap());
    sys.create_segment("tmp>scratchfile", acl, vec![Word::new(5); 8]);

    let mut data = encode_string("tmp>scratchfile");
    data.resize(128, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 128);
    // initiate; read a word (loads it); terminate; read again (must
    // abort on segment fault against an unknown segment).
    let src = format!(
        "
        eap pr4, scratchp,*
        eap pr1, args
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0          ; initiate
ret0:   tnz out
        lda pr4|100
        als 18
        sta pr4|110
        stz pr4|111
        lda pr4|110,*       ; demand load + read
        eap pr1, targ
        eap pr2, ret1
        eap pr3, termp,*
        call pr3|0          ; terminate(segno)
ret1:   tnz out
        lda pr4|110,*       ; must fault: segment gone
        lda =0o111          ; must not run
out:    drl 0o777
gatep:  its 4, {hcs_seg}, {init}
termp:  its 4, {hcs_seg}, {term}
scratchp: its 4, {sc}, 0
args:   its 4, {sc}, 0
        its 4, {sc}, 100
targ:   its 4, {sc}, 100    ; terminate's arg: the segno word
",
        hcs_seg = segs::HCS,
        init = hcs::INITIATE,
        term = hcs::TERMINATE,
        sc = scratch.segno,
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
    sys.run_user(pid, code.segno, 0, Ring::R4, 20_000);
    let aborted = sys.state().processes[pid].aborted.clone().unwrap();
    assert!(
        aborted.contains("unknown segment"),
        "reference after terminate must abort: {aborted}"
    );
    assert_ne!(
        sys.machine.a().raw(),
        0o111,
        "code after the fault never ran"
    );
}

#[test]
fn set_acl_change_is_immediately_effective() {
    // Alice initiates her segment read-write, then uses set_acl to
    // drop her own access to read-only; her next write must fault
    // without re-initiating ("to expect the change to be immediately
    // effective").
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let acl =
        Acl::single(AclEntry::new("alice", Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap());
    sys.create_segment("udd>alice>rwseg", acl, vec![Word::ZERO; 8]);

    let mut data = encode_string("udd>alice>rwseg");
    let user_pos = data.len() as u32;
    data.extend(encode_string("alice"));
    let modes_pos = data.len() as u32;
    data.push(Word::new(0b001)); // read only
    let rings_pos = data.len() as u32;
    data.push(Word::new(4 | (4 << 3) | (4 << 6)));
    data.resize(256, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 256);

    let mut calls = vec![(
        gate_addr(segs::HCS, hcs::INITIATE),
        vec![
            SegAddr::from_parts(scratch.segno, 0).unwrap(),
            SegAddr::from_parts(scratch.segno, 200).unwrap(),
        ],
    )];
    calls.push((
        gate_addr(segs::HCS, hcs::SET_ACL),
        vec![
            SegAddr::from_parts(scratch.segno, 0).unwrap(),
            SegAddr::from_parts(scratch.segno, user_pos).unwrap(),
            SegAddr::from_parts(scratch.segno, modes_pos).unwrap(),
            SegAddr::from_parts(scratch.segno, rings_pos).unwrap(),
        ],
    ));
    let mut src = gen_call_sequence(Ring::R4, &calls);
    // Append: write through the initiated segment; must fault.
    src = src.replace(
        &format!("        drl 0o{:o}\n", ring_os::traps::EXIT_CODE),
        &format!(
            "
        eap pr4, scratchp,*
        lda pr4|200
        als 18
        sta pr4|210
        stz pr4|211
        lda =7
        sta pr4|210,*       ; write after ACL narrowed: must fault
        drl 0o{exit:o}
scratchp: its 4, {sc}, 0
",
            exit = ring_os::traps::EXIT_CODE,
            sc = scratch.segno,
        ),
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
    sys.run_user(pid, code.segno, 0, Ring::R4, 20_000);
    let aborted = sys.state().processes[pid].aborted.clone().unwrap();
    assert!(
        aborted.contains("access violation") && aborted.contains("write"),
        "the narrowed ACL must take effect immediately: {aborted}"
    );
}
