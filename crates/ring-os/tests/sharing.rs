//! Segment sharing: "a single segment may be part of several virtual
//! memories at the same time, allowing straightforward sharing of
//! segments among users" — with per-user brackets, because the SDW
//! fields "come from the access control list entry which permitted the
//! process to include the corresponding segment in its virtual memory".

use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_os::acl::{Acl, AclEntry, Modes};
use ring_os::conventions::{hcs, segs};
use ring_os::strings::encode_string;
use ring_os::{System, SystemConfig};

/// A program that initiates `path` (staged in its scratch segment),
/// then either writes `value` at word 5 or reads word 5 into
/// scratch[101].
fn initiate_then(sys: &mut System, pid: usize, path: &str, write_value: Option<u64>) -> u32 {
    let mut data = encode_string(path);
    data.resize(128, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 128);
    let action = match write_value {
        Some(v) => format!(
            "
        lda ={v}
        sta pr4|110,*"
        ),
        None => "
        lda pr4|110,*
        sta pr4|101"
            .to_string(),
    };
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
        ora =5
        sta pr4|110
        stz pr4|111
{action}
        lda =0
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
    assert_eq!(
        sys.run_user(pid, code.segno, 0, Ring::R4, 20_000),
        RunExit::Halted
    );
    scratch.segno
}

#[test]
fn writes_by_one_user_are_seen_by_another() {
    let mut sys = System::boot_with(SystemConfig::default());
    let mut acl = Acl::new();
    acl.push(AclEntry::new("alice", Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap());
    acl.push(AclEntry::new("bob", Modes::R, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap());
    sys.create_segment("shared>board", acl, vec![Word::ZERO; 16]);

    let alice = sys.login("alice");
    let bob = sys.login("bob");

    // Alice writes 0o555 at word 5 of the shared segment.
    initiate_then(&mut sys, alice, "shared>board", Some(0o555));
    assert_eq!(sys.machine.a().raw(), 0, "alice's write succeeded");

    // Bob reads word 5 through HIS OWN virtual memory: one shared
    // image, so he sees alice's write.
    let bob_scratch = initiate_then(&mut sys, bob, "shared>board", None);
    assert_eq!(sys.machine.a().raw(), 0, "bob's read succeeded");
    let sdw = sys.read_sdw(bob, bob_scratch);
    assert_eq!(
        sys.machine.phys().peek(sdw.addr.wrapping_add(101)).unwrap(),
        Word::new(0o555),
        "bob sees alice's write through the shared segment"
    );
    // Exactly one demand load happened for the shared segment (plus
    // nothing for bob beyond descriptor mapping).
    assert_eq!(sys.stats().segment_faults, 2, "both faulted...");
    // ...but the second fault mapped the existing image rather than
    // copying: the stored image is recorded once.
    let id = sys.state_mut().fs.resolve("shared>board").unwrap();
    assert!(sys.state().fs.segment(id).image.is_some());
}

#[test]
fn per_user_brackets_differ_on_the_same_segment() {
    // Bob's entry is read-only: his write to the shared segment must
    // fault even though alice's identical write succeeded.
    let mut sys = System::boot();
    let mut acl = Acl::new();
    acl.push(AclEntry::new("alice", Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap());
    acl.push(AclEntry::new("bob", Modes::R, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap());
    sys.create_segment("shared>board", acl, vec![Word::ZERO; 16]);

    let alice = sys.login("alice");
    let bob = sys.login("bob");
    initiate_then(&mut sys, alice, "shared>board", Some(1));
    assert_eq!(sys.machine.a().raw(), 0);

    initiate_then(&mut sys, bob, "shared>board", Some(2));
    let reason = sys.state().processes[bob].aborted.clone().unwrap();
    assert!(
        reason.contains("write") && reason.contains("permission flag off"),
        "bob's ACL entry grants no write: {reason}"
    );
}
