//! Direct tests of the supervisor service bodies (status codes and
//! corner cases the gate-level tests don't reach).

use ring_core::registers::Ipr;
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_core::{SegAddr, SegNo, WordNo};
use ring_os::acl::{Acl, AclEntry, Modes};
use ring_os::services::{self, status};
use ring_os::System;

/// Puts the machine in ring 0 (as the gate dispatchers would have) with
/// `pid` current.
fn as_supervisor(sys: &mut System, pid: usize) {
    sys.activate(pid);
    sys.machine.set_ipr(Ipr::new(
        Ring::R0,
        SegAddr::new(SegNo::new(2).unwrap(), WordNo::ZERO),
    ));
}

fn rw_acl(user: &str) -> Acl {
    Acl::single(AclEntry::new(user, Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap())
}

#[test]
fn initiate_error_codes() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    as_supervisor(&mut sys, pid);
    sys.with_state(|machine, st| {
        // Unknown path.
        assert_eq!(
            services::svc_initiate(machine, st, "no>such"),
            Err(status::NOT_FOUND)
        );
        // Malformed path.
        assert_eq!(
            services::svc_initiate(machine, st, "a>>b"),
            Err(status::BAD_ARG)
        );
        // Entry with all modes off is no access.
        st.fs
            .create_segment(
                "null>entry",
                Acl::single(
                    AclEntry::new("alice", Modes::NONE, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap(),
                ),
                vec![Word::ZERO],
            )
            .unwrap();
        assert_eq!(
            services::svc_initiate(machine, st, "null>entry"),
            Err(status::NO_ACCESS)
        );
    });
}

#[test]
fn initiate_is_idempotent_per_process() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    sys.create_segment("f", rw_acl("alice"), vec![Word::ZERO]);
    as_supervisor(&mut sys, pid);
    sys.with_state(|machine, st| {
        let a = services::svc_initiate(machine, st, "f").unwrap();
        let b = services::svc_initiate(machine, st, "f").unwrap();
        assert_eq!(a, b, "second initiation returns the same segment number");
        assert_eq!(st.processes[pid].kst.len(), 1);
    });
}

#[test]
fn terminate_unknown_segment() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    as_supervisor(&mut sys, pid);
    sys.with_state(|machine, st| {
        assert_eq!(
            services::svc_terminate(machine, st, 123),
            Err(status::NOT_FOUND)
        );
    });
}

#[test]
fn fs_step_error_paths() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    sys.create_segment("d>leaf", rw_acl("alice"), vec![]);
    as_supervisor(&mut sys, pid);
    sys.with_state(|machine, st| {
        // Root -> d is a directory handle.
        let h = services::svc_fs_step(machine, st, 0, "d").unwrap();
        assert!(h & services::SEGMENT_FLAG == 0, "directory handle");
        // d -> leaf is a segment.
        let leaf = services::svc_fs_step(machine, st, h, "leaf").unwrap();
        assert!(leaf & services::SEGMENT_FLAG != 0, "segment handle");
        // Unknown component.
        assert_eq!(
            services::svc_fs_step(machine, st, 0, "zzz"),
            Err(status::NOT_FOUND)
        );
        // fs_search agrees with the stepwise result.
        let direct = services::svc_fs_search(machine, st, "d>leaf").unwrap();
        assert_eq!(u64::from(direct) | services::SEGMENT_FLAG, leaf);
    });
}

#[test]
fn set_acl_bad_ring_order_is_bad_arg() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    sys.create_segment("f", rw_acl("alice"), vec![Word::ZERO]);
    as_supervisor(&mut sys, pid);
    sys.with_state(|machine, st| {
        let res = services::svc_set_acl(
            machine,
            st,
            "f",
            "bob",
            Modes::R,
            (Ring::R5, Ring::R4, Ring::R6), // r1 > r2: invalid
            0,
            Ring::R0,
        );
        assert_eq!(res, Err(status::BAD_ARG));
    });
}

#[test]
fn tty_connect_rejects_oversized_transfers() {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    as_supervisor(&mut sys, pid);
    sys.with_state(|machine, st| {
        let buf = ring_core::registers::PtrReg::new(Ring::R0, SegAddr::from_parts(4, 0).unwrap());
        assert_eq!(
            services::svc_tty_connect(machine, st, buf, services::TTY_BUF_WORDS + 1),
            Err(status::BAD_ARG)
        );
    });
}

#[test]
fn accounting_accumulates_per_user() {
    let mut sys = System::boot();
    let a = sys.login("alice");
    let b = sys.login("bob");
    as_supervisor(&mut sys, a);
    {
        sys.with_state(|machine, st| {
            services::svc_acct_charge(machine, st, 10).unwrap();
            services::svc_acct_charge(machine, st, -3).unwrap();
            assert_eq!(services::svc_acct_read(machine, st).unwrap(), 7);
        });
    }
    as_supervisor(&mut sys, b);
    sys.with_state(|machine, st| {
        assert_eq!(
            services::svc_acct_read(machine, st).unwrap(),
            0,
            "bob's account is separate"
        );
    });
}
