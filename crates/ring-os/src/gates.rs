//! Gate dispatchers: the native bodies of the HCS (ring 0) and ring-1
//! gate segments.
//!
//! A gate dispatcher runs only after the hardware CALL validation has
//! admitted the transfer (gate list, brackets, ring switch). It
//! unmarshals arguments through the argument pointer `PR1` using the
//! machine's *validated* accessors — so every reference it makes on the
//! caller's behalf is checked against the caller's effective ring,
//! exactly as the paper's argument-validation mechanism prescribes —
//! performs the service, leaves a status code in the A register, and
//! returns through the return pointer `PR2`.

use ring_core::access::Fault;
use ring_core::addr::SegNo;
use ring_core::registers::PtrReg;
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::machine::Machine;
use ring_cpu::native::NativeAction;

use crate::acl::Modes;
use crate::conventions::{hcs, ring1, segs, PR_AP, PR_RP};
use crate::services;
use crate::services::status;
use crate::state::{Kernel, OsState};
use crate::strings::read_string;

/// Reads argument `n` as a pointer (dereferencing the caller's
/// argument-list indirect pair with effective-ring folding).
fn arg_ptr(m: &mut Machine, n: u32) -> Result<PtrReg, Fault> {
    let ap = m.pr(PR_AP);
    m.arg_pointer(ap, n)
}

/// Reads argument `n` as a single word through its pointer.
fn arg_word(m: &mut Machine, n: u32) -> Result<Word, Fault> {
    let p = arg_ptr(m, n)?;
    m.read_validated(p)
}

/// Writes a result word through argument `n`'s pointer.
fn write_result(m: &mut Machine, n: u32, v: Word) -> Result<(), Fault> {
    let p = arg_ptr(m, n)?;
    m.write_validated(p, v)
}

fn fault_status(f: Fault) -> u64 {
    match f {
        Fault::AccessViolation { .. } => status::NO_ACCESS,
        _ => status::BAD_ARG,
    }
}

/// Decodes the packed modes word of `set_acl` (bit 0 read, bit 1 write,
/// bit 2 execute).
fn decode_modes(w: Word) -> Modes {
    Modes {
        read: w.bit(0),
        write: w.bit(1),
        execute: w.bit(2),
    }
}

/// Decodes the packed rings word of `set_acl`:
/// `R1[0..3] R2[3..6] R3[6..9] GATES[9..23]`.
fn decode_rings(w: Word) -> ((Ring, Ring, Ring), u32) {
    (
        (
            Ring::from_bits(w.field(0, 3)),
            Ring::from_bits(w.field(3, 3)),
            Ring::from_bits(w.field(6, 3)),
        ),
        w.field(9, 14) as u32,
    )
}

/// Installs the HCS and ring-1 gate dispatchers on the machine. Their
/// state is the machine's [`Kernel`].
pub fn install(machine: &mut Machine) {
    machine.register_native(SegNo::new(segs::HCS).expect("segno"), |m, entry| {
        let status = Kernel::lend(m, |m, k| {
            let s = &mut k.os;
            s.stats.gate_calls_hcs += 1;
            if !s.processes.is_empty() {
                s.current_process_mut().gate_calls += 1;
            }
            hcs_entry(m, s, entry.value())
        });
        m.set_a(Word::new(status));
        Ok(NativeAction::Return { via: m.pr(PR_RP) })
    });

    machine.register_native(SegNo::new(segs::RING1).expect("segno"), |m, entry| {
        let status = Kernel::lend(m, |m, k| {
            let s = &mut k.os;
            s.stats.gate_calls_ring1 += 1;
            if !s.processes.is_empty() {
                s.current_process_mut().gate_calls += 1;
            }
            ring1_entry(m, s, entry.value())
        });
        m.set_a(Word::new(status));
        Ok(NativeAction::Return { via: m.pr(PR_RP) })
    });
}

fn hcs_entry(m: &mut Machine, s: &mut OsState, entry: u32) -> u64 {
    match entry {
        hcs::INITIATE => (|| {
            let path_ptr = arg_ptr(m, 0).map_err(fault_status)?;
            let path = read_string(m, path_ptr).map_err(fault_status)?;
            let segno = services::svc_initiate(m, s, &path)?;
            write_result(m, 1, Word::new(u64::from(segno))).map_err(fault_status)?;
            Ok(status::OK)
        })()
        .unwrap_or_else(|e| e),
        hcs::TERMINATE => (|| {
            let segno = arg_word(m, 0).map_err(fault_status)?;
            services::svc_terminate(m, s, segno.raw() as u32)?;
            Ok(status::OK)
        })()
        .unwrap_or_else(|e| e),
        hcs::SET_ACL => (|| {
            let path_ptr = arg_ptr(m, 0).map_err(fault_status)?;
            let path = read_string(m, path_ptr).map_err(fault_status)?;
            let user_ptr = arg_ptr(m, 1).map_err(fault_status)?;
            let user = read_string(m, user_ptr).map_err(fault_status)?;
            let modes = decode_modes(arg_word(m, 2).map_err(fault_status)?);
            let (rings, gates) = decode_rings(arg_word(m, 3).map_err(fault_status)?);
            // The caller's ring is bounded below by the argument
            // pointer's ring (the hardware guarantees PR rings never
            // drop below the caller's ring of execution).
            let caller_ring = m.pr(PR_AP).ring;
            services::svc_set_acl(m, s, &path, &user, modes, rings, gates, caller_ring)?;
            Ok(status::OK)
        })()
        .unwrap_or_else(|e| e),
        hcs::TTY_WRITE => (|| {
            let buf = arg_ptr(m, 0).map_err(fault_status)?;
            let count = arg_word(m, 1).map_err(fault_status)?.raw() as u32;
            services::svc_tty_write(m, s, buf, count)?;
            Ok(status::OK)
        })()
        .unwrap_or_else(|e| e),
        hcs::TTY_CONNECT => (|| {
            let buf = arg_ptr(m, 0).map_err(fault_status)?;
            let count = arg_word(m, 1).map_err(fault_status)?.raw() as u32;
            services::svc_tty_connect(m, s, buf, count)?;
            Ok(status::OK)
        })()
        .unwrap_or_else(|e| e),
        hcs::FS_SEARCH => (|| {
            let path_ptr = arg_ptr(m, 0).map_err(fault_status)?;
            let path = read_string(m, path_ptr).map_err(fault_status)?;
            let id = services::svc_fs_search(m, s, &path)?;
            write_result(m, 1, Word::new(u64::from(id))).map_err(fault_status)?;
            Ok(status::OK)
        })()
        .unwrap_or_else(|e| e),
        hcs::FS_STEP => (|| {
            let handle = arg_word(m, 0).map_err(fault_status)?.raw();
            let comp_ptr = arg_ptr(m, 1).map_err(fault_status)?;
            let component = read_string(m, comp_ptr).map_err(fault_status)?;
            let next = services::svc_fs_step(m, s, handle, &component)?;
            write_result(m, 2, Word::new(next)).map_err(fault_status)?;
            Ok(status::OK)
        })()
        .unwrap_or_else(|e| e),
        _ => status::BAD_ARG,
    }
}

fn ring1_entry(m: &mut Machine, s: &mut OsState, entry: u32) -> u64 {
    match entry {
        ring1::ACCT_CHARGE => (|| {
            let units = arg_word(m, 0).map_err(fault_status)?.as_signed();
            services::svc_acct_charge(m, s, units)?;
            Ok(status::OK)
        })()
        .unwrap_or_else(|e| e),
        ring1::ACCT_READ => (|| {
            let balance = services::svc_acct_read(m, s)?;
            write_result(m, 0, Word::from_signed(balance)).map_err(fault_status)?;
            Ok(status::OK)
        })()
        .unwrap_or_else(|e| e),
        ring1::IOS_WRITE => (|| {
            let buf = arg_ptr(m, 0).map_err(fault_status)?;
            let count = arg_word(m, 1).map_err(fault_status)?.raw() as u32;
            services::svc_ios_write(m, s, buf, count)?;
            Ok(status::OK)
        })()
        .unwrap_or_else(|e| e),
        _ => status::BAD_ARG,
    }
}
