//! User-constructed protected subsystems (rings 2–3).
//!
//! "User A may wish to allow user B to access a sensitive data segment,
//! but only through a special program, provided by A, that audits
//! references to the segment." This module stages exactly that: a
//! sensitive data segment with brackets ending at ring 2 and an audit
//! gate segment executing in ring 2 whose gates are open to rings 3–5.
//! Ring-4 programs cannot touch the data directly; calls through the
//! gate succeed and leave an audit trail — with no supervisor
//! involvement ("the ring protection scheme allows the operation of
//! user-constructed protected subsystems without auditing them for
//! inclusion in the supervisor").

use ring_core::addr::SegNo;
use ring_core::registers::PtrReg;
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;
use ring_cpu::native::NativeAction;

use crate::boot::System;
use crate::conventions::{PR_AP, PR_RP};
use crate::state::{AuditRecord, Kernel};

/// Gate entries of the audit subsystem.
pub mod gate {
    /// `read(index*, result*)` — audited read of one word.
    pub const READ: u32 = 0;
    /// `sum(count*, result*)` — audited sum of the first `count` words.
    pub const SUM: u32 = 1;
    /// Number of gates.
    pub const COUNT: u32 = 2;
}

/// Handles to an installed audit subsystem.
#[derive(Clone, Copy, Debug)]
pub struct AuditSubsystem {
    /// Segment number of the sensitive data segment (brackets end at
    /// ring 2).
    pub data_segno: u32,
    /// Segment number of the audit gate segment.
    pub gate_segno: u32,
}

/// Installs the audit subsystem into process `pid`'s virtual memory:
/// the sensitive data (owned by `owner`) and the ring-2 audit gates.
///
/// # Panics
///
/// Panics on exhausted memory (world building).
pub fn install(system: &mut System, pid: usize, owner: &str, data: &[Word]) -> AuditSubsystem {
    // Sensitive data: readable and writable only through ring 2.
    let staged = system.install_data(pid, Ring::R2, Ring::R2, data, 16);
    let data_segno = staged.segno;

    // The audit gate segment: executes in ring 2, gates open to ring 5.
    let base = system.alloc_mut().alloc(16).expect("gate segment storage");
    let sdw = SdwBuilder::procedure(Ring::R2, Ring::R2, Ring::R5)
        .gates(gate::COUNT)
        .addr(base)
        .bound_words(16)
        .build();
    let gate_segno = system.state_mut().processes[pid]
        .alloc_segno()
        .expect("segment number");
    system.install_sdw(pid, gate_segno, &sdw);

    let owner = owner.to_string();
    let data_sn = SegNo::new(data_segno).expect("segno");
    system
        .machine
        .register_native(SegNo::new(gate_segno).expect("segno"), move |m, entry| {
            // We are executing in ring 2 (the hardware switched here
            // through the gate). References to the sensitive segment
            // are made at ring 2; references to caller arguments
            // through PR1 are validated at the caller's (higher) ring.
            debug_assert_eq!(m.ring(), Ring::R2);
            let caller_ring = m.pr(PR_AP).ring;
            let status = match entry.value() {
                gate::READ => (|| {
                    let ap = m.pr(PR_AP);
                    let idx_ptr = m.arg_pointer(ap, 0).map_err(|_| 4u64)?;
                    let idx = m.read_validated(idx_ptr).map_err(|_| 2u64)?.raw() as u32;
                    let word = m
                        .read_validated(PtrReg::new(
                            Ring::R2,
                            ring_core::addr::SegAddr::new(
                                data_sn,
                                ring_core::addr::WordNo::from_bits(u64::from(idx)),
                            ),
                        ))
                        .map_err(|_| 1u64)?;
                    let res_ptr = m.arg_pointer(ap, 1).map_err(|_| 4u64)?;
                    m.write_validated(res_ptr, word).map_err(|_| 2u64)?;
                    Kernel::lend(m, |_, k| {
                        let user = k.os.current_process().user.clone();
                        k.os.audit_log.push(AuditRecord {
                            user,
                            caller_ring,
                            operation: format!("read[{idx}] of {owner}'s data"),
                        });
                    });
                    Ok::<u64, u64>(0)
                })()
                .unwrap_or_else(|e| e),
                gate::SUM => (|| {
                    let ap = m.pr(PR_AP);
                    let cnt_ptr = m.arg_pointer(ap, 0).map_err(|_| 4u64)?;
                    let count = m.read_validated(cnt_ptr).map_err(|_| 2u64)?.raw() as u32;
                    let mut sum = Word::ZERO;
                    for i in 0..count {
                        let w = m
                            .read_validated(PtrReg::new(
                                Ring::R2,
                                ring_core::addr::SegAddr::new(
                                    data_sn,
                                    ring_core::addr::WordNo::from_bits(u64::from(i)),
                                ),
                            ))
                            .map_err(|_| 1u64)?;
                        sum = sum.wrapping_add(w);
                    }
                    let res_ptr = m.arg_pointer(ap, 1).map_err(|_| 4u64)?;
                    m.write_validated(res_ptr, sum).map_err(|_| 2u64)?;
                    Kernel::lend(m, |_, k| {
                        let user = k.os.current_process().user.clone();
                        k.os.audit_log.push(AuditRecord {
                            user,
                            caller_ring,
                            operation: format!("sum[0..{count}] of {owner}'s data"),
                        });
                    });
                    Ok::<u64, u64>(0)
                })()
                .unwrap_or_else(|e| e),
                _ => 4,
            };
            m.set_a(Word::new(status));
            Ok(NativeAction::Return { via: m.pr(PR_RP) })
        });

    AuditSubsystem {
        data_segno,
        gate_segno,
    }
}
