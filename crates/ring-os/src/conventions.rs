//! Software conventions: register roles, standard segment numbers,
//! frame layout, string representation.
//!
//! These are *conventions*, not hardware: the paper is explicit that
//! stack discipline, argument lists and return points are software
//! matters built on the hardware guarantees (stack-base generation, the
//! `PRn.RING >= IPR.RING` invariant, effective-ring validation).

use ring_core::addr::{SegAddr, WordNo};
use ring_core::registers::PtrReg;
use ring_core::ring::Ring;

/// PR0: the stack base pointer, generated by the CALL instruction.
pub const PR_SB: usize = 0;
/// PR1: the argument pointer ("PRa" in the paper) — set by the caller to
/// the base of the argument list of indirect words.
pub const PR_AP: usize = 1;
/// PR2: the return pointer — set by the caller (EAP in its own ring) to
/// the instruction following the call. Its ring field can never be below
/// the caller's ring, which is what makes returns secure.
pub const PR_RP: usize = 2;
/// PR6: the stack pointer.
pub const PR_SP: usize = ring_cpu::callret::SP_PR;

/// Standard segment numbers, identical in every process (supervisor
/// segments are shared).
pub mod segs {
    /// The ring-0 trap segment: vectors + processor save area.
    pub const TRAP: u32 = ring_cpu::trap::TRAP_SEGNO.value();
    /// The hardcore-supervisor gate segment (ring 0).
    pub const HCS: u32 = 2;
    /// The outer-supervisor gate segment (ring 1).
    pub const RING1: u32 = 3;
    /// Supervisor data (ring 0 brackets): tty buffers etc.
    pub const SUP_DATA: u32 = 4;
    /// Ring-1 supervisor data: accounting records etc.
    pub const RING1_DATA: u32 = 5;
    /// Base of the eight per-ring stack segments (`+ ring`).
    pub const STACK_BASE: u32 = 48;
    /// First segment number handed out to initiated segments.
    pub const FIRST_USER: u32 = 64;
    /// Number of SDW slots in each process descriptor segment.
    pub const DESCRIPTOR_SLOTS: u32 = 256;
}

/// Entry numbers (gate word numbers) in the HCS gate segment.
pub mod hcs {
    /// `initiate(path*, result*)` — add a segment to the virtual memory.
    pub const INITIATE: u32 = 0;
    /// `terminate(segno*)` — remove a segment from the virtual memory.
    pub const TERMINATE: u32 = 1;
    /// `set_acl(path*, user*, modes*, rings*)` — change an ACL entry.
    pub const SET_ACL: u32 = 2;
    /// `tty_write(buf*, count*)` — monolithic typewriter output: code
    /// conversion *and* channel start in ring 0 (the design the paper
    /// criticises).
    pub const TTY_WRITE: u32 = 3;
    /// `tty_connect(buf*, count*)` — minimal typewriter primitive: copy
    /// the already-converted buffer and start the channel; conversion
    /// lives in an unprotected library (the design the paper advocates).
    pub const TTY_CONNECT: u32 = 4;
    /// `fs_search(path*, result*)` — complete file search in the
    /// supervisor (the design the paper criticises).
    pub const FS_SEARCH: u32 = 5;
    /// `fs_step(dir*, component*, result*)` — one directory-search step;
    /// the unprotected library calls it repeatedly (the design the paper
    /// advocates).
    pub const FS_STEP: u32 = 6;
    /// Number of gate words in the HCS segment.
    pub const COUNT: u32 = 7;
}

/// Entry numbers in the ring-1 gate segment.
pub mod ring1 {
    /// `acct_charge(units*)` — add to the caller's account.
    pub const ACCT_CHARGE: u32 = 0;
    /// `acct_read(result*)` — read the caller's account balance.
    pub const ACCT_READ: u32 = 1;
    /// `ios_write(buf*, count*)` — stream-level typewriter output
    /// (formats in ring 1, then uses the ring-0 primitive).
    pub const IOS_WRITE: u32 = 2;
    /// Number of gate words in the ring-1 segment.
    pub const COUNT: u32 = 3;
}

/// Stack frame layout (software convention).
pub mod frame {
    /// Word 0 of every stack segment points to the next free frame.
    pub const NEXT_FREE_PTR: u32 = 0;
    /// First usable frame offset in a fresh stack segment.
    pub const FIRST_FRAME: u32 = 16;
    /// Saved caller SP at frame offset 0 (a two-word pointer pair).
    pub const SAVED_SP: u32 = 0;
    /// Argument-list area begins at frame offset 4.
    pub const ARGS: u32 = 4;
    /// Default frame size in words.
    pub const SIZE: u32 = 64;
}

/// Builds a pointer register value for `(ring, segno, wordno)`.
///
/// # Panics
///
/// Panics if the parts are out of range (conventions code deals in
/// well-formed constants).
pub fn ptr(ring: Ring, segno: u32, wordno: u32) -> PtrReg {
    PtrReg::new(
        ring,
        SegAddr::from_parts(segno, wordno).expect("address in range"),
    )
}

/// The two-part address of gate `entry` in gate segment `segno`.
///
/// # Panics
///
/// Panics if out of range.
pub fn gate_addr(segno: u32, entry: u32) -> SegAddr {
    SegAddr::from_parts(segno, entry).expect("gate address in range")
}

/// Word-number helper.
///
/// # Panics
///
/// Panics if out of range.
pub fn wn(w: u32) -> WordNo {
    WordNo::new(w).expect("word number in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_roles_are_distinct() {
        let roles = [PR_SB, PR_AP, PR_RP, PR_SP];
        let unique: std::collections::HashSet<_> = roles.iter().collect();
        assert_eq!(unique.len(), roles.len());
    }

    #[test]
    fn standard_segments_do_not_collide() {
        let set = [
            segs::TRAP,
            segs::HCS,
            segs::RING1,
            segs::SUP_DATA,
            segs::RING1_DATA,
        ];
        let unique: std::collections::HashSet<_> = set.iter().collect();
        assert_eq!(unique.len(), set.len());
        for s in set {
            assert!(s < segs::STACK_BASE, "{s}");
        }
        const _: () = assert!(segs::STACK_BASE + 8 <= segs::FIRST_USER);
        const _: () = assert!(segs::FIRST_USER < segs::DESCRIPTOR_SLOTS);
    }

    #[test]
    fn gate_counts_cover_entries() {
        const _: () = assert!(hcs::FS_STEP < hcs::COUNT);
        const _: () = assert!(ring1::IOS_WRITE < ring1::COUNT);
    }
}
