//! Processes and their per-process virtual memories.
//!
//! "A process with a new virtual memory is created for each user when
//! he logs in to the system, and the name of the user is associated
//! with the process." Each process owns a descriptor segment; the
//! supervisor segments are shared (same SDWs installed at the same
//! segment numbers in every descriptor segment), while stacks and
//! initiated segments are per-process.

use std::collections::BTreeMap;

use ring_core::addr::{AbsAddr, SegNo};
use ring_core::registers::{Dbr, Ipr};
use ring_core::ring::Ring;
use ring_cpu::trap::SavedState;

use crate::conventions::segs;
use crate::fs::SegmentId;

/// Known-segment-table entry: one initiated segment of a process.
#[derive(Clone, Debug)]
pub struct KstEntry {
    /// Which stored segment is mapped here.
    pub id: SegmentId,
    /// Whether its contents have been brought into memory (demand
    /// loading happens at the first segment fault).
    pub loaded: bool,
}

/// One process.
#[derive(Clone, Debug)]
pub struct ProcessState {
    /// Owning user.
    pub user: String,
    /// The process's descriptor base register value.
    pub dbr: Dbr,
    /// Known segment table: segno → initiated segment.
    pub kst: BTreeMap<u32, KstEntry>,
    /// Next segment number to hand out at initiation.
    pub next_segno: u32,
    /// Processor state while not running (the scheduler swaps this with
    /// the machine's save area).
    pub saved: Option<SavedState>,
    /// Dynamic return gates created by software-mediated upward calls
    /// (a push-down stack, as the paper requires).
    pub return_gates: Vec<(Ring, Ipr)>,
    /// Abort reason if the supervisor terminated the process.
    pub aborted: Option<String>,
    /// Gate transits (HCS + ring-1) made by this process.
    pub gate_calls: u64,
    /// Software-mediated upward calls made by this process.
    pub upward_calls: u64,
    /// Times the scheduler took the processor away from this process
    /// while it was still runnable (timer runouts it lost).
    pub preemptions: u64,
    /// Page faults (minor and major) this process took.
    pub page_faults: u64,
}

impl ProcessState {
    /// Creates the bookkeeping for a process whose descriptor segment
    /// lives at `desc_base`.
    pub fn new(user: &str, desc_base: AbsAddr) -> ProcessState {
        ProcessState {
            user: user.to_string(),
            dbr: Dbr::new(
                desc_base,
                segs::DESCRIPTOR_SLOTS,
                SegNo::new(segs::STACK_BASE).expect("stack base segno"),
            ),
            kst: BTreeMap::new(),
            next_segno: segs::FIRST_USER,
            saved: None,
            return_gates: Vec::new(),
            aborted: None,
            gate_calls: 0,
            upward_calls: 0,
            preemptions: 0,
            page_faults: 0,
        }
    }

    /// A minimal instance for unit tests that never runs.
    pub fn new_for_test(user: &str) -> ProcessState {
        ProcessState::new(user, AbsAddr::ZERO)
    }

    /// Allocates the next free segment number.
    pub fn alloc_segno(&mut self) -> Option<u32> {
        let n = self.next_segno;
        if n < segs::DESCRIPTOR_SLOTS {
            self.next_segno = n + 1;
            Some(n)
        } else {
            None
        }
    }

    /// The initiated segment mapped at `segno`, if any.
    pub fn lookup(&self, segno: u32) -> Option<&KstEntry> {
        self.kst.get(&segno)
    }

    /// The segment number at which `id` is initiated, if any (reverse
    /// lookup; a stored segment is mapped at most once per process).
    pub fn segno_of(&self, id: SegmentId) -> Option<u32> {
        self.kst
            .iter()
            .find(|(_, e)| e.id == id)
            .map(|(segno, _)| *segno)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segno_allocation_is_sequential_and_bounded() {
        let mut p = ProcessState::new_for_test("alice");
        assert_eq!(p.alloc_segno(), Some(segs::FIRST_USER));
        assert_eq!(p.alloc_segno(), Some(segs::FIRST_USER + 1));
        p.next_segno = segs::DESCRIPTOR_SLOTS;
        assert_eq!(p.alloc_segno(), None);
    }

    #[test]
    fn dbr_uses_standard_stack_base() {
        let p = ProcessState::new_for_test("alice");
        assert_eq!(p.dbr.stack_base.value(), segs::STACK_BASE);
        assert_eq!(p.dbr.bound, segs::DESCRIPTOR_SLOTS);
    }

    #[test]
    fn reverse_lookup() {
        let mut p = ProcessState::new_for_test("alice");
        p.kst.insert(
            70,
            KstEntry {
                id: SegmentId(5),
                loaded: false,
            },
        );
        assert_eq!(p.segno_of(SegmentId(5)), Some(70));
        assert_eq!(p.segno_of(SegmentId(6)), None);
        assert!(p.lookup(70).is_some());
        assert!(p.lookup(71).is_none());
    }
}
