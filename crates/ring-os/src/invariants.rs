//! The chaos invariant checker.
//!
//! After a recovery claims success, these checks re-establish that the
//! protection state the paper's hardware depends on is actually
//! consistent:
//!
//! 1. every present SDW in every live process's descriptor segment
//!    satisfies R1 ≤ R2 ≤ R3 (the access-bracket ordering of Fig. 2 —
//!    a descriptor violating it grants rings it should deny);
//! 2. the frame pool maps each physical frame at most once, and every
//!    resident slot's PTW still names the slot's frame (no two
//!    processes can reach one writable frame through divergent
//!    bookkeeping);
//! 3. every SDW-cache entry agrees with the in-memory descriptor pair
//!    it caches for the current address space (a stale cached
//!    descriptor would outlive the salvager's repairs).
//!
//! The checker never panics and never takes a counted (faultable)
//! read: it peeks, and skips words that are still poisoned — those are
//! damage awaiting their own trap, not inconsistency.

use ring_cpu::machine::Machine;
use ring_segmem::paging::Ptw;

use ring_core::sdw::Sdw;
use ring_core::word::Word;

use crate::state::OsState;

/// Which protection invariant a violation broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvariantClass {
    /// An SDW grants access its brackets should deny (R1 ≤ R2 ≤ R3
    /// broken in a live descriptor segment).
    BracketOrdering,
    /// The frame pool and the page tables disagree about who owns a
    /// physical frame.
    FramePool,
    /// A cached SDW no longer matches the descriptor pair it caches.
    SdwCacheCoherence,
}

impl InvariantClass {
    /// Stable machine-readable name (report keys, quarantine lists).
    pub fn key(self) -> &'static str {
        match self {
            InvariantClass::BracketOrdering => "bracket_ordering",
            InvariantClass::FramePool => "frame_pool",
            InvariantClass::SdwCacheCoherence => "sdw_cache_coherence",
        }
    }
}

/// A typed invariant violation: which invariant broke, plus a
/// human-readable description of the first inconsistency found.
///
/// This is an error type (not an assertion) because a violation is an
/// *outcome* the fleet supervisor classifies and heals around — a
/// machine whose recovery left the protection state inconsistent is
/// restarted from a checkpoint, and quarantined if that keeps failing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant broke.
    pub class: InvariantClass,
    /// What, precisely, is inconsistent.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.class.key(), self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

fn violation(class: InvariantClass, detail: String) -> InvariantViolation {
    InvariantViolation { class, detail }
}

/// Checks the protection invariants; returns the first violation
/// found, typed by invariant class.
pub fn check(m: &Machine, s: &OsState) -> Result<(), InvariantViolation> {
    check_descriptor_brackets(m, s).map_err(|d| violation(InvariantClass::BracketOrdering, d))?;
    check_frame_pool(m, s).map_err(|d| violation(InvariantClass::FramePool, d))?;
    check_sdw_cache_coherence(m, s).map_err(|d| violation(InvariantClass::SdwCacheCoherence, d))
}

/// Invariant 1: bracket ordering in every live descriptor segment.
///
/// Each descriptor segment is read as one slice, and the ring fields
/// are checked raw: [`Sdw::unpack`] clamps them into order, so a
/// decoded SDW could never show the damage. Poison is looked up only
/// for a descriptor that breaks the ordering.
fn check_descriptor_brackets(m: &Machine, s: &OsState) -> Result<(), String> {
    let phys = m.phys();
    let misordered = |w0: Word| {
        let (present, [r1, r2, r3]) = Sdw::raw_brackets(w0);
        present && !(r1 <= r2 && r2 <= r3)
    };
    let mut words = Vec::new();
    for (pid, p) in s.processes.iter().enumerate() {
        if p.aborted.is_some() {
            continue;
        }
        let dbr = p.dbr;
        let pair_at = |segno: u32| dbr.addr.wrapping_add(2 * segno);
        let poisoned = |segno: u32| {
            phys.is_poisoned(pair_at(segno)) || phys.is_poisoned(pair_at(segno).wrapping_add(1))
        };
        let report = |segno: u32, w0: Word| {
            let (_, [r1, r2, r3]) = Sdw::raw_brackets(w0);
            Err(format!(
                "pid {pid}: segment {segno} violates R1 <= R2 <= R3 ({r1} {r2} {r3})"
            ))
        };
        words.clear();
        // A descriptor segment that runs past the end of memory reads
        // its in-range prefix; the pairs beyond it are peeked one by one.
        let _ = phys.peek_into(dbr.addr, 2 * dbr.bound as usize, &mut words);
        let first_bad = words
            .chunks_exact(2)
            .map(|pair| pair[0])
            .enumerate()
            .find(|&(segno, w0)| misordered(w0) && !poisoned(segno as u32));
        if let Some((segno, w0)) = first_bad {
            return report(segno as u32, w0);
        }
        for segno in (words.len() / 2) as u32..dbr.bound {
            if poisoned(segno) {
                continue;
            }
            let (Ok(w0), Ok(_)) = (
                phys.peek(pair_at(segno)),
                phys.peek(pair_at(segno).wrapping_add(1)),
            ) else {
                return Err(format!(
                    "pid {pid}: descriptor pair for segment {segno} is out of physical bounds"
                ));
            };
            if misordered(w0) {
                return report(segno, w0);
            }
        }
    }
    Ok(())
}

/// Invariant 2: frame-pool / page-table agreement.
fn check_frame_pool(m: &Machine, s: &OsState) -> Result<(), String> {
    let Some(pool) = s.frames.as_ref() else {
        return Ok(());
    };
    let mut seen = std::collections::HashSet::new();
    for &(frame, owner) in pool.resident_set() {
        if !seen.insert(frame) {
            return Err(format!("frame {frame} is resident in two pool slots"));
        }
        if m.phys().is_poisoned(owner.ptw_addr) {
            continue;
        }
        let Ok(w) = m.phys().peek(owner.ptw_addr) else {
            return Err(format!(
                "frame {frame}: PTW address {:#o} is out of physical bounds",
                owner.ptw_addr.value()
            ));
        };
        let ptw = Ptw::unpack(w);
        if !ptw.present || ptw.frame != frame {
            return Err(format!(
                "frame {frame}: pool says pid {} seg {} page {}, but the PTW maps {}",
                owner.pid,
                owner.segno,
                owner.page,
                if ptw.present {
                    format!("frame {}", ptw.frame)
                } else {
                    "nothing".to_string()
                }
            ));
        }
    }
    Ok(())
}

/// Invariant 3: the SDW cache agrees with the current descriptor
/// segment.
fn check_sdw_cache_coherence(m: &Machine, s: &OsState) -> Result<(), String> {
    if s.processes.is_empty() {
        return Ok(());
    }
    let dbr = s.processes[s.current].dbr;
    for entry in m.translator().export_cache_state().entries.iter().flatten() {
        let (segno, cached) = entry;
        let Some(a0) = dbr.sdw_addr(*segno) else {
            return Err(format!(
                "SDW cache holds segment {} beyond the descriptor bound",
                segno.value()
            ));
        };
        let a1 = a0.wrapping_add(1);
        if m.phys().is_poisoned(a0) || m.phys().is_poisoned(a1) {
            continue;
        }
        let (Ok(w0), Ok(w1)) = (m.phys().peek(a0), m.phys().peek(a1)) else {
            continue;
        };
        if Sdw::unpack(w0, w1) != *cached {
            return Err(format!(
                "SDW cache entry for segment {} disagrees with the descriptor segment",
                segno.value()
            ));
        }
    }
    Ok(())
}
