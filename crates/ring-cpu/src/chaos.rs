//! Applying chaos-engine decisions to the machine.
//!
//! The engine ([`ring_chaos::ChaosEngine`]) decides *when* a simulated
//! hardware fault fires and *what kind*; this module decides *where* —
//! which physical word, which descriptor, which channel — using only
//! the engine's deterministic RNG stream and the machine's own state,
//! so a chaos run replays bit-for-bit.
//!
//! Injection happens between instructions, outside trap handling, in
//! [`crate::machine::Machine::step`]. Each kind arms exactly one
//! architecturally-detectable condition:
//!
//! - **MemParity** scrambles one bit of a physical word and marks it
//!   poisoned; the next *counted* read raises a parity-error trap.
//! - **SdwCorrupt** / **PtwCorrupt** do the same to a descriptor or
//!   page-table word, additionally dropping the damaged translation
//!   from the SDW cache and TLB so the corruption cannot be outlived
//!   by a clean cached copy.
//! - **TlbCorrupt** damages a translation-cache entry; cache parity
//!   detects it immediately and the entry is discarded (hardware
//!   recovery), feeding the graceful-degradation policy.
//! - **DrumReadError** / **DrumWriteError** arm a backing-store
//!   transfer failure the supervisor consumes and retries.
//! - **LostIoCompletion** makes the next channel completion drop its
//!   interrupt; the channel watchdog converts the silence into an
//!   I/O-error trap.
//! - **SpuriousTimer** forces an immediate timer runout.
//!
//! The trap segment's physical range is never poisoned: the hardware
//! save area must stay readable for any recovery to be possible at
//! all (a parity error during trap entry is an unrecoverable double
//! fault by design, the same reason the real hardware put its save
//! area in dedicated storage).

use ring_chaos::{ChaosKind, Degrade};
use ring_core::sdw::Sdw;
use ring_core::word::WORD_BITS;

use crate::machine::Machine;
use crate::trap::TRAP_SEGNO;

/// Bounded re-roll attempts when a drawn injection target is invalid
/// (protected range, out of range, empty map). Bounded so a degenerate
/// world cannot loop forever; an exhausted draw skips the injection
/// without counting it.
const TARGET_REROLLS: u32 = 8;

impl Machine {
    /// One chaos poll: fires at most one injection decided by the plan.
    pub(crate) fn chaos_tick(&mut self) {
        let Some(kind) = self.chaos.poll(self.cycles) else {
            return;
        };
        match kind {
            ChaosKind::MemParity => self.inject_mem_parity(),
            ChaosKind::SdwCorrupt => self.inject_sdw_corrupt(),
            ChaosKind::PtwCorrupt => self.inject_ptw_corrupt(),
            ChaosKind::DrumReadError => {
                self.chaos.arm_drum_read_error();
                self.note_injection(ChaosKind::DrumReadError, 0);
            }
            ChaosKind::DrumWriteError => {
                self.chaos.arm_drum_write_error();
                self.note_injection(ChaosKind::DrumWriteError, 0);
            }
            ChaosKind::LostIoCompletion => self.inject_lost_completion(),
            ChaosKind::TlbCorrupt => self.inject_tlb_corrupt(),
            ChaosKind::SpuriousTimer => self.inject_spurious_timer(),
        }
    }

    /// Ledger + flight-recorder bookkeeping for one applied injection.
    fn note_injection(&mut self, kind: ChaosKind, detail: u64) {
        self.chaos.note_injected(kind);
        self.obs.marker(self.ipr.ring, self.cycles, || {
            format!("chaos: {kind} @{detail:#o}")
        });
    }

    /// Applies a degradation decision from the policy: repeated
    /// corruption demotes a segment (or the whole machine) to the
    /// always-revalidating slow path.
    fn apply_degrade(&mut self, d: Degrade) {
        if d.global {
            self.tr.set_global_fast_veto();
        } else if let Some(seg) = d.seg {
            self.tr.set_fast_veto(seg);
        }
    }

    /// The physical range of the trap segment (vectors + save area),
    /// which injection must never poison.
    fn protected_range(&self) -> Option<(u32, u32)> {
        let sa = self.dbr.sdw_addr(TRAP_SEGNO)?;
        let w0 = self.phys.peek(sa).ok()?;
        let w1 = self.phys.peek(sa.wrapping_add(1)).ok()?;
        let sdw = Sdw::unpack(w0, w1);
        if !sdw.present || !sdw.unpaged {
            return None;
        }
        Some((sdw.addr.value(), sdw.addr.value() + sdw.length_words()))
    }

    /// Draws a poisonable physical address below the memory high-water
    /// mark, avoiding the protected trap-segment range and every range
    /// registered through [`Machine::chaos_protect`].
    fn draw_parity_target(&mut self) -> Option<u32> {
        let hw = self.phys.high_water();
        if hw == 0 {
            return None;
        }
        let protect = self.protected_range();
        for _ in 0..TARGET_REROLLS {
            let abs = (self.chaos.rand() % u64::from(hw)) as u32;
            if let Some((lo, hi)) = protect {
                if abs >= lo && abs < hi {
                    continue;
                }
            }
            if self
                .chaos_protect
                .iter()
                .any(|&(lo, hi)| abs >= lo && abs < hi)
            {
                continue;
            }
            return Some(abs);
        }
        None
    }

    fn draw_mask(&mut self) -> u64 {
        1u64 << (self.chaos.rand() % u64::from(WORD_BITS))
    }

    fn inject_mem_parity(&mut self) {
        let Some(abs) = self.draw_parity_target() else {
            return;
        };
        let mask = self.draw_mask();
        if self.phys.corrupt(abs, mask) {
            self.note_injection(ChaosKind::MemParity, u64::from(abs));
        }
    }

    /// Scrambles one word of a random segment's in-memory SDW pair.
    /// The next descriptor walk for that segment meets the parity
    /// error; the supervisor's salvager repairs the descriptor segment.
    fn inject_sdw_corrupt(&mut self) {
        if self.dbr.bound == 0 {
            return;
        }
        for _ in 0..TARGET_REROLLS {
            let segno = (self.chaos.rand() % u64::from(self.dbr.bound)) as u32;
            if segno == TRAP_SEGNO.value() {
                continue;
            }
            let segno_t = ring_core::addr::SegNo::from_bits(u64::from(segno));
            let Some(sa) = self.dbr.sdw_addr(segno_t) else {
                continue;
            };
            let abs = sa.wrapping_add((self.chaos.rand() % 2) as u32).value();
            let mask = self.draw_mask();
            if self.phys.corrupt(abs, mask) {
                self.tr.chaos_invalidate(segno_t);
                self.note_injection(ChaosKind::SdwCorrupt, u64::from(abs));
                let d = self.chaos.note_corruption(Some(segno));
                self.apply_degrade(d);
            }
            return;
        }
    }

    /// Scrambles one PTW of a random paged, present segment. Falls back
    /// to a plain memory parity error when the current address space
    /// has no paged segments.
    fn inject_ptw_corrupt(&mut self) {
        let bound = self.dbr.bound;
        if bound == 0 {
            self.inject_mem_parity();
            return;
        }
        let start = (self.chaos.rand() % u64::from(bound)) as u32;
        for i in 0..bound {
            let segno = (start + i) % bound;
            if segno == TRAP_SEGNO.value() {
                continue;
            }
            let segno_t = ring_core::addr::SegNo::from_bits(u64::from(segno));
            let Some(sa) = self.dbr.sdw_addr(segno_t) else {
                continue;
            };
            let (Ok(w0), Ok(w1)) = (self.phys.peek(sa), self.phys.peek(sa.wrapping_add(1))) else {
                continue;
            };
            let sdw = Sdw::unpack(w0, w1);
            if !sdw.present || sdw.unpaged {
                continue;
            }
            let pages = ring_segmem::paging::pages_for(sdw.length_words());
            if pages == 0 {
                continue;
            }
            let page = (self.chaos.rand() % u64::from(pages)) as u32;
            let abs = sdw.addr.wrapping_add(page).value();
            let mask = self.draw_mask();
            if self.phys.corrupt(abs, mask) {
                self.tr.chaos_invalidate(segno_t);
                self.note_injection(ChaosKind::PtwCorrupt, u64::from(abs));
                let d = self.chaos.note_corruption(Some(segno));
                self.apply_degrade(d);
            }
            return;
        }
        self.inject_mem_parity();
    }

    /// Damages a live translation-cache entry. Cache parity catches it
    /// immediately — the entry is discarded and refilled on the next
    /// reference — so injection and detection coincide; what matters is
    /// the degradation policy's ledger.
    fn inject_tlb_corrupt(&mut self) {
        let pick = self.chaos.rand();
        // The stream spends two draws on this kind; only the first
        // picks the victim. Keeping the second keeps every later
        // injection of a seeded campaign where recorded runs put it.
        let _ = self.chaos.rand();
        if let Some(seg) = self.tr.chaos_corrupt_cache(pick) {
            self.note_injection(ChaosKind::TlbCorrupt, u64::from(seg));
            self.chaos.note_detected();
            let d = self.chaos.note_corruption(Some(seg));
            self.apply_degrade(d);
        }
    }

    /// Arms the next channel completion to drop its interrupt. Only
    /// applied while a transfer is actually in flight, so every count
    /// corresponds to a real lost interrupt.
    fn inject_lost_completion(&mut self) {
        let busy = (0..crate::io::NUM_CHANNELS).any(|c| self.io.busy(c));
        if busy && !self.io.completion_loss_armed() {
            self.io.lose_next_completion();
            self.note_injection(ChaosKind::LostIoCompletion, 0);
        }
    }

    /// Forces an immediate timer runout (a preemption the scheduler
    /// did not ask for). Skipped when the timer is not armed — a
    /// runout needs a running timer to be architecturally possible.
    fn inject_spurious_timer(&mut self) {
        if self.timer.is_some() {
            self.timer = Some(0);
            self.note_injection(ChaosKind::SpuriousTimer, 0);
            self.chaos.note_detected();
        }
    }
}
