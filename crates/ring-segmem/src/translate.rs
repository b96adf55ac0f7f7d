//! Address translation: two-part addresses to absolute addresses.
//!
//! Translation occurs each time a word in the virtual memory is
//! referenced — instruction, indirect word, or operand. It is an indexed
//! retrieval of the SDW from the descriptor segment (through the
//! associative memory), followed, for paged segments, by a page-table
//! walk. The access-control checks of Figs. 4–9 are *not* performed
//! here — they belong to `ring-core::validate` and are driven by the
//! processor between SDW retrieval and the final word reference, exactly
//! as in the hardware.

use ring_core::access::{AccessMode, Fault, Violation};
use ring_core::addr::{AbsAddr, SegAddr};
use ring_core::registers::Dbr;
use ring_core::ring::Ring;
use ring_core::sdw::Sdw;
use ring_core::word::Word;

use crate::fastpath::{FastHit, RingTlb, TlbStats};
use crate::paging::{split_wordno, Ptw};
use crate::phys::PhysMem;
use crate::sdw_cache::{CacheStats, SdwCache, SdwCacheState};

/// The translation engine: descriptor-segment walker plus SDW
/// associative memory, shadowed by the fast-path lookaside
/// ([`RingTlb`]).
///
/// The lookaside obeys one invariant, maintained entirely here: a TLB
/// entry for segment `s` exists only while `s` is resident in the SDW
/// associative memory with the same contents as at install time. Every
/// residency-ending event — eviction, in-place reinsert, invalidation,
/// flush — drops the matching TLB entries, so a fast probe can trust
/// its cached verdict exactly as far as the slow path would trust the
/// associative memory.
#[derive(Clone, Debug)]
pub struct Translator {
    cache: SdwCache,
    tlb: RingTlb,
    /// Segments whose fast path has been disabled (graceful degradation
    /// after repeated corruption detections). Sorted for binary search
    /// and canonical serialization.
    veto_segs: Vec<u32>,
    /// Fast path disabled machine-wide.
    veto_global: bool,
}

impl Translator {
    /// Creates a translator with an SDW cache of `cache_capacity`
    /// entries (0 disables caching).
    pub fn new(cache_capacity: usize) -> Translator {
        Translator {
            cache: SdwCache::new(cache_capacity),
            tlb: RingTlb::new(),
            veto_segs: Vec::new(),
            veto_global: false,
        }
    }

    /// True when the fast path is vetoed for `segno` (or globally).
    #[inline]
    fn vetoed(&self, segno: ring_core::addr::SegNo) -> bool {
        self.veto_global
            || (!self.veto_segs.is_empty() && self.veto_segs.binary_search(&segno.value()).is_ok())
    }

    /// Retrieves the SDW for `addr.segno`, from the associative memory
    /// if possible, else by reading the two descriptor words from
    /// physical memory (and installing them in the cache).
    ///
    /// A segment number beyond the descriptor-segment bound yields an
    /// access violation naming the attempted `mode`.
    pub fn fetch_sdw(
        &mut self,
        phys: &mut PhysMem,
        dbr: &Dbr,
        addr: SegAddr,
        mode: AccessMode,
    ) -> Result<Sdw, Fault> {
        if let Some(sdw) = self.cache.lookup(addr.segno) {
            return Ok(sdw);
        }
        let sdw_addr = dbr.sdw_addr(addr.segno).ok_or(Fault::AccessViolation {
            mode,
            violation: Violation::NoSuchSegment,
            addr,
            ring: Ring::R0,
        })?;
        let w0 = phys.read(sdw_addr)?;
        let w1 = phys.read(sdw_addr.wrapping_add(1))?;
        let sdw = Sdw::unpack(w0, w1);
        if let Some(displaced) = self.cache.insert(addr.segno, sdw) {
            self.tlb.invalidate_segment(displaced);
        }
        Ok(sdw)
    }

    /// Resolves an in-bounds word number to its absolute address,
    /// walking the page table for paged segments and maintaining the
    /// PTW used/modified bits.
    ///
    /// The caller must already have performed the bound and access
    /// checks against `sdw`; this function only locates the word.
    pub fn resolve(
        &mut self,
        phys: &mut PhysMem,
        sdw: &Sdw,
        addr: SegAddr,
        write_intent: bool,
    ) -> Result<AbsAddr, Fault> {
        if sdw.unpaged {
            return Ok(sdw.addr.wrapping_add(addr.wordno.value()));
        }
        let (page, offset) = split_wordno(addr.wordno);
        let ptw_addr = sdw.addr.wrapping_add(page);
        let ptw_word = phys.read(ptw_addr)?;
        let mut ptw = Ptw::unpack(ptw_word);
        if !ptw.present {
            return Err(Fault::PageFault { addr });
        }
        let dirty = write_intent && !ptw.modified;
        let touch = !ptw.used;
        if dirty || touch {
            ptw.used = true;
            ptw.modified |= write_intent;
            phys.write(ptw_addr, ptw.pack())?;
        }
        Ok(ptw.frame_base().wrapping_add(offset))
    }

    /// Writes `sdw` into the descriptor segment for `addr.segno` and
    /// invalidates the corresponding associative-memory entry so the
    /// change is immediately effective (the paper: "to expect the change
    /// to be immediately effective").
    pub fn store_sdw(
        &mut self,
        phys: &mut PhysMem,
        dbr: &Dbr,
        segno: ring_core::addr::SegNo,
        sdw: &Sdw,
    ) -> Result<(), Fault> {
        let base = dbr.sdw_addr(segno).ok_or(Fault::AccessViolation {
            mode: AccessMode::Write,
            violation: Violation::NoSuchSegment,
            addr: SegAddr::new(segno, ring_core::addr::WordNo::ZERO),
            ring: Ring::R0,
        })?;
        let (w0, w1) = sdw.pack();
        phys.write(base, w0)?;
        phys.write(base.wrapping_add(1), w1)?;
        self.cache.invalidate(segno);
        self.tlb.invalidate_segment(segno);
        Ok(())
    }

    /// Flushes the SDW associative memory and the fast-path lookaside
    /// (performed on DBR load).
    pub fn flush_cache(&mut self) {
        self.cache.flush();
        self.tlb.flush();
    }

    /// Associative-memory statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Clears the associative-memory statistics.
    pub fn reset_cache_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// Captures the associative memory's replacement state for a
    /// record/replay checkpoint (the cache is architecturally visible
    /// through cycle counts).
    pub fn export_cache_state(&self) -> SdwCacheState {
        self.cache.export_state()
    }

    /// Restores a checkpointed associative-memory state and rebuilds
    /// the lookaside cold.
    ///
    /// The TLB is pure acceleration — its contents never change an
    /// architectural outcome — so a restored machine starts with an
    /// empty one. Its statistics counters are deliberately preserved
    /// (not reset, and the clear is not counted as a flush): a replay
    /// restores the image into an identically built world whose
    /// world-building already accumulated the same counter values, so
    /// preserving them keeps the replayed run's exported metrics
    /// bit-identical to the recorded run's.
    pub fn restore_cache_state(&mut self, state: &SdwCacheState) {
        self.cache.restore_state(state);
        self.tlb.clear_preserving_stats();
    }

    /// Fast-path probe: one cached lookup standing in for SDW fetch,
    /// Fig. 4/6 validation, bound check, and page walk. Pure — a `None`
    /// leaves no trace and the caller re-runs the slow path.
    #[inline(always)]
    pub fn fast_probe(
        &self,
        phys: &PhysMem,
        addr: SegAddr,
        ring: Ring,
        mode: AccessMode,
    ) -> Option<FastHit> {
        if self.vetoed(addr.segno) {
            return None;
        }
        self.tlb.probe(phys, addr, ring, mode)
    }

    /// Fast-path probe of a read-modify-write reference. Pure.
    #[inline(always)]
    pub fn fast_probe_rw(&self, phys: &PhysMem, addr: SegAddr, ring: Ring) -> Option<FastHit> {
        if self.vetoed(addr.segno) {
            return None;
        }
        self.tlb.probe_rw(phys, addr, ring)
    }

    /// Fast-path probe of the Fig. 7 transfer verdict. Pure.
    #[inline(always)]
    pub fn fast_probe_transfer(&self, addr: SegAddr, ring: Ring) -> bool {
        if self.vetoed(addr.segno) {
            return false;
        }
        self.tlb.probe_transfer(addr, ring)
    }

    /// Fast-path read of a resident descriptor: the SDW the associative
    /// memory holds for `segno`, counting no lookup. Pure. `None` when
    /// the segment is not resident or its fast path is vetoed, and the
    /// caller bails to the slow path's counted [`Translator::fetch_sdw`].
    #[inline]
    pub fn fast_sdw(&self, segno: ring_core::addr::SegNo) -> Option<Sdw> {
        if self.vetoed(segno) {
            return None;
        }
        self.cache.peek(segno)
    }

    /// Records one committed [`Translator::fast_sdw`] read: the
    /// associative-memory hit the slow path's lookup would have scored.
    /// No lookaside translation stands behind it, so the lookaside's
    /// statistics do not move.
    #[inline]
    pub fn fast_commit_sdw_hit(&mut self) {
        self.cache.count_hits(1);
    }

    /// Installs a fast-path translation after a successful slow-path
    /// reference through `sdw`. Skipped unless `addr.segno` is resident
    /// in the associative memory (the residency invariant above; this
    /// also keeps the lookaside empty when caching is disabled, which
    /// models the cacheless 645).
    pub fn fast_install(
        &mut self,
        phys: &PhysMem,
        addr: SegAddr,
        ring: Ring,
        sdw: &Sdw,
        slow_fetch: bool,
    ) {
        if self.vetoed(addr.segno) || !self.cache.contains(addr.segno) {
            return;
        }
        self.tlb.install(phys, addr, ring, sdw, slow_fetch);
    }

    /// Records `n` committed fast-path translations, crediting the SDW
    /// associative memory with the hits the slow path would have scored
    /// (the residency invariant guarantees they would all have hit).
    #[inline]
    pub fn fast_commit_hits(&mut self, n: u64) {
        self.cache.count_hits(n);
        self.tlb.note_hits(n);
    }

    /// Records one abandoned fast-path attempt.
    #[inline]
    pub fn fast_note_miss(&mut self) {
        self.tlb.note_miss();
    }

    /// Drops fast-path entries for one segment without touching the
    /// associative memory (used when a native handler is registered:
    /// fetches from that segment must reach the slow path's intercept).
    pub fn invalidate_tlb_segment(&mut self, segno: ring_core::addr::SegNo) {
        self.tlb.invalidate_segment(segno);
    }

    /// Fast-path lookaside statistics.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Disables the fast path for one segment (graceful degradation
    /// after repeated corruption). Existing lookaside entries for the
    /// segment are dropped.
    pub fn set_fast_veto(&mut self, segno: u32) {
        if let Err(i) = self.veto_segs.binary_search(&segno) {
            self.veto_segs.insert(i, segno);
        }
        if let Some(sn) = ring_core::addr::SegNo::new(segno) {
            self.tlb.invalidate_segment(sn);
        }
    }

    /// Disables the fast path machine-wide.
    pub fn set_global_fast_veto(&mut self) {
        self.veto_global = true;
        self.tlb.flush();
    }

    /// The degradation state, for machine-image capture.
    pub fn fast_veto_export(&self) -> (Vec<u32>, bool) {
        (self.veto_segs.clone(), self.veto_global)
    }

    /// Restores a captured degradation state.
    pub fn fast_veto_restore(&mut self, segs: &[u32], global: bool) {
        self.veto_segs = segs.to_vec();
        self.veto_segs.sort_unstable();
        self.veto_global = global;
    }

    /// Chaos hook: invalidates every cached translation for `segno`
    /// (associative memory and lookaside) after its in-memory
    /// descriptor or page table was damaged, so the next reference
    /// re-walks memory and meets the parity error there — a corrupted
    /// word must not be outlived by a clean cached copy of it.
    pub fn chaos_invalidate(&mut self, segno: ring_core::addr::SegNo) {
        self.cache.invalidate(segno);
        self.tlb.invalidate_segment(segno);
    }

    /// Chaos hook: damages one live SDW associative-memory entry, chosen
    /// deterministically among the occupied slots by `pick`. Cache
    /// parity detects the damage on the spot, so the entry is simply
    /// discarded — the recovery is a re-walk — and the segment's
    /// lookaside entries go with it. The lookaside is never a victim in
    /// its own right: it is host acceleration, so an injection must
    /// land identically whether the fast path is on or off. Returns the
    /// segment affected, or `None` when the associative memory is
    /// empty.
    pub fn chaos_corrupt_cache(&mut self, pick: u64) -> Option<u32> {
        let occupied: Vec<ring_core::addr::SegNo> = self
            .cache
            .export_state()
            .entries
            .into_iter()
            .flatten()
            .map(|(segno, _)| segno)
            .collect();
        if occupied.is_empty() {
            return None;
        }
        let segno = occupied[(pick % occupied.len() as u64) as usize];
        self.cache.invalidate(segno);
        self.tlb.invalidate_segment(segno);
        Some(segno.value())
    }
}

/// Convenience: reads the word at two-part address `addr` given an
/// already-validated SDW (resolve + physical read).
pub fn read_word(
    tr: &mut Translator,
    phys: &mut PhysMem,
    sdw: &Sdw,
    addr: SegAddr,
) -> Result<Word, Fault> {
    let abs = tr.resolve(phys, sdw, addr, false)?;
    phys.read(abs)
}

/// Convenience: writes the word at two-part address `addr` given an
/// already-validated SDW (resolve + physical write).
pub fn write_word(
    tr: &mut Translator,
    phys: &mut PhysMem,
    sdw: &Sdw,
    addr: SegAddr,
    value: Word,
) -> Result<(), Fault> {
    let abs = tr.resolve(phys, sdw, addr, true)?;
    phys.write(abs, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_core::addr::SegNo;
    use ring_core::sdw::SdwBuilder;

    fn world() -> (PhysMem, Dbr, Translator) {
        let phys = PhysMem::new(64 * 1024);
        // Descriptor segment at 0o100 with room for 8 SDWs.
        let dbr = Dbr::new(AbsAddr::new(0o100).unwrap(), 8, SegNo::new(0o200).unwrap());
        (phys, dbr, Translator::new(4))
    }

    fn install(phys: &mut PhysMem, dbr: &Dbr, segno: u32, sdw: &Sdw) {
        let base = dbr.sdw_addr(SegNo::new(segno).unwrap()).unwrap();
        let (w0, w1) = sdw.pack();
        phys.poke(base, w0).unwrap();
        phys.poke(base.wrapping_add(1), w1).unwrap();
    }

    fn addr(s: u32, w: u32) -> SegAddr {
        SegAddr::from_parts(s, w).unwrap()
    }

    #[test]
    fn fetch_sdw_walks_descriptor_segment() {
        let (mut phys, dbr, mut tr) = world();
        let sdw = SdwBuilder::data(Ring::R4, Ring::R4)
            .addr(AbsAddr::new(0o2000).unwrap())
            .bound_words(32)
            .build();
        install(&mut phys, &dbr, 3, &sdw);
        let got = tr
            .fetch_sdw(&mut phys, &dbr, addr(3, 0), AccessMode::Read)
            .unwrap();
        assert_eq!(got, sdw);
        // Second fetch hits the cache: no extra physical reads.
        let before = phys.read_count();
        tr.fetch_sdw(&mut phys, &dbr, addr(3, 0), AccessMode::Read)
            .unwrap();
        assert_eq!(phys.read_count(), before);
        assert_eq!(tr.cache_stats().hits, 1);
    }

    #[test]
    fn nonexistent_segment_violates() {
        let (mut phys, dbr, mut tr) = world();
        match tr.fetch_sdw(&mut phys, &dbr, addr(8, 0), AccessMode::Write) {
            Err(Fault::AccessViolation {
                violation: Violation::NoSuchSegment,
                mode: AccessMode::Write,
                ..
            }) => {}
            other => panic!("expected NoSuchSegment, got {other:?}"),
        }
    }

    #[test]
    fn unpaged_resolution_is_base_plus_offset() {
        let (mut phys, _dbr, mut tr) = world();
        let sdw = SdwBuilder::data(Ring::R4, Ring::R4)
            .addr(AbsAddr::new(0o2000).unwrap())
            .bound_words(64)
            .build();
        let abs = tr.resolve(&mut phys, &sdw, addr(3, 5), false).unwrap();
        assert_eq!(abs.value(), 0o2005);
    }

    #[test]
    fn paged_resolution_walks_page_table() {
        let (mut phys, _dbr, mut tr) = world();
        // Page table at 0o300: page 0 -> frame 5, page 1 -> missing.
        let pt = AbsAddr::new(0o300).unwrap();
        phys.poke(pt, Ptw::present(5).unwrap().pack()).unwrap();
        phys.poke(pt.wrapping_add(1), Ptw::MISSING.pack()).unwrap();
        let sdw = SdwBuilder::data(Ring::R4, Ring::R4)
            .addr(pt)
            .unpaged(false)
            .bound_words(2048)
            .build();
        let abs = tr.resolve(&mut phys, &sdw, addr(3, 17), false).unwrap();
        assert_eq!(abs.value(), 5 * 1024 + 17);
        assert!(matches!(
            tr.resolve(&mut phys, &sdw, addr(3, 1024), false),
            Err(Fault::PageFault { .. })
        ));
    }

    #[test]
    fn ptw_usage_bits_maintained() {
        let (mut phys, _dbr, mut tr) = world();
        let pt = AbsAddr::new(0o300).unwrap();
        phys.poke(pt, Ptw::present(5).unwrap().pack()).unwrap();
        let sdw = SdwBuilder::data(Ring::R4, Ring::R4)
            .addr(pt)
            .unpaged(false)
            .bound_words(1024)
            .build();
        tr.resolve(&mut phys, &sdw, addr(3, 0), false).unwrap();
        let ptw = Ptw::unpack(phys.peek(pt).unwrap());
        assert!(ptw.used && !ptw.modified);
        tr.resolve(&mut phys, &sdw, addr(3, 0), true).unwrap();
        let ptw = Ptw::unpack(phys.peek(pt).unwrap());
        assert!(ptw.used && ptw.modified);
    }

    #[test]
    fn store_sdw_is_immediately_effective() {
        let (mut phys, dbr, mut tr) = world();
        let sdw_a = SdwBuilder::data(Ring::R4, Ring::R4).bound(1).build();
        install(&mut phys, &dbr, 2, &sdw_a);
        let got = tr
            .fetch_sdw(&mut phys, &dbr, addr(2, 0), AccessMode::Read)
            .unwrap();
        assert_eq!(got.bound, 1);
        // Supervisor narrows the segment: the cached copy must not be
        // served afterwards.
        let sdw_b = SdwBuilder::data(Ring::R4, Ring::R4).bound(0).build();
        tr.store_sdw(&mut phys, &dbr, SegNo::new(2).unwrap(), &sdw_b)
            .unwrap();
        let got = tr
            .fetch_sdw(&mut phys, &dbr, addr(2, 0), AccessMode::Read)
            .unwrap();
        assert_eq!(got.bound, 0);
    }

    #[test]
    fn read_write_word_round_trip() {
        let (mut phys, _dbr, mut tr) = world();
        let sdw = SdwBuilder::data(Ring::R4, Ring::R4)
            .addr(AbsAddr::new(0o4000).unwrap())
            .bound_words(16)
            .build();
        write_word(&mut tr, &mut phys, &sdw, addr(1, 3), Word::new(42)).unwrap();
        assert_eq!(
            read_word(&mut tr, &mut phys, &sdw, addr(1, 3)).unwrap(),
            Word::new(42)
        );
    }

    #[test]
    fn flush_cache_forces_rewalk() {
        let (mut phys, dbr, mut tr) = world();
        let sdw = SdwBuilder::data(Ring::R4, Ring::R4).build();
        install(&mut phys, &dbr, 1, &sdw);
        tr.fetch_sdw(&mut phys, &dbr, addr(1, 0), AccessMode::Read)
            .unwrap();
        tr.flush_cache();
        let before = phys.read_count();
        tr.fetch_sdw(&mut phys, &dbr, addr(1, 0), AccessMode::Read)
            .unwrap();
        assert_eq!(phys.read_count(), before + 2, "miss re-walks descriptor");
    }

    #[test]
    fn fast_sdw_reads_residents_and_honours_vetoes() {
        let (mut phys, dbr, mut tr) = world();
        let sdw = SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R4)
            .gates(1)
            .build();
        install(&mut phys, &dbr, 1, &sdw);
        install(&mut phys, &dbr, 2, &sdw);
        assert_eq!(tr.fast_sdw(SegNo::new(1).unwrap()), None, "not resident");
        for s in [1, 2] {
            tr.fetch_sdw(&mut phys, &dbr, addr(s, 0), AccessMode::Execute)
                .unwrap();
        }
        let (stats, reads) = (tr.cache_stats(), phys.read_count());
        assert_eq!(tr.fast_sdw(SegNo::new(1).unwrap()), Some(sdw));
        assert_eq!(tr.cache_stats(), stats, "a peek counts nothing");
        assert_eq!(phys.read_count(), reads);

        tr.set_fast_veto(1);
        assert_eq!(tr.fast_sdw(SegNo::new(1).unwrap()), None, "vetoed");
        assert_eq!(tr.fast_sdw(SegNo::new(2).unwrap()), Some(sdw));
        tr.set_global_fast_veto();
        assert_eq!(tr.fast_sdw(SegNo::new(2).unwrap()), None, "vetoed");

        let tlb = tr.tlb_stats();
        tr.fast_commit_sdw_hit();
        assert_eq!(tr.cache_stats().hits, stats.hits + 1);
        assert_eq!(tr.tlb_stats(), tlb, "no lookaside translation");
    }
}
