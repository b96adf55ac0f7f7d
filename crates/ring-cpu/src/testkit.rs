//! A tiny world-builder for tests, benches and examples.
//!
//! `ring-os` builds complete systems (ACLs, processes, supervisor);
//! this module builds *bare* machines — a descriptor segment, a few
//! hand-placed segments, and a started processor — which is what unit
//! tests of the hardware want.

use ring_core::addr::{AbsAddr, SegAddr, SegNo, WordNo};
use ring_core::registers::{Dbr, IndWord, Ipr};
use ring_core::ring::Ring;
use ring_core::sdw::{Sdw, SdwBuilder};
use ring_core::word::Word;
use ring_segmem::layout::PhysAllocator;

use crate::isa::Instr;
use crate::machine::{Machine, MachineConfig};

/// Convenience two-part address constructor.
///
/// # Panics
///
/// Panics if either part is out of range.
pub fn addr(segno: u32, wordno: u32) -> SegAddr {
    SegAddr::from_parts(segno, wordno).expect("address in range")
}

/// A bare machine plus the bookkeeping to lay segments into it.
pub struct World {
    /// The machine under test.
    pub machine: Machine,
    alloc: PhysAllocator,
    dbr: Dbr,
}

/// Number of SDW slots in the test descriptor segment.
pub const TEST_SEGMENTS: u32 = 64;

/// Words of physical memory in a world.
pub const WORLD_WORDS: u32 = 256 * 1024;

impl World {
    /// A world with the default machine configuration.
    pub fn new() -> World {
        World::with_config(MachineConfig::default())
    }

    /// A world with a custom machine configuration.
    ///
    /// [`WORLD_WORDS`] of physical memory; the descriptor segment (for
    /// [`TEST_SEGMENTS`] segments) is placed at the bottom and the DBR
    /// loaded. The DBR stack base is segment 48, so per-ring stacks are
    /// segments 48–55 under the footnote rule.
    pub fn with_config(config: MachineConfig) -> World {
        let mut machine = Machine::new(WORLD_WORDS as usize, config);
        let mut alloc = PhysAllocator::new(0o100, WORLD_WORDS);
        let desc = alloc
            .alloc(2 * TEST_SEGMENTS)
            .expect("room for descriptor segment");
        let dbr = Dbr::new(
            desc,
            TEST_SEGMENTS,
            SegNo::new(48).expect("48 is a valid segno"),
        );
        machine.load_dbr(dbr);
        World {
            machine,
            alloc,
            dbr,
        }
    }

    /// Allocates physical storage for a segment described by `builder`,
    /// installs its SDW at `segno`, and returns the segment number.
    ///
    /// # Panics
    ///
    /// Panics on allocation failure or a bad segment number.
    pub fn add_segment(&mut self, segno: u32, builder: SdwBuilder) -> SegNo {
        self.try_add_segment(segno, builder)
            .expect("segment storage")
    }

    /// [`World::add_segment`], or `None` when the segment does not fit
    /// the physical memory left.
    ///
    /// # Panics
    ///
    /// Panics on a bad segment number.
    pub fn try_add_segment(&mut self, segno: u32, builder: SdwBuilder) -> Option<SegNo> {
        let probe = builder.build();
        let base = self.alloc.alloc(probe.length_words()).ok()?;
        let sdw = builder.addr(base).build();
        self.install_sdw(segno, &sdw);
        Some(SegNo::new(segno).expect("segment number"))
    }

    /// Installs an SDW verbatim (for segments whose storage the caller
    /// manages, e.g. paged segments).
    ///
    /// # Panics
    ///
    /// Panics on a bad segment number or physical fault.
    pub fn install_sdw(&mut self, segno: u32, sdw: &Sdw) {
        let sn = SegNo::new(segno).expect("segment number");
        let base = self.dbr.sdw_addr(sn).expect("segno within descriptor");
        let (w0, w1) = sdw.pack();
        self.machine.phys_mut().poke(base, w0).expect("poke sdw");
        self.machine
            .phys_mut()
            .poke(base.wrapping_add(1), w1)
            .expect("poke sdw");
        self.machine.translator_mut().flush_cache();
    }

    /// Reads back the SDW currently installed for `segno`.
    ///
    /// # Panics
    ///
    /// Panics on a bad segment number.
    pub fn read_sdw(&self, segno: u32) -> Sdw {
        let sn = SegNo::new(segno).expect("segment number");
        let base = self.dbr.sdw_addr(sn).expect("segno within descriptor");
        let w0 = self.machine.phys().peek(base).expect("peek sdw");
        let w1 = self
            .machine
            .phys()
            .peek(base.wrapping_add(1))
            .expect("peek sdw");
        Sdw::unpack(w0, w1)
    }

    /// Allocates a fresh physical region of `words` words (for page
    /// tables and manual layouts).
    ///
    /// # Panics
    ///
    /// Panics when physical memory is exhausted.
    pub fn alloc_raw(&mut self, words: u32) -> AbsAddr {
        self.alloc.alloc(words).expect("raw storage")
    }

    /// Writes `value` at `(segno, wordno)` through the installed SDW,
    /// bypassing protection (front-panel poke).
    ///
    /// # Panics
    ///
    /// Panics if the segment is paged/missing or the address is out of
    /// bounds — test worlds are expected to be well formed.
    pub fn poke(&mut self, segno: SegNo, wordno: u32, value: Word) {
        let sdw = self.read_sdw(segno.value());
        assert!(sdw.unpaged, "poke only supports unpaged segments");
        let abs = sdw.addr.wrapping_add(wordno);
        self.machine.phys_mut().poke(abs, value).expect("poke");
    }

    /// Reads the word at `(segno, wordno)` without counting traffic.
    ///
    /// # Panics
    ///
    /// Panics if the segment is paged or the physical address invalid.
    pub fn peek(&self, segno: SegNo, wordno: u32) -> Word {
        let sdw = self.read_sdw(segno.value());
        assert!(sdw.unpaged, "peek only supports unpaged segments");
        let abs = sdw.addr.wrapping_add(wordno);
        self.machine.phys().peek(abs).expect("peek")
    }

    /// Reads the word at `(segno, wordno)` like [`World::peek`], or
    /// `None` when there is no such word: the segment number is outside
    /// the descriptor segment, the segment is missing or paged, the
    /// word is at or past its bound, or the address is past memory.
    pub fn try_peek(&self, segno: SegNo, wordno: u32) -> Option<Word> {
        self.dbr.sdw_addr(segno)?;
        let sdw = self.read_sdw(segno.value());
        if !sdw.present || !sdw.unpaged || wordno >= sdw.length_words() {
            return None;
        }
        let abs = AbsAddr::new(sdw.addr.value().checked_add(wordno)?)?;
        self.machine.phys().peek(abs).ok()
    }

    /// Assembles `instr` into `(segno, wordno)`.
    pub fn poke_instr(&mut self, segno: SegNo, wordno: u32, instr: Instr) {
        self.poke(segno, wordno, instr.encode());
    }

    /// Writes an indirect-word pair at `(segno, wordno)`.
    pub fn write_ind_word(&mut self, segno: SegNo, wordno: u32, iw: IndWord) {
        let (w0, w1) = iw.pack();
        self.poke(segno, wordno, w0);
        self.poke(segno, wordno + 1, w1);
    }

    /// Points the processor at `(segno, wordno)` in ring `ring`.
    ///
    /// # Panics
    ///
    /// Panics if `wordno` is out of range.
    pub fn start(&mut self, ring: Ring, segno: SegNo, wordno: u32) {
        self.machine.set_ipr(Ipr::new(
            ring,
            SegAddr::new(segno, WordNo::new(wordno).expect("wordno")),
        ));
    }

    /// The DBR this world loaded.
    pub fn dbr(&self) -> Dbr {
        self.dbr
    }

    /// Installs the trap segment the machine configuration names: a
    /// present, unpaged ring-0 procedure segment big enough for the
    /// vector table and the processor-state save area. Returns its
    /// segment number; tests typically register a native handler on it.
    ///
    /// # Panics
    ///
    /// Panics when physical memory is exhausted.
    pub fn add_trap_segment(&mut self) -> SegNo {
        self.try_add_trap_segment().expect("trap segment storage")
    }

    /// [`World::add_trap_segment`], or `None` when the segment does not
    /// fit the physical memory left.
    pub fn try_add_trap_segment(&mut self) -> Option<SegNo> {
        self.try_add_segment(
            crate::trap::TRAP_SEGNO.value(),
            SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0)
                .write(true)
                .bound_words(256),
        )
    }

    /// Adds the eight standard per-ring stack segments (segments
    /// `stack_base + r`), each writable-through ring `r` exactly as the
    /// paper prescribes ("the stack segment for procedures executing in
    /// ring n has read and write brackets that end at ring n"), with the
    /// next-free-frame word initialised to `first_frame`.
    ///
    /// # Panics
    ///
    /// Panics when physical memory is exhausted.
    pub fn add_standard_stacks(&mut self, first_frame: u32) {
        self.try_add_standard_stacks(first_frame)
            .expect("stack storage");
    }

    /// [`World::add_standard_stacks`], or `None` when a stack does not
    /// fit the physical memory left.
    pub fn try_add_standard_stacks(&mut self, first_frame: u32) -> Option<()> {
        let base = self.dbr.stack_base.value();
        for r in Ring::all() {
            let segno = base + u32::from(r.number());
            let sn = self.try_add_segment(segno, SdwBuilder::data(r, r).bound_words(1024))?;
            self.poke(sn, 0, Word::new(u64::from(first_frame)));
        }
        Some(())
    }
}

impl Default for World {
    fn default() -> Self {
        World::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_laid_out_disjoint() {
        let mut w = World::new();
        let a = w.add_segment(2, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(32));
        let b = w.add_segment(3, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(32));
        let sa = w.read_sdw(a.value());
        let sb = w.read_sdw(b.value());
        assert!(sa.addr.value() + 32 <= sb.addr.value());
    }

    #[test]
    fn poke_peek_round_trip() {
        let mut w = World::new();
        let s = w.add_segment(2, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(32));
        w.poke(s, 5, Word::new(99));
        assert_eq!(w.peek(s, 5), Word::new(99));
    }

    #[test]
    fn try_peek_refuses_every_missing_word() {
        let mut w = World::new();
        let s = w.add_segment(2, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(32));
        w.poke(s, 31, Word::new(7));
        assert_eq!(w.try_peek(s, 31), Some(Word::new(7)));
        assert_eq!(w.try_peek(s, 32), None, "at the bound");
        assert_eq!(w.try_peek(s, u32::MAX), None, "far past the bound");
        let missing = SegNo::new(3).unwrap();
        assert_eq!(w.try_peek(missing, 0), None, "no SDW");
        let outside = SegNo::new(TEST_SEGMENTS).unwrap();
        assert_eq!(w.try_peek(outside, 0), None, "beyond the descriptor");
        let paged = SdwBuilder::data(Ring::R4, Ring::R4)
            .unpaged(false)
            .bound_words(32)
            .build();
        w.install_sdw(4, &paged);
        assert_eq!(w.try_peek(SegNo::new(4).unwrap(), 0), None, "paged");
        let past_memory = SdwBuilder::data(Ring::R4, Ring::R4)
            .addr(AbsAddr::new(256 * 1024 - 8).unwrap())
            .bound_words(32)
            .build();
        w.install_sdw(5, &past_memory);
        let s5 = SegNo::new(5).unwrap();
        assert!(w.try_peek(s5, 7).is_some());
        assert_eq!(w.try_peek(s5, 8), None, "past physical memory");
    }

    #[test]
    fn standard_stacks_have_per_ring_brackets() {
        let mut w = World::new();
        w.add_standard_stacks(16);
        for r in Ring::all() {
            let segno = w.dbr().stack_base.value() + u32::from(r.number());
            let sdw = w.read_sdw(segno);
            assert_eq!(sdw.r1, r, "write bracket ends at ring {r}");
            assert_eq!(sdw.r2, r, "read bracket ends at ring {r}");
        }
    }
}
