//! The trap mechanism and processor-state save/restore.
//!
//! "When the processor detects such a condition, it changes the ring of
//! execution to zero and transfers control to a fixed location in the
//! supervisor. A special instruction allows the state of the processor
//! at the time of the trap to be restored later if appropriate, resuming
//! the disrupted instruction."
//!
//! The state saved is the state at the *start* of the disrupted
//! instruction, so an instruction interrupted by (say) a page fault is
//! re-executed from scratch after RETT — the simulator's analogue of
//! the hardware's instruction-retry support.
//!
//! The fixed location is the trap segment, [`TRAP_SEGNO`]: a fault with
//! vector `v` transfers to its word [`TRAP_VECTOR_BASE`] plus `v`.
//!
//! # Save-area layout (within the trap segment, at `trap_save_offset`)
//!
//! ```text
//! +0       IPR (packed pointer)
//! +1..+9   PR0..PR7 (packed pointers)
//! +9       A
//! +10      Q
//! +11..+15 X0..X7 (two 18-bit values per word)
//! +15      indicators (bit 0 zero, bit 1 negative)
//! +16      fault vector number
//! +17      fault address (packed pointer: validation ring + address)
//! +18      fault detail (class / code / channel, fault-specific)
//! ```

use ring_core::access::{AccessMode, Fault};
use ring_core::addr::{pack_pointer, unpack_pointer, SegAddr, SegNo, WordNo, MAX_WORDNO};
use ring_core::registers::{Ipr, PtrReg, NUM_PR};
use ring_core::ring::Ring;
use ring_core::sdw::Sdw;
use ring_core::word::Word;
use ring_segmem::paging::{split_wordno, PAGE_WORDS};
use ring_segmem::phys::PhysMem;

use crate::machine::{Machine, StepOutcome};

/// Number of words in the processor-state save area.
pub const SAVE_WORDS: u32 = 19;

/// The segment holding the trap vectors and the save area: a present,
/// unpaged ring-0 segment in every address space.
pub const TRAP_SEGNO: SegNo = SegNo::from_bits(1);

/// Word number of trap vector 0 within [`TRAP_SEGNO`].
pub const TRAP_VECTOR_BASE: u32 = 0;

/// Cycles a trap takes to force ring 0 and sequence the state save, on
/// top of the save area's counted stores.
pub(crate) const TRAP_OVERHEAD_CYCLES: u64 = 12;

/// Cycles RETT takes to restore the processor state, on top of the save
/// area's counted reads.
pub(crate) const RETT_OVERHEAD_CYCLES: u64 = 6;

/// A complete snapshot of the program-visible processor state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SavedState {
    /// Instruction pointer (ring + address of the disrupted instruction).
    pub ipr: Ipr,
    /// Pointer registers.
    pub prs: [PtrReg; NUM_PR],
    /// Accumulator.
    pub a: Word,
    /// Q register.
    pub q: Word,
    /// Index registers.
    pub x: [u32; 8],
    /// Zero indicator.
    pub ind_zero: bool,
    /// Negative indicator.
    pub ind_neg: bool,
}

impl SavedState {
    /// Serialises the snapshot (without fault information) into the
    /// first 16 words of the save-area layout.
    pub fn pack(&self) -> [Word; 16] {
        let mut out = [Word::ZERO; 16];
        out[0] = self.ipr.pack();
        for (i, pr) in self.prs.iter().enumerate() {
            out[1 + i] = pr.pack();
        }
        out[9] = self.a;
        out[10] = self.q;
        for i in 0..4 {
            out[11 + i] = Word::ZERO
                .with_field(0, 18, u64::from(self.x[2 * i]))
                .with_field(18, 18, u64::from(self.x[2 * i + 1]));
        }
        out[15] = Word::ZERO
            .with_bit(0, self.ind_zero)
            .with_bit(1, self.ind_neg);
        out
    }

    /// Deserialises a snapshot from the first 16 save-area words.
    pub fn unpack(words: &[Word; 16]) -> SavedState {
        let mut prs = [PtrReg::NULL; NUM_PR];
        for (i, pr) in prs.iter_mut().enumerate() {
            *pr = PtrReg::unpack(words[1 + i]);
        }
        let mut x = [0u32; 8];
        for i in 0..4 {
            x[2 * i] = words[11 + i].field(0, 18) as u32;
            x[2 * i + 1] = words[11 + i].field(18, 18) as u32;
        }
        SavedState {
            ipr: Ipr::unpack(words[0]),
            prs,
            a: words[9],
            q: words[10],
            x,
            ind_zero: words[15].bit(0),
            ind_neg: words[15].bit(1),
        }
    }
}

/// Fault-specific detail word written at save-area offset +18.
fn fault_detail(fault: &Fault) -> (Word, Word) {
    // (fault address pointer, detail word)
    match fault {
        Fault::AccessViolation { addr, ring, .. } => (pack_pointer(*ring, *addr), Word::new(0)),
        Fault::UpwardCall { target, ring } => (pack_pointer(*ring, *target), Word::new(0)),
        Fault::DownwardReturn { target, ring } => (pack_pointer(*ring, *target), Word::new(0)),
        Fault::SegmentFault { addr, class } => {
            (pack_pointer(Ring::R0, *addr), Word::new(u64::from(*class)))
        }
        Fault::PageFault { addr } => (pack_pointer(Ring::R0, *addr), Word::new(0)),
        Fault::Derail { code } => (Word::ZERO, Word::new(u64::from(*code))),
        Fault::IoCompletion { channel } => (Word::ZERO, Word::new(u64::from(*channel))),
        Fault::IllegalOpcode { opcode } => (Word::ZERO, Word::new(u64::from(*opcode))),
        Fault::PrivilegedViolation { ring } => (Word::ZERO, Word::new(u64::from(ring.number()))),
        Fault::PhysicalBounds { abs } => (Word::ZERO, Word::new(u64::from(*abs))),
        Fault::ParityError { abs } => (Word::ZERO, Word::new(u64::from(*abs))),
        Fault::IoError { channel, code } => (
            Word::ZERO,
            Word::new((u64::from(*channel) << 18) | u64::from(*code)),
        ),
        _ => (Word::ZERO, Word::ZERO),
    }
}

impl Machine {
    /// Enters a trap: saves `snapshot` and the fault description into
    /// the save area, forces ring 0, and transfers to the fault's
    /// vector. A fault during trap entry is a double fault and halts the
    /// machine.
    pub(crate) fn take_trap(&mut self, snapshot: SavedState, fault: Fault) -> StepOutcome {
        self.stats.traps += 1;
        match fault {
            Fault::UpwardCall { .. } => self.stats.upward_call_traps += 1,
            Fault::DownwardReturn { .. } => self.stats.downward_return_traps += 1,
            _ => {}
        }
        // A parity or I/O-error trap is the *detection* of an injected
        // hardware fault reaching the supervisor.
        if matches!(fault, Fault::ParityError { .. } | Fault::IoError { .. }) {
            self.chaos.note_detected();
        }
        self.obs.trap(fault, self.ipr.ring, self.cycles);
        self.cycles += TRAP_OVERHEAD_CYCLES;
        self.last_fault = Some(fault);

        if let Err(df) = self.write_save_area(&snapshot, &fault) {
            self.double_fault = Some(df);
            self.halted = true;
            return StepOutcome::Halted;
        }

        self.in_trap = true;
        self.ipr = Ipr::new(
            Ring::R0,
            SegAddr::new(
                TRAP_SEGNO,
                WordNo::from_bits(u64::from((TRAP_VECTOR_BASE + fault.vector()) & MAX_WORDNO)),
            ),
        );
        StepOutcome::Trapped(fault)
    }

    fn write_save_area(&mut self, snapshot: &SavedState, fault: &Fault) -> Result<(), Fault> {
        let sdw = self.save_area_sdw(AccessMode::Write)?;
        // Hardware state saving bypasses the access brackets (it is the
        // processor, not a program, storing) but not presence or bounds.
        let last = SegAddr::new(
            TRAP_SEGNO,
            WordNo::from_bits(u64::from(self.config.trap_save_offset + SAVE_WORDS - 1)),
        );
        sdw.check_present_and_bounds(AccessMode::Write, last)?;
        let (fap, detail) = fault_detail(fault);
        let mut words = [Word::ZERO; SAVE_WORDS as usize];
        words[..16].copy_from_slice(&snapshot.pack());
        words[16..].copy_from_slice(&[Word::new(u64::from(fault.vector())), fap, detail]);
        self.move_save_words(&sdw, 0, SaveWords::Store(&words))
    }

    /// Reads the save area back into a snapshot plus fault vector.
    pub(crate) fn read_save_area(&mut self) -> Result<(SavedState, u32), Fault> {
        let sdw = self.save_area_sdw(AccessMode::Read)?;
        let mut words = [Word::ZERO; 17];
        self.move_save_words(&sdw, 0, SaveWords::Load(&mut words))?;
        let mut state = [Word::ZERO; 16];
        state.copy_from_slice(&words[..16]);
        Ok((SavedState::unpack(&state), words[16].raw() as u32))
    }

    /// The trap segment's SDW, fetched as a `mode` reference to the
    /// first save-area word.
    fn save_area_sdw(&mut self, mode: AccessMode) -> Result<Sdw, Fault> {
        let first = WordNo::from_bits(u64::from(self.config.trap_save_offset));
        self.sdw_for(SegAddr::new(TRAP_SEGNO, first), mode)
    }

    /// Moves save-area words from word `first` of the save area on,
    /// with exactly the counted references, errors and PTW updates of
    /// translating and accessing them one word at a time.
    ///
    /// The words go in runs, one translation and one bulk transfer per
    /// run. A run is what the word loop would reach through one
    /// translation: consecutive word numbers of one page (of the whole
    /// segment when unpaged) at consecutive absolute addresses. In a
    /// paged segment every word after a run's first still charges the
    /// counted PTW read its own walk would make, up to the failing word
    /// on an error, and a store onto the PTW itself ends the run so
    /// the next walk reads the new value.
    fn move_save_words(
        &mut self,
        sdw: &Sdw,
        first: u32,
        mut words: SaveWords<'_>,
    ) -> Result<(), Fault> {
        let write = matches!(words, SaveWords::Store(_));
        let n = words.len();
        let mut i = 0;
        while i < n {
            let wordno =
                WordNo::from_bits(u64::from(self.config.trap_save_offset + first + i as u32));
            let addr = SegAddr::new(TRAP_SEGNO, wordno);
            let abs = self.tr.resolve(&mut self.phys, sdw, addr, write)?;
            // Neither the word number nor the absolute address may wrap
            // inside a run.
            let mut run = (n - i)
                .min((MAX_WORDNO - wordno.value()) as usize + 1)
                .min(PhysMem::MAX_WORDS - abs.value() as usize);
            if !sdw.unpaged {
                let (page, offset) = split_wordno(wordno);
                run = run.min((PAGE_WORDS - offset) as usize);
                let ptw = sdw.addr.wrapping_add(page).value();
                if write && ptw >= abs.value() && ((ptw - abs.value()) as usize) < run {
                    run = (ptw - abs.value()) as usize + 1;
                }
            }
            let moved = match &mut words {
                SaveWords::Load(buf) => self.phys.read_slice(abs, &mut buf[i..i + run]),
                SaveWords::Store(buf) => self.phys.write_slice(abs, &buf[i..i + run]),
            };
            if !sdw.unpaged {
                let walked = match moved {
                    Err(Fault::ParityError { abs: bad } | Fault::PhysicalBounds { abs: bad }) => {
                        (bad - abs.value()) as usize + 1
                    }
                    _ => run,
                };
                self.phys.charge_reads(walked as u64 - 1);
            }
            moved?;
            i += run;
        }
        Ok(())
    }

    /// The RETT instruction: restores the saved processor state and
    /// resumes the disrupted instruction. Privileged (checked by the
    /// dispatcher); also ends the trap-servicing window, re-enabling
    /// asynchronous trap recognition.
    pub(crate) fn exec_rett(&mut self) -> Result<(), Fault> {
        let (state, _) = self.read_save_area()?;
        self.restore(&state);
        self.in_trap = false;
        self.last_fault = None;
        self.obs.rett(self.ipr.ring, self.cycles);
        self.charge(RETT_OVERHEAD_CYCLES);
        Ok(())
    }

    /// Fault information saved with the last trap: `(vector, validation
    /// ring, faulting address, detail)` — the supervisor-visible fault
    /// registers. Native trap handlers read this instead of re-parsing
    /// memory.
    pub fn fault_info(&mut self) -> Result<(u32, Ring, SegAddr, Word), Fault> {
        let sdw = self.save_area_sdw(AccessMode::Read)?;
        let mut out = [Word::ZERO; 3];
        self.move_save_words(&sdw, 16, SaveWords::Load(&mut out))?;
        let (ring, addr) = unpack_pointer(out[1]);
        Ok((out[0].raw() as u32, ring, addr, out[2]))
    }

    /// The saved state currently in the save area (for supervisor
    /// handlers that need to inspect or modify the interrupted
    /// computation, e.g. the upward-call mediator).
    pub fn saved_state(&mut self) -> Result<SavedState, Fault> {
        self.read_save_area().map(|(s, _)| s)
    }

    /// Overwrites the saved state (supervisor handlers adjusting the
    /// resume point, e.g. completing a software ring crossing).
    pub fn set_saved_state(&mut self, state: &SavedState) -> Result<(), Fault> {
        let sdw = self.save_area_sdw(AccessMode::Write)?;
        self.move_save_words(&sdw, 0, SaveWords::Store(&state.pack()))
    }
}

/// The two directions of a save-area transfer.
enum SaveWords<'a> {
    /// Read memory into the buffer.
    Load(&'a mut [Word]),
    /// Write the buffer to memory.
    Store(&'a [Word]),
}

impl SaveWords<'_> {
    fn len(&self) -> usize {
        match self {
            SaveWords::Load(buf) => buf.len(),
            SaveWords::Store(buf) => buf.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::testkit::World;
    use ring_core::addr::{AbsAddr, SegNo};
    use ring_core::sdw::SdwBuilder;
    use ring_segmem::paging::Ptw;

    fn sample_state() -> SavedState {
        let mut prs = [PtrReg::NULL; NUM_PR];
        for (i, pr) in prs.iter_mut().enumerate() {
            *pr = PtrReg::new(
                Ring::new(i as u8).unwrap(),
                SegAddr::new(
                    SegNo::new(i as u32 * 3).unwrap(),
                    WordNo::new(i as u32 * 7).unwrap(),
                ),
            );
        }
        SavedState {
            ipr: Ipr::new(Ring::R4, SegAddr::from_parts(100, 0o1234).unwrap()),
            prs,
            a: Word::new(0o707070),
            q: Word::new(0o121212),
            x: [1, 2, 3, 4, 5, 6, 7, 0o777777],
            ind_zero: false,
            ind_neg: true,
        }
    }

    #[test]
    fn saved_state_pack_round_trip() {
        let s = sample_state();
        assert_eq!(SavedState::unpack(&s.pack()), s);
    }

    #[test]
    fn indicators_round_trip_all_combinations() {
        for (z, n) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut s = sample_state();
            s.ind_zero = z;
            s.ind_neg = n;
            let r = SavedState::unpack(&s.pack());
            assert_eq!((r.ind_zero, r.ind_neg), (z, n));
        }
    }

    /// The frames holding the two pages of the paged trap segment.
    const FRAMES: [u32; 2] = [200, 201];

    /// A machine whose trap segment is paged, with the save area
    /// straddling its two pages and both PTWs' used and modified bits
    /// off, so the transfer sets them on the way.
    fn paged_trap_machine() -> Machine {
        let config = MachineConfig {
            trap_save_offset: PAGE_WORDS - 7,
            ..MachineConfig::default()
        };
        let mut w = World::with_config(config);
        let pt = w.alloc_raw(2);
        for (page, frame) in FRAMES.into_iter().enumerate() {
            let ptw = Ptw::present(frame).unwrap().pack();
            w.machine
                .phys_mut()
                .poke(pt.wrapping_add(page as u32), ptw)
                .unwrap();
        }
        let sdw = SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0)
            .write(true)
            .unpaged(false)
            .addr(pt)
            .bound_words(2 * PAGE_WORDS)
            .build();
        let segno = TRAP_SEGNO.value();
        w.install_sdw(segno, &sdw);
        w.machine
    }

    /// The word-at-a-time transfer the bulk runs replace: one SDW fetch,
    /// then a translation and a counted access per word.
    fn word_loop(
        m: &mut Machine,
        first: u32,
        words: &mut [Word],
        write: bool,
    ) -> Result<(), Fault> {
        let mode = if write {
            AccessMode::Write
        } else {
            AccessMode::Read
        };
        let sdw = m.save_area_sdw(mode)?;
        for (i, w) in words.iter_mut().enumerate() {
            let wordno = u64::from(m.config.trap_save_offset + first + i as u32);
            let addr = SegAddr::new(TRAP_SEGNO, WordNo::from_bits(wordno));
            let abs = m.tr.resolve(&mut m.phys, &sdw, addr, write)?;
            if write {
                m.phys.write(abs, *w)?;
            } else {
                *w = m.phys.read(abs)?;
            }
        }
        Ok(())
    }

    /// Counters, both frames and both PTWs.
    fn observed(m: &Machine) -> (u64, u64, Vec<Word>) {
        let mut words = Vec::new();
        for frame in FRAMES {
            let base = AbsAddr::new(frame * PAGE_WORDS).unwrap();
            m.phys()
                .peek_into(base, PAGE_WORDS as usize, &mut words)
                .unwrap();
        }
        let sdw = m.clone().save_area_sdw(AccessMode::Read).unwrap();
        m.phys().peek_into(sdw.addr, 2, &mut words).unwrap();
        (m.phys().read_count(), m.phys().write_count(), words)
    }

    #[test]
    fn paged_save_area_charges_the_references_of_the_word_loop() {
        let state = sample_state();
        let fault = Fault::PageFault {
            addr: SegAddr::from_parts(100, 5).unwrap(),
        };
        let mut bulk = paged_trap_machine();
        let mut by_word = bulk.clone();

        bulk.write_save_area(&state, &fault).unwrap();
        let (fap, detail) = fault_detail(&fault);
        let mut saved = [Word::ZERO; SAVE_WORDS as usize];
        saved[..16].copy_from_slice(&state.pack());
        saved[16..].copy_from_slice(&[Word::new(u64::from(fault.vector())), fap, detail]);
        word_loop(&mut by_word, 0, &mut saved, true).unwrap();
        assert_eq!(observed(&bulk), observed(&by_word), "trap entry");

        let info = bulk.fault_info().unwrap();
        let mut words = [Word::ZERO; 3];
        word_loop(&mut by_word, 16, &mut words, false).unwrap();
        assert_eq!(info.0, words[0].raw() as u32);
        assert_eq!(observed(&bulk), observed(&by_word), "fault_info");

        assert_eq!(bulk.saved_state().unwrap(), state);
        let mut words = [Word::ZERO; 17];
        word_loop(&mut by_word, 0, &mut words, false).unwrap();
        assert_eq!(observed(&bulk), observed(&by_word), "saved_state");

        let mut moved = state;
        moved.a = Word::new(0o5555);
        bulk.set_saved_state(&moved).unwrap();
        word_loop(&mut by_word, 0, &mut moved.pack(), true).unwrap();
        assert_eq!(observed(&bulk), observed(&by_word), "set_saved_state");
    }

    #[test]
    fn paged_save_area_fails_where_the_word_loop_fails() {
        // A poisoned word on the second page: the read stops there.
        let mut bulk = paged_trap_machine();
        let poisoned = FRAMES[1] * PAGE_WORDS + 3;
        bulk.phys_mut().corrupt(poisoned, 1);
        let mut by_word = bulk.clone();
        let got = bulk.read_save_area().map(|_| ());
        let mut words = [Word::ZERO; 17];
        let want = word_loop(&mut by_word, 0, &mut words, false);
        assert_eq!(got, want);
        assert_eq!(got, Err(Fault::ParityError { abs: poisoned }));
        assert_eq!(observed(&bulk), observed(&by_word));

        // The second page missing: the store stops at its first word.
        let mut bulk = paged_trap_machine();
        let sdw = bulk.save_area_sdw(AccessMode::Write).unwrap();
        bulk.phys_mut()
            .poke(sdw.addr.wrapping_add(1), Ptw::MISSING.pack())
            .unwrap();
        let mut by_word = bulk.clone();
        let got = bulk.set_saved_state(&sample_state());
        let want = word_loop(&mut by_word, 0, &mut sample_state().pack(), true);
        assert_eq!(got, want);
        assert!(matches!(got, Err(Fault::PageFault { .. })));
        assert_eq!(observed(&bulk), observed(&by_word));
    }
}
