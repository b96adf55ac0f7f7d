//! Segment descriptor words (SDWs) — Fig. 3 of the paper.
//!
//! An SDW describes one segment of a process's virtual memory: where it
//! sits in absolute memory (or where its page table sits), how long it
//! is, and — the subject of the paper — the access-control fields: the
//! three ring numbers `R1 ≤ R2 ≤ R3` that delimit the write, execute and
//! read brackets and the gate extension; the `R`, `W`, `E` permission
//! flags; and the gate count.
//!
//! Bracket semantics (paper, "Protection Rings" and "The Hardware
//! Implementation of Rings"):
//!
//! * write bracket   — rings `0 ..= R1`
//! * execute bracket — rings `R1 ..= R2`
//! * read bracket    — rings `0 ..= R2`
//! * gate extension  — rings `R2+1 ..= R3`
//!
//! The gate *list* is compressed to a single count: gate locations are
//! words `0 .. GATE` of the segment.
//!
//! # Storage layout
//!
//! An SDW occupies a pair of 36-bit words in the descriptor segment
//! (LSB-0 bit numbering):
//!
//! ```text
//! word 0: ADDR[0..24]  R1[24..27]  R2[27..30]  R3[30..33]  F[33]  FC[34..36]
//! word 1: BOUND[0..14] R[14] W[15] E[16] P[17] U[18]  GATE[22..36]
//! ```
//!
//! `ADDR` is the absolute address of the segment base (if `U`, unpaged)
//! or of its page table. `BOUND` is the segment length in 16-word blocks
//! minus one (a word number `w` is in bounds iff `w >> 4 <= BOUND`),
//! exactly the 6180 convention. `F` is the presence ("directed fault")
//! bit; `FC` the fault class delivered when `F` is off. `P` marks a
//! privileged segment (privileged instructions additionally require ring
//! 0). `GATE` is the gate count.

use crate::access::{AccessMode, Fault, Violation};
use crate::addr::{AbsAddr, SegAddr, WordNo};
use crate::ring::{Bracket, Ring};
use crate::word::Word;

/// Width of the `BOUND` field (16-word blocks).
pub const BOUND_BITS: u32 = 14;
/// Width of the `GATE` field.
pub const GATE_BITS: u32 = 14;
/// Maximum `BOUND` field value.
pub const MAX_BOUND: u32 = (1 << BOUND_BITS) - 1;
/// Maximum gate count.
pub const MAX_GATE: u32 = (1 << GATE_BITS) - 1;
/// Words covered per unit of `BOUND` (16-word granularity).
pub const BOUND_GRANULE: u32 = 16;

/// A decoded segment descriptor word.
///
/// Invariant: `r1 <= r2 <= r3` (enforced by [`Sdw::new`] and by
/// [`SdwBuilder`]), mirroring the constraint the paper places on
/// supervisor code that constructs SDWs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Sdw {
    /// Absolute address of the segment base (unpaged) or page table.
    pub addr: AbsAddr,
    /// Top of the write bracket; bottom of the execute bracket.
    pub r1: Ring,
    /// Top of the execute bracket; also top of the read bracket.
    pub r2: Ring,
    /// Top of the gate extension.
    pub r3: Ring,
    /// Presence bit (`F`). Off ⇒ any reference raises a segment fault.
    pub present: bool,
    /// Directed-fault class delivered when `present` is off.
    pub fault_class: u8,
    /// Segment length in 16-word blocks, minus one.
    pub bound: u32,
    /// Read permission flag.
    pub read: bool,
    /// Write permission flag.
    pub write: bool,
    /// Execute permission flag.
    pub execute: bool,
    /// Privileged-segment flag.
    pub privileged: bool,
    /// Unpaged flag: `addr` is the segment base, not a page table.
    pub unpaged: bool,
    /// Number of gate locations (gates are words `0 .. gate`).
    pub gate: u32,
}

impl Sdw {
    /// Creates an SDW, checking the `r1 <= r2 <= r3` invariant and field
    /// widths.
    ///
    /// Returns `None` when the ring ordering is violated or `bound`,
    /// `gate`, or `fault_class` exceed their fields.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        addr: AbsAddr,
        rings: (Ring, Ring, Ring),
        flags: SdwFlags,
        bound: u32,
        gate: u32,
    ) -> Option<Sdw> {
        let (r1, r2, r3) = rings;
        if !(r1 <= r2 && r2 <= r3) || bound > MAX_BOUND || gate > MAX_GATE {
            return None;
        }
        Some(Sdw {
            addr,
            r1,
            r2,
            r3,
            present: flags.present,
            fault_class: flags.fault_class & 0b11,
            bound,
            read: flags.read,
            write: flags.write,
            execute: flags.execute,
            privileged: flags.privileged,
            unpaged: flags.unpaged,
            gate,
        })
    }

    /// The write bracket: rings `0 ..= R1`.
    #[inline]
    pub fn write_bracket(&self) -> Bracket {
        Bracket::down_to_zero(self.r1)
    }

    /// The read bracket: rings `0 ..= R2`.
    #[inline]
    pub fn read_bracket(&self) -> Bracket {
        Bracket::down_to_zero(self.r2)
    }

    /// The execute bracket: rings `R1 ..= R2`.
    #[inline]
    pub fn execute_bracket(&self) -> Bracket {
        Bracket {
            bottom: self.r1,
            top: self.r2,
        }
    }

    /// True if `ring` lies in the gate extension `R2+1 ..= R3`.
    #[inline]
    pub fn in_gate_extension(&self, ring: Ring) -> bool {
        self.r2 < ring && ring <= self.r3
    }

    /// True if `wordno` is one of the segment's gate locations.
    #[inline]
    pub fn is_gate(&self, wordno: WordNo) -> bool {
        wordno.value() < self.gate
    }

    /// Number of words the segment may contain given its bound field.
    #[inline]
    pub fn length_words(&self) -> u32 {
        (self.bound + 1) * BOUND_GRANULE
    }

    /// True if `wordno` is within the segment bound.
    #[inline]
    pub fn in_bounds(&self, wordno: WordNo) -> bool {
        wordno.value() >> 4 <= self.bound
    }

    /// Checks presence and bound for a reference at `addr`, the common
    /// prologue of every validation in Figs. 4–9.
    pub fn check_present_and_bounds(&self, mode: AccessMode, addr: SegAddr) -> Result<(), Fault> {
        if !self.present {
            return Err(Fault::SegmentFault {
                addr,
                class: self.fault_class,
            });
        }
        if !self.in_bounds(addr.wordno) {
            return Err(Fault::AccessViolation {
                mode,
                violation: Violation::OutOfBounds,
                addr,
                ring: Ring::R0,
            });
        }
        Ok(())
    }

    /// Encodes the SDW into its two-word storage representation.
    pub fn pack(&self) -> (Word, Word) {
        let w0 = Word::ZERO
            .with_field(0, 24, u64::from(self.addr.value()))
            .with_field(24, 3, u64::from(self.r1.number()))
            .with_field(27, 3, u64::from(self.r2.number()))
            .with_field(30, 3, u64::from(self.r3.number()))
            .with_bit(33, self.present)
            .with_field(34, 2, u64::from(self.fault_class));
        let w1 = Word::ZERO
            .with_field(0, BOUND_BITS, u64::from(self.bound))
            .with_bit(14, self.read)
            .with_bit(15, self.write)
            .with_bit(16, self.execute)
            .with_bit(17, self.privileged)
            .with_bit(18, self.unpaged)
            .with_field(22, GATE_BITS, u64::from(self.gate));
        (w0, w1)
    }

    /// The presence bit and the R1, R2, R3 fields of a descriptor's
    /// first word, exactly as stored. [`Sdw::unpack`] clamps the ring
    /// fields into order, so only these show a descriptor that breaks
    /// `R1 ≤ R2 ≤ R3`.
    pub fn raw_brackets(w0: Word) -> (bool, [u8; 3]) {
        let ring = |lo| w0.field(lo, 3) as u8;
        (w0.bit(33), [ring(24), ring(27), ring(30)])
    }

    /// Decodes an SDW from its two-word storage representation.
    ///
    /// Ring fields that violate `R1 ≤ R2 ≤ R3` are repaired by clamping
    /// (`r2 = max(r1, r2)`, `r3 = max(r2, r3)`); the paper requires
    /// supervisor code to guarantee the ordering, and clamping ensures a
    /// corrupt descriptor cannot *widen* any bracket beyond what its
    /// fields individually permit.
    pub fn unpack(w0: Word, w1: Word) -> Sdw {
        let r1 = Ring::from_bits(w0.field(24, 3));
        let r2 = Ring::from_bits(w0.field(27, 3)).least_privileged(r1);
        let r3 = Ring::from_bits(w0.field(30, 3)).least_privileged(r2);
        Sdw {
            addr: AbsAddr::from_bits(w0.field(0, 24)),
            r1,
            r2,
            r3,
            present: w0.bit(33),
            fault_class: w0.field(34, 2) as u8,
            bound: w1.field(0, BOUND_BITS) as u32,
            read: w1.bit(14),
            write: w1.bit(15),
            execute: w1.bit(16),
            privileged: w1.bit(17),
            unpaged: w1.bit(18),
            gate: w1.field(22, GATE_BITS) as u32,
        }
    }
}

impl core::fmt::Display for Sdw {
    /// Renders the access indicators in the style of the paper's
    /// Figs. 1–2: per-capability brackets, gates, and state.
    ///
    /// ```
    /// use ring_core::ring::Ring;
    /// use ring_core::sdw::SdwBuilder;
    ///
    /// let fig2 = SdwBuilder::procedure(Ring::R3, Ring::R3, Ring::R5)
    ///     .gates(2)
    ///     .build();
    /// assert_eq!(
    ///     fig2.to_string(),
    ///     "R[0,3] W off E[3,3] gates 0..2 ext to 5 bound 16"
    /// );
    /// ```
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if !self.present {
            write!(f, "missing (fault class {}) ", self.fault_class)?;
        }
        if self.read {
            write!(f, "R[0,{}] ", self.r2)?;
        } else {
            write!(f, "R off ")?;
        }
        if self.write {
            write!(f, "W[0,{}] ", self.r1)?;
        } else {
            write!(f, "W off ")?;
        }
        if self.execute {
            write!(f, "E[{},{}] ", self.r1, self.r2)?;
        } else {
            write!(f, "E off ")?;
        }
        if self.gate > 0 {
            write!(f, "gates 0..{} ", self.gate)?;
        }
        if self.r3 > self.r2 {
            write!(f, "ext to {} ", self.r3)?;
        }
        write!(f, "bound {}", self.length_words())?;
        if !self.unpaged {
            write!(f, " paged")?;
        }
        Ok(())
    }
}

/// Boolean flags and fault class for [`Sdw::new`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SdwFlags {
    /// Read permission.
    pub read: bool,
    /// Write permission.
    pub write: bool,
    /// Execute permission.
    pub execute: bool,
    /// Presence bit.
    pub present: bool,
    /// Privileged-segment flag.
    pub privileged: bool,
    /// Unpaged flag.
    pub unpaged: bool,
    /// Directed-fault class (2 bits).
    pub fault_class: u8,
}

/// Convenient incremental construction of SDWs for tests and the
/// supervisor.
///
/// # Examples
///
/// ```
/// use ring_core::sdw::SdwBuilder;
/// use ring_core::ring::Ring;
///
/// // The writable data segment of the paper's Fig. 1.
/// let sdw = SdwBuilder::data(Ring::R4, Ring::R5).bound_words(1024).build();
/// assert!(sdw.read && sdw.write && !sdw.execute);
/// assert_eq!(sdw.write_bracket().top, Ring::R4);
/// assert_eq!(sdw.read_bracket().top, Ring::R5);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SdwBuilder {
    sdw: Sdw,
}

impl SdwBuilder {
    /// Starts from an all-permissions-off, present, unpaged SDW with
    /// brackets `(0, 0, 0)` and a one-granule bound.
    pub fn new() -> SdwBuilder {
        SdwBuilder {
            sdw: Sdw {
                addr: AbsAddr::ZERO,
                r1: Ring::R0,
                r2: Ring::R0,
                r3: Ring::R0,
                present: true,
                fault_class: 0,
                bound: 0,
                read: false,
                write: false,
                execute: false,
                privileged: false,
                unpaged: true,
                gate: 0,
            },
        }
    }

    /// A readable, writable data segment with write bracket top `r1` and
    /// read bracket top `r2` (execute off), as in the paper's Fig. 1.
    pub fn data(r1: Ring, r2: Ring) -> SdwBuilder {
        SdwBuilder::new().rings(r1, r2, r2).read(true).write(true)
    }

    /// A pure (non-writable) procedure segment with execute bracket
    /// `[r1, r2]` and gate extension up to `r3`, as in the paper's
    /// Fig. 2. Read is enabled (procedures may read their own text);
    /// write is off.
    pub fn procedure(r1: Ring, r2: Ring, r3: Ring) -> SdwBuilder {
        SdwBuilder::new().rings(r1, r2, r3).read(true).execute(true)
    }

    /// Sets the three ring fields.
    ///
    /// # Panics
    ///
    /// Panics if `r1 <= r2 <= r3` does not hold — constructing such an
    /// SDW is a supervisor bug by the paper's rules.
    pub fn rings(mut self, r1: Ring, r2: Ring, r3: Ring) -> SdwBuilder {
        assert!(r1 <= r2 && r2 <= r3, "SDW rings must satisfy R1<=R2<=R3");
        self.sdw.r1 = r1;
        self.sdw.r2 = r2;
        self.sdw.r3 = r3;
        self
    }

    /// Sets the absolute address field.
    pub fn addr(mut self, addr: AbsAddr) -> SdwBuilder {
        self.sdw.addr = addr;
        self
    }

    /// Sets the bound field directly (16-word blocks minus one).
    ///
    /// # Panics
    ///
    /// Panics if `bound` exceeds [`MAX_BOUND`].
    pub fn bound(mut self, bound: u32) -> SdwBuilder {
        assert!(bound <= MAX_BOUND, "bound field overflow");
        self.sdw.bound = bound;
        self
    }

    /// Sets the bound so that at least `words` words are addressable.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero or exceeds the 18-bit segment size.
    pub fn bound_words(self, words: u32) -> SdwBuilder {
        assert!((1..=(MAX_BOUND + 1) * BOUND_GRANULE).contains(&words));
        self.bound((words - 1) / BOUND_GRANULE)
    }

    /// Sets the read flag.
    pub fn read(mut self, v: bool) -> SdwBuilder {
        self.sdw.read = v;
        self
    }

    /// Sets the write flag.
    pub fn write(mut self, v: bool) -> SdwBuilder {
        self.sdw.write = v;
        self
    }

    /// Sets the execute flag.
    pub fn execute(mut self, v: bool) -> SdwBuilder {
        self.sdw.execute = v;
        self
    }

    /// Sets the privileged flag.
    pub fn privileged(mut self, v: bool) -> SdwBuilder {
        self.sdw.privileged = v;
        self
    }

    /// Sets the unpaged flag.
    pub fn unpaged(mut self, v: bool) -> SdwBuilder {
        self.sdw.unpaged = v;
        self
    }

    /// Sets the presence bit and fault class.
    pub fn present(mut self, v: bool) -> SdwBuilder {
        self.sdw.present = v;
        self
    }

    /// Sets the gate count.
    ///
    /// # Panics
    ///
    /// Panics if `gate` exceeds [`MAX_GATE`].
    pub fn gates(mut self, gate: u32) -> SdwBuilder {
        assert!(gate <= MAX_GATE, "gate field overflow");
        self.sdw.gate = gate;
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Sdw {
        self.sdw
    }
}

impl Default for SdwBuilder {
    fn default() -> Self {
        SdwBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sdw {
        Sdw::new(
            AbsAddr::new(0o7654321).unwrap(),
            (Ring::R1, Ring::R3, Ring::R5),
            SdwFlags {
                read: true,
                write: false,
                execute: true,
                present: true,
                privileged: true,
                unpaged: false,
                fault_class: 2,
            },
            0o1234,
            17,
        )
        .unwrap()
    }

    #[test]
    fn pack_unpack_round_trip() {
        let sdw = sample();
        let (w0, w1) = sdw.pack();
        assert_eq!(Sdw::unpack(w0, w1), sdw);
    }

    #[test]
    fn ring_ordering_invariant_rejected() {
        assert!(Sdw::new(
            AbsAddr::ZERO,
            (Ring::R4, Ring::R2, Ring::R5),
            SdwFlags::default(),
            0,
            0
        )
        .is_none());
        assert!(Sdw::new(
            AbsAddr::ZERO,
            (Ring::R2, Ring::R4, Ring::R3),
            SdwFlags::default(),
            0,
            0
        )
        .is_none());
    }

    #[test]
    fn unpack_clamps_corrupt_ring_ordering() {
        // Hand-craft a descriptor with R1=5, R2=2, R3=0.
        let w0 = Word::ZERO
            .with_field(24, 3, 5)
            .with_field(27, 3, 2)
            .with_field(30, 3, 0)
            .with_bit(33, true);
        let sdw = Sdw::unpack(w0, Word::ZERO);
        assert_eq!(sdw.r1, Ring::R5);
        assert_eq!(sdw.r2, Ring::R5);
        assert_eq!(sdw.r3, Ring::R5);
    }

    #[test]
    fn brackets_follow_the_paper() {
        let sdw = sample(); // R1=1, R2=3, R3=5
        assert_eq!(sdw.write_bracket(), Bracket::down_to_zero(Ring::R1));
        assert_eq!(sdw.read_bracket(), Bracket::down_to_zero(Ring::R3));
        assert_eq!(
            sdw.execute_bracket(),
            Bracket::new(Ring::R1, Ring::R3).unwrap()
        );
        assert!(!sdw.in_gate_extension(Ring::R3));
        assert!(sdw.in_gate_extension(Ring::R4));
        assert!(sdw.in_gate_extension(Ring::R5));
        assert!(!sdw.in_gate_extension(Ring::R6));
    }

    #[test]
    fn gate_membership() {
        let sdw = sample(); // 17 gates
        assert!(sdw.is_gate(WordNo::new(0).unwrap()));
        assert!(sdw.is_gate(WordNo::new(16).unwrap()));
        assert!(!sdw.is_gate(WordNo::new(17).unwrap()));
    }

    #[test]
    fn bound_check_16_word_granularity() {
        let sdw = SdwBuilder::new().bound(0).build(); // words 0..=15
        assert!(sdw.in_bounds(WordNo::new(15).unwrap()));
        assert!(!sdw.in_bounds(WordNo::new(16).unwrap()));
        assert_eq!(sdw.length_words(), 16);
        let sdw = SdwBuilder::new().bound_words(17).build(); // rounds up
        assert!(sdw.in_bounds(WordNo::new(31).unwrap()));
        assert!(!sdw.in_bounds(WordNo::new(32).unwrap()));
    }

    #[test]
    fn presence_check_reports_fault_class() {
        let sdw = SdwBuilder::new().present(false).build();
        let addr = SegAddr::from_parts(3, 0).unwrap();
        match sdw.check_present_and_bounds(AccessMode::Read, addr) {
            Err(Fault::SegmentFault { class: 0, .. }) => {}
            other => panic!("expected segment fault, got {other:?}"),
        }
    }

    #[test]
    fn bounds_check_reports_violation() {
        let sdw = SdwBuilder::new().bound(0).build();
        let addr = SegAddr::from_parts(3, 100).unwrap();
        match sdw.check_present_and_bounds(AccessMode::Write, addr) {
            Err(Fault::AccessViolation {
                violation: Violation::OutOfBounds,
                mode: AccessMode::Write,
                ..
            }) => {}
            other => panic!("expected bounds violation, got {other:?}"),
        }
    }

    #[test]
    fn builder_presets_match_figures() {
        // Fig. 1: writable data segment, write bracket [0,4], read [0,5].
        let fig1 = SdwBuilder::data(Ring::R4, Ring::R5).build();
        assert!(fig1.read && fig1.write && !fig1.execute);
        // Fig. 2: gated pure procedure, execute [3,3], gates to ring 5.
        let fig2 = SdwBuilder::procedure(Ring::R3, Ring::R3, Ring::R5)
            .gates(2)
            .build();
        assert!(fig2.execute && !fig2.write);
        assert!(fig2.in_gate_extension(Ring::R5));
    }

    #[test]
    fn display_renders_access_indicators() {
        let fig1 = SdwBuilder::data(Ring::R4, Ring::R5)
            .bound_words(1024)
            .build();
        assert_eq!(fig1.to_string(), "R[0,5] W[0,4] E off bound 1024");
        let paged = SdwBuilder::data(Ring::R1, Ring::R1)
            .unpaged(false)
            .present(false)
            .build();
        assert!(paged.to_string().starts_with("missing (fault class 0)"));
        assert!(paged.to_string().ends_with("paged"));
    }

    #[test]
    #[should_panic(expected = "R1<=R2<=R3")]
    fn builder_panics_on_bad_rings() {
        let _ = SdwBuilder::new().rings(Ring::R4, Ring::R2, Ring::R7);
    }
}
