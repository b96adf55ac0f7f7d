//! The instruction set of the simulated processor.
//!
//! The paper describes the access-control architecture, not a complete
//! order code; this module supplies the small general-register ISA the
//! simulator executes so that real programs can exercise the ring
//! mechanisms. It follows the general form of the Honeywell 645 order
//! code the paper assumes: single-address instructions with an optional
//! pointer-register base, an indirect flag, and an index/immediate tag
//! (the `INS` format of Fig. 3).
//!
//! # Instruction word layout (36 bits, LSB-0)
//!
//! ```text
//! OFFSET[0..18]  XREG[18..21]  TAG[21..23]  I[23]  PRFLAG[24]
//! PRNUM[25..28]  OPCODE[28..36]
//! ```
//!
//! * `OFFSET` — 18-bit operand offset (`INST.OFFSET`).
//! * `PRFLAG`/`PRNUM` — when `PRFLAG` is set the offset is relative to
//!   pointer register `PRNUM` (`INST.PRNUM`), otherwise to the segment
//!   the instruction came from.
//! * `I` — indirect flag (`INST.I`).
//! * `TAG` — address modifier: none, indexed (add index register
//!   `XREG`), or immediate (the offset itself is the operand; no memory
//!   reference). The fourth encoding is reserved and faults.
//! * `XREG` — index register for the indexed modifier; for the
//!   pointer-register instructions `EAP` and `SPRI` it instead names the
//!   pointer register being loaded or stored.

use ring_core::access::Fault;
use ring_core::word::Word;

/// Address-modification tag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AddrMode {
    /// No modification.
    None,
    /// Add index register `XREG` to the offset.
    Indexed,
    /// The 18-bit offset is itself the operand (direct literal); no
    /// memory reference is made and the indirect flag is ignored.
    Immediate,
}

impl AddrMode {
    fn from_bits(b: u64) -> Result<AddrMode, Fault> {
        match b {
            0 => Ok(AddrMode::None),
            1 => Ok(AddrMode::Indexed),
            2 => Ok(AddrMode::Immediate),
            _ => Err(Fault::IllegalModifier),
        }
    }

    fn to_bits(self) -> u64 {
        match self {
            AddrMode::None => 0,
            AddrMode::Indexed => 1,
            AddrMode::Immediate => 2,
        }
    }
}

/// Operation codes.
///
/// Grouped by the kind of operand reference they make, which is what
/// the access-validation hardware cares about (Figs. 6 and 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[repr(u8)]
pub enum Opcode {
    // ---- operand-reading instructions (Fig. 6, read) ----
    /// Load A from the operand.
    Lda = 0o01,
    /// Load Q from the operand.
    Ldq = 0o02,
    /// Load index register XREG from the operand (low 18 bits).
    Ldx = 0o03,
    /// Add operand to A.
    Ada = 0o04,
    /// Subtract operand from A.
    Sba = 0o05,
    /// Multiply A by operand (low 36 bits kept).
    Mpy = 0o06,
    /// AND operand into A.
    Ana = 0o07,
    /// OR operand into A.
    Ora = 0o10,
    /// XOR operand into A.
    Era = 0o11,
    /// Compare A with operand: set indicators from `A - operand`.
    Cmpa = 0o12,
    /// Add operand to Q.
    Adq = 0o13,
    /// Subtract operand from Q.
    Sbq = 0o14,

    // ---- operand-writing instructions (Fig. 6, write) ----
    /// Store A at the operand.
    Sta = 0o20,
    /// Store Q at the operand.
    Stq = 0o21,
    /// Store index register XREG at the operand (low 18 bits).
    Stx = 0o22,
    /// Store zero at the operand.
    Stz = 0o23,

    // ---- read-modify-write ----
    /// Add one to storage (requires both read and write permission).
    Aos = 0o30,

    // ---- pointer-register instructions (Fig. 7, EAP-type) ----
    /// Effective address to pointer register XREG: loads RING, SEGNO,
    /// WORDNO from the TPR. The only way to load a pointer register.
    Eap = 0o31,
    /// Store pointer register XREG as an indirect-word pair at the
    /// operand (two words written).
    Spri = 0o32,

    // ---- transfer instructions (Fig. 7) ----
    /// Unconditional transfer.
    Tra = 0o40,
    /// Transfer if A is zero.
    Tze = 0o41,
    /// Transfer if A is non-zero.
    Tnz = 0o42,
    /// Transfer if A is negative.
    Tmi = 0o43,
    /// Transfer if A is non-negative.
    Tpl = 0o44,

    // ---- ring-crossing instructions (Figs. 8, 9) ----
    /// Call: the only instruction that can switch the ring of execution
    /// downward.
    Call = 0o45,
    /// Return: the only instruction that can switch the ring of
    /// execution upward (also usable for the non-local goto).
    Return = 0o46,

    // ---- address-only instructions (no operand reference) ----
    /// Effective address (word number) to A.
    Eaa = 0o50,
    /// Shift A left by the effective word number (mod 64).
    Als = 0o51,
    /// Shift A right (logical) by the effective word number (mod 64).
    Ars = 0o52,

    // ---- no-operand instructions ----
    /// No operation.
    Nop = 0o60,
    /// Negate A (two's complement).
    Neg = 0o61,
    /// Derail: explicit trap to the supervisor carrying the offset.
    Drl = 0o62,

    // ---- privileged instructions (ring 0 only) ----
    /// Load the descriptor base register from a two-word operand;
    /// flushes the SDW associative memory.
    Ldbr = 0o70,
    /// Start an I/O channel (connect; channel program at the operand).
    Sio = 0o71,
    /// Restore processor state saved at the last trap and resume.
    Rett = 0o72,
    /// Load the interval timer from the operand.
    Ldt = 0o73,
    /// Stop the processor (orderly halt).
    Halt = 0o77,
}

/// How an instruction references its operand — the grouping the paper
/// uses to describe access validation ("the possible instructions may be
/// broken into three groups, according to the type of reference made to
/// the operand").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OperandUse {
    /// Reads the operand word (validated per Fig. 6, read).
    Read,
    /// Writes the operand word (validated per Fig. 6, write).
    Write,
    /// Reads then writes the operand word (both Fig. 6 checks).
    ReadWrite,
    /// Writes a two-word indirect pair (SPRI).
    WritePair,
    /// Does not reference the operand: loads the effective address into
    /// a pointer register (EAP-type; Fig. 7).
    Pointer,
    /// Does not reference the operand: ordinary transfer with the
    /// advance check of Fig. 7.
    Transfer,
    /// The CALL instruction (Fig. 8).
    Call,
    /// The RETURN instruction (Fig. 9).
    Return,
    /// Uses only the effective word number as data; no reference and no
    /// validation beyond the effective-address calculation itself.
    AddressOnly,
    /// Has no operand; the address field is ignored (or is an inline
    /// code, as for DRL).
    None,
}

impl OperandUse {
    /// The corresponding `ring-metrics` counter class. The two enums
    /// mirror each other; the metrics crate keeps its own copy so it
    /// depends only on `ring-core`.
    pub fn metric_class(self) -> ring_metrics::OpClass {
        use ring_metrics::OpClass;
        match self {
            OperandUse::Read => OpClass::Read,
            OperandUse::Write => OpClass::Write,
            OperandUse::ReadWrite => OpClass::ReadWrite,
            OperandUse::WritePair => OpClass::WritePair,
            OperandUse::Pointer => OpClass::Pointer,
            OperandUse::Transfer => OpClass::Transfer,
            OperandUse::Call => OpClass::Call,
            OperandUse::Return => OpClass::Return,
            OperandUse::AddressOnly => OpClass::AddressOnly,
            OperandUse::None => OpClass::NoOperand,
        }
    }
}

impl Opcode {
    /// Decodes an opcode field value.
    pub fn from_bits(b: u64) -> Result<Opcode, Fault> {
        use Opcode::*;
        Ok(match b {
            0o01 => Lda,
            0o02 => Ldq,
            0o03 => Ldx,
            0o04 => Ada,
            0o05 => Sba,
            0o06 => Mpy,
            0o07 => Ana,
            0o10 => Ora,
            0o11 => Era,
            0o12 => Cmpa,
            0o13 => Adq,
            0o14 => Sbq,
            0o20 => Sta,
            0o21 => Stq,
            0o22 => Stx,
            0o23 => Stz,
            0o30 => Aos,
            0o31 => Eap,
            0o32 => Spri,
            0o40 => Tra,
            0o41 => Tze,
            0o42 => Tnz,
            0o43 => Tmi,
            0o44 => Tpl,
            0o45 => Call,
            0o46 => Return,
            0o50 => Eaa,
            0o51 => Als,
            0o52 => Ars,
            0o60 => Nop,
            0o61 => Neg,
            0o62 => Drl,
            0o70 => Ldbr,
            0o71 => Sio,
            0o72 => Rett,
            0o73 => Ldt,
            0o77 => Halt,
            other => {
                return Err(Fault::IllegalOpcode {
                    opcode: other as u16,
                })
            }
        })
    }

    /// The operand-reference class of this opcode.
    pub fn operand_use(self) -> OperandUse {
        use Opcode::*;
        match self {
            Lda | Ldq | Ldx | Ada | Sba | Mpy | Ana | Ora | Era | Cmpa | Adq | Sbq => {
                OperandUse::Read
            }
            Sta | Stq | Stx | Stz => OperandUse::Write,
            Aos => OperandUse::ReadWrite,
            Eap => OperandUse::Pointer,
            Spri => OperandUse::WritePair,
            Tra | Tze | Tnz | Tmi | Tpl => OperandUse::Transfer,
            Call => OperandUse::Call,
            Return => OperandUse::Return,
            Eaa | Als | Ars => OperandUse::AddressOnly,
            Nop | Neg | Drl | Rett | Halt => OperandUse::None,
            // LDBR, SIO and LDT read their (two-word or one-word)
            // operands; they are validated as reads in ring 0.
            Ldbr | Sio | Ldt => OperandUse::Read,
        }
    }

    /// True for the instructions executable only in ring 0 ("such
    /// instructions are designated as privileged and will be executed by
    /// the processor only in ring 0").
    pub fn privileged(self) -> bool {
        matches!(
            self,
            Opcode::Ldbr | Opcode::Sio | Opcode::Rett | Opcode::Ldt | Opcode::Halt
        )
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Lda => "lda",
            Ldq => "ldq",
            Ldx => "ldx",
            Ada => "ada",
            Sba => "sba",
            Mpy => "mpy",
            Ana => "ana",
            Ora => "ora",
            Era => "era",
            Cmpa => "cmpa",
            Adq => "adq",
            Sbq => "sbq",
            Sta => "sta",
            Stq => "stq",
            Stx => "stx",
            Stz => "stz",
            Aos => "aos",
            Eap => "eap",
            Spri => "spri",
            Tra => "tra",
            Tze => "tze",
            Tnz => "tnz",
            Tmi => "tmi",
            Tpl => "tpl",
            Call => "call",
            Return => "return",
            Eaa => "eaa",
            Als => "als",
            Ars => "ars",
            Nop => "nop",
            Neg => "neg",
            Drl => "drl",
            Ldbr => "ldbr",
            Sio => "sio",
            Rett => "rett",
            Ldt => "ldt",
            Halt => "halt",
        }
    }

    /// Every defined opcode (for exhaustive tests and the assembler's
    /// mnemonic table).
    pub fn all() -> &'static [Opcode] {
        use Opcode::*;
        &[
            Lda, Ldq, Ldx, Ada, Sba, Mpy, Ana, Ora, Era, Cmpa, Adq, Sbq, Sta, Stq, Stx, Stz, Aos,
            Eap, Spri, Tra, Tze, Tnz, Tmi, Tpl, Call, Return, Eaa, Als, Ars, Nop, Neg, Drl, Ldbr,
            Sio, Rett, Ldt, Halt,
        ]
    }
}

/// A decoded instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Instr {
    /// Operation code.
    pub opcode: Opcode,
    /// Offset relative to a pointer register when `Some(prnum)`, else
    /// relative to the instruction's own segment.
    pub pr: Option<u8>,
    /// Indirect flag.
    pub indirect: bool,
    /// Address modifier.
    pub mode: AddrMode,
    /// Index register (or target pointer register for EAP/SPRI).
    pub xreg: u8,
    /// 18-bit offset.
    pub offset: u32,
}

impl Instr {
    /// A plain instruction with no base, no indexing, no indirection.
    pub const fn direct(opcode: Opcode, offset: u32) -> Instr {
        Instr {
            opcode,
            pr: None,
            indirect: false,
            mode: AddrMode::None,
            xreg: 0,
            offset,
        }
    }

    /// An instruction addressed relative to pointer register `pr`.
    pub fn pr_relative(opcode: Opcode, pr: u8, offset: u32) -> Instr {
        Instr {
            opcode,
            pr: Some(pr),
            indirect: false,
            mode: AddrMode::None,
            xreg: 0,
            offset,
        }
    }

    /// Returns a copy with the indirect flag set.
    #[must_use]
    pub fn with_indirect(mut self) -> Instr {
        self.indirect = true;
        self
    }

    /// Returns a copy with the given index register and indexed mode.
    #[must_use]
    pub fn with_index(mut self, xreg: u8) -> Instr {
        self.mode = AddrMode::Indexed;
        self.xreg = xreg;
        self
    }

    /// Returns a copy in immediate mode.
    #[must_use]
    pub fn immediate(mut self) -> Instr {
        self.mode = AddrMode::Immediate;
        self
    }

    /// Returns a copy with `xreg` set (the EAP/SPRI target register).
    #[must_use]
    pub fn with_xreg(mut self, xreg: u8) -> Instr {
        self.xreg = xreg;
        self
    }

    /// Encodes into the 36-bit instruction word.
    ///
    /// # Panics
    ///
    /// Panics if `offset`, `xreg` or `pr` exceed their fields.
    pub fn encode(self) -> Word {
        assert!(self.offset < (1 << 18), "offset field overflow");
        assert!(self.xreg < 8, "xreg field overflow");
        let (prflag, prnum) = match self.pr {
            Some(n) => {
                assert!(n < 8, "prnum field overflow");
                (true, u64::from(n))
            }
            None => (false, 0),
        };
        Word::ZERO
            .with_field(0, 18, u64::from(self.offset))
            .with_field(18, 3, u64::from(self.xreg))
            .with_field(21, 2, self.mode.to_bits())
            .with_bit(23, self.indirect)
            .with_bit(24, prflag)
            .with_field(25, 3, prnum)
            .with_field(28, 8, self.opcode as u64)
    }

    /// Decodes an instruction word.
    pub fn decode(w: Word) -> Result<Instr, Fault> {
        let opcode = Opcode::from_bits(w.field(28, 8))?;
        let mode = AddrMode::from_bits(w.field(21, 2))?;
        let pr = if w.bit(24) {
            Some(w.field(25, 3) as u8)
        } else {
            None
        };
        Ok(Instr {
            opcode,
            pr,
            indirect: w.bit(23),
            mode,
            xreg: w.field(18, 3) as u8,
            offset: w.field(0, 18) as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_all_opcodes() {
        for &op in Opcode::all() {
            let i = Instr {
                opcode: op,
                pr: Some(5),
                indirect: true,
                mode: AddrMode::Indexed,
                xreg: 3,
                offset: 0o123456,
            };
            assert_eq!(Instr::decode(i.encode()).unwrap(), i);
            let j = Instr::direct(op, 7);
            assert_eq!(Instr::decode(j.encode()).unwrap(), j);
        }
    }

    #[test]
    fn opcode_bits_round_trip() {
        for &op in Opcode::all() {
            assert_eq!(Opcode::from_bits(op as u64).unwrap(), op);
        }
    }

    #[test]
    fn unknown_opcode_faults() {
        assert!(matches!(
            Opcode::from_bits(0o76),
            Err(Fault::IllegalOpcode { opcode: 0o76 })
        ));
        let w = Word::ZERO.with_field(28, 8, 0o76);
        assert!(Instr::decode(w).is_err());
    }

    #[test]
    fn reserved_modifier_faults() {
        let w = Instr::direct(Opcode::Lda, 0).encode().with_field(21, 2, 3);
        assert!(matches!(Instr::decode(w), Err(Fault::IllegalModifier)));
    }

    #[test]
    fn operand_use_covers_paper_grouping() {
        assert_eq!(Opcode::Lda.operand_use(), OperandUse::Read);
        assert_eq!(Opcode::Sta.operand_use(), OperandUse::Write);
        assert_eq!(Opcode::Aos.operand_use(), OperandUse::ReadWrite);
        assert_eq!(Opcode::Eap.operand_use(), OperandUse::Pointer);
        assert_eq!(Opcode::Tra.operand_use(), OperandUse::Transfer);
        assert_eq!(Opcode::Call.operand_use(), OperandUse::Call);
        assert_eq!(Opcode::Return.operand_use(), OperandUse::Return);
        assert_eq!(Opcode::Nop.operand_use(), OperandUse::None);
    }

    #[test]
    fn privileged_set_matches_the_paper() {
        // "Among these are the instructions to load the DBR, start I/O,
        // and restore the processor state after a trap."
        assert!(Opcode::Ldbr.privileged());
        assert!(Opcode::Sio.privileged());
        assert!(Opcode::Rett.privileged());
        assert!(Opcode::Ldt.privileged());
        assert!(Opcode::Halt.privileged());
        for &op in Opcode::all() {
            if !matches!(
                op,
                Opcode::Ldbr | Opcode::Sio | Opcode::Rett | Opcode::Ldt | Opcode::Halt
            ) {
                assert!(!op.privileged(), "{op:?} should be unprivileged");
            }
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::all() {
            assert!(seen.insert(op.mnemonic()), "dup mnemonic {}", op.mnemonic());
        }
    }

    #[test]
    fn builder_helpers() {
        let i = Instr::pr_relative(Opcode::Lda, 1, 4)
            .with_indirect()
            .with_index(2);
        assert_eq!(i.pr, Some(1));
        assert!(i.indirect);
        assert_eq!(i.mode, AddrMode::Indexed);
        assert_eq!(i.xreg, 2);
        let imm = Instr::direct(Opcode::Lda, 42).immediate();
        assert_eq!(imm.mode, AddrMode::Immediate);
    }
}
