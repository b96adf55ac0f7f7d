//! Instruction performance: operand access validation (Figs. 6 and 7)
//! and the ALU/transfer semantics.

use ring_core::access::{AccessMode, Fault};
use ring_core::addr::{SegAddr, SegNo};
use ring_core::registers::{Dbr, IndWord, PtrReg};
use ring_core::ring::Ring;
use ring_core::validate;
use ring_core::word::Word;

use crate::ea::{pair_second, Counted, EffAddr, PairPort};
use crate::isa::{Instr, Opcode, OperandUse};
use crate::machine::Machine;

/// Cycles LDBR takes beyond its counted operand reads. The flush of the
/// SDW associative memory costs nothing here; it shows up as the misses
/// that follow.
pub(crate) const DBR_LOAD_CYCLES: u64 = 5;

impl Machine {
    /// Performs `instr`, fetched from segment `iseg` whose descriptor
    /// (already retrieved for the fetch validation) is `isdw`.
    pub(crate) fn exec_instr(
        &mut self,
        instr: Instr,
        iseg: SegNo,
        isdw: &ring_core::sdw::Sdw,
    ) -> Result<(), Fault> {
        // Privileged instructions execute only in ring 0 (and, under
        // the optional hardening, only from privileged segments). The
        // fetch already fetched this segment's SDW, so the hardening
        // check reuses it instead of a second associative-memory
        // lookup.
        if instr.opcode.privileged() {
            if self.ipr.ring != Ring::R0 {
                return Err(Fault::PrivilegedViolation {
                    ring: self.ipr.ring,
                });
            }
            if self.config.require_privileged_segments && !isdw.privileged {
                return Err(Fault::PrivilegedViolation {
                    ring: self.ipr.ring,
                });
            }
        }

        // The privileged read-class instructions have two-word operands
        // and machine-level side effects; handle them apart.
        if matches!(instr.opcode, Opcode::Ldbr | Opcode::Sio | Opcode::Ldt) {
            return self.exec_privileged_read(instr, iseg);
        }

        match instr.opcode.operand_use() {
            OperandUse::None => self.exec_no_operand(instr),
            OperandUse::Read => {
                let ea = self.form_ea(&instr, iseg)?;
                let value = self.operand_read(&ea)?;
                self.exec_read_op(instr, value)
            }
            OperandUse::Write => {
                let ea = self.form_ea(&instr, iseg)?;
                let value = self.write_value(instr);
                self.operand_write(&ea, value)
            }
            OperandUse::ReadWrite => {
                // AOS: both the read and the write capability are
                // required at the effective ring.
                let ea = self.form_ea(&instr, iseg)?;
                let (sdw, addr, ring) = self.memory_ea(&ea, AccessMode::Write)?;
                validate::check_read(&sdw, addr, ring)?;
                validate::check_write(&sdw, addr, ring)?;
                let abs = self.tr.resolve(&mut self.phys, &sdw, addr, true)?;
                let v = self.phys.read(abs)?.wrapping_add(Word::new(1));
                self.phys.write(abs, v)?;
                self.set_indicators(v);
                self.warm_fast_path(addr, ring, &sdw);
                Ok(())
            }
            OperandUse::Pointer => {
                // EAP: no operand reference, no validation; the only way
                // to load a pointer register. Immediate mode is
                // meaningless here.
                let ea = self.form_ea(&instr, iseg)?;
                if ea.immediate.is_some() {
                    return Err(Fault::IllegalModifier);
                }
                self.prs[instr.xreg as usize] = PtrReg::new(ea.tpr.ring, ea.tpr.addr);
                Ok(())
            }
            OperandUse::WritePair => {
                let ea = self.form_ea(&instr, iseg)?;
                let (sdw, addr, ring) = self.memory_ea(&ea, AccessMode::Write)?;
                self.write_pair(&sdw, addr, ring, self.prs[instr.xreg as usize])
            }
            OperandUse::Transfer => {
                let ea = self.form_ea(&instr, iseg)?;
                if ea.immediate.is_some() {
                    return Err(Fault::IllegalModifier);
                }
                if self.transfer_taken(instr.opcode) {
                    let (sdw, addr, ring) = self.memory_ea(&ea, AccessMode::Execute)?;
                    validate::check_transfer(&sdw, addr, ring)?;
                    // Ordinary transfers cannot change the ring.
                    self.ipr.addr = addr;
                }
                Ok(())
            }
            use_class @ (OperandUse::Call | OperandUse::Return) => {
                let ea = self.form_ea(&instr, iseg)?;
                if ea.immediate.is_some() {
                    return Err(Fault::IllegalModifier);
                }
                self.exec_call_return(use_class, ea.tpr, iseg)
            }
            OperandUse::AddressOnly => {
                let ea = self.form_ea(&instr, iseg)?;
                let count = u64::from(ea.tpr.addr.wordno.value());
                self.exec_address_only(instr, count);
                Ok(())
            }
        }
    }

    /// The address-only group (EAA, ALS, ARS): operates on the
    /// effective word number, no memory reference. Shared with the
    /// fast path.
    pub(crate) fn exec_address_only(&mut self, instr: Instr, count: u64) {
        match instr.opcode {
            Opcode::Eaa => {
                let v = Word::new(count);
                self.a = v;
                self.set_indicators(v);
            }
            Opcode::Als => {
                let v = Word::new(self.a.raw() << (count & 63));
                self.a = v;
                self.set_indicators(v);
            }
            Opcode::Ars => {
                let v = Word::new(self.a.raw() >> (count & 63));
                self.a = v;
                self.set_indicators(v);
            }
            _ => unreachable!("address-only group"),
        }
    }

    /// Resolves the effective address of a memory operand to its SDW
    /// and validation ring, counting a `heat` reference to its segment.
    /// A literal is no memory operand.
    fn memory_ea(
        &mut self,
        ea: &EffAddr,
        heat: AccessMode,
    ) -> Result<(ring_core::sdw::Sdw, SegAddr, Ring), Fault> {
        if ea.immediate.is_some() {
            return Err(Fault::IllegalModifier);
        }
        // A missing segment faults as a read, whatever the class.
        let sdw = self.sdw_for_as(ea.tpr.addr, AccessMode::Read, heat)?;
        Ok((sdw, ea.tpr.addr, ea.tpr.ring))
    }

    /// Reads the operand for a Read-class instruction (Fig. 6, read).
    fn operand_read(&mut self, ea: &EffAddr) -> Result<Word, Fault> {
        if let Some(lit) = ea.immediate {
            return Ok(lit);
        }
        let (sdw, addr, ring) = self.memory_ea(ea, AccessMode::Read)?;
        validate::check_read(&sdw, addr, ring)?;
        let abs = self.tr.resolve(&mut self.phys, &sdw, addr, false)?;
        let v = self.phys.read(abs)?;
        self.warm_fast_path(addr, ring, &sdw);
        Ok(v)
    }

    /// Writes the operand for a Write-class instruction (Fig. 6, write).
    fn operand_write(&mut self, ea: &EffAddr, value: Word) -> Result<(), Fault> {
        let (sdw, addr, ring) = self.memory_ea(ea, AccessMode::Write)?;
        validate::check_write(&sdw, addr, ring)?;
        let abs = self.tr.resolve(&mut self.phys, &sdw, addr, true)?;
        self.phys.write(abs, value)?;
        self.warm_fast_path(addr, ring, &sdw);
        Ok(())
    }

    /// Stores `ptr` as an indirect-word pair at `addr` in the segment
    /// `sdw` describes, with write validation at `ring` — what SPRI
    /// does.
    pub(crate) fn write_pair(
        &mut self,
        sdw: &ring_core::sdw::Sdw,
        addr: SegAddr,
        ring: Ring,
        ptr: PtrReg,
    ) -> Result<(), Fault> {
        validate::check_write(sdw, addr, ring)?;
        let second = pair_second(sdw, addr, ring, AccessMode::Write)?;
        let (w0, w1) = IndWord::from_ptr(ptr).pack();
        let abs0 = self.tr.resolve(&mut self.phys, sdw, addr, true)?;
        let abs1 = self.tr.resolve(&mut self.phys, sdw, second, true)?;
        self.phys.write(abs0, w0)?;
        self.phys.write(abs1, w1)
    }

    /// After a successful reference-path operand reference to `addr`
    /// from `ring` through `sdw`, installs the lookaside entry that
    /// lets the next reference to that page commit on the fast path.
    pub(crate) fn warm_fast_path(&mut self, addr: SegAddr, ring: Ring, sdw: &ring_core::sdw::Sdw) {
        if self.config.fastpath {
            let slow_fetch = self.natives.is_native(addr.segno);
            self.tr
                .fast_install(&self.phys, addr, ring, sdw, slow_fetch);
        }
    }

    pub(crate) fn write_value(&self, instr: Instr) -> Word {
        match instr.opcode {
            Opcode::Sta => self.a,
            Opcode::Stq => self.q,
            Opcode::Stx => Word::new(u64::from(self.x[instr.xreg as usize])),
            Opcode::Stz => Word::ZERO,
            _ => unreachable!("write group"),
        }
    }

    pub(crate) fn transfer_taken(&self, op: Opcode) -> bool {
        match op {
            Opcode::Tra => true,
            Opcode::Tze => self.ind_zero,
            Opcode::Tnz => !self.ind_zero,
            Opcode::Tmi => self.ind_neg,
            Opcode::Tpl => !self.ind_neg,
            _ => unreachable!("transfer group"),
        }
    }

    pub(crate) fn exec_read_op(&mut self, instr: Instr, operand: Word) -> Result<(), Fault> {
        match instr.opcode {
            Opcode::Lda => {
                self.a = operand;
                self.set_indicators(operand);
            }
            Opcode::Ldq => {
                self.q = operand;
            }
            Opcode::Ldx => {
                self.x[instr.xreg as usize] = (operand.raw() as u32) & ring_core::addr::MAX_WORDNO;
            }
            Opcode::Ada => {
                let v = self.a.wrapping_add(operand);
                self.a = v;
                self.set_indicators(v);
            }
            Opcode::Sba => {
                let v = self.a.wrapping_sub(operand);
                self.a = v;
                self.set_indicators(v);
            }
            Opcode::Mpy => {
                let v = self.a.wrapping_mul(operand);
                self.a = v;
                self.set_indicators(v);
            }
            Opcode::Ana => {
                let v = Word::new(self.a.raw() & operand.raw());
                self.a = v;
                self.set_indicators(v);
            }
            Opcode::Ora => {
                let v = Word::new(self.a.raw() | operand.raw());
                self.a = v;
                self.set_indicators(v);
            }
            Opcode::Era => {
                let v = Word::new(self.a.raw() ^ operand.raw());
                self.a = v;
                self.set_indicators(v);
            }
            Opcode::Cmpa => {
                let v = self.a.wrapping_sub(operand);
                self.set_indicators(v);
            }
            Opcode::Adq => {
                self.q = self.q.wrapping_add(operand);
            }
            Opcode::Sbq => {
                self.q = self.q.wrapping_sub(operand);
            }
            _ => unreachable!("read group"),
        }
        Ok(())
    }

    pub(crate) fn exec_no_operand(&mut self, instr: Instr) -> Result<(), Fault> {
        match instr.opcode {
            Opcode::Nop => Ok(()),
            Opcode::Neg => {
                let v = Word::from_signed(-self.a.as_signed());
                self.a = v;
                self.set_indicators(v);
                Ok(())
            }
            Opcode::Drl => Err(Fault::Derail { code: instr.offset }),
            Opcode::Rett => self.exec_rett(),
            Opcode::Halt => {
                self.halted = true;
                Ok(())
            }
            _ => unreachable!("no-operand group"),
        }
    }
}

/// The privileged read-class instructions (LDBR, SIO, LDT) need special
/// operand handling (two-word reads, side effects); they are intercepted
/// before the generic read path.
impl Machine {
    pub(crate) fn exec_privileged_read(&mut self, instr: Instr, iseg: SegNo) -> Result<(), Fault> {
        let ea = self.form_ea(&instr, iseg)?;
        if instr.opcode == Opcode::Ldt {
            self.timer = Some(self.operand_read(&ea)?.raw());
            return Ok(());
        }
        // LDBR and SIO take a two-word operand, which a literal is not.
        if ea.immediate.is_some() {
            return Err(Fault::IllegalModifier);
        }
        let (w0, w1, _) = Counted { warm: false }.read_pair(self, ea.tpr.addr, ea.tpr.ring)?;
        match instr.opcode {
            Opcode::Ldbr => {
                self.dbr = Dbr::unpack(w0, w1);
                self.tr.flush_cache();
                self.charge(DBR_LOAD_CYCLES);
                Ok(())
            }
            Opcode::Sio => {
                let now = self.cycles;
                self.io.start(w0, w1, now)
            }
            _ => unreachable!("privileged read group"),
        }
    }
}
