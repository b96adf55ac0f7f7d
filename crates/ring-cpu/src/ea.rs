//! Effective-address formation — Fig. 5 of the paper.
//!
//! Produces the TPR contents (effective two-part address plus effective
//! ring) for an instruction's operand. The effective ring starts at the
//! current ring of execution, is raised by the ring number of the base
//! pointer register if one is used, and is raised again at every
//! indirect word by both the indirect word's own ring number and the top
//! of the write bracket of the segment containing it. The capability to
//! *read* each indirect word is validated before it is retrieved, at the
//! effective ring as of that moment.
//!
//! The walk is written once, over a `PairPort` that reads one indirect
//! pair. The reference interpreter and the native accessors read through
//! `Counted`, whose reads are validated, counted and fault; the fast
//! path reads through its probing port, whose reads are pure peeks that
//! bail. Each port is monomorphised, so neither engine pays for the
//! other's.

use ring_core::access::{AccessMode, Fault, Violation};
use ring_core::addr::{SegAddr, SegNo, WordNo, MAX_WORDNO};
use ring_core::effective;
use ring_core::registers::{IndWord, Tpr};
use ring_core::ring::Ring;
use ring_core::sdw::Sdw;
use ring_core::validate;
use ring_core::word::Word;

use crate::isa::{AddrMode, Instr};
use crate::machine::Machine;

/// The most indirect words one effective-address chain may follow; the
/// next one faults.
pub(crate) const INDIRECT_LIMIT: u32 = 16;

/// The result of effective-address formation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EffAddr {
    /// The TPR at the end of the calculation.
    pub tpr: Tpr,
    /// For immediate-mode instructions, the literal operand; the TPR
    /// address is not meaningful for a memory reference in that case.
    pub immediate: Option<Word>,
    /// Indirect words followed.
    pub depth: u32,
}

impl EffAddr {
    /// The Fig. 5 telemetry event: chain depth, and whether folding
    /// raised the effective ring above `ring`, the ring of execution (a
    /// TPR ring-maximisation event). A literal reports none.
    pub(crate) fn event(&self, ring: Ring) -> Option<(u32, bool)> {
        self.immediate
            .is_none()
            .then_some((self.depth, self.tpr.ring.number() > ring.number()))
    }
}

/// What the walk reads indirect words through.
pub(crate) trait PairPort {
    /// Why a walk stops short.
    type Error;
    /// The chain ran past [`INDIRECT_LIMIT`] indirect words.
    const LIMIT: Self::Error;
    /// Reads the indirect pair at `addr` for effective ring `ring`:
    /// its two words and the write-bracket top `R1` of the segment
    /// containing it.
    fn read_pair(
        &mut self,
        m: &mut Machine,
        addr: SegAddr,
        ring: Ring,
    ) -> Result<(Word, Word, Ring), Self::Error>;
}

/// The reference port: one validated pair read — a counted SDW
/// lookup, read validation, the pair's bound check and two counted
/// reads. LDBR and SIO read their two-word operands through it too.
pub(crate) struct Counted {
    /// Install a lookaside entry for each pair, as the instruction
    /// cycle does for indirect words; the native accessors install none.
    pub warm: bool,
}

impl PairPort for Counted {
    type Error = Fault;
    const LIMIT: Fault = Fault::IndirectLimit;

    fn read_pair(
        &mut self,
        m: &mut Machine,
        addr: SegAddr,
        ring: Ring,
    ) -> Result<(Word, Word, Ring), Fault> {
        let sdw = m.sdw_for(addr, AccessMode::Read)?;
        validate::check_read(&sdw, addr, ring)?;
        let second = pair_second(&sdw, addr, ring, AccessMode::Read)?;
        let abs0 = m.tr.resolve(&mut m.phys, &sdw, addr, false)?;
        let abs1 = m.tr.resolve(&mut m.phys, &sdw, second, false)?;
        let (w0, w1) = (m.phys.read(abs0)?, m.phys.read(abs1)?);
        if self.warm {
            m.warm_fast_path(addr, ring, &sdw);
        }
        Ok((w0, w1, sdw.r1))
    }
}

/// The second word of the pair at `first` in the segment `sdw`
/// describes, which must also lie within the segment's bound.
pub(crate) fn pair_second(
    sdw: &Sdw,
    first: SegAddr,
    ring: Ring,
    mode: AccessMode,
) -> Result<SegAddr, Fault> {
    let second = SegAddr::new(first.segno, first.wordno.wrapping_add(1));
    if !sdw.in_bounds(second.wordno) {
        return Err(Fault::AccessViolation {
            mode,
            violation: Violation::OutOfBounds,
            addr: second,
            ring,
        });
    }
    Ok(second)
}

impl Machine {
    /// Forms the effective address for `instr`, whose instruction word
    /// came from segment `iseg`.
    pub(crate) fn form_ea(&mut self, instr: &Instr, iseg: SegNo) -> Result<EffAddr, Fault> {
        let ea = self.walk_ea(&mut Counted { warm: true }, instr, iseg)?;
        if let Some((depth, raised)) = ea.event(self.ipr.ring) {
            self.obs.metrics.ea_formed(depth, raised);
        }
        Ok(ea)
    }

    /// Fig. 5 for `instr` from segment `iseg`, reading indirect words
    /// through `port`.
    pub(crate) fn walk_ea<P: PairPort>(
        &mut self,
        port: &mut P,
        instr: &Instr,
        iseg: SegNo,
    ) -> Result<EffAddr, P::Error> {
        let mut offset = instr.offset;
        match instr.mode {
            AddrMode::Immediate => {
                // The offset is the operand. The TPR still carries the
                // literal in its word-number field (used by the
                // address-only instructions) and the current ring.
                let tpr = Tpr {
                    ring: self.ipr.ring,
                    addr: SegAddr::new(iseg, WordNo::from_bits(u64::from(offset))),
                };
                return Ok(EffAddr {
                    tpr,
                    immediate: Some(Word::new(u64::from(offset))),
                    depth: 0,
                });
            }
            AddrMode::Indexed => {
                offset = (offset + self.x[instr.xreg as usize]) & MAX_WORDNO;
            }
            AddrMode::None => {}
        }

        // Base: PR-relative or instruction-segment-relative.
        let tpr = match instr.pr {
            Some(n) => {
                let pr = self.prs[n as usize];
                Tpr {
                    ring: effective::fold_pr(self.ipr.ring, pr.ring, self.config.ea_rules),
                    addr: SegAddr::new(pr.addr.segno, pr.addr.wordno.wrapping_add(offset)),
                }
            }
            None => Tpr {
                ring: self.ipr.ring,
                addr: SegAddr::new(iseg, WordNo::from_bits(u64::from(offset))),
            },
        };
        self.follow_chain(port, tpr, instr.indirect)
    }

    /// The indirection chain from `tpr`: while `indirect`, reads the
    /// pair at the TPR through `port` and folds its ring and its
    /// segment's write-bracket top into the TPR ring.
    pub(crate) fn follow_chain<P: PairPort>(
        &mut self,
        port: &mut P,
        mut tpr: Tpr,
        mut indirect: bool,
    ) -> Result<EffAddr, P::Error> {
        let mut depth = 0u32;
        while indirect {
            depth += 1;
            if depth > INDIRECT_LIMIT {
                return Err(P::LIMIT);
            }
            let (w0, w1, r1) = port.read_pair(self, tpr.addr, tpr.ring)?;
            let iw = IndWord::unpack(w0, w1);
            tpr = Tpr {
                ring: effective::fold_indirect(tpr.ring, iw.ring, r1, self.config.ea_rules),
                addr: iw.addr,
            };
            indirect = iw.indirect;
        }
        Ok(EffAddr {
            tpr,
            immediate: None,
            depth,
        })
    }
}

impl Machine {
    /// Forms the effective address of `instr` as if it had been fetched
    /// from segment `iseg`, returning the final TPR (effective address
    /// plus effective ring). Public wrapper for experiments and tools;
    /// the instruction cycle uses the internal equivalent.
    pub fn effective_address(&mut self, instr: &Instr, iseg: SegNo) -> Result<Tpr, Fault> {
        self.form_ea(instr, iseg).map(|ea| ea.tpr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Opcode;
    use crate::testkit::{addr, World};
    use ring_core::registers::PtrReg;
    use ring_core::ring::Ring;
    use ring_core::sdw::SdwBuilder;

    /// EA with no base, no indirection: segment of the instruction,
    /// ring of execution.
    #[test]
    fn plain_ea_uses_instruction_segment_and_current_ring() {
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
        );
        w.start(Ring::R4, code, 0);
        let m = &mut w.machine;
        let instr = Instr::direct(Opcode::Lda, 7);
        let ea = m.form_ea(&instr, SegNo::new(10).unwrap()).unwrap();
        assert_eq!(ea.tpr.ring, Ring::R4);
        assert_eq!(ea.tpr.addr, addr(10, 7));
        assert!(ea.immediate.is_none());
    }

    /// PR-relative EA folds the PR ring (Fig. 5 step 2).
    #[test]
    fn pr_relative_ea_folds_pr_ring() {
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R2, Ring::R2, Ring::R2).bound_words(64),
        );
        let data = w.add_segment(11, SdwBuilder::data(Ring::R7, Ring::R7).bound_words(64));
        w.start(Ring::R2, code, 0);
        let m = &mut w.machine;
        m.prs[3] = PtrReg::new(Ring::R6, addr(data.value(), 4));
        let instr = Instr::pr_relative(Opcode::Lda, 3, 2);
        let ea = m.form_ea(&instr, code).unwrap();
        assert_eq!(ea.tpr.ring, Ring::R6, "PR ring dominates current ring 2");
        assert_eq!(ea.tpr.addr, addr(11, 6));
    }

    /// Indexed mode adds the index register, wrapping at 18 bits.
    #[test]
    fn indexed_ea_adds_xreg() {
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
        );
        w.start(Ring::R4, code, 0);
        let m = &mut w.machine;
        m.set_xreg(2, 5);
        let instr = Instr::direct(Opcode::Lda, 10).with_index(2);
        let ea = m.form_ea(&instr, code).unwrap();
        assert_eq!(ea.tpr.addr.wordno.value(), 15);
    }

    /// Immediate mode produces a literal and no memory reference.
    #[test]
    fn immediate_ea_is_literal() {
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
        );
        w.start(Ring::R4, code, 0);
        let m = &mut w.machine;
        let refs = m.phys().ref_count();
        let instr = Instr::direct(Opcode::Lda, 42).immediate();
        let ea = m.form_ea(&instr, code).unwrap();
        assert_eq!(ea.immediate, Some(Word::new(42)));
        assert_eq!(m.phys().ref_count(), refs, "no memory traffic");
    }

    /// One level of indirection folds the indirect word's ring and the
    /// containing segment's write-bracket top (Fig. 5 step 3).
    #[test]
    fn indirection_folds_ind_ring_and_write_bracket() {
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R1).bound_words(64),
        );
        // Indirect word lives in a segment writable up to ring 5.
        let table = w.add_segment(11, SdwBuilder::data(Ring::R5, Ring::R5).bound_words(64));
        let target = w.add_segment(12, SdwBuilder::data(Ring::R7, Ring::R7).bound_words(64));
        w.start(Ring::R1, code, 0);
        w.write_ind_word(
            table,
            8,
            IndWord::new(Ring::R2, addr(target.value(), 3), false),
        );
        let m = &mut w.machine;
        m.prs[1] = PtrReg::new(Ring::R1, addr(table.value(), 8));
        let instr = Instr::pr_relative(Opcode::Lda, 1, 0).with_indirect();
        let ea = m.form_ea(&instr, code).unwrap();
        // max(current=1, pr=1, ind=2, write-bracket top=5) = 5.
        assert_eq!(ea.tpr.ring, Ring::R5);
        assert_eq!(ea.tpr.addr, addr(12, 3));
    }

    /// Chained indirection keeps folding; the running max never drops.
    #[test]
    fn chained_indirection_is_monotone() {
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0).bound_words(64),
        );
        let t1 = w.add_segment(11, SdwBuilder::data(Ring::R3, Ring::R3).bound_words(64));
        // Readable up to ring 5 (so the effective ring of 3 may read
        // it), but writable only through ring 1.
        let t2 = w.add_segment(12, SdwBuilder::data(Ring::R1, Ring::R5).bound_words(64));
        let target = w.add_segment(13, SdwBuilder::data(Ring::R7, Ring::R7).bound_words(64));
        w.start(Ring::R0, code, 0);
        w.write_ind_word(t1, 0, IndWord::new(Ring::R0, addr(t2.value(), 4), true));
        w.write_ind_word(
            t2,
            4,
            IndWord::new(Ring::R0, addr(target.value(), 9), false),
        );
        let m = &mut w.machine;
        m.prs[1] = PtrReg::new(Ring::R0, addr(t1.value(), 0));
        let instr = Instr::pr_relative(Opcode::Lda, 1, 0).with_indirect();
        let ea = m.form_ea(&instr, code).unwrap();
        // Chain passes through a ring-3-writable then ring-1-writable
        // segment: the max is 3 even though the last hop contributes 1.
        assert_eq!(ea.tpr.ring, Ring::R3);
        assert_eq!(ea.tpr.addr, addr(13, 9));
    }

    /// The read of each indirect word is validated *before* retrieval.
    #[test]
    fn indirect_word_read_is_validated() {
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
        );
        // Table readable only up to ring 2; we execute in ring 4.
        let table = w.add_segment(11, SdwBuilder::data(Ring::R2, Ring::R2).bound_words(64));
        w.start(Ring::R4, code, 0);
        let m = &mut w.machine;
        m.prs[1] = PtrReg::new(Ring::R4, addr(table.value(), 0));
        let instr = Instr::pr_relative(Opcode::Lda, 1, 0).with_indirect();
        match m.form_ea(&instr, code) {
            Err(Fault::AccessViolation {
                mode: AccessMode::Read,
                ..
            }) => {}
            other => panic!("expected read violation, got {other:?}"),
        }
    }

    /// An indirection loop hits the chain limit instead of hanging.
    #[test]
    fn indirection_loop_faults_at_limit() {
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
        );
        let table = w.add_segment(11, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(64));
        w.start(Ring::R4, code, 0);
        // Indirect word pointing at itself, indirect flag on.
        w.write_ind_word(
            table,
            0,
            IndWord::new(Ring::R4, addr(table.value(), 0), true),
        );
        let m = &mut w.machine;
        m.prs[1] = PtrReg::new(Ring::R4, addr(table.value(), 0));
        let instr = Instr::pr_relative(Opcode::Lda, 1, 0).with_indirect();
        assert!(matches!(m.form_ea(&instr, code), Err(Fault::IndirectLimit)));
    }

    /// An indirect pair straddling the segment bound faults.
    #[test]
    fn indirect_pair_respects_bounds() {
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
        );
        let table = w.add_segment(11, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
        w.start(Ring::R4, code, 0);
        let m = &mut w.machine;
        // Word 15 is the last in-bounds word; the pair needs 15 and 16.
        m.prs[1] = PtrReg::new(Ring::R4, addr(table.value(), 15));
        let instr = Instr::pr_relative(Opcode::Lda, 1, 0).with_indirect();
        assert!(matches!(
            m.form_ea(&instr, code),
            Err(Fault::AccessViolation {
                violation: Violation::OutOfBounds,
                ..
            })
        ));
    }

    /// Ablation: with the weakened rules the tampered ring is ignored.
    #[test]
    fn ablated_rules_ignore_indirect_provenance() {
        let mut w = World::with_config(crate::machine::MachineConfig {
            ea_rules: ring_core::effective::EffectiveRingRules::NO_IND_TRACKING,
            ..Default::default()
        });
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R1).bound_words(64),
        );
        let table = w.add_segment(11, SdwBuilder::data(Ring::R5, Ring::R5).bound_words(64));
        let target = w.add_segment(12, SdwBuilder::data(Ring::R7, Ring::R7).bound_words(64));
        w.start(Ring::R1, code, 0);
        w.write_ind_word(
            table,
            0,
            IndWord::new(Ring::R6, addr(target.value(), 0), false),
        );
        let m = &mut w.machine;
        m.prs[1] = PtrReg::new(Ring::R1, addr(table.value(), 0));
        let instr = Instr::pr_relative(Opcode::Lda, 1, 0).with_indirect();
        let ea = m.form_ea(&instr, code).unwrap();
        assert_eq!(
            ea.tpr.ring,
            Ring::R1,
            "weakened design keeps the privileged ring — the hole T6 measures"
        );
    }
}
