//! Machine-side execution of CALL and RETURN (Figs. 8 and 9).
//!
//! The pure decisions live in `ring_core::callret`; this module applies
//! them: descriptor retrieval, stack-base generation in `PR0`, the
//! `IPR` reload, and — on upward returns — raising every pointer
//! register's ring number to the new ring of execution.
//!
//! Each crossing is a descriptor lookup, one check
//! (`Machine::check_call_return`) and one apply step
//! (`Machine::apply_call_return`). Both engines share the check and
//! the apply step; they differ only in the lookup. The reference path
//! makes the counted `Machine::sdw_for` lookup, while the fast path
//! peeks at the descriptor resident in the associative memory.

use ring_core::access::{AccessMode, Fault};
use ring_core::addr::{SegAddr, SegNo, WordNo};
use ring_core::callret::{
    call_stack_segno, check_call, check_return, CallDecision, ReturnDecision,
};
use ring_core::registers::{PtrReg, Tpr};
use ring_core::sdw::Sdw;

use crate::isa::OperandUse;
use crate::machine::Machine;

/// The pointer register that holds the stack pointer by software
/// convention (Multics used PR6): a CALL that stays in its ring keeps
/// the stack segment it names.
pub const SP_PR: usize = 6;

/// A CALL or RETURN that passed its Fig. 8 or Fig. 9 check.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CallReturn {
    Call(CallDecision),
    Return(ReturnDecision),
}

impl Machine {
    /// Performs the CALL or RETURN (`use_class`) whose effective
    /// address (and effective ring) is `tpr`; `iseg` is the segment the
    /// instruction came from.
    pub(crate) fn exec_call_return(
        &mut self,
        use_class: OperandUse,
        tpr: Tpr,
        iseg: SegNo,
    ) -> Result<(), Fault> {
        let sdw = self.sdw_for(tpr.addr, AccessMode::Execute)?;
        let decision = self.check_call_return(use_class, &sdw, tpr, iseg)?;
        self.apply_call_return(tpr.addr, decision);
        Ok(())
    }

    /// Figs. 8–9: checks a CALL (`use_class` is [`OperandUse::Call`])
    /// or RETURN to `tpr` from the current ring, given the target
    /// segment's descriptor `sdw`. `iseg` is the segment the
    /// instruction came from; a CALL within it is exempt from the gate
    /// list. Pure: a refusal is the fault to raise, and nothing moved.
    pub(crate) fn check_call_return(
        &self,
        use_class: OperandUse,
        sdw: &Sdw,
        tpr: Tpr,
        iseg: SegNo,
    ) -> Result<CallReturn, Fault> {
        if use_class == OperandUse::Call {
            let same_segment = tpr.addr.segno == iseg;
            check_call(sdw, tpr.addr, tpr.ring, self.ipr.ring, same_segment).map(CallReturn::Call)
        } else {
            check_return(sdw, tpr.addr, tpr.ring, self.ipr.ring).map(CallReturn::Return)
        }
    }

    /// Applies a checked CALL or RETURN to `target`: the `PR0` stack
    /// base for a CALL, the pointer-register ring floor for an upward
    /// RETURN, the crossing counters, the one observer report and the
    /// `IPR` reload.
    pub(crate) fn apply_call_return(&mut self, target: SegAddr, decision: CallReturn) {
        match decision {
            CallReturn::Call(d) => {
                let ring_changed = d.new_ring != self.ipr.ring;
                let sp = self.prs[SP_PR];
                let stack_segno = call_stack_segno(
                    self.config.stack_rule,
                    &self.dbr,
                    sp.addr.segno,
                    ring_changed,
                    d.new_ring,
                );
                // "CALL generates in PR0 a pointer to word 0 of the stack
                // segment for the new ring of execution."
                self.prs[0] = PtrReg::new(d.new_ring, SegAddr::new(stack_segno, WordNo::ZERO));
                if d.downward {
                    self.stats.calls_downward += 1;
                } else {
                    self.stats.calls_same_ring += 1;
                }
                self.obs
                    .call(self.ipr, target, d.new_ring, d.downward, self.cycles);
                self.ipr.ring = d.new_ring;
            }
            CallReturn::Return(d) => {
                if d.upward {
                    // "The ring number fields in all pointer registers are
                    // replaced with the larger of their current values and
                    // the new ring of execution."
                    for pr in self.prs.iter_mut() {
                        *pr = pr.with_ring_floor(d.new_ring);
                    }
                    self.stats.returns_upward += 1;
                } else {
                    self.stats.returns_same_ring += 1;
                }
                self.obs
                    .ret(self.ipr, target, d.new_ring, d.upward, self.cycles);
                self.ipr.ring = d.new_ring;
            }
        }
        self.ipr.addr = target;
    }

    /// Performs a RETURN through pointer `via` — the path a native
    /// procedure takes to return to its caller. Equivalent to executing
    /// `RETURN via|0` (no indirection): the effective ring is
    /// `max(IPR.RING, via.RING)`.
    pub(crate) fn exec_return_via(&mut self, via: PtrReg) -> Result<(), Fault> {
        let tpr = Tpr {
            ring: self.ipr.ring.least_privileged(via.ring),
            addr: via.addr,
        };
        self.exec_call_return(OperandUse::Return, tpr, via.addr.segno)
    }
}
