//! Machine-side execution of CALL and RETURN (Figs. 8 and 9).
//!
//! The pure decisions live in `ring_core::callret`; this module applies
//! them: descriptor retrieval, stack-base generation in `PR0`, the
//! `IPR` reload, and — on upward returns — raising every pointer
//! register's ring number to the new ring of execution.

use ring_core::access::{AccessMode, Fault};
use ring_core::addr::{SegAddr, SegNo, WordNo};
use ring_core::callret::{call_stack_segno, check_call, check_return};
use ring_core::registers::{PtrReg, Tpr};

use crate::machine::Machine;

impl Machine {
    /// Performs a CALL whose effective address (and effective ring) is
    /// `tpr`; `iseg` is the segment the CALL instruction came from (for
    /// the same-segment gate exemption).
    pub(crate) fn exec_call(&mut self, tpr: Tpr, iseg: SegNo) -> Result<(), Fault> {
        let sdw = self.sdw_for(tpr.addr, AccessMode::Execute)?;
        let same_segment = tpr.addr.segno == iseg;
        let decision = check_call(&sdw, tpr.addr, tpr.ring, self.ipr.ring, same_segment)?;

        let ring_changed = decision.new_ring != self.ipr.ring;
        let sp = self.prs[self.config.sp_pr as usize];
        let stack_segno = call_stack_segno(
            self.config.stack_rule,
            &self.dbr,
            sp.addr.segno,
            ring_changed,
            decision.new_ring,
        );
        // "CALL generates in PR0 a pointer to word 0 of the stack
        // segment for the new ring of execution."
        self.prs[0] = PtrReg::new(decision.new_ring, SegAddr::new(stack_segno, WordNo::ZERO));

        if decision.downward {
            self.stats.calls_downward += 1;
        } else {
            self.stats.calls_same_ring += 1;
        }
        self.obs.call(
            self.ipr,
            tpr.addr,
            decision.new_ring,
            decision.downward,
            self.cycles,
        );

        self.ipr.ring = decision.new_ring;
        self.ipr.addr = tpr.addr;
        Ok(())
    }

    /// Performs a RETURN whose effective address is `tpr`.
    pub(crate) fn exec_return(&mut self, tpr: Tpr) -> Result<(), Fault> {
        let sdw = self.sdw_for(tpr.addr, AccessMode::Execute)?;
        let decision = check_return(&sdw, tpr.addr, tpr.ring, self.ipr.ring)?;

        if decision.upward {
            // "The ring number fields in all pointer registers are
            // replaced with the larger of their current values and the
            // new ring of execution."
            for pr in self.prs.iter_mut() {
                *pr = pr.with_ring_floor(decision.new_ring);
            }
            self.stats.returns_upward += 1;
        } else {
            self.stats.returns_same_ring += 1;
        }
        self.obs.ret(
            self.ipr,
            tpr.addr,
            decision.new_ring,
            decision.upward,
            self.cycles,
        );

        self.ipr.ring = decision.new_ring;
        self.ipr.addr = tpr.addr;
        Ok(())
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
        self.exec_return(tpr)
    }
}
