//! Driving user programs: installing assembled code and data segments
//! and running them, plus generation of common calling sequences.
//!
//! User programs are real machine code assembled by `ring-asm` and
//! executed by the simulated processor through every hardware check;
//! the helpers here only *stage* them (the role a loader plays).

use ring_core::addr::{SegAddr, SegNo, WordNo};
use ring_core::registers::{Ipr, PtrReg};
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;

use crate::boot::System;
use crate::conventions::{frame, segs, PR_AP, PR_RP, PR_SB, PR_SP};

/// Where a staged segment ended up.
#[derive(Clone, Debug)]
pub struct Staged {
    /// Segment number in the process's virtual memory.
    pub segno: u32,
    /// Symbol table of the assembled source (empty for data segments).
    pub symbols: std::collections::HashMap<String, u32>,
}

impl System {
    /// Assembles `source` and installs it as a procedure segment for
    /// process `pid` with execute bracket `[ring, ring]`, gate
    /// extension to `r3`, and `gates` gate words.
    ///
    /// # Panics
    ///
    /// Panics on assembly errors or exhausted memory — test and bench
    /// programs are expected to be valid.
    pub fn install_code(
        &mut self,
        pid: usize,
        ring: Ring,
        r3: Ring,
        gates: u32,
        source: &str,
    ) -> Staged {
        let out = ring_asm::assemble(source).expect("assembly");
        let words = out.len().max(1);
        let base = self.alloc_mut().alloc(words).expect("code storage");
        self.machine
            .phys_mut()
            .poke_slice(base, &out.words)
            .expect("code poke");
        let sdw = SdwBuilder::procedure(ring, ring, r3)
            .gates(gates)
            .addr(base)
            .bound_words(words)
            .build();
        let segno = self.state_mut().processes[pid]
            .alloc_segno()
            .expect("segment number");
        self.install_sdw(pid, segno, &sdw);
        Staged {
            segno,
            symbols: out.symbols,
        }
    }

    /// Installs a data segment for process `pid` with write bracket top
    /// `r1` and read bracket top `r2`, initialised to `data`, sized at
    /// least `min_words`.
    ///
    /// # Panics
    ///
    /// Panics on exhausted memory.
    pub fn install_data(
        &mut self,
        pid: usize,
        r1: Ring,
        r2: Ring,
        data: &[Word],
        min_words: u32,
    ) -> Staged {
        let words = (data.len() as u32).max(min_words).max(1);
        let base = self.alloc_mut().alloc(words).expect("data storage");
        self.machine
            .phys_mut()
            .poke_slice(base, data)
            .expect("data poke");
        let sdw = SdwBuilder::data(r1, r2)
            .addr(base)
            .bound_words(words)
            .build();
        let segno = self.state_mut().processes[pid]
            .alloc_segno()
            .expect("segment number");
        self.install_sdw(pid, segno, &sdw);
        Staged {
            segno,
            symbols: Default::default(),
        }
    }

    /// Installs a *native* procedure segment for process `pid`: an SDW
    /// with execute bracket `[ring, ring]`, gate extension to `r3` and
    /// `gates` gate words, whose body is the Rust closure `handler`
    /// (entered only through the hardware CALL path). Used for
    /// user-ring library code in the benchmarks.
    ///
    /// # Panics
    ///
    /// Panics on exhausted memory.
    pub fn install_native<F>(
        &mut self,
        pid: usize,
        ring: Ring,
        r3: Ring,
        gates: u32,
        handler: F,
    ) -> u32
    where
        F: Fn(
                &mut ring_cpu::machine::Machine,
                ring_core::addr::WordNo,
            ) -> Result<ring_cpu::native::NativeAction, ring_core::access::Fault>
            + Send
            + Sync
            + 'static,
    {
        let base = self.alloc_mut().alloc(16).expect("native segment storage");
        let sdw = SdwBuilder::procedure(ring, ring, r3)
            .gates(gates)
            .addr(base)
            .bound_words(16)
            .build();
        let segno = self.state_mut().processes[pid]
            .alloc_segno()
            .expect("segment number");
        self.install_sdw(pid, segno, &sdw);
        self.machine
            .register_native(SegNo::new(segno).expect("segno"), handler);
        segno
    }

    /// Points the processor at `(segno, entry)` in `ring` for process
    /// `pid`, with the standard register setup: `PR6` (SP) and `PR0`
    /// (SB) at the ring's stack frame base, `PR1`/`PR2` nulled to the
    /// code base.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    pub fn prepare(&mut self, pid: usize, segno: u32, entry: u32, ring: Ring) {
        self.machine.clear_halt();
        self.activate(pid);
        let code = SegAddr::new(
            SegNo::new(segno).expect("segno"),
            WordNo::new(entry).expect("entry"),
        );
        self.machine.set_ipr(Ipr::new(ring, code));
        let stack = segs::STACK_BASE + u32::from(ring.number());
        let sp = PtrReg::new(
            ring,
            SegAddr::from_parts(stack, frame::FIRST_FRAME).expect("stack"),
        );
        let sb = PtrReg::new(ring, SegAddr::from_parts(stack, 0).expect("stack"));
        self.machine.set_pr(PR_SP, sp);
        self.machine.set_pr(PR_SB, sb);
        self.machine.set_pr(PR_AP, PtrReg::new(ring, code));
        self.machine.set_pr(PR_RP, PtrReg::new(ring, code));
    }

    /// Prepares and runs process `pid` from `(segno, entry)` in `ring`
    /// for at most `budget` instructions.
    pub fn run_user(
        &mut self,
        pid: usize,
        segno: u32,
        entry: u32,
        ring: Ring,
        budget: u64,
    ) -> RunExit {
        self.prepare(pid, segno, entry, ring);
        self.machine.run(budget)
    }

    /// Stores `pid`'s current machine state as its schedulable saved
    /// state and puts it on the ready queue (so the round-robin
    /// scheduler can later resume it). Call after [`System::prepare`].
    pub fn park(&mut self, pid: usize) {
        let snap = ring_cpu::trap::SavedState {
            ipr: self.machine.ipr(),
            prs: core::array::from_fn(|i| self.machine.pr(i)),
            a: self.machine.a(),
            q: self.machine.q(),
            x: core::array::from_fn(|i| self.machine.xreg(i)),
            ind_zero: true,
            ind_neg: false,
        };
        let st = self.state_mut();
        st.processes[pid].saved = Some(snap);
        st.sched.make_ready(pid);
    }
}

/// Generates the assembly for a sequence of gate calls.
///
/// Each call in `calls` names a gate target `(segno, entry)` and a list
/// of argument addresses `(segno, wordno)`; the generated program sets
/// up the argument list (indirect-word pairs assembled into the code
/// segment), loads `PR1`/`PR2`/`PR3` with EAP, performs the CALL, and
/// finally exits with the derail convention. The caller ring is `ring`
/// (used in the assembled ITS ring fields; the hardware will fold it
/// with the executing ring anyway).
pub fn gen_call_sequence(ring: Ring, calls: &[(SegAddr, Vec<SegAddr>)]) -> String {
    let r = ring.number();
    let mut text = String::new();
    let mut data = String::new();
    for (i, (gate, args)) in calls.iter().enumerate() {
        text.push_str(&format!(
            "        eap pr1, args{i}\n        eap pr2, ret{i}\n        eap pr3, gate{i},*\n        call pr3|0\nret{i}:  nop\n"
        ));
        data.push_str(&format!(
            "gate{i}: its {r}, {}, {}\n",
            gate.segno.value(),
            gate.wordno.value()
        ));
        data.push_str(&format!("args{i}:\n"));
        for a in args {
            data.push_str(&format!(
                "        its {r}, {}, {}\n",
                a.segno.value(),
                a.wordno.value()
            ));
        }
        if args.is_empty() {
            data.push_str("        dw 0, 0\n");
        }
    }
    text.push_str(&format!("        drl 0o{:o}\n", crate::traps::EXIT_CODE));
    text.push_str(&data);
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventions::gate_addr;

    #[test]
    fn generated_sequence_assembles() {
        let seq = gen_call_sequence(
            Ring::R4,
            &[
                (
                    gate_addr(segs::HCS, 0),
                    vec![
                        SegAddr::from_parts(65, 0).unwrap(),
                        SegAddr::from_parts(65, 100).unwrap(),
                    ],
                ),
                (gate_addr(segs::RING1, 1), vec![]),
            ],
        );
        let out = ring_asm::assemble(&seq).expect("generated source assembles");
        assert!(out.symbol("gate0").is_some());
        assert!(out.symbol("args1").is_some());
        assert!(out.len() > 10);
    }
}
