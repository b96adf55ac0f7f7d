//! Software-implemented rings, as on the Honeywell 645.
//!
//! "Because the Honeywell 645 was designed around the usual
//! supervisor/user protection method, the version of Multics for this
//! machine implements rings by trapping to a supervisor procedure when
//! downward calls and upward returns are performed."
//!
//! The scheme modelled here is the Graham–Daley software implementation
//! the paper describes: **one descriptor segment per ring**. An SDW in
//! ring r's descriptor segment describes what ring r may do — there are
//! no brackets spanning rings, so a cross-ring transfer is simply an
//! access violation in the current descriptor segment. A software
//! *gatekeeper* fields that violation: it looks the target up in its
//! gate table, validates the argument list in software (the hardware
//! cannot), switches the DBR to the target ring's descriptor segment
//! (flushing the SDW associative memory), and resumes in the callee.
//! The subsequent upward return faults symmetrically and is switched
//! back.
//!
//! Every cost the paper's hardware removes is present: two traps per
//! call/return pair, per-argument software validation, two DBR loads,
//! and two associative-memory flushes.

use ring_core::access::{vector, Fault};
use ring_core::addr::{AbsAddr, SegAddr, SegNo, WordNo};
use ring_core::registers::{Dbr, Ipr, PtrReg};
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;
use ring_cpu::machine::{Machine, MachineConfig, RunExit};
use ring_cpu::native::NativeAction;
use ring_segmem::layout::PhysAllocator;

/// Software gatekeeper cycle costs (the work a 645 supervisor did on
/// every crossing).
pub mod cost {
    /// Gate-table lookup and legality checks.
    pub const GATE_VALIDATE: u64 = 20;
    /// Per-argument software validation (read the indirect pair, check
    /// the caller's access to the target).
    pub const PER_ARG: u64 = 6;
    /// DBR switch bookkeeping (beyond the counted memory traffic and
    /// the associative-memory flush it causes).
    pub const DBR_SWITCH: u64 = 8;
    /// Return-path bookkeeping.
    pub const RETURN_VALIDATE: u64 = 12;
}

/// Gatekeeper statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SoftStats {
    /// Downward crossings mediated.
    pub crossings: u64,
    /// Upward returns mediated.
    pub returns: u64,
    /// Arguments validated in software.
    pub args_validated: u64,
    /// Violations that matched neither a gate nor a pending return.
    pub refused: u64,
}

/// The gatekeeper's state (the machine's native-state value).
#[derive(Clone)]
struct GateTable {
    /// Registered software gates: (location, target ring).
    gates: Vec<(SegAddr, Ring)>,
    /// Pending returns: (continuation, caller ring) — a push-down
    /// stack.
    pending: Vec<(SegAddr, Ring)>,
    stats: SoftStats,
}

/// Standard segment numbers of the fixture.
pub mod segs {
    /// Trap segment (present in every ring's descriptor).
    pub const TRAP: u32 = ring_cpu::trap::TRAP_SEGNO.value();
    /// User (ring 4) code segment.
    pub const USER_CODE: u32 = 10;
    /// User data segment.
    pub const USER_DATA: u32 = 11;
    /// The protected (ring 1) service segment.
    pub const SERVICE: u32 = 20;
    /// Stack base (`+ ring`).
    pub const STACK_BASE: u32 = 48;
    /// Descriptor slots per ring.
    pub const SLOTS: u32 = 64;
}

/// A machine running the 645-style software-ring scheme, set up for the
/// crossing benchmark: ring-4 user code calling a ring-1 service with
/// `n_args` arguments.
pub struct Soft645 {
    /// The machine.
    pub machine: Machine,
    desc: [AbsAddr; 8],
    user_entry: u32,
}

fn poke_sdw(m: &mut Machine, desc: AbsAddr, segno: u32, sdw: &ring_core::sdw::Sdw) {
    let base = desc.wrapping_add(2 * segno);
    let (w0, w1) = sdw.pack();
    m.phys_mut().poke(base, w0).expect("descriptor poke");
    m.phys_mut()
        .poke(base.wrapping_add(1), w1)
        .expect("descriptor poke");
}

impl Soft645 {
    /// Builds the fixture. The service body reads its `n_args`
    /// arguments (with *software*-supplied full privilege, as a 645
    /// supervisor did after gatekeeper validation), sums them, and
    /// stores the sum at `USER_DATA[63]`.
    pub fn new(n_args: u32) -> Soft645 {
        let mut machine = Machine::new(512 * 1024, MachineConfig::default());
        let mut alloc = PhysAllocator::new(0o100, 512 * 1024);

        // Storage shared by all rings' descriptors.
        let trap_store = alloc.alloc(256).expect("trap storage");
        let code_store = alloc.alloc(256).expect("code storage");
        let data_store = alloc.alloc(128).expect("data storage");
        let service_store = alloc.alloc(16).expect("service storage");
        let stack_store: Vec<AbsAddr> = (0..8).map(|_| alloc.alloc(256).expect("stack")).collect();

        // Per-ring descriptor segments: flags-only views. Brackets are
        // pinned to [r, r] so the one ring the descriptor serves sees
        // exactly its flags.
        let mut desc = [AbsAddr::ZERO; 8];
        for r in Ring::all() {
            let d = alloc.alloc(2 * segs::SLOTS).expect("descriptor");
            desc[r.number() as usize] = d;
            // Trap segment: ring-0 only, present everywhere (the trap
            // forces ring 0; its fetch is validated in the *current*
            // descriptor segment).
            poke_sdw(
                &mut machine,
                d,
                segs::TRAP,
                &SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0)
                    .write(true)
                    .addr(trap_store)
                    .bound_words(256)
                    .build(),
            );
            // User code: executable only in ring 4's view; readable in
            // ring 1's view (the supervisor reads argument lists).
            let user_code = if r == Ring::R4 {
                SdwBuilder::procedure(r, r, r)
            } else {
                SdwBuilder::new().rings(r, r, r).read(true)
            };
            poke_sdw(
                &mut machine,
                d,
                segs::USER_CODE,
                &user_code.addr(code_store).bound_words(256).build(),
            );
            // User data: read/write in both the user view and the
            // supervisor view.
            poke_sdw(
                &mut machine,
                d,
                segs::USER_DATA,
                &SdwBuilder::data(r, r)
                    .addr(data_store)
                    .bound_words(128)
                    .build(),
            );
            // The service segment: executable only in ring 1's view;
            // present-but-not-executable in ring 4's view, so the CALL
            // faults there (the crossing trap).
            let service = if r == Ring::R1 {
                SdwBuilder::procedure(r, r, r)
            } else {
                SdwBuilder::new().rings(r, r, r).read(true)
            };
            poke_sdw(
                &mut machine,
                d,
                segs::SERVICE,
                &service.addr(service_store).bound_words(16).build(),
            );
            // Stacks.
            for s in Ring::all() {
                poke_sdw(
                    &mut machine,
                    d,
                    segs::STACK_BASE + u32::from(s.number()),
                    &SdwBuilder::data(r, r)
                        .addr(stack_store[s.number() as usize])
                        .bound_words(256)
                        .build(),
                );
            }
        }

        machine.set_native_state(GateTable {
            gates: vec![(
                SegAddr::from_parts(segs::SERVICE, 0).expect("gate"),
                Ring::R1,
            )],
            pending: Vec::new(),
            stats: SoftStats::default(),
        });

        // The gatekeeper: a native ring-0 trap handler.
        machine.register_native(SegNo::new(segs::TRAP).expect("segno"), move |m, entry| {
            m.with_native_state(|m, t: &mut GateTable| gatekeeper(m, t, &desc, entry.value()))
                .expect("gate table is installed with the gatekeeper")
        });

        // The service body: native in the SERVICE segment. Reads the
        // arguments with supervisor privilege (ring-1 view), sums them,
        // stores the sum, then attempts the hardware RETURN — which
        // faults in the ring-1 view and is mediated back.
        machine.register_native(SegNo::new(segs::SERVICE).expect("segno"), move |m, _| {
            let ap = m.pr(1);
            let n = m.xreg(7);
            let mut sum = Word::ZERO;
            for i in 0..n {
                // Read the indirect pair with ring-1 privilege (the
                // gatekeeper already validated it in software).
                let w0 = m.read_validated(PtrReg::new(
                    Ring::R1,
                    SegAddr::new(ap.addr.segno, ap.addr.wordno.wrapping_add(2 * i)),
                ))?;
                let (_, addr) = ring_core::addr::unpack_pointer(w0);
                let v = m.read_validated(PtrReg::new(Ring::R1, addr))?;
                sum = sum.wrapping_add(v);
            }
            m.write_validated(
                PtrReg::new(
                    Ring::R1,
                    SegAddr::from_parts(segs::USER_DATA, 63).expect("result"),
                ),
                sum,
            )?;
            Ok(NativeAction::Return { via: m.pr(2) })
        });

        // User program: set up AP/RP, CALL the service, exit.
        let mut asm = String::from(
            "
        eap pr1, args
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0
ret0:   drl 0o777
gatep:  its 4, 20, 0
args:
",
        );
        for i in 0..n_args.max(1) {
            asm.push_str(&format!("        its 4, {}, {}\n", segs::USER_DATA, i));
        }
        let out = ring_asm::assemble(&asm).expect("user program");
        machine
            .phys_mut()
            .poke_slice(code_store, &out.words)
            .expect("code poke");
        // Argument values.
        for i in 0..n_args.max(1) {
            machine
                .phys_mut()
                .poke(data_store.wrapping_add(i), Word::new(u64::from(10 + i)))
                .expect("data poke");
        }

        let mut fixture = Soft645 {
            machine,
            desc,
            user_entry: 0,
        };
        fixture.reset(n_args);
        fixture
    }

    /// Resets the processor to the start of the user program (ring 4,
    /// ring-4 descriptor segment), with X7 = `n_args`.
    pub fn reset(&mut self, n_args: u32) {
        self.machine.clear_halt();
        self.machine.load_dbr(Dbr::new(
            self.desc[4],
            segs::SLOTS,
            SegNo::new(segs::STACK_BASE).expect("segno"),
        ));
        self.machine.set_ipr(Ipr::new(
            Ring::R4,
            SegAddr::new(
                SegNo::new(segs::USER_CODE).expect("segno"),
                WordNo::new(self.user_entry).expect("entry"),
            ),
        ));
        for n in 0..8 {
            self.machine.set_pr(
                n,
                PtrReg::new(
                    Ring::R4,
                    SegAddr::from_parts(segs::USER_CODE, 0).expect("addr"),
                ),
            );
        }
        self.machine.set_xreg(7, n_args);
    }

    /// Runs one complete call/return round trip, returning the cycles
    /// it consumed.
    ///
    /// # Panics
    ///
    /// Panics if the run does not halt cleanly.
    pub fn run_once(&mut self, n_args: u32) -> u64 {
        self.reset(n_args);
        let before = self.machine.cycles();
        let exit = self.machine.run(10_000);
        assert_eq!(exit, RunExit::Halted, "soft645 round trip must halt");
        self.machine.cycles() - before
    }

    /// The result word the service stored.
    pub fn result(&self) -> Word {
        let d = self.desc[4].wrapping_add(2 * segs::USER_DATA);
        let w0 = self.machine.phys().peek(d).expect("sdw");
        let w1 = self.machine.phys().peek(d.wrapping_add(1)).expect("sdw");
        let base = ring_core::sdw::Sdw::unpack(w0, w1).addr;
        self.machine
            .phys()
            .peek(base.wrapping_add(63))
            .expect("result")
    }

    /// Gatekeeper statistics.
    pub fn stats(&self) -> SoftStats {
        self.machine
            .native_state::<GateTable>()
            .expect("gate table is installed at build")
            .stats
    }
}

/// The software gatekeeper: fields the access violation a cross-ring
/// transfer raises in the current ring's descriptor segment, and either
/// performs the validated downward crossing or completes a pending
/// upward return.
fn gatekeeper(
    m: &mut Machine,
    t: &mut GateTable,
    desc: &[AbsAddr; 8],
    v: u32,
) -> Result<NativeAction, Fault> {
    if v == vector::DERAIL || v != vector::ACCESS_VIOLATION {
        return Ok(NativeAction::Halt);
    }
    let (_, _, target, _) = m.fault_info()?;
    // Downward crossing?
    if let Some(&(_, tring)) = t.gates.iter().find(|(g, _)| *g == target) {
        t.stats.crossings += 1;
        m.charge(cost::GATE_VALIDATE);
        let mut state = m.saved_state()?;
        // Software argument validation: read each indirect pair through
        // the caller's view and check the named word is accessible to
        // the caller. The fixture convention puts the argument count in
        // the caller's X7.
        let ap = state.prs[1];
        let nargs = state.x[7];
        for i in 0..nargs {
            let slot = PtrReg::new(
                state.ipr.ring,
                SegAddr::new(ap.addr.segno, ap.addr.wordno.wrapping_add(2 * i)),
            );
            let argp = m.read_pointer_validated(slot)?;
            let _ = m.read_validated(argp)?;
            m.charge(cost::PER_ARG);
            t.stats.args_validated += 1;
        }
        // Record the pending return and switch worlds.
        t.pending.push((state.prs[2].addr, state.ipr.ring));
        m.charge(cost::DBR_SWITCH);
        m.load_dbr(Dbr::new(
            desc[tring.number() as usize],
            segs::SLOTS,
            SegNo::new(segs::STACK_BASE).expect("segno"),
        ));
        state.ipr = Ipr::new(tring, target);
        m.set_saved_state(&state)?;
        return Ok(NativeAction::Resume);
    }
    // Upward return?
    if let Some(pos) = t.pending.iter().rposition(|(cont, _)| *cont == target) {
        let (cont, cring) = t.pending.remove(pos);
        t.stats.returns += 1;
        m.charge(cost::RETURN_VALIDATE + cost::DBR_SWITCH);
        m.load_dbr(Dbr::new(
            desc[cring.number() as usize],
            segs::SLOTS,
            SegNo::new(segs::STACK_BASE).expect("segno"),
        ));
        let mut state = m.saved_state()?;
        state.ipr = Ipr::new(cring, cont);
        m.set_saved_state(&state)?;
        return Ok(NativeAction::Resume);
    }
    t.stats.refused += 1;
    Ok(NativeAction::Halt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_is_mediated_twice_and_computes() {
        let mut f = Soft645::new(3);
        let cycles = f.run_once(3);
        assert!(cycles > 0);
        let st = f.stats();
        // run_once after new(): new() only resets, so exactly one round
        // trip has happened.
        assert_eq!(st.crossings, 1, "one downward crossing");
        assert_eq!(st.returns, 1, "one upward return");
        assert_eq!(st.args_validated, 3);
        assert_eq!(st.refused, 0);
        assert_eq!(f.result().raw(), 10 + 11 + 12);
    }

    #[test]
    fn cost_grows_with_argument_count() {
        let c1 = Soft645::new(1).run_once(1);
        let c8 = Soft645::new(8).run_once(8);
        assert!(
            c8 > c1 + 7 * cost::PER_ARG,
            "software validation cost is per-argument: {c1} vs {c8}"
        );
    }

    #[test]
    fn repeated_runs_are_stable() {
        let mut f = Soft645::new(2);
        let a = f.run_once(2);
        let b = f.run_once(2);
        assert_eq!(a, b, "steady-state cost is deterministic");
        assert_eq!(f.stats().crossings, 2);
    }
}
