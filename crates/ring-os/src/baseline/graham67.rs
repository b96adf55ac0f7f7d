//! Graham's 1967 partial hardware implementation.
//!
//! From the paper's Background section: "Graham, in 1967, proposed a
//! partial hardware implementation of rings of protection which
//! included three ring numbers embedded in segment descriptor words,
//! and a processor ring register, but which **still required software
//! intervention on all ring crossings**."
//!
//! This baseline sits between the 645 software scheme and the paper's
//! full hardware: per-reference validation (brackets, effective rings)
//! is free hardware work and there is a single descriptor segment per
//! process — no DBR switching, no gatekeeper argument validation — but
//! every CALL that would change the ring, and the matching RETURN,
//! traps to a software ring-crossing handler.
//!
//! Modelling: the service segment's gate extension is withheld
//! (`R3 == R2`), so a cross-ring CALL faults (`AboveGateExtension`) and
//! the handler validates the gate against a software table and performs
//! the downward switch. The matching upward return also required
//! software in Graham's scheme; since our machine *would* perform it in
//! hardware, the handler plants a sentinel return pointer into a
//! trap-only segment, so the callee's RETURN faults and the handler
//! completes the upward switch — software intervention on both
//! crossings, exactly as the Background describes.

use ring_core::access::{vector, Fault};
use ring_core::addr::{SegAddr, SegNo, WordNo};
use ring_core::registers::{Ipr, PtrReg};
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;
use ring_cpu::machine::{Machine, RunExit};
use ring_cpu::native::NativeAction;
use ring_cpu::testkit::World;

/// Software crossing costs (cheaper than the 645 gatekeeper: no
/// argument validation — the hardware brackets handle references — and
/// no descriptor-segment switch).
pub mod cost {
    /// Gate-table lookup and ring switch on the way down.
    pub const CROSS_DOWN: u64 = 18;
    /// Return validation and ring switch on the way up.
    pub const CROSS_UP: u64 = 14;
}

/// Segment numbers.
pub mod segs {
    /// User code.
    pub const USER_CODE: u32 = 10;
    /// User data.
    pub const USER_DATA: u32 = 11;
    /// The ring-1 service.
    pub const SERVICE: u32 = 20;
    /// The sentinel "return lands here and traps" segment.
    pub const SENTINEL: u32 = 30;
}

/// Crossing statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct GrahamStats {
    /// Software-mediated downward crossings.
    pub downs: u64,
    /// Software-mediated upward returns.
    pub ups: u64,
}

/// The crossing handler's state (the machine's native-state value).
#[derive(Clone, Default)]
struct Crossings {
    stats: GrahamStats,
    /// Pending upward returns: (caller ring, continuation), a
    /// push-down stack.
    pending: Vec<(Ring, SegAddr)>,
}

/// The Graham-1967 fixture: ring-4 user code calling a ring-1 service
/// with `n_args` arguments, both crossings mediated by software while
/// all per-reference validation stays in hardware.
pub struct Graham67 {
    /// The underlying world.
    pub world: World,
}

impl Graham67 {
    /// Builds the fixture (same workload as the other baselines).
    pub fn new(n_args: u32) -> Graham67 {
        let mut world = World::new();
        let code = world.add_segment(
            segs::USER_CODE,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(256),
        );
        world.add_segment(
            segs::USER_DATA,
            SdwBuilder::data(Ring::R4, Ring::R4).bound_words(128),
        );
        // The service: brackets in hardware, but NO gate extension —
        // the cross-ring call must trap for software.
        let service = world.add_segment(
            segs::SERVICE,
            SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R1)
                .gates(1)
                .bound_words(16),
        );
        // Sentinel segment: nothing is executable here at any ring the
        // callee can name, so a RETURN through it always traps.
        world.add_segment(
            segs::SENTINEL,
            SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0).bound_words(16),
        );
        world.add_standard_stacks(16);
        let trap = world.add_trap_segment();

        world.machine.set_native_state(Crossings::default());
        world.machine.register_native(trap, |m, entry| {
            m.with_native_state(|m, x: &mut Crossings| cross(m, x, entry.value()))
                .expect("crossing state is installed with the handler")
        });

        // The service body: per-reference hardware validation of
        // arguments (this scheme HAS effective rings), then RETURN via
        // the planted sentinel.
        world.machine.register_native(service, |m, _| {
            let ap = m.pr(1);
            let n = m.xreg(7);
            let mut sum = Word::ZERO;
            for i in 0..n {
                let argp = m.arg_pointer(ap, i)?;
                sum = sum.wrapping_add(m.read_validated(argp)?);
            }
            m.write_validated(
                PtrReg::new(
                    m.pr(1).ring,
                    SegAddr::from_parts(segs::USER_DATA, 63).expect("result"),
                ),
                sum,
            )?;
            Ok(NativeAction::Return { via: m.pr(2) })
        });

        // Identical user program to the other fixtures.
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
        for (i, w) in out.words.iter().enumerate() {
            world.poke(code, i as u32, *w);
        }
        let data = SegNo::new(segs::USER_DATA).expect("segno");
        for i in 0..n_args.max(1) {
            world.poke(data, i, Word::new(u64::from(10 + i)));
        }

        let mut f = Graham67 { world };
        f.reset(n_args);
        f
    }

    /// Resets to the start of the user program.
    pub fn reset(&mut self, n_args: u32) {
        self.world.machine.clear_halt();
        let code = SegNo::new(segs::USER_CODE).expect("segno");
        self.world
            .machine
            .set_ipr(Ipr::new(Ring::R4, SegAddr::new(code, WordNo::ZERO)));
        for n in 0..8 {
            self.world
                .machine
                .set_pr(n, PtrReg::new(Ring::R4, SegAddr::new(code, WordNo::ZERO)));
        }
        self.world.machine.set_xreg(7, n_args);
    }

    /// Runs one round trip, returning its cycle cost.
    ///
    /// # Panics
    ///
    /// Panics if the run does not halt cleanly.
    pub fn run_once(&mut self, n_args: u32) -> u64 {
        self.reset(n_args);
        let before = self.world.machine.cycles();
        let exit = self.world.machine.run(10_000);
        assert_eq!(exit, RunExit::Halted, "graham67 round trip must halt");
        self.world.machine.cycles() - before
    }

    /// The result word the service stored.
    pub fn result(&self) -> Word {
        self.world
            .peek(SegNo::new(segs::USER_DATA).expect("segno"), 63)
    }

    /// Crossing statistics.
    pub fn stats(&self) -> GrahamStats {
        self.world
            .machine
            .native_state::<Crossings>()
            .expect("crossing state is installed at build")
            .stats
    }
}

/// The software ring-crossing handler: mediates the downward CALL that
/// faulted on the withheld gate extension, and the upward return that
/// faulted on the planted sentinel.
fn cross(m: &mut Machine, x: &mut Crossings, v: u32) -> Result<NativeAction, Fault> {
    if v != vector::ACCESS_VIOLATION && v != vector::DOWNWARD_RETURN {
        return Ok(NativeAction::Halt);
    }
    let (_, _, target, _) = m.fault_info()?;
    let mut state = m.saved_state()?;
    if target.segno.value() == segs::SERVICE && target.wordno == WordNo::ZERO {
        // The downward crossing: validate the software gate table (one
        // entry), switch the ring register, and plant the sentinel
        // return pointer.
        x.stats.downs += 1;
        m.charge(cost::CROSS_DOWN);
        x.pending.push((state.ipr.ring, state.prs[2].addr));
        state.prs[2] = PtrReg::new(
            Ring::R1,
            SegAddr::from_parts(segs::SENTINEL, 0).expect("sentinel"),
        );
        state.ipr = Ipr::new(Ring::R1, target);
        m.set_saved_state(&state)?;
        return Ok(NativeAction::Resume);
    }
    if target.segno.value() == segs::SENTINEL {
        // The upward crossing: complete the return.
        let Some((ring, cont)) = x.pending.pop() else {
            return Ok(NativeAction::Halt);
        };
        x.stats.ups += 1;
        m.charge(cost::CROSS_UP);
        state.ipr = Ipr::new(ring, cont);
        for pr in state.prs.iter_mut() {
            *pr = pr.with_ring_floor(ring);
        }
        m.set_saved_state(&state)?;
        return Ok(NativeAction::Resume);
    }
    Ok(NativeAction::Halt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::hardware::HardRings;
    use crate::baseline::soft645::Soft645;

    #[test]
    fn both_crossings_are_software_but_compute_matches() {
        let mut f = Graham67::new(3);
        let cycles = f.run_once(3);
        assert!(cycles > 0);
        assert_eq!(f.result().raw(), 10 + 11 + 12);
        let st = f.stats();
        assert_eq!(st.downs, 1);
        assert_eq!(st.ups, 1);
    }

    #[test]
    fn sits_between_645_and_full_hardware() {
        let n = 2;
        let hard = HardRings::new(n, Ring::R1).run_once(n);
        let graham = Graham67::new(n).run_once(n);
        let soft = Soft645::new(n).run_once(n);
        assert!(
            hard < graham && graham < soft,
            "cost ordering 1971-hardware < Graham-67 < 645-software: \
             {hard} < {graham} < {soft}"
        );
    }

    #[test]
    fn argument_cost_is_hardware_not_gatekeeper() {
        // Unlike the 645 gatekeeper, Graham's scheme validates argument
        // references in hardware: the crossing cost is flat in the
        // argument count (only the service's own reads grow).
        let c1 = Graham67::new(1).run_once(1);
        let c8 = Graham67::new(8).run_once(8);
        let hard1 = HardRings::new(1, Ring::R1).run_once(1);
        let hard8 = HardRings::new(8, Ring::R1).run_once(8);
        assert_eq!(
            c8 - c1,
            hard8 - hard1,
            "per-argument growth identical to full hardware"
        );
    }
}
