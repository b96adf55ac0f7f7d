//! Single-process microbenchmark worlds.
//!
//! These builders construct bare [`World`]s (no supervisor, no
//! scheduler) whose entire cost profile is one hot loop; the benchmark
//! under `bench/` times them, the differential tests run them under
//! both execution engines, and the determinism suites replay them.
//! Each takes the fast-path switch and an iteration count and returns
//! a world ready to [`ring_cpu::machine::Machine::run`] — halting via a
//! native trap handler when the loop derails out.

use ring_core::registers::{IndWord, PtrReg};
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;
use ring_cpu::isa::{Instr, Opcode};
use ring_cpu::machine::MachineConfig;
use ring_cpu::native::NativeAction;
use ring_cpu::testkit::{addr, World};

fn config(fastpath: bool) -> MachineConfig {
    MachineConfig {
        fastpath,
        ..MachineConfig::default()
    }
}

fn finish_world(mut w: World, code_seg: ring_core::addr::SegNo, source: &str) -> World {
    let out = crate::driver::assemble_memoised(source);
    for (i, word) in out.words.iter().enumerate() {
        w.poke(code_seg, i as u32, *word);
    }
    w.start(Ring::R4, code_seg, 0);
    w
}

/// Same-ring counting loop: every instruction fast-path eligible and
/// every operand a memory reference (no immediates), so each step pays
/// the full validate/resolve sequence on the reference path.
pub fn tight_loop(fastpath: bool, iters: u64) -> World {
    let mut w = World::with_config(config(fastpath));
    let code = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
    );
    let data = w.add_segment(11, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    w.poke(data, 0, Word::new(iters));
    w.poke(data, 2, Word::new(1));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(11, 0)));
    finish_world(
        w,
        code,
        "
loop:   aos pr1|1
        lda pr1|0
        sba pr1|2
        sta pr1|0
        tnz loop
        drl 0o777
",
    )
}

/// One cross-ring CALL/RETURN round trip per iteration.
pub fn gate_storm(fastpath: bool, iters: u64) -> World {
    let mut w = World::with_config(config(fastpath));
    let code = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
    );
    let data = w.add_segment(11, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
    let gate = w.add_segment(
        20,
        SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R4)
            .gates(1)
            .bound_words(16),
    );
    w.add_standard_stacks(16);
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    // The gate body: immediately RETURN through the pointer the caller
    // left in PR2 (real machine code, not a native stub, so fetches in
    // ring 1 are part of the measured work).
    w.poke_instr(gate, 0, Instr::pr_relative(Opcode::Return, 2, 0));
    w.poke(data, 0, Word::new(iters));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(11, 0)));
    finish_world(
        w,
        code,
        "
loop:   eap pr2, ret
        eap pr3, gatep,*
        call pr3|0
ret:    lda pr1|0
        sba =1
        sta pr1|0
        tnz loop
        drl 0o777
gatep:  its 1, 20, 0
",
    )
}

/// Each iteration loads through a three-deep indirect chain.
pub fn indirect_chain(fastpath: bool, iters: u64) -> World {
    let mut w = World::with_config(config(fastpath));
    let code = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
    );
    let data = w.add_segment(11, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
    let table = w.add_segment(12, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    w.write_ind_word(table, 0, IndWord::new(Ring::R4, addr(12, 2), true));
    w.write_ind_word(table, 2, IndWord::new(Ring::R4, addr(12, 4), true));
    w.write_ind_word(table, 4, IndWord::new(Ring::R4, addr(11, 2), false));
    w.poke(data, 0, Word::new(iters));
    w.poke(data, 2, Word::new(0o1234));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(11, 0)));
    w.machine.set_pr(2, PtrReg::new(Ring::R4, addr(12, 0)));
    finish_world(
        w,
        code,
        "
loop:   lda pr2|0,*
        lda pr1|0
        sba =1
        sta pr1|0
        tnz loop
        drl 0o777
",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_cpu::machine::RunExit;

    /// The host time of each recorder on the 3 M-instruction gate storm
    /// and tight loop: five configurations (observers off, metrics,
    /// spans and the profiler each alone, all three), run interleaved,
    /// each world built afresh per run. Prints every configuration's
    /// median over the runs and its ratio to the observers-off median.
    /// Run with `cargo test --release -p ring-os --lib -- --ignored
    /// --nocapture observer_timing`.
    #[test]
    #[ignore = "a timing, not a check; run it in release"]
    fn observer_timing() {
        use std::time::Instant;
        const INSTRUCTIONS: u64 = 3_000_000;
        const RUNS: usize = 15;
        // (name, metrics, spans, profiler)
        let configs = [
            ("off", false, false, false),
            ("metrics", true, false, false),
            ("spans", false, true, false),
            ("profiler", false, false, true),
            ("all three", true, true, true),
        ];
        let worlds = ["gate_storm", "tight_loop"];
        let build = |world| match world {
            "gate_storm" => gate_storm(true, INSTRUCTIONS / 8),
            _ => tight_loop(true, INSTRUCTIONS / 5),
        };
        let mut secs = vec![vec![Vec::with_capacity(RUNS); configs.len()]; worlds.len()];
        for _ in 0..RUNS {
            for (w, world) in worlds.into_iter().enumerate() {
                for (c, &(_, metrics, spans, profiler)) in configs.iter().enumerate() {
                    let mut world = build(world);
                    if metrics {
                        world.machine.enable_metrics();
                    }
                    if spans {
                        world.machine.enable_spans();
                    }
                    if profiler {
                        world.machine.enable_profiler(1000, 5000);
                    }
                    let start = Instant::now();
                    let exit = world.machine.run(2 * INSTRUCTIONS);
                    secs[w][c].push(start.elapsed().as_secs_f64());
                    assert_eq!(exit, RunExit::Halted);
                }
            }
        }
        let median = |xs: &mut Vec<f64>| {
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        for (w, world) in worlds.into_iter().enumerate() {
            let medians: Vec<f64> = secs[w].iter_mut().map(median).collect();
            for ((config, ..), m) in configs.iter().zip(&medians) {
                println!(
                    "{world} {config:>9}: {:7.1} ms, {:.3}x off (median of {RUNS})",
                    m * 1e3,
                    m / medians[0],
                );
            }
        }
    }

    /// The host memory of a long kernel run: the livelocked page storm
    /// of `runasm --procs 12 --frames 10 --rounds 3 --quantum 300
    /// --budget 3000000`, built with the calls `MachineArgs::build`
    /// makes, run for 3 M instructions. Prints the process's peak
    /// resident set (`VmHWM`), so run it alone: `cargo test --release
    /// -p ring-os --lib -- --ignored --exact --nocapture
    /// workload::micro::tests::livelocked_storm_peak_memory`.
    #[test]
    #[ignore = "a peak-memory reading, not a check; run it alone in release"]
    fn livelocked_storm_peak_memory() {
        use crate::boot::{System, SystemConfig};
        use crate::workload::{try_install_page_storm, StormSpec};
        const INSTRUCTIONS: u64 = 3_000_000;
        let mut sys = System::boot_with(SystemConfig {
            quantum: 300,
            frame_budget: Some(10),
            ..SystemConfig::default()
        });
        let spec = StormSpec {
            procs: 12,
            pages: 5,
            rounds: 3,
        };
        try_install_page_storm(&mut sys, &spec).expect("the storm fits");
        sys.machine.set_timer(Some(300));
        let exit = sys.machine.run(INSTRUCTIONS);
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let hwm = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .unwrap_or("VmHWM: unavailable");
        let snap = sys.metrics_snapshot();
        println!(
            "{exit:?} after {} instructions, {} cycles, {} major page faults, {} context switches",
            sys.machine.stats().instructions,
            sys.machine.cycles(),
            snap.sched.page_faults_major,
            snap.sched.context_switches,
        );
        println!("{}", hwm.split_whitespace().collect::<Vec<_>>().join(" "));
    }
}
