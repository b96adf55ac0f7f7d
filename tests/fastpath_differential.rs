//! Differential validation of the fast-path execution engine.
//!
//! The fast path (ring-checked translation lookaside + predecoded
//! instruction cache) is pure acceleration: with it on or off the
//! machine must reach bit-for-bit identical architectural state —
//! registers, memory, faults, traps — *and* identical simulated cycle
//! counts, because the cycle model charges per counted physical
//! reference and the fast path replays exactly the references the slow
//! path would have made.
//!
//! These tests run two machines in lockstep over the same world — one
//! with `fastpath: true` (the default), one with `fastpath: false` (the
//! `--no-fastpath` configuration) — on randomly generated but
//! mostly-sane programs covering every operand class, immediate /
//! indexed / indirect addressing, paged segments, ring folds that fault
//! and chains that loop. After every step the full register file,
//! cycle counter and outcome must match; at the end, all of physical
//! memory, the counted reference totals, the SDW associative-memory
//! statistics and the architectural metrics (heatmap, histograms,
//! crossings, faults) must match too.
//!
//! Targeted tests then pin the three invalidation protocols: raw-word
//! compare catching self-modifying code, descriptor-store invalidation
//! catching supervisor revocation, and the DBR-load flush catching an
//! address-space switch. A booted page storm steps both engines through
//! all three at once, under CLOCK eviction, major page faults and
//! timer-driven process switches.

use multiring::core::access::Fault;
use multiring::core::oracle;
use multiring::core::registers::{Dbr, IndWord, Ipr, PtrReg};
use multiring::core::ring::Ring;
use multiring::core::sdw::SdwBuilder;
use multiring::core::word::Word;
use multiring::core::{AbsAddr, SegAddr, SegNo};
use multiring::cpu::isa::{Instr, Opcode};
use multiring::cpu::machine::{Machine, MachineConfig, RunExit, StepOutcome};
use multiring::cpu::native::NativeAction;
use multiring::cpu::testkit::{addr, World};
use multiring::os::workload::{
    install_gate_storm, install_page_storm, micro, GateStormSpec, StormSpec,
};
use multiring::os::{System, SystemConfig};
use multiring::segmem::Ptw;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const CODE: u32 = 10;
const DATA: u32 = 11;
const TABLE: u32 = 12;
const RO: u32 = 13;
const PAGED: u32 = 14;

/// All segment storage (descriptor segment, code/data/stacks/trap,
/// page table and frames) lives well below this; sweeping further is
/// pure zero-compare.
const SWEEP_WORDS: u32 = 32 * 1024;

fn ring_mostly_r4(rng: &mut StdRng) -> Ring {
    if rng.gen_bool(0.85) {
        Ring::R4
    } else {
        Ring::R5
    }
}

/// One random instruction word. Weighted so most instructions execute
/// cleanly (long runs keep the caches hot) but every operand class,
/// addressing mode and a sprinkling of faulting references appear.
fn gen_instr(rng: &mut StdRng) -> Word {
    const READS: [Opcode; 11] = [
        Opcode::Lda,
        Opcode::Ldq,
        Opcode::Ada,
        Opcode::Sba,
        Opcode::Mpy,
        Opcode::Ana,
        Opcode::Ora,
        Opcode::Era,
        Opcode::Cmpa,
        Opcode::Adq,
        Opcode::Sbq,
    ];
    const WRITES: [Opcode; 3] = [Opcode::Sta, Opcode::Stq, Opcode::Stz];
    const TRANSFERS: [Opcode; 5] = [
        Opcode::Tra,
        Opcode::Tze,
        Opcode::Tnz,
        Opcode::Tmi,
        Opcode::Tpl,
    ];
    const PRIVILEGED: [Opcode; 5] = [
        Opcode::Ldbr,
        Opcode::Sio,
        Opcode::Rett,
        Opcode::Ldt,
        Opcode::Halt,
    ];

    let roll = rng.gen_range(0..100u32);
    let instr =
        match roll {
            // ---- operand reads, every addressing mode ----
            0..=29 => {
                let op = READS[rng.gen_range(0..READS.len())];
                match rng.gen_range(0..6u32) {
                    0 => Instr::direct(op, rng.gen_range(0..(1 << 18))).immediate(),
                    1 => Instr::pr_relative(op, 1, rng.gen_range(0..250)),
                    2 => Instr::pr_relative(op, 4, rng.gen_range(0..2040)),
                    3 => Instr::pr_relative(op, 2, 2 * rng.gen_range(0..32u32)).with_indirect(),
                    4 => Instr::pr_relative(op, 1, rng.gen_range(0..120))
                        .with_index(rng.gen_range(1..4)),
                    _ => Instr::pr_relative(op, 3, rng.gen_range(0..60)),
                }
            }
            // ---- operand writes (occasionally refused or illegal) ----
            30..=41 => {
                let op = WRITES[rng.gen_range(0..WRITES.len())];
                match rng.gen_range(0..8u32) {
                    0..=2 => Instr::pr_relative(op, 1, rng.gen_range(0..250)),
                    3 | 4 => Instr::pr_relative(op, 4, rng.gen_range(0..2040)),
                    5 => Instr::pr_relative(op, 2, 2 * rng.gen_range(0..32u32)).with_indirect(),
                    6 => Instr::pr_relative(op, 1, rng.gen_range(0..120))
                        .with_index(rng.gen_range(1..4)),
                    // Write bracket violation / illegal immediate write.
                    _ => {
                        if rng.gen_bool(0.5) {
                            Instr::pr_relative(op, 3, rng.gen_range(0..60))
                        } else {
                            Instr::direct(op, rng.gen_range(0..64)).immediate()
                        }
                    }
                }
            }
            // ---- read-modify-write ----
            42..=47 => {
                if rng.gen_bool(0.6) {
                    Instr::pr_relative(Opcode::Aos, 1, rng.gen_range(0..250))
                } else {
                    Instr::pr_relative(Opcode::Aos, 4, rng.gen_range(0..2040))
                }
            }
            // ---- pointer loads (EAP into a scratch PR) ----
            48..=52 => {
                let xreg = if rng.gen_bool(0.5) { 5 } else { 7 };
                if rng.gen_bool(0.3) {
                    Instr::pr_relative(Opcode::Eap, 2, 2 * rng.gen_range(0..32u32))
                        .with_indirect()
                        .with_xreg(xreg)
                } else {
                    Instr::pr_relative(Opcode::Eap, 1, rng.gen_range(0..250)).with_xreg(xreg)
                }
            }
            // ---- address-only ----
            53..=59 => {
                let op = [Opcode::Eaa, Opcode::Als, Opcode::Ars][rng.gen_range(0..3usize)];
                if rng.gen_bool(0.5) {
                    Instr::direct(op, rng.gen_range(0..40)).immediate()
                } else {
                    Instr::direct(op, rng.gen_range(0..40))
                }
            }
            // ---- transfers within the code segment ----
            60..=73 => {
                let op = TRANSFERS[rng.gen_range(0..TRANSFERS.len())];
                Instr::direct(op, rng.gen_range(0..250))
            }
            // ---- pointer-pair store (slow path by design) ----
            74..=77 => Instr::pr_relative(Opcode::Spri, 1, rng.gen_range(0..200))
                .with_xreg(rng.gen_range(1..6)),
            // ---- index-register traffic ----
            78..=81 => {
                if rng.gen_bool(0.5) {
                    Instr::pr_relative(Opcode::Ldx, 1, rng.gen_range(0..250))
                        .with_xreg(rng.gen_range(1..4))
                } else {
                    Instr::pr_relative(Opcode::Stx, 1, rng.gen_range(0..250))
                        .with_xreg(rng.gen_range(1..4))
                }
            }
            // ---- no-operand ----
            82..=85 => {
                if rng.gen_bool(0.5) {
                    Instr::direct(Opcode::Nop, 0)
                } else {
                    Instr::direct(Opcode::Neg, 0)
                }
            }
            // ---- same-ring gate call into our own segment ----
            86..=88 => Instr::direct(Opcode::Call, rng.gen_range(0..8)),
            89 => Instr::pr_relative(Opcode::Return, 2, 0),
            // ---- explicit trap ----
            90 | 91 => Instr::direct(Opcode::Drl, rng.gen_range(0..8)),
            // ---- raw garbage (decode fault) ----
            92 => return Word::new(rng.gen()),
            // ---- privileged refusals at ring 4 ----
            93 | 94 => Instr::direct(PRIVILEGED[rng.gen_range(0..PRIVILEGED.len())], 0),
            // ---- reads through the higher-ring pointer ----
            95 | 96 => Instr::pr_relative(Opcode::Lda, 5, rng.gen_range(0..60)),
            // ---- reads from the code segment itself ----
            _ => Instr::direct(Opcode::Lda, rng.gen_range(0..256)),
        };
    instr.encode()
}

/// Builds a world with one random program and data image, identical
/// for every call with the same seed; `fastpath` selects the engine.
/// The sampling profiler and time-series pipeline ride along on every
/// differential run, so the lockstep comparisons also pin them as
/// non-perturbing and engine-independent.
fn build_world(seed: u64, fastpath: bool) -> World {
    build_world_with(seed, fastpath, true)
}

fn build_world_with(seed: u64, fastpath: bool, profiler: bool) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = World::with_config(MachineConfig {
        fastpath,
        ..MachineConfig::default()
    });
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4)
            .gates(8)
            .bound_words(256),
    );
    let data = w.add_segment(DATA, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(256));
    let table = w.add_segment(TABLE, SdwBuilder::data(Ring::R4, Ring::R5).bound_words(64));
    let ro = w.add_segment(RO, SdwBuilder::data(Ring::R2, Ring::R5).bound_words(64));
    let _ = ro;
    w.add_standard_stacks(16);
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));

    // A two-page paged data segment with hand-built page table, so the
    // fast path's PTW staleness compare and the slow path's used /
    // modified bit writes are both exercised.
    let pt = w.alloc_raw(2);
    let raw = w.alloc_raw(3 * 1024);
    let frame0_base = (raw.value() + 1023) & !1023;
    for (page, base) in [(0u32, frame0_base), (1, frame0_base + 1024)] {
        let ptw = Ptw::present(base >> 10).expect("frame number");
        w.machine
            .phys_mut()
            .poke(pt.wrapping_add(page), ptw.pack())
            .expect("poke ptw");
    }
    let paged_sdw = SdwBuilder::data(Ring::R4, Ring::R4)
        .addr(pt)
        .unpaged(false)
        .bound_words(2048)
        .build();
    w.install_sdw(PAGED, &paged_sdw);

    // Data image: mostly small values (so indexed addressing stays in
    // bounds more often than not), some full-width noise.
    for i in 0..256 {
        let v = if rng.gen_bool(0.9) {
            rng.gen_range(0..256u64)
        } else {
            rng.gen()
        };
        w.poke(data, i, Word::new(v));
    }
    for i in 0..2048u32 {
        let v = if rng.gen_bool(0.9) {
            rng.gen_range(0..256u64)
        } else {
            rng.gen()
        };
        w.machine
            .phys_mut()
            .poke(
                AbsAddr::new(frame0_base + i).expect("frame word"),
                Word::new(v),
            )
            .expect("poke frame");
    }

    // Indirect-word table: mostly terminal words into the data segment,
    // a quarter chaining deeper into the table (loops included — the
    // indirection limit must fault identically on both paths).
    for k in 0..32u32 {
        let iw = if rng.gen_bool(0.25) {
            IndWord::new(Ring::R4, addr(TABLE, 2 * rng.gen_range(0..32u32)), true)
        } else {
            IndWord::new(
                ring_mostly_r4(&mut rng),
                addr(DATA, rng.gen_range(0..250)),
                false,
            )
        };
        w.write_ind_word(table, 2 * k, iw);
    }

    // The program: random instructions, with an explicit trap fence at
    // the end so falling off the code always halts via the handler.
    for i in 0..250u32 {
        w.poke(code, i, gen_instr(&mut rng));
    }
    for i in 250..256u32 {
        w.poke_instr(code, i, Instr::direct(Opcode::Drl, 0));
    }

    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 0)));
    w.machine.set_pr(2, PtrReg::new(Ring::R4, addr(TABLE, 0)));
    w.machine.set_pr(3, PtrReg::new(Ring::R4, addr(RO, 0)));
    w.machine.set_pr(4, PtrReg::new(Ring::R4, addr(PAGED, 0)));
    w.machine.set_pr(5, PtrReg::new(Ring::R5, addr(TABLE, 0)));
    w.machine.enable_metrics();
    w.machine.enable_spans();
    if profiler {
        w.machine.enable_profiler(64, 256);
    }
    w.start(Ring::R4, code, 0);
    w
}

/// Architectural slice of the metrics CSV: everything except the
/// `fastpath.*` lines, which legitimately differ between the engines.
fn arch_metrics_csv(m: &Machine) -> String {
    m.metrics_snapshot()
        .to_csv()
        .lines()
        .filter(|l| !l.starts_with("fastpath."))
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_machines_equal(fast: &Machine, slow: &Machine, at: &str) {
    assert_eq!(fast.cycles(), slow.cycles(), "cycles diverged {at}");
    assert_eq!(fast.ipr(), slow.ipr(), "IPR diverged {at}");
    assert_eq!(fast.a(), slow.a(), "A diverged {at}");
    assert_eq!(fast.q(), slow.q(), "Q diverged {at}");
    for n in 0..8 {
        assert_eq!(fast.xreg(n), slow.xreg(n), "X{n} diverged {at}");
        assert_eq!(fast.pr(n), slow.pr(n), "PR{n} diverged {at}");
    }
    assert_eq!(fast.last_fault(), slow.last_fault(), "fault diverged {at}");
    assert_eq!(fast.halted(), slow.halted(), "halt state diverged {at}");
}

/// Steps between the mid-run metrics comparisons of [`run_lockstep`].
const METRICS_EVERY: usize = 8;

/// Steps both engines over the same seed, checking full architectural
/// equality after every instruction, the architectural metrics every
/// [`METRICS_EVERY`] steps, and whole-world equality at the end. Halfway
/// it also clones both machines and steps the clones on, checking their
/// metrics: a clone carries the recorder's pending fast-path commits.
/// Returns the number of fast-path commits, so callers can check the
/// fast path was actually exercised.
fn run_lockstep(seed: u64, steps: usize) -> u64 {
    let mut fast = build_world(seed, true);
    let mut slow = build_world(seed, false);
    for i in 0..steps {
        if i == steps / 2 {
            let (mut fast, mut slow) = (fast.machine.clone(), slow.machine.clone());
            for j in 0..2 * METRICS_EVERY {
                let at = format!("at step {j} of clones taken at step {i} (seed {seed:#018x})");
                assert_eq!(fast.step(), slow.step(), "outcome diverged {at}");
                assert_eq!(
                    arch_metrics_csv(&fast),
                    arch_metrics_csv(&slow),
                    "architectural metrics diverged {at}"
                );
            }
        }
        let of = fast.machine.step();
        let os = slow.machine.step();
        let at = format!("at step {i} (seed {seed:#018x})");
        assert_eq!(of, os, "outcome diverged {at}");
        assert_machines_equal(&fast.machine, &slow.machine, &at);
        if i % METRICS_EVERY == 0 {
            assert_eq!(
                arch_metrics_csv(&fast.machine),
                arch_metrics_csv(&slow.machine),
                "architectural metrics diverged {at}"
            );
        }
        if of == StepOutcome::Halted {
            break;
        }
    }
    let at = format!("after run (seed {seed:#018x})");
    assert_eq!(
        fast.machine.stats().instructions,
        slow.machine.stats().instructions,
        "instruction count diverged {at}"
    );
    assert_eq!(
        fast.machine.stats().traps,
        slow.machine.stats().traps,
        "trap count diverged {at}"
    );
    assert_eq!(
        fast.machine.phys().read_count(),
        slow.machine.phys().read_count(),
        "counted reads diverged {at}"
    );
    assert_eq!(
        fast.machine.phys().write_count(),
        slow.machine.phys().write_count(),
        "counted writes diverged {at}"
    );
    assert_eq!(
        fast.machine.sdw_cache_stats(),
        slow.machine.sdw_cache_stats(),
        "SDW cache statistics diverged {at}"
    );
    assert_eq!(
        arch_metrics_csv(&fast.machine),
        arch_metrics_csv(&slow.machine),
        "architectural metrics diverged {at}"
    );
    // The profiler samples on simulated cycles and the span stream,
    // both of which the engines must agree on — so the folded profile
    // and the time series must come out bit-identical too.
    assert_eq!(
        fast.machine.profiler().folded(),
        slow.machine.profiler().folded(),
        "folded profiles diverged {at}"
    );
    assert_eq!(
        fast.machine.timeseries().to_json(),
        slow.machine.timeseries().to_json(),
        "time series diverged {at}"
    );
    // The span flight recorder sees only committed ring crossings, so
    // the two engines must emit the *identical* event stream — same
    // spans, same order, same cycle timestamps.
    assert_eq!(
        fast.machine.take_span_events(),
        slow.machine.take_span_events(),
        "span event streams diverged {at}"
    );
    for a in 0..SWEEP_WORDS {
        let aa = AbsAddr::new(a).expect("sweep address");
        assert_eq!(
            fast.machine.phys().peek(aa).expect("peek fast"),
            slow.machine.phys().peek(aa).expect("peek slow"),
            "memory diverged at {a:#o} (seed {seed:#018x})"
        );
    }
    fast.machine.stats().fast_steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance gate: random programs, both engines, identical
    /// registers, memory, faults, traps and cycle counts at every step.
    #[test]
    fn fast_and_slow_engines_agree(seed in any::<u64>()) {
        run_lockstep(seed, 400);
    }
}

/// Fixed seeds with longer runs, and proof that the differential
/// harness is not vacuous: across a handful of seeds the fast path
/// must commit a healthy share of instructions.
#[test]
fn fast_path_commits_most_instructions() {
    let mut total_fast = 0u64;
    for seed in [1u64, 2, 3, 0x645, 0xdead_beef] {
        total_fast += run_lockstep(seed, 1200);
    }
    assert!(
        total_fast > 100,
        "fast path barely engaged ({total_fast} commits) — differential tests are vacuous"
    );
}

/// The profiler must be a pure observer: with sampling and the
/// time-series pipeline on, the machine executes bit-identically to a
/// run with them off — same outcomes, registers, cycles, faults and
/// counted physical references, on both engines.
#[test]
fn profiler_on_vs_off_is_architecturally_pure() {
    let mut total_samples = 0u64;
    for seed in [1u64, 0x645, 0xFEED_F00D] {
        for fastpath in [true, false] {
            let mut on = build_world_with(seed, fastpath, true);
            let mut off = build_world_with(seed, fastpath, false);
            for i in 0..1200 {
                let a = on.machine.step();
                let b = off.machine.step();
                let at = format!("at step {i} (seed {seed:#x}, fastpath {fastpath})");
                assert_eq!(a, b, "outcome diverged {at}");
                assert_machines_equal(&on.machine, &off.machine, &at);
                if a == StepOutcome::Halted {
                    break;
                }
            }
            let at = format!("after run (seed {seed:#x}, fastpath {fastpath})");
            assert_eq!(
                on.machine.phys().read_count(),
                off.machine.phys().read_count(),
                "counted reads diverged {at}"
            );
            assert_eq!(
                on.machine.phys().write_count(),
                off.machine.phys().write_count(),
                "counted writes diverged {at}"
            );
            total_samples += on.machine.profiler().samples();
        }
    }
    // Some random programs halt before the first sample boundary;
    // across the seed set the profiler must still have fired, or the
    // purity check proved nothing.
    assert!(
        total_samples > 0,
        "profiler never sampled on any seed — the purity check is vacuous"
    );
}

/// A tight loop must run almost entirely on the fast path, with both
/// lookaside structures reporting hits.
#[test]
fn fast_path_engages_on_tight_loop() {
    let mut w = World::new();
    let code = w.add_segment(
        CODE,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(16),
    );
    let data = w.add_segment(DATA, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    w.poke(data, 0, Word::new(200));
    w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 0)));
    w.poke_instr(code, 0, Instr::pr_relative(Opcode::Lda, 1, 0));
    w.poke_instr(code, 1, Instr::direct(Opcode::Sba, 1).immediate());
    w.poke_instr(code, 2, Instr::pr_relative(Opcode::Sta, 1, 0));
    w.poke_instr(code, 3, Instr::direct(Opcode::Tnz, 0));
    w.poke_instr(code, 4, Instr::direct(Opcode::Drl, 0));
    w.start(Ring::R4, code, 0);
    w.machine.run(2000);
    assert!(w.machine.halted(), "loop did not run to completion");
    let stats = w.machine.stats();
    let fp = w.machine.fastpath_stats();
    assert!(
        stats.fast_steps * 10 >= stats.instructions * 9,
        "tight loop should be >=90% fast path: {} of {}",
        stats.fast_steps,
        stats.instructions
    );
    assert!(fp.tlb_hits > 0, "translation lookaside never hit");
    assert!(fp.icache_hits > 0, "instruction cache never hit");
}

/// Self-modifying code: the predecoded instruction cache keys on the
/// raw word, so a store into an already-executed (and cached) word must
/// take effect on the very next execution — on both engines, with
/// identical cycle counts.
#[test]
fn self_modifying_code_is_seen_immediately() {
    let build = |fastpath: bool| -> World {
        let mut w = World::with_config(MachineConfig {
            fastpath,
            ..MachineConfig::default()
        });
        let code = w.add_segment(
            CODE,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4)
                .write(true)
                .bound_words(16),
        );
        let data = w.add_segment(DATA, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
        let trap = w.add_trap_segment();
        w.machine
            .register_native(trap, |_, _| Ok(NativeAction::Halt));
        // data[0] holds the replacement instruction: TRA 6.
        w.poke(data, 0, Instr::direct(Opcode::Tra, 6).encode());
        w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 0)));
        w.poke_instr(code, 0, Instr::pr_relative(Opcode::Ldq, 1, 0));
        w.poke_instr(code, 1, Instr::direct(Opcode::Lda, 7).immediate());
        w.poke_instr(code, 2, Instr::direct(Opcode::Stq, 1));
        w.poke_instr(code, 3, Instr::direct(Opcode::Tra, 1));
        // Second execution of word 1 must be the stored TRA 6.
        w.poke_instr(code, 4, Instr::direct(Opcode::Drl, 1));
        w.poke_instr(code, 5, Instr::direct(Opcode::Drl, 2));
        w.poke_instr(code, 6, Instr::direct(Opcode::Drl, 3));
        w.start(Ring::R4, code, 0);
        w
    };
    let mut fast = build(true);
    let mut slow = build(false);
    for i in 0..50 {
        let of = fast.machine.step();
        let os = slow.machine.step();
        let at = format!("at step {i}");
        assert_eq!(of, os, "outcome diverged {at}");
        assert_machines_equal(&fast.machine, &slow.machine, &at);
        if of == StepOutcome::Halted {
            break;
        }
    }
    assert!(
        fast.machine.halted(),
        "program looped: stale instruction executed"
    );
    // The halt came from the DRL at word 6 — i.e. the rewritten word 1
    // transferred there, it did not fall through as the original LDA.
    assert_eq!(fast.machine.a(), Word::new(7), "word 1 never ran as LDA");
    assert!(
        fast.machine.stats().fast_steps > 0,
        "fast path never engaged, cache invalidation untested"
    );
}

/// Supervisor revocation: after a warm fast-path translation for a
/// writable segment, a ring-0 descriptor store clearing the write flag
/// must take effect on the very next reference — the lookaside may not
/// serve the stale grant.
#[test]
fn descriptor_store_revokes_warm_translations() {
    let build = |fastpath: bool| -> World {
        let mut w = World::with_config(MachineConfig {
            fastpath,
            ..MachineConfig::default()
        });
        let code = w.add_segment(
            CODE,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(16),
        );
        let data = w.add_segment(DATA, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
        let trap = w.add_trap_segment();
        w.machine
            .register_native(trap, |_, _| Ok(NativeAction::Halt));
        let _ = data;
        w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 0)));
        w.poke_instr(code, 0, Instr::pr_relative(Opcode::Sta, 1, 0));
        w.poke_instr(code, 1, Instr::pr_relative(Opcode::Sta, 1, 1));
        w.poke_instr(code, 2, Instr::direct(Opcode::Drl, 0));
        w.start(Ring::R4, code, 0);
        w
    };
    let revoke = |w: &mut World| {
        // Front-panel supervisor intervention: drop to ring 0, rewrite
        // the descriptor without the write flag, return to the program.
        let saved = w.machine.ipr();
        w.machine.set_ipr(Ipr::new(Ring::R0, saved.addr));
        let mut sdw = w.read_sdw(DATA);
        sdw.write = false;
        w.machine
            .store_descriptor(SegNo::new(DATA).expect("segno"), &sdw)
            .expect("ring-0 descriptor store");
        w.machine.set_ipr(saved);
    };
    let mut fast = build(true);
    let mut slow = build(false);
    // First store succeeds and warms the fast-path translation.
    assert_eq!(fast.machine.step(), StepOutcome::Ran);
    assert_eq!(slow.machine.step(), StepOutcome::Ran);
    assert_machines_equal(&fast.machine, &slow.machine, "after warm-up store");
    revoke(&mut fast);
    revoke(&mut slow);
    // Second store must now be refused — identically on both engines.
    let of = fast.machine.step();
    let os = slow.machine.step();
    assert_eq!(of, os, "post-revocation outcome diverged");
    assert!(
        matches!(of, StepOutcome::Trapped(Fault::AccessViolation { .. })),
        "revoked write was not refused: {of:?}"
    );
    assert_machines_equal(&fast.machine, &slow.machine, "after revoked store");
}

/// Address-space switch: LDBR must flush every fast-path translation,
/// so a reference that hits the lookaside before the switch reads
/// through the *new* descriptor segment after it.
#[test]
fn dbr_load_flushes_warm_translations() {
    let build = |fastpath: bool| -> World {
        let mut w = World::with_config(MachineConfig {
            fastpath,
            ..MachineConfig::default()
        });
        let code = w.add_segment(
            CODE,
            SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0).bound_words(16),
        );
        let data = w.add_segment(DATA, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
        let trap = w.add_trap_segment();
        w.machine
            .register_native(trap, |_, _| Ok(NativeAction::Halt));
        w.poke(data, 0, Word::new(111));

        // Second address space: a fresh descriptor segment mapping the
        // same code and trap segments, but segment DATA onto different
        // storage holding a different sentinel.
        let ndesc = w.alloc_raw(128);
        let nstore = w.alloc_raw(16);
        w.machine
            .phys_mut()
            .poke(nstore, Word::new(222))
            .expect("poke sentinel");
        let code_sdw = w.read_sdw(CODE);
        let trap_sdw = w.read_sdw(trap.value());
        let ndata = SdwBuilder::data(Ring::R4, Ring::R4)
            .addr(nstore)
            .bound_words(16)
            .build();
        for (segno, sdw) in [(CODE, &code_sdw), (trap.value(), &trap_sdw), (DATA, &ndata)] {
            let (w0, w1) = sdw.pack();
            let base = ndesc.wrapping_add(2 * segno);
            w.machine.phys_mut().poke(base, w0).expect("poke sdw");
            w.machine
                .phys_mut()
                .poke(base.wrapping_add(1), w1)
                .expect("poke sdw");
        }
        let ndbr = Dbr::new(ndesc, 64, w.dbr().stack_base);
        let (d0, d1) = ndbr.pack();
        w.poke(data, 8, d0);
        w.poke(data, 9, d1);

        w.machine.set_pr(1, PtrReg::new(Ring::R0, addr(DATA, 0)));
        w.poke_instr(code, 0, Instr::pr_relative(Opcode::Lda, 1, 0));
        w.poke_instr(code, 1, Instr::pr_relative(Opcode::Ldbr, 1, 8));
        w.poke_instr(code, 2, Instr::pr_relative(Opcode::Lda, 1, 0));
        w.poke_instr(code, 3, Instr::direct(Opcode::Halt, 0));
        w.start(Ring::R0, code, 0);
        w
    };
    let mut fast = build(true);
    let mut slow = build(false);
    for i in 0..10 {
        let of = fast.machine.step();
        let os = slow.machine.step();
        let at = format!("at step {i}");
        assert_eq!(of, os, "outcome diverged {at}");
        assert_machines_equal(&fast.machine, &slow.machine, &at);
        if of == StepOutcome::Halted {
            break;
        }
    }
    assert!(fast.machine.halted(), "program did not halt");
    assert_eq!(
        slow.machine.a(),
        Word::new(222),
        "reference architecture did not switch address spaces"
    );
    assert_eq!(
        fast.machine.a(),
        Word::new(222),
        "fast path served a stale pre-LDBR translation"
    );
}

/// The interval timer decrements by the same per-instruction cycle
/// cost on both engines, so the asynchronous runout trap must land on
/// exactly the same instruction.
#[test]
fn timer_runout_lands_identically() {
    let build = |fastpath: bool| -> World {
        let mut w = World::with_config(MachineConfig {
            fastpath,
            ..MachineConfig::default()
        });
        let code = w.add_segment(
            CODE,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(16),
        );
        let data = w.add_segment(DATA, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
        let trap = w.add_trap_segment();
        w.machine
            .register_native(trap, |_, _| Ok(NativeAction::Halt));
        w.poke(data, 0, Word::new(1_000_000));
        w.machine.set_pr(1, PtrReg::new(Ring::R4, addr(DATA, 0)));
        w.poke_instr(code, 0, Instr::pr_relative(Opcode::Lda, 1, 0));
        w.poke_instr(code, 1, Instr::pr_relative(Opcode::Aos, 1, 0));
        w.poke_instr(code, 2, Instr::direct(Opcode::Tra, 0));
        w.machine.set_timer(Some(137));
        w.start(Ring::R4, code, 0);
        w
    };
    let mut fast = build(true);
    let mut slow = build(false);
    for i in 0..200 {
        let of = fast.machine.step();
        let os = slow.machine.step();
        let at = format!("at step {i}");
        assert_eq!(of, os, "outcome diverged {at}");
        assert_machines_equal(&fast.machine, &slow.machine, &at);
        if of == StepOutcome::Halted {
            break;
        }
    }
    assert!(fast.machine.halted(), "timer never ran out");
    assert!(
        matches!(fast.machine.last_fault(), Some(Fault::TimerRunout)),
        "halt did not come from the timer trap"
    );
}

/// A booted multiprocess page storm on both engines, in lockstep. The
/// frame budget is below the processes' combined working set and the
/// timer slices between them, so the run crosses CLOCK eviction, drum
/// write-back, major faults that block a process, and the DBR switches
/// of every dispatch. Registers, cycles and counted references must
/// agree after every step. Once the sweep is warm, the storm's
/// `aos pr4|0` must also commit on the fast path.
#[test]
fn booted_page_storm_agrees_in_lockstep() {
    let spec = StormSpec {
        procs: 3,
        pages: 5,
        rounds: 12,
    };
    let boot = |fastpath: bool| {
        let mut sys = System::boot_with(SystemConfig {
            phys_words: 1 << 17,
            quantum: 400,
            frame_budget: Some(8),
            fastpath,
        });
        let procs = install_page_storm(&mut sys, &spec);
        sys.enable_metrics();
        sys.machine.set_timer(Some(400));
        (sys, procs)
    };
    let (mut fast, procs) = boot(true);
    let (mut slow, _) = boot(false);
    // The sweep's AOS instructions sit at words 2, 4, .. of each code
    // segment (after `lda rounds` and each page's `eap`).
    let is_aos = |m: &Machine| {
        let at = m.ipr().addr;
        let word = at.wordno.value();
        procs.iter().any(|p| p.code_segno == at.segno.value())
            && word >= 2
            && word <= 2 * spec.pages
            && word.is_multiple_of(2)
    };
    let (mut aos_steps, mut aos_fast) = (0u64, 0u64);
    let mut halted = false;
    for i in 0..200_000 {
        let aos = is_aos(&fast.machine);
        let fast_before = fast.machine.stats().fast_steps;
        let of = fast.machine.step();
        let os = slow.machine.step();
        let at = format!("at step {i}");
        assert_eq!(of, os, "outcome diverged {at}");
        assert_machines_equal(&fast.machine, &slow.machine, &at);
        assert_eq!(
            fast.machine.phys().read_count(),
            slow.machine.phys().read_count(),
            "counted reads diverged {at}"
        );
        assert_eq!(
            fast.machine.phys().write_count(),
            slow.machine.phys().write_count(),
            "counted writes diverged {at}"
        );
        if aos {
            aos_steps += 1;
            aos_fast += fast.machine.stats().fast_steps - fast_before;
        }
        if of == StepOutcome::Halted {
            halted = true;
            break;
        }
    }
    assert!(halted, "storm did not finish");
    for p in &procs {
        assert_eq!(
            fast.state().processes[p.pid].aborted.as_deref(),
            Some("exit"),
            "process {} did not exit cleanly",
            p.pid
        );
    }
    let sched = fast.state().sched.stats;
    assert!(sched.evictions > 0, "frame budget never bit");
    assert!(sched.page_faults_major > 0, "no major page fault");
    assert!(sched.context_switches > 0, "processes never switched");
    let arch_json = |sys: &System| {
        let mut snap = sys.metrics_snapshot();
        snap.fastpath = Default::default();
        snap.to_json()
    };
    assert_eq!(arch_json(&fast), arch_json(&slow), "snapshots diverged");
    assert_eq!(
        fast.machine.sdw_cache_stats(),
        slow.machine.sdw_cache_stats(),
        "SDW cache statistics diverged"
    );
    // Steps taken at an AOS also include faulting attempts and timer
    // runouts recognised there; exactly one per page and round commits.
    let committed = u64::from(spec.rounds) * u64::from(spec.pages) * spec.procs as u64;
    assert!(aos_steps >= committed);
    // A page's first AOS after a page-in, a CLOCK sweep or a process
    // switch takes the reference path (it must set the PTW's used and
    // modified bits, or refill the SDW cache). Under this much frame
    // pressure that is most of them, but the reference path warms the
    // lookaside, so a good share of the rest commit on the fast path.
    assert!(
        aos_fast * 4 > committed,
        "only {aos_fast} of {committed} AOS commits took the fast path"
    );
}

/// Steps `fast` and `slow` in lockstep until both halt (at most
/// `budget` steps), checking outcome, registers (the IPR carries the
/// ring), cycles, faults and counted references after every step.
/// Returns how many steps each CALL class took on the fast engine:
/// `(committed fast, taken by the reference path)`.
fn crossings_in_lockstep(fast: &mut Machine, slow: &mut Machine, budget: usize) -> (u64, u64) {
    let (mut fast_calls, mut ref_calls) = (0u64, 0u64);
    for i in 0..budget {
        let calls_before = fast.stats().calls_downward + fast.stats().calls_same_ring;
        let fast_before = fast.stats().fast_steps;
        let of = fast.step();
        let os = slow.step();
        let at = format!("at step {i}");
        assert_eq!(of, os, "outcome diverged {at}");
        assert_machines_equal(fast, slow, &at);
        assert_eq!(
            fast.phys().read_count(),
            slow.phys().read_count(),
            "counted reads diverged {at}"
        );
        assert_eq!(
            fast.phys().write_count(),
            slow.phys().write_count(),
            "counted writes diverged {at}"
        );
        if fast.stats().calls_downward + fast.stats().calls_same_ring > calls_before {
            if fast.stats().fast_steps > fast_before {
                fast_calls += 1;
            } else {
                ref_calls += 1;
            }
        }
        if of == StepOutcome::Halted {
            return (fast_calls, ref_calls);
        }
    }
    panic!("no halt within {budget} steps");
}

/// After a lockstep run, the recorders that see only committed events
/// must hold the same span stream, folded profile and time series.
fn assert_recorders_equal(fast: &mut Machine, slow: &mut Machine) {
    assert_eq!(
        fast.take_span_events(),
        slow.take_span_events(),
        "span event streams diverged"
    );
    assert_eq!(
        fast.profiler().folded(),
        slow.profiler().folded(),
        "folded profiles diverged"
    );
    assert_eq!(
        fast.timeseries().to_json(),
        slow.timeseries().to_json(),
        "time series diverged"
    );
}

/// The gate storm with every recorder on: each CALL down through the
/// gate and each RETURN back up commits on the fast path, through the
/// same Fig. 8–9 decision and apply step as the reference path, so
/// both engines agree at every step and in every export but the
/// `fastpath` counters.
#[test]
fn gate_storm_crossings_commit_fast_in_lockstep() {
    let build = |fastpath: bool| {
        let mut w = micro::gate_storm(fastpath, 250);
        w.machine.enable_metrics();
        w.machine.enable_spans();
        w.machine.enable_profiler(64, 256);
        w
    };
    let (mut fast, mut slow) = (build(true), build(false));
    let (fast_calls, ref_calls) =
        crossings_in_lockstep(&mut fast.machine, &mut slow.machine, 10_000);
    assert_eq!(fast_calls + ref_calls, 250);
    let arch_json = |m: &Machine| {
        let mut snap = m.metrics_snapshot();
        snap.fastpath = Default::default();
        snap.to_json()
    };
    assert_eq!(
        arch_json(&fast.machine),
        arch_json(&slow.machine),
        "snapshots diverged"
    );
    assert_eq!(
        fast.machine.sdw_cache_stats(),
        slow.machine.sdw_cache_stats(),
        "SDW cache statistics diverged"
    );
    assert_recorders_equal(&mut fast.machine, &mut slow.machine);
    let stats = fast.machine.stats();
    assert!(
        stats.fast_steps * 100 >= stats.instructions * 99,
        "only {} of {} steps committed on the fast path",
        stats.fast_steps,
        stats.instructions
    );
}

/// A micro world builder: the fast-path switch and an iteration count.
type MicroBuilder = fn(bool, u64) -> World;

/// The micro worlds, each with the iteration count it runs at here.
const MICRO_WORLDS: [(&str, MicroBuilder, u64); 3] = [
    ("tight_loop", micro::tight_loop, 2_000),
    ("gate_storm", micro::gate_storm, 400),
    ("indirect_chain", micro::indirect_chain, 2_000),
];

/// Runs a micro world to its halt; returns `(instructions, cycles)`.
fn run_micro(name: &str, w: &mut World, iters: u64) -> (u64, u64) {
    let exit = w.machine.run(64 * iters + 10_000);
    assert_eq!(exit, RunExit::Halted, "{name} did not run to completion");
    (w.machine.stats().instructions, w.machine.cycles())
}

/// Every micro world halts on both engines with equal instruction and
/// cycle counts, and neither the span recorder nor the profiler changes
/// a fast-path run's cycles. The profiler is meant to be left on, so on
/// the tight loop it may at most double the host time: best of five
/// interleaved runs, a sanity bound rather than a measurement (the
/// benchmark under `bench/` measures the observers).
#[test]
fn micro_worlds_agree_on_both_engines_and_under_observers() {
    for (name, build, iters) in MICRO_WORLDS {
        let fast = run_micro(name, &mut build(true, iters), iters);
        assert_eq!(
            fast,
            run_micro(name, &mut build(false, iters), iters),
            "{name}: engines diverged"
        );

        let mut spans = build(true, iters);
        spans.machine.enable_spans();
        assert_eq!(
            run_micro(name, &mut spans, iters),
            fast,
            "{name}: spans changed cycles"
        );
        if name == "gate_storm" {
            assert!(
                !spans.machine.spans().is_empty(),
                "gate storm recorded no spans"
            );
        }

        let mut prof = build(true, iters);
        prof.machine.enable_profiler(1_000, 5_000);
        assert_eq!(
            run_micro(name, &mut prof, iters),
            fast,
            "{name}: profiler changed cycles"
        );
        assert!(
            prof.machine.profiler().samples() > 0,
            "{name}: profiler never sampled"
        );
    }

    let timed = |profiler: bool| {
        let mut w = micro::tight_loop(true, 20_000);
        if profiler {
            w.machine.enable_profiler(1_000, 5_000);
        }
        let start = Instant::now();
        run_micro("tight_loop", &mut w, 20_000);
        start.elapsed()
    };
    let (mut off, mut on) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        off = off.min(timed(false));
        on = on.min(timed(true));
    }
    assert!(
        on <= off * 2,
        "profiler on the tight loop took {on:?} against {off:?}"
    );
}

/// A booted gate storm under timer slices: every CALL enters the
/// native ring-1 `acct_charge` gate, and each dispatch's DBR load
/// flushes the associative memory, so the first CALL after it finds
/// its target descriptor missing and takes the reference path while
/// later ones commit fast. Both engines agree at every step and in
/// every export but the `fastpath` counters.
#[test]
fn booted_gate_storm_agrees_in_lockstep() {
    let spec = GateStormSpec {
        procs: 3,
        rounds: 20,
    };
    let boot = |fastpath: bool| {
        let mut sys = System::boot_with(SystemConfig {
            phys_words: 1 << 17,
            quantum: 400,
            fastpath,
            ..SystemConfig::default()
        });
        let procs = install_gate_storm(&mut sys, &spec);
        sys.enable_metrics();
        sys.enable_spans();
        sys.enable_profiler(64, 256);
        sys.machine.set_timer(Some(400));
        (sys, procs)
    };
    let (mut fast, procs) = boot(true);
    let (mut slow, _) = boot(false);
    let (fast_calls, ref_calls) =
        crossings_in_lockstep(&mut fast.machine, &mut slow.machine, 200_000);
    for p in &procs {
        assert_eq!(
            fast.state().processes[p.pid].aborted.as_deref(),
            Some("exit"),
            "process {} did not exit cleanly",
            p.pid
        );
    }
    assert!(
        fast.state().sched.stats.context_switches > 0,
        "processes never switched"
    );
    assert!(
        fast_calls + ref_calls >= u64::from(spec.rounds) * spec.procs as u64,
        "gate calls missing"
    );
    assert!(fast_calls > 0, "no CALL committed on the fast path");
    assert!(ref_calls > 0, "no CALL met a flushed associative memory");
    let arch_json = |sys: &System| {
        let mut snap = sys.metrics_snapshot();
        snap.fastpath = Default::default();
        snap.to_json()
    };
    assert_eq!(arch_json(&fast), arch_json(&slow), "snapshots diverged");
    assert_eq!(
        fast.machine.sdw_cache_stats(),
        slow.machine.sdw_cache_stats(),
        "SDW cache statistics diverged"
    );
    assert_recorders_equal(&mut fast.machine, &mut slow.machine);
}

/// One CALL or RETURN built from random inputs, for the Fig. 8–9
/// oracle check.
#[derive(Clone, Copy, Debug)]
struct CrossingCase {
    call: bool,
    /// Target brackets R1 ≤ R2 ≤ R3.
    rings: [Ring; 3],
    gates: u32,
    bound_words: u32,
    execute: bool,
    present: bool,
    /// Target word number.
    word: u32,
    /// Ring folded into the effective ring: through PR3's ring, or
    /// through an indirect word's ring when `indirect`.
    ring: Ring,
    indirect: bool,
    /// Current ring of execution.
    current: Ring,
    /// Target in the instruction's own segment.
    same_segment: bool,
    /// Target SDW warmed into the associative memory before the step.
    resident: bool,
}

/// Segment of the CALL or RETURN, and of a same-segment target.
const XCODE: u32 = 10;
/// Segment of another-segment targets.
const XTARGET: u32 = 20;

fn gen_crossing(rng: &mut StdRng) -> CrossingCase {
    let ring = |rng: &mut StdRng| Ring::new(rng.gen_range(0..8u8)).expect("ring");
    let mut rings = [ring(rng), ring(rng), ring(rng)];
    rings.sort();
    let same_segment = rng.gen_bool(0.2);
    let gates = rng.gen_range(0..4u32);
    let bound_words = if rng.gen_bool(0.5) { 16 } else { 32 };
    let word = if rng.gen_bool(0.5) {
        rng.gen_range(0..=gates)
    } else {
        rng.gen_range(0..48u32)
    };
    // The instruction's own segment must let the current ring fetch it.
    let (execute, present, current) = if same_segment {
        let cur = rng.gen_range(rings[0].number()..=rings[1].number());
        (true, true, Ring::new(cur).expect("ring"))
    } else {
        (rng.gen_bool(0.9), rng.gen_bool(0.9), ring(rng))
    };
    CrossingCase {
        call: rng.gen_bool(0.5),
        rings,
        gates,
        bound_words,
        execute,
        present,
        word,
        ring: ring(rng),
        indirect: rng.gen_bool(0.5),
        current,
        same_segment,
        resident: same_segment || rng.gen_bool(0.9),
    }
}

/// The world of `case` on one engine, stopped at the CALL or RETURN
/// (word 1 of segment `XCODE`), with the instruction's page and any
/// indirect word in the lookaside and, if `case.resident`, the
/// target's SDW in the associative memory.
fn crossing_world(case: &CrossingCase, fastpath: bool) -> World {
    let mut w = World::with_config(MachineConfig {
        fastpath,
        ..MachineConfig::default()
    });
    let [r1, r2, r3] = case.rings;
    let target = SdwBuilder::procedure(r1, r2, r3)
        .gates(case.gates)
        .bound_words(case.bound_words)
        .execute(case.execute)
        .present(case.present);
    let target_segno = if case.same_segment {
        w.add_segment(XCODE, target)
    } else {
        let cur = case.current;
        w.add_segment(XCODE, SdwBuilder::procedure(cur, cur, cur).bound_words(16));
        w.add_segment(XTARGET, target)
    };
    // Indirect words live in a segment readable from every ring whose
    // write bracket (folded in at the indirect word) is ring 0.
    let table = w.add_segment(TABLE, SdwBuilder::data(Ring::R0, Ring::R7).bound_words(16));
    w.write_ind_word(
        table,
        0,
        IndWord::new(
            case.ring,
            SegAddr::new(target_segno, word_no(case.word)),
            false,
        ),
    );
    w.add_standard_stacks(16);
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    let opcode = if case.call {
        Opcode::Call
    } else {
        Opcode::Return
    };
    let operand = |op: Opcode| {
        if case.indirect {
            Instr::pr_relative(op, 3, 0).with_indirect()
        } else {
            Instr::pr_relative(op, 3, case.word)
        }
    };
    let code = SegNo::new(XCODE).expect("segno");
    // Word 0 forms the same effective address without referencing it:
    // the reference path's fetch and indirect-word reads warm the
    // lookaside for the CALL or RETURN at word 1.
    w.poke_instr(code, 0, operand(Opcode::Eap).with_xreg(4));
    w.poke_instr(code, 1, operand(opcode));
    let pr3 = if case.indirect {
        PtrReg::new(case.current, addr(TABLE, 0))
    } else {
        PtrReg::new(case.ring, SegAddr::new(target_segno, word_no(0)))
    };
    w.machine.set_pr(3, pr3);
    w.machine.enable_metrics();
    w.machine.enable_spans();
    w.start(case.current, code, 0);
    if case.resident {
        w.machine
            .segment_descriptor(target_segno)
            .expect("descriptor in range");
    }
    assert_eq!(w.machine.step(), StepOutcome::Ran, "EAP at word 0");
    w
}

fn word_no(word: u32) -> multiring::core::WordNo {
    multiring::core::WordNo::new(word).expect("word number")
}

/// Runs `case`'s CALL or RETURN on both engines and checks them against
/// each other and against `ring_core::oracle`. Returns a label naming
/// the outcome: the fault, or whether an allowed crossing committed on
/// the fast path.
fn check_crossing(case: &CrossingCase) -> String {
    let mut fast = crossing_world(case, true);
    let mut slow = crossing_world(case, false);
    let fast_before = fast.machine.stats().fast_steps;
    let of = fast.machine.step();
    let os = slow.machine.step();
    let at = format!("in {case:?}");
    assert_eq!(of, os, "outcome diverged {at}");
    assert_machines_equal(&fast.machine, &slow.machine, &at);
    assert_eq!(
        fast.machine.phys().read_count(),
        slow.machine.phys().read_count(),
        "counted reads diverged {at}"
    );
    assert_eq!(
        fast.machine.sdw_cache_stats(),
        slow.machine.sdw_cache_stats(),
        "SDW cache statistics diverged {at}"
    );
    assert_eq!(
        arch_metrics_csv(&fast.machine),
        arch_metrics_csv(&slow.machine),
        "architectural metrics diverged {at}"
    );
    assert_eq!(
        fast.machine.take_span_events(),
        slow.machine.take_span_events(),
        "span event streams diverged {at}"
    );

    let effective = case.current.least_privileged(case.ring);
    let target = SegAddr::new(
        SegNo::new(if case.same_segment { XCODE } else { XTARGET }).expect("segno"),
        word_no(case.word),
    );
    let sdw = fast.read_sdw(target.segno.value());
    let expected = if case.call {
        oracle::call(&sdw, case.word, effective, case.current, case.same_segment)
    } else {
        oracle::ret(&sdw, case.word, effective, case.current)
    };
    let committed_fast = fast.machine.stats().fast_steps > fast_before;
    let (outcome, label) = match of {
        StepOutcome::Ran => {
            assert_eq!(fast.machine.ipr().addr, target, "transfer target {at}");
            assert_eq!(
                committed_fast, case.resident,
                "an allowed crossing commits fast exactly when its target is resident {at}"
            );
            let label = if case.resident {
                "allowed, committed fast"
            } else {
                "allowed, target not resident"
            };
            (
                oracle::Outcome::Allowed(fast.machine.ring()),
                label.to_string(),
            )
        }
        StepOutcome::Trapped(fault) => {
            assert!(!committed_fast, "a refused crossing committed {at}");
            let outcome = match fault {
                Fault::SegmentFault { .. } => oracle::Outcome::Missing,
                Fault::UpwardCall { .. } | Fault::DownwardReturn { .. } => {
                    oracle::Outcome::SoftwareAssist
                }
                Fault::AccessViolation { .. } => oracle::Outcome::Violation,
                other => panic!("unexpected fault {other:?} {at}"),
            };
            let label = match fault {
                Fault::AccessViolation { violation, .. } => format!("{violation:?}"),
                Fault::SegmentFault { .. } => "SegmentFault".to_string(),
                Fault::UpwardCall { .. } => "UpwardCall".to_string(),
                _ => "DownwardReturn".to_string(),
            };
            (outcome, label)
        }
        StepOutcome::Halted => panic!("halted {at}"),
    };
    assert_eq!(outcome, expected, "oracle disagrees {at}");
    label
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A random CALL or RETURN on its resident (or absent) target
    /// descriptor: both engines reach the same state and the same
    /// fault, the oracle's outcome class, and the fast engine commits
    /// every allowed crossing whose target is resident.
    #[test]
    fn crossings_match_the_oracle_on_both_engines(seed in any::<u64>()) {
        check_crossing(&gen_crossing(&mut StdRng::seed_from_u64(seed)));
    }
}

/// The random crossings are not vacuous: between them they raise every
/// fault `check_call` and `check_return` can return, commit allowed
/// crossings on the fast path, and take the reference path for a
/// target whose descriptor is not resident.
#[test]
fn crossing_cases_reach_every_fig_8_9_outcome() {
    let seen: std::collections::BTreeSet<String> = (0..1500u64)
        .map(|seed| check_crossing(&gen_crossing(&mut StdRng::seed_from_u64(seed))))
        .collect();
    for label in [
        "SegmentFault",
        "OutOfBounds",
        "FlagOff",
        "AboveGateExtension",
        "UpwardCall",
        "NotAGate",
        "CallRingAnomaly",
        "OutsideBracket",
        "DownwardReturn",
        "allowed, committed fast",
        "allowed, target not resident",
    ] {
        assert!(seen.contains(label), "no case produced {label}: {seen:?}");
    }
}
