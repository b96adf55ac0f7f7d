//! The quantitative experiments (T1–T6): the paper's claims turned into
//! measured tables of simulated cycles.

use ring_core::addr::SegAddr;
use ring_core::registers::PtrReg;
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_cpu::native::NativeAction;
use ring_cpu::testkit::{addr, World};
use ring_os::acl::{Acl, AclEntry, Modes};
use ring_os::baseline::graham67::Graham67;
use ring_os::baseline::hardware::HardRings;
use ring_os::baseline::soft645::Soft645;
use ring_os::baseline::two_mode::TwoMode;
use ring_os::conventions::{gate_addr, hcs, segs};
use ring_os::driver::gen_call_sequence;
use ring_os::services;
use ring_os::strings::encode_string;
use ring_os::System;

use crate::render_table;

// ---------------------------------------------------------------------
// T1 — the headline crossing-cost comparison
// ---------------------------------------------------------------------

/// Cycles for the control program (register setup + exit, no call).
pub fn null_program_cycles() -> u64 {
    let mut w = World::new();
    let code = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(64),
    );
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    let out = ring_asm::assemble(
        "
        eap pr1, end
        eap pr2, end
        eap pr3, end
        drl 0o777
end:    nop
",
    )
    .expect("null program");
    for (i, word) in out.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    w.start(Ring::R4, code, 0);
    let before = w.machine.cycles();
    assert_eq!(w.machine.run(100), RunExit::Halted);
    w.machine.cycles() - before
}

/// Cycles for a software-mediated upward call + downward return round
/// trip (ring 1 calling ring 4): the one crossing the hardware hands to
/// software even in the paper's design.
pub fn upward_call_cycles() -> u64 {
    use ring_core::access::{vector, Fault};

    let mut w = World::new();
    let low = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R1).bound_words(64),
    );
    let high = w.add_segment(
        20,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4)
            .gates(1)
            .bound_words(16),
    );
    w.add_standard_stacks(16);
    let trap = w.add_trap_segment();

    // The mediator's return-gate stack lives in the machine's
    // native-state slot.
    type Gate = (Ring, SegAddr);
    w.machine.set_native_state(Vec::<Gate>::new());
    w.machine.register_native(trap, |m, entry| {
        let v = entry.value();
        if v == vector::UPWARD_CALL {
            let (_, _, target, _) = m.fault_info()?;
            let mut state = m.saved_state()?;
            m.charge(30); // software mediation work
            m.native_state_mut::<Vec<Gate>>()
                .ok_or(Fault::IndirectLimit)?
                .push((state.ipr.ring, state.prs[2].addr));
            state.ipr = ring_core::registers::Ipr::new(Ring::R4, target);
            for pr in state.prs.iter_mut() {
                *pr = pr.with_ring_floor(Ring::R4);
            }
            m.set_saved_state(&state)?;
            Ok(NativeAction::Resume)
        } else if v == vector::DOWNWARD_RETURN {
            let (_, _, target, _) = m.fault_info()?;
            let (ring, cont) = m
                .native_state_mut::<Vec<Gate>>()
                .and_then(Vec::pop)
                .ok_or(Fault::IndirectLimit)?;
            m.charge(25);
            let mut state = m.saved_state()?;
            debug_assert_eq!(target.segno, cont.segno);
            state.ipr = ring_core::registers::Ipr::new(ring, cont);
            m.set_saved_state(&state)?;
            Ok(NativeAction::Resume)
        } else {
            Ok(NativeAction::Halt)
        }
    });
    w.machine
        .register_native(high, |m, _| Ok(NativeAction::Return { via: m.pr(2) }));

    let out = ring_asm::assemble(
        "
        eap pr1, gatep
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0
ret0:   drl 0o777
gatep:  its 1, 20, 0
",
    )
    .expect("upward caller");
    for (i, word) in out.words.iter().enumerate() {
        w.poke(low, i as u32, *word);
    }
    w.start(Ring::R1, low, 0);
    let before = w.machine.cycles();
    assert_eq!(w.machine.run(200), RunExit::Halted);
    w.machine.cycles() - before
}

/// T1 — crossing cost by mechanism: the same call-with-2-arguments
/// round trip under every protection scheme.
pub fn t1_table() -> String {
    let n = 2;
    let base = null_program_cycles();
    let same = HardRings::new(n, Ring::R4).run_once(n);
    let down = HardRings::new(n, Ring::R1).run_once(n);
    let up = upward_call_cycles();
    let graham = Graham67::new(n).run_once(n);
    let soft = Soft645::new(n).run_once(n);
    let two = TwoMode::new(n).run_once(n);
    let ratio = |c: u64| format!("{:.2}x", c as f64 / same as f64);
    let rows = vec![
        vec![
            "control (no call)".into(),
            base.to_string(),
            String::new(),
            "0".into(),
        ],
        vec![
            "hardware rings: same-ring call".into(),
            same.to_string(),
            "1.00x".into(),
            "0".into(),
        ],
        vec![
            "hardware rings: downward call + upward return".into(),
            down.to_string(),
            ratio(down),
            "0".into(),
        ],
        vec![
            "hardware rings: upward call + downward return".into(),
            up.to_string(),
            ratio(up),
            "2".into(),
        ],
        vec![
            "Graham-67 partial hw: downward call + upward return".into(),
            graham.to_string(),
            ratio(graham),
            "2".into(),
        ],
        vec![
            "soft rings (645): downward call + upward return".into(),
            soft.to_string(),
            ratio(soft),
            "2".into(),
        ],
        vec![
            "two-mode machine: system call".into(),
            two.to_string(),
            ratio(two),
            "1".into(),
        ],
    ];
    render_table(
        "T1: protected-call round trip, 2 arguments (cycles)",
        &["mechanism", "cycles", "vs same-ring", "traps"],
        &rows,
    )
}

// ---------------------------------------------------------------------
// T2 — argument-count sweep
// ---------------------------------------------------------------------

/// T2 — crossing cost vs argument count under each mechanism.
pub fn t2_table() -> String {
    let rows: Vec<Vec<String>> = [1u32, 2, 4, 8, 16]
        .into_iter()
        .map(|n| {
            let hard = HardRings::new(n, Ring::R1).run_once(n);
            let graham = Graham67::new(n).run_once(n);
            let soft = Soft645::new(n).run_once(n);
            let two = TwoMode::new(n).run_once(n);
            vec![
                n.to_string(),
                hard.to_string(),
                graham.to_string(),
                soft.to_string(),
                two.to_string(),
                format!("{:.2}x", soft as f64 / hard as f64),
            ]
        })
        .collect();
    render_table(
        "T2: downward call + upward return vs argument count (cycles)",
        &[
            "args",
            "hardware",
            "graham-67",
            "soft-645",
            "two-mode",
            "soft/hard",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------
// T3 — the file-search example from the Conclusions
// ---------------------------------------------------------------------

fn rw_acl(user: &str) -> Acl {
    Acl::single(AclEntry::new(user, Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap())
}

/// Builds a directory tree `d0>d1>...` with `siblings` extra entries
/// per directory and measures one complete path search: in-supervisor
/// (`library == false`, one gate call) or via the unprotected library
/// pattern (`library == true`, one `fs_step` gate call per component).
pub fn fs_search_cycles(depth: u32, siblings: u32, library: bool) -> u64 {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    // Populate: the target path plus sibling noise in each directory.
    let comps: Vec<String> = (0..depth).map(|i| format!("d{i}")).collect();
    let path = comps.join(">");
    for i in 0..depth {
        let prefix = comps[..=i as usize].join(">");
        for s in 0..siblings {
            let noise = if i + 1 == depth {
                format!("{}>x{s}", comps[..i as usize].join(">"))
            } else {
                format!("{prefix}>sib{s}>leafless")
            };
            let _ = sys.state_mut().fs.create_segment(
                noise.trim_start_matches('>'),
                rw_acl("alice"),
                vec![],
            );
        }
    }
    sys.create_segment(&path, rw_acl("alice"), vec![Word::new(1)]);

    // Stage strings.
    let mut data = encode_string(&path);
    let mut comp_pos = Vec::new();
    for c in &comps {
        comp_pos.push(data.len() as u32);
        data.extend(encode_string(c));
    }
    let handle_pos = data.len() as u32;
    data.push(Word::ZERO);
    let result_pos = data.len() as u32;
    data.push(Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 256);

    let calls: Vec<(SegAddr, Vec<SegAddr>)> = if library {
        comp_pos
            .iter()
            .map(|&cp| {
                (
                    gate_addr(segs::HCS, hcs::FS_STEP),
                    vec![
                        SegAddr::from_parts(scratch.segno, handle_pos).unwrap(),
                        SegAddr::from_parts(scratch.segno, cp).unwrap(),
                        SegAddr::from_parts(scratch.segno, handle_pos).unwrap(),
                    ],
                )
            })
            .collect()
    } else {
        vec![(
            gate_addr(segs::HCS, hcs::FS_SEARCH),
            vec![
                SegAddr::from_parts(scratch.segno, 0).unwrap(),
                SegAddr::from_parts(scratch.segno, result_pos).unwrap(),
            ],
        )]
    };
    let seq = gen_call_sequence(Ring::R4, &calls);
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    sys.prepare(pid, code.segno, 0, Ring::R4);
    let before = sys.machine.cycles();
    assert_eq!(sys.machine.run(100_000), RunExit::Halted);
    assert_eq!(sys.machine.a().raw(), 0, "search must succeed");
    sys.machine.cycles() - before
}

/// T3 — in-supervisor search (one gate crossing) vs library search
/// (one small protected primitive per component).
pub fn t3_table() -> String {
    let rows: Vec<Vec<String>> = [1u32, 2, 3, 4, 6]
        .into_iter()
        .map(|depth| {
            let sup = fs_search_cycles(depth, 6, false);
            let lib = fs_search_cycles(depth, 6, true);
            vec![
                depth.to_string(),
                sup.to_string(),
                lib.to_string(),
                format!("{:.2}x", lib as f64 / sup as f64),
                depth.to_string(),
            ]
        })
        .collect();
    render_table(
        "T3: K-component file search, in-supervisor vs library (cycles; 6 siblings/dir)",
        &[
            "components",
            "supervisor",
            "library",
            "lib/sup",
            "gate calls (lib)",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------
// T4 — the typewriter-package example from the Conclusions
// ---------------------------------------------------------------------

/// Measures one typewriter write of `len` characters under the
/// monolithic (`split == false`) or split (`split == true`) package
/// design. Returns `(total cycles, ring-0 charged work)`.
pub fn tty_cycles(len: u32, split: bool) -> (u64, u64) {
    let mut sys = System::boot();
    let pid = sys.login("alice");
    let text: String = "abcdefgh".chars().cycle().take(len as usize).collect();
    let mut data = encode_string(&text);
    data.pop(); // drop the terminator; counted transfer
    let count_pos = data.len() as u32;
    data.push(Word::new(u64::from(len)));
    let out_pos = data.len() as u32;
    data.resize(data.len() + len as usize + 4, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 512);

    let calls: Vec<(SegAddr, Vec<SegAddr>)> = if split {
        // Ring-4 conversion library (native), then the minimal ring-0
        // primitive.
        let scratch_segno = scratch.segno;
        let lib = sys.install_native(pid, Ring::R4, Ring::R4, 1, move |m, _| {
            let ap = m.pr(1);
            let src = m.arg_pointer(ap, 0)?;
            let cnt_ptr = m.arg_pointer(ap, 1)?;
            let cnt = m.read_validated(cnt_ptr)?.raw() as u32;
            let dst = m.arg_pointer(ap, 2)?;
            for i in 0..cnt {
                let raw = m.read_validated(PtrReg::new(
                    src.ring,
                    SegAddr::new(src.addr.segno, src.addr.wordno.wrapping_add(i)),
                ))?;
                m.charge(services::cost::CONVERT_PER_CHAR);
                m.write_validated(
                    PtrReg::new(
                        dst.ring,
                        SegAddr::new(dst.addr.segno, dst.addr.wordno.wrapping_add(i)),
                    ),
                    services::tty_convert(raw),
                )?;
            }
            m.set_a(Word::ZERO);
            Ok(NativeAction::Return { via: m.pr(2) })
        });
        vec![
            (
                SegAddr::from_parts(lib, 0).unwrap(),
                vec![
                    SegAddr::from_parts(scratch_segno, 0).unwrap(),
                    SegAddr::from_parts(scratch_segno, count_pos).unwrap(),
                    SegAddr::from_parts(scratch_segno, out_pos).unwrap(),
                ],
            ),
            (
                gate_addr(segs::HCS, hcs::TTY_CONNECT),
                vec![
                    SegAddr::from_parts(scratch_segno, out_pos).unwrap(),
                    SegAddr::from_parts(scratch_segno, count_pos).unwrap(),
                ],
            ),
        ]
    } else {
        vec![(
            gate_addr(segs::HCS, hcs::TTY_WRITE),
            vec![
                SegAddr::from_parts(scratch.segno, 0).unwrap(),
                SegAddr::from_parts(scratch.segno, count_pos).unwrap(),
            ],
        )]
    };
    let seq = gen_call_sequence(Ring::R4, &calls);
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    sys.prepare(pid, code.segno, 0, Ring::R4);
    let before = sys.machine.cycles();
    assert_eq!(sys.machine.run(100_000), RunExit::Halted);
    assert_eq!(sys.machine.a().raw(), 0, "tty write must succeed");
    let total = sys.machine.cycles() - before;
    // Ring-0 charged work: conversion (monolithic only) + copy.
    let ring0 = if split {
        u64::from(len) * services::cost::COPY_PER_WORD
    } else {
        u64::from(len) * (services::cost::CONVERT_PER_CHAR + services::cost::COPY_PER_WORD)
    };
    (total, ring0)
}

/// T4 — monolithic ring-0 typewriter package vs the split design where
/// only the buffer copy and channel start are protected.
pub fn t4_table() -> String {
    let rows: Vec<Vec<String>> = [4u32, 16, 64, 128]
        .into_iter()
        .map(|len| {
            let (mono, mono_r0) = tty_cycles(len, false);
            let (split, split_r0) = tty_cycles(len, true);
            vec![
                len.to_string(),
                mono.to_string(),
                mono_r0.to_string(),
                split.to_string(),
                split_r0.to_string(),
                format!("{:.2}x", mono_r0 as f64 / split_r0 as f64),
            ]
        })
        .collect();
    render_table(
        "T4: typewriter output, monolithic ring-0 package vs split design",
        &[
            "chars",
            "mono cycles",
            "mono ring-0 work",
            "split cycles",
            "split ring-0 work",
            "ring-0 reduction",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------
// T5 — SDW associative-memory ablation
// ---------------------------------------------------------------------

/// Runs a loop touching `segments` distinct data segments with an SDW
/// cache of `cache_size` entries; returns (cycles per iteration, hit
/// ratio).
pub fn sdw_cache_run(cache_size: usize, segments: u32) -> (f64, f64) {
    let cfg = ring_cpu::machine::MachineConfig {
        sdw_cache: cache_size,
        ..Default::default()
    };
    let mut w = World::with_config(cfg);
    let code = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(256),
    );
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    // Data segments 12..12+segments; the program loads one word from
    // each per iteration through an ITS table in the code segment, in
    // an endless loop measured by instruction budget.
    let mut asm = String::from("loop:\n");
    for i in 0..segments {
        w.add_segment(12 + i, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
        asm.push_str(&format!("        lda p{i},*\n"));
    }
    asm.push_str("        tra loop\n");
    for i in 0..segments {
        asm.push_str(&format!("p{i}:    its 4, {}, 3\n", 12 + i));
    }
    let out = ring_asm::assemble(&asm).expect("cache loop");
    for (i, word) in out.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    w.start(Ring::R4, code, 0);
    w.machine.translator_mut().reset_cache_stats();
    let before = w.machine.cycles();
    let _ = w.machine.run(2_000);
    let cycles = w.machine.cycles() - before;
    let stats = w.machine.translator().cache_stats();
    let per_iter = cycles as f64 / 2_000.0;
    (per_iter, stats.hit_ratio())
}

/// T5 — SDW associative-memory size sweep.
pub fn t5_table() -> String {
    let mut rows = Vec::new();
    for &ws in &[4u32, 12, 20] {
        for &cs in &[0usize, 4, 8, 16, 32] {
            let (cyc, hit) = sdw_cache_run(cs, ws);
            rows.push(vec![
                ws.to_string(),
                cs.to_string(),
                format!("{cyc:.2}"),
                format!("{:.1}%", hit * 100.0),
            ]);
        }
    }
    render_table(
        "T5: SDW associative memory — cycles/instruction and hit ratio",
        &[
            "working-set segs",
            "cache entries",
            "cycles/instr",
            "hit ratio",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------
// T6 — ablation of the effective-ring rules + crossover analysis
// ---------------------------------------------------------------------

/// Runs the confused-deputy argument attack under the given rules:
/// a ring-4 caller passes an argument pointer naming a ring-1 private
/// word; the ring-1 service writes through it. Returns `true` if the
/// write was (wrongly) permitted.
pub fn argument_attack_succeeds(rules: ring_core::effective::EffectiveRingRules) -> bool {
    let cfg = ring_cpu::machine::MachineConfig {
        ea_rules: rules,
        ..Default::default()
    };
    let mut w = World::with_config(cfg);
    let code = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(128),
    );
    // Ring-1 private data the attacker wants overwritten.
    let private = w.add_segment(15, SdwBuilder::data(Ring::R1, Ring::R1).bound_words(16));
    w.poke(private, 2, Word::new(0o111111));
    // Attacker-writable table holding the malicious argument pointer.
    let table = w.add_segment(16, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(16));
    w.write_ind_word(
        table,
        0,
        ring_core::registers::IndWord::new(Ring::R0, addr(15, 2), false),
    );
    let service = w.add_segment(
        20,
        SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R5)
            .gates(1)
            .bound_words(16),
    );
    w.add_standard_stacks(16);
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |_, _| Ok(NativeAction::Halt));
    // The service writes 0 through its first argument — the standard
    // "zero this out-parameter" behaviour an attacker abuses.
    w.machine.register_native(service, |m, _| {
        let ap = m.pr(1);
        let argp = m.arg_pointer(ap, 0)?;
        match m.write_validated(argp, Word::ZERO) {
            Ok(()) => m.set_a(Word::ZERO),
            Err(_) => m.set_a(Word::new(1)),
        }
        Ok(NativeAction::Return { via: m.pr(2) })
    });
    let out = ring_asm::assemble(
        "
        eap pr1, argl
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0
ret0:   drl 0o777
gatep:  its 4, 20, 0
argl:   its 0, 16, 0, i    ; argument list entry: ring field forged to
                            ; 0, indirect through the attacker table
",
    )
    .expect("attack program");
    for (i, word) in out.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    w.start(Ring::R4, code, 0);
    let _ = w.machine.run(1_000);
    // The attack succeeded if the private word was zeroed.
    w.peek(private, 2) == Word::ZERO
}

/// T6a — the ablation matrix: which effective-ring rules block the
/// argument attack.
pub fn t6_ablation_table() -> String {
    use ring_core::effective::EffectiveRingRules;
    let variants: [(&str, EffectiveRingRules); 4] = [
        (
            "paper design (IND.RING + write-bracket)",
            EffectiveRingRules::PAPER,
        ),
        (
            "IND.RING only",
            EffectiveRingRules {
                use_pr_ring: false,
                use_ind_ring: true,
                use_write_bracket: false,
            },
        ),
        (
            "write-bracket only",
            EffectiveRingRules {
                use_pr_ring: false,
                use_ind_ring: false,
                use_write_bracket: true,
            },
        ),
        ("neither (1969 thesis)", EffectiveRingRules::NO_IND_TRACKING),
    ];
    let rows: Vec<Vec<String>> = variants
        .into_iter()
        .map(|(name, rules)| {
            let attacked = argument_attack_succeeds(rules);
            vec![
                name.to_string(),
                if attacked {
                    "ATTACK SUCCEEDS"
                } else {
                    "blocked"
                }
                .to_string(),
            ]
        })
        .collect();
    render_table(
        "T6a: confused-deputy argument attack vs effective-ring rules",
        &["rules", "outcome"],
        &rows,
    )
}

/// T6b — crossover analysis: overhead of each mechanism as a function
/// of protected-call frequency, derived from the measured primitives.
pub fn t6_crossover_table() -> String {
    let n = 2;
    let base = null_program_cycles();
    let hard = HardRings::new(n, Ring::R1).run_once(n).saturating_sub(base);
    let graham = Graham67::new(n).run_once(n).saturating_sub(base);
    let soft = Soft645::new(n).run_once(n).saturating_sub(base);
    let two = TwoMode::new(n).run_once(n).saturating_sub(base);
    let plain_instr_cycles = 9.0; // measured: LDA with one memory operand
    let rows: Vec<Vec<String>> = [1u32, 10, 50, 100, 300]
        .into_iter()
        .map(|calls_per_10k| {
            let work = 10_000.0 * plain_instr_cycles;
            let pct = |c: u64| {
                let overhead = f64::from(calls_per_10k) * c as f64;
                format!("{:.1}%", 100.0 * overhead / work)
            };
            vec![
                calls_per_10k.to_string(),
                pct(hard),
                pct(graham),
                pct(soft),
                pct(two),
            ]
        })
        .collect();
    render_table(
        "T6b: protection overhead vs protected-call frequency (per 10k instructions)",
        &[
            "calls/10k instr",
            "hardware rings",
            "graham-67",
            "soft-645",
            "two-mode",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------
// T7 — what the observability layer sees
// ---------------------------------------------------------------------

/// Runs `iters` round trips of the T1 workload against `target_ring`
/// with the metrics recorder on and returns the snapshot.
pub fn crossing_census(target_ring: Ring, iters: u32) -> ring_cpu::MetricsSnapshot {
    let n = 2;
    let mut fix = HardRings::new(n, target_ring);
    fix.world.machine.enable_metrics();
    for _ in 0..iters {
        fix.run_once(n);
    }
    fix.world.machine.metrics_snapshot()
}

/// T7 — the telemetry census: every counter the observability layer
/// records for the same-ring control vs the cross-ring run, straight
/// from [`ring_cpu::MetricsSnapshot`] rather than hand-derived
/// arithmetic. The headline row is `trap_to_ring0`: the cross-ring runs
/// add ring changes without adding traps.
pub fn t7_table() -> String {
    let iters = 50;
    let same = crossing_census(Ring::R4, iters);
    let down = crossing_census(Ring::R1, iters);
    let lookup =
        |s: &ring_cpu::MetricsSnapshot, key: &str| s.crossing(key).unwrap_or(0).to_string();
    let mut rows: Vec<Vec<String>> = [
        "call_down",
        "call_same_ring",
        "return_up",
        "return_same_ring",
        "trap_to_ring0",
    ]
    .into_iter()
    .map(|k| vec![k.to_string(), lookup(&same, k), lookup(&down, k)])
    .collect();
    rows.push(vec![
        "ring changes".into(),
        same.ring_changes.to_string(),
        down.ring_changes.to_string(),
    ]);
    rows.push(vec![
        "faults".into(),
        same.faults_total.to_string(),
        down.faults_total.to_string(),
    ]);
    rows.push(vec![
        "mean CALL cycles".into(),
        format!("{:.1}", same.call_cycles.mean),
        format!("{:.1}", down.call_cycles.mean),
    ]);
    rows.push(vec![
        "mean RETURN cycles".into(),
        format!("{:.1}", same.return_cycles.mean),
        format!("{:.1}", down.return_cycles.mean),
    ]);
    rows.push(vec![
        "SDW cache hit ratio".into(),
        format!("{:.1}%", 100.0 * same.sdw_cache.hit_ratio()),
        format!("{:.1}%", 100.0 * down.sdw_cache.hit_ratio()),
    ]);
    rows.push(vec![
        "TPR maximisations".into(),
        same.tpr_maximisations.to_string(),
        down.tpr_maximisations.to_string(),
    ]);
    render_table(
        &format!("T7: observability census, {iters} protected-call round trips (2 args)"),
        &["counter", "same-ring", "down-call"],
        &rows,
    )
}

/// All quantitative tables, concatenated.
pub fn all_tables() -> String {
    [
        t1_table(),
        t2_table(),
        t3_table(),
        t4_table(),
        t5_table(),
        t6_ablation_table(),
        t6_crossover_table(),
        t7_table(),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_core::effective::EffectiveRingRules;

    #[test]
    fn t1_shapes_hold() {
        let base = null_program_cycles();
        let same = HardRings::new(2, Ring::R4).run_once(2);
        let down = HardRings::new(2, Ring::R1).run_once(2);
        let soft = Soft645::new(2).run_once(2);
        let two = TwoMode::new(2).run_once(2);
        assert_eq!(same, down, "crossing is free in hardware");
        assert!(soft > down, "soft rings cost more");
        assert!(two > down, "two-mode traps cost more");
        assert!(base < same, "control is cheapest");
        // Net-of-control factor: the trap-based schemes are several
        // times the hardware scheme.
        assert!((soft - base) >= 3 * (down - base));
    }

    #[test]
    fn t3_library_overhead_grows_with_depth() {
        let sup1 = fs_search_cycles(1, 4, false);
        let lib1 = fs_search_cycles(1, 4, true);
        let sup4 = fs_search_cycles(4, 4, false);
        let lib4 = fs_search_cycles(4, 4, true);
        let over1 = lib1 as f64 / sup1 as f64;
        let over4 = lib4 as f64 / sup4 as f64;
        assert!(
            lib4 > sup4,
            "at depth 4 the library's per-component crossings dominate ({lib4} vs {sup4})"
        );
        assert!(
            over4 > over1,
            "library overhead grows with depth ({over1:.2} -> {over4:.2})"
        );
    }

    #[test]
    fn t4_split_design_shrinks_ring0_work() {
        let (_, mono_r0) = tty_cycles(32, false);
        let (_, split_r0) = tty_cycles(32, true);
        assert!(split_r0 * 3 <= mono_r0, "{split_r0} vs {mono_r0}");
    }

    #[test]
    fn t5_cache_helps() {
        let (none, hit_none) = sdw_cache_run(0, 8);
        let (full, hit_full) = sdw_cache_run(16, 8);
        assert_eq!(hit_none, 0.0);
        assert!(hit_full > 0.8, "working set fits: {hit_full}");
        assert!(full < none, "cache reduces cycles ({full} vs {none})");
    }

    #[test]
    fn t7_census_matches_the_workload() {
        let iters = 10;
        let down = crossing_census(Ring::R1, iters);
        let n = u64::from(iters);
        // One hardware down-call and one up-return per round trip,
        // plus the exit derail's trap to ring 0 — and nothing else.
        assert_eq!(down.crossing("call_down"), Some(n));
        assert_eq!(down.crossing("return_up"), Some(n));
        assert_eq!(down.crossing("trap_to_ring0"), Some(n));
        assert_eq!(down.crossing("upward_call_trap"), Some(0));
        assert_eq!(down.faults_total, n);
        assert_eq!(down.call_cycles.count, n);
        // The same-ring control crosses no ring boundary on CALL.
        let same = crossing_census(Ring::R4, iters);
        assert_eq!(same.crossing("call_down"), Some(0));
        assert_eq!(same.crossing("call_same_ring"), Some(n));
        assert!(same.ring_changes < down.ring_changes);
    }

    #[test]
    fn t6_attack_blocked_only_by_the_paper_rules() {
        assert!(!argument_attack_succeeds(EffectiveRingRules::PAPER));
        assert!(argument_attack_succeeds(
            EffectiveRingRules::NO_IND_TRACKING
        ));
        // IND.RING alone does not help against a *forged* ring field —
        // the write-bracket rule is what catches tampering.
        assert!(argument_attack_succeeds(EffectiveRingRules {
            use_pr_ring: false,
            use_ind_ring: true,
            use_write_bracket: false,
        }));
        assert!(!argument_attack_succeeds(EffectiveRingRules {
            use_pr_ring: false,
            use_ind_ring: false,
            use_write_bracket: true,
        }));
    }
}
