//! Hostile input never panics the host. One property per decoder that
//! reads untrusted bytes: assembler source, chaos plan files, the
//! machine tools' command line, flight recordings (decoded, then
//! replayed), and machine images. Each
//! decoder must answer every input with a value or an error, and so
//! must the recording decoder on nesting deep enough to overflow a
//! recursive parser's stack.

use proptest::collection::vec;
use proptest::prelude::*;

use multiring::cli::{number, value, MachineArgs};
use multiring::core::ring::Ring;
use multiring::core::sdw::SdwBuilder;
use multiring::core::SegNo;
use multiring::cpu::machine::RunExit;
use multiring::cpu::native::NativeAction;
use multiring::cpu::testkit::World;
use multiring::cpu::{replay, run_recorded, FaultPlan, MachineImage, Recorder};
use multiring::trace::Recording;

/// Assembler token soup: mnemonics, directives, operand syntax, signs,
/// numbers at the edge of `i64`, and multi-byte characters.
const ASM_TOKENS: &[&str] = &[
    "lda",
    "sta",
    "ada",
    "tra",
    "call",
    "return",
    "eap",
    "ldx",
    "drl",
    "nop",
    "dw",
    "org",
    "bss",
    "its",
    "equ",
    "pr1",
    "pr9",
    "|",
    ",",
    ",*",
    ",x2",
    "=",
    "+",
    "-",
    "+",
    "-",
    "0",
    "1",
    "0o17",
    "o7",
    "0o",
    "9223372036854775807",
    "-9223372036854775807",
    "262143",
    "x",
    "loop",
    "_a",
    "loop:",
    ":",
    ";",
    " ",
    " ",
    "\n",
    "\t",
    "é",
    "λ",
    "日本",
    "\u{1F600}",
    "'",
    "\"",
];

/// Plan-file token soup: cycles (huge, signed, non-numeric), kind keys
/// valid and not, comments, separators and multi-byte characters.
const PLAN_TOKENS: &[&str] = &[
    "0",
    "100",
    "100",
    "18446744073709551615",
    "18446744073709551616",
    "-5",
    "0x10",
    "mem_parity",
    "sdw_corrupt",
    "ptw_corrupt",
    "drum_read_error",
    "drum_write_error",
    "lost_io_completion",
    "tlb_corrupt",
    "spurious_timer",
    "nonsense",
    "#",
    " ",
    " ",
    "\t",
    "\n",
    "\n",
    "\r\n",
    "é",
    "\u{1F600}",
];

/// Command-line token soup: every machine flag, a tool flag with a
/// value, values in and out of every range, file names, and words no
/// tool knows.
const ARG_TOKENS: &[&str] = &[
    "--ring",
    "--no-fastpath",
    "--procs",
    "--quantum",
    "--frames",
    "--pages",
    "--rounds",
    "--chaos-seed",
    "--chaos-rate",
    "--chaos-plan",
    "--budget",
    "--frobnicate",
    "-",
    "--",
    "prog.rasm",
    "plan.txt",
    "0",
    "1",
    "4",
    "5",
    "7",
    "8",
    "256",
    "257",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "x",
    "",
    "é",
    "\u{1F600}",
];

/// The world a generated command line asks for first: none (the rest
/// may still name one), a kernel of a few processes, the bare world's
/// program, a kernel running that program, or a program file that is
/// not there.
const ARG_WORLDS: &[&[&str]] = &[
    &[],
    &["--procs", "1"],
    &["--procs", "3"],
    &["--procs", "8"],
    &["examples/asm/subroutine.rasm"],
    &["examples/asm/subroutine.rasm", "--procs", "2"],
    &["missing.rasm"],
];

/// Well-formed machine flags, one per entry of the `cli` flag table
/// (and `--budget`, the tools' own flag the property parses), each with
/// values it accepts. Process and page counts stay small: a kernel
/// build installs every process's storm segment eagerly.
const ARG_FLAGS: &[(&str, &[&str])] = &[
    ("--ring", &["0", "4", "7"]),
    ("--no-fastpath", &[]),
    ("--procs", &["1", "2", "4"]),
    ("--quantum", &["1", "400", "5000"]),
    ("--frames", &["0", "4", "16"]),
    ("--pages", &["5", "6", "16"]),
    ("--rounds", &["1", "30"]),
    ("--chaos-seed", &["0", "7"]),
    ("--chaos-rate", &["1", "250"]),
    ("--chaos-plan", &["missing-plan.txt"]),
    ("--budget", &["1", "20000000"]),
];

/// A ring-4 program making `calls` gate calls into a ring-1 native
/// service, then exiting through a halting trap segment, with a chaos
/// campaign armed so captured images carry every section.
fn storm_world(calls: u64) -> World {
    let mut w = World::new();
    let code = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(256),
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
    w.machine
        .register_native(service, |m, _| Ok(NativeAction::Return { via: m.pr(2) }));
    let mut asm = String::new();
    for i in 0..calls {
        asm.push_str(&format!(
            "        eap pr2, ret{i}\n        eap pr3, gatep,*\n        call pr3|0\nret{i}:  nop\n"
        ));
    }
    asm.push_str("        drl 0o777\ngatep:  its 4, 20, 0\n");
    let out = multiring::asm::assemble(&asm).expect("storm program");
    for (i, word) in out.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    w.machine.set_chaos(multiring::cpu::ChaosEngine::with_plan(
        FaultPlan::Campaign {
            seed: 7,
            mean_interval: 40,
        },
    ));
    w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    w
}

/// A real recording of the storm world, checkpointed every 32 cycles.
fn real_recording() -> Recording {
    let mut w = storm_world(6);
    let mut rec = Recorder::start(&w.machine, "storm", 32);
    let exit = run_recorded(&mut w.machine, 10_000, &mut rec);
    assert_eq!(exit, RunExit::Halted);
    rec.finish(&w.machine)
}

/// Overwrites `text` at each `(position, byte)` pair, positions taken
/// modulo the length.
fn mutate_bytes(text: &str, edits: &[(usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(at, b) in edits {
        let i = at % bytes.len();
        bytes[i] = b;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Replaces image words at `(position, value, small)`: a small value
/// (below 16) stands for a plausible count or flag, a large one (bit 62
/// set) for a hostile count.
fn mutate_words(words: &[u64], edits: &[(usize, u64, bool)]) -> Vec<u64> {
    let mut out = words.to_vec();
    for &(at, v, small) in edits {
        let i = at % out.len();
        out[i] = if small { v % 16 } else { v | (1 << 62) };
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn assembler_never_panics(picks in vec(0..ASM_TOKENS.len(), 0..24)) {
        let source: String = picks.iter().map(|&i| ASM_TOKENS[i]).collect();
        let _ = multiring::asm::assemble(&source);
    }

    /// Every argument list parses to flags or an error, and every
    /// parsed one builds a world or says why it cannot. The lists mix
    /// well-formed flags with token soup, so most parse and many build
    /// a kernel.
    #[test]
    fn machine_args_parser_never_panics(
        world in 0..ARG_WORLDS.len(),
        picks in vec((0..12usize, 0..ARG_FLAGS.len(), any::<usize>(), 0..ARG_TOKENS.len()), 0..6),
    ) {
        let flags = picks.iter().flat_map(|&(kind, flag, v, token)| {
            if kind == 0 {
                return vec![ARG_TOKENS[token]];
            }
            let (flag, values) = ARG_FLAGS[flag];
            let mut pair = vec![flag];
            pair.extend(values.get(v % values.len().max(1)));
            pair
        });
        let args: Vec<String> = ARG_WORLDS[world]
            .iter()
            .copied()
            .chain(flags)
            .map(str::to_string)
            .collect();
        let parsed = MachineArgs::parse(args, |flag, args| match flag {
            "--budget" => value(args, flag, "a count", number::<u64>).map(|_| true),
            _ => Ok(false),
        });
        if let Ok(m) = parsed {
            let _ = m.build();
        }
    }

    #[test]
    fn plan_parser_never_panics(picks in vec(0..PLAN_TOKENS.len(), 0..24)) {
        let text: String = picks.iter().map(|&i| PLAN_TOKENS[i]).collect();
        if let Ok(plan) = FaultPlan::parse(&text) {
            let _ = multiring::cpu::ChaosEngine::with_plan(plan);
        }
    }
}

/// A kernel that does not fit physical memory is an error of
/// `MachineArgs::build` naming the process count; 239 storm processes
/// still fit.
#[test]
fn kernels_too_big_for_physical_memory_are_build_errors() {
    let build = |args: &[&str]| {
        MachineArgs::parse(args.iter().map(|a| a.to_string()), |_, _| Ok(false))
            .expect("flags parse")
            .build()
    };
    assert!(build(&["--procs", "239"]).is_ok());
    for procs in ["240", "18446744073709551615"] {
        let Err(e) = build(&["--procs", procs]) else {
            panic!("--procs {procs} built");
        };
        assert!(e.starts_with(&format!("--procs {procs}: ")), "{e}");
    }
}

/// Nesting far past any real recording is an error. A parser that
/// recursed once per level would overflow the stack here, which aborts
/// the process where no test can catch it.
#[test]
fn deeply_nested_recording_is_an_error() {
    for open in ["[", "{\"checkpoints\": "] {
        let text = open.repeat(100_000);
        assert!(Recording::from_json(&text).is_err(), "{open} x 100000");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_recordings_never_panic(edits in vec((any::<usize>(), any::<u8>()), 1..6)) {
        let text = mutate_bytes(&real_recording().to_json(), &edits);
        if let Ok(recording) = Recording::from_json(&text) {
            let mut w = storm_world(6);
            let _ = replay(&mut w.machine, &recording);
        }
    }

    #[test]
    fn mutated_images_never_panic(
        pick in 0usize..3,
        edits in vec((any::<usize>(), any::<u64>(), any::<bool>()), 0..4),
        cut in any::<usize>(),
        truncate in any::<bool>(),
    ) {
        let recording = real_recording();
        let source = match pick {
            0 => &recording.initial,
            1 => &recording.checkpoints[recording.checkpoints.len() / 2].image,
            _ => &recording.final_image,
        };
        let mut words = mutate_words(source, &edits);
        if truncate {
            words.truncate(cut % (words.len() + 1));
        }
        let mut w = storm_world(6);
        if w.machine.restore_image(&MachineImage::from_words(words)).is_ok() {
            // A restored image is a machine like any other: it runs.
            let _ = w.machine.run(200);
        }
    }
}
