//! End-to-end tests of the deterministic flight recorder: record a
//! run (including gate storms and I/O completions), replay it in an
//! identically built world, and verify the replay is bit-identical —
//! final registers, memory, cycles, the span event stream, and every
//! I/O delivery point. Also pins the checkpoint/seek primitive behind
//! `ringdbg`'s reverse-step and the recording's JSON file format.

use multiring::core::access::Fault;
use multiring::core::ring::Ring;
use multiring::core::sdw::SdwBuilder;
use multiring::core::SegNo;
use multiring::cpu::machine::RunExit;
use multiring::cpu::native::NativeAction;
use multiring::cpu::testkit::World;
use multiring::cpu::{replay, run_recorded, seek, Direction, IoSystem, Recorder};
use multiring::os::workload::micro;
use multiring::trace::Recording;

/// A gate storm: `calls` unrolled gate calls from ring 4 into a ring-1
/// native service, ending in an exit derail handled by a halting trap
/// segment (the `tests/observability.rs` recipe, cranked up).
fn gate_storm_world(calls: u64) -> World {
    let mut w = World::new();
    let code = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(512),
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
    let out = multiring::asm::assemble(&asm).expect("gate-storm program");
    for (i, word) in out.words.iter().enumerate() {
        w.poke(code, i as u32, *word);
    }
    w
}

/// A ring-0 world that starts channel programs on channels 2 and 3 and
/// spins; the trap handler resumes on channel 3's completion and halts
/// on channel 2's — two asynchronous I/O deliveries per run.
fn io_world() -> World {
    let mut w = World::new();
    let code = w.add_segment(
        10,
        SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0).bound_words(64),
    );
    w.add_standard_stacks(16);
    let trap = w.add_trap_segment();
    w.machine
        .register_native(trap, |m, _| match m.last_fault() {
            Some(Fault::IoCompletion { channel: 3 }) => Ok(NativeAction::Resume),
            _ => Ok(NativeAction::Halt),
        });
    let (a0, a1) = IoSystem::channel_program(
        2,
        Direction::Output,
        multiring::core::AbsAddr::new(0).unwrap(),
        400,
    );
    let (b0, b1) = IoSystem::channel_program(
        3,
        Direction::Output,
        multiring::core::AbsAddr::new(0).unwrap(),
        150,
    );
    w.poke(code, 20, a0);
    w.poke(code, 21, a1);
    w.poke(code, 22, b0);
    w.poke(code, 23, b1);
    use multiring::cpu::isa::{Instr, Opcode};
    w.poke_instr(code, 0, Instr::direct(Opcode::Sio, 20));
    w.poke_instr(code, 1, Instr::direct(Opcode::Sio, 22));
    w.poke_instr(code, 2, Instr::direct(Opcode::Nop, 0));
    w.poke_instr(code, 3, Instr::direct(Opcode::Tra, 2));
    w
}

/// Record a gate storm with frequent checkpoints, replay it in a
/// freshly built world, and require a bit-identical outcome — final
/// image, cycle count, and the span event stream.
#[test]
fn gate_storm_record_replay_is_bit_identical() {
    const CALLS: u64 = 20;
    let mut rec_w = gate_storm_world(CALLS);
    rec_w.machine.enable_spans();
    rec_w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    let mut recorder = Recorder::start(&rec_w.machine, "gate_storm", 64);
    assert_eq!(
        run_recorded(&mut rec_w.machine, 10_000, &mut recorder),
        RunExit::Halted
    );
    let recording = recorder.finish(&rec_w.machine);
    assert!(
        recording.checkpoints.len() >= 2,
        "expected several checkpoints at a 64-cycle interval, got {}",
        recording.checkpoints.len()
    );
    assert_eq!(
        recording.final_instructions,
        rec_w.machine.stats().instructions
    );

    let mut rep_w = gate_storm_world(CALLS);
    rep_w.machine.enable_spans();
    rep_w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    let report = replay(&mut rep_w.machine, &recording).expect("recording applies");
    assert!(report.ok, "replay diverged: {:?}", report.mismatch);
    assert_eq!(report.instructions, recording.final_instructions);
    assert_eq!(report.cycles, recording.final_cycles);
    assert_eq!(
        rec_w.machine.take_span_events(),
        rep_w.machine.take_span_events(),
        "replayed span stream differs from the recorded run's"
    );

    // Checkpoints are what `seek` restores, so replay checks each one:
    // a changed image word, or a checkpoint moved off the cycle where
    // the run takes it, is a divergence that names the checkpoint.
    let mut image_tampered = recording.clone();
    *image_tampered.checkpoints[1].image.last_mut().unwrap() ^= 1;
    let mut cycles_tampered = recording.clone();
    cycles_tampered.checkpoints[1].cycles += 1;
    for tampered in [image_tampered, cycles_tampered] {
        let mut w = gate_storm_world(CALLS);
        w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
        let report = replay(&mut w.machine, &tampered).expect("recording applies");
        assert!(!report.ok, "a tampered checkpoint replayed clean");
        let mismatch = report.mismatch.unwrap();
        assert!(mismatch.contains("checkpoint 1"), "{mismatch}");
    }
}

/// The sampling profiler and the time-series pipeline are driven by
/// simulated cycles and the span stream only, so replaying a recording
/// in an identically profiled world must reproduce the folded profile
/// and the time-series JSON bit-for-bit.
#[test]
fn replay_reproduces_profile_and_timeseries_bit_identically() {
    const CALLS: u64 = 20;
    let mut rec_w = gate_storm_world(CALLS);
    rec_w.machine.enable_metrics();
    rec_w.machine.enable_profiler(50, 200);
    rec_w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    let mut recorder = Recorder::start(&rec_w.machine, "gate_storm_prof", 64);
    assert_eq!(
        run_recorded(&mut rec_w.machine, 10_000, &mut recorder),
        RunExit::Halted
    );
    let recording = recorder.finish(&rec_w.machine);
    let profile = rec_w.machine.profiler().folded();
    let series = rec_w.machine.timeseries().to_json();
    assert!(
        rec_w.machine.profiler().samples() > 0,
        "the storm must be long enough to sample"
    );
    assert!(
        !rec_w.machine.timeseries().is_empty(),
        "the storm must be long enough for a time-series point"
    );

    let mut rep_w = gate_storm_world(CALLS);
    rep_w.machine.enable_metrics();
    rep_w.machine.enable_profiler(50, 200);
    rep_w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    let report = replay(&mut rep_w.machine, &recording).expect("recording applies");
    assert!(report.ok, "replay diverged: {:?}", report.mismatch);
    assert_eq!(
        rep_w.machine.profiler().folded(),
        profile,
        "replayed folded profile differs from the recorded run's"
    );
    assert_eq!(
        rep_w.machine.timeseries().to_json(),
        series,
        "replayed time series differs from the recorded run's"
    );
}

/// Asynchronous I/O completions are nondeterministic inputs from the
/// recording's point of view: both deliveries must be logged, and the
/// replay must reproduce them at the recorded instruction, cycle, and
/// channel — and still reach a bit-identical final image.
#[test]
fn io_completions_record_and_replay_exactly() {
    let mut rec_w = io_world();
    rec_w.start(Ring::R0, SegNo::new(10).unwrap(), 0);
    let mut recorder = Recorder::start(&rec_w.machine, "io", 100);
    assert_eq!(
        run_recorded(&mut rec_w.machine, 10_000, &mut recorder),
        RunExit::Halted
    );
    let recording = recorder.finish(&rec_w.machine);
    assert_eq!(
        recording.io_events.len(),
        2,
        "both channel completions logged"
    );
    assert_eq!(
        recording.io_events[0].channel, 3,
        "channel 3 finishes first"
    );
    assert_eq!(recording.io_events[1].channel, 2);
    assert!(recording.io_events[0].cycles < recording.io_events[1].cycles);

    let mut rep_w = io_world();
    rep_w.start(Ring::R0, SegNo::new(10).unwrap(), 0);
    let report = replay(&mut rep_w.machine, &recording).expect("recording applies");
    assert!(report.ok, "replay diverged: {:?}", report.mismatch);
}

/// The recording survives its own file format: serialize to JSON,
/// parse back, and replay from the parsed copy (machine images travel
/// as hex strings, so every 36-bit word and 64-bit counter must be
/// lossless).
#[test]
fn recording_json_round_trips_and_replays() {
    let mut rec_w = gate_storm_world(5);
    rec_w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    let mut recorder = Recorder::start(&rec_w.machine, "roundtrip", 64);
    assert_eq!(
        run_recorded(&mut rec_w.machine, 10_000, &mut recorder),
        RunExit::Halted
    );
    let recording = recorder.finish(&rec_w.machine);

    let text = recording.to_json();
    let parsed = Recording::from_json(&text).expect("recording JSON parses");
    assert_eq!(parsed, recording, "JSON round trip must be lossless");

    let mut rep_w = gate_storm_world(5);
    rep_w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    let report = replay(&mut rep_w.machine, &parsed).expect("recording applies");
    assert!(
        report.ok,
        "replay of parsed recording diverged: {:?}",
        report.mismatch
    );
}

/// Checkpoint/seek fidelity (the reverse-step primitive): seeking to a
/// mid-run instruction via the nearest checkpoint plus re-execution
/// lands in exactly the state a from-scratch run reaches at that
/// instruction — including the SDW associative memory, whose contents
/// are architecturally visible through cycle counts.
#[test]
fn seek_matches_a_from_scratch_run() {
    const CALLS: u64 = 20;
    let mut rec_w = gate_storm_world(CALLS);
    rec_w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    let mut recorder = Recorder::start(&rec_w.machine, "seek", 64);
    assert_eq!(
        run_recorded(&mut rec_w.machine, 10_000, &mut recorder),
        RunExit::Halted
    );
    let recording = recorder.finish(&rec_w.machine);
    assert!(recording.checkpoints.len() >= 2);

    // A target past the first checkpoint, so the seek genuinely
    // restores mid-run state rather than replaying from the start.
    let target = recording.checkpoints[1].instructions + 7;
    assert!(target < recording.final_instructions);

    // Reference: a fresh world stepped from the beginning.
    let mut ref_w = gate_storm_world(CALLS);
    ref_w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    while ref_w.machine.stats().instructions < target {
        ref_w.machine.step();
    }

    let mut seek_w = gate_storm_world(CALLS);
    seek_w.start(Ring::R4, SegNo::new(10).unwrap(), 0);
    seek(&mut seek_w.machine, &recording, target).expect("seek");
    assert_eq!(seek_w.machine.stats().instructions, target);
    assert_eq!(seek_w.machine.cycles(), ref_w.machine.cycles());
    assert_eq!(seek_w.machine.ipr(), ref_w.machine.ipr());
    assert_eq!(
        seek_w.machine.capture_image().words(),
        ref_w.machine.capture_image().words(),
        "seek state differs from a from-scratch run at the same instruction"
    );
}

/// A seek restarts the fast-path caches cold, so the steps it re-runs
/// may take the reference path where the recorded run took the fast
/// path. Which engine ran a step is not machine state: seeking three
/// instructions past every checkpoint of a same-ring loop and of a
/// cross-ring gate storm must land in the image a from-scratch run
/// reaches there.
#[test]
fn seek_past_every_checkpoint_matches_a_from_scratch_run() {
    for name in ["tight_loop", "gate_storm"] {
        let build = || match name {
            "tight_loop" => micro::tight_loop(true, 40),
            _ => micro::gate_storm(true, 20),
        };
        let mut rec_w = build();
        let mut recorder = Recorder::start(&rec_w.machine, name, 64);
        assert_eq!(
            run_recorded(&mut rec_w.machine, 10_000, &mut recorder),
            RunExit::Halted
        );
        let recording = recorder.finish(&rec_w.machine);
        assert!(recording.checkpoints.len() >= 4, "{name}: few checkpoints");
        for cp in &recording.checkpoints {
            let target = cp.instructions + 3;
            assert!(target < recording.final_instructions);
            let mut ref_w = build();
            while ref_w.machine.stats().instructions < target {
                ref_w.machine.step();
            }
            let mut seek_w = build();
            seek(&mut seek_w.machine, &recording, target).expect("seek");
            assert_eq!(
                seek_w.machine.capture_image().words(),
                ref_w.machine.capture_image().words(),
                "{name}: seek to instruction {target} differs from a from-scratch run"
            );
        }
    }
}
