//! Deterministic record/replay of machine runs.
//!
//! [`Recorder`] captures the initial machine image, periodic
//! checkpoints, and every I/O completion as a run executes;
//! [`replay`] re-runs a [`Recording`] in a freshly built machine and
//! verifies it bit-for-bit (final registers, memory, cycles, I/O
//! timeline, checkpoints). [`seek`] restores the nearest checkpoint at
//! or before a target instruction count and re-executes forward — the
//! primitive behind `ringdbg`'s reverse-step.
//!
//! The simulator is deterministic by construction, so a recording's
//! I/O events are *verification* data (and future-proofing for device
//! models with real nondeterminism): replay checks each completion
//! arrives at the recorded instruction, cycle, and channel.
//!
//! Recording observes the machine only through uncounted reads, so a
//! recorded run is bit-identical to an unrecorded one.

use ring_core::access::Fault;
use ring_trace::{Checkpoint, IoEvent, Recording};

use crate::image::MachineImage;
use crate::machine::{Machine, RunExit, StepOutcome};

/// Default checkpoint interval in simulated cycles.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 50_000;

/// Captures a run into a [`Recording`].
#[derive(Debug)]
pub struct Recorder {
    recording: Recording,
    next_checkpoint: u64,
}

impl Recorder {
    /// Starts recording: captures `machine`'s current state as the
    /// initial image. `checkpoint_every` is in simulated cycles (0
    /// records only the endpoints).
    pub fn start(machine: &Machine, program: &str, checkpoint_every: u64) -> Recorder {
        Recorder {
            recording: Recording {
                program: program.to_string(),
                checkpoint_every,
                initial: machine.capture_image().into_words(),
                ..Recording::default()
            },
            next_checkpoint: machine.cycles().saturating_add(checkpoint_every.max(1)),
        }
    }

    /// Notes the outcome of one [`Machine::step`]: logs I/O completion
    /// deliveries and takes a checkpoint when the interval elapses.
    pub fn after_step(&mut self, machine: &Machine, outcome: &StepOutcome) {
        if let StepOutcome::Trapped(Fault::IoCompletion { channel }) = outcome {
            self.recording.io_events.push(IoEvent {
                instructions: machine.stats().instructions,
                cycles: machine.cycles(),
                channel: *channel,
            });
        }
        if self.recording.checkpoint_every > 0 && machine.cycles() >= self.next_checkpoint {
            self.recording.checkpoints.push(Checkpoint {
                instructions: machine.stats().instructions,
                cycles: machine.cycles(),
                image: machine.capture_image().into_words(),
            });
            self.next_checkpoint = machine.cycles() + self.recording.checkpoint_every;
        }
    }

    /// The recording accumulated so far (endpoints not yet stamped).
    pub fn recording(&self) -> &Recording {
        &self.recording
    }

    /// A finished copy of the recording as of `machine`'s current
    /// state; the recorder keeps running. Used by `ringdbg` to write a
    /// recording file mid-session.
    pub fn snapshot(&self, machine: &Machine) -> Recording {
        let mut r = self.recording.clone();
        r.final_instructions = machine.stats().instructions;
        r.final_cycles = machine.cycles();
        r.final_image = machine.capture_image().into_words();
        r
    }

    /// Finishes the recording: stamps the final instruction/cycle
    /// counts and captures the final image.
    pub fn finish(self, machine: &Machine) -> Recording {
        self.snapshot(machine)
    }
}

/// Runs `machine` for up to `budget` instructions under a recorder
/// (the recording analogue of [`Machine::run`]).
pub fn run_recorded(machine: &mut Machine, budget: u64, recorder: &mut Recorder) -> RunExit {
    for _ in 0..budget {
        let outcome = machine.step();
        recorder.after_step(machine, &outcome);
        if let StepOutcome::Halted = outcome {
            return match machine.double_fault() {
                Some(f) => RunExit::DoubleFault(f),
                None => RunExit::Halted,
            };
        }
    }
    RunExit::BudgetExhausted
}

/// The verdict of a [`replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Instructions retired by the replayed run.
    pub instructions: u64,
    /// Simulated cycles at the end of the replayed run.
    pub cycles: u64,
    /// Whether the replay reproduced the recording bit-for-bit.
    pub ok: bool,
    /// Human-readable description of the first divergence, if any.
    pub mismatch: Option<String>,
}

/// Replays `recording` in `machine` (which must be built from the same
/// program and configuration) and verifies it against the recorded
/// run: every I/O completion at the recorded instruction/cycle/channel,
/// every checkpoint (what [`seek`] restores) at its recorded cycle count
/// with the recorded instruction count and image, and a bit-identical
/// final image.
///
/// Returns `Err` only when the recording cannot be applied at all
/// (wrong machine shape); divergence during the run is reported in the
/// [`ReplayReport`].
pub fn replay(machine: &mut Machine, recording: &Recording) -> Result<ReplayReport, String> {
    machine.restore_image(&MachineImage::from_words(recording.initial.clone()))?;
    let mut mismatch: Option<String> = None;
    let mut io_seen = 0usize;
    let mut checkpoints_seen = 0usize;
    // Async trap deliveries retire no instruction, so allow headroom
    // beyond the instruction count before declaring the replay stuck.
    let max_steps = recording
        .final_instructions
        .saturating_add(recording.io_events.len() as u64 + 64)
        .saturating_mul(2);
    let mut steps = 0u64;
    while machine.stats().instructions < recording.final_instructions && mismatch.is_none() {
        if steps >= max_steps {
            mismatch = Some("replay made no progress".to_string());
            break;
        }
        steps += 1;
        let outcome = machine.step();
        if let StepOutcome::Trapped(Fault::IoCompletion { channel }) = outcome {
            let got = IoEvent {
                instructions: machine.stats().instructions,
                cycles: machine.cycles(),
                channel,
            };
            match recording.io_events.get(io_seen) {
                Some(want) if *want == got => io_seen += 1,
                Some(want) => {
                    mismatch = Some(format!(
                        "I/O completion diverged: recorded {want:?}, replayed {got:?}"
                    ));
                }
                None => {
                    mismatch = Some(format!("unrecorded I/O completion {got:?}"));
                }
            }
        }
        // The recorder checkpoints after the step that reaches its
        // cycle mark, so each checkpoint falls exactly on a step's end.
        while let Some(want) = recording.checkpoints.get(checkpoints_seen) {
            if mismatch.is_some() || machine.cycles() < want.cycles {
                break;
            }
            if machine.cycles() > want.cycles {
                mismatch = Some(format!(
                    "replay stepped past checkpoint {checkpoints_seen} at cycle {}",
                    want.cycles
                ));
            } else if machine.stats().instructions != want.instructions
                || machine.capture_image().words() != want.image.as_slice()
            {
                mismatch = Some(format!("checkpoint {checkpoints_seen} diverged"));
            }
            checkpoints_seen += 1;
        }
        if let StepOutcome::Halted = outcome {
            break;
        }
    }
    if mismatch.is_none() && checkpoints_seen != recording.checkpoints.len() {
        mismatch = Some(format!(
            "replay never reached checkpoint {checkpoints_seen}"
        ));
    }
    if mismatch.is_none() && io_seen != recording.io_events.len() {
        mismatch = Some(format!(
            "replay delivered {io_seen} of {} recorded I/O completions",
            recording.io_events.len()
        ));
    }
    if mismatch.is_none() && machine.stats().instructions != recording.final_instructions {
        mismatch = Some(format!(
            "instruction count diverged: recorded {}, replayed {}",
            recording.final_instructions,
            machine.stats().instructions
        ));
    }
    if mismatch.is_none() && machine.cycles() != recording.final_cycles {
        mismatch = Some(format!(
            "cycle count diverged: recorded {}, replayed {}",
            recording.final_cycles,
            machine.cycles()
        ));
    }
    if mismatch.is_none() && machine.capture_image().words() != recording.final_image.as_slice() {
        mismatch = Some("final machine image diverged".to_string());
    }
    Ok(ReplayReport {
        instructions: machine.stats().instructions,
        cycles: machine.cycles(),
        ok: mismatch.is_none(),
        mismatch,
    })
}

/// Positions `machine` exactly at `target` instructions of `recording`
/// by restoring the nearest checkpoint at or before it and
/// re-executing forward. The primitive behind reverse-step.
pub fn seek(machine: &mut Machine, recording: &Recording, target: u64) -> Result<(), String> {
    let (_, image) = recording.nearest_checkpoint(target);
    machine.restore_image(&MachineImage::from_words(image.to_vec()))?;
    let mut guard = target
        .saturating_sub(machine.stats().instructions)
        .saturating_add(1024)
        .saturating_mul(2);
    while machine.stats().instructions < target {
        if guard == 0 {
            return Err("seek made no progress".to_string());
        }
        guard -= 1;
        if let StepOutcome::Halted = machine.step() {
            break;
        }
    }
    Ok(())
}
