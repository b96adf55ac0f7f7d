//! The self-healing fleet supervisor: checkpoint, restart, quarantine.
//!
//! The paper's recovery story is layered: hardware detects an error,
//! traps to ring 0, and ring-0 software repairs or confines the
//! damage. This module supplies the layer *above* ring 0 — the fleet
//! operator. Each supervised machine runs its chaos campaign in
//! cycle-bounded slices; at every slice boundary whose protection
//! invariants hold, the supervisor captures a full
//! [`SystemCheckpoint`] — a clone of the system. When a machine fails
//! terminally — wedged past its watchdog, double-faulted,
//! invariant-broken after a recovery that claimed success, or lost to
//! a host panic — the supervisor restarts it by resuming a clone of
//! the latest good checkpoint, with a fresh
//! (attempt-salted) fault stream and a deterministic, exponentially
//! backed-off charge of dead cycles. A machine that exhausts its
//! restart budget is quarantined: its result is kept and reported, but
//! excluded from the fleet's healthy merged snapshot.
//!
//! Everything the supervisor does is a pure function of the fleet
//! seed, the machine spec, and the supervisor config — no wall clock,
//! no host randomness — so restarts, quarantines, and the merged
//! snapshot are bit-identical across worker-thread counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ring_chaos::{mix_seed, FailureClass, FaultPlan, MachineFailure};
use ring_cpu::machine::RunExit;
use ring_os::workload::StormProc;
use ring_os::SystemCheckpoint;

use crate::{all_exited, FleetConfig, MachineResult, MachineSpec, MemberWorld};

/// Chaos-campaign parameters shared by every supervised machine. Each
/// machine's actual fault stream is seeded from these plus its own
/// spec seed and the attempt number, so streams are uncorrelated
/// across machines and do not repeat across restarts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosParams {
    /// Fleet-level chaos seed (mixed with each machine's spec seed).
    pub seed: u64,
    /// Mean simulated cycles between injected faults (lower = hotter).
    pub mean_interval: u64,
}

/// Dead simulated cycles charged before restart attempt `n`, scaled by
/// `2^(n-1)` (deterministic exponential backoff).
pub(crate) const BACKOFF_CYCLES: u64 = 25_000;

/// Supervisor policy: checkpoint cadence, watchdog, restart budget.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Chaos campaign to run on every machine; `None` disables both
    /// injection and the slicing/checkpoint machinery (a chaos-free
    /// fleet runs exactly as an unsupervised one).
    pub chaos: Option<ChaosParams>,
    /// Simulated cycles between checkpoints (and watchdog polls).
    pub checkpoint_every: u64,
    /// Restarts allowed before a machine is quarantined.
    pub restart_budget: u32,
    /// Simulated-cycle ceiling per attempt; a machine still running at
    /// the ceiling is classified [`FailureClass::Wedged`].
    pub watchdog_cycles: u64,
    /// Host-level kill injector: every attempt of this machine panics
    /// on the worker thread, exercising the [`FailureClass::HostPanic`]
    /// path (tests and demos; `None` in production).
    pub kill_machine: Option<usize>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            chaos: None,
            checkpoint_every: 250_000,
            restart_budget: 2,
            watchdog_cycles: 1_000_000_000,
            kill_machine: None,
        }
    }
}

/// One supervised machine's health ledger.
#[derive(Clone, Debug, Default)]
pub struct MachineHealth {
    /// Restarts performed (each preceded by a recorded failure).
    pub restarts: u32,
    /// Every terminal attempt failure, in attempt order (includes the
    /// final one when the machine was quarantined).
    pub failures: Vec<MachineFailure>,
    /// Set when the machine exhausted its restart budget; carries the
    /// final failure.
    pub quarantined: Option<MachineFailure>,
    /// Simulated cycles spent recovering: for each restart, the work
    /// rolled back to the checkpoint plus the backoff charge.
    pub recovery_cycles: u64,
}

impl MachineHealth {
    /// Whether the machine ended quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.is_some()
    }
}

/// What one attempt produced: the machine-derived result fields plus
/// either clean completion or a classified failure.
struct Attempt {
    outcome: Result<(), MachineFailure>,
    instructions: u64,
    cycles: u64,
    completed: bool,
    halted: bool,
    dirty_pages: u32,
    snapshot: ring_metrics::MetricsSnapshot,
}

/// The latest good restart point: a checkpoint and the workload
/// processes running on it.
type RestartPoint = (SystemCheckpoint, Vec<StormProc>);

/// Runs one attempt: resume a clone of the latest good checkpoint, or
/// build the world afresh when there is none yet (attempt 0, or a
/// failure before the first checkpoint), arm the attempt-salted chaos
/// stream, then run in checkpoint-cadence slices under the watchdog.
fn run_attempt(
    build: &dyn Fn() -> MemberWorld,
    cfg: &FleetConfig,
    spec: MachineSpec,
    attempt: u32,
    latest: &mut Option<RestartPoint>,
) -> Attempt {
    let sup = &cfg.supervisor;
    let (mut sys, procs) = match latest.as_ref() {
        Some((ck, procs)) => (ck.resume(), procs.clone()),
        None => build(),
    };
    if attempt > 0 {
        // Exponential backoff, in dead simulated cycles: deterministic,
        // and visible to the cycle-addressed chaos stream.
        sys.machine
            .advance_cycles(BACKOFF_CYCLES << (attempt - 1).min(16));
    }
    if let Some(ch) = sup.chaos {
        // Fresh fault stream per attempt: transient faults do not
        // repeat, so restarting from a checkpoint can actually help.
        sys.enable_chaos(FaultPlan::Campaign {
            seed: mix_seed(mix_seed(ch.seed, spec.seed), u64::from(attempt)),
            mean_interval: ch.mean_interval,
        });
    }

    let fail = |class: FailureClass, at_cycles: u64, detail: String| MachineFailure {
        class,
        at_cycles,
        attempt,
        detail,
    };
    let mut budget_left = cfg.budget;
    let outcome = loop {
        let cycles = sys.machine.cycles();
        if cycles >= sup.watchdog_cycles {
            break Err(fail(
                FailureClass::Wedged,
                cycles,
                format!("watchdog: still running at cycle {cycles}"),
            ));
        }
        let watermark = (cycles / sup.checkpoint_every + 1)
            .saturating_mul(sup.checkpoint_every)
            .min(sup.watchdog_cycles);
        let before = sys.machine.stats().instructions;
        let exit = sys.machine.run_to_cycle(watermark, budget_left);
        budget_left -= sys.machine.stats().instructions - before;
        match exit {
            RunExit::Halted => match sys.check_invariants() {
                Ok(()) => break Ok(()),
                Err(v) => {
                    break Err(fail(
                        FailureClass::InvariantViolation,
                        sys.machine.cycles(),
                        v.to_string(),
                    ))
                }
            },
            RunExit::DoubleFault(f) => {
                break Err(fail(
                    FailureClass::KernelPanic,
                    sys.machine.cycles(),
                    format!("double fault: {f:?}"),
                ))
            }
            RunExit::BudgetExhausted => {
                break Err(fail(
                    FailureClass::Wedged,
                    sys.machine.cycles(),
                    format!("instruction budget ({}) exhausted", cfg.budget),
                ))
            }
            RunExit::CycleLimit => match sys.check_invariants() {
                // A slice boundary with intact invariants is a good
                // restart point; one with broken invariants means a
                // recovery lied about succeeding.
                Ok(()) => *latest = Some((sys.checkpoint(), procs.clone())),
                Err(v) => {
                    break Err(fail(
                        FailureClass::InvariantViolation,
                        sys.machine.cycles(),
                        v.to_string(),
                    ))
                }
            },
        }
    };

    let halted = outcome.is_ok();
    Attempt {
        completed: halted && all_exited(&sys, &procs),
        halted,
        outcome,
        instructions: sys.machine.stats().instructions,
        cycles: sys.machine.cycles(),
        dirty_pages: sys.machine.phys().dirty_pages(),
        snapshot: sys.metrics_snapshot(),
    }
}

/// Extracts a panic payload's message (host-panic classification).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `spec` under the supervisor: attempts, checkpoints, restarts,
/// and — when the restart budget is spent — quarantine. `build` must
/// deterministically produce the machine's world before its first
/// instruction (booted from the shared image for fleet members, from
/// flat memory standalone, with the workload installed). It runs for
/// attempt 0 and for a restart that precedes the first checkpoint; any
/// later restart resumes a clone of the latest checkpoint instead.
///
/// Worker-thread panics inside an attempt are caught and classified
/// [`FailureClass::HostPanic`]; this function itself never panics on a
/// machine failure.
pub fn run_supervised(
    build: &dyn Fn() -> MemberWorld,
    cfg: &FleetConfig,
    spec: MachineSpec,
) -> MachineResult {
    let sup = &cfg.supervisor;
    let start = Instant::now();
    let mut latest: Option<RestartPoint> = None;
    let mut health = MachineHealth::default();
    let mut attempt: u32 = 0;
    loop {
        let killed = sup.kill_machine == Some(spec.id);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if killed {
                panic!("host kill injector: machine {}", spec.id);
            }
            run_attempt(build, cfg, spec, attempt, &mut latest)
        }));
        let ck_cycles = latest.as_ref().map_or(0, |(ck, _)| ck.cycles());
        let (result, failure) = match caught {
            Ok(att) => {
                let failure = att.outcome.as_ref().err().cloned();
                (
                    MachineResult {
                        spec,
                        instructions: att.instructions,
                        cycles: att.cycles,
                        wall_ns: start.elapsed().as_nanos() as u64,
                        completed: att.completed,
                        halted: att.halted,
                        dirty_pages: att.dirty_pages,
                        snapshot: att.snapshot,
                        health: MachineHealth::default(), // filled below
                    },
                    failure,
                )
            }
            Err(payload) => (
                // The attempt's world died with the panic; report the
                // machine as it stood at its last good checkpoint.
                MachineResult {
                    spec,
                    instructions: 0,
                    cycles: ck_cycles,
                    wall_ns: start.elapsed().as_nanos() as u64,
                    completed: false,
                    halted: false,
                    dirty_pages: 0,
                    snapshot: ring_metrics::MetricsSnapshot::default(),
                    health: MachineHealth::default(),
                },
                Some(MachineFailure {
                    class: FailureClass::HostPanic,
                    at_cycles: ck_cycles,
                    attempt,
                    detail: panic_message(payload),
                }),
            ),
        };
        match failure {
            None => {
                let mut result = result;
                result.health = health;
                return result;
            }
            Some(f) => {
                let rolled_back = f.at_cycles.saturating_sub(ck_cycles);
                health.failures.push(f.clone());
                if attempt >= sup.restart_budget {
                    health.quarantined = Some(f);
                    let mut result = result;
                    result.health = health;
                    return result;
                }
                attempt += 1;
                health.restarts += 1;
                health.recovery_cycles = health
                    .recovery_cycles
                    .saturating_add(rolled_back)
                    .saturating_add(BACKOFF_CYCLES << (attempt - 1).min(16));
            }
        }
    }
}
