//! A fleet of deterministic ring machines sharing one boot image.
//!
//! The paper's hardware was designed for a time-sharing utility
//! serving a whole community; this crate supplies the community. It
//! runs N independent simulated machines — each a full
//! multiprogramming kernel ([`ring_os`]) with its own processes,
//! scheduler, and demand paging — across host threads with a
//! work-stealing run queue ([`queue::RunQueue`]), and rolls their
//! [`ring_metrics::MetricsSnapshot`]s up into one fleet snapshot.
//!
//! Per-machine footprint is near zero: a prototype system is booted
//! once per workload kind, its physical memory frozen into a shared
//! read-only [`BootImage`], and every fleet member boots a
//! copy-on-write view over it ([`ring_segmem::PhysMem::cow`]). A
//! member that replays the identical world build dirties no pages;
//! its private cost is only the pages its own execution writes, and
//! those pages are recycled by the worker thread for its next member.
//! Nor does the fleet keep a member's snapshot: the worker folds it as
//! soon as the member finishes and keeps a small [`MemberSummary`].
//!
//! # Determinism contract
//!
//! Every machine is seeded from the fleet seed and its index alone,
//! and host threading never touches simulated state: workers boot and
//! run whole machines locally. Each worker folds the snapshots of the
//! members it runs back to back — a contiguous run of indices — in
//! index order, and after every worker has joined the runs are folded
//! in index order too. [`MetricsSnapshot::merge`] is exactly
//! associative, so the merged snapshot is the index-order fold of every
//! healthy member's snapshot, however the queue split the fleet. A
//! fleet run with K worker threads is therefore bit-identical — merged
//! snapshot JSON included — to the same seeds on 1 thread, and any
//! single member is bit-identical to the same spec run standalone on a
//! flat (non-CoW) memory. `docs/FLEET.md` states the contract
//! precisely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod report;
pub mod supervisor;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use ring_cpu::machine::RunExit;
use ring_metrics::MetricsSnapshot;
use ring_os::boot::{BootImage, System, SystemConfig};
use ring_os::workload::{
    install_gate_storm, install_page_storm, GateStormSpec, StormProc, StormSpec,
};

pub use ring_chaos::{FailureClass, MachineFailure};
pub use supervisor::{run_supervised, ChaosParams, MachineHealth, SupervisorConfig};

/// Which canned workload a machine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Demand-paging storm: processes sweep private paged segments
    /// under frame pressure ([`install_page_storm`]).
    PageStorm,
    /// Ring-crossing storm: processes hammer the ring-1 accounting
    /// gate ([`install_gate_storm`]).
    GateStorm,
}

impl WorkloadKind {
    /// Stable lowercase name (report keys, CLI values).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PageStorm => "pagestorm",
            WorkloadKind::GateStorm => "gatestorm",
        }
    }
}

/// Workload assignment across the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadMix {
    /// Every machine runs the page storm.
    PageStorm,
    /// Every machine runs the gate storm.
    GateStorm,
    /// Even machine indices page, odd indices hammer gates.
    Mixed,
}

impl WorkloadMix {
    /// The workload for machine `id` under this mix.
    pub fn kind(self, id: usize) -> WorkloadKind {
        match self {
            WorkloadMix::PageStorm => WorkloadKind::PageStorm,
            WorkloadMix::GateStorm => WorkloadKind::GateStorm,
            WorkloadMix::Mixed => {
                if id.is_multiple_of(2) {
                    WorkloadKind::PageStorm
                } else {
                    WorkloadKind::GateStorm
                }
            }
        }
    }
}

/// Shape of a fleet run.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of machines.
    pub machines: usize,
    /// Worker threads; 0 picks the host's available parallelism. A
    /// fleet starts at most one worker per machine.
    pub threads: usize,
    /// Fleet seed; each machine's seed derives from this and its index.
    pub seed: u64,
    /// Workload assignment.
    pub mix: WorkloadMix,
    /// Processes per machine.
    pub procs: usize,
    /// Pages per page-storm process's data segment.
    pub pages: u32,
    /// Minimum workload rounds per process; each machine adds up to
    /// `ROUNDS_JITTER` (6) seed-derived rounds.
    pub base_rounds: u32,
    /// Scheduler quantum in cycles.
    pub quantum: u64,
    /// Per-machine cycle budget; a machine that exhausts it reports
    /// `completed: false`.
    pub budget: u64,
    /// Fast-path execution engine switch.
    pub fastpath: bool,
    /// Self-healing supervisor policy (chaos campaign, checkpoint
    /// cadence, restart budget). With `supervisor.chaos == None` and no
    /// kill injector, machines run exactly as an unsupervised fleet.
    pub supervisor: SupervisorConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            machines: 256,
            threads: 0,
            seed: 0x005E_ED0F_1EE7,
            mix: WorkloadMix::Mixed,
            procs: 2,
            pages: 5,
            base_rounds: 6,
            quantum: 2_000,
            budget: 5_000_000,
            fastpath: true,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// The most seed-derived rounds a machine adds to
/// [`FleetConfig::base_rounds`], for variety across the fleet.
pub(crate) const ROUNDS_JITTER: u32 = 6;

/// Physical frames each machine's demand pager may fill.
pub(crate) const FRAMES: u32 = 6;

/// Physical words per machine: the boot image's size, small enough
/// that a fleet's images stay cheap.
pub(crate) const PHYS_WORDS: usize = 1 << 17;

/// One machine's derived identity: everything needed to reproduce its
/// run in isolation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineSpec {
    /// Fleet index.
    pub id: usize,
    /// Machine seed (splitmix64 of fleet seed and index).
    pub seed: u64,
    /// Assigned workload.
    pub kind: WorkloadKind,
    /// Workload rounds per process (base plus seed-derived jitter).
    pub rounds: u32,
}

/// The splitmix64 scramble — the standard seed-spreading finalizer, so
/// adjacent machine indices get uncorrelated seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FleetConfig {
    /// The derived spec for machine `id`.
    pub fn spec(&self, id: usize) -> MachineSpec {
        let seed = splitmix64(self.seed ^ (id as u64).wrapping_mul(0xA5A5_A5A5_A5A5_A5A5));
        MachineSpec {
            id,
            seed,
            kind: self.mix.kind(id),
            rounds: self.base_rounds + (seed % u64::from(ROUNDS_JITTER + 1)) as u32,
        }
    }

    /// Specs for the whole fleet, in index order.
    pub fn specs(&self) -> Vec<MachineSpec> {
        (0..self.machines).map(|id| self.spec(id)).collect()
    }

    /// The per-machine system configuration (uniform across the fleet,
    /// so one frozen image per workload kind serves every member).
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            phys_words: PHYS_WORDS,
            quantum: self.quantum,
            frame_budget: Some(FRAMES),
            fastpath: self.fastpath,
        }
    }
}

/// One machine's outcome.
#[derive(Clone, Debug)]
pub struct MachineResult {
    /// The spec that produced it.
    pub spec: MachineSpec,
    /// Instructions the machine completed.
    pub instructions: u64,
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// Host wall-clock for boot + install + run, in nanoseconds.
    pub wall_ns: u64,
    /// Whether the machine halted with every process exited cleanly
    /// inside the cycle budget.
    pub completed: bool,
    /// Whether the machine halted cleanly at all. Under chaos this is
    /// the health criterion: recovery may confine (kill) a damaged
    /// process, making `completed` false on a perfectly healthy halt.
    pub halted: bool,
    /// Copy-on-write pages this machine dirtied (0 on flat boots). A
    /// restart resumes a clone of a checkpoint, which still shares the
    /// image, so restarts add only the pages the machine writes.
    pub dirty_pages: u32,
    /// The machine's full observability snapshot.
    pub snapshot: MetricsSnapshot,
    /// The supervisor's health ledger (restarts, failures, quarantine).
    pub health: MachineHealth,
}

/// What a fleet keeps of one member: its [`MachineResult`] without the
/// snapshot, which the member's worker folded into the fleet's merged
/// snapshot as soon as the member finished.
#[derive(Clone, Debug)]
pub struct MemberSummary {
    /// The spec that produced it.
    pub spec: MachineSpec,
    /// Instructions the machine completed.
    pub instructions: u64,
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// Host wall-clock for boot + install + run, in nanoseconds.
    pub wall_ns: u64,
    /// Whether the machine halted with every process exited cleanly
    /// inside the cycle budget.
    pub completed: bool,
    /// Whether the machine halted cleanly at all (see
    /// [`MachineResult::halted`]).
    pub halted: bool,
    /// Copy-on-write pages this machine dirtied.
    pub dirty_pages: u32,
    /// The supervisor's health ledger (restarts, failures, quarantine).
    pub health: MachineHealth,
    /// Faults ring-0 recovery survived: the snapshot's `chaos.recovered`
    /// extra (0 without chaos), which the health report sums.
    pub recovered: u64,
}

impl From<MachineResult> for MemberSummary {
    fn from(m: MachineResult) -> MemberSummary {
        MemberSummary {
            spec: m.spec,
            instructions: m.instructions,
            cycles: m.cycles,
            wall_ns: m.wall_ns,
            completed: m.completed,
            halted: m.halted,
            dirty_pages: m.dirty_pages,
            recovered: m.snapshot.extra("chaos.recovered").unwrap_or(0),
            health: m.health,
        }
    }
}

/// A worker-thread failure that cost the fleet a machine result.
#[derive(Clone, Debug)]
pub struct MemberError {
    /// The machine whose result is missing.
    pub id: usize,
    /// What happened (panic message, or "never ran").
    pub detail: String,
}

/// A whole fleet's outcome.
#[derive(Debug)]
pub struct FleetResult {
    /// Per-machine summaries in index order (machines listed in
    /// [`FleetResult::member_errors`] are absent).
    pub machines: Vec<MemberSummary>,
    /// Every healthy (non-quarantined) machine snapshot folded in
    /// index order. Quarantined machines are reported individually and
    /// hashed separately, never merged.
    pub merged: MetricsSnapshot,
    /// Host-side failures, in index order: worker panics outside the
    /// supervised attempt loop, or machines no worker ever ran. Empty
    /// on a sound run — machine failures under chaos are *not* errors;
    /// they surface as [`MachineHealth`] entries.
    pub member_errors: Vec<MemberError>,
    /// Host wall-clock for the whole fleet (image builds included).
    pub wall_seconds: f64,
    /// Worker threads actually used: the configured count, at most
    /// one per machine.
    pub threads: usize,
    /// Words in each shared boot image (one per workload kind used).
    pub image_words: usize,
}

/// A member's world before its first instruction: the system with its
/// workload installed, metrics on and the timer armed, plus the
/// workload's processes.
pub type MemberWorld = (System, Vec<StormProc>);

/// Builds `spec`'s world on the system `boot` returns: installs the
/// workload, turns metrics on and arms the scheduler timer.
fn build_member(
    boot: impl FnOnce() -> System,
    cfg: &FleetConfig,
    spec: MachineSpec,
) -> MemberWorld {
    let mut sys = boot();
    let procs = install_workload(&mut sys, cfg, spec);
    sys.enable_metrics();
    sys.machine.set_timer(Some(cfg.quantum));
    (sys, procs)
}

/// Installs `spec`'s workload on a freshly booted system.
fn install_workload(sys: &mut System, cfg: &FleetConfig, spec: MachineSpec) -> Vec<StormProc> {
    match spec.kind {
        WorkloadKind::PageStorm => install_page_storm(
            sys,
            &StormSpec {
                procs: cfg.procs,
                pages: cfg.pages,
                rounds: spec.rounds,
            },
        ),
        WorkloadKind::GateStorm => install_gate_storm(
            sys,
            &GateStormSpec {
                procs: cfg.procs,
                rounds: spec.rounds,
            },
        ),
    }
}

/// Whether every workload process in `procs` exited cleanly.
pub(crate) fn all_exited(sys: &System, procs: &[StormProc]) -> bool {
    let st = sys.state();
    procs
        .iter()
        .all(|p| st.processes[p.pid].aborted.as_deref() == Some("exit"))
}

/// Whether this fleet's machines need the supervisor's slicing and
/// checkpoint machinery at all; a chaos-free fleet takes the plain
/// single-run path (no checkpoint clones).
fn supervised(cfg: &FleetConfig) -> bool {
    cfg.supervisor.chaos.is_some() || cfg.supervisor.kill_machine.is_some()
}

/// Builds a member's world with `build` and runs it to completion (or
/// budget), returning the machine's result.
fn build_and_run(
    build: impl FnOnce() -> MemberWorld,
    cfg: &FleetConfig,
    spec: MachineSpec,
) -> MachineResult {
    let start = Instant::now();
    let (mut sys, procs) = build();
    let exit = sys.machine.run(cfg.budget);
    MachineResult {
        spec,
        instructions: sys.machine.stats().instructions,
        cycles: sys.machine.cycles(),
        wall_ns: start.elapsed().as_nanos() as u64,
        completed: exit == RunExit::Halted && all_exited(&sys, &procs),
        halted: exit == RunExit::Halted,
        dirty_pages: sys.machine.phys().dirty_pages(),
        snapshot: sys.metrics_snapshot(),
        health: MachineHealth::default(),
    }
}

/// Boots a prototype system, installs `kind`'s workload exactly as a
/// fleet member will (using the *base* rounds — members' seed-jittered
/// rounds differ by at most one word per process), and freezes its
/// memory into a shared [`BootImage`].
pub fn build_image(cfg: &FleetConfig, kind: WorkloadKind) -> BootImage {
    let mut proto = System::boot_with(cfg.system_config());
    let spec = MachineSpec {
        id: 0,
        seed: 0,
        kind,
        rounds: cfg.base_rounds,
    };
    install_workload(&mut proto, cfg, spec);
    proto.freeze()
}

/// Runs one fleet member over the shared image: boots a copy-on-write
/// system and replays the workload install (dirtying only what
/// diverges) before running. Routes through the self-healing
/// supervisor when the fleet has a chaos campaign configured.
pub fn run_member(image: &BootImage, cfg: &FleetConfig, spec: MachineSpec) -> MachineResult {
    run(|| System::boot_from_image(image), cfg, spec)
}

/// Runs `spec` standalone on a private flat memory — the reference
/// a fleet member must be bit-identical to (supervised when the
/// config says so, exactly as [`run_member`]).
pub fn run_standalone(cfg: &FleetConfig, spec: MachineSpec) -> MachineResult {
    run(|| System::boot_with(cfg.system_config()), cfg, spec)
}

/// Runs `spec` on the systems `boot` returns: once, or under the
/// supervisor, which builds afresh only when no checkpoint exists yet.
fn run(boot: impl Fn() -> System, cfg: &FleetConfig, spec: MachineSpec) -> MachineResult {
    let build = || build_member(&boot, cfg, spec);
    if supervised(cfg) {
        run_supervised(&build, cfg, spec)
    } else {
        build_and_run(build, cfg, spec)
    }
}

/// Resolves the worker-thread count: explicit, or host parallelism.
pub fn resolve_threads(cfg: &FleetConfig) -> usize {
    if cfg.threads > 0 {
        return cfg.threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The members one worker ran back to back, from index `first` on,
/// with the snapshots of the healthy ones folded in index order
/// (`None` until one is).
struct Run {
    first: usize,
    merged: Option<MetricsSnapshot>,
}

/// A machine's summary, or why it has none; `None` until it ran.
type Slot = Option<Result<MemberSummary, String>>;

/// What the workers of one fleet run share.
struct Shared<'a> {
    cfg: &'a FleetConfig,
    specs: Vec<MachineSpec>,
    page_image: Option<BootImage>,
    gate_image: Option<BootImage>,
    queue: queue::RunQueue,
    /// Each machine's slot, by index.
    slots: Mutex<Vec<Slot>>,
}

impl Shared<'_> {
    /// Worker `w`: runs the machines it claims until the queue is
    /// empty, deposits their summaries by index, and returns its runs.
    fn work(&self, w: usize) -> Vec<Run> {
        let mut runs: Vec<Run> = Vec::new();
        let mut last = None;
        while let Some(i) = self.queue.next(w) {
            // A steal shows as an index that does not follow the last.
            if last.is_none_or(|l: usize| l + 1 != i) {
                runs.push(Run {
                    first: i,
                    merged: None,
                });
            }
            last = Some(i);
            let spec = self.specs[i];
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_member(self.image(spec.kind), self.cfg, spec)
            }))
            .map_err(supervisor::panic_message);
            let slot = result.map(|m| {
                if !m.health.is_quarantined() {
                    let run = runs.last_mut().expect("a run is open");
                    run.merged
                        .get_or_insert_with(MetricsSnapshot::default)
                        .merge(&m.snapshot);
                }
                MemberSummary::from(m)
            });
            self.slots.lock().expect("result lock")[i] = Some(slot);
        }
        runs
    }

    /// The shared image machines of `kind` boot from.
    fn image(&self, kind: WorkloadKind) -> &BootImage {
        match kind {
            WorkloadKind::PageStorm => self.page_image.as_ref().expect("page image built"),
            WorkloadKind::GateStorm => self.gate_image.as_ref().expect("gate image built"),
        }
    }
}

/// Runs the whole fleet and folds the results.
///
/// At most one worker per machine claims machine indices from a
/// work-stealing queue, boots each machine locally over the kind's
/// shared image, and deposits a [`MemberSummary`] by index. It folds
/// each healthy member's snapshot into its current run — the members
/// it claimed back to back, which a steal ends — and drops it. After
/// the join the runs fold in index order on the calling thread, so
/// thread count and steal interleaving cannot reach the bytes.
/// Quarantined machines keep their summaries but are excluded from the
/// healthy merged snapshot.
///
/// A worker panic outside the supervised attempt loop does not bring
/// the fleet down: the panic is caught, the machine's slot is recorded
/// in [`FleetResult::member_errors`], and the worker moves on to its
/// next index. (Panics *inside* an attempt are the supervisor's
/// problem and surface as [`FailureClass::HostPanic`] failures.)
pub fn run_fleet(cfg: &FleetConfig) -> FleetResult {
    let start = Instant::now();
    let threads = resolve_threads(cfg).min(cfg.machines).max(1);
    let specs = cfg.specs();
    let needs_page = specs.iter().any(|s| s.kind == WorkloadKind::PageStorm);
    let needs_gate = specs.iter().any(|s| s.kind == WorkloadKind::GateStorm);
    let page_image = needs_page.then(|| build_image(cfg, WorkloadKind::PageStorm));
    let gate_image = needs_gate.then(|| build_image(cfg, WorkloadKind::GateStorm));
    let image_words = page_image
        .as_ref()
        .or(gate_image.as_ref())
        .map_or(0, BootImage::words);

    let shared = Shared {
        cfg,
        queue: queue::RunQueue::new(specs.len(), threads),
        slots: Mutex::new(vec![None; specs.len()]),
        specs,
        page_image,
        gate_image,
    };
    let mut runs: Vec<Run> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let shared = &shared;
                s.spawn(move || shared.work(w))
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    // The errors come out first, so the results can be collected in
    // the slots' own allocation instead of a second vector as large.
    let mut slots = shared.slots.into_inner().expect("result lock");
    let mut member_errors = Vec::new();
    for (i, slot) in slots.iter_mut().enumerate() {
        match slot {
            Some(Ok(_)) => {}
            Some(Err(detail)) => member_errors.push(MemberError {
                id: i,
                detail: std::mem::take(detail),
            }),
            None => member_errors.push(MemberError {
                id: i,
                detail: "machine never ran (worker lost before claiming it)".to_string(),
            }),
        }
    }
    let machines: Vec<MemberSummary> = slots
        .into_iter()
        .filter_map(|slot| slot.and_then(Result::ok))
        .collect();
    runs.sort_unstable_by_key(|run| run.first);
    let mut merged = MetricsSnapshot::default();
    for partial in runs.iter().filter_map(|run| run.merged.as_ref()) {
        merged.merge(partial);
    }
    FleetResult {
        machines,
        merged,
        member_errors,
        wall_seconds: start.elapsed().as_secs_f64(),
        threads,
        image_words,
    }
}
