//! The four workloads. An untraced run times whole repeats for the
//! end-to-end metrics; a traced run rebuilds each machine's life from
//! the crates' public calls, timing every call and every step, to split
//! host time into layers.

use std::time::Instant;

use ring_chaos::{mix_seed, FaultPlan};
use ring_cpu::machine::{ExecStats, Machine, RunExit, StepOutcome};
use ring_cpu::testkit::World;
use ring_fleet::report::fnv1a64;
use ring_fleet::{
    build_image, run_fleet, run_member, ChaosParams, FleetConfig, FleetResult, MachineSpec,
    SupervisorConfig, WorkloadKind,
};
use ring_metrics::MetricsSnapshot;
use ring_os::boot::{BootImage, System};
use ring_os::workload::{install_gate_storm, install_page_storm, micro, GateStormSpec, StormSpec};

use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{tail_percentile, Summary};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `micro::tight_loop`, observers off: nearly every step is a
    /// fast-path commit. The control for every fleet-level change.
    SoloLoop,
    /// `micro::gate_storm` with metrics, spans and the profiler on: a
    /// quarter of the steps are CALL/RETURN, which always take the
    /// reference interpreter and each emit a span.
    SoloGateObs,
    /// `run_fleet` with the default mixed page/gate storm and no chaos:
    /// short members, so boot and the replayed install weigh heavily.
    FleetMixed,
    /// A supervised fleet under a chaos campaign: long members that
    /// checkpoint, check invariants and recover in ring 0.
    FleetChaos,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SoloLoop,
        Workload::SoloGateObs,
        Workload::FleetMixed,
        Workload::FleetChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloLoop => "solo_loop",
            Workload::SoloGateObs => "solo_gate_obs",
            Workload::FleetMixed => "fleet_mixed",
            Workload::FleetChaos => "fleet_chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one invocation runs a workload.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Host seconds of timed repeats or traced passes to run; set-up,
    /// the warm-up and the checks come on top.
    pub seconds: f64,
    pub trace: bool,
    /// Share of the full input size; below 1 only in the self-tests.
    pub scale: f64,
}

/// Timed repeats never stop before this many.
const MIN_REPEATS: usize = 5;
/// Set-up is repeated `SETUP_REPEATS` times, or at least `SETUP_MIN`
/// times if that takes over `SETUP_SECONDS`, and reported as a median.
/// A fixed count keeps the allocator's state, and so peak RSS, the same
/// from run to run.
const SETUP_REPEATS: usize = 200;
const SETUP_MIN: usize = 5;
const SETUP_SECONDS: f64 = 2.0;
/// Traced solo passes run this fraction of the timed size.
const TRACE_SOLO_DIVISOR: f64 = 5.0;
/// Allowed relative gap between a traced member's layer sum and the
/// outside-timed `run_member` mean.
const LAYER_SUM_TOLERANCE: f64 = 0.10;
const LAYER_SUM_CHECK: &str = "layer self times sum to the run_member mean";
/// Spans written to the Chrome trace (the layer table uses all).
const CHROME_SPANS: usize = 20_000;
/// Salts that derive the fleet and chaos seeds from `--seed`.
const FLEET_SALT: u64 = 0xF1EE7;
const CHAOS_SALT: u64 = 0xC4A05;

impl Opts {
    fn scaled(&self, full: f64) -> f64 {
        let traced = if self.trace { TRACE_SOLO_DIVISOR } else { 1.0 };
        full * self.scale / traced
    }

    /// Simulated instructions per solo repeat. Repeats are short (about
    /// 0.2 s on a 2-core x86-64 host) so a run's median rests on dozens
    /// of them, which the host's noise requires.
    fn solo_instructions(&self, w: Workload) -> u64 {
        let full = match w {
            Workload::SoloLoop => 6e6,
            _ => 3e6,
        };
        (self.scaled(full) as u64).max(200)
    }

    /// Machines per fleet repeat (0.2 to 0.4 s untraced with 2 threads)
    /// or per traced pass.
    fn machines(&self, w: Workload) -> usize {
        let full = match (w, self.trace) {
            (Workload::FleetMixed, false) => 4_000.0,
            (Workload::FleetMixed, true) => 2_000.0,
            (_, false) => 300.0,
            (_, true) => 100.0,
        };
        ((full * self.scale) as usize).max(4)
    }
}

pub fn run(w: Workload, opts: &Opts) -> Outcome {
    match (w, opts.trace) {
        (Workload::SoloLoop | Workload::SoloGateObs, false) => solo_timed(w, opts),
        (Workload::SoloLoop | Workload::SoloGateObs, true) => solo_traced(w, opts),
        (_, false) => fleet_timed(w, opts),
        (_, true) => fleet_traced(w, opts),
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Host seconds of each repetition of `setup`.
fn setup_samples(mut setup: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN
        || (samples.len() < SETUP_REPEATS && secs(start) < SETUP_SECONDS)
    {
        let t = Instant::now();
        setup();
        samples.push(secs(t));
    }
    samples
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

// ---- machine steps --------------------------------------------------------

const FAST: usize = 0;
const REF: usize = 1;
const TRAP: usize = 2;
const NATIVE: usize = 3;

/// Step counts and host nanoseconds per step class.
#[derive(Clone, Copy, Default)]
struct StepTimes {
    count: [u64; 4],
    ns: [u64; 4],
}

/// The layer a step went through, read from its `ExecStats` delta.
fn classify(before: &ExecStats, after: &ExecStats) -> usize {
    if after.traps > before.traps {
        TRAP
    } else if after.native_calls > before.native_calls {
        NATIVE
    } else if after.fast_steps > before.fast_steps {
        FAST
    } else {
        REF
    }
}

/// `Machine::run` (no watermark) or `Machine::run_to_cycle`. With
/// `steps`, the same loop is driven one `Machine::step` at a time and
/// each step is timed and classified; one clock read per step is the
/// tracing cost.
fn drive(
    m: &mut Machine,
    watermark: Option<u64>,
    budget: u64,
    steps: Option<&mut StepTimes>,
) -> RunExit {
    let Some(steps) = steps else {
        return match watermark {
            Some(w) => m.run_to_cycle(w, budget),
            None => m.run(budget),
        };
    };
    let (mut before, mut t) = (m.stats(), Instant::now());
    for _ in 0..budget {
        if watermark.is_some_and(|w| m.cycles() >= w) {
            return RunExit::CycleLimit;
        }
        let outcome = m.step();
        let (after, now) = (m.stats(), Instant::now());
        let class = classify(&before, &after);
        steps.count[class] += 1;
        steps.ns[class] += (now - t).as_nanos() as u64;
        (before, t) = (after, now);
        if outcome == StepOutcome::Halted {
            return m
                .double_fault()
                .map_or(RunExit::Halted, RunExit::DoubleFault);
        }
    }
    RunExit::BudgetExhausted
}

// ---- traced-run bookkeeping -----------------------------------------------

/// Per-machine counters summed over a traced pass.
#[derive(Default)]
struct Totals {
    machines: u64,
    span_events: u64,
    prof_samples: u64,
    major_faults: u64,
    evictions: u64,
    recoveries: u64,
    /// Hits and misses.
    tlb: [u64; 2],
    icache: [u64; 2],
    sdw: [u64; 2],
}

impl Totals {
    fn add(&mut self, span_events: usize, snap: &MetricsSnapshot) {
        self.machines += 1;
        self.span_events += span_events as u64;
        self.prof_samples += snap.prof.samples;
        self.major_faults += snap.sched.page_faults_major;
        self.evictions += snap.sched.evictions;
        self.recoveries += snap.extra("chaos.recovered").unwrap_or(0);
        let f = &snap.fastpath;
        self.tlb[0] += f.tlb_hits;
        self.tlb[1] += f.tlb_misses;
        self.icache[0] += f.icache_hits;
        self.icache[1] += f.icache_misses;
        self.sdw[0] += snap.sdw_cache.hits;
        self.sdw[1] += snap.sdw_cache.misses;
    }
}

fn hit_ratio([hits, misses]: [u64; 2]) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Spans, step times and counters of a traced run.
#[derive(Default)]
struct Tracer {
    rec: Recorder,
    steps: StepTimes,
    totals: Totals,
}

/// What a composed member records while it runs. Layer spans and step
/// clocks go in separate runs, so the per-step clock reads do not
/// inflate the layer times.
enum Probe<'a> {
    /// Nothing; the caller times the whole member from outside.
    Off,
    /// A span around each layer call.
    Layers(&'a mut Recorder),
    /// A clock read and a class for every machine step.
    Steps(&'a mut StepTimes),
}

impl Probe<'_> {
    fn layer<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        match self {
            Probe::Layers(rec) => rec.time(name, id, f),
            _ => f(),
        }
    }

    fn run(&mut self, id: u64, m: &mut Machine, watermark: Option<u64>, budget: u64) -> RunExit {
        match self {
            Probe::Layers(rec) => rec.time("cpu.run", id, || drive(m, watermark, budget, None)),
            Probe::Steps(steps) => drive(m, watermark, budget, Some(steps)),
            Probe::Off => drive(m, watermark, budget, None),
        }
    }
}

/// Host microseconds of each traced member's life, by how it was run.
#[derive(Default)]
struct Members {
    /// Composed with per-step clocks on.
    traced: Vec<f64>,
    /// Untraced, as the library runs it with the workload's observers
    /// on (`run_member`; solo: `run`).
    library: Vec<f64>,
    /// Untraced composition with every observer off.
    bare: Vec<f64>,
    /// Copy-on-write pages each member dirtied.
    dirty: Vec<f64>,
    /// Members the supervisor restarted. Their library run includes
    /// restarts that the composed attempt 0 lacks, so they are left out
    /// of every figure above and of the spans and step times.
    left_out: u64,
    /// Restarts over every member, traced or left out.
    restarts: u64,
}

/// Layers summed against the outside-timed member.
const MEMBER_LAYERS: [&str; 7] = [
    "os.boot",
    "os.install",
    "cpu.run",
    "os.invariants",
    "os.checkpoint",
    "os.snapshot",
    "metrics.merge",
];

/// Records every per-layer metric of a traced run, plus the per-layer
/// microseconds and the layer-sum comparison as detail.
fn layer_metrics(out: &mut Outcome, tr: &Tracer, members: &Members) {
    let machines = tr.totals.machines.max(1) as f64;
    let per_machine = |v: u64| vec![v as f64 / machines];
    let s = &tr.steps;
    let per_step = |c: usize| vec![s.ns[c] as f64 / s.count[c].max(1) as f64];
    let by_name = tr.rec.by_name();
    let self_ns = |name: &str| by_name.get(name).map_or(0, |e| e.0);
    let member_ns = self_ns("member") + MEMBER_LAYERS.iter().map(|l| self_ns(l)).sum::<u64>();
    let pct = |name: &str| vec![100.0 * self_ns(name) as f64 / member_ns.max(1) as f64];
    let us = |name: &str| self_ns(name) as f64 / 1e3 / machines;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let median = |v: &[f64]| Summary::of(v).map_or(0.0, |s| s.median);

    out.metric("cpu.fast.ns_per_step", per_step(FAST));
    out.metric("cpu.fast.steps", per_machine(s.count[FAST]));
    out.metric("cpu.ref.ns_per_step", per_step(REF));
    out.metric("cpu.ref.steps", per_machine(s.count[REF]));
    out.metric("cpu.trap.ns_per_entry", per_step(TRAP));
    out.metric("cpu.trap.entries", per_machine(s.count[TRAP]));
    out.metric("os.native.ns_per_call", per_step(NATIVE));
    out.metric("os.native.calls", per_machine(s.count[NATIVE]));
    let t = &tr.totals;
    out.metric("segmem.tlb.hit_ratio", vec![hit_ratio(t.tlb)]);
    out.metric("segmem.icache.hit_ratio", vec![hit_ratio(t.icache)]);
    out.metric("segmem.sdw_cache.hit_ratio", vec![hit_ratio(t.sdw)]);
    out.metric(
        "obs.overhead_ratio",
        vec![sum(&members.library) / sum(&members.bare)],
    );
    out.metric(
        "trace.overhead_ratio",
        vec![sum(&members.traced) / sum(&members.library)],
    );
    out.metric("trace.span_events", per_machine(t.span_events));
    out.metric("prof.samples", per_machine(t.prof_samples));
    out.metric("sched.page_faults_major", per_machine(t.major_faults));
    out.metric("sched.evictions", per_machine(t.evictions));
    out.metric("os.boot.pct", pct("os.boot"));
    out.metric("os.install.pct", pct("os.install"));
    out.metric("cpu.run.pct", pct("cpu.run"));
    out.metric("os.invariants.pct", pct("os.invariants"));
    out.metric("os.checkpoint.pct", pct("os.checkpoint"));
    let checkpoints = by_name.get("os.checkpoint").map_or(0, |e| e.1);
    out.metric("os.checkpoint.count", per_machine(checkpoints));
    out.metric("cpu.run.us", vec![us("cpu.run")]);
    out.metric("os.snapshot.us", vec![us("os.snapshot")]);
    out.metric("metrics.merge.us", vec![us("metrics.merge")]);
    out.metric("member.us_p50", vec![median(&members.library)]);
    out.metric("segmem.cow.dirty_pages_p50", vec![median(&members.dirty)]);
    let all_members = (t.machines + members.left_out).max(1) as f64;
    out.metric(
        "fleet.restarts",
        vec![members.restarts as f64 / all_members],
    );
    out.metric("chaos.recoveries", per_machine(t.recoveries));

    let mut detail = |k: &str, v: f64| out.detail.push((k.to_string(), v));
    // "member.us" is the member span's own time: work outside every layer.
    for layer in MEMBER_LAYERS.iter().chain(&["member"]) {
        detail(&format!("{layer}.us"), us(layer));
    }
    if let Some((ns, builds)) = by_name.get("fleet.build_image") {
        detail("fleet.build_image.ms", *ns as f64 / 1e6 / *builds as f64);
    }
    if let Some((p, v)) = tail_percentile(&members.library) {
        detail("member.us_tail.percentile", p);
        detail("member.us_tail", v);
    }
    detail("layers.sum.us", MEMBER_LAYERS.iter().map(|l| us(l)).sum());
    detail(
        "member.library_mean.us",
        sum(&members.library) / members.library.len().max(1) as f64,
    );
    out.chrome = Some(tr.rec.chrome_json(CHROME_SPANS));
}

// ---- solo workloads -------------------------------------------------------

/// Builds the solo world; `observe` turns on the workload's observers
/// (`solo_loop` has none).
fn solo_world(w: Workload, fastpath: bool, instructions: u64, observe: bool) -> World {
    let mut world = match w {
        Workload::SoloLoop => micro::tight_loop(fastpath, instructions / 5),
        _ => micro::gate_storm(fastpath, instructions / 8),
    };
    if observe && w == Workload::SoloGateObs {
        world.machine.enable_metrics();
        world.machine.enable_spans();
        world.machine.enable_profiler(1000, 5000);
    }
    world
}

fn solo_budget(instructions: u64) -> u64 {
    2 * instructions + 10_000
}

fn solo_timed(w: Workload, opts: &Opts) -> Outcome {
    let n = opts.solo_instructions(w);
    let mut out = Outcome::new(w, opts);
    let setup = setup_samples(|| drop(solo_world(w, true, n, true)));
    let repeat = |out: &mut Outcome| {
        let mut world = solo_world(w, true, n, true);
        let t = Instant::now();
        let exit = world.machine.run(solo_budget(n));
        let took = secs(t);
        out.machine_ran(exit == RunExit::Halted);
        (
            took,
            (world.machine.stats().instructions, world.machine.cycles()),
        )
    };
    let (_, warm) = repeat(&mut out);
    let (mut mips, mut rate, mut same, mut rss) = (vec![], vec![], true, None);
    let mut measured = 0.0;
    while mips.len() < MIN_REPEATS || measured < opts.seconds {
        let (took, sim) = repeat(&mut out);
        same &= sim == warm;
        measured += took;
        mips.push(sim.0 as f64 / took / 1e6);
        rate.push(1.0 / took);
        rss = rss.or_else(|| peak_rss_at(mips.len()));
    }
    out.repeats = mips.len();
    out.sim = warm;
    out.check(
        "repeats simulate identically",
        same,
        format!("{} runs of {} instructions", mips.len() + 1, warm.0),
    );
    // Engine parity at a twentieth of the size, outside the timed repeats.
    let small = (n / 20).max(200);
    let mut engines = Vec::new();
    for fastpath in [true, false] {
        let mut world = solo_world(w, fastpath, small, true);
        let exit = world.machine.run(solo_budget(small));
        out.machine_ran(exit == RunExit::Halted);
        engines.push((world.machine.stats().instructions, world.machine.cycles()));
    }
    out.check(
        "fast path and reference engine agree",
        engines[0] == engines[1],
        format!("fast {:?}, reference {:?}", engines[0], engines[1]),
    );
    finish_timed(&mut out, mips, rate, setup, rss);
    out
}

/// Peak RSS once `repeats` timed repeats have run, read at the
/// `MIN_REPEATS`-th: the work up to there is fixed, while how many more
/// repeats fit in `--seconds` depends on the host.
fn peak_rss_at(repeats: usize) -> Option<f64> {
    (repeats == MIN_REPEATS).then(peak_rss_mb).flatten()
}

/// Records the end-to-end metrics and the machine-failure check.
fn finish_timed(
    out: &mut Outcome,
    mips: Vec<f64>,
    rate: Vec<f64>,
    setup: Vec<f64>,
    rss: Option<f64>,
) {
    out.check_all_halted();
    out.metric("sim_mips", mips);
    out.metric("machines_per_s", rate);
    out.metric("setup_s", setup);
    out.check("peak RSS readable", rss.is_some(), "VmHWM".to_string());
    out.metric("peak_rss_mb", vec![rss.unwrap_or(f64::NAN)]);
}

fn solo_traced(w: Workload, opts: &Opts) -> Outcome {
    let n = opts.solo_instructions(w);
    let mut out = Outcome::new(w, opts);
    let mut tr = Tracer::default();
    let mut members = Members::default();
    let mut sims = Vec::new();
    // A solo member's life: run, snapshot, merge into a total. Returns
    // its host microseconds, its snapshot and the world; building and
    // dropping the world fall outside the member.
    let mut member = |out: &mut Outcome, observe: bool, id: u64, probe: &mut Probe| {
        let mut world = solo_world(w, true, n, observe);
        if let Probe::Layers(rec) = probe {
            rec.begin("member", id);
        }
        let t = Instant::now();
        let exit = probe.run(id, &mut world.machine, None, solo_budget(n));
        let snap = probe.layer("os.snapshot", id, || world.machine.metrics_snapshot());
        let mut total = MetricsSnapshot::default();
        probe.layer("metrics.merge", id, || total.merge(&snap));
        let took = secs(t) * 1e6;
        if let Probe::Layers(rec) = probe {
            rec.end();
        }
        out.machine_ran(exit == RunExit::Halted);
        sims.push((world.machine.stats().instructions, world.machine.cycles()));
        (took, snap, world)
    };
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || secs(start) < opts.seconds {
        let (_, snap, world) = member(&mut out, true, pass, &mut Probe::Layers(&mut tr.rec));
        tr.totals.add(world.machine.spans().events().len(), &snap);
        drop(world);
        let traced = member(&mut out, true, pass, &mut Probe::Steps(&mut tr.steps)).0;
        members.traced.push(traced);
        let library = member(&mut out, true, pass, &mut Probe::Off).0;
        members.library.push(library);
        members
            .bare
            .push(member(&mut out, false, pass, &mut Probe::Off).0);
        members.dirty.push(0.0);
        pass += 1;
    }
    out.repeats = pass as usize;
    out.sim = sims[0];
    out.check(
        "stepwise, observer-off and library runs simulate identically",
        sims.iter().all(|s| *s == sims[0]),
        format!("{} runs", sims.len()),
    );
    let mut world = solo_world(w, false, n, true);
    let exit = world.machine.run(solo_budget(n));
    out.machine_ran(exit == RunExit::Halted);
    let reference = (world.machine.stats().instructions, world.machine.cycles());
    out.check(
        "reference engine matches the fast path",
        reference == sims[0],
        format!("reference {reference:?}, fast {:?}", sims[0]),
    );
    out.check_all_halted();
    layer_metrics(&mut out, &tr, &members);
    out
}

// ---- fleet workloads ------------------------------------------------------

/// The fleet of timed repeat `repeat`. Each repeat draws its own fleet
/// and chaos seeds from `--seed`: a chaos member's cost varies many-fold
/// with its fault stream, so a run's median must average over many
/// fleets to be steady across seeds.
fn fleet_config(w: Workload, opts: &Opts, repeat: u64, threads: usize) -> FleetConfig {
    let seed = |salt| mix_seed(mix_seed(opts.seed, salt), repeat);
    let mut cfg = FleetConfig {
        machines: opts.machines(w),
        threads,
        seed: seed(FLEET_SALT),
        ..FleetConfig::default()
    };
    if w == Workload::FleetChaos {
        cfg.base_rounds = 100;
        cfg.supervisor = SupervisorConfig {
            chaos: Some(ChaosParams {
                seed: seed(CHAOS_SALT),
                mean_interval: 2_000,
            }),
            checkpoint_every: 20_000,
            ..SupervisorConfig::default()
        };
    }
    cfg
}

/// Machines that did not halt cleanly, were quarantined, or were lost.
fn fleet_failures(r: &FleetResult) -> u64 {
    let bad = r
        .machines
        .iter()
        .filter(|m| !m.halted || m.health.is_quarantined())
        .count();
    (bad + r.member_errors.len()) as u64
}

fn snapshot_hash(s: &MetricsSnapshot) -> u64 {
    fnv1a64(s.to_json().as_bytes())
}

fn fleet_timed(w: Workload, opts: &Opts) -> Outcome {
    let mut out = Outcome::new(w, opts);
    let first = fleet_config(w, opts, 0, 2);
    let setup = setup_samples(|| {
        build_image(&first, WorkloadKind::PageStorm);
        build_image(&first, WorkloadKind::GateStorm);
    });
    let mut fleet = |cfg: &FleetConfig| {
        let t = Instant::now();
        let r = run_fleet(cfg);
        let took = secs(t);
        out.attempted += cfg.machines as u64;
        out.failed += fleet_failures(&r);
        let instructions: u64 = r.machines.iter().map(|m| m.instructions).sum();
        let cycles: u64 = r.machines.iter().map(|m| m.cycles).sum();
        (took, (snapshot_hash(&r.merged), instructions, cycles))
    };
    // The untimed warm-up runs repeat 0's fleet, which repeat 0 reruns.
    let (_, warm) = fleet(&first);
    let (mut mips, mut rate, mut repeat0, mut rss) = (vec![], vec![], None, None);
    let mut measured = 0.0;
    while mips.len() < MIN_REPEATS || measured < opts.seconds {
        let cfg = fleet_config(w, opts, mips.len() as u64, 2);
        let (took, sim) = fleet(&cfg);
        repeat0.get_or_insert(sim);
        measured += took;
        mips.push(sim.1 as f64 / took / 1e6);
        rate.push(cfg.machines as f64 / took);
        rss = rss.or_else(|| peak_rss_at(mips.len()));
    }
    out.repeats = mips.len();
    out.sim = (warm.1, warm.2);
    out.check(
        "a rerun fleet merges to the same snapshot",
        repeat0 == Some(warm),
        format!("fnv1a64:{:016x} over {} machines", warm.0, first.machines),
    );
    finish_timed(&mut out, mips, rate, setup, rss);
    out
}

/// The shared boot images, one per workload kind.
struct Images {
    page: BootImage,
    gate: BootImage,
}

impl Images {
    fn get(&self, kind: WorkloadKind) -> &BootImage {
        match kind {
            WorkloadKind::PageStorm => &self.page,
            WorkloadKind::GateStorm => &self.gate,
        }
    }
}

/// The workload install `run_member` replays on every member.
fn install(sys: &mut System, cfg: &FleetConfig, spec: MachineSpec) {
    match spec.kind {
        WorkloadKind::PageStorm => {
            install_page_storm(
                sys,
                &StormSpec {
                    procs: cfg.procs,
                    pages: cfg.pages,
                    rounds: spec.rounds,
                },
            );
        }
        WorkloadKind::GateStorm => {
            install_gate_storm(
                sys,
                &GateStormSpec {
                    procs: cfg.procs,
                    rounds: spec.rounds,
                },
            );
        }
    }
}

/// One fleet member rebuilt from public calls, in `run_member`'s order:
/// boot over the image, replay the install, run, snapshot. Under chaos
/// it mirrors attempt 0 of `run_supervised`. Returns the snapshot and
/// whether the run (or attempt 0) succeeded.
fn compose(
    image: &BootImage,
    cfg: &FleetConfig,
    spec: MachineSpec,
    observe: bool,
    probe: &mut Probe,
) -> (MetricsSnapshot, bool) {
    let id = spec.id as u64;
    let mut sys = probe.layer("os.boot", id, || System::boot_from_image(image));
    probe.layer("os.install", id, || install(&mut sys, cfg, spec));
    if observe {
        sys.enable_metrics();
    }
    sys.machine.set_timer(Some(cfg.quantum));
    let ok = match cfg.supervisor.chaos {
        None => probe.run(id, &mut sys.machine, None, cfg.budget) == RunExit::Halted,
        Some(ch) => {
            sys.enable_chaos(FaultPlan::Campaign {
                seed: mix_seed(mix_seed(ch.seed, spec.seed), 0),
                mean_interval: ch.mean_interval,
            });
            attempt_zero(&mut sys, cfg, id, probe)
        }
    };
    (
        probe.layer("os.snapshot", id, || sys.metrics_snapshot()),
        ok,
    )
}

/// Attempt 0 of `run_supervised`: checkpoint-cadence slices under the
/// watchdog. True when the machine halts with its invariants intact.
fn attempt_zero(sys: &mut System, cfg: &FleetConfig, id: u64, probe: &mut Probe) -> bool {
    let sup = &cfg.supervisor;
    let mut budget_left = cfg.budget;
    loop {
        let cycles = sys.machine.cycles();
        if cycles >= sup.watchdog_cycles {
            return false;
        }
        let watermark = (cycles / sup.checkpoint_every + 1)
            .saturating_mul(sup.checkpoint_every)
            .min(sup.watchdog_cycles);
        let before = sys.machine.stats().instructions;
        let exit = probe.run(id, &mut sys.machine, Some(watermark), budget_left);
        budget_left -= sys.machine.stats().instructions - before;
        let halted = match exit {
            RunExit::Halted => true,
            RunExit::CycleLimit => false,
            RunExit::DoubleFault(_) | RunExit::BudgetExhausted => return false,
        };
        if probe
            .layer("os.invariants", id, || sys.check_invariants())
            .is_err()
        {
            return false;
        }
        if halted {
            return true;
        }
        probe.layer("os.checkpoint", id, || sys.checkpoint());
    }
}

fn fleet_traced(w: Workload, opts: &Opts) -> Outcome {
    let cfg = fleet_config(w, opts, 0, 1);
    let mut out = Outcome::new(w, opts);
    let mut tr = Tracer::default();
    let mut members = Members::default();
    let images = Images {
        page: tr.rec.time("fleet.build_image", 0, || {
            build_image(&cfg, WorkloadKind::PageStorm)
        }),
        gate: tr.rec.time("fleet.build_image", 0, || {
            build_image(&cfg, WorkloadKind::GateStorm)
        }),
    };
    // The library's own 2-thread fleet is the reference for the merge.
    let reference = run_fleet(&FleetConfig { threads: 2, ..cfg });
    out.attempted += cfg.machines as u64;
    out.failed += fleet_failures(&reference);
    let want = snapshot_hash(&reference.merged);
    out.sim = (
        reference.machines.iter().map(|m| m.instructions).sum(),
        reference.machines.iter().map(|m| m.cycles).sum(),
    );

    let specs = cfg.specs();
    // Untimed warm-up of both kinds on this thread, whose allocator arena
    // the 2-thread reference run left cold.
    for &spec in specs.iter().take(2) {
        run_member(images.get(spec.kind), &cfg, spec);
    }
    let (mut identical, mut hashes, mut mismatches) = (0usize, Vec::new(), Vec::new());
    let start = Instant::now();
    while hashes.is_empty() || secs(start) < opts.seconds {
        let mut merged = MetricsSnapshot::default();
        for &spec in &specs {
            let image = images.get(spec.kind);
            let t = Instant::now();
            let lib = run_member(image, &cfg, spec);
            let lib_us = secs(t) * 1e6;
            out.machine_ran(lib.halted && !lib.health.is_quarantined());
            members.restarts += u64::from(lib.health.restarts);
            out.attempted += 1;
            if lib.health.restarts > 0 {
                // Attempt 0 must fail, and the merge takes the library's
                // final snapshot, as the supervisor's does.
                members.left_out += 1;
                if compose(image, &cfg, spec, true, &mut Probe::Off).1 {
                    mismatches.push(spec.id);
                }
                merged.merge(&lib.snapshot);
                continue;
            }
            members.library.push(lib_us);
            members.dirty.push(f64::from(lib.dirty_pages));

            let id = spec.id as u64;
            tr.rec.begin("member", id);
            let (snap, ok) = compose(image, &cfg, spec, true, &mut Probe::Layers(&mut tr.rec));
            tr.rec.time("metrics.merge", id, || merged.merge(&snap));
            tr.rec.end();
            tr.totals.add(0, &snap);
            if ok && snap.to_json() == lib.snapshot.to_json() {
                identical += 1;
            } else {
                mismatches.push(spec.id);
            }

            let runs = [
                (&mut members.traced, true, Probe::Steps(&mut tr.steps)),
                (&mut members.bare, false, Probe::Off),
            ];
            for (samples, observe, mut probe) in runs {
                let t = Instant::now();
                compose(image, &cfg, spec, observe, &mut probe);
                samples.push(secs(t) * 1e6);
                out.attempted += 1;
            }
        }
        hashes.push(snapshot_hash(&merged));
    }
    out.repeats = hashes.len();
    mismatches.sort_unstable();
    mismatches.dedup();
    let restarted = members.left_out;
    out.check(
        "composed members match run_member byte for byte",
        mismatches.is_empty(),
        format!(
            "{identical} identical snapshots, {restarted} restarted members failed attempt 0 as expected, mismatched ids {mismatches:?}"
        ),
    );
    out.check(
        "composed 1-thread merge equals the 2-thread run_fleet merge",
        hashes.iter().all(|h| *h == want),
        format!(
            "run_fleet fnv1a64:{want:016x}; {} of {} passes match",
            hashes.iter().filter(|h| **h == want).count(),
            hashes.len()
        ),
    );
    out.check_all_halted();
    layer_metrics(&mut out, &tr, &members);
    let detail = |k: &str| out.detail.iter().find(|(n, _)| n == k).map_or(0.0, |e| e.1);
    let (sum, lib) = (detail("layers.sum.us"), detail("member.library_mean.us"));
    let gap = sum / lib - 1.0;
    let compared = members.library.len();
    let (ok, detail) = if compared == 0 {
        (true, "skipped: every member was restarted".to_string())
    } else {
        (
            gap.abs() <= LAYER_SUM_TOLERANCE,
            format!(
                "layers {sum:.2} us vs run_member {lib:.2} us per machine ({:+.1}%, tolerance {:.0}%) over {compared} members",
                gap * 100.0,
                LAYER_SUM_TOLERANCE * 100.0
            ),
        )
    };
    out.check(
        LAYER_SUM_CHECK,
        ok,
        format!("{detail}; {restarted} restarted members left out"),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny run of every workload in both modes exercises every check.
    /// All but the layer-sum check must pass; that one compares host
    /// times, which a handful of cold members on a loaded test host
    /// cannot settle.
    #[test]
    fn tiny_smoke_run_of_each_workload_passes_every_check() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let opts = Opts {
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    scale: 0.002,
                };
                let out = run(w, &opts);
                for c in out.checks.iter().filter(|c| c.name != LAYER_SUM_CHECK) {
                    assert!(
                        c.ok,
                        "{} {}: {} ({})",
                        w.name(),
                        out.mode(),
                        c.name,
                        c.detail
                    );
                }
                let fleet_traced = trace && w != Workload::SoloLoop && w != Workload::SoloGateObs;
                let has_sum = out.checks.iter().any(|c| c.name == LAYER_SUM_CHECK);
                assert_eq!(has_sum, fleet_traced, "{}", w.name());
                let table: &[(&str, &str)] = if trace {
                    &crate::report::PER_LAYER
                } else {
                    &crate::report::END_TO_END
                };
                let names: Vec<_> = out.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names.len(), table.len(), "{}", w.name());
                for (name, _) in table {
                    assert!(names.contains(name), "{} lacks {name}", w.name());
                }
                assert!(out.attempted > 0 && out.failed == 0);
                assert!(trace == out.chrome.is_some());
            }
        }
    }

    #[test]
    fn steps_are_classified_by_their_stats_delta() {
        let base = ExecStats::default();
        let with = |f: fn(&mut ExecStats)| {
            let mut s = base;
            s.instructions += 1;
            f(&mut s);
            classify(&base, &s)
        };
        assert_eq!(with(|s| s.fast_steps += 1), FAST);
        assert_eq!(with(|_| {}), REF);
        assert_eq!(with(|s| s.native_calls += 1), NATIVE);
        assert_eq!(with(|s| s.traps += 1), TRAP);
        assert_eq!(
            with(|s| {
                s.traps += 1;
                s.native_calls += 1
            }),
            TRAP
        );
    }

    #[test]
    fn stepwise_drive_matches_run_and_run_to_cycle() {
        let mut plain = solo_world(Workload::SoloGateObs, true, 4_000, true);
        let mut stepped = solo_world(Workload::SoloGateObs, true, 4_000, true);
        let mut steps = StepTimes::default();
        assert_eq!(
            drive(&mut plain.machine, Some(3_000), 1 << 20, None),
            RunExit::CycleLimit
        );
        assert_eq!(
            drive(&mut stepped.machine, Some(3_000), 1 << 20, Some(&mut steps)),
            RunExit::CycleLimit
        );
        assert_eq!(plain.machine.cycles(), stepped.machine.cycles());
        assert_eq!(
            drive(&mut plain.machine, None, 1 << 20, None),
            RunExit::Halted
        );
        assert_eq!(
            drive(&mut stepped.machine, None, 1 << 20, Some(&mut steps)),
            RunExit::Halted
        );
        let (a, b) = (plain.machine.stats(), stepped.machine.stats());
        assert_eq!(
            (a.instructions, plain.machine.cycles()),
            (b.instructions, stepped.machine.cycles())
        );
        assert_eq!(steps.count.iter().sum::<u64>(), b.instructions);
        assert!(steps.count.iter().all(|&c| c > 0), "{:?}", steps.count);
    }
}
