//! World building: booting a complete system.
//!
//! [`System::boot`] constructs the machine, lays out the shared
//! supervisor segments (trap vectors, the two gate segments, supervisor
//! data for both layers), and registers the native supervisor bodies.
//! [`System::login`] then creates a process — its own descriptor
//! segment with the supervisor template installed plus eight per-ring
//! stack segments — exactly the paper's model of a layered supervisor
//! present in the virtual memory of every process.
//!
//! A [`System`] is a plain owned value: the supervisor's state lives in
//! its machine ([`crate::state::Kernel`]), so `System` is
//! `Clone + Send`, and a checkpoint is a clone.

use ring_core::addr::AbsAddr;
use ring_core::ring::Ring;
use ring_core::sdw::{Sdw, SdwBuilder};
use ring_core::word::Word;
use ring_cpu::machine::{Machine, MachineConfig};
use ring_segmem::layout::PhysAllocator;

use crate::acl::Acl;
use crate::conventions::{frame, hcs, ring1, segs};
use crate::fs::SegmentId;
use crate::process::ProcessState;
use crate::state::{Kernel, OsState};

/// Words in each of a process's per-ring stack segments.
const STACK_WORDS: u32 = 1024;

/// Configuration knobs for a booted system.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Physical memory size in words.
    pub phys_words: usize,
    /// Scheduler quantum in cycles.
    pub quantum: u64,
    /// Whether the machine's fast-path execution engine (translation
    /// lookaside + predecoded instruction cache) is enabled.
    pub fastpath: bool,
    /// Physical-frame budget for demand paging. `Some(n)` caps paged
    /// segments at `n` resident frames, with CLOCK eviction to a
    /// simulated drum; `None` never reclaims frames (legacy).
    pub frame_budget: Option<u32>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            phys_words: 2 * 1024 * 1024,
            quantum: 5_000,
            fastpath: true,
            frame_budget: None,
        }
    }
}

/// A frozen boot image: a system's physical memory captured as a
/// shared read-only array, plus the configuration that built it. The
/// array is the memory's stored prefix; the words past it read as zero.
///
/// Build a prototype system once ([`System::boot_with`] plus workload
/// installation), [`System::freeze`] it, then boot any number of
/// machines from the image with [`System::boot_from_image`]. Each
/// clone's memory is a copy-on-write view ([`ring_segmem::PhysMem::cow`])
/// over the shared image, so per-machine footprint is only the pages a
/// machine actually changes. The image is `Send + Sync` and cheap to
/// clone across threads.
#[derive(Clone)]
pub struct BootImage {
    cfg: SystemConfig,
    base: std::sync::Arc<Vec<Word>>,
}

impl BootImage {
    /// The configuration the image was frozen with (and that clones
    /// boot with).
    pub fn cfg(&self) -> SystemConfig {
        self.cfg
    }

    /// The image contents, by shared reference count.
    pub fn share(&self) -> std::sync::Arc<Vec<Word>> {
        std::sync::Arc::clone(&self.base)
    }

    /// Size in words of the memory the image describes (the
    /// configured physical memory). Only the stored prefix is held;
    /// the words past it read as zero.
    pub fn words(&self) -> usize {
        self.cfg.phys_words
    }
}

/// A restartable world snapshot: a frozen clone of the whole system —
/// machine (memory, caches, metrics recorder) and supervisor state.
///
/// This is the unit of the fleet supervisor's self-healing loop: a
/// machine that wedges, double-faults, or fails its post-recovery
/// invariant check is replaced by a clone of its last checkpoint
/// ([`SystemCheckpoint::resume`]) and re-run — deterministically,
/// since everything influencing execution is inside the snapshot.
#[derive(Clone)]
pub struct SystemCheckpoint {
    system: System,
}

impl SystemCheckpoint {
    /// Simulated cycles at capture (restart bookkeeping: cycles lost
    /// to a rewind are `failure_cycles - checkpoint.cycles()`).
    pub fn cycles(&self) -> u64 {
        self.system.machine.cycles()
    }

    /// A runnable clone of the checkpointed system, exactly as it
    /// stood at capture.
    pub fn resume(&self) -> System {
        self.system.clone()
    }
}

/// A booted system: machine plus supervisor state. The supervisor
/// state is the machine's native-state value ([`Kernel`]); reach it
/// with [`System::state`], [`System::state_mut`] and
/// [`System::alloc_mut`].
#[derive(Clone)]
pub struct System {
    /// The processor and memory.
    pub machine: Machine,
    template: Vec<(u32, Sdw)>,
    cfg: SystemConfig,
}

impl System {
    /// Boots with default configuration.
    pub fn boot() -> System {
        System::boot_with(SystemConfig::default())
    }

    /// Boots with explicit configuration.
    pub fn boot_with(cfg: SystemConfig) -> System {
        System::boot_on(cfg, ring_segmem::PhysMem::new(cfg.phys_words))
    }

    /// Boots over a frozen image: physical memory becomes a
    /// copy-on-write view sharing the image's storage. The supervisor
    /// is rebuilt host-side exactly as in a fresh boot; because
    /// world-building pokes that store a word's existing value leave
    /// the overlay untouched, a clone that replays the same boot and
    /// workload sequence dirties no pages at all until it diverges.
    pub fn boot_from_image(image: &BootImage) -> System {
        let cfg = image.cfg();
        System::boot_on(
            cfg,
            ring_segmem::PhysMem::cow(image.share(), cfg.phys_words),
        )
    }

    /// Turns this system's physical memory into a shared read-only
    /// [`BootImage`], consuming the system: a prototype is built only
    /// to be frozen, so its memory's stored prefix moves into the image
    /// uncopied.
    /// Freeze after world building and workload installation, before
    /// any execution, so clones replay from the exact installed state.
    pub fn freeze(mut self) -> BootImage {
        let phys = std::mem::replace(self.machine.phys_mut(), ring_segmem::PhysMem::new(0));
        BootImage {
            cfg: self.cfg,
            base: phys.into_base(),
        }
    }

    /// The configuration this system booted with.
    pub fn cfg(&self) -> SystemConfig {
        self.cfg
    }

    /// Boots on an explicit physical memory (flat or copy-on-write).
    fn boot_on(cfg: SystemConfig, phys: ring_segmem::PhysMem) -> System {
        // The machine's default stack rule, `StackRule::DbrBase`, is the
        // one a booted system needs: the plain Fig. 8 rule puts stacks at
        // segment numbers 0–7, which this layout reserves for the
        // supervisor.
        let mconfig = MachineConfig {
            fastpath: cfg.fastpath,
            ..MachineConfig::default()
        };
        let mut machine = Machine::with_phys(phys, mconfig);
        let mut alloc = PhysAllocator::new(0o100, cfg.phys_words as u32);

        let mut template: Vec<(u32, Sdw)> = Vec::new();
        let mut place = |alloc: &mut PhysAllocator, segno: u32, b: SdwBuilder| {
            let probe = b.build();
            let base = alloc
                .alloc(probe.length_words())
                .expect("supervisor layout");
            let sdw = b.addr(base).build();
            template.push((segno, sdw));
        };

        // The trap segment: vectors + save area; ring-0 only.
        place(
            &mut alloc,
            segs::TRAP,
            SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0)
                .write(true)
                .bound_words(256),
        );
        // The hardcore gate segment: executes in ring 0, gates open
        // through ring 5 ("procedures executing in rings 6 and 7 are
        // not given access to supervisor gates").
        place(
            &mut alloc,
            segs::HCS,
            SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R5)
                .gates(hcs::COUNT)
                .bound_words(16),
        );
        // The ring-1 gate segment.
        place(
            &mut alloc,
            segs::RING1,
            SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R5)
                .gates(ring1::COUNT)
                .bound_words(16),
        );
        // Supervisor data, per layer.
        place(
            &mut alloc,
            segs::SUP_DATA,
            SdwBuilder::data(Ring::R0, Ring::R0).bound_words(1024),
        );
        place(
            &mut alloc,
            segs::RING1_DATA,
            SdwBuilder::data(Ring::R1, Ring::R1).bound_words(1024),
        );

        let mut os = OsState::new();
        os.quantum = cfg.quantum;
        os.frames = cfg.frame_budget.map(ring_segmem::FramePool::new);
        machine.set_native_state(Kernel { os, alloc });

        crate::traps::install(&mut machine);
        crate::gates::install(&mut machine);

        System {
            machine,
            template,
            cfg,
        }
    }

    fn kernel(&self) -> &Kernel {
        self.machine
            .native_state()
            .expect("a booted machine carries its kernel")
    }

    fn kernel_mut(&mut self) -> &mut Kernel {
        self.machine
            .native_state_mut()
            .expect("a booted machine carries its kernel")
    }

    /// The supervisor state.
    pub fn state(&self) -> &OsState {
        &self.kernel().os
    }

    /// Mutable supervisor state (world building, tests, the shell).
    pub fn state_mut(&mut self) -> &mut OsState {
        &mut self.kernel_mut().os
    }

    /// The physical-storage allocator (world building).
    pub fn alloc_mut(&mut self) -> &mut PhysAllocator {
        &mut self.kernel_mut().alloc
    }

    /// Lends the machine and the supervisor state to `f` together, as a
    /// native supervisor body sees them — for driving service bodies
    /// directly.
    pub fn with_state<R>(&mut self, f: impl FnOnce(&mut Machine, &mut OsState) -> R) -> R {
        Kernel::lend(&mut self.machine, |m, k| f(m, &mut k.os))
    }

    /// Registers a user.
    pub fn add_user(&mut self, name: &str) {
        self.state_mut().add_user(name);
    }

    /// Creates a stored segment in on-line storage (host-level; the
    /// simulated way in is `hcs$set_acl` plus supervisor file-creation
    /// gates, which this reproduction keeps host-side).
    ///
    /// # Panics
    ///
    /// Panics on storage errors — world-building is expected to be
    /// well-formed.
    pub fn create_segment(&mut self, path: &str, acl: Acl, data: Vec<Word>) -> SegmentId {
        self.state_mut()
            .fs
            .create_segment(path, acl, data)
            .expect("create stored segment")
    }

    /// Logs `user` in: creates a process with a fresh virtual memory
    /// (descriptor segment + supervisor template + per-ring stacks) and
    /// returns its process id.
    ///
    /// # Panics
    ///
    /// Panics when physical memory for the descriptor or stacks cannot
    /// be allocated; [`System::try_login`] returns an error instead.
    pub fn login(&mut self, user: &str) -> usize {
        self.try_login(user)
            .unwrap_or_else(|e| panic!("login {user}: {e}"))
    }

    /// [`System::login`], or an error when physical memory cannot hold
    /// the process's descriptor segment and stacks. On error nothing
    /// has changed.
    pub fn try_login(&mut self, user: &str) -> Result<usize, String> {
        let need = 2 * segs::DESCRIPTOR_SLOTS + STACK_WORDS * Ring::all().count() as u32;
        let left = self.alloc_mut().remaining();
        if left < need {
            return Err(format!(
                "process {} needs {need} words of physical memory for its descriptor \
                 segment and stacks, and {left} remain",
                self.state().processes.len()
            ));
        }
        self.add_user(user);
        let alloc = self.alloc_mut();
        let desc_base = alloc
            .alloc(2 * segs::DESCRIPTOR_SLOTS)
            .expect("room checked above");
        let stacks: Vec<AbsAddr> = Ring::all()
            .map(|_| alloc.alloc(STACK_WORDS).expect("room checked above"))
            .collect();
        // Supervisor template.
        for (segno, sdw) in &self.template {
            Self::poke_sdw(&mut self.machine, desc_base, *segno, sdw);
        }
        // Per-ring stacks: read and write brackets end at ring r.
        for (r, base) in Ring::all().zip(stacks) {
            let sdw = SdwBuilder::data(r, r)
                .addr(base)
                .bound_words(STACK_WORDS)
                .build();
            Self::poke_sdw(
                &mut self.machine,
                desc_base,
                segs::STACK_BASE + u32::from(r.number()),
                &sdw,
            );
            self.machine
                .phys_mut()
                .poke(base, Word::new(u64::from(frame::FIRST_FRAME)))
                .expect("stack header");
        }
        // The new process's trap-segment SDW pair must survive chaos
        // injection: a parity error met while entering a trap is an
        // unrecoverable double fault (the hardware analogue kept its
        // trap storage on corrected memory).
        let trap_pair = desc_base.wrapping_add(2 * segs::TRAP).value();
        self.machine.chaos_protect(trap_pair, trap_pair + 2);
        let st = self.state_mut();
        st.processes.push(ProcessState::new(user, desc_base));
        Ok(st.processes.len() - 1)
    }

    /// Installs `sdw` at `segno` in process `pid`'s descriptor segment.
    ///
    /// # Panics
    ///
    /// Panics on bad segment numbers or physical faults.
    pub fn install_sdw(&mut self, pid: usize, segno: u32, sdw: &Sdw) {
        let desc_base = self.state().processes[pid].dbr.addr;
        Self::poke_sdw(&mut self.machine, desc_base, segno, sdw);
        self.machine.translator_mut().flush_cache();
    }

    fn poke_sdw(machine: &mut Machine, desc_base: AbsAddr, segno: u32, sdw: &Sdw) {
        let base = desc_base.wrapping_add(2 * segno);
        let (w0, w1) = sdw.pack();
        machine.phys_mut().poke(base, w0).expect("descriptor poke");
        machine
            .phys_mut()
            .poke(base.wrapping_add(1), w1)
            .expect("descriptor poke");
    }

    /// Reads the SDW installed at `segno` for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics on physical faults.
    pub fn read_sdw(&self, pid: usize, segno: u32) -> Sdw {
        let desc_base = self.state().processes[pid].dbr.addr;
        let base = desc_base.wrapping_add(2 * segno);
        let w0 = self.machine.phys().peek(base).expect("descriptor peek");
        let w1 = self
            .machine
            .phys()
            .peek(base.wrapping_add(1))
            .expect("descriptor peek");
        Sdw::unpack(w0, w1)
    }

    /// Makes `pid` the current process and loads its DBR.
    ///
    /// # Panics
    ///
    /// Panics on an invalid pid.
    pub fn activate(&mut self, pid: usize) {
        let dbr = self.state().processes[pid].dbr;
        self.state_mut().current = pid;
        self.machine.load_dbr(dbr);
    }

    /// Logs process `pid` out: it stops being schedulable. Its stored
    /// segments and any shared images remain (on-line storage outlives
    /// processes).
    ///
    /// # Panics
    ///
    /// Panics on an invalid pid.
    pub fn logout(&mut self, pid: usize) {
        let st = self.state_mut();
        st.processes[pid].aborted = Some("logout".to_string());
        st.processes[pid].saved = None;
        st.sched.remove(pid);
    }

    /// The supervisor statistics snapshot.
    pub fn stats(&self) -> crate::state::SupervisorStats {
        self.state().stats
    }

    /// Turns on the machine's metrics recorder (ring crossings, faults,
    /// cycle histograms, per-segment heatmap).
    pub fn enable_metrics(&mut self) {
        self.machine.enable_metrics();
    }

    /// Arms deterministic chaos injection with `plan`. Must happen
    /// during world building (before execution) so record and replay
    /// see the same injection schedule.
    pub fn enable_chaos(&mut self, plan: ring_cpu::FaultPlan) {
        self.machine
            .set_chaos(ring_cpu::ChaosEngine::with_plan(plan));
    }

    /// Runs the chaos protection-invariant checker against the current
    /// world (descriptor brackets, frame-pool/PTW agreement, SDW-cache
    /// coherence). Violations come back typed
    /// ([`crate::invariants::InvariantViolation`]) so callers can
    /// classify them instead of string-matching.
    pub fn check_invariants(&self) -> Result<(), crate::invariants::InvariantViolation> {
        crate::invariants::check(&self.machine, self.state())
    }

    /// Captures the complete simulated world as a restartable
    /// checkpoint: a clone of the system. A copy-on-write memory stays
    /// shared with its image; only pages this machine has dirtied are
    /// copied.
    ///
    /// Taking a checkpoint never perturbs the run (the fleet supervisor
    /// checkpoints on a cycle cadence mid-execution).
    pub fn checkpoint(&self) -> SystemCheckpoint {
        SystemCheckpoint {
            system: self.clone(),
        }
    }

    /// The supervisor's fault-recovery counters.
    pub fn chaos_stats(&self) -> crate::state::ChaosRecoveryStats {
        self.state().chaos
    }

    /// Turns on the span flight recorder: every gate CALL and trap the
    /// supervisor mediates opens a span, closed by the matching
    /// RETURN/RETT, with per-gate cycle attribution.
    pub fn enable_spans(&mut self) {
        self.machine.enable_spans();
    }

    /// Drains the recorded span events (the recorder stays enabled).
    pub fn take_span_events(&mut self) -> Vec<ring_trace::SpanEvent> {
        self.machine.take_span_events()
    }

    /// Attaches the cycle-driven sampling profiler and time-series
    /// pipeline (`ring-prof`). Per-process attribution comes free: the
    /// scheduler reports each dispatch to the profiler, so sampled
    /// stacks are rooted at the running process. Either period can be
    /// zero to disable that pipeline. Neither needs the span or metrics
    /// recorder.
    pub fn enable_profiler(&mut self, sample_every: u64, timeseries_every: u64) {
        self.machine.enable_profiler(sample_every, timeseries_every);
    }

    /// The sampling profiler (read-only).
    pub fn profiler(&self) -> &ring_prof::Profiler {
        self.machine.profiler()
    }

    /// The interval time-series pipeline (read-only).
    pub fn timeseries(&self) -> &ring_prof::TimeSeries {
        self.machine.timeseries()
    }

    /// The cross-ring call tree of the run so far, aggregated per gate
    /// (sorted by total cycles).
    pub fn span_gate_table(&self) -> Vec<ring_trace::GateStat> {
        let tree = ring_trace::build_tree(self.machine.spans().events(), self.machine.cycles());
        ring_trace::gate_table(&tree)
    }

    /// Builds the unified observability snapshot: machine metrics and
    /// SDW-cache statistics, plus the supervisor's `os.*` counters in
    /// the `extra` section and its per-process counters by pid.
    pub fn metrics_snapshot(&self) -> ring_metrics::MetricsSnapshot {
        let mut snap = self.machine.metrics_snapshot();
        let st = self.state();
        snap.extra.extend(st.stats.export_pairs());
        if self.machine.chaos().enabled() {
            snap.extra.extend(st.chaos.export_pairs());
        }
        snap.procs = st
            .processes
            .iter()
            .map(|p| ring_metrics::ProcCounters {
                gate_calls: p.gate_calls,
                upward_calls: p.upward_calls,
                preemptions: p.preemptions,
                page_faults: p.page_faults,
            })
            .collect();
        let sc = st.sched.stats;
        snap.sched = ring_metrics::SchedStats {
            context_switches: sc.context_switches,
            preemptions: sc.preemptions,
            page_faults_minor: sc.page_faults_minor,
            page_faults_major: sc.page_faults_major,
            evictions: sc.evictions,
            io_blocks: sc.io_blocks,
            page_blocks: sc.page_blocks,
            idle_cycles: sc.idle_cycles,
        };
        snap
    }

    /// The unified snapshot serialized as JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// What the typewriter on the standard channel has printed.
    pub fn tty_printed(&self) -> String {
        self.machine
            .io()
            .device(crate::services::TTY_CHANNEL as usize)
            .printed()
    }
}
