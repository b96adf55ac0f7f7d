//! The processor: registers, configuration, cycle accounting, and the
//! instruction-cycle driver.
//!
//! The instruction cycle follows the paper's narrative exactly:
//! instruction retrieval with the Fig. 4 validation (`fetch` phase,
//! here), effective-address formation per Fig. 5 ([`crate::ea`]),
//! operand access or transfer per Figs. 6–7 ([`crate::exec`]), and the
//! CALL/RETURN ring switching of Figs. 8–9 ([`crate::callret`]). Traps
//! force ring 0 ([`crate::trap`]).
//!
//! # Cycle model
//!
//! Simulated time is counted in "cycles": one cycle per physical-memory
//! reference (so descriptor walks, page-table walks, indirect-word
//! fetches and operand references all cost what they touch), plus a
//! per-instruction base cost, plus fixed overheads for traps and DBR
//! loads. The SDW associative memory absorbs descriptor-walk references
//! on hits, exactly the effect it has in hardware.

use ring_core::access::Fault;
use ring_core::addr::{SegAddr, SegNo, WordNo, MAX_WORDNO};
use ring_core::callret::StackRule;
use ring_core::effective::EffectiveRingRules;
use ring_core::registers::{Dbr, Ipr, PtrReg, Tpr, NUM_PR};
use ring_core::ring::Ring;
use ring_core::sdw::Sdw;
use ring_core::validate;
use ring_core::word::Word;
use ring_metrics::{FastPathStats, MetricsSnapshot, SdwCacheStats};
use ring_segmem::phys::PhysMem;
use ring_segmem::translate::Translator;

use crate::ea::Counted;
use crate::io::IoSystem;
use crate::isa::Instr;
use crate::native::{NativeAction, NativeRegistry};
use crate::observe::Observer;
use crate::trace::TraceEvent;
use crate::trap::SavedState;

/// Base cost of every instruction (decode and ALU), in cycles, on top
/// of its counted memory references.
pub(crate) const BASE_INSTRUCTION_CYCLES: u64 = 1;

/// Static machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Stack-segment selection rule used by CALL (Fig. 8 + footnote).
    pub stack_rule: StackRule,
    /// Effective-ring formation rules (full paper design by default;
    /// weakened variants for the T6 ablation).
    pub ea_rules: EffectiveRingRules,
    /// SDW associative-memory capacity.
    pub sdw_cache: usize,
    /// Word number of the processor state save area within the trap
    /// segment.
    pub trap_save_offset: u32,
    /// Hardening beyond the paper (the eventual Multics 6180 adopted
    /// it): privileged instructions additionally require the executing
    /// segment's SDW privileged bit, not just ring 0. Off by default
    /// (the paper restricts by ring alone).
    pub require_privileged_segments: bool,
    /// Run common instructions through the fast-path engine (the
    /// `fastpath` module): cached ring-checked translations plus a
    /// predecoded instruction cache. Architecturally invisible —
    /// registers, memory, faults and simulated cycle counts are
    /// identical either way — so it is on by default; turn it off to
    /// run the reference interpreter alone (`--no-fastpath` in the
    /// tools).
    pub fastpath: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            stack_rule: StackRule::DbrBase,
            ea_rules: EffectiveRingRules::PAPER,
            sdw_cache: ring_segmem::sdw_cache::SdwCache::DEFAULT_CAPACITY,
            trap_save_offset: 64,
            require_privileged_segments: false,
            fastpath: true,
        }
    }
}

/// Execution statistics maintained by the machine.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Instructions completed (including those that then trapped).
    pub instructions: u64,
    /// CALLs that stayed in the same ring.
    pub calls_same_ring: u64,
    /// CALLs that switched the ring downward in hardware.
    pub calls_downward: u64,
    /// RETURNs that stayed in the same ring.
    pub returns_same_ring: u64,
    /// RETURNs that switched the ring upward in hardware.
    pub returns_upward: u64,
    /// Traps taken, by any cause.
    pub traps: u64,
    /// Upward-call traps (software-assisted ring crossing).
    pub upward_call_traps: u64,
    /// Downward-return traps (software-assisted ring crossing).
    pub downward_return_traps: u64,
    /// Native-procedure invocations.
    pub native_calls: u64,
    /// Instructions committed by the fast-path engine (a subset of
    /// `instructions`). Not part of a machine image: a restore zeroes
    /// it, so afterwards it counts the steps since the restore.
    pub fast_steps: u64,
}

/// Outcome of a single [`Machine::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction completed normally.
    Ran,
    /// A fault was detected and the processor trapped to ring 0.
    Trapped(Fault),
    /// The processor is halted.
    Halted,
}

/// Why [`Machine::run`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunExit {
    /// A HALT instruction was executed in ring 0.
    Halted,
    /// The instruction budget was exhausted.
    BudgetExhausted,
    /// The simulated-cycle watermark was reached
    /// ([`Machine::run_to_cycle`] only) — the machine is still live and
    /// can continue running.
    CycleLimit,
    /// A fault occurred while entering a trap (unrecoverable).
    DoubleFault(Fault),
}

/// The simulated processor plus its memory system.
///
/// # Examples
///
/// Build a one-segment world with [`crate::testkit::World`], run a
/// two-instruction program, and observe the registers:
///
/// ```
/// use ring_core::ring::Ring;
/// use ring_core::sdw::SdwBuilder;
/// use ring_cpu::isa::{Instr, Opcode};
/// use ring_cpu::machine::StepOutcome;
/// use ring_cpu::testkit::World;
///
/// let mut w = World::new();
/// let code = w.add_segment(
///     10,
///     SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4).bound_words(16),
/// );
/// w.poke_instr(code, 0, Instr::direct(Opcode::Lda, 40).immediate());
/// w.poke_instr(code, 1, Instr::direct(Opcode::Ada, 2).immediate());
/// w.start(Ring::R4, code, 0);
/// assert_eq!(w.machine.step(), StepOutcome::Ran);
/// assert_eq!(w.machine.step(), StepOutcome::Ran);
/// assert_eq!(w.machine.a().raw(), 42);
/// assert_eq!(w.machine.ring(), Ring::R4);
/// ```
///
/// A machine is a plain owned value: `Clone` copies every bit of state
/// (memory, caches, observers, the native-state slot) and shares only
/// immutable data (native bodies, a copy-on-write base image), so a
/// clone runs exactly as its source would and neither perturbs the
/// other.
#[derive(Clone)]
pub struct Machine {
    pub(crate) phys: PhysMem,
    pub(crate) tr: Translator,
    pub(crate) dbr: Dbr,
    pub(crate) ipr: Ipr,
    pub(crate) prs: [PtrReg; NUM_PR],
    pub(crate) a: Word,
    pub(crate) q: Word,
    pub(crate) x: [u32; 8],
    pub(crate) ind_zero: bool,
    pub(crate) ind_neg: bool,
    pub(crate) timer: Option<u64>,
    pub(crate) cycles: u64,
    pub(crate) config: MachineConfig,
    pub(crate) in_trap: bool,
    pub(crate) last_fault: Option<Fault>,
    pub(crate) natives: NativeRegistry,
    pub(crate) native_state: crate::native::NativeState,
    pub(crate) io: IoSystem,
    pub(crate) halted: bool,
    pub(crate) double_fault: Option<Fault>,
    pub(crate) stats: ExecStats,
    pub(crate) obs: Observer,
    pub(crate) last_use: Option<crate::isa::OperandUse>,
    pub(crate) extra_cycles: u64,
    pub(crate) fast: crate::fastpath::FastState,
    pub(crate) chaos: ring_chaos::ChaosEngine,
    pub(crate) chaos_protect: Vec<(u32, u32)>,
}

impl Machine {
    /// Creates a machine with `phys_words` of zeroed physical memory.
    ///
    /// The DBR starts empty (bound 0); world-building code installs a
    /// descriptor segment and loads the DBR before execution starts.
    pub fn new(phys_words: usize, config: MachineConfig) -> Machine {
        Machine::with_phys(PhysMem::new(phys_words), config)
    }

    /// Creates a machine around an existing physical memory — typically
    /// a copy-on-write view over a shared boot image
    /// ([`PhysMem::cow`]), so a fleet of machines can share one frozen
    /// image instead of each allocating private storage.
    pub fn with_phys(phys: PhysMem, config: MachineConfig) -> Machine {
        Machine {
            phys,
            tr: Translator::new(config.sdw_cache),
            dbr: Dbr::new(ring_core::addr::AbsAddr::ZERO, 0, SegNo::from_bits(0)),
            ipr: Ipr::new(Ring::R0, SegAddr::new(SegNo::from_bits(0), WordNo::ZERO)),
            prs: [PtrReg::NULL; NUM_PR],
            a: Word::ZERO,
            q: Word::ZERO,
            x: [0; 8],
            ind_zero: true,
            ind_neg: false,
            timer: None,
            cycles: 0,
            config,
            in_trap: false,
            last_fault: None,
            natives: NativeRegistry::new(),
            native_state: crate::native::NativeState::default(),
            io: IoSystem::new(),
            halted: false,
            double_fault: None,
            stats: ExecStats::default(),
            obs: Observer::default(),
            last_use: None,
            extra_cycles: 0,
            fast: crate::fastpath::FastState::new(),
            chaos: ring_chaos::ChaosEngine::off(),
            chaos_protect: Vec::new(),
        }
    }

    // ---- register and state access -------------------------------------

    /// The accumulator.
    pub fn a(&self) -> Word {
        self.a
    }

    /// Sets the accumulator (native procedures / world building).
    pub fn set_a(&mut self, v: Word) {
        self.a = v;
        self.set_indicators(v);
    }

    /// The Q register.
    pub fn q(&self) -> Word {
        self.q
    }

    /// Sets the Q register.
    pub fn set_q(&mut self, v: Word) {
        self.q = v;
    }

    /// Index register `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    pub fn xreg(&self, n: usize) -> u32 {
        self.x[n]
    }

    /// Sets index register `n` (masked to 18 bits).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    pub fn set_xreg(&mut self, n: usize, v: u32) {
        self.x[n] = v & MAX_WORDNO;
    }

    /// Pointer register `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    pub fn pr(&self, n: usize) -> PtrReg {
        self.prs[n]
    }

    /// Sets pointer register `n`, flooring its ring at the current ring
    /// of execution so the hardware invariant `PRn.RING >= IPR.RING` is
    /// preserved (this models a load performed by EAP, which inherits
    /// the invariant from `TPR.RING`).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    pub fn set_pr(&mut self, n: usize, pr: PtrReg) {
        self.prs[n] = pr.with_ring_floor(self.ipr.ring);
    }

    /// The instruction pointer.
    pub fn ipr(&self) -> Ipr {
        self.ipr
    }

    /// Starts execution at `ipr` (world building / examples).
    pub fn set_ipr(&mut self, ipr: Ipr) {
        self.ipr = ipr;
    }

    /// The current ring of execution.
    pub fn ring(&self) -> Ring {
        self.ipr.ring
    }

    /// The descriptor base register.
    pub fn dbr(&self) -> Dbr {
        self.dbr
    }

    /// Loads the DBR directly (world building; running programs use the
    /// privileged LDBR instruction). Flushes the SDW associative memory.
    pub fn load_dbr(&mut self, dbr: Dbr) {
        self.dbr = dbr;
        self.tr.flush_cache();
    }

    /// Elapsed simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Execution statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The most recent fault taken (cleared by RETT).
    pub fn last_fault(&self) -> Option<Fault> {
        self.last_fault
    }

    /// True once the processor has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The fault that caused a double-fault halt, if any.
    pub fn double_fault(&self) -> Option<Fault> {
        self.double_fault
    }

    /// Clears the halt condition (operator restart). Double faults are
    /// not cleared — a machine that faulted while entering a trap needs
    /// its world repaired, not a restart.
    pub fn clear_halt(&mut self) {
        if self.double_fault.is_none() {
            self.halted = false;
        }
    }

    /// Direct access to physical memory (world building and assertions;
    /// bypasses translation and protection exactly like a front panel).
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.phys
    }

    /// Read-only access to physical memory.
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// The translation engine (SDW cache statistics, etc.).
    pub fn translator(&self) -> &Translator {
        &self.tr
    }

    /// Mutable access to the translation engine (world building).
    pub fn translator_mut(&mut self) -> &mut Translator {
        &mut self.tr
    }

    /// Sets the interval timer (world building; programs use LDT).
    pub fn set_timer(&mut self, t: Option<u64>) {
        self.timer = t;
    }

    /// The interval timer's remaining cycles, if it is armed. The
    /// kernel uses this to re-arm the quantum only on machines that
    /// run preemptively.
    pub fn timer(&self) -> Option<u64> {
        self.timer
    }

    /// Enables execution tracing with the given capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.obs.enable_trace(capacity);
    }

    /// Drains and returns the trace events recorded so far.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.take_trace_seq().into_iter().map(|(_, e)| e).collect()
    }

    /// Drains the trace with global sequence numbers, so a consumer can
    /// tell how many earlier events were dropped by the ring buffer.
    pub fn take_trace_seq(&mut self) -> Vec<(u64, TraceEvent)> {
        self.obs.take_trace_seq()
    }

    /// Trace events discarded so far because the buffer was full.
    pub fn trace_dropped(&self) -> u64 {
        self.obs.trace_dropped()
    }

    /// Turns on the span flight recorder: every CALL and trap entry
    /// opens a span and every RETURN/RETT closes it, keyed by `(ring,
    /// segment, entry word)`. Off by default: a disabled recorder costs
    /// one branch per CALL, RETURN, trap entry and RETT only and changes
    /// no architectural state either way.
    pub fn enable_spans(&mut self) {
        self.obs.spans.enable();
    }

    /// The span recorder (read-only).
    pub fn spans(&self) -> &ring_trace::SpanRecorder {
        &self.obs.spans
    }

    /// Drains the recorded span events (the recorder stays enabled).
    pub fn take_span_events(&mut self) -> Vec<ring_trace::SpanEvent> {
        self.obs.spans.take_events()
    }

    /// Attaches the cycle-driven sampling profiler (`ring-prof`):
    /// every `sample_every` simulated cycles a weighted stack sample
    /// is taken at a step boundary (never inside a trap), and every
    /// `timeseries_every` cycles five cumulative counters (cycles,
    /// instructions, faults, ring changes, page faults) are recorded
    /// for interval telemetry. Either period can be zero to disable
    /// that pipeline. The profiler keeps its own stack of open CALL
    /// and trap frames, so it needs neither the span recorder nor the
    /// metrics recorder. Profiling is purely observational: simulated
    /// cycles, registers and faults are bit-identical with it on or
    /// off.
    pub fn enable_profiler(&mut self, sample_every: u64, timeseries_every: u64) {
        self.obs.enable_profiler(sample_every, timeseries_every);
    }

    /// The sampling profiler (read-only).
    pub fn profiler(&self) -> &ring_prof::Profiler {
        &self.obs.prof
    }

    /// The interval time-series pipeline (read-only).
    pub fn timeseries(&self) -> &ring_prof::TimeSeries {
        &self.obs.timeseries
    }

    /// Notes that the supervisor dispatched process `pid` at the
    /// current cycle count. Paints per-process scheduler tracks in the
    /// span flight recorder and roots later profiler samples at `pid`;
    /// one branch per recorder while they are off, and never a change
    /// to architectural state.
    pub fn note_sched(&mut self, pid: u32) {
        self.obs.sched(pid, self.cycles);
    }

    /// Turns on metrics collection (ring crossings, faults, cycle
    /// histograms, the per-segment heatmap). Off by default: a disabled
    /// recorder costs one branch per event and changes no architectural
    /// state either way.
    pub fn enable_metrics(&mut self) {
        self.obs.metrics.enable();
    }

    /// SDW associative-memory statistics, independent of the metrics
    /// recorder (the cache counts its own traffic).
    pub fn sdw_cache_stats(&self) -> ring_segmem::sdw_cache::CacheStats {
        self.tr.cache_stats()
    }

    /// Builds an export-ready snapshot of everything recorded: metrics
    /// counters and histograms, execution totals, and SDW-cache
    /// statistics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let cs = self.tr.cache_stats();
        let mut snap = MetricsSnapshot::new(
            &self.obs.metrics,
            self.stats.instructions,
            self.cycles,
            SdwCacheStats {
                hits: cs.hits,
                misses: cs.misses,
                flushes: cs.flushes,
                invalidations: cs.invalidations,
            },
            self.fastpath_stats(),
        );
        snap.prof = ring_metrics::ProfStats {
            samples: self.obs.prof.samples(),
            sample_every: self.obs.prof.sample_every(),
            timeseries_points: self.obs.timeseries.len() as u64,
            timeseries_every: self.obs.timeseries.every(),
        };
        snap.trace_dropped = self.trace_dropped();
        if self.chaos.enabled() {
            for (k, v) in self.chaos.export_pairs() {
                snap.push_extra(k, v);
            }
            snap.push_extra("chaos.repaired", self.phys.repaired_count());
            snap.push_extra(
                "chaos.latent",
                self.phys.poison_count()
                    + self.chaos.armed_drum_errors()
                    + u64::from(self.io.pending_watchdogs()),
            );
        }
        snap
    }

    /// Fast-path engine counters: instructions by path, lookaside
    /// traffic, and instruction-cache traffic.
    pub fn fastpath_stats(&self) -> FastPathStats {
        let tlb = self.tr.tlb_stats();
        FastPathStats {
            fast_instructions: self.stats.fast_steps,
            slow_instructions: self.stats.instructions - self.stats.fast_steps,
            tlb_hits: tlb.hits,
            tlb_misses: tlb.misses,
            tlb_installs: tlb.installs,
            tlb_invalidations: tlb.invalidations,
            tlb_flushes: tlb.flushes,
            icache_hits: self.fast.icache.hits,
            icache_misses: self.fast.icache.misses,
        }
    }

    /// Charges extra simulated cycles (used by native procedures to
    /// account for the work a compiled-code body would have done).
    pub fn charge(&mut self, cycles: u64) {
        self.extra_cycles += cycles;
    }

    /// Advances the simulated clock by `n` cycles without executing
    /// anything. This is supervisor dead time — the restart backoff
    /// between a machine failure and the restarted machine's first
    /// instruction — so it moves the clock directly rather than going
    /// through [`Machine::charge`] (whose cycles attach to the next
    /// instruction) and does not consume the preemption timer.
    pub fn advance_cycles(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Arms the chaos engine (deterministic fault injection). The
    /// default engine is inert; arming replaces it wholesale, so this
    /// happens during world building, before execution starts.
    pub fn set_chaos(&mut self, engine: ring_chaos::ChaosEngine) {
        self.chaos = engine;
    }

    /// The chaos engine (injection/detection ledger).
    pub fn chaos(&self) -> &ring_chaos::ChaosEngine {
        &self.chaos
    }

    /// Mutable chaos engine access — the supervisor consumes armed drum
    /// errors and reports recoveries through this.
    pub fn chaos_mut(&mut self) -> &mut ring_chaos::ChaosEngine {
        &mut self.chaos
    }

    /// Registers a physical range `[lo, hi)` that chaos injection must
    /// never poison. The supervisor registers the per-process trap-SDW
    /// pairs here: a parity error met while entering a trap is an
    /// unrecoverable double fault, so those words play the role of the
    /// real hardware's dedicated (parity-checked-and-corrected) trap
    /// storage.
    pub fn chaos_protect(&mut self, lo: u32, hi: u32) {
        self.chaos_protect.push((lo, hi));
    }

    /// The I/O system (device queues).
    pub fn io_mut(&mut self) -> &mut IoSystem {
        &mut self.io
    }

    /// Read-only access to the I/O system.
    pub fn io(&self) -> &IoSystem {
        &self.io
    }

    pub(crate) fn set_indicators(&mut self, v: Word) {
        self.ind_zero = v.is_zero();
        self.ind_neg = v.is_negative();
    }

    // ---- supervisor-level services (native ring-0 procedures) ----

    /// Reads the SDW currently installed for `segno` (counted like the
    /// hardware's descriptor walk; served from the associative memory
    /// when possible).
    pub fn segment_descriptor(&mut self, segno: SegNo) -> Result<Sdw, Fault> {
        self.tr.fetch_sdw(
            &mut self.phys,
            &self.dbr,
            SegAddr::new(segno, WordNo::ZERO),
            ring_core::access::AccessMode::Read,
        )
    }

    /// Writes `sdw` into the current descriptor segment for `segno` and
    /// invalidates its associative-memory entry (so the change is
    /// immediately effective). Refused outside ring 0: this is
    /// supervisor work.
    pub fn store_descriptor(&mut self, segno: SegNo, sdw: &Sdw) -> Result<(), Fault> {
        if self.ipr.ring != Ring::R0 {
            return Err(Fault::PrivilegedViolation {
                ring: self.ipr.ring,
            });
        }
        self.tr.store_sdw(&mut self.phys, &self.dbr, segno, sdw)
    }

    /// Starts an I/O channel from a two-word channel program — the
    /// native-procedure equivalent of the privileged SIO instruction,
    /// with the same ring-0 restriction.
    pub fn start_io(&mut self, w0: Word, w1: Word) -> Result<(), Fault> {
        if self.ipr.ring != Ring::R0 {
            return Err(Fault::PrivilegedViolation {
                ring: self.ipr.ring,
            });
        }
        let now = self.cycles;
        self.io.start(w0, w1, now)
    }

    // ---- validated memory access (the paths native procedures use) ----

    /// Fetches the SDW for `addr.segno` (counted like hardware).
    ///
    /// This is the single chokepoint every validated reference funnels
    /// through, so it is also where the metrics layer observes memory
    /// traffic: SDW-cache hit/miss latency and the per-segment access
    /// heatmap.
    pub(crate) fn sdw_for(
        &mut self,
        addr: SegAddr,
        mode: ring_core::access::AccessMode,
    ) -> Result<Sdw, Fault> {
        self.sdw_for_as(addr, mode, mode)
    }

    /// [`Machine::sdw_for`], with the reference counted in the heatmap
    /// as a `heat` reference; a missing segment still faults with
    /// `mode`.
    pub(crate) fn sdw_for_as(
        &mut self,
        addr: SegAddr,
        mode: ring_core::access::AccessMode,
        heat: ring_core::access::AccessMode,
    ) -> Result<Sdw, Fault> {
        if !self.obs.metrics.is_enabled() {
            return self.tr.fetch_sdw(&mut self.phys, &self.dbr, addr, mode);
        }
        let hits_before = self.tr.cache_stats().hits;
        let refs_before = self.phys.ref_count();
        let result = self.tr.fetch_sdw(&mut self.phys, &self.dbr, addr, mode);
        if self.tr.cache_stats().hits > hits_before {
            self.obs.metrics.sdw_hit();
        } else {
            self.obs
                .metrics
                .sdw_miss(self.phys.ref_count() - refs_before);
        }
        if result.is_ok() {
            self.obs.metrics.access(addr.segno.value(), heat);
        }
        result
    }

    /// Reads a word with full hardware validation at the effective ring
    /// of `ptr` — exactly what an `LDA ptr|0` would do.
    ///
    /// Native procedures must use this (or the other `*_validated`
    /// accessors) for every reference they make on behalf of a caller,
    /// so that cross-ring argument references are validated exactly as
    /// compiled code's references would be.
    pub fn read_validated(&mut self, ptr: PtrReg) -> Result<Word, Fault> {
        // The pointer's ring field is an effective validation level
        // (TPR.RING so far) and is always honoured; the ablation rules
        // govern only what gets folded in during chain traversal.
        let ring = self.ipr.ring.least_privileged(ptr.ring);
        let sdw = self.sdw_for(ptr.addr, ring_core::access::AccessMode::Read)?;
        validate::check_read(&sdw, ptr.addr, ring)?;
        let abs = self.tr.resolve(&mut self.phys, &sdw, ptr.addr, false)?;
        self.phys.read(abs)
    }

    /// Writes a word with full hardware validation at the effective
    /// ring of `ptr` — exactly what an `STA ptr|0` would do.
    pub fn write_validated(&mut self, ptr: PtrReg, value: Word) -> Result<(), Fault> {
        let ring = self.ipr.ring.least_privileged(ptr.ring);
        let sdw = self.sdw_for(ptr.addr, ring_core::access::AccessMode::Write)?;
        validate::check_write(&sdw, ptr.addr, ring)?;
        let abs = self.tr.resolve(&mut self.phys, &sdw, ptr.addr, true)?;
        self.phys.write(abs, value)
    }

    /// Retrieves the indirect-word pair at `ptr` — following any
    /// further-indirection chain — and returns a pointer whose ring is
    /// the folded effective ring (current ring, `ptr`'s ring, every
    /// indirect word's ring, every containing segment's write-bracket
    /// top): exactly the Fig. 5 treatment. This is how a native
    /// procedure dereferences an argument-list entry safely.
    pub fn read_pointer_validated(&mut self, ptr: PtrReg) -> Result<PtrReg, Fault> {
        let tpr = Tpr {
            ring: ring_core::effective::fold_pr(self.ipr.ring, ptr.ring, self.config.ea_rules),
            addr: ptr.addr,
        };
        let ea = self.follow_chain(&mut Counted { warm: false }, tpr, true)?;
        Ok(PtrReg::new(ea.tpr.ring, ea.tpr.addr))
    }

    /// Stores `ptr` as an indirect-word pair at `at` with write
    /// validation — what SPRI does.
    pub fn write_pointer_validated(&mut self, at: PtrReg, ptr: PtrReg) -> Result<(), Fault> {
        let ring = self.ipr.ring.least_privileged(at.ring);
        let sdw = self.sdw_for(at.addr, ring_core::access::AccessMode::Write)?;
        self.write_pair(&sdw, at.addr, ring, ptr)
    }

    /// Returns a pointer to the `n`-th argument given the argument-list
    /// pointer `ap`: dereferences the indirect pair at `ap + 2n`. The
    /// returned pointer carries the effective validation ring, so
    /// subsequent [`Machine::read_validated`] / [`Machine::write_validated`]
    /// through it are automatically validated "as though execution were
    /// occurring in the (higher numbered) ring of the calling procedure".
    pub fn arg_pointer(&mut self, ap: PtrReg, n: u32) -> Result<PtrReg, Fault> {
        let slot = PtrReg::new(
            ap.ring,
            SegAddr::new(ap.addr.segno, ap.addr.wordno.wrapping_add(2 * n)),
        );
        self.read_pointer_validated(slot)
    }

    // ---- instruction cycle ---------------------------------------------

    /// Executes one instruction (or takes one trap).
    pub fn step(&mut self) -> StepOutcome {
        if self.halted {
            return StepOutcome::Halted;
        }
        // Asynchronous conditions are recognised between instructions,
        // and held off while a trap is being serviced (the save area
        // holds state the supervisor has not yet copied). Chaos
        // injection obeys the same eligibility window, so it is part of
        // the deterministic simulated state and replays identically.
        if !self.in_trap {
            // The profiler and the time series sample at the same
            // eligibility window: deterministic in simulated cycles,
            // purely observational (no counted memory references), so
            // cycle counts are identical with them on or off.
            if self.obs.due(self.cycles) {
                self.obs.tick(self.cycles, self.ipr, &self.stats);
            }
            if self.chaos.enabled() {
                self.chaos_tick();
            }
            if let Some(f) = self.pending_async() {
                return self.take_trap(self.snapshot(), f);
            }
        }
        let refs_before = self.phys.ref_count();
        self.extra_cycles = 0;
        self.last_use = None;
        // The fast path either commits a whole instruction or bails
        // with nothing mutated, so the pre-instruction snapshot is only
        // needed (and only valid to defer) for the slow path.
        let (result, snapshot) = if self.config.fastpath && self.try_execute_fast().is_some() {
            (Ok(()), None)
        } else {
            if self.config.fastpath {
                self.tr.fast_note_miss();
            }
            let snapshot = self.snapshot();
            (self.execute_one(), Some(snapshot))
        };
        self.stats.instructions += 1;
        let spent =
            BASE_INSTRUCTION_CYCLES + (self.phys.ref_count() - refs_before) + self.extra_cycles;
        self.cycles += spent;
        if let Some(t) = self.timer.as_mut() {
            *t = t.saturating_sub(spent);
        }
        if result.is_ok() && self.obs.metrics.is_enabled() {
            // Attribute the whole instruction's cycle cost to the
            // CALL/RETURN path histograms (completed paths only).
            match self.last_use {
                Some(crate::isa::OperandUse::Call) => self.obs.metrics.call_cycles(spent),
                Some(crate::isa::OperandUse::Return) => self.obs.metrics.return_cycles(spent),
                _ => {}
            }
        }
        match result {
            Ok(()) => {
                if self.halted {
                    StepOutcome::Halted
                } else {
                    StepOutcome::Ran
                }
            }
            Err(fault) => {
                let snapshot = snapshot.expect("fast path cannot fault");
                self.take_trap(snapshot, fault)
            }
        }
    }

    /// Runs until halt, a double fault, or `budget` instructions.
    pub fn run(&mut self, budget: u64) -> RunExit {
        for _ in 0..budget {
            match self.step() {
                StepOutcome::Halted => {
                    return match self.double_fault {
                        Some(f) => RunExit::DoubleFault(f),
                        None => RunExit::Halted,
                    }
                }
                StepOutcome::Ran | StepOutcome::Trapped(_) => {}
            }
        }
        RunExit::BudgetExhausted
    }

    /// Runs until halt, a double fault, `budget` instructions, or the
    /// simulated clock reaching `cycle_watermark` — whichever first.
    ///
    /// This is the checkpoint-cadence / watchdog primitive: a
    /// supervisor runs the machine in cycle-bounded slices, capturing a
    /// checkpoint at each [`RunExit::CycleLimit`] return, and treats a
    /// machine that exhausts its cycle budget without halting as
    /// wedged. Slicing is architecturally invisible — the steps taken
    /// are exactly the steps [`Machine::run`] would take.
    pub fn run_to_cycle(&mut self, cycle_watermark: u64, budget: u64) -> RunExit {
        for _ in 0..budget {
            if self.cycles >= cycle_watermark {
                return RunExit::CycleLimit;
            }
            match self.step() {
                StepOutcome::Halted => {
                    return match self.double_fault {
                        Some(f) => RunExit::DoubleFault(f),
                        None => RunExit::Halted,
                    }
                }
                StepOutcome::Ran | StepOutcome::Trapped(_) => {}
            }
        }
        RunExit::BudgetExhausted
    }

    fn pending_async(&mut self) -> Option<Fault> {
        if matches!(self.timer, Some(0)) {
            self.timer = None;
            return Some(Fault::TimerRunout);
        }
        if let Some(channel) = self.io.take_completion(self.cycles, &mut self.phys) {
            return Some(Fault::IoCompletion { channel });
        }
        if let Some(channel) = self.io.take_watchdog_expiry(self.cycles) {
            return Some(Fault::IoError {
                channel,
                code: crate::io::IO_ERROR_WATCHDOG,
            });
        }
        None
    }

    fn execute_one(&mut self) -> Result<(), Fault> {
        // ---- Fig. 4: retrieve the next instruction ----
        let iaddr = self.ipr.addr;
        let isdw = self.sdw_for(iaddr, ring_core::access::AccessMode::Execute)?;
        validate::check_fetch(&isdw, iaddr, self.ipr.ring)?;
        if let Some(handler) = self.natives.handler(iaddr.segno) {
            self.stats.native_calls += 1;
            self.obs.native(iaddr.segno, iaddr.wordno);
            let action = handler(self, iaddr.wordno)?;
            return self.apply_native_action(action);
        }
        let abs = self.tr.resolve(&mut self.phys, &isdw, iaddr, false)?;
        let iword = self.phys.read(abs)?;
        if self.config.fastpath {
            // Warm both fast-path caches from the successful slow
            // fetch (the natives intercept above already passed, so
            // plain fetches from this page are safe to cache).
            self.tr
                .fast_install(&self.phys, iaddr, self.ipr.ring, &isdw, false);
        }
        let instr = Instr::decode(iword)?;
        if self.config.fastpath {
            self.fast.icache.install(iaddr, iword, instr);
        }
        let use_class = instr.opcode.operand_use();
        self.last_use = Some(use_class);
        self.obs.instruction(self.ipr, instr, use_class);
        // The instruction counter advances before execution; transfers
        // overwrite it.
        self.ipr.addr = SegAddr::new(iaddr.segno, iaddr.wordno.wrapping_add(1));
        self.exec_instr(instr, iaddr.segno, &isdw)
    }

    fn apply_native_action(&mut self, action: NativeAction) -> Result<(), Fault> {
        match action {
            NativeAction::Return { via } => self.exec_return_via(via),
            NativeAction::Resume => self.exec_rett(),
            NativeAction::Halt => {
                self.halted = true;
                Ok(())
            }
        }
    }

    pub(crate) fn snapshot(&self) -> SavedState {
        SavedState {
            ipr: self.ipr,
            prs: self.prs,
            a: self.a,
            q: self.q,
            x: self.x,
            ind_zero: self.ind_zero,
            ind_neg: self.ind_neg,
        }
    }

    pub(crate) fn restore(&mut self, s: &SavedState) {
        self.ipr = s.ipr;
        self.prs = s.prs;
        self.a = s.a;
        self.q = s.q;
        self.x = s.x;
        self.ind_zero = s.ind_zero;
        self.ind_neg = s.ind_neg;
    }
}
