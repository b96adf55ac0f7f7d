//! Export-ready snapshots: the merged view of machine metrics,
//! SDW-cache statistics and supervisor counters, with JSON and CSV
//! serializers (hand-rolled — the simulator has no serde dependency).
//!
//! The JSON schema is documented in `docs/OBSERVABILITY.md` at the
//! workspace root; the CSV form is a flat `key,value` table using the
//! same dotted keys as the JSON paths.

use std::borrow::Cow;

use crate::counters::{add_counts, CrossingCounters, FaultCounters, OpClassCounters, NUM_RINGS};
use crate::heatmap::SegmentHeatmap;
use crate::hist::CycleHistogram;
use crate::Metrics;

/// SDW associative-memory statistics, mirrored here so consumers of a
/// snapshot need no `ring-segmem` dependency.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SdwCacheStats {
    /// Lookups satisfied by the cache.
    pub hits: u64,
    /// Lookups that walked the descriptor segment.
    pub misses: u64,
    /// Full flushes (DBR loads).
    pub flushes: u64,
    /// Single-entry invalidations (supervisor SDW updates).
    pub invalidations: u64,
}

impl SdwCacheStats {
    /// Hit ratio in `[0, 1]`; zero when there were no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Fast-path engine statistics (the ring-checked translation lookaside
/// plus the predecoded instruction cache), mirrored here so snapshot
/// consumers need no `ring-segmem`/`ring-cpu` dependency. Purely
/// observational: the fast path changes no architectural counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Instructions committed by the fast-path engine.
    pub fast_instructions: u64,
    /// Instructions executed by the reference interpreter (including
    /// all instructions when the fast path is disabled).
    pub slow_instructions: u64,
    /// Committed fast-path translations.
    pub tlb_hits: u64,
    /// Fast-path attempts abandoned to the slow path.
    pub tlb_misses: u64,
    /// Lookaside entries installed.
    pub tlb_installs: u64,
    /// Per-segment lookaside invalidation sweeps.
    pub tlb_invalidations: u64,
    /// Full lookaside flushes (DBR loads).
    pub tlb_flushes: u64,
    /// Instruction fetches served predecoded.
    pub icache_hits: u64,
    /// Instruction fetches that decoded afresh.
    pub icache_misses: u64,
}

impl FastPathStats {
    /// Fraction of instructions that committed on the fast path, in
    /// `[0, 1]`; zero when nothing ran.
    pub fn fast_ratio(&self) -> f64 {
        let total = self.fast_instructions + self.slow_instructions;
        if total == 0 {
            0.0
        } else {
            self.fast_instructions as f64 / total as f64
        }
    }
}

/// Scheduler and demand-paging statistics, mirrored here so snapshot
/// consumers need no `ring-sched` dependency. All-zero in
/// single-process runs (the kernel without a frame budget never
/// context-switches for paging).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Dispatches that changed the running process (DBR switches).
    pub context_switches: u64,
    /// Timer runouts that preempted a still-runnable process.
    pub preemptions: u64,
    /// Page faults filled from the segment's file image (first touch).
    pub page_faults_minor: u64,
    /// Page faults filled from the backing store (after an eviction).
    pub page_faults_major: u64,
    /// Resident pages evicted by the CLOCK hand.
    pub evictions: u64,
    /// Times a process blocked waiting for an I/O completion.
    pub io_blocks: u64,
    /// Times a process blocked waiting for a page-in.
    pub page_blocks: u64,
    /// Cycles the processor idled with every process blocked.
    pub idle_cycles: u64,
}

impl SchedStats {
    /// Total page faults, both classes.
    pub fn page_faults(&self) -> u64 {
        self.page_faults_minor + self.page_faults_major
    }

    fn merge(&mut self, other: &SchedStats) {
        self.context_switches += other.context_switches;
        self.preemptions += other.preemptions;
        self.page_faults_minor += other.page_faults_minor;
        self.page_faults_major += other.page_faults_major;
        self.evictions += other.evictions;
        self.io_blocks += other.io_blocks;
        self.page_blocks += other.page_blocks;
        self.idle_cycles += other.idle_cycles;
    }
}

/// One process's supervisor counters, exported in the `extra` section
/// as `os.proc.<pid>.<name>`. A snapshot holds them by pid in
/// [`MetricsSnapshot::procs`], so it carries no formatted key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcCounters {
    /// Gate transits (HCS + ring-1) made by the process.
    pub gate_calls: u64,
    /// Software-mediated upward calls made by the process.
    pub upward_calls: u64,
    /// Times the scheduler took the processor away from the process
    /// while it was still runnable.
    pub preemptions: u64,
    /// Page faults (minor and major) the process took.
    pub page_faults: u64,
}

impl ProcCounters {
    /// The counters under their key suffixes, in export order.
    pub fn iter(&self) -> [(&'static str, u64); 4] {
        [
            ("gate_calls", self.gate_calls),
            ("upward_calls", self.upward_calls),
            ("preemptions", self.preemptions),
            ("page_faults", self.page_faults),
        ]
    }

    fn merge(&mut self, other: &ProcCounters) {
        self.gate_calls += other.gate_calls;
        self.upward_calls += other.upward_calls;
        self.preemptions += other.preemptions;
        self.page_faults += other.page_faults;
    }
}

/// Cycle-driven profiler statistics (the `ring-prof` sampling profiler
/// and time-series pipeline), mirrored here so snapshot consumers need
/// no `ring-prof` dependency. All-zero when no profiler is attached;
/// assigned after [`MetricsSnapshot::new`] like [`SchedStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfStats {
    /// Stack samples captured.
    pub samples: u64,
    /// Sampling period in simulated cycles (0 = profiler off).
    pub sample_every: u64,
    /// Time-series points recorded.
    pub timeseries_points: u64,
    /// Time-series interval in simulated cycles (0 = pipeline off).
    pub timeseries_every: u64,
}

impl ProfStats {
    fn merge(&mut self, other: &ProfStats) {
        self.samples += other.samples;
        self.timeseries_points += other.timeseries_points;
        // The periods are configuration, not counters: keep ours unless
        // unset (so merging an unprofiled run is the identity).
        if self.sample_every == 0 {
            self.sample_every = other.sample_every;
        }
        if self.timeseries_every == 0 {
            self.timeseries_every = other.timeseries_every;
        }
    }
}

/// A complete, self-contained picture of everything the observability
/// layer recorded, plus the execution totals it is reported against.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Whether the metrics layer was enabled when the snapshot was taken
    /// (a disabled run exports structure with all-zero counters).
    pub enabled: bool,
    /// Instructions completed by the machine.
    pub instructions: u64,
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// Ring-crossing counts, per kind and as the from×to matrix.
    pub crossings: CrossingCounters,
    /// Fault counts by trap vector and by faulting ring.
    pub faults: FaultCounters,
    /// Instruction counts by operand-reference class.
    pub opclasses: OpClassCounters,
    /// Instruction counts by ring of execution.
    pub instr_by_ring: [u64; NUM_RINGS],
    /// CALL-path cycle costs.
    pub call_cycles: CycleHistogram,
    /// RETURN-path cycle costs.
    pub return_cycles: CycleHistogram,
    /// Effective-address indirect-chain depths.
    pub ea_depth: CycleHistogram,
    /// Fig. 5 TPR ring-maximisation events.
    pub tpr_maximisations: u64,
    /// Extra descriptor-walk references on SDW-cache hits (always 0:
    /// a hit walks nothing).
    pub sdw_hit_refs: CycleHistogram,
    /// Extra descriptor-walk references on SDW-cache misses.
    pub sdw_miss_refs: CycleHistogram,
    /// Per-segment access counts, ascending by segment number.
    pub heatmap: SegmentHeatmap,
    /// SDW associative-memory statistics.
    pub sdw_cache: SdwCacheStats,
    /// Fast-path engine statistics.
    pub fastpath: FastPathStats,
    /// Scheduler and demand-paging statistics (all-zero outside
    /// multiprogrammed runs; assigned by the kernel after
    /// [`MetricsSnapshot::new`], which keeps its signature stable).
    pub sched: SchedStats,
    /// Sampling-profiler statistics (all-zero when no profiler is
    /// attached; assigned after [`MetricsSnapshot::new`]).
    pub prof: ProfStats,
    /// Execution-trace events discarded by the drop-oldest ring buffer
    /// (assigned after [`MetricsSnapshot::new`]; zero when tracing is
    /// off or the buffer never wrapped).
    pub trace_dropped: u64,
    /// Namespaced supplementary counters under static keys, in push
    /// order (the supervisor contributes `os.*` keys such as gate
    /// transits and ACL denials, the chaos engine `chaos.*` keys).
    pub extra: Vec<(&'static str, u64)>,
    /// The supervisor's per-process counters by pid, exported after
    /// [`MetricsSnapshot::extra`] as `os.proc.<pid>.*`.
    pub procs: Vec<ProcCounters>,
    /// Whether [`MetricsSnapshot::merge`] folded into this snapshot:
    /// the writers then list the `extra` section sorted by key.
    merged: bool,
}

impl MetricsSnapshot {
    /// Builds a snapshot from the recorder plus execution totals and
    /// cache statistics gathered by the machine.
    pub fn new(
        metrics: &Metrics,
        instructions: u64,
        cycles: u64,
        sdw_cache: SdwCacheStats,
        fastpath: FastPathStats,
    ) -> MetricsSnapshot {
        let tallies = metrics.folded();
        let mut sdw_hit_refs = CycleHistogram::new();
        sdw_hit_refs.record_n(0, tallies.sdw_hits);
        MetricsSnapshot {
            enabled: metrics.is_enabled(),
            instructions,
            cycles,
            crossings: metrics.crossings.clone(),
            faults: metrics.faults.clone(),
            opclasses: tallies.opclasses,
            instr_by_ring: tallies.instr_by_ring,
            call_cycles: metrics.call_cycles.clone(),
            return_cycles: metrics.return_cycles.clone(),
            ea_depth: tallies.ea_depth,
            tpr_maximisations: tallies.tpr_maximisations,
            sdw_hit_refs,
            sdw_miss_refs: metrics.sdw_miss_refs.clone(),
            heatmap: tallies.heatmap,
            sdw_cache,
            fastpath,
            sched: SchedStats::default(),
            prof: ProfStats::default(),
            trace_dropped: 0,
            extra: Vec::new(),
            procs: Vec::new(),
            merged: false,
        }
    }

    /// Folds `other` into this snapshot for fleet roll-up: every
    /// counter sums, histograms and heatmaps merge, and the derived
    /// ratios/percentiles are recomputed over the combined data — so
    /// merging the snapshots of two disjoint runs equals the snapshot
    /// of their concatenation for every counter.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.enabled |= other.enabled;
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.crossings.merge(&other.crossings);
        self.faults.merge(&other.faults);
        self.opclasses.merge(&other.opclasses);
        add_counts(&mut self.instr_by_ring, &other.instr_by_ring);
        self.call_cycles.merge(&other.call_cycles);
        self.return_cycles.merge(&other.return_cycles);
        self.ea_depth.merge(&other.ea_depth);
        self.tpr_maximisations += other.tpr_maximisations;
        self.sdw_hit_refs.merge(&other.sdw_hit_refs);
        self.sdw_miss_refs.merge(&other.sdw_miss_refs);
        self.heatmap.merge(&other.heatmap);
        self.sdw_cache.hits += other.sdw_cache.hits;
        self.sdw_cache.misses += other.sdw_cache.misses;
        self.sdw_cache.flushes += other.sdw_cache.flushes;
        self.sdw_cache.invalidations += other.sdw_cache.invalidations;
        self.fastpath.fast_instructions += other.fastpath.fast_instructions;
        self.fastpath.slow_instructions += other.fastpath.slow_instructions;
        self.fastpath.tlb_hits += other.fastpath.tlb_hits;
        self.fastpath.tlb_misses += other.fastpath.tlb_misses;
        self.fastpath.tlb_installs += other.fastpath.tlb_installs;
        self.fastpath.tlb_invalidations += other.fastpath.tlb_invalidations;
        self.fastpath.tlb_flushes += other.fastpath.tlb_flushes;
        self.fastpath.icache_hits += other.fastpath.icache_hits;
        self.fastpath.icache_misses += other.fastpath.icache_misses;
        self.sched.merge(&other.sched);
        self.prof.merge(&other.prof);
        self.trace_dropped += other.trace_dropped;
        for (i, &(key, v)) in other.extra.iter().enumerate() {
            // Snapshots made by the same code list the same static keys
            // in the same order: try the same position first, and compare
            // key addresses before key bytes, which a fleet fold often
            // finds out of cache.
            let same = |&(k, _): &(&str, u64)| std::ptr::eq(k, key) || k == key;
            let slot = match self.extra.get(i) {
                Some(e) if same(e) => Some(i),
                _ => self.extra.iter().position(same),
            };
            match slot {
                Some(j) => self.extra[j].1 += v,
                None => self.extra.push((key, v)),
            }
        }
        if self.procs.len() < other.procs.len() {
            self.procs
                .resize(other.procs.len(), ProcCounters::default());
        }
        for (mine, theirs) in self.procs.iter_mut().zip(&other.procs) {
            mine.merge(theirs);
        }
        // A merge may interleave keys from snapshots whose processes
        // differ, so its append order would depend on the fold shape.
        // Fleet aggregation folds thousands of snapshots and demands
        // exact associativity: the writers list a merged snapshot's
        // extras sorted by key, the same bytes whichever way the fold
        // tree is shaped.
        self.merged = true;
    }

    /// Appends a namespaced supplementary counter (e.g.
    /// `os.gate_calls_hcs`).
    pub fn push_extra(&mut self, key: &'static str, value: u64) {
        self.extra.push((key, value));
    }

    /// The value of an exported `extra` key, if present: a
    /// supplementary counter (e.g. `chaos.recovered` when chaos
    /// injection is enabled) or a per-process `os.proc.<pid>.<name>`.
    pub fn extra(&self, key: &str) -> Option<u64> {
        if let Some(&(_, v)) = self.extra.iter().find(|(k, _)| *k == key) {
            return Some(v);
        }
        let (pid, name) = key.strip_prefix("os.proc.")?.split_once('.')?;
        let pid = pid.parse::<usize>().ok().filter(|p| p.to_string() == pid)?;
        let counters = self.procs.get(pid)?.iter();
        counters
            .into_iter()
            .find(|&(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// The `extra` section as both writers list it: push order with
    /// the per-process keys last in pid order or, once merged, every
    /// key sorted (so `os.proc.10.*` precedes `os.proc.2.*`).
    pub fn extras(&self) -> Vec<(Cow<'static, str>, u64)> {
        let mut out: Vec<(Cow<'static, str>, u64)> = self
            .extra
            .iter()
            .map(|&(k, v)| (Cow::Borrowed(k), v))
            .collect();
        for (pid, counters) in self.procs.iter().enumerate() {
            for (name, v) in counters.iter() {
                out.push((Cow::Owned(format!("os.proc.{pid}.{name}")), v));
            }
        }
        if self.merged {
            out.sort_by(|(a, _), (b, _)| a.cmp(b));
        }
        out
    }

    /// The histograms under their export keys, in export order.
    fn histograms(&self) -> [(&'static str, &CycleHistogram); 5] {
        [
            ("call_cycles", &self.call_cycles),
            ("return_cycles", &self.return_cycles),
            ("ea_indirect_depth", &self.ea_depth),
            ("sdw_hit_extra_refs", &self.sdw_hit_refs),
            ("sdw_miss_extra_refs", &self.sdw_miss_refs),
        ]
    }

    /// Serializes the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"enabled\": {},\n", self.enabled));
        out.push_str(&format!("  \"instructions\": {},\n", self.instructions));
        out.push_str(&format!("  \"cycles\": {},\n", self.cycles));

        out.push_str("  \"crossings\": {\n");
        for (key, v) in self.crossings.iter() {
            out.push_str(&format!("    \"{key}\": {v},\n"));
        }
        out.push_str(&format!(
            "    \"ring_changes\": {},\n",
            self.crossings.total_ring_changes()
        ));
        out.push_str("    \"matrix\": ");
        out.push_str(&json_matrix(&self.crossings.matrix));
        out.push_str("\n  },\n");

        out.push_str("  \"faults\": {\n");
        out.push_str(&format!("    \"total\": {},\n", self.faults.total()));
        out.push_str(&format!(
            "    \"by_vector\": {{{}}},\n",
            json_members(self.faults.iter())
        ));
        out.push_str(&format!(
            "    \"by_ring\": {}\n  }},\n",
            json_u64_array(&self.faults.by_ring)
        ));

        out.push_str(&format!(
            "  \"opcode_classes\": {{{}}},\n",
            json_members(self.opclasses.iter())
        ));
        out.push_str(&format!(
            "  \"instructions_by_ring\": {},\n",
            json_u64_array(&self.instr_by_ring)
        ));

        out.push_str("  \"histograms\": {\n");
        let hists = self.histograms();
        for (i, (key, h)) in hists.iter().enumerate() {
            let sep = if i + 1 == hists.len() { "" } else { "," };
            out.push_str(&format!("    \"{key}\": {}{sep}\n", json_histogram(h)));
        }
        out.push_str("  },\n");

        out.push_str(&format!(
            "  \"ea\": {{\"tpr_maximisations\": {}}},\n",
            self.tpr_maximisations
        ));

        out.push_str("  \"heatmap\": [\n");
        for (i, (segno, h)) in self.heatmap.iter().enumerate() {
            let sep = if i + 1 == self.heatmap.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"segno\": {segno}, \"reads\": {}, \"writes\": {}, \
                 \"executes\": {}, \"violations\": {}}}{sep}\n",
                h.reads, h.writes, h.executes, h.violations
            ));
        }
        out.push_str("  ],\n");

        out.push_str(&format!(
            "  \"sdw_cache\": {{\"hits\": {}, \"misses\": {}, \"flushes\": {}, \
             \"invalidations\": {}, \"hit_ratio\": {}}},\n",
            self.sdw_cache.hits,
            self.sdw_cache.misses,
            self.sdw_cache.flushes,
            self.sdw_cache.invalidations,
            json_f64(self.sdw_cache.hit_ratio())
        ));

        out.push_str(&format!(
            "  \"fastpath\": {{\"fast_instructions\": {}, \"slow_instructions\": {}, \
             \"fast_ratio\": {}, \"tlb\": {{\"hits\": {}, \"misses\": {}, \"installs\": {}, \
             \"invalidations\": {}, \"flushes\": {}}}, \"icache\": {{\"hits\": {}, \
             \"misses\": {}}}}},\n",
            self.fastpath.fast_instructions,
            self.fastpath.slow_instructions,
            json_f64(self.fastpath.fast_ratio()),
            self.fastpath.tlb_hits,
            self.fastpath.tlb_misses,
            self.fastpath.tlb_installs,
            self.fastpath.tlb_invalidations,
            self.fastpath.tlb_flushes,
            self.fastpath.icache_hits,
            self.fastpath.icache_misses,
        ));

        out.push_str(&format!(
            "  \"scheduler\": {{\"context_switches\": {}, \"preemptions\": {}, \
             \"page_faults\": {{\"minor\": {}, \"major\": {}}}, \"evictions\": {}, \
             \"blocks\": {{\"io\": {}, \"page\": {}}}, \"idle_cycles\": {}}},\n",
            self.sched.context_switches,
            self.sched.preemptions,
            self.sched.page_faults_minor,
            self.sched.page_faults_major,
            self.sched.evictions,
            self.sched.io_blocks,
            self.sched.page_blocks,
            self.sched.idle_cycles,
        ));

        out.push_str(&format!(
            "  \"prof\": {{\"samples\": {}, \"sample_every\": {}, \
             \"timeseries_points\": {}, \"timeseries_every\": {}}},\n",
            self.prof.samples,
            self.prof.sample_every,
            self.prof.timeseries_points,
            self.prof.timeseries_every,
        ));

        out.push_str(&format!(
            "  \"trace\": {{\"dropped\": {}}},\n",
            self.trace_dropped
        ));

        out.push_str(&format!(
            "  \"extra\": {{{}}}\n}}\n",
            json_members(self.extras().iter().map(|(k, v)| (k.as_ref(), *v)))
        ));
        out
    }

    /// Serializes the snapshot as flat `key,value` CSV rows using the
    /// same dotted keys as the JSON paths.
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<(String, String)> = vec![
            ("enabled".into(), u64::from(self.enabled).to_string()),
            ("instructions".into(), self.instructions.to_string()),
            ("cycles".into(), self.cycles.to_string()),
        ];
        for (key, v) in self.crossings.iter() {
            rows.push((format!("crossings.{key}"), v.to_string()));
        }
        rows.push((
            "crossings.ring_changes".into(),
            self.crossings.total_ring_changes().to_string(),
        ));
        for (from, row) in self.crossings.matrix.iter().enumerate() {
            for (to, v) in row.iter().enumerate() {
                if *v > 0 {
                    rows.push((format!("crossings.matrix.{from}.{to}"), v.to_string()));
                }
            }
        }
        rows.push(("faults.total".into(), self.faults.total().to_string()));
        for (key, v) in self.faults.iter() {
            rows.push((format!("faults.by_vector.{key}"), v.to_string()));
        }
        for (ring, v) in self.faults.by_ring.iter().enumerate() {
            rows.push((format!("faults.by_ring.{ring}"), v.to_string()));
        }
        for (key, v) in self.opclasses.iter() {
            rows.push((format!("opcode_classes.{key}"), v.to_string()));
        }
        for (ring, v) in self.instr_by_ring.iter().enumerate() {
            rows.push((format!("instructions_by_ring.{ring}"), v.to_string()));
        }
        for (key, h) in self.histograms() {
            rows.push((format!("histograms.{key}.count"), h.count().to_string()));
            rows.push((format!("histograms.{key}.sum"), h.sum().to_string()));
            rows.push((format!("histograms.{key}.min"), h.min().to_string()));
            rows.push((format!("histograms.{key}.max"), h.max().to_string()));
            rows.push((format!("histograms.{key}.mean"), format!("{:.3}", h.mean())));
            rows.push((
                format!("histograms.{key}.p50"),
                h.percentile(0.50).to_string(),
            ));
            rows.push((
                format!("histograms.{key}.p99"),
                h.percentile(0.99).to_string(),
            ));
        }
        rows.push((
            "ea.tpr_maximisations".into(),
            self.tpr_maximisations.to_string(),
        ));
        for (segno, h) in self.heatmap.iter() {
            rows.push((format!("heatmap.{segno}.reads"), h.reads.to_string()));
            rows.push((format!("heatmap.{segno}.writes"), h.writes.to_string()));
            rows.push((format!("heatmap.{segno}.executes"), h.executes.to_string()));
            rows.push((
                format!("heatmap.{segno}.violations"),
                h.violations.to_string(),
            ));
        }
        rows.push(("sdw_cache.hits".into(), self.sdw_cache.hits.to_string()));
        rows.push(("sdw_cache.misses".into(), self.sdw_cache.misses.to_string()));
        rows.push((
            "sdw_cache.flushes".into(),
            self.sdw_cache.flushes.to_string(),
        ));
        rows.push((
            "sdw_cache.invalidations".into(),
            self.sdw_cache.invalidations.to_string(),
        ));
        rows.push((
            "sdw_cache.hit_ratio".into(),
            format!("{:.3}", self.sdw_cache.hit_ratio()),
        ));
        for (key, v) in [
            ("fast_instructions", self.fastpath.fast_instructions),
            ("slow_instructions", self.fastpath.slow_instructions),
            ("tlb.hits", self.fastpath.tlb_hits),
            ("tlb.misses", self.fastpath.tlb_misses),
            ("tlb.installs", self.fastpath.tlb_installs),
            ("tlb.invalidations", self.fastpath.tlb_invalidations),
            ("tlb.flushes", self.fastpath.tlb_flushes),
            ("icache.hits", self.fastpath.icache_hits),
            ("icache.misses", self.fastpath.icache_misses),
        ] {
            rows.push((format!("fastpath.{key}"), v.to_string()));
        }
        rows.push((
            "fastpath.fast_ratio".into(),
            format!("{:.3}", self.fastpath.fast_ratio()),
        ));
        for (key, v) in [
            ("context_switches", self.sched.context_switches),
            ("preemptions", self.sched.preemptions),
            ("page_faults.minor", self.sched.page_faults_minor),
            ("page_faults.major", self.sched.page_faults_major),
            ("evictions", self.sched.evictions),
            ("blocks.io", self.sched.io_blocks),
            ("blocks.page", self.sched.page_blocks),
            ("idle_cycles", self.sched.idle_cycles),
        ] {
            rows.push((format!("scheduler.{key}"), v.to_string()));
        }
        for (key, v) in [
            ("samples", self.prof.samples),
            ("sample_every", self.prof.sample_every),
            ("timeseries_points", self.prof.timeseries_points),
            ("timeseries_every", self.prof.timeseries_every),
        ] {
            rows.push((format!("prof.{key}"), v.to_string()));
        }
        rows.push(("trace.dropped".into(), self.trace_dropped.to_string()));
        for (k, v) in self.extras() {
            rows.push((format!("extra.{k}"), v.to_string()));
        }

        let mut out = String::from("key,value\n");
        for (k, v) in rows {
            out.push_str(&k);
            out.push(',');
            out.push_str(&v);
            out.push('\n');
        }
        out
    }
}

fn json_u64_array(xs: &[u64]) -> String {
    format!(
        "[{}]",
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn json_matrix(m: &[[u64; NUM_RINGS]; NUM_RINGS]) -> String {
    format!(
        "[{}]",
        m.iter()
            .map(|row| json_u64_array(row))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// The members of a flat JSON object: `"key": value` pairs joined by
/// `", "`.
fn json_members<'a>(pairs: impl Iterator<Item = (&'a str, u64)>) -> String {
    pairs
        .map(|(k, v)| format!("\"{}\": {v}", json_escape(k)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn json_histogram(h: &CycleHistogram) -> String {
    let buckets = h
        .nonzero_buckets()
        .map(|(lo, hi, c)| format!("{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {c}}}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
         \"p50\": {}, \"p99\": {}, \"buckets\": [{buckets}]}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        json_f64(h.mean()),
        h.percentile(0.50),
        h.percentile(0.99)
    )
}

/// Formats a float for JSON with six decimals; a non-finite value
/// (which JSON cannot hold) is written as `0`.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for inclusion inside JSON double quotes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Crossing, OpClass};
    use ring_core::access::AccessMode;
    use ring_core::ring::Ring;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut m = Metrics::enabled();
        m.instruction(Ring::R4, OpClass::Read);
        m.crossing(Crossing::CallDown, Ring::R4, Ring::R1);
        m.crossing(Crossing::ReturnUp, Ring::R1, Ring::R4);
        m.fault(&ring_core::access::Fault::TimerRunout, Ring::R4);
        m.access(10, AccessMode::Execute);
        m.sdw_miss(2);
        m.call_cycles(9);
        m.ea_formed(1, false);
        let mut s = MetricsSnapshot::new(
            &m,
            100,
            700,
            SdwCacheStats {
                hits: 90,
                misses: 10,
                flushes: 1,
                invalidations: 2,
            },
            FastPathStats {
                fast_instructions: 80,
                slow_instructions: 20,
                tlb_hits: 150,
                tlb_misses: 20,
                tlb_installs: 12,
                tlb_invalidations: 3,
                tlb_flushes: 1,
                icache_hits: 75,
                icache_misses: 5,
            },
        );
        s.sched = SchedStats {
            context_switches: 7,
            preemptions: 4,
            page_faults_minor: 12,
            page_faults_major: 3,
            evictions: 2,
            io_blocks: 1,
            page_blocks: 3,
            idle_cycles: 640,
        };
        s.prof = ProfStats {
            samples: 42,
            sample_every: 1000,
            timeseries_points: 6,
            timeseries_every: 5000,
        };
        s.trace_dropped = 11;
        s.push_extra("os.gate_calls_hcs", 5);
        s
    }

    #[test]
    fn json_contains_every_section() {
        let json = sample_snapshot().to_json();
        for needle in [
            "\"crossings\"",
            "\"call_down\": 1",
            "\"return_up\": 1",
            "\"matrix\"",
            "\"faults\"",
            "\"timer_runout\": 1",
            "\"opcode_classes\"",
            "\"histograms\"",
            "\"call_cycles\"",
            "\"heatmap\"",
            "\"segno\": 10",
            "\"sdw_cache\"",
            "\"hits\": 90",
            "\"fastpath\"",
            "\"fast_instructions\": 80",
            "\"icache\"",
            "\"os.gate_calls_hcs\": 5",
            "\"tpr_maximisations\"",
            "\"scheduler\"",
            "\"context_switches\": 7",
            "\"minor\": 12",
            "\"evictions\": 2",
            "\"prof\"",
            "\"samples\": 42",
            "\"trace\"",
            "\"dropped\": 11",
            "\"p50\"",
            "\"p99\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn json_is_structurally_balanced() {
        let json = sample_snapshot().to_json();
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced brackets:\n{json}");
        // No trailing commas before a closing bracket — the usual
        // hand-rolled-JSON failure.
        assert!(!json.contains(",\n}") && !json.contains(",\n]"), "{json}");
        assert!(!json.contains(", }") && !json.contains(", ]"), "{json}");
    }

    #[test]
    fn csv_is_flat_key_value() {
        let csv = sample_snapshot().to_csv();
        assert!(csv.starts_with("key,value\n"));
        assert!(csv.contains("crossings.call_down,1\n"));
        assert!(csv.contains("sdw_cache.hits,90\n"));
        assert!(csv.contains("fastpath.fast_instructions,80\n"));
        assert!(csv.contains("fastpath.tlb.hits,150\n"));
        assert!(csv.contains("scheduler.context_switches,7\n"));
        assert!(csv.contains("scheduler.page_faults.major,3\n"));
        assert!(csv.contains("prof.samples,42\n"));
        assert!(csv.contains("prof.sample_every,1000\n"));
        assert!(csv.contains("trace.dropped,11\n"));
        assert!(csv.contains("histograms.call_cycles.p50,"));
        assert!(csv.contains("histograms.call_cycles.p99,"));
        assert!(csv.contains("extra.os.gate_calls_hcs,5\n"));
        for line in csv.lines() {
            assert_eq!(line.matches(',').count(), 1, "bad row: {line}");
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    /// Records `[reads, writes, executes, violations]` references to
    /// `segno`.
    fn touch(heatmap: &mut SegmentHeatmap, segno: u32, counts: [u32; 4]) {
        let modes = [AccessMode::Read, AccessMode::Write, AccessMode::Execute];
        for (mode, n) in modes.into_iter().zip(counts) {
            (0..n).for_each(|_| heatmap.record(segno, mode));
        }
        (0..counts[3]).for_each(|_| heatmap.record_violation(segno));
    }

    /// Builds a histogram straight from observations.
    fn hist_of(values: &[u64]) -> CycleHistogram {
        let mut h = CycleHistogram::default();
        for v in values {
            h.record(*v);
        }
        h
    }

    fn buckets(h: &CycleHistogram) -> Vec<(u64, u64, u64)> {
        h.nonzero_buckets().collect()
    }

    #[test]
    fn percentile_walks_buckets_and_clamps_to_observed_range() {
        let h = hist_of(&[0; 0]);
        assert_eq!(h.percentile(0.5), 0, "empty histogram");
        let h = hist_of(&[7]);
        assert_eq!(h.percentile(0.5), 7, "single value clamps to max");
        assert_eq!(h.percentile(0.99), 7);
        // 99 small values and one huge one: p50 stays in the small
        // bucket, p99 must land on (the bucket holding) the outlier.
        let mut vals = vec![3u64; 99];
        vals.push(1_000_000);
        let h = hist_of(&vals);
        assert_eq!(h.percentile(0.50), 3);
        assert_eq!(h.percentile(0.99), 3);
        assert_eq!(h.percentile(1.0), 1_000_000);
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let (a_vals, b_vals) = ([1u64, 5, 9, 130], [2u64, 9, 4000]);
        let mut merged = hist_of(&a_vals);
        merged.merge(&hist_of(&b_vals));
        let both = hist_of(&[&a_vals[..], &b_vals[..]].concat());
        assert_eq!(merged.count(), both.count());
        assert_eq!(merged.sum(), both.sum());
        assert_eq!(merged.min(), both.min());
        assert_eq!(merged.max(), both.max());
        assert_eq!(buckets(&merged), buckets(&both));
        assert!((merged.mean() - both.mean()).abs() < 1e-9);
        for p in [0.5, 0.9, 0.99] {
            assert_eq!(merged.percentile(p), both.percentile(p));
        }
    }

    #[test]
    fn histogram_merge_with_empty_is_identity_both_ways() {
        let mut a = hist_of(&[4, 4, 17]);
        let before = a.clone();
        a.merge(&hist_of(&[]));
        assert_eq!(buckets(&a), buckets(&before));
        assert_eq!(
            (a.count(), a.min(), a.max()),
            (before.count(), before.min(), before.max())
        );
        let mut empty = hist_of(&[]);
        empty.merge(&before);
        assert_eq!(buckets(&empty), buckets(&before));
        assert_eq!(
            (empty.count(), empty.min(), empty.max()),
            (before.count(), before.min(), before.max())
        );
    }

    #[test]
    fn snapshot_merge_sums_every_counter() {
        let a = sample_snapshot();
        let b = sample_snapshot();
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.instructions, 2 * a.instructions);
        assert_eq!(merged.cycles, 2 * a.cycles);
        assert_eq!(merged.crossings.count(Crossing::CallDown), 2);
        assert_eq!(merged.crossings.matrix[4][1], 2 * a.crossings.matrix[4][1]);
        assert_eq!(
            merged.crossings.total_ring_changes(),
            2 * a.crossings.total_ring_changes()
        );
        assert_eq!(merged.faults.total(), 2 * a.faults.total());
        assert_eq!(merged.call_cycles.count(), 2 * a.call_cycles.count());
        assert_eq!(merged.sdw_cache.hits, 2 * a.sdw_cache.hits);
        assert_eq!(merged.fastpath.fast_instructions, 160);
        assert_eq!(merged.sched.context_switches, 14);
        assert_eq!(merged.prof.samples, 84);
        assert_eq!(
            merged.prof.sample_every, 1000,
            "period is config, not a counter"
        );
        assert_eq!(merged.trace_dropped, 22);
        assert_eq!(
            merged.extra,
            vec![("os.gate_calls_hcs", 10)],
            "extras merge by key"
        );
        let heat = merged.heatmap.get(10).unwrap();
        assert_eq!(heat.executes, 2 * a.heatmap.get(10).unwrap().executes);
    }

    #[test]
    fn snapshot_merge_unions_disjoint_keys() {
        let mut a = sample_snapshot();
        let mut b = sample_snapshot();
        a.push_extra("os.only_in_a", 3);
        b.push_extra("os.only_in_b", 4);
        touch(&mut b.heatmap, 99, [1, 2, 3, 0]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.extra("os.only_in_a"), Some(3));
        assert_eq!(merged.extra("os.only_in_b"), Some(4));
        assert!(merged.heatmap.get(99).is_some_and(|h| h.executes == 3));
        let segnos: Vec<u32> = merged.heatmap.iter().map(|(s, _)| s).collect();
        let mut sorted = segnos.clone();
        sorted.sort_unstable();
        assert_eq!(segnos, sorted, "heatmap stays ascending after merge");
    }

    #[test]
    fn snapshot_merge_empty_into_populated_keeps_bytes_meaningful() {
        // Folding a disabled/empty snapshot in (a machine whose metrics
        // never enabled, or the all-default fold seed) must not disturb
        // any populated section.
        let a = sample_snapshot();
        let mut merged = a.clone();
        merged.merge(&MetricsSnapshot::default());
        assert_eq!(merged.to_json(), a.to_json());
    }

    #[test]
    fn snapshot_merge_populated_into_empty_seeds_the_fold() {
        // The fleet fold starts from MetricsSnapshot::default() — the
        // first real snapshot folded in must come through exactly,
        // modulo the canonical (sorted) extras order.
        let a = sample_snapshot();
        let mut merged = MetricsSnapshot::default();
        merged.merge(&a);
        let mut canonical = a.clone();
        canonical.extra.sort_by_key(|&(k, _)| k);
        assert_eq!(merged.to_json(), canonical.to_json());
        assert!(merged.enabled);
        assert_eq!(merged.instructions, a.instructions);
        assert_eq!(buckets(&merged.call_cycles), buckets(&a.call_cycles));
    }

    #[test]
    fn snapshot_merge_extras_collide_by_key_and_sort_canonically() {
        let mut a = sample_snapshot();
        let mut b = sample_snapshot();
        // Insert in opposite orders so append-order would diverge.
        a.push_extra("os.zeta", 1);
        a.push_extra("os.alpha", 2);
        b.push_extra("os.alpha", 5);
        b.push_extra("os.zeta", 7);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            ab.extras(),
            ba.extras(),
            "merged extras are order-canonical"
        );
        assert_eq!(ab.to_json(), ba.to_json());
        let keys: Vec<String> = ab
            .extras()
            .into_iter()
            .map(|(k, _)| k.into_owned())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "extras sorted by key after merge");
        assert_eq!(ab.extra("os.alpha"), Some(7), "colliding keys sum");
        assert_eq!(ab.extra("os.zeta"), Some(8), "colliding keys sum");
    }

    #[test]
    fn snapshot_merge_is_exactly_associative() {
        // The fleet folds thousands of snapshots; the fold tree's shape
        // must never show in the bytes. Build three snapshots with
        // overlapping-but-distinct extras and heatmaps and compare
        // (a⊕b)⊕c against a⊕(b⊕c) at the JSON byte level.
        let mut a = sample_snapshot();
        let mut b = sample_snapshot();
        let mut c = sample_snapshot();
        let calls = |gate_calls| ProcCounters {
            gate_calls,
            ..ProcCounters::default()
        };
        a.procs = vec![calls(3)];
        b.procs = vec![calls(1), calls(4)];
        c.procs = vec![calls(0), calls(0), calls(9)];
        c.push_extra("os.only_in_c", 2);
        touch(&mut c.heatmap, 77, [5, 0, 0, 1]);
        b.call_cycles.merge(&hist_of(&[3, 3, 700]));
        c.prof = ProfStats::default();

        let mut left = MetricsSnapshot::default();
        left.merge(&a);
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = MetricsSnapshot::default();
        right.merge(&a);
        right.merge(&bc);

        assert_eq!(left.to_json(), right.to_json());
        assert_eq!(left.to_csv(), right.to_csv());
    }

    /// Folds `members` as a fleet does when its workers ran them in the
    /// runs that start at the indices set in `starts` (index 0 always
    /// starts one): each run folds its merged members in index order
    /// from `MetricsSnapshot::default()`, a run that merged nothing is
    /// skipped, and the runs fold in index order. `None` is a member
    /// left out of the merge (quarantined).
    fn fold_by_runs(members: &[Option<&MetricsSnapshot>], starts: u32) -> MetricsSnapshot {
        let mut runs: Vec<Option<MetricsSnapshot>> = Vec::new();
        for (i, member) in members.iter().enumerate() {
            if i == 0 || starts & (1 << i) != 0 {
                runs.push(None);
            }
            if let (Some(run), Some(snap)) = (runs.last_mut(), member) {
                run.get_or_insert_with(MetricsSnapshot::default).merge(snap);
            }
        }
        let mut merged = MetricsSnapshot::default();
        for run in runs.iter().flatten() {
            merged.merge(run);
        }
        merged
    }

    #[test]
    fn every_split_into_runs_folds_to_the_left_fold() {
        let calls = |gate_calls| ProcCounters {
            gate_calls,
            ..ProcCounters::default()
        };
        let mut a = sample_snapshot();
        a.procs = vec![calls(3)];
        let mut b = with_procs(11);
        touch(&mut b.heatmap, 77, [5, 0, 2, 1]);
        b.call_cycles = hist_of(&[3, 3, 700]);
        b.prof.sample_every = 250;
        let empty = MetricsSnapshot::default();
        let mut c = sample_snapshot();
        c.push_extra("os.only_in_c", 2);
        c.ea_depth = hist_of(&[1, 2, 9]);
        c.prof = ProfStats::default();
        let mut d = with_procs(2);
        touch(&mut d.heatmap, 4, [1, 1, 0, 0]);
        d.return_cycles = hist_of(&[40, 41, 5000]);
        let mut e = sample_snapshot();
        e.push_extra("os.b", 6);
        e.procs = vec![calls(0), calls(0), calls(0), calls(8)];
        e.sdw_miss_refs = hist_of(&[2, 64]);
        assert_ne!(a.prof.sample_every, b.prof.sample_every);

        // Two members left out of the merge, so some splits hold a run
        // that merges nothing.
        let members = [
            Some(&a),
            None,
            Some(&b),
            Some(&empty),
            Some(&c),
            None,
            Some(&d),
            Some(&e),
        ];
        let left = fold_by_runs(&members, 0);
        let mut by_hand = MetricsSnapshot::default();
        for snap in [&a, &b, &empty, &c, &d, &e] {
            by_hand.merge(snap);
        }
        assert_eq!(left.to_json(), by_hand.to_json());
        for starts in 0..1u32 << members.len() {
            let split = fold_by_runs(&members, starts);
            assert_eq!(
                split.to_json(),
                left.to_json(),
                "runs starting at {starts:#b}"
            );
            assert_eq!(
                split.to_csv(),
                left.to_csv(),
                "runs starting at {starts:#b}"
            );
        }

        // The merge is not commutative: the first nonzero profiler
        // period wins, so the runs must fold in index order.
        let mut swapped = members;
        swapped.swap(0, 2);
        assert_ne!(fold_by_runs(&swapped, 0).to_json(), left.to_json());
    }

    /// A snapshot with extras `os.b`, `os.a` and `n` processes whose
    /// counters are `pid * 10 + field`.
    fn with_procs(n: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.push_extra("os.b", 1);
        s.push_extra("os.a", 2);
        s.procs = (0..n)
            .map(|pid| ProcCounters {
                gate_calls: pid * 10 + 1,
                upward_calls: pid * 10 + 2,
                preemptions: pid * 10 + 3,
                page_faults: pid * 10 + 4,
            })
            .collect();
        s
    }

    fn export_keys(s: &MetricsSnapshot) -> Vec<String> {
        s.extras()
            .into_iter()
            .map(|(k, _)| k.into_owned())
            .collect()
    }

    #[test]
    fn unmerged_extras_list_push_order_then_processes_by_pid() {
        let s = with_procs(11);
        let keys = export_keys(&s);
        assert_eq!(
            &keys[..6],
            [
                "os.b",
                "os.a",
                "os.proc.0.gate_calls",
                "os.proc.0.upward_calls",
                "os.proc.0.preemptions",
                "os.proc.0.page_faults"
            ]
        );
        assert_eq!(keys.len(), 2 + 4 * 11);
        assert_eq!(keys[2 + 4 * 10], "os.proc.10.gate_calls");
        assert!(s
            .to_json()
            .contains("\"extra\": {\"os.b\": 1, \"os.a\": 2, \"os.proc.0.gate_calls\": 1,"));
        assert!(s
            .to_csv()
            .contains("extra.os.a,2\nextra.os.proc.0.gate_calls,1\n"));
    }

    #[test]
    fn merged_extras_list_every_key_sorted() {
        let mut s = with_procs(2);
        s.merge(&with_procs(11));
        let keys = export_keys(&s);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let ten = keys.iter().position(|k| k == "os.proc.10.gate_calls");
        let two = keys.iter().position(|k| k == "os.proc.2.gate_calls");
        assert!(ten < two, "os.proc.10.* sorts before os.proc.2.*");
        assert_eq!(s.extra("os.proc.1.page_faults"), Some(2 * 14));
        assert_eq!(s.extra("os.proc.10.page_faults"), Some(104));
        assert_eq!(s.extra("os.a"), Some(4));
    }

    #[test]
    fn extra_answers_every_exported_key_and_nothing_else() {
        for s in [with_procs(12), {
            let mut m = with_procs(3);
            m.merge(&with_procs(12));
            m
        }] {
            for (key, v) in s.extras() {
                assert_eq!(s.extra(&key), Some(v), "{key}");
            }
            for absent in [
                "os.c",
                "os.proc.12.gate_calls",
                "os.proc.01.gate_calls",
                "os.proc.+1.gate_calls",
                "os.proc.1.gate_call",
                "os.proc.1",
                "os.proc.",
            ] {
                assert_eq!(s.extra(absent), None, "{absent}");
            }
        }
    }

    #[test]
    fn histogram_percentiles_clamp_to_observed_range_after_merge() {
        let mut h = hist_of(&[100]);
        h.merge(&hist_of(&[3]));
        assert!(h.percentile(0.0) >= h.min());
        assert!(h.percentile(1.0) <= h.max());
        assert_eq!(h.percentile(1.0), 100);
        let empty = hist_of(&[]);
        assert_eq!(empty.percentile(0.5), 0, "empty histogram reports zero");
    }
}
