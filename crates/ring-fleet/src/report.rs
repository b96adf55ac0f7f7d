//! Fleet reporting: exact percentiles, stable snapshot hashes, the
//! fleet health report, and the `ring-fleet/bench/v2` JSON trajectory.

use ring_chaos::FailureClass;
use ring_metrics::{FastPathStats, MetricsSnapshot};

use crate::{FleetConfig, FleetResult, MemberSummary, WorkloadKind};

/// Exact order statistics over a set of per-machine values (unlike the
/// bucketed [`ring_metrics::CycleHistogram::percentile`], these are
/// computed from the full sorted sample).
#[derive(Clone, Copy, Debug, Default)]
pub struct Percentiles {
    /// Smallest value (0 when empty).
    pub min: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Largest value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Percentiles {
    /// Nearest-rank order statistics of `values` (need not be sorted).
    pub fn of(values: &[u64]) -> Percentiles {
        if values.is_empty() {
            return Percentiles::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = |p: f64| {
            let n = sorted.len();
            let k = ((p * n as f64).ceil() as usize).clamp(1, n);
            sorted[k - 1]
        };
        Percentiles {
            min: sorted[0],
            p50: rank(0.50),
            p99: rank(0.99),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"min\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.1}}}",
            self.min, self.p50, self.p99, self.max, self.mean
        )
    }
}

/// FNV-1a 64-bit hash — the fleet's merged-snapshot fingerprint. Tiny,
/// dependency-free, and stable across platforms; CI compares it across
/// worker-thread counts to enforce the determinism contract.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// [`fnv1a64`] of a snapshot's JSON export: the merged-snapshot hash.
pub fn snapshot_hash(snap: &MetricsSnapshot) -> u64 {
    fnv1a64(snap.to_json().as_bytes())
}

/// [`snapshot_hash`] with the `fastpath` block zeroed. Those counters
/// record which engine ran each step; everything else is the simulation
/// itself, which must not depend on that choice.
pub fn snapshot_hash_without_fastpath(snap: &MetricsSnapshot) -> u64 {
    let mut snap = snap.clone();
    snap.fastpath = FastPathStats::default();
    snapshot_hash(&snap)
}

/// One quarantined machine in the health report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Fleet index of the quarantined machine.
    pub id: usize,
    /// Class of the final (quarantining) failure.
    pub class: FailureClass,
    /// Attempts the supervisor made before giving up (original run
    /// plus every restart).
    pub attempts: u32,
}

/// The fleet's self-healing ledger, folded from per-machine health in
/// index order — bit-identical across worker-thread counts, exactly
/// like the merged metrics snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// Checkpoint restarts across the fleet.
    pub restarts_total: u64,
    /// Machines that needed at least one restart.
    pub restarted_machines: u64,
    /// Terminal attempt failures per class, in [`FailureClass::ALL`]
    /// order.
    pub failures_by_class: [u64; FailureClass::ALL.len()],
    /// Quarantined machines in index order.
    pub quarantined: Vec<QuarantineEntry>,
    /// Faults ring-0 recovery survived (summed `chaos.recovered`
    /// extras) — the layer *below* the supervisor doing its job.
    pub recoveries: u64,
    /// Simulated cycles the fleet spent recovering (rolled-back work
    /// plus backoff, summed over every restart).
    pub recovery_cycles_total: u64,
}

impl HealthReport {
    /// Folds per-machine health, in index order.
    pub fn of(machines: &[MemberSummary]) -> HealthReport {
        let mut report = HealthReport::default();
        for m in machines {
            report.restarts_total += u64::from(m.health.restarts);
            report.restarted_machines += u64::from(m.health.restarts > 0);
            for f in &m.health.failures {
                report.failures_by_class[f.class as usize] += 1;
            }
            if let Some(q) = &m.health.quarantined {
                report.quarantined.push(QuarantineEntry {
                    id: m.spec.id,
                    class: q.class,
                    attempts: m.health.failures.len() as u32,
                });
            }
            report.recoveries += m.recovered;
            report.recovery_cycles_total += m.health.recovery_cycles;
        }
        report
    }

    /// Mean simulated cycles per restart (0.0 when nothing restarted).
    pub fn mean_cycles_to_recover(&self) -> f64 {
        if self.restarts_total == 0 {
            0.0
        } else {
            self.recovery_cycles_total as f64 / self.restarts_total as f64
        }
    }

    /// FNV-1a hash of the canonical quarantine list (`id:class:attempts`
    /// lines, index order). CI compares it across thread counts; the
    /// healthy merged-snapshot hash deliberately excludes quarantined
    /// machines, so this is their determinism fingerprint.
    pub fn quarantine_hash(&self) -> u64 {
        let mut canon = String::new();
        for q in &self.quarantined {
            canon.push_str(&format!("{}:{}:{}\n", q.id, q.class, q.attempts));
        }
        fnv1a64(canon.as_bytes())
    }

    fn json(&self, cfg: &FleetConfig) -> String {
        let failures: Vec<String> = FailureClass::ALL
            .iter()
            .map(|c| format!("\"{}\": {}", c.key(), self.failures_by_class[*c as usize]))
            .collect();
        let quarantined: Vec<String> = self
            .quarantined
            .iter()
            .map(|q| {
                format!(
                    "{{\"id\": {}, \"class\": \"{}\", \"attempts\": {}}}",
                    q.id, q.class, q.attempts
                )
            })
            .collect();
        let (enabled, seed, interval) = match cfg.supervisor.chaos {
            Some(ch) => (true, ch.seed, ch.mean_interval),
            None => (false, 0, 0),
        };
        format!(
            "{{\"enabled\": {enabled}, \"seed\": {seed}, \"mean_interval\": {interval}, \
             \"restarts\": {restarts}, \"restarted_machines\": {rmachines}, \
             \"recoveries\": {recoveries}, \"mean_cycles_to_recover\": {mctr:.1}, \
             \"failures\": {{{failures}}}, \"quarantined\": [{quarantined}], \
             \"quarantine_hash\": \"fnv1a64:{qhash:016x}\"}}",
            restarts = self.restarts_total,
            rmachines = self.restarted_machines,
            recoveries = self.recoveries,
            mctr = self.mean_cycles_to_recover(),
            failures = failures.join(", "),
            quarantined = quarantined.join(", "),
            qhash = self.quarantine_hash(),
        )
    }
}

/// Serializes a fleet run as `ring-fleet/bench/v2` JSON (v2 added the
/// `chaos` health section and `member_errors`).
pub fn fleet_json(cfg: &FleetConfig, result: &FleetResult, quick: bool) -> String {
    let count = |k: WorkloadKind| result.machines.iter().filter(|m| m.spec.kind == k).count();
    let completed = result.machines.iter().filter(|m| m.completed).count();
    let instructions: u64 = result.machines.iter().map(|m| m.instructions).sum();
    let cycles: u64 = result.machines.iter().map(|m| m.cycles).sum();
    let wall_ns: Vec<u64> = result.machines.iter().map(|m| m.wall_ns).collect();
    let instr: Vec<u64> = result.machines.iter().map(|m| m.instructions).collect();
    let dirty: Vec<u64> = result
        .machines
        .iter()
        .map(|m| u64::from(m.dirty_pages))
        .collect();
    let image_pages = result.image_words.div_ceil(ring_segmem::COW_PAGE_WORDS);
    let dirty_stats = Percentiles::of(&dirty);
    let shared_fraction = if image_pages > 0 {
        1.0 - (dirty_stats.mean / image_pages as f64).min(1.0)
    } else {
        0.0
    };
    let hash = snapshot_hash(&result.merged);
    let hash_without_fastpath = snapshot_hash_without_fastpath(&result.merged);
    let health = HealthReport::of(&result.machines);
    let halted = result.machines.iter().filter(|m| m.halted).count();
    format!(
        "{{\n  \"schema\": \"ring-fleet/bench/v2\",\n  \"quick\": {quick},\n  \
         \"machines\": {machines},\n  \"threads\": {threads},\n  \"seed\": {seed},\n  \
         \"workloads\": {{\"pagestorm\": {pagestorm}, \"gatestorm\": {gatestorm}}},\n  \
         \"wall_seconds\": {wall:.6},\n  \
         \"aggregate\": {{\"instructions\": {instructions}, \"cycles\": {cycles}, \
         \"ips\": {ips:.1}, \"completed\": {completed}, \"halted\": {halted}, \
         \"context_switches\": {switches}, \"page_faults\": {pfaults}, \
         \"ring_crossings\": {crossings}}},\n  \
         \"per_machine\": {{\n    \"wall_ns\": {wall_pct},\n    \"instructions\": {instr_pct}\n  }},\n  \
         \"cow\": {{\"phys_words\": {words}, \"image_pages\": {image_pages}, \
         \"dirty_pages\": {dirty_pct}, \"shared_fraction\": {shared:.4}}},\n  \
         \"chaos\": {chaos},\n  \
         \"member_errors\": {member_errors},\n  \
         \"merged_snapshot_hash\": \"fnv1a64:{hash:016x}\",\n  \
         \"merged_snapshot_hash_without_fastpath\": \"fnv1a64:{hash_without_fastpath:016x}\"\n}}\n",
        chaos = health.json(cfg),
        member_errors = result.member_errors.len(),
        machines = result.machines.len(),
        threads = result.threads,
        seed = cfg.seed,
        pagestorm = count(WorkloadKind::PageStorm),
        gatestorm = count(WorkloadKind::GateStorm),
        wall = result.wall_seconds,
        ips = instructions as f64 / result.wall_seconds.max(1e-9),
        switches = result.merged.sched.context_switches,
        pfaults = result.merged.sched.page_faults(),
        crossings = result.merged.crossings.total_ring_changes(),
        wall_pct = Percentiles::of(&wall_ns).json(),
        instr_pct = Percentiles::of(&instr).json(),
        words = crate::PHYS_WORDS,
        dirty_pct = dirty_stats.json(),
        shared = shared_fraction,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_sample() {
        let p = Percentiles::of(&[5, 1, 9, 3, 7]);
        assert_eq!(p.min, 1);
        assert_eq!(p.p50, 5);
        assert_eq!(p.p99, 9);
        assert_eq!(p.max, 9);
        assert!((p.mean - 5.0).abs() < 1e-9);
        let empty = Percentiles::of(&[]);
        assert_eq!((empty.min, empty.max), (0, 0));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }
}
