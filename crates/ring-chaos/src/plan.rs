//! Fault plans: what to inject and when, addressed in simulated cycles.

/// The kinds of simulated hardware fault the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChaosKind {
    /// Flip bits in (and poison) one word of core memory; the next
    /// parity-checked read of the word raises a parity-error trap.
    MemParity,
    /// Corrupt one SDW pair in the current descriptor segment (and
    /// drop any cached copy), so the next descriptor fetch sees it.
    SdwCorrupt,
    /// Corrupt one page-table word of a paged segment in the current
    /// address space.
    PtwCorrupt,
    /// Arm one drum read error: the supervisor's next backing-store
    /// fetch fails and must be retried.
    DrumReadError,
    /// Arm one drum write error: the supervisor's next eviction
    /// write-back fails and must be retried.
    DrumWriteError,
    /// Swallow the completion of an in-flight I/O operation; only the
    /// channel watchdog can surface it, as an I/O-error trap.
    LostIoCompletion,
    /// Damage one translation-cache entry (TLB or SDW cache). Cache
    /// parity detects and discards it on the spot — recovery is a
    /// re-walk — but repeated hits degrade the fast path.
    TlbCorrupt,
    /// A spurious interval-timer runout (premature preemption).
    SpuriousTimer,
}

impl ChaosKind {
    /// Every kind, in a stable order (serialization and export order).
    pub const ALL: [ChaosKind; 8] = [
        ChaosKind::MemParity,
        ChaosKind::SdwCorrupt,
        ChaosKind::PtwCorrupt,
        ChaosKind::DrumReadError,
        ChaosKind::DrumWriteError,
        ChaosKind::LostIoCompletion,
        ChaosKind::TlbCorrupt,
        ChaosKind::SpuriousTimer,
    ];

    /// Stable machine-readable name (plan files, metrics keys).
    pub fn key(self) -> &'static str {
        match self {
            ChaosKind::MemParity => "mem_parity",
            ChaosKind::SdwCorrupt => "sdw_corrupt",
            ChaosKind::PtwCorrupt => "ptw_corrupt",
            ChaosKind::DrumReadError => "drum_read_error",
            ChaosKind::DrumWriteError => "drum_write_error",
            ChaosKind::LostIoCompletion => "lost_io_completion",
            ChaosKind::TlbCorrupt => "tlb_corrupt",
            ChaosKind::SpuriousTimer => "spurious_timer",
        }
    }

    /// Parses a plan-file kind name.
    pub fn parse(s: &str) -> Option<ChaosKind> {
        ChaosKind::ALL.into_iter().find(|k| k.key() == s)
    }

    /// Position in [`ChaosKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            ChaosKind::MemParity => 0,
            ChaosKind::SdwCorrupt => 1,
            ChaosKind::PtwCorrupt => 2,
            ChaosKind::DrumReadError => 3,
            ChaosKind::DrumWriteError => 4,
            ChaosKind::LostIoCompletion => 5,
            ChaosKind::TlbCorrupt => 6,
            ChaosKind::SpuriousTimer => 7,
        }
    }

    /// Campaign draw weight: memory parity dominates (it is the
    /// broadest class), cache/descriptor corruption and timer noise
    /// are common, drum and channel failures rarer.
    pub fn weight(self) -> u32 {
        match self {
            ChaosKind::MemParity => 4,
            ChaosKind::SdwCorrupt => 2,
            ChaosKind::PtwCorrupt => 2,
            ChaosKind::DrumReadError => 2,
            ChaosKind::DrumWriteError => 1,
            ChaosKind::LostIoCompletion => 1,
            ChaosKind::TlbCorrupt => 2,
            ChaosKind::SpuriousTimer => 2,
        }
    }
}

impl std::fmt::Display for ChaosKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// One explicit plan entry: inject `kind` at (or as soon after as the
/// machine is in an injectable state) cycle `at_cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEvent {
    /// Simulated cycle the event becomes due.
    pub at_cycle: u64,
    /// What to inject.
    pub kind: ChaosKind,
}

/// A fault-injection plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlan {
    /// No injection.
    Off,
    /// An explicit schedule (sorted by cycle on construction).
    Schedule(Vec<PlanEvent>),
    /// A seeded random campaign with a mean inter-fault interval in
    /// cycles.
    Campaign {
        /// PRNG seed; the entire fault stream is a pure function of it.
        seed: u64,
        /// Mean cycles between injections (intervals are drawn
        /// uniformly from `1..=2*mean`).
        mean_interval: u64,
    },
}

impl FaultPlan {
    /// Parses a plan file: one `CYCLE KIND` pair per line, `#` starts
    /// a comment, blank lines ignored. Kinds are [`ChaosKind::key`]
    /// names. The schedule is sorted by cycle (stably).
    ///
    /// Two entries addressing the same cycle are rejected (with both
    /// line numbers): the engine fires at most one event per poll, so
    /// a duplicate would silently push its twin later — almost always
    /// a plan-file editing mistake, not an intent.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        let mut first_line_for_cycle = std::collections::HashMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let cycle = parts
                .next()
                .ok_or_else(|| format!("line {}: missing cycle", lineno + 1))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {}: missing kind", lineno + 1))?;
            if parts.next().is_some() {
                return Err(format!("line {}: trailing tokens", lineno + 1));
            }
            let at_cycle: u64 = cycle
                .parse()
                .map_err(|_| format!("line {}: bad cycle {cycle:?}", lineno + 1))?;
            let kind = ChaosKind::parse(kind)
                .ok_or_else(|| format!("line {}: unknown kind {kind:?}", lineno + 1))?;
            if let Some(first) = first_line_for_cycle.insert(at_cycle, lineno + 1) {
                return Err(format!(
                    "line {}: duplicate cycle {at_cycle} (first scheduled at line {first})",
                    lineno + 1
                ));
            }
            events.push(PlanEvent { at_cycle, kind });
        }
        events.sort_by_key(|e| e.at_cycle);
        Ok(FaultPlan::Schedule(events))
    }

    /// The `i`-th schedule event, if this is a schedule and it exists.
    pub(crate) fn schedule_event(&self, i: usize) -> Option<PlanEvent> {
        match self {
            FaultPlan::Schedule(events) => events.get(i).copied(),
            _ => None,
        }
    }

    /// Appends the plan's serialized form to `w`.
    pub(crate) fn export_words(&self, w: &mut Vec<u64>) {
        match self {
            FaultPlan::Off => w.push(0),
            FaultPlan::Schedule(events) => {
                w.push(1);
                w.push(events.len() as u64);
                for ev in events {
                    w.push(ev.at_cycle);
                    w.push(ev.kind.index() as u64);
                }
            }
            FaultPlan::Campaign {
                seed,
                mean_interval,
            } => {
                w.push(2);
                w.push(*seed);
                w.push(*mean_interval);
            }
        }
    }

    /// Decodes a plan from a word cursor.
    pub(crate) fn restore_words(next: &mut dyn FnMut() -> Option<u64>) -> Option<FaultPlan> {
        match next()? {
            0 => Some(FaultPlan::Off),
            1 => {
                let n = usize::try_from(next()?).ok()?;
                // Untrusted count: grow with the stream, never size by it.
                let mut events = Vec::new();
                for _ in 0..n {
                    let at_cycle = next()?;
                    let idx = usize::try_from(next()?).ok()?;
                    let kind = *ChaosKind::ALL.get(idx)?;
                    events.push(PlanEvent { at_cycle, kind });
                }
                Some(FaultPlan::Schedule(events))
            }
            2 => Some(FaultPlan::Campaign {
                seed: next()?,
                mean_interval: next()?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_keys_parse_back() {
        for kind in ChaosKind::ALL {
            assert_eq!(ChaosKind::parse(kind.key()), Some(kind));
            assert_eq!(ChaosKind::ALL[kind.index()], kind);
        }
        assert_eq!(ChaosKind::parse("nonsense"), None);
    }

    #[test]
    fn plan_file_parses_sorted_with_comments() {
        let text = "\
# warm-up is quiet
500 tlb_corrupt
100 mem_parity   # early poke
300 drum_read_error
";
        let plan = FaultPlan::parse(text).expect("parses");
        let FaultPlan::Schedule(events) = plan else {
            panic!("expected schedule");
        };
        assert_eq!(
            events,
            vec![
                PlanEvent {
                    at_cycle: 100,
                    kind: ChaosKind::MemParity
                },
                PlanEvent {
                    at_cycle: 300,
                    kind: ChaosKind::DrumReadError
                },
                PlanEvent {
                    at_cycle: 500,
                    kind: ChaosKind::TlbCorrupt
                },
            ]
        );
    }

    #[test]
    fn plan_file_rejects_garbage() {
        assert!(FaultPlan::parse("abc mem_parity").is_err());
        assert!(FaultPlan::parse("100 bad_kind").is_err());
        assert!(FaultPlan::parse("100").is_err());
        assert!(FaultPlan::parse("100 mem_parity extra").is_err());
    }

    #[test]
    fn plan_file_errors_carry_line_numbers() {
        let text = "100 mem_parity\n\n# comment\nabc tlb_corrupt\n";
        let err = FaultPlan::parse(text).expect_err("bad cycle");
        assert!(err.starts_with("line 4:"), "{err}");
    }

    #[test]
    fn plan_file_rejects_duplicate_cycles() {
        let text = "\
100 mem_parity
200 tlb_corrupt  # fine
100 drum_read_error
";
        let err = FaultPlan::parse(text).expect_err("duplicate cycle");
        assert!(
            err.contains("line 3") && err.contains("duplicate cycle 100") && err.contains("line 1"),
            "{err}"
        );
        // Direct Schedule construction stays permissive: the parser
        // guard is about plan-file editing mistakes, not the API.
        let plan = FaultPlan::Schedule(vec![
            PlanEvent {
                at_cycle: 5,
                kind: ChaosKind::MemParity,
            },
            PlanEvent {
                at_cycle: 5,
                kind: ChaosKind::TlbCorrupt,
            },
        ]);
        let mut w = Vec::new();
        plan.export_words(&mut w);
        let mut it = w.iter().copied();
        assert_eq!(
            FaultPlan::restore_words(&mut || it.next()).expect("round trip"),
            plan
        );
    }

    #[test]
    fn plans_round_trip_words() {
        for plan in [
            FaultPlan::Off,
            FaultPlan::Schedule(vec![PlanEvent {
                at_cycle: 9,
                kind: ChaosKind::SpuriousTimer,
            }]),
            FaultPlan::Campaign {
                seed: 77,
                mean_interval: 1000,
            },
        ] {
            let mut w = Vec::new();
            plan.export_words(&mut w);
            let mut it = w.iter().copied();
            let back = FaultPlan::restore_words(&mut || it.next()).expect("round trip");
            assert_eq!(back, plan);
        }
    }
}
