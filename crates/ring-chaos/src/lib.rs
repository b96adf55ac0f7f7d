//! Deterministic fault injection for the ring simulator.
//!
//! The paper's central claim is *error confinement*: damage in ring `r`
//! must not spread below ring `r`, and every detected error traps to
//! ring 0 where supervisor software can recover. This crate supplies
//! the machinery for testing that claim — a seeded, cycle-addressed
//! fault plan ([`FaultPlan`]) and an engine ([`ChaosEngine`]) that
//! decides *when* a simulated hardware fault fires and *what kind* it
//! is, while the machine decides *where* (which word, which channel).
//!
//! Everything is deterministic: the only randomness is an inline
//! xoshiro256** generator ([`ChaosRng`]) seeded from the plan, and the
//! engine's complete state serializes into a machine image, so a chaos
//! run records and replays bit-for-bit through the existing flight
//! recorder. No wall clock, no OS randomness.

#![deny(clippy::unwrap_used)]

pub mod failure;
pub mod plan;
pub mod rng;

pub use failure::{FailureClass, MachineFailure};
pub use plan::{ChaosKind, FaultPlan, PlanEvent};
pub use rng::{mix_seed, ChaosRng};

/// Per-segment corruption detections before that segment's fast path
/// is disabled.
pub const SEG_DEGRADE_THRESHOLD: u32 = 2;

/// Total corruption detections before the fast path is disabled
/// globally.
pub const GLOBAL_DEGRADE_THRESHOLD: u32 = 8;

/// Degradation decisions newly triggered by a corruption report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Degrade {
    /// Disable the fast path for this segment.
    pub seg: Option<u32>,
    /// Disable the fast path globally.
    pub global: bool,
}

/// How the plan generates events.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    /// No plan: the engine is inert (every poll returns `None`).
    Off,
    /// An explicit schedule, consumed in order.
    Schedule { next: usize },
    /// A seeded campaign: exponential-ish inter-arrival times drawn
    /// from the engine RNG.
    Campaign { mean_interval: u64, next_at: u64 },
}

/// The fault-injection engine.
///
/// Owned by the machine. Once per step (outside trap handling) the
/// machine calls [`ChaosEngine::poll`]; a returned [`ChaosKind`] is an
/// instruction to *arm* one simulated hardware fault now. The machine
/// reports what actually happened back through `note_*`, so the engine
/// carries the full injected/detected ledger, and reports repeated
/// corruption through [`ChaosEngine::note_corruption`], which applies
/// the graceful-degradation policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEngine {
    plan: FaultPlan,
    mode: Mode,
    rng: ChaosRng,
    /// Injections applied, per kind (indexed by `ChaosKind::index`).
    injected: [u64; ChaosKind::ALL.len()],
    /// Injected faults whose detection trap (or supervisor consumption)
    /// has happened.
    detected: u64,
    /// Corruption detections per segment, for the degradation policy.
    /// Sorted by segment number so serialization is canonical.
    seg_corruption: Vec<(u32, u32)>,
    /// Total corruption detections (degradation policy input).
    corruption_total: u32,
    /// Segments whose fast path has been disabled.
    degraded_segs: Vec<u32>,
    /// Whether the fast path has been disabled globally.
    degraded_global: bool,
    /// Simulated-drum read errors armed and not yet consumed.
    drum_read_errors: u32,
    /// Simulated-drum write errors armed and not yet consumed.
    drum_write_errors: u32,
}

impl ChaosEngine {
    /// An inert engine: polls never fire, counters stay zero. This is
    /// the default state of every machine.
    pub fn off() -> ChaosEngine {
        ChaosEngine::with_plan(FaultPlan::Off)
    }

    /// An engine driving `plan`.
    pub fn with_plan(plan: FaultPlan) -> ChaosEngine {
        let (mode, rng) = match &plan {
            FaultPlan::Off => (Mode::Off, ChaosRng::seeded(0)),
            FaultPlan::Schedule(_) => (Mode::Schedule { next: 0 }, ChaosRng::seeded(0)),
            FaultPlan::Campaign {
                seed,
                mean_interval,
            } => {
                let mut rng = ChaosRng::seeded(*seed);
                let mean = (*mean_interval).max(1);
                let first = 1 + rng.below(2 * mean);
                (
                    Mode::Campaign {
                        mean_interval: mean,
                        next_at: first,
                    },
                    rng,
                )
            }
        };
        ChaosEngine {
            plan,
            mode,
            rng,
            injected: [0; ChaosKind::ALL.len()],
            detected: 0,
            seg_corruption: Vec::new(),
            corruption_total: 0,
            degraded_segs: Vec::new(),
            degraded_global: false,
            drum_read_errors: 0,
            drum_write_errors: 0,
        }
    }

    /// True when a plan is loaded (polls may fire).
    pub fn enabled(&self) -> bool {
        !matches!(self.mode, Mode::Off)
    }

    /// Returns the next fault kind due at or before `now`, advancing
    /// the plan. The caller polls only at points where injection is
    /// architecturally possible (between instructions, outside trap
    /// handling), so a due event simply waits until the next eligible
    /// poll — deterministically, since eligibility is part of the
    /// simulated state.
    pub fn poll(&mut self, now: u64) -> Option<ChaosKind> {
        match &mut self.mode {
            Mode::Off => None,
            Mode::Schedule { next } => match self.plan.schedule_event(*next) {
                Some(ev) if ev.at_cycle <= now => {
                    *next += 1;
                    Some(ev.kind)
                }
                _ => None,
            },
            Mode::Campaign {
                mean_interval,
                next_at,
            } => {
                if *next_at > now {
                    return None;
                }
                let mean = *mean_interval;
                *next_at = now + 1 + self.rng.below(2 * mean);
                Some(self.rng.pick_kind())
            }
        }
    }

    /// Raw engine randomness for target selection (which word, which
    /// cache slot). Part of the deterministic stream.
    pub fn rand(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Records one applied injection of `kind`.
    pub fn note_injected(&mut self, kind: ChaosKind) {
        self.injected[kind.index()] += 1;
    }

    /// Records one detection (a parity or I/O-error trap taken, a
    /// drum error consumed by the supervisor, or an instantly-detected
    /// cache corruption).
    pub fn note_detected(&mut self) {
        self.detected += 1;
    }

    /// Total injections applied.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Injections applied of one kind.
    pub fn injected_of(&self, kind: ChaosKind) -> u64 {
        self.injected[kind.index()]
    }

    /// Detections recorded.
    pub fn detected_total(&self) -> u64 {
        self.detected
    }

    /// Arms one simulated drum read error (consumed by the supervisor
    /// on its next backing-store fetch).
    pub fn arm_drum_read_error(&mut self) {
        self.drum_read_errors += 1;
    }

    /// Arms one simulated drum write error.
    pub fn arm_drum_write_error(&mut self) {
        self.drum_write_errors += 1;
    }

    /// Consumes one armed drum read error, if any. The supervisor calls
    /// this before a backing-store fetch; `true` means the transfer
    /// failed and must be retried.
    pub fn take_drum_read_error(&mut self) -> bool {
        if self.drum_read_errors > 0 {
            self.drum_read_errors -= 1;
            self.detected += 1;
            true
        } else {
            false
        }
    }

    /// Consumes one armed drum write error, if any.
    pub fn take_drum_write_error(&mut self) -> bool {
        if self.drum_write_errors > 0 {
            self.drum_write_errors -= 1;
            self.detected += 1;
            true
        } else {
            false
        }
    }

    /// Armed-but-unconsumed drum errors (latent).
    pub fn armed_drum_errors(&self) -> u64 {
        u64::from(self.drum_read_errors) + u64::from(self.drum_write_errors)
    }

    /// Reports a corruption detection attributed to `segno` (or none)
    /// and returns any degradation newly triggered by the policy:
    /// a segment is demoted to the slow path after
    /// [`SEG_DEGRADE_THRESHOLD`] detections, the whole machine after
    /// [`GLOBAL_DEGRADE_THRESHOLD`].
    pub fn note_corruption(&mut self, segno: Option<u32>) -> Degrade {
        self.corruption_total += 1;
        let mut out = Degrade::default();
        if let Some(seg) = segno {
            let count = match self.seg_corruption.binary_search_by_key(&seg, |e| e.0) {
                Ok(i) => {
                    self.seg_corruption[i].1 += 1;
                    self.seg_corruption[i].1
                }
                Err(i) => {
                    self.seg_corruption.insert(i, (seg, 1));
                    1
                }
            };
            if count >= SEG_DEGRADE_THRESHOLD && !self.degraded_segs.contains(&seg) {
                self.degraded_segs.push(seg);
                self.degraded_segs.sort_unstable();
                out.seg = Some(seg);
            }
        }
        if self.corruption_total >= GLOBAL_DEGRADE_THRESHOLD && !self.degraded_global {
            self.degraded_global = true;
            out.global = true;
        }
        out
    }

    /// Segments demoted to the slow path so far.
    pub fn degraded_segs(&self) -> &[u32] {
        &self.degraded_segs
    }

    /// Whether the fast path has been disabled globally.
    pub fn degraded_global(&self) -> bool {
        self.degraded_global
    }

    /// Flattens the ledger into namespaced counter pairs for a metrics
    /// snapshot's `extra` section.
    pub fn export_pairs(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("chaos.injected".into(), self.injected_total()),
            ("chaos.detected".into(), self.detected),
            ("chaos.armed_drum_errors".into(), self.armed_drum_errors()),
            ("chaos.degraded.seg".into(), self.degraded_segs.len() as u64),
            (
                "chaos.degraded.global".into(),
                u64::from(self.degraded_global),
            ),
        ];
        for kind in ChaosKind::ALL {
            out.push((
                format!("chaos.injected.{}", kind.key()),
                self.injected[kind.index()],
            ));
        }
        out
    }

    /// Serializes the complete engine state (plan, RNG, ledger) as a
    /// word stream for a machine image.
    pub fn export_words(&self) -> Vec<u64> {
        let mut w = Vec::new();
        self.plan.export_words(&mut w);
        match &self.mode {
            Mode::Off => w.push(0),
            Mode::Schedule { next } => {
                w.push(1);
                w.push(*next as u64);
            }
            Mode::Campaign {
                mean_interval,
                next_at,
            } => {
                w.push(2);
                w.push(*mean_interval);
                w.push(*next_at);
            }
        }
        w.extend_from_slice(&self.rng.state());
        w.extend(self.injected.iter().copied());
        w.push(self.detected);
        w.push(self.seg_corruption.len() as u64);
        for &(seg, n) in &self.seg_corruption {
            w.push(u64::from(seg));
            w.push(u64::from(n));
        }
        w.push(self.corruption_total.into());
        w.push(self.degraded_segs.len() as u64);
        for &seg in &self.degraded_segs {
            w.push(u64::from(seg));
        }
        w.push(u64::from(self.degraded_global));
        w.push(u64::from(self.drum_read_errors));
        w.push(u64::from(self.drum_write_errors));
        w
    }

    /// Rebuilds an engine from [`ChaosEngine::export_words`] output.
    /// `next` is a draining cursor over the word stream; returns `None`
    /// on a malformed stream.
    pub fn restore_words(next: &mut dyn FnMut() -> Option<u64>) -> Option<ChaosEngine> {
        let plan = FaultPlan::restore_words(next)?;
        let mode = match next()? {
            0 => Mode::Off,
            1 => Mode::Schedule {
                next: usize::try_from(next()?).ok()?,
            },
            2 => Mode::Campaign {
                mean_interval: next()?,
                next_at: next()?,
            },
            _ => return None,
        };
        let rng = ChaosRng::from_state([next()?, next()?, next()?, next()?]);
        let mut injected = [0u64; ChaosKind::ALL.len()];
        for slot in injected.iter_mut() {
            *slot = next()?;
        }
        let detected = next()?;
        let nseg = usize::try_from(next()?).ok()?;
        // No preallocation: the counts are untrusted, and a stream that
        // runs dry ends the loops with `None`.
        let mut seg_corruption = Vec::new();
        for _ in 0..nseg {
            let seg = u32::try_from(next()?).ok()?;
            let n = u32::try_from(next()?).ok()?;
            seg_corruption.push((seg, n));
        }
        let corruption_total = u32::try_from(next()?).ok()?;
        let ndeg = usize::try_from(next()?).ok()?;
        let mut degraded_segs = Vec::new();
        for _ in 0..ndeg {
            degraded_segs.push(u32::try_from(next()?).ok()?);
        }
        let degraded_global = next()? != 0;
        let drum_read_errors = u32::try_from(next()?).ok()?;
        let drum_write_errors = u32::try_from(next()?).ok()?;
        Some(ChaosEngine {
            plan,
            mode,
            rng,
            injected,
            detected,
            seg_corruption,
            corruption_total,
            degraded_segs,
            degraded_global,
            drum_read_errors,
            drum_write_errors,
        })
    }
}

impl Default for ChaosEngine {
    fn default() -> Self {
        ChaosEngine::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_engine_never_fires() {
        let mut e = ChaosEngine::off();
        assert!(!e.enabled());
        for now in 0..100_000 {
            assert_eq!(e.poll(now), None);
        }
        assert_eq!(e.injected_total(), 0);
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let run = |seed| {
            let mut e = ChaosEngine::with_plan(FaultPlan::Campaign {
                seed,
                mean_interval: 500,
            });
            let mut events = Vec::new();
            for now in 0..50_000 {
                if let Some(k) = e.poll(now) {
                    events.push((now, k));
                }
            }
            events
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.len() > 20, "campaign fired {} times", a.len());
    }

    #[test]
    fn schedule_fires_in_order_and_once() {
        let plan = FaultPlan::Schedule(vec![
            PlanEvent {
                at_cycle: 10,
                kind: ChaosKind::MemParity,
            },
            PlanEvent {
                at_cycle: 10,
                kind: ChaosKind::TlbCorrupt,
            },
            PlanEvent {
                at_cycle: 30,
                kind: ChaosKind::SpuriousTimer,
            },
        ]);
        let mut e = ChaosEngine::with_plan(plan);
        assert_eq!(e.poll(5), None);
        assert_eq!(e.poll(12), Some(ChaosKind::MemParity));
        assert_eq!(e.poll(12), Some(ChaosKind::TlbCorrupt));
        assert_eq!(e.poll(12), None);
        assert_eq!(e.poll(31), Some(ChaosKind::SpuriousTimer));
        assert_eq!(e.poll(40), None);
    }

    #[test]
    fn degradation_policy_trips_per_seg_then_globally() {
        let mut e = ChaosEngine::with_plan(FaultPlan::Campaign {
            seed: 1,
            mean_interval: 10,
        });
        assert_eq!(e.note_corruption(Some(7)), Degrade::default());
        let d = e.note_corruption(Some(7));
        assert_eq!(d.seg, Some(7));
        assert!(!d.global);
        assert_eq!(e.degraded_segs(), &[7]);
        for _ in 0..5 {
            e.note_corruption(None);
        }
        let d = e.note_corruption(None);
        assert!(d.global);
        assert!(e.degraded_global());
        // Already tripped: no re-trigger.
        assert_eq!(e.note_corruption(Some(7)), Degrade::default());
    }

    #[test]
    fn drum_errors_arm_and_consume() {
        let mut e = ChaosEngine::off();
        assert!(!e.take_drum_read_error());
        e.arm_drum_read_error();
        e.arm_drum_write_error();
        assert_eq!(e.armed_drum_errors(), 2);
        assert!(e.take_drum_read_error());
        assert!(!e.take_drum_read_error());
        assert!(e.take_drum_write_error());
        assert_eq!(e.detected_total(), 2);
        assert_eq!(e.armed_drum_errors(), 0);
    }

    #[test]
    fn export_restore_round_trips_mid_campaign() {
        let mut e = ChaosEngine::with_plan(FaultPlan::Campaign {
            seed: 99,
            mean_interval: 100,
        });
        let mut fired = 0;
        let mut now = 0;
        while fired < 10 {
            if let Some(k) = e.poll(now) {
                e.note_injected(k);
                fired += 1;
            }
            now += 1;
        }
        e.note_detected();
        e.note_corruption(Some(3));
        e.note_corruption(Some(3));
        e.arm_drum_read_error();
        let words = e.export_words();
        let mut it = words.iter().copied();
        let restored = ChaosEngine::restore_words(&mut || it.next()).expect("round trip");
        assert_eq!(restored, e);
        // The restored engine continues the identical stream.
        let mut a = e.clone();
        let mut b = restored;
        for t in now..now + 20_000 {
            assert_eq!(a.poll(t), b.poll(t));
        }
    }

    #[test]
    fn export_pairs_names_every_kind() {
        let e = ChaosEngine::off();
        let pairs = e.export_pairs();
        for kind in ChaosKind::ALL {
            let key = format!("chaos.injected.{}", kind.key());
            assert!(pairs.iter().any(|(k, _)| *k == key), "missing {key}");
        }
    }
}
