//! Fast-path commits as packed records, counted in a fixed table.
//!
//! A fast-path commit reports what its reference twin reports one event
//! at a time: the instruction (ring of execution, operand class), one
//! SDW-cache hit and one heatmap reference per segment reference, and
//! the Fig. 5 event (indirect depth, TPR ring maximisation). A loop
//! commits the same few instructions over and over, so
//! [`Metrics::fast_commit`] packs each commit into one word and counts
//! it in a small table: a record seen before costs one compare and one
//! increment. A record the table evicts, and one that does not fit
//! (more than three references, or a chain deeper than two), goes
//! through the counter updates the per-event methods use, and
//! [`MetricsSnapshot::new`] folds what the table still holds into the
//! snapshot's copies. Every quantity a record feeds is an order-free
//! sum, so a snapshot reads the same as if each event had been counted
//! when it happened.
//!
//! [`Metrics::fast_commit`]: crate::Metrics::fast_commit
//! [`MetricsSnapshot::new`]: crate::MetricsSnapshot::new

use ring_core::access::AccessMode;
use ring_core::addr::SegNo;
use ring_core::ring::Ring;

use crate::counters::{OpClass, OpClassCounters, NUM_RINGS};
use crate::heatmap::SegmentHeatmap;
use crate::hist::CycleHistogram;

// A record, from the low bits up:
//   0..51   up to three references, 17 bits each: the segment number
//           above a two-bit mode code (Read 1, Write 2, Execute 3)
//   51..53  how many references it holds
//   53..57  the operand class, as its `OpClass::ALL` index
//   57..60  the ring of execution
//   60..62  the Fig. 5 event: 0 for none, else the depth plus one
//   62      whether the event maximised the ring
// Bit 63 is never set, so `EMPTY` is no record.
const REF_BITS: u64 = 17;
const REFS: u64 = 3;
const HELD: u64 = REF_BITS * REFS;
const CLASS: u64 = HELD + 2;
const RING: u64 = CLASS + 4;
const DEPTH: u64 = RING + 3;
const MAXIMISED: u64 = DEPTH + 2;
/// The deepest indirect chain a record holds.
const MAX_DEPTH: u32 = 2;
/// Mode codes 1 to 3 (0 is never stored).
const MODES: [AccessMode; 4] = [
    AccessMode::Read,
    AccessMode::Read,
    AccessMode::Write,
    AccessMode::Execute,
];

fn mode_code(mode: AccessMode) -> u64 {
    match mode {
        AccessMode::Read => 1,
        AccessMode::Write => 2,
        AccessMode::Execute => 3,
    }
}

/// The packed references of a record, in the order made.
fn refs(record: u64) -> impl Iterator<Item = (u32, AccessMode)> {
    (0..record >> HELD & 3).map(move |i| {
        let r = record >> (REF_BITS * i) & ((1 << REF_BITS) - 1);
        ((r >> 2) as u32, MODES[(r & 3) as usize])
    })
}

/// The segment references of one fast-path attempt, in the order it
/// made them: the first three packed as a record holds them, any more
/// (a deep indirect chain) in a spill list.
#[derive(Clone, Debug, Default)]
pub struct CommitRefs {
    packed: u64,
    spill: Vec<(u32, AccessMode)>,
}

impl CommitRefs {
    /// Forgets every reference, for a new attempt.
    #[inline]
    pub fn clear(&mut self) {
        self.packed = 0;
        self.spill.clear();
    }

    /// Adds a reference of `mode` to segment `segno`.
    #[inline]
    pub fn push(&mut self, segno: SegNo, mode: AccessMode) {
        let held = self.packed >> HELD;
        if held < REFS {
            let r = u64::from(segno.value()) << 2 | mode_code(mode);
            self.packed += r << (REF_BITS * held) | 1 << HELD;
        } else {
            self.spill.push((segno.value(), mode));
        }
    }

    /// Every reference, in the order made.
    fn iter(&self) -> impl Iterator<Item = (u32, AccessMode)> + '_ {
        refs(self.packed).chain(self.spill.iter().copied())
    }

    /// The references committed as one instruction of `class` in `ring`
    /// with Fig. 5 event `ea`, as a record; `None` if they do not fit.
    #[inline]
    pub(crate) fn record(
        &self,
        ring: Ring,
        class: OpClass,
        ea: Option<(u32, bool)>,
    ) -> Option<u64> {
        let (depth, maximised) = match ea {
            None => (0, false),
            Some((depth, maximised)) if depth <= MAX_DEPTH => (u64::from(depth) + 1, maximised),
            Some(_) => return None,
        };
        if !self.spill.is_empty() {
            return None;
        }
        Some(
            self.packed
                | (class.index() as u64) << CLASS
                | u64::from(ring.number()) << RING
                | depth << DEPTH
                | u64::from(maximised) << MAXIMISED,
        )
    }
}

/// The counters commits feed: the recorder's own, or a snapshot's
/// copies of them.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tallies {
    pub(crate) opclasses: OpClassCounters,
    pub(crate) instr_by_ring: [u64; NUM_RINGS],
    pub(crate) ea_depth: CycleHistogram,
    pub(crate) tpr_maximisations: u64,
    pub(crate) sdw_hits: u64,
    pub(crate) heatmap: SegmentHeatmap,
}

impl Tallies {
    /// Counts `n` commits of each `(record, n)` in `records`: the
    /// plain counters per record, the EA-depth histogram once at the
    /// end.
    pub(crate) fn add_records(&mut self, records: impl Iterator<Item = (u64, u64)>) {
        // Commits by Fig. 5 event: none, then depth 0 to `MAX_DEPTH`.
        let mut events = [0; MAX_DEPTH as usize + 2];
        for (record, n) in records {
            self.instr_by_ring[(record >> RING & 7) as usize] += n;
            let class = OpClass::ALL[(record >> CLASS & 15) as usize];
            self.opclasses.record_n(class, n);
            events[(record >> DEPTH & 3) as usize] += n;
            self.tpr_maximisations += (record >> MAXIMISED & 1) * n;
            self.sdw_hits += (record >> HELD & 3) * n;
            for (segno, mode) in refs(record) {
                self.heatmap.record_n(segno, mode, n);
            }
        }
        for (depth, &n) in events[1..].iter().enumerate() {
            self.ea_depth.record_n(depth as u64, n);
        }
    }

    /// Counts one commit that does not fit in a record, as the
    /// per-event methods count it.
    #[inline(never)]
    pub(crate) fn add_unpacked(
        &mut self,
        ring: Ring,
        class: OpClass,
        refs: &CommitRefs,
        ea: Option<(u32, bool)>,
    ) {
        self.instr_by_ring[ring.number() as usize] += 1;
        self.opclasses.record(class);
        for (segno, mode) in refs.iter() {
            self.sdw_hits += 1;
            self.heatmap.record(segno, mode);
        }
        if let Some((depth, maximised)) = ea {
            self.ea_depth.record(u64::from(depth));
            self.tpr_maximisations += u64::from(maximised);
        }
    }
}

/// Sets in the table, of two records each.
const SET_BITS: u32 = 4;
const SETS: usize = 1 << SET_BITS;
/// An unused slot's record: none, and every field zero, so that with its
/// count of 0 it counts nothing.
const EMPTY: u64 = 1 << 63;

/// Commit records and their counts, in 16 sets of two: 512 bytes, held
/// inline so that a recorder costs no allocation for it.
#[derive(Clone, Debug)]
pub(crate) struct CommitTable {
    sets: [[(u64, u64); 2]; SETS],
    /// One bit per set that holds a record, so that a fold visits only
    /// those.
    used: u32,
}

impl Default for CommitTable {
    fn default() -> CommitTable {
        CommitTable {
            sets: [[(EMPTY, 0); 2]; SETS],
            used: 0,
        }
    }
}

impl CommitTable {
    /// Counts one commit of `record`: in place if the table holds it,
    /// else by taking it in.
    #[inline]
    pub(crate) fn count(&mut self, record: u64, tallies: &mut Tallies) {
        let i = (record.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SET_BITS)) as usize;
        let set = &mut self.sets[i];
        if set[0].0 == record {
            set[0].1 += 1;
        } else if set[1].0 == record {
            set[1].1 += 1;
        } else {
            self.take_in(i, record, tallies);
        }
    }

    /// Puts a new `record` in the first slot of set `i`, folding the
    /// record it evicts into `tallies`. The record's segments get their
    /// heatmap entries now, so that a snapshot's fold only adds to
    /// entries its copy of the heatmap already holds.
    #[inline(never)]
    fn take_in(&mut self, i: usize, record: u64, tallies: &mut Tallies) {
        for (segno, _) in refs(record) {
            tallies.heatmap.entry(segno);
        }
        self.used |= 1 << i;
        let set = &mut self.sets[i];
        let evicted = set[1];
        *set = [(record, 1), set[0]];
        if evicted.0 != EMPTY {
            tallies.add_records(std::iter::once(evicted));
        }
    }

    /// Every record held, with its count, and the empty slots of their
    /// sets as `(EMPTY, 0)`: a fold takes those without a branch.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut used = self.used;
        std::iter::from_fn(move || {
            let i = used.trailing_zeros() as usize;
            used &= used.wrapping_sub(1);
            self.sets.get(i)
        })
        .flatten()
        .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FastPathStats, Metrics, MetricsSnapshot, SdwCacheStats};
    use ring_core::addr::MAX_SEGNO;

    /// The fast path's indirect-chain limit (`MachineConfig::default`).
    const INDIRECT_LIMIT: u32 = 16;

    /// xorshift64*: a fixed-seed generator, so every run checks the
    /// same records.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[derive(Clone)]
    struct Commit {
        ring: Ring,
        class: OpClass,
        refs: Vec<(SegNo, AccessMode)>,
        ea: Option<(u32, bool)>,
    }

    fn random_commit(rng: &mut Rng) -> Commit {
        let modes = [AccessMode::Read, AccessMode::Write, AccessMode::Execute];
        let refs = (0..rng.below(6))
            .map(|_| {
                // Mostly a few dozen segments, sometimes the widest number.
                let segno = match rng.below(8) {
                    0 => MAX_SEGNO - rng.below(4) as u32,
                    _ => rng.below(40) as u32,
                };
                let segno = SegNo::new(segno).expect("segment number in range");
                (segno, modes[rng.below(3) as usize])
            })
            .collect();
        let ea = match rng.below(4) {
            0 => None,
            1 => Some((
                rng.below(u64::from(INDIRECT_LIMIT) + 1) as u32,
                rng.below(2) == 1,
            )),
            _ => Some((rng.below(3) as u32, rng.below(2) == 1)),
        };
        Commit {
            ring: Ring::from_bits(rng.below(8)),
            class: OpClass::ALL[rng.below(OpClass::ALL.len() as u64) as usize],
            refs,
            ea,
        }
    }

    /// The events a reference-path twin of `c` reports, one at a time.
    fn record_direct(m: &mut Metrics, c: &Commit) {
        m.instruction(c.ring, c.class);
        for &(segno, mode) in &c.refs {
            m.sdw_hit();
            m.access(segno.value(), mode);
        }
        if let Some((depth, maximised)) = c.ea {
            m.ea_formed(depth, maximised);
        }
    }

    fn record_fast(m: &mut Metrics, refs: &mut CommitRefs, c: &Commit) {
        refs.clear();
        for &(segno, mode) in &c.refs {
            refs.push(segno, mode);
        }
        m.fast_commit(c.ring, c.class, refs, c.ea);
    }

    fn json(m: &Metrics) -> String {
        let s = MetricsSnapshot::new(m, 0, 0, SdwCacheStats::default(), FastPathStats::default());
        s.to_json()
    }

    #[test]
    fn a_record_round_trips_every_field() {
        let mut rng = Rng(0x5EED);
        for _ in 0..10_000 {
            let c = random_commit(&mut rng);
            let mut refs = CommitRefs::default();
            for &(segno, mode) in &c.refs {
                refs.push(segno, mode);
            }
            let unpacked: Vec<(u32, AccessMode)> = refs.iter().collect();
            let made: Vec<(u32, AccessMode)> =
                c.refs.iter().map(|&(s, m)| (s.value(), m)).collect();
            assert_eq!(unpacked, made);
            let Some(record) = refs.record(c.ring, c.class, c.ea) else {
                assert!(c.refs.len() > 3 || c.ea.is_some_and(|(d, _)| d > MAX_DEPTH));
                continue;
            };
            assert_ne!(record, EMPTY);
            let mut direct = Tallies::default();
            for _ in 0..3 {
                direct.add_unpacked(c.ring, c.class, &refs, c.ea);
            }
            let mut packed = Tallies::default();
            packed.add_records(std::iter::once((record, 3)));
            assert_eq!(format!("{packed:?}"), format!("{direct:?}"));
        }
    }

    /// A table-backed recorder reads the same as one fed event by event,
    /// at any point of any stream: records that hit, records the table
    /// evicts (the pool holds more records than the table has slots),
    /// and records too big to pack.
    #[test]
    fn table_backed_snapshots_equal_direct_ones() {
        let mut rng = Rng(0x0B5E_47E5);
        for case in 0..24 {
            let pool: Vec<Commit> = (0..8 + rng.below(200))
                .map(|_| random_commit(&mut rng))
                .collect();
            let (mut direct, mut fast) = (Metrics::enabled(), Metrics::enabled());
            let mut refs = CommitRefs::default();
            for step in 0..4_000 {
                // Skewed: a few records commit most of the time.
                let hot = rng.below(4) != 0;
                let i = rng.below(if hot { 8 } else { pool.len() as u64 }) as usize;
                let c = &pool[i.min(pool.len() - 1)];
                record_direct(&mut direct, c);
                record_fast(&mut fast, &mut refs, c);
                if rng.below(500) == 0 {
                    assert_eq!(json(&fast), json(&direct), "case {case}, step {step}");
                }
            }
            assert_eq!(json(&fast), json(&direct), "case {case}, at the end");
        }
    }
}
