//! Per-segment access heatmap: R/W/E reference counts and refused
//! (bracket-violation) attempts.

use ring_core::access::AccessMode;

/// Reference counts for one segment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegHeat {
    /// Validated read references (operand fetches, indirect words).
    pub reads: u64,
    /// Validated write references (stores, SPRI, AOS).
    pub writes: u64,
    /// Validated execute references (instruction fetches, taken
    /// transfers, CALL and RETURN targets).
    pub executes: u64,
    /// References refused by access validation (any violation kind).
    pub violations: u64,
}

impl SegHeat {
    /// Total validated references of every mode.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.executes
    }
}

/// Access counts per segment number, ordered for stable export.
///
/// A machine touches a few dozen segments at most and records several
/// references per instruction when metrics are on, so the counts live
/// in a vector sorted by segment number: a binary search per reference
/// and no node allocation.
#[derive(Clone, Debug, Default)]
pub struct SegmentHeatmap {
    segs: Vec<(u32, SegHeat)>,
}

impl SegmentHeatmap {
    /// A fresh, empty heatmap.
    pub fn new() -> SegmentHeatmap {
        SegmentHeatmap::default()
    }

    /// Records one reference of `mode` to segment `segno`.
    pub fn record(&mut self, segno: u32, mode: AccessMode) {
        self.record_n(segno, mode, 1);
    }

    /// Records `n` references of `mode` to segment `segno`.
    pub(crate) fn record_n(&mut self, segno: u32, mode: AccessMode, n: u64) {
        let heat = self.entry(segno);
        // No branch on the mode: a commit-table fold takes records whose
        // modes follow no pattern.
        heat.reads += n * u64::from(mode == AccessMode::Read);
        heat.writes += n * u64::from(mode == AccessMode::Write);
        heat.executes += n * u64::from(mode == AccessMode::Execute);
    }

    /// Records one refused reference to segment `segno`.
    pub fn record_violation(&mut self, segno: u32) {
        self.entry(segno).violations += 1;
    }

    /// The counts for `segno`, inserted zeroed in segment order if new.
    pub(crate) fn entry(&mut self, segno: u32) -> &mut SegHeat {
        let i = match self.segs.binary_search_by_key(&segno, |(s, _)| *s) {
            Ok(i) => i,
            Err(i) => {
                self.segs.insert(i, (segno, SegHeat::default()));
                i
            }
        };
        &mut self.segs[i].1
    }

    /// The counts for `segno`, if any reference touched it.
    pub fn get(&self, segno: u32) -> Option<&SegHeat> {
        let i = self.segs.binary_search_by_key(&segno, |(s, _)| *s).ok()?;
        Some(&self.segs[i].1)
    }

    /// Number of segments touched.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Iterates `(segno, counts)` in ascending segment order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &SegHeat)> {
        self.segs.iter().map(|(s, h)| (*s, h))
    }

    /// Adds `other`'s counts into this heatmap segment by segment; a
    /// segment new to this one is inserted in order.
    pub fn merge(&mut self, other: &SegmentHeatmap) {
        for (segno, theirs) in &other.segs {
            let mine = self.entry(*segno);
            mine.reads += theirs.reads;
            mine.writes += theirs.writes;
            mine.executes += theirs.executes;
            mine.violations += theirs.violations;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_mode_and_violation() {
        let mut h = SegmentHeatmap::new();
        h.record(10, AccessMode::Execute);
        h.record(10, AccessMode::Execute);
        h.record(11, AccessMode::Read);
        h.record(11, AccessMode::Write);
        h.record_violation(12);
        assert_eq!(h.get(10).unwrap().executes, 2);
        assert_eq!(h.get(11).unwrap().reads, 1);
        assert_eq!(h.get(11).unwrap().writes, 1);
        assert_eq!(h.get(11).unwrap().total(), 2);
        assert_eq!(h.get(12).unwrap().violations, 1);
        assert_eq!(h.get(12).unwrap().total(), 0);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn iteration_is_segment_ordered() {
        let mut h = SegmentHeatmap::new();
        for s in [30u32, 10, 20] {
            h.record(s, AccessMode::Read);
        }
        let order: Vec<u32> = h.iter().map(|(s, _)| s).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }
}
