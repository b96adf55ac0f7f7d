//! The SDW associative memory (descriptor cache).
//!
//! Address translation requires the SDW of the referenced segment on
//! every virtual-memory reference; fetching it from the descriptor
//! segment costs two physical references. Like the real 645/6180
//! processors, the simulator keeps a small associative memory of
//! recently used SDWs. Loading the DBR — switching virtual memories —
//! flushes it, which is precisely what makes the software-ring baseline
//! (one descriptor segment per ring, DBR switch on every ring crossing)
//! expensive; experiment T5 sweeps the cache size to measure this.
//!
//! Lookup compares the segment number against a per-slot key array —
//! the software stand-in for the hardware's parallel comparators. The
//! keys are a dense copy of the segment numbers in the entry array, so
//! a lookup scans a few cache lines no matter how large the segment
//! space is, and booting or cloning a cache copies only its slots. The
//! keys are pure acceleration — replacement stays round-robin, flush
//! and invalidate semantics and [`CacheStats`] accounting are those of
//! a scan over the entries, which the model-equivalence test at the
//! bottom pins.

use ring_core::addr::SegNo;
use ring_core::sdw::Sdw;

/// Hit/miss/flush statistics for the associative memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied by the cache.
    pub hits: u64,
    /// Lookups that had to walk the descriptor segment.
    pub misses: u64,
    /// Full flushes (DBR loads).
    pub flushes: u64,
    /// Single-entry invalidations (supervisor SDW updates).
    pub invalidations: u64,
}

impl CacheStats {
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

/// The externally visible replacement state of an [`SdwCache`],
/// captured for record/replay checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SdwCacheState {
    /// Slot contents, in slot order.
    pub entries: Vec<Option<(SegNo, Sdw)>>,
    /// The round-robin replacement cursor.
    pub next_victim: usize,
    /// Accumulated statistics at capture time.
    pub stats: CacheStats,
}

/// A fully associative SDW cache with round-robin replacement.
///
/// Capacity 0 disables caching (every lookup misses), which models the
/// original 645's lack of a descriptor cache.
#[derive(Clone, Debug)]
pub struct SdwCache {
    entries: Vec<Option<(SegNo, Sdw)>>,
    /// The segment number held by each slot of `entries`, or
    /// [`EMPTY_KEY`] for a free slot.
    keys: Vec<u16>,
    next_victim: usize,
    stats: CacheStats,
}

/// Key of a free slot (segment numbers are 15 bits).
const EMPTY_KEY: u16 = u16::MAX;

#[inline]
fn key_of(segno: SegNo) -> u16 {
    segno.value() as u16
}

impl SdwCache {
    /// The 16-entry configuration of the modelled processor.
    pub const DEFAULT_CAPACITY: usize = 16;

    /// Creates a cache with `capacity` entries.
    pub fn new(capacity: usize) -> SdwCache {
        SdwCache {
            entries: vec![None; capacity],
            keys: vec![EMPTY_KEY; capacity],
            next_victim: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Occupied slot holding `segno`, if any.
    #[inline]
    fn slot_of(&self, segno: SegNo) -> Option<usize> {
        let key = key_of(segno);
        self.keys.iter().position(|&k| k == key)
    }

    /// Fills `slot` with `(segno, sdw)`.
    fn fill(&mut self, slot: usize, segno: SegNo, sdw: Sdw) {
        self.entries[slot] = Some((segno, sdw));
        self.keys[slot] = key_of(segno);
    }

    /// Whether `segno` is currently resident (no statistics update).
    #[inline]
    pub fn contains(&self, segno: SegNo) -> bool {
        self.slot_of(segno).is_some()
    }

    /// The SDW resident for `segno`, if any, without counting a lookup:
    /// the pure read behind the fast path's CALL and RETURN, which
    /// credits the hit with [`SdwCache::count_hits`] only on commit.
    #[inline]
    pub fn peek(&self, segno: SegNo) -> Option<Sdw> {
        self.slot_of(segno)
            .and_then(|slot| self.entries[slot].map(|(_, sdw)| sdw))
    }

    /// Looks up the SDW for `segno`, updating hit/miss statistics.
    #[inline]
    pub fn lookup(&mut self, segno: SegNo) -> Option<Sdw> {
        match self.slot_of(segno) {
            Some(slot) => {
                self.stats.hits += 1;
                Some(self.entries[slot].expect("keyed slot is occupied").1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records `n` lookups that the fast-path lookaside resolved on this
    /// cache's behalf. A fast-path hit is only installed while its
    /// segment is resident here, so the slow path would have scored the
    /// same hits; counting them keeps [`CacheStats`] identical whichever
    /// path executed.
    #[inline]
    pub fn count_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Installs an SDW fetched from the descriptor segment, evicting the
    /// round-robin victim if the cache is full.
    ///
    /// Returns the segment whose residency ended with this insert: the
    /// evicted victim, or `segno` itself when an existing entry was
    /// replaced in place (its cached contents changed). `None` when a
    /// free slot absorbed the insert — no cached state was displaced.
    pub fn insert(&mut self, segno: SegNo, sdw: Sdw) -> Option<SegNo> {
        if self.entries.is_empty() {
            return None;
        }
        // Replace an existing entry for the same segment, else the first
        // free slot, else the round-robin victim.
        if let Some(slot) = self.slot_of(segno) {
            self.entries[slot] = Some((segno, sdw));
            return Some(segno);
        }
        if let Some(slot) = self.keys.iter().position(|&k| k == EMPTY_KEY) {
            self.fill(slot, segno, sdw);
            return None;
        }
        let victim = self.next_victim;
        let displaced = self.entries[victim].map(|(s, _)| s);
        self.fill(victim, segno, sdw);
        self.next_victim = (victim + 1) % self.entries.len();
        displaced
    }

    /// Flushes every entry (performed by a DBR load).
    pub fn flush(&mut self) {
        self.entries.fill(None);
        self.keys.fill(EMPTY_KEY);
        self.next_victim = 0;
        self.stats.flushes += 1;
    }

    /// Invalidates the entry for one segment (performed when the
    /// supervisor rewrites an SDW so the change is immediately
    /// effective, as the paper requires).
    pub fn invalidate(&mut self, segno: SegNo) {
        if let Some(slot) = self.slot_of(segno) {
            self.entries[slot] = None;
            self.keys[slot] = EMPTY_KEY;
        }
        self.stats.invalidations += 1;
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Captures the complete replacement state for a checkpoint.
    ///
    /// The associative memory is architecturally visible through cycle
    /// counts — a resident SDW absorbs the two-reference descriptor
    /// fetch — so deterministic replay must restore its exact contents
    /// and round-robin cursor, not just flush it.
    pub fn export_state(&self) -> SdwCacheState {
        SdwCacheState {
            entries: self.entries.clone(),
            next_victim: self.next_victim,
            stats: self.stats,
        }
    }

    /// Restores a state captured by [`SdwCache::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a cache of a different
    /// capacity (replay must rebuild the machine with the same
    /// configuration it recorded).
    pub fn restore_state(&mut self, state: &SdwCacheState) {
        assert_eq!(
            state.entries.len(),
            self.entries.len(),
            "SDW cache snapshot capacity mismatch"
        );
        self.entries.clone_from(&state.entries);
        self.next_victim = state.next_victim;
        self.stats = state.stats;
        for (key, entry) in self.keys.iter_mut().zip(&self.entries) {
            *key = entry.map_or(EMPTY_KEY, |(s, _)| key_of(s));
        }
    }

    /// Clears the accumulated statistics (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_core::ring::Ring;
    use ring_core::sdw::SdwBuilder;

    fn seg(n: u32) -> SegNo {
        SegNo::new(n).unwrap()
    }

    fn sdw(tag: u32) -> Sdw {
        SdwBuilder::data(Ring::R4, Ring::R4).bound(tag).build()
    }

    #[test]
    fn hit_after_insert() {
        let mut c = SdwCache::new(4);
        assert!(c.lookup(seg(1)).is_none());
        c.insert(seg(1), sdw(7));
        assert_eq!(c.lookup(seg(1)).unwrap().bound, 7);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = SdwCache::new(2);
        c.insert(seg(1), sdw(1));
        c.insert(seg(2), sdw(2));
        assert_eq!(c.insert(seg(1), sdw(10)), Some(seg(1)));
        assert_eq!(c.lookup(seg(1)).unwrap().bound, 10);
        assert_eq!(c.lookup(seg(2)).unwrap().bound, 2);
    }

    #[test]
    fn round_robin_eviction() {
        let mut c = SdwCache::new(2);
        assert_eq!(c.insert(seg(1), sdw(1)), None);
        assert_eq!(c.insert(seg(2), sdw(2)), None);
        assert_eq!(c.insert(seg(3), sdw(3)), Some(seg(1))); // evicts slot 0
        assert!(c.lookup(seg(1)).is_none());
        assert!(c.lookup(seg(2)).is_some());
        assert!(c.lookup(seg(3)).is_some());
        assert_eq!(c.insert(seg(4), sdw(4)), Some(seg(2))); // evicts slot 1
        assert!(c.lookup(seg(2)).is_none());
        assert!(c.lookup(seg(3)).is_some());
    }

    #[test]
    fn flush_empties_and_counts() {
        let mut c = SdwCache::new(4);
        c.insert(seg(1), sdw(1));
        c.flush();
        assert!(c.lookup(seg(1)).is_none());
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn invalidate_is_selective() {
        let mut c = SdwCache::new(4);
        c.insert(seg(1), sdw(1));
        c.insert(seg(2), sdw(2));
        c.invalidate(seg(1));
        assert!(c.lookup(seg(1)).is_none());
        assert!(c.lookup(seg(2)).is_some());
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = SdwCache::new(0);
        c.insert(seg(1), sdw(1));
        assert!(!c.contains(seg(1)));
        assert!(c.lookup(seg(1)).is_none());
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn hit_ratio() {
        let mut c = SdwCache::new(2);
        assert_eq!(c.stats().hit_ratio(), 0.0);
        c.insert(seg(1), sdw(1));
        c.lookup(seg(1));
        c.lookup(seg(2));
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn contains_does_not_touch_stats() {
        let mut c = SdwCache::new(2);
        c.insert(seg(1), sdw(1));
        assert!(c.contains(seg(1)));
        assert!(!c.contains(seg(2)));
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn peek_reads_residents_without_touching_stats() {
        let mut c = SdwCache::new(2);
        c.insert(seg(1), sdw(7));
        c.lookup(seg(3));
        let before = c.stats();
        assert_eq!(c.peek(seg(1)).map(|s| s.bound), Some(7));
        assert_eq!(c.peek(seg(2)), None);
        assert_eq!(c.stats(), before);
        c.invalidate(seg(1));
        assert_eq!(c.peek(seg(1)), None);
        assert_eq!(SdwCache::new(0).peek(seg(1)), None);
    }

    #[test]
    fn count_hits_adds_to_hits_only() {
        let mut c = SdwCache::new(2);
        c.count_hits(3);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.flushes, s.invalidations), (3, 0, 0, 0));
    }

    #[test]
    fn export_restore_round_trips_replacement_state() {
        let mut c = SdwCache::new(2);
        c.insert(seg(1), sdw(1));
        c.insert(seg(2), sdw(2));
        c.insert(seg(3), sdw(3)); // evicts seg 1, advances the cursor
        c.lookup(seg(3));
        let state = c.export_state();

        let mut fresh = SdwCache::new(2);
        fresh.restore_state(&state);
        assert_eq!(fresh.export_state(), state);
        // The restored cache must hit and evict exactly like the
        // original from here on.
        assert_eq!(fresh.lookup(seg(3)), c.lookup(seg(3)));
        assert_eq!(fresh.insert(seg(4), sdw(4)), c.insert(seg(4), sdw(4)));
        assert_eq!(fresh.export_state(), c.export_state());
    }

    /// A scan over the entries themselves, kept as an executable model:
    /// the keyed cache must be observationally identical (lookups,
    /// contents, replacement order, statistics) over a long
    /// pseudo-random workload, so the key array changes speed only.
    struct ModelCache {
        entries: Vec<Option<(SegNo, Sdw)>>,
        next_victim: usize,
        stats: CacheStats,
    }

    impl ModelCache {
        fn new(capacity: usize) -> ModelCache {
            ModelCache {
                entries: vec![None; capacity],
                next_victim: 0,
                stats: CacheStats::default(),
            }
        }

        fn lookup(&mut self, segno: SegNo) -> Option<Sdw> {
            match self
                .entries
                .iter()
                .flatten()
                .find(|(s, _)| *s == segno)
                .map(|(_, sdw)| *sdw)
            {
                Some(sdw) => {
                    self.stats.hits += 1;
                    Some(sdw)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, segno: SegNo, sdw: Sdw) {
            if self.entries.is_empty() {
                return;
            }
            if let Some(slot) = self
                .entries
                .iter_mut()
                .find(|e| matches!(e, Some((s, _)) if *s == segno))
            {
                *slot = Some((segno, sdw));
                return;
            }
            if let Some(slot) = self.entries.iter_mut().find(|e| e.is_none()) {
                *slot = Some((segno, sdw));
                return;
            }
            let victim = self.next_victim;
            self.entries[victim] = Some((segno, sdw));
            self.next_victim = (victim + 1) % self.entries.len();
        }

        fn flush(&mut self) {
            self.entries.iter_mut().for_each(|e| *e = None);
            self.next_victim = 0;
            self.stats.flushes += 1;
        }

        fn invalidate(&mut self, segno: SegNo) {
            for e in self.entries.iter_mut() {
                if matches!(e, Some((s, _)) if *s == segno) {
                    *e = None;
                }
            }
            self.stats.invalidations += 1;
        }
    }

    #[test]
    fn indexed_cache_matches_linear_scan_model() {
        for capacity in [0usize, 1, 2, 4, 16] {
            let mut real = SdwCache::new(capacity);
            let mut model = ModelCache::new(capacity);
            // Deterministic pseudo-random op stream (SplitMix64).
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ capacity as u64;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for _ in 0..4000 {
                let r = next();
                let s = seg((r >> 8) as u32 % 24);
                match r % 10 {
                    0..=4 => assert_eq!(real.lookup(s), model.lookup(s)),
                    5..=7 => {
                        let w = sdw((r >> 40) as u32 % 64);
                        real.insert(s, w);
                        model.insert(s, w);
                    }
                    8 => {
                        real.invalidate(s);
                        model.invalidate(s);
                    }
                    _ => {
                        real.flush();
                        model.flush();
                    }
                }
            }
            assert_eq!(real.stats(), model.stats, "capacity {capacity}");
            assert_eq!(real.entries, model.entries, "capacity {capacity}");
            assert_eq!(real.next_victim, model.next_victim, "cap {capacity}");
        }
    }
}
