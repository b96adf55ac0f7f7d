//! A work-stealing run queue over a fixed set of job indices.
//!
//! The fleet runner's scheduling problem is deliberately simple: `n`
//! jobs known up front, each independent, with wildly varying runtimes
//! (a machine that pages heavily can run 10× longer than a gate
//! hammerer). A static split would leave workers idle behind the
//! slowest shard, so each worker owns a contiguous `[lo, hi)` range of
//! indices packed into one `AtomicU64`; it pops from the low end of
//! its own range, and when empty it steals the upper half of the
//! fattest remaining victim range with a single compare-and-swap.
//!
//! Stealing ranges (not items) keeps the common case — a worker
//! draining its own run — at one uncontended CAS per job, and the
//! contiguous ranges preserve index locality. Nothing here affects
//! determinism: *which* worker runs a job never influences the job's
//! result. A worker folds the results of the jobs it claims back to
//! back, a contiguous run of indices that a steal ends, and the fleet
//! folds those runs in index order after the workers join.

use std::sync::atomic::{AtomicU64, Ordering};

/// Packs a `[lo, hi)` index range into one atomic word.
#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

/// Unpacks a `[lo, hi)` index range.
#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// A fixed-size work-stealing queue of job indices `0..total`.
pub struct RunQueue {
    ranges: Vec<AtomicU64>,
}

impl RunQueue {
    /// Splits `total` jobs across `workers` contiguous ranges as
    /// evenly as possible (early workers get the remainder).
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero or `total` exceeds `u32::MAX`.
    pub fn new(total: usize, workers: usize) -> RunQueue {
        assert!(workers > 0, "at least one worker");
        assert!(total <= u32::MAX as usize, "job count fits in u32");
        let total = total as u32;
        let workers_u = workers as u32;
        let base = total / workers_u;
        let rem = total % workers_u;
        let mut ranges = Vec::with_capacity(workers);
        let mut lo = 0u32;
        for w in 0..workers_u {
            let len = base + u32::from(w < rem);
            ranges.push(AtomicU64::new(pack(lo, lo + len)));
            lo += len;
        }
        RunQueue { ranges }
    }

    /// Claims the next job index for `worker`: first from its own
    /// range, then by stealing the upper half of the fattest victim.
    /// Returns `None` when every range is empty — the fleet is done.
    pub fn next(&self, worker: usize) -> Option<usize> {
        loop {
            if let Some(i) = self.pop(worker) {
                return Some(i);
            }
            let (victim, remaining) = self.fattest_victim(worker)?;
            // Steal the upper half of the victim's range. On CAS
            // failure somebody raced us; rescan for a victim.
            let cur = self.ranges[victim].load(Ordering::Acquire);
            let (lo, hi) = unpack(cur);
            if hi - lo < remaining {
                continue; // stale scan; retry
            }
            let mid = lo + (hi - lo) / 2;
            if self.ranges[victim]
                .compare_exchange(cur, pack(lo, mid), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Our own range is empty (that is why we are stealing)
                // and empty ranges are never stolen from, so a plain
                // store is race-free.
                self.ranges[worker].store(pack(mid, hi), Ordering::Release);
            }
        }
    }

    /// Pops the lowest index of `worker`'s own range.
    fn pop(&self, worker: usize) -> Option<usize> {
        loop {
            let cur = self.ranges[worker].load(Ordering::Acquire);
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            if self.ranges[worker]
                .compare_exchange(cur, pack(lo + 1, hi), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(lo as usize);
            }
        }
    }

    /// The non-empty victim (id, remaining) with the most jobs left,
    /// excluding `worker`; ranges with fewer than two jobs are left
    /// alone (the owner will finish them faster than a steal settles).
    fn fattest_victim(&self, worker: usize) -> Option<(usize, u32)> {
        let mut best: Option<(usize, u32)> = None;
        for (v, range) in self.ranges.iter().enumerate() {
            if v == worker {
                continue;
            }
            let (lo, hi) = unpack(range.load(Ordering::Acquire));
            let remaining = hi.saturating_sub(lo);
            if remaining >= 2 && best.is_none_or(|(_, r)| remaining > r) {
                best = Some((v, remaining));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn single_worker_drains_in_order() {
        let q = RunQueue::new(5, 1);
        let got: Vec<usize> = std::iter::from_fn(|| q.next(0)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.next(0), None);
    }

    #[test]
    fn uneven_split_covers_everything() {
        let q = RunQueue::new(7, 3);
        let mut got: Vec<usize> = Vec::new();
        for w in 0..3 {
            while let Some(i) = q.next(w) {
                got.push(i);
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let q = RunQueue::new(0, 4);
        for w in 0..4 {
            assert_eq!(q.next(w), None);
        }
    }

    #[test]
    fn concurrent_workers_claim_each_index_exactly_once() {
        const JOBS: usize = 10_000;
        const WORKERS: usize = 8;
        let q = RunQueue::new(JOBS, WORKERS);
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(i) = q.next(w) {
                        mine.push(i);
                        // Uneven artificial work so stealing actually
                        // happens.
                        if i % 97 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    let mut set = seen.lock().unwrap();
                    for i in mine {
                        assert!(set.insert(i), "index {i} claimed twice");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), JOBS, "every index claimed");
    }
}
