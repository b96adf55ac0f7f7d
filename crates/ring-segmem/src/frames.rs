//! Physical-frame budget and CLOCK page replacement.
//!
//! Demand paging needs two pieces the bump allocator cannot provide: a
//! ceiling on how many page frames user segments may occupy, and a
//! policy for choosing which resident page to evict when the ceiling is
//! hit. [`FramePool`] supplies both. Frames come from the ordinary
//! [`PhysAllocator`] the first
//! `budget` times; after that the CLOCK hand sweeps the resident set,
//! clearing PTW `used` bits (set by the hardware's page-table walk on
//! every miss) and evicting the first page found unreferenced since the
//! hand last passed.
//!
//! The pool never touches page *contents* — the kernel moves the
//! victim to the backing store ([`page_out`]) and refills the frame. It
//! does read and rewrite PTWs, and it reports every `used` bit it
//! clears so the kernel can invalidate the matching TLB entries: a
//! cleared reference bit must force the next access back through the
//! full walk, otherwise a fast-path hit would leave the bit stale and
//! replacement would starve the page.

use ring_core::access::Fault;
use ring_core::word::Word;
use ring_core::AbsAddr;

use crate::backing::{BackingStore, PageKey};
use crate::layout::PhysAllocator;
use crate::paging::Ptw;
use crate::phys::PhysMem;

/// Who owns a resident frame: the page of a per-process segment, plus
/// the physical address of the PTW that maps it (so the pool can read
/// the hardware's `used`/`modified` bits and the kernel can mark the
/// page missing on eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameOwner {
    /// Process-table index of the owning process.
    pub pid: usize,
    /// Segment number in that process's descriptor segment.
    pub segno: u32,
    /// Page number within the segment.
    pub page: u32,
    /// Physical address of the PTW mapping this page.
    pub ptw_addr: AbsAddr,
}

/// A page pushed out by the CLOCK hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The page that lost its frame.
    pub owner: FrameOwner,
    /// The PTW `modified` bit at eviction time (informational: the
    /// kernel writes every victim back regardless, because a fast-path
    /// TLB hit can carry a store that never re-walks the PTW).
    pub modified: bool,
}

/// The outcome of [`FramePool::acquire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquire {
    /// The frame now owned by the requested page (contents still the
    /// victim's when `victim` is `Some` — copy out before refilling).
    pub frame: u32,
    /// The page evicted to free `frame`, if the budget was exhausted.
    pub victim: Option<Evicted>,
    /// Segments whose PTW `used` bit the hand cleared while scanning;
    /// the kernel must invalidate their TLB entries.
    pub cleared: Vec<u32>,
}

/// A fixed budget of page frames with CLOCK (second-chance) eviction.
#[derive(Clone, Debug)]
pub struct FramePool {
    budget: usize,
    /// Resident frames in acquisition order; the CLOCK hand walks this.
    slots: Vec<(u32, FrameOwner)>,
    /// Frames returned by [`FramePool::release_pid`], reused first.
    free: Vec<u32>,
    hand: usize,
}

impl FramePool {
    /// A pool allowing at most `budget` resident frames (minimum 1).
    pub fn new(budget: u32) -> FramePool {
        FramePool {
            budget: (budget.max(1)) as usize,
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
        }
    }

    /// The configured frame budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    /// Finds a frame for `owner`'s page: a freed frame if one exists,
    /// a fresh frame from `alloc` while under budget, otherwise the
    /// CLOCK victim's frame. The pool records `owner` as the new
    /// occupant either way.
    ///
    /// Errors are faults, not panics: the pool operates on simulated
    /// hardware state (the frame table lives in simulated memory and
    /// may be damaged by fault injection), so a bad PTW address or an
    /// exhausted allocator surfaces as a physical-bounds fault for the
    /// supervisor to handle.
    pub fn acquire(
        &mut self,
        alloc: &mut PhysAllocator,
        phys: &mut PhysMem,
        owner: FrameOwner,
    ) -> Result<Acquire, Fault> {
        if let Some(frame) = self.free.pop() {
            self.slots.push((frame, owner));
            return Ok(Acquire {
                frame,
                victim: None,
                cleared: Vec::new(),
            });
        }
        if self.slots.len() < self.budget {
            let frame = alloc.alloc_frame()?;
            self.slots.push((frame, owner));
            return Ok(Acquire {
                frame,
                victim: None,
                cleared: Vec::new(),
            });
        }
        // CLOCK: give each used page one second chance, then evict the
        // first unreferenced page the hand reaches. Two sweeps always
        // suffice — the first pass clears every `used` bit it sees.
        let mut cleared = Vec::new();
        for _ in 0..2 * self.slots.len() + 1 {
            let slot = self.hand % self.slots.len();
            let (frame, candidate) = self.slots[slot];
            // A parity-damaged PTW earns no second chance: its bits are
            // garbage, so rewriting them (as the second-chance poke
            // would) persists the damage while hiding it. The page is
            // the immediate victim instead — the caller's sweep-out
            // rewrites the word wholesale, which is the repair.
            let poisoned = phys.is_poisoned(candidate.ptw_addr);
            let ptw = Ptw::unpack(phys.peek(candidate.ptw_addr)?);
            if ptw.used && !poisoned {
                let mut second_chance = ptw;
                second_chance.used = false;
                phys.poke(candidate.ptw_addr, second_chance.pack())?;
                cleared.push(candidate.segno);
                self.hand = (self.hand + 1) % self.slots.len();
                continue;
            }
            self.slots[slot] = (frame, owner);
            self.hand = (slot + 1) % self.slots.len();
            return Ok(Acquire {
                frame,
                victim: Some(Evicted {
                    owner: candidate,
                    // A damaged PTW's modified bit is untrustworthy;
                    // assume the worst so the page is written back.
                    modified: ptw.modified || poisoned,
                }),
                cleared,
            });
        }
        // Two full sweeps without a victim means the frame table itself
        // is damaged (a correct first sweep clears every used bit).
        // Report it against the hand's PTW rather than crashing the
        // simulator.
        let (_, stuck) = self.slots[self.hand % self.slots.len()];
        Err(Fault::PhysicalBounds {
            abs: stuck.ptw_addr.value(),
        })
    }

    /// Removes the resident page mapped by the PTW at `ptw_addr`,
    /// returning its frame to the free list. Used by parity recovery
    /// when the PTW word itself is damaged: the page's mapping is no
    /// longer trustworthy, so the frame is abandoned and the page
    /// re-fetched on the next fault. Returns the freed `(frame, owner)`
    /// if a resident page was mapped there.
    pub fn release_ptw(&mut self, ptw_addr: AbsAddr) -> Option<(u32, FrameOwner)> {
        let slot = self
            .slots
            .iter()
            .position(|&(_, o)| o.ptw_addr == ptw_addr)?;
        let (frame, owner) = self.slots.remove(slot);
        self.free.push(frame);
        if !self.slots.is_empty() {
            self.hand %= self.slots.len();
        } else {
            self.hand = 0;
        }
        Some((frame, owner))
    }

    /// Releases every frame owned by `pid` back to the free list
    /// (process exit or abort). Returns the freed frames.
    pub fn release_pid(&mut self, pid: usize) -> Vec<u32> {
        let mut freed = Vec::new();
        self.slots.retain(|&(frame, owner)| {
            if owner.pid == pid {
                freed.push(frame);
                false
            } else {
                true
            }
        });
        self.free.extend(freed.iter().copied());
        if !self.slots.is_empty() {
            self.hand %= self.slots.len();
        } else {
            self.hand = 0;
        }
        freed
    }

    /// The resident set as `(frame, owner)` pairs, in slot order.
    pub fn resident_set(&self) -> &[(u32, FrameOwner)] {
        &self.slots
    }
}

/// Marks the victim's PTW missing (preserving nothing — the page is
/// gone) and returns the words the frame held, ready for the backing
/// store. Faults (rather than panicking) when the frame or PTW address
/// falls outside physical memory — simulated hardware state the fault
/// injector may have damaged.
pub fn sweep_out(
    phys: &mut PhysMem,
    victim: &Evicted,
    frame: u32,
    page_words: usize,
) -> Result<Vec<Word>, Fault> {
    let base = (frame as usize * page_words) as u32;
    let start = AbsAddr::new(base).ok_or(Fault::PhysicalBounds { abs: base })?;
    let mut words = Vec::with_capacity(page_words);
    phys.peek_into(start, page_words, &mut words)?;
    phys.poke(victim.owner.ptw_addr, Ptw::MISSING.pack())?;
    Ok(words)
}

/// Pages the victim out of `frame` to the drum under `outgoing`, with
/// exactly the effect of [`sweep_out`] followed by
/// [`BackingStore::store`]. When the drum holds page `incoming`, that
/// page is taken and put in the frame in the same move, with exactly
/// the effect of a later [`BackingStore::fetch`] and
/// [`PhysMem::poke_slice`]: the two pages trade places instead of being
/// copied each way. Returns whether `incoming` came in; if not, the
/// frame still holds the victim's words for the caller to refill.
///
/// The trade is skipped where it could differ from the copying
/// sequence: when the two keys are equal, when the frame or the PTW
/// lies outside memory (the sequence fails part-way), or when the PTW
/// lies inside the frame (its order shows). On an error nothing is
/// stored and the drum keeps `incoming`.
pub fn page_out(
    phys: &mut PhysMem,
    victim: &Evicted,
    frame: u32,
    page_words: usize,
    drum: &mut BackingStore,
    outgoing: PageKey,
    incoming: PageKey,
) -> Result<bool, Fault> {
    let base = frame as usize * page_words;
    let ptw = victim.owner.ptw_addr;
    let tradeable = outgoing != incoming
        && base + page_words <= phys.size()
        && (ptw.value() as usize) < phys.size()
        && !(base..base + page_words).contains(&(ptw.value() as usize));
    let (words, came_in) = match tradeable.then(|| drum.fetch(incoming)).flatten() {
        Some(mut page) => {
            phys.swap_slice(AbsAddr::from_bits(base as u64), &mut page)?;
            phys.poke(ptw, Ptw::MISSING.pack())?;
            (page, true)
        }
        None => (sweep_out(phys, victim, frame, page_words)?, false),
    };
    drum.store(outgoing, words);
    Ok(came_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::PAGE_WORDS;

    fn world() -> (PhysAllocator, PhysMem) {
        (PhysAllocator::new(0, 64 * 1024), PhysMem::new(64 * 1024))
    }

    fn owner(pid: usize, segno: u32, page: u32, ptw_at: u32) -> FrameOwner {
        FrameOwner {
            pid,
            segno,
            page,
            ptw_addr: AbsAddr::new(ptw_at).unwrap(),
        }
    }

    /// Installs a present PTW for `owner` at its `ptw_addr`.
    fn map(phys: &mut PhysMem, o: &FrameOwner, frame: u32, used: bool) {
        let mut ptw = Ptw::present(frame).unwrap();
        ptw.used = used;
        phys.poke(o.ptw_addr, ptw.pack()).unwrap();
    }

    #[test]
    fn under_budget_frames_are_fresh() {
        let (mut alloc, mut phys) = world();
        let mut pool = FramePool::new(3);
        for page in 0..3 {
            let o = owner(0, 10, page, 100 + page);
            let got = pool.acquire(&mut alloc, &mut phys, o).unwrap();
            assert!(got.victim.is_none());
            map(&mut phys, &o, got.frame, false);
        }
        assert_eq!(pool.resident(), 3);
    }

    #[test]
    fn clock_gives_used_pages_a_second_chance() {
        let (mut alloc, mut phys) = world();
        let mut pool = FramePool::new(2);
        let a = owner(0, 10, 0, 100);
        let b = owner(0, 10, 1, 101);
        let fa = pool.acquire(&mut alloc, &mut phys, a).unwrap().frame;
        let fb = pool.acquire(&mut alloc, &mut phys, b).unwrap().frame;
        // A referenced since load, B not: the hand skips A, evicts B.
        map(&mut phys, &a, fa, true);
        map(&mut phys, &b, fb, false);
        let c = owner(0, 10, 2, 102);
        let got = pool.acquire(&mut alloc, &mut phys, c).unwrap();
        let victim = got.victim.expect("budget exhausted: someone is evicted");
        assert_eq!(victim.owner, b);
        assert_eq!(got.frame, fb, "victim's frame is recycled");
        assert_eq!(got.cleared, vec![10], "A's used bit was cleared");
        // A's second chance spent: its PTW used bit is now clear.
        assert!(!Ptw::unpack(phys.peek(a.ptw_addr).unwrap()).used);
    }

    #[test]
    fn all_used_degrades_to_fifo_second_pass() {
        let (mut alloc, mut phys) = world();
        let mut pool = FramePool::new(2);
        let a = owner(0, 10, 0, 100);
        let b = owner(0, 10, 1, 101);
        let fa = pool.acquire(&mut alloc, &mut phys, a).unwrap().frame;
        let fb = pool.acquire(&mut alloc, &mut phys, b).unwrap().frame;
        map(&mut phys, &a, fa, true);
        map(&mut phys, &b, fb, true);
        let got = pool
            .acquire(&mut alloc, &mut phys, owner(0, 10, 2, 102))
            .unwrap();
        // Both bits cleared on the first sweep; the oldest page loses.
        assert_eq!(got.victim.unwrap().owner, a);
        assert_eq!(got.cleared, vec![10, 10]);
    }

    #[test]
    fn sweep_out_copies_frame_and_marks_missing() {
        let (mut alloc, mut phys) = world();
        let mut pool = FramePool::new(1);
        let a = owner(0, 10, 0, 100);
        let fa = pool.acquire(&mut alloc, &mut phys, a).unwrap().frame;
        map(&mut phys, &a, fa, false);
        let base = fa * PAGE_WORDS;
        phys.poke(AbsAddr::new(base).unwrap(), Word::new(0o123))
            .unwrap();
        let got = pool
            .acquire(&mut alloc, &mut phys, owner(0, 10, 1, 101))
            .unwrap();
        let victim = got.victim.unwrap();
        let words = sweep_out(&mut phys, &victim, got.frame, PAGE_WORDS as usize).unwrap();
        assert_eq!(words.len(), PAGE_WORDS as usize);
        assert_eq!(words[0], Word::new(0o123));
        let ptw = Ptw::unpack(phys.peek(a.ptw_addr).unwrap());
        assert!(!ptw.present, "victim page is marked missing");
    }

    #[test]
    fn release_pid_recycles_frames() {
        let (mut alloc, mut phys) = world();
        let mut pool = FramePool::new(2);
        let a = owner(7, 10, 0, 100);
        let fa = pool.acquire(&mut alloc, &mut phys, a).unwrap().frame;
        map(&mut phys, &a, fa, false);
        let freed = pool.release_pid(7);
        assert_eq!(freed, vec![fa]);
        assert_eq!(pool.resident(), 0);
        // The freed frame is handed out again before the allocator is
        // consulted.
        let got = pool
            .acquire(&mut alloc, &mut phys, owner(1, 11, 0, 101))
            .unwrap();
        assert_eq!(got.frame, fa);
    }

    #[test]
    fn page_out_trades_pages_exactly_as_sweep_and_refill() {
        let key = |seg, page| PageKey { seg, page };
        for cow in [false, true] {
            let (mut alloc, mut phys) = world();
            if cow {
                phys = PhysMem::cow(phys.freeze_base(), phys.size());
            }
            // Page tables above the frames, so the PTWs lie outside them.
            let mut pool = FramePool::new(1);
            let a = owner(0, 10, 0, 60_000);
            let fa = pool.acquire(&mut alloc, &mut phys, a).unwrap().frame;
            map(&mut phys, &a, fa, false);
            let base = AbsAddr::new(fa * PAGE_WORDS).unwrap();
            phys.poke_slice(base, &[Word::new(0o123); 7]).unwrap();
            let got = pool
                .acquire(&mut alloc, &mut phys, owner(0, 10, 1, 60_001))
                .unwrap();
            let victim = got.victim.unwrap();
            let mut drum = BackingStore::new();
            drum.store(key(10, 1), vec![Word::new(0o456); PAGE_WORDS as usize]);

            for incoming in [key(10, 1), key(10, 0)] {
                // The copying sequence the trade stands in for.
                let (mut want_phys, mut want_drum) = (phys.clone(), drum.clone());
                let words = sweep_out(&mut want_phys, &victim, fa, PAGE_WORDS as usize).unwrap();
                want_drum.store(key(10, 0), words);
                let fetched = want_drum.fetch(incoming);
                if let Some(words) = &fetched {
                    want_phys.poke_slice(base, words).unwrap();
                }

                let (mut got_phys, mut got_drum) = (phys.clone(), drum.clone());
                let came_in = page_out(
                    &mut got_phys,
                    &victim,
                    fa,
                    PAGE_WORDS as usize,
                    &mut got_drum,
                    key(10, 0),
                    incoming,
                )
                .unwrap();
                // An equal key is left to the caller's later fetch.
                assert_eq!(came_in, incoming != key(10, 0), "cow {cow}");
                if !came_in {
                    let words = got_drum.fetch(incoming).unwrap();
                    got_phys.poke_slice(base, &words).unwrap();
                }
                let mut want_words = Vec::new();
                let mut got_words = Vec::new();
                want_phys
                    .peek_into(AbsAddr::new(0).unwrap(), want_phys.size(), &mut want_words)
                    .unwrap();
                got_phys
                    .peek_into(AbsAddr::new(0).unwrap(), got_phys.size(), &mut got_words)
                    .unwrap();
                assert!(got_words == want_words, "cow {cow}: contents");
                assert_eq!(got_phys.dirty_pages(), want_phys.dirty_pages());
                assert_eq!(got_phys.high_water(), want_phys.high_water());
                assert_eq!(got_phys.ref_count(), want_phys.ref_count());
                for k in [key(10, 0), key(10, 1)] {
                    assert_eq!(got_drum.peek(k), want_drum.peek(k), "cow {cow}: drum {k:?}");
                }
                assert_eq!(
                    (got_drum.reads(), got_drum.writes()),
                    (want_drum.reads(), want_drum.writes())
                );
            }
        }
    }
}
