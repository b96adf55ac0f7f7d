//! Physical (absolute-addressed) memory.
//!
//! Up to 2^24 36-bit words addressed by 24-bit absolute address. All
//! descriptor segments, page tables, and segment bodies live here; the
//! processor reaches it only through address translation
//! ([`crate::translate`]).
//!
//! Host storage is committed on first write, the way the paper's
//! demand paging commits core to a page only when it is first
//! referenced: every word reads as zero until something stores to it.
//! Memory comes in two backings. [`PhysMem::new`] builds a flat array
//! that holds only its stored prefix — the words from address 0 up to
//! the highest address ever stored, grown on demand — and reads the
//! rest of its declared size as zero. [`PhysMem::cow`] builds a
//! copy-on-write view over a shared read-only base image
//! ([`Arc`]`<Vec<Word>>`): reads fall through to the base, and the
//! first write to any [`COW_PAGE_WORDS`] aligned page materializes a
//! private copy of that page. A fleet of machines booted from one
//! frozen image therefore shares almost all of its storage — each
//! machine pays only for the pages it actually changes.
//!
//! Private pages are recycled per thread. A dropped copy-on-write view
//! hands its pages to a stock the thread keeps (at most 64 pages,
//! 512 KB), and materializing a page — from the base, by a clone, or by
//! a poke that covers the whole window — takes one from the stock
//! before it allocates, then overwrites every word of it. A thread that
//! runs machine after machine over one image thus reuses the same few
//! dozen buffers instead of handing each member's pages back to the
//! allocator, which may return them to the operating system only for
//! the next member to fault them in again.
//!
//! Page- and segment-sized transfers go through [`PhysMem::poke_slice`],
//! [`PhysMem::peek_into`], [`PhysMem::read_slice`],
//! [`PhysMem::write_slice`] and [`PhysMem::swap_slice`]. They have
//! exactly the effect of poking, peeking, reading or writing word by
//! word, but copy a window at a time — or, for a whole private
//! copy-on-write window, move it.

use std::collections::BTreeSet;
use std::sync::Arc;

use ring_core::access::Fault;
use ring_core::addr::AbsAddr;
use ring_core::word::Word;

use crate::slot_table::Stock;

/// Granularity of the copy-on-write overlay, in words. Chosen to match
/// the hardware page size so a dirtied page of simulated core maps to
/// exactly one privately materialized host allocation.
pub const COW_PAGE_WORDS: usize = 1024;

/// Dropped copy-on-write pages a thread keeps for reuse: 64 pages of
/// 8 KB, 512 KB a thread.
const PAGE_STOCK_DEPTH: usize = 64;

thread_local!(static PAGE_STOCK: Stock<Box<[Word]>> = const { Stock::new() });

/// Storage behind a [`PhysMem`]: either a private flat array or a
/// copy-on-write overlay above a shared read-only base image.
#[derive(Clone)]
enum Backing {
    /// Every word privately owned, but only the stored prefix is held:
    /// the words from address 0 up to the highest address stored,
    /// extended by the first store past its end ([`grow`]). The rest of
    /// the memory reads as zero, and a clone copies just the prefix.
    Flat(Vec<Word>),
    /// Shared base image plus private dirty pages.
    Cow {
        /// The frozen boot image, shared by reference count across
        /// every machine cloned from it. Never written. It may be
        /// shorter than the memory; words past it read as zero until
        /// written.
        base: Arc<Vec<Word>>,
        /// Private overlay, one optional page per [`COW_PAGE_WORDS`]
        /// window. `None` means the window still reads from `base`.
        pages: Pages,
        /// Number of materialized (dirtied) pages.
        dirty: u32,
    },
}

/// The private pages of a copy-on-write view. A clone takes its pages
/// from this thread's stock, and dropped pages go back to it.
struct Pages(Vec<Option<Box<[Word]>>>);

impl Clone for Pages {
    fn clone(&self) -> Pages {
        let copy = |page: &[Word]| {
            let mut copy = spare_page();
            copy.copy_from_slice(page);
            copy
        };
        Pages(
            self.0
                .iter()
                .map(|page| page.as_deref().map(copy))
                .collect(),
        )
    }
}

impl core::ops::Deref for Pages {
    type Target = Vec<Option<Box<[Word]>>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl core::ops::DerefMut for Pages {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        for page in self.0.iter_mut().filter_map(Option::take) {
            Stock::give(&PAGE_STOCK, page, PAGE_STOCK_DEPTH);
        }
    }
}

/// Physical memory: up to 2^24 36-bit words.
///
/// Reads and writes are bounds-checked against the configured size and
/// counted, so callers can convert physical traffic into simulated
/// cycles.
///
/// Each word carries a simulated parity bit: the chaos harness damages
/// a word with [`PhysMem::corrupt`], after which any *counted* read
/// raises [`Fault::ParityError`] — exactly how core parity surfaces on
/// real hardware. A write (counted or not) rewrites the parity and
/// clears the poison. Uncounted [`PhysMem::peek`]s stay poison-blind:
/// they model maintenance-panel access, and the fast path (which probes
/// with peeks) performs its own poison checks so that it bails to the
/// slow path and the fault is raised identically either way.
#[derive(Clone)]
pub struct PhysMem {
    backing: Backing,
    /// Declared size in words: every address below it reads, as zero
    /// where nothing is stored.
    size: usize,
    reads: u64,
    writes: u64,
    /// Absolute addresses whose parity is bad (sorted for canonical
    /// serialization).
    poisoned: BTreeSet<u32>,
    /// Poisoned words healed by an ordinary counted write before any
    /// read saw them (latent faults that expired harmlessly).
    repaired: u64,
    /// One past the highest address ever written (counted or poked);
    /// the chaos harness draws its targets below this mark so they
    /// land in storage that is actually in use.
    high_water: u32,
}

impl PhysMem {
    /// Maximum addressable size in words (24-bit absolute addresses).
    pub const MAX_WORDS: usize = 1 << 24;

    /// Creates a zeroed memory of `words` words. Nothing is allocated
    /// until the first store: the flat array grows to cover the highest
    /// address stored, and every word past it reads as zero.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds [`PhysMem::MAX_WORDS`].
    pub fn new(words: usize) -> PhysMem {
        assert!(words <= Self::MAX_WORDS, "physical memory too large");
        PhysMem {
            backing: Backing::Flat(Vec::new()),
            size: words,
            reads: 0,
            writes: 0,
            poisoned: BTreeSet::new(),
            repaired: 0,
            high_water: 0,
        }
    }

    /// Creates a copy-on-write memory of `words` words above the shared
    /// read-only `base` image. Words beyond `base.len()` read as zero
    /// until written. No page storage is allocated up front; each
    /// [`COW_PAGE_WORDS`] window is copied privately on first write.
    ///
    /// The fresh view starts with zeroed traffic counters, no poison,
    /// and a zero high-water mark, exactly like [`PhysMem::new`] — a
    /// machine booted over the image replays its world-building pokes
    /// and rebuilds those marks deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds [`PhysMem::MAX_WORDS`] or the base
    /// image is larger than `words`.
    pub fn cow(base: Arc<Vec<Word>>, words: usize) -> PhysMem {
        assert!(words <= Self::MAX_WORDS, "physical memory too large");
        assert!(base.len() <= words, "base image larger than memory");
        let windows = words.div_ceil(COW_PAGE_WORDS);
        PhysMem {
            backing: Backing::Cow {
                base,
                pages: Pages(vec![None; windows]),
                dirty: 0,
            },
            size: words,
            reads: 0,
            writes: 0,
            poisoned: BTreeSet::new(),
            repaired: 0,
            high_water: 0,
        }
    }

    /// Reads slot `i`, overlay first (no counting, no parity check).
    #[inline]
    fn get(&self, i: usize) -> Option<Word> {
        match &self.backing {
            Backing::Flat(words) => match words.get(i) {
                Some(word) => Some(*word),
                None => (i < self.size).then_some(Word::ZERO),
            },
            Backing::Cow { base, pages, .. } => {
                if i >= self.size {
                    return None;
                }
                match &pages[i / COW_PAGE_WORDS] {
                    Some(page) => Some(page[i % COW_PAGE_WORDS]),
                    None => Some(base.get(i).copied().unwrap_or(Word::ZERO)),
                }
            }
        }
    }

    /// Mutable access to slot `i`, extending a flat array's stored
    /// prefix over it, or materializing the private copy of its page
    /// when the backing is copy-on-write.
    #[inline]
    fn slot_mut(&mut self, i: usize) -> Option<&mut Word> {
        let size = self.size;
        match &mut self.backing {
            Backing::Flat(words) => {
                if i >= words.len() && i < size {
                    grow(words, i + 1, size);
                }
                words.get_mut(i)
            }
            Backing::Cow { base, pages, dirty } => {
                if i >= size {
                    return None;
                }
                let window = i / COW_PAGE_WORDS;
                let page = pages[window].get_or_insert_with(|| {
                    *dirty += 1;
                    base_page(base, window)
                });
                Some(&mut page[i % COW_PAGE_WORDS])
            }
        }
    }

    /// Size in words.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of privately materialized (dirtied) copy-on-write pages.
    /// Zero for flat memory.
    pub fn dirty_pages(&self) -> u32 {
        match &self.backing {
            Backing::Flat(_) => 0,
            Backing::Cow { dirty, .. } => *dirty,
        }
    }

    /// Words of host storage this memory holds privately: a flat
    /// array's stored prefix, or a copy-on-write view's materialized
    /// pages (the shared base image is not counted). Uncounted; it
    /// changes nothing the simulated machine can observe.
    pub fn stored_words(&self) -> usize {
        match &self.backing {
            Backing::Flat(words) => words.len(),
            Backing::Cow { dirty, .. } => *dirty as usize * COW_PAGE_WORDS,
        }
    }

    /// True when this memory is a copy-on-write view over a shared
    /// base image.
    pub fn is_cow(&self) -> bool {
        matches!(self.backing, Backing::Cow { .. })
    }

    /// The stored contents as `(first address, words)` runs in address
    /// order: the stored prefix for flat memory, one run per window for
    /// copy-on-write memory. A run may stop short of its window or of
    /// the memory (a clean window past the end of the base image, the
    /// end of a flat prefix); the words it omits read as zero.
    fn runs(&self) -> impl Iterator<Item = (usize, &[Word])> + '_ {
        let size = self.size;
        let (flat, cow) = match &self.backing {
            Backing::Flat(words) => (Some((0, words.as_slice())), None),
            Backing::Cow { base, pages, .. } => {
                let windows = (0..pages.len())
                    .map(move |w| (w * COW_PAGE_WORDS, cow_run(base, size, pages, w)));
                (None, Some(windows))
            }
        };
        flat.into_iter().chain(cow.into_iter().flatten())
    }

    /// Captures the current contents as a shared read-only image
    /// suitable for [`PhysMem::cow`]. Uncounted. The image ends with
    /// the last stored run (a flat array's stored prefix); the words
    /// past it read as zero, so a view over it with this memory's size
    /// reads exactly what this memory does.
    pub fn freeze_base(&self) -> Arc<Vec<Word>> {
        let stored = || self.runs().filter(|(_, run)| !run.is_empty());
        let end = stored().last().map_or(0, |(lo, run)| lo + run.len());
        let mut image = vec![Word::ZERO; end];
        for (lo, run) in stored() {
            image[lo..lo + run.len()].copy_from_slice(run);
        }
        Arc::new(image)
    }

    /// Like [`PhysMem::freeze_base`], but consumes the memory: a flat
    /// array's stored prefix becomes the image without a copy.
    pub fn into_base(self) -> Arc<Vec<Word>> {
        match self.backing {
            Backing::Flat(words) => Arc::new(words),
            Backing::Cow { .. } => self.freeze_base(),
        }
    }

    /// Reads the word at `addr`. A counted read is parity-checked: a
    /// damaged word raises [`Fault::ParityError`].
    pub fn read(&mut self, addr: AbsAddr) -> Result<Word, Fault> {
        self.reads += 1;
        let word = self
            .get(addr.value() as usize)
            .ok_or(Fault::PhysicalBounds { abs: addr.value() })?;
        if !self.poisoned.is_empty() && self.poisoned.contains(&addr.value()) {
            return Err(Fault::ParityError { abs: addr.value() });
        }
        Ok(word)
    }

    /// Writes the word at `addr`, rewriting its parity (a damaged word
    /// becomes clean again).
    #[inline]
    pub fn write(&mut self, addr: AbsAddr, value: Word) -> Result<(), Fault> {
        self.writes += 1;
        match self.slot_mut(addr.value() as usize) {
            Some(slot) => {
                *slot = value;
                self.high_water = self.high_water.max(addr.value() + 1);
                if !self.poisoned.is_empty() && self.poisoned.remove(&addr.value()) {
                    self.repaired += 1;
                }
                Ok(())
            }
            None => Err(Fault::PhysicalBounds { abs: addr.value() }),
        }
    }

    /// Reads without disturbing the traffic counters (for debuggers,
    /// trace printers and tests that must not perturb cycle counts).
    #[inline]
    pub fn peek(&self, addr: AbsAddr) -> Result<Word, Fault> {
        self.get(addr.value() as usize)
            .ok_or(Fault::PhysicalBounds { abs: addr.value() })
    }

    /// Writes without disturbing the traffic counters (world-building
    /// and supervisor repair). Clears any poison on the word without
    /// counting it as a latent repair — a deliberate poke is either
    /// world-building or recovery, not a program racing a fault.
    ///
    /// A poke whose value already matches the stored word (and whose
    /// parity is clean) is a no-op apart from the high-water mark, so
    /// it never dirties a copy-on-write page. Replaying the boot-time
    /// world-building sequence over a frozen image of its own result
    /// therefore leaves the overlay empty.
    pub fn poke(&mut self, addr: AbsAddr, value: Word) -> Result<(), Fault> {
        let i = addr.value() as usize;
        match self.get(i) {
            Some(current) => {
                self.high_water = self.high_water.max(addr.value() + 1);
                let poisoned = !self.poisoned.is_empty() && self.poisoned.contains(&addr.value());
                if current == value && !poisoned {
                    return Ok(());
                }
                if poisoned {
                    self.poisoned.remove(&addr.value());
                }
                *self.slot_mut(i).expect("slot bounds-checked by get") = value;
                Ok(())
            }
            None => Err(Fault::PhysicalBounds { abs: addr.value() }),
        }
    }

    /// Pokes `words` into consecutive addresses from `start` on, with
    /// exactly the effect of poking them one at a time: the high-water
    /// mark rises, poison over the range is cleared, and the
    /// equality-skip rule holds per copy-on-write window — a window is
    /// materialized only if some word of it changes or was poisoned. A
    /// window the slice covers whole is built straight from the slice.
    ///
    /// When the range runs past the end of memory the in-range prefix
    /// is written and the result is [`Fault::PhysicalBounds`] at the
    /// first address past it.
    pub fn poke_slice(&mut self, start: AbsAddr, words: &[Word]) -> Result<(), Fault> {
        let lo = start.value() as usize;
        let hi = lo.saturating_add(words.len()).min(self.size()).max(lo);
        let (fits, tail) = words.split_at(hi - lo);
        if !fits.is_empty() {
            self.high_water = self.high_water.max(hi as u32);
            let poisoned = &mut self.poisoned;
            match &mut self.backing {
                Backing::Flat(mem) => {
                    let stop = flat_extent(mem.len(), lo, fits);
                    if stop > lo {
                        grow(mem, stop, self.size);
                        mem[lo..stop].copy_from_slice(&fits[..stop - lo]);
                    }
                }
                Backing::Cow {
                    base, pages, dirty, ..
                } => {
                    let mut at = lo;
                    while at < hi {
                        let window = at / COW_PAGE_WORDS;
                        let off = at % COW_PAGE_WORDS;
                        let stop = hi.min(at - off + COW_PAGE_WORDS);
                        let chunk = &fits[at - lo..stop - lo];
                        match &mut pages[window] {
                            Some(page) => page[off..off + chunk.len()].copy_from_slice(chunk),
                            slot @ None => {
                                let clean = base_matches(base, at, chunk)
                                    && poisoned.range(at as u32..stop as u32).next().is_none();
                                if !clean {
                                    let page = if chunk.len() == COW_PAGE_WORDS {
                                        let mut page = spare_page();
                                        page.copy_from_slice(chunk);
                                        page
                                    } else {
                                        let mut page = base_page(base, window);
                                        page[off..off + chunk.len()].copy_from_slice(chunk);
                                        page
                                    };
                                    *slot = Some(page);
                                    *dirty += 1;
                                }
                            }
                        }
                        at = stop;
                    }
                }
            }
            let written = lo as u32..hi as u32;
            poisoned.retain(|abs| !written.contains(abs));
        }
        if tail.is_empty() {
            Ok(())
        } else {
            Err(Fault::PhysicalBounds { abs: hi as u32 })
        }
    }

    /// Appends the `n` words from `start` on to `out`, exactly as `n`
    /// [`PhysMem::peek`]s would read them: uncounted and poison-blind.
    ///
    /// When the range runs past the end of memory the in-range prefix
    /// is appended and the result is [`Fault::PhysicalBounds`] at the
    /// first address past it.
    pub fn peek_into(&self, start: AbsAddr, n: usize, out: &mut Vec<Word>) -> Result<(), Fault> {
        let lo = start.value() as usize;
        let hi = lo.saturating_add(n).min(self.size()).max(lo);
        let at = out.len();
        out.resize(at + (hi - lo), Word::ZERO);
        self.copy_out(lo, &mut out[at..]);
        if hi - lo == n {
            Ok(())
        } else {
            Err(Fault::PhysicalBounds { abs: hi as u32 })
        }
    }

    /// Copies the stored words from `lo` on into `out`, which must fit
    /// below the end of memory. Uncounted and poison-blind.
    fn copy_out(&self, lo: usize, out: &mut [Word]) {
        if out.is_empty() {
            return;
        }
        match &self.backing {
            Backing::Flat(words) => {
                let stored = words.get(lo..).unwrap_or(&[]);
                let n = stored.len().min(out.len());
                out[..n].copy_from_slice(&stored[..n]);
                out[n..].fill(Word::ZERO);
            }
            Backing::Cow { base, pages, .. } => {
                let mut done = 0;
                while done < out.len() {
                    let at = lo + done;
                    let off = at % COW_PAGE_WORDS;
                    let take = (out.len() - done).min(COW_PAGE_WORDS - off);
                    let run = cow_run(base, self.size, pages, at / COW_PAGE_WORDS);
                    let stored = run.get(off..run.len().min(off + take)).unwrap_or(&[]);
                    out[done..done + stored.len()].copy_from_slice(stored);
                    out[done + stored.len()..done + take].fill(Word::ZERO);
                    done += take;
                }
            }
        }
    }

    /// Reads `out.len()` words from `start` on, with exactly the effect
    /// of that many [`PhysMem::read`]s in address order that stop at the
    /// first error: every attempted word counts one read, the failing
    /// one included. The first address past the end of memory fails
    /// with [`Fault::PhysicalBounds`], the first poisoned word with
    /// [`Fault::ParityError`]. On an error the words of `out` from the
    /// failing one on are left as they were.
    pub fn read_slice(&mut self, start: AbsAddr, out: &mut [Word]) -> Result<(), Fault> {
        let lo = start.value() as usize;
        let hi = lo.saturating_add(out.len()).min(self.size()).max(lo);
        let mut failure =
            (hi - lo < out.len()).then_some((hi, Fault::PhysicalBounds { abs: hi as u32 }));
        let first_poisoned = if self.poisoned.is_empty() {
            None
        } else {
            self.poisoned.range(lo as u32..hi as u32).next()
        };
        if let Some(&abs) = first_poisoned {
            failure = Some((abs as usize, Fault::ParityError { abs }));
        }
        let good = failure.map_or(hi, |(at, _)| at) - lo;
        self.reads += good as u64 + u64::from(failure.is_some());
        self.copy_out(lo, &mut out[..good]);
        failure.map_or(Ok(()), |(_, fault)| Err(fault))
    }

    /// Writes `words` to consecutive addresses from `start` on, with
    /// exactly the effect of that many [`PhysMem::write`]s in address
    /// order that stop at the first error: every attempted word counts
    /// one write, the high-water mark rises, every copy-on-write window
    /// written is materialized (even where the value is unchanged), and
    /// each poisoned word overwritten counts as repaired.
    ///
    /// When the range runs past the end of memory the in-range prefix
    /// is written and the result is [`Fault::PhysicalBounds`] at the
    /// first address past it.
    pub fn write_slice(&mut self, start: AbsAddr, words: &[Word]) -> Result<(), Fault> {
        let lo = start.value() as usize;
        let hi = lo.saturating_add(words.len()).min(self.size()).max(lo);
        let (fits, tail) = words.split_at(hi - lo);
        self.writes += fits.len() as u64 + u64::from(!tail.is_empty());
        if !fits.is_empty() {
            self.high_water = self.high_water.max(hi as u32);
            match &mut self.backing {
                Backing::Flat(mem) => {
                    grow(mem, hi, self.size);
                    mem[lo..hi].copy_from_slice(fits);
                }
                Backing::Cow {
                    base, pages, dirty, ..
                } => {
                    let mut at = lo;
                    while at < hi {
                        let window = at / COW_PAGE_WORDS;
                        let off = at % COW_PAGE_WORDS;
                        let stop = hi.min(at - off + COW_PAGE_WORDS);
                        let page = pages[window].get_or_insert_with(|| {
                            *dirty += 1;
                            base_page(base, window)
                        });
                        page[off..off + (stop - at)].copy_from_slice(&fits[at - lo..stop - lo]);
                        at = stop;
                    }
                }
            }
            if !self.poisoned.is_empty() {
                let before = self.poisoned.len();
                let written = lo as u32..hi as u32;
                self.poisoned.retain(|abs| !written.contains(abs));
                self.repaired += (before - self.poisoned.len()) as u64;
            }
        }
        if tail.is_empty() {
            Ok(())
        } else {
            Err(Fault::PhysicalBounds { abs: hi as u32 })
        }
    }

    /// Exchanges `words` with the `words.len()` words stored from
    /// `start` on. Memory ends up exactly as [`PhysMem::poke_slice`] of
    /// the incoming words would leave it, and `words` holds what
    /// [`PhysMem::peek_into`] would have read before. A whole, aligned
    /// copy-on-write window that is already private is moved, not
    /// copied: the buffer and the window's page trade places.
    ///
    /// A range that runs past the end of memory changes nothing and
    /// fails with [`Fault::PhysicalBounds`] at the first address past
    /// it.
    pub fn swap_slice(&mut self, start: AbsAddr, words: &mut Vec<Word>) -> Result<(), Fault> {
        let lo = start.value() as usize;
        let hi = lo.saturating_add(words.len());
        if hi > self.size() {
            return Err(Fault::PhysicalBounds {
                abs: lo.max(self.size()) as u32,
            });
        }
        if words.is_empty() {
            return Ok(());
        }
        self.high_water = self.high_water.max(hi as u32);
        let poisoned = &mut self.poisoned;
        match &mut self.backing {
            // Past the stored prefix the incoming words are zero (what
            // the prefix must hold ends at `stop`) and so is what they
            // replace: the buffer already holds what a peek would read.
            Backing::Flat(mem) => {
                let stop = flat_extent(mem.len(), lo, words);
                if stop > lo {
                    grow(mem, stop, self.size);
                    mem[lo..stop].swap_with_slice(&mut words[..stop - lo]);
                }
            }
            Backing::Cow {
                base, pages, dirty, ..
            } => {
                let mut at = lo;
                while at < hi {
                    let window = at / COW_PAGE_WORDS;
                    let off = at % COW_PAGE_WORDS;
                    let stop = hi.min(at - off + COW_PAGE_WORDS);
                    let whole = stop - at == words.len();
                    let chunk = &mut words[at - lo..stop - lo];
                    match &mut pages[window] {
                        // The buffer is exactly this private window:
                        // trade the allocations.
                        Some(page) if whole && chunk.len() == COW_PAGE_WORDS => {
                            let incoming = std::mem::take(words).into_boxed_slice();
                            *words = std::mem::replace(page, incoming).into_vec();
                        }
                        Some(page) => page[off..off + chunk.len()].swap_with_slice(chunk),
                        slot @ None => {
                            // A clean window keeping its base contents
                            // already equals the buffer: nothing moves.
                            let clean = base_matches(base, at, chunk)
                                && poisoned.range(at as u32..stop as u32).next().is_none();
                            if !clean {
                                let mut page = base_page(base, window);
                                page[off..off + chunk.len()].swap_with_slice(chunk);
                                *slot = Some(page);
                                *dirty += 1;
                            }
                        }
                    }
                    at = stop;
                }
            }
        }
        let written = lo as u32..hi as u32;
        poisoned.retain(|abs| !written.contains(abs));
        Ok(())
    }

    /// Adds `n` to the read counter without touching memory. The
    /// fast-path engine probes with uncounted [`PhysMem::peek`]s so an
    /// abandoned attempt leaves no trace, then charges the reads the
    /// slow path would have counted in one step when it commits.
    #[inline]
    pub fn charge_reads(&mut self, n: u64) {
        self.reads += n;
    }

    /// Total counted reads since construction.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// The nonzero words with their absolute addresses, for sparse
    /// machine-image capture (uncounted).
    pub fn nonzero_words(&self) -> Vec<(u32, Word)> {
        let mut out = Vec::new();
        for (lo, run) in self.runs() {
            out.extend(
                run.iter()
                    .enumerate()
                    .filter(|(_, w)| w.raw() != 0)
                    .map(|(k, w)| ((lo + k) as u32, *w)),
            );
        }
        out
    }

    /// Zeroes every word without touching the traffic counters (image
    /// restore repopulates from a sparse capture afterwards) by dropping
    /// the stored words: the memory becomes an empty flat array of the
    /// same size. A copy-on-write view detaches from its base image —
    /// restore rebuilds arbitrary contents, so sharing is over.
    pub fn zero_all(&mut self) {
        self.backing = Backing::Flat(Vec::new());
    }

    /// Overwrites the traffic counters (image restore; the counters
    /// feed cycle accounting, so replay must resume them exactly).
    pub fn restore_counters(&mut self, reads: u64, writes: u64) {
        self.reads = reads;
        self.writes = writes;
    }

    /// Total counted writes since construction.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Damages the word at `abs`: XORs `mask` into its contents and
    /// marks its parity bad, so the next counted read faults. Returns
    /// `false` (and does nothing) when `abs` is out of range or the
    /// mask is zero.
    pub fn corrupt(&mut self, abs: u32, mask: u64) -> bool {
        if mask == 0 {
            return false;
        }
        match self.slot_mut(abs as usize) {
            Some(slot) => {
                *slot = Word::new(slot.raw() ^ mask);
                self.poisoned.insert(abs);
                true
            }
            None => false,
        }
    }

    /// True if the word at `abs` currently has bad parity. The fast
    /// path consults this on every probe peek so a poisoned word bails
    /// to the slow path, which raises the fault.
    #[inline]
    pub fn is_poisoned(&self, abs: AbsAddr) -> bool {
        !self.poisoned.is_empty() && self.poisoned.contains(&abs.value())
    }

    /// Clears the poison on `abs` without touching its contents
    /// (supervisor recovery that abandons the word, e.g. when the
    /// owning process is killed). Returns whether it was poisoned.
    pub fn clear_poison(&mut self, abs: u32) -> bool {
        self.poisoned.remove(&abs)
    }

    /// Number of currently poisoned words (latent parity faults).
    pub fn poison_count(&self) -> u64 {
        self.poisoned.len() as u64
    }

    /// Latent parity words healed by ordinary writes.
    pub fn repaired_count(&self) -> u64 {
        self.repaired
    }

    /// One past the highest address ever written.
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// The poisoned-address set, sorted (for machine-image capture).
    pub fn poison_export(&self) -> Vec<u32> {
        self.poisoned.iter().copied().collect()
    }

    /// Restores chaos-visible state from a machine image: the poison
    /// set, the repair counter, and the high-water mark (which image
    /// repopulation alone cannot reproduce when the highest word ever
    /// written has since become zero).
    pub fn restore_chaos_state(&mut self, poisoned: &[u32], repaired: u64, high_water: u32) {
        self.poisoned = poisoned.iter().copied().collect();
        self.repaired = repaired;
        self.high_water = high_water;
    }

    /// Total counted references (reads + writes).
    #[inline]
    pub fn ref_count(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Extends a flat array's stored prefix with zeros to `hi` words. When
/// that outgrows its allocation, the new one is at least twice as large
/// and at least one [`COW_PAGE_WORDS`] window (never past `size`), so a
/// run of stores past the end costs amortised constant time.
fn grow(words: &mut Vec<Word>, hi: usize, size: usize) {
    if hi > words.capacity() {
        let cap = hi.max(2 * words.capacity()).max(COW_PAGE_WORDS).min(size);
        words.reserve_exact(cap - words.len());
    }
    if hi > words.len() {
        words.resize(hi, Word::ZERO);
    }
}

/// The end of the range `lo..lo + words.len()` that a flat array whose
/// stored prefix is `stored` words long must hold after poking `words`
/// there: the whole range inside the prefix, and past it up to the last
/// nonzero word. The zeros beyond need no storage — they already read
/// as zero. Below `lo` when nothing in the range needs storing.
fn flat_extent(stored: usize, lo: usize, words: &[Word]) -> usize {
    let hi = lo + words.len();
    if hi <= stored {
        return hi;
    }
    let past = stored.saturating_sub(lo);
    match words[past..].iter().rposition(|w| *w != Word::ZERO) {
        Some(k) => lo + past + k + 1,
        None => stored,
    }
}

/// A page buffer for its taker to overwrite whole: one a dropped view
/// left in this thread's stock, holding that view's words, or else a
/// new one.
fn spare_page() -> Box<[Word]> {
    Stock::take(&PAGE_STOCK).unwrap_or_else(|| vec![Word::ZERO; COW_PAGE_WORDS].into_boxed_slice())
}

/// A private copy of window `window` of the base image (zeros past its
/// end), ready to be written.
fn base_page(base: &[Word], window: usize) -> Box<[Word]> {
    let mut page = spare_page();
    let stored = base.get(window * COW_PAGE_WORDS..).unwrap_or(&[]);
    let n = stored.len().min(COW_PAGE_WORDS);
    page[..n].copy_from_slice(&stored[..n]);
    page[n..].fill(Word::ZERO);
    page
}

/// True when `words` equals what the base image holds from address `at`
/// on (zeros past its end).
fn base_matches(base: &[Word], at: usize, words: &[Word]) -> bool {
    let stored = base.get(at..).unwrap_or(&[]);
    let n = stored.len().min(words.len());
    words[..n] == stored[..n] && words[n..].iter().all(|w| *w == Word::ZERO)
}

/// The stored words of copy-on-write window `window`: its private page
/// if materialized, else the base image's words in it (none past the
/// end of the base). Clipped to the memory size.
fn cow_run<'a>(
    base: &'a [Word],
    size: usize,
    pages: &'a [Option<Box<[Word]>>],
    window: usize,
) -> &'a [Word] {
    let lo = window * COW_PAGE_WORDS;
    let hi = (lo + COW_PAGE_WORDS).min(size);
    match &pages[window] {
        Some(page) => &page[..hi - lo],
        None => base.get(lo..hi.min(base.len())).unwrap_or(&[]),
    }
}

impl core::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PhysMem")
            .field("size", &self.size())
            .field("cow", &self.is_cow())
            .field("dirty_pages", &self.dirty_pages())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = PhysMem::new(64);
        let a = AbsAddr::new(10).unwrap();
        m.write(a, Word::new(0o123)).unwrap();
        assert_eq!(m.read(a).unwrap(), Word::new(0o123));
    }

    #[test]
    fn out_of_range_reference_faults() {
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(16).unwrap();
        assert!(matches!(m.read(a), Err(Fault::PhysicalBounds { abs: 16 })));
        assert!(matches!(
            m.write(a, Word::ZERO),
            Err(Fault::PhysicalBounds { .. })
        ));
    }

    #[test]
    fn traffic_counters() {
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(0).unwrap();
        m.read(a).unwrap();
        m.read(a).unwrap();
        m.write(a, Word::ZERO).unwrap();
        assert_eq!(m.read_count(), 2);
        assert_eq!(m.write_count(), 1);
        assert_eq!(m.ref_count(), 3);
    }

    #[test]
    fn peek_poke_do_not_count() {
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(1).unwrap();
        m.poke(a, Word::new(7)).unwrap();
        assert_eq!(m.peek(a).unwrap(), Word::new(7));
        assert_eq!(m.ref_count(), 0);
    }

    #[test]
    fn memory_starts_zeroed() {
        let m = PhysMem::new(8);
        for i in 0..8 {
            assert_eq!(m.peek(AbsAddr::new(i).unwrap()).unwrap(), Word::ZERO);
        }
    }

    #[test]
    fn fresh_memory_stores_nothing() {
        let m = PhysMem::new(PhysMem::MAX_WORDS);
        assert_eq!(m.size(), PhysMem::MAX_WORDS);
        assert_eq!(m.stored_words(), 0);
        let top = AbsAddr::new(PhysMem::MAX_WORDS as u32 - 1).unwrap();
        assert_eq!(m.peek(top).unwrap(), Word::ZERO);
        assert!(m.freeze_base().is_empty());
    }

    #[test]
    fn peeks_and_zero_pokes_near_the_top_store_nothing() {
        let mut m = PhysMem::new(PhysMem::MAX_WORDS);
        let top = PhysMem::MAX_WORDS as u32 - 1;
        let at = |a: u32| AbsAddr::new(a).unwrap();
        assert_eq!(m.peek(at(top)).unwrap(), Word::ZERO);
        m.poke(at(top), Word::ZERO).unwrap();
        m.poke_slice(at(top - 9), &[Word::ZERO; 10]).unwrap();
        let mut zeros = vec![Word::ZERO; 10];
        m.swap_slice(at(top - 9), &mut zeros).unwrap();
        assert_eq!(zeros, vec![Word::ZERO; 10]);
        let mut read = vec![Word::new(1); 10];
        m.read_slice(at(top - 9), &mut read).unwrap();
        assert_eq!(read, vec![Word::ZERO; 10]);
        assert_eq!(m.read(at(top)).unwrap(), Word::ZERO);
        assert_eq!(m.stored_words(), 0);
        assert_eq!(m.high_water(), top + 1, "the pokes still mark the top");
        assert_eq!(m.read_count(), 11);
    }

    #[test]
    fn stores_past_the_prefix_extend_it_to_the_highest_word_stored() {
        let mut m = PhysMem::new(1 << 20);
        let at = |a: u32| AbsAddr::new(a).unwrap();
        m.write(at(40), Word::ZERO).unwrap();
        assert_eq!(m.stored_words(), 41, "a counted write stores");
        m.poke(at(10), Word::new(1)).unwrap();
        assert_eq!(m.stored_words(), 41);
        assert!(m.corrupt(60, 1));
        assert_eq!(m.stored_words(), 61);
        m.poke_slice(at(100), &[Word::new(2), Word::ZERO, Word::ZERO])
            .unwrap();
        assert_eq!(m.stored_words(), 101, "trailing zeros are not stored");
        m.write_slice(at(200), &[Word::ZERO; 5]).unwrap();
        assert_eq!(m.stored_words(), 205);
        let mut buf = vec![Word::ZERO, Word::new(3)];
        m.swap_slice(at(300), &mut buf).unwrap();
        assert_eq!(m.stored_words(), 302);
        assert_eq!(m.peek(at(301)).unwrap(), Word::new(3));
        assert_eq!(m.peek(at(302)).unwrap(), Word::ZERO);
    }

    #[test]
    fn zero_all_releases_the_stored_words() {
        let mut m = PhysMem::new(1 << 16);
        m.write(AbsAddr::new(5000).unwrap(), Word::new(4)).unwrap();
        m.zero_all();
        assert_eq!(m.stored_words(), 0);
        assert_eq!(m.size(), 1 << 16);
        assert_eq!(m.peek(AbsAddr::new(5000).unwrap()).unwrap(), Word::ZERO);
        assert_eq!(m.write_count(), 1, "counters survive");
        let mut cow = PhysMem::cow(m.freeze_base(), 1 << 16);
        cow.write(AbsAddr::new(9000).unwrap(), Word::new(1))
            .unwrap();
        assert_eq!(cow.stored_words(), COW_PAGE_WORDS);
        cow.zero_all();
        assert_eq!(cow.stored_words(), 0);
        assert_eq!(cow.size(), 1 << 16);
    }

    #[test]
    fn clone_holds_only_the_stored_prefix() {
        let mut m = PhysMem::new(PhysMem::MAX_WORDS);
        m.poke(AbsAddr::new(100).unwrap(), Word::new(7)).unwrap();
        let c = m.clone();
        assert_eq!(c.stored_words(), 101);
        assert_eq!(c.size(), PhysMem::MAX_WORDS);
        assert_eq!(c.peek(AbsAddr::new(100).unwrap()).unwrap(), Word::new(7));
        assert_eq!(c.freeze_base().len(), 101, "the image is the prefix");
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_memory_rejected() {
        let _ = PhysMem::new(PhysMem::MAX_WORDS + 1);
    }

    #[test]
    fn corrupt_word_faults_on_counted_read_only() {
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(3).unwrap();
        m.poke(a, Word::new(0o70)).unwrap();
        assert!(m.corrupt(3, 0o7));
        assert!(m.is_poisoned(a));
        // The peek sees the scrambled contents without a fault.
        assert_eq!(m.peek(a).unwrap(), Word::new(0o77));
        assert!(matches!(m.read(a), Err(Fault::ParityError { abs: 3 })));
        assert_eq!(m.read_count(), 1, "the faulting read still counted");
    }

    #[test]
    fn write_repairs_poison_and_counts_it() {
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(5).unwrap();
        assert!(m.corrupt(5, 1));
        m.write(a, Word::new(9)).unwrap();
        assert!(!m.is_poisoned(a));
        assert_eq!(m.repaired_count(), 1);
        assert_eq!(m.read(a).unwrap(), Word::new(9));
    }

    #[test]
    fn poke_and_clear_poison_repair_silently() {
        let mut m = PhysMem::new(16);
        assert!(m.corrupt(1, 1));
        m.poke(AbsAddr::new(1).unwrap(), Word::ZERO).unwrap();
        assert_eq!(m.poison_count(), 0);
        assert_eq!(m.repaired_count(), 0, "poke is repair, not a race");
        assert!(m.corrupt(2, 1));
        assert!(m.clear_poison(2));
        assert!(!m.clear_poison(2));
        assert_eq!(m.repaired_count(), 0);
    }

    #[test]
    fn poke_repairs_poison_even_when_value_matches() {
        // A poke that stores the word's existing value must still clear
        // poison — the equality short-circuit only applies to clean
        // words.
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(4).unwrap();
        m.poke(a, Word::new(0o55)).unwrap();
        // Zero mask would be rejected; poison via a mask that cancels:
        // corrupt twice with the same mask restores contents but the
        // second corrupt re-poisons, so poke the original value back.
        assert!(m.corrupt(4, 0o11));
        m.poke(a, Word::new(0o44)).unwrap();
        assert!(!m.is_poisoned(a));
        assert_eq!(m.peek(a).unwrap(), Word::new(0o44));
    }

    #[test]
    fn corrupt_rejects_out_of_range_and_zero_mask() {
        let mut m = PhysMem::new(4);
        assert!(!m.corrupt(4, 1));
        assert!(!m.corrupt(0, 0));
        assert_eq!(m.poison_count(), 0);
    }

    #[test]
    fn chaos_state_round_trips() {
        let mut m = PhysMem::new(32);
        m.poke(AbsAddr::new(20).unwrap(), Word::new(1)).unwrap();
        m.corrupt(7, 1);
        m.corrupt(9, 2);
        m.write(AbsAddr::new(9).unwrap(), Word::ZERO).unwrap();
        let poison = m.poison_export();
        assert_eq!(poison, vec![7]);
        let mut fresh = PhysMem::new(32);
        fresh.restore_chaos_state(&poison, m.repaired_count(), m.high_water());
        assert!(fresh.is_poisoned(AbsAddr::new(7).unwrap()));
        assert_eq!(fresh.repaired_count(), 1);
        assert_eq!(fresh.high_water(), 21);
    }

    #[test]
    fn high_water_tracks_writes_and_pokes() {
        let mut m = PhysMem::new(64);
        assert_eq!(m.high_water(), 0);
        m.poke(AbsAddr::new(10).unwrap(), Word::new(1)).unwrap();
        m.write(AbsAddr::new(40).unwrap(), Word::new(1)).unwrap();
        m.poke(AbsAddr::new(5).unwrap(), Word::new(1)).unwrap();
        assert_eq!(m.high_water(), 41);
    }

    #[test]
    fn high_water_counts_equal_value_pokes() {
        // The equality short-circuit must not hide the fact that the
        // address was deliberately written.
        let mut m = PhysMem::new(64);
        m.poke(AbsAddr::new(30).unwrap(), Word::ZERO).unwrap();
        assert_eq!(m.high_water(), 31);
    }

    fn base_image(words: &[(usize, u64)], size: usize) -> Arc<Vec<Word>> {
        let mut v = vec![Word::ZERO; size];
        for &(i, raw) in words {
            v[i] = Word::new(raw);
        }
        Arc::new(v)
    }

    #[test]
    fn cow_reads_fall_through_to_base() {
        let base = base_image(&[(3, 0o7), (2050, 0o42)], 4096);
        let mut m = PhysMem::cow(base, 4096);
        assert_eq!(m.peek(AbsAddr::new(3).unwrap()).unwrap(), Word::new(0o7));
        assert_eq!(
            m.read(AbsAddr::new(2050).unwrap()).unwrap(),
            Word::new(0o42)
        );
        assert_eq!(m.dirty_pages(), 0, "reads never materialize pages");
        assert!(m.is_cow());
    }

    #[test]
    fn cow_write_dirties_exactly_one_page() {
        let base = base_image(&[(0, 1), (1500, 2)], 4096);
        let mut m = PhysMem::cow(Arc::clone(&base), 4096);
        m.write(AbsAddr::new(1024).unwrap(), Word::new(0o77))
            .unwrap();
        assert_eq!(m.dirty_pages(), 1);
        // The rest of the dirtied page still shows base contents.
        assert_eq!(m.peek(AbsAddr::new(1500).unwrap()).unwrap(), Word::new(2));
        // Other machines sharing the base are unaffected.
        assert_eq!(base[1024], Word::ZERO);
        // A second write to the same page allocates nothing new.
        m.write(AbsAddr::new(1025).unwrap(), Word::new(1)).unwrap();
        assert_eq!(m.dirty_pages(), 1);
    }

    #[test]
    fn cow_equal_poke_leaves_overlay_clean() {
        let base = base_image(&[(10, 0o123), (11, 0o456)], 2048);
        let mut m = PhysMem::cow(base, 2048);
        // Replaying the world-building value dirties nothing...
        m.poke(AbsAddr::new(10).unwrap(), Word::new(0o123)).unwrap();
        assert_eq!(m.dirty_pages(), 0);
        assert_eq!(m.high_water(), 11, "the poke still counts as a write mark");
        // ...while a differing value copies the page.
        m.poke(AbsAddr::new(11).unwrap(), Word::new(0o457)).unwrap();
        assert_eq!(m.dirty_pages(), 1);
        assert_eq!(m.peek(AbsAddr::new(11).unwrap()).unwrap(), Word::new(0o457));
        assert_eq!(m.peek(AbsAddr::new(10).unwrap()).unwrap(), Word::new(0o123));
    }

    #[test]
    fn cow_extends_past_base_with_zeros() {
        let base = base_image(&[(5, 9)], 1024);
        let mut m = PhysMem::cow(base, 4096);
        assert_eq!(m.size(), 4096);
        assert_eq!(m.peek(AbsAddr::new(3000).unwrap()).unwrap(), Word::ZERO);
        m.write(AbsAddr::new(3000).unwrap(), Word::new(4)).unwrap();
        assert_eq!(m.read(AbsAddr::new(3000).unwrap()).unwrap(), Word::new(4));
        assert!(m.read(AbsAddr::new(4096).unwrap()).is_err());
    }

    #[test]
    fn freeze_base_round_trips_through_cow() {
        let mut flat = PhysMem::new(3000);
        flat.poke(AbsAddr::new(7).unwrap(), Word::new(0o70))
            .unwrap();
        flat.poke(AbsAddr::new(2999).unwrap(), Word::new(0o17))
            .unwrap();
        let image = flat.freeze_base();
        assert_eq!(image.len(), 3000);
        let m = PhysMem::cow(image, 3000);
        assert_eq!(m.peek(AbsAddr::new(7).unwrap()).unwrap(), Word::new(0o70));
        assert_eq!(
            m.peek(AbsAddr::new(2999).unwrap()).unwrap(),
            Word::new(0o17)
        );
        assert_eq!(m.nonzero_words(), flat.nonzero_words());
    }

    #[test]
    fn into_base_matches_freeze_base() {
        let mut flat = PhysMem::new(3 * COW_PAGE_WORDS);
        flat.poke(AbsAddr::new(5).unwrap(), Word::new(9)).unwrap();
        let frozen = flat.freeze_base();
        let mut cow = PhysMem::cow(Arc::clone(&frozen), 3 * COW_PAGE_WORDS);
        cow.poke(AbsAddr::new(2048).unwrap(), Word::new(7)).unwrap();
        let cow_frozen = cow.freeze_base();
        assert_eq!(flat.into_base(), frozen);
        assert_eq!(cow.into_base(), cow_frozen);
    }

    #[test]
    fn freeze_base_captures_overlay_edits() {
        let base = base_image(&[(1, 5)], 2048);
        let mut m = PhysMem::cow(base, 2048);
        m.poke(AbsAddr::new(1040).unwrap(), Word::new(6)).unwrap();
        let refrozen = m.freeze_base();
        assert_eq!(refrozen[1], Word::new(5));
        assert_eq!(refrozen[1040], Word::new(6));
    }

    #[test]
    fn cow_zero_all_detaches_from_base() {
        let base = base_image(&[(0, 1)], 1024);
        let mut m = PhysMem::cow(Arc::clone(&base), 1024);
        m.zero_all();
        assert!(!m.is_cow());
        assert_eq!(m.peek(AbsAddr::new(0).unwrap()).unwrap(), Word::ZERO);
        assert_eq!(base[0], Word::new(1), "the shared image survives");
    }

    fn stocked_pages() -> usize {
        PAGE_STOCK.with(Stock::len)
    }

    #[test]
    fn a_recycled_page_reads_its_own_base_and_writes_only() {
        const W: usize = COW_PAGE_WORDS;
        let at = |a: usize| AbsAddr::new(a as u32).unwrap();
        // One machine over a full image stores a mark in every word of
        // four windows and is dropped: its pages go to the stock.
        let mut first = PhysMem::cow(Arc::new(vec![Word::new(0o1); 4 * W]), 4 * W);
        first
            .write_slice(at(0), &[Word::new(0o7777); 4 * W])
            .unwrap();
        assert_eq!(first.dirty_pages(), 4);
        drop(first);
        let stocked = stocked_pages();
        assert!(stocked >= 4, "the dropped pages are kept");

        // The next machine's image ends halfway through window 1, so
        // windows 1 (its tail) and 3 (wholly) lie past the base.
        let base: Vec<Word> = (0..W + W / 2).map(|i| Word::new(i as u64 + 1)).collect();
        let mut next = PhysMem::cow(Arc::new(base.clone()), 4 * W);
        let mut writes = vec![None; 4 * W];
        for (i, v) in [(5, 0o55), (W + 3, 0o66), (3 * W + 1, 0o77)] {
            next.write(at(i), Word::new(v)).unwrap();
            writes[i] = Some(Word::new(v));
        }
        next.poke_slice(at(2 * W), &[Word::new(0o22); W]).unwrap();
        writes[2 * W..3 * W].fill(Some(Word::new(0o22)));
        assert_eq!(next.dirty_pages(), 4);
        assert_eq!(
            stocked_pages(),
            stocked - 4,
            "every page came from the stock"
        );
        let clone = next.clone();
        for (i, written) in writes.into_iter().enumerate() {
            let want = written.unwrap_or(base.get(i).copied().unwrap_or(Word::ZERO));
            assert_eq!(next.peek(at(i)).unwrap(), want, "word {i}");
            assert_eq!(clone.peek(at(i)).unwrap(), want, "clone word {i}");
        }
    }

    #[test]
    fn the_page_stock_is_bounded() {
        let words = (PAGE_STOCK_DEPTH + 8) * COW_PAGE_WORDS;
        let mut m = PhysMem::cow(Arc::new(Vec::new()), words);
        m.write_slice(AbsAddr::new(0).unwrap(), &vec![Word::new(1); words])
            .unwrap();
        drop(m);
        assert_eq!(stocked_pages(), PAGE_STOCK_DEPTH);
    }

    #[test]
    fn cow_chaos_corrupt_and_repair() {
        let base = base_image(&[(9, 0o70)], 1024);
        let mut m = PhysMem::cow(base, 1024);
        assert!(m.corrupt(9, 0o7));
        assert_eq!(m.dirty_pages(), 1, "corruption copies the page privately");
        let a = AbsAddr::new(9).unwrap();
        assert!(matches!(m.read(a), Err(Fault::ParityError { abs: 9 })));
        m.write(a, Word::new(0o70)).unwrap();
        assert_eq!(m.repaired_count(), 1);
        assert_eq!(m.read(a).unwrap(), Word::new(0o70));
    }
}
