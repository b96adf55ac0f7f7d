//! Property tests of the page-granular physical-memory transfers: a
//! bulk poke is indistinguishable from poking its words one at a time,
//! a bulk peek from peeking them one at a time, a counted bulk read or
//! write from a loop of counted reads or writes, a page exchange from a
//! peek followed by a poke, and the windowed image scans from a
//! per-word walk — on flat and copy-on-write memories, with poison,
//! across window boundaries and past the end.

use std::sync::Arc;

use proptest::prelude::*;
use ring_core::access::Fault;
use ring_core::addr::AbsAddr;
use ring_core::word::Word;
use ring_segmem::phys::{PhysMem, COW_PAGE_WORDS};

/// SplitMix64, so one generated seed fans out into a whole memory.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A word that is often zero or repeated, so equal-value writes and
    /// all-zero windows are common.
    fn word(&mut self) -> Word {
        match self.next() % 4 {
            0 | 1 => Word::ZERO,
            2 => Word::new(self.next() % 3),
            _ => Word::new(self.next()),
        }
    }
}

/// The shape of a generated memory.
#[derive(Clone, Copy, Debug)]
struct Shape {
    flat: bool,
    /// Size in words.
    size: usize,
    /// Base image length as a fraction of `size`, in 1/8ths.
    base_eighths: usize,
    /// Words changed after construction (materializing CoW windows).
    edits: usize,
    /// Words corrupted (poisoned) after the edits.
    poison: usize,
    seed: u64,
}

fn shape() -> impl Strategy<Value = Shape> {
    (
        any::<bool>(),
        1usize..5 * COW_PAGE_WORDS + 300,
        0usize..9,
        0usize..6,
        0usize..8,
        any::<u64>(),
    )
        .prop_map(|(flat, size, base_eighths, edits, poison, seed)| Shape {
            flat,
            size,
            base_eighths,
            edits,
            poison,
            seed,
        })
}

fn addr(a: usize) -> AbsAddr {
    AbsAddr::new(a as u32).expect("test addresses stay below 2^24")
}

fn build(s: Shape, rng: &mut Mix) -> PhysMem {
    let mut m = if s.flat {
        PhysMem::new(s.size)
    } else {
        let base: Vec<Word> = (0..s.size * s.base_eighths / 8)
            .map(|_| rng.word())
            .collect();
        PhysMem::cow(Arc::new(base), s.size)
    };
    for _ in 0..s.edits {
        let a = rng.below(s.size);
        let w = rng.word();
        m.poke(addr(a), w).unwrap();
    }
    for _ in 0..s.poison {
        let a = rng.below(s.size) as u32;
        let mask = rng.next() | 1;
        m.corrupt(a, mask);
    }
    // A restored image can carry poison on words whose window was
    // never copied (corruption itself always copies the window).
    let mut poison = m.poison_export();
    poison.extend((0..s.poison).map(|_| rng.below(s.size) as u32));
    poison.sort_unstable();
    let (repaired, high_water) = (m.repaired_count(), m.high_water());
    m.restore_chaos_state(&poison, repaired, high_water);
    m
}

/// Every word, read one at a time.
fn contents(m: &PhysMem) -> Vec<Word> {
    (0..m.size()).map(|i| m.peek(addr(i)).unwrap()).collect()
}

/// A range that starts anywhere up to just past the end and may run
/// over it, biased towards window-crossing lengths.
fn range(rng: &mut Mix, size: usize) -> (usize, usize) {
    let start = rng.below(size + 16);
    let len = match rng.below(4) {
        0 => COW_PAGE_WORDS,
        1 => rng.below(2 * COW_PAGE_WORDS + 2),
        2 => rng.below(16),
        _ => rng.below(size + 32),
    };
    (start, len)
}

fn assert_same(bulk: &PhysMem, oracle: &PhysMem) {
    assert_eq!(contents(bulk), contents(oracle), "contents");
    assert_eq!(bulk.dirty_pages(), oracle.dirty_pages(), "dirty_pages");
    assert_eq!(bulk.poison_export(), oracle.poison_export(), "poison set");
    assert_eq!(bulk.repaired_count(), oracle.repaired_count(), "repaired");
    assert_eq!(bulk.high_water(), oracle.high_water(), "high_water");
    assert_eq!(bulk.ref_count(), oracle.ref_count(), "traffic counters");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `poke_slice` has exactly the effect of a per-word `poke` loop
    /// that stops at its first error.
    #[test]
    fn poke_slice_matches_poke_loop(s in shape(), mode in 0usize..4) {
        let mut rng = Mix(s.seed);
        let mut bulk = build(s, &mut rng);
        let (start, len) = range(&mut rng, s.size);
        // Mostly rewrite what is already there, so the equality-skip
        // rule decides which windows get dirtied.
        let words: Vec<Word> = (0..len)
            .map(|i| {
                let current = bulk.peek(addr(start + i)).unwrap_or(Word::ZERO);
                match mode {
                    0 => current,
                    1 if rng.below(64) != 0 => current,
                    2 => Word::ZERO,
                    _ => rng.word(),
                }
            })
            .collect();
        let mut oracle = bulk.clone();
        let mut expected: Result<(), Fault> = Ok(());
        for (i, w) in words.iter().enumerate() {
            if let Err(e) = oracle.poke(addr(start + i), *w) {
                expected = Err(e);
                break;
            }
        }
        let got = bulk.poke_slice(addr(start), &words);
        prop_assert_eq!(got, expected);
        assert_same(&bulk, &oracle);
    }

    /// `peek_into` appends exactly what a per-word `peek` loop reads,
    /// ignoring poison, and fails at the same address.
    #[test]
    fn peek_into_matches_peek_loop(s in shape()) {
        let mut rng = Mix(s.seed);
        let m = build(s, &mut rng);
        let (start, len) = range(&mut rng, s.size);
        let mut expected_words = vec![Word::new(0o777)];
        let mut expected: Result<(), Fault> = Ok(());
        for i in 0..len {
            match m.peek(addr(start + i)) {
                Ok(w) => expected_words.push(w),
                Err(e) => {
                    expected = Err(e);
                    break;
                }
            }
        }
        let mut got_words = vec![Word::new(0o777)];
        let got = m.peek_into(addr(start), len, &mut got_words);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(got_words, expected_words);
        prop_assert_eq!(m.ref_count(), 0);
    }

    /// `read_slice` has exactly the effect of a per-word `read` loop that
    /// stops at its first error: the same words, the same counted reads
    /// (the failing one included), and the same fault.
    #[test]
    fn read_slice_matches_read_loop(s in shape()) {
        let mut rng = Mix(s.seed);
        let mut bulk = build(s, &mut rng);
        let (start, len) = range(&mut rng, s.size);
        let mut oracle = bulk.clone();
        let mut expected_words = vec![Word::new(0o777); len];
        let mut expected: Result<(), Fault> = Ok(());
        for (i, slot) in expected_words.iter_mut().enumerate() {
            match oracle.read(addr(start + i)) {
                Ok(w) => *slot = w,
                Err(e) => {
                    expected = Err(e);
                    break;
                }
            }
        }
        let mut got_words = vec![Word::new(0o777); len];
        let got = bulk.read_slice(addr(start), &mut got_words);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(got_words, expected_words);
        prop_assert_eq!(bulk.read_count(), oracle.read_count());
        assert_same(&bulk, &oracle);
    }

    /// `write_slice` has exactly the effect of a per-word `write` loop
    /// that stops at its first error: contents, counted writes,
    /// high-water mark, repaired poison and materialized windows.
    #[test]
    fn write_slice_matches_write_loop(s in shape(), mode in 0usize..3) {
        let mut rng = Mix(s.seed);
        let mut bulk = build(s, &mut rng);
        let (start, len) = range(&mut rng, s.size);
        let words: Vec<Word> = (0..len)
            .map(|i| match mode {
                0 => bulk.peek(addr(start + i)).unwrap_or(Word::ZERO),
                1 => Word::ZERO,
                _ => rng.word(),
            })
            .collect();
        let mut oracle = bulk.clone();
        let mut expected: Result<(), Fault> = Ok(());
        for (i, w) in words.iter().enumerate() {
            if let Err(e) = oracle.write(addr(start + i), *w) {
                expected = Err(e);
                break;
            }
        }
        let got = bulk.write_slice(addr(start), &words);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(bulk.write_count(), oracle.write_count());
        assert_same(&bulk, &oracle);
    }

    /// `swap_slice` leaves memory exactly as `poke_slice` of the
    /// incoming words would and hands back what `peek_into` would have
    /// read first; past the end it fails at the same address and
    /// changes nothing.
    #[test]
    fn swap_slice_matches_peek_then_poke(s in shape(), mode in 0usize..4) {
        let mut rng = Mix(s.seed);
        let mut bulk = build(s, &mut rng);
        let (start, len) = match rng.below(3) {
            // A whole, aligned window: the move case.
            0 => (rng.below(s.size.div_ceil(COW_PAGE_WORDS)) * COW_PAGE_WORDS, COW_PAGE_WORDS),
            _ => range(&mut rng, s.size),
        };
        let incoming: Vec<Word> = (0..len)
            .map(|i| {
                let current = bulk.peek(addr(start + i)).unwrap_or(Word::ZERO);
                match mode {
                    0 => current,
                    1 if rng.below(64) != 0 => current,
                    2 => Word::ZERO,
                    _ => rng.word(),
                }
            })
            .collect();
        let untouched = bulk.clone();
        let mut oracle = bulk.clone();
        let mut expected_words = Vec::new();
        let read = oracle.peek_into(addr(start), len, &mut expected_words);
        let mut buf = incoming.clone();
        let got = bulk.swap_slice(addr(start), &mut buf);
        if read.is_err() {
            prop_assert_eq!(got, read);
            prop_assert_eq!(buf, incoming);
            assert_same(&bulk, &untouched);
        } else {
            prop_assert_eq!(got, oracle.poke_slice(addr(start), &incoming));
            prop_assert_eq!(buf, expected_words);
            assert_same(&bulk, &oracle);
        }
    }

    /// The windowed image scans agree with a per-word walk.
    #[test]
    fn windowed_scans_match_per_word_walk(s in shape()) {
        let mut rng = Mix(s.seed);
        let m = build(s, &mut rng);
        let words = contents(&m);
        let nonzero: Vec<(u32, Word)> = words
            .iter()
            .enumerate()
            .filter(|(_, w)| **w != Word::ZERO)
            .map(|(i, w)| (i as u32, *w))
            .collect();
        prop_assert_eq!(m.nonzero_words(), nonzero);
        // The image may stop short: the words past it read as zero.
        let mut frozen = m.freeze_base().to_vec();
        prop_assert!(frozen.len() <= m.size());
        frozen.resize(m.size(), Word::ZERO);
        prop_assert_eq!(frozen, words);
    }
}

#[test]
fn full_window_write_over_base_dirties_only_changed_windows() {
    let base = Arc::new(vec![Word::new(5); 3 * COW_PAGE_WORDS]);
    let mut m = PhysMem::cow(Arc::clone(&base), 3 * COW_PAGE_WORDS);
    let mut words = vec![Word::new(5); 3 * COW_PAGE_WORDS];
    words[COW_PAGE_WORDS + 7] = Word::new(6);
    m.poke_slice(addr(0), &words).unwrap();
    assert_eq!(m.dirty_pages(), 1, "only the middle window changed");
    assert_eq!(m.high_water(), 3 * COW_PAGE_WORDS as u32);
    assert_eq!(m.peek(addr(COW_PAGE_WORDS + 7)).unwrap(), Word::new(6));
    assert_eq!(base[COW_PAGE_WORDS + 7], Word::new(5), "base untouched");
}

#[test]
fn out_of_range_tail_writes_prefix_then_faults() {
    let mut m = PhysMem::new(10);
    let words = [Word::new(1); 4];
    assert_eq!(
        m.poke_slice(addr(8), &words),
        Err(Fault::PhysicalBounds { abs: 10 })
    );
    assert_eq!(m.peek(addr(9)).unwrap(), Word::new(1));
    assert_eq!(m.high_water(), 10);
    assert_eq!(
        m.poke_slice(addr(12), &words),
        Err(Fault::PhysicalBounds { abs: 12 })
    );
    assert_eq!(m.poke_slice(addr(12), &[]), Ok(()));
}
