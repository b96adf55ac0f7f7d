//! Stateful property test of storage committed on first write: a flat
//! memory that holds only its stored prefix and a copy-on-write view
//! both behave exactly as a fully zeroed `Vec<Word>` of the declared
//! size, driven through random sequences of every operation —
//! counted and uncounted single-word access, the bulk transfers,
//! corruption and poison clearing, `zero_all`, clone, and freeze
//! followed by `cow` — with addresses biased to the edge of the stored
//! prefix, to `size - 1` and to `size`. After each operation the
//! results, counters, high-water mark, poison, `dirty_pages`,
//! `nonzero_words` and frozen contents must equal the model's, and the
//! storage held must be no more than the stores made so far need.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use ring_core::access::Fault;
use ring_core::addr::AbsAddr;
use ring_core::word::Word;
use ring_segmem::phys::{PhysMem, COW_PAGE_WORDS};

/// SplitMix64, so one generated seed fans out into a whole operation.
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

    /// A word that is often zero, so zero pokes past the stored prefix
    /// and equal-value writes are common.
    fn word(&mut self) -> Word {
        match self.next() % 4 {
            0 | 1 => Word::ZERO,
            2 => Word::new(self.next() % 3),
            _ => Word::new(self.next()),
        }
    }

    fn words(&mut self, n: usize) -> Vec<Word> {
        let zeros = self.below(3) == 0;
        (0..n)
            .map(|_| if zeros { Word::ZERO } else { self.word() })
            .collect()
    }

    /// An address near the edge of the stored prefix, at the top of
    /// memory, at or just past its end, or anywhere.
    fn address(&mut self, size: usize, edge: usize) -> usize {
        match self.below(6) {
            0 => (edge + self.below(3)).saturating_sub(1),
            1 => size - 1,
            2 => size,
            3 => size + self.below(4),
            _ => self.below(size),
        }
    }

    /// A transfer length, often crossing a window or the end.
    fn length(&mut self, size: usize) -> usize {
        match self.below(4) {
            0 => COW_PAGE_WORDS,
            1 => self.below(2 * COW_PAGE_WORDS + 2),
            2 => self.below(16),
            _ => self.below(size + 32),
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Read(usize),
    Write(usize, Word),
    Peek(usize),
    Poke(usize, Word),
    PokeSlice(usize, Vec<Word>),
    PeekInto(usize, usize),
    ReadSlice(usize, usize),
    WriteSlice(usize, Vec<Word>),
    SwapSlice(usize, Vec<Word>),
    Corrupt(u32, u64),
    ClearPoison(u32),
    ZeroAll,
    Clone,
    FreezeCow,
}

impl Op {
    fn draw(rng: &mut Mix, size: usize, edge: usize) -> Op {
        let at = rng.address(size, edge);
        match rng.below(32) {
            0..=2 => Op::Read(at),
            3..=5 => Op::Write(at, rng.word()),
            6..=7 => Op::Peek(at),
            8..=11 => Op::Poke(at, rng.word()),
            12..=14 => {
                let n = rng.length(size);
                Op::PokeSlice(at, rng.words(n))
            }
            15..=16 => Op::PeekInto(at, rng.length(size)),
            17..=18 => Op::ReadSlice(at, rng.length(size)),
            19..=20 => {
                let n = rng.length(size);
                Op::WriteSlice(at, rng.words(n))
            }
            21..=23 => {
                let n = rng.length(size);
                Op::SwapSlice(at, rng.words(n))
            }
            24..=25 => Op::Corrupt(at as u32, if rng.below(8) == 0 { 0 } else { rng.next() }),
            26..=27 => Op::ClearPoison(at as u32),
            28 => Op::ZeroAll,
            29 => Op::Clone,
            _ => Op::FreezeCow,
        }
    }
}

/// What an operation returned: its status, the words it read or handed
/// back, and the flag `corrupt` and `clear_poison` answer with.
type Outcome = (Result<(), Fault>, Vec<Word>, bool);

fn addr(a: usize) -> AbsAddr {
    AbsAddr::new(a as u32).expect("test addresses stay below 2^24")
}

fn apply(m: &mut PhysMem, op: &Op) -> Outcome {
    let mut out = Vec::new();
    let mut flag = false;
    let status = match op {
        Op::Read(a) => m.read(addr(*a)).map(|w| out.push(w)),
        Op::Write(a, w) => m.write(addr(*a), *w),
        Op::Peek(a) => m.peek(addr(*a)).map(|w| out.push(w)),
        Op::Poke(a, w) => m.poke(addr(*a), *w),
        Op::PokeSlice(a, words) => m.poke_slice(addr(*a), words),
        Op::PeekInto(a, n) => m.peek_into(addr(*a), *n, &mut out),
        Op::ReadSlice(a, n) => {
            out = vec![Word::new(0o777); *n];
            m.read_slice(addr(*a), &mut out)
        }
        Op::WriteSlice(a, words) => m.write_slice(addr(*a), words),
        Op::SwapSlice(a, words) => {
            out.clone_from(words);
            m.swap_slice(addr(*a), &mut out)
        }
        Op::Corrupt(a, mask) => {
            flag = m.corrupt(*a, *mask);
            Ok(())
        }
        Op::ClearPoison(a) => {
            flag = m.clear_poison(*a);
            Ok(())
        }
        Op::ZeroAll => {
            m.zero_all();
            Ok(())
        }
        Op::Clone => {
            *m = m.clone();
            Ok(())
        }
        Op::FreezeCow => {
            let size = m.size();
            *m = PhysMem::cow(m.freeze_base(), size);
            Ok(())
        }
    };
    (status, out, flag)
}

/// The model: every word of the declared size held in a plain vector,
/// with `PhysMem`'s per-word rules written out one word at a time.
struct Model {
    words: Vec<Word>,
    reads: u64,
    writes: u64,
    poison: BTreeSet<u32>,
    repaired: u64,
    high_water: u32,
    /// Addresses the last operation stored to (what a memory under
    /// test may have to hold for it).
    stored: Vec<usize>,
}

impl Model {
    fn bounds(&self, a: usize) -> Result<(), Fault> {
        if a < self.words.len() {
            Ok(())
        } else {
            Err(Fault::PhysicalBounds { abs: a as u32 })
        }
    }

    fn read(&mut self, a: usize) -> Result<Word, Fault> {
        self.reads += 1;
        self.bounds(a)?;
        if self.poison.contains(&(a as u32)) {
            return Err(Fault::ParityError { abs: a as u32 });
        }
        Ok(self.words[a])
    }

    fn write(&mut self, a: usize, w: Word) -> Result<(), Fault> {
        self.writes += 1;
        self.bounds(a)?;
        self.words[a] = w;
        self.high_water = self.high_water.max(a as u32 + 1);
        if self.poison.remove(&(a as u32)) {
            self.repaired += 1;
        }
        self.stored.push(a);
        Ok(())
    }

    fn peek(&self, a: usize) -> Result<Word, Fault> {
        self.bounds(a)?;
        Ok(self.words[a])
    }

    /// A poke stores only a changed value or over poison: an equal
    /// value, zero past the stored prefix included, needs no storage.
    fn poke(&mut self, a: usize, w: Word) -> Result<(), Fault> {
        self.bounds(a)?;
        self.high_water = self.high_water.max(a as u32 + 1);
        let poisoned = self.poison.remove(&(a as u32));
        if poisoned || self.words[a] != w {
            self.stored.push(a);
        }
        self.words[a] = w;
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Outcome {
        self.stored.clear();
        let mut out = Vec::new();
        let mut flag = false;
        let status = match op {
            Op::Read(a) => self.read(*a).map(|w| out.push(w)),
            Op::Write(a, w) => self.write(*a, *w),
            Op::Peek(a) => self.peek(*a).map(|w| out.push(w)),
            Op::Poke(a, w) => self.poke(*a, *w),
            Op::PokeSlice(a, words) => {
                (0..words.len()).try_for_each(|i| self.poke(a + i, words[i]))
            }
            Op::PeekInto(a, n) => (0..*n).try_for_each(|i| self.peek(a + i).map(|w| out.push(w))),
            Op::ReadSlice(a, n) => {
                out = vec![Word::new(0o777); *n];
                (0..*n).try_for_each(|i| self.read(a + i).map(|w| out[i] = w))
            }
            Op::WriteSlice(a, words) => {
                (0..words.len()).try_for_each(|i| self.write(a + i, words[i]))
            }
            Op::SwapSlice(a, words) => {
                out.clone_from(words);
                if a + words.len() > self.words.len() {
                    Err(Fault::PhysicalBounds {
                        abs: (*a).max(self.words.len()) as u32,
                    })
                } else {
                    for (i, w) in words.iter().enumerate() {
                        out[i] = self.words[a + i];
                        self.poke(a + i, *w).expect("in range");
                    }
                    Ok(())
                }
            }
            Op::Corrupt(a, mask) => {
                let a = *a as usize;
                flag = *mask != 0 && a < self.words.len();
                if flag {
                    self.words[a] = Word::new(self.words[a].raw() ^ mask);
                    self.poison.insert(a as u32);
                    self.stored.push(a);
                }
                Ok(())
            }
            Op::ClearPoison(a) => {
                flag = self.poison.remove(a);
                Ok(())
            }
            Op::ZeroAll => {
                self.words.fill(Word::ZERO);
                Ok(())
            }
            Op::Clone => Ok(()),
            // A fresh view: counters, poison and high-water start over.
            Op::FreezeCow => {
                (self.reads, self.writes, self.repaired, self.high_water) = (0, 0, 0, 0);
                self.poison.clear();
                Ok(())
            }
        };
        (status, out, flag)
    }
}

/// The storage a memory under test may hold: a flat array's bound on
/// its stored prefix (one past the highest address stored since it was
/// created or zeroed), or a copy-on-write view's materialized windows.
#[derive(Clone, Debug)]
enum Storage {
    Flat { bound: usize },
    Cow { dirty: BTreeSet<usize> },
}

impl Storage {
    fn after(&mut self, op: &Op, stored: &[usize]) {
        match op {
            Op::ZeroAll => *self = Storage::Flat { bound: 0 },
            Op::FreezeCow => {
                *self = Storage::Cow {
                    dirty: BTreeSet::new(),
                }
            }
            _ => match self {
                Storage::Flat { bound } => {
                    *bound = stored.iter().map(|a| a + 1).fold(*bound, usize::max);
                }
                Storage::Cow { dirty } => {
                    dirty.extend(stored.iter().map(|a| a / COW_PAGE_WORDS));
                }
            },
        }
    }
}

fn check(m: &PhysMem, storage: &Storage, model: &Model) {
    let size = model.words.len();
    assert_eq!(m.size(), size, "size");
    let mut contents = Vec::new();
    assert_eq!(m.peek_into(addr(0), size, &mut contents), Ok(()));
    assert_eq!(contents, model.words, "contents");
    assert_eq!(
        m.peek(addr(size)),
        Err(Fault::PhysicalBounds { abs: size as u32 })
    );
    assert_eq!(m.read_count(), model.reads, "reads");
    assert_eq!(m.write_count(), model.writes, "writes");
    assert_eq!(m.high_water(), model.high_water, "high_water");
    let poison: Vec<u32> = model.poison.iter().copied().collect();
    assert_eq!(m.poison_export(), poison, "poison");
    assert_eq!(m.repaired_count(), model.repaired, "repaired");
    let nonzero: Vec<(u32, Word)> = model
        .words
        .iter()
        .enumerate()
        .filter(|(_, w)| **w != Word::ZERO)
        .map(|(i, w)| (i as u32, *w))
        .collect();
    assert_eq!(m.nonzero_words(), nonzero, "nonzero_words");
    let mut frozen = m.freeze_base().to_vec();
    assert!(frozen.len() <= size, "frozen image longer than memory");
    match storage {
        Storage::Flat { bound } => {
            assert!(!m.is_cow());
            assert_eq!(m.dirty_pages(), 0, "dirty_pages");
            assert!(
                m.stored_words() <= *bound,
                "stored {} words, stores need {bound}",
                m.stored_words()
            );
            assert_eq!(frozen.len(), m.stored_words(), "image is the stored prefix");
        }
        Storage::Cow { dirty } => {
            assert!(m.is_cow());
            assert_eq!(m.dirty_pages() as usize, dirty.len(), "dirty_pages");
            assert_eq!(m.stored_words(), dirty.len() * COW_PAGE_WORDS);
        }
    }
    frozen.resize(size, Word::ZERO);
    assert_eq!(frozen, model.words, "frozen contents");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A flat memory, a copy-on-write view and the model stay in
    /// lockstep through a random sequence of operations.
    #[test]
    fn grow_on_write_memory_matches_a_zeroed_vector(
        size in 1usize..3 * COW_PAGE_WORDS + 300,
        base_eighths in 0usize..9,
        seed in any::<u64>(),
        steps in 1usize..40,
    ) {
        let mut rng = Mix(seed);
        // Both memories start holding the same words: the view over a
        // base image, the flat memory poked with it and its marks reset.
        let base: Vec<Word> = (0..size * base_eighths / 8).map(|_| rng.word()).collect();
        let mut model = Model {
            words: vec![Word::ZERO; size],
            reads: 0,
            writes: 0,
            poison: BTreeSet::new(),
            repaired: 0,
            high_water: 0,
            stored: Vec::new(),
        };
        model.words[..base.len()].copy_from_slice(&base);
        let mut flat = PhysMem::new(size);
        flat.poke_slice(addr(0), &base).unwrap();
        flat.restore_chaos_state(&[], 0, 0);
        let cow = PhysMem::cow(Arc::new(base.clone()), size);
        let mut memories = [
            (flat, Storage::Flat { bound: base.len() }),
            (cow, Storage::Cow { dirty: BTreeSet::new() }),
        ];
        for (m, storage) in &memories {
            check(m, storage, &model);
        }
        for step in 0..steps {
            let edge = memories[0].0.stored_words();
            let op = Op::draw(&mut rng, size, edge);
            let expected = model.apply(&op);
            for (m, storage) in &mut memories {
                let got = apply(m, &op);
                prop_assert_eq!(&got, &expected, "step {} {:?}", step, op);
                storage.after(&op, &model.stored);
                check(m, storage, &model);
            }
        }
    }
}
