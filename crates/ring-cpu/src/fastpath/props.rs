//! Stateful property: the instruction cache is still a 1 024-slot
//! direct-mapped cache, and a table reused from the per-thread stock
//! leaves no trace.
//!
//! An [`ICache`] and a plain model — one `Option<(key, raw word)>` per
//! slot — are driven through random sequences of lookups, slow-path
//! installs, `FastState::reset`, clone, and drop followed by a fresh
//! build. Every lookup answer is derived from the model's slot and an
//! independent decode of the raw word, and must equal the cache's; so
//! must the hit and miss counters after every step.

use proptest::prelude::*;
use ring_core::addr::SegAddr;
use ring_core::word::Word;
use ring_segmem::slot_table::SLOTS;

use super::{icache_key, icache_slot, FastState, ICache};
use crate::isa::{Instr, Opcode, OperandUse};

/// SplitMix64, so one generated seed fans out into a whole sequence.
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
}

/// The addresses and raw words the sequences use.
struct Universe {
    /// Words 0..16 of segments 10 and 11, plus the first two addresses
    /// that map to the slot of 10|0, so lookups displace one another.
    addrs: Vec<SegAddr>,
    /// Every opcode (the privileged group and DRL among them) at two
    /// offsets, and one word that does not decode.
    words: Vec<Word>,
}

impl Universe {
    fn new() -> Universe {
        let at = |s, w| SegAddr::from_parts(s, w).expect("in range");
        let slot = |a| icache_slot(icache_key(a));
        let mut addrs: Vec<SegAddr> = [10, 11]
            .into_iter()
            .flat_map(|s| (0..16).map(move |w| at(s, w)))
            .collect();
        addrs.extend(
            (12..)
                .map(|s| at(s, 0))
                .filter(|&a| slot(a) == slot(at(10, 0)))
                .take(2),
        );
        let mut words: Vec<Word> = Opcode::all()
            .iter()
            .flat_map(|&op| [Instr::direct(op, 0).encode(), Instr::direct(op, 7).encode()])
            .collect();
        words.extend(
            (0..256u64)
                .map(|op| Word::new(op << 28))
                .find(|&w| Instr::decode(w).is_err()),
        );
        Universe { addrs, words }
    }

    fn draw(&self, rng: &mut Mix) -> (SegAddr, Word) {
        let addr = self.addrs[rng.below(self.addrs.len())];
        // A few words often, so hits are common.
        let words = if rng.below(2) == 0 {
            4
        } else {
            self.words.len()
        };
        (addr, self.words[rng.below(words)])
    }
}

struct Model {
    slots: Vec<Option<(u64, u64)>>,
    hits: u64,
    misses: u64,
}

impl Model {
    fn new() -> Model {
        Model {
            slots: vec![None; SLOTS],
            hits: 0,
            misses: 0,
        }
    }

    fn answer(instr: Instr) -> Option<(Instr, OperandUse)> {
        let eligible = !instr.opcode.privileged() && instr.opcode != Opcode::Drl;
        eligible.then(|| (instr, instr.opcode.operand_use()))
    }

    fn lookup_or_decode(&mut self, addr: SegAddr, raw: Word) -> Option<(Instr, OperandUse)> {
        let key = icache_key(addr);
        let slot = icache_slot(key);
        if self.slots[slot] == Some((key, raw.raw())) {
            self.hits += 1;
            return Model::answer(Instr::decode(raw).expect("cached words decode"));
        }
        let instr = Instr::decode(raw).ok()?;
        self.misses += 1;
        self.slots[slot] = Some((key, raw.raw()));
        Model::answer(instr)
    }

    /// Returns whether the install displaced a different address.
    fn install(&mut self, addr: SegAddr, raw: Word) -> bool {
        let key = icache_key(addr);
        let slot = &mut self.slots[icache_slot(key)];
        let displaced = slot.is_some_and(|(k, _)| k != key);
        *slot = Some((key, raw.raw()));
        displaced
    }
}

/// The address and word in every filled slot of the model.
fn cached(model: &Model) -> Vec<(SegAddr, Word)> {
    let addr = |key: u64| {
        SegAddr::from_parts((key >> 18) as u32, (key & 0o777777) as u32).expect("a cached key")
    };
    model
        .slots
        .iter()
        .flatten()
        .map(|&(key, raw)| (addr(key), Word::new(raw)))
        .collect()
}

/// Looks up each of `pairs` in both, and compares the answers and the
/// counters.
fn sweep(cache: &mut ICache, model: &mut Model, pairs: Vec<(SegAddr, Word)>, when: &str) {
    for (addr, raw) in pairs {
        assert_eq!(
            cache.lookup_or_decode(addr, raw),
            model.lookup_or_decode(addr, raw),
            "{when}: {addr}"
        );
    }
    assert_eq!(
        (cache.hits, cache.misses),
        (model.hits, model.misses),
        "{when}"
    );
}

/// Runs one sequence; returns how many fills displaced another address.
fn run_sequence(seed: u64, steps: usize) -> usize {
    let universe = Universe::new();
    let mut rng = Mix(seed);
    let mut fast = FastState::new();
    let mut model = Model::new();
    let mut displaced = 0;
    for step in 0..steps {
        match rng.below(32) {
            0..=19 => {
                let (addr, raw) = universe.draw(&mut rng);
                let key = icache_key(addr);
                let before = model.slots[icache_slot(key)];
                assert_eq!(
                    fast.icache.lookup_or_decode(addr, raw),
                    model.lookup_or_decode(addr, raw),
                    "step {step}: {addr}"
                );
                let after = model.slots[icache_slot(key)];
                displaced += usize::from(before.is_some_and(|(k, _)| k != key) && after != before);
            }
            20..=25 => {
                let (addr, raw) = universe.draw(&mut rng);
                if let Ok(instr) = Instr::decode(raw) {
                    fast.icache.install(addr, raw, instr);
                    displaced += usize::from(model.install(addr, raw));
                }
            }
            26 => {
                let pairs = cached(&model);
                fast.reset();
                model = Model::new();
                sweep(&mut fast.icache, &mut model, pairs, "reset");
            }
            27..=29 => {
                let copy = fast.clone();
                // The original goes back to the stock; the copy lives on.
                drop(core::mem::replace(&mut fast, copy));
                let pairs = cached(&model);
                sweep(&mut fast.icache, &mut model, pairs, "clone");
            }
            _ => {
                let pairs = cached(&model);
                drop(fast);
                fast = FastState::new();
                model = Model::new();
                // A clean table: each word the dropped one held misses.
                sweep(&mut fast.icache, &mut model, pairs, "rebuilt");
            }
        }
        assert_eq!(
            (fast.icache.hits, fast.icache.misses),
            (model.hits, model.misses),
            "step {step}"
        );
    }
    let pairs = cached(&model);
    sweep(&mut fast.icache, &mut model, pairs, "end");
    displaced
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn icache_matches_a_direct_mapped_option_model(
        seed in any::<u64>(),
        steps in 50usize..400,
    ) {
        run_sequence(seed, steps);
    }
}

/// The sequences really exercise replacement: some fills land on a slot
/// that holds a different address.
#[test]
fn sequences_displace_entries() {
    let displaced: usize = (0..16).map(|seed| run_sequence(seed, 300)).sum();
    assert!(displaced > 0, "no fill displaced another address");
}
