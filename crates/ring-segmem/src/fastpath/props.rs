//! Stateful property: the lookaside is still a 1 024-slot direct-mapped
//! cache, and a table reused from the per-thread stock leaves no trace.
//!
//! A [`RingTlb`] and a plain model — one `Option` per slot, holding the
//! arguments of the install that filled it — are driven through random
//! sequences of installs, every probe kind, segment invalidations,
//! flushes (reaching the epoch wrap through a start epoch just below
//! it), `clear_preserving_stats`, hit and miss notes, clone, and drop
//! followed by a fresh build. Every probe answer is derived from the
//! model's slot and the SDW it records, and must equal the
//! lookaside's; so must every statistics counter after every step.

use proptest::prelude::*;
use ring_core::access::AccessMode;
use ring_core::addr::{AbsAddr, SegAddr, SegNo};
use ring_core::ring::Ring;
use ring_core::sdw::{Sdw, SdwBuilder};
use ring_core::summary::AccessSummary;

use super::{key_of, slot_of, FastHit, RingTlb, TlbStats};
use crate::paging::{split_wordno, Ptw, PAGE_SHIFT, PAGE_WORDS};
use crate::phys::PhysMem;
use crate::slot_table::SLOTS;

const PAGES: u32 = 3;

/// The segment numbers the sequences use: 3, 259 and 515 share their
/// low 8 bits, and the last two are the first whose page 0 from ring 4
/// maps to the slot of segment 3's, so installs displace one another.
fn segnos() -> Vec<u32> {
    let slot = |s| slot_of(key_of(SegNo::new(s).expect("in range"), 0, Ring::R4));
    let mut segnos = vec![3, 5, 259, 515];
    segnos.extend((516..).filter(|&s| slot(s) == slot(3)).take(2));
    segnos
}

/// Page table of the paged segments: page 0 used and modified, page 1
/// used only, page 2 missing.
const PAGE_TABLE: u32 = 0o300;
/// A page table past the end of memory (installs nothing).
const LOST_TABLE: u32 = 1 << 16;

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

    fn address(&mut self, segnos: &[u32]) -> SegAddr {
        let segno = segnos[self.below(segnos.len())];
        let page = self.below(PAGES as usize) as u32;
        let offset = match self.below(4) {
            0 => 0,
            1 => 63 + self.below(3) as u32,
            2 => PAGE_WORDS - 1,
            _ => self.below(PAGE_WORDS as usize) as u32,
        };
        SegAddr::from_parts(segno, (page << PAGE_SHIFT) + offset).expect("in range")
    }

    /// Ring 4 half the time, so the colliding keys come up often.
    fn ring(&mut self) -> Ring {
        if self.below(2) == 0 {
            Ring::R4
        } else {
            Ring::from_bits(self.next())
        }
    }
}

/// The SDWs installs draw from: unpaged and paged, data and procedure,
/// short and long, one absent and one whose page table is out of reach.
fn sdws() -> Vec<Sdw> {
    let at = |a: u32| AbsAddr::new(a).expect("in range");
    vec![
        SdwBuilder::data(Ring::R4, Ring::R5)
            .addr(at(0o2000))
            .bound_words(64)
            .build(),
        SdwBuilder::procedure(Ring::R1, Ring::R4, Ring::R6)
            .addr(at(0o4000))
            .bound_words(2 * PAGE_WORDS + 16)
            .build(),
        SdwBuilder::data(Ring::R2, Ring::R7)
            .addr(at(PAGE_TABLE))
            .unpaged(false)
            .bound_words(3 * PAGE_WORDS)
            .build(),
        SdwBuilder::procedure(Ring::R0, Ring::R3, Ring::R5)
            .addr(at(PAGE_TABLE))
            .unpaged(false)
            .bound_words(PAGE_WORDS + 100)
            .build(),
        SdwBuilder::data(Ring::R4, Ring::R4).present(false).build(),
        SdwBuilder::data(Ring::R4, Ring::R4)
            .addr(at(LOST_TABLE))
            .unpaged(false)
            .bound_words(PAGE_WORDS)
            .build(),
    ]
}

fn memory() -> PhysMem {
    let mut phys = PhysMem::new(1 << 16);
    let mut p0 = Ptw::present(5).expect("frame");
    p0.used = true;
    p0.modified = true;
    let mut p1 = Ptw::present(9).expect("frame");
    p1.used = true;
    for (i, ptw) in [p0, p1, Ptw::MISSING].into_iter().enumerate() {
        phys.poke(
            AbsAddr::new(PAGE_TABLE + i as u32).expect("in range"),
            ptw.pack(),
        )
        .expect("in range");
    }
    phys
}

/// The arguments of the install that filled a slot.
#[derive(Clone, Copy)]
struct Installed {
    segno: u32,
    page: u32,
    ring: Ring,
    sdw: usize,
    slow_fetch: bool,
}

/// The probe a model answers.
#[derive(Clone, Copy, Debug)]
enum Probe {
    Mode(AccessMode),
    ReadWrite,
    Transfer,
}

struct Model {
    slots: Vec<Option<Installed>>,
    stats: TlbStats,
}

impl Model {
    fn new() -> Model {
        Model {
            slots: vec![None; SLOTS],
            stats: TlbStats::default(),
        }
    }

    fn slot(addr: SegAddr, ring: Ring) -> usize {
        let (page, _) = split_wordno(addr.wordno);
        slot_of(key_of(addr.segno, page, ring))
    }

    /// Installs as the lookaside documents it: nothing (not even a
    /// count) for an empty page or an unreachable page table. Returns
    /// whether the install displaced a different key.
    fn install(&mut self, phys: &PhysMem, sdws: &[Sdw], installed: Installed) -> bool {
        let sdw = &sdws[installed.sdw];
        let length = AccessSummary::of(sdw).length_words;
        if length <= installed.page << PAGE_SHIFT {
            return false;
        }
        if !sdw.unpaged && phys.peek(sdw.addr.wrapping_add(installed.page)).is_err() {
            return false;
        }
        let addr =
            SegAddr::from_parts(installed.segno, installed.page << PAGE_SHIFT).expect("in range");
        let slot = Model::slot(addr, installed.ring);
        let displaced = self.slots[slot].is_some_and(|old| {
            (old.segno, old.page, old.ring) != (installed.segno, installed.page, installed.ring)
        });
        self.slots[slot] = Some(installed);
        self.stats.installs += 1;
        displaced
    }

    /// The answer the reference path's checks give for the reference,
    /// if the slot holds its key; `None` otherwise.
    fn probe(
        &self,
        phys: &PhysMem,
        sdws: &[Sdw],
        addr: SegAddr,
        ring: Ring,
        probe: Probe,
    ) -> Option<FastHit> {
        let (page, offset) = split_wordno(addr.wordno);
        let e = self.slots[Model::slot(addr, ring)]?;
        if (e.segno, e.page, e.ring) != (addr.segno.value(), page, ring) {
            return None;
        }
        let sdw = &sdws[e.sdw];
        let summary = AccessSummary::of(sdw);
        let limit = summary
            .length_words
            .saturating_sub(page << PAGE_SHIFT)
            .min(PAGE_WORDS);
        if offset >= limit {
            return None;
        }
        let allows = |mode| summary.allows(ring, mode);
        let (granted, write) = match probe {
            Probe::Transfer => {
                // Only the caller's bool matters; any hit shape will do.
                return allows(AccessMode::Execute).then_some(FastHit {
                    abs: AbsAddr::ZERO,
                    ptw_reads: 0,
                    r1: Ring::R0,
                });
            }
            Probe::ReadWrite => (allows(AccessMode::Read) && allows(AccessMode::Write), true),
            Probe::Mode(mode) => (
                allows(mode) && !(mode == AccessMode::Execute && e.slow_fetch),
                mode == AccessMode::Write,
            ),
        };
        if !granted {
            return None;
        }
        let base = if sdw.unpaged {
            sdw.addr.wrapping_add(page << PAGE_SHIFT)
        } else {
            let ptw = Ptw::unpack(phys.peek(sdw.addr.wrapping_add(page)).ok()?);
            if !(ptw.present && ptw.used && (ptw.modified || !write)) {
                return None;
            }
            ptw.frame_base()
        };
        Some(FastHit {
            abs: AbsAddr::from_bits(u64::from(base.value()) + u64::from(offset)),
            ptw_reads: u64::from(!sdw.unpaged),
            r1: sdw.r1,
        })
    }
}

fn tlb_probe(
    tlb: &RingTlb,
    phys: &PhysMem,
    addr: SegAddr,
    ring: Ring,
    probe: Probe,
) -> Option<FastHit> {
    match probe {
        Probe::Mode(mode) => tlb.probe(phys, addr, ring, mode),
        Probe::ReadWrite => tlb.probe_rw(phys, addr, ring),
        Probe::Transfer => tlb.probe_transfer(addr, ring).then_some(FastHit {
            abs: AbsAddr::ZERO,
            ptw_reads: 0,
            r1: Ring::R0,
        }),
    }
}

const PROBES: [Probe; 5] = [
    Probe::Mode(AccessMode::Read),
    Probe::Mode(AccessMode::Write),
    Probe::Mode(AccessMode::Execute),
    Probe::ReadWrite,
    Probe::Transfer,
];

/// Every probe kind on every key the sequences use, at the page origin
/// and at the last word of the page.
fn sweep(tlb: &RingTlb, model: &Model, phys: &PhysMem, sdws: &[Sdw], when: &str) {
    for segno in segnos() {
        for page in 0..PAGES {
            for ring in Ring::all() {
                for offset in [0, PAGE_WORDS - 1] {
                    let addr = SegAddr::from_parts(segno, (page << PAGE_SHIFT) + offset)
                        .expect("in range");
                    for probe in PROBES {
                        assert_eq!(
                            tlb_probe(tlb, phys, addr, ring, probe),
                            model.probe(phys, sdws, addr, ring, probe),
                            "{when}: {probe:?} of {addr} from {ring}"
                        );
                    }
                }
            }
        }
    }
}

/// Runs one sequence; returns how many installs displaced another key.
fn run_sequence(seed: u64, steps: usize) -> usize {
    let phys = memory();
    let sdws = sdws();
    let segnos = segnos();
    let mut rng = Mix(seed);
    let start_epoch = |rng: &mut Mix| u32::MAX - rng.below(4) as u32;
    let mut tlb = RingTlb::with_epoch(start_epoch(&mut rng));
    let mut model = Model::new();
    let mut displaced = 0;
    for step in 0..steps {
        match rng.below(40) {
            0..=15 => {
                let addr = rng.address(&segnos);
                let installed = Installed {
                    segno: addr.segno.value(),
                    page: split_wordno(addr.wordno).0,
                    ring: rng.ring(),
                    sdw: rng.below(sdws.len()),
                    slow_fetch: rng.below(4) == 0,
                };
                tlb.install(
                    &phys,
                    addr,
                    installed.ring,
                    &sdws[installed.sdw],
                    installed.slow_fetch,
                );
                displaced += usize::from(model.install(&phys, &sdws, installed));
            }
            16..=27 => {
                let (addr, ring) = (rng.address(&segnos), rng.ring());
                let probe = PROBES[rng.below(PROBES.len())];
                assert_eq!(
                    tlb_probe(&tlb, &phys, addr, ring, probe),
                    model.probe(&phys, &sdws, addr, ring, probe),
                    "step {step}: {probe:?} of {addr} from {ring}"
                );
            }
            28..=30 => {
                let segno = segnos[rng.below(segnos.len())];
                tlb.invalidate_segment(SegNo::new(segno).expect("in range"));
                for slot in model.slots.iter_mut() {
                    if slot.is_some_and(|e| e.segno == segno) {
                        *slot = None;
                    }
                }
                model.stats.invalidations += 1;
            }
            31..=33 => {
                tlb.flush();
                model.slots.fill(None);
                model.stats.flushes += 1;
            }
            34 => {
                tlb.clear_preserving_stats();
                model.slots.fill(None);
            }
            35 => {
                let n = rng.below(5) as u64;
                tlb.note_hits(n);
                model.stats.hits += n;
            }
            36 => {
                tlb.note_miss();
                model.stats.misses += 1;
            }
            37..=38 => {
                let copy = tlb.clone();
                sweep(&copy, &model, &phys, &sdws, "clone");
                // The original goes back to the stock; the copy lives on.
                drop(core::mem::replace(&mut tlb, copy));
            }
            _ => {
                // Half the time the new table starts at the dropped one's
                // epoch, where any entry it leaked would still match.
                let epoch = if rng.below(2) == 0 {
                    tlb.epoch
                } else {
                    start_epoch(&mut rng)
                };
                drop(tlb);
                tlb = RingTlb::with_epoch(epoch);
                model = Model::new();
                sweep(&tlb, &model, &phys, &sdws, "rebuilt");
            }
        }
        assert_eq!(tlb.stats(), model.stats, "step {step}");
    }
    sweep(&tlb, &model, &phys, &sdws, "end");
    displaced
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lookaside_matches_a_direct_mapped_option_model(
        seed in any::<u64>(),
        steps in 50usize..400,
    ) {
        run_sequence(seed, steps);
    }
}

/// The sequences really exercise replacement: some installs land on a
/// slot that holds a different key.
#[test]
fn sequences_displace_entries() {
    let displaced: usize = (0..16).map(|seed| run_sequence(seed, 300)).sum();
    assert!(displaced > 0, "no install displaced another key");
}
