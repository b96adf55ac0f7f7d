//! Property-based tests of the core invariants, spanning crates.

use proptest::prelude::*;

use multiring::core::access::Fault;
use multiring::core::addr::{pack_pointer, unpack_pointer, SegAddr, MAX_SEGNO, MAX_WORDNO};
use multiring::core::callret::{check_call, check_return};
use multiring::core::effective::EffectiveRingRules;
use multiring::core::oracle;
use multiring::core::registers::{Dbr, IndWord, PtrReg};
use multiring::core::ring::Ring;
use multiring::core::sdw::{Sdw, SdwBuilder, SdwFlags};
use multiring::core::validate::{check_fetch, check_read, check_write};
use multiring::core::word::Word;
use multiring::core::AbsAddr;

fn arb_ring() -> impl Strategy<Value = Ring> {
    (0u8..8).prop_map(|n| Ring::new(n).unwrap())
}

fn arb_ring_triple() -> impl Strategy<Value = (Ring, Ring, Ring)> {
    (0u8..8, 0u8..8, 0u8..8).prop_map(|(a, b, c)| {
        let mut v = [a, b, c];
        v.sort_unstable();
        (
            Ring::new(v[0]).unwrap(),
            Ring::new(v[1]).unwrap(),
            Ring::new(v[2]).unwrap(),
        )
    })
}

fn arb_sdw() -> impl Strategy<Value = Sdw> {
    (
        arb_ring_triple(),
        0u32..(1 << 24),
        0u32..(1 << 14),
        any::<[bool; 6]>(),
        0u32..(1 << 14),
        0u8..4,
    )
        .prop_map(|(rings, addr, bound, flags, gate, fc)| {
            Sdw::new(
                AbsAddr::new(addr).unwrap(),
                rings,
                SdwFlags {
                    read: flags[0],
                    write: flags[1],
                    execute: flags[2],
                    present: flags[3],
                    privileged: flags[4],
                    unpaged: flags[5],
                    fault_class: fc,
                },
                bound,
                gate,
            )
            .unwrap()
        })
}

fn arb_addr() -> impl Strategy<Value = SegAddr> {
    (0u32..=MAX_SEGNO, 0u32..=MAX_WORDNO).prop_map(|(s, w)| SegAddr::from_parts(s, w).unwrap())
}

proptest! {
    /// Fig. 3 formats: SDWs survive the pack/unpack round trip.
    #[test]
    fn sdw_pack_round_trip(sdw in arb_sdw()) {
        let (w0, w1) = sdw.pack();
        prop_assert_eq!(Sdw::unpack(w0, w1), sdw);
    }

    /// Pointer layout round-trips for all rings and addresses.
    #[test]
    fn pointer_pack_round_trip(ring in arb_ring(), addr in arb_addr()) {
        let (r2, a2) = unpack_pointer(pack_pointer(ring, addr));
        prop_assert_eq!(r2, ring);
        prop_assert_eq!(a2, addr);
    }

    /// Indirect-word pairs round-trip.
    #[test]
    fn indword_pack_round_trip(ring in arb_ring(), addr in arb_addr(), i in any::<bool>()) {
        let iw = IndWord::new(ring, addr, i);
        let (w0, w1) = iw.pack();
        prop_assert_eq!(IndWord::unpack(w0, w1), iw);
    }

    /// DBR images round-trip.
    #[test]
    fn dbr_pack_round_trip(
        addr in 0u32..(1 << 24),
        bound in 0u32..(1 << 16),
        sb in 0u32..=MAX_SEGNO,
    ) {
        let dbr = Dbr::new(
            AbsAddr::new(addr).unwrap(),
            bound,
            multiring::core::SegNo::new(sb).unwrap(),
        );
        let (w0, w1) = dbr.pack();
        prop_assert_eq!(Dbr::unpack(w0, w1), dbr);
    }

    /// The nested-subset property: any access permitted at ring m is
    /// permitted at every ring more privileged than m — for read and
    /// write (execute brackets have a deliberate lower limit and are
    /// exempt, per the paper).
    #[test]
    fn read_write_access_is_downward_closed(sdw in arb_sdw(), addr in arb_addr()) {
        for m in 1..8u8 {
            let lo = Ring::new(m - 1).unwrap();
            let hi = Ring::new(m).unwrap();
            if check_read(&sdw, addr, hi).is_ok() {
                prop_assert!(check_read(&sdw, addr, lo).is_ok());
            }
            if check_write(&sdw, addr, hi).is_ok() {
                prop_assert!(check_write(&sdw, addr, lo).is_ok());
            }
        }
    }

    /// Differential: production validation equals the oracle for every
    /// randomly generated descriptor, address and ring.
    #[test]
    fn validation_matches_oracle(sdw in arb_sdw(), addr in arb_addr(), ring in arb_ring()) {
        use oracle::Outcome;
        let coarse = |r: Result<(), Fault>| match r {
            Ok(()) => Outcome::Allowed(ring),
            Err(Fault::SegmentFault { .. }) => Outcome::Missing,
            Err(_) => Outcome::Violation,
        };
        prop_assert_eq!(
            coarse(check_fetch(&sdw, addr, ring)),
            oracle::fetch(&sdw, addr.wordno.value(), ring)
        );
        prop_assert_eq!(
            coarse(check_read(&sdw, addr, ring)),
            oracle::read(&sdw, addr.wordno.value(), ring)
        );
        prop_assert_eq!(
            coarse(check_write(&sdw, addr, ring)),
            oracle::write(&sdw, addr.wordno.value(), ring)
        );
    }

    /// Differential for CALL and RETURN against the oracle.
    #[test]
    fn callret_matches_oracle(
        sdw in arb_sdw(),
        addr in arb_addr(),
        eff_n in 0u8..8,
        cur_n in 0u8..8,
        same in any::<bool>(),
    ) {
        use oracle::Outcome;
        // Only eff >= cur is reachable (TPR.RING is a seeded max).
        let (eff_n, cur_n) = if eff_n >= cur_n { (eff_n, cur_n) } else { (cur_n, eff_n) };
        let eff = Ring::new(eff_n).unwrap();
        let cur = Ring::new(cur_n).unwrap();
        let got = match check_call(&sdw, addr, eff, cur, same) {
            Ok(d) => Outcome::Allowed(d.new_ring),
            Err(Fault::UpwardCall { .. }) => Outcome::SoftwareAssist,
            Err(Fault::SegmentFault { .. }) => Outcome::Missing,
            Err(_) => Outcome::Violation,
        };
        prop_assert_eq!(got, oracle::call(&sdw, addr.wordno.value(), eff, cur, same));

        let got = match check_return(&sdw, addr, eff, cur) {
            Ok(d) => Outcome::Allowed(d.new_ring),
            Err(Fault::DownwardReturn { .. }) => Outcome::SoftwareAssist,
            Err(Fault::SegmentFault { .. }) => Outcome::Missing,
            Err(_) => Outcome::Violation,
        };
        prop_assert_eq!(got, oracle::ret(&sdw, addr.wordno.value(), eff, cur));
    }

    /// A successful CALL never raises the ring of execution; a
    /// successful RETURN never lowers it.
    #[test]
    fn call_down_return_up(
        sdw in arb_sdw(),
        addr in arb_addr(),
        eff in arb_ring(),
        cur in arb_ring(),
        same in any::<bool>(),
    ) {
        if let Ok(d) = check_call(&sdw, addr, eff, cur, same) {
            prop_assert!(d.new_ring <= cur);
            prop_assert!(d.new_ring >= sdw.r1);
            prop_assert!(d.new_ring <= sdw.r2);
        }
        if let Ok(d) = check_return(&sdw, addr, eff, cur) {
            prop_assert!(d.new_ring >= cur);
        }
    }

    /// Effective-ring folding is monotone (never lowers) and bounded by
    /// the inputs under the full rules.
    #[test]
    fn effective_fold_is_monotone_max(
        cur in arb_ring(),
        ind in arb_ring(),
        sdw in arb_sdw(),
    ) {
        let r = multiring::core::effective::fold_indirect(
            cur, ind, sdw.r1, EffectiveRingRules::PAPER,
        );
        prop_assert!(r >= cur);
        prop_assert!(r >= ind);
        prop_assert!(r >= sdw.r1);
        prop_assert!(r == cur || r == ind || r == sdw.r1);
    }

    /// 36-bit word arithmetic: wrapping matches i64 arithmetic mod 2^36.
    #[test]
    fn word_arithmetic_mod_2_36(a in any::<u64>(), b in any::<u64>()) {
        let wa = Word::new(a);
        let wb = Word::new(b);
        let mask = (1u64 << 36) - 1;
        prop_assert_eq!(wa.wrapping_add(wb).raw(), (wa.raw().wrapping_add(wb.raw())) & mask);
        prop_assert_eq!(wa.wrapping_sub(wb).raw(), (wa.raw().wrapping_sub(wb.raw())) & mask);
        prop_assert_eq!(Word::from_signed(wa.as_signed()), wa);
    }

    /// Assembler/disassembler round trip over random instructions.
    #[test]
    fn asm_disasm_round_trip(raw in any::<u64>()) {
        let w = Word::new(raw);
        if let Ok(instr) = multiring::cpu::isa::Instr::decode(w) {
            let text = multiring::asm::disassemble(&instr);
            let out = multiring::asm::assemble(&text)
                .unwrap_or_else(|e| panic!("`{text}` failed: {e}"));
            prop_assert_eq!(out.words.len(), 1);
            prop_assert_eq!(out.words[0], instr.encode());
        }
    }

    /// PtrReg ring floors are idempotent and monotone.
    #[test]
    fn pr_ring_floor_properties(ring in arb_ring(), floor in arb_ring(), addr in arb_addr()) {
        let pr = PtrReg::new(ring, addr);
        let once = pr.with_ring_floor(floor);
        prop_assert!(once.ring >= floor);
        prop_assert!(once.ring >= ring);
        prop_assert_eq!(once.with_ring_floor(floor), once);
    }

    /// SDW corruption cannot widen brackets: unpacking arbitrary bits
    /// yields r1 <= r2 <= r3.
    #[test]
    fn sdw_unpack_preserves_ring_ordering(w0 in any::<u64>(), w1 in any::<u64>()) {
        let sdw = Sdw::unpack(Word::new(w0), Word::new(w1));
        prop_assert!(sdw.r1 <= sdw.r2);
        prop_assert!(sdw.r2 <= sdw.r3);
    }

    /// SdwBuilder bound_words always covers the requested length.
    #[test]
    fn bound_words_covers(words in 1u32..(1 << 18)) {
        let sdw = SdwBuilder::new().bound_words(words).build();
        prop_assert!(sdw.length_words() >= words);
        prop_assert!(sdw.length_words() < words + 16);
    }
}

/// Machine-level property: across random short programs, the hardware
/// invariant `PRn.RING >= IPR.RING` holds after every instruction.
#[test]
fn pr_invariant_over_random_programs() {
    use multiring::core::sdw::SdwBuilder;
    use multiring::cpu::isa::{AddrMode, Instr, Opcode};
    use multiring::cpu::machine::StepOutcome;
    use multiring::cpu::native::NativeAction;
    use multiring::cpu::testkit::World;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x1971);
    for _ in 0..60 {
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R4)
                .write(false)
                .gates(4)
                .bound_words(256),
        );
        let data = w.add_segment(11, SdwBuilder::data(Ring::R4, Ring::R4).bound_words(256));
        w.add_standard_stacks(16);
        let trap = w.add_trap_segment();
        w.machine
            .register_native(trap, |_, _| Ok(NativeAction::Halt));
        // Random instruction soup (data-ish words too); faults are fine
        // — the invariant must hold regardless.
        for i in 0..64u32 {
            let op = *[
                Opcode::Lda,
                Opcode::Sta,
                Opcode::Ada,
                Opcode::Eap,
                Opcode::Spri,
                Opcode::Tra,
                Opcode::Call,
                Opcode::Return,
                Opcode::Aos,
                Opcode::Nop,
            ]
            .get(rng.gen_range(0..10usize))
            .unwrap();
            let mut instr = Instr {
                opcode: op,
                pr: if rng.gen_bool(0.6) {
                    Some(rng.gen_range(0..8))
                } else {
                    None
                },
                indirect: rng.gen_bool(0.2),
                mode: if rng.gen_bool(0.2) {
                    AddrMode::Immediate
                } else {
                    AddrMode::None
                },
                xreg: rng.gen_range(0..8),
                offset: rng.gen_range(0..64),
            };
            if rng.gen_bool(0.3) {
                instr.offset = rng.gen_range(0..256);
            }
            w.poke(code, i, instr.encode());
        }
        for n in 0..8 {
            w.machine.set_pr(
                n,
                PtrReg::new(
                    Ring::R4,
                    SegAddr::from_parts(
                        if n % 2 == 0 {
                            code.value()
                        } else {
                            data.value()
                        },
                        (n * 8) as u32,
                    )
                    .unwrap(),
                ),
            );
        }
        w.start(Ring::R4, code, 0);
        for _ in 0..200 {
            match w.machine.step() {
                StepOutcome::Ran | StepOutcome::Trapped(_) => {
                    for n in 0..8 {
                        assert!(
                            w.machine.pr(n).ring >= w.machine.ring(),
                            "PR{n} ring {} below IPR ring {}",
                            w.machine.pr(n).ring,
                            w.machine.ring()
                        );
                    }
                }
                StepOutcome::Halted => break,
            }
        }
    }
}
