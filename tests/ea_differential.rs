//! Differential test of effective-address formation: random indirect
//! chains through the real pipeline vs. the naive oracle (the effective
//! ring is the plain maximum of every contribution).

use multiring::core::oracle;
use multiring::core::registers::{IndWord, PtrReg};
use multiring::core::ring::Ring;
use multiring::core::sdw::SdwBuilder;
use multiring::cpu::isa::{Instr, Opcode};
use multiring::cpu::machine::{MachineConfig, StepOutcome};
use multiring::cpu::testkit::{addr, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn effective_ring_matches_oracle_over_random_chains() {
    let mut rng = StdRng::seed_from_u64(0x5105);
    let mut checked = 0;
    for _ in 0..300 {
        let exec_ring = Ring::new(rng.gen_range(0..8)).unwrap();
        let pr_ring = Ring::new(rng.gen_range(exec_ring.number()..8)).unwrap();
        let depth = rng.gen_range(0..5u32);

        // Chain tables 20..20+depth, each readable by everyone (so the
        // chain never faults on read) with a random write-bracket top;
        // final target segment 19. Each hop is (write-bracket top,
        // indirect-word ring, next address).
        let mut contributions = vec![exec_ring.number(), pr_ring.number()];
        let mut hops = Vec::new();
        for i in 0..depth {
            let r1 = rng.gen_range(0..8u8);
            let ind_ring = rng.gen_range(0..8u8);
            let last = i + 1 == depth;
            let next = if last {
                addr(19, rng.gen_range(0..32))
            } else {
                addr(20 + i + 1, 0)
            };
            hops.push((r1, ind_ring, next));
            contributions.push(r1);
            contributions.push(ind_ring);
        }
        let base = if depth == 0 { addr(19, 3) } else { addr(20, 0) };
        let world = |fastpath: bool| {
            let mut w = World::with_config(MachineConfig {
                fastpath,
                ..Default::default()
            });
            let code = w.add_segment(
                10,
                SdwBuilder::procedure(exec_ring, exec_ring, exec_ring).bound_words(64),
            );
            w.start(exec_ring, code, 0);
            w.add_segment(19, SdwBuilder::data(Ring::R7, Ring::R7).bound_words(64));
            for (i, &(r1, ind_ring, next)) in (0u32..).zip(&hops) {
                let seg = w.add_segment(
                    20 + i,
                    SdwBuilder::data(Ring::new(r1).unwrap(), Ring::R7).bound_words(64),
                );
                let more = i + 1 < depth;
                w.write_ind_word(
                    seg,
                    0,
                    IndWord::new(Ring::new(ind_ring).unwrap(), next, more),
                );
            }
            w.machine.set_pr(1, PtrReg::new(pr_ring, base));
            (w, code)
        };
        let (mut w, code) = world(true);

        let mut instr = Instr::pr_relative(Opcode::Lda, 1, 0);
        if depth > 0 {
            instr = instr.with_indirect();
        }
        // Important subtlety: mid-chain reads validate at the RUNNING
        // effective ring; since every table is readable through ring 7
        // the chain cannot fault on brackets, so the final ring must be
        // the oracle's plain max of contributions seen along the way.
        // For depth == 0 only the first two contributions apply.
        let expected = if depth == 0 {
            oracle::effective_ring(&contributions[..2])
        } else {
            oracle::effective_ring(&contributions)
        };
        let what =
            format!("exec={exec_ring} pr={pr_ring} depth={depth} contributions={contributions:?}");
        match w.machine.effective_address(&instr, code) {
            Ok(tpr) => {
                assert_eq!(tpr.ring, expected, "{what}");
                checked += 1;
            }
            Err(e) => panic!("chain unexpectedly faulted: {e}"),
        }
        if depth == 0 {
            continue;
        }

        // Both engines and the native accessor share one walk, so the
        // lockstep differential cannot see a fold that walk drops. Form
        // the chain three more ways against the oracle: `eap pr2,
        // pr1|0,*` on each engine, where the repeat commits on the fast
        // path of a fast-path machine, and `read_pointer_validated`.
        let eap = Instr::pr_relative(Opcode::Eap, 1, 0)
            .with_indirect()
            .with_xreg(2);
        for fastpath in [true, false] {
            let (mut w, code) = world(fastpath);
            w.poke_instr(code, 0, eap);
            w.poke_instr(code, 1, eap);
            for run in 0..2 {
                assert_eq!(w.machine.step(), StepOutcome::Ran, "{what}");
                assert_eq!(
                    w.machine.pr(2).ring,
                    expected,
                    "fastpath={fastpath} run={run} {what}"
                );
            }
            let fast_steps = u64::from(fastpath);
            assert_eq!(w.machine.stats().fast_steps, fast_steps, "{what}");
        }
        let ptr = w
            .machine
            .read_pointer_validated(PtrReg::new(pr_ring, base))
            .expect("chain reads");
        assert_eq!(ptr.ring, expected, "read_pointer_validated {what}");
    }
    assert!(checked >= 300);
}

#[test]
fn shared_paged_segment_loads_each_page_once() {
    use multiring::core::word::Word;
    use multiring::cpu::machine::RunExit;
    use multiring::os::acl::{Acl, AclEntry, Modes};
    use multiring::os::conventions::{hcs, segs};
    use multiring::os::strings::encode_string;
    use multiring::os::System;

    let mut sys = System::boot();
    let mut acl = Acl::new();
    for u in ["alice", "bob"] {
        acl.push(AclEntry::new(u, Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap());
    }
    sys.create_segment("big>shared", acl, (0u64..6000).map(Word::new).collect());

    let touch = |sys: &mut System, pid: usize| {
        let mut data = encode_string("big>shared");
        data.resize(128, Word::ZERO);
        let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 128);
        let src = format!(
            "
        eap pr4, scratchp,*
        eap pr1, args
        eap pr2, r0
        eap pr3, gatep,*
        call pr3|0
r0:     tnz out
        lda pr4|100
        als 18
        ora =4500           ; page 4
        sta pr4|110
        stz pr4|111
        lda pr4|110,*
        sta pr4|101
        lda =0
out:    drl 0o777
gatep:  its 4, {hcs_seg}, {init}
scratchp: its 4, {sc}, 0
args:   its 4, {sc}, 0
        its 4, {sc}, 100
",
            hcs_seg = segs::HCS,
            init = hcs::INITIATE,
            sc = scratch.segno,
        );
        let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
        assert_eq!(
            sys.run_user(pid, code.segno, 0, Ring::R4, 20_000),
            RunExit::Halted
        );
        assert_eq!(sys.machine.a().raw(), 0);
    };

    let alice = sys.login("alice");
    let bob = sys.login("bob");
    touch(&mut sys, alice);
    let faults_after_alice = sys.stats().page_faults;
    assert_eq!(faults_after_alice, 1, "alice paged in page 4");
    touch(&mut sys, bob);
    assert_eq!(
        sys.stats().page_faults,
        1,
        "bob shares the page table: page 4 was already present"
    );
    assert_eq!(sys.stats().segment_faults, 2, "each mapped it once");
}
