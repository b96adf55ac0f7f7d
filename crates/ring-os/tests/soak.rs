//! Soak test: several processes under the scheduler, each mixing gate
//! calls, demand loading, demand paging, protected-subsystem calls and
//! plain computation — the whole system running together for a long
//! stretch with invariants checked at the end.

use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_os::acl::{Acl, AclEntry, Modes};
use ring_os::conventions::{hcs, segs};
use ring_os::strings::encode_string;
use ring_os::{System, SystemConfig};

#[test]
fn mixed_workload_soak() {
    let mut sys = System::boot_with(SystemConfig {
        quantum: 700,
        ..SystemConfig::default()
    });

    // Shared storage: one small and one paged segment per user.
    let users = ["alice", "bob", "carol"];
    for u in &users {
        let acl =
            Acl::single(AclEntry::new(u, Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0).unwrap());
        sys.create_segment(
            &format!("udd>{u}>small"),
            acl.clone(),
            (0u64..64).map(Word::new).collect(),
        );
        sys.create_segment(
            &format!("udd>{u}>big"),
            acl,
            (0u64..6000).map(Word::new).collect(),
        );
    }

    let mut procs = Vec::new();
    for u in &users {
        let pid = sys.login(u);
        // Each process initiates both segments, reads spread-out words
        // from the big one (forcing several page faults), sums into a
        // counter, and loops forever.
        let mut data = encode_string(&format!("udd>{u}>small"));
        let big_pos = data.len() as u32;
        data.extend(encode_string(&format!("udd>{u}>big")));
        data.resize(256, Word::ZERO);
        let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 256);
        let src = format!(
            "
        eap pr4, scratchp,*
        ; initiate small
        eap pr1, args_s
        eap pr2, r0
        eap pr3, gatep,*
        call pr3|0
r0:     tnz stop
        ; initiate big
        eap pr1, args_b
        eap pr2, r1
        eap pr3, gatep,*
        call pr3|0
r1:     tnz stop
        ; build pointers: small -> pr4|110, big -> pr4|112
        lda pr4|100
        als 18
        sta pr4|110
        stz pr4|111
        lda pr4|101
        als 18
        ora =5000           ; far word: page 4
        sta pr4|112
        stz pr4|113
loop:   lda pr4|110,*       ; small[0]
        ada pr4|112,*       ; + big[5000]
        sta pr4|120         ; scratch accumulator
        aos pr4|121         ; iteration counter
        tra loop
stop:   drl 0o777
gatep:  its 4, {hcs_seg}, {init}
scratchp: its 4, {sc}, 0
args_s: its 4, {sc}, 0
        its 4, {sc}, 100
args_b: its 4, {sc}, {big}
        its 4, {sc}, 101
",
            hcs_seg = segs::HCS,
            init = hcs::INITIATE,
            sc = scratch.segno,
            big = big_pos,
        );
        let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
        procs.push((pid, scratch.segno, code.segno));
    }

    for &(pid, _, code) in procs.iter().skip(1) {
        sys.prepare(pid, code, 0, Ring::R4);
        sys.park(pid);
    }
    let (p0, _, c0) = procs[0];
    sys.prepare(p0, c0, 0, Ring::R4);
    sys.machine.set_timer(Some(700));
    assert_eq!(sys.machine.run(60_000), RunExit::BudgetExhausted);

    let st = sys.stats();
    assert_eq!(st.aborts, 0, "no process died: {:?}", collect_aborts(&sys));
    assert_eq!(
        st.segment_faults, 6,
        "each process demand-loaded two segments"
    );
    assert!(
        st.page_faults >= 3,
        "each big segment paged in its far page"
    );
    assert!(st.schedules > 10, "the scheduler kept rotating");
    for &(pid, scratch, _) in &procs {
        let sdw = sys.read_sdw(pid, scratch);
        let iterations = sys.machine.phys().peek(sdw.addr.wrapping_add(121)).unwrap();
        assert!(
            iterations.raw() > 50,
            "process {pid} made progress: {iterations:?}"
        );
        let acc = sys.machine.phys().peek(sdw.addr.wrapping_add(120)).unwrap();
        assert_eq!(acc.raw(), 5000, "small[0]=0 + big[5000]=5000");
    }
    // The PR invariant held throughout (spot check at the end).
    for n in 0..8 {
        assert!(sys.machine.pr(n).ring >= sys.machine.ring());
    }
}

fn collect_aborts(sys: &System) -> Vec<(usize, String)> {
    sys.state()
        .processes
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.aborted.clone().map(|r| (i, r)))
        .collect()
}
