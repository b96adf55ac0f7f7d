//! Scheduler behaviour at scale: fairness over many processes,
//! survival of aborted processes, and the cost of context switches
//! (DBR load + SDW-cache flush) showing up in the accounting.

use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_os::{System, SystemConfig};

/// Builds `n` processes, each incrementing a private counter forever,
/// and runs them under the round-robin scheduler.
fn counting_world(n: usize, quantum: u64) -> (System, Vec<(usize, u32)>) {
    let mut sys = System::boot_with(SystemConfig {
        quantum,
        ..SystemConfig::default()
    });
    let mut procs = Vec::new();
    for i in 0..n {
        let pid = sys.login(&format!("user{i}"));
        let data = sys.install_data(pid, Ring::R4, Ring::R4, &[Word::ZERO], 16);
        let src = format!(
            "
        eap pr4, ctr,*
loop:   aos pr4|0
        tra loop
ctr:    its 4, {}, 0
",
            data.segno
        );
        let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &src);
        procs.push((pid, data.segno, code.segno));
    }
    // Park everyone but process 0 ready-to-run; start 0 live.
    for &(pid, _, code) in procs.iter().skip(1) {
        sys.prepare(pid, code, 0, Ring::R4);
        sys.park(pid);
    }
    let (p0, _, c0) = procs[0];
    sys.prepare(p0, c0, 0, Ring::R4);
    sys.machine.set_timer(Some(quantum));
    let out = procs.iter().map(|&(pid, d, _)| (pid, d)).collect();
    (sys, out)
}

fn counters(sys: &System, procs: &[(usize, u32)]) -> Vec<u64> {
    procs
        .iter()
        .map(|&(pid, segno)| {
            let sdw = sys.read_sdw(pid, segno);
            sys.machine.phys().peek(sdw.addr).unwrap().raw()
        })
        .collect()
}

#[test]
fn ten_processes_share_fairly() {
    let (mut sys, procs) = counting_world(10, 300);
    assert_eq!(sys.machine.run(40_000), RunExit::BudgetExhausted);
    let counts = counters(&sys, &procs);
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    assert!(min > 0, "every process ran: {counts:?}");
    assert!(
        max <= 3 * min.max(1),
        "round-robin keeps shares within 3x: {counts:?}"
    );
    assert!(sys.stats().schedules as usize >= 10, "many switches");
}

#[test]
fn aborted_process_is_skipped_but_others_continue() {
    let mut sys = System::boot_with(SystemConfig {
        quantum: 300,
        ..SystemConfig::default()
    });
    // Process 0 loops forever; process 1 faults immediately.
    let p0 = sys.login("good");
    let d0 = sys.install_data(p0, Ring::R4, Ring::R4, &[Word::ZERO], 16);
    let c0 = {
        let src = format!(
            "
        eap pr4, ctr,*
loop:   aos pr4|0
        tra loop
ctr:    its 4, {}, 0
",
            d0.segno
        );
        sys.install_code(p0, Ring::R4, Ring::R4, 0, &src)
    };
    let p1 = sys.login("bad");
    let c1 = sys.install_code(
        p1,
        Ring::R4,
        Ring::R4,
        0,
        "
        eap pr4, wildp,*
        lda pr4|0           ; faults: segment 1 is ring-0 only
        drl 0o777
wildp:  its 4, 1, 100
",
    );
    sys.prepare(p1, c1.segno, 0, Ring::R4);
    sys.park(p1);
    sys.prepare(p0, c0.segno, 0, Ring::R4);
    sys.machine.set_timer(Some(300));
    assert_eq!(sys.machine.run(5_000), RunExit::BudgetExhausted);
    assert!(
        sys.state().processes[p1].aborted.is_some(),
        "the bad process aborted"
    );
    let sdw = sys.read_sdw(p0, d0.segno);
    let n0 = sys.machine.phys().peek(sdw.addr).unwrap().raw();
    assert!(n0 > 1000, "the good process kept the machine: {n0}");
}

#[test]
fn context_switches_flush_the_sdw_cache() {
    let (mut sys, _procs) = counting_world(2, 200);
    sys.machine.translator_mut().reset_cache_stats();
    sys.machine.run(5_000);
    let stats = sys.machine.translator().cache_stats();
    let switches = sys.stats().schedules;
    assert!(
        stats.flushes >= switches,
        "every DBR switch flushes: {} flushes vs {} switches",
        stats.flushes,
        switches
    );
    assert!(
        stats.misses > switches,
        "post-switch misses re-walk descriptors"
    );
}
