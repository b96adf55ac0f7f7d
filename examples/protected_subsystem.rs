//! A user-constructed protected subsystem (the paper's "Use of Rings"):
//! alice lets bob at her sensitive data *only* through her ring-2 audit
//! program. Bob's direct references fault; his gated calls succeed and
//! leave an audit trail — and no supervisor code was involved or
//! audited for inclusion.
//!
//! Run with: `cargo run --example protected_subsystem`

use multiring::core::ring::Ring;
use multiring::core::word::Word;
use multiring::cpu::machine::RunExit;
use multiring::os::subsystems;
use multiring::os::System;

fn main() {
    // --- Attempt 1: bob reads the sensitive data directly ------------
    let mut sys = System::boot();
    sys.enable_metrics();
    let pid = sys.login("bob");
    let sensitive: Vec<Word> = (0..8).map(|i| Word::new(1000 + i)).collect();
    let sub = subsystems::install(&mut sys, pid, "alice", &sensitive);
    println!(
        "alice's data is segment {} (brackets end at ring 2); audit gates at segment {}",
        sub.data_segno, sub.gate_segno
    );

    let direct = format!(
        "
        eap pr4, datap,*
        lda pr4|3           ; direct reference from ring 4
        drl 0o777
datap:  its 4, {}, 0
",
        sub.data_segno
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &direct);
    let exit = sys.run_user(pid, code.segno, 0, Ring::R4, 1_000);
    let reason = sys.state().processes[pid].aborted.clone().unwrap();
    println!("direct access from ring 4: {exit:?} — process aborted: {reason}");
    assert!(reason.contains("access violation"));

    // --- Attempt 2: bob calls through alice's audit gate --------------
    let snap = sys.metrics_snapshot();
    println!(
        "metrics: {} faults; segment {} saw {} violation(s) out of {} read attempt(s)",
        snap.faults_total,
        sub.data_segno,
        snap.heatmap
            .iter()
            .find(|(segno, _)| *segno == sub.data_segno)
            .map_or(0, |(_, h)| h.violations),
        snap.heatmap
            .iter()
            .find(|(segno, _)| *segno == sub.data_segno)
            .map_or(0, |(_, h)| h.reads),
    );

    let mut sys = System::boot();
    sys.enable_metrics();
    let pid = sys.login("bob");
    let sub = subsystems::install(&mut sys, pid, "alice", &sensitive);
    let mut data = vec![Word::new(3)]; // index to read
    data.resize(64, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 64);
    let gated = format!(
        "
        eap pr1, args
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0          ; ring 4 -> ring 2, through the gate
ret0:   drl 0o777
gatep:  its 4, {gseg}, {read}
args:   its 4, {sc}, 0      ; arg0: index
        its 4, {sc}, 10     ; arg1: result
",
        gseg = sub.gate_segno,
        read = subsystems::gate::READ,
        sc = scratch.segno,
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &gated);
    let exit = sys.run_user(pid, code.segno, 0, Ring::R4, 10_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(sys.machine.a().raw(), 0, "gate call succeeded");

    let sdw = sys.read_sdw(pid, scratch.segno);
    let value = sys.machine.phys().peek(sdw.addr.wrapping_add(10)).unwrap();
    println!("gated read returned {}", value.raw());
    assert_eq!(value.raw(), 1003);

    for rec in sys.state().audit_log.iter() {
        println!(
            "audit: user {} (ring {}) did {}",
            rec.user, rec.caller_ring, rec.operation
        );
    }
    assert_eq!(sys.state().audit_log.len(), 1);
    assert_eq!(
        sys.stats().gate_calls_hcs,
        0,
        "no supervisor gate was involved — the subsystem protects itself"
    );
    println!("supervisor involvement: none (rings 2-3 protect user subsystems by themselves)");

    // The gated run, as the observability layer saw it: the crossings
    // are hardware call/returns into ring 2 and back, with no trap.
    let snap = sys.metrics_snapshot();
    let crossings: Vec<String> = snap
        .crossings
        .iter()
        .filter(|(_, v)| *v > 0)
        .map(|(k, v)| format!("{v} {k}"))
        .collect();
    println!(
        "metrics: crossings {} ({} ring changes), {} fault(s), sdw cache {:.0}% hit",
        crossings.join(", "),
        snap.ring_changes,
        snap.faults_total,
        100.0 * snap.sdw_cache.hit_ratio(),
    );
}
