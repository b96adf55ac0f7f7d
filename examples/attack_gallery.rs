//! An attack gallery: the classic domain-crossing attacks, each
//! attempted against the simulated hardware, each stopped by a
//! different mechanism from the paper.
//!
//! Run with: `cargo run --example attack_gallery`

use multiring::core::effective::EffectiveRingRules;
use multiring::core::ring::Ring;
use multiring::core::word::Word;
use multiring::os::conventions::segs;
use multiring::os::System;
use ring_bench::tables::argument_attack_succeeds;

fn run_attack(name: &str, src: &str, mechanism: &str) -> multiring::metrics::MetricsSnapshot {
    let mut sys = System::boot();
    sys.enable_metrics();
    let pid = sys.login("mallory");
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, src);
    sys.run_user(pid, code.segno, 0, Ring::R4, 2_000);
    let verdict = sys.state().processes[pid]
        .aborted
        .clone()
        .unwrap_or_else(|| "STILL RUNNING".into());
    assert_ne!(verdict, "exit", "attack must not complete cleanly");
    println!("[blocked] {name}\n          fault: {verdict}\n          mechanism: {mechanism}\n");
    sys.metrics_snapshot()
}

fn main() {
    println!("every attack below runs as real machine code in ring 4\n");
    let mut snaps = Vec::new();

    snaps.push(run_attack(
        "read supervisor data directly",
        &format!(
            "
        eap pr4, p,*
        lda pr4|0
        drl 0o777
p:      its 4, {}, 0
",
            segs::SUP_DATA
        ),
        "read bracket [0, R2] in the SDW (Fig. 6)",
    ));

    snaps.push(run_attack(
        "write the trap vectors",
        &format!(
            "
        eap pr4, p,*
        stz pr4|0
        drl 0o777
p:      its 4, {}, 0
",
            segs::TRAP
        ),
        "write bracket [0, R1] in the SDW (Fig. 6)",
    ));

    snaps.push(run_attack(
        "jump into the middle of the supervisor (skip the gate)",
        &format!(
            "
        eap pr3, p,*
        tra pr3|0
        drl 0o777
p:      its 4, {}, 12
",
            segs::HCS
        ),
        "ordinary transfers cannot change the ring; the advance check \
         refuses execution outside the bracket (Fig. 7)",
    ));

    snaps.push(run_attack(
        "CALL a non-gate word of the supervisor",
        &format!(
            "
        eap pr2, r
        eap pr3, p,*
        call pr3|0
r:      drl 0o777
p:      its 4, {}, 12
",
            segs::HCS
        ),
        "the gate list: transfers from above the bracket must enter at \
         words 0..SDW.GATE (Fig. 8)",
    ));

    snaps.push(run_attack(
        "forge a RETURN into ring 1",
        &format!(
            "
        eap pr3, p,*
        return pr3|0
        drl 0o777
p:      its 0, {}, 0        ; forged ring field: 0
",
            segs::RING1
        ),
        "the effective ring is a running max seeded with the ring of \
         execution; the downward return traps and the supervisor finds \
         no matching return gate (Fig. 9 + software)",
    ));

    // The confused-deputy argument attack, with and without the
    // effective-ring rules (the T6 ablation).
    let blocked = !argument_attack_succeeds(EffectiveRingRules::PAPER);
    let would_succeed = argument_attack_succeeds(EffectiveRingRules::NO_IND_TRACKING);
    assert!(blocked && would_succeed);
    println!(
        "[blocked] confused-deputy argument pointer at ring-1 data\n          \
         mechanism: effective-ring folding over indirect words and the\n          \
         write-bracket top of every segment they pass through (Fig. 5)\n          \
         (ablating those rules, as in the 1969 thesis, the same attack succeeds)\n"
    );

    // Privilege escalation by ACL: mallory grants herself ring-2
    // brackets — refused by the sole-occupant rule in the supervisor.
    let mut sys = System::boot();
    sys.login("mallory");
    let mut acl = multiring::os::acl::Acl::new();
    let grab = multiring::os::acl::AclEntry::new(
        "mallory",
        multiring::os::acl::Modes::RW,
        (Ring::R2, Ring::R2, Ring::R2),
        0,
    )
    .unwrap();
    let refused = acl.set(grab, Ring::R4).is_err();
    assert!(refused);
    println!(
        "[blocked] grant yourself ring-2 brackets via set_acl\n          \
         mechanism: the sole-occupant rule — a program executing in ring n\n          \
         cannot specify R1, R2 or R3 below n\n"
    );

    let _ = Word::ZERO;
    println!("7 attacks, 7 distinct mechanisms, 0 successes");

    // What the observability layer recorded across the machine-code
    // attacks: every blocked attempt shows up as a fault, and the
    // heatmap names the segments that were probed.
    let faults: u64 = snaps.iter().map(|s| s.faults_total).sum();
    let violations: u64 = snaps
        .iter()
        .flat_map(|s| s.heatmap.iter())
        .map(|(_, h)| h.violations)
        .sum();
    let instructions: u64 = snaps.iter().map(|s| s.instructions).sum();
    let mut probed: Vec<u32> = snaps
        .iter()
        .flat_map(|s| s.heatmap.iter())
        .filter(|(_, h)| h.violations > 0)
        .map(|(segno, _)| *segno)
        .collect();
    probed.sort_unstable();
    probed.dedup();
    println!(
        "\nmetrics: {instructions} attack instructions, {faults} faults, \
         {violations} bracket violations (segments probed: {probed:?})"
    );
}
