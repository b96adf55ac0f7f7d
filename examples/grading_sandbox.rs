//! The grading sandbox from the paper's "Use of Rings": "Ring 6 of a
//! process might be used, for example, to provide a suitably isolated
//! environment for student programs being evaluated by a grading
//! program executing in ring 4."
//!
//! The student program runs in ring 6: it can compute and write its
//! answer where the grader allows, but it cannot call supervisor gates
//! (their gate extension ends at ring 5) and it cannot touch the
//! grader's ring-4 records.
//!
//! Run with: `cargo run --example grading_sandbox`

use multiring::core::ring::Ring;
use multiring::core::word::Word;
use multiring::os::conventions::segs;
use multiring::os::System;

fn main() {
    let mut sys = System::boot();
    let pid = sys.login("student");

    // The grader's private records: ring-4 brackets.
    let records = sys.install_data(pid, Ring::R4, Ring::R4, &[Word::new(0o777); 8], 16);
    // The answer sheet the student may write: brackets end at ring 6.
    let answers = sys.install_data(pid, Ring::R6, Ring::R6, &[Word::ZERO; 8], 16);

    // Student program (ring 6): compute 6 * 7, store the answer, then
    // try two forbidden things — reading the grader's records and
    // calling a supervisor gate.
    let assignment = format!(
        "
        eap pr4, ansp,*
        lda =6
        mpy =7
        sta pr4|0           ; legitimate: the answer sheet
        eap pr5, recp,*
        lda pr5|0           ; forbidden: the grader's records
        drl 0o777
ansp:   its 6, {ans}, 0
recp:   its 6, {rec}, 0
",
        ans = answers.segno,
        rec = records.segno,
    );
    let code = sys.install_code(pid, Ring::R6, Ring::R6, 0, &assignment);
    let exit = sys.run_user(pid, code.segno, 0, Ring::R6, 1_000);
    let reason = sys.state().processes[pid].aborted.clone().unwrap();
    println!("student run: {exit:?}");
    println!("  snooping attempt: {reason}");
    assert!(reason.contains("access violation"));

    // The answer landed; the records were never readable.
    let asdw = sys.read_sdw(pid, answers.segno);
    let answer = sys.machine.phys().peek(asdw.addr).unwrap();
    println!("  answer sheet[0] = {}", answer.raw());
    assert_eq!(answer.raw(), 42);

    // A second student tries to call the supervisor directly from
    // ring 6: the gate extension (rings <= 5) refuses the CALL itself.
    let mut sys = System::boot();
    let pid = sys.login("student2");
    let cheat = format!(
        "
        eap pr2, ret0
        eap pr3, gatep,*
        call pr3|0
ret0:   drl 0o777
gatep:  its 6, {hcs}, 0
",
        hcs = segs::HCS,
    );
    let code = sys.install_code(pid, Ring::R6, Ring::R6, 0, &cheat);
    sys.run_user(pid, code.segno, 0, Ring::R6, 1_000);
    let reason = sys.state().processes[pid].aborted.clone().unwrap();
    println!("supervisor call from ring 6: {reason}");
    assert!(reason.contains("gate extension"));

    // The grader (ring 4) reads the answer and grades it — ring 4 is
    // within the answer sheet's read bracket [0,6].
    let mut sys = System::boot();
    let pid = sys.login("grader");
    let answers = sys.install_data(pid, Ring::R6, Ring::R6, &[Word::new(42); 1], 16);
    let grader = format!(
        "
        eap pr4, ansp,*
        lda pr4|0
        cmpa =42
        tze pass
        lda =0
        tra out
pass:   lda =100
out:    drl 0o777
ansp:   its 4, {ans}, 0
",
        ans = answers.segno,
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &grader);
    sys.run_user(pid, code.segno, 0, Ring::R4, 1_000);
    println!("grader's score for the student: {}", sys.machine.a().raw());
    assert_eq!(sys.machine.a().raw(), 100);
}
