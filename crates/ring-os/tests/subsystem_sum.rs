//! Remaining subsystem coverage: the audit subsystem's SUM gate, audit
//! accumulation across calls, and subsystem isolation between two
//! installed subsystems.

use ring_core::addr::SegAddr;
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::machine::RunExit;
use ring_os::conventions::gate_addr;
use ring_os::driver::gen_call_sequence;
use ring_os::subsystems;
use ring_os::System;

#[test]
fn audited_sum_computes_and_logs() {
    let mut sys = System::boot();
    let pid = sys.login("bob");
    let sensitive: Vec<Word> = (1..=6).map(Word::new).collect();
    let sub = subsystems::install(&mut sys, pid, "alice", &sensitive);

    let mut data = vec![Word::new(6)]; // count
    data.resize(64, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 64);
    let seq = gen_call_sequence(
        Ring::R4,
        &[
            (
                gate_addr(sub.gate_segno, subsystems::gate::SUM),
                vec![
                    SegAddr::from_parts(scratch.segno, 0).unwrap(),
                    SegAddr::from_parts(scratch.segno, 10).unwrap(),
                ],
            ),
            // A second call: audit records accumulate.
            (
                gate_addr(sub.gate_segno, subsystems::gate::READ),
                vec![
                    SegAddr::from_parts(scratch.segno, 1).unwrap(), // index 0
                    SegAddr::from_parts(scratch.segno, 11).unwrap(),
                ],
            ),
        ],
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    assert_eq!(
        sys.run_user(pid, code.segno, 0, Ring::R4, 10_000),
        RunExit::Halted
    );
    assert_eq!(sys.machine.a().raw(), 0);
    let sdw = sys.read_sdw(pid, scratch.segno);
    assert_eq!(
        sys.machine.phys().peek(sdw.addr.wrapping_add(10)).unwrap(),
        Word::new(21),
        "1+2+..+6"
    );
    assert_eq!(
        sys.machine.phys().peek(sdw.addr.wrapping_add(11)).unwrap(),
        Word::new(1),
        "read[0] = 1"
    );
    let log = sys.state().audit_log.clone();
    assert_eq!(log.len(), 2);
    assert!(log[0].operation.contains("sum[0..6]"));
    assert!(log[1].operation.contains("read[0]"));
}

#[test]
fn bad_gate_entry_in_subsystem_reports_error_status() {
    // Calling the subsystem's gate word 1 with an out-of-range index
    // returns an error status, not a process abort: the subsystem
    // handles its own argument errors (no supervisor involved).
    let mut sys = System::boot();
    let pid = sys.login("bob");
    let sub = subsystems::install(&mut sys, pid, "alice", &[Word::new(5)]);
    let mut data = vec![Word::new(500)]; // index far out of the data
    data.resize(64, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 64);
    let seq = gen_call_sequence(
        Ring::R4,
        &[(
            gate_addr(sub.gate_segno, subsystems::gate::READ),
            vec![
                SegAddr::from_parts(scratch.segno, 0).unwrap(),
                SegAddr::from_parts(scratch.segno, 10).unwrap(),
            ],
        )],
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    assert_eq!(
        sys.run_user(pid, code.segno, 0, Ring::R4, 10_000),
        RunExit::Halted
    );
    assert_ne!(sys.machine.a().raw(), 0, "error status returned");
    assert_eq!(
        sys.state().processes[pid].aborted.as_deref(),
        Some("exit"),
        "the caller continued normally after the refused read"
    );
    assert!(sys.state().audit_log.is_empty(), "nothing was audited");
}

#[test]
fn two_subsystems_in_one_process_are_isolated() {
    // "Different protected subsystems may be operated simultaneously":
    // two audit subsystems side by side; each gate reaches only its own
    // data.
    let mut sys = System::boot();
    let pid = sys.login("bob");
    let sub_a = subsystems::install(&mut sys, pid, "alice", &[Word::new(0o111); 4]);
    let sub_b = subsystems::install(&mut sys, pid, "carol", &[Word::new(0o222); 4]);
    assert_ne!(sub_a.data_segno, sub_b.data_segno);
    assert_ne!(sub_a.gate_segno, sub_b.gate_segno);

    let mut data = vec![Word::new(2)]; // index
    data.resize(64, Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 64);
    let seq = gen_call_sequence(
        Ring::R4,
        &[
            (
                gate_addr(sub_a.gate_segno, subsystems::gate::READ),
                vec![
                    SegAddr::from_parts(scratch.segno, 0).unwrap(),
                    SegAddr::from_parts(scratch.segno, 10).unwrap(),
                ],
            ),
            (
                gate_addr(sub_b.gate_segno, subsystems::gate::READ),
                vec![
                    SegAddr::from_parts(scratch.segno, 0).unwrap(),
                    SegAddr::from_parts(scratch.segno, 11).unwrap(),
                ],
            ),
        ],
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    assert_eq!(
        sys.run_user(pid, code.segno, 0, Ring::R4, 10_000),
        RunExit::Halted
    );
    let sdw = sys.read_sdw(pid, scratch.segno);
    assert_eq!(
        sys.machine.phys().peek(sdw.addr.wrapping_add(10)).unwrap(),
        Word::new(0o111)
    );
    assert_eq!(
        sys.machine.phys().peek(sdw.addr.wrapping_add(11)).unwrap(),
        Word::new(0o222)
    );
    let log = sys.state().audit_log.clone();
    assert_eq!(log.len(), 2);
    assert!(log[0].operation.contains("alice"));
    assert!(log[1].operation.contains("carol"));
}
