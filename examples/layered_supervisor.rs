//! The layered supervisor and processor multiplexing: ring-1 services
//! (accounting, stream output) over ring-0 primitives, plus two
//! processes time-sliced by the timer — all protection enforced by the
//! ring hardware.
//!
//! Run with: `cargo run --example layered_supervisor`

use multiring::core::addr::SegAddr;
use multiring::core::ring::Ring;
use multiring::core::word::Word;
use multiring::os::conventions::{gate_addr, ring1, segs};
use multiring::os::driver::gen_call_sequence;
use multiring::os::strings::encode_string;
use multiring::os::{System, SystemConfig};

fn main() {
    // --- Part 1: the ring-1 layer ------------------------------------
    let mut sys = System::boot();
    let pid = sys.login("alice");

    // Stream output through the ring-1 I/O layer (which formats at
    // ring 1 and uses the ring-0 channel primitive internally), plus an
    // accounting charge and a balance read.
    let mut data = encode_string("layers!");
    data.pop();
    let count_pos = data.len() as u32;
    data.push(Word::new(7));
    let units_pos = data.len() as u32;
    data.push(Word::new(12));
    let bal_pos = data.len() as u32;
    data.push(Word::ZERO);
    let scratch = sys.install_data(pid, Ring::R4, Ring::R4, &data, 64);

    let seq = gen_call_sequence(
        Ring::R4,
        &[
            (
                gate_addr(segs::RING1, ring1::IOS_WRITE),
                vec![
                    SegAddr::from_parts(scratch.segno, 0).unwrap(),
                    SegAddr::from_parts(scratch.segno, count_pos).unwrap(),
                ],
            ),
            (
                gate_addr(segs::RING1, ring1::ACCT_CHARGE),
                vec![SegAddr::from_parts(scratch.segno, units_pos).unwrap()],
            ),
            (
                gate_addr(segs::RING1, ring1::ACCT_READ),
                vec![SegAddr::from_parts(scratch.segno, bal_pos).unwrap()],
            ),
        ],
    );
    // Spin after the calls so the channel-completion interrupt lands
    // before the program exits.
    let seq = seq.replace(
        &format!("        drl 0o{:o}\n", multiring::os::traps::EXIT_CODE),
        &format!(
            "        lda =2000\nspin:   sba =1\n        tnz spin\n        drl 0o{:o}\n",
            multiring::os::traps::EXIT_CODE
        ),
    );
    let code = sys.install_code(pid, Ring::R4, Ring::R4, 0, &seq);
    let exit = sys.run_user(pid, code.segno, 0, Ring::R4, 20_000);
    println!(
        "ring-1 service calls: {exit:?}, status {}",
        sys.machine.a().raw()
    );
    println!("typewriter printed: {:?}", sys.tty_printed());
    assert_eq!(sys.tty_printed(), "layers!");
    let st = sys.stats();
    println!(
        "gate calls: ring-1 {}, internal ring-0 {}; alice's account: {}",
        st.gate_calls_ring1,
        st.gate_calls_hcs,
        sys.state().accounts["alice"]
    );
    assert_eq!(sys.state().accounts["alice"], 12);

    // --- Part 2: processor multiplexing -------------------------------
    let mut sys = System::boot_with(SystemConfig {
        quantum: 300,
        ..SystemConfig::default()
    });
    let p0 = sys.login("alice");
    let p1 = sys.login("bob");
    let counting = |segno: u32| {
        format!(
            "
        eap pr4, ctr,*
loop:   aos pr4|0
        tra loop
ctr:    its 4, {segno}, 0
"
        )
    };
    let d0 = sys.install_data(p0, Ring::R4, Ring::R4, &[Word::ZERO], 16);
    let c0 = {
        let s = counting(d0.segno);
        sys.install_code(p0, Ring::R4, Ring::R4, 0, &s)
    };
    let d1 = sys.install_data(p1, Ring::R4, Ring::R4, &[Word::ZERO], 16);
    let c1 = {
        let s = counting(d1.segno);
        sys.install_code(p1, Ring::R4, Ring::R4, 0, &s)
    };
    sys.prepare(p1, c1.segno, 0, Ring::R4);
    sys.park(p1);
    sys.prepare(p0, c0.segno, 0, Ring::R4);
    sys.machine.set_timer(Some(300));
    sys.machine.run(10_000);

    let n0 = {
        let sdw = sys.read_sdw(p0, d0.segno);
        sys.machine.phys().peek(sdw.addr).unwrap().raw()
    };
    let n1 = {
        let sdw = sys.read_sdw(p1, d1.segno);
        sys.machine.phys().peek(sdw.addr).unwrap().raw()
    };
    let st = sys.stats();
    println!(
        "after 10k instructions: alice counted {n0}, bob counted {n1}, {} schedule switches",
        st.schedules
    );
    assert!(n0 > 0 && n1 > 0);
    println!("both processes progressed under timer-driven multiplexing (ring-0 scheduler)");
}
