//! Regeneration of the paper's nine figures as executable artifacts.
//!
//! The figures are format diagrams (Figs. 1–3) and validation
//! flowcharts (Figs. 4–9); each generator below exercises the
//! corresponding implementation and renders the decision surface as a
//! table. The tests pin every cell, so the tables double as a
//! regression net over the figure semantics.

use ring_core::access::Fault;
use ring_core::callret::{check_call, check_return};
use ring_core::registers::{IndWord, PtrReg};
use ring_core::ring::Ring;
use ring_core::sdw::{Sdw, SdwBuilder};
use ring_core::validate::{check_fetch, check_read, check_write};
use ring_cpu::isa::{Instr, Opcode};
use ring_cpu::testkit::{addr, World};

use crate::render_table;

/// The writable data segment of Fig. 1: write bracket `[0,4]`, read
/// bracket `[0,5]`, not executable.
pub fn fig1_sdw() -> Sdw {
    SdwBuilder::data(Ring::R4, Ring::R5)
        .bound_words(1024)
        .build()
}

/// The gated pure procedure segment of Fig. 2: execute bracket `[3,3]`,
/// gate extension to ring 5, two gates, not writable.
pub fn fig2_sdw() -> Sdw {
    SdwBuilder::procedure(Ring::R3, Ring::R3, Ring::R5)
        .gates(2)
        .bound_words(1024)
        .build()
}

fn yn(b: bool) -> String {
    if b { "yes" } else { "-" }.to_string()
}

/// Fig. 1 — per-ring access to the example writable data segment.
pub fn fig1_table() -> String {
    let sdw = fig1_sdw();
    let a = addr(100, 10);
    let rows: Vec<Vec<String>> = Ring::all()
        .map(|r| {
            vec![
                r.to_string(),
                yn(check_read(&sdw, a, r).is_ok()),
                yn(check_write(&sdw, a, r).is_ok()),
                yn(check_fetch(&sdw, a, r).is_ok()),
            ]
        })
        .collect();
    render_table(
        "Fig. 1: writable data segment (W bracket [0,4], R bracket [0,5])",
        &["ring", "read", "write", "execute"],
        &rows,
    )
}

/// Fig. 2 — per-ring access to the gated pure procedure segment,
/// including the call capability through the gate extension.
pub fn fig2_table() -> String {
    let sdw = fig2_sdw();
    let a = addr(100, 10);
    let gate = addr(100, 0);
    let rows: Vec<Vec<String>> = Ring::all()
        .map(|r| {
            let call = match check_call(&sdw, gate, r, r, false) {
                Ok(d) => format!("-> ring {}", d.new_ring),
                Err(Fault::UpwardCall { .. }) => "trap (upward)".to_string(),
                Err(_) => "-".to_string(),
            };
            vec![
                r.to_string(),
                yn(check_read(&sdw, a, r).is_ok()),
                yn(check_fetch(&sdw, a, r).is_ok()),
                call,
            ]
        })
        .collect();
    render_table(
        "Fig. 2: gated procedure (E bracket [3,3], gates 0..2 open through ring 5)",
        &["ring", "read", "execute", "call gate 0"],
        &rows,
    )
}

/// Fig. 3 — the storage formats, shown by packing representative values
/// and printing the octal words (round-trips are asserted in tests).
pub fn fig3_table() -> String {
    let sdw = SdwBuilder::procedure(Ring::R1, Ring::R3, Ring::R5)
        .gates(7)
        .addr(ring_core::addr::AbsAddr::from_bits(0o1234567))
        .bound(0o777)
        .build();
    let (w0, w1) = sdw.pack();
    let pr = PtrReg::new(Ring::R4, addr(0o1234, 0o56701));
    let iw = IndWord::new(Ring::R5, addr(0o777, 0o123456), true);
    let (i0, i1) = iw.pack();
    let ins = Instr::pr_relative(Opcode::Lda, 3, 0o4321)
        .with_indirect()
        .encode();
    let rows = vec![
        vec![
            "SDW (word 0)".into(),
            format!("{:0>12o}", w0.raw()),
            "ADDR[0..24] R1[24..27] R2[27..30] R3[30..33] F[33] FC[34..36]".into(),
        ],
        vec![
            "SDW (word 1)".into(),
            format!("{:0>12o}", w1.raw()),
            "BOUND[0..14] R W E P U GATE[22..36]".into(),
        ],
        vec![
            "PRn / IPR / TPR".into(),
            format!("{:0>12o}", pr.pack().raw()),
            "WORDNO[0..18] SEGNO[18..33] RING[33..36]".into(),
        ],
        vec![
            "IND (word 0)".into(),
            format!("{:0>12o}", i0.raw()),
            "pointer layout as above".into(),
        ],
        vec![
            "IND (word 1)".into(),
            format!("{:0>12o}", i1.raw()),
            "I[0]".into(),
        ],
        vec![
            "INS".into(),
            format!("{:0>12o}", ins.raw()),
            "OFFSET[0..18] XREG TAG I PRFLAG PRNUM OPCODE[28..36]".into(),
        ],
    ];
    render_table(
        "Fig. 3: storage formats and processor registers (octal)",
        &["item", "packed", "layout (LSB-0)"],
        &rows,
    )
}

/// Fig. 4 — instruction-fetch validation outcomes for a procedure with
/// execute bracket `[2,4]`.
pub fn fig4_table() -> String {
    let sdw = SdwBuilder::procedure(Ring::R2, Ring::R4, Ring::R4)
        .bound_words(64)
        .build();
    let a = addr(10, 5);
    let rows: Vec<Vec<String>> = Ring::all()
        .map(|r| {
            let outcome = match check_fetch(&sdw, a, r) {
                Ok(()) => "fetch".to_string(),
                Err(f) => short_fault(&f),
            };
            vec![r.to_string(), outcome]
        })
        .collect();
    render_table(
        "Fig. 4: instruction fetch, execute bracket [2,4]",
        &["ring of execution", "outcome"],
        &rows,
    )
}

/// The ring numbered `n` in a scenario table.
fn ring(n: u8) -> Ring {
    Ring::new(n).expect("scenario rings are 0..=7")
}

fn short_fault(f: &Fault) -> String {
    match f {
        Fault::AccessViolation { violation, .. } => format!("violation: {violation}"),
        Fault::UpwardCall { .. } => "trap: upward call".into(),
        Fault::DownwardReturn { .. } => "trap: downward return".into(),
        other => format!("{other}"),
    }
}

/// Fig. 5 — effective-ring formation: scenarios with PR bases and
/// indirect words, showing the running maximum, measured through the
/// real pipeline.
pub fn fig5_table() -> String {
    let mut rows = Vec::new();
    // Scenario rows: (description, executing ring, PR ring, IND ring,
    // table-segment write-bracket top, expected effective ring).
    type Scenario = (&'static str, u8, u8, Option<(u8, u8)>);
    let scenarios: [Scenario; 5] = [
        ("direct, own segment", 4, 4, None),
        ("PR base ring 6", 2, 6, None),
        (
            "indirect via r5-writable table, IND ring 2",
            1,
            1,
            Some((2, 5)),
        ),
        (
            "indirect via r0-writable table, IND ring 6",
            1,
            1,
            Some((6, 0)),
        ),
        ("indirect, all privileged", 1, 1, Some((0, 0))),
    ];
    for (desc, exec_r, pr_r, ind) in scenarios {
        let exec_ring = ring(exec_r);
        let mut w = World::new();
        let code = w.add_segment(
            10,
            SdwBuilder::procedure(exec_ring, exec_ring, exec_ring).bound_words(64),
        );
        let target = w.add_segment(12, SdwBuilder::data(Ring::R7, Ring::R7).bound_words(64));
        w.start(exec_ring, code, 0);
        let eff = match ind {
            None => {
                let pr = PtrReg::new(ring(pr_r), addr(target.value(), 3));
                w.machine.set_pr(1, pr);
                let instr = Instr::pr_relative(Opcode::Lda, 1, 0);
                w.machine
                    .effective_address(&instr, code)
                    .map(|t| t.ring.to_string())
                    .unwrap_or_else(|f| short_fault(&f))
            }
            Some((ind_r, wtop)) => {
                let wt = ring(wtop);
                let table = w.add_segment(11, SdwBuilder::data(wt, Ring::R7).bound_words(64));
                w.write_ind_word(
                    table,
                    0,
                    IndWord::new(ring(ind_r), addr(target.value(), 3), false),
                );
                w.machine
                    .set_pr(1, PtrReg::new(ring(pr_r), addr(table.value(), 0)));
                let instr = Instr::pr_relative(Opcode::Lda, 1, 0).with_indirect();
                w.machine
                    .effective_address(&instr, code)
                    .map(|t| t.ring.to_string())
                    .unwrap_or_else(|f| short_fault(&f))
            }
        };
        rows.push(vec![
            desc.to_string(),
            exec_r.to_string(),
            pr_r.to_string(),
            ind.map(|(i, _)| i.to_string()).unwrap_or("-".into()),
            ind.map(|(_, w)| w.to_string()).unwrap_or("-".into()),
            eff,
        ]);
    }
    render_table(
        "Fig. 5: effective ring = max(exec ring, PR ring, IND ring, write-bracket top)",
        &["scenario", "exec", "PR", "IND", "wbkt", "TPR.RING"],
        &rows,
    )
}

/// Fig. 6 — operand read/write validation for the Fig. 1 segment, per
/// validation (effective) ring.
pub fn fig6_table() -> String {
    let sdw = fig1_sdw();
    let a = addr(11, 0);
    let rows: Vec<Vec<String>> = Ring::all()
        .map(|r| {
            vec![
                r.to_string(),
                check_read(&sdw, a, r)
                    .map(|_| "read".into())
                    .unwrap_or_else(|f| short_fault(&f)),
                check_write(&sdw, a, r)
                    .map(|_| "write".into())
                    .unwrap_or_else(|f| short_fault(&f)),
            ]
        })
        .collect();
    render_table(
        "Fig. 6: operand access at the effective ring (Fig. 1 segment)",
        &["TPR.RING", "read op", "write op"],
        &rows,
    )
}

/// Fig. 7 — the EAP and ordinary-transfer group: what each does and the
/// advance-check outcome for a ring-2..4 procedure target.
pub fn fig7_table() -> String {
    let sdw = SdwBuilder::procedure(Ring::R2, Ring::R4, Ring::R4)
        .bound_words(64)
        .build();
    let a = addr(10, 3);
    let mut rows = vec![vec![
        "EAP".to_string(),
        "loads PRn from TPR; no operand reference, no validation".to_string(),
    ]];
    for r in Ring::all() {
        rows.push(vec![
            format!("TRA at effective ring {r}"),
            ring_core::validate::check_transfer(&sdw, a, r)
                .map(|_| "transfer (advance check passed)".into())
                .unwrap_or_else(|f| short_fault(&f)),
        ]);
    }
    render_table(
        "Fig. 7: instructions that do not reference their operands",
        &["case", "outcome"],
        &rows,
    )
}

/// Fig. 8 — the canonical CALL cases.
pub fn fig8_table() -> String {
    // Gate segment: execute [1,1], gates 0..4 open through ring 5.
    let sdw = SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R5)
        .gates(4)
        .bound_words(64)
        .build();
    let user = SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R7)
        .gates(2)
        .bound_words(64)
        .build();
    let cases: Vec<(&str, &Sdw, u32, u8, u8, bool)> = vec![
        ("downward call to gate", &sdw, 2, 4, 4, false),
        ("downward call to non-gate word", &sdw, 9, 4, 4, false),
        ("call above gate extension", &sdw, 0, 6, 6, false),
        ("same-ring call to gate", &user, 1, 4, 4, false),
        ("same-ring call to non-gate", &user, 9, 4, 4, false),
        ("internal call (same segment)", &user, 9, 4, 4, true),
        ("upward call (bracket above)", &user, 0, 1, 1, false),
        ("TPR>IPR anomaly", &user, 0, 4, 2, false),
    ];
    let rows: Vec<Vec<String>> = cases
        .into_iter()
        .map(|(desc, s, wordno, eff, cur, same)| {
            let outcome = match check_call(s, addr(20, wordno), ring(eff), ring(cur), same) {
                Ok(d) => format!("call, new ring {}", d.new_ring),
                Err(f) => short_fault(&f),
            };
            vec![desc.to_string(), eff.to_string(), cur.to_string(), outcome]
        })
        .collect();
    render_table(
        "Fig. 8: CALL (gate segment E[1,1] gates 0..4 ext 5; user segment E[4,4] gates 0..2 ext 7)",
        &["case", "eff ring", "cur ring", "outcome"],
        &rows,
    )
}

/// Fig. 9 — the canonical RETURN cases.
pub fn fig9_table() -> String {
    let user = SdwBuilder::procedure(Ring::R4, Ring::R4, Ring::R5)
        .bound_words(64)
        .build();
    let sup = SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R5)
        .bound_words(64)
        .build();
    let cases: Vec<(&str, &Sdw, u8, u8)> = vec![
        ("upward return to caller ring", &user, 4, 1),
        ("same-ring return", &user, 4, 4),
        ("downward return (target bracket below)", &sup, 4, 4),
        ("return below bracket bottom", &user, 2, 2),
    ];
    let rows: Vec<Vec<String>> = cases
        .into_iter()
        .map(|(desc, s, eff, cur)| {
            let outcome = match check_return(s, addr(30, 7), ring(eff), ring(cur)) {
                Ok(d) => format!(
                    "return, new ring {}{}",
                    d.new_ring,
                    if d.upward { " (PR floors raised)" } else { "" }
                ),
                Err(f) => short_fault(&f),
            };
            vec![desc.to_string(), eff.to_string(), cur.to_string(), outcome]
        })
        .collect();
    render_table(
        "Fig. 9: RETURN (user segment E[4,4]; supervisor segment E[1,1])",
        &["case", "eff ring", "cur ring", "outcome"],
        &rows,
    )
}

/// All nine figures, concatenated.
pub fn all_figures() -> String {
    [
        fig1_table(),
        fig2_table(),
        fig3_table(),
        fig4_table(),
        fig5_table(),
        fig6_table(),
        fig7_table(),
        fig8_table(),
        fig9_table(),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_the_paper() {
        let t = fig1_table();
        // Rings 0-4 write, 0-5 read, none execute.
        assert!(t.contains("4   yes    yes        -"));
        assert!(t.contains("5   yes      -        -"));
        assert!(t.contains("6     -      -        -"));
    }

    #[test]
    fn fig2_shows_gate_extension() {
        let t = fig2_table();
        assert!(t.contains("-> ring 3"), "calls land in ring 3:\n{t}");
        assert!(
            t.contains("trap (upward)"),
            "rings below 3 call upward:\n{t}"
        );
    }

    #[test]
    fn fig5_effective_rings() {
        let t = fig5_table();
        // PR ring 6 dominates executing ring 2.
        assert!(t
            .lines()
            .any(|l| l.contains("PR base ring 6") && l.ends_with('6')));
        // Write-bracket top 5 dominates.
        assert!(t
            .lines()
            .any(|l| l.contains("IND ring 2") && l.ends_with('5')));
        // IND ring 6 dominates.
        assert!(t
            .lines()
            .any(|l| l.contains("IND ring 6") && l.ends_with('6')));
    }

    #[test]
    fn fig8_cases_have_expected_outcomes() {
        let t = fig8_table();
        assert!(t.contains("downward call to gate") && t.contains("call, new ring 1"));
        assert!(t.contains("not directed at a gate"));
        assert!(t.contains("above gate extension"));
        assert!(t.contains("trap: upward call"));
        assert!(t.contains("raise the ring of execution"));
    }

    #[test]
    fn fig9_cases_have_expected_outcomes() {
        let t = fig9_table();
        assert!(t.contains("PR floors raised"));
        assert!(t.contains("trap: downward return"));
        assert!(t.contains("outside bracket"));
    }

    #[test]
    fn all_figures_renders_nine_tables() {
        let t = all_figures();
        assert_eq!(t.matches("== Fig.").count(), 9);
    }
}
