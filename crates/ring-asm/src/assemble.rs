//! Two-pass assembly: pass 1 assigns label addresses, pass 2 emits
//! words.

use std::collections::HashMap;

use ring_core::addr::{SegAddr, SegNo, WordNo, MAX_WORDNO};
use ring_core::registers::IndWord;
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_cpu::isa::{AddrMode, Instr, Opcode};

use crate::ast::{AsmError, Expr, Line, Operand, Stmt};
use crate::parse::parse_line;

/// The output of assembling one segment's source.
#[derive(Clone, Debug)]
pub struct Assembled {
    /// The segment image, indexed by word number from 0. Gaps created
    /// by `org` are zero-filled.
    pub words: Vec<Word>,
    /// Label/EQU values.
    pub symbols: HashMap<String, u32>,
}

impl Assembled {
    /// Value of `symbol`, if defined.
    pub fn symbol(&self, symbol: &str) -> Option<u32> {
        self.symbols.get(symbol).copied()
    }

    /// Size of the image in words.
    pub fn len(&self) -> u32 {
        self.words.len() as u32
    }

    /// True if the image is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Renders the image as an annotated listing: word number, octal
    /// contents, disassembly, and any labels defined at that address.
    pub fn dump(&self) -> String {
        // Reverse symbol map (several labels may share an address).
        let mut by_addr: HashMap<u32, Vec<&str>> = HashMap::new();
        for (name, &at) in &self.symbols {
            by_addr.entry(at).or_default().push(name);
        }
        by_addr.values_mut().for_each(|v| v.sort_unstable());
        let mut out = String::new();
        for (i, w) in self.words.iter().enumerate() {
            let labels = by_addr
                .get(&(i as u32))
                .map(|v| v.join(", "))
                .unwrap_or_default();
            out.push_str(&format!(
                "{i:6}  {:0>12o}  {:<24}  {labels}\n",
                w.raw(),
                crate::disasm::disassemble_word(*w),
            ));
        }
        out
    }
}

fn err(lineno: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        lineno,
        message: message.into(),
    }
}

struct Ctx {
    symbols: HashMap<String, u32>,
}

impl Ctx {
    fn eval(&self, lineno: usize, e: &Expr) -> Result<i64, AsmError> {
        let base = match &e.symbol {
            Some(name) => i64::from(
                *self
                    .symbols
                    .get(name)
                    .ok_or_else(|| err(lineno, format!("undefined symbol `{name}`")))?,
            ),
            None => 0,
        };
        base.checked_add(e.addend)
            .ok_or_else(|| err(lineno, "expression overflows"))
    }

    fn eval_field(&self, lineno: usize, e: &Expr, bits: u32, what: &str) -> Result<u64, AsmError> {
        let v = self.eval(lineno, e)?;
        let max = (1i64 << bits) - 1;
        if v < 0 || v > max {
            return Err(err(
                lineno,
                format!("{what} value {v} out of range 0..={max}"),
            ));
        }
        Ok(v as u64)
    }
}

/// Size in words each statement occupies (pass 1).
fn stmt_size(lineno: usize, stmt: &Stmt, ctx: &Ctx) -> Result<u32, AsmError> {
    Ok(match stmt {
        Stmt::Instr { .. } => 1,
        Stmt::Dw(v) => v.len() as u32,
        Stmt::Its { .. } => 2,
        Stmt::Bss(e) => ctx.eval_field(lineno, e, 18, "bss")? as u32,
        Stmt::Org(_) | Stmt::Equ(..) => 0,
    })
}

fn encode_instr(
    lineno: usize,
    ctx: &Ctx,
    opcode: Opcode,
    reg: Option<u8>,
    operand: &Option<Operand>,
) -> Result<Word, AsmError> {
    let mut instr = Instr::direct(opcode, 0);
    if let Some(r) = reg {
        instr = instr.with_xreg(r);
    }
    if let Some(op) = operand {
        instr.offset = ctx.eval_field(lineno, &op.expr, 18, "offset")? as u32;
        instr.pr = op.pr;
        instr.indirect = op.indirect;
        if op.immediate {
            if op.pr.is_some() || op.indirect || op.index.is_some() {
                return Err(err(lineno, "immediate operand takes no modifiers"));
            }
            instr.mode = AddrMode::Immediate;
        } else if let Some(x) = op.index {
            if reg.is_some() {
                return Err(err(
                    lineno,
                    "register-field instructions cannot also be indexed",
                ));
            }
            instr.mode = AddrMode::Indexed;
            instr.xreg = x;
        }
    }
    Ok(instr.encode())
}

/// Assembles `source` into a segment image.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered (parse error, undefined or
/// duplicate symbol, field overflow).
///
/// # Examples
///
/// ```
/// let prog = "
///         lda =5
/// loop:   ada =1
///         tra loop
/// ";
/// let out = ring_asm::assemble(prog).unwrap();
/// assert_eq!(out.len(), 3);
/// assert_eq!(out.symbol("loop"), Some(1));
/// ```
pub fn assemble(source: &str) -> Result<Assembled, AsmError> {
    let lines: Vec<Line> = source
        .lines()
        .enumerate()
        .map(|(i, l)| parse_line(i + 1, l))
        .collect::<Result<_, _>>()?;

    // Pass 1: locations for labels; EQU definitions.
    let mut ctx = Ctx {
        symbols: HashMap::new(),
    };
    let mut loc: u32 = 0;
    for line in &lines {
        if let Some(label) = &line.label {
            if ctx.symbols.insert(label.clone(), loc).is_some() {
                return Err(err(line.lineno, format!("duplicate label `{label}`")));
            }
        }
        if let Some(stmt) = &line.stmt {
            match stmt {
                Stmt::Org(e) => {
                    loc = ctx.eval_field(line.lineno, e, 18, "org")? as u32;
                }
                Stmt::Equ(name, e) => {
                    let v = ctx.eval_field(line.lineno, e, 18, "equ")? as u32;
                    if ctx.symbols.insert(name.clone(), v).is_some() {
                        return Err(err(line.lineno, format!("duplicate symbol `{name}`")));
                    }
                }
                other => {
                    loc = loc
                        .checked_add(stmt_size(line.lineno, other, &ctx)?)
                        .filter(|&l| l <= MAX_WORDNO + 1)
                        .ok_or_else(|| err(line.lineno, "segment overflow"))?;
                }
            }
        }
    }

    // Pass 2: emission.
    let mut words: Vec<Word> = Vec::new();
    let mut emit = |at: u32, w: Word| {
        let at = at as usize;
        if words.len() <= at {
            words.resize(at + 1, Word::ZERO);
        }
        words[at] = w;
    };
    let mut loc: u32 = 0;
    for line in &lines {
        let Some(stmt) = &line.stmt else { continue };
        match stmt {
            Stmt::Org(e) => {
                loc = ctx.eval_field(line.lineno, e, 18, "org")? as u32;
            }
            Stmt::Equ(..) => {}
            Stmt::Dw(exprs) => {
                for e in exprs {
                    let v = ctx.eval(line.lineno, e)?;
                    emit(loc, Word::from_signed(v));
                    loc += 1;
                }
            }
            Stmt::Bss(e) => {
                let n = ctx.eval_field(line.lineno, e, 18, "bss")? as u32;
                for i in 0..n {
                    emit(loc + i, Word::ZERO);
                }
                loc += n;
            }
            Stmt::Its {
                ring,
                segno,
                wordno,
                indirect,
            } => {
                let r = ctx.eval_field(line.lineno, ring, 3, "ring")?;
                let s = ctx.eval_field(line.lineno, segno, 15, "segno")?;
                let wn = ctx.eval_field(line.lineno, wordno, 18, "wordno")?;
                let iw = IndWord::new(
                    Ring::from_bits(r),
                    SegAddr::new(SegNo::from_bits(s), WordNo::from_bits(wn)),
                    *indirect,
                );
                let (w0, w1) = iw.pack();
                emit(loc, w0);
                emit(loc + 1, w1);
                loc += 2;
            }
            Stmt::Instr {
                opcode,
                reg,
                operand,
            } => {
                emit(
                    loc,
                    encode_instr(line.lineno, &ctx, *opcode, *reg, operand)?,
                );
                loc += 1;
            }
        }
    }
    Ok(Assembled {
        words,
        symbols: ctx.symbols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_plus_huge_addend_is_an_error() {
        let e = assemble("    nop\nx:  lda x+9223372036854775807\n").unwrap_err();
        assert!(e.message.contains("overflows"), "{}", e.message);
    }

    #[test]
    fn forward_and_backward_references() {
        let out = assemble(
            "
        tra fwd
back:   nop
fwd:    tra back
",
        )
        .unwrap();
        assert_eq!(out.symbol("back"), Some(1));
        assert_eq!(out.symbol("fwd"), Some(2));
        let i0 = Instr::decode(out.words[0]).unwrap();
        assert_eq!(i0.offset, 2);
        let i2 = Instr::decode(out.words[2]).unwrap();
        assert_eq!(i2.offset, 1);
    }

    #[test]
    fn org_dw_bss_layout() {
        let out = assemble(
            "
        org 4
val:    dw 7, 0o10
buf:    bss 2
end:    dw -1
",
        )
        .unwrap();
        assert_eq!(out.symbol("val"), Some(4));
        assert_eq!(out.symbol("buf"), Some(6));
        assert_eq!(out.symbol("end"), Some(8));
        assert_eq!(out.words[4], Word::new(7));
        assert_eq!(out.words[5], Word::new(8));
        assert_eq!(out.words[8].as_signed(), -1);
        assert_eq!(out.words[0], Word::ZERO, "org gap zero-filled");
    }

    #[test]
    fn its_emits_a_pair() {
        let out = assemble("p: its 4, 0o100, 12, i").unwrap();
        let iw = IndWord::unpack(out.words[0], out.words[1]);
        assert_eq!(iw.ring, Ring::R4);
        assert_eq!(iw.addr.segno.value(), 0o100);
        assert_eq!(iw.addr.wordno.value(), 12);
        assert!(iw.indirect);
    }

    #[test]
    fn equ_and_expressions() {
        let out = assemble(
            "
        equ n, 5
        lda =n
        lda pr1|n+1
",
        )
        .unwrap();
        let i0 = Instr::decode(out.words[0]).unwrap();
        assert_eq!(i0.offset, 5);
        assert_eq!(i0.mode, AddrMode::Immediate);
        let i1 = Instr::decode(out.words[1]).unwrap();
        assert_eq!(i1.offset, 6);
        assert_eq!(i1.pr, Some(1));
    }

    #[test]
    fn register_field_encodings() {
        let out = assemble(
            "
        eap pr3, pr1|4,*
        spri pr3, pr0|2
        ldx x5, =9
        stx x5, pr0|3
",
        )
        .unwrap();
        let i = Instr::decode(out.words[0]).unwrap();
        assert_eq!(
            (i.opcode, i.xreg, i.pr, i.indirect),
            (Opcode::Eap, 3, Some(1), true)
        );
        let i = Instr::decode(out.words[2]).unwrap();
        assert_eq!((i.opcode, i.xreg), (Opcode::Ldx, 5));
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let e = assemble("\n  lda =bogus_sym\n").unwrap_err();
        assert_eq!(e.lineno, 2);
        let e = assemble("x: nop\nx: nop\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = assemble("lda =0o1000000\n").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn immediate_with_modifiers_rejected() {
        assert!(assemble("lda =5,*").is_err());
    }

    #[test]
    fn indexed_register_field_conflict_rejected() {
        assert!(assemble("ldx x1, pr0|0,x2").is_err());
    }

    #[test]
    fn dump_lists_words_with_labels() {
        let out = assemble(
            "
start:  lda =1
loop:   tra loop
",
        )
        .unwrap();
        let d = out.dump();
        let lines: Vec<&str> = d.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("lda =0o1") && lines[0].contains("start"));
        assert!(lines[1].contains("tra 0o1") && lines[1].contains("loop"));
    }
}
