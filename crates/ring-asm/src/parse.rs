//! Line parser for the assembler.
//!
//! Grammar (one statement per line; `;` starts a comment):
//!
//! ```text
//! line      := [label ':'] [stmt] [';' comment]
//! stmt      := mnemonic [regfield ','] [operand] | directive
//! operand   := '=' expr                      (immediate literal)
//!            | ['pr' N '|'] expr [',x' N] [',*']
//! expr      := term (('+'|'-') term)*       ; term := number | symbol
//! number    := decimal | '0o' octal | 'o' octal
//! directive := 'org' expr | 'dw' expr,... | 'bss' expr
//!            | 'its' expr ',' expr ',' expr [',i']
//!            | 'equ' name ',' expr
//! ```

use ring_cpu::isa::Opcode;

use crate::ast::{AsmError, Expr, Line, Operand, Stmt};

fn err(lineno: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        lineno,
        message: message.into(),
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_number(s: &str) -> Option<i64> {
    let (neg, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(oct) = s.strip_prefix("0o").or_else(|| s.strip_prefix('o')) {
        i64::from_str_radix(oct, 8).ok()?
    } else {
        s.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

/// Parses an expression: `term ((+|-) term)*`.
pub(crate) fn parse_expr(lineno: usize, s: &str) -> Result<Expr, AsmError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(err(lineno, "empty expression"));
    }
    // Split into signed terms, keeping it simple: scan for +/- at depth 0.
    let mut symbol: Option<String> = None;
    let mut addend: i64 = 0;
    let mut rest = s;
    let mut sign = 1i64;
    loop {
        rest = rest.trim_start();
        // A leading '-' on the very first term is part of the number.
        let Some(first) = rest.chars().next() else {
            return Err(err(lineno, format!("malformed expression `{s}`")));
        };
        let skip = first.len_utf8();
        let term_end = rest[skip..]
            .find(['+', '-'])
            .map(|i| i + skip)
            .unwrap_or(rest.len());
        let term = rest[..term_end].trim();
        if term.is_empty() {
            return Err(err(lineno, format!("malformed expression `{s}`")));
        }
        if let Some(v) = parse_number(term) {
            addend = addend
                .checked_add(sign * v)
                .ok_or_else(|| err(lineno, format!("expression `{s}` overflows")))?;
        } else if is_ident(term) {
            if sign < 0 {
                return Err(err(lineno, "cannot negate a symbol"));
            }
            if symbol.replace(term.to_string()).is_some() {
                return Err(err(lineno, "at most one symbol per expression"));
            }
        } else {
            return Err(err(lineno, format!("bad term `{term}`")));
        }
        if term_end == rest.len() {
            break;
        }
        sign = if rest.as_bytes()[term_end] == b'+' {
            1
        } else {
            -1
        };
        rest = &rest[term_end + 1..];
    }
    Ok(Expr { symbol, addend })
}

fn parse_reg(lineno: usize, s: &str, prefix: &str) -> Result<u8, AsmError> {
    let body = s
        .strip_prefix(prefix)
        .ok_or_else(|| err(lineno, format!("expected `{prefix}N`, got `{s}`")))?;
    let n: u8 = body
        .parse()
        .map_err(|_| err(lineno, format!("bad register `{s}`")))?;
    if n < 8 {
        Ok(n)
    } else {
        Err(err(lineno, format!("register number {n} out of range")))
    }
}

/// Parses an operand field.
pub(crate) fn parse_operand(lineno: usize, s: &str) -> Result<Operand, AsmError> {
    let s = s.trim();
    if let Some(lit) = s.strip_prefix('=') {
        return Ok(Operand {
            pr: None,
            expr: parse_expr(lineno, lit)?,
            index: None,
            indirect: false,
            immediate: true,
        });
    }
    // Trailing modifiers, comma-separated: ,* and ,xN in any order.
    let mut indirect = false;
    let mut index = None;
    let mut core = s;
    while let Some(pos) = core.rfind(',') {
        let tail = core[pos + 1..].trim();
        if tail == "*" {
            if indirect {
                return Err(err(lineno, "duplicate `*` modifier"));
            }
            indirect = true;
        } else if tail.starts_with('x') && tail.len() >= 2 {
            if index.is_some() {
                return Err(err(lineno, "duplicate index modifier"));
            }
            index = Some(parse_reg(lineno, tail, "x")?);
        } else {
            break;
        }
        core = core[..pos].trim_end();
    }
    // Base: prN| prefix.
    let (pr, expr_str) = match core.split_once('|') {
        Some((base, rest)) => (Some(parse_reg(lineno, base.trim(), "pr")?), rest),
        None => (None, core),
    };
    Ok(Operand {
        pr,
        expr: parse_expr(lineno, expr_str)?,
        index,
        indirect,
        immediate: false,
    })
}

fn mnemonic_table() -> &'static [(&'static str, Opcode)] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<(&'static str, Opcode)>> = OnceLock::new();
    TABLE
        .get_or_init(|| {
            Opcode::all()
                .iter()
                .map(|&op| (op.mnemonic(), op))
                .collect()
        })
        .as_slice()
}

fn lookup_mnemonic(m: &str) -> Option<Opcode> {
    mnemonic_table()
        .iter()
        .find(|(name, _)| *name == m)
        .map(|(_, op)| *op)
}

/// True for mnemonics whose first operand is a register placed in the
/// XREG field.
fn takes_reg_field(op: Opcode) -> bool {
    matches!(op, Opcode::Eap | Opcode::Spri | Opcode::Ldx | Opcode::Stx)
}

/// Parses one source line.
pub fn parse_line(lineno: usize, raw: &str) -> Result<Line, AsmError> {
    let no_comment = match raw.find(';') {
        Some(i) => &raw[..i],
        None => raw,
    };
    let mut text = no_comment.trim();
    let mut label = None;
    if let Some(colon) = text.find(':') {
        let l = text[..colon].trim();
        if !is_ident(l) {
            return Err(err(lineno, format!("bad label `{l}`")));
        }
        label = Some(l.to_string());
        text = text[colon + 1..].trim();
    }
    if text.is_empty() {
        return Ok(Line {
            lineno,
            label,
            stmt: None,
        });
    }
    let (mnemonic, args) = match text.split_once(char::is_whitespace) {
        Some((m, a)) => (m.trim(), a.trim()),
        None => (text, ""),
    };
    let stmt = match mnemonic {
        "org" => Stmt::Org(parse_expr(lineno, args)?),
        "bss" => Stmt::Bss(parse_expr(lineno, args)?),
        "dw" => {
            let exprs = args
                .split(',')
                .map(|p| parse_expr(lineno, p))
                .collect::<Result<Vec<_>, _>>()?;
            if exprs.is_empty() {
                return Err(err(lineno, "dw needs at least one value"));
            }
            Stmt::Dw(exprs)
        }
        "its" => {
            let parts: Vec<&str> = args.split(',').map(str::trim).collect();
            if parts.len() < 3 || parts.len() > 4 {
                return Err(err(lineno, "its takes ring, segno, wordno [, i]"));
            }
            let indirect = match parts.get(3) {
                None => false,
                Some(&"i") => true,
                Some(other) => return Err(err(lineno, format!("bad its flag `{other}`"))),
            };
            Stmt::Its {
                ring: parse_expr(lineno, parts[0])?,
                segno: parse_expr(lineno, parts[1])?,
                wordno: parse_expr(lineno, parts[2])?,
                indirect,
            }
        }
        "equ" => {
            let (name, val) = args
                .split_once(',')
                .ok_or_else(|| err(lineno, "equ takes name, value"))?;
            let name = name.trim();
            if !is_ident(name) {
                return Err(err(lineno, format!("bad equ name `{name}`")));
            }
            Stmt::Equ(name.to_string(), parse_expr(lineno, val)?)
        }
        m => {
            let opcode =
                lookup_mnemonic(m).ok_or_else(|| err(lineno, format!("unknown mnemonic `{m}`")))?;
            let mut reg = None;
            let mut rest = args;
            if takes_reg_field(opcode) {
                let (r, tail) = match args.split_once(',') {
                    Some((r, t)) => (r.trim(), t.trim()),
                    None => (args.trim(), ""),
                };
                let prefix = if matches!(opcode, Opcode::Eap | Opcode::Spri) {
                    "pr"
                } else {
                    "x"
                };
                reg = Some(parse_reg(lineno, r, prefix)?);
                rest = tail;
            }
            let operand = if rest.is_empty() {
                None
            } else {
                Some(parse_operand(lineno, rest)?)
            };
            Stmt::Instr {
                opcode,
                reg,
                operand,
            }
        }
    };
    Ok(Line {
        lineno,
        label,
        stmt: Some(stmt),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_decimal_and_octal() {
        assert_eq!(parse_number("42"), Some(42));
        assert_eq!(parse_number("0o17"), Some(15));
        assert_eq!(parse_number("o17"), Some(15));
        assert_eq!(parse_number("-3"), Some(-3));
        assert_eq!(parse_number("xyz"), None);
    }

    #[test]
    fn expr_symbol_plus_constant() {
        let e = parse_expr(1, "loop+2").unwrap();
        assert_eq!(e.symbol.as_deref(), Some("loop"));
        assert_eq!(e.addend, 2);
        let e = parse_expr(1, "buf - 1 + 3").unwrap();
        assert_eq!(e.addend, 2);
        assert!(parse_expr(1, "a+b").is_err());
        assert!(parse_expr(1, "").is_err());
    }

    #[test]
    fn hostile_expressions_are_errors_not_panics() {
        // A trailing operator leaves an empty last term.
        assert!(parse_expr(1, "x+").is_err());
        assert!(parse_expr(1, "5 +").is_err());
        assert!(parse_expr(1, "5 - ").is_err());
        assert!(parse_line(1, "lda x+").is_err());
        assert!(parse_line(1, "dw 5 +").is_err());
        // A multi-byte first character.
        assert!(parse_expr(1, "é").is_err());
        assert!(parse_line(1, "lda é").is_err());
        assert!(parse_expr(1, "1+é-2").is_err());
        // The sum leaves i64.
        let e = parse_line(4, "dw 9223372036854775807+1").unwrap_err();
        assert_eq!(e.lineno, 4);
        assert!(e.message.contains("overflows"), "{}", e.message);
        assert!(parse_expr(1, "-9223372036854775807-2").is_err());
        // The largest sums that fit still parse.
        assert_eq!(
            parse_expr(1, "9223372036854775806+1").unwrap().addend,
            i64::MAX
        );
        assert_eq!(
            parse_expr(1, "-9223372036854775807-1").unwrap().addend,
            i64::MIN
        );
    }

    #[test]
    fn operand_forms() {
        let o = parse_operand(1, "=5").unwrap();
        assert!(o.immediate);
        assert_eq!(o.expr.addend, 5);

        let o = parse_operand(1, "pr1|8,x2,*").unwrap();
        assert_eq!(o.pr, Some(1));
        assert_eq!(o.expr.addend, 8);
        assert_eq!(o.index, Some(2));
        assert!(o.indirect);

        let o = parse_operand(1, "label").unwrap();
        assert_eq!(o.pr, None);
        assert_eq!(o.expr.symbol.as_deref(), Some("label"));
        assert!(!o.indirect);
    }

    #[test]
    fn operand_rejects_bad_registers() {
        assert!(parse_operand(1, "pr9|0").is_err());
        assert!(parse_operand(1, "pr1|0,x9").is_err());
        assert!(parse_operand(1, "pr1|0,*,*").is_err());
    }

    #[test]
    fn line_with_label_and_comment() {
        let l = parse_line(3, "loop:  lda pr1|0 ; fetch").unwrap();
        assert_eq!(l.label.as_deref(), Some("loop"));
        match l.stmt.unwrap() {
            Stmt::Instr {
                opcode: Opcode::Lda,
                operand: Some(o),
                ..
            } => assert_eq!(o.pr, Some(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn blank_and_label_only_lines() {
        assert!(parse_line(1, "  ; nothing").unwrap().stmt.is_none());
        let l = parse_line(2, "here:").unwrap();
        assert_eq!(l.label.as_deref(), Some("here"));
        assert!(l.stmt.is_none());
    }

    #[test]
    fn register_field_mnemonics() {
        let l = parse_line(1, "eap pr3, pr1|0,*").unwrap();
        match l.stmt.unwrap() {
            Stmt::Instr {
                opcode: Opcode::Eap,
                reg: Some(3),
                operand: Some(o),
            } => assert!(o.indirect),
            other => panic!("{other:?}"),
        }
        let l = parse_line(1, "ldx x2, =7").unwrap();
        match l.stmt.unwrap() {
            Stmt::Instr {
                opcode: Opcode::Ldx,
                reg: Some(2),
                operand: Some(o),
            } => assert!(o.immediate),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn directives() {
        assert!(matches!(
            parse_line(1, "org 100").unwrap().stmt.unwrap(),
            Stmt::Org(_)
        ));
        match parse_line(1, "dw 1, 2, label+1").unwrap().stmt.unwrap() {
            Stmt::Dw(v) => assert_eq!(v.len(), 3),
            other => panic!("{other:?}"),
        }
        match parse_line(1, "its 4, 100, 0, i").unwrap().stmt.unwrap() {
            Stmt::Its { indirect, .. } => assert!(indirect),
            other => panic!("{other:?}"),
        }
        match parse_line(1, "equ nargs, 3").unwrap().stmt.unwrap() {
            Stmt::Equ(name, e) => {
                assert_eq!(name, "nargs");
                assert_eq!(e.addend, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_mnemonic_is_an_error() {
        let e = parse_line(7, "frobnicate 3").unwrap_err();
        assert_eq!(e.lineno, 7);
        assert!(e.message.contains("frobnicate"));
    }
}
