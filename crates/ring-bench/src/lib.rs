//! Experiment fixtures and table generators.
//!
//! Every figure and quantitative claim of the paper has an experiment
//! here (see `DESIGN.md` §4 for the index). The fixtures back the
//! simulated-cycle tables printed by the `tables` binary and recorded
//! in `EXPERIMENTS.md`; host time is measured by the benchmark under
//! `bench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod tables;

/// Renders a table (header + rows) as aligned plain text.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let t = render_table(
            "demo",
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "20000".into()],
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.lines().count() >= 4);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }
}
