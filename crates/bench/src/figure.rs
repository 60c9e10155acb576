//! One typed figure and its one rendering.
//!
//! Each reproduction returns a [`Figure`]: the paper's claim, the tables of
//! this repository's numbers, and a computed verdict for each shape the
//! claim names. Its `Display` is the markdown `REPRODUCTION.md` is made of.

use std::fmt;

/// One table of a figure, every cell already formatted.
pub struct Table {
    /// Printed above the table; empty for none.
    pub caption: String,
    /// Header cells.
    pub header: Vec<&'static str>,
    /// Rows, each as many cells as the header.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table under `caption` with the given header cells.
    pub fn new(caption: impl Into<String>, header: &[&'static str]) -> Table {
        Table {
            caption: caption.into(),
            header: header.to_vec(),
            rows: Vec::new(),
        }
    }
}

/// A shape the paper names, and whether this repository's numbers hold it.
pub struct Verdict {
    /// The shape, as the claim states it.
    pub shape: String,
    /// Whether the numbers below hold it.
    pub held: bool,
    /// The numbers the verdict was computed from.
    pub evidence: String,
}

impl Verdict {
    /// A verdict on `shape`, computed as `held` from `evidence`.
    pub fn new(shape: impl Into<String>, held: bool, evidence: impl Into<String>) -> Verdict {
        Verdict {
            shape: shape.into(),
            held,
            evidence: evidence.into(),
        }
    }
}

/// One reproduced table or figure of §5.
pub struct Figure {
    /// The name `reproduce` selects it by (`fig7`, `table1`, …).
    pub name: &'static str,
    /// What it shows.
    pub title: &'static str,
    /// The paper's claim, quoted from the reproduction's doc comment.
    pub claim: &'static str,
    /// This repository's numbers.
    pub tables: Vec<Table>,
    /// One verdict per shape the claim names.
    pub verdicts: Vec<Verdict>,
}

impl Figure {
    /// How many of its verdicts hold.
    pub fn held(&self) -> usize {
        self.verdicts.iter().filter(|v| v.held).count()
    }
}

fn write_table(f: &mut fmt::Formatter<'_>, header: &[&str], rows: &[Vec<String>]) -> fmt::Result {
    writeln!(f, "| {} |", header.join(" | "))?;
    writeln!(f, "|{}", "---|".repeat(header.len()))?;
    for row in rows {
        writeln!(f, "| {} |", row.join(" | "))?;
    }
    Ok(())
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## `{}`: {}\n", self.name, self.title)?;
        writeln!(f, "> **Paper:** {}\n", self.claim)?;
        for table in &self.tables {
            if !table.caption.is_empty() {
                writeln!(f, "{}\n", table.caption)?;
            }
            write_table(f, &table.header, &table.rows)?;
            writeln!(f)?;
        }
        let rows: Vec<Vec<String>> = self
            .verdicts
            .iter()
            .map(|v| {
                let held = if v.held { "held" } else { "**not held**" };
                vec![v.shape.clone(), held.to_string(), v.evidence.clone()]
            })
            .collect();
        writeln!(f, "Verdicts: {} of {} held.\n", self.held(), rows.len())?;
        write_table(f, &["shape", "verdict", "this repo"], &rows)
    }
}

/// A summary table of every figure's verdicts, then each figure: the
/// document body, the same bytes for the same figures.
pub fn render(figures: &[Figure]) -> String {
    let mut out =
        String::from("## Summary\n\n| figure | shapes held | not held |\n|---|---|---|\n");
    for fig in figures {
        let missed: Vec<&str> = fig
            .verdicts
            .iter()
            .filter(|v| !v.held)
            .map(|v| v.shape.as_str())
            .collect();
        let held = format!("{} of {}", fig.held(), fig.verdicts.len());
        out += &format!("| `{}` | {held} | {} |\n", fig.name, missed.join("; "));
    }
    for fig in figures {
        out += &format!("\n{fig}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_figure_renders_its_claim_tables_and_verdicts() {
        let mut table = Table::new("at scale 1", &["layout", "improvement %"]);
        table.rows.push(vec!["2x2".into(), "19".into()]);
        let fig = Figure {
            name: "fig0",
            title: "a sweep",
            claim: "it rises",
            tables: vec![table],
            verdicts: vec![
                Verdict::new("rises", true, "19 → 36"),
                Verdict::new("falls", false, "36 → 40"),
            ],
        };
        assert_eq!(
            fig.to_string(),
            "## `fig0`: a sweep\n\n> **Paper:** it rises\n\nat scale 1\n\n\
             | layout | improvement % |\n|---|---|\n| 2x2 | 19 |\n\n\
             Verdicts: 1 of 2 held.\n\n| shape | verdict | this repo |\n|---|---|---|\n\
             | rises | held | 19 → 36 |\n| falls | **not held** | 36 → 40 |\n"
        );
    }
}
