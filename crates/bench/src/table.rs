//! Minimal fixed-width / markdown table printing for the experiment
//! harness.

use std::fmt::Write as _;

/// A simple column-aligned table rendered as GitHub-flavoured markdown.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders as a markdown table with aligned columns.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(out, " {c:>w$} |", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats an integer-valued count.
pub fn n(x: usize) -> String {
    x.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(&["set", "e", "d", "e/d"]);
        t.row(&["1".into(), "34".into(), "10".into(), f2(3.4)]);
        t.row(&["22".into(), "6".into(), "2".into(), f2(3.0)]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("set"));
        assert!(lines[1].starts_with("|--"));
        assert!(lines[2].contains("3.40"));
        // Columns align: all rows same length.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(f1(1.23456), "1.2");
        assert_eq!(n(42), "42");
    }
}
