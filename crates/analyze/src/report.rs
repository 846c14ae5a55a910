//! Findings and rendering: rustc-style human output and a hand-rolled JSON
//! report (the crate is std-only, so no serde here — the report shape is
//! flat enough that manual escaping is the whole job).

use std::fmt;

/// One finding at a specific source position.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based char column (0 when the check is line-granular).
    pub col: usize,
    /// Stable `S0xx` code.
    pub code: &'static str,
    /// What the check objects to.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(
                f,
                "{}:{}:{}: {} {}",
                self.path, self.line, self.col, self.code, self.message
            )
        } else {
            write!(
                f,
                "{}:{}: {} {}",
                self.path, self.line, self.code, self.message
            )
        }
    }
}

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the analyzer report as JSON: the findings plus summary counts.
/// `waived` is the number of sites suppressed by inline `analyze: allow(…)`
/// waivers.
pub fn render_json(findings: &[Finding], waived: usize) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"code\": \"{}\", \"message\": \"{}\"}}{}\n",
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(f.code),
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"summary\": {{\"total\": {}, \"waived\": {}}}\n}}\n",
        findings.len(),
        waived
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_col() {
        let f = Finding {
            path: "crates/a/src/x.rs".into(),
            line: 3,
            col: 7,
            code: "S010",
            message: "m".into(),
        };
        assert_eq!(f.to_string(), "crates/a/src/x.rs:3:7: S010 m");
        let g = Finding { col: 0, ..f };
        assert_eq!(g.to_string(), "crates/a/src/x.rs:3: S010 m");
    }

    #[test]
    fn json_escapes_and_counts() {
        let fs = vec![Finding {
            path: "a\"b".into(),
            line: 1,
            col: 2,
            code: "S010",
            message: "uses \\ and\nnewline".into(),
        }];
        let j = render_json(&fs, 2);
        assert!(j.contains("\"path\": \"a\\\"b\""));
        assert!(j.contains("uses \\\\ and\\nnewline"));
        assert!(j.contains("\"total\": 1"));
        assert!(j.contains("\"waived\": 2"));
        // Valid-ish JSON smoke: balanced braces/brackets.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
