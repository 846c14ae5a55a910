//! Markdown rendering of document deltas — Table 2's conventions in
//! GitHub-flavoured Markdown, for change reports that land in READMEs,
//! pull requests, and chat:
//!
//! | unit × op | markup |
//! |---|---|
//! | sentence insert | `**bold**` |
//! | sentence delete | `~~strikethrough~~` |
//! | sentence update | `*italics*` |
//! | sentence move | `*text* [→ S1]` at the new position, `~~text~~ [S1]` at the old |
//! | paragraph/item change | `> **[inserted paragraph]**`-style lead-ins |
//! | section change | `(ins)`/`(del)`/`(upd)`/`(mov)` badge in the heading |

use std::collections::HashMap;
use std::fmt::Write as _;

use hierdiff_delta::{Annotation, DeltaNodeId, DeltaTree};

use crate::error::DocError;
use crate::labels;
use crate::value::DocValue;

/// Renders the delta tree as annotated Markdown, rejecting deltas nested
/// deeper than `max_depth` (root = depth 1) with [`DocError::TooDeep`].
///
/// The renderer recurses once per tree level, so the guard runs as an
/// explicit iterative depth check *before* rendering: deeply nested input
/// becomes a typed error instead of a stack overflow. Deltas produced by
/// [`ladiff`](crate::ladiff) are already depth-bounded by
/// [`LaDiffOptions::max_depth`](crate::LaDiffOptions); this entry point is
/// for hand-built or externally sourced delta trees.
pub fn try_render_markdown(
    delta: &DeltaTree<DocValue>,
    max_depth: usize,
) -> Result<String, DocError> {
    let depth = delta_depth(delta);
    if depth > max_depth {
        return Err(DocError::TooDeep {
            depth,
            limit: max_depth,
        });
    }
    Ok(render_markdown(delta))
}

/// Maximum root-to-leaf depth of `delta` (root alone = 1), computed
/// iteratively.
fn delta_depth(delta: &DeltaTree<DocValue>) -> usize {
    let mut max = 0usize;
    let mut stack = vec![(delta.root(), 1usize)];
    while let Some((node, depth)) = stack.pop() {
        max = max.max(depth);
        for &child in delta.children(node) {
            stack.push((child, depth + 1));
        }
    }
    max
}

/// Renders the delta tree of a document pair as annotated Markdown.
pub fn render_markdown(delta: &DeltaTree<DocValue>) -> String {
    let mut mark_names: HashMap<DeltaNodeId, usize> = HashMap::new();
    for id in delta.preorder() {
        match delta.annotation(id) {
            Annotation::Marker { .. } => {
                let n = mark_names.len() + 1;
                mark_names.entry(id).or_insert(n);
            }
            Annotation::Moved { mark, .. } => {
                let n = mark_names.len() + 1;
                mark_names.entry(*mark).or_insert(n);
            }
            _ => {}
        }
    }
    let mut out = String::new();
    let mut r = MdRenderer {
        delta,
        mark_names,
        out: &mut out,
    };
    r.children(delta.root());
    out
}

struct MdRenderer<'a> {
    delta: &'a DeltaTree<DocValue>,
    mark_names: HashMap<DeltaNodeId, usize>,
    out: &'a mut String,
}

impl MdRenderer<'_> {
    fn children(&mut self, id: DeltaNodeId) {
        for &c in self.delta.children(id) {
            self.node(c, 0);
        }
    }

    fn node(&mut self, id: DeltaNodeId, list_depth: usize) {
        let label = self.delta.label(id);
        if label == labels::sentence() {
            self.sentence(id);
        } else if label == labels::section() || label == labels::subsection() {
            self.heading(id);
        } else if label == labels::paragraph() {
            self.paragraph(id, list_depth);
        } else if label == labels::item() {
            self.item(id, list_depth);
        } else if label == labels::list() {
            for &c in self.delta.children(id) {
                self.node(c, list_depth + 1);
            }
        } else {
            self.children(id);
        }
    }

    fn text(&self, id: DeltaNodeId) -> String {
        self.delta.value(id).as_text().unwrap_or("").to_string()
    }

    fn mark_no(&self, id: &DeltaNodeId) -> usize {
        self.mark_names.get(id).copied().unwrap_or(0)
    }

    fn sentence(&mut self, id: DeltaNodeId) {
        let text = self.text(id);
        match self.delta.annotation(id) {
            Annotation::Identical => {
                let _ = write!(self.out, "{text} ");
            }
            Annotation::Inserted => {
                let _ = write!(self.out, "**{text}** ");
            }
            Annotation::Deleted => {
                let _ = write!(self.out, "~~{text}~~ ");
            }
            Annotation::Updated { .. } => {
                let _ = write!(self.out, "*{text}* ");
            }
            Annotation::Moved { mark, old } => {
                let n = self.mark_no(mark);
                if old.is_some() {
                    let _ = write!(self.out, "*{text}* [→ S{n}] ");
                } else {
                    let _ = write!(self.out, "{text} [→ S{n}] ");
                }
            }
            Annotation::Marker { .. } => {
                let n = self.mark_no(&id);
                let _ = write!(self.out, "~~{text}~~ [S{n}] ");
            }
        }
    }

    fn heading(&mut self, id: DeltaNodeId) {
        let hashes = if self.delta.label(id) == labels::section() {
            "#"
        } else {
            "##"
        };
        let title = self.text(id);
        let badge = match self.delta.annotation(id) {
            Annotation::Identical => "",
            Annotation::Inserted => "(ins) ",
            Annotation::Deleted => "(del) ",
            Annotation::Updated { .. } => "(upd) ",
            Annotation::Moved { .. } => "(mov) ",
            Annotation::Marker { .. } => {
                let n = self.mark_no(&id);
                let _ = writeln!(self.out, "> *[section moved: S{n}]*\n");
                return;
            }
        };
        let _ = writeln!(self.out, "{hashes} {badge}{title}\n");
        self.children(id);
    }

    fn paragraph(&mut self, id: DeltaNodeId, list_depth: usize) {
        match self.delta.annotation(id) {
            Annotation::Inserted => {
                let _ = write!(self.out, "> **[inserted paragraph]** ");
            }
            Annotation::Deleted => {
                let _ = write!(self.out, "> **[deleted paragraph]** ");
            }
            Annotation::Moved { mark, .. } => {
                let n = self.mark_no(mark);
                let _ = write!(self.out, "> **[paragraph moved from P{n}]** ");
            }
            Annotation::Marker { .. } => {
                let n = self.mark_no(&id);
                let _ = writeln!(self.out, "> *[old paragraph position: P{n}]*\n");
                return;
            }
            _ => {}
        }
        for &c in self.delta.children(id) {
            self.node(c, list_depth);
        }
        let _ = writeln!(self.out, "\n");
    }

    fn item(&mut self, id: DeltaNodeId, list_depth: usize) {
        let indent = "  ".repeat(list_depth.saturating_sub(1));
        let _ = write!(self.out, "{indent}- ");
        match self.delta.annotation(id) {
            Annotation::Inserted => {
                let _ = write!(self.out, "**[new]** ");
            }
            Annotation::Deleted => {
                let _ = write!(self.out, "~~[removed]~~ ");
            }
            Annotation::Moved { mark, .. } => {
                let n = self.mark_no(mark);
                let _ = write!(self.out, "*[moved from P{n}]* ");
            }
            Annotation::Marker { .. } => {
                let n = self.mark_no(&id);
                let _ = writeln!(self.out, "*[old item position: P{n}]*");
                return;
            }
            _ => {}
        }
        for &c in self.delta.children(id) {
            self.node(c, list_depth);
        }
        let _ = writeln!(self.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markdown::parse_markdown;
    use crate::pipeline::{diff_trees, LaDiffOptions};

    fn md_delta(old: &str, new: &str) -> String {
        let t1 = parse_markdown(old);
        let t2 = parse_markdown(new);
        let out = diff_trees(t1, t2, &LaDiffOptions::default()).unwrap();
        render_markdown(&out.delta)
    }

    #[test]
    fn insert_bold_delete_strike() {
        let out = md_delta(
            "# T\n\nStable one here. Doomed line here. Stable two here. Stable three here.\n",
            "# T\n\nStable one here. Stable two here. Fresh line here. Stable three here.\n",
        );
        assert!(out.contains("**Fresh line here.**"), "{out}");
        assert!(out.contains("~~Doomed line here.~~"), "{out}");
        assert!(out.contains("# T"), "{out}");
    }

    #[test]
    fn moves_pair_labels() {
        let out = md_delta(
            "# T\n\nMover sentence goes south. Anchor alpha stays. Anchor beta stays.\n",
            "# T\n\nAnchor alpha stays. Anchor beta stays. Mover sentence goes south.\n",
        );
        assert!(out.contains("Mover sentence goes south. [→ S1]"), "{out}");
        assert!(out.contains("~~Mover sentence goes south.~~ [S1]"), "{out}");
    }

    #[test]
    fn updated_heading_badge() {
        let out = md_delta(
            "# Old Name\n\nBody one stays. Body two stays. Body three stays.\n",
            "# New Name\n\nBody one stays. Body two stays. Body three stays.\n",
        );
        assert!(out.contains("# (upd) New Name"), "{out}");
    }

    #[test]
    fn list_items_render_with_markers() {
        let out = md_delta(
            "- first point stays\n- second point stays\n",
            "- first point stays\n- second point stays\n- third point added\n",
        );
        assert!(out.contains("- **[new]** **third point added**"), "{out}");
        assert!(out.contains("- first point stays"), "{out}");
    }

    #[test]
    fn try_render_guards_depth() {
        use crate::latex::try_parse_latex;
        let mut src = String::new();
        for _ in 0..300 {
            src.push_str("\\begin{itemize}\n\\item x\n");
        }
        for _ in 0..300 {
            src.push_str("\\end{itemize}\n");
        }
        let t = try_parse_latex(&src, 10_000).unwrap();
        let opts = LaDiffOptions {
            max_depth: 10_000,
            ..LaDiffOptions::default()
        };
        let out = diff_trees(t.clone(), t, &opts).unwrap();
        let err = try_render_markdown(&out.delta, 512).unwrap_err();
        assert!(matches!(err, DocError::TooDeep { .. }), "{err:?}");
        assert!(try_render_markdown(&out.delta, 10_000).is_ok());
    }

    #[test]
    fn roundtrip_is_parseable_markdown() {
        // The rendered output is itself valid input for the parser (the
        // annotations ride inside sentences).
        let out = md_delta(
            "# T\n\nAlpha stays here. Beta stays here.\n",
            "# T\n\nAlpha stays here. Beta stays here. Gamma arrives.\n",
        );
        let t = parse_markdown(&out);
        t.validate().unwrap();
        assert!(t.len() > 3);
    }
}
