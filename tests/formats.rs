//! Cross-format consistency: the same logical document authored in LaTeX,
//! Markdown, and HTML parses to isomorphic trees (same schema, same
//! segmentation), so diffs — and therefore change reports — agree across
//! authoring formats.

use hierdiff::doc::{
    ladiff, parse_html, parse_latex, parse_markdown, render_markdown, DocFormat, LaDiffOptions,
};
use hierdiff::tree::isomorphic;
use hierdiff::Differ;

const LATEX: &str = "\\section{Release notes}\nAlpha sentence here. Beta sentence here.\n\nGamma paragraph starts. Delta continues it.\n\\subsection{Details}\nEpsilon closes things.\n";
const MARKDOWN: &str = "# Release notes\n\nAlpha sentence here. Beta sentence here.\n\nGamma paragraph starts. Delta continues it.\n\n## Details\n\nEpsilon closes things.\n";
const HTML: &str = "<h1>Release notes</h1><p>Alpha sentence here. Beta sentence here.</p><p>Gamma paragraph starts. Delta continues it.</p><h2>Details</h2><p>Epsilon closes things.</p>";

#[test]
fn latex_markdown_html_parse_isomorphically() {
    let from_latex = parse_latex(LATEX);
    let from_md = parse_markdown(MARKDOWN);
    let from_html = parse_html(HTML);
    assert!(
        isomorphic(&from_latex, &from_md),
        "latex:\n{from_latex:?}\nmarkdown:\n{from_md:?}"
    );
    assert!(
        isomorphic(&from_latex, &from_html),
        "latex:\n{from_latex:?}\nhtml:\n{from_html:?}"
    );
}

#[test]
fn cross_format_diff_agrees() {
    // Author the old version in LaTeX and the new in Markdown: the diff is
    // identical to the single-format diffs because the trees are.
    let new_markdown = "# Release notes\n\nAlpha sentence here. Beta sentence here. Zeta is brand new.\n\nGamma paragraph starts. Delta continues it.\n\n## Details\n\nEpsilon closes things.\n";
    let out = Differ::new()
        .diff(&parse_latex(LATEX), &parse_markdown(new_markdown))
        .unwrap();
    let ops = out.script.op_counts();
    assert_eq!(ops.inserts, 1);
    assert_eq!(ops.total(), 1);
    // And the report can come out in a third format entirely.
    let report = render_markdown(out.delta.as_ref().unwrap());
    assert!(report.contains("**Zeta is brand new.**"), "{report}");
}

#[test]
fn lists_agree_across_formats() {
    let latex =
        "\\begin{itemize}\n\\item First point here.\n\\item Second point here.\n\\end{itemize}\n";
    let markdown = "- First point here.\n- Second point here.\n";
    let html = "<ul><li>First point here.</li><li>Second point here.</li></ul>";
    let a = parse_latex(latex);
    let b = parse_markdown(markdown);
    let c = parse_html(html);
    assert!(isomorphic(&a, &b), "{a:?}\n{b:?}");
    assert!(isomorphic(&a, &c), "{a:?}\n{c:?}");
}

#[test]
fn xml_remains_distinct_but_diffable_against_itself() {
    // XML maps to its own schema (element names as labels), so it is not
    // isomorphic to the document formats — but the same machinery diffs it.
    let a = "<notes><p>Alpha stays.</p><p>Beta stays.</p><p>Gamma stays.</p></notes>";
    let b = "<notes><p>Alpha stays.</p><p>Beta stays.</p><p>Gamma stays.</p><p>Delta arrives.</p></notes>";
    let options = LaDiffOptions {
        format: DocFormat::Xml,
        ..LaDiffOptions::default()
    };
    let out = ladiff(a, b, &options).unwrap();
    assert_eq!(out.stats.ops.inserts, 2); // <p> element + its #text
}
