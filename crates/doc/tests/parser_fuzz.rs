//! Robustness: the document parsers must never panic and always produce
//! valid trees, whatever bytes they are fed (malformed LaTeX/HTML included).

use proptest::prelude::*;

use hierdiff_doc::{parse_html, parse_latex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn latex_parser_total(src in "\\PC{0,400}") {
        let t = parse_latex(&src);
        prop_assert!(t.validate().is_ok());
    }

    #[test]
    fn latex_parser_structured_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("\\section{T}".to_string()),
                Just("\\subsection{U}".to_string()),
                Just("\\begin{itemize}".to_string()),
                Just("\\end{itemize}".to_string()),
                Just("\\begin{enumerate}".to_string()),
                Just("\\end{enumerate}".to_string()),
                Just("\\item point".to_string()),
                Just("".to_string()),
                Just("Plain sentence here.".to_string()),
                Just("% comment".to_string()),
                Just("\\begin{document}".to_string()),
                Just("\\end{document}".to_string()),
                Just("\\section{unclosed".to_string()),
            ],
            0..30,
        )
    ) {
        let src = parts.join("\n");
        let t = parse_latex(&src);
        prop_assert!(t.validate().is_ok());
    }

    #[test]
    fn html_parser_total(src in "\\PC{0,400}") {
        let t = parse_html(&src);
        prop_assert!(t.validate().is_ok());
    }

    #[test]
    fn html_parser_tag_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<p>".to_string()),
                Just("</p>".to_string()),
                Just("<h1>".to_string()),
                Just("</h1>".to_string()),
                Just("<ul>".to_string()),
                Just("</ul>".to_string()),
                Just("<li>".to_string()),
                Just("</li>".to_string()),
                Just("<dl><dt>".to_string()),
                Just("text content. more text".to_string()),
                Just("<unclosed".to_string()),
                Just("<!-- comment -->".to_string()),
                Just("&amp;&bogus;".to_string()),
            ],
            0..30,
        )
    ) {
        let src = parts.join("");
        let t = parse_html(&src);
        prop_assert!(t.validate().is_ok());
    }

    /// Whatever the parsers produce must be diffable against itself
    /// (trivially) and against a mutated copy without panicking.
    #[test]
    fn parsed_soup_is_diffable(src in "\\PC{0,200}", src2 in "\\PC{0,200}") {
        use hierdiff_doc::{ladiff, LaDiffOptions};
        let out = ladiff(&src, &src2, &LaDiffOptions::default()).unwrap();
        // Markup rendering is total too.
        let _ = out.markup.len();
    }
}
