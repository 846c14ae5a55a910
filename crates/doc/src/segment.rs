//! Text segmentation: paragraphs into sentences.
//!
//! The paper's textual units (Section 7) are sentences, paragraphs, items,
//! subsections, sections, lists, and the document. Paragraph splitting (on
//! blank lines) happens in the format parsers; this module handles the
//! sentence level.

/// Splits a paragraph of text into sentences.
///
/// A sentence ends at `.`, `!` or `?` (a run of them, allowing `?!`),
/// optionally followed by closing quotes/parens, when followed by
/// whitespace. Common abbreviation patterns (`e.g.`, `i.e.`, `etc.`,
/// initials like `J.`) do not end a sentence unless followed by a capital
/// letter after whitespace is absent — we keep the heuristic simple and
/// deterministic: a period preceded by a single letter or by a known
/// abbreviation does not split.
pub fn split_sentences(text: &str) -> Vec<String> {
    const ABBREVIATIONS: &[&str] = &[
        "e.g", "i.e", "etc", "cf", "vs", "fig", "sec", "no", "dr", "mr", "mrs", "ms", "prof", "st",
        "jr", "sr", "inc", "dept",
    ];

    let chars: Vec<char> = text.chars().collect();
    let mut sentences = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    while let Some(&c) = chars.get(i) {
        if c == '.' || c == '!' || c == '?' {
            // Consume the full terminator run plus trailing closers.
            let mut j = i;
            while matches!(chars.get(j + 1), Some('.' | '!' | '?')) {
                j += 1;
            }
            while matches!(chars.get(j + 1), Some('"' | '\'' | ')' | ']' | '}')) {
                j += 1;
            }
            let next = chars.get(j + 1);
            let at_end = next.is_none();
            let followed_by_space = next.is_some_and(|c| c.is_whitespace());
            // `start ≤ i ≤ j < chars.len()`: the spans below always exist.
            let before = chars.get(start..i).unwrap_or_default();
            let abbreviation = c == '.' && i == j && is_abbreviation(before, ABBREVIATIONS);
            if (at_end || followed_by_space) && !abbreviation {
                let s: String = chars.get(start..=j).unwrap_or_default().iter().collect();
                let trimmed = s.trim();
                if !trimmed.is_empty() {
                    sentences.push(normalize_ws(trimmed));
                }
                start = j + 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    let tail: String = chars.get(start..).unwrap_or_default().iter().collect();
    let tail = tail.trim();
    if !tail.is_empty() {
        sentences.push(normalize_ws(tail));
    }
    sentences
}

/// Whether the text ending just before a period looks like an abbreviation
/// or a single-letter initial.
fn is_abbreviation(before: &[char], abbreviations: &[&str]) -> bool {
    // Collect the final word before the period; apostrophes count as word
    // characters so contractions ("isn't.") are full words, not initials.
    let mut word: Vec<char> = Vec::new();
    for &c in before.iter().rev() {
        if c.is_alphabetic() || c == '.' || c == '\'' {
            word.push(c.to_ascii_lowercase());
        } else {
            break;
        }
    }
    word.reverse();
    let word: String = word.into_iter().collect();
    if word.chars().filter(|c| c.is_alphabetic()).count() == 1 && !word.contains('\'') {
        return true; // single-letter initial, e.g. "J."
    }
    abbreviations.contains(&word.trim_end_matches('.'))
}

/// Collapses internal whitespace runs to single spaces.
pub fn normalize_ws(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Splits raw text into paragraphs on blank lines, normalizing whitespace.
pub fn split_paragraphs(text: &str) -> Vec<String> {
    let mut paragraphs = Vec::new();
    let mut current = String::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            if !current.trim().is_empty() {
                paragraphs.push(normalize_ws(&current));
            }
            current.clear();
        } else {
            if !current.is_empty() {
                current.push(' ');
            }
            current.push_str(line);
        }
    }
    if !current.trim().is_empty() {
        paragraphs.push(normalize_ws(&current));
    }
    paragraphs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_sentences() {
        let s = split_sentences("One sentence. Another one! A third? Done.");
        assert_eq!(
            s,
            vec!["One sentence.", "Another one!", "A third?", "Done."]
        );
    }

    #[test]
    fn trailing_unterminated_text_is_a_sentence() {
        let s = split_sentences("Complete sentence. trailing fragment");
        assert_eq!(s, vec!["Complete sentence.", "trailing fragment"]);
    }

    #[test]
    fn abbreviations_do_not_split() {
        let s = split_sentences("We use LCS, e.g. Myers' algorithm. It is fast.");
        assert_eq!(s, vec!["We use LCS, e.g. Myers' algorithm.", "It is fast."]);
    }

    #[test]
    fn initials_do_not_split() {
        let s = split_sentences("Written by J. Widom. It is good.");
        assert_eq!(s, vec!["Written by J. Widom.", "It is good."]);
    }

    #[test]
    fn multi_punctuation_runs() {
        let s = split_sentences("Really?! Yes... Sure.");
        assert_eq!(s, vec!["Really?!", "Yes...", "Sure."]);
    }

    #[test]
    fn closing_quotes_stay_attached() {
        let s = split_sentences("He said \"stop.\" Then left.");
        assert_eq!(s, vec!["He said \"stop.\"", "Then left."]);
    }

    #[test]
    fn empty_input() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("   \n ").is_empty());
    }

    #[test]
    fn whitespace_normalized() {
        let s = split_sentences("Spaced   out\ttext.  Next.");
        assert_eq!(s, vec!["Spaced out text.", "Next."]);
    }

    #[test]
    fn contractions_do_end_sentences() {
        let s = split_sentences(
            "This feature may seem strange, but it isn't. When concepts appear, rules follow.",
        );
        assert_eq!(
            s,
            vec![
                "This feature may seem strange, but it isn't.",
                "When concepts appear, rules follow."
            ]
        );
    }

    #[test]
    fn decimal_numbers_do_not_split() {
        // "3.14" has no whitespace after the period.
        let s = split_sentences("Pi is 3.14 roughly. Indeed.");
        assert_eq!(s, vec!["Pi is 3.14 roughly.", "Indeed."]);
    }

    #[test]
    fn paragraphs_split_on_blank_lines() {
        let p = split_paragraphs("Line one.\nLine two.\n\nSecond para.\n\n\nThird.");
        assert_eq!(p, vec!["Line one. Line two.", "Second para.", "Third."]);
    }

    #[test]
    fn paragraphs_empty_input() {
        assert!(split_paragraphs("").is_empty());
        assert!(split_paragraphs("\n\n\n").is_empty());
    }
}
