//! The document node value and the sentence `compare` function.
//!
//! Section 7: "Our comparison function for leaf nodes — which are
//! sentences — first computes the LCS of the words in the sentences, then
//! counts the number of words not in the LCS." Normalized into the
//! `[0, 2]` range required by the cost model (Section 3.2):
//!
//! ```text
//! compare(s1, s2) = (|w1| + |w2| − 2·|LCS(w1, w2)|) / max(|w1|, |w2|)
//! ```
//!
//! Identical sentences score 0; completely disjoint equal-length sentences
//! score 2; and the cost-model consistency rule holds — an update is cheaper
//! than delete + insert exactly when more than half the words survive.

use hierdiff_lcs::lcs_len;
use hierdiff_tree::NodeValue;
use serde::{Deserialize, Serialize};

/// Value carried by document tree nodes: sentence text on `Sentence` leaves,
/// heading text on `Section`/`Subsection` nodes, nothing elsewhere.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DocValue {
    /// No value (interior structural nodes).
    #[default]
    None,
    /// Text content (sentence or heading).
    Text(String),
}

impl DocValue {
    /// Builds a text value.
    pub fn text(s: impl Into<String>) -> DocValue {
        DocValue::Text(s.into())
    }

    /// The text content, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            DocValue::None => None,
            DocValue::Text(s) => Some(s),
        }
    }
}

/// A text value is prepared by tokenizing it once into [`Words`].
impl NodeValue for DocValue {
    type Prepared<'a> = Option<Words<'a>>;

    fn null() -> Self {
        DocValue::None
    }

    fn prepare(&self) -> Option<Words<'_>> {
        self.as_text().map(Words::new)
    }

    fn compare_prepared(a: &Option<Words<'_>>, b: &Option<Words<'_>>) -> f64 {
        match (a, b) {
            (None, None) => 0.0,
            (Some(a), Some(b)) => a.distance(b),
            _ => 2.0,
        }
    }
}

/// The tokens of [`words`], unallocated.
fn tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '\''))
        .filter(|w| !w.is_empty())
}

/// Splits `text` into word tokens: maximal alphanumeric runs (apostrophes
/// kept inside words so contractions survive).
pub fn words(text: &str) -> Vec<&str> {
    tokens(text).collect()
}

/// A sentence tokenized once for any number of [`Words::distance`] calls.
#[derive(Debug)]
pub struct Words<'a> {
    text: &'a str,
    words: Vec<Word<'a>>,
}

/// One word and a hash of its ASCII-lowercased bytes: words equal up to
/// ASCII case have equal hashes, so unequal hashes prove unequal words.
#[derive(Debug)]
struct Word<'a> {
    w: &'a str,
    fp: u64,
}

impl<'a> Words<'a> {
    /// Tokenizes `text` as [`words`] does.
    pub fn new(text: &'a str) -> Words<'a> {
        let words = tokens(text)
            .map(|w| Word {
                w,
                fp: folded_hash(w),
            })
            .collect();
        Words { text, words }
    }

    /// The paper's sentence distance in `[0, 2]` (see module docs). Word
    /// equality is ASCII-case-insensitive. Two sentences with no words at
    /// all (pure punctuation) compare equal iff their raw text is equal.
    pub fn distance(&self, other: &Words<'_>) -> f64 {
        if self.text == other.text {
            return 0.0;
        }
        let (la, lb) = (self.words.len(), other.words.len());
        if la == 0 && lb == 0 {
            return 2.0; // different punctuation-only strings
        }
        let common = lcs_len(&self.words, &other.words, |x, y| {
            x.fp == y.fp && x.w.eq_ignore_ascii_case(y.w)
        });
        let max = la.max(lb) as f64;
        (la + lb - 2 * common) as f64 / max
    }
}

/// FNV-1a over the ASCII-lowercased bytes of `w`.
fn folded_hash(w: &str) -> u64 {
    w.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The paper's sentence distance in `[0, 2]` (see [`Words::distance`]).
pub fn word_distance(a: &str, b: &str) -> f64 {
    Words::new(a).distance(&Words::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_tokenize() {
        assert_eq!(words("Hello, world!"), vec!["Hello", "world"]);
        assert_eq!(words("don't stop"), vec!["don't", "stop"]);
        assert_eq!(words("  a  b  "), vec!["a", "b"]);
        assert!(words("...").is_empty());
        assert_eq!(words("TeX78 rocks"), vec!["TeX78", "rocks"]);
    }

    #[test]
    fn identical_sentences_distance_zero() {
        assert_eq!(word_distance("the cat sat", "the cat sat"), 0.0);
    }

    #[test]
    fn case_insensitive_words() {
        assert_eq!(word_distance("The Cat", "the cat"), 0.0);
    }

    #[test]
    fn disjoint_sentences_distance_two() {
        assert_eq!(word_distance("alpha beta", "gamma delta"), 2.0);
    }

    #[test]
    fn small_edits_stay_below_one() {
        // One word changed out of five: distance (5+5−2·4)/5 = 0.4 < 1 —
        // update beats delete+insert, per the cost-model consistency rule.
        let d = word_distance("one two three four five", "one two three four SIX");
        assert!((d - 0.4).abs() < 1e-9, "{d}");
    }

    #[test]
    fn heavy_edits_exceed_one() {
        // One shared word out of four: (4+4−2)/4 = 1.5 > 1.
        let d = word_distance("a b c d", "a x y z");
        assert!(d > 1.0, "{d}");
    }

    #[test]
    fn range_bounds() {
        for (a, b) in [
            ("", ""),
            ("x", ""),
            ("", "y"),
            ("a b", "a"),
            ("lorem ipsum dolor", "ipsum lorem dolor"),
        ] {
            let d = word_distance(a, b);
            assert!((0.0..=2.0).contains(&d), "({a:?}, {b:?}) -> {d}");
            assert_eq!(d, word_distance(b, a), "symmetry for ({a:?}, {b:?})");
        }
    }

    #[test]
    fn empty_vs_nonempty_is_one() {
        assert_eq!(word_distance("", "hello"), 1.0);
    }

    #[test]
    fn docvalue_compare_dispatch() {
        use hierdiff_tree::NodeValue;
        assert_eq!(DocValue::None.compare(&DocValue::None), 0.0);
        assert_eq!(DocValue::None.compare(&DocValue::text("x")), 2.0);
        assert_eq!(
            DocValue::text("same words").compare(&DocValue::text("same words")),
            0.0
        );
        assert!(DocValue::None.is_null());
        assert!(!DocValue::text("x").is_null());
    }

    #[test]
    fn word_order_matters() {
        // Reordered words reduce the LCS: "a b c" vs "c b a" share LCS of
        // length 1 ("b" or "a"/"c") → distance (3+3−2)/3 = 4/3.
        let d = word_distance("a b c", "c b a");
        assert!(d > 1.0, "{d}");
    }

    /// The sentence distance as one quadratic DP: the oracle for
    /// [`Words::distance`].
    fn word_distance_dp(a: &str, b: &str) -> f64 {
        if a == b {
            return 0.0;
        }
        let wa = words(a);
        let wb = words(b);
        if wa.is_empty() && wb.is_empty() {
            return 2.0;
        }
        let common = hierdiff_lcs::lcs_dp(&wa, &wb, |x, y| x.eq_ignore_ascii_case(y)).len();
        let max = wa.len().max(wb.len()) as f64;
        (wa.len() + wb.len() - 2 * common) as f64 / max
    }

    /// Words in ASCII case variants, with apostrophes and digits, and with
    /// non-ASCII letters that ASCII case folding must leave apart.
    const VOCAB: &[&str] = &[
        "the", "The", "THE", "cat", "Cat", "don't", "DON'T", "it's", "x1", "X1", "42", "tex78",
        "TeX78", "café", "CAFé", "cafÉ", "É", "é", "über", "Über", "a", "A", "b",
    ];

    /// Separators between words, some of them punctuation-only.
    const SEPS: &[&str] = &[" ", " ", " ", ", ", ". ", "; ", " -- ", "!"];

    /// A sentence of 0 to 89 words (more than one 64-bit LCS block), or
    /// a punctuation-only string.
    fn sentence() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        prop_oneof![
            8 => proptest::collection::vec((0..VOCAB.len(), 0..SEPS.len()), 0..90usize).prop_map(
                |ws| {
                    ws.into_iter()
                        .flat_map(|(w, s)| [VOCAB[w], SEPS[s]])
                        .collect::<String>()
                }
            ),
            1 => proptest::collection::vec(0..SEPS.len(), 0..4usize)
                .prop_map(|ss| ss.into_iter().map(|s| SEPS[s]).collect::<String>()),
        ]
    }

    proptest::proptest! {
        #[test]
        fn prop_word_distance_equals_dp_oracle(a in sentence(), b in sentence()) {
            let d = word_distance(&a, &b);
            proptest::prop_assert_eq!(d.to_bits(), word_distance_dp(&a, &b).to_bits(), "{:?} / {:?}", a, b);
            let (va, vb) = (DocValue::text(a), DocValue::text(b));
            let prepared = DocValue::compare_prepared(&va.prepare(), &vb.prepare());
            proptest::prop_assert_eq!(va.compare(&vb).to_bits(), prepared.to_bits());
            proptest::prop_assert_eq!(d.to_bits(), prepared.to_bits());
            proptest::prop_assert_eq!(va.compare(&DocValue::None), 2.0);
        }
    }

    #[test]
    fn non_ascii_letters_do_not_fold() {
        assert_eq!(word_distance("café", "cafÉ"), 2.0);
        assert_eq!(word_distance("Über alles", "über alles"), 1.0);
        assert_eq!(word_distance("CAFé", "café"), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let v = DocValue::text("hello");
        let j = serde_json::to_string(&v).unwrap();
        let back: DocValue = serde_json::from_str(&j).unwrap();
        assert_eq!(back, v);
    }
}
