//! Seeded synthetic document generation.

use hierdiff_doc::{labels, DocValue};
use hierdiff_tree::Tree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape and content knobs for a synthetic document.
#[derive(Clone, Copy, Debug)]
pub struct DocProfile {
    /// Number of sections.
    pub sections: usize,
    /// Paragraphs per section (inclusive range).
    pub paragraphs_per_section: (usize, usize),
    /// Sentences per paragraph (inclusive range).
    pub sentences_per_paragraph: (usize, usize),
    /// Words per sentence (inclusive range).
    pub words_per_sentence: (usize, usize),
    /// Vocabulary size. Smaller vocabularies raise the duplicate-sentence
    /// rate and thus Criterion 3 violations (Table 1's knob).
    pub vocabulary: usize,
    /// Probability that a sentence is an exact duplicate of an earlier one
    /// (directly injects Criterion 3 violations; 0.0 for clean corpora).
    pub duplicate_rate: f64,
}

impl Default for DocProfile {
    fn default() -> DocProfile {
        DocProfile {
            sections: 5,
            paragraphs_per_section: (3, 6),
            sentences_per_paragraph: (2, 6),
            words_per_sentence: (6, 14),
            vocabulary: 2000,
            duplicate_rate: 0.0,
        }
    }
}

impl DocProfile {
    /// A small document (~40 sentences). Paragraph and section granularity
    /// matches [`DocProfile::default`] so that per-block move weights — and
    /// hence the `e/d` ratio — are comparable across document sizes, as the
    /// paper observes for its corpus ("e/d is not very sensitive to the
    /// size of the documents").
    pub fn small() -> DocProfile {
        DocProfile {
            sections: 2,
            ..DocProfile::default()
        }
    }

    /// A large document (~250 sentences), the scale of a long paper. Same
    /// granularity rationale as [`DocProfile::small`].
    pub fn large() -> DocProfile {
        DocProfile {
            sections: 14,
            ..DocProfile::default()
        }
    }
}

/// A synthetic word from a fixed pseudo-vocabulary: `w<k>` for the `k`-th
/// vocabulary slot. Deterministic, collision-free, cheap to compare.
fn word(k: usize) -> String {
    format!("w{k}")
}

pub(crate) fn random_sentence(rng: &mut StdRng, profile: &DocProfile) -> String {
    let (lo, hi) = profile.words_per_sentence;
    let n = rng.gen_range(lo..=hi);
    let mut s = String::new();
    for i in 0..n {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&word(rng.gen_range(0..profile.vocabulary)));
    }
    s.push('.');
    s
}

/// Generates a random document tree from `profile`, deterministically from
/// `seed`.
pub fn generate_document(seed: u64, profile: &DocProfile) -> Tree<DocValue> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = Tree::new(labels::document(), DocValue::None);
    let root = tree.root();
    let mut produced: Vec<String> = Vec::new();
    for s in 0..profile.sections {
        let sec = tree.push_child(
            root,
            labels::section(),
            DocValue::text(format!(
                "Section {} {}",
                s + 1,
                word(rng.gen_range(0..profile.vocabulary))
            )),
        );
        let (plo, phi) = profile.paragraphs_per_section;
        for _ in 0..rng.gen_range(plo..=phi) {
            let para = tree.push_child(sec, labels::paragraph(), DocValue::None);
            let (slo, shi) = profile.sentences_per_paragraph;
            for _ in 0..rng.gen_range(slo..=shi) {
                let text = if !produced.is_empty() && rng.gen_bool(profile.duplicate_rate) {
                    let i = rng.gen_range(0..produced.len());
                    produced.get(i).cloned().unwrap_or_default()
                } else {
                    let t = random_sentence(&mut rng, profile);
                    produced.push(t.clone());
                    t
                };
                tree.push_child(para, labels::sentence(), DocValue::text(text));
            }
        }
    }
    // Children were appended in depth-first order, so ids are already
    // preorder ranks: sealing the compact layout is an identity remap and
    // turns on the linear-scan fast paths for every consumer of the
    // generated document.
    tree.compact();
    debug_assert!(tree.is_compact());
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let p = DocProfile::small();
        let a = generate_document(42, &p);
        let b = generate_document(42, &p);
        assert!(hierdiff_tree::isomorphic(&a, &b));
    }

    #[test]
    fn different_seeds_differ() {
        let p = DocProfile::small();
        let a = generate_document(1, &p);
        let b = generate_document(2, &p);
        assert!(!hierdiff_tree::isomorphic(&a, &b));
    }

    #[test]
    fn respects_profile_shape() {
        let p = DocProfile {
            sections: 4,
            paragraphs_per_section: (2, 2),
            sentences_per_paragraph: (3, 3),
            ..DocProfile::default()
        };
        let t = generate_document(7, &p);
        let sections = t
            .preorder()
            .filter(|&n| t.label(n) == labels::section())
            .count();
        let sentences = t.leaves().count();
        assert_eq!(sections, 4);
        assert_eq!(sentences, 4 * 2 * 3);
        t.validate().unwrap();
    }

    #[test]
    fn duplicate_rate_injects_duplicates() {
        let p = DocProfile {
            duplicate_rate: 0.5,
            vocabulary: 10_000, // fresh sentences essentially unique
            ..DocProfile::default()
        };
        let t = generate_document(3, &p);
        let mut seen = std::collections::HashSet::new();
        let mut dups = 0;
        for leaf in t.leaves() {
            if !seen.insert(t.value(leaf).as_text().unwrap().to_string()) {
                dups += 1;
            }
        }
        assert!(dups > 0, "expected injected duplicates");
    }

    #[test]
    fn zero_duplicate_rate_high_vocab_mostly_unique() {
        let p = DocProfile {
            duplicate_rate: 0.0,
            vocabulary: 100_000,
            ..DocProfile::default()
        };
        let t = generate_document(5, &p);
        let mut seen = std::collections::HashSet::new();
        for leaf in t.leaves() {
            assert!(
                seen.insert(t.value(leaf).as_text().unwrap().to_string()),
                "collision in high-vocabulary corpus"
            );
        }
    }

    #[test]
    fn schema_is_acyclic() {
        let t = generate_document(9, &DocProfile::small());
        assert!(hierdiff_matching::check_acyclic(&t, &t).is_ok());
    }
}
