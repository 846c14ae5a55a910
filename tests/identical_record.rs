//! The identical-subtree record is an optimisation only: a pruned seed
//! that carries it must give exactly the outputs of the same pairs
//! inserted plainly, at every stage after the pruning pre-pass.
//!
//! Each case generates a document pair from one perturb family, optionally
//! with unmatched roots, a duplicated fragment or a childless
//! internal-label node, on the dirty or the compact layout, prunes it, and
//! runs FastMatch, EditScript and the delta builder twice: once from the
//! pruned seed (record included), once from a plain copy of its pairs. The
//! matchings, counters, scripts, script statistics and delta trees must be
//! identical.
//!
//! Run more cases with `PROPTEST_CASES=2000 cargo test --release --test
//! identical_record`.

use proptest::prelude::*;

use hierdiff::delta::{build_delta_tree, Annotation, DeltaTree};
use hierdiff::doc::{labels, DocValue};
use hierdiff::edit::{edit_script, Matching, McesResult};
use hierdiff::matching::{fast_match_seeded, prune_identical, MatchCounters, MatchParams};
use hierdiff::tree::{Label, NodeId, Tree};
use hierdiff::workload::{generate_document, perturb, DocProfile, EditMix};

/// Everything a pipeline run produces downstream of the seed.
struct Outputs {
    pairs: Vec<(NodeId, NodeId)>,
    counters: MatchCounters,
    mces: McesResult<DocValue>,
    annotations: Vec<(Label, DocValue, Annotation<DocValue>)>,
    delta_json: String,
}

fn run(t1: &Tree<DocValue>, t2: &Tree<DocValue>, seed: Matching) -> Outputs {
    let matched = fast_match_seeded(t1, t2, MatchParams::default(), seed).unwrap();
    let mces = edit_script(t1, t2, &matched.matching).unwrap();
    let delta: DeltaTree<DocValue> = build_delta_tree(t1, t2, &matched.matching, &mces);
    Outputs {
        pairs: matched.matching.iter().collect(),
        counters: matched.counters,
        annotations: delta
            .preorder()
            .map(|id| {
                (
                    delta.label(id),
                    delta.value(id).clone(),
                    delta.annotation(id).clone(),
                )
            })
            .collect(),
        delta_json: serde_json::to_string(&delta).unwrap(),
        mces,
    }
}

/// The same pairs as `m`, inserted one by one: no identical-subtree record.
fn plain_copy(m: &Matching) -> Matching {
    let mut plain = Matching::new();
    for (x, y) in m.iter() {
        plain.insert(x, y).unwrap();
    }
    plain
}

fn family(i: usize) -> EditMix {
    match i {
        0 => EditMix::revision(),
        1 => EditMix::moves_only(),
        2 => EditMix::updates_only(),
        _ => EditMix::shuffles_only(),
    }
}

/// The irregularities a case folds into its generated pair.
struct Irregular {
    unmatched_roots: bool,
    duplicate: bool,
    empty_internal: bool,
    compact: bool,
}

/// A generated pair with the requested irregularities folded in.
fn pair(
    seed: u64,
    sections: usize,
    mix: &EditMix,
    edits: usize,
    irregular: &Irregular,
) -> (Tree<DocValue>, Tree<DocValue>) {
    let profile = DocProfile {
        sections,
        ..DocProfile::small()
    };
    let mut t1 = generate_document(seed, &profile);
    let (mut t2, _) = perturb(&t1, seed ^ 0x5eed, edits, mix, &profile);
    if irregular.duplicate {
        // A copy of T1's first section appended to T2: the section is now
        // ambiguous in T2, and its copy is identical to T1's original.
        if let Some(&sec) = t1.children(t1.root()).first() {
            let root = t2.root();
            let end = t2.arity(root);
            t2.graft_from(root, end, &t1, sec).unwrap();
        }
    }
    if irregular.empty_internal {
        // A childless paragraph (an internal label) in each version.
        let root = t1.root();
        t1.insert(root, 0, labels::paragraph(), DocValue::None)
            .unwrap();
        let root = t2.root();
        let end = t2.arity(root);
        t2.insert(root, end, labels::paragraph(), DocValue::None)
            .unwrap();
    }
    if irregular.unmatched_roots {
        t2.wrap_root(Label::intern("Wrapper"), DocValue::None);
    }
    if irregular.compact {
        // Generated and edited trees are dirty; compacting renumbers them
        // into the preorder layout the skip-offset fast paths read.
        t1.compact();
        t2.compact();
    }
    (t1, t2)
}

proptest! {
    #[test]
    fn prop_identical_record_changes_no_output(
        seed in 0u64..1_000_000,
        fam in 0usize..4,
        sections in 1usize..5,
        edits in 0usize..16,
        unmatched_roots in any::<bool>(),
        duplicate in any::<bool>(),
        empty_internal in any::<bool>(),
        compact in any::<bool>(),
    ) {
        let irregular = Irregular {
            unmatched_roots,
            duplicate,
            empty_internal,
            compact,
        };
        let (t1, t2) = pair(seed, sections, &family(fam), edits, &irregular);
        let (seed_m, stats) = prune_identical(&t1, &t2).unwrap();
        prop_assert_eq!(seed_m.identical_roots().len(), stats.subtrees_pruned);
        let plain = plain_copy(&seed_m);
        prop_assert!(plain.identical_roots().is_empty());

        let a = run(&t1, &t2, seed_m);
        let b = run(&t1, &t2, plain);
        prop_assert_eq!(&a.pairs, &b.pairs);
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(&a.mces.script, &b.mces.script);
        prop_assert_eq!(a.mces.stats, b.mces.stats);
        prop_assert_eq!(a.mces.wrapped, b.mces.wrapped);
        prop_assert_eq!(
            a.mces.total_matching.iter().collect::<Vec<_>>(),
            b.mces.total_matching.iter().collect::<Vec<_>>()
        );
        prop_assert_eq!(&a.annotations, &b.annotations);
        prop_assert_eq!(&a.delta_json, &b.delta_json);
    }
}
