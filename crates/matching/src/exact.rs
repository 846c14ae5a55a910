//! FastMatch with the identical-subtree pre-matching — the introduction's
//! "quickly match fragments that have not changed" promise, realized via
//! subtree fingerprints (the technique later tree differs such as GumTree
//! adopted as their top-down phase).
//!
//! [`fast_match_accelerated`] runs the pruning pre-pass
//! ([`prune_identical`](crate::prune_identical)), which pairs every subtree
//! whose fingerprint occurs exactly once in each tree (confirmed by real
//! isomorphism, so hash collisions cannot corrupt the matching), and feeds
//! the seed to [`fast_match_seeded`](crate::fast_match_seeded), skipping
//! all `compare` calls inside unchanged regions. Uniqueness on *both*
//! sides keeps the pre-pass consistent with Criterion 3: an ambiguous
//! fragment (duplicate) is left to the regular algorithms.

use hierdiff_tree::{NodeValue, Tree};

use crate::criteria::MatchParams;
use crate::error::MatchError;
use crate::fast::fast_match_seeded;
use crate::prune::prune_identical;
use crate::simple::MatchResult;

/// [`fast_match`](crate::fast_match) with the identical-subtree pruning
/// pre-pass. Produces criteria-conformant matchings (pre-matched pairs are
/// identical, hence trivially within any `f`/`t`) while skipping
/// comparisons inside unchanged regions. The returned counters carry the
/// pruning statistics (`nodes_pruned`, `prune_candidates`,
/// `prune_collisions`).
pub fn fast_match_accelerated<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
) -> Result<MatchResult, MatchError> {
    let (seed, stats) = prune_identical(t1, t2)?;
    let mut result = fast_match_seeded(t1, t2, params, seed)?;
    result.counters.absorb_prune(&stats);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::fast_match;

    #[test]
    fn accelerated_agrees_with_plain_fastmatch() {
        use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};
        let profile = DocProfile::default();
        for seed_n in 0..6u64 {
            let t1 = generate_document(4_400 + seed_n, &profile);
            let (t2, _) = perturb(&t1, 4_500 + seed_n, 10, &EditMix::default(), &profile);
            let plain = fast_match(&t1, &t2, MatchParams::default()).unwrap();
            let fast = fast_match_accelerated(&t1, &t2, MatchParams::default()).unwrap();
            assert_eq!(
                plain.matching.len(),
                fast.matching.len(),
                "seed {seed_n}: matching sizes diverge"
            );
            // And it does real work: fewer leaf compares on mostly-unchanged
            // documents.
            assert!(
                fast.counters.leaf_compares <= plain.counters.leaf_compares,
                "seed {seed_n}: accelerated did {} > {} compares",
                fast.counters.leaf_compares,
                plain.counters.leaf_compares
            );
            // Pruning statistics surface through the counters.
            assert!(
                fast.counters.nodes_pruned > 0,
                "seed {seed_n}: nothing pruned on a mostly-unchanged document"
            );
            assert!(fast.counters.prune_candidates > 0);
            assert_eq!(
                plain.counters.nodes_pruned, 0,
                "plain FastMatch never prunes"
            );
            // The resulting diffs are equally good.
            let r1 = hierdiff_edit::edit_script(&t1, &t2, &plain.matching).unwrap();
            let r2 = hierdiff_edit::edit_script(&t1, &t2, &fast.matching).unwrap();
            assert_eq!(r1.script.len(), r2.script.len(), "seed {seed_n}");
        }
    }
}
