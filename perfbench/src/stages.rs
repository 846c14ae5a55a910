//! The traced stage replay: one diff re-run stage by stage through the
//! program's public functions, each stage inside its own span, with the
//! work counts the stages return.

use hierdiff_core::{DiffResult, MatchStrategy};
use hierdiff_delta::{build_delta_tree, DeltaTree};
use hierdiff_doc::DocValue;
use hierdiff_edit::{edit_script, Matching, McesResult, DUMMY_ROOT_LABEL};
use hierdiff_matching::{
    fast_match, fast_match_seeded, gumtree_match, prune_identical_indexed, GumTreeParams,
    MatchParams, PruneStats,
};
use hierdiff_tree::{isomorphic, FingerprintIndex, Label, NodeValue, Tree};

use crate::spans::Tracer;

/// Which pipeline a diff runs, as the stages see it.
pub enum Pipeline {
    /// `MatchStrategy::fast_pruned()`: both indexes built per diff.
    FastPruned,
    /// The default un-pruned FastMatch.
    Fast,
    /// `MatchStrategy::gumtree()` with default parameters.
    GumTree,
    /// The service's chain-reuse path: FastMatch from a pruning seed the
    /// caller computed from cached indexes.
    Seeded,
}

impl Pipeline {
    /// The strategy `Differ` runs for this pipeline (the seeded pipeline
    /// passes its seed separately).
    pub fn strategy(&self) -> MatchStrategy {
        match self {
            Pipeline::FastPruned => MatchStrategy::fast_pruned(),
            Pipeline::Fast | Pipeline::Seeded => MatchStrategy::fast(),
            Pipeline::GumTree => MatchStrategy::gumtree(),
        }
    }
}

/// What a replay produced: the script's size and cost, and the work
/// counts the stages reported, by per-layer metric name.
pub struct Replayed {
    pub script_len: usize,
    pub weighted: usize,
    pub counts: Vec<(&'static str, f64)>,
    /// The stages' products, returned so that the caller drops them
    /// outside the replay span, as it drops `Differ::diff`'s result.
    #[allow(dead_code)]
    pub products: (Matching, McesResult<DocValue>, DeltaTree<DocValue>),
}

/// The identical-subtree pruning seed of `t1` → `t2` over their
/// fingerprint indexes, in span `matching.prune`.
pub fn prune(
    tr: &mut Tracer,
    t1: &Tree<DocValue>,
    i1: &FingerprintIndex,
    t2: &Tree<DocValue>,
    i2: &FingerprintIndex,
) -> (Matching, PruneStats) {
    tr.span("matching.prune", |_| {
        prune_identical_indexed(t1, i1, t2, i2)
    })
    .expect("pruning accepts generated documents")
}

/// Replays one diff of `t1` → `t2` stage by stage. The
/// [`Pipeline::Seeded`] pipeline starts from `given_seed`.
pub fn replay(
    tr: &mut Tracer,
    pipeline: &Pipeline,
    t1: &Tree<DocValue>,
    t2: &Tree<DocValue>,
    given_seed: Option<(Matching, PruneStats)>,
) -> Replayed {
    let params = MatchParams::default();
    let mut counts = Vec::new();
    let seeded = match pipeline {
        Pipeline::FastPruned => {
            let i1 = tr.span("tree.index", |_| FingerprintIndex::build(t1));
            let i2 = tr.span("tree.index", |_| FingerprintIndex::build(t2));
            Some(prune(tr, t1, &i1, t2, &i2))
        }
        Pipeline::Seeded => given_seed,
        Pipeline::Fast | Pipeline::GumTree => None,
    };
    if let Some((_, stats)) = &seeded {
        counts.push(("matching.nodes_pruned", stats.nodes_pruned as f64));
        counts.push((
            "matching.prune_yield",
            stats.nodes_pruned as f64 / t1.len() as f64,
        ));
    }
    let (matching, counters): (Matching, _) = match pipeline {
        Pipeline::GumTree => {
            let r = tr
                .span("matching.gumtree", |_| {
                    gumtree_match(t1, t2, GumTreeParams::default())
                })
                .expect("GumTree accepts generated documents");
            let s = r.stats;
            counts.push(("matching.gumtree_anchored_nodes", s.anchored_nodes as f64));
            counts.push(("zs.recovery_runs", s.recovery_runs as f64));
            counts.push(("zs.recovered", s.recovered as f64));
            let yield_ = if s.recovery_runs == 0 {
                0.0
            } else {
                s.recovered as f64 / s.recovery_runs as f64
            };
            counts.push(("zs.recovery_yield", yield_));
            (r.matching, r.counters)
        }
        _ => {
            let r = tr
                .span("matching.fast", |_| match seeded {
                    Some((seed, _)) => fast_match_seeded(t1, t2, params, seed),
                    None => fast_match(t1, t2, params),
                })
                .expect("FastMatch accepts generated documents");
            (r.matching, r.counters)
        }
    };
    counts.push(("matching.leaf_compares", counters.leaf_compares as f64));
    counts.push((
        "matching.internal_compares",
        counters.internal_compares as f64,
    ));
    counts.push(("matching.chain_scans", counters.chain_scans as f64));
    counts.push(("lcs.match_cells", counters.lcs_cells as f64));
    let mces = tr
        .span("edit.script", |_| edit_script(t1, t2, &matching))
        .expect("EditScript accepts a valid matching");
    let s = &mces.stats;
    counts.push(("edit.ops", mces.script.len() as f64));
    counts.push(("edit.moves", s.moves() as f64));
    counts.push(("edit.misaligned_parents", s.misaligned_parents as f64));
    counts.push(("edit.weighted_distance", s.weighted_distance as f64));
    counts.push(("lcs.align_cells", s.lcs_cells as f64));
    let delta = tr.span("delta.build", |_| {
        build_delta_tree(t1, t2, &matching, &mces)
    });
    counts.push(("delta.nodes", delta.len() as f64));
    Replayed {
        script_len: mces.script.len(),
        weighted: s.weighted_distance,
        counts,
        products: (matching, mces, delta),
    }
}

/// Whether `mces`'s script replays `t1` into a tree isomorphic to `t2`.
pub fn replays_to(mces: &McesResult<DocValue>, t1: &Tree<DocValue>, t2: &Tree<DocValue>) -> bool {
    let Ok(edited) = mces.replay_on(t1) else {
        return false;
    };
    if mces.wrapped {
        let mut wrapped = t2.clone();
        wrapped.wrap_root(Label::intern(DUMMY_ROOT_LABEL), DocValue::null());
        isomorphic(&edited, &wrapped)
    } else {
        isomorphic(&edited, t2)
    }
}

/// The script size and cost of a finished diff.
pub fn outcome(r: &DiffResult<DocValue>) -> (usize, usize) {
    (r.script.len(), r.weighted_distance())
}
