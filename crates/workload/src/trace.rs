//! Seeded request traces — deterministic streams of `(document, old
//! version, new version)` diff requests for replaying against a serving
//! layer or soak test.
//!
//! The paper's experiments diff pairs of versions within each document
//! set; a serving layer additionally cares about *arrival order* (cache
//! warmth, admission pressure). [`generate_trace`] turns a seed plus the
//! chain lengths into a reproducible request sequence with a controllable
//! bias toward adjacent pairs — the case where index reuse along the
//! chain pays off.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// One diff request in a replay trace: diff `versions[old]` against
/// `versions[new]` of document `doc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRequest {
    /// Index of the document set the request targets.
    pub doc: usize,
    /// Older version index (`old < new`).
    pub old: usize,
    /// Newer version index.
    pub new: usize,
}

/// Parameters of a replay trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceProfile {
    /// Seed; equal seeds and chain lengths yield identical traces.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Percentage (0–100) of requests that diff *adjacent* versions
    /// `(i, i+1)`; the remainder are uniform non-adjacent skips. Chains
    /// with fewer than 3 versions fall back to adjacent pairs.
    pub adjacent_pct: u8,
}

impl Default for TraceProfile {
    fn default() -> TraceProfile {
        TraceProfile {
            seed: 0x7ace,
            requests: 256,
            adjacent_pct: 70,
        }
    }
}

/// Generates a replay trace over documents whose version-chain lengths are
/// `chain_lens` (one entry per document, as produced by
/// [`generate_docset`](crate::generate_docset) — `versions.len()`).
///
/// Documents are drawn uniformly; chains shorter than 2 versions are
/// skipped (no diffable pair). Returns an empty trace when no document
/// has a diffable pair.
pub fn generate_trace(profile: &TraceProfile, chain_lens: &[usize]) -> Vec<TraceRequest> {
    let eligible: Vec<(usize, usize)> = chain_lens
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, n)| n >= 2)
        .collect();
    if eligible.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(profile.seed ^ 0x0a57_7ace);
    let mut out = Vec::with_capacity(profile.requests);
    for _ in 0..profile.requests {
        let Some(&(doc, n)) = eligible.get(rng.gen_range(0..eligible.len())) else {
            continue;
        };
        let adjacent = n < 3 || rng.gen_range(0..100u8) < profile.adjacent_pct.min(100);
        let (old, new) = if adjacent {
            let old = rng.gen_range(0..n - 1);
            (old, old + 1)
        } else {
            // A uniform skip pair: old and a strictly-later, non-adjacent
            // new. `old ≤ n-3` guarantees room for `new ≥ old+2`.
            let old = rng.gen_range(0..n - 2);
            let new = rng.gen_range(old + 2..n);
            (old, new)
        };
        out.push(TraceRequest { doc, old, new });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        let p = TraceProfile::default();
        let a = generate_trace(&p, &[6, 6, 6]);
        let b = generate_trace(&p, &[6, 6, 6]);
        assert_eq!(a, b);
        assert_eq!(a.len(), p.requests);
    }

    #[test]
    fn requests_are_well_formed() {
        let p = TraceProfile {
            seed: 9,
            requests: 500,
            adjacent_pct: 50,
        };
        let lens = [6usize, 2, 4];
        let trace = generate_trace(&p, &lens);
        for r in &trace {
            assert!(r.doc < lens.len());
            assert!(r.old < r.new, "{r:?}");
            assert!(r.new < lens[r.doc], "{r:?}");
        }
        // Both adjacent and skip pairs appear at a 50% bias.
        assert!(trace.iter().any(|r| r.new == r.old + 1));
        assert!(trace.iter().any(|r| r.new > r.old + 1));
    }

    #[test]
    fn short_chains_fall_back_to_adjacent() {
        let p = TraceProfile {
            seed: 1,
            requests: 64,
            adjacent_pct: 0,
        };
        let trace = generate_trace(&p, &[2]);
        assert!(trace.iter().all(|r| (r.old, r.new) == (0, 1)));
    }

    #[test]
    fn undiffable_chains_yield_empty_traces() {
        let p = TraceProfile::default();
        assert!(generate_trace(&p, &[1, 0]).is_empty());
        assert!(generate_trace(&p, &[]).is_empty());
    }

    #[test]
    fn adjacent_pct_biases_the_mix() {
        let all_adj = generate_trace(
            &TraceProfile {
                seed: 3,
                requests: 200,
                adjacent_pct: 100,
            },
            &[8],
        );
        assert!(all_adj.iter().all(|r| r.new == r.old + 1));
        let no_adj = generate_trace(
            &TraceProfile {
                seed: 3,
                requests: 200,
                adjacent_pct: 0,
            },
            &[8],
        );
        assert!(no_adj.iter().all(|r| r.new > r.old + 1));
    }
}
