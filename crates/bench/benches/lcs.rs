//! Ablation bench: Myers O(ND) vs quadratic DP across input similarity —
//! justifying the paper's choice of [Mye86] for near-identical sequences
//! (FastMatch chains, child alignment) — and, on short word sequences, the
//! bit-parallel length kernel the sentence compare uses.

// Harness code: a panic is how a test, bench or gate reports failure.
#![allow(clippy::indexing_slicing)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierdiff_lcs::{lcs_dp, lcs_len, lcs_myers};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Builds two sequences of length `n` differing in `edits` random
/// substitutions.
fn similar_pair(n: usize, edits: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<u32> = (0..n as u32).collect();
    let mut b = a.clone();
    for _ in 0..edits {
        let i = rng.gen_range(0..n);
        b[i] = rng.gen_range(1_000_000..2_000_000);
    }
    (a, b)
}

fn bench_similarity_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("lcs/similarity");
    for &edits in &[2usize, 32, 256] {
        let (a, b) = similar_pair(1024, edits, 7);
        g.bench_with_input(BenchmarkId::new("myers", edits), &edits, |bench, _| {
            bench.iter(|| lcs_myers(&a, &b, |x, y| x == y).len())
        });
        g.bench_with_input(BenchmarkId::new("dp", edits), &edits, |bench, _| {
            bench.iter(|| lcs_dp(&a, &b, |x, y| x == y).len())
        });
    }
    g.finish();
}

fn bench_sentence_words(c: &mut Criterion) {
    // Sentence-sized inputs (the LaDiff compare path), which needs only the
    // length.
    let mut g = c.benchmark_group("lcs/sentence-words");
    let (a, b) = similar_pair(12, 3, 9);
    g.bench_function("myers", |bench| {
        bench.iter(|| lcs_myers(&a, &b, |x, y| x == y).len())
    });
    g.bench_function("dp", |bench| {
        bench.iter(|| lcs_dp(&a, &b, |x, y| x == y).len())
    });
    g.bench_function("bitparallel", |bench| {
        bench.iter(|| lcs_len(&a, &b, |x, y| x == y))
    });
    g.finish();
}

criterion_group!(benches, bench_similarity_sweep, bench_sentence_words);
criterion_main!(benches);
