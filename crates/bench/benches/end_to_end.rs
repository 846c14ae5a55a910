//! End-to-end LaDiff pipeline bench (parse → match → script → delta →
//! markup) on LaTeX sources of three sizes — the whole Section 7 system.

// Harness code: a panic is how a test, bench or gate reports failure.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierdiff_bench::experiments::{SAMPLE_NEW, SAMPLE_OLD};
use hierdiff_doc::{ladiff, LaDiffOptions};

/// Builds a LaTeX source of `sections` sections from the sample text.
fn latex_of_size(sections: usize, mutate: bool) -> String {
    let mut out = String::new();
    for s in 0..sections {
        out.push_str(&format!("\\section{{Part {s}}}\n"));
        for p in 0..4 {
            for q in 0..4 {
                if mutate && p == 1 && q == 2 {
                    out.push_str(&format!(
                        "Changed sentence {s} {p} {q} entirely new words. "
                    ));
                } else {
                    out.push_str(&format!(
                        "Stable sentence number {s} {p} {q} with body words. "
                    ));
                }
            }
            out.push_str("\n\n");
        }
    }
    out
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("ladiff/end-to-end");
    for &sections in &[2usize, 8, 24] {
        let old = latex_of_size(sections, false);
        let new = latex_of_size(sections, true);
        g.bench_with_input(
            BenchmarkId::from_parameter(sections),
            &sections,
            |bench, _| {
                bench.iter(|| {
                    ladiff(&old, &new, &LaDiffOptions::default())
                        .unwrap()
                        .stats
                        .ops
                        .total()
                })
            },
        );
    }
    g.finish();
}

fn bench_sample_documents(c: &mut Criterion) {
    c.bench_function("ladiff/appendix-a-sample", |bench| {
        bench.iter(|| {
            ladiff(SAMPLE_OLD, SAMPLE_NEW, &LaDiffOptions::default())
                .unwrap()
                .markup
                .len()
        })
    });
}

criterion_group!(benches, bench_pipeline, bench_sample_documents);
criterion_main!(benches);
