//! Keyed vs content matching: the paper's "if the information ... does have
//! unique identifiers" fast path quantified — key lookup is O(n) with no
//! compare calls at all.

// Harness code: a panic is how a test, bench or gate reports failure.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierdiff_doc::DocValue;
use hierdiff_matching::{fast_match, match_by_key, match_keyed_then_content, MatchParams};
use hierdiff_tree::{Label, NodeId, Tree};

/// A keyed "database dump": Table > Row records whose values embed ids.
fn dump(tables: usize, rows: usize, seed: usize) -> Tree<DocValue> {
    let mut t = Tree::new(Label::intern("Dump"), DocValue::None);
    let root = t.root();
    for a in 0..tables {
        let tb = t.push_child(
            root,
            Label::intern("Table"),
            DocValue::text(format!("id=t{a}")),
        );
        for r in 0..rows {
            t.push_child(
                tb,
                Label::intern("Row"),
                DocValue::text(format!("id=t{a}r{r} payload {} {}", seed, (r * 7 + a) % 13)),
            );
        }
    }
    t
}

fn key_of(t: &Tree<DocValue>, n: NodeId) -> Option<String> {
    t.value(n)
        .as_text()?
        .strip_prefix("id=")
        .map(|rest| rest.split(' ').next().unwrap_or(rest).to_string())
}

fn bench_keyed_vs_content(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching/keyed-vs-content");
    for &rows in &[20usize, 80, 320] {
        let t1 = dump(5, rows, 1);
        let t2 = dump(5, rows, 2); // same keys, different payloads
        let n = t1.len();
        g.bench_with_input(BenchmarkId::new("by_key", n), &rows, |b, _| {
            b.iter(|| match_by_key(&t1, &t2, key_of).unwrap().len())
        });
        g.bench_with_input(BenchmarkId::new("keyed_then_content", n), &rows, |b, _| {
            b.iter(|| {
                match_keyed_then_content(&t1, &t2, MatchParams::default(), key_of)
                    .unwrap()
                    .matching
                    .len()
            })
        });
        g.bench_with_input(BenchmarkId::new("content_only", n), &rows, |b, _| {
            b.iter(|| {
                fast_match(&t1, &t2, MatchParams::default())
                    .unwrap()
                    .matching
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_keyed_vs_content);
criterion_main!(benches);
