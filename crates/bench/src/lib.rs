//! # hierdiff-bench
//!
//! Shared measurement machinery for the Section 8 experiment reproduction
//! (the `experiments` binary) and the Criterion benchmarks. See DESIGN.md's
//! experiment index (E1–E7) and EXPERIMENTS.md for the results.

#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod table;

pub use measure::{measure_pair, PairMeasurement};

/// Unwraps a matcher result that is infallible by construction: the
/// experiments run ungoverned (no budgets, no cancellation), so the only
/// possible error is an internal matcher invariant bug.
pub(crate) fn must<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        #[expect(clippy::unreachable, reason = "ungoverned matchers only fail on a bug")]
        Err(e) => unreachable!("ungoverned matcher failed: {e}"),
    }
}
