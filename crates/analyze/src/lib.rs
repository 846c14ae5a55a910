//! # hierdiff-analyze
//!
//! Token-level static analysis for the hierdiff workspace, std-only and
//! dependency-free so it builds instantly in CI. One hand-written lexer
//! feeds every pass:
//!
//! * [`lexer`] — spanned tokens (nested block comments, raw strings of any
//!   `#` depth, char literals vs. lifetimes, doc comments) plus a masked
//!   view with comment and literal contents blanked.
//! * [`parser`] — item/block recovery: `fn` scopes, loop bodies,
//!   `#[cfg(test)]` regions, `use` imports, `dyn`-typed parameters.
//! * [`resolve`] — the path-, import-, and impl-resolved call graph every
//!   reachability pass walks; trait objects and generics stay documented
//!   over-approximations.
//! * [`hotloop`] — **S010/S011**: allocation and `dyn` dispatch inside
//!   loop bodies of `hierdiff-analyze: hot-module`-marked files.
//! * [`api`] — **S020–S022**: public-API surface snapshots under `api/`,
//!   failing on un-reviewed drift, and `pub fn diff_*` entry points
//!   outside the `crates/core` facade.
//! * [`guardcov`] — **S030/S031**: every loop in the governed kernels and
//!   every `Differ::diff`-reachable loop in the governed crates must carry
//!   a `tick()`/`checkpoint()` guard.
//! * [`arena`] — **S040–S043**: the flat arena's SoA indexing, narrowing
//!   casts, NIL-sentinel comparisons, and `NodeId` minting must flow
//!   through the blessed helpers in `crates/tree`.
//! * [`concurrency`] — **S050–S055**: the serve/guard lock model —
//!   lock-order cycles, `PoisonError::into_inner` recovery, foreign or
//!   blocking calls under a lock, unwind-unsafe `catch_unwind`
//!   boundaries, and guard checkpoints under a lock.
//! * [`report`] — findings, human rendering, and the hand-rolled JSON
//!   report.
//! * [`workspace`] — file discovery and the `cargo run -p xtask --
//!   analyze` engine, including **S060**: an inline
//!   `// analyze: allow(CODE) reason` waiver that suppresses nothing.
//!
//! Panicking constructs are not the analyzer's business: clippy's
//! `unwrap_used`, `expect_used`, `panic`, `unreachable` and
//! `indexing_slicing` lints, denied in `[workspace.lints]`, cover them.
//!
//! See DESIGN.md ("Static analysis") for the S-code catalogue, the call
//! graph's documented imprecision, and the snapshot review workflow.

#![warn(missing_docs)]

pub mod api;
pub mod arena;
pub mod concurrency;
pub mod guardcov;
pub mod hotloop;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod resolve;
pub mod workspace;

pub use concurrency::LockModel;
pub use report::{render_json, Finding};
pub use workspace::{
    run_analysis, run_analysis_threads, write_api_snapshots, Analysis, Workspace, API_DIR,
};
