//! # hierdiff-workload
//!
//! Synthetic structured-document workloads for the Section 8 experiments.
//!
//! **Substitution note (see DESIGN.md).** The paper's corpus — "three sets
//! of files ... different versions of a document (a conference paper)" —
//! was never published. Every quantity Section 8 measures (`e`, `d`,
//! comparison counts, Criterion 3 violation rates) is a function of tree
//! shape and edit mix, not prose meaning, so we stand in a seeded generator
//! with the same knobs: document size (sentences), section/paragraph
//! fan-out, vocabulary size (controls duplicate-sentence rate, i.e.
//! Criterion 3 pressure), and a per-version random edit mix at sentence /
//! paragraph / section granularity. A [`DocSet`] is a version chain — the
//! analogue of one of the paper's three document sets.

#![warn(missing_docs)]

mod docgen;
mod docset;
mod perturb;
mod render;
mod trace;

pub use docgen::{generate_document, DocProfile};
pub use docset::{generate_docset, DocSet, DocSetProfile};
pub use perturb::{ground_truth_matching, perturb, EditMix, PerturbReport};
pub use render::render_latex_source;
pub use trace::{generate_trace, TraceProfile, TraceRequest};
