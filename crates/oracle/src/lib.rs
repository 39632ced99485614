#![warn(missing_docs)]

//! A differential testing oracle for SD fault trees.
//!
//! This workspace carries four independent implementations of (parts
//! of) the SD fault tree semantics of Krčál & Krčál (DSN 2015): the
//! scalable cutset pipeline (`sdft-core`), the exact product Markov
//! chain (`sdft-product`), exact static analysis on BDDs (`sdft-bdd`),
//! and Monte-Carlo simulation (`sdft-sim`). This crate turns that
//! redundancy into a correctness harness:
//!
//! * [`gen`] — a seeded random generator of SD trees covering dynamic
//!   events with Erlang degradation/repair, triggered spares, at-least
//!   gates, shared subtrees, and (on request) shapes violating the
//!   favourable trigger classes of §V-A;
//! * [`rewrite`] / [`metamorphic`] — semantics-preserving rewrites and
//!   monotone perturbations with predicted effects on the quantified
//!   frequency;
//! * [`check`] — the N-way differential matrix (pipeline vs product
//!   chain vs simulation vs BDD) with sound Bonferroni-style
//!   tolerances;
//! * [`reference`](mod@reference) — the product-chain builder the
//!   matrix uses as its exact referee, kept apart from `sdft-product`'s
//!   compiled build;
//! * [`shrink`](mod@shrink) — greedy minimization of disagreeing trees;
//! * [`driver`] — the deterministic generate → check → shrink loop
//!   producing replayable counterexamples in the `sdft-ft` text
//!   format.
//!
//! # Example
//!
//! ```
//! use sdft_oracle::{run_oracle, CheckConfig, OracleConfig};
//!
//! let report = run_oracle(&OracleConfig {
//!     trees: 6,
//!     check: CheckConfig { sim_samples: 1_000, ..CheckConfig::default() },
//!     ..OracleConfig::default()
//! });
//! assert_eq!(report.trees_run, 6);
//! assert!(report.counterexamples.is_empty(), "{}", report.summary());
//! ```

pub mod check;
pub mod driver;
pub mod gen;
pub mod metamorphic;
pub mod reference;
pub mod rewrite;
pub mod shrink;
pub mod spec;

pub use check::{check_spec, check_tree, CheckConfig, Disagreement, Outcome};
pub use driver::{
    campaign_tree, preset_for, run_oracle, Counterexample, OracleConfig, OracleReport,
};
pub use gen::{generate, generate_seeded, GeneratorConfig};
pub use shrink::shrink;
pub use spec::{EventSpec, GateSpec, TreeSpec};
