#![warn(missing_docs)]

//! Static and SD (static + dynamic) fault trees.
//!
//! This crate implements the fault tree formalism of Krčál & Krčál
//! (DSN 2015): coherent fault trees over AND/OR (and, as an extension,
//! at-least) gates whose basic events are either *static* — a plain
//! failure probability — or *dynamic* — a continuous-time Markov chain,
//! possibly *triggered* by the failure of a gate.
//!
//! The main types are:
//!
//! * [`FaultTree`] / [`FaultTreeBuilder`] — the validated, immutable tree,
//! * [`Scenario`] — a set of failed basic events and the static gate
//!   evaluation (§II),
//! * [`Cutset`] / [`CutsetList`] — (minimal) cutsets and the rare-event
//!   approximation (§IV),
//! * [`format`](mod@format) — a plain-text serialization of SD fault trees,
//! * [`transform`] — restriction, simplification and voting-gate
//!   expansion,
//! * [`modules`](fn@modules) — independent-subtree (module) detection,
//! * [`dot`] — Graphviz export.
//!
//! # Example
//!
//! Example 3 of the paper — an emergency cooling system whose
//! failures-in-operation are dynamic and where the failure of pump 1
//! triggers the spare pump 2:
//!
//! ```
//! use sdft_ft::FaultTreeBuilder;
//! use sdft_ctmc::erlang;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FaultTreeBuilder::new();
//! let a = b.static_event("a", 3e-3)?;
//! let bb = b.dynamic_event("b", erlang::repairable(1, 1e-3, 0.05)?)?;
//! let c = b.static_event("c", 3e-3)?;
//! let d = b.triggered_event("d", erlang::spare(1e-3, 0.05)?)?;
//! let e = b.static_event("e", 3e-6)?;
//! let p1 = b.or("pump1", [a, bb])?;
//! let p2 = b.or("pump2", [c, d])?;
//! let pumps = b.and("pumps", [p1, p2])?;
//! let top = b.or("cooling", [pumps, e])?;
//! b.trigger(p1, d)?;
//! b.top(top);
//! let tree = b.build()?;
//! assert_eq!(tree.dynamic_basic_events().count(), 2);
//! # Ok(())
//! # }
//! ```

mod cutset;
pub mod dot;
mod error;
pub mod format;
pub mod hash;
pub mod modules;
mod node;
mod probs;
mod scenario;
mod signature;
pub mod transform;
mod tree;

pub use cutset::{Cutset, CutsetList};
pub use error::FtError;
pub use hash::{FxBuild, FxHasher};
pub use modules::{module_profiles, modules, ModuleProfile};
pub use node::{Behavior, GateKind, NodeId};
pub use probs::EventProbabilities;
pub use scenario::Scenario;
pub use signature::{EventSignature, TreeSignature};
pub use tree::{FaultTree, FaultTreeBuilder, TreeStatistics};
