#![warn(missing_docs)]

//! MOCUS minimal cutset generation with a probabilistic cutoff.
//!
//! This crate implements the classical MOCUS algorithm (Fussell &
//! Vesely, 1972) as used by commercial fault tree solvers and by §IV-B of
//! Krčál & Krčál (DSN 2015): partial cutsets are refined top-down — AND
//! gates extend a partial cutset, OR gates branch it — and a partial cutset
//! is discarded as soon as the product of its basic event probabilities
//! falls below the cutoff `c*`, which is conservative for coherent trees.
//! A look-ahead over the pending gates prunes partial cutsets that can no
//! longer reach the cutoff, and bounds each OR branch before it is built.
//! Gates with a single input (the transfer gates of PSA models) are
//! resolved to the node they stand for once, before expansion, so they
//! cost no expansion step.
//!
//! The solver works on the *static* structure of a fault tree; dynamic
//! basic events take part through caller-supplied probabilities (for the
//! SD analysis these are the worst-case probabilities of §V-B2, supplied
//! by `sdft-core`).
//!
//! # Example
//!
//! Example 7/8 of the paper: the minimal cutsets of the toy cooling
//! system are `{e}`, `{a,c}`, `{a,d}`, `{b,c}`, `{b,d}`.
//!
//! ```
//! use sdft_ft::{EventProbabilities, FaultTreeBuilder};
//! use sdft_mocus::{minimal_cutsets, MocusOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FaultTreeBuilder::new();
//! let a = b.static_event("a", 3e-3)?;
//! let bb = b.static_event("b", 1e-3)?;
//! let c = b.static_event("c", 3e-3)?;
//! let d = b.static_event("d", 1e-3)?;
//! let e = b.static_event("e", 3e-6)?;
//! let p1 = b.or("pump1", [a, bb])?;
//! let p2 = b.or("pump2", [c, d])?;
//! let pumps = b.and("pumps", [p1, p2])?;
//! let top = b.or("cooling", [pumps, e])?;
//! b.top(top);
//! let tree = b.build()?;
//! let probs = EventProbabilities::from_static(&tree)?;
//! let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::default())?;
//! assert_eq!(mcs.len(), 5);
//! # Ok(())
//! # }
//! ```

mod assumptions;
mod buffer;
mod engine;
mod error;
mod options;
mod stats;
mod stream;
mod submodel;

pub use assumptions::Assumptions;
pub use engine::{minimal_cutsets, minimal_cutsets_rooted, minimal_cutsets_with_stats};
pub use error::MocusError;
pub use options::MocusOptions;
pub use stats::MocusStats;
pub use stream::stream_minimal_cutsets;
pub use submodel::{module_cutsets, ModuleCutsets};
