#![warn(missing_docs)]

//! Continuous-time Markov chains for fault tree analysis.
//!
//! This crate provides the Markov-chain substrate used by the SD fault tree
//! analysis of Krčál & Krčál (DSN 2015):
//!
//! * [`Ctmc`] — a finite CTMC with a sparse rate matrix, an initial
//!   distribution and a set of *failed* states,
//! * [`transient_distribution`] / [`reach_probability`] — time-bounded
//!   reachability `Pr[reach F ≤ t]` by uniformization (Jensen's method)
//!   with stable Poisson weights,
//! * [`TriggeredCtmc`] — a CTMC whose state space is partitioned into
//!   *on*/*off* modes with total (un)triggering maps, modelling equipment
//!   that is switched on by the failure of a gate (§III-A of the paper),
//! * [`erlang`] — builders for the Erlang-phase failure/repair models used
//!   in the paper's experimental evaluation (§VI-A),
//! * [`limiting_distribution`] — long-run analysis (steady-state
//!   unavailability of repairable equipment).
//!
//! # Example
//!
//! ```
//! use sdft_ctmc::erlang;
//!
//! # fn main() -> Result<(), sdft_ctmc::CtmcError> {
//! // A pump that fails in operation once per 1000 h and is repaired once
//! // per 20 h (Example 2 of the paper), analysed over a 24 h mission.
//! let pump = erlang::repairable(1, 1e-3, 0.05)?;
//! let p = pump.reach_failed_probability(24.0, 1e-12)?;
//! assert!(p > 0.0 && p < 24.0 * 1e-3);
//! # Ok(())
//! # }
//! ```

mod chain;
mod csr;
pub mod erlang;
mod error;
mod mttf;
mod poisson;
mod pool;
mod signature;
mod stationary;
mod transient;
mod triggered;

#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

pub use chain::{Ctmc, CtmcBuilder};
pub use csr::{
    kernel, reach_probability_many_with, transient_distribution_many_with, SolveStats,
    SolverOptions, SolverWorkspace,
};
pub use error::CtmcError;
pub use poisson::PoissonWeights;
pub use pool::WorkspacePool;
pub use signature::ChainSignature;
pub use stationary::{limiting_distribution, StationaryOptions};
pub use transient::{
    reach_probability, reach_probability_many, transient_distribution, transient_distribution_many,
};
pub use triggered::{Mode, TriggeredCtmc, TriggeredCtmcBuilder};

/// Default truncation error for Poisson weights / transient analysis.
pub const DEFAULT_EPSILON: f64 = 1e-12;
