#![warn(missing_docs)]

//! Scalable analysis of SD fault trees — the algorithm of Krčál & Krčál,
//! *Scalable Analysis of Fault Trees with Dynamic Features* (DSN 2015).
//!
//! The analysis avoids the exponential product Markov chain of an SD
//! fault tree by decomposing the problem along minimal cutsets:
//!
//! 1. [`worst_case_probabilities`] — every dynamic basic event gets the
//!    worst-case static probability of failing within the horizon
//!    (§V-B2: triggered at time zero and never untriggered),
//! 2. [`translate`] — the SD tree becomes an ordinary static tree with
//!    the same minimal cutsets: each trigger edge turns into an AND gate
//!    (§V-B1),
//! 3. MOCUS generates the minimal cutsets above the cutoff (the cutoff is
//!    conservative with respect to the SD semantics),
//! 4. [`quantify_cutset`] — each cutset `C` is quantified *dynamically*
//!    on a small SD fault tree `FT_C` containing only the dynamic events
//!    of `C` plus whatever triggering logic the trigger-structure
//!    classification (§V-A: [`classify_gate`]) requires (§V-C:
//!    [`build_ftc`]); the product chain of `FT_C` is small by
//!    construction,
//! 5. [`analyze`] — the parallel driver running all of the above and
//!    summing the per-cutset probabilities (rare-event approximation).
//!
//! # Example
//!
//! ```
//! use sdft_core::{analyze, AnalysisOptions};
//! use sdft_ft::format;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Example 3 of the paper: redundant pumps, pump 2 triggered by the
//! // failure of pump 1.
//! let tree = format::parse_str(
//!     "top cooling\n\
//!      basic a 0.003\n\
//!      basic c 0.003\n\
//!      basic e 0.000003\n\
//!      dynamic b erlang k=1 lambda=0.001 mu=0.05\n\
//!      dynamic d spare lambda=0.001 mu=0.05\n\
//!      gate pump1 or a b\n\
//!      gate pump2 or c d\n\
//!      gate pumps and pump1 pump2\n\
//!      gate cooling or pumps e\n\
//!      trigger pump1 d\n",
//! )?;
//! let result = analyze(&tree, &AnalysisOptions::new(24.0))?;
//! // Timing-aware analysis is sharper than the static worst case.
//! assert!(result.frequency <= result.static_rea);
//! # Ok(())
//! # }
//! ```

mod backend;
mod canonical;
mod classify;
mod engine;
mod error;
mod ftc;
mod pipeline;
mod planner;
mod quantify;
mod translate;
mod worstcase;

pub use backend::Backend;
pub use canonical::{CacheStats, CanonicalModelKey, DynamicSolution, KernelStats, QuantCache};
pub use classify::{
    classify_gate, classify_triggering_gates, validate_trigger_structure, TriggerClass,
};
pub use error::CoreError;
pub use ftc::{build_ftc, build_ftc_with, CutsetModel, FtcContext, TriggerTreatment};
pub use pipeline::{
    analyze, analyze_horizons, AnalysisOptions, AnalysisResult, AnalysisStats, CutsetReport,
    FilterShardStats, Timings,
};
pub use planner::{
    draft_plan, estimate_nodes, structural_upper_bound, AnalysisPlan, BackendChoice,
    ModulePlanEntry, PlanReason, PlannerScore,
};
pub use quantify::{
    quantify_cutset, quantify_model_many_with, CutsetQuantification, KernelUsage, QuantifyOptions,
};
pub use sdft_bdd::{BddError, ModularBddOptions, SiftSettings};
pub use sdft_ctmc::{SolveStats, SolverOptions, SolverWorkspace};
pub use translate::{translate, Translated};
pub use worstcase::{worst_case_probabilities, worst_case_probability};
