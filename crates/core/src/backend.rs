//! Cutset-generation backends for the analysis engine.
//!
//! The engine ([`crate::analyze_horizons`]) takes *how* the minimal
//! cutsets of the translated static tree `FT̄` come to exist as one
//! generation step. The paper's MOCUS traversal (with its probabilistic
//! cutoff) is the default; the modular-BDD composition trades generation
//! time for
//! **exactness**: it also computes the exact top-event probability of
//! `FT̄` — no cutoff, no rare-event approximation — as a by-product of
//! building one ROBDD per independent module. `--backend bdd` and
//! `--backend hybrid` share that composition and differ only in their
//! per-module plan: `bdd` forces every module onto a diagram, `hybrid`
//! routes each module to a diagram or to module-scoped MOCUS.
//!
//! Every backend emits the *same* minimal cutset list for the same
//! options (the composition applies the cutoff and order limits as a
//! post-filter, which is sound: any superset of a below-cutoff cutset is
//! itself below the cutoff), so the per-cutset dynamic quantification
//! downstream is backend-agnostic and results stay bitwise-comparable.

use crate::error::CoreError;
use crate::planner::{draft_plan, AnalysisPlan, BackendChoice, PlanReason};
use sdft_bdd::{
    BddError, CutsetLimits, ModularBdd, ModularBddBuilder, ModularBddOptions, ModularBddStats,
};
use sdft_ft::{module_profiles, Cutset, EventProbabilities, FaultTree, FxBuild, NodeId};
use sdft_mocus::{module_cutsets, MocusOptions, MocusStats};
use std::collections::HashMap;

/// Which cutset-generation backend drives the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The paper's MOCUS traversal with the probabilistic cutoff
    /// (default). Scales to trees whose BDD would blow up, at the cost
    /// of the cutoff's truncation error.
    #[default]
    Mocus,
    /// One ROBDD per independent module of `FT̄`, composed through
    /// pseudo-variables: the hybrid composition with every module forced
    /// onto a diagram. Produces the same minimal cutsets *plus* the
    /// exact top-event probability (no cutoff, no rare-event
    /// approximation); a module that exceeds the node budget is an error
    /// rather than a re-plan.
    Bdd,
    /// Per-module planning: each module goes to the BDD engine when the
    /// planner's size estimate fits the node budget (with a runtime
    /// re-plan to MOCUS if construction still blows up) and to MOCUS
    /// otherwise, composed through the same pseudo-variable mechanism.
    /// Emits the same minimal cutsets as the other backends and reports
    /// the exact top-event probability whenever the module chain above
    /// every MOCUS module stayed exact.
    Hybrid,
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mocus" => Ok(Backend::Mocus),
            "bdd" => Ok(Backend::Bdd),
            "hybrid" => Ok(Backend::Hybrid),
            other => Err(format!(
                "unknown backend {other:?} (expected mocus, bdd or hybrid)"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Mocus => write!(f, "mocus"),
            Backend::Bdd => write!(f, "bdd"),
            Backend::Hybrid => write!(f, "hybrid"),
        }
    }
}

/// Backend-specific by-products of a BDD or hybrid generation run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BddGenStats {
    /// Modular construction statistics (node counts, ordering choices,
    /// sift work, apply-cache behavior).
    pub(crate) stats: ModularBddStats,
    /// The exact top-event probability of `FT̄`, one entry per probe
    /// probability assignment handed to the generation call (the
    /// pipeline probes once per horizon). `None` for a probe the
    /// composition cannot answer exactly (a MOCUS module sits on the
    /// path from the top to some diagram).
    pub(crate) exact: Vec<Option<f64>>,
    /// The per-module plan.
    pub(crate) plan: AnalysisPlan,
}

/// What a generation run reports alongside the cutsets. The MOCUS
/// fields count the whole-tree run, or the module-scoped runs under the
/// BDD-based backends, subsumption included; every populated field
/// except `mocus.minimize_time` is schedule-independent within its
/// backend.
#[derive(Debug, Clone, Default)]
pub(crate) struct GenerationStats {
    pub(crate) mocus: MocusStats,
    pub(crate) bdd: Option<BddGenStats>,
}

/// Generation failure: either a release asked the backend to stop (the
/// real cause lives downstream), or generation itself failed.
pub(crate) enum GenError {
    Aborted,
    Failed(CoreError),
}

/// Cutsets per delivery batch of the composition's enumeration.
const BDD_STREAM_BATCH: usize = 128;

/// The analysis limits as enumeration-pruning hints. The enumeration
/// guarantees every surviving cutset is delivered but may hand back
/// borderline extras (see [`CutsetLimits`]); [`keeps`] is the exact gate
/// that restores MOCUS parity.
fn limits(options: &MocusOptions) -> CutsetLimits {
    CutsetLimits {
        cutoff: options.cutoff,
        max_order: options.max_order,
    }
}

/// Whether a cutset survives the cutoff and order limits. MOCUS keeps
/// cutsets strictly above the cutoff; supersets of a dropped cutset can
/// only have lower probability and higher order, so the post-filtered
/// antichain equals the MOCUS-with-cutoff output.
fn keeps(options: &MocusOptions, cutset: &Cutset, probs: &EventProbabilities) -> bool {
    if let Some(max_order) = options.max_order {
        if cutset.order() > max_order {
            return false;
        }
    }
    if let Some(cutoff) = options.cutoff {
        if cutset.probability_with(|e| probs.get(e)) <= cutoff {
            return false;
        }
    }
    true
}

/// Drain a built composition into `release`, one list per enumerated
/// batch.
///
/// Minimality is established inside the composition — every nested
/// module is fully solved before the top module's solutions are
/// expanded — so each enumerated batch is already an antichain that no
/// later cutset subsumes, and it is released as it is, less the cutsets
/// the limits drop.
fn emit(
    modular: &mut ModularBdd,
    options: &MocusOptions,
    probs: &EventProbabilities,
    release: &mut dyn FnMut(Vec<Cutset>) -> bool,
) -> Result<(), GenError> {
    let completed = modular
        .stream_minimal_cutsets_bounded(
            BDD_STREAM_BATCH,
            |e| probs.get(e),
            &limits(options),
            |batch| {
                release(
                    batch
                        .drain(..)
                        .filter(|c| keeps(options, c, probs))
                        .collect(),
                )
            },
        )
        .map_err(|e| GenError::Failed(e.into()))?;
    if completed {
        Ok(())
    } else {
        Err(GenError::Aborted)
    }
}

/// The slack applied to the cutoff handed to module-scoped MOCUS runs,
/// mirroring the modular walk's own `PRUNE_SLACK`: sub-enumerations
/// accumulate probability products in a different association order
/// than the final exact filter, so their pruning boundary is pulled
/// just below the cutoff to stay strictly conservative.
const SUBMODULE_SLACK: f64 = 1e-9;

/// The planner-driven backend behind `--backend hybrid` and
/// `--backend bdd`: per-module BDD/MOCUS assignment composed through
/// pseudo-variables.
pub(crate) struct HybridBackend {
    /// The analysis-level cutset limits and the traversal tuning used by
    /// the module-scoped MOCUS runs.
    pub(crate) mocus_options: MocusOptions,
    pub(crate) bdd_options: ModularBddOptions,
    /// Force every module onto a diagram (`--backend bdd`): the plan is
    /// drafted against an unbounded budget, and a module that exceeds
    /// the real budget fails the analysis instead of being re-planned
    /// to MOCUS.
    pub(crate) all_bdd: bool,
}

impl HybridBackend {
    /// Plan, build, and compose. Besides the composition and its stats,
    /// returns the MOCUS counters of the module-scoped enumerations,
    /// folded with [`MocusStats::absorb`] (deterministic: sub-runs are
    /// per-module and their own counters are schedule-independent).
    fn build(
        &self,
        tree: &FaultTree,
        probs: &EventProbabilities,
        exact_probe: &[EventProbabilities],
    ) -> Result<(ModularBdd, BddGenStats, MocusStats), CoreError> {
        let profiles = module_profiles(tree);
        let budget = if self.all_bdd {
            usize::MAX
        } else {
            self.bdd_options.max_nodes
        };
        let mut plan = draft_plan(tree, budget);
        let mut builder = ModularBddBuilder::new(tree, &self.bdd_options);
        let mut mocus_totals = MocusStats::default();
        // Exact pseudo-event weights for MOCUS sub-enumerations: each
        // resolved module's maximum flattened-cutset probability,
        // composed bottom-up (modules are event-disjoint, so per-module
        // maxima multiply exactly). Tight weights are what keep the
        // sub-enumerations from churning through partials that a loose
        // structural bound cannot prune.
        let mut weights: HashMap<NodeId, f64, FxBuild> = HashMap::default();
        let sub_options = MocusOptions {
            cutoff: self
                .mocus_options
                .cutoff
                .map(|c| c * (1.0 - SUBMODULE_SLACK)),
            ..self.mocus_options
        };
        for (i, profile) in profiles.iter().enumerate() {
            let entry = &mut plan.entries[i];
            let mut external = entry.choice == BackendChoice::Mocus;
            if !external {
                match builder.build_module(i) {
                    Ok(nodes) => entry.nodes = nodes,
                    Err(BddError::NodeBudget { peak_nodes, .. }) if !self.all_bdd => {
                        entry.choice = BackendChoice::Mocus;
                        entry.reason = PlanReason::BudgetExhausted { peak_nodes };
                        external = true;
                    }
                    Err(error) => return Err(error.into()),
                }
            }
            if external {
                let boundary: Vec<(NodeId, f64)> =
                    profile.nested.iter().map(|&m| (m, weights[&m])).collect();
                let out = module_cutsets(tree, profile.gate, &boundary, probs, &sub_options)?;
                entry.candidates = out.sets.len();
                mocus_totals.absorb(&out.stats);
                builder.set_external(i, out.sets)?;
            }
            let w = builder.max_solution_probability(i, &|e| {
                weights.get(&e).copied().unwrap_or_else(|| probs.get(e))
            })?;
            entry.score.upper_bound = w;
            weights.insert(profile.gate, w);
        }
        let modular = builder.finish()?;
        let stats = modular.stats();
        for (entry, m) in plan.entries.iter_mut().zip(&stats.per_module) {
            entry.sift_passes = m.sift_passes;
        }
        for (entry, mp) in plan
            .entries
            .iter_mut()
            .zip(modular.module_probabilities_with(|e| probs.get(e)))
        {
            entry.exact = mp.exact;
            entry.probability = Some(mp.probability);
        }
        let exact = exact_probe
            .iter()
            .map(|p| {
                modular
                    .module_probabilities_with(|e| p.get(e))
                    .last()
                    .and_then(|m| m.exact.then_some(m.probability))
            })
            .collect();
        Ok((modular, BddGenStats { stats, exact, plan }, mocus_totals))
    }

    /// Plan, build and compose, then release the minimal cutsets to
    /// `release`. `exact_probe` is a list of probability assignments
    /// over the tree's basic events; the exact top-event probability
    /// under each is reported through [`GenerationStats`] where the
    /// composition can answer it.
    pub(crate) fn generate(
        &self,
        tree: &FaultTree,
        probs: &EventProbabilities,
        exact_probe: &[EventProbabilities],
        release: &mut dyn FnMut(Vec<Cutset>) -> bool,
    ) -> Result<GenerationStats, GenError> {
        let (mut modular, bdd_stats, mocus) = match self.build(tree, probs, exact_probe) {
            Ok(built) => built,
            Err(error) => return Err(GenError::Failed(error)),
        };
        emit(&mut modular, &self.mocus_options, probs, release)?;
        Ok(GenerationStats {
            mocus,
            bdd: Some(bdd_stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("mocus".parse::<Backend>().unwrap(), Backend::Mocus);
        assert_eq!("bdd".parse::<Backend>().unwrap(), Backend::Bdd);
        assert_eq!("hybrid".parse::<Backend>().unwrap(), Backend::Hybrid);
        assert!("sat".parse::<Backend>().is_err());
        assert_eq!(Backend::Mocus.to_string(), "mocus");
        assert_eq!(Backend::Bdd.to_string(), "bdd");
        assert_eq!(Backend::Hybrid.to_string(), "hybrid");
        assert_eq!(Backend::default(), Backend::Mocus);
    }
}
