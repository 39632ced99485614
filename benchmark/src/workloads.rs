//! The benchmark's workloads, each built from a seed.
//!
//! `--seed 0` gives the models unchanged. Any other seed rescales every
//! basic event through `sdft_ft::transform::scale_event_rates` by a
//! lognormal factor with error factor 1.2 drawn from
//! `StdRng::seed_from_u64(seed)`. Events with identical parameters share
//! one factor (the state-of-knowledge correlation of PSA uncertainty
//! studies), so a seed changes every number but keeps the structure a
//! workload was chosen for: which cutset models are isomorphic, and
//! roughly how many cutsets clear the cutoff.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdft_core::{AnalysisOptions, Backend};
use sdft_ft::{EventProbabilities, FaultTree};
use sdft_importance::fussell_vesely_ranking;
use sdft_mocus::{minimal_cutsets, MocusOptions};
use sdft_models::annotate::{annotate, AnnotationConfig};
use sdft_models::{bwr, industrial};
use sdft_oracle::GeneratorConfig;
use std::collections::HashMap;

/// A workload's name and the reason it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bwr_triggers",
        why: "six cumulative trigger rows of the BWR study: trigger-rich FT_C and \
              product chains under a 98-99% model-cache hit rate; MOCUS does little",
    },
    Workload {
        name: "m1_deep",
        why: "model 1 at scale 0.15, 30% dynamic, cutoff 3e-16: MOCUS enumeration, \
              subsumption and the streaming engine",
    },
    Workload {
        name: "m1_full_hybrid",
        why: "full-scale model 1 under the hybrid planner: the only planner and BDD \
              workload; FT_C-bound, almost every model class a cache miss",
    },
    Workload {
        name: "m2_horizons",
        why: "model 2 at scale 0.1, fully dynamic, cutoff 3e-15, re-quantified at \
              24/48/72/96 h: nearly every cutset its own class; the heaviest kernel share",
    },
    Workload {
        name: "corpus_mix",
        why: "3000 small generated trees: per-call fixed costs, where every heavy \
              layer does little",
    },
];

/// Trees in the `corpus_mix` workload.
const CORPUS_TREES: usize = 3000;

/// One analysis call of a workload: `analyze_horizons(tree, options,
/// horizons)`.
pub struct Analysis {
    pub tree: FaultTree,
    pub options: AnalysisOptions,
    pub horizons: Vec<f64>,
}

impl Analysis {
    fn at_24h(tree: FaultTree) -> Self {
        Analysis {
            tree,
            options: AnalysisOptions::new(24.0),
            horizons: vec![24.0],
        }
    }
}

/// Build the analyses of workload `name` for `seed`.
pub fn build(name: &str, seed: u64) -> Result<Vec<Analysis>, String> {
    let mut analyses: Vec<Analysis> = match name {
        "bwr_triggers" => (1..=6)
            .map(|rows| {
                let config = bwr::BwrConfig {
                    triggers: bwr::Triggers::first(rows),
                    ..bwr::BwrConfig::repairs_only(1e-2, 1)
                };
                Analysis::at_24h(bwr::build(&config))
            })
            .collect(),
        "m1_deep" => {
            let mut a = Analysis::at_24h(annotated(industrial::model1().scaled(0.15), 30.0)?);
            a.options.mocus = MocusOptions::with_cutoff(3e-16);
            vec![a]
        }
        "m1_full_hybrid" => {
            let mut a = Analysis::at_24h(annotated(industrial::model1(), 30.0)?);
            a.options.mocus = MocusOptions::with_cutoff(3e-14);
            a.options.backend = Backend::Hybrid;
            vec![a]
        }
        "m2_horizons" => {
            let mut a = Analysis {
                tree: annotated(industrial::model2().scaled(0.1), 100.0)?,
                options: AnalysisOptions::new(96.0),
                horizons: vec![24.0, 48.0, 72.0, 96.0],
            };
            a.options.mocus = MocusOptions::with_cutoff(3e-15);
            vec![a]
        }
        "corpus_mix" => {
            // The proportion mix cycles the generator's presets; tree
            // seeds stay fixed so every seed keeps the same shapes (the
            // few slow trees dominate a pass) and only rates move.
            let presets = [
                GeneratorConfig::small(),
                GeneratorConfig::medium(),
                GeneratorConfig::static_only(),
            ];
            (0..CORPUS_TREES)
                .map(|i| {
                    let spec = sdft_oracle::generate_seeded(&presets[i % 3], i as u64);
                    spec.build()
                        .map(Analysis::at_24h)
                        .map_err(|e| format!("corpus tree {i}: {e}"))
                })
                .collect::<Result<_, _>>()?
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    if seed != 0 {
        for a in &mut analyses {
            a.tree = perturb(&a.tree, seed)?;
        }
    }
    Ok(analyses)
}

/// Industrial model annotated `percent` dynamic by Fussell–Vesely rank
/// (the construction of the paper's §VI-B experiments).
fn annotated(config: industrial::IndustrialConfig, percent: f64) -> Result<FaultTree, String> {
    let tree = industrial::generate(&config);
    let probs = EventProbabilities::from_static(&tree).map_err(|e| e.to_string())?;
    let mcs =
        minimal_cutsets(&tree, &probs, &MocusOptions::default()).map_err(|e| e.to_string())?;
    let ranking = fussell_vesely_ranking(&mcs, &probs, tree.basic_events());
    annotate(&tree, &ranking, &AnnotationConfig::percent_dynamic(percent))
        .map(|a| a.tree)
        .map_err(|e| e.to_string())
}

/// Error factor of the per-seed rate perturbation (95th percentile over
/// median of the lognormal factor).
const ERROR_FACTOR: f64 = 1.2;

/// Rescale every basic event by a lognormal factor drawn from `seed`,
/// one factor per distinct parameter set.
fn perturb(tree: &FaultTree, seed: u64) -> Result<FaultTree, String> {
    let sigma = ERROR_FACTOR.ln() / 1.644_853_626_951_472_6;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_parameters: HashMap<String, f64> = HashMap::new();
    let mut factors = vec![1.0; tree.len()];
    for event in tree.basic_events() {
        let key = format!("{:?}", tree.behavior(event));
        factors[event.index()] = *by_parameters.entry(key).or_insert_with(|| {
            // Box–Muller on the plain uniform generator.
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (sigma * z).exp()
        });
    }
    sdft_ft::transform::scale_event_rates(tree, |id| factors[id.index()]).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_reproducible_and_keep_shared_parameters_shared() {
        let base = build("bwr_triggers", 0).unwrap();
        let a = build("bwr_triggers", 7).unwrap();
        let b = build("bwr_triggers", 7).unwrap();
        let c = build("bwr_triggers", 8).unwrap();
        let text = |w: &[Analysis]| {
            w.iter()
                .map(|a| sdft_ft::format::to_string(&a.tree))
                .collect::<Vec<_>>()
        };
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        assert_ne!(text(&a), text(&base));
        // Events that shared parameters before still share them.
        let distinct = |tree: &FaultTree| {
            tree.basic_events()
                .map(|e| format!("{:?}", tree.behavior(e)))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert_eq!(distinct(&a[5].tree), distinct(&base[5].tree));
    }

    #[test]
    fn unknown_workloads_are_rejected() {
        assert!(build("nope", 0).is_err());
        assert!(WORKLOADS.iter().all(|w| !w.why.contains('\n')));
    }
}
