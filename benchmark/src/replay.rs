//! A single-threaded replay of `analyze_horizons` through the layers'
//! public functions, with a span around every call.
//!
//! The replay mirrors the batch path of `sdft_core::analyze_horizons`
//! step by step: worst-case probabilities, translation to `FT̄`, cutset
//! generation (MOCUS, or the hybrid planner's BDD/MOCUS modules), then
//! one `FT_C` model per cutset, keyed and deduplicated exactly like the
//! library's model cache, solved on its product chain on a miss, and
//! finally the per-horizon sort and sum. [`check`] holds it to
//! `analyze`'s output bit for bit, so a pipeline change the replay no
//! longer mirrors fails loudly instead of skewing the layer numbers.

use crate::trace::{Laps, Span, Tracer};
use crate::workloads::Analysis;
use sdft_bdd::{BddError, CutsetLimits, ModularBddBuilder};
use sdft_core::{
    build_ftc_with, draft_plan, translate, worst_case_probabilities, AnalysisResult, BackendChoice,
    CanonicalModelKey, FtcContext, ModulePlanEntry, PlanReason, Translated,
};
use sdft_ctmc::{SolverOptions, SolverWorkspace};
use sdft_ft::{module_profiles, Cutset, CutsetList, EventProbabilities, FxBuild, NodeId};
use sdft_mocus::{minimal_cutsets_with_stats, module_cutsets, MocusOptions, MocusStats};
use sdft_product::{ProductChain, ProductOptions};
use std::collections::HashMap;
use std::time::Duration;

/// The per-cutset layers, timed with a lap timer (see [`Laps`]).
const PER_CUTSET: [&str; 7] = [
    "ftc",
    "canonical.signature",
    "cache.key",
    "cache.lookup",
    "product",
    "ctmc",
    "report",
];
const FTC: usize = 0;
const SIGNATURE: usize = 1;
const KEY: usize = 2;
const LOOKUP: usize = 3;
const PRODUCT: usize = 4;
const CTMC: usize = 5;
const REPORT: usize = 6;

/// The cutoff slack of the hybrid backend's module-scoped MOCUS runs
/// (`SUBMODULE_SLACK` in `sdft-core`'s backend).
const SUBMODULE_SLACK: f64 = 1e-9;

/// One quantified cutset: `(cutset, probability, static probability)`.
type Row = (Cutset, f64, f64);

/// What cutset generation hands on: the canonical cutset list over
/// `FT̄`, the exact static probability per horizon, and the hybrid plan.
type Generated = (CutsetList, Vec<Option<f64>>, Vec<ModulePlanEntry>);

/// One horizon's result, in the shape of an `AnalysisResult`.
pub struct HorizonOutput {
    pub frequency: f64,
    pub static_rea: f64,
    pub exact_static: Option<f64>,
    /// Sorted by descending probability like `AnalysisResult::cutsets`.
    pub cutsets: Vec<Row>,
}

/// The replay of one analysis call.
pub struct AnalysisOutput {
    pub horizons: Vec<HorizonOutput>,
    pub module_plan: Vec<ModulePlanEntry>,
}

/// Deterministic work counters of a replay, summed over its analyses.
#[derive(Debug, Default)]
pub struct Counters {
    pub planner_modules: u64,
    pub planner_bdd_modules: u64,
    pub bdd_nodes: u64,
    pub bdd_sift_swaps: u64,
    pub mocus_partials: u64,
    pub mocus_pruned: u64,
    pub subsume_comparisons: u64,
    pub subsume_candidates: u64,
    pub subsume_kept: u64,
    pub ftc_calls: u64,
    pub cache_hits: u64,
    pub cache_classes: u64,
    pub product_builds: u64,
    pub product_states: u64,
    pub ctmc_steps: u64,
    pub ctmc_steps_saved: u64,
    pub ctmc_spmv_nonzeros: u64,
}

/// A traced replay of a whole workload pass.
pub struct Replay {
    pub outputs: Vec<AnalysisOutput>,
    pub spans: Vec<Span>,
    pub counters: Counters,
    /// Kernel-reported CSR build and stepping time (inside `ctmc` spans).
    pub csr_build: Duration,
    pub spmv: Duration,
}

/// Replay every analysis of a workload pass under one root span.
pub fn replay(analyses: &[Analysis]) -> Result<Replay, String> {
    let mut run = Run {
        tracer: Tracer::new(),
        counters: Counters::default(),
        workspace: SolverWorkspace::new(),
        csr_build: Duration::ZERO,
        spmv: Duration::ZERO,
    };
    let root = run.tracer.begin("pass");
    let outputs = analyses
        .iter()
        .map(|a| {
            let id = run.tracer.begin("analysis");
            let out = run.analysis(a);
            run.tracer.end(id);
            out
        })
        .collect::<Result<Vec<_>, String>>()?;
    run.tracer.end(root);
    Ok(Replay {
        outputs,
        spans: run.tracer.finish(),
        counters: run.counters,
        csr_build: run.csr_build,
        spmv: run.spmv,
    })
}

struct Run {
    tracer: Tracer,
    counters: Counters,
    workspace: SolverWorkspace,
    csr_build: Duration,
    spmv: Duration,
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Run {
    fn analysis(&mut self, a: &Analysis) -> Result<AnalysisOutput, String> {
        let (tree, options, horizons) = (&a.tree, &a.options, a.horizons.as_slice());
        let max_horizon = horizons.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let probs_per_horizon = self.tracer.span("worstcase", || {
            let probs = worst_case_probabilities(tree, max_horizon, options.epsilon)?;
            horizons
                .iter()
                .map(|&h| {
                    if h == max_horizon {
                        Ok(probs.clone())
                    } else {
                        worst_case_probabilities(tree, h, options.epsilon)
                    }
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let probs_per_horizon = probs_per_horizon.map_err(text)?;
        let max_index = horizons
            .iter()
            .position(|&h| h == max_horizon)
            .expect("max");
        let (translated, static_probs) = self
            .tracer
            .span("translate", || {
                let translated = translate(tree, &probs_per_horizon[max_index])?;
                let static_probs = EventProbabilities::from_static(&translated.tree)?;
                Ok::<_, sdft_core::CoreError>((translated, static_probs))
            })
            .map_err(text)?;
        let ctx = self
            .tracer
            .span("ftc.context", || FtcContext::new(tree))
            .map_err(text)?;

        // Single-threaded generation: the cutset list is identical for
        // every thread count.
        let mocus_options = MocusOptions {
            threads: 1,
            ..options.mocus
        };
        // A backend's unused layers still get an (empty) span, so a
        // bypassed layer reads as a few nanoseconds rather than missing.
        let generate = self.tracer.begin("generate");
        let (mcs, exact, module_plan) = match options.backend {
            sdft_core::Backend::Mocus => {
                for layer in [
                    "planner",
                    "bdd.build",
                    "bdd.minsol",
                    "bdd.exact",
                    "mocus.module",
                ] {
                    self.tracer.span(layer, || ());
                }
                let id = self.tracer.begin("mocus");
                let (mcs, stats) =
                    minimal_cutsets_with_stats(&translated.tree, &static_probs, &mocus_options)
                        .map_err(text)?;
                self.tracer.end(id);
                self.tracer.tail_child(id, "subsume", stats.minimize_time);
                self.count_mocus(&stats, mcs.len());
                (mcs, vec![None; horizons.len()], Vec::new())
            }
            sdft_core::Backend::Hybrid => {
                self.tracer.span("mocus", || ());
                let probe = self.tracer.span("bdd.exact", || {
                    exact_probe(tree, &translated, &static_probs, &probs_per_horizon)
                })?;
                self.hybrid(&translated, &static_probs, &probe, &mocus_options, options)?
            }
            sdft_core::Backend::Bdd => return Err("the replay mirrors MOCUS and hybrid".into()),
        };
        let cutsets = self.tracer.span("translate", || {
            let cutsets = translated.cutsets_to_original(&mcs);
            drop((mcs, translated, static_probs));
            cutsets
        });
        self.tracer.end(generate);

        let per_horizon = self.quantify(a, &ctx, &cutsets, &probs_per_horizon)?;
        self.tracer.span("ftc.context", move || drop(ctx));
        self.tracer
            .span("worstcase", move || drop(probs_per_horizon));
        self.tracer.span("translate", move || drop(cutsets));
        let horizons = self.tracer.span("report", || {
            per_horizon
                .into_iter()
                .zip(exact)
                .map(|(mut rows, exact_static)| {
                    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                    HorizonOutput {
                        frequency: rows.iter().map(|r| r.1).sum::<f64>() + 0.0,
                        static_rea: rows.iter().map(|r| r.2).sum::<f64>() + 0.0,
                        exact_static,
                        cutsets: rows,
                    }
                })
                .collect()
        });
        Ok(AnalysisOutput {
            horizons,
            module_plan,
        })
    }

    fn count_mocus(&mut self, stats: &MocusStats, kept: usize) {
        let c = &mut self.counters;
        c.mocus_partials += stats.partials_processed;
        c.mocus_pruned += stats.partials_pruned;
        c.subsume_comparisons += stats.subsumption_comparisons;
        c.subsume_candidates += stats.cutset_candidates;
        c.subsume_kept += kept as u64;
    }

    /// The hybrid backend's plan → build → compose → enumerate sequence.
    fn hybrid(
        &mut self,
        translated: &Translated,
        probs: &EventProbabilities,
        exact_probe: &[EventProbabilities],
        mocus_options: &MocusOptions,
        options: &sdft_core::AnalysisOptions,
    ) -> Result<Generated, String> {
        let tree = &translated.tree;
        let (profiles, mut plan) = self.tracer.span("planner", || {
            (
                module_profiles(tree),
                draft_plan(tree, options.bdd.max_nodes),
            )
        });
        let mut builder = self
            .tracer
            .span("bdd.build", || ModularBddBuilder::new(tree, &options.bdd));
        let mut weights: HashMap<NodeId, f64, FxBuild> = HashMap::default();
        let sub_options = MocusOptions {
            cutoff: mocus_options.cutoff.map(|c| c * (1.0 - SUBMODULE_SLACK)),
            ..*mocus_options
        };
        for (i, profile) in profiles.iter().enumerate() {
            let entry = &mut plan.entries[i];
            let mut external = entry.choice == BackendChoice::Mocus;
            if !external {
                match self.tracer.span("bdd.build", || builder.build_module(i)) {
                    Ok(nodes) => entry.nodes = nodes,
                    Err(BddError::NodeBudget { peak_nodes, .. }) => {
                        entry.choice = BackendChoice::Mocus;
                        entry.reason = PlanReason::BudgetExhausted { peak_nodes };
                        external = true;
                    }
                    Err(error) => return Err(error.to_string()),
                }
            }
            if external {
                let id = self.tracer.begin("mocus.module");
                let boundary: Vec<(NodeId, f64)> =
                    profile.nested.iter().map(|&m| (m, weights[&m])).collect();
                let out = module_cutsets(tree, profile.gate, &boundary, probs, &sub_options)
                    .map_err(text)?;
                entry.candidates = out.sets.len();
                let stats = out.stats;
                builder.set_external(i, out.sets).map_err(text)?;
                self.tracer.end(id);
                self.tracer.tail_child(id, "subsume", stats.minimize_time);
                self.count_mocus(&stats, entry.candidates);
            }
            let w = self
                .tracer
                .span("bdd.minsol", || {
                    builder.max_solution_probability(i, &|e| {
                        weights.get(&e).copied().unwrap_or_else(|| probs.get(e))
                    })
                })
                .map_err(text)?;
            entry.score.upper_bound = w;
            weights.insert(profile.gate, w);
        }
        let mut modular = self
            .tracer
            .span("bdd.build", || builder.finish())
            .map_err(text)?;

        let exact = self.tracer.span("bdd.exact", || {
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
            let c = &mut self.counters;
            c.bdd_nodes += stats.total_nodes as u64;
            c.bdd_sift_swaps += stats.sift_swaps;
            c.planner_modules += plan.entries.len() as u64;
            c.planner_bdd_modules += plan.built_modules() as u64;
            exact_probe
                .iter()
                .map(|p| {
                    modular
                        .module_probabilities_with(|e| p.get(e))
                        .last()
                        .and_then(|m| m.exact.then_some(m.probability))
                })
                .collect::<Vec<_>>()
        });

        let limits = CutsetLimits {
            cutoff: mocus_options.cutoff,
            max_order: mocus_options.max_order,
        };
        let mcs = self
            .tracer
            .span("bdd.minsol", || {
                let mut cutsets: Vec<Cutset> = Vec::new();
                modular.stream_minimal_cutsets_bounded(
                    usize::MAX,
                    |e| probs.get(e),
                    &limits,
                    |batch| {
                        cutsets.extend(batch.drain(..).filter(|c| keeps(mocus_options, c, probs)));
                        true
                    },
                )?;
                cutsets.sort_unstable_by(|a, b| {
                    a.order()
                        .cmp(&b.order())
                        .then_with(|| a.events().cmp(b.events()))
                });
                Ok::<_, BddError>(cutsets.into_iter().collect::<CutsetList>())
            })
            .map_err(text)?;
        self.tracer.span("bdd.build", move || drop(modular));
        Ok((mcs, exact, plan.entries))
    }

    /// Quantify every cutset at every horizon in canonical cutset order;
    /// returns one row list per horizon.
    fn quantify(
        &mut self,
        a: &Analysis,
        ctx: &FtcContext,
        cutsets: &CutsetList,
        probs_per_horizon: &[EventProbabilities],
    ) -> Result<Vec<Vec<Row>>, String> {
        let (tree, options, horizons) = (&a.tree, &a.options, a.horizons.as_slice());
        let solver = SolverOptions {
            steady_state_detection: options.steady_state_detection,
        };
        let product = ProductOptions {
            max_states: options.max_chain_states,
        };
        let mut cache: HashMap<CanonicalModelKey, Vec<f64>> = HashMap::new();
        let mut rows: Vec<Vec<Row>> = (0..horizons.len())
            .map(|_| Vec::with_capacity(cutsets.len()))
            .collect();
        let mut laps = Laps::new(&PER_CUTSET);
        let span = self.tracer.begin("quantify");
        for cutset in cutsets.iter() {
            laps.resume();
            let model = build_ftc_with(tree, ctx, cutset, options.treatment).map_err(text)?;
            let static_factor: f64 = model
                .static_events
                .iter()
                .map(|&e| tree.static_probability(e).expect("static event"))
                .product();
            laps.mark(FTC);
            if let Some(ftc) = &model.tree {
                std::hint::black_box(ftc.structural_signature());
                laps.mark(SIGNATURE);
            }
            let factors: Vec<f64> = match (&model.tree, &model.canonical_key) {
                (None, _) => vec![1.0; horizons.len()],
                (Some(_), _) if static_factor == 0.0 => vec![0.0; horizons.len()],
                (Some(ftc), stem) => {
                    let key = stem.as_ref().map(|stem| {
                        let key = stem.with_quantification(
                            horizons,
                            options.epsilon,
                            options.max_chain_states,
                            options.steady_state_detection,
                        );
                        laps.mark(KEY);
                        key
                    });
                    let cached = key.as_ref().and_then(|k| {
                        let cached = cache.get(k).cloned();
                        laps.mark(LOOKUP);
                        cached
                    });
                    match cached {
                        Some(factors) => {
                            self.counters.cache_hits += 1;
                            factors
                        }
                        None => {
                            let chain = ProductChain::build(ftc, &product).map_err(text)?;
                            laps.mark(PRODUCT);
                            let (factors, stats) = chain
                                .failure_probability_many_with(
                                    horizons,
                                    options.epsilon,
                                    &solver,
                                    &mut self.workspace,
                                )
                                .map_err(text)?;
                            laps.mark(CTMC);
                            let c = &mut self.counters;
                            c.product_builds += 1;
                            c.product_states += chain.num_states() as u64;
                            c.ctmc_steps += stats.steps_taken as u64;
                            c.ctmc_steps_saved += stats.steps_saved() as u64;
                            c.ctmc_spmv_nonzeros += stats.spmv_nonzeros;
                            self.csr_build += stats.csr_build;
                            self.spmv += stats.spmv_time;
                            drop(chain);
                            laps.mark(PRODUCT);
                            if let Some(key) = key {
                                self.counters.cache_classes += 1;
                                cache.insert(key, factors.clone());
                                laps.mark(LOOKUP);
                            }
                            factors
                        }
                    }
                }
            };
            drop(model);
            laps.mark(FTC);
            for ((out, probs), factor) in rows.iter_mut().zip(probs_per_horizon).zip(&factors) {
                out.push((
                    cutset.clone(),
                    static_factor * factor,
                    cutset.probability_with(|e| probs.get(e)),
                ));
            }
            laps.mark(REPORT);
        }
        self.counters.ftc_calls += cutsets.len() as u64;
        laps.resume();
        drop(cache);
        laps.mark(LOOKUP);
        self.tracer.end(span);
        self.tracer.aggregate(span, &laps);
        Ok(rows)
    }
}

/// The per-horizon probability assignments over `FT̄` the exact-capable
/// backends evaluate (each basic event at its own horizon's worst case).
fn exact_probe(
    tree: &sdft_ft::FaultTree,
    translated: &Translated,
    static_probs: &EventProbabilities,
    probs_per_horizon: &[EventProbabilities],
) -> Result<Vec<EventProbabilities>, String> {
    probs_per_horizon
        .iter()
        .map(|horizon_probs| {
            let mut probe = static_probs.clone();
            for event in tree.basic_events() {
                probe
                    .set(translated.from_original[&event], horizon_probs.get(event))
                    .map_err(text)?;
            }
            Ok(probe)
        })
        .collect()
}

/// Whether a cutset survives the cutoff and order limits (the hybrid
/// backend's exact post-filter).
fn keeps(options: &MocusOptions, cutset: &Cutset, probs: &EventProbabilities) -> bool {
    options.max_order.is_none_or(|m| cutset.order() <= m)
        && options
            .cutoff
            .is_none_or(|c| cutset.probability_with(|e| probs.get(e)) > c)
}

/// Check a replay against `analyze`'s results for the same analyses:
/// cutset order, every probability bit, frequencies, exact static
/// probabilities, the hybrid plan, and the schedule-independent
/// counters both sides report.
pub fn check(replay: &Replay, reference: &[Vec<AnalysisResult>]) -> Result<(), String> {
    if replay.outputs.len() != reference.len() {
        return Err("analysis count differs".into());
    }
    let mut hits = 0;
    let mut classes = 0;
    let mut steps = 0;
    let mut partials = 0;
    let mut nodes = 0;
    for (i, (out, results)) in replay.outputs.iter().zip(reference).enumerate() {
        if out.horizons.len() != results.len() {
            return Err(format!("analysis {i}: horizon count differs"));
        }
        for (h, (mine, theirs)) in out.horizons.iter().zip(results).enumerate() {
            let at = format!("analysis {i}, horizon {h}");
            if mine.frequency.to_bits() != theirs.frequency.to_bits()
                || mine.static_rea.to_bits() != theirs.static_rea.to_bits()
            {
                return Err(format!("{at}: frequency differs"));
            }
            if mine.exact_static.map(f64::to_bits) != theirs.exact_static.map(f64::to_bits) {
                return Err(format!("{at}: exact static probability differs"));
            }
            if out.module_plan != theirs.module_plan {
                return Err(format!("{at}: hybrid module plan differs"));
            }
            if mine.cutsets.len() != theirs.cutsets.len() {
                return Err(format!("{at}: cutset count differs"));
            }
            for (k, ((cutset, p, sp), report)) in
                mine.cutsets.iter().zip(&theirs.cutsets).enumerate()
            {
                if *cutset != report.cutset
                    || p.to_bits() != report.probability.to_bits()
                    || sp.to_bits() != report.static_probability.to_bits()
                {
                    return Err(format!("{at}: cutset #{k} differs"));
                }
            }
        }
        let stats = &results[0].stats;
        hits += stats.cache_hits as u64;
        classes += stats.distinct_model_classes as u64;
        steps += stats.kernel_steps;
        partials += stats.mocus_partials_processed;
        nodes += stats.bdd_total_nodes as u64;
    }
    let c = &replay.counters;
    let pairs = [
        ("cache hits", c.cache_hits, hits),
        ("model classes", c.cache_classes, classes),
        ("kernel steps", c.ctmc_steps, steps),
        ("MOCUS partials", c.mocus_partials, partials),
        ("BDD nodes", c.bdd_nodes, nodes),
    ];
    for (what, mine, theirs) in pairs {
        if mine != theirs {
            return Err(format!("{what}: replay {mine}, analyze {theirs}"));
        }
    }
    Ok(())
}
