use crate::backend::{Backend, GenError, GenerationStats, HybridBackend};
use crate::canonical::QuantCache;
use crate::error::CoreError;
use crate::ftc::FtcContext;
use crate::planner::ModulePlanEntry;
use crate::quantify::{KernelUsage, QuantifyOptions};
use crate::translate::translate;
use crate::worstcase::worst_case_probabilities;
use sdft_bdd::ModularBddOptions;
use sdft_ctmc::SolverWorkspace;
use sdft_ft::{Cutset, EventProbabilities, FaultTree};
use sdft_mocus::{stream_minimal_cutsets, MocusError, MocusOptions};
use std::time::{Duration, Instant};

/// Options for the full SD fault tree analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisOptions {
    /// The mission horizon `t` (e.g. 24 hours).
    pub horizon: f64,
    /// Cutset generation options, including the cutoff `c*`
    /// (default `10⁻¹⁵`, the paper's setting). The cutoff and order
    /// limits apply to both backends; the traversal-tuning fields only
    /// to MOCUS.
    pub mocus: MocusOptions,
    /// Which cutset-generation backend drives the static phase
    /// (default [`Backend::Mocus`]). [`Backend::Bdd`] produces the same
    /// cutset list plus the **exact** top-event probability of `FT̄`
    /// (reported per horizon through
    /// [`AnalysisResult::exact_static`]); [`Backend::Hybrid`] plans
    /// per module, keeping exactness wherever the diagrams fit the node
    /// budget. Both report their plan in [`AnalysisResult::module_plan`].
    pub backend: Backend,
    /// Modular-BDD engine options for the `bdd` and `hybrid` backends:
    /// shared node budget, ordering heuristic threshold, and the
    /// dynamic-reordering (sifting) policy. Ignored by MOCUS.
    pub bdd: ModularBddOptions,
    /// Truncation error for all transient analyses.
    pub epsilon: f64,
    /// Worker threads for cutset quantification; `0` uses all available
    /// cores. Cutset generation, subsumption included, always runs on the
    /// calling thread.
    pub threads: usize,
    /// State budget for each per-cutset product chain.
    pub max_chain_states: usize,
    /// How much triggering logic the per-cutset models carry
    /// (see [`crate::TriggerTreatment`]).
    pub treatment: crate::TriggerTreatment,
    /// Let the uniformization kernel stop stepping once the DTMC
    /// iterates have converged and close the Poisson series with the
    /// remaining tail mass (default `true`; adds at most `epsilon` of
    /// extra error per horizon when it fires — disable for bitwise
    /// compatibility with the plain Jensen iteration).
    pub steady_state_detection: bool,
    /// Ignored. The generator always releases minimal cutsets to
    /// quantification as soon as they are final: MOCUS after each
    /// separable component of an OR top, the composition after each
    /// enumerated batch. The field remains so that existing option
    /// literals keep compiling.
    pub streaming: bool,
    /// Emit a progress line to stderr at this interval while the engine
    /// runs (cutsets finalized, models quantified, cache hit rate).
    /// `None` (the default) costs nothing.
    pub progress: Option<Duration>,
}

impl AnalysisOptions {
    /// Default options for the given horizon.
    #[must_use]
    pub fn new(horizon: f64) -> Self {
        AnalysisOptions {
            horizon,
            mocus: MocusOptions::default(),
            backend: Backend::default(),
            bdd: ModularBddOptions::default(),
            epsilon: 1e-12,
            threads: 0,
            max_chain_states: 2_000_000,
            treatment: crate::TriggerTreatment::Classified,
            steady_state_detection: true,
            streaming: true,
            progress: None,
        }
    }

    /// The per-cutset quantification options these analysis options
    /// imply at `horizon`: what the engine solves every cutset with, and
    /// what an uncached [`crate::quantify_cutset`] needs to reproduce
    /// its probabilities.
    #[must_use]
    pub fn quantify_options(&self, horizon: f64) -> QuantifyOptions {
        QuantifyOptions {
            horizon,
            epsilon: self.epsilon,
            max_states: self.max_chain_states,
            treatment: self.treatment,
            steady_state_detection: self.steady_state_detection,
        }
    }
}

/// Per-cutset record in an [`AnalysisResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct CutsetReport {
    /// The minimal cutset (original tree ids).
    pub cutset: Cutset,
    /// `p̃(C)` — the time-aware probability (§V-C).
    pub probability: f64,
    /// The static (worst-case) probability `∏ p(a)` — the cutset's
    /// contribution to the static rare-event approximation.
    pub static_probability: f64,
    /// Dynamic events in the cutset.
    pub cutset_dynamic: usize,
    /// Dynamic events added by the triggering logic.
    pub added_dynamic: usize,
    /// Static events added by the triggering logic.
    pub added_static: usize,
    /// Product chain size of the cutset model (0 for static cutsets).
    pub chain_states: usize,
    /// Whether the general case was needed for some triggering gate.
    pub used_general: bool,
    /// Wall-clock time spent quantifying this cutset.
    pub quantification_time: Duration,
}

impl CutsetReport {
    /// Total dynamic events in the cutset's Markov model.
    #[must_use]
    pub fn model_dynamic(&self) -> usize {
        self.cutset_dynamic + self.added_dynamic
    }
}

/// Wall-clock breakdown of an analysis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Timings {
    /// Computing worst-case probabilities for dynamic events (§V-B2).
    pub worst_case: Duration,
    /// Translating to the static tree `FT̄` (§V-B1).
    pub translation: Duration,
    /// Total dynamic quantification (all cutsets, wall clock).
    pub quantification: Duration,
    /// Wall-clock the quantification cache saved: solve time the cache
    /// hits would have re-spent uniformizing their class.
    pub quantification_saved: Duration,
    /// Wall-clock the uniformization kernel spent building its CSR
    /// forms (summed over all solved model classes).
    pub csr_build: Duration,
    /// Stage-seconds the engine's generation and quantification spans
    /// ran concurrently.
    pub stream_overlap: Duration,
    /// Busy seconds of the generation stage on the calling thread, wall
    /// clock: MOCUS/BDD cutset enumeration, MOCUS's subsumption, and
    /// handing released cutsets to quantification.
    pub generation_busy: Duration,
    /// Seconds MOCUS spent minimizing its candidate buffer (summed over
    /// a composition's module-scoped runs); a share of `generation_busy`.
    pub filter_busy: Duration,
    /// Busy seconds summed over quantification workers: time spent
    /// solving models, excluding channel waits. Exceeds wall-clock
    /// `quantification` when several workers run concurrently.
    pub quant_busy: Duration,
    /// Wall-clock inside the uniformization stepping loop (SpMV plus
    /// Poisson accumulation), summed over all solves. Divide
    /// `AnalysisStats::kernel_spmv_nonzeros` by this for the kernel's
    /// sustained nonzeros/second.
    pub spmv: Duration,
    /// End-to-end analysis time.
    pub total: Duration,
}

/// MOCUS's subsumption counters ([`sdft_mocus::MocusStats`]), summed
/// over the whole-tree run or a composition's module-scoped runs; the
/// composition's own batches need no subsumption. All three are
/// deterministic: MOCUS finds its candidates in a fixed order, so it
/// re-minimizes at the same points on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterShardStats {
    /// Candidates MOCUS found.
    pub offered: u64,
    /// Subset tests the minimize passes performed.
    pub probes: u64,
    /// Candidates dropped as duplicates or subsumed.
    pub rejects: u64,
}

/// Aggregate statistics of an analysis run (the quantities behind the
/// paper's Figures 2 and 3 and the §VI tables).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalysisStats {
    /// Number of minimal cutsets above the cutoff.
    pub num_cutsets: usize,
    /// Cutsets containing at least one dynamic event.
    pub num_dynamic_cutsets: usize,
    /// Histogram over cutsets: index = dynamic events *in the cutset*,
    /// value = number of cutsets (Figure 2).
    pub histogram_cutset_dynamic: Vec<usize>,
    /// Histogram over cutsets: index = dynamic events *in the Markov
    /// model* (cutset + added by triggering logic).
    pub histogram_model_dynamic: Vec<usize>,
    /// The largest per-cutset chain built.
    pub max_chain_states: usize,
    /// Distinct cutset-model equivalence classes consulted through the
    /// quantification cache.
    pub distinct_model_classes: usize,
    /// Cache consultations answered without uniformizing (deterministic
    /// for a fixed cutset list, regardless of thread scheduling).
    pub cache_hits: usize,
    /// Cache consultations that uniformized their class — exactly one
    /// per distinct class.
    pub cache_misses: usize,
    /// Uniformization passes the kernel ran (one per solved model
    /// class; deterministic for a fixed cutset list).
    pub kernel_solves: usize,
    /// DTMC steps the kernel actually took across those passes.
    pub kernel_steps: u64,
    /// DTMC steps steady-state detection saved against the full Poisson
    /// budgets.
    pub kernel_steps_saved: u64,
    /// Solves in which steady-state detection fired.
    pub steady_state_solves: usize,
    /// CSR entries streamed through the SpMV kernel (nonzeros × steps,
    /// summed over solves; deterministic for a fixed cutset list).
    pub kernel_spmv_nonzeros: u64,
    /// Partial cutsets MOCUS processed.
    pub mocus_partials_processed: u64,
    /// Partial cutsets MOCUS pruned via the cutoff, order limit or
    /// look-ahead bound.
    pub mocus_partials_pruned: u64,
    /// Peak length of MOCUS's candidate buffer, sampled before each
    /// minimize pass (the largest over a composition's module-scoped
    /// runs). Like the subsumption counters it is a deterministic
    /// function of the candidate sequence, but not of the multiset
    /// alone: the doubling rule decides where the buffer is
    /// re-minimized, so reordering the same candidates moves the peak.
    pub peak_pending_cutsets: usize,
    /// Peak live partial cutsets inside MOCUS (the largest over a
    /// composition's module-scoped runs).
    pub mocus_peak_live_partials: u64,
    /// Approximate peak bytes held by live MOCUS partials.
    pub mocus_peak_partial_bytes: u64,
    /// MOCUS's subsumption counters: one entry.
    pub filter_shard_stats: Vec<FilterShardStats>,
    /// Which backend generated the cutsets.
    pub backend: Backend,
    /// Independent modules of `FT̄` the BDD backend built a diagram for
    /// (0 under MOCUS). Deterministic: module discovery and construction
    /// follow node-id order regardless of thread count.
    pub bdd_modules: usize,
    /// Total ROBDD nodes across all module diagrams.
    pub bdd_total_nodes: usize,
    /// Nodes of the largest single module diagram.
    pub bdd_max_module_nodes: usize,
    /// Per-module diagram sizes, in module-gate id order.
    pub bdd_per_module_nodes: Vec<usize>,
    /// Modules whose variable order came from the weighted heuristic
    /// rather than plain DFS order.
    pub bdd_weighted_orders: usize,
    /// Apply-cache hits across the whole modular construction
    /// (deterministic — modules are built sequentially in id order).
    pub bdd_apply_hits: u64,
    /// Apply-cache misses across the whole modular construction.
    pub bdd_apply_misses: u64,
    /// Modules the hybrid planner handed to MOCUS (their cutsets enter
    /// the composition as external antichains; 0 under the other
    /// backends).
    pub bdd_external_modules: usize,
    /// Sifting passes run across all module constructions (0 with
    /// reordering disabled).
    pub bdd_sift_passes: u64,
    /// Adjacent-level swaps performed across all module constructions.
    pub bdd_sift_swaps: u64,
    /// Modules whose probability stayed exact (every module under
    /// `bdd`; under hybrid, the modules below and beside — but not
    /// above — any MOCUS module).
    pub bdd_exact_modules: usize,
}

impl AnalysisStats {
    /// Average dynamic events per dynamic cutset's Markov model (the
    /// paper reports 3.02 for the fully dynamic BWR model).
    #[must_use]
    pub fn avg_model_dynamic(&self) -> f64 {
        let (sum, count) = self
            .histogram_model_dynamic
            .iter()
            .enumerate()
            .skip(1)
            .fold((0usize, 0usize), |(s, c), (k, &n)| (s + k * n, c + n));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Fraction of cache consultations answered from the cache (0 when
    /// the cache was never consulted).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The result of a full SD fault tree analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisResult {
    /// The time-aware failure frequency: `Σ_C p̃(C)` (rare-event
    /// approximation over the quantified cutsets, §V).
    pub frequency: f64,
    /// The static rare-event approximation with worst-case probabilities —
    /// what a purely static analysis of the same model would report.
    pub static_rea: f64,
    /// The **exact** static top-event probability of `FT̄` at this
    /// horizon's worst-case probabilities — Shannon decomposition over
    /// the modular BDD, no cutoff, no rare-event approximation. `None`
    /// under the MOCUS backend, which never materializes an exact
    /// representation, and under a hybrid run whose top module chain
    /// passes through a MOCUS-enumerated module.
    pub exact_static: Option<f64>,
    /// The per-module plan of the BDD-based backends (which engine
    /// analyzed each module of `FT̄`, why, and with what cost); every
    /// module is on the BDD under `bdd`; empty under MOCUS.
    pub module_plan: Vec<ModulePlanEntry>,
    /// The analysis horizon.
    pub horizon: f64,
    /// Per-cutset details, sorted by descending probability.
    pub cutsets: Vec<CutsetReport>,
    /// Wall-clock breakdown.
    pub timings: Timings,
    /// Aggregate statistics.
    pub stats: AnalysisStats,
}

impl AnalysisResult {
    /// Time-aware Fussell–Vesely importance: the fraction of the
    /// quantified frequency flowing through each basic event,
    /// `FV(a) = Σ_{C∋a} p̃(C) / Σ_C p̃(C)`, sorted descending (ties by
    /// event id). An extension over the paper — the same re-evaluation
    /// workflow its conclusion describes, but on the dynamic cutset
    /// probabilities.
    #[must_use]
    pub fn fussell_vesely(&self) -> Vec<(sdft_ft::NodeId, f64)> {
        use std::collections::HashMap;
        let mut with: HashMap<sdft_ft::NodeId, f64> = HashMap::new();
        for report in &self.cutsets {
            for &event in report.cutset.events() {
                *with.entry(event).or_insert(0.0) += report.probability;
            }
        }
        let mut out: Vec<(sdft_ft::NodeId, f64)> = with
            .into_iter()
            .map(|(event, sum)| {
                (
                    event,
                    if self.frequency > 0.0 {
                        sum / self.frequency
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }

    /// Write the per-cutset records as CSV (header + one row per cutset,
    /// events separated by spaces, names resolved against `tree`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_csv<W: std::io::Write>(
        &self,
        tree: &FaultTree,
        mut writer: W,
    ) -> std::io::Result<()> {
        // Event names may legally contain commas or quotes; RFC-4180
        // quote the cutset field when needed.
        fn csv_field(raw: &str) -> String {
            if raw.contains(',') || raw.contains('"') || raw.contains('\n') {
                format!("\"{}\"", raw.replace('"', "\"\""))
            } else {
                raw.to_owned()
            }
        }
        writeln!(
            writer,
            "cutset,probability,static_probability,cutset_dynamic,added_dynamic,\
             added_static,chain_states,used_general,quantification_us"
        )?;
        for report in &self.cutsets {
            let names: Vec<&str> = report
                .cutset
                .events()
                .iter()
                .map(|&e| tree.name(e))
                .collect();
            writeln!(
                writer,
                "{},{:e},{:e},{},{},{},{},{},{}",
                csv_field(&names.join(" ")),
                report.probability,
                report.static_probability,
                report.cutset_dynamic,
                report.added_dynamic,
                report.added_static,
                report.chain_states,
                report.used_general,
                report.quantification_time.as_micros(),
            )?;
        }
        Ok(())
    }
}

/// Run the complete analysis of §V: worst-case probabilities → static
/// translation → MOCUS → parallel per-cutset Markov quantification →
/// rare-event summation (generation, MOCUS's subsumption included, and
/// quantification run in the engine of DESIGN.md §7).
///
/// # Errors
///
/// Returns an error if the horizon is invalid, cutset generation exceeds
/// its budgets, or a per-cutset chain exceeds the state budget.
pub fn analyze(tree: &FaultTree, options: &AnalysisOptions) -> Result<AnalysisResult, CoreError> {
    let mut results = analyze_horizons(tree, options, &[options.horizon])?;
    Ok(results.pop().expect("one horizon, one result"))
}

/// Run the analysis for several horizons over *one* cutset list.
///
/// The expensive static phase — worst-case probabilities, translation and
/// MOCUS — runs once, at the **largest** horizon (worst-case
/// probabilities grow with the horizon, so that cutset list is a superset
/// of every smaller horizon's list and the cutoff stays conservative);
/// each horizon then re-quantifies the same list. This is the
/// re-evaluation workflow the paper's conclusion describes for
/// importance and uncertainty analyses, and the natural way to run its
/// horizon sweep (§VI-B, T5).
///
/// Results are returned in the order of `horizons`.
///
/// # Errors
///
/// Returns an error if `horizons` is empty or contains an invalid value,
/// cutset generation exceeds its budgets, or a per-cutset chain exceeds
/// the state budget.
pub fn analyze_horizons(
    tree: &FaultTree,
    options: &AnalysisOptions,
    horizons: &[f64],
) -> Result<Vec<AnalysisResult>, CoreError> {
    let start = Instant::now();
    let Some(&max_horizon) = horizons
        .iter()
        .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    else {
        return Err(CoreError::InvalidHorizon { horizon: f64::NAN });
    };
    for &h in horizons {
        if !h.is_finite() || h < 0.0 {
            return Err(CoreError::InvalidHorizon { horizon: h });
        }
    }

    let t0 = Instant::now();
    let probs = worst_case_probabilities(tree, max_horizon, options.epsilon)?;
    let worst_case_time = t0.elapsed();

    let t1 = Instant::now();
    let translated = translate(tree, &probs)?;
    let translation_time = t1.elapsed();

    let static_probs = EventProbabilities::from_static(&translated.tree)?;

    let ctx = FtcContext::new(tree)?;
    // Per-horizon worst-case probabilities (the REA comparator).
    let probs_per_horizon: Vec<EventProbabilities> = horizons
        .iter()
        .map(|&h| {
            if h == max_horizon {
                Ok(probs.clone())
            } else {
                worst_case_probabilities(tree, h, options.epsilon)
            }
        })
        .collect::<Result<_, _>>()?;

    // Probability assignments over FT̄ for the exact-probability probe,
    // one per horizon: the translated tree carries the max-horizon
    // worst-case probabilities, so remap each basic event to its own
    // horizon's worst case. Only the exact-capable backends answer it.
    let exact_probe: Vec<EventProbabilities> = if options.backend != Backend::Mocus {
        probs_per_horizon
            .iter()
            .map(|horizon_probs| {
                let mut probe = static_probs.clone();
                for event in tree.basic_events() {
                    probe.set(translated.from_original[&event], horizon_probs.get(event))?;
                }
                Ok(probe)
            })
            .collect::<Result<_, CoreError>>()?
    } else {
        Vec::new()
    };

    let generate = |release: &mut dyn FnMut(Vec<Cutset>) -> bool| match options.backend {
        Backend::Mocus => {
            match stream_minimal_cutsets(&translated.tree, &static_probs, &options.mocus, release) {
                Ok(mocus) => Ok(GenerationStats { mocus, bdd: None }),
                Err(MocusError::Aborted) => Err(GenError::Aborted),
                Err(error) => Err(GenError::Failed(error.into())),
            }
        }
        Backend::Bdd | Backend::Hybrid => HybridBackend {
            mocus_options: options.mocus,
            bdd_options: options.bdd,
            all_bdd: options.backend == Backend::Bdd,
        }
        .generate(&translated.tree, &static_probs, &exact_probe, release),
    };
    let engine = crate::engine::run(
        tree,
        &translated,
        horizons,
        options,
        &probs_per_horizon,
        &ctx,
        generate,
    )?;
    let (cache_stats, kernel_usage, gen_stats) =
        (&engine.cache_stats, &engine.kernel_usage, &engine.gen_stats);
    let mocus_stats = &gen_stats.mocus;

    let mut results = Vec::with_capacity(horizons.len());
    for (h_index, (&horizon, reports)) in horizons.iter().zip(engine.per_horizon).enumerate() {
        let mut cutset_reports = reports;
        cutset_reports.sort_by(|a, b| {
            b.probability
                .partial_cmp(&a.probability)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // `Sum for f64` folds from -0.0; normalize for empty lists.
        let frequency = cutset_reports.iter().map(|r| r.probability).sum::<f64>() + 0.0;
        let static_rea = cutset_reports
            .iter()
            .map(|r| r.static_probability)
            .sum::<f64>()
            + 0.0;

        let mut stats = AnalysisStats {
            num_cutsets: cutset_reports.len(),
            distinct_model_classes: cache_stats.distinct_classes,
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            kernel_solves: kernel_usage.stats.solves,
            kernel_steps: kernel_usage.stats.steps_taken,
            kernel_steps_saved: kernel_usage.stats.steps_saved,
            steady_state_solves: kernel_usage.stats.steady_state_solves,
            kernel_spmv_nonzeros: kernel_usage.stats.spmv_nonzeros,
            mocus_partials_processed: mocus_stats.partials_processed,
            mocus_partials_pruned: mocus_stats.partials_pruned,
            peak_pending_cutsets: mocus_stats.peak_pending_cutsets as usize,
            mocus_peak_live_partials: mocus_stats.peak_live_partials,
            mocus_peak_partial_bytes: mocus_stats.peak_partial_bytes,
            filter_shard_stats: vec![FilterShardStats {
                offered: mocus_stats.cutset_candidates,
                probes: mocus_stats.subsumption_comparisons,
                rejects: mocus_stats.candidates_rejected,
            }],
            backend: options.backend,
            ..AnalysisStats::default()
        };
        if let Some(bdd) = &gen_stats.bdd {
            stats.bdd_modules = bdd.stats.modules;
            stats.bdd_total_nodes = bdd.stats.total_nodes;
            stats.bdd_max_module_nodes = bdd.stats.max_module_nodes;
            stats.bdd_per_module_nodes = bdd.stats.per_module.iter().map(|m| m.nodes).collect();
            stats.bdd_weighted_orders = bdd.stats.weighted_orders;
            stats.bdd_apply_hits = bdd.stats.apply_hits;
            stats.bdd_apply_misses = bdd.stats.apply_misses;
            stats.bdd_external_modules = bdd.stats.external_modules;
            stats.bdd_sift_passes = bdd.stats.sift_passes;
            stats.bdd_sift_swaps = bdd.stats.sift_swaps;
            stats.bdd_exact_modules = bdd.plan.exact_modules();
        }
        for r in &cutset_reports {
            if r.cutset_dynamic > 0 {
                stats.num_dynamic_cutsets += 1;
            }
            bump(&mut stats.histogram_cutset_dynamic, r.cutset_dynamic);
            bump(&mut stats.histogram_model_dynamic, r.model_dynamic());
            stats.max_chain_states = stats.max_chain_states.max(r.chain_states);
        }

        results.push(AnalysisResult {
            frequency,
            static_rea,
            exact_static: gen_stats.bdd.as_ref().and_then(|bdd| bdd.exact[h_index]),
            module_plan: gen_stats
                .bdd
                .as_ref()
                .map(|bdd| bdd.plan.entries.clone())
                .unwrap_or_default(),
            horizon,
            cutsets: cutset_reports,
            timings: Timings {
                worst_case: worst_case_time,
                translation: translation_time,
                quantification: engine.quantification_span,
                quantification_saved: cache_stats.time_saved,
                csr_build: kernel_usage.csr_build,
                stream_overlap: engine.overlap,
                generation_busy: engine.generation_span,
                filter_busy: mocus_stats.minimize_time,
                quant_busy: engine.quant_busy,
                spmv: kernel_usage.spmv_time,
                total: start.elapsed(),
            },
            stats,
        });
    }
    Ok(results)
}

fn bump(histogram: &mut Vec<usize>, index: usize) {
    if histogram.len() <= index {
        histogram.resize(index + 1, 0);
    }
    histogram[index] += 1;
}

/// Quantify one cutset against every horizon: build its `FT_C` model
/// once, solve it through the cache, and expand into one
/// [`CutsetReport`] per horizon. Pure in the cutset — the reason the
/// engine's reports are bitwise-identical for every schedule.
#[allow(clippy::too_many_arguments)]
pub(crate) fn quantify_cutset_at_horizons(
    tree: &FaultTree,
    ctx: &FtcContext,
    cutset: &Cutset,
    horizons: &[f64],
    qopts: &QuantifyOptions,
    cache: &QuantCache,
    probs_per_horizon: &[EventProbabilities],
    workspace: &mut SolverWorkspace,
) -> Result<(Vec<CutsetReport>, KernelUsage), CoreError> {
    let begin = Instant::now();
    let model = crate::ftc::build_ftc_with(tree, ctx, cutset, qopts.treatment)?;
    let build_share = begin.elapsed() / u32::try_from(horizons.len()).unwrap_or(1);
    let (quantified, usage) = crate::quantify::quantify_model_many_with(
        tree,
        &model,
        horizons,
        qopts,
        Some(cache),
        workspace,
    )?;
    let reports = quantified
        .into_iter()
        .zip(probs_per_horizon)
        .map(|(q, probs)| CutsetReport {
            probability: q.probability,
            static_probability: cutset.probability_with(|e| probs.get(e)),
            cutset_dynamic: q.cutset_dynamic,
            added_dynamic: q.added_dynamic,
            added_static: q.added_static,
            chain_states: q.chain_states,
            used_general: q.used_general,
            quantification_time: build_share + q.quantification_time,
            cutset: cutset.clone(),
        })
        .collect();
    Ok((reports, usage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

    fn example3() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b
            .dynamic_event("b", erlang::repairable(1, 1e-3, 0.05).unwrap())
            .unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    #[test]
    fn analyzes_example3() {
        let t = example3();
        let result = analyze(&t, &AnalysisOptions::new(24.0)).unwrap();
        assert_eq!(result.stats.num_cutsets, 5);
        assert_eq!(result.stats.num_dynamic_cutsets, 3); // {b,c}, {a,d}, {b,d}
        assert!(result.frequency > 0.0);
        assert!(result.frequency <= result.static_rea);
        // Reports are sorted by probability.
        for pair in result.cutsets.windows(2) {
            assert!(pair[0].probability >= pair[1].probability);
        }
    }

    #[test]
    fn fully_static_tree_matches_rea() {
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 1e-3).unwrap();
        let y = b.static_event("y", 2e-3).unwrap();
        let g = b.and("g", [x, y]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let result = analyze(&t, &AnalysisOptions::new(24.0)).unwrap();
        assert!((result.frequency - 2e-6).abs() < 1e-18);
        assert_eq!(result.frequency, result.static_rea);
        assert_eq!(result.stats.num_dynamic_cutsets, 0);
    }

    #[test]
    fn single_thread_and_parallel_agree() {
        let t = example3();
        let mut opts = AnalysisOptions::new(24.0);
        opts.threads = 1;
        let sequential = analyze(&t, &opts).unwrap();
        opts.threads = 4;
        let parallel = analyze(&t, &opts).unwrap();
        assert!((sequential.frequency - parallel.frequency).abs() < 1e-18);
        // Every counter, the MOCUS peaks and subsumption counters
        // included, is independent of the quantification schedule.
        assert_eq!(sequential.stats, parallel.stats);
    }

    #[test]
    fn horizon_monotonicity() {
        let t = example3();
        let f24 = analyze(&t, &AnalysisOptions::new(24.0)).unwrap().frequency;
        let f96 = analyze(&t, &AnalysisOptions::new(96.0)).unwrap().frequency;
        assert!(f96 > f24);
    }

    #[test]
    fn cutoff_drops_cutsets() {
        let t = example3();
        let mut opts = AnalysisOptions::new(24.0);
        opts.mocus = MocusOptions::with_cutoff(5e-6); // drops {e} at 3e-6
        let result = analyze(&t, &opts).unwrap();
        assert!(result.stats.num_cutsets < 5);
    }

    #[test]
    fn stats_histograms_are_consistent() {
        let t = example3();
        let result = analyze(&t, &AnalysisOptions::new(24.0)).unwrap();
        let total: usize = result.stats.histogram_cutset_dynamic.iter().sum();
        assert_eq!(total, result.stats.num_cutsets);
        let dynamic: usize = result.stats.histogram_cutset_dynamic.iter().skip(1).sum();
        assert_eq!(dynamic, result.stats.num_dynamic_cutsets);
        assert!(result.stats.avg_model_dynamic() >= 1.0);
    }

    #[test]
    fn rejects_invalid_horizon() {
        let t = example3();
        assert!(matches!(
            analyze(&t, &AnalysisOptions::new(f64::INFINITY)),
            Err(CoreError::InvalidHorizon { .. })
        ));
    }

    #[test]
    fn quantify_cutset_honors_steady_state_detection() {
        // Two fast-failing events over a long horizon: their absorbed
        // product chain converges long before the Poisson budget runs
        // out, so detection fires and moves the result.
        let mut b = FaultTreeBuilder::new();
        let y = b
            .dynamic_event("y", erlang::repairable(1, 0.5, 0.1).unwrap())
            .unwrap();
        let z = b
            .dynamic_event("z", erlang::repairable(1, 0.05, 0.1).unwrap())
            .unwrap();
        let g = b.and("g", [y, z]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let mut opts = AnalysisOptions::new(2000.0);
        let detected = analyze(&t, &opts).unwrap();
        assert!(detected.stats.kernel_steps_saved > 0);
        opts.steady_state_detection = false;
        let plain = analyze(&t, &opts).unwrap();
        let [report] = &plain.cutsets[..] else {
            panic!("one cutset, got {}", plain.cutsets.len());
        };
        assert_ne!(
            report.probability.to_bits(),
            detected.cutsets[0].probability.to_bits()
        );
        let qopts = QuantifyOptions {
            steady_state_detection: false,
            ..QuantifyOptions::new(2000.0)
        };
        let ctx = FtcContext::new(&t).unwrap();
        let q = crate::quantify::quantify_cutset(&t, &ctx, &report.cutset, &qopts).unwrap();
        assert_eq!(q.probability.to_bits(), report.probability.to_bits());
    }
}

#[cfg(test)]
mod horizon_tests {
    use super::*;
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

    fn example3() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b
            .dynamic_event("b", erlang::repairable(1, 1e-3, 0.05).unwrap())
            .unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    #[test]
    fn multi_horizon_matches_individual_runs() {
        let t = example3();
        let opts = AnalysisOptions::new(96.0);
        let swept = analyze_horizons(&t, &opts, &[24.0, 96.0]).unwrap();
        assert_eq!(swept.len(), 2);
        // The 96 h result is exactly analyze() at 96 h.
        let single = analyze(&t, &AnalysisOptions::new(96.0)).unwrap();
        assert!((swept[1].frequency - single.frequency).abs() < 1e-18);
        // The 24 h result quantifies the 96 h cutset list (a superset of
        // the 24 h list), so it can only match-or-exceed the plain run.
        let single24 = analyze(&t, &AnalysisOptions::new(24.0)).unwrap();
        assert!(swept[0].frequency >= single24.frequency - 1e-18);
        assert!(swept[0].stats.num_cutsets >= single24.stats.num_cutsets);
        // Monotone in the horizon.
        assert!(swept[1].frequency > swept[0].frequency);
    }

    #[test]
    fn horizon_order_is_preserved() {
        let t = example3();
        let opts = AnalysisOptions::new(96.0);
        let swept = analyze_horizons(&t, &opts, &[96.0, 24.0, 48.0]).unwrap();
        let horizons: Vec<f64> = swept.iter().map(|r| r.horizon).collect();
        assert_eq!(horizons, vec![96.0, 24.0, 48.0]);
    }

    #[test]
    fn rejects_empty_and_invalid_horizon_lists() {
        let t = example3();
        let opts = AnalysisOptions::new(24.0);
        assert!(matches!(
            analyze_horizons(&t, &opts, &[]),
            Err(CoreError::InvalidHorizon { .. })
        ));
        assert!(matches!(
            analyze_horizons(&t, &opts, &[24.0, -1.0]),
            Err(CoreError::InvalidHorizon { .. })
        ));
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

    fn example3() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b
            .dynamic_event("b", erlang::repairable(1, 1e-3, 0.05).unwrap())
            .unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    /// Four redundant lines whose pumps are structurally identical
    /// dynamic events: four dynamic cutsets, one model equivalence class.
    fn replicated_lines() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let mut lines = Vec::new();
        for i in 0..4 {
            let valve = b
                .static_event(&format!("valve{i}"), 1e-3 * (i as f64 + 1.0))
                .unwrap();
            let pump = b
                .dynamic_event(
                    &format!("pump{i}"),
                    erlang::repairable(1, 1e-3, 0.05).unwrap(),
                )
                .unwrap();
            lines.push(b.and(&format!("line{i}"), [valve, pump]).unwrap());
        }
        let top = b.or("plant", lines).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    #[test]
    fn identical_models_are_uniformized_once() {
        let result = analyze(&replicated_lines(), &AnalysisOptions::new(24.0)).unwrap();
        assert_eq!(result.stats.num_dynamic_cutsets, 4);
        assert_eq!(result.stats.distinct_model_classes, 1);
        assert_eq!(result.stats.cache_misses, 1, "one uniformization pass");
        assert_eq!(result.stats.cache_hits, 3);
        assert!((result.stats.cache_hit_rate() - 0.75).abs() < 1e-12);
        // The shared dynamic factor is re-labelled per cutset with its
        // own static factor, so the probabilities still differ.
        let mut probabilities: Vec<f64> = result.cutsets.iter().map(|r| r.probability).collect();
        probabilities.dedup();
        assert_eq!(probabilities.len(), 4);
    }

    #[test]
    fn example3_has_three_model_classes() {
        // {b,c}, {a,d} and {b,d} quantify three structurally different
        // models — no dedup opportunity, and no false sharing either.
        let result = analyze(&example3(), &AnalysisOptions::new(24.0)).unwrap();
        assert_eq!(result.stats.num_dynamic_cutsets, 3);
        assert_eq!(result.stats.distinct_model_classes, 3);
        assert_eq!(result.stats.cache_misses, 3);
        assert_eq!(result.stats.cache_hits, 0);
    }

    #[test]
    fn cached_and_uncached_probabilities_are_bitwise_identical() {
        // Every probability the cached engine reports, at every horizon,
        // equals an uncached quantification of that cutset alone in a
        // fresh workspace.
        let mut hits = 0;
        for tree in [replicated_lines(), example3()] {
            let opts = AnalysisOptions::new(96.0);
            let cached = analyze_horizons(&tree, &opts, &[24.0, 96.0]).unwrap();
            hits += cached[0].stats.cache_hits;
            let ctx = FtcContext::new(&tree).unwrap();
            for result in &cached {
                let qopts = opts.quantify_options(result.horizon);
                for report in &result.cutsets {
                    let alone =
                        crate::quantify::quantify_cutset(&tree, &ctx, &report.cutset, &qopts)
                            .unwrap();
                    assert_eq!(report.probability.to_bits(), alone.probability.to_bits());
                    assert_eq!(report.chain_states, alone.chain_states);
                }
            }
        }
        assert!(hits > 0, "no cutset was answered from the cache");
    }

    #[test]
    fn sequential_and_parallel_cache_stats_agree() {
        let t = replicated_lines();
        let mut opts = AnalysisOptions::new(24.0);
        opts.threads = 1;
        let sequential = analyze(&t, &opts).unwrap();
        opts.threads = 4;
        let parallel = analyze(&t, &opts).unwrap();
        // Misses are one-per-class regardless of scheduling.
        assert_eq!(sequential.stats, parallel.stats);
        assert_eq!(sequential.frequency.to_bits(), parallel.frequency.to_bits());
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

    fn example3() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b
            .dynamic_event("b", erlang::repairable(1, 1e-3, 0.05).unwrap())
            .unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    /// Four redundant lines with structurally identical dynamic pumps —
    /// exercises the quantification cache under the engine.
    fn replicated_lines() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let mut lines = Vec::new();
        for i in 0..4 {
            let valve = b
                .static_event(&format!("valve{i}"), 1e-3 * (i as f64 + 1.0))
                .unwrap();
            let pump = b
                .dynamic_event(
                    &format!("pump{i}"),
                    erlang::repairable(1, 1e-3, 0.05).unwrap(),
                )
                .unwrap();
            lines.push(b.and(&format!("line{i}"), [valve, pump]).unwrap());
        }
        let top = b.or("plant", lines).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    /// Independent trains under an OR root, each the AND of two
    /// three-way ORs over its own events (one dynamic): nine cutsets per
    /// train, and one separable component per train.
    fn parallel_trains(trains: usize) -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let mut tops = Vec::new();
        for t in 0..trains {
            let mut sides = Vec::new();
            for side in 0..2 {
                let mut events = Vec::new();
                for i in 0..3 {
                    let name = format!("t{t}s{side}e{i}");
                    events.push(if side == 0 && i == 0 {
                        b.dynamic_event(&name, erlang::repairable(1, 1e-3, 0.05).unwrap())
                            .unwrap()
                    } else {
                        b.static_event(&name, 1e-3 * (1 + t + i) as f64).unwrap()
                    });
                }
                sides.push(b.or(&format!("t{t}s{side}"), events).unwrap());
            }
            tops.push(b.and(&format!("train{t}"), sides).unwrap());
        }
        let top = b.or("plant", tops).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    /// Top OR over `[a1, b1, a2, b2]`: `a1`/`a2` share the event `sa`,
    /// `b1`/`b2` share `sb`, and the `a` and `b` lines are disjoint — two
    /// separable components whose inputs interleave.
    pub(super) fn interleaved_components() -> FaultTree {
        lines(true, true)
    }

    /// The `a` lines, the `b` lines or both of
    /// [`interleaved_components`], under one OR top.
    fn lines(a_lines: bool, b_lines: bool) -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let sa = a_lines.then(|| b.static_event("sa", 0.05).unwrap());
        let sb = b_lines.then(|| b.static_event("sb", 0.04).unwrap());
        let mut inputs = Vec::new();
        for i in 1..=2 {
            if let Some(sa) = sa {
                let xa = b
                    .dynamic_event(
                        &format!("xa{i}"),
                        erlang::repairable(1, 1e-3, 0.05).unwrap(),
                    )
                    .unwrap();
                let ya = b.static_event(&format!("ya{i}"), 0.02).unwrap();
                let pick_a = b.or(&format!("pa{i}"), [xa, ya]).unwrap();
                inputs.push(b.and(&format!("a{i}"), [sa, pick_a]).unwrap());
            }
            if let Some(sb) = sb {
                let xb = b.static_event(&format!("xb{i}"), 0.03).unwrap();
                let yb = b.static_event(&format!("yb{i}"), 0.06).unwrap();
                let pick_b = b.or(&format!("pb{i}"), [xb, yb]).unwrap();
                inputs.push(b.or(&format!("b{i}"), [sb, pick_b]).unwrap());
            }
        }
        let top = b.or("top", inputs).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    /// The candidates batch MOCUS finds on `FT̄`.
    fn mocus_candidates(tree: &FaultTree, options: &AnalysisOptions) -> u64 {
        let probs = worst_case_probabilities(tree, options.horizon, options.epsilon).unwrap();
        let translated = translate(tree, &probs).unwrap();
        let static_probs = EventProbabilities::from_static(&translated.tree).unwrap();
        let (_, stats) =
            sdft_mocus::minimal_cutsets_with_stats(&translated.tree, &static_probs, &options.mocus)
                .unwrap();
        stats.cutset_candidates
    }

    /// The minimal cutsets of `FT̄` straight from the batch MOCUS
    /// enumerator, mapped back to the original tree, in canonical
    /// order — the reference the engine must reproduce.
    fn mocus_reference(tree: &FaultTree, options: &AnalysisOptions) -> Vec<Cutset> {
        let probs = worst_case_probabilities(tree, options.horizon, options.epsilon).unwrap();
        let translated = translate(tree, &probs).unwrap();
        let static_probs = EventProbabilities::from_static(&translated.tree).unwrap();
        let (mcs, _) =
            sdft_mocus::minimal_cutsets_with_stats(&translated.tree, &static_probs, &options.mocus)
                .unwrap();
        let mut list: Vec<Cutset> = translated.cutsets_to_original(&mcs).into_iter().collect();
        list.sort();
        list
    }

    /// Bitwise compare two runs of the same analysis.
    fn assert_same_results(reference: &[AnalysisResult], run: &[AnalysisResult], label: &str) {
        assert_eq!(reference.len(), run.len(), "{label}");
        for (a, b) in reference.iter().zip(run) {
            assert_eq!(a.frequency.to_bits(), b.frequency.to_bits(), "{label}");
            assert_eq!(a.static_rea.to_bits(), b.static_rea.to_bits(), "{label}");
            assert_eq!(a.cutsets.len(), b.cutsets.len(), "{label}");
            for (ra, rb) in a.cutsets.iter().zip(&b.cutsets) {
                assert_eq!(ra.cutset.events(), rb.cutset.events(), "{label}");
                assert_eq!(
                    ra.probability.to_bits(),
                    rb.probability.to_bits(),
                    "{label}"
                );
                assert_eq!(
                    ra.static_probability.to_bits(),
                    rb.static_probability.to_bits(),
                    "{label}"
                );
                assert_eq!(ra.chain_states, rb.chain_states, "{label}");
            }
            assert_eq!(a.stats, b.stats, "{label}");
        }
    }

    #[test]
    fn thread_counts_agree_bitwise_with_the_mocus_reference() {
        for tree in [example3(), replicated_lines(), parallel_trains(6)] {
            let base = AnalysisOptions::new(96.0);
            let reference = analyze_horizons(&tree, &base, &[24.0, 96.0]).unwrap();
            let mut listed: Vec<Cutset> = reference[0]
                .cutsets
                .iter()
                .map(|r| r.cutset.clone())
                .collect();
            listed.sort();
            assert_eq!(listed, mocus_reference(&tree, &base));
            for threads in [1, 2, 4, 8] {
                let mut opts = base;
                opts.threads = threads;
                let run = analyze_horizons(&tree, &opts, &[24.0, 96.0]).unwrap();
                let [filter] = run[0].stats.filter_shard_stats[..] else {
                    panic!("one counter entry");
                };
                assert_eq!(
                    filter.offered - filter.rejects,
                    run[0].stats.num_cutsets as u64
                );
                assert_same_results(&reference, &run, &format!("threads = {threads}"));
            }
        }
    }

    #[test]
    fn streaming_keeps_pending_residency_below_the_cutset_count() {
        // Twenty-four trains are twenty-four components, each released
        // the moment it completes, so MOCUS's buffer never holds the
        // whole list.
        let tree = parallel_trains(24);
        let mut peaks = Vec::new();
        for threads in [1, 2, 4] {
            let mut opts = AnalysisOptions::new(24.0);
            opts.threads = threads;
            let streamed = analyze(&tree, &opts).unwrap();
            assert_eq!(streamed.stats.num_cutsets, 24 * 9);
            assert!(streamed.stats.peak_pending_cutsets > 0);
            assert!(
                streamed.stats.peak_pending_cutsets < streamed.stats.num_cutsets,
                "threads = {threads}: peak pending {} of {} cutsets",
                streamed.stats.peak_pending_cutsets,
                streamed.stats.num_cutsets
            );
            peaks.push(streamed.stats.peak_pending_cutsets);
        }
        // MOCUS runs on the calling thread, so its peak does not depend
        // on the worker count.
        assert!(peaks.windows(2).all(|w| w[0] == w[1]), "peaks {peaks:?}");
    }

    #[test]
    fn pending_residency_is_one_component_at_a_time() {
        // The two components' inputs interleave under the top OR, but
        // each is expanded and released before the next starts, so MOCUS
        // never holds more than the larger one's candidates. Each
        // component's candidates are counted on a tree that holds it
        // alone.
        let tree = interleaved_components();
        let base = AnalysisOptions::new(24.0);
        let components =
            [lines(true, false), lines(false, true)].map(|t| mocus_candidates(&t, &base));
        assert!(components.iter().all(|&n| n > 0), "{components:?}");
        let larger = components.iter().copied().max().unwrap() as usize;
        let mut peaks = Vec::new();
        for threads in [1, 2, 4] {
            let mut opts = base;
            opts.threads = threads;
            let run = analyze(&tree, &opts).unwrap();
            assert_eq!(
                run.stats.filter_shard_stats[0].offered,
                components.iter().sum::<u64>()
            );
            assert!(
                run.stats.peak_pending_cutsets <= larger,
                "threads = {threads}: peak pending {} above the larger component's {larger}",
                run.stats.peak_pending_cutsets
            );
            peaks.push(run.stats.peak_pending_cutsets);
        }
        assert!(peaks.windows(2).all(|w| w[0] == w[1]), "peaks {peaks:?}");
    }

    #[test]
    fn generation_budget_errors_propagate() {
        let t = example3();
        for threads in [1, 4] {
            let mut opts = AnalysisOptions::new(24.0);
            opts.threads = threads;
            opts.mocus.max_cutsets = 2;
            assert!(matches!(
                analyze(&t, &opts),
                Err(CoreError::Mocus(sdft_mocus::MocusError::TooManyCutsets {
                    limit: 2
                }))
            ));
            let mut opts = AnalysisOptions::new(24.0);
            opts.threads = threads;
            opts.mocus.max_partials = 1;
            assert!(matches!(
                analyze(&t, &opts),
                Err(CoreError::Mocus(sdft_mocus::MocusError::TooManyPartials {
                    limit: 1
                }))
            ));
        }
    }

    #[test]
    fn quantification_errors_abort_the_pipeline() {
        // With four threads the generator may be blocked handing
        // cutsets to four busy workers when the abort lands; returning
        // at all proves every stage unblocked and joined, and the error
        // kind proves it came from quantification.
        for tree in [example3(), parallel_trains(6)] {
            for threads in [1, 4] {
                let mut opts = AnalysisOptions::new(24.0);
                opts.threads = threads;
                opts.max_chain_states = 1;
                let error = analyze(&tree, &opts).unwrap_err();
                assert!(
                    matches!(error, CoreError::Product(_)),
                    "threads = {threads}: expected a product chain error, got: {error}"
                );
            }
        }
    }
}

#[cfg(test)]
mod bdd_backend_tests {
    use super::*;
    use crate::planner::{BackendChoice, PlanReason};
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

    fn example3() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b
            .dynamic_event("b", erlang::repairable(1, 1e-3, 0.05).unwrap())
            .unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    #[test]
    fn bdd_backend_matches_mocus_bitwise() {
        let t = example3();
        let mut mocus_opts = AnalysisOptions::new(96.0);
        mocus_opts.threads = 1;
        let reference = analyze_horizons(&t, &mocus_opts, &[24.0, 96.0]).unwrap();
        for threads in [1, 4] {
            let mut opts = AnalysisOptions::new(96.0);
            opts.backend = Backend::Bdd;
            opts.threads = threads;
            let bdd = analyze_horizons(&t, &opts, &[24.0, 96.0]).unwrap();
            for (m, b) in reference.iter().zip(&bdd) {
                assert_eq!(m.frequency.to_bits(), b.frequency.to_bits());
                assert_eq!(m.static_rea.to_bits(), b.static_rea.to_bits());
                assert_eq!(m.cutsets.len(), b.cutsets.len());
                for (rm, rb) in m.cutsets.iter().zip(&b.cutsets) {
                    assert_eq!(rm.cutset.events(), rb.cutset.events());
                    assert_eq!(rm.probability.to_bits(), rb.probability.to_bits());
                }
                assert!(m.exact_static.is_none());
                assert!(b.exact_static.is_some());
            }
        }
    }

    #[test]
    fn bdd_exact_probability_is_deterministic_across_threads() {
        let t = example3();
        let mut exacts: Vec<u64> = Vec::new();
        for threads in [1, 2, 4] {
            let mut opts = AnalysisOptions::new(24.0);
            opts.backend = Backend::Bdd;
            opts.threads = threads;
            let result = analyze(&t, &opts).unwrap();
            exacts.push(result.exact_static.unwrap().to_bits());
        }
        assert!(
            exacts.windows(2).all(|w| w[0] == w[1]),
            "exacts: {exacts:?}"
        );
    }

    #[test]
    fn bdd_exact_probability_bounds_the_rea() {
        // The REA sums cutset probabilities, over-counting intersections:
        // for a coherent tree it can only exceed the exact probability.
        let t = example3();
        let mut opts = AnalysisOptions::new(24.0);
        opts.backend = Backend::Bdd;
        let result = analyze(&t, &opts).unwrap();
        let exact = result.exact_static.unwrap();
        assert!(exact > 0.0);
        assert!(exact <= result.static_rea);
        // Every single cutset's static probability is a lower bound.
        for report in &result.cutsets {
            assert!(report.static_probability <= exact + 1e-18);
        }
    }

    #[test]
    fn bdd_backend_reports_construction_stats() {
        let t = example3();
        let mut opts = AnalysisOptions::new(24.0);
        opts.backend = Backend::Bdd;
        let result = analyze(&t, &opts).unwrap();
        let stats = &result.stats;
        assert_eq!(stats.backend, Backend::Bdd);
        assert!(stats.bdd_modules >= 1);
        assert_eq!(stats.bdd_per_module_nodes.len(), stats.bdd_modules);
        assert_eq!(
            stats.bdd_per_module_nodes.iter().sum::<usize>(),
            stats.bdd_total_nodes
        );
        assert_eq!(
            stats.bdd_per_module_nodes.iter().copied().max().unwrap(),
            stats.bdd_max_module_nodes
        );
        assert!(stats.bdd_apply_misses > 0, "construction must apply");
        // `bdd` is the hybrid composition with every module forced onto
        // a diagram: the plan covers every module, all built and exact.
        assert_eq!(result.module_plan.len(), stats.bdd_modules);
        assert!(result
            .module_plan
            .iter()
            .all(|e| e.choice == BackendChoice::Bdd && e.exact && e.nodes > 0));
        assert_eq!(stats.bdd_external_modules, 0);
        assert_eq!(stats.bdd_exact_modules, stats.bdd_modules);

        let mocus = analyze(&t, &AnalysisOptions::new(24.0)).unwrap();
        assert_eq!(mocus.stats.backend, Backend::Mocus);
        assert_eq!(mocus.stats.bdd_modules, 0);
        assert_eq!(mocus.stats.bdd_total_nodes, 0);
        assert!(mocus.module_plan.is_empty());
    }

    #[test]
    fn bdd_node_budget_is_an_error_not_a_replan() {
        // Eight nodes fit pump1 and then starve `pumps`: the hybrid
        // re-plans that module to MOCUS, the forced plan of `bdd` fails.
        let t = example3();
        let mut opts = AnalysisOptions::new(24.0);
        opts.bdd.max_nodes = 8;
        opts.backend = Backend::Hybrid;
        let hybrid = analyze(&t, &opts).unwrap();
        assert!(hybrid
            .module_plan
            .iter()
            .any(|e| matches!(e.reason, PlanReason::BudgetExhausted { .. })));
        opts.backend = Backend::Bdd;
        assert!(matches!(
            analyze(&t, &opts),
            Err(CoreError::Bdd(sdft_bdd::BddError::NodeBudget { .. }))
        ));
    }

    #[test]
    fn bdd_backend_honors_the_cutoff_like_mocus() {
        let t = example3();
        let mut opts = AnalysisOptions::new(24.0);
        opts.mocus = MocusOptions::with_cutoff(5e-6); // drops {e} at 3e-6
        let mocus = analyze(&t, &opts).unwrap();
        opts.backend = Backend::Bdd;
        let bdd = analyze(&t, &opts).unwrap();
        assert_eq!(mocus.stats.num_cutsets, bdd.stats.num_cutsets);
        assert_eq!(mocus.frequency.to_bits(), bdd.frequency.to_bits());
        // The exact probability is computed on the full diagram, before
        // the post-filter — the cutoff does not perturb it at all.
        let mut full_opts = AnalysisOptions::new(24.0);
        full_opts.backend = Backend::Bdd;
        let full = analyze(&t, &full_opts).unwrap();
        assert_eq!(
            bdd.exact_static.unwrap().to_bits(),
            full.exact_static.unwrap().to_bits()
        );
        assert!(full.stats.num_cutsets > bdd.stats.num_cutsets);
    }
}

#[cfg(test)]
mod hybrid_backend_tests {
    use super::*;
    use crate::planner::{BackendChoice, PlanReason};
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

    fn example3() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b
            .dynamic_event("b", erlang::repairable(1, 1e-3, 0.05).unwrap())
            .unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    /// Hybrid must match MOCUS bitwise whatever the plan ends up being:
    /// everything built (huge budget), everything external (tiny
    /// budget), and the mixed middle.
    #[test]
    fn hybrid_matches_mocus_bitwise_for_every_plan_split() {
        let t = example3();
        let mut mocus_opts = AnalysisOptions::new(96.0);
        mocus_opts.threads = 1;
        let reference = analyze_horizons(&t, &mocus_opts, &[24.0, 96.0]).unwrap();
        for max_nodes in [usize::MAX, 60, 2] {
            for threads in [1, 4] {
                let mut opts = AnalysisOptions::new(96.0);
                opts.backend = Backend::Hybrid;
                opts.bdd.max_nodes = max_nodes;
                opts.threads = threads;
                let hybrid = analyze_horizons(&t, &opts, &[24.0, 96.0]).unwrap();
                for (m, h) in reference.iter().zip(&hybrid) {
                    assert_eq!(m.frequency.to_bits(), h.frequency.to_bits());
                    assert_eq!(m.static_rea.to_bits(), h.static_rea.to_bits());
                    assert_eq!(m.cutsets.len(), h.cutsets.len());
                    for (rm, rh) in m.cutsets.iter().zip(&h.cutsets) {
                        assert_eq!(rm.cutset.events(), rh.cutset.events());
                        assert_eq!(rm.probability.to_bits(), rh.probability.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn forced_mocus_plans_report_their_module_runs() {
        // A two-node budget puts every module on MOCUS. The top module's
        // run finds `{sb}` once per `b` line, so it rejects a duplicate
        // and probes subsets.
        let t = super::streaming_tests::interleaved_components();
        let mut runs = Vec::new();
        for threads in [1, 2, 4] {
            let mut opts = AnalysisOptions::new(24.0);
            opts.backend = Backend::Hybrid;
            opts.bdd.max_nodes = 2;
            opts.threads = threads;
            let run = analyze(&t, &opts).unwrap();
            assert!(run
                .module_plan
                .iter()
                .all(|e| e.choice == BackendChoice::Mocus));
            let stats = &run.stats;
            let [filter] = stats.filter_shard_stats[..] else {
                panic!("one counter entry");
            };
            assert!(stats.mocus_peak_live_partials > 0);
            assert!(stats.mocus_peak_partial_bytes > 0);
            assert!(stats.peak_pending_cutsets > 0);
            assert!(filter.offered > 0 && filter.probes > 0 && filter.rejects > 0);
            // Every module run's candidates are its cutsets or rejects.
            let module_cutsets: usize = run.module_plan.iter().map(|e| e.candidates).sum();
            assert_eq!(filter.offered - filter.rejects, module_cutsets as u64);
            runs.push(run.stats);
        }
        assert!(runs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn hybrid_plan_reflects_the_budget() {
        let t = example3();

        // Roomy budget: every module fits, all exact, exact_static on.
        let mut opts = AnalysisOptions::new(24.0);
        opts.backend = Backend::Hybrid;
        let all_built = analyze(&t, &opts).unwrap();
        assert_eq!(all_built.stats.backend, Backend::Hybrid);
        assert!(!all_built.module_plan.is_empty());
        assert_eq!(all_built.module_plan.len(), all_built.stats.bdd_modules);
        assert!(all_built
            .module_plan
            .iter()
            .all(|e| e.choice == BackendChoice::Bdd
                && e.reason == PlanReason::EstimateFits
                && e.exact
                && e.nodes > 0
                && e.candidates == 0));
        assert_eq!(all_built.stats.bdd_external_modules, 0);
        assert_eq!(
            all_built.stats.bdd_exact_modules,
            all_built.stats.bdd_modules
        );
        // A fully built hybrid matches the pure BDD backend bitwise,
        // including the exact probability.
        let mut bdd_opts = AnalysisOptions::new(24.0);
        bdd_opts.backend = Backend::Bdd;
        let pure = analyze(&t, &bdd_opts).unwrap();
        assert_eq!(
            all_built.exact_static.unwrap().to_bits(),
            pure.exact_static.unwrap().to_bits()
        );

        // No budget: every module goes straight to MOCUS; no exactness.
        let mut tiny = AnalysisOptions::new(24.0);
        tiny.backend = Backend::Hybrid;
        tiny.bdd.max_nodes = 2;
        let all_external = analyze(&t, &tiny).unwrap();
        assert!(all_external
            .module_plan
            .iter()
            .all(|e| e.choice == BackendChoice::Mocus
                && e.reason == PlanReason::EstimateExceedsBudget
                && !e.exact
                && e.nodes == 0));
        assert_eq!(
            all_external.stats.bdd_external_modules,
            all_external.stats.bdd_modules
        );
        assert_eq!(all_external.stats.bdd_exact_modules, 0);
        assert!(all_external.exact_static.is_none());
        assert_eq!(all_external.stats.bdd_total_nodes, 0);

        // Middle budget: some modules built, some enumerated. Eight
        // nodes admit pump1 (estimate 3, actual 5) and then starve the
        // rest, exercising both MOCUS routes — pumps is admitted by its
        // estimate but hits the runtime budget and is re-planned, while
        // cooling's estimate no longer fits at draft time.
        let mut mid = AnalysisOptions::new(24.0);
        mid.backend = Backend::Hybrid;
        mid.bdd.max_nodes = 8;
        let mixed = analyze(&t, &mid).unwrap();
        assert!(mixed.stats.bdd_external_modules > 0);
        assert!(mixed.stats.bdd_external_modules < mixed.stats.bdd_modules);
        assert!(mixed.stats.bdd_exact_modules > 0);
        // Every external module lists its enumerated candidates.
        for e in &mixed.module_plan {
            match e.choice {
                BackendChoice::Bdd => assert!(e.nodes > 0),
                BackendChoice::Mocus => assert!(e.candidates > 0),
            }
            assert!(e.probability.is_some());
            assert!(e.score.upper_bound > 0.0 && e.score.upper_bound <= 1.0);
        }
    }

    /// Sifting on/off must not change any delivered result bitwise
    /// (the antichain is filter-determined; only diagram internals
    /// differ), and the exact probability may move only within float
    /// re-association noise.
    #[test]
    fn hybrid_sift_toggle_is_result_invariant() {
        let t = example3();
        let mut on = AnalysisOptions::new(24.0);
        on.backend = Backend::Hybrid;
        on.bdd.sift.trigger = 4; // force constant sifting
        let mut off = AnalysisOptions::new(24.0);
        off.backend = Backend::Hybrid;
        off.bdd.sift.enabled = false;
        let a = analyze(&t, &on).unwrap();
        let b = analyze(&t, &off).unwrap();
        assert_eq!(a.frequency.to_bits(), b.frequency.to_bits());
        assert_eq!(a.cutsets.len(), b.cutsets.len());
        for (ra, rb) in a.cutsets.iter().zip(&b.cutsets) {
            assert_eq!(ra.cutset.events(), rb.cutset.events());
            assert_eq!(ra.probability.to_bits(), rb.probability.to_bits());
        }
        let (ea, eb) = (a.exact_static.unwrap(), b.exact_static.unwrap());
        assert!((ea - eb).abs() <= 1e-12 * ea.abs().max(1e-300));
        assert_eq!(b.stats.bdd_sift_passes, 0);
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

    #[test]
    fn csv_export_has_a_row_per_cutset() {
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 1e-3).unwrap();
        let y = b
            .dynamic_event("y", erlang::repairable(1, 1e-3, 0.05).unwrap())
            .unwrap();
        let g = b.and("g", [x, y]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let result = analyze(&t, &AnalysisOptions::new(24.0)).unwrap();
        let mut buffer = Vec::new();
        result.write_csv(&t, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + result.stats.num_cutsets);
        assert!(lines[0].starts_with("cutset,probability"));
        assert!(lines[1].starts_with("x y,"));
        assert_eq!(lines[1].split(',').count(), 9);

        // Found in review: names may contain commas; the cutset field
        // must be quoted so columns stay aligned.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("valve,stuck", 1e-3).unwrap();
        let g = b.and("g", [x]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let result = analyze(&t, &AnalysisOptions::new(24.0)).unwrap();
        let mut buffer = Vec::new();
        result.write_csv(&t, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let row = text.lines().nth(1).unwrap();
        assert!(row.starts_with("\"valve,stuck\","), "row: {row}");
    }
}
