#![warn(missing_docs)]

//! Experiment harness reproducing every table and figure of §VI of
//! Krčál & Krčál (DSN 2015).
//!
//! Each experiment has a runner returning structured rows; the `repro`
//! binary prints them as tables (timing lives in the seeded benchmark
//! under `benchmark/`). Experiments on the industrial models accept a
//! scale factor (1.0 = the paper's model sizes; smaller scales shrink the
//! generated models proportionally for quick runs).

use sdft_core::{analyze, AnalysisOptions, Backend, FtcContext, QuantifyOptions};
use sdft_ft::{Cutset, EventProbabilities, FaultTreeBuilder};
use sdft_importance::fussell_vesely_ranking;
use sdft_mocus::{minimal_cutsets, minimal_cutsets_with_stats, MocusOptions};
use sdft_models::annotate::{annotate, AnnotationConfig};
use sdft_models::{bwr, industrial};
use std::time::{Duration, Instant};

/// One row of the §VI-A table (T1): a model setting with its failure
/// frequency and analysis time.
#[derive(Debug, Clone)]
pub struct T1Row {
    /// Human-readable setting ("no timing", "repair rate 1/100h", ...).
    pub setting: String,
    /// Core damage frequency (rare-event approximation).
    pub frequency: f64,
    /// Analysis wall-clock time (`None` for the static row).
    pub time: Option<Duration>,
    /// Cutsets above the cutoff.
    pub cutsets: usize,
    /// Cutsets needing dynamic analysis.
    pub dynamic_cutsets: usize,
    /// Average dynamic events per dynamic cutset's Markov model.
    pub avg_model_dynamic: f64,
    /// Distinct cutset-model equivalence classes (uniformization passes).
    pub distinct_model_classes: usize,
    /// Fraction of cutset quantifications answered by the model cache.
    pub cache_hit_rate: f64,
    /// DTMC steps the uniformization kernel took.
    pub kernel_steps: u64,
    /// DTMC steps saved by the kernel's steady-state detection.
    pub kernel_steps_saved: u64,
}

/// T1 (§VI-A): the BWR study. The static baseline, repairs at increasing
/// rates, then the six triggers added cumulatively (paper order:
/// FEED&BLEED, RHR, EFW, ECC, SWS, CCW).
///
/// # Panics
///
/// Panics if the model fails to analyze (a bug, not an input condition).
#[must_use]
pub fn t1(horizon: f64) -> Vec<T1Row> {
    let mut rows = Vec::new();

    // Static baseline.
    let tree = bwr::build(&bwr::BwrConfig::static_model());
    let probs = EventProbabilities::from_static(&tree).expect("static model");
    let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::default()).expect("mocus");
    rows.push(T1Row {
        setting: "no timing".to_owned(),
        frequency: mcs.rare_event_approximation(|e| probs.get(e)),
        time: None,
        cutsets: mcs.len(),
        dynamic_cutsets: 0,
        avg_model_dynamic: 0.0,
        distinct_model_classes: 0,
        cache_hit_rate: 0.0,
        kernel_steps: 0,
        kernel_steps_saved: 0,
    });

    let mut run = |setting: &str, config: &bwr::BwrConfig| {
        let tree = bwr::build(config);
        let begin = Instant::now();
        let result = analyze(&tree, &AnalysisOptions::new(horizon)).expect("analysis");
        rows.push(T1Row {
            setting: setting.to_owned(),
            frequency: result.frequency,
            time: Some(begin.elapsed()),
            cutsets: result.stats.num_cutsets,
            dynamic_cutsets: result.stats.num_dynamic_cutsets,
            avg_model_dynamic: result.stats.avg_model_dynamic(),
            distinct_model_classes: result.stats.distinct_model_classes,
            cache_hit_rate: result.stats.cache_hit_rate(),
            kernel_steps: result.stats.kernel_steps,
            kernel_steps_saved: result.stats.kernel_steps_saved,
        });
    };

    run(
        "no repairs, no triggers",
        &bwr::BwrConfig::repairs_only(0.0, 1),
    );
    run(
        "repair rate 1/1000h",
        &bwr::BwrConfig::repairs_only(1e-3, 1),
    );
    run("repair rate 1/100h", &bwr::BwrConfig::repairs_only(1e-2, 1));
    run("repair rate 1/10h", &bwr::BwrConfig::repairs_only(1e-1, 1));
    let labels = [
        "+FEED&BLEED trigger",
        "+RHR trigger",
        "+EFW trigger",
        "+ECC trigger",
        "+SWS trigger",
        "+CCW trigger",
    ];
    for (i, label) in labels.iter().enumerate() {
        let config = bwr::BwrConfig {
            triggers: bwr::Triggers::first(i + 1),
            ..bwr::BwrConfig::repairs_only(1e-2, 1)
        };
        run(label, &config);
    }
    rows
}

/// One row of the §VI-B model table (T2).
#[derive(Debug, Clone)]
pub struct ModelSummary {
    /// Model name.
    pub name: String,
    /// Basic events.
    pub basic_events: usize,
    /// Gates.
    pub gates: usize,
    /// Minimal cutsets above the cutoff.
    pub cutsets: usize,
    /// MCS generation time.
    pub generation_time: Duration,
    /// Static rare-event approximation.
    pub rea: f64,
    /// Partial cutsets MOCUS processed.
    pub partials: u64,
    /// Partials processed per second of generation time.
    pub partials_per_sec: f64,
    /// Subset tests the minimization pass performed.
    pub subsumption_comparisons: u64,
}

/// T2 (§VI-B): the two industrial models' sizes and MCS generation times.
///
/// # Panics
///
/// Panics if generation or MOCUS fails.
#[must_use]
pub fn t2(scale: f64) -> Vec<ModelSummary> {
    [
        ("model 1", industrial::model1()),
        ("model 2", industrial::model2()),
    ]
    .into_iter()
    .map(|(name, config)| {
        let tree = industrial::generate(&config.scaled(scale));
        let probs = EventProbabilities::from_static(&tree).expect("static model");
        let begin = Instant::now();
        let (mcs, stats) =
            minimal_cutsets_with_stats(&tree, &probs, &MocusOptions::default()).expect("mocus");
        let generation_time = begin.elapsed();
        ModelSummary {
            name: name.to_owned(),
            basic_events: tree.num_basic_events(),
            gates: tree.num_gates(),
            cutsets: mcs.len(),
            generation_time,
            rea: mcs.rare_event_approximation(|e| probs.get(e)),
            partials: stats.partials_processed,
            partials_per_sec: stats.partials_processed as f64
                / generation_time.as_secs_f64().max(f64::MIN_POSITIVE),
            subsumption_comparisons: stats.subsumption_comparisons,
        }
    })
    .collect()
}

/// One row of the §VI-B dynamic-fraction table (T3), also carrying the
/// histogram behind Figure 2.
#[derive(Debug, Clone)]
pub struct T3Row {
    /// Percentage of basic events modeled dynamically.
    pub percent_dynamic: f64,
    /// Percentage of basic events in triggering chains.
    pub percent_triggered: f64,
    /// Failure frequency.
    pub frequency: f64,
    /// Analysis time (translation + MCS generation + quantification).
    pub time: Duration,
    /// Cutsets above the cutoff.
    pub cutsets: usize,
    /// Cutsets needing dynamic analysis.
    pub dynamic_cutsets: usize,
    /// Histogram: index = dynamic events per cutset model, value = count
    /// (one chart of Figure 2).
    pub histogram: Vec<usize>,
    /// Distinct cutset-model equivalence classes (uniformization passes).
    pub distinct_model_classes: usize,
    /// Fraction of cutset quantifications answered by the model cache.
    pub cache_hit_rate: f64,
}

/// T3 + F2 (§VI-B): model 1 with an increasing fraction of dynamic
/// events (chosen by Fussell–Vesely importance, triggering chains among
/// equal-importance events).
///
/// # Panics
///
/// Panics if generation, annotation or analysis fails.
#[must_use]
pub fn t3(scale: f64, percents: &[f64], horizon: f64) -> Vec<T3Row> {
    let tree = industrial::generate(&industrial::model1().scaled(scale));
    let probs = EventProbabilities::from_static(&tree).expect("static model");
    let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::default()).expect("mocus");
    let ranking = fussell_vesely_ranking(&mcs, &probs, tree.basic_events());

    percents
        .iter()
        .map(|&pct| {
            if pct == 0.0 {
                return T3Row {
                    percent_dynamic: 0.0,
                    percent_triggered: 0.0,
                    frequency: mcs.rare_event_approximation(|e| probs.get(e)),
                    time: Duration::ZERO,
                    cutsets: mcs.len(),
                    dynamic_cutsets: 0,
                    histogram: vec![mcs.len()],
                    distinct_model_classes: 0,
                    cache_hit_rate: 0.0,
                };
            }
            let annotated = annotate(&tree, &ranking, &AnnotationConfig::percent_dynamic(pct))
                .expect("annotation");
            let begin = Instant::now();
            let result =
                analyze(&annotated.tree, &AnalysisOptions::new(horizon)).expect("analysis");
            T3Row {
                percent_dynamic: pct,
                percent_triggered: pct / 10.0,
                frequency: result.frequency,
                time: begin.elapsed(),
                cutsets: result.stats.num_cutsets,
                dynamic_cutsets: result.stats.num_dynamic_cutsets,
                histogram: result.stats.histogram_model_dynamic.clone(),
                distinct_model_classes: result.stats.distinct_model_classes,
                cache_hit_rate: result.stats.cache_hit_rate(),
            }
        })
        .collect()
}

/// One point of Figure 3: the time to analyze one cutset's Markov model
/// as a function of its dynamic event count and the phases per event.
#[derive(Debug, Clone, Copy)]
pub struct F3Point {
    /// Dynamic events in the cutset.
    pub dynamic_events: usize,
    /// Erlang phases per event.
    pub phases: usize,
    /// Product chain states.
    pub chain_states: usize,
    /// Quantification time.
    pub time: Duration,
}

/// F3: per-cutset quantification time over synthetic cutsets of `1..=d`
/// dynamic events with `k ∈ phases` Erlang phases each. The chain size is
/// exponential in the event count with base `k+1`, which is the paper's
/// headline scaling observation.
///
/// # Panics
///
/// Panics if the synthetic model fails to build or quantify.
#[must_use]
pub fn f3(max_events: usize, phases: &[usize], horizon: f64) -> Vec<F3Point> {
    let mut points = Vec::new();
    for &k in phases {
        for d in 1..=max_events {
            let mut b = FaultTreeBuilder::new();
            let events: Vec<_> = (0..d)
                .map(|i| {
                    let chain = sdft_ctmc::erlang::repairable(k, 1e-3 + i as f64 * 1e-4, 0.01)
                        .expect("chain");
                    b.dynamic_event(&format!("d{i}"), chain).expect("event")
                })
                .collect();
            let top = b.and("top", events.clone()).expect("gate");
            b.top(top);
            let tree = b.build().expect("tree");
            let ctx = FtcContext::new(&tree).expect("context");
            let cutset = Cutset::new(events);
            let opts = QuantifyOptions::new(horizon);
            // Warm up once, then measure.
            let _ = sdft_core::quantify_cutset(&tree, &ctx, &cutset, &opts).expect("quantify");
            let begin = Instant::now();
            let q = sdft_core::quantify_cutset(&tree, &ctx, &cutset, &opts).expect("quantify");
            points.push(F3Point {
                dynamic_events: d,
                phases: k,
                chain_states: q.chain_states,
                time: begin.elapsed(),
            });
        }
    }
    points
}

/// One row of the phases table (T4).
#[derive(Debug, Clone)]
pub struct T4Row {
    /// Model name.
    pub model: String,
    /// Erlang phases per dynamic event.
    pub phases: usize,
    /// Failure frequency.
    pub frequency: f64,
    /// Analysis time.
    pub time: Duration,
}

/// T4 (§VI-B): analysis time as the number of phases per dynamic basic
/// event grows, for both industrial models (fully dynamic annotation).
///
/// # Panics
///
/// Panics if generation, annotation or analysis fails.
#[must_use]
pub fn t4(scale: f64, phases: &[usize], horizon: f64) -> Vec<T4Row> {
    let mut rows = Vec::new();
    for (name, config) in [
        ("model 1", industrial::model1()),
        ("model 2", industrial::model2()),
    ] {
        let tree = industrial::generate(&config.scaled(scale));
        let probs = EventProbabilities::from_static(&tree).expect("static model");
        let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::default()).expect("mocus");
        let ranking = fussell_vesely_ranking(&mcs, &probs, tree.basic_events());
        for &k in phases {
            let mut cfg = AnnotationConfig::percent_dynamic(100.0);
            cfg.phases = k;
            let annotated = annotate(&tree, &ranking, &cfg).expect("annotation");
            let begin = Instant::now();
            let result =
                analyze(&annotated.tree, &AnalysisOptions::new(horizon)).expect("analysis");
            rows.push(T4Row {
                model: name.to_owned(),
                phases: k,
                frequency: result.frequency,
                time: begin.elapsed(),
            });
        }
    }
    rows
}

/// One row of the horizon table (T5).
#[derive(Debug, Clone)]
pub struct T5Row {
    /// Analysis horizon in hours.
    pub horizon: f64,
    /// Failure frequency.
    pub frequency: f64,
    /// Analysis time.
    pub time: Duration,
    /// Cutsets above the cutoff at this horizon (the list grows with the
    /// horizon because worst-case probabilities grow).
    pub cutsets: usize,
    /// DTMC steps the uniformization kernel took.
    pub kernel_steps: u64,
    /// DTMC steps saved by the kernel's steady-state detection.
    pub kernel_steps_saved: u64,
}

/// T5 (§VI-B): failure frequency and analysis time over growing horizons
/// (24/48/72/96 h) on model 2, fully dynamic.
///
/// # Panics
///
/// Panics if generation, annotation or analysis fails.
#[must_use]
pub fn t5(scale: f64, horizons: &[f64]) -> Vec<T5Row> {
    let tree = industrial::generate(&industrial::model2().scaled(scale));
    let probs = EventProbabilities::from_static(&tree).expect("static model");
    let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::default()).expect("mocus");
    let ranking = fussell_vesely_ranking(&mcs, &probs, tree.basic_events());
    let annotated =
        annotate(&tree, &ranking, &AnnotationConfig::percent_dynamic(100.0)).expect("annotation");
    horizons
        .iter()
        .map(|&h| {
            let begin = Instant::now();
            let result = analyze(&annotated.tree, &AnalysisOptions::new(h)).expect("analysis");
            T5Row {
                horizon: h,
                frequency: result.frequency,
                time: begin.elapsed(),
                cutsets: result.stats.num_cutsets,
                kernel_steps: result.stats.kernel_steps,
                kernel_steps_saved: result.stats.kernel_steps_saved,
            }
        })
        .collect()
}

/// T5 in *re-evaluation* mode: the cutset list is generated once (at the
/// largest horizon) and re-quantified per horizon
/// ([`sdft_core::analyze_horizons`]). This is how the paper's prototype
/// sweeps horizons, and why its analysis time scales roughly linearly:
/// the per-horizon cost is only the transient analyses, whose
/// uniformization step count is linear in `t`.
///
/// # Panics
///
/// Panics if generation, annotation or analysis fails.
#[must_use]
pub fn t5_reevaluate(scale: f64, horizons: &[f64]) -> Vec<T5Row> {
    let tree = industrial::generate(&industrial::model2().scaled(scale));
    let probs = EventProbabilities::from_static(&tree).expect("static model");
    let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::default()).expect("mocus");
    let ranking = fussell_vesely_ranking(&mcs, &probs, tree.basic_events());
    let annotated =
        annotate(&tree, &ranking, &AnnotationConfig::percent_dynamic(100.0)).expect("annotation");
    let max = horizons.iter().copied().fold(0.0f64, f64::max);
    let results =
        sdft_core::analyze_horizons(&annotated.tree, &AnalysisOptions::new(max), horizons)
            .expect("analysis");
    let count = u32::try_from(horizons.len()).unwrap_or(1);
    results
        .into_iter()
        .map(|result| T5Row {
            horizon: result.horizon,
            frequency: result.frequency,
            // One uniformization pass serves every horizon, so the cost
            // is genuinely shared; report the amortized share.
            time: result.timings.quantification / count,
            cutsets: result.stats.num_cutsets,
            kernel_steps: result.stats.kernel_steps,
            kernel_steps_saved: result.stats.kernel_steps_saved,
        })
        .collect()
}

/// One row of the cutoff sensitivity sweep (an extension experiment:
/// classic PSA practice validates that the chosen cutoff does not bias
/// the result).
#[derive(Debug, Clone)]
pub struct CutoffRow {
    /// The cutoff `c*`.
    pub cutoff: f64,
    /// Cutsets above the cutoff.
    pub cutsets: usize,
    /// Time-aware failure frequency.
    pub frequency: f64,
    /// Analysis time.
    pub time: Duration,
    /// Partial cutsets MOCUS processed.
    pub partials: u64,
    /// Partials MOCUS pruned via cutoff / look-ahead.
    pub partials_pruned: u64,
    /// Subset tests the subsumption filter performed.
    pub subsumption_comparisons: u64,
    /// Peak candidates the subsumption filter buffered.
    pub peak_pending_cutsets: usize,
}

/// Cutoff sensitivity on model 1 with 30% dynamic annotation: the
/// frequency must converge as the cutoff tightens, showing the default
/// `10⁻¹⁵` loses nothing that matters.
///
/// # Panics
///
/// Panics if generation, annotation or analysis fails.
#[must_use]
pub fn cutoff_sweep(scale: f64, cutoffs: &[f64], horizon: f64) -> Vec<CutoffRow> {
    let tree = industrial::generate(&industrial::model1().scaled(scale));
    let probs = EventProbabilities::from_static(&tree).expect("static model");
    let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::default()).expect("mocus");
    let ranking = fussell_vesely_ranking(&mcs, &probs, tree.basic_events());
    let annotated =
        annotate(&tree, &ranking, &AnnotationConfig::percent_dynamic(30.0)).expect("annotation");
    cutoffs
        .iter()
        .map(|&cutoff| {
            let mut options = AnalysisOptions::new(horizon);
            options.mocus = MocusOptions::with_cutoff(cutoff);
            let begin = Instant::now();
            let result = analyze(&annotated.tree, &options).expect("analysis");
            CutoffRow {
                cutoff,
                cutsets: result.stats.num_cutsets,
                frequency: result.frequency,
                time: begin.elapsed(),
                partials: result.stats.mocus_partials_processed,
                partials_pruned: result.stats.mocus_partials_pruned,
                subsumption_comparisons: result
                    .stats
                    .filter_shard_stats
                    .iter()
                    .map(|filter| filter.probes)
                    .sum(),
                peak_pending_cutsets: result.stats.peak_pending_cutsets,
            }
        })
        .collect()
}

/// One row of the backend contrast (extension X3): the same analysis
/// once through MOCUS at a cutoff and once through the exact modular
/// BDD backend, with the truncation error the cutoff incurred against
/// the exact static probability.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// The cutoff `c*` applied to both backends' cutset lists.
    pub cutoff: f64,
    /// Cutsets above the cutoff (identical for both backends).
    pub cutsets: usize,
    /// Time-aware failure frequency (bitwise identical across backends).
    pub frequency: f64,
    /// Static REA over the kept cutsets — what the cutoff run reports.
    pub rea: f64,
    /// Exact static probability of `FT̄` from the modular BDD — no
    /// cutoff, no rare-event approximation.
    pub exact: f64,
    /// `|rea − exact|`: truncation *plus* rare-event error at this
    /// cutoff, eliminated entirely by the exact backend.
    pub abs_error: f64,
    /// Whole-analysis wall clock under MOCUS.
    pub mocus_time: Duration,
    /// Whole-analysis wall clock under the BDD backend.
    pub bdd_time: Duration,
    /// Cutset-generation span under MOCUS.
    pub mocus_generation: Duration,
    /// Cutset-generation span (construction + minsol) under the BDD.
    pub bdd_generation: Duration,
    /// Independent modules the BDD backend decomposed `FT̄` into.
    pub bdd_modules: usize,
    /// Total ROBDD nodes across the module diagrams.
    pub bdd_nodes: usize,
}

/// Contrast the MOCUS-at-cutoff pipeline with the exact modular-BDD
/// backend on the X1 fixture (industrial model 1, 30% dynamic): both
/// must report bitwise-identical frequencies over the same cutset
/// list, while only the BDD quotes the exact static probability.
///
/// # Panics
///
/// Panics if generation, annotation or analysis fails, or if the
/// backends disagree on the frequency bits.
#[must_use]
pub fn backend_contrast(scale: f64, cutoffs: &[f64], horizon: f64) -> Vec<BackendRow> {
    let tree = industrial::generate(&industrial::model1().scaled(scale));
    let probs = EventProbabilities::from_static(&tree).expect("static model");
    let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::default()).expect("mocus");
    let ranking = fussell_vesely_ranking(&mcs, &probs, tree.basic_events());
    let annotated =
        annotate(&tree, &ranking, &AnnotationConfig::percent_dynamic(30.0)).expect("annotation");
    cutoffs
        .iter()
        .map(|&cutoff| {
            let mut options = AnalysisOptions::new(horizon);
            options.mocus = MocusOptions::with_cutoff(cutoff);
            let begin = Instant::now();
            let mocus = analyze(&annotated.tree, &options).expect("mocus analysis");
            let mocus_time = begin.elapsed();

            options.backend = Backend::Bdd;
            let begin = Instant::now();
            let bdd = analyze(&annotated.tree, &options).expect("bdd analysis");
            let bdd_time = begin.elapsed();

            assert_eq!(
                mocus.frequency.to_bits(),
                bdd.frequency.to_bits(),
                "backends must agree bitwise at cutoff {cutoff:e}"
            );
            assert_eq!(mocus.stats.num_cutsets, bdd.stats.num_cutsets);
            let exact = bdd.exact_static.expect("bdd backend reports exact");
            BackendRow {
                cutoff,
                cutsets: bdd.stats.num_cutsets,
                frequency: bdd.frequency,
                rea: bdd.static_rea,
                exact,
                abs_error: (bdd.static_rea - exact).abs(),
                mocus_time,
                bdd_time,
                mocus_generation: mocus.timings.generation_busy,
                bdd_generation: bdd.timings.generation_busy,
                bdd_modules: bdd.stats.bdd_modules,
                bdd_nodes: bdd.stats.bdd_total_nodes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn t1_has_the_expected_rows_and_shape() {
        let rows = super::t1(24.0);
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[0].setting, "no timing");
        // The no-repair dynamic row reproduces the static value.
        assert!((rows[1].frequency - rows[0].frequency).abs() / rows[0].frequency < 1e-6);
        // Trigger rows decrease monotonically.
        for pair in rows[5..].windows(2) {
            assert!(pair[1].frequency <= pair[0].frequency * 1.0001);
        }
    }

    #[test]
    fn f3_grows_with_events_and_phases() {
        let points = super::f3(3, &[1, 2], 24.0);
        assert_eq!(points.len(), 6);
        for p in &points {
            assert_eq!(p.chain_states, (p.phases + 1).pow(p.dynamic_events as u32));
        }
    }

    #[test]
    fn cutoff_sweep_converges_monotonically() {
        let rows = super::cutoff_sweep(0.03, &[1e-13, 1e-15, 1e-17], 24.0);
        assert_eq!(rows.len(), 3);
        // Tightening the cutoff adds cutsets and frequency mass
        // (the cutoff is a pure truncation, never a reshuffle)...
        assert!(rows[0].cutsets <= rows[1].cutsets);
        assert!(rows[1].cutsets <= rows[2].cutsets);
        assert!(rows[0].frequency <= rows[1].frequency * (1.0 + 1e-12));
        assert!(rows[1].frequency <= rows[2].frequency * (1.0 + 1e-12));
        // ...and the *relative* increments shrink: the sweep converges,
        // even though our fat-tailed generated model converges slower
        // than a typical PSA study (documented in EXPERIMENTS.md).
        let step1 = rows[1].frequency / rows[0].frequency;
        let step2 = rows[2].frequency / rows[1].frequency;
        assert!(
            step2 < step1,
            "increments must shrink: {step1} then {step2}"
        );
    }

    #[test]
    fn backend_contrast_error_shrinks_with_the_cutoff() {
        let rows = super::backend_contrast(0.03, &[1e-13, 1e-17], 24.0);
        assert_eq!(rows.len(), 2);
        // The exact probability is cutoff-independent; the REA closes in
        // on it (from below via truncation, overshooting via the
        // rare-event sum) as the cutoff tightens.
        assert_eq!(rows[0].exact.to_bits(), rows[1].exact.to_bits());
        assert!(rows[0].cutsets <= rows[1].cutsets);
        for row in &rows {
            assert!(row.exact > 0.0);
            assert!(row.bdd_modules >= 1);
            assert!(row.bdd_nodes > 0);
        }
    }
}

/// One row of the dynamic-uncertainty experiment (extension X2).
#[derive(Debug, Clone, Copy)]
pub struct DynamicUncertainty {
    /// Point estimate with nominal rates.
    pub point: f64,
    /// Mean of the sampled frequencies.
    pub mean: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Number of samples.
    pub samples: usize,
}

/// X2: propagate *rate* uncertainty through the full dynamic analysis of
/// the BWR study — every dynamic event's rates and every static event's
/// probability are scaled by a lognormal factor with the given error
/// factor, and the whole pipeline re-runs per sample (the paper's
/// closing-remark workflow, on the dynamic quantities rather than the
/// static REA).
///
/// # Panics
///
/// Panics if the model fails to build or analyze.
#[must_use]
pub fn x2_dynamic_uncertainty(
    samples: usize,
    error_factor: f64,
    seed: u64,
    horizon: f64,
) -> DynamicUncertainty {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let tree = bwr::build(&bwr::BwrConfig::fully_dynamic(0.01, 1));
    let options = AnalysisOptions::new(horizon);
    let point = analyze(&tree, &options).expect("analysis").frequency;

    let sigma = error_factor.ln() / 1.644_853_626_951_472_6;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frequencies: Vec<f64> = (0..samples)
        .map(|_| {
            // One lognormal factor per basic event, fixed across the
            // sample (Box–Muller on plain `rand`).
            let factors: Vec<f64> = (0..tree.len())
                .map(|_| {
                    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    let u2: f64 = rng.gen();
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    (sigma * z).exp()
                })
                .collect();
            let scaled = sdft_ft::transform::scale_event_rates(&tree, |id| factors[id.index()])
                .expect("scaling");
            analyze(&scaled, &options).expect("analysis").frequency
        })
        .collect();
    frequencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = frequencies.iter().sum::<f64>() / frequencies.len() as f64;
    let pct = |q: f64| frequencies[((frequencies.len() - 1) as f64 * q).round() as usize];
    DynamicUncertainty {
        point,
        mean,
        p05: pct(0.05),
        p50: pct(0.50),
        p95: pct(0.95),
        samples,
    }
}

#[cfg(test)]
mod x2_tests {
    #[test]
    fn dynamic_uncertainty_band_is_ordered_and_right_shifted() {
        let result = super::x2_dynamic_uncertainty(40, 3.0, 0xBEEF, 24.0);
        assert!(result.p05 < result.p50 && result.p50 < result.p95);
        // The classic PSA effect: with median-preserving lognormal
        // parameters, products of factors have mean exp(kσ²/2) > 1, so
        // the sampled frequency distribution sits *above* the nominal
        // point estimate (which can even fall below the 5th percentile).
        assert!(
            result.mean > result.point,
            "{} !> {}",
            result.mean,
            result.point
        );
        assert!(result.point > 0.0 && result.p95 / result.p05 > 2.0);
    }
}
