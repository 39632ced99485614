//! The N-way differential engine matrix and its tolerances.
//!
//! For every generated tree the harness runs the paper's cutset
//! pipeline and cross-checks it against whichever referees apply:
//!
//! * **product chain** (small trees) — the exact SD semantics. The
//!   rare-event approximation must satisfy the Bonferroni sandwich
//!   `exact ≤ freq` and, for trees without triggered events (where the
//!   per-cutset models are exact marginals and components independent),
//!   `freq ≤ exact + Σ_{i<j} ∏_{e∈Ci∪Cj} wc(e)`.
//! * **simulation** (larger trees) — a statistical referee with a
//!   Bonferroni-adjusted Wilson interval (`z` covers the many intervals
//!   a whole oracle run consults).
//! * **BDD** — on the worst-case-translated static tree `FT̄`, MOCUS
//!   and the BDD must produce the *identical* minimal cutset list, the
//!   cutoff run must match the exhaustive list filtered at the cutoff,
//!   and the pipeline's `static_rea` must sandwich the BDD's exact
//!   probability of `FT̄`.
//! * **metamorphic invariants** (see [`crate::metamorphic`]).
//!
//! Every failed comparison becomes a [`Disagreement`] with a stable
//! check name; the shrinker minimizes a spec while preserving *that*
//! check's failure.

use crate::reference::failure_probability;
use crate::spec::TreeSpec;
use sdft_bdd::Bdd;
use sdft_core::{
    analyze, quantify_cutset, translate, worst_case_probabilities, AnalysisOptions, AnalysisResult,
    Backend, BackendChoice, CoreError, FtcContext,
};
use sdft_ft::{Behavior, Cutset, EventProbabilities, FaultTree};
use sdft_mocus::MocusOptions;
use sdft_product::ProductOptions;
use sdft_sim::{simulate, SimOptions};

/// Tolerances and budgets for one tree's worth of checks.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckConfig {
    /// Mission horizon `t`.
    pub horizon: f64,
    /// Transient-analysis truncation error.
    pub epsilon: f64,
    /// Relative tolerance for checks that should agree exactly up to
    /// floating-point noise.
    pub tol_exact: f64,
    /// Relative tolerance for checks crossing independent numerical
    /// paths (translation, monotone perturbations).
    pub tol_cross: f64,
    /// Product-chain state budget; trees whose estimated product
    /// exceeds it fall back to the simulation referee.
    pub max_product_states: usize,
    /// Simulation samples (`0` disables the statistical referee).
    pub sim_samples: usize,
    /// Wilson-score `z` for the simulation interval. The default `4.1`
    /// is Bonferroni-adjusted for ≈ 2000 intervals at a 5% family-wise
    /// error rate.
    pub sim_z: f64,
    /// Simulation seed (set per tree by the driver).
    pub sim_seed: u64,
    /// Run the metamorphic suite.
    pub metamorphic: bool,
    /// Re-quantify every cutset of the base analysis alone, without the
    /// quantification cache and in a fresh solver workspace, and require
    /// bitwise-identical probabilities.
    pub check_cache_consistency: bool,
    /// Re-run the base analysis with another worker count (1 ↔ 4) and
    /// require bitwise-identical frequencies and identical cutset lists,
    /// both equal to the batch MOCUS enumeration of `FT̄`.
    pub check_streaming_consistency: bool,
    /// Re-run the base analysis with the modular-BDD backend and require
    /// bitwise-identical frequencies and cutset lists, a sound exact
    /// static probability, and bitwise agreement between the BDD
    /// backend's own runs at two worker counts.
    pub check_backend_consistency: bool,
    /// Re-run the base analysis with the hybrid planner backend and
    /// require bitwise-identical frequencies and cutset lists, for
    /// whatever per-module MOCUS/BDD split `hybrid_max_nodes` forces.
    pub check_hybrid_consistency: bool,
    /// Node budget handed to the hybrid planner (the driver cycles it
    /// per tree so the campaign covers all-built, mixed, and
    /// all-external plans).
    pub hybrid_max_nodes: usize,
    /// Enable dynamic variable reordering in the BDD-based backends
    /// (the driver cycles it per tree; sifting must be invisible in
    /// every delivered result).
    pub sift: bool,
    /// Engine threads: the quantification workers (`run_oracle` cycles
    /// it per tree so the campaign covers several worker counts).
    pub threads: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            horizon: 12.0,
            epsilon: 1e-12,
            tol_exact: 1e-12,
            tol_cross: 1e-9,
            max_product_states: 50_000,
            sim_samples: 20_000,
            sim_z: 4.1,
            sim_seed: 0x0_5EED,
            metamorphic: true,
            check_cache_consistency: true,
            check_streaming_consistency: true,
            check_backend_consistency: true,
            check_hybrid_consistency: true,
            hybrid_max_nodes: 20_000_000,
            sift: true,
            threads: 1,
        }
    }
}

/// One failed cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct Disagreement {
    /// Stable name of the check that failed (shrinking preserves it).
    pub check: String,
    /// Human-readable evidence.
    pub details: String,
}

/// Tally of one tree's (or one whole run's) checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Checks that ran and agreed.
    pub passed: usize,
    /// Checks skipped (budget exceeded, not applicable).
    pub skipped: usize,
    /// Checks that failed.
    pub disagreements: Vec<Disagreement>,
}

impl Outcome {
    pub(crate) fn pass(&mut self) {
        self.passed += 1;
    }

    pub(crate) fn skip(&mut self) {
        self.skipped += 1;
    }

    pub(crate) fn fail(&mut self, check: &str, details: String) {
        self.disagreements.push(Disagreement {
            check: check.to_owned(),
            details,
        });
    }

    pub(crate) fn check(&mut self, ok: bool, name: &str, details: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(name, details());
        }
    }

    /// Fold another outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.passed += other.passed;
        self.skipped += other.skipped;
        self.disagreements.extend(other.disagreements);
    }
}

/// `|a − b| ≤ rel · max(|a|, |b|)` with a tiny absolute floor.
#[must_use]
pub fn close_rel(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + 1e-300
}

/// `a ≤ b` up to relative slack plus a small absolute term covering
/// accumulated transient-analysis truncation error.
#[must_use]
pub fn leq_slack(a: f64, b: f64, rel: f64) -> bool {
    a <= b + rel * a.abs().max(b.abs()) + 1e-9
}

/// The other worker count of the `*stream_bitwise` arms: 1 ↔ 4.
fn flipped_threads(threads: usize) -> usize {
    if threads == 1 {
        4
    } else {
        1
    }
}

/// The pipeline options every oracle analysis uses: exhaustive MOCUS
/// (no cutoff — metamorphic rewrites must not shift borderline
/// cutsets), and `cfg.threads` quantification threads (results are
/// thread-count-invariant).
#[must_use]
pub fn analysis_options(cfg: &CheckConfig) -> AnalysisOptions {
    let mut opts = AnalysisOptions::new(cfg.horizon);
    opts.mocus = MocusOptions::exhaustive();
    opts.threads = cfg.threads;
    opts.epsilon = cfg.epsilon;
    opts.bdd.sift.enabled = cfg.sift;
    // An aggressively low trigger so the campaign's small trees
    // actually exercise the reordering machinery when sifting is on.
    opts.bdd.sift.trigger = 8;
    opts
}

/// The first cutset whose cached probability differs from quantifying it
/// alone with [`quantify_cutset`] (uncached, fresh workspace), or whose
/// uncached quantification fails; `None` when every cutset agrees bit
/// for bit.
fn uncached_mismatch(
    tree: &FaultTree,
    opts: &AnalysisOptions,
    base: &AnalysisResult,
) -> Option<String> {
    let ctx = match FtcContext::new(tree) {
        Ok(ctx) => ctx,
        Err(e) => return Some(format!("FT_C context failed: {e}")),
    };
    let qopts = opts.quantify_options(opts.horizon);
    base.cutsets.iter().find_map(|report| {
        let alone = quantify_cutset(tree, &ctx, &report.cutset, &qopts);
        if alone.as_ref().is_ok_and(|q| {
            q.probability.to_bits() == report.probability.to_bits()
                && q.chain_states == report.chain_states
        }) {
            return None;
        }
        let names: Vec<&str> = report
            .cutset
            .events()
            .iter()
            .map(|&e| tree.name(e))
            .collect();
        Some(match alone {
            Ok(q) => format!(
                "cutset {names:?}: cached {} ({} states), alone {} ({} states)",
                report.probability, report.chain_states, q.probability, q.chain_states
            ),
            Err(e) => format!("cutset {names:?}: uncached quantification failed: {e}"),
        })
    })
}

/// Upper bound on the product chain's state count: the product of the
/// per-component chain sizes (statics contribute a frozen 2-state
/// chain).
#[must_use]
pub fn product_size_estimate(tree: &FaultTree) -> f64 {
    let mut size = 1.0_f64;
    for event in tree.basic_events() {
        size *= match tree.behavior(event).expect("basic event") {
            Behavior::Static { .. } => 2.0,
            Behavior::Dynamic(c) => c.len() as f64,
            Behavior::Triggered(c) => c.len() as f64,
        };
    }
    size
}

/// Whether the tree contains triggered events (whose per-cutset models
/// are conservative over-approximations, voiding the two-sided
/// Bonferroni sandwich).
fn has_triggers(tree: &FaultTree) -> bool {
    tree.basic_events()
        .any(|e| tree.trigger_source(e).is_some())
}

/// `Σ_{i<j} ∏_{e ∈ Ci ∪ Cj} wc(e)` over the reported cutsets — the
/// Bonferroni pair term bounding how far the rare-event sum may exceed
/// the exact union probability. Falls back to the coarser
/// `Σ_{i<j} √(p̃i·p̃j)` bound above `cap` cutsets.
fn pair_bound(result: &AnalysisResult, wc: &EventProbabilities, cap: usize) -> f64 {
    let cutsets = &result.cutsets;
    if cutsets.len() > cap {
        let sqrt_sum: f64 = cutsets
            .iter()
            .map(|c| c.static_probability.max(0.0).sqrt())
            .sum();
        let sq_sum: f64 = cutsets.iter().map(|c| c.static_probability.max(0.0)).sum();
        return 0.5 * (sqrt_sum * sqrt_sum - sq_sum).max(0.0);
    }
    let mut bound = 0.0;
    for i in 0..cutsets.len() {
        for j in i + 1..cutsets.len() {
            let (a, b) = (cutsets[i].cutset.events(), cutsets[j].cutset.events());
            // Product over the merged union of the two sorted id lists.
            let (mut x, mut y, mut p) = (0, 0, 1.0_f64);
            while x < a.len() || y < b.len() {
                let e = if y >= b.len() || (x < a.len() && a[x] <= b[y]) {
                    let e = a[x];
                    if y < b.len() && b[y] == e {
                        y += 1;
                    }
                    x += 1;
                    e
                } else {
                    let e = b[y];
                    y += 1;
                    e
                };
                p *= wc.get(e);
            }
            bound += p;
        }
    }
    bound
}

/// Wilson score interval with an explicit `z`.
fn wilson(failures: usize, samples: usize, z: f64) -> (f64, f64) {
    if samples == 0 {
        return (0.0, 1.0);
    }
    let n = samples as f64;
    let p = failures as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Run the full engine matrix (and, if enabled, the metamorphic suite)
/// on a spec, including the spec-level monotone perturbations.
#[must_use]
pub fn check_spec(spec: &TreeSpec, cfg: &CheckConfig) -> Outcome {
    let mut out = Outcome::default();
    let tree = match spec.build() {
        Ok(tree) => tree,
        Err(e) => {
            out.fail("spec_build", format!("spec does not build: {e}"));
            return out;
        }
    };
    check_tree_into(&tree, Some(spec), cfg, &mut out);
    out
}

/// Run the engine matrix on an already-built tree (corpus replay path;
/// spec-level perturbations are skipped).
#[must_use]
pub fn check_tree(tree: &FaultTree, cfg: &CheckConfig) -> Outcome {
    let mut out = Outcome::default();
    check_tree_into(tree, None, cfg, &mut out);
    out
}

pub(crate) fn check_tree_into(
    tree: &FaultTree,
    spec: Option<&TreeSpec>,
    cfg: &CheckConfig,
    out: &mut Outcome,
) {
    let opts = analysis_options(cfg);
    let base = match analyze(tree, &opts) {
        Ok(base) => base,
        Err(e) => {
            out.fail("pipeline", format!("pipeline failed: {e}"));
            return;
        }
    };

    // Internal invariants of the result itself.
    out.check(
        base.frequency.is_finite() && base.frequency >= 0.0,
        "frequency_finite",
        || format!("frequency = {}", base.frequency),
    );
    out.check(
        leq_slack(base.frequency, base.static_rea, cfg.tol_cross),
        "frequency_le_static_rea",
        || {
            format!(
                "frequency {} exceeds static REA {}",
                base.frequency, base.static_rea
            )
        },
    );
    out.check(
        base.cutsets
            .iter()
            .all(|c| c.probability >= 0.0 && c.probability <= 1.0 + 1e-9),
        "cutset_probabilities_in_range",
        || {
            format!(
                "out-of-range cutset probability among {:?}",
                base.cutsets
                    .iter()
                    .map(|c| c.probability)
                    .collect::<Vec<_>>()
            )
        },
    );

    if cfg.check_cache_consistency {
        match uncached_mismatch(tree, &opts, &base) {
            None => out.pass(),
            Some(details) => out.fail("cache_bitwise", details),
        }
    }

    if cfg.check_streaming_consistency {
        // A run at another worker count must agree with the base run
        // bitwise, down to the cutset list and per-cutset probabilities,
        // and the list must equal the batch MOCUS enumeration — a
        // reference outside the engine.
        let mut flipped = opts;
        flipped.threads = flipped_threads(opts.threads);
        let reference = mocus_reference(tree, &opts);
        match analyze(tree, &flipped) {
            Ok(second) => out.check(
                second.frequency.to_bits() == base.frequency.to_bits()
                    && second.static_rea.to_bits() == base.static_rea.to_bits()
                    && second.cutsets.len() == base.cutsets.len()
                    && second.cutsets.iter().zip(&base.cutsets).all(|(s, b)| {
                        s.cutset == b.cutset
                            && s.probability.to_bits() == b.probability.to_bits()
                            && s.chain_states == b.chain_states
                    })
                    && reference
                        .as_ref()
                        .is_ok_and(|list| *list == sorted_cutsets(&base)),
                "stream_bitwise",
                || {
                    format!(
                        "worker counts disagree: base(threads={}) freq {} rea {} ({} cutsets); \
                         flipped freq {} rea {} ({} cutsets); batch MOCUS reference {}",
                        opts.threads,
                        base.frequency,
                        base.static_rea,
                        base.cutsets.len(),
                        second.frequency,
                        second.static_rea,
                        second.cutsets.len(),
                        match &reference {
                            Ok(list) => format!("{} cutsets", list.len()),
                            Err(e) => format!("failed: {e}"),
                        },
                    )
                },
            ),
            Err(e) => out.fail(
                "stream_bitwise",
                format!("other-worker-count analysis failed: {e}"),
            ),
        }
    }

    if cfg.check_backend_consistency {
        check_backend_bdd(tree, &base, &opts, cfg, out);
    }

    if cfg.check_hybrid_consistency {
        check_backend_hybrid(tree, &base, &opts, cfg, out);
    }

    let wc = match worst_case_probabilities(tree, cfg.horizon, cfg.epsilon) {
        Ok(wc) => wc,
        Err(e) => {
            out.fail(
                "worst_case",
                format!("worst-case probabilities failed: {e}"),
            );
            return;
        }
    };
    let pairs = pair_bound(&base, &wc, 400);
    let triggered = has_triggers(tree);

    // --- Exact referee: the product Markov chain. -------------------
    let product_budget = ProductOptions {
        max_states: cfg.max_product_states,
    };
    let mut product_checked = false;
    if product_size_estimate(tree) <= cfg.max_product_states as f64 {
        match failure_probability(tree, cfg.horizon, &product_budget) {
            Ok(exact) => {
                product_checked = true;
                out.check(
                    leq_slack(exact, base.frequency, cfg.tol_cross),
                    "product_soundness",
                    || {
                        format!(
                            "exact product probability {exact} exceeds pipeline frequency {}",
                            base.frequency
                        )
                    },
                );
                if triggered {
                    out.skip(); // two-sided sandwich needs exact marginals
                } else {
                    out.check(
                        leq_slack(base.frequency, exact + pairs, cfg.tol_cross),
                        "product_sandwich",
                        || {
                            format!(
                                "pipeline frequency {} exceeds exact {exact} + pair bound {pairs}",
                                base.frequency
                            )
                        },
                    );
                }
            }
            Err(sdft_product::ProductError::TooManyStates { .. }) => out.skip(),
            Err(e) => out.fail("product_error", format!("product chain failed: {e}")),
        }
    } else {
        out.skip();
    }

    // --- Statistical referee: Monte-Carlo simulation. ---------------
    if !product_checked && cfg.sim_samples > 0 {
        let sim_opts = SimOptions {
            samples: cfg.sim_samples,
            horizon: cfg.horizon,
            seed: cfg.sim_seed,
        };
        match simulate(tree, &sim_opts) {
            Ok(r) => {
                let (lo, hi) = wilson(r.failures, r.samples, cfg.sim_z);
                out.check(
                    leq_slack(lo, base.frequency, cfg.tol_cross),
                    "sim_soundness",
                    || {
                        format!(
                            "simulation lower bound {lo} ({}/{} failures, z = {}) exceeds \
                             pipeline frequency {}",
                            r.failures, r.samples, cfg.sim_z, base.frequency
                        )
                    },
                );
                if triggered {
                    out.skip();
                } else {
                    out.check(
                        leq_slack(base.frequency, hi + pairs, cfg.tol_cross),
                        "sim_sandwich",
                        || {
                            format!(
                                "pipeline frequency {} exceeds simulation upper bound {hi} \
                                 ({}/{} failures, z = {}) + pair bound {pairs}",
                                base.frequency, r.failures, r.samples, cfg.sim_z
                            )
                        },
                    );
                }
            }
            Err(e) => out.fail("sim_error", format!("simulation failed: {e}")),
        }
    } else if !product_checked {
        out.skip();
    }

    // --- Structural referee: MOCUS vs BDD on FT̄. --------------------
    check_translated_static(tree, &base, cfg, out);

    // --- Fully static trees: exact enumeration. ---------------------
    if tree.is_static() {
        out.check(
            close_rel(base.frequency, base.static_rea, cfg.tol_exact),
            "static_frequency_is_rea",
            || {
                format!(
                    "static tree: frequency {} ≠ static REA {}",
                    base.frequency, base.static_rea
                )
            },
        );
    }

    if cfg.metamorphic {
        crate::metamorphic::metamorphic_checks(tree, spec, &base, cfg, out);
    }
}

/// The minimal cutsets of `FT̄` from the batch MOCUS enumerator, mapped
/// back to the original tree, sorted.
fn mocus_reference(tree: &FaultTree, opts: &AnalysisOptions) -> Result<Vec<Cutset>, CoreError> {
    let wc = worst_case_probabilities(tree, opts.horizon, opts.epsilon)?;
    let translated = translate(tree, &wc)?;
    let probs = EventProbabilities::from_static(&translated.tree)?;
    let (mcs, _) = sdft_mocus::minimal_cutsets_with_stats(&translated.tree, &probs, &opts.mocus)?;
    let mut list: Vec<Cutset> = translated.cutsets_to_original(&mcs).into_iter().collect();
    list.sort();
    Ok(list)
}

/// A result's cutsets, sorted.
fn sorted_cutsets(result: &AnalysisResult) -> Vec<Cutset> {
    let mut list: Vec<Cutset> = result.cutsets.iter().map(|r| r.cutset.clone()).collect();
    list.sort();
    list
}

/// The full pipeline under `--backend bdd` against the MOCUS base run:
/// bitwise-identical frequencies and cutset lists (same quantification
/// over the same canonical list), a sound exact static probability
/// (above every single cutset, below the REA sum), and bitwise
/// agreement between the BDD backend's own runs at two worker counts.
/// Trees whose diagram exceeds the node budget skip the arm.
fn check_backend_bdd(
    tree: &FaultTree,
    base: &AnalysisResult,
    opts: &AnalysisOptions,
    cfg: &CheckConfig,
    out: &mut Outcome,
) {
    let mut bdd_opts = *opts;
    bdd_opts.backend = Backend::Bdd;
    let second = match analyze(tree, &bdd_opts) {
        Ok(second) => second,
        Err(CoreError::Bdd(_)) => {
            out.skip(); // node budget exceeded — no BDD backend for this tree
            return;
        }
        Err(e) => {
            out.fail("backend_bitwise", format!("--backend bdd failed: {e}"));
            return;
        }
    };
    out.check(
        second.frequency.to_bits() == base.frequency.to_bits()
            && second.static_rea.to_bits() == base.static_rea.to_bits()
            && second.cutsets.len() == base.cutsets.len()
            && second.cutsets.iter().zip(&base.cutsets).all(|(s, b)| {
                s.cutset == b.cutset
                    && s.probability.to_bits() == b.probability.to_bits()
                    && s.chain_states == b.chain_states
            }),
        "backend_bitwise",
        || {
            format!(
                "backends disagree: mocus freq {} rea {} ({} cutsets); \
                 bdd freq {} rea {} ({} cutsets)",
                base.frequency,
                base.static_rea,
                base.cutsets.len(),
                second.frequency,
                second.static_rea,
                second.cutsets.len(),
            )
        },
    );
    match second.exact_static {
        Some(exact) => {
            out.check(
                exact.is_finite() && (0.0..=1.0 + 1e-9).contains(&exact),
                "backend_exact_in_range",
                || format!("exact static probability {exact} out of [0, 1]"),
            );
            out.check(
                leq_slack(exact, second.static_rea, cfg.tol_cross),
                "backend_exact_le_rea",
                || {
                    format!(
                        "exact static probability {exact} exceeds static REA {}",
                        second.static_rea
                    )
                },
            );
            let max_cutset = second
                .cutsets
                .iter()
                .map(|c| c.static_probability)
                .fold(0.0_f64, f64::max);
            out.check(
                leq_slack(max_cutset, exact, cfg.tol_cross),
                "backend_exact_ge_max_cutset",
                || {
                    format!(
                        "largest cutset probability {max_cutset} exceeds \
                         exact static probability {exact}"
                    )
                },
            );
        }
        None => out.fail(
            "backend_exact_in_range",
            "--backend bdd reported no exact static probability".to_owned(),
        ),
    }
    // The BDD backend must agree with itself across worker counts,
    // down to the exact probability's bits (construction is
    // deterministic).
    let mut flipped = bdd_opts;
    flipped.threads = flipped_threads(bdd_opts.threads);
    match analyze(tree, &flipped) {
        Ok(third) => out.check(
            third.frequency.to_bits() == second.frequency.to_bits()
                && third.exact_static.map(f64::to_bits) == second.exact_static.map(f64::to_bits)
                && third.cutsets.len() == second.cutsets.len(),
            "backend_stream_bitwise",
            || {
                format!(
                    "bdd worker counts disagree: threads={} freq {} exact {:?}; \
                     flipped freq {} exact {:?}",
                    bdd_opts.threads,
                    second.frequency,
                    second.exact_static,
                    third.frequency,
                    third.exact_static,
                )
            },
        ),
        Err(e) => out.fail(
            "backend_stream_bitwise",
            format!("other-worker-count --backend bdd analysis failed: {e}"),
        ),
    }
}

/// The full pipeline under `--backend hybrid` against the MOCUS base
/// run: whatever per-module split the node budget forces, the delivered
/// frequencies and cutset lists must be bitwise-identical to MOCUS, the
/// plan must cover every module, a fully built plan must report an
/// exact static probability and a plan with external modules must not,
/// and the hybrid backend must agree with itself across two worker
/// counts.
fn check_backend_hybrid(
    tree: &FaultTree,
    base: &AnalysisResult,
    opts: &AnalysisOptions,
    cfg: &CheckConfig,
    out: &mut Outcome,
) {
    let mut hybrid_opts = *opts;
    hybrid_opts.backend = Backend::Hybrid;
    hybrid_opts.bdd.max_nodes = cfg.hybrid_max_nodes;
    let second = match analyze(tree, &hybrid_opts) {
        Ok(second) => second,
        Err(e) => {
            out.fail("hybrid_bitwise", format!("--backend hybrid failed: {e}"));
            return;
        }
    };
    out.check(
        second.frequency.to_bits() == base.frequency.to_bits()
            && second.static_rea.to_bits() == base.static_rea.to_bits()
            && second.cutsets.len() == base.cutsets.len()
            && second.cutsets.iter().zip(&base.cutsets).all(|(s, b)| {
                s.cutset == b.cutset
                    && s.probability.to_bits() == b.probability.to_bits()
                    && s.chain_states == b.chain_states
            }),
        "hybrid_bitwise",
        || {
            format!(
                "backends disagree: mocus freq {} rea {} ({} cutsets); \
                 hybrid freq {} rea {} ({} cutsets) with budget {}",
                base.frequency,
                base.static_rea,
                base.cutsets.len(),
                second.frequency,
                second.static_rea,
                second.cutsets.len(),
                cfg.hybrid_max_nodes,
            )
        },
    );
    let external = second
        .module_plan
        .iter()
        .filter(|e| e.choice == BackendChoice::Mocus)
        .count();
    out.check(
        second.module_plan.len() == second.stats.bdd_modules
            && external == second.stats.bdd_external_modules,
        "hybrid_plan_covers_modules",
        || {
            format!(
                "plan has {} entries ({} external) but stats report {} modules \
                 ({} external)",
                second.module_plan.len(),
                external,
                second.stats.bdd_modules,
                second.stats.bdd_external_modules,
            )
        },
    );
    out.check(
        second.exact_static.is_some() == (external == 0),
        "hybrid_exact_iff_fully_built",
        || {
            format!(
                "{} external modules but exact static probability is {:?}",
                external, second.exact_static
            )
        },
    );
    if let Some(exact) = second.exact_static {
        out.check(
            exact.is_finite()
                && (0.0..=1.0 + 1e-9).contains(&exact)
                && leq_slack(exact, second.static_rea, cfg.tol_cross),
            "hybrid_exact_sound",
            || {
                format!(
                    "exact static probability {exact} out of [0, REA {}]",
                    second.static_rea
                )
            },
        );
    }
    let mut flipped = hybrid_opts;
    flipped.threads = flipped_threads(hybrid_opts.threads);
    match analyze(tree, &flipped) {
        Ok(third) => out.check(
            third.frequency.to_bits() == second.frequency.to_bits()
                && third.exact_static.map(f64::to_bits) == second.exact_static.map(f64::to_bits)
                && third.cutsets.len() == second.cutsets.len(),
            "hybrid_stream_bitwise",
            || {
                format!(
                    "hybrid worker counts disagree: threads={} freq {} exact {:?}; \
                     flipped freq {} exact {:?}",
                    hybrid_opts.threads,
                    second.frequency,
                    second.exact_static,
                    third.frequency,
                    third.exact_static,
                )
            },
        ),
        Err(e) => out.fail(
            "hybrid_stream_bitwise",
            format!("other-worker-count --backend hybrid analysis failed: {e}"),
        ),
    }
}

/// MOCUS vs BDD on the worst-case translated static tree `FT̄`: the
/// minimal cutset lists must be identical, the cutoff run must match
/// the filtered exhaustive list, and the pipeline's `static_rea` must
/// sandwich the BDD's exact probability.
fn check_translated_static(
    tree: &FaultTree,
    base: &AnalysisResult,
    cfg: &CheckConfig,
    out: &mut Outcome,
) {
    let wc = match worst_case_probabilities(tree, cfg.horizon, cfg.epsilon) {
        Ok(wc) => wc,
        Err(e) => {
            out.fail(
                "worst_case",
                format!("worst-case probabilities failed: {e}"),
            );
            return;
        }
    };
    let translated = match translate(tree, &wc) {
        Ok(t) => t,
        Err(e) => {
            out.fail(
                "translate",
                format!("trigger-to-AND translation failed: {e}"),
            );
            return;
        }
    };
    let ft_bar = &translated.tree;
    let probs = match EventProbabilities::from_static(ft_bar) {
        Ok(p) => p,
        Err(e) => {
            out.fail("translate", format!("FT̄ is not static: {e}"));
            return;
        }
    };
    let mocus_list = match sdft_mocus::minimal_cutsets(ft_bar, &probs, &MocusOptions::exhaustive())
    {
        Ok(l) => l,
        Err(e) => {
            out.fail("mocus_on_translated", format!("MOCUS failed on FT̄: {e}"));
            return;
        }
    };
    let mut bdd = match Bdd::new(ft_bar) {
        Ok(b) => b,
        Err(e) => {
            out.skip();
            let _ = e; // node budget exceeded — no BDD referee for this tree
            return;
        }
    };
    let bdd_list = match bdd.minimal_cutsets() {
        Ok(l) => l,
        Err(_) => {
            out.skip();
            return;
        }
    };
    let normalize = |list: &sdft_ft::CutsetList| -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = list
            .iter()
            .map(|c| {
                let mut ids: Vec<usize> = c.events().iter().map(|e| e.index()).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        v.sort();
        v
    };
    let m = normalize(&mocus_list);
    let d = normalize(&bdd_list);
    out.check(m == d, "mocus_vs_bdd_cutsets", || {
        format!(
            "MOCUS found {} minimal cutsets on FT̄, BDD found {}; MOCUS-only: {:?}, BDD-only: {:?}",
            m.len(),
            d.len(),
            m.iter().filter(|c| !d.contains(c)).collect::<Vec<_>>(),
            d.iter().filter(|c| !m.contains(c)).collect::<Vec<_>>(),
        )
    });

    // Cutoff consistency: running MOCUS with a cutoff must keep exactly
    // the cutsets above it (up to fp noise at the boundary).
    let max_prob = mocus_list
        .iter()
        .map(|c| c.probability_with(|e| probs.get(e)))
        .fold(0.0_f64, f64::max);
    if max_prob > 0.0 {
        let cutoff = max_prob / 64.0;
        match sdft_mocus::minimal_cutsets(ft_bar, &probs, &MocusOptions::with_cutoff(cutoff)) {
            Ok(cut_list) => {
                let cut = normalize(&cut_list);
                let mut missing = Vec::new();
                for c in mocus_list.iter() {
                    let p = c.probability_with(|e| probs.get(e));
                    let ids: Vec<usize> = c.events().iter().map(|e| e.index()).collect();
                    if p > cutoff * (1.0 + 1e-9) && !cut.contains(&ids) {
                        missing.push((ids, p));
                    }
                }
                let spurious: Vec<&Vec<usize>> = cut.iter().filter(|c| !m.contains(c)).collect();
                out.check(
                    missing.is_empty() && spurious.is_empty(),
                    "mocus_cutoff_consistency",
                    || format!("cutoff {cutoff}: lost cutsets {missing:?}, spurious {spurious:?}"),
                );
            }
            Err(e) => out.fail(
                "mocus_cutoff_consistency",
                format!("cutoff MOCUS failed on FT̄: {e}"),
            ),
        }
    }

    // static_rea vs the exact probability of FT̄ (all-static, so the
    // two-sided Bonferroni sandwich always applies).
    let exact = bdd.top_probability(&probs);
    let pairs = {
        let mut bound = 0.0;
        let lists: Vec<&sdft_ft::Cutset> = mocus_list.iter().collect();
        if lists.len() <= 400 {
            for i in 0..lists.len() {
                for j in i + 1..lists.len() {
                    let mut ids: Vec<usize> = lists[i]
                        .events()
                        .iter()
                        .chain(lists[j].events())
                        .map(|e| e.index())
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    bound += ids
                        .iter()
                        .map(|&i| probs.get(sdft_ft::NodeId::from_index(i)))
                        .product::<f64>();
                }
            }
            bound
        } else {
            f64::INFINITY
        }
    };
    out.check(
        leq_slack(exact, base.static_rea, cfg.tol_cross),
        "static_rea_soundness",
        || {
            format!(
                "BDD exact probability of FT̄ {exact} exceeds static REA {}",
                base.static_rea
            )
        },
    );
    if pairs.is_finite() {
        out.check(
            leq_slack(base.static_rea, exact + pairs, cfg.tol_cross),
            "static_rea_sandwich",
            || {
                format!(
                    "static REA {} exceeds BDD exact {exact} + pair bound {pairs}",
                    base.static_rea
                )
            },
        );
    } else {
        out.skip();
    }

    // Exact enumeration referee for small static inputs.
    if tree.is_static() && tree.num_basic_events() <= 20 {
        match tree.exact_static_probability() {
            Ok(enumerated) => out.check(
                close_rel(enumerated, exact, 1e-10),
                "bdd_vs_enumeration",
                || format!("BDD says {exact}, exhaustive enumeration says {enumerated}"),
            ),
            Err(e) => out.fail("bdd_vs_enumeration", format!("enumeration failed: {e}")),
        }
    }
}
