use crate::canonical::{DynamicSolution, KernelStats, QuantCache};
use crate::error::CoreError;
use crate::ftc::{build_ftc_with, CutsetModel, FtcContext, TriggerTreatment};
use sdft_ctmc::{SolverOptions, SolverWorkspace};
use sdft_ft::{Cutset, FaultTree};
use sdft_product::{ProductChain, ProductOptions};
use std::time::{Duration, Instant};

/// Options for per-cutset quantification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantifyOptions {
    /// The mission horizon `t`.
    pub horizon: f64,
    /// Truncation error of the transient analysis.
    pub epsilon: f64,
    /// State budget for the per-cutset product chain.
    pub max_states: usize,
    /// How much triggering logic the per-cutset models carry
    /// ([`TriggerTreatment::CutsetOnly`] is the fast
    /// under-approximation of the paper's conclusion).
    pub treatment: TriggerTreatment,
    /// Let the uniformization kernel stop stepping once the DTMC
    /// iterates have converged (see [`sdft_ctmc::SolverOptions`]); adds
    /// at most `epsilon` of extra error per horizon when it fires.
    pub steady_state_detection: bool,
}

impl QuantifyOptions {
    /// Options for the given horizon with the default numerical settings.
    #[must_use]
    pub fn new(horizon: f64) -> Self {
        QuantifyOptions {
            horizon,
            epsilon: 1e-12,
            max_states: 2_000_000,
            treatment: TriggerTreatment::Classified,
            steady_state_detection: true,
        }
    }
}

/// The result of quantifying one minimal cutset (§V-C).
#[derive(Debug, Clone, PartialEq)]
pub struct CutsetQuantification {
    /// `p̃(C)` — the probability that all events of the cutset are failed
    /// simultaneously at some point within the horizon.
    pub probability: f64,
    /// `∏ p(a)` over the cutset's static events.
    pub static_factor: f64,
    /// `Pr_FT_C[Reach≤t(F)]` — the dynamic part (1 for static cutsets).
    pub dynamic_factor: f64,
    /// Number of dynamic events in the cutset itself.
    pub cutset_dynamic: usize,
    /// Dynamic events added for triggering logic.
    pub added_dynamic: usize,
    /// Static events added for triggering logic.
    pub added_static: usize,
    /// States of the per-cutset product chain (0 for static cutsets).
    pub chain_states: usize,
    /// Whether any triggering gate needed the general case.
    pub used_general: bool,
    /// Wall-clock actually spent on this horizon's share of the transient
    /// analysis — zero for static cutsets, short-circuits and cache hits.
    pub quantification_time: Duration,
}

/// Quantify one minimal cutset: build `FT_C`, run the transient analysis
/// on its (small) product chain, and multiply by the cutset's static
/// probabilities (§V-C).
///
/// # Errors
///
/// Returns an error if the cutset references gates, the horizon is
/// invalid, or the per-cutset chain exceeds the state budget.
pub fn quantify_cutset(
    tree: &FaultTree,
    ctx: &FtcContext,
    cutset: &Cutset,
    options: &QuantifyOptions,
) -> Result<CutsetQuantification, CoreError> {
    if !options.horizon.is_finite() || options.horizon < 0.0 {
        return Err(CoreError::InvalidHorizon {
            horizon: options.horizon,
        });
    }
    let model = build_ftc_with(tree, ctx, cutset, options.treatment)?;
    let (mut quantified, _) = quantify_model_many_with(
        tree,
        &model,
        &[options.horizon],
        options,
        None,
        &mut SolverWorkspace::new(),
    )?;
    Ok(quantified.pop().expect("one horizon, one result"))
}

/// Solve the dynamics of one model equivalence class: build the product
/// chain and run the shared uniformization pass at every horizon. This is
/// the cacheable unit — everything it computes depends only on the model
/// tree and the numerical parameters, never on node names or on which
/// cutset asked.
fn solve_dynamics(
    ftc: &FaultTree,
    horizons: &[f64],
    options: &QuantifyOptions,
    workspace: &mut SolverWorkspace,
) -> Result<DynamicSolution, CoreError> {
    let begin = Instant::now();
    let chain = ProductChain::build(
        ftc,
        &ProductOptions {
            max_states: options.max_states,
        },
    )?;
    let solver = SolverOptions {
        steady_state_detection: options.steady_state_detection,
    };
    let (factors, stats) =
        chain.failure_probability_many_with(horizons, options.epsilon, &solver, workspace)?;
    let elapsed = begin.elapsed();
    Ok(DynamicSolution {
        per_horizon_cost: attribute_cost(elapsed, &stats.per_horizon_steps),
        factors,
        chain_states: chain.num_states(),
        kernel: KernelStats {
            solves: 1,
            steps_taken: stats.steps_taken as u64,
            steps_saved: stats.steps_saved() as u64,
            steady_state_solves: usize::from(stats.steady_state_step.is_some()),
            spmv_nonzeros: stats.spmv_nonzeros,
        },
        csr_build: stats.csr_build,
        spmv_time: stats.spmv_time,
    })
}

/// Split the measured wall-clock of one shared uniformization pass over
/// the horizons it served, proportionally to each horizon's Poisson
/// truncation depth (the number of weight applications it needs, as
/// reported by the kernel). A `PoissonWeights` construction failure now
/// surfaces as an error from the solve itself instead of being silently
/// flattened to weight `1.0` here, which used to misattribute
/// per-horizon timings.
fn attribute_cost(total: Duration, per_horizon_steps: &[usize]) -> Vec<Duration> {
    let sum: usize = per_horizon_steps.iter().sum();
    if sum == 0 {
        return vec![Duration::ZERO; per_horizon_steps.len()];
    }
    per_horizon_steps
        .iter()
        .map(|&s| total.mul_f64(s as f64 / sum as f64))
        .collect()
}

/// Kernel work a [`quantify_model_many_with`] call actually performed:
/// zero for static models, short-circuits and cache hits, the solve's
/// counters when the call ran a uniformization pass. Summing these over
/// a work list is scheduling-independent because each equivalence class
/// is solved exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelUsage {
    /// Deterministic kernel counters (steps taken/saved, solves).
    pub stats: KernelStats,
    /// Wall-clock spent building CSR forms (not deterministic; kept out
    /// of [`KernelStats`] so those can be compared across runs).
    pub csr_build: Duration,
    /// Wall-clock inside the uniformization stepping loop (SpMV plus
    /// Poisson accumulation) — the denominator of kernel throughput.
    pub spmv_time: Duration,
}

impl KernelUsage {
    /// Accumulate another call's kernel work into this one.
    pub fn absorb(&mut self, other: KernelUsage) {
        self.stats.absorb(other.stats);
        self.csr_build += other.csr_build;
        self.spmv_time += other.spmv_time;
    }
}

/// Quantify a prebuilt cutset model at several horizons, building its
/// product chain once and running a single shared uniformization pass
/// (see [`sdft_ctmc::reach_probability_many`]). Results follow the order
/// of `horizons`; `options.horizon` is ignored in favour of them.
///
/// With a `cache`, each model equivalence class is uniformized exactly
/// once: the first cutset of a class solves it, every later cutset
/// re-labels the shared dynamic factors with its own static factor
/// `∏ p(a)`. Cached and uncached calls produce bitwise-identical
/// probabilities — equal [`crate::CanonicalModelKey`]s imply identical
/// model trees, and product-chain construction plus uniformization are
/// deterministic in them.
///
/// # Errors
///
/// Same as [`quantify_cutset`], plus an error for an empty or invalid
/// horizon list. Errors are cached per class too, so a failing class is
/// attempted once and its error shared.
pub fn quantify_model_many_with(
    tree: &FaultTree,
    model: &CutsetModel,
    horizons: &[f64],
    options: &QuantifyOptions,
    cache: Option<&QuantCache>,
    workspace: &mut SolverWorkspace,
) -> Result<(Vec<CutsetQuantification>, KernelUsage), CoreError> {
    if horizons.is_empty() {
        return Err(crate::CoreError::InvalidHorizon { horizon: f64::NAN });
    }
    let static_factor: f64 = model
        .static_events
        .iter()
        .map(|&e| tree.static_probability(e).expect("static event"))
        .product();
    let make = |dynamic_factor: f64, chain_states: usize, time: Duration| CutsetQuantification {
        probability: static_factor * dynamic_factor,
        static_factor,
        dynamic_factor,
        cutset_dynamic: model.dynamic_events.len(),
        added_dynamic: model.added_dynamic,
        added_static: model.added_static,
        chain_states,
        used_general: model.used_general,
        quantification_time: time,
    };
    let ftc = match &model.tree {
        None => {
            let reports = vec![make(1.0, 0, Duration::ZERO); horizons.len()];
            return Ok((reports, KernelUsage::default()));
        }
        Some(_) if static_factor == 0.0 => {
            // Conditioned out: a zero-probability static event means the
            // cutset cannot occur — skip chain construction entirely.
            let reports = vec![make(0.0, 0, Duration::ZERO); horizons.len()];
            return Ok((reports, KernelUsage::default()));
        }
        Some(ftc) => ftc,
    };
    let mut solve = || solve_dynamics(ftc, horizons, options, workspace);
    let (solution, hit) = match cache.zip(model.canonical_key.as_ref()) {
        Some((cache, stem)) => {
            let key = stem.with_quantification(
                horizons,
                options.epsilon,
                options.max_states,
                options.steady_state_detection,
            );
            let (result, hit) = cache.get_or_solve(key, solve);
            let mut solution = result?;
            if hit {
                // The stored costs describe the original solve; this call
                // only paid a lookup.
                solution.per_horizon_cost = vec![Duration::ZERO; horizons.len()];
            }
            (solution, hit)
        }
        None => (solve()?, false),
    };
    // Kernel work is attributed to the call that solved the class; hits
    // only paid a lookup, so summed usage is one solve per class no
    // matter how work was scheduled.
    let usage = if hit {
        KernelUsage::default()
    } else {
        KernelUsage {
            stats: solution.kernel,
            csr_build: solution.csr_build,
            spmv_time: solution.spmv_time,
        }
    };
    let reports = solution
        .factors
        .iter()
        .zip(&solution.per_horizon_cost)
        .map(|(&factor, &cost)| make(factor, solution.chain_states, cost))
        .collect();
    Ok((reports, usage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftc::FtcContext;
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

    fn cutset_of(tree: &FaultTree, names: &[&str]) -> Cutset {
        Cutset::new(names.iter().map(|n| tree.node_by_name(n).unwrap()))
    }

    #[test]
    fn static_cutset_probability_is_the_product() {
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let q = quantify_cutset(
            &t,
            &ctx,
            &cutset_of(&t, &["a", "c"]),
            &QuantifyOptions::new(24.0),
        )
        .unwrap();
        assert!((q.probability - 9e-6).abs() < 1e-18);
        assert_eq!(q.dynamic_factor, 1.0);
        assert_eq!(q.chain_states, 0);
    }

    #[test]
    fn dynamic_cutset_is_time_aware() {
        // {b, c}: Pr[b fails within t] * p(c); with repairs, "b failed at
        // the same time as c" — c is static so failed whenever drawn so —
        // means b reaching its failed state at least once.
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let q = quantify_cutset(
            &t,
            &ctx,
            &cutset_of(&t, &["b", "c"]),
            &QuantifyOptions::new(24.0),
        )
        .unwrap();
        let b_reach = erlang::repairable(1, 1e-3, 0.05)
            .unwrap()
            .reach_failed_probability(24.0, 1e-12)
            .unwrap();
        assert!((q.probability - 3e-3 * b_reach).abs() < 1e-12);
        assert!(q.chain_states > 0);
    }

    #[test]
    fn triggered_cutset_accounts_for_delayed_start() {
        // {a, d}: a fails at t=0 (static), so d is triggered from 0; the
        // dynamic factor equals d's worst-case probability in this case.
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let q = quantify_cutset(
            &t,
            &ctx,
            &cutset_of(&t, &["a", "d"]),
            &QuantifyOptions::new(24.0),
        )
        .unwrap();
        let d_worst = erlang::spare(1e-3, 0.05)
            .unwrap()
            .worst_case_failure_probability(24.0, 1e-12)
            .unwrap();
        assert!((q.dynamic_factor - d_worst).abs() < 1e-9);
        assert!((q.probability - 3e-3 * d_worst).abs() < 1e-12);
    }

    #[test]
    fn triggered_by_dynamic_is_below_worst_case() {
        // {b, d}: d only starts once b has failed, so the joint failure
        // probability is well below p(b-reaches) * p(d-worst).
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let q = quantify_cutset(
            &t,
            &ctx,
            &cutset_of(&t, &["b", "d"]),
            &QuantifyOptions::new(24.0),
        )
        .unwrap();
        let b_reach = erlang::repairable(1, 1e-3, 0.05)
            .unwrap()
            .reach_failed_probability(24.0, 1e-12)
            .unwrap();
        let d_worst = erlang::spare(1e-3, 0.05)
            .unwrap()
            .worst_case_failure_probability(24.0, 1e-12)
            .unwrap();
        assert!(q.probability > 0.0);
        assert!(
            q.probability < b_reach * d_worst,
            "{} !< {}",
            q.probability,
            b_reach * d_worst
        );
    }

    #[test]
    fn zero_probability_static_short_circuits() {
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.0).unwrap();
        let y = b
            .dynamic_event("y", erlang::plain(1, 1e-3).unwrap())
            .unwrap();
        let g = b.and("g", [x, y]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let ctx = FtcContext::new(&t).unwrap();
        let c = Cutset::new([x, y]);
        let q = quantify_cutset(&t, &ctx, &c, &QuantifyOptions::new(24.0)).unwrap();
        assert_eq!(q.probability, 0.0);
        assert_eq!(q.chain_states, 0, "chain construction skipped");
    }

    #[test]
    fn invalid_horizon_rejected() {
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let c = cutset_of(&t, &["e"]);
        assert!(matches!(
            quantify_cutset(&t, &ctx, &c, &QuantifyOptions::new(f64::NAN)),
            Err(CoreError::InvalidHorizon { .. })
        ));
    }
}
