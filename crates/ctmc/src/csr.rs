//! The uniformization kernel: the uniformized DTMC in CSR form, a
//! reusable [`SolverWorkspace`], and steady-state detection.
//!
//! Every transient query bottoms out here. The kernel precomputes the
//! uniformized DTMC `P = I + R/Λ` as one flat CSR layout — row offsets,
//! column indices and the jump probabilities `r/Λ` — so the inner
//! matrix–vector loop does no division and no nested-`Vec` pointer
//! chasing. Absorption of failed states is applied *while building the
//! CSR* (failed rows are simply left empty), so no absorbing copy of the
//! chain is ever made.
//!
//! # Exact compatibility
//!
//! With steady-state detection off, the kernel performs bit-for-bit the
//! same floating-point operations as the reference dense loop (kept in
//! `tests/reference`): jump masses are `mass * (r/Λ)` in the
//! original transition order and the diagonal stay mass is the per-row
//! residual `mass - Σ jumps` clamped at zero — not a precomputed stay
//! *probability*, which would round differently. Results are therefore
//! bitwise-identical to the pre-CSR solver whenever steady-state
//! detection does not trigger.
//!
//! # The SpMV kernels
//!
//! The SpMV kernel in [`kernel`] unrolls each row into
//! [`kernel::SPMV_LANES`]-wide product blocks. It computes the four jump
//! masses of a block with independent multiplies (which the compiler
//! packs into SIMD lanes) but keeps the scatter and the running
//! stay-residual chain serial and in the original entry order, so it
//! performs exactly the floating-point operations of a plain scalar
//! loop — the two are bitwise-identical by construction, which the
//! property suite pins on random CSR matrices against the scalar loop
//! kept in `tests/reference`. Nothing depends on runtime CPU detection, so results can never vary
//! across machines.
//!
//! # Steady-state detection
//!
//! Uniformization needs `O(Λt)` DTMC steps; on stiff repairable chains
//! (fast repair, slow failure) the iterates converge long before the
//! Poisson window is exhausted. After each step the kernel measures
//! `δ = ‖π_{k} − π_{k-1}‖₁`. Successive-difference L1 norms are
//! non-increasing under a stochastic matrix (`‖(π−π′)P‖₁ ≤ ‖π−π′‖₁`), so
//! once `δ · remaining_h ≤ ε` every iterate inside horizon `h`'s
//! remaining Poisson window is within `ε` of `π_k` in L1, and the kernel
//! closes *that horizon's* series analytically: the horizon adds
//! `(Σ its remaining weights) · π_k` and drops out of the weight pass.
//! Each horizon is closed against its **own** remaining window — exactly
//! the decision an independent single-horizon solve would take at the
//! same step — so a shared multi-horizon solve returns bitwise-identical
//! per-horizon results to solving each horizon alone, even when
//! detection fires mid-sequence. Stepping stops once every horizon has
//! closed (by detection or by exhausting its window). The extra error is
//! at most `ε` per horizon on top of the Poisson truncation error —
//! total `≤ 2ε`. Periodic uniformized chains (no state at the maximum
//! exit rate) simply never satisfy the criterion and run the full
//! window; `Λ` is *not* padded, precisely so that the detection-off
//! results stay bitwise-identical to the old solver.
//!
//! # Workspaces
//!
//! A [`SolverWorkspace`] keeps its buffers' capacity from one solve to
//! the next, but every solve rebuilds the CSR from the chain it is
//! handed: callers that meet the same chain twice deduplicate above this
//! layer, by the cutset model's canonical key.

use crate::chain::Ctmc;
use crate::error::CtmcError;
use crate::poisson::PoissonWeights;
use std::time::{Duration, Instant};

/// The raw SpMV entry point, public so the property suite can pin the
/// blocked kernel bitwise against the scalar reference on arbitrary CSR
/// inputs (empty rows, duplicate/dangling columns, row lengths not
/// divisible by the block width).
pub mod kernel {
    /// Lane width of the blocked kernel. Fixed (never CPU-detected) so
    /// the operation order — and therefore every rounding decision — is
    /// identical on every machine.
    pub const SPMV_LANES: usize = 4;

    /// One DTMC step over the CSR form with rows blocked into
    /// [`SPMV_LANES`]-wide chunks. The block's jump masses are
    /// independent multiplies (vectorizable); the scatter and the stay
    /// chain run serially in the original entry order, so duplicate
    /// columns and the running residual round exactly as in a plain
    /// scalar loop — the two are bitwise-identical on every input.
    pub fn spmv_blocked(
        row_offsets: &[u32],
        cols: &[u32],
        probs: &[f64],
        current: &[f64],
        next: &mut [f64],
    ) {
        for v in next.iter_mut() {
            *v = 0.0;
        }
        for (s, &mass) in current.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            let begin = row_offsets[s] as usize;
            let end = row_offsets[s + 1] as usize;
            let row_probs = &probs[begin..end];
            let row_cols = &cols[begin..end];
            let mut stay = mass;
            let mut p_blocks = row_probs.chunks_exact(SPMV_LANES);
            let mut c_blocks = row_cols.chunks_exact(SPMV_LANES);
            for (p, c) in p_blocks.by_ref().zip(c_blocks.by_ref()) {
                let m = [mass * p[0], mass * p[1], mass * p[2], mass * p[3]];
                next[c[0] as usize] += m[0];
                next[c[1] as usize] += m[1];
                next[c[2] as usize] += m[2];
                next[c[3] as usize] += m[3];
                stay -= m[0];
                stay -= m[1];
                stay -= m[2];
                stay -= m[3];
            }
            for (&p, &c) in p_blocks.remainder().iter().zip(c_blocks.remainder()) {
                let move_mass = mass * p;
                next[c as usize] += move_mass;
                stay -= move_mass;
            }
            next[s] += stay.max(0.0);
        }
    }
}

/// Knobs of the uniformization kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverOptions {
    /// Close each horizon's Poisson series once successive DTMC iterates
    /// have converged within that horizon's remaining window (see the
    /// module docs). Adds at most the truncation `ε` of extra error per
    /// horizon; disable for bitwise compatibility with the plain Jensen
    /// iteration.
    pub steady_state_detection: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            steady_state_detection: true,
        }
    }
}

/// Counters and timings of one kernel solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// States of the chain.
    pub states: usize,
    /// Stored CSR entries (off-diagonal transitions after absorption).
    pub nonzeros: usize,
    /// DTMC steps actually performed.
    pub steps_taken: usize,
    /// DTMC steps a full Poisson window would need (the largest
    /// horizon's truncation point).
    pub steps_budget: usize,
    /// The first step at which steady-state detection closed a horizon,
    /// if it closed any.
    pub steady_state_step: Option<usize>,
    /// Wall-clock spent building the CSR form (copying the kept rows and
    /// dividing their rates by `Λ`).
    pub csr_build: Duration,
    /// CSR entries the stepping loop streamed: `nonzeros × steps_taken`.
    /// Deterministic for a fixed chain and horizon set; divide by
    /// [`SolveStats::spmv_time`] for the kernel's sustained throughput.
    pub spmv_nonzeros: u64,
    /// Wall-clock of the stepping loop (SpMV plus the Poisson weight
    /// accumulation it feeds).
    pub spmv_time: Duration,
    /// Poisson window length (`right + 1`) per horizon — the number of
    /// weight applications each horizon needs, used to attribute the
    /// shared pass's cost across horizons.
    pub per_horizon_steps: Vec<usize>,
}

impl SolveStats {
    /// DTMC steps avoided by steady-state detection.
    #[must_use]
    pub fn steps_saved(&self) -> usize {
        self.steps_budget - self.steps_taken
    }
}

/// Reusable buffers for the uniformization kernel: the CSR scratch and
/// the current/next/result vectors. One workspace per worker thread
/// amortizes all solver allocations across an analysis run — each solve
/// refills the buffers and only grows them on the largest chain seen so
/// far.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    row_offsets: Vec<u32>,
    cols: Vec<u32>,
    probs: Vec<f64>,
    current: Vec<f64>,
    next: Vec<f64>,
    results: Vec<Vec<f64>>,
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        SolverWorkspace::default()
    }
}

/// `Pr[reach F ≤ t]` at several horizons from one uniformization pass of
/// the CSR kernel, with explicit solver options and a reusable
/// workspace. Returns the per-horizon probabilities and the solve's
/// kernel statistics.
///
/// # Errors
///
/// Returns an error if `horizons` is empty or contains an invalid
/// value, or `epsilon` is not in `(0, 1)`.
pub fn reach_probability_many_with(
    chain: &Ctmc,
    horizons: &[f64],
    epsilon: f64,
    options: &SolverOptions,
    workspace: &mut SolverWorkspace,
) -> Result<(Vec<f64>, SolveStats), CtmcError> {
    let stats = solve(chain, horizons, epsilon, true, options, workspace)?;
    let probabilities = workspace.results[..horizons.len()]
        .iter()
        .map(|pi| {
            chain
                .failed_states()
                .map(|s| pi[s])
                .sum::<f64>()
                .clamp(0.0, 1.0)
        })
        .collect();
    Ok((probabilities, stats))
}

/// Transient distributions at several horizons from one uniformization
/// pass of the CSR kernel, with explicit solver options and a reusable
/// workspace (see [`reach_probability_many_with`]).
///
/// # Errors
///
/// Same as [`reach_probability_many_with`].
pub fn transient_distribution_many_with(
    chain: &Ctmc,
    horizons: &[f64],
    epsilon: f64,
    options: &SolverOptions,
    workspace: &mut SolverWorkspace,
) -> Result<(Vec<Vec<f64>>, SolveStats), CtmcError> {
    let stats = solve(chain, horizons, epsilon, false, options, workspace)?;
    let distributions = workspace.results[..horizons.len()].to_vec();
    Ok((distributions, stats))
}

/// Build the uniformized DTMC in CSR form inside the workspace and
/// return the uniformization constant `Λ`. With `absorbing`, failed
/// states get empty rows (all their mass stays put) and `Λ` is the
/// maximum exit rate over the *non-failed* states — the rate of the chain
/// with every failed state made absorbing.
fn build_csr(chain: &Ctmc, absorbing: bool, ws: &mut SolverWorkspace) -> f64 {
    let n = chain.len();
    ws.row_offsets.clear();
    ws.cols.clear();
    ws.probs.clear();
    ws.row_offsets.reserve(n + 1);

    // One pass over the rows copies the kept ones and finds `Λ` (each
    // row's exit rate summed in stored order, as `Ctmc::exit_rate` does);
    // the rates are then divided by `Λ` in place.
    let entry = |value: usize| u32::try_from(value).expect("chain fits 32-bit CSR indices");
    let mut rate = 0.0f64;
    for s in 0..n {
        ws.row_offsets.push(entry(ws.cols.len()));
        if absorbing && chain.is_failed(s) {
            continue;
        }
        let row = chain.transitions_from(s);
        rate = rate.max(row.iter().map(|&(_, r)| r).sum());
        for &(to, r) in row {
            ws.cols.push(entry(to));
            ws.probs.push(r);
        }
    }
    ws.row_offsets.push(entry(ws.cols.len()));
    for p in &mut ws.probs {
        *p /= rate;
    }
    rate
}

fn prepare_results(ws: &mut SolverWorkspace, count: usize, n: usize) {
    if ws.results.len() < count {
        ws.results.resize_with(count, Vec::new);
    }
    for result in ws.results.iter_mut().take(count) {
        result.clear();
        result.resize(n, 0.0);
    }
}

/// The shared kernel: validate, build the CSR, run the Poisson-weighted
/// iteration with per-horizon steady-state closing, and leave the
/// per-horizon distributions in `ws.results[..horizons.len()]`.
fn solve(
    chain: &Ctmc,
    horizons: &[f64],
    epsilon: f64,
    absorbing: bool,
    options: &SolverOptions,
    ws: &mut SolverWorkspace,
) -> Result<SolveStats, CtmcError> {
    if horizons.is_empty() {
        return Err(CtmcError::InvalidHorizon { horizon: f64::NAN });
    }
    for &t in horizons {
        if !t.is_finite() || t < 0.0 {
            return Err(CtmcError::InvalidHorizon { horizon: t });
        }
    }
    if !epsilon.is_finite() || epsilon <= 0.0 || epsilon >= 1.0 {
        return Err(CtmcError::InvalidEpsilon { epsilon });
    }

    let n = chain.len();
    let build_begin = Instant::now();
    let rate = build_csr(chain, absorbing, ws);
    let csr_build = build_begin.elapsed();
    prepare_results(ws, horizons.len(), n);

    if rate == 0.0 {
        for result in ws.results.iter_mut().take(horizons.len()) {
            result.copy_from_slice(chain.initial_distribution());
        }
        return Ok(SolveStats {
            states: n,
            nonzeros: 0,
            steps_taken: 0,
            steps_budget: 0,
            steady_state_step: None,
            csr_build,
            spmv_nonzeros: 0,
            spmv_time: Duration::ZERO,
            per_horizon_steps: vec![1; horizons.len()],
        });
    }

    let weights: Vec<PoissonWeights> = horizons
        .iter()
        .map(|&t| PoissonWeights::new(rate * t, epsilon))
        .collect::<Result<_, _>>()?;
    let rights: Vec<usize> = weights.iter().map(PoissonWeights::right).collect();
    let max_right = rights.iter().copied().max().unwrap_or(0);

    ws.current.clear();
    ws.current.extend_from_slice(chain.initial_distribution());
    ws.next.clear();
    ws.next.resize(n, 0.0);

    let nonzeros = ws.probs.len();
    let mut steps_taken = 0;
    let mut steady_state_step = None;
    // Horizons drop out of the weight pass as they finish: either their
    // Poisson window is exhausted, or steady-state detection closed
    // their series early. Stepping stops when none remain open.
    let mut closed = vec![false; horizons.len()];
    let mut open = horizons.len();
    let stepping_begin = Instant::now();
    for step in 0..=max_right {
        for (h, (result, w)) in ws.results.iter_mut().zip(&weights).enumerate() {
            if closed[h] {
                continue;
            }
            let weight = w.weight(step);
            if weight > 0.0 {
                for (r, &c) in result.iter_mut().zip(&ws.current) {
                    *r += weight * c;
                }
            }
            if step == rights[h] {
                closed[h] = true;
                open -= 1;
            }
        }
        if open == 0 {
            break;
        }
        kernel::spmv_blocked(
            &ws.row_offsets,
            &ws.cols,
            &ws.probs,
            &ws.current,
            &mut ws.next,
        );
        std::mem::swap(&mut ws.current, &mut ws.next);
        steps_taken = step + 1;

        if options.steady_state_detection {
            // `ws.next` still holds the previous iterate.
            let delta: f64 = ws
                .current
                .iter()
                .zip(&ws.next)
                .map(|(a, b)| (a - b).abs())
                .sum();
            for (h, (result, w)) in ws.results.iter_mut().zip(&weights).enumerate() {
                if closed[h] {
                    continue;
                }
                // Each horizon is judged against its own remaining
                // window — the identical decision an independent
                // single-horizon solve takes at this step, so shared and
                // independent solves agree bitwise.
                let remaining = rights[h] - steps_taken;
                if remaining > 0 && delta * remaining as f64 <= epsilon {
                    let mut tail = 0.0;
                    for k in steps_taken..=w.right() {
                        tail += w.weight(k);
                    }
                    if tail > 0.0 {
                        for (r, &c) in result.iter_mut().zip(&ws.current) {
                            *r += tail * c;
                        }
                    }
                    closed[h] = true;
                    open -= 1;
                    steady_state_step.get_or_insert(steps_taken);
                }
            }
            if open == 0 {
                break;
            }
        }
    }
    let spmv_time = stepping_begin.elapsed();

    Ok(SolveStats {
        states: n,
        nonzeros,
        steps_taken,
        steps_budget: max_right,
        steady_state_step,
        csr_build,
        spmv_nonzeros: nonzeros as u64 * steps_taken as u64,
        spmv_time,
        per_horizon_steps: weights.iter().map(|w| w.right() + 1).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::CtmcBuilder;

    const SSD_OFF: SolverOptions = SolverOptions {
        steady_state_detection: false,
    };
    const SSD_ON: SolverOptions = SolverOptions {
        steady_state_detection: true,
    };

    fn birth_death(lambda: f64, mu: f64) -> Ctmc {
        CtmcBuilder::new(2)
            .initial(0, 1.0)
            .rate(0, 1, lambda)
            .rate(1, 0, mu)
            .failed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_dense_reference_bitwise_without_ssd() {
        let mut b = CtmcBuilder::new(5);
        b.initial(0, 0.6).initial(2, 0.4);
        for s in 0..5usize {
            b.rate(s, (s + 1) % 5, 0.3 + s as f64 * 0.41);
            b.rate(s, (s + 2) % 5, 0.07);
        }
        let c = b.failed(4).build().unwrap();
        let horizons = [0.0, 1.5, 24.0, 96.0];
        let mut ws = SolverWorkspace::new();
        let (fast, _) =
            reach_probability_many_with(&c, &horizons, 1e-12, &SSD_OFF, &mut ws).unwrap();
        let dense = crate::reference::reach_probability_many(&c, &horizons, 1e-12).unwrap();
        for (a, b) in fast.iter().zip(&dense) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        let (fast_pi, _) =
            transient_distribution_many_with(&c, &horizons, 1e-12, &SSD_OFF, &mut ws).unwrap();
        let dense_pi = crate::reference::transient_distribution_many(&c, &horizons, 1e-12).unwrap();
        assert_eq!(fast_pi, dense_pi);
    }

    #[test]
    fn blocked_and_scalar_kernels_agree_on_a_fixed_chain() {
        let mut b = CtmcBuilder::new(6);
        b.initial(0, 1.0);
        for s in 0..6usize {
            for k in 1..=5usize {
                b.rate(s, (s + k) % 6, 0.01 + (s * 5 + k) as f64 * 0.13);
            }
        }
        let c = b.failed(5).build().unwrap();
        let mut ws = SolverWorkspace::new();
        build_csr(&c, true, &mut ws);
        let current: Vec<f64> = (0..6).map(|i| 1.0 / (i as f64 + 2.0)).collect();
        let mut scalar = vec![0.0; 6];
        let mut blocked = vec![0.0; 6];
        crate::reference::spmv_scalar(&ws.row_offsets, &ws.cols, &ws.probs, &current, &mut scalar);
        kernel::spmv_blocked(&ws.row_offsets, &ws.cols, &ws.probs, &current, &mut blocked);
        for (a, b) in scalar.iter().zip(&blocked) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn steady_state_detection_cuts_stiff_chains_short() {
        // Λt = 120 · 50 = 6000, but the two-state chain mixes in tens of
        // steps; detection must fire early and stay within ε.
        let c = birth_death(120.0, 80.0);
        let mut ws = SolverWorkspace::new();
        let (p, stats) = reach_probability_many_with(&c, &[50.0], 1e-10, &SSD_ON, &mut ws).unwrap();
        assert!(stats.steady_state_step.is_some());
        assert!(
            stats.steps_taken * 10 < stats.steps_budget,
            "took {} of {}",
            stats.steps_taken,
            stats.steps_budget
        );
        assert!(stats.steps_saved() > 0);
        assert!((p[0] - 1.0).abs() < 1e-9);
        let (pi, _) =
            transient_distribution_many_with(&c, &[50.0], 1e-10, &SSD_ON, &mut ws).unwrap();
        assert!((pi[0][0] - 0.4).abs() < 1e-6);
        assert!((pi[0][1] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn ssd_stays_within_epsilon_of_the_full_window() {
        let c = birth_death(120.0, 80.0);
        let mut ws = SolverWorkspace::new();
        let horizons = [10.0, 50.0];
        let eps = 1e-10;
        let (on, on_stats) =
            reach_probability_many_with(&c, &horizons, eps, &SSD_ON, &mut ws).unwrap();
        let (off, off_stats) =
            reach_probability_many_with(&c, &horizons, eps, &SSD_OFF, &mut ws).unwrap();
        assert!(on_stats.steady_state_step.is_some());
        assert_eq!(off_stats.steady_state_step, None);
        assert_eq!(off_stats.steps_taken, off_stats.steps_budget);
        for (a, b) in on.iter().zip(&off) {
            assert!((a - b).abs() <= 2.0 * eps, "{a} vs {b}");
        }
    }

    /// The tentpole guarantee of the shared multi-horizon solve: every
    /// horizon's result is bitwise the result of solving that horizon
    /// alone, including when steady-state detection closes some horizons
    /// mid-sequence.
    #[test]
    fn shared_solve_is_bitwise_identical_to_independent_solves() {
        let stiff = birth_death(120.0, 80.0);
        let mut b = CtmcBuilder::new(4);
        b.initial(0, 1.0);
        b.rate(0, 1, 0.9)
            .rate(1, 2, 1.4)
            .rate(2, 0, 0.3)
            .rate(2, 3, 0.2);
        let drifting = b.failed(3).build().unwrap();
        for chain in [&stiff, &drifting] {
            for options in [&SSD_ON, &SSD_OFF] {
                let horizons = [0.5, 10.0, 50.0, 200.0];
                let mut ws = SolverWorkspace::new();
                let (shared, shared_stats) =
                    reach_probability_many_with(chain, &horizons, 1e-10, options, &mut ws).unwrap();
                for (h, &t) in horizons.iter().enumerate() {
                    let mut solo_ws = SolverWorkspace::new();
                    let (solo, _) =
                        reach_probability_many_with(chain, &[t], 1e-10, options, &mut solo_ws)
                            .unwrap();
                    assert_eq!(
                        shared[h].to_bits(),
                        solo[0].to_bits(),
                        "horizon {t}: {} vs {}",
                        shared[h],
                        solo[0]
                    );
                }
                // The shared pass never steps past the largest horizon's
                // own budget.
                assert!(shared_stats.steps_taken <= shared_stats.steps_budget);
            }
        }
    }

    #[test]
    fn workspace_is_reusable_across_different_chains() {
        let big = birth_death(120.0, 80.0);
        let mut b = CtmcBuilder::new(4);
        b.initial(0, 1.0);
        b.rate(0, 1, 0.2).rate(1, 2, 0.4).rate(2, 3, 0.1);
        let small = b.failed(3).build().unwrap();
        // What the warm workspace still holds from the other chain must
        // not move a single bit.
        let cold = |chain: &Ctmc, t: f64, eps: f64| {
            let mut fresh = SolverWorkspace::new();
            reach_probability_many_with(chain, &[t], eps, &SSD_ON, &mut fresh)
                .unwrap()
                .0[0]
        };
        let mut ws = SolverWorkspace::new();
        for _ in 0..3 {
            let (p_big, s_big) =
                reach_probability_many_with(&big, &[50.0], 1e-10, &SSD_ON, &mut ws).unwrap();
            assert!((p_big[0] - 1.0).abs() < 1e-9);
            assert_eq!(p_big[0].to_bits(), cold(&big, 50.0, 1e-10).to_bits());
            assert_eq!(s_big.states, 2);
            let (p_small, s_small) =
                reach_probability_many_with(&small, &[24.0], 1e-12, &SSD_ON, &mut ws).unwrap();
            assert_eq!(s_small.states, 4);
            assert_eq!(s_small.nonzeros, 3);
            assert_eq!(p_small[0].to_bits(), cold(&small, 24.0, 1e-12).to_bits());
            let dense = crate::reference::reach_probability_many(&small, &[24.0], 1e-12).unwrap();
            assert!((p_small[0] - dense[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn rateless_chain_reports_zero_steps() {
        let c = CtmcBuilder::new(2)
            .initial(0, 0.3)
            .initial(1, 0.7)
            .failed(1)
            .build()
            .unwrap();
        let mut ws = SolverWorkspace::new();
        let (p, stats) =
            reach_probability_many_with(&c, &[5.0, 10.0], 1e-12, &SSD_ON, &mut ws).unwrap();
        assert_eq!(p, vec![0.7, 0.7]);
        assert_eq!(stats.steps_taken, 0);
        assert_eq!(stats.steps_budget, 0);
        assert_eq!(stats.per_horizon_steps, vec![1, 1]);
        assert_eq!(stats.nonzeros, 0);
        assert_eq!(stats.spmv_nonzeros, 0);
    }

    #[test]
    fn per_horizon_steps_track_the_poisson_windows() {
        let c = birth_death(0.4, 1.1);
        let mut ws = SolverWorkspace::new();
        let horizons = [1.0, 24.0, 96.0];
        let (_, stats) =
            reach_probability_many_with(&c, &horizons, 1e-12, &SSD_OFF, &mut ws).unwrap();
        assert_eq!(stats.per_horizon_steps.len(), 3);
        assert!(stats.per_horizon_steps[0] < stats.per_horizon_steps[1]);
        assert!(stats.per_horizon_steps[1] < stats.per_horizon_steps[2]);
        assert_eq!(
            stats.steps_budget + 1,
            *stats.per_horizon_steps.iter().max().unwrap()
        );
        assert_eq!(
            stats.spmv_nonzeros,
            stats.nonzeros as u64 * stats.steps_taken as u64
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let c = birth_death(1.0, 1.0);
        let mut ws = SolverWorkspace::new();
        assert!(matches!(
            reach_probability_many_with(&c, &[], 1e-12, &SSD_ON, &mut ws),
            Err(CtmcError::InvalidHorizon { .. })
        ));
        assert!(matches!(
            reach_probability_many_with(&c, &[1.0, -2.0], 1e-12, &SSD_ON, &mut ws),
            Err(CtmcError::InvalidHorizon { .. })
        ));
        assert!(matches!(
            reach_probability_many_with(&c, &[1.0], 0.0, &SSD_ON, &mut ws),
            Err(CtmcError::InvalidEpsilon { .. })
        ));
    }
}
