//! Transient analysis by uniformization (Jensen's method).
//!
//! The public functions here are thin convenience wrappers over the CSR
//! uniformization kernel in [`crate::csr`]: they allocate a fresh
//! [`SolverWorkspace`](crate::SolverWorkspace) per call and use the
//! default solver options. Hot paths that solve many chains should call
//! [`reach_probability_many_with`](crate::reach_probability_many_with)
//! directly with a reused workspace.

use crate::chain::Ctmc;
use crate::csr::{self, SolverOptions, SolverWorkspace};
use crate::error::CtmcError;

/// Transient state distribution of `chain` at time `t` by uniformization.
///
/// Returns a vector `pi` with `pi[s] = Pr[X(t) = s]`, computed with total
/// truncation error at most roughly `epsilon`.
///
/// Uniformization replaces the CTMC with a discrete-time chain subordinated
/// to a Poisson process of rate `Λ = max exit rate`; the transient
/// distribution is the Poisson-weighted average of the DTMC's step
/// distributions (Jensen's method), with the Poisson series truncated by
/// [`PoissonWeights`](crate::PoissonWeights).
///
/// # Errors
///
/// Returns an error if `t` is negative or not finite, or `epsilon` is not
/// in `(0, 1)`.
///
/// # Example
///
/// ```
/// use sdft_ctmc::{transient_distribution, CtmcBuilder};
///
/// # fn main() -> Result<(), sdft_ctmc::CtmcError> {
/// // Pure death process 0 -> 1 at rate 1: Pr[still in 0 at t] = e^{-t}.
/// let c = CtmcBuilder::new(2).initial(0, 1.0).rate(0, 1, 1.0).build()?;
/// let pi = transient_distribution(&c, 2.0, 1e-12)?;
/// assert!((pi[0] - (-2.0f64).exp()).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn transient_distribution(chain: &Ctmc, t: f64, epsilon: f64) -> Result<Vec<f64>, CtmcError> {
    let mut ws = SolverWorkspace::new();
    let (mut out, _) = csr::transient_distribution_many_with(
        chain,
        &[t],
        epsilon,
        &SolverOptions::default(),
        &mut ws,
    )?;
    Ok(out.pop().expect("one horizon yields one distribution"))
}

/// Transient distributions at several horizons from *one* uniformization
/// pass: the DTMC iterates are computed once up to the largest horizon's
/// truncation point and each horizon accumulates its own Poisson-weighted
/// sum. For `k` horizons this costs one pass plus `k` weight
/// computations — substantially cheaper than `k` independent calls when
/// the horizons share a chain (multi-horizon sweeps, §VI-B's T5).
///
/// Results are returned in the order of `horizons`.
///
/// # Errors
///
/// Returns an error if `horizons` is empty or contains an invalid value,
/// or `epsilon` is not in `(0, 1)`.
pub fn transient_distribution_many(
    chain: &Ctmc,
    horizons: &[f64],
    epsilon: f64,
) -> Result<Vec<Vec<f64>>, CtmcError> {
    let mut ws = SolverWorkspace::new();
    let (out, _) = csr::transient_distribution_many_with(
        chain,
        horizons,
        epsilon,
        &SolverOptions::default(),
        &mut ws,
    )?;
    Ok(out)
}

/// `Pr[reach F ≤ t]` at several horizons from one uniformization pass
/// (see [`transient_distribution_many`]).
///
/// # Errors
///
/// Same as [`transient_distribution_many`].
pub fn reach_probability_many(
    chain: &Ctmc,
    horizons: &[f64],
    epsilon: f64,
) -> Result<Vec<f64>, CtmcError> {
    let mut ws = SolverWorkspace::new();
    let (out, _) = csr::reach_probability_many_with(
        chain,
        horizons,
        epsilon,
        &SolverOptions::default(),
        &mut ws,
    )?;
    Ok(out)
}

/// `Pr[reach F ≤ t]` — probability that `chain` visits a failed state
/// within time `t`.
///
/// Computed by making all failed states absorbing and summing the transient
/// probability mass on them at time `t`: once a failed state is entered the
/// absorbed copy never leaves it, so its transient mass at `t` is exactly
/// the probability of having visited `F` by `t`. The CSR kernel applies
/// the absorption while building its sparse form, without cloning the
/// chain.
///
/// # Errors
///
/// Returns an error if `t` is negative or not finite, or `epsilon` is not
/// in `(0, 1)`.
pub fn reach_probability(chain: &Ctmc, t: f64, epsilon: f64) -> Result<f64, CtmcError> {
    let mut ws = SolverWorkspace::new();
    let (out, _) =
        csr::reach_probability_many_with(chain, &[t], epsilon, &SolverOptions::default(), &mut ws)?;
    Ok(out[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::CtmcBuilder;

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
    fn exponential_death_matches_closed_form() {
        let c = CtmcBuilder::new(2)
            .initial(0, 1.0)
            .rate(0, 1, 0.3)
            .failed(1)
            .build()
            .unwrap();
        for &t in &[0.0, 0.1, 1.0, 10.0, 100.0] {
            let p = reach_probability(&c, t, 1e-12).unwrap();
            let exact = 1.0 - (-0.3 * t).exp();
            assert!((p - exact).abs() < 1e-9, "t={t}: {p} vs {exact}");
        }
    }

    #[test]
    fn two_state_transient_matches_closed_form() {
        // For rates a (0->1) and b (1->0) starting in 0:
        // pi_1(t) = a/(a+b) (1 - e^{-(a+b)t}).
        let (a, b) = (0.4, 1.1);
        let c = birth_death(a, b);
        for &t in &[0.25, 1.0, 5.0, 50.0] {
            let pi = transient_distribution(&c, t, 1e-12).unwrap();
            let exact = a / (a + b) * (1.0 - (-(a + b) * t).exp());
            assert!((pi[1] - exact).abs() < 1e-9, "t={t}: {} vs {exact}", pi[1]);
        }
    }

    #[test]
    fn reach_probability_exceeds_transient_probability_with_repairs() {
        // With repairs, having *visited* the failed state is more likely
        // than *being* failed at t.
        let c = birth_death(0.1, 2.0);
        let t = 10.0;
        let reach = reach_probability(&c, t, 1e-12).unwrap();
        let pi = transient_distribution(&c, t, 1e-12).unwrap();
        assert!(reach > pi[1] * 2.0, "reach={reach} transient={}", pi[1]);
        // Closed form for first-passage of an exponential clock that only
        // runs in state 0... with repairs the process returns to 0, so
        // reach(t) = 1 - exp integral; here simply check monotonicity and
        // bounds instead.
        assert!(reach <= 1.0 && reach >= 1.0 - (-0.1f64 * t).exp() - 1e-9);
    }

    #[test]
    fn erlang_two_phase_matches_closed_form() {
        // 0 ->(r) 1 ->(r) 2(failed): reach by t = 1 - e^{-rt}(1 + rt).
        let r = 0.7;
        let c = CtmcBuilder::new(3)
            .initial(0, 1.0)
            .rate(0, 1, r)
            .rate(1, 2, r)
            .failed(2)
            .build()
            .unwrap();
        for &t in &[0.5, 2.0, 8.0] {
            let p = reach_probability(&c, t, 1e-12).unwrap();
            let exact = 1.0 - (-r * t).exp() * (1.0 + r * t);
            assert!((p - exact).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn zero_horizon_returns_initial_mass() {
        let c = birth_death(1.0, 1.0);
        let p = reach_probability(&c, 0.0, 1e-12).unwrap();
        assert_eq!(p, 0.0);
        let c2 = CtmcBuilder::new(2)
            .initial(0, 0.3)
            .initial(1, 0.7)
            .failed(1)
            .build()
            .unwrap();
        let p2 = reach_probability(&c2, 0.0, 1e-12).unwrap();
        assert!((p2 - 0.7).abs() < 1e-15);
    }

    #[test]
    fn rateless_chain_is_constant() {
        let c = CtmcBuilder::new(3)
            .initial(0, 0.2)
            .initial(1, 0.8)
            .failed(2)
            .build()
            .unwrap();
        let pi = transient_distribution(&c, 100.0, 1e-12).unwrap();
        assert_eq!(pi, vec![0.2, 0.8, 0.0]);
        assert_eq!(reach_probability(&c, 100.0, 1e-12).unwrap(), 0.0);
    }

    #[test]
    fn distribution_stays_normalized_on_larger_chain() {
        // Cyclic chain with heterogeneous rates.
        let n = 20;
        let mut b = CtmcBuilder::new(n);
        b.initial(0, 1.0);
        for s in 0..n {
            b.rate(s, (s + 1) % n, 0.5 + s as f64 * 0.37);
            b.rate(s, (s + 7) % n, 0.1);
        }
        let c = b.failed(n - 1).build().unwrap();
        let pi = transient_distribution(&c, 3.0, 1e-12).unwrap();
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum={sum}");
        assert!(pi.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn long_horizon_with_high_rates_is_stable() {
        let c = birth_death(120.0, 80.0);
        let pi = transient_distribution(&c, 50.0, 1e-10).unwrap();
        // Stationary distribution: (b, a)/(a+b) = (0.4, 0.6).
        assert!((pi[0] - 0.4).abs() < 1e-6);
        assert!((pi[1] - 0.6).abs() < 1e-6);
        let reach = reach_probability(&c, 50.0, 1e-10).unwrap();
        assert!((reach - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_horizon_and_epsilon() {
        let c = birth_death(1.0, 1.0);
        assert!(matches!(
            transient_distribution(&c, -1.0, 1e-12),
            Err(CtmcError::InvalidHorizon { .. })
        ));
        assert!(matches!(
            transient_distribution(&c, f64::NAN, 1e-12),
            Err(CtmcError::InvalidHorizon { .. })
        ));
        assert!(matches!(
            reach_probability(&c, 1.0, 2.0),
            Err(CtmcError::InvalidEpsilon { .. })
        ));
    }
}

#[cfg(test)]
mod many_tests {
    use super::*;
    use crate::chain::CtmcBuilder;

    fn chain() -> Ctmc {
        CtmcBuilder::new(3)
            .initial(0, 1.0)
            .rate(0, 1, 0.3)
            .rate(1, 0, 0.7)
            .rate(1, 2, 0.05)
            .failed(2)
            .build()
            .unwrap()
    }

    #[test]
    fn many_matches_individual_calls() {
        let c = chain();
        let horizons = [0.0, 1.5, 24.0, 96.0];
        let batched = transient_distribution_many(&c, &horizons, 1e-12).unwrap();
        for (&t, pi) in horizons.iter().zip(&batched) {
            let single = transient_distribution(&c, t, 1e-12).unwrap();
            for (a, b) in pi.iter().zip(&single) {
                assert!((a - b).abs() < 1e-9, "t={t}");
            }
        }
        let reaches = reach_probability_many(&c, &horizons, 1e-12).unwrap();
        for (&t, &p) in horizons.iter().zip(&reaches) {
            let single = reach_probability(&c, t, 1e-12).unwrap();
            assert!((p - single).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn many_preserves_order_and_monotonicity() {
        let c = chain();
        let reaches = reach_probability_many(&c, &[96.0, 24.0, 48.0], 1e-12).unwrap();
        assert!(reaches[0] > reaches[2] && reaches[2] > reaches[1]);
    }

    #[test]
    fn many_rejects_bad_inputs() {
        let c = chain();
        assert!(matches!(
            transient_distribution_many(&c, &[], 1e-12),
            Err(CtmcError::InvalidHorizon { .. })
        ));
        assert!(matches!(
            transient_distribution_many(&c, &[1.0, -2.0], 1e-12),
            Err(CtmcError::InvalidHorizon { .. })
        ));
        assert!(matches!(
            reach_probability_many(&c, &[1.0], 0.0),
            Err(CtmcError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn rateless_chain_many() {
        let c = CtmcBuilder::new(2)
            .initial(0, 0.4)
            .initial(1, 0.6)
            .failed(1)
            .build()
            .unwrap();
        let out = transient_distribution_many(&c, &[1.0, 5.0], 1e-12).unwrap();
        assert_eq!(out, vec![vec![0.4, 0.6], vec![0.4, 0.6]]);
    }

    #[test]
    fn wrappers_match_reference_dense_loops() {
        let c = chain();
        let horizons = [0.5, 12.0, 48.0];
        let fast = reach_probability_many(&c, &horizons, 1e-12).unwrap();
        let dense = crate::reference::reach_probability_many(&c, &horizons, 1e-12).unwrap();
        for (a, b) in fast.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
