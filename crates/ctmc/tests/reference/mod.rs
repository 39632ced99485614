//! Reference implementations that exist only to test the kernel
//! against: the pre-CSR dense-loop uniformization, kept verbatim, and
//! the scalar CSR SpMV loop that the blocked kernel must match bit for
//! bit. Shared by the crate's unit tests (a `#[path]` module in
//! `lib.rs`) and by the integration tests in this directory; the
//! including module brings `Ctmc`, `CtmcError`, `CtmcRows` and
//! `PoissonWeights` into scope.

use super::{Ctmc, CtmcError, CtmcRows, PoissonWeights};

/// One DTMC step `next = current · P` over the CSR form — the scalar
/// reference loop. The diagonal is the per-row residual (clamped at
/// zero), matching the reference dense loop bit for bit.
pub fn spmv_scalar(
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
        let mut stay = mass;
        for i in row_offsets[s] as usize..row_offsets[s + 1] as usize {
            let move_mass = mass * probs[i];
            next[cols[i] as usize] += move_mass;
            stay -= move_mass;
        }
        next[s] += stay.max(0.0);
    }
}

/// Dense-loop multi-horizon transient distributions (the original
/// implementation).
pub fn transient_distribution_many(
    chain: &Ctmc,
    horizons: &[f64],
    epsilon: f64,
) -> Result<Vec<Vec<f64>>, CtmcError> {
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
    let rate = chain.max_exit_rate();
    if rate == 0.0 {
        return Ok(vec![chain.initial_distribution().to_vec(); horizons.len()]);
    }
    let weights: Vec<PoissonWeights> = horizons
        .iter()
        .map(|&t| PoissonWeights::new(rate * t, epsilon))
        .collect::<Result<_, _>>()?;
    let max_right = weights.iter().map(PoissonWeights::right).max().unwrap_or(0);

    let mut current = chain.initial_distribution().to_vec();
    let mut next = vec![0.0; n];
    let mut results = vec![vec![0.0; n]; horizons.len()];
    for step in 0..=max_right {
        for (result, w) in results.iter_mut().zip(&weights) {
            let weight = w.weight(step);
            if weight > 0.0 {
                for s in 0..n {
                    result[s] += weight * current[s];
                }
            }
        }
        if step == max_right {
            break;
        }
        for v in next.iter_mut() {
            *v = 0.0;
        }
        for s in 0..n {
            let mass = current[s];
            if mass == 0.0 {
                continue;
            }
            let mut stay = mass;
            for &(to, r) in chain.transitions_from(s) {
                let move_mass = mass * (r / rate);
                next[to] += move_mass;
                stay -= move_mass;
            }
            next[s] += stay.max(0.0);
        }
        std::mem::swap(&mut current, &mut next);
    }
    Ok(results)
}

/// Dense-loop multi-horizon reach probabilities (the original
/// implementation, including its absorbing copy of the chain).
pub fn reach_probability_many(
    chain: &Ctmc,
    horizons: &[f64],
    epsilon: f64,
) -> Result<Vec<f64>, CtmcError> {
    let absorbed = failed_absorbing(chain)?;
    let distributions = transient_distribution_many(&absorbed, horizons, epsilon)?;
    Ok(distributions
        .into_iter()
        .map(|pi| {
            absorbed
                .failed_states()
                .map(|s| pi[s])
                .sum::<f64>()
                .clamp(0.0, 1.0)
        })
        .collect())
}

/// A copy of `chain` in which every failed state is absorbing (all
/// outgoing transitions of failed states removed).
fn failed_absorbing(chain: &Ctmc) -> Result<Ctmc, CtmcError> {
    let mut rows = CtmcRows::new();
    let mut failed = Vec::with_capacity(chain.len());
    for s in 0..chain.len() {
        failed.push(chain.is_failed(s));
        if !chain.is_failed(s) {
            for &(to, rate) in chain.transitions_from(s) {
                rows.rate(to, rate);
            }
        }
        rows.end_row();
    }
    rows.build(chain.initial_distribution().to_vec(), failed)
}
