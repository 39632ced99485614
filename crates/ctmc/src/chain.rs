use crate::error::CtmcError;
use crate::transient;

/// A finite continuous-time Markov chain with a distinguished set of
/// *failed* states.
///
/// States are identified by dense indices `0..len()`. The rate matrix is
/// stored in compressed sparse rows: one flat list of `(target, rate)`
/// pairs, state by state, and the offset where each state's row begins.
/// Diagonal entries are implicit (the exit rate of a state is the sum of
/// its outgoing rates).
///
/// Construct chains with [`CtmcBuilder`], which validates all inputs, or
/// row by row with [`CtmcRows`].
///
/// # Example
///
/// ```
/// use sdft_ctmc::CtmcBuilder;
///
/// # fn main() -> Result<(), sdft_ctmc::CtmcError> {
/// // ok --1e-3--> fail, repaired at 0.05 (Example 2 of the paper).
/// let chain = CtmcBuilder::new(2)
///     .initial(0, 1.0)
///     .rate(0, 1, 1e-3)
///     .rate(1, 0, 0.05)
///     .failed(1)
///     .build()?;
/// assert_eq!(chain.len(), 2);
/// assert!(chain.is_failed(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    /// Row `s` is `entries[row_offsets[s]..row_offsets[s + 1]]`.
    row_offsets: Vec<usize>,
    /// Outgoing transitions `(target, rate)`, rate > 0, row by row.
    entries: Vec<(usize, f64)>,
    /// Initial distribution; sums to 1.
    initial: Vec<f64>,
    /// Failure flag per state.
    failed: Vec<bool>,
    /// Cached largest exit rate (the uniformization constant `Λ`).
    max_exit_rate: f64,
}

impl Ctmc {
    /// Assemble a chain from validated parts, caching `Λ`.
    fn from_parts(
        row_offsets: Vec<usize>,
        entries: Vec<(usize, f64)>,
        initial: Vec<f64>,
        failed: Vec<bool>,
    ) -> Ctmc {
        let mut chain = Ctmc {
            row_offsets,
            entries,
            initial,
            failed,
            max_exit_rate: 0.0,
        };
        chain.max_exit_rate = (0..chain.len())
            .map(|s| chain.exit_rate(s))
            .fold(0.0, f64::max);
        chain
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.initial.len()
    }

    /// Whether the chain has no states. Always `false` for a built chain,
    /// provided for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.initial.is_empty()
    }

    /// Outgoing transitions of `state` as `(target, rate)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn transitions_from(&self, state: usize) -> &[(usize, f64)] {
        &self.entries[self.row_offsets[state]..self.row_offsets[state + 1]]
    }

    /// Total exit rate of `state`: the sum of its outgoing rates, in
    /// stored order.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn exit_rate(&self, state: usize) -> f64 {
        self.transitions_from(state).iter().map(|&(_, r)| r).sum()
    }

    /// The largest exit rate over all states (the uniformization
    /// constant). Cached at construction.
    #[must_use]
    pub fn max_exit_rate(&self) -> f64 {
        self.max_exit_rate
    }

    /// Initial probability of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn initial_probability(&self, state: usize) -> f64 {
        self.initial[state]
    }

    /// The full initial distribution.
    #[must_use]
    pub fn initial_distribution(&self) -> &[f64] {
        &self.initial
    }

    /// Whether `state` is a failed state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn is_failed(&self, state: usize) -> bool {
        self.failed[state]
    }

    /// Indices of all failed states.
    pub fn failed_states(&self) -> impl Iterator<Item = usize> + '_ {
        self.failed
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(s, _)| s)
    }

    /// Number of (positive-rate) transitions in the chain.
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.entries.len()
    }

    /// `Pr[reach F ≤ t]` — the probability that the chain visits a failed
    /// state within the time horizon `t`, with truncation error `epsilon`.
    ///
    /// This is the quantity written `Pr[Reach≤t(F)]` in the paper; see
    /// [`reach_probability`](crate::reach_probability) for details.
    ///
    /// # Errors
    ///
    /// Returns an error if `t` is negative or not finite, or if `epsilon`
    /// is not in `(0, 1)`.
    pub fn reach_failed_probability(&self, t: f64, epsilon: f64) -> Result<f64, CtmcError> {
        transient::reach_probability(self, t, epsilon)
    }

    /// Replace the initial distribution, validating the replacement.
    ///
    /// # Errors
    ///
    /// Returns an error if `initial` has the wrong length, contains invalid
    /// probabilities, or does not sum to one.
    pub fn with_initial_distribution(mut self, initial: Vec<f64>) -> Result<Self, CtmcError> {
        validate_initial(&initial, self.len())?;
        self.initial = initial;
        Ok(self)
    }

    /// A copy of this chain with every transition rate multiplied by
    /// `factor` (uncertainty and sensitivity studies rescale component
    /// rates this way). The structure, initial distribution and failed
    /// set are unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error if `factor` is negative or not finite.
    pub fn with_scaled_rates(&self, factor: f64) -> Result<Ctmc, CtmcError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(CtmcError::InvalidRate {
                from: 0,
                to: 0,
                rate: factor,
            });
        }
        let mut row_offsets = Vec::with_capacity(self.row_offsets.len());
        let mut entries = Vec::with_capacity(self.entries.len());
        row_offsets.push(0);
        for from in 0..self.len() {
            // Zero rates are never stored.
            entries.extend(
                self.transitions_from(from)
                    .iter()
                    .filter_map(|&(to, rate)| {
                        let rate = rate * factor;
                        (rate > 0.0).then_some((to, rate))
                    }),
            );
            row_offsets.push(entries.len());
        }
        Ok(Ctmc::from_parts(
            row_offsets,
            entries,
            self.initial.clone(),
            self.failed.clone(),
        ))
    }
}

fn validate_initial(initial: &[f64], len: usize) -> Result<(), CtmcError> {
    if initial.len() != len {
        return Err(CtmcError::StateOutOfRange {
            state: initial.len(),
            len,
        });
    }
    let mut sum = 0.0;
    for (state, &p) in initial.iter().enumerate() {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(CtmcError::InvalidInitialProbability { state, prob: p });
        }
        sum += p;
    }
    if (sum - 1.0).abs() > 1e-9 {
        return Err(CtmcError::InitialDistributionNotNormalized { sum });
    }
    Ok(())
}

/// Row-wise constructor of a [`Ctmc`]: the rate matrix is written one
/// state's row at a time, in state order, straight into the chain's
/// sparse-row storage. Within a row, repeated targets merge into their
/// first entry (rates summed in the order given) and self-loops and zero
/// rates are dropped — exactly what [`CtmcBuilder::build`] does, which
/// feeds its rows through this type.
///
/// # Example
///
/// ```
/// use sdft_ctmc::CtmcRows;
///
/// # fn main() -> Result<(), sdft_ctmc::CtmcError> {
/// let mut rows = CtmcRows::new();
/// rows.rate(1, 1e-3); // row 0
/// rows.end_row();
/// rows.rate(0, 0.05); // row 1
/// rows.end_row();
/// let chain = rows.build(vec![1.0, 0.0], vec![false, true])?;
/// assert_eq!(chain.transitions_from(1), &[(0, 0.05)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CtmcRows {
    row_offsets: Vec<usize>,
    entries: Vec<(usize, f64)>,
    /// The first rejected rate, reported by [`CtmcRows::build`].
    invalid: Option<(usize, usize, f64)>,
}

impl Default for CtmcRows {
    fn default() -> Self {
        CtmcRows::new()
    }
}

impl CtmcRows {
    /// An empty matrix whose open row is row 0.
    #[must_use]
    pub fn new() -> Self {
        CtmcRows::with_capacity(0, 0)
    }

    /// [`CtmcRows::new`] with room for `states` rows and `transitions`
    /// entries.
    #[must_use]
    pub fn with_capacity(states: usize, transitions: usize) -> Self {
        let mut row_offsets = Vec::with_capacity(states + 1);
        row_offsets.push(0);
        CtmcRows {
            row_offsets,
            entries: Vec::with_capacity(transitions),
            invalid: None,
        }
    }

    /// Number of rows ended so far (the open row's index).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Add a transition from the open row's state to `to`. Negative, NaN
    /// and infinite rates are rejected by [`CtmcRows::build`].
    pub fn rate(&mut self, to: usize, rate: f64) -> &mut Self {
        let from = self.rows();
        if !rate.is_finite() || rate < 0.0 {
            self.invalid.get_or_insert((from, to, rate));
            return self;
        }
        if rate == 0.0 || to == from {
            return self;
        }
        let open = self.row_offsets[from];
        match self.entries[open..].iter_mut().find(|(t, _)| *t == to) {
            Some((_, r)) => *r += rate,
            None => self.entries.push((to, rate)),
        }
        self
    }

    /// Close the open row; the next [`CtmcRows::rate`] starts the next
    /// state's row.
    pub fn end_row(&mut self) -> &mut Self {
        self.row_offsets.push(self.entries.len());
        self
    }

    /// Validate and build the chain over the ended rows.
    ///
    /// # Errors
    ///
    /// Returns an error if no row was ended, a rate was invalid, a target
    /// is not an ended row, `failed` has the wrong length, or `initial`
    /// is not a distribution over the rows.
    pub fn build(self, initial: Vec<f64>, failed: Vec<bool>) -> Result<Ctmc, CtmcError> {
        let len = self.rows();
        if len == 0 {
            return Err(CtmcError::EmptyStateSpace);
        }
        if let Some((from, to, rate)) = self.invalid {
            return Err(CtmcError::InvalidRate { from, to, rate });
        }
        if let Some(&(state, _)) = self.entries.iter().find(|&&(to, _)| to >= len) {
            return Err(CtmcError::StateOutOfRange { state, len });
        }
        if failed.len() != len {
            return Err(CtmcError::StateOutOfRange {
                state: failed.len(),
                len,
            });
        }
        validate_initial(&initial, len)?;
        Ok(self.assemble(initial, failed))
    }

    /// [`CtmcRows::build`] for inputs the caller has already validated.
    fn assemble(self, initial: Vec<f64>, failed: Vec<bool>) -> Ctmc {
        Ctmc::from_parts(self.row_offsets, self.entries, initial, failed)
    }
}

/// Builder for [`Ctmc`] values.
///
/// All setters are non-consuming and chainable; [`CtmcBuilder::build`]
/// validates the accumulated data.
#[derive(Debug, Clone)]
pub struct CtmcBuilder {
    len: usize,
    rates: Vec<(usize, usize, f64)>,
    initial: Vec<(usize, f64)>,
    failed: Vec<usize>,
}

impl CtmcBuilder {
    /// Start building a chain with `states` states.
    #[must_use]
    pub fn new(states: usize) -> Self {
        CtmcBuilder {
            len: states,
            rates: Vec::new(),
            initial: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Add a transition `from -> to` with the given `rate`.
    ///
    /// Zero rates are accepted and ignored at build time; negative, NaN or
    /// infinite rates are rejected by [`CtmcBuilder::build`]. Repeated
    /// transitions between the same pair of states accumulate.
    pub fn rate(&mut self, from: usize, to: usize, rate: f64) -> &mut Self {
        self.rates.push((from, to, rate));
        self
    }

    /// Assign initial probability `prob` to `state`. Repeated assignments
    /// to the same state accumulate.
    pub fn initial(&mut self, state: usize, prob: f64) -> &mut Self {
        self.initial.push((state, prob));
        self
    }

    /// Mark `state` as failed.
    pub fn failed(&mut self, state: usize) -> &mut Self {
        self.failed.push(state);
        self
    }

    /// Validate and build the chain.
    ///
    /// # Errors
    ///
    /// Returns an error if the state space is empty, any referenced state is
    /// out of range, any rate or initial probability is invalid, or the
    /// initial distribution does not sum to one.
    pub fn build(&self) -> Result<Ctmc, CtmcError> {
        if self.len == 0 {
            return Err(CtmcError::EmptyStateSpace);
        }
        let check = |state: usize| -> Result<(), CtmcError> {
            if state >= self.len {
                Err(CtmcError::StateOutOfRange {
                    state,
                    len: self.len,
                })
            } else {
                Ok(())
            }
        };
        for &(from, to, rate) in &self.rates {
            check(from)?;
            check(to)?;
            if !rate.is_finite() || rate < 0.0 {
                return Err(CtmcError::InvalidRate { from, to, rate });
            }
        }
        let mut initial = vec![0.0; self.len];
        for &(state, prob) in &self.initial {
            check(state)?;
            if !prob.is_finite() || prob < 0.0 {
                return Err(CtmcError::InvalidInitialProbability { state, prob });
            }
            initial[state] += prob;
        }
        validate_initial(&initial, self.len)?;
        let mut failed = vec![false; self.len];
        for &state in &self.failed {
            check(state)?;
            failed[state] = true;
        }
        // Rows in state order. A stable sort by source keeps each row's
        // transitions in the order they were added, so parallel
        // transitions accumulate in that order.
        let sorted;
        let rates = if self.rates.is_sorted_by_key(|r| r.0) {
            &self.rates
        } else {
            sorted = {
                let mut rates = self.rates.clone();
                rates.sort_by_key(|r| r.0);
                rates
            };
            &sorted
        };
        let mut rates = rates.iter().peekable();
        let mut rows = CtmcRows::with_capacity(self.len, self.rates.len());
        for from in 0..self.len {
            while let Some(&(_, to, rate)) = rates.next_if(|r| r.0 == from) {
                rows.rate(to, rate);
            }
            rows.end_row();
        }
        Ok(rows.assemble(initial, failed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> Ctmc {
        CtmcBuilder::new(2)
            .initial(0, 1.0)
            .rate(0, 1, 1e-3)
            .rate(1, 0, 0.05)
            .failed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_exposes_structure() {
        let c = two_state();
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.transitions_from(0), &[(1, 1e-3)]);
        assert_eq!(c.transitions_from(1), &[(0, 0.05)]);
        assert_eq!(c.transition_count(), 2);
        assert!((c.exit_rate(0) - 1e-3).abs() < 1e-15);
        assert!((c.max_exit_rate() - 0.05).abs() < 1e-15);
        assert!(c.is_failed(1));
        assert!(!c.is_failed(0));
        assert_eq!(c.failed_states().collect::<Vec<_>>(), vec![1]);
        assert_eq!(c.initial_probability(0), 1.0);
    }

    #[test]
    fn rejects_empty_state_space() {
        assert_eq!(CtmcBuilder::new(0).build(), Err(CtmcError::EmptyStateSpace));
    }

    #[test]
    fn rejects_out_of_range_state() {
        let err = CtmcBuilder::new(2).initial(0, 1.0).rate(0, 5, 1.0).build();
        assert_eq!(err, Err(CtmcError::StateOutOfRange { state: 5, len: 2 }));
        let err = CtmcBuilder::new(2).initial(0, 1.0).failed(9).build();
        assert_eq!(err, Err(CtmcError::StateOutOfRange { state: 9, len: 2 }));
    }

    #[test]
    fn rejects_negative_rate() {
        let err = CtmcBuilder::new(2).initial(0, 1.0).rate(0, 1, -1.0).build();
        assert_eq!(
            err,
            Err(CtmcError::InvalidRate {
                from: 0,
                to: 1,
                rate: -1.0
            })
        );
    }

    #[test]
    fn rejects_nan_rate() {
        let err = CtmcBuilder::new(2)
            .initial(0, 1.0)
            .rate(0, 1, f64::NAN)
            .build();
        assert!(matches!(err, Err(CtmcError::InvalidRate { .. })));
    }

    #[test]
    fn rejects_unnormalized_initial_distribution() {
        let err = CtmcBuilder::new(2).initial(0, 0.4).build();
        assert!(matches!(
            err,
            Err(CtmcError::InitialDistributionNotNormalized { .. })
        ));
    }

    #[test]
    fn rejects_negative_initial_probability() {
        let err = CtmcBuilder::new(2).initial(0, -0.5).initial(1, 1.5).build();
        assert!(matches!(
            err,
            Err(CtmcError::InvalidInitialProbability { .. })
        ));
    }

    #[test]
    fn zero_rates_and_self_loops_are_dropped() {
        let c = CtmcBuilder::new(2)
            .initial(0, 1.0)
            .rate(0, 1, 0.0)
            .rate(0, 0, 3.0)
            .build()
            .unwrap();
        assert_eq!(c.transition_count(), 0);
    }

    #[test]
    fn parallel_rates_accumulate() {
        let c = CtmcBuilder::new(2)
            .initial(0, 1.0)
            .rate(0, 1, 1.0)
            .rate(0, 1, 2.0)
            .build()
            .unwrap();
        assert_eq!(c.transitions_from(0), &[(1, 3.0)]);
    }

    #[test]
    fn rates_added_out_of_row_order_build_the_same_rows() {
        let mut shuffled = CtmcBuilder::new(3);
        shuffled
            .initial(0, 1.0)
            .rate(2, 0, 0.5)
            .rate(0, 2, 1.0)
            .rate(1, 2, 0.25)
            .rate(0, 1, 2.0)
            .rate(0, 2, 3.0)
            .failed(2);
        let mut rows = CtmcRows::new();
        rows.rate(2, 1.0).rate(1, 2.0).rate(2, 3.0).end_row();
        rows.rate(2, 0.25).end_row();
        rows.rate(0, 0.5).end_row();
        let direct = rows
            .build(vec![1.0, 0.0, 0.0], vec![false, false, true])
            .unwrap();
        assert_eq!(shuffled.build().unwrap(), direct);
        assert_eq!(direct.transitions_from(0), &[(2, 4.0), (1, 2.0)]);
        assert_eq!(direct.max_exit_rate(), 6.0);
    }

    /// Every basic event of a tree holds its chain inline, so the chain's
    /// sparse rows replace the cached exit rates rather than adding to
    /// them.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_chain_is_four_vectors_and_a_rate() {
        assert_eq!(std::mem::size_of::<Ctmc>(), 104);
    }

    #[test]
    fn row_builder_drops_self_loops_and_validates() {
        let mut rows = CtmcRows::new();
        rows.rate(0, 5.0).rate(1, 0.0).rate(1, 1.0).end_row();
        rows.end_row();
        let chain = rows.build(vec![1.0, 0.0], vec![false, true]).unwrap();
        assert_eq!(chain.transitions_from(0), &[(1, 1.0)]);
        assert_eq!(chain.transition_count(), 1);

        assert_eq!(
            CtmcRows::new().build(Vec::new(), Vec::new()),
            Err(CtmcError::EmptyStateSpace)
        );
        let mut rows = CtmcRows::new();
        rows.rate(1, -1.0).end_row().end_row();
        assert_eq!(
            rows.build(vec![1.0, 0.0], vec![false; 2]),
            Err(CtmcError::InvalidRate {
                from: 0,
                to: 1,
                rate: -1.0
            })
        );
        let mut rows = CtmcRows::new();
        rows.rate(4, 1.0).end_row();
        assert_eq!(
            rows.build(vec![1.0], vec![false]),
            Err(CtmcError::StateOutOfRange { state: 4, len: 1 })
        );
        let mut rows = CtmcRows::new();
        rows.end_row();
        assert!(rows.clone().build(vec![1.0], vec![false; 2]).is_err());
        assert!(matches!(
            rows.build(vec![0.5], vec![false]),
            Err(CtmcError::InitialDistributionNotNormalized { .. })
        ));
    }

    #[test]
    fn cached_rates_follow_transforms() {
        let c = two_state();
        let scaled = c.with_scaled_rates(2.0).unwrap();
        assert!((scaled.exit_rate(0) - 2e-3).abs() < 1e-15);
        assert!((scaled.max_exit_rate() - 0.1).abs() < 1e-15);
        let zeroed = c.with_scaled_rates(0.0).unwrap();
        assert_eq!(zeroed.max_exit_rate(), 0.0);
        assert_eq!(zeroed.exit_rate(1), 0.0);
    }

    #[test]
    fn with_initial_distribution_replaces_and_validates() {
        let c = two_state()
            .with_initial_distribution(vec![0.25, 0.75])
            .unwrap();
        assert_eq!(c.initial_distribution(), &[0.25, 0.75]);
        let err = two_state().with_initial_distribution(vec![0.5, 0.1]);
        assert!(matches!(
            err,
            Err(CtmcError::InitialDistributionNotNormalized { .. })
        ));
        let err = two_state().with_initial_distribution(vec![1.0]);
        assert!(matches!(err, Err(CtmcError::StateOutOfRange { .. })));
    }
}
