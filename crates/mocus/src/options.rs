/// Tuning options for the MOCUS cutset generator.
///
/// The defaults match the paper's experimental setup: cutoff `10⁻¹⁵`, no
/// order limit, and generous safety budgets for pathological inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MocusOptions {
    /// Discard any (partial) cutset whose probability is not strictly
    /// above this value; `None` disables probabilistic pruning.
    ///
    /// For coherent trees the cutoff is conservative: refining a partial
    /// cutset can only multiply its probability by further factors ≤ 1, so
    /// no cutset above the cutoff is ever lost (§IV-B). With a cutoff
    /// set, a look-ahead bound also prunes partial cutsets whose pending
    /// gates can no longer reach it (per-gate best-completion bounds over
    /// disjoint subtrees; equally sound), and an OR branch is pruned
    /// before it is built when its parent's look-ahead times the branch's
    /// own best completion cannot reach it.
    pub cutoff: Option<f64>,
    /// Discard any (partial) cutset with more events than this.
    pub max_order: Option<usize>,
    /// Abort once more than this many cutset candidates were generated.
    pub max_cutsets: usize,
    /// Abort once more than this many partial cutsets were processed.
    /// Transfer gates (gates with one input) are expanded as the node
    /// they stand for, so they do not count against this budget.
    pub max_partials: usize,
    /// Abort when a single at-least gate would expand into more than this
    /// many combinations.
    pub max_combinations: u128,
    /// Ignored. Expansion and minimization always run on the calling
    /// thread; the field remains so that existing option literals keep
    /// compiling.
    pub threads: usize,
}

impl Default for MocusOptions {
    fn default() -> Self {
        MocusOptions {
            cutoff: Some(1e-15),
            max_order: None,
            max_cutsets: 10_000_000,
            max_partials: 200_000_000,
            max_combinations: 1_000_000,
            threads: 0,
        }
    }
}

impl MocusOptions {
    /// Options with the given cutoff and all other fields at their
    /// defaults.
    #[must_use]
    pub fn with_cutoff(cutoff: f64) -> Self {
        MocusOptions {
            cutoff: Some(cutoff),
            ..Self::default()
        }
    }

    /// Options with pruning disabled (exact minimal cutsets).
    #[must_use]
    pub fn exhaustive() -> Self {
        MocusOptions {
            cutoff: None,
            ..Self::default()
        }
    }
}
