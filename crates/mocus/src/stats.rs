/// Counters describing one MOCUS run.
///
/// Expansion runs depth-first on one thread, so every counter is a
/// function of the tree and the options alone (when no safety budget
/// aborts the run): repeated runs report the same values. Only
/// `minimize_time` is a wall-clock measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MocusStats {
    /// Partial cutsets processed (popped and expanded), leaves included.
    pub partials_processed: u64,
    /// Branches discarded by the cutoff, order limit or look-ahead bound.
    pub partials_pruned: u64,
    /// Cutset candidates emitted before minimization.
    pub cutset_candidates: u64,
    /// Subset tests the minimization pass performed.
    pub subsumption_comparisons: u64,
    /// Peak number of live partial cutsets (queued and not yet
    /// expanded).
    pub peak_live_partials: u64,
    /// Approximate peak bytes held by live partial cutsets.
    pub peak_partial_bytes: u64,
    /// Wall-clock time of the one-pass batch minimization (zero when
    /// streaming — the filter stage owns minimization there).
    pub minimize_time: std::time::Duration,
}
