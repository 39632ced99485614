/// Counters describing one MOCUS run.
///
/// Expansion runs depth-first on one thread, so every counter is a
/// function of the tree and the options alone (when no safety budget
/// aborts the run): repeated runs report the same values. Only
/// `minimize_time` is a wall-clock measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MocusStats {
    /// Partial cutsets processed (popped and expanded), leaves included.
    /// A gate with one input (a transfer gate) is never a partial of its
    /// own: MOCUS expands the node it stands for in its place.
    pub partials_processed: u64,
    /// Branches discarded by the cutoff, order limit or look-ahead bound,
    /// including the OR branches the parent's look-ahead discards before
    /// they are built.
    pub partials_pruned: u64,
    /// Cutset candidates emitted before minimization.
    pub cutset_candidates: u64,
    /// Subset tests the minimize passes performed.
    pub subsumption_comparisons: u64,
    /// Candidates the minimize passes dropped as duplicates or subsumed.
    pub candidates_rejected: u64,
    /// Peak length of the candidate buffer, sampled before each minimize
    /// pass: a batch run's candidate count; in a streaming run, a
    /// function of the candidates' order, not only of their multiset.
    pub peak_pending_cutsets: u64,
    /// Peak number of live partial cutsets (queued and not yet
    /// expanded).
    pub peak_live_partials: u64,
    /// Approximate peak bytes held by live partial cutsets.
    pub peak_partial_bytes: u64,
    /// Wall-clock time of the minimize passes: a batch run's one pass,
    /// or every re-minimize and release of a streaming run.
    pub minimize_time: std::time::Duration,
}

impl MocusStats {
    /// Fold another run's counters into these: counts and times add up,
    /// peaks take the maximum (runs hold their state one at a time).
    pub fn absorb(&mut self, other: &MocusStats) {
        self.partials_processed += other.partials_processed;
        self.partials_pruned += other.partials_pruned;
        self.cutset_candidates += other.cutset_candidates;
        self.subsumption_comparisons += other.subsumption_comparisons;
        self.candidates_rejected += other.candidates_rejected;
        self.peak_pending_cutsets = self.peak_pending_cutsets.max(other.peak_pending_cutsets);
        self.peak_live_partials = self.peak_live_partials.max(other.peak_live_partials);
        self.peak_partial_bytes = self.peak_partial_bytes.max(other.peak_partial_bytes);
        self.minimize_time += other.minimize_time;
    }
}
