use crate::hash::FxBuild;
use crate::node::NodeId;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A cutset: a set of basic events whose joint failure fails the top gate
/// (§IV-A of the paper).
///
/// Events are kept sorted and deduplicated; two cutsets are equal iff they
/// contain the same events.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cutset {
    events: Vec<NodeId>,
}

impl Cutset {
    /// Build a cutset from any collection of events (sorted, deduplicated).
    #[must_use]
    pub fn new<I>(events: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut events: Vec<NodeId> = events.into_iter().collect();
        events.sort_unstable();
        events.dedup();
        Cutset { events }
    }

    /// The events of the cutset, sorted by id.
    #[must_use]
    pub fn events(&self) -> &[NodeId] {
        &self.events
    }

    /// The order (number of events) of the cutset.
    #[must_use]
    pub fn order(&self) -> usize {
        self.events.len()
    }

    /// Whether the cutset is empty (fails the top gate unconditionally).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether `event` is in the cutset.
    #[must_use]
    pub fn contains(&self, event: NodeId) -> bool {
        self.events.binary_search(&event).is_ok()
    }

    /// Whether every event of `self` is in `other`.
    #[must_use]
    pub fn is_subset_of(&self, other: &Cutset) -> bool {
        if self.events.len() > other.events.len() {
            return false;
        }
        // Merge walk over the two sorted lists.
        let mut oi = 0;
        'outer: for &e in &self.events {
            while oi < other.events.len() {
                match other.events[oi].cmp(&e) {
                    std::cmp::Ordering::Less => oi += 1,
                    std::cmp::Ordering::Equal => {
                        oi += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// `∏ p(a)` over the events of the cutset, with probabilities supplied
    /// by `prob` (property ii of §IV-A).
    #[must_use]
    pub fn probability_with<F>(&self, mut prob: F) -> f64
    where
        F: FnMut(NodeId) -> f64,
    {
        self.events.iter().map(|&e| prob(e)).product()
    }

    /// Remap every event id through `f` in place, reusing the
    /// allocation. `f` must be strictly monotone over the current
    /// (sorted, deduplicated) events, so the result needs no re-sort —
    /// the debug assertion checks it.
    #[must_use]
    pub fn map_events_monotone<F>(mut self, f: F) -> Self
    where
        F: FnMut(NodeId) -> NodeId,
    {
        let mut f = f;
        for e in &mut self.events {
            *e = f(*e);
        }
        debug_assert!(
            self.events.windows(2).all(|w| w[0] < w[1]),
            "event mapping must be strictly monotone"
        );
        self
    }

    /// Deterministic shard assignment for sharded minimization: an
    /// FxHash over the order and the sorted event list, reduced mod
    /// `shards`. Equal cutsets always land in the same shard (so
    /// duplicates co-locate), and the key depends only on the cutset —
    /// never on arrival order, thread count, or process state — so a
    /// sharded run partitions the candidate stream identically on every
    /// host.
    #[must_use]
    pub fn shard_key(&self, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        use std::hash::{Hash, Hasher};
        let mut h = crate::hash::FxHasher::default();
        self.events.hash(&mut h);
        (h.finish() % shards as u64) as usize
    }
}

/// The canonical cutset ordering: ascending order, then lexicographic
/// events — the order every minimized list is reported in.
fn canonical_cmp(a: &Cutset, b: &Cutset) -> std::cmp::Ordering {
    a.order()
        .cmp(&b.order())
        .then_with(|| a.events.cmp(&b.events))
}

/// Visit every size-`s` subset of `events` (indices ascending,
/// lexicographic), calling `probe` on each; returns `true` at the first
/// probe that returns `true`. `comb` and `buf` are caller-owned scratch.
fn any_subset_of_size(
    events: &[NodeId],
    s: usize,
    comb: &mut Vec<usize>,
    buf: &mut Vec<NodeId>,
    mut probe: impl FnMut(&[NodeId]) -> bool,
) -> bool {
    let m = events.len();
    debug_assert!(s >= 1 && s < m);
    comb.clear();
    comb.extend(0..s);
    loop {
        buf.clear();
        buf.extend(comb.iter().map(|&i| events[i]));
        if probe(buf.as_slice()) {
            return true;
        }
        // Advance to the next combination of `s` indices out of `m`.
        let mut i = s;
        loop {
            if i == 0 {
                return false;
            }
            i -= 1;
            if comb[i] != i + m - s {
                comb[i] += 1;
                for j in i + 1..s {
                    comb[j] = comb[j - 1] + 1;
                }
                break;
            }
        }
    }
}

impl FromIterator<NodeId> for Cutset {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Cutset::new(iter)
    }
}

impl fmt::Display for Cutset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

/// A list of cutsets, typically the minimal cutsets of a fault tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CutsetList {
    cutsets: Vec<Cutset>,
}

impl CutsetList {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing vector of cutsets (no minimization performed).
    #[must_use]
    pub fn from_vec(cutsets: Vec<Cutset>) -> Self {
        CutsetList { cutsets }
    }

    /// Number of cutsets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cutsets.len()
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cutsets.is_empty()
    }

    /// The cutsets, in list order.
    pub fn iter(&self) -> impl Iterator<Item = &Cutset> {
        self.cutsets.iter()
    }

    /// The `i`-th cutset.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&Cutset> {
        self.cutsets.get(i)
    }

    /// Whether the list contains exactly this set of events.
    #[must_use]
    pub fn contains_set(&self, cutset: &Cutset) -> bool {
        self.cutsets.iter().any(|c| c == cutset)
    }

    /// Add a cutset (no minimization).
    pub fn push(&mut self, cutset: Cutset) {
        self.cutsets.push(cutset);
    }

    /// Remove duplicates and non-minimal cutsets, keeping exactly the
    /// minimal ones; the result is sorted by (order, events).
    ///
    /// Uses subset enumeration for small cutsets and an inverted-index
    /// counting pass for large ones, so minimizing lists with ~10^5
    /// cutsets of small order stays fast.
    #[must_use]
    pub fn minimize(self) -> Self {
        self.minimize_with_stats(1).0
    }

    /// Like [`minimize`](Self::minimize), sharded over `threads` worker
    /// threads, also returning the number of subset tests performed.
    ///
    /// A candidate is dropped iff some *other candidate* is a proper
    /// subset of it — equivalent to dropping against kept (minimal) sets
    /// only, because any non-minimal subset itself contains a minimal
    /// one. This makes every candidate's verdict independent of the
    /// others', so candidates shard into chunks freely; both the result
    /// and the comparison count are identical for every thread count.
    #[must_use]
    pub fn minimize_with_stats(mut self, threads: usize) -> (Self, u64) {
        const ENUM_LIMIT: usize = 12;
        const CHUNK: usize = 2048;
        self.cutsets.sort_unstable_by(|a, b| {
            a.order()
                .cmp(&b.order())
                .then_with(|| a.events.cmp(&b.events))
        });
        self.cutsets.dedup();
        // An empty cutset (sorted first) subsumes every other set.
        if self.cutsets.first().is_some_and(Cutset::is_empty) {
            self.cutsets.truncate(1);
            return (self, 0);
        }
        let n = self.cutsets.len();
        if n <= 1 {
            return (self, 0);
        }

        let (keep, comparisons) = {
            let candidates = &self.cutsets;
            // Exact-set probe index, bucketed by order: a candidate of
            // order m can only be subsumed by sets of order < m, so
            // probes walk subset sizes ascending and skip sizes with no
            // candidates at all instead of paying for all 2^m subsets.
            let max_order = candidates.last().map_or(0, Cutset::order);
            let mut order_sets: Vec<HashSet<&[NodeId], FxBuild>> =
                (0..=max_order).map(|_| HashSet::default()).collect();
            for c in candidates {
                order_sets[c.order()].insert(c.events());
            }
            // Inverted index for the counting path, built only when some
            // candidate exceeds the enumeration limit (orders ascend).
            let needs_index = candidates.last().is_some_and(|c| c.order() > ENUM_LIMIT);
            let by_event: HashMap<NodeId, Vec<usize>, FxBuild> = if needs_index {
                let mut index: HashMap<NodeId, Vec<usize>, FxBuild> = HashMap::default();
                for (i, c) in candidates.iter().enumerate() {
                    for &e in c.events() {
                        index.entry(e).or_default().push(i);
                    }
                }
                index
            } else {
                HashMap::default()
            };

            // Whether candidate `ci` is minimal; `comparisons` counts the
            // subset tests. Self-contained per candidate.
            let check = |ci: usize, comparisons: &mut u64| -> bool {
                let cutset = &candidates[ci];
                if cutset.order() <= ENUM_LIMIT {
                    // Enumerate proper non-empty subsets by ascending
                    // size, skipping sizes with no candidates.
                    let m = cutset.order();
                    let mut comb: Vec<usize> = Vec::with_capacity(m);
                    let mut buf: Vec<NodeId> = Vec::with_capacity(m);
                    for (s, bucket) in order_sets.iter().enumerate().take(m).skip(1) {
                        if bucket.is_empty() {
                            continue;
                        }
                        let hit =
                            any_subset_of_size(cutset.events(), s, &mut comb, &mut buf, |sub| {
                                *comparisons += 1;
                                bucket.contains(sub)
                            });
                        if hit {
                            return false;
                        }
                    }
                    true
                } else {
                    // Counting pass over the inverted index: a smaller
                    // candidate K is a subset iff every one of its events
                    // is shared, i.e. its hit count reaches |K|. Only
                    // strictly smaller orders can be proper subsets, and
                    // orders ascend with the index, so the lists cut off
                    // early.
                    let mut hits: HashMap<usize, u32, FxBuild> = HashMap::default();
                    for &e in cutset.events() {
                        if let Some(list) = by_event.get(&e) {
                            for &ki in list {
                                if ki >= ci || candidates[ki].order() >= cutset.order() {
                                    break;
                                }
                                *comparisons += 1;
                                let hit = hits.entry(ki).or_insert(0);
                                *hit += 1;
                                if *hit as usize == candidates[ki].order() {
                                    return false;
                                }
                            }
                        }
                    }
                    true
                }
            };

            let mut keep = vec![true; n];
            let mut comparisons: u64 = 0;
            if threads <= 1 || n < 2 * CHUNK {
                for (ci, flag) in keep.iter_mut().enumerate() {
                    *flag = check(ci, &mut comparisons);
                }
            } else {
                // Deterministic sharding: fixed chunks claimed through an
                // atomic cursor; verdicts land at fixed offsets and the
                // comparison counts sum to the same total regardless of
                // which worker claims which chunk.
                let next = AtomicUsize::new(0);
                let chunks: Mutex<Vec<(usize, Vec<bool>, u64)>> = Mutex::new(Vec::new());
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| {
                            let mut local: Vec<(usize, Vec<bool>, u64)> = Vec::new();
                            loop {
                                let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                                if start >= n {
                                    break;
                                }
                                let end = (start + CHUNK).min(n);
                                let mut flags = Vec::with_capacity(end - start);
                                let mut count = 0u64;
                                for ci in start..end {
                                    flags.push(check(ci, &mut count));
                                }
                                local.push((start, flags, count));
                            }
                            chunks.lock().expect("chunk results").append(&mut local);
                        });
                    }
                });
                for (start, flags, count) in chunks.lock().expect("chunk results").drain(..) {
                    keep[start..start + flags.len()].copy_from_slice(&flags);
                    comparisons += count;
                }
            }
            (keep, comparisons)
        };

        let cutsets = std::mem::take(&mut self.cutsets);
        self.cutsets = cutsets
            .into_iter()
            .zip(keep)
            .filter_map(|(c, k)| k.then_some(c))
            .collect();
        (self, comparisons)
    }

    /// The rare-event approximation `Σ_C ∏_{a∈C} p(a)` over all cutsets in
    /// the list (§IV-A, property iii).
    #[must_use]
    pub fn rare_event_approximation<F>(&self, mut prob: F) -> f64
    where
        F: FnMut(NodeId) -> f64,
    {
        // `Sum for f64` folds from -0.0; normalize so an empty list
        // reports a plain 0.0.
        let sum: f64 = self
            .cutsets
            .iter()
            .map(|c| c.probability_with(&mut prob))
            .sum();
        sum + 0.0
    }

    /// Sort the list by descending cutset probability.
    pub fn sort_by_probability_desc<F>(&mut self, mut prob: F)
    where
        F: FnMut(NodeId) -> f64,
    {
        let mut keyed: Vec<(f64, Cutset)> = std::mem::take(&mut self.cutsets)
            .into_iter()
            .map(|c| (c.probability_with(&mut prob), c))
            .collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        self.cutsets = keyed.into_iter().map(|(_, c)| c).collect();
    }
}

/// Controls when the incremental filter abandons per-offer probing for
/// a buffered one-pass merge (the "batch fallback").
///
/// [`Adaptive`](Self::Adaptive) watches the observed probe rate: when
/// offers are paying substantially more subset tests than the
/// enumeration floor a one-pass minimize would also pay (heavy eviction
/// churn, deferred-compaction sweeps), the minimizer stops probing per
/// offer and buffers candidates, merging them in sorted one-pass
/// batches instead. [`Always`]/[`Never`](Self::Never) force the
/// respective path; they exist as a test seam — the analysis engine
/// always runs [`Adaptive`](Self::Adaptive).
///
/// [`Always`]: Self::Always
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackMode {
    /// Fall back per epoch when the cost model says streaming can't win.
    #[default]
    Adaptive,
    /// Buffer-and-merge from the first candidate.
    Always,
    /// Pure incremental probing, never buffer.
    Never,
}

impl fmt::Display for FallbackMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FallbackMode::Adaptive => "adaptive",
            FallbackMode::Always => "always",
            FallbackMode::Never => "never",
        })
    }
}

/// Counters exposed by an [`IncrementalMinimizer`]. All counts depend on
/// the offer order, so a streaming pipeline must treat them as
/// schedule-dependent diagnostics, not part of the deterministic result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Candidates offered (including buffered ones).
    pub offered: u64,
    /// Subset tests performed (hashed probes, merge walks and counting
    /// steps alike).
    pub probes: u64,
    /// Offers rejected as duplicates or subsumed.
    pub rejects: u64,
    /// Kept sets evicted by a later-accepted subset.
    pub evictions: u64,
    /// Deferred-eviction sweeps run at compaction points.
    pub compactions: u64,
    /// Sorted one-pass merges of the fallback buffer.
    pub fallback_merges: u64,
    /// Whether this minimizer entered (or was forced into) the batch
    /// fallback.
    pub fell_back: bool,
}

/// Per-order exact-set probe bucket of the incremental minimizer.
#[derive(Debug, Default)]
struct OrderBucket {
    /// Event list → slot id of every live kept set of this order.
    map: HashMap<Box<[NodeId]>, u32, FxBuild>,
    /// Accept sequence of the newest accept *of this order whose
    /// superset eviction was deferred*. A live set needs re-probing at
    /// this size only when this exceeds its own verification sequence:
    /// any other subsumer would either have rejected it on offer
    /// (accepted earlier) or evicted it eagerly (accepted later,
    /// eviction not deferred).
    last_deferred: u32,
}

/// Online minimization of a stream of cutset candidates.
///
/// An [`offer`](Self::offer) is rejected when a kept set is a subset of
/// it (or an exact duplicate); kept supersets of an accepted candidate
/// are evicted, so [`into_sorted`](Self::into_sorted) returns exactly
/// [`CutsetList::minimize`] of the offered multiset, for every offer
/// order. A streaming pipeline can therefore keep only roughly the
/// current minimal sets resident instead of every candidate.
///
/// Rejection uses hashed subset enumeration against an index *bucketed
/// by order*: a candidate of order `m` can only be subsumed by kept
/// sets of order `< m`, so probes walk subset sizes ascending and skip
/// sizes that hold no kept sets, instead of paying for all `2^m − 2`
/// subsets. Per-offer cost does not grow with the number of kept sets.
///
/// Eviction of kept supersets is eager when the accepted candidate's
/// rarest event indexes few kept sets, and deferred otherwise. Deferred
/// evictions are settled by a sweep at the next compaction point
/// (residency doubling), pruned per slot: a live set is re-probed only
/// at sizes whose bucket recorded a deferred evictor *after* the set
/// was last verified minimal, which makes the sweep nearly free when
/// deferrals are rare and bounded by the deferred-evictor orders when
/// they are not.
///
/// [`absorb`](Self::absorb) is the verdict-free streaming entry point
/// that additionally honors a [`FallbackMode`]: buffered candidates are
/// merged in sorted one-pass batches whose per-candidate cost matches
/// the batch [`CutsetList::minimize`], for epochs where incremental
/// probing cannot win.
#[derive(Debug)]
pub struct IncrementalMinimizer {
    /// Kept cutsets; `None` marks an evicted slot (ids are never
    /// reused). The slot id doubles as the insertion sequence.
    slots: Vec<Option<Cutset>>,
    /// Exact event-list → slot id, bucketed by order, for duplicate
    /// detection and subset-enumeration probes.
    buckets: Vec<OrderBucket>,
    /// Event → slot ids whose cutset contains the event (may contain
    /// stale ids of evicted slots; compacted lazily).
    by_event: HashMap<NodeId, Vec<u32>, FxBuild>,
    /// Scratch for subset enumeration (reused across offers).
    subset_buf: Vec<NodeId>,
    /// Scratch combination indices for subset enumeration.
    comb_buf: Vec<usize>,
    /// The empty cutset subsumes everything; it lives outside the index.
    has_empty: bool,
    live: usize,
    /// Live kept sets per order, for the eviction pre-check: an accept
    /// of order `m` can only evict sets of order `> m`.
    live_by_order: Vec<u32>,
    /// Residency threshold that triggers the next compaction.
    compact_at: usize,
    /// Per-slot accept sequence at the last proof of minimality (the
    /// insert, or the last sweep that cleared it).
    verified: Vec<u32>,
    /// Monotone accept counter.
    accept_seq: u32,
    /// Whether any eviction has been deferred since the last sweep.
    deferred: bool,
    /// Accepted offers and the probes they spent on the accept path —
    /// the enumeration floor a one-pass minimize would also pay.
    accepts: u64,
    accept_probes: u64,
    mode: FallbackMode,
    /// Whether `absorb` currently buffers instead of probing.
    buffering: bool,
    buffer: Vec<Cutset>,
    stats: FilterStats,
}

impl Default for IncrementalMinimizer {
    fn default() -> Self {
        IncrementalMinimizer {
            slots: Vec::new(),
            buckets: Vec::new(),
            by_event: HashMap::default(),
            subset_buf: Vec::new(),
            comb_buf: Vec::new(),
            has_empty: false,
            live: 0,
            live_by_order: Vec::new(),
            compact_at: Self::MIN_COMPACT,
            verified: Vec::new(),
            accept_seq: 0,
            deferred: false,
            accepts: 0,
            accept_probes: 0,
            mode: FallbackMode::Adaptive,
            buffering: false,
            buffer: Vec::new(),
            stats: FilterStats::default(),
        }
    }
}

/// Probe for a live proper subset of `events` in the order-bucketed
/// index via subset enumeration. With `newer_than = Some(v)` only sizes
/// whose bucket recorded a deferred evictor after sequence `v` are
/// probed (the compaction sweep); `None` probes every non-empty size
/// (the offer path).
fn enum_probe(
    buckets: &[OrderBucket],
    events: &[NodeId],
    newer_than: Option<u32>,
    comb: &mut Vec<usize>,
    buf: &mut Vec<NodeId>,
    probes: &mut u64,
) -> bool {
    let m = events.len();
    for (s, bucket) in buckets.iter().enumerate().take(m).skip(1) {
        if bucket.map.is_empty() {
            continue;
        }
        if let Some(v) = newer_than {
            if bucket.last_deferred <= v {
                continue;
            }
        }
        let hit = any_subset_of_size(events, s, comb, buf, |sub| {
            *probes += 1;
            bucket.map.contains_key(sub)
        });
        if hit {
            return true;
        }
    }
    false
}

/// Counting-pass probe for a live proper subset of `events` (order
/// `m > ENUM_LIMIT`), skipping slot `skip_id` (the probed set itself
/// when it is already kept).
fn counting_probe(
    slots: &[Option<Cutset>],
    by_event: &HashMap<NodeId, Vec<u32>, FxBuild>,
    events: &[NodeId],
    m: usize,
    skip_id: u32,
    probes: &mut u64,
) -> bool {
    let mut hits: HashMap<u32, u32, FxBuild> = HashMap::default();
    for &e in events {
        let Some(list) = by_event.get(&e) else {
            continue;
        };
        for &ki in list {
            if ki == skip_id {
                continue;
            }
            let Some(kept) = slots[ki as usize].as_ref() else {
                continue;
            };
            if kept.order() >= m {
                continue;
            }
            *probes += 1;
            let hit = hits.entry(ki).or_insert(0);
            *hit += 1;
            if *hit as usize == kept.order() {
                return true;
            }
        }
    }
    false
}

impl IncrementalMinimizer {
    /// Largest candidate order handled by subset enumeration (the same
    /// bound as the batch [`CutsetList::minimize`]).
    const ENUM_LIMIT: usize = 12;
    /// Eager eviction scans the candidate's shortest index list only up
    /// to this length; longer scans are left to the next compaction.
    const EVICT_SCAN_LIMIT: usize = 64;
    /// Compactions never trigger below this residency, and the fallback
    /// buffer always holds at least this many candidates before a merge.
    const MIN_COMPACT: usize = 4096;
    /// The adaptive cost model is consulted every this many offers.
    const FALLBACK_CHECK: u64 = 8192;

    /// An empty minimizer with the default [`FallbackMode::Adaptive`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty minimizer with an explicit fallback mode (only
    /// [`absorb`](Self::absorb) buffers; [`offer`](Self::offer) always
    /// probes so its verdict stays exact).
    #[must_use]
    pub fn with_mode(mode: FallbackMode) -> Self {
        IncrementalMinimizer {
            mode,
            buffering: mode == FallbackMode::Always,
            stats: FilterStats {
                fell_back: mode == FallbackMode::Always,
                ..FilterStats::default()
            },
            ..Self::default()
        }
    }

    /// Number of currently resident cutsets, counting both kept sets
    /// and buffered fallback candidates. Between compactions this may
    /// exceed the true minimal count by the supersets whose eviction
    /// was deferred (at most a doubling before a compaction runs) plus
    /// the unmerged buffer (at most half the kept count, see
    /// [`absorb`](Self::absorb)).
    #[must_use]
    pub fn len(&self) -> usize {
        if self.has_empty {
            1
        } else {
            self.live + self.buffer.len()
        }
    }

    /// Whether no cutset has been kept yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Subset tests performed so far. Unlike the batch count this
    /// depends on the offer order.
    #[must_use]
    pub fn comparisons(&self) -> u64 {
        self.stats.probes
    }

    /// The filter counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Offer a candidate. Returns `true` if it was kept (no kept set is
    /// a subset of it); kept proper supersets are evicted, eagerly when
    /// cheap and otherwise at the next compaction. Returns `false` if a
    /// kept set already subsumes it (including an exact duplicate).
    ///
    /// The verdict is exact: any pending fallback buffer is merged
    /// first so the answer accounts for every candidate absorbed so
    /// far.
    pub fn offer(&mut self, cutset: Cutset) -> bool {
        if !self.buffer.is_empty() {
            self.merge();
        }
        self.stats.offered += 1;
        self.offer_internal(cutset)
    }

    /// Verdict-free streaming ingestion honoring the [`FallbackMode`]:
    /// either probes immediately (and consults the adaptive cost model)
    /// or appends to the fallback buffer, which is merged in a sorted
    /// one-pass batch once it reaches half the kept count (at least
    /// [`MIN_COMPACT`](Self::MIN_COMPACT)) — keeping residency bounded
    /// while paying batch-minimize cost per unique candidate.
    pub fn absorb(&mut self, cutset: Cutset) {
        self.stats.offered += 1;
        if self.buffering {
            if self.has_empty {
                self.stats.rejects += 1;
                return;
            }
            self.buffer.push(cutset);
            if self.buffer.len() >= (self.live / 2).max(Self::MIN_COMPACT) {
                self.merge();
            }
        } else {
            self.offer_internal(cutset);
            self.maybe_fall_back();
        }
    }

    fn offer_internal(&mut self, cutset: Cutset) -> bool {
        if self.has_empty {
            self.stats.rejects += 1;
            return false;
        }
        if cutset.is_empty() {
            self.clear_kept();
            self.has_empty = true;
            return true;
        }
        let m = cutset.order();
        let probes_before = self.stats.probes;
        self.stats.probes += 1;
        if self
            .buckets
            .get(m)
            .is_some_and(|b| b.map.contains_key(cutset.events()))
        {
            self.stats.rejects += 1;
            return false; // exact duplicate
        }
        let subsumed = if m <= Self::ENUM_LIMIT {
            let mut comb = std::mem::take(&mut self.comb_buf);
            let mut buf = std::mem::take(&mut self.subset_buf);
            let mut probes = 0u64;
            let hit = enum_probe(
                &self.buckets,
                cutset.events(),
                None,
                &mut comb,
                &mut buf,
                &mut probes,
            );
            self.comb_buf = comb;
            self.subset_buf = buf;
            self.stats.probes += probes;
            hit
        } else {
            self.counting_probe_compacting(&cutset)
        };
        if subsumed {
            self.stats.rejects += 1;
            return false;
        }
        // Accepted.
        self.accepts += 1;
        self.accept_probes += self.stats.probes - probes_before;
        self.accept_seq += 1;
        // Kept supersets can only exist at strictly larger orders;
        // when none are live the eviction machinery is skipped whole.
        let may_have_supersets = self.live_by_order.iter().skip(m + 1).any(|&n| n > 0);
        if may_have_supersets && !self.evict_supersets_of(&cutset) {
            self.buckets_entry(m).last_deferred = self.accept_seq;
            self.deferred = true;
        }
        self.insert(cutset);
        if self.live >= self.compact_at {
            self.compact();
        }
        true
    }

    /// Counting-pass rejection probe for an oversized offer, compacting
    /// stale ids out of the index lists it walks.
    fn counting_probe_compacting(&mut self, cutset: &Cutset) -> bool {
        let m = cutset.order();
        let mut hits: HashMap<u32, u32, FxBuild> = HashMap::default();
        for &e in cutset.events() {
            let Some(list) = self.by_event.get_mut(&e) else {
                continue;
            };
            let mut w = 0;
            for r in 0..list.len() {
                let ki = list[r];
                let Some(kept) = self.slots[ki as usize].as_ref() else {
                    continue; // stale id — drop it while we're here
                };
                list[w] = ki;
                w += 1;
                if kept.order() >= m {
                    continue;
                }
                self.stats.probes += 1;
                let hit = hits.entry(ki).or_insert(0);
                *hit += 1;
                if *hit as usize == kept.order() {
                    // Early reject: `w..=r` was already compacted.
                    list.drain(w..=r);
                    return true;
                }
            }
            list.truncate(w);
        }
        false
    }

    /// Try to evict every kept proper superset of `cutset` eagerly.
    /// Returns `false` when the scan was too expensive and eviction is
    /// deferred to the next compaction sweep.
    fn evict_supersets_of(&mut self, cutset: &Cutset) -> bool {
        // Every superset contains every event of `cutset`, so scanning
        // the index list of its rarest event finds them all.
        let probe = cutset
            .events()
            .iter()
            .copied()
            .min_by_key(|e| self.by_event.get(e).map_or(0, Vec::len));
        let Some(e) = probe else {
            return true;
        };
        let len = self.by_event.get(&e).map_or(0, Vec::len);
        if len == 0 {
            return true;
        }
        if len > Self::EVICT_SCAN_LIMIT {
            return false;
        }
        let mut list = self.by_event.remove(&e).unwrap_or_default();
        let mut w = 0;
        for r in 0..list.len() {
            let ki = list[r];
            if self.slots[ki as usize].is_none() {
                continue; // stale id
            }
            self.stats.probes += 1;
            let subsumed = self.slots[ki as usize]
                .as_ref()
                .is_some_and(|kept| cutset.is_subset_of(kept));
            if subsumed {
                self.evict(ki);
                continue;
            }
            list[w] = ki;
            w += 1;
        }
        list.truncate(w);
        self.by_event.insert(e, list);
        true
    }

    fn evict(&mut self, id: u32) {
        let kept = self.slots[id as usize].take().expect("live slot");
        let order = kept.order();
        if let Some(bucket) = self.buckets.get_mut(order) {
            bucket.map.remove(kept.events());
        }
        self.live -= 1;
        self.live_by_order[order] -= 1;
        self.stats.evictions += 1;
    }

    fn buckets_entry(&mut self, order: usize) -> &mut OrderBucket {
        if self.buckets.len() <= order {
            self.buckets.resize_with(order + 1, OrderBucket::default);
        }
        &mut self.buckets[order]
    }

    fn insert(&mut self, cutset: Cutset) {
        let m = cutset.order();
        let id = u32::try_from(self.slots.len()).expect("slot ids fit in u32");
        for &e in cutset.events() {
            self.by_event.entry(e).or_default().push(id);
        }
        if self.live_by_order.len() <= m {
            self.live_by_order.resize(m + 1, 0);
        }
        self.buckets_entry(m)
            .map
            .insert(cutset.events().to_vec().into_boxed_slice(), id);
        self.slots.push(Some(cutset));
        self.verified.push(self.accept_seq);
        self.live += 1;
        self.live_by_order[m] += 1;
    }

    fn clear_kept(&mut self) {
        self.slots.clear();
        self.buckets.clear();
        self.by_event.clear();
        self.verified.clear();
        self.live = 0;
        self.live_by_order.clear();
        self.compact_at = Self::MIN_COMPACT;
        self.deferred = false;
        self.buffer.clear();
    }

    /// Settle deferred evictions if any, then raise the compaction
    /// threshold to double the (now exact) residency.
    fn compact(&mut self) {
        if self.deferred {
            self.stats.compactions += 1;
            self.sweep();
            self.deferred = false;
        }
        self.compact_at = (self.live * 2).max(Self::MIN_COMPACT);
    }

    /// Re-verify every live set against deferred evictors accepted
    /// since its last verification. A live set `T` can only have become
    /// non-minimal through a subsumer accepted after it (an earlier one
    /// would have rejected `T` on offer) whose eviction was deferred
    /// (an eager eviction would have removed `T` on the spot), so only
    /// sizes whose bucket recorded a deferred evictor after `T`'s
    /// verification sequence need re-probing — and any hit at those
    /// sizes is a genuine live proper subset, so evicting on it is
    /// sound even if the hit is not itself a deferred evictor.
    fn sweep(&mut self) {
        let current = self.accept_seq;
        let mut comb = std::mem::take(&mut self.comb_buf);
        let mut buf = std::mem::take(&mut self.subset_buf);
        for id in 0..self.slots.len() {
            let Some(cutset) = self.slots[id].as_ref() else {
                continue;
            };
            let t = cutset.order();
            let v = self.verified[id];
            let mut probes = 0u64;
            let subsumed = if t <= Self::ENUM_LIMIT {
                enum_probe(
                    &self.buckets,
                    cutset.events(),
                    Some(v),
                    &mut comb,
                    &mut buf,
                    &mut probes,
                )
            } else {
                let dirty = self
                    .buckets
                    .iter()
                    .take(t)
                    .skip(1)
                    .any(|b| !b.map.is_empty() && b.last_deferred > v);
                dirty
                    && counting_probe(
                        &self.slots,
                        &self.by_event,
                        cutset.events(),
                        t,
                        u32::try_from(id).expect("slot ids fit in u32"),
                        &mut probes,
                    )
            };
            self.stats.probes += probes;
            if subsumed {
                self.evict(u32::try_from(id).expect("slot ids fit in u32"));
            } else {
                self.verified[id] = current;
            }
        }
        self.comb_buf = comb;
        self.subset_buf = buf;
    }

    /// Merge the fallback buffer: sort canonically, drop duplicates,
    /// then run the one-pass offers in ascending (order, events) order —
    /// within the batch every subset precedes its supersets, so the
    /// merge performs no intra-batch evictions and pays exactly the
    /// batch-minimize enumeration per unique candidate.
    fn merge(&mut self) {
        let mut buffer = std::mem::take(&mut self.buffer);
        if buffer.is_empty() {
            return;
        }
        self.stats.fallback_merges += 1;
        buffer.sort_unstable_by(canonical_cmp);
        let before = buffer.len();
        buffer.dedup();
        self.stats.rejects += (before - buffer.len()) as u64;
        for cutset in buffer {
            self.offer_internal(cutset);
        }
    }

    /// The adaptive cost model: compare the observed probe rate per
    /// offer against the enumeration floor (probes spent on offers that
    /// were ultimately accepted — the part a one-pass minimize would
    /// also pay). When the overhead exceeds 50% the epoch switches to
    /// buffer-and-merge.
    fn maybe_fall_back(&mut self) {
        if self.mode != FallbackMode::Adaptive || self.buffering {
            return;
        }
        let offered = self.stats.offered;
        if offered < Self::FALLBACK_CHECK
            || !offered.is_multiple_of(Self::FALLBACK_CHECK)
            || self.accepts == 0
        {
            return;
        }
        // probes / offered > 1.5 × accept_probes / accepts, in integers.
        if self.stats.probes * 2 * self.accepts > self.accept_probes * 3 * offered {
            self.buffering = true;
            self.stats.fell_back = true;
        }
    }

    /// Consume the minimizer, returning the minimal cutsets sorted by
    /// (order, events) — the same canonical order the batch
    /// [`CutsetList::minimize`] produces — together with the final
    /// filter counters.
    #[must_use]
    pub fn finish(mut self) -> (Vec<Cutset>, FilterStats) {
        if !self.buffer.is_empty() {
            self.merge();
        }
        if self.has_empty {
            return (vec![Cutset::new([])], self.stats);
        }
        if self.deferred {
            self.stats.compactions += 1;
            self.sweep();
            self.deferred = false;
        }
        let mut kept: Vec<Cutset> = std::mem::take(&mut self.slots)
            .into_iter()
            .flatten()
            .collect();
        kept.sort_unstable_by(canonical_cmp);
        (kept, self.stats)
    }

    /// [`finish`](Self::finish) without the counters.
    #[must_use]
    pub fn into_sorted(self) -> Vec<Cutset> {
        self.finish().0
    }
}

impl FromIterator<Cutset> for CutsetList {
    fn from_iter<I: IntoIterator<Item = Cutset>>(iter: I) -> Self {
        CutsetList {
            cutsets: iter.into_iter().collect(),
        }
    }
}

impl Extend<Cutset> for CutsetList {
    fn extend<I: IntoIterator<Item = Cutset>>(&mut self, iter: I) {
        self.cutsets.extend(iter);
    }
}

impl IntoIterator for CutsetList {
    type Item = Cutset;
    type IntoIter = std::vec::IntoIter<Cutset>;

    fn into_iter(self) -> Self::IntoIter {
        self.cutsets.into_iter()
    }
}

impl<'a> IntoIterator for &'a CutsetList {
    type Item = &'a Cutset;
    type IntoIter = std::slice::Iter<'a, Cutset>;

    fn into_iter(self) -> Self::IntoIter {
        self.cutsets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(ids: &[usize]) -> Cutset {
        Cutset::new(ids.iter().map(|&i| NodeId::from_index(i)))
    }

    #[test]
    fn cutset_normalizes_order_and_duplicates() {
        let c = cs(&[3, 1, 3, 2]);
        assert_eq!(c.order(), 3);
        assert_eq!(
            c.events(),
            &[
                NodeId::from_index(1),
                NodeId::from_index(2),
                NodeId::from_index(3)
            ]
        );
        assert!(c.contains(NodeId::from_index(2)));
        assert!(!c.contains(NodeId::from_index(0)));
        assert_eq!(c.to_string(), "{n1, n2, n3}");
    }

    #[test]
    fn subset_relation() {
        assert!(cs(&[1, 3]).is_subset_of(&cs(&[1, 2, 3])));
        assert!(cs(&[]).is_subset_of(&cs(&[1])));
        assert!(cs(&[1]).is_subset_of(&cs(&[1])));
        assert!(!cs(&[1, 4]).is_subset_of(&cs(&[1, 2, 3])));
        assert!(!cs(&[1, 2, 3]).is_subset_of(&cs(&[1, 2])));
    }

    #[test]
    fn probability_is_product() {
        let c = cs(&[0, 1]);
        let p = c.probability_with(|id| if id.index() == 0 { 0.5 } else { 0.25 });
        assert!((p - 0.125).abs() < 1e-15);
        assert_eq!(cs(&[]).probability_with(|_| 0.0), 1.0);
    }

    #[test]
    fn minimize_removes_supersets_and_duplicates() {
        let list: CutsetList = [
            cs(&[1, 2]),
            cs(&[1, 2, 3]),
            cs(&[2]),
            cs(&[2]),
            cs(&[4, 5]),
            cs(&[5, 4]),
        ]
        .into_iter()
        .collect();
        let min = list.minimize();
        assert_eq!(min.len(), 2);
        assert!(min.contains_set(&cs(&[2])));
        assert!(min.contains_set(&cs(&[4, 5])));
    }

    #[test]
    fn minimize_keeps_incomparable_sets() {
        let list: CutsetList = [cs(&[1, 2]), cs(&[2, 3]), cs(&[1, 3])]
            .into_iter()
            .collect();
        let min = list.minimize();
        assert_eq!(min.len(), 3);
    }

    #[test]
    fn minimize_handles_large_cutsets_via_counting_path() {
        // A 14-element cutset (beyond the enumeration limit) subsumed by a
        // small kept set, plus one that is not.
        let small = cs(&[3, 7]);
        let big_subsumed = cs(&(0..14).collect::<Vec<_>>()); // contains 3 and 7
        let big_kept = cs(&(20..34).collect::<Vec<_>>());
        let list: CutsetList = [small.clone(), big_subsumed, big_kept.clone()]
            .into_iter()
            .collect();
        let min = list.minimize();
        assert_eq!(min.len(), 2);
        assert!(min.contains_set(&small));
        assert!(min.contains_set(&big_kept));
    }

    #[test]
    fn rare_event_approximation_sums_products() {
        let list: CutsetList = [cs(&[0]), cs(&[1, 2])].into_iter().collect();
        let rea = list.rare_event_approximation(|_| 0.1);
        assert!((rea - (0.1 + 0.01)).abs() < 1e-15);
        // An empty list reports +0.0, not the -0.0 a bare f64 sum yields.
        let empty = CutsetList::new().rare_event_approximation(|_| 0.1);
        assert_eq!(empty.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn sort_by_probability() {
        let mut list: CutsetList = [cs(&[1, 2]), cs(&[0])].into_iter().collect();
        list.sort_by_probability_desc(|_| 0.1);
        assert_eq!(list.get(0), Some(&cs(&[0])));
    }

    #[test]
    fn minimize_with_stats_is_thread_count_independent() {
        // Enough cutsets to cross the parallel-sharding threshold, built
        // from a deterministic LCG so supersets, duplicates and large
        // (counting-path) cutsets all occur.
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut rng = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize
        };
        let mut cutsets: Vec<Cutset> = Vec::new();
        for _ in 0..5000 {
            let order = 1 + rng() % 5;
            cutsets.push(Cutset::new(
                (0..order).map(|_| NodeId::from_index(rng() % 40)),
            ));
        }
        for _ in 0..50 {
            // Oversized cutsets exercise the inverted-index path.
            let order = 13 + rng() % 4;
            cutsets.push(Cutset::new(
                (0..order).map(|_| NodeId::from_index(rng() % 40)),
            ));
        }
        let (reference, ref_comparisons) =
            CutsetList::from_vec(cutsets.clone()).minimize_with_stats(1);
        assert!(!reference.is_empty());
        assert!(reference.len() < cutsets.len());
        for threads in [2, 4, 8] {
            let (minimized, comparisons) =
                CutsetList::from_vec(cutsets.clone()).minimize_with_stats(threads);
            assert_eq!(reference, minimized, "threads = {threads}");
            assert_eq!(ref_comparisons, comparisons, "threads = {threads}");
        }
        // And a sample of verdicts agrees with the quadratic definition.
        for (i, c) in cutsets.iter().enumerate().step_by(9) {
            let minimal = !cutsets.iter().any(|k| k != c && k.is_subset_of(c));
            assert_eq!(minimal, reference.contains_set(c), "cutset {i}");
        }
    }

    #[test]
    fn empty_cutset_subsumes_everything() {
        let list: CutsetList = [cs(&[]), cs(&[1]), cs(&[1, 2])].into_iter().collect();
        let min = list.minimize();
        assert_eq!(min.len(), 1);
        assert!(min.get(0).unwrap().is_empty());
    }

    #[test]
    fn incremental_offer_verdicts() {
        let mut inc = IncrementalMinimizer::new();
        assert!(inc.offer(cs(&[1, 2])));
        assert!(!inc.offer(cs(&[1, 2]))); // duplicate
        assert!(!inc.offer(cs(&[1, 2, 3]))); // superset of a kept set
        assert!(inc.offer(cs(&[2]))); // evicts {1,2}
        assert_eq!(inc.len(), 1);
        assert!(inc.offer(cs(&[4, 5])));
        assert!(inc.comparisons() > 0);
        assert_eq!(inc.into_sorted(), vec![cs(&[2]), cs(&[4, 5])]);
    }

    #[test]
    fn incremental_empty_cutset_wins() {
        let mut inc = IncrementalMinimizer::new();
        assert!(inc.offer(cs(&[1])));
        assert!(inc.offer(cs(&[])));
        assert_eq!(inc.len(), 1);
        assert!(!inc.offer(cs(&[7])));
        assert_eq!(inc.into_sorted(), vec![cs(&[])]);
    }

    #[test]
    fn incremental_matches_batch_on_random_streams() {
        // Same LCG recipe as the batch determinism test: duplicates,
        // supersets and oversized cutsets, offered in several different
        // orders — the surviving set must equal the batch minimization
        // regardless of order.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut rng = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize
        };
        let mut cutsets: Vec<Cutset> = Vec::new();
        for _ in 0..3000 {
            let order = 1 + rng() % 5;
            cutsets.push(Cutset::new(
                (0..order).map(|_| NodeId::from_index(rng() % 32)),
            ));
        }
        for _ in 0..40 {
            let order = 13 + rng() % 4;
            cutsets.push(Cutset::new(
                (0..order).map(|_| NodeId::from_index(rng() % 32)),
            ));
        }
        let reference: Vec<Cutset> = CutsetList::from_vec(cutsets.clone())
            .minimize()
            .into_iter()
            .collect();
        for pass in 0..3 {
            let mut stream = cutsets.clone();
            match pass {
                0 => {}
                1 => stream.reverse(),
                _ => {
                    // Deterministic shuffle.
                    let mut s: u64 = 0xdead_beef;
                    for i in (1..stream.len()).rev() {
                        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        stream.swap(i, (s >> 33) as usize % (i + 1));
                    }
                }
            }
            let mut inc = IncrementalMinimizer::new();
            for c in stream {
                inc.offer(c);
            }
            assert_eq!(inc.into_sorted(), reference, "pass {pass}");
        }
    }

    /// Deterministic LCG stream with duplicates, supersets and
    /// oversized (counting-path) cutsets.
    fn lcg_stream(seed: u64, small: usize, big: usize, universe: usize) -> Vec<Cutset> {
        let mut state = seed;
        let mut rng = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize
        };
        let mut cutsets: Vec<Cutset> = Vec::new();
        for _ in 0..small {
            let order = 1 + rng() % 5;
            cutsets.push(Cutset::new(
                (0..order).map(|_| NodeId::from_index(rng() % universe)),
            ));
        }
        for _ in 0..big {
            let order = 13 + rng() % 4;
            cutsets.push(Cutset::new(
                (0..order).map(|_| NodeId::from_index(rng() % universe)),
            ));
        }
        cutsets
    }

    #[test]
    fn absorb_fallback_modes_match_batch_on_random_streams() {
        let cutsets = lcg_stream(0x1234_5678_9abc_def0, 4000, 30, 36);
        let reference: Vec<Cutset> = CutsetList::from_vec(cutsets.clone())
            .minimize()
            .into_iter()
            .collect();
        for mode in [
            FallbackMode::Adaptive,
            FallbackMode::Always,
            FallbackMode::Never,
        ] {
            let mut inc = IncrementalMinimizer::with_mode(mode);
            for c in cutsets.iter().cloned() {
                inc.absorb(c);
            }
            let offered = inc.stats().offered;
            assert_eq!(offered, cutsets.len() as u64, "mode {mode}");
            let (sorted, stats) = inc.finish();
            assert_eq!(sorted, reference, "mode {mode}");
            if mode == FallbackMode::Always {
                assert!(stats.fell_back, "Always must report the fallback");
                assert!(stats.fallback_merges >= 1, "Always must merge");
            }
            if mode == FallbackMode::Never {
                assert!(!stats.fell_back, "Never must not fall back");
                assert_eq!(stats.fallback_merges, 0, "Never must not merge");
            }
            assert_eq!(
                stats.offered - stats.rejects,
                reference.len() as u64 + stats.evictions,
                "mode {mode}: accepts must equal survivors plus evictions"
            );
        }
    }

    #[test]
    fn sharded_partition_reassembles_to_batch() {
        let cutsets = lcg_stream(0x0fed_cba9_8765_4321, 3000, 25, 30);
        let reference = CutsetList::from_vec(cutsets.clone()).minimize();
        for shards in [1usize, 2, 4, 8] {
            // Shard keys are deterministic and in range.
            for c in &cutsets {
                let key = c.shard_key(shards);
                assert!(key < shards);
                assert_eq!(key, c.shard_key(shards));
            }
            for mode in [FallbackMode::Never, FallbackMode::Always] {
                let mut minimizers: Vec<IncrementalMinimizer> = (0..shards)
                    .map(|_| IncrementalMinimizer::with_mode(mode))
                    .collect();
                for c in cutsets.iter().cloned() {
                    let key = c.shard_key(shards);
                    minimizers[key].absorb(c);
                }
                // A globally minimal set survives its own shard (its
                // subsets land elsewhere at worst), so re-minimizing the
                // union of the per-shard antichains is exact.
                let union: Vec<Cutset> = minimizers
                    .into_iter()
                    .flat_map(|m| m.into_sorted())
                    .collect();
                let (reconciled, _) = CutsetList::from_vec(union).minimize_with_stats(1);
                assert_eq!(reconciled, reference, "shards {shards}, mode {mode}");
            }
        }
    }

    #[test]
    fn deferred_evictions_settle_at_finish() {
        // 70 supersets sharing event 0 make the rarest-event list longer
        // than the eager-scan limit, so accepting {0} defers all 70
        // evictions to the sweep.
        let mut inc = IncrementalMinimizer::new();
        for k in 1..=70 {
            assert!(inc.offer(cs(&[0, k])));
        }
        assert!(inc.offer(cs(&[0])));
        assert_eq!(inc.len(), 71, "evictions must be deferred, not eager");
        let (sorted, stats) = inc.finish();
        assert_eq!(sorted, vec![cs(&[0])]);
        assert_eq!(stats.evictions, 70);
        assert!(stats.compactions >= 1, "finish must run the sweep");
    }

    #[test]
    fn absorbed_empty_cutset_wins_through_the_buffer() {
        let mut inc = IncrementalMinimizer::with_mode(FallbackMode::Always);
        inc.absorb(cs(&[1, 2]));
        inc.absorb(cs(&[]));
        inc.absorb(cs(&[3]));
        let (sorted, _) = inc.finish();
        assert_eq!(sorted, vec![cs(&[])]);
    }

    #[test]
    fn incremental_bounds_residency_under_eviction_churn() {
        // Offer supersets first, then the small sets that evict them;
        // the kept count must track the true minimal count, and stale
        // index entries must not corrupt later verdicts.
        let mut inc = IncrementalMinimizer::new();
        for i in 0..100 {
            assert!(inc.offer(cs(&[i, i + 100, i + 200])));
        }
        for i in 0..100 {
            assert!(inc.offer(cs(&[i])));
            assert!(!inc.offer(cs(&[i, i + 100, i + 200])));
        }
        assert_eq!(inc.len(), 100);
        let kept = inc.into_sorted();
        assert!(kept.iter().all(|c| c.order() == 1));
    }
}
