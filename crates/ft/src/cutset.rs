use crate::hash::FxBuild;
use crate::node::NodeId;
use std::collections::{HashMap, HashSet};
use std::fmt;

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
        self.minimize_with_stats().0
    }

    /// Like [`minimize`](Self::minimize), also returning the number of
    /// subset tests performed.
    ///
    /// A candidate is dropped iff some *other candidate* is a proper
    /// subset of it — equivalent to dropping against kept (minimal) sets
    /// only, because any non-minimal subset itself contains a minimal
    /// one. Every candidate's verdict is thus independent of the others',
    /// so the result and the comparison count depend only on the input
    /// multiset.
    #[must_use]
    pub fn minimize_with_stats(mut self) -> (Self, u64) {
        const ENUM_LIMIT: usize = 12;
        self.cutsets.sort_unstable_by(canonical_cmp);
        self.cutsets.dedup();
        // An empty cutset (sorted first) subsumes every other set.
        if self.cutsets.first().is_some_and(Cutset::is_empty) {
            self.cutsets.truncate(1);
            return (self, 0);
        }
        if self.cutsets.len() <= 1 {
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

            let mut comparisons: u64 = 0;
            let keep: Vec<bool> = (0..candidates.len())
                .map(|ci| check(ci, &mut comparisons))
                .collect();
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
    fn minimize_with_stats_matches_the_subset_definition() {
        // Cutsets from a deterministic LCG, so supersets, duplicates and
        // large (counting-path) cutsets all occur.
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
        let (reference, comparisons) = CutsetList::from_vec(cutsets.clone()).minimize_with_stats();
        assert!(!reference.is_empty());
        assert!(reference.len() < cutsets.len());
        assert!(comparisons > 0);
        // A sample of verdicts agrees with the quadratic definition.
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
}
