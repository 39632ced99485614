//! The expansion worker's candidate buffer, where MOCUS reduces its
//! candidates to minimal cutsets.

use sdft_ft::{Cutset, CutsetList};
use std::time::{Duration, Instant};

/// Smallest length at which a streaming run's buffer is re-minimized.
const MIN_LIMIT: usize = 4096;

/// The candidates found since the last release, appended unfiltered,
/// and the subsumption counters. A streaming run re-minimizes the buffer
/// once it reaches `max(MIN_LIMIT, 2 ×` its length after the last
/// minimize`)`: it then holds at most twice the minimal sets found so far
/// (or [`MIN_LIMIT`]), and a candidate takes part in amortized O(1)
/// passes. A batch run's buffer grows until the release. A release
/// minimizes once more and restarts the buffer empty at [`MIN_LIMIT`].
/// Minimal sets of a multiset are unique and come out in canonical
/// order, so a release does not depend on where the buffer was
/// re-minimized.
pub(crate) struct Buffer {
    pending: Vec<Cutset>,
    /// Whether the doubling rule applies.
    streaming: bool,
    /// Length at which the buffer is next re-minimized.
    limit: usize,
    /// Peak length, sampled before every minimize.
    pub(crate) peak_pending: usize,
    /// Time spent in minimize passes.
    pub(crate) busy: Duration,
    /// Subset tests of the minimize passes.
    pub(crate) probes: u64,
    /// Candidates dropped as duplicates or subsumed.
    pub(crate) rejects: u64,
}

impl Buffer {
    pub(crate) fn new(streaming: bool) -> Self {
        Buffer {
            pending: Vec::new(),
            streaming,
            limit: if streaming { MIN_LIMIT } else { usize::MAX },
            peak_pending: 0,
            busy: Duration::ZERO,
            probes: 0,
            rejects: 0,
        }
    }

    /// Append one candidate, re-minimizing once the buffer reaches its
    /// limit.
    #[inline]
    pub(crate) fn push(&mut self, cutset: Cutset) {
        self.pending.push(cutset);
        if self.pending.len() >= self.limit {
            self.minimize();
        }
    }

    /// Replace the buffer by its minimal antichain in canonical (order,
    /// events) order. Out of line, so that the expansion loop only gains
    /// the push and the length test.
    #[inline(never)]
    fn minimize(&mut self) {
        let begin = Instant::now();
        let before = self.pending.len();
        self.peak_pending = self.peak_pending.max(before);
        let (minimal, probes) =
            CutsetList::from_vec(std::mem::take(&mut self.pending)).minimize_with_stats();
        self.pending = minimal.into_iter().collect();
        if self.streaming {
            self.limit = (2 * self.pending.len()).max(MIN_LIMIT);
        }
        self.probes += probes;
        self.rejects += (before - self.pending.len()) as u64;
        self.busy += begin.elapsed();
    }

    /// At a release: the buffer's minimal cutsets. An empty buffer is
    /// left as it is.
    pub(crate) fn finish(&mut self) -> Vec<Cutset> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        self.minimize();
        if self.streaming {
            self.limit = MIN_LIMIT;
        }
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdft_ft::NodeId;

    /// A deterministic candidate stream: `n` random sets of order 2 to 4
    /// over 32 events. Repeats are exact duplicates, and pairs drawn late
    /// subsume triples and quadruples kept earlier.
    fn random_candidates(n: usize) -> Vec<Cutset> {
        let mut state: u64 = 0x5eed_f11e;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        (0..n)
            .map(|_| {
                let order = 2 + next(3);
                Cutset::new((0..order).map(|_| NodeId::from_index(next(32) as usize)))
            })
            .collect()
    }

    #[test]
    fn the_filter_buffer_is_reminimized_within_its_bound() {
        let mut stream = random_candidates(26 * 512);
        // Late candidates: the first 512 again (exact duplicates of sets
        // kept long ago), then singletons that subsume kept pairs.
        stream.extend_from_within(..512);
        stream.extend([3, 17, 29].map(|e| Cutset::new([NodeId::from_index(e)])));
        assert!(stream.len() >= 3 * MIN_LIMIT);

        let mut buffer = Buffer::new(true);
        // The minimal sets of the candidates pushed so far, kept
        // incrementally: the reference the bound is stated in.
        let mut minimal: Vec<Cutset> = Vec::new();
        let mut most_minimal = 0;
        let mut shrank = false;
        for (seen, cutset) in stream.iter().enumerate() {
            if !minimal.iter().any(|m| m.is_subset_of(cutset)) {
                minimal.retain(|m| !cutset.is_subset_of(m));
                minimal.push(cutset.clone());
            }
            most_minimal = most_minimal.max(minimal.len());
            let before = buffer.pending.len();
            buffer.push(cutset.clone());
            let held = buffer.pending.len();
            shrank |= held < before;
            let bound = MIN_LIMIT.max(2 * most_minimal);
            assert!(
                held <= bound,
                "buffer of {held} candidates after {} pushed (bound {bound})",
                seen + 1
            );
            assert!(buffer.peak_pending <= bound);
        }
        assert!(
            shrank,
            "the buffer was never re-minimized before the release"
        );

        let released = buffer.finish();
        let reference: Vec<Cutset> = CutsetList::from_vec(stream.clone())
            .minimize()
            .into_iter()
            .collect();
        assert_eq!(released, reference);
        assert!(buffer.pending.is_empty());
        assert_eq!(stream.len() as u64 - buffer.rejects, released.len() as u64);

        // A release of the empty buffer changes nothing.
        let counters = (buffer.probes, buffer.rejects, buffer.peak_pending);
        assert!(buffer.finish().is_empty());
        assert_eq!(
            (buffer.probes, buffer.rejects, buffer.peak_pending),
            counters
        );

        // An antichain longer than the limit: every pair over 100 events.
        // Its first minimize keeps all 4,096 sets and doubles the limit;
        // the release hands them all on and resets the limit.
        let pairs: Vec<Cutset> = (0..100)
            .flat_map(|a| (a + 1..100).map(move |b| Cutset::new([a, b].map(NodeId::from_index))))
            .collect();
        for pair in &pairs {
            buffer.push(pair.clone());
        }
        assert_eq!(buffer.limit, 2 * MIN_LIMIT);
        assert_eq!(buffer.peak_pending, MIN_LIMIT);
        let released = buffer.finish();
        assert_eq!(released.len(), pairs.len());
        assert_eq!(buffer.limit, MIN_LIMIT);
        assert!(buffer.pending.is_empty());
        assert_eq!(buffer.peak_pending, pairs.len());
    }

    #[test]
    fn a_batch_buffer_is_minimized_once_at_the_release() {
        let stream = random_candidates(3 * MIN_LIMIT);
        let mut buffer = Buffer::new(false);
        for cutset in &stream {
            buffer.push(cutset.clone());
        }
        assert_eq!(buffer.pending.len(), stream.len());
        assert_eq!((buffer.probes, buffer.peak_pending), (0, 0));
        let released = buffer.finish();
        let (reference, probes) = CutsetList::from_vec(stream.clone()).minimize_with_stats();
        assert_eq!(released, reference.into_iter().collect::<Vec<_>>());
        assert_eq!(buffer.probes, probes);
        assert_eq!(buffer.peak_pending, stream.len());
        assert_eq!(buffer.limit, usize::MAX);
    }
}
