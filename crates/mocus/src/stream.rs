//! Emit-on-finalize streaming for the MOCUS engine.
//!
//! The batch entry points materialize every cutset candidate before
//! minimization. Streaming instead hands each candidate to a
//! [`CandidateSink`] the moment expansion finalizes it, and calls the
//! sink's [`watermark`](CandidateSink::watermark) whenever no candidate
//! still to come can subsume (or equal) one already delivered. Two
//! children `a`, `b` of a top-level OR are *separable* — no candidate of
//! one can ever subsume a candidate of the other — when either
//!
//! * their reachable basic-event sets are disjoint (no shared events at
//!   all), or
//! * each direction is blocked by a **must** event: `a` has an event
//!   contained in *every* one of its candidates that `b` cannot reach,
//!   and vice versa. (`must` is computed structurally: a basic event is
//!   its own must-set, an AND gate unions its children's must-sets, and
//!   OR / voting gates intersect them — a sound under-approximation.)
//!
//! Children are grouped with union–find: every non-separable pair
//! shares a component. The engine expands the top OR once, then expands
//! each component to completion, one after another, with a watermark
//! after each. Overlapping children that differ in a mandatory private
//! event (shared support systems, distinct sequence tails) still split,
//! so a downstream minimizer can release a component's minimal sets
//! while later components are still to be expanded.

use crate::assumptions::Assumptions;
use crate::engine::generate;
use crate::error::MocusError;
use crate::options::MocusOptions;
use crate::stats::MocusStats;
use sdft_ft::{Cutset, EventProbabilities, FaultTree, GateKind, NodeId};

/// Consumer side of a streaming MOCUS run. The generator calls it on
/// its own thread, in a fixed order for a given tree and options. A
/// [`watermark`](Self::watermark) promises that no later candidate
/// subsumes or equals one delivered before it.
///
/// Returning `false` from either method aborts generation promptly
/// (the run ends with [`MocusError::Aborted`]); use it when the
/// downstream pipeline has failed or shut down.
pub trait CandidateSink {
    /// Take one cutset candidate.
    fn deliver(&mut self, cutset: Cutset) -> bool;

    /// Every candidate delivered so far may be minimized among
    /// themselves and released downstream: no later candidate can
    /// subsume them.
    fn watermark(&mut self) -> bool;
}

/// The batch sink: collect every candidate, ignore the watermarks.
impl CandidateSink for Vec<Cutset> {
    fn deliver(&mut self, cutset: Cutset) -> bool {
        self.push(cutset);
        true
    }

    fn watermark(&mut self) -> bool {
        true
    }
}

/// The inputs of an OR `root`, grouped into separable components (see
/// the module docs); `None` when `root` is not an OR gate.
///
/// Components come in the order a depth-first pass reaches them: it
/// pops the root's inputs last to first, so the component of the last
/// input comes first. Each component lists its inputs in input order,
/// duplicates included.
pub(crate) fn separable_components(tree: &FaultTree, root: NodeId) -> Option<Vec<Vec<NodeId>>> {
    if !matches!(tree.gate_kind(root), Some(GateKind::Or)) {
        return None;
    }
    // Dense event numbering for the reach/must bitsets.
    let mut event_index = vec![usize::MAX; tree.len()];
    let mut num_events = 0usize;
    for event in tree.basic_events() {
        event_index[event.index()] = num_events;
        num_events += 1;
    }
    let words = num_events.div_ceil(64).max(1);
    // Per-node `reach` (all basic events in the subtree) and `must`
    // (events present in every candidate of the subtree), as flat bitset
    // rows filled in node-id order — ids are topological, so children
    // are always done before their gate.
    let mut reach = vec![0u64; tree.len() * words];
    let mut must = vec![0u64; tree.len() * words];
    for id in tree.node_ids() {
        let i = id.index();
        if tree.is_basic(id) {
            let e = event_index[i];
            reach[i * words + e / 64] |= 1 << (e % 64);
            must[i * words + e / 64] |= 1 << (e % 64);
        } else if tree.is_gate(id) {
            let children = tree.gate_inputs(id);
            let (done, row) = reach.split_at_mut(i * words);
            for &c in children {
                let child = &done[c.index() * words..(c.index() + 1) * words];
                for (r, &m) in row[..words].iter_mut().zip(child) {
                    *r |= m;
                }
            }
            let union_must = matches!(tree.gate_kind(id), Some(GateKind::And));
            let (done, row) = must.split_at_mut(i * words);
            for (k, &c) in children.iter().enumerate() {
                let child = &done[c.index() * words..(c.index() + 1) * words];
                for (r, &m) in row[..words].iter_mut().zip(child) {
                    // OR / voting gates keep only events every child
                    // mandates; AND mandates them all.
                    if union_must || k == 0 {
                        *r |= m;
                    } else {
                        *r &= m;
                    }
                }
            }
        }
    }
    let inputs = tree.gate_inputs(root);
    let row = |table: &[u64], c: NodeId| -> Vec<u64> {
        table[c.index() * words..(c.index() + 1) * words].to_vec()
    };
    let child_reach: Vec<Vec<u64>> = inputs.iter().map(|&c| row(&reach, c)).collect();
    let child_must: Vec<Vec<u64>> = inputs.iter().map(|&c| row(&must, c)).collect();
    // One direction is blocked when every candidate of `a` carries an
    // event `b` cannot reach.
    let blocked = |a: usize, b: usize| {
        child_must[a]
            .iter()
            .zip(&child_reach[b])
            .any(|(m, r)| m & !r != 0)
    };
    let separable = |a: usize, b: usize| {
        child_reach[a]
            .iter()
            .zip(&child_reach[b])
            .all(|(x, y)| x & y == 0)
            || (blocked(a, b) && blocked(b, a))
    };
    // Union–find over child positions; a child listed twice is never
    // separable from itself (must ⊆ reach), so duplicate occurrences land
    // in one component.
    let mut parent: Vec<usize> = (0..inputs.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..inputs.len() {
        for j in i + 1..inputs.len() {
            if !separable(i, j) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    // Number the components in last-to-first input order, then fill
    // each in input order.
    let mut slot = vec![usize::MAX; inputs.len()];
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    for i in (0..inputs.len()).rev() {
        let r = find(&mut parent, i);
        if slot[r] == usize::MAX {
            slot[r] = components.len();
            components.push(Vec::new());
        }
    }
    for (i, &c) in inputs.iter().enumerate() {
        let r = find(&mut parent, i);
        components[slot[r]].push(c);
    }
    Some(components)
}

/// Generate cutset candidates for the top gate of `tree`, handing each
/// one to `sink` as it is found instead of materializing a list, with a
/// watermark after each separable component of an OR top (see the
/// module docs) or once at the end. The returned stats carry no
/// `subsumption_comparisons` — minimization belongs to the consumer.
///
/// The candidate set (and therefore the minimal cutsets the consumer
/// derives) is identical to [`minimal_cutsets`](crate::minimal_cutsets),
/// and the sequence of deliveries and watermarks is the same on every
/// run.
///
/// # Errors
///
/// Returns an error if the cutoff is invalid or a safety budget in
/// `options` is exceeded; [`MocusError::Aborted`] when the sink
/// rejected a delivery (the real cause lives with the consumer).
pub fn stream_minimal_cutsets(
    tree: &FaultTree,
    probs: &EventProbabilities,
    options: &MocusOptions,
    sink: &mut dyn CandidateSink,
) -> Result<MocusStats, MocusError> {
    let components = separable_components(tree, tree.top());
    generate(
        tree,
        tree.top(),
        probs,
        options,
        &Assumptions::new(tree),
        components.as_deref(),
        sink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal_cutsets_with_stats;
    use sdft_ft::{CutsetList, FaultTreeBuilder};

    /// One call the generator made on its sink.
    #[derive(Debug, PartialEq, Eq)]
    enum SinkCall {
        Deliver(Cutset),
        Watermark,
    }

    /// Records every call.
    #[derive(Default)]
    struct RecordingSink {
        calls: Vec<SinkCall>,
    }

    impl RecordingSink {
        /// The delivered candidates between consecutive watermarks.
        fn segments(&self) -> Vec<Vec<Cutset>> {
            let mut segments = vec![Vec::new()];
            for call in &self.calls {
                match call {
                    SinkCall::Deliver(c) => segments.last_mut().unwrap().push(c.clone()),
                    SinkCall::Watermark => segments.push(Vec::new()),
                }
            }
            segments
        }
    }

    impl CandidateSink for RecordingSink {
        fn deliver(&mut self, cutset: Cutset) -> bool {
            self.calls.push(SinkCall::Deliver(cutset));
            true
        }

        fn watermark(&mut self) -> bool {
            self.calls.push(SinkCall::Watermark);
            true
        }
    }

    /// Rejects the first delivery, simulating a failed consumer.
    struct RejectingSink;

    impl CandidateSink for RejectingSink {
        fn deliver(&mut self, _cutset: Cutset) -> bool {
            false
        }

        fn watermark(&mut self) -> bool {
            true
        }
    }

    /// Top OR over `[a1, b1, a2, b2]`: `a1`/`a2` share the event `sa`,
    /// `b1`/`b2` share `sb`, and the `a` and `b` lines are disjoint — two
    /// components whose inputs interleave.
    fn interleaved_tree() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let sa = b.static_event("sa", 0.05).unwrap();
        let sb = b.static_event("sb", 0.04).unwrap();
        let mut inputs = Vec::new();
        for i in 1..=2 {
            let xa = b.static_event(&format!("xa{i}"), 0.01).unwrap();
            let ya = b.static_event(&format!("ya{i}"), 0.02).unwrap();
            let pick_a = b.or(&format!("pa{i}"), [xa, ya]).unwrap();
            let line_a = b.and(&format!("a{i}"), [sa, pick_a]).unwrap();
            let xb = b.static_event(&format!("xb{i}"), 0.03).unwrap();
            let yb = b.static_event(&format!("yb{i}"), 0.06).unwrap();
            let pick_b = b.or(&format!("pb{i}"), [xb, yb]).unwrap();
            let line_b = b.or(&format!("b{i}"), [sb, pick_b]).unwrap();
            inputs.extend([line_a, line_b]);
        }
        let top = b.or("top", inputs).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    /// Which line a candidate of [`interleaved_tree`] belongs to.
    fn line_of(tree: &FaultTree, cutset: &Cutset) -> char {
        let lines: Vec<char> = cutset
            .events()
            .iter()
            .map(|&e| tree.name(e).chars().find(|c| "ab".contains(*c)).unwrap())
            .collect();
        assert!(lines.windows(2).all(|w| w[0] == w[1]), "{lines:?}");
        lines[0]
    }

    fn record(tree: &FaultTree, options: &MocusOptions) -> (RecordingSink, MocusStats) {
        let probs = EventProbabilities::from_static(tree).unwrap();
        let mut sink = RecordingSink::default();
        let stats = stream_minimal_cutsets(tree, &probs, options, &mut sink).unwrap();
        (sink, stats)
    }

    #[test]
    fn components_are_delivered_one_after_another() {
        let t = interleaved_tree();
        let (sink, _) = record(&t, &MocusOptions::exhaustive());
        // Two components, each followed by exactly one watermark: the
        // calls end in a watermark and split into two non-empty runs.
        assert_eq!(sink.calls.last(), Some(&SinkCall::Watermark));
        let mut segments = sink.segments();
        assert_eq!(segments.pop(), Some(Vec::new()));
        assert_eq!(segments.len(), 2);
        // Each component's candidates arrive contiguously, the component
        // of the last input (`b2`) first.
        let lines: Vec<char> = segments
            .iter()
            .map(|segment| {
                assert!(!segment.is_empty());
                let line = line_of(&t, &segment[0]);
                assert!(segment.iter().all(|c| line_of(&t, c) == line));
                line
            })
            .collect();
        assert_eq!(lines, ['b', 'a']);
        // The first watermark comes before the last delivery.
        let first_watermark = sink
            .calls
            .iter()
            .position(|call| *call == SinkCall::Watermark)
            .unwrap();
        let last_delivery = sink
            .calls
            .iter()
            .rposition(|call| matches!(call, SinkCall::Deliver(_)))
            .unwrap();
        assert!(first_watermark < last_delivery);
    }

    #[test]
    fn streamed_candidates_match_batch() {
        let t = interleaved_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let opts = MocusOptions::exhaustive();
        let (reference, ref_stats) = minimal_cutsets_with_stats(&t, &probs, &opts).unwrap();
        let (sink, stats) = record(&t, &opts);
        // The candidate multiset and the work counters match the batch
        // run.
        let segments = sink.segments();
        let all: Vec<Cutset> = segments.iter().flatten().cloned().collect();
        assert_eq!(stats.cutset_candidates as usize, all.len());
        assert_eq!(stats.cutset_candidates, ref_stats.cutset_candidates);
        assert_eq!(stats.partials_processed, ref_stats.partials_processed);
        assert_eq!(stats.partials_pruned, ref_stats.partials_pruned);
        // Global minimization of the streamed candidates equals the
        // batch minimal cutsets...
        assert_eq!(reference, CutsetList::from_vec(all).minimize());
        // ...and so does minimizing between watermarks (no candidate
        // subsumes one delivered before an earlier watermark).
        let mut per_segment: Vec<Cutset> = segments
            .into_iter()
            .flat_map(|segment| CutsetList::from_vec(segment).minimize())
            .collect();
        per_segment.sort_unstable_by(|a, b| {
            a.order()
                .cmp(&b.order())
                .then_with(|| a.events().cmp(b.events()))
        });
        let flat: Vec<Cutset> = reference.iter().cloned().collect();
        assert_eq!(flat, per_segment);
    }

    #[test]
    fn a_top_that_is_not_an_or_gets_one_final_watermark() {
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.static_event("y", 0.2).unwrap();
        let z = b.static_event("z", 0.3).unwrap();
        let g = b.or("g", [y, z]).unwrap();
        let top = b.and("top", [x, g]).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let (sink, _) = record(&t, &MocusOptions::exhaustive());
        assert_eq!(
            sink.segments().iter().map(Vec::len).collect::<Vec<_>>(),
            [2, 0]
        );
    }

    #[test]
    fn every_run_makes_the_same_sink_calls() {
        let t = interleaved_tree();
        let run = || record(&t, &MocusOptions::exhaustive()).0.calls;
        let (first, second) = (run(), run());
        assert_eq!(first.len(), second.len());
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            assert_eq!(a, b, "sink call {i}");
        }
    }

    #[test]
    fn rejecting_sink_aborts_generation() {
        let t = interleaved_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        assert!(matches!(
            stream_minimal_cutsets(&t, &probs, &MocusOptions::exhaustive(), &mut RejectingSink),
            Err(MocusError::Aborted)
        ));
    }

    #[test]
    fn budgets_abort_streaming_runs() {
        let t = interleaved_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mut sink = RecordingSink::default();
        let opts = MocusOptions {
            max_cutsets: 2,
            ..MocusOptions::exhaustive()
        };
        assert!(matches!(
            stream_minimal_cutsets(&t, &probs, &opts, &mut sink),
            Err(MocusError::TooManyCutsets { limit: 2 })
        ));
        let opts = MocusOptions {
            max_partials: 1,
            ..MocusOptions::exhaustive()
        };
        assert!(matches!(
            stream_minimal_cutsets(&t, &probs, &opts, &mut sink),
            Err(MocusError::TooManyPartials { limit: 1 })
        ));
    }

    #[test]
    fn peak_residency_counters_are_populated() {
        let t = interleaved_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let opts = MocusOptions::exhaustive();
        let (list, batch) = minimal_cutsets_with_stats(&t, &probs, &opts).unwrap();
        assert!(batch.peak_live_partials > 0);
        assert!(batch.peak_partial_bytes > 0);
        assert!(!list.is_empty());
        // Streaming seeds one component at a time instead of every input
        // of the top at once, so it never queues more partials.
        let (_, stream) = record(&t, &opts);
        assert!(stream.peak_live_partials > 0);
        assert!(stream.peak_live_partials <= batch.peak_live_partials);
        assert!(stream.peak_partial_bytes <= batch.peak_partial_bytes);
    }
}
