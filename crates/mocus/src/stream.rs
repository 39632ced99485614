//! Emit-on-finalize streaming for the MOCUS engine.
//!
//! The batch entry points materialize every cutset candidate before
//! minimization. Streaming instead hands each candidate to a
//! [`CandidateSink`] the moment expansion finalizes it, tagged with an
//! *epoch* carrying a subsumption watermark. Two children `a`, `b` of a
//! top-level OR are *separable* — no candidate of one can ever subsume
//! (or equal) a candidate of the other — when either
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
//! shares a component, and each component is one epoch. The residual
//! epoch 0 holds only the root partial itself. This is a finer plan
//! than pairwise event-disjointness — overlapping children that differ
//! in a mandatory private event (shared support systems, distinct
//! sequence tails) still split, which is what lets the downstream
//! minimizer release work while generation is still running.
//! [`CandidateSink::epoch_complete`] fires exactly once per epoch,
//! after the last `deliver` for it, so a downstream minimizer may
//! release an epoch's surviving cutsets the moment it completes instead
//! of waiting for the whole run.
//!
//! Completion is detected with a per-epoch count of live partials: the
//! zero crossing, right after the epoch's last partial is expanded, is
//! the watermark. Epochs that never receive any work complete in a final
//! sweep when generation ends.

use crate::assumptions::Assumptions;
use crate::engine::run_streaming;
use crate::error::MocusError;
use crate::options::MocusOptions;
use crate::stats::MocusStats;
use sdft_ft::{Cutset, EventProbabilities, FaultTree, GateKind, NodeId};

/// Consumer side of a streaming MOCUS run. The generator calls it on
/// its own thread, in a fixed order for a given tree and options; for a
/// given epoch every [`deliver`](Self::deliver) happens before its
/// single [`epoch_complete`](Self::epoch_complete).
///
/// Returning `false` from either method aborts generation promptly
/// (the run ends with [`MocusError::Aborted`]); use it when the
/// downstream pipeline has failed or shut down.
pub trait CandidateSink {
    /// Take one cutset candidate belonging to `epoch`.
    fn deliver(&mut self, epoch: u32, cutset: Cutset) -> bool;

    /// All candidates of `epoch` have been delivered; no candidate of
    /// any epoch can subsume them now, so they may be minimized among
    /// themselves and released downstream.
    fn epoch_complete(&mut self, epoch: u32) -> bool;
}

/// State of one streaming run: the sink, the epoch plan, and the
/// per-epoch live-partial counters implementing the watermark.
pub(crate) struct StreamCtx<'s> {
    pub(crate) sink: &'s mut dyn CandidateSink,
    /// The gate whose OR expansion assigns epochs (the run's root);
    /// only consulted when `epochs > 1`.
    top: NodeId,
    /// Epoch of each top-child node (dense by node index, 0 elsewhere).
    child_epoch: Vec<u32>,
    epochs: u32,
    /// Live partials per epoch.
    outstanding: Vec<usize>,
    completed: Vec<bool>,
}

impl<'s> StreamCtx<'s> {
    /// Build the epoch plan for a run rooted at `root`.
    ///
    /// Multiple epochs exist only for an OR root with no assumptions:
    /// assumptions cut events out of cutsets, which can create
    /// cross-subtree subsumption even between event-disjoint children.
    pub(crate) fn new(
        tree: &FaultTree,
        root: NodeId,
        assumptions: &Assumptions,
        sink: &'s mut dyn CandidateSink,
    ) -> Self {
        let mut child_epoch = vec![0u32; tree.len()];
        let mut epochs = 1u32;
        let is_or_root = tree.is_gate(root)
            && matches!(tree.gate_kind(root), Some(GateKind::Or))
            && assumptions.is_empty();
        if is_or_root {
            // Dense event numbering for the reach/must bitsets.
            let mut event_index = vec![usize::MAX; tree.len()];
            let mut num_events = 0usize;
            for event in tree.basic_events() {
                event_index[event.index()] = num_events;
                num_events += 1;
            }
            let words = num_events.div_ceil(64).max(1);
            // Per-node `reach` (all basic events in the subtree) and
            // `must` (events present in every candidate of the subtree),
            // as flat bitset rows filled in node-id order — ids are
            // topological, so children are always done before their
            // gate.
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
                            // OR / voting gates keep only events every
                            // child mandates; AND mandates them all.
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
            // One direction is blocked when every candidate of `a`
            // carries an event `b` cannot reach.
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
            // Union–find over child positions; a child listed twice is
            // never separable from itself (must ⊆ reach), so duplicate
            // occurrences land in one component and map consistently.
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
            // Components become epochs 1.. in first-occurrence order.
            let mut component_epoch = vec![0u32; inputs.len()];
            for (i, &c) in inputs.iter().enumerate() {
                let root_pos = find(&mut parent, i);
                if component_epoch[root_pos] == 0 {
                    component_epoch[root_pos] = epochs;
                    epochs += 1;
                }
                child_epoch[c.index()] = component_epoch[root_pos];
            }
        }
        StreamCtx {
            sink,
            top: root,
            child_epoch,
            epochs,
            outstanding: vec![0; epochs as usize],
            completed: vec![false; epochs as usize],
        }
    }

    /// The epoch of a child branched off `gate` by a partial of
    /// `parent_epoch`: top-OR children get their planned epoch, every
    /// other branch inherits.
    pub(crate) fn branch_epoch(&self, gate: NodeId, parent_epoch: u32, child: NodeId) -> u32 {
        if self.epochs > 1 && gate == self.top {
            self.child_epoch[child.index()]
        } else {
            parent_epoch
        }
    }

    /// A partial of `epoch` came alive.
    pub(crate) fn inc(&mut self, epoch: u32) {
        self.outstanding[epoch as usize] += 1;
    }

    /// A partial of `epoch` was expanded; the zero crossing fires the
    /// epoch's completion. Returns `false` if the sink rejected.
    pub(crate) fn release(&mut self, epoch: u32) -> bool {
        let outstanding = &mut self.outstanding[epoch as usize];
        *outstanding -= 1;
        *outstanding > 0 || self.complete(epoch)
    }

    fn complete(&mut self, epoch: u32) -> bool {
        let completed = std::mem::replace(&mut self.completed[epoch as usize], true);
        completed || self.sink.epoch_complete(epoch)
    }

    /// Fire completion for every epoch not yet completed — the final
    /// sweep covering epochs that never received work (pruned at
    /// creation, skipped children, degenerate roots).
    pub(crate) fn complete_all(&mut self) -> bool {
        let mut ok = true;
        for e in 0..self.epochs {
            ok &= self.complete(e);
        }
        ok
    }
}

/// Generate cutset candidates for the top gate of `tree`, handing each
/// one to `sink` as it is found instead of materializing a list (see
/// the module docs for the epoch/watermark contract). The returned
/// stats carry no `subsumption_comparisons` — minimization belongs to
/// the consumer.
///
/// The candidate set (and therefore the minimal cutsets the consumer
/// derives) is identical to [`minimal_cutsets`](crate::minimal_cutsets),
/// and the sequence of deliveries and completions is the same on every
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
    if let Some(c) = options.cutoff {
        if !c.is_finite() || c < 0.0 {
            return Err(MocusError::InvalidCutoff { cutoff: c });
        }
    }
    let assumptions = Assumptions::new(tree);
    let ctx = StreamCtx::new(tree, tree.top(), &assumptions, sink);
    run_streaming(tree, tree.top(), probs, options, &assumptions, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal_cutsets_with_stats;
    use sdft_ft::{CutsetList, FaultTreeBuilder};
    use std::collections::HashMap;

    /// One call the generator made on its sink.
    #[derive(Debug, PartialEq, Eq)]
    enum SinkCall {
        Deliver(u32, Cutset),
        Complete(u32),
    }

    /// Records every call and checks the watermark contract: no
    /// delivery after an epoch completed, one completion per epoch.
    #[derive(Default)]
    struct CollectingSink {
        calls: Vec<SinkCall>,
        delivered: HashMap<u32, Vec<Cutset>>,
        completed: HashMap<u32, u32>,
        violations: Vec<String>,
    }

    impl CandidateSink for CollectingSink {
        fn deliver(&mut self, epoch: u32, cutset: Cutset) -> bool {
            if self.completed.contains_key(&epoch) {
                self.violations
                    .push(format!("delivery after completion of epoch {epoch}"));
            }
            self.calls.push(SinkCall::Deliver(epoch, cutset.clone()));
            self.delivered.entry(epoch).or_default().push(cutset);
            true
        }

        fn epoch_complete(&mut self, epoch: u32) -> bool {
            self.calls.push(SinkCall::Complete(epoch));
            *self.completed.entry(epoch).or_insert(0) += 1;
            true
        }
    }

    /// Rejects the first delivery, simulating a failed consumer.
    struct RejectingSink;

    impl CandidateSink for RejectingSink {
        fn deliver(&mut self, _epoch: u32, _cutset: Cutset) -> bool {
            false
        }

        fn epoch_complete(&mut self, _epoch: u32) -> bool {
            true
        }
    }

    /// Top OR over two event-disjoint lines plus an overlapping pair
    /// sharing an event — two distinct epochs and a residual one.
    fn epoch_tree() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a1 = b.static_event("a1", 0.01).unwrap();
        let a2 = b.static_event("a2", 0.02).unwrap();
        let line_a = b.and("line_a", [a1, a2]).unwrap();
        let c1 = b.static_event("c1", 0.03).unwrap();
        let c2 = b.static_event("c2", 0.04).unwrap();
        let line_c = b.or("line_c", [c1, c2]).unwrap();
        let shared = b.static_event("shared", 0.05).unwrap();
        let s1 = b.static_event("s1", 0.06).unwrap();
        let s2 = b.static_event("s2", 0.07).unwrap();
        let over1 = b.and("over1", [shared, s1]).unwrap();
        let over2 = b.and("over2", [shared, s2]).unwrap();
        let top = b.or("top", [line_a, line_c, over1, over2]).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    #[test]
    fn streamed_candidates_match_batch() {
        let t = epoch_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let opts = MocusOptions::exhaustive();
        let (reference, ref_stats) = minimal_cutsets_with_stats(&t, &probs, &opts).unwrap();
        let mut sink = CollectingSink::default();
        let stats = stream_minimal_cutsets(&t, &probs, &opts, &mut sink).unwrap();
        assert!(sink.violations.is_empty(), "{:?}", sink.violations);
        // Every epoch completed exactly once, and more than one epoch
        // exists (the top split into independent children).
        assert!(sink.completed.values().all(|&n| n == 1));
        assert!(sink.completed.len() > 1, "expected a multi-epoch plan");
        // The candidate multiset matches the batch run.
        let all: Vec<Cutset> = sink.delivered.values().flatten().cloned().collect();
        assert_eq!(stats.cutset_candidates as usize, all.len());
        assert_eq!(ref_stats.partials_processed, stats.partials_processed);
        // Global minimization of the streamed candidates equals the
        // batch minimal cutsets...
        let global = CutsetList::from_vec(all).minimize();
        assert_eq!(reference, global);
        // ...and so does per-epoch minimization (the watermark
        // guarantee: epochs cannot subsume across each other).
        let mut per_epoch: Vec<Cutset> = sink
            .delivered
            .values()
            .flat_map(|v| CutsetList::from_vec(v.clone()).minimize())
            .collect();
        per_epoch.sort_unstable_by(|a, b| {
            a.order()
                .cmp(&b.order())
                .then_with(|| a.events().cmp(b.events()))
        });
        let flat: Vec<Cutset> = reference.iter().cloned().collect();
        assert_eq!(flat, per_epoch);
    }

    #[test]
    fn every_run_makes_the_same_sink_calls() {
        let t = epoch_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let run = || {
            let mut sink = CollectingSink::default();
            stream_minimal_cutsets(&t, &probs, &MocusOptions::exhaustive(), &mut sink).unwrap();
            sink.calls
        };
        let (first, second) = (run(), run());
        assert_eq!(first.len(), second.len());
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            assert_eq!(a, b, "sink call {i}");
        }
        // Some epoch completes before the last delivery: the watermark
        // fires mid-run.
        let last_delivery = first
            .iter()
            .rposition(|call| matches!(call, SinkCall::Deliver(..)))
            .unwrap();
        assert!(first[..last_delivery]
            .iter()
            .any(|call| matches!(call, SinkCall::Complete(_))));
    }

    #[test]
    fn rejecting_sink_aborts_generation() {
        let t = epoch_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        assert!(matches!(
            stream_minimal_cutsets(&t, &probs, &MocusOptions::exhaustive(), &mut RejectingSink),
            Err(MocusError::Aborted)
        ));
    }

    #[test]
    fn budgets_abort_streaming_runs() {
        let t = epoch_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mut sink = CollectingSink::default();
        let opts = MocusOptions {
            max_cutsets: 2,
            ..MocusOptions::exhaustive()
        };
        assert!(matches!(
            stream_minimal_cutsets(&t, &probs, &opts, &mut sink),
            Err(MocusError::TooManyCutsets { limit: 2 })
        ));
    }

    #[test]
    fn peak_residency_counters_are_populated() {
        let t = epoch_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let opts = MocusOptions::exhaustive();
        let (list, batch) = minimal_cutsets_with_stats(&t, &probs, &opts).unwrap();
        assert!(batch.peak_live_partials > 0);
        assert!(batch.peak_partial_bytes > 0);
        assert!(!list.is_empty());
        // Streaming runs the same traversal, so it queues the same
        // partials.
        let mut sink = CollectingSink::default();
        let stream = stream_minimal_cutsets(&t, &probs, &opts, &mut sink).unwrap();
        assert_eq!(stream.peak_live_partials, batch.peak_live_partials);
        assert_eq!(stream.peak_partial_bytes, batch.peak_partial_bytes);
    }
}
