//! Release by component for the MOCUS engine.
//!
//! The batch entry points collect every cutset candidate and minimize
//! them once, at the end of the run. Streaming instead hands the
//! minimal cutsets of each *separable component* to a release callback
//! as soon as the component is expanded: no candidate still to come can
//! subsume (or equal) one already released. Two children `a`, `b` of a
//! top-level OR are *separable* — no candidate of one can ever subsume a
//! candidate of the other — when either
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
//! each component to completion, one after another, minimizing its
//! candidates and releasing the result after each. Overlapping children
//! that differ in a mandatory private event (shared support systems,
//! distinct sequence tails) still split, so a consumer can work on a
//! component's minimal sets while later components are still to be
//! expanded.

use crate::assumptions::Assumptions;
use crate::engine::generate;
use crate::error::MocusError;
use crate::options::MocusOptions;
use crate::stats::MocusStats;
use sdft_ft::{Cutset, EventProbabilities, FaultTree, GateKind, NodeId};

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

/// Generate the minimal cutsets of the top gate of `tree`, handing them
/// to `release` one list per separable component of an OR top (see the
/// module docs), or one list at the end for any other top. Each list is
/// the minimal antichain of its component's candidates, in canonical
/// (order, events) order; no cutset of a later list subsumes or equals
/// one of an earlier list, and a component without candidates is not
/// released. While a component is expanded, its candidate buffer is
/// re-minimized whenever it reaches `max(4096, 2 ×` its length after
/// the last minimize`)`.
///
/// The lists together hold exactly the cutsets of
/// [`minimal_cutsets`](crate::minimal_cutsets), and the sequence of
/// releases is the same on every run.
///
/// # Errors
///
/// Returns an error if the cutoff is invalid or a safety budget in
/// `options` is exceeded; [`MocusError::Aborted`] when `release`
/// returned `false` (the real cause lives with the consumer).
pub fn stream_minimal_cutsets(
    tree: &FaultTree,
    probs: &EventProbabilities,
    options: &MocusOptions,
    release: &mut dyn FnMut(Vec<Cutset>) -> bool,
) -> Result<MocusStats, MocusError> {
    generate(
        tree,
        tree.top(),
        probs,
        options,
        &Assumptions::new(tree),
        true,
        release,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{minimal_cutsets_rooted, minimal_cutsets_with_stats};
    use sdft_ft::{CutsetList, FaultTreeBuilder};

    /// Top OR over `[a1, b1, a2, b2]`: `a1`/`a2` share the event `sa`,
    /// `b1`/`b2` share `sb`, and the `a` and `b` lines are disjoint — two
    /// components whose inputs interleave. The `a` lines' cutsets are
    /// pairs of probability at most 1e-3, the `b` lines' singletons of at
    /// least 0.03.
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

    /// Which line a cutset of [`interleaved_tree`] belongs to.
    fn line_of(tree: &FaultTree, cutset: &Cutset) -> char {
        let lines: Vec<char> = cutset
            .events()
            .iter()
            .map(|&e| tree.name(e).chars().find(|c| "ab".contains(*c)).unwrap())
            .collect();
        assert!(lines.windows(2).all(|w| w[0] == w[1]), "{lines:?}");
        lines[0]
    }

    /// Every list a streaming run released, in release order.
    fn record(tree: &FaultTree, options: &MocusOptions) -> (Vec<Vec<Cutset>>, MocusStats) {
        let probs = EventProbabilities::from_static(tree).unwrap();
        let mut releases = Vec::new();
        let stats = stream_minimal_cutsets(tree, &probs, options, &mut |list| {
            releases.push(list);
            true
        })
        .unwrap();
        (releases, stats)
    }

    /// The minimal sets of a component's candidates. A component's
    /// candidates are those of its inputs, and minimizing each input's
    /// candidates first changes nothing, so this minimizes the union of
    /// the inputs' minimal cutsets.
    fn component_reference(
        tree: &FaultTree,
        inputs: &[NodeId],
        options: &MocusOptions,
    ) -> Vec<Cutset> {
        let probs = EventProbabilities::from_static(tree).unwrap();
        let union: Vec<Cutset> = inputs
            .iter()
            .flat_map(|&input| {
                minimal_cutsets_rooted(tree, input, &probs, options, &Assumptions::new(tree))
                    .unwrap()
            })
            .collect();
        CutsetList::from_vec(union).minimize().into_iter().collect()
    }

    fn canonical(list: &mut [Cutset]) {
        list.sort_unstable_by(|a, b| {
            a.order()
                .cmp(&b.order())
                .then_with(|| a.events().cmp(b.events()))
        });
    }

    #[test]
    fn components_are_released_one_after_another() {
        let t = interleaved_tree();
        let components = separable_components(&t, t.top()).unwrap();
        assert_eq!(components.len(), 2);
        // Exhaustive, both components have cutsets; at a 0.02 cutoff the
        // `a` lines have none.
        for (cutoff, lines) in [(None, &['b', 'a'][..]), (Some(0.02), &['b'][..])] {
            let opts = MocusOptions {
                cutoff,
                ..MocusOptions::default()
            };
            let (releases, _) = record(&t, &opts);
            // One release per component with cutsets, in component order
            // (the component of the last input, `b2`, first), each the
            // minimal sets of that component's candidates.
            let expected: Vec<Vec<Cutset>> = components
                .iter()
                .map(|inputs| component_reference(&t, inputs, &opts))
                .filter(|list| !list.is_empty())
                .collect();
            assert_eq!(releases, expected, "cutoff {cutoff:?}");
            let released_lines: Vec<char> = releases
                .iter()
                .map(|list| {
                    let line = line_of(&t, &list[0]);
                    assert!(list.iter().all(|c| line_of(&t, c) == line));
                    line
                })
                .collect();
            assert_eq!(released_lines, lines);
            // No cutset of one release subsumes or equals one of another.
            for (i, first) in releases.iter().enumerate() {
                for second in &releases[i + 1..] {
                    for a in first {
                        for b in second {
                            assert!(!a.is_subset_of(b) && !b.is_subset_of(a), "{a:?}, {b:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn streamed_cutsets_match_batch() {
        let t = interleaved_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let opts = MocusOptions::exhaustive();
        let (reference, ref_stats) = minimal_cutsets_with_stats(&t, &probs, &opts).unwrap();
        let (releases, stats) = record(&t, &opts);
        // The work counters match the batch run.
        assert_eq!(stats.cutset_candidates, ref_stats.cutset_candidates);
        assert_eq!(stats.partials_processed, ref_stats.partials_processed);
        assert_eq!(stats.partials_pruned, ref_stats.partials_pruned);
        // Every candidate is released or rejected.
        let released: usize = releases.iter().map(Vec::len).sum();
        assert_eq!(
            stats.cutset_candidates - stats.candidates_rejected,
            released as u64
        );
        assert_eq!(
            ref_stats.cutset_candidates - ref_stats.candidates_rejected,
            reference.len() as u64
        );
        // Together the releases are the batch minimal cutsets.
        let mut all: Vec<Cutset> = releases.into_iter().flatten().collect();
        canonical(&mut all);
        let flat: Vec<Cutset> = reference.into_iter().collect();
        assert_eq!(all, flat);
    }

    #[test]
    fn a_top_that_is_not_an_or_gets_one_release() {
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.static_event("y", 0.2).unwrap();
        let z = b.static_event("z", 0.3).unwrap();
        let g = b.or("g", [y, z]).unwrap();
        let top = b.and("top", [x, g]).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let (releases, _) = record(&t, &MocusOptions::exhaustive());
        assert_eq!(releases.iter().map(Vec::len).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn every_run_makes_the_same_releases() {
        let t = interleaved_tree();
        let run = || record(&t, &MocusOptions::exhaustive());
        let (first, first_stats) = run();
        let (second, second_stats) = run();
        assert_eq!(first, second);
        assert_eq!(
            MocusStats {
                minimize_time: std::time::Duration::ZERO,
                ..first_stats
            },
            MocusStats {
                minimize_time: std::time::Duration::ZERO,
                ..second_stats
            }
        );
    }

    #[test]
    fn a_rejected_release_aborts_generation() {
        let t = interleaved_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mut releases = 0;
        let outcome = stream_minimal_cutsets(&t, &probs, &MocusOptions::exhaustive(), &mut |_| {
            releases += 1;
            false
        });
        assert!(matches!(outcome, Err(MocusError::Aborted)));
        // The run stopped at its first release: the second component was
        // never expanded.
        assert_eq!(releases, 1);
    }

    #[test]
    fn budgets_abort_streaming_runs() {
        let t = interleaved_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let opts = MocusOptions {
            max_cutsets: 2,
            ..MocusOptions::exhaustive()
        };
        assert!(matches!(
            stream_minimal_cutsets(&t, &probs, &opts, &mut |_| true),
            Err(MocusError::TooManyCutsets { limit: 2 })
        ));
        let opts = MocusOptions {
            max_partials: 1,
            ..MocusOptions::exhaustive()
        };
        assert!(matches!(
            stream_minimal_cutsets(&t, &probs, &opts, &mut |_| true),
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
        // A batch run minimizes its whole candidate list once.
        assert_eq!(batch.peak_pending_cutsets, batch.cutset_candidates);
        // Streaming seeds one component at a time instead of every input
        // of the top at once, so it never queues more partials, and
        // releases each component's candidates before the next starts.
        let (_, stream) = record(&t, &opts);
        assert!(stream.peak_live_partials > 0);
        assert!(stream.peak_live_partials <= batch.peak_live_partials);
        assert!(stream.peak_partial_bytes <= batch.peak_partial_bytes);
        assert!(stream.peak_pending_cutsets > 0);
        assert!(stream.peak_pending_cutsets < batch.peak_pending_cutsets);
    }
}
