//! Dynamic annotation of static fault trees by importance ranking
//! (§VI-B of the paper).
//!
//! The paper replaces the top-percentage of basic events by Fussell–Vesely
//! importance with dynamic (Erlang-`k`, repairable) events, and builds
//! *triggering chains* among dynamic events of equal importance — such
//! events play the role of symmetric redundant parts, so "start the next
//! one when the previous one has failed" is the natural timed refinement.
//!
//! A chain `e₁ → e₂ → e₃` is realized with per-event wrapper gates:
//! `e₂` is triggered by a fresh gate `OR(e₁)` and `e₃` by `OR(e₂)`. Each
//! wrapper subtree contains exactly one dynamic event, so every
//! triggering gate has *static branching* (§V-A) — the cheapest class for
//! the per-cutset quantification, which is what lets the analysis scale
//! to these model sizes.

use sdft_ctmc::erlang;
use sdft_ft::{Behavior, FaultTree, FaultTreeBuilder, FtError, NodeId};
use std::collections::HashMap;

/// Configuration of the annotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotationConfig {
    /// Fraction of basic events to make dynamic (top of the ranking).
    pub dynamic_fraction: f64,
    /// Fraction of basic events to place in triggering chains (the paper
    /// uses a tenth of the dynamic fraction).
    pub trigger_fraction: f64,
    /// Erlang phases `k` per dynamic event.
    pub phases: usize,
    /// Repair rate `μ` (0 disables repairs).
    pub repair_rate: f64,
    /// Mission time used to derive the failure rate from the event's
    /// static probability (`λ = -ln(1-p)/T`), preserving the worst-case
    /// failure probability at that horizon.
    pub mission_time: f64,
    /// Maximum length of one triggering chain.
    pub max_chain: usize,
}

impl AnnotationConfig {
    /// The paper's §VI-B setup for a given percentage of dynamic events:
    /// `trigger% = dynamic% / 10`, `k = 1`, repairs once per 100 h,
    /// 24 h mission.
    #[must_use]
    pub fn percent_dynamic(percent: f64) -> Self {
        AnnotationConfig {
            dynamic_fraction: percent / 100.0,
            trigger_fraction: percent / 1000.0,
            phases: 1,
            repair_rate: 0.01,
            mission_time: 24.0,
            max_chain: 4,
        }
    }
}

/// The outcome of [`annotate`].
#[derive(Debug, Clone)]
pub struct Annotated {
    /// The rebuilt SD fault tree.
    pub tree: FaultTree,
    /// How many basic events became dynamic.
    pub dynamic_events: usize,
    /// How many of those are triggered (chain members after the first).
    pub triggered_events: usize,
}

/// Replace the top-ranked basic events of a *static* `tree` with dynamic
/// events, chaining equal-importance events with triggers.
///
/// `ranking` is a descending importance ranking (e.g. from
/// `sdft_importance::fussell_vesely_ranking`); only basic-event entries
/// are considered, and events with zero probability are skipped (they
/// have no failure rate to preserve).
///
/// # Errors
///
/// Returns an error if the tree is not static or rebuilding fails.
pub fn annotate(
    tree: &FaultTree,
    ranking: &[(NodeId, f64)],
    config: &AnnotationConfig,
) -> Result<Annotated, FtError> {
    let num_events = tree.num_basic_events();
    let dynamic_target = ((num_events as f64) * config.dynamic_fraction).round() as usize;
    let trigger_target = ((num_events as f64) * config.trigger_fraction).round() as usize;

    // Pick the top of the ranking, keeping the ranking order.
    let mut chosen: Vec<(NodeId, f64)> = Vec::new();
    for &(event, score) in ranking {
        if chosen.len() >= dynamic_target {
            break;
        }
        match tree.behavior(event) {
            Some(Behavior::Static { probability }) if *probability > 0.0 => {
                chosen.push((event, score));
            }
            Some(Behavior::Static { .. }) => {}
            _ => {
                return Err(FtError::KindMismatch {
                    name: tree.name(event).to_owned(),
                    expected: "a static basic event",
                })
            }
        }
    }

    // Group consecutive equal-importance events into chains and assign
    // trigger roles until the budget is exhausted.
    let mut role: HashMap<NodeId, Role> = HashMap::new();
    let mut triggered_events = 0;
    let mut i = 0;
    while i < chosen.len() {
        let (first, score) = chosen[i];
        let mut group = vec![first];
        let mut j = i + 1;
        while j < chosen.len() && group.len() < config.max_chain && approx_equal(chosen[j].1, score)
        {
            group.push(chosen[j].0);
            j += 1;
        }
        role.insert(first, Role::Plain);
        for window in group.windows(2) {
            if triggered_events < trigger_target {
                role.insert(
                    window[1],
                    Role::Triggered {
                        predecessor: window[0],
                    },
                );
                triggered_events += 1;
            } else {
                role.insert(window[1], Role::Plain);
            }
        }
        i = j;
    }
    for &(event, _) in &chosen {
        role.entry(event).or_insert(Role::Plain);
    }

    // Rebuild the tree. Original ids are preserved (nodes are copied in
    // creation order); wrapper gates and triggers are appended at the end.
    let mut b = FaultTreeBuilder::new();
    for id in tree.node_ids() {
        let name = tree.name(id);
        if tree.is_gate(id) {
            b.gate(
                name,
                tree.gate_kind(id).expect("gate"),
                tree.gate_inputs(id).to_vec(),
            )?;
            continue;
        }
        let probability = tree
            .static_probability(id)
            .ok_or_else(|| FtError::KindMismatch {
                name: name.to_owned(),
                expected: "a static basic event",
            })?;
        match role.get(&id) {
            None => {
                b.static_event(name, probability)?;
            }
            Some(Role::Plain) => {
                let lambda = rate_for(probability, config.mission_time, config.phases);
                let chain = erlang::repairable(config.phases, lambda, config.repair_rate)?;
                b.dynamic_event(name, chain)?;
            }
            Some(Role::Triggered { .. }) => {
                let lambda = rate_for(probability, config.mission_time, config.phases);
                let chain = erlang::triggered(config.phases, lambda, config.repair_rate)?;
                b.triggered_event(name, chain)?;
            }
        }
    }
    b.top(tree.top());
    // Wrapper gates and trigger edges, in ranking order so that their
    // ids are the same on every call.
    for &(event, _) in &chosen {
        if let Some(&Role::Triggered { predecessor }) = role.get(&event) {
            let wrapper = b.gate(
                &format!("{}__start", tree.name(event)),
                sdft_ft::GateKind::Or,
                [predecessor],
            )?;
            b.trigger(wrapper, event)?;
        }
    }
    let rebuilt = b.build()?;
    Ok(Annotated {
        tree: rebuilt,
        dynamic_events: chosen.len(),
        triggered_events,
    })
}

#[derive(Debug, Clone, Copy)]
enum Role {
    Plain,
    Triggered { predecessor: NodeId },
}

fn approx_equal(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1e-300);
    (a - b).abs() / scale < 1e-9
}

/// The failure rate `λ` of an Erlang-`k` chain (per-phase rate `kλ`)
/// whose probability of having failed by `mission_time` equals
/// `probability`.
///
/// Preserving the *mission-horizon failure probability* — rather than the
/// paper's mean time to failure — keeps the worst-case probabilities, and
/// with them the minimal cutset list, identical across `k`, so the phase
/// sweep (T4) isolates the cost of larger per-cutset chains. For `k = 1`
/// both conventions coincide (`λ = -ln(1-p)/T`).
fn rate_for(probability: f64, mission_time: f64, phases: usize) -> f64 {
    let p = probability.min(1.0 - 1e-12);
    if phases <= 1 {
        return -(1.0 - p).ln() / mission_time;
    }
    // Erlang(k, kλ) CDF at T is monotone in λ: bisect.
    let cdf = |lambda: f64| -> f64 {
        let rt = phases as f64 * lambda * mission_time;
        let mut term = 1.0;
        let mut partial = 1.0;
        for n in 1..phases {
            term *= rt / n as f64;
            partial += term;
        }
        1.0 - (-rt).exp() * partial
    };
    let mut lo = 0.0;
    let mut hi = -(1.0 - p).ln() / mission_time; // exponential rate
    while cdf(hi) < p {
        hi *= 2.0; // Erlang fails later, so the rate must grow
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::industrial;
    use sdft_ft::EventProbabilities;
    use sdft_importance::fussell_vesely_ranking;
    use sdft_mocus::{minimal_cutsets, MocusOptions};

    fn ranked_model() -> (FaultTree, Vec<(NodeId, f64)>) {
        let tree = industrial::generate(&industrial::model1().scaled(0.03));
        let probs = EventProbabilities::from_static(&tree).unwrap();
        let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::default()).unwrap();
        let ranking = fussell_vesely_ranking(&mcs, &probs, tree.basic_events());
        (tree, ranking)
    }

    #[test]
    fn annotation_hits_the_targets() {
        let (tree, ranking) = ranked_model();
        let cfg = AnnotationConfig::percent_dynamic(20.0);
        let annotated = annotate(&tree, &ranking, &cfg).unwrap();
        let expected = (tree.num_basic_events() as f64 * 0.2).round() as usize;
        assert_eq!(annotated.dynamic_events, expected);
        assert_eq!(annotated.tree.dynamic_basic_events().count(), expected);
        assert!(annotated.triggered_events <= expected);
        // Structure below wrappers is unchanged.
        assert_eq!(annotated.tree.num_basic_events(), tree.num_basic_events());
        assert_eq!(
            annotated.tree.num_gates(),
            tree.num_gates() + annotated.triggered_events
        );
    }

    #[test]
    fn triggered_events_follow_equal_importance_predecessors() {
        let (tree, ranking) = ranked_model();
        let cfg = AnnotationConfig::percent_dynamic(50.0);
        let annotated = annotate(&tree, &ranking, &cfg).unwrap();
        let t = &annotated.tree;
        let mut found = 0;
        for event in t.dynamic_basic_events() {
            if let Some(gate) = t.trigger_source(event) {
                // The wrapper has exactly one input: the predecessor.
                let inputs = t.gate_inputs(gate);
                assert_eq!(inputs.len(), 1);
                assert!(t.behavior(inputs[0]).is_some_and(Behavior::is_dynamic));
                found += 1;
            }
        }
        assert_eq!(found, annotated.triggered_events);
        assert!(found > 0, "expected some triggered events at 50%");
    }

    #[test]
    fn annotation_is_the_same_on_every_call() {
        let (tree, ranking) = ranked_model();
        let cfg = AnnotationConfig::percent_dynamic(50.0);
        let first = annotate(&tree, &ranking, &cfg).unwrap();
        assert!(first.triggered_events > 1);
        let second = annotate(&tree, &ranking, &cfg).unwrap();
        assert_eq!(
            sdft_ft::format::to_string(&first.tree),
            sdft_ft::format::to_string(&second.tree)
        );
    }

    #[test]
    fn zero_percent_is_the_identity() {
        let (tree, ranking) = ranked_model();
        let cfg = AnnotationConfig::percent_dynamic(0.0);
        let annotated = annotate(&tree, &ranking, &cfg).unwrap();
        assert_eq!(annotated.dynamic_events, 0);
        assert!(annotated.tree.is_static());
        assert_eq!(annotated.tree.num_gates(), tree.num_gates());
    }

    #[test]
    fn rate_preserves_worst_case_probability() {
        let p = 0.0123;
        let t = 24.0;
        let lambda = rate_for(p, t, 1);
        let back = 1.0 - (-lambda * t).exp();
        assert!((back - p).abs() < 1e-12);
    }

    #[test]
    fn erlang_rate_preserves_horizon_probability() {
        let p = 3.4e-4;
        let t = 24.0;
        for k in 2..=4usize {
            let lambda = rate_for(p, t, k);
            let chain = erlang::repairable(k, lambda, 0.0).unwrap();
            let back = chain.reach_failed_probability(t, 1e-13).unwrap();
            assert!(
                (back - p).abs() / p < 1e-6,
                "k={k}: {back} vs {p} (lambda {lambda})"
            );
            // The Erlang rate exceeds the exponential rate.
            assert!(lambda > rate_for(p, t, 1));
        }
    }
}
