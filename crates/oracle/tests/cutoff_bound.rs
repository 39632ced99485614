//! The cutoff path of MOCUS on generated trees. The campaign runs MOCUS
//! exhaustively, so neither the look-ahead bound nor the bound on OR
//! branches prunes anything there. Here every preset's first trees are
//! translated under worst-case probabilities and cut at cutoffs between
//! their own cutset probabilities. A cutoff run must keep exactly the
//! exhaustive minimal cutsets above the cutoff. A copy with every gate
//! input behind a chain of single-input gates must give the same cutsets
//! and the same work counters, because MOCUS expands the node a chain
//! stands for directly.

use sdft_core::{translate, worst_case_probabilities};
use sdft_ft::{Cutset, EventProbabilities, FaultTree, FaultTreeBuilder, GateKind, NodeId};
use sdft_mocus::{minimal_cutsets, minimal_cutsets_with_stats, MocusOptions, MocusStats};
use sdft_oracle::{generate_seeded, CheckConfig, GeneratorConfig};

/// Trees per preset.
const SEEDS: u64 = 100;

/// A copy of the static `tree` in which every gate input, and the top,
/// sits under a chain of one to three single-input OR and AND gates.
/// Nodes keep their order, so the events keep theirs.
fn with_chains(tree: &FaultTree) -> FaultTree {
    let mut b = FaultTreeBuilder::new();
    let mut copy: Vec<NodeId> = Vec::with_capacity(tree.len());
    let mut made = 0usize;
    let mut chain = |b: &mut FaultTreeBuilder, node: NodeId| {
        let depth = 1 + made % 3;
        (0..depth).fold(node, |inner, level| {
            made += 1;
            let kind = if (made + level).is_multiple_of(2) {
                GateKind::Or
            } else {
                GateKind::And
            };
            b.gate(&format!("chain~{made}"), kind, [inner]).unwrap()
        })
    };
    for id in tree.node_ids() {
        let node = match tree.gate_kind(id) {
            None => {
                let p = tree
                    .static_probability(id)
                    .expect("translated trees are static");
                b.static_event(tree.name(id), p).unwrap()
            }
            Some(kind) => {
                let inputs: Vec<NodeId> = tree
                    .gate_inputs(id)
                    .iter()
                    .map(|input| chain(&mut b, copy[input.index()]))
                    .collect();
                b.gate(tree.name(id), kind, inputs).unwrap()
            }
        };
        copy.push(node);
    }
    let top = chain(&mut b, copy[tree.top().index()]);
    b.top(top);
    b.build().unwrap()
}

/// Cutsets as lists of event names, in list order.
fn named(tree: &FaultTree, cutsets: impl IntoIterator<Item = Cutset>) -> Vec<Vec<String>> {
    cutsets
        .into_iter()
        .map(|c| {
            c.events()
                .iter()
                .map(|&e| tree.name(e).to_owned())
                .collect()
        })
        .collect()
}

/// Geometric midpoints between neighbouring distinct cutset
/// probabilities, just above the 25th, 50th and 75th percentiles. Values
/// within a relative 1e-9 count as one, so no cutoff sits within
/// rounding of a cutset's probability.
fn cutoffs(mut probabilities: Vec<f64>) -> Vec<f64> {
    probabilities.sort_by(f64::total_cmp);
    probabilities.dedup_by(|b, a| *b <= *a * (1.0 + 1e-9));
    let n = probabilities.len();
    let mut cutoffs: Vec<f64> = [0.25, 0.5, 0.75]
        .iter()
        .filter_map(|q| {
            let i = (q * (n as f64 - 1.0)) as usize;
            (i + 1 < n).then(|| (probabilities[i] * probabilities[i + 1]).sqrt())
        })
        .collect();
    cutoffs.dedup();
    cutoffs
}

/// The counters that describe the work, not its time.
fn work(stats: &MocusStats) -> (u64, u64, u64) {
    (
        stats.partials_processed,
        stats.partials_pruned,
        stats.cutset_candidates,
    )
}

#[test]
fn cutoff_runs_keep_the_exhaustive_cutsets_above_the_cutoff_with_or_without_chains() {
    let cfg = CheckConfig::default();
    let presets = [
        ("small", GeneratorConfig::small()),
        ("medium", GeneratorConfig::medium()),
        ("static_only", GeneratorConfig::static_only()),
        ("violating", GeneratorConfig::violating()),
    ];
    let (mut trees, mut checks) = (0, 0);
    for (name, preset) in &presets {
        for seed in 0..SEEDS {
            let tree = generate_seeded(preset, seed).build().unwrap();
            let wc = worst_case_probabilities(&tree, cfg.horizon, cfg.epsilon).unwrap();
            let ft_bar = translate(&tree, &wc).unwrap().tree;
            let chained = with_chains(&ft_bar);
            let probs = EventProbabilities::from_static(&ft_bar).unwrap();
            let chained_probs = EventProbabilities::from_static(&chained).unwrap();
            let exhaustive: Vec<Cutset> =
                minimal_cutsets(&ft_bar, &probs, &MocusOptions::exhaustive())
                    .unwrap()
                    .into_iter()
                    .collect();
            let probability = |c: &Cutset| c.probability_with(|e| probs.get(e));
            trees += 1;
            for cutoff in cutoffs(exhaustive.iter().map(probability).collect()) {
                let case = format!("{name} seed {seed}, cutoff {cutoff:e}");
                let options = MocusOptions::with_cutoff(cutoff);
                let above = exhaustive
                    .iter()
                    .filter(|c| probability(c) > cutoff)
                    .cloned();
                let expected = named(&ft_bar, above);
                let (kept, stats) = minimal_cutsets_with_stats(&ft_bar, &probs, &options).unwrap();
                assert_eq!(named(&ft_bar, kept), expected, "{case}");
                assert!(stats.partials_pruned > 0, "{case}");
                let (kept, chained_stats) =
                    minimal_cutsets_with_stats(&chained, &chained_probs, &options).unwrap();
                assert_eq!(named(&chained, kept), expected, "chained {case}");
                assert_eq!(work(&chained_stats), work(&stats), "chained {case}");
                checks += 1;
            }
        }
    }
    assert_eq!(trees, 4 * SEEDS as usize);
    // 738 checks when this test was written: most trees have enough
    // distinct cutset probabilities for two or three cutoffs.
    assert!(checks > trees, "{checks} checks on {trees} trees");
}
