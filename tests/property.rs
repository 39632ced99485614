//! Property-based tests over randomly generated fault trees: the
//! independent engines (MOCUS, BDD, scenario enumeration, the text
//! format) must agree on every input.

use proptest::prelude::*;
use sdft::bdd::Bdd;
use sdft::ctmc::erlang;
use sdft::ft::{
    format, Cutset, CutsetList, EventProbabilities, FaultTree, FaultTreeBuilder, NodeId, Scenario,
};
use sdft::mocus::{minimal_cutsets, MocusOptions};

/// A compact description of a random static fault tree: event
/// probabilities plus gate specs referencing earlier nodes by index.
#[derive(Debug, Clone)]
struct TreeSpec {
    probs: Vec<f64>,
    gates: Vec<(u8, Vec<usize>)>,
}

fn arb_tree_spec() -> impl Strategy<Value = TreeSpec> {
    let events = prop::collection::vec(0.0f64..=1.0, 2..7);
    let gates = prop::collection::vec((0u8..3, prop::collection::vec(0usize..100, 1..5)), 1..6);
    (events, gates).prop_map(|(probs, gates)| TreeSpec { probs, gates })
}

fn build_tree(spec: &TreeSpec) -> FaultTree {
    let mut b = FaultTreeBuilder::new();
    let mut nodes: Vec<NodeId> = spec
        .probs
        .iter()
        .enumerate()
        .map(|(i, &p)| b.static_event(&format!("e{i}"), p).expect("valid"))
        .collect();
    for (g, (kind, refs)) in spec.gates.iter().enumerate() {
        // Deduplicated inputs from the existing nodes (modular indexing).
        let mut inputs: Vec<NodeId> = refs.iter().map(|&r| nodes[r % nodes.len()]).collect();
        inputs.sort();
        inputs.dedup();
        let id = match kind {
            0 => b.and(&format!("g{g}"), inputs).expect("valid"),
            1 => b.or(&format!("g{g}"), inputs).expect("valid"),
            _ => {
                let k = (refs.len() as u32 % inputs.len() as u32) + 1;
                b.atleast(&format!("g{g}"), k, inputs).expect("valid")
            }
        };
        nodes.push(id);
    }
    let top = *nodes.last().expect("at least one gate");
    // The last node is always a gate (gates is non-empty).
    b.top(top);
    b.build().expect("spec produces a valid tree")
}

/// Shared body of `transforms_preserve_the_function`, callable both
/// from the property test and from the explicit regression replays
/// below (plain asserts so it works outside a `proptest!` block).
fn check_transforms_preserve_the_function(spec: &TreeSpec, mask: u16) {
    use sdft::ft::transform::{expand_atleast, restrict, simplify, Restriction};
    use std::collections::HashMap;

    let tree = build_tree(spec);
    let events: Vec<NodeId> = tree.basic_events().collect();
    let simplified = simplify(&tree).unwrap();
    let expanded = expand_atleast(&tree, 100_000).unwrap();
    assert!(simplified.num_gates() <= tree.num_gates());

    // A fixed assignment for the restriction: the low bits of `mask`
    // decide which events are pinned, the high bits their values.
    let mut assignment: HashMap<NodeId, bool> = HashMap::new();
    for (i, &e) in events.iter().enumerate() {
        if mask >> i & 1 == 1 {
            assignment.insert(e, mask >> (i + 8) & 1 == 1);
        }
    }
    let restricted = restrict(&tree, &assignment).unwrap();

    for scenario_mask in 0u32..(1 << events.len()) {
        let failed_names: Vec<&str> = events
            .iter()
            .enumerate()
            .filter(|(i, _)| scenario_mask >> i & 1 == 1)
            .map(|(_, &e)| tree.name(e))
            .collect();
        let eval = |t: &sdft::ft::FaultTree| {
            let s = Scenario::from_events(t, failed_names.iter().filter_map(|n| t.node_by_name(n)));
            t.fails(t.top(), &s)
        };
        let original = eval(&tree);
        assert_eq!(eval(&simplified), original, "simplify changed the function");
        assert_eq!(eval(&expanded), original, "expansion changed the function");

        // Restriction: only compare on scenarios consistent with the
        // assignment.
        let consistent = assignment.iter().all(|(&e, &v)| {
            let idx = events.iter().position(|&x| x == e).unwrap();
            (scenario_mask >> idx & 1 == 1) == v
        });
        if consistent {
            match &restricted {
                Restriction::Constant(c) => assert_eq!(*c, original),
                Restriction::Tree { tree: r, .. } => {
                    assert_eq!(eval(r), original, "restriction changed the function");
                }
            }
        }
    }
}

/// The two counterexamples recorded in
/// `tests/property.proptest-regressions`, reconstructed explicitly so
/// they keep running even if the seed-replay format changes. Both
/// once exposed bugs in `simplify` (single-input gate collapse and
/// at-least rewriting under deduplicated inputs).
#[test]
fn recorded_transform_regressions_replay() {
    check_transforms_preserve_the_function(
        &TreeSpec {
            probs: vec![0.0; 5],
            gates: vec![(0, vec![27])],
        },
        19432,
    );
    check_transforms_preserve_the_function(
        &TreeSpec {
            probs: vec![0.0, 0.0],
            gates: vec![(0, vec![0]), (2, vec![8, 5, 33])],
        },
        0,
    );
}

/// Brute-force minimal cutsets by scenario enumeration.
fn brute_force_mcs(tree: &FaultTree) -> Vec<Cutset> {
    let events: Vec<NodeId> = tree.basic_events().collect();
    let mut failing: Vec<u32> = Vec::new();
    for mask in 0u32..(1 << events.len()) {
        let scenario = Scenario::from_events(
            tree,
            events
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &e)| e),
        );
        if tree.fails(tree.top(), &scenario) {
            failing.push(mask);
        }
    }
    let mut out: Vec<Cutset> = failing
        .iter()
        .filter(|&&m| !failing.iter().any(|&o| o != m && o & m == o))
        .map(|&m| {
            Cutset::new(
                events
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| m >> i & 1 == 1)
                    .map(|(_, &e)| e),
            )
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// MOCUS, the BDD engine, and brute-force enumeration agree on the
    /// minimal cutsets of random trees with AND/OR/at-least gates.
    #[test]
    fn three_engines_agree_on_minimal_cutsets(spec in arb_tree_spec()) {
        let tree = build_tree(&spec);
        let probs = EventProbabilities::from_static(&tree).unwrap();
        let mut mocus_mcs: Vec<Cutset> =
            minimal_cutsets(&tree, &probs, &MocusOptions::exhaustive())
                .unwrap()
                .into_iter()
                .collect();
        mocus_mcs.sort();
        let mut bdd = Bdd::new(&tree).unwrap();
        let mut bdd_mcs: Vec<Cutset> =
            bdd.minimal_cutsets().unwrap().into_iter().collect();
        bdd_mcs.sort();
        let brute = brute_force_mcs(&tree);
        prop_assert_eq!(&mocus_mcs, &brute);
        prop_assert_eq!(&bdd_mcs, &brute);
    }

    /// The BDD probability equals exhaustive scenario enumeration, and
    /// the rare-event approximation is an upper bound.
    #[test]
    fn bdd_probability_matches_enumeration(spec in arb_tree_spec()) {
        let tree = build_tree(&spec);
        let probs = EventProbabilities::from_static(&tree).unwrap();
        let bdd = Bdd::new(&tree).unwrap();
        let exact = tree.exact_static_probability().unwrap();
        prop_assert!((bdd.top_probability(&probs) - exact).abs() < 1e-12);
        let mcs = minimal_cutsets(&tree, &probs, &MocusOptions::exhaustive()).unwrap();
        let rea = mcs.rare_event_approximation(|e| probs.get(e));
        prop_assert!(rea >= exact - 1e-12);
    }

    /// Cutoff soundness: every cutset above the cutoff survives pruning.
    #[test]
    fn cutoff_never_loses_relevant_cutsets(
        spec in arb_tree_spec(),
        cutoff in 1e-6f64..1e-1,
    ) {
        let tree = build_tree(&spec);
        let probs = EventProbabilities::from_static(&tree).unwrap();
        let all = minimal_cutsets(&tree, &probs, &MocusOptions::exhaustive()).unwrap();
        let pruned =
            minimal_cutsets(&tree, &probs, &MocusOptions::with_cutoff(cutoff)).unwrap();
        for cutset in &all {
            if cutset.probability_with(|e| probs.get(e)) > cutoff {
                prop_assert!(
                    pruned.contains_set(cutset),
                    "lost cutset {:?} above cutoff {}", cutset, cutoff
                );
            }
        }
        for cutset in &pruned {
            prop_assert!(all.contains_set(cutset), "invented cutset {:?}", cutset);
        }
    }

    /// Minimization produces an antichain that covers the input.
    #[test]
    fn minimize_is_an_antichain_cover(
        sets in prop::collection::vec(prop::collection::vec(0usize..10, 1..5), 1..20)
    ) {
        let input: Vec<Cutset> = sets
            .iter()
            .map(|s| Cutset::new(s.iter().map(|&i| NodeId::from_index(i))))
            .collect();
        let minimized = CutsetList::from_vec(input.clone()).minimize();
        // Antichain: no member subsumes another.
        for a in &minimized {
            for b in &minimized {
                prop_assert!(a == b || !a.is_subset_of(b));
            }
        }
        // Cover: every input set is a superset of some member, and every
        // member is an input set.
        for set in &input {
            prop_assert!(minimized.iter().any(|m| m.is_subset_of(set)));
        }
        for m in &minimized {
            prop_assert!(input.contains(m));
        }
    }

    /// Every thread count (up to 8 quantification workers) delivers
    /// bitwise-identical results, and the cutset list equals the batch
    /// MOCUS enumeration.
    #[test]
    fn engine_thread_counts_match_batch_mocus(spec in arb_tree_spec()) {
        use sdft::core::{analyze, AnalysisOptions};
        let tree = build_tree(&spec);
        let probs = EventProbabilities::from_static(&tree).unwrap();
        let mut reference: Vec<Cutset> =
            minimal_cutsets(&tree, &probs, &MocusOptions::default())
                .unwrap()
                .into_iter()
                .collect();
        reference.sort();
        let base = analyze(&tree, &AnalysisOptions::new(24.0)).unwrap();
        let mut listed: Vec<Cutset> = base.cutsets.iter().map(|r| r.cutset.clone()).collect();
        listed.sort();
        prop_assert_eq!(&listed, &reference);
        for threads in [1usize, 2, 4, 8] {
            let mut options = AnalysisOptions::new(24.0);
            options.threads = threads;
            let run = analyze(&tree, &options).unwrap();
            prop_assert_eq!(run.frequency.to_bits(), base.frequency.to_bits(),
                "threads = {}", threads);
            prop_assert_eq!(run.cutsets.len(), base.cutsets.len());
            for (a, b) in run.cutsets.iter().zip(&base.cutsets) {
                prop_assert_eq!(a.cutset.events(), b.cutset.events());
                prop_assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
        }
    }

    /// Dynamic variable reordering is semantically invisible: the BDD
    /// backend with an aggressively low sifting trigger delivers the
    /// same cutsets bitwise and the same exact probability (up to float
    /// re-association noise) as the backend with sifting disabled.
    #[test]
    fn sifting_preserves_bdd_semantics(spec in arb_tree_spec()) {
        use sdft::core::{analyze, AnalysisOptions, Backend};
        let tree = build_tree(&spec);
        let mut options = AnalysisOptions::new(24.0);
        options.backend = Backend::Bdd;
        options.bdd.sift.enabled = false;
        let baseline = analyze(&tree, &options).unwrap();
        options.bdd.sift.enabled = true;
        options.bdd.sift.trigger = 4;
        let sifted = analyze(&tree, &options).unwrap();
        prop_assert_eq!(baseline.frequency, sifted.frequency);
        prop_assert_eq!(baseline.cutsets.len(), sifted.cutsets.len());
        for (a, b) in baseline.cutsets.iter().zip(&sifted.cutsets) {
            prop_assert_eq!(a.cutset.events(), b.cutset.events());
            prop_assert_eq!(a.probability, b.probability);
        }
        let exact = baseline.exact_static.unwrap();
        let exact_sifted = sifted.exact_static.unwrap();
        prop_assert!(
            (exact - exact_sifted).abs() <= exact.abs().max(1e-300) * 1e-12,
            "sifting moved the exact probability: {} vs {}", exact, exact_sifted
        );
    }

    /// The hybrid planner delivers the same cutsets bitwise as pure
    /// MOCUS on random modular trees, for every plan split the node
    /// budget can force — all modules built, a mix, or everything
    /// re-planned to MOCUS — and agrees with the pure BDD backend when
    /// the budget lets it build everything.
    #[test]
    fn hybrid_matches_mocus_and_bdd_on_random_trees(spec in arb_tree_spec()) {
        use sdft::core::{analyze, AnalysisOptions, Backend};
        let tree = build_tree(&spec);
        let mut options = AnalysisOptions::new(24.0);
        options.backend = Backend::Mocus;
        let reference = analyze(&tree, &options).unwrap();
        options.backend = Backend::Bdd;
        let pure_bdd = analyze(&tree, &options).unwrap();
        for max_nodes in [usize::MAX, 40, 2] {
            options.backend = Backend::Hybrid;
            options.bdd.max_nodes = max_nodes;
            let hybrid = analyze(&tree, &options).unwrap();
            prop_assert_eq!(reference.frequency, hybrid.frequency,
                "max_nodes = {}", max_nodes);
            prop_assert_eq!(reference.cutsets.len(), hybrid.cutsets.len(),
                "max_nodes = {}", max_nodes);
            for (a, b) in reference.cutsets.iter().zip(&hybrid.cutsets) {
                prop_assert_eq!(a.cutset.events(), b.cutset.events());
                prop_assert_eq!(a.probability, b.probability);
            }
            if max_nodes == usize::MAX {
                // Fully built hybrid is the exact backend.
                prop_assert_eq!(hybrid.exact_static, pure_bdd.exact_static);
            }
        }
    }

    /// Tree transformations preserve the evaluated function on every
    /// scenario: simplification exactly, voting expansion exactly, and
    /// restriction under the substituted assignment.
    #[test]
    fn transforms_preserve_the_function(spec in arb_tree_spec(), mask in any::<u16>()) {
        check_transforms_preserve_the_function(&spec, mask);
    }

    /// The text format round-trips random SD fault trees.
    #[test]
    fn format_roundtrip(seed in any::<u64>()) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = FaultTreeBuilder::new();
        let mut leaves = Vec::new();
        for i in 0..rng.gen_range(2..6) {
            leaves.push(b.static_event(&format!("s{i}"), rng.gen_range(0.0..0.5)).unwrap());
        }
        for i in 0..rng.gen_range(1..4) {
            let chain = erlang::repairable(
                rng.gen_range(1..4),
                rng.gen_range(1e-4..1e-2),
                if rng.gen_bool(0.5) { rng.gen_range(1e-3..1e-1) } else { 0.0 },
            )
            .unwrap();
            leaves.push(b.dynamic_event(&format!("p{i}"), chain).unwrap());
        }
        let t1 = b.or("t1", leaves[..leaves.len() / 2].to_vec()).unwrap();
        let t2 = b.or("t2", leaves[leaves.len() / 2..].to_vec()).unwrap();
        let mut tops = vec![t1, t2];
        if rng.gen_bool(0.7) {
            let d = b
                .triggered_event(
                    "d0",
                    erlang::triggered(rng.gen_range(1..3), 2e-3, 0.05).unwrap(),
                )
                .unwrap();
            b.trigger(t1, d).unwrap();
            tops.push(d);
        }
        let top = b.and("top", tops).unwrap();
        b.top(top);
        let tree = b.build().unwrap();

        let text = format::to_string(&tree);
        let back = format::parse_str(&text).unwrap();
        prop_assert_eq!(back.num_basic_events(), tree.num_basic_events());
        prop_assert_eq!(back.num_gates(), tree.num_gates());
        for id in tree.node_ids() {
            let name = tree.name(id);
            let bid = back.node_by_name(name).unwrap();
            prop_assert_eq!(tree.gate_kind(id), back.gate_kind(bid));
            prop_assert_eq!(tree.behavior(id), back.behavior(bid));
            prop_assert_eq!(
                tree.trigger_source(id).map(|g| tree.name(g)),
                back.trigger_source(bid).map(|g| back.name(g))
            );
        }
        // And the round-tripped tree analyzes to the same frequency.
        let r1 = sdft::core::analyze(&tree, &sdft::core::AnalysisOptions::new(24.0)).unwrap();
        let r2 = sdft::core::analyze(&back, &sdft::core::AnalysisOptions::new(24.0)).unwrap();
        prop_assert!((r1.frequency - r2.frequency).abs() <= r1.frequency.abs() * 1e-12);
    }
}
