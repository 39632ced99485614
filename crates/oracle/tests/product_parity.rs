//! The compiled product build equals the reference build, state for
//! state. `sdft_product::ProductChain::build` compiles the trigger gates
//! into bit tests, keys states by packed words and writes rows straight
//! into the chain; `sdft_oracle::reference::build` evaluates scenarios,
//! keys states by `Vec<u16>` and assembles the chain with `CtmcBuilder`.
//! Both must number the same states, give each the same component
//! states, initial probability and failed flag, and write every row with
//! the same targets in the same order and the same rate bits — on every
//! `FT_C` of BWR row 6, on the fixed-seed campaign's trees and their
//! `FT_C`s, and on hand-built trees that stress what the compiled build
//! does differently: keys and gate sets wider than one word, repeated
//! `AtLeast` inputs, components that switch mode by a rate, cascades of
//! updates, and the state budget.

use sdft_core::{analyze, build_ftc_with, AnalysisOptions, FtcContext, TriggerTreatment};
use sdft_ctmc::{erlang, TriggeredCtmcBuilder};
use sdft_ft::{Behavior, FaultTree, FaultTreeBuilder, NodeId};
use sdft_models::bwr::{build, BwrConfig};
use sdft_oracle::check::product_size_estimate;
use sdft_oracle::{campaign_tree, reference, OracleConfig};
use sdft_product::{CompletionSplit, ProductChain, ProductError, ProductOptions};
use std::collections::HashSet;

/// Build `tree` both ways under `options` and assert that the chains
/// agree bit for bit, or that both builds fail with the same error.
/// Returns the number of states or the shared error.
fn assert_same_build(tree: &FaultTree, options: &ProductOptions) -> Result<usize, ProductError> {
    let (compiled, reference) = match (
        ProductChain::build(tree, options),
        reference::build(tree, options),
    ) {
        (Ok(compiled), Ok(reference)) => (compiled, reference),
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "the builds fail differently");
            return Err(a);
        }
        (compiled, reference) => panic!(
            "one build failed: compiled {:?}, reference {:?}",
            compiled.map(|c| c.num_states()),
            reference.map(|r| r.states.len())
        ),
    };
    let (chain, expected) = (compiled.chain(), &reference.chain);
    assert_eq!(compiled.num_states(), reference.states.len(), "state count");
    assert_eq!(chain.len(), expected.len());
    let bits = |row: &[(usize, f64)]| -> Vec<(usize, u64)> {
        row.iter().map(|&(to, rate)| (to, rate.to_bits())).collect()
    };
    for (s, components) in reference.states.iter().enumerate() {
        assert_eq!(&compiled.component_states(s), components, "state {s}");
        assert_eq!(
            chain.initial_probability(s).to_bits(),
            expected.initial_probability(s).to_bits(),
            "initial probability of state {s}"
        );
        assert_eq!(chain.is_failed(s), expected.is_failed(s), "state {s}");
        assert_eq!(
            bits(chain.transitions_from(s)),
            bits(expected.transitions_from(s)),
            "row {s}"
        );
    }
    Ok(reference.states.len())
}

/// Whether `event` is failed in component state `state`.
fn component_failed(tree: &FaultTree, event: NodeId, state: u16) -> bool {
    match tree.behavior(event).expect("basic event") {
        Behavior::Static { .. } => state == 1,
        Behavior::Dynamic(chain) => chain.is_failed(usize::from(state)),
        Behavior::Triggered(chain) => chain.chain().is_failed(usize::from(state)),
    }
}

/// `completion_by_event` re-derives which event drives each transition;
/// the reference records it. Split `Pr[Reach≤t(Failed(events))]` from
/// the recorded tags and assert both splits agree bit for bit.
fn assert_same_completion(tree: &FaultTree, events: &[NodeId], t: f64) {
    let options = ProductOptions::default();
    let compiled = ProductChain::build(tree, &options).unwrap();
    let reference = reference::build(tree, &options).unwrap();
    let split = compiled.completion_by_event(events, t, 1e-12).unwrap();

    let slots: Vec<usize> = events
        .iter()
        .map(|e| compiled.events().iter().position(|x| x == e).unwrap())
        .collect();
    let in_failed: Vec<bool> = reference
        .states
        .iter()
        .map(|c| {
            slots
                .iter()
                .all(|&i| component_failed(tree, compiled.events()[i], c[i]))
        })
        .collect();
    let n = reference.states.len();
    let mut builder = sdft_ctmc::CtmcBuilder::new(n + compiled.events().len());
    for (s, &p) in reference.chain.initial_distribution().iter().enumerate() {
        if p > 0.0 {
            builder.initial(s, p);
        }
    }
    for &(from, to, slot, rate) in &reference.tagged_transitions {
        if !in_failed[from] {
            builder.rate(from, if in_failed[to] { n + slot } else { to }, rate);
        }
    }
    let pi = sdft_ctmc::transient_distribution(&builder.build().unwrap(), t, 1e-12).unwrap();
    let initial: f64 = (0..n).filter(|&s| in_failed[s]).map(|s| pi[s]).sum();
    let by_event: Vec<(NodeId, f64)> = compiled
        .events()
        .iter()
        .enumerate()
        .map(|(slot, &event)| (event, pi[n + slot]))
        .filter(|&(_, p)| p > 0.0)
        .collect();
    let total = initial + by_event.iter().map(|&(_, p)| p).sum::<f64>();
    let expected = CompletionSplit {
        initial,
        by_event,
        total,
    };
    let bits = |s: &CompletionSplit| {
        let by_event: Vec<(NodeId, u64)> =
            s.by_event.iter().map(|&(e, p)| (e, p.to_bits())).collect();
        (s.initial.to_bits(), by_event, s.total.to_bits())
    };
    assert_eq!(bits(&split), bits(&expected));
}

/// The distinct `FT_C`s of `tree`'s minimal cutsets.
fn cutset_models(tree: &FaultTree, horizon: f64) -> Vec<FaultTree> {
    let ctx = FtcContext::new(tree).unwrap();
    let mut seen = HashSet::new();
    analyze(tree, &AnalysisOptions::new(horizon))
        .expect("analysis succeeds")
        .cutsets
        .iter()
        .filter_map(|report| {
            build_ftc_with(tree, &ctx, &report.cutset, TriggerTreatment::Classified)
                .expect("FT_C builds")
                .tree
        })
        .filter(|ftc| seen.insert(ftc.structural_signature()))
        .collect()
}

#[test]
fn bwr_row_6_models_build_identically() {
    // Repairs at 1/100 h and all six triggers.
    let tree = build(&BwrConfig::fully_dynamic(1e-2, 1));
    let models = cutset_models(&tree, 24.0);
    assert!(models.len() >= 100, "only {} distinct FT_Cs", models.len());
    for ftc in &models {
        assert_same_build(ftc, &ProductOptions::default()).expect("FT_C fits the budget");
    }
}

#[test]
fn campaign_trees_and_their_models_build_identically() {
    let cfg = OracleConfig::default();
    let budget = ProductOptions {
        max_states: cfg.check.max_product_states,
    };
    let (mut whole, mut models) = (0, 0);
    for index in 0..cfg.trees {
        let (_, spec) = campaign_tree(cfg.seed, index);
        let tree = spec.build().expect("generated specs build");
        if product_size_estimate(&tree) <= budget.max_states as f64 {
            whole += usize::from(assert_same_build(&tree, &budget).is_ok());
        }
        for ftc in cutset_models(&tree, cfg.check.horizon) {
            assert_same_build(&ftc, &ProductOptions::default()).expect("FT_C fits the budget");
            models += 1;
        }
    }
    assert!(whole >= 200, "only {whole} whole trees compared");
    assert!(models >= 350, "only {models} FT_Cs compared");
}

/// A spare `d` triggered by `trigger` over `x`, failing the top with it.
fn spare_under(mut b: FaultTreeBuilder, trigger: NodeId) -> FaultTree {
    let d = b
        .triggered_event("d", erlang::spare(2e-2, 0.05).unwrap())
        .unwrap();
    let top = b.and("top", [trigger, d]).unwrap();
    b.trigger(trigger, d).unwrap();
    b.top(top);
    b.build().unwrap()
}

#[test]
fn keys_wider_than_one_word_build_identically() {
    // 70 certain or impossible static events, one bit each, push the
    // dynamic events' fields into the second key word.
    let mut b = FaultTreeBuilder::new();
    let statics: Vec<NodeId> = (0..70)
        .map(|i| {
            let p = if i % 3 == 0 { 1.0 } else { 0.0 };
            b.static_event(&format!("s{i}"), p).unwrap()
        })
        .collect();
    let x = b
        .dynamic_event("x", erlang::repairable(2, 1e-2, 0.1).unwrap())
        .unwrap();
    let all = b.and("all", [statics[0], statics[69], x]).unwrap();
    let tree = spare_under(b, all);
    let states = assert_same_build(&tree, &ProductOptions::default()).unwrap();
    assert!(states > 4, "{states} states");
    let d = tree.node_by_name("d").unwrap();
    assert_same_completion(&tree, &[x, d], 200.0);
}

#[test]
fn more_than_64_gates_build_identically() {
    // A ladder of 70 gates between x and the triggering gate.
    let mut b = FaultTreeBuilder::new();
    let x = b
        .dynamic_event("x", erlang::repairable(1, 1e-2, 0.1).unwrap())
        .unwrap();
    let y = b
        .dynamic_event("y", erlang::repairable(1, 2e-2, 0.2).unwrap())
        .unwrap();
    let mut rung = b.or("g0", [x]).unwrap();
    for i in 1..70 {
        rung = if i % 2 == 0 {
            b.or(&format!("g{i}"), [rung]).unwrap()
        } else {
            b.atleast(&format!("g{i}"), 1, [rung, y, rung]).unwrap()
        };
    }
    let tree = spare_under(b, rung);
    assert!(tree.num_gates() > 64);
    assert_same_build(&tree, &ProductOptions::default()).unwrap();
}

#[test]
fn repeated_atleast_inputs_build_identically() {
    let mut b = FaultTreeBuilder::new();
    let x = b
        .dynamic_event("x", erlang::repairable(1, 1e-2, 0.1).unwrap())
        .unwrap();
    let g = b.atleast("g", 2, [x, x]).unwrap();
    let tree = spare_under(b, g);
    assert_same_build(&tree, &ProductOptions::default()).unwrap();
}

#[test]
fn chains_switching_mode_by_a_rate_build_identically() {
    // `w` switches itself on at rate 0.3 from its off state. The update
    // must switch it back off while its trigger is quiet, although the
    // step leaves every failed flag as it was.
    let eager = TriggeredCtmcBuilder::new()
        .off_state() // 0 off, ok
        .on_state() // 1 on, ok
        .on_state() // 2 on, failed
        .off_state() // 3 off, failed latent
        .initial(0, 1.0)
        .rate(0, 1, 0.3)
        .rate(1, 2, 1e-2)
        .rate(2, 1, 0.1)
        .rate(3, 0, 0.1)
        .map(0, 1)
        .map(3, 2)
        .failed(2)
        .build()
        .unwrap();
    let mut b = FaultTreeBuilder::new();
    let x = b
        .dynamic_event("x", erlang::repairable(1, 1e-2, 0.1).unwrap())
        .unwrap();
    let w = b.triggered_event("w", eager).unwrap();
    let g = b.or("g", [x]).unwrap();
    let top = b.and("top", [g, w]).unwrap();
    b.trigger(g, w).unwrap();
    b.top(top);
    let tree = b.build().unwrap();
    assert_same_build(&tree, &ProductOptions::default()).unwrap();
    assert_same_completion(&tree, &[x, w], 100.0);
}

#[test]
fn cascades_build_identically() {
    let latent = erlang::triggered_with(erlang::ErlangOptions {
        phases: 1,
        failure_rate: 1e-2,
        repair_rate: 0.0,
        passive_factor: 1.0,
        repair_while_off: false,
    })
    .unwrap();
    // x failing switches d2 on; d2 switching on failed switches d3 on.
    let mut b = FaultTreeBuilder::new();
    let x = b
        .dynamic_event("x", erlang::repairable(1, 1e-2, 0.0).unwrap())
        .unwrap();
    let d2 = b.triggered_event("d2", latent.clone()).unwrap();
    let d3 = b.triggered_event("d3", latent).unwrap();
    let g1 = b.or("g1", [x]).unwrap();
    let g2 = b.or("g2", [d2]).unwrap();
    let g3 = b.or("g3", [d3]).unwrap();
    let top = b.and("top", [g1, g2, g3]).unwrap();
    b.trigger(g1, d2).unwrap();
    b.trigger(g2, d3).unwrap();
    b.top(top);
    let forward = b.build().unwrap();
    assert_same_build(&forward, &ProductOptions::default()).unwrap();
    assert_same_completion(&forward, &[x, d2, d3], 200.0);

    // Repairing x switches the spare off again.
    let mut b = FaultTreeBuilder::new();
    let x = b
        .dynamic_event("x", erlang::repairable(1, 1e-2, 0.5).unwrap())
        .unwrap();
    let g1 = b.or("g1", [x]).unwrap();
    let back = spare_under(b, g1);
    assert_same_build(&back, &ProductOptions::default()).unwrap();
}

#[test]
fn state_budgets_stop_both_builds_at_the_same_count() {
    // Three uncertain statics give eight initial combinations, x and
    // the spare the rest.
    let mut b = FaultTreeBuilder::new();
    let s: Vec<NodeId> = (0..3)
        .map(|i| {
            b.static_event(&format!("s{i}"), 0.2 + 0.1 * i as f64)
                .unwrap()
        })
        .collect();
    let x = b
        .dynamic_event("x", erlang::repairable(1, 1e-2, 0.1).unwrap())
        .unwrap();
    let g = b.or("g", [s[0], s[1], x]).unwrap();
    let mut tree_builder = b;
    let d = tree_builder
        .triggered_event("d", erlang::spare(2e-2, 0.05).unwrap())
        .unwrap();
    let top = tree_builder.and("top", [g, s[2], d]).unwrap();
    tree_builder.trigger(g, d).unwrap();
    tree_builder.top(top);
    let tree = tree_builder.build().unwrap();
    let states = assert_same_build(&tree, &ProductOptions::default()).unwrap();
    for max_states in 1..=states + 1 {
        let outcome = assert_same_build(&tree, &ProductOptions { max_states });
        if max_states >= states {
            assert_eq!(outcome, Ok(states));
        } else {
            assert_eq!(
                outcome,
                Err(ProductError::TooManyStates { limit: max_states })
            );
        }
    }
}
