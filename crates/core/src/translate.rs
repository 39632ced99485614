use crate::error::CoreError;
use sdft_ft::{Cutset, CutsetList, EventProbabilities, FaultTree, FaultTreeBuilder, NodeId};
use std::collections::HashMap;

/// The static fault tree `FT̄` induced by an SD fault tree (§V-B1), with
/// node maps between the two trees.
///
/// `FT̄` has the same minimal cutsets as the SD tree: every dynamic basic
/// event becomes a static event carrying its worst-case probability, and
/// every trigger edge `g ⇢ b` becomes an AND gate over `b` and `g`
/// (a triggered event can only fail once its triggering gate has failed).
#[derive(Debug, Clone)]
pub struct Translated {
    /// The induced static fault tree.
    pub tree: FaultTree,
    /// Map from original node ids to ids in [`Translated::tree`]
    /// (basic events and original gates; the inserted AND gates have no
    /// preimage).
    pub from_original: HashMap<NodeId, NodeId>,
    /// Map from ids in [`Translated::tree`] back to original ids
    /// (`None` for the inserted AND gates).
    pub to_original: Vec<Option<NodeId>>,
}

impl Translated {
    /// Map a cutset over `FT̄` ids back to original ids.
    ///
    /// # Panics
    ///
    /// Panics if the cutset contains an inserted AND gate, which cannot
    /// happen for cutsets produced from [`Translated::tree`].
    #[must_use]
    pub fn cutset_to_original(&self, cutset: &Cutset) -> Cutset {
        Cutset::new(cutset.events().iter().map(|&e| {
            self.to_original[e.index()].expect("cutset events map back to original events")
        }))
    }

    /// Map an owned cutset back to original ids in place, reusing its
    /// allocation. Basic events are translated first in original order,
    /// so the id mapping is strictly monotone and the events stay
    /// sorted — this is the same property the engine's final
    /// canonical sort relies on.
    ///
    /// # Panics
    ///
    /// Panics if the cutset contains an inserted AND gate, which cannot
    /// happen for cutsets produced from [`Translated::tree`].
    #[must_use]
    pub fn cutset_into_original(&self, cutset: Cutset) -> Cutset {
        cutset.map_events_monotone(|e| {
            self.to_original[e.index()].expect("cutset events map back to original events")
        })
    }

    /// Map a whole cutset list back to original ids.
    #[must_use]
    pub fn cutsets_to_original(&self, list: &CutsetList) -> CutsetList {
        list.iter().map(|c| self.cutset_to_original(c)).collect()
    }
}

/// Translate an SD fault tree into the static tree `FT̄` with identical
/// minimal cutsets (§V-B1), assigning every basic event the probability
/// from `probs` (typically [`crate::worst_case_probabilities`]).
///
/// # Errors
///
/// Returns an error if tree construction fails (e.g. a probability in
/// `probs` is invalid).
pub fn translate(tree: &FaultTree, probs: &EventProbabilities) -> Result<Translated, CoreError> {
    let mut builder = FaultTreeBuilder::new();
    let mut from_original: HashMap<NodeId, NodeId> = HashMap::new();
    let mut to_original: Vec<Option<NodeId>> = Vec::new();
    // For triggered events: the AND(b, g) replacement node, once created.
    let mut replacement: HashMap<NodeId, NodeId> = HashMap::new();

    // 1. All basic events become static events.
    for event in tree.basic_events() {
        let id = builder.static_event(tree.name(event), probs.get(event))?;
        from_original.insert(event, id);
        to_original.push(Some(event));
        debug_assert_eq!(id.index() + 1, to_original.len());
    }

    // 2. Gates and trigger-replacement AND gates, in dependency order.
    //    A gate depends on its inputs; a triggered input additionally
    //    depends on its triggering gate (via the AND replacement). The
    //    trigger structure is acyclic, so the loop below always makes
    //    progress.
    let mut pending: Vec<NodeId> = tree.gates().collect();
    while !pending.is_empty() {
        let before = pending.len();
        let mut still_pending = Vec::new();
        'gates: for gate in pending {
            // Resolve the translated id of every input, creating trigger
            // replacements on demand.
            let mut inputs = Vec::new();
            for &input in tree.gate_inputs(gate) {
                let resolved = if tree.is_basic(input) && tree.trigger_source(input).is_some() {
                    if let Some(&r) = replacement.get(&input) {
                        Some(r)
                    } else {
                        let trigger_gate = tree.trigger_source(input).expect("checked");
                        match from_original.get(&trigger_gate) {
                            Some(&tg) => {
                                let name = unique_name(&builder, tree.name(input), "__trig");
                                let b = from_original[&input];
                                let and = builder.and(&name, [b, tg])?;
                                to_original.push(None);
                                replacement.insert(input, and);
                                Some(and)
                            }
                            None => None, // triggering gate not translated yet
                        }
                    }
                } else {
                    from_original.get(&input).copied()
                };
                match resolved {
                    Some(r) => inputs.push(r),
                    None => {
                        still_pending.push(gate);
                        continue 'gates;
                    }
                }
            }
            let id = builder.gate(tree.name(gate), tree.gate_kind(gate).expect("gate"), inputs)?;
            from_original.insert(gate, id);
            to_original.push(Some(gate));
        }
        assert!(
            still_pending.len() < before,
            "no progress translating gates: trigger structure must be acyclic"
        );
        pending = still_pending;
    }

    builder.top(from_original[&tree.top()]);
    let translated = builder.build()?;
    Ok(Translated {
        tree: translated,
        from_original,
        to_original,
    })
}

pub(crate) fn unique_name(builder: &FaultTreeBuilder, base: &str, suffix: &str) -> String {
    let name = format!("{base}{suffix}");
    if !builder.contains_name(&name) {
        return name;
    }
    let mut counter = 2;
    loop {
        let candidate = format!("{name}{counter}");
        if !builder.contains_name(&candidate) {
            return candidate;
        }
        counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worstcase::worst_case_probabilities;
    use sdft_ctmc::erlang;
    use sdft_ft::{FaultTreeBuilder, GateKind};
    use sdft_mocus::{minimal_cutsets, MocusOptions};

    /// Example 3 of the paper.
    fn example3() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b
            .dynamic_event("b", erlang::repairable(1, 1e-3, 0.05).unwrap())
            .unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    #[test]
    fn translation_is_static_and_preserves_structure() {
        let t = example3();
        let probs = worst_case_probabilities(&t, 24.0, 1e-12).unwrap();
        let tr = translate(&t, &probs).unwrap();
        assert!(tr.tree.is_static());
        // One AND gate added for the single trigger edge.
        assert_eq!(tr.tree.num_gates(), t.num_gates() + 1);
        assert_eq!(tr.tree.num_basic_events(), t.num_basic_events());
        // d now sits under AND(d, pump1).
        let d = tr.tree.node_by_name("d").unwrap();
        let and = tr
            .tree
            .gates()
            .find(|&g| tr.tree.gate_inputs(g).contains(&d) && tr.to_original[g.index()].is_none())
            .expect("replacement AND gate exists");
        assert_eq!(tr.tree.gate_kind(and), Some(GateKind::And));
        let p1_new = tr.from_original[&t.node_by_name("pump1").unwrap()];
        assert!(tr.tree.gate_inputs(and).contains(&p1_new));
        // pump2 now references the AND gate, not d directly.
        let p2_new = tr.from_original[&t.node_by_name("pump2").unwrap()];
        assert!(tr.tree.gate_inputs(p2_new).contains(&and));
        assert!(!tr.tree.gate_inputs(p2_new).contains(&d));
    }

    #[test]
    fn translated_mcs_match_the_paper() {
        // The SD tree of Example 3 has MCS {e}, {a,c}, {b,c}, and — due to
        // the trigger — {a,d} and {b,d} become {a,d(+pump1)} = {a,d},
        // {b,d}: pump1 must fail for d anyway, and pump1 fails iff a or b
        // fails, which the cutsets already contain.
        let t = example3();
        let probs = worst_case_probabilities(&t, 24.0, 1e-12).unwrap();
        let tr = translate(&t, &probs).unwrap();
        let static_probs = EventProbabilities::from_static(&tr.tree).unwrap();
        let mcs = minimal_cutsets(&tr.tree, &static_probs, &MocusOptions::exhaustive()).unwrap();
        let original = tr.cutsets_to_original(&mcs);
        let mut names: Vec<Vec<String>> = original
            .iter()
            .map(|c| c.events().iter().map(|&e| t.name(e).to_owned()).collect())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                vec!["a".to_owned(), "c".to_owned()],
                vec!["a".to_owned(), "d".to_owned()],
                vec!["b".to_owned(), "c".to_owned()],
                vec!["b".to_owned(), "d".to_owned()],
                vec!["e".to_owned()],
            ]
        );
    }

    #[test]
    fn chained_triggers_translate() {
        // g1 triggers d2 (under g2), g2 triggers d3 (under top).
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let d2 = b
            .triggered_event("d2", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let d3 = b
            .triggered_event("d3", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let g1 = b.or("g1", [x]).unwrap();
        let g2 = b.or("g2", [d2]).unwrap();
        let g3 = b.or("g3", [d3]).unwrap();
        let top = b.and("top", [g1, g2, g3]).unwrap();
        b.trigger(g1, d2).unwrap();
        b.trigger(g2, d3).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let probs = worst_case_probabilities(&t, 24.0, 1e-12).unwrap();
        let tr = translate(&t, &probs).unwrap();
        assert!(tr.tree.is_static());
        assert_eq!(tr.tree.num_gates(), t.num_gates() + 2);
        // The only cutset is {x, d2, d3}: x fails g1, triggering d2 whose
        // failure fails g2, triggering d3.
        let static_probs = EventProbabilities::from_static(&tr.tree).unwrap();
        let mcs = minimal_cutsets(&tr.tree, &static_probs, &MocusOptions::exhaustive()).unwrap();
        assert_eq!(mcs.len(), 1);
        let orig = tr.cutset_to_original(mcs.get(0).unwrap());
        let names: Vec<&str> = orig.events().iter().map(|&e| t.name(e)).collect();
        assert_eq!(names, vec!["x", "d2", "d3"]);
    }

    #[test]
    fn untriggered_dynamic_events_translate_to_plain_statics() {
        let mut b = FaultTreeBuilder::new();
        let p = b
            .dynamic_event("p", erlang::repairable(1, 1e-3, 0.05).unwrap())
            .unwrap();
        let g = b.or("g", [p]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let probs = worst_case_probabilities(&t, 24.0, 1e-12).unwrap();
        let tr = translate(&t, &probs).unwrap();
        assert_eq!(tr.tree.num_gates(), 1);
        let p_new = tr.from_original[&p];
        assert!((tr.tree.static_probability(p_new).unwrap() - probs.get(p)).abs() < 1e-18);
    }
}
