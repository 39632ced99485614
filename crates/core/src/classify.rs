use sdft_ft::{FaultTree, GateKind, NodeId};
use std::collections::HashMap;
use std::fmt;

/// The classification of a triggering gate's subtree (§V-A), which decides
/// how much triggering logic the per-cutset model `FT_C` needs:
///
/// * [`TriggerClass::StaticBranching`] — every OR gate in the subtree has
///   at most one dynamic child; only the dynamic events *of the cutset*
///   are relevant (`Rel_a = Dyn_a ∩ C`), so quantification stays smallest.
/// * [`TriggerClass::StaticJoinsUniform`] / [`TriggerClass::StaticJoins`]
///   — no AND gate in the subtree has a dynamic child; all dynamic events
///   of the subtree are relevant (`Rel_a = Dyn_a`). With *uniform
///   triggering* (all dynamic events below the gate are triggered by one
///   common gate) chains of such triggers never force the general case.
/// * [`TriggerClass::General`] — anything else; all basic events of the
///   subtree except the cutset's statics are relevant, which can make
///   quantification expensive. The paper recommends using such gates
///   sparingly; [`classify_triggering_gates`] lets tools warn the user up
///   front.
///
/// At-least gates (an extension over the paper) are treated
/// conservatively: a voting gate with `1 < k < n` and a dynamic child
/// breaks both conditions; `k = 1` behaves like OR and `k = n` like AND.
/// The derived ordering ranks classes by quantification cost:
/// `StaticBranching < StaticJoinsUniform < StaticJoins < General`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TriggerClass {
    /// Every OR gate in the subtree has at most one dynamic child.
    StaticBranching,
    /// No AND gate in the subtree has a dynamic child, and all dynamic
    /// events below the gate share one triggering gate.
    StaticJoinsUniform,
    /// No AND gate in the subtree has a dynamic child, without uniform
    /// triggering.
    StaticJoins,
    /// None of the conditions hold.
    General,
}

impl fmt::Display for TriggerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriggerClass::StaticBranching => write!(f, "static branching"),
            TriggerClass::StaticJoinsUniform => {
                write!(f, "static joins with uniform triggering")
            }
            TriggerClass::StaticJoins => write!(f, "static joins"),
            TriggerClass::General => write!(f, "general"),
        }
    }
}

/// Classify the subtree of `gate` (§V-A).
///
/// Static branching is preferred when both conditions hold, because its
/// relevant set (`Dyn_a ∩ C`) is the smallest.
///
/// # Panics
///
/// Panics if `gate` is out of range.
#[must_use]
pub fn classify_gate(tree: &FaultTree, gate: NodeId) -> TriggerClass {
    let gates = tree.subtree_gates(gate);
    let mut static_branching = true;
    let mut static_joins = true;
    for g in gates {
        let dynamic_children = tree
            .gate_inputs(g)
            .iter()
            .filter(|&&c| tree.is_dynamic_subtree(c))
            .count();
        match tree.gate_kind(g).expect("gate") {
            GateKind::Or => {
                if dynamic_children > 1 {
                    static_branching = false;
                }
            }
            GateKind::And => {
                if dynamic_children > 0 {
                    static_joins = false;
                }
            }
            GateKind::AtLeast(k) => {
                let n = tree.gate_inputs(g).len();
                if k as usize == 1 {
                    if dynamic_children > 1 {
                        static_branching = false;
                    }
                } else if k as usize == n {
                    if dynamic_children > 0 {
                        static_joins = false;
                    }
                } else if dynamic_children > 0 {
                    static_branching = false;
                    static_joins = false;
                }
            }
        }
    }
    if static_branching {
        return TriggerClass::StaticBranching;
    }
    if static_joins {
        if uniform_triggering(tree, gate) {
            return TriggerClass::StaticJoinsUniform;
        }
        return TriggerClass::StaticJoins;
    }
    TriggerClass::General
}

/// Whether all dynamic basic events under `gate` are triggered and share
/// a single triggering gate (§V-A, *uniform triggering*).
#[must_use]
pub fn uniform_triggering(tree: &FaultTree, gate: NodeId) -> bool {
    let mut common: Option<NodeId> = None;
    for event in tree.subtree_basic_events(gate) {
        if !tree
            .behavior(event)
            .is_some_and(sdft_ft::Behavior::is_dynamic)
        {
            continue;
        }
        let Some(source) = tree.trigger_source(event) else {
            return false; // an untriggered dynamic event
        };
        match common {
            None => common = Some(source),
            Some(c) if c == source => {}
            Some(_) => return false,
        }
    }
    true
}

/// Classify every triggering gate of `tree` (the set `{g : trig(g) ≠ ∅}`).
///
/// The paper notes that the efficiency of the per-cutset quantification
/// "can be predicted and indicated to the user" — this is that
/// prediction.
#[must_use]
pub fn classify_triggering_gates(tree: &FaultTree) -> HashMap<NodeId, TriggerClass> {
    tree.gates()
        .filter(|&g| !tree.triggers_of(g).is_empty())
        .map(|g| (g, classify_gate(tree, g)))
        .collect()
}

/// Reject trees whose triggering gates classify worse than
/// `strictest_allowed` (in the cost ordering of [`TriggerClass`]).
///
/// The paper recommends using general-case triggering gates sparingly
/// because their relevant sets — and therefore the per-cutset models —
/// can blow up; this is the corresponding up-front gate for tools that
/// want to refuse (rather than merely warn about) expensive structures.
/// Gates are visited in tree order, so the reported offender is
/// deterministic.
///
/// # Errors
///
/// Returns [`crate::CoreError::TriggerStructure`] naming the first triggering
/// gate whose class exceeds `strictest_allowed`.
pub fn validate_trigger_structure(
    tree: &FaultTree,
    strictest_allowed: TriggerClass,
) -> Result<(), crate::CoreError> {
    for gate in tree.gates() {
        if tree.triggers_of(gate).is_empty() {
            continue;
        }
        let class = classify_gate(tree, gate);
        if class > strictest_allowed {
            return Err(crate::CoreError::TriggerStructure {
                gate: tree.name(gate).to_owned(),
                class,
                allowed: strictest_allowed,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

    fn spare() -> sdft_ctmc::TriggeredCtmc {
        erlang::spare(1e-3, 0.05).unwrap()
    }

    fn plain() -> sdft_ctmc::Ctmc {
        erlang::repairable(1, 1e-3, 0.05).unwrap()
    }

    #[test]
    fn or_with_one_dynamic_child_is_static_branching() {
        // Figure 1 left (2): component with static failure-to-start and
        // dynamic failure-in-operation.
        let mut b = FaultTreeBuilder::new();
        let fts = b.static_event("fts", 3e-3).unwrap();
        let ftr = b.dynamic_event("ftr", plain()).unwrap();
        let pump = b.or("pump", [fts, ftr]).unwrap();
        let d = b.triggered_event("spare", spare()).unwrap();
        let top = b.and("top", [pump, d]).unwrap();
        b.trigger(pump, d).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let pump = t.node_by_name("pump").unwrap();
        assert_eq!(classify_gate(&t, pump), TriggerClass::StaticBranching);
    }

    #[test]
    fn and_of_two_dynamic_components_is_static_branching() {
        // Figure 1 left (3): two redundant dynamically-modeled components
        // combined by AND — OR gates each have one dynamic child.
        let mut b = FaultTreeBuilder::new();
        let s1 = b.static_event("s1", 3e-3).unwrap();
        let d1 = b.dynamic_event("d1", plain()).unwrap();
        let s2 = b.static_event("s2", 3e-3).unwrap();
        let d2 = b.dynamic_event("d2", plain()).unwrap();
        let t1 = b.or("t1", [s1, d1]).unwrap();
        let t2 = b.or("t2", [s2, d2]).unwrap();
        let sys = b.and("sys", [t1, t2]).unwrap();
        let dd = b.triggered_event("next", spare()).unwrap();
        let top = b.and("top", [sys, dd]).unwrap();
        b.trigger(sys, dd).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let sys = t.node_by_name("sys").unwrap();
        assert_eq!(classify_gate(&t, sys), TriggerClass::StaticBranching);
    }

    #[test]
    fn or_of_two_dynamic_events_is_static_joins() {
        // Figure 1 right (1): one system whose pump and generator are both
        // dynamic — the OR has two dynamic children, but no AND is dynamic.
        let mut b = FaultTreeBuilder::new();
        let p = b.dynamic_event("pump", plain()).unwrap();
        let g = b.dynamic_event("gen", plain()).unwrap();
        let train = b.or("train", [p, g]).unwrap();
        let dd = b.triggered_event("next", spare()).unwrap();
        let top = b.and("top", [train, dd]).unwrap();
        b.trigger(train, dd).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let train = t.node_by_name("train").unwrap();
        // The dynamic events under "train" are untriggered, so the
        // triggering is not uniform.
        assert_eq!(classify_gate(&t, train), TriggerClass::StaticJoins);
    }

    #[test]
    fn chained_uniform_triggering_is_detected() {
        // Figure 1 right (3): train 2's dynamic events are all triggered
        // by train 1.
        let mut b = FaultTreeBuilder::new();
        let p1 = b.dynamic_event("pump1", plain()).unwrap();
        let g1 = b.dynamic_event("gen1", plain()).unwrap();
        let train1 = b.or("train1", [p1, g1]).unwrap();
        let p2 = b.triggered_event("pump2", spare()).unwrap();
        let g2 = b.triggered_event("gen2", spare()).unwrap();
        let train2 = b.or("train2", [p2, g2]).unwrap();
        let d3 = b.triggered_event("next", spare()).unwrap();
        let top = b.and("top", [train1, train2, d3]).unwrap();
        b.trigger(train1, p2).unwrap();
        b.trigger(train1, g2).unwrap();
        b.trigger(train2, d3).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let train2 = t.node_by_name("train2").unwrap();
        assert_eq!(classify_gate(&t, train2), TriggerClass::StaticJoinsUniform);
        let all = classify_triggering_gates(&t);
        assert_eq!(all.len(), 2);
        assert_eq!(
            all[&t.node_by_name("train1").unwrap()],
            TriggerClass::StaticJoins
        );
    }

    #[test]
    fn dynamic_child_under_and_is_general() {
        // AND with a dynamic child below an OR with two dynamic children:
        // neither condition holds.
        let mut b = FaultTreeBuilder::new();
        let d1 = b.dynamic_event("d1", plain()).unwrap();
        let d2 = b.dynamic_event("d2", plain()).unwrap();
        let s = b.static_event("s", 0.1).unwrap();
        let inner = b.and("inner", [d1, s]).unwrap();
        let g = b.or("g", [inner, d2]).unwrap();
        let dd = b.triggered_event("next", spare()).unwrap();
        let top = b.and("top", [g, dd]).unwrap();
        b.trigger(g, dd).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        assert_eq!(
            classify_gate(&t, t.node_by_name("g").unwrap()),
            TriggerClass::General
        );
    }

    #[test]
    fn fully_static_subtree_is_static_branching() {
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.static_event("y", 0.1).unwrap();
        let g = b.or("g", [x, y]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        assert_eq!(classify_gate(&t, g), TriggerClass::StaticBranching);
    }

    #[test]
    fn validate_rejects_general_gates_with_a_precise_error() {
        // The general-case shape from `dynamic_child_under_and_is_general`,
        // now triggering a spare: validation must name the offending gate
        // and both classes.
        let mut b = FaultTreeBuilder::new();
        let d1 = b.dynamic_event("d1", plain()).unwrap();
        let d2 = b.dynamic_event("d2", plain()).unwrap();
        let s = b.static_event("s", 0.1).unwrap();
        let inner = b.and("inner", [d1, s]).unwrap();
        let g = b.or("g", [inner, d2]).unwrap();
        let dd = b.triggered_event("next", spare()).unwrap();
        let top = b.and("top", [g, dd]).unwrap();
        b.trigger(g, dd).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        assert_eq!(
            validate_trigger_structure(&t, TriggerClass::StaticJoins),
            Err(crate::CoreError::TriggerStructure {
                gate: "g".to_owned(),
                class: TriggerClass::General,
                allowed: TriggerClass::StaticJoins,
            })
        );
        // Allowing everything accepts the same tree.
        assert_eq!(
            validate_trigger_structure(&t, TriggerClass::General),
            Ok(())
        );
    }

    #[test]
    fn validate_ranks_classes_by_cost() {
        assert!(TriggerClass::StaticBranching < TriggerClass::StaticJoinsUniform);
        assert!(TriggerClass::StaticJoinsUniform < TriggerClass::StaticJoins);
        assert!(TriggerClass::StaticJoins < TriggerClass::General);

        // A static-joins gate passes at its own level but fails under a
        // static-branching-only policy.
        let mut b = FaultTreeBuilder::new();
        let p = b.dynamic_event("pump", plain()).unwrap();
        let g = b.dynamic_event("gen", plain()).unwrap();
        let train = b.or("train", [p, g]).unwrap();
        let dd = b.triggered_event("next", spare()).unwrap();
        let top = b.and("top", [train, dd]).unwrap();
        b.trigger(train, dd).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        assert_eq!(
            validate_trigger_structure(&t, TriggerClass::StaticJoins),
            Ok(())
        );
        let err = validate_trigger_structure(&t, TriggerClass::StaticBranching).unwrap_err();
        assert_eq!(
            err,
            crate::CoreError::TriggerStructure {
                gate: "train".to_owned(),
                class: TriggerClass::StaticJoins,
                allowed: TriggerClass::StaticBranching,
            }
        );
        // The Display form names the gate and both classes.
        let msg = err.to_string();
        assert!(
            msg.contains("train") && msg.contains("static joins"),
            "{msg}"
        );
    }

    #[test]
    fn validate_accepts_untriggered_trees() {
        // No triggering gates at all: nothing to reject, even under the
        // strictest policy, whatever the (untriggered) structure is.
        let mut b = FaultTreeBuilder::new();
        let d1 = b.dynamic_event("d1", plain()).unwrap();
        let d2 = b.dynamic_event("d2", plain()).unwrap();
        let g = b.and("g", [d1, d2]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        assert_eq!(
            validate_trigger_structure(&t, TriggerClass::StaticBranching),
            Ok(())
        );
    }

    #[test]
    fn atleast_gates_are_conservative() {
        let mut b = FaultTreeBuilder::new();
        let d1 = b.dynamic_event("d1", plain()).unwrap();
        let s1 = b.static_event("s1", 0.1).unwrap();
        let s2 = b.static_event("s2", 0.1).unwrap();
        let g = b.atleast("g", 2, [d1, s1, s2]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        assert_eq!(classify_gate(&t, g), TriggerClass::General);

        // k = 1 behaves like OR: one dynamic child is fine.
        let mut b = FaultTreeBuilder::new();
        let d1 = b.dynamic_event("d1", plain()).unwrap();
        let s1 = b.static_event("s1", 0.1).unwrap();
        let g = b.atleast("g", 1, [d1, s1]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        assert_eq!(classify_gate(&t, g), TriggerClass::StaticBranching);
    }
}
