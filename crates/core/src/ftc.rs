use crate::canonical::CanonicalModelKey;
use crate::classify::{classify_gate, TriggerClass};
use crate::error::CoreError;
use crate::translate::unique_name;
use sdft_ft::{
    Behavior, Cutset, CutsetList, EventProbabilities, EventSignature, FaultTree, FaultTreeBuilder,
    NodeId,
};
use sdft_mocus::{minimal_cutsets_rooted, Assumptions, MocusOptions};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// Precomputed, cutset-independent data for [`build_ftc`], bound to the
/// tree it was built from: the classification and subtree events of
/// every triggering gate, every dynamic event's signature, and a memo of
/// the triggering gates' minimal failing subsets. Build it once per tree
/// and share it between every cutset and worker.
#[derive(Debug)]
pub struct FtcContext {
    /// Node count of the tree the context was built from.
    nodes: usize,
    gates: HashMap<NodeId, TriggeringGate>,
    /// Static events appearing in the subtrees of two or more triggering
    /// gates. These may couple several trigger logics, so they must stay
    /// distinct frozen bits in the model; statics private to one gate can
    /// be merged into a single equivalent bit (see [`build_ftc_with`]).
    shared_statics: HashSet<NodeId>,
    /// Every dynamic event's signature including its trigger cone: the
    /// per-event part of the [`CanonicalModelKey`].
    signatures: HashMap<NodeId, EventSignature>,
    /// Unit probabilities (statics keep their own values) — MOCUS runs on
    /// trigger subtrees without a cutoff, so values are irrelevant.
    probs: EventProbabilities,
    /// The minimal failing subsets of each rooted MOCUS input seen so far.
    failing_subsets: Mutex<HashMap<FailingSubsetsKey, Arc<CutsetList>>>,
}

/// A triggering gate's classification and the events of its subtree,
/// each list sorted by id.
#[derive(Debug)]
struct TriggeringGate {
    class: TriggerClass,
    dynamic: Vec<NodeId>,
    statics: Vec<NodeId>,
}

/// Everything a rooted MOCUS run over a triggering gate reads besides
/// the tree and the context's fixed probabilities and options: the gate,
/// the cutset's statics inside its subtree (assumed failed) and the
/// subtree's dynamic events outside `Rel_a` (assumed functional), each
/// sorted by id. Equal keys therefore give equal failing subsets.
#[derive(Debug, PartialEq, Eq, Hash)]
struct FailingSubsetsKey {
    gate: NodeId,
    failed: Vec<NodeId>,
    functional: Vec<NodeId>,
}

impl FtcContext {
    /// Precompute the context for `tree`.
    ///
    /// # Errors
    ///
    /// Returns an error if the tree has an invalid probability (cannot
    /// happen for built trees).
    pub fn new(tree: &FaultTree) -> Result<Self, CoreError> {
        let is_dynamic = |e: &NodeId| tree.behavior(*e).is_some_and(Behavior::is_dynamic);
        let mut gates = HashMap::new();
        let mut static_uses: HashMap<NodeId, usize> = HashMap::new();
        for gate in tree.gates() {
            if tree.triggers_of(gate).is_empty() {
                continue;
            }
            let (dynamic, statics): (Vec<NodeId>, Vec<NodeId>) = tree
                .subtree_basic_events(gate)
                .into_iter()
                .partition(is_dynamic);
            for &e in &statics {
                *static_uses.entry(e).or_default() += 1;
            }
            gates.insert(
                gate,
                TriggeringGate {
                    class: classify_gate(tree, gate),
                    dynamic,
                    statics,
                },
            );
        }
        let shared_statics = static_uses
            .into_iter()
            .filter(|&(_, uses)| uses > 1)
            .map(|(e, _)| e)
            .collect();
        let signatures = tree
            .basic_events()
            .filter(is_dynamic)
            .map(|e| (e, tree.event_trigger_signature(e).expect("basic event")))
            .collect();
        let probs = EventProbabilities::with_dynamic(tree, |_| Ok(1.0))?;
        Ok(FtcContext {
            nodes: tree.len(),
            gates,
            shared_statics,
            signatures,
            probs,
            failing_subsets: Mutex::default(),
        })
    }

    /// The classification of a triggering gate, if `gate` is one.
    #[must_use]
    pub fn class_of(&self, gate: NodeId) -> Option<TriggerClass> {
        self.gates.get(&gate).map(|g| g.class)
    }

    /// The minimal failing subsets `A_i` for `key`, running rooted MOCUS
    /// only on a miss. Workers that miss the same key at once each run
    /// it; the first to finish stores its (identical) result.
    fn failing_subsets(
        &self,
        tree: &FaultTree,
        key: FailingSubsetsKey,
    ) -> Result<Arc<CutsetList>, CoreError> {
        if let Some(subsets) = self.memo().get(&key) {
            return Ok(Arc::clone(subsets));
        }
        let mut assumptions = Assumptions::new(tree);
        for &e in &key.failed {
            assumptions.assume_failed(e)?;
        }
        for &e in &key.functional {
            assumptions.assume_ok(e)?;
        }
        // One thread: this runs inside a quantification worker, and the
        // engine's workers already occupy the cores.
        let options = MocusOptions {
            threads: 1,
            ..MocusOptions::exhaustive()
        };
        let subsets = minimal_cutsets_rooted(tree, key.gate, &self.probs, &options, &assumptions)?;
        Ok(Arc::clone(
            self.memo().entry(key).or_insert_with(|| Arc::new(subsets)),
        ))
    }

    fn memo(&self) -> MutexGuard<'_, HashMap<FailingSubsetsKey, Arc<CutsetList>>> {
        self.failing_subsets
            .lock()
            .expect("no worker panics while holding the FT_C memo")
    }
}

/// The per-cutset SD fault tree `FT_C` (§V-C) together with bookkeeping
/// for quantification and reporting.
#[derive(Debug, Clone)]
pub struct CutsetModel {
    /// The model tree whose top gate is the AND of the cutset's dynamic
    /// events; `None` when the cutset is purely static.
    pub tree: Option<FaultTree>,
    /// Original ids of the cutset's static events (conditioned out of the
    /// model; their probability product multiplies the chain result).
    pub static_events: Vec<NodeId>,
    /// Original ids of the cutset's dynamic events.
    pub dynamic_events: Vec<NodeId>,
    /// Dynamic events added beyond the cutset (triggering logic).
    pub added_dynamic: usize,
    /// Static events added by the triggering logic (random frozen bits in
    /// the product chain).
    pub added_static: usize,
    /// Whether any triggering gate was modeled with the general case.
    pub used_general: bool,
    /// The classification used per modeled triggering gate (original id).
    pub classes_used: Vec<(NodeId, TriggerClass)>,
    /// The canonical structural identity of this model — name-independent
    /// and shared by every cutset whose model is isomorphic to this one;
    /// `None` for purely static cutsets (nothing dynamic to cache). The
    /// quantification layer extends it with the numerical parameters to
    /// form the full cache key
    /// ([`CanonicalModelKey::with_quantification`]).
    pub canonical_key: Option<CanonicalModelKey>,
}

impl CutsetModel {
    /// Total number of dynamic events in the model (cutset + added).
    #[must_use]
    pub fn total_dynamic(&self) -> usize {
        self.dynamic_events.len() + self.added_dynamic
    }
}

/// How much triggering logic the per-cutset models carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TriggerTreatment {
    /// Follow the paper's classification (§V-A): static branching keeps
    /// only the cutset's events, static joins adds the subtree dynamics,
    /// the general case adds everything relevant.
    #[default]
    Classified,
    /// Treat every triggering gate as if it had static branching: only
    /// dynamic events of the cutset itself are kept. This is the
    /// *under-approximation* sketched in the paper's conclusion
    /// ("disregarding interplays of several dynamic basic events") — it
    /// can only miss failure runs, never invent them, and keeps every
    /// per-cutset chain as small as possible.
    CutsetOnly,
}

/// Build the quantification model `FT_C` for `cutset` (§V-C).
///
/// The construction follows the paper's three steps:
///
/// 1. the top gate is an AND over the cutset's dynamic events;
/// 2. for each triggered event the logic of its triggering gate is
///    rebuilt from the *relevant* events `Rel_a` — chosen by the gate's
///    classification — as an OR over ANDs of the minimal failing subsets
///    `A_i` (computed by rooted MOCUS with the cutset's statics assumed
///    failed and irrelevant events assumed functional);
/// 3. newly introduced triggered events whose gates are not yet modeled
///    are processed with the general case.
///
/// # Errors
///
/// Returns an error if the cutset references gates, the construction
/// exceeds MOCUS budgets (possible for hostile general-case subtrees), or
/// `ctx` was built from another tree: the node counts differ, or a
/// triggering gate or dynamic event the model needs is unknown to it.
pub fn build_ftc(
    tree: &FaultTree,
    ctx: &FtcContext,
    cutset: &Cutset,
) -> Result<CutsetModel, CoreError> {
    build_ftc_with(tree, ctx, cutset, TriggerTreatment::Classified)
}

/// Like [`build_ftc`], with control over the triggering treatment
/// ([`TriggerTreatment::CutsetOnly`] gives the fast under-approximation).
///
/// # Errors
///
/// Same as [`build_ftc`].
pub fn build_ftc_with(
    tree: &FaultTree,
    ctx: &FtcContext,
    cutset: &Cutset,
    treatment: TriggerTreatment,
) -> Result<CutsetModel, CoreError> {
    if tree.len() != ctx.nodes {
        return Err(CoreError::ForeignContext {
            context_nodes: ctx.nodes,
            tree_nodes: tree.len(),
        });
    }
    let mut static_events = Vec::new();
    let mut dynamic_events = Vec::new();
    for &event in cutset.events() {
        match tree.behavior(event) {
            Some(Behavior::Static { .. }) => static_events.push(event),
            Some(_) => dynamic_events.push(event),
            None => {
                return Err(CoreError::UnexpectedNode {
                    name: tree.name(event).to_owned(),
                    expected: "a basic event",
                })
            }
        }
    }
    if dynamic_events.is_empty() {
        return Ok(CutsetModel {
            tree: None,
            static_events,
            dynamic_events,
            added_dynamic: 0,
            added_static: 0,
            used_general: false,
            classes_used: Vec::new(),
            canonical_key: None,
        });
    }

    let mut builder = FaultTreeBuilder::new();
    let mut event_map: HashMap<NodeId, NodeId> = HashMap::new();
    let mut gate_map: HashMap<NodeId, NodeId> = HashMap::new();
    // FIFO: cutset events are modeled before the events their triggering
    // logic introduces. This matters for chained uniform triggering
    // (footnote 3 of the paper): by the time a step-3 event comes up,
    // the gate it shares with a cutset event is already in the model,
    // so no general-case fallback is needed.
    let mut worklist: std::collections::VecDeque<(NodeId, bool)> =
        std::collections::VecDeque::new();
    let mut added_dynamic = 0usize;
    let mut added_static = 0usize;
    let mut used_general = false;
    let mut classes_used = Vec::new();

    let add_event = |event: NodeId,
                     builder: &mut FaultTreeBuilder,
                     worklist: &mut std::collections::VecDeque<(NodeId, bool)>,
                     event_map: &mut HashMap<NodeId, NodeId>,
                     in_cutset: bool,
                     added_dynamic: &mut usize,
                     added_static: &mut usize|
     -> Result<NodeId, CoreError> {
        if let Some(&id) = event_map.get(&event) {
            return Ok(id);
        }
        let name = tree.name(event);
        let id = match tree.behavior(event).expect("basic event") {
            Behavior::Static { probability } => {
                if !in_cutset {
                    *added_static += 1;
                }
                builder.static_event(name, *probability)?
            }
            Behavior::Dynamic(chain) => {
                if !in_cutset {
                    *added_dynamic += 1;
                }
                builder.dynamic_event(name, chain.clone())?
            }
            Behavior::Triggered(chain) => {
                if !in_cutset {
                    *added_dynamic += 1;
                }
                let id = builder.triggered_event(name, chain.clone())?;
                worklist.push_back((event, in_cutset));
                id
            }
        };
        event_map.insert(event, id);
        Ok(id)
    };

    // Step 1: cutset dynamic events (their triggers enqueue themselves).
    for &event in &dynamic_events {
        add_event(
            event,
            &mut builder,
            &mut worklist,
            &mut event_map,
            true,
            &mut added_dynamic,
            &mut added_static,
        )?;
    }

    // Steps 2 & 3: model the triggering logic of every triggered event.
    while let Some((event, first_pass)) = worklist.pop_front() {
        let gate = tree
            .trigger_source(event)
            .expect("triggered event has a source");
        if let Some(&new_gate) = gate_map.get(&gate) {
            builder.trigger(new_gate, event_map[&event])?;
            continue;
        }
        let info = ctx
            .gates
            .get(&gate)
            .ok_or_else(|| CoreError::UnknownToContext {
                name: tree.name(gate).to_owned(),
                kind: "triggering gate",
            })?;
        let class = match treatment {
            TriggerTreatment::CutsetOnly => TriggerClass::StaticBranching,
            TriggerTreatment::Classified if first_pass => info.class,
            TriggerTreatment::Classified => TriggerClass::General,
        };
        classes_used.push((gate, class));
        used_general |= class == TriggerClass::General;

        // Rooted MOCUS inputs (§V-C step 2): statics of C are failed, and
        // dynamic events outside Rel_a are functional. Rel_a holds every
        // dynamic event of the subtree, except under static branching,
        // where it holds only those in C. Static events outside C stay
        // *free* so the rooted MOCUS pass emits them into the minimal
        // failing subsets as frozen bits — dropping them instead (as an
        // earlier revision did) loses trigger paths that fire at time zero
        // through a static branch. Those paths belong to non-minimal
        // cutsets that subsumption removed, so the per-cutset model is
        // the only place left that can account for them.
        let key = FailingSubsetsKey {
            gate,
            failed: static_events
                .iter()
                .copied()
                .filter(|e| info.statics.binary_search(e).is_ok())
                .collect(),
            functional: match class {
                TriggerClass::StaticBranching => info
                    .dynamic
                    .iter()
                    .copied()
                    .filter(|&e| !cutset.contains(e))
                    .collect(),
                _ => Vec::new(),
            },
        };
        let a_sets = ctx.failing_subsets(tree, key)?;

        // Build the triggering fault tree: OR over one AND (or leaf) per
        // minimal failing subset. Degenerate cases: no subset → the gate
        // can never fail in this cutset's world (trigger never fires); an
        // empty subset → the cutset's statics alone fail the gate
        // (trigger fires at time zero).
        let or_name = unique_name(&builder, tree.name(gate), "__trig");
        let mut or_inputs: Vec<NodeId> = Vec::new();
        if a_sets.is_empty() {
            let never =
                builder.static_event(&unique_name(&builder, tree.name(gate), "__never"), 0.0)?;
            or_inputs.push(never);
        }

        // Every free static in the model doubles the per-cutset product
        // chain, so collapse what can be collapsed exactly: an all-static
        // failing subset whose members are private to this triggering
        // gate (not shared with any other trigger subtree, not repeated
        // in another subset here) interacts with the rest of the model
        // only through this one OR, so all such subsets merge into a
        // single frozen bit carrying their combined probability.
        let mut occurrences: HashMap<NodeId, usize> = HashMap::new();
        for a_set in a_sets.iter() {
            for &m in a_set.events() {
                *occurrences.entry(m).or_default() += 1;
            }
        }
        let mergeable: Vec<bool> = a_sets
            .iter()
            .map(|a_set| {
                !a_set.is_empty()
                    && a_set.events().iter().all(|&m| {
                        tree.behavior(m)
                            .is_some_and(|b| matches!(b, Behavior::Static { .. }))
                            && !ctx.shared_statics.contains(&m)
                            && occurrences[&m] == 1
                            && !event_map.contains_key(&m)
                    })
            })
            .collect();
        let merged_probs: Vec<f64> = a_sets
            .iter()
            .zip(&mergeable)
            .filter(|&(_, &m)| m)
            .map(|(a, _)| {
                a.events()
                    .iter()
                    .map(|&m| tree.static_probability(m).expect("static event"))
                    .product()
            })
            .collect();
        if !merged_probs.is_empty() {
            // One subset keeps its exact product; several combine as the
            // complement-product of an OR over independent branches.
            let q = if merged_probs.len() == 1 {
                merged_probs[0]
            } else {
                1.0 - merged_probs.iter().map(|p| 1.0 - p).product::<f64>()
            };
            let id =
                builder.static_event(&unique_name(&builder, tree.name(gate), "__statics"), q)?;
            or_inputs.push(id);
            added_static += 1;
        }

        for (i, a_set) in a_sets.iter().enumerate() {
            if mergeable[i] {
                continue;
            }
            if a_set.is_empty() {
                let always = builder
                    .static_event(&unique_name(&builder, tree.name(gate), "__fired"), 1.0)?;
                or_inputs.push(always);
                continue;
            }
            let mut members = Vec::new();
            for &member in a_set.events() {
                let id = add_event(
                    member,
                    &mut builder,
                    &mut worklist,
                    &mut event_map,
                    cutset.contains(member),
                    &mut added_dynamic,
                    &mut added_static,
                )?;
                members.push(id);
            }
            if members.len() == 1 {
                or_inputs.push(members[0]);
            } else {
                let and_name = unique_name(&builder, tree.name(gate), &format!("__and{i}"));
                or_inputs.push(builder.and(&and_name, members)?);
            }
        }
        let new_gate = builder.or(&or_name, or_inputs)?;
        gate_map.insert(gate, new_gate);
        builder.trigger(new_gate, event_map[&event])?;
    }

    // The top gate: AND over the cutset's dynamic events.
    let top_inputs: Vec<NodeId> = dynamic_events.iter().map(|e| event_map[e]).collect();
    let top = builder.and(&unique_name(&builder, "ftc", "__top"), top_inputs)?;
    builder.top(top);
    let model_tree = builder.build()?;
    let signatures = dynamic_events
        .iter()
        .map(|e| {
            ctx.signatures
                .get(e)
                .ok_or_else(|| CoreError::UnknownToContext {
                    name: tree.name(*e).to_owned(),
                    kind: "dynamic event",
                })
        })
        .collect::<Result<_, _>>()?;
    let canonical_key = CanonicalModelKey::stem(signatures, &model_tree, treatment);

    Ok(CutsetModel {
        tree: Some(model_tree),
        static_events,
        dynamic_events,
        added_dynamic,
        added_static,
        used_general,
        classes_used,
        canonical_key: Some(canonical_key),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdft_ctmc::erlang;

    fn spare() -> sdft_ctmc::TriggeredCtmc {
        erlang::spare(1e-3, 0.05).unwrap()
    }

    fn plain() -> sdft_ctmc::Ctmc {
        erlang::repairable(1, 1e-3, 0.05).unwrap()
    }

    /// Example 3 of the paper.
    fn example3() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b.dynamic_event("b", plain()).unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b.triggered_event("d", spare()).unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    fn cutset_of(tree: &FaultTree, names: &[&str]) -> Cutset {
        Cutset::new(names.iter().map(|n| tree.node_by_name(n).unwrap()))
    }

    #[test]
    fn purely_static_cutset_needs_no_chain() {
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let model = build_ftc(&t, &ctx, &cutset_of(&t, &["e"])).unwrap();
        assert!(model.tree.is_none());
        assert_eq!(model.static_events.len(), 1);
        let model = build_ftc(&t, &ctx, &cutset_of(&t, &["a", "c"])).unwrap();
        assert!(model.tree.is_none());
        assert_eq!(model.static_events.len(), 2);
    }

    #[test]
    fn untriggered_dynamic_cutset_is_plain_and() {
        // {b, c}: b is an untriggered dynamic event, c static.
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let model = build_ftc(&t, &ctx, &cutset_of(&t, &["b", "c"])).unwrap();
        let ftc = model.tree.expect("dynamic model");
        assert_eq!(ftc.num_basic_events(), 1); // just b
        assert_eq!(ftc.num_gates(), 1); // the AND top
        assert_eq!(model.static_events.len(), 1);
        assert_eq!(model.added_dynamic, 0);
        assert!(!model.used_general);
    }

    #[test]
    fn triggered_cutset_models_the_trigger_logic() {
        // {a, d}: d is triggered by pump1 = OR(a, b). pump1 has static
        // branching (one dynamic child), so Rel = Dyn ∩ C = ∅ and the
        // static a ∈ C alone fails the gate: trigger fires at time 0.
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let model = build_ftc(&t, &ctx, &cutset_of(&t, &["a", "d"])).unwrap();
        let ftc = model.tree.expect("dynamic model");
        // d plus the always-fired static leaf.
        assert_eq!(model.added_dynamic, 0);
        assert!(!model.used_general);
        assert_eq!(model.classes_used.len(), 1);
        assert_eq!(model.classes_used[0].1, TriggerClass::StaticBranching);
        // The model contains a p=1 leaf (trigger fired by a ∈ C).
        let fired = ftc
            .basic_events()
            .find(|&e| ftc.static_probability(e) == Some(1.0));
        assert!(fired.is_some(), "expected an always-fired trigger leaf");
        let d = ftc.node_by_name("d").unwrap();
        assert!(ftc.trigger_source(d).is_some());
    }

    #[test]
    fn triggered_cutset_keeps_relevant_dynamic_events() {
        // {b, d}: d triggered by pump1 = OR(a, b); b ∈ C is the relevant
        // dynamic event. The static a ∉ C stays in the trigger logic as
        // a frozen bit — a failing at time zero arms d even if b never
        // fails — and, being private to pump1, it is merged into the
        // single `__statics` leaf. Trigger logic = OR(statics, b).
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let model = build_ftc(&t, &ctx, &cutset_of(&t, &["b", "d"])).unwrap();
        let ftc = model.tree.expect("dynamic model");
        assert_eq!(model.static_events.len(), 0);
        assert_eq!(model.added_dynamic, 0);
        assert_eq!(model.added_static, 1);
        // b, d + the merged frozen static bit.
        assert_eq!(ftc.num_basic_events(), 3);
        let d = ftc.node_by_name("d").unwrap();
        let trig = ftc.trigger_source(d).expect("d is triggered");
        let b = ftc.node_by_name("b").unwrap();
        let inputs = ftc.gate_inputs(trig);
        assert_eq!(inputs.len(), 2);
        assert!(inputs.contains(&b));
        let frozen = inputs.iter().copied().find(|&i| i != b).unwrap();
        // The frozen bit carries a's probability.
        assert_eq!(ftc.static_probability(frozen), Some(3e-3));
    }

    #[test]
    fn static_joins_pull_in_all_subtree_dynamics() {
        // Trigger gate = OR(e, f) with both dynamic (static joins); the
        // cutset contains only e — f must still be added (Example 11).
        let mut b = FaultTreeBuilder::new();
        let e = b.dynamic_event("e", plain()).unwrap();
        let f = b.dynamic_event("f", plain()).unwrap();
        let g = b.or("g", [e, f]).unwrap();
        let j = b.triggered_event("j", spare()).unwrap();
        let top = b.and("top", [g, j]).unwrap();
        b.trigger(g, j).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let ctx = FtcContext::new(&t).unwrap();
        let model = build_ftc(&t, &ctx, &cutset_of(&t, &["e", "j"])).unwrap();
        let ftc = model.tree.expect("dynamic model");
        assert_eq!(model.added_dynamic, 1, "f must be added");
        assert!(ftc.node_by_name("f").is_some());
        assert!(!model.used_general);
        assert_eq!(model.classes_used[0].1, TriggerClass::StaticJoins);
    }

    #[test]
    fn general_case_pulls_in_guarding_statics() {
        // Trigger gate = OR(AND(b, dstat), b2) with b, b2 dynamic and
        // dstat static: the OR has two dynamic children (no static
        // branching) and the AND has a dynamic child (no static joins) —
        // the general case. Quantifying {e} must add b, b2 *and* the
        // guarding static dstat as a random bit (Example 11).
        let mut b = FaultTreeBuilder::new();
        let bb = b.dynamic_event("b", plain()).unwrap();
        let dstat = b.static_event("dstat", 0.2).unwrap();
        let b2 = b.dynamic_event("b2", plain()).unwrap();
        let inner = b.and("inner", [bb, dstat]).unwrap();
        let g = b.or("g", [inner, b2]).unwrap();
        let e = b.triggered_event("e", spare()).unwrap();
        let top = b.and("top", [g, e]).unwrap();
        b.trigger(g, e).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let ctx = FtcContext::new(&t).unwrap();
        let model = build_ftc(&t, &ctx, &cutset_of(&t, &["e"])).unwrap();
        assert!(model.used_general);
        let ftc = model.tree.expect("dynamic model");
        assert!(ftc.node_by_name("b").is_some(), "dynamic b added");
        assert!(ftc.node_by_name("b2").is_some(), "dynamic b2 added");
        assert!(ftc.node_by_name("dstat").is_some(), "guarding static added");
        assert_eq!(model.added_dynamic, 2);
        assert_eq!(model.added_static, 1);
    }

    #[test]
    fn general_case_is_skipped_when_cutset_statics_fire_the_trigger() {
        // Same shape, but with a static input a in the cutset: a alone
        // fails the trigger gate forever (statics never repair), so the
        // trigger logic collapses to an always-fired leaf and no other
        // events are added.
        let mut b = FaultTreeBuilder::new();
        let bb = b.dynamic_event("b", plain()).unwrap();
        let dstat = b.static_event("dstat", 0.2).unwrap();
        let b2 = b.dynamic_event("b2", plain()).unwrap();
        let a = b.static_event("a", 0.1).unwrap();
        let inner = b.and("inner", [bb, dstat]).unwrap();
        let g = b.or("g", [inner, b2, a]).unwrap();
        let e = b.triggered_event("e", spare()).unwrap();
        let top = b.and("top", [g, e]).unwrap();
        b.trigger(g, e).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let ctx = FtcContext::new(&t).unwrap();
        let model = build_ftc(&t, &ctx, &cutset_of(&t, &["a", "e"])).unwrap();
        let ftc = model.tree.expect("dynamic model");
        assert_eq!(model.added_dynamic, 0);
        assert_eq!(model.added_static, 0);
        let fired = ftc
            .basic_events()
            .find(|&ev| ftc.static_probability(ev) == Some(1.0));
        assert!(fired.is_some(), "trigger fires at time zero via a ∈ C");
    }

    #[test]
    fn chained_triggers_recurse() {
        // g1 = OR(x) triggers d2; g2 = OR(d2) triggers d3. Cutset
        // {x, d2, d3}: modeling d3's trigger pulls in d2, whose own
        // trigger logic is then modeled too.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let d2 = b.triggered_event("d2", spare()).unwrap();
        let d3 = b.triggered_event("d3", spare()).unwrap();
        let g1 = b.or("g1", [x]).unwrap();
        let g2 = b.or("g2", [d2]).unwrap();
        let g3 = b.or("g3", [d3]).unwrap();
        let top = b.and("top", [g1, g2, g3]).unwrap();
        b.trigger(g1, d2).unwrap();
        b.trigger(g2, d3).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let ctx = FtcContext::new(&t).unwrap();
        let model = build_ftc(&t, &ctx, &cutset_of(&t, &["x", "d2", "d3"])).unwrap();
        let ftc = model.tree.expect("dynamic model");
        let d2_new = ftc.node_by_name("d2").unwrap();
        let d3_new = ftc.node_by_name("d3").unwrap();
        assert!(ftc.trigger_source(d2_new).is_some());
        assert!(ftc.trigger_source(d3_new).is_some());
        assert_eq!(model.classes_used.len(), 2);
    }

    #[test]
    fn shared_trigger_gate_is_modeled_once() {
        // One gate triggers two events; both in the cutset.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let d1 = b.triggered_event("d1", spare()).unwrap();
        let d2 = b.triggered_event("d2", spare()).unwrap();
        let g = b.or("g", [x]).unwrap();
        let top = b.and("top", [g, d1, d2]).unwrap();
        b.trigger(g, d1).unwrap();
        b.trigger(g, d2).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let ctx = FtcContext::new(&t).unwrap();
        let model = build_ftc(&t, &ctx, &cutset_of(&t, &["x", "d1", "d2"])).unwrap();
        let ftc = model.tree.expect("dynamic model");
        assert_eq!(model.classes_used.len(), 1, "shared gate modeled once");
        let t1 = ftc.trigger_source(ftc.node_by_name("d1").unwrap());
        let t2 = ftc.trigger_source(ftc.node_by_name("d2").unwrap());
        assert_eq!(t1, t2);
    }

    #[test]
    fn context_from_another_tree_is_rejected() {
        let t = example3();
        let cutset = cutset_of(&t, &["b", "d"]);

        // A different node count.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let top = b.or("top", [x]).unwrap();
        b.top(top);
        let small = FtcContext::new(&b.build().unwrap()).unwrap();
        assert!(matches!(
            build_ftc(&t, &small, &cutset),
            Err(CoreError::ForeignContext {
                context_nodes: 2,
                tree_nodes: 9
            })
        ));

        // The same node count, but pump 1 and pump 2 created in the
        // other order: the triggering gate has another id.
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b.dynamic_event("b", plain()).unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b.triggered_event("d", spare()).unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        let swapped = FtcContext::new(&b.build().unwrap()).unwrap();
        let unknown = |ctx: &FtcContext| match build_ftc(&t, ctx, &cutset) {
            Err(CoreError::UnknownToContext { name, kind }) => (name, kind),
            other => panic!("expected UnknownToContext, got {other:?}"),
        };
        assert_eq!(unknown(&swapped), ("pump1".to_owned(), "triggering gate"));

        // The same gates, but a and b created in the other order: b's id
        // is a static event in the context's tree.
        let mut b = FaultTreeBuilder::new();
        let bb = b.dynamic_event("b", plain()).unwrap();
        let a = b.static_event("a", 3e-3).unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b.triggered_event("d", spare()).unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        let reordered = FtcContext::new(&b.build().unwrap()).unwrap();
        assert_eq!(unknown(&reordered), ("b".to_owned(), "dynamic event"));
    }

    #[test]
    fn memo_key_holds_only_what_rooted_mocus_reads() {
        // pump1 = OR(a, b) triggers d; c and e lie outside its subtree.
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let entries = || ctx.memo().len();
        let bd = build_ftc(&t, &ctx, &cutset_of(&t, &["b", "d"])).unwrap();
        assert_eq!(entries(), 1);
        // c is outside pump1's subtree: same MOCUS input, same model.
        let bcd = build_ftc(&t, &ctx, &cutset_of(&t, &["b", "c", "d"])).unwrap();
        assert_eq!(entries(), 1);
        assert_eq!(
            bd.tree.unwrap().structural_signature(),
            bcd.tree.unwrap().structural_signature()
        );
        // a is inside it and assumed failed: a new input.
        build_ftc(&t, &ctx, &cutset_of(&t, &["a", "d"])).unwrap();
        assert_eq!(entries(), 2);
        // Static branching with b outside C: b is assumed functional.
        build_ftc(&t, &ctx, &cutset_of(&t, &["d", "e"])).unwrap();
        assert_eq!(entries(), 3);
    }

    #[test]
    fn rejects_cutsets_with_gates() {
        let t = example3();
        let ctx = FtcContext::new(&t).unwrap();
        let bad = Cutset::new([t.node_by_name("pumps").unwrap()]);
        assert!(matches!(
            build_ftc(&t, &ctx, &bad),
            Err(CoreError::UnexpectedNode { .. })
        ));
    }
}
