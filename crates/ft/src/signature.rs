//! Structural signatures of fault tree parts.
//!
//! A *signature* is a canonical byte encoding that is independent of node
//! names and of the identity of the tree that produced it: two fault
//! trees (or events, or trigger cones) that are isomorphic as labelled
//! structures — same shapes, same behaviours with bit-identical
//! parameters, same trigger wiring — have equal signatures, and only
//! those do. Signatures are the foundation of the cross-cutset
//! quantification cache in `sdft-core`: equal signatures guarantee
//! bitwise-identical quantification results, so signatures are exact
//! encodings, never lossy digests.

use crate::cutset::Cutset;
use crate::node::{Behavior, GateKind, NodeId};
use crate::tree::FaultTree;
use std::collections::HashMap;

/// Canonical encoding of one basic event's failure behaviour — and, via
/// [`FaultTree::cutset_event_signatures`], of its triggering logic.
///
/// Equal signatures mean bit-identical behaviour: the same static
/// probability, or a structurally identical (triggered) chain (see
/// [`sdft_ctmc::ChainSignature`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventSignature(Vec<u8>);

impl EventSignature {
    /// The canonical byte encoding backing this signature.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Canonical encoding of an entire fault tree in node-creation order:
/// per-node behaviour or gate shape (inputs as raw indices), trigger
/// wiring, and the top gate — names excluded.
///
/// Two trees share a signature iff a creation-order-preserving
/// renaming maps one onto the other. Everything the product-chain
/// semantics depends on is captured, so equal signatures imply
/// bitwise-identical quantification results.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreeSignature(Vec<u8>);

impl TreeSignature {
    /// The canonical byte encoding backing this signature.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Byte-encoding helper: fixed-width little-endian integers, floats as
/// IEEE-754 bit patterns.
#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn tag(&mut self, tag: u8) {
        self.bytes.push(tag);
    }

    fn usize(&mut self, value: usize) {
        self.bytes.extend_from_slice(&(value as u64).to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.bytes.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    fn blob(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.bytes.extend_from_slice(bytes);
    }
}

impl Behavior {
    /// The structural signature of this behaviour (name-independent).
    #[must_use]
    pub fn structural_signature(&self) -> EventSignature {
        let mut w = Writer::default();
        write_behavior(self, &mut w);
        EventSignature(w.bytes)
    }
}

fn write_behavior(behavior: &Behavior, w: &mut Writer) {
    match behavior {
        Behavior::Static { probability } => {
            w.tag(b'S');
            w.f64(*probability);
        }
        Behavior::Dynamic(chain) => {
            w.tag(b'D');
            w.blob(chain.structural_signature().as_bytes());
        }
        Behavior::Triggered(chain) => {
            w.tag(b'R');
            w.blob(chain.structural_signature().as_bytes());
        }
    }
}

fn write_gate_kind(kind: GateKind, w: &mut Writer) {
    match kind {
        GateKind::And => w.tag(0),
        GateKind::Or => w.tag(1),
        GateKind::AtLeast(k) => {
            w.tag(2);
            w.usize(k as usize);
        }
    }
}

impl FaultTree {
    /// The structural signature of the basic event `id`, or `None` if
    /// `id` is a gate.
    #[must_use]
    pub fn event_signature(&self, id: NodeId) -> Option<EventSignature> {
        self.behavior(id).map(Behavior::structural_signature)
    }

    /// The signatures of the cutset's basic events *including their
    /// triggering logic*, in canonical (sorted) order.
    ///
    /// Each entry encodes the event's behaviour; for a triggered event it
    /// additionally embeds the [`FaultTree::cone_signature`] of its
    /// triggering gate, so two cutsets get equal signature lists exactly
    /// when their events are pairwise name-isomorphic *and* wired to
    /// isomorphic trigger cones. Returns `None` if the cutset references
    /// a gate.
    #[must_use]
    pub fn cutset_event_signatures(&self, cutset: &Cutset) -> Option<Vec<EventSignature>> {
        let mut out = cutset
            .events()
            .iter()
            .map(|&event| self.event_trigger_signature(event))
            .collect::<Option<Vec<_>>>()?;
        out.sort();
        Some(out)
    }

    /// The signature of the basic event `id` *including its triggering
    /// logic*: its behaviour, then for a triggered event the
    /// [`FaultTree::cone_signature`] of its triggering gate. One entry of
    /// [`FaultTree::cutset_event_signatures`]; `None` if `id` is a gate.
    #[must_use]
    pub fn event_trigger_signature(&self, id: NodeId) -> Option<EventSignature> {
        let mut w = Writer::default();
        write_behavior(self.behavior(id)?, &mut w);
        match self.trigger_source(id) {
            None => w.tag(0),
            Some(gate) => {
                w.tag(1);
                w.blob(self.cone_signature(gate).as_bytes());
            }
        }
        Some(EventSignature(w.bytes))
    }

    /// The structural signature of the cone (reachable sub-DAG) rooted at
    /// `root`: a depth-first serialization where nodes are numbered by
    /// discovery order, so shared nodes serialize once and later
    /// occurrences become back-references. Names are excluded; sharing
    /// structure is preserved exactly.
    #[must_use]
    pub fn cone_signature(&self, root: NodeId) -> TreeSignature {
        let mut w = Writer::default();
        let mut discovered: HashMap<NodeId, usize> = HashMap::new();
        self.write_cone(root, &mut discovered, &mut w);
        TreeSignature(w.bytes)
    }

    fn write_cone(&self, node: NodeId, discovered: &mut HashMap<NodeId, usize>, w: &mut Writer) {
        if let Some(&index) = discovered.get(&node) {
            w.tag(b'B'); // back-reference to an already serialized node
            w.usize(index);
            return;
        }
        discovered.insert(node, discovered.len());
        if let Some(behavior) = self.behavior(node) {
            w.tag(b'E');
            write_behavior(behavior, w);
        } else {
            w.tag(b'G');
            write_gate_kind(self.gate_kind(node).expect("node is a gate"), w);
            let inputs = self.gate_inputs(node);
            w.usize(inputs.len());
            for &input in inputs {
                self.write_cone(input, discovered, w);
            }
        }
    }

    /// The structural signature of the whole tree (see [`TreeSignature`]).
    #[must_use]
    pub fn structural_signature(&self) -> TreeSignature {
        let mut w = Writer::default();
        w.usize(self.len());
        for id in self.node_ids() {
            if let Some(behavior) = self.behavior(id) {
                w.tag(b'E');
                write_behavior(behavior, &mut w);
            } else {
                w.tag(b'G');
                write_gate_kind(self.gate_kind(id).expect("node is a gate"), &mut w);
                let inputs = self.gate_inputs(id);
                w.usize(inputs.len());
                for &input in inputs {
                    w.usize(input.index());
                }
            }
            match self.trigger_source(id) {
                None => w.tag(0),
                Some(gate) => {
                    w.tag(1);
                    w.usize(gate.index());
                }
            }
        }
        w.usize(self.top().index());
        TreeSignature(w.bytes)
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::{FaultTree, FaultTreeBuilder};
    use crate::Cutset;
    use sdft_ctmc::erlang;

    /// Example-3-shaped tree with configurable names and rates.
    fn pumps(names: [&str; 8], lambda: f64) -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event(names[0], 3e-3).unwrap();
        let bb = b
            .dynamic_event(names[1], erlang::repairable(1, lambda, 0.05).unwrap())
            .unwrap();
        let c = b.static_event(names[2], 3e-3).unwrap();
        let d = b
            .triggered_event(names[3], erlang::spare(lambda, 0.05).unwrap())
            .unwrap();
        let p1 = b.or(names[4], [a, bb]).unwrap();
        let p2 = b.or(names[5], [c, d]).unwrap();
        let pumps = b.and(names[6], [p1, p2]).unwrap();
        let top = b.or(names[7], [pumps]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    const PLAIN: [&str; 8] = ["a", "b", "c", "d", "p1", "p2", "pumps", "top"];
    const RENAMED: [&str; 8] = ["x1", "x2", "x3", "x4", "g1", "g2", "g3", "g4"];

    #[test]
    fn renaming_preserves_every_signature() {
        let t1 = pumps(PLAIN, 1e-3);
        let t2 = pumps(RENAMED, 1e-3);
        assert_eq!(t1.structural_signature(), t2.structural_signature());
        for (i1, i2) in t1.node_ids().zip(t2.node_ids()) {
            assert_eq!(t1.event_signature(i1), t2.event_signature(i2));
            assert_eq!(t1.cone_signature(i1), t2.cone_signature(i2));
        }
    }

    #[test]
    fn rates_and_probabilities_change_signatures() {
        let t1 = pumps(PLAIN, 1e-3);
        let t2 = pumps(PLAIN, 2e-3);
        assert_ne!(t1.structural_signature(), t2.structural_signature());
        let b1 = t1.node_by_name("b").unwrap();
        let b2 = t2.node_by_name("b").unwrap();
        assert_ne!(t1.event_signature(b1), t2.event_signature(b2));
    }

    #[test]
    fn gate_shapes_distinguish_trees() {
        let build = |second_or: bool| {
            let mut b = FaultTreeBuilder::new();
            let x = b.static_event("x", 0.1).unwrap();
            let y = b.static_event("y", 0.2).unwrap();
            let g = if second_or {
                b.or("g", [x, y]).unwrap()
            } else {
                b.and("g", [x, y]).unwrap()
            };
            b.top(g);
            b.build().unwrap()
        };
        assert_ne!(
            build(true).structural_signature(),
            build(false).structural_signature()
        );
    }

    #[test]
    fn cone_signatures_preserve_sharing() {
        // AND(e, e) over one shared event vs AND(e1, e2) over two
        // identically parameterized events: different as DAGs, and the
        // discovery-order back-references keep them apart.
        let mut b = FaultTreeBuilder::new();
        let e = b.static_event("e", 0.1).unwrap();
        let g = b.and("g", [e]).unwrap();
        let h = b.and("h", [g, g]).unwrap();
        b.top(h);
        let shared = b.build().unwrap();

        let mut b = FaultTreeBuilder::new();
        let e1 = b.static_event("e1", 0.1).unwrap();
        let e2 = b.static_event("e2", 0.1).unwrap();
        let g1 = b.and("g1", [e1]).unwrap();
        let g2 = b.and("g2", [e2]).unwrap();
        let h = b.and("h", [g1, g2]).unwrap();
        b.top(h);
        let split = b.build().unwrap();

        assert_ne!(
            shared.cone_signature(shared.top()),
            split.cone_signature(split.top())
        );
    }

    #[test]
    fn cutset_signatures_are_sorted_and_name_independent() {
        let t1 = pumps(PLAIN, 1e-3);
        let t2 = pumps(RENAMED, 1e-3);
        let c1 = Cutset::new([t1.node_by_name("b").unwrap(), t1.node_by_name("d").unwrap()]);
        let c2 = Cutset::new([
            t2.node_by_name("x2").unwrap(),
            t2.node_by_name("x4").unwrap(),
        ]);
        let s1 = t1.cutset_event_signatures(&c1).unwrap();
        let s2 = t2.cutset_event_signatures(&c2).unwrap();
        assert_eq!(s1, s2);
        let mut sorted = s1.clone();
        sorted.sort();
        assert_eq!(s1, sorted);
    }

    #[test]
    fn cutset_signatures_see_the_trigger_cone() {
        // Same events, but the second tree triggers d from a different
        // gate shape — the cutset signatures must differ.
        let t1 = pumps(PLAIN, 1e-3);
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b
            .dynamic_event("b", erlang::repairable(1, 1e-3, 0.05).unwrap())
            .unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let p1 = b.and("p1", [a, bb]).unwrap(); // AND instead of OR
        let p2 = b.or("p2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("top", [pumps]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        let t2 = b.build().unwrap();

        let cutset = |t: &FaultTree| {
            Cutset::new([t.node_by_name("b").unwrap(), t.node_by_name("d").unwrap()])
        };
        assert_ne!(
            t1.cutset_event_signatures(&cutset(&t1)).unwrap(),
            t2.cutset_event_signatures(&cutset(&t2)).unwrap()
        );
    }

    #[test]
    fn gates_have_no_event_signature() {
        let t = pumps(PLAIN, 1e-3);
        let top = t.top();
        assert!(t.event_signature(top).is_none());
        assert!(t.cutset_event_signatures(&Cutset::new([top])).is_none());
    }
}
