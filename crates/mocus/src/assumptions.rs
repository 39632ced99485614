use crate::error::MocusError;
use sdft_ft::{FaultTree, NodeId};

/// Truth-value assumptions on basic events, used to generate minimal
/// cutsets of a *restricted* fault tree function.
///
/// The SD analysis uses assumptions when quantifying a minimal cutset
/// (§V-C step 2): static events of the cutset are assumed failed, and
/// events outside the relevant set `Rel_a` are assumed functional.
///
/// # Example
///
/// ```
/// # use sdft_ft::{EventProbabilities, FaultTreeBuilder};
/// # use sdft_mocus::{minimal_cutsets_rooted, Assumptions, MocusOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = FaultTreeBuilder::new();
/// let x = b.static_event("x", 0.1)?;
/// let y = b.static_event("y", 0.1)?;
/// let g = b.and("g", [x, y])?;
/// b.top(g);
/// let tree = b.build()?;
/// let probs = EventProbabilities::from_static(&tree)?;
/// let mut assume = Assumptions::new(&tree);
/// assume.assume_failed(x)?;
/// // With x failed, {y} alone is a minimal cutset.
/// let mcs = minimal_cutsets_rooted(&tree, g, &probs, &MocusOptions::default(), &assume)?;
/// assert_eq!(mcs.len(), 1);
/// assert_eq!(mcs.get(0).unwrap().order(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assumptions {
    failed: Vec<bool>,
    ok: Vec<bool>,
}

impl Assumptions {
    /// No assumptions, sized for `tree`.
    #[must_use]
    pub fn new(tree: &FaultTree) -> Self {
        Assumptions {
            failed: vec![false; tree.len()],
            ok: vec![false; tree.len()],
        }
    }

    /// Assume basic event `event` failed (substitute *true*).
    ///
    /// # Errors
    ///
    /// Returns an error if the event was already assumed functional.
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range for the originating tree.
    pub fn assume_failed(&mut self, event: NodeId) -> Result<&mut Self, MocusError> {
        if self.ok[event.index()] {
            return Err(MocusError::ConflictingAssumption {
                name: event.to_string(),
            });
        }
        self.failed[event.index()] = true;
        Ok(self)
    }

    /// Assume basic event `event` functional (substitute *false*).
    ///
    /// # Errors
    ///
    /// Returns an error if the event was already assumed failed.
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range for the originating tree.
    pub fn assume_ok(&mut self, event: NodeId) -> Result<&mut Self, MocusError> {
        if self.failed[event.index()] {
            return Err(MocusError::ConflictingAssumption {
                name: event.to_string(),
            });
        }
        self.ok[event.index()] = true;
        Ok(self)
    }

    /// Whether `event` is assumed failed.
    #[must_use]
    pub fn is_failed(&self, event: NodeId) -> bool {
        self.failed[event.index()]
    }

    /// Whether `event` is assumed functional.
    #[must_use]
    pub fn is_ok(&self, event: NodeId) -> bool {
        self.ok[event.index()]
    }

    /// Whether no assumptions were made.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.failed.iter().any(|&f| f) && !self.ok.iter().any(|&f| f)
    }

    /// Validate that assumptions only touch basic events of `tree`.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first gate with an assumption.
    pub fn validate(&self, tree: &FaultTree) -> Result<(), MocusError> {
        for id in tree.node_ids() {
            if (self.failed[id.index()] || self.ok[id.index()]) && tree.is_gate(id) {
                return Err(MocusError::AssumptionOnGate {
                    name: tree.name(id).to_owned(),
                });
            }
        }
        Ok(())
    }
}
