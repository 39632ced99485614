use crate::classify::TriggerClass;
use std::fmt;

/// Errors produced by the SD fault tree analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A triggering gate's subtree falls into a §V-A class more
    /// expensive than the caller allows (see
    /// [`crate::validate_trigger_structure`]).
    TriggerStructure {
        /// Name of the offending triggering gate.
        gate: String,
        /// The class its subtree falls into.
        class: TriggerClass,
        /// The most expensive class the caller accepted.
        allowed: TriggerClass,
    },
    /// An error from the fault tree layer.
    Ft(sdft_ft::FtError),
    /// An error from the Markov chain layer.
    Ctmc(sdft_ctmc::CtmcError),
    /// An error from the cutset generator.
    Mocus(sdft_mocus::MocusError),
    /// An error from the BDD backend (node budget, invalid order).
    Bdd(sdft_bdd::BddError),
    /// An error from the product chain builder (per-cutset quantification).
    Product(sdft_product::ProductError),
    /// The analysis horizon is negative or not finite.
    InvalidHorizon {
        /// The offending horizon.
        horizon: f64,
    },
    /// A node expected to be a basic event / gate was not.
    UnexpectedNode {
        /// Name of the offending node.
        name: String,
        /// What was expected of the node.
        expected: &'static str,
    },
    /// An [`crate::FtcContext`] was used with a tree other than the one
    /// it was built from.
    ForeignContext {
        /// Nodes in the tree the context was built from.
        context_nodes: usize,
        /// Nodes in the tree it was used with.
        tree_nodes: usize,
    },
    /// A triggering gate or dynamic event is unknown to the
    /// [`crate::FtcContext`]: the context was built from another tree of
    /// the same size.
    UnknownToContext {
        /// Name of the node in the tree the context was used with.
        name: String,
        /// What the node is in that tree.
        kind: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::TriggerStructure {
                gate,
                class,
                allowed,
            } => write!(
                f,
                "triggering gate {gate:?} has {class} structure, \
                 worse than the allowed {allowed}"
            ),
            CoreError::Ft(e) => write!(f, "fault tree error: {e}"),
            CoreError::Ctmc(e) => write!(f, "markov chain error: {e}"),
            CoreError::Mocus(e) => write!(f, "cutset generation error: {e}"),
            CoreError::Bdd(e) => write!(f, "BDD backend error: {e}"),
            CoreError::Product(e) => write!(f, "cutset quantification error: {e}"),
            CoreError::InvalidHorizon { horizon } => {
                write!(f, "invalid analysis horizon {horizon}")
            }
            CoreError::UnexpectedNode { name, expected } => {
                write!(f, "node {name:?} is not {expected}")
            }
            CoreError::ForeignContext {
                context_nodes,
                tree_nodes,
            } => write!(
                f,
                "FT_C context was built from a tree of {context_nodes} nodes \
                 but used with one of {tree_nodes}"
            ),
            CoreError::UnknownToContext { name, kind } => write!(
                f,
                "{kind} {name:?} is unknown to the FT_C context \
                 (built from another tree)"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Ft(e) => Some(e),
            CoreError::Ctmc(e) => Some(e),
            CoreError::Mocus(e) => Some(e),
            CoreError::Bdd(e) => Some(e),
            CoreError::Product(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sdft_ft::FtError> for CoreError {
    fn from(e: sdft_ft::FtError) -> Self {
        CoreError::Ft(e)
    }
}

impl From<sdft_ctmc::CtmcError> for CoreError {
    fn from(e: sdft_ctmc::CtmcError) -> Self {
        CoreError::Ctmc(e)
    }
}

impl From<sdft_mocus::MocusError> for CoreError {
    fn from(e: sdft_mocus::MocusError) -> Self {
        CoreError::Mocus(e)
    }
}

impl From<sdft_bdd::BddError> for CoreError {
    fn from(e: sdft_bdd::BddError) -> Self {
        CoreError::Bdd(e)
    }
}

impl From<sdft_product::ProductError> for CoreError {
    fn from(e: sdft_product::ProductError) -> Self {
        CoreError::Product(e)
    }
}
