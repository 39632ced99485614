//! Modular BDD analysis: one ROBDD per independent module.
//!
//! [`modules`](sdft_ft::modules) finds the gates whose subtrees share no
//! node with the rest of the tree (Dutuit & Rauzy 1996). Each such
//! subtree can be analyzed in isolation and re-enters its parent as a
//! single *pseudo-variable*, which keeps every individual diagram small:
//! the monolithic BDD of a 50k-gate industrial tree is hopeless, but its
//! modules rarely exceed a few hundred variables each.
//!
//! Soundness of the composition rests on the modules being
//! event-disjoint:
//!
//! * **probability** — a pseudo-variable is an independent Boolean with
//!   the module's exact probability, so Shannon expansion composes
//!   bottom-up without approximation;
//! * **minimal cutsets** — substituting each pseudo-variable occurrence
//!   in a minimal solution by any minimal cutset of its module (cartesian
//!   expansion) yields exactly the minimal cutsets of the composed
//!   function, because no substitution can collide with or subsume
//!   events from a sibling branch.
//!
//! A module does not have to be *built* as a diagram to participate: a
//! planner may instead supply its minimal cutsets over the module's own
//! events and pseudo-variables (enumerated by any engine — in practice
//! MOCUS), via [`ModularBddBuilder::set_external`]. The expansion walk
//! and the probability composition treat such an *external* module
//! exactly like a built one, except that its probability is the
//! rare-event sum over the supplied antichain and is therefore flagged
//! inexact (as are all modules above it).

use crate::error::BddError;
use crate::manager::{Bdd, Op, Ref, SetBounds, FALSE, TRUE};
use crate::sift::{SiftOutcome, SiftSettings};
use sdft_ft::{
    modules, Cutset, CutsetList, EventProbabilities, FaultTree, FxBuild, GateKind, NodeId,
};
use std::collections::HashMap;

/// Limits pushed *into* the minsol enumeration as branch-and-bound
/// pruning, mirroring the MOCUS cutoff semantics (keep cutsets with
/// probability strictly above `cutoff` and order at most `max_order`).
///
/// Pruning is conservative: every cutset that passes the limits is
/// guaranteed to be delivered, but cutsets within a relative `1e-9` of
/// the cutoff may be delivered as well (the enumeration accumulates
/// probability products in a different association order than
/// [`Cutset::probability_with`], so the exact boundary is left to the
/// caller's own final filter). Without limits the full antichain is
/// enumerated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CutsetLimits {
    /// Drop cutsets whose probability is at or below this value.
    pub cutoff: Option<f64>,
    /// Drop cutsets with more events than this.
    pub max_order: Option<usize>,
}

/// The margin that keeps internal pruning strictly conservative against
/// floating-point association differences (see [`CutsetLimits`]).
const PRUNE_SLACK: f64 = 1e-9;

/// Rescue attempts per module build before a budget failure is final.
const MAX_RESCUES: u32 = 8;

/// One fully expanded (plain-event) minimal cutset of a nested module,
/// with its probability and order under the enumeration's probe.
struct ExpandedSet {
    events: Vec<NodeId>,
    prob: f64,
    order: usize,
}

/// A nested module's kept cutsets, best-first, plus the optimistic
/// bounds its pseudo-variable contributes to an enclosing path.
struct Expansion {
    /// Kept sets sorted by descending probability (stable, so the
    /// unlimited enumeration preserves the walk order).
    sets: Vec<ExpandedSet>,
    /// Largest kept probability (`0.0` when nothing survived — any path
    /// through the pseudo-variable is then dead under a cutoff).
    max_prob: f64,
    /// Smallest kept order (`usize::MAX` when nothing survived).
    min_order: usize,
}

/// Options for the modular BDD engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModularBddOptions {
    /// Abort once this many BDD nodes exist *in total* across all
    /// module diagrams (shared budget).
    pub max_nodes: usize,
    /// Modules whose region (gates + variables) is at least this large
    /// use the weight/depth variable order instead of plain DFS order.
    pub weighted_order_threshold: usize,
    /// Dynamic variable reordering policy (periodic sifting during
    /// module construction plus the budget rescue).
    pub sift: SiftSettings,
}

impl Default for ModularBddOptions {
    fn default() -> Self {
        ModularBddOptions {
            max_nodes: 20_000_000,
            weighted_order_threshold: 64,
            sift: SiftSettings::default(),
        }
    }
}

/// How a module participates in the composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleKind {
    /// A diagram was built for the module (exact analysis).
    Built,
    /// Minimal cutsets over the module's events and pseudo-variables
    /// were supplied by an external enumerator.
    External,
}

/// Per-module construction statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleStats {
    /// The module's root gate.
    pub gate: NodeId,
    /// Whether the module was built as a diagram or supplied externally.
    pub kind: ModuleKind,
    /// BDD nodes of the module's diagram (including terminals; 0 for
    /// external modules).
    pub nodes: usize,
    /// Variables of the diagram: own basic events plus nested-module
    /// pseudo-variables (0 for external modules).
    pub variables: usize,
    /// Whether the weight/depth order was chosen over plain DFS order.
    pub weighted_order: bool,
    /// Sift passes run while building this module.
    pub sift_passes: u32,
    /// Adjacent-level swaps performed while building this module.
    pub sift_swaps: u64,
    /// Supplied pseudo-level cutsets (0 for built modules).
    pub external_sets: usize,
}

/// Aggregate statistics of a modular construction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModularBddStats {
    /// Number of independent modules (the top counts as one).
    pub modules: usize,
    /// Total BDD nodes across all module diagrams.
    pub total_nodes: usize,
    /// Largest single module diagram.
    pub max_module_nodes: usize,
    /// Modules that used the weight/depth order.
    pub weighted_orders: usize,
    /// Apply-cache hits summed over all module managers.
    pub apply_hits: u64,
    /// Apply-cache misses summed over all module managers.
    pub apply_misses: u64,
    /// Modules whose cutsets were supplied externally.
    pub external_modules: usize,
    /// Sift passes summed over all module builds.
    pub sift_passes: u64,
    /// Adjacent-level swaps summed over all module builds.
    pub sift_swaps: u64,
    /// Per-module detail, in bottom-up (id) order; the last entry is the
    /// top module.
    pub per_module: Vec<ModuleStats>,
}

enum Realized {
    Built {
        bdd: Bdd,
        weighted: bool,
        sift_passes: u32,
        sift_swaps: u64,
    },
    External {
        /// Minimal cutsets over the module's own events and
        /// pseudo-variables (nested module roots), each sorted by id.
        sets: Vec<Vec<NodeId>>,
    },
}

struct Module {
    gate: NodeId,
    real: Realized,
}

/// One module's probability under a probe, with its exactness: a built
/// module whose nested modules are all exact is exact (pure Shannon
/// expansion); an external module's probability is the rare-event sum
/// over its supplied antichain and is inexact, as is everything above
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleProbability {
    /// The module's root gate.
    pub gate: NodeId,
    /// The module's failure probability (exact or rare-event, see
    /// `exact`), nested modules composed in.
    pub probability: f64,
    /// Whether `probability` is exact.
    pub exact: bool,
}

/// Incremental constructor for a [`ModularBdd`] that gives a planner
/// per-module control: build modules as diagrams in any order (each
/// failure is an isolated, recoverable [`BddError::NodeBudget`]), supply
/// externally enumerated cutsets for the rest, then [`finish`].
///
/// Module diagrams only mention nested modules as opaque variables, so
/// construction order does not matter; only the final composition walk
/// requires every slot to be resolved.
///
/// [`finish`]: ModularBddBuilder::finish
pub struct ModularBddBuilder<'t> {
    tree: &'t FaultTree,
    options: ModularBddOptions,
    gates: Vec<NodeId>,
    index_of: HashMap<NodeId, usize, FxBuild>,
    slots: Vec<Option<Module>>,
    used_nodes: usize,
}

impl<'t> ModularBddBuilder<'t> {
    /// A builder over `tree`'s modules (in id order, top last).
    #[must_use]
    pub fn new(tree: &'t FaultTree, options: &ModularBddOptions) -> Self {
        let gates = modules(tree);
        let mut index_of: HashMap<NodeId, usize, FxBuild> = HashMap::default();
        for (i, &g) in gates.iter().enumerate() {
            index_of.insert(g, i);
        }
        let slots = gates.iter().map(|_| None).collect();
        ModularBddBuilder {
            tree,
            options: *options,
            gates,
            index_of,
            slots,
            used_nodes: 0,
        }
    }

    /// The module root gates, in id (bottom-up) order; index into this
    /// slice is the module index used by the other methods.
    #[must_use]
    pub fn module_gates(&self) -> &[NodeId] {
        &self.gates
    }

    /// Nodes used so far out of the shared budget.
    #[must_use]
    pub fn used_nodes(&self) -> usize {
        self.used_nodes
    }

    /// Build module `index` as a diagram, with periodic sifting and the
    /// budget rescue per the options. Returns the diagram's node count.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeBudget`] (annotated with the module's gate and
    /// peak node count) if the module does not fit the remaining shared
    /// budget even after sifting; the builder is left unchanged and
    /// other modules can still be built or supplied.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the slot is already
    /// resolved.
    pub fn build_module(&mut self, index: usize) -> Result<usize, BddError> {
        assert!(self.slots[index].is_none(), "module resolved twice");
        let gate = self.gates[index];
        let region = collect_region(self.tree, gate, &self.index_of);
        let weighted = region.size >= self.options.weighted_order_threshold;
        let order = if weighted {
            weighted_order(&region)
        } else {
            region.vars.clone()
        };
        let budget = self
            .options
            .max_nodes
            .saturating_sub(self.used_nodes)
            .max(2);
        let (bdd, sift_passes, sift_swaps) =
            build_module(self.tree, &region, order, budget, &self.options.sift).map_err(
                |e| match e {
                    BddError::NodeBudget {
                        limit, peak_nodes, ..
                    } => BddError::NodeBudget {
                        limit,
                        module: Some(gate),
                        peak_nodes,
                    },
                    other => other,
                },
            )?;
        self.used_nodes += bdd.node_count();
        let nodes = bdd.node_count();
        self.slots[index] = Some(Module {
            gate,
            real: Realized::Built {
                bdd,
                weighted,
                sift_passes,
                sift_swaps,
            },
        });
        Ok(nodes)
    }

    /// Resolve module `index` with externally enumerated minimal cutsets
    /// over the module's own basic events and the root gates of nested
    /// modules (its pseudo-variables). The caller guarantees the sets
    /// form the module's complete minimal antichain above whatever
    /// cutoff governs the analysis; each set is re-sorted by id here.
    ///
    /// # Errors
    ///
    /// [`BddError::InvalidOrder`] if a set member is neither a basic
    /// event nor a smaller-id module root.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the slot is already
    /// resolved.
    pub fn set_external(
        &mut self,
        index: usize,
        mut sets: Vec<Vec<NodeId>>,
    ) -> Result<(), BddError> {
        assert!(self.slots[index].is_none(), "module resolved twice");
        let gate = self.gates[index];
        for set in &mut sets {
            for &v in set.iter() {
                let ok = self.tree.is_basic(v) || self.index_of.get(&v).is_some_and(|&i| i < index);
                if !ok {
                    return Err(BddError::InvalidOrder {
                        reason: format!(
                            "external cutset member {v} of module {gate} is neither a basic \
                             event nor a nested module root"
                        ),
                    });
                }
            }
            set.sort_unstable();
        }
        self.slots[index] = Some(Module {
            gate,
            real: Realized::External { sets },
        });
        Ok(())
    }

    /// Whether module `index` is already resolved.
    #[must_use]
    pub fn is_resolved(&self, index: usize) -> bool {
        self.slots[index].is_some()
    }

    /// The exact maximum, over the resolved module's minimal solutions
    /// (sets over its own basic events and nested pseudo-variables), of
    /// the product of member weights under `weight`.
    ///
    /// With each nested pseudo-variable weighted by its own maximum
    /// (computed bottom-up), this is the probability of the module's
    /// single most likely *flattened* minimal cutset — modules are
    /// event-disjoint, so the per-module maxima compose exactly through
    /// the product. It is the tightest sound pseudo-event weight a
    /// planner can hand an enclosing MOCUS enumeration: pruning a
    /// partial whose weight product is at or below the cutoff is then
    /// conservative, because every real cutset derived from it carries
    /// at most this maximum per pseudo-variable.
    ///
    /// A built module's maximum is read off its minsol diagram by a
    /// max-product walk (`f(⊤) = 1`, `f(⊥) = 0`,
    /// `f(n) = max(f(low), w(var)·f(high))`) without enumerating the
    /// antichain; an external module's is the maximum over its stored
    /// sets.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeBudget`] if a built module's minsol construction
    /// exceeds the node budget.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the slot is unresolved.
    pub fn max_solution_probability(
        &mut self,
        index: usize,
        weight: &dyn Fn(NodeId) -> f64,
    ) -> Result<f64, BddError> {
        let module = self.slots[index]
            .as_mut()
            .expect("max_solution_probability on an unresolved module");
        match &mut module.real {
            Realized::Built { bdd, .. } => {
                let sol = bdd.minimal_solutions()?;
                let mut memo: HashMap<Ref, f64, FxBuild> = HashMap::default();
                memo.insert(FALSE, 0.0);
                memo.insert(TRUE, 1.0);
                Ok(max_product(bdd, sol, weight, &mut memo))
            }
            Realized::External { sets } => Ok(sets
                .iter()
                .map(|set| set.iter().map(|&v| weight(v)).product::<f64>())
                .fold(0.0, f64::max)
                .clamp(0.0, 1.0)),
        }
    }

    /// Finish the composition.
    ///
    /// # Errors
    ///
    /// [`BddError::UnresolvedModule`] if any module was neither built
    /// nor supplied.
    pub fn finish(self) -> Result<ModularBdd, BddError> {
        let mut mods = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.into_iter().enumerate() {
            match slot {
                Some(m) => mods.push(m),
                None => {
                    return Err(BddError::UnresolvedModule {
                        module: self.gates[i],
                    })
                }
            }
        }
        Ok(ModularBdd {
            mods,
            index_of: self.index_of,
        })
    }
}

/// Max-product walk over a minsol set-family diagram: the largest
/// product of member weights over any set of the family. Recursion
/// depth is bounded by the diagram's level count (one frame per
/// variable on a path), matching the other diagram walks.
fn max_product(
    bdd: &Bdd,
    f: Ref,
    weight: &dyn Fn(NodeId) -> f64,
    memo: &mut HashMap<Ref, f64, FxBuild>,
) -> f64 {
    if let Some(&p) = memo.get(&f) {
        return p;
    }
    let node = bdd.nodes[f as usize];
    let w = weight(bdd.vars[node.level as usize]).clamp(0.0, 1.0);
    let low = max_product(bdd, node.low, weight, memo);
    let high = max_product(bdd, node.high, weight, memo);
    let p = low.max(w * high);
    memo.insert(f, p);
    p
}

/// A modular BDD of a fault tree: one diagram per independent module
/// (or an externally supplied antichain, see [`ModularBddBuilder`]),
/// composed through pseudo-variables.
///
/// Like [`Bdd`], dynamic basic events are opaque variables; trigger
/// edges only influence module boundaries (via [`modules`](fn@modules)).
pub struct ModularBdd {
    mods: Vec<Module>,
    /// gate id → index into `mods` (only module gates).
    index_of: HashMap<NodeId, usize, FxBuild>,
}

impl ModularBdd {
    /// Build one BDD per module of `tree` with default options.
    ///
    /// # Errors
    ///
    /// Returns an error if the diagrams exceed the shared node budget.
    pub fn new(tree: &FaultTree) -> Result<Self, BddError> {
        Self::with_options(tree, &ModularBddOptions::default())
    }

    /// Build with explicit options (every module as a diagram).
    ///
    /// # Errors
    ///
    /// Returns an error if the diagrams exceed the shared node budget;
    /// the error names the module that did not fit.
    pub fn with_options(tree: &FaultTree, options: &ModularBddOptions) -> Result<Self, BddError> {
        let mut builder = ModularBddBuilder::new(tree, options);
        // Ids are topological, so id order builds every nested module
        // before the module that references it (not that construction
        // cares — only determinism of the shared-budget split does).
        for i in 0..builder.module_gates().len() {
            builder.build_module(i)?;
        }
        builder.finish()
    }

    /// Number of modules.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.mods.len()
    }

    /// Construction statistics (node counts, ordering choices, sift
    /// work, apply cache behavior).
    #[must_use]
    pub fn stats(&self) -> ModularBddStats {
        let mut stats = ModularBddStats {
            modules: self.mods.len(),
            ..ModularBddStats::default()
        };
        for m in &self.mods {
            match &m.real {
                Realized::Built {
                    bdd,
                    weighted,
                    sift_passes,
                    sift_swaps,
                } => {
                    let nodes = bdd.node_count();
                    let (hits, misses) = bdd.apply_cache_stats();
                    stats.total_nodes += nodes;
                    stats.max_module_nodes = stats.max_module_nodes.max(nodes);
                    stats.weighted_orders += usize::from(*weighted);
                    stats.apply_hits += hits;
                    stats.apply_misses += misses;
                    stats.sift_passes += u64::from(*sift_passes);
                    stats.sift_swaps += sift_swaps;
                    stats.per_module.push(ModuleStats {
                        gate: m.gate,
                        kind: ModuleKind::Built,
                        nodes,
                        variables: bdd.var_count(),
                        weighted_order: *weighted,
                        sift_passes: *sift_passes,
                        sift_swaps: *sift_swaps,
                        external_sets: 0,
                    });
                }
                Realized::External { sets } => {
                    stats.external_modules += 1;
                    stats.per_module.push(ModuleStats {
                        gate: m.gate,
                        kind: ModuleKind::External,
                        nodes: 0,
                        variables: 0,
                        weighted_order: false,
                        sift_passes: 0,
                        sift_swaps: 0,
                        external_sets: sets.len(),
                    });
                }
            }
        }
        stats
    }

    /// The exact top-event probability under `probs`: per-module Shannon
    /// expansion composed bottom-up, free of cutoffs and of the
    /// rare-event approximation. Only meaningful when every module is
    /// built ([`ModularBdd::with_options`] guarantees it); with external
    /// modules in the composition use
    /// [`ModularBdd::module_probabilities_with`] and honor the exactness
    /// flags.
    #[must_use]
    pub fn exact_probability(&self, probs: &EventProbabilities) -> f64 {
        self.exact_probability_with(|event| probs.get(event))
    }

    /// The exact top-event probability with a caller-supplied basic event
    /// probability function (see [`ModularBdd::exact_probability`]).
    #[must_use]
    pub fn exact_probability_with(&self, var_prob: impl Fn(NodeId) -> f64) -> f64 {
        self.module_probabilities_with(var_prob)
            .last()
            .map_or(0.0, |m| m.probability)
    }

    /// Every module's probability under `var_prob`, bottom-up (the last
    /// entry is the top event), with exactness flags: built modules over
    /// exact inputs compose exactly; external modules contribute a
    /// rare-event upper sum (clamped to 1) and taint everything above
    /// them.
    #[must_use]
    pub fn module_probabilities_with(
        &self,
        var_prob: impl Fn(NodeId) -> f64,
    ) -> Vec<ModuleProbability> {
        let mut module_prob: HashMap<NodeId, (f64, bool), FxBuild> = HashMap::default();
        let mut out = Vec::with_capacity(self.mods.len());
        for m in &self.mods {
            let (p, exact) = match &m.real {
                Realized::Built { bdd, .. } => {
                    let p = bdd.top_probability_with(|v| {
                        module_prob.get(&v).map_or_else(|| var_prob(v), |&(p, _)| p)
                    });
                    let exact = bdd
                        .vars
                        .iter()
                        .all(|v| module_prob.get(v).is_none_or(|&(_, e)| e));
                    (p, exact)
                }
                Realized::External { sets } => {
                    let mut sum = 0.0;
                    for set in sets {
                        let mut prod = 1.0;
                        for v in set {
                            prod *= module_prob.get(v).map_or_else(|| var_prob(*v), |&(p, _)| p);
                        }
                        sum += prod;
                    }
                    (sum.min(1.0), false)
                }
            };
            module_prob.insert(m.gate, (p, exact));
            out.push(ModuleProbability {
                gate: m.gate,
                probability: p,
                exact,
            });
        }
        out
    }

    /// The complete list of minimal cutsets, identical (as a set) to the
    /// monolithic [`Bdd::minimal_cutsets`].
    ///
    /// # Errors
    ///
    /// Returns an error if the minsol diagrams exceed the node budget.
    pub fn minimal_cutsets(&mut self) -> Result<CutsetList, BddError> {
        let mut out = CutsetList::new();
        self.stream_minimal_cutsets(usize::MAX, |batch| {
            for c in batch.drain(..) {
                out.push(c);
            }
            true
        })?;
        Ok(out)
    }

    /// Stream the complete minimal cutset antichain in deterministic
    /// order, delivering batches of (at least) `batch_size` through
    /// `deliver`. The final batch may be smaller. `deliver` returning
    /// `false` aborts the enumeration; the function then returns
    /// `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the minsol diagrams exceed the node budget.
    pub fn stream_minimal_cutsets(
        &mut self,
        batch_size: usize,
        deliver: impl FnMut(&mut Vec<Cutset>) -> bool,
    ) -> Result<bool, BddError> {
        self.stream_minimal_cutsets_bounded(batch_size, |_| 1.0, &CutsetLimits::default(), deliver)
    }

    /// [`ModularBdd::stream_minimal_cutsets`] with the cutoff and order
    /// limits pushed *into* the enumeration as branch-and-bound pruning
    /// (see [`CutsetLimits`] for the conservative-boundary contract).
    ///
    /// This is what makes the exact backend usable on industrial trees:
    /// their full antichain is combinatorially huge, but the part above
    /// any practical cutoff is small, and extending a cutset only lowers
    /// its probability and raises its order — so whole branches of the
    /// minsol walk and of the nested-module cartesian expansion can be
    /// discarded the moment their optimistic bound falls below the
    /// cutoff.
    ///
    /// Minimality is established *inside* the backend: each nested module
    /// is fully solved before the top module's solutions are expanded, so
    /// every delivered cutset is already minimal and no cross-batch
    /// subsumption is ever needed. External modules' supplied antichains
    /// take the place of their minsol walk; minimality of the expansion
    /// is preserved because modules are event-disjoint.
    ///
    /// # Errors
    ///
    /// Returns an error if the minsol diagrams exceed the node budget.
    pub fn stream_minimal_cutsets_bounded(
        &mut self,
        batch_size: usize,
        prob_of: impl Fn(NodeId) -> f64,
        limits: &CutsetLimits,
        mut deliver: impl FnMut(&mut Vec<Cutset>) -> bool,
    ) -> Result<bool, BddError> {
        let bounds = SetBounds {
            prune_below: limits.cutoff.map(|c| c * (1.0 - PRUNE_SLACK)),
            max_order: limits.max_order,
        };
        // Fully expand every nested module bottom-up; the top module is
        // then enumerated lazily.
        let mut expanded: HashMap<NodeId, Expansion, FxBuild> = HashMap::default();
        let last = self.mods.len() - 1;
        for i in 0..last {
            let gate = self.mods[i].gate;
            let mut sets: Vec<ExpandedSet> = Vec::new();
            {
                let mut visit = |set: &[NodeId]| {
                    expand_set(
                        set,
                        &expanded,
                        &prob_of,
                        &bounds,
                        &mut |events, prob, order| {
                            sets.push(ExpandedSet {
                                events: events.to_vec(),
                                prob,
                                order,
                            });
                        },
                    );
                    true
                };
                match &mut self.mods[i].real {
                    Realized::Built { bdd, .. } => {
                        let sol = bdd.minimal_solutions()?;
                        let mut path = Vec::new();
                        bdd.for_each_set_pruned(
                            sol,
                            &mut path,
                            1.0,
                            0,
                            &|v| pseudo_weight(v, &expanded, &prob_of),
                            &bounds,
                            &mut visit,
                        );
                    }
                    Realized::External { sets: stored } => {
                        for set in stored {
                            visit(set);
                        }
                    }
                }
            }
            // Best-first, so enclosing expansions can stop a candidate
            // loop as soon as the probability bound drops out. The sort
            // is stable and unlimited runs give every set probability
            // 1.0, preserving the walk order exactly.
            sets.sort_by(|a, b| b.prob.total_cmp(&a.prob));
            let max_prob = sets.first().map_or(0.0, |s| s.prob);
            let min_order = sets.iter().map(|s| s.order).min().unwrap_or(usize::MAX);
            expanded.insert(
                gate,
                Expansion {
                    sets,
                    max_prob,
                    min_order,
                },
            );
        }

        let mut buffer: Vec<Cutset> = Vec::new();
        let completed = {
            let mut visit = |set: &[NodeId]| {
                expand_set(set, &expanded, &prob_of, &bounds, &mut |events, _, _| {
                    buffer.push(Cutset::new(events.iter().copied()));
                });
                if buffer.len() >= batch_size {
                    deliver(&mut buffer)
                } else {
                    true
                }
            };
            match &mut self.mods[last].real {
                Realized::Built { bdd, .. } => {
                    let sol = bdd.minimal_solutions()?;
                    let mut path = Vec::new();
                    bdd.for_each_set_pruned(
                        sol,
                        &mut path,
                        1.0,
                        0,
                        &|v| pseudo_weight(v, &expanded, &prob_of),
                        &bounds,
                        &mut visit,
                    )
                }
                Realized::External { sets: stored } => {
                    let mut ok = true;
                    for set in stored {
                        if !visit(set) {
                            ok = false;
                            break;
                        }
                    }
                    ok
                }
            }
        };
        if !completed {
            return Ok(false);
        }
        if !buffer.is_empty() && !deliver(&mut buffer) {
            return Ok(false);
        }
        Ok(true)
    }

    /// Whether `id` is one of the module root gates.
    #[must_use]
    pub fn is_module(&self, id: NodeId) -> bool {
        self.index_of.contains_key(&id)
    }
}

/// The optimistic `(probability, order)` contribution of including a
/// minsol variable on a path: a plain event contributes its own
/// probability and one event; a pseudo-variable contributes its module's
/// best kept probability and smallest kept order.
fn pseudo_weight(
    v: NodeId,
    expanded: &HashMap<NodeId, Expansion, FxBuild>,
    prob_of: &impl Fn(NodeId) -> f64,
) -> (f64, usize) {
    match expanded.get(&v) {
        Some(exp) => (exp.max_prob, exp.min_order),
        None => (prob_of(v), 1),
    }
}

/// Expand one minsol set (own events + pseudo-variables) into plain
/// event sets by cartesian product over the nested modules' expansions,
/// pruning combinations that cannot pass `bounds`. Emits each surviving
/// set with its probability and order; first pseudo-variable slowest, so
/// the expansion order is deterministic.
fn expand_set(
    set: &[NodeId],
    expanded: &HashMap<NodeId, Expansion, FxBuild>,
    prob_of: &impl Fn(NodeId) -> f64,
    bounds: &SetBounds,
    emit: &mut impl FnMut(&[NodeId], f64, usize),
) {
    let mut own: Vec<NodeId> = Vec::with_capacity(set.len());
    let mut pseudo: Vec<&Expansion> = Vec::new();
    for &v in set {
        match expanded.get(&v) {
            Some(exp) => pseudo.push(exp),
            None => own.push(v),
        }
    }
    let mut own_prob = 1.0;
    for &e in &own {
        own_prob *= prob_of(e);
    }
    let own_order = own.len();
    if pseudo.is_empty() {
        if bounds.prune_below.is_none_or(|c| own_prob > c)
            && bounds.max_order.is_none_or(|m| own_order <= m)
        {
            emit(&own, own_prob, own_order);
        }
        return;
    }
    // Optimistic bounds over the not-yet-chosen suffix of pseudo
    // variables, for early loop exits inside the recursion.
    let n = pseudo.len();
    let mut suffix_prob = vec![1.0; n + 1];
    let mut suffix_order = vec![0usize; n + 1];
    for i in (0..n).rev() {
        suffix_prob[i] = suffix_prob[i + 1] * pseudo[i].max_prob;
        suffix_order[i] = suffix_order[i + 1].saturating_add(pseudo[i].min_order);
    }
    let mut scratch = own;
    expand_rec(
        &pseudo,
        &suffix_prob,
        &suffix_order,
        bounds,
        0,
        own_prob,
        own_order,
        &mut scratch,
        emit,
    );
}

/// One level of the pruned cartesian product: try this pseudo-variable's
/// kept sets best-first and stop the loop once even the optimistic
/// remainder cannot clear the probability bound.
#[allow(clippy::too_many_arguments)]
fn expand_rec(
    pseudo: &[&Expansion],
    suffix_prob: &[f64],
    suffix_order: &[usize],
    bounds: &SetBounds,
    depth: usize,
    prob: f64,
    order: usize,
    scratch: &mut Vec<NodeId>,
    emit: &mut impl FnMut(&[NodeId], f64, usize),
) {
    if depth == pseudo.len() {
        emit(scratch, prob, order);
        return;
    }
    for s in &pseudo[depth].sets {
        let p = prob * s.prob;
        if bounds
            .prune_below
            .is_some_and(|c| p * suffix_prob[depth + 1] <= c)
        {
            // Sets are sorted by descending probability: the rest of
            // this loop can only do worse.
            break;
        }
        let o = order.saturating_add(s.order);
        if bounds
            .max_order
            .is_some_and(|m| o.saturating_add(suffix_order[depth + 1]) > m)
        {
            // Order is not monotone under the probability sort, so a
            // too-large candidate does not end the loop.
            continue;
        }
        let len = scratch.len();
        scratch.extend_from_slice(&s.events);
        expand_rec(
            pseudo,
            suffix_prob,
            suffix_order,
            bounds,
            depth + 1,
            p,
            o,
            scratch,
            emit,
        );
        scratch.truncate(len);
    }
}

/// A module's region: everything reachable from its root gate without
/// descending into nested modules.
struct Region {
    root: NodeId,
    /// Region gates in id (topological) order, excluding nested module
    /// roots, including the region root itself.
    gates: Vec<NodeId>,
    /// Variables (own basic events + nested module pseudo-variables) in
    /// DFS first-occurrence order.
    vars: Vec<NodeId>,
    /// Shallowest occurrence depth per variable, parallel to `vars`.
    min_depth: Vec<u32>,
    /// Edge reference count per variable, parallel to `vars`.
    occurrences: Vec<u32>,
    /// Gates + variables, the size used for the ordering decision.
    size: usize,
}

fn collect_region(
    tree: &FaultTree,
    root: NodeId,
    index_of: &HashMap<NodeId, usize, FxBuild>,
) -> Region {
    let mut var_pos: HashMap<NodeId, usize, FxBuild> = HashMap::default();
    let mut region = Region {
        root,
        gates: Vec::new(),
        vars: Vec::new(),
        min_depth: Vec::new(),
        occurrences: Vec::new(),
        size: 0,
    };
    let mut seen_gates: HashMap<NodeId, (), FxBuild> = HashMap::default();
    // DFS with explicit depth; inputs pushed in reverse so the first
    // input is visited first (matching the monolithic `dfs_order`).
    let mut stack: Vec<(NodeId, u32)> = vec![(root, 0)];
    while let Some((id, depth)) = stack.pop() {
        let is_var = tree.is_basic(id) || (id != root && index_of.contains_key(&id));
        if is_var {
            match var_pos.get(&id) {
                Some(&pos) => {
                    region.occurrences[pos] += 1;
                    region.min_depth[pos] = region.min_depth[pos].min(depth);
                }
                None => {
                    var_pos.insert(id, region.vars.len());
                    region.vars.push(id);
                    region.min_depth.push(depth);
                    region.occurrences.push(1);
                }
            }
            continue;
        }
        if seen_gates.insert(id, ()).is_some() {
            continue;
        }
        region.gates.push(id);
        for &input in tree.gate_inputs(id).iter().rev() {
            stack.push((input, depth + 1));
        }
    }
    region.gates.sort_unstable();
    region.size = region.gates.len() + region.vars.len();
    region
}

/// The weight/depth order for large modules: shallow, frequently
/// referenced variables first (they dominate the function's shape), DFS
/// position as the deterministic tiebreak.
fn weighted_order(region: &Region) -> Vec<NodeId> {
    let mut idx: Vec<usize> = (0..region.vars.len()).collect();
    idx.sort_by_key(|&i| {
        (
            region.min_depth[i],
            std::cmp::Reverse(region.occurrences[i]),
            i,
        )
    });
    idx.into_iter().map(|i| region.vars[i]).collect()
}

/// Build one gate's function from the (already built) functions of its
/// inputs. Kept free of partial state so a budget failure can be
/// retried wholesale after a sift (any intermediate refs it created are
/// garbage and get collected by the next extraction).
fn build_gate(
    tree: &FaultTree,
    gate: NodeId,
    func: &HashMap<NodeId, Ref, FxBuild>,
    bdd: &mut Bdd,
) -> Result<Ref, BddError> {
    let inputs: Vec<Ref> = tree.gate_inputs(gate).iter().map(|i| func[i]).collect();
    match tree.gate_kind(gate).expect("gate") {
        GateKind::And => {
            let mut acc = TRUE;
            for g in inputs {
                acc = bdd.apply(Op::And, acc, g)?;
            }
            Ok(acc)
        }
        GateKind::Or => {
            let mut acc = FALSE;
            for g in inputs {
                acc = bdd.apply(Op::Or, acc, g)?;
            }
            Ok(acc)
        }
        GateKind::AtLeast(k) => bdd.atleast(k as usize, &inputs),
    }
}

/// Garbage-collect (and optionally sift) the module under construction,
/// keeping exactly the functions that gates `region.gates[start..]` (and
/// the region root, if built) still reference; `func` is rewritten to
/// the rebuilt manager's refs and pruned to the kept entries.
fn compact_funcs(
    tree: &FaultTree,
    region: &Region,
    start: usize,
    func: &mut HashMap<NodeId, Ref, FxBuild>,
    bdd: &mut Bdd,
    settings: &SiftSettings,
    reorder: bool,
) -> Result<SiftOutcome, BddError> {
    let mut needed: Vec<NodeId> = Vec::new();
    let mut seen: HashMap<NodeId, (), FxBuild> = HashMap::default();
    for &g in &region.gates[start..] {
        for &input in tree.gate_inputs(g) {
            if func.contains_key(&input) && seen.insert(input, ()).is_none() {
                needed.push(input);
            }
        }
    }
    if func.contains_key(&region.root) && seen.insert(region.root, ()).is_none() {
        needed.push(region.root);
    }
    needed.sort_unstable();
    let mut roots: Vec<Ref> = needed.iter().map(|id| func[id]).collect();
    let outcome = bdd.sift_roots(&mut roots, settings, reorder)?;
    func.clear();
    for (id, r) in needed.into_iter().zip(roots) {
        func.insert(id, r);
    }
    Ok(outcome)
}

/// Build one module's diagram: variables first, then region gates
/// bottom-up. Sifting, when enabled, runs periodically (first at
/// `settings.trigger` nodes, then at every doubling) and as a rescue
/// when a gate construction hits the node budget; a rescued gate is
/// retried from its inputs' (remapped) functions. Returns the diagram
/// plus the sift passes and swaps spent on it.
fn build_module(
    tree: &FaultTree,
    region: &Region,
    order: Vec<NodeId>,
    max_nodes: usize,
    settings: &SiftSettings,
) -> Result<(Bdd, u32, u64), BddError> {
    let mut level_of: HashMap<NodeId, u32, FxBuild> = HashMap::default();
    for (level, &v) in order.iter().enumerate() {
        level_of.insert(v, level as u32);
    }
    let mut bdd = Bdd::empty(order, max_nodes);
    let mut func: HashMap<NodeId, Ref, FxBuild> = HashMap::default();
    for (&v, &level) in &level_of {
        func.insert(v, bdd.mk(level, FALSE, TRUE)?);
    }
    let mut sift_passes: u32 = 0;
    let mut sift_swaps: u64 = 0;
    let mut next_trigger = settings.trigger.max(4);
    let mut rescues_left = MAX_RESCUES;
    for (gi, &gate) in region.gates.iter().enumerate() {
        let f = loop {
            match build_gate(tree, gate, &func, &mut bdd) {
                Ok(f) => break f,
                Err(BddError::NodeBudget { peak_nodes, .. })
                    if settings.enabled && rescues_left > 0 =>
                {
                    rescues_left -= 1;
                    // Collect the garbage the failed attempt left behind;
                    // sift only if the live size makes it worthwhile.
                    let gc = compact_funcs(tree, region, gi, &mut func, &mut bdd, settings, false)?;
                    if bdd.node_count() <= settings.rescue_max_nodes {
                        let s =
                            compact_funcs(tree, region, gi, &mut func, &mut bdd, settings, true)?;
                        sift_passes += s.passes;
                        sift_swaps += s.swaps;
                    }
                    sift_swaps += gc.swaps;
                    if bdd.node_count() * 4 >= max_nodes * 3 {
                        // Even garbage-collected and reordered the module
                        // fills ≥ 3/4 of the budget: declare it
                        // intractable rather than thrash.
                        return Err(BddError::NodeBudget {
                            limit: max_nodes,
                            module: None,
                            peak_nodes,
                        });
                    }
                    next_trigger = bdd.node_count().saturating_mul(2).max(settings.trigger);
                }
                Err(e) => return Err(e),
            }
        };
        func.insert(gate, f);
        if settings.enabled && bdd.node_count() >= next_trigger {
            let s = compact_funcs(tree, region, gi + 1, &mut func, &mut bdd, settings, true)?;
            sift_passes += s.passes;
            sift_swaps += s.swaps;
            next_trigger = bdd.node_count().saturating_mul(2).max(settings.trigger);
        }
    }
    bdd.set_root(func[&region.root]);
    Ok((bdd, sift_passes, sift_swaps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdft_ft::FaultTreeBuilder;

    fn example1() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b.static_event("b", 1e-3).unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b.static_event("d", 1e-3).unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let top = b.or("cooling", [pumps, e]).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    #[test]
    fn modular_probability_matches_monolithic_and_enumeration() {
        let t = example1();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let modular = ModularBdd::new(&t).unwrap();
        let mono = Bdd::new(&t).unwrap();
        let exact = t.exact_static_probability().unwrap();
        let pm = modular.exact_probability(&probs);
        assert!((pm - exact).abs() < 1e-15, "{pm} vs {exact}");
        assert!((pm - mono.top_probability(&probs)).abs() < 1e-15);
        // Fully built compositions are exact at every module.
        let per_module = modular.module_probabilities_with(|e| probs.get(e));
        assert!(per_module.iter().all(|m| m.exact));
        assert_eq!(per_module.last().unwrap().gate, t.top());
    }

    #[test]
    fn modular_cutsets_match_monolithic() {
        let t = example1();
        let mut modular = ModularBdd::new(&t).unwrap();
        let mut mono = Bdd::new(&t).unwrap();
        let mut a: Vec<Cutset> = modular.minimal_cutsets().unwrap().iter().cloned().collect();
        let mut b: Vec<Cutset> = mono.minimal_cutsets().unwrap().iter().cloned().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn streaming_yields_the_same_cutsets_in_batches() {
        let t = example1();
        let mut modular = ModularBdd::new(&t).unwrap();
        let full: Vec<Cutset> = modular.minimal_cutsets().unwrap().iter().cloned().collect();
        let mut streamed: Vec<Cutset> = Vec::new();
        let mut batches = 0;
        let done = modular
            .stream_minimal_cutsets(1, |batch| {
                batches += 1;
                streamed.append(batch);
                true
            })
            .unwrap();
        assert!(done);
        assert!(batches >= 2, "expected several batches, got {batches}");
        assert_eq!(streamed, full, "stream order must match batch order");
    }

    #[test]
    fn streaming_abort_is_honored() {
        let t = example1();
        let mut modular = ModularBdd::new(&t).unwrap();
        let done = modular.stream_minimal_cutsets(1, |_| false).unwrap();
        assert!(!done);
    }

    #[test]
    fn stats_report_one_diagram_per_module() {
        let t = example1();
        let modular = ModularBdd::new(&t).unwrap();
        let stats = modular.stats();
        // p1, p2, pumps, cooling are all modules of example1.
        assert_eq!(stats.modules, 4);
        assert_eq!(stats.per_module.len(), 4);
        assert!(stats.total_nodes >= stats.max_module_nodes);
        assert_eq!(stats.weighted_orders, 0, "tiny modules stay on DFS order");
        assert_eq!(stats.external_modules, 0);
        assert!(stats.per_module.iter().all(|m| m.kind == ModuleKind::Built));
        assert!(modular.is_module(t.node_by_name("pumps").unwrap()));
        assert!(!modular.is_module(t.node_by_name("a").unwrap()));
    }

    #[test]
    fn shared_budget_is_enforced_across_modules() {
        let t = example1();
        let err = ModularBdd::with_options(
            &t,
            &ModularBddOptions {
                max_nodes: 4,
                ..ModularBddOptions::default()
            },
        );
        match err {
            Err(BddError::NodeBudget { limit, module, .. }) => {
                assert_eq!(limit, 4);
                assert!(module.is_some(), "modular failures name their module");
            }
            other => panic!("expected NodeBudget, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn weighted_order_threshold_changes_order_not_semantics() {
        let t = example1();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let weighted = ModularBdd::with_options(
            &t,
            &ModularBddOptions {
                weighted_order_threshold: 0,
                ..ModularBddOptions::default()
            },
        )
        .unwrap();
        assert_eq!(weighted.stats().weighted_orders, 4);
        let exact = t.exact_static_probability().unwrap();
        assert!((weighted.exact_probability(&probs) - exact).abs() < 1e-15);
    }

    /// Resolve `pumps` externally (its two-level antichain computed by
    /// hand) and check the composition matches the fully built one.
    #[test]
    fn external_module_composes_identically() {
        let t = example1();
        let mut full = ModularBdd::new(&t).unwrap();
        let mut builder = ModularBddBuilder::new(&t, &ModularBddOptions::default());
        let gates = builder.module_gates().to_vec();
        let pumps = t.node_by_name("pumps").unwrap();
        let p1 = t.node_by_name("pump1").unwrap();
        let p2 = t.node_by_name("pump2").unwrap();
        for (i, &g) in gates.iter().enumerate() {
            if g == pumps {
                // pumps = AND(p1, p2): one pseudo-level cutset.
                builder.set_external(i, vec![vec![p1, p2]]).unwrap();
            } else {
                builder.build_module(i).unwrap();
            }
        }
        let mut hybrid = builder.finish().unwrap();
        let mut a: Vec<Cutset> = hybrid.minimal_cutsets().unwrap().iter().cloned().collect();
        let mut b: Vec<Cutset> = full.minimal_cutsets().unwrap().iter().cloned().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);

        let probs = EventProbabilities::from_static(&t).unwrap();
        let per_module = hybrid.module_probabilities_with(|e| probs.get(e));
        let by_gate: HashMap<NodeId, &ModuleProbability> =
            per_module.iter().map(|m| (m.gate, m)).collect();
        assert!(by_gate[&p1].exact, "pump1 is still built");
        assert!(!by_gate[&pumps].exact, "external modules are inexact");
        assert!(!by_gate[&t.top()].exact, "inexactness taints ancestors");
        // The top REA composition still brackets the exact value from
        // above (all cutsets positive, REA over-counts).
        let exact = t.exact_static_probability().unwrap();
        assert!(by_gate[&t.top()].probability >= exact - 1e-15);
        let stats = hybrid.stats();
        assert_eq!(stats.external_modules, 1);
        assert_eq!(
            stats
                .per_module
                .iter()
                .find(|m| m.gate == pumps)
                .unwrap()
                .external_sets,
            1
        );
    }

    #[test]
    fn external_validation_rejects_foreign_members() {
        let t = example1();
        let mut builder = ModularBddBuilder::new(&t, &ModularBddOptions::default());
        let gates = builder.module_gates().to_vec();
        let pumps = t.node_by_name("pumps").unwrap();
        let i = gates.iter().position(|&g| g == pumps).unwrap();
        // The tree's top gate is not a nested module of pumps.
        let err = builder.set_external(i, vec![vec![t.top()]]);
        assert!(matches!(err, Err(BddError::InvalidOrder { .. })));
    }

    #[test]
    fn unresolved_modules_fail_finish() {
        let t = example1();
        let mut builder = ModularBddBuilder::new(&t, &ModularBddOptions::default());
        builder.build_module(0).unwrap();
        let err = builder.finish();
        assert!(matches!(err, Err(BddError::UnresolvedModule { .. })));
    }

    /// Sifting mid-build must not change semantics: force the periodic
    /// trigger to fire constantly on a small shared-event module and
    /// compare against the unsifted construction.
    #[test]
    fn aggressive_sifting_preserves_semantics() {
        let mut b = FaultTreeBuilder::new();
        let events: Vec<NodeId> = (0..10)
            .map(|i| {
                b.static_event(&format!("e{i}"), 0.05 + 0.01 * i as f64)
                    .unwrap()
            })
            .collect();
        // Overlapping AND pairs under an OR: plenty of sharing.
        let mut ors = Vec::new();
        for i in 0..events.len() - 2 {
            ors.push(
                b.and(&format!("g{i}"), [events[i], events[i + 1], events[i + 2]])
                    .unwrap(),
            );
        }
        let top = b.or("top", ors).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();

        let mut plain_opts = ModularBddOptions::default();
        plain_opts.sift.enabled = false;
        let mut plain = ModularBdd::with_options(&t, &plain_opts).unwrap();

        let mut sifty_opts = ModularBddOptions::default();
        sifty_opts.sift.trigger = 4; // sift after nearly every gate
        let mut sifty = ModularBdd::with_options(&t, &sifty_opts).unwrap();
        assert!(
            sifty.stats().sift_passes > 0,
            "trigger of 4 nodes must fire"
        );

        let pp = plain.exact_probability(&probs);
        let ps = sifty.exact_probability(&probs);
        assert!(
            (pp - ps).abs() <= 1e-12 * pp.abs().max(1e-300),
            "{pp} vs {ps}"
        );
        let mut a: Vec<Cutset> = plain.minimal_cutsets().unwrap().iter().cloned().collect();
        let mut b2: Vec<Cutset> = sifty.minimal_cutsets().unwrap().iter().cloned().collect();
        a.sort();
        b2.sort();
        assert_eq!(a, b2, "sifting must not change the cutset antichain");
    }
}
