use crate::assumptions::Assumptions;
use crate::buffer::Buffer;
use crate::error::MocusError;
use crate::options::MocusOptions;
use crate::stats::MocusStats;
use crate::stream::separable_components;
use sdft_ft::{Cutset, CutsetList, EventProbabilities, FaultTree, GateKind, NodeId};

/// Generate the minimal cutsets of `tree` above the configured cutoff.
///
/// Dynamic basic events are treated statically through the probabilities
/// in `probs` (for SD fault trees: the worst-case probabilities of §V-B2);
/// trigger edges are ignored — callers analysing SD trees first translate
/// triggers into AND gates (§V-B1), as `sdft-core` does.
///
/// Expansion runs depth-first on the calling thread.
///
/// # Errors
///
/// Returns an error if the cutoff is invalid or a safety budget in
/// `options` is exceeded.
pub fn minimal_cutsets(
    tree: &FaultTree,
    probs: &EventProbabilities,
    options: &MocusOptions,
) -> Result<CutsetList, MocusError> {
    Ok(minimal_cutsets_with_stats(tree, probs, options)?.0)
}

/// Like [`minimal_cutsets`], but also returning the run's counters
/// ([`MocusStats`]): partials processed and pruned, candidates emitted,
/// subsumption comparisons and rejects, and the residency peaks.
///
/// # Errors
///
/// Same as [`minimal_cutsets`].
pub fn minimal_cutsets_with_stats(
    tree: &FaultTree,
    probs: &EventProbabilities,
    options: &MocusOptions,
) -> Result<(CutsetList, MocusStats), MocusError> {
    minimal_cutsets_rooted_with_stats(tree, tree.top(), probs, options, &Assumptions::new(tree))
}

/// Like [`minimal_cutsets`], but for the function of an arbitrary node
/// instead of the top gate, with truth-value assumptions substituted into
/// the tree: events assumed failed never appear in cutsets (they are
/// already satisfied), events assumed functional kill any requirement on
/// them. Used by the SD analysis to compute the minimal failing subsets
/// of a *triggering* gate (§V-C step 2).
///
/// # Errors
///
/// Returns an error if an assumption is placed on a gate, the cutoff is
/// invalid, or a safety budget in `options` is exceeded.
pub fn minimal_cutsets_rooted(
    tree: &FaultTree,
    root: NodeId,
    probs: &EventProbabilities,
    options: &MocusOptions,
    assumptions: &Assumptions,
) -> Result<CutsetList, MocusError> {
    Ok(minimal_cutsets_rooted_with_stats(tree, root, probs, options, assumptions)?.0)
}

/// The batch path: collect every candidate below `root` and minimize
/// them in one pass, at the run's one release.
pub(crate) fn minimal_cutsets_rooted_with_stats(
    tree: &FaultTree,
    root: NodeId,
    probs: &EventProbabilities,
    options: &MocusOptions,
    assumptions: &Assumptions,
) -> Result<(CutsetList, MocusStats), MocusError> {
    let mut minimal = Vec::new();
    let mut keep = |list| {
        minimal = list;
        true
    };
    let stats = generate(tree, root, probs, options, assumptions, false, &mut keep)?;
    Ok((CutsetList::from_vec(minimal), stats))
}

/// Check the cutoff and the assumptions, then expand everything below
/// `root`, handing minimal cutsets to `release`: once at the end of a
/// batch run; after each separable component of an OR `root` in a
/// streaming run (see [`crate::stream`]). Empty releases are skipped.
pub(crate) fn generate(
    tree: &FaultTree,
    root: NodeId,
    probs: &EventProbabilities,
    options: &MocusOptions,
    assumptions: &Assumptions,
    streaming: bool,
    release: &mut dyn FnMut(Vec<Cutset>) -> bool,
) -> Result<MocusStats, MocusError> {
    if let Some(c) = options.cutoff {
        if !c.is_finite() || c < 0.0 {
            return Err(MocusError::InvalidCutoff { cutoff: c });
        }
    }
    assumptions.validate(tree)?;
    Engine::new(tree, probs, options, assumptions).run(root, streaming, release)
}

#[derive(Debug, Clone)]
struct Partial {
    /// Basic events chosen to fail, sorted by id.
    events: Vec<NodeId>,
    /// Gates that still need to fail, used as a stack.
    gates: Vec<NodeId>,
    /// Product of the probabilities of `events`.
    prob: f64,
}

/// Approximate resident bytes of a partial cutset (two inline vectors
/// plus the struct itself).
fn partial_bytes(partial: &Partial) -> usize {
    (partial.events.len() + partial.gates.len()) * 8 + 48
}

enum Outcome {
    Alive,
    Dead,
}

/// A live quantity and its high-water mark.
#[derive(Default)]
struct Gauge {
    live: usize,
    peak: usize,
}

impl Gauge {
    fn add(&mut self, n: usize) {
        self.live += n;
        self.peak = self.peak.max(self.live);
    }

    fn sub(&mut self, n: usize) {
        self.live -= n;
    }
}

/// The mutable state of one run: the partial stack, the candidate
/// buffer and its release, recycled `Partial` allocations, the scratch
/// buffers of the look-ahead, and the budget and residency counters.
struct Worker<'s> {
    /// Depth-first stack of live partials.
    stack: Vec<Partial>,
    /// Finalized candidates not yet released.
    buffer: Buffer,
    /// Takes the buffer's minimal cutsets at each release; `false`
    /// aborts the run.
    release: &'s mut dyn FnMut(Vec<Cutset>) -> bool,
    /// Recycled partials: branching pulls allocations from here instead
    /// of cloning fresh vectors for every child.
    pool: Vec<Partial>,
    /// Scratch bitset for the disjointness test in `within_bounds`.
    scratch: Vec<u64>,
    /// The union `U` of the branching parent's look-ahead
    /// ([`Engine::branch_bound`]), kept apart from `scratch` because each
    /// surviving branch's `within_bounds` overwrites that.
    branch_scratch: Vec<u64>,
    /// Scratch list for sorting pending gates by upper bound.
    gate_scratch: Vec<NodeId>,
    /// Partials processed, against `max_partials`.
    processed: usize,
    /// Cutset candidates emitted, against `max_cutsets`.
    candidates: usize,
    /// Branches discarded by the cutoff / order / look-ahead bounds.
    pruned: u64,
    /// Queued partials, by count and by approximate bytes.
    partials: Gauge,
    partial_bytes: Gauge,
}

/// Cap on recycled partials, bounding idle memory.
const POOL_LIMIT: usize = 256;

impl<'s> Worker<'s> {
    fn new(words: usize, streaming: bool, release: &'s mut dyn FnMut(Vec<Cutset>) -> bool) -> Self {
        Worker {
            stack: Vec::new(),
            buffer: Buffer::new(streaming),
            release,
            pool: Vec::new(),
            scratch: vec![0u64; words],
            branch_scratch: vec![0u64; words],
            gate_scratch: Vec::new(),
            processed: 0,
            candidates: 0,
            pruned: 0,
            partials: Gauge::default(),
            partial_bytes: Gauge::default(),
        }
    }

    /// A copy of `src` backed by recycled allocations when available.
    fn alloc_copy(&mut self, src: &Partial) -> Partial {
        match self.pool.pop() {
            Some(mut p) => {
                p.events.clear();
                p.events.extend_from_slice(&src.events);
                p.gates.clear();
                p.gates.extend_from_slice(&src.gates);
                p.prob = src.prob;
                p
            }
            None => src.clone(),
        }
    }

    fn recycle(&mut self, mut partial: Partial) {
        if self.pool.len() < POOL_LIMIT {
            partial.events.clear();
            partial.gates.clear();
            self.pool.push(partial);
        }
    }

    /// Push a surviving partial onto the stack, counting it live
    /// (residency is measured over *queued* partials, whose size is
    /// fixed while they wait).
    fn push_live(&mut self, partial: Partial) {
        self.partials.add(1);
        self.partial_bytes.add(partial_bytes(&partial));
        self.stack.push(partial);
    }

    /// The run's counters.
    fn stats(&self) -> MocusStats {
        MocusStats {
            partials_processed: self.processed as u64,
            partials_pruned: self.pruned,
            cutset_candidates: self.candidates as u64,
            subsumption_comparisons: self.buffer.probes,
            candidates_rejected: self.buffer.rejects,
            peak_pending_cutsets: self.buffer.peak_pending as u64,
            peak_live_partials: self.partials.peak as u64,
            peak_partial_bytes: self.partial_bytes.peak as u64,
            minimize_time: self.buffer.busy,
        }
    }

    /// Expand the stack until it is empty, then release the buffer.
    ///
    /// The loop stays in a function of its own: folded into
    /// `Engine::run`, where it shared one function with the inlined
    /// `Engine::new`, it ran the batch path 3–23% slower on full-scale
    /// model 1 (EXPERIMENTS.md, *One component at a time*).
    fn drain(&mut self, engine: &Engine<'_>) -> Result<(), MocusError> {
        while let Some(partial) = self.stack.pop() {
            engine.expand_one(self, partial)?;
        }
        self.release_buffer()
    }

    /// Minimize the buffer and hand its minimal cutsets on, unless it
    /// is empty.
    #[inline(never)]
    fn release_buffer(&mut self) -> Result<(), MocusError> {
        let minimal = self.buffer.finish();
        if minimal.is_empty() || (self.release)(minimal) {
            Ok(())
        } else {
            Err(MocusError::Aborted)
        }
    }
}

struct Engine<'a> {
    tree: &'a FaultTree,
    probs: &'a EventProbabilities,
    options: &'a MocusOptions,
    assumptions: &'a Assumptions,
    /// Per node: the node it stands for. A gate with exactly one input
    /// (a transfer gate) equals that input, so it maps to the input's
    /// representative; every other node maps to itself. Partials only
    /// ever hold representatives.
    resolve: Vec<NodeId>,
    /// Per node: the largest probability of any single way to fail it
    /// (OR → max over inputs, AND → product, respecting assumptions).
    /// Used for look-ahead pruning; empty when the cutoff is disabled.
    upper_bound: Vec<f64>,
    /// Dense event index per node (`usize::MAX` for gates).
    event_index: Vec<usize>,
    /// Per event and representative: bitmask over dense event indices of
    /// its subtree (empty for transfer gates); empty when the cutoff is
    /// disabled.
    masks: Vec<Vec<u64>>,
    /// Words per event bitmask.
    words: usize,
}

impl<'a> Engine<'a> {
    fn new(
        tree: &'a FaultTree,
        probs: &'a EventProbabilities,
        options: &'a MocusOptions,
        assumptions: &'a Assumptions,
    ) -> Self {
        let mut event_index = vec![usize::MAX; tree.len()];
        let mut num_events = 0;
        for event in tree.basic_events() {
            event_index[event.index()] = num_events;
            num_events += 1;
        }
        let words = num_events.div_ceil(64);
        // Node ids are topological (inputs precede gates), so one forward
        // pass resolves whole chains. `FaultTreeBuilder` admits no
        // single-input threshold but `AtLeast(1)`, and a single-input OR,
        // AND or `AtLeast(1)` is its input.
        let mut resolve: Vec<NodeId> = Vec::with_capacity(tree.len());
        for id in tree.node_ids() {
            let node = match tree.gate_inputs(id) {
                [input] => resolve[input.index()],
                _ => id,
            };
            resolve.push(node);
        }

        let (upper_bound, masks) = if options.cutoff.is_some() {
            let mut ub = vec![0.0f64; tree.len()];
            let mut masks: Vec<Vec<u64>> = vec![Vec::new(); tree.len()];
            // Gates are bounded over their inputs' representatives.
            let rep = |c: &NodeId| resolve[c.index()].index();
            for id in tree.node_ids() {
                let i = id.index();
                if resolve[i] != id {
                    ub[i] = ub[resolve[i].index()];
                } else if tree.is_basic(id) {
                    ub[i] = if assumptions.is_failed(id) {
                        1.0
                    } else if assumptions.is_ok(id) {
                        0.0
                    } else {
                        probs.get(id)
                    };
                    let mut mask = vec![0u64; words];
                    let e = event_index[i];
                    mask[e / 64] |= 1 << (e % 64);
                    masks[i] = mask;
                } else {
                    let inputs = tree.gate_inputs(id);
                    // Shared subtrees make naive products unsound (a
                    // completion can reuse one event for several
                    // children), so products only multiply children with
                    // pairwise-disjoint subtrees; overlapping children
                    // contribute a factor of 1.
                    ub[i] = match tree.gate_kind(id).expect("gate") {
                        GateKind::Or => inputs.iter().map(|c| ub[rep(c)]).fold(0.0, f64::max),
                        GateKind::And => {
                            let mut order: Vec<usize> = inputs.iter().map(rep).collect();
                            order.sort_by(|&a, &b| {
                                ub[a]
                                    .partial_cmp(&ub[b])
                                    .unwrap_or(std::cmp::Ordering::Equal)
                            });
                            let mut union = vec![0u64; words];
                            let mut product = 1.0;
                            for c in order {
                                let mask = &masks[c];
                                if mask.iter().zip(&union).all(|(m, u)| m & u == 0) {
                                    product *= ub[c];
                                    for (u, m) in union.iter_mut().zip(mask) {
                                        *u |= m;
                                    }
                                }
                            }
                            product
                        }
                        GateKind::AtLeast(k) => {
                            let k = k as usize;
                            let mut ubs: Vec<f64> = inputs.iter().map(|c| ub[rep(c)]).collect();
                            ubs.sort_by(|a, b| {
                                b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
                            });
                            let pairwise_disjoint = inputs.iter().enumerate().all(|(x, a)| {
                                inputs.iter().skip(x + 1).all(|b| {
                                    masks[rep(a)]
                                        .iter()
                                        .zip(&masks[rep(b)])
                                        .all(|(ma, mb)| ma & mb == 0)
                                })
                            });
                            if pairwise_disjoint {
                                // Any k-subset's product is at most the
                                // product of the k largest bounds.
                                ubs.iter().take(k).product()
                            } else {
                                // Any satisfied k-subset contains a child
                                // whose bound is at most the k-th largest.
                                ubs.get(k - 1).copied().unwrap_or(0.0)
                            }
                        }
                    };
                    let mut mask = vec![0u64; words];
                    for c in inputs {
                        for (w, m) in mask.iter_mut().zip(&masks[rep(c)]) {
                            *w |= m;
                        }
                    }
                    masks[i] = mask;
                }
            }
            (ub, masks)
        } else {
            (Vec::new(), Vec::new())
        };

        Engine {
            tree,
            probs,
            options,
            assumptions,
            resolve,
            upper_bound,
            event_index,
            masks,
            words,
        }
    }

    /// The node `node` stands for (see [`Engine::resolve`]).
    fn rep(&self, node: NodeId) -> NodeId {
        self.resolve[node.index()]
    }

    /// Expand everything below `root` depth-first, releasing minimal
    /// cutsets (see [`generate`]).
    fn run(
        &self,
        root: NodeId,
        streaming: bool,
        release: &mut dyn FnMut(Vec<Cutset>) -> bool,
    ) -> Result<MocusStats, MocusError> {
        let tree = self.tree;
        let root = self.rep(root);
        let mut worker = Worker::new(self.words, streaming, release);
        // A basic-event root degenerates to a single obligation.
        let initial = if tree.is_basic(root) {
            if self.assumptions.is_failed(root) {
                // Already failed: the empty cutset is the only one.
                if !(worker.release)(vec![Cutset::new(std::iter::empty())]) {
                    return Err(MocusError::Aborted);
                }
                return Ok(MocusStats::default());
            }
            (!self.assumptions.is_ok(root)).then(|| Partial {
                events: vec![root],
                gates: Vec::new(),
                prob: self.probs.get(root),
            })
        } else {
            Some(Partial {
                events: Vec::new(),
                gates: vec![root],
                prob: 1.0,
            })
        };
        if let Some(initial) = initial {
            if !self.within_bounds(&mut worker, &initial) {
                worker.pruned += 1;
            } else if let Some(components) = streaming
                .then(|| separable_components(tree, root))
                .flatten()
            {
                self.expand_components(&mut worker, initial, &components)?;
                return Ok(worker.stats());
            } else {
                worker.push_live(initial);
            }
        }
        worker.drain(self)?;
        Ok(worker.stats())
    }

    /// Expand the OR partial `top` once, then each component of its
    /// inputs to completion in turn, with a release after each. Every
    /// input is seeded as the OR branch of [`Self::expand_one`] seeds it,
    /// branch bound included, so each component's candidates arrive in
    /// the order a plain depth-first pass finds them.
    fn expand_components(
        &self,
        worker: &mut Worker<'_>,
        mut top: Partial,
        components: &[Vec<NodeId>],
    ) -> Result<(), MocusError> {
        debug_assert!(self.assumptions.is_empty(), "a split ignores assumptions");
        worker.processed += 1;
        if worker.processed > self.options.max_partials {
            return Err(MocusError::TooManyPartials {
                limit: self.options.max_partials,
            });
        }
        top.gates.pop();
        for component in components {
            // The previous component's drain overwrote the look-ahead.
            let bound = self.branch_bound(worker, &top);
            for &child in component {
                if self.prunes_branch(worker, bound, child) {
                    continue;
                }
                let mut branch = worker.alloc_copy(&top);
                if matches!(self.add_child(&mut branch, child), Outcome::Dead) {
                    worker.recycle(branch);
                } else {
                    self.keep_if_bounded(worker, branch);
                }
            }
            worker.drain(self)?;
        }
        worker.recycle(top);
        Ok(())
    }

    /// Expand one partial cutset: leaves become candidates, AND extends,
    /// OR branches (reusing the parent allocation for the last child),
    /// at-least enumerates combinations. Surviving branches are pushed
    /// onto the stack.
    fn expand_one(&self, worker: &mut Worker<'_>, mut partial: Partial) -> Result<(), MocusError> {
        // The partial left the stack; it is re-counted if re-pushed.
        worker.partials.sub(1);
        worker.partial_bytes.sub(partial_bytes(&partial));
        worker.processed += 1;
        if worker.processed > self.options.max_partials {
            return Err(MocusError::TooManyPartials {
                limit: self.options.max_partials,
            });
        }
        let Some(gate) = partial.gates.pop() else {
            worker.candidates += 1;
            if worker.candidates > self.options.max_cutsets {
                return Err(MocusError::TooManyCutsets {
                    limit: self.options.max_cutsets,
                });
            }
            let Partial { events, gates, .. } = partial;
            worker.recycle(Partial {
                events: Vec::new(),
                gates,
                prob: 1.0,
            });
            worker.buffer.push(Cutset::new(events));
            return Ok(());
        };
        match self.tree.gate_kind(gate).expect("pending nodes are gates") {
            GateKind::And => {
                let mut alive = true;
                for &child in self.tree.gate_inputs(gate) {
                    if matches!(self.add_child(&mut partial, child), Outcome::Dead) {
                        alive = false;
                        break;
                    }
                }
                if alive {
                    self.keep_if_bounded(worker, partial);
                } else {
                    worker.recycle(partial);
                }
            }
            GateKind::Or => {
                let inputs = self.tree.gate_inputs(gate);
                // If any input stands for an event assumed failed, the
                // gate is already failed and the obligation simply drops.
                // (`generate` rejects assumptions on gates.)
                if inputs
                    .iter()
                    .any(|&c| self.assumptions.is_failed(self.rep(c)))
                {
                    worker.push_live(partial);
                    return Ok(());
                }
                let skip = |c: NodeId| self.assumptions.is_ok(self.rep(c));
                let Some(last) = inputs.iter().rposition(|&c| !skip(c)) else {
                    worker.recycle(partial);
                    return Ok(());
                };
                let bound = self.branch_bound(worker, &partial);
                for &child in &inputs[..last] {
                    if skip(child) || self.prunes_branch(worker, bound, child) {
                        continue;
                    }
                    let mut branch = worker.alloc_copy(&partial);
                    if matches!(self.add_child(&mut branch, child), Outcome::Dead) {
                        worker.recycle(branch);
                    } else {
                        self.keep_if_bounded(worker, branch);
                    }
                }
                // Reuse the parent allocation for the final branch.
                if self.prunes_branch(worker, bound, inputs[last])
                    || matches!(self.add_child(&mut partial, inputs[last]), Outcome::Dead)
                {
                    worker.recycle(partial);
                } else {
                    self.keep_if_bounded(worker, partial);
                }
            }
            GateKind::AtLeast(k) => {
                self.expand_atleast(worker, gate, k as usize, partial)?;
            }
        }
        Ok(())
    }

    /// Push `partial` if it survives the bounds, else count it pruned.
    fn keep_if_bounded(&self, worker: &mut Worker<'_>, partial: Partial) {
        if self.within_bounds(worker, &partial) {
            worker.push_live(partial);
        } else {
            worker.pruned += 1;
            worker.recycle(partial);
        }
    }

    /// Add one child requirement, the node `child` stands for, to a
    /// partial cutset.
    fn add_child(&self, partial: &mut Partial, child: NodeId) -> Outcome {
        let child = self.rep(child);
        if self.tree.is_gate(child) {
            if !partial.gates.contains(&child) {
                partial.gates.push(child);
            }
            return Outcome::Alive;
        }
        if self.assumptions.is_failed(child) {
            return Outcome::Alive; // already satisfied, contributes nothing
        }
        if self.assumptions.is_ok(child) {
            return Outcome::Dead; // requirement can never be met
        }
        if let Err(pos) = partial.events.binary_search(&child) {
            partial.events.insert(pos, child);
            partial.prob *= self.probs.get(child);
        }
        Outcome::Alive
    }

    /// Whether a partial cutset survives the cutoff and order limits:
    /// its probability and then its [look-ahead](Self::lookahead) must
    /// stay above the cutoff.
    fn within_bounds(&self, worker: &mut Worker<'_>, partial: &Partial) -> bool {
        if let Some(max_order) = self.options.max_order {
            if partial.events.len() > max_order {
                return false;
            }
        }
        let Some(cutoff) = self.options.cutoff else {
            return true;
        };
        if partial.prob <= cutoff {
            return false;
        }
        partial.gates.is_empty()
            || self.lookahead(
                partial,
                cutoff,
                &mut worker.scratch,
                &mut worker.gate_scratch,
            ) > cutoff
    }

    /// The greedy disjoint look-ahead: a sound upper bound on every
    /// refinement of `partial` (DESIGN §5, *MOCUS*). Starting from the
    /// partial's probability and its events' bits in `bits`, it takes the
    /// pending gates cheapest first (for the earliest possible exit), and
    /// multiplies in the best single completion (`upper_bound`) of each
    /// gate whose subtree misses every bit set so far, then sets the
    /// gate's bits. It returns the product as soon as that is at most
    /// `cutoff`, else after the last gate; `bits` then holds the union
    /// `U` of the chosen events and the selected gates' masks.
    fn lookahead(
        &self,
        partial: &Partial,
        cutoff: f64,
        bits: &mut [u64],
        order: &mut Vec<NodeId>,
    ) -> f64 {
        order.clear();
        order.extend_from_slice(&partial.gates);
        let ub = &self.upper_bound;
        order.sort_by(|a, b| {
            ub[a.index()]
                .partial_cmp(&ub[b.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        bits.fill(0);
        for &event in &partial.events {
            let e = self.event_index[event.index()];
            bits[e / 64] |= 1 << (e % 64);
        }
        let mut bound = partial.prob;
        for &gate in order.iter() {
            let mask = &self.masks[gate.index()];
            if mask.iter().zip(&*bits).all(|(m, s)| m & s == 0) {
                bound *= ub[gate.index()];
                if bound <= cutoff {
                    return bound;
                }
                for (s, m) in bits.iter_mut().zip(mask) {
                    *s |= m;
                }
            }
        }
        bound
    }

    /// The parent side of the branch bound: the look-ahead product `R`
    /// of the branching `parent` (its gate already popped), with its
    /// union `U` left in `worker.branch_scratch`; `None` without a
    /// cutoff. See [`Self::prunes_branch`].
    fn branch_bound(&self, worker: &mut Worker<'_>, parent: &Partial) -> Option<f64> {
        let cutoff = self.options.cutoff?;
        Some(self.lookahead(
            parent,
            cutoff,
            &mut worker.branch_scratch,
            &mut worker.gate_scratch,
        ))
    }

    /// Whether the branch to `child` is pruned before it is built, from
    /// its parent's [`Self::branch_bound`] `R`: when `R · f ≤ cutoff`,
    /// with `f` the best single completion of the node `child` stands
    /// for if its subtree misses `U`, else 1 (an event in `U` may already
    /// satisfy a selected gate). A pruned branch counts as pruned.
    fn prunes_branch(&self, worker: &mut Worker<'_>, bound: Option<f64>, child: NodeId) -> bool {
        let (Some(bound), Some(cutoff)) = (bound, self.options.cutoff) else {
            return false;
        };
        let c = self.rep(child).index();
        let disjoint = self.masks[c]
            .iter()
            .zip(&worker.branch_scratch)
            .all(|(m, u)| m & u == 0);
        let pruned = bound * if disjoint { self.upper_bound[c] } else { 1.0 } <= cutoff;
        worker.pruned += u64::from(pruned);
        pruned
    }

    fn expand_atleast(
        &self,
        worker: &mut Worker<'_>,
        gate: NodeId,
        k: usize,
        partial: Partial,
    ) -> Result<(), MocusError> {
        // Assumptions reduce the voting problem: failed inputs lower the
        // threshold, functional inputs leave the candidate pool.
        let tree = self.tree;
        let mut candidates: Vec<NodeId> = Vec::new();
        let mut threshold = k;
        for &child in tree.gate_inputs(gate) {
            let child = self.rep(child);
            if tree.is_basic(child) {
                if self.assumptions.is_failed(child) {
                    threshold = threshold.saturating_sub(1);
                    continue;
                }
                if self.assumptions.is_ok(child) {
                    continue;
                }
            }
            candidates.push(child);
        }
        if threshold == 0 {
            worker.push_live(partial);
            return Ok(());
        }
        if threshold > candidates.len() {
            worker.recycle(partial);
            return Ok(()); // dead: not enough inputs can still fail
        }
        let combos = binomial(candidates.len() as u128, threshold as u128);
        if combos > self.options.max_combinations {
            return Err(MocusError::CombinationLimit {
                gate: tree.name(gate).to_owned(),
                combinations: combos,
            });
        }
        // Enumerate all threshold-sized subsets of the candidates.
        let mut indices: Vec<usize> = (0..threshold).collect();
        'combos: loop {
            let mut branch = worker.alloc_copy(&partial);
            let mut alive = true;
            for &i in &indices {
                if matches!(self.add_child(&mut branch, candidates[i]), Outcome::Dead) {
                    alive = false;
                    break;
                }
            }
            if alive {
                self.keep_if_bounded(worker, branch);
            } else {
                worker.recycle(branch);
            }
            // Advance to the next combination in lexicographic order.
            let mut pos = threshold;
            loop {
                if pos == 0 {
                    break 'combos;
                }
                pos -= 1;
                if indices[pos] != pos + candidates.len() - threshold {
                    indices[pos] += 1;
                    for j in pos + 1..threshold {
                        indices[j] = indices[j - 1] + 1;
                    }
                    continue 'combos;
                }
            }
        }
        worker.recycle(partial);
        Ok(())
    }
}

/// `C(n, k)` with overflow treated as "more combinations than any budget":
/// the incremental product stays exactly divisible (a product of `i + 1`
/// consecutive integers is divisible by `(i + 1)!`), so the only failure
/// mode is the multiplication itself overflowing — in that case the true
/// count exceeds `u128::MAX / n`, far beyond any configurable
/// `max_combinations`, and `u128::MAX` is returned so the budget check
/// fires instead of silently under-reporting (as `saturating_mul`
/// followed by division used to).
fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        match result.checked_mul(n - i) {
            Some(product) => result = product / (i + 1),
            None => return u128::MAX,
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdft_ft::{FaultTreeBuilder, Scenario};

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

    fn mcs_names(tree: &FaultTree, list: &CutsetList) -> Vec<Vec<String>> {
        let mut v: Vec<Vec<String>> = list
            .iter()
            .map(|c| {
                c.events()
                    .iter()
                    .map(|&e| tree.name(e).to_owned())
                    .collect()
            })
            .collect();
        v.sort();
        v
    }

    /// Brute-force minimal cutsets by enumerating all scenarios.
    fn brute_force_mcs(tree: &FaultTree) -> Vec<Vec<String>> {
        brute_force_rooted(tree, tree.top(), &Assumptions::new(tree))
    }

    /// Brute-force minimal cutsets of `root` under `assumptions`: every
    /// scenario fails the events assumed failed, and the minimal sets
    /// range over the events without an assumption.
    fn brute_force_rooted(
        tree: &FaultTree,
        root: NodeId,
        assumptions: &Assumptions,
    ) -> Vec<Vec<String>> {
        let events: Vec<NodeId> = tree
            .basic_events()
            .filter(|&e| !assumptions.is_failed(e) && !assumptions.is_ok(e))
            .collect();
        let failed = tree.basic_events().filter(|&e| assumptions.is_failed(e));
        let failed: Vec<NodeId> = failed.collect();
        assert!(events.len() <= 16);
        let mut failing: Vec<u32> = Vec::new();
        for mask in 0u32..(1 << events.len()) {
            let scenario = Scenario::from_events(
                tree,
                events
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &e)| e)
                    .chain(failed.iter().copied()),
            );
            if tree.fails(root, &scenario) {
                failing.push(mask);
            }
        }
        let mut minimal: Vec<u32> = Vec::new();
        for &m in &failing {
            if !failing.iter().any(|&o| o != m && o & m == o) {
                minimal.push(m);
            }
        }
        let mut out: Vec<Vec<String>> = minimal
            .iter()
            .map(|&m| {
                events
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| m >> i & 1 == 1)
                    .map(|(_, &e)| tree.name(e).to_owned())
                    .collect()
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn example7_minimal_cutsets() {
        let t = example1();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mcs = minimal_cutsets(&t, &probs, &MocusOptions::default()).unwrap();
        assert_eq!(
            mcs_names(&t, &mcs),
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
    fn matches_brute_force_on_example1() {
        let t = example1();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mcs = minimal_cutsets(&t, &probs, &MocusOptions::exhaustive()).unwrap();
        assert_eq!(mcs_names(&t, &mcs), brute_force_mcs(&t));
    }

    #[test]
    fn cutoff_prunes_low_probability_cutsets() {
        let t = example1();
        let probs = EventProbabilities::from_static(&t).unwrap();
        // 5e-6 keeps only {a,c} (9e-6); {e} is 3e-6, {a,d},{b,c} are 3e-6,
        // {b,d} is 1e-6.
        let mcs = minimal_cutsets(&t, &probs, &MocusOptions::with_cutoff(5e-6)).unwrap();
        assert_eq!(
            mcs_names(&t, &mcs),
            vec![vec!["a".to_owned(), "c".to_owned()]]
        );
    }

    #[test]
    fn max_order_keeps_only_short_cutsets() {
        let t = example1();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let opts = MocusOptions {
            max_order: Some(1),
            ..MocusOptions::exhaustive()
        };
        let mcs = minimal_cutsets(&t, &probs, &opts).unwrap();
        assert_eq!(mcs_names(&t, &mcs), vec![vec!["e".to_owned()]]);
    }

    #[test]
    fn rare_event_approximation_matches_paper_structure() {
        let t = example1();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mcs = minimal_cutsets(&t, &probs, &MocusOptions::default()).unwrap();
        let rea = mcs.rare_event_approximation(|e| probs.get(e));
        // Σ = 3e-6 + 9e-6 + 3e-6 + 3e-6 + 1e-6 = 1.9e-5
        assert!((rea - 1.9e-5).abs() < 1e-12);
        // REA over-approximates the exact probability.
        let exact = t.exact_static_probability().unwrap();
        assert!(rea >= exact);
        assert!((rea - exact) / exact < 0.01);
    }

    #[test]
    fn atleast_gate_produces_pairs() {
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.static_event("y", 0.1).unwrap();
        let z = b.static_event("z", 0.1).unwrap();
        let g = b.atleast("g", 2, [x, y, z]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mcs = minimal_cutsets(&t, &probs, &MocusOptions::exhaustive()).unwrap();
        assert_eq!(mcs.len(), 3);
        assert_eq!(mcs_names(&t, &mcs), brute_force_mcs(&t));
    }

    #[test]
    fn atleast_gate_with_cutoff_keeps_reachable_combos() {
        // The look-ahead bound must respect voting gates: 2-of-3 with
        // probabilities 0.1 has best pair 0.01.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.static_event("y", 0.1).unwrap();
        let z = b.static_event("z", 0.01).unwrap();
        let g = b.atleast("g", 2, [x, y, z]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mcs = minimal_cutsets(&t, &probs, &MocusOptions::with_cutoff(5e-3)).unwrap();
        assert_eq!(
            mcs_names(&t, &mcs),
            vec![vec!["x".to_owned(), "y".to_owned()]]
        );
    }

    #[test]
    fn shared_subtree_events_deduplicate() {
        // AND(OR(x,y), x): with x failed both hold, so {x} is the single
        // MCS.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.static_event("y", 0.1).unwrap();
        let g = b.or("g", [x, y]).unwrap();
        let top = b.and("top", [g, x]).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mcs = minimal_cutsets(&t, &probs, &MocusOptions::exhaustive()).unwrap();
        assert_eq!(mcs_names(&t, &mcs), vec![vec!["x".to_owned()]]);
        assert_eq!(mcs_names(&t, &mcs), brute_force_mcs(&t));
    }

    #[test]
    fn shared_events_with_cutoff_are_not_over_pruned() {
        // top = AND(g1, g2) with g1 = OR(x), g2 = OR(x): the only MCS is
        // {x} with probability p(x). A naive lookahead product
        // p(x)·p(x) = 1e-4 would wrongly prune it under a 1e-3 cutoff.
        // Both gates stand for x, so the top's expansion adds x once;
        // `branch_bound_keeps_an_event_a_selected_gate_shares` covers the
        // overlap rule on gates that do branch.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.01).unwrap();
        let g1 = b.or("g1", [x]).unwrap();
        let g2 = b.or("g2", [x]).unwrap();
        let top = b.and("top", [g1, g2]).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mcs = minimal_cutsets(&t, &probs, &MocusOptions::with_cutoff(1e-3)).unwrap();
        assert_eq!(mcs_names(&t, &mcs), vec![vec!["x".to_owned()]]);
    }

    #[test]
    fn branch_bound_keeps_an_event_a_selected_gate_shares() {
        // AND(OR(x, y), OR(x, z)) at cutoff 0.005: expanding OR(x, z)
        // leaves OR(x, y) pending, whose look-ahead is R = 0.02 with U =
        // {x, y}. The branch to x must count as 1, not p(x) (0.02 · 0.01
        // = 2e-4 would prune it): x may also satisfy OR(x, y), and {x}
        // (0.01) is the one cutset above the cutoff. The branches to z
        // (0.02 · 0.001) and, below x, to y (0.01 · 0.02) are pruned
        // before they are built.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.01).unwrap();
        let y = b.static_event("y", 0.02).unwrap();
        let z = b.static_event("z", 0.001).unwrap();
        let g1 = b.or("g1", [x, y]).unwrap();
        let g2 = b.or("g2", [x, z]).unwrap();
        let top = b.and("top", [g1, g2]).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let (mcs, stats) =
            minimal_cutsets_with_stats(&t, &probs, &MocusOptions::with_cutoff(0.005)).unwrap();
        assert_eq!(mcs_names(&t, &mcs), vec![vec!["x".to_owned()]]);
        // The top, its expansion, {x} with OR(x, y) pending, and the leaf.
        assert_eq!(stats.partials_processed, 4);
        assert_eq!(stats.partials_pruned, 2);
        assert_eq!(stats.cutset_candidates, 1);
    }

    /// Wraps nodes in chains of single-input gates, or passes them
    /// through unchanged, so one fixture builds a tree and its
    /// chain-free twin.
    struct Chains {
        on: bool,
        made: usize,
    }

    impl Chains {
        /// `node` under one single-input gate per kind, innermost first.
        fn wrap(&mut self, b: &mut FaultTreeBuilder, node: NodeId, kinds: &[GateKind]) -> NodeId {
            if !self.on {
                return node;
            }
            kinds.iter().fold(node, |inner, &kind| {
                self.made += 1;
                b.gate(&format!("t{}", self.made), kind, [inner]).unwrap()
            })
        }
    }

    /// A fixture: the tree, the root to expand, and the names of the
    /// events assumed failed and functional.
    type Fixture = (FaultTree, NodeId, Vec<&'static str>, Vec<&'static str>);

    /// Example 1 with chains at the root, at events, and on an AND and an
    /// `AtLeast(1)` gate.
    fn chained_example1(chains: &mut Chains) -> Fixture {
        use GateKind::{And, AtLeast, Or};
        let mut b = FaultTreeBuilder::new();
        let a = b.static_event("a", 3e-3).unwrap();
        let bb = b.static_event("b", 1e-3).unwrap();
        let c = b.static_event("c", 3e-3).unwrap();
        let d = b.static_event("d", 1e-3).unwrap();
        let e = b.static_event("e", 3e-6).unwrap();
        let a = chains.wrap(&mut b, a, &[Or]);
        let p1 = b.or("pump1", [a, bb]).unwrap();
        let p2 = b.or("pump2", [c, d]).unwrap();
        let p1 = chains.wrap(&mut b, p1, &[And]);
        let p2 = chains.wrap(&mut b, p2, &[AtLeast(1), Or]);
        let pumps = b.and("pumps", [p1, p2]).unwrap();
        let e = chains.wrap(&mut b, e, &[And, Or]);
        let top = b.or("cooling", [pumps, e]).unwrap();
        let top = chains.wrap(&mut b, top, &[Or, And, AtLeast(1)]);
        b.top(top);
        let t = b.build().unwrap();
        (t, top, vec![], vec![])
    }

    /// Two chains into one gate, under an AND and under an OR: the
    /// chain-free twin lists the gate twice.
    fn two_chains_into_one_gate(chains: &mut Chains) -> Fixture {
        use GateKind::{And, Or};
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.static_event("y", 0.02).unwrap();
        let z = b.static_event("z", 0.3).unwrap();
        let w = b.static_event("w", 0.05).unwrap();
        let g = b.or("g", [x, y]).unwrap();
        let g1 = chains.wrap(&mut b, g, &[Or]);
        let g2 = chains.wrap(&mut b, g, &[And, Or]);
        let both = b.and("both", [g1, z, g2]).unwrap();
        let g3 = chains.wrap(&mut b, g, &[And]);
        let g4 = chains.wrap(&mut b, g, &[Or, Or]);
        let either = b.or("either", [g3, g4]).unwrap();
        let pair = b.and("pair", [either, w]).unwrap();
        let top = b.or("top", [both, pair]).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        (t, top, vec![], vec![])
    }

    /// Events behind chains under assumptions, in a run rooted below the
    /// top: an OR whose chained input is assumed failed is satisfied, a
    /// chained input assumed functional is skipped, and a voting gate
    /// lowers its threshold for a chained failed input.
    fn chained_assumptions(
        failed: Vec<&'static str>,
        ok: Vec<&'static str>,
    ) -> impl Fn(&mut Chains) -> Fixture {
        move |chains| {
            use GateKind::{And, Or};
            let mut b = FaultTreeBuilder::new();
            let x = b.static_event("x", 0.1).unwrap();
            let y = b.static_event("y", 0.2).unwrap();
            let z = b.static_event("z", 0.3).unwrap();
            let v = b.static_event("v", 0.05).unwrap();
            let u = b.static_event("u", 0.4).unwrap();
            let y = chains.wrap(&mut b, y, &[Or, And]);
            let z = chains.wrap(&mut b, z, &[And]);
            let g = b.or("g", [y, z]).unwrap();
            let v = chains.wrap(&mut b, v, &[Or]);
            let vote = b.atleast("vote", 2, [v, x, u]).unwrap();
            let inner = b.and("inner", [x, g]).unwrap();
            let root = b.or("root", [inner, vote]).unwrap();
            let root = chains.wrap(&mut b, root, &[And]);
            let w = b.static_event("w", 0.5).unwrap();
            let top = b.and("top", [root, w]).unwrap();
            b.top(top);
            let t = b.build().unwrap();
            (t, root, failed.clone(), ok.clone())
        }
    }

    /// A run of the fixture's root: its cutsets by name and its
    /// counters, minimize time aside.
    fn run_fixture(fixture: &Fixture, options: &MocusOptions) -> (Vec<Vec<String>>, MocusStats) {
        let (t, root, failed, ok) = fixture;
        let probs = EventProbabilities::from_static(t).unwrap();
        let mut assume = Assumptions::new(t);
        for name in failed {
            assume.assume_failed(t.node_by_name(name).unwrap()).unwrap();
        }
        for name in ok {
            assume.assume_ok(t.node_by_name(name).unwrap()).unwrap();
        }
        let (mcs, stats) =
            minimal_cutsets_rooted_with_stats(t, *root, &probs, options, &assume).unwrap();
        let stats = MocusStats {
            minimize_time: std::time::Duration::ZERO,
            ..stats
        };
        if options.cutoff.is_none() {
            assert_eq!(mcs_names(t, &mcs), brute_force_rooted(t, *root, &assume));
        }
        (mcs_names(t, &mcs), stats)
    }

    #[test]
    fn transfer_gates_change_neither_cutsets_nor_counters() {
        type Build = Box<dyn Fn(&mut Chains) -> Fixture>;
        let fixtures: Vec<Build> = vec![
            Box::new(chained_example1),
            Box::new(two_chains_into_one_gate),
            Box::new(chained_assumptions(vec![], vec![])),
            Box::new(chained_assumptions(vec!["y"], vec![])),
            Box::new(chained_assumptions(vec!["v"], vec!["z"])),
            Box::new(chained_assumptions(vec![], vec!["y", "z", "v"])),
        ];
        for (i, fixture) in fixtures.iter().enumerate() {
            let mut chains = Chains { on: true, made: 0 };
            let chained = fixture(&mut chains);
            assert!(chains.made > 0);
            let plain = fixture(&mut Chains { on: false, made: 0 });
            for options in [
                MocusOptions::exhaustive(),
                MocusOptions::with_cutoff(1e-3),
                MocusOptions::with_cutoff(2e-6),
            ] {
                let (chained_mcs, chained_stats) = run_fixture(&chained, &options);
                let (plain_mcs, plain_stats) = run_fixture(&plain, &options);
                let case = format!("fixture {i}, cutoff {:?}", options.cutoff);
                assert_eq!(chained_mcs, plain_mcs, "{case}");
                assert_eq!(chained_stats, plain_stats, "{case}");
            }
        }
    }

    #[test]
    fn lookahead_prunes_unreachable_branches() {
        // AND of two independent pairs: every cutset has probability
        // 1e-4 · 1e-4 = 1e-8; a 1e-6 cutoff keeps nothing, and the bound
        // must discover this before expanding the whole product.
        let mut b = FaultTreeBuilder::new();
        let x1 = b.static_event("x1", 1e-4).unwrap();
        let x2 = b.static_event("x2", 1e-4).unwrap();
        let y1 = b.static_event("y1", 1e-4).unwrap();
        let y2 = b.static_event("y2", 1e-4).unwrap();
        let g1 = b.or("g1", [x1, x2]).unwrap();
        let g2 = b.or("g2", [y1, y2]).unwrap();
        let top = b.and("top", [g1, g2]).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let opts = MocusOptions {
            max_partials: 3,
            ..MocusOptions::with_cutoff(1e-6)
        };
        // With the bound, the initial partial dies immediately — well
        // within the tiny partial budget.
        let mcs = minimal_cutsets(&t, &probs, &opts).unwrap();
        assert!(mcs.is_empty());
    }

    #[test]
    fn assumptions_restrict_the_function() {
        // AND(x, OR(y, z)): assuming y failed leaves {x}; assuming y and z
        // functional leaves nothing.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.static_event("y", 0.1).unwrap();
        let z = b.static_event("z", 0.1).unwrap();
        let g = b.or("g", [y, z]).unwrap();
        let top = b.and("top", [x, g]).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();

        let mut assume = Assumptions::new(&t);
        assume.assume_failed(y).unwrap();
        let mcs = minimal_cutsets_rooted(&t, t.top(), &probs, &MocusOptions::exhaustive(), &assume)
            .unwrap();
        assert_eq!(mcs_names(&t, &mcs), vec![vec!["x".to_owned()]]);

        let mut assume = Assumptions::new(&t);
        assume.assume_ok(y).unwrap();
        assume.assume_ok(z).unwrap();
        let mcs = minimal_cutsets_rooted(&t, t.top(), &probs, &MocusOptions::exhaustive(), &assume)
            .unwrap();
        assert!(mcs.is_empty());
    }

    #[test]
    fn assumptions_on_atleast_adjust_threshold() {
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.static_event("y", 0.1).unwrap();
        let z = b.static_event("z", 0.1).unwrap();
        let g = b.atleast("g", 2, [x, y, z]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();

        let mut assume = Assumptions::new(&t);
        assume.assume_failed(x).unwrap();
        let mcs = minimal_cutsets_rooted(&t, t.top(), &probs, &MocusOptions::exhaustive(), &assume)
            .unwrap();
        // One more failure suffices.
        assert_eq!(
            mcs_names(&t, &mcs),
            vec![vec!["y".to_owned()], vec!["z".to_owned()]]
        );

        let mut assume = Assumptions::new(&t);
        assume.assume_ok(x).unwrap();
        assume.assume_ok(y).unwrap();
        let mcs = minimal_cutsets_rooted(&t, t.top(), &probs, &MocusOptions::exhaustive(), &assume)
            .unwrap();
        // 2-of-3 with two inputs functional can never fail.
        assert!(mcs.is_empty());
    }

    #[test]
    fn rooted_generation_works_on_gates_and_events() {
        let t = example1();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let p1 = t.node_by_name("pump1").unwrap();
        let mcs = minimal_cutsets_rooted(
            &t,
            p1,
            &probs,
            &MocusOptions::exhaustive(),
            &Assumptions::new(&t),
        )
        .unwrap();
        assert_eq!(
            mcs_names(&t, &mcs),
            vec![vec!["a".to_owned()], vec!["b".to_owned()]]
        );
        // An event root yields the singleton cutset.
        let a = t.node_by_name("a").unwrap();
        let mcs = minimal_cutsets_rooted(
            &t,
            a,
            &probs,
            &MocusOptions::exhaustive(),
            &Assumptions::new(&t),
        )
        .unwrap();
        assert_eq!(mcs.len(), 1);
        assert_eq!(mcs.get(0).unwrap().events(), &[a]);
        // An assumed-failed event root yields the empty cutset.
        let mut assume = Assumptions::new(&t);
        assume.assume_failed(a).unwrap();
        let mcs =
            minimal_cutsets_rooted(&t, a, &probs, &MocusOptions::exhaustive(), &assume).unwrap();
        assert_eq!(mcs.len(), 1);
        assert!(mcs.get(0).unwrap().is_empty());
    }

    #[test]
    fn conflicting_assumptions_are_rejected() {
        let t = example1();
        let x = t.node_by_name("a").unwrap();
        let mut assume = Assumptions::new(&t);
        assume.assume_failed(x).unwrap();
        assert!(matches!(
            assume.assume_ok(x),
            Err(MocusError::ConflictingAssumption { .. })
        ));
    }

    #[test]
    fn assumptions_on_gates_are_rejected() {
        let t = example1();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let g = t.node_by_name("pumps").unwrap();
        let mut assume = Assumptions::new(&t);
        assume.assume_failed(g).unwrap(); // not validated until use
        assert!(matches!(
            minimal_cutsets_rooted(&t, t.top(), &probs, &MocusOptions::default(), &assume),
            Err(MocusError::AssumptionOnGate { .. })
        ));
    }

    #[test]
    fn rejects_invalid_cutoff_and_enforces_budgets() {
        let t = example1();
        let probs = EventProbabilities::from_static(&t).unwrap();
        assert!(matches!(
            minimal_cutsets(&t, &probs, &MocusOptions::with_cutoff(f64::NAN)),
            Err(MocusError::InvalidCutoff { .. })
        ));
        let opts = MocusOptions {
            max_partials: 2,
            ..MocusOptions::exhaustive()
        };
        assert!(matches!(
            minimal_cutsets(&t, &probs, &opts),
            Err(MocusError::TooManyPartials { limit: 2 })
        ));
        let opts = MocusOptions {
            max_cutsets: 1,
            ..MocusOptions::exhaustive()
        };
        assert!(matches!(
            minimal_cutsets(&t, &probs, &opts),
            Err(MocusError::TooManyCutsets { limit: 1 })
        ));
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(60, 30), 118_264_581_564_861_424);
    }

    #[test]
    fn binomial_overflow_is_conservative() {
        // C(140, 70) ≈ 9.4·10⁴⁰ exceeds u128; the count must saturate to
        // u128::MAX so the `max_combinations` budget fires, rather than
        // silently under-reporting through `saturating_mul` + division.
        assert_eq!(binomial(140, 70), u128::MAX);
        // Intermediate overflow is also conservative: C(130, 65) fits in
        // u128 but its incremental product does not, and over-reporting
        // only makes the budget trip earlier.
        assert_eq!(binomial(130, 65), u128::MAX);
        // Large values that never overflow stay exact.
        assert_eq!(binomial(100, 3), 161_700);
    }

    #[test]
    fn deep_and_chain_produces_single_cutset() {
        let mut b = FaultTreeBuilder::new();
        let mut inputs = Vec::new();
        for i in 0..50 {
            inputs.push(b.static_event(&format!("e{i}"), 0.5).unwrap());
        }
        let mut gate = b.and("g0", [inputs[0], inputs[1]]).unwrap();
        for (i, &e) in inputs.iter().enumerate().skip(2) {
            gate = b.and(&format!("g{}", i - 1), [gate, e]).unwrap();
        }
        b.top(gate);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let mcs = minimal_cutsets(&t, &probs, &MocusOptions::exhaustive()).unwrap();
        assert_eq!(mcs.len(), 1);
        assert_eq!(mcs.get(0).unwrap().order(), 50);
    }

    /// A moderately wide tree with shared events and an at-least gate.
    fn wide_tree() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let mut lines = Vec::new();
        let shared = b.static_event("shared", 0.02).unwrap();
        for i in 0..6 {
            let x = b.static_event(&format!("x{i}"), 0.01).unwrap();
            let y = b.static_event(&format!("y{i}"), 0.02).unwrap();
            let z = b.static_event(&format!("z{i}"), 0.03).unwrap();
            let inner = b.or(&format!("or{i}"), [x, y]).unwrap();
            lines.push(b.and(&format!("line{i}"), [inner, z]).unwrap());
        }
        let vote_a = b.static_event("va", 0.1).unwrap();
        let vote_b = b.static_event("vb", 0.1).unwrap();
        let vote_c = b.static_event("vc", 0.1).unwrap();
        let vote = b.atleast("vote", 2, [vote_a, vote_b, vote_c]).unwrap();
        lines.push(vote);
        lines.push(shared);
        let top = b.or("top", lines).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    /// An AND of three ORs over a likely and an unlikely event each.
    fn and_of_pairs() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let mut pairs = Vec::new();
        for i in 0..3 {
            let x = b.static_event(&format!("x{i}"), 1e-2).unwrap();
            let y = b.static_event(&format!("y{i}"), 1e-3).unwrap();
            pairs.push(b.or(&format!("g{i}"), [x, y]).unwrap());
        }
        let top = b.and("top", pairs).unwrap();
        b.top(top);
        b.build().unwrap()
    }

    #[test]
    fn stats_count_the_run() {
        let t = wide_tree();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let (mcs, stats) =
            minimal_cutsets_with_stats(&t, &probs, &MocusOptions::exhaustive()).unwrap();
        assert!(stats.partials_processed > 0);
        assert!(stats.cutset_candidates as usize >= mcs.len());
        assert!(stats.subsumption_comparisons > 0);
    }

    #[test]
    fn cutoff_runs_keep_exactly_the_exhaustive_cutsets_above_the_cutoff() {
        // No cutoff value sits on a cutset probability, so the rounding
        // of the two products cannot decide a verdict.
        for (t, cutoffs) in [(and_of_pairs(), [5e-8, 5e-9]), (wide_tree(), [4e-4, 1e-3])] {
            let probs = EventProbabilities::from_static(&t).unwrap();
            let exhaustive = minimal_cutsets(&t, &probs, &MocusOptions::exhaustive()).unwrap();
            for cutoff in cutoffs {
                let (kept, stats) =
                    minimal_cutsets_with_stats(&t, &probs, &MocusOptions::with_cutoff(cutoff))
                        .unwrap();
                let above: Vec<&Cutset> = exhaustive
                    .iter()
                    .filter(|c| c.probability_with(|e| probs.get(e)) > cutoff)
                    .collect();
                assert!(!above.is_empty() && above.len() < exhaustive.len());
                assert_eq!(kept.iter().collect::<Vec<_>>(), above, "cutoff {cutoff}");
                assert!(stats.partials_pruned > 0, "cutoff {cutoff}");
            }
        }
    }

    #[test]
    fn lookahead_prunes_the_root_of_a_hopeless_product() {
        // A wide AND of improbable ORs: every cutset has probability
        // 1e-16 < 1e-12, and the bound discards the root before any
        // expansion.
        let mut b = FaultTreeBuilder::new();
        let mut gates = Vec::new();
        for i in 0..4 {
            let inputs: Vec<_> = (0..8)
                .map(|j| b.static_event(&format!("e{i}_{j}"), 1e-4).unwrap())
                .collect();
            gates.push(b.or(&format!("g{i}"), inputs).unwrap());
        }
        let top = b.and("top", gates).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let probs = EventProbabilities::from_static(&t).unwrap();
        let tight = MocusOptions {
            max_partials: 5,
            ..MocusOptions::with_cutoff(1e-12)
        };
        let (mcs, stats) = minimal_cutsets_with_stats(&t, &probs, &tight).unwrap();
        assert!(mcs.is_empty());
        assert_eq!(stats.partials_processed, 0);
        assert_eq!(stats.partials_pruned, 1);
    }
}
