use crate::error::ProductError;
use sdft_ctmc::{Ctmc, CtmcBuilder, CtmcRows, Mode};
use sdft_ft::{Behavior, FaultTree, FxHasher, GateKind, NodeId};
use std::hash::Hasher;

/// Options for product chain construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProductOptions {
    /// Abort once the explored product state space exceeds this size.
    pub max_states: usize,
}

impl Default for ProductOptions {
    fn default() -> Self {
        ProductOptions {
            max_states: 2_000_000,
        }
    }
}

/// The product Markov chain `C_FT` of an SD fault tree (§III-C).
#[derive(Debug, Clone)]
pub struct ProductChain {
    chain: Ctmc,
    /// The product states in state order, `model.words` packed words each.
    states: Vec<u64>,
    /// The compiled tree the states were explored from.
    model: Model,
}

impl ProductChain {
    /// Build the product chain of `tree`.
    ///
    /// # Errors
    ///
    /// Returns an error if the explored state space exceeds
    /// `options.max_states`, or a component chain has more than
    /// `u16::MAX` states.
    pub fn build(tree: &FaultTree, options: &ProductOptions) -> Result<Self, ProductError> {
        let model = Model::new(tree)?;
        let (chain, states) = model.explore(options)?;
        Ok(ProductChain {
            chain,
            states,
            model,
        })
    }

    /// The underlying CTMC (initial distribution, rates, failed states).
    #[must_use]
    pub fn chain(&self) -> &Ctmc {
        &self.chain
    }

    /// Number of (consistent, reachable) product states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.chain.len()
    }

    /// The basic events tracked per state, in slot order.
    #[must_use]
    pub fn events(&self) -> &[NodeId] {
        &self.model.events
    }

    /// The component states of product state `i`, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn component_states(&self, i: usize) -> Vec<u16> {
        let key = self.key(i);
        self.model
            .slots
            .iter()
            .map(|slot| u16::try_from(slot.get(key)).expect("component states fit u16"))
            .collect()
    }

    /// Find a product state by its component states.
    #[must_use]
    pub fn find_state(&self, components: &[u16]) -> Option<usize> {
        let slots = &self.model.slots;
        if components.len() != slots.len() {
            return None;
        }
        let mut key = vec![0; self.model.words];
        for (slot, &s) in slots.iter().zip(components) {
            if usize::from(s) >= slot.len {
                return None;
            }
            slot.set(&mut key, usize::from(s));
        }
        self.states
            .chunks_exact(self.model.words)
            .position(|state| state == key.as_slice())
    }

    /// The packed key of product state `i`.
    fn key(&self, i: usize) -> &[u64] {
        let words = self.model.words;
        &self.states[i * words..(i + 1) * words]
    }

    /// `Pr[Reach≤t(F)]` — the failure probability of the tree within the
    /// horizon `t` (§III-C2).
    ///
    /// # Errors
    ///
    /// Returns an error if `t` or `epsilon` is invalid.
    pub fn failure_probability(&self, t: f64, epsilon: f64) -> Result<f64, ProductError> {
        Ok(self.chain.reach_failed_probability(t, epsilon)?)
    }

    /// `Pr[Reach≤t(F)]` at several horizons from one uniformization pass
    /// (see [`sdft_ctmc::reach_probability_many`]); results follow the
    /// order of `horizons`.
    ///
    /// # Errors
    ///
    /// Returns an error if `horizons` is empty or contains an invalid
    /// value.
    pub fn failure_probability_many(
        &self,
        horizons: &[f64],
        epsilon: f64,
    ) -> Result<Vec<f64>, ProductError> {
        Ok(sdft_ctmc::reach_probability_many(
            &self.chain,
            horizons,
            epsilon,
        )?)
    }

    /// [`failure_probability_many`](Self::failure_probability_many) with
    /// explicit solver options and a reusable kernel workspace; also
    /// returns the solve's kernel statistics. This is the hot path used
    /// by `sdft-core`'s quantification: one workspace per worker thread
    /// amortizes all solver allocations across equivalence classes.
    ///
    /// # Errors
    ///
    /// Returns an error if `horizons` is empty or contains an invalid
    /// value.
    pub fn failure_probability_many_with(
        &self,
        horizons: &[f64],
        epsilon: f64,
        options: &sdft_ctmc::SolverOptions,
        workspace: &mut sdft_ctmc::SolverWorkspace,
    ) -> Result<(Vec<f64>, sdft_ctmc::SolveStats), ProductError> {
        Ok(sdft_ctmc::reach_probability_many_with(
            &self.chain,
            horizons,
            epsilon,
            options,
            workspace,
        )?)
    }

    /// The steady-state unavailability of the tree: the long-run
    /// probability that the top gate is failed. Only meaningful for
    /// repairable models (without repairs every failure is absorbing and
    /// the value tends to 1 whenever failure is reachable).
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying power iteration does not
    /// converge.
    pub fn steady_state_unavailability(
        &self,
        options: &sdft_ctmc::StationaryOptions,
    ) -> Result<f64, ProductError> {
        Ok(self.chain.steady_state_unavailability(options)?)
    }

    /// Per product state: whether every event of `events` is failed in it.
    ///
    /// # Panics
    ///
    /// Panics if an id in `events` is not a basic event of the tree.
    fn events_failed(&self, events: &[NodeId]) -> Vec<bool> {
        let slots: Vec<&Slot> = events
            .iter()
            .map(|e| {
                let i = self
                    .model
                    .events
                    .iter()
                    .position(|x| x == e)
                    .expect("event is a basic event of the tree");
                &self.model.slots[i]
            })
            .collect();
        (0..self.num_states())
            .map(|s| {
                let key = self.key(s);
                slots
                    .iter()
                    .all(|slot| self.model.locals[slot.base + slot.get(key)].failed)
            })
            .collect()
    }

    /// `Pr[Reach≤t(Failed(C))]` — the probability that all of `events`
    /// are failed *simultaneously* at some time within `t` (§V,
    /// property i of the SD cutset characterization). This is the exact
    /// reference value for the per-cutset quantification `p̃(C)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `t` or `epsilon` is invalid.
    ///
    /// # Panics
    ///
    /// Panics if an id in `events` is not a basic event of the tree.
    pub fn reach_events_failed_probability(
        &self,
        events: &[NodeId],
        t: f64,
        epsilon: f64,
    ) -> Result<f64, ProductError> {
        let n = self.num_states();
        let mut builder = CtmcBuilder::new(n);
        for (s, p) in self.chain.initial_distribution().iter().enumerate() {
            if *p > 0.0 {
                builder.initial(s, *p);
            }
        }
        for s in 0..n {
            for &(to, rate) in self.chain.transitions_from(s) {
                builder.rate(s, to, rate);
            }
        }
        for (s, failed) in self.events_failed(events).into_iter().enumerate() {
            if failed {
                builder.failed(s);
            }
        }
        Ok(builder.build()?.reach_failed_probability(t, epsilon)?)
    }

    /// Split `Pr[Reach≤t(Failed(C))]` by the event whose transition
    /// *completes* the simultaneous failure — a quantitative take on the
    /// *minimal cut sequences* of the related literature (cutsets plus
    /// temporal order information).
    ///
    /// The completing event is the basic event whose stochastic
    /// transition enters `Failed(C)`; note it can lie *outside* the
    /// cutset, when its failure fires a trigger that switches a
    /// latent-failed chain on. Mass already in `Failed(C)` at time zero
    /// is reported separately.
    ///
    /// The chain's merged rows do not say which event drives a
    /// transition, so this re-explores each state's evolution steps,
    /// which do.
    ///
    /// # Errors
    ///
    /// Returns an error if `t` or `epsilon` is invalid.
    ///
    /// # Panics
    ///
    /// Panics if an id in `events` is not a basic event of the tree.
    pub fn completion_by_event(
        &self,
        events: &[NodeId],
        t: f64,
        epsilon: f64,
    ) -> Result<CompletionSplit, ProductError> {
        let n = self.num_states();
        let in_failed = self.events_failed(events);

        // States 0..n as-is; n..n+m are per-slot completion sinks.
        let mut builder = CtmcBuilder::new(n + self.model.events.len());
        for (s, p) in self.chain.initial_distribution().iter().enumerate() {
            if *p > 0.0 {
                builder.initial(s, *p);
            }
        }
        let index = StateIndex::over(self.model.words, &self.states);
        let mut scratch = Scratch::new(&self.model);
        for from in (0..n).filter(|&s| !in_failed[s]) {
            self.model.evaluate(self.key(from), &mut scratch);
            self.model
                .successors(self.key(from), &mut scratch, |slot, next, rate| {
                    let to = index
                        .probe(next, &self.states)
                        .expect("successors of explored states were explored");
                    if in_failed[to] {
                        builder.rate(from, n + slot, rate);
                    } else {
                        builder.rate(from, to, rate);
                    }
                    Ok(())
                })?;
        }
        let absorbed = builder.build()?;
        let pi = sdft_ctmc::transient_distribution(&absorbed, t, epsilon)?;

        let initial: f64 = (0..n).filter(|&s| in_failed[s]).map(|s| pi[s]).sum();
        let by_event: Vec<(NodeId, f64)> = self
            .model
            .events
            .iter()
            .enumerate()
            .map(|(slot, &event)| (event, pi[n + slot]))
            .filter(|&(_, p)| p > 0.0)
            .collect();
        let total = initial + by_event.iter().map(|&(_, p)| p).sum::<f64>();
        Ok(CompletionSplit {
            initial,
            by_event,
            total,
        })
    }
}

/// The result of [`ProductChain::completion_by_event`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionSplit {
    /// Probability that the cutset is already failed at time zero.
    pub initial: f64,
    /// Probability of completing via each event's transition (events with
    /// zero contribution are omitted).
    pub by_event: Vec<(NodeId, f64)>,
    /// `initial` plus all event contributions — equals
    /// `Pr[Reach≤t(Failed(C))]`.
    pub total: f64,
}

/// Convenience wrapper: build the product chain of `tree` and compute its
/// failure probability at horizon `t` with truncation error `1e-12`.
///
/// # Errors
///
/// Returns an error if the state space exceeds the budget or the horizon
/// is invalid.
pub fn failure_probability(
    tree: &FaultTree,
    t: f64,
    options: &ProductOptions,
) -> Result<f64, ProductError> {
    ProductChain::build(tree, options)?.failure_probability(t, sdft_ctmc::DEFAULT_EPSILON)
}

fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

fn set_bit(words: &mut [u64], i: usize, value: bool) {
    let mask = 1u64 << (i % 64);
    if value {
        words[i / 64] |= mask;
    } else {
        words[i / 64] &= !mask;
    }
}

/// A tree compiled for exploration. Product states are packed keys:
/// each basic event (slot) owns a bit field wide enough for its
/// component states. Fields fill each word from the most significant
/// bit down, in slot order, so comparing keys word by word orders them
/// like their component-state vectors.
#[derive(Debug, Clone)]
struct Model {
    /// `u64` words per packed product state.
    words: usize,
    /// Slot order: the basic events of the tree, in id order.
    events: Vec<NodeId>,
    slots: Vec<Slot>,
    /// The component states of every slot, slot after slot.
    locals: Vec<Local>,
    /// The component transitions `(target, rate)` of every local state.
    moves: Vec<(u16, f64)>,
    /// Each triggered event's slot and its triggering gate's bit.
    triggered: Vec<(usize, usize)>,
    program: Program,
}

/// One slot's bit field and component chain.
#[derive(Debug, Clone)]
struct Slot {
    word: usize,
    shift: u32,
    mask: u64,
    /// Index of component state 0 in [`Model::locals`].
    base: usize,
    /// Number of component states.
    len: usize,
    /// Whether the event lies in the cone of some triggering gate.
    feeds_trigger: bool,
}

impl Slot {
    fn get(&self, key: &[u64]) -> usize {
        ((key[self.word] >> self.shift) & self.mask) as usize
    }

    fn set(&self, key: &mut [u64], state: usize) {
        let word = &mut key[self.word];
        *word = (*word & !(self.mask << self.shift)) | ((state as u64) << self.shift);
    }
}

/// One component state of one slot.
#[derive(Debug, Clone, Copy)]
struct Local {
    failed: bool,
    initial: f64,
    /// The mode of a triggered event's state; `None` for other events.
    mode: Option<Mode>,
    /// The state a mode switch enters: `on` of an off state, `off` of an
    /// on state.
    switch: u16,
    /// This state's transitions: `Model::moves[moves.0..moves.1]`.
    moves: (usize, usize),
}

impl Model {
    fn new(tree: &FaultTree) -> Result<Model, ProductError> {
        let mut slot_of = vec![usize::MAX; tree.len()];
        let mut events = Vec::new();
        let mut slots = Vec::new();
        let mut locals = Vec::new();
        let mut moves = Vec::new();
        let (mut word, mut free) = (0, u64::BITS);
        for (i, event) in tree.basic_events().enumerate() {
            slot_of[event.index()] = i;
            events.push(event);
            let base = locals.len();
            let (chain, triggered) = match tree.behavior(event).expect("basic event") {
                Behavior::Static { probability } => {
                    for (failed, initial) in [(false, 1.0 - probability), (true, *probability)] {
                        locals.push(Local {
                            failed,
                            initial,
                            mode: None,
                            switch: 0,
                            moves: (0, 0),
                        });
                    }
                    (None, None)
                }
                Behavior::Dynamic(chain) => (Some(chain), None),
                Behavior::Triggered(chain) => (Some(chain.chain()), Some(chain)),
            };
            if let Some(chain) = chain {
                // Component states are packed into at most 16 bits; a
                // larger chain would exceed any product budget anyway.
                if chain.len() > usize::from(u16::MAX) {
                    return Err(ProductError::TooManyStates {
                        limit: usize::from(u16::MAX),
                    });
                }
                for s in 0..chain.len() {
                    let (mode, switch) = match triggered {
                        Some(t) if t.mode(s) == Mode::Off => (Some(Mode::Off), t.on_of(s)),
                        Some(t) => (Some(Mode::On), t.off_of(s)),
                        None => (None, s),
                    };
                    let begin = moves.len();
                    moves.extend(
                        chain
                            .transitions_from(s)
                            .iter()
                            .map(|&(to, rate)| (to as u16, rate)),
                    );
                    locals.push(Local {
                        failed: chain.is_failed(s),
                        initial: chain.initial_probability(s),
                        mode,
                        switch: switch as u16,
                        moves: (begin, moves.len()),
                    });
                }
            }
            let len = locals.len() - base;
            let width = (usize::BITS - (len - 1).leading_zeros()).max(1);
            if width > free {
                word += 1;
                free = u64::BITS;
            }
            free -= width;
            slots.push(Slot {
                word,
                shift: free,
                mask: (1 << width) - 1,
                base,
                len,
                feeds_trigger: false,
            });
        }
        let (program, bit_of) = Program::compile(tree, &slot_of);
        for op in &program.ops[..program.update_len] {
            for term in &program.terms[op.terms.0..op.terms.1] {
                if !term.on_gates {
                    for slot in (0..64).filter(|b| term.mask >> b & 1 == 1) {
                        slots[term.word * 64 + slot].feeds_trigger = true;
                    }
                }
            }
        }
        let triggered = events
            .iter()
            .enumerate()
            .filter_map(|(i, &e)| tree.trigger_source(e).map(|g| (i, bit_of[g.index()])))
            .collect();
        Ok(Model {
            words: word + 1,
            events,
            slots,
            locals,
            moves,
            triggered,
            program,
        })
    }

    fn local(&self, slot: &Slot, key: &[u64]) -> &Local {
        &self.locals[slot.base + slot.get(key)]
    }

    /// Fill `failed` with the failed flags of `key`'s slots.
    fn failed_into(&self, key: &[u64], failed: &mut [u64]) {
        failed.fill(0);
        for (i, slot) in self.slots.iter().enumerate() {
            if self.local(slot, key).failed {
                failed[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// Fill `scratch.failed` with `key`'s failed slots and return
    /// whether the top gate fails in `key`.
    fn evaluate(&self, key: &[u64], scratch: &mut Scratch) -> bool {
        self.failed_into(key, &mut scratch.failed);
        let program = &self.program;
        program.eval(&scratch.failed, &mut scratch.gates, program.ops.len());
        bit(&scratch.gates, program.top)
    }

    /// Apply trigger updates to `key` until it is consistent
    /// (§III-C1b); `failed` holds `key`'s failed slots and follows the
    /// switches. Every switch of a pass comes from one evaluation of the
    /// triggering gates. Acyclicity of the triggering structure bounds
    /// the number of passes by the number of triggered events (a switched
    /// component can enable at most a strictly "later" trigger in the
    /// acyclic order).
    fn update(
        &self,
        key: &mut [u64],
        failed: &mut [u64],
        gates: &mut [u64],
    ) -> Result<(), ProductError> {
        for _ in 0..self.slots.len() + 2 {
            self.program.eval(failed, gates, self.program.update_len);
            let mut changed = false;
            for &(i, gate) in &self.triggered {
                let slot = &self.slots[i];
                let local = self.local(slot, key);
                if bit(gates, gate) != (local.mode == Some(Mode::On)) {
                    let to = usize::from(local.switch);
                    slot.set(key, to);
                    set_bit(failed, i, self.locals[slot.base + to].failed);
                    changed = true;
                }
            }
            if !changed {
                return Ok(());
            }
        }
        Err(ProductError::UpdateDiverged)
    }

    /// Visit every evolution step out of the consistent state `key`,
    /// closed under trigger updates: the moving slot, the consistent
    /// successor and the rate, in slot order and, per slot, in the order
    /// of the component chain's row.
    ///
    /// A step skips the update when the moving component keeps its mode
    /// and either keeps its failed flag or feeds no triggering gate: no
    /// triggering gate can change value then, so every component still
    /// agrees with its trigger and the update would stop after one pass.
    ///
    /// `scratch.failed` must hold `key`'s failed slots, as
    /// [`Model::evaluate`] leaves them.
    fn successors(
        &self,
        key: &[u64],
        scratch: &mut Scratch,
        mut visit: impl FnMut(usize, &[u64], f64) -> Result<(), ProductError>,
    ) -> Result<(), ProductError> {
        for (i, slot) in self.slots.iter().enumerate() {
            let from = self.local(slot, key);
            for &(to, rate) in &self.moves[from.moves.0..from.moves.1] {
                let to = usize::from(to);
                let target = &self.locals[slot.base + to];
                // Element loops rather than `copy_from_slice` and `==`
                // here and in `StateIndex::probe`: keys are mostly one
                // word, and a `memcpy` or `bcmp` call per step cost about
                // a tenth of the build on BWR's models.
                for (d, &w) in scratch.next.iter_mut().zip(key) {
                    *d = w;
                }
                slot.set(&mut scratch.next, to);
                let quiet = target.failed == from.failed || !slot.feeds_trigger;
                if target.mode != from.mode || !quiet {
                    for (d, &w) in scratch.next_failed.iter_mut().zip(&scratch.failed) {
                        *d = w;
                    }
                    set_bit(&mut scratch.next_failed, i, target.failed);
                    self.update(
                        &mut scratch.next,
                        &mut scratch.next_failed,
                        &mut scratch.gates,
                    )?;
                }
                visit(i, &scratch.next, rate)?;
            }
        }
        Ok(())
    }

    /// Explore the consistent states reachable from the initial support
    /// breadth-first, numbering them in discovery order and writing each
    /// state's row as it is expanded.
    fn explore(&self, options: &ProductOptions) -> Result<(Ctmc, Vec<u64>), ProductError> {
        let words = self.words;
        let mut scratch = Scratch::new(self);

        // The support of the initial product distribution, enumerated
        // slot by slot.
        let mut keys = vec![0; words];
        let mut probs = vec![1.0];
        for slot in &self.slots {
            let mut next_keys = Vec::new();
            let mut next_probs = Vec::new();
            for (prefix, &p) in keys.chunks_exact(words).zip(&probs) {
                for s in 0..slot.len {
                    let ps = self.locals[slot.base + s].initial;
                    if ps > 0.0 {
                        let at = next_keys.len();
                        next_keys.extend_from_slice(prefix);
                        slot.set(&mut next_keys[at..], s);
                        next_probs.push(p * ps);
                    }
                }
            }
            (keys, probs) = (next_keys, next_probs);
            if probs.len() > options.max_states {
                return Err(ProductError::TooManyStates {
                    limit: options.max_states,
                });
            }
        }
        // Update each initial combination into its consistent state and
        // merge probabilities (the initial-distribution rule of §III-C1).
        // The merged states are numbered in key order, which does not
        // depend on hashing: state order decides float summation order
        // throughout the transient analysis, so bitwise reproducibility
        // hangs on it. The stable sort adds merged probabilities in
        // enumeration order.
        for key in keys.chunks_exact_mut(words) {
            self.failed_into(key, &mut scratch.failed);
            self.update(key, &mut scratch.failed, &mut scratch.gates)?;
        }
        let key_at = |i: usize| &keys[i * words..][..words];
        let mut order: Vec<usize> = (0..probs.len()).collect();
        order.sort_by(|&a, &b| key_at(a).cmp(key_at(b)));
        let mut states = Vec::new();
        let mut index = StateIndex::over(words, &states);
        let mut initial: Vec<f64> = Vec::new();
        for i in order {
            let s = index.insert(key_at(i), &mut states, options.max_states)?;
            if s == initial.len() {
                initial.push(0.0);
            }
            initial[s] += probs[i];
        }

        // Breadth-first: state `from` is expanded when the rows of all
        // earlier states are written, so rows come out in state order.
        let mut rows = CtmcRows::new();
        let mut failed = Vec::new();
        let mut key = vec![0; words];
        while rows.rows() < index.len {
            let from = rows.rows();
            key.copy_from_slice(&states[from * words..][..words]);
            failed.push(self.evaluate(&key, &mut scratch));
            self.successors(&key, &mut scratch, |_, next, rate| {
                let to = index.insert(next, &mut states, options.max_states)?;
                rows.rate(to, rate);
                Ok(())
            })?;
            rows.end_row();
        }
        initial.resize(index.len, 0.0);
        Ok((rows.build(initial, failed)?, states))
    }
}

/// Reusable buffers of one exploration: the successor under
/// construction, failed-slot bitsets and the gate values.
struct Scratch {
    next: Vec<u64>,
    failed: Vec<u64>,
    next_failed: Vec<u64>,
    gates: Vec<u64>,
}

impl Scratch {
    fn new(model: &Model) -> Self {
        let failed_words = model.slots.len().div_ceil(64).max(1);
        Scratch {
            next: vec![0; model.words],
            failed: vec![0; failed_words],
            next_failed: vec![0; failed_words],
            gates: vec![0; model.program.ops.len().div_ceil(64).max(1)],
        }
    }
}

/// The gates a product build reads, compiled once into bit tests over a
/// failed-slot bitset and a gate-value bitset. Gate `i` of `ops` writes
/// gate bit `i`. The order is topological: first every gate in the cone
/// of a triggering gate, in id order (all a trigger update needs), then
/// the rest of the top gate's cone, in id order.
#[derive(Debug, Clone)]
struct Program {
    ops: Vec<Op>,
    terms: Vec<Term>,
    /// `ops[..update_len]` decide every triggering gate.
    update_len: usize,
    /// The top gate's bit.
    top: usize,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: GateKind,
    /// This gate's inputs: `Program::terms[terms.0..terms.1]`.
    terms: (usize, usize),
}

/// The inputs of one gate that share a bitset word. An `AtLeast` gate
/// keeps each repeated occurrence of an input in a further term, so the
/// popcounts count it as often as it occurs.
#[derive(Debug, Clone, Copy)]
struct Term {
    /// Whether `mask` selects gate bits rather than failed-slot bits.
    on_gates: bool,
    word: usize,
    mask: u64,
}

impl Program {
    /// Compile `tree`'s gates; also returns each compiled gate's bit,
    /// indexed by node.
    fn compile(tree: &FaultTree, slot_of: &[usize]) -> (Program, Vec<usize>) {
        // 1: in the cone of a triggering gate; 2: only in the top's cone.
        let mut phase = vec![0u8; tree.len()];
        let mut mark = |root: NodeId, tag: u8| {
            let mut stack = vec![root];
            while let Some(gate) = stack.pop() {
                if phase[gate.index()] == 0 {
                    phase[gate.index()] = tag;
                    stack.extend(tree.gate_inputs(gate).iter().filter(|&&i| tree.is_gate(i)));
                }
            }
        };
        for gate in tree.gates() {
            if !tree.triggers_of(gate).is_empty() {
                mark(gate, 1);
            }
        }
        mark(tree.top(), 2);
        let phase = &phase;
        let order: Vec<NodeId> = [1, 2]
            .into_iter()
            .flat_map(|tag| tree.gates().filter(move |g| phase[g.index()] == tag))
            .collect();
        let mut bit_of = vec![usize::MAX; tree.len()];
        for (bit, gate) in order.iter().enumerate() {
            bit_of[gate.index()] = bit;
        }
        let mut ops = Vec::with_capacity(order.len());
        let mut terms: Vec<Term> = Vec::new();
        for &gate in &order {
            let kind = tree.gate_kind(gate).expect("gate");
            let begin = terms.len();
            for &input in tree.gate_inputs(gate) {
                let (on_gates, index) = if tree.is_gate(input) {
                    (true, bit_of[input.index()])
                } else {
                    (false, slot_of[input.index()])
                };
                let (word, mask) = (index / 64, 1u64 << (index % 64));
                let here = &mut terms[begin..];
                let same = |t: &Term| t.on_gates == on_gates && t.word == word;
                let counts_repeats = matches!(kind, GateKind::AtLeast(_));
                if !counts_repeats && here.iter().any(|t| same(t) && t.mask & mask != 0) {
                    continue;
                }
                match here.iter_mut().find(|t| same(t) && t.mask & mask == 0) {
                    Some(term) => term.mask |= mask,
                    None => terms.push(Term {
                        on_gates,
                        word,
                        mask,
                    }),
                }
            }
            ops.push(Op {
                kind,
                terms: (begin, terms.len()),
            });
        }
        let program = Program {
            update_len: phase.iter().filter(|&&p| p == 1).count(),
            top: bit_of[tree.top().index()],
            ops,
            terms,
        };
        (program, bit_of)
    }

    /// Evaluate `ops[..len]` on the failed slots `failed` into `gates`.
    fn eval(&self, failed: &[u64], gates: &mut [u64], len: usize) {
        for (i, op) in self.ops[..len].iter().enumerate() {
            let terms = &self.terms[op.terms.0..op.terms.1];
            let hits = |t: &Term| {
                let word = if t.on_gates {
                    gates[t.word]
                } else {
                    failed[t.word]
                };
                word & t.mask
            };
            let value = match op.kind {
                GateKind::And => terms.iter().all(|t| hits(t) == t.mask),
                GateKind::Or => terms.iter().any(|t| hits(t) != 0),
                GateKind::AtLeast(k) => {
                    terms.iter().map(|t| hits(t).count_ones()).sum::<u32>() >= k
                }
            };
            set_bit(gates, i, value);
        }
    }
}

/// An open-addressing index of packed product states: each slot holds a
/// state number, and the keys themselves live only in the flat state
/// store. Keys are hashed word by word with the Fx recipe (see
/// [`sdft_ft::FxHasher`]: they derive from the tree under analysis, so
/// collision resistance buys nothing); the hash's top bits pick the home
/// slot and collisions probe linearly. The load stays at most one half.
struct StateIndex {
    words: usize,
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`.
    shift: u32,
    /// Number of indexed states.
    len: usize,
}

impl StateIndex {
    const EMPTY: u32 = u32::MAX;

    /// An index of the distinct states in `states`.
    fn over(words: usize, states: &[u64]) -> StateIndex {
        let len = states.len() / words;
        let capacity = (2 * len + 1).next_power_of_two().max(64);
        let mut index = StateIndex {
            words,
            slots: vec![Self::EMPTY; capacity],
            shift: u64::BITS - capacity.trailing_zeros(),
            len,
        };
        for (i, key) in states.chunks_exact(words).enumerate() {
            let mut at = index.home(key);
            while index.slots[at] != Self::EMPTY {
                at = (at + 1) & (capacity - 1);
            }
            index.slots[at] = i as u32;
        }
        index
    }

    fn home(&self, key: &[u64]) -> usize {
        let mut hasher = FxHasher::default();
        for &word in key {
            hasher.write_u64(word);
        }
        (hasher.finish() >> self.shift) as usize
    }

    /// The state numbered by `key`, or the empty slot where it belongs.
    fn probe(&self, key: &[u64], states: &[u64]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = self.home(key);
        loop {
            match self.slots[at] {
                Self::EMPTY => return Err(at),
                i if states[i as usize * self.words..][..self.words]
                    .iter()
                    .zip(key)
                    .all(|(a, b)| a == b) =>
                {
                    return Ok(i as usize)
                }
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The number of `key`, appending it to `states` as the next state if
    /// it is new.
    fn insert(
        &mut self,
        key: &[u64],
        states: &mut Vec<u64>,
        max_states: usize,
    ) -> Result<usize, ProductError> {
        let at = match self.probe(key, states) {
            Ok(i) => return Ok(i),
            Err(at) => at,
        };
        let limit = max_states.min(Self::EMPTY as usize);
        if self.len >= limit {
            return Err(ProductError::TooManyStates { limit });
        }
        let i = self.len;
        self.slots[at] = i as u32;
        states.extend_from_slice(key);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            *self = StateIndex::over(self.words, states);
        }
        Ok(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

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
    fn repeated_builds_are_bitwise_deterministic() {
        // Several static events give the initial product distribution a
        // multi-state support; its enumeration order seeds the state
        // indexing and thus every float summation downstream. A hash-map
        // ordering here once made two builds of the *same* tree disagree
        // in the last ulp across processes.
        let mut b = FaultTreeBuilder::new();
        let s1 = b.static_event("s1", 0.3).unwrap();
        let s2 = b.static_event("s2", 0.2).unwrap();
        let s3 = b.static_event("s3", 0.4).unwrap();
        let x = b
            .dynamic_event("x", erlang::repairable(1, 0.02, 0.1).unwrap())
            .unwrap();
        let d = b
            .triggered_event("d", erlang::spare(0.05, 0.0).unwrap())
            .unwrap();
        let trig = b.or("trig", [s1, s2, x]).unwrap();
        let g = b.and("g", [s3, x, d]).unwrap();
        b.trigger(trig, d).unwrap();
        b.top(g);
        let tree = b.build().unwrap();
        let p0 = failure_probability(&tree, 12.0, &ProductOptions::default()).unwrap();
        for _ in 0..8 {
            let p = failure_probability(&tree, 12.0, &ProductOptions::default()).unwrap();
            assert_eq!(p.to_bits(), p0.to_bits(), "{p} vs {p0}");
        }
    }

    #[test]
    fn static_only_tree_matches_enumeration() {
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.2).unwrap();
        let y = b.static_event("y", 0.3).unwrap();
        let g = b.and("g", [x, y]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let p = failure_probability(&t, 100.0, &ProductOptions::default()).unwrap();
        assert!((p - 0.06).abs() < 1e-12);
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
        assert_eq!(pc.num_states(), 4);
        assert_eq!(pc.chain().transition_count(), 0);
    }

    #[test]
    fn single_dynamic_event_matches_chain_analysis() {
        let mut b = FaultTreeBuilder::new();
        let chain = erlang::repairable(2, 1e-2, 0.1).unwrap();
        let x = b.dynamic_event("x", chain.clone()).unwrap();
        let g = b.or("g", [x]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let p = failure_probability(&t, 24.0, &ProductOptions::default()).unwrap();
        let expected = chain.reach_failed_probability(24.0, 1e-12).unwrap();
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn example3_builds_and_behaves() {
        let t = example3();
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
        // Components: a(2) b(2) c(2) d(4) e(2) = 128 raw states, but only
        // consistent ones are kept (d is on iff pump1 is failed).
        assert!(pc.num_states() <= 64, "states: {}", pc.num_states());
        assert!(pc.num_states() >= 16);
        let p24 = pc.failure_probability(24.0, 1e-12).unwrap();
        let p48 = pc.failure_probability(48.0, 1e-12).unwrap();
        assert!(p24 > 0.0 && p24 < 1e-3);
        assert!(p48 > p24, "failure probability must grow with the horizon");
    }

    #[test]
    fn example5_update_chain() {
        // From Example 5: failing b in (ok,ok,ok,off,fail-e? ...) — here
        // we check the core mechanism: when b fails, pump1 fails and d is
        // switched on; when b is repaired, d is switched off again.
        let t = example3();
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
        // Slots are in id order: a=0, b=1, c=2, d=3, e=4.
        // Initial state: everything ok, d off (component state 0).
        let init = pc
            .find_state(&[0, 0, 0, 0, 0])
            .expect("initial state exists");
        // b fails (component state 1) => pump1 failed => d switched on:
        // spare layout: 0=off-ok, 1=off-latent? erlang::spare uses
        // triggered_with(phases=1): off states {0,1}, on states {2,3}.
        // on(0) = 2.
        let after = pc
            .find_state(&[0, 1, 0, 2, 0])
            .expect("b-failed state exists");
        let rate = pc
            .chain()
            .transitions_from(init)
            .iter()
            .find(|&&(to, _)| to == after)
            .map(|&(_, r)| r);
        assert_eq!(
            rate,
            Some(1e-3),
            "evolution b fails with rate 0.001 + update d on"
        );
        // And back: repairing b (rate 0.05) switches d off again.
        let back = pc
            .chain()
            .transitions_from(after)
            .iter()
            .find(|&&(to, _)| to == init)
            .map(|&(_, r)| r);
        assert_eq!(
            back,
            Some(0.05),
            "repair of b with rate 0.05 + update d off"
        );
    }

    #[test]
    fn initial_distribution_merges_updated_states() {
        // A static event failing at t=0 triggers d immediately: the
        // initial distribution must put d's mass on the on-state.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.25).unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let g = b.or("g", [x]).unwrap();
        let top = b.and("top", [g, d]).unwrap();
        b.trigger(g, d).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
        // State (x failed, d on-ok): initial probability 0.25.
        let s = pc.find_state(&[1, 2]).expect("triggered initial state");
        assert!((pc.chain().initial_probability(s) - 0.25).abs() < 1e-15);
        // State (x ok, d off-ok): initial probability 0.75.
        let s = pc.find_state(&[0, 0]).expect("untouched initial state");
        assert!((pc.chain().initial_probability(s) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn failed_states_follow_the_top_gate() {
        let t = example3();
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
        // (ok, ok, ok, off, fail): water tank failure alone fails the top.
        let s = pc.find_state(&[0, 0, 0, 0, 1]).expect("tank-failed state");
        assert!(pc.chain().is_failed(s));
        let s0 = pc.find_state(&[0, 0, 0, 0, 0]).unwrap();
        assert!(!pc.chain().is_failed(s0));
    }

    #[test]
    fn state_budget_is_enforced() {
        let t = example3();
        let err = ProductChain::build(&t, &ProductOptions { max_states: 3 });
        assert!(matches!(err, Err(ProductError::TooManyStates { limit: 3 })));
    }

    /// `AtLeast` counts a repeated input once per occurrence, as
    /// `evaluate_scenario_into` does: `atleast(2, [x, x])` fails with
    /// `x` alone, so `x` failing triggers the spare.
    #[test]
    fn atleast_counts_repeated_inputs() {
        let mut b = FaultTreeBuilder::new();
        let x = b
            .dynamic_event("x", erlang::repairable(1, 1e-2, 0.1).unwrap())
            .unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-2, 0.05).unwrap())
            .unwrap();
        let g = b.atleast("g", 2, [x, x]).unwrap();
        let top = b.and("top", [g, d]).unwrap();
        b.trigger(g, d).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let p = failure_probability(&t, 100.0, &ProductOptions::default()).unwrap();
        assert_eq!(p.to_bits(), 7.397379823667964e-2_f64.to_bits(), "{p}");
    }

    #[test]
    fn triggered_event_cannot_fail_while_off() {
        // d alone under the top (via AND with a never-failing partner
        // wouldn't be expressible; instead check reachability): with no
        // other failures, pump1 never fails, d never turns on, and the
        // probability of the AND(top) staying safe is 1 minus tank-ish...
        // Simpler: tree whose top = AND(x, d) with x never failing: the
        // top probability must be 0 because d is never triggered.
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.0).unwrap();
        let d = b
            .triggered_event("d", erlang::spare(1e-3, 0.05).unwrap())
            .unwrap();
        let g = b.or("g", [x]).unwrap();
        let top = b.and("top", [g, d]).unwrap();
        b.trigger(g, d).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let p = failure_probability(&t, 1000.0, &ProductOptions::default()).unwrap();
        assert_eq!(p, 0.0);
    }
}

#[cfg(test)]
mod stationary_tests {
    use super::*;
    use sdft_ctmc::StationaryOptions;
    use sdft_ft::FaultTreeBuilder;

    #[test]
    fn steady_state_of_two_repairable_components() {
        // AND of two independent repairable components: the long-run
        // unavailability is the product of the component unavailabilities.
        let mut b = FaultTreeBuilder::new();
        let c1 = sdft_ctmc::erlang::repairable(1, 2e-3, 0.1).unwrap();
        let c2 = sdft_ctmc::erlang::repairable(1, 3e-3, 0.2).unwrap();
        let x = b.dynamic_event("x", c1).unwrap();
        let y = b.dynamic_event("y", c2).unwrap();
        let g = b.and("g", [x, y]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
        let u = pc
            .steady_state_unavailability(&StationaryOptions::default())
            .unwrap();
        let u1 = 2e-3 / (2e-3 + 0.1);
        let u2 = 3e-3 / (3e-3 + 0.2);
        assert!((u - u1 * u2).abs() < 1e-9, "{u} vs {}", u1 * u2);
    }

    #[test]
    fn triggered_spare_reduces_steady_state_unavailability() {
        // A spare that only runs while the primary is failed has a lower
        // long-run joint unavailability than an always-on redundant pair.
        let mut always = FaultTreeBuilder::new();
        let x = always
            .dynamic_event("x", sdft_ctmc::erlang::repairable(1, 5e-3, 0.05).unwrap())
            .unwrap();
        let y = always
            .dynamic_event("y", sdft_ctmc::erlang::repairable(1, 5e-3, 0.05).unwrap())
            .unwrap();
        let g = always.and("g", [x, y]).unwrap();
        always.top(g);
        let always_tree = always.build().unwrap();

        let mut spare = FaultTreeBuilder::new();
        let x = spare
            .dynamic_event("x", sdft_ctmc::erlang::repairable(1, 5e-3, 0.05).unwrap())
            .unwrap();
        let d = spare
            .triggered_event("d", sdft_ctmc::erlang::spare(5e-3, 0.05).unwrap())
            .unwrap();
        let w = spare.or("w", [x]).unwrap();
        let g = spare.and("g", [w, d]).unwrap();
        spare.trigger(w, d).unwrap();
        spare.top(g);
        let spare_tree = spare.build().unwrap();

        let opts = StationaryOptions::default();
        let u_always = ProductChain::build(&always_tree, &ProductOptions::default())
            .unwrap()
            .steady_state_unavailability(&opts)
            .unwrap();
        let u_spare = ProductChain::build(&spare_tree, &ProductOptions::default())
            .unwrap()
            .steady_state_unavailability(&opts)
            .unwrap();
        assert!(
            u_spare < u_always,
            "spare {u_spare} should beat always-on {u_always}"
        );
    }
}

#[cfg(test)]
mod completion_tests {
    use super::*;
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

    #[test]
    fn completion_split_sums_to_reach_probability() {
        // Example 3: cutset {b, d}.
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
        let t = b.build().unwrap();
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
        let events = [t.node_by_name("b").unwrap(), t.node_by_name("d").unwrap()];
        let split = pc.completion_by_event(&events, 24.0, 1e-12).unwrap();
        let reach = pc
            .reach_events_failed_probability(&events, 24.0, 1e-12)
            .unwrap();
        assert!(
            (split.total - reach).abs() < 1e-12,
            "{} vs {reach}",
            split.total
        );
        assert_eq!(split.initial, 0.0, "nothing is failed at time zero");
        // Both completions happen: d fails last (after b triggered it)
        // and b fails last (d failed while on from an earlier b episode,
        // b repaired and failed again).
        let share = |name: &str| {
            let id = t.node_by_name(name).unwrap();
            split
                .by_event
                .iter()
                .find(|&&(e2, _)| e2 == id)
                .map_or(0.0, |&(_, p)| p)
        };
        assert!(share("d") > 0.0);
        assert!(share("b") > 0.0);
        // d completing dominates: d can only fail while b is failed.
        assert!(share("d") > share("b"));
    }

    #[test]
    fn static_cutsets_complete_at_time_zero() {
        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.2).unwrap();
        let y = b.static_event("y", 0.5).unwrap();
        let g = b.and("g", [x, y]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
        let split = pc.completion_by_event(&[x, y], 100.0, 1e-12).unwrap();
        assert!((split.initial - 0.1).abs() < 1e-12);
        assert!(split.by_event.is_empty());
        assert!((split.total - 0.1).abs() < 1e-12);
    }

    #[test]
    fn trigger_switch_attributes_to_the_firing_event() {
        // d degrades while off (passive factor) into a latent failure;
        // when x fails, the trigger switches d on *already failed* — the
        // completion is driven by x.
        let mut b = FaultTreeBuilder::new();
        let x = b
            .dynamic_event("x", erlang::repairable(1, 5e-3, 0.0).unwrap())
            .unwrap();
        // High passive factor so latent failures are common.
        let chain = erlang::triggered_with(sdft_ctmc::erlang::ErlangOptions {
            phases: 1,
            failure_rate: 5e-3,
            repair_rate: 0.0,
            passive_factor: 1.0,
            repair_while_off: false,
        })
        .unwrap();
        let d = b.triggered_event("d", chain).unwrap();
        let w = b.or("w", [x]).unwrap();
        let top = b.and("top", [w, d]).unwrap();
        b.trigger(w, d).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
        let split = pc.completion_by_event(&[x, d], 200.0, 1e-12).unwrap();
        let share = |name: &str| {
            let id = t.node_by_name(name).unwrap();
            split
                .by_event
                .iter()
                .find(|&&(e2, _)| e2 == id)
                .map_or(0.0, |&(_, p)| p)
        };
        assert!(
            share("x") > 0.0,
            "x's failure completes via the trigger switch"
        );
        assert!(share("d") > 0.0, "d can also fail last while on");
        let reach = pc
            .reach_events_failed_probability(&[x, d], 200.0, 1e-12)
            .unwrap();
        assert!((split.total - reach).abs() < 1e-12);
    }
}

#[cfg(test)]
mod cascade_tests {
    use super::*;
    use sdft_ctmc::erlang;
    use sdft_ft::FaultTreeBuilder;

    /// One evolution step can require several update rounds: x failing
    /// fires g1 which switches d2 on; if d2 switches on *into a latent
    /// failure*, g2 fires in the same instant and switches d3 on too.
    #[test]
    fn cascading_trigger_updates_resolve_in_one_transition() {
        let mut b = FaultTreeBuilder::new();
        let x = b
            .dynamic_event("x", erlang::repairable(1, 1e-2, 0.0).unwrap())
            .unwrap();
        // d2 degrades at the full rate while off, so latent failures are
        // common; no repair.
        let latent = erlang::triggered_with(sdft_ctmc::erlang::ErlangOptions {
            phases: 1,
            failure_rate: 1e-2,
            repair_rate: 0.0,
            passive_factor: 1.0,
            repair_while_off: false,
        })
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
        let t = b.build().unwrap();
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();

        // Layout per triggered event (k=1): off {0: ok, 1: latent},
        // on {2: ok, 3: failed}; x: {0 ok, 1 failed}.
        // State: x ok, d2 latent-off, d3 latent-off.
        let staged = pc.find_state(&[0, 1, 1]).expect("latent stage exists");
        // x fails: g1 fires -> d2 on (failed) -> g2 fires -> d3 on
        // (failed) — a two-round cascade merged into one transition.
        let done = pc.find_state(&[1, 3, 3]).expect("fully failed state");
        let rate = pc
            .chain()
            .transitions_from(staged)
            .iter()
            .find(|&&(to, _)| to == done)
            .map(|&(_, r)| r);
        assert_eq!(
            rate,
            Some(1e-2),
            "single transition covers the whole cascade"
        );
        assert!(pc.chain().is_failed(done));
    }

    /// The reverse cascade: repairing the root un-triggers the chain.
    #[test]
    fn repair_cascades_switch_chains_off() {
        let mut b = FaultTreeBuilder::new();
        let x = b
            .dynamic_event("x", erlang::repairable(1, 1e-2, 0.5).unwrap())
            .unwrap();
        let d2 = b
            .triggered_event("d2", erlang::spare(1e-2, 0.0).unwrap())
            .unwrap();
        let g1 = b.or("g1", [x]).unwrap();
        let top = b.and("top", [g1, d2]).unwrap();
        b.trigger(g1, d2).unwrap();
        b.top(top);
        let t = b.build().unwrap();
        let pc = ProductChain::build(&t, &ProductOptions::default()).unwrap();
        // spare layout: off {0 ok, 1 latent}, on {2 ok, 3 failed}.
        // x failed, d2 on-ok --repair x (rate 0.5)--> x ok, d2 off-ok.
        let running = pc.find_state(&[1, 2]).expect("triggered state");
        let idle = pc.find_state(&[0, 0]).expect("idle state");
        let rate = pc
            .chain()
            .transitions_from(running)
            .iter()
            .find(|&&(to, _)| to == idle)
            .map(|&(_, r)| r);
        assert_eq!(rate, Some(0.5), "repair switches the spare off again");
    }
}

#[cfg(test)]
mod u16_guard_tests {
    use super::*;
    use sdft_ctmc::CtmcBuilder;
    use sdft_ft::FaultTreeBuilder;

    /// Found in review: a component chain wider than u16 must produce a
    /// clean error, not a packing panic.
    #[test]
    fn oversized_component_chains_error_cleanly() {
        let n = usize::from(u16::MAX) + 2;
        let mut cb = CtmcBuilder::new(n);
        cb.initial(0, 1.0);
        for s in 0..n - 1 {
            cb.rate(s, s + 1, 1e-6);
        }
        cb.failed(n - 1);
        let chain = cb.build().unwrap();
        let mut b = FaultTreeBuilder::new();
        let x = b.dynamic_event("x", chain).unwrap();
        let g = b.or("g", [x]).unwrap();
        b.top(g);
        let t = b.build().unwrap();
        let err = ProductChain::build(&t, &ProductOptions::default());
        assert!(matches!(err, Err(ProductError::TooManyStates { .. })));
    }
}
