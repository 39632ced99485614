//! The reference product-chain builder: the exact referee for the
//! oracle's whole-tree checks, independent of `sdft-product`'s compiled
//! exploration.
//!
//! It explores the product chain `C_FT` of §III-C the straightforward
//! way. Every trigger update evaluates the whole tree on a [`Scenario`],
//! product states are `Vec<u16>` keys of a `HashMap`, every explored
//! transition is recorded with the component slot that drives it, and
//! the chain is assembled by [`CtmcBuilder`]. Its state numbering, row
//! order and rate sums are the ones `sdft_product::ProductChain::build`
//! promises, so the two builds must agree bit for bit; the oracle's
//! `product_parity` test holds them to that.

use sdft_ctmc::{Ctmc, CtmcBuilder, Mode};
use sdft_ft::{Behavior, FaultTree, NodeId, Scenario};
use sdft_product::{ProductError, ProductOptions};
use std::collections::{BTreeMap, HashMap};

/// A product chain built by the reference builder.
#[derive(Debug, Clone)]
pub struct ReferenceChain {
    /// The chain: initial distribution, rates and failed states.
    pub chain: Ctmc,
    /// Per product state: the component state of every basic event, in
    /// id order.
    pub states: Vec<Vec<u16>>,
    /// Every explored transition with the slot that drives it:
    /// `(from, to, slot, rate)`.
    pub tagged_transitions: Vec<(usize, usize, usize, f64)>,
}

/// Build the product chain of `tree` with the reference builder.
///
/// # Errors
///
/// Returns an error if the explored state space exceeds
/// `options.max_states`, or a component chain has more than `u16::MAX`
/// states.
pub fn build(tree: &FaultTree, options: &ProductOptions) -> Result<ReferenceChain, ProductError> {
    // Component states are packed into u16 slots.
    for event in tree.dynamic_basic_events() {
        let len = match tree.behavior(event) {
            Some(Behavior::Dynamic(c)) => c.len(),
            Some(Behavior::Triggered(c)) => c.len(),
            _ => 0,
        };
        if len > usize::from(u16::MAX) {
            return Err(ProductError::TooManyStates {
                limit: usize::from(u16::MAX),
            });
        }
    }
    Builder::new(tree).run(options)
}

/// `Pr[Reach≤t(F)]` of `tree`'s reference product chain, with truncation
/// error `1e-12`.
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
    Ok(build(tree, options)?
        .chain
        .reach_failed_probability(t, sdft_ctmc::DEFAULT_EPSILON)?)
}

/// One basic event's contribution to the product state.
#[derive(Debug, Clone)]
struct Component {
    event: NodeId,
    chain: Ctmc,
    /// Mode and (un)triggering maps for triggered chains.
    modes: Option<ComponentModes>,
    trigger_gate: Option<NodeId>,
}

#[derive(Debug, Clone)]
struct ComponentModes {
    mode: Vec<Mode>,
    on_map: Vec<usize>,
    off_map: Vec<usize>,
}

/// Reusable buffers for trigger-update evaluation: one scenario and one
/// node-evaluation vector serve every state of an exploration.
struct Scratch {
    scenario: Scenario,
    failed: Vec<bool>,
}

impl Scratch {
    fn new(tree: &FaultTree) -> Self {
        Scratch {
            scenario: Scenario::new(tree),
            failed: Vec::with_capacity(tree.len()),
        }
    }
}

struct Builder<'a> {
    tree: &'a FaultTree,
    components: Vec<Component>,
}

impl<'a> Builder<'a> {
    fn new(tree: &'a FaultTree) -> Self {
        let components = tree
            .basic_events()
            .map(|event| match tree.behavior(event).expect("basic event") {
                Behavior::Static { probability } => {
                    let mut b = CtmcBuilder::new(2);
                    b.initial(0, 1.0 - probability)
                        .initial(1, *probability)
                        .failed(1);
                    Component {
                        event,
                        chain: b.build().expect("static two-state chain is valid"),
                        modes: None,
                        trigger_gate: None,
                    }
                }
                Behavior::Dynamic(chain) => Component {
                    event,
                    chain: chain.clone(),
                    modes: None,
                    trigger_gate: None,
                },
                Behavior::Triggered(chain) => {
                    let n = chain.len();
                    let mode: Vec<Mode> = (0..n).map(|s| chain.mode(s)).collect();
                    let on_map = (0..n)
                        .map(|s| {
                            if mode[s] == Mode::Off {
                                chain.on_of(s)
                            } else {
                                s
                            }
                        })
                        .collect();
                    let off_map = (0..n)
                        .map(|s| {
                            if mode[s] == Mode::On {
                                chain.off_of(s)
                            } else {
                                s
                            }
                        })
                        .collect();
                    Component {
                        event,
                        chain: chain.chain().clone(),
                        modes: Some(ComponentModes {
                            mode,
                            on_map,
                            off_map,
                        }),
                        trigger_gate: tree.trigger_source(event),
                    }
                }
            })
            .collect();
        Builder { tree, components }
    }

    /// Whether component `i` is failed in component state `s`.
    fn comp_failed(&self, i: usize, s: u16) -> bool {
        self.components[i].chain.is_failed(s as usize)
    }

    /// Fill `scenario` with the events failed in `state`. Reuses the
    /// caller's scenario: exploration evaluates millions of states and
    /// must not allocate per query.
    fn scenario_into(&self, state: &[u16], scenario: &mut Scenario) {
        scenario.clear();
        for (i, &s) in state.iter().enumerate() {
            if self.comp_failed(i, s) {
                scenario.set(self.components[i].event, true);
            }
        }
    }

    /// Apply trigger updates until the state is consistent (§III-C1b),
    /// in place, reusing `scratch` across calls.
    fn update(&self, state: &mut [u16], scratch: &mut Scratch) -> Result<(), ProductError> {
        // Each pass applies every pending switch; acyclicity of the
        // triggering structure bounds the number of passes by the number
        // of triggered events (a switched component can enable at most a
        // strictly "later" trigger in the acyclic order).
        let limit = self.components.len() + 2;
        for _ in 0..limit {
            self.scenario_into(state, &mut scratch.scenario);
            self.tree
                .evaluate_scenario_into(&scratch.scenario, &mut scratch.failed);
            let mut changed = false;
            for (i, comp) in self.components.iter().enumerate() {
                let (Some(modes), Some(gate)) = (&comp.modes, comp.trigger_gate) else {
                    continue;
                };
                let s = state[i] as usize;
                if scratch.failed[gate.index()] {
                    if modes.mode[s] == Mode::Off {
                        state[i] = u16::try_from(modes.on_map[s]).expect("state fits u16");
                        changed = true;
                    }
                } else if modes.mode[s] == Mode::On {
                    state[i] = u16::try_from(modes.off_map[s]).expect("state fits u16");
                    changed = true;
                }
            }
            if !changed {
                return Ok(());
            }
        }
        Err(ProductError::UpdateDiverged)
    }

    fn run(self, options: &ProductOptions) -> Result<ReferenceChain, ProductError> {
        // Enumerate the support of the initial product distribution.
        // Ordered map: its iteration order below seeds the state
        // indexing, so it must not depend on per-instance hash seeds —
        // state order decides float summation order throughout the
        // transient analysis, and bitwise reproducibility across runs
        // (and across the quantification cache's on/off paths) hangs on
        // it.
        let mut initial: BTreeMap<Vec<u16>, f64> = BTreeMap::new();
        let mut partial: Vec<(Vec<u16>, f64)> = vec![(Vec::new(), 1.0)];
        for comp in &self.components {
            let mut next = Vec::new();
            for (prefix, p) in &partial {
                for s in 0..comp.chain.len() {
                    let ps = comp.chain.initial_probability(s);
                    if ps > 0.0 {
                        let mut v = prefix.clone();
                        v.push(u16::try_from(s).expect("state fits u16"));
                        next.push((v, p * ps));
                    }
                }
            }
            partial = next;
            if partial.len() > options.max_states {
                return Err(ProductError::TooManyStates {
                    limit: options.max_states,
                });
            }
        }
        // Update each initial combination into its consistent state and
        // merge probabilities (the initial-distribution rule of §III-C1).
        let mut scratch = Scratch::new(self.tree);
        for (mut state, p) in partial {
            self.update(&mut state, &mut scratch)?;
            *initial.entry(state).or_insert(0.0) += p;
        }

        // Breadth-first exploration of consistent states.
        let mut index: HashMap<Vec<u16>, usize> = HashMap::new();
        let mut states: Vec<Vec<u16>> = Vec::new();
        let mut queue: Vec<usize> = Vec::new();
        let mut add_state = |s: &[u16],
                             states: &mut Vec<Vec<u16>>,
                             queue: &mut Vec<usize>|
         -> Result<usize, ProductError> {
            if let Some(&i) = index.get(s) {
                return Ok(i);
            }
            if states.len() >= options.max_states {
                return Err(ProductError::TooManyStates {
                    limit: options.max_states,
                });
            }
            let i = states.len();
            index.insert(s.to_vec(), i);
            states.push(s.to_vec());
            queue.push(i);
            Ok(i)
        };

        let mut init_list: Vec<(usize, f64)> = Vec::new();
        for (state, p) in initial {
            let i = add_state(&state, &mut states, &mut queue)?;
            init_list.push((i, p));
        }

        // The explored frontier reuses two state buffers; `add_state`
        // copies only when it actually inserts a new product state.
        let mut transitions: Vec<(usize, usize, usize, f64)> = Vec::new();
        let mut current: Vec<u16> = Vec::new();
        let mut evolved: Vec<u16> = Vec::new();
        let mut head = 0;
        while head < queue.len() {
            let from = queue[head];
            head += 1;
            current.clear();
            current.extend_from_slice(&states[from]);
            for (i, comp) in self.components.iter().enumerate() {
                for &(to_comp, rate) in comp.chain.transitions_from(current[i] as usize) {
                    evolved.clear();
                    evolved.extend_from_slice(&current);
                    evolved[i] = u16::try_from(to_comp).expect("state fits u16");
                    self.update(&mut evolved, &mut scratch)?;
                    let to = add_state(&evolved, &mut states, &mut queue)?;
                    transitions.push((from, to, i, rate));
                }
            }
        }

        let mut b = CtmcBuilder::new(states.len());
        for (i, p) in init_list {
            b.initial(i, p);
        }
        for &(from, to, _, rate) in &transitions {
            b.rate(from, to, rate);
        }
        let top = self.tree.top().index();
        for (i, state) in states.iter().enumerate() {
            self.scenario_into(state, &mut scratch.scenario);
            self.tree
                .evaluate_scenario_into(&scratch.scenario, &mut scratch.failed);
            if scratch.failed[top] {
                b.failed(i);
            }
        }
        Ok(ReferenceChain {
            chain: b.build()?,
            states,
            tagged_transitions: transitions,
        })
    }
}
