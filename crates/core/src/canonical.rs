//! Canonical cutset-model keys and the cross-cutset quantification cache.
//!
//! On realistic PSA models thousands of minimal cutsets share *identical*
//! dynamic sub-models — the same triggered pump or diesel train recurs
//! across cutsets under different names. Quantifying such a cutset means
//! building its `FT_C`, the product chain, and one uniformization pass
//! (§V-C); all of that depends only on the *structure* of the model, not
//! on node names or ids. This module gives every dynamic cutset model a
//! [`CanonicalModelKey`] — an exact, name-independent encoding — and a
//! concurrent [`QuantCache`] that solves each equivalence class exactly
//! once and re-labels the result for every other member.
//!
//! # Soundness
//!
//! The key embeds the *complete* structural signature of the model tree
//! (see [`sdft_ft::TreeSignature`]): behaviours with bit-exact
//! parameters, gate kinds and input wiring in creation order, trigger
//! edges, and the top gate — plus every quantification parameter the
//! transient analysis reads (horizon set, truncation `ε`, state budget,
//! trigger treatment). Product-chain construction and uniformization are
//! deterministic functions of exactly those inputs, so two models with
//! equal keys produce bitwise-identical dynamic factors. The key is an
//! encoding, not a hash digest: collisions are impossible, equal keys
//! *mean* equal models.

use crate::error::CoreError;
use crate::ftc::TriggerTreatment;
use sdft_ft::{EventSignature, FaultTree};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The canonical identity of a per-cutset quantification problem:
/// sorted dynamic-event signatures × trigger-structure shape ×
/// treatment, optionally extended with the numerical parameters
/// (horizon set × `ε` × state budget) via
/// [`CanonicalModelKey::with_quantification`].
///
/// Produced by [`crate::build_ftc_with`] for every dynamic cutset model;
/// equal keys guarantee bitwise-identical quantification results (see
/// the module docs for the argument).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalModelKey(Vec<u8>);

impl CanonicalModelKey {
    /// The structural stem of the key: the sorted signatures of the
    /// cutset's dynamic events (with their trigger cones, as
    /// [`FaultTree::event_trigger_signature`] gives them, in any order),
    /// the complete structural signature of the model tree, and the
    /// treatment that shaped it.
    #[must_use]
    pub(crate) fn stem(
        mut signatures: Vec<&EventSignature>,
        model_tree: &FaultTree,
        treatment: TriggerTreatment,
    ) -> Self {
        let mut bytes = vec![b'K', 2]; // format marker + version
        bytes.push(match treatment {
            TriggerTreatment::Classified => 0,
            TriggerTreatment::CutsetOnly => 1,
        });
        signatures.sort();
        push_usize(&mut bytes, signatures.len());
        for signature in signatures {
            push_blob(&mut bytes, signature.as_bytes());
        }
        push_blob(&mut bytes, model_tree.structural_signature().as_bytes());
        CanonicalModelKey(bytes)
    }

    /// Extend the stem with every numerical parameter the transient
    /// analysis reads — including the kernel's steady-state-detection
    /// knob, which changes results within its documented `ε` —
    /// completing the cache key.
    #[must_use]
    pub fn with_quantification(
        &self,
        horizons: &[f64],
        epsilon: f64,
        max_states: usize,
        steady_state_detection: bool,
    ) -> Self {
        let mut bytes = self.0.clone();
        push_usize(&mut bytes, horizons.len());
        for &h in horizons {
            bytes.extend_from_slice(&h.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&epsilon.to_bits().to_le_bytes());
        push_usize(&mut bytes, max_states);
        bytes.push(u8::from(steady_state_detection));
        CanonicalModelKey(bytes)
    }

    /// The canonical byte encoding backing this key.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

fn push_usize(bytes: &mut Vec<u8>, value: usize) {
    bytes.extend_from_slice(&(value as u64).to_le_bytes());
}

fn push_blob(bytes: &mut Vec<u8>, blob: &[u8]) {
    push_usize(bytes, blob.len());
    bytes.extend_from_slice(blob);
}

/// Deterministic counters of the uniformization kernel, aggregated over
/// one or more solves. Only integer counters live here (never wall-clock
/// durations) so that sequential and parallel runs over the same work
/// list report identical values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Uniformization passes performed (one per solved equivalence
    /// class).
    pub solves: usize,
    /// DTMC steps actually taken across those passes.
    pub steps_taken: u64,
    /// DTMC steps avoided by steady-state detection (full Poisson budget
    /// minus steps taken).
    pub steps_saved: u64,
    /// Solves in which steady-state detection fired.
    pub steady_state_solves: usize,
    /// CSR entries streamed through the SpMV kernel (nonzeros × steps,
    /// summed over solves) — the numerator of kernel throughput.
    pub spmv_nonzeros: u64,
}

impl KernelStats {
    /// Accumulate another batch of kernel counters into this one.
    pub fn absorb(&mut self, other: KernelStats) {
        self.solves += other.solves;
        self.steps_taken += other.steps_taken;
        self.steps_saved += other.steps_saved;
        self.steady_state_solves += other.steady_state_solves;
        self.spmv_nonzeros += other.spmv_nonzeros;
    }
}

/// The solution of one model equivalence class: the dynamic factor per
/// horizon plus bookkeeping for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicSolution {
    /// `Pr_FT_C[Reach≤t(F)]` per horizon, in horizon order.
    pub factors: Vec<f64>,
    /// States of the product chain that was solved.
    pub chain_states: usize,
    /// Wall-clock cost attributed to each horizon (chain construction
    /// plus the shared uniformization pass, split by per-horizon Poisson
    /// step counts).
    pub per_horizon_cost: Vec<Duration>,
    /// Kernel counters of the solve that produced the factors.
    pub kernel: KernelStats,
    /// Wall-clock the kernel spent building its CSR form.
    pub csr_build: Duration,
    /// Wall-clock the kernel spent inside its stepping loop.
    pub spmv_time: Duration,
}

type CachedSolution = Result<DynamicSolution, CoreError>;
type Slot = Arc<OnceLock<CachedSolution>>;

const SHARDS: usize = 16;

/// Concurrent map from [`CanonicalModelKey`] to the solved dynamics of
/// its equivalence class. Sharded `Mutex<HashMap>`s keep lock contention
/// off the hot path; a per-key [`OnceLock`] guarantees each class is
/// uniformized exactly once even when many workers race on it.
///
/// Hit/miss counts are deterministic for a fixed work list regardless of
/// scheduling: every distinct key is missed exactly once (by whichever
/// worker wins the `OnceLock` initialization) and hit on every other
/// consultation.
#[derive(Debug, Default)]
pub struct QuantCache {
    shards: [Mutex<HashMap<CanonicalModelKey, Slot>>; SHARDS],
    hits: AtomicUsize,
    misses: AtomicUsize,
    saved_nanos: AtomicU64,
}

/// Aggregate statistics of a [`QuantCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Distinct model equivalence classes consulted.
    pub distinct_classes: usize,
    /// Consultations answered from the cache.
    pub hits: usize,
    /// Consultations that had to solve their class.
    pub misses: usize,
    /// Wall-clock the hits would have re-spent solving.
    pub time_saved: Duration,
}

impl CacheStats {
    /// Fraction of consultations answered from the cache (0 when the
    /// cache was never consulted).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl QuantCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        QuantCache::default()
    }

    fn shard(&self, key: &CanonicalModelKey) -> &Mutex<HashMap<CanonicalModelKey, Slot>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Return the solution for `key`, solving it with `solve` if this is
    /// the first consultation of its class. The boolean is `true` for a
    /// cache hit. Errors are cached like successes, so a failing class
    /// is attempted exactly once.
    pub(crate) fn get_or_solve(
        &self,
        key: CanonicalModelKey,
        solve: impl FnOnce() -> CachedSolution,
    ) -> (CachedSolution, bool) {
        let slot: Slot = {
            let mut shard = self.shard(&key).lock().expect("cache shard not poisoned");
            Arc::clone(shard.entry(key).or_default())
        };
        let mut solved_here = false;
        let cached = slot.get_or_init(|| {
            solved_here = true;
            let begin = Instant::now();
            let mut result = solve();
            if let Ok(solution) = &mut result {
                // Store the real cost of the solve so hits can report how
                // much wall-clock the cache saved them.
                let elapsed = begin.elapsed();
                if solution.per_horizon_cost.iter().sum::<Duration>() < elapsed {
                    distribute_evenly(&mut solution.per_horizon_cost, elapsed);
                }
            }
            result
        });
        if solved_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Ok(solution) = cached {
                let cost: Duration = solution.per_horizon_cost.iter().sum();
                self.saved_nanos.fetch_add(
                    u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX),
                    Ordering::Relaxed,
                );
            }
        }
        (cached.clone(), !solved_here)
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let distinct = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard not poisoned").len())
            .sum();
        CacheStats {
            distinct_classes: distinct,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            time_saved: Duration::from_nanos(self.saved_nanos.load(Ordering::Relaxed)),
        }
    }
}

fn distribute_evenly(costs: &mut [Duration], total: Duration) {
    if costs.is_empty() {
        return;
    }
    let share = total / u32::try_from(costs.len()).unwrap_or(1);
    for cost in costs.iter_mut() {
        *cost = share;
    }
}

#[cfg(test)]
mod key_tests {
    use super::*;
    use crate::ftc::{build_ftc_with, FtcContext};
    use sdft_ctmc::erlang;
    use sdft_ft::{Cutset, FaultTreeBuilder, NodeId};

    /// Example 3 of the paper with every node name prefixed and the
    /// failure rate parameterized; returns the tree and its {b, d}
    /// cutset (a dynamic event plus a triggered one whose trigger cone
    /// reaches back through pump 1).
    fn pump_tree(prefix: &str, lambda: f64) -> (FaultTree, Cutset) {
        let mut b = FaultTreeBuilder::new();
        let n = |s: &str| format!("{prefix}{s}");
        let a = b.static_event(&n("a"), 3e-3).unwrap();
        let bb = b
            .dynamic_event(&n("b"), erlang::repairable(1, lambda, 0.05).unwrap())
            .unwrap();
        let c = b.static_event(&n("c"), 3e-3).unwrap();
        let d = b
            .triggered_event(&n("d"), erlang::spare(lambda, 0.05).unwrap())
            .unwrap();
        let e = b.static_event(&n("e"), 3e-6).unwrap();
        let p1 = b.or(&n("pump1"), [a, bb]).unwrap();
        let p2 = b.or(&n("pump2"), [c, d]).unwrap();
        let pumps = b.and(&n("pumps"), [p1, p2]).unwrap();
        let top = b.or(&n("cooling"), [pumps, e]).unwrap();
        b.trigger(p1, d).unwrap();
        b.top(top);
        (b.build().unwrap(), Cutset::new([bb, d]))
    }

    fn key_of(tree: &FaultTree, cutset: &Cutset, treatment: TriggerTreatment) -> CanonicalModelKey {
        let ctx = FtcContext::new(tree).unwrap();
        build_ftc_with(tree, &ctx, cutset, treatment)
            .unwrap()
            .canonical_key
            .expect("dynamic cutset model carries a key")
    }

    #[test]
    fn name_isomorphic_models_share_a_key() {
        let (left_tree, left_cutset) = pump_tree("left_", 1e-3);
        let (right_tree, right_cutset) = pump_tree("right_", 1e-3);
        assert_eq!(
            key_of(&left_tree, &left_cutset, TriggerTreatment::Classified),
            key_of(&right_tree, &right_cutset, TriggerTreatment::Classified),
        );
    }

    #[test]
    fn rates_and_treatment_change_the_key() {
        let (tree, cutset) = pump_tree("x_", 1e-3);
        let (faster, faster_cutset) = pump_tree("x_", 2e-3);
        let classified = key_of(&tree, &cutset, TriggerTreatment::Classified);
        assert_ne!(
            classified,
            key_of(&faster, &faster_cutset, TriggerTreatment::Classified),
        );
        assert_ne!(
            classified,
            key_of(&tree, &cutset, TriggerTreatment::CutsetOnly),
        );
    }

    /// Three trees whose trigger cones overlap in the ways the stored
    /// signatures must reproduce: two gates sharing a subtree plus one
    /// gate triggering two events; a chain where a triggered event sits
    /// in the next event's cone; and a triggering gate nested inside
    /// another one's cone.
    fn cone_trees() -> Vec<FaultTree> {
        let spare = || erlang::spare(1e-3, 0.05).unwrap();
        let plain = || erlang::repairable(1, 2e-3, 0.05).unwrap();
        let mut trees = Vec::new();

        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.dynamic_event("y", plain()).unwrap();
        let z = b.static_event("z", 0.2).unwrap();
        let w = b.dynamic_event("w", plain()).unwrap();
        let d1 = b.triggered_event("d1", spare()).unwrap();
        let d2 = b.triggered_event("d2", spare()).unwrap();
        let d3 = b.triggered_event("d3", spare()).unwrap();
        let shared = b.and("shared", [x, y]).unwrap();
        let g1 = b.or("g1", [shared, z]).unwrap();
        let g2 = b.or("g2", [shared, w]).unwrap();
        let top = b.and("top", [g1, g2, d1, d2, d3]).unwrap();
        b.trigger(g1, d1).unwrap();
        b.trigger(g2, d2).unwrap();
        b.trigger(g2, d3).unwrap();
        b.top(top);
        trees.push(b.build().unwrap());

        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.dynamic_event("y", plain()).unwrap();
        let d2 = b.triggered_event("d2", spare()).unwrap();
        let d3 = b.triggered_event("d3", spare()).unwrap();
        let d4 = b.triggered_event("d4", spare()).unwrap();
        let g1 = b.or("g1", [x, y]).unwrap();
        let g2 = b.or("g2", [d2, x]).unwrap();
        let g3 = b.and("g3", [d3, y]).unwrap();
        let top = b.or("top", [g1, g2, g3, d4]).unwrap();
        b.trigger(g1, d2).unwrap();
        b.trigger(g2, d3).unwrap();
        b.trigger(g3, d4).unwrap();
        b.top(top);
        trees.push(b.build().unwrap());

        let mut b = FaultTreeBuilder::new();
        let x = b.static_event("x", 0.1).unwrap();
        let y = b.dynamic_event("y", plain()).unwrap();
        let v = b.dynamic_event("v", plain()).unwrap();
        let d1 = b.triggered_event("d1", spare()).unwrap();
        let d2 = b.triggered_event("d2", spare()).unwrap();
        let inner = b.or("inner", [x, y]).unwrap();
        let outer = b.and("outer", [inner, v]).unwrap();
        let top = b.and("top", [outer, d1, d2]).unwrap();
        b.trigger(inner, d1).unwrap();
        b.trigger(outer, d2).unwrap();
        b.top(top);
        trees.push(b.build().unwrap());
        trees
    }

    #[test]
    fn stored_signatures_reproduce_the_cutset_signature_encoding() {
        for tree in cone_trees() {
            let ctx = FtcContext::new(&tree).unwrap();
            let events: Vec<NodeId> = tree.basic_events().collect();
            let mut checked = 0;
            // Every set of events, so each dynamic event meets every
            // other event in some cutset.
            for mask in 1u32..1 << events.len() {
                let cutset = Cutset::new(
                    (0..events.len())
                        .filter(|i| mask >> i & 1 == 1)
                        .map(|i| events[i]),
                );
                for (treatment, tag) in [
                    (TriggerTreatment::Classified, 0),
                    (TriggerTreatment::CutsetOnly, 1),
                ] {
                    let model = build_ftc_with(&tree, &ctx, &cutset, treatment).unwrap();
                    let (Some(key), Some(model_tree)) = (&model.canonical_key, &model.tree) else {
                        continue;
                    };
                    let signatures = tree
                        .cutset_event_signatures(&Cutset::new(model.dynamic_events.iter().copied()))
                        .unwrap();
                    let mut expected = vec![b'K', 2, tag];
                    push_usize(&mut expected, signatures.len());
                    for signature in &signatures {
                        push_blob(&mut expected, signature.as_bytes());
                    }
                    push_blob(&mut expected, model_tree.structural_signature().as_bytes());
                    assert_eq!(key.as_bytes(), expected, "cutset {cutset:?}");
                    checked += 1;
                }
            }
            assert!(checked > 20, "only {checked} dynamic models");
        }
    }

    #[test]
    fn quantification_parameters_complete_the_key() {
        let (tree, cutset) = pump_tree("x_", 1e-3);
        let stem = key_of(&tree, &cutset, TriggerTreatment::Classified);
        let full = stem.with_quantification(&[24.0], 1e-12, 1000, true);
        assert_ne!(full, stem.with_quantification(&[48.0], 1e-12, 1000, true));
        assert_ne!(
            full,
            stem.with_quantification(&[24.0, 48.0], 1e-12, 1000, true)
        );
        assert_ne!(full, stem.with_quantification(&[24.0], 1e-9, 1000, true));
        assert_ne!(full, stem.with_quantification(&[24.0], 1e-12, 2000, true));
        assert_ne!(full, stem.with_quantification(&[24.0], 1e-12, 1000, false));
        assert_eq!(full, stem.with_quantification(&[24.0], 1e-12, 1000, true));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solution(factor: f64) -> DynamicSolution {
        DynamicSolution {
            factors: vec![factor],
            chain_states: 2,
            per_horizon_cost: vec![Duration::from_micros(5)],
            kernel: KernelStats {
                solves: 1,
                steps_taken: 7,
                steps_saved: 3,
                steady_state_solves: 1,
                spmv_nonzeros: 14,
            },
            csr_build: Duration::from_nanos(200),
            spmv_time: Duration::from_nanos(900),
        }
    }

    fn key(byte: u8) -> CanonicalModelKey {
        CanonicalModelKey(vec![byte])
    }

    #[test]
    fn first_consultation_solves_later_ones_hit() {
        let cache = QuantCache::new();
        let (first, hit) = cache.get_or_solve(key(1), || Ok(solution(0.5)));
        assert!(!hit);
        assert_eq!(first.unwrap().factors, vec![0.5]);
        let (second, hit) = cache.get_or_solve(key(1), || panic!("must not re-solve"));
        assert!(hit);
        assert_eq!(second.unwrap().factors, vec![0.5]);
        let stats = cache.stats();
        assert_eq!(stats.distinct_classes, 1);
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert!(stats.time_saved > Duration::ZERO);
    }

    #[test]
    fn distinct_keys_solve_independently() {
        let cache = QuantCache::new();
        let (_, hit1) = cache.get_or_solve(key(1), || Ok(solution(0.1)));
        let (_, hit2) = cache.get_or_solve(key(2), || Ok(solution(0.2)));
        assert!(!hit1 && !hit2);
        assert_eq!(cache.stats().distinct_classes, 2);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn errors_are_cached_too() {
        let cache = QuantCache::new();
        let error = || Err(CoreError::InvalidHorizon { horizon: f64::NAN });
        let (first, hit) = cache.get_or_solve(key(9), error);
        assert!(!hit && first.is_err());
        let (second, hit) = cache.get_or_solve(key(9), || panic!("must not retry"));
        assert!(hit && second.is_err());
    }

    #[test]
    fn concurrent_consultations_solve_exactly_once() {
        let cache = QuantCache::new();
        let solves = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for round in 0..50u8 {
                        let k = key(round % 5);
                        let (result, _) = cache.get_or_solve(k, || {
                            solves.fetch_add(1, Ordering::Relaxed);
                            Ok(solution(f64::from(round % 5)))
                        });
                        assert_eq!(result.unwrap().factors, vec![f64::from(round % 5)]);
                    }
                });
            }
        });
        assert_eq!(solves.load(Ordering::Relaxed), 5, "one solve per class");
        let stats = cache.stats();
        assert_eq!(stats.distinct_classes, 5);
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits, 8 * 50 - 5);
    }
}
