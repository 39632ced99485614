//! Property-based tests for the CSR uniformization kernel: on random
//! chains, the kernel with steady-state detection disabled must be
//! *bitwise* identical to the original dense-loop implementation (kept
//! in `reference/`), and with detection enabled it must stay within the
//! documented error bound of the full Poisson window.

mod reference;

use proptest::prelude::*;
use sdft_ctmc::{
    kernel, reach_probability_many_with, transient_distribution_many_with, Ctmc, CtmcBuilder,
    CtmcError, CtmcRows, PoissonWeights, SolverOptions, SolverWorkspace,
};

/// A compact description of a random chain: transitions reference
/// states by modular index, so every spec builds a valid chain.
#[derive(Debug, Clone)]
struct ChainSpec {
    states: usize,
    transitions: Vec<(usize, usize, f64)>,
    failed: Vec<usize>,
    initial: usize,
}

fn arb_chain_spec() -> impl Strategy<Value = ChainSpec> {
    // State references use modular indexing, so every spec is valid.
    (
        2usize..6,
        prop::collection::vec((0usize..100, 0usize..100, 0.0f64..2.0), 1..12),
        prop::collection::vec(0usize..100, 0..3),
        0usize..100,
    )
        .prop_map(|(states, transitions, failed, initial)| ChainSpec {
            states,
            transitions,
            failed,
            initial,
        })
}

fn build_chain(spec: &ChainSpec) -> Ctmc {
    let n = spec.states;
    let mut b = CtmcBuilder::new(n);
    b.initial(spec.initial % n, 1.0);
    for &(from, to, rate) in &spec.transitions {
        b.rate(from % n, to % n, rate);
    }
    for &state in &spec.failed {
        b.failed(state % n);
    }
    b.build().expect("spec produces a valid chain")
}

const HORIZONS: [f64; 3] = [0.0, 1.5, 24.0];
const EPSILON: f64 = 1e-12;

fn exact() -> SolverOptions {
    SolverOptions {
        steady_state_detection: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With steady-state detection off, the CSR kernel performs the
    /// same floating-point operations as the dense loop — results must
    /// match bit for bit, for both the absorbing reach solve and the
    /// plain transient solve, sharing one workspace.
    #[test]
    fn csr_kernel_is_bitwise_equal_to_the_dense_loop(spec in arb_chain_spec()) {
        let chain = build_chain(&spec);
        let mut ws = SolverWorkspace::new();

        let (reach, _) =
            reach_probability_many_with(&chain, &HORIZONS, EPSILON, &exact(), &mut ws).unwrap();
        let expected = reference::reach_probability_many(&chain, &HORIZONS, EPSILON).unwrap();
        for (i, (a, b)) in reach.iter().zip(&expected).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "reach horizon {}: {} vs {}", i, a, b);
        }

        let (dists, _) =
            transient_distribution_many_with(&chain, &HORIZONS, EPSILON, &exact(), &mut ws)
                .unwrap();
        let expected = reference::transient_distribution_many(&chain, &HORIZONS, EPSILON).unwrap();
        for (pi, reference_pi) in dists.iter().zip(&expected) {
            for (s, (a, b)) in pi.iter().zip(reference_pi).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "state {}: {} vs {}", s, a, b);
            }
        }
    }

    /// With steady-state detection on (the default), results may close
    /// the Poisson series early but must stay within 2ε of the full
    /// window — we allow a comfortable 1e-9 at ε = 1e-12.
    #[test]
    fn steady_state_detection_stays_within_tolerance(spec in arb_chain_spec()) {
        let chain = build_chain(&spec);
        let mut ws = SolverWorkspace::new();

        let (reach, _) = reach_probability_many_with(
            &chain, &HORIZONS, EPSILON, &SolverOptions::default(), &mut ws,
        ).unwrap();
        let expected = reference::reach_probability_many(&chain, &HORIZONS, EPSILON).unwrap();
        for (a, b) in reach.iter().zip(&expected) {
            prop_assert!((a - b).abs() <= 1e-9, "{} vs {}", a, b);
        }

        let (dists, _) = transient_distribution_many_with(
            &chain, &HORIZONS, EPSILON, &SolverOptions::default(), &mut ws,
        ).unwrap();
        let expected = reference::transient_distribution_many(&chain, &HORIZONS, EPSILON).unwrap();
        for (pi, reference_pi) in dists.iter().zip(&expected) {
            for (a, b) in pi.iter().zip(reference_pi) {
                prop_assert!((a - b).abs() <= 1e-9, "{} vs {}", a, b);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The blocked SpMV kernel must be bitwise-identical to the scalar
    /// reference on arbitrary CSR matrices: empty rows, duplicate and
    /// never-referenced (dangling) columns, row lengths not divisible by
    /// the lane width, and zero-mass states.
    #[test]
    fn blocked_spmv_is_bitwise_equal_to_the_scalar_reference(
        row_specs in prop::collection::vec(
            prop::collection::vec((0usize..100, 0.0f64..0.5), 0..10),
            1..16,
        ),
        masses in prop::collection::vec((0usize..4, 0.0f64..1.0), 1..16),
    ) {
        let n = row_specs.len();
        let mut row_offsets = vec![0u32];
        let mut cols = Vec::new();
        let mut probs = Vec::new();
        for row in &row_specs {
            for &(c, p) in row {
                cols.push((c % n) as u32);
                probs.push(p);
            }
            row_offsets.push(u32::try_from(cols.len()).unwrap());
        }
        let current: Vec<f64> = (0..n)
            .map(|s| {
                let (zero, m) = masses[s % masses.len()];
                if zero == 0 { 0.0 } else { m }
            })
            .collect();
        let mut scalar = vec![0.0f64; n];
        let mut blocked = vec![0.0f64; n];
        reference::spmv_scalar(&row_offsets, &cols, &probs, &current, &mut scalar);
        kernel::spmv_blocked(&row_offsets, &cols, &probs, &current, &mut blocked);
        for (s, (a, b)) in scalar.iter().zip(&blocked).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "state {}: {} vs {}", s, a, b);
        }
    }

    /// A shared multi-horizon solve must return bitwise-identical
    /// per-horizon results to solving each horizon alone — with
    /// steady-state detection both off and on (where it may close some
    /// horizons mid-sequence while others keep stepping).
    #[test]
    fn shared_multi_horizon_solve_matches_independent_solves_bitwise(spec in arb_chain_spec()) {
        let chain = build_chain(&spec);
        let horizons = [0.5, 1.5, 24.0, 96.0];
        for options in [exact(), SolverOptions::default()] {
            let mut ws = SolverWorkspace::new();
            let (shared, _) =
                reach_probability_many_with(&chain, &horizons, EPSILON, &options, &mut ws)
                    .unwrap();
            for (h, &t) in horizons.iter().enumerate() {
                let mut solo = SolverWorkspace::new();
                let (alone, _) =
                    reach_probability_many_with(&chain, &[t], EPSILON, &options, &mut solo)
                        .unwrap();
                prop_assert_eq!(
                    shared[h].to_bits(), alone[0].to_bits(),
                    "horizon {}: {} vs {}", t, shared[h], alone[0]
                );
            }
        }
    }
}

/// Regression: on a stiff repairable chain the detector must fire, cut
/// the step count by an order of magnitude, and still agree with the
/// dense loop to well under the error bound.
#[test]
fn stiff_chain_converges_early_and_agrees_with_the_dense_loop() {
    let chain = CtmcBuilder::new(2)
        .initial(0, 1.0)
        .rate(0, 1, 120.0)
        .rate(1, 0, 80.0)
        .failed(1)
        .build()
        .unwrap();
    let horizons = [50.0];
    let mut ws = SolverWorkspace::new();
    let (dists, stats) = transient_distribution_many_with(
        &chain,
        &horizons,
        1e-10,
        &SolverOptions::default(),
        &mut ws,
    )
    .unwrap();
    assert!(
        stats.steady_state_step.is_some(),
        "detector must fire on a stiff chain"
    );
    assert!(
        stats.steps_taken * 10 < stats.steps_budget,
        "expected an order-of-magnitude saving: took {} of {}",
        stats.steps_taken,
        stats.steps_budget
    );
    let expected = reference::transient_distribution_many(&chain, &horizons, 1e-10).unwrap();
    for (a, b) in dists[0].iter().zip(&expected[0]) {
        assert!((a - b).abs() <= 1e-9, "{a} vs {b}");
    }
}
