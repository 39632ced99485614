//! The differential oracle campaign as a CI gate: a fixed-seed run of
//! generated SD trees cross-checked across the engine matrix (cutset
//! pipeline, exact product chain, BDD, simulation, metamorphic
//! rewrites), plus replay of every committed counterexample in
//! `tests/corpus/`. The long-form harness with larger budgets lives in
//! `crates/bench/src/bin/oracle_long.rs`.

use sdft::oracle::{check_tree, run_oracle, CheckConfig, OracleConfig};
use std::path::Path;

/// The main gate: ≥ 200 generated trees from the fixed default seed,
/// across every generator preset, with zero disagreements. Any failure
/// prints the shrunk counterexamples in replayable `sdft-ft` form —
/// commit them under `tests/corpus/` once the root cause is fixed.
#[test]
fn fixed_seed_campaign_has_no_disagreements() {
    let cfg = OracleConfig::default();
    assert!(cfg.trees >= 200, "campaign must cover at least 200 trees");
    let report = run_oracle(&cfg);
    assert_eq!(report.trees_run, cfg.trees);
    assert!(
        report.counterexamples.is_empty(),
        "oracle found disagreements:\n{}",
        report.summary()
    );
    // Sanity: the run exercised real checks rather than skipping
    // everything.
    assert!(report.outcome.passed > 10 * cfg.trees);
    // The digest pin. The digest folds every tree's seed and check
    // tallies (passed, skipped, disagreeing), so a change that makes any
    // check pass, skip or fail differently moves it. The default config
    // is the `oracle_long --trees 220` campaign, which prints the same
    // digest. A change that adds or removes a check arm moves it on
    // purpose, and updates this pin in the same diff.
    assert_eq!(
        format!("{:016x}", report.digest),
        "e1fe0214d6fd8e96",
        "oracle digest moved:\n{}",
        report.summary()
    );
}

/// Determinism lock: two runs of the same prefix produce bitwise-equal
/// digests (the digest folds every tree's check tallies and seed), so
/// a counterexample seed printed by one run replays in another.
#[test]
fn campaign_prefix_is_bitwise_deterministic() {
    let cfg = OracleConfig {
        trees: 24,
        check: CheckConfig {
            sim_samples: 4_000,
            ..CheckConfig::default()
        },
        ..OracleConfig::default()
    };
    let a = run_oracle(&cfg);
    let b = run_oracle(&cfg);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.outcome, b.outcome);
}

/// Every committed counterexample replays through the full check
/// matrix without disagreement: once a defect is fixed, its minimal
/// tree guards against regression forever.
#[test]
fn corpus_counterexamples_replay_cleanly() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut replayed = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ft"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let tree = sdft::ft::format::parse_str(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let outcome = check_tree(&tree, &CheckConfig::default());
        assert!(
            outcome.disagreements.is_empty(),
            "{} disagrees: {:?}",
            path.display(),
            outcome.disagreements
        );
        assert!(outcome.passed > 0, "{} ran no checks", path.display());
        replayed += 1;
    }
    assert!(
        replayed >= 3,
        "corpus unexpectedly empty ({replayed} files)"
    );
}
