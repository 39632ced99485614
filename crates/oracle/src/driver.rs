//! The deterministic oracle driver: generate → check → shrink → report.

use crate::check::{check_spec, CheckConfig, Outcome};
use crate::gen::{generate_seeded, GeneratorConfig};
use crate::shrink::shrink;
use crate::spec::TreeSpec;
use std::time::{Duration, Instant};

/// Configuration of one oracle run.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// Master seed; every per-tree stream is derived from it, so a run
    /// is fully reproducible from `(seed, trees)`.
    pub seed: u64,
    /// Number of trees to generate and check.
    pub trees: usize,
    /// Per-tree check tolerances and budgets.
    pub check: CheckConfig,
    /// Maximum re-checks the shrinker spends per counterexample.
    pub shrink_attempts: usize,
    /// Optional wall-clock budget: once exceeded, no *new* trees are
    /// started (the report then covers fewer than `trees` trees, and
    /// determinism of the covered prefix is preserved). `None` — used
    /// by the CI test — always runs exactly `trees` trees.
    pub time_budget: Option<Duration>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            seed: 0xD5_F7_0C_1E,
            trees: 220,
            check: CheckConfig::default(),
            shrink_attempts: 300,
            time_budget: None,
        }
    }
}

/// A minimized, replayable counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Index of the offending tree within the run.
    pub index: usize,
    /// The derived per-tree seed (replays the generator directly).
    pub tree_seed: u64,
    /// Name of the first check that disagreed.
    pub check: String,
    /// Evidence from the original (unshrunk) failure.
    pub details: String,
    /// The original offending spec.
    pub spec: TreeSpec,
    /// The shrunk spec (still failing the same check).
    pub minimized: TreeSpec,
    /// The shrunk tree in the `sdft-ft` text format — commit this under
    /// `tests/corpus/` to replay it forever.
    pub minimized_text: String,
}

/// Aggregate report of one oracle run.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// Trees actually generated and checked (< `trees` only when a
    /// time budget cut the run short).
    pub trees_run: usize,
    /// Sum of per-tree check tallies.
    pub outcome: Outcome,
    /// Minimized counterexamples, one per disagreeing tree.
    pub counterexamples: Vec<Counterexample>,
    /// Order-sensitive digest over every checked tree's frequency bits;
    /// two runs with the same config must produce the same digest.
    pub digest: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The preset mix cycled through by tree index: mostly product-checkable
/// small trees, with medium (simulation-refereed), static-only,
/// classifier-violating, and trigger-free medium shapes in rotation.
#[must_use]
pub fn preset_for(index: usize) -> GeneratorConfig {
    match index % 6 {
        0 | 1 => GeneratorConfig::small(),
        2 => GeneratorConfig::medium(),
        3 => GeneratorConfig::static_only(),
        4 => GeneratorConfig::violating(),
        _ => {
            let mut cfg = GeneratorConfig::medium();
            cfg.triggered_events = (0, 0); // two-sided sim sandwich applies
            cfg
        }
    }
}

/// Run the oracle: generate `cfg.trees` trees from the master seed,
/// cross-check each across the engine matrix, and shrink any
/// disagreement to a minimal replayable counterexample.
#[must_use]
pub fn run_oracle(cfg: &OracleConfig) -> OracleReport {
    let start = Instant::now();
    let mut report = OracleReport {
        trees_run: 0,
        outcome: Outcome::default(),
        counterexamples: Vec::new(),
        digest: 0x6F_72_61_63_6C_65, // "oracle"
    };
    for index in 0..cfg.trees {
        if let Some(budget) = cfg.time_budget {
            if start.elapsed() > budget {
                break;
            }
        }
        let tree_seed = splitmix64(cfg.seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let preset = preset_for(index);
        let spec = generate_seeded(&preset, tree_seed);
        let mut check = cfg.check.clone();
        check.sim_seed = splitmix64(tree_seed ^ 0x51D);
        // Cycle the engine's thread count (1 to 8 quantification
        // workers); results are thread-count-invariant, so the digest
        // must not move.
        check.threads = [1, 2, 4, 8][index % 4];
        // Cycle sifting on/off and the hybrid planner's node budget:
        // reordering is semantically invisible and the hybrid backend is
        // cutset-identical to MOCUS for every plan split, so neither
        // cycle may move the digest.
        check.sift = index % 2 == 0;
        check.hybrid_max_nodes = [20_000_000, 64, 2][index % 3];
        let outcome = check_spec(&spec, &check);
        report.trees_run += 1;
        report.digest = splitmix64(
            report.digest
                ^ (outcome.passed as u64)
                ^ ((outcome.skipped as u64) << 20)
                ^ ((outcome.disagreements.len() as u64) << 40)
                ^ tree_seed,
        );
        if let Some(first) = outcome.disagreements.first() {
            let minimized = shrink(&spec, &check, &first.check, cfg.shrink_attempts);
            let minimized_text = minimized
                .to_ft_text()
                .unwrap_or_else(|e| format!("# unserializable minimized spec: {e}\n"));
            report.counterexamples.push(Counterexample {
                index,
                tree_seed,
                check: first.check.clone(),
                details: first.details.clone(),
                spec,
                minimized,
                minimized_text,
            });
        }
        report.outcome.merge(outcome);
    }
    report
}

impl OracleReport {
    /// Multi-line human-readable summary, including every minimized
    /// counterexample in replayable form.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "oracle: {} trees, {} checks passed, {} skipped, {} disagreements (digest {:016x})",
            self.trees_run,
            self.outcome.passed,
            self.outcome.skipped,
            self.outcome.disagreements.len(),
            self.digest,
        );
        for ce in &self.counterexamples {
            let _ = writeln!(
                s,
                "\n--- tree #{} (seed {:#x}) failed check {:?}\n{}\nminimized tree:\n{}",
                ce.index, ce.tree_seed, ce.check, ce.details, ce.minimized_text
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config(trees: usize) -> OracleConfig {
        OracleConfig {
            trees,
            check: CheckConfig {
                sim_samples: 2_000,
                check_cache_consistency: false,
                ..CheckConfig::default()
            },
            ..OracleConfig::default()
        }
    }

    #[test]
    fn small_run_is_deterministic() {
        let cfg = fast_config(12);
        let a = run_oracle(&cfg);
        let b = run_oracle(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.trees_run, 12);
    }

    #[test]
    fn time_budget_cuts_the_run_short() {
        let mut cfg = fast_config(10_000);
        cfg.time_budget = Some(Duration::from_millis(200));
        let report = run_oracle(&cfg);
        assert!(report.trees_run < 10_000);
        assert!(report.trees_run > 0);
    }
}
