//! The `sdft` command-line tool: analyze SD fault trees written in the
//! plain-text format (see `sdft::ft::format`).
//!
//! ```text
//! sdft check      <file>                     validate + classify triggers
//! sdft analyze    <file> [--horizon H] [--cutoff C] [--top N] [--threads N]
//!                        [--backend mocus|bdd|hybrid] [--explain-plan]
//!                        [--sift on|off] [--max-nodes N] [--fast] [--csv OUT]
//!                        [--no-steady-state] [--progress SECS]
//! sdft mcs        <file> [--horizon H] [--cutoff C] [--top N]
//! sdft exact      <file> [--horizon H]       product-chain reference (small models)
//! sdft simulate   <file> [--horizon H] [--samples N] [--seed S]
//! sdft importance <file> [--horizon H] [--top N]
//! sdft metrics    <file>                     MTTF + steady-state unavailability
//! sdft dot        <file>                     Graphviz export to stdout
//! ```

use sdft::core::{
    analyze, classify_triggering_gates, AnalysisOptions, AnalysisResult, Backend, BackendChoice,
    CoreError, PlanReason, TriggerTreatment,
};
use sdft::ft::{dot, format, EventProbabilities, FaultTree};
use sdft::mocus::MocusOptions;
use sdft::product::{failure_probability, ProductOptions};
use sdft::sim::{simulate, SimOptions};
use std::process::ExitCode;

struct Args {
    file: String,
    horizon: f64,
    cutoff: f64,
    top: usize,
    samples: usize,
    seed: u64,
    threads: usize,
    backend: Backend,
    explain_plan: bool,
    sift: Option<bool>,
    max_nodes: Option<usize>,
    fast: bool,
    steady_state: bool,
    progress: Option<std::time::Duration>,
    csv: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sdft <check|analyze|mcs|exact|simulate|importance|metrics|dot> <file> \
         [--horizon H] [--cutoff C] [--top N] [--samples N] [--seed S] [--threads N] \
         [--backend mocus|bdd|hybrid] [--explain-plan] [--sift on|off] [--max-nodes N] \
         [--fast] [--no-steady-state] [--progress SECS] [--csv OUT]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return usage();
    };
    let Some((file, flags)) = rest.split_first() else {
        return usage();
    };
    let mut args = Args {
        file: file.clone(),
        horizon: 24.0,
        cutoff: 1e-15,
        top: 10,
        samples: 100_000,
        seed: 7,
        threads: 0,
        backend: Backend::default(),
        explain_plan: false,
        sift: None,
        max_nodes: None,
        fast: false,
        steady_state: true,
        progress: None,
        csv: None,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Option<String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("{name} needs a value");
            }
            v.cloned()
        };
        let ok = match flag.as_str() {
            "--horizon" => value("--horizon")
                .and_then(|v| v.parse().ok())
                .map(|v| args.horizon = v),
            "--cutoff" => value("--cutoff")
                .and_then(|v| v.parse().ok())
                .map(|v| args.cutoff = v),
            "--top" => value("--top")
                .and_then(|v| v.parse().ok())
                .map(|v| args.top = v),
            "--samples" => value("--samples")
                .and_then(|v| v.parse().ok())
                .map(|v| args.samples = v),
            "--seed" => value("--seed")
                .and_then(|v| v.parse().ok())
                .map(|v| args.seed = v),
            "--threads" => value("--threads")
                .and_then(|v| v.parse().ok())
                .map(|v| args.threads = v),
            "--backend" => value("--backend").and_then(|v| match v.parse() {
                Ok(backend) => {
                    args.backend = backend;
                    Some(())
                }
                Err(e) => {
                    eprintln!("{e}");
                    None
                }
            }),
            "--csv" => value("--csv").map(|v| args.csv = Some(v)),
            "--explain-plan" => {
                args.explain_plan = true;
                Some(())
            }
            "--sift" => value("--sift").and_then(|v| match v.as_str() {
                "on" => {
                    args.sift = Some(true);
                    Some(())
                }
                "off" => {
                    args.sift = Some(false);
                    Some(())
                }
                other => {
                    eprintln!("--sift expects on or off, got {other:?}");
                    None
                }
            }),
            "--max-nodes" => value("--max-nodes")
                .and_then(|v| v.parse().ok())
                .filter(|&v: &usize| v > 0)
                .map(|v| args.max_nodes = Some(v)),
            "--fast" => {
                args.fast = true;
                Some(())
            }
            "--no-steady-state" => {
                args.steady_state = false;
                Some(())
            }
            // Seconds too large for a `Duration` are a usage error, not
            // a panic; so are zero and values that round to it.
            "--progress" => value("--progress")
                .and_then(|v| v.parse().ok())
                .and_then(|v: f64| std::time::Duration::try_from_secs_f64(v).ok())
                .filter(|interval| !interval.is_zero())
                .map(|interval| args.progress = Some(interval)),
            other => {
                eprintln!("unknown flag {other:?}");
                None
            }
        };
        if ok.is_none() {
            return usage();
        }
    }

    let text = match std::fs::read_to_string(&args.file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let tree = match format::parse_str(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };

    let result = match command.as_str() {
        "check" => cmd_check(&tree),
        "analyze" => cmd_analyze(&tree, &args),
        "mcs" => cmd_mcs(&tree, &args),
        "exact" => cmd_exact(&tree, &args),
        "simulate" => cmd_simulate(&tree, &args),
        "importance" => cmd_importance(&tree, &args),
        "metrics" => cmd_metrics(&tree),
        "dot" => {
            print!("{}", dot::to_dot(&tree));
            Ok(())
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn cmd_check(tree: &FaultTree) -> CliResult {
    println!(
        "valid SD fault tree: {} basic events ({} dynamic), {} gates, top {:?}",
        tree.num_basic_events(),
        tree.dynamic_basic_events().count(),
        tree.num_gates(),
        tree.name(tree.top()),
    );
    let stats = tree.statistics();
    println!(
        "structure: depth {}, max fan-in {}, gates {} and / {} or / {} atleast, \
         {} triggered events",
        stats.depth,
        stats.max_fan_in,
        stats.and_gates,
        stats.or_gates,
        stats.atleast_gates,
        stats.triggered_events,
    );
    let mods = sdft::ft::modules(tree);
    println!("independent modules: {}", mods.len());
    let classes = classify_triggering_gates(tree);
    if classes.is_empty() {
        println!("no triggering gates");
    } else {
        println!("triggering gates ({}):", classes.len());
        let mut sorted: Vec<_> = classes.into_iter().collect();
        sorted.sort_by_key(|&(gate, _)| gate);
        for (gate, class) in sorted {
            let targets: Vec<&str> = tree
                .triggers_of(gate)
                .iter()
                .map(|&e| tree.name(e))
                .collect();
            println!(
                "  {:<24} {class}  (triggers: {})",
                tree.name(gate),
                targets.join(", ")
            );
        }
    }
    Ok(())
}

fn analysis_options(args: &Args) -> AnalysisOptions {
    let mut options = AnalysisOptions::new(args.horizon);
    options.mocus = MocusOptions::with_cutoff(args.cutoff);
    options.backend = args.backend;
    options.threads = args.threads;
    if args.fast {
        options.treatment = TriggerTreatment::CutsetOnly;
    }
    options.steady_state_detection = args.steady_state;
    options.progress = args.progress;
    if let Some(enabled) = args.sift {
        options.bdd.sift.enabled = enabled;
    }
    if let Some(max_nodes) = args.max_nodes {
        options.bdd.max_nodes = max_nodes;
    }
    options
}

fn cmd_analyze(tree: &FaultTree, args: &Args) -> CliResult {
    let result = match analyze(tree, &analysis_options(args)) {
        Ok(result) => result,
        Err(CoreError::Bdd(e)) => {
            if args.backend == Backend::Bdd {
                eprintln!(
                    "hint: the exact diagram did not fit the node budget; rerun with \
                     --backend hybrid to let the planner fall back to MOCUS per module, \
                     or raise --max-nodes"
                );
            }
            return Err(Box::new(CoreError::Bdd(e)));
        }
        Err(e) => return Err(e.into()),
    };
    println!(
        "failure frequency over {}h: {:.4e}  (static worst case {:.4e})",
        args.horizon, result.frequency, result.static_rea
    );
    if let Some(exact) = result.exact_static {
        println!(
            "exact static probability: {exact:.4e}  (REA overshoot {:+.2e})",
            result.static_rea - exact
        );
    }
    println!(
        "{} cutsets above {:.0e} ({} dynamic, largest chain {} states) via {}",
        result.stats.num_cutsets,
        args.cutoff,
        result.stats.num_dynamic_cutsets,
        result.stats.max_chain_states,
        result.stats.backend,
    );
    if matches!(result.stats.backend, Backend::Bdd | Backend::Hybrid) {
        println!(
            "bdd: {} modules ({} external, {} exact), {} nodes total (largest {}), \
             {} weighted orders, apply cache {} hits / {} misses, \
             sift {} passes / {} swaps",
            result.stats.bdd_modules,
            result.stats.bdd_external_modules,
            result.stats.bdd_exact_modules,
            result.stats.bdd_total_nodes,
            result.stats.bdd_max_module_nodes,
            result.stats.bdd_weighted_orders,
            result.stats.bdd_apply_hits,
            result.stats.bdd_apply_misses,
            result.stats.bdd_sift_passes,
            result.stats.bdd_sift_swaps,
        );
    }
    print_plan(&result, args.explain_plan);
    println!(
        "model cache: {} distinct classes, {:.1}% hit rate, {:?} saved",
        result.stats.distinct_model_classes,
        result.stats.cache_hit_rate() * 100.0,
        result.timings.quantification_saved,
    );
    println!(
        "kernel: {} solves, {} DTMC steps ({} saved by steady-state detection \
         in {} solves), CSR build {:?}",
        result.stats.kernel_solves,
        result.stats.kernel_steps,
        result.stats.kernel_steps_saved,
        result.stats.steady_state_solves,
        result.timings.csr_build,
    );
    let spmv_seconds = result.timings.spmv.as_secs_f64();
    let spmv_rate = if spmv_seconds > 0.0 {
        result.stats.kernel_spmv_nonzeros as f64 / spmv_seconds / 1e6
    } else {
        0.0
    };
    println!(
        "spmv: {} nonzeros in {:?} ({:.1}M nz/s)",
        result.stats.kernel_spmv_nonzeros, result.timings.spmv, spmv_rate,
    );
    println!(
        "mocus: {} partials processed, {} pruned",
        result.stats.mocus_partials_processed, result.stats.mocus_partials_pruned,
    );
    println!(
        "memory peaks: {} partials ({} B), {} pending cutsets",
        result.stats.mocus_peak_live_partials,
        result.stats.mocus_peak_partial_bytes,
        result.stats.peak_pending_cutsets,
    );
    println!(
        "times: worst-case {:?}, translation {:?}, MCS {:?}, quantification {:?}, \
         stage overlap {:?}",
        result.timings.worst_case,
        result.timings.translation,
        result.timings.generation_busy,
        result.timings.quantification,
        result.timings.stream_overlap,
    );
    println!(
        "stage busy: generation {:?}, filter {:?}, quantification {:?}",
        result.timings.generation_busy, result.timings.filter_busy, result.timings.quant_busy,
    );
    if let Some(filter) = result.stats.filter_shard_stats.first() {
        println!(
            "filter: {} candidates, {} probes, {} rejects",
            filter.offered, filter.probes, filter.rejects,
        );
    }
    println!("\ntop cutsets:");
    for report in result.cutsets.iter().take(args.top) {
        let names: Vec<&str> = report
            .cutset
            .events()
            .iter()
            .map(|&e| tree.name(e))
            .collect();
        println!("  {:>12.4e}  {{{}}}", report.probability, names.join(", "));
    }
    if let Some(path) = &args.csv {
        let file = std::fs::File::create(path)?;
        result.write_csv(tree, std::io::BufWriter::new(file))?;
        println!("\nper-cutset records written to {path}");
    }
    Ok(())
}

/// Render the per-module plan table of the `bdd` and `hybrid` backends.
///
/// The short form caps the table at 24 rows; `--explain-plan` prints every
/// module together with the planner score that drove the decision.
fn print_plan(result: &AnalysisResult, explain: bool) {
    if result.module_plan.is_empty() {
        return;
    }
    let built = result
        .module_plan
        .iter()
        .filter(|e| e.choice == BackendChoice::Bdd)
        .count();
    let replanned = result
        .module_plan
        .iter()
        .filter(|e| matches!(e.reason, PlanReason::BudgetExhausted { .. }))
        .count();
    println!(
        "plan: {} modules — {} bdd, {} mocus ({} re-planned after budget exhaustion)",
        result.module_plan.len(),
        built,
        result.module_plan.len() - built,
        replanned,
    );
    println!(
        "  {:<28} {:<7} {:>12} {:>6} {:>6}  reason",
        "module", "backend", "size", "sift", "exact"
    );
    let cap = if explain {
        result.module_plan.len()
    } else {
        24
    };
    for entry in result.module_plan.iter().take(cap) {
        let (backend, size) = match entry.choice {
            BackendChoice::Bdd => ("bdd", format!("{} nodes", entry.nodes)),
            BackendChoice::Mocus => ("mocus", format!("{} sets", entry.candidates)),
        };
        let reason = match entry.reason {
            PlanReason::EstimateFits => format!("estimate {} fits", entry.score.estimated_nodes),
            PlanReason::EstimateExceedsBudget => {
                format!("estimate {} exceeds budget", entry.score.estimated_nodes)
            }
            PlanReason::BudgetExhausted { peak_nodes } => {
                format!("budget exhausted at {peak_nodes} nodes")
            }
        };
        println!(
            "  {:<28} {:<7} {:>12} {:>6} {:>6}  {}",
            entry.name,
            backend,
            size,
            entry.sift_passes,
            if entry.exact { "yes" } else { "no" },
            reason,
        );
        if explain {
            println!(
                "    score: {} events ({} dynamic, {} repeated), {} nested modules, \
                 {} gates ({} and / {} or / {} atleast), {} occurrences, \
                 estimated {} nodes, structural upper bound {:.3e}",
                entry.score.events,
                entry.score.dynamic_events,
                entry.score.repeated,
                entry.score.nested,
                entry.score.gates,
                entry.score.and_gates,
                entry.score.or_gates,
                entry.score.atleast_gates,
                entry.score.occurrences,
                entry.score.estimated_nodes,
                entry.score.upper_bound,
            );
            if let Some(p) = entry.probability {
                println!("    module probability: {p:.6e}");
            }
        }
    }
    if result.module_plan.len() > cap {
        println!(
            "  … {} more modules (rerun with --explain-plan to list all)",
            result.module_plan.len() - cap
        );
    }
}

fn cmd_mcs(tree: &FaultTree, args: &Args) -> CliResult {
    let probs = sdft::core::worst_case_probabilities(tree, args.horizon, 1e-12)?;
    let translated = sdft::core::translate(tree, &probs)?;
    let static_probs = EventProbabilities::from_static(&translated.tree)?;
    let mocus_options = MocusOptions::with_cutoff(args.cutoff);
    let mcs = sdft::mocus::minimal_cutsets(&translated.tree, &static_probs, &mocus_options)?;
    let mut list = translated.cutsets_to_original(&mcs);
    list.sort_by_probability_desc(|e| probs.get(e));
    println!(
        "{} minimal cutsets above {:.0e} (REA {:.4e}):",
        list.len(),
        args.cutoff,
        list.rare_event_approximation(|e| probs.get(e))
    );
    for cutset in list.iter().take(args.top) {
        let names: Vec<&str> = cutset.events().iter().map(|&e| tree.name(e)).collect();
        println!(
            "  {:>12.4e}  {{{}}}",
            cutset.probability_with(|e| probs.get(e)),
            names.join(", ")
        );
    }
    Ok(())
}

fn cmd_exact(tree: &FaultTree, args: &Args) -> CliResult {
    let p = failure_probability(tree, args.horizon, &ProductOptions::default())?;
    println!(
        "exact product-chain failure probability over {}h: {:.6e}",
        args.horizon, p
    );
    Ok(())
}

fn cmd_simulate(tree: &FaultTree, args: &Args) -> CliResult {
    let result = simulate(
        tree,
        &SimOptions {
            samples: args.samples,
            horizon: args.horizon,
            seed: args.seed,
        },
    )?;
    println!("simulation over {}h: {result}", args.horizon);
    Ok(())
}

fn cmd_metrics(tree: &FaultTree) -> CliResult {
    use sdft::ctmc::StationaryOptions;
    use sdft::product::{ProductChain, ProductOptions};
    let chain = ProductChain::build(tree, &ProductOptions::default())?;
    println!("product chain: {} states", chain.num_states());
    let opts = StationaryOptions::default();
    let mttf = chain.chain().mean_time_to_failure(&opts)?;
    if mttf.is_infinite() {
        println!("mean time to failure: unreachable (the top gate can never fail)");
    } else {
        println!(
            "mean time to failure: {mttf:.3} h ({:.2} years)",
            mttf / 8766.0
        );
    }
    let unavailability = chain.steady_state_unavailability(&opts)?;
    println!("steady-state unavailability: {unavailability:.4e}");
    Ok(())
}

fn cmd_importance(tree: &FaultTree, args: &Args) -> CliResult {
    let result = analyze(tree, &analysis_options(args))?;
    println!(
        "time-aware Fussell–Vesely importance (frequency {:.4e}):",
        result.frequency
    );
    for (event, share) in result.fussell_vesely().into_iter().take(args.top) {
        println!("  {:<24} {share:.4}", tree.name(event));
    }
    Ok(())
}
