//! Seeded benchmark of the SD fault tree analysis, end to end and per
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--chrome-trace FILE]
//! ```
//!
//! `--trace 0` times `analyze_horizons` with default options (streaming,
//! all cores) on the workload for `T` seconds (three passes at least)
//! after a warm-up pass and prints the end-to-end metrics. `--trace 1`
//! replays the workload single-threaded through the layers' public
//! functions under spans and prints the per-layer metrics;
//! `--chrome-trace` also writes the replay's spans as Chrome trace-event
//! JSON. Either way every output is checked, and the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

#[cfg(test)]
mod json;
mod metrics;
mod references;
mod replay;
mod stats;
mod trace;
mod workloads;

use sdft_core::{analyze_horizons, AnalysisResult, CoreError};
use std::time::{Duration, Instant};
use workloads::Analysis;

const USAGE: &str = "usage: sdft-benchmark --workload NAME [--seed S] [--seconds T] \
                     [--trace 0|1] [--chrome-trace FILE]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    chrome_trace: Option<String>,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        chrome_trace: None,
    };
    let mut raw = raw.into_iter();
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--chrome-trace" => args.chrome_trace = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match outcome {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("check failed: {problem}");
            }
            let correct = outcome.problems.is_empty();
            let catalog = if args.trace {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            };
            println!(
                "{}",
                metrics::result_line(
                    correct,
                    outcome.attempted,
                    outcome.failed,
                    catalog,
                    &outcome.metrics
                )
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

/// Build the workload several times and report the median build time;
/// cheap set-ups repeat until a second has passed so the median is
/// steady.
fn set_up(args: &Args) -> Result<(Vec<Analysis>, f64), String> {
    let mut times = Vec::new();
    let begin = Instant::now();
    loop {
        let (built, took) = timed(|| workloads::build(&args.workload, args.seed));
        let analyses = built?;
        times.push(took.as_secs_f64());
        if times.len() >= 25 || (times.len() >= 3 && begin.elapsed() >= Duration::from_secs(1)) {
            return Ok((analyses, stats::summarize(&times).median));
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let begin = Instant::now();
    let out = f();
    (out, begin.elapsed())
}

type AnalysisRun = (Result<Vec<AnalysisResult>, CoreError>, Duration);

/// One pass over the workload: every analysis, each timed on its own.
fn run_pass(
    analyses: &[Analysis],
    adjust: impl Fn(&mut sdft_core::AnalysisOptions),
) -> Vec<AnalysisRun> {
    analyses
        .iter()
        .map(|a| {
            let mut options = a.options;
            adjust(&mut options);
            timed(|| analyze_horizons(&a.tree, &options, &a.horizons))
        })
        .collect()
}

/// FNV-1a over everything an analysis reports that must repeat bit for
/// bit: frequencies, exact static probabilities, and every cutset with
/// its probability, in report order.
fn digest(results: &[AnalysisResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in results {
        feed(r.frequency.to_bits());
        feed(r.static_rea.to_bits());
        feed(r.exact_static.map_or(u64::MAX, f64::to_bits));
        feed(r.cutsets.len() as u64);
        for report in &r.cutsets {
            feed(report.cutset.order() as u64);
            for e in report.cutset.events() {
                feed(e.index() as u64);
            }
            feed(report.probability.to_bits());
        }
    }
    h
}

/// Per-pass fingerprint: each analysis's digest, plus totals.
struct Fingerprint {
    digests: Vec<u64>,
    cutsets: u64,
    classes: u64,
    quantifications: u64,
}

impl Fingerprint {
    fn combined(&self) -> u64 {
        self.digests.iter().fold(0, |acc, d| acc.rotate_left(5) ^ d)
    }
}

/// Fingerprint a pass; also returns a description of each analysis that
/// failed (its digest is recorded as 0).
fn fingerprint(pass: &[AnalysisRun]) -> (Fingerprint, Vec<String>) {
    let mut fp = Fingerprint {
        digests: Vec::new(),
        cutsets: 0,
        classes: 0,
        quantifications: 0,
    };
    let mut errors = Vec::new();
    for (i, (result, _)) in pass.iter().enumerate() {
        match result {
            Ok(results) => {
                fp.digests.push(digest(results));
                fp.cutsets += results[0].stats.num_cutsets as u64;
                fp.classes += results[0].stats.distinct_model_classes as u64;
                fp.quantifications += (results[0].stats.num_cutsets * results.len()) as u64;
            }
            Err(error) => {
                fp.digests.push(0);
                errors.push(format!("analysis {i}: {error}"));
            }
        }
    }
    (fp, errors)
}

/// Compare a pass against the expected fingerprint; returns how many
/// analyses failed or disagreed, with their descriptions.
fn check_pass(pass: &[AnalysisRun], expected: &Fingerprint, problems: &mut Vec<String>) -> u64 {
    let (fp, errors) = fingerprint(pass);
    let mut failed = errors.len() as u64;
    problems.extend(errors);
    for (i, (got, want)) in fp.digests.iter().zip(&expected.digests).enumerate() {
        if got != want && pass[i].0.is_ok() {
            failed += 1;
            problems.push(format!("analysis {i}: output differs from the first pass"));
        }
    }
    failed
}

/// Compare a pass with the pinned seed-0 outputs, if the seed has them;
/// a mismatch fails every analysis of the pass.
fn check_reference(
    args: &Args,
    fp: &Fingerprint,
    analyses: usize,
    problems: &mut Vec<String>,
) -> u64 {
    let Some(reference) = references::expected(&args.workload, args.seed) else {
        return 0;
    };
    let got = (fp.combined(), fp.cutsets, fp.classes);
    if got == reference {
        return 0;
    }
    let show = |(digest, cutsets, classes): (u64, u64, u64)| {
        format!("digest {digest:#018x}, {cutsets} cutsets, {classes} classes")
    };
    problems.push(format!(
        "seed-0 outputs ({}) differ from the pinned ({})",
        show(got),
        show(reference)
    ));
    analyses as u64
}

/// Peak resident set size since the last reset, in MB (Linux only;
/// `None` elsewhere). It includes the workload's trees.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the kernel's peak-RSS mark so the next reading covers only what
/// follows.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Timed passes a `--trace 0` run makes even when `--seconds` ends
/// sooner, so `wall_s` is the median of three passes or more, not the
/// mean of two: one slow pass then cannot move it.
const MIN_TIMED_PASSES: usize = 3;

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let (analyses, setup_s) = set_up(args)?;
    let mut problems = Vec::new();

    // The warm-up pass fills allocator and page caches, fixes the outputs
    // every timed pass must reproduce, and gives the memory metric: the
    // peak of the process's first analysis, as one `sdft analyze` run
    // sees it. Later passes only add allocator retention, which varies
    // from run to run with thread scheduling.
    reset_peak_rss();
    let warm = run_pass(&analyses, |_| {});
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    let (expected, errors) = fingerprint(&warm);
    let mut failed = errors.len() as u64;
    problems.extend(errors);
    let mut attempted = warm.len() as u64;
    failed += check_reference(args, &expected, warm.len(), &mut problems);
    drop(warm);

    let mut pass_seconds = Vec::new();
    let mut latencies_ms = Vec::new();
    let begin = Instant::now();
    while pass_seconds.len() < MIN_TIMED_PASSES || begin.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(&analyses, |_| {});
        attempted += pass.len() as u64;
        failed += check_pass(&pass, &expected, &mut problems);
        let times: Vec<f64> = pass.iter().map(|(_, d)| d.as_secs_f64()).collect();
        pass_seconds.push(times.iter().sum::<f64>());
        latencies_ms.extend(times.iter().map(|t| t * 1e3));
    }

    let wall = stats::summarize(&pass_seconds);
    let latency = stats::summarize(&latencies_ms);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let why = workloads::WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .map_or("", |w| w.why);
    println!("workload {}: {why}", args.workload);
    println!(
        "seed {}: {} analyses and {} cutset quantifications per pass, \
         {} timed passes after 1 warm-up, {threads} threads, set-up median of repeated builds",
        args.seed,
        analyses.len(),
        expected.quantifications,
        wall.n,
    );
    println!(
        "outputs: {} cutsets, {} model classes, digest {:#018x}",
        expected.cutsets,
        expected.classes,
        expected.combined()
    );
    println!(
        "wall_s {:.4} s (median of {}; p25 {:.4}, p75 {:.4})",
        wall.median, wall.n, wall.p25, wall.p75
    );
    match stats::tail_level(latency.n) {
        Some(level) => println!(
            "analysis latency p50 {:.4} ms, p{level} {:.4} ms (n = {}, at least 10 beyond)",
            latency.median,
            stats::percentile(&latencies_ms, level).unwrap_or(0.0),
            latency.n
        ),
        None => println!(
            "analysis latency p50 {:.4} ms (n = {}; too few samples for a tail)",
            latency.median, latency.n
        ),
    }
    println!("setup_s {setup_s:.4} s, peak_rss_mb {peak_rss:.1} MB (first analysis pass)");

    let quantifications = expected.quantifications as f64;
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics: vec![
            ("wall_s", wall.median),
            (
                "cutsets_per_s",
                quantifications / wall.median.max(f64::MIN_POSITIVE),
            ),
            ("peak_rss_mb", peak_rss),
            ("setup_s", setup_s),
        ],
    })
}

/// Span names that structure the trace rather than name a layer: their
/// self time is harness glue and counts against coverage.
const STRUCTURAL: [&str; 4] = ["pass", "analysis", "generate", "quantify"];

/// A second, separately timed signature computation: reported, but
/// excluded from coverage because `analyze` does not repeat it.
const EXCLUDED: &str = "canonical.signature";

fn per_layer(args: &Args) -> Result<Outcome, String> {
    let analyses = workloads::build(&args.workload, args.seed)?;
    let mut problems = Vec::new();

    // The reference: `analyze` as a user runs it. Its own statistics
    // give the streaming engine's numbers.
    let reference_pass = run_pass(&analyses, |_| {});
    let (expected, errors) = fingerprint(&reference_pass);
    let mut failed = errors.len() as u64;
    problems.extend(errors);
    let mut attempted = reference_pass.len() as u64;
    failed += check_reference(args, &expected, reference_pass.len(), &mut problems);
    let reference: Vec<Vec<AnalysisResult>> = reference_pass
        .into_iter()
        .filter_map(|(r, _)| r.ok())
        .collect();
    if reference.len() != analyses.len() {
        return Err(problems.join("; "));
    }
    let engine = engine_metrics(&reference);

    // The plain single-threaded batch path: the replay's cost baseline.
    let batch = run_pass(&analyses, |o| {
        o.streaming = false;
        o.threads = 1;
    });
    attempted += batch.len() as u64;
    failed += check_pass(&batch, &expected, &mut problems);
    let batch_1t_s: f64 = batch.iter().map(|(_, d)| d.as_secs_f64()).sum();
    drop(batch);

    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut first_spans = None;
    let begin = Instant::now();
    while samples.is_empty() || begin.elapsed().as_secs_f64() < args.seconds {
        let replayed = replay::replay(&analyses)?;
        attempted += analyses.len() as u64;
        if let Err(problem) = replay::check(&replayed, &reference) {
            failed += analyses.len() as u64;
            problems.push(format!("replay differs from analyze: {problem}"));
        }
        let mut values = layer_metrics(&replayed, batch_1t_s);
        values.extend(engine.iter().copied());
        samples.push(values);
        first_spans.get_or_insert(replayed.spans);
    }
    if let (Some(path), Some(spans)) = (&args.chrome_trace, &first_spans) {
        let label = format!("{} seed {}", args.workload, args.seed);
        std::fs::write(path, trace::chrome_trace(&label, spans))
            .map_err(|e| format!("{path}: {e}"))?;
    }

    // Counters repeat exactly; times are the median over replays.
    let metrics: Vec<(&'static str, f64)> = samples[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].1).collect();
            (name, stats::summarize(&values).median)
        })
        .collect();
    println!(
        "workload {} seed {}: {} traced replays (single-threaded), outputs equal to analyze: {}",
        args.workload,
        args.seed,
        samples.len(),
        problems.is_empty()
    );
    for &(name, value) in &metrics {
        let unit = metrics::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit);
        println!("{name} {value} {unit}");
    }
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
    })
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Per-layer numbers of one replay: span self times by layer, the
/// replay's work counters, and coverage against the replay's wall-clock.
fn layer_metrics(r: &replay::Replay, batch_1t_s: f64) -> Vec<(&'static str, f64)> {
    let own = trace::self_seconds_by_name(&r.spans);
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let excluded = s(EXCLUDED);
    let replay_s = r.spans[0].dur as f64 * 1e-9 - excluded;
    let covered: f64 = own
        .iter()
        .filter(|(name, _)| !STRUCTURAL.contains(name) && **name != EXCLUDED)
        .map(|(_, v)| v)
        .sum();
    let c = &r.counters;
    let n = |v: u64| v as f64;
    vec![
        ("worstcase.busy_s", s("worstcase")),
        ("translate.busy_s", s("translate")),
        ("planner.busy_s", s("planner")),
        ("planner.modules", n(c.planner_modules)),
        ("planner.bdd_modules", n(c.planner_bdd_modules)),
        ("bdd.build_s", s("bdd.build")),
        ("bdd.minsol_s", s("bdd.minsol")),
        ("bdd.exact_s", s("bdd.exact")),
        ("bdd.nodes", n(c.bdd_nodes)),
        ("bdd.sift_swaps", n(c.bdd_sift_swaps)),
        ("mocus.busy_s", s("mocus")),
        ("mocus.module_s", s("mocus.module")),
        ("mocus.partials", n(c.mocus_partials)),
        (
            "mocus.pruned_ratio",
            ratio(n(c.mocus_pruned), n(c.mocus_pruned + c.mocus_partials)),
        ),
        ("subsume.busy_s", s("subsume")),
        ("subsume.comparisons", n(c.subsume_comparisons)),
        (
            "subsume.kept_ratio",
            ratio(n(c.subsume_kept), n(c.subsume_candidates)),
        ),
        ("ftc.context_s", s("ftc.context")),
        ("ftc.busy_s", s("ftc")),
        ("ftc.calls", n(c.ftc_calls)),
        ("ftc.us_per_call", ratio(s("ftc") * 1e6, n(c.ftc_calls))),
        ("canonical.signature_s", excluded),
        ("cache.key_s", s("cache.key")),
        ("cache.lookup_s", s("cache.lookup")),
        ("cache.hits", n(c.cache_hits)),
        ("cache.classes", n(c.cache_classes)),
        (
            "cache.hit_ratio",
            ratio(n(c.cache_hits), n(c.cache_hits + c.cache_classes)),
        ),
        ("product.busy_s", s("product")),
        ("product.builds", n(c.product_builds)),
        ("product.states", n(c.product_states)),
        (
            "product.us_per_state",
            ratio(s("product") * 1e6, n(c.product_states)),
        ),
        ("ctmc.busy_s", s("ctmc")),
        ("ctmc.csr_build_s", r.csr_build.as_secs_f64()),
        ("ctmc.spmv_s", r.spmv.as_secs_f64()),
        ("ctmc.steps", n(c.ctmc_steps)),
        ("ctmc.steps_saved", n(c.ctmc_steps_saved)),
        ("ctmc.spmv_nonzeros", n(c.ctmc_spmv_nonzeros)),
        (
            "ctmc.nnz_per_s",
            ratio(n(c.ctmc_spmv_nonzeros), r.spmv.as_secs_f64()),
        ),
        ("report.busy_s", s("report")),
        ("trace.replay_s", replay_s),
        ("trace.coverage", ratio(covered, replay_s)),
        ("trace.batch_1t_s", batch_1t_s),
        ("trace.overhead_ratio", ratio(replay_s, batch_1t_s)),
    ]
}

/// The streaming engine's own accounting, summed over the workload's
/// analyses (peaks take the maximum).
fn engine_metrics(reference: &[Vec<AnalysisResult>]) -> Vec<(&'static str, f64)> {
    let first = reference.iter().map(|results| &results[0]);
    let sum = |f: &dyn Fn(&AnalysisResult) -> f64| first.clone().map(f).sum::<f64>();
    vec![
        (
            "engine.generation_busy_s",
            sum(&|r| r.timings.generation_busy.as_secs_f64()),
        ),
        (
            "engine.filter_busy_s",
            sum(&|r| r.timings.filter_busy.as_secs_f64()),
        ),
        (
            "engine.quant_busy_s",
            sum(&|r| r.timings.quant_busy.as_secs_f64()),
        ),
        (
            "engine.peak_pending_cutsets",
            first
                .clone()
                .map(|r| r.stats.peak_pending_cutsets as f64)
                .fold(0.0, f64::max),
        ),
        (
            "engine.filter_probes",
            sum(&|r| {
                r.stats
                    .filter_shard_stats
                    .iter()
                    .map(|s| s.probes as f64)
                    .sum()
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn arguments_are_validated() {
        let a = args(&[
            "--workload",
            "m1_deep",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "m1_deep", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "m1_deep", "--seconds"]).is_err());
        assert!(args(&["--workload", "m1_deep", "--seconds", "-1"]).is_err());
        assert!(args(&[]).is_err());
    }

    /// The replay must keep mirroring `analyze`: bit-identical outputs
    /// and at least 95% (BWR) / 90% (tiny corpus trees) of its wall-clock
    /// inside layer spans.
    #[test]
    fn replay_matches_analyze_and_covers_its_time() {
        let bwr = workloads::build("bwr_triggers", 0).unwrap();
        let corpus = workloads::build("corpus_mix", 0).unwrap();
        for (analyses, floor) in [(&bwr[..1], 0.95), (&corpus[..30], 0.90)] {
            let reference: Vec<Vec<AnalysisResult>> = run_pass(analyses, |_| {})
                .into_iter()
                .map(|(r, _)| r.unwrap())
                .collect();
            let replayed = replay::replay(analyses).unwrap();
            replay::check(&replayed, &reference).unwrap();
            let metrics = layer_metrics(&replayed, 1.0);
            let coverage = metrics.iter().find(|m| m.0 == "trace.coverage").unwrap().1;
            assert!(coverage >= floor, "coverage {coverage} < {floor}");
        }
    }

    #[test]
    fn every_catalog_metric_is_produced() {
        let analyses = workloads::build("bwr_triggers", 0).unwrap();
        let reference: Vec<Vec<AnalysisResult>> = run_pass(&analyses[..1], |_| {})
            .into_iter()
            .map(|(r, _)| r.unwrap())
            .collect();
        let replayed = replay::replay(&analyses[..1]).unwrap();
        let mut values = layer_metrics(&replayed, 1.0);
        values.extend(engine_metrics(&reference));
        let mut names: Vec<&str> = values.iter().map(|v| v.0).collect();
        let mut catalog: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        names.sort_unstable();
        catalog.sort_unstable();
        assert_eq!(names, catalog);
    }
}
