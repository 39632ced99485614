//! End-to-end tests of the `sdft` command-line tool.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

const MODEL: &str = "
top cooling
basic a 0.003
basic c 0.003
basic e 0.000003
dynamic b erlang k=1 lambda=0.001 mu=0.05
dynamic d spare lambda=0.001 mu=0.05
gate pump1 or a b
gate pump2 or c d
gate pumps and pump1 pump2
gate cooling or pumps e
trigger pump1 d
";

static COUNTER: AtomicU32 = AtomicU32::new(0);

/// A uniquely named model file in the system temp directory, removed on
/// drop.
struct TempModel(PathBuf);

impl TempModel {
    fn new(contents: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "sdft-cli-test-{}-{}.sdft",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, contents).expect("write model");
        TempModel(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 path")
    }
}

impl Drop for TempModel {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn model_file() -> TempModel {
    TempModel::new(MODEL)
}

fn run(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_sdft"))
        .args(args)
        .output()
        .expect("spawn sdft");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn check_reports_structure_and_classification() {
    let file = model_file();
    let (stdout, _, ok) = run(&["check", file.path()]);
    assert!(ok);
    assert!(stdout.contains("5 basic events (2 dynamic)"));
    assert!(stdout.contains("static branching"));
    assert!(stdout.contains("triggers: d"));
}

#[test]
fn analyze_prints_frequency_and_cutsets() {
    let file = model_file();
    let (stdout, _, ok) = run(&["analyze", file.path(), "--horizon", "24"]);
    assert!(ok);
    assert!(stdout.contains("failure frequency over 24h: 3.52"));
    assert!(stdout.contains("{b, d}") || stdout.contains("{d, b}"));
    assert!(stdout.contains("5 cutsets"));
}

#[test]
fn fast_mode_runs_and_is_not_larger() {
    let file = model_file();
    let (normal, _, ok1) = run(&["analyze", file.path()]);
    let (fast, _, ok2) = run(&["analyze", file.path(), "--fast"]);
    assert!(ok1 && ok2);
    let grab = |s: &str| -> f64 {
        s.lines()
            .find(|l| l.contains("failure frequency"))
            .and_then(|l| l.split_whitespace().nth(4))
            .and_then(|v| v.parse().ok())
            .expect("frequency value")
    };
    assert!(grab(&fast) <= grab(&normal) * 1.0001);
}

#[test]
fn exact_and_mcs_agree_with_analyze() {
    let file = model_file();
    let (exact, _, ok) = run(&["exact", file.path()]);
    assert!(ok);
    assert!(exact.contains("3.505477e-4"));
    let (mcs, _, ok) = run(&["mcs", file.path()]);
    assert!(ok);
    assert!(mcs.contains("5 minimal cutsets"));
}

#[test]
fn simulate_is_deterministic_given_seed() {
    let file = model_file();
    let args = ["simulate", file.path(), "--samples", "20000", "--seed", "9"];
    let (a, _, ok1) = run(&args);
    let (b, _, ok2) = run(&args);
    assert!(ok1 && ok2);
    assert_eq!(a, b);
}

#[test]
fn dot_emits_graphviz() {
    let file = model_file();
    let (stdout, _, ok) = run(&["dot", file.path()]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("style=dashed"));
}

#[test]
fn bad_input_fails_cleanly() {
    let (_, stderr, ok) = run(&["analyze", "/nonexistent/file.sdft"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));

    let file = TempModel::new("top g\nbasic x notanumber\n");
    let (_, stderr, ok) = run(&["analyze", file.path()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"));

    let (_, _, ok) = run(&["frobnicate", "/tmp/x"]);
    assert!(!ok);

    // The subsumption filter has no knob.
    let file = model_file();
    for flag in ["--filter-shards", "--filter-fallback"] {
        let (_, stderr, ok) = run(&["analyze", file.path(), flag, "2"]);
        assert!(!ok);
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }

    // A progress interval too long for a `Duration` is a usage error.
    let (_, stderr, ok) = run(&["analyze", file.path(), "--progress", "1e20"]);
    assert!(!ok);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn thread_counts_print_the_same_frequency_and_no_stream_is_gone() {
    let file = model_file();
    let (one, _, ok) = run(&["analyze", file.path(), "--threads", "1"]);
    assert!(ok);
    let (four, _, ok) = run(&["analyze", file.path(), "--threads", "4"]);
    assert!(ok);
    let frequency = |out: &str| out.lines().next().unwrap_or_default().to_owned();
    assert!(frequency(&one).starts_with("failure frequency"));
    assert_eq!(frequency(&one), frequency(&four));

    // The engine has no release-policy flag.
    let (_, stderr, ok) = run(&["analyze", file.path(), "--no-stream"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn analyze_exports_csv() {
    let file = model_file();
    let out = std::env::temp_dir().join(format!("sdft-cli-csv-{}.csv", std::process::id()));
    let (_, _, ok) = run(&["analyze", file.path(), "--csv", out.to_str().unwrap()]);
    assert!(ok);
    let text = std::fs::read_to_string(&out).unwrap();
    assert!(text.starts_with("cutset,probability"));
    assert_eq!(text.lines().count(), 6); // header + 5 cutsets
    let _ = std::fs::remove_file(&out);
}

#[test]
fn metrics_reports_mttf_and_unavailability() {
    let file = model_file();
    let (stdout, _, ok) = run(&["metrics", file.path()]);
    assert!(ok);
    assert!(stdout.contains("mean time to failure"));
    assert!(stdout.contains("steady-state unavailability"));
}

#[test]
fn check_reports_structure_statistics() {
    let file = model_file();
    let (stdout, _, ok) = run(&["check", file.path()]);
    assert!(ok);
    assert!(stdout.contains("depth 3"));
    assert!(stdout.contains("1 triggered events"));
    assert!(stdout.contains("independent modules"));
}
