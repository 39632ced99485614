//! The metric catalog: every name the benchmark prints, with its unit
//! and which direction is better. `BENCHMARK.json` must list the same
//! metrics (a test holds the two together).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that holds `BENCHMARK.json` to this catalog.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Printed with `--trace 0`: what a user of `analyze` sees.
pub const END_TO_END: &[Metric] = &[
    lower("wall_s", "s"),
    higher("cutsets_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Printed with `--trace 1`: one layer each, from the traced replay
/// (`engine.*` from `analyze`'s own statistics).
pub const PER_LAYER: &[Metric] = &[
    lower("worstcase.busy_s", "s"),
    lower("translate.busy_s", "s"),
    lower("planner.busy_s", "s"),
    higher("planner.modules", "count"),
    higher("planner.bdd_modules", "count"),
    lower("bdd.build_s", "s"),
    lower("bdd.minsol_s", "s"),
    lower("bdd.exact_s", "s"),
    lower("bdd.nodes", "count"),
    lower("bdd.sift_swaps", "count"),
    lower("mocus.busy_s", "s"),
    lower("mocus.module_s", "s"),
    lower("mocus.partials", "count"),
    higher("mocus.pruned_ratio", "ratio"),
    lower("subsume.busy_s", "s"),
    lower("subsume.comparisons", "count"),
    higher("subsume.kept_ratio", "ratio"),
    lower("ftc.context_s", "s"),
    lower("ftc.busy_s", "s"),
    lower("ftc.calls", "count"),
    lower("ftc.us_per_call", "us"),
    lower("canonical.signature_s", "s"),
    lower("cache.key_s", "s"),
    lower("cache.lookup_s", "s"),
    higher("cache.hits", "count"),
    lower("cache.classes", "count"),
    higher("cache.hit_ratio", "ratio"),
    lower("product.busy_s", "s"),
    lower("product.builds", "count"),
    lower("product.states", "count"),
    lower("product.us_per_state", "us"),
    lower("ctmc.busy_s", "s"),
    lower("ctmc.csr_build_s", "s"),
    lower("ctmc.spmv_s", "s"),
    lower("ctmc.steps", "count"),
    higher("ctmc.steps_saved", "count"),
    lower("ctmc.spmv_nonzeros", "count"),
    higher("ctmc.nnz_per_s", "1/s"),
    lower("report.busy_s", "s"),
    lower("engine.generation_busy_s", "s"),
    lower("engine.filter_busy_s", "s"),
    lower("engine.quant_busy_s", "s"),
    lower("engine.peak_pending_cutsets", "count"),
    lower("engine.filter_probes", "count"),
    lower("trace.replay_s", "s"),
    higher("trace.coverage", "ratio"),
    lower("trace.batch_1t_s", "s"),
    lower("trace.overhead_ratio", "ratio"),
];

/// The benchmark's result line: `correct`, `attempted`, `failed`, and
/// every metric of `catalog` with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalog: &[Metric],
    values: &[(&str, f64)],
) -> String {
    let metrics: Vec<String> = catalog
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workloads::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let values = [("wall_s", 1.5), ("cutsets_per_s", f64::NAN)];
        let line = result_line(true, 3, 0, &END_TO_END[..2], &values);
        let Value::Object(top) = parse(&line).unwrap() else {
            panic!("object expected")
        };
        assert_eq!(top.len(), 4);
        let metrics = top.iter().find(|(k, _)| k == "metrics").unwrap();
        assert!(format!("{:?}", metrics.1).contains("1.5"));
    }

    /// `BENCHMARK.json` at the repository root describes this binary:
    /// its workloads and metrics, within the limits of the format.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let root = parse(&text).expect("BENCHMARK.json parses");
        let get = |key: &str| root.get(key).unwrap_or_else(|| panic!("missing {key}"));
        let Value::Object(keys) = &root else {
            panic!("object expected")
        };
        let mut names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let workloads = get("workloads").as_array();
        assert!((2..=8).contains(&workloads.len()));
        for (w, expected) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(w.get("name").unwrap().as_str(), expected.name);
            assert_eq!(w.get("why").unwrap().as_str(), expected.why);
            assert!(expected.why.len() <= 200);
        }
        assert_eq!(workloads.len(), WORKLOADS.len());

        for (key, catalog, max) in [
            ("end_to_end", END_TO_END, 16),
            ("per_layer", PER_LAYER, 128),
        ] {
            let listed = get(key).as_array();
            assert!(!listed.is_empty() && listed.len() <= max, "{key}");
            assert_eq!(listed.len(), catalog.len(), "{key}");
            for (entry, m) in listed.iter().zip(catalog) {
                assert_eq!(entry.get("name").unwrap().as_str(), m.name);
                assert_eq!(entry.get("unit").unwrap().as_str(), m.unit);
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(entry.get("better").unwrap().as_str(), better, "{}", m.name);
                if key == "end_to_end" {
                    let bound = entry.get("bound").unwrap().as_f64();
                    assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
                }
            }
        }
        let seconds = get("run_seconds").as_f64();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        assert!(text.len() <= 64 * 1024);
    }
}
