//! The benchmark's metric tables and its result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test keeps the two in step.

use std::collections::BTreeMap;

/// One metric: name, unit, and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by every untraced run (`--trace 0`), measured with spans off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("lat_p50_ms", "ms", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Printed by every traced run (`--trace 1`). A layer the workload never
/// calls reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("climate.world_s", "s", "lower"),
    m("core.candidates_s", "s", "lower"),
    m("core.filter_ms", "ms", "lower"),
    m("core.anneal_s", "s", "lower"),
    m("core.anneal.lp_solves", "count", "lower"),
    m("core.anneal.cache_hit_rate", "ratio", "higher"),
    m("core.anneal.warm_share", "ratio", "higher"),
    m("core.anneal.warm_hit_rate", "ratio", "higher"),
    m("core.siteblock.hit_rate", "ratio", "higher"),
    m("core.assemble_ms", "ms", "lower"),
    m("lp.iterations", "count", "lower"),
    m("lp.iters_per_solve", "count", "lower"),
    m("lp.refactorizations", "count", "lower"),
    m("lp.ftrans", "count", "lower"),
    m("lp.btrans", "count", "lower"),
    m("lp.pricing_ms", "ms", "lower"),
    m("lp.cold_solve_ms", "ms", "lower"),
    m("lp.us_per_iter", "us", "lower"),
    m("lp.warm_solve_ms", "ms", "lower"),
    m("nebula.scheduler.rounds", "count", "lower"),
    m("nebula.scheduler.warm_rate", "ratio", "higher"),
    m("nebula.scheduler.rebuilds", "count", "lower"),
    m("nebula.scheduler.recoveries", "count", "lower"),
    m("nebula.scheduler.plan_ms_p50", "ms", "lower"),
    m("nebula.scheduler.plan_ms_p99", "ms", "lower"),
    m("nebula.emulate_ms_p50", "ms", "lower"),
    m("nebula.migrations", "count", "lower"),
    m("nebula.migrated_gb", "GB", "lower"),
    m("nebula.rereplicated_blocks", "count", "lower"),
    m("api.spec.parse_us", "us", "lower"),
    m("api.report.serialize_us", "us", "lower"),
    m("api.engine.run_ms", "ms", "lower"),
    m("api.serve.hit_ms", "ms", "lower"),
    m("api.serve.miss_ms", "ms", "lower"),
    m("api.store.ack_ms", "ms", "lower"),
    m("api.router.hit_ms", "ms", "lower"),
    m("api.serve.overhead_ms", "ms", "lower"),
    m("api.router.relay_ms", "ms", "lower"),
    m("api.serve.cache_hit_rate", "ratio", "higher"),
    m("api.serve.shed", "count", "lower"),
    m("api.store.journal_bytes", "bytes", "lower"),
    m("bench.late_p99_ms", "ms", "lower"),
    m("proc.cpu_s", "s", "lower"),
    m("proc.cpu_util", "ratio", "lower"),
    m("trace.overhead", "ratio", "lower"),
];

#[cfg(test)]
/// A metric name: a letter or digit, then at most 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Renders a number for the result line: every digit Rust's shortest
/// round-trip form gives, never an exponent, never NaN.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, (f64, &'static str)>,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencloud_api::json::Json;

    #[test]
    fn metric_names_and_units_use_the_allowed_characters() {
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(valid_unit(metric.unit), "{}", metric.unit);
            assert!(matches!(metric.better, "lower" | "higher"));
        }
        assert!(!valid_name("siting/wall_s"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name("core.anneal.lp_solves"));
        assert!(!valid_unit(""));
        assert!(valid_unit("1/s"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// `BENCHMARK.json` lists exactly these metrics, in this order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = Json::parse(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_array).expect("metric list");
            let got: Vec<(&str, &str, &str)> = listed
                .iter()
                .map(|e| {
                    let s = |k| e.get(k).and_then(Json::as_str).unwrap_or("");
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let want: Vec<(&str, &str, &str)> =
                table.iter().map(|m| (m.name, m.unit, m.better)).collect();
            assert_eq!(got, want, "{key}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut metrics = BTreeMap::new();
        metrics.insert("wall_s".to_string(), (1.25, "s"));
        metrics.insert("lat_p50_ms".to_string(), (f64::NAN, "ms"));
        let line = result_line(true, 3, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("parses");
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
