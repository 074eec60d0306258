//! Metric names, units, the per-layer value map and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`. Order and units must
/// match `BENCHMARK.json` (a unit test checks it).
pub const END_TO_END: &[(&str, &str)] = &[
    ("makespan_s", "s"),
    ("makespan_max_s", "s"),
    ("read_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("run_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sim-core: engine and client CPU model.
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.dispatch_ns", "ns"),
    ("engine.unexplained_share", "ratio"),
    ("cpu.util_max", "ratio"),
    ("cpu.wait_us", "us"),
    // kcache buffer manager and kcache-policy.
    ("manager.hits", "count"),
    ("manager.misses", "count"),
    ("manager.hit_ratio", "ratio"),
    ("manager.evictions_clean", "count"),
    ("manager.evictions_dirty", "count"),
    ("manager.flush_blocks", "count"),
    ("manager.writes_absorbed", "count"),
    ("policy.scans", "count"),
    ("manager.hit_ns", "ns"),
    ("manager.miss_ns", "ns"),
    ("manager.shard_skew", "ratio"),
    // kcache cache module.
    ("module.reads", "count"),
    ("module.full_hits", "count"),
    ("module.partial_hits", "count"),
    ("module.full_misses", "count"),
    ("module.dedup_blocks", "count"),
    ("module.disk_fetch_ms", "ms"),
    ("module.remote_fetch_ms", "ms"),
    ("module.urgent_flush_blocks", "count"),
    ("module.harvest_runs", "count"),
    // Cooperative tier: kcache plus the pvfs mgr directory.
    ("dir.queries", "count"),
    ("dir.updates", "count"),
    ("dir.located_ratio", "ratio"),
    ("coop.remote_hit_blocks", "count"),
    ("coop.stale_blocks", "count"),
    ("coop.aggregate_hit_ratio", "ratio"),
    ("coop.query_yield", "ratio"),
    ("coop.local_makespan_s", "s"),
    ("coop.makespan_ratio", "ratio"),
    // kcache-adaptive.
    ("adaptive.epochs", "count"),
    ("adaptive.switches", "count"),
    ("adaptive.quota_moves", "count"),
    // pvfs iod.
    ("iod.read_reqs", "count"),
    ("iod.write_reqs", "count"),
    ("iod.flush_reqs", "count"),
    ("iod.read_mb", "MB"),
    ("iod.write_mb", "MB"),
    // sim-disk: server page cache and disk.
    ("iod_pagecache.hit_ratio", "ratio"),
    ("disk.requests", "count"),
    ("disk.blocks_written", "count"),
    ("disk.busy_s", "s"),
    ("disk.util_max", "ratio"),
    ("disk.seq_ratio", "ratio"),
    ("disk.latency_ms", "ms"),
    // sim-net.
    ("fabric.messages", "count"),
    ("fabric.payload_mb", "MB"),
    ("fabric.peer_payload_mb", "MB"),
    ("fabric.medium_util", "ratio"),
    // kcache-obs traced run.
    ("obs.trace_dropped", "count"),
    ("obs.trace_events", "count"),
    ("obs.export_ms", "ms"),
    ("obs.overhead_pct", "%"),
    ("span.iod_read_ms", "ms"),
    ("span.iod_read_count", "count"),
    ("span.peer_fetch_ms", "ms"),
    ("span.peer_fetch_count", "count"),
    ("span.peer_serve_ms", "ms"),
    ("span.peer_serve_count", "count"),
    ("span.dir_lookup_ms", "ms"),
    ("span.dir_lookup_count", "count"),
    ("fetch.default.p50_ms", "ms"),
    ("fetch.default.p99_ms", "ms"),
    ("fetch.peer.p50_ms", "ms"),
    ("fetch.peer.p99_ms", "ms"),
    // workload: the denominators.
    ("workload.requests", "count"),
    ("workload.mb", "MB"),
    // Whole run.
    ("write_ms", "ms"),
    ("error_rate", "ratio"),
    ("sim.repeat_drift", "ratio"),
    ("host.cpus", "count"),
    ("host.threads", "count"),
];

/// Named per-layer values of one run.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers::default()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Set every metric of `spec` that has no value yet to 0.
    pub fn zero_missing(&mut self, spec: &[(&'static str, &str)]) {
        for (name, _) in spec {
            self.0.entry(name).or_insert(0.0);
        }
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// (max − min) / median: how far one invocation's repetitions of the same
/// inputs drift apart. 0 for a single value or a zero median.
pub fn relative_range(xs: &[f64]) -> f64 {
    let med = median(xs);
    if med == 0.0 {
        return 0.0;
    }
    let (lo, hi) = xs.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    (hi - lo) / med
}

/// A metric name as the result line allows it: `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: every metric of `spec`, in its order, from `values`.
/// Returns the problems found (a missing, non-finite or badly named
/// metric) alongside the line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[(&str, &str)],
    values: &Layers,
) -> (String, Vec<String>) {
    let mut problems = Vec::new();
    let mut fields = Vec::new();
    for &(name, unit) in spec {
        let v = match values.0.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                problems.push(format!("metric {name} is {v}"));
                0.0
            }
            None => {
                problems.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !valid_name(name) {
            problems.push(format!("metric name {name:?} is malformed"));
        }
        fields.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
    }
    let correct = correct && problems.is_empty();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    (line, problems)
}

/// Peak resident set of this process, MB, from `/proc/self/status`
/// (the benchmark runs on Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        }
        assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(""));
    }

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics with these units, in this order.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let i = entry.find(&format!("\"{f}\": \"")).expect(f) + f.len() + 5;
                        entry[i..entry[i..].find('"').expect("string closes") + i].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_reports_missing_and_non_finite_values() {
        let mut v = Layers::new();
        v.set("a", 1.5);
        v.set("b", f64::NAN);
        let (line, problems) = result_line(true, 3, 0, &[("a", "s"), ("b", "s"), ("c", "s")], &v);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 0"), "{line}");
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"s\"}"), "{line}");
    }

    #[test]
    fn median_and_relative_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(relative_range(&[2.0]), 0.0);
        assert!((relative_range(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
