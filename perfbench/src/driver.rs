//! The two kinds of invocation for the discrete-event workloads: timed
//! repetitions for the end-to-end metrics, and the traced run that
//! yields the per-layer split.

use crate::des::{self, DesSample, DesWorkload, Scenario};
use crate::metrics::{median, peak_rss_mb, relative_range, Layers};
use crate::probes;
use crate::Outcome;
use kcache::obs::chrome_trace_json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest repetitions an invocation makes, however long they take.
const MIN_REPS: usize = 3;

/// Trace-ring slots per node in the traced run: enough that no workload
/// drops an event (the run fails its checks if one is dropped).
const TRACE_CAPACITY: usize = 1 << 17;

/// Block accesses the manager replay times.
const REPLAY_ACCESSES: usize = 200_000;

/// Repeat `sc` until `budget` has passed (and at least `min` times).
fn repeat(sc: &Scenario, budget: Duration, min: usize) -> Vec<DesSample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || start.elapsed() < budget {
        samples.push(des::run(sc));
    }
    samples
}

/// Attempted and failed requests, and the distinct failed checks, over
/// every repetition made.
fn ledger<'a>(samples: impl IntoIterator<Item = &'a DesSample>) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::<String>::new());
    for s in samples {
        attempted += s.planned;
        failed += s.failed;
        for v in &s.violations {
            if !problems.contains(v) {
                problems.push(v.clone());
            }
        }
    }
    (attempted, failed, problems)
}

fn med(samples: &[DesSample], f: impl Fn(&DesSample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Checks that each workload drives the layers it was chosen for, and
/// leaves idle the ones it was chosen to leave idle.
pub fn traffic_checks(w: DesWorkload, l: &Layers) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            problems.push(format!("traffic: {what}"));
        }
    };
    if w == DesWorkload::PaperShared {
        for name in ["dir.queries", "dir.updates", "dir.located_ratio", "coop.remote_hit_blocks"]
            .into_iter()
            .chain(["adaptive.epochs", "adaptive.switches", "adaptive.quota_moves"])
        {
            expect(l.get(name) == 0.0, format!("{name} = {} on paper_shared", l.get(name)));
        }
    }
    let queries = l.get("dir.queries");
    expect(
        (queries > 0.0) == w.cooperative(),
        format!("dir.queries = {queries} with cooperation {}", w.cooperative()),
    );
    let epochs = l.get("adaptive.epochs");
    expect(
        (epochs > 0.0) == (w == DesWorkload::TenantRw),
        format!("adaptive.epochs = {epochs} on {w:?}"),
    );
    if w == DesWorkload::TenantRw {
        let written = l.get("disk.blocks_written");
        expect(written > 0.0, format!("disk.blocks_written = {written} on tenant_rw"));
    }
    problems
}

/// End-to-end run: repetitions for `budget`, medians reported.
pub fn des_end_to_end(w: DesWorkload, seed: u64, budget: Duration) -> Outcome {
    let sc = w.scenario(seed);
    let samples = repeat(&sc, budget, MIN_REPS);
    let (attempted, failed, mut problems) = ledger(&samples);
    problems.extend(traffic_checks(w, &samples[0].layers));
    let mut m = Layers::new();
    m.set("makespan_s", med(&samples, |s| s.makespan_s));
    m.set("makespan_max_s", med(&samples, |s| s.makespan_max_s));
    m.set("read_ms", med(&samples, |s| s.read_ms));
    m.set("ops_per_s", med(&samples, |s| s.requests as f64 / s.run_wall_s));
    m.set("run_wall_s", med(&samples, |s| s.run_wall_s));
    m.set("setup_s", med(&samples, |s| s.setup_s));
    m.set("peak_rss_mb", peak_rss_mb());
    Outcome { attempted, failed, problems, metrics: m, threads: 1 }
}

/// Traced run: untraced repetitions (the overhead baseline and the
/// same-seed drift sample), one run with per-node telemetry hubs, the
/// local-only twin of a cooperative workload, and the host probes.
pub fn des_traced(w: DesWorkload, seed: u64, budget: Duration) -> Outcome {
    let sc = w.scenario(seed);
    let plain = repeat(&sc, budget / 2, 2);

    let (tsc, obs) = sc.traced(TRACE_CAPACITY);
    let traced = des::run(&tsc);
    let t = Instant::now();
    let events = obs.drain_trace();
    black_box(chrome_trace_json(&events).len() + obs.metrics_json().len());
    let export_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut all: Vec<&DesSample> = plain.iter().collect();
    all.push(&traced);
    let local = w.cooperative().then(|| des::run(&sc.local_only()));
    let (attempted, failed, mut problems) = ledger(all.iter().copied().chain(local.as_ref()));

    // Simulated counts come from the traced run; host rates from the
    // untraced repetitions.
    let mut m = traced.layers.clone();
    problems.extend(traffic_checks(w, &m));
    let wall = med(&plain, |s| s.run_wall_s);
    let ev = med(&plain, |s| s.events as f64);
    m.set("engine.events", ev);
    m.set("engine.events_per_s", ev / wall);

    let drift = [
        relative_range(&all.iter().map(|s| s.makespan_s).collect::<Vec<_>>()),
        relative_range(&all.iter().map(|s| s.makespan_max_s).collect::<Vec<_>>()),
        relative_range(&all.iter().map(|s| s.read_ms).collect::<Vec<_>>()),
        relative_range(&all.iter().map(|s| s.events as f64).collect::<Vec<_>>()),
    ];
    m.set("sim.repeat_drift", drift.into_iter().fold(0.0, f64::max));
    m.set("write_ms", traced.write_ms);

    let dropped = obs.trace_dropped();
    if dropped > 0 {
        problems.push(format!("traced run dropped {dropped} trace events"));
    }
    m.set("obs.trace_dropped", dropped as f64);
    m.set("obs.trace_events", events.len() as f64);
    m.set("obs.export_ms", export_ms);
    m.set("obs.overhead_pct", (traced.run_wall_s / wall - 1.0) * 100.0);
    for (name, count, mean) in [
        ("iod_read", "span.iod_read_count", "span.iod_read_ms"),
        ("peer_fetch", "span.peer_fetch_count", "span.peer_fetch_ms"),
        ("peer_serve", "span.peer_serve_count", "span.peer_serve_ms"),
        ("dir_lookup", "span.dir_lookup_count", "span.dir_lookup_ms"),
    ] {
        let (n, ms) = probes::span_stats(&events, name);
        m.set(count, n as f64);
        m.set(mean, ms);
    }
    for (class, p50, p99) in [
        ("default", "fetch.default.p50_ms", "fetch.default.p99_ms"),
        ("peer", "fetch.peer.p50_ms", "fetch.peer.p99_ms"),
    ] {
        let snap = traced.fetch.iter().find(|(c, _)| *c == class).map(|(_, s)| s);
        m.set(p50, snap.map_or(0.0, |s| s.quantile(0.50) as f64 / 1e6));
        m.set(p99, snap.map_or(0.0, |s| s.quantile(0.99) as f64 / 1e6));
    }

    let (local_makespan, makespan_ratio) = match &local {
        Some(l) => (l.makespan_s, traced.makespan_s / l.makespan_s),
        None => (0.0, 0.0),
    };
    m.set("coop.local_makespan_s", local_makespan);
    m.set("coop.makespan_ratio", makespan_ratio);

    let cost = probes::replay_manager(&sc, REPLAY_ACCESSES);
    let dispatch_ns = probes::engine_dispatch_ns(ev as u64);
    m.set("manager.hit_ns", cost.hit_ns);
    m.set("manager.miss_ns", cost.miss_ns);
    m.set("engine.dispatch_ns", dispatch_ns);
    let (hits, misses) = (m.get("manager.hits"), m.get("manager.misses"));
    let explained = ev * dispatch_ns + hits * cost.hit_ns + misses * cost.miss_ns;
    m.set("engine.unexplained_share", 1.0 - explained / (wall * 1e9));
    Outcome { attempted, failed, problems, metrics: m, threads: 1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers(pairs: &[(&'static str, f64)]) -> Layers {
        let mut l = Layers::new();
        for &(k, v) in pairs {
            l.set(k, v);
        }
        l
    }

    #[test]
    fn traffic_checks_accept_the_intended_traffic() {
        let paper = layers(&[("manager.hits", 10.0)]);
        assert!(traffic_checks(DesWorkload::PaperShared, &paper).is_empty());
        let coop = layers(&[("dir.queries", 5.0)]);
        assert!(traffic_checks(DesWorkload::CoopSpread, &coop).is_empty());
        let rw = layers(&[("adaptive.epochs", 3.0), ("disk.blocks_written", 8.0)]);
        assert!(traffic_checks(DesWorkload::TenantRw, &rw).is_empty());
    }

    #[test]
    fn each_traffic_check_can_fail() {
        let paper = layers(&[("adaptive.switches", 1.0), ("dir.updates", 2.0)]);
        assert_eq!(traffic_checks(DesWorkload::PaperShared, &paper).len(), 2);
        let coop = layers(&[("adaptive.epochs", 1.0)]);
        assert_eq!(traffic_checks(DesWorkload::CoopSpread, &coop).len(), 2, "no queries, epochs");
        let rw = layers(&[("dir.queries", 1.0)]);
        assert_eq!(traffic_checks(DesWorkload::TenantRw, &rw).len(), 3, "queries, epochs, writes");
    }
}
