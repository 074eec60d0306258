//! Federation of per-node hubs into one cluster telemetry plane.
//!
//! PR 7 gave the cluster a single shared [`ObsHub`]; with per-node
//! hubs each node's metrics and trace ring are isolated (the node id
//! still rides in every trace event's `pid`), and [`ClusterObs`] is
//! the read side: it merges per-node [`MetricsSnapshot`]s into a
//! cluster rollup, drains every ring into one time-ordered trace, and
//! renders both with per-node breakdown.
//!
//! Rollup semantics: counters and histograms **sum** across nodes.
//! Gauges are per-node levels with no defined cluster aggregate, so a
//! per-node rollup carries none — gauge levels live only in the per-node
//! breakdown (`nodes[]` in [`ClusterObs::metrics_json`]). A shared hub's
//! rollup is that hub's own snapshot, gauges included.
//!
//! The old single-shared-hub wiring is still supported via
//! [`ClusterObs::shared`], which federates trivially (one entry); the
//! differential test in the cluster crate pins per-node totals ==
//! shared totals on the same workload.

use crate::registry::MetricsSnapshot;
use crate::trace::{chrome_trace_json, TraceEvent};
use crate::ObsHub;
use std::sync::Arc;

/// Read-side aggregator over every node's [`ObsHub`].
pub struct ClusterObs {
    nodes: Vec<(String, Arc<ObsHub>)>,
    shared: bool,
}

impl ClusterObs {
    /// One private hub per node, labeled `node0..nodeN-1`.
    pub fn per_node(n_nodes: usize, trace_capacity: usize) -> Arc<ClusterObs> {
        Arc::new(ClusterObs {
            nodes: (0..n_nodes.max(1))
                .map(|i| (format!("node{i}"), ObsHub::new(trace_capacity)))
                .collect(),
            shared: false,
        })
    }

    /// Wrap an existing single shared hub (the PR 7 wiring) so every
    /// consumer can speak `ClusterObs` regardless of topology.
    pub fn shared(hub: Arc<ObsHub>) -> Arc<ClusterObs> {
        Arc::new(ClusterObs { nodes: vec![("cluster".to_string(), hub)], shared: true })
    }

    /// True when all nodes write into one hub (no per-node breakdown).
    pub fn is_shared(&self) -> bool {
        self.shared
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The hub node `i` should write into (the single hub when shared).
    pub fn hub_for(&self, node: usize) -> Arc<ObsHub> {
        if self.shared {
            self.nodes[0].1.clone()
        } else {
            self.nodes[node.min(self.nodes.len() - 1)].1.clone()
        }
    }

    /// Per-node `(label, hub)` pairs, node order.
    pub fn hubs(&self) -> impl Iterator<Item = (&str, &Arc<ObsHub>)> {
        self.nodes.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Cluster rollup: counters/histograms summed across nodes; gauges
    /// only from a shared hub (see module docs).
    pub fn rollup(&self) -> MetricsSnapshot {
        let mut acc = MetricsSnapshot::default();
        for (_, hub) in &self.nodes {
            acc.accumulate(&hub.snapshot());
        }
        if !self.shared {
            acc.gauges.clear();
        }
        acc
    }

    /// Per-node `(label, snapshot)` breakdown.
    pub fn per_node_snapshots(&self) -> Vec<(String, MetricsSnapshot)> {
        self.nodes.iter().map(|(n, h)| (n.clone(), h.snapshot())).collect()
    }

    /// Trace events dropped across every node's ring.
    pub fn trace_dropped(&self) -> u64 {
        self.nodes.iter().map(|(_, h)| h.trace_dropped()).sum()
    }

    /// Total epoch windows (logged, discarded) across nodes.
    pub fn epoch_counts(&self) -> (usize, u64) {
        self.nodes.iter().fold((0, 0), |(l, d), (_, h)| {
            let (hl, hd) = h.epoch_counts();
            (l + hl, d + hd)
        })
    }

    /// Drain every node's trace ring into one timestamp-ordered event
    /// list (destructive, like [`ObsHub::drain_trace`]).
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for (_, hub) in &self.nodes {
            all.extend(hub.drain_trace());
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Drain all rings into one Chrome-trace JSON document — per-node
    /// events land in their own `pid` lane, flow arrows stitch across.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.drain_trace())
    }

    /// Cluster rollup + per-node breakdown as one JSON document.
    pub fn metrics_json(&self) -> String {
        let (epochs, discarded) = self.epoch_counts();
        let mut out = String::from("{\n  \"cluster\": ");
        out.push_str(&self.rollup().to_json());
        out.push_str(&format!(
            ",\n  \"trace_dropped\": {},\n  \"epochs_logged\": {},\n  \"epochs_discarded\": {},",
            self.trace_dropped(),
            epochs,
            discarded
        ));
        out.push_str("\n  \"nodes\": {");
        for (i, (name, hub)) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (el, ed) = hub.epoch_counts();
            out.push_str(&format!(
                "\n    \"{}\": {{\"trace_dropped\":{},\"epochs_logged\":{},\"epochs_discarded\":{},\"snapshot\":{}}}",
                crate::trace::escape_json(name),
                hub.trace_dropped(),
                el,
                ed,
                hub.snapshot().to_json()
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

impl std::fmt::Debug for ClusterObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterObs")
            .field("nodes", &self.nodes.len())
            .field("shared", &self.shared)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Phase;

    #[test]
    fn rollup_sums_counters_and_histograms_across_nodes() {
        let cluster = ClusterObs::per_node(3, 64);
        for i in 0..3 {
            let hub = cluster.hub_for(i);
            hub.registry().counter("cache.hits").add((i as u64 + 1) * 10);
            hub.registry().histogram("fetch.ns").record(100 * (i as u64 + 1));
            hub.registry().gauge("level").set(i as u64);
        }
        let roll = cluster.rollup();
        assert_eq!(roll.counters["cache.hits"], 60);
        assert_eq!(roll.histograms["fetch.ns"].count, 3);
        assert_eq!(roll.histograms["fetch.ns"].sum, 600);
        let nodes = cluster.per_node_snapshots();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].0, "node0");
        assert_eq!(nodes[2].1.counters["cache.hits"], 30);
        assert_eq!(nodes[1].1.gauges["level"], 1);
        let json = cluster.metrics_json();
        assert!(json.contains("\"cluster\""));
        assert!(json.contains("\"node1\""));
    }

    #[test]
    fn per_node_rollup_reports_no_gauges() {
        let cluster = ClusterObs::per_node(2, 64);
        cluster.hub_for(0).registry().gauge("app.0.hits").set(80);
        cluster.hub_for(1).registry().gauge("app.0.hits").set(52);
        let roll = cluster.rollup();
        assert!(roll.gauges.is_empty(), "one node's level is no cluster value: {:?}", roll.gauges);
        let nodes = cluster.per_node_snapshots();
        assert_eq!(nodes[0].1.gauges["app.0.hits"], 80);
        assert_eq!(nodes[1].1.gauges["app.0.hits"], 52);
        let json = cluster.metrics_json();
        let (rollup_json, nodes_json) = json.split_once("\"nodes\"").unwrap();
        assert!(rollup_json.contains("\"gauges\":{}"), "{json}");
        assert!(nodes_json.contains("\"app.0.hits\":52"), "{json}");
        // A shared hub is one plane: its rollup keeps its own gauges.
        let hub = ObsHub::new(64);
        hub.registry().gauge("level").set(7);
        assert_eq!(ClusterObs::shared(hub).rollup().gauges["level"], 7);
    }

    #[test]
    fn drain_merges_rings_in_timestamp_order() {
        let cluster = ClusterObs::per_node(2, 64);
        let h0 = cluster.hub_for(0);
        let h1 = cluster.hub_for(1);
        let e0 = h0.intern("a", None, None);
        let e1 = h1.intern("b", None, None);
        h0.set_now(300);
        h0.instant(e0, 0, 0, 0, 0);
        h1.set_now(100);
        h1.instant(e1, 1, 0, 0, 0);
        h0.set_now(200);
        h0.instant(e0, 0, 0, 0, 0);
        let ev = cluster.drain_trace();
        assert_eq!(ev.iter().map(|e| e.ts_ns).collect::<Vec<_>>(), vec![100, 200, 300]);
        assert!(cluster.drain_trace().is_empty(), "drain is destructive");
    }

    #[test]
    fn shared_wrapper_routes_every_node_to_one_hub() {
        let hub = ObsHub::new(64);
        let cluster = ClusterObs::shared(hub.clone());
        assert!(cluster.is_shared());
        assert_eq!(cluster.node_count(), 1);
        cluster.hub_for(0).registry().counter("c").inc();
        cluster.hub_for(7).registry().counter("c").inc();
        assert_eq!(hub.snapshot().counters["c"], 2);
        assert_eq!(cluster.rollup().counters["c"], 2);
    }

    #[test]
    fn flow_events_survive_federated_export() {
        let cluster = ClusterObs::per_node(2, 64);
        let h0 = cluster.hub_for(0);
        let h1 = cluster.hub_for(1);
        let f0 = h0.intern("coop_fetch", None, None);
        let f1 = h1.intern("coop_fetch", None, None);
        h0.flow(f0, Phase::FlowStart, 100, 0, 1, crate::FlowId::coop(0, 1));
        h1.flow(f1, Phase::FlowStep, 200, 1, 2, crate::FlowId::coop(0, 1));
        h0.flow(f0, Phase::FlowEnd, 300, 0, 1, crate::FlowId::coop(0, 1));
        let json = cluster.chrome_trace_json();
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"t\""));
        assert!(json.contains("\"ph\":\"f\""));
    }
}
