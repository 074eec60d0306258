//! The three discrete-event workloads: their cluster and application
//! specs, one timed repetition through `build` and `Engine::run_until`,
//! and every statistic aggregated explicitly from per-actor `stats()`.
//!
//! Cross-node aggregation is written out here on purpose: counters sum,
//! utilisations and per-node epoch counts take the maximum. Nothing is
//! read from the telemetry rollup (its gauges are last-writer-wins) or
//! from a merged `AdaptiveStats` (its `epochs` sums over nodes).

use crate::metrics::{ratio, Layers};
use cluster_harness::{build, Cluster, ClusterSpec};
use kcache::obs::{ClusterObs, QuantileSnapshot};
use kcache::{
    AdaptiveConfig, CacheConfig, CacheModule, CacheStats, CooperativeConfig, DirectoryMode,
    EvictPolicy, ModuleStats, PartitionConfig, PolicyKind,
};
use pvfs::{Iod, Mgr};
use sim_core::{Dur, SimTime, StopReason, Tally};
use sim_disk::Disk;
use sim_net::{Fabric, NodeId, TrafficClass};
use std::sync::Arc;
use std::time::Instant;
use workload::{default_file_size, AppSpec, Coordinator, Mode};

/// Bytes each application instance moves. Chosen so one repetition takes
/// 0.5 to 1.2 s of host time on a 2-vCPU x86-64 container, and every
/// cache is warm long before the run ends.
const PAPER_SHARED_BYTES: u64 = 192 << 20;
const COOP_SPREAD_BYTES: u64 = 80 << 20;
const TENANT_RW_BYTES: u64 = 36 << 20;

/// Simulated-time horizon handed to `run_until`; every workload completes
/// long before it, and a run that hits it fails the `completed` check.
const HORIZON_S: u64 = 3600;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DesWorkload {
    PaperShared,
    CoopSpread,
    TenantRw,
}

/// Everything one repetition needs: the cluster and the applications.
#[derive(Clone)]
pub struct Scenario {
    pub spec: ClusterSpec,
    pub apps: Vec<AppSpec>,
}

/// A read or write instance moving `total_bytes` in `d`-byte requests
/// over the 16 MB shared and private files; the caller sets locality,
/// sharing and skew.
fn app(name: &str, nodes: Vec<NodeId>, d: u32, mode: Mode, total_bytes: u64) -> AppSpec {
    AppSpec {
        name: name.into(),
        nodes,
        total_bytes,
        request_size: d,
        mode,
        locality: 0.0,
        sharing: 0.0,
        hotspot: 0.0,
        shared_file: "shared".into(),
        file_size: default_file_size(),
        start_delay: Dur::ZERO,
        min_requests: 1,
        phases: Vec::new(),
    }
}

fn nodes(range: std::ops::Range<u16>) -> Vec<NodeId> {
    range.map(NodeId).collect()
}

impl DesWorkload {
    /// The workload's scenario for `seed`. The seed reaches the program
    /// only through `ClusterSpec::seed`, which drives every process's
    /// access stream and the start jitter.
    pub fn scenario(self, seed: u64) -> Scenario {
        let (cache, n_nodes, apps) = match self {
            // The paper's inter-application sharing case (Figs 7/8): two
            // read instances co-located on three nodes, sequential walk.
            DesWorkload::PaperShared => {
                let apps = ["appA", "appB"].map(|n| AppSpec {
                    locality: 0.5,
                    sharing: 0.5,
                    ..app(n, nodes(0..3), 16 << 10, Mode::Read, PAPER_SHARED_BYTES)
                });
                (CacheConfig::paper(), 6, apps.to_vec())
            }
            // Two skewed instances on all eight nodes in opposite node
            // orders, so a shared partition is read on different nodes
            // and only the cooperative tier can turn the second read
            // into a cache hit.
            DesWorkload::CoopSpread => {
                let mut apps = ["appA", "appB"].map(|n| AppSpec {
                    locality: 0.2,
                    sharing: 0.5,
                    hotspot: 0.9,
                    ..app(n, nodes(0..8), 16 << 10, Mode::Read, COOP_SPREAD_BYTES)
                });
                apps[1].nodes.reverse();
                let cache = CacheConfig {
                    cooperative: Some(CooperativeConfig {
                        directory: DirectoryMode::Authoritative,
                        singleton_preserving: true,
                    }),
                    ..CacheConfig::paper()
                };
                (cache, 8, apps.to_vec())
            }
            // A skewed reader next to a write-behind writer under the
            // adaptive meta-policy over a soft 150/150 partition.
            DesWorkload::TenantRw => {
                let reader = AppSpec {
                    locality: 0.3,
                    sharing: 0.5,
                    hotspot: 0.9,
                    ..app("reader", nodes(0..4), 4 << 10, Mode::Read, TENANT_RW_BYTES)
                };
                let writer = AppSpec {
                    sharing: 0.5,
                    ..app("writer", nodes(0..4), 4 << 10, Mode::Write, TENANT_RW_BYTES)
                };
                let cache = CacheConfig {
                    policy: EvictPolicy::of(PolicyKind::Clock),
                    adaptive: Some(AdaptiveConfig::new([
                        PolicyKind::Clock,
                        PolicyKind::Lfu,
                        PolicyKind::SharingAware,
                    ])),
                    epoch_accesses: 256,
                    partitioning: PartitionConfig::soft([(0, 150), (1, 150)]),
                    ..CacheConfig::paper()
                };
                (cache, 6, vec![reader, writer])
            }
        };
        let mut spec = ClusterSpec::paper(Some(cache));
        spec.n_nodes = n_nodes;
        spec.seed = seed;
        Scenario { spec, apps }
    }

    pub fn cooperative(self) -> bool {
        self == DesWorkload::CoopSpread
    }
}

impl Scenario {
    /// The same inputs with the cooperative tier switched off (node-local
    /// caching only).
    pub fn local_only(&self) -> Scenario {
        let mut s = self.clone();
        if let Some(cache) = s.spec.cache.as_mut() {
            cache.cooperative = None;
        }
        s
    }

    /// The same inputs with one telemetry hub per node.
    pub fn traced(&self, trace_capacity: usize) -> (Scenario, Arc<ClusterObs>) {
        let mut s = self.clone();
        let obs = ClusterObs::per_node(s.spec.n_nodes as usize, trace_capacity);
        s.spec.obs = Some(obs.clone());
        (s, obs)
    }

    /// Application requests the run must complete (every process issues
    /// the instance's request count).
    pub fn planned_requests(&self) -> u64 {
        self.apps.iter().map(|a| a.n_requests() * a.p() as u64).sum()
    }

    pub fn cache(&self) -> &CacheConfig {
        self.spec.cache.as_ref().expect("every DES workload runs a cache")
    }
}

/// What one repetition measured: simulated outcomes, host times, the
/// correctness ledger and the per-layer statistics.
pub struct DesSample {
    pub setup_s: f64,
    pub run_wall_s: f64,
    pub events: u64,
    pub makespan_s: f64,
    pub makespan_max_s: f64,
    pub read_ms: f64,
    pub write_ms: f64,
    pub requests: u64,
    pub planned: u64,
    /// Requests counted as failed: unfinished, failing verification, or
    /// all of them when a structural invariant broke.
    pub failed: u64,
    /// Why the repetition failed, empty when it passed.
    pub violations: Vec<String>,
    pub layers: Layers,
    /// Per-tier fetch-latency sketches merged over modules (traced runs).
    pub fetch: Vec<(&'static str, QuantileSnapshot)>,
}

/// Build and run one repetition of `sc`, timing `build` and `run_until`.
pub fn run(sc: &Scenario) -> DesSample {
    let t0 = Instant::now();
    let mut cluster = build(&sc.spec, &sc.apps);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = cluster.engine.run_until(SimTime::ZERO + Dur::secs(HORIZON_S));
    let run_wall_s = t1.elapsed().as_secs_f64();
    extract(sc, &cluster, report.stop == StopReason::Stopped, report.events, setup_s, run_wall_s)
}

fn extract(
    sc: &Scenario,
    cl: &Cluster,
    stopped: bool,
    events: u64,
    setup_s: f64,
    run_wall_s: f64,
) -> DesSample {
    let eng = &cl.engine;
    let now = eng.now();
    let mut violations = Vec::new();
    let mut l = Layers::new();

    // Client side: makespans and request latencies from the coordinator.
    let coord = eng.actor_as::<Coordinator>(cl.coordinator).expect("coordinator downcast");
    let completed = stopped && coord.is_complete();
    if !completed {
        violations.push("run did not complete".to_string());
    }
    let makespans: Vec<f64> = (0..sc.apps.len() as u32)
        .map(|i| coord.instance_makespan(i).map_or(0.0, |(s, e)| e.since(s).as_secs_f64()))
        .collect();
    let (mut read, mut write) = (Tally::new(), Tally::new());
    let (mut requests, mut bytes, mut verify_failures) = (0u64, 0u64, 0u64);
    for p in coord.results() {
        read.merge(&p.read_latency);
        write.merge(&p.write_latency);
        requests += p.requests;
        bytes += p.bytes;
        verify_failures += p.verify_failures;
    }
    let planned = sc.planned_requests();
    if verify_failures > 0 {
        violations.push(format!("{verify_failures} reads failed verification"));
    }
    if requests != planned {
        violations.push(format!("completed {requests} of {planned} planned requests"));
    }
    l.set("workload.requests", requests as f64);
    l.set("workload.mb", bytes as f64 / 1e6);

    // Client CPUs (FifoResource per node).
    let mut util_max: f64 = 0.0;
    let mut wait_max: f64 = 0.0;
    for cpu in &cl.cpus {
        let c = cpu.borrow();
        util_max = util_max.max(c.utilization(now));
        wait_max = wait_max.max(c.mean_wait().as_nanos() as f64 / 1e3);
    }
    l.set("cpu.util_max", util_max);
    l.set("cpu.wait_us", wait_max);

    // Cache modules, their buffer managers and the adaptive controllers.
    let mut cs = CacheStats::default();
    let mut ms = ModuleStats::default();
    let (mut scans, mut queried_blocks) = (0u64, 0u64);
    let (mut epochs_max, mut switches, mut quota_moves) = (0u64, 0u64, 0u64);
    let mut fetch: Vec<(&'static str, QuantileSnapshot)> = Vec::new();
    let violations_before_modules = violations.len();
    for (node, id) in cl.modules.iter().enumerate() {
        let Some(id) = id else { continue };
        let module = eng.actor_as::<CacheModule>(*id).expect("module downcast");
        let (s, cache) = (module.stats(), module.cache());
        if s.reads_intercepted != s.full_hits + s.partial_hits + s.full_misses {
            violations.push(format!(
                "node {node}: {} reads intercepted but {} full hits + {} partial + {} misses",
                s.reads_intercepted, s.full_hits, s.partial_hits, s.full_misses
            ));
        }
        if cache.resident() > cache.capacity() {
            violations.push(format!(
                "node {node}: {} frames resident over capacity {}",
                cache.resident(),
                cache.capacity()
            ));
        }
        let c = cache.stats();
        cs.hits += c.hits;
        cs.misses += c.misses;
        cs.evictions_clean += c.evictions_clean;
        cs.evictions_dirty += c.evictions_dirty;
        cs.flush_blocks += c.flush_blocks;
        cs.writes_absorbed += c.writes_absorbed;
        scans += cache.policy_stats().scans;
        ms.reads_intercepted += s.reads_intercepted;
        ms.full_hits += s.full_hits;
        ms.partial_hits += s.partial_hits;
        ms.full_misses += s.full_misses;
        ms.dedup_blocks += s.dedup_blocks;
        ms.urgent_flush_blocks += s.urgent_flush_blocks;
        ms.harvest_runs += s.harvest_runs;
        ms.remote_hit_blocks += s.remote_hit_blocks;
        ms.remote_stale_blocks += s.remote_stale_blocks;
        ms.disk_fetch_ns += s.disk_fetch_ns;
        ms.disk_fetch_blocks += s.disk_fetch_blocks;
        ms.remote_fetch_ns += s.remote_fetch_ns;
        queried_blocks += s.dir_located_blocks + s.dir_unlocated_blocks;
        if let Some(a) = cache.adaptive_stats() {
            epochs_max = epochs_max.max(a.epochs);
            switches += a.switches;
            quota_moves += a.quota_moves;
        }
        for (class, snap, _, _) in module.fetch_latency_sketches().unwrap_or_default() {
            let name = if class == TrafficClass::Peer { "peer" } else { "default" };
            match fetch.iter_mut().find(|(n, _)| *n == name) {
                Some((_, acc)) => acc.merge(&snap),
                None => fetch.push((name, snap)),
            }
        }
    }
    l.set("manager.hits", cs.hits as f64);
    l.set("manager.misses", cs.misses as f64);
    l.set("manager.hit_ratio", ratio(cs.hits, cs.hits + cs.misses));
    l.set("manager.evictions_clean", cs.evictions_clean as f64);
    l.set("manager.evictions_dirty", cs.evictions_dirty as f64);
    l.set("manager.flush_blocks", cs.flush_blocks as f64);
    l.set("manager.writes_absorbed", cs.writes_absorbed as f64);
    // Every DES workload runs the paper's single-shard manager.
    l.set("manager.shard_skew", 1.0);
    l.set("policy.scans", scans as f64);
    l.set("module.reads", ms.reads_intercepted as f64);
    l.set("module.full_hits", ms.full_hits as f64);
    l.set("module.partial_hits", ms.partial_hits as f64);
    l.set("module.full_misses", ms.full_misses as f64);
    l.set("module.dedup_blocks", ms.dedup_blocks as f64);
    l.set("module.disk_fetch_ms", ratio(ms.disk_fetch_ns, ms.disk_fetch_blocks) / 1e6);
    l.set("module.remote_fetch_ms", ratio(ms.remote_fetch_ns, ms.remote_hit_blocks) / 1e6);
    l.set("module.urgent_flush_blocks", ms.urgent_flush_blocks as f64);
    l.set("module.harvest_runs", ms.harvest_runs as f64);
    l.set("coop.remote_hit_blocks", ms.remote_hit_blocks as f64);
    l.set("coop.stale_blocks", ms.remote_stale_blocks as f64);
    l.set("coop.aggregate_hit_ratio", ratio(cs.hits + ms.remote_hit_blocks, cs.hits + cs.misses));
    l.set("coop.query_yield", ratio(ms.remote_hit_blocks, queried_blocks));
    l.set("adaptive.epochs", epochs_max as f64);
    l.set("adaptive.switches", switches as f64);
    l.set("adaptive.quota_moves", quota_moves as f64);

    // The block location directory lives with the pvfs mgr.
    let mgr = eng.actor_as::<Mgr>(cl.mgr).expect("mgr downcast").stats();
    l.set("dir.queries", mgr.dir_queries as f64);
    l.set("dir.updates", mgr.dir_updates as f64);
    l.set("dir.located_ratio", ratio(mgr.dir_located, mgr.dir_located + mgr.dir_unknown));

    // iods and their server page caches.
    let mut iod = [0u64; 5];
    let (mut pc_hits, mut pc_lookups) = (0u64, 0u64);
    for &id in &cl.iods {
        let d = eng.actor_as::<Iod>(id).expect("iod downcast");
        let s = d.stats();
        for (acc, v) in iod.iter_mut().zip([
            s.read_reqs,
            s.write_reqs,
            s.flush_reqs,
            s.bytes_read,
            s.bytes_written,
        ]) {
            *acc += v;
        }
        let pc = d.page_cache().stats();
        pc_hits += pc.hits;
        pc_lookups += pc.hits + pc.misses;
    }
    l.set("iod.read_reqs", iod[0] as f64);
    l.set("iod.write_reqs", iod[1] as f64);
    l.set("iod.flush_reqs", iod[2] as f64);
    l.set("iod.read_mb", iod[3] as f64 / 1e6);
    l.set("iod.write_mb", iod[4] as f64 / 1e6);
    l.set("iod_pagecache.hit_ratio", ratio(pc_hits, pc_lookups));

    // Disks: the builder adds them right after the fabric and the node
    // dispatchers, so every disk's id is below the first iod's.
    let (mut disk_reqs, mut seq, mut written, mut busy_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut lat_ns, mut lat_n, mut disk_util) = (0u128, 0u64, 0.0f64);
    for id in 0..cl.iods[0] {
        let Some(disk) = eng.actor_as::<Disk>(id) else { continue };
        let s = disk.stats();
        disk_reqs += s.requests;
        seq += s.sequential_hits;
        written += s.blocks_written;
        busy_ns += s.busy.as_nanos();
        let h = disk.latency_histogram();
        lat_ns += h.mean().as_nanos() as u128 * h.count() as u128;
        lat_n += h.count();
        disk_util = disk_util.max(disk.utilization(now));
    }
    l.set("disk.requests", disk_reqs as f64);
    l.set("disk.blocks_written", written as f64);
    l.set("disk.busy_s", busy_ns as f64 / 1e9);
    l.set("disk.util_max", disk_util);
    l.set("disk.seq_ratio", ratio(seq, disk_reqs));
    l.set("disk.latency_ms", if lat_n == 0 { 0.0 } else { lat_ns as f64 / lat_n as f64 / 1e6 });

    // The shared network medium.
    let fabric = eng.actor_as::<Fabric>(cl.fabric).expect("fabric downcast");
    let fs = fabric.stats();
    l.set("fabric.messages", fs.messages as f64);
    l.set("fabric.payload_mb", fs.payload_bytes as f64 / 1e6);
    l.set("fabric.peer_payload_mb", fs.peer_payload_bytes as f64 / 1e6);
    l.set("fabric.medium_util", fabric.medium_utilization(now));

    l.set("engine.events", events as f64);
    l.set("engine.events_per_s", events as f64 / run_wall_s);

    // A broken module invariant voids the whole repetition; otherwise each
    // unfinished or corrupt request counts once.
    let failed = if violations.len() > violations_before_modules {
        planned
    } else {
        (planned.saturating_sub(requests) + verify_failures).min(planned)
    };
    DesSample {
        setup_s,
        run_wall_s,
        events,
        makespan_s: makespans.iter().sum::<f64>() / makespans.len() as f64,
        makespan_max_s: makespans.iter().copied().fold(0.0, f64::max),
        read_ms: read.mean() / 1e6,
        write_ms: write.mean() / 1e6,
        requests,
        planned,
        failed,
        violations,
        layers: l,
        fetch,
    }
}
