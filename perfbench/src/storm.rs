//! `node_storm`: worker threads drive one sharded `BufferManager`
//! directly, the multi-core hit/miss path the single-threaded DES never
//! exercises.
//!
//! Each round builds a fresh manager, fills the hot set (set-up), then
//! every thread issues the same seeded operation stream: 7/8 of reads go
//! to a hot set that fits in the cache, 1/8 to a cold set that does not,
//! and every miss inserts the block. Every hit's bytes are checked
//! against the block's pattern.

use crate::metrics::{median, peak_rss_mb, ratio, Layers, PER_LAYER};
use crate::{probes, Outcome};
use kcache::{BlockKey, BufferManager, Span, CACHE_BLOCK_SIZE};
use pvfs::Fid;
use sim_core::DetRng;
use sim_net::NodeId;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CAPACITY: usize = 1024;
const SHARDS: usize = 2;
const HOT: (Fid, u64) = (Fid(1), 512);
const COLD: (Fid, u64) = (Fid(2), 1 << 20);
/// Bytes of the block each read copies out and checks.
const READ: (u32, u32) = (512, 768);
const OPS_PER_THREAD: u64 = 1_000_000;
/// Fewest rounds an invocation makes, however long they take.
const MIN_ROUNDS: usize = 3;
const SETUPS_PER_ROUND: usize = 9;

/// The byte at offset `i` of block `blk` of file `fid`.
fn pattern(fid: Fid, blk: u64, i: usize) -> u8 {
    (blk as u8) ^ ((blk >> 8) as u8).rotate_left(3) ^ (fid.0 as u8).wrapping_mul(0x9D) ^ (i as u8)
}

fn fill(buf: &mut [u8], fid: Fid, blk: u64) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = pattern(fid, blk, i);
    }
}

/// One thread's tally for one round.
#[derive(Default)]
struct ThreadRun {
    secs: f64,
    reads: u64,
    bad: u64,
    hits: u64,
    hit_ns: u128,
    miss_ns: u128,
}

/// One thread's operation stream. With `timed`, every operation is timed
/// on its own.
fn drive(m: &BufferManager, seed: u64, thread: usize, timed: bool, start: &Barrier) -> ThreadRun {
    let mut rng = DetRng::stream(seed, thread as u64);
    let mut block = vec![0u8; CACHE_BLOCK_SIZE];
    let mut out = vec![0u8; (READ.1 - READ.0) as usize];
    let span = Span::new(READ.0, READ.1);
    let mut r = ThreadRun::default();
    start.wait();
    let t0 = Instant::now();
    for _ in 0..OPS_PER_THREAD {
        let x = rng.next_u64_raw();
        let ((fid, set), idx) = (if x & 7 == 0 { COLD } else { HOT }, x >> 3);
        let blk = idx % set;
        let key = BlockKey::new(fid, blk);
        let t = timed.then(Instant::now);
        if m.try_read(key, span, &mut out) {
            r.hits += 1;
            let ok =
                out.iter().enumerate().all(|(i, &b)| b == pattern(fid, blk, READ.0 as usize + i));
            r.bad += u64::from(!ok);
            if let Some(t) = t {
                r.hit_ns += t.elapsed().as_nanos();
            }
        } else {
            fill(&mut block, fid, blk);
            m.insert_clean(key, NodeId(0), Span::FULL, &block);
            if let Some(t) = t {
                r.miss_ns += t.elapsed().as_nanos();
            }
        }
        r.reads += 1;
    }
    r.secs = t0.elapsed().as_secs_f64();
    r
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    wall_s: f64,
    threads: Vec<ThreadRun>,
    manager: Layers,
    problems: Vec<String>,
}

/// A fresh manager with the hot set resident: the storm's set-up.
fn filled_manager() -> BufferManager {
    let m = BufferManager::builder(CAPACITY).shards(SHARDS).build();
    let mut block = vec![0u8; CACHE_BLOCK_SIZE];
    for blk in 0..HOT.1 {
        fill(&mut block, HOT.0, blk);
        m.insert_clean(BlockKey::new(HOT.0, blk), NodeId(0), Span::FULL, &block);
    }
    m
}

fn round(seed: u64, threads: usize, timed: bool) -> Round {
    // Set-up takes under a millisecond, so each round times several and
    // keeps the median; the storm runs on the last manager built.
    let mut setups = Vec::with_capacity(SETUPS_PER_ROUND);
    let mut built = None;
    for _ in 0..SETUPS_PER_ROUND {
        let t = Instant::now();
        let m = filled_manager();
        setups.push(t.elapsed().as_secs_f64());
        built = Some(m);
    }
    let setup_s = median(&setups);
    let m = built.expect("at least one set-up per round");
    // How the hot set, which takes 7/8 of the traffic, splits over shards.
    let hot = m.shard_occupancy();
    let hot_skew = *hot.iter().max().expect("at least one shard") as f64 * hot.len() as f64
        / hot.iter().sum::<usize>() as f64;

    let start = Barrier::new(threads + 1);
    let t = Instant::now();
    let runs: Vec<ThreadRun> = std::thread::scope(|s| {
        let (m, start) = (&m, &start);
        let workers: Vec<_> =
            (0..threads).map(|i| s.spawn(move || drive(m, seed, i, timed, start))).collect();
        start.wait();
        workers.into_iter().map(|w| w.join().expect("storm worker panicked")).collect()
    });
    let wall_s = t.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let st = m.stats();
    let reads: u64 = runs.iter().map(|r| r.reads).sum();
    if st.hits + st.misses != reads {
        problems.push(format!(
            "manager counted {} hits + {} misses for {reads} reads",
            st.hits, st.misses
        ));
    }
    if m.resident() > m.capacity() {
        problems.push(format!("{} frames resident over capacity {}", m.resident(), m.capacity()));
    }
    let mut l = Layers::new();
    l.set("manager.hits", st.hits as f64);
    l.set("manager.misses", st.misses as f64);
    l.set("manager.hit_ratio", ratio(st.hits, st.hits + st.misses));
    l.set("manager.evictions_clean", st.evictions_clean as f64);
    l.set("manager.evictions_dirty", st.evictions_dirty as f64);
    l.set("manager.flush_blocks", st.flush_blocks as f64);
    l.set("manager.writes_absorbed", st.writes_absorbed as f64);
    l.set("policy.scans", m.policy_stats().scans as f64);
    l.set("manager.shard_skew", hot_skew);
    Round { setup_s, wall_s, threads: runs, manager: l, problems }
}

pub fn run(seed: u64, budget: Duration, trace: bool, cpus: usize) -> Outcome {
    let threads = 2.min(cpus);
    let start = Instant::now();
    let mut rounds = Vec::new();
    // The traced run, which times every operation on its own, takes half
    // the budget, like the traced DES runs.
    let budget = if trace { budget / 2 } else { budget };
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        rounds.push(round(seed, threads, trace));
    }

    let mut attempted = 0;
    let mut failed = 0;
    let mut problems: Vec<String> = Vec::new();
    for r in &rounds {
        for t in &r.threads {
            attempted += t.reads;
            failed += t.bad;
        }
        for p in &r.problems {
            if !problems.contains(p) {
                problems.push(p.clone());
            }
        }
    }
    if failed > 0 {
        problems.push(format!("{failed} reads returned wrong bytes"));
    }
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let ops = |r: &Round| r.threads.iter().map(|t| t.reads).sum::<u64>() as f64;

    let last = rounds.last().expect("at least one round");
    // Traced counts come from the last round, host costs from every round.
    let mut m = if trace { last.manager.clone() } else { Layers::new() };
    if trace {
        let (mut hit_ns, mut hits, mut miss_ns, mut misses) = (0u128, 0u64, 0u128, 0u64);
        for t in rounds.iter().flat_map(|r| &r.threads) {
            hit_ns += t.hit_ns;
            hits += t.hits;
            miss_ns += t.miss_ns;
            misses += t.reads - t.hits;
        }
        let timer = probes::timer_overhead_ns();
        m.set("manager.hit_ns", (ratio(hit_ns as u64, hits) - timer).max(0.0));
        m.set("manager.miss_ns", (ratio(miss_ns as u64, misses) - timer).max(0.0));
        m.set("workload.requests", ops(last));
        m.set("workload.mb", ops(last) * (READ.1 - READ.0) as f64 / 1e6);
        // The storm reaches no simulated layer.
        m.zero_missing(PER_LAYER);
    } else {
        let mean_thread =
            |r: &Round| r.threads.iter().map(|t| t.secs).sum::<f64>() / r.threads.len() as f64;
        let makespan = med(&mean_thread);
        m.set("makespan_s", makespan);
        m.set("makespan_max_s", med(&|r| r.threads.iter().map(|t| t.secs).fold(0.0, f64::max)));
        m.set("read_ms", makespan * 1e3 / OPS_PER_THREAD as f64);
        m.set("ops_per_s", med(&|r| ops(r) / r.wall_s));
        m.set("run_wall_s", med(&|r| r.wall_s));
        m.set("setup_s", med(&|r| r.setup_s));
        m.set("peak_rss_mb", peak_rss_mb());
    }
    Outcome { attempted, failed, problems, metrics: m, threads }
}
