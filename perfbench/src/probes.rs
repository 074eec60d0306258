//! Host-time probes for the traced run: the buffer manager's hit and
//! miss cost on the workload's own key stream, the bare engine's
//! per-event dispatch cost, and the span statistics of a drained trace.

use crate::des::Scenario;
use kcache::obs::TraceEvent;
use kcache::{
    blocks_of_range, span_in_block, AppId, BlockKey, CacheModule, Span, CACHE_BLOCK_SIZE,
};
use pvfs::{CostModel, Fid};
use sim_core::{Actor, Ctx, DetRng, Dur, Engine, FifoResource, Msg, SimTime};
use sim_net::NodeId;
use std::hint::black_box;
use std::time::Instant;
use workload::{partition_of, AccessStream};

/// Mean host cost of one manager access, by outcome.
pub struct AccessCost {
    pub hit_ns: f64,
    pub miss_ns: f64,
}

/// Cost of reading the clock twice, ns: subtracted from every timed
/// access so `hit_ns`/`miss_ns` price the manager, not `Instant`.
pub fn timer_overhead_ns() -> f64 {
    let n = 200_000u32;
    let t = Instant::now();
    let mut acc = 0u128;
    for _ in 0..n {
        let a = Instant::now();
        acc += black_box(a.elapsed().as_nanos());
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Replay node 0's key stream of `sc` into the `BufferManager` a
/// `CacheModule` builds from the workload's `CacheConfig`, timing every
/// access. Each process on node 0 draws its requests from its own
/// `AccessStream`, seeded, sized and interleaved the way the cluster
/// builder and the application processes do it; every request's blocks
/// are read, and a miss is filled with `insert_clean`. Writes are
/// replayed as reads: the probe prices the lookup path. `accesses`
/// bounds the replay.
pub fn replay_manager(sc: &Scenario, accesses: usize) -> AccessCost {
    let module = CacheModule::new(
        NodeId(0),
        0,
        FifoResource::shared("cpu-0"),
        CostModel::pentium3_800(),
        sc.cache().clone(),
    );
    let m = module.cache();
    // The builder's locality window: a fifth of the paper cache divided
    // among the processes that share the busiest node.
    let mut per_node = std::collections::BTreeMap::new();
    for a in &sc.apps {
        for n in &a.nodes {
            *per_node.entry(n.0).or_insert(0u64) += 1;
        }
    }
    let max_procs = per_node.values().copied().max().unwrap_or(1);
    let paper_cap = kcache::CacheConfig::paper().capacity_bytes() as u64;

    struct Proc {
        app: AppId,
        sharing: f64,
        locality: f64,
        rng: DetRng,
        streams: [(Fid, AccessStream); 2],
    }
    let mut procs: Vec<Proc> = Vec::new();
    for (inst, a) in sc.apps.iter().enumerate() {
        let Some(k) = a.nodes.iter().position(|n| n.0 == 0) else { continue };
        let window = (paper_cap / (5 * max_procs)).max(a.d_proc() as u64);
        let stream = || {
            let part = partition_of(a.file_size, k as u32, a.p());
            AccessStream::with_hotspot(part, a.d_proc(), window, a.hotspot)
        };
        procs.push(Proc {
            app: AppId(inst as u32),
            sharing: a.sharing,
            locality: a.locality,
            rng: DetRng::stream(sc.spec.seed, (inst as u64) << 16 | k as u64),
            streams: [(Fid(0), stream()), (Fid(1 + inst as u64), stream())],
        });
    }
    assert!(!procs.is_empty(), "no process runs on node 0");

    let block = vec![0x5Au8; CACHE_BLOCK_SIZE];
    let mut out = vec![0u8; CACHE_BLOCK_SIZE];
    let (mut hit_ns, mut hits, mut miss_ns, mut misses) = (0u128, 0u64, 0u128, 0u64);
    let mut done = 0usize;
    'replay: loop {
        for p in procs.iter_mut() {
            let shared = p.rng.chance(p.sharing);
            let (fid, stream) = &mut p.streams[usize::from(!shared)];
            let len = stream.req_len();
            let off = stream.next(p.locality, &mut p.rng);
            for blk in blocks_of_range(off, len) {
                let key = BlockKey::new(*fid, blk);
                let span = span_in_block(blk, off, len);
                let t = Instant::now();
                let hit = m.try_read_by(key, span, &mut out[..span.len() as usize], p.app);
                if hit {
                    hit_ns += t.elapsed().as_nanos();
                    hits += 1;
                } else {
                    black_box(m.insert_clean_by(key, NodeId(0), Span::FULL, &block, p.app));
                    miss_ns += t.elapsed().as_nanos();
                    misses += 1;
                }
                done += 1;
            }
            if done >= accesses {
                break 'replay;
            }
        }
    }
    let timer = timer_overhead_ns();
    let mean =
        |ns: u128, n: u64| if n == 0 { 0.0 } else { (ns as f64 / n as f64 - timer).max(0.0) };
    AccessCost { hit_ns: mean(hit_ns, hits), miss_ns: mean(miss_ns, misses) }
}

/// An actor that does nothing but keep its own tokens circulating.
struct Spin {
    left: u64,
}

struct Token;

impl Actor for Spin {
    fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        if self.left > 0 {
            self.left -= 1;
            // Varied delays make the queue reorder like a real run.
            ctx.schedule_self(Dur::nanos(1_000 + self.left % 997), Token);
        }
    }
}

/// Tokens in flight in the bare engine: about as many pending events as
/// a workload keeps queued (one or two per process and device).
const SPIN_TOKENS: u64 = 32;

/// Host ns per event of a bare `Engine` dispatching `events` events to a
/// no-op actor.
pub fn engine_dispatch_ns(events: u64) -> f64 {
    let events = events.max(SPIN_TOKENS);
    let mut eng = Engine::new(1);
    let spin = eng.add_actor(Box::new(Spin { left: events - SPIN_TOKENS }));
    for i in 0..SPIN_TOKENS {
        eng.post(Dur::nanos(i), spin, Token);
    }
    let t = Instant::now();
    let report = eng.run_until(SimTime(u64::MAX));
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(report.events, events, "bare engine dispatched every token");
    ns / events as f64
}

/// Count and mean simulated duration (ms) of the spans named `name`.
pub fn span_stats(events: &[TraceEvent], name: &str) -> (u64, f64) {
    let (n, ns) = events
        .iter()
        .filter(|e| e.name == name && e.phase == kcache::obs::Phase::Span)
        .fold((0u64, 0u128), |(n, ns), e| (n + 1, ns + e.dur_ns as u128));
    (n, if n == 0 { 0.0 } else { ns as f64 / n as f64 / 1e6 })
}
