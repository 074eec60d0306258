//! The PVFS metadata server (`mgr`).
//!
//! One instance per cluster. Owns the namespace: file names, fids, sizes,
//! and striping descriptors. The paper's cache module never caches metadata
//! ("they necessarily go to the meta-data server"), so every open/create is
//! a real network round trip to this actor.

use crate::config::CostModel;
use crate::protocol::{
    BlockDirQuery, BlockDirReply, BlockDirUpdate, Fid, FileHandle, MgrCall, MgrReply, MgrRequest,
    StripeSpec, MGR_PORT,
};
use kcache_obs::{EventId, ObsHub, Phase};
use sim_core::{resource, Actor, ActorId, Ctx, Msg, SharedResource};
use sim_net::{Deliver, NetMessage, NodeId, Xmit};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Trace `tid` lane for the mgr's directory work (cache modules use
/// lanes 0-2 on their own node's `pid`).
const MGR_TRACE_LANE: u32 = 3;

/// Pre-resolved observability handles (None = tracing off, one
/// never-taken branch on the query path).
struct MgrObs {
    hub: Arc<ObsHub>,
    ev_dir_lookup: EventId,
    ev_flow: EventId,
}

/// Striping policy applied to newly created files.
#[derive(Debug, Clone)]
pub struct StripePolicy {
    pub unit: u32,
    /// Stripe across this many iods (usually all of them).
    pub n_iods: u32,
    /// Total iods in the cluster (for round-robin base assignment).
    pub total_iods: u32,
}

/// Metadata server statistics.
#[derive(Debug, Default, Clone)]
pub struct MgrStats {
    pub creates: u64,
    pub opens: u64,
    pub errors: u64,
    /// Block location directory traffic (cooperative caching).
    pub dir_updates: u64,
    pub dir_queries: u64,
    /// Queried blocks for which a peer location was returned.
    pub dir_located: u64,
    /// Queried blocks with no known remote sharer.
    pub dir_unknown: u64,
    /// Hint-mode sharer entries aged out (never decremented): the
    /// directory's defense against unbounded growth when modules skip
    /// eviction removals.
    pub dir_stale_dropped: u64,
}

/// The metadata server actor.
pub struct Mgr {
    node: NodeId,
    fabric: ActorId,
    cpu: SharedResource,
    costs: CostModel,
    policy: StripePolicy,
    files: HashMap<String, FileHandle>,
    next_fid: u64,
    tag: u64,
    stats: MgrStats,
    /// Block location directory for cooperative caching: which nodes
    /// currently cache each logical block, each sharer stamped with the
    /// update generation that last confirmed it. Maintained by
    /// `BlockDirUpdate` deltas from the per-node cache modules; consulted
    /// by `BlockDirQuery` on local misses. In hint mode the modules skip
    /// eviction removals, so entries here may be stale — queries then
    /// misdirect and the fetch falls through to disk at the requester,
    /// and `hint_max_age` bounds how long such ghosts survive.
    directory: HashMap<(Fid, u64), Vec<(NodeId, u64)>>,
    /// Monotone directory logical clock: one tick per block addition.
    dir_gen: u64,
    /// `Some(age)`: sharer stamps older than `age` generations are
    /// dropped (on refresh, on query, and by a periodic sweep). `None`
    /// (authoritative mode) never ages — removals keep the map tight.
    hint_max_age: Option<u64>,
    obs: Option<MgrObs>,
}

impl Mgr {
    pub fn new(
        node: NodeId,
        fabric: ActorId,
        cpu: SharedResource,
        costs: CostModel,
        policy: StripePolicy,
    ) -> Mgr {
        assert!(policy.n_iods >= 1 && policy.n_iods <= policy.total_iods);
        Mgr {
            node,
            fabric,
            cpu,
            costs,
            policy,
            files: HashMap::new(),
            next_fid: 1,
            tag: 0,
            stats: MgrStats::default(),
            directory: HashMap::new(),
            dir_gen: 0,
            hint_max_age: None,
            obs: None,
        }
    }

    /// Wire the mgr into a telemetry hub (the mgr node's per-node hub,
    /// or the cluster-shared one): directory lookups become spans, and
    /// flow-stamped queries get their `t` correlation step.
    pub fn set_obs(&mut self, hub: Arc<ObsHub>) {
        self.obs = Some(MgrObs {
            ev_dir_lookup: hub.intern("dir_lookup", Some("blocks"), Some("located")),
            ev_flow: hub.intern("coop_fetch", None, None),
            hub,
        });
    }

    /// Age hint-mode directory entries out after `max_age` update
    /// generations. The cluster builder arms this only when the cache
    /// runs the directory in hint mode; authoritative directories are
    /// kept tight by explicit removals and must not age (an aged-out
    /// authoritative entry would be a lost remote hit, not a stale one).
    pub fn set_hint_aging(&mut self, max_age: u64) {
        self.hint_max_age = Some(max_age.max(1));
    }

    pub fn stats(&self) -> &MgrStats {
        &self.stats
    }

    /// Namespace lookup for tests/diagnostics.
    pub fn lookup(&self, name: &str) -> Option<&FileHandle> {
        self.files.get(name)
    }

    /// Experiment-setup backdoor: register a file outside simulated time
    /// (the benchmark's files exist before measurement starts). Follows the
    /// same fid/striping policy as a protocol-level create.
    pub fn install_file(&mut self, name: &str, size: u64) -> FileHandle {
        if let Some(h) = self.files.get(name) {
            return h.clone();
        }
        let fid = Fid(self.next_fid);
        self.next_fid += 1;
        let stripe = StripeSpec {
            unit: self.policy.unit,
            n_iods: self.policy.n_iods,
            base: (fid.0 % self.policy.total_iods as u64) as u32,
        };
        let handle = FileHandle { fid, size, stripe };
        self.files.insert(name.to_string(), handle.clone());
        handle
    }

    /// Directory size, for tests/diagnostics.
    pub fn directory_entries(&self) -> usize {
        self.directory.len()
    }

    /// Nodes the directory believes cache `(fid, blk)` (stale-for-age
    /// hints excluded, exactly as a query would see it).
    pub fn directory_sharers(&self, fid: Fid, blk: u64) -> Vec<NodeId> {
        let cut = self.stale_cutoff();
        self.directory
            .get(&(fid, blk))
            .map(|sharers| {
                sharers
                    .iter()
                    .filter(|(_, g)| cut.is_none_or(|c| *g >= c))
                    .map(|(n, _)| *n)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Oldest still-believable generation stamp (`None` = believe all).
    fn stale_cutoff(&self) -> Option<u64> {
        self.hint_max_age.map(|age| self.dir_gen.saturating_sub(age))
    }

    fn apply_dir_update(&mut self, up: BlockDirUpdate) {
        self.stats.dir_updates += 1;
        let gen_before = self.dir_gen;
        for d in up.deltas {
            for blk in d.added {
                // One generation per block addition: the aging window is
                // measured in directory traffic, however the modules batch
                // their deltas.
                self.dir_gen += 1;
                let gen = self.dir_gen;
                let cut = self.stale_cutoff();
                let sharers = self.directory.entry((d.fid, blk)).or_default();
                match sharers.iter_mut().find(|(n, _)| *n == up.node) {
                    Some(s) => s.1 = gen,
                    None => sharers.push((up.node, gen)),
                }
                // A refresh is the cheap moment to shed this entry's other
                // stale sharers.
                if let Some(c) = cut {
                    let before = sharers.len();
                    sharers.retain(|(_, g)| *g >= c);
                    self.stats.dir_stale_dropped += (before - sharers.len()) as u64;
                }
            }
            for blk in d.removed {
                if let Some(sharers) = self.directory.get_mut(&(d.fid, blk)) {
                    sharers.retain(|(n, _)| *n != up.node);
                    if sharers.is_empty() {
                        self.directory.remove(&(d.fid, blk));
                    }
                }
            }
        }
        // Amortized full sweep, once per `age` generations: entries nobody
        // refreshes or queries again would otherwise be immortal — exactly
        // the blocks-ever-cached accretion hint mode used to suffer.
        if let Some(age) = self.hint_max_age {
            if self.dir_gen / age > gen_before / age {
                self.sweep_stale();
            }
        }
    }

    /// Drop every sharer stamp older than the cutoff and every entry
    /// left empty by that.
    fn sweep_stale(&mut self) {
        let Some(cut) = self.stale_cutoff() else {
            return;
        };
        let mut dropped = 0u64;
        self.directory.retain(|_, sharers| {
            let before = sharers.len();
            sharers.retain(|(_, g)| *g >= cut);
            dropped += (before - sharers.len()) as u64;
            !sharers.is_empty()
        });
        self.stats.dir_stale_dropped += dropped;
    }

    fn serve_dir_query(&mut self, q: &BlockDirQuery) -> BlockDirReply {
        self.stats.dir_queries += 1;
        let requester = q.reply_to.0;
        let cut = self.stale_cutoff();
        let mut locations = Vec::new();
        for &blk in &q.blocks {
            let peer = self
                .directory
                .get(&(q.fid, blk))
                .and_then(|sharers| {
                    sharers.iter().find(|(n, g)| *n != requester && cut.is_none_or(|c| *g >= c))
                })
                .map(|(n, _)| *n);
            match peer {
                Some(node) => {
                    self.stats.dir_located += 1;
                    locations.push((blk, node));
                }
                None => self.stats.dir_unknown += 1,
            }
        }
        BlockDirReply { req_id: q.req_id, fid: q.fid, locations }
    }

    fn serve(&mut self, call: MgrCall) -> MgrReply {
        match call.req {
            MgrRequest::Create { name, size } => {
                if self.files.contains_key(&name) {
                    self.stats.errors += 1;
                    return MgrReply::Err { req_id: call.req_id, reason: "exists".into() };
                }
                let fid = Fid(self.next_fid);
                self.next_fid += 1;
                self.stats.creates += 1;
                // Round-robin the base iod across files so simultaneous
                // single-file workloads do not all hammer iod 0 first.
                let stripe = StripeSpec {
                    unit: self.policy.unit,
                    n_iods: self.policy.n_iods,
                    base: (fid.0 % self.policy.total_iods as u64) as u32,
                };
                let handle = FileHandle { fid, size, stripe };
                self.files.insert(name, handle.clone());
                MgrReply::Ok { req_id: call.req_id, handle }
            }
            MgrRequest::Open { name } => match self.files.get(&name) {
                Some(handle) => {
                    self.stats.opens += 1;
                    MgrReply::Ok { req_id: call.req_id, handle: handle.clone() }
                }
                None => {
                    self.stats.errors += 1;
                    MgrReply::Err { req_id: call.req_id, reason: "no such file".into() }
                }
            },
        }
    }
}

impl Actor for Mgr {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let d = match msg.cast::<Deliver>() {
            Ok(d) => d.0,
            Err(other) => panic!("mgr received unexpected message: {:?}", other),
        };
        let d = match d.cast::<MgrCall>() {
            Ok((_, call)) => {
                let reply_to = call.reply_to;
                let reply = self.serve(*call);
                // Charge receive + service + send on the mgr node's CPU,
                // then put the reply on the wire.
                let service = self.costs.recv_overhead
                    + self.costs.mgr_request_overhead
                    + self.costs.send_overhead;
                let done = resource::reserve(&self.cpu, ctx.now(), service);
                self.tag += 1;
                let out = NetMessage::new(
                    (self.node, MGR_PORT),
                    reply_to,
                    crate::protocol::MSG_HEADER_BYTES + 64, // handle encoding
                    self.tag,
                    reply,
                );
                ctx.schedule_in(done.since(ctx.now()), self.fabric, Xmit(out));
                return;
            }
            Err(m) => m,
        };
        let d = match d.cast::<BlockDirUpdate>() {
            Ok((_, up)) => {
                // Fire-and-forget bookkeeping: receive cost only.
                let _ = resource::reserve(&self.cpu, ctx.now(), self.costs.recv_overhead);
                self.apply_dir_update(*up);
                return;
            }
            Err(m) => m,
        };
        match d.cast::<BlockDirQuery>() {
            Ok((_, q)) => {
                let reply = self.serve_dir_query(&q);
                let service = self.costs.recv_overhead
                    + self.costs.mgr_request_overhead
                    + self.costs.send_overhead;
                let done = resource::reserve(&self.cpu, ctx.now(), service);
                if let Some(o) = &self.obs {
                    let pid = self.node.0 as u32;
                    o.hub.span(
                        o.ev_dir_lookup,
                        pid,
                        MGR_TRACE_LANE,
                        ctx.now().nanos(),
                        done.since(ctx.now()).as_nanos(),
                        q.blocks.len() as u64,
                        reply.locations.len() as u64,
                    );
                    if !q.flow.is_none() {
                        // The requester opened this flow at its miss;
                        // step it through the directory lookup.
                        o.hub.flow(
                            o.ev_flow,
                            Phase::FlowStep,
                            ctx.now().nanos(),
                            pid,
                            MGR_TRACE_LANE,
                            q.flow,
                        );
                    }
                }
                self.tag += 1;
                let wire = reply.wire_bytes();
                let out = NetMessage::new((self.node, MGR_PORT), q.reply_to, wire, self.tag, reply);
                ctx.schedule_in(done.since(ctx.now()), self.fabric, Xmit(out));
            }
            Err(m) => panic!("mgr received unexpected payload: {:?}", m),
        }
    }

    fn name(&self) -> String {
        "mgr".into()
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{Dur, Engine, FifoResource};
    use sim_net::Port;

    struct Capture {
        replies: Vec<MgrReply>,
        dir_replies: Vec<BlockDirReply>,
    }
    impl Actor for Capture {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
            // In this unit test we short-circuit the fabric: Xmit arrives here.
            if let Ok(x) = msg.cast::<Xmit>() {
                match x.0.cast::<MgrReply>() {
                    Ok((_, r)) => self.replies.push(*r),
                    Err(m) => {
                        let (_, r) = m.cast::<BlockDirReply>().expect("mgr reply type");
                        self.dir_replies.push(*r);
                    }
                }
            }
        }
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
            Some(self)
        }
    }

    fn call(req_id: u64, req: MgrRequest) -> Deliver {
        Deliver(NetMessage::new(
            (NodeId(1), Port(9000)),
            (NodeId(0), MGR_PORT),
            64,
            0,
            MgrCall { req_id, reply_to: (NodeId(1), Port(9000)), req },
        ))
    }

    fn setup() -> (Engine, ActorId, ActorId) {
        let mut eng = Engine::new(0);
        let cap = eng.add_actor(Box::new(Capture { replies: vec![], dir_replies: vec![] }));
        let mgr = eng.add_actor(Box::new(Mgr::new(
            NodeId(0),
            cap,
            FifoResource::shared("mgr-cpu"),
            CostModel::default(),
            StripePolicy { unit: 65536, n_iods: 4, total_iods: 6 },
        )));
        (eng, mgr, cap)
    }

    #[test]
    fn create_then_open_returns_same_handle() {
        let (mut eng, mgr, cap) = setup();
        eng.post(Dur::ZERO, mgr, call(1, MgrRequest::Create { name: "f".into(), size: 1 << 20 }));
        eng.post(Dur::micros(1), mgr, call(2, MgrRequest::Open { name: "f".into() }));
        eng.run();
        let replies = &eng.actor_as::<Capture>(cap).unwrap().replies;
        assert_eq!(replies.len(), 2);
        let (h1, h2) = match (&replies[0], &replies[1]) {
            (MgrReply::Ok { handle: a, .. }, MgrReply::Ok { handle: b, .. }) => (a, b),
            other => panic!("unexpected replies: {:?}", other),
        };
        assert_eq!(h1.fid, h2.fid);
        assert_eq!(h1.size, 1 << 20);
        assert_eq!(h1.stripe.n_iods, 4);
    }

    #[test]
    fn duplicate_create_and_missing_open_error() {
        let (mut eng, mgr, cap) = setup();
        eng.post(Dur::ZERO, mgr, call(1, MgrRequest::Create { name: "f".into(), size: 10 }));
        eng.post(Dur::micros(1), mgr, call(2, MgrRequest::Create { name: "f".into(), size: 10 }));
        eng.post(Dur::micros(2), mgr, call(3, MgrRequest::Open { name: "nope".into() }));
        eng.run();
        let replies = &eng.actor_as::<Capture>(cap).unwrap().replies;
        assert!(matches!(replies[0], MgrReply::Ok { .. }));
        assert!(matches!(replies[1], MgrReply::Err { .. }));
        assert!(matches!(replies[2], MgrReply::Err { .. }));
        let m = eng.actor_as::<Mgr>(mgr).unwrap();
        assert_eq!(m.stats().creates, 1);
        assert_eq!(m.stats().errors, 2);
    }

    #[test]
    fn base_iod_round_robins_across_files() {
        let (mut eng, mgr, cap) = setup();
        for i in 0..6 {
            eng.post(
                Dur::micros(i),
                mgr,
                call(i, MgrRequest::Create { name: format!("f{i}"), size: 1 }),
            );
        }
        eng.run();
        let replies = &eng.actor_as::<Capture>(cap).unwrap().replies;
        let bases: Vec<u32> = replies
            .iter()
            .map(|r| match r {
                MgrReply::Ok { handle, .. } => handle.stripe.base,
                _ => panic!(),
            })
            .collect();
        let distinct: std::collections::HashSet<u32> = bases.iter().copied().collect();
        assert!(distinct.len() >= 5, "bases should spread: {:?}", bases);
    }

    fn dir_update(node: u16, added: Vec<u64>, removed: Vec<u64>) -> Deliver {
        Deliver(NetMessage::new(
            (NodeId(node), Port(7100)),
            (NodeId(0), MGR_PORT),
            64,
            0,
            BlockDirUpdate {
                node: NodeId(node),
                deltas: vec![crate::protocol::DirDelta { fid: Fid(1), added, removed }],
            },
        ))
    }

    fn dir_query(node: u16, req_id: u64, blocks: Vec<u64>) -> Deliver {
        Deliver(NetMessage::new(
            (NodeId(node), Port(7100)),
            (NodeId(0), MGR_PORT),
            64,
            0,
            BlockDirQuery {
                req_id,
                fid: Fid(1),
                blocks,
                reply_to: (NodeId(node), Port(7100)),
                flow: kcache_obs::FlowId::NONE,
            },
        ))
    }

    #[test]
    fn traced_query_emits_lookup_span_and_flow_step() {
        use kcache_obs::FlowId;
        let mut eng = Engine::new(0);
        let cap = eng.add_actor(Box::new(Capture { replies: vec![], dir_replies: vec![] }));
        let hub = kcache_obs::ObsHub::new(64);
        let mut m = Mgr::new(
            NodeId(0),
            cap,
            FifoResource::shared("mgr-cpu"),
            CostModel::default(),
            StripePolicy { unit: 65536, n_iods: 4, total_iods: 6 },
        );
        m.set_obs(hub.clone());
        let mgr = eng.add_actor(Box::new(m));
        eng.post(Dur::ZERO, mgr, dir_update(1, vec![10], vec![]));
        let flow = FlowId::coop(3, 9);
        eng.post(
            Dur::micros(1),
            mgr,
            Deliver(NetMessage::new(
                (NodeId(3), Port(7100)),
                (NodeId(0), MGR_PORT),
                64,
                0,
                BlockDirQuery {
                    req_id: 9,
                    fid: Fid(1),
                    blocks: vec![10, 11],
                    reply_to: (NodeId(3), Port(7100)),
                    flow,
                },
            )),
        );
        eng.run();
        let ev = hub.drain_trace();
        let span = ev
            .iter()
            .find(|e| e.name == "dir_lookup" && e.phase == Phase::Span)
            .expect("dir_lookup span");
        assert_eq!((span.pid, span.tid), (0, MGR_TRACE_LANE));
        assert!(span.dur_ns > 0, "span covers the charged service time");
        assert_eq!(span.args, vec![("blocks".to_string(), 2), ("located".to_string(), 1)]);
        let step = ev
            .iter()
            .find(|e| e.name == "coop_fetch" && e.phase == Phase::FlowStep)
            .expect("flow step");
        assert_eq!(step.flow_id, flow.0);
    }

    #[test]
    fn directory_tracks_updates_and_answers_queries() {
        let (mut eng, mgr, cap) = setup();
        eng.post(Dur::ZERO, mgr, dir_update(1, vec![10, 11], vec![]));
        eng.post(Dur::micros(1), mgr, dir_update(2, vec![10], vec![]));
        eng.post(Dur::micros(2), mgr, dir_update(1, vec![], vec![11]));
        // Query from node 3: block 10 has sharers {1,2}, 11 was removed,
        // 12 was never registered.
        eng.post(Dur::micros(3), mgr, dir_query(3, 7, vec![10, 11, 12]));
        eng.run();
        let m = eng.actor_as::<Mgr>(mgr).unwrap();
        assert_eq!(m.stats().dir_updates, 3);
        assert_eq!(m.stats().dir_queries, 1);
        assert_eq!(m.stats().dir_located, 1);
        assert_eq!(m.stats().dir_unknown, 2);
        assert_eq!(m.directory_sharers(Fid(1), 10), vec![NodeId(1), NodeId(2)]);
        assert_eq!(m.directory_entries(), 1);
        // The capture actor received the reply destined for node 3.
        let cap = eng.actor_as::<Capture>(cap).unwrap();
        assert_eq!(cap.dir_replies.len(), 1);
        let r = &cap.dir_replies[0];
        assert_eq!(r.req_id, 7);
        assert_eq!(r.locations, vec![(10, NodeId(1))]);
    }

    #[test]
    fn one_update_message_carries_several_files() {
        use crate::protocol::DirDelta;
        let (mut eng, mgr, _cap) = setup();
        eng.post(Dur::ZERO, mgr, dir_update(1, vec![10, 11], vec![]));
        let multi = BlockDirUpdate {
            node: NodeId(1),
            deltas: vec![
                DirDelta { fid: Fid(1), added: vec![12], removed: vec![10] },
                DirDelta { fid: Fid(2), added: vec![10], removed: vec![] },
            ],
        };
        eng.post(
            Dur::micros(1),
            mgr,
            Deliver(NetMessage::new((NodeId(1), Port(7100)), (NodeId(0), MGR_PORT), 64, 0, multi)),
        );
        eng.run();
        let m = eng.actor_as::<Mgr>(mgr).unwrap();
        assert_eq!(m.stats().dir_updates, 2, "one message, however many files");
        assert!(m.directory_sharers(Fid(1), 10).is_empty(), "removal applied");
        assert_eq!(m.directory_sharers(Fid(1), 11), vec![NodeId(1)]);
        assert_eq!(m.directory_sharers(Fid(1), 12), vec![NodeId(1)]);
        assert_eq!(m.directory_sharers(Fid(2), 10), vec![NodeId(1)], "second file's section");
    }

    #[test]
    fn query_never_points_the_requester_at_itself() {
        let (mut eng, mgr, cap) = setup();
        eng.post(Dur::ZERO, mgr, dir_update(1, vec![10], vec![]));
        eng.post(Dur::micros(1), mgr, dir_update(2, vec![10], vec![]));
        // Node 1 asks about a block it itself registered: the answer must
        // be the other sharer.
        eng.post(Dur::micros(2), mgr, dir_query(1, 1, vec![10]));
        eng.run();
        let cap = eng.actor_as::<Capture>(cap).unwrap();
        assert_eq!(cap.dir_replies[0].locations, vec![(10, NodeId(2))]);
    }

    #[test]
    fn hint_directory_growth_is_bounded_by_aging() {
        // Hint mode sends adds but never removals: without aging the
        // directory accretes every block ever cached. With aging armed,
        // a long run of distinct-block updates must stay bounded by the
        // age window, not grow with the total block count.
        let (mut eng, mgr, _cap) = setup();
        const AGE: u64 = 64;
        const UPDATES: u64 = 1_000;
        eng.actor_as_mut::<Mgr>(mgr).unwrap().set_hint_aging(AGE);
        for i in 0..UPDATES {
            eng.post(Dur::micros(i), mgr, dir_update(1, vec![i], vec![]));
        }
        eng.run();
        let m = eng.actor_as::<Mgr>(mgr).unwrap();
        // Between sweeps (every AGE generations) at most 2*AGE entries
        // can be live-or-not-yet-swept.
        assert!(
            m.directory_entries() as u64 <= 2 * AGE,
            "hint directory accreted: {} entries after {} updates",
            m.directory_entries(),
            UPDATES
        );
        assert!(m.stats().dir_stale_dropped >= UPDATES - 2 * AGE);
        // Fresh entries survive; aged-out ones are gone.
        assert_eq!(m.directory_sharers(Fid(1), UPDATES - 1), vec![NodeId(1)]);
        assert!(m.directory_sharers(Fid(1), 0).is_empty());
    }

    #[test]
    fn authoritative_directory_never_ages() {
        let (mut eng, mgr, cap) = setup();
        // No set_hint_aging: stamps live forever, removals keep it tight.
        for i in 0..200u64 {
            eng.post(Dur::micros(i), mgr, dir_update(1, vec![i], vec![]));
        }
        eng.post(Dur::micros(200), mgr, dir_query(3, 9, vec![0]));
        eng.run();
        let m = eng.actor_as::<Mgr>(mgr).unwrap();
        assert_eq!(m.directory_entries(), 200);
        assert_eq!(m.stats().dir_stale_dropped, 0);
        let cap = eng.actor_as::<Capture>(cap).unwrap();
        assert_eq!(cap.dir_replies[0].locations, vec![(0, NodeId(1))]);
    }

    #[test]
    fn service_takes_cpu_time() {
        let (mut eng, mgr, _cap) = setup();
        eng.post(Dur::ZERO, mgr, call(1, MgrRequest::Open { name: "x".into() }));
        let report = eng.run();
        let c = CostModel::default();
        let expect = c.recv_overhead + c.mgr_request_overhead + c.send_overhead;
        assert_eq!(report.end_time.since(sim_core::SimTime::ZERO), expect);
    }
}
