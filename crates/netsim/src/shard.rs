//! The shard machinery behind [`Simulator`]: region partitioning and
//! the conservative parallel run.
//!
//! At freeze time the node population is split into `S` spatially
//! contiguous shards (nodes sorted by position, chunked evenly; each
//! shard's members kept in ascending id order), each with its own event
//! heap, sequence counter, member RNG streams, fault samplers and stats
//! block. With one worker there is one shard and a node's local index
//! equals its id.
//!
//! # Horizon protocol
//!
//! [`Simulator::run_shards`] runs the shards on worker threads under the
//! classic conservative (Chandy–Misra–Bryant-style) discipline: the
//! **lookahead** `L` is the radio's zero-byte latency, the minimum delay
//! any cross-shard effect can have, so a shard may safely execute every
//! event strictly earlier than the earliest instant at which any other
//! shard could still send it something.
//!
//! There are no null messages and no barriers. Each shard `s`
//! publishes a single atomic **clock** — a promise that every message
//! it will *ever* send from now on is delivered no earlier than the
//! published value. The promise is computed as
//! `min(head_s, min_{p≠s} clock_p) + L`: shard `s` can only produce a
//! send by executing either its own earliest pending event (`head_s`)
//! or some future arrival (which, by the other shards' promises,
//! arrives no earlier than `min clock_p`), and either way the send is
//! delivered at least `L` later. Clocks are monotone, so the fixed
//! point is approached from below and every published value is sound.
//! A shard executes its head event at time `t` iff `t` is strictly
//! below every other shard's clock (strictness is what keeps
//! same-timestamp cross-shard races impossible) and `t` is within the
//! run deadline; with `L > 0` the globally earliest pending event is
//! always eventually executable, so the protocol is deadlock-free.
//!
//! Message visibility rides on a release/acquire pair: a worker
//! enqueues its cross-shard sends into the target's channel *before*
//! release-publishing its clock, and a worker always acquire-loads the
//! other clocks *before* draining its inbox — so once a shard observes
//! `clock_p > t`, every message from `p` with delivery time `≤ t` is
//! already in its inbox. That same ordering makes run termination
//! exact: a shard leaves the run loop only once both its own head and
//! every other clock are beyond the deadline.
//!
//! # Determinism
//!
//! Determinism does not come from the schedule — it comes from making
//! every draw independent of the schedule. Each node owns a private
//! RNG stream and fault sampler seeded from `(run seed, node id)`, and
//! every event carries a total-order key `(time, origin shard, origin
//! sequence)` assigned by the *sending* shard at send time — never by
//! arrival order. Two same-run-shape executions therefore produce
//! identical per-node event sequences, identical draws, and identical
//! merged stats, regardless of how worker threads interleave. Runs at
//! `workers > 1` are outcome-pinned against one worker (same winner
//! maps, formation counts and conserved capacity) by the system-level
//! equivalence suites.
//!
//! # When a run stays on one thread
//!
//! Parallel execution requires an immutable node table for the whole
//! run. Whenever that cannot be guaranteed — mobility is armed, a
//! `Down`/`Up` event is pending, the radio has zero latency (no
//! lookahead), or there is only one shard — the simulator runs its one
//! single-thread event loop, executing the globally smallest key each
//! step. [`Simulator::run_until`], which drives every shard through one
//! app, always runs there. Both paths assign identical keys and make
//! identical draws, so eligibility never changes outcomes, only
//! parallelism.
//!
//! [`Simulator`]: crate::Simulator
//! [`Simulator::run_shards`]: crate::Simulator::run_shards
//! [`Simulator::run_until`]: crate::Simulator::run_until

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::utils::CachePadded;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::fault::{FaultPlan, FaultSampler, PartitionTimeline};
use crate::grid::NeighbourIndex;
use crate::radio::RadioModel;
use crate::sim::{
    node_stream_seed, Command, Ctx, Draws, EventKind, Medium, NetApp, NodeId, NodeSlot, Scheduled,
    SendKind,
};
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};

/// The frozen node→shard assignment, fixed at the first run.
pub(crate) struct Partition {
    /// Number of shards (= `min(workers, nodes)`, at least 1).
    pub(crate) shards: usize,
    /// `NodeId → shard`.
    pub(crate) shard_of: Vec<u32>,
    /// `NodeId → index into its shard's member-parallel tables`.
    pub(crate) local_of: Vec<u32>,
    /// Member node ids per shard, in ascending id order.
    pub(crate) members: Vec<Vec<NodeId>>,
    /// Conservative lookahead: the radio's zero-byte latency.
    pub(crate) lookahead: SimDuration,
}

impl Partition {
    /// Sorts the nodes by `(x, y, id)` and chunks them into
    /// `min(workers, nodes)` near-equal contiguous groups, so shards are
    /// spatially coherent and cross-shard traffic tracks the radio range
    /// rather than the node id layout. Each group is then put back in id
    /// order, which only changes local indices: at one worker a node's
    /// local index is its id.
    pub(crate) fn new(nodes: &[NodeSlot], workers: usize, lookahead: SimDuration) -> Self {
        let n = nodes.len();
        let shards = workers.min(n).max(1);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            let pa = nodes[a as usize].pos;
            let pb = nodes[b as usize].pos;
            pa.x.total_cmp(&pb.x)
                .then(pa.y.total_cmp(&pb.y))
                .then(a.cmp(&b))
        });
        let mut shard_of = vec![0u32; n];
        let mut local_of = vec![0u32; n];
        let mut members: Vec<Vec<NodeId>> = Vec::with_capacity(shards);
        let (base, rem) = (n / shards, n % shards);
        let mut rest = order.as_mut_slice();
        for q in 0..shards {
            let (group, tail) = rest.split_at_mut(base + usize::from(q < rem));
            group.sort_unstable();
            for (local, &id) in group.iter().enumerate() {
                shard_of[id as usize] = q as u32;
                local_of[id as usize] = local as u32;
            }
            members.push(group.iter().map(|&id| NodeId(id)).collect());
            rest = tail;
        }
        Self {
            shards,
            shard_of,
            local_of,
            members,
            lookahead,
        }
    }

    /// The shard owning `node`; unknown nodes map to shard 0, whose
    /// executor skips their events.
    pub(crate) fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of
            .get(node.0 as usize)
            .map_or(0, |&s| s as usize)
    }

    /// Shard that anchors (and therefore executes) `kind`. Events with
    /// no node anchor go to shard 0.
    pub(crate) fn anchor_shard<M>(&self, kind: &EventKind<M>) -> usize {
        anchor_node(kind).map_or(0, |n| self.shard_of(n))
    }
}

/// The node an event is anchored at: the node whose RNG stream backs
/// its handler and whose shard owns it.
fn anchor_node<M>(kind: &EventKind<M>) -> Option<NodeId> {
    match kind {
        EventKind::Deliver { dst, .. } => Some(*dst),
        EventKind::Timer { node, .. } => Some(*node),
        EventKind::Down(n) | EventKind::Up(n) => Some(*n),
        EventKind::MobilityTick => None,
    }
}

/// One shard's mutable state: its event heap, sequence counter, the
/// RNG streams and fault samplers of its member nodes, its stats block
/// for the current run, and reused scratch buffers that keep the hot
/// loop alloc-free (a fresh `Vec` per broadcast or per handler showed up
/// in profiles).
pub(crate) struct ShardState<M> {
    pub(crate) heap: BinaryHeap<Scheduled<M>>,
    seq: u64,
    now: SimTime,
    /// Member-parallel per-node RNG streams.
    pub(crate) streams: Vec<ChaCha8Rng>,
    /// Member-parallel fault samplers (empty when no plan samples).
    pub(crate) fault: Vec<FaultSampler>,
    pub(crate) stats: NetStats,
    bcast: Vec<(NodeId, f64)>,
    cands: Vec<NodeId>,
    cmds: Vec<Command<M>>,
}

impl<M> ShardState<M> {
    pub(crate) fn new(members: &[NodeId], seed: u64, plan: Option<FaultPlan>) -> Self {
        let mut st = Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            streams: Vec::with_capacity(members.len()),
            fault: Vec::new(),
            stats: NetStats::default(),
            bcast: Vec::new(),
            cands: Vec::new(),
            cmds: Vec::new(),
        };
        for &id in members {
            st.add_member(id, seed, plan);
        }
        st
    }

    /// Appends `id`'s RNG stream and, under a sampling `plan`, its fault
    /// sampler to the member-parallel tables.
    pub(crate) fn add_member(&mut self, id: NodeId, seed: u64, plan: Option<FaultPlan>) {
        self.streams
            .push(ChaCha8Rng::seed_from_u64(node_stream_seed(seed, id.0)));
        self.fault
            .extend(plan.map(|p| FaultSampler::for_node(p, id.0)));
    }

    /// Keys `kind` at `at` with the next sequence number of origin
    /// shard `q` (this shard).
    fn key(&mut self, q: u32, at: SimTime, kind: EventKind<M>) -> Scheduled<M> {
        let seq = self.seq;
        self.seq += 1;
        Scheduled {
            at,
            shard: q,
            seq,
            kind,
        }
    }

    /// Schedules `kind` at `at` on this shard (`q`), under its next key.
    pub(crate) fn push(&mut self, q: u32, at: SimTime, kind: EventKind<M>) {
        let ev = self.key(q, at, kind);
        self.heap.push(ev);
    }
}

/// Immutable state shared by every shard for the duration of a run.
#[derive(Clone, Copy)]
pub(crate) struct Fabric<'a> {
    pub(crate) nodes: &'a [NodeSlot],
    pub(crate) index: &'a NeighbourIndex,
    pub(crate) radio: &'a RadioModel,
    pub(crate) part: &'a Partition,
    /// Expanded partition schedule (a read-only timestamp lookup, so it
    /// is safely shared by every worker).
    pub(crate) cuts: Option<&'a PartitionTimeline>,
}

/// Executes one Deliver/Timer/Down/Up event against shard `q`'s state.
/// Newly scheduled events are all keyed `(at, q, seq)` by this shard;
/// same-shard events go straight onto this shard's heap (the common
/// case — and the whole event population at one worker), while
/// cross-shard events are appended to `out` for the caller to route.
/// For Down/Up the caller has already flipped the liveness flag (the
/// node table is immutable here); this only runs callbacks.
pub(crate) fn execute_event<M, A: NetApp<M>>(
    fabric: &Fabric<'_>,
    q: u32,
    st: &mut ShardState<M>,
    app: &mut A,
    ev: Scheduled<M>,
    out: &mut Vec<Scheduled<M>>,
) {
    let now = ev.at;
    let key = ev.key();
    st.now = now;
    let is_up = |n: NodeId| -> bool { fabric.nodes.get(n.0 as usize).is_some_and(|slot| slot.up) };
    // Handlers run against a borrowed Ctx view of the node table and
    // fill the reused command buffer; commands are applied after the
    // handler returns and the buffer goes back into the scratch slot.
    // `$anchor` is the node the event is anchored at: its RNG stream
    // backs `ctx.rng` and every draw the emitted commands need.
    macro_rules! with_ctx {
        ($anchor:expr, |$ctx:ident| $call:expr) => {{
            let anchor: NodeId = $anchor;
            let local = fabric.part.local_of[anchor.0 as usize] as usize;
            let cmds = std::mem::take(&mut st.cmds);
            let mut $ctx = Ctx {
                now,
                rng: &mut st.streams[local],
                cmds,
                nodes: fabric.nodes,
                index: fabric.index,
                radio: fabric.radio,
                key,
            };
            $call;
            let mut cmds = $ctx.cmds;
            apply_commands(fabric, q, now, local, st, &mut cmds, out);
            st.cmds = cmds;
        }};
    }
    match ev.kind {
        EventKind::Deliver {
            kind,
            src,
            dst,
            bytes,
            sent_at,
            msg,
        } => {
            // The destination may have died in flight.
            if is_up(dst) {
                match kind {
                    SendKind::Unicast => st.stats.unicasts_delivered += 1,
                    SendKind::Broadcast => st.stats.broadcast_deliveries += 1,
                }
                st.stats.record_delivery(now.since(sent_at), bytes);
                with_ctx!(dst, |ctx| app.on_message(&mut ctx, dst, src, &msg));
            } else {
                match kind {
                    SendKind::Unicast => st.stats.unicasts_unreachable += 1,
                    SendKind::Broadcast => st.stats.broadcasts_undelivered += 1,
                }
            }
        }
        EventKind::Timer { node, token } => {
            if is_up(node) {
                with_ctx!(node, |ctx| app.on_timer(&mut ctx, node, token));
            }
        }
        EventKind::Down(node) => {
            with_ctx!(node, |ctx| app.on_node_down(&mut ctx, node));
        }
        EventKind::Up(node) => {
            with_ctx!(node, |ctx| app.on_node_up(&mut ctx, node));
        }
        EventKind::MobilityTick => unreachable!("mobility ticks are handled by the merged loop"),
    }
}

/// Applies the commands a handler emitted, drawing from the RNG stream
/// and fault sampler at member index `local` (the event's anchor node)
/// through the shared delivery planner ([`Medium`]).
fn apply_commands<M>(
    fabric: &Fabric<'_>,
    q: u32,
    now: SimTime,
    local: usize,
    st: &mut ShardState<M>,
    cmds: &mut Vec<Command<M>>,
    out: &mut Vec<Scheduled<M>>,
) {
    let medium = Medium {
        radio: fabric.radio,
        nodes: fabric.nodes,
        index: fabric.index,
        cuts: fabric.cuts,
    };
    // Assigns the next `(at, q, seq)` key and routes: events anchored
    // in this shard skip `out` and land directly on the heap. Unknown
    // targets anchor at shard 0, whose executor skips them.
    macro_rules! emit {
        ($at:expr, $target:expr, $kind:expr) => {{
            let ev = st.key(q, $at, $kind);
            if fabric.part.shard_of($target) == q as usize {
                st.heap.push(ev);
            } else {
                out.push(ev);
            }
        }};
    }
    for cmd in cmds.drain(..) {
        match cmd {
            Command::Unicast {
                src,
                dst,
                bytes,
                msg,
            } => {
                let times = medium.plan_unicast(
                    &mut Draws {
                        rng: &mut st.streams[local],
                        fault: st.fault.get_mut(local),
                        stats: &mut st.stats,
                    },
                    src,
                    dst,
                    now,
                    bytes,
                );
                for at in times.into_iter().flatten() {
                    emit!(
                        at,
                        dst,
                        EventKind::Deliver {
                            kind: SendKind::Unicast,
                            src,
                            dst,
                            bytes,
                            sent_at: now,
                            msg: Arc::clone(&msg),
                        }
                    );
                }
            }
            Command::Broadcast { src, bytes, msg } => {
                let mut cands = std::mem::take(&mut st.cands);
                let mut targets = std::mem::take(&mut st.bcast);
                medium.collect_broadcast_targets(&mut st.stats, src, &mut cands, &mut targets);
                st.cands = cands;
                let latency = fabric.radio.latency(bytes);
                for &(dst, dist) in &targets {
                    let times = medium.plan_broadcast_copy(
                        &mut Draws {
                            rng: &mut st.streams[local],
                            fault: st.fault.get_mut(local),
                            stats: &mut st.stats,
                        },
                        src,
                        dst,
                        dist,
                        now + latency,
                    );
                    for at in times.into_iter().flatten() {
                        emit!(
                            at,
                            dst,
                            EventKind::Deliver {
                                kind: SendKind::Broadcast,
                                src,
                                dst,
                                bytes,
                                sent_at: now,
                                // Shared payload: the broadcast's one allocation.
                                msg: Arc::clone(&msg),
                            }
                        );
                    }
                }
                st.bcast = targets;
            }
            Command::Timer { node, delay, token } => {
                emit!(now + delay, node, EventKind::Timer { node, token });
            }
        }
    }
}

/// Everything one parallel worker needs besides its own shard state.
struct Worker<'a, M> {
    q: usize,
    rx: Receiver<Scheduled<M>>,
    txs: Vec<Sender<Scheduled<M>>>,
    clocks: &'a [CachePadded<AtomicU64>],
    fabric: Fabric<'a>,
    /// Lookahead in µs (strictly positive in parallel mode).
    lookahead: u64,
    deadline: SimTime,
}

impl<M: Send + Sync> Worker<'_, M> {
    /// The conservative run loop for one shard. Returns the number of
    /// events executed.
    fn run<A: NetApp<M>>(&self, st: &mut ShardState<M>, app: &mut A) -> u64 {
        let q = self.q;
        let mut processed = 0u64;
        let mut out: Vec<Scheduled<M>> = Vec::new();
        loop {
            // (a) Acquire-load every other shard's promise FIRST: any
            // message counted on below was enqueued before its sender
            // release-published the clock value we are about to read.
            let mut min_other = u64::MAX;
            for (p, c) in self.clocks.iter().enumerate() {
                if p != q {
                    min_other = min_other.min(c.load(Ordering::Acquire));
                }
            }
            // (b) Drain the inbox AFTER the clock loads (see above).
            while let Ok(ev) = self.rx.try_recv() {
                st.heap.push(ev);
            }
            // (c) Own head, (d) publish the new promise — monotone, and
            // published before the exit check so the final value every
            // shard leaves behind is itself beyond the deadline.
            let head = st.heap.peek().map_or(u64::MAX, |e| e.at.0);
            let bound = head.min(min_other).saturating_add(self.lookahead);
            self.clocks[q].fetch_max(bound, Ordering::Release);
            // (e) Done: nothing of ours and nothing inbound can still
            // land inside this run's deadline.
            if head.min(min_other) > self.deadline.0 {
                break;
            }
            // (f) Execute every event strictly below the horizon.
            let mut executed_any = false;
            while let Some(h) = st.heap.peek() {
                if h.at.0 > self.deadline.0 || h.at.0 >= min_other {
                    break;
                }
                let Some(ev) = st.heap.pop() else { break };
                execute_event(&self.fabric, q as u32, st, app, ev, &mut out);
                processed += 1;
                executed_any = true;
                // `out` holds only cross-shard events (same-shard ones
                // went straight onto the heap inside `execute_event`).
                for ev in out.drain(..) {
                    let target = self.fabric.part.anchor_shard(&ev.kind);
                    debug_assert_ne!(target, q, "same-shard event routed via out");
                    // Conservative soundness: a cross-shard effect
                    // may never land inside the lookahead window.
                    // Deliveries can't (latency >= lookahead by
                    // construction); this catches apps arming
                    // sub-lookahead timers on *other* nodes.
                    assert!(
                        ev.at.0 >= st.now.0.saturating_add(self.lookahead),
                        "cross-shard event within the lookahead window \
                         (scheduled {} at t={}, lookahead {} us)",
                        ev.at.0,
                        st.now.0,
                        self.lookahead,
                    );
                    // Send failures are impossible while the scope
                    // is alive: receivers outlive the run.
                    let _ = self.txs[target].send(ev);
                }
            }
            if !executed_any {
                std::thread::yield_now();
            }
        }
        processed
    }
}

/// Runs every shard on its own scoped worker thread until `deadline`:
/// horizon clocks in a cache-padded atomic array, cross-shard events
/// over channels, leftover in-flight events drained back into their
/// heaps after the join. Returns the number of events processed and the
/// latest time any shard reached.
pub(crate) fn run_workers<M, A>(
    fabric: Fabric<'_>,
    shards: &mut Vec<ShardState<M>>,
    apps: &mut [A],
    start_now: SimTime,
    deadline: SimTime,
) -> (u64, SimTime)
where
    M: Send + Sync,
    A: NetApp<M> + Send,
{
    let mut states = std::mem::take(shards);
    for st in &mut states {
        st.now = start_now;
    }
    let s = states.len();
    let clocks: Vec<CachePadded<AtomicU64>> = (0..s)
        .map(|_| CachePadded::new(AtomicU64::new(start_now.0)))
        .collect();
    let (txs, rxs): (Vec<Sender<_>>, Vec<Receiver<_>>) = (0..s).map(|_| unbounded()).unzip();
    let clocks_ref = &clocks;
    let lookahead = fabric.part.lookahead.as_micros();
    let scope_result = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(s);
        for (q, ((mut st, rx), app)) in states.into_iter().zip(rxs).zip(apps.iter_mut()).enumerate()
        {
            let worker = Worker {
                q,
                rx,
                txs: txs.clone(),
                clocks: clocks_ref,
                fabric,
                lookahead,
                deadline,
            };
            handles.push(scope.spawn(move |_| {
                let n = worker.run(&mut st, app);
                (st, worker.rx, n)
            }));
        }
        let mut joined = Vec::with_capacity(s);
        for h in handles {
            match h.join() {
                Ok(t) => joined.push(t),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        joined
    });
    let joined = match scope_result {
        Ok(j) => j,
        Err(payload) => std::panic::resume_unwind(payload),
    };
    drop(txs);
    let mut total = 0u64;
    let mut max_now = start_now;
    *shards = joined
        .into_iter()
        .map(|(mut st, rx, n)| {
            // Beyond-deadline stragglers stay scheduled for the next
            // run; every sender has exited, so the drain is exhaustive.
            while let Ok(ev) = rx.try_recv() {
                st.heap.push(ev);
            }
            total += n;
            max_now = max_now.max(st.now);
            st
        })
        .collect();
    (total, max_now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Area, Point};
    use crate::mobility::Mobility;
    use crate::sim::{SimConfig, Simulator};

    /// Receipt of one delivered message: total-order key, receiver,
    /// sender, payload, arrival time.
    type Receipt = ((SimTime, u32, u64), NodeId, NodeId, u32, SimTime);

    /// A TTL-bounded flood: the timer broadcasts 0, every receipt below
    /// the TTL rebroadcasts `msg + 1`. Generates heavy cross-shard
    /// traffic on a line topology.
    #[derive(Clone, Default)]
    struct Flood {
        ttl: u32,
        received: Vec<Receipt>,
    }

    impl NetApp<u32> for Flood {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, from: NodeId, msg: &u32) {
            self.received
                .push((ctx.order_key(), at, from, *msg, ctx.now));
            if *msg < self.ttl {
                ctx.broadcast(at, 64, *msg + 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, _token: u64) {
            ctx.broadcast(at, 64, 0);
        }
    }

    fn line_config(seed: u64) -> SimConfig {
        SimConfig {
            area: Area::new(2000.0, 200.0),
            radio: RadioModel::default(),
            seed,
            ..Default::default()
        }
    }

    const N: usize = 16;
    const DEADLINE: SimTime = SimTime(1_000_000);

    /// Line of N static nodes, 30 m apart (range 50 m → each node hears
    /// its immediate neighbours only).
    fn line(seed: u64, workers: usize) -> Simulator<u32> {
        let mut sim = Simulator::with_workers(line_config(seed), workers);
        for i in 0..N {
            sim.add_node(Point::new(30.0 * i as f64, 100.0), Mobility::Static);
        }
        sim
    }

    fn floods(sim: &mut Simulator<u32>, ttl: u32) -> Vec<Flood> {
        vec![
            Flood {
                ttl,
                ..Default::default()
            };
            sim.shard_count()
        ]
    }

    /// The line with a flood kicked off in the middle, on one worker.
    fn seq_run(seed: u64, ttl: u32) -> (Simulator<u32>, Flood, u64) {
        let mut sim = line(seed, 1);
        sim.schedule_timer(NodeId(N as u32 / 2), SimDuration::millis(1), 1);
        let mut app = Flood {
            ttl,
            ..Default::default()
        };
        let n = sim.run_until(&mut app, DEADLINE);
        (sim, app, n)
    }

    /// The same flood with one app per shard.
    fn sharded_run(seed: u64, ttl: u32, workers: usize) -> (Simulator<u32>, Vec<Flood>, u64) {
        let mut sim = line(seed, workers);
        sim.schedule_timer(NodeId(N as u32 / 2), SimDuration::millis(1), 1);
        let mut apps = floods(&mut sim, ttl);
        let n = sim.run_shards(&mut apps, DEADLINE);
        (sim, apps, n)
    }

    fn merged_receipts(apps: &[Flood]) -> Vec<Receipt> {
        let mut all: Vec<Receipt> = apps.iter().flat_map(|a| a.received.clone()).collect();
        all.sort();
        all
    }

    /// Receipts stripped of the partition-dependent key, in a canonical
    /// order — comparable across different shard counts.
    fn keyless(receipts: &[Receipt]) -> Vec<(SimTime, NodeId, NodeId, u32)> {
        let mut out: Vec<_> = receipts
            .iter()
            .map(|&(_, at, from, msg, now)| (now, at, from, msg))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn one_app_run_is_bit_equal_to_per_shard_run() {
        // `run_until` executes every shard on the calling thread in key
        // order; `run_shards` splits the same events across shard apps
        // (in parallel here). Same keys, same draws, same clock.
        let mut sim = line(7, 4);
        sim.schedule_timer(NodeId(N as u32 / 2), SimDuration::millis(1), 1);
        let mut app = Flood {
            ttl: 3,
            ..Default::default()
        };
        let n = sim.run_until(&mut app, DEADLINE);
        let (sh_sim, sh_apps, sh_n) = sharded_run(7, 3, 4);
        assert_eq!(app.received, merged_receipts(&sh_apps));
        assert_eq!(n, sh_n);
        assert_eq!(sim.now(), sh_sim.now());
        assert_eq!(sim.stats(), sh_sim.stats());
    }

    #[test]
    fn multi_worker_parallel_matches_sequential_outcome() {
        let (seq_sim, seq_app, seq_n) = seq_run(11, 3);
        for workers in [2, 4] {
            let (sh_sim, sh_apps, sh_n) = sharded_run(11, 3, workers);
            assert_eq!(sh_apps.len(), workers);
            assert_eq!(
                keyless(&seq_app.received),
                keyless(&merged_receipts(&sh_apps))
            );
            assert_eq!(seq_n, sh_n, "workers={workers}");
            assert_eq!(seq_sim.now(), sh_sim.now());
            assert_eq!(seq_sim.stats(), sh_sim.stats());
        }
    }

    #[test]
    fn parallel_runs_are_reproducible() {
        let (_, apps_a, n_a) = sharded_run(23, 3, 4);
        let (_, apps_b, n_b) = sharded_run(23, 3, 4);
        // Same partition → keys comparable: full bit-equality.
        assert_eq!(merged_receipts(&apps_a), merged_receipts(&apps_b));
        assert_eq!(n_a, n_b);
    }

    #[test]
    fn partition_is_spatially_contiguous() {
        let (mut sim, _, _) = sharded_run(1, 0, 4);
        assert_eq!(sim.shard_count(), 4);
        // On a line sorted by x, shard ids must be monotone in x.
        let shards: Vec<usize> = (0..N as u32).map(|i| sim.shard_of(NodeId(i))).collect();
        let mut sorted = shards.clone();
        sorted.sort_unstable();
        assert_eq!(shards, sorted);
        assert_eq!(shards[0], 0);
        assert_eq!(shards[N - 1], 3);
    }

    #[test]
    fn shard_members_are_in_id_order() {
        // Random placement: spatial order differs from id order, but
        // each shard lists its members by id, so at one worker a node's
        // local index is its id.
        let area = Area::new(200.0, 200.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let nodes: Vec<NodeSlot> = (0..N)
            .map(|_| {
                let pos = area.sample(&mut rng);
                NodeSlot {
                    pos,
                    mobility: crate::mobility::MobilityState::new(Mobility::Static, pos),
                    up: true,
                }
            })
            .collect();
        for workers in [1, 4] {
            let part = Partition::new(&nodes, workers, SimDuration::ZERO);
            assert_eq!(part.members.len(), workers);
            for members in &part.members {
                assert!(members.windows(2).all(|w| w[0] < w[1]));
                for (local, id) in members.iter().enumerate() {
                    assert_eq!(part.local_of[id.0 as usize] as usize, local);
                }
            }
        }
        let one = Partition::new(&nodes, 1, SimDuration::ZERO);
        assert!((0..N).all(|i| one.local_of[i] as usize == i));
    }

    #[test]
    fn chunked_runs_match_one_shot_run() {
        // Split the same flood across several deadlines: stragglers
        // drained after a parallel run must stay scheduled.
        let (_, one_shot, n_one) = sharded_run(31, 3, 4);
        let mut sim = line(31, 4);
        sim.schedule_timer(NodeId(N as u32 / 2), SimDuration::millis(1), 1);
        let mut apps = floods(&mut sim, 3);
        let mut n_chunked = 0;
        for stop_ms in [2, 4, 5, 7, 1000] {
            n_chunked += sim.run_shards(&mut apps, SimTime(stop_ms * 1000));
        }
        assert_eq!(merged_receipts(&one_shot), merged_receipts(&apps));
        assert_eq!(n_one, n_chunked);
    }

    #[test]
    fn pending_down_events_run_on_the_merged_path_and_match_sequential() {
        let run = |workers: usize| {
            let mut sim = line(5, workers);
            sim.schedule_down(NodeId(6), SimDuration::micros(2_500));
            sim.schedule_up(NodeId(6), SimDuration::millis(20));
            sim.schedule_timer(NodeId(8), SimDuration::millis(1), 1);
            let mut apps = floods(&mut sim, 4);
            let n = sim.run_shards(&mut apps, DEADLINE);
            (keyless(&merged_receipts(&apps)), n, sim.stats().clone())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn fault_plan_outcome_is_worker_count_independent() {
        let plan = FaultPlan {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            ..FaultPlan::sampled(99)
        };
        let run = |workers: usize| {
            let mut sim = line(13, workers);
            sim.set_fault_plan(plan);
            sim.schedule_timer(NodeId(N as u32 / 2), SimDuration::millis(1), 1);
            let mut apps = floods(&mut sim, 3);
            let n = sim.run_shards(&mut apps, DEADLINE);
            (keyless(&merged_receipts(&apps)), n, sim.stats().clone())
        };
        // Per-node fault samplers make the fault pattern a function of
        // (plan seed, node id) — identical at any worker count.
        let (r1, n1, s1) = run(1);
        let (r4, n4, s4) = run(4);
        assert_eq!(r1, r4);
        assert_eq!(n1, n4);
        assert_eq!(s1, s4);
        assert!(s1.faults_dropped > 0 || s1.faults_duplicated > 0);
    }

    #[test]
    fn zero_lookahead_falls_back_to_merged_path() {
        let cfg = SimConfig {
            area: Area::new(2000.0, 200.0),
            radio: RadioModel::instant(),
            seed: 3,
            ..Default::default()
        };
        let mut sim = Simulator::with_workers(cfg, 4);
        for i in 0..N {
            sim.add_node(Point::new(30.0 * i as f64, 100.0), Mobility::Static);
        }
        sim.schedule_timer(NodeId(0), SimDuration::millis(1), 1);
        let mut apps = floods(&mut sim, 2);
        assert!(!sim.parallel_eligible());
        let n = sim.run_shards(&mut apps, DEADLINE);
        assert!(n > 0);
    }

    #[test]
    fn mobility_falls_back_to_merged_path_and_matches_sequential() {
        let run = |workers: usize| {
            let mut sim = Simulator::with_workers(line_config(17), workers);
            for _ in 0..N {
                sim.add_node_random(Mobility::RandomWaypoint {
                    min_speed: 1.0,
                    max_speed: 2.0,
                    pause: SimDuration::millis(50),
                });
            }
            sim.schedule_timer(NodeId(0), SimDuration::millis(1), 1);
            let mut apps = floods(&mut sim, 2);
            let n = sim.run_shards(&mut apps, SimTime(400_000));
            (keyless(&merged_receipts(&apps)), n, sim.stats().clone())
        };
        assert_eq!(run(1), run(4));
    }

    /// Every node's timer arms a second timer at a node that does not
    /// exist. The run skips it (still counting it as processed) instead
    /// of indexing the partition out of bounds.
    #[test]
    fn timer_for_unknown_node_is_skipped() {
        struct Stray;
        impl NetApp<u32> for Stray {
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: NodeId, _: &u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, _: u64) {
                if at.0 < N as u32 {
                    ctx.timer(NodeId(999), SimDuration::millis(10), 0);
                }
            }
        }
        let run = |workers: usize| {
            let mut sim = line(9, workers);
            for i in 0..N as u32 {
                sim.schedule_timer(NodeId(i), SimDuration::millis(1), 0);
            }
            let mut apps: Vec<Stray> = (0..sim.shard_count()).map(|_| Stray).collect();
            sim.run_shards(&mut apps, DEADLINE)
        };
        assert_eq!(run(1), 2 * N as u64);
        assert_eq!(run(4), 2 * N as u64);
    }
}
