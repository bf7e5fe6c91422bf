//! The explorer's system state and its transition function.
//!
//! A [`McState`] is one vertex of the interleaving graph: the engines of
//! every node, one virtual clock per node, the multiset of in-flight
//! messages, the per-node pending-timer queues, and the fault budgets
//! spent so far. Transitions ([`Choice`]) are exactly the events a real
//! backend would process — deliver a message, fire a node's next timer —
//! plus the fault branches a [`FaultPlan`] licenses: drop or duplicate a
//! delivery, crash-restart a provider node, or split the network into
//! two groups (and heal it again).
//!
//! Partitions are modelled as *blocking*, not dropping: a message whose
//! endpoints sit on opposite sides of the active cut simply is not
//! deliverable (nor droppable nor duplicable) until a heal — it stays in
//! flight, exactly like a frame parked in a radio's retransmit queue.
//! Because a heal transition is always enabled while partitioned, a
//! partitioned state is never quiescent, which keeps the liveness
//! invariant honest: quiescence implies the network healed and every
//! blocked message had its delivery explored.
//!
//! Two modelling decisions keep the graph finite and honest:
//!
//! * **Clocks advance only on timers.** Message delivery is asynchronous
//!   and unordered, so a delivery happens "now" at the receiver; only a
//!   timer firing moves a node's clock (to the timer's deadline). Every
//!   ordering of deliveries relative to deadlines is therefore explored,
//!   which subsumes message reordering — the explorer needs no reorder
//!   budget.
//! * **Per-node timers fire in deadline order.** A node's own timers
//!   share one local clock, so the earliest-armed deadline is the only
//!   enabled timer event for that node; timers of *different* nodes
//!   interleave freely.
//!
//! Two representation decisions keep a million-state search affordable:
//! nodes are held behind [`Arc`] so cloning a state is a handful of
//! refcount bumps and only the node an event actually touches is
//! deep-copied (copy-on-write), and each node's digest is cached beside
//! it so hashing a state re-hashes one mutated engine, not all of them.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use qosc_core::runtime::NodeEngine;
use qosc_core::snapshot::{digest_of, StableHasher, StateDigest};
use qosc_core::{decode_timer, Action, CoalitionNode, LoggedEvent, Msg, Pid};
use qosc_netsim::{FaultPlan, SimTime};

use crate::trace::TraceStep;

/// Hook applied to every action batch an engine emits, before the batch
/// is executed. Exists for mutation self-tests: a tap that rewrites a
/// `Decline` into an `Accept` plants a protocol bug the checker must then
/// catch with a counterexample.
pub type ActionTap = Arc<dyn Fn(Pid, &mut Vec<Action>)>;

/// One undelivered message. `digest` is precomputed at enqueue: it keys
/// both state hashing and the canonical-choice dedup (two identical
/// in-flight copies yield one delivery branch, not two).
#[derive(Clone)]
pub(crate) struct InFlight {
    pub from: Pid,
    pub to: Pid,
    pub msg: Arc<Msg>,
    pub digest: u64,
}

/// One armed timer. `seq` breaks deadline ties in arming order, exactly
/// like the DES backends' `(time, sequence)` total order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingTimer {
    pub fire_at: SimTime,
    pub seq: u64,
    pub token: u64,
}

/// One enabled transition out of a state. Indices refer to the state's
/// `in_flight` list at enumeration time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Choice {
    Deliver(usize),
    Drop(usize),
    Duplicate(usize),
    Fire(Pid),
    Crash(Pid),
    /// Split the network: bit `i` of the mask names node `i`'s side.
    Partition(u64),
    /// Restore all links.
    Heal,
}

/// Everything an applied transition produced besides the state change:
/// the engine-reported events and how many messages hit the transport.
/// Kept out of [`McState`] so history is tracked per DFS *path* (append
/// on apply, truncate on backtrack) instead of being cloned into every
/// one of the million states it cannot influence.
#[derive(Default)]
pub(crate) struct StepLog {
    pub events: Vec<LoggedEvent>,
    pub sent: u64,
}

/// One vertex of the interleaving graph.
#[derive(Clone)]
pub(crate) struct McState {
    nodes: BTreeMap<Pid, Arc<CoalitionNode>>,
    /// Cached digest of each node in `nodes`, maintained by every
    /// mutation path (`with_node_mut`).
    node_digests: BTreeMap<Pid, u64>,
    pub clocks: BTreeMap<Pid, SimTime>,
    pub in_flight: Vec<InFlight>,
    pub timers: BTreeMap<Pid, Vec<PendingTimer>>,
    pub drops_used: u32,
    pub duplicates_used: u32,
    pub crashes_used: u32,
    /// Active cut, if any: bit `i` names node `i`'s side. `None` when
    /// the network is whole.
    pub partition: Option<u64>,
    pub partitions_used: u32,
    next_timer_seq: u64,
}

fn digest_node(node: &CoalitionNode) -> u64 {
    let mut h = StableHasher::new();
    node.digest(&mut h);
    h.finish()
}

impl McState {
    pub fn new() -> Self {
        Self {
            nodes: BTreeMap::new(),
            node_digests: BTreeMap::new(),
            clocks: BTreeMap::new(),
            in_flight: Vec::new(),
            timers: BTreeMap::new(),
            drops_used: 0,
            duplicates_used: 0,
            crashes_used: 0,
            partition: None,
            partitions_used: 0,
            next_timer_seq: 0,
        }
    }

    /// True while a partition choice is in effect (cleared by heal).
    pub fn partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// True iff the active cut (if any) separates `a` from `b`.
    fn cuts(&self, a: Pid, b: Pid) -> bool {
        self.partition.is_some_and(|m| (m >> a) & 1 != (m >> b) & 1)
    }

    pub fn insert_node(&mut self, node: CoalitionNode) {
        let pid = NodeEngine::id(&node);
        self.node_digests.insert(pid, digest_node(&node));
        self.clocks.insert(pid, SimTime::ZERO);
        self.nodes.insert(pid, Arc::new(node));
    }

    pub fn contains_node(&self, pid: Pid) -> bool {
        self.nodes.contains_key(&pid)
    }

    pub fn node(&self, pid: Pid) -> Option<&CoalitionNode> {
        self.nodes.get(&pid).map(|n| &**n)
    }

    pub fn nodes(&self) -> impl Iterator<Item = &CoalitionNode> {
        self.nodes.values().map(|n| &**n)
    }

    pub fn node_ids(&self) -> Vec<Pid> {
        self.nodes.keys().copied().collect()
    }

    pub fn share_nodes(&self) -> BTreeMap<Pid, Arc<CoalitionNode>> {
        self.nodes.clone()
    }

    /// Mutates one node copy-on-write and refreshes its cached digest.
    pub fn with_node_mut<R>(
        &mut self,
        pid: Pid,
        f: impl FnOnce(&mut CoalitionNode) -> R,
    ) -> Option<R> {
        let arc = self.nodes.get_mut(&pid)?;
        let node = Arc::make_mut(arc);
        let out = f(node);
        self.node_digests.insert(pid, digest_node(node));
        Some(out)
    }

    /// Arms a timer on `node` at absolute deadline `fire_at` (used for
    /// kickoff and dissolve scheduling before exploration starts).
    pub fn arm_timer_at(&mut self, node: Pid, fire_at: SimTime, token: u64) {
        let seq = self.next_timer_seq;
        self.next_timer_seq += 1;
        let queue = self.timers.entry(node).or_default();
        let t = PendingTimer {
            fire_at,
            seq,
            token,
        };
        let idx = queue.partition_point(|q| (q.fire_at, q.seq) <= (t.fire_at, t.seq));
        queue.insert(idx, t);
    }

    /// No messages to deliver and no timers to fire: the protocol can
    /// make no further progress on its own. A partitioned state is never
    /// quiescent — a heal transition is always enabled, and declaring
    /// quiescence mid-partition would let the liveness invariant judge
    /// negotiations whose messages are merely blocked, not lost.
    pub fn quiescent(&self) -> bool {
        self.partition.is_none()
            && self.in_flight.is_empty()
            && self.timers.values().all(|q| q.is_empty())
    }

    /// Canonical 64-bit digest for the dedup set. Node digests come from
    /// the per-node cache; the in-flight list is hashed as a sorted
    /// multiset (arrival order of undelivered messages is not
    /// observable); timer queues are hashed in firing order; the
    /// path-local event log lives outside the state entirely (history
    /// does not constrain future behaviour).
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_usize(self.nodes.len());
        for (pid, d) in &self.node_digests {
            h.write_u64(*pid as u64);
            h.write_u64(*d);
        }
        for (pid, clock) in &self.clocks {
            h.write_u64(*pid as u64);
            h.write_u64(clock.0);
        }
        let mut msgs: Vec<(Pid, Pid, u64)> = self
            .in_flight
            .iter()
            .map(|m| (m.from, m.to, m.digest))
            .collect();
        msgs.sort_unstable();
        h.write_usize(msgs.len());
        for (from, to, d) in msgs {
            h.write_u64(from as u64);
            h.write_u64(to as u64);
            h.write_u64(d);
        }
        for (pid, queue) in &self.timers {
            h.write_u64(*pid as u64);
            h.write_usize(queue.len());
            for t in queue {
                h.write_u64(t.fire_at.0);
                h.write_u64(t.token);
            }
        }
        h.write_u32(self.drops_used);
        h.write_u32(self.duplicates_used);
        h.write_u32(self.crashes_used);
        // Valid cut masks are nonzero (both groups nonempty), so 0 is a
        // safe encoding for "no partition".
        h.write_u64(self.partition.unwrap_or(0));
        h.write_u32(self.partitions_used);
        h.finish()
    }

    /// Enumerates every transition enabled in this state under `plan`'s
    /// remaining fault budgets. Deterministic: iteration follows the
    /// in-flight list and the node id order.
    pub fn enabled(&self, plan: &FaultPlan) -> Vec<Choice> {
        let mut choices = Vec::new();
        let mut seen: HashSet<(Pid, Pid, u64)> = HashSet::new();
        for (i, m) in self.in_flight.iter().enumerate() {
            if self.cuts(m.from, m.to) {
                continue; // blocked behind the cut until a heal
            }
            if !seen.insert((m.from, m.to, m.digest)) {
                continue; // identical copy: same successor states
            }
            choices.push(Choice::Deliver(i));
            if self.drops_used < plan.max_drops {
                choices.push(Choice::Drop(i));
            }
            if self.duplicates_used < plan.max_duplicates {
                choices.push(Choice::Duplicate(i));
            }
        }
        for (pid, queue) in &self.timers {
            if !queue.is_empty() {
                choices.push(Choice::Fire(*pid));
            }
        }
        if self.crashes_used < plan.max_crash_restarts {
            for (pid, node) in &self.nodes {
                // Crash-restart models a provider process bounce; nodes
                // hosting an organizer are out of scope (the engine has no
                // organizer recovery story to model).
                if node.organizer().is_none() && node.provider().is_some() {
                    choices.push(Choice::Crash(*pid));
                }
            }
        }
        match self.partition {
            Some(_) => choices.push(Choice::Heal),
            None if self.partitions_used < plan.max_partitions && self.nodes.len() >= 2 => {
                // Every canonical bisection: the lowest pid is pinned to
                // group 0 (bit unset), the remaining nodes enumerate both
                // sides, and `sel` starting at 1 keeps group 1 nonempty —
                // so each unordered {A, B} split appears exactly once.
                let ids = self.node_ids();
                debug_assert!(
                    ids.iter().all(|p| *p < 64),
                    "partition masks address nodes by bit index"
                );
                for sel in 1..(1u64 << (ids.len() - 1)) {
                    let mut mask = 0u64;
                    for (bit, pid) in ids[1..].iter().enumerate() {
                        if (sel >> bit) & 1 == 1 {
                            mask |= 1 << pid;
                        }
                    }
                    choices.push(Choice::Partition(mask));
                }
            }
            None => {}
        }
        choices
    }

    /// Applies one transition in place, appending engine events and the
    /// sent-message count to `log`, and returns the trace step that
    /// describes it. Choices must come from [`McState::enabled`] on this
    /// exact state.
    pub fn apply(
        &mut self,
        choice: Choice,
        tap: Option<&ActionTap>,
        log: &mut StepLog,
    ) -> TraceStep {
        match choice {
            Choice::Deliver(i) => {
                let m = self.in_flight.remove(i);
                self.deliver(&m, tap, log);
                TraceStep::Deliver {
                    from: m.from,
                    to: m.to,
                    msg: m.msg,
                }
            }
            Choice::Drop(i) => {
                let m = self.in_flight.remove(i);
                self.drops_used += 1;
                TraceStep::Drop {
                    from: m.from,
                    to: m.to,
                    msg: m.msg,
                }
            }
            Choice::Duplicate(i) => {
                // Deliver one copy now, leave a second in flight: the
                // duplicate's own delivery point is explored on later
                // transitions, covering "duplicate arrives late" too.
                let m = self.in_flight[i].clone();
                self.duplicates_used += 1;
                self.in_flight.remove(i);
                self.in_flight.push(m.clone());
                self.deliver(&m, tap, log);
                TraceStep::Duplicate {
                    from: m.from,
                    to: m.to,
                    msg: m.msg,
                }
            }
            Choice::Fire(pid) => {
                let timer = {
                    let queue = self.timers.entry(pid).or_default();
                    let t = queue.remove(0);
                    if queue.is_empty() {
                        self.timers.remove(&pid);
                    }
                    t
                };
                // The local clock jumps to the deadline (never backwards:
                // an earlier-armed later-deadline timer cannot have fired
                // yet by the in-order rule).
                let clock = self.clocks.entry(pid).or_default();
                *clock = (*clock).max(timer.fire_at);
                let now = *clock;
                let actions = match decode_timer(timer.token) {
                    Some((nego, kind)) => self
                        .with_node_mut(pid, |n| n.on_timer(now, nego, kind))
                        .unwrap_or_default(),
                    None => Vec::new(),
                };
                self.apply_actions(pid, now, actions, tap, log);
                TraceStep::Fire {
                    node: pid,
                    fire_at: timer.fire_at,
                    token: timer.token,
                }
            }
            Choice::Partition(mask) => {
                self.partition = Some(mask);
                self.partitions_used += 1;
                TraceStep::Partition { mask }
            }
            Choice::Heal => {
                self.partition = None;
                TraceStep::Heal
            }
            Choice::Crash(pid) => {
                self.crashes_used += 1;
                self.with_node_mut(pid, |n| {
                    if let Some(p) = n.provider_mut() {
                        p.crash_restart();
                    }
                });
                // A restarted process has lost its armed timers.
                self.timers.remove(&pid);
                TraceStep::Crash { node: pid }
            }
        }
    }

    fn deliver(&mut self, m: &InFlight, tap: Option<&ActionTap>, log: &mut StepLog) {
        let now = self.clocks.get(&m.to).copied().unwrap_or(SimTime::ZERO);
        let actions = self
            .with_node_mut(m.to, |n| n.on_message(now, m.from, &m.msg))
            .unwrap_or_default();
        self.apply_actions(m.to, now, actions, tap, log);
    }

    /// A delivery the receiving node provably ignores: message routing in
    /// `CoalitionNode::on_message` is static by message kind (CFP / Award /
    /// Release go to the provider engine, the rest to the organizer), so a
    /// message addressed to a node without the matching engine is a no-op
    /// on every schedule. Eliding it at send time removes an interleaving
    /// dimension — every reachable engine state is unchanged, but e.g. a
    /// CFP broadcast no longer parks a dead letter at each organizer-only
    /// node, doubling the frontier until it drains.
    fn is_inert(&self, to: Pid, msg: &Msg) -> bool {
        let Some(node) = self.nodes.get(&to) else {
            return true;
        };
        match msg {
            Msg::CallForProposals { .. }
            | Msg::Award { .. }
            | Msg::Release { .. }
            | Msg::LeaseRenew { .. } => node.provider().is_none(),
            Msg::Proposal { .. }
            | Msg::Accept { .. }
            | Msg::Decline { .. }
            | Msg::Heartbeat { .. } => node.organizer().is_none(),
        }
    }

    fn enqueue(&mut self, from: Pid, to: Pid, msg: Arc<Msg>) {
        if self.is_inert(to, &msg) {
            return;
        }
        let digest = digest_of(&*msg);
        self.in_flight.push(InFlight {
            from,
            to,
            msg,
            digest,
        });
    }

    /// Executes an engine's action batch at local time `now` on node `at`.
    pub fn apply_actions(
        &mut self,
        at: Pid,
        now: SimTime,
        mut actions: Vec<Action>,
        tap: Option<&ActionTap>,
        log: &mut StepLog,
    ) {
        if let Some(tap) = tap {
            tap(at, &mut actions);
        }
        for action in actions {
            match action {
                Action::Broadcast(msg) => {
                    log.sent += 1;
                    let targets: Vec<Pid> =
                        self.nodes.keys().copied().filter(|p| *p != at).collect();
                    for to in targets {
                        self.enqueue(at, to, Arc::clone(&msg));
                    }
                }
                Action::Send { to, msg } => {
                    log.sent += 1;
                    self.enqueue(at, to, msg);
                }
                Action::Timer { delay, token } => {
                    self.arm_timer_at(at, now + delay, token);
                }
                Action::Event(event) => log.events.push(LoggedEvent {
                    at: now,
                    node: at,
                    event,
                }),
            }
        }
    }
}
