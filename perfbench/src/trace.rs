//! The traced replica of `DesRuntime`.
//!
//! It hosts the same `CoalitionNode`s on the public `qosc_netsim`
//! simulator through its own `NetApp`, applying actions exactly as the
//! DES backend does, and times from outside every call into a layer:
//! each `NodeEngine::on_message` / `on_timer` by message or timer kind,
//! each `Ctx` send, and each `Simulator::run_until`. What the callbacks
//! do not cover of `run_until` is the event loop's own time; what the
//! engine and send spans do not cover of the callbacks is dispatch.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qosc_core::runtime::{dissolve_token, kickoff_token, NodeEngine};
use qosc_core::{
    decode_timer, Action, CoalitionNode, LoggedEvent, Msg, NegoEvent, NegoId, Pid, Runtime,
    RuntimeError, TimerKind,
};
use qosc_netsim::{
    Ctx, FaultPlan, Mobility, NetApp, NetStats, NodeId, SimConfig, SimTime, Simulator,
};
use qosc_spec::ServiceDef;
use qosc_workloads::ScenarioConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::alloc::allocations;

/// Engine spans, one per message or timer kind, named by module.
pub const SPANS: [&str; 17] = [
    "core.provider.cfp",
    "core.provider.award",
    "core.provider.release",
    "core.provider.lease_renew",
    "core.provider.hold_expiry",
    "core.provider.heartbeat_send",
    "core.provider.lease_check",
    "core.organizer.kickoff",
    "core.organizer.proposal",
    "core.organizer.proposal_deadline",
    "core.organizer.accept",
    "core.organizer.decline",
    "core.organizer.award_deadline",
    "core.organizer.heartbeat",
    "core.organizer.heartbeat_check",
    "core.organizer.reannounce",
    "core.organizer.dissolve",
];

const CFP: usize = 0;

fn message_span(msg: &Msg) -> usize {
    match msg {
        Msg::CallForProposals { .. } => CFP,
        Msg::Award { .. } => 1,
        Msg::Release { .. } => 2,
        Msg::LeaseRenew { .. } => 3,
        Msg::Proposal { .. } => 8,
        Msg::Accept { .. } => 10,
        Msg::Decline { .. } => 11,
        Msg::Heartbeat { .. } => 13,
    }
}

fn timer_span(kind: TimerKind) -> usize {
    match kind {
        TimerKind::HoldExpiry => 4,
        TimerKind::HeartbeatSend => 5,
        TimerKind::LeaseCheck => 6,
        TimerKind::Kickoff => 7,
        TimerKind::ProposalDeadline => 9,
        TimerKind::AwardDeadline => 12,
        TimerKind::HeartbeatCheck => 14,
        TimerKind::ReAnnounce => 15,
        TimerKind::Dissolve => 16,
    }
}

/// Calls, busy time, allocations and per-call durations of one span.
#[derive(Default, Clone)]
pub struct Span {
    pub calls: u64,
    pub time: Duration,
    pub allocs: u64,
    samples_ns: Vec<u32>,
}

impl Span {
    fn record(&mut self, d: Duration, allocs: u64) {
        self.calls += 1;
        self.time += d;
        self.allocs += allocs;
        self.samples_ns
            .push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    /// 99th percentile of the per-call durations, µs (0 when never called).
    pub fn p99_us(&self) -> f64 {
        let mut v = self.samples_ns.clone();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * 0.99).round() as usize;
        f64::from(v[idx]) / 1_000.0
    }
}

/// Everything the traced run measured.
#[derive(Default)]
pub struct Trace {
    pub engine: [Span; SPANS.len()],
    pub send: Span,
    /// Time inside `Simulator::run_until`.
    pub run_until: Duration,
    /// Time inside the host callbacks (`NetApp::on_message/on_timer`).
    pub callbacks: Duration,
    pub cfp_proposals: u64,
    pub cfp_broadcasts: u64,
    pub member_failed: u64,
    pub formed_events: u64,
}

impl Trace {
    pub fn engine_time(&self) -> Duration {
        self.engine.iter().map(|s| s.time).sum()
    }

    /// The event loop's own time: `run_until` minus the host callbacks.
    pub fn loop_self(&self) -> Duration {
        self.run_until.saturating_sub(self.callbacks)
    }

    /// Host dispatch: callbacks minus engine and send spans.
    pub fn dispatch_self(&self) -> Duration {
        self.callbacks
            .saturating_sub(self.engine_time())
            .saturating_sub(self.send.time)
    }

    /// The deterministic counts of the trace, for same-seed comparisons.
    pub fn counts(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.engine.iter().map(|s| s.calls).collect();
        v.extend([
            self.send.calls,
            self.cfp_proposals,
            self.cfp_broadcasts,
            self.member_failed,
            self.formed_events,
        ]);
        v
    }
}

#[derive(Default)]
struct TracedHost {
    nodes: BTreeMap<Pid, CoalitionNode>,
    events: Vec<LoggedEvent>,
    trace: Trace,
}

impl TracedHost {
    fn apply(&mut self, ctx: &mut Ctx<'_, Msg>, at: Pid, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Broadcast(msg) => {
                    if matches!(*msg, Msg::CallForProposals { .. }) {
                        self.trace.cfp_broadcasts += 1;
                    }
                    let bytes = msg.estimated_bytes();
                    let t = Instant::now();
                    ctx.broadcast(NodeId(at), bytes, msg);
                    self.trace.send.record(t.elapsed(), 0);
                }
                Action::Send { to, msg } => {
                    let bytes = msg.estimated_bytes();
                    let t = Instant::now();
                    ctx.unicast(NodeId(at), NodeId(to), bytes, msg);
                    self.trace.send.record(t.elapsed(), 0);
                }
                Action::Timer { delay, token } => {
                    let t = Instant::now();
                    ctx.timer(NodeId(at), delay, token);
                    self.trace.send.record(t.elapsed(), 0);
                }
                Action::Event(event) => {
                    match event {
                        NegoEvent::MemberFailed { .. } => self.trace.member_failed += 1,
                        NegoEvent::Formed { .. } => self.trace.formed_events += 1,
                        _ => {}
                    }
                    self.events.push(LoggedEvent {
                        at: ctx.now,
                        node: at,
                        event,
                    });
                }
            }
        }
    }
}

impl NetApp<Msg> for TracedHost {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, from: NodeId, msg: &Msg) {
        let start = Instant::now();
        let pid = at.0;
        if let Some(node) = self.nodes.get_mut(&pid) {
            let span = message_span(msg);
            let allocs = allocations();
            let t = Instant::now();
            let actions = node.on_message(ctx.now, from.0, msg);
            let d = t.elapsed();
            self.trace.engine[span].record(d, allocations() - allocs);
            if span == CFP {
                self.trace.cfp_proposals += actions
                    .iter()
                    .filter(|a| matches!(a.payload(), Some(Msg::Proposal { .. })))
                    .count() as u64;
            }
            self.apply(ctx, pid, actions);
        }
        self.trace.callbacks += start.elapsed();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, token: u64) {
        let start = Instant::now();
        let pid = at.0;
        if let (Some((nego, kind)), Some(node)) = (decode_timer(token), self.nodes.get_mut(&pid)) {
            let span = timer_span(kind);
            let allocs = allocations();
            let t = Instant::now();
            let actions = node.on_timer(ctx.now, nego, kind);
            let d = t.elapsed();
            self.trace.engine[span].record(d, allocations() - allocs);
            self.apply(ctx, pid, actions);
        }
        self.trace.callbacks += start.elapsed();
    }
}

/// The simulator `Scenario::build` makes for `config`, rebuilt with the
/// same seed derivation: population draw, then one position per node.
pub fn rebuild_simulator(config: &ScenarioConfig) -> Simulator<Msg> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5eed_cafe);
    let mut sim: Simulator<Msg> = Simulator::new(SimConfig {
        area: config.area,
        radio: config.radio.clone(),
        seed: config.seed,
        ..Default::default()
    });
    let profiles = config.population.sample_many(config.nodes, &mut rng);
    for profile in &profiles {
        let mobility = match (&config.mobility, profile.class.battery_powered()) {
            (Some(m), true) => m.clone(),
            _ => Mobility::Static,
        };
        sim.add_node(config.area.sample(&mut rng), mobility);
    }
    if !config.partitions.is_none() {
        sim.set_partition_plan(&config.partitions);
    }
    sim
}

/// `DesRuntime`'s semantics with every layer call timed.
pub struct TracedRuntime {
    sim: Simulator<Msg>,
    host: TracedHost,
    started: bool,
}

impl TracedRuntime {
    pub fn new(sim: Simulator<Msg>) -> Self {
        Self {
            sim,
            host: TracedHost::default(),
            started: false,
        }
    }

    pub fn net_stats(&self) -> &NetStats {
        self.sim.stats()
    }

    pub fn trace(&self) -> &Trace {
        &self.host.trace
    }

    fn start_nodes(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let now = self.sim.now();
        for (pid, node) in self.host.nodes.iter_mut() {
            for action in node.on_start(now) {
                match action {
                    Action::Timer { delay, token } => {
                        self.sim.schedule_timer(NodeId(*pid), delay, token)
                    }
                    Action::Event(event) => self.host.events.push(LoggedEvent {
                        at: now,
                        node: *pid,
                        event,
                    }),
                    Action::Broadcast(_) | Action::Send { .. } => {
                        panic!("on_start must not emit messages")
                    }
                }
            }
        }
    }
}

impl Runtime for TracedRuntime {
    fn backend_name(&self) -> &'static str {
        "des-traced"
    }

    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError> {
        let id = node.id();
        if self.host.nodes.contains_key(&id) {
            return Err(RuntimeError::DuplicateNode(id));
        }
        self.host.nodes.insert(id, node);
        Ok(())
    }

    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError> {
        let slot = self
            .host
            .nodes
            .get_mut(&node)
            .ok_or(RuntimeError::UnknownNode(node))?;
        if slot.organizer().is_none() {
            return Err(RuntimeError::NoOrganizer(node));
        }
        slot.queue_service_at(at, service);
        let delay = at.since(self.sim.now());
        self.sim
            .schedule_timer(NodeId(node), delay, kickoff_token(node));
        Ok(())
    }

    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError> {
        if !self.host.nodes.contains_key(&nego.organizer) {
            return Err(RuntimeError::UnknownNode(nego.organizer));
        }
        let delay = at.since(self.sim.now());
        self.sim
            .schedule_timer(NodeId(nego.organizer), delay, dissolve_token(nego));
        Ok(())
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) -> bool {
        self.sim.set_fault_plan(plan);
        true
    }

    fn run(&mut self, deadline: SimTime) -> u64 {
        self.start_nodes();
        let t = Instant::now();
        let n = self.sim.run_until(&mut self.host, deadline);
        self.host.trace.run_until += t.elapsed();
        n
    }

    fn events(&self) -> &[LoggedEvent] {
        &self.host.events
    }

    fn messages_sent(&self) -> u64 {
        self.sim.stats().messages_sent()
    }

    fn node(&self, id: Pid) -> Option<&CoalitionNode> {
        self.host.nodes.get(&id)
    }
}
