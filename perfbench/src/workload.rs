//! The three workloads, their set-up, the open-loop steady-state run
//! loop and the end-of-run output checks.

use std::collections::HashSet;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qosc_core::strategy::{OrganizerStrategy, TimeoutBackoff};
use qosc_core::{
    CoalitionNode, NegoEvent, NegoId, NegoPhase, OrganizerConfig, Pid, ProviderConfig, Runtime,
};
use qosc_load::{LoadPlan, PoissonArrivals};
use qosc_netsim::{Area, FaultPlan, PartitionPlan, SimDuration, SimTime};
use qosc_resources::ResourceKind;
use qosc_spec::ServiceDef;
use qosc_workloads::{pedestrian, AppTemplate, PopulationConfig, Scenario, ScenarioConfig};

/// Simulated time the run advances between dissolve sweeps. Every
/// dissolve is scheduled at an absolute instant (settle + hold), so the
/// step only bounds how late the sweep sees a settle; it must stay below
/// the shortest hold.
const STEP: SimDuration = SimDuration::millis(100);

/// Scenario seed of every workload: population, placement, mobility and
/// radio draws. The deployment is fixed; `--seed` varies the load
/// (arrivals, services) and the fault and partition schedules, so
/// seed-to-seed spread measures the load, not a different network.
const DEPLOYMENT: u64 = 0x00de_9107;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 256 nodes in radio range of each other: formulation-bound.
    DenseBurst,
    /// 8192 mobile nodes with a few neighbours each: event-loop-bound.
    MobileSparse,
    /// The dense population under message drops and partition churn.
    PartitionChurn,
}

/// Everything that fixes one workload instance, derived from the seed.
pub struct Params {
    pub config: ScenarioConfig,
    pub faults: Option<FaultPlan>,
    pub template: AppTemplate,
    pub tasks_per_service: usize,
    pub rate_per_s: f64,
    pub window: SimDuration,
    /// How long a formed coalition operates before it is dissolved.
    pub hold: SimDuration,
    /// Simulated time after the window for the last coalitions to settle,
    /// be dissolved and have their leases and holds lapse.
    pub drain: SimDuration,
    pub seed: u64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DenseBurst,
        Workload::MobileSparse,
        Workload::PartitionChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseBurst => "dense_burst",
            Workload::MobileSparse => "mobile_sparse",
            Workload::PartitionChurn => "partition_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent load instances pooled into one `--trace 0` run. Within
    /// one instance every negotiation shares one population and one set
    /// of busy providers, so its QoS figures move together for about a
    /// hold time; pooling instances is what keeps a run's figures steady
    /// from seed to seed. An instance is kept to about a thousand
    /// negotiations because provider memory grows with every CFP heard.
    pub fn instances(self) -> u64 {
        match self {
            Workload::DenseBurst => 8,
            Workload::MobileSparse => 2,
            Workload::PartitionChurn => 14,
        }
    }

    /// Seed of instance `k` of the run with seed `seed`; distinct runs
    /// never share an instance.
    pub fn instance_seed(self, seed: u64, k: u64) -> u64 {
        seed.wrapping_mul(self.instances()).wrapping_add(k)
    }

    pub fn params(self, seed: u64) -> Params {
        // Grants whose Release can be lost (a mobile member out of range,
        // a partition cut, a dropped message) are only returned through
        // the commit lease, which the organizer renews on every heartbeat
        // check while it can reach its members.
        let leased_provider = ProviderConfig {
            commit_ttl: Some(SimDuration::secs(2)),
            ..ProviderConfig::default()
        };
        match self {
            // Phones and PDAs only: even an idle node often has to degrade
            // the surveillance request, so eq. 2 distance is a steady
            // average instead of a rare-event count. 5/s with a 2 s hold
            // sits just below the saturation knee of this population.
            Workload::DenseBurst => Params {
                config: ScenarioConfig {
                    population: PopulationConfig::constrained(),
                    ..ScenarioConfig::dense(256, DEPLOYMENT)
                },
                faults: None,
                template: AppTemplate::Surveillance,
                tasks_per_service: 2,
                rate_per_s: 5.0,
                window: SimDuration::secs(160),
                hold: SimDuration::secs(2),
                drain: SimDuration::secs(4),
                seed,
            },
            Workload::MobileSparse => {
                let nodes = 8192;
                // About eight nodes inside one 50 m radio disc.
                let side = (nodes as f64 * std::f64::consts::PI * 50.0 * 50.0 / 8.0).sqrt();
                Params {
                    config: ScenarioConfig {
                        nodes,
                        area: Area::new(side, side),
                        mobility: Some(pedestrian(1.5)),
                        organizer: OrganizerConfig {
                            renew_leases: true,
                            ..OrganizerConfig::default()
                        },
                        provider: leased_provider,
                        seed: DEPLOYMENT,
                        ..ScenarioConfig::default()
                    },
                    faults: None,
                    // Few neighbours rarely include one that can serve a
                    // video conference at full quality: distance is set by
                    // the neighbourhood mix, not by rare overload.
                    template: AppTemplate::VideoConference,
                    tasks_per_service: 2,
                    rate_per_s: 400.0,
                    window: SimDuration::secs(15),
                    hold: SimDuration::secs(5),
                    drain: SimDuration::secs(9),
                    seed,
                }
            }
            Workload::PartitionChurn => {
                let window = SimDuration::secs(60);
                Params {
                    config: ScenarioConfig {
                        population: PopulationConfig::pure_adhoc(),
                        organizer: OrganizerConfig {
                            max_rounds: 6,
                            renew_leases: true,
                            chain: OrganizerStrategy::new()
                                .with(TimeoutBackoff::doubling(SimDuration::millis(50), 6)),
                            ..OrganizerConfig::default()
                        },
                        provider: leased_provider,
                        partitions: PartitionPlan::sampled(
                            seed ^ 0x9a27_17e0,
                            SimDuration::millis(800),
                            SimDuration::secs(2),
                            // Enough cycles to cover the window.
                            (window.as_micros() / SimDuration::millis(2_800).as_micros()) as u32
                                + 4,
                        ),
                        ..ScenarioConfig::dense(256, DEPLOYMENT)
                    },
                    faults: Some(FaultPlan::sampled(seed ^ 0xfa17_5eed).with_drop(0.05)),
                    // Without fixed servers a video conference is often
                    // placed degraded, so distance stays measurable.
                    template: AppTemplate::VideoConference,
                    tasks_per_service: 2,
                    rate_per_s: 10.0,
                    window,
                    hold: SimDuration::secs(2),
                    drain: SimDuration::secs(8),
                    seed,
                }
            }
        }
    }
}

/// The generated inputs of one run: the sampled arrival plan and one
/// instantiated service per arrival.
pub struct Inputs {
    pub plan: LoadPlan,
    pub services: Vec<ServiceDef>,
}

/// Samples the open-loop arrival plan and its services. Arrivals rotate
/// over every node as organizer, like `LoadDriver`.
pub fn sample_inputs(p: &Params) -> Inputs {
    let organizers: Vec<Pid> = (0..p.config.nodes as Pid).collect();
    let plan = LoadPlan::sampled(
        &PoissonArrivals::new(p.rate_per_s),
        p.window,
        organizers,
        p.template,
        p.tasks_per_service,
        p.seed ^ 0x10ad_91a0,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(plan.seed ^ 0x10ad_10ad);
    let services = (0..plan.arrivals.len())
        .map(|i| {
            plan.template
                .service(format!("load-{i}"), plan.tasks_per_service, &mut rng)
        })
        .collect();
    Inputs { plan, services }
}

/// Builds the scenario on the DES backend, with the workload's fault plan.
pub fn build_scenario(p: &Params) -> Scenario {
    let mut scenario = Scenario::build(&p.config);
    if let Some(faults) = p.faults {
        scenario.runtime.set_fault_plan(faults);
    }
    scenario
}

/// What one driven run produced: pure functions of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub submitted: usize,
    /// Distinct negotiations that settled (first Formed or
    /// FormationIncomplete per `NegoId`).
    pub settled: usize,
    /// Distinct negotiations whose first settle was `Formed`.
    pub formed: usize,
    /// First-formation latency per formed negotiation, µs, sorted.
    pub latencies_us: Vec<u64>,
    /// Eq. 2 distance summed over tasks placed at first settle.
    pub distance_sum: f64,
    pub placed_tasks: usize,
    pub messages: u64,
    pub events_processed: u64,
    /// `Formed` events of negotiations that had already settled: the
    /// re-formations after a member failure.
    pub reformed: usize,
}

impl Outcome {
    pub fn formed_ratio(&self) -> f64 {
        self.formed as f64 / self.submitted as f64
    }

    /// Linear-interpolated quantile of the formation latencies, in ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let v = &self.latencies_us;
        if v.is_empty() {
            return f64::NAN;
        }
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        (v[lo] as f64 * (1.0 - frac) + v[hi] as f64 * frac) / 1_000.0
    }

    pub fn messages_per_negotiation(&self) -> f64 {
        self.messages as f64 / self.submitted as f64
    }

    pub fn mean_distance(&self) -> f64 {
        self.distance_sum / self.placed_tasks as f64
    }

    /// Submissions that never settled.
    pub fn failed(&self) -> usize {
        self.submitted.saturating_sub(self.settled)
    }

    /// Pools another instance's outcome into this one.
    pub fn absorb(&mut self, other: &Outcome) {
        self.submitted += other.submitted;
        self.settled += other.settled;
        self.formed += other.formed;
        self.latencies_us.extend_from_slice(&other.latencies_us);
        self.latencies_us.sort_unstable();
        self.distance_sum += other.distance_sum;
        self.placed_tasks += other.placed_tasks;
        self.messages += other.messages;
        self.events_processed += other.events_processed;
        self.reformed += other.reformed;
    }
}

/// Drives `inputs` open loop through `rt`: every arrival is submitted up
/// front at its sampled instant, then simulated time advances in
/// [`STEP`]s; after each step every newly settled negotiation is
/// scheduled to dissolve `hold` after its settle, so capacity returns
/// to the pool and the run reaches a steady state.
///
/// Outcomes are counted per distinct `NegoId` at its first settle:
/// reconfiguration rounds re-emit `Formed`, which `LoadDriver` counts
/// again.
pub fn drive(rt: &mut dyn Runtime, inputs: Inputs, p: &Params) -> Outcome {
    let plan = &inputs.plan;
    for (i, (service, &at)) in inputs.services.into_iter().zip(&plan.arrivals).enumerate() {
        let org = plan.organizers[i % plan.organizers.len()];
        rt.submit(org, service, at)
            .expect("organizers come from the population");
    }
    let end = SimTime::ZERO + plan.window + p.drain;
    let mut first_settle: HashSet<NegoId> = HashSet::new();
    let mut out = Outcome {
        submitted: plan.arrivals.len(),
        settled: 0,
        formed: 0,
        latencies_us: Vec::new(),
        distance_sum: 0.0,
        placed_tasks: 0,
        messages: 0,
        events_processed: 0,
        reformed: 0,
    };
    let mut now = SimTime::ZERO;
    let mut seen = 0;
    let mut dissolves: Vec<(NegoId, SimTime)> = Vec::new();
    while now < end {
        now = (now + STEP).min(end);
        out.events_processed += rt.run(now);
        let events = rt.events();
        for e in &events[seen..] {
            let (nego, metrics, formed) = match &e.event {
                NegoEvent::Formed { nego, metrics } => (*nego, metrics, true),
                NegoEvent::FormationIncomplete { nego, metrics, .. } => (*nego, metrics, false),
                _ => continue,
            };
            if !first_settle.insert(nego) {
                out.reformed += usize::from(formed);
                continue;
            }
            out.settled += 1;
            if formed {
                out.formed += 1;
                if let Some(lat) = metrics.formation_latency() {
                    out.latencies_us.push(lat.as_micros());
                }
            }
            out.placed_tasks += metrics.outcomes.len();
            out.distance_sum += metrics.outcomes.values().map(|o| o.distance).sum::<f64>();
            dissolves.push((nego, (e.at + p.hold).max(now)));
        }
        seen = events.len();
        for (nego, at) in dissolves.drain(..) {
            rt.schedule_dissolve(nego, at)
                .expect("organizer of a logged negotiation is registered");
        }
    }
    out.latencies_us.sort_unstable();
    out.messages = rt.messages_sent();
    out
}

/// End-of-run output checks on a drained runtime. Returns the failures
/// found (empty when the run is correct) and the number of stale
/// `holding()` entries (see the benchmark notes).
pub fn check_outputs(rt: &dyn Runtime, nodes: usize, out: &Outcome) -> (Vec<String>, usize) {
    let mut errors = Vec::new();
    if out.formed > out.settled || out.settled > out.submitted {
        errors.push(format!(
            "formed {} <= settled {} <= submitted {} does not hold",
            out.formed, out.settled, out.submitted
        ));
    }
    if out.failed() > 0 {
        errors.push(format!("{} submissions never settled", out.failed()));
    }
    let ids: Vec<Pid> = (0..nodes as Pid).collect();
    let invariants = [
        qosc_mc::capacity_conservation(),
        qosc_mc::no_orphaned_winner(),
    ];
    if let Err(v) = qosc_mc::verify_runtime(rt, &ids, &invariants, false) {
        errors.push(v.to_string());
    }
    let node =
        |id: Pid| -> &CoalitionNode { rt.node(id).expect("every population node is hosted") };
    let dissolved = |nego: NegoId| {
        node(nego.organizer).organizer().and_then(|o| o.phase(nego)) == Some(NegoPhase::Dissolved)
    };
    let mut started = 0;
    let mut live = 0;
    let mut stale_holds = 0;
    for &id in &ids {
        let n = node(id);
        if let Some(org) = n.organizer() {
            for nego in org.nego_ids() {
                started += 1;
                if org.phase(nego) != Some(NegoPhase::Dissolved) {
                    live += 1;
                }
            }
        }
        let Some(provider) = n.provider() else {
            continue;
        };
        let executing = provider
            .executing()
            .into_iter()
            .filter(|(nego, _)| dissolved(*nego))
            .count();
        if executing > 0 {
            errors.push(format!(
                "node {id} still executes {executing} tasks of dissolved coalitions"
            ));
        }
        stale_holds += provider
            .holding()
            .into_iter()
            .filter(|(nego, _)| dissolved(*nego))
            .count();
        for kind in ResourceKind::ALL {
            let held = provider.ledger().manager(kind).held();
            if held > 1e-9 {
                errors.push(format!(
                    "node {id} {kind:?}: {held} still reserved after the drain"
                ));
            }
        }
    }
    if started != out.submitted {
        errors.push(format!(
            "{started} negotiations started for {} submissions",
            out.submitted
        ));
    }
    if live > 0 {
        errors.push(format!("{live} negotiations not dissolved after the drain"));
    }
    (errors, stale_holds)
}
