//! Cross-backend equivalence: the DES with geometry (nodes placed in an
//! area, every pair in range, instant radio) and `Backend::Direct` (the
//! same DES without geometry: every node at one point) must be
//! *event-for-event identical* — same assignments, same metrics, same
//! timestamps, same message counts.
//!
//! This is the contract that makes `Backend::Direct` a legitimate
//! stand-in: anything it computes (tests, property checks, benches) is
//! exactly what the placed simulation would have computed under full
//! reach with the network effects turned off. Runs under
//! `PROPTEST_CASES` (64 locally, 256 in CI).
//!
//! The live `ActorRuntime` gets the weaker — but still strong — *outcome*
//! contract: its event log rides wall-clock timestamps and thread
//! interleavings, so it cannot be event-for-event identical, but the
//! winner maps and the formation message counts must match the Direct
//! runtime exactly (winner selection is arrival-order invariant and every
//! proposal beats the wall-clock deadlines by orders of magnitude).

use std::collections::BTreeMap;

use proptest::prelude::*;

use qosc_core::{NegoEvent, NegoId, Pid};
use qosc_netsim::{RadioModel, SimDuration, SimTime};
use qosc_spec::TaskId;
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Builds the shared scenario description: a dense static population
/// under an instant (zero-latency, lossless) radio, so connectivity and
/// timing cannot differ between the backends.
fn config(nodes: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        radio: RadioModel::instant(),
        population: PopulationConfig::default(),
        ..ScenarioConfig::dense(nodes, seed)
    }
}

/// Runs the scenario on one backend and extracts everything observable:
/// the full event log (timestamps, nodes, metrics) and message count.
fn run_on(
    backend: Backend,
    nodes: usize,
    tasks: usize,
    organizer: u32,
    seed: u64,
) -> (Vec<qosc_core::LoggedEvent>, u64) {
    let mut rt = config(nodes, seed).build_backend(backend);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xE0_0001);
    let svc = AppTemplate::Surveillance.service("svc", tasks, &mut rng);
    rt.submit(organizer, svc, SimTime(1_000))
        .expect("submit targets an organizer node");
    rt.run(SimTime(5_000_000));
    (rt.events().to_vec(), rt.messages_sent())
}

proptest! {
    // Default config: 64 cases locally, PROPTEST_CASES=256 in CI.
    #![proptest_config(ProptestConfig::default())]

    /// DES-at-zero-latency and Direct agree exactly: identical event
    /// logs (hence identical assignments and metrics) and identical
    /// message counts, for any seed, pool size, task count and
    /// originating node.
    #[test]
    fn des_at_zero_latency_equals_direct(
        seed in 0u64..10_000,
        nodes in 2usize..20,
        tasks in 1usize..4,
        org_pick in 0usize..20,
    ) {
        let organizer = (org_pick % nodes) as u32;
        let (des_events, des_msgs) = run_on(Backend::Des, nodes, tasks, organizer, seed);
        let (dir_events, dir_msgs) = run_on(Backend::Direct, nodes, tasks, organizer, seed);
        prop_assert_eq!(&des_events, &dir_events,
            "event logs diverged (seed {}, {} nodes, {} tasks, organizer {})",
            seed, nodes, tasks, organizer);
        prop_assert_eq!(des_msgs, dir_msgs, "message counts diverged");
        // The scenario is not vacuous: something settled.
        prop_assert!(des_events.iter().any(|e| matches!(
            e.event,
            NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
        )));
    }
}

/// Scenario used for the Actor-outcome property: dense and instant like
/// [`config`], but with monitoring off and heartbeats pushed beyond any
/// horizon, so the message count is purely the formation protocol and is
/// stable the moment the negotiation settles (the actor threads keep
/// running wall-clock timers after settling; heartbeats would race the
/// observation).
fn outcome_config(nodes: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        organizer: qosc_core::OrganizerConfig {
            monitor: false,
            ..Default::default()
        },
        provider: qosc_core::ProviderConfig {
            heartbeat_interval: SimDuration::secs(3600),
            ..Default::default()
        },
        ..config(nodes, seed)
    }
}

/// Winner map of every settled negotiation: `nego → task → winning node`
/// (unassigned tasks appear with no entry; incomplete formations keep
/// their partial outcomes).
fn winner_maps(events: &[qosc_core::LoggedEvent]) -> BTreeMap<NegoId, BTreeMap<TaskId, Pid>> {
    let mut out = BTreeMap::new();
    for e in events {
        let (nego, metrics) = match &e.event {
            NegoEvent::Formed { nego, metrics } => (*nego, metrics),
            NegoEvent::FormationIncomplete { nego, metrics, .. } => (*nego, metrics),
            _ => continue,
        };
        out.insert(
            nego,
            metrics.outcomes.iter().map(|(t, o)| (*t, o.node)).collect(),
        );
    }
    out
}

/// Runs the outcome scenario on the Direct backend to a virtual horizon.
fn direct_outcome(
    nodes: usize,
    tasks: usize,
    seed: u64,
) -> (BTreeMap<NegoId, BTreeMap<TaskId, Pid>>, u64) {
    let mut rt = outcome_config(nodes, seed).build_backend(Backend::Direct);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xAC_0001);
    let svc = AppTemplate::Surveillance.service("svc", tasks, &mut rng);
    rt.submit(0, svc, SimTime(1_000))
        .expect("node 0 hosts the organizer");
    rt.run(SimTime(5_000_000));
    (winner_maps(rt.events()), rt.messages_sent())
}

/// Runs the same scenario live on actor threads, returning as soon as it
/// settles (generous 30 s wall-clock ceiling for loaded CI machines).
fn actor_outcome(
    nodes: usize,
    tasks: usize,
    seed: u64,
) -> (BTreeMap<NegoId, BTreeMap<TaskId, Pid>>, u64) {
    let mut rt = outcome_config(nodes, seed).build_backend(Backend::Actor);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xAC_0001);
    let svc = AppTemplate::Surveillance.service("svc", tasks, &mut rng);
    rt.submit(0, svc, SimTime(1_000))
        .expect("node 0 hosts the organizer");
    let settled = rt.run_until_settled(1, SimTime(30_000_000));
    assert_eq!(settled, 1, "live negotiation failed to settle in 30 s");
    let out = (winner_maps(rt.events()), rt.messages_sent());
    rt.shutdown();
    out
}

proptest! {
    // Each case spins up real threads and waits out real proposal/award
    // deadlines (~200 ms wall), so this property runs a fixed handful of
    // cases rather than the PROPTEST_CASES-driven count.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Actor-outcome equivalence: the live threaded backend forms the
    /// same coalitions as the Direct runtime — identical winner maps and
    /// identical formation message counts — even though its event log
    /// (wall-clock timestamps, interleavings) need not match.
    #[test]
    fn actor_outcomes_match_direct(
        seed in 0u64..10_000,
        nodes in 2usize..8,
        tasks in 1usize..4,
    ) {
        let (dir_winners, dir_msgs) = direct_outcome(nodes, tasks, seed);
        let (act_winners, act_msgs) = actor_outcome(nodes, tasks, seed);
        prop_assert_eq!(&act_winners, &dir_winners,
            "winner maps diverged (seed {}, {} nodes, {} tasks)", seed, nodes, tasks);
        prop_assert_eq!(act_msgs, dir_msgs,
            "formation message counts diverged (seed {}, {} nodes, {} tasks)",
            seed, nodes, tasks);
        prop_assert!(!dir_winners.is_empty(), "scenario was vacuous");
    }
}

/// A pinned (non-random) instance of the equivalence with the assignment
/// map surfaced explicitly, so a regression fails with a readable diff
/// even if the proptest shim's reporting is terse.
#[test]
fn pinned_seed_assignments_match_exactly() {
    for &(nodes, tasks, seed) in &[(6usize, 2usize, 42u64), (12, 3, 7), (3, 1, 0)] {
        let (des_events, des_msgs) = run_on(Backend::Des, nodes, tasks, 0, seed);
        let (dir_events, dir_msgs) = run_on(Backend::Direct, nodes, tasks, 0, seed);
        assert_eq!(des_events, dir_events, "seed {seed}");
        assert_eq!(des_msgs, dir_msgs, "seed {seed}");
        let assignments = |events: &[qosc_core::LoggedEvent]| {
            events.iter().find_map(|e| match &e.event {
                NegoEvent::Formed { metrics, .. } => Some(
                    metrics
                        .outcomes
                        .iter()
                        .map(|(t, o)| (*t, o.node))
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            })
        };
        assert_eq!(
            assignments(&des_events),
            assignments(&dir_events),
            "winner maps diverged at seed {seed}"
        );
    }
}
