//! Sharded-DES equivalence: running the simulator's spatial shards on
//! worker threads must not change what the simulation computes.
//!
//! Two contracts, in decreasing strictness:
//!
//! * **One worker ⇒ bit-equality.** `Backend::DesSharded { workers: 1 }`
//!   and `Backend::Des` build the same one-shard engine, so their full
//!   event logs — timestamps, nodes, metrics, order — and message
//!   counters must be equal, for any seed, population, task count,
//!   mobility, or fault plan.
//! * **Many workers ⇒ outcome-pinning.** With real parallelism the event
//!   *log order* may legally differ (total-order keys depend on the
//!   partition), but the negotiation outcomes may not: identical winner
//!   maps, identical settled counts, identical network counters. Per-node
//!   RNG streams and per-node fault samplers make every draw a function
//!   of `(seed, node)` rather than of the schedule, which is what makes
//!   this pin achievable at all.
//!
//! Runs under `PROPTEST_CASES` (64 locally, 256 in CI).

use std::collections::BTreeMap;

use proptest::prelude::*;

use qosc_core::{NegoEvent, NegoId, Pid};
use qosc_netsim::{FaultPlan, PartitionPlan, SimDuration, SimTime};
use qosc_spec::TaskId;
use qosc_workloads::{pedestrian, AppTemplate, Backend, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Dense static population under the *default* radio (2 ms latency →
/// 2 ms conservative lookahead), so the parallel path genuinely runs on
/// multi-worker configurations.
fn config(nodes: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig::dense(nodes, seed)
}

/// Runs the scenario on one backend; returns the event log and the
/// message count.
fn run_on(
    backend: Backend,
    config: &ScenarioConfig,
    tasks: usize,
    organizer: u32,
    plan: Option<FaultPlan>,
) -> (Vec<qosc_core::LoggedEvent>, u64) {
    let mut rt = config.build_backend(backend);
    if let Some(plan) = plan {
        assert!(rt.set_fault_plan(plan), "{}", rt.backend_name());
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xE0_0001);
    let svc = AppTemplate::Surveillance.service("svc", tasks, &mut rng);
    rt.submit(organizer, svc, SimTime(1_000))
        .expect("submit targets an organizer node");
    rt.run(SimTime(5_000_000));
    (rt.events().to_vec(), rt.messages_sent())
}

/// Same scenario, but with `plan` installed directly on the runtime
/// (bypassing `ScenarioConfig::partitions`, which skips inert plans), so
/// even a plan with no events is genuinely installed before the run.
fn run_with_installed_plan(
    backend: Backend,
    config: &ScenarioConfig,
    tasks: usize,
    plan: &PartitionPlan,
) -> (Vec<qosc_core::LoggedEvent>, u64) {
    let mut rt = config.build_backend(backend);
    assert!(
        rt.set_partition_plan(plan),
        "{} enforces partitions",
        rt.backend_name()
    );
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xE0_0001);
    let svc = AppTemplate::Surveillance.service("svc", tasks, &mut rng);
    rt.submit(0, svc, SimTime(1_000)).expect("node 0 organizes");
    rt.run(SimTime(5_000_000));
    (rt.events().to_vec(), rt.messages_sent())
}

/// Nodes `0..n` split into two halves (the canonical worst-case cut).
fn halves(nodes: usize) -> Vec<Vec<u32>> {
    let mid = (nodes / 2) as u32;
    vec![(0..mid).collect(), (mid..nodes as u32).collect()]
}

/// Winner map of every settled negotiation: `nego → task → winning node`.
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

fn settled_count(events: &[qosc_core::LoggedEvent]) -> usize {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
            )
        })
        .count()
}

proptest! {
    // Default config: 64 cases locally, PROPTEST_CASES=256 in CI.
    #![proptest_config(ProptestConfig::default())]

    /// One worker is the `Backend::Des` engine, bit for bit: identical event
    /// logs and message counts for any seed, pool, task count and
    /// originating node.
    #[test]
    fn one_worker_is_bit_equal_to_des(
        seed in 0u64..10_000,
        nodes in 2usize..20,
        tasks in 1usize..4,
        org_pick in 0usize..20,
    ) {
        let organizer = (org_pick % nodes) as u32;
        let cfg = config(nodes, seed);
        let (des_events, des_msgs) = run_on(Backend::Des, &cfg, tasks, organizer, None);
        let (sh_events, sh_msgs) =
            run_on(Backend::DesSharded { workers: 1 }, &cfg, tasks, organizer, None);
        prop_assert_eq!(&des_events, &sh_events,
            "event logs diverged (seed {}, {} nodes, {} tasks, organizer {})",
            seed, nodes, tasks, organizer);
        prop_assert_eq!(des_msgs, sh_msgs, "message counts diverged");
        prop_assert!(settled_count(&des_events) > 0, "scenario was vacuous");
    }

    /// Bit-equality survives the merged-path triggers: random-waypoint
    /// mobility (node table mutates mid-run) and a sampled fault plan
    /// (per-node fault streams) at once.
    #[test]
    fn one_worker_bit_equality_with_mobility_and_faults(
        seed in 0u64..10_000,
        nodes in 2usize..12,
        tasks in 1usize..3,
    ) {
        let cfg = ScenarioConfig {
            mobility: Some(pedestrian(2.0)),
            ..config(nodes, seed)
        };
        let plan = FaultPlan::sampled(seed ^ 0xFA_57)
            .with_drop(0.05)
            .with_duplicate(0.05)
            .with_reorder(0.10, SimDuration::millis(3));
        let (des_events, des_msgs) = run_on(Backend::Des, &cfg, tasks, 0, Some(plan));
        let (sh_events, sh_msgs) =
            run_on(Backend::DesSharded { workers: 1 }, &cfg, tasks, 0, Some(plan));
        prop_assert_eq!(&des_events, &sh_events,
            "faulted/mobile logs diverged (seed {}, {} nodes)", seed, nodes);
        prop_assert_eq!(des_msgs, sh_msgs);
    }

    /// Parallel workers pin the *outcome*: same winner maps, same settled
    /// count, same message counters as the one-worker DES — the log order
    /// is the only thing allowed to differ.
    #[test]
    fn multi_worker_outcomes_match_des(
        seed in 0u64..10_000,
        nodes in 4usize..24,
        tasks in 1usize..4,
    ) {
        let cfg = config(nodes, seed);
        let (des_events, des_msgs) = run_on(Backend::Des, &cfg, tasks, 0, None);
        for workers in [2usize, 4] {
            let (sh_events, sh_msgs) =
                run_on(Backend::DesSharded { workers }, &cfg, tasks, 0, None);
            prop_assert_eq!(winner_maps(&des_events), winner_maps(&sh_events),
                "winner maps diverged (seed {}, {} nodes, {} workers)", seed, nodes, workers);
            prop_assert_eq!(settled_count(&des_events), settled_count(&sh_events),
                "settled counts diverged (seed {}, {} workers)", seed, workers);
            prop_assert_eq!(des_msgs, sh_msgs,
                "message counts diverged (seed {}, {} workers)", seed, workers);
        }
        prop_assert!(settled_count(&des_events) > 0, "scenario was vacuous");
    }

    /// Per-node fault streams make multi-worker fault runs outcome-equal
    /// to the sequential faulted run: the fault pattern is a function of
    /// `(plan seed, node)`, never of the thread schedule.
    #[test]
    fn multi_worker_fault_outcomes_match_des(
        seed in 0u64..10_000,
        nodes in 4usize..12,
    ) {
        let cfg = config(nodes, seed);
        let plan = FaultPlan::sampled(seed ^ 0x5EED)
            .with_drop(0.05)
            .with_duplicate(0.05);
        let (des_events, des_msgs) = run_on(Backend::Des, &cfg, 2, 0, Some(plan));
        let (sh_events, sh_msgs) =
            run_on(Backend::DesSharded { workers: 4 }, &cfg, 2, 0, Some(plan));
        prop_assert_eq!(winner_maps(&des_events), winner_maps(&sh_events),
            "faulted winner maps diverged (seed {}, {} nodes)", seed, nodes);
        prop_assert_eq!(des_msgs, sh_msgs, "faulted message counts diverged");
    }

    /// An installed partition plan that never cuts a delivery — no events
    /// at all, or a split healed before the first send — leaves every
    /// enforcing backend bit-identical to a run with no plan.
    #[test]
    fn inert_partition_plans_are_bit_identical(
        seed in 0u64..10_000,
        nodes in 2usize..12,
        tasks in 1usize..3,
    ) {
        let cfg = config(nodes, seed);
        // Split at t=0, healed at t=500 µs: the first send is the submit
        // at t=1 ms, so no delivery ever lands while a link is cut.
        let prehealed = PartitionPlan::none()
            .partition_at(SimTime(0), halves(nodes))
            .heal_at(SimTime(500));
        for backend in [Backend::Des, Backend::DesSharded { workers: 1 }, Backend::Direct] {
            let (plain_events, plain_msgs) = run_on(backend, &cfg, tasks, 0, None);
            for plan in [PartitionPlan::none(), prehealed.clone()] {
                let (cut_events, cut_msgs) =
                    run_with_installed_plan(backend, &cfg, tasks, &plan);
                prop_assert_eq!(&plain_events, &cut_events,
                    "inert plan changed the {:?} log (seed {}, {} nodes)",
                    backend, seed, nodes);
                prop_assert_eq!(plain_msgs, cut_msgs,
                    "inert plan changed {:?} message counts (seed {})", backend, seed);
            }
        }
    }

    /// Many vs one worker under the *same* partition schedule:
    /// one worker stays bit-equal while links are cut, and parallel
    /// workers stay outcome-pinned — a cut is a function of
    /// `(timeline, sender, receiver, delivery time)`, never of the
    /// thread schedule.
    #[test]
    fn multi_worker_partition_outcomes_match_des(
        seed in 0u64..10_000,
        nodes in 4usize..16,
        tasks in 1usize..3,
    ) {
        let cfg = ScenarioConfig {
            partitions: PartitionPlan::none()
                .partition_at(SimTime(50_000), halves(nodes))
                .heal_at(SimTime(400_000)),
            ..config(nodes, seed)
        };
        let (des_events, des_msgs) = run_on(Backend::Des, &cfg, tasks, 0, None);
        let (sh1_events, sh1_msgs) =
            run_on(Backend::DesSharded { workers: 1 }, &cfg, tasks, 0, None);
        prop_assert_eq!(&des_events, &sh1_events,
            "one-worker partitioned log diverged (seed {}, {} nodes)", seed, nodes);
        prop_assert_eq!(des_msgs, sh1_msgs);
        for workers in [2usize, 4] {
            let (sh_events, sh_msgs) =
                run_on(Backend::DesSharded { workers }, &cfg, tasks, 0, None);
            prop_assert_eq!(winner_maps(&des_events), winner_maps(&sh_events),
                "partitioned winner maps diverged (seed {}, {} workers)", seed, workers);
            prop_assert_eq!(settled_count(&des_events), settled_count(&sh_events),
                "partitioned settled counts diverged (seed {}, {} workers)", seed, workers);
            prop_assert_eq!(des_msgs, sh_msgs,
                "partitioned message counts diverged (seed {}, {} workers)", seed, workers);
        }
    }
}

/// A pinned (non-random) instance of both contracts with readable
/// failures, including capacity conservation on the sharded backend.
#[test]
fn pinned_seed_sharded_runs_match_des() {
    for &(nodes, tasks, seed) in &[(6usize, 2usize, 42u64), (16, 3, 7), (3, 1, 0)] {
        let cfg = config(nodes, seed);
        let (des_events, des_msgs) = run_on(Backend::Des, &cfg, tasks, 0, None);
        let (sh1_events, sh1_msgs) =
            run_on(Backend::DesSharded { workers: 1 }, &cfg, tasks, 0, None);
        assert_eq!(des_events, sh1_events, "seed {seed}: one-worker log");
        assert_eq!(des_msgs, sh1_msgs, "seed {seed}: one-worker messages");
        for workers in [2usize, 4] {
            let (sh_events, sh_msgs) =
                run_on(Backend::DesSharded { workers }, &cfg, tasks, 0, None);
            assert_eq!(
                winner_maps(&des_events),
                winner_maps(&sh_events),
                "seed {seed}, {workers} workers: winner maps"
            );
            assert_eq!(
                des_msgs, sh_msgs,
                "seed {seed}, {workers} workers: messages"
            );
        }
    }
}

/// Capacity conservation on the parallel path: after a formation settles,
/// every provider's committed resources stay within its capacity — the
/// same invariant the model checker ships, asserted here on the live
/// sharded backend at 4 workers.
#[test]
fn sharded_formation_conserves_capacity() {
    let cfg = config(12, 99);
    let mut rt = cfg.build_backend(Backend::DesSharded { workers: 4 });
    let mut rng = ChaCha8Rng::seed_from_u64(99 ^ 0xE0_0001);
    let svc = AppTemplate::Surveillance.service("svc", 3, &mut rng);
    rt.submit(0, svc, SimTime(1_000)).expect("node 0 organizes");
    rt.run(SimTime(5_000_000));
    assert!(settled_count(rt.events()) > 0, "nothing settled");
    let winners = winner_maps(rt.events());
    for (_, tasks) in winners {
        for (_, pid) in tasks {
            let node = rt.node(pid).expect("winner is registered");
            let provider = node.provider().expect("winner has a provider engine");
            let ledger = provider.ledger();
            for kind in qosc_resources::ResourceKind::ALL {
                let cap = ledger.capacity().get(kind);
                let avail = ledger.available().get(kind);
                assert!(
                    (-1e-9..=cap + 1e-9).contains(&avail),
                    "node {pid}: {kind:?} available {avail} outside [0, {cap}]"
                );
            }
        }
    }
}
