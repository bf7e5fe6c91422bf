//! T4 — multi-organizer contention: concurrent negotiations over one
//! shared provider pool.
//!
//! Every node in the runtime carries an organizer engine, so any subset
//! of nodes can originate services simultaneously. The base grid has
//! 1→16 organizers kick off a 2-task negotiation *at the same instant*
//! over populations of 64→256 nodes: each provider prices every CFP
//! against the capacity left after the tentative holds it already placed
//! for the others. Contention therefore shows up first in the message
//! columns — providers whose capacity is held propose for fewer (or no)
//! tasks, so proposals per organizer fall as the organizer count rises —
//! and only degrades assignment quality (mean distance, unplaced tasks)
//! once the concurrent demand approaches the pool's aggregate capacity.
//!
//! The *push* grid drives 256 nodes to that point: up to 32 simultaneous
//! organizers × up to 8 tasks per service, on both the dense default
//! pool and the `constrained` population (phones/PDAs only, a fraction
//! of the dense pool's aggregate CPU). On the dense pool the formed
//! ratio first dips at 4 tasks × 32 organizers (≈0.97) and falls to
//! ≈0.68 at 8×32 with mean distance rising from 0 to ≈0.11; on the thin
//! pool degradation starts immediately (formed ≈0.5 at 4 tasks × 8
//! organizers) and collapses to ≈0.03 at 8×32, where the concurrent
//! demand exceeds the pool's aggregate capacity several times over.
//!
//! Runs on `Backend::Direct`, the zero-latency DES configuration — with
//! the heap-driven formulation engine the provider side is cheap enough
//! to sweep the full push grid, since every round makes every provider
//! price the whole announced bundle.
//!
//! By the `runtime_equivalence` contract the outcomes are those of the
//! geometric DES whenever every node is in range and the radio is
//! instant.

use qosc_core::NegoEvent;
use qosc_netsim::SimTime;
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::table::{f, mean, replicate, Table};

fn reps(nodes: usize) -> u64 {
    if nodes >= 256 {
        3
    } else {
        6
    }
}

/// One replication: `organizers` services of `tasks` tasks each,
/// submitted at the same kickoff time over `nodes` devices. Returns
/// (formed ratio, mean distance over settled negotiations, unassigned
/// tasks, messages sent).
fn run_once(
    nodes: usize,
    organizers: usize,
    tasks: usize,
    population: PopulationConfig,
    seed: u64,
) -> (f64, f64, f64, f64) {
    let config = ScenarioConfig {
        organizer: qosc_core::OrganizerConfig {
            monitor: false, // formation cost only
            ..Default::default()
        },
        provider: qosc_core::ProviderConfig {
            heartbeat_interval: qosc_netsim::SimDuration::secs(3600),
            ..Default::default()
        },
        population,
        ..ScenarioConfig::dense(nodes, 0x74_0000 + seed * 31 + nodes as u64)
    };
    let mut rt = config.build_backend(Backend::Direct);
    let mut rng = ChaCha8Rng::seed_from_u64(0x74_EEEE + seed);
    for org in 0..organizers {
        let svc = AppTemplate::Surveillance.service(format!("svc-{org}"), tasks, &mut rng);
        // Same kickoff instant for every organizer: maximal contention.
        rt.submit(org as u32, svc, SimTime(1_000))
            .expect("organizer exists");
    }
    rt.run(SimTime(30_000_000));
    let mut formed = 0usize;
    let mut settled = 0usize;
    let mut distances = Vec::new();
    let mut unassigned = 0usize;
    for e in rt.events() {
        match &e.event {
            NegoEvent::Formed { metrics, .. } => {
                formed += 1;
                settled += 1;
                distances.push(metrics.mean_distance());
            }
            NegoEvent::FormationIncomplete { metrics, .. } => {
                settled += 1;
                unassigned += metrics.unassigned.len();
                if !metrics.outcomes.is_empty() {
                    distances.push(metrics.mean_distance());
                }
            }
            _ => {}
        }
    }
    // Hard assert: experiments run with --release, and a silently
    // unsettled negotiation would skew every column of the table.
    assert_eq!(settled, organizers, "every negotiation must settle");
    (
        formed as f64 / organizers as f64,
        mean(&distances),
        unassigned as f64,
        rt.messages_sent() as f64,
    )
}

/// Runs T4 and returns its table.
pub fn run() -> Table {
    let mut table = Table::new(
        "T4: multi-organizer contention on zero-latency DES (simultaneous kickoff; \
         push grid at 256 nodes on dense and constrained pools)",
        &[
            "nodes",
            "pool",
            "tasks_per_svc",
            "organizers",
            "formed_ratio",
            "mean_distance",
            "unassigned_tasks",
            "messages",
            "msgs_per_org",
        ],
    );
    let row = |nodes: usize, pool: &str, tasks: usize, organizers: usize| {
        let population = match pool {
            "dense" => PopulationConfig::default(),
            _ => PopulationConfig::constrained(),
        };
        let results = replicate(reps(nodes), |seed| {
            run_once(nodes, organizers, tasks, population.clone(), seed)
        });
        let formed: Vec<f64> = results.iter().map(|r| r.0).collect();
        let dist: Vec<f64> = results.iter().map(|r| r.1).collect();
        let unassigned: Vec<f64> = results.iter().map(|r| r.2).collect();
        let msgs: Vec<f64> = results.iter().map(|r| r.3).collect();
        vec![
            nodes.to_string(),
            pool.to_string(),
            tasks.to_string(),
            organizers.to_string(),
            f(mean(&formed)),
            f(mean(&dist)),
            f(mean(&unassigned)),
            f(mean(&msgs)),
            f(mean(&msgs) / organizers as f64),
        ]
    };
    // Base grid: the PR 4 sweep (2 tasks per service, dense pool).
    let mut rows = Vec::new();
    for nodes in [64usize, 128, 256] {
        for organizers in [1usize, 2, 4, 8, 16] {
            rows.push(row(nodes, "dense", 2, organizers));
        }
    }
    // Push grid: heavier bundles and thinner pools at 256 nodes, until
    // formed ratio / quality actually degrade.
    for pool in ["dense", "thin"] {
        for tasks in [4usize, 8] {
            for organizers in [8usize, 16, 32] {
                rows.push(row(256, pool, tasks, organizers));
            }
        }
    }
    for r in rows {
        table.row(r);
    }
    table
}
