//! F1 — coalition vs single node: mean winning distance as the pool grows.
//!
//! Paper claim (§1, §4.1): "Coalition formation is necessary when a single
//! node cannot execute a specific service, but it may also be beneficial
//! when groups perform more efficiently." With more candidate nodes the
//! evaluation (§6) should find proposals closer to the user's preferences;
//! a single node's quality is flat (and often degraded).
//!
//! Three allocators over the *same* instance per replication: the offline
//! protocol emulation, the single-node baseline, and — since PR 3 — the
//! actual §4.2 protocol running on the zero-latency DES configuration
//! (`DesRuntime::instant`, retry rounds included), which validates that
//! the emulation tracks the real engines.

use qosc_baselines::{protocol_emulation, single_node};
use qosc_core::{NegoEvent, Runtime, TieBreak};
use qosc_netsim::SimTime;
use qosc_workloads::{AppTemplate, PopulationConfig};

use crate::instances::{instance_runtime, instance_service, population_instance};
use crate::table::{f, mean, replicate, Table};

/// Replications per point (fewer at the 128/256-node scale, where each
/// replication already aggregates hundreds of proposal evaluations).
fn reps(nodes: usize) -> u64 {
    if nodes >= 128 {
        10
    } else {
        30
    }
}

/// Tasks per service.
const TASKS: usize = 3;

/// Runs the real protocol on the zero-latency DES and returns
/// (mean distance over placed tasks, acceptance ratio).
fn protocol_run(inst: &qosc_baselines::Instance, template: AppTemplate) -> (f64, f64) {
    let mut rt = instance_runtime(inst);
    let svc = instance_service(inst, template, "svc");
    rt.submit(inst.requester, svc, SimTime(1_000))
        .expect("requester is registered");
    rt.run(SimTime(30_000_000));
    // The last settling event carries the final metrics (retry rounds
    // update them in place).
    let metrics = rt.events().iter().rev().find_map(|e| match &e.event {
        NegoEvent::Formed { metrics, .. } | NegoEvent::FormationIncomplete { metrics, .. } => {
            Some(metrics.clone())
        }
        _ => None,
    });
    match metrics {
        Some(m) => (m.mean_distance(), m.outcomes.len() as f64 / TASKS as f64),
        None => (f64::NAN, 0.0),
    }
}

/// Runs F1 and returns its table.
pub fn run() -> Table {
    let mut table = Table::new(
        "F1: mean proposal distance vs pool size (coalition vs single node)",
        &[
            "nodes",
            "coalition_dist",
            "single_dist",
            "protocol_dist",
            "coalition_accept",
            "single_accept",
            "protocol_accept",
            "improvement",
        ],
    );
    let population = PopulationConfig::constrained();
    for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let results = replicate(reps(n), |seed| {
            let inst = population_instance(
                &population,
                n,
                AppTemplate::VideoConference,
                TASKS,
                0xF1_0000 + seed * 1000 + n as u64,
            );
            let coalition = protocol_emulation(&inst, &TieBreak::default());
            let single = single_node(&inst);
            let (proto_dist, proto_accept) = protocol_run(&inst, AppTemplate::VideoConference);
            (
                coalition.mean_distance(),
                single.mean_distance(),
                coalition.acceptance_ratio(TASKS),
                single.acceptance_ratio(TASKS),
                proto_dist,
                proto_accept,
            )
        });
        let cd = mean(&results.iter().map(|r| r.0).collect::<Vec<_>>());
        let sd = mean(&results.iter().map(|r| r.1).collect::<Vec<_>>());
        let ca = mean(&results.iter().map(|r| r.2).collect::<Vec<_>>());
        let sa = mean(&results.iter().map(|r| r.3).collect::<Vec<_>>());
        // NaN (not 0.0 = "preferred quality") when no replication settled.
        let pds: Vec<f64> = results
            .iter()
            .map(|r| r.4)
            .filter(|d| d.is_finite())
            .collect();
        let pd = if pds.is_empty() { f64::NAN } else { mean(&pds) };
        let pa = mean(&results.iter().map(|r| r.5).collect::<Vec<_>>());
        let improvement = if cd > 0.0 { sd / cd } else { f64::INFINITY };
        table.row(vec![
            n.to_string(),
            f(cd),
            f(sd),
            f(pd),
            f(ca),
            f(sa),
            f(pa),
            f(improvement),
        ]);
    }
    table
}
