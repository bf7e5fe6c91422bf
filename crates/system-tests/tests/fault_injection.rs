//! The sampled side of the shared fault vocabulary: the same
//! [`FaultPlan`] the model checker branches over exhaustively is drawn
//! probabilistically by the DES backends (with geometry and in the
//! zero-latency Direct configuration). These tests pin the
//! two properties that make sampled fault runs usable evidence:
//! determinism (a fixed plan seed reproduces the run bit-for-bit) and
//! safety (the model checker's shipped invariants hold at settle even
//! under drops, duplicates and reorders).

use qosc_core::{NegoEvent, Runtime};
use qosc_mc::{default_invariants, verify_runtime};
use qosc_netsim::{FaultPlan, RadioModel, SimDuration, SimTime};
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn faulty_plan(seed: u64) -> FaultPlan {
    FaultPlan::sampled(seed)
        .with_drop(0.08)
        .with_duplicate(0.08)
        .with_reorder(0.15, SimDuration::millis(5))
}

/// Runs one faulted scenario to completion and returns the backend.
fn run_faulted(backend: Backend, nodes: usize, seed: u64, plan: FaultPlan) -> Box<dyn Runtime> {
    let config = ScenarioConfig {
        radio: RadioModel::instant(),
        population: PopulationConfig::default(),
        ..ScenarioConfig::dense(nodes, seed)
    };
    let mut rt = config.build_backend(backend);
    assert!(
        rt.set_fault_plan(plan),
        "{} must accept a fault plan",
        rt.backend_name()
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA_0001);
    let svc = AppTemplate::Surveillance.service("svc", 3, &mut rng);
    rt.submit(0, svc, SimTime(1_000)).expect("node 0 organizes");
    rt.run(SimTime(20_000_000));
    rt
}

#[test]
fn des_fault_runs_are_deterministic_at_a_fixed_seed() {
    for seed in [7, 99, 4242] {
        let a = run_faulted(Backend::Des, 8, seed, faulty_plan(seed));
        let b = run_faulted(Backend::Des, 8, seed, faulty_plan(seed));
        assert_eq!(
            a.events(),
            b.events(),
            "two DES runs with the same fault-plan seed diverged (seed {seed})"
        );
        assert_eq!(a.messages_sent(), b.messages_sent());
    }
}

#[test]
fn des_fault_seeds_actually_perturb_the_run() {
    // Not a tautology check: different fault seeds must be able to
    // produce different histories, or the sampler is inert.
    let perturbed = (0..8u64).any(|s| {
        let base = run_faulted(Backend::Des, 8, 7, faulty_plan(1000 + s));
        let other = run_faulted(Backend::Des, 8, 7, faulty_plan(2000 + s));
        base.events() != other.events()
    });
    assert!(perturbed, "no fault seed changed the event log");
}

#[test]
fn des_invariants_hold_at_settle_under_sampled_faults() {
    for seed in 0..12u64 {
        let rt = run_faulted(Backend::Des, 10, seed, faulty_plan(seed));
        let ids: Vec<u32> = (0..10).collect();
        // The run has fully settled: no pending traffic, so the liveness
        // invariant (every negotiation Operating or Dissolved) applies.
        verify_runtime(&*rt, &ids, &default_invariants(), true)
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        // Faulted runs still make progress: the round concluded one way
        // or the other rather than hanging.
        assert!(
            rt.events().iter().any(|e| matches!(
                e.event,
                NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
            )),
            "seed {seed}: negotiation neither formed nor gave up"
        );
    }
}

#[test]
fn direct_backend_samples_the_same_plan() {
    for seed in [3, 17] {
        let a = run_faulted(Backend::Direct, 8, seed, faulty_plan(seed));
        let b = run_faulted(Backend::Direct, 8, seed, faulty_plan(seed));
        assert_eq!(
            a.events(),
            b.events(),
            "two Direct runs with the same fault-plan seed diverged (seed {seed})"
        );
        let ids: Vec<u32> = (0..8).collect();
        verify_runtime(&*a, &ids, &default_invariants(), true)
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn a_budget_only_plan_is_inert_on_sampled_backends() {
    // Budget-only plans drive the exhaustive explorer; the sampled
    // backends draw nothing from them, so installing one must leave the
    // run identical to the fault-free baseline.
    let budget_only = run_faulted(Backend::Des, 8, 11, FaultPlan::exhaustive(1, 1));
    let baseline = run_faulted(Backend::Des, 8, 11, FaultPlan::none());
    assert_eq!(budget_only.events(), baseline.events());
    assert_eq!(budget_only.messages_sent(), baseline.messages_sent());
}
