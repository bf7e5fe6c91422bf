//! Stepped runs: driving a DES runtime to a deadline in 100 ms `run`
//! steps — as the load drivers do — gives the same event log and message
//! count as one `run` to the same deadline, at one worker and at four.
//! Each step appends only its own entries to the log, so this pins that
//! the appended log equals the one-shot log entry for entry.

use qosc_core::{LoggedEvent, NegoId};
use qosc_netsim::{FaultPlan, SimDuration, SimTime};
use qosc_workloads::{pedestrian, AppTemplate, Backend, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const DEADLINE: SimTime = SimTime(3_000_000);
const STEP: SimDuration = SimDuration::millis(100);

/// Four services from different organizers, staggered so they overlap
/// step boundaries, one dissolved mid-run; returns the log and the
/// message count after reaching `DEADLINE` in one run or in steps.
fn run(backend: Backend, config: &ScenarioConfig, stepped: bool) -> (Vec<LoggedEvent>, u64) {
    let mut rt = config.build_backend(backend);
    assert!(rt.set_fault_plan(FaultPlan {
        drop_prob: 0.05,
        ..FaultPlan::sampled(config.seed)
    }));
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    for (node, at_ms) in [(0u32, 1u64), (3, 40), (5, 250), (1, 1_200)] {
        let svc = AppTemplate::Surveillance.service(format!("svc{node}"), 2, &mut rng);
        rt.submit(node, svc, SimTime(at_ms * 1_000))
            .expect("every node organizes");
    }
    let first = NegoId {
        organizer: 0,
        seq: 0,
    };
    rt.schedule_dissolve(first, SimTime(2_000_000))
        .expect("node 0 organizes");
    if stepped {
        let mut now = SimTime::ZERO;
        while now < DEADLINE {
            now = (now + STEP).min(DEADLINE);
            rt.run(now);
        }
    } else {
        rt.run(DEADLINE);
    }
    (rt.events().to_vec(), rt.messages_sent())
}

fn assert_stepping_is_invisible(config: &ScenarioConfig) {
    for backend in [Backend::Des, Backend::DesSharded { workers: 4 }] {
        let (one_shot, one_shot_msgs) = run(backend, config, false);
        let (stepped, stepped_msgs) = run(backend, config, true);
        assert!(
            one_shot.len() > 4,
            "{backend:?}: only {} events",
            one_shot.len()
        );
        assert_eq!(one_shot, stepped, "{backend:?}: event logs differ");
        assert_eq!(one_shot_msgs, stepped_msgs, "{backend:?}: messages differ");
    }
}

/// Dense and static: the four-worker runs take the parallel path.
#[test]
fn stepped_runs_match_one_run_on_a_static_population() {
    assert_stepping_is_invisible(&ScenarioConfig::dense(24, 7));
}

/// Walking nodes: every run takes the single-thread path, with mobility
/// ticks straddling the step boundaries.
#[test]
fn stepped_runs_match_one_run_on_a_mobile_population() {
    assert_stepping_is_invisible(&ScenarioConfig {
        nodes: 24,
        mobility: Some(pedestrian(1.5)),
        seed: 11,
        ..ScenarioConfig::default()
    });
}
