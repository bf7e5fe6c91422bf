//! End-to-end load-driver behaviour against real scenario runtimes:
//! the open-loop accounting adds up and a pre-sampled plan replays
//! deterministically.

use qosc_core::{LoggedEvent, NegoEvent, NegoId, NegotiationMetrics};
use qosc_load::{LoadDriver, LoadPlan, LoadReport, PoissonArrivals};
use qosc_netsim::{SimDuration, SimTime};
use qosc_spec::TaskId;
use qosc_workloads::{AppTemplate, Backend, ScenarioConfig};

fn plan(seed: u64) -> LoadPlan {
    LoadPlan::sampled(
        &PoissonArrivals::new(1.5),
        SimDuration::secs(20),
        (0..6).collect(),
        AppTemplate::Surveillance,
        2,
        seed,
    )
}

fn drive(backend: Backend, seed: u64) -> qosc_load::LoadReport {
    let config = ScenarioConfig::dense(24, 0xD21_5EED ^ seed);
    let mut rt = config.build_backend(backend);
    LoadDriver::new(&plan(seed)).run(rt.as_mut())
}

#[test]
fn open_loop_accounting_adds_up() {
    let report = drive(Backend::Direct, 3);
    assert!(report.submitted > 10, "plan too thin: {report:?}");
    assert!(report.settled() <= report.submitted);
    assert!(report.formed > 0, "nothing formed: {report:?}");
    assert_eq!(report.latency.count() as usize, report.formed);
    assert!(report.messages > 0);
    assert!(report.formed_ratio() > 0.0 && report.formed_ratio() <= 1.0);
    assert!(report.sustained_per_s() > 0.0);
    let p50 = report.latency.quantile(0.5).expect("formed > 0");
    let p99 = report.latency.quantile(0.99).expect("formed > 0");
    assert!(p50 <= p99);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = drive(Backend::Direct, 7);
    let b = drive(Backend::Direct, 7);
    assert_eq!(a.submitted, b.submitted);
    assert_eq!(a.formed, b.formed);
    assert_eq!(a.incomplete, b.incomplete);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.latency.quantile(0.9), b.latency.quantile(0.9));
}

#[test]
fn empty_plan_yields_an_empty_report() {
    let empty = LoadPlan {
        arrivals: Vec::new(),
        ..plan(0)
    };
    let config = ScenarioConfig::dense(8, 99);
    let mut rt = config.build_backend(Backend::Direct);
    let report = LoadDriver::new(&empty).run(rt.as_mut());
    assert_eq!(report.submitted, 0);
    assert_eq!(report.settled(), 0);
    assert_eq!(report.formed_ratio(), 0.0);
    assert!(report.latency.is_empty());
}

/// A reconfiguration after a member failure re-emits `Formed` for a
/// negotiation that already settled: the tally counts each negotiation
/// once, at its first settle, and the repeats only as `reformed`.
#[test]
fn re_emitted_formed_counts_once() {
    let nego = |seq| NegoId { organizer: 0, seq };
    let formed = |seq, started_ms: u64, formed_ms: u64| NegoEvent::Formed {
        nego: nego(seq),
        metrics: NegotiationMetrics {
            started_at: Some(SimTime(started_ms * 1000)),
            formed_at: Some(SimTime(formed_ms * 1000)),
            ..Default::default()
        },
    };
    let incomplete = |seq| NegoEvent::FormationIncomplete {
        nego: nego(seq),
        unassigned: vec![TaskId(1)],
        metrics: NegotiationMetrics::default(),
    };
    let log: Vec<LoggedEvent> = [
        formed(0, 0, 10),
        incomplete(1),
        formed(2, 5, 20),
        // Reconfiguration rounds: negotiation 0 re-forms twice, and the
        // incomplete negotiation 1 forms after all.
        formed(0, 0, 900),
        formed(1, 0, 950),
        formed(0, 0, 1900),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, event)| LoggedEvent {
        at: SimTime(i as u64),
        node: 0,
        event,
    })
    .collect();
    let report = LoadReport::from_events(3, SimDuration::secs(1), 0, &log);
    assert_eq!((report.formed, report.incomplete), (2, 1));
    assert_eq!(report.reformed, 3);
    assert!(report.formed + report.incomplete <= report.submitted);
    assert!(report.formed_ratio() <= 1.0);
    // Latency is taken at the first settle only.
    assert_eq!(report.latency.count(), 2);
    assert!(report.latency.quantile(1.0).expect("two samples") < SimDuration::millis(100));
}
