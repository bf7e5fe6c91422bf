//! B6 — backend overhead of the unified runtime API: the same dense
//! 64- and 256-node negotiation on `Backend::Direct` (the DES in its
//! zero-latency, full-reach configuration) vs `Backend::Des` (geometry,
//! radio latency and loss). The gap is the price of the network model
//! itself; the protocol work (formulation, evaluation, selection) is
//! identical on both by the cross-backend equivalence test. Both ride
//! the zero-copy delivery plane (`Arc<Msg>` payloads, spatial-index
//! fan-out) — diff the `BENCH_JSON` lines run-over-run to track it.
//!
//! Emits one JSON line per bench via the criterion shim; set
//! `BENCH_JSON=<path>` to append them for run-over-run diffing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qosc_core::NegoEvent;
use qosc_netsim::SimTime;
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn run_backend(backend: Backend, nodes: usize, seed: u64) -> usize {
    let config = ScenarioConfig {
        population: PopulationConfig::default(),
        ..ScenarioConfig::dense(nodes, seed)
    };
    let mut rt = config.build_backend(backend);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let svc = AppTemplate::Surveillance.service("svc", 2, &mut rng);
    rt.submit(0, svc, SimTime(1_000)).expect("node 0 exists");
    rt.run(SimTime(2_000_000));
    rt.events()
        .iter()
        .filter(|e| matches!(e.event, NegoEvent::Formed { .. }))
        .count()
}

fn bench_runtime_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_backend");
    for nodes in [64usize, 256] {
        // A 256-node negotiation costs ~10× the 64-node one; fewer
        // samples keep the suite quick without losing the signal.
        g.sample_size(if nodes >= 256 { 10 } else { 20 });
        for backend in [Backend::Direct, Backend::Des] {
            let name = match backend {
                Backend::Direct => "direct_dense",
                Backend::Des => "des_dense",
                Backend::DesSharded { .. } | Backend::Actor => unreachable!(),
            };
            g.bench_with_input(BenchmarkId::new(name, nodes), &backend, |b, &backend| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    run_backend(backend, nodes, seed)
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_runtime_backends);
criterion_main!(benches);
