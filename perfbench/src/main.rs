//! Open-loop coalition-formation benchmark on the DES backend.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense_burst --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` runs the workload's seeded instances for `--seconds` and
//! prints the end-to-end metrics: medians of the host timings, and the
//! simulated metrics pooled over the instances (pure functions of the
//! seed, which every repeat must reproduce). `--trace 1` runs instance 0
//! on `DesRuntime`, twice on the traced replica and once on an untraced
//! replica, checks that all four agree and that another seed differs,
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object; see `README.md`.

mod alloc;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use qosc_core::{DesRuntime, LoggedEvent, Msg, Runtime};
use qosc_netsim::{NetStats, Simulator};

use crate::trace::{rebuild_simulator, TracedRuntime, SPANS};
use crate::workload::{build_scenario, check_outputs, drive, sample_inputs, Outcome, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up is timed at least this often per run (extra set-ups are
/// built and dropped after the timed repetitions).
const MIN_SETUPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: correctness, operation counts and named metrics.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a missing value is null.
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Reports output-check failures on standard error.
fn checked(label: &str, errors: &[String]) -> bool {
    for e in errors {
        eprintln!("check failed ({label}): {e}");
    }
    errors.is_empty()
}

/// One untraced run on `DesRuntime`: set-up, then the timed run phase.
struct Untraced {
    setup: Duration,
    run: Duration,
    allocs: u64,
    outcome: Outcome,
    events: Vec<LoggedEvent>,
    stats: NetStats,
    errors: Vec<String>,
    stale_holds: usize,
}

fn run_untraced(w: Workload, seed: u64) -> Untraced {
    let p = w.params(seed);
    let t = Instant::now();
    let inputs = sample_inputs(&p);
    let mut scenario = build_scenario(&p);
    let setup = t.elapsed();
    let allocs = alloc::allocations();
    let t = Instant::now();
    let outcome = drive(&mut scenario.runtime, inputs, &p);
    let run = t.elapsed();
    let allocs = alloc::allocations() - allocs;
    let (errors, stale_holds) = check_outputs(&scenario.runtime, p.config.nodes, &outcome);
    Untraced {
        setup,
        run,
        allocs,
        outcome,
        events: scenario.runtime.events().to_vec(),
        stats: scenario.runtime.net_stats().clone(),
        errors,
        stale_holds,
    }
}

fn end_to_end(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut correct = true;
    // Instance runs cycle through the instances: one full cycle, then on
    // until the budget is spent. Repeats must reproduce the first run of
    // their instance exactly.
    let mut first: Vec<Untraced> = Vec::new();
    let mut runs = 0;
    while runs < w.instances() || started.elapsed() < budget {
        let k = runs % w.instances();
        let u = run_untraced(w, w.instance_seed(args.seed, k));
        setups.push(u.setup.as_secs_f64());
        rates.push(u.outcome.submitted as f64 / u.run.as_secs_f64());
        correct &= checked("outputs", &u.errors);
        match first.get(k as usize) {
            None => first.push(u),
            Some(f) => {
                if f.outcome != u.outcome || f.stats != u.stats || f.events != u.events {
                    correct = false;
                    eprintln!("check failed: two same-seed runs differ");
                }
            }
        }
        runs += 1;
    }
    while setups.len() < MIN_SETUPS {
        let p = w.params(w.instance_seed(args.seed, setups.len() as u64 % w.instances()));
        let t = Instant::now();
        let inputs = sample_inputs(&p);
        let scenario = build_scenario(&p);
        setups.push(t.elapsed().as_secs_f64());
        drop((inputs, scenario));
    }
    let mut o = first[0].outcome.clone();
    for u in &first[1..] {
        o.absorb(&u.outcome);
    }
    let mut r = Report {
        correct,
        attempted: o.submitted,
        failed: o.failed(),
        metrics: Vec::new(),
    };
    r.metric("setup_s", median(&mut setups), "s");
    r.metric("negotiations_per_s", median(&mut rates), "1/s");
    r.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    r.metric("formed_ratio", o.formed_ratio(), "fraction");
    r.metric("formation_latency_p50_ms", o.latency_ms(0.50), "sim_ms");
    r.metric("formation_latency_p99_ms", o.latency_ms(0.99), "sim_ms");
    r.metric(
        "messages_per_negotiation",
        o.messages_per_negotiation(),
        "msgs",
    );
    r.metric("mean_distance", o.mean_distance(), "eq2");
    eprintln!(
        "{}: {} runs of {} instances, {} submitted, {} formed, {} latency samples",
        w.name(),
        runs,
        w.instances(),
        o.submitted,
        o.formed,
        o.latencies_us.len()
    );
    Ok(r)
}

/// One run of instance `seed` on a replica host: a simulator rebuilt
/// with `Scenario::build`'s seed derivation, hosting clones of a built
/// scenario's nodes.
struct Replica<R> {
    build: Duration,
    plan: Duration,
    run: Duration,
    outcome: Outcome,
    rt: R,
}

fn run_replica<R: Runtime>(
    w: Workload,
    seed: u64,
    host: impl FnOnce(Simulator<Msg>) -> R,
) -> Replica<R> {
    let p = w.params(seed);
    let t = Instant::now();
    let scenario = build_scenario(&p);
    let build = t.elapsed();
    let t = Instant::now();
    let inputs = sample_inputs(&p);
    let plan = t.elapsed();
    let mut rt = host(rebuild_simulator(&p.config));
    if let Some(faults) = p.faults {
        assert!(rt.set_fault_plan(faults), "replica hosts inject faults");
    }
    for id in 0..p.config.nodes as u32 {
        let node = scenario
            .runtime
            .node(id)
            .expect("population nodes are hosted")
            .clone();
        rt.add_node(node).expect("sequential ids are unique");
    }
    drop(scenario);
    let t = Instant::now();
    let outcome = drive(&mut rt, inputs, &p);
    let run = t.elapsed();
    Replica {
        build,
        plan,
        run,
        outcome,
        rt,
    }
}

fn per_layer(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let secs = |d: Duration| d.as_secs_f64();
    // The traced figures cover instance 0 of the run's seed.
    let seed = w.instance_seed(args.seed, 0);
    let base = run_untraced(w, seed);
    let mut correct = checked("outputs", &base.errors);
    let traced = run_replica(w, seed, TracedRuntime::new);
    let nodes = w.params(seed).config.nodes;
    let (errors, _) = check_outputs(&traced.rt, nodes, &traced.outcome);
    correct &= checked("traced outputs", &errors);
    if traced.rt.events() != base.events.as_slice()
        || traced.rt.net_stats() != &base.stats
        || traced.outcome != base.outcome
    {
        correct = false;
        eprintln!("check failed: the traced replica diverged from DesRuntime");
    }
    let again = run_replica(w, seed, TracedRuntime::new);
    if again.rt.trace().counts() != traced.rt.trace().counts() || again.outcome != traced.outcome {
        correct = false;
        eprintln!("check failed: two same-seed traced runs differ");
    }
    // Tracing overhead is taken against `DesRuntime` hosting the same
    // cloned nodes: freshly built nodes run measurably slower than their
    // clones (see README), which is not the tracer's doing.
    let plain = run_replica(w, seed, DesRuntime::new);
    if plain.rt.events() != base.events.as_slice() || plain.outcome != base.outcome {
        correct = false;
        eprintln!("check failed: two same-seed untraced runs differ");
    }
    let overhead = (secs(traced.run) + secs(again.run)) / (2.0 * secs(plain.run));
    drop((again, plain));
    let other = run_untraced(w, w.instance_seed(args.seed.wrapping_add(1), 0));
    if other.outcome == base.outcome || other.stats == base.stats {
        correct = false;
        eprintln!("check failed: a different seed left the results unchanged");
    }
    drop(other);

    let o = &base.outcome;
    let tr = traced.rt.trace();
    let s = traced.rt.net_stats();
    let mut r = Report {
        correct,
        attempted: o.submitted,
        failed: o.failed(),
        metrics: Vec::new(),
    };
    r.metric("workloads.build.time_s", secs(traced.build), "s");
    r.metric("load.plan.time_s", secs(traced.plan), "s");
    r.metric("netsim.loop.self_s", secs(tr.loop_self()), "s");
    r.metric("netsim.send.calls", tr.send.calls as f64, "count");
    r.metric("netsim.send.time_s", secs(tr.send.time), "s");
    r.metric("netsim.events", o.events_processed as f64, "count");
    r.metric(
        "netsim.ns_per_event",
        tr.loop_self().as_nanos() as f64 / o.events_processed as f64,
        "ns",
    );
    for (name, v) in [
        ("broadcast_deliveries", s.broadcast_deliveries),
        ("unicasts_delivered", s.unicasts_delivered),
        ("unicasts_unreachable", s.unicasts_unreachable),
        ("faults_dropped", s.faults_dropped),
        ("partition_cuts", s.partition_cuts),
        ("bytes_delivered", s.bytes_delivered),
    ] {
        r.metric(format!("netsim.{name}"), v as f64, "count");
    }
    let delivered = s.unicasts_delivered + s.broadcast_deliveries;
    let dropped = s.unicasts_unreachable
        + s.unicasts_lost
        + s.broadcasts_lost
        + s.broadcasts_undelivered
        + s.faults_dropped
        + s.partition_cuts;
    r.metric(
        "netsim.delivery_ratio",
        delivered as f64 / (delivered + dropped) as f64,
        "fraction",
    );
    r.metric("core.dispatch.self_s", secs(tr.dispatch_self()), "s");
    for (name, span) in SPANS.iter().zip(&tr.engine) {
        r.metric(format!("{name}.calls"), span.calls as f64, "count");
        r.metric(format!("{name}.time_s"), secs(span.time), "s");
        r.metric(format!("{name}.p99_us"), span.p99_us(), "us");
        r.metric(format!("{name}.allocs"), span.allocs as f64, "count");
    }
    r.metric(
        "core.provider.cfp.proposal_ratio",
        tr.cfp_proposals as f64 / tr.engine[0].calls.max(1) as f64,
        "fraction",
    );
    r.metric(
        "core.provider.stale_hold_entries",
        base.stale_holds as f64,
        "count",
    );
    r.metric(
        "core.organizer.rounds_per_negotiation",
        tr.cfp_broadcasts as f64 / o.submitted as f64,
        "count",
    );
    r.metric(
        "core.organizer.member_failed",
        tr.member_failed as f64,
        "count",
    );
    r.metric("core.organizer.reformed", o.reformed as f64, "count");
    r.metric(
        "alloc.per_negotiation",
        base.allocs as f64 / o.submitted as f64,
        "count",
    );
    r.metric("trace.overhead_ratio", overhead, "ratio");
    r.metric(
        "trace.coverage",
        secs(tr.run_until) / secs(traced.run),
        "fraction",
    );
    Ok(r)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dense_burst|mobile_sparse|partition_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match report {
        Ok(r) => {
            println!("{}", r.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
