//! # qosc-netsim — deterministic ad-hoc wireless network simulator
//!
//! The paper evaluates coalition formation in "a local ad-hoc network
//! \[that\] forms spontaneously, as nodes move in range of each other" (§1).
//! Lacking 2005-era handhelds and radios, this crate substitutes a
//! discrete-event simulator that reproduces exactly what the protocol
//! observes: connectivity (unit-disc radio over 2-D positions), message
//! latency (base MAC latency + serialisation at a bitrate), optional
//! message loss (grey-zone edge model), topology churn (random-waypoint
//! mobility) and node failures.
//!
//! * [`SimTime`] / [`SimDuration`] — integer-µs simulated clock.
//! * [`Point`] / [`Area`] — placement geometry.
//! * [`Mobility`] / [`MobilityState`] — static & random-waypoint walks.
//! * [`RadioModel`] — range, bitrate, latency, loss.
//! * [`NeighbourIndex`] — spatial grid behind neighbour queries and
//!   broadcast fan-out (rebuilt on each mobility tick).
//! * [`Simulator`] + [`NetApp`] — the event engine and the sans-IO
//!   protocol hook; applications send via [`Ctx`]. Payloads ride the heap
//!   behind `Arc<M>`: a broadcast allocates once regardless of fan-out.
//!   [`Simulator::with_workers`] partitions the nodes into spatial shards
//!   that [`Simulator::run_shards`] runs on worker threads under a
//!   conservative-lookahead horizon protocol; [`Simulator::run_until`]
//!   runs every shard through one app on the calling thread.
//! * [`NetStats`] — message/latency counters for the T1 experiment.
//! * [`FaultPlan`] / [`FaultSampler`] — drop/duplicate/reorder fault
//!   injection, sharing one vocabulary with the `qosc-mc` model checker.
//! * [`PartitionPlan`] / [`PartitionTimeline`] — link-level partition
//!   and heal schedules (scripted or sampled), enforced identically at
//!   delivery time by every backend.
//!
//! Determinism: every node owns a private `ChaCha8Rng` stream seeded from
//! `(run seed, node id)` (placement and mobility draw from a separate
//! control stream), events are totally ordered by `(time, origin shard,
//! sequence)` with keys assigned at schedule time, and the clock is
//! integral — equal seeds and worker counts give bit-identical traces,
//! and runs at different worker counts process the same events with the
//! same outcomes (asserted by tests).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fault;
mod geometry;
mod grid;
mod mobility;
mod radio;
mod shard;
mod sim;
mod stats;
mod time;

pub use fault::{
    DeliveryFault, FaultPlan, FaultSampler, PartitionEvent, PartitionPlan, PartitionTimeline,
    SampledPartitions,
};
pub use geometry::{Area, Point};
pub use grid::NeighbourIndex;
pub use mobility::{Mobility, MobilityState};
pub use radio::RadioModel;
pub use sim::{Ctx, NetApp, NodeId, SimConfig, Simulator};
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};
