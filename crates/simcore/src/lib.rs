//! # spotcheck-simcore
//!
//! Deterministic discrete-event simulation core for the SpotCheck
//! reproduction (EuroSys 2015).
//!
//! Everything in this crate is domain-agnostic infrastructure:
//!
//! - [`time`] — integer-microsecond simulated time ([`time::SimTime`],
//!   [`time::SimDuration`]).
//! - [`queue`] — a deterministic (FIFO-on-ties) binary-heap event queue.
//! - [`engine`] — the [`engine::World`] trait and [`engine::Simulation`]
//!   driver.
//! - [`rng`] — seedable, forkable xoshiro256** RNG ([`rng::SimRng`]).
//! - [`dist`] — the continuous distributions the models need, including the
//!   [`dist::QuartileCalibrated`] family matched to the paper's Table 1.
//! - [`stats`] — sample summaries, ECDFs, Pearson correlation,
//!   time-weighted accumulators.
//! - [`bitset`] — page-tracking bit sets.
//! - [`fluid`] — flow-level max-min fair bandwidth sharing (the substrate
//!   for checkpoint/migration/restore transfer modeling).
//! - [`series`] — piecewise-constant time series (spot-price traces).
//! - [`metrics`] — thread-local simulation-event counters feeding the
//!   harness throughput numbers.
//! - [`parallel`] — deterministic fork-join parallel map on std threads
//!   (ordered collection, event-count fold-back).
//! - [`pool`] — persistent epoch worker pool with per-slot affinity
//!   ([`pool::with_pool`]), the low-overhead fork-join the sharded engine
//!   uses for its per-epoch windows.
//! - [`slab`] — dense entity storage: a generational slab and the
//!   id-indexed [`slab::IdMap`] whose iteration order matches `BTreeMap`.
//! - [`varint`] — LEB128 integers for the binary trace-library format.
//! - [`digest`] — incremental 64-bit state digests ([`digest::Digest64`]).
//! - [`shard`] — deterministic sharded simulation: per-shard event loops
//!   with Lamport-ordered cross-shard messages exchanged at conservative
//!   epoch boundaries ([`shard::ShardedSim`]).
//!
//! Determinism contract: given the same seeds and inputs, every simulation
//! built on this crate replays bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod digest;
pub mod dist;
pub mod engine;
pub mod fluid;
pub mod metrics;
pub mod parallel;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod series;
pub mod shard;
pub mod slab;
pub mod stats;
pub mod time;
pub mod varint;

pub use bitset::BitSet;
pub use engine::{Scheduler, Simulation, StopReason, World};
pub use queue::EventQueue;
pub use slab::{DenseKey, IdMap, Slab};
pub use rng::SimRng;
pub use series::StepSeries;
pub use time::{SimDuration, SimTime};
