//! Placement-as-a-service: a concurrent optimization server over
//! [`PlacementSession`](flashram_core::PlacementSession).
//!
//! The paper's tool answers one query — "place these blocks for this
//! budget".  This crate is the production-shaped front end around it: a
//! long-running multi-threaded [`PlacementServer`] with
//!
//! * a session [`cache`] keyed by `(program contents, device, scope)`
//!   whose entries each hold one session's model, memo table and queued
//!   jobs, and which evicts the least-reused idle session, so repeat
//!   queries share one model build and memo table;
//! * a bounded admission queue: a worker claims one entry and solves all
//!   of its queued queries as one batch, and independent sessions shard
//!   across the worker pool (the work-stealing point for the very uneven
//!   0.1 ms – 1.3 s per-point solve costs);
//! * per-request deadlines with backpressure and degradation to the greedy
//!   fallback, responses tagged [`Outcome::Exact`] /
//!   [`Outcome::Heuristic`] / [`Outcome::Timeout`];
//! * a deterministic design making every response a pure function of the
//!   request — see the [`server`] module docs for why concurrent results
//!   are provably bit-identical to sequential ones.
//!
//! The crate ships `serve`, a line-oriented REPL over the preregistered
//! BEEBS kernels.  The seeded workload driver lives in [`workload`]; the
//! `stress` binary of `flashram-bench` runs it and writes
//! `BENCH_serve.json`.
//!
//! Failures are contained, not propagated: worker panics become
//! [`ServeError::SolverPanicked`] responses with the touched cache entry
//! quarantined, poisoned locks are repaired or drained with zero leaked
//! tickets, and an optional watchdog respawns wedged workers.  The
//! `fault-injection` cargo feature compiles deterministic failpoints
//! through the whole solver stack, which the `--chaos` mode of `stress`
//! exercises — see the [`server`] module docs' *Fault containment*
//! section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod request;
pub mod server;
pub mod workload;

pub use cache::{CacheStats, SessionKey};
#[cfg(feature = "fault-injection")]
pub use flashram_ilp::fault::{FaultPlan, FaultSite};
pub use request::{Outcome, Query, Request, Response, ServeError};
pub use server::{PlacementServer, ServerConfig, ServerStats, Ticket};
pub use workload::{
    run_stress, ChaosConfig, ChaosReport, StressConfig, StressReport, WorkloadShape,
};
