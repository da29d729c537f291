//! The service request/response vocabulary.
//!
//! A [`Request`] names a registered program, a device from the database, a
//! placement scope and one [`Query`]; the server answers with a
//! [`Response`] whose [`Outcome`] says how the answer was produced.  The
//! types here are deliberately plain data — everything timing- or
//! concurrency-dependent lives in [`crate::server`].

use std::time::Duration;

use flashram_core::{PlacementScope, SweepPoint};
use flashram_ilp::SolveError;

/// What the client wants solved against one session's placement model.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// One `(R_spare, X_limit)` placement.
    Point {
        /// RAM budget in bytes.
        r_spare: u32,
        /// Maximum execution-time growth factor.
        x_limit: f64,
    },
    /// A budget sweep under one time bound, solved as a single chained
    /// [`solve_chained`](flashram_ilp::BranchBound::solve_chained) run in
    /// the order given.
    Sweep {
        /// The RAM budgets, solved in this order (chained).
        budgets: Vec<u32>,
        /// Maximum execution-time growth factor shared by every budget.
        x_limit: f64,
    },
    /// The exact Pareto staircase up to `max_budget` (see
    /// [`PlacementSession::enumerate_frontier`](flashram_core::PlacementSession::enumerate_frontier)).
    Frontier {
        /// Maximum execution-time growth factor.
        x_limit: f64,
        /// Largest RAM budget to descend from.
        max_budget: u32,
    },
}

impl Query {
    /// The memoization key: a hash-/equality-stable canonical form of the
    /// query (`f64` bounds are keyed by their bit pattern, which is exact
    /// because responses are pure functions of the request — see the module
    /// docs of [`crate::server`]).
    pub(crate) fn memo_key(&self) -> QueryKey {
        match self {
            Query::Point { r_spare, x_limit } => QueryKey::Point {
                r_spare: *r_spare,
                x_bits: x_limit.to_bits(),
            },
            Query::Sweep { budgets, x_limit } => QueryKey::Sweep {
                budgets: budgets.clone(),
                x_bits: x_limit.to_bits(),
            },
            Query::Frontier {
                x_limit,
                max_budget,
            } => QueryKey::Frontier {
                x_bits: x_limit.to_bits(),
                max_budget: *max_budget,
            },
        }
    }
}

/// Canonical, hashable form of a [`Query`] (see [`Query::memo_key`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum QueryKey {
    Point { r_spare: u32, x_bits: u64 },
    Sweep { budgets: Vec<u32>, x_bits: u64 },
    Frontier { x_bits: u64, max_budget: u32 },
}

/// One placement request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Name of a program previously registered with
    /// [`PlacementServer::register_program`](crate::PlacementServer::register_program).
    pub program: String,
    /// Device database key (e.g. `"stm32f100"`).
    pub device: String,
    /// Which blocks the placement may move.
    pub scope: PlacementScope,
    /// What to solve.
    pub query: Query,
    /// Wall-clock budget for this request, measured from admission.  When
    /// it expires mid-solve the server degrades to the best answer it can
    /// still produce (incumbent or greedy) and tags the response
    /// [`Outcome::Timeout`].  `None` falls back to the server's
    /// configured default deadline (which may also be `None`: no limit).
    pub deadline: Option<Duration>,
}

impl Request {
    /// A deadline-free point request (the common case in tests).
    pub fn point(program: &str, device: &str, r_spare: u32, x_limit: f64) -> Request {
        Request {
            program: program.to_string(),
            device: device.to_string(),
            scope: PlacementScope::default(),
            query: Query::Point { r_spare, x_limit },
            deadline: None,
        }
    }
}

/// How a [`Response`] was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every point was solved to proven ILP optimality.
    Exact,
    /// Some point is a best-effort answer for a **deterministic** reason
    /// (node-budget exhaustion → incumbent or greedy fallback).  Responses
    /// with this tag are still pure functions of the request and are
    /// memoized.
    Heuristic,
    /// The request's wall-clock deadline expired mid-solve and the answer
    /// was degraded (incumbent or greedy fallback).  Timing-dependent, so
    /// never memoized: re-submitting may produce a better answer.
    Timeout,
}

impl Outcome {
    /// The lowercase tag used in logs and `BENCH_serve.json`.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Exact => "exact",
            Outcome::Heuristic => "heuristic",
            Outcome::Timeout => "timeout",
        }
    }
}

/// A successfully answered request.
#[derive(Debug, Clone)]
pub struct Response {
    /// How the answer was produced (worst point wins: one timed-out point
    /// tags the whole response [`Outcome::Timeout`]).
    pub outcome: Outcome,
    /// The solved points: one for [`Query::Point`], one per budget for
    /// [`Query::Sweep`] (in request order), the ascending staircase for
    /// [`Query::Frontier`] (a degraded frontier collapses to its single
    /// best-effort point).
    pub points: Vec<SweepPoint>,
    /// Whether the session cache already held this `(program contents,
    /// device, scope)` model (no rebuild was needed).
    pub session_hit: bool,
    /// Whether the exact query was answered from the session's memo table
    /// without re-solving.
    pub memo_hit: bool,
    /// Time from admission to the start of solving, in milliseconds.
    /// It includes [`build_ms`](Response::build_ms).
    pub queue_ms: f64,
    /// Wall time of the session build the request's batch paid before
    /// solving, in milliseconds; 0 when the batch found the session already
    /// built.  This is not `!session_hit`: a request admitted after its
    /// cache entry was created, but before a worker first claimed it, rides
    /// in the batch that builds.
    pub build_ms: f64,
    /// Time spent solving (0 for memo hits), in milliseconds.
    pub solve_ms: f64,
    /// Whether a deterministic fault-injection failpoint (the
    /// `fault-injection` cargo feature) perturbed this answer — e.g. a
    /// spurious budget exhaustion degraded it to the greedy fallback.
    /// Always `false` in normal builds.  Injected answers are never
    /// memoized and the chaos harness excludes them from bit-identity
    /// checks against the fault-free oracle.
    pub injected: bool,
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request named a program no [`register_program`]
    /// (`PlacementServer::register_program`) call has registered.
    ///
    /// [`register_program`]: crate::PlacementServer::register_program
    UnknownProgram(String),
    /// The request named a device key absent from the device database.
    UnknownDevice(String),
    /// The admission queue is full and the request was submitted with
    /// [`try_submit`](crate::PlacementServer::try_submit) (the blocking
    /// [`submit`](crate::PlacementServer::submit) waits instead).
    Overloaded,
    /// The server is shutting down — or has drained after an unrecoverable
    /// internal failure — and accepts no new work.  Pending tickets are
    /// failed with this error rather than leaked.
    Shutdown,
    /// The program does not fit the device's memories even before
    /// optimization.
    DoesNotFit(String),
    /// The solver failed for a non-degradable reason (an infeasible time
    /// bound surfaces as `Solver(SolveError::Infeasible)`).
    Solver(SolveError),
    /// A panic escaped the solver while this request (or another request in
    /// the same coalesced batch) was being answered.  The worker contained
    /// the panic, quarantined the possibly half-mutated session, and kept
    /// serving; re-submitting the request is safe and — because responses
    /// are pure functions of the request — yields the exact answer.  Also
    /// used by the watchdog for the in-flight jobs of a worker presumed
    /// wedged.
    SolverPanicked {
        /// The panic payload (or the watchdog's diagnosis).
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownProgram(name) => write!(f, "unknown program {name:?}"),
            ServeError::UnknownDevice(key) => write!(f, "unknown device {key:?}"),
            ServeError::Overloaded => write!(f, "admission queue full"),
            ServeError::Shutdown => write!(f, "server is shutting down"),
            ServeError::DoesNotFit(why) => write!(f, "{why}"),
            ServeError::Solver(e) => write!(f, "placement solver failed: {e}"),
            ServeError::SolverPanicked { message } => {
                write!(f, "placement solver panicked (contained): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SolveError> for ServeError {
    fn from(e: SolveError) -> ServeError {
        ServeError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_keys_distinguish_query_shapes() {
        let point = Query::Point {
            r_spare: 64,
            x_limit: 1.5,
        };
        let sweep = Query::Sweep {
            budgets: vec![64],
            x_limit: 1.5,
        };
        assert_ne!(point.memo_key(), sweep.memo_key());
        assert_eq!(point.memo_key(), point.memo_key());
    }

    #[test]
    fn memo_keys_are_bit_exact_on_the_time_bound() {
        let a = Query::Point {
            r_spare: 64,
            x_limit: 1.5,
        };
        let b = Query::Point {
            r_spare: 64,
            x_limit: 1.5 + f64::EPSILON,
        };
        assert_ne!(a.memo_key(), b.memo_key());
    }

    #[test]
    fn outcome_tags_are_the_bench_vocabulary() {
        assert_eq!(Outcome::Exact.tag(), "exact");
        assert_eq!(Outcome::Heuristic.tag(), "heuristic");
        assert_eq!(Outcome::Timeout.tag(), "timeout");
    }
}
