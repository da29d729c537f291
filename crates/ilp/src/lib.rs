//! Linear programming and 0-1 integer linear programming.
//!
//! The paper formulates the choice of basic blocks to move from flash to RAM
//! as an integer linear program and solves it with GLPK.  GLPK is not
//! available to this reproduction, so this crate provides the solving
//! machinery in-repo:
//!
//! * a [`Problem`] builder for linear models over continuous and binary
//!   variables ([`problem`]),
//! * a **bounded-variable simplex** solver for the LP relaxation over a
//!   dense tableau of the nonbasic columns only — variable bounds live in
//!   the ratio test, not in extra rows — with two dual-simplex warm
//!   restarts: [`SimplexSolver::resolve`] after bound fixings, and
//!   [`SimplexSolver::reenter`] after right-hand sides moved ([`simplex`]),
//! * a **branch-and-bound** 0-1 ILP solver built on top of it, with one
//!   fixed search policy (best-bound order with plunging, pseudo-cost
//!   branching, reduced-cost fixing, and a presolve that fixes every item
//!   overflowing a knapsack row alone), which warm-starts every child node
//!   with the dual simplex from the parent's optimal basis
//!   ([`branch_bound`], [`basis`]),
//! * an **exhaustive** enumerator for small instances, used both to validate
//!   branch-and-bound in tests and to generate the full trade-off space of
//!   Figure 6 ([`exhaustive`]), and
//! * a **greedy** improvement heuristic used as a baseline and as a fallback
//!   when the node budget is exhausted ([`greedy`]).
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x ≤ 2.5` with `y` binary:
//!
//! ```
//! use flashram_ilp::{Problem, Sense, LinearExpr, Cmp, BranchBound};
//!
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_continuous("x", 0.0, Some(2.5));
//! let y = p.add_binary("y");
//! p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 4.0);
//! p.set_objective(LinearExpr::from_terms([(x, 3.0), (y, 2.0)]));
//! let sol = BranchBound::new().solve(&p).expect("solvable");
//! assert!((sol.value(x) - 2.5).abs() < 1e-6);
//! assert!((sol.value(y) - 1.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod branch_bound;
pub mod exhaustive;
pub mod expr;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod greedy;
pub(crate) mod presolve;
pub mod problem;
pub mod simplex;

pub use basis::{Basis, LpState};
pub use branch_bound::{BranchBound, BranchBoundStats, ChainedSolve};
pub use exhaustive::ExhaustiveSolver;
pub use expr::{LinearExpr, Var};
#[cfg(feature = "fault-injection")]
pub use fault::{FaultPlan, FaultSite};
pub use greedy::GreedySolver;
pub use problem::{Cmp, Problem, Sense, Solution, SolveError, VarKind};
pub use simplex::{LpResult, SimplexOutcome, SimplexSolver};
