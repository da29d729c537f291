//! The frontier sweep engine: incremental, warm-started enumeration of the
//! flash/RAM energy trade-off curve.
//!
//! The paper's headline artifact is a *sweep*: Figure 6 relaxes the RAM
//! budget `R_spare` (and separately the time bound `X_limit`) and plots the
//! solver's choice at every grid point.  Solving each point cold wastes the
//! structure the sweep has by construction — adjacent points share every
//! row, column and objective coefficient of the placement ILP and differ
//! only in the right-hand sides of the two budget rows.
//!
//! [`PlacementSession`] exploits that structure end to end:
//!
//! * the model parameters are extracted and the ILP is built **once** per
//!   `(program, board, scope)`, then retargeted in place with
//!   [`PlacementModel::set_budgets`] for every sweep point;
//! * each point's root relaxation is **warm-started** from the previous
//!   point's solved basis via the dual simplex
//!   ([`BranchBound::solve_chained`], which re-enters the root with
//!   [`flashram_ilp::SimplexSolver::reenter`]) — the same 3–13× per-node
//!   pivot saving branch-and-bound already gets from parent-to-child warm
//!   starts, applied *across* sweep points, at every point after the
//!   first.  The solver's fixed search policy (best-bound node selection,
//!   reduced-cost fixing, presolve) composes with the chain: presolve
//!   fixings are derived per point against the current budgets and applied
//!   as bounds, never as rows, so the chained root state the session
//!   carries always matches the session model's row layout, and the seeded
//!   incumbent prunes best-bound queue entries before their LPs are ever
//!   solved.  A previous optimum that no longer fits (on
//!   a descent, always) is repaired into a fitting seed first;
//! * [`PlacementSession::enumerate_frontier`] goes beyond grid sweeps and
//!   computes the **exact Pareto staircase**: every distinct optimal
//!   placement between a zero budget and `R_spare`, each annotated with the
//!   minimum RAM budget at which it becomes optimal.
//!
//! The enumeration needs no a-priori grid.  If the optimum at budget `B`
//! charges `u ≤ B` bytes to the Eq. 7 row, that same placement stays both
//! feasible and optimal for every budget in `[u, B]` (optimal energy is
//! non-increasing in the budget), so the next distinct frontier point must
//! lie below `u` — the search descends to `u − 1` and re-solves, touching
//! each staircase step exactly once.  Solver tie-breaks can surface two
//! placements with equal energy at different RAM budgets; the dedup pass
//! keeps the cheaper-RAM one (the other is dominated), which makes the
//! returned frontier *strictly* monotone: energy strictly decreasing, RAM
//! strictly increasing.
//!
//! Frontier points are model predictions; [`Frontier::validate`] fans the
//! actual placements over a [`BatchRunner`] worker pool and simulates each
//! one, returning measured energies alongside the predictions.

use std::collections::BTreeSet;

use flashram_device::DeviceDescriptor;
use flashram_ilp::{BranchBound, BranchBoundStats, GreedySolver, LpState, Solution, SolveError};
use flashram_ir::{BlockRef, MachineProgram};
use flashram_mcu::{BatchRunner, Board, RunError, RunResult};

use crate::model::{evaluate_placement, ModelConfig, PlacementEstimate, PlacementModel};
use crate::optimizer::{OptimizeError, OptimizerConfig};
use crate::params::{extract_params_for_timing, PlacementScope, ProgramParams};
use crate::transform::apply_placement_scoped;

/// Relative tolerance under which two sweep objectives count as a tie (the
/// same scale the branch-and-bound pruning margin uses, so a "distinct"
/// frontier step is one the solver itself could have told apart).
const OBJECTIVE_TIE_TOL: f64 = 1e-6;

/// One solved point of a constraint sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The RAM budget the point was solved under.
    pub r_spare: u32,
    /// The execution-time bound the point was solved under.
    pub x_limit: f64,
    /// The blocks the optimal placement moves to RAM.
    pub selected: Vec<BlockRef>,
    /// Model estimate of the placement (energy, cycles, RAM bytes).
    pub predicted: PlacementEstimate,
    /// The ILP objective value (model energy units).
    pub objective: f64,
    /// RAM the Eq. 7 budget row charges the solution for — block bytes plus
    /// instrumentation bytes of every instrumented block.  This is the
    /// smallest budget at which this placement is feasible, i.e. the
    /// staircase breakpoint the frontier enumeration descends to.
    pub model_ram_used: u32,
    /// Branch-and-bound statistics of this point's solve.
    pub stats: BranchBoundStats,
    /// Whether the root relaxation was chained (dual-simplex warm start from
    /// the previous point) rather than solved cold.
    pub chained: bool,
    /// Whether the solve ran to proven optimality (no node-budget
    /// exhaustion, no LP-iteration-limited subtree).  Proven means optimal
    /// within branch-and-bound's relative pruning margin
    /// ([`BranchBound::tolerance`](flashram_ilp::BranchBound::tolerance),
    /// 1e-6 × |incumbent|): the objective can sit up to one margin above
    /// the true optimum.
    pub proven: bool,
}

/// Cumulative solver effort across a session's sweep points, for the
/// warm-vs-cold accounting `solver_perf` records in `BENCH_solver.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Sweep points solved (successfully) so far.
    pub points_solved: usize,
    /// Points whose root relaxation was warm-started from the previous
    /// point's basis.
    pub chained_roots: usize,
    /// Branch-and-bound nodes explored across all points.
    pub nodes_explored: usize,
    /// Simplex pivots across all points (root re-entries and B&B nodes).
    pub lp_pivots: usize,
    /// Pivots spent on the points' root relaxations alone — the number the
    /// cross-point chaining shrinks (the per-node warm-start win inside
    /// each tree is already counted by `BranchBoundStats`).
    pub root_pivots: usize,
    /// Bytes of warm-start state copied while branching, across all points
    /// ([`BranchBoundStats::state_bytes_copied`]).
    pub state_bytes_copied: usize,
}

/// How a degraded point solve ([`PlacementSession::solve_point_degraded`])
/// arrived at its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointResolution {
    /// The ILP ran to proven optimality.
    Exact,
    /// The ILP returned its best incumbent under an exhausted node budget,
    /// an expired wall-clock limit, or LP-iteration-limited subtrees — a
    /// feasible placement, not a proven optimum.
    Incumbent,
    /// The ILP found no integer solution before its budget ran out and the
    /// greedy heuristic supplied the placement instead (the documented
    /// degradation path of [`crate::RamOptimizer`], shared here so the
    /// service layer degrades identically).
    FallbackGreedy,
}

/// A sweep point solved with degradation: the placement plus how it was
/// obtained.  [`SweepPoint::stats`] always reports the true ILP effort —
/// for [`PointResolution::FallbackGreedy`] they are the stats of the
/// *failed* ILP attempt (its `wall_ms`, `seeded` and `root_pivots` cover
/// the work actually done before the fallback), not zeros.
#[derive(Debug, Clone)]
pub struct DegradedPoint {
    /// The solved (or heuristically chosen) placement.
    pub point: SweepPoint,
    /// How the placement was obtained.
    pub resolution: PointResolution,
}

/// A placement-optimization session: the model parameters and the ILP are
/// built **once**, then every sweep point re-solves the same problem with
/// moved budget right-hand sides, chaining warm-started roots.
///
/// Construct with [`PlacementSession::new`] (from a program and board) or
/// [`PlacementSession::from_params`] (from already-extracted parameters);
/// then call [`solve_point`](PlacementSession::solve_point),
/// [`sweep_ram`](PlacementSession::sweep_ram),
/// [`sweep_time`](PlacementSession::sweep_time) or
/// [`enumerate_frontier`](PlacementSession::enumerate_frontier).
#[derive(Debug, Clone)]
pub struct PlacementSession {
    params: ProgramParams,
    model: PlacementModel,
    /// The branch-and-bound solver configuration used for every point.
    /// Mutable so callers can cap `max_nodes` or disable warm starts (the
    /// latter also disables root chaining, for cold-baseline measurements).
    pub solver: BranchBound,
    /// The reference RAM budget: the board's spare RAM for program-backed
    /// sessions, the config's `r_spare` for parameter-backed ones.
    spare_ram: u32,
    root: Option<LpState>,
    last_solution: Option<Solution>,
    stats: SweepStats,
}

impl PlacementSession {
    /// Open a session for `program` on `board`: extract the model
    /// parameters and build the placement ILP once, honoring the
    /// optimizer configuration's scope, frequency source, budgets and node
    /// cap.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::DoesNotFit`] when the program already exceeds the
    /// board's memories.
    pub fn new(
        program: &MachineProgram,
        board: &Board,
        config: &OptimizerConfig,
    ) -> Result<PlacementSession, OptimizeError> {
        let spare = match config.r_spare {
            Some(s) => s,
            None => board
                .spare_ram(program)
                .map_err(|e| OptimizeError::DoesNotFit(e.to_string()))?,
        };
        let params =
            extract_params_for_timing(program, &config.frequency, config.scope, &board.timing);
        let (e_flash, e_ram) = board.power.model_coefficients();
        let model_config = ModelConfig {
            x_limit: config.x_limit,
            r_spare: spare,
            e_flash,
            e_ram,
        };
        let mut session = PlacementSession::from_params(params, &model_config);
        if let Some(n) = config.max_ilp_nodes {
            session.solver.max_nodes = n;
        }
        Ok(session)
    }

    /// Open a session from already-extracted parameters and a model
    /// configuration (`config.r_spare` becomes the reference budget).
    pub fn from_params(params: ProgramParams, config: &ModelConfig) -> PlacementSession {
        let model = PlacementModel::build(&params, config);
        PlacementSession {
            params,
            model,
            solver: BranchBound::new(),
            spare_ram: config.r_spare,
            root: None,
            last_solution: None,
            stats: SweepStats::default(),
        }
    }

    /// The extracted per-block model parameters.
    pub fn params(&self) -> &ProgramParams {
        &self.params
    }

    /// Consume the session and hand back the parameters it was built from
    /// (for callers that only needed a one-point solve and want to keep the
    /// params without cloning them).
    pub fn into_params(self) -> ProgramParams {
        self.params
    }

    /// The placement model (rebuilt never; retargeted per sweep point).
    pub fn model(&self) -> &PlacementModel {
        &self.model
    }

    /// The session's reference RAM budget (see [`PlacementSession::new`]).
    pub fn spare_ram(&self) -> u32 {
        self.spare_ram
    }

    /// Cumulative solver effort over this session's solved points.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// The model estimate of the all-in-flash baseline.
    pub fn baseline(&self) -> PlacementEstimate {
        evaluate_placement(&self.params, &[], &self.model.config)
    }

    /// Forget the chained root and seeded incumbent so the next point
    /// solves cold (used by the cold-baseline measurements in
    /// `solver_perf`).
    pub fn reset_chain(&mut self) {
        self.root = None;
        self.last_solution = None;
    }

    /// Solve one `(R_spare, X_limit)` point, chaining the root relaxation
    /// from the previous solved point when possible.  The previous point's
    /// optimum seeds the incumbent: as it is when it still fits the new
    /// budgets, otherwise repaired by dropping RAM blocks until it fits
    /// (see [`PlacementModel::assignment`]).  The seed only bounds the
    /// search; [`PlacementSession::reset_chain`] makes the next point
    /// independent of the ones before.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] marks a genuinely infeasible point (e.g.
    /// `x_limit < 1`); other variants are solver failures.  The chained
    /// root state survives a failed point, so the sweep continues from the
    /// last good basis.
    pub fn solve_point(&mut self, r_spare: u32, x_limit: f64) -> Result<SweepPoint, SolveError> {
        self.solve_point_raw(r_spare, x_limit).map_err(|(e, _)| e)
    }

    /// [`PlacementSession::solve_point`], but a failed solve also reports
    /// the branch-and-bound effort spent before the failure.
    fn solve_point_raw(
        &mut self,
        r_spare: u32,
        x_limit: f64,
    ) -> Result<SweepPoint, (SolveError, Box<BranchBoundStats>)> {
        #[cfg(feature = "fault-injection")]
        if flashram_ilp::fault::should_fire(flashram_ilp::fault::FaultSite::CorePointError) {
            return Err((
                SolveError::InvalidModel(format!(
                    "{} point resolve failed",
                    flashram_ilp::fault::INJECTED_MARKER
                )),
                Box::new(BranchBoundStats {
                    injected: true,
                    ..BranchBoundStats::default()
                }),
            ));
        }
        self.model.set_budgets(r_spare, x_limit);
        // The previous point's optimum seeds the incumbent: as it is when it
        // still fits (always, when a budget relaxes), repaired when it does
        // not (always, on a staircase descent).  The search then starts with
        // a proven bound and only explores what the moved right-hand sides
        // improved.
        let repaired = self
            .last_solution
            .as_ref()
            .filter(|last| {
                !self
                    .model
                    .problem
                    .is_feasible(&last.values, self.solver.tolerance)
            })
            .map(|last| self.repaired_seed(last));
        let run = self.solver.solve_chained_stats(
            &self.model.problem,
            self.root.as_ref(),
            repaired.as_ref().or(self.last_solution.as_ref()),
        )?;
        let proven = !run.stats.budget_exhausted
            && run.stats.lp_iteration_limited == 0
            && !run.stats.time_limit_hit;
        let point = self.record_point(&run.solution, run.stats, run.chained, proven);
        if run.root_state.is_some() {
            self.root = run.root_state;
        }
        self.last_solution = Some(run.solution);
        Ok(point)
    }

    /// The sweep point of `solution` under the model's current budgets, with
    /// the solve's effort folded into the session's [`SweepStats`].
    fn record_point(
        &mut self,
        solution: &Solution,
        stats: BranchBoundStats,
        chained: bool,
        proven: bool,
    ) -> SweepPoint {
        let ModelConfig {
            r_spare, x_limit, ..
        } = self.model.config;
        let selected = self.model.selected_blocks(solution);
        let predicted = evaluate_placement(&self.params, &selected, &self.model.config);
        // The budget row's coefficients are integers, so the rounded LHS is
        // exact; clamp tolerance drift into the solved budget.
        let model_ram_used = (self.model.ram_used(solution).round().max(0.0) as u32).min(r_spare);
        self.stats.points_solved += 1;
        if chained {
            self.stats.chained_roots += 1;
        }
        self.stats.nodes_explored += stats.nodes_explored;
        self.stats.lp_pivots += stats.lp_pivots;
        self.stats.root_pivots += stats.root_pivots;
        self.stats.state_bytes_copied += stats.state_bytes_copied;
        SweepPoint {
            r_spare,
            x_limit,
            selected,
            predicted,
            objective: solution.objective,
            model_ram_used,
            stats,
            chained,
            proven,
        }
    }

    /// Repair a solution that no longer fits the current budgets by
    /// dropping blocks from its RAM set, one at a time, until the
    /// assignment fits or the set is empty.  A drop that makes the
    /// assignment fit on its own is preferred, the cheapest such drop
    /// first; otherwise the block that costs the least objective per byte
    /// of the Eq. 7 row it frees goes.  The result may still be infeasible
    /// (an `X_limit` below 1 rejects even the empty set);
    /// [`BranchBound::solve_chained`] ignores such a seed.
    fn repaired_seed(&self, last: &Solution) -> Solution {
        let model = &self.model;
        let fits = |s: &Solution| model.problem.is_feasible(&s.values, self.solver.tolerance);
        let mut set: BTreeSet<BlockRef> = model.selected_blocks(last).into_iter().collect();
        let mut current = model.assignment(&self.params, &set);
        while !set.is_empty() && !fits(&current) {
            let ram = model.ram_used(&current);
            // (does not fit, cost): ordered so the least is the best drop.
            let mut best: Option<((bool, f64), BlockRef, Solution)> = None;
            for &block in &set {
                let mut fewer = set.clone();
                fewer.remove(&block);
                let candidate = model.assignment(&self.params, &fewer);
                let increase = candidate.objective - current.objective;
                let freed = ram - model.ram_used(&candidate);
                let key = if fits(&candidate) {
                    (false, increase)
                } else if freed > 0.0 {
                    (true, increase / freed)
                } else {
                    (true, f64::INFINITY)
                };
                if best.as_ref().is_none_or(|(least, ..)| key < *least) {
                    best = Some((key, block, candidate));
                }
            }
            let (_, block, candidate) = best.expect("the set is not empty");
            set.remove(&block);
            current = candidate;
        }
        current
    }

    /// Solve one point with the documented degradation path: when the ILP
    /// finds no integer solution within its budgets
    /// ([`SolveError::BudgetExhausted`] — node cap or wall-clock limit),
    /// fall back to the greedy heuristic on the same model instead of
    /// failing.  The returned point's [`SweepPoint::stats`] stay truthful
    /// in every case: for the fallback they are the failed ILP attempt's
    /// stats (wall time, seeding, root pivots actually spent), and
    /// [`DegradedPoint::resolution`] says how the answer was produced.
    ///
    /// The warm-start chain is untouched by a degraded point (the greedy
    /// solution would poison the seeded-incumbent invariant), so a later
    /// exact point continues from the last good basis.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] and other non-budget failures propagate;
    /// a greedy failure after budget exhaustion also propagates.
    pub fn solve_point_degraded(
        &mut self,
        r_spare: u32,
        x_limit: f64,
    ) -> Result<DegradedPoint, SolveError> {
        match self.solve_point_raw(r_spare, x_limit) {
            Ok(point) => {
                let resolution = if point.proven {
                    PointResolution::Exact
                } else {
                    PointResolution::Incumbent
                };
                Ok(DegradedPoint { point, resolution })
            }
            Err((SolveError::BudgetExhausted(_), attempt)) => {
                // `solve_point_raw` already retargeted the budget rows, so
                // the greedy heuristic sees exactly the budgets the ILP
                // gave up on.
                let solution = GreedySolver::new().solve(&self.model.problem)?;
                Ok(DegradedPoint {
                    point: self.record_point(&solution, *attempt, false, false),
                    resolution: PointResolution::FallbackGreedy,
                })
            }
            Err((e, _)) => Err(e),
        }
    }

    /// Solve every budget of `budgets` (ascending or descending — chaining
    /// works either way) under a fixed time bound.  A per-point `Err` marks
    /// that point infeasible or failed without aborting the sweep.
    pub fn sweep_ram(
        &mut self,
        budgets: &[u32],
        x_limit: f64,
    ) -> Vec<(u32, Result<SweepPoint, SolveError>)> {
        budgets
            .iter()
            .map(|&b| (b, self.solve_point(b, x_limit)))
            .collect()
    }

    /// Solve every time bound of `x_limits` under a fixed RAM budget.
    pub fn sweep_time(
        &mut self,
        x_limits: &[f64],
        r_spare: u32,
    ) -> Vec<(f64, Result<SweepPoint, SolveError>)> {
        x_limits
            .iter()
            .map(|&x| (x, self.solve_point(r_spare, x)))
            .collect()
    }

    /// Enumerate the **exact Pareto staircase** of the energy/RAM trade-off
    /// under a fixed time bound: every distinct optimal placement for
    /// budgets in `[0, max_budget]`, ascending by RAM use, each carrying the
    /// minimum budget at which it becomes optimal
    /// ([`SweepPoint::model_ram_used`]).
    ///
    /// The descent solves one ILP per staircase step, not one per grid
    /// point — see the module docs for why that is exact.  Each step is
    /// warm-started from the previous step's root and seeded with the
    /// previous step's optimum repaired to fit one byte below its RAM use,
    /// so the search starts with an incumbent that reduced-cost fixing
    /// works from.
    ///
    /// # Errors
    ///
    /// Any point failing to solve aborts the enumeration with that error
    /// (`x_limit < 1` surfaces as [`SolveError::Infeasible`]).
    pub fn enumerate_frontier(
        &mut self,
        x_limit: f64,
        max_budget: u32,
    ) -> Result<Frontier, SolveError> {
        let mut raw: Vec<SweepPoint> = Vec::new();
        let mut exact = true;
        let mut budget = max_budget;
        loop {
            let point = self.solve_point(budget, x_limit)?;
            exact &= point.proven;
            let used = point.model_ram_used;
            raw.push(point);
            if used == 0 {
                break;
            }
            // Every budget in [used, budget] shares this optimum; the next
            // distinct step lies strictly below the breakpoint.
            budget = used - 1;
        }
        // Ascending by RAM use; drop dominated tie placements (equal energy
        // at a higher budget — a tie-break artifact, not a frontier step).
        raw.reverse();
        let mut points: Vec<SweepPoint> = Vec::new();
        let mut dropped_dominated = 0usize;
        for point in raw {
            if let Some(kept) = points.last() {
                let margin = OBJECTIVE_TIE_TOL * kept.objective.abs().max(1.0);
                if point.objective >= kept.objective - margin {
                    dropped_dominated += 1;
                    continue;
                }
            }
            points.push(point);
        }
        Ok(Frontier {
            points,
            baseline: self.baseline(),
            x_limit,
            exact,
            dropped_dominated,
        })
    }
}

/// The exact energy/RAM Pareto staircase of one placement model under a
/// fixed time bound (see [`PlacementSession::enumerate_frontier`]).
#[derive(Debug, Clone)]
pub struct Frontier {
    /// The staircase steps, ascending by [`SweepPoint::model_ram_used`]
    /// with strictly decreasing [`SweepPoint::objective`].  The first step
    /// is the best placement needing no extra RAM (usually the empty one).
    pub points: Vec<SweepPoint>,
    /// The all-in-flash baseline estimate.
    pub baseline: PlacementEstimate,
    /// The time bound the frontier was enumerated under.
    pub x_limit: f64,
    /// Whether every step was solved to proven optimality; `false` means a
    /// node budget or LP iteration limit truncated some solve and the
    /// staircase may be an over-approximation.
    ///
    /// Exact is relative to branch-and-bound's pruning margin (1e-6 ×
    /// |incumbent|, see [`SweepPoint::proven`]): each step is optimal only
    /// within that margin, and steps whose objectives lie closer together
    /// than the margin can merge into one.
    pub exact: bool,
    /// Tie placements dropped because an equal-energy step already existed
    /// at a smaller RAM budget (solver tie-break artifacts).
    pub dropped_dominated: usize,
}

/// One frontier step validated by simulation.
#[derive(Debug, Clone)]
pub struct ValidatedPoint {
    /// The staircase breakpoint (minimum budget) of the step.
    pub min_ram_bytes: u32,
    /// The model's energy prediction (objective units).
    pub predicted_energy: f64,
    /// The simulation outcome of the transformed program.
    pub measured: Result<RunResult, RunError>,
}

impl Frontier {
    /// Validate the frontier by simulation: apply each step's placement to
    /// `program`, fan the transformed programs over a [`BatchRunner`]
    /// worker pool on clones of `board`, and pair each prediction with the
    /// measured run.
    ///
    /// `scope` must match the scope the session's parameters were extracted
    /// with, so the transform relocates exactly the selected blocks.
    pub fn validate(
        &self,
        board: &Board,
        program: &MachineProgram,
        scope: PlacementScope,
    ) -> Vec<ValidatedPoint> {
        let runner = BatchRunner::new(board.clone());
        runner.map(&self.points, |board, point| {
            let transformed = apply_placement_scoped(program, &point.selected, scope);
            ValidatedPoint {
                min_ram_bytes: point.model_ram_used,
                predicted_energy: point.objective,
                measured: board.run(&transformed),
            }
        })
    }
}

/// One device's enumerated frontier within a cross-device sweep
/// (see [`DeviceMatrix::enumerate`]).
#[derive(Debug, Clone)]
pub struct DeviceFrontier {
    /// The device-database key the frontier was enumerated for.
    pub device: &'static str,
    /// The part's human-readable name.
    pub name: &'static str,
    /// Seconds per core cycle at the device's default operating point —
    /// the factor that converts model objectives (mW·cycles) into
    /// millijoules comparable across devices.
    pub cycle_time_s: f64,
    /// The spare RAM the program leaves on this device, in bytes (the
    /// budget ceiling of the enumeration).
    pub spare_ram: u32,
    /// The device's exact Pareto staircase, in model units.
    pub frontier: Frontier,
    /// Solver effort spent enumerating this device's staircase.
    pub stats: SweepStats,
}

impl DeviceFrontier {
    /// Predicted energy of one staircase step in millijoules: the ILP
    /// objective is `Σ mW·cycles`, so scaling by the cycle period yields
    /// `mW·s = mJ` — a unit that is comparable across clock frequencies.
    pub fn energy_mj(&self, point: &SweepPoint) -> f64 {
        point.objective * self.cycle_time_s
    }

    /// The device's energy-optimal step (the last staircase step).
    pub fn best(&self) -> Option<&SweepPoint> {
        self.frontier.points.last()
    }
}

/// One step of the device-dominant cross-device Pareto set: the device to
/// pick at a given RAM budget, and what it costs.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePoint {
    /// The device-database key of the winning device.
    pub device: &'static str,
    /// Minimum RAM budget (bytes) at which this step becomes available.
    pub min_ram_bytes: u32,
    /// Predicted energy in millijoules (cross-device comparable).
    pub energy_mj: f64,
    /// The step's raw model objective on its own device (mW·cycles).
    pub objective: f64,
}

/// The outcome of a cross-device frontier enumeration: every device's own
/// staircase plus the merged device-dominant Pareto set.
#[derive(Debug, Clone)]
pub struct DeviceMatrix {
    /// Per-device frontiers, in the order the devices were given.
    pub frontiers: Vec<DeviceFrontier>,
    /// Devices that could not be enumerated (program does not fit, solver
    /// failure), with the reason.
    pub skipped: Vec<(&'static str, OptimizeError)>,
    /// The merged Pareto set over `(RAM budget, energy in mJ)` pairs from
    /// every device: ascending in RAM, strictly decreasing in energy, each
    /// step tagged with the device that provides it.
    pub pareto: Vec<DevicePoint>,
}

impl DeviceMatrix {
    /// Enumerate the exact energy/RAM frontier of `program` on every device
    /// in `devices`, fanning the per-device enumerations over `runner`'s
    /// worker pool.  Each device gets its own [`Board`], model parameters
    /// and ILP (per-device wait states, contention, energy tables and
    /// memory sizes all flow in); `config` supplies the shared scope,
    /// frequency source, time bound and node cap.  The runner's own board
    /// is ignored — it only provides the threads.
    pub fn enumerate(
        program: &MachineProgram,
        devices: &[&'static DeviceDescriptor],
        config: &OptimizerConfig,
        runner: &BatchRunner,
    ) -> DeviceMatrix {
        let results = runner.map(devices, |_, desc| {
            let board = Board::new(desc);
            let mut session = PlacementSession::new(program, &board, config)?;
            let spare = session.spare_ram();
            let frontier = session
                .enumerate_frontier(config.x_limit, spare)
                .map_err(OptimizeError::Solver)?;
            Ok(DeviceFrontier {
                device: desc.key,
                name: desc.name,
                cycle_time_s: board.timing.cycle_time_s(),
                spare_ram: spare,
                frontier,
                stats: session.stats(),
            })
        });
        let mut frontiers = Vec::new();
        let mut skipped = Vec::new();
        for (desc, result) in devices.iter().zip(results) {
            match result {
                Ok(f) => frontiers.push(f),
                Err(e) => skipped.push((desc.key, e)),
            }
        }
        let pareto = device_dominant_pareto(&frontiers);
        DeviceMatrix {
            frontiers,
            skipped,
            pareto,
        }
    }
}

/// Merge per-device staircases into the device-dominant Pareto set: among
/// all `(RAM budget, energy)` steps of all devices, keep those not
/// dominated by any step with both smaller-or-equal RAM and lower energy.
pub fn device_dominant_pareto(frontiers: &[DeviceFrontier]) -> Vec<DevicePoint> {
    let mut all: Vec<DevicePoint> = frontiers
        .iter()
        .flat_map(|df| {
            df.frontier.points.iter().map(|p| DevicePoint {
                device: df.device,
                min_ram_bytes: p.model_ram_used,
                energy_mj: df.energy_mj(p),
                objective: p.objective,
            })
        })
        .collect();
    // Ascending RAM, then ascending energy; a later point survives only if
    // it strictly improves on the best energy seen at smaller budgets.
    all.sort_by(|a, b| {
        a.min_ram_bytes
            .cmp(&b.min_ram_bytes)
            .then(a.energy_mj.total_cmp(&b.energy_mj))
            .then(a.device.cmp(b.device))
    });
    let mut pareto: Vec<DevicePoint> = Vec::new();
    for p in all {
        match pareto.last() {
            Some(kept) => {
                let margin = OBJECTIVE_TIE_TOL * kept.energy_mj.abs().max(1.0);
                if p.energy_mj < kept.energy_mj - margin {
                    pareto.push(p);
                }
            }
            None => pareto.push(p),
        }
    }
    pareto
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FrequencySource;
    use flashram_minicc::{compile_program, OptLevel, SourceUnit};

    const SRC: &str = "
        int work(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 3 == 0) { s += i * 2; } else { s -= i; }
            }
            return s;
        }
        int main() { return work(50); }
    ";

    fn session() -> PlacementSession {
        let prog = compile_program(&[SourceUnit::application(SRC)], OptLevel::O1).unwrap();
        let params = crate::params::extract_params(&prog, &FrequencySource::default());
        PlacementSession::from_params(params, &ModelConfig::default())
    }

    #[test]
    fn chained_sweep_matches_cold_solves() {
        let mut warm = session();
        let budgets = [2048u32, 512, 128, 64, 16, 0];
        let warm_points = warm.sweep_ram(&budgets, 1.5);
        let mut cold = session();
        cold.solver.warm_start = false;
        for ((b, w), (_, c)) in warm_points.iter().zip(cold.sweep_ram(&budgets, 1.5)) {
            let (w, c) = (w.as_ref().expect("feasible"), c.expect("feasible"));
            assert!(
                (w.objective - c.objective).abs() <= 1e-6 * c.objective.abs().max(1.0),
                "budget {b}: warm {} vs cold {}",
                w.objective,
                c.objective
            );
        }
        assert_eq!(warm.stats().points_solved, budgets.len());
        assert_eq!(warm.stats().chained_roots, budgets.len() - 1);
        assert_eq!(cold.stats().chained_roots, 0);
    }

    #[test]
    fn frontier_is_a_strict_staircase() {
        let mut s = session();
        let spare = 4096u32;
        let frontier = s.enumerate_frontier(1.5, spare).expect("enumerable");
        assert!(frontier.exact);
        assert!(!frontier.points.is_empty());
        assert_eq!(
            frontier.points[0].model_ram_used, 0,
            "the staircase starts at the zero-budget optimum"
        );
        for w in frontier.points.windows(2) {
            assert!(
                w[0].model_ram_used < w[1].model_ram_used,
                "RAM must strictly increase"
            );
            assert!(
                w[0].objective > w[1].objective,
                "energy must strictly decrease"
            );
        }
        // Every step matches a cold solve at exactly its breakpoint budget.
        for point in &frontier.points {
            let mut cold = session();
            cold.solver.warm_start = false;
            let c = cold
                .solve_point(point.model_ram_used, 1.5)
                .expect("feasible");
            assert!(
                (point.objective - c.objective).abs() <= 1e-6 * c.objective.abs().max(1.0),
                "breakpoint {}: frontier {} vs cold {}",
                point.model_ram_used,
                point.objective,
                c.objective
            );
        }
    }

    #[test]
    fn frontier_covers_the_grid_sweep() {
        // The staircase must reproduce every grid point's optimum: the
        // grid solve at budget B equals the highest step with breakpoint ≤ B.
        let mut s = session();
        let frontier = s.enumerate_frontier(1.5, 2048).expect("enumerable");
        let mut grid = session();
        for (b, point) in grid.sweep_ram(&[0, 16, 32, 64, 96, 200, 512, 2048], 1.5) {
            let point = point.expect("feasible");
            let step = frontier
                .points
                .iter()
                .rev()
                .find(|p| p.model_ram_used <= b)
                .expect("staircase starts at zero");
            assert!(
                (point.objective - step.objective).abs() <= 1e-6 * step.objective.abs().max(1.0),
                "budget {b}: grid {} vs staircase {}",
                point.objective,
                step.objective
            );
        }
    }

    #[test]
    fn infeasible_time_bound_is_reported_not_fatal() {
        let mut s = session();
        let out = s.sweep_time(&[0.5, 1.0, 1.5], 2048);
        assert!(matches!(out[0].1, Err(SolveError::Infeasible)));
        assert!(out[1].1.is_ok());
        assert!(out[2].1.is_ok());
        // The chain survived the infeasible point.
        let relaxed = out[2].1.as_ref().unwrap();
        assert!(relaxed.chained);
    }

    #[test]
    fn degraded_point_is_exact_when_the_budget_suffices() {
        let mut degraded = session();
        let solved = degraded.solve_point_degraded(256, 1.5).expect("feasible");
        assert_eq!(solved.resolution, PointResolution::Exact);
        assert!(solved.point.proven);
        let mut plain = session();
        let reference = plain.solve_point(256, 1.5).expect("feasible");
        assert_eq!(solved.point.objective, reference.objective);
        assert_eq!(solved.point.selected, reference.selected);
    }

    #[test]
    fn degraded_point_falls_back_to_greedy_with_truthful_stats() {
        let mut s = session();
        s.solver.max_nodes = 0;
        let solved = s.solve_point_degraded(256, 1.5).expect("greedy fallback");
        assert_eq!(solved.resolution, PointResolution::FallbackGreedy);
        assert!(!solved.point.proven);
        assert!(!solved.point.chained);
        // The stats describe the failed ILP attempt, not the greedy pass.
        assert!(solved.point.stats.budget_exhausted);
        assert_eq!(solved.point.stats.nodes_explored, 0);
        assert!(solved.point.model_ram_used <= 256);
        // The chain is untouched by a degraded point: restoring the node
        // budget yields an exact, unchained (cold-root) solve.
        s.solver.max_nodes = usize::MAX;
        let next = s.solve_point_degraded(256, 1.5).expect("feasible");
        assert_eq!(next.resolution, PointResolution::Exact);
        assert!(!next.point.chained);
    }

    #[test]
    fn device_matrix_spans_the_database() {
        let prog = compile_program(&[SourceUnit::application(SRC)], OptLevel::O1).unwrap();
        let runner = BatchRunner::new(Board::stm32vldiscovery());
        let config = OptimizerConfig::default();
        let devices = flashram_device::DEVICE_DB.all();
        let matrix = DeviceMatrix::enumerate(&prog, devices, &config, &runner);
        assert!(matrix.skipped.is_empty(), "every db part fits the program");
        assert_eq!(matrix.frontiers.len(), devices.len());
        for df in &matrix.frontiers {
            assert!(
                !df.frontier.points.is_empty(),
                "{}: staircase must have at least the zero-RAM step",
                df.device
            );
            assert!(df.cycle_time_s > 0.0);
        }
        // The merged Pareto set is a strictly monotone staircase.
        assert!(!matrix.pareto.is_empty());
        for w in matrix.pareto.windows(2) {
            assert!(w[0].min_ram_bytes < w[1].min_ram_bytes);
            assert!(w[0].energy_mj > w[1].energy_mj);
        }
        // The low-power part draws a fraction of the others' power at a
        // third of the clock, so it must supply the lowest-energy step.
        let best = matrix.pareto.last().unwrap();
        assert_eq!(best.device, "stm32l151");
    }

    #[test]
    fn wait_states_make_ram_placement_cheaper_in_the_model() {
        // On the 84 MHz / 2-wait-state part a flash block stalls on every
        // fetch, so the model's RAM-move delta must be strictly better than
        // on the zero-wait reference part for the same program.
        let prog = compile_program(&[SourceUnit::application(SRC)], OptLevel::O1).unwrap();
        let f100 = Board::new(flashram_device::DEVICE_DB.get("stm32f100").unwrap());
        let f401 = Board::new(flashram_device::DEVICE_DB.get("stm32f401").unwrap());
        let p_f100 = crate::params::extract_params_for_timing(
            &prog,
            &FrequencySource::default(),
            PlacementScope::ApplicationOnly,
            &f100.timing,
        );
        let p_f401 = crate::params::extract_params_for_timing(
            &prog,
            &FrequencySource::default(),
            PlacementScope::ApplicationOnly,
            &f401.timing,
        );
        let mut stalled = 0usize;
        for (r, a) in &p_f100.blocks {
            let b = &p_f401.blocks[r];
            assert_eq!(a.flash_extra_cycles, 0, "zero-wait part never stalls");
            // With the prefetch buffer enabled only control transfers
            // stall, so a fall-through block may legitimately pay nothing —
            // but no block ever pays less than on the zero-wait part.
            assert!(b.ram_delta_cycles() <= a.ram_delta_cycles());
            assert_eq!(b.cycles, a.cycles + b.flash_extra_cycles);
            if b.flash_extra_cycles > 0 {
                assert!(b.ram_delta_cycles() < a.ram_delta_cycles());
                stalled += 1;
            }
        }
        assert!(
            stalled > 0,
            "branching blocks must pay refill stalls on the wait-state part"
        );
    }
}
