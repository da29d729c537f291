//! Branch-and-bound 0-1 ILP solver over the simplex relaxation.
//!
//! Branching fixes one fractional binary variable to 0 and to 1 in turn; the
//! LP relaxation of each node provides the bound used for pruning.  The
//! search follows one fixed policy built from four mechanisms, each kept
//! because a measurement on the placement searches showed it paying for
//! itself (see `docs/ARCHITECTURE.md`, "Why this search policy").  Cover
//! cuts, presolve's coefficient-tightened rows and its objective-only
//! fixing were measured paying nothing and deleted, so the search never
//! adds a row:
//!
//! * **Best-bound node selection with plunging**: the open list is a
//!   priority queue ordered by the parent's LP bound, and after branching
//!   the child on the rounded side is explored immediately, depth-first, so
//!   integer incumbents appear early and the frontier stays small; only the
//!   "far" children enter the queue.  Best-bound order expands the node
//!   that could still beat the incumbent by the most, which on the
//!   degenerate placement trees prunes far more than LIFO order does.
//!   Nodes are re-checked against the incumbent when popped, so stale queue
//!   entries cost nothing but their memory.
//! * **Pseudo-cost branching**: instead of the most-fractional rule, each
//!   binary variable keeps a running average of how much the LP bound
//!   degraded per unit of bound movement in each direction, seeded from the
//!   variable's |objective coefficient| so the very first branchings already
//!   prefer high-impact blocks.  The branching score is the product of the
//!   estimated up- and down-degradations.
//! * **Reduced-cost fixing**: at a branching node with an incumbent, every
//!   nonbasic binary whose reduced cost alone exceeds the gap to the
//!   incumbent is fixed at its bound for the node's whole subtree
//!   ([`BranchBoundStats::rc_fixed`] counts them).  It pays only once an
//!   incumbent exists, so it works best with a seeded solve
//!   ([`BranchBound::solve_chained`]).
//! * **Knapsack presolve** (the `presolve` module): the placement model's
//!   budget rows are knapsacks, so before the tree starts every block whose
//!   size alone overflows a budget row is fixed flash-resident.  The
//!   fixings ride on the root node as variable bounds, never as rows, so
//!   the caller's problem, its row indices and the root state used for
//!   sweep chaining always keep one shape.
//!
//! Child relaxations are **warm-started**: a branch fixing only tightens one
//! variable's bounds, which leaves the parent's optimal basis dual feasible,
//! so each child is re-solved with the dual simplex from the parent's
//! [`LpState`] instead of a cold two-phase solve.  Best-bound order expands
//! nodes out of creation order, but the snapshots don't care: each carries
//! its full bound state.  [`BranchBoundStats`] reports the pivot counts of
//! every kind of solve.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::basis::LpState;
use crate::expr::Var;
use crate::presolve;
use crate::problem::{Problem, Sense, Solution, SolveError};
use crate::simplex::{SimplexOutcome, SimplexSolver};

/// Statistics about a branch-and-bound run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BranchBoundStats {
    /// Number of nodes whose relaxation was solved.
    pub nodes_explored: usize,
    /// Number of nodes pruned by bound (before or after their LP solve).
    pub nodes_pruned: usize,
    /// Whether the **node budget** was exhausted (the returned solution is
    /// then the best incumbent, not necessarily optimal).  LP iteration
    /// limits are tracked separately in
    /// [`lp_iteration_limited`](BranchBoundStats::lp_iteration_limited).
    pub budget_exhausted: bool,
    /// Number of nodes whose *LP* hit the simplex iteration limit.  Those
    /// subtrees are skipped, so a nonzero count means the incumbent may be
    /// suboptimal even when the node budget was never exhausted.
    pub lp_iteration_limited: usize,
    /// Total simplex pivots across every LP solve of the run:
    /// `lp_pivots = warm_pivots + cold_pivots`.
    pub lp_pivots: usize,
    /// Pivots the **root** relaxation alone took (a cold two-phase solve,
    /// or a dual-simplex re-entry for chained sweeps — see
    /// [`BranchBound::solve_chained`]).
    pub root_pivots: usize,
    /// Whether the search started from a feasible incumbent seeded by the
    /// caller (see [`BranchBound::solve_chained`]).
    pub seeded: bool,
    /// Nodes solved cold (two-phase solve from scratch).
    pub cold_solves: usize,
    /// Pivots spent in cold solves.
    pub cold_pivots: usize,
    /// Nodes warm-started with the dual simplex from the parent basis.
    pub warm_solves: usize,
    /// Pivots spent in warm-started solves.
    pub warm_pivots: usize,
    /// Always 0: the search appends no rows, so no pivot repairs one.
    /// Kept so existing reports keep their field.
    pub cut_pivots: usize,
    /// Always 0: the search appends no rows.  Kept so existing reports keep
    /// their field.
    pub cuts_added: usize,
    /// Variables fixed by the presolve pass before the tree started.
    pub presolve_fixed: usize,
    /// Binaries fixed at a node because their reduced cost alone exceeded
    /// the gap to the incumbent (each fixing holds for the node's subtree).
    pub rc_fixed: usize,
    /// Bytes of warm-start [`LpState`] snapshots copied while branching:
    /// a child solved while its sibling still shares the parent's state
    /// copies it, and the sibling solved last takes it without a copy.
    /// Each copy counts its stored size (nonbasic tableau plus per-row and
    /// per-column vectors), so the count is deterministic.
    pub state_bytes_copied: usize,
    /// Wall-clock time of the solve in milliseconds.
    pub wall_ms: f64,
    /// Whether the solve was cut short by [`BranchBound::time_limit`].  The
    /// returned solution (if any) is then the best incumbent, not
    /// necessarily optimal — the wall-clock analogue of
    /// [`budget_exhausted`](BranchBoundStats::budget_exhausted), kept
    /// separate so deadline-driven degradation (inherently timing-dependent)
    /// is distinguishable from deterministic node-budget exhaustion.
    pub time_limit_hit: bool,
    /// Whether a fault-injection failpoint (the `fault-injection` cargo
    /// feature) perturbed this solve.  Always `false` in normal builds;
    /// consumers use it to keep injected-degraded answers out of memo
    /// tables and bit-identity comparisons.
    pub injected: bool,
}

/// The outcome of one chained branch-and-bound solve (see
/// [`BranchBound::solve_chained`]): the incumbent, the search statistics,
/// and the solved state of the **root** relaxation, which the next solve in
/// a sweep chain warm-starts from after the problem's right-hand sides move.
#[derive(Debug, Clone)]
pub struct ChainedSolve {
    /// The best integer solution found.
    pub solution: Solution,
    /// Search statistics of this solve.
    pub stats: BranchBoundStats,
    /// The solved root relaxation, for chaining into the next solve
    /// (`None` only if the root LP produced no reusable state).  The search
    /// adds no rows, so its dimensions always match the caller's problem
    /// and survive into the next sweep point.
    pub root_state: Option<LpState>,
    /// Whether the root relaxation was warm-started from a previous chained
    /// state rather than solved cold.
    pub chained: bool,
}

/// A 0-1 ILP solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchBound {
    /// LP solver used for the relaxations.
    pub lp: SimplexSolver,
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// Integrality tolerance, and the relative pruning margin: a node is
    /// pruned unless its bound improves on the incumbent by more than
    /// `tolerance × max(|incumbent|, 1)`, so a proven optimum is optimal
    /// within that margin.
    pub tolerance: f64,
    /// Warm-start child nodes with the dual simplex from the parent basis
    /// (on by default; disable for the cold reference path that tests and
    /// the solver benchmark compare against).
    pub warm_start: bool,
    /// Wall-clock budget for one solve, checked before every node
    /// expansion.  When it expires the search stops and returns the best
    /// incumbent with [`BranchBoundStats::time_limit_hit`] set (or
    /// [`SolveError::BudgetExhausted`] if no integer solution was found
    /// yet).  `None` (the default) disables the check.  A solve interrupted
    /// by the time limit is **not deterministic** — callers that need
    /// reproducible results must leave this unset and rely on `max_nodes`.
    pub time_limit: Option<Duration>,
}

impl Default for BranchBound {
    fn default() -> Self {
        BranchBound {
            lp: SimplexSolver::default(),
            max_nodes: 20_000,
            tolerance: 1e-6,
            warm_start: true,
            time_limit: None,
        }
    }
}

/// The branching step that created a node, kept for pseudo-cost updates.
#[derive(Clone, Copy)]
struct BranchStep {
    /// The variable branched on.
    var: Var,
    /// Its fractional LP value at the parent.
    frac: f64,
    /// Whether this child fixed the variable up to 1 (else down to 0).
    up: bool,
}

/// One open node of the search tree.
struct Node {
    /// All fixings accumulated along the path from the root (the root node
    /// itself carries the presolve fixings).
    fixings: Vec<(Var, f64)>,
    /// The solved state of the parent's relaxation, shared with the sibling.
    parent_state: Option<Rc<LpState>>,
    /// The parent's LP objective — an optimistic bound for this subtree,
    /// used both for best-bound ordering and for pruning stale nodes
    /// without solving their LP.
    bound: f64,
    /// Depth in the tree (root = 0).
    depth: usize,
    /// The branching that created this node (`None` at the root).
    branch: Option<BranchStep>,
}

/// Heap entry for best-bound order: `key` is the bound normalized so larger
/// is better; ties break toward the **newest** node (largest `seq`), which
/// keeps degenerate plateaus DFS-like instead of breadth-first.
struct OpenNode {
    key: f64,
    seq: u64,
    node: Node,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(Ordering::Equal)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Per-variable pseudo-costs: running `(sum, count)` of LP-bound degradation
/// per unit of bound movement, one pair per direction, seeded from the
/// objective coefficients.
struct PseudoCosts {
    down: Vec<(f64, usize)>,
    up: Vec<(f64, usize)>,
}

impl PseudoCosts {
    fn seeded(problem: &Problem) -> PseudoCosts {
        let n = problem.num_vars();
        let mut down = vec![(0.0, 1usize); n];
        let mut up = vec![(0.0, 1usize); n];
        for (v, c) in problem.objective().terms() {
            down[v.index()].0 = c.abs();
            up[v.index()].0 = c.abs();
        }
        PseudoCosts { down, up }
    }

    /// Branching score of variable `j` at fractional value `val`: product of
    /// the estimated bound degradations of the two children.
    fn score(&self, j: usize, val: f64) -> f64 {
        let down_avg = self.down[j].0 / self.down[j].1 as f64;
        let up_avg = self.up[j].0 / self.up[j].1 as f64;
        (down_avg * val).max(1e-9) * (up_avg * (1.0 - val)).max(1e-9)
    }

    /// Fold an observed degradation into the branched direction's average.
    fn record(&mut self, step: BranchStep, degradation: f64, tol: f64) {
        let dist = if step.up { 1.0 - step.frac } else { step.frac }.max(tol);
        let entry = if step.up {
            &mut self.up[step.var.index()]
        } else {
            &mut self.down[step.var.index()]
        };
        entry.0 += degradation / dist;
        entry.1 += 1;
    }
}

/// Ceiling on the total memory the search frontier may hold in warm-start
/// tableau snapshots (each is shared by the two children of a node).  Nodes
/// pushed beyond the budget carry no state and re-solve cold — correctness
/// is unaffected, only the warm-start saving for those nodes.
const WARM_STATE_MEMORY_BUDGET: usize = 64 << 20;

/// Whether a solved state of `bytes` may go to both children of a node
/// while `retained_entries` frontier entries already hold a state: each
/// entry is charged half of the state it shares with its sibling, and the
/// total must stay within [`WARM_STATE_MEMORY_BUDGET`].
fn fits_warm_state_budget(retained_entries: usize, bytes: usize) -> bool {
    (retained_entries + 2) * (bytes / 2) <= WARM_STATE_MEMORY_BUDGET
}

/// Approximate heap footprint of one [`LpState`] snapshot: the stored
/// (nonbasic) tableau entries plus the per-row and per-column vectors.
fn state_bytes(state: &LpState) -> usize {
    let (rows, cols, width) = (state.num_rows(), state.num_cols(), state.width());
    8 * (rows * width + 2 * rows + 5 * cols + width)
}

impl BranchBound {
    /// A solver with default budgets.
    pub fn new() -> BranchBound {
        BranchBound::default()
    }

    /// Solve the problem to optimality (within the node budget).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`] or [`SolveError::Unbounded`] when
    /// the problem has no optimal solution, [`SolveError::BudgetExhausted`]
    /// when the node budget or a node's LP iteration limit ran out before
    /// any integer-feasible solution was found (the message says which), and
    /// [`SolveError::InvalidModel`] for malformed models.
    pub fn solve(&self, problem: &Problem) -> Result<Solution, SolveError> {
        self.solve_with_stats(problem).map(|(s, _)| s)
    }

    /// Solve and also report search statistics.
    ///
    /// # Errors
    ///
    /// See [`BranchBound::solve`].
    pub fn solve_with_stats(
        &self,
        problem: &Problem,
    ) -> Result<(Solution, BranchBoundStats), SolveError> {
        self.solve_inner(problem, None, None, false)
            .map(|run| (run.solution, run.stats))
            .map_err(|(e, _)| e)
    }

    /// Solve as part of a **sweep chain**: when `warm_root` is the root
    /// state of a previous solve of the *same problem structure* (only
    /// right-hand sides may have changed in between, via
    /// [`crate::Problem::set_rhs`]), the root relaxation is re-entered with
    /// the dual simplex from that state instead of a cold two-phase solve —
    /// the same warm-start saving branch-and-bound already applies per node,
    /// applied *across* solves.  Re-entry resets any presolve fixings the
    /// carried state was solved under and applies the current point's
    /// fixings instead, so presolve and chaining compose.  The returned
    /// [`ChainedSolve::root_state`] feeds the next link of the chain.
    ///
    /// `seed` is a candidate integer solution — typically the previous sweep
    /// point's optimum, or, when a budget tightened past it, that optimum
    /// repaired to fit (as the placement frontier's staircase descent
    /// does).  If it is feasible under the current right-hand sides, it
    /// becomes the initial incumbent, so the search starts with a proven
    /// bound, prunes everything the budget change did not improve and
    /// fixes binaries by reduced cost from the root on; when the new
    /// optimum equals the seed, the solve reduces to the root relaxation
    /// proving optimality.  An infeasible seed is ignored.  Seeded
    /// incumbents compose with best-bound order: the seed's objective
    /// prunes queue entries at pop time before their LP is ever solved.
    ///
    /// With `warm_root: None` and `seed: None` (or `warm_start` disabled)
    /// this is exactly [`BranchBound::solve_with_stats`] plus the
    /// root-state capture.
    ///
    /// # Errors
    ///
    /// See [`BranchBound::solve`]; additionally, a `warm_root` whose
    /// dimensions do not match `problem` is an
    /// [`SolveError::InvalidModel`].
    pub fn solve_chained(
        &self,
        problem: &Problem,
        warm_root: Option<&LpState>,
        seed: Option<&Solution>,
    ) -> Result<ChainedSolve, SolveError> {
        self.solve_chained_stats(problem, warm_root, seed)
            .map_err(|(e, _)| e)
    }

    /// [`BranchBound::solve_chained`], but a failed solve also reports the
    /// search statistics of the attempt — the node/pivot counts and wall
    /// time spent before the budget (node, LP-iteration or wall-clock) ran
    /// out.  Degradation layers that fall back to a heuristic after
    /// [`SolveError::BudgetExhausted`] use this to keep their effort
    /// accounting truthful instead of reporting the failed attempt as free.
    ///
    /// # Errors
    ///
    /// See [`BranchBound::solve_chained`]; every error carries the stats of
    /// the work done up to the failure.  The stats ride boxed so the error
    /// variant stays pointer-sized.
    pub fn solve_chained_stats(
        &self,
        problem: &Problem,
        warm_root: Option<&LpState>,
        seed: Option<&Solution>,
    ) -> Result<ChainedSolve, (SolveError, Box<BranchBoundStats>)> {
        #[cfg(feature = "fault-injection")]
        {
            if crate::fault::should_fire(crate::fault::FaultSite::IlpPanic) {
                panic!(
                    "{} branch-and-bound panic mid-solve",
                    crate::fault::INJECTED_MARKER
                );
            }
            if crate::fault::should_fire(crate::fault::FaultSite::IlpSpuriousExhaustion) {
                let stats = BranchBoundStats {
                    budget_exhausted: true,
                    injected: true,
                    ..BranchBoundStats::default()
                };
                return Err((
                    SolveError::BudgetExhausted(format!(
                        "{} spurious node-budget exhaustion",
                        crate::fault::INJECTED_MARKER
                    )),
                    Box::new(stats),
                ));
            }
        }
        self.solve_inner(problem, warm_root, seed, true)
    }

    /// The shared search loop.  `capture_root` keeps a clone of the solved
    /// root relaxation state for sweep chaining (skipped for the plain
    /// entry points, which have no use for it).
    fn solve_inner(
        &self,
        problem: &Problem,
        warm_root: Option<&LpState>,
        seed: Option<&Solution>,
        capture_root: bool,
    ) -> Result<ChainedSolve, (SolveError, Box<BranchBoundStats>)> {
        let started = Instant::now();
        problem.check().map_err(|e| (e, Box::default()))?;
        let mut stats = BranchBoundStats::default();
        // Stamp the wall time into the stats of whichever error path fires.
        let fail = |mut stats: BranchBoundStats, e: SolveError| {
            stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
            (e, Box::new(stats))
        };
        let mut root_state: Option<LpState> = None;
        let chained = warm_root.is_some() && self.warm_start;
        let binaries = problem.binary_vars();
        let key_sign = match problem.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        // Whether a bound is worth exploring against the incumbent: strictly
        // better by more than the relative pruning margin.
        let improves = |bound: f64, best: f64| {
            let margin = self.tolerance * best.abs().max(1.0);
            problem.is_better(bound, best) && (bound - best).abs() > margin
        };

        // Knapsack presolve: fixings valid only at the problem's *current*
        // right-hand sides, which is fine — they live and die with this
        // solve.
        let pre = presolve::presolve(
            problem,
            &presolve::knapsack_rows(problem, self.tolerance),
            self.tolerance,
        );
        if pre.infeasible {
            return Err(fail(stats, SolveError::Infeasible));
        }
        stats.presolve_fixed = pre.fixings.len();

        // A feasible seed becomes the initial incumbent: its objective is a
        // proven bound, so the search only explores what the moved
        // right-hand sides actually improved.  (The objective is
        // re-evaluated — RHS changes never alter it, but the seed may come
        // from an arbitrary caller.)
        let mut incumbent: Option<Solution> = seed
            .filter(|s| problem.is_feasible(&s.values, self.tolerance))
            .map(|s| Solution {
                values: s.values.clone(),
                objective: problem.objective_value(&s.values),
            });
        stats.seeded = incumbent.is_some();

        let mut pc = PseudoCosts::seeded(problem);
        let mut open: BinaryHeap<OpenNode> = BinaryHeap::new();
        let mut seq = 0u64;
        // The dive slot: the rounded-side child explored immediately after
        // its parent (plunging).  The root starts here.
        let mut dive: Option<Node> = Some(Node {
            fixings: pre.fixings,
            parent_state: None,
            bound: problem.worst_objective(),
            depth: 0,
            branch: None,
        });

        // Frontier entries currently holding a warm-start state (each state
        // is shared by the two sibling entries), to bound retained memory.
        let mut retained_entries = 0usize;

        while let Some(mut node) = dive.take().or_else(|| open.pop().map(|e| e.node)) {
            if node.parent_state.is_some() {
                retained_entries -= 1;
            }
            // Best-bound queues hold nodes long after their bound went
            // stale; prune against the current incumbent before paying for
            // an LP solve.  (The root is exempt: its "bound" is a sentinel.)
            if node.depth > 0
                && incumbent
                    .as_ref()
                    .is_some_and(|best| !improves(node.bound, best.objective))
            {
                stats.nodes_pruned += 1;
                continue;
            }
            // The wall-clock budget outranks every other stopping rule: an
            // expired deadline ends the search immediately, chained or not,
            // returning whatever incumbent exists.
            if let Some(limit) = self.time_limit {
                if started.elapsed() >= limit {
                    stats.time_limit_hit = true;
                    break;
                }
            }
            if stats.nodes_explored >= self.max_nodes {
                stats.budget_exhausted = true;
                break;
            }
            stats.nodes_explored += 1;

            let warm_state = if self.warm_start {
                node.parent_state.take()
            } else {
                None
            };
            let result = if node.depth == 0 && chained {
                // The chained root: same rows and columns as the previous
                // sweep point, only right-hand sides (and possibly presolve
                // fixings) moved — re-enter with the dual simplex from the
                // previous root basis, against the *original* problem so the
                // captured state stays chainable.
                let warm_root = warm_root.expect("chained implies a warm root");
                stats.warm_solves += 1;
                let r = self.lp.reenter(problem, warm_root.clone(), &node.fixings);
                stats.warm_pivots += r.pivots;
                r
            } else if let Some(state) = warm_state {
                // Only the final fixing is new relative to the parent's
                // state; everything earlier is already baked in.  The
                // sibling explored first still shares the Rc (clone); the
                // second child is the last user and takes the state without
                // copying the tableau.
                let last = *node.fixings.last().expect("warm node has a fixing");
                let state = Rc::try_unwrap(state).unwrap_or_else(|rc| {
                    stats.state_bytes_copied += state_bytes(&rc);
                    (*rc).clone()
                });
                stats.warm_solves += 1;
                let r = self.lp.resolve(problem, state, &[last]);
                stats.warm_pivots += r.pivots;
                r
            } else {
                stats.cold_solves += 1;
                let r = self.lp.solve_tracked(problem, &node.fixings);
                stats.cold_pivots += r.pivots;
                r
            };
            stats.lp_pivots += result.pivots;
            if node.depth == 0 {
                stats.root_pivots = result.pivots;
                if capture_root {
                    root_state = result.state.clone();
                }
            }

            let (relaxed, mut state) = match result.outcome {
                SimplexOutcome::Optimal(s) => (s, result.state),
                SimplexOutcome::Infeasible => continue,
                SimplexOutcome::Unbounded => {
                    // The relaxation being unbounded at the root means the
                    // ILP itself is unbounded (binaries alone cannot bound
                    // a continuous ray).
                    if node.depth == 0 {
                        return Err(fail(stats, SolveError::Unbounded));
                    }
                    continue;
                }
                SimplexOutcome::IterationLimit => {
                    // An LP that ran out of pivots is not node-budget
                    // exhaustion: count it separately and skip the subtree.
                    stats.lp_iteration_limited += 1;
                    continue;
                }
                SimplexOutcome::InvalidModel(why) => {
                    // `problem.check()` passed, so this indicates solver-side
                    // state corruption; surface it rather than mask it.
                    return Err(fail(stats, SolveError::InvalidModel(why)));
                }
            };

            // Pseudo-cost update: how much did this child's bound degrade
            // per unit of the branching move?
            if let Some(step) = node.branch {
                let degradation = match problem.sense() {
                    Sense::Maximize => node.bound - relaxed.objective,
                    Sense::Minimize => relaxed.objective - node.bound,
                }
                .max(0.0);
                pc.record(step, degradation, self.tolerance);
            }

            // Bound: prune unless the relaxation strictly improves on the
            // incumbent.  Ties must be pruned too — the placement models are
            // massively degenerate, and exploring equal-bound nodes can only
            // rediscover equally good solutions at exponential cost.
            if incumbent
                .as_ref()
                .is_some_and(|best| !improves(relaxed.objective, best.objective))
            {
                stats.nodes_pruned += 1;
                continue;
            }

            // Pseudo-cost branching: among the fractional binaries, pick the
            // one whose estimated two-sided bound degradation is largest
            // (ties fall to the lowest index, as iteration order is
            // ascending and the comparison strict).
            let mut choice: Option<(Var, f64, f64)> = None;
            for &v in &binaries {
                let val = relaxed.value(v);
                if (val - val.round()).abs() <= self.tolerance {
                    continue;
                }
                let score = pc.score(v.index(), val);
                if choice.is_none_or(|(_, _, best)| score > best) {
                    choice = Some((v, val, score));
                }
            }

            match choice {
                None => {
                    // Integer feasible: candidate incumbent.
                    let mut values = relaxed.values.clone();
                    for v in &binaries {
                        let idx = v.index();
                        values[idx] = values[idx].round();
                    }
                    let objective = problem.objective_value(&values);
                    let candidate = Solution { values, objective };
                    let better = incumbent
                        .as_ref()
                        .is_none_or(|best| problem.is_better(objective, best.objective));
                    if better {
                        // Drop the queued nodes the new incumbent dominates
                        // now rather than when they are popped: they hold
                        // warm-start snapshots until then.  The incumbent only
                        // improves, so each would be pruned on popping, and
                        // the pop order of the rest is unchanged.
                        let queued = open.len();
                        open.retain(|entry| {
                            let keep = improves(entry.node.bound, objective);
                            if !keep && entry.node.parent_state.is_some() {
                                retained_entries -= 1;
                            }
                            keep
                        });
                        stats.nodes_pruned += queued - open.len();
                        incumbent = Some(candidate);
                    }
                }
                Some((v, val, _)) => {
                    // Reduced-cost fixing: moving a nonbasic binary off
                    // its bound worsens the relaxation by at least its
                    // reduced cost, so when that alone exceeds the gap to
                    // the incumbent no solution in this subtree that moves
                    // it can win.  Fix it in the state (warm children
                    // inherit it) and in the fixings (cold children re-apply
                    // them); the branching fixing is pushed after, so it
                    // stays last.
                    if let (Some(best), Some(st)) = (&incumbent, state.as_mut()) {
                        let margin = self.tolerance * best.objective.abs().max(1.0);
                        let gap = key_sign * (relaxed.objective - best.objective);
                        for &b in &binaries {
                            let j = b.index();
                            if st.is_basic(j) || st.lo[j] == st.up[j] {
                                continue;
                            }
                            // `d` is in minimization form: nonnegative at
                            // the lower bound, nonpositive at the upper one.
                            let (reduced_cost, at) = if st.at_upper[j] {
                                (-st.d[j], st.up[j])
                            } else {
                                (st.d[j], st.lo[j])
                            };
                            if reduced_cost > gap + margin {
                                st.lo[j] = at;
                                st.up[j] = at;
                                node.fixings.push((b, at));
                                stats.rc_fixed += 1;
                            }
                        }
                    }
                    let rounded = val.round().clamp(0.0, 1.0);
                    let other = 1.0 - rounded;
                    // Hand the solved state to both children unless warm
                    // starts are disabled or the frontier already retains
                    // its memory budget's worth of snapshots — beyond that,
                    // children re-solve cold.
                    let state = self
                        .warm_start
                        .then_some(state)
                        .flatten()
                        .filter(|st| fits_warm_state_budget(retained_entries, state_bytes(st)))
                        .map(Rc::new);
                    if state.is_some() {
                        retained_entries += 2;
                    }
                    let bound = relaxed.objective;
                    // The far child joins the open list; the near (rounded)
                    // child goes straight into the dive slot.
                    let mut far = node.fixings.clone();
                    far.push((v, other));
                    seq += 1;
                    open.push(OpenNode {
                        key: key_sign * bound,
                        seq,
                        node: Node {
                            fixings: far,
                            parent_state: state.clone(),
                            bound,
                            depth: node.depth + 1,
                            branch: Some(BranchStep {
                                var: v,
                                frac: val,
                                up: other > 0.5,
                            }),
                        },
                    });
                    let mut near = node.fixings;
                    near.push((v, rounded));
                    dive = Some(Node {
                        fixings: near,
                        parent_state: state,
                        bound,
                        depth: node.depth + 1,
                        branch: Some(BranchStep {
                            var: v,
                            frac: val,
                            up: rounded > 0.5,
                        }),
                    });
                }
            }
        }

        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        match incumbent {
            Some(solution) => Ok(ChainedSolve {
                solution,
                stats,
                root_state,
                chained,
            }),
            None if stats.budget_exhausted
                || stats.lp_iteration_limited > 0
                || stats.time_limit_hit =>
            {
                let mut reasons = Vec::new();
                if stats.budget_exhausted {
                    reasons.push(format!("node budget of {} exhausted", self.max_nodes));
                }
                if stats.lp_iteration_limited > 0 {
                    reasons.push(format!(
                        "LP iteration limit hit at {} node(s)",
                        stats.lp_iteration_limited
                    ));
                }
                if stats.time_limit_hit {
                    reasons.push(format!(
                        "wall-clock limit of {:?} expired",
                        self.time_limit.unwrap_or_default()
                    ));
                }
                Err((
                    SolveError::BudgetExhausted(format!(
                        "no integer solution found: {}",
                        reasons.join("; ")
                    )),
                    Box::new(stats),
                ))
            }
            None => Err((SolveError::Infeasible, Box::new(stats))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinearExpr;
    use crate::problem::{Cmp, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn warm_state_budget_holds_at_its_boundary() {
        // A 1 MiB state charges 512 KiB to each of its two entries, so the
        // 64 MiB budget admits it while at most 126 entries already hold a
        // state (126 + 2 = 128 halves) and refuses it at 127.
        let mib = 1 << 20;
        assert!(fits_warm_state_budget(126, mib));
        assert!(!fits_warm_state_budget(127, mib));
        // A state the size of the whole budget fits an empty frontier;
        // two bytes more (one per half) do not.
        assert!(fits_warm_state_budget(0, WARM_STATE_MEMORY_BUDGET));
        assert!(!fits_warm_state_budget(0, WARM_STATE_MEMORY_BUDGET + 2));
    }

    #[test]
    fn knapsack_small() {
        // Items (value, weight): (10,5), (7,4), (4,3), capacity 9 → pick 1 & 2 = 17.
        let values = [10.0, 7.0, 4.0];
        let weights = [5.0, 4.0, 3.0];
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..3).map(|i| p.add_binary(format!("x{i}"))).collect();
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            9.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().copied().zip(values.iter().copied()),
        ));
        let sol = BranchBound::new().solve(&p).unwrap();
        assert_close(sol.objective, 17.0);
        assert!(sol.is_set(xs[0]));
        assert!(sol.is_set(xs[1]));
        assert!(!sol.is_set(xs[2]));
    }

    /// The `knapsack_small` model, returned with its variables.
    fn small_knapsack() -> (Problem, Vec<Var>) {
        let values = [10.0, 7.0, 4.0];
        let weights = [5.0, 4.0, 3.0];
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..3).map(|i| p.add_binary(format!("x{i}"))).collect();
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            9.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().copied().zip(values.iter().copied()),
        ));
        (p, xs)
    }

    #[test]
    fn expired_time_limit_without_incumbent_reports_stats() {
        let (p, _) = small_knapsack();
        let mut solver = BranchBound::new();
        solver.time_limit = Some(Duration::ZERO);
        let (err, stats) = solver.solve_chained_stats(&p, None, None).unwrap_err();
        assert!(
            matches!(err, SolveError::BudgetExhausted(ref why) if why.contains("wall-clock")),
            "unexpected error: {err:?}"
        );
        assert!(stats.time_limit_hit);
        assert!(
            !stats.budget_exhausted,
            "time and node budgets are distinct"
        );
        assert_eq!(stats.nodes_explored, 0, "the search never opened a node");
        assert!(!stats.seeded);
    }

    #[test]
    fn expired_time_limit_returns_the_seeded_incumbent() {
        let (p, xs) = small_knapsack();
        // Feasible but suboptimal: item 2 alone (weight 3, value 4).
        let seed = Solution {
            values: vec![0.0, 0.0, 1.0],
            objective: 4.0,
        };
        let mut solver = BranchBound::new();
        solver.time_limit = Some(Duration::ZERO);
        let run = solver.solve_chained(&p, None, Some(&seed)).unwrap();
        assert_close(run.solution.objective, 4.0);
        assert!(run.solution.is_set(xs[2]));
        assert!(run.stats.time_limit_hit);
        assert!(run.stats.seeded);
        assert_eq!(run.stats.nodes_explored, 0);
    }

    #[test]
    fn generous_time_limit_changes_nothing() {
        let (p, _) = small_knapsack();
        let mut solver = BranchBound::new();
        solver.time_limit = Some(Duration::from_secs(3600));
        let run = solver.solve_chained(&p, None, None).unwrap();
        assert_close(run.solution.objective, 17.0);
        assert!(!run.stats.time_limit_hit);
        let plain = BranchBound::new().solve(&p).unwrap();
        assert_eq!(run.solution.values, plain.values);
    }

    #[test]
    fn budget_exhausted_error_carries_the_attempt_stats() {
        let (p, _) = small_knapsack();
        let mut solver = BranchBound::new();
        solver.max_nodes = 0;
        let (err, stats) = solver.solve_chained_stats(&p, None, None).unwrap_err();
        assert!(matches!(err, SolveError::BudgetExhausted(_)));
        assert!(stats.budget_exhausted);
        assert!(!stats.time_limit_hit);
        assert!(stats.wall_ms >= 0.0);
    }

    #[test]
    fn pure_lp_passes_through() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, None);
        p.add_constraint(LinearExpr::var(x), Cmp::Ge, 2.0);
        p.set_objective(LinearExpr::var(x));
        let sol = BranchBound::new().solve(&p).unwrap();
        assert_close(sol.value(x), 2.0);
    }

    #[test]
    fn infeasible_integer_problem() {
        // x + y = 1.5 with x, y binary is LP-feasible but has no integer point.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Eq, 1.5);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]));
        assert_eq!(BranchBound::new().solve(&p), Err(SolveError::Infeasible));
    }

    #[test]
    fn equality_selection() {
        // Exactly two of four items, minimize cost.
        let costs = [5.0, 1.0, 3.0, 2.0];
        let mut p = Problem::new(Sense::Minimize);
        let xs: Vec<Var> = (0..4).map(|i| p.add_binary(format!("x{i}"))).collect();
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().map(|v| (*v, 1.0))),
            Cmp::Eq,
            2.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().copied().zip(costs.iter().copied()),
        ));
        let sol = BranchBound::new().solve(&p).unwrap();
        assert_close(sol.objective, 3.0);
        assert!(sol.is_set(xs[1]) && sol.is_set(xs[3]));
    }

    #[test]
    fn mixed_integer_problem() {
        // max 2x + 3b s.t. x + 4b <= 5, x <= 3, b binary → b=1, x=1? obj=5 vs b=0,x=3 obj=6.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, Some(3.0));
        let b = p.add_binary("b");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (b, 4.0)]), Cmp::Le, 5.0);
        p.set_objective(LinearExpr::from_terms([(x, 2.0), (b, 3.0)]));
        let sol = BranchBound::new().solve(&p).unwrap();
        assert_close(sol.objective, 6.0);
        assert!(!sol.is_set(b));
        assert_close(sol.value(x), 3.0);
    }

    #[test]
    fn stats_are_reported() {
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..6).map(|i| p.add_binary(format!("x{i}"))).collect();
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().map(|v| (*v, 1.0))),
            Cmp::Le,
            3.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().enumerate().map(|(i, v)| (*v, 1.0 + i as f64)),
        ));
        let (sol, stats) = BranchBound::new().solve_with_stats(&p).unwrap();
        assert_close(sol.objective, 4.0 + 5.0 + 6.0);
        assert!(stats.nodes_explored >= 1);
        assert!(!stats.budget_exhausted);
        assert_eq!(stats.lp_iteration_limited, 0);
        assert_eq!(
            stats.warm_solves + stats.cold_solves,
            stats.nodes_explored,
            "every explored node is either warm or cold"
        );
        assert_eq!(
            stats.lp_pivots,
            stats.warm_pivots + stats.cold_pivots,
            "every pivot is a warm or cold pivot"
        );
        assert_eq!(stats.cut_pivots, 0, "no row is ever appended");
        assert_eq!(stats.cuts_added, 0, "no row is ever appended");
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..10).map(|i| p.add_binary(format!("x{i}"))).collect();
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().map(|v| (*v, 1.0))),
            Cmp::Le,
            5.0,
        );
        p.set_objective(LinearExpr::from_terms(xs.iter().map(|v| (*v, 1.0))));
        let solver = BranchBound {
            max_nodes: 0,
            ..BranchBound::default()
        };
        match solver.solve(&p) {
            Err(SolveError::BudgetExhausted(msg)) => {
                assert!(msg.contains("node budget"), "message was: {msg}");
                assert!(!msg.contains("LP iteration"), "no LP limit was hit: {msg}");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn lp_iteration_limit_is_not_conflated_with_node_budget() {
        // Regression: a single node's LP hitting its pivot budget used to be
        // reported as "no integer solution within N nodes".  The LP limit
        // and the node budget are now tracked and reported separately.
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..8).map(|i| p.add_binary(format!("x{i}"))).collect();
        let weights = [3.0, 5.0, 2.0, 7.0, 4.0, 1.0, 6.0, 2.5];
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            11.0,
        );
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().map(|v| (*v, 1.0))),
            Cmp::Ge,
            2.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().enumerate().map(|(i, v)| (*v, 2.0 + i as f64)),
        ));
        let solver = BranchBound {
            lp: SimplexSolver {
                max_iterations: 1,
                ..SimplexSolver::default()
            },
            ..BranchBound::default()
        };
        match solver.solve_with_stats(&p) {
            Err(SolveError::BudgetExhausted(msg)) => {
                assert!(msg.contains("LP iteration"), "message was: {msg}");
                assert!(!msg.contains("node budget"), "message was: {msg}");
            }
            other => panic!("expected BudgetExhausted from LP limits, got {other:?}"),
        }
    }

    #[test]
    fn solution_respects_all_constraints() {
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..8).map(|i| p.add_binary(format!("x{i}"))).collect();
        let weights = [3.0, 5.0, 2.0, 7.0, 4.0, 1.0, 6.0, 2.5];
        let values = [4.0, 6.0, 3.0, 8.0, 5.0, 1.0, 7.0, 3.5];
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            12.0,
        );
        // Pairwise exclusion: x0 + x1 <= 1.
        p.add_constraint(
            LinearExpr::from_terms([(xs[0], 1.0), (xs[1], 1.0)]),
            Cmp::Le,
            1.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().copied().zip(values.iter().copied()),
        ));
        let sol = BranchBound::new().solve(&p).unwrap();
        assert!(p.is_feasible(&sol.values, 1e-6));
    }

    /// A selection instance big enough that branching happens.
    fn branching_instance() -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..12).map(|i| p.add_binary(format!("x{i}"))).collect();
        let weights = [3.0, 5.0, 2.0, 7.0, 4.0, 1.0, 6.0, 2.5, 3.5, 4.5, 1.5, 5.5];
        let values = [4.0, 6.0, 3.0, 8.0, 5.0, 1.0, 7.0, 3.5, 4.2, 5.1, 2.2, 6.3];
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            17.0,
        );
        p.add_constraint(
            LinearExpr::from_terms([(xs[0], 1.0), (xs[3], 1.0), (xs[6], 1.0)]),
            Cmp::Le,
            2.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().copied().zip(values.iter().copied()),
        ));
        p
    }

    #[test]
    fn chained_sweep_matches_cold_per_budget_solves() {
        // Sweep the knapsack capacity row: each chained solve must match a
        // cold solve of the same mutated problem exactly, and the chained
        // roots must be warm (no cold re-solve of the root relaxation).
        let mut p = branching_instance();
        let solver = BranchBound::new();
        let mut root = None;
        let mut seed = None;
        for capacity in [17.0, 12.0, 9.0, 6.0, 3.0, 0.0, 14.0] {
            p.set_rhs(0, capacity).unwrap();
            let run = solver
                .solve_chained(&p, root.as_ref(), seed.as_ref())
                .expect("chained solve");
            let (cold, _) = solver.solve_with_stats(&p).expect("cold solve");
            assert_close(run.solution.objective, cold.objective);
            assert!(p.is_feasible(&run.solution.values, 1e-6));
            assert_eq!(run.chained, root.is_some());
            if run.chained {
                assert!(
                    run.stats.warm_solves >= 1,
                    "a chained root must count as a warm solve"
                );
            }
            assert!(run.root_state.is_some(), "feasible solves keep the root");
            root = run.root_state;
            seed = Some(run.solution);
        }
    }

    #[test]
    fn relaxing_sweeps_keep_seeds_feasible_and_reenter_roots_cheaply() {
        // Sweeping the capacity *up* keeps the previous optimum feasible, so
        // every chained point starts seeded; a point whose right-hand side
        // did not move at all re-enters its root with zero pivots (the dual
        // simplex has nothing to repair).  The seed bounds the search — it
        // cannot collapse trees whose LP bound sits above the integer
        // optimum, but the answer must stay exactly the cold one.
        let mut p = branching_instance();
        let solver = BranchBound::new();
        let mut root = None;
        let mut seed: Option<Solution> = None;
        let mut prev_objective = f64::NEG_INFINITY;
        let mut prev_capacity = f64::NAN;
        for capacity in [3.0, 6.0, 9.0, 9.0, 12.0, 17.0, 40.0, 40.0] {
            p.set_rhs(0, capacity).unwrap();
            let run = solver
                .solve_chained(&p, root.as_ref(), seed.as_ref())
                .expect("chained solve");
            let (cold, _) = solver.solve_with_stats(&p).expect("cold solve");
            assert_close(run.solution.objective, cold.objective);
            assert_eq!(
                run.stats.seeded,
                seed.is_some(),
                "relaxed seeds stay feasible"
            );
            assert!(
                run.solution.objective >= prev_objective - 1e-9,
                "relaxing a budget never hurts"
            );
            if capacity == prev_capacity {
                assert_eq!(
                    run.stats.root_pivots, 0,
                    "an unmoved right-hand side needs no root repair"
                );
            }
            prev_objective = run.solution.objective;
            prev_capacity = capacity;
            root = run.root_state;
            seed = Some(run.solution);
        }
    }

    #[test]
    fn chained_root_state_survives_infeasible_points() {
        // An infeasible sweep point returns an error; the caller keeps the
        // previous root and the chain continues unharmed.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 2.0);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 1.0);
        p.set_objective(LinearExpr::from_terms([(x, 3.0), (y, 2.0)]));
        let solver = BranchBound::new();
        let first = solver.solve_chained(&p, None, None).expect("feasible");
        let root = first.root_state.expect("root state");
        p.set_rhs(0, 0.0).unwrap();
        assert_eq!(
            solver.solve_chained(&p, Some(&root), None).err(),
            Some(SolveError::Infeasible)
        );
        p.set_rhs(0, 1.0).unwrap();
        let resumed = solver
            .solve_chained(&p, Some(&root), None)
            .expect("feasible");
        assert_close(resumed.solution.objective, 3.0);
    }

    #[test]
    fn warm_start_matches_cold_start_and_pivots_less_per_node() {
        let p = branching_instance();
        let warm = BranchBound::new();
        let cold = BranchBound {
            warm_start: false,
            ..BranchBound::default()
        };
        let (ws, wstats) = warm.solve_with_stats(&p).unwrap();
        let (cs, cstats) = cold.solve_with_stats(&p).unwrap();
        assert_close(ws.objective, cs.objective);
        assert!(wstats.warm_solves > 0, "branching must warm-start children");
        assert_eq!(cstats.warm_solves, 0);
        // Per-node pivot cost: warm-started children must be strictly
        // cheaper than the cold nodes of the cold run.
        let warm_per_node = wstats.warm_pivots as f64 / wstats.warm_solves as f64;
        let cold_per_node = cstats.cold_pivots as f64 / cstats.cold_solves as f64;
        assert!(
            warm_per_node < cold_per_node,
            "warm {warm_per_node:.2} pivots/node vs cold {cold_per_node:.2}"
        );
    }

    #[test]
    fn an_early_incumbent_that_dominates_nothing_changes_nothing() {
        // Seeded with the empty selection (objective 0, below every node
        // bound), the search prunes and fixes nothing the unseeded search
        // would not; the first integer point replaces the seed in both runs
        // and drops the dominated queued nodes.  Nodes dropped from the queue
        // count as pruned exactly as if they had been pruned when popped.
        let p = branching_instance();
        let empty = Solution {
            values: vec![0.0; p.num_vars()],
            objective: 0.0,
        };
        let solver = BranchBound::new();
        let plain = solver.solve_chained(&p, None, None).unwrap();
        let early = solver.solve_chained(&p, None, Some(&empty)).unwrap();
        assert!(early.stats.seeded && !plain.stats.seeded);
        let comparable = |stats: BranchBoundStats| BranchBoundStats {
            seeded: false,
            wall_ms: 0.0,
            ..stats
        };
        assert_eq!(comparable(early.stats), comparable(plain.stats));
        assert!(plain.stats.nodes_pruned > 0, "the instance must prune");
        assert_eq!(early.solution, plain.solution);
        let exact = crate::ExhaustiveSolver::new().solve(&p).unwrap();
        assert_close(plain.solution.objective, exact.objective);
    }

    #[test]
    fn reduced_cost_fixes_are_reported_and_do_not_change_the_optimum() {
        // Seeded with its own optimum, the search has an incumbent from the
        // root on, and the low-value items' reduced costs exceed the gap.
        let p = branching_instance();
        let exact = crate::ExhaustiveSolver::new().solve(&p).unwrap();
        let run = BranchBound::new()
            .solve_chained(&p, None, Some(&exact))
            .unwrap();
        assert!(run.stats.rc_fixed > 0, "no variable was fixed");
        assert_close(run.solution.objective, exact.objective);
        assert!(p.is_feasible(&run.solution.values, 1e-6));
    }

    #[test]
    fn presolve_fixes_are_reported_and_do_not_change_the_optimum() {
        // The 30-weight item overflows the budget alone: presolve fixes it
        // to 0 before the tree starts.
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..5).map(|i| p.add_binary(format!("x{i}"))).collect();
        let weights = [30.0, 5.0, 4.0, 3.0, 2.0];
        let values = [100.0, 6.0, 5.0, 4.0, 3.0];
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            10.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().copied().zip(values.iter().copied()),
        ));
        let (sol, stats) = BranchBound::new().solve_with_stats(&p).unwrap();
        let exact = crate::ExhaustiveSolver::new().solve(&p).unwrap();
        assert_close(sol.objective, exact.objective);
        assert!(!sol.is_set(xs[0]));
        assert!(stats.presolve_fixed >= 1, "the overflow fixing is reported");
    }

    #[test]
    fn fallback_preserves_the_callers_seeding_and_reports_wall_time() {
        let mut p = branching_instance();
        p.set_rhs(0, 12.0).unwrap();
        let solver = BranchBound::new();
        let first = solver.solve_chained(&p, None, None).unwrap();
        let root = first.root_state.clone().expect("root state");
        let seed = first.solution.clone();
        // Relaxing 12 → 17 keeps the seed feasible: a chained solve reports
        // the caller's seed as `seeded`, an unseeded one does not, and both
        // report their wall time.
        p.set_rhs(0, 17.0).unwrap();
        let seeded = solver.solve_chained(&p, Some(&root), Some(&seed)).unwrap();
        assert!(seeded.chained);
        assert!(seeded.stats.seeded, "the caller's seed is reported");
        assert!(seeded.stats.wall_ms > 0.0);
        let unseeded = solver.solve_chained(&p, Some(&root), None).unwrap();
        assert!(unseeded.chained);
        assert!(!unseeded.stats.seeded, "no seed, nothing seeded");
        assert!(unseeded.stats.wall_ms > 0.0);
    }
}
