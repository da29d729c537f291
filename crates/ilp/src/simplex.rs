//! A bounded-variable simplex solver for the LP relaxation.
//!
//! Variable bounds `l ≤ x ≤ u` are handled **natively** in the ratio test
//! (nonbasic variables may rest at either bound and can "bound-flip" without
//! a pivot), so binary upper bounds and branch-and-bound fixings generate no
//! tableau rows and no artificial columns: the tableau has exactly one row
//! per constraint.  For the paper's placement models this shrinks every
//! relaxation solve by roughly 3× in rows compared with the earlier
//! formulation that added one `x ≤ u` row per binary.
//!
//! The tableau is dense but holds only the nonbasic columns of `B⁻¹A` (see
//! [`LpState`]): a basic column is the unit vector of its row, so a pivot
//! updates and a warm-start clone copies `rows × (cols − rows)` entries
//! instead of `rows × cols`.  The flash/RAM placement models are a few
//! hundred variables and constraints, so there is no factorization — just
//! Dantzig pricing and an anti-cycling fallback to Bland's rule that is
//! triggered by *detected degeneracy* (a long run of zero-progress pivots)
//! and resets whenever the objective moves, so a long phase 1 can never
//! leave phase 2 stuck in slow Bland mode.
//!
//! Three entry points matter to callers:
//!
//! * [`SimplexSolver::solve_tracked`] — a cold two-phase solve that returns
//!   the optimal [`LpState`] alongside the solution,
//! * [`SimplexSolver::resolve`] — a **dual simplex** re-solve from a
//!   previously solved state after tightening variable bounds or appending
//!   rows, used by branch-and-bound to warm-start child nodes and cut
//!   rounds, and
//! * [`SimplexSolver::reenter`] — the same repair after right-hand sides
//!   moved, used to chain root relaxations across frontier sweep points.

use crate::basis::LpState;
use crate::expr::Var;
use crate::problem::{Cmp, Problem, Sense, Solution, VarKind};

/// Result of an LP relaxation solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplexOutcome {
    /// An optimal solution of the relaxation.
    Optimal(Solution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration budget was exhausted before reaching optimality.
    IterationLimit,
    /// The model is structurally malformed (an expression references an
    /// undefined variable, or a bound is not a number).  Distinct from
    /// [`SimplexOutcome::Infeasible`]: an invalid model indicates a bug in
    /// the caller, not an over-constrained model.
    InvalidModel(String),
}

impl SimplexOutcome {
    /// The solution, if the outcome is optimal.
    pub fn solution(self) -> Option<Solution> {
        match self {
            SimplexOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Outcome of a tracked LP solve: the result, the pivot count, and — when
/// optimal — the solved state for warm starts.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// What the solve concluded.
    pub outcome: SimplexOutcome,
    /// Number of basis changes performed (bound flips excluded).
    pub pivots: usize,
    /// The solved tableau state, present when the outcome is optimal.
    pub state: Option<LpState>,
}

impl LpResult {
    fn plain(outcome: SimplexOutcome, pivots: usize) -> LpResult {
        LpResult {
            outcome,
            pivots,
            state: None,
        }
    }
}

/// Configuration of the simplex solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexSolver {
    /// Maximum number of iterations (pivots and bound flips) per solve.
    pub max_iterations: usize,
    /// Numerical tolerance.
    pub tolerance: f64,
}

impl Default for SimplexSolver {
    fn default() -> Self {
        SimplexSolver {
            max_iterations: 50_000,
            tolerance: 1e-7,
        }
    }
}

/// Consecutive degenerate (zero-progress) iterations before the pricing
/// falls back to Bland's rule.  Any progress resets the counter, so the
/// anti-cycling mode is entered per detected stall — never inherited from an
/// earlier phase.
const DEGENERACY_STREAK: usize = 64;

enum PhaseResult {
    Optimal,
    Unbounded,
    IterationLimit,
}

impl SimplexSolver {
    /// Create a solver with default limits.
    pub fn new() -> SimplexSolver {
        SimplexSolver::default()
    }

    /// Solve the LP relaxation of `problem` (binary variables relaxed to
    /// `[0,1]`), optionally with extra fixings `(var, value)` used by
    /// branch-and-bound.  Fixings are applied as degenerate bounds
    /// (`lower = upper = value`), never as rows.
    pub fn solve_relaxation(&self, problem: &Problem, fixings: &[(Var, f64)]) -> SimplexOutcome {
        self.solve_tracked(problem, fixings).outcome
    }

    /// Like [`SimplexSolver::solve_relaxation`], but also returns the pivot
    /// count and (on optimality) the solved [`LpState`] for warm starts.
    pub fn solve_tracked(&self, problem: &Problem, fixings: &[(Var, f64)]) -> LpResult {
        if let Err(e) = problem.check() {
            return LpResult::plain(SimplexOutcome::InvalidModel(e.to_string()), 0);
        }
        let n = problem.num_vars();

        // Native bounds per structural variable.
        let mut lo = vec![0.0f64; n];
        let mut up = vec![f64::INFINITY; n];
        for (i, def) in problem.vars().iter().enumerate() {
            match def.kind {
                VarKind::Binary => {
                    lo[i] = 0.0;
                    up[i] = 1.0;
                }
                VarKind::Continuous { lower, upper } => {
                    if !lower.is_finite() {
                        return LpResult::plain(
                            SimplexOutcome::InvalidModel(format!(
                                "variable {} has a non-finite lower bound",
                                def.name
                            )),
                            0,
                        );
                    }
                    if upper.is_some_and(f64::is_nan) {
                        return LpResult::plain(
                            SimplexOutcome::InvalidModel(format!(
                                "variable {} has a NaN upper bound",
                                def.name
                            )),
                            0,
                        );
                    }
                    lo[i] = lower;
                    up[i] = upper.unwrap_or(f64::INFINITY);
                }
            }
        }
        for (v, val) in fixings {
            if v.index() >= n {
                return LpResult::plain(
                    SimplexOutcome::InvalidModel(format!(
                        "fixing references {v} but only {n} variables are defined"
                    )),
                    0,
                );
            }
            if !val.is_finite() {
                return LpResult::plain(
                    SimplexOutcome::InvalidModel(format!("fixing of {v} to {val} is not finite")),
                    0,
                );
            }
            lo[v.index()] = *val;
            up[v.index()] = *val;
        }
        for i in 0..n {
            if lo[i] > up[i] + self.tolerance {
                return LpResult::plain(SimplexOutcome::Infeasible, 0);
            }
        }

        let state = self.build_state(problem, lo, up);
        self.solve_state(problem, state)
    }

    /// Warm re-solve from a previously solved state after tightening bounds:
    /// each `(var, value)` fixing sets `lower = upper = value`, and every
    /// constraint the problem has beyond the state's rows is appended (see
    /// `LpState::append_rows`).  Tightened bounds and appended rows both
    /// leave the parent's reduced costs dual feasible, so the **dual
    /// simplex** restores primal feasibility from the parent basis — usually
    /// in a handful of pivots instead of a full cold solve.
    ///
    /// Branch-and-bound warm-starts every child node through here, including
    /// nodes snapshotted before a cutting plane was appended: each new row
    /// enters with its slack basic and zero reduced cost.  A caller that
    /// still needs its state afterwards passes a clone.
    ///
    /// A problem with a different variable count, or with fewer constraints
    /// than the state has rows, is an [`SimplexOutcome::InvalidModel`]: rows
    /// may only be appended.
    pub fn resolve(&self, problem: &Problem, mut st: LpState, fixings: &[(Var, f64)]) -> LpResult {
        if problem.num_vars() != st.n || problem.num_constraints() < st.num_rows() {
            return LpResult::plain(
                SimplexOutcome::InvalidModel(format!(
                    "resolve: problem has {} vars × {} constraints but the state \
                     was solved for {} × {} — rows may only be appended",
                    problem.num_vars(),
                    problem.num_constraints(),
                    st.n,
                    st.num_rows()
                )),
                0,
            );
        }
        if let Err(e) = self.apply_fixings(&mut st, fixings) {
            return *e;
        }
        let missing: Vec<(Vec<f64>, f64, f64, f64)> = problem.constraints()[st.num_rows()..]
            .iter()
            .map(|c| {
                let mut coeffs = vec![0.0; st.n];
                for (v, k) in c.expr.terms() {
                    coeffs[v.index()] += k;
                }
                let (slo, sup) = match c.op {
                    Cmp::Le => (0.0, f64::INFINITY),
                    Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                    Cmp::Eq => (0.0, 0.0),
                };
                (coeffs, c.rhs, slo, sup)
            })
            .collect();
        st.append_rows(&missing);
        self.repair_and_extract(problem, st)
    }

    /// Tighten `(var, value)` fixings into a state's bounds, moving nonbasic
    /// variables onto their new degenerate bound (the basic values absorb
    /// the shift).  Shared by both warm-restart entry points.
    fn apply_fixings(&self, st: &mut LpState, fixings: &[(Var, f64)]) -> Result<(), Box<LpResult>> {
        for (v, val) in fixings {
            let j = v.index();
            if j >= st.n {
                return Err(Box::new(LpResult::plain(
                    SimplexOutcome::InvalidModel(format!(
                        "fixing references {v} but the state has {} variables",
                        st.n
                    )),
                    0,
                )));
            }
            if !val.is_finite() {
                return Err(Box::new(LpResult::plain(
                    SimplexOutcome::InvalidModel(format!("fixing of {v} to {val} is not finite")),
                    0,
                )));
            }
            let old = st.value_of(j);
            st.lo[j] = *val;
            st.up[j] = *val;
            if !st.is_basic(j) {
                let delta = *val - old;
                if delta != 0.0 {
                    st.shift_by_column(j, delta);
                }
                st.at_upper[j] = false;
            }
        }
        Ok(())
    }

    /// Re-enter a state of the **same problem structure** after its
    /// constraint right-hand sides were mutated in place (see
    /// [`crate::Problem::set_rhs`]) and its variable bounds may have gone
    /// stale: reset every structural column to its native bound from the
    /// problem, apply the given fixings on top, absorb the right-hand-side
    /// deltas, and dual-repair.
    ///
    /// This is the frontier-chaining entry point.  A root state carried from
    /// one sweep point to the next may have been solved with presolve
    /// fixings that are **no longer valid** at the new budgets (a block that
    /// was trivially flash-resident can fit again after the budget relaxes),
    /// so the bound state is reset instead of trusted.  Nonbasic columns are
    /// moved to the native bound nearest their current resting value, which
    /// keeps the shift — and therefore the dual-repair work — minimal.
    ///
    /// An RHS change moves the basic variables by `B⁻¹·Δb` (read off the
    /// slack columns of the tableau — a basic slack's column is the unit
    /// vector of its row) and leaves the reduced costs untouched,
    /// so — exactly as for bound tightenings — the old basis stays dual
    /// feasible.  The deltas are computed against the right-hand sides
    /// recorded in the state, so the caller only mutates the problem and
    /// hands back the old state.  A problem whose variable or constraint
    /// count differs from the state is an [`SimplexOutcome::InvalidModel`].
    pub fn reenter(&self, problem: &Problem, mut st: LpState, fixings: &[(Var, f64)]) -> LpResult {
        if problem.num_vars() != st.n || problem.num_constraints() != st.num_rows() {
            return LpResult::plain(
                SimplexOutcome::InvalidModel(format!(
                    "reenter: problem has {} vars × {} constraints but the state \
                     was solved for {} × {} — only right-hand sides may change \
                     between chained solves",
                    problem.num_vars(),
                    problem.num_constraints(),
                    st.n,
                    st.num_rows()
                )),
                0,
            );
        }
        // Reset structural bounds to their native values.
        for (j, def) in problem.vars().iter().enumerate() {
            let (nlo, nup) = match def.kind {
                VarKind::Binary => (0.0, 1.0),
                VarKind::Continuous { lower, upper } => {
                    if !lower.is_finite() || upper.is_some_and(f64::is_nan) {
                        return LpResult::plain(
                            SimplexOutcome::InvalidModel(format!(
                                "variable {} has a non-finite bound",
                                def.name
                            )),
                            0,
                        );
                    }
                    (lower, upper.unwrap_or(f64::INFINITY))
                }
            };
            if st.lo[j] == nlo && st.up[j] == nup {
                continue;
            }
            let old = st.value_of(j);
            st.lo[j] = nlo;
            st.up[j] = nup;
            if !st.is_basic(j) {
                // Rest at the native bound nearest the old value.
                let to_upper = nup.is_finite() && (nup - old).abs() < (old - nlo).abs();
                let target = if to_upper { nup } else { nlo };
                let delta = target - old;
                if delta != 0.0 {
                    st.shift_by_column(j, delta);
                }
                st.at_upper[j] = to_upper;
            }
        }
        if let Err(e) = self.apply_fixings(&mut st, fixings) {
            return *e;
        }
        for (row, c) in problem.constraints().iter().enumerate() {
            let delta = c.rhs - st.rhs[row];
            if !delta.is_finite() {
                return LpResult::plain(
                    SimplexOutcome::InvalidModel(format!(
                        "constraint {row} right-hand side {} is not finite",
                        c.rhs
                    )),
                    0,
                );
            }
            if delta != 0.0 {
                // In the initial tableau the unit column of row `row` is its
                // slack column (up to the build-time row sign, which cancels
                // against the same sign on the right-hand side), so the
                // current slack column *is* `B⁻¹·e_row` and the basic values
                // shift by `delta` times it.
                st.shift_by_column(st.n + row, -delta);
                st.rhs[row] = c.rhs;
            }
        }
        self.repair_and_extract(problem, st)
    }

    /// Shared warm-restart tail: dual simplex to repair primal feasibility,
    /// primal cleanup, then extraction.
    fn repair_and_extract(&self, problem: &Problem, mut st: LpState) -> LpResult {
        let mut iterations = 0usize;
        let mut pivots = 0usize;
        match self.dual_phase(&mut st, &mut iterations, &mut pivots) {
            PhaseResult::Optimal => {}
            PhaseResult::Unbounded => {
                return LpResult::plain(SimplexOutcome::Infeasible, pivots);
            }
            PhaseResult::IterationLimit => {
                return LpResult::plain(SimplexOutcome::IterationLimit, pivots);
            }
        }
        // Primal cleanup: a no-op when the dual solve kept optimality, but it
        // absorbs reduced-cost drift accumulated over long warm-start chains.
        match self.primal_phase(&mut st, None, &mut iterations, &mut pivots) {
            PhaseResult::Optimal => {}
            PhaseResult::Unbounded => {
                return LpResult::plain(SimplexOutcome::Unbounded, pivots);
            }
            PhaseResult::IterationLimit => {
                return LpResult::plain(SimplexOutcome::IterationLimit, pivots);
            }
        }
        let solution = self.extract(problem, &st);
        LpResult {
            outcome: SimplexOutcome::Optimal(solution),
            pivots,
            state: Some(st),
        }
    }

    /// Build the initial tableau state: one row per constraint, one slack per
    /// row (bounded to encode `≤` / `≥` / `=`), and an artificial column only
    /// for rows whose slack cannot absorb the initial residual.
    fn build_state(&self, problem: &Problem, mut lo: Vec<f64>, mut up: Vec<f64>) -> LpState {
        let n = problem.num_vars();
        let m = problem.num_constraints();
        let slack_start = n;

        // Dense constraint rows over structural variables.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
        for c in problem.constraints() {
            let mut coeffs = vec![0.0; n];
            for (v, k) in c.expr.terms() {
                coeffs[v.index()] += k;
            }
            rows.push(coeffs);
        }

        // Slack bounds per comparison operator: a·x + s = rhs with
        //   ≤ : s ∈ [0, ∞)      ≥ : s ∈ (−∞, 0]      = : s ∈ [0, 0].
        for c in problem.constraints() {
            let (slo, sup) = match c.op {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lo.push(slo);
            up.push(sup);
        }

        // Start every structural variable nonbasic at its (finite) lower
        // bound and compute each row's residual; rows whose slack can hold
        // the residual start with the slack basic, the rest get an
        // artificial column.
        let residuals: Vec<f64> = problem
            .constraints()
            .iter()
            .zip(&rows)
            .map(|(c, coeffs)| {
                let dot: f64 = coeffs.iter().zip(&lo).map(|(k, l)| k * l).sum();
                c.rhs - dot
            })
            .collect();
        let needs_artificial: Vec<bool> = residuals
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let s = slack_start + i;
                *r < lo[s] - self.tolerance || *r > up[s] + self.tolerance
            })
            .collect();
        let num_art = needs_artificial.iter().filter(|b| **b).count();
        let artificial_start = n + m;
        let cols = artificial_start + num_art;

        // Stored columns: every structural, plus the slack of each row that
        // starts with its artificial basic.  The initial basis — the other
        // slacks and every artificial — is unit columns, never stored.
        let mut nonbasic: Vec<usize> = (0..n).collect();
        nonbasic.extend(
            (0..m)
                .filter(|&i| needs_artificial[i])
                .map(|i| slack_start + i),
        );
        let width = nonbasic.len();
        debug_assert_eq!(width, cols - m);
        let mut pos_of = vec![usize::MAX; cols];
        for (pos, &j) in nonbasic.iter().enumerate() {
            pos_of[j] = pos;
        }

        let mut a = vec![0.0; m * width];
        let mut xb = vec![0.0; m];
        let mut basis = vec![0usize; m];
        let mut at_upper = vec![false; cols];
        let mut next_art = artificial_start;
        for (i, coeffs) in rows.into_iter().enumerate() {
            let row = &mut a[i * width..(i + 1) * width];
            row[..n].copy_from_slice(&coeffs);
            let s = slack_start + i;
            if needs_artificial[i] {
                // Park the slack at the bound nearest the residual and give
                // the artificial the (positive) remainder.
                let clamped = residuals[i].max(lo[s]).min(up[s]);
                at_upper[s] = (clamped - up[s]).abs() <= (clamped - lo[s]).abs();
                let remainder = residuals[i] - clamped;
                row[pos_of[s]] = 1.0;
                if remainder < 0.0 {
                    for v in row.iter_mut() {
                        *v = -*v;
                    }
                }
                xb[i] = remainder.abs();
                basis[i] = next_art;
                lo.push(0.0);
                up.push(f64::INFINITY);
                next_art += 1;
            } else {
                xb[i] = residuals[i];
                basis[i] = s;
            }
        }
        debug_assert_eq!(lo.len(), cols);

        let mut row_of = vec![usize::MAX; cols];
        for (i, &b) in basis.iter().enumerate() {
            row_of[b] = i;
        }

        // Phase-2 reduced costs: the objective in minimization form.  The
        // initial basis (slacks and artificials) has zero objective cost, so
        // the reduced costs start as the cost vector itself.
        let sign = match problem.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut d = vec![0.0; cols];
        for (v, k) in problem.objective().terms() {
            d[v.index()] += sign * k;
        }

        LpState {
            a,
            nonbasic,
            pos_of,
            xb,
            basis,
            row_of,
            at_upper,
            lo,
            up,
            d,
            rhs: problem.constraints().iter().map(|c| c.rhs).collect(),
            n,
            artificial_start,
            cols,
        }
    }

    /// Run the two primal phases on a freshly built state and extract the
    /// solution.
    fn solve_state(&self, problem: &Problem, mut st: LpState) -> LpResult {
        let mut iterations = 0usize;
        let mut pivots = 0usize;

        if st.num_artificials() > 0 {
            // Phase-1 reduced costs: minimize the sum of artificials.  The
            // artificial rows are identity on their artificial, so the
            // reduced cost of column j is 1[j artificial] − Σ_art-rows a[r][j]:
            // zero for every (basic) artificial, and only stored columns
            // have a nonzero sum.
            let mut d1 = vec![0.0; st.cols];
            for (row, &b) in st.basis.iter().enumerate() {
                if b >= st.artificial_start {
                    for (&j, aj) in st.nonbasic.iter().zip(st.row(row)) {
                        d1[j] -= aj;
                    }
                }
            }
            match self.primal_phase(&mut st, Some(&mut d1), &mut iterations, &mut pivots) {
                PhaseResult::Optimal => {}
                // The phase-1 objective is bounded below by zero, so an
                // "unbounded" answer is a numerical failure: report the
                // model as infeasible rather than returning garbage.
                PhaseResult::Unbounded => {
                    return LpResult::plain(SimplexOutcome::Infeasible, pivots);
                }
                PhaseResult::IterationLimit => {
                    return LpResult::plain(SimplexOutcome::IterationLimit, pivots);
                }
            }
            let infeasibility: f64 = st
                .basis
                .iter()
                .zip(&st.xb)
                .filter(|(b, _)| **b >= st.artificial_start)
                .map(|(_, v)| *v)
                .sum();
            if infeasibility > self.tolerance * 10.0 {
                return LpResult::plain(SimplexOutcome::Infeasible, pivots);
            }
            // Drive every still-basic artificial (at level zero) out of the
            // basis with a degenerate pivot so later phases can never
            // re-inflate it.  A row whose structural and slack coefficients
            // are all ~0 is redundant and may keep its artificial.
            for row in 0..st.num_rows() {
                if st.basis[row] >= st.artificial_start {
                    let col = (0..st.artificial_start).find(|&j| {
                        !st.is_basic(j) && st.row(row)[st.pos_of[j]].abs() > self.tolerance
                    });
                    if let Some(col) = col {
                        let value = st.value_of(col);
                        self.do_pivot(&mut st, row, col, value, false, None);
                        pivots += 1;
                    }
                }
            }
            // Pin the artificials so no later bound flip can move them.
            for j in st.artificial_start..st.cols {
                st.up[j] = 0.0;
            }
        }

        match self.primal_phase(&mut st, None, &mut iterations, &mut pivots) {
            PhaseResult::Optimal => {}
            PhaseResult::Unbounded => return LpResult::plain(SimplexOutcome::Unbounded, pivots),
            PhaseResult::IterationLimit => {
                return LpResult::plain(SimplexOutcome::IterationLimit, pivots);
            }
        }

        let solution = self.extract(problem, &st);
        LpResult {
            outcome: SimplexOutcome::Optimal(solution),
            pivots,
            state: Some(st),
        }
    }

    /// One primal simplex phase.  With `d1 = Some(..)` the pricing uses the
    /// phase-1 infeasibility costs (and keeps both cost rows updated);
    /// otherwise it uses the phase-2 reduced costs in `st.d`.  Artificial
    /// columns are never allowed to enter.
    ///
    /// Anti-cycling is per *detected stall*: after [`DEGENERACY_STREAK`]
    /// consecutive zero-progress iterations the pricing switches to Bland's
    /// rule, and any progress switches it back — the threshold is never
    /// carried over from a previous phase.
    fn primal_phase(
        &self,
        st: &mut LpState,
        mut d1: Option<&mut Vec<f64>>,
        iterations: &mut usize,
        pivots: &mut usize,
    ) -> PhaseResult {
        let mut degenerate_streak = 0usize;
        loop {
            if *iterations >= self.max_iterations {
                return PhaseResult::IterationLimit;
            }
            *iterations += 1;
            let use_bland = degenerate_streak >= DEGENERACY_STREAK;

            // Entering column: nonbasic, non-fixed, profitable to move off
            // its bound (increase from lower when d < 0, decrease from upper
            // when d > 0 — minimization form).
            let enter = {
                let cost: &[f64] = match &d1 {
                    Some(d) => d,
                    None => &st.d,
                };
                let mut enter: Option<(usize, f64)> = None;
                for (j, &dj) in cost.iter().enumerate().take(st.artificial_start) {
                    if st.is_basic(j) || st.up[j] - st.lo[j] <= self.tolerance {
                        continue;
                    }
                    let eligible = (!st.at_upper[j] && dj < -self.tolerance)
                        || (st.at_upper[j] && dj > self.tolerance);
                    if !eligible {
                        continue;
                    }
                    if use_bland {
                        enter = Some((j, dj));
                        break;
                    }
                    if enter.is_none_or(|(_, best)| dj.abs() > best.abs()) {
                        enter = Some((j, dj));
                    }
                }
                enter
            };
            let Some((enter, _)) = enter else {
                return PhaseResult::Optimal;
            };
            let t = if st.at_upper[enter] { -1.0 } else { 1.0 };

            // Ratio test: the entering variable moves by Δ ≥ 0 in direction
            // `t`; each basic variable blocks at the bound it drifts toward,
            // and the entering variable itself blocks at its opposite bound
            // (a bound flip — no pivot needed).
            let mut limit = st.up[enter] - st.lo[enter];
            let mut leave: Option<(usize, bool)> = None;
            let pos = st.pos_of[enter];
            for row in 0..st.num_rows() {
                let w = t * st.row(row)[pos];
                let b = st.basis[row];
                let (room, hits_upper) = if w > self.tolerance {
                    (st.xb[row] - st.lo[b], false)
                } else if w < -self.tolerance {
                    (st.up[b] - st.xb[row], true)
                } else {
                    continue;
                };
                if room.is_infinite() {
                    continue;
                }
                let ratio = room.max(0.0) / w.abs();
                let strictly_better = ratio < limit - self.tolerance;
                let tie = (ratio - limit).abs() <= self.tolerance;
                let tie_break = tie
                    && match leave {
                        None => false, // tie with the bound-flip limit: keep the flip
                        Some((lr, _)) => {
                            if use_bland {
                                st.basis[row] < st.basis[lr]
                            } else {
                                st.row(row)[pos].abs() > st.row(lr)[pos].abs()
                            }
                        }
                    };
                if strictly_better || tie_break {
                    limit = ratio;
                    leave = Some((row, hits_upper));
                }
            }

            if limit.is_infinite() {
                return PhaseResult::Unbounded;
            }
            let progress = limit > self.tolerance;
            match leave {
                None => {
                    // Bound flip: the entering variable runs to its other
                    // bound; only the basic values move.
                    st.shift_by_column(enter, t * limit);
                    st.at_upper[enter] = !st.at_upper[enter];
                }
                Some((row, hits_upper)) => {
                    let new_value = st.value_of(enter) + t * limit;
                    self.do_pivot(st, row, enter, new_value, hits_upper, d1.as_deref_mut());
                    *pivots += 1;
                }
            }
            if progress {
                degenerate_streak = 0;
            } else {
                degenerate_streak += 1;
            }
        }
    }

    /// The dual simplex: repair primal feasibility after bound tightenings
    /// while preserving dual feasibility of the reduced costs.
    fn dual_phase(
        &self,
        st: &mut LpState,
        iterations: &mut usize,
        pivots: &mut usize,
    ) -> PhaseResult {
        // Same degeneracy-triggered anti-cycling as the primal phases: a
        // streak of zero-progress (ratio ≈ 0) pivots switches both choices
        // to lowest-index Bland selection until the dual objective moves.
        let mut degenerate_streak = 0usize;
        loop {
            if *iterations >= self.max_iterations {
                return PhaseResult::IterationLimit;
            }
            *iterations += 1;
            let use_bland = degenerate_streak >= DEGENERACY_STREAK;

            // Leaving row: the basic variable with the largest bound
            // violation (under Bland: the violated row with the smallest
            // basis column); it will leave at the violated bound.
            let mut leave: Option<(usize, f64, bool)> = None;
            let mut worst = self.tolerance * 10.0;
            for row in 0..st.num_rows() {
                let b = st.basis[row];
                let below = st.lo[b] - st.xb[row];
                let above = st.xb[row] - st.up[b];
                let (violation, target, at_upper) = if below > above {
                    (below, st.lo[b], false)
                } else {
                    (above, st.up[b], true)
                };
                if violation <= self.tolerance * 10.0 {
                    continue;
                }
                let better = if use_bland {
                    leave.is_none_or(|(lr, _, _)| b < st.basis[lr])
                } else {
                    violation > worst
                };
                if better {
                    worst = violation;
                    leave = Some((row, target, at_upper));
                }
            }
            let Some((row, target, above)) = leave else {
                return PhaseResult::Optimal;
            };

            // Entering column via the dual ratio test: among the nonbasic
            // columns whose movement can push the leaving variable toward
            // its bound, the one whose reduced cost reaches zero first —
            // that keeps every other reduced cost dual feasible.  Ties go
            // to the larger pivot element for stability, or to the smaller
            // column index in Bland mode.
            let mut enter: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let a_row = st.row(row);
            for j in 0..st.artificial_start {
                if st.is_basic(j) || st.up[j] - st.lo[j] <= self.tolerance {
                    continue;
                }
                let a = a_row[st.pos_of[j]];
                if a.abs() <= self.tolerance {
                    continue;
                }
                let pushes = if above {
                    (!st.at_upper[j] && a > 0.0) || (st.at_upper[j] && a < 0.0)
                } else {
                    (!st.at_upper[j] && a < 0.0) || (st.at_upper[j] && a > 0.0)
                };
                if !pushes {
                    continue;
                }
                let ratio = (st.d[j] / a).abs();
                let strictly_better = ratio < best_ratio - self.tolerance;
                let tie = (ratio - best_ratio).abs() <= self.tolerance;
                let tie_break = tie
                    && enter.is_some_and(|e| {
                        if use_bland {
                            j < e
                        } else {
                            a.abs() > a_row[st.pos_of[e]].abs()
                        }
                    });
                if strictly_better || tie_break {
                    best_ratio = ratio;
                    enter = Some(j);
                }
            }
            // No column can move the violated basic variable toward its
            // bound: the tightened bounds admit no feasible point.
            let Some(enter) = enter else {
                return PhaseResult::Unbounded;
            };

            if best_ratio > self.tolerance {
                degenerate_streak = 0;
            } else {
                degenerate_streak += 1;
            }
            let change = (st.xb[row] - target) / a_row[st.pos_of[enter]];
            let new_value = st.value_of(enter) + change;
            self.do_pivot(st, row, enter, new_value, above, None);
            *pivots += 1;
        }
    }

    /// Perform a pivot: update the basic values, swap the basis bookkeeping,
    /// eliminate the entering column, and update the reduced-cost rows.
    ///
    /// The leaving column takes over the entering column's stored position:
    /// its old column was the unit vector of `row`, so after the pivot it is
    /// `1/pivot` in `row` and `−factor/pivot` in every other row.
    ///
    /// `new_value` is the value the entering variable takes; `leaves_at_upper`
    /// records at which bound the leaving variable comes to rest.
    fn do_pivot(
        &self,
        st: &mut LpState,
        row: usize,
        enter: usize,
        new_value: f64,
        leaves_at_upper: bool,
        d1: Option<&mut Vec<f64>>,
    ) {
        let change = new_value - st.value_of(enter);
        if change != 0.0 {
            st.shift_by_column(enter, change);
        }
        st.xb[row] = new_value;

        let s = st.pos_of[enter];
        let width = st.width();

        let leaving = st.basis[row];
        st.at_upper[leaving] = leaves_at_upper;
        st.row_of[leaving] = usize::MAX;
        st.pos_of[leaving] = s;
        st.nonbasic[s] = leaving;
        st.basis[row] = enter;
        st.row_of[enter] = row;
        st.pos_of[enter] = usize::MAX;
        st.at_upper[enter] = false;

        let (before, rest) = st.a.split_at_mut(row * width);
        let (pivot_row, after) = rest.split_at_mut(width);
        let pivot = pivot_row[s];
        debug_assert!(pivot.abs() > self.tolerance);
        let inv = 1.0 / pivot;
        for v in pivot_row.iter_mut() {
            *v *= inv;
        }
        pivot_row[s] = inv;
        for other in before
            .chunks_exact_mut(width)
            .chain(after.chunks_exact_mut(width))
        {
            let factor = other[s];
            if factor != 0.0 {
                for (o, p) in other.iter_mut().zip(pivot_row.iter()) {
                    *o -= factor * p;
                }
                other[s] = 0.0 - factor * inv;
            }
        }
        let f2 = st.d[enter];
        if f2 != 0.0 {
            for (&j, p) in st.nonbasic.iter().zip(pivot_row.iter()) {
                st.d[j] -= f2 * p;
            }
        }
        st.d[enter] = 0.0;
        if let Some(d1) = d1 {
            let f1 = d1[enter];
            if f1 != 0.0 {
                for (&j, p) in st.nonbasic.iter().zip(pivot_row.iter()) {
                    d1[j] -= f1 * p;
                }
            }
            d1[enter] = 0.0;
        }
    }

    /// Read the structural values out of a solved state.
    fn extract(&self, problem: &Problem, st: &LpState) -> Solution {
        let mut values = vec![0.0; st.n];
        for (j, v) in values.iter_mut().enumerate() {
            // Clamp tolerance-level drift back into the variable's bounds.
            *v = st.value_of(j).max(st.lo[j]).min(st.up[j]);
        }
        let objective = problem.objective_value(&values);
        Solution { values, objective }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinearExpr;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn maximization_with_two_constraints() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, obj=36.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, None);
        let y = p.add_continuous("y", 0.0, None);
        p.add_constraint(LinearExpr::var(x), Cmp::Le, 4.0);
        p.add_constraint(LinearExpr::from_terms([(y, 2.0)]), Cmp::Le, 12.0);
        p.add_constraint(LinearExpr::from_terms([(x, 3.0), (y, 2.0)]), Cmp::Le, 18.0);
        p.set_objective(LinearExpr::from_terms([(x, 3.0), (y, 5.0)]));
        let sol = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .unwrap();
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
        assert_close(sol.objective, 36.0);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 => x=7, y=3, obj=23.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, None);
        let y = p.add_continuous("y", 0.0, None);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 10.0);
        p.add_constraint(LinearExpr::var(x), Cmp::Ge, 2.0);
        p.add_constraint(LinearExpr::var(y), Cmp::Ge, 3.0);
        p.set_objective(LinearExpr::from_terms([(x, 2.0), (y, 3.0)]));
        let sol = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .unwrap();
        assert_close(sol.objective, 23.0);
        assert_close(sol.value(x), 7.0);
        assert_close(sol.value(y), 3.0);
    }

    #[test]
    fn equality_constraints_are_respected() {
        // min x + y s.t. x + y = 5, x - y = 1 => x=3, y=2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, None);
        let y = p.add_continuous("y", 0.0, None);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Eq, 5.0);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, -1.0)]), Cmp::Eq, 1.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .unwrap();
        assert_close(sol.value(x), 3.0);
        assert_close(sol.value(y), 2.0);
    }

    #[test]
    fn infeasible_system_is_reported() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, None);
        p.add_constraint(LinearExpr::var(x), Cmp::Ge, 5.0);
        p.add_constraint(LinearExpr::var(x), Cmp::Le, 1.0);
        p.set_objective(LinearExpr::var(x));
        assert_eq!(
            SimplexSolver::new().solve_relaxation(&p, &[]),
            SimplexOutcome::Infeasible
        );
    }

    #[test]
    fn unbounded_problem_is_reported() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, None);
        p.set_objective(LinearExpr::var(x));
        assert_eq!(
            SimplexSolver::new().solve_relaxation(&p, &[]),
            SimplexOutcome::Unbounded
        );
    }

    #[test]
    fn binary_relaxation_and_upper_bounds() {
        // max x + y with x binary, y ≤ 0.3: relaxation picks x = 1, y = 0.3.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary("x");
        let y = p.add_continuous("y", 0.0, Some(0.3));
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .unwrap();
        assert_close(sol.value(x), 1.0);
        assert_close(sol.value(y), 0.3);
    }

    #[test]
    fn fixings_pin_variables() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 1.0);
        p.set_objective(LinearExpr::from_terms([(x, 2.0), (y, 1.0)]));
        let sol = SimplexSolver::new()
            .solve_relaxation(&p, &[(x, 0.0)])
            .solution()
            .unwrap();
        assert_close(sol.value(x), 0.0);
        assert_close(sol.value(y), 1.0);
    }

    #[test]
    fn nonzero_lower_bounds_are_shifted_correctly() {
        // min x + y with x ≥ 2, y ≥ 1.5, x + y ≥ 5 → obj 5 at e.g. (3.5, 1.5).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 2.0, None);
        let y = p.add_continuous("y", 1.5, None);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .unwrap();
        assert_close(sol.objective, 5.0);
        assert!(sol.value(x) >= 2.0 - 1e-7);
        assert!(sol.value(y) >= 1.5 - 1e-7);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // x - y <= -1 (i.e. y >= x + 1), minimize y with x >= 0 → x=0, y=1.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, None);
        let y = p.add_continuous("y", 0.0, None);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, -1.0)]), Cmp::Le, -1.0);
        p.set_objective(LinearExpr::var(y));
        let sol = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .unwrap();
        assert_close(sol.value(y), 1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Several redundant constraints through the same vertex.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, None);
        let y = p.add_continuous("y", 0.0, None);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 1.0);
        p.add_constraint(LinearExpr::from_terms([(x, 2.0), (y, 2.0)]), Cmp::Le, 2.0);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0)]), Cmp::Le, 1.0);
        p.add_constraint(LinearExpr::from_terms([(y, 1.0)]), Cmp::Le, 1.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn empty_objective_is_fine() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, Some(3.0));
        p.add_constraint(LinearExpr::var(x), Cmp::Ge, 1.0);
        let sol = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .unwrap();
        assert!(sol.value(x) >= 1.0 - 1e-7);
        assert_close(sol.objective, 0.0);
    }

    // ------------------------------------------------------------------
    // Bounded-variable specifics.
    // ------------------------------------------------------------------

    #[test]
    fn bounds_generate_no_rows_or_artificials() {
        // Three bounded variables, one constraint: the tableau must have
        // exactly one row and no artificial columns.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        let z = p.add_continuous("z", 0.5, Some(2.0));
        p.add_constraint(
            LinearExpr::from_terms([(x, 1.0), (y, 1.0), (z, 1.0)]),
            Cmp::Le,
            2.0,
        );
        p.set_objective(LinearExpr::from_terms([(x, 3.0), (y, 2.0), (z, 1.0)]));
        let result = SimplexSolver::new().solve_tracked(&p, &[]);
        let state = result.state.expect("optimal");
        assert_eq!(state.num_rows(), 1);
        assert_eq!(state.num_artificials(), 0);
    }

    #[test]
    fn fixings_generate_no_rows_or_artificials() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 2.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 3.0)]));
        let result = SimplexSolver::new().solve_tracked(&p, &[(x, 1.0), (y, 0.0)]);
        let state = result.state.expect("optimal");
        assert_eq!(state.num_rows(), 1);
        assert_eq!(state.num_artificials(), 0);
        let sol = result.outcome.solution().unwrap();
        assert_close(sol.value(x), 1.0);
        assert_close(sol.value(y), 0.0);
    }

    #[test]
    fn pure_bound_problem_flips_to_upper() {
        // No constraints at all: the optimum is found purely by bound flips.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", -1.0, Some(2.5));
        let y = p.add_binary("y");
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 4.0)]));
        let result = SimplexSolver::new().solve_tracked(&p, &[]);
        let sol = result.outcome.solution().unwrap();
        assert_close(sol.value(x), 2.5);
        assert_close(sol.value(y), 1.0);
        assert_eq!(result.pivots, 0, "bound flips are not pivots");
    }

    #[test]
    fn invalid_model_is_not_reported_as_infeasible() {
        // Regression: an objective referencing an undefined variable used to
        // come back as `Infeasible`, masking the caller's bug.
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_binary("x");
        p.set_objective(LinearExpr::from_terms([(Var(9), 1.0)]));
        assert!(matches!(
            SimplexSolver::new().solve_relaxation(&p, &[]),
            SimplexOutcome::InvalidModel(_)
        ));
        // An out-of-range fixing is a caller bug too.
        let mut q = Problem::new(Sense::Maximize);
        let x = q.add_binary("x");
        q.set_objective(LinearExpr::var(x));
        assert!(matches!(
            SimplexSolver::new().solve_relaxation(&q, &[(Var(3), 1.0)]),
            SimplexOutcome::InvalidModel(_)
        ));
        // Non-finite fixings are invalid on the cold and the warm path alike
        // (a NaN bound would otherwise be silently ignored by comparisons).
        assert!(matches!(
            SimplexSolver::new().solve_relaxation(&q, &[(x, f64::NAN)]),
            SimplexOutcome::InvalidModel(_)
        ));
        let state = SimplexSolver::new().solve_tracked(&q, &[]).state.unwrap();
        assert!(matches!(
            SimplexSolver::new()
                .resolve(&q, state, &[(x, f64::NAN)])
                .outcome,
            SimplexOutcome::InvalidModel(_)
        ));
    }

    #[test]
    fn contradictory_bounds_are_infeasible() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 2.0, Some(1.0));
        p.set_objective(LinearExpr::var(x));
        assert_eq!(
            SimplexSolver::new().solve_relaxation(&p, &[]),
            SimplexOutcome::Infeasible
        );
    }

    #[test]
    fn warm_restart_matches_cold_solve_with_fixing() {
        // Solve, then fix a variable both ways; the dual-simplex re-solve
        // must agree with a cold solve of the fixed problem.
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..6).map(|i| p.add_binary(format!("x{i}"))).collect();
        let weights = [3.0, 5.0, 2.0, 7.0, 4.0, 1.0];
        let values = [4.0, 6.0, 3.0, 8.0, 5.0, 1.5];
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            11.0,
        );
        p.add_constraint(
            LinearExpr::from_terms([(xs[0], 1.0), (xs[3], 1.0)]),
            Cmp::Le,
            1.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().copied().zip(values.iter().copied()),
        ));
        let solver = SimplexSolver::new();
        let root = solver.solve_tracked(&p, &[]);
        let state = root.state.expect("root optimal");
        for v in &xs {
            for val in [0.0, 1.0] {
                let warm = solver.resolve(&p, state.clone(), &[(*v, val)]);
                let cold = solver.solve_tracked(&p, &[(*v, val)]);
                match (warm.outcome, cold.outcome) {
                    (SimplexOutcome::Optimal(w), SimplexOutcome::Optimal(c)) => {
                        assert_close(w.objective, c.objective);
                    }
                    (SimplexOutcome::Infeasible, SimplexOutcome::Infeasible) => {}
                    (w, c) => panic!("warm {w:?} disagrees with cold {c:?}"),
                }
            }
        }
    }

    #[test]
    fn warm_restart_chain_tracks_nested_fixings() {
        // Fix variables one at a time along a chain of warm restarts and
        // check each level against a cold solve with the full fixing set.
        let mut p = Problem::new(Sense::Minimize);
        let xs: Vec<Var> = (0..5).map(|i| p.add_binary(format!("x{i}"))).collect();
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().map(|v| (*v, 1.0))),
            Cmp::Ge,
            2.0,
        );
        p.add_constraint(
            LinearExpr::from_terms([(xs[1], 2.0), (xs[2], 1.0), (xs[4], 3.0)]),
            Cmp::Le,
            4.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().enumerate().map(|(i, v)| (*v, 1.0 + i as f64)),
        ));
        let solver = SimplexSolver::new();
        let mut state = solver.solve_tracked(&p, &[]).state.expect("root optimal");
        let mut fixings: Vec<(Var, f64)> = Vec::new();
        for (v, val) in [(xs[0], 1.0), (xs[2], 1.0), (xs[4], 0.0)] {
            fixings.push((v, val));
            let warm = solver.resolve(&p, state, &[(v, val)]);
            let cold = solver.solve_tracked(&p, &fixings);
            let w = warm.outcome.solution().expect("warm optimal");
            let c = cold.outcome.solution().expect("cold optimal");
            assert_close(w.objective, c.objective);
            state = warm.state.expect("warm state");
        }
    }

    #[test]
    fn infeasible_fixing_is_detected_by_dual_simplex() {
        // x + y = 1: fixing both to 0 leaves no feasible point.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Eq, 1.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 2.0)]));
        let solver = SimplexSolver::new();
        let root = solver.solve_tracked(&p, &[]);
        let state = root.state.expect("root optimal");
        let step1 = solver.resolve(&p, state, &[(x, 0.0)]);
        let s1 = step1.outcome.solution().expect("still feasible");
        assert_close(s1.value(y), 1.0);
        let step2 = solver.resolve(&p, step1.state.unwrap(), &[(y, 0.0)]);
        assert_eq!(step2.outcome, SimplexOutcome::Infeasible);
    }

    /// `max x` s.t. `x ≤ 1`, solved and kept as a warm-start state.
    fn one_row_state() -> (Problem, Var, LpState) {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, None);
        p.add_constraint(LinearExpr::var(x), Cmp::Le, 1.0);
        p.set_objective(LinearExpr::var(x));
        let state = SimplexSolver::new()
            .solve_tracked(&p, &[])
            .state
            .expect("optimal");
        (p, x, state)
    }

    #[test]
    fn resolve_appends_the_rows_the_state_lacks() {
        // Regression: a warm resolve used to ignore rows added after the
        // state was solved and returned the now infeasible x = 1.
        let (mut p, x, state) = one_row_state();
        p.add_constraint(LinearExpr::var(x), Cmp::Le, 0.0);
        let warm = SimplexSolver::new().resolve(&p, state, &[]);
        let sol = warm.outcome.solution().expect("x = 0 is feasible");
        assert_close(sol.value(x), 0.0);
        assert!(p.is_feasible(&sol.values, 1e-9));
        assert_eq!(warm.state.expect("optimal").num_rows(), 2);
    }

    #[test]
    fn resolve_rejects_a_variable_count_mismatch() {
        // Regression: a variable the state lacks used to be dropped, giving
        // a one-value solution with objective 1 instead of 2.
        let (mut p, x, state) = one_row_state();
        let y = p.add_continuous("y", 0.0, Some(1.0));
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]));
        assert!(matches!(
            SimplexSolver::new().resolve(&p, state, &[]).outcome,
            SimplexOutcome::InvalidModel(_)
        ));
    }

    #[test]
    fn rhs_resolve_matches_cold_solves_along_a_chain() {
        // A knapsack-style LP: sweep the capacity row's right-hand side up
        // and down through a chain of warm restarts; every link must agree
        // with a cold solve of the mutated problem.
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..6).map(|i| p.add_binary(format!("x{i}"))).collect();
        let weights = [3.0, 5.0, 2.0, 7.0, 4.0, 1.0];
        let values = [4.0, 6.0, 3.0, 8.0, 5.0, 1.5];
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            11.0,
        );
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().map(|v| (*v, 1.0))),
            Cmp::Ge,
            1.0,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().copied().zip(values.iter().copied()),
        ));
        let solver = SimplexSolver::new();
        let mut state = solver.solve_tracked(&p, &[]).state.expect("root optimal");
        for capacity in [4.0, 22.0, 1.0, 9.5, 2.0] {
            p.set_rhs(0, capacity).unwrap();
            let warm = solver.reenter(&p, state, &[]);
            let cold = solver.solve_tracked(&p, &[]);
            let w = warm.outcome.solution().expect("warm optimal");
            let c = cold.outcome.solution().expect("cold optimal");
            assert_close(w.objective, c.objective);
            state = warm.state.expect("warm state");
            assert_eq!(state.solved_rhs()[0], capacity);
        }
    }

    #[test]
    fn rhs_resolve_detects_infeasibility() {
        // x + y ≤ c with x + y ≥ 1: dropping c below 1 has no feasible point.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 2.0);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 1.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 2.0)]));
        let solver = SimplexSolver::new();
        let state = solver.solve_tracked(&p, &[]).state.expect("optimal");
        p.set_rhs(0, 0.5).unwrap();
        let warm = solver.reenter(&p, state, &[]);
        assert_eq!(warm.outcome, SimplexOutcome::Infeasible);
    }

    #[test]
    fn rhs_resolve_rejects_structural_changes() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary("x");
        p.add_constraint(LinearExpr::var(x), Cmp::Le, 1.0);
        p.set_objective(LinearExpr::var(x));
        let solver = SimplexSolver::new();
        let state = solver.solve_tracked(&p, &[]).state.expect("optimal");
        // Adding a row (or a variable) invalidates the chained state.
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::var(y), Cmp::Le, 1.0);
        assert!(matches!(
            solver.reenter(&p, state, &[]).outcome,
            SimplexOutcome::InvalidModel(_)
        ));
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale's classic cycling instance for Dantzig pricing; the
        // degeneracy-triggered switch to Bland's rule must break the cycle.
        // min -0.75a + 150b - 0.02c + 6d
        //   s.t. 0.25a - 60b - 0.04c + 9d <= 0
        //        0.5a - 90b - 0.02c + 3d <= 0
        //        c <= 1     (native bound)
        // Optimum: -0.05 at a = 0.04/0.8... (objective value is what matters).
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_continuous("a", 0.0, None);
        let b = p.add_continuous("b", 0.0, None);
        let c = p.add_continuous("c", 0.0, Some(1.0));
        let d = p.add_continuous("d", 0.0, None);
        p.add_constraint(
            LinearExpr::from_terms([(a, 0.25), (b, -60.0), (c, -0.04), (d, 9.0)]),
            Cmp::Le,
            0.0,
        );
        p.add_constraint(
            LinearExpr::from_terms([(a, 0.5), (b, -90.0), (c, -0.02), (d, 3.0)]),
            Cmp::Le,
            0.0,
        );
        p.set_objective(LinearExpr::from_terms([
            (a, -0.75),
            (b, 150.0),
            (c, -0.02),
            (d, 6.0),
        ]));
        let sol = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .expect("must not cycle forever");
        assert_close(sol.objective, -0.05);
    }

    #[test]
    fn anti_cycling_is_not_inherited_across_phases() {
        // Regression for the shared Bland threshold: a problem whose phase 1
        // needs many pivots (25 equality rows → 25 artificials) must still
        // solve phase 2 promptly with Dantzig pricing.  With the old
        // cross-phase counter a small iteration budget pushed phase 2 into
        // permanent Bland mode; now the whole solve fits comfortably.
        let k = 25usize;
        let mut p = Problem::new(Sense::Maximize);
        let fixed: Vec<Var> = (0..k)
            .map(|i| p.add_continuous(format!("f{i}"), 0.0, None))
            .collect();
        let free: Vec<Var> = (0..k)
            .map(|i| p.add_continuous(format!("y{i}"), 0.0, None))
            .collect();
        let mut obj = LinearExpr::new();
        for (i, v) in fixed.iter().enumerate() {
            // f_i = const > 0: the initial slack basis cannot satisfy an
            // equality with a positive residual, forcing one artificial
            // (and so at least one phase-1 pivot) per row.
            p.add_constraint(LinearExpr::var(*v), Cmp::Eq, 2.0 + i as f64);
            obj.add_term(*v, 0.1);
        }
        for (i, v) in free.iter().enumerate() {
            p.add_constraint(LinearExpr::var(*v), Cmp::Le, 1.0 + i as f64);
            obj.add_term(*v, 1.0 + (i % 7) as f64);
        }
        p.set_objective(obj);
        let result = SimplexSolver::new().solve_tracked(&p, &[]);
        assert!(
            matches!(result.outcome, SimplexOutcome::Optimal(_)),
            "expected optimal, got {:?}",
            result.outcome
        );
        // Phase 1 needs ≈k pivots and phase 2 ≈k more; anything close to the
        // iteration budget would mean pricing got stuck in Bland mode.
        assert!(
            result.pivots <= 4 * k,
            "solve took {} pivots for k = {k}",
            result.pivots
        );
    }
}
