//! Simplex basis bookkeeping and the warm-start state.
//!
//! The bounded-variable simplex in [`crate::simplex`] works on an [`LpState`]:
//! the nonbasic columns of the tableau `B⁻¹A`, the values of the basic
//! variables, the nonbasic-at-upper flags and the active column bounds.
//! Branch-and-bound keeps the `LpState` of every solved relaxation and
//! re-solves child nodes from it with the dual simplex instead of a cold
//! two-phase solve — a bound change never disturbs the reduced costs, so the
//! parent's optimal basis stays dual feasible and typically needs only a
//! handful of pivots to restore primal feasibility.
//!
//! The tableau is held in dictionary (condensed) form: a basic column of
//! `B⁻¹A` is the unit vector of its row, so only the `cols − rows` nonbasic
//! columns are stored, row-major in one allocation (Chvátal, *Linear
//! Programming*, 1983, ch. 2–3).  A pivot swaps the leaving column into the
//! entering column's stored position.

/// The full state of a solved (or in-progress) LP: tableau, basis, bounds.
///
/// Cloning an `LpState` — one `memcpy` of the `rows × (cols − rows)`
/// nonbasic tableau plus the per-column vectors — and tightening a
/// variable's bounds, then running the dual simplex, is how branch-and-bound
/// warm-starts child nodes.  The state is opaque outside the crate apart
/// from the size accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct LpState {
    /// The nonbasic columns of `B⁻¹A`, row-major `rows × width` with
    /// `width = cols − rows`: entry `r * width + p` is row `r` of column
    /// `nonbasic[p]`.  A basic column is the unit vector of its row and is
    /// never stored.
    pub(crate) a: Vec<f64>,
    /// The column held at each stored position of `a`.
    pub(crate) nonbasic: Vec<usize>,
    /// Stored position of each column (`usize::MAX` when basic); the inverse
    /// of `nonbasic`.
    pub(crate) pos_of: Vec<usize>,
    /// Current value of the basic variable of each row.
    pub(crate) xb: Vec<f64>,
    /// Basic column per row.
    pub(crate) basis: Vec<usize>,
    /// Row in which a column is basic (`usize::MAX` when nonbasic).
    pub(crate) row_of: Vec<usize>,
    /// Whether a nonbasic column sits at its upper bound.
    pub(crate) at_upper: Vec<bool>,
    /// Lower bound per column (structural, slack and artificial).
    pub(crate) lo: Vec<f64>,
    /// Upper bound per column (`f64::INFINITY` when absent).
    pub(crate) up: Vec<f64>,
    /// Phase-2 reduced costs (minimization form), maintained across pivots
    /// for nonbasic columns and zero for basic ones.
    pub(crate) d: Vec<f64>,
    /// The constraint right-hand sides this state was last solved against
    /// (one per row, in the problem's row order and original sign).  Kept so
    /// [`crate::SimplexSolver::reenter`] can compute the deltas to a
    /// problem whose right-hand sides were mutated in place.
    pub(crate) rhs: Vec<f64>,
    /// Number of structural variables (columns `0..n`).
    pub(crate) n: usize,
    /// First artificial column (`cols` when the solve needed none).
    pub(crate) artificial_start: usize,
    /// Total number of columns.
    pub(crate) cols: usize,
}

impl LpState {
    /// Number of tableau rows — one per constraint of the source problem:
    /// variable bounds and branch fixings do **not** create rows.
    pub fn num_rows(&self) -> usize {
        self.xb.len()
    }

    /// Number of structural (problem) variables.
    pub fn num_structural(&self) -> usize {
        self.n
    }

    /// Number of phase-1 artificial columns the solve needed.
    pub fn num_artificials(&self) -> usize {
        self.cols - self.artificial_start
    }

    /// Total number of tableau columns (structurals + slacks + artificials).
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// The constraint right-hand sides this state was last solved against,
    /// one per row.  After [`reenter`](crate::SimplexSolver::reenter) this
    /// matches the problem's current right-hand sides.
    pub fn solved_rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// The current value of a column: its basic value if basic, otherwise
    /// the bound it rests at.
    pub(crate) fn value_of(&self, col: usize) -> f64 {
        let row = self.row_of[col];
        if row != usize::MAX {
            self.xb[row]
        } else if self.at_upper[col] {
            self.up[col]
        } else {
            self.lo[col]
        }
    }

    /// Whether a column is basic.
    pub(crate) fn is_basic(&self, col: usize) -> bool {
        self.row_of[col] != usize::MAX
    }

    /// Number of stored (nonbasic) tableau columns, `cols − rows`.
    pub(crate) fn width(&self) -> usize {
        self.nonbasic.len()
    }

    /// The stored entries of tableau row `r`, by stored position.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        let width = self.width();
        &self.a[r * width..(r + 1) * width]
    }

    /// Move the basic values by `step` along column `col` of `B⁻¹A`:
    /// `xb ← xb − step · B⁻¹a_col`.  A basic column is the unit vector of its
    /// row, so only that row's value moves.
    pub(crate) fn shift_by_column(&mut self, col: usize, step: f64) {
        let row = self.row_of[col];
        if row != usize::MAX {
            self.xb[row] -= step;
            return;
        }
        let column = self.a.iter().skip(self.pos_of[col]).step_by(self.width());
        for (xb, a) in self.xb.iter_mut().zip(column) {
            *xb -= a * step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LpState;
    use crate::expr::{LinearExpr, Var};
    use crate::problem::{Cmp, Problem, Sense};
    use crate::simplex::{LpResult, SimplexOutcome, SimplexSolver};

    #[test]
    fn state_dimensions_match_the_problem() {
        // Two constraints, two vars with native bounds: 2 rows, 4 columns
        // (2 structural + 2 slacks), no artificials.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, Some(4.0));
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 3.0);
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, -1.0)]), Cmp::Le, 2.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let result = SimplexSolver::new().solve_tracked(&p, &[]);
        let state = result.state.expect("optimal state");
        assert_eq!(state.num_rows(), 2);
        assert_eq!(state.num_structural(), 2);
        assert_eq!(state.num_artificials(), 0);
        assert_eq!(state.num_cols(), 4);
    }

    /// The compact layout's invariants: `cols − rows` stored columns, the
    /// stored columns exactly the nonbasic ones, `nonbasic` and `pos_of`
    /// inverse on them.
    fn assert_layout(st: &LpState) {
        assert_eq!(st.width(), st.num_cols() - st.num_rows());
        assert_eq!(st.a.len(), st.num_rows() * st.width());
        assert_eq!(st.pos_of.len(), st.num_cols());
        for (pos, &j) in st.nonbasic.iter().enumerate() {
            assert!(!st.is_basic(j), "stored column {j} is basic");
            assert_eq!(st.pos_of[j], pos);
        }
        for j in 0..st.num_cols() {
            if st.is_basic(j) {
                assert_eq!(st.pos_of[j], usize::MAX, "basic column {j} has a position");
            } else {
                assert_eq!(st.nonbasic[st.pos_of[j]], j);
            }
        }
    }

    fn assert_matches_cold(problem: &Problem, warm: LpResult, fixings: &[(Var, f64)]) -> LpState {
        let cold = SimplexSolver::new().solve_tracked(problem, fixings);
        let (SimplexOutcome::Optimal(w), SimplexOutcome::Optimal(c)) =
            (&warm.outcome, &cold.outcome)
        else {
            panic!("warm {:?} / cold {:?}", warm.outcome, cold.outcome);
        };
        assert!(
            (w.objective - c.objective).abs() <= 1e-9 * c.objective.abs().max(1.0),
            "warm {} vs cold {}",
            w.objective,
            c.objective
        );
        let state = warm.state.expect("warm state");
        assert_layout(&state);
        state
    }

    #[test]
    fn compact_layout_survives_fixings_and_rhs_changes() {
        // Two rows (a `≥` with a positive right-hand side and an equality)
        // cannot start with their slack basic, so the cold solve needs
        // artificials; once phase 1 drives them out they are stored columns.
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..5).map(|i| p.add_binary(format!("x{i}"))).collect();
        let y = p.add_continuous("y", 0.0, Some(3.0));
        p.add_constraint(
            LinearExpr::from_terms([(xs[0], 1.0), (xs[1], 1.0), (xs[2], 1.0), (y, 1.0)]),
            Cmp::Ge,
            2.0,
        );
        p.add_constraint(
            LinearExpr::from_terms([(xs[0], 2.0), (xs[1], 3.0), (xs[3], 1.0), (xs[4], 1.0)]),
            Cmp::Le,
            4.0,
        );
        p.add_constraint(
            LinearExpr::from_terms([(xs[2], 1.0), (xs[3], 1.0), (y, -1.0)]),
            Cmp::Eq,
            0.5,
        );
        p.add_constraint(
            LinearExpr::from_terms([(xs[0], 1.0), (xs[4], 1.0), (y, 1.0)]),
            Cmp::Le,
            3.0,
        );
        p.set_objective(LinearExpr::from_terms([
            (xs[0], 3.0),
            (xs[1], 2.0),
            (xs[2], 4.0),
            (xs[3], 1.0),
            (xs[4], 2.0),
            (y, -1.0),
        ]));
        let solver = SimplexSolver::new();
        let root = solver.solve_tracked(&p, &[]);
        let state = root.state.expect("root optimal");
        assert_layout(&state);
        assert_eq!(state.num_artificials(), 2);
        assert!(state.nonbasic.iter().any(|&j| j >= state.artificial_start));

        let fixing = [(xs[0], 0.0)];
        let state = assert_matches_cold(&p, solver.resolve(&p, state, &fixing), &fixing);

        p.set_rhs(1, 3.0).unwrap();
        assert_matches_cold(&p, solver.reenter(&p, state, &fixing), &fixing);
    }
}
