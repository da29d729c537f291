//! Simplex basis bookkeeping and the warm-start state.
//!
//! The bounded-variable simplex in [`crate::simplex`] works on an [`LpState`]:
//! the dense tableau `B⁻¹A`, the values of the basic variables, the
//! nonbasic-at-upper flags and the active column bounds.  Branch-and-bound
//! keeps the `LpState` of every solved relaxation and re-solves child nodes
//! from it with the dual simplex instead of a cold two-phase solve — a bound
//! change never disturbs the reduced costs, so the parent's optimal basis
//! stays dual feasible and typically needs only a handful of pivots to
//! restore primal feasibility.

/// A compact snapshot of a simplex basis: which column is basic in each row,
/// and at which bound every nonbasic column rests.
///
/// Columns `0..num_structural` are the problem's variables; the following
/// columns are the per-constraint slacks, then any phase-1 artificials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// The basic column of each tableau row.
    pub basic_cols: Vec<usize>,
    /// Per column, whether a nonbasic column sits at its upper bound
    /// (meaningless for basic columns).
    pub at_upper: Vec<bool>,
    /// Number of structural (problem) variables.
    pub num_structural: usize,
}

/// The full state of a solved (or in-progress) LP: tableau, basis, bounds.
///
/// Cloning an `LpState` and tightening a variable's bounds, then running the
/// dual simplex, is how branch-and-bound warm-starts child nodes.  The state
/// is opaque outside the crate apart from the size accessors and
/// [`LpState::basis`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpState {
    /// Dense tableau `B⁻¹A`, `rows × cols`.
    pub(crate) a: Vec<Vec<f64>>,
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
    /// Phase-2 reduced costs (minimization form), maintained across pivots.
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

    /// A compact snapshot of the current basis.
    pub fn basis(&self) -> Basis {
        Basis {
            basic_cols: self.basis.clone(),
            at_upper: self.at_upper.clone(),
            num_structural: self.n,
        }
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

    /// Append constraint rows to a solved state, preserving every layout
    /// invariant the warm-start paths rely on — in particular that the slack
    /// of row `r` is column `n + r`, which
    /// [`reenter`](crate::SimplexSolver::reenter) reads as `B⁻¹·e_r`.
    ///
    /// Each entry is `(structural coefficients, rhs, slack lower, slack
    /// upper)`.  The new slack columns are spliced in *before* the artificial
    /// block (so they land exactly at `n + old_rows ..`), every basis
    /// reference into the artificial block shifts accordingly, and each new
    /// tableau row is eliminated against the current basic columns so it is
    /// expressed in `B⁻¹A` form like the existing rows.  The new row's slack
    /// enters the basis at value `rhs − a·x` for the current point `x`; when
    /// that violates the slack's bounds (the row cuts the current point off)
    /// the state is primal infeasible but still **dual feasible** — its
    /// reduced costs are untouched because the new slacks cost zero — so a
    /// dual-simplex repair restores optimality.  This is what lets
    /// branch-and-bound add cutting planes mid-search and keep warm-starting:
    /// states snapshotted *before* a cut was added are upgraded with this
    /// method when a node is expanded out of order.
    pub(crate) fn append_rows(&mut self, rows: &[(Vec<f64>, f64, f64, f64)]) {
        let k = rows.len();
        if k == 0 {
            return;
        }
        let insert = self.artificial_start;
        let old_rows = self.num_rows();

        // Splice k zero columns (the new slacks) in front of the artificials.
        for row in &mut self.a {
            row.splice(insert..insert, std::iter::repeat_n(0.0, k));
        }
        self.lo
            .splice(insert..insert, rows.iter().map(|&(_, _, slo, _)| slo));
        self.up
            .splice(insert..insert, rows.iter().map(|&(_, _, _, sup)| sup));
        self.at_upper
            .splice(insert..insert, std::iter::repeat_n(false, k));
        self.d.splice(insert..insert, std::iter::repeat_n(0.0, k));
        self.row_of
            .splice(insert..insert, std::iter::repeat_n(usize::MAX, k));
        for b in &mut self.basis {
            if *b >= insert {
                *b += k;
            }
        }
        self.artificial_start += k;
        self.cols += k;
        // Re-point the shifted artificial columns.
        for (row, &b) in self.basis.iter().enumerate() {
            self.row_of[b] = row;
        }

        // Build each new row in B⁻¹A form with its slack basic.
        for (i, (coeffs, rhs, _, _)) in rows.iter().enumerate() {
            debug_assert_eq!(coeffs.len(), self.n);
            let slack_col = insert + i;
            // Slack value at the current point, from the *original* row.
            let dot: f64 = coeffs
                .iter()
                .enumerate()
                .map(|(j, &c)| c * self.value_of(j))
                .sum();
            let xb_new = rhs - dot;

            let mut full = vec![0.0; self.cols];
            full[..self.n].copy_from_slice(coeffs);
            full[slack_col] = 1.0;
            // Eliminate against the existing basic columns: each is a unit
            // column across the old rows, so one pass suffices.  The new
            // rows' own slacks never appear in older rows, so new rows need
            // no elimination against each other.
            for r in 0..old_rows + i {
                let b = self.basis[r];
                let factor = full[b];
                if factor != 0.0 {
                    for (f, p) in full.iter_mut().zip(&self.a[r]) {
                        *f -= factor * p;
                    }
                }
            }
            self.a.push(full);
            self.xb.push(xb_new);
            self.basis.push(slack_col);
            self.row_of[slack_col] = old_rows + i;
            self.rhs.push(*rhs);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::LinearExpr;
    use crate::problem::{Cmp, Problem, Sense};
    use crate::simplex::SimplexSolver;

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
        let basis = state.basis();
        assert_eq!(basis.basic_cols.len(), 2);
        assert_eq!(basis.num_structural, 2);
    }
}
