//! Knapsack presolve for the placement models.
//!
//! The placement ILP's budget rows (`Σ S_b·r_b ≤ R_spare` and the time-limit
//! row) are knapsack constraints over binaries.  At the current budgets some
//! blocks are *trivially* flash-resident: their size alone exceeds a budget
//! row's right-hand side, so `x_j = 0` in every feasible placement.  Fixing
//! them before the tree starts shrinks every relaxation.  That one rule is
//! all presolve does; coefficient tightening, objective-only fixing and
//! lifted cover cuts over the same rows were each measured paying nothing
//! on the placement searches and deleted (see `docs/ARCHITECTURE.md`, "Why
//! this search policy").
//!
//! The fixings are **budget-relative**: they are valid only at the
//! right-hand sides they were derived from, so the branch-and-bound
//! re-derives them at every sweep point and applies them as bounds, never
//! as rows.  The caller's [`Problem`] and its row indices are never
//! disturbed, which is what keeps
//! `set_rhs`/[`reenter`](crate::SimplexSolver::reenter) chaining working
//! across sweep points.

use crate::expr::Var;
use crate::problem::{Cmp, Problem, VarKind};

/// A constraint row of the form `Σ a_j·x_j ≤ b` with every `x_j` binary and
/// every `a_j > 0` — the shape presolve understands.
///
/// The right-hand side is *not* stored: it is read from the problem at use
/// time, because frontier sweeps mutate it in place between solves.
#[derive(Debug, Clone)]
pub(crate) struct KnapsackRow {
    /// Constraint index in the source problem.
    pub row: usize,
    /// `(variable, positive coefficient)` pairs, in variable order.
    pub terms: Vec<(Var, f64)>,
}

/// Find every knapsack-shaped row of the problem: `≤` rows whose terms are
/// all binary variables with strictly positive coefficients.
///
/// Rows with any negative coefficient are skipped — the placement time row
/// can have negative entries for blocks that get *faster* in RAM, and such
/// rows are not knapsacks.
pub(crate) fn knapsack_rows(problem: &Problem, tol: f64) -> Vec<KnapsackRow> {
    let vars = problem.vars();
    let mut rows = Vec::new();
    'rows: for (index, c) in problem.constraints().iter().enumerate() {
        if c.op != Cmp::Le {
            continue;
        }
        let mut terms = Vec::with_capacity(c.expr.num_terms());
        for (v, a) in c.expr.terms() {
            if a <= tol {
                continue 'rows;
            }
            match vars.get(v.index()).map(|d| d.kind) {
                Some(VarKind::Binary) => {}
                _ => continue 'rows,
            }
            terms.push((v, a));
        }
        if terms.len() < 2 {
            continue;
        }
        rows.push(KnapsackRow { row: index, terms });
    }
    rows
}

/// Result of the presolve pass over the knapsack rows at the problem's
/// current right-hand sides.
#[derive(Debug, Clone, Default)]
pub(crate) struct PresolveResult {
    /// Variables fixed to 0 because they overflow a budget row alone, in
    /// variable order.
    pub fixings: Vec<(Var, f64)>,
    /// A knapsack row's right-hand side is below zero: no 0-1 point can
    /// satisfy it, the model is infeasible at these budgets.
    pub infeasible: bool,
}

/// Presolve the problem's knapsack rows at their current right-hand sides:
/// `a_j > b` fixes `x_j = 0` (the item alone overflows the budget), and
/// `b < 0` proves infeasibility.
pub(crate) fn presolve(problem: &Problem, knap: &[KnapsackRow], tol: f64) -> PresolveResult {
    let mut fixed_zero = vec![false; problem.num_vars()];
    for row in knap {
        let b = problem.rhs(row.row).unwrap_or(f64::INFINITY);
        if b < -tol {
            return PresolveResult {
                fixings: Vec::new(),
                infeasible: true,
            };
        }
        for &(v, a) in &row.terms {
            if a > b + tol {
                fixed_zero[v.index()] = true;
            }
        }
    }
    let fixings = fixed_zero
        .iter()
        .enumerate()
        .filter(|&(_, &fixed)| fixed)
        .map(|(j, _)| (Var(j), 0.0))
        .collect();
    PresolveResult {
        fixings,
        infeasible: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinearExpr;
    use crate::problem::{Problem, Sense};
    use proptest::prelude::*;

    fn knapsack_problem() -> (Problem, Vec<Var>) {
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..4).map(|i| p.add_binary(format!("x{i}"))).collect();
        p.add_constraint(
            LinearExpr::from_terms([(xs[0], 4.0), (xs[1], 4.0), (xs[2], 9.0), (xs[3], 1.0)]),
            Cmp::Le,
            5.0,
        );
        p.set_objective(LinearExpr::from_terms([
            (xs[0], 3.0),
            (xs[1], 3.0),
            (xs[2], 10.0),
            (xs[3], 1.0),
        ]));
        (p, xs)
    }

    #[test]
    fn knapsack_rows_are_detected_and_filtered() {
        let (mut p, xs) = knapsack_problem();
        // A row with a negative coefficient and a Ge row are both skipped.
        p.add_constraint(
            LinearExpr::from_terms([(xs[0], 1.0), (xs[1], -2.0)]),
            Cmp::Le,
            1.0,
        );
        p.add_constraint(
            LinearExpr::from_terms([(xs[0], 1.0), (xs[1], 1.0)]),
            Cmp::Ge,
            0.0,
        );
        let rows = knapsack_rows(&p, 1e-9);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].row, 0);
        assert_eq!(rows[0].terms.len(), 4);
    }

    #[test]
    fn rows_with_continuous_vars_are_not_knapsacks() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary("x");
        let y = p.add_continuous("y", 0.0, Some(1.0));
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 1.0);
        assert!(knapsack_rows(&p, 1e-9).is_empty());
    }

    #[test]
    fn presolve_fixes_overflowing_items_to_zero() {
        let (p, xs) = knapsack_problem();
        let knap = knapsack_rows(&p, 1e-9);
        let pre = presolve(&p, &knap, 1e-9);
        assert!(!pre.infeasible);
        // x2 weighs 9 > 5: trivially flash-resident.
        assert!(pre.fixings.contains(&(xs[2], 0.0)));
    }

    #[test]
    fn presolve_detects_negative_rhs_infeasibility() {
        let (mut p, _) = knapsack_problem();
        p.set_rhs(0, -1.0).unwrap();
        let knap = knapsack_rows(&p, 1e-9);
        assert!(presolve(&p, &knap, 1e-9).infeasible);
    }

    /// A one-row knapsack `Σ w_j·x_j ≤ cap_frac·Σ w_j` over binaries.
    fn random_knapsack(weights: &[u16], cap_frac: f64) -> (Problem, Vec<f64>, f64) {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<Var> = (0..weights.len())
            .map(|i| p.add_binary(format!("v{i}")))
            .collect();
        let coeffs: Vec<f64> = weights.iter().map(|&w| f64::from(w)).collect();
        let rhs = cap_frac * coeffs.iter().sum::<f64>();
        p.add_constraint(
            LinearExpr::from_terms(vars.iter().copied().zip(coeffs.iter().copied())),
            Cmp::Le,
            rhs,
        );
        p.set_objective(LinearExpr::from_terms(vars.iter().map(|&v| (v, 1.0))));
        (p, coeffs, rhs)
    }

    /// Every 0-1 point over `n` variables.
    fn all_points(n: usize) -> impl Iterator<Item = Vec<f64>> {
        (0..1u32 << n).map(move |bits| (0..n).map(|i| f64::from((bits >> i) & 1)).collect())
    }

    fn satisfies(coeffs: &[f64], rhs: f64, x: &[f64]) -> bool {
        coeffs.iter().zip(x).map(|(a, v)| a * v).sum::<f64>() <= rhs + 1e-9
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fixings_keep_every_feasible_point(
            weights in prop::collection::vec(1u16..50, 2..=10),
            cap_frac in -0.2f64..1.0,
        ) {
            // Every 0-1 point the row admits respects the fixings, and a
            // variable is fixed exactly when no admitted point sets it (on
            // one row, an item fits alone iff some point holds it).  A
            // negative capacity admits no point and is reported infeasible.
            let (p, coeffs, rhs) = random_knapsack(&weights, cap_frac);
            let pre = presolve(&p, &knapsack_rows(&p, 1e-9), 1e-9);
            prop_assert_eq!(pre.infeasible, rhs < -1e-9, "rhs {}", rhs);
            if pre.infeasible {
                return Ok(());
            }
            let mut can_be_set = vec![false; coeffs.len()];
            for x in all_points(coeffs.len()).filter(|x| satisfies(&coeffs, rhs, x)) {
                for &(v, val) in &pre.fixings {
                    prop_assert_eq!(x[v.index()], val, "fixing of {:?} cuts off {:?}", v, x);
                }
                for (set, v) in can_be_set.iter_mut().zip(&x) {
                    *set |= *v == 1.0;
                }
            }
            for (j, set) in can_be_set.into_iter().enumerate() {
                let fixed = pre.fixings.contains(&(Var(j), 0.0));
                prop_assert_eq!(fixed, !set, "item {} of weight {} at rhs {}", j, coeffs[j], rhs);
            }
        }
    }
}
