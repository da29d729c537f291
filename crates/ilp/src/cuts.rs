//! Knapsack-row analysis for the placement models: presolve.
//!
//! The placement ILP's budget rows (`Σ S_b·r_b ≤ R_spare` and the time-limit
//! row) are knapsack constraints over binaries, which makes a classic MIP
//! presolve cheap here: at the current budgets some blocks are *trivially*
//! flash-resident (their size alone exceeds a budget row's right-hand side,
//! so `x_j = 0` in every feasible placement) or trivially RAM-resident
//! (every knapsack row they appear in is redundant, so only the objective
//! decides them).  Fixing those variables before the tree starts shrinks
//! every relaxation.  On top of the fixings, *coefficient tightening*
//! produces an integer-equivalent but LP-tighter copy of a knapsack row:
//! when `M − a_j < b` (with `M` the row's maximum activity), the row is
//! slack for every 0-1 point with `x_j = 0`, so both `a_j` and `b` can be
//! reduced by `δ_j = b − (M − a_j)` without cutting any integer point.  The
//! per-variable deltas are invariant under sequential application (each
//! application lowers `b` and `M` by the same `δ`), so one batch pass
//! computes the fully tightened row.  (Lifted cover cuts over the same rows
//! were measured to pay nothing once repaired seeds and reduced-cost fixing
//! had shrunk the trees, and were deleted.)
//!
//! Everything here is **budget-relative**: fixings and tightened rows are
//! valid only at the right-hand sides they were derived from, so the
//! branch-and-bound applies them to a solve-local copy of the problem and
//! re-derives them at every sweep point — the caller's [`Problem`] and its
//! row indices are never disturbed, which is what keeps
//! `set_rhs`/[`reenter`](crate::SimplexSolver::reenter) chaining working
//! across sweep points.

use crate::expr::{LinearExpr, Var};
use crate::problem::{Cmp, Problem, Sense, VarKind};

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
    /// Sum of all coefficients (the row's maximum activity).
    pub total: f64,
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
        let mut total = 0.0;
        for (v, a) in c.expr.terms() {
            if a <= tol {
                continue 'rows;
            }
            match vars.get(v.index()).map(|d| d.kind) {
                Some(VarKind::Binary) => {}
                _ => continue 'rows,
            }
            terms.push((v, a));
            total += a;
        }
        if terms.len() < 2 {
            continue;
        }
        rows.push(KnapsackRow {
            row: index,
            terms,
            total,
        });
    }
    rows
}

/// Result of the presolve pass over the knapsack rows at the problem's
/// current right-hand sides.
#[derive(Debug, Clone, Default)]
pub(crate) struct PresolveResult {
    /// Variables provably at a fixed value in every optimal solution.
    pub fixings: Vec<(Var, f64)>,
    /// Integer-equivalent tightened copies of knapsack rows, to be appended
    /// as extra `≤` rows (the originals keep their indices for RHS
    /// chaining).
    pub tightened: Vec<(LinearExpr, f64)>,
    /// A knapsack row's right-hand side is below zero: no 0-1 point can
    /// satisfy it, the model is infeasible at these budgets.
    pub infeasible: bool,
}

impl PresolveResult {
    /// Number of variables fixed.
    pub fn num_fixed(&self) -> usize {
        self.fixings.len()
    }
}

/// Presolve the problem's knapsack rows at their current right-hand sides.
///
/// Three reductions, in order:
///
/// 1. `a_j > b` fixes `x_j = 0` (the item alone overflows the budget);
///    `b < 0` proves infeasibility.
/// 2. A variable whose knapsack rows are all *redundant* (maximum remaining
///    activity `≤ b`) and which appears in no other constraint is decided by
///    the objective alone: fixed to 1 when its coefficient strictly improves
///    the objective, to 0 when it strictly hurts.
/// 3. Batch coefficient tightening of each non-redundant row (see the
///    module docs); the tightened copy is returned for appending, the
///    original row is left untouched.
pub(crate) fn presolve(problem: &Problem, knap: &[KnapsackRow], tol: f64) -> PresolveResult {
    let mut out = PresolveResult::default();
    let n = problem.num_vars();

    // Pass 1: single-item overflow fixings and infeasibility.
    let mut fixed_zero = vec![false; n];
    for row in knap {
        let b = problem.rhs(row.row).unwrap_or(f64::INFINITY);
        if b < -tol {
            out.infeasible = true;
            return out;
        }
        for &(v, a) in &row.terms {
            if a > b + tol {
                fixed_zero[v.index()] = true;
            }
        }
    }

    // Residual activity per row once the fixed-to-0 items are dropped, and
    // per-variable membership in non-redundant knapsack rows.
    let mut in_tight_row = vec![false; n];
    let mut row_redundant = vec![false; knap.len()];
    for (k, row) in knap.iter().enumerate() {
        let b = problem.rhs(row.row).unwrap_or(f64::INFINITY);
        let fixed: f64 = row
            .terms
            .iter()
            .filter(|(v, _)| fixed_zero[v.index()])
            .map(|&(_, a)| a)
            .sum();
        let residual = row.total - fixed;
        if residual <= b + tol {
            row_redundant[k] = true;
            continue;
        }
        for &(v, _) in &row.terms {
            if !fixed_zero[v.index()] {
                in_tight_row[v.index()] = true;
            }
        }
    }

    // Membership in any non-knapsack constraint disqualifies a variable from
    // the objective-only fixing.
    let knap_row_set: Vec<bool> = {
        let mut s = vec![false; problem.num_constraints()];
        for row in knap {
            s[row.row] = true;
        }
        s
    };
    let mut in_other_row = vec![false; n];
    for (index, c) in problem.constraints().iter().enumerate() {
        if knap_row_set[index] {
            continue;
        }
        for (v, _) in c.expr.terms() {
            in_other_row[v.index()] = true;
        }
    }

    // Pass 2: objective-only variables among the binaries.
    for (j, def) in problem.vars().iter().enumerate() {
        if def.kind != VarKind::Binary {
            continue;
        }
        if fixed_zero[j] {
            out.fixings.push((Var(j), 0.0));
            continue;
        }
        if in_tight_row[j] || in_other_row[j] {
            continue;
        }
        let c = problem.objective().coeff(Var(j));
        let favorable = match problem.sense() {
            Sense::Maximize => c > tol,
            Sense::Minimize => c < -tol,
        };
        let unfavorable = match problem.sense() {
            Sense::Maximize => c < -tol,
            Sense::Minimize => c > tol,
        };
        if favorable {
            out.fixings.push((Var(j), 1.0));
        } else if unfavorable {
            out.fixings.push((Var(j), 0.0));
        }
    }

    // Pass 3: batch coefficient tightening of the non-redundant rows.
    for (k, row) in knap.iter().enumerate() {
        if row_redundant[k] {
            continue;
        }
        let b = problem.rhs(row.row).unwrap_or(f64::INFINITY);
        let live: Vec<(Var, f64)> = row
            .terms
            .iter()
            .filter(|(v, _)| !fixed_zero[v.index()])
            .copied()
            .collect();
        let m: f64 = live.iter().map(|&(_, a)| a).sum();
        let mut total_delta = 0.0;
        let mut expr = LinearExpr::new();
        for &(v, a) in &live {
            let delta = (b - (m - a)).max(0.0);
            total_delta += delta;
            expr.add_term(v, a - delta);
        }
        if total_delta > tol {
            let new_rhs = (b - total_delta).max(0.0);
            out.tightened.push((expr, new_rhs));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!((rows[0].total - 18.0).abs() < 1e-12);
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

    #[test]
    fn presolve_fixes_objective_only_vars_when_rows_are_redundant() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        let c = p.add_binary("c");
        // Row is redundant (2 + 1 + 1 ≤ 10), so all three are objective-only.
        p.add_constraint(
            LinearExpr::from_terms([(a, 2.0), (b, 1.0), (c, 1.0)]),
            Cmp::Le,
            10.0,
        );
        p.set_objective(LinearExpr::from_terms([(a, 5.0), (b, -3.0)]));
        let knap = knapsack_rows(&p, 1e-9);
        let pre = presolve(&p, &knap, 1e-9);
        assert!(
            pre.fixings.contains(&(a, 1.0)),
            "favorable coeff fixes to 1"
        );
        assert!(
            pre.fixings.contains(&(b, 0.0)),
            "unfavorable coeff fixes to 0"
        );
        assert!(
            !pre.fixings.iter().any(|&(v, _)| v == c),
            "zero-coefficient variable stays free"
        );
    }

    #[test]
    fn coefficient_tightening_matches_hand_computation() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 5.0), (y, 5.0)]), Cmp::Le, 8.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let knap = knapsack_rows(&p, 1e-9);
        let pre = presolve(&p, &knap, 1e-9);
        assert_eq!(pre.tightened.len(), 1);
        let (expr, rhs) = &pre.tightened[0];
        // δ = 8 − (10 − 5) = 3 per item: 2x + 2y ≤ 2.
        assert!((expr.coeff(x) - 2.0).abs() < 1e-9);
        assert!((expr.coeff(y) - 2.0).abs() < 1e-9);
        assert!((rhs - 2.0).abs() < 1e-9);
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
        fn tightened_rows_keep_all_integer_points(
            weights in prop::collection::vec(1u16..50, 2..=10),
            cap_frac in 0.05f64..1.0,
        ) {
            // A tightened row holds at every 0-1 point the original row
            // admits, and — among points that respect the presolve fixings
            // — admits no other.
            let (p, coeffs, rhs) = random_knapsack(&weights, cap_frac);
            let pre = presolve(&p, &knapsack_rows(&p, 1e-9), 1e-9);
            for x in all_points(coeffs.len()) {
                let original = satisfies(&coeffs, rhs, &x);
                let respects_fixings = pre.fixings.iter().all(|&(v, val)| x[v.index()] == val);
                for (expr, b) in &pre.tightened {
                    let tightened = expr.evaluate(&x) <= b + 1e-9;
                    if original {
                        prop_assert!(tightened, "{expr:?} <= {b} cuts off integer point {x:?}");
                    } else if respects_fixings {
                        prop_assert!(!tightened, "{expr:?} <= {b} admits infeasible {x:?}");
                    }
                }
            }
        }
    }
}
