//! Differential testing of the three solving strategies on randomly
//! generated small knapsack instances: exhaustive enumeration is the ground
//! truth, branch-and-bound must match it exactly, and the simplex LP
//! relaxation must bound it from above — with the rounded relaxation, when
//! it happens to be integral, matching it exactly too.
//!
//! The proptest stand-in used by this workspace derives each test's RNG seed
//! from the test's fully qualified name, so these instances are fixed across
//! runs and machines.

use flashram_ilp::{
    BranchBound, Cmp, ExhaustiveSolver, LinearExpr, Problem, Sense, SimplexOutcome, SimplexSolver,
    Var,
};
use proptest::prelude::*;

/// A 0-1 knapsack: maximize value subject to a single capacity constraint.
fn knapsack(values: &[u32], weights: &[u32], cap_frac: f64) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let xs: Vec<Var> = (0..values.len())
        .map(|i| p.add_binary(format!("x{i}")))
        .collect();
    let total: f64 = weights.iter().map(|w| f64::from(*w)).sum();
    p.add_constraint(
        LinearExpr::from_terms(
            xs.iter()
                .copied()
                .zip(weights.iter().map(|w| f64::from(*w))),
        ),
        Cmp::Le,
        total * cap_frac,
    );
    p.set_objective(LinearExpr::from_terms(
        xs.iter().copied().zip(values.iter().map(|v| f64::from(*v))),
    ));
    p
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// All three strategies line up against exhaustive enumeration:
    /// branch-and-bound agrees exactly, the LP relaxation is an upper bound,
    /// and an integral relaxation rounds to exactly the optimum.
    #[test]
    fn solvers_agree_on_small_knapsacks(
        values in proptest::collection::vec(1u32..60, 1..9),
        weights_seed in proptest::collection::vec(1u32..25, 9),
        cap_frac in 0.1f64..0.95,
    ) {
        let weights = &weights_seed[..values.len()];
        let p = knapsack(&values, weights, cap_frac);

        let exact = ExhaustiveSolver::new().solve(&p).expect("exhaustive solves");
        let bnb = BranchBound::new().solve(&p).expect("branch-and-bound solves");
        prop_assert!(
            (bnb.objective - exact.objective).abs() <= 1e-6 * exact.objective.abs().max(1.0),
            "branch-and-bound {} vs exhaustive {}",
            bnb.objective,
            exact.objective
        );
        prop_assert!(p.is_feasible(&bnb.values, 1e-6));

        let relaxed = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .expect("relaxation solves");
        prop_assert!(
            relaxed.objective >= exact.objective - 1e-6,
            "LP relaxation {} below the integer optimum {}",
            relaxed.objective,
            exact.objective
        );

        // A single-constraint knapsack relaxation has at most one fractional
        // variable; when there is none, rounding is the integer optimum.
        let integral = relaxed.values.iter().all(|v| (v - v.round()).abs() <= 1e-6);
        if integral {
            let rounded: Vec<f64> = relaxed.values.iter().map(|v| v.round()).collect();
            prop_assert!(p.is_feasible(&rounded, 1e-6));
            let objective = p.objective_value(&rounded);
            prop_assert!(
                (objective - exact.objective).abs() <= 1e-6 * exact.objective.abs().max(1.0),
                "integral relaxation rounds to {} but exhaustive finds {}",
                objective,
                exact.objective
            );
        }
    }

    /// Rounding the relaxation *down* (dropping the fractional pick) always
    /// yields a feasible solution that cannot beat the true optimum.
    #[test]
    fn rounded_down_relaxation_is_a_feasible_lower_bound(
        values in proptest::collection::vec(1u32..60, 1..9),
        weights_seed in proptest::collection::vec(1u32..25, 9),
        cap_frac in 0.1f64..0.95,
    ) {
        let weights = &weights_seed[..values.len()];
        let p = knapsack(&values, weights, cap_frac);
        let exact = ExhaustiveSolver::new().solve(&p).expect("exhaustive solves");
        let relaxed = SimplexSolver::new()
            .solve_relaxation(&p, &[])
            .solution()
            .expect("relaxation solves");
        let floored: Vec<f64> = relaxed.values.iter().map(|v| v.floor().max(0.0)).collect();
        prop_assert!(p.is_feasible(&floored, 1e-6), "floored relaxation must stay feasible");
        prop_assert!(p.objective_value(&floored) <= exact.objective + 1e-6);
    }
}

/// A randomly generated bounded LP built twice: once with native variable
/// bounds and fixings (the bounded-variable simplex path), and once in the
/// seed encoding where every upper bound is an explicit `≤` row and every
/// fixing an explicit `=` row.  The two formulations describe the same
/// polytope, so their LP optima must agree.
struct BoundedPair {
    native: Problem,
    rows: Problem,
    fixings: Vec<(Var, f64)>,
    lower: Vec<f64>,
    upper: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn build_bounded_pair(
    n: usize,
    bin_mask: &[bool],
    lows: &[f64],
    ranges: &[f64],
    obj: &[f64],
    coeff_rows: &[Vec<f64>],
    ops: &[u32],
    fracs: &[f64],
    fix_mask: &[bool],
    fix_vals: &[bool],
    maximize: bool,
) -> BoundedPair {
    let sense = if maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut native = Problem::new(sense);
    let mut rows = Problem::new(sense);
    let mut lower = vec![0.0f64; n];
    let mut upper = vec![0.0f64; n];
    let mut point = vec![0.0f64; n]; // a point inside every bound
    for i in 0..n {
        let binary = bin_mask[i % bin_mask.len()];
        let (lo, up) = if binary {
            (0.0, 1.0)
        } else {
            let lo = lows[i % lows.len()];
            (lo, lo + ranges[i % ranges.len()])
        };
        lower[i] = lo;
        upper[i] = up;
        point[i] = lo + fracs[i % fracs.len()] * (up - lo);
        if binary {
            native.add_binary(format!("x{i}"));
        } else {
            native.add_continuous(format!("x{i}"), lo, Some(up));
        }
        // Seed encoding: nonzero lower bound stays native (the seed shifted
        // those), the upper bound becomes an explicit row.
        let v = rows.add_continuous(format!("x{i}"), lo, None);
        rows.add_constraint(LinearExpr::var(v), Cmp::Le, up);
    }

    // Constraints are anchored on `point` so the unfixed LP is feasible by
    // construction; `≤`/`≥` rows get slack away from the anchor.
    for (r, coeffs) in coeff_rows.iter().enumerate() {
        let op = match ops[r % ops.len()] % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        let terms: Vec<(Var, f64)> = (0..n).map(|i| (Var(i), coeffs[i % coeffs.len()])).collect();
        let dot: f64 = terms.iter().map(|(v, k)| k * point[v.index()]).sum();
        let margin = 0.5 + ranges[r % ranges.len()];
        let rhs = match op {
            Cmp::Le => dot + margin,
            Cmp::Ge => dot - margin,
            Cmp::Eq => dot,
        };
        native.add_constraint(LinearExpr::from_terms(terms.iter().copied()), op, rhs);
        rows.add_constraint(LinearExpr::from_terms(terms.iter().copied()), op, rhs);
    }

    let mut fixings = Vec::new();
    for i in 0..n {
        if bin_mask[i % bin_mask.len()] && fix_mask[i % fix_mask.len()] {
            let val = if fix_vals[i % fix_vals.len()] {
                1.0
            } else {
                0.0
            };
            fixings.push((Var(i), val));
            rows.add_constraint(LinearExpr::var(Var(i)), Cmp::Eq, val);
        }
    }

    let objective = LinearExpr::from_terms((0..n).map(|i| (Var(i), obj[i])));
    native.set_objective(objective.clone());
    rows.set_objective(objective);
    BoundedPair {
        native,
        rows,
        fixings,
        lower,
        upper,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random bounded LPs with mixed `≤`/`≥`/`=` rows, nonzero lower
    /// bounds and binary fixings: the bounded-variable simplex must agree
    /// with the same polytope encoded the old way (upper bounds and
    /// fixings as explicit rows), and its solution must respect every
    /// bound, fixing and constraint.
    #[test]
    fn bounded_simplex_matches_the_row_encoded_formulation(
        obj in proptest::collection::vec(-9.0f64..9.0, 2..8),
        bin_mask in proptest::collection::vec(any::<bool>(), 8),
        lows in proptest::collection::vec(-2.0f64..2.0, 4),
        ranges in proptest::collection::vec(0.5f64..3.0, 4),
        coeff_rows in proptest::collection::vec(proptest::collection::vec(-4.0f64..4.0, 8), 1..5),
        ops in proptest::collection::vec(0u32..3, 5),
        fracs in proptest::collection::vec(0.0f64..1.0, 5),
        fix_mask in proptest::collection::vec(any::<bool>(), 8),
        fix_vals in proptest::collection::vec(any::<bool>(), 8),
        maximize in any::<bool>(),
    ) {
        let n = obj.len();
        let pair = build_bounded_pair(
            n, &bin_mask, &lows, &ranges, &obj, &coeff_rows, &ops, &fracs,
            &fix_mask, &fix_vals, maximize,
        );
        let solver = SimplexSolver::new();
        let native = solver.solve_relaxation(&pair.native, &pair.fixings);
        let encoded = solver.solve_relaxation(&pair.rows, &[]);
        match (native, encoded) {
            (SimplexOutcome::Optimal(a), SimplexOutcome::Optimal(b)) => {
                prop_assert!(
                    (a.objective - b.objective).abs() <= 1e-5 * b.objective.abs().max(1.0),
                    "native bounds give {} but the row encoding gives {}",
                    a.objective,
                    b.objective
                );
                // The native solution must sit inside the bounds, honor the
                // fixings and satisfy every constraint.
                for i in 0..n {
                    prop_assert!(a.values[i] >= pair.lower[i] - 1e-6);
                    prop_assert!(a.values[i] <= pair.upper[i] + 1e-6);
                }
                for (v, val) in &pair.fixings {
                    prop_assert!((a.value(*v) - val).abs() <= 1e-6);
                }
                for c in pair.native.constraints() {
                    prop_assert!(c.satisfied(&a.values, 1e-5));
                }
            }
            (SimplexOutcome::Infeasible, SimplexOutcome::Infeasible) => {}
            (a, b) => prop_assert!(false, "outcome disagreement: native {a:?} vs rows {b:?}"),
        }
    }

    /// A chain of warm-started dual-simplex re-solves (one fixing at a
    /// time, as branch-and-bound applies them) must reach the same optimum
    /// as a cold two-phase solve with the full fixing set.
    #[test]
    fn warm_started_resolves_match_cold_solves(
        obj in proptest::collection::vec(-9.0f64..9.0, 2..8),
        bin_mask in proptest::collection::vec(any::<bool>(), 8),
        lows in proptest::collection::vec(-2.0f64..2.0, 4),
        ranges in proptest::collection::vec(0.5f64..3.0, 4),
        coeff_rows in proptest::collection::vec(proptest::collection::vec(-4.0f64..4.0, 8), 1..5),
        ops in proptest::collection::vec(0u32..3, 5),
        fracs in proptest::collection::vec(0.0f64..1.0, 5),
        fix_mask in proptest::collection::vec(any::<bool>(), 8),
        fix_vals in proptest::collection::vec(any::<bool>(), 8),
        maximize in any::<bool>(),
    ) {
        let n = obj.len();
        let pair = build_bounded_pair(
            n, &bin_mask, &lows, &ranges, &obj, &coeff_rows, &ops, &fracs,
            &fix_mask, &fix_vals, maximize,
        );
        let solver = SimplexSolver::new();
        let root = solver.solve_tracked(&pair.native, &[]);
        // The unfixed LP is feasible and bounded by construction.
        let mut state = match root.state {
            Some(s) => s,
            None => return Err(proptest::test_runner::TestCaseError::fail(
                format!("root must solve, got {:?}", root.outcome),
            )),
        };
        let mut applied: Vec<(Var, f64)> = Vec::new();
        for fixing in &pair.fixings {
            applied.push(*fixing);
            let warm = solver.resolve(&pair.native, state.clone(), &[*fixing]);
            let cold = solver.solve_tracked(&pair.native, &applied);
            match (warm.outcome, cold.outcome) {
                (SimplexOutcome::Optimal(w), SimplexOutcome::Optimal(c)) => {
                    prop_assert!(
                        (w.objective - c.objective).abs() <= 1e-5 * c.objective.abs().max(1.0),
                        "warm restart gives {} but a cold solve gives {}",
                        w.objective,
                        c.objective
                    );
                    state = warm.state.expect("optimal warm solve carries state");
                }
                (SimplexOutcome::Infeasible, SimplexOutcome::Infeasible) => break,
                (w, c) => prop_assert!(false, "warm {w:?} disagrees with cold {c:?}"),
            }
        }
    }

    /// Pinning binaries with equality rows: warm-started branch-and-bound
    /// must still match exhaustive enumeration exactly.
    #[test]
    fn branch_and_bound_with_pinned_binaries_matches_exhaustive(
        values in proptest::collection::vec(1u32..60, 3..9),
        weights_seed in proptest::collection::vec(1u32..25, 9),
        cap_frac in 0.3f64..0.95,
        pin_mask in proptest::collection::vec(any::<bool>(), 3),
        pin_vals in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let weights = &weights_seed[..values.len()];
        let mut p = knapsack(&values, weights, cap_frac);
        for (i, pin) in pin_mask.iter().enumerate() {
            if *pin && i < values.len() {
                let val = if pin_vals[i % pin_vals.len()] { 1.0 } else { 0.0 };
                p.add_constraint(LinearExpr::var(Var(i)), Cmp::Eq, val);
            }
        }
        let exact = ExhaustiveSolver::new().solve(&p);
        let bnb = BranchBound::new().solve(&p);
        match (exact, bnb) {
            (Ok(e), Ok(b)) => {
                prop_assert!(
                    (e.objective - b.objective).abs() <= 1e-6 * e.objective.abs().max(1.0),
                    "exhaustive {} vs branch-and-bound {}",
                    e.objective,
                    b.objective
                );
                prop_assert!(p.is_feasible(&b.values, 1e-6));
            }
            (Err(flashram_ilp::SolveError::Infeasible), Err(flashram_ilp::SolveError::Infeasible)) => {}
            (e, b) => prop_assert!(false, "solver disagreement: {e:?} vs {b:?}"),
        }
    }
}
