//! Property-based tests: the branch-and-bound solver must agree with
//! exhaustive enumeration on random small 0-1 knapsack-style instances —
//! cold, and chained with a seeded incumbent that reduced-cost fixing works
//! from — and every returned solution must be feasible.

use flashram_ilp::{
    BranchBound, Cmp, ExhaustiveSolver, GreedySolver, LinearExpr, Problem, Sense, SolveError, Var,
};
use proptest::prelude::*;

/// Build a random selection problem: maximize value subject to one or two
/// capacity constraints.
fn build_problem(
    values: &[u16],
    weights: &[u16],
    weights2: &[u16],
    cap_frac: f64,
    use_second: bool,
) -> Problem {
    let n = values.len();
    let mut p = Problem::new(Sense::Maximize);
    let xs: Vec<Var> = (0..n).map(|i| p.add_binary(format!("x{i}"))).collect();
    let total: f64 = weights.iter().map(|w| *w as f64).sum();
    p.add_constraint(
        LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().map(|w| *w as f64))),
        Cmp::Le,
        total * cap_frac,
    );
    if use_second {
        let total2: f64 = weights2.iter().map(|w| *w as f64).sum();
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights2.iter().map(|w| *w as f64))),
            Cmp::Le,
            total2 * (1.0 - cap_frac * 0.5),
        );
    }
    p.set_objective(LinearExpr::from_terms(
        xs.iter().copied().zip(values.iter().map(|v| *v as f64)),
    ));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn branch_and_bound_matches_exhaustive(
        values in prop::collection::vec(1u16..100, 1..9),
        weights in prop::collection::vec(1u16..50, 1..9),
        weights2 in prop::collection::vec(1u16..50, 1..9),
        cap_frac in 0.1f64..0.9,
        use_second in any::<bool>(),
    ) {
        let n = values.len().min(weights.len()).min(weights2.len());
        let p = build_problem(&values[..n], &weights[..n], &weights2[..n], cap_frac, use_second);
        let exact = ExhaustiveSolver::new().solve(&p);
        let bb = BranchBound::new().solve(&p);
        match (exact, bb) {
            (Ok(e), Ok(b)) => {
                prop_assert!(p.is_feasible(&b.values, 1e-6), "branch-and-bound returned infeasible point");
                prop_assert!((e.objective - b.objective).abs() < 1e-5,
                    "objectives differ: exhaustive {} vs branch-and-bound {}", e.objective, b.objective);
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (e, b) => prop_assert!(false, "solver disagreement: {e:?} vs {b:?}"),
        }
    }

    /// A chained solve at a tightened capacity, re-entered from the looser
    /// solve's root and seeded with the greedy placement, so every node has
    /// an incumbent and reduced-cost fixing can fire from the root on.  Up
    /// to 14 items, so the trees are deep enough for a wrong fixing to cut
    /// off the optimum.
    #[test]
    fn seeded_chained_solve_matches_exhaustive(
        values in prop::collection::vec(1u16..100, 4..15),
        weights in prop::collection::vec(1u16..50, 4..15),
        weights2 in prop::collection::vec(1u16..50, 4..15),
        cap_frac in 0.1f64..0.9,
        tighten in 0.3f64..1.0,
        use_second in any::<bool>(),
    ) {
        let n = values.len().min(weights.len()).min(weights2.len());
        let mut p = build_problem(&values[..n], &weights[..n], &weights2[..n], cap_frac, use_second);
        let solver = BranchBound::new();
        let first = solver.solve_chained(&p, None, None).expect("feasible: x = 0 fits");
        let capacity = p.constraints()[0].rhs * tighten;
        p.set_rhs(0, capacity).unwrap();
        let seed = GreedySolver::new().solve(&p).expect("greedy finds x = 0 at worst");
        let run = solver
            .solve_chained(&p, first.root_state.as_ref(), Some(&seed))
            .expect("feasible");
        let exact = ExhaustiveSolver::new().solve(&p).unwrap();
        prop_assert!(run.stats.seeded, "the greedy seed fits");
        prop_assert!(p.is_feasible(&run.solution.values, 1e-6));
        prop_assert!((exact.objective - run.solution.objective).abs() < 1e-5,
            "objectives differ: exhaustive {} vs seeded chained {} ({} reduced-cost fixings)",
            exact.objective, run.solution.objective, run.stats.rc_fixed);
    }

    #[test]
    fn greedy_never_beats_exact_and_is_feasible(
        values in prop::collection::vec(1u16..100, 1..8),
        weights in prop::collection::vec(1u16..50, 1..8),
        cap_frac in 0.1f64..0.9,
    ) {
        let n = values.len().min(weights.len());
        let p = build_problem(&values[..n], &weights[..n], &weights[..n], cap_frac, false);
        let exact = ExhaustiveSolver::new().solve(&p).unwrap();
        let greedy = GreedySolver::new().solve(&p).unwrap();
        prop_assert!(p.is_feasible(&greedy.values, 1e-6));
        prop_assert!(greedy.objective <= exact.objective + 1e-6);
    }

    #[test]
    fn lp_relaxation_bounds_the_integer_optimum(
        values in prop::collection::vec(1u16..100, 1..8),
        weights in prop::collection::vec(1u16..50, 1..8),
        cap_frac in 0.1f64..0.9,
    ) {
        let n = values.len().min(weights.len());
        let p = build_problem(&values[..n], &weights[..n], &weights[..n], cap_frac, false);
        let exact = ExhaustiveSolver::new().solve(&p).unwrap();
        let relax = flashram_ilp::SimplexSolver::new().solve_relaxation(&p, &[]).solution().unwrap();
        // For a maximization problem the relaxation is an upper bound.
        prop_assert!(relax.objective >= exact.objective - 1e-5,
            "relaxation {} below integer optimum {}", relax.objective, exact.objective);
    }
}
