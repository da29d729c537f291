//! Property-based test for the search-quality machinery: on random
//! placement-shaped instances the default solver — presolve's overflow
//! fixings, pseudo-cost branching, reduced-cost fixing and best-bound order
//! together — must return the exhaustive optimum.  The validity of the
//! presolve fixings on their own is checked exhaustively in the `presolve`
//! module's unit tests.

use flashram_ilp::{
    BranchBound, Cmp, ExhaustiveSolver, LinearExpr, Problem, Sense, SolveError, Var,
};
use proptest::prelude::*;

/// Build a placement-shaped instance: maximize value subject to one or two
/// binary knapsack rows (the RAM and time budget rows of the placement ILP).
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
    fn cuts_and_presolve_never_cut_off_the_integer_optimum(
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
            (Ok(e), Ok(c)) => {
                prop_assert!(p.is_feasible(&c.values, 1e-6), "the solve returned an infeasible point");
                prop_assert!((e.objective - c.objective).abs() < 1e-5,
                    "presolve changed the optimum: exhaustive {} vs branch-and-bound {}", e.objective, c.objective);
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (e, c) => prop_assert!(false, "solver disagreement: {e:?} vs {c:?}"),
        }
    }
}
