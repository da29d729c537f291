//! A greedy accretion heuristic for 0-1 problems.
//!
//! The placement pipeline's fallback when branch-and-bound exhausts its node
//! budget (or wall-clock limit) before finding any integer solution.

use crate::problem::{Problem, Solution, SolveError, VarKind};

/// A greedy 0-1 solver: starting from the all-zeros assignment, repeatedly
/// set the single variable that most improves the objective while keeping
/// the assignment feasible, until no improving flip exists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedySolver;

impl GreedySolver {
    /// The greedy solver.
    pub fn new() -> GreedySolver {
        GreedySolver
    }

    /// Run the heuristic.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidModel`] if the problem has continuous
    /// variables, and [`SolveError::Infeasible`] if even the all-zeros
    /// assignment violates the constraints.
    pub fn solve(&self, problem: &Problem) -> Result<Solution, SolveError> {
        problem.check()?;
        if problem
            .vars()
            .iter()
            .any(|d| !matches!(d.kind, VarKind::Binary))
        {
            return Err(SolveError::InvalidModel(
                "greedy heuristic requires all variables to be binary".into(),
            ));
        }
        let n = problem.num_vars();
        let mut values = vec![0.0; n];
        if !problem.is_feasible(&values, 1e-9) {
            return Err(SolveError::Infeasible);
        }
        let mut objective = problem.objective_value(&values);

        loop {
            let mut best_flip: Option<(usize, f64)> = None;
            for i in 0..n {
                if values[i] > 0.5 {
                    continue;
                }
                values[i] = 1.0;
                if problem.is_feasible(&values, 1e-9) {
                    let obj = problem.objective_value(&values);
                    if problem.is_better(obj, objective) {
                        let improvement = (obj - objective).abs();
                        let better_than_best =
                            best_flip.is_none_or(|(_, best_impr)| improvement > best_impr);
                        if better_than_best {
                            best_flip = Some((i, improvement));
                        }
                    }
                }
                values[i] = 0.0;
            }
            match best_flip {
                Some((i, _)) => {
                    values[i] = 1.0;
                    objective = problem.objective_value(&values);
                }
                None => break,
            }
        }
        Ok(Solution { values, objective })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinearExpr;
    use crate::problem::{Cmp, Sense};
    use crate::{BranchBound, ExhaustiveSolver};

    #[test]
    fn greedy_solves_easy_knapsack_optimally() {
        // One dominant item: greedy and exact agree.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        let c = p.add_binary("c");
        p.add_constraint(
            LinearExpr::from_terms([(a, 2.0), (b, 2.0), (c, 2.0)]),
            Cmp::Le,
            4.0,
        );
        p.set_objective(LinearExpr::from_terms([(a, 10.0), (b, 3.0), (c, 1.0)]));
        let g = GreedySolver::new().solve(&p).unwrap();
        let e = ExhaustiveSolver::new().solve(&p).unwrap();
        assert!((g.objective - e.objective).abs() < 1e-9);
        assert!(g.is_set(a) && g.is_set(b));
    }

    #[test]
    fn greedy_is_feasible_but_may_be_suboptimal() {
        // Classic greedy trap: one big item vs two medium items.
        let mut p = Problem::new(Sense::Maximize);
        let big = p.add_binary("big");
        let m1 = p.add_binary("m1");
        let m2 = p.add_binary("m2");
        p.add_constraint(
            LinearExpr::from_terms([(big, 10.0), (m1, 6.0), (m2, 6.0)]),
            Cmp::Le,
            12.0,
        );
        p.set_objective(LinearExpr::from_terms([(big, 10.0), (m1, 7.0), (m2, 7.0)]));
        let g = GreedySolver::new().solve(&p).unwrap();
        let exact = BranchBound::new().solve(&p).unwrap();
        assert!(p.is_feasible(&g.values, 1e-9));
        assert!((exact.objective - 14.0).abs() < 1e-6);
        assert!(g.objective <= exact.objective + 1e-9);
    }

    #[test]
    fn reports_infeasible_when_zero_assignment_violates() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        p.set_objective(LinearExpr::var(x));
        assert_eq!(GreedySolver::new().solve(&p), Err(SolveError::Infeasible));
    }

    #[test]
    fn rejects_continuous_variables() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_continuous("x", 0.0, None);
        assert!(matches!(
            GreedySolver::new().solve(&p),
            Err(SolveError::InvalidModel(_))
        ));
    }

    #[test]
    fn minimization_starts_at_zero_and_stays_there_without_pressure() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 2.0)]));
        let g = GreedySolver::new().solve(&p).unwrap();
        assert_eq!(g.objective, 0.0);
        assert!(!g.is_set(x) && !g.is_set(y));
    }
}
