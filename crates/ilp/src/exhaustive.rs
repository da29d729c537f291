//! Exhaustive enumeration of 0-1 assignments.
//!
//! The reference the tests validate branch-and-bound against on small
//! instances.  (Figure 6's full trade-off space enumerates block subsets
//! directly, in `flashram_bench::tradeoff_space`.)

use crate::problem::{Problem, Solution, SolveError, VarKind};

/// An exhaustive 0-1 solver / enumerator.
///
/// Only problems whose variables are all binary are supported; continuous
/// variables would require an LP solve per assignment, which the caller can
/// do directly with [`SimplexSolver`](crate::SimplexSolver) if needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveSolver {
    /// Maximum number of binary variables accepted (the enumeration is
    /// `2^n`; the default of 24 keeps it under seventeen million points).
    pub max_vars: usize,
}

impl Default for ExhaustiveSolver {
    fn default() -> Self {
        ExhaustiveSolver { max_vars: 24 }
    }
}

impl ExhaustiveSolver {
    /// A solver with the default size limit.
    pub fn new() -> ExhaustiveSolver {
        ExhaustiveSolver::default()
    }

    /// Solve by enumerating every assignment.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidModel`] if the problem has continuous
    /// variables or more binaries than `max_vars`, and
    /// [`SolveError::Infeasible`] if no assignment satisfies the constraints.
    pub fn solve(&self, problem: &Problem) -> Result<Solution, SolveError> {
        let mut best: Option<Solution> = None;
        self.for_each_feasible(problem, |sol| {
            let better = best
                .as_ref()
                .is_none_or(|b| problem.is_better(sol.objective, b.objective));
            if better {
                best = Some(sol.clone());
            }
        })?;
        best.ok_or(SolveError::Infeasible)
    }

    /// Enumerate every *feasible* assignment, calling `visit` for each.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidModel`] under the same conditions as
    /// [`ExhaustiveSolver::solve`].
    pub fn for_each_feasible<F: FnMut(&Solution)>(
        &self,
        problem: &Problem,
        mut visit: F,
    ) -> Result<(), SolveError> {
        problem.check()?;
        let n = problem.num_vars();
        if problem
            .vars()
            .iter()
            .any(|d| !matches!(d.kind, VarKind::Binary))
        {
            return Err(SolveError::InvalidModel(
                "exhaustive enumeration requires all variables to be binary".into(),
            ));
        }
        if n > self.max_vars {
            return Err(SolveError::InvalidModel(format!(
                "{n} binary variables exceed the exhaustive limit of {}",
                self.max_vars
            )));
        }
        let mut values = vec![0.0; n];
        for mask in 0u64..(1u64 << n) {
            for (i, v) in values.iter_mut().enumerate() {
                *v = ((mask >> i) & 1) as f64;
            }
            if problem.is_feasible(&values, 1e-9) {
                let objective = problem.objective_value(&values);
                visit(&Solution {
                    values: values.clone(),
                    objective,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{LinearExpr, Var};
    use crate::problem::{Cmp, Sense};
    use crate::BranchBound;

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> (Problem, Vec<Var>) {
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..values.len())
            .map(|i| p.add_binary(format!("x{i}")))
            .collect();
        p.add_constraint(
            LinearExpr::from_terms(xs.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            cap,
        );
        p.set_objective(LinearExpr::from_terms(
            xs.iter().copied().zip(values.iter().copied()),
        ));
        (p, xs)
    }

    #[test]
    fn matches_branch_and_bound_on_knapsacks() {
        let cases: [(&[f64], &[f64], f64); 3] = [
            (&[10.0, 7.0, 4.0], &[5.0, 4.0, 3.0], 9.0),
            (&[6.0, 5.0, 4.0, 3.0, 2.0], &[4.0, 3.0, 2.0, 2.0, 1.0], 6.0),
            (&[1.0, 1.0, 1.0, 1.0], &[1.0, 1.0, 1.0, 1.0], 2.0),
        ];
        for (values, weights, cap) in cases {
            let (p, _) = knapsack(values, weights, cap);
            let exact = ExhaustiveSolver::new().solve(&p).unwrap();
            let bb = BranchBound::new().solve(&p).unwrap();
            assert!(
                (exact.objective - bb.objective).abs() < 1e-6,
                "exhaustive {} vs branch-and-bound {}",
                exact.objective,
                bb.objective
            );
        }
    }

    #[test]
    fn infeasible_when_no_assignment_fits() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary("x");
        p.add_constraint(LinearExpr::var(x), Cmp::Ge, 2.0);
        p.set_objective(LinearExpr::var(x));
        assert_eq!(
            ExhaustiveSolver::new().solve(&p),
            Err(SolveError::Infeasible)
        );
    }

    #[test]
    fn rejects_continuous_variables_and_oversized_problems() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_continuous("x", 0.0, None);
        assert!(matches!(
            ExhaustiveSolver::new().solve(&p),
            Err(SolveError::InvalidModel(_))
        ));

        let mut big = Problem::new(Sense::Minimize);
        for i in 0..30 {
            big.add_binary(format!("x{i}"));
        }
        let solver = ExhaustiveSolver { max_vars: 10 };
        assert!(matches!(
            solver.solve(&big),
            Err(SolveError::InvalidModel(_))
        ));
    }
}
