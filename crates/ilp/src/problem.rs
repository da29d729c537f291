//! Model container: variables, constraints, objective.

use std::fmt;

use crate::expr::{LinearExpr, Var};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cmp::Le => write!(f, "<="),
            Cmp::Ge => write!(f, ">="),
            Cmp::Eq => write!(f, "="),
        }
    }
}

/// Kind and bounds of a variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarKind {
    /// Continuous variable with a lower bound and an optional upper bound.
    Continuous {
        /// Lower bound (may be 0 for the usual non-negative variables).
        lower: f64,
        /// Optional upper bound.
        upper: Option<f64>,
    },
    /// 0/1 integer variable.
    Binary,
}

/// Definition of one variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDef {
    /// Human-readable name, used in diagnostics.
    pub name: String,
    /// Kind and bounds.
    pub kind: VarKind,
}

/// A linear constraint `expr op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Left-hand-side expression (its constant part is folded into `rhs`).
    pub expr: LinearExpr,
    /// Comparison operator.
    pub op: Cmp,
    /// Right-hand-side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Check whether an assignment satisfies the constraint, up to `tol`.
    pub fn satisfied(&self, values: &[f64], tol: f64) -> bool {
        let lhs = self.expr.evaluate(values);
        match self.op {
            Cmp::Le => lhs <= self.rhs + tol,
            Cmp::Ge => lhs >= self.rhs - tol,
            Cmp::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// Errors returned by the solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// No feasible assignment exists.
    Infeasible,
    /// The problem is unbounded in the optimization direction.
    Unbounded,
    /// The solver hit its iteration or node budget before completing.
    /// The payload describes which budget was exhausted.
    BudgetExhausted(String),
    /// The model is malformed (e.g. an expression references a variable that
    /// was never added).
    InvalidModel(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "problem is unbounded"),
            SolveError::BudgetExhausted(what) => write!(f, "solver budget exhausted: {what}"),
            SolveError::InvalidModel(why) => write!(f, "invalid model: {why}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A solved assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value per variable, indexed by variable number.
    pub values: Vec<f64>,
    /// Objective value of the assignment (in the problem's own sense).
    pub objective: f64,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, var: Var) -> f64 {
        self.values.get(var.index()).copied().unwrap_or(0.0)
    }

    /// Whether a binary variable is set (value ≥ 0.5).
    pub fn is_set(&self, var: Var) -> bool {
        self.value(var) >= 0.5
    }
}

/// A linear model: variables, linear constraints and a linear objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    sense: Sense,
    vars: Vec<VarDef>,
    constraints: Vec<Constraint>,
    objective: LinearExpr,
}

impl Problem {
    /// Create an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> Problem {
        Problem {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinearExpr::new(),
        }
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a continuous variable with bounds `[lower, upper]`.
    pub fn add_continuous(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: Option<f64>,
    ) -> Var {
        self.vars.push(VarDef {
            name: name.into(),
            kind: VarKind::Continuous { lower, upper },
        });
        Var(self.vars.len() - 1)
    }

    /// Add a 0/1 variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.vars.push(VarDef {
            name: name.into(),
            kind: VarKind::Binary,
        });
        Var(self.vars.len() - 1)
    }

    /// Add the constraint `expr op rhs`.  Any constant part of `expr` is
    /// folded into the right-hand side.
    pub fn add_constraint(&mut self, expr: LinearExpr, op: Cmp, rhs: f64) {
        let c = expr.constant_part();
        let expr = expr - LinearExpr::constant(c);
        self.constraints.push(Constraint {
            expr,
            op,
            rhs: rhs - c,
        });
    }

    /// Set the objective expression.
    pub fn set_objective(&mut self, objective: LinearExpr) {
        self.objective = objective;
    }

    /// Overwrite the right-hand side of constraint `index` in place, leaving
    /// its expression and operator untouched.
    ///
    /// This is the mutation the frontier sweeps are built on: a budget
    /// constraint like `Σ S_b·r_b ≤ R_spare` keeps its row and coefficients
    /// across sweep points, only the bound moves.  A solved
    /// [`LpState`](crate::basis::LpState) taken *before* the mutation can be re-solved
    /// against the new right-hand side with
    /// [`SimplexSolver::reenter`](crate::SimplexSolver::reenter)
    /// — an RHS change never disturbs the reduced costs, so the dual simplex
    /// repairs the old optimal basis in a handful of pivots.
    ///
    /// Note that [`Problem::add_constraint`] folds the expression's constant
    /// part into the stored right-hand side; `set_rhs` sets the *stored*
    /// value directly, so callers that built the row from an expression with
    /// a constant part must fold it themselves.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidModel`] when `index` is out of range or
    /// `rhs` is not finite.
    pub fn set_rhs(&mut self, index: usize, rhs: f64) -> Result<(), SolveError> {
        if !rhs.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "constraint {index} right-hand side set to non-finite {rhs}"
            )));
        }
        match self.constraints.get_mut(index) {
            Some(c) => {
                c.rhs = rhs;
                Ok(())
            }
            None => Err(SolveError::InvalidModel(format!(
                "set_rhs on constraint {index} but only {} constraints exist",
                self.constraints.len()
            ))),
        }
    }

    /// The right-hand side of constraint `index` (`None` when out of range).
    pub fn rhs(&self, index: usize) -> Option<f64> {
        self.constraints.get(index).map(|c| c.rhs)
    }

    /// The objective expression.
    pub fn objective(&self) -> &LinearExpr {
        &self.objective
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The variable definitions.
    pub fn vars(&self) -> &[VarDef] {
        &self.vars
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The binary variables of the problem.
    pub fn binary_vars(&self) -> Vec<Var> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, d)| d.kind == VarKind::Binary)
            .map(|(i, _)| Var(i))
            .collect()
    }

    /// Check the structural validity of the model: every expression must
    /// only mention defined variables.
    pub fn check(&self) -> Result<(), SolveError> {
        let n = self.vars.len();
        let check_expr = |e: &LinearExpr, what: &str| -> Result<(), SolveError> {
            if let Some(m) = e.max_var() {
                if m >= n {
                    return Err(SolveError::InvalidModel(format!(
                        "{what} references x{m} but only {n} variables are defined"
                    )));
                }
            }
            Ok(())
        };
        check_expr(&self.objective, "objective")?;
        for (i, c) in self.constraints.iter().enumerate() {
            check_expr(&c.expr, &format!("constraint {i}"))?;
        }
        Ok(())
    }

    /// Whether an assignment satisfies every constraint and every variable
    /// bound (binaries must be within `tol` of 0 or 1).
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() < self.vars.len() {
            return false;
        }
        for (i, d) in self.vars.iter().enumerate() {
            let v = values[i];
            match d.kind {
                VarKind::Binary => {
                    if !(v >= -tol && v <= 1.0 + tol) || ((v - v.round()).abs() > tol) {
                        return false;
                    }
                }
                VarKind::Continuous { lower, upper } => {
                    if v < lower - tol {
                        return false;
                    }
                    if let Some(u) = upper {
                        if v > u + tol {
                            return false;
                        }
                    }
                }
            }
        }
        self.constraints.iter().all(|c| c.satisfied(values, tol))
    }

    /// Evaluate the objective for an assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective.evaluate(values)
    }

    /// Compare two objective values in the problem's sense: returns `true`
    /// when `a` is strictly better than `b`.
    pub fn is_better(&self, a: f64, b: f64) -> bool {
        match self.sense {
            Sense::Minimize => a < b,
            Sense::Maximize => a > b,
        }
    }

    /// The worst possible objective value in the problem's sense (used to
    /// initialize incumbents).
    pub fn worst_objective(&self) -> f64 {
        match self.sense {
            Sense::Minimize => f64::INFINITY,
            Sense::Maximize => f64::NEG_INFINITY,
        }
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sense = match self.sense {
            Sense::Minimize => "minimize",
            Sense::Maximize => "maximize",
        };
        writeln!(f, "{sense} {}", self.objective)?;
        writeln!(f, "subject to")?;
        for c in &self.constraints {
            writeln!(f, "  {} {} {}", c.expr, c.op, c.rhs)?;
        }
        for (i, v) in self.vars.iter().enumerate() {
            match v.kind {
                VarKind::Binary => writeln!(f, "  x{i} ({}) in {{0, 1}}", v.name)?,
                VarKind::Continuous { lower, upper } => match upper {
                    Some(u) => writeln!(f, "  {lower} <= x{i} ({}) <= {u}", v.name)?,
                    None => writeln!(f, "  x{i} ({}) >= {lower}", v.name)?,
                },
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn building_a_problem() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, None);
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 2.0)]), Cmp::Ge, 2.0);
        p.set_objective(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]));
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.binary_vars(), vec![y]);
        assert!(p.check().is_ok());
    }

    #[test]
    fn constants_fold_into_rhs() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, None);
        let mut e = LinearExpr::var(x);
        e.add_constant(3.0);
        p.add_constraint(e, Cmp::Le, 5.0);
        assert_eq!(p.constraints()[0].rhs, 2.0);
        assert_eq!(p.constraints()[0].expr.constant_part(), 0.0);
    }

    #[test]
    fn feasibility_checks_bounds_and_integrality() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, Some(2.0));
        let y = p.add_binary("y");
        p.add_constraint(LinearExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 2.5);
        assert!(p.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!p.is_feasible(&[3.0, 0.0], 1e-9), "x above upper bound");
        assert!(!p.is_feasible(&[1.0, 0.4], 1e-9), "y fractional");
        assert!(!p.is_feasible(&[2.0, 1.0], 1e-9), "constraint violated");
        assert!(!p.is_feasible(&[1.0], 1e-9), "missing values");
    }

    #[test]
    fn invalid_model_is_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_binary("x");
        p.set_objective(LinearExpr::from_terms([(Var(5), 1.0)]));
        assert!(matches!(p.check(), Err(SolveError::InvalidModel(_))));
    }

    #[test]
    fn sense_comparisons() {
        let pmin = Problem::new(Sense::Minimize);
        let pmax = Problem::new(Sense::Maximize);
        assert!(pmin.is_better(1.0, 2.0));
        assert!(!pmin.is_better(2.0, 1.0));
        assert!(pmax.is_better(2.0, 1.0));
        assert_eq!(pmin.worst_objective(), f64::INFINITY);
        assert_eq!(pmax.worst_objective(), f64::NEG_INFINITY);
    }

    #[test]
    fn solution_accessors() {
        let s = Solution {
            values: vec![0.0, 1.0, 0.3],
            objective: 7.0,
        };
        assert_eq!(s.value(Var(1)), 1.0);
        assert!(s.is_set(Var(1)));
        assert!(!s.is_set(Var(0)));
        assert_eq!(s.value(Var(9)), 0.0);
    }

    #[test]
    fn display_contains_sense_and_vars() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_binary("pick");
        p.set_objective(LinearExpr::var(x));
        let text = p.to_string();
        assert!(text.contains("minimize"));
        assert!(text.contains("pick"));
    }
}
