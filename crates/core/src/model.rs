//! The ILP formulation of the placement problem (Section 4.3).
//!
//! For every candidate block `b` the model has a binary variable `r_b`
//! (block placed in RAM), a binary `i_b` (block needs its terminator
//! rewritten to a long-range form) and a linearization variable
//! `z_b = r_b · i_b`.  The objective is the total energy
//!
//! ```text
//! Σ_b F_b · (C_b + T_b·i_b + L_b·r_b) · M(b)     with M(b) = E_flash or E_ram,
//! ```
//!
//! expanded and linearized; the constraints are the RAM budget (Eq. 7) and
//! the execution-time bound (Eq. 9), plus the edge constraints that force
//! `i_b` to 1 whenever `b` and one of its successors sit in different
//! memories (Eq. 5).

use std::collections::BTreeMap;

use flashram_ilp::{
    BranchBound, BranchBoundStats, Cmp, LinearExpr, Problem, Sense, Solution, SolveError, Var,
};
use flashram_ir::BlockRef;

use crate::params::ProgramParams;

/// Model coefficients and constraints supplied by the developer and the
/// hardware characterization (Section 4.1's `X_limit`, `R_spare`, `E_flash`
/// and `E_ram`).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Maximum allowed execution-time growth factor (1.1 = at most 10 % slower).
    pub x_limit: f64,
    /// Bytes of RAM available for relocated code.
    pub r_spare: u32,
    /// Energy (average power) coefficient for code executing from flash.
    pub e_flash: f64,
    /// Energy (average power) coefficient for code executing from RAM.
    pub e_ram: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        // The power coefficients default to the Figure 1 calibration of the
        // simulator's power model.
        ModelConfig {
            x_limit: 1.5,
            r_spare: 2048,
            e_flash: 15.45,
            e_ram: 9.05,
        }
    }
}

/// The variables associated with one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockVars {
    /// `r_b`: 1 when the block is placed in RAM.
    pub in_ram: Var,
    /// `i_b`: 1 when the block's terminator must be instrumented.
    pub instrumented: Var,
    /// `z_b = r_b · i_b`.
    pub both: Var,
}

/// The built ILP together with its variable map.
///
/// The two developer knobs — the RAM budget `R_spare` (Eq. 7) and the
/// execution-time bound `X_limit` (Eq. 9) — live purely in the right-hand
/// sides of their rows, so a built model can be retargeted to a new budget
/// pair in place with [`PlacementModel::set_budgets`] instead of being
/// rebuilt.  That is what makes frontier sweeps incremental: the rows,
/// columns and objective never change across sweep points, and the solver
/// chains warm-started re-solves through the moved right-hand sides (see
/// [`crate::frontier`]).
#[derive(Debug, Clone)]
pub struct PlacementModel {
    /// The 0-1 linear program (minimization).
    pub problem: Problem,
    /// Per-block variables.
    pub vars: BTreeMap<BlockRef, BlockVars>,
    /// The configuration the model was built with (kept in sync by
    /// [`PlacementModel::set_budgets`]).
    pub config: ModelConfig,
    /// Row index of the RAM-budget constraint (Eq. 7); its right-hand side
    /// is `config.r_spare`.
    pub ram_row: usize,
    /// Row index of the execution-time constraint (Eq. 9); its right-hand
    /// side is `config.x_limit × base_cycles`.
    pub time_row: usize,
    /// The all-in-flash weighted cycle count `Σ F_b·C_b` the time bound is
    /// relative to.
    pub base_cycles: f64,
}

impl PlacementModel {
    /// Build the ILP from extracted block parameters.
    pub fn build(params: &ProgramParams, config: &ModelConfig) -> PlacementModel {
        let mut problem = Problem::new(Sense::Minimize);
        let mut vars: BTreeMap<BlockRef, BlockVars> = BTreeMap::new();

        for r in params.block_refs() {
            let in_ram = problem.add_binary(format!("r_{r}"));
            let instrumented = problem.add_binary(format!("i_{r}"));
            let both = problem.add_binary(format!("z_{r}"));
            vars.insert(
                r,
                BlockVars {
                    in_ram,
                    instrumented,
                    both,
                },
            );
        }

        // Objective (energy) and the time expression for Eq. 9.
        let mut objective = LinearExpr::new();
        let mut time_expr = LinearExpr::new();
        let mut base_cycles = 0.0f64;
        let delta = config.e_ram - config.e_flash;
        for (r, p) in &params.blocks {
            let v = vars[r];
            let f = p.frequency as f64;
            let c = p.cycles as f64;
            let t = p.instr_cycles as f64;
            // D_b = L_b − W_b: moving to RAM adds contention but sheds the
            // flash wait-state stalls folded into C_b.  On zero-wait parts
            // D_b = L_b exactly, bit-for-bit.
            let d = p.ram_delta_cycles();
            // Energy: F·[C·Ef + (C·Δ + D·Er)·r + T·Ef·i + T·Δ·z]
            objective.add_constant(f * c * config.e_flash);
            objective.add_term(v.in_ram, f * (c * delta + d * config.e_ram));
            objective.add_term(v.instrumented, f * t * config.e_flash);
            objective.add_term(v.both, f * t * delta);
            // Time: F·(C + T·i + D·r)
            base_cycles += f * c;
            time_expr.add_constant(f * c);
            time_expr.add_term(v.instrumented, f * t);
            time_expr.add_term(v.in_ram, f * d);
        }
        problem.set_objective(objective);

        // Eq. 5: instrumentation is forced when a block and a successor are
        // in different memories: i_b ≥ r_b − r_s and i_b ≥ r_s − r_b.
        for (r, p) in &params.blocks {
            let v = vars[r];
            for succ in &p.successors {
                let succ_ref = BlockRef {
                    func: r.func,
                    block: *succ,
                };
                let Some(sv) = vars.get(&succ_ref) else {
                    continue;
                };
                if succ_ref == *r {
                    continue;
                }
                // i_b - r_b + r_s ≥ 0
                problem.add_constraint(
                    LinearExpr::from_terms([
                        (v.instrumented, 1.0),
                        (v.in_ram, -1.0),
                        (sv.in_ram, 1.0),
                    ]),
                    Cmp::Ge,
                    0.0,
                );
                // i_b + r_b - r_s ≥ 0
                problem.add_constraint(
                    LinearExpr::from_terms([
                        (v.instrumented, 1.0),
                        (v.in_ram, 1.0),
                        (sv.in_ram, -1.0),
                    ]),
                    Cmp::Ge,
                    0.0,
                );
            }
            // Linearization of z = r·i:  z ≤ r, z ≤ i, z ≥ r + i − 1.
            problem.add_constraint(
                LinearExpr::from_terms([(v.both, 1.0), (v.in_ram, -1.0)]),
                Cmp::Le,
                0.0,
            );
            problem.add_constraint(
                LinearExpr::from_terms([(v.both, 1.0), (v.instrumented, -1.0)]),
                Cmp::Le,
                0.0,
            );
            problem.add_constraint(
                LinearExpr::from_terms([(v.both, 1.0), (v.in_ram, -1.0), (v.instrumented, -1.0)]),
                Cmp::Ge,
                -1.0,
            );
        }

        // Eq. 7: RAM budget.
        let mut ram_expr = LinearExpr::new();
        for (r, p) in &params.blocks {
            let v = vars[r];
            ram_expr.add_term(v.in_ram, p.size_bytes as f64);
            ram_expr.add_term(v.instrumented, p.instr_bytes as f64);
        }
        let ram_row = problem.num_constraints();
        problem.add_constraint(ram_expr, Cmp::Le, config.r_spare as f64);

        // Eq. 9: execution-time bound.  `time_expr` carries the constant
        // `Σ F_b·C_b`, which `add_constraint` folds into the stored
        // right-hand side — `set_budgets` must fold it the same way.
        let time_row = problem.num_constraints();
        problem.add_constraint(time_expr, Cmp::Le, config.x_limit * base_cycles);

        PlacementModel {
            problem,
            vars,
            config: config.clone(),
            ram_row,
            time_row,
            base_cycles,
        }
    }

    /// Retarget the model to a new `(R_spare, X_limit)` pair **in place**:
    /// only the right-hand sides of the two budget rows move, every other
    /// row, column and objective coefficient is untouched.  A solver state
    /// chained from before the call therefore stays structurally valid and
    /// can be re-entered with the dual simplex
    /// ([`flashram_ilp::BranchBound::solve_chained`]).
    pub fn set_budgets(&mut self, r_spare: u32, x_limit: f64) {
        // The time expression's constant part (the all-in-flash cycles) was
        // folded into the stored rhs at build time; replicate that fold.
        self.problem
            .set_rhs(self.ram_row, r_spare as f64)
            .expect("RAM-budget row exists");
        self.problem
            .set_rhs(self.time_row, x_limit * self.base_cycles - self.base_cycles)
            .expect("time-bound row exists");
        self.config.r_spare = r_spare;
        self.config.x_limit = x_limit;
    }

    /// The RAM the model charges a solution for: the left-hand side of the
    /// Eq. 7 budget row (block bytes plus instrumentation bytes of every
    /// instrumented block).  This is the budget below which the solution
    /// becomes infeasible — the breakpoint the frontier enumeration descends
    /// to.
    pub fn ram_used(&self, solution: &Solution) -> f64 {
        self.problem.constraints()[self.ram_row]
            .expr
            .evaluate(&solution.values)
    }

    /// Solve the placement ILP with a default warm-started branch-and-bound
    /// solver, returning the solution and the search statistics.
    ///
    /// # Errors
    ///
    /// See [`BranchBound::solve`].
    pub fn solve(&self) -> Result<(Solution, BranchBoundStats), SolveError> {
        self.solve_with(&BranchBound::new())
    }

    /// Solve the placement ILP with a caller-configured solver.
    ///
    /// # Errors
    ///
    /// See [`BranchBound::solve`].
    pub fn solve_with(
        &self,
        solver: &BranchBound,
    ) -> Result<(Solution, BranchBoundStats), SolveError> {
        solver.solve_with_stats(&self.problem)
    }

    /// The set of blocks a solution places in RAM.
    pub fn selected_blocks(&self, solution: &Solution) -> Vec<BlockRef> {
        self.vars
            .iter()
            .filter(|(_, v)| solution.is_set(v.in_ram))
            .map(|(r, _)| *r)
            .collect()
    }
}

/// Model-based estimate of a placement's energy, execution time and RAM use,
/// in the same units the objective uses.  This is what the Figure 6
/// trade-off-space plots are built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementEstimate {
    /// Objective-units energy (power-coefficient × cycles).
    pub energy: f64,
    /// Weighted cycles `Σ F_b (C_b + overheads)`.
    pub cycles: f64,
    /// Bytes of RAM used by the relocated blocks and their instrumentation.
    pub ram_bytes: u32,
}

/// Evaluate an arbitrary placement (the set of blocks in RAM) under the
/// cost model, deriving the instrumentation set from Eq. 5.
pub fn evaluate_placement(
    params: &ProgramParams,
    in_ram: &[BlockRef],
    config: &ModelConfig,
) -> PlacementEstimate {
    use std::collections::BTreeSet;
    let ram_set: BTreeSet<BlockRef> = in_ram.iter().copied().collect();
    let mut energy = 0.0;
    let mut cycles = 0.0;
    let mut ram_bytes = 0u32;
    for (r, p) in &params.blocks {
        let in_ram = ram_set.contains(r);
        let needs_instr = p.successors.iter().any(|s| {
            let sr = BlockRef {
                func: r.func,
                block: *s,
            };
            params.blocks.contains_key(&sr) && ram_set.contains(&sr) != in_ram
        });
        let m = if in_ram { config.e_ram } else { config.e_flash };
        let t = if needs_instr {
            p.instr_cycles as f64
        } else {
            0.0
        };
        let d = if in_ram { p.ram_delta_cycles() } else { 0.0 };
        let f = p.frequency as f64;
        let c = p.cycles as f64 + t + d;
        energy += f * c * m;
        cycles += f * c;
        if in_ram {
            ram_bytes += p.size_bytes;
        }
        if needs_instr {
            ram_bytes += if in_ram { p.instr_bytes } else { 0 };
        }
    }
    PlacementEstimate {
        energy,
        cycles,
        ram_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{extract_params, FrequencySource};
    use flashram_ilp::BranchBound;
    use flashram_minicc::{compile_program, OptLevel, SourceUnit};

    const SRC: &str = "
        int work(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 3 == 0) { s += i * 2; } else { s -= i; }
            }
            return s;
        }
        int main() { return work(50); }
    ";

    fn params() -> ProgramParams {
        let prog = compile_program(&[SourceUnit::application(SRC)], OptLevel::O1).unwrap();
        extract_params(&prog, &FrequencySource::default())
    }

    #[test]
    fn model_has_three_vars_per_block() {
        let p = params();
        let model = PlacementModel::build(&p, &ModelConfig::default());
        assert_eq!(model.problem.num_vars(), 3 * p.blocks.len());
        assert!(model.problem.num_constraints() >= p.blocks.len() * 3 + 2);
        assert!(model.problem.check().is_ok());
    }

    #[test]
    fn solving_moves_hot_blocks_into_ram() {
        let p = params();
        let model = PlacementModel::build(&p, &ModelConfig::default());
        let sol = BranchBound::new().solve(&model.problem).expect("solvable");
        let selected = model.selected_blocks(&sol);
        assert!(
            !selected.is_empty(),
            "with generous budgets the solver should use RAM"
        );
        // The hottest block must be selected.
        let hottest = p
            .blocks
            .iter()
            .max_by_key(|(_, bp)| bp.frequency * bp.cycles)
            .map(|(r, _)| *r)
            .unwrap();
        assert!(selected.contains(&hottest));
    }

    #[test]
    fn zero_ram_budget_selects_nothing() {
        let p = params();
        let config = ModelConfig {
            r_spare: 0,
            ..ModelConfig::default()
        };
        let model = PlacementModel::build(&p, &config);
        let sol = BranchBound::new().solve(&model.problem).expect("solvable");
        assert!(model.selected_blocks(&sol).is_empty());
    }

    #[test]
    fn tight_time_limit_blocks_expensive_instrumentation() {
        let p = params();
        let relaxed = {
            let model = PlacementModel::build(
                &p,
                &ModelConfig {
                    x_limit: 2.0,
                    ..Default::default()
                },
            );
            let sol = BranchBound::new().solve(&model.problem).unwrap();
            evaluate_placement(&p, &model.selected_blocks(&sol), &model.config)
        };
        let tight = {
            let model = PlacementModel::build(
                &p,
                &ModelConfig {
                    x_limit: 1.0,
                    ..Default::default()
                },
            );
            let sol = BranchBound::new().solve(&model.problem).unwrap();
            evaluate_placement(&p, &model.selected_blocks(&sol), &model.config)
        };
        let base = evaluate_placement(&p, &[], &ModelConfig::default());
        // The tight bound must respect the base cycle count; the relaxed one
        // may exceed it but must save at least as much energy.
        assert!(tight.cycles <= base.cycles * 1.0 + 1e-6);
        assert!(relaxed.energy <= tight.energy + 1e-6);
    }

    #[test]
    fn evaluate_placement_matches_objective_on_solver_solution() {
        let p = params();
        let config = ModelConfig::default();
        let model = PlacementModel::build(&p, &config);
        let sol = BranchBound::new().solve(&model.problem).unwrap();
        let est = evaluate_placement(&p, &model.selected_blocks(&sol), &config);
        assert!(
            (est.energy - sol.objective).abs() <= 1e-6 * sol.objective.abs().max(1.0),
            "hand evaluation {} differs from ILP objective {}",
            est.energy,
            sol.objective
        );
    }

    #[test]
    fn placement_lp_has_no_bound_rows_and_no_artificials() {
        // The bounded-variable simplex keeps binary bounds and branch
        // fixings out of the tableau: one row per model constraint, no
        // artificial columns — the acceptance shape for the placement LPs.
        let p = params();
        let model = PlacementModel::build(&p, &ModelConfig::default());
        let solver = flashram_ilp::SimplexSolver::new();
        let root = solver.solve_tracked(&model.problem, &[]);
        let state = root.state.expect("relaxation solves");
        assert_eq!(state.num_rows(), model.problem.num_constraints());
        assert_eq!(state.num_artificials(), 0);

        // Branch fixings are applied to the warm-start state as degenerate
        // bounds and re-solved with the dual simplex — still no extra rows
        // and no artificial columns.
        let v = model.vars.values().next().expect("has blocks").in_ram;
        let fixed = solver.resolve(&model.problem, state, &[(v, 1.0)]);
        let fstate = fixed.state.expect("fixed relaxation solves");
        assert_eq!(fstate.num_rows(), model.problem.num_constraints());
        assert_eq!(fstate.num_artificials(), 0);
    }

    #[test]
    fn warm_and_cold_branch_and_bound_agree_on_the_placement_model() {
        let p = params();
        let model = PlacementModel::build(&p, &ModelConfig::default());
        let (warm_sol, warm) = model.solve().expect("warm solve");
        let cold_solver = BranchBound {
            warm_start: false,
            ..BranchBound::default()
        };
        let (cold_sol, cold) = model.solve_with(&cold_solver).expect("cold solve");
        assert!(
            (warm_sol.objective - cold_sol.objective).abs()
                <= 1e-6 * cold_sol.objective.abs().max(1.0),
            "warm {} vs cold {}",
            warm_sol.objective,
            cold_sol.objective
        );
        assert_eq!(cold.warm_solves, 0);
        if warm.warm_solves > 0 {
            let per_warm = warm.warm_pivots as f64 / warm.warm_solves as f64;
            let per_cold = cold.cold_pivots as f64 / cold.cold_solves as f64;
            assert!(
                per_warm < per_cold,
                "warm-started nodes must pivot less: {per_warm:.2} vs {per_cold:.2}"
            );
        }
    }

    #[test]
    fn set_budgets_matches_a_rebuilt_model_exactly() {
        // In-place retargeting must be indistinguishable from a rebuild:
        // identical rows, coefficients and (bitwise) right-hand sides, so a
        // chained solver state stays valid across the mutation.
        let p = params();
        let mut model = PlacementModel::build(&p, &ModelConfig::default());
        for (r_spare, x_limit) in [(64u32, 1.1), (4096, 2.0), (0, 1.0), (2048, 1.5)] {
            model.set_budgets(r_spare, x_limit);
            let rebuilt = PlacementModel::build(
                &p,
                &ModelConfig {
                    r_spare,
                    x_limit,
                    ..ModelConfig::default()
                },
            );
            assert_eq!(model.problem, rebuilt.problem);
            assert_eq!(model.config, rebuilt.config);
        }
    }

    #[test]
    fn ram_used_reads_the_budget_row() {
        let p = params();
        let model = PlacementModel::build(&p, &ModelConfig::default());
        let sol = BranchBound::new().solve(&model.problem).unwrap();
        let used = model.ram_used(&sol);
        assert!(used >= 0.0 && used <= model.config.r_spare as f64 + 1e-6);
        // The budget row charges block bytes plus instrumentation bytes of
        // every instrumented block (RAM- and flash-side alike), so it is at
        // least the relocated bytes the estimate reports.
        let est = evaluate_placement(&p, &model.selected_blocks(&sol), &model.config);
        assert!(used + 1e-6 >= est.ram_bytes as f64);
    }

    #[test]
    fn ram_constraint_is_respected() {
        let p = params();
        let config = ModelConfig {
            r_spare: 64,
            ..ModelConfig::default()
        };
        let model = PlacementModel::build(&p, &config);
        let sol = BranchBound::new().solve(&model.problem).unwrap();
        let est = evaluate_placement(&p, &model.selected_blocks(&sol), &config);
        assert!(
            est.ram_bytes <= 64,
            "placement uses {} bytes",
            est.ram_bytes
        );
    }
}
