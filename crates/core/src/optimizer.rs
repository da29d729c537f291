//! The end-to-end optimization pipeline.
//!
//! [`RamOptimizer`] glues the pieces together exactly as the paper's
//! prototype does: extract the per-block parameters from the compiled
//! program, build the ILP, solve it, and rewrite the code.  The optimizer
//! runs with either the static frequency estimate or a measured profile
//! (Figure 5).  It is a one-point [`PlacementSession`], so it shares the
//! frontier engine's solve path, including the greedy fallback when the
//! node budget runs out before any integer solution exists.

use flashram_ilp::{BranchBoundStats, SolveError};

use flashram_ir::{BlockRef, MachineProgram};
use flashram_mcu::Board;

use crate::frontier::{PlacementSession, PointResolution};
use crate::model::{ModelConfig, PlacementEstimate};
use crate::params::{FrequencySource, PlacementScope, ProgramParams};
use crate::transform::apply_placement_scoped;

/// Configuration of the optimization pass.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Maximum execution-time growth (`X_limit`, Section 4.1).
    pub x_limit: f64,
    /// RAM available for code, in bytes.  `None` derives it from the board:
    /// whatever the program's data, stack reserve and existing RAM code
    /// leave free.
    pub r_spare: Option<u32>,
    /// Source of the block-frequency parameter `F_b`.
    pub frequency: FrequencySource,
    /// Whether library code may be relocated too (the paper's future-work
    /// linker-level mode).
    pub scope: PlacementScope,
    /// Branch-and-bound node budget override for the ILP solver (`None`
    /// uses the solver default).  When the budget runs out before any
    /// integer solution is found, the optimizer falls back to the greedy
    /// heuristic instead of failing.
    pub max_ilp_nodes: Option<usize>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            x_limit: 1.5,
            r_spare: None,
            frequency: FrequencySource::default(),
            scope: PlacementScope::ApplicationOnly,
            max_ilp_nodes: None,
        }
    }
}

/// Errors from the optimization pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// The program does not fit the board even before optimization.
    DoesNotFit(String),
    /// The ILP solver failed (infeasible or invalid models indicate a bug;
    /// budget exhaustion is handled internally by falling back to the
    /// greedy heuristic, so it only surfaces here if the fallback fails too).
    Solver(SolveError),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::DoesNotFit(w) => write!(f, "{w}"),
            OptimizeError::Solver(e) => write!(f, "placement solver failed: {e}"),
        }
    }
}

impl std::error::Error for OptimizeError {}

impl From<SolveError> for OptimizeError {
    fn from(e: SolveError) -> Self {
        OptimizeError::Solver(e)
    }
}

/// The outcome of one optimization run.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The transformed program (selected blocks in the RAM section, crossing
    /// terminators rewritten).
    pub program: MachineProgram,
    /// The blocks placed in RAM.
    pub selected: Vec<BlockRef>,
    /// The extracted model parameters (useful for reporting and plots).
    pub params: ProgramParams,
    /// Model-based estimate of the chosen placement.
    pub predicted: PlacementEstimate,
    /// Model-based estimate of the all-in-flash baseline.
    pub predicted_base: PlacementEstimate,
    /// The RAM budget that was actually used for the model.
    pub r_spare: u32,
    /// The model configuration (power coefficients, `X_limit`).
    pub model_config: ModelConfig,
    /// Whether the selection is not a proven optimum: true when the node
    /// budget ran out and the optimizer fell back to greedy, and for an ILP
    /// incumbent returned under an exhausted budget or with LP-iteration-
    /// limited subtrees skipped (any [`PointResolution`] but `Exact`).
    pub heuristic: bool,
    /// Branch-and-bound statistics of the ILP solve; always `Some`.  For
    /// the greedy *fallback* after budget exhaustion these are the stats of
    /// the failed ILP attempt — the effort actually spent before degrading,
    /// not zeros.
    pub solver_stats: Option<BranchBoundStats>,
}

impl Placement {
    /// Predicted relative energy (optimized / baseline) from the cost model.
    pub fn predicted_energy_ratio(&self) -> f64 {
        if self.predicted_base.energy == 0.0 {
            1.0
        } else {
            self.predicted.energy / self.predicted_base.energy
        }
    }

    /// Predicted relative execution time from the cost model.
    pub fn predicted_time_ratio(&self) -> f64 {
        if self.predicted_base.cycles == 0.0 {
            1.0
        } else {
            self.predicted.cycles / self.predicted_base.cycles
        }
    }
}

/// The flash-to-RAM basic-block placement optimizer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RamOptimizer {
    /// Pass configuration.
    pub config: OptimizerConfig,
}

impl RamOptimizer {
    /// An optimizer with default configuration.
    pub fn new() -> RamOptimizer {
        RamOptimizer::default()
    }

    /// An optimizer with the given configuration.
    pub fn with_config(config: OptimizerConfig) -> RamOptimizer {
        RamOptimizer { config }
    }

    /// Open a [`PlacementSession`] for `program` on `board` with this
    /// optimizer's configuration: the frontier-sweep entry point when more
    /// than one `(R_spare, X_limit)` point is wanted (model built once,
    /// sweep points chained through warm-started roots).
    ///
    /// # Errors
    ///
    /// See [`PlacementSession::new`].
    pub fn session(
        &self,
        program: &MachineProgram,
        board: &Board,
    ) -> Result<PlacementSession, OptimizeError> {
        PlacementSession::new(program, board, &self.config)
    }

    /// Derive the model coefficients for a given board.
    pub fn model_config_for(&self, board: &Board, r_spare: u32) -> ModelConfig {
        let (e_flash, e_ram) = board.power.model_coefficients();
        ModelConfig {
            x_limit: self.config.x_limit,
            r_spare,
            e_flash,
            e_ram,
        }
    }

    /// Run the optimization against a program that will execute on `board`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::DoesNotFit`] when the unoptimized program
    /// already exceeds the board's memories, or a solver error.
    pub fn optimize(
        &self,
        program: &MachineProgram,
        board: &Board,
    ) -> Result<Placement, OptimizeError> {
        let mut session = self.session(program, board)?;
        let spare = session.spare_ram();
        let solved = session.solve_point_degraded(spare, self.config.x_limit)?;
        let predicted_base = session.baseline();
        let model_config = session.model().config.clone();
        let selected = solved.point.selected;
        Ok(Placement {
            program: apply_placement_scoped(program, &selected, self.config.scope),
            selected,
            params: session.into_params(),
            predicted: solved.point.predicted,
            predicted_base,
            r_spare: spare,
            model_config,
            heuristic: solved.resolution != PointResolution::Exact,
            solver_stats: Some(solved.point.stats),
        })
    }

    /// Convenience wrapper that first profiles the program on the board and
    /// then optimizes using the measured block frequencies (the "actual
    /// frequency" variant of Figure 5).
    ///
    /// # Errors
    ///
    /// Propagates simulation and solver errors.
    pub fn optimize_with_profile(
        &self,
        program: &MachineProgram,
        board: &Board,
    ) -> Result<Placement, OptimizeError> {
        let run = board
            .run(program)
            .map_err(|e| OptimizeError::DoesNotFit(format!("profiling run failed: {e}")))?;
        let mut with_profile = self.clone();
        with_profile.config.frequency = FrequencySource::Profiled(run.profile);
        with_profile.optimize(program, board)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::evaluate_placement;
    use flashram_ilp::GreedySolver;
    use flashram_mcu::Board;
    use flashram_minicc::{compile_program, OptLevel, SourceUnit};

    const HOT_LOOP: &str = "
        int data[64];
        int main() {
            int s = 0;
            for (int i = 0; i < 64; i++) { data[i] = i * 3; }
            for (int rep = 0; rep < 40; rep++) {
                for (int i = 0; i < 64; i++) { s += data[i] * rep; }
            }
            return s;
        }
    ";

    fn program() -> MachineProgram {
        compile_program(&[SourceUnit::application(HOT_LOOP)], OptLevel::O2).unwrap()
    }

    #[test]
    fn optimization_reduces_energy_and_power_in_simulation() {
        let board = Board::stm32vldiscovery();
        let prog = program();
        let base = board.run(&prog).unwrap();
        let placement = RamOptimizer::new().optimize(&prog, &board).unwrap();
        assert!(!placement.selected.is_empty());
        let opt = board.run(&placement.program).unwrap();
        assert_eq!(
            base.return_value, opt.return_value,
            "semantics must be preserved"
        );
        assert!(
            opt.energy_mj < base.energy_mj,
            "energy should drop: {} -> {}",
            base.energy_mj,
            opt.energy_mj
        );
        assert!(opt.avg_power_mw < base.avg_power_mw);
        assert!(opt.time_s >= base.time_s, "RAM execution is never faster");
        // The model's predicted direction matches the measurement.
        assert!(placement.predicted_energy_ratio() < 1.0);
        assert!(placement.predicted_time_ratio() >= 1.0);
    }

    #[test]
    fn time_bound_is_respected_in_simulation() {
        let board = Board::stm32vldiscovery();
        let prog = program();
        let base = board.run(&prog).unwrap();
        for x_limit in [1.05, 1.2, 1.5] {
            let optimizer = RamOptimizer::with_config(OptimizerConfig {
                x_limit,
                ..OptimizerConfig::default()
            });
            let placement = optimizer.optimize(&prog, &board).unwrap();
            let opt = board.run(&placement.program).unwrap();
            let ratio = opt.time_s / base.time_s;
            assert!(
                ratio <= x_limit * 1.10 + 0.02,
                "time grew by {ratio:.3} with X_limit {x_limit}"
            );
        }
    }

    #[test]
    fn greedy_baseline_never_beats_the_ilp_model() {
        let board = Board::stm32vldiscovery();
        let prog = program();
        let ilp = RamOptimizer::new().optimize(&prog, &board).unwrap();
        let session = RamOptimizer::new().session(&prog, &board).unwrap();
        let model = session.model();
        let greedy = GreedySolver::new().solve(&model.problem).unwrap();
        let greedy = evaluate_placement(
            session.params(),
            &model.selected_blocks(&greedy),
            &model.config,
        );
        assert!(ilp.predicted.energy <= greedy.energy + 1e-6);
    }

    #[test]
    fn optimize_is_a_one_point_session() {
        let board = Board::stm32vldiscovery();
        let prog = program();
        let untimed = |stats: BranchBoundStats| BranchBoundStats {
            wall_ms: 0.0,
            ..stats
        };
        for max_ilp_nodes in [None, Some(0)] {
            let optimizer = RamOptimizer::with_config(OptimizerConfig {
                max_ilp_nodes,
                ..OptimizerConfig::default()
            });
            let placement = optimizer.optimize(&prog, &board).unwrap();
            let mut session = PlacementSession::new(&prog, &board, &optimizer.config).unwrap();
            let spare = session.spare_ram();
            let solved = session
                .solve_point_degraded(spare, optimizer.config.x_limit)
                .unwrap();
            assert_eq!(placement.selected, solved.point.selected);
            assert_eq!(placement.predicted, solved.point.predicted);
            assert_eq!(placement.predicted_base, session.baseline());
            assert_eq!(
                placement.heuristic,
                solved.resolution != PointResolution::Exact
            );
            assert_eq!(
                placement.solver_stats.map(untimed),
                Some(untimed(solved.point.stats))
            );
            assert_eq!(placement.r_spare, spare);
            assert_eq!(placement.model_config, session.model().config);
        }
    }

    #[test]
    fn profile_guided_optimization_also_preserves_semantics() {
        let board = Board::stm32vldiscovery();
        let prog = program();
        let base = board.run(&prog).unwrap();
        let placement = RamOptimizer::new()
            .optimize_with_profile(&prog, &board)
            .unwrap();
        let opt = board.run(&placement.program).unwrap();
        assert_eq!(base.return_value, opt.return_value);
        assert!(opt.avg_power_mw < base.avg_power_mw);
    }

    #[test]
    fn ilp_solver_reports_optimal_with_stats() {
        let board = Board::stm32vldiscovery();
        let prog = program();
        let placement = RamOptimizer::new().optimize(&prog, &board).unwrap();
        assert!(!placement.heuristic, "a full ILP solve is not a heuristic");
        let stats = placement.solver_stats.expect("ILP runs record stats");
        assert!(stats.nodes_explored >= 1);
        assert!(!stats.budget_exhausted);
    }

    #[test]
    fn exhausted_node_budget_falls_back_to_greedy() {
        // Regression: `optimize` used to propagate BudgetExhausted as a hard
        // error even though the greedy solver documents itself as the
        // fallback for exactly this case.
        let board = Board::stm32vldiscovery();
        let prog = program();
        let placement = RamOptimizer::with_config(OptimizerConfig {
            max_ilp_nodes: Some(0),
            ..OptimizerConfig::default()
        })
        .optimize(&prog, &board)
        .expect("budget exhaustion must not be a hard error");
        assert!(placement.heuristic, "the fallback result is heuristic");
        let stats = placement
            .solver_stats
            .expect("the failed ILP attempt's stats are reported truthfully");
        assert!(stats.budget_exhausted, "a zero-node budget is exhausted");
        assert_eq!(stats.nodes_explored, 0);
        // The fallback placement must still be safe to run.
        let opt = board.run(&placement.program).unwrap();
        let base = board.run(&prog).unwrap();
        assert_eq!(base.return_value, opt.return_value);
    }

    #[test]
    fn explicit_tiny_ram_budget_limits_selection() {
        let board = Board::stm32vldiscovery();
        let prog = program();
        let placement = RamOptimizer::with_config(OptimizerConfig {
            r_spare: Some(16),
            ..OptimizerConfig::default()
        })
        .optimize(&prog, &board)
        .unwrap();
        let used: u32 = placement
            .selected
            .iter()
            .map(|r| placement.program.block(*r).size_bytes())
            .sum();
        assert!(used <= 16, "selected {used} bytes with a 16-byte budget");
    }
}
