//! Integration tests for the developer-facing constraints of the model:
//! the RAM budget `R_spare` (Eq. 7) and the execution-time bound `X_limit`
//! (Eq. 9), plus optimality checks of the branch-and-bound solver against
//! exhaustive enumeration on small instances.

use flashram_core::{
    apply_placement_scoped, evaluate_placement, extract_params, FrequencySource, ModelConfig,
    OptimizerConfig, PlacementModel, RamOptimizer,
};
use flashram_ilp::{BranchBound, ExhaustiveSolver, GreedySolver};
use flashram_ir::MachineProgram;
use flashram_mcu::Board;
use flashram_minicc::{compile_program, OptLevel, SourceUnit};

const KERNEL: &str = "
    int table[32];
    int main() {
        for (int i = 0; i < 32; i++) { table[i] = i * i + 3; }
        int acc = 0;
        for (int rep = 0; rep < 25; rep++) {
            for (int i = 0; i < 32; i++) {
                if (table[i] % 5 == 0) { acc += table[i]; } else { acc -= i; }
            }
        }
        return acc;
    }
";

fn program(level: OptLevel) -> MachineProgram {
    compile_program(&[SourceUnit::application(KERNEL)], level).unwrap()
}

fn board() -> Board {
    Board::stm32vldiscovery()
}

#[test]
fn measured_ram_usage_respects_every_budget() {
    let board = board();
    let prog = program(OptLevel::O2);
    for budget in [0u32, 8, 24, 64, 200, 600] {
        let placement = RamOptimizer::with_config(OptimizerConfig {
            r_spare: Some(budget),
            ..OptimizerConfig::default()
        })
        .optimize(&prog, &board)
        .unwrap();
        let used: u32 = placement
            .selected
            .iter()
            .map(|r| placement.program.block(*r).size_bytes())
            .sum();
        assert!(
            used <= budget,
            "budget {budget}: placement uses {used} bytes"
        );
        if budget == 0 {
            assert!(placement.selected.is_empty());
        }
    }
}

#[test]
fn measured_slowdown_respects_the_time_factor() {
    let board = board();
    let prog = program(OptLevel::O2);
    let base = board.run(&prog).unwrap();
    for x_limit in [1.0, 1.05, 1.15, 1.3, 1.6, 2.0] {
        let placement = RamOptimizer::with_config(OptimizerConfig {
            x_limit,
            ..OptimizerConfig::default()
        })
        .optimize(&prog, &board)
        .unwrap();
        let run = board.run(&placement.program).unwrap();
        let ratio = run.cycles() as f64 / base.cycles() as f64;
        // The model bounds the *estimated* cycle growth; the measured growth
        // tracks it closely but is not exactly the same quantity (the static
        // frequency estimate is approximate), so allow a modest margin.
        assert!(
            ratio <= x_limit * 1.15 + 0.02,
            "X_limit {x_limit}: measured slowdown {ratio:.3}"
        );
        assert_eq!(base.return_value, run.return_value);
    }
}

#[test]
fn relaxing_the_ram_budget_never_hurts_the_model_energy() {
    let prog = program(OptLevel::O2);
    let params = extract_params(&prog, &FrequencySource::default());
    let (e_flash, e_ram) = board().power.model_coefficients();
    let mut last = f64::INFINITY;
    for budget in [0u32, 16, 48, 96, 192, 384, 768, 1536] {
        let config = ModelConfig {
            x_limit: 2.0,
            r_spare: budget,
            e_flash,
            e_ram,
        };
        let model = PlacementModel::build(&params, &config);
        let solution = BranchBound::new().solve(&model.problem).unwrap();
        let est = evaluate_placement(&params, &model.selected_blocks(&solution), &config);
        assert!(
            est.energy <= last + 1e-6,
            "budget {budget}: model energy {:.4} worse than the tighter budget's {:.4}",
            est.energy,
            last
        );
        assert!(est.ram_bytes <= budget);
        last = est.energy;
    }
}

#[test]
fn relaxing_the_time_bound_never_hurts_the_model_energy() {
    let prog = program(OptLevel::Os);
    let params = extract_params(&prog, &FrequencySource::default());
    let (e_flash, e_ram) = board().power.model_coefficients();
    let base = evaluate_placement(
        &params,
        &[],
        &ModelConfig {
            x_limit: 1.0,
            r_spare: 4096,
            e_flash,
            e_ram,
        },
    );
    let mut last = f64::INFINITY;
    for x_limit in [1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0] {
        let config = ModelConfig {
            x_limit,
            r_spare: 4096,
            e_flash,
            e_ram,
        };
        let model = PlacementModel::build(&params, &config);
        let solution = BranchBound::new().solve(&model.problem).unwrap();
        let est = evaluate_placement(&params, &model.selected_blocks(&solution), &config);
        assert!(
            est.energy <= last + 1e-6,
            "X_limit {x_limit} made the model energy worse"
        );
        assert!(
            est.cycles <= x_limit * base.cycles + 1e-6,
            "X_limit {x_limit}: estimated cycles {} exceed the bound {}",
            est.cycles,
            x_limit * base.cycles
        );
        last = est.energy;
    }
}

#[test]
fn branch_and_bound_matches_exhaustive_enumeration_on_small_models() {
    // A deliberately small function so 3 binaries per block stays within the
    // exhaustive solver's reach.
    let src = "
        int main() {
            int s = 0;
            for (int i = 0; i < 60; i++) { s += i * 7; }
            return s;
        }
    ";
    let prog = compile_program(&[SourceUnit::application(src)], OptLevel::O1).unwrap();
    let params = extract_params(&prog, &FrequencySource::default());
    let (e_flash, e_ram) = board().power.model_coefficients();
    for (r_spare, x_limit) in [(64u32, 1.5f64), (512, 1.1), (4096, 2.0), (0, 1.5)] {
        let config = ModelConfig {
            x_limit,
            r_spare,
            e_flash,
            e_ram,
        };
        let model = PlacementModel::build(&params, &config);
        let bnb = BranchBound::new().solve(&model.problem).unwrap();
        let exact = ExhaustiveSolver::new().solve(&model.problem).unwrap();
        assert!(
            (bnb.objective - exact.objective).abs() <= 1e-6 * exact.objective.abs().max(1.0),
            "R_spare={r_spare}, X_limit={x_limit}: branch-and-bound {} vs exhaustive {}",
            bnb.objective,
            exact.objective
        );
    }
}

#[test]
fn greedy_solutions_are_feasible_but_never_better_than_ilp() {
    let board = board();
    let prog = program(OptLevel::O2);
    for budget in [64u32, 256, 1024] {
        let optimizer = RamOptimizer::with_config(OptimizerConfig {
            r_spare: Some(budget),
            ..OptimizerConfig::default()
        });
        let ilp = optimizer.optimize(&prog, &board).unwrap();
        let session = optimizer.session(&prog, &board).unwrap();
        let model = session.model();
        let solution = GreedySolver::new().solve(&model.problem).unwrap();
        assert!(model.problem.is_feasible(&solution.values, 1e-9));
        let selected = model.selected_blocks(&solution);
        let placed = apply_placement_scoped(&prog, &selected, optimizer.config.scope);
        let greedy_used: u32 = selected.iter().map(|r| placed.block(*r).size_bytes()).sum();
        assert!(
            greedy_used <= budget,
            "greedy placement violates the RAM budget"
        );
        let greedy = evaluate_placement(session.params(), &selected, &model.config);
        assert!(
            ilp.predicted.energy <= greedy.energy + 1e-6,
            "budget {budget}: greedy model energy {} beats the ILP's {}",
            greedy.energy,
            ilp.predicted.energy
        );
    }
}

#[test]
fn x_limit_of_one_still_permits_free_moves() {
    // With X_limit = 1.0 the solver may only pick placements with zero cycle
    // overhead; such placements exist (e.g. clusters whose internal edges
    // never cross memories and whose blocks contain no loads), so the chosen
    // set must not slow the estimate down at all.
    let prog = program(OptLevel::O2);
    let params = extract_params(&prog, &FrequencySource::default());
    let (e_flash, e_ram) = board().power.model_coefficients();
    let config = ModelConfig {
        x_limit: 1.0,
        r_spare: 4096,
        e_flash,
        e_ram,
    };
    let model = PlacementModel::build(&params, &config);
    let solution = BranchBound::new().solve(&model.problem).unwrap();
    let est = evaluate_placement(&params, &model.selected_blocks(&solution), &config);
    let base = evaluate_placement(&params, &[], &config);
    assert!(est.cycles <= base.cycles + 1e-9);
    assert!(est.energy <= base.energy + 1e-9);
}
