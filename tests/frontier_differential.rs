//! Differential acceptance tests for the frontier sweep engine on the real
//! BEEBS placement models: warm-started chained sweeps must be
//! objective-identical to cold per-budget solves on **every** kernel while
//! spending measurably fewer root pivots, and the enumerated Pareto
//! staircase must hold up under actual simulation.

use flashram::beebs::Benchmark;
use flashram::core::{OptimizerConfig, PlacementScope, PlacementSession};
use flashram::mcu::Board;
use flashram::minicc::OptLevel;

fn session(board: &Board, bench: &Benchmark, x_limit: f64) -> PlacementSession {
    let program = bench.compile_cached(OptLevel::O2).expect("kernel compiles");
    PlacementSession::new(
        &program,
        board,
        &OptimizerConfig {
            x_limit,
            ..OptimizerConfig::default()
        },
    )
    .expect("kernel fits the board")
}

/// The acceptance check of the frontier engine: on every BEEBS kernel, a
/// chained RAM-budget sweep (model built once, roots warm-started through
/// RHS mutation, incumbents seeded) returns exactly the objectives of cold
/// per-budget solves, and its roots pivot strictly less in aggregate.
#[test]
fn warm_sweeps_match_cold_solves_on_every_kernel() {
    let board = Board::stm32vldiscovery();
    let mut chained_root_pivots = 0usize;
    let mut cold_root_pivots = 0usize;
    for bench in Benchmark::all() {
        let mut warm = session(&board, &bench, 1.5);
        let spare = warm.spare_ram();
        let budgets = [0, 64, 128, 512, 2048, spare];
        let warm_points = warm.sweep_ram(&budgets, 1.5);

        let mut cold = session(&board, &bench, 1.5);
        cold.solver.warm_start = false;
        let cold_points = cold.sweep_ram(&budgets, 1.5);

        for ((b, w), (_, c)) in warm_points.iter().zip(&cold_points) {
            let w = w.as_ref().expect("warm point solves");
            let c = c.as_ref().expect("cold point solves");
            assert!(
                (w.objective - c.objective).abs() <= 1e-6 * c.objective.abs().max(1.0),
                "{} at budget {b}: warm {} vs cold {}",
                bench.name,
                w.objective,
                c.objective
            );
            assert!(
                w.proven && c.proven,
                "{}: both modes prove optimality",
                bench.name
            );
        }
        // Every point after the first chains its root from the previous one.
        let chained = warm.stats().chained_roots;
        assert_eq!(
            chained,
            budgets.len() - 1,
            "{}: {} chained roots of {} points",
            bench.name,
            chained,
            budgets.len()
        );
        assert_eq!(cold.stats().chained_roots, 0);
        chained_root_pivots += warm.stats().root_pivots;
        cold_root_pivots += cold.stats().root_pivots;
    }
    assert!(
        chained_root_pivots < cold_root_pivots,
        "chained roots must pivot measurably less: {chained_root_pivots} vs {cold_root_pivots}"
    );
}

/// The enumerated staircase survives contact with the simulator: every
/// step's placement runs (fanned over the `BatchRunner` pool), preserves
/// semantics, and the RAM-free step reproduces the baseline while the full
/// optimum measurably beats it.
#[test]
fn frontier_steps_validate_by_simulation() {
    let board = Board::stm32vldiscovery();
    let bench = Benchmark::by_name("int_matmult").expect("known kernel");
    let program = bench.compile_cached(OptLevel::O2).expect("kernel compiles");
    let mut s = session(&board, &bench, 1.5);
    let spare = s.spare_ram();
    let frontier = s.enumerate_frontier(1.5, spare).expect("enumerable");
    assert!(frontier.exact);
    assert!(
        frontier.points.len() >= 3,
        "int_matmult has a real staircase"
    );

    let baseline = board.run(&program).expect("baseline runs");
    let validated = frontier.validate(&board, &program, PlacementScope::ApplicationOnly);
    assert_eq!(validated.len(), frontier.points.len());
    for v in &validated {
        let run = v.measured.as_ref().expect("every step runs");
        assert_eq!(
            run.return_value, baseline.return_value,
            "step at {} bytes changed the program result",
            v.min_ram_bytes
        );
    }
    let first = validated.first().unwrap().measured.as_ref().unwrap();
    assert_eq!(
        first.energy_mj, baseline.energy_mj,
        "the zero-RAM step is the baseline program"
    );
    let last = validated.last().unwrap().measured.as_ref().unwrap();
    assert!(
        last.energy_mj < baseline.energy_mj,
        "the full-budget optimum must measurably save energy: {} vs {}",
        last.energy_mj,
        baseline.energy_mj
    );
}
