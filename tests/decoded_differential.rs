//! Differential test for the decoded execution engine at workspace level:
//! for every BEEBS kernel — plain and placement-optimized — the decoded
//! engine behind `Board::run` must be observably indistinguishable,
//! bit-for-bit, from the IR-walking reference interpreter.
//!
//! This is the guarantee that lets every harness in `flashram-bench` (and
//! every downstream experiment) run on the decoded engine by default: the
//! numbers they print are exactly the numbers the reference semantics
//! produce.

use flashram_beebs::Benchmark;
use flashram_core::RamOptimizer;
use flashram_mcu::{Board, RunConfig, RunError, RunResult};
use flashram_minicc::OptLevel;

fn assert_bit_identical(decoded: &RunResult, reference: &RunResult, what: &str) {
    assert!(
        decoded.bits_eq(reference),
        "{what}: results diverge\ndecoded: {decoded:?}\nreference: {reference:?}"
    );
}

/// Run `program` under `config` on the decoded engine and the reference,
/// asserting bitwise agreement (results and errors alike).
fn assert_engines_match(
    board: &Board,
    program: &flashram_ir::MachineProgram,
    config: &RunConfig,
    what: &str,
) {
    let decoded = board.run_with_config(program, config);
    let reference = board.run_reference_with_config(program, config);
    match (&decoded, &reference) {
        (Ok(a), Ok(b)) => assert_bit_identical(a, b, what),
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: errors diverge"),
        other => panic!("{what}: engines disagree: {other:?}"),
    }
}

#[test]
fn all_engines_match_reference_on_all_beebs_kernels() {
    let board = Board::stm32vldiscovery();
    for bench in Benchmark::all() {
        for level in [OptLevel::O2, OptLevel::Os] {
            let program = bench.compile_cached(level).expect("kernel compiles");
            assert_engines_match(
                &board,
                &program,
                &RunConfig::default(),
                &format!("{} {level}", bench.name),
            );
        }
    }
}

/// Placement-optimized kernels exercise the paths the plain kernels do
/// not: RAM-resident blocks (contention charges) and the indirect
/// long-range terminators the transformation substitutes.
#[test]
fn all_engines_match_reference_on_optimized_kernels() {
    let board = Board::stm32vldiscovery();
    for name in ["int_matmult", "fdct", "crc32"] {
        let bench = Benchmark::by_name(name).expect("known kernel");
        let program = bench.compile_cached(OptLevel::O2).expect("kernel compiles");
        let placement = RamOptimizer::new()
            .optimize(&program, &board)
            .expect("placement succeeds");
        assert!(
            !placement.selected.is_empty(),
            "{name}: optimizer should move blocks to RAM"
        );
        assert_engines_match(
            &board,
            &placement.program,
            &RunConfig::default(),
            &format!("{name} optimized"),
        );
    }
}

/// The engines agree on `CycleLimit { limit, executed }` under budgets
/// that fire anywhere in a long-running kernel's hot loop.
#[test]
fn all_engines_match_reference_cycle_limits_on_beebs() {
    let board = Board::stm32vldiscovery();
    let bench = Benchmark::by_name("crc32").expect("known kernel");
    let program = bench.compile_cached(OptLevel::O2).expect("kernel compiles");
    let total = board.run(&program).expect("full run").cycles();
    let mut limited = 0;
    // `total - 1` is the interesting edge: the budget check fires only at
    // chunk entry, so a run whose final chunk overshoots by one cycle
    // still completes — in both engines, identically.
    for limit in [
        0,
        1,
        total / 3,
        total / 2,
        total * 2 / 3,
        total * 9 / 10,
        total - 1,
        total,
    ] {
        let config = RunConfig { max_cycles: limit };
        let reference = board.run_reference_with_config(&program, &config);
        if matches!(reference, Err(RunError::CycleLimit { .. })) {
            limited += 1;
        }
        let decoded = board.run_with_config(&program, &config);
        match (&decoded, &reference) {
            (
                Err(RunError::CycleLimit {
                    limit: dl,
                    executed: de,
                }),
                Err(RunError::CycleLimit {
                    limit: rl,
                    executed: re,
                }),
            ) => assert_eq!((dl, de), (rl, re), "limit {limit}: CycleLimit diverges"),
            (Ok(d), Ok(r)) => assert_bit_identical(d, r, &format!("limit {limit}")),
            other => panic!("limit {limit}: engines disagree: {other:?}"),
        }
    }
    assert!(limited >= 5, "the tight budgets must actually fire");
}

/// `BatchRunner::run_configs` decodes once and shares the decoded program
/// across the sweep; the results must still match per-config decoded and
/// reference runs bitwise.
#[test]
fn shared_decode_in_run_configs_matches_independent_runs() {
    let board = Board::stm32vldiscovery();
    let runner = flashram_mcu::BatchRunner::new(board.clone());
    for (name, level) in [("sha", OptLevel::O2), ("dijkstra", OptLevel::Os)] {
        let bench = Benchmark::by_name(name).expect("known kernel");
        let program = bench.compile_cached(level).expect("kernel compiles");
        let total = board.run(&program).expect("full run").cycles();
        let configs = vec![
            RunConfig { max_cycles: 100 },
            RunConfig::default(),
            RunConfig {
                max_cycles: total / 2,
            },
            RunConfig { max_cycles: total },
        ];
        let shared = runner.run_configs(&program, &configs);
        for (config, got) in configs.iter().zip(&shared) {
            let independent = [
                ("decoded", board.run_with_config(&program, config)),
                (
                    "reference",
                    board.run_reference_with_config(&program, config),
                ),
            ];
            for (engine, want) in &independent {
                let what = format!("{name} {level} shared decode vs {engine}");
                match (got, want) {
                    (Ok(a), Ok(b)) => assert_bit_identical(a, b, &what),
                    (Err(a), Err(b)) => assert_eq!(a, b, "{what}: errors diverge"),
                    other => panic!("{what}: diverge: {other:?}"),
                }
            }
        }
    }
}
