//! End-to-end integration tests: source → compiler → placement optimizer →
//! code transformation → simulated board, across crates.
//!
//! These tests exercise the same pipeline the paper's evaluation uses,
//! checking the headline *shape* of the results (power always drops, the
//! result value never changes, memory budgets hold) rather than absolute
//! numbers.

use flashram_beebs::Benchmark;
use flashram_core::{instrumented_blocks, relocated_code_bytes, RamOptimizer};
use flashram_ir::Section;
use flashram_mcu::Board;
use flashram_minicc::OptLevel;

/// A representative subset of the suite that keeps the test quick while
/// covering the interesting cases: a big winner (`int_matmult`), the paper's
/// case-study kernel (`fdct`), a control-flow-heavy kernel (`dijkstra`) and
/// a library-bound one (`cubic`).
const SUBSET: [&str; 4] = ["int_matmult", "fdct", "dijkstra", "cubic"];

#[test]
fn optimizer_preserves_semantics_and_reduces_power_on_benchmarks() {
    let board = Board::stm32vldiscovery();
    for name in SUBSET {
        let bench = Benchmark::by_name(name).unwrap();
        let program = bench.compile_cached(OptLevel::O2).unwrap();
        let before = board.run(&program).unwrap();
        let placement = RamOptimizer::new().optimize(&program, &board).unwrap();
        let after = board.run(&placement.program).unwrap();

        assert_eq!(
            before.return_value, after.return_value,
            "{name}: the optimization changed the program's result"
        );
        assert!(
            after.avg_power_mw <= before.avg_power_mw + 1e-9,
            "{name}: average power must never increase ({} -> {})",
            before.avg_power_mw,
            after.avg_power_mw
        );
        assert!(
            after.time_s + 1e-12 >= before.time_s,
            "{name}: both memories are single-cycle, so RAM placement cannot speed the code up"
        );
    }
}

#[test]
fn transformed_programs_still_fit_the_part() {
    let board = Board::stm32vldiscovery();
    for name in SUBSET {
        let bench = Benchmark::by_name(name).unwrap();
        let program = bench.compile_cached(OptLevel::O2).unwrap();
        let placement = RamOptimizer::new().optimize(&program, &board).unwrap();
        // Loading the transformed program must succeed, i.e. relocated code +
        // data + stack reserve still fit the 8 KB of RAM.
        let run = board.run(&placement.program);
        assert!(
            run.is_ok(),
            "{name}: transformed program no longer loads: {:?}",
            run.err()
        );
        assert!(
            relocated_code_bytes(&placement.program) <= placement.r_spare,
            "{name}: relocated code exceeds the RAM budget"
        );
    }
}

#[test]
fn ram_blocks_and_instrumentation_are_consistent() {
    let board = Board::stm32vldiscovery();
    let bench = Benchmark::by_name("int_matmult").unwrap();
    let program = bench.compile_cached(OptLevel::O2).unwrap();
    let placement = RamOptimizer::new().optimize(&program, &board).unwrap();
    let out = &placement.program;

    // Every selected block is in the RAM section; every other block is not.
    for r in out.block_refs() {
        let expected = if placement.selected.contains(&r) {
            Section::Ram
        } else {
            Section::Flash
        };
        assert_eq!(
            out.block(r).section,
            expected,
            "block {r} in the wrong section"
        );
    }

    // A block is instrumented exactly when one of its successors lives in
    // the other memory (the paper's Eq. 5 membership rule for the set I).
    let instrumented = instrumented_blocks(out);
    for r in out.block_refs() {
        let my_section = out.block(r).section;
        let crossing = out
            .block(r)
            .term
            .successors()
            .iter()
            .any(|s| out.functions[r.func.index()].blocks[s.index()].section != my_section);
        assert_eq!(
            instrumented.contains(&r),
            crossing,
            "block {r}: instrumentation does not match its successor sections"
        );
    }
}

#[test]
fn every_optimization_level_survives_the_pipeline() {
    let board = Board::stm32vldiscovery();
    let bench = Benchmark::by_name("crc32").unwrap();
    for level in OptLevel::ALL {
        let program = bench.compile_cached(level).unwrap();
        let before = board.run(&program).unwrap();
        let placement = RamOptimizer::new().optimize(&program, &board).unwrap();
        let after = board.run(&placement.program).unwrap();
        assert_eq!(before.return_value, after.return_value, "crc32 at {level}");
        assert!(
            after.avg_power_mw <= before.avg_power_mw + 1e-9,
            "crc32 at {level}"
        );
    }
}

#[test]
fn profile_guided_and_static_estimates_agree_on_direction() {
    let board = Board::stm32vldiscovery();
    let bench = Benchmark::by_name("fdct").unwrap();
    let program = bench.compile_cached(OptLevel::O2).unwrap();
    let before = board.run(&program).unwrap();

    let optimizer = RamOptimizer::new();
    let static_placement = optimizer.optimize(&program, &board).unwrap();
    let profiled_placement = optimizer.optimize_with_profile(&program, &board).unwrap();

    let static_run = board.run(&static_placement.program).unwrap();
    let profiled_run = board.run(&profiled_placement.program).unwrap();

    assert_eq!(before.return_value, static_run.return_value);
    assert_eq!(before.return_value, profiled_run.return_value);
    // Figure 5's observation: the static loop-depth estimate is good enough —
    // both variants land in the same direction and the same ballpark.
    assert!(static_run.avg_power_mw < before.avg_power_mw);
    assert!(profiled_run.avg_power_mw < before.avg_power_mw);
    let static_saving = before.energy_mj - static_run.energy_mj;
    let profiled_saving = before.energy_mj - profiled_run.energy_mj;
    assert!(
        (static_saving - profiled_saving).abs() <= 0.5 * before.energy_mj,
        "static ({static_saving} mJ) and profiled ({profiled_saving} mJ) savings diverge wildly"
    );
}

#[test]
fn library_heavy_benchmarks_see_small_savings() {
    let board = Board::stm32vldiscovery();
    let winner = Benchmark::by_name("int_matmult").unwrap();
    let loser = Benchmark::by_name("cubic").unwrap();

    let gain = |bench: &Benchmark| {
        let program = bench.compile_cached(OptLevel::O2).unwrap();
        let before = board.run(&program).unwrap();
        let placement = RamOptimizer::new().optimize(&program, &board).unwrap();
        let after = board.run(&placement.program).unwrap();
        (before.energy_mj - after.energy_mj) / before.energy_mj
    };

    let winner_gain = gain(&winner);
    let loser_gain = gain(&loser);
    assert!(
        winner_gain > loser_gain,
        "int_matmult ({winner_gain:.3}) should save more energy than the library-bound cubic ({loser_gain:.3})"
    );
}

#[test]
fn solver_choice_flows_through_the_public_config() {
    let board = Board::stm32vldiscovery();
    let bench = Benchmark::by_name("sha").unwrap();
    let program = bench.compile_cached(OptLevel::Os).unwrap();
    let before = board.run(&program).unwrap();
    let placement = RamOptimizer::new().optimize(&program, &board).unwrap();
    let after = board.run(&placement.program).unwrap();
    assert_eq!(before.return_value, after.return_value);
}
