//! Solver performance smoke: solve every BEEBS placement ILP with the
//! warm-started branch-and-bound and with cold per-node re-solves, sweep
//! every model over a RAM-budget grid chained vs cold-per-budget, print the
//! comparisons, and write the numbers to `BENCH_solver.json` so the
//! solver's perf trajectory can be tracked across commits.
//!
//! Exits nonzero when a solver acceptance check fails (objective mismatch
//! between warm and cold modes, warm-started nodes not pivoting strictly
//! less than cold solves, or a chained sweep not pivoting strictly less
//! than its cold per-budget counterpart); pass `--no-fail` to report
//! without failing (used by CI, where the numbers are informational).

use flashram_bench::{solver_perf, solver_perf_document, solver_sweep_perf, write_report};
use flashram_mcu::Board;
use flashram_minicc::OptLevel;

fn main() {
    let no_fail = std::env::args().any(|a| a == "--no-fail");
    let board = Board::stm32vldiscovery();
    let (rows, errors) = solver_perf(&board, OptLevel::O2);

    println!(
        "{:<16} {:>6} {:>5} {:>5} {:>5} | {:>6} {:>8} {:>9} {:>9} | {:>6} {:>8} {:>9}",
        "benchmark",
        "ram",
        "x_lim",
        "vars",
        "rows",
        "nodes",
        "pivots",
        "piv/warm",
        "warm ms",
        "nodes",
        "pivots",
        "cold ms"
    );
    let mut failures: Vec<String> = errors;
    for row in &rows {
        let per_warm = row.warm.pivots_per_warm_node();
        println!(
            "{:<16} {:>6} {:>5} {:>5} {:>5} | {:>6} {:>8} {:>9} {:>9.2} | {:>6} {:>8} {:>9.2}",
            row.benchmark,
            row.r_spare,
            row.x_limit,
            row.vars,
            row.constraints,
            row.warm.stats.nodes_explored,
            row.warm.stats.lp_pivots,
            per_warm.map_or_else(|| "-".to_string(), |p| format!("{p:.1}")),
            row.warm.wall_ms,
            row.cold.stats.nodes_explored,
            row.cold.stats.lp_pivots,
            row.cold.wall_ms,
        );
        for (label, numbers) in [("warm", &row.warm), ("cold", &row.cold)] {
            if numbers.stats.budget_exhausted || numbers.stats.lp_iteration_limited > 0 {
                failures.push(format!(
                    "{} ({label}): incumbent not proven optimal \
                     (budget_exhausted={}, lp_iteration_limited={})",
                    row.benchmark,
                    numbers.stats.budget_exhausted,
                    numbers.stats.lp_iteration_limited
                ));
            }
        }
        if row.objective_delta() > 1e-6 {
            failures.push(format!(
                "{}: warm objective {} differs from cold {}",
                row.benchmark, row.warm.objective, row.cold.objective
            ));
        }
        if let (Some(warm), Some(cold)) = (per_warm, row.cold.pivots_per_cold_node()) {
            if warm >= cold {
                failures.push(format!(
                    "{}: warm-started nodes pivot {warm:.2}×/node, not strictly \
                     fewer than cold {cold:.2}×/node",
                    row.benchmark
                ));
            }
        }
    }

    let total_warm: usize = rows.iter().map(|r| r.warm.stats.lp_pivots).sum();
    let total_cold: usize = rows.iter().map(|r| r.cold.stats.lp_pivots).sum();
    println!("total LP pivots: warm-started {total_warm}, cold {total_cold}");

    // The frontier-engine comparison: whole constraint sweeps (both
    // Figure 6 axes) chained on one session vs solved cold per point.
    let (sweep_rows, sweep_errors) = solver_sweep_perf(&board, OptLevel::O2);
    failures.extend(sweep_errors);
    println!();
    println!(
        "{:<16} {:>5} {:>4} | {:>8} {:>8} {:>6} {:>9} | {:>8} {:>8} {:>6} {:>9}",
        "sweep",
        "axis",
        "pts",
        "pivots",
        "root piv",
        "nodes",
        "warm ms",
        "pivots",
        "root piv",
        "nodes",
        "cold ms"
    );
    for row in &sweep_rows {
        println!(
            "{:<16} {:>5} {:>4} | {:>8} {:>8} {:>6} {:>9.2} | {:>8} {:>8} {:>6} {:>9.2}",
            row.benchmark,
            row.axis,
            row.points,
            row.warm.stats.lp_pivots,
            row.warm.stats.root_pivots,
            row.warm.stats.nodes_explored,
            row.warm.wall_ms,
            row.cold.stats.lp_pivots,
            row.cold.stats.root_pivots,
            row.cold.stats.nodes_explored,
            row.cold.wall_ms,
        );
        if !row.proven {
            // Truncated searches may return different (both heuristic)
            // incumbents and incomparable trees; report, don't fail.
            eprintln!(
                "note: {} {} sweep had node-budget-truncated points; \
                 strict checks skipped",
                row.benchmark, row.axis
            );
            continue;
        }
        if row.max_objective_delta > 1e-6 {
            failures.push(format!(
                "{} ({} sweep): chained objective drifts {:.2e} from cold \
                 per-point solves",
                row.benchmark, row.axis, row.max_objective_delta
            ));
        }
        if row.warm.stats.root_pivots >= row.cold.stats.root_pivots {
            failures.push(format!(
                "{} ({} sweep): chained roots spent {} pivots, not strictly \
                 fewer than the {} of cold roots",
                row.benchmark, row.axis, row.warm.stats.root_pivots, row.cold.stats.root_pivots
            ));
        }
        // Per-kernel total-pivot regression check: on proven rows a chained
        // sweep must never pivot more than the cold per-point baseline.
        if row.warm.stats.lp_pivots > row.cold.stats.lp_pivots {
            failures.push(format!(
                "{} ({} sweep): chained sweep spent {} total pivots, more than \
                 the {} of cold per-point solves",
                row.benchmark, row.axis, row.warm.stats.lp_pivots, row.cold.stats.lp_pivots
            ));
        }
    }
    let sweep_warm: usize = sweep_rows.iter().map(|r| r.warm.stats.lp_pivots).sum();
    let sweep_cold: usize = sweep_rows.iter().map(|r| r.cold.stats.lp_pivots).sum();
    let root_warm: usize = sweep_rows.iter().map(|r| r.warm.stats.root_pivots).sum();
    let root_cold: usize = sweep_rows.iter().map(|r| r.cold.stats.root_pivots).sum();
    println!(
        "total sweep LP pivots: chained {sweep_warm} ({root_warm} in roots), \
         cold per-point {sweep_cold} ({root_cold} in roots)"
    );
    // The aggregate acceptance check covers proven rows only, consistent
    // with the per-row policy: truncated searches have incomparable trees.
    let proven = |rows: &[flashram_bench::SweepPerfRow]| -> (usize, usize) {
        rows.iter().filter(|r| r.proven).fold((0, 0), |(w, c), r| {
            (w + r.warm.stats.lp_pivots, c + r.cold.stats.lp_pivots)
        })
    };
    let (proven_warm, proven_cold) = proven(&sweep_rows);
    if proven_warm >= proven_cold {
        failures.push(format!(
            "aggregate chained sweeps spent {proven_warm} pivots over proven \
             rows, not fewer than the {proven_cold} of cold per-point solves"
        ));
    }

    let doc = solver_perf_document(&rows, &sweep_rows);
    write_report("BENCH_solver.json", &doc, &failures, no_fail);
}
