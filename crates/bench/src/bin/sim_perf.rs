//! Simulator throughput smoke: run the BEEBS sweep on the IR-walking
//! reference interpreter, on the decoded engine, and on the decoded engine
//! driven by the `BatchRunner` worker pool, print the comparison, and
//! write the numbers to `BENCH_sim.json` so simulator throughput can be
//! tracked across commits.
//!
//! Exits nonzero when an acceptance check fails:
//!
//! * the decoded engine's results must be bit-identical to the reference
//!   interpreter's, and batched results bit-identical to sequential ones;
//! * the decoded engine must be at least 1.05× faster than the reference
//!   interpreter single-threaded (the floor set when it was introduced);
//! * the decoded engine must also clear the 1.4× floor over the reference
//!   interpreter single-threaded, which catches regressions to the
//!   ~1.27× it reached before the tuned release profile.  Both floors
//!   apply to the median of the per-round ratios over fifteen interleaved
//!   rounds, so one round slowed by the host cannot fail them;
//! * on hosts with at least four CPUs the batched sweep must be at least
//!   3× faster than the sequential decoded loop;
//! * on a single-CPU host the batched sweep must not be slower than the
//!   sequential loop (the runner executes inline with no pool overhead at
//!   one worker, so only scheduler noise separates them — a small margin
//!   below 1.0 is tolerated).
//!
//! Pass `--no-fail` to report without failing (used by CI, where the
//! numbers are informational).

use flashram_bench::{sim_perf, sim_perf_document, write_report};
use flashram_mcu::Board;
use flashram_minicc::OptLevel;

fn main() {
    let no_fail = std::env::args().any(|a| a == "--no-fail");
    let board = Board::stm32vldiscovery();
    let report = sim_perf(&board, &[OptLevel::O1, OptLevel::O2, OptLevel::Os]);

    // Per-kernel table: Mcycles/s on each engine, best of the rounds.
    println!(
        "{:<16} {:>5} {:>12} {:>11} {:>11}",
        "benchmark", "level", "cycles", "reference", "decoded"
    );
    for row in &report.rows {
        println!(
            "{:<16} {:>5} {:>12} {:>11.1} {:>11.1}",
            row.benchmark,
            row.level,
            row.cycles,
            row.reference_mcycles_per_s(),
            row.decoded_mcycles_per_s()
        );
    }

    println!(
        "{} programs, {:.1} Mcycles total, {} worker thread(s)",
        report.rows.len(),
        report.total_cycles as f64 / 1e6,
        report.threads
    );
    println!(
        "reference {:>8.1} ms  {:>8.1} Mcycles/s",
        report.reference_wall_ms,
        report.reference_mcycles_per_s()
    );
    println!(
        "decoded   {:>8.1} ms  {:>8.1} Mcycles/s  {:>6.2}x vs reference  bit-identical: {}",
        report.sequential_wall_ms,
        report.decoded_mcycles_per_s(),
        report.decode_speedup(),
        report.decoded_bit_identical
    );
    println!(
        "batched   {:>8.1} ms  {:>8.1} Mcycles/s  {:>6.2}x vs decoded    bit-identical: {}",
        report.batched_wall_ms,
        report.batched_mcycles_per_s(),
        report.speedup(),
        report.batched_bit_identical
    );

    let mut failures: Vec<String> = Vec::new();
    if !report.decoded_bit_identical {
        failures.push("decoded results are not bit-identical to the reference interpreter".into());
    }
    if !report.batched_bit_identical {
        failures.push("batched results are not bit-identical to sequential ones".into());
    }
    for floor in [1.05, 1.4] {
        if report.decode_speedup() < floor {
            failures.push(format!(
                "decoded engine speedup {:.2}x below the {floor}x floor over the reference interpreter",
                report.decode_speedup()
            ));
        }
    }
    if report.threads >= 4 && report.speedup() < 3.0 {
        failures.push(format!(
            "batched speedup {:.2}x below the 3x floor on a {}-thread host",
            report.speedup(),
            report.threads
        ));
    }
    if report.threads == 1 && report.speedup() < 0.95 {
        failures.push(format!(
            "batched speedup {:.2}x at 1 thread; the inline path must match the \
             sequential loop (≈1.0)",
            report.speedup()
        ));
    }

    let doc = sim_perf_document(&report);
    write_report("BENCH_sim.json", &doc, &failures, no_fail);
}
