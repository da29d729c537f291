//! Experiment harnesses that regenerate the paper's tables and figures.
//!
//! Each public function corresponds to one experiment of the evaluation
//! (Section 6 and Section 7); the binaries in `src/bin/` run it and print
//! the resulting series as text tables.
//!
//! | Paper artifact | Harness | Binary |
//! |---|---|---|
//! | Figure 1 (per-instruction power, flash vs RAM) | [`figure1_series`] | `fig1_instruction_power` |
//! | Figure 4 (instrumentation costs) | [`figure4_table`] | `fig4_instrumentation_costs` |
//! | Figure 5 + Section 6 averages | [`beebs_sweep`] | `fig5_beebs_results`, `table_averages` |
//! | Figure 6 (trade-off space) | [`tradeoff_space`] | `fig6_tradeoff_space` |
//! | Figure 9 + Section 7 numbers | [`case_study_series`] | `fig9_case_study` |
//! | Solver performance (warm vs cold B&B) | [`solver_perf`] | `solver_perf` → `BENCH_solver.json` |
//! | Simulator throughput (batched vs sequential) | [`sim_perf`] | `sim_perf` → `BENCH_sim.json` |
//! | Cross-device frontier matrix (device database) | [`device_matrix`] | `device_matrix` → `BENCH_device.json` |
//! | Placement-service stress (throughput, latency, cache hits) | [`run_stress`](flashram_serve::run_stress) | `stress` → `BENCH_serve.json`, `BENCH_serve_chaos.json` |
//!
//! Every `BENCH_*.json` file is built as a [`Json`] value that opens with a
//! `provenance` header (commit, host CPUs, build profile, timing method)
//! and is written by [`write_report`].
//!
//! The sweeps run on [`BatchRunner`], the `flashram-mcu` worker pool, so a
//! ten-kernel × five-level sweep saturates every core while returning
//! results bit-identical to (and ordered like) a sequential loop; compiled
//! kernels come from the `flashram-beebs` fixture cache
//! ([`Benchmark::compile_cached`]), so nothing is compiled twice per
//! process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

use json::{document, obj};
pub use json::{write_report, Json};

use flashram_beebs::Benchmark;
use flashram_core::{
    evaluate_placement, extract_params, measure_case_study, period_sweep, CaseStudyMeasurement,
    DeviceMatrix, DevicePoint, FrequencySource, ModelConfig, OptimizerConfig, PlacementModel,
    PlacementScope, PlacementSession, RamOptimizer, SweepStats,
};
use flashram_device::DEVICE_DB;
use flashram_ilp::{BranchBound, BranchBoundStats};
use flashram_ir::{
    BlockId, BlockRef, FuncId, GlobalData, MachineBlock, MachineFunction, MachineProgram, Section,
};
use flashram_isa::{Cond, Inst, MemWidth, Reg, TermKind, Terminator};
use flashram_mcu::{BatchRunner, Board, PowerModel, RunConfig, RunResult};
use flashram_minicc::OptLevel;
use flashram_serve::StressReport;

/// One bar pair of Figure 1: the average power of a tight loop of one
/// instruction kind, executed from flash and from RAM.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionPower {
    /// Label used in the figure (`store`, `load`, `add`, `nop`, `branch`,
    /// `flash load`).
    pub label: String,
    /// Average power when the loop runs from flash (mW).
    pub flash_mw: f64,
    /// Average power when the loop runs from RAM (mW).
    pub ram_mw: f64,
}

/// Build the Figure 1 micro-benchmarks (a loop of sixteen identical
/// instructions) and measure them from flash and from RAM.
pub fn figure1_series(board: &Board) -> Vec<InstructionPower> {
    let kinds: Vec<(&str, Vec<Inst>)> = vec![
        (
            "store",
            vec![Inst::Store {
                rs: Reg::R1,
                base: Reg::R7,
                offset: 0,
                width: MemWidth::Word,
            }],
        ),
        (
            "ram load",
            vec![Inst::Load {
                rd: Reg::R1,
                base: Reg::R7,
                offset: 0,
                width: MemWidth::Word,
            }],
        ),
        (
            "add",
            vec![Inst::AddImm {
                rd: Reg::R1,
                rn: Reg::R1,
                imm: 1,
            }],
        ),
        ("nop", vec![Inst::Nop]),
        ("branch", vec![]),
        (
            "flash load",
            vec![Inst::Load {
                rd: Reg::R1,
                base: Reg::R6,
                offset: 0,
                width: MemWidth::Word,
            }],
        ),
    ];
    let mut out = Vec::new();
    for (label, body) in kinds {
        let flash = measure_instruction_loop(board, &body, Section::Flash);
        let ram = measure_instruction_loop(board, &body, Section::Ram);
        out.push(InstructionPower {
            label: label.to_string(),
            flash_mw: flash,
            ram_mw: ram,
        });
    }
    out
}

/// The Figure 1 report exactly as the `fig1_instruction_power` binary
/// prints it, shared with the figure-regeneration golden test.
pub fn figure1_text(board: &Board) -> String {
    let series = figure1_series(board);
    let mut out = String::from("Figure 1 — average power per instruction type (mW)\n");
    out.push_str(&format!(
        "{:<14} {:>10} {:>10}\n",
        "instruction", "flash", "ram"
    ));
    for row in &series {
        out.push_str(&format!(
            "{:<14} {:>10.2} {:>10.2}\n",
            row.label, row.flash_mw, row.ram_mw
        ));
    }
    let avg_gap: f64 = series
        .iter()
        .filter(|r| r.label != "flash load")
        .map(|r| r.flash_mw - r.ram_mw)
        .sum::<f64>()
        / (series.len() - 1) as f64;
    out.push_str(&format!(
        "\naverage flash-RAM power gap (excluding flash-load): {avg_gap:.2} mW\n"
    ));
    out
}

/// Build and run a 16-instruction loop placed in the given section,
/// returning the measured average power in milliwatts.
fn measure_instruction_loop(board: &Board, body: &[Inst], section: Section) -> f64 {
    // Globals: one word in RAM (r7 points at it), one word in flash (r6).
    let globals = vec![
        GlobalData {
            name: "ram_word".into(),
            bytes: vec![1, 0, 0, 0],
            mutable: true,
        },
        GlobalData {
            name: "flash_word".into(),
            bytes: vec![2, 0, 0, 0],
            mutable: false,
        },
    ];
    let mut loop_insts = Vec::new();
    for _ in 0..16 {
        if body.is_empty() {
            // The "branch" variant: approximate a branch-dominated loop with
            // register moves so the loop's own branch dominates.
            loop_insts.push(Inst::MovReg {
                rd: Reg::R2,
                rm: Reg::R1,
            });
        } else {
            loop_insts.extend_from_slice(body);
        }
    }
    loop_insts.push(Inst::SubImm {
        rd: Reg::R0,
        rn: Reg::R0,
        imm: 1,
    });
    loop_insts.push(Inst::CmpImm {
        rn: Reg::R0,
        imm: 0,
    });

    let entry = MachineBlock::new(
        vec![
            Inst::MovImm {
                rd: Reg::R0,
                imm: 4000,
            },
            Inst::MovImm {
                rd: Reg::R1,
                imm: 0,
            },
            Inst::LdrLit {
                rd: Reg::R7,
                value: flashram_isa::inst::LitValue::Symbol(flashram_isa::SymbolId(0)),
            },
            Inst::LdrLit {
                rd: Reg::R6,
                value: flashram_isa::inst::LitValue::Symbol(flashram_isa::SymbolId(1)),
            },
        ],
        Terminator::FallThrough { target: BlockId(1) },
    );
    let mut loop_block = MachineBlock::new(
        loop_insts,
        Terminator::CondBranch {
            cond: Cond::Ne,
            target: BlockId(1),
            fallthrough: BlockId(2),
        },
    );
    loop_block.section = section;
    let exit = MachineBlock::new(vec![], Terminator::Return);
    let func = MachineFunction {
        name: "main".into(),
        blocks: vec![entry, loop_block, exit],
        frame_size: 0,
        num_params: 0,
        is_library: false,
    };
    let program = MachineProgram {
        functions: vec![func],
        globals,
        entry: FuncId(0),
    };
    board
        .run_with_config(
            &program,
            &RunConfig {
                max_cycles: 50_000_000,
            },
        )
        .expect("instruction-power microbenchmark must run")
        .avg_power_mw
}

/// One row of the Figure 4 table: a terminator kind and the byte/cycle cost
/// of its direct and instrumented forms.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentationRow {
    /// Terminator kind name.
    pub kind: String,
    /// Direct form size in bytes.
    pub direct_bytes: u32,
    /// Direct form taken-path cycles.
    pub direct_cycles: u64,
    /// Instrumented form size in bytes.
    pub indirect_bytes: u32,
    /// Instrumented form taken-path cycles.
    pub indirect_cycles: u64,
}

/// The Figure 4 table rendered exactly as the `fig4_instrumentation_costs`
/// binary prints it.
///
/// Kept as a function so the figure-regeneration golden test
/// (`tests/figure_goldens.rs`) asserts the very string the binary emits —
/// the first of the ROADMAP's figure goldens.
pub fn figure4_text() -> String {
    let mut out = String::from("Figure 4 — instrumentation sequences and their costs\n");
    out.push_str(&format!(
        "{:<26} {:>12} {:>12} {:>14} {:>14} {:>8} {:>8}\n",
        "terminator", "bytes", "cycles", "instr bytes", "instr cycles", "K_b", "T_b"
    ));
    for row in figure4_table() {
        out.push_str(&format!(
            "{:<26} {:>12} {:>12} {:>14} {:>14} {:>8} {:>8}\n",
            row.kind,
            row.direct_bytes,
            row.direct_cycles,
            row.indirect_bytes,
            row.indirect_cycles,
            row.indirect_bytes - row.direct_bytes,
            row.indirect_cycles - row.direct_cycles,
        ));
    }
    out
}

/// The Figure 4 instrumentation-cost table.
pub fn figure4_table() -> Vec<InstrumentationRow> {
    [
        ("unconditional branch", TermKind::Uncond),
        ("conditional branch", TermKind::Cond),
        ("short conditional branch", TermKind::ShortCond),
        ("fall through", TermKind::FallThrough),
    ]
    .into_iter()
    .map(|(name, kind)| {
        let ind = kind.indirect_form();
        InstrumentationRow {
            kind: name.to_string(),
            direct_bytes: kind.size_bytes(),
            direct_cycles: kind.taken_cycles(),
            indirect_bytes: ind.size_bytes(),
            indirect_cycles: ind.taken_cycles(),
        }
    })
    .collect()
}

/// The measured effect of the optimization on one benchmark at one level.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Optimization level.
    pub level: OptLevel,
    /// Baseline (all code in flash) energy in mJ.
    pub base_energy_mj: f64,
    /// Baseline execution time in seconds.
    pub base_time_s: f64,
    /// Baseline average power in mW.
    pub base_power_mw: f64,
    /// Optimized energy in mJ (static frequency estimate).
    pub opt_energy_mj: f64,
    /// Optimized execution time in seconds.
    pub opt_time_s: f64,
    /// Optimized average power in mW.
    pub opt_power_mw: f64,
    /// Optimized energy when actual (profiled) frequencies are used.
    pub profiled_energy_mj: f64,
    /// Optimized time when actual frequencies are used.
    pub profiled_time_s: f64,
    /// Number of blocks moved to RAM (static-estimate run).
    pub blocks_in_ram: usize,
}

impl BenchmarkResult {
    /// Percentage change in energy (negative = saving).
    pub fn energy_change_pct(&self) -> f64 {
        100.0 * (self.opt_energy_mj - self.base_energy_mj) / self.base_energy_mj
    }

    /// Percentage change in execution time (positive = slower).
    pub fn time_change_pct(&self) -> f64 {
        100.0 * (self.opt_time_s - self.base_time_s) / self.base_time_s
    }

    /// Percentage change in average power (negative = lower power).
    pub fn power_change_pct(&self) -> f64 {
        100.0 * (self.opt_power_mw - self.base_power_mw) / self.base_power_mw
    }

    /// Percentage change in energy for the profile-guided variant.
    pub fn profiled_energy_change_pct(&self) -> f64 {
        100.0 * (self.profiled_energy_mj - self.base_energy_mj) / self.base_energy_mj
    }
}

/// Run the optimization on one benchmark at one level and measure the
/// result, with both the static frequency estimate and profiled frequencies.
pub fn run_benchmark(
    board: &Board,
    bench: &Benchmark,
    level: OptLevel,
    x_limit: f64,
) -> BenchmarkResult {
    let program = bench.compile_cached(level).expect("benchmark compiles");
    let base = board.run(&program).expect("baseline runs");

    let optimizer = RamOptimizer::with_config(OptimizerConfig {
        x_limit,
        ..OptimizerConfig::default()
    });
    let placement = optimizer
        .optimize(&program, board)
        .expect("placement succeeds");
    let opt = board
        .run(&placement.program)
        .expect("optimized program runs");
    assert_eq!(
        base.return_value, opt.return_value,
        "{}: optimization changed the program result",
        bench.name
    );

    let profiled = optimizer
        .optimize_with_profile(&program, board)
        .expect("profile-guided placement succeeds");
    let prof = board.run(&profiled.program).expect("profiled program runs");
    assert_eq!(base.return_value, prof.return_value);

    BenchmarkResult {
        benchmark: bench.name.to_string(),
        level,
        base_energy_mj: base.energy_mj,
        base_time_s: base.time_s,
        base_power_mw: base.avg_power_mw,
        opt_energy_mj: opt.energy_mj,
        opt_time_s: opt.time_s,
        opt_power_mw: opt.avg_power_mw,
        profiled_energy_mj: prof.energy_mj,
        profiled_time_s: prof.time_s,
        blocks_in_ram: placement.selected.len(),
    }
}

/// Run the whole suite over the given levels (Figure 5 uses O2 and Os; the
/// Section 6 averages use all five).
///
/// The `(benchmark, level)` cells run in parallel on a [`BatchRunner`] over
/// a clone of `board`; the result order is the sequential one (suite order,
/// then level order) regardless of scheduling.
pub fn beebs_sweep(board: &Board, levels: &[OptLevel], x_limit: f64) -> Vec<BenchmarkResult> {
    let jobs = sweep_jobs(levels);
    BatchRunner::new(board.clone()).map(&jobs, |board, (bench, level)| {
        run_benchmark(board, bench, *level, x_limit)
    })
}

/// The `(benchmark, level)` cross product every sweep iterates, in the
/// canonical order: suite order (Figure 5's), then level order.  Shared by
/// [`beebs_sweep`] and [`sim_perf`] so their row orders cannot diverge.
fn sweep_jobs(levels: &[OptLevel]) -> Vec<(Benchmark, OptLevel)> {
    Benchmark::all()
        .into_iter()
        .flat_map(|bench| levels.iter().map(move |&level| (bench, level)))
        .collect()
}

/// Aggregate averages over a sweep (the Section 6 headline numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepAverages {
    /// Average percentage change in energy.
    pub energy_pct: f64,
    /// Average percentage change in power.
    pub power_pct: f64,
    /// Average percentage change in execution time.
    pub time_pct: f64,
}

/// Compute the average percentage changes over a sweep.
pub fn averages(results: &[BenchmarkResult]) -> SweepAverages {
    let n = results.len().max(1) as f64;
    SweepAverages {
        energy_pct: results
            .iter()
            .map(BenchmarkResult::energy_change_pct)
            .sum::<f64>()
            / n,
        power_pct: results
            .iter()
            .map(BenchmarkResult::power_change_pct)
            .sum::<f64>()
            / n,
        time_pct: results
            .iter()
            .map(BenchmarkResult::time_change_pct)
            .sum::<f64>()
            / n,
    }
}

/// One point of the Figure 6 trade-off space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Model-estimated energy (objective units).
    pub energy: f64,
    /// Model-estimated weighted cycles.
    pub cycles: f64,
    /// RAM used by the placement in bytes.
    pub ram_bytes: u32,
}

impl TradeoffPoint {
    fn from_estimate(est: &flashram_core::PlacementEstimate) -> TradeoffPoint {
        TradeoffPoint {
            energy: est.energy,
            cycles: est.cycles,
            ram_bytes: est.ram_bytes,
        }
    }
}

/// One solver sample of a constraint sweep: the chosen point when the
/// solve succeeded, an explicit infeasibility/error marker when it did not,
/// and the search statistics either way, so figures can annotate sweep
/// points instead of silently dropping them.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffSample {
    /// The solver's choice (`None` when the point did not solve).
    pub point: Option<TradeoffPoint>,
    /// Blocks the placement moved to RAM.
    pub blocks_in_ram: usize,
    /// Branch-and-bound statistics of the solve (`None` when it failed
    /// before producing any).
    pub stats: Option<BranchBoundStats>,
    /// The point's constraints admit no placement at all (e.g. `X_limit`
    /// below 1).
    pub infeasible: bool,
    /// A non-infeasibility solver failure, as text.
    pub error: Option<String>,
    /// Whether this point's root relaxation chained the previous point's
    /// basis (dual-simplex warm start) instead of solving cold.
    pub chained: bool,
}

impl TradeoffSample {
    fn from_result(
        result: Result<flashram_core::SweepPoint, flashram_ilp::SolveError>,
    ) -> TradeoffSample {
        match result {
            Ok(point) => TradeoffSample {
                point: Some(TradeoffPoint::from_estimate(&point.predicted)),
                blocks_in_ram: point.selected.len(),
                stats: Some(point.stats),
                infeasible: false,
                error: None,
                chained: point.chained,
            },
            Err(flashram_ilp::SolveError::Infeasible) => TradeoffSample {
                point: None,
                blocks_in_ram: 0,
                stats: None,
                infeasible: true,
                error: None,
                chained: false,
            },
            Err(e) => TradeoffSample {
                point: None,
                blocks_in_ram: 0,
                stats: None,
                infeasible: false,
                error: Some(e.to_string()),
                chained: false,
            },
        }
    }
}

/// One step of the exact energy/RAM Pareto staircase.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierStep {
    /// Minimum RAM budget (bytes, as charged by the model's Eq. 7 row) at
    /// which this placement becomes optimal.
    pub min_ram_bytes: u32,
    /// Blocks the placement moves to RAM.
    pub blocks_in_ram: usize,
    /// The step's model estimate.
    pub point: TradeoffPoint,
}

/// Exhaustive subset enumeration beyond this many blocks would allocate
/// `2^k` points; `tradeoff_space` clamps `k` here and reports the clamp in
/// [`TradeoffSpace::enumerated_k`] instead of letting `1 << k` wrap.
pub const MAX_ENUMERATED_BLOCKS: usize = 16;

/// The Figure 6 data for one benchmark: the space of possible placements of
/// the most significant blocks, plus the solver's trajectory as the RAM and
/// time constraints are swept and the exact Pareto staircase of the
/// energy/RAM trade-off.
///
/// All solver samples come from a single [`PlacementSession`]: the model is
/// built once and every sweep point re-solves it with moved budget
/// right-hand sides, warm-starting from the previous point's basis.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffSpace {
    /// Benchmark name.
    pub benchmark: String,
    /// Sampled placement points (`2^enumerated_k` combinations of the
    /// hottest blocks).
    pub points: Vec<TradeoffPoint>,
    /// The `k` the subset enumeration actually used: the requested `k`
    /// clamped to the candidate-block count and
    /// [`MAX_ENUMERATED_BLOCKS`] (a truncation note, not a silent wrap).
    pub enumerated_k: usize,
    /// The `k` the caller asked for.
    pub requested_k: usize,
    /// Solver samples while relaxing `R_spare` (bytes, sample).
    pub ram_sweep: Vec<(u32, TradeoffSample)>,
    /// Solver samples while relaxing `X_limit` (factor, sample).
    pub time_sweep: Vec<(f64, TradeoffSample)>,
    /// The exact Pareto staircase of the energy/RAM trade-off under the
    /// relaxed time bound: every distinct optimal placement between a zero
    /// budget and the board's spare RAM.
    pub frontier: Vec<FrontierStep>,
    /// Whether every staircase step was solved to proven optimality.
    pub frontier_exact: bool,
    /// The all-in-flash baseline point.
    pub baseline: TradeoffPoint,
    /// Cumulative solver effort across all sweep points of this space.
    pub sweep_stats: SweepStats,
}

/// Enumerate the placement space of the `k` most significant blocks of a
/// benchmark and record the solver's trajectory while constraints relax,
/// plus the exact Pareto staircase — all on one warm-started
/// [`PlacementSession`].
pub fn tradeoff_space(
    board: &Board,
    bench: &Benchmark,
    level: OptLevel,
    k: usize,
) -> TradeoffSpace {
    let program = bench.compile_cached(level).expect("benchmark compiles");
    let params = flashram_core::extract_params(&program, &FrequencySource::default());
    let spare = board.spare_ram(&program).expect("program fits");
    let (e_flash, e_ram) = board.power.model_coefficients();
    let config = ModelConfig {
        x_limit: 10.0,
        r_spare: spare,
        e_flash,
        e_ram,
    };

    // The k blocks with the largest energy leverage (frequency × cycles),
    // with k clamped so the subset enumeration cannot overflow its shift
    // (the old `1u32 << k` was UB-adjacent for k ≥ 32).
    let mut ranked: Vec<(BlockRef, u64)> = params
        .blocks
        .iter()
        .map(|(r, p)| (*r, p.frequency * p.cycles))
        .collect();
    ranked.sort_by_key(|(_, w)| std::cmp::Reverse(*w));
    let enumerated_k = k.min(ranked.len()).min(MAX_ENUMERATED_BLOCKS);
    let chosen: Vec<BlockRef> = ranked.iter().take(enumerated_k).map(|(r, _)| *r).collect();

    // Enumerate all subsets of the chosen blocks.
    let mut points = Vec::with_capacity(1usize << chosen.len());
    for mask in 0u64..(1u64 << chosen.len()) {
        let subset: Vec<BlockRef> = chosen
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1u64 << i) != 0)
            .map(|(_, r)| *r)
            .collect();
        let est = evaluate_placement(&params, &subset, &config);
        points.push(TradeoffPoint::from_estimate(&est));
    }
    let baseline_est = evaluate_placement(&params, &[], &config);
    let baseline = TradeoffPoint {
        energy: baseline_est.energy,
        cycles: baseline_est.cycles,
        ram_bytes: 0,
    };

    // One session for every solver sample: built once, retargeted per point.
    let mut session = PlacementSession::from_params(params, &config);

    // Solver trajectory: relax the RAM constraint (generous time bound).
    let mut budgets: Vec<u32> = [32u32, 64, 128, 256, 512, 1024, spare]
        .iter()
        .map(|b| (*b).min(spare))
        .collect();
    budgets.dedup();
    let ram_sweep = session
        .sweep_ram(&budgets, 10.0)
        .into_iter()
        .map(|(b, r)| (b, TradeoffSample::from_result(r)))
        .collect();

    // Solver trajectory: relax the time constraint (generous RAM bound).
    let time_sweep = session
        .sweep_time(&[1.0, 1.05, 1.1, 1.2, 1.4, 1.8, 2.5], spare)
        .into_iter()
        .map(|(x, r)| (x, TradeoffSample::from_result(r)))
        .collect();

    // The exact staircase under the relaxed time bound.
    let frontier_result = session.enumerate_frontier(10.0, spare);
    let (frontier, frontier_exact) = match frontier_result {
        Ok(f) => (
            f.points
                .iter()
                .map(|p| FrontierStep {
                    min_ram_bytes: p.model_ram_used,
                    blocks_in_ram: p.selected.len(),
                    point: TradeoffPoint::from_estimate(&p.predicted),
                })
                .collect(),
            f.exact,
        ),
        Err(_) => (Vec::new(), false),
    };

    TradeoffSpace {
        benchmark: bench.name.to_string(),
        points,
        enumerated_k,
        requested_k: k,
        ram_sweep,
        time_sweep,
        frontier,
        frontier_exact,
        baseline,
        sweep_stats: session.stats(),
    }
}

/// The Figure 6 report rendered exactly as the `fig6_tradeoff_space` binary
/// prints it, kept as a function so the figure-regeneration golden
/// (`tests/figure_goldens.rs`) asserts the very string the binary emits.
///
/// Everything in it is deterministic: the model estimates come from integer
/// block parameters, and the solver is a deterministic search, so the
/// golden comparison is exact (see the golden test for the tolerance
/// policy on intentional solver changes).
pub fn figure6_text(board: &Board, names: &[&str], level: OptLevel, k: usize) -> String {
    let mut out = String::new();
    for name in names {
        let bench = Benchmark::by_name(name).expect("known benchmark");
        let space = tradeoff_space(board, &bench, level, k);
        out.push_str(&format!(
            "Figure 6 — placement trade-off space for {name} (model units)\n"
        ));
        out.push_str(&format!(
            "  {} enumerated placements of the {} hottest blocks\n",
            space.points.len(),
            space.enumerated_k
        ));
        let min_e = space
            .points
            .iter()
            .map(|p| p.energy)
            .fold(f64::INFINITY, f64::min);
        let max_e = space.points.iter().map(|p| p.energy).fold(0.0f64, f64::max);
        let min_c = space
            .points
            .iter()
            .map(|p| p.cycles)
            .fold(f64::INFINITY, f64::min);
        let max_c = space.points.iter().map(|p| p.cycles).fold(0.0f64, f64::max);
        out.push_str(&format!("  energy range: {min_e:.3e} .. {max_e:.3e}\n"));
        out.push_str(&format!("  cycle range:  {min_c:.3e} .. {max_c:.3e}\n"));
        out.push_str(&format!(
            "  all blocks in flash: energy {:.3e}, cycles {:.3e}\n",
            space.baseline.energy, space.baseline.cycles
        ));

        out.push_str("  constraining RAM (X_limit relaxed):\n");
        out.push_str(&format!(
            "    {:>10} {:>14} {:>14} {:>10} {:>7} {:>6}\n",
            "R_spare", "energy", "cycles", "ram bytes", "blocks", "root"
        ));
        for (budget, sample) in &space.ram_sweep {
            out.push_str(&render_sample(&format!("{budget:>10}"), sample));
        }
        out.push_str("  constraining time (R_spare relaxed):\n");
        out.push_str(&format!(
            "    {:>10} {:>14} {:>14} {:>10} {:>7} {:>6}\n",
            "X_limit", "energy", "cycles", "ram bytes", "blocks", "root"
        ));
        for (x, sample) in &space.time_sweep {
            out.push_str(&render_sample(&format!("{x:>10.2}"), sample));
        }

        out.push_str(&format!(
            "  exact Pareto staircase (energy vs RAM, X_limit relaxed): {} steps{}\n",
            space.frontier.len(),
            if space.frontier_exact {
                ""
            } else {
                " (not proven optimal)"
            }
        ));
        out.push_str(&format!(
            "    {:>10} {:>14} {:>14} {:>10} {:>7}\n",
            "min RAM", "energy", "cycles", "ram bytes", "blocks"
        ));
        for step in &space.frontier {
            out.push_str(&format!(
                "    {:>10} {:>14.4e} {:>14.4e} {:>10} {:>7}\n",
                step.min_ram_bytes,
                step.point.energy,
                step.point.cycles,
                step.point.ram_bytes,
                step.blocks_in_ram
            ));
        }
        out.push_str(&format!(
            "  solver: {} points, {} chained roots, {} nodes, {} LP pivots\n\n",
            space.sweep_stats.points_solved,
            space.sweep_stats.chained_roots,
            space.sweep_stats.nodes_explored,
            space.sweep_stats.lp_pivots
        ));
    }
    out
}

fn render_sample(setting: &str, sample: &TradeoffSample) -> String {
    match (&sample.point, sample.infeasible, &sample.error) {
        (Some(p), _, _) => format!(
            "    {setting} {:>14.4e} {:>14.4e} {:>10} {:>7} {:>6}\n",
            p.energy,
            p.cycles,
            p.ram_bytes,
            sample.blocks_in_ram,
            if sample.chained { "warm" } else { "cold" }
        ),
        (None, true, _) => format!(
            "    {setting} {:>14} {:>14} {:>10} {:>7} {:>6}\n",
            "infeasible", "-", "-", "-", "-"
        ),
        (None, _, err) => format!(
            "    {setting} failed: {}\n",
            err.as_deref().unwrap_or("unknown solver error")
        ),
    }
}

/// The Figure 9 series for one benchmark: measured case-study factors and
/// the per-period energy percentages over a period sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudySeries {
    /// Benchmark name.
    pub benchmark: String,
    /// Measured active-region characteristics.
    pub measurement: CaseStudyMeasurement,
    /// `(period seconds, energy % of baseline)` points.
    pub series: Vec<(f64, f64)>,
    /// Battery-life extension at the shortest period of the sweep.
    pub best_extension: f64,
}

/// Run the Section 7 case study for the given benchmarks.
pub fn case_study_series(
    board: &Board,
    names: &[&str],
    level: OptLevel,
    period_multiples: &[f64],
) -> Vec<CaseStudySeries> {
    let sleep = PowerModel::stm32f100().sleep_mw;
    BatchRunner::new(board.clone()).map(names, |board, name| {
        let bench = Benchmark::by_name(name).expect("known benchmark");
        let program = bench.compile_cached(level).expect("benchmark compiles");
        let placement = RamOptimizer::new()
            .optimize(&program, board)
            .expect("placement");
        let measurement =
            measure_case_study(board, &program, &placement.program).expect("simulation");
        let series = period_sweep(&measurement, period_multiples, sleep);
        let best_extension = measurement.battery_life_extension(&flashram_mcu::SleepScenario {
            period_s: measurement.base_time_s * period_multiples[0].max(1.01),
            sleep_power_mw: sleep,
        });
        CaseStudySeries {
            benchmark: name.to_string(),
            measurement,
            series,
            best_extension,
        }
    })
}

/// The Figure 9 / Section 7 report exactly as the `fig9_case_study` binary
/// prints it, shared with the figure-regeneration golden test.
pub fn figure9_text(
    board: &Board,
    names: &[&str],
    level: OptLevel,
    period_multiples: &[f64],
) -> String {
    let series = case_study_series(board, names, level, period_multiples);
    let mut out =
        String::from("Section 7 / Figure 9 — periodic sensing case study (P_sleep = 3.5 mW)\n");
    for s in &series {
        let m = &s.measurement;
        out.push_str(&format!("\n{}:\n", s.benchmark));
        out.push_str(&format!(
            "  E0 = {:.4} mJ, T_A = {:.4} s, k_e = {:.3}, k_t = {:.3}\n",
            m.base_energy_mj,
            m.base_time_s,
            m.k_e(),
            m.k_t()
        ));
        out.push_str(&format!(
            "  battery-life extension at the shortest period: {:.1}%\n",
            (s.best_extension - 1.0) * 100.0
        ));
        out.push_str(&format!(
            "  {:>12} {:>18}\n",
            "period T (s)", "energy after opt (%)"
        ));
        for (t, pct) in &s.series {
            out.push_str(&format!("  {:>12.4} {:>18.1}\n", t, pct));
        }
    }
    out.push_str(
        "\n(For comparison, the paper's fdct measurement was E0 = 16.9 mJ, T_A = 1.18 s,\n",
    );
    out.push_str(" k_e = 0.825, k_t = 1.33, giving up to 25% period-energy saving and up to 32%\n");
    out.push_str(" longer battery life.)\n");
    out
}

/// The numbers of one branch-and-bound run over a placement model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverRunNumbers {
    /// Search statistics of the run.
    pub stats: BranchBoundStats,
    /// Wall-clock time of the solve in milliseconds.
    pub wall_ms: f64,
    /// Objective value reached.
    pub objective: f64,
}

impl SolverRunNumbers {
    /// Average simplex pivots per warm-started node (`None` if no node was
    /// warm-started).
    pub fn pivots_per_warm_node(&self) -> Option<f64> {
        (self.stats.warm_solves > 0)
            .then(|| self.stats.warm_pivots as f64 / self.stats.warm_solves as f64)
    }

    /// Average simplex pivots per cold-solved node (`None` if no node was
    /// solved cold).
    pub fn pivots_per_cold_node(&self) -> Option<f64> {
        (self.stats.cold_solves > 0)
            .then(|| self.stats.cold_pivots as f64 / self.stats.cold_solves as f64)
    }
}

/// One row of the solver performance smoke: the placement ILP of one BEEBS
/// benchmark under one constraint configuration, solved with warm-started
/// branch-and-bound and, for comparison, with every node re-solved cold.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverPerfRow {
    /// Benchmark name.
    pub benchmark: String,
    /// RAM budget the model was built with.
    pub r_spare: u32,
    /// Execution-time bound the model was built with.
    pub x_limit: f64,
    /// Number of ILP variables (3 per candidate block).
    pub vars: usize,
    /// Number of ILP constraints (and therefore tableau rows — variable
    /// bounds and branch fixings add none).
    pub constraints: usize,
    /// The warm-started run (the default solver configuration).
    pub warm: SolverRunNumbers,
    /// The cold-start run (`warm_start: false`).
    pub cold: SolverRunNumbers,
}

impl SolverPerfRow {
    /// Relative objective disagreement between the two runs (should be ~0).
    pub fn objective_delta(&self) -> f64 {
        (self.warm.objective - self.cold.objective).abs() / self.cold.objective.abs().max(1.0)
    }
}

fn time_solve(
    model: &PlacementModel,
    warm_start: bool,
) -> Result<SolverRunNumbers, flashram_ilp::SolveError> {
    let solver = BranchBound {
        warm_start,
        ..BranchBound::default()
    };
    let start = std::time::Instant::now();
    let (solution, stats) = model.solve_with(&solver)?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(SolverRunNumbers {
        stats,
        wall_ms,
        objective: solution.objective,
    })
}

/// Solve every BEEBS placement model twice — warm-started and cold — and
/// report nodes, pivots and wall time for both (the `BENCH_solver.json`
/// trajectory series).
///
/// Each benchmark is measured under two configurations: the default budgets
/// (whatever RAM the board leaves spare, `X_limit` 1.5), where the
/// relaxations are integral and the solve finishes at the root, and a tight
/// configuration (96 bytes of RAM, `X_limit` 1.1) that forces fractional
/// relaxations and therefore real branching, which is where warm starts pay.
///
/// A configuration whose solve fails (e.g. node-budget exhaustion with no
/// incumbent) produces no row; the failure is described in the second
/// element so callers can report it without losing the solved rows.
pub fn solver_perf(board: &Board, level: OptLevel) -> (Vec<SolverPerfRow>, Vec<String>) {
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for bench in Benchmark::all() {
        let program = bench.compile_cached(level).expect("benchmark compiles");
        let params = extract_params(&program, &FrequencySource::default());
        let spare = board.spare_ram(&program).expect("program fits");
        let (e_flash, e_ram) = board.power.model_coefficients();
        for (r_spare, x_limit) in [(spare, 1.5), (96.min(spare), 1.1)] {
            let config = ModelConfig {
                x_limit,
                r_spare,
                e_flash,
                e_ram,
            };
            let model = PlacementModel::build(&params, &config);
            let solved = time_solve(&model, true).and_then(|w| Ok((w, time_solve(&model, false)?)));
            match solved {
                Ok((warm, cold)) => rows.push(SolverPerfRow {
                    benchmark: bench.name.to_string(),
                    r_spare,
                    x_limit,
                    vars: model.problem.num_vars(),
                    constraints: model.problem.num_constraints(),
                    warm,
                    cold,
                }),
                Err(e) => errors.push(format!(
                    "{} (ram {r_spare}, x_limit {x_limit}): {e}",
                    bench.name
                )),
            }
        }
    }
    (rows, errors)
}

/// Cumulative effort of one whole constraint sweep (all points together).
/// Total pivots include each point's subtree, whose shape varies with the
/// root vertex the LP lands on, so they are noisier than root pivots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPerfNumbers {
    /// Solver effort summed over every point of the sweep.
    pub stats: SweepStats,
    /// Wall-clock time of the whole sweep in milliseconds.
    pub wall_ms: f64,
}

/// One row of the sweep-performance comparison: one constraint sweep over
/// one benchmark's placement model, run **warm** (one [`PlacementSession`],
/// points chained through RHS mutation and dual-simplex root re-entry) and
/// **cold** (a freshly built model and cold root per point — the way
/// `tradeoff_space` worked before the frontier engine).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPerfRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Which constraint the sweep relaxes: `"ram"` (budget sweep under a
    /// relaxed time bound) or `"time"` (`X_limit` sweep under the full RAM
    /// budget) — the two Figure 6 axes.
    pub axis: &'static str,
    /// Number of sweep points.
    pub points: usize,
    /// The chained sweep.
    pub warm: SweepPerfNumbers,
    /// The per-point cold solves.
    pub cold: SweepPerfNumbers,
    /// Largest relative objective disagreement between the two modes over
    /// all points (should be ~0).
    pub max_objective_delta: f64,
    /// Whether every point of both sweeps reached proven optimality.  When
    /// a node budget truncated some search, the two modes may legitimately
    /// return different incumbents and their pivot totals reflect different
    /// trees, so the strict acceptance checks only apply to proven rows.
    pub proven: bool,
}

/// Grids for the two Figure 6 sweep axes over one benchmark's model, in the
/// **relaxing** direction (ascending budgets, ascending time bounds): that
/// is both how the paper presents the sweeps and the direction in which the
/// previous point's optimum stays feasible, so it seeds the next point's
/// incumbent (see [`flashram_ilp::BranchBound::solve_chained`]).
fn sweep_grids(spare: u32) -> (Vec<u32>, Vec<f64>) {
    let mut budgets: Vec<u32> = [
        16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, spare,
    ]
    .into_iter()
    .filter(|b| *b <= spare)
    .collect();
    budgets.dedup();
    let x_limits = vec![
        1.0, 1.02, 1.05, 1.08, 1.1, 1.15, 1.2, 1.3, 1.4, 1.6, 1.8, 2.0, 2.5, 3.0, 5.0, 10.0,
    ];
    (budgets, x_limits)
}

/// Run one sweep twice (chained session vs cold per-point rebuilds) and
/// fold the comparison into a [`SweepPerfRow`].
fn sweep_perf_row(
    benchmark: &str,
    axis: &'static str,
    params: &flashram_core::ProgramParams,
    config: &ModelConfig,
    points: &[(u32, f64)],
    errors: &mut Vec<String>,
) -> Option<SweepPerfRow> {
    // Warm: one session, every root after the first chained.
    let mut session = PlacementSession::from_params(params.clone(), config);
    let start = std::time::Instant::now();
    let warm_points: Vec<_> = points
        .iter()
        .map(|&(r_spare, x_limit)| session.solve_point(r_spare, x_limit))
        .collect();
    let warm = SweepPerfNumbers {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        stats: session.stats(),
    };

    // Cold: rebuild the model and solve from scratch at every point.
    let mut cold = SweepStats::default();
    let mut max_objective_delta = 0.0f64;
    let mut proven = warm_points
        .iter()
        .all(|p| p.as_ref().is_ok_and(|p| p.proven));
    let start = std::time::Instant::now();
    for (&(r_spare, x_limit), warm_point) in points.iter().zip(&warm_points) {
        let cfg = ModelConfig {
            r_spare,
            x_limit,
            ..config.clone()
        };
        let model = PlacementModel::build(params, &cfg);
        match (
            BranchBound::new().solve_with_stats(&model.problem),
            warm_point,
        ) {
            (Ok((solution, stats)), Ok(point)) => {
                cold.points_solved += 1;
                cold.lp_pivots += stats.lp_pivots;
                cold.root_pivots += stats.root_pivots;
                cold.nodes_explored += stats.nodes_explored;
                cold.state_bytes_copied += stats.state_bytes_copied;
                proven &= !stats.budget_exhausted && stats.lp_iteration_limited == 0;
                let delta = (solution.objective - point.objective).abs()
                    / solution.objective.abs().max(1.0);
                max_objective_delta = max_objective_delta.max(delta);
            }
            (cold_result, warm_result) => {
                errors.push(format!(
                    "{benchmark} ({axis} sweep, ram {r_spare}, x_limit {x_limit}): \
                     cold {:?} vs warm {:?}",
                    cold_result.as_ref().map(|(s, _)| s.objective),
                    warm_result.as_ref().map(|p| p.objective),
                ));
                return None;
            }
        }
    }
    let cold = SweepPerfNumbers {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        stats: cold,
    };

    Some(SweepPerfRow {
        benchmark: benchmark.to_string(),
        axis,
        points: points.len(),
        warm,
        cold,
        max_objective_delta,
        proven,
    })
}

/// Sweep every BEEBS placement model along both Figure 6 axes twice — once
/// chained on a [`PlacementSession`], once cold per point — and report the
/// pivot/node/wall-time totals of both (the `BENCH_solver.json` `sweep`
/// section).
///
/// The RAM axis relaxes the time bound and descends the budget grid; the
/// time axis keeps the full budget and tightens `X_limit`.  A benchmark
/// whose sweep fails in either mode produces no row for that axis; the
/// failure is described in the second element.
pub fn solver_sweep_perf(board: &Board, level: OptLevel) -> (Vec<SweepPerfRow>, Vec<String>) {
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for bench in Benchmark::all() {
        let program = bench.compile_cached(level).expect("benchmark compiles");
        let params = extract_params(&program, &FrequencySource::default());
        let spare = board.spare_ram(&program).expect("program fits");
        let (e_flash, e_ram) = board.power.model_coefficients();
        let (budgets, x_limits) = sweep_grids(spare);

        // One reference config for both axes; the per-point budgets come
        // from the points list via `set_budgets`, not from this literal.
        let config = ModelConfig {
            x_limit: 10.0,
            r_spare: spare,
            e_flash,
            e_ram,
        };
        let ram_points: Vec<(u32, f64)> = budgets.iter().map(|&b| (b, 10.0)).collect();
        rows.extend(sweep_perf_row(
            bench.name,
            "ram",
            &params,
            &config,
            &ram_points,
            &mut errors,
        ));

        let time_points: Vec<(u32, f64)> = x_limits.iter().map(|&x| (spare, x)).collect();
        rows.extend(sweep_perf_row(
            bench.name,
            "time",
            &params,
            &config,
            &time_points,
            &mut errors,
        ));
    }
    (rows, errors)
}

/// The Section 6 averages block rendered exactly as the
/// `fig5_beebs_results` binary prints it (per optimization level, then the
/// overall mean), shared with the figure-regeneration golden test.
pub fn figure5_averages_text(results: &[BenchmarkResult]) -> String {
    let mut out = String::from("Section 6 averages (percent change vs baseline)\n");
    out.push_str(&format!(
        "{:<8} {:>10} {:>10} {:>10}\n",
        "level", "energy %", "power %", "time %"
    ));
    let mut levels: Vec<OptLevel> = Vec::new();
    for r in results {
        if !levels.contains(&r.level) {
            levels.push(r.level);
        }
    }
    for level in levels {
        let subset: Vec<BenchmarkResult> = results
            .iter()
            .filter(|r| r.level == level)
            .cloned()
            .collect();
        let avg = averages(&subset);
        out.push_str(&format!(
            "{:<8} {:>10.2} {:>10.2} {:>10.2}\n",
            level.to_string(),
            avg.energy_pct,
            avg.power_pct,
            avg.time_pct
        ));
    }
    let all = averages(results);
    out.push_str(&format!(
        "{:<8} {:>10.2} {:>10.2} {:>10.2}\n",
        "all", all.energy_pct, all.power_pct, all.time_pct
    ));
    out
}

/// The `BENCH_solver.json` document: per-model warm-vs-cold solves plus
/// the sweep comparison.
pub fn solver_perf_document(rows: &[SolverPerfRow], sweep: &[SweepPerfRow]) -> Json {
    let run = |r: &SolverRunNumbers| {
        let s = &r.stats;
        obj! {
            "nodes_explored": s.nodes_explored, "nodes_pruned": s.nodes_pruned,
            "lp_pivots": s.lp_pivots, "root_pivots": s.root_pivots,
            "warm_solves": s.warm_solves, "warm_pivots": s.warm_pivots,
            "cold_solves": s.cold_solves, "cold_pivots": s.cold_pivots,
            "budget_exhausted": s.budget_exhausted,
            "lp_iteration_limited": s.lp_iteration_limited,
            "state_bytes_copied": s.state_bytes_copied,
            "wall_ms": Json::Fixed(r.wall_ms, 3), "objective": Json::Fixed(r.objective, 6),
        }
    };
    let numbers = |n: &SweepPerfNumbers| {
        obj! {
            "lp_pivots": n.stats.lp_pivots, "root_pivots": n.stats.root_pivots,
            "nodes": n.stats.nodes_explored, "chained_roots": n.stats.chained_roots,
            "state_bytes_copied": n.stats.state_bytes_copied,
            "wall_ms": Json::Fixed(n.wall_ms, 3),
        }
    };
    let benchmarks = rows.iter().map(|row| {
        obj! {
            "benchmark": row.benchmark.as_str(), "r_spare": row.r_spare,
            "x_limit": Json::Fixed(row.x_limit, 1),
            "vars": row.vars, "constraints": row.constraints,
            "warm": run(&row.warm), "cold": run(&row.cold),
        }
    });
    let sweeps = sweep.iter().map(|row| {
        let (warm, cold) = (row.warm.stats.lp_pivots, row.cold.stats.lp_pivots);
        obj! {
            "benchmark": row.benchmark.as_str(), "axis": row.axis, "points": row.points,
            "warm": numbers(&row.warm), "cold": numbers(&row.cold),
            "total_pivots_warm": warm, "total_pivots_cold": cold,
            "total_pivots_delta": warm as i64 - cold as i64,
            "max_objective_delta": Json::Sci(row.max_objective_delta, 2),
            "proven": row.proven,
        }
    });
    // The pass totals of the deterministic copy counter, one per column.
    let copied = obj! {
        "warm": rows.iter().map(|r| r.warm.stats.state_bytes_copied).sum::<usize>(),
        "cold": rows.iter().map(|r| r.cold.stats.state_bytes_copied).sum::<usize>(),
        "sweep_warm": sweep.iter().map(|r| r.warm.stats.state_bytes_copied).sum::<usize>(),
        "sweep_cold": sweep.iter().map(|r| r.cold.stats.state_bytes_copied).sum::<usize>(),
    };
    let timing = "one wall-clock run per solve, warm then cold; each sweep timed once \
                  as a whole, chained then cold per point";
    document(
        timing,
        obj! {
            "state_bytes_copied": copied,
            "benchmarks": Json::Arr(benchmarks.collect()),
            "sweep": Json::Arr(sweeps.collect()),
        },
    )
}

/// One row of the future-work experiment: the measured effect of the
/// application-only pass (the paper's prototype) versus the whole-program
/// ("linker level") pass that may also relocate library code.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkerModeComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Energy change of the application-only pass, percent (negative = saving).
    pub app_only_energy_pct: f64,
    /// Energy change of the whole-program pass, percent.
    pub whole_program_energy_pct: f64,
    /// Power change of the application-only pass, percent.
    pub app_only_power_pct: f64,
    /// Power change of the whole-program pass, percent.
    pub whole_program_power_pct: f64,
    /// How many more blocks the whole-program pass moved into RAM.
    pub extra_blocks_in_ram: usize,
}

/// Run both placement scopes on the named benchmarks and measure them
/// (the paper's future-work section, quantified).
///
/// Each scope solves its own model (the candidate set differs, so the two
/// are structurally different and cannot share one chain); the solve goes
/// through [`RamOptimizer::optimize`], which since the frontier engine is
/// the degenerate one-point [`PlacementSession`] — including the greedy
/// fallback when a (larger, whole-program) model exhausts the node budget.
pub fn linker_mode_comparison(
    board: &Board,
    names: &[&str],
    level: OptLevel,
    x_limit: f64,
) -> Vec<LinkerModeComparison> {
    BatchRunner::new(board.clone()).map(names, |board, name| {
        let bench = Benchmark::by_name(name).expect("known benchmark");
        let program = bench.compile_cached(level).expect("benchmark compiles");
        let base = board.run(&program).expect("baseline runs");
        let pct = |after: f64, before: f64| 100.0 * (after - before) / before;

        let mut energy = [0.0f64; 2];
        let mut power = [0.0f64; 2];
        let mut blocks = [0usize; 2];
        for (i, scope) in [
            PlacementScope::ApplicationOnly,
            PlacementScope::WholeProgram,
        ]
        .into_iter()
        .enumerate()
        {
            let placement = RamOptimizer::with_config(OptimizerConfig {
                x_limit,
                scope,
                ..OptimizerConfig::default()
            })
            .optimize(&program, board)
            .expect("placement succeeds");
            let run = board
                .run(&placement.program)
                .expect("optimized program runs");
            assert_eq!(
                base.return_value, run.return_value,
                "{name}: semantics changed"
            );
            energy[i] = pct(run.energy_mj, base.energy_mj);
            power[i] = pct(run.avg_power_mw, base.avg_power_mw);
            blocks[i] = placement.selected.len();
        }
        LinkerModeComparison {
            benchmark: bench.name.to_string(),
            app_only_energy_pct: energy[0],
            whole_program_energy_pct: energy[1],
            app_only_power_pct: power[0],
            whole_program_power_pct: power[1],
            extra_blocks_in_ram: blocks[1].saturating_sub(blocks[0]),
        }
    })
}

/// The measured outcome of one cost-model variant in the ablation study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationOutcome {
    /// Measured energy change, percent (negative = saving).
    pub energy_pct: f64,
    /// Measured execution-time change, percent.
    pub time_pct: f64,
    /// Measured average-power change, percent.
    pub power_pct: f64,
    /// Blocks the variant placed in RAM.
    pub blocks_in_ram: usize,
}

/// Ablation results for one benchmark: the full Section 4 model against the
/// two simplifications it improves on.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Benchmark name.
    pub benchmark: String,
    /// The full model (cycle metric + instrumentation costs).
    pub full: AblationOutcome,
    /// `C_b` replaced by the block's instruction count (the Steinke-style
    /// metric the paper argues against for the Cortex-M3).
    pub instruction_metric: AblationOutcome,
    /// Instrumentation costs `K_b`/`T_b` forced to zero (no clustering
    /// pressure).
    pub no_instrumentation_cost: AblationOutcome,
}

/// Run the cost-model ablation on the named benchmarks.
pub fn model_ablation(
    board: &Board,
    names: &[&str],
    level: OptLevel,
    x_limit: f64,
) -> Vec<AblationResult> {
    BatchRunner::new(board.clone()).map(names, |board, name| {
        let bench = Benchmark::by_name(name).expect("known benchmark");
        let program = bench.compile_cached(level).expect("benchmark compiles");
        let base = board.run(&program).expect("baseline runs");
        let spare = board.spare_ram(&program).expect("program fits");
        let (e_flash, e_ram) = board.power.model_coefficients();
        let config = ModelConfig {
            x_limit,
            r_spare: spare,
            e_flash,
            e_ram,
        };
        let params = extract_params(&program, &FrequencySource::default());

        let measure = |params: &flashram_core::ProgramParams| -> AblationOutcome {
            let model = PlacementModel::build(params, &config);
            let solution = flashram_ilp::BranchBound::new()
                .solve(&model.problem)
                .expect("solvable");
            let selected = model.selected_blocks(&solution);
            let transformed = flashram_core::apply_placement(&program, &selected);
            let run = board.run(&transformed).expect("transformed program runs");
            assert_eq!(
                base.return_value, run.return_value,
                "{name}: semantics changed"
            );
            AblationOutcome {
                energy_pct: 100.0 * (run.energy_mj - base.energy_mj) / base.energy_mj,
                time_pct: 100.0 * (run.time_s - base.time_s) / base.time_s,
                power_pct: 100.0 * (run.avg_power_mw - base.avg_power_mw) / base.avg_power_mw,
                blocks_in_ram: selected.len(),
            }
        };

        let full = measure(&params);

        // Variant 1: instruction count instead of cycles for C_b.
        let mut inst_params = params.clone();
        for (r, p) in inst_params.blocks.iter_mut() {
            p.cycles = program.block(*r).insts.len() as u64 + 1;
        }
        let instruction_metric = measure(&inst_params);

        // Variant 2: instrumentation considered free by the model.
        let mut free_params = params.clone();
        for p in free_params.blocks.values_mut() {
            p.instr_bytes = 0;
            p.instr_cycles = 0;
        }
        let no_instrumentation_cost = measure(&free_params);

        AblationResult {
            benchmark: bench.name.to_string(),
            full,
            instruction_metric,
            no_instrumentation_cost,
        }
    })
}

/// One simulated program of the [`sim_perf`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPerfRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Optimization level the kernel was compiled at.
    pub level: OptLevel,
    /// Cycles the run took on the simulated board.
    pub cycles: u64,
    /// Energy of the run in millijoules.
    pub energy_mj: f64,
    /// The kernel's checksum (must match between sequential and batched).
    pub return_value: i32,
    /// Best-of-rounds wall milliseconds on the reference interpreter.
    pub reference_wall_ms: f64,
    /// Best-of-rounds wall milliseconds on the decoded engine.
    pub decoded_wall_ms: f64,
}

impl SimPerfRow {
    /// Simulated megacycles/s this kernel achieved on the reference
    /// interpreter.
    pub fn reference_mcycles_per_s(&self) -> f64 {
        SimPerfReport::mcycles_per_s(self.cycles, self.reference_wall_ms)
    }

    /// Simulated megacycles/s this kernel achieved on the decoded engine.
    pub fn decoded_mcycles_per_s(&self) -> f64 {
        SimPerfReport::mcycles_per_s(self.cycles, self.decoded_wall_ms)
    }
}

/// Interleaved timing rounds of [`sim_perf`].
const SIM_ROUNDS: usize = 15;

/// The simulator-throughput comparison written to `BENCH_sim.json`.
///
/// Timed passes over the same sweep on the IR-walking reference
/// interpreter, on the decoded engine, and on the decoded engine driven by
/// the [`BatchRunner`] worker pool.  Per-kernel wall times are the minimum
/// over 15 interleaved rounds with a rotated pass order.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPerfReport {
    /// Worker threads the batched run used.
    pub threads: usize,
    /// Total simulated cycles across the sweep.
    pub total_cycles: u64,
    /// Wall time of the one-by-one reference-interpreter loop, milliseconds.
    pub reference_wall_ms: f64,
    /// Wall time of the one-by-one decoded-engine loop, milliseconds.
    pub sequential_wall_ms: f64,
    /// Wall time of the batched decoded run, milliseconds.
    pub batched_wall_ms: f64,
    /// Per round, the reference sweep's wall time over the decoded
    /// sweep's, both timed in that round.
    pub round_speedups: Vec<f64>,
    /// Whether every decoded result was bit-identical to the reference
    /// interpreter's (cycles, energy bits, checksum, profile, layout).
    pub decoded_bit_identical: bool,
    /// Whether every batched result was bit-identical to the sequential
    /// decoded one.
    pub batched_bit_identical: bool,
    /// Per-program rows, in sweep order.
    pub rows: Vec<SimPerfRow>,
}

impl SimPerfReport {
    /// Batched throughput over sequential decoded throughput (> 1 means the
    /// pool paid off; expect ≈ the worker count on an idle multi-core host
    /// and ≈ 1 on a single-core one, where the runner executes inline).
    pub fn speedup(&self) -> f64 {
        if self.batched_wall_ms <= 0.0 {
            return 1.0;
        }
        self.sequential_wall_ms / self.batched_wall_ms
    }

    /// Decoded single-thread throughput over reference single-thread
    /// throughput — the decode-once/run-many payoff: the median of the
    /// per-round ratios, so a host slowdown that lands on one engine's pass
    /// in one round moves one ratio, not the verdict.
    pub fn decode_speedup(&self) -> f64 {
        let mut ratios = self.round_speedups.clone();
        if ratios.is_empty() {
            return 1.0;
        }
        ratios.sort_by(f64::total_cmp);
        let mid = ratios.len() / 2;
        if ratios.len() % 2 == 1 {
            ratios[mid]
        } else {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        }
    }

    /// Simulated megacycles per wall-clock second for the batched run.
    pub fn batched_mcycles_per_s(&self) -> f64 {
        Self::mcycles_per_s(self.total_cycles, self.batched_wall_ms)
    }

    /// Simulated megacycles per wall-clock second for the sequential
    /// decoded run.
    pub fn decoded_mcycles_per_s(&self) -> f64 {
        Self::mcycles_per_s(self.total_cycles, self.sequential_wall_ms)
    }

    /// Simulated megacycles per wall-clock second for the reference
    /// interpreter.
    pub fn reference_mcycles_per_s(&self) -> f64 {
        Self::mcycles_per_s(self.total_cycles, self.reference_wall_ms)
    }

    fn mcycles_per_s(cycles: u64, wall_ms: f64) -> f64 {
        if wall_ms <= 0.0 {
            0.0
        } else {
            cycles as f64 / 1e3 / wall_ms
        }
    }
}

/// Measure simulator throughput: run every BEEBS kernel at every given
/// level on the reference interpreter, on the decoded engine, and on a
/// [`BatchRunner`], and compare wall times and results.
///
/// The result check is exact, not approximate: the deterministic counter
/// fold means the decoded engine must reproduce the reference cycles,
/// energy *bits*, checksum, profile and layout, and a batched run must
/// reproduce the sequential ones; the report records both verdicts.
/// Compilation goes through the fixture cache and decoding is untimed —
/// the decoded engine's contract is decode-once/run-many, so the timed
/// loops measure the per-run cost only.  An untimed warm-up pass runs
/// first so page faults and allocator growth land outside the
/// measurements.
pub fn sim_perf(board: &Board, levels: &[OptLevel]) -> SimPerfReport {
    let jobs = sweep_jobs(levels);
    let programs: Vec<_> = jobs
        .iter()
        .map(|(bench, level)| bench.compile_cached(*level).expect("benchmark compiles"))
        .collect();

    // Decode once, untimed; this also warms every program image.
    let decoded_programs: Vec<_> = programs
        .iter()
        .map(|p| board.decode(p).expect("kernel decodes"))
        .collect();
    let config = RunConfig::default();
    for decoded in &decoded_programs {
        let _ = board.run_decoded(decoded, &config).expect("kernel runs");
    }

    // Interleaved rounds with a rotated pass order, keeping each
    // (kernel, pass) cell's best wall time and each round's engine ratio.  A fixed order systematically
    // penalizes whichever pass runs later (shared and quota-throttled
    // hosts slow down under sustained load — the source of the phantom
    // sub-1.0 "batched slowdown" this file used to report at one thread);
    // rotating gives every pass an early slot and taking minima cancels
    // the drift.  Results are deterministic, so any round's outputs serve
    // for the bit-identity comparison.
    let runner = BatchRunner::new(board.clone());
    let n = programs.len();
    let mut reference_cells = vec![f64::MAX; n];
    let mut decoded_cells = vec![f64::MAX; n];
    let mut reference = Vec::new();
    let mut sequential = Vec::new();
    let mut batched_wall_ms = f64::MAX;
    let mut batched = Vec::new();
    let mut round_speedups = Vec::with_capacity(SIM_ROUNDS);
    // Times every kernel into its cell and returns the pass's total.
    let time_cells = |cells: &mut [f64], out: &mut Vec<_>, run: &dyn Fn(usize) -> RunResult| {
        out.clear();
        let mut total = 0.0;
        for (i, cell) in cells.iter_mut().enumerate() {
            let start = std::time::Instant::now();
            let result = run(i);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            *cell = cell.min(ms);
            total += ms;
            out.push(result);
        }
        total
    };
    let run_reference = |i: usize| board.run_reference(&programs[i]).expect("kernel runs");
    let run_decoded = |i: usize| {
        board
            .run_decoded(&decoded_programs[i], &config)
            .expect("kernel runs")
    };
    for round in 0..SIM_ROUNDS {
        let (mut reference_ms, mut decoded_ms) = (0.0, 0.0);
        for pass in 0..3 {
            match (round + pass) % 3 {
                0 => {
                    reference_ms = time_cells(&mut reference_cells, &mut reference, &run_reference);
                }
                1 => decoded_ms = time_cells(&mut decoded_cells, &mut sequential, &run_decoded),
                _ => {
                    let start = std::time::Instant::now();
                    batched = runner.map(&decoded_programs, |board, d| {
                        board.run_decoded(d, &config).expect("kernel runs")
                    });
                    batched_wall_ms = batched_wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        if decoded_ms > 0.0 {
            round_speedups.push(reference_ms / decoded_ms);
        }
    }

    let rows = jobs
        .iter()
        .enumerate()
        .zip(&sequential)
        .map(|((i, (bench, level)), run)| SimPerfRow {
            benchmark: bench.name.to_string(),
            level: *level,
            cycles: run.cycles(),
            energy_mj: run.energy_mj,
            return_value: run.return_value,
            reference_wall_ms: reference_cells[i],
            decoded_wall_ms: decoded_cells[i],
        })
        .collect::<Vec<_>>();

    SimPerfReport {
        threads: runner.threads(),
        total_cycles: rows.iter().map(|r| r.cycles).sum(),
        reference_wall_ms: reference_cells.iter().sum(),
        sequential_wall_ms: decoded_cells.iter().sum(),
        batched_wall_ms,
        round_speedups,
        decoded_bit_identical: sequential.iter().zip(&reference).all(|(d, r)| d.bits_eq(r)),
        batched_bit_identical: sequential.iter().zip(&batched).all(|(s, b)| s.bits_eq(b)),
        rows,
    }
}

/// The `BENCH_sim.json` document of a [`SimPerfReport`].
pub fn sim_perf_document(report: &SimPerfReport) -> Json {
    let mcycles = |x: f64| Json::Fixed(x, 1);
    let runs = report.rows.iter().map(|row| {
        obj! {
            "benchmark": row.benchmark.as_str(), "level": row.level.to_string(),
            "cycles": row.cycles, "energy_mj": Json::Fixed(row.energy_mj, 6),
            "return_value": row.return_value,
            "reference_mcycles_per_s": mcycles(row.reference_mcycles_per_s()),
            "decoded_mcycles_per_s": mcycles(row.decoded_mcycles_per_s()),
        }
    });
    let timing = format!(
        "per-kernel min of {SIM_ROUNDS} interleaved rounds, pass order rotated each round; \
         decode_speedup the median of the {SIM_ROUNDS} per-round reference/decoded ratios; \
         batched pass min of {SIM_ROUNDS}; decoding untimed"
    );
    document(
        &timing,
        obj! {
            "threads": report.threads,
            "programs": report.rows.len(),
            "total_cycles": report.total_cycles,
            "reference_wall_ms": Json::Fixed(report.reference_wall_ms, 3),
            "sequential_wall_ms": Json::Fixed(report.sequential_wall_ms, 3),
            "batched_wall_ms": Json::Fixed(report.batched_wall_ms, 3),
            "reference_mcycles_per_s": mcycles(report.reference_mcycles_per_s()),
            "decoded_mcycles_per_s": mcycles(report.decoded_mcycles_per_s()),
            "decode_speedup": Json::Fixed(report.decode_speedup(), 3),
            "round_speedups": Json::Arr(
                report.round_speedups.iter().map(|r| Json::Fixed(*r, 3)).collect()
            ),
            "speedup": Json::Fixed(report.speedup(), 3),
            "batched_mcycles_per_s": mcycles(report.batched_mcycles_per_s()),
            "decoded_bit_identical": report.decoded_bit_identical,
            "batched_bit_identical": report.batched_bit_identical,
            "runs": Json::Arr(runs.collect()),
        },
    )
}

/// One `(kernel, device)` cell of the cross-device placement matrix: the
/// outcome of enumerating that kernel's exact energy/RAM frontier on that
/// device-database entry.
#[derive(Debug, Clone)]
pub struct DeviceMatrixRow {
    /// BEEBS kernel name.
    pub benchmark: &'static str,
    /// Device-database key.
    pub device: &'static str,
    /// Steps on the device's exact Pareto staircase.
    pub frontier_points: usize,
    /// Spare RAM the kernel leaves on the device, in bytes (the budget
    /// ceiling of the enumeration).
    pub spare_ram: u32,
    /// All-in-flash baseline energy in millijoules (objective scaled by the
    /// device's cycle period, so the column is comparable across devices).
    pub baseline_energy_mj: f64,
    /// Energy of the device's energy-optimal staircase step (mJ).
    pub best_energy_mj: f64,
    /// RAM bytes the Eq. 7 budget row charges the optimal step for.
    pub best_ram_bytes: u32,
    /// The blocks the optimal step moves to RAM.
    pub best_selected: Vec<BlockRef>,
    /// The blocks selected under the shared tight probe budget
    /// ([`TIGHT_PROBE_RAM`] bytes) — where the per-device block *ranking*
    /// shows, because the budget forces a choice.
    pub tight_selected: Vec<BlockRef>,
    /// Branch-and-bound nodes spent enumerating the staircase.
    pub nodes_explored: usize,
    /// Simplex pivots spent enumerating the staircase.
    pub lp_pivots: usize,
    /// Whether every step was solved to proven optimality — within the
    /// solver's 1e-6 relative pruning margin, so steps closer together than
    /// that margin can merge (see [`flashram_core::Frontier::exact`]).
    pub exact: bool,
}

impl DeviceMatrixRow {
    /// Energy the optimal placement saves relative to all-in-flash, in
    /// percent.
    pub fn saving_pct(&self) -> f64 {
        if self.baseline_energy_mj == 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.best_energy_mj / self.baseline_energy_mj)
    }
}

/// One kernel's cross-device outcome: a row per database device plus the
/// merged device-dominant Pareto set.
#[derive(Debug, Clone)]
pub struct DeviceMatrixKernel {
    /// BEEBS kernel name.
    pub benchmark: &'static str,
    /// Per-device rows, in device-database order.
    pub rows: Vec<DeviceMatrixRow>,
    /// The device-dominant Pareto set over `(RAM budget, energy in mJ)`:
    /// which part to pick at each budget, merged across the database.
    pub pareto: Vec<DevicePoint>,
}

impl DeviceMatrixKernel {
    /// Whether the wait-state part `stm32f401` picks a different block set
    /// than the zero-wait-state `stm32f100` — at the unconstrained optimum
    /// or under the [`TIGHT_PROBE_RAM`] probe budget.
    pub fn f401_diverges(&self) -> bool {
        let row = |dev: &str| self.rows.iter().find(|r| r.device == dev);
        match (row("stm32f100"), row("stm32f401")) {
            (Some(a), Some(b)) => {
                a.best_selected != b.best_selected || a.tight_selected != b.tight_selected
            }
            _ => false,
        }
    }
}

/// The RAM budget (bytes) of the tight divergence probe: small enough that
/// no kernel fits every profitable block, so the solver must *rank* blocks
/// — and the ranking is where wait states and per-device energy tables
/// change the answer.  (At the unconstrained optimum every device simply
/// takes every profitable block, and the sets coincide.)
pub const TIGHT_PROBE_RAM: u32 = 128;

/// Enumerate the exact energy/RAM frontier of each named BEEBS kernel on
/// every entry of the device database, fanning the per-device enumerations
/// over a worker pool ([`DeviceMatrix::enumerate`]), plus one extra solve
/// per device at the [`TIGHT_PROBE_RAM`] budget.  An empty `names` slice
/// selects the whole suite.
///
/// The second element collects acceptance failures: kernels that fail to
/// compile, devices the program does not fit or whose staircase was
/// truncated, and — the property the device model exists to show — the
/// wait-state part `stm32f401` picking the *same* block set as the
/// zero-wait-state `stm32f100` on every kernel, at the optimum and under
/// the tight probe (wait states make RAM moves shed fetch stalls, so
/// constrained placements must measurably differ).
pub fn device_matrix(
    names: &[&str],
    level: OptLevel,
    x_limit: f64,
) -> (Vec<DeviceMatrixKernel>, Vec<String>) {
    let devices = DEVICE_DB.all();
    let benches: Vec<Benchmark> = if names.is_empty() {
        Benchmark::all()
    } else {
        names
            .iter()
            .map(|n| Benchmark::by_name(n).unwrap_or_else(|| panic!("unknown benchmark {n}")))
            .collect()
    };
    let runner = BatchRunner::new(Board::stm32vldiscovery());
    let config = OptimizerConfig {
        x_limit,
        ..OptimizerConfig::default()
    };
    let mut kernels = Vec::new();
    let mut failures = Vec::new();
    for bench in &benches {
        let program = match bench.compile_cached(level) {
            Ok(p) => p,
            Err(e) => {
                failures.push(format!("{}: compile failed: {e}", bench.name));
                continue;
            }
        };
        let matrix = DeviceMatrix::enumerate(&program, devices, &config, &runner);
        for (device, err) in &matrix.skipped {
            failures.push(format!("{} on {device}: {err}", bench.name));
        }
        let mut rows = Vec::new();
        for df in &matrix.frontiers {
            let Some(best) = df.best() else {
                failures.push(format!("{} on {}: empty frontier", bench.name, df.device));
                continue;
            };
            if !df.frontier.exact {
                failures.push(format!(
                    "{} on {}: staircase truncated (not proven exact)",
                    bench.name, df.device
                ));
            }
            let desc = DEVICE_DB
                .get(df.device)
                .expect("frontier device is registered");
            let tight_selected = PlacementSession::new(&program, &Board::new(desc), &config)
                .map_err(|e| e.to_string())
                .and_then(|mut s| {
                    s.solve_point(TIGHT_PROBE_RAM.min(df.spare_ram), x_limit)
                        .map(|p| p.selected)
                        .map_err(|e| e.to_string())
                })
                .unwrap_or_else(|e| {
                    failures.push(format!(
                        "{} on {}: tight probe failed: {e}",
                        bench.name, df.device
                    ));
                    Vec::new()
                });
            rows.push(DeviceMatrixRow {
                benchmark: bench.name,
                device: df.device,
                frontier_points: df.frontier.points.len(),
                spare_ram: df.spare_ram,
                baseline_energy_mj: df.frontier.baseline.energy * df.cycle_time_s,
                best_energy_mj: df.energy_mj(best),
                best_ram_bytes: best.model_ram_used,
                best_selected: best.selected.clone(),
                tight_selected,
                nodes_explored: df.stats.nodes_explored,
                lp_pivots: df.stats.lp_pivots,
                exact: df.frontier.exact,
            });
        }
        kernels.push(DeviceMatrixKernel {
            benchmark: bench.name,
            rows,
            pareto: matrix.pareto,
        });
    }
    let diverging = kernels.iter().filter(|k| k.f401_diverges()).count();
    if !kernels.is_empty() && diverging == 0 {
        failures.push(
            "wait-state part stm32f401 chose the same block set as zero-wait \
             stm32f100 on every kernel, at the optimum and under the tight probe"
                .to_string(),
        );
    }
    (kernels, failures)
}

/// Render the cross-device matrix as the text table the `device_matrix`
/// binary prints (and the `device_matrix` golden pins for a kernel subset).
pub fn device_matrix_text(kernels: &[DeviceMatrixKernel]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<11} {:>4} {:>7} {:>12} {:>12} {:>7} {:>6} {:>6} {:>5} {:>6}\n",
        "benchmark",
        "device",
        "pts",
        "spare",
        "base mJ",
        "best mJ",
        "save%",
        "ram",
        "blocks",
        "tight",
        "exact"
    ));
    for k in kernels {
        for r in &k.rows {
            out.push_str(&format!(
                "{:<14} {:<11} {:>4} {:>7} {:>12.6} {:>12.6} {:>7.2} {:>6} {:>6} {:>5} {:>6}\n",
                r.benchmark,
                r.device,
                r.frontier_points,
                r.spare_ram,
                r.baseline_energy_mj,
                r.best_energy_mj,
                r.saving_pct(),
                r.best_ram_bytes,
                r.best_selected.len(),
                r.tight_selected.len(),
                if r.exact { "yes" } else { "no" },
            ));
        }
        let steps: Vec<String> = k
            .pareto
            .iter()
            .map(|p| format!("{} @{}B {:.6}mJ", p.device, p.min_ram_bytes, p.energy_mj))
            .collect();
        out.push_str(&format!("  pareto: {}\n", steps.join(" -> ")));
        out.push_str(&format!(
            "  f401 vs f100 block set (opt or tight probe) differs: {}\n",
            if k.f401_diverges() { "yes" } else { "no" }
        ));
    }
    out
}

/// The `BENCH_device.json` document of the cross-device matrix and its
/// acceptance failures.
pub fn device_matrix_document(kernels: &[DeviceMatrixKernel], failures: &[String]) -> Json {
    let mj = |x: f64| Json::Fixed(x, 9);
    let row = |r: &DeviceMatrixRow| {
        obj! {
            "device": r.device, "frontier_points": r.frontier_points,
            "spare_ram": r.spare_ram, "baseline_energy_mj": mj(r.baseline_energy_mj),
            "best_energy_mj": mj(r.best_energy_mj), "saving_pct": Json::Fixed(r.saving_pct(), 3),
            "best_ram_bytes": r.best_ram_bytes, "best_blocks": r.best_selected.len(),
            "tight_blocks": r.tight_selected.len(),
            "nodes_explored": r.nodes_explored, "lp_pivots": r.lp_pivots, "exact": r.exact,
        }
    };
    let pareto = |p: &DevicePoint| {
        obj! {"device": p.device, "min_ram_bytes": p.min_ram_bytes, "energy_mj": mj(p.energy_mj)}
    };
    let kernels = kernels.iter().map(|k| {
        obj! {
            "benchmark": k.benchmark, "devices": Json::Arr(k.rows.iter().map(row).collect()),
            "f401_diverges": k.f401_diverges(),
            "pareto": Json::Arr(k.pareto.iter().map(pareto).collect()),
        }
    });
    let devices = DEVICE_DB.all().iter().map(|d| d.key.into());
    document(
        "untimed: branch-and-bound nodes, pivots and model energies only",
        obj! {
            "devices": Json::Arr(devices.collect()),
            "kernels": Json::Arr(kernels.collect()),
            "failures": Json::Arr(failures.iter().map(|f| f.as_str().into()).collect()),
        },
    )
}

/// The `BENCH_serve.json` document of a stress run (`BENCH_serve_chaos.json`
/// for a chaos run, which adds the `chaos` section).
pub fn stress_document(report: &StressReport) -> Json {
    let (ms, rate) = (|x: f64| Json::Fixed(x, 3), |x: f64| Json::Fixed(x, 4));
    let (server, cache) = (&report.server, &report.server.cache);
    let timeline = report.hit_rate_timeline.iter().map(|&r| rate(r));
    let mut doc = obj! {
        "seed": report.seed,
        "clients": report.clients,
        "wall_s": Json::Fixed(report.wall_s, 3),
        "throughput_rps": Json::Fixed(report.throughput_rps, 2),
        "latency_ms": obj! {
            "p50": ms(report.latency_p50_ms), "p95": ms(report.latency_p95_ms),
            "p99": ms(report.latency_p99_ms),
        },
        "build_ms": obj! {"p50": ms(report.build_p50_ms), "p90": ms(report.build_p90_ms)},
        "session_hit_rate": rate(report.session_hit_rate),
        "memo_hit_rate": rate(report.memo_hit_rate),
        "degradation_rate": rate(report.degradation_rate),
        "outcomes": obj! {
            "exact": server.exact, "heuristic": server.heuristic, "timeout": server.timeout,
        },
        "requests": obj! {
            "submitted": server.submitted, "completed": server.completed,
            "errors": server.errors,
        },
        "cache": obj! {
            "hits": cache.hits, "misses": cache.misses, "evictions": cache.evictions,
            "collisions": cache.collisions, "quarantined": cache.quarantined,
        },
        "equivalence": obj! {
            "checked": report.equivalence_checked, "failures": report.equivalence_failures,
        },
        "validation": obj! {
            "simulated": report.validated, "failures": report.validation_failures,
        },
        "hit_rate_timeline": Json::Arr(timeline.collect()),
        "failures": report.failures.len(),
    };
    if let (Json::Obj(fields), Some(chaos)) = (&mut doc, &report.chaos) {
        let sites = chaos
            .sites
            .iter()
            .map(|(name, hits, fired)| (name.clone(), obj! {"hits": *hits, "fired": *fired}));
        let chaos = obj! {
            "seed": chaos.seed, "rate_per_mille": chaos.rate_per_mille,
            "succeeded": chaos.succeeded, "failed": chaos.failed,
            "quarantined": cache.quarantined, "worker_panics": server.worker_panics,
            "worker_restarts": server.worker_restarts, "sites": Json::Obj(sites.collect()),
        };
        // Just before the closing `failures` count, where it always sat.
        fields.insert(fields.len() - 1, ("chaos".to_string(), chaos));
    }
    let timing = "one seeded closed-loop run; latency from submission to response, \
                  build_ms per response; nearest-rank percentiles over every request";
    document(timing, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashram_serve::{ChaosReport, ServerStats};

    #[test]
    fn device_matrix_covers_the_database_and_renders() {
        let (kernels, failures) = device_matrix(&["fdct"], OptLevel::O2, 1.5);
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(kernels.len(), 1);
        let k = &kernels[0];
        assert_eq!(k.rows.len(), DEVICE_DB.all().len());
        for r in &k.rows {
            assert!(r.exact, "{}: staircase must be exact", r.device);
            assert!(r.frontier_points > 0);
            assert!(
                r.best_energy_mj < r.baseline_energy_mj,
                "{}: the optimal placement must save energy",
                r.device
            );
            assert!(!r.tight_selected.is_empty());
        }
        // The merged Pareto set is non-decreasing in RAM and strictly
        // decreasing in energy, and the wait-state part must pick a
        // different block set than the zero-wait reference on fdct.
        for w in k.pareto.windows(2) {
            assert!(w[0].min_ram_bytes <= w[1].min_ram_bytes);
            assert!(w[0].energy_mj > w[1].energy_mj);
        }
        assert!(k.f401_diverges(), "fdct must diverge under the tight probe");
        let text = device_matrix_text(&kernels);
        assert!(text.contains("stm32f401"));
        assert!(text.contains("pareto:"));
        let doc = device_matrix_document(&kernels, &failures);
        let kernel = &elements(&doc, "kernels")[0];
        assert_eq!(kernel.get("benchmark"), Some(&"fdct".into()));
        assert_eq!(kernel.get("f401_diverges"), Some(&true.into()));
        let rows = elements(kernel, "devices");
        let devices: Vec<_> = rows.iter().filter_map(|r| r.get("device")).collect();
        assert!(devices.contains(&&"stm32l151".into()));
        assert!(rows.iter().all(|r| r.get("exact") == Some(&true.into())));
        let baseline = rows[0].get("baseline_energy_mj").map(Json::to_string);
        assert_eq!(
            baseline,
            Some(format!("{:.9}", k.rows[0].baseline_energy_mj))
        );
        assert!(elements(&doc, "failures").is_empty());
    }

    /// The array under `key` of an object.
    fn elements<'a>(value: &'a Json, key: &str) -> &'a [Json] {
        match value.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    #[test]
    fn failure_messages_are_escaped_not_rewritten() {
        let failure = "fdct on \"stm32f401\": C:\\tmp\nsecond\tline\u{1} é".to_string();
        let text = device_matrix_document(&[], &[failure]).to_string();
        let escaped = r#""fdct on \"stm32f401\": C:\\tmp\nsecond\tline\u0001 é""#;
        assert!(text.contains(escaped), "{text}");
    }

    #[test]
    fn committed_bench_files_open_with_provenance() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for file in ["solver", "sim", "device", "serve", "serve_chaos"] {
            let name = format!("BENCH_{file}.json");
            let text = std::fs::read_to_string(root.join(&name)).expect(&name);
            let header = text.lines().nth(1).unwrap_or_default();
            assert!(
                text.starts_with("{\n  \"provenance\": {\"commit\": \""),
                "{name} does not open with provenance"
            );
            for key in ["\"nproc\": ", "\"profile\": \"", "\"timing\": \""] {
                assert!(header.contains(key), "{name} provenance lacks {key}");
            }
        }
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let doc = stress_document(&StressReport {
            throughput_rps: 10.0,
            latency_p99_ms: 3.0,
            build_p90_ms: 0.25,
            memo_hit_rate: 0.25,
            hit_rate_timeline: vec![0.1, 0.5],
            ..StressReport::default()
        });
        let rendered = |path: &[&str]| {
            let value = path.iter().try_fold(&doc, |v, key| v.get(key));
            value.map(Json::to_string)
        };
        assert_eq!(rendered(&["throughput_rps"]).as_deref(), Some("10.00"));
        assert_eq!(rendered(&["latency_ms", "p99"]).as_deref(), Some("3.000"));
        assert_eq!(rendered(&["build_ms", "p90"]).as_deref(), Some("0.250"));
        assert_eq!(rendered(&["memo_hit_rate"]).as_deref(), Some("0.2500"));
        let timeline = [Json::Fixed(0.1, 4), Json::Fixed(0.5, 4)];
        assert_eq!(elements(&doc, "hit_rate_timeline"), timeline);
        assert_eq!(rendered(&["cache", "quarantined"]).as_deref(), Some("0"));
        assert_eq!(rendered(&["failures"]).as_deref(), Some("0"));
        assert!(doc.get("chaos").is_none(), "no chaos section by default");
        assert!(doc.to_string().starts_with("{\n  \"provenance\": {"));
    }

    #[test]
    fn report_json_renders_the_chaos_section() {
        let mut server = ServerStats {
            worker_panics: 3,
            worker_restarts: 1,
            ..ServerStats::default()
        };
        server.cache.quarantined = 3;
        let doc = stress_document(&StressReport {
            server,
            chaos: Some(ChaosReport {
                seed: 99,
                rate_per_mille: 50,
                succeeded: 90,
                failed: 10,
                sites: vec![("ilp_panic".to_string(), 120, 4)],
            }),
            ..StressReport::default()
        });
        let chaos = doc.get("chaos").expect("chaos section");
        assert_eq!(chaos.get("rate_per_mille"), Some(&Json::Int(50)));
        assert_eq!(chaos.get("quarantined"), Some(&Json::Int(3)));
        assert_eq!(chaos.get("worker_panics"), Some(&Json::Int(3)));
        assert_eq!(chaos.get("worker_restarts"), Some(&Json::Int(1)));
        assert!(doc
            .to_string()
            .contains("\"sites\": {\"ilp_panic\": {\"hits\": 120, \"fired\": 4}}"));
    }

    #[test]
    fn sim_perf_report_is_bit_identical_and_renders() {
        let board = Board::stm32vldiscovery();
        let report = sim_perf(&board, &[OptLevel::O2]);
        assert_eq!(report.rows.len(), Benchmark::all().len());
        assert!(
            report.decoded_bit_identical,
            "decoded must match reference bits"
        );
        assert!(
            report.batched_bit_identical,
            "batched must match sequential bits"
        );
        assert!(report.total_cycles > 0);
        assert!(report.decode_speedup() > 0.0);
        assert!(report
            .rows
            .iter()
            .all(|r| r.reference_mcycles_per_s() > 0.0 && r.decoded_mcycles_per_s() > 0.0));
        let doc = sim_perf_document(&report);
        assert_eq!(doc.get("decoded_bit_identical"), Some(&true.into()));
        assert_eq!(doc.get("batched_bit_identical"), Some(&true.into()));
        let speedup = Json::Fixed(report.decode_speedup(), 3);
        assert_eq!(doc.get("decode_speedup"), Some(&speedup));
        assert_eq!(doc.get("total_cycles"), Some(&report.total_cycles.into()));
        let runs = elements(&doc, "runs");
        let row = &runs[report
            .rows
            .iter()
            .position(|r| r.benchmark == "int_matmult")
            .unwrap()];
        assert_eq!(row.get("benchmark"), Some(&"int_matmult".into()));
        for key in ["reference_mcycles_per_s", "decoded_mcycles_per_s"] {
            assert!(matches!(row.get(key), Some(Json::Fixed(x, 1)) if *x > 0.0));
        }
    }

    #[test]
    fn figure4_text_matches_the_table() {
        let text = figure4_text();
        assert!(text.starts_with("Figure 4"));
        for row in figure4_table() {
            assert!(text.contains(&row.kind), "missing row {}", row.kind);
        }
    }

    #[test]
    fn figure1_reproduces_the_flash_ram_gap() {
        let board = Board::stm32vldiscovery();
        let series = figure1_series(&board);
        assert_eq!(series.len(), 6);
        for row in &series {
            if row.label == "flash load" {
                // Loads that hit flash from RAM-resident code stay expensive.
                assert!(
                    row.ram_mw > row.flash_mw * 0.85,
                    "{}: {} vs {}",
                    row.label,
                    row.ram_mw,
                    row.flash_mw
                );
            } else {
                assert!(
                    row.ram_mw < row.flash_mw * 0.8,
                    "{}: RAM should be much cheaper ({} vs {})",
                    row.label,
                    row.ram_mw,
                    row.flash_mw
                );
            }
        }
    }

    #[test]
    fn figure4_table_matches_the_isa_costs() {
        let table = figure4_table();
        assert_eq!(table.len(), 4);
        let uncond = &table[0];
        assert_eq!((uncond.indirect_bytes, uncond.indirect_cycles), (4, 4));
        let cond = &table[1];
        assert_eq!((cond.indirect_bytes, cond.indirect_cycles), (8, 7));
    }

    #[test]
    fn single_benchmark_run_shows_the_paper_shape() {
        let board = Board::stm32vldiscovery();
        let bench = Benchmark::by_name("int_matmult").unwrap();
        let r = run_benchmark(&board, &bench, OptLevel::O2, 1.5);
        assert!(r.power_change_pct() < 0.0, "power must drop: {r:?}");
        assert!(
            r.energy_change_pct() < 5.0,
            "energy should not blow up: {r:?}"
        );
        assert!(
            r.time_change_pct() >= -1.0,
            "time should not improve: {r:?}"
        );
        assert!(r.blocks_in_ram > 0);
    }

    #[test]
    fn tradeoff_space_contains_the_solver_choices() {
        let board = Board::stm32vldiscovery();
        let bench = Benchmark::by_name("fdct").unwrap();
        let space = tradeoff_space(&board, &bench, OptLevel::O2, 6);
        assert_eq!(space.points.len(), 64);
        assert_eq!(space.enumerated_k, 6);
        assert!(!space.ram_sweep.is_empty());
        assert!(!space.time_sweep.is_empty());
        // Every sweep point solved (the sampled grids are all feasible).
        // The first point has nothing to chain from; later points chain.
        for (i, (_, s)) in space.ram_sweep.iter().enumerate() {
            assert!(!s.infeasible && s.error.is_none(), "ram point {i} failed");
            assert!(s.stats.is_some());
            assert_eq!(
                s.chained,
                i > 0,
                "ram point {i} chains unless it is the first"
            );
        }
        for (_, s) in &space.time_sweep {
            assert!(s.point.is_some(), "time sweep points are feasible");
        }
        let chained_samples = space
            .ram_sweep
            .iter()
            .map(|(_, s)| s)
            .chain(space.time_sweep.iter().map(|(_, s)| s))
            .filter(|s| s.chained)
            .count();
        assert!(
            chained_samples > 0,
            "the session must chain roots across sweep points"
        );
        // Relaxing RAM monotonically improves (or keeps) the model energy.
        for w in space.ram_sweep.windows(2) {
            let (a, b) = (w[0].1.point.unwrap(), w[1].1.point.unwrap());
            assert!(b.energy <= a.energy + 1e-6);
        }
        // Every solver point is at least as good as the baseline.
        for (_, s) in &space.ram_sweep {
            assert!(s.point.unwrap().energy <= space.baseline.energy + 1e-6);
        }
        // The exact staircase is strictly monotone and at least as rich as
        // the distinct energies of the sampled grid.
        assert!(space.frontier_exact);
        assert!(!space.frontier.is_empty());
        for w in space.frontier.windows(2) {
            assert!(w[0].min_ram_bytes < w[1].min_ram_bytes);
            assert!(w[0].point.energy > w[1].point.energy);
        }
        assert_eq!(space.frontier[0].min_ram_bytes, 0);
        // The session counted every solved point (the frontier descent may
        // solve a few more than it keeps, for dominated tie placements).
        assert!(
            space.sweep_stats.points_solved
                >= space.ram_sweep.len() + space.time_sweep.len() + space.frontier.len()
        );
        assert!(
            (1..space.sweep_stats.points_solved).contains(&space.sweep_stats.chained_roots),
            "chained {} of {} points",
            space.sweep_stats.chained_roots,
            space.sweep_stats.points_solved
        );
    }

    #[test]
    fn tradeoff_space_clamps_the_enumeration_width() {
        // Regression for the `1u32 << k` overflow: an absurd k is clamped
        // to MAX_ENUMERATED_BLOCKS (or the candidate count) and reported,
        // never shifted past the word width.
        let board = Board::stm32vldiscovery();
        let bench = Benchmark::by_name("crc32").unwrap();
        let space = tradeoff_space(&board, &bench, OptLevel::O2, 64);
        assert_eq!(space.requested_k, 64);
        assert!(space.enumerated_k <= MAX_ENUMERATED_BLOCKS);
        assert_eq!(space.points.len(), 1usize << space.enumerated_k);
    }
}
