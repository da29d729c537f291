//! `optimize_suite`: the paper's build-time use.  Every item compiles one
//! BEEBS kernel, simulates it, optimizes it with the default configuration
//! and simulates the optimized program, which must return the baseline's
//! value.

use std::time::Instant;

use flashram_beebs::Benchmark;
use flashram_core::{
    apply_placement_scoped, extract_params_for_timing, relocated_code_bytes, PlacementSession,
    PointResolution, RamOptimizer,
};
use flashram_device::DEVICE_DB;
use flashram_ir::{BlockRef, MachineProgram};
use flashram_mcu::{Board, RunConfig, RunResult};
use flashram_minicc::OptLevel;

use crate::report::{Counts, Ratios};
use crate::trace::Tracer;
use crate::{drive, rng, timed_setups, Args, Pass, RunOutput, Schedule};

/// A set-up is one warm-up pass, made before the timed phase and after
/// every third pass.
const SCHEDULE: Schedule = Schedule {
    equal_work: true,
    setups: 1,
    setup_every: Some(3),
};

const LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O2, OptLevel::O3];

struct Item {
    bench: Benchmark,
    level: OptLevel,
    board: Board,
}

/// What an item must reproduce on every pass.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    selected: Vec<BlockRef>,
    ratios: Ratios,
}

fn items() -> Vec<Item> {
    let mut items = Vec::new();
    for bench in Benchmark::all() {
        for level in LEVELS {
            for desc in DEVICE_DB.all() {
                items.push(Item {
                    bench,
                    level,
                    board: Board::new(desc),
                });
            }
        }
    }
    items
}

fn name(item: &Item) -> String {
    format!("{}@{}", item.bench.name, item.level)
}

fn compile(item: &Item) -> Result<MachineProgram, String> {
    item.bench
        .compile(item.level)
        .map_err(|e| format!("{}: compile failed: {e}", name(item)))
}

fn simulated(
    item: &Item,
    run: Result<RunResult, flashram_mcu::RunError>,
) -> Result<RunResult, String> {
    run.map_err(|e| format!("{}: simulation failed: {e}", name(item)))
}

fn note_program(counts: &mut Counts, program: &MachineProgram) {
    counts.compiles += 1;
    counts.code_bytes += u64::from(program.code_size());
}

fn note_runs(counts: &mut Counts, base: &RunResult, opt: &RunResult) {
    counts.mcu_runs += 2;
    counts.sim_cycles += base.cycles() + opt.cycles();
}

/// The untraced item: the public entry points a user calls.
fn run_plain(
    item: &Item,
    optimizer: &RamOptimizer,
    counts: &mut Counts,
) -> Result<Expected, String> {
    let program = compile(item)?;
    let base = simulated(item, item.board.run(&program))?;
    let placement = optimizer
        .optimize(&program, &item.board)
        .map_err(|e| format!("{}: optimize failed: {e}", name(item)))?;
    let opt = simulated(item, item.board.run(&placement.program))?;
    note_program(counts, &program);
    note_runs(counts, &base, &opt);
    if let Some(stats) = &placement.solver_stats {
        counts.add_solve(stats);
    }
    counts.heuristic_fallbacks += u64::from(placement.heuristic);
    counts.params_blocks += placement.params.blocks.len() as u64;
    counts.relocated_bytes += u64::from(relocated_code_bytes(&placement.program));
    validated(item, &base, &opt, placement.selected)
}

/// The traced item: the stages `RamOptimizer::optimize` calls, one by one.
fn run_traced(
    item: &Item,
    optimizer: &RamOptimizer,
    counts: &mut Counts,
    tracer: &mut Tracer,
    id: u64,
) -> Result<Expected, String> {
    let config = &optimizer.config;
    let board = &item.board;
    let root = tracer.begin("item", id, None);
    let program = tracer.span("minicc.compile", root, || compile(item))?;
    let decoded = tracer.span("mcu.decode", root, || board.decode(&program));
    let base = tracer.span("mcu.exec", root, || {
        decoded.and_then(|d| board.run_decoded(&d, &RunConfig::default()))
    });
    let base = simulated(item, base)?;
    let spare = tracer
        .span("mcu.spare_ram", root, || board.spare_ram(&program))
        .map_err(|e| format!("{}: does not fit: {e}", name(item)))?;
    let params = tracer.span("core.params.extract", root, || {
        extract_params_for_timing(&program, &config.frequency, config.scope, &board.timing)
    });
    let model_config = optimizer.model_config_for(board, spare);
    let mut session = tracer.span("core.model.build", root, || {
        PlacementSession::from_params(params, &model_config)
    });
    let solved = tracer
        .span("ilp.solve", root, || {
            session.solve_point_degraded(spare, config.x_limit)
        })
        .map_err(|e| format!("{}: solve failed: {e}", name(item)))?;
    let transformed = tracer.span("core.transform.apply", root, || {
        apply_placement_scoped(&program, &solved.point.selected, config.scope)
    });
    let decoded = tracer.span("mcu.decode", root, || board.decode(&transformed));
    let opt = tracer.span("mcu.exec", root, || {
        decoded.and_then(|d| board.run_decoded(&d, &RunConfig::default()))
    });
    tracer.end(root);
    let opt = simulated(item, opt)?;
    note_program(counts, &program);
    note_runs(counts, &base, &opt);
    counts.add_solve(&solved.point.stats);
    counts.heuristic_fallbacks += u64::from(solved.resolution != PointResolution::Exact);
    counts.params_blocks += session.params().blocks.len() as u64;
    counts.model_vars += session.model().problem.num_vars() as u64;
    counts.model_rows += session.model().problem.num_constraints() as u64;
    counts.relocated_bytes += u64::from(relocated_code_bytes(&transformed));
    validated(item, &base, &opt, solved.point.selected)
}

fn validated(
    item: &Item,
    base: &RunResult,
    opt: &RunResult,
    selected: Vec<BlockRef>,
) -> Result<Expected, String> {
    if opt.return_value != base.return_value {
        return Err(format!(
            "{}: optimized program returned {} instead of {}",
            name(item),
            opt.return_value,
            base.return_value
        ));
    }
    Ok(Expected {
        selected,
        ratios: Ratios::of(base, opt),
    })
}

/// Pass `index` of a run seeded with `seed`: every item once, in a seeded
/// order.  Each result must match `expected` (the untraced `optimize()`
/// answer of the set-up).
fn pass(
    items: &[Item],
    optimizer: &RamOptimizer,
    expected: &[Option<Expected>],
    (seed, index): (u64, u64),
    mut tracer: Option<&mut Tracer>,
) -> (Pass, Vec<Option<Expected>>) {
    let mut out = Pass {
        latencies_ms: vec![0.0; items.len()],
        ..Pass::default()
    };
    let mut results = vec![None; items.len()];
    let order = rng::shuffled(items.len(), rng::derive(seed, index));
    for (n, &i) in order.iter().enumerate() {
        let item = &items[i];
        let t0 = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(t) => run_traced(
                item,
                optimizer,
                &mut out.counts,
                t,
                index * items.len() as u64 + n as u64,
            ),
            None => run_plain(item, optimizer, &mut out.counts),
        };
        out.latencies_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
        out.counts.items += 1;
        match result {
            Ok(got) => {
                if let Some(Some(want)) = expected.get(i) {
                    if *want != got {
                        out.failures.push(format!(
                            "{}: selected blocks or ratios differ from optimize() of the set-up",
                            name(item)
                        ));
                    }
                }
                results[i] = Some(got);
            }
            Err(e) => out.failures.push(e),
        }
    }
    (out, results)
}

pub fn run(args: &Args) -> RunOutput {
    let items = items();
    let optimizer = RamOptimizer::new();
    let warm_up = |expected: &[Option<Expected>]| {
        pass(&items, &optimizer, expected, (args.seed, rng::SETUP), None)
    };
    let (setups, (warm, expected)) = timed_setups(SCHEDULE.setups, || warm_up(&[]));
    let mut failures = warm.failures;
    let again = || match warm_up(&expected).0.failures.as_slice() {
        [] => Ok(()),
        failed => Err(failed.join("; ")),
    };
    let mut driven = drive(args, &SCHEDULE, again, |p, tracer| {
        pass(&items, &optimizer, &expected, (args.seed, p), tracer).0
    });
    failures.append(&mut driven.failures);
    let ratios: Vec<Ratios> = expected.iter().flatten().map(|e| e.ratios).collect();
    let end_to_end = driven.end_to_end(&setups, &ratios);
    RunOutput {
        attempted: driven.attempted + items.len() as u64,
        failures,
        end_to_end,
        traced: driven.traced,
        counts: driven.counts,
        lines: vec![
            driven.timing.line(),
            format!(
                "setup: {} warm-up passes of {} items, {:?} s",
                setups.len() + driven.setups_s.len(),
                items.len(),
                [&setups[..], &driven.setups_s].concat()
            ),
        ],
    }
}
