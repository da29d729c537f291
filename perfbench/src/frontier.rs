//! `frontier_tight`: design-space exploration.  Every item opens a
//! placement session and enumerates the exact energy/RAM staircase under a
//! tight 128-byte budget, where branch-and-bound does real work.

use std::time::Instant;

use flashram_beebs::Benchmark;
use flashram_core::{
    apply_placement_scoped, extract_params_for_timing, Frontier, OptimizerConfig, PlacementSession,
    RamOptimizer,
};
use flashram_device::DEVICE_DB;
use flashram_ir::{BlockRef, MachineProgram};
use flashram_mcu::{Board, RunResult};
use flashram_minicc::OptLevel;

use crate::report::{Counts, Ratios};
use crate::trace::Tracer;
use crate::{drive, rng, timed_setups, Args, Pass, RunOutput, Schedule};

/// Three set-ups before the timed phase and after every pass.
const SCHEDULE: Schedule = Schedule {
    equal_work: true,
    setups: 3,
    setup_every: Some(1),
};

/// The repository's tight-budget probe, in bytes.
const TIGHT_BUDGET: u32 = 128;

/// The time bounds of the staircases.  One bound keeps a pass near 6 s,
/// so that a 30-second run times every staircase five or six times; with
/// both 1.1 and 1.5 a pass took 12–16 s, and the two or three timings of
/// each staircase could not get round the host's contention.
const X_LIMITS: [f64; 1] = [1.5];

/// A kernel on a device.
struct Target {
    /// Index of the kernel in `Benchmark::all()` and in the compiled programs.
    kernel: usize,
    bench: Benchmark,
    board: Board,
}

struct Item {
    target: usize,
    x_limit: f64,
}

/// A staircase, step by step: (objective bits, RAM used, blocks).
type Steps = Vec<(u64, u32, Vec<BlockRef>)>;

fn targets() -> Vec<Target> {
    let mut targets = Vec::new();
    for (kernel, bench) in Benchmark::all().into_iter().enumerate() {
        for desc in DEVICE_DB.all() {
            targets.push(Target {
                kernel,
                bench,
                board: Board::new(desc),
            });
        }
    }
    targets
}

fn items(targets: &[Target]) -> Vec<Item> {
    (0..targets.len())
        .flat_map(|target| X_LIMITS.map(|x_limit| Item { target, x_limit }))
        .collect()
}

/// The set-up's products: the compiled kernels and the baseline run of
/// every target, which the top-step check compares against.
struct Prepared {
    programs: Vec<MachineProgram>,
    baselines: Vec<RunResult>,
}

/// The set-up: compile every kernel, open every session once and simulate
/// every baseline.
fn setup(targets: &[Target], config: &OptimizerConfig) -> Result<Prepared, String> {
    let mut programs = Vec::new();
    for bench in Benchmark::all() {
        programs.push(
            bench
                .compile(OptLevel::O2)
                .map_err(|e| format!("{}: compile failed: {e}", bench.name))?,
        );
    }
    let mut baselines = Vec::new();
    for target in targets {
        let program = &programs[target.kernel];
        PlacementSession::new(program, &target.board, config)
            .map_err(|e| format!("{}: session failed: {e}", target.bench.name))?;
        baselines.push(
            target
                .board
                .run(program)
                .map_err(|e| format!("{}: simulation failed: {e}", target.bench.name))?,
        );
    }
    Ok(Prepared {
        programs,
        baselines,
    })
}

fn name(target: &Target, item: &Item) -> String {
    format!("{}@x{}", target.bench.name, item.x_limit)
}

/// Strictly decreasing energy, strictly increasing RAM, proven exact.
fn check_staircase(frontier: &Frontier) -> Result<(), String> {
    if !frontier.exact {
        return Err("staircase is not exact".to_string());
    }
    if frontier.points.is_empty() {
        return Err("staircase is empty".to_string());
    }
    for pair in frontier.points.windows(2) {
        if !(pair[1].objective < pair[0].objective
            && pair[1].model_ram_used > pair[0].model_ram_used)
        {
            return Err(format!(
                "staircase not strictly monotone at {} B",
                pair[1].model_ram_used
            ));
        }
    }
    Ok(())
}

fn steps(frontier: &Frontier) -> Steps {
    frontier
        .points
        .iter()
        .map(|p| (p.objective.to_bits(), p.model_ram_used, p.selected.clone()))
        .collect()
}

fn enumerate(
    program: &MachineProgram,
    target: &Target,
    item: &Item,
    config: &OptimizerConfig,
    counts: &mut Counts,
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<Steps, String> {
    let board = &target.board;
    let (session, frontier) = match tracer {
        None => {
            let mut session =
                PlacementSession::new(program, board, config).map_err(|e| e.to_string())?;
            let frontier = session.enumerate_frontier(item.x_limit, TIGHT_BUDGET);
            (session, frontier)
        }
        Some((tracer, id)) => {
            // `PlacementSession::new`, stage by stage.
            let root = tracer.begin("item", id, None);
            let spare = tracer
                .span("mcu.spare_ram", root, || board.spare_ram(program))
                .map_err(|e| e.to_string())?;
            let params = tracer.span("core.params.extract", root, || {
                extract_params_for_timing(program, &config.frequency, config.scope, &board.timing)
            });
            let model_config =
                RamOptimizer::with_config(config.clone()).model_config_for(board, spare);
            let mut session = tracer.span("core.model.build", root, || {
                PlacementSession::from_params(params, &model_config)
            });
            let frontier = tracer.span("ilp.enumerate_frontier", root, || {
                session.enumerate_frontier(item.x_limit, TIGHT_BUDGET)
            });
            tracer.end(root);
            (session, frontier)
        }
    };
    let frontier = frontier.map_err(|e| e.to_string())?;
    check_staircase(&frontier)?;
    let sweep = session.stats();
    counts.ilp_solves += sweep.points_solved as u64;
    counts.nodes += sweep.nodes_explored as u64;
    counts.lp_pivots += sweep.lp_pivots as u64;
    counts.root_pivots += sweep.root_pivots as u64;
    counts.chained_roots += sweep.chained_roots as u64;
    for point in &frontier.points {
        counts.add_pivot_mix(&point.stats);
    }
    counts.frontier_steps += frontier.points.len() as u64;
    counts.dropped_dominated += frontier.dropped_dominated as u64;
    counts.params_blocks += session.params().blocks.len() as u64;
    counts.model_vars += session.model().problem.num_vars() as u64;
    counts.model_rows += session.model().problem.num_constraints() as u64;
    Ok(steps(&frontier))
}

/// Simulate the top step of every staircase against its baseline: the
/// optimized program must return the baseline's value.
fn validate_tops(
    targets: &[Target],
    items: &[Item],
    prepared: &Prepared,
    expected: &[Option<Steps>],
    config: &OptimizerConfig,
    failures: &mut Vec<String>,
) -> Vec<Ratios> {
    let mut ratios = Vec::new();
    for (item, steps) in items.iter().zip(expected) {
        let target = &targets[item.target];
        let Some((_, _, top)) = steps.as_ref().and_then(|s| s.last()) else {
            continue;
        };
        let base = &prepared.baselines[item.target];
        let optimized =
            apply_placement_scoped(&prepared.programs[target.kernel], top, config.scope);
        match target.board.run(&optimized) {
            Ok(opt) if opt.return_value == base.return_value => {
                ratios.push(Ratios::of(base, &opt));
            }
            Ok(_) => failures.push(format!(
                "{}: top step changes the program's result",
                name(target, item)
            )),
            Err(e) => failures.push(format!("{}: simulation failed: {e}", name(target, item))),
        }
    }
    ratios
}

pub fn run(args: &Args) -> RunOutput {
    let targets = targets();
    let items = items(&targets);
    let config = OptimizerConfig::default();
    let (setups, prepared) = timed_setups(SCHEDULE.setups, || setup(&targets, &config));
    let prepared = match prepared {
        Ok(prepared) => prepared,
        Err(e) => {
            return RunOutput {
                attempted: 1,
                failures: vec![e],
                ..RunOutput::default()
            }
        }
    };
    let mut expected: Vec<Option<Steps>> = vec![None; items.len()];
    let again = || setup(&targets, &config);
    let mut driven = drive(args, &SCHEDULE, again, |p, mut tracer| {
        let mut out = Pass {
            latencies_ms: vec![0.0; items.len()],
            ..Pass::default()
        };
        for (n, &i) in rng::shuffled(items.len(), rng::derive(args.seed, p))
            .iter()
            .enumerate()
        {
            let item = &items[i];
            let target = &targets[item.target];
            let program = &prepared.programs[target.kernel];
            let id = p * items.len() as u64 + n as u64;
            let t0 = Instant::now();
            let got = enumerate(
                program,
                target,
                item,
                &config,
                &mut out.counts,
                tracer.as_deref_mut().map(|t| (t, id)),
            );
            out.latencies_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
            out.counts.items += 1;
            match (got, &expected[i]) {
                (Err(e), _) => out.failures.push(format!("{}: {e}", name(target, item))),
                (Ok(got), Some(want)) if got != *want => out.failures.push(format!(
                    "{}: staircase differs between passes",
                    name(target, item)
                )),
                (Ok(got), _) => expected[i] = Some(got),
            }
        }
        out
    });
    let mut failures = std::mem::take(&mut driven.failures);
    let ratios = validate_tops(
        &targets,
        &items,
        &prepared,
        &expected,
        &config,
        &mut failures,
    );
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
                "setup: compile {} kernels, open and simulate {} targets, {} times: {:?} s",
                prepared.programs.len(),
                targets.len(),
                setups.len() + driven.setups_s.len(),
                [&setups[..], &driven.setups_s].concat()
            ),
        ],
    }
}
