//! Property tests for the frontier sweep engine on randomly generated
//! placement parameters: the enumerated frontier must be a strict Pareto
//! staircase, every step must match brute force over all block subsets,
//! grid sweeps must be monotone in the relaxed budget, and warm-started
//! chained solves must agree with cold per-point solves.

use std::collections::{BTreeMap, BTreeSet};

use flashram_core::{frontier::PlacementSession, BlockParams, ModelConfig, ProgramParams};
use flashram_ir::{BlockId, BlockRef, FuncId};
use flashram_mcu::Board;
use proptest::prelude::*;

/// Build a one-function `ProgramParams` from per-block raw numbers.  The
/// successor structure is a chain with a back edge from the last block to
/// the first, which exercises the Eq. 5 instrumentation coupling.
fn params_from(raw: &[(u32, u64, u64, u32, u64, u64)]) -> ProgramParams {
    params_with_wait_states(raw, &[])
}

/// Like [`params_from`], but block `i` additionally carries the flash
/// wait-state overhead `waits[i]` (folded into `C_b`, as the extractor
/// does), so RAM moves can have negative cycle deltas.
fn params_with_wait_states(raw: &[(u32, u64, u64, u32, u64, u64)], waits: &[u64]) -> ProgramParams {
    let n = raw.len() as u32;
    let mut blocks = BTreeMap::new();
    for (i, &(size_bytes, cycles, frequency, instr_bytes, instr_cycles, ram_extra)) in
        raw.iter().enumerate()
    {
        let flash_extra = waits.get(i).copied().unwrap_or(0);
        let i = i as u32;
        let mut successors = Vec::new();
        if i + 1 < n {
            successors.push(BlockId(i + 1));
        } else if n > 1 {
            successors.push(BlockId(0));
        }
        blocks.insert(
            BlockRef {
                func: FuncId(0),
                block: BlockId(i),
            },
            BlockParams {
                size_bytes,
                cycles: cycles + flash_extra,
                frequency,
                instr_bytes,
                instr_cycles,
                ram_extra_cycles: ram_extra,
                flash_extra_cycles: flash_extra,
                successors,
                memory_ops: 0,
            },
        );
    }
    ProgramParams { blocks }
}

fn block_strategy() -> impl Strategy<Value = (u32, u64, u64, u32, u64, u64)> {
    (
        2u32..80,   // S_b
        1u64..60,   // C_b
        1u64..2000, // F_b
        0u32..10,   // K_b
        0u64..8,    // T_b
        0u64..5,    // L_b
    )
}

fn config() -> ModelConfig {
    ModelConfig {
        x_limit: 4.0,
        r_spare: 512,
        ..ModelConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Relaxing the RAM budget never hurts the model energy, and the exact
    /// frontier is a strict staircase covering the grid sweep.
    #[test]
    fn frontier_is_monotone_and_covers_grid_sweeps(
        raw in proptest::collection::vec(block_strategy(), 2..9),
    ) {
        let params = params_from(&raw);
        let total_bytes: u32 = params.blocks.values().map(|p| p.size_bytes).sum();
        let max_budget = total_bytes + 64;

        let mut session = PlacementSession::from_params(params, &config());
        let frontier = session.enumerate_frontier(4.0, max_budget).expect("enumerable");
        prop_assert!(frontier.exact);
        prop_assert!(!frontier.points.is_empty());
        prop_assert_eq!(frontier.points[0].model_ram_used, 0);
        // Strict staircase: RAM increases, energy decreases.
        for w in frontier.points.windows(2) {
            prop_assert!(w[0].model_ram_used < w[1].model_ram_used);
            prop_assert!(w[0].objective > w[1].objective);
        }

        // A chained ascending grid sweep is monotone: energy non-increasing
        // and model RAM use non-decreasing in objective terms as the budget
        // relaxes, and each grid point matches its staircase step.
        let budgets: Vec<u32> = (0..=8).map(|i| i * max_budget / 8).collect();
        let mut prev_energy = f64::INFINITY;
        for (b, point) in session.sweep_ram(&budgets, 4.0) {
            let point = point.expect("feasible");
            prop_assert!(
                point.objective <= prev_energy + 1e-9 * prev_energy.abs().max(1.0),
                "budget {} worsened the energy: {} after {}",
                b,
                point.objective,
                prev_energy
            );
            prev_energy = point.objective;
            let step = frontier
                .points
                .iter()
                .rev()
                .find(|p| p.model_ram_used <= b)
                .expect("staircase starts at zero");
            prop_assert!(
                (point.objective - step.objective).abs()
                    <= 1e-6 * step.objective.abs().max(1.0),
                "budget {}: grid {} vs staircase {}",
                b,
                point.objective,
                step.objective
            );
        }
    }

    /// Every step of a staircase — each solved from the repaired previous
    /// step as its seed — is the brute-force optimum over all block subsets
    /// at the step's budget, and no subset reaches that objective with less
    /// RAM.  Subsets are completed and scored by the model itself
    /// (`PlacementModel::assignment`, the same builder the seed repair
    /// uses), on zero-wait and wait-state parameters and under loose and
    /// tight time bounds.
    #[test]
    fn staircase_steps_match_brute_force(
        raw in proptest::collection::vec(block_strategy(), 2..9),
        waits in proptest::collection::vec(0u64..12, 8),
        zero_wait in any::<bool>(),
        x_limit in prop_oneof![Just(1.05), Just(1.5), Just(4.0)],
    ) {
        let waits = if zero_wait { Vec::new() } else { waits };
        let params = params_with_wait_states(&raw, &waits);
        let refs = params.block_refs();
        let total_bytes: u32 = params.blocks.values().map(|p| p.size_bytes).sum();
        let mut session = PlacementSession::from_params(params.clone(), &config());
        let frontier = session
            .enumerate_frontier(x_limit, total_bytes + 64)
            .expect("enumerable");
        prop_assert!(frontier.exact);
        let mut model = session.model().clone();
        for step in &frontier.points {
            model.set_budgets(step.r_spare, x_limit);
            let tie = 1e-6 * step.objective.abs().max(1.0);
            let mut best = f64::INFINITY;
            for mask in 0u32..1 << refs.len() {
                let set: BTreeSet<BlockRef> = refs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, r)| *r)
                    .collect();
                let assignment = model.assignment(&params, &set);
                if !model.problem.is_feasible(&assignment.values, 1e-6) {
                    continue;
                }
                best = best.min(assignment.objective);
                let ram = model.ram_used(&assignment).round() as u32;
                prop_assert!(
                    !(ram < step.model_ram_used && assignment.objective <= step.objective + tie),
                    "budget {}: {:?} reaches {} with {} B, the step needs {} B",
                    step.r_spare,
                    set,
                    assignment.objective,
                    ram,
                    step.model_ram_used
                );
            }
            prop_assert!(
                (step.objective - best).abs() <= tie,
                "budget {}: step {} vs brute force {}",
                step.r_spare,
                step.objective,
                best
            );
        }
    }

    /// Per-device frontiers are strict Pareto staircases for every entry of
    /// the device database, including wait-state parts whose blocks carry a
    /// flash overhead `W_b` (so RAM moves can shed cycles, not just gain
    /// contention): random parameters, random per-block wait-state
    /// overheads, each device's own energy coefficients.
    #[test]
    fn per_device_frontiers_are_strict_staircases(
        raw in proptest::collection::vec(block_strategy(), 2..8),
        waits in proptest::collection::vec(0u64..12, 8),
        device_index in 0usize..3,
    ) {
        let desc = flashram_device::DEVICE_DB.all()[device_index];
        let params = params_with_wait_states(&raw, &waits);
        let total_bytes: u32 = params.blocks.values().map(|p| p.size_bytes).sum();
        let max_budget = total_bytes + 64;
        let (e_flash, e_ram) = Board::new(desc).power.model_coefficients();
        let device_config = ModelConfig { e_flash, e_ram, ..config() };

        let mut session = PlacementSession::from_params(params, &device_config);
        let frontier = session.enumerate_frontier(4.0, max_budget).expect("enumerable");
        prop_assert!(frontier.exact, "{}: truncated solve", desc.key);
        prop_assert!(!frontier.points.is_empty());
        prop_assert_eq!(frontier.points[0].model_ram_used, 0);
        for w in frontier.points.windows(2) {
            prop_assert!(
                w[0].model_ram_used < w[1].model_ram_used,
                "{}: RAM must strictly increase", desc.key
            );
            prop_assert!(
                w[0].objective > w[1].objective,
                "{}: energy must strictly decrease", desc.key
            );
        }
    }

    /// Chained warm-started sweeps are objective-identical to cold
    /// per-point solves, in both sweep directions and along both axes.
    #[test]
    fn chained_sweeps_match_cold_solves(
        raw in proptest::collection::vec(block_strategy(), 2..8),
        ascending in any::<bool>(),
    ) {
        let params = params_from(&raw);
        let total_bytes: u32 = params.blocks.values().map(|p| p.size_bytes).sum();
        let mut budgets: Vec<u32> =
            vec![0, total_bytes / 4, total_bytes / 2, total_bytes + 32];
        if !ascending {
            budgets.reverse();
        }
        let x_limits = [1.0, 1.1, 1.6, 3.0];

        let mut warm = PlacementSession::from_params(params.clone(), &config());
        let mut points: Vec<(u32, f64)> =
            budgets.iter().map(|&b| (b, 2.0)).collect();
        points.extend(x_limits.iter().map(|&x| (total_bytes, x)));

        for (r_spare, x_limit) in points {
            let w = warm.solve_point(r_spare, x_limit).expect("feasible");
            let mut cold = PlacementSession::from_params(params.clone(), &config());
            cold.solver.warm_start = false;
            let c = cold.solve_point(r_spare, x_limit).expect("feasible");
            prop_assert!(
                (w.objective - c.objective).abs() <= 1e-6 * c.objective.abs().max(1.0),
                "({}, {}): warm {} vs cold {}",
                r_spare,
                x_limit,
                w.objective,
                c.objective
            );
        }
    }
}
