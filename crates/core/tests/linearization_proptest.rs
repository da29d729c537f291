//! Property test for the one-sided linearization of `z_b = r_b·i_b`: the
//! placement model keeps only the envelope rows that can bind under the
//! sign of `z_b`'s objective coefficient `c_z = F·T·(E_ram − E_flash)`.
//! On random block parameters — RAM cheaper than flash, RAM dearer than
//! flash, and zero-frequency blocks whose `c_z` is zero — the model must
//! have exactly the rows that sign calls for, the same root LP bound and the
//! same integer optimum as the full three-row envelope, and its optima must
//! be products.

use std::collections::{BTreeMap, BTreeSet};

use flashram_core::{BlockParams, ModelConfig, PlacementModel, ProgramParams};
use flashram_ilp::{
    BranchBound, Cmp, ExhaustiveSolver, LinearExpr, Problem, SimplexOutcome, SimplexSolver,
    Solution, SolveError,
};
use flashram_ir::{BlockId, BlockRef, FuncId};
use proptest::prelude::*;

/// Raw numbers of one block.
#[derive(Debug, Clone)]
struct RawBlock {
    size: u32,
    cycles: u64,
    frequency: u64,
    instr_bytes: u32,
    instr_cycles: u64,
    ram_extra: u64,
    waits: u64,
    /// Successor picks; a pick past the last block names none.
    picks: [usize; 2],
}

fn block_strategy() -> impl Strategy<Value = RawBlock> {
    (
        (1u32..64, 1u64..20, prop_oneof![Just(0u64), 1u64..1000]),
        (0u32..8, 0u64..4),
        (0u64..3, 0u64..3),
        (0usize..8, 0usize..8),
    )
        .prop_map(
            |(
                (size, cycles, frequency),
                (instr_bytes, instr_cycles),
                (ram_extra, waits),
                picks,
            )| {
                RawBlock {
                    size,
                    cycles,
                    frequency,
                    instr_bytes,
                    instr_cycles,
                    ram_extra,
                    waits,
                    picks: [picks.0, picks.1],
                }
            },
        )
}

/// A one-function program whose block `i` branches to the blocks its
/// successor picks name (self-loops included, as the model must skip
/// them).  Wait cycles are folded into `C_b`, as the extractor does.
fn params_from(raw: &[RawBlock]) -> ProgramParams {
    let n = raw.len();
    let mut blocks = BTreeMap::new();
    for (i, b) in raw.iter().enumerate() {
        let successors: BTreeSet<BlockId> = b
            .picks
            .into_iter()
            .filter(|p| *p < n)
            .map(|p| BlockId(p as u32))
            .collect();
        blocks.insert(
            block(i),
            BlockParams {
                size_bytes: b.size,
                cycles: b.cycles + b.waits,
                frequency: b.frequency,
                instr_bytes: b.instr_bytes,
                instr_cycles: b.instr_cycles,
                ram_extra_cycles: b.ram_extra,
                flash_extra_cycles: b.waits,
                successors: successors.into_iter().collect(),
                memory_ops: 0,
            },
        );
    }
    ProgramParams { blocks }
}

fn block(i: usize) -> BlockRef {
    BlockRef {
        func: FuncId(0),
        block: BlockId(i as u32),
    }
}

/// The model with the full envelope `z ≤ r`, `z ≤ i`, `z ≥ r + i − 1` for
/// every block: the one-sided model plus all three rows again (a row it
/// already has is repeated, which changes neither the LP nor the ILP).
fn full_envelope(model: &PlacementModel) -> Problem {
    let mut full = model.problem.clone();
    for v in model.vars.values() {
        full.add_constraint(
            LinearExpr::from_terms([(v.both, 1.0), (v.in_ram, -1.0)]),
            Cmp::Le,
            0.0,
        );
        full.add_constraint(
            LinearExpr::from_terms([(v.both, 1.0), (v.instrumented, -1.0)]),
            Cmp::Le,
            0.0,
        );
        full.add_constraint(
            LinearExpr::from_terms([(v.both, 1.0), (v.in_ram, -1.0), (v.instrumented, -1.0)]),
            Cmp::Ge,
            -1.0,
        );
    }
    full
}

/// Rows the one-sided model must have: two Eq. 5 rows per edge between
/// distinct candidate blocks, two envelope rows per block with `c_z < 0`,
/// one with `c_z > 0`, three with `c_z = 0`, and the two budget rows.
fn expected_rows(params: &ProgramParams, model: &PlacementModel) -> usize {
    let mut rows = 2;
    for (r, p) in &params.blocks {
        rows += 2 * p.successors.iter().filter(|s| **s != r.block).count();
        let c_z = model.problem.objective().coeff(model.vars[r].both);
        rows += if c_z < 0.0 {
            2
        } else if c_z > 0.0 {
            1
        } else {
            3
        };
    }
    rows
}

fn root_bound(problem: &Problem) -> Option<f64> {
    match SimplexSolver::new().solve_relaxation(problem, &[]) {
        SimplexOutcome::Optimal(s) => Some(s.objective),
        SimplexOutcome::Infeasible => None,
        other => panic!("root relaxation failed: {other:?}"),
    }
}

/// Whether `z_b = r_b·i_b` holds for every block whose `c_z` exceeds
/// `threshold` in magnitude.
fn is_product(model: &PlacementModel, solution: &Solution, threshold: f64) -> bool {
    model.vars.values().all(|v| {
        model.problem.objective().coeff(v.both).abs() <= threshold
            || solution.is_set(v.both)
                == (solution.is_set(v.in_ram) && solution.is_set(v.instrumented))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_sided_linearization_keeps_bounds_optima_and_products(
        raw in prop::collection::vec(block_strategy(), 1..=5),
        e_flash in 10.0f64..20.0,
        gap in 0.5f64..8.0,
        ram_dearer in any::<bool>(),
        budget_frac in 0.0f64..1.2,
        x_limit in 1.0f64..2.0,
    ) {
        let params = params_from(&raw);
        let total: u32 = raw.iter().map(|b| b.size + b.instr_bytes).sum();
        let config = ModelConfig {
            x_limit,
            r_spare: (f64::from(total) * budget_frac) as u32,
            e_flash,
            e_ram: if ram_dearer { e_flash + gap } else { e_flash - gap },
        };
        let model = PlacementModel::build(&params, &config);
        prop_assert_eq!(model.problem.num_constraints(), expected_rows(&params, &model));
        let full = full_envelope(&model);

        // The relaxations agree: the omitted rows never bind at an LP
        // optimum.
        match (root_bound(&model.problem), root_bound(&full)) {
            (Some(one), Some(three)) => prop_assert!(
                (one - three).abs() <= 1e-9 * three.abs().max(1.0),
                "root LP bounds differ: one-sided {one} vs full {three}"
            ),
            (None, None) => {}
            (one, three) => prop_assert!(false, "root LP feasibility differs: {one:?} vs {three:?}"),
        }

        // The integer optima agree, and every optimum of the one-sided
        // model is a product wherever c_z ≠ 0.
        let exact_full = ExhaustiveSolver::new().solve(&full);
        let exact_one = ExhaustiveSolver::new().solve(&model.problem);
        let bb = BranchBound::new().solve(&model.problem);
        match (exact_full, exact_one, bb) {
            (Ok(want), Ok(one), Ok(got)) => {
                prop_assert_eq!(one.objective, want.objective);
                prop_assert!(is_product(&model, &one, 0.0), "exhaustive optimum {:?} is not a product", one.values);
                // Branch-and-bound is exact within its relative pruning
                // margin, so a block whose |c_z| lies inside that margin
                // may keep a non-product value at no visible cost.
                let margin = BranchBound::new().tolerance * want.objective.abs().max(1.0);
                prop_assert!(
                    (got.objective - want.objective).abs() <= margin,
                    "branch-and-bound {} vs exhaustive {}", got.objective, want.objective
                );
                prop_assert!(is_product(&model, &got, margin), "optimum {:?} is not a product", got.values);

                // The assignment of the optimum's RAM set is feasible in the
                // one-sided model and reaches the optimum.
                let set: BTreeSet<BlockRef> = model.selected_blocks(&one).into_iter().collect();
                let assigned = model.assignment(&params, &set);
                prop_assert!(model.problem.is_feasible(&assigned.values, 1e-9));
                prop_assert!((assigned.objective - one.objective).abs() <= 1e-9 * one.objective.abs().max(1.0));
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (full, one, bb) => prop_assert!(false, "solver disagreement: {full:?} / {one:?} / {bb:?}"),
        }
    }
}
