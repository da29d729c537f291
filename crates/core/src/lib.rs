//! Energy-aware flash-to-RAM basic-block placement.
//!
//! This crate implements the primary contribution of Pallister, Eder and
//! Hollis, *Optimizing the flash-RAM energy trade-off in deeply embedded
//! systems* (CGO 2015): a post-compilation optimization that statically
//! moves carefully selected basic blocks from flash into the spare RAM of a
//! deeply embedded SoC, because executing from RAM draws significantly less
//! power than executing from flash.
//!
//! The pipeline mirrors the paper:
//!
//! 1. [`params`] extracts, for every basic block, its size `S_b`, cycle
//!    count `C_b`, execution frequency `F_b` (statically estimated from loop
//!    depth or measured by profiling), instrumentation costs `K_b`/`T_b` and
//!    RAM-contention penalty `L_b`;
//! 2. [`model`] builds the Section 4 integer linear program whose objective
//!    is total energy and whose constraints bound RAM usage (`R_spare`) and
//!    execution-time growth (`X_limit`);
//! 3. the solver from `flashram-ilp` picks the optimal block set `R`;
//! 4. [`transform`] relocates those blocks to the RAM-loaded section and
//!    rewrites every flash↔RAM crossing branch into the long-range indirect
//!    forms of Figure 4;
//! 5. [`case_study`] evaluates the result in the Section 7 periodic-sensing
//!    scenario, where lower power plus longer runtime still extends battery
//!    life.
//!
//! The constraint-space exploration behind Figure 6 has a dedicated
//! subsystem: [`frontier`] builds the model once per `(program, board,
//! scope)` in a [`PlacementSession`], re-solves sweep points by moving only
//! the budget rows' right-hand sides (chaining warm-started dual-simplex
//! roots), and enumerates the exact energy/RAM Pareto staircase.
//!
//! # Example
//!
//! ```
//! use flashram_core::{RamOptimizer, OptimizerConfig};
//! use flashram_minicc::{compile_program, OptLevel, SourceUnit};
//! use flashram_mcu::Board;
//!
//! let program = compile_program(
//!     &[SourceUnit::application(
//!         "int main() { int s = 0; for (int i = 0; i < 500; i++) { s += i; } return s; }",
//!     )],
//!     OptLevel::O2,
//! )?;
//! let board = Board::stm32vldiscovery();
//! let placement = RamOptimizer::new().optimize(&program, &board).unwrap();
//! let before = board.run(&program).unwrap();
//! let after = board.run(&placement.program).unwrap();
//! assert_eq!(before.return_value, after.return_value);
//! assert!(after.avg_power_mw <= before.avg_power_mw);
//! # Ok::<(), flashram_minicc::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case_study;
pub mod frontier;
pub mod model;
pub mod optimizer;
pub mod params;
pub mod report;
pub mod transform;

pub use case_study::{measure_case_study, period_sweep, CaseStudyMeasurement};
pub use frontier::{
    device_dominant_pareto, DegradedPoint, DeviceFrontier, DeviceMatrix, DevicePoint, Frontier,
    PlacementSession, PointResolution, SweepPoint, SweepStats, ValidatedPoint,
};
pub use model::{evaluate_placement, ModelConfig, PlacementEstimate, PlacementModel};
pub use optimizer::{OptimizeError, OptimizerConfig, Placement, RamOptimizer};
pub use params::{
    extract_params, extract_params_for_timing, extract_params_scoped, BlockParams, FrequencySource,
    PlacementScope, ProgramParams,
};
pub use report::{BlockReport, FunctionReport, PlacementReport};
pub use transform::{
    apply_placement, apply_placement_scoped, instrumented_blocks, relocated_code_bytes,
};
