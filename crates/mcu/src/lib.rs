//! A Cortex-M3-class microcontroller simulator with an energy model.
//!
//! This crate replaces the paper's physical measurement setup (a
//! power-instrumented STM32VLDISCOVERY board) with a simulated substrate
//! that models exactly the effects the flash/RAM placement optimization
//! exploits and pays for:
//!
//! * both flash and RAM are single-cycle memories, so moving code to RAM is
//!   never faster — only the instrumentation overhead and bus contention
//!   change execution time,
//! * executing from RAM draws noticeably less power than executing from
//!   flash (Figure 1 of the paper; the [`power`] module holds the calibrated
//!   constants),
//! * a load executed from RAM that also reads RAM contends with instruction
//!   fetch and stalls for an extra cycle (the model's `L_b` term),
//! * the core can sleep at a quiescent power of 3.5 mW between activations,
//!   which is what makes the Section 7 periodic-sensing case study work.
//!
//! The [`Board`] type ties the pieces together: it lays out a
//! [`MachineProgram`](flashram_ir::MachineProgram)'s data in the address
//! space, interprets its code cycle by cycle, and reports time, energy,
//! average power and a per-block execution profile.  Two execution engines
//! share those semantics: the IR-walking reference interpreter
//! ([`cpu::Cpu`], reachable via
//! [`Board::run_reference`](board::Board::run_reference)), which is the
//! semantics oracle; and the decoded engine ([`decode::DecodedProgram`])
//! that [`Board::run`](board::Board::run) drives — a one-time lowering pass
//! that flattens blocks into compact ops, resolves literal symbols,
//! validates all cross-references, and sums statically known cycle charges
//! per chunk, so a run only counts chunk entries.  The decoded engine is
//! held bit-identical to the reference interpreter — same energy bits, same
//! profile, same errors at every cycle budget.  [`BatchRunner`] scales them
//! up: it fans a set of programs (or configurations) out over a worker pool
//! and collects results that are order-stable and bit-identical to
//! sequential runs — the substrate for every sweep in `flashram-bench` and
//! the heavy integration tests.
//!
//! This crate corresponds to Sections 3 (measurement setup), 5 (power
//! model) and 7 (sleep scenario) of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod board;
pub mod cpu;
pub mod decode;
pub mod energy;
pub mod mem;
pub mod power;

pub use batch::BatchRunner;
pub use board::{Board, RunConfig, RunResult, SleepScenario};
pub use cpu::RunError;
pub use decode::{DecodeError, DecodedProgram};
pub use energy::{CycleCounters, EnergyMeter};
pub use mem::{DataLayout, Memory, MemoryMap};
pub use power::PowerModel;
