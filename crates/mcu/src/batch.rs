//! Batched, parallel board simulation.
//!
//! Every experiment in the reproduction — placement sweeps, opt-level
//! comparisons, figure regeneration — bottoms out in running many
//! independent [`MachineProgram`]s (or one program under many
//! configurations) on a [`Board`].  [`BatchRunner`] executes those jobs
//! across a pool of worker threads and collects the results **order-stably**:
//! the result vector lines up index-for-index with the job slice, no matter
//! how the scheduler interleaved the workers.
//!
//! Determinism is stronger than mere ordering: the interpreter accumulates
//! integer cycle counters and folds them into floating-point energy in a
//! fixed bucket order (see [`crate::energy::CycleCounters`]), and each job
//! owns its own CPU state, so a batched run returns results **bit-identical**
//! to running the same jobs one at a time on the same board.  The
//! `batch_equivalence` property tests and the `sim_perf` harness in
//! `flashram-bench` assert exactly that.
//!
//! # Example
//!
//! ```
//! use flashram_mcu::{BatchRunner, Board};
//! # use flashram_minicc::{compile_program, OptLevel, SourceUnit};
//! # let programs: Vec<_> = ["int main() { return 1; }", "int main() { return 2; }"]
//! #     .iter()
//! #     .map(|s| compile_program(&[SourceUnit::application(s)], OptLevel::O1).unwrap())
//! #     .collect();
//! let runner = BatchRunner::new(Board::stm32vldiscovery());
//! let results = runner.run_programs(&programs);
//! assert_eq!(results.len(), programs.len());
//! assert_eq!(results[1].as_ref().unwrap().return_value, 2);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use flashram_ir::MachineProgram;

use crate::board::{Board, RunConfig, RunResult};
use crate::cpu::RunError;

/// A worker-thread pool that runs simulation jobs against one [`Board`]
/// and returns results in job order.
///
/// The runner is the intended substrate for anything that simulates more
/// than a handful of programs: the BEEBS sweeps in `flashram-bench`, the
/// `fig*` binaries, and the heavy integration tests.  Construction is cheap
/// (threads are scoped per call, not kept alive), so it is fine to build one
/// ad hoc around an existing board.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    board: Board,
    threads: NonZeroUsize,
}

/// One variant's outcome from [`BatchRunner::validate_against`].
#[derive(Debug, Clone)]
pub struct Validation {
    /// Whether the variant ran to completion **and** returned the
    /// baseline's value.
    pub matches: bool,
    /// The variant's own simulation outcome (kept even on mismatch so
    /// callers can report what the variant actually did).
    pub result: Result<RunResult, RunError>,
}

impl BatchRunner {
    /// A runner over `board` using all available CPU parallelism.
    pub fn new(board: Board) -> BatchRunner {
        let threads = std::thread::available_parallelism()
            .unwrap_or_else(|_| NonZeroUsize::new(1).expect("1 is nonzero"));
        BatchRunner { board, threads }
    }

    /// A runner with an explicit worker count (use `1` to force the
    /// sequential in-thread path, e.g. in differential tests).
    pub fn with_threads(board: Board, threads: NonZeroUsize) -> BatchRunner {
        BatchRunner { board, threads }
    }

    /// The board every job runs on.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Run every program with the default [`RunConfig`].
    ///
    /// `results[i]` is exactly what `self.board().run(&programs[i])` would
    /// return — including the error cases.
    pub fn run_programs(&self, programs: &[MachineProgram]) -> Vec<Result<RunResult, RunError>> {
        self.run_programs_with_config(programs, &RunConfig::default())
    }

    /// Run every program under one shared configuration.
    pub fn run_programs_with_config(
        &self,
        programs: &[MachineProgram],
        config: &RunConfig,
    ) -> Vec<Result<RunResult, RunError>> {
        self.map(programs, |board, program| {
            board.run_with_config(program, config)
        })
    }

    /// Run one program under each of several configurations (e.g. a
    /// cycle-budget sweep).  `results[i]` corresponds to `configs[i]`.
    ///
    /// The program is decoded **once** ([`Board::decode`]) and the shared
    /// [`DecodedProgram`](crate::decode::DecodedProgram) is executed under
    /// every configuration — N configs pay for one lowering, not N.  A
    /// program that fails to decode fails every slot with the same error,
    /// exactly as N independent [`Board::run_with_config`] calls would.
    pub fn run_configs(
        &self,
        program: &MachineProgram,
        configs: &[RunConfig],
    ) -> Vec<Result<RunResult, RunError>> {
        let decoded = match self.board.decode(program) {
            Ok(decoded) => decoded,
            Err(e) => return configs.iter().map(|_| Err(e.clone())).collect(),
        };
        self.map(configs, |board, config| board.run_decoded(&decoded, config))
    }

    /// Validation fan-out: run `baseline` once, then every variant across
    /// the pool, and report for each whether it reproduced the baseline's
    /// return value.  This is the substrate the service-layer stress/soak
    /// harness uses to spot-check that optimized placements still compute
    /// the same answer as the unmodified program.
    ///
    /// `validations[i]` corresponds to `variants[i]` (order-stable, like
    /// every runner method).  A variant that fails to run is reported with
    /// `matches == false` and the error kept in
    /// [`Validation::result`].
    ///
    /// # Errors
    ///
    /// Fails only when the **baseline** itself does not run — there is
    /// nothing to validate against in that case.
    pub fn validate_against(
        &self,
        baseline: &MachineProgram,
        variants: &[MachineProgram],
    ) -> Result<(RunResult, Vec<Validation>), RunError> {
        let base = self.board.run(baseline)?;
        let validations = self
            .run_programs(variants)
            .into_iter()
            .map(|result| Validation {
                matches: result
                    .as_ref()
                    .is_ok_and(|r| r.return_value == base.return_value),
                result,
            })
            .collect();
        Ok((base, validations))
    }

    /// The generic substrate: evaluate `f(board, &jobs[i])` for every job
    /// across the worker pool and return the results in job order.
    ///
    /// Jobs are handed out through an atomic cursor, so long and short jobs
    /// mix freely without idling workers; each worker buffers its
    /// `(index, result)` pairs locally and the pairs are sorted back into
    /// job order at the end.  With one worker (or one job) everything runs
    /// inline on the calling thread — no threads are spawned and the call
    /// behaves exactly like `jobs.iter().map(...)`.
    ///
    /// Panics in `f` propagate to the caller after all workers finish.
    pub fn map<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&Board, &J) -> R + Sync,
    {
        let n = jobs.len();
        let workers = self.threads.get().min(n);
        if workers <= 1 {
            return jobs.iter().map(|j| f(&self.board, j)).collect();
        }

        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        local.push((i, f(&self.board, job)));
                    }
                    collected
                        .lock()
                        .expect("a worker panicked while holding the results lock")
                        .extend(local);
                });
            }
        });

        let mut pairs = collected
            .into_inner()
            .expect("a worker panicked while holding the results lock");
        debug_assert_eq!(pairs.len(), n, "every job must produce one result");
        pairs.sort_unstable_by_key(|(i, _)| *i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashram_minicc::{compile_program, OptLevel, SourceUnit};

    fn compile(src: &str) -> MachineProgram {
        compile_program(&[SourceUnit::application(src)], OptLevel::O1).unwrap()
    }

    fn programs() -> Vec<MachineProgram> {
        (0..8)
            .map(|i| {
                // Mix long and short jobs so the scheduler actually interleaves.
                let loops = if i % 2 == 0 { 5 } else { 2000 };
                compile(&format!(
                    "int main() {{ int s = 0; for (int j = 0; j < {loops}; j++) {{ s += j; }} return s + {i}; }}"
                ))
            })
            .collect()
    }

    #[test]
    fn batched_results_are_bit_identical_to_sequential() {
        let board = Board::stm32vldiscovery();
        let programs = programs();
        let sequential: Vec<_> = programs.iter().map(|p| board.run(p)).collect();
        for threads in [1, 2, 7] {
            let runner =
                BatchRunner::with_threads(board.clone(), NonZeroUsize::new(threads).unwrap());
            let batched = runner.run_programs(&programs);
            assert_eq!(batched.len(), sequential.len());
            for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
                let (b, s) = (b.as_ref().unwrap(), s.as_ref().unwrap());
                assert_eq!(b.return_value, s.return_value, "job {i}");
                assert_eq!(b.meter, s.meter, "job {i} meters diverge");
                assert_eq!(
                    b.energy_mj.to_bits(),
                    s.energy_mj.to_bits(),
                    "job {i} energy not bit-identical"
                );
                assert_eq!(b.profile, s.profile, "job {i}");
                assert_eq!(b.layout, s.layout, "job {i}");
            }
        }
    }

    #[test]
    fn errors_stay_in_their_slot() {
        let board = Board::stm32vldiscovery();
        let programs = vec![
            compile("int main() { return 1; }"),
            compile("int main() { while (1) { } return 0; }"),
            compile("int main() { return 3; }"),
        ];
        let runner = BatchRunner::with_threads(board, NonZeroUsize::new(3).unwrap());
        let results = runner.run_programs_with_config(&programs, &RunConfig { max_cycles: 5_000 });
        assert_eq!(results[0].as_ref().unwrap().return_value, 1);
        assert!(matches!(
            results[1],
            Err(RunError::CycleLimit { limit: 5_000, .. })
        ));
        assert_eq!(results[2].as_ref().unwrap().return_value, 3);
    }

    #[test]
    fn run_configs_sweeps_budgets_in_order() {
        let board = Board::stm32vldiscovery();
        let program = compile(
            "int main() { int s = 0; for (int i = 0; i < 1000; i++) { s += i; } return s; }",
        );
        let full = board.run(&program).unwrap();
        let configs = vec![
            RunConfig { max_cycles: 10 },
            RunConfig::default(),
            RunConfig { max_cycles: 10 },
        ];
        let runner = BatchRunner::new(board);
        let results = runner.run_configs(&program, &configs);
        assert!(matches!(
            results[0],
            Err(RunError::CycleLimit { limit: 10, .. })
        ));
        assert_eq!(
            results[1].as_ref().unwrap().cycles(),
            full.cycles(),
            "unbounded slot must match a plain run"
        );
        assert!(results[2].is_err());
    }

    #[test]
    fn run_configs_matches_independent_decoded_and_reference_runs() {
        let board = Board::stm32vldiscovery();
        // One budget slot expires mid-loop, one after it.
        let program = compile(
            "int main() { int s = 0; for (int i = 0; i < 2000; i++) { s += i; } return s; }",
        );
        let configs = vec![
            RunConfig { max_cycles: 100 },
            RunConfig::default(),
            RunConfig { max_cycles: 20_000 },
        ];
        let runner = BatchRunner::with_threads(board.clone(), NonZeroUsize::new(3).unwrap());
        let batched = runner.run_configs(&program, &configs);
        for (i, config) in configs.iter().enumerate() {
            let solos = [
                ("decoded", board.run_with_config(&program, config)),
                (
                    "reference",
                    board.run_reference_with_config(&program, config),
                ),
            ];
            for (engine, solo) in &solos {
                match (&batched[i], solo) {
                    (Ok(b), Ok(s)) => {
                        assert!(b.bits_eq(s), "{engine} slot {i} not bit-identical")
                    }
                    (Err(b), Err(s)) => {
                        assert_eq!(format!("{b:?}"), format!("{s:?}"), "{engine} slot {i}")
                    }
                    _ => panic!("{engine} slot {i}: batched and solo disagree on success"),
                }
            }
        }
    }

    #[test]
    fn map_is_order_stable_for_arbitrary_jobs() {
        let runner =
            BatchRunner::with_threads(Board::stm32vldiscovery(), NonZeroUsize::new(4).unwrap());
        let jobs: Vec<u64> = (0..100).collect();
        let out = runner.map(&jobs, |_, &j| {
            // Uneven spin to shuffle completion order.
            std::hint::black_box((0..(j % 7) * 1000).sum::<u64>());
            j * 2
        });
        assert_eq!(out, jobs.iter().map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn validate_against_flags_divergent_variants() {
        let board = Board::stm32vldiscovery();
        let baseline = compile("int main() { return 7; }");
        let variants = vec![
            compile("int main() { return 3 + 4; }"),
            compile("int main() { return 8; }"),
        ];
        let runner = BatchRunner::with_threads(board, NonZeroUsize::new(2).unwrap());
        let (base, validations) = runner.validate_against(&baseline, &variants).unwrap();
        assert_eq!(base.return_value, 7);
        assert!(validations[0].matches, "same value computed differently");
        assert!(validations[0].result.is_ok());
        assert!(!validations[1].matches, "different return value");
    }

    #[test]
    fn empty_batches_are_fine() {
        let runner = BatchRunner::new(Board::stm32vldiscovery());
        assert!(runner.run_programs(&[]).is_empty());
    }
}
