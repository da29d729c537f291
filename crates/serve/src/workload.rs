//! The seeded synthetic workload and the stress/soak driver.
//!
//! Everything here is deterministic given the seed: the request stream is
//! generated by a per-client xorshift64* generator, so two runs with the
//! same seed submit the same queries in the same per-client order (the
//! *interleaving* across clients is the scheduler's — which is exactly
//! what the determinism design in [`crate::server`] makes harmless).
//!
//! [`run_stress`] drives a [`PlacementServer`] with N client threads,
//! measures throughput and latency percentiles, spot-checks a sample of
//! responses two ways — bit-identical re-solve through a sequential
//! [`PlacementSession`], and simulation of the transformed program against
//! the unmodified baseline via [`BatchRunner::validate_against`] — and
//! returns the numbers as a [`StressReport`] (the `stress` binary of
//! `flashram-bench` writes it to `BENCH_serve.json`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flashram_beebs::Benchmark;
use flashram_core::{
    apply_placement_scoped, OptimizerConfig, PlacementScope, PlacementSession, SweepPoint,
};
use flashram_device::DEVICE_DB;
use flashram_ir::MachineProgram;
use flashram_mcu::{BatchRunner, Board};
use flashram_minicc::OptLevel;

#[cfg(feature = "fault-injection")]
use flashram_ilp::fault::FaultPlan;

use crate::request::{Outcome, Query, Request, ServeError};
use crate::server::{PlacementServer, ServerConfig, ServerStats};

/// xorshift64* step: a small, seedable generator with good enough mixing
/// for workload shaping (not cryptography).
pub fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Shape of the synthetic request stream.
#[derive(Debug, Clone)]
pub struct WorkloadShape {
    /// Registered program names to draw from.  Drawing is biased toward
    /// the front of the list (repeat-heavy), which is what makes the
    /// cache-hit rate climb over a run.
    pub kernels: Vec<String>,
    /// Device database keys to draw from (uniform).
    pub devices: Vec<String>,
    /// RAM budget palette; most requests reuse one of these (memoizable),
    /// a few draw a fresh budget.
    pub budgets: Vec<u32>,
    /// Time-bound palette.
    pub x_limits: Vec<f64>,
    /// Per-mille of requests that are budget sweeps.
    pub sweep_per_mille: u64,
    /// Per-mille of requests that are frontier enumerations.
    pub frontier_per_mille: u64,
    /// Per-mille of requests carrying a tight deadline (exercises the
    /// timeout degradation path).  Zero keeps the stream fully
    /// deterministic — required by the equivalence checks.
    pub deadline_per_mille: u64,
    /// The tight deadline applied to that fraction.
    pub tight_deadline: Duration,
}

impl WorkloadShape {
    /// The default stress shape over the BEEBS suite and the whole device
    /// database (no deadlines; add them with
    /// [`deadline_per_mille`](WorkloadShape::deadline_per_mille)).
    pub fn beebs_default() -> WorkloadShape {
        WorkloadShape {
            kernels: Benchmark::all()
                .iter()
                .map(|b| b.name.to_string())
                .collect(),
            devices: DEVICE_DB.all().iter().map(|d| d.key.to_string()).collect(),
            budgets: vec![0, 16, 32, 64, 128, 256, 512, 1024],
            x_limits: vec![1.05, 1.1, 1.25, 1.5, 2.0],
            sweep_per_mille: 100,
            frontier_per_mille: 30,
            deadline_per_mille: 0,
            tight_deadline: Duration::from_millis(1),
        }
    }

    /// Draw the next request of a client's stream.
    pub fn next_request(&self, rng: &mut u64) -> Request {
        // Repeat-heavy kernel choice: min of two uniform draws biases
        // toward the front of the list.
        let a = xorshift64star(rng) as usize % self.kernels.len();
        let b = xorshift64star(rng) as usize % self.kernels.len();
        let kernel = &self.kernels[a.min(b)];
        let device = &self.devices[xorshift64star(rng) as usize % self.devices.len()];
        let x_limit = self.x_limits[xorshift64star(rng) as usize % self.x_limits.len()];
        let budget = |rng: &mut u64| {
            let roll = xorshift64star(rng);
            if roll.is_multiple_of(8) {
                // A fresh, non-palette budget: defeats the memo, exercises
                // real solves throughout the run.
                (roll >> 8) as u32 % 2048
            } else {
                self.budgets[roll as usize % self.budgets.len()]
            }
        };
        let kind = xorshift64star(rng) % 1000;
        let query = if kind < self.sweep_per_mille {
            let len = 2 + (xorshift64star(rng) as usize % 3);
            Query::Sweep {
                budgets: (0..len).map(|_| budget(rng)).collect(),
                x_limit,
            }
        } else if kind < self.sweep_per_mille + self.frontier_per_mille {
            Query::Frontier {
                x_limit,
                max_budget: budget(rng).max(64),
            }
        } else {
            Query::Point {
                r_spare: budget(rng),
                x_limit,
            }
        };
        let deadline = if xorshift64star(rng) % 1000 < self.deadline_per_mille {
            Some(self.tight_deadline)
        } else {
            None
        };
        Request {
            program: kernel.clone(),
            device: device.clone(),
            scope: PlacementScope::default(),
            query,
            deadline,
        }
    }
}

/// Chaos mode: run the stress workload under a seeded fault schedule
/// (`stress --chaos seed=N rate=R`).  The type is always compiled so flag
/// parsing and report plumbing don't need feature gates, but [`run_stress`]
/// panics if chaos is requested without the `fault-injection` feature —
/// the failpoints it would exercise don't exist in that build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the fault schedule (independent of the workload seed).
    pub seed: u64,
    /// Per-mille firing rate applied to every failpoint (0–1000).
    pub rate_per_mille: u16,
}

/// Fault accounting of a chaos run.  The containment invariants themselves
/// land in [`StressReport::failures`] when violated; this section records
/// what was injected and what the containment machinery did about it.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The fault schedule's seed.
    pub seed: u64,
    /// The per-failpoint firing rate, per mille.
    pub rate_per_mille: u16,
    /// Requests answered successfully despite the faults.
    pub succeeded: u64,
    /// Requests that terminated with an error (injected or otherwise).
    /// `succeeded + failed == submitted` is the zero-leak invariant.
    /// Quarantines, contained panics and watchdog restarts are in
    /// [`StressReport::server`].
    pub failed: u64,
    /// Per-failpoint `(name, times reached, times fired)`.
    pub sites: Vec<(String, u64, u64)>,
}

/// Configuration of one stress run.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Seed of the whole run (request streams and worker jitter).
    pub seed: u64,
    /// Client threads submitting concurrently.
    pub clients: usize,
    /// Requests per client (ignored when `duration` is set).
    pub requests_per_client: usize,
    /// Run for a wall-clock duration instead of a request count (soak
    /// mode); clients stop at the first submission after expiry.
    pub duration: Option<Duration>,
    /// Server configuration (`worker_jitter_seed` is overridden from
    /// `seed`).
    pub server: ServerConfig,
    /// The workload shape.
    pub shape: WorkloadShape,
    /// Optimization level the kernels are compiled at.
    pub opt_level: OptLevel,
    /// Per-client cap of responses sampled for the two validation passes.
    pub validate_per_client: usize,
    /// Run under a seeded fault schedule (requires the `fault-injection`
    /// feature).  Chaos runs additionally enable the server watchdog,
    /// tolerate [`ServeError::SolverPanicked`] responses, exclude
    /// injected-degraded answers from the bit-identity sample, and verify
    /// the cache's structural coherence at the end.
    pub chaos: Option<ChaosConfig>,
}

impl StressConfig {
    /// The short deterministic run used by CI and the non-ignored smoke
    /// test: a few hundred requests over two kernels and two devices.
    pub fn short(seed: u64) -> StressConfig {
        let mut shape = WorkloadShape::beebs_default();
        shape.kernels.truncate(3);
        shape.devices.truncate(2);
        StressConfig {
            seed,
            clients: 4,
            requests_per_client: 40,
            duration: None,
            server: ServerConfig {
                cache_capacity: 4,
                ..ServerConfig::default()
            },
            shape,
            opt_level: OptLevel::O1,
            validate_per_client: 3,
            chaos: None,
        }
    }

    /// Admissions between two points of [`StressReport::hit_rate_timeline`]:
    /// a tenth of a request-count run, every 100 admissions in a timed run.
    pub fn timeline_step(&self) -> u64 {
        match self.duration {
            Some(_) => 100,
            None => (self.clients * self.requests_per_client / 10).max(1) as u64,
        }
    }
}

/// One client's record of one answered request (for the validation
/// passes).
#[derive(Debug, Clone)]
struct Sample {
    request: Request,
    outcome: Outcome,
    points: Vec<SweepPoint>,
}

/// The measured result of a [`run_stress`] call.
#[derive(Debug, Clone, Default)]
pub struct StressReport {
    /// The seed the run was generated from.
    pub seed: u64,
    /// Client threads.
    pub clients: usize,
    /// Wall-clock span of the client phase, in seconds.
    pub wall_s: f64,
    /// Answered requests per second over that span.
    pub throughput_rps: f64,
    /// End-to-end latency percentiles (submission to response), in
    /// milliseconds.
    pub latency_p50_ms: f64,
    /// 95th percentile latency.
    pub latency_p95_ms: f64,
    /// 99th percentile latency.
    pub latency_p99_ms: f64,
    /// Median of [`Response::build_ms`](crate::Response::build_ms) over
    /// the answered requests: the session build each request's batch paid
    /// (0 when the session was already built).
    pub build_p50_ms: f64,
    /// 90th percentile of the same.
    pub build_p90_ms: f64,
    /// Fraction of admissions that found their session cached.
    pub session_hit_rate: f64,
    /// Fraction of responses answered from a memo table.
    pub memo_hit_rate: f64,
    /// Fraction of responses degraded (heuristic + timeout).
    pub degradation_rate: f64,
    /// Cumulative session-hit rate after every
    /// [`StressConfig::timeline_step`] admissions; used by the soak test's
    /// monotonicity assertion.
    pub hit_rate_timeline: Vec<f64>,
    /// The server's final counters.
    pub server: ServerStats,
    /// Responses re-solved sequentially and compared bit-for-bit.
    pub equivalence_checked: usize,
    /// Bit-identity violations found (must be zero).
    pub equivalence_failures: usize,
    /// Placements validated by simulating the transformed program.
    pub validated: usize,
    /// Simulated placements that changed the program's answer (must be
    /// zero).
    pub validation_failures: usize,
    /// Failure descriptions for the acceptance gate.
    pub failures: Vec<String>,
    /// Fault accounting when the run was a chaos run, `None` otherwise.
    pub chaos: Option<ChaosReport>,
}

/// Compile and register the shape's kernels, returning name → program.
///
/// # Panics
///
/// Panics when a shape kernel is not a BEEBS benchmark or fails to
/// compile — stress configuration errors, not runtime conditions.
pub fn register_kernels(
    server: &PlacementServer,
    shape: &WorkloadShape,
    opt: OptLevel,
) -> HashMap<String, Arc<MachineProgram>> {
    let mut programs = HashMap::new();
    for name in &shape.kernels {
        let bench = Benchmark::by_name(name).expect("workload kernels are BEEBS benchmarks");
        let program = bench.compile_cached(opt).expect("BEEBS kernels compile");
        server.register_program(name, Arc::clone(&program));
        programs.insert(name.clone(), program);
    }
    programs
}

/// Re-solve `(query)` sequentially on a fresh-or-reset session, exactly as
/// the server would: the bit-identity reference of the equivalence checks.
///
/// # Errors
///
/// Whatever the underlying solve produces (see
/// [`PlacementSession::solve_point_degraded`]).
pub fn reference_response(
    session: &mut PlacementSession,
    query: &Query,
) -> Result<(Outcome, Vec<SweepPoint>), ServeError> {
    crate::server::solve_query(session, query, None)
}

/// Build the sequential reference session for one request.
///
/// # Errors
///
/// [`ServeError::DoesNotFit`] / [`ServeError::Solver`] exactly as the
/// server's own lazy session construction.
pub fn reference_session(
    program: &MachineProgram,
    device: &str,
    scope: PlacementScope,
    max_ilp_nodes: Option<usize>,
) -> Result<PlacementSession, ServeError> {
    let desc = DEVICE_DB
        .get(device)
        .ok_or_else(|| ServeError::UnknownDevice(device.to_string()))?;
    let board = Board::new(desc);
    let config = OptimizerConfig {
        scope,
        max_ilp_nodes,
        ..OptimizerConfig::default()
    };
    PlacementSession::new(program, &board, &config).map_err(|e| match e {
        flashram_core::OptimizeError::DoesNotFit(why) => ServeError::DoesNotFit(why),
        flashram_core::OptimizeError::Solver(err) => ServeError::Solver(err),
    })
}

/// Compare a server response against the sequential reference,
/// bit-for-bit.  Returns a description of the first divergence, if any.
pub fn check_equivalence(
    expected: &(Outcome, Vec<SweepPoint>),
    outcome: Outcome,
    points: &[SweepPoint],
) -> Option<String> {
    let (ref_outcome, ref_points) = expected;
    if *ref_outcome != outcome {
        return Some(format!(
            "outcome diverged: server {} vs sequential {}",
            outcome.tag(),
            ref_outcome.tag()
        ));
    }
    if ref_points.len() != points.len() {
        return Some(format!(
            "point count diverged: server {} vs sequential {}",
            points.len(),
            ref_points.len()
        ));
    }
    for (i, (server, reference)) in points.iter().zip(ref_points).enumerate() {
        if server.objective.to_bits() != reference.objective.to_bits() {
            return Some(format!(
                "point {i}: objective not bit-identical ({} vs {})",
                server.objective, reference.objective
            ));
        }
        if server.selected != reference.selected {
            return Some(format!("point {i}: selected blocks diverged"));
        }
        if server.model_ram_used != reference.model_ram_used {
            return Some(format!("point {i}: model_ram_used diverged"));
        }
    }
    None
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Drive a server with the configured concurrent workload and measure it.
/// See the module docs for what is asserted where: this function only
/// *records* failures (in [`StressReport::failures`]); the caller decides
/// whether they are fatal.
pub fn run_stress(cfg: &StressConfig) -> StressReport {
    let server_cfg = ServerConfig {
        worker_jitter_seed: Some(cfg.seed),
        // Chaos runs always get the watchdog: the coalesce-delay failpoint
        // is exactly the wedge it exists to catch.
        watchdog: if cfg.chaos.is_some() {
            cfg.server.watchdog.or(Some(Duration::from_secs(15)))
        } else {
            cfg.server.watchdog
        },
        ..cfg.server
    };
    #[cfg(feature = "fault-injection")]
    let fault_plan = cfg
        .chaos
        .map(|chaos| FaultPlan::new(chaos.seed, chaos.rate_per_mille));
    #[cfg(feature = "fault-injection")]
    let server = match &fault_plan {
        Some(plan) => PlacementServer::with_fault_plan(server_cfg, plan.clone()),
        None => PlacementServer::new(server_cfg),
    };
    #[cfg(not(feature = "fault-injection"))]
    let server = {
        assert!(
            cfg.chaos.is_none(),
            "chaos mode requires building with --features fault-injection"
        );
        PlacementServer::new(server_cfg)
    };
    let chaos_mode = cfg.chaos.is_some();
    let programs = register_kernels(&server, &cfg.shape, cfg.opt_level);

    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let builds: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let timeline: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let timeline_step = cfg.timeline_step();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..cfg.clients {
            let server = &server;
            let latencies = &latencies;
            let builds = &builds;
            let samples = &samples;
            let errors = &errors;
            let timeline = &timeline;
            scope.spawn(move || {
                let mut rng = cfg.seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut local_latency = Vec::new();
                let mut local_build = Vec::new();
                let mut local_samples = Vec::new();
                let mut step = 0usize;
                loop {
                    match cfg.duration {
                        Some(limit) => {
                            if started.elapsed() >= limit {
                                break;
                            }
                        }
                        None => {
                            if step >= cfg.requests_per_client {
                                break;
                            }
                        }
                    }
                    step += 1;
                    let request = cfg.shape.next_request(&mut rng);
                    // Admitting and reading the counters under the
                    // timeline lock makes each timeline point the exact
                    // cumulative hit rate after a multiple of
                    // `timeline_step` admissions, whatever the clients'
                    // interleaving.
                    let (submitted, ticket) = {
                        let mut timeline = timeline.lock().expect("stress timeline lock");
                        let submitted = Instant::now();
                        let ticket = server.submit(request.clone());
                        let stats = server.stats();
                        let admissions = stats.session_hits + stats.session_misses;
                        if ticket.is_ok() && admissions % timeline_step == 0 {
                            timeline.push(stats.session_hits as f64 / admissions as f64);
                        }
                        (submitted, ticket)
                    };
                    let response = match ticket {
                        Ok(ticket) => ticket.wait(),
                        Err(e) => Err(e),
                    };
                    local_latency.push(submitted.elapsed().as_secs_f64() * 1e3);
                    match response {
                        Ok(response) => {
                            local_build.push(response.build_ms);
                            // Injected-degraded answers are excluded from
                            // the bit-identity sample: they are not the
                            // pure function of the request the fault-free
                            // oracle computes.
                            if local_samples.len() < cfg.validate_per_client
                                && request.deadline.is_none()
                                && !response.injected
                            {
                                local_samples.push(Sample {
                                    request,
                                    outcome: response.outcome,
                                    points: response.points,
                                });
                            }
                        }
                        Err(ServeError::Solver(_)) | Err(ServeError::DoesNotFit(_)) => {
                            // Infeasible bounds and oversized programs are
                            // legitimate answers for synthetic queries.
                        }
                        Err(ServeError::SolverPanicked { .. }) if chaos_mode => {
                            // A contained injected panic (or watchdog kill)
                            // is the expected terminal outcome for the jobs
                            // it hit; the invariants assert it stayed
                            // contained, not that it never happened.
                        }
                        Err(e) => {
                            errors
                                .lock()
                                .expect("stress error lock")
                                .push(format!("client {client}: {e}"));
                        }
                    }
                }
                latencies
                    .lock()
                    .expect("stress latency lock")
                    .extend(local_latency);
                builds
                    .lock()
                    .expect("stress build-time lock")
                    .extend(local_build);
                samples
                    .lock()
                    .expect("stress sample lock")
                    .extend(local_samples);
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();

    // Cache coherence after quarantines / forced evictions, checked while
    // the server is still alive.
    let cache_check = server.verify_cache();
    let stats = server.shutdown();
    let mut failures: Vec<String> = errors.into_inner().expect("stress error lock").clone();
    if stats.completed != stats.submitted {
        failures.push(format!(
            "queue leak: {} submitted but only {} completed",
            stats.submitted, stats.completed
        ));
    }
    if let Err(why) = cache_check {
        failures.push(format!("cache incoherent after the run: {why}"));
    }
    if stats.draining {
        failures.push("the server fell into the terminal draining state".to_string());
    }
    if !chaos_mode && stats.worker_panics > 0 {
        failures.push(format!(
            "{} worker panic(s) outside chaos mode",
            stats.worker_panics
        ));
    }

    // Equivalence pass: re-solve every sample sequentially, bit-for-bit.
    let samples = samples.into_inner().expect("stress sample lock");
    let mut sessions: HashMap<(String, String), PlacementSession> = HashMap::new();
    let mut equivalence_failures = 0usize;
    for sample in &samples {
        let program = &programs[&sample.request.program];
        let session_key = (
            sample.request.program.clone(),
            sample.request.device.clone(),
        );
        let entry = match sessions.entry(session_key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                match reference_session(
                    program,
                    &sample.request.device,
                    sample.request.scope,
                    cfg.server.max_ilp_nodes,
                ) {
                    Ok(session) => v.insert(session),
                    Err(e) => {
                        equivalence_failures += 1;
                        failures.push(format!("reference session failed: {e}"));
                        continue;
                    }
                }
            }
        };
        match reference_response(entry, &sample.request.query) {
            Ok(expected) => {
                if let Some(diff) = check_equivalence(&expected, sample.outcome, &sample.points) {
                    equivalence_failures += 1;
                    failures.push(format!(
                        "equivalence: {} on {}: {diff}",
                        sample.request.program, sample.request.device
                    ));
                }
            }
            Err(e) => {
                equivalence_failures += 1;
                failures.push(format!("reference solve failed: {e}"));
            }
        }
    }

    // Validation fan-out: simulate each sampled placement against the
    // unmodified baseline on its own device.
    let mut validated = 0usize;
    let mut validation_failures = 0usize;
    let mut by_device: HashMap<String, Vec<&Sample>> = HashMap::new();
    for sample in &samples {
        by_device
            .entry(sample.request.device.clone())
            .or_default()
            .push(sample);
    }
    for (device, device_samples) in &by_device {
        let desc = DEVICE_DB.get(device).expect("sampled devices exist");
        let runner = BatchRunner::new(Board::new(desc));
        // Group by program so each baseline is simulated once.
        let mut by_program: HashMap<String, Vec<&Sample>> = HashMap::new();
        for sample in device_samples {
            by_program
                .entry(sample.request.program.clone())
                .or_default()
                .push(sample);
        }
        for (name, program_samples) in by_program {
            let baseline = &programs[&name];
            let variants: Vec<MachineProgram> = program_samples
                .iter()
                .flat_map(|s| {
                    s.points
                        .iter()
                        .map(|p| apply_placement_scoped(baseline, &p.selected, s.request.scope))
                })
                .collect();
            match runner.validate_against(baseline, &variants) {
                Ok((_, validations)) => {
                    validated += validations.len();
                    for v in validations {
                        if !v.matches {
                            validation_failures += 1;
                            failures.push(format!(
                                "validation: a placement of {name} on {device} changed the answer"
                            ));
                        }
                    }
                }
                Err(e) => {
                    validation_failures += 1;
                    failures.push(format!("baseline {name} failed to run on {device}: {e}"));
                }
            }
        }
    }

    let sorted_ms = |times: Mutex<Vec<f64>>| {
        let mut times = times.into_inner().expect("stress timing lock");
        times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        times
    };
    let sorted = sorted_ms(latencies);
    let builds = sorted_ms(builds);
    let admissions = stats.session_hits + stats.session_misses;
    let answered = stats.completed;
    #[cfg(feature = "fault-injection")]
    let chaos = fault_plan
        .as_ref()
        .zip(cfg.chaos)
        .map(|(plan, chaos)| ChaosReport {
            seed: chaos.seed,
            rate_per_mille: chaos.rate_per_mille,
            succeeded: stats.completed - stats.errors,
            failed: stats.errors,
            sites: plan
                .snapshot()
                .iter()
                .map(|s| (s.site.name().to_string(), s.hits, s.fired))
                .collect(),
        });
    #[cfg(not(feature = "fault-injection"))]
    let chaos: Option<ChaosReport> = None;
    StressReport {
        seed: cfg.seed,
        clients: cfg.clients,
        wall_s,
        throughput_rps: if wall_s > 0.0 {
            answered as f64 / wall_s
        } else {
            0.0
        },
        latency_p50_ms: percentile(&sorted, 0.50),
        latency_p95_ms: percentile(&sorted, 0.95),
        latency_p99_ms: percentile(&sorted, 0.99),
        build_p50_ms: percentile(&builds, 0.50),
        build_p90_ms: percentile(&builds, 0.90),
        session_hit_rate: if admissions > 0 {
            stats.session_hits as f64 / admissions as f64
        } else {
            0.0
        },
        memo_hit_rate: if answered > 0 {
            stats.memo_hits as f64 / answered as f64
        } else {
            0.0
        },
        degradation_rate: if answered > 0 {
            (stats.heuristic + stats.timeout) as f64 / answered as f64
        } else {
            0.0
        },
        hit_rate_timeline: timeline.into_inner().expect("stress timeline lock"),
        server: stats,
        equivalence_checked: samples.len(),
        equivalence_failures,
        validated,
        validation_failures,
        failures,
        chaos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_stream_is_deterministic_per_seed() {
        let shape = WorkloadShape::beebs_default();
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..50 {
            let ra = shape.next_request(&mut a);
            let rb = shape.next_request(&mut b);
            assert_eq!(ra.program, rb.program);
            assert_eq!(ra.device, rb.device);
            assert_eq!(ra.query, rb.query);
        }
        let mut c = 43u64;
        let differs = (0..50).any(|_| {
            let ra = shape.next_request(&mut a);
            let rc = shape.next_request(&mut c);
            ra.program != rc.program || ra.query != rc.query
        });
        assert!(differs, "different seeds produce different streams");
    }

    #[test]
    fn percentiles_pick_the_expected_ranks() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 51.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
