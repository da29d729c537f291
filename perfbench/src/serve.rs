//! `serve_mix`: the placement service under a closed loop of client
//! threads, each sending its next request when the previous one is
//! answered.  A pass is a fixed multiset of requests drawn from the
//! service's default request stream; the run's seed sets their order and
//! which client sends each.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use flashram_beebs::Benchmark;
use flashram_core::{apply_placement_scoped, PlacementScope, PlacementSession, SweepPoint};
use flashram_device::DEVICE_DB;
use flashram_ir::MachineProgram;
use flashram_mcu::Board;
use flashram_minicc::OptLevel;
use flashram_serve::workload::{check_equivalence, reference_response, reference_session};
use flashram_serve::{
    Outcome, PlacementServer, Query, Request, Response, ServeError, ServerConfig, ServerStats,
    WorkloadShape,
};

use crate::report::{Counts, Ratios, ServeLayer};
use crate::trace::Tracer;
use crate::{drive, rng, timed_setups, Args, Pass, RunOutput, Schedule};

/// Client threads of the closed loop.
const CLIENTS: usize = 2;

/// Requests per client in one pass.
const PER_CLIENT: usize = 150;

/// Seed of the fixed request multiset every pass replays.
const STREAM_SEED: u64 = 20150207;

/// RAM budget of the warm-up requests: the shape's tight palette entry.
const WARMUP_BUDGET: u32 = 128;

/// Seven set-ups, all before the timed phase.  A set-up starts a server
/// of its own: one made between passes would add its sessions to the
/// timed server's, and the peak resident set with them.
const SCHEDULE: Schedule = Schedule {
    equal_work: false,
    setups: 7,
    setup_every: None,
};

/// Answers re-solved by the sequential oracle after the timed phase.
const ORACLE_SAMPLES: usize = 32;

/// Time bound of the ratio probes.
const PROBE_X_LIMIT: f64 = 1.5;

type Programs = HashMap<String, Arc<MachineProgram>>;

/// The fixed request multiset: each client's stream from the service's
/// default shape, seeded as the service's own `run_stress` seeds it.
fn stream(shape: &WorkloadShape) -> Vec<Request> {
    (0..CLIENTS)
        .flat_map(|client| {
            let mut state = STREAM_SEED ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (0..PER_CLIENT)
                .map(|_| shape.next_request(&mut state))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// One answered request.
struct Answer {
    index: usize,
    latency_ms: f64,
    response: Result<Response, ServeError>,
}

/// Send `order` through the server from [`CLIENTS`] closed-loop clients;
/// client `c` sends every `CLIENTS`-th request starting at `c`.
fn closed_loop(
    server: &PlacementServer,
    requests: &[Request],
    order: &[usize],
    tracer: Option<&mut Tracer>,
    first_id: u64,
) -> Vec<Answer> {
    let template = tracer.as_deref().map(Tracer::sibling);
    let per_client: Vec<(Vec<Answer>, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let mut local = template.clone();
                scope.spawn(move || {
                    let mut answers = Vec::new();
                    for (n, &index) in order.iter().enumerate().skip(client).step_by(CLIENTS) {
                        let root = local
                            .as_mut()
                            .map(|t| t.begin("item", first_id + n as u64, None));
                        let t0 = Instant::now();
                        let ticket = match (&mut local, root) {
                            (Some(t), Some(root)) => t.span("serve.submit", root, || {
                                server.submit(requests[index].clone())
                            }),
                            _ => server.submit(requests[index].clone()),
                        };
                        let response = match (ticket, &mut local, root) {
                            (Ok(ticket), Some(t), Some(root)) => {
                                t.span("serve.wait", root, || ticket.wait())
                            }
                            (Ok(ticket), _, _) => ticket.wait(),
                            (Err(e), _, _) => Err(e),
                        };
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        if let (Some(t), Some(root)) = (&mut local, root) {
                            t.end(root);
                        }
                        answers.push(Answer {
                            index,
                            latency_ms,
                            response,
                        });
                    }
                    (answers, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut all = Vec::new();
    let mut tracer = tracer;
    for (answers, local) in per_client {
        all.extend(answers);
        if let (Some(t), Some(local)) = (tracer.as_deref_mut(), local) {
            t.absorb(local);
        }
    }
    all
}

/// The warm-up burst: one tight point request per kernel and device, so
/// every set-up does the same work whatever the seed.
fn warmup_burst(shape: &WorkloadShape) -> Vec<Request> {
    let mut burst = Vec::new();
    for kernel in &shape.kernels {
        for device in &shape.devices {
            burst.push(Request::point(kernel, device, WARMUP_BUDGET, PROBE_X_LIMIT));
        }
    }
    burst
}

/// Compile and register every kernel, start the server and send the
/// warm-up burst.  The burst goes one request at a time, so its duration
/// is the sum of its requests' costs, whatever their order: sent from two
/// clients, it took as long as the busier worker, and its seeded order
/// moved `setup_s` from seed to seed.
fn setup(shape: &WorkloadShape, seed: u64) -> Result<(PlacementServer, Programs), String> {
    let server = PlacementServer::new(ServerConfig::default());
    let mut programs = Programs::new();
    for name in &shape.kernels {
        let bench = Benchmark::by_name(name).ok_or_else(|| format!("unknown kernel {name}"))?;
        let program = Arc::new(
            bench
                .compile(OptLevel::O2)
                .map_err(|e| format!("{name}: compile failed: {e}"))?,
        );
        server.register_program(name, Arc::clone(&program));
        programs.insert(name.clone(), program);
    }
    let burst = warmup_burst(shape);
    let order = rng::shuffled(burst.len(), rng::derive(seed, rng::SETUP));
    for index in order {
        server
            .solve(burst[index].clone())
            .map_err(|e| format!("warm-up request failed: {e}"))?;
    }
    Ok((server, programs))
}

/// The sampled answers the oracle re-solves.
type Samples = HashMap<usize, Option<(Outcome, Vec<SweepPoint>)>>;

fn observe(
    answers: Vec<Answer>,
    requests: &[Request],
    before: &ServerStats,
    after: &ServerStats,
    samples: &mut Samples,
) -> Pass {
    let mut pass = Pass::default();
    let mut layer = ServeLayer {
        session_hits: after.session_hits - before.session_hits,
        session_misses: after.session_misses - before.session_misses,
        memo_hits: after.memo_hits - before.memo_hits,
        completed: after.completed - before.completed,
        evictions: after.cache.evictions - before.cache.evictions,
        degraded: (after.heuristic + after.timeout) - (before.heuristic + before.timeout),
        errors: after.errors - before.errors,
        ..ServeLayer::default()
    };
    for answer in answers {
        pass.latencies_ms.push(answer.latency_ms);
        pass.counts.items += 1;
        let request = &requests[answer.index];
        let response = match answer.response {
            Ok(response) => response,
            Err(e) => {
                pass.failures
                    .push(format!("{} on {}: {e}", request.program, request.device));
                continue;
            }
        };
        note_response(&mut pass.counts, request, &response);
        layer.queue_ms.push(response.queue_ms);
        layer.solve_ms.push(response.solve_ms);
        layer
            .overhead_ms
            .push(answer.latency_ms - response.queue_ms - response.solve_ms);
        if let Some(slot @ None) = samples.get_mut(&answer.index) {
            *slot = Some((response.outcome, response.points));
        }
    }
    pass.serve = Some(layer);
    pass
}

/// Count the solver effort behind an answer.  A memo hit replays the
/// statistics of the solve that produced it, so the counts are a pure
/// function of the requests.
fn note_response(counts: &mut Counts, request: &Request, response: &Response) {
    for point in &response.points {
        counts.add_solve(&point.stats);
    }
    if matches!(request.query, Query::Frontier { .. }) {
        counts.frontier_steps += response.points.len() as u64;
    }
    counts.heuristic_fallbacks += u64::from(response.outcome != Outcome::Exact);
}

/// Re-solve every sampled answer on a sequential session, bit for bit.
fn check_oracle(requests: &[Request], programs: &Programs, samples: &Samples) -> Vec<String> {
    let mut failures = Vec::new();
    let mut sessions: HashMap<(String, String), PlacementSession> = HashMap::new();
    let mut indices: Vec<&usize> = samples.keys().collect();
    indices.sort_unstable();
    for index in indices {
        let request = &requests[*index];
        let Some((outcome, points)) = &samples[index] else {
            failures.push(format!("oracle: request {index} was never answered"));
            continue;
        };
        let key = (request.program.clone(), request.device.clone());
        let session = match sessions.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let program = &programs[&request.program];
                match reference_session(program, &request.device, request.scope, None) {
                    Ok(session) => v.insert(session),
                    Err(e) => {
                        failures.push(format!("oracle: session for request {index}: {e}"));
                        continue;
                    }
                }
            }
        };
        match reference_response(session, &request.query) {
            Ok(expected) => {
                if let Some(diff) = check_equivalence(&expected, *outcome, points) {
                    failures.push(format!("oracle: request {index}: {diff}"));
                }
            }
            Err(e) => failures.push(format!("oracle: request {index}: {e}")),
        }
    }
    failures
}

/// Ask the server for the full-spare-RAM placement of every kernel on
/// every device and simulate it against the baseline.
fn probe(
    server: &PlacementServer,
    shape: &WorkloadShape,
    programs: &Programs,
    failures: &mut Vec<String>,
) -> Vec<Ratios> {
    let mut ratios = Vec::new();
    for name in &shape.kernels {
        let program = &programs[name];
        for device in &shape.devices {
            let desc = DEVICE_DB
                .get(device)
                .expect("shape devices are in the database");
            let board = Board::new(desc);
            let probed = board
                .spare_ram(program)
                .map_err(|e| e.to_string())
                .and_then(|spare| {
                    server
                        .solve(Request::point(name, device, spare, PROBE_X_LIMIT))
                        .map_err(|e| e.to_string())
                })
                .and_then(|response| {
                    let point = response.points.first().ok_or("empty answer")?;
                    let optimized =
                        apply_placement_scoped(program, &point.selected, PlacementScope::default());
                    let base = board.run(program).map_err(|e| e.to_string())?;
                    let opt = board.run(&optimized).map_err(|e| e.to_string())?;
                    if base.return_value != opt.return_value {
                        return Err("the served placement changes the program's result".to_string());
                    }
                    Ok(Ratios::of(&base, &opt))
                });
            match probed {
                Ok(r) => ratios.push(r),
                Err(e) => failures.push(format!("probe {name} on {device}: {e}")),
            }
        }
    }
    ratios
}

pub fn run(args: &Args) -> RunOutput {
    let shape = WorkloadShape::beebs_default();
    let requests = stream(&shape);
    // Each set-up's server shuts down, untimed, before the next one starts.
    let (setups_s, last) = timed_setups(SCHEDULE.setups, || setup(&shape, args.seed));
    let (server, programs) = match last {
        Ok(ready) => ready,
        Err(e) => {
            return RunOutput {
                attempted: 1,
                failures: vec![e],
                ..RunOutput::default()
            }
        }
    };
    let mut samples: Samples = rng::shuffled(requests.len(), rng::derive(args.seed, rng::SAMPLE))
        .into_iter()
        .take(ORACLE_SAMPLES)
        .map(|i| (i, None))
        .collect();
    let again = || setup(&shape, args.seed);
    let mut driven = drive(args, &SCHEDULE, again, |p, tracer| {
        let order = rng::shuffled(requests.len(), rng::derive(args.seed, p));
        let before = server.stats();
        let answers = closed_loop(
            &server,
            &requests,
            &order,
            tracer,
            p * requests.len() as u64,
        );
        let after = server.stats();
        observe(answers, &requests, &before, &after, &mut samples)
    });
    let mut failures = std::mem::take(&mut driven.failures);
    failures.extend(check_oracle(&requests, &programs, &samples));
    let ratios = probe(&server, &shape, &programs, &mut failures);
    if let Err(why) = server.verify_cache() {
        failures.push(format!("session cache incoherent: {why}"));
    }
    let stats = server.shutdown();
    if stats.completed != stats.submitted || stats.worker_panics > 0 || stats.draining {
        failures.push(format!(
            "server unhealthy: {} submitted, {} completed, {} worker panics, draining {}",
            stats.submitted, stats.completed, stats.worker_panics, stats.draining
        ));
    }
    let end_to_end = driven.end_to_end(&setups_s, &ratios);
    let probes = (shape.kernels.len() * shape.devices.len()) as u64;
    RunOutput {
        attempted: driven.attempted + samples.len() as u64 + probes,
        failures,
        end_to_end,
        traced: driven.traced,
        counts: driven.counts,
        lines: vec![
            driven.timing.line(),
            format!(
                "setup: compile + register {} kernels, start {} workers, {}-request warm-up, {} times: {:?} s",
                programs.len(),
                ServerConfig::default().workers,
                warmup_burst(&shape).len(),
                setups_s.len() + driven.setups_s.len(),
                [&setups_s[..], &driven.setups_s].concat()
            ),
            format!(
                "server: {} submitted, {} session hits, {} misses, {} evictions, {} memo hits",
                stats.submitted,
                stats.session_hits,
                stats.session_misses,
                stats.cache.evictions,
                stats.memo_hits
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_requests_in_the_same_order() {
        let shape = WorkloadShape::beebs_default();
        let (a, b) = (stream(&shape), stream(&shape));
        assert_eq!(a.len(), CLIENTS * PER_CLIENT);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let order = |seed| rng::shuffled(a.len(), rng::derive(seed, 3));
        assert_eq!(order(20150207), order(20150207));
        assert_ne!(order(20150207), order(20150208));
        let warmup =
            |seed| rng::shuffled(warmup_burst(&shape).len(), rng::derive(seed, rng::SETUP));
        assert_eq!(warmup(7), warmup(7));
    }
}
