//! Seeded stress driver for the placement service: replays a synthetic
//! workload (mixed kernels, budgets, query shapes, arrival jitter) against
//! a [`PlacementServer`](flashram_serve::PlacementServer) and writes
//! throughput / latency-percentile / session-build / cache-hit /
//! degradation-rate numbers to `BENCH_serve.json`.
//!
//! Acceptance checks (exit nonzero unless `--no-fail`):
//!
//! * zero queue leaks — every admitted request was answered;
//! * zero equivalence failures — sampled responses are bit-identical to a
//!   sequential re-solve;
//! * zero validation failures — sampled placements, simulated, still
//!   compute the baseline's answer.
//!
//! Flags: `--short` (the small CI workload), `--no-fail`, `--seed N`,
//! `--duration-s N` (soak mode), `--clients N`, `--requests N` (per
//! client), `--deadlines` (mix in tight deadlines to exercise the timeout
//! path; implies the equivalence sample skips those requests), `--out P`,
//! and `--chaos [seed=N] [rate=R]` (chaos mode: replay the workload under
//! a seeded fault schedule firing each failpoint with probability `R`,
//! e.g. `rate=0.05`; requires building with `--features fault-injection`).
//! Chaos runs additionally assert cache coherence and exclude
//! injected-degraded answers from the bit-identity sample; the report
//! gains a `chaos` section and goes to `BENCH_serve_chaos.json` unless
//! `--out` says otherwise, so a chaos run never overwrites the fault-free
//! baseline.

use std::time::Duration;

use flashram_bench::{stress_document, write_report};
use flashram_serve::{run_stress, ChaosConfig, ServerConfig, StressConfig, WorkloadShape};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |name: &str| args.iter().any(|a| a == name);
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let no_fail = has("--no-fail");
    let seed: u64 = flag("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20150207);

    let mut cfg = if has("--short") {
        StressConfig::short(seed)
    } else {
        StressConfig {
            seed,
            clients: 8,
            requests_per_client: 150,
            duration: None,
            server: ServerConfig::default(),
            shape: WorkloadShape::beebs_default(),
            opt_level: flashram_minicc::OptLevel::O2,
            validate_per_client: 4,
            chaos: None,
        }
    };
    if let Some(c) = flag("--clients").and_then(|v| v.parse().ok()) {
        cfg.clients = c;
    }
    if let Some(r) = flag("--requests").and_then(|v| v.parse().ok()) {
        cfg.requests_per_client = r;
    }
    if let Some(s) = flag("--duration-s").and_then(|v| v.parse().ok()) {
        cfg.duration = Some(Duration::from_secs(s));
    }
    if has("--deadlines") {
        cfg.shape.deadline_per_mille = 100;
    }
    if let Some(pos) = args.iter().position(|a| a == "--chaos") {
        let mut chaos = ChaosConfig {
            seed,
            rate_per_mille: 50,
        };
        // `--chaos` takes trailing key=value operands: seed=N, rate=R
        // (R a probability, e.g. 0.05).
        for kv in args[pos + 1..].iter().take_while(|a| a.contains('=')) {
            match kv.split_once('=') {
                Some(("seed", v)) => {
                    chaos.seed = v.parse().unwrap_or_else(|_| {
                        eprintln!("stress: bad chaos seed {v:?}");
                        std::process::exit(2);
                    });
                }
                Some(("rate", v)) => {
                    let rate: f64 = v.parse().unwrap_or(-1.0);
                    if !(0.0..=1.0).contains(&rate) {
                        eprintln!("stress: chaos rate must be a probability in [0, 1], got {v:?}");
                        std::process::exit(2);
                    }
                    chaos.rate_per_mille = (rate * 1000.0).round() as u16;
                }
                _ => {
                    eprintln!("stress: unknown chaos option {kv:?} (expected seed=N or rate=R)");
                    std::process::exit(2);
                }
            }
        }
        if cfg!(not(feature = "fault-injection")) {
            eprintln!("stress: --chaos requires building with --features fault-injection");
            std::process::exit(2);
        }
        cfg.chaos = Some(chaos);
    }
    let out = flag("--out").unwrap_or_else(|| {
        let default = if cfg.chaos.is_some() {
            "BENCH_serve_chaos.json"
        } else {
            "BENCH_serve.json"
        };
        default.to_string()
    });

    eprintln!(
        "stress: seed {seed}, {} clients, {} ({} kernels × {} devices)",
        cfg.clients,
        match cfg.duration {
            Some(d) => format!("{}s soak", d.as_secs()),
            None => format!("{} requests/client", cfg.requests_per_client),
        },
        cfg.shape.kernels.len(),
        cfg.shape.devices.len()
    );
    if let Some(chaos) = cfg.chaos {
        eprintln!(
            "chaos: fault seed {}, rate {}/1000 per failpoint",
            chaos.seed, chaos.rate_per_mille
        );
    }

    let report = run_stress(&cfg);

    println!(
        "throughput {:.1} req/s over {:.1}s  latency p50/p95/p99 {:.2}/{:.2}/{:.2} ms",
        report.throughput_rps,
        report.wall_s,
        report.latency_p50_ms,
        report.latency_p95_ms,
        report.latency_p99_ms
    );
    println!(
        "session hit rate {:.1}%  memo hit rate {:.1}%  degradation rate {:.1}% \
         ({} exact / {} heuristic / {} timeout)",
        report.session_hit_rate * 100.0,
        report.memo_hit_rate * 100.0,
        report.degradation_rate * 100.0,
        report.server.exact,
        report.server.heuristic,
        report.server.timeout
    );
    println!(
        "equivalence {}/{} bit-identical  validation {}/{} placements correct",
        report.equivalence_checked - report.equivalence_failures,
        report.equivalence_checked,
        report.validated - report.validation_failures,
        report.validated
    );
    if let Some(chaos) = &report.chaos {
        let fired: u64 = chaos.sites.iter().map(|(_, _, f)| f).sum();
        println!(
            "chaos: {fired} faults fired  {} succeeded / {} failed  \
             {} quarantined  {} panics contained  {} workers restarted",
            chaos.succeeded,
            chaos.failed,
            report.server.cache.quarantined,
            report.server.worker_panics,
            report.server.worker_restarts
        );
    }

    write_report(&out, &stress_document(&report), &report.failures, no_fail);
}
