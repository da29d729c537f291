//! The repository benchmark: one command, three workloads, every
//! end-to-end metric with its unit, and a traced run that breaks each
//! workload down by layer.  See `README.md` next to this package.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload optimize_suite --seed 20150207 --seconds 30 --trace 0
//! ```

mod frontier;
mod optimize;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use report::{Counts, Metric, Ratios, ServeLayer, TimedPass, Timing, Traced, MIN_TIMED};
use trace::Tracer;

/// The default workload seed.
const DEFAULT_SEED: u64 = 20150207;

const WORKLOADS: [&str; 3] = ["optimize_suite", "frontier_tight", "serve_mix"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans as JSONL.
    pub spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What one pass did.
#[derive(Debug, Default)]
pub struct Pass {
    /// In item order when every pass runs the same items.
    pub latencies_ms: Vec<f64>,
    pub counts: Counts,
    pub serve: Option<ServeLayer>,
    /// Items that failed, with the reason.
    pub failures: Vec<String>,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub traced: Option<Traced>,
    pub counts: Counts,
    pub lines: Vec<String>,
}

/// How a workload's timed phase runs.
pub struct Schedule {
    /// Every pass runs the same items (see [`Timing`]).
    pub equal_work: bool,
    /// Set-ups timed at each set-up point: before the timed phase and,
    /// in an untraced run, after every `setup_every` passes (never when
    /// `None`).
    pub setups: usize,
    pub setup_every: Option<u64>,
}

/// The timed phase every workload shares: whole passes until `seconds`
/// have elapsed and enough items were timed.  A traced run alternates
/// untraced and traced passes, starting untraced, so the two throughputs
/// give the tracing overhead.
pub struct Driven {
    pub timing: Timing,
    pub traced: Option<Traced>,
    pub counts: Counts,
    /// The wall time of the set-ups made between passes.
    pub setups_s: Vec<f64>,
    /// The process's peak resident set at the end of the timed phase.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Run the timed phase.  An untraced run also sets up again, from
/// scratch, after every `schedule.setup_every` passes, so that the set-ups
/// behind `setup_s` are spread over the run like its passes (see
/// [`report::setup_and_memory`]).
pub fn drive<S>(
    args: &Args,
    schedule: &Schedule,
    mut set_up: impl FnMut() -> Result<S, String>,
    mut run_pass: impl FnMut(u64, Option<&mut Tracer>) -> Pass,
) -> Driven {
    let started = Instant::now();
    let mut timing = Timing {
        passes: Vec::new(),
        equal_work: schedule.equal_work,
    };
    let mut setups_s = Vec::new();
    let mut traced = args.trace.then(Traced::default);
    let mut tracer = Tracer::new(started);
    let (mut traced_s, mut traced_items) = (0.0, 0usize);
    let mut first_plain: Option<Counts> = None;
    let mut first_traced: Option<Counts> = None;
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    for pass_index in 0u64.. {
        let trace_this = traced.is_some() && pass_index % 2 == 1;
        let t0 = Instant::now();
        let pass = run_pass(pass_index, trace_this.then_some(&mut tracer));
        let wall_s = t0.elapsed().as_secs_f64();
        attempted += pass.latencies_ms.len() as u64;
        failures.extend(pass.failures);
        if let (true, Some(t)) = (trace_this, traced.as_mut()) {
            report::check_pass(&mut first_traced, pass.counts, &mut failures);
            t.passes += 1;
            traced_s += wall_s;
            traced_items += pass.latencies_ms.len();
            if let Some(obs) = pass.serve {
                t.serve.get_or_insert_with(ServeLayer::default).merge(obs);
            }
        } else {
            report::check_pass(&mut first_plain, pass.counts, &mut failures);
            timing.passes.push(TimedPass {
                wall_s,
                latencies_ms: pass.latencies_ms,
            });
        }
        let enough = match &traced {
            Some(t) => !timing.passes.is_empty() && t.passes >= 1,
            None => timing.items() >= MIN_TIMED,
        };
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let set_up_now = schedule
            .setup_every
            .is_some_and(|every| (pass_index + 1) % every == 0);
        if traced.is_none() && set_up_now {
            let (times, made) = timed_setups(schedule.setups, &mut set_up);
            setups_s.extend(times);
            attempted += schedule.setups as u64;
            if let Err(e) = made {
                failures.push(format!("set-up between passes: {e}"));
            }
        }
    }
    let peak_rss_mb = report::peak_rss_mb();
    if let Some(t) = traced.as_mut() {
        t.spans = tracer.spans().to_vec();
        t.traced_per_s = traced_items as f64 / traced_s;
        t.untraced_per_s = timing.items() as f64 / timing.wall_s();
        // Counts are per pass; the traced counts stand for every pass.
        t.counts = first_traced.unwrap_or_default();
    }
    if let Some(path) = &args.spans {
        if let Err(e) = tracer.write_jsonl(path) {
            failures.push(format!("writing spans to {path}: {e}"));
        }
    }
    Driven {
        timing,
        traced,
        counts: first_plain.unwrap_or_default(),
        setups_s,
        peak_rss_mb,
        attempted,
        failures,
    }
}

impl Driven {
    /// The end-to-end metrics of an untraced run, given the set-ups made
    /// before the timed phase; a traced run reports per-layer metrics
    /// instead.
    pub fn end_to_end(&self, first_setups_s: &[f64], ratios: &[Ratios]) -> Vec<Metric> {
        if self.traced.is_some() {
            return Vec::new();
        }
        let mut out = self.timing.metrics();
        let setups_s = [first_setups_s, &self.setups_s].concat();
        out.extend(report::setup_and_memory(&setups_s, self.peak_rss_mb));
        out.extend(report::ratio_metrics(ratios));
        out
    }
}

/// The wall time of each of `repeats` calls of `f`, and the last call's
/// value.  Each value is dropped, untimed, before the next call, so that
/// no two set-ups hold their memory at once.
pub fn timed_setups<T>(repeats: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t0 = Instant::now();
        let value = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (times, last.expect("at least one set-up"))
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (no .git)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "provenance: commit={} nproc={nproc} profile={profile} rustc=\"{}\" workload={} seed={} seconds={} trace={}",
        commit(),
        env!("PERFBENCH_RUSTC_VERSION"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = match args.workload.as_str() {
        "optimize_suite" => optimize::run(&args),
        "frontier_tight" => frontier::run(&args),
        _ => serve::run(&args),
    };
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", out.counts.line());
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(failed).max(1);
    println!(
        "error_rate: {failed}/{attempted} = {}",
        failed as f64 / attempted as f64
    );
    for failure in out.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {failure}");
    }
    let metrics = match &out.traced {
        Some(traced) => {
            println!("{}", traced.table());
            traced.metrics()
        }
        None => out.end_to_end,
    };
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0;
    println!(
        "{}",
        report::result_json(attempted, failed, correct, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
