//! What a run reports: deterministic work counts, named metrics and the
//! final JSON line.

use std::fmt::Write as _;

use flashram_ilp::BranchBoundStats;

use crate::stats::{self, ratio};
use crate::trace::{self, Span};

/// Work counts of one pass.  Every field is a pure function of the pass's
/// inputs, so two passes (or two runs) over the same items must agree
/// exactly; a difference is nondeterminism and fails the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub items: u64,
    pub mcu_runs: u64,
    pub sim_cycles: u64,
    pub compiles: u64,
    pub code_bytes: u64,
    pub ilp_solves: u64,
    pub nodes: u64,
    pub lp_pivots: u64,
    pub root_pivots: u64,
    pub warm_pivots: u64,
    pub cold_pivots: u64,
    pub cut_pivots: u64,
    pub cuts_added: u64,
    pub presolve_fixed: u64,
    pub budget_exhausted: u64,
    pub heuristic_fallbacks: u64,
    pub frontier_steps: u64,
    pub chained_roots: u64,
    pub dropped_dominated: u64,
    pub params_blocks: u64,
    pub model_vars: u64,
    pub model_rows: u64,
    pub relocated_bytes: u64,
}

impl Counts {
    /// Fold in the per-point statistics of one branch-and-bound solve.
    pub fn add_solve(&mut self, s: &BranchBoundStats) {
        self.ilp_solves += 1;
        self.nodes += s.nodes_explored as u64;
        self.lp_pivots += s.lp_pivots as u64;
        self.root_pivots += s.root_pivots as u64;
        self.add_pivot_mix(s);
    }

    /// Fold in the pivot breakdown and search counters of one solve (the
    /// part of [`Counts::add_solve`] that sessions do not aggregate).
    pub fn add_pivot_mix(&mut self, s: &BranchBoundStats) {
        self.warm_pivots += s.warm_pivots as u64;
        self.cold_pivots += s.cold_pivots as u64;
        self.cut_pivots += s.cut_pivots as u64;
        self.cuts_added += s.cuts_added as u64;
        self.presolve_fixed += s.presolve_fixed as u64;
        self.budget_exhausted += u64::from(s.budget_exhausted);
    }

    /// The line two runs are diffed on to catch nondeterminism.
    pub fn line(&self) -> String {
        format!(
            "counts: items={} steps={} solves={} nodes={} pivots={} mcycles={:.6} code_bytes={}",
            self.items,
            self.frontier_steps,
            self.ilp_solves,
            self.nodes,
            self.lp_pivots,
            self.sim_cycles as f64 / 1e6,
            self.code_bytes
        )
    }
}

/// Check that `pass` did the same work as the first pass of its kind.
pub fn check_pass(first: &mut Option<Counts>, pass: Counts, failures: &mut Vec<String>) {
    match first {
        None => *first = Some(pass),
        Some(expected) if *expected != pass => failures.push(format!(
            "nondeterministic pass: {} vs first {}",
            pass.line(),
            expected.line()
        )),
        Some(_) => {}
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Build a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Untraced items a run must time so that p90 has ten samples beyond it.
pub const MIN_TIMED: usize = 100;

/// One untraced pass: its wall time and the latency of each item.  When
/// every pass runs the same items ([`Timing::equal_work`]),
/// `latencies_ms[i]` is item `i`'s latency.
#[derive(Debug, Clone, Default)]
pub struct TimedPass {
    pub wall_s: f64,
    pub latencies_ms: Vec<f64>,
}

/// The untraced passes, turned into the end-to-end timing metrics.
///
/// The reference host shares its memory system with other machines'
/// load: a fixed arithmetic loop keeps its speed within 5 %, while a
/// memory-bound loop and the same pass of work both vary up to 2x within
/// a run, and from minute to minute.  That contention only ever adds
/// time, so the metrics are taken where it is lowest:
///
/// - When every pass runs the same items (`optimize_suite`,
///   `frontier_tight`), each item's latency is its lowest over the
///   run's passes.  `latency_ms_p50`/`_p90` are percentiles of these
///   per-item latencies, and `throughput_per_s` is the items of one pass
///   divided by their sum.
/// - When the work of a pass depends on its order (`serve_mix`: the order
///   decides which requests miss the session cache, and two clients run
///   at once), the metrics use the fastest quarter of the passes by wall
///   time, widened until they hold [`MIN_TIMED`] items: their items per
///   second of wall time and the percentiles of their latencies.
///
/// A change that slows the program slows an item at every moment of the
/// run, its fastest one too.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub passes: Vec<TimedPass>,
    /// Whether every pass runs the same items, so that a pass's wall time
    /// varies only with the host.
    pub equal_work: bool,
}

fn items(passes: &[&TimedPass]) -> usize {
    passes.iter().map(|p| p.latencies_ms.len()).sum()
}

/// What the timing metrics are taken over.
struct Summary {
    /// Items per second.
    throughput: f64,
    /// The latencies the percentiles are taken over, ascending.
    latencies: Vec<f64>,
    /// How they were chosen, for the summary line.
    how: String,
}

impl Timing {
    /// Items timed in every pass.
    pub fn items(&self) -> usize {
        items(&self.passes.iter().collect::<Vec<_>>())
    }

    /// Wall time of every pass.
    pub fn wall_s(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_s).sum()
    }

    /// Each item's lowest latency over the passes, in item order.
    fn fastest_per_item(&self) -> Vec<f64> {
        let n = self.passes.first().map_or(0, |p| p.latencies_ms.len());
        (0..n)
            .map(|i| {
                self.passes
                    .iter()
                    .map(|p| p.latencies_ms[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// The fastest quarter of the passes by wall time, widened until they
    /// hold [`MIN_TIMED`] items.
    fn fastest_passes(&self) -> Vec<&TimedPass> {
        let mut by_wall: Vec<&TimedPass> = self.passes.iter().collect();
        by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let mut take = by_wall.len().div_ceil(4);
        while take < by_wall.len() && items(&by_wall[..take]) < MIN_TIMED {
            take += 1;
        }
        by_wall.truncate(take);
        by_wall
    }

    fn summary(&self) -> Summary {
        if self.equal_work {
            let fastest = self.fastest_per_item();
            Summary {
                throughput: fastest.len() as f64 / (fastest.iter().sum::<f64>() / 1e3),
                how: format!(
                    "each of {} items at its fastest of {} passes",
                    fastest.len(),
                    self.passes.len()
                ),
                latencies: stats::sorted(fastest),
            }
        } else {
            let fastest = self.fastest_passes();
            let wall_s: f64 = fastest.iter().map(|p| p.wall_s).sum();
            let latencies = fastest.iter().flat_map(|p| p.latencies_ms.iter().copied());
            Summary {
                throughput: items(&fastest) as f64 / wall_s,
                how: format!(
                    "fastest {} passes by wall time: {} items in {wall_s:.3} s",
                    fastest.len(),
                    items(&fastest)
                ),
                latencies: stats::sorted(latencies.collect()),
            }
        }
    }

    /// `throughput_per_s`, `latency_ms_p50` and `latency_ms_p90`.
    ///
    /// # Panics
    ///
    /// Panics when the run timed too few items for a p90 (the workloads
    /// keep running until they have [`MIN_TIMED`]).
    pub fn metrics(&self) -> Vec<Metric> {
        assert!(
            stats::reportable_tail(self.items()).is_some(),
            "{} timed items are too few for a p90",
            self.items()
        );
        let s = self.summary();
        vec![
            metric("throughput_per_s", s.throughput, "1/s"),
            metric(
                "latency_ms_p50",
                stats::percentile(&s.latencies, 50.0),
                "ms",
            ),
            metric(
                "latency_ms_p90",
                stats::percentile(&s.latencies, 90.0),
                "ms",
            ),
        ]
    }

    /// The summary line naming the sample count and every pass's wall
    /// time.
    pub fn line(&self) -> String {
        let s = self.summary();
        let walls: Vec<String> = self
            .passes
            .iter()
            .map(|p| format!("{:.3}", p.wall_s))
            .collect();
        let tail =
            stats::reportable_tail(self.items()).map_or("none".to_string(), |p| format!("p{p}"));
        format!(
            "timed: {} items in {} passes, {:.3} s (highest percentile with >= {} timed items beyond it: {tail}); {}: {:.4}/s, p50 {:.4} ms, p90 {:.4} ms (n={}); pass walls [{}] s",
            self.items(),
            self.passes.len(),
            self.wall_s(),
            stats::TAIL_SAMPLES,
            s.how,
            s.throughput,
            stats::percentile(&s.latencies, 50.0),
            stats::percentile(&s.latencies, 90.0),
            s.latencies.len(),
            walls.join(", "),
        )
    }
}

/// Simulated optimized ÷ baseline ratios of one program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratios {
    pub energy: f64,
    pub power: f64,
    pub time: f64,
}

impl Ratios {
    /// The ratios of an optimized run against its baseline.
    pub fn of(base: &flashram_mcu::RunResult, opt: &flashram_mcu::RunResult) -> Ratios {
        Ratios {
            energy: opt.energy_mj / base.energy_mj,
            power: opt.avg_power_mw / base.avg_power_mw,
            time: opt.time_s / base.time_s,
        }
    }
}

/// The three `*_ratio_geomean` metrics.
pub fn ratio_metrics(ratios: &[Ratios]) -> Vec<Metric> {
    let pick = |f: fn(&Ratios) -> f64| stats::geomean(&ratios.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("energy_ratio_geomean", pick(|r| r.energy), "ratio"),
        metric("power_ratio_geomean", pick(|r| r.power), "ratio"),
        metric("time_ratio_geomean", pick(|r| r.time), "ratio"),
    ]
}

/// `setup_s` and `peak_rss_mb`.
///
/// `setup_s` is the fastest of the run's set-ups, for the reason the
/// timing metrics take each item at its fastest (see [`Timing`]): the
/// median of one run's warm-up passes moved by 45 % between two sets of
/// runs of the same code, their fastest by far less.  `peak_rss_mb` is the
/// peak resident set
/// at the end of the timed phase: the checks after it re-solve a seeded
/// sample of answers, and which answers the seed picks must not move it.
pub fn setup_and_memory(setups_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        metric(
            "setup_s",
            setups_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// The process's peak resident set, from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Service-layer observations of the traced passes.
#[derive(Debug, Clone, Default)]
pub struct ServeLayer {
    pub queue_ms: Vec<f64>,
    pub solve_ms: Vec<f64>,
    pub overhead_ms: Vec<f64>,
    pub session_hits: u64,
    pub session_misses: u64,
    pub memo_hits: u64,
    pub completed: u64,
    pub evictions: u64,
    pub degraded: u64,
    pub errors: u64,
}

impl ServeLayer {
    /// Add another pass's observations.
    pub fn merge(&mut self, other: ServeLayer) {
        self.queue_ms.extend(other.queue_ms);
        self.solve_ms.extend(other.solve_ms);
        self.overhead_ms.extend(other.overhead_ms);
        self.session_hits += other.session_hits;
        self.session_misses += other.session_misses;
        self.memo_hits += other.memo_hits;
        self.completed += other.completed;
        self.evictions += other.evictions;
        self.degraded += other.degraded;
        self.errors += other.errors;
    }
}

/// Everything the traced passes observed.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub counts: Counts,
    pub passes: u64,
    pub serve: Option<ServeLayer>,
    pub traced_per_s: f64,
    pub untraced_per_s: f64,
}

/// Time metrics and the one stage each sums.
const STAGE_METRICS: [(&str, &str); 6] = [
    ("mcu.decode_ms", "mcu.decode"),
    ("mcu.exec_ms", "mcu.exec"),
    ("minicc.compile_ms", "minicc.compile"),
    ("core.params.extract_ms", "core.params.extract"),
    ("core.model.build_ms", "core.model.build"),
    ("core.transform.apply_ms", "core.transform.apply"),
];

impl Traced {
    /// Self milliseconds per traced pass in the stages `keep` selects.
    fn self_ms(&self, keep: impl Fn(&str) -> bool) -> f64 {
        let ns: u64 = trace::by_stage(&self.spans)
            .iter()
            .filter(|(stage, _)| keep(stage))
            .map(|(_, row)| row.1)
            .sum();
        ratio(ns as f64 / 1e6, self.passes as f64)
    }

    /// How much slower the traced passes ran than the untraced ones, in %.
    fn overhead_pct(&self) -> f64 {
        (ratio(self.untraced_per_s, self.traced_per_s) - 1.0) * 100.0
    }

    /// Every per-layer metric; layers a workload does not reach read 0.
    /// Counts are those of one pass (every pass must repeat them exactly).
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counts;
        let per_pass = |name: &str, v: u64| metric(name, v as f64, "count/pass");
        let mut out: Vec<Metric> = STAGE_METRICS
            .iter()
            .map(|&(name, stage)| metric(name, self.self_ms(|s| s == stage), "ms/pass"))
            .collect();
        let mcycles = c.sim_cycles as f64 / 1e6;
        let exec_s = self.self_ms(|s| s == "mcu.exec") / 1e3;
        // The service solves inside its workers; its responses say how long.
        let ilp_ms = match &self.serve {
            Some(s) => ratio(s.solve_ms.iter().sum(), self.passes as f64),
            None => self.self_ms(|s| trace::layer(s) == "ilp"),
        };
        out.extend([
            per_pass("mcu.runs", c.mcu_runs),
            metric("mcu.sim_mcycles", mcycles, "Mcycles/pass"),
            metric(
                "mcu.exec_mcycles_per_s",
                ratio(mcycles, exec_s),
                "Mcycles/s",
            ),
            per_pass("minicc.compiles", c.compiles),
            metric("minicc.code_bytes", c.code_bytes as f64, "bytes/pass"),
            metric("ilp.solve_ms", ilp_ms, "ms/pass"),
            per_pass("ilp.solves", c.ilp_solves),
            per_pass("ilp.nodes", c.nodes),
            per_pass("ilp.lp_pivots", c.lp_pivots),
            per_pass("ilp.root_pivots", c.root_pivots),
            per_pass("ilp.warm_pivots", c.warm_pivots),
            per_pass("ilp.cold_pivots", c.cold_pivots),
            per_pass("ilp.cut_pivots", c.cut_pivots),
            per_pass("ilp.cuts_added", c.cuts_added),
            per_pass("ilp.presolve_fixed", c.presolve_fixed),
            metric(
                "ilp.pivots_per_node",
                ratio(c.lp_pivots as f64, c.nodes as f64),
                "ratio",
            ),
            per_pass("ilp.budget_exhausted", c.budget_exhausted),
            per_pass("ilp.heuristic_fallbacks", c.heuristic_fallbacks),
            per_pass("core.frontier.steps", c.frontier_steps),
            per_pass("core.frontier.chained_roots", c.chained_roots),
            per_pass("core.frontier.dropped_dominated", c.dropped_dominated),
            per_pass("core.params.blocks", c.params_blocks),
            per_pass("core.model.vars", c.model_vars),
            per_pass("core.model.rows", c.model_rows),
            metric(
                "core.transform.relocated_bytes",
                c.relocated_bytes as f64,
                "bytes/pass",
            ),
        ]);
        out.extend(self.serve_metrics());
        out.push(metric(
            "trace.coverage",
            trace::coverage(&self.spans),
            "ratio",
        ));
        out.push(metric("trace.overhead_pct", self.overhead_pct(), "%"));
        out
    }

    fn serve_metrics(&self) -> Vec<Metric> {
        let s = self.serve.clone().unwrap_or_default();
        let per_pass = |v: u64| ratio(v as f64, self.passes as f64);
        let pct = |values: &[f64], p: f64| {
            if values.is_empty() {
                0.0
            } else {
                stats::percentile(&stats::sorted(values.to_vec()), p)
            }
        };
        let mean = |values: &[f64]| ratio(values.iter().sum(), values.len() as f64);
        let admissions = (s.session_hits + s.session_misses) as f64;
        vec![
            metric("serve.queue_ms_p50", pct(&s.queue_ms, 50.0), "ms"),
            metric("serve.queue_ms_p90", pct(&s.queue_ms, 90.0), "ms"),
            metric("serve.solve_ms", mean(&s.solve_ms), "ms"),
            metric("serve.overhead_ms", mean(&s.overhead_ms), "ms"),
            metric(
                "serve.session_hit_rate",
                ratio(s.session_hits as f64, admissions),
                "ratio",
            ),
            metric(
                "serve.memo_hit_rate",
                ratio(s.memo_hits as f64, s.completed as f64),
                "ratio",
            ),
            metric(
                "serve.session_misses",
                per_pass(s.session_misses),
                "count/pass",
            ),
            metric("serve.evictions", per_pass(s.evictions), "count/pass"),
            metric(
                "serve.degraded_rate",
                ratio(s.degraded as f64, s.completed as f64),
                "ratio",
            ),
            metric("serve.errors", s.errors as f64, "count"),
        ]
    }

    /// The per-stage and per-layer self-time table.
    pub fn table(&self) -> String {
        let stages = trace::by_stage(&self.spans);
        let item_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let share = |ns: u64| 100.0 * ratio(ns as f64, item_ns as f64);
        let per_pass_ms = |ns: u64| ratio(ns as f64 / 1e6, self.passes as f64);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<26} {:>10} {:>14} {:>8}",
            "stage", "spans", "self ms/pass", "share"
        );
        let mut layers: Vec<(&str, u64, u64)> = Vec::new();
        for (stage, (count, ns)) in &stages {
            let _ = writeln!(
                out,
                "{stage:<26} {count:>10} {:>14.3} {:>7.2}%",
                per_pass_ms(*ns),
                share(*ns)
            );
            let layer = trace::layer(stage);
            match layers.iter_mut().find(|l| l.0 == layer) {
                Some(row) => {
                    row.1 += count;
                    row.2 += ns;
                }
                None => layers.push((layer, *count, *ns)),
            }
        }
        layers.sort_by_key(|l| std::cmp::Reverse(l.2));
        let _ = writeln!(
            out,
            "{:<26} {:>10} {:>14} {:>8}",
            "layer", "spans", "self ms/pass", "share"
        );
        for (layer, count, ns) in layers {
            let _ = writeln!(
                out,
                "{layer:<26} {count:>10} {:>14.3} {:>7.2}%",
                per_pass_ms(ns),
                share(ns)
            );
        }
        let _ = write!(
            out,
            "item wall {:.3} ms/pass over {} traced passes; trace.coverage {:.4}; trace.overhead_pct {:.2} (untraced {:.3}/s vs traced {:.3}/s)",
            per_pass_ms(item_ns),
            self.passes,
            trace::coverage(&self.spans),
            self.overhead_pct(),
            self.untraced_per_s,
            self.traced_per_s
        );
        out
    }
}

/// The final JSON line.
pub fn result_json(attempted: u64, failed: u64, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(walls: &[f64], items: usize, equal_work: bool) -> Timing {
        Timing {
            passes: walls
                .iter()
                .map(|&wall_s| TimedPass {
                    wall_s,
                    latencies_ms: vec![wall_s; items],
                })
                .collect(),
            equal_work,
        }
    }

    const WALLS: [f64; 8] = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];

    #[test]
    fn equal_passes_take_each_item_at_its_fastest() {
        let t = Timing {
            passes: vec![
                TimedPass {
                    wall_s: 9.0,
                    latencies_ms: vec![1.0, 5.0, 3.0],
                },
                TimedPass {
                    wall_s: 9.0,
                    latencies_ms: vec![2.0, 4.0, 3.0],
                },
            ],
            equal_work: true,
        };
        assert_eq!(t.fastest_per_item(), vec![1.0, 4.0, 3.0]);
        let s = t.summary();
        assert_eq!(s.latencies, vec![1.0, 3.0, 4.0]);
        assert!((s.throughput - 3.0 / 8e-3).abs() < 1e-9);
    }

    #[test]
    fn unequal_passes_use_the_fastest_quarter() {
        let s = timing(&WALLS, 50, false).summary();
        assert_eq!(s.latencies.len(), 100);
        assert!((s.throughput - 100.0 / 3.0).abs() < 1e-9);
        let s = timing(&[3.0, 1.0, 2.0], 100, false).summary();
        assert_eq!(s.latencies, vec![1.0; 100]);
    }

    #[test]
    fn the_fastest_passes_widen_to_enough_items() {
        assert_eq!(timing(&WALLS, 30, false).fastest_passes().len(), 4);
        assert_eq!(timing(&WALLS, 20, false).fastest_passes().len(), 5);
        assert_eq!(timing(&WALLS, 10, false).fastest_passes().len(), 8);
        assert_eq!(
            timing(&[2.0, 1.0, 3.0], 60, false).fastest_passes().len(),
            2
        );
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = result_json(3, 0, true, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_differing_pass_is_a_failure() {
        let mut first = None;
        let mut failures = Vec::new();
        let a = Counts {
            nodes: 5,
            ..Counts::default()
        };
        check_pass(&mut first, a, &mut failures);
        check_pass(&mut first, a, &mut failures);
        assert!(failures.is_empty());
        check_pass(
            &mut first,
            Counts {
                nodes: 6,
                ..Counts::default()
            },
            &mut failures,
        );
        assert_eq!(failures.len(), 1);
    }
}
