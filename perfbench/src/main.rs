//! SEMSIM benchmark: one command, three workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <logic_c432|iv_sweep|serve_jobs> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs on the program's defaults through the public
//! APIs of `semsim-logic`, `semsim-netlist`, `semsim-core` and
//! `semsim-serve`, checks its outputs, and prints one line per metric
//! (`name value unit`) followed by a final JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones, including the tracing overhead. Spans of a traced
//! run are written to standard error as JSON lines. See
//! `perfbench/DESIGN.md` for the layer → end-to-end → workload map.

mod circuit_layers;
mod iv_sweep;
mod logic_c432;
mod serve_jobs;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Tracer;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "events/s"),
    ("job_latency_p50_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.lu_s", "s"),
    ("linalg.inverse_s", "s"),
    ("linalg.inverse_flops_computed", "flop"),
    ("linalg.inverse_bytes_computed", "B"),
    ("core.circuit.build_s", "s"),
    ("core.circuit.cinv_nnz", "count"),
    ("core.circuit.dependents_per_island", "count"),
    ("logic.elaborate_s", "s"),
    ("logic.elaborate_self_s", "s"),
    ("netlist.parse_s", "s"),
    ("netlist.compile_s", "s"),
    ("core.engine.new_s", "s"),
    ("core.engine.run_s", "s"),
    ("core.engine.ns_per_event", "ns"),
    ("core.engine.events", "count"),
    ("core.solver.recalcs_per_event", "count"),
    ("core.solver.tests_per_event", "count"),
    ("core.solver.full_refreshes", "count"),
    ("quad.memo.hits", "count"),
    ("quad.memo.misses", "count"),
    ("quad.memo.hit_ratio", "ratio"),
    ("core.health.audits", "count"),
    ("core.health.degradations", "count"),
    ("core.health.worst_drift", "ratio"),
    ("core.par.efficiency", "ratio"),
    ("core.batch.retries", "count"),
    ("core.batch.faulted", "count"),
    ("core.journal.bytes", "B"),
    ("core.journal.overhead_s", "s"),
    ("serve.admit_s", "s"),
    ("serve.first_line_s", "s"),
    ("serve.compute_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("trace.overhead_s", "s"),
    ("job_latency_p90_s", "s"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start: every span and budget is measured from here.
    pub origin: Instant,
}

/// The timed operations of a run, in the order they ran.
pub struct Ops<T> {
    pub all: Vec<T>,
    /// Whether each operation ran traced.
    pub traced: Vec<bool>,
    /// Wall time of all the timed operations together.
    pub wall_s: f64,
    /// `VmHWM` read right after the last timed operation, before any
    /// check runs.
    pub peak_rss_mib: f64,
}

impl<T> Ops<T> {
    /// The operations of one phase: traced or untraced.
    pub fn phase(&self, traced: bool) -> Vec<&T> {
        self.all
            .iter()
            .zip(&self.traced)
            .filter(|&(_, &t)| t == traced)
            .map(|(op, _)| op)
            .collect()
    }
}

/// Runs `op` repeatedly until `--seconds` is used: it starts another
/// operation only while one of the mean length so far still fits. With
/// `--trace 1`, untraced and traced operations alternate, so drift on
/// the host hits both alike. Each phase runs `op` at least `min` times,
/// whatever `--seconds` says. Leaves the tracer enabled after a traced
/// run, for the re-measured spans.
pub fn phases<T>(
    args: &Args,
    tracer: &mut Tracer,
    min: usize,
    mut op: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<Ops<T>, String> {
    let mut ops = Ops {
        all: Vec::new(),
        traced: Vec::new(),
        wall_s: 0.0,
        peak_rss_mib: 0.0,
    };
    let start = Instant::now();
    loop {
        let traced = args.trace && ops.all.len() % 2 == 1;
        let count = |side: bool| ops.traced.iter().filter(|&&t| t == side).count();
        let short = count(false) < min || (args.trace && count(true) < min);
        let mean_s = start.elapsed().as_secs_f64() / ops.all.len().max(1) as f64;
        if !short && args.origin.elapsed().as_secs_f64() + mean_s > args.seconds {
            break;
        }
        tracer.set_enabled(traced);
        ops.all.push(op(tracer)?);
        ops.traced.push(traced);
    }
    ops.wall_s = start.elapsed().as_secs_f64();
    ops.peak_rss_mib = stats::peak_rss_mib();
    tracer.set_enabled(args.trace);
    Ok(ops)
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (timed runs, sweep points or submissions).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// False when a check that vouches for the figures failed:
    /// determinism, exact-count repeats, oracle agreement, or a served
    /// job that differs from its local run.
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failed operations by reason.
    pub failures: BTreeMap<&'static str, u64>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, reason: &'static str) {
        self.failed += 1;
        *self.failures.entry(reason).or_insert(0) += 1;
    }

    /// Records an integrity failure (clears `correct`) with its reason.
    pub fn integrity(&mut self, reason: String) {
        eprintln!("check failed: {reason}");
        self.correct = false;
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        origin: Instant::now(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "logic_c432" => logic_c432::run(&args),
        "iv_sweep" => iv_sweep::run(&args),
        "serve_jobs" => serve_jobs::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if report.attempted == 0 {
        eprintln!(
            "{}: no operation completed within the budget",
            args.workload
        );
        std::process::exit(1);
    }
    for (reason, n) in &report.failures {
        eprintln!("{}: {n} failed operation(s): {reason}", args.workload);
    }
    println!(
        "# default backend: {}, nproc: {}",
        semsim_core::backend::BackendSpec::default().label(),
        semsim_core::par::available_threads()
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("{}: end-to-end metric {name} missing", args.workload);
                std::process::exit(1);
            }
        };
        if !value.is_finite() {
            eprintln!("{}: metric {name} is not finite", args.workload);
            std::process::exit(1);
        }
        println!("{name} {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        json.join(", ")
    );
}
