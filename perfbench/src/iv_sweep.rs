//! `iv_sweep`: the paper's Example Input File 1
//! (`examples/netlists/set_sweep.cir`, 5 K, `cotunnel`, non-adaptive
//! solver) as shipped, plus a seed-derived `seed` line, swept through
//! `CircuitFile::execute_batch` with a journal on 2 threads, as
//! `semsim sweep --journal` does.
//!
//! One sweep is this workload's "job"; one sweep point is an
//! operation. A run repeats the sweep on one seed, so every sweep must
//! reproduce the first bit for bit, and the first must equal a serial
//! sweep. Every point must obey the ohmic ceiling
//! |I| ≤ |V_s − V_d| / (R₁ + R₂); a point above it counts as failed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use semsim_core::batch::{BatchOpts, BatchReport, PointStatus};
use semsim_core::circuit::Circuit;
use semsim_core::constants::{E_CHARGE, K_B};
use semsim_core::engine::{Simulation, SweepPoint};
use semsim_core::par::ParOpts;
use semsim_netlist::CircuitFile;

use crate::circuit_layers::{circuit_layers, remeasure};
use crate::stats::{median, mix, quantile, ScratchDir};
use crate::trace::Tracer;
use crate::{phases, Args, Ops, Report};

/// The shipped example, verbatim.
const EXAMPLE: &str = include_str!("../../examples/netlists/set_sweep.cir");
/// Engine threads of the timed sweeps.
const THREADS: usize = 2;
/// Timed sweeps per untraced run, at least: p90 needs ten beyond it.
const MIN_SWEEPS: usize = 100;
/// Paired sweeps behind each re-measured ratio of the traced run, and
/// the least sweeps of each phase of a traced run.
const PAIRS: usize = 10;

/// The source text of a run: the example plus a seed line.
fn source(seed: u64) -> String {
    format!("{EXAMPLE}\nseed {}\n", mix(seed, 0) >> 12)
}

/// Bit pattern of a sweep's results, for exact comparisons.
fn fingerprint(points: &[SweepPoint]) -> Vec<(u64, u64, u64)> {
    points
        .iter()
        .map(|p| (p.control.to_bits(), p.current.to_bits(), p.events))
        .collect()
}

/// One timed sweep.
struct Sweep {
    setup_s: f64,
    batch_s: f64,
    wall_s: f64,
    points: Vec<SweepPoint>,
    /// Points that carry no value.
    faulted: u64,
    /// Points above the ohmic ceiling.
    over_ceiling: u64,
    attempted: u64,
    journal_bytes: u64,
    report: BatchReport<SweepPoint>,
}

/// Ohmic ceiling of a point of the example: the current through both
/// junctions in series with every barrier open. The example holds the
/// `symm` source at minus the swept one, so |V_s − V_d| = 2|V|. The
/// thermal voltage k_B·T/e is added because a finite Monte Carlo
/// estimate at zero bias is not exactly zero; the divergent
/// cotunneling points exceed the ceiling by three orders of magnitude.
pub fn ceiling(control: f64, file: &CircuitFile, circuit: &Circuit) -> f64 {
    let series: f64 = circuit.junctions().iter().map(|j| j.resistance).sum();
    (2.0 * control.abs() + K_B * file.temperature / E_CHARGE) / series
}

fn sweep(
    text: &str,
    journal: Option<&Path>,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Sweep, String> {
    if let Some(path) = journal {
        let _ = std::fs::remove_file(path);
    }
    tracer.next_run();
    tracer.enter("iv_sweep.sweep");
    let t0 = Instant::now();
    let file = tracer
        .span("netlist.parse", || CircuitFile::parse(text))
        .map_err(|e| e.to_string())?;
    let compiled = tracer
        .span("netlist.compile", || file.compile())
        .map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let opts = BatchOpts {
        par: ParOpts::with_threads(threads),
        journal: journal.map(Path::to_path_buf),
        ..BatchOpts::default()
    };
    let tb = Instant::now();
    let report = tracer
        .span("core.batch.execute", || file.execute_batch(&opts))
        .map_err(|e| e.to_string())?;
    let batch_s = tb.elapsed().as_secs_f64();
    let (mut faulted, mut over_ceiling) = (0, 0);
    let mut points = Vec::with_capacity(report.points.len());
    for p in &report.points {
        match (&p.item, p.status) {
            (Some(point), PointStatus::Ok | PointStatus::Recovered { .. }) => {
                if point.current.abs() > ceiling(point.control, &file, &compiled.circuit) {
                    over_ceiling += 1;
                }
                points.push(*point);
            }
            _ => faulted += 1,
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.exit();
    let journal_bytes = journal
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    Ok(Sweep {
        setup_s,
        batch_s,
        wall_s,
        attempted: report.points.len() as u64,
        faulted,
        over_ceiling,
        points,
        journal_bytes,
        report,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let text = source(args.seed);
    let dir = ScratchDir::new("iv_sweep")?;
    let journal: PathBuf = dir.0.join("sweep.jl");
    let mut tracer = Tracer::new(false, args.origin);
    let mut report = Report::new();

    let min = if args.trace { PAIRS } else { MIN_SWEEPS };
    let ops = phases(args, &mut tracer, min, |t| {
        sweep(&text, Some(&journal), THREADS, t)
    })?;
    let sweeps = &ops.all;

    // Checks, outside every timed region.
    let first = fingerprint(&sweeps[0].points);
    let serial = sweep(&text, None, 1, &mut Tracer::new(false, args.origin))?;
    if fingerprint(&serial.points) != first {
        report.integrity("the 2-thread sweep differs from the serial sweep".into());
    }
    for (k, s) in sweeps.iter().enumerate() {
        report.attempted += s.attempted;
        for _ in 0..s.faulted {
            report.fail("a sweep point carries no value");
        }
        for _ in 0..s.over_ceiling {
            report.fail("a sweep point exceeds the ohmic ceiling");
        }
        if fingerprint(&s.points) != first || s.journal_bytes != sweeps[0].journal_bytes {
            report.integrity(format!("sweep {k} differs from sweep 0 on the same seed"));
        }
    }

    let pick = |f: fn(&Sweep) -> f64| sweeps.iter().map(f).collect::<Vec<f64>>();
    let batch = pick(|s| s.batch_s);
    if args.trace {
        layer_metrics(&mut report, &text, &journal, &ops, &mut tracer)?;
        report.set("job_latency_p90_s", quantile(&batch, 0.9));
        tracer.write("iv_sweep");
    } else {
        let eps = pick(|s| s.points.iter().map(|p| p.events).sum::<u64>() as f64 / s.batch_s);
        report.set("setup_s", median(&pick(|s| s.setup_s)));
        report.set("wall_s", median(&pick(|s| s.wall_s)));
        report.set("events_per_s", median(&eps));
        report.set("job_latency_p50_s", median(&batch));
        report.set("jobs_per_s", median(&pick(|s| 1.0 / s.wall_s)));
        report.set("peak_rss_mib", ops.peak_rss_mib);
    }
    Ok(report)
}

fn layer_metrics(
    report: &mut Report,
    text: &str,
    journal: &Path,
    ops: &Ops<Sweep>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let traced = ops.phase(true);
    let span = |tracer: &Tracer, name: &str| median(&tracer.durations(name));
    report.set("netlist.parse_s", span(tracer, "netlist.parse"));
    report.set("netlist.compile_s", span(tracer, "netlist.compile"));
    let run_s = median(&traced.iter().map(|s| s.batch_s).collect::<Vec<_>>());
    let events: u64 = traced[0].points.iter().map(|p| p.events).sum();
    report.set("core.engine.run_s", run_s);
    report.set("core.engine.events", events as f64);
    report.set("core.engine.ns_per_event", run_s / events as f64 * 1e9);
    let batch = &traced[0].report;
    report.set("core.batch.retries", batch.retries as f64);
    report.set("core.batch.faulted", batch.counts.faulted as f64);
    report.set("core.health.audits", batch.health.audits as f64);
    report.set(
        "core.health.degradations",
        batch.health.degradations.len() as f64,
    );
    report.set("core.health.worst_drift", batch.health.worst_drift);
    report.set("core.journal.bytes", traced[0].journal_bytes as f64);

    // Layers that run inside `execute_batch`, timed again on the same
    // input. The pairs alternate so drift on the host hits both sides.
    let file = CircuitFile::parse(text).map_err(|e| e.to_string())?;
    let compiled = file.compile().map_err(|e| e.to_string())?;
    circuit_layers(report, &compiled.circuit, tracer)?;
    let cfg = file.sim_config().map_err(|e| e.to_string())?;
    let new_s = remeasure(tracer, "core.engine.new", || {
        Simulation::new(&compiled.circuit, cfg.clone()).map_err(|e| e.to_string())
    })?;
    report.set("core.engine.new_s", new_s);
    let mut off = Tracer::new(false, Instant::now());
    let (mut serial, mut parallel, mut bare) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        serial.push(sweep(text, Some(journal), 1, &mut off)?.batch_s);
        parallel.push(sweep(text, Some(journal), THREADS, &mut off)?.batch_s);
        bare.push(sweep(text, None, THREADS, &mut off)?.batch_s);
    }
    report.set(
        "core.par.efficiency",
        median(&serial) / (THREADS as f64 * median(&parallel)),
    );
    report.set("core.journal.overhead_s", median(&parallel) - median(&bare));

    let untraced: Vec<f64> = ops.phase(false).iter().map(|s| s.wall_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|s| s.wall_s).collect();
    report.set("trace.overhead_s", median(&traced_wall) - median(&untraced));
    Ok(())
}
