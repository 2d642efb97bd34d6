//! `logic_c432`: the paper's Fig. 6 flow on c432 (2072 junctions,
//! 1554 islands), run serially.
//!
//! One operation elaborates the circuit (`elaborate`, which runs
//! `CircuitBuilder::build` and its dense inverse), builds a
//! `Simulation` with the adaptive solver at θ = 0.05 and refresh =
//! max(1000, 4·islands) on the default backend, applies the
//! seed-derived sensitizing vector and four toggles of its sensitive
//! input, and advances the transient through a fixed 0.2 µs window in
//! chunks of `CHUNK_EVENTS` events. A window is this workload's "job":
//! the transient a user runs on a built circuit. Every operation uses
//! the same seed, so its trajectory must repeat exactly, chunk by
//! chunk, and equal an `AdaptiveDense` oracle run, checked after the
//! timed operations.

use std::time::Instant;

use semsim_core::circuit::Circuit;
use semsim_core::engine::{RunLength, SimConfig, Simulation, SolverSpec, Stimulus};
use semsim_core::health::{HealthReport, RunOutcome};
use semsim_core::solver::AdaptiveStats;
use semsim_logic::{elaborate, find_sensitizing_vector, Benchmark, Elaborated, SetLogicParams};
use semsim_netlist::LogicFile;

use crate::circuit_layers::circuit_layers;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{phases, Args, Ops, Report};

/// Circuit-time window of one operation (s), as in `fig6`.
const WINDOW: f64 = 2e-7;
/// Input toggles inside the window, as in `fig6`.
const TOGGLES: u64 = 4;
/// Events per `Simulation::run` call; the checks compare trajectories
/// chunk by chunk.
const CHUNK_EVENTS: u64 = 1_000;
/// Chunks after which a window that has not ended counts as stuck.
const MAX_CHUNKS: usize = 1_000;
/// Adaptive testing threshold θ.
const THETA: f64 = 0.05;
/// Timed operations per untraced run, at least, whatever `--seconds`
/// says: one takes 10–14 s on a 2-vCPU host, so fewer would not give a
/// median.
const MIN_OPS: usize = 3;
/// Windows simulated per operation: the first is the operation's own,
/// the second re-runs it on the same circuit, outside `wall_s`. The
/// host's speed for this loop swings by up to 1.6× within seconds, so
/// the event-loop metrics need more windows spread through the run
/// than there are builds.
const WINDOWS_PER_OP: usize = 2;
/// Operations of each phase of a traced run, at least.
const TRACED_OPS: usize = 2;

/// Seed-derived inputs, generated before anything is timed.
struct Inputs {
    logic: LogicFile,
    params: SetLogicParams,
    vector: Vec<bool>,
    toggle: usize,
    seed: u64,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let bench = Benchmark::C432;
    let logic = bench.logic();
    let (vector, toggle) = find_sensitizing_vector(&logic, bench.delay_output(), seed)
        .or_else(|| {
            logic
                .outputs
                .iter()
                .rev()
                .find_map(|o| find_sensitizing_vector(&logic, o, seed))
        })
        .ok_or("c432: no sensitizing vector")?;
    Ok(Inputs {
        logic,
        params: SetLogicParams::default(),
        vector,
        toggle,
        seed,
    })
}

/// Trajectory of one chunk: event count and per-junction electron
/// counts, bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    events: u64,
    counts: Vec<u64>,
}

/// What one simulation of the window produced.
struct Trajectory {
    /// Time of `Simulation::new` plus input set-up.
    ready: Instant,
    /// Wall time of the window's `run` calls.
    run_s: f64,
    chunks: Vec<Chunk>,
    events: u64,
    stats: Option<AdaptiveStats>,
    memo: Option<(u64, u64)>,
    health: HealthReport,
    /// Every chunk ended `Completed`, nothing degraded and the window
    /// ended.
    clean: bool,
}

fn solver(circuit: &Circuit, dense: bool) -> SolverSpec {
    let refresh_interval = 1_000u64.max(4 * circuit.num_islands() as u64);
    if dense {
        SolverSpec::AdaptiveDense {
            threshold: THETA,
            refresh_interval,
        }
    } else {
        SolverSpec::Adaptive {
            threshold: THETA,
            refresh_interval,
        }
    }
}

/// Simulates the window on `elab` and records every chunk.
fn simulate(
    inp: &Inputs,
    elab: &Elaborated,
    dense: bool,
    tracer: &mut Tracer,
) -> Result<Trajectory, String> {
    let circuit = &elab.circuit;
    let cfg = SimConfig::new(inp.params.temperature)
        .with_seed(inp.seed)
        .with_solver(solver(circuit, dense));
    let mut sim = tracer
        .span("core.engine.new", || Simulation::new(circuit, cfg))
        .map_err(|e| e.to_string())?;
    let level = |bit: bool| if bit { inp.params.vdd } else { 0.0 };
    for (name, &bit) in inp.logic.inputs.iter().zip(&inp.vector) {
        let lead = elab.input_lead(name).map_err(|e| e.to_string())?;
        sim.set_lead_voltage(lead, level(bit))
            .map_err(|e| e.to_string())?;
    }
    let lead = elab
        .input_lead(&inp.logic.inputs[inp.toggle])
        .map_err(|e| e.to_string())?;
    let stimuli = (0..TOGGLES)
        .map(|k| Stimulus {
            time: WINDOW * (k + 1) as f64 / (TOGGLES + 1) as f64,
            lead,
            voltage: level((k % 2 == 0) != inp.vector[inp.toggle]),
        })
        .collect();
    sim.schedule(stimuli).map_err(|e| e.to_string())?;
    let ready = Instant::now();

    let mut traj = Trajectory {
        ready,
        run_s: 0.0,
        chunks: Vec::new(),
        events: 0,
        stats: None,
        memo: None,
        health: HealthReport::empty(),
        clean: true,
    };
    while sim.time() < WINDOW && traj.chunks.len() < MAX_CHUNKS {
        let t = Instant::now();
        let record = tracer
            .span("core.engine.run", || {
                sim.run(RunLength::Events(CHUNK_EVENTS))
            })
            .map_err(|e| e.to_string())?;
        traj.run_s += t.elapsed().as_secs_f64();
        traj.clean &= record.outcome == RunOutcome::Completed && record.degradations.is_empty();
        traj.events += record.events;
        traj.stats = record.adaptive_stats;
        traj.chunks.push(Chunk {
            events: record.events,
            counts: record.electron_counts.iter().map(|c| c.to_bits()).collect(),
        });
    }
    traj.clean &= sim.time() >= WINDOW;
    traj.memo = sim.memo_stats();
    traj.health = sim.health_report();
    traj.clean &= traj.health.degradations.is_empty();
    Ok(traj)
}

/// One timed operation: source → elaborated circuit → checked window,
/// plus the window's re-runs.
struct Op {
    setup_s: f64,
    wall_s: f64,
    /// The operation's window first, then its re-runs.
    windows: Vec<Trajectory>,
}

fn operation(inp: &Inputs, tracer: &mut Tracer) -> Result<(Op, Elaborated), String> {
    tracer.next_run();
    tracer.enter("logic_c432.op");
    let t0 = Instant::now();
    let elab = tracer
        .span("logic.elaborate", || elaborate(&inp.logic, &inp.params))
        .map_err(|e| e.to_string())?;
    let mut windows = vec![simulate(inp, &elab, false, tracer)?];
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.exit();
    let setup_s = (windows[0].ready - t0).as_secs_f64();
    while windows.len() < WINDOWS_PER_OP {
        windows.push(simulate(inp, &elab, false, tracer)?);
    }
    let window_s: Vec<String> = windows.iter().map(|w| format!("{:.3}", w.run_s)).collect();
    eprintln!(
        "logic_c432 op: setup {setup_s:.3} s, windows {} s, {} events",
        window_s.join(" "),
        windows[0].events
    );
    let op = Op {
        setup_s,
        wall_s,
        windows,
    };
    Ok((op, elab))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let inp = inputs(args.seed)?;
    let mut tracer = Tracer::new(false, args.origin);
    let mut report = Report::new();

    // The last operation's circuit is kept for the oracle and the
    // re-measured layers. It is dropped before the next operation
    // starts, so no operation runs beside a kept circuit and the peak
    // RSS is the program's own.
    let mut kept: Option<Elaborated> = None;
    let min = if args.trace { TRACED_OPS } else { MIN_OPS };
    let ops = phases(args, &mut tracer, min, |t| {
        kept = None;
        let (op, elab) = operation(&inp, t)?;
        kept = Some(elab);
        Ok(op)
    })?;
    let elab = kept.ok_or("no operation ran")?;

    // Checks, outside every timed region.
    let oracle = simulate(&inp, &elab, true, &mut Tracer::new(false, args.origin))?;
    let first = &ops.all[0].windows[0];
    for (k, op) in ops.all.iter().enumerate() {
        report.attempted += 1;
        // An operation fails with the first of its windows that does.
        let failure = op.windows.iter().find_map(|t| {
            let repeats = (
                t.events,
                t.stats,
                t.memo,
                t.health.audits,
                t.health.worst_drift.to_bits(),
            ) == (
                first.events,
                first.stats,
                first.memo,
                first.health.audits,
                first.health.worst_drift.to_bits(),
            );
            if t.chunks != oracle.chunks {
                Some((true, "trajectory differs from the AdaptiveDense oracle"))
            } else if !repeats {
                Some((true, "work counts differ between runs on one seed"))
            } else if !t.clean {
                Some((
                    false,
                    "a chunk did not end Completed, the run degraded or the window did not end",
                ))
            } else {
                None
            }
        });
        if let Some((integrity, reason)) = failure {
            if integrity {
                report.integrity(format!("op {k}: {reason}"));
            }
            report.fail(reason);
        }
    }

    let windows: Vec<&Trajectory> = ops.all.iter().flat_map(|o| &o.windows).collect();
    let window_s: Vec<f64> = windows.iter().map(|w| w.run_s).collect();
    if args.trace {
        layer_metrics(&mut report, &ops, &elab.circuit, &mut tracer)?;
        report.set("job_latency_p90_s", quantile(&window_s, 0.9));
        tracer.write("logic_c432");
    } else {
        let pick = |f: fn(&Op) -> f64| ops.all.iter().map(f).collect::<Vec<f64>>();
        report.set("setup_s", median(&pick(|o| o.setup_s)));
        report.set("wall_s", median(&pick(|o| o.wall_s)));
        let events: u64 = windows.iter().map(|w| w.events).sum();
        report.set("events_per_s", events as f64 / window_s.iter().sum::<f64>());
        report.set("job_latency_p50_s", median(&window_s));
        report.set("jobs_per_s", windows.len() as f64 / ops.wall_s);
        report.set("peak_rss_mib", ops.peak_rss_mib);
    }
    Ok(report)
}

fn layer_metrics(
    report: &mut Report,
    ops: &Ops<Op>,
    circuit: &Circuit,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let traced = ops.phase(true);

    // Layers that run inside `elaborate`, timed again on the same
    // input through their own public functions.
    let build_s = circuit_layers(report, circuit, tracer)?;
    let span = |name: &str| median(&tracer.durations(name));
    let elaborate_s = span("logic.elaborate");
    report.set("logic.elaborate_s", elaborate_s);
    report.set("logic.elaborate_self_s", elaborate_s - build_s);
    report.set("core.engine.new_s", span("core.engine.new"));

    let t = &traced[0].windows[0];
    let run_s = median(
        &traced
            .iter()
            .flat_map(|o| &o.windows)
            .map(|w| w.run_s)
            .collect::<Vec<_>>(),
    );
    let events = t.events as f64;
    report.set("core.engine.run_s", run_s);
    report.set("core.engine.ns_per_event", run_s / events * 1e9);
    report.set("core.engine.events", events);
    if let Some(s) = t.stats {
        report.set(
            "core.solver.recalcs_per_event",
            s.rate_recalcs as f64 / events,
        );
        report.set(
            "core.solver.tests_per_event",
            s.junctions_tested as f64 / events,
        );
        report.set("core.solver.full_refreshes", s.full_refreshes as f64);
    }
    if let Some((hits, misses)) = t.memo {
        report.set("quad.memo.hits", hits as f64);
        report.set("quad.memo.misses", misses as f64);
        report.set(
            "quad.memo.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    report.set("core.health.audits", t.health.audits as f64);
    report.set(
        "core.health.degradations",
        t.health.degradations.len() as f64,
    );
    report.set("core.health.worst_drift", t.health.worst_drift);
    let traced_wall: Vec<f64> = traced.iter().map(|o| o.wall_s).collect();
    let untraced_wall: Vec<f64> = ops.phase(false).iter().map(|o| o.wall_s).collect();
    report.set(
        "trace.overhead_s",
        median(&traced_wall) - median(&untraced_wall),
    );
    Ok(())
}
