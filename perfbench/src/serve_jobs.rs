//! `serve_jobs`: an in-process `semsim_serve::Server` (one worker,
//! `127.0.0.1:0`, a fresh data directory) driven by two closed-loop
//! clients, tenants `a` and `b`, through `semsim_serve::http`.
//!
//! Each client submits the shipped `set_sweep.cir` with a seed-derived
//! `seed` and small `events`, then streams the job to its `# done`
//! trailer; that submission is the "job". Every fourth submission
//! repeats the client's spec from two submissions earlier, which has
//! finished, and must be answered `"cached": true`. A session starts a
//! server, runs `SUBMISSIONS` per client and drains it; every session
//! of a run submits the same specs. Each job must end `done` with
//! `ok == tasks`, and its streamed lines must equal a local
//! `execute_batch` of the same spec under the daemon's batch options
//! (1 thread, a journal); a job that breaks one of these clears
//! `correct`. A line above the ohmic ceiling fails its submission.
//! A session's `setup_s` runs from `Server::start` to the answer to
//! its first admission: `Server::start` alone takes 0.1–3 ms, set by
//! the host's state and the sockets earlier runs left in TIME_WAIT
//! rather than by the program.

use std::path::{Path, PathBuf};
use std::time::Instant;

use semsim_check::{parse_json, Json};
use semsim_core::batch::{BatchOpts, BatchReport};
use semsim_core::engine::SweepPoint;
use semsim_core::health::{HealthReport, RunOutcome, Supervisor};
use semsim_core::par::ParOpts;
use semsim_netlist::CircuitFile;
use semsim_serve::api::json_escape;
use semsim_serve::http::{fetch, request};
use semsim_serve::{ServeConfig, Server};

use crate::circuit_layers::{circuit_layers, remeasure};
use crate::iv_sweep::ceiling;
use crate::stats::{median, mix, quantile, ScratchDir};
use crate::trace::Tracer;
use crate::{phases, Args, Ops, Report};

const EXAMPLE: &str = include_str!("../../examples/netlists/set_sweep.cir");
/// Measured events per sweep point of a job.
const EVENTS: u64 = 200;
const TENANTS: [&str; 2] = ["a", "b"];
/// Submissions per client per session.
const SUBMISSIONS: usize = 20;
/// Sessions per run (per phase of a traced run), at least.
const MIN_SESSIONS: usize = 3;

/// The `control current outcome` line the daemon renders for a point.
fn render(point: &SweepPoint) -> String {
    let outcome = match point.outcome {
        RunOutcome::Completed => "completed",
        RunOutcome::Blockaded { .. } => "blockaded",
        RunOutcome::WallClockExceeded { .. } => "wall-clock",
        RunOutcome::EventCapReached { .. } => "event-cap",
    };
    format!("{:.6e} {:.6e} {outcome}", point.control, point.current)
}

/// One job spec and what it must produce.
struct Spec {
    seed: u64,
    body: String,
    lines: Vec<String>,
    /// Measured events of all points.
    events: u64,
    report: BatchReport<SweepPoint>,
    /// Points above the ohmic ceiling.
    over_ceiling: usize,
}

/// The job source as the daemon resolves it: seed and events applied.
fn local_file(seed: u64) -> Result<CircuitFile, String> {
    let mut file = CircuitFile::parse(EXAMPLE).map_err(|e| e.to_string())?;
    file.seed = Some(seed);
    let runs = file.jumps.map_or(1, |(_, r)| r);
    file.jumps = Some((EVENTS, runs));
    Ok(file)
}

/// Runs a spec locally with the daemon's batch options.
fn local_run(seed: u64, journal: Option<&Path>) -> Result<(BatchReport<SweepPoint>, f64), String> {
    let file = local_file(seed)?;
    if let Some(path) = journal {
        let _ = std::fs::remove_file(path);
    }
    let opts = BatchOpts {
        par: ParOpts::with_threads(1),
        journal: journal.map(Path::to_path_buf),
        resume: true,
        supervisor: Some(Supervisor {
            wall_clock_budget: None,
            max_events: None,
            blockade_is_outcome: true,
        }),
        ..BatchOpts::default()
    };
    let t = Instant::now();
    let report = file.execute_batch(&opts).map_err(|e| e.to_string())?;
    Ok((report, t.elapsed().as_secs_f64()))
}

fn spec(seed: u64, tenant: &str, journal: &Path) -> Result<Spec, String> {
    let (report, _) = local_run(seed, Some(journal))?;
    let file = local_file(seed)?;
    let compiled = file.compile().map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    let mut events = 0;
    let mut over_ceiling = 0;
    for p in &report.points {
        let point = p.item.as_ref().ok_or("local reference point faulted")?;
        lines.push(render(point));
        events += point.events;
        if point.current.abs() > ceiling(point.control, &file, &compiled.circuit) {
            over_ceiling += 1;
        }
    }
    let body = format!(
        "{{\"source\": \"{}\", \"tenant\": \"{tenant}\", \"seed\": {seed}, \"events\": {EVENTS}}}",
        json_escape(EXAMPLE)
    );
    Ok(Spec {
        seed,
        body,
        lines,
        events,
        report,
        over_ceiling,
    })
}

/// What one submission observed.
#[derive(Default)]
struct Outcome {
    latency_s: f64,
    admit_s: f64,
    /// When the admission was answered.
    admitted: Option<Instant>,
    first_line_s: f64,
    cached: bool,
    rejected: bool,
    /// The first check that failed, if any. Each one vouches for the
    /// served results, so it clears `correct`.
    broken: Option<&'static str>,
    /// Index of the spec submitted.
    spec: usize,
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_number).unwrap_or(-1.0)
}

/// One closed-loop client: submits `plan` in order, streaming each job.
fn client(addr: &str, specs: &[Spec], plan: &[(usize, bool)], tracer: &mut Tracer) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(plan.len());
    for &(index, expect_cached) in plan {
        let spec = &specs[index];
        let mut o = Outcome {
            spec: index,
            ..Outcome::default()
        };
        tracer.next_run();
        tracer.enter("serve.job");
        let t0 = Instant::now();
        let posted = tracer.span("serve.admit", || {
            request(addr, "POST", "/jobs", Some(&spec.body))
        });
        o.admit_s = t0.elapsed().as_secs_f64();
        let admitted = Instant::now();
        let Ok(posted) = posted else {
            tracer.exit();
            o.rejected = true;
            o.broken = Some("admission was not answered with 2xx");
            out.push(o);
            continue;
        };
        let json = parse_json(&posted.body).ok();
        let id = json
            .as_ref()
            .and_then(|j| j.get("id"))
            .and_then(Json::as_str)
            .map(str::to_string);
        o.cached = json
            .as_ref()
            .and_then(|j| j.get("cached"))
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let (Some(id), true) = (id, (200..300).contains(&posted.status)) else {
            tracer.exit();
            o.rejected = true;
            o.broken = Some("admission was not answered with 2xx");
            out.push(o);
            continue;
        };
        o.admitted = Some(admitted);
        let mut streamed = String::new();
        let mut first_line = None;
        let mut done_at = None;
        tracer.enter("serve.stream");
        let status = fetch(
            addr,
            "GET",
            &format!("/jobs/{id}/stream"),
            None,
            &mut |chunk| {
                streamed.push_str(&String::from_utf8_lossy(chunk));
                if first_line.is_none() && streamed.lines().any(|l| !l.starts_with('#')) {
                    first_line = Some(t0.elapsed().as_secs_f64());
                }
                if done_at.is_none() && streamed.contains("# done ") {
                    done_at = Some(t0.elapsed().as_secs_f64());
                }
            },
        );
        tracer.exit();
        tracer.exit();
        o.latency_s = done_at.unwrap_or_else(|| t0.elapsed().as_secs_f64());
        o.first_line_s = first_line.unwrap_or(o.latency_s);

        // Checks, after the latency is taken.
        let lines: Vec<&str> = streamed.lines().collect();
        let status_ok = request(addr, "GET", &format!("/jobs/{id}"), None)
            .ok()
            .and_then(|r| parse_json(&r.body).ok())
            .is_some_and(|j| {
                let counts_ok = j.get("counts").map_or(-1.0, |c| num(c, "ok"));
                j.get("phase").and_then(Json::as_str) == Some("done")
                    && counts_ok == num(&j, "tasks")
            });
        let results_ok = lines.split_last().is_some_and(|(trailer, results)| {
            *trailer == "# done done" && results == spec.lines.as_slice()
        });
        o.broken = if !matches!(status, Ok(200)) || !status_ok {
            Some("job did not end done with ok == tasks")
        } else if !results_ok {
            Some("streamed lines differ from the local execute_batch")
        } else if o.cached != expect_cached {
            Some("cache answer differs from the plan")
        } else {
            None
        };
        out.push(o);
    }
    out
}

/// One timed session.
struct Session {
    /// `Server::start` → first admission answered.
    setup_s: f64,
    wall_s: f64,
    outcomes: Vec<Outcome>,
    journal_bytes: u64,
}

fn session(
    dir: &Path,
    specs: &[Spec],
    plans: &[Vec<(usize, bool)>],
    tracer: &mut Tracer,
) -> Result<Session, String> {
    let data_dir: PathBuf = dir.join("session");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        data_dir: data_dir.clone(),
        ..ServeConfig::default()
    };
    tracer.next_run();
    tracer.enter("serve.session");
    let t0 = Instant::now();
    let (server, _notes) = tracer.span("serve.start", || Server::start(&config))?;
    let addr = server.addr().to_string();
    let (enabled, origin) = (tracer.is_enabled(), tracer.origin());
    let results: Vec<(Vec<Outcome>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let mut t = Tracer::new(enabled, origin);
                    let outcomes = client(addr, specs, plan, &mut t);
                    (outcomes, t)
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.exit();
    server.drain();
    server.join();
    if results.len() != plans.len() {
        return Err("a client thread panicked".into());
    }
    let mut outcomes = Vec::new();
    for (o, t) in results {
        outcomes.extend(o);
        tracer.absorb(t);
    }
    let first_admitted = outcomes.iter().filter_map(|o| o.admitted).min();
    let setup_s = first_admitted.map_or(wall_s, |at| (at - t0).as_secs_f64());
    let journal_bytes = std::fs::read_dir(&data_dir)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "jl"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(Session {
        setup_s,
        wall_s,
        outcomes,
        journal_bytes,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let dir = ScratchDir::new("serve_jobs")?;
    let local_journal = dir.0.join("local.jl");

    // Inputs: per client, a fresh seed per submission except every
    // fourth, which repeats the spec from two submissions earlier.
    let mut specs = Vec::new();
    let mut plans = Vec::new();
    for (c, tenant) in TENANTS.iter().enumerate() {
        let mut plan: Vec<(usize, bool)> = Vec::new();
        for i in 0..SUBMISSIONS {
            if i % 4 == 3 {
                plan.push((plan[i - 2].0, true));
            } else {
                let seed = mix(args.seed, (c * SUBMISSIONS + i) as u64) >> 12;
                specs.push(spec(seed, tenant, &local_journal)?);
                plan.push((specs.len() - 1, false));
            }
        }
        plans.push(plan);
    }

    let mut tracer = Tracer::new(false, args.origin);
    let mut report = Report::new();
    let ops = phases(args, &mut tracer, MIN_SESSIONS, |t| {
        session(&dir.0, &specs, &plans, t)
    })?;
    let sessions = &ops.all;

    for (k, s) in sessions.iter().enumerate() {
        report.attempted += s.outcomes.len() as u64;
        for o in &s.outcomes {
            if let Some(reason) = o.broken {
                report.integrity(format!("session {k}, spec {}: {reason}", o.spec));
                report.fail(reason);
            } else if specs[o.spec].over_ceiling > 0 {
                report.fail("a point exceeds the ohmic ceiling");
            }
        }
        if s.journal_bytes != sessions[0].journal_bytes {
            report.integrity(format!("session {k} journaled a different byte count"));
        }
    }

    let latency: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.outcomes.iter().map(|o| o.latency_s))
        .collect();
    if args.trace {
        layer_metrics(&mut report, &specs, &ops, &local_journal, &mut tracer)?;
        report.set("job_latency_p90_s", quantile(&latency, 0.9));
        tracer.write("serve_jobs");
    } else {
        let pick = |f: &dyn Fn(&Session) -> f64| sessions.iter().map(f).collect::<Vec<f64>>();
        let events = |s: &Session| -> f64 {
            s.outcomes
                .iter()
                .filter(|o| !o.cached)
                .map(|o| specs[o.spec].events as f64)
                .sum()
        };
        report.set("setup_s", median(&pick(&|s| s.setup_s)));
        report.set("wall_s", median(&pick(&|s| s.wall_s)));
        report.set("events_per_s", median(&pick(&|s| events(s) / s.wall_s)));
        report.set("job_latency_p50_s", median(&latency));
        report.set(
            "jobs_per_s",
            median(&pick(&|s| s.outcomes.len() as f64 / s.wall_s)),
        );
        report.set("peak_rss_mib", ops.peak_rss_mib);
    }
    Ok(report)
}

fn layer_metrics(
    report: &mut Report,
    specs: &[Spec],
    ops: &Ops<Session>,
    local_journal: &Path,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let traced = ops.phase(true);
    let outcomes: Vec<&Outcome> = traced.iter().flat_map(|s| s.outcomes.iter()).collect();
    let pick = |f: &dyn Fn(&Outcome) -> f64| outcomes.iter().map(|o| f(o)).collect::<Vec<f64>>();
    report.set("serve.admit_s", median(&pick(&|o| o.admit_s)));
    report.set("serve.first_line_s", median(&pick(&|o| o.first_line_s)));
    report.set(
        "serve.cache_hit_ratio",
        outcomes.iter().filter(|o| o.cached).count() as f64 / outcomes.len() as f64,
    );
    report.set(
        "serve.rejected",
        outcomes.iter().filter(|o| o.rejected).count() as f64,
    );
    let per_session = traced[0].outcomes.iter().filter(|o| !o.cached);
    let events: u64 = per_session.map(|o| specs[o.spec].events).sum();
    report.set("core.engine.events", events as f64);
    report.set("core.journal.bytes", traced[0].journal_bytes as f64);

    // What the daemon runs inside a job, re-measured locally on the
    // same specs: admission's parse and compile, the circuit layers,
    // and the batch itself with and without its journal.
    let parse_s = remeasure(tracer, "netlist.parse", || {
        CircuitFile::parse(EXAMPLE).map_err(|e| e.to_string())
    })?;
    let file = CircuitFile::parse(EXAMPLE).map_err(|e| e.to_string())?;
    let compile_s = remeasure(tracer, "netlist.compile", || {
        file.compile().map_err(|e| e.to_string())
    })?;
    report.set("netlist.parse_s", parse_s);
    report.set("netlist.compile_s", compile_s);
    let compiled = local_file(specs[0].seed)?
        .compile()
        .map_err(|e| e.to_string())?;
    circuit_layers(report, &compiled.circuit, tracer)?;
    let (mut journaled, mut bare) = (Vec::new(), Vec::new());
    for s in specs {
        tracer.enter_remeasured("serve.compute");
        journaled.push(local_run(s.seed, Some(local_journal))?.1);
        tracer.exit();
        bare.push(local_run(s.seed, None)?.1);
    }
    report.set("serve.compute_s", median(&journaled));
    report.set(
        "core.journal.overhead_s",
        median(&journaled) - median(&bare),
    );
    let overhead: Vec<f64> = outcomes
        .iter()
        .filter(|o| !o.cached)
        .map(|o| o.latency_s - journaled[o.spec])
        .collect();
    report.set("serve.overhead_s", median(&overhead));
    let retries: u64 = specs.iter().map(|s| s.report.retries).sum();
    let faulted: usize = specs.iter().map(|s| s.report.counts.faulted).sum();
    report.set("core.batch.retries", retries as f64);
    report.set("core.batch.faulted", faulted as f64);
    let mut health = HealthReport::empty();
    for s in specs {
        health.absorb(&s.report.health);
    }
    report.set("core.health.audits", health.audits as f64);
    report.set("core.health.degradations", health.degradations.len() as f64);
    report.set("core.health.worst_drift", health.worst_drift);

    let untraced: Vec<f64> = ops.phase(false).iter().map(|s| s.wall_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|s| s.wall_s).collect();
    report.set("trace.overhead_s", median(&traced_wall) - median(&untraced));
    Ok(())
}
