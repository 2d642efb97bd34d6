//! Cross-backend equivalence suite: the chunked SoA backend must
//! produce **bit-identical trajectories** to the scalar reference
//! backend (see `semsim::core::backend` for the per-kernel contract) —
//! across the adaptive threshold range, on normal and superconducting
//! circuits, for every chunk width (including widths that do not
//! divide the junction count, exercising the tail lanes), and under
//! the deterministic parallel drivers at any thread count.
//!
//! Everything here compares full `Record`s plus the raw bits of the
//! accumulated observables, so a single reassociated rounding anywhere
//! in the hot loop fails the suite.

use semsim::core::backend::BackendSpec;
use semsim::core::constants::{thermal_energy, E_CHARGE};
use semsim::core::engine::{Record, RunLength, SimConfig, Simulation, SolverSpec};
use semsim::core::par::{par_sweep, ParOpts};
use semsim::core::superconduct::{gap_at, QpRateTable};
use semsim::logic::{elaborate, Benchmark, Elaborated, SetLogicParams};
use semsim_bench::devices::{fig5_params, fig5_set, symmetric_set, SetDevice};

/// Threshold sweep: θ = 0 (test everything) through θ = 1 (flag almost
/// nothing), straddling the paper's 0.01–0.3 operating range.
const THETAS: [f64; 6] = [0.0, 0.05, 0.1, 0.3, 0.5, 1.0];

/// Chunk widths: 1 (degenerate), powers of two, and non-divisors of
/// the junction counts under test so the tail path runs.
const WIDTHS: [usize; 6] = [1, 2, 3, 4, 5, 8];

fn adaptive(theta: f64) -> SolverSpec {
    SolverSpec::Adaptive {
        threshold: theta,
        refresh_interval: 500,
    }
}

/// Runs one trajectory and returns its record.
fn run_record(dev: &SetDevice, cfg: SimConfig, vds: f64, vg: f64, events: u64) -> Record {
    let mut sim = Simulation::new(&dev.circuit, cfg).expect("simulation");
    sim.set_lead_voltage(dev.source_lead, vds / 2.0)
        .expect("bias");
    sim.set_lead_voltage(dev.drain_lead, -vds / 2.0)
        .expect("bias");
    sim.set_lead_voltage(dev.gate_lead, vg).expect("gate");
    sim.run(RunLength::Events(events)).expect("run")
}

/// Asserts two records are equal **to the bit** in every observable
/// that accumulates floating-point history.
fn assert_records_bit_identical(what: &str, a: &Record, b: &Record) {
    assert_eq!(a, b, "{what}: records differ");
    assert_eq!(
        a.duration.to_bits(),
        b.duration.to_bits(),
        "{what}: durations differ in the last ulp"
    );
    for (i, (x, y)) in a
        .electron_counts
        .iter()
        .zip(b.electron_counts.iter())
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: electron count {i} differs in the last ulp"
        );
    }
}

#[test]
fn theta_sweep_bit_identical_on_normal_set() {
    let dev = symmetric_set(1e6, 1e-18, 3e-18, 0.5).expect("device");
    for theta in THETAS {
        let mk = |backend| {
            SimConfig::new(4.2)
                .with_seed(11)
                .with_solver(adaptive(theta))
                .with_backend(backend)
        };
        let scalar = run_record(&dev, mk(BackendSpec::Scalar), 20e-3, 10e-3, 4_000);
        let chunked = run_record(&dev, mk(BackendSpec::chunked()), 20e-3, 10e-3, 4_000);
        assert_records_bit_identical(&format!("SET θ={theta}"), &scalar, &chunked);
    }
}

#[test]
fn theta_sweep_bit_identical_on_superconducting_set() {
    let dev = fig5_set().expect("device");
    let params = fig5_params().expect("params");
    let temp = 0.52;
    let gap = gap_at(&params, temp);
    let kt = thermal_energy(temp);
    let ec = E_CHARGE * E_CHARGE / (2.0 * 234e-18);
    let w_max = 4.0 * gap + 40.0 * kt + 8.0 * ec + 4.0 * E_CHARGE * 0.011;
    let table = QpRateTable::build(gap, kt, w_max).expect("qp table");
    // The superconducting path routes every first-order rate through
    // the quasi-particle lookup table — the backend's batched
    // interpolation must match the scalar per-query path exactly.
    for theta in [0.0, 0.1, 0.5] {
        let mk = |backend| {
            SimConfig::new(temp)
                .with_seed(23)
                .with_solver(adaptive(theta))
                .with_superconducting(params)
                .with_qp_table(table.clone())
                .with_backend(backend)
        };
        let scalar = run_record(&dev, mk(BackendSpec::Scalar), 3.2e-3, 0.0, 2_000);
        let chunked = run_record(&dev, mk(BackendSpec::chunked()), 3.2e-3, 0.0, 2_000);
        assert_records_bit_identical(&format!("SSET θ={theta}"), &scalar, &chunked);
    }
}

/// Runs the 2-to-10 decoder (76 junctions — no chunk width in
/// [`WIDTHS`] divides it except 1, 2 and 4) with all inputs high.
fn run_logic(elab: &Elaborated, inputs: &[usize], cfg: SimConfig, events: u64) -> Record {
    let params = SetLogicParams::default();
    let mut sim = Simulation::new(&elab.circuit, cfg).expect("simulation");
    for &lead in inputs {
        sim.set_lead_voltage(lead, params.vdd).expect("input");
    }
    sim.run(RunLength::Events(events)).expect("run")
}

#[test]
fn chunk_width_sweep_bit_identical_on_logic_benchmark() {
    let logic = Benchmark::Decoder2To10.logic();
    let params = SetLogicParams::default();
    let elab = elaborate(&logic, &params).expect("elaborate");
    let inputs: Vec<usize> = logic
        .inputs
        .iter()
        .map(|name| elab.input_lead(name).expect("input lead"))
        .collect();
    let mk = |backend| {
        SimConfig::new(params.temperature)
            .with_seed(7)
            .with_solver(adaptive(0.05))
            .with_backend(backend)
    };
    let scalar = run_logic(&elab, &inputs, mk(BackendSpec::Scalar), 2_000);
    for width in WIDTHS {
        let chunked = run_logic(&elab, &inputs, mk(BackendSpec::Chunked { width }), 2_000);
        assert_records_bit_identical(&format!("decoder width={width}"), &scalar, &chunked);
    }
}

#[test]
fn chunked_adaptive_matches_dense_reference_oracle() {
    // `AdaptiveDense` recomputes dependency neighbourhoods from the
    // dense matrices every event on the scalar kernels — the engine
    // pins the oracle to the reference backend even when the config
    // asks for chunked. The optimized chunked solver must reproduce it
    // bit for bit.
    let logic = Benchmark::Decoder2To10.logic();
    let params = SetLogicParams::default();
    let elab = elaborate(&logic, &params).expect("elaborate");
    let inputs: Vec<usize> = logic
        .inputs
        .iter()
        .map(|name| elab.input_lead(name).expect("input lead"))
        .collect();
    let mk = |solver| {
        SimConfig::new(params.temperature)
            .with_seed(9)
            .with_solver(solver)
            .with_backend(BackendSpec::chunked())
    };
    let chunked = run_logic(&elab, &inputs, mk(adaptive(0.05)), 2_000);
    let oracle = run_logic(
        &elab,
        &inputs,
        mk(SolverSpec::AdaptiveDense {
            threshold: 0.05,
            refresh_interval: 500,
        }),
        2_000,
    );
    // Stats legitimately differ (the dense mode bypasses the memo), so
    // compare the trajectory observables, not the whole record.
    assert_eq!(chunked.events, oracle.events);
    assert_eq!(chunked.duration.to_bits(), oracle.duration.to_bits());
    for (i, (x, y)) in chunked
        .electron_counts
        .iter()
        .zip(oracle.electron_counts.iter())
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "electron count {i} diverges from the dense oracle"
        );
    }
    assert_eq!(chunked.outcome, oracle.outcome);
}

#[test]
fn parallel_sweeps_bit_identical_across_backends_and_threads() {
    let dev = symmetric_set(1e6, 1e-18, 3e-18, 0.5).expect("device");
    let biases: Vec<f64> = (1..=6).map(|i| i as f64 * 5e-3).collect();
    let sweep = |backend, threads| {
        let cfg = SimConfig::new(4.2)
            .with_seed(31)
            .with_solver(adaptive(0.05))
            .with_backend(backend);
        par_sweep(
            &dev.circuit,
            &cfg,
            dev.j1,
            &biases,
            200,
            2_000,
            ParOpts::with_threads(threads),
            |sim, vds| {
                sim.set_lead_voltage(dev.source_lead, vds / 2.0)?;
                sim.set_lead_voltage(dev.drain_lead, -vds / 2.0)?;
                sim.set_lead_voltage(dev.gate_lead, 10e-3)
            },
        )
        .expect("sweep")
        .iter()
        .map(|p| (p.control.to_bits(), p.current.to_bits(), p.events))
        .collect::<Vec<_>>()
    };
    let reference = sweep(BackendSpec::Scalar, 1);
    for threads in 1..=8 {
        assert_eq!(
            sweep(BackendSpec::chunked(), threads),
            reference,
            "chunked backend on {threads} thread(s) diverges from the \
             serial scalar sweep"
        );
    }
}

#[test]
fn one_circuit_drives_both_backends_in_any_order_and_on_two_threads() {
    // The chunked backend's transposed tables are built on the circuit
    // the first time a chunked simulation starts. Whether that happens
    // before, after or concurrently with a scalar run on the same
    // circuit must not change either trajectory.
    let logic = Benchmark::Decoder2To10.logic();
    let params = SetLogicParams::default();
    let fresh = || elaborate(&logic, &params).expect("elaborate");
    let elab = fresh();
    let inputs: Vec<usize> = logic
        .inputs
        .iter()
        .map(|name| elab.input_lead(name).expect("input lead"))
        .collect();
    let mk = |backend| {
        SimConfig::new(params.temperature)
            .with_seed(13)
            .with_solver(adaptive(0.05))
            .with_backend(backend)
    };
    let run = |elab: &Elaborated, backend| run_logic(elab, &inputs, mk(backend), 2_000);

    let scalar = run(&elab, BackendSpec::Scalar);
    let chunked = run(&elab, BackendSpec::chunked());
    assert_records_bit_identical("scalar, then chunked", &scalar, &chunked);

    let elab = fresh();
    let chunked_first = run(&elab, BackendSpec::chunked());
    let scalar_second = run(&elab, BackendSpec::Scalar);
    assert_records_bit_identical("chunked first", &scalar, &chunked_first);
    assert_records_bit_identical("scalar second", &scalar, &scalar_second);

    let elab = &fresh();
    let [a, b] = std::thread::scope(|s| {
        [BackendSpec::chunked(), BackendSpec::Scalar]
            .map(|backend| s.spawn(move || run(elab, backend)))
            .map(|h| h.join().expect("thread"))
    });
    assert_records_bit_identical("chunked on a second thread", &scalar, &a);
    assert_records_bit_identical("scalar on a second thread", &scalar, &b);
}
