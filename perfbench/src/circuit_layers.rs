//! Circuit-build layers, re-measured from outside: `CircuitBuilder::
//! build` on a builder refilled from a circuit's public accessors, and
//! `Matrix::lu` / `Matrix::inverse` on its capacitance matrix.

use std::time::Instant;

use semsim_core::circuit::{Circuit, CircuitBuilder, NodeId};
use semsim_core::constants::E_CHARGE;

use crate::stats::median;
use crate::trace::Tracer;
use crate::Report;

/// Re-measured repetitions stop after this many seconds (one
/// repetition of a large build already exceeds it).
const REPEAT_BUDGET_S: f64 = 0.5;
/// At most this many repetitions per re-measured layer.
const MAX_REPEATS: usize = 9;

/// A builder refilled from the circuit's public accessors, so the
/// build can be timed on its own.
pub fn rebuild(circuit: &Circuit) -> Result<CircuitBuilder, String> {
    let mut nodes: Vec<(usize, Option<usize>, usize)> = (1..circuit.num_leads())
        .map(|l| (circuit.lead_node(l).index(), None, l))
        .chain((0..circuit.num_islands()).map(|i| (circuit.island_node(i).index(), Some(i), 0)))
        .collect();
    nodes.sort_unstable();
    let mut b = CircuitBuilder::new();
    let mut ids = vec![NodeId::GROUND];
    for (index, island, lead) in nodes {
        let id = match island {
            Some(i) => b.add_island_with_charge(circuit.island_background_charges()[i] / E_CHARGE),
            None => b.add_lead(circuit.initial_lead_voltages()[lead]),
        };
        if id.index() != index {
            return Err(format!("node {index} rebuilt as {}", id.index()));
        }
        ids.push(id);
    }
    for j in circuit.junctions() {
        b.add_junction(
            ids[j.node_a.index()],
            ids[j.node_b.index()],
            j.resistance,
            j.capacitance,
        )
        .map_err(|e| e.to_string())?;
    }
    for c in circuit.capacitors() {
        b.add_capacitor(ids[c.node_a.index()], ids[c.node_b.index()], c.capacitance)
            .map_err(|e| e.to_string())?;
    }
    Ok(b)
}

/// Times `f` as re-measured spans named `name`, repeating while cheap.
pub fn remeasure<T>(
    tracer: &mut Tracer,
    name: &'static str,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let start = Instant::now();
    for _ in 0..MAX_REPEATS {
        tracer.enter_remeasured(name);
        let out = f();
        tracer.exit();
        drop(out?);
        if start.elapsed().as_secs_f64() > REPEAT_BUDGET_S {
            break;
        }
    }
    Ok(median(&tracer.durations(name)))
}

/// Reports the build and linear-algebra layers of `circuit` and the
/// structure counts the adaptive solver depends on. Returns the
/// re-measured build time.
pub fn circuit_layers(
    report: &mut Report,
    circuit: &Circuit,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let mut rebuilt_matches = true;
    let build_s = remeasure(tracer, "core.circuit.build", || {
        let rebuilt = rebuild(circuit)?.build().map_err(|e| e.to_string())?;
        rebuilt_matches &=
            rebuilt.inverse_capacitance().as_slice() == circuit.inverse_capacitance().as_slice();
        Ok(rebuilt)
    })?;
    if !rebuilt_matches {
        report.integrity("rebuilt circuit's inverse differs from the original".into());
    }
    let cmatrix = circuit.capacitance_matrix();
    let lu_s = remeasure(tracer, "linalg.lu", || {
        cmatrix.lu().map_err(|e| e.to_string())
    })?;
    let inverse_s = remeasure(tracer, "linalg.inverse", || {
        cmatrix.inverse().map_err(|e| e.to_string())
    })?;

    let n = cmatrix.rows() as f64;
    report.set("linalg.lu_s", lu_s);
    report.set("linalg.inverse_s", inverse_s);
    report.set("linalg.inverse_flops_computed", 2.0 * n * n * n);
    report.set("linalg.inverse_bytes_computed", 8.0 * n * n);
    report.set("core.circuit.build_s", build_s);
    report.set(
        "core.circuit.cinv_nnz",
        circuit.sparse_inverse_capacitance().nnz() as f64,
    );
    let deps: usize = (0..circuit.num_islands())
        .map(|i| circuit.island_dependents(i).len())
        .sum();
    report.set(
        "core.circuit.dependents_per_island",
        deps as f64 / circuit.num_islands() as f64,
    );
    Ok(build_s)
}
