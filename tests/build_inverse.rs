//! Bit-identity oracle for the circuit build's `C⁻¹`.
//!
//! `CircuitBuilder::build` factors `C` once and derives `C⁻¹` from the
//! nonzeros of its triangular factors. The reference here is the plain
//! dense definition: one `LuDecomposition::solve` per unit vector, over
//! the full dense factors. Every entry must match to the bit. The same
//! factorization feeds the build's SC003 condition check, which must
//! agree with `check_circuit`'s.

use std::time::Instant;

use semsim::check::{check_circuit, CircuitModel, DiagCode, Diagnostic, Diagnostics, ModelNode};
use semsim::core::circuit::{Circuit, CircuitBuilder, NodeId};
use semsim::core::rng::Rng;
use semsim::linalg::Matrix;
use semsim::logic::{elaborate, Benchmark, SetLogicParams};

/// `A⁻¹` column by column from dense substitutions.
fn dense_reference(a: &Matrix) -> Matrix {
    let n = a.rows();
    let lu = a.lu().expect("factor");
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for col in 0..n {
        e[col] = 1.0;
        let x = lu.solve(&e).expect("solve");
        e[col] = 0.0;
        for (row, v) in x.into_iter().enumerate() {
            inv.set(row, col, v);
        }
    }
    inv
}

fn assert_bits_equal(what: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}: shape"
    );
    for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: entry ({}, {}) is {g:e}, the dense reference {w:e}",
            k / got.cols(),
            k % got.cols()
        );
    }
}

/// `a·b` by the plain triple loop, every term included.
fn dense_product(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut sum = 0.0;
            for k in 0..a.cols() {
                sum += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, sum);
        }
    }
    out
}

/// `C⁻¹` against the dense reference, and `C⁻¹·C_ext` (which skips
/// zero terms) against the full product of the checked `C⁻¹`.
fn assert_circuit_inverse(what: &str, circuit: &Circuit) {
    let reference = dense_reference(circuit.capacitance_matrix());
    assert_bits_equal(what, circuit.inverse_capacitance(), &reference);
    let response = dense_product(&reference, circuit.lead_coupling());
    assert_bits_equal(
        &format!("{what} lead response"),
        circuit.lead_response(),
        &response,
    );
}

#[test]
fn logic_benchmarks_match_the_dense_reference() {
    let params = SetLogicParams::default();
    for bench in Benchmark::all()
        .into_iter()
        .take_while(|&b| b != Benchmark::Ls181)
    {
        let elab = elaborate(&bench.logic(), &params).expect("elaborate");
        assert_circuit_inverse(&format!("{bench:?}"), &elab.circuit);
    }
}

#[test]
fn pivoting_matrix_matches_the_dense_reference() {
    // Random entries in [-1, 1) with a tiny diagonal, so partial
    // pivoting swaps rows; a third of the entries are exact zeros, so
    // the factors have zeros to skip.
    let n = 40;
    let mut rng = Rng::seed_from_u64(5);
    let mut a = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            let v = if r == c {
                1e-3 * (rng.f64() - 0.5)
            } else if rng.gen_bool(1.0 / 3.0) {
                0.0
            } else {
                2.0 * rng.f64() - 1.0
            };
            a.set(r, c, v);
        }
    }
    assert_bits_equal(
        "pivoting matrix",
        &a.inverse().expect("inverse"),
        &dense_reference(&a),
    );

    // A permuted diagonal matrix: every row is swapped, most of the
    // inverse is exact zeros, and the negative pivots turn some of them
    // into −0, whose sign must survive too.
    let mut p = Matrix::zeros(n, n);
    for r in 0..n {
        p.set(r, (r * 7 + 3) % n, if r % 2 == 0 { 2.0 } else { -0.5 });
    }
    let p_inv = p.inverse().expect("inverse");
    assert!(p_inv
        .as_slice()
        .iter()
        .any(|v| *v == 0.0 && v.is_sign_negative()));
    assert_bits_equal("permuted diagonal", &p_inv, &dense_reference(&p));
}

#[test]
fn decoupled_stages_keep_exact_zeros() {
    // Independent SET stages that share only leads: C is block
    // diagonal, so C⁻¹ is exactly zero between stages.
    let mut b = CircuitBuilder::new();
    let vdd = b.add_lead(1e-3);
    let gate = b.add_lead(0.0);
    for stage in 0..6 {
        let i1 = b.add_island();
        let i2 = b.add_island_with_charge(0.1 * stage as f64);
        b.add_junction(vdd, i1, 1e5, 1e-18).expect("junction");
        b.add_junction(i1, i2, 1e5, 2e-18).expect("junction");
        b.add_junction(i2, NodeId::GROUND, 1e5, 1e-18)
            .expect("junction");
        b.add_capacitor(gate, i2, 3e-18).expect("capacitor");
    }
    let circuit = b.build().expect("build");
    let cinv = circuit.inverse_capacitance();
    assert_eq!(cinv.get(0, 2), 0.0, "islands of different stages decouple");
    assert!(cinv.as_slice().iter().filter(|&&v| v == 0.0).count() > 100);
    assert_circuit_inverse("decoupled stages", &circuit);
}

#[test]
fn build_reports_the_same_sc003_as_check_circuit() {
    // Two islands held together by 1 aF and anchored by 1e-33 F on
    // either side (the `sc003_ill_conditioned.cir` shape): κ₁ ≈ 1e15.
    let caps = [1e-33, 1e-18, 1e-33];
    let mut b = CircuitBuilder::new();
    let lead = b.add_lead(0.0);
    let (i1, i2) = (b.add_island(), b.add_island());
    for (&(na, nb), c) in [(lead, i1), (i1, i2), (i2, NodeId::GROUND)]
        .iter()
        .zip(caps)
    {
        b.add_junction(na, nb, 1e6, c).expect("junction");
    }
    let circuit = b.build().expect("ill-conditioned but not singular");

    let mut m = CircuitModel::new();
    let mlead = m.add_lead();
    let (m1, m2) = (m.add_island(), m.add_island());
    for (&(na, nb), c) in [(mlead, m1), (m1, m2), (m2, ModelNode::GROUND)]
        .iter()
        .zip(caps)
    {
        m.add_junction(na, nb, 1e-6, c);
    }
    let sc003 = |diags: &Diagnostics| -> Vec<Diagnostic> {
        diags
            .iter()
            .filter(|d| d.code == DiagCode::IllConditionedCMatrix)
            .cloned()
            .collect()
    };
    let from_check = sc003(&check_circuit(&m));
    assert_eq!(from_check.len(), 1, "check_circuit reports SC003");
    assert_eq!(sc003(circuit.check_warnings()), from_check);
}

/// c432 (1554 islands) takes ~1 min for the dense reference in a debug
/// build; run it in release with `--ignored`.
#[test]
#[ignore = "c432: run in release with --ignored"]
fn c432_matches_the_dense_reference() {
    let params = SetLogicParams::default();
    let t = Instant::now();
    let elab = elaborate(&Benchmark::C432.logic(), &params).expect("elaborate");
    println!(
        "c432: {} islands, elaborate + build {:.3} s (information only)",
        elab.circuit.num_islands(),
        t.elapsed().as_secs_f64()
    );
    assert_circuit_inverse("c432", &elab.circuit);
}
