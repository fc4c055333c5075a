//! Figure 9: compressed operations `sum(X^2)` over ULA (uncompressed) and
//! CLA (compressed) data, for Airline78-like and Mnist8m-like inputs
//! (DESIGN.md substitution X3).

use super::Scale;
use crate::report::Table;
use crate::time_once;
use fusedml_cla::{compress, ops as cops};
use fusedml_core::spoof::{CellSpec, FusedSpec};
use fusedml_hop::DagBuilder;
use fusedml_linalg::ops::{self, AggDir, AggOp, UnaryOp};
use fusedml_linalg::{generate, Matrix};
use fusedml_runtime::spoof::compressed::{execute_cell_over_compressed, qualifies};
use fusedml_runtime::{Engine, FusionMode};

/// The Cell operator `Gen` compiles for `sum(X^2)` over `x`'s geometry: a
/// single-input, sparse-safe full aggregate, so over CLA the skeleton calls
/// it only for the distinct dictionary values of each column group, scaled
/// by their counts (paper §5.2).
fn gen_cell_spec(x: &Matrix) -> CellSpec {
    let mut b = DagBuilder::new();
    let xr = b.read("X", x.rows(), x.cols(), x.sparsity());
    let sq = b.sq(xr);
    let total = b.sum(sq);
    let script = Engine::new(FusionMode::Gen).compile(&b.build(vec![total]));
    let plan = script.plan().expect("Gen compiles sum(X^2) to a fusion plan");
    plan.operators
        .iter()
        .find_map(|o| match &o.op.spec {
            FusedSpec::Cell(spec) if qualifies(spec, o.cplan.sides.len()) => Some(spec.clone()),
            _ => None,
        })
        .expect("Gen fuses sum(X^2) into a Cell operator that runs over CLA")
}

fn run_dataset(name: &str, x: &Matrix, reps: usize) {
    let (cm, comp_secs) = time_once(|| compress(x));
    println!(
        "\n[{name}] {}x{}, sparsity {:.4}, CLA ratio {:.2}x (compress {:.2}s)",
        x.rows(),
        x.cols(),
        x.sparsity(),
        cm.compression_ratio(),
        comp_secs
    );
    let mut t = Table::new(
        &format!("Figure 9: sum(X^2) on {name}"),
        &["storage", "Base", "Fused/Gen", "value"],
    );
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    // ULA Base: materialize X^2, then sum (two operators).
    let ula_base = median(
        (0..reps)
            .map(|_| {
                time_once(|| {
                    let sq = ops::unary(x, UnaryOp::Pow2);
                    ops::agg(&sq, AggOp::Sum, AggDir::Full).get(0, 0)
                })
                .1
            })
            .collect(),
    );
    // ULA Fused/Gen: single-pass sum of squares.
    let (vref, _) = time_once(|| ops::agg(x, AggOp::SumSq, AggDir::Full).get(0, 0));
    let ula_gen = median(
        (0..reps)
            .map(|_| time_once(|| ops::agg(x, AggOp::SumSq, AggDir::Full).get(0, 0)).1)
            .collect(),
    );
    t.row(vec!["ULA".into(), Table::secs(ula_base), Table::secs(ula_gen), format!("{vref:.3e}")]);
    // CLA Base/Fused: dictionary-only sum of squares.
    let cla_fused = median((0..reps).map(|_| time_once(|| cops::sum_sq(&cm)).1).collect());
    // CLA Gen: the generated operator over distinct values.
    let spec = gen_cell_spec(x);
    let run_gen = || execute_cell_over_compressed(&spec, &cm).get(0, 0);
    let (vgen, _) = time_once(run_gen);
    let cla_gen = median((0..reps).map(|_| time_once(run_gen).1).collect());
    assert!(
        fusedml_linalg::approx_eq(vgen, vref, 1e-6),
        "CLA Gen result must match: {vgen} vs {vref}"
    );
    t.row(vec!["CLA".into(), Table::secs(cla_fused), Table::secs(cla_gen), format!("{vgen:.3e}")]);
    t.print();
}

/// Runs Figure 9 on both dataset substitutes.
pub fn run(scale: Scale) {
    let reps = scale.pick(3, 5);
    let (ar, ac) = scale.pick((50_000, 29), (500_000, 29));
    let airline = generate::airline_like(ar, ac, 20, 9);
    run_dataset("Airline78-like (dense, low-cardinality)", &airline, reps);
    let (mr, mc) = scale.pick((20_000, 784), (100_000, 784));
    let mnist = generate::mnist_like(mr, mc, 0.25, 10);
    run_dataset("Mnist8m-like (sparse 0.25)", &mnist, reps);
}
