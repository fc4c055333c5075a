//! Figure 8: operations performance of the example patterns
//! (Cell, MAgg, Row, Outer) over dense and sparse data.

use super::Scale;
use crate::report::Table;
use crate::{mode_label, time_dag_stats, MODES};
use fusedml_hop::interp::Bindings;
use fusedml_hop::{DagBuilder, HopDag};
use fusedml_linalg::{generate, Matrix};

/// One measured point of a Figure 8 panel, as serialized to
/// `BENCH_fig8.json` (no external JSON dependency — fields are written by
/// hand in the private `write_json` helper).
#[derive(Clone, Debug)]
pub struct PanelPoint {
    /// Panel caption (e.g. `"fig8a"`).
    pub panel: String,
    /// The swept x value: `cells/input` for size sweeps, sparsity for 8(h).
    pub x: String,
    /// Execution mode label (`Base`, `Fused`, `Gen`, …).
    pub mode: String,
    /// Median wall-clock seconds.
    pub secs: f64,
    /// Fused operators executed in one run.
    pub fused_ops: usize,
    /// Fused operators that ran a product chain, mv-chain or row tile.
    pub mono_ops: usize,
    /// Fused operators that ran the tile/band interpreter.
    pub interp_fused_ops: usize,
}

/// Writes the collected panel points as `BENCH_fig8.json` in the current
/// directory: per point, how many fused operators ran a kernel of their own
/// (`mono_ops`) and how many the interpreter. A label, not a gate — the
/// interpreter is the faster path for every body but a product chain.
fn write_json(scale: Scale, points: &[PanelPoint]) {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"fig8\",\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"panel\": \"{}\", \"x\": \"{}\", \"mode\": \"{}\",              \"secs\": {:.6}, \"fused_ops\": {}, \"mono_ops\": {},              \"interp_fused_ops\": {}}}{}\n",
            p.panel,
            p.x,
            p.mode,
            p.secs,
            p.fused_ops,
            p.mono_ops,
            p.interp_fused_ops,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write("BENCH_fig8.json", &out) {
        Ok(()) => println!("wrote BENCH_fig8.json ({} points)", points.len()),
        Err(e) => eprintln!("could not write BENCH_fig8.json: {e}"),
    }
}

fn bind(pairs: Vec<(&str, Matrix)>) -> Bindings {
    pairs.into_iter().map(|(n, m)| (n.to_string(), m)).collect()
}

/// `sum(X ⊙ Y ⊙ Z)` — Fig. 8(a)/(b).
pub fn cell_dag(rows: usize, cols: usize, sp: f64) -> (HopDag, Vec<&'static str>) {
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, sp);
    let y = b.read("Y", rows, cols, sp);
    let z = b.read("Z", rows, cols, sp);
    let m1 = b.mult(x, y);
    let m2 = b.mult(m1, z);
    let s = b.sum(m2);
    (b.build(vec![s]), vec!["X", "Y", "Z"])
}

/// `sum(X ⊙ Y), sum(X ⊙ Z)` — Fig. 8(c)/(d).
pub fn magg_dag(rows: usize, cols: usize, sp: f64) -> (HopDag, Vec<&'static str>) {
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, sp);
    let y = b.read("Y", rows, cols, sp);
    let z = b.read("Z", rows, cols, sp);
    let a = b.mult(x, y);
    let c = b.mult(x, z);
    let s1 = b.sum(a);
    let s2 = b.sum(c);
    (b.build(vec![s1, s2]), vec!["X", "Y", "Z"])
}

/// `t(X) %*% (X %*% v)` — Fig. 8(e)/(f); `V` with k columns for Fig. 8(g).
pub fn row_dag(rows: usize, cols: usize, k: usize, sp: f64) -> (HopDag, Vec<&'static str>) {
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, sp);
    let v = b.read("v", cols, k, 1.0);
    let xv = b.mm(x, v);
    let xt = b.t(x);
    let out = b.mm(xt, xv);
    (b.build(vec![out]), vec!["X", "v"])
}

/// `t(X) %*% (w ⊙ (X %*% v))` — the mlogreg/GLM inner-loop shape over a
/// sparse X: exercises the sparse-aware Row band execution (dot and axpy
/// over row non-zeros, no densification of the main or sides).
pub fn row_sparse_dag(rows: usize, cols: usize, sp: f64) -> (HopDag, Vec<&'static str>) {
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, sp);
    let v = b.read("v", cols, 1, 1.0);
    let w = b.read("w", rows, 1, 1.0);
    let xv = b.mm(x, v);
    let wxv = b.mult(w, xv);
    let xt = b.t(x);
    let out = b.mm(xt, wxv);
    (b.build(vec![out]), vec!["X", "v", "w"])
}

/// `sum(X ⊙ log(U V^T + 1e-15))` — Fig. 8(h).
pub fn outer_dag(n: usize, m: usize, rank: usize, sp: f64) -> (HopDag, Vec<&'static str>) {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, sp);
    let u = b.read("U", n, rank, 1.0);
    let v = b.read("V", m, rank, 1.0);
    let vt = b.t(v);
    let uvt = b.mm(u, vt);
    let eps = b.lit(1e-15);
    let plus = b.add(uvt, eps);
    let lg = b.log(plus);
    let prod = b.mult(x, lg);
    let s = b.sum(prod);
    (b.build(vec![s]), vec!["X", "U", "V"])
}

#[allow(clippy::too_many_arguments)]
fn sweep(
    panel: &str,
    caption: &str,
    sizes: &[usize],
    cols: usize,
    sp: f64,
    build: impl Fn(usize, usize, f64) -> (HopDag, Vec<&'static str>),
    data: impl Fn(usize, usize, f64, u64) -> Matrix,
    reps: usize,
    points: &mut Vec<PanelPoint>,
) {
    let mut t = Table::new(caption, &["cells/input", "Base", "Fused", "Gen", "Gen-FA", "Gen-FNR"]);
    for &rows in sizes {
        let (dag, names) = build(rows, cols, sp);
        let bindings = bind(
            names
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    if n == "v" {
                        (n, generate::rand_dense(cols, dag_v_cols(&dag), -1.0, 1.0, 99))
                    } else if n == "w" {
                        (n, generate::rand_dense(rows, 1, 0.1, 1.0, 98))
                    } else {
                        (n, data(rows, cols, sp, 42 + i as u64))
                    }
                })
                .collect(),
        );
        let mut row = vec![format!("{}", rows * cols)];
        for m in MODES {
            let ts = time_dag_stats(m, &dag, &bindings, reps);
            row.push(Table::secs(ts.secs));
            points.push(PanelPoint {
                panel: panel.to_string(),
                x: format!("{}", rows * cols),
                mode: mode_label(m).to_string(),
                secs: ts.secs,
                fused_ops: ts.fused_ops,
                mono_ops: ts.mono_ops,
                interp_fused_ops: ts.interp_fused_ops,
            });
        }
        t.row(row);
    }
    t.print();
}

/// Extracts the v-matrix column count from the row DAG (helper).
fn dag_v_cols(dag: &HopDag) -> usize {
    dag.iter()
        .find_map(|h| match &h.kind {
            fusedml_hop::OpKind::Read { name } if name == "v" => Some(h.size.cols),
            _ => None,
        })
        .unwrap_or(1)
}

/// Runs all Figure 8 panels.
pub fn run(scale: Scale) {
    let reps = scale.pick3(1, 3, 5);
    let sizes: Vec<usize> =
        scale.pick3(vec![1_000], vec![100, 1_000, 10_000], vec![1_000, 10_000, 100_000]);
    let cols = 1_000;
    let mut points: Vec<PanelPoint> = Vec::new();

    sweep(
        "fig8a",
        "Figure 8(a): sum(X⊙Y⊙Z), dense",
        &sizes,
        cols,
        1.0,
        cell_dag,
        |r, c, _s, seed| generate::rand_dense(r, c, -1.0, 1.0, seed),
        reps,
        &mut points,
    );
    sweep(
        "fig8b",
        "Figure 8(b): sum(X⊙Y⊙Z), sparse (0.1)",
        &sizes,
        cols,
        0.1,
        cell_dag,
        |r, c, s, seed| generate::rand_matrix(r, c, -1.0, 1.0, s, seed),
        reps,
        &mut points,
    );
    sweep(
        "fig8c",
        "Figure 8(c): sum(X⊙Y), sum(X⊙Z), dense (multi-aggregate)",
        &sizes,
        cols,
        1.0,
        magg_dag,
        |r, c, _s, seed| generate::rand_dense(r, c, -1.0, 1.0, seed),
        reps,
        &mut points,
    );
    sweep(
        "fig8d",
        "Figure 8(d): sum(X⊙Y), sum(X⊙Z), sparse (0.1)",
        &sizes,
        cols,
        0.1,
        magg_dag,
        |r, c, s, seed| generate::rand_matrix(r, c, -1.0, 1.0, s, seed),
        reps,
        &mut points,
    );
    sweep(
        "fig8e",
        "Figure 8(e): X^T(Xv), dense",
        &sizes,
        cols,
        1.0,
        |r, c, s| row_dag(r, c, 1, s),
        |r, c, _s, seed| generate::rand_dense(r, c, -1.0, 1.0, seed),
        reps,
        &mut points,
    );
    sweep(
        "fig8f",
        "Figure 8(f): X^T(Xv), sparse (0.1)",
        &sizes,
        cols,
        0.1,
        |r, c, s| row_dag(r, c, 1, s),
        |r, c, s, seed| generate::rand_matrix(r, c, -1.0, 1.0, s, seed),
        reps,
        &mut points,
    );
    sweep(
        "fig8g",
        "Figure 8(g): X^T(XV), dense, ncol(V)=2",
        &sizes,
        cols,
        1.0,
        |r, c, s| row_dag(r, c, 2, s),
        |r, c, _s, seed| generate::rand_dense(r, c, -1.0, 1.0, seed),
        reps,
        &mut points,
    );
    sweep(
        "fig8rs",
        "Figure 8(row-sparse): X^T(w⊙(Xv)), mlogreg-style, sparse (0.01)",
        &sizes,
        cols,
        0.01,
        row_sparse_dag,
        |r, c, s, seed| generate::rand_matrix(r, c, -1.0, 1.0, s, seed),
        reps,
        &mut points,
    );

    // Fig. 8(h): sparsity sweep with fixed geometry.
    let (n, m) = scale.pick((2_000, 2_000), (20_000, 2_000));
    let mut t = Table::new(
        "Figure 8(h): sum(X⊙log(UV^T+1e-15)), rank 100, sparsity sweep",
        &["sparsity", "Base", "Fused", "Gen", "Gen-FA", "Gen-FNR"],
    );
    for sp in [1.0, 0.1, 0.01, 0.001, 0.0001] {
        let (dag, _) = outer_dag(n, m, 100, sp);
        let bindings = bind(vec![
            ("X", generate::rand_matrix(n, m, 1.0, 5.0, sp, 1)),
            ("U", generate::rand_dense(n, 100, 0.1, 1.0, 2)),
            ("V", generate::rand_dense(m, 100, 0.1, 1.0, 3)),
        ]);
        let mut row = vec![format!("{sp}")];
        for md in MODES {
            let ts = time_dag_stats(md, &dag, &bindings, reps);
            row.push(Table::secs(ts.secs));
            points.push(PanelPoint {
                panel: "fig8h".to_string(),
                x: format!("{sp}"),
                mode: mode_label(md).to_string(),
                secs: ts.secs,
                fused_ops: ts.fused_ops,
                mono_ops: ts.mono_ops,
                interp_fused_ops: ts.interp_fused_ops,
            });
        }
        t.row(row);
    }
    t.print();

    write_json(scale, &points);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_core::spoof::block::{Kernel, RowShape};
    use fusedml_runtime::{Engine, FusionMode};

    /// The mlogreg-style bench pattern must select a Row operator whose
    /// lowered kernel executes sparse mains over non-zeros through the
    /// mv-chain fast path — the property the row-sparse panel measures.
    #[test]
    fn row_sparse_pattern_compiles_to_sparse_mv_chain() {
        let (dag, _) = row_sparse_dag(500, 80, 0.01);
        let exec = Engine::new(FusionMode::Gen);
        let plan = exec.plan_for(&dag);
        let kernel = plan
            .operators
            .iter()
            .find_map(|o| match &o.op.kernel {
                Kernel::Row(k) => Some(k),
                Kernel::Block(_) => None,
            })
            .expect("Gen must fuse the pattern into a Row operator");
        assert!(kernel.sparse_main_ok, "sparse X must execute over non-zeros");
        assert!(
            matches!(kernel.shape, Some(RowShape::MvChain { .. })),
            "expected the mv-chain fast path, got {:?}",
            kernel.shape
        );
        // The whole-vector load of `v` must be hoisted out of the row loop.
        assert!(!kernel.invariant.is_empty());
    }
}
