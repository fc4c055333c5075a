//! `ops_dense` and `ops_sparse`: the paper's Figure 8 patterns through
//! `FusionMode::Gen`, one engine thread.
//!
//! * `ops_dense` — every input is 8000×1000 dense (64 MB; three of them
//!   and a 64 MB output are the size of the 260 MiB L3, which is shared
//!   with the host's other tenants, so these stream from memory. At 32 MB
//!   they were served from that cache or not, as the neighbours decided,
//!   and the run-to-run spread of the round was two to three times wider).
//!   The kernel layer (`runtime::spoof`, `core::spoof::mono`,
//!   `linalg::simd`) does all the work; compile does none.
//! * `ops_sparse` — the same kernel layer driven through CSR iteration and
//!   sparse-safe skipping, so a dense-side gain paid for on the sparse side
//!   shows here; fig8h at 0.001 is where `Gen` currently loses to `Gen-FA`.

use super::{Check, PanelSet, Scale};
use crate::gen::{self, Rng};
use crate::panel::{Class, Merge, PanelSpec, Template, Work};
use fusedml_bench::experiments::fig8;
use fusedml_hop::DagBuilder;
use fusedml_linalg::Matrix;
use fusedml_runtime::{Engine, EngineBuilder, FusionMode};

/// Input geometry of the `ops_*` workloads.
#[derive(Clone, Copy)]
pub struct Shapes {
    /// `(rows, cols)` of every `ops_dense` input.
    pub dense: (usize, usize),
    /// `(rows, cols)` of the CSR inputs of `ops_sparse`.
    pub sparse: (usize, usize),
    /// `(n, m, rank)` of the fig8h factorisation.
    pub outer: (usize, usize, usize),
}

pub fn shapes(scale: Scale) -> Shapes {
    match scale {
        Scale::Full => {
            Shapes { dense: (8000, 1000), sparse: (4000, 1000), outer: (6000, 2000, 100) }
        }
        Scale::Quick => Shapes { dense: (200, 100), sparse: (400, 200), outer: (500, 200, 10) },
    }
}

/// A single-threaded `Gen` engine: one scheduler worker; kernels stay on
/// the calling thread because `main` pins `linalg::par` to one thread.
pub fn engine_1t(mode: FusionMode) -> Engine {
    EngineBuilder::new(mode).workers(1).build()
}

fn dense_bytes(m: &Matrix) -> f64 {
    (m.rows() * m.cols() * 8) as f64
}

/// CSR bytes actually walked: values + column indices + row pointers.
fn csr_bytes(m: &Matrix) -> f64 {
    (m.nnz() * 16 + (m.rows() + 1) * 8) as f64
}

/// `X ⊙ Y + Z` with a matrix output: reads three inputs and writes a fourth
/// array beside them through the pool.
fn map_dag(rows: usize, cols: usize) -> fusedml_hop::HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let y = b.read("Y", rows, cols, 1.0);
    let z = b.read("Z", rows, cols, 1.0);
    let xy = b.mult(x, y);
    let out = b.add(xy, z);
    b.build(vec![out])
}

/// The `ops_dense` panel specs on `rows`×`cols` inputs.
pub fn dense_specs(seed: u64, rows: usize, cols: usize) -> Vec<PanelSpec> {
    let x = gen::dense(rows, cols, 0.1, 1.0, &mut Rng::new(seed, "dense.X"));
    let y = gen::dense(rows, cols, 0.1, 1.0, &mut Rng::new(seed, "dense.Y"));
    let z = gen::dense(rows, cols, 0.1, 1.0, &mut Rng::new(seed, "dense.Z"));
    let v1 = gen::dense(cols, 1, 0.0, 1.0, &mut Rng::new(seed, "dense.v1"));
    let v2 = gen::dense(cols, 2, 0.0, 1.0, &mut Rng::new(seed, "dense.v2"));
    let one = dense_bytes(&x);
    let cells = (rows * cols) as f64;
    let block = (1 << 20) / cols.max(1); // 8 MB oracle blocks
    let xyz = || vec![("X", x.clone()), ("Y", y.clone()), ("Z", z.clone())];
    vec![
        PanelSpec {
            name: "fig8a_cell",
            template: Template::Cell,
            build: Box::new(move |r| fig8::cell_dag(r, cols, 1.0).0),
            rows,
            inputs: xyz(),
            class: Class::Reduce,
            merge: Merge::Sum,
            block,
            work: Work { bytes: 3.0 * one, flops: 3.0 * cells, nnz: cells },
        },
        PanelSpec {
            name: "map_cell",
            template: Template::Cell,
            build: Box::new(move |r| map_dag(r, cols)),
            rows,
            inputs: xyz(),
            class: Class::Map,
            merge: Merge::Concat,
            block,
            work: Work { bytes: 4.0 * one, flops: 2.0 * cells, nnz: cells },
        },
        PanelSpec {
            name: "fig8c_magg",
            template: Template::MAgg,
            build: Box::new(move |r| fig8::magg_dag(r, cols, 1.0).0),
            rows,
            inputs: xyz(),
            class: Class::Reduce,
            merge: Merge::Sum,
            block,
            work: Work { bytes: 3.0 * one, flops: 4.0 * cells, nnz: cells },
        },
        PanelSpec {
            name: "fig8e_row",
            template: Template::Row,
            build: Box::new(move |r| fig8::row_dag(r, cols, 1, 1.0).0),
            rows,
            inputs: vec![("X", x.clone()), ("v", v1)],
            class: Class::Reduce,
            merge: Merge::Sum,
            block,
            work: Work { bytes: one, flops: 4.0 * cells, nnz: cells },
        },
        PanelSpec {
            name: "fig8g_row_k2",
            template: Template::Row,
            build: Box::new(move |r| fig8::row_dag(r, cols, 2, 1.0).0),
            rows,
            inputs: vec![("X", x.clone()), ("v", v2)],
            class: Class::Reduce,
            merge: Merge::Sum,
            block,
            work: Work { bytes: one, flops: 8.0 * cells, nnz: cells },
        },
    ]
}

pub fn dense(seed: u64, scale: Scale) -> PanelSet {
    let (rows, cols) = shapes(scale).dense;
    PanelSet::build(engine_1t(FusionMode::Gen), &dense_specs(seed, rows, cols), Check::Oracle)
}

/// The `ops_sparse` panel specs: Cell/MAgg/Row on `rows`×`cols` CSR inputs,
/// Outer on an `n`×`m` rank-`rank` factorisation.
pub fn sparse_specs(
    seed: u64,
    (rows, cols): (usize, usize),
    (n, m, rank): (usize, usize, usize),
) -> Vec<PanelSpec> {
    let sp = |name: &str, r, c, s, lo, hi| gen::sparse(r, c, s, lo, hi, &mut Rng::new(seed, name));
    let x = sp("sparse.X", rows, cols, 0.1, 0.1, 1.0);
    let y = sp("sparse.Y", rows, cols, 0.1, 0.1, 1.0);
    let z = sp("sparse.Z", rows, cols, 0.1, 0.1, 1.0);
    let xw = sp("sparse.Xw", rows, cols, 0.01, 0.1, 1.0);
    let v = gen::dense(cols, 1, 0.0, 1.0, &mut Rng::new(seed, "sparse.v"));
    let w = gen::dense(rows, 1, 0.1, 1.0, &mut Rng::new(seed, "sparse.w"));
    let block = (1 << 20) / cols.max(1);
    let xyz = || vec![("X", x.clone()), ("Y", y.clone()), ("Z", z.clone())];
    let three = csr_bytes(&x) + csr_bytes(&y) + csr_bytes(&z);
    let nnz = x.nnz() as f64;
    let mut specs = vec![
        PanelSpec {
            name: "fig8b_cell_0.1",
            template: Template::Cell,
            build: Box::new(move |r| fig8::cell_dag(r, cols, 0.1).0),
            rows,
            inputs: xyz(),
            class: Class::Reduce,
            merge: Merge::Sum,
            block,
            work: Work { bytes: three, flops: 3.0 * nnz, nnz },
        },
        PanelSpec {
            name: "fig8d_magg_0.1",
            template: Template::MAgg,
            build: Box::new(move |r| fig8::magg_dag(r, cols, 0.1).0),
            rows,
            inputs: xyz(),
            class: Class::Reduce,
            merge: Merge::Sum,
            block,
            work: Work { bytes: three, flops: 4.0 * nnz, nnz },
        },
        PanelSpec {
            name: "fig8f_row_0.1",
            template: Template::Row,
            build: Box::new(move |r| fig8::row_dag(r, cols, 1, 0.1).0),
            rows,
            inputs: vec![("X", x.clone()), ("v", v.clone())],
            class: Class::Reduce,
            merge: Merge::Sum,
            block,
            work: Work { bytes: csr_bytes(&x), flops: 4.0 * nnz, nnz },
        },
        PanelSpec {
            name: "row_weighted_0.01",
            template: Template::Row,
            build: Box::new(move |r| fig8::row_sparse_dag(r, cols, 0.01).0),
            rows,
            inputs: vec![("X", xw.clone()), ("v", v), ("w", w)],
            class: Class::Reduce,
            merge: Merge::Sum,
            block,
            work: Work {
                bytes: csr_bytes(&xw),
                flops: 4.0 * xw.nnz() as f64,
                nnz: xw.nnz() as f64,
            },
        },
    ];
    let u = gen::dense(n, rank, 0.1, 1.0, &mut Rng::new(seed, "sparse.U"));
    let vf = gen::dense(m, rank, 0.1, 1.0, &mut Rng::new(seed, "sparse.V"));
    for (name, s) in [("fig8h_outer_0.01", 0.01), ("fig8h_outer_0.001", 0.001)] {
        specs.push(outer_spec(seed, name, (n, m, rank), s, &u, &vf));
    }
    specs
}

/// fig8h: `sum(X ⊙ log(U Vᵀ + 1e-15))` over an `n`×`m` CSR `X`.
fn outer_spec(
    seed: u64,
    name: &'static str,
    (n, m, rank): (usize, usize, usize),
    sparsity: f64,
    u: &Matrix,
    vf: &Matrix,
) -> PanelSpec {
    let xo = gen::sparse(n, m, sparsity, 1.0, 5.0, &mut Rng::new(seed, name));
    let nnz = xo.nnz() as f64;
    PanelSpec {
        name,
        template: Template::Outer,
        build: Box::new(move |r| fig8::outer_dag(r, m, rank, sparsity).0),
        rows: n,
        work: Work {
            bytes: csr_bytes(&xo) + dense_bytes(u) + dense_bytes(vf),
            flops: nnz * (2.0 * rank as f64 + 2.0),
            nnz,
        },
        inputs: vec![("X", xo), ("U", u.clone()), ("V", vf.clone())],
        class: Class::Reduce,
        merge: Merge::Sum,
        // The oracle materialises a block × m plane of U Vᵀ: 8 MB.
        block: (1 << 20) / m.max(1),
    }
}

pub fn sparse(seed: u64, scale: Scale) -> PanelSet {
    let Shapes { sparse, outer, .. } = shapes(scale);
    PanelSet::build(engine_1t(FusionMode::Gen), &sparse_specs(seed, sparse, outer), Check::Oracle)
}
