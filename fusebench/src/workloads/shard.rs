//! `shard_scan`: the only workload where slice / broadcast / merge runs.
//!
//! A `shards(2).shard_threads(1)` engine, the planner choosing per operator:
//! `sigmoid(X v)` on 150000×128 (row-aligned output: concat merge) and
//! `Xᵀ(w ⊙ (X v))` on 100000×100 (column aggregate: add merge). Two shard
//! workers of one thread each use both vCPUs and never more. Set-up fails
//! the run unless the planner really shards (`sharded_ops > 0`).

use super::{Check, PanelSet, Scale};
use crate::gen::{self, Rng};
use crate::panel::{Class, Merge, PanelSpec, Template, Work};
use fusedml_bench::experiments::fig8;
use fusedml_hop::DagBuilder;
use fusedml_runtime::{Engine, EngineBuilder, FusionMode};

pub fn scorer_dag(rows: usize, cols: usize) -> fusedml_hop::HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let v = b.read("v", cols, 1, 1.0);
    let xv = b.mm(x, v);
    let p = b.sigmoid(xv);
    b.build(vec![p])
}

pub fn specs(seed: u64, scale: Scale) -> Vec<PanelSpec> {
    let (n1, m1) = (scale.pick(150_000, 4000), scale.pick(128, 32));
    let (n2, m2) = (scale.pick(100_000, 3000), scale.pick(100, 20));
    let x1 = gen::dense(n1, m1, -1.0, 1.0, &mut Rng::new(seed, "shard.X1"));
    let v1 = gen::dense(m1, 1, -0.5, 0.5, &mut Rng::new(seed, "shard.v1"));
    let x2 = gen::dense(n2, m2, 0.1, 1.0, &mut Rng::new(seed, "shard.X2"));
    let v2 = gen::dense(m2, 1, 0.0, 1.0, &mut Rng::new(seed, "shard.v2"));
    let w2 = gen::dense(n2, 1, 0.1, 1.0, &mut Rng::new(seed, "shard.w2"));
    let (c1, c2) = ((n1 * m1) as f64, (n2 * m2) as f64);
    vec![
        PanelSpec {
            name: "sigmoid_xv_concat",
            template: Template::Row,
            build: Box::new(move |r| scorer_dag(r, m1)),
            rows: n1,
            inputs: vec![("X", x1), ("v", v1)],
            class: Class::Reduce,
            merge: Merge::Concat,
            block: (1 << 20) / m1,
            work: Work { bytes: 8.0 * c1, flops: 2.0 * c1, nnz: c1 },
        },
        PanelSpec {
            name: "xt_w_xv_add",
            template: Template::Row,
            build: Box::new(move |r| fig8::row_sparse_dag(r, m2, 1.0).0),
            rows: n2,
            inputs: vec![("X", x2), ("v", v2), ("w", w2)],
            class: Class::Reduce,
            merge: Merge::Sum,
            block: (1 << 20) / m2,
            work: Work { bytes: 8.0 * c2, flops: 4.0 * c2, nnz: c2 },
        },
    ]
}

/// The sharded engine: two single-threaded shard workers, one scheduler
/// worker on the driver.
pub fn sharded_engine(scale: Scale) -> Engine {
    let b = EngineBuilder::new(FusionMode::Gen).workers(1).shards(2).shard_threads(1);
    // The quick inputs are far too small for sharding to win on cost.
    b.force_shard(scale == Scale::Quick).build()
}

pub fn setup(seed: u64, scale: Scale) -> PanelSet {
    let mut set = PanelSet::build(sharded_engine(scale), &specs(seed, scale), Check::Oracle);
    let sharded = set.engine.stats().scheduler_snapshot().sharded_ops;
    if sharded == 0 {
        set.push_error("the planner sharded no operator (sharded_ops == 0)".to_string());
    }
    set
}
