#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Differential property suite for the sharded runtime (DESIGN.md
//! substitution X11): random multi-root DAGs × every fusion mode × 2/4/8
//! shards with ragged row counts, executed by the sharded engine
//! (`force_shard` pins the data path open on cost-unfavorable test
//! geometries) against the plain local scheduler.
//!
//! Contract:
//!
//! * **map-class roots** (per-row outputs merged by row concatenation —
//!   elementwise maps and row aggregates) are **bitwise equal** to local:
//!   row partitioning never touches their per-element evaluation order;
//! * **reduction roots** (full/column aggregates merged elementwise across
//!   shard partials) agree within **1e-11 relative** — only the f64 add
//!   association changes, never the operand set;
//! * the same holds for **CSR mains** (0.1 and 0.01) and a **row-partitioned
//!   side** (`SideDisp::Partition`) at 2/3/4 shards — the bands read both
//!   through zero-copy row views, so both view formats run the real path;
//! * a seeded shard panic surfaces as the typed
//!   [`ExecError::ShardFailure`], a concurrent sibling request on the same
//!   engine is unaffected, no spill temp files leak, and the engine stays
//!   reusable;
//! * every band's pooled requests count in its execute's pool delta;
//! * the planner picks **local for small** and **sharded for large**
//!   operators (the plan-choice pin for the cost-model integration).

mod common;

use common::bits_eq;
use fusedml_hop::interp::Bindings;
use fusedml_hop::{DagBuilder, HopDag, HopId};
use fusedml_linalg::generate;
use fusedml_linalg::matrix::Value;
use fusedml_linalg::{AggDir, AggOp};
use fusedml_runtime::{shard, Engine, ExecError, FaultPlan, FaultSite, FusionMode};
use std::sync::Arc;

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed-derived random multi-root DAG: an elementwise chain with shared
/// subexpressions, a map-class matrix root, a row-aggregate root, a
/// column-aggregate root, and two full-reduction scalars. Row counts are
/// deliberately ragged (odd, never a multiple of 8) so shard partitions
/// are unequal.
fn random_dag(seed: u64) -> (HopDag, Bindings, usize) {
    let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
    let rows = 51 + 2 * (splitmix64(&mut s) % 80) as usize; // odd: 51..=209
    let cols = 8 + (splitmix64(&mut s) % 24) as usize;
    let n_ops = 3 + (splitmix64(&mut s) % 7) as usize;
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let y = b.read("Y", rows, cols, 1.0);
    let v = b.read("v", rows, 1, 1.0);
    let mut cur: HopId = x;
    let mut prev: HopId = y;
    for i in 0..n_ops {
        let next = match splitmix64(&mut s) % 10 {
            0 => b.mult(cur, y),
            1 => b.add(cur, prev),
            2 => b.sub(cur, v),
            3 => b.abs(cur),
            4 => b.sq(cur),
            5 => b.exp(cur),
            6 => b.mult(cur, prev),
            7 => {
                let c = b.lit(0.5 + i as f64 * 0.25);
                b.mult(cur, c)
            }
            8 => b.div(cur, v),
            _ => b.max(cur, y),
        };
        if i % 2 == 0 {
            prev = cur;
        }
        cur = next;
    }
    let map_root = b.abs(cur); // map-class: full rows × cols, concat merge
    let rs = b.row_sums(cur); // map-class: per-row aggregate, concat merge
    let cs = b.col_sums(cur); // reduction: column partials merged with Add
    let sum = b.sum(cur); // reduction: full-aggregate scalar
    let sp = b.sum(prev); // reduction over the shared intermediate
    let dag = b.build(vec![map_root, rs, cs, sum, sp]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(rows, cols, 0.5, 1.5, seed + 1));
    bindings.insert("Y".into(), generate::rand_dense(rows, cols, 0.5, 1.5, seed + 2));
    bindings.insert("v".into(), generate::rand_dense(rows, 1, 1.0, 2.0, seed + 3));
    (dag, bindings, rows)
}

/// Map-class roots (full row count) must match bitwise; reduction roots
/// (scalars, column aggregates) within 1e-11 relative.
fn assert_shard_eq(got: &[Value], expect: &[Value], main_rows: usize, tag: &str) {
    assert_eq!(got.len(), expect.len(), "{tag}");
    for (i, (g, x)) in got.iter().zip(expect).enumerate() {
        let (gm, xm) = (g.as_matrix(), x.as_matrix());
        assert_eq!((gm.rows(), gm.cols()), (xm.rows(), xm.cols()), "{tag} root {i}");
        let map_class = matches!(g, Value::Matrix(_)) && gm.rows() == main_rows;
        for r in 0..gm.rows() {
            for c in 0..gm.cols() {
                let (a, b) = (gm.get(r, c), xm.get(r, c));
                if map_class {
                    assert!(
                        bits_eq(a, b),
                        "{tag} map-class root {i} at ({r},{c}): {a} vs {b} must be bitwise"
                    );
                } else {
                    let tol = 1e-11 * a.abs().max(b.abs()).max(1.0);
                    assert!(
                        (a - b).abs() <= tol,
                        "{tag} reduction root {i} at ({r},{c}): {a} vs {b} beyond 1e-11 relative"
                    );
                }
            }
        }
    }
}

/// The headline differential: 8 random DAGs × all five fusion modes ×
/// 2/4/8 shards, force-sharded, against the unsharded engine of the same
/// mode. At least one (seed, mode, shards) cell must actually run sharded
/// or the property is vacuous.
#[test]
fn sharded_equals_local_across_modes_and_shard_counts() {
    let mut sharded_runs = 0usize;
    for seed in 0..8u64 {
        let (dag, bindings, rows) = random_dag(seed);
        for mode in [
            FusionMode::Base,
            FusionMode::Fused,
            FusionMode::Gen,
            FusionMode::GenFA,
            FusionMode::GenFNR,
        ] {
            let local = Engine::new(mode).execute(&dag, &bindings).into_values();
            for shards in [2usize, 4, 8] {
                let tag = format!("seed {seed} mode {mode:?} shards {shards}");
                let engine = Engine::builder(mode)
                    .shards(shards)
                    .shard_threads(1)
                    .force_shard(true)
                    .verify_plans(true)
                    .build();
                let out = engine.try_execute(&dag, &bindings).unwrap_or_else(|e| {
                    panic!("{tag}: sharded execution failed: {e}");
                });
                sharded_runs += out.sched().sharded_ops;
                assert_shard_eq(out.values(), &local, rows, &tag);
            }
        }
    }
    assert!(sharded_runs > 0, "no operator ever ran sharded — the property was vacuous");
}

/// `t(X) %*% (w ⊙ (X %*% v))` plus map-class and reduction roots over a CSR
/// main: the row-aligned `w` travels as a partitioned side, and the
/// sparse-safe map root comes back as CSR partials concatenated in CSR.
fn sparse_partitioned_dag(n: usize, m: usize, sparsity: f64, seed: u64) -> (HopDag, Bindings) {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, sparsity);
    let w = b.read("w", n, 1, 1.0);
    let v = b.read("v", m, 1, 1.0);
    let xv = b.mm(x, v);
    let wxv = b.mult(w, xv);
    let xt = b.t(x);
    let g = b.mm(xt, wxv); // reduction: column partials merged with Add
    let xw = b.mult(x, w); // map-class, sparse-safe: CSR in, CSR out
    let sq = b.sq(x);
    let rs = b.row_sums(sq); // map-class: per-row aggregate
    let cs = b.col_sums(x); // reduction
    let sum = b.sum(sq); // reduction
    let dag = b.build(vec![g, xw, rs, cs, sum]);
    let mut bindings = Bindings::new();
    let xm = generate::rand_matrix(n, m, 0.5, 1.5, sparsity, seed + 1);
    assert!(xm.is_sparse(), "the main must be CSR for this leg to mean anything");
    bindings.insert("X".into(), xm);
    bindings.insert("w".into(), generate::rand_dense(n, 1, 0.5, 1.5, seed + 2));
    bindings.insert("v".into(), generate::rand_dense(m, 1, -1.0, 1.0, seed + 3));
    (dag, bindings)
}

/// CSR mains and a row-partitioned side through the real worker path, at
/// shard counts that never divide the row count. Vacuity guards: some
/// operator must carry a `Partition` side, and operators must run sharded.
#[test]
fn sparse_mains_and_partitioned_sides_equal_local() {
    let (mut sharded_runs, mut partitioned_sides) = (0usize, 0usize);
    for (seed, (rows, cols, sparsity)) in
        [(203usize, 64usize, 0.1), (157, 96, 0.01), (419, 40, 0.1)].into_iter().enumerate()
    {
        let (dag, bindings) = sparse_partitioned_dag(rows, cols, sparsity, seed as u64);
        for mode in [FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR] {
            let local = Engine::new(mode).execute(&dag, &bindings).into_values();
            for shards in [2usize, 3, 4] {
                let tag = format!("{rows}x{cols}@{sparsity} mode {mode:?} shards {shards}");
                let engine = Engine::builder(mode)
                    .shards(shards)
                    .shard_threads(1)
                    .force_shard(true)
                    .verify_plans(true)
                    .build();
                partitioned_sides += shard::force_shards(&engine.plan_for(&dag), shards)
                    .iter()
                    .flatten()
                    .flat_map(|spec| &spec.sides)
                    .filter(|d| **d == shard::SideDisp::Partition)
                    .count();
                // Twice: the second run takes its buffers from what the first
                // one recycled, views included.
                for run in 0..2 {
                    let out = engine.try_execute(&dag, &bindings).unwrap_or_else(|e| {
                        panic!("{tag} run {run}: sharded execution failed: {e}");
                    });
                    sharded_runs += out.sched().sharded_ops;
                    assert_shard_eq(out.values(), &local, rows, &tag);
                    let (got, want) = (out.values()[1].as_matrix(), local[1].as_matrix());
                    assert!(
                        got.is_sparse() && want.is_sparse(),
                        "{tag}: CSR partials concat in CSR"
                    );
                }
            }
        }
    }
    assert!(sharded_runs > 0, "no operator ever ran sharded — the property was vacuous");
    assert!(partitioned_sides > 0, "no side was ever row-partitioned — the leg was vacuous");
}

/// The KMeans distance DAG `D = −2·X %*% t(C) + t(rowSums(C²))` with `k = 5`
/// centroids: a Row operator whose `VecMatMult` runs a tile of rows at a
/// time, with a map-class matrix root, a map-class row aggregate and a
/// reduction.
fn kmeans_distance_dag(n: usize, m: usize, k: usize, seed: u64) -> (HopDag, Bindings) {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, 1.0);
    let c = b.read("C", k, m, 1.0);
    let ct = b.t(c);
    let xc = b.mm(x, ct);
    let neg2 = b.lit(-2.0);
    let xc2 = b.mult(xc, neg2);
    let csq = b.sq(c);
    let cn = b.row_sums(csq);
    let cnt = b.t(cn);
    let d = b.add(xc2, cnt); // map-class: n×k, concat merge
    let dmin = b.agg(AggOp::Min, AggDir::Row, d); // map-class: per-row aggregate
    let wcss = b.sum(dmin); // reduction
    let dag = b.build(vec![d, dmin, wcss]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(n, m, 0.0, 1.0, seed + 1));
    bindings.insert("C".into(), generate::rand_dense(k, m, 0.0, 1.0, seed + 2));
    (dag, bindings)
}

/// A tiled `VecMatMult` operator through the shard path: 203 rows split
/// 102/101 over two shards and 51/51/51/50 over four, so every shard ends
/// on a ragged tile (none of those is a multiple of 4, let alone of the
/// tile height), and a row's position within its tile differs between the
/// sharded and the local run. Map-class roots stay bitwise all the same.
#[test]
fn tiled_vec_mat_mult_operator_equals_local_with_ragged_shard_tiles() {
    use fusedml_core::spoof::{FusedSpec, Instr};
    let (rows, cols, k) = (203, 24, 5);
    let (dag, bindings) = kmeans_distance_dag(rows, cols, k, 7);
    let mut sharded_runs = 0usize;
    for mode in [FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR] {
        let local_engine = Engine::new(mode);
        let has_vmm = local_engine.plan_for(&dag).operators.iter().any(|f| match &f.op.spec {
            FusedSpec::Row(r) => {
                r.prog.instrs.iter().any(|i| matches!(i, Instr::VecMatMult { .. }))
            }
            _ => false,
        });
        assert!(has_vmm, "{mode:?}: the distance DAG must compile to a VecMatMult Row operator");
        let local = local_engine.execute(&dag, &bindings).into_values();
        for shards in [2usize, 4] {
            let tag = format!("kmeans distance mode {mode:?} shards {shards}");
            let engine = Engine::builder(mode)
                .shards(shards)
                .shard_threads(1)
                .force_shard(true)
                .verify_plans(true)
                .build();
            let out = engine
                .try_execute(&dag, &bindings)
                .unwrap_or_else(|e| panic!("{tag}: sharded execution failed: {e}"));
            sharded_runs += out.sched().sharded_ops;
            assert_shard_eq(out.values(), &local, rows, &tag);
        }
    }
    assert!(sharded_runs > 0, "no operator ever ran sharded — the property was vacuous");
}

/// Chaos leg: a seeded `ShardExec` fault panics shard band 0 mid-request.
/// The run fails with the typed [`ExecError::ShardFailure`], a concurrent
/// sibling run on the same engine completes correctly, no spill temp files
/// survive, and the disarmed engine is bitwise-correct again.
#[test]
fn shard_panic_is_typed_siblings_unaffected_and_engine_survives() {
    // The injected panic fires inside the band's catch; keep the default
    // hook from spraying backtraces over the test output.
    std::panic::set_hook(Box::new(|_| {}));
    let (dag, bindings, rows) = random_dag(42);
    let reference = Engine::new(FusionMode::Gen).execute(&dag, &bindings).into_values();

    let plan = Arc::new(FaultPlan::seeded(11).rate(FaultSite::ShardExec, 1.0).max_faults(1));
    let engine = Engine::builder(FusionMode::Gen)
        .shards(4)
        .shard_threads(1)
        .force_shard(true)
        .verify_plans(true)
        .fault_plan(Arc::clone(&plan))
        .build();
    let script = engine.compile(&dag);

    // Two concurrent executions each run their own shard bands; the
    // single-fault budget fails exactly one of them. The sibling must not
    // notice.
    let (a, b) = std::thread::scope(|s| {
        let ta = s.spawn(|| script.try_execute(&bindings));
        let tb = s.spawn(|| script.try_execute(&bindings));
        (ta.join().expect("runner thread lives"), tb.join().expect("runner thread lives"))
    });
    let (failed, survived): (Vec<_>, Vec<_>) = [a, b].into_iter().partition(Result::is_err);
    assert_eq!(failed.len(), 1, "exactly one run absorbs the single-fault budget");
    match failed.into_iter().next().unwrap() {
        Err(e @ ExecError::ShardFailure { shard, .. }) => {
            assert_eq!(shard, 0, "injection targets shard 0");
            let _ = e.to_string(); // renders as a clean typed error
        }
        other => panic!("expected a typed shard failure, got {other:?}"),
    }
    let ok = survived.into_iter().next().unwrap().expect("sibling run unaffected");
    assert_shard_eq(ok.values(), &reference, rows, "sibling during fault");
    assert_eq!(plan.total_injected(), 1);
    assert_eq!(engine.store().spill_file_count(), 0, "no leaked spill files after the failure");

    // Recovery: nothing outlived the failed execute; disarmed, the same
    // engine (and the same compiled script) is correct again — twice.
    plan.disarm();
    for round in 0..2 {
        let out = script
            .try_execute(&bindings)
            .unwrap_or_else(|e| panic!("fault-free re-execute {round} failed: {e}"));
        assert_shard_eq(out.values(), &reference, rows, &format!("re-exec {round}"));
        assert_eq!(engine.store().spill_file_count(), 0, "re-exec {round}");
    }
    drop(std::panic::take_hook());
}

/// The per-call pool delta (`Outputs::sched()`) counts the pooled requests
/// of every shard band, not only the driver's merge: a warm force-sharded
/// `rowSums(exp(X ⊙ Y))` draws at least as many buffers as the same script
/// run locally.
#[test]
fn sharded_execute_tallies_every_band() {
    let (rows, cols) = (4001, 64);
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let y = b.read("Y", rows, cols, 1.0);
    let xy = b.mult(x, y);
    let e = b.exp(xy);
    let rs = b.row_sums(e);
    let dag = b.build(vec![rs]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(rows, cols, -1.0, 1.0, 1));
    bindings.insert("Y".into(), generate::rand_dense(rows, cols, -1.0, 1.0, 2));
    let requests = |engine: Engine| {
        let script = engine.compile(&dag);
        script.execute(&bindings); // warm: the second run draws from the pool
        let out = script.execute(&bindings);
        let s = out.sched();
        (s.pool_hits + s.pool_misses, s.sharded_ops)
    };
    let (local, _) = requests(Engine::builder(FusionMode::Gen).workers(1).build());
    let sharded_engine =
        Engine::builder(FusionMode::Gen).workers(1).shards(2).shard_threads(1).force_shard(true);
    let (sharded, sharded_ops) = requests(sharded_engine.build());
    assert!(sharded_ops > 0, "the operator must run sharded for the probe to mean anything");
    assert!(
        sharded >= local,
        "a sharded execute tallied {sharded} pool requests, the local one {local}: \
         the shard bands' requests are missing from the per-call delta"
    );
}

/// `t(X) %*% (w ⊙ (X %*% v))` — the mv-chain the planner sees in MLogreg.
fn mv_chain_dag(n: usize, m: usize) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, 1.0);
    let w = b.read("w", n, 1, 1.0);
    let v = b.read("v", m, 1, 1.0);
    let xv = b.mm(x, v);
    let wxv = b.mult(w, xv);
    let xt = b.t(x);
    let g = b.mm(xt, wxv);
    b.build(vec![g])
}

/// Plan-choice pin: with the real cost model (no forcing), the planner
/// keeps small operators local and shards large ones — at the planner
/// level (no data needed for the large geometry) and end-to-end for the
/// small one.
#[test]
fn planner_picks_local_for_small_and_sharded_for_large() {
    let engine = Engine::builder(FusionMode::Gen).shards(4).shard_threads(1).build();
    let model = &engine.optimizer().model;

    // Small: 200×50 — dispatch + merge overhead dwarfs the saved compute.
    let small = mv_chain_dag(200, 50);
    let small_plan = engine.plan_for(&small);
    let specs = shard::plan_shards(&small, &small_plan, 4, model);
    assert!(specs.iter().all(Option::is_none), "a 200x50 mv-chain must stay local, got {specs:?}");
    // …and end-to-end: the snapshot reports zero sharded operators.
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(200, 50, 0.0, 1.0, 1));
    bindings.insert("w".into(), generate::rand_dense(200, 1, 0.0, 1.0, 2));
    bindings.insert("v".into(), generate::rand_dense(50, 1, 0.0, 1.0, 3));
    let out = engine.execute(&small, &bindings);
    assert_eq!(out.sched().sharded_ops, 0, "small geometry must execute locally");

    // Large: 1M×100 — partitioned scans and divided compute win despite
    // broadcast and merge costs, wherever two shards can run at once. On a
    // single core nothing divides, and the planner must say so. Planner-level
    // only; no 800 MB input here.
    let large = mv_chain_dag(1_000_000, 100);
    let large_plan = engine.plan_for(&large);
    let specs = shard::plan_shards(&large, &large_plan, 4, model);
    let sharded = specs.iter().flatten().count();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores >= 2 {
        assert!(sharded > 0, "a 1Mx100 mv-chain must shard on {cores} cores, got {specs:?}");
    } else {
        assert_eq!(sharded, 0, "one core runs one shard at a time: sharding cannot win");
    }
    for spec in specs.iter().flatten() {
        assert_eq!(spec.shards, 4);
    }
}
