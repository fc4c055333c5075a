//! Execution statistics and the sequential oracle.
//!
//! The executor API lives on [`crate::engine::Engine`] and
//! [`crate::engine::CompiledScript`] (compile once, execute concurrently).
//! This module keeps the shared [`ExecStats`] counters, the per-call
//! [`SchedSnapshot`] delta, and the seed's recursive materializer
//! (`sequential`) that the scheduled engine is differentially tested
//! against.

use crate::handcoded::{self, HcOperator};
use crate::side::SideInput;
use crate::spoof;
pub use fusedml_core::optimizer::dag_structural_hash;
use fusedml_core::optimizer::{FusedOperator, FusionPlan};
use fusedml_core::util::FxHashMap;
use fusedml_hop::interp::{self, Bindings};
use fusedml_hop::{HopDag, HopId};
use fusedml_linalg::matrix::Value;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Execution statistics, including scheduler events (operators executed
/// while another was in flight, buffer-pool hits/misses, bytes freed before
/// the DAG finished, and the tracked peak footprint of the last execution).
///
/// All counters are interior-mutable atomics behind a shared handle: one
/// instance is owned by an [`crate::engine::Engine`] (as `Arc<ExecStats>`)
/// and shared with
/// every [`crate::engine::CompiledScript`] it compiles, so concurrent
/// executions accumulate into the same counters without any `&mut` access.
/// Read through [`ExecStats::snapshot`] / [`ExecStats::scheduler_snapshot`];
/// per-call deltas come back on `Outputs::sched`.
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Generated fused operators executed.
    pub(crate) fused_ops: AtomicUsize,
    /// Fused operators whose inner loops ran a kernel of their own (a
    /// Cell/MAgg/Outer product chain, a Row mv-chain or row tile).
    pub(crate) mono_ops: AtomicUsize,
    /// Fused operators that ran the tile/band interpreter.
    pub(crate) interp_fused_ops: AtomicUsize,
    /// Hand-coded fused operators executed.
    pub(crate) handcoded_ops: AtomicUsize,
    /// Basic operators executed.
    pub(crate) basic_ops: AtomicUsize,
    /// Operators that started while at least one other was still running.
    pub(crate) sched_parallel_ops: AtomicUsize,
    /// Bytes of intermediates freed before the end of their DAG.
    pub(crate) sched_bytes_freed_early: AtomicUsize,
    /// High-water tracked peak resident bytes over all executions since the
    /// last reset (per-execution peaks come back on `Outputs::sched`; a
    /// last-writer store here would be clobbered under concurrent runs).
    pub(crate) sched_peak_bytes: AtomicUsize,
    /// High-water hold-everything resident bytes (inputs + every
    /// materialized value, nothing freed) — what the seed runtime kept.
    pub(crate) sched_resident_all_bytes: AtomicUsize,
    /// Buffer-pool hits attributed to this engine's runs.
    pub(crate) pool_hits: AtomicUsize,
    /// Buffer-pool misses attributed to this engine's runs.
    pub(crate) pool_misses: AtomicUsize,
    /// Compiled-script recompiles triggered by the shape-revalidation guard
    /// (bound input geometry diverged from the costed plan).
    pub(crate) plan_recompiles: AtomicUsize,
    /// Serialized bytes written to the spill tier.
    pub(crate) sched_spilled_bytes: AtomicUsize,
    /// Serialized bytes read back from the spill tier.
    pub(crate) sched_reloaded_bytes: AtomicUsize,
    /// Synchronous reloads: a consumer found its input spilled at gather.
    pub(crate) sched_spill_faults: AtomicUsize,
    /// Asynchronous reloads completed by prefetch jobs ahead of the consumer.
    pub(crate) sched_prefetch_hits: AtomicUsize,
    /// Microseconds workers spent blocked on in-flight spill I/O.
    pub(crate) sched_spill_stall_us: AtomicUsize,
    /// High-water bytes of leaf bindings streamed (uncharged) in one run.
    pub(crate) sched_streamed_leaf_bytes: AtomicUsize,
    /// Executions that ended in a typed [`crate::error::ExecError`] (the
    /// engine swept and stayed reusable after each).
    pub(crate) failed_executions: AtomicUsize,
    /// Spill I/O attempts that failed and were retried.
    pub(crate) sched_spill_retries: AtomicUsize,
    /// Faults injected by the engine's `FaultPlan` across all runs.
    pub(crate) sched_injected_faults: AtomicUsize,
    /// Runs that degraded to resident-only execution after exhausting spill
    /// write retries.
    pub(crate) sched_degraded_runs: AtomicUsize,
    /// Fused operators the planner executed as shard bands.
    pub(crate) sched_sharded_ops: AtomicUsize,
    /// High-water shard count used by any single sharded operator.
    pub(crate) sched_shards_used: AtomicUsize,
    /// Bytes of side inputs broadcast to shards (counted per receiver).
    pub(crate) sched_shard_broadcast_bytes: AtomicUsize,
    /// Bytes of per-shard partial outputs merged on the driver.
    pub(crate) sched_shard_partial_bytes: AtomicUsize,
    /// Microseconds the driver spent merging shard partials.
    pub(crate) sched_shard_merge_us: AtomicUsize,
    /// High-water shard skew (slowest/mean shard time, ×1000) of any
    /// sharded operator.
    pub(crate) sched_shard_skew_milli: AtomicUsize,
}

/// Plain-data snapshot of the scheduler counters in [`ExecStats`] — also the
/// per-`execute` delta returned on `Outputs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    pub parallel_ops: usize,
    pub bytes_freed_early: usize,
    pub peak_bytes: usize,
    pub resident_all_bytes: usize,
    pub pool_hits: usize,
    pub pool_misses: usize,
    /// Serialized bytes evicted to the spill tier.
    pub spilled_bytes: usize,
    /// Serialized bytes reloaded from the spill tier.
    pub reloaded_bytes: usize,
    /// Synchronous reloads (consumer found its input on disk at gather).
    pub spill_faults: usize,
    /// Reloads completed by async prefetch jobs before the consumer asked.
    pub prefetch_hits: usize,
    /// Microseconds workers spent blocked on in-flight spill I/O.
    pub spill_stall_us: usize,
    /// Bytes of leaf bindings streamed band-by-band instead of being charged
    /// against the resident budget (each larger than the whole budget).
    pub streamed_leaf_bytes: usize,
    /// Spill I/O attempts that failed and were retried (whether or not a
    /// later attempt succeeded).
    pub spill_retries: usize,
    /// Faults the engine's `FaultPlan` injected into this run.
    pub injected_faults: usize,
    /// 1 if this run degraded to resident-only execution after exhausting
    /// spill write retries, else 0.
    pub degraded: usize,
    /// Fused operators executed as shard bands.
    pub sharded_ops: usize,
    /// High-water shard count used by any single sharded operator.
    pub shards_used: usize,
    /// Bytes of side inputs broadcast to shards (counted per receiver).
    pub shard_broadcast_bytes: usize,
    /// Bytes of per-shard partial outputs merged on the driver.
    pub shard_partial_bytes: usize,
    /// Microseconds the driver spent merging shard partials.
    pub shard_merge_us: usize,
    /// High-water shard skew of any sharded operator: slowest shard time
    /// over mean shard time, ×1000 (1000 = perfectly balanced).
    pub shard_skew_milli: usize,
}

impl SchedSnapshot {
    /// Fraction of pooled allocations served from the pool.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Hold-everything bytes over tracked peak (≥ 1: how much smaller the
    /// liveness-aware footprint is than the seed behaviour).
    pub fn footprint_reduction(&self) -> f64 {
        if self.peak_bytes == 0 {
            1.0
        } else {
            self.resident_all_bytes as f64 / self.peak_bytes as f64
        }
    }

    /// Fraction of spill reloads that the async prefetcher finished before
    /// the consumer asked (the rest were synchronous faults).
    pub fn prefetch_hit_rate(&self) -> f64 {
        let total = self.prefetch_hits + self.spill_faults;
        if total == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / total as f64
        }
    }
}

impl ExecStats {
    /// `(fused, handcoded, basic)` operator counts.
    pub fn snapshot(&self) -> (usize, usize, usize) {
        (
            self.fused_ops.load(Ordering::Relaxed),
            self.handcoded_ops.load(Ordering::Relaxed),
            self.basic_ops.load(Ordering::Relaxed),
        )
    }

    /// `(mono, interpreted)` fused-operator counts: how many fused operators
    /// executed a product chain, mv-chain or row tile versus the tile/band
    /// interpreter — a label, not a speed proxy (the interpreter is the
    /// faster of the two for every body that is not a product chain).
    /// `mono + interpreted == fused` from [`Self::snapshot`].
    pub fn mono_snapshot(&self) -> (usize, usize) {
        (self.mono_ops.load(Ordering::Relaxed), self.interp_fused_ops.load(Ordering::Relaxed))
    }

    /// Records one fused-operator execution under the given shape class.
    pub(crate) fn record_fused_class(&self, class: fusedml_core::spoof::mono::ShapeClass) {
        if class.is_specialized() {
            self.mono_ops.fetch_add(1, Ordering::Relaxed);
        } else {
            self.interp_fused_ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Scheduler-event counters (see [`SchedSnapshot`]).
    pub fn scheduler_snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            parallel_ops: self.sched_parallel_ops.load(Ordering::Relaxed),
            bytes_freed_early: self.sched_bytes_freed_early.load(Ordering::Relaxed),
            peak_bytes: self.sched_peak_bytes.load(Ordering::Relaxed),
            resident_all_bytes: self.sched_resident_all_bytes.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            spilled_bytes: self.sched_spilled_bytes.load(Ordering::Relaxed),
            reloaded_bytes: self.sched_reloaded_bytes.load(Ordering::Relaxed),
            spill_faults: self.sched_spill_faults.load(Ordering::Relaxed),
            prefetch_hits: self.sched_prefetch_hits.load(Ordering::Relaxed),
            spill_stall_us: self.sched_spill_stall_us.load(Ordering::Relaxed),
            streamed_leaf_bytes: self.sched_streamed_leaf_bytes.load(Ordering::Relaxed),
            spill_retries: self.sched_spill_retries.load(Ordering::Relaxed),
            injected_faults: self.sched_injected_faults.load(Ordering::Relaxed),
            degraded: self.sched_degraded_runs.load(Ordering::Relaxed),
            sharded_ops: self.sched_sharded_ops.load(Ordering::Relaxed),
            shards_used: self.sched_shards_used.load(Ordering::Relaxed),
            shard_broadcast_bytes: self.sched_shard_broadcast_bytes.load(Ordering::Relaxed),
            shard_partial_bytes: self.sched_shard_partial_bytes.load(Ordering::Relaxed),
            shard_merge_us: self.sched_shard_merge_us.load(Ordering::Relaxed),
            shard_skew_milli: self.sched_shard_skew_milli.load(Ordering::Relaxed),
        }
    }

    /// Executions that returned a typed error (after which the engine swept
    /// itself and stayed reusable).
    pub fn failed_executions(&self) -> usize {
        self.failed_executions.load(Ordering::Relaxed)
    }

    /// Recompiles triggered by the shape-revalidation guard.
    pub fn plan_recompiles(&self) -> usize {
        self.plan_recompiles.load(Ordering::Relaxed)
    }

    /// Accumulates one execution's scheduler delta into the shared counters.
    /// Event counts sum; the footprint figures keep the high-water mark, so
    /// a small run finishing after a large one cannot clobber the engine's
    /// reported peak (per-run figures live on `Outputs::sched`).
    pub(crate) fn record_sched(&self, s: &SchedSnapshot) {
        self.sched_parallel_ops.fetch_add(s.parallel_ops, Ordering::Relaxed);
        self.sched_bytes_freed_early.fetch_add(s.bytes_freed_early, Ordering::Relaxed);
        self.sched_peak_bytes.fetch_max(s.peak_bytes, Ordering::Relaxed);
        self.sched_resident_all_bytes.fetch_max(s.resident_all_bytes, Ordering::Relaxed);
        self.pool_hits.fetch_add(s.pool_hits, Ordering::Relaxed);
        self.pool_misses.fetch_add(s.pool_misses, Ordering::Relaxed);
        self.sched_spilled_bytes.fetch_add(s.spilled_bytes, Ordering::Relaxed);
        self.sched_reloaded_bytes.fetch_add(s.reloaded_bytes, Ordering::Relaxed);
        self.sched_spill_faults.fetch_add(s.spill_faults, Ordering::Relaxed);
        self.sched_prefetch_hits.fetch_add(s.prefetch_hits, Ordering::Relaxed);
        self.sched_spill_stall_us.fetch_add(s.spill_stall_us, Ordering::Relaxed);
        self.sched_streamed_leaf_bytes.fetch_max(s.streamed_leaf_bytes, Ordering::Relaxed);
        self.sched_spill_retries.fetch_add(s.spill_retries, Ordering::Relaxed);
        self.sched_injected_faults.fetch_add(s.injected_faults, Ordering::Relaxed);
        self.sched_degraded_runs.fetch_add(s.degraded, Ordering::Relaxed);
        self.sched_sharded_ops.fetch_add(s.sharded_ops, Ordering::Relaxed);
        self.sched_shards_used.fetch_max(s.shards_used, Ordering::Relaxed);
        self.sched_shard_broadcast_bytes.fetch_add(s.shard_broadcast_bytes, Ordering::Relaxed);
        self.sched_shard_partial_bytes.fetch_add(s.shard_partial_bytes, Ordering::Relaxed);
        self.sched_shard_merge_us.fetch_add(s.shard_merge_us, Ordering::Relaxed);
        self.sched_shard_skew_milli.fetch_max(s.shard_skew_milli, Ordering::Relaxed);
    }

    pub fn reset(&self) {
        self.fused_ops.store(0, Ordering::Relaxed);
        self.mono_ops.store(0, Ordering::Relaxed);
        self.interp_fused_ops.store(0, Ordering::Relaxed);
        self.handcoded_ops.store(0, Ordering::Relaxed);
        self.basic_ops.store(0, Ordering::Relaxed);
        self.sched_parallel_ops.store(0, Ordering::Relaxed);
        self.sched_bytes_freed_early.store(0, Ordering::Relaxed);
        self.sched_peak_bytes.store(0, Ordering::Relaxed);
        self.sched_resident_all_bytes.store(0, Ordering::Relaxed);
        self.pool_hits.store(0, Ordering::Relaxed);
        self.pool_misses.store(0, Ordering::Relaxed);
        self.plan_recompiles.store(0, Ordering::Relaxed);
        self.sched_spilled_bytes.store(0, Ordering::Relaxed);
        self.sched_reloaded_bytes.store(0, Ordering::Relaxed);
        self.sched_spill_faults.store(0, Ordering::Relaxed);
        self.sched_prefetch_hits.store(0, Ordering::Relaxed);
        self.sched_spill_stall_us.store(0, Ordering::Relaxed);
        self.sched_streamed_leaf_bytes.store(0, Ordering::Relaxed);
        self.failed_executions.store(0, Ordering::Relaxed);
        self.sched_spill_retries.store(0, Ordering::Relaxed);
        self.sched_injected_faults.store(0, Ordering::Relaxed);
        self.sched_degraded_runs.store(0, Ordering::Relaxed);
        self.sched_sharded_ops.store(0, Ordering::Relaxed);
        self.sched_shards_used.store(0, Ordering::Relaxed);
        self.sched_shard_broadcast_bytes.store(0, Ordering::Relaxed);
        self.sched_shard_partial_bytes.store(0, Ordering::Relaxed);
        self.sched_shard_merge_us.store(0, Ordering::Relaxed);
        self.sched_shard_skew_milli.store(0, Ordering::Relaxed);
    }
}

/// The seed's recursive lazy materializer: every intermediate stays alive
/// for the whole DAG and operators run one at a time. Takes the same
/// `(plan, patterns)` pair as [`crate::schedule::prepare`] — generated
/// operators (Gen modes), hand-coded instances (`Fused`), neither (`Base`) —
/// and backs `CompiledScript::execute_sequential`, the oracle the scheduled
/// engine is compared against.
pub(crate) fn sequential(
    dag: &HopDag,
    plan: Option<&FusionPlan>,
    patterns: Option<&FxHashMap<HopId, HcOperator>>,
    bindings: &Bindings,
    stats: &ExecStats,
) -> Vec<Value> {
    let operators = plan.map_or(&[][..], |p| &p.operators[..]);
    // Map root hop → generated operator.
    let mut op_roots: FxHashMap<HopId, &FusedOperator> = FxHashMap::default();
    for f in operators {
        for &r in &f.roots {
            op_roots.insert(r, f);
        }
    }
    let cx = Sequential { dag, op_roots, patterns, bindings, stats };
    let mut vals: Vec<Option<Value>> = vec![None; dag.len()];
    for &root in dag.roots() {
        cx.materialize(&mut vals, root);
    }
    dag.roots().iter().map(|r| vals[r.index()].take().expect("root computed")).collect()
}

/// What one [`sequential`] run reads while it recurses.
struct Sequential<'a> {
    dag: &'a HopDag,
    op_roots: FxHashMap<HopId, &'a FusedOperator>,
    patterns: Option<&'a FxHashMap<HopId, HcOperator>>,
    bindings: &'a Bindings,
    stats: &'a ExecStats,
}

impl Sequential<'_> {
    /// Lazily computes the value of `hop`: through the generated or
    /// hand-coded operator rooted there (whose interior hops then never
    /// run), as a basic operator otherwise.
    fn materialize(&self, vals: &mut Vec<Option<Value>>, hop: HopId) {
        if vals[hop.index()].is_some() {
            return;
        }
        if let Some(f) = self.op_roots.get(&hop) {
            for &i in f.cplan.main.iter().chain(&f.cplan.sides).chain(&f.cplan.scalars) {
                self.materialize(vals, i);
            }
            let outs = run_operator(f, vals, self.stats);
            self.stats.fused_ops.fetch_add(1, Ordering::Relaxed);
            for (slot, &r) in f.roots.iter().enumerate() {
                let m = &outs[slot];
                let v = if self.dag.hop(r).is_scalar() && m.is_scalar_shaped() {
                    Value::Scalar(m.get(0, 0))
                } else {
                    Value::Matrix(m.clone())
                };
                vals[r.index()] = Some(v);
            }
            return;
        }
        if let Some(hc) = self.patterns.and_then(|p| p.get(&hop)) {
            for &i in &hc.inputs {
                self.materialize(vals, i);
            }
            let inputs: Vec<Value> = hc
                .inputs
                .iter()
                .map(|&i| vals[i.index()].clone().expect("input computed"))
                .collect();
            self.stats.handcoded_ops.fetch_add(1, Ordering::Relaxed);
            vals[hop.index()] = Some(handcoded::exec_operator(hc, &inputs));
            return;
        }
        for &i in &self.dag.hop(hop).inputs {
            self.materialize(vals, i);
        }
        if !self.dag.hop(hop).kind.is_leaf() {
            self.stats.basic_ops.fetch_add(1, Ordering::Relaxed);
        }
        vals[hop.index()] = Some(interp::eval_op(self.dag, hop, vals, self.bindings));
    }
}

/// Runs one fused operator with bound inputs.
fn run_operator(
    f: &FusedOperator,
    vals: &[Option<Value>],
    stats: &ExecStats,
) -> Vec<fusedml_linalg::Matrix> {
    let get_matrix = |h: HopId| -> fusedml_linalg::Matrix {
        vals[h.index()].as_ref().expect("operator input computed").as_matrix()
    };
    let main_val = f.cplan.main.map(get_matrix);
    let sides: Vec<SideInput> =
        f.cplan.sides.iter().map(|&h| SideInput::bind(&get_matrix(h))).collect();
    let scalars: Vec<f64> = f
        .cplan
        .scalars
        .iter()
        .map(|&h| vals[h.index()].as_ref().expect("scalar computed").as_scalar())
        .collect();
    let side_dims: Vec<(usize, usize)> = sides.iter().map(|s| (s.rows(), s.cols())).collect();
    stats.record_fused_class(spoof::kernel_class(&f.op.spec, &side_dims));
    spoof::execute(
        &f.op.spec,
        main_val.as_ref(),
        &sides,
        &scalars,
        f.cplan.iter_rows,
        f.cplan.iter_cols,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use fusedml_core::FusionMode;
    use fusedml_hop::interp::bind;
    use fusedml_linalg::generate;

    fn run(mode: FusionMode, dag: &HopDag, bindings: &Bindings) -> Vec<Value> {
        Engine::new(mode).execute(dag, bindings).into_values()
    }

    /// Gen and Base must agree on the paper's Expression (2) (MLogreg core).
    #[test]
    fn mlogreg_core_gen_equals_base() {
        let (n, m, k) = (300, 40, 4);
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", n, m, 1.0);
        let v = b.read("V", m, k, 1.0);
        let p = b.read("P", n, k + 1, 1.0);
        let xv = b.mm(x, v);
        let pk = b.rix(p, None, Some((0, k)));
        let q = b.mult(pk, xv);
        let rs = b.row_sums(q);
        let prs = b.mult(pk, rs);
        let diff = b.sub(q, prs);
        let xt = b.t(x);
        let h = b.mm(xt, diff);
        let dag = b.build(vec![h]);
        let bindings = bind(&[
            ("X", generate::rand_dense(n, m, -1.0, 1.0, 1)),
            ("V", generate::rand_dense(m, k, -1.0, 1.0, 2)),
            ("P", generate::rand_dense(n, k + 1, 0.0, 1.0, 3)),
        ]);
        let base = run(FusionMode::Base, &dag, &bindings);
        let gen = Engine::new(FusionMode::Gen);
        let out = gen.execute(&dag, &bindings).into_values();
        assert!(out[0].as_matrix().approx_eq(&base[0].as_matrix(), 1e-9));
        let (fused, _, _) = gen.stats().snapshot();
        assert!(fused >= 1, "the Row operator must actually run");
    }

    /// Expression (1): the ALS-CG update rule with sparse X.
    #[test]
    fn als_update_gen_equals_base() {
        let (n, m, r) = (400, 300, 10);
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", n, m, 0.01);
        let u = b.read("U", n, r, 1.0);
        let v = b.read("V", m, r, 1.0);
        let rr = b.read("R", n, r, 1.0);
        let vt = b.t(v);
        let uvt = b.mm(u, vt);
        let zero = b.lit(0.0);
        let mask = b.neq(x, zero);
        let w = b.mult(mask, uvt);
        let wv = b.mm(w, v);
        let lam = b.lit(1e-6);
        let ulam = b.mult(u, lam);
        let ur = b.mult(ulam, rr);
        let o = b.add(wv, ur);
        let dag = b.build(vec![o]);
        let bindings = bind(&[
            ("X", generate::rand_matrix(n, m, 1.0, 5.0, 0.01, 4)),
            ("U", generate::rand_dense(n, r, 0.1, 1.0, 5)),
            ("V", generate::rand_dense(m, r, 0.1, 1.0, 6)),
            ("R", generate::rand_dense(n, r, 0.1, 1.0, 7)),
        ]);
        let base = run(FusionMode::Base, &dag, &bindings);
        let gen = Engine::new(FusionMode::Gen);
        let out = gen.execute(&dag, &bindings).into_values();
        assert!(out[0].as_matrix().approx_eq(&base[0].as_matrix(), 1e-9));
        let (fused, _, _) = gen.stats().snapshot();
        assert!(fused >= 1, "fused operators must run: {:?}", gen.plan_for(&dag).explain());
    }

    #[test]
    fn multi_aggregate_gen_equals_base() {
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", 200, 100, 1.0);
        let y = b.read("Y", 200, 100, 1.0);
        let z = b.read("Z", 200, 100, 1.0);
        let a = b.mult(x, y);
        let c = b.mult(x, z);
        let s1 = b.sum(a);
        let s2 = b.sum(c);
        let dag = b.build(vec![s1, s2]);
        let bindings = bind(&[
            ("X", generate::rand_dense(200, 100, -1.0, 1.0, 8)),
            ("Y", generate::rand_dense(200, 100, -1.0, 1.0, 9)),
            ("Z", generate::rand_dense(200, 100, -1.0, 1.0, 10)),
        ]);
        let base = run(FusionMode::Base, &dag, &bindings);
        let gen = Engine::new(FusionMode::Gen);
        let out = gen.execute(&dag, &bindings).into_values();
        for (o, e) in out.iter().zip(&base) {
            assert!(fusedml_linalg::approx_eq(o.as_scalar(), e.as_scalar(), 1e-9));
        }
    }

    #[test]
    fn all_modes_agree_on_cell_chain() {
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", 150, 150, 1.0);
        let y = b.read("Y", 150, 150, 1.0);
        let z = b.read("Z", 150, 150, 1.0);
        let m1 = b.mult(x, y);
        let m2 = b.mult(m1, z);
        let s = b.sum(m2);
        let dag = b.build(vec![s]);
        let bindings = bind(&[
            ("X", generate::rand_dense(150, 150, -1.0, 1.0, 11)),
            ("Y", generate::rand_dense(150, 150, -1.0, 1.0, 12)),
            ("Z", generate::rand_dense(150, 150, -1.0, 1.0, 13)),
        ]);
        let reference = run(FusionMode::Base, &dag, &bindings)[0].as_scalar();
        for mode in [FusionMode::Fused, FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR] {
            let out = run(mode, &dag, &bindings)[0].as_scalar();
            assert!(
                fusedml_linalg::approx_eq(out, reference, 1e-9),
                "{mode:?}: {out} vs {reference}"
            );
        }
    }

    #[test]
    fn plan_cache_avoids_reoptimization() {
        let build = || {
            let mut b = fusedml_hop::DagBuilder::new();
            let x = b.read("X", 100, 100, 1.0);
            let y = b.read("Y", 100, 100, 1.0);
            let m = b.mult(x, y);
            let s = b.sum(m);
            b.build(vec![s])
        };
        let exec = Engine::new(FusionMode::Gen);
        let bindings = bind(&[
            ("X", generate::rand_dense(100, 100, 0.0, 1.0, 14)),
            ("Y", generate::rand_dense(100, 100, 0.0, 1.0, 15)),
        ]);
        let _ = exec.execute(&build(), &bindings);
        let _ = exec.execute(&build(), &bindings);
        let snap = exec.optimizer().stats.snapshot();
        assert_eq!(snap.dags_optimized, 1, "second execution hits the plan cache");
    }

    /// Materialized intermediates shared between a fused operator and an
    /// external consumer are computed correctly (redundant or materialized).
    #[test]
    fn shared_intermediate_correctness() {
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", 120, 80, 1.0);
        let y = b.read("Y", 120, 80, 1.0);
        let shared = b.mult(x, y);
        let e = b.exp(shared);
        let s1 = b.sum(e);
        let s2 = b.sum(shared);
        let dag = b.build(vec![s1, s2]);
        let bindings = bind(&[
            ("X", generate::rand_dense(120, 80, -0.5, 0.5, 16)),
            ("Y", generate::rand_dense(120, 80, -0.5, 0.5, 17)),
        ]);
        let base = run(FusionMode::Base, &dag, &bindings);
        for mode in [FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR] {
            let out = run(mode, &dag, &bindings);
            for (o, e) in out.iter().zip(&base) {
                assert!(fusedml_linalg::approx_eq(o.as_scalar(), e.as_scalar(), 1e-9), "{mode:?}");
            }
        }
    }
}
