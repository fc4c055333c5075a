//! Execution statistics and the sequential oracle.
//!
//! The executor API lives on [`crate::engine::Engine`] and
//! [`crate::engine::CompiledScript`] (compile once, execute concurrently).
//! This module keeps the counter record of one run ([`SchedSnapshot`]), the
//! engine-wide record every run is absorbed into ([`ExecStats`]), and the
//! seed's recursive materializer (`sequential`) that the scheduled engine is
//! differentially tested against.

use crate::spoof;
pub use fusedml_core::optimizer::dag_structural_hash;
use fusedml_core::optimizer::{FusedOperator, FusionPlan};
use fusedml_core::spoof::mono::ShapeClass;
use fusedml_core::util::FxHashMap;
use fusedml_core::FusionMode;
use fusedml_hop::interp::{self, Bindings};
use fusedml_hop::{HopDag, HopId};
use fusedml_linalg::matrix::Value;
use parking_lot::{Mutex, MutexGuard};

/// The counters of one `execute` call: operators run, scheduler events,
/// buffer-pool requests, spill traffic and shard work. A run fills its own
/// record under the scheduler lock and returns it on `Outputs::sched`;
/// [`SchedSnapshot::absorb`] adds it to the engine's [`ExecStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    /// Generated fused operators executed.
    pub fused_ops: usize,
    /// Fused operators whose inner loops ran a kernel of their own (a
    /// Cell/MAgg/Outer product chain, a Row mv-chain or row tile).
    pub mono_ops: usize,
    /// Fused operators that ran the tile/band interpreter.
    pub interp_fused_ops: usize,
    /// Hand-coded fused operators executed: the generated operators of a
    /// `Fused` run, one per pattern instance (see
    /// `SchedSnapshot::reported_for`).
    pub handcoded_ops: usize,
    /// Basic operators executed.
    pub basic_ops: usize,
    /// Operators that started while at least one other was still running.
    pub parallel_ops: usize,
    /// Bytes of intermediates freed before the end of their DAG.
    pub bytes_freed_early: usize,
    /// Tracked peak resident bytes.
    pub peak_bytes: usize,
    /// Hold-everything resident bytes (inputs + every materialized value,
    /// nothing freed) — what the seed runtime kept.
    pub resident_all_bytes: usize,
    /// Buffer-pool requests served from the pool.
    pub pool_hits: usize,
    /// Buffer-pool requests that fell through to a fresh allocation.
    pub pool_misses: usize,
    /// Serialized bytes evicted to the spill tier.
    pub spilled_bytes: usize,
    /// Serialized bytes reloaded from the spill tier.
    pub reloaded_bytes: usize,
    /// Reloads from the spill tier (a task found its input on disk at
    /// gather, or a root was on disk at the end of the run).
    pub spill_faults: usize,
    /// Microseconds workers spent blocked on in-flight spill I/O, or waiting
    /// for a running task to finish before their reservation fits the
    /// budget.
    pub spill_stall_us: usize,
    /// Bytes of leaf bindings streamed band-by-band instead of being charged
    /// against the resident budget (each larger than the whole budget).
    pub streamed_leaf_bytes: usize,
    /// Spill I/O attempts that failed and were retried (whether or not a
    /// later attempt succeeded).
    pub spill_retries: usize,
    /// Faults the engine's `FaultPlan` injected.
    pub injected_faults: usize,
    /// Runs that degraded to resident-only execution after exhausting spill
    /// write retries (0 or 1 for one run).
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
    /// The record as an engine of `mode` reports it. A `Fused` plan's
    /// operators are the hand-coded pattern instances, so a `Fused` run
    /// counts them as `handcoded_ops` (and as neither mono nor interpreted);
    /// every other mode's record is returned as is.
    pub(crate) fn reported_for(mut self, mode: FusionMode) -> SchedSnapshot {
        if mode == FusionMode::Fused {
            self.handcoded_ops += std::mem::take(&mut self.fused_ops);
            self.mono_ops = 0;
            self.interp_fused_ops = 0;
        }
        self
    }

    /// Adds `other` into `self`: a sharded operator's record into its run's,
    /// a run's into its engine's. Event counts sum. The footprint figures
    /// (`peak_bytes`, `resident_all_bytes`, `streamed_leaf_bytes`) and the
    /// shard high-waters (`shards_used`, `shard_skew_milli`) keep the
    /// maximum, so a small run finishing after a large one cannot clobber
    /// the engine's reported peak.
    pub fn absorb(&mut self, other: &SchedSnapshot) {
        // Destructured, so a new field does not compile until it has a rule.
        let SchedSnapshot {
            fused_ops,
            mono_ops,
            interp_fused_ops,
            handcoded_ops,
            basic_ops,
            parallel_ops,
            bytes_freed_early,
            peak_bytes,
            resident_all_bytes,
            pool_hits,
            pool_misses,
            spilled_bytes,
            reloaded_bytes,
            spill_faults,
            spill_stall_us,
            streamed_leaf_bytes,
            spill_retries,
            injected_faults,
            degraded,
            sharded_ops,
            shards_used,
            shard_broadcast_bytes,
            shard_partial_bytes,
            shard_merge_us,
            shard_skew_milli,
        } = *other;
        self.fused_ops += fused_ops;
        self.mono_ops += mono_ops;
        self.interp_fused_ops += interp_fused_ops;
        self.handcoded_ops += handcoded_ops;
        self.basic_ops += basic_ops;
        self.parallel_ops += parallel_ops;
        self.bytes_freed_early += bytes_freed_early;
        self.peak_bytes = self.peak_bytes.max(peak_bytes);
        self.resident_all_bytes = self.resident_all_bytes.max(resident_all_bytes);
        self.pool_hits += pool_hits;
        self.pool_misses += pool_misses;
        self.spilled_bytes += spilled_bytes;
        self.reloaded_bytes += reloaded_bytes;
        self.spill_faults += spill_faults;
        self.spill_stall_us += spill_stall_us;
        self.streamed_leaf_bytes = self.streamed_leaf_bytes.max(streamed_leaf_bytes);
        self.spill_retries += spill_retries;
        self.injected_faults += injected_faults;
        self.degraded += degraded;
        self.sharded_ops += sharded_ops;
        self.shards_used = self.shards_used.max(shards_used);
        self.shard_broadcast_bytes += shard_broadcast_bytes;
        self.shard_partial_bytes += shard_partial_bytes;
        self.shard_merge_us += shard_merge_us;
        self.shard_skew_milli = self.shard_skew_milli.max(shard_skew_milli);
    }

    /// Counts one executed fused operator under its kernel shape class.
    pub(crate) fn count_fused(&mut self, class: ShapeClass) {
        self.fused_ops += 1;
        if class.is_specialized() {
            self.mono_ops += 1;
        } else {
            self.interp_fused_ops += 1;
        }
    }

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
}

/// The engine-wide counters: one instance per [`crate::engine::Engine`] (as
/// `Arc<ExecStats>`), shared with every [`crate::engine::CompiledScript`] it
/// compiles. A run takes the lock once, when it ends, to absorb its record.
/// Read through [`ExecStats::snapshot`] / [`ExecStats::scheduler_snapshot`];
/// per-call records come back on `Outputs::sched`.
#[derive(Debug, Default)]
pub struct ExecStats(Mutex<EngineTotals>);

/// What [`ExecStats`] guards.
#[derive(Debug, Default)]
pub(crate) struct EngineTotals {
    /// Every run's record, absorbed.
    pub(crate) sched: SchedSnapshot,
    /// Compiled-script recompiles triggered by the shape-revalidation guard
    /// (bound input geometry diverged from the costed plan).
    pub(crate) plan_recompiles: usize,
    /// Executions that ended in a typed [`crate::error::ExecError`] (the
    /// engine swept and stayed reusable after each).
    pub(crate) failed_executions: usize,
}

impl ExecStats {
    pub(crate) fn lock(&self) -> MutexGuard<'_, EngineTotals> {
        self.0.lock()
    }

    /// `(fused, handcoded, basic)` operator counts.
    pub fn snapshot(&self) -> (usize, usize, usize) {
        let s = self.lock().sched;
        (s.fused_ops, s.handcoded_ops, s.basic_ops)
    }

    /// `(mono, interpreted)` fused-operator counts: how many fused operators
    /// executed a product chain, mv-chain or row tile versus the tile/band
    /// interpreter — a label, not a speed proxy (the interpreter is the
    /// faster of the two for every body that is not a product chain).
    /// `mono + interpreted == fused` from [`Self::snapshot`].
    pub fn mono_snapshot(&self) -> (usize, usize) {
        let s = self.lock().sched;
        (s.mono_ops, s.interp_fused_ops)
    }

    /// Every run's [`SchedSnapshot`], absorbed.
    pub fn scheduler_snapshot(&self) -> SchedSnapshot {
        self.lock().sched
    }

    /// Executions that returned a typed error (after which the engine swept
    /// itself and stayed reusable).
    pub fn failed_executions(&self) -> usize {
        self.lock().failed_executions
    }

    /// Recompiles triggered by the shape-revalidation guard.
    pub fn plan_recompiles(&self) -> usize {
        self.lock().plan_recompiles
    }

    pub fn reset(&self) {
        *self.lock() = EngineTotals::default();
    }
}

/// The seed's recursive lazy materializer: every intermediate stays alive
/// for the whole DAG and operators run one at a time. Runs the same `plan`
/// as [`crate::schedule::prepare`] (`None` under `Base`) and backs
/// `CompiledScript::execute_sequential`, the oracle the scheduled engine is
/// compared against. Its operator counts join `stats` once, at the end, as
/// an engine of `mode` reports them.
pub(crate) fn sequential(
    dag: &HopDag,
    plan: Option<&FusionPlan>,
    mode: FusionMode,
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
    let mut cx = Sequential { dag, op_roots, bindings, counts: SchedSnapshot::default() };
    let mut vals: Vec<Option<Value>> = vec![None; dag.len()];
    for &root in dag.roots() {
        cx.materialize(&mut vals, root);
    }
    stats.lock().sched.absorb(&cx.counts.reported_for(mode));
    dag.roots().iter().map(|r| vals[r.index()].take().expect("root computed")).collect()
}

/// What one [`sequential`] run reads while it recurses, and the operators it
/// has counted.
struct Sequential<'a> {
    dag: &'a HopDag,
    op_roots: FxHashMap<HopId, &'a FusedOperator>,
    bindings: &'a Bindings,
    counts: SchedSnapshot,
}

impl Sequential<'_> {
    /// Lazily computes the value of `hop`: through the fused operator rooted
    /// there (whose interior hops then never run), as a basic operator
    /// otherwise.
    fn materialize(&mut self, vals: &mut Vec<Option<Value>>, hop: HopId) {
        if vals[hop.index()].is_some() {
            return;
        }
        if let Some(f) = self.op_roots.get(&hop).copied() {
            for &i in f.cplan.main.iter().chain(&f.cplan.sides).chain(&f.cplan.scalars) {
                self.materialize(vals, i);
            }
            let outs = run_operator(f, vals, &mut self.counts);
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
        let dag = self.dag;
        for &i in &dag.hop(hop).inputs {
            self.materialize(vals, i);
        }
        if !dag.hop(hop).kind.is_leaf() {
            self.counts.basic_ops += 1;
        }
        vals[hop.index()] = Some(interp::eval_op(dag, hop, vals, self.bindings));
    }
}

/// Runs one fused operator with bound inputs, counting it in `counts`.
fn run_operator(
    f: &FusedOperator,
    vals: &[Option<Value>],
    counts: &mut SchedSnapshot,
) -> Vec<fusedml_linalg::Matrix> {
    let get_matrix = |h: HopId| -> fusedml_linalg::Matrix {
        vals[h.index()].as_ref().expect("operator input computed").as_matrix()
    };
    let main_val = f.cplan.main.map(get_matrix);
    let sides: Vec<fusedml_linalg::Matrix> = f.cplan.sides.iter().map(|&h| get_matrix(h)).collect();
    let scalars: Vec<f64> = f
        .cplan
        .scalars
        .iter()
        .map(|&h| vals[h.index()].as_ref().expect("scalar computed").as_scalar())
        .collect();
    counts.count_fused(f.op.class);
    spoof::execute(&f.op, main_val.as_ref(), &sides, &scalars, f.cplan.iter_rows, f.cplan.iter_cols)
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
