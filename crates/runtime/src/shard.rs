//! Sharded multi-worker execution: the engine's one distributed runtime
//! and one cluster cost model (DESIGN.md substitution X11).
//!
//! A [`ShardPool`] owns `k` persistent worker shards — threads with their own
//! kernel scope sharing the engine's buffer pool — pinned NUMA-aware where
//! the topology is detectable (`/sys/devices/system/node`), falling back to
//! plain round-robin CPU pinning. The driver row-partitions a fused
//! operator's bound inputs across the shards (each worker reads its rows in
//! place through an O(1) [`Matrix::row_slice`] view; nothing is copied),
//! broadcasts row-invariant side inputs (an `Arc` clone in-process), executes
//! the *same* fused skeletons (`spoof::execute`) per shard, and merges the
//! partial outputs:
//!
//! * map-class operators (`NoAgg`, `RowAgg`) concatenate partial rows, which
//!   is bitwise-identical to local execution because every skeleton's output
//!   format is a pure function of the main-input format and sparse-safety,
//! * reductions (`ColAgg`, `FullAgg`, MultiAgg) merge element-wise with the
//!   aggregate's combiner ([`MergeOp`]); `Mean` aggregates are not sharded
//!   because their finalization divides by a shard-local count.
//!
//! Whether an operator runs locally or sharded is a cost decision
//! ([`plan_operator`]): the same Boehm-2017-style estimator
//! ([`fusedml_core::opt::cost::CostModel::shard_op_seconds`] under
//! [`DistConfig::in_process`]) serves the planner and `table6`'s modeled
//! column, so modeled and measured execution share one code path.
//!
//! Failure semantics: a panicking shard fails only its own request —
//! first-failure-wins cancellation reaches sibling shards through a shared
//! flag, every shard always replies (ok / panicked / cancelled), and the
//! driver surfaces one typed [`ShardError`]. The shard threads survive and
//! keep serving later requests.

use crate::error::panic_message;
use crate::side::SideInput;
use crate::spoof;
use fusedml_core::codegen::GeneratedOperator;
use fusedml_core::opt::cost::{compute_costs, CostModel, DistConfig};
use fusedml_core::optimizer::{FusedOperator, FusionPlan};
use fusedml_core::plancache::KernelCaches;
use fusedml_core::spoof::{CellAgg, FusedSpec, Instr, RowOut, SideAccess};
use fusedml_hop::{HopDag, HopId};
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::pool::PoolHandle;
use fusedml_linalg::{par, pool, Matrix};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Shard plans
// ---------------------------------------------------------------------------

/// How one side input travels to the shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SideDisp {
    /// Row-aligned with the main input: each shard receives its row slice.
    Partition,
    /// Row-invariant: every shard receives the whole matrix (`Arc` clone).
    Broadcast,
}

/// Element-wise combiner for one partially-aggregated output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOp {
    Add,
    Min,
    Max,
}

/// How the driver merges per-shard partial outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergePlan {
    /// Map-class outputs: stack the row partitions back in shard order.
    ConcatRows,
    /// Aggregated outputs: fold element-wise, one combiner per output.
    Elementwise(Vec<MergeOp>),
}

/// A verified sharding decision for one fused operator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards the planner assumed (the driver clamps to the pool).
    pub shards: usize,
    /// Disposition per side input, in CPlan binding order.
    pub sides: Vec<SideDisp>,
    /// Partial-output merge semantics.
    pub merge: MergePlan,
}

/// The combiner matching an aggregate, or `None` when partial aggregates
/// cannot be merged element-wise (`Mean` divides by a shard-local count).
fn merge_op_for(op: AggOp) -> Option<MergeOp> {
    match op {
        AggOp::Sum | AggOp::SumSq => Some(MergeOp::Add),
        AggOp::Min => Some(MergeOp::Min),
        AggOp::Max => Some(MergeOp::Max),
        AggOp::Mean => None,
    }
}

/// Derives the legal sharding of a fused operator, or `None` when row
/// partitioning cannot be proven safe. Pure function of the operator spec
/// and CPlan geometry — the plan verifier re-derives it to cross-check
/// whatever the planner recorded.
///
/// Legality rules (each also documented in DESIGN.md §4 X11):
/// * a main input must exist (it carries the row partitioning),
/// * `iter_rows >= shards` so every shard receives at least one row,
/// * Outer operators never shard (their U/V factors are indexed by both the
///   row and the column of the main cell, so row partitioning is not
///   shuffle-free),
/// * every side access must resolve to a disposition: row-aligned accesses
///   (`Cell`/`Col`, row slices) partition and require `side.rows ==
///   iter_rows`; row-invariant accesses (`Row`/`Scalar`, whole-matrix
///   `VecMatMult`, single-row slices) broadcast; a side demanded both ways
///   disables sharding,
/// * the output aggregation must merge: concat for map-class, an
///   element-wise combiner for reductions, never `Mean`.
pub fn derive_spec(
    spec: &FusedSpec,
    cplan: &fusedml_core::cplan::CPlan,
    shards: usize,
) -> Option<ShardSpec> {
    if shards < 2 || cplan.main.is_none() || cplan.iter_rows < shards {
        return None;
    }
    let merge = match spec {
        FusedSpec::Outer(_) => return None,
        FusedSpec::Cell(c) => match c.agg {
            CellAgg::NoAgg | CellAgg::RowAgg(_) => MergePlan::ConcatRows,
            CellAgg::ColAgg(op) | CellAgg::FullAgg(op) => {
                MergePlan::Elementwise(vec![merge_op_for(op)?])
            }
        },
        FusedSpec::MAgg(m) => MergePlan::Elementwise(
            m.results.iter().map(|&(_, op)| merge_op_for(op)).collect::<Option<Vec<_>>>()?,
        ),
        FusedSpec::Row(r) => match r.out {
            RowOut::NoAgg { .. } | RowOut::RowAgg { .. } => MergePlan::ConcatRows,
            RowOut::ColAgg { .. }
            | RowOut::FullAgg { .. }
            | RowOut::OuterColAgg { .. }
            | RowOut::ColAggMultAdd { .. } => MergePlan::Elementwise(vec![MergeOp::Add]),
        },
    };
    // RowAgg(Mean) finalizes per row by `iter_cols`, which row partitioning
    // preserves; Cell NoAgg/RowAgg outputs are per-row pure. Both concat.
    let mut sides: Vec<Option<SideDisp>> = vec![None; cplan.sides.len()];
    let mut want = |i: usize, d: SideDisp| -> bool {
        match sides[i] {
            None => {
                sides[i] = Some(d);
                true
            }
            Some(prev) => prev == d,
        }
    };
    for instr in &spec.program().instrs {
        let ok = match *instr {
            Instr::LoadSide { side, access, .. } => match access {
                SideAccess::Cell | SideAccess::Col => want(side, SideDisp::Partition),
                SideAccess::Row | SideAccess::Scalar => want(side, SideDisp::Broadcast),
            },
            Instr::LoadSideRow { side, cl, cu, .. } => {
                // Row-invariant loads — a single-row side, or a whole
                // vector-side load (the hoisted `v` of an mv-chain) — read
                // the same lanes for every rix and broadcast; everything
                // else slices row rix of the side and must be partitioned
                // with the main.
                let invariant = cplan.side_dims.get(side).is_some_and(|&(r, c)| {
                    r == 1 || fusedml_core::spoof::block::whole_vector_load(r, c, cl, cu)
                });
                if invariant {
                    want(side, SideDisp::Broadcast)
                } else {
                    want(side, SideDisp::Partition)
                }
            }
            Instr::VecMatMult { side, .. } => want(side, SideDisp::Broadcast),
            _ => true,
        };
        if !ok {
            return None;
        }
    }
    let sides: Vec<SideDisp> = sides
        .into_iter()
        // Sides never touched by the program broadcast (cheap and safe).
        .map(|d| d.unwrap_or(SideDisp::Broadcast))
        .collect();
    for (i, d) in sides.iter().enumerate() {
        if *d == SideDisp::Partition && cplan.side_dims[i].0 != cplan.iter_rows {
            return None;
        }
    }
    Some(ShardSpec { shards, sides, merge })
}

/// Local and sharded wall-time estimates for one fused operator.
#[derive(Clone, Debug)]
pub struct OpEstimate {
    /// Template + geometry label for reports.
    pub label: String,
    /// Eq. 4 single-node estimate.
    pub local_seconds: f64,
    /// Sharded estimate, `None` when the operator is not shardable.
    pub sharded_seconds: Option<f64>,
}

/// Modeled execution times of a whole fusion plan, local vs planner-chosen.
#[derive(Clone, Debug)]
pub struct PlanEstimate {
    /// Σ over operators of the local estimate.
    pub local_seconds: f64,
    /// Σ over operators of `min(local, sharded)` — what the planner picks.
    pub chosen_seconds: f64,
    /// Operators the planner shards under `chosen_seconds`.
    pub sharded_ops: usize,
    /// Per-operator breakdown.
    pub ops: Vec<OpEstimate>,
}

fn operator_bytes(dag: &HopDag, f: &FusedOperator, spec: &ShardSpec) -> (f64, f64, f64) {
    let main_bytes = f.cplan.main.map(|m| dag.hop(m).size.bytes()).unwrap_or(0.0);
    let mut part = main_bytes;
    let mut bcast = 0.0;
    for (&s, d) in f.cplan.sides.iter().zip(&spec.sides) {
        let b = dag.hop(s).size.bytes();
        match d {
            SideDisp::Partition => part += b,
            SideDisp::Broadcast => bcast += b,
        }
    }
    let out: f64 = f.roots.iter().map(|&r| dag.hop(r).size.bytes()).sum();
    (part, bcast, out)
}

fn operator_flops(f: &FusedOperator, compute: &[f64]) -> f64 {
    let mut ids: Vec<HopId> = f.cplan.covered.clone();
    ids.extend_from_slice(&f.roots);
    ids.sort_unstable();
    ids.dedup();
    ids.iter().map(|h| compute[h.index()]).sum()
}

/// Estimates one fused operator both ways and returns the estimate pair.
pub fn estimate_operator(
    dag: &HopDag,
    f: &FusedOperator,
    compute: &[f64],
    shards: usize,
    model: &CostModel,
) -> OpEstimate {
    let flops = operator_flops(f, compute);
    let in_bytes: f64 =
        f.cplan.main.iter().chain(f.cplan.sides.iter()).map(|&h| dag.hop(h).size.bytes()).sum();
    let out_bytes: f64 = f.roots.iter().map(|&r| dag.hop(r).size.bytes()).sum();
    let local_seconds = model.local_op_seconds(in_bytes, out_bytes, flops);
    let sharded_seconds = derive_spec(&f.op.spec, &f.cplan, shards).map(|spec| {
        let (part, bcast, out) = operator_bytes(dag, f, &spec);
        model.shard_op_seconds(&DistConfig::in_process(shards), part, bcast, out, flops, shards)
    });
    let label =
        format!("{}[{}x{}]", f.op.spec.template_name(), f.cplan.iter_rows, f.cplan.iter_cols);
    OpEstimate { label, local_seconds, sharded_seconds }
}

/// The planner's local-vs-sharded choice for one fused operator: shard
/// exactly when it is legal *and* the modeled sharded time beats local.
pub fn plan_operator(
    dag: &HopDag,
    f: &FusedOperator,
    compute: &[f64],
    shards: usize,
    model: &CostModel,
) -> Option<ShardSpec> {
    let spec = derive_spec(&f.op.spec, &f.cplan, shards)?;
    let est = estimate_operator(dag, f, compute, shards, model);
    match est.sharded_seconds {
        Some(s) if s < est.local_seconds => Some(spec),
        _ => None,
    }
}

/// Plans every operator of a fusion plan; index-aligned with
/// `plan.operators`.
pub fn plan_shards(
    dag: &HopDag,
    plan: &FusionPlan,
    shards: usize,
    model: &CostModel,
) -> Vec<Option<ShardSpec>> {
    let compute = compute_costs(dag);
    plan.operators.iter().map(|f| plan_operator(dag, f, &compute, shards, model)).collect()
}

/// Shards every legally-shardable operator of a plan unconditionally,
/// skipping the cost comparison (`EngineBuilder::force_shard`; differential
/// tests exercise the sharded data path on cost-unfavorable geometries).
pub fn force_shards(plan: &FusionPlan, shards: usize) -> Vec<Option<ShardSpec>> {
    plan.operators.iter().map(|f| derive_spec(&f.op.spec, &f.cplan, shards)).collect()
}

/// Models a whole plan's fused operators local vs planner-chosen — the
/// `table6` modeled column. Shares the estimator with [`plan_operator`].
pub fn estimate_plan(
    dag: &HopDag,
    plan: &FusionPlan,
    shards: usize,
    model: &CostModel,
) -> PlanEstimate {
    let compute = compute_costs(dag);
    let mut ops = Vec::with_capacity(plan.operators.len());
    let (mut local, mut chosen, mut sharded_ops) = (0.0, 0.0, 0usize);
    for f in &plan.operators {
        let e = estimate_operator(dag, f, &compute, shards, model);
        local += e.local_seconds;
        match e.sharded_seconds {
            Some(s) if s < e.local_seconds => {
                chosen += s;
                sharded_ops += 1;
            }
            _ => chosen += e.local_seconds,
        }
        ops.push(e);
    }
    PlanEstimate { local_seconds: local, chosen_seconds: chosen, sharded_ops, ops }
}

// ---------------------------------------------------------------------------
// NUMA detection and CPU pinning
// ---------------------------------------------------------------------------

/// Parses a kernel cpulist ("0-3,8,10-11") into CPU indices.
fn parse_cpulist(s: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in s.trim().split(',') {
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
                    cpus.extend(lo..=hi.min(lo + 4096));
                }
            }
            None => {
                if let Ok(c) = part.trim().parse::<usize>() {
                    cpus.push(c);
                }
            }
        }
    }
    cpus
}

/// Per-NUMA-node CPU lists from sysfs; empty when the topology is not
/// exposed (non-Linux, restricted container).
fn numa_node_cpus() -> Vec<Vec<usize>> {
    let mut nodes = Vec::new();
    for ix in 0..64usize {
        let path = format!("/sys/devices/system/node/node{ix}/cpulist");
        match std::fs::read_to_string(&path) {
            Ok(s) => {
                let cpus = parse_cpulist(&s);
                if !cpus.is_empty() {
                    nodes.push(cpus);
                }
            }
            Err(_) => break,
        }
    }
    nodes
}

/// The CPUs shard `ix` should pin to: a whole NUMA node round-robin when
/// multiple nodes are detectable, else a plain contiguous block modulo the
/// hardware thread count. Empty = leave scheduling to the OS.
fn shard_cpus(nodes: &[Vec<usize>], ix: usize, threads: usize) -> Vec<usize> {
    if nodes.len() > 1 {
        return nodes[ix % nodes.len()].clone();
    }
    let total = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if total <= 1 {
        return Vec::new();
    }
    let t = threads.max(1);
    (0..t).map(|j| (ix * t + j) % total).collect()
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Mirrors glibc's `cpu_set_t`: a 1024-bit CPU mask.
    #[repr(C)]
    struct CpuSet {
        bits: [u64; 16],
    }

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// Best-effort pin of the calling thread to `cpus`; never fails (a
    /// denied or invalid mask just leaves OS scheduling in place).
    pub fn pin_current_thread(cpus: &[usize]) {
        let mut set = CpuSet { bits: [0; 16] };
        let mut any = false;
        for &c in cpus {
            if c < 1024 {
                set.bits[c / 64] |= 1u64 << (c % 64);
                any = true;
            }
        }
        if !any {
            return;
        }
        // SAFETY: `set` is a properly initialized, repr(C) bitmask whose
        // layout matches the kernel's sched_setaffinity ABI, passed by
        // pointer with its exact size; pid 0 targets the calling thread
        // only. The call writes nothing through the pointer and the return
        // value is deliberately ignored (pinning is advisory).
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_current_thread(_cpus: &[usize]) {}
}

// ---------------------------------------------------------------------------
// The shard pool
// ---------------------------------------------------------------------------

/// What every shard of one [`ShardPool::execute`] reads: the operator and
/// the full (Arc-shared) inputs. Each worker cuts its own row band out of
/// them — an O(1) [`Matrix::row_slice`] view, scanned where it already lies.
struct Job {
    op: Arc<GeneratedOperator>,
    main: Matrix,
    sides: Vec<Matrix>,
    /// Per side: `true` = this shard's rows of it, `false` = broadcast whole.
    partition: Vec<bool>,
    scalars: Vec<f64>,
    iter_cols: usize,
    cancel: AtomicBool,
}

/// One shard's share of a [`Job`].
struct Request {
    job: Arc<Job>,
    /// This shard's half-open row range of the main (and partitioned sides).
    rows: (usize, usize),
    shard_ix: usize,
    inject_panic: bool,
    reply: mpsc::Sender<(usize, Reply, u64)>,
}

enum Reply {
    Ok(Vec<Matrix>),
    Panicked(String),
    Cancelled,
}

struct Worker {
    /// `mpsc::Sender` is `!Sync`; the mutex wrapper restores `Sync` so the
    /// pool can live inside the engine's `Send + Sync` inner state. Taken
    /// (dropped) on pool drop to hang up the worker.
    sender: Mutex<Option<mpsc::Sender<Request>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Observed counters of one sharded operator execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardRunStats {
    /// Shards that actually received a slice (≤ pool size, ≤ main rows).
    pub shards_used: usize,
    /// Bytes of side inputs broadcast (counted once per receiving shard).
    pub broadcast_bytes: usize,
    /// Bytes of per-shard partial outputs merged by the driver.
    pub partial_bytes: usize,
    /// Driver-side merge wall time.
    pub merge_nanos: u64,
    /// Skew: slowest shard time over mean shard time, ×1000.
    pub skew_milli: u64,
}

/// A failed sharded execution: which shard failed first, and why.
#[derive(Clone, Debug)]
pub struct ShardError {
    pub shard: usize,
    pub message: String,
}

/// A pool of persistent worker shards (see the module docs).
pub struct ShardPool {
    workers: Vec<Worker>,
}

impl ShardPool {
    /// Spawns `shards` worker threads, each entering the engine's buffer
    /// pool and kernel caches once for its lifetime and capping its internal
    /// band parallelism at `shard_threads`.
    pub fn new(
        shards: usize,
        shard_threads: usize,
        pool: PoolHandle,
        kernels: Arc<KernelCaches>,
    ) -> ShardPool {
        let shards = shards.max(1);
        let nodes = numa_node_cpus();
        let workers = (0..shards)
            .map(|ix| {
                let (tx, rx) = mpsc::channel::<Request>();
                let cpus = shard_cpus(&nodes, ix, shard_threads);
                let pool = pool.clone();
                let kernels = Arc::clone(&kernels);
                let handle = std::thread::Builder::new()
                    .name(format!("fusedml-shard-{ix}"))
                    .spawn(move || {
                        affinity::pin_current_thread(&cpus);
                        let _limit = par::limit_current_thread(shard_threads.max(1));
                        // Persistent scopes for the thread's lifetime: the
                        // pool scope is entered plain (not tallied) because
                        // the shard thread outlives any single engine run.
                        let _pool = pool::enter(&pool);
                        let _kernels = spoof::enter_kernels(&kernels);
                        worker_loop(&rx);
                    })
                    .expect("spawn shard worker");
                Worker { sender: Mutex::new(Some(tx)), handle: Some(handle) }
            })
            .collect();
        ShardPool { workers }
    }

    /// Number of worker shards.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Executes one fused operator across the shards: assigns each a balanced
    /// row block of the main input (and partitioned sides), broadcasts the
    /// rest, collects every shard's reply, and merges the partials per the
    /// spec. First failure wins: one panicked shard cancels its siblings'
    /// outstanding work and surfaces as a single [`ShardError`]; the pool
    /// stays fully usable.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &self,
        op: &Arc<GeneratedOperator>,
        spec: &ShardSpec,
        main: &Matrix,
        sides: &[Matrix],
        scalars: &[f64],
        iter_cols: usize,
        inject_panic: bool,
    ) -> Result<(Vec<Matrix>, ShardRunStats), ShardError> {
        let rows = main.rows();
        let k = spec.shards.min(self.workers.len()).min(rows).max(1);
        let (reply_tx, reply_rx) = mpsc::channel();
        let (base, rem) = (rows / k, rows % k);
        let partition: Vec<bool> = spec.sides.iter().map(|d| *d == SideDisp::Partition).collect();
        let broadcast_bytes: usize = sides
            .iter()
            .zip(&partition)
            .map(|(s, &p)| if p { 0 } else { k * s.size_in_bytes() })
            .sum();
        let job = Arc::new(Job {
            op: Arc::clone(op),
            main: main.clone(),
            sides: sides.to_vec(),
            partition,
            scalars: scalars.to_vec(),
            iter_cols,
            cancel: AtomicBool::new(false),
        });
        let mut start = 0usize;
        let mut sent = 0usize;
        let mut dead_shard: Option<usize> = None;
        for ix in 0..k {
            let end = start + base + usize::from(ix < rem);
            let req = Request {
                job: Arc::clone(&job),
                rows: (start, end),
                shard_ix: ix,
                inject_panic: inject_panic && ix == 0,
                reply: reply_tx.clone(),
            };
            let delivered = match self.workers[ix].sender.lock().as_ref() {
                Some(tx) => tx.send(req).is_ok(),
                None => false,
            };
            if !delivered {
                job.cancel.store(true, Ordering::Relaxed);
                dead_shard = Some(ix);
                break;
            }
            sent += 1;
            start = end;
        }
        drop(reply_tx);

        let mut parts: Vec<Option<Vec<Matrix>>> = (0..k).map(|_| None).collect();
        let mut times = vec![0u64; k];
        let mut first_err: Option<ShardError> = None;
        for _ in 0..sent {
            let Ok((ix, reply, nanos)) = reply_rx.recv() else { break };
            times[ix] = nanos;
            match reply {
                Reply::Ok(outs) => parts[ix] = Some(outs),
                Reply::Panicked(message) => {
                    job.cancel.store(true, Ordering::Relaxed);
                    first_err.get_or_insert(ShardError { shard: ix, message });
                }
                Reply::Cancelled => {}
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if let Some(ix) = dead_shard {
            return Err(ShardError { shard: ix, message: "shard worker unavailable".into() });
        }
        let Some(parts) = parts.into_iter().collect::<Option<Vec<Vec<Matrix>>>>() else {
            return Err(ShardError {
                shard: 0,
                message: "shard reply channel closed early".into(),
            });
        };
        let partial_bytes: usize =
            parts.iter().flat_map(|p| p.iter().map(Matrix::size_in_bytes)).sum();
        // Every worker let go of the job before replying; with this last hold
        // gone the caller's inputs are uniquely held again and can recycle.
        drop(job);
        let merge_start = Instant::now();
        let outs = merge_parts(&spec.merge, parts);
        let merge_nanos = merge_start.elapsed().as_nanos() as u64;
        let max = times.iter().copied().max().unwrap_or(0);
        let mean = times.iter().sum::<u64>() / k as u64;
        let skew_milli = max.saturating_mul(1000).checked_div(mean).unwrap_or(1000);
        let stats = ShardRunStats {
            shards_used: k,
            broadcast_bytes,
            partial_bytes,
            merge_nanos,
            skew_milli,
        };
        Ok((outs, stats))
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for w in &self.workers {
            w.sender.lock().take();
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// The shard worker body: serve requests until the channel hangs up. Every
/// request is answered exactly once — ok, panicked (message captured under
/// `catch_unwind`), or cancelled — so the driver can always count replies.
fn worker_loop(rx: &mpsc::Receiver<Request>) {
    while let Ok(Request { job, rows: (r0, r1), shard_ix, inject_panic, reply }) = rx.recv() {
        let started = Instant::now();
        let outcome = if job.cancel.load(Ordering::Relaxed) {
            Reply::Cancelled
        } else {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected shard panic");
                }
                // This shard's partition: row bands sharing the job's buffers.
                let main = job.main.row_slice(r0, r1);
                let bind = |(s, &p): (&Matrix, &bool)| {
                    SideInput::bind(&if p { s.row_slice(r0, r1) } else { s.clone() })
                };
                let sides: Vec<SideInput> =
                    job.sides.iter().zip(&job.partition).map(bind).collect();
                let (spec, rows) = (&job.op.spec, main.rows());
                spoof::execute(spec, Some(&main), &sides, &job.scalars, rows, job.iter_cols)
            }));
            match ran {
                Ok(outs) => Reply::Ok(outs),
                Err(payload) => Reply::Panicked(panic_message(&*payload)),
            }
        };
        // Let go of the inputs first: once the driver has every reply,
        // nothing but its own handle shares them.
        drop(job);
        let nanos = started.elapsed().as_nanos() as u64;
        let _ = reply.send((shard_ix, outcome, nanos));
    }
}

/// Merges per-shard partial outputs, consuming them (their buffers go back
/// to the pool). Concat keeps the partials' shared format class (all-sparse
/// stays CSR, bitwise-identical to unsharded execution) and assembles one
/// pooled buffer; element-wise merges fold every later partial into the
/// first shard's in place (only a shared or sparse partial is copied).
fn merge_parts(plan: &MergePlan, parts: Vec<Vec<Matrix>>) -> Vec<Matrix> {
    let n_outs = parts.first().map(Vec::len).unwrap_or(0);
    // Per output, its partials in shard order.
    let mut per_out: Vec<Vec<Matrix>> = vec![Vec::new(); n_outs];
    for shard in parts {
        per_out.iter_mut().zip(shard).for_each(|(ms, m)| ms.push(m));
    }
    let merge_one = |(j, ms): (usize, Vec<Matrix>)| match plan {
        MergePlan::ConcatRows => {
            let out = Matrix::concat_rows(&ms);
            ms.into_iter().for_each(Matrix::recycle);
            out
        }
        MergePlan::Elementwise(ops) => {
            let op = ops.get(j).copied().unwrap_or(MergeOp::Add);
            let acc = ms
                .into_iter()
                .map(|m| m.try_into_dense().unwrap_or_else(|m| m.to_dense()))
                .reduce(|mut acc, d| {
                    for (a, &b) in acc.values_mut().iter_mut().zip(d.values()) {
                        *a = match op {
                            MergeOp::Add => *a + b,
                            MergeOp::Min => a.min(b),
                            MergeOp::Max => a.max(b),
                        };
                    }
                    pool::give(d.into_values());
                    acc
                });
            Matrix::dense(acc.expect("a sharded execution has at least one partial"))
        }
    };
    per_out.into_iter().enumerate().map(merge_one).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_core::spoof::{CellSpec, Program};
    use fusedml_linalg::pool::BufferPool;
    use fusedml_linalg::DenseMatrix;

    fn sum_operator() -> Arc<GeneratedOperator> {
        // sum(X): LoadMain → FullAgg(Sum).
        let prog =
            Program { instrs: vec![Instr::LoadMain { out: 0 }], n_regs: 1, vreg_lens: Vec::new() };
        Arc::new(GeneratedOperator {
            name: "TMPSUM".into(),
            source: String::new(),
            spec: FusedSpec::Cell(CellSpec {
                prog,
                result: 0,
                agg: CellAgg::FullAgg(AggOp::Sum),
                sparse_safe: true,
            }),
            plan_hash: 0,
        })
    }

    fn square_operator() -> Arc<GeneratedOperator> {
        // X^2 map-class: LoadMain, multiply by itself.
        let prog = Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                Instr::Binary { out: 1, op: fusedml_linalg::ops::BinaryOp::Mult, a: 0, b: 0 },
            ],
            n_regs: 2,
            vreg_lens: Vec::new(),
        };
        Arc::new(GeneratedOperator {
            name: "TMPSQ".into(),
            source: String::new(),
            spec: FusedSpec::Cell(CellSpec {
                prog,
                result: 1,
                agg: CellAgg::NoAgg,
                sparse_safe: true,
            }),
            plan_hash: 0,
        })
    }

    fn test_pool(k: usize) -> ShardPool {
        ShardPool::new(k, 1, BufferPool::handle(), Arc::new(KernelCaches::default()))
    }

    fn seq_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::dense(DenseMatrix::new(
            rows,
            cols,
            (0..rows * cols).map(|i| (i % 97) as f64 - 11.0).collect(),
        ))
    }

    #[test]
    fn sharded_full_agg_matches_local() {
        let op = sum_operator();
        let x = seq_matrix(1003, 8);
        let pool = test_pool(4);
        let spec = ShardSpec {
            shards: 4,
            sides: Vec::new(),
            merge: MergePlan::Elementwise(vec![MergeOp::Add]),
        };
        let (outs, stats) =
            pool.execute(&op, &spec, &x, &[], &[], 8, false).expect("sharded execute");
        let local = spoof::execute(&op.spec, Some(&x), &[], &[], 1003, 8);
        assert_eq!(stats.shards_used, 4);
        assert_eq!(outs.len(), 1);
        let (got, want) = (outs[0].as_dense().values()[0], local[0].as_dense().values()[0]);
        assert!((got - want).abs() <= 1e-11 * want.abs().max(1.0), "{got} vs {want}");
    }

    #[test]
    fn sharded_map_class_is_bitwise_equal() {
        let op = square_operator();
        let x = seq_matrix(517, 5);
        let pool = test_pool(3);
        let spec = ShardSpec { shards: 3, sides: Vec::new(), merge: MergePlan::ConcatRows };
        let (outs, stats) =
            pool.execute(&op, &spec, &x, &[], &[], 5, false).expect("sharded execute");
        let local = spoof::execute(&op.spec, Some(&x), &[], &[], 517, 5);
        assert_eq!(stats.shards_used, 3);
        assert_eq!(
            outs[0].as_dense().values(),
            local[0].as_dense().values(),
            "map-class shard merge must be bitwise identical"
        );
    }

    #[test]
    fn injected_shard_panic_fails_request_but_not_pool() {
        let op = sum_operator();
        let x = seq_matrix(64, 4);
        let pool = test_pool(2);
        let spec = ShardSpec {
            shards: 2,
            sides: Vec::new(),
            merge: MergePlan::Elementwise(vec![MergeOp::Add]),
        };
        let err = pool
            .execute(&op, &spec, &x, &[], &[], 4, true)
            .expect_err("injected panic must fail the request");
        assert_eq!(err.shard, 0);
        assert!(err.message.contains("injected shard panic"), "{}", err.message);
        // The pool survives and serves the next request cleanly.
        let (outs, _) = pool.execute(&op, &spec, &x, &[], &[], 4, false).expect("pool reusable");
        let local = spoof::execute(&op.spec, Some(&x), &[], &[], 64, 4);
        assert_eq!(outs[0].as_dense().values()[0], local[0].as_dense().values()[0]);
    }

    #[test]
    fn merge_ops_fold_correctly() {
        let a = vec![Matrix::dense(DenseMatrix::new(1, 3, vec![1.0, 5.0, -2.0]))];
        let b = vec![Matrix::dense(DenseMatrix::new(1, 3, vec![4.0, 2.0, -7.0]))];
        let parts = vec![a, b];
        let add = merge_parts(&MergePlan::Elementwise(vec![MergeOp::Add]), parts.clone());
        assert_eq!(add[0].as_dense().values(), &[5.0, 7.0, -9.0]);
        let min = merge_parts(&MergePlan::Elementwise(vec![MergeOp::Min]), parts.clone());
        assert_eq!(min[0].as_dense().values(), &[1.0, 2.0, -7.0]);
        let max = merge_parts(&MergePlan::Elementwise(vec![MergeOp::Max]), parts);
        assert_eq!(max[0].as_dense().values(), &[4.0, 5.0, -2.0]);
    }

    #[test]
    fn parse_cpulist_handles_ranges_and_singles() {
        assert_eq!(parse_cpulist("0-3,8,10-11\n"), vec![0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpulist(""), Vec::<usize>::new());
        assert_eq!(parse_cpulist("5"), vec![5]);
    }

    #[test]
    fn mean_aggregates_are_not_merged() {
        assert_eq!(merge_op_for(AggOp::Mean), None);
        assert_eq!(merge_op_for(AggOp::Sum), Some(MergeOp::Add));
        assert_eq!(merge_op_for(AggOp::SumSq), Some(MergeOp::Add));
        assert_eq!(merge_op_for(AggOp::Min), Some(MergeOp::Min));
        assert_eq!(merge_op_for(AggOp::Max), Some(MergeOp::Max));
    }
}
