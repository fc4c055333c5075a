//! The scheduled execution engine: liveness-aware, pool-backed, parallel
//! across independent operators — and out-of-core under a memory budget.
//!
//! This replaces the seed's recursive lazy materializer (which held every
//! intermediate alive for the whole DAG and recursed serially) with an
//! explicit task graph:
//!
//! * every demanded hop maps to one task — a **basic** operator, a
//!   **generated fused** operator from the fusion plan (one task per
//!   operator, covering all its roots), or a **hand-coded** pattern
//!   instance — with explicit input dependencies;
//! * value slots are **refcounted by read occurrences**: the last reader
//!   takes the value owned, the slot is freed immediately, and uniquely
//!   held dense buffers return to the engine's buffer pool (or are reused
//!   *in place* as the output of same-shape element-wise operators);
//! * a **ready set** of tasks with no unmet dependencies is drained by up
//!   to `EngineBuilder::workers` workers started through
//!   [`fusedml_linalg::par::run_bands`] (worker 0 is the calling thread, the
//!   others are scoped threads spawned per call, all sharing the engine's
//!   buffer pool), so independent DAG branches execute concurrently while
//!   each kernel keeps its internal row-band parallelism;
//! * **roots are moved** (never cloned) out of their slots at the end;
//! * resident bytes are tracked on every store/free, yielding the
//!   per-execution peak footprint surfaced through [`ExecStats`] and the
//!   per-call [`SchedSnapshot`].
//!
//! ## Slot residency and the spill tier
//!
//! Each slot is a small state machine (`Slot`): `Resident` values live in
//! memory, `Spilled` values live in the engine's
//! [`fusedml_linalg::spill::TieredStore`] as temp files, and
//! `Loading`/`Evicting` mark in-flight byte movement (file I/O never runs
//! under the scheduler lock — waiters block on the condvar). Before a task
//! dispatches, the scheduler **reserves** its output estimate plus any
//! spilled inputs against the store's budget, beside the reservations of
//! the tasks still running, evicting victims by
//! **farthest next use** (the compile-time ready-set level of the nearest
//! unfinished consumer; DAG roots nothing will read again evict first).
//! A reservation that still does not fit waits for a running task to
//! finish, so two workers never spend the same headroom; only with nothing
//! running and nothing left to evict does a task run over budget.
//! Only uniquely held values are victims — spilling a shared `Arc` (a leaf
//! binding, an input some running task gathered) would free nothing.
//!
//! A spilled input is read back by the task that gathers it, as an IO cost
//! of that task, not by a background job: the task faults it in
//! synchronously (`ensure_resident`), and a task that needs a value another
//! worker is moving waits on the condvar. Leaf bindings larger than the
//! whole budget are not charged against it at all (`Slot::Streamed`): they
//! are caller-owned `Arc` clones that kernels already walk band-by-band by
//! reference, so spilling them would double their footprint instead of
//! shrinking it.
//!
//! The task graph is **built once at compile time** ([`prepare`]) and
//! **executed many times** ([`run`]): `Engine::compile` prepares the graph
//! for a `CompiledScript`, whose `execute` only allocates the per-call
//! mutable state — which is why one compiled script can execute from many
//! threads simultaneously. Spilling changes *where* values wait, never what
//! they contain: the spill tier round-trips bit-exactly, so a run under a
//! tight budget is bitwise-identical to an unbounded one (pinned by the
//! `spill_vs_resident_property` differential test).
//!
//! The seed's sequential materializer survives as
//! `CompiledScript::execute_sequential`, the oracle the differential
//! property tests compare against (results must be *bitwise* equal).
//!
//! ## Failure semantics
//!
//! [`run`] returns `Result`: a worker panic, an exhausted spill retry, or an
//! injected fault becomes a typed [`ExecError`] instead of tearing down the
//! process. The first failure wins (`fail`): it cancels every pending task,
//! zeroes `remaining`, and wakes all condvar waiters, who observe the
//! failure and bail instead of blocking on I/O that will never complete.
//! In-flight tasks drain normally (their outputs are recycled), and after
//! the workers join, a cleanup sweep returns every surviving slot value to
//! the buffer pool, discards this run's spill tokens, and sweeps orphaned
//! temp files — so the engine is bitwise-correct for the next execution and
//! one poisoned request never kills sibling serving threads.
//!
//! Transient spill-tier failures don't surface at all when avoidable: writes
//! and reads retry with backoff ([`SPILL_RETRIES`]); exhausted *write*
//! retries degrade the run to resident-only execution; exhausted *read*
//! retries are fatal to the run (the value exists nowhere else) but still
//! typed. All fault-injection sites ([`fusedml_linalg::fault::FaultSite`])
//! draw their decisions under the scheduler lock, so a seeded `FaultPlan`
//! replays deterministically per site-visit index.

// The scheduler is the one module where a stray unwrap can strand a worker
// pool: panics here cross the containment boundary the error module
// promises. The workspace bans `unwrap`/`expect` via `clippy.toml`
// (disallowed-methods); this module opts into enforcement at deny level.
#![deny(clippy::disallowed_methods)]

use crate::error::{panic_message, ExecError};
use crate::exec::{ExecStats, SchedSnapshot};
use crate::shard::{ShardSpec, Shards};
use crate::spoof;
use fusedml_core::optimizer::FusionPlan;
use fusedml_core::util::FxHashMap;
use fusedml_core::FusionMode;
use fusedml_hop::interp::{self, Bindings};
use fusedml_hop::{HopDag, HopId, OpKind};
use fusedml_linalg::fault::{FaultPlan, FaultSite};
use fusedml_linalg::matrix::Value;
use fusedml_linalg::ops as lops;
use fusedml_linalg::spill::{SpillToken, TieredStore, MIN_SPILL_BYTES};
use fusedml_linalg::{par, pool, Matrix};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default upper bound on scheduler workers: kernels parallelize internally
/// over row bands, so inter-operator parallelism beyond a few ways
/// oversubscribes. Engines can override via `EngineBuilder::workers`.
pub const DEFAULT_MAX_WORKERS: usize = 4;

/// Retries (beyond the first attempt) for a failing spill-tier read or
/// write, with exponential backoff, before the failure is treated as
/// permanent: writes then degrade the run to resident-only, reads surface a
/// typed [`ExecError::SpillIo`].
pub const SPILL_RETRIES: usize = 3;

/// Runs a spill-tier read or write, retrying a failure up to
/// [`SPILL_RETRIES`] times; returns the last result and the retries taken.
/// Retry `n` (1-based) first sleeps 100µs, 200µs, 400µs, … — enough to ride
/// out transient contention without stalling a run that is going to fail
/// anyway.
fn retried<T>(mut io: impl FnMut() -> std::io::Result<T>) -> (std::io::Result<T>, usize) {
    let mut retries = 0;
    loop {
        match io() {
            Err(_) if retries < SPILL_RETRIES => {
                retries += 1;
                std::thread::sleep(Duration::from_micros(50u64 << retries.min(6)));
            }
            res => return (res, retries),
        }
    }
}

/// The engine-owned execution context threaded through [`run`]: statistics,
/// the two-tier store (pool + spill files), and the worker limit. Bundling
/// these keeps the `run` signature stable as the engine grows.
pub struct ExecCtx<'a> {
    pub stats: &'a ExecStats,
    pub max_workers: usize,
    pub store: &'a TieredStore,
    /// Engine-level fault-injection plan (chaos testing); `None` in
    /// production. The scheduler draws its `Alloc`/`TaskExec`/`TaskPanic`/
    /// `ShardExec` decisions here; the store draws the spill-I/O sites
    /// itself.
    pub faults: Option<&'a Arc<FaultPlan>>,
    /// The engine's shard layout; `None` runs every operator locally. Fused
    /// tasks whose graph entry carries a [`crate::shard::ShardSpec`] execute
    /// as its row bands.
    pub shards: Option<Shards>,
    /// The engine's fusion mode, which names the plan's operators in the
    /// run's record (see `SchedSnapshot::reported_for`).
    pub mode: FusionMode,
}

/// What one task executes.
#[derive(PartialEq)]
pub(crate) enum TaskKind {
    /// A single basic operator.
    Basic(HopId),
    /// A generated fused operator (index into the plan's operator list).
    Fused { op_ix: usize },
}

/// One schedulable unit.
#[derive(PartialEq)]
pub(crate) struct Task {
    pub(crate) kind: TaskKind,
    /// Input hops in gather order (for fused ops: main, sides, scalars).
    pub(crate) deps: Vec<HopId>,
    /// Tasks reading at least one of this task's outputs.
    consumers: Vec<usize>,
    /// Dependency depth (tasks at equal depth are mutually independent).
    pub(crate) level: usize,
}

/// The demand-driven task graph for one DAG under one fusion plan: the
/// immutable, shareable product of [`prepare`]. All per-execution state
/// lives in [`run`]'s local scheduler state, so one graph serves concurrent
/// executions.
pub struct TaskGraph {
    pub(crate) tasks: Vec<Task>,
    /// Demanded leaf hops, materialized inline before scheduling.
    pub(crate) leaves: Vec<HopId>,
    /// Per hop: total read occurrences across tasks, +1 for DAG roots.
    pub(crate) reads: Vec<u32>,
    /// Per task: number of distinct producer tasks that must finish first.
    pub(crate) n_producers: Vec<u32>,
    /// Widest set of same-level tasks (parallelism upper bound).
    pub(crate) max_width: usize,
    /// Per hop: the tasks reading it. Victim scoring derives a value's next
    /// use from the levels of its unfinished consumers.
    pub(crate) consumers_of: Vec<Vec<usize>>,
    /// Per task: compile-time estimate of its output bytes (from the hop
    /// size facts), used for pre-dispatch budget reservation.
    pub(crate) task_out_bytes: Vec<usize>,
    /// Per hop: statically spill-eligible — a non-leaf value at least
    /// [`MIN_SPILL_BYTES`] large by the compile-time estimate. Leaf bindings
    /// are caller-owned `Arc` clones (spilling frees nothing), and
    /// sub-threshold values churn the spill tier for no relief. The victim
    /// picker re-checks the dynamic conditions (unique ownership, actual
    /// size) at eviction time; this flag is their static precondition.
    pub(crate) spill_ok: Vec<bool>,
    /// Per task: the planner's sharding decision (`None` = run locally).
    /// Only ever `Some` for fused tasks; the verifier re-derives each spec
    /// from the operator to reject a corrupted plan.
    pub(crate) shard: Vec<Option<ShardSpec>>,
}

impl TaskGraph {
    /// Mutable refcount access for verifier mutation tests only: lets a test
    /// corrupt a compiled graph to prove the verifier rejects it.
    #[doc(hidden)]
    pub fn reads_mut(&mut self) -> &mut Vec<u32> {
        &mut self.reads
    }

    /// See [`TaskGraph::reads_mut`].
    #[doc(hidden)]
    pub fn task_out_bytes_mut(&mut self) -> &mut Vec<usize> {
        &mut self.task_out_bytes
    }

    /// See [`TaskGraph::reads_mut`].
    #[doc(hidden)]
    pub fn spill_ok_mut(&mut self) -> &mut Vec<bool> {
        &mut self.spill_ok
    }

    /// The per-task sharding decisions (`None` = local execution).
    pub fn shard_specs(&self) -> &[Option<ShardSpec>] {
        &self.shard
    }
}

/// Builds the task graph for a DAG: the compile-time half of the scheduled
/// engine. `plan` carries the generated fused operators (every mode but
/// `Base`; without one, every live hop schedules as a basic task).
/// `shard_specs` are the planner's sharding decisions, index-aligned with the
/// plan's operator list (see [`crate::shard::plan_shards`]): fused tasks pick
/// up their operator's spec, and everything runs locally without them.
pub fn prepare(
    dag: &HopDag,
    plan: Option<&FusionPlan>,
    shard_specs: Option<&[Option<ShardSpec>]>,
) -> TaskGraph {
    let plan_ops = plan.map_or(&[][..], |p| &p.operators[..]);
    let mut op_roots: FxHashMap<HopId, usize> = FxHashMap::default();
    for (i, f) in plan_ops.iter().enumerate() {
        for &r in &f.roots {
            op_roots.insert(r, i);
        }
    }
    let mut tasks: Vec<Task> = Vec::new();
    let mut leaves: Vec<HopId> = Vec::new();
    let mut reads = vec![0u32; dag.len()];
    // hop → producing task (leaves have none).
    let mut producer: Vec<Option<usize>> = vec![None; dag.len()];
    let mut demanded = vec![false; dag.len()];
    let mut fused_task: FxHashMap<usize, usize> = FxHashMap::default();
    let mut stack: Vec<HopId> = dag.roots().to_vec();
    while let Some(h) = stack.pop() {
        if demanded[h.index()] {
            continue;
        }
        demanded[h.index()] = true;
        let hop = dag.hop(h);
        if hop.kind.is_leaf() {
            leaves.push(h);
            continue;
        }
        if let Some(&op_ix) = op_roots.get(&h) {
            let f = &plan_ops[op_ix];
            if let Some(&t) = fused_task.get(&op_ix) {
                // Another root of the same operator was demanded first; the
                // existing task already covers this hop.
                producer[h.index()] = Some(t);
                continue;
            }
            let mut deps: Vec<HopId> = Vec::new();
            deps.extend(f.cplan.main.iter());
            deps.extend(f.cplan.sides.iter());
            deps.extend(f.cplan.scalars.iter());
            let t = tasks.len();
            fused_task.insert(op_ix, t);
            for &r in &f.roots {
                producer[r.index()] = Some(t);
                demanded[r.index()] = true;
            }
            demanded[h.index()] = true;
            stack.extend(deps.iter().copied());
            tasks.push(Task {
                kind: TaskKind::Fused { op_ix },
                deps,
                consumers: Vec::new(),
                level: 0,
            });
            continue;
        }
        let t = tasks.len();
        producer[h.index()] = Some(t);
        stack.extend(hop.inputs.iter().copied());
        tasks.push(Task {
            kind: TaskKind::Basic(h),
            deps: hop.inputs.clone(),
            consumers: Vec::new(),
            level: 0,
        });
    }
    // Read occurrences (+1 per DAG root so outputs survive the execution).
    for t in &tasks {
        for &d in &t.deps {
            reads[d.index()] += 1;
        }
    }
    for &r in dag.roots() {
        reads[r.index()] += 1;
    }
    // Producer→consumer edges over distinct producer tasks.
    let n = tasks.len();
    let mut n_producers = vec![0u32; n];
    let mut seen: Vec<usize> = Vec::new();
    for t in 0..n {
        seen.clear();
        for di in 0..tasks[t].deps.len() {
            let d = tasks[t].deps[di];
            if let Some(p) = producer[d.index()] {
                if !seen.contains(&p) {
                    seen.push(p);
                    n_producers[t] += 1;
                    tasks[p].consumers.push(t);
                }
            }
        }
    }
    // Levels by fixpoint: tasks were created roots-first (demand order), so a
    // producer can appear after its consumers in `tasks` and a single sweep
    // is not enough. Task counts are small; this is compile-side work.
    loop {
        let mut changed = false;
        for t in 0..n {
            let lvl = tasks[t].level + 1;
            for ci in 0..tasks[t].consumers.len() {
                let c = tasks[t].consumers[ci];
                if tasks[c].level < lvl {
                    tasks[c].level = lvl;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut width: FxHashMap<usize, usize> = FxHashMap::default();
    for t in &tasks {
        *width.entry(t.level).or_insert(0) += 1;
    }
    let max_width = width.values().copied().max().unwrap_or(0);
    // Spill-side compile facts: who reads each hop, and how large each
    // task's output is expected to be.
    let mut consumers_of: Vec<Vec<usize>> = vec![Vec::new(); dag.len()];
    for (t, task) in tasks.iter().enumerate() {
        for &d in &task.deps {
            if consumers_of[d.index()].last() != Some(&t) {
                consumers_of[d.index()].push(t);
            }
        }
    }
    let est = |h: HopId| dag.hop(h).size.bytes().max(0.0) as usize;
    let task_out_bytes = tasks
        .iter()
        .map(|t| match &t.kind {
            TaskKind::Basic(h) => est(*h),
            TaskKind::Fused { op_ix } => plan_ops[*op_ix].roots.iter().map(|&r| est(r)).sum(),
        })
        .collect();
    let spill_ok = dag
        .iter()
        .map(|h| !h.kind.is_leaf() && h.size.bytes().max(0.0) as usize >= MIN_SPILL_BYTES)
        .collect();
    let shard = tasks
        .iter()
        .map(|t| match (&t.kind, shard_specs) {
            (TaskKind::Fused { op_ix }, Some(specs)) => specs.get(*op_ix).cloned().flatten(),
            _ => None,
        })
        .collect();
    TaskGraph {
        tasks,
        leaves,
        reads,
        n_producers,
        max_width,
        consumers_of,
        task_out_bytes,
        spill_ok,
        shard,
    }
}

/// A gathered task input: the value plus whether this task took the last
/// read (and therefore owns the value and may consume or recycle it).
struct SlotIn {
    val: Value,
    owned: bool,
}

/// The residency state machine of one value slot. File I/O (`Loading`,
/// `Evicting`) always happens with the scheduler lock released; readers that
/// hit an in-flight state wait on the condvar.
enum Slot {
    Empty,
    /// In memory, charged against the resident budget.
    Resident(Value),
    /// A caller-owned leaf binding larger than the whole budget: kernels
    /// stream it band-by-band by reference, so it is neither charged nor
    /// ever picked as a spill victim (the caller's `Arc` keeps it alive
    /// regardless — spilling it would *add* a file without freeing bytes).
    Streamed(Value),
    /// On disk in the engine's spill tier.
    Spilled(SpillToken),
    /// A worker is reading it back from the spill tier.
    Loading,
    /// A worker is serializing it out to the spill tier.
    Evicting,
}

/// Shared mutable scheduler state — one instance per [`run`] call, so
/// concurrent executions of the same graph never interfere.
struct EngineState {
    slots: Vec<Slot>,
    reads_left: Vec<u32>,
    producers_left: Vec<u32>,
    /// Tasks whose producers have all finished.
    ready: Vec<usize>,
    remaining: usize,
    running: usize,
    resident_bytes: usize,
    /// Bytes the running tasks have reserved and not yet stored (output
    /// estimates, spilled inputs still to fault in): every reservation
    /// charges them beside `resident_bytes`.
    reserved_bytes: usize,
    /// The first failure of this run. Once set, `remaining` is zeroed and
    /// the ready queue cleared: workers drain in-flight tasks (discarding
    /// their outputs) and exit; condvar waiters observe it and bail.
    failure: Option<ExecError>,
    /// Per task: completed (its outputs' next-use levels are settled).
    tasks_done: Vec<bool>,
    /// Set when a spill write fails (disk full): degrade to best-effort
    /// resident execution instead of failing the run.
    spill_disabled: bool,
    /// Workers blocked on the condvar right now (see `wait` / `wake`).
    waiters: usize,
    /// This run's counters, returned on `Outputs::sched` and absorbed into
    /// the engine's [`ExecStats`] when the run ends.
    sched: SchedSnapshot,
    /// Debug-build residency event trace: every slot transition, recorded
    /// under the scheduler lock (totally ordered), replayed against the
    /// state-machine spec ([`crate::verify::check_residency_trace`]) after
    /// the run. `None` in release builds — zero cost on the hot path.
    trace: Option<Vec<crate::verify::SlotTransition>>,
}

impl EngineState {
    /// Notes slot `slot` moving from its current state to `to`. Callers
    /// invoke this immediately before mutating the slot, while they hold the
    /// scheduler lock (or before workers start), so `from` is read off the
    /// live slot and the trace stays totally ordered.
    #[inline]
    fn note(&mut self, slot: usize, to: crate::verify::SlotState) {
        if let Some(trace) = self.trace.as_mut() {
            trace.push(crate::verify::SlotTransition {
                slot,
                from: slot_state(&self.slots[slot]),
                to,
            });
        }
    }
}

/// The observable state of a slot (payloads erased) for the trace recorder.
fn slot_state(s: &Slot) -> crate::verify::SlotState {
    use crate::verify::SlotState as S;
    match s {
        Slot::Empty => S::Empty,
        Slot::Resident(_) => S::Resident,
        Slot::Streamed(_) => S::Streamed,
        Slot::Spilled(_) => S::Spilled,
        Slot::Loading => S::Loading,
        Slot::Evicting => S::Evicting,
    }
}

/// Everything a worker needs, borrowed for the scope of one [`run`] call.
struct Ctx<'a> {
    shared: &'a Mutex<EngineState>,
    cvar: &'a Condvar,
    graph: &'a TaskGraph,
    dag: &'a HopDag,
    plan: Option<&'a FusionPlan>,
    bindings: &'a Bindings,
    exec: &'a ExecCtx<'a>,
}

type Guard<'a> = MutexGuard<'a, EngineState>;

/// Executes a prepared task graph over bound inputs: the run-time half of
/// the scheduled engine. Workers draw buffers from the context's store
/// (pool + spill tier) and run the kernels the plan's operators carry. Returns
/// the root values in root order plus this call's [`SchedSnapshot`], which
/// is also absorbed into the context's stats (a failed run's too).
///
/// On failure (worker panic, exhausted spill-read retries, injected fault)
/// returns the first [`ExecError`] — after sweeping every slot back to the
/// pool and discarding this run's spill files, so the engine stays correct
/// for subsequent executions.
pub fn run(
    graph: &TaskGraph,
    dag: &HopDag,
    plan: Option<&FusionPlan>,
    bindings: &Bindings,
    cx: &ExecCtx<'_>,
) -> Result<(Vec<Value>, SchedSnapshot), ExecError> {
    // Per-call tally: pooled requests made by this call's workers (and their
    // `par` and shard band threads) are attributed here, so the returned
    // record stays exact even when other executions run concurrently on the
    // same engine pool.
    let tally = Arc::new(pool::PoolTally::default());
    let mut st = EngineState {
        slots: (0..dag.len()).map(|_| Slot::Empty).collect(),
        reads_left: graph.reads.clone(),
        producers_left: graph.n_producers.clone(),
        ready: Vec::new(),
        remaining: graph.tasks.len(),
        running: 0,
        resident_bytes: 0,
        reserved_bytes: 0,
        failure: None,
        tasks_done: vec![false; graph.tasks.len()],
        spill_disabled: false,
        waiters: 0,
        sched: SchedSnapshot::default(),
        trace: cfg!(debug_assertions).then(Vec::new),
    };
    // Materialize demanded leaves inline (cheap: Arc clones of bindings).
    // Leaves larger than the entire budget are streamed, not charged (see
    // `Slot::Streamed`); everything else is resident like any other value.
    let spill_on = cx.store.enabled();
    for &l in &graph.leaves {
        let v = interp::eval_op_inputs(dag, l, &[], bindings);
        let sz = v.size_in_bytes();
        if spill_on && sz > cx.store.threshold() {
            st.sched.streamed_leaf_bytes += sz;
            st.note(l.index(), crate::verify::SlotState::Streamed);
            st.slots[l.index()] = Slot::Streamed(v);
        } else {
            st.resident_bytes += sz;
            st.note(l.index(), crate::verify::SlotState::Resident);
            st.slots[l.index()] = Slot::Resident(v);
        }
    }
    st.sched.peak_bytes = st.resident_bytes;
    st.sched.resident_all_bytes = st.resident_bytes;
    for (t, &np) in graph.n_producers.iter().enumerate() {
        if np == 0 {
            st.ready.push(t);
        }
    }
    let workers = graph
        .max_width
        .min(par::num_threads())
        .clamp(1, cx.max_workers.max(1))
        .min(graph.tasks.len().max(1));
    let shared = Mutex::new(st);
    let cvar = Condvar::new();
    let wcx = Ctx { shared: &shared, cvar: &cvar, graph, dag, plan, bindings, exec: cx };
    // Worker 0 is the calling thread; the others are spawned for this call.
    par::run_bands(0..workers, |_| {
        let _pool = pool::enter_tallied(cx.store.pool(), &tally);
        worker_loop(&wcx);
    });
    let mut st = lock(&shared);
    debug_assert_eq!(st.waiters, 0, "a worker still waits after every worker returned");
    debug_assert_eq!(st.reserved_bytes, 0, "a finished task still holds a reservation");
    // Roots are moved out, never cloned — faulting back any that were
    // evicted (a held root's next use is "after the DAG", so under pressure
    // roots are the first victims). Root reloads retry like any other spill
    // read; exhausted retries fail the run.
    let mut roots = Vec::with_capacity(dag.roots().len());
    if st.failure.is_none() {
        for &r in dag.roots() {
            st.note(r.index(), crate::verify::SlotState::Empty);
            match std::mem::replace(&mut st.slots[r.index()], Slot::Empty) {
                Slot::Resident(v) | Slot::Streamed(v) => roots.push(v),
                Slot::Spilled(tok) => {
                    let (loaded, retries) = retried(|| cx.store.reload(&tok));
                    st.sched.spill_retries += retries;
                    match loaded {
                        Ok(m) => {
                            st.sched.spill_faults += 1;
                            st.sched.reloaded_bytes += tok.file_bytes();
                            roots.push(Value::Matrix(m));
                        }
                        Err(e) => {
                            cx.store.discard(&tok);
                            st.failure = Some(ExecError::SpillIo {
                                op: format!("root hop {}", r.index()),
                                during: "read",
                                source: e,
                            });
                            break;
                        }
                    }
                }
                _ => unreachable!("root computed"),
            }
        }
    }
    if st.failure.is_some() {
        // Failed run: leave the engine exactly as reusable as before the
        // call. Every surviving value goes back to the pool, every spill
        // token of this run is discarded, and any orphaned temp file (e.g.
        // from a worker killed mid-write) is swept.
        let _pool = pool::enter_tallied(cx.store.pool(), &tally);
        for v in roots.drain(..) {
            v.recycle();
        }
        for i in 0..st.slots.len() {
            if !matches!(st.slots[i], Slot::Empty) {
                st.note(i, crate::verify::SlotState::Empty);
            }
            match std::mem::replace(&mut st.slots[i], Slot::Empty) {
                Slot::Resident(v) | Slot::Streamed(v) => v.recycle(),
                Slot::Spilled(tok) => cx.store.discard(&tok),
                Slot::Empty | Slot::Loading | Slot::Evicting => {}
            }
        }
        cx.store.sweep_orphans();
    }
    // Replay the residency trace against the state-machine spec. The trace
    // is only recorded in debug builds, so this can never fire in release;
    // in tests a violated lifecycle invariant aborts loudly.
    if let Some(trace) = st.trace.take() {
        if let Err(e) = crate::verify::check_residency_trace(st.slots.len(), &trace) {
            panic!("residency trace violation: {e}");
        }
    }
    st.sched.pool_hits = tally.hits() as usize;
    st.sched.pool_misses = tally.misses() as usize;
    st.sched.degraded = usize::from(st.spill_disabled);
    let failure = st.failure.take();
    st.sched = st.sched.reported_for(cx.mode);
    {
        let mut totals = cx.stats.lock();
        totals.sched.absorb(&st.sched);
        totals.failed_executions += usize::from(failure.is_some());
    }
    match failure {
        Some(err) => Err(err),
        None => Ok((roots, st.sched)),
    }
}

/// Marks the run failed: records the first error, cancels every pending
/// task, and wakes all waiters so workers exit and condvar waiters bail
/// instead of blocking on movement that will never complete.
fn fail(cx: &Ctx<'_>, st: &mut Guard<'_>, err: ExecError) {
    if st.failure.is_none() {
        st.failure = Some(err);
    }
    st.remaining = 0;
    st.ready.clear();
    wake(cx, st);
}

/// Wakes every worker blocked in [`wait`], and makes no call at all when
/// none is: a notify costs a futex syscall whether or not anyone waits, and
/// a one-worker run (every small request) never has a waiter. The count is
/// read under the scheduler lock the caller holds, which is also the lock a
/// waiter holds while it counts itself in, so no wakeup is lost.
fn wake(cx: &Ctx<'_>, st: &EngineState) {
    if st.waiters > 0 {
        cx.cvar.notify_all();
    }
}

/// Blocks on the scheduler condvar until some [`wake`], counted in
/// `waiters` while it sleeps.
fn wait<'a>(cx: &Ctx<'a>, mut st: Guard<'a>) -> Guard<'a> {
    st.waiters += 1;
    let mut st = cx.cvar.wait(st).unwrap_or_else(|e| e.into_inner());
    st.waiters -= 1;
    st
}

/// Names a task's operator for error reports: enough identity to find the
/// failing op in a log without parsing panic strings.
fn task_label(cx: &Ctx<'_>, task: &Task) -> String {
    match &task.kind {
        TaskKind::Basic(h) => format!("basic {:?} (hop {})", cx.dag.hop(*h).kind, h.index()),
        TaskKind::Fused { op_ix } => format!("fused operator #{op_ix}"),
    }
}

fn lock<'a>(m: &'a Mutex<EngineState>) -> MutexGuard<'a, EngineState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(cx: &Ctx<'_>) {
    let mut st = lock(cx.shared);
    loop {
        let t = loop {
            if st.remaining == 0 || st.failure.is_some() {
                wake(cx, &st);
                return;
            }
            match st.ready.pop() {
                Some(t) => break t,
                None => st = wait(cx, st),
            }
        };
        let task = &cx.graph.tasks[t];
        // Fault site: the pre-dispatch reservation. An injected allocation
        // failure surfaces as a typed budget-exhaustion error (the real
        // reservation path degrades over budget instead of failing).
        if let Some(f) = cx.exec.faults {
            if f.should_inject(FaultSite::Alloc) {
                st.sched.injected_faults += 1;
                let err = ExecError::BudgetExhausted {
                    op: task_label(cx, task),
                    needed: cx.graph.task_out_bytes[t],
                    budget: cx.exec.store.threshold(),
                };
                fail(cx, &mut st, err);
                continue;
            }
        }
        // Reserve budget for this task's output and the spilled inputs it
        // will fault back in, evicting colder slots; if that does not fit
        // while another task runs, wait for one to finish (with none running
        // the task proceeds over budget). The reservation is held until the
        // task ends; `prepaid` moves to `resident_bytes` as the inputs load.
        let (mut held, mut prepaid) = (0, 0);
        if cx.exec.store.enabled() {
            held = cx.graph.task_out_bytes[t];
            // A spilled input faults in once however often the task reads it.
            for (i, &d) in task.deps.iter().enumerate() {
                if task.deps[..i].contains(&d) {
                    continue;
                }
                if let Slot::Spilled(tok) = &st.slots[d.index()] {
                    prepaid += tok.mem_bytes();
                }
            }
            loop {
                st = reserve(cx, st, held + prepaid, &task.deps);
                let budget = cx.exec.store.threshold();
                if st.running == 0
                    || st.spill_disabled
                    || st.failure.is_some()
                    || st.resident_bytes + st.reserved_bytes + held + prepaid <= budget
                {
                    break;
                }
                let t0 = Instant::now();
                st = wait(cx, st);
                st.sched.spill_stall_us += t0.elapsed().as_micros() as usize;
            }
            st.reserved_bytes += held + prepaid;
        }
        st.running += 1;
        if st.running > 1 {
            st.sched.parallel_ops += 1;
        }
        // Gather inputs; the last reader takes the value owned and frees the
        // slot immediately (liveness-driven early free). The *bytes* of dying
        // inputs stay counted until the task completes: during execution the
        // input and output buffers coexist, and the tracked peak must cover
        // that spike (for in-place reuse this over-counts one buffer — the
        // conservative direction for the footprint gate).
        let mut dying_bytes = 0usize;
        let mut ins: Vec<SlotIn> = Vec::with_capacity(task.deps.len());
        let mut aborted = false;
        for &d in &task.deps {
            let di = d.index();
            st = ensure_resident(cx, st, di, &mut prepaid);
            if st.failure.is_some() {
                // The run failed while this task was gathering (possibly
                // while it waited on a reload that will never finish): stop
                // gathering and hand back what it already took.
                aborted = true;
                break;
            }
            st.reads_left[di] -= 1;
            let dying = st.reads_left[di] == 0;
            let val = if dying {
                st.note(di, crate::verify::SlotState::Empty);
                match std::mem::replace(&mut st.slots[di], Slot::Empty) {
                    Slot::Resident(v) => {
                        dying_bytes += v.size_in_bytes();
                        v
                    }
                    // Caller-owned and never charged; nothing to subtract.
                    Slot::Streamed(v) => v,
                    _ => unreachable!("ensure_resident leaves the slot resident"),
                }
            } else {
                match &st.slots[di] {
                    Slot::Resident(v) | Slot::Streamed(v) => v.clone(),
                    _ => unreachable!("ensure_resident leaves the slot resident"),
                }
            };
            ins.push(SlotIn { val, owned: dying });
        }
        // The planner's sharding decision for this task (fused tasks only,
        // and only when the engine shards at all).
        let shard_ctx = match &task.kind {
            TaskKind::Fused { .. } => cx
                .exec
                .shards
                .and_then(|shards| cx.graph.shard[t].as_ref().map(|spec| (spec, shards))),
            _ => None,
        };
        // Fault sites: task execution. Decisions are drawn under the lock
        // (atomic with the per-site draw counters), the effects happen in
        // the execution below. `TaskPanic` exercises the full
        // panic-isolation path; `TaskExec` is the non-panicking variant;
        // `ShardExec` (drawn only for sharded tasks) panics shard band 0
        // mid-kernel, exercising cross-shard cancellation.
        let (inject_exec, inject_panic, inject_shard) = match cx.exec.faults {
            Some(f) if !aborted => {
                let p = f.should_inject(FaultSite::TaskPanic);
                let x = !p && f.should_inject(FaultSite::TaskExec);
                let s = shard_ctx.is_some() && !p && !x && f.should_inject(FaultSite::ShardExec);
                if p || x || s {
                    st.sched.injected_faults += 1;
                }
                (x, p, s)
            }
            _ => (false, false, false),
        };
        held += prepaid;
        if inject_exec {
            let err = ExecError::Injected { site: FaultSite::TaskExec, op: task_label(cx, task) };
            fail(cx, &mut st, err);
        }
        drop(st);
        let result = if aborted || inject_exec {
            // The run has failed already: nothing runs, the inputs go back.
            recycle_all(ins);
            Ok(Ok((Vec::new(), SchedSnapshot::default())))
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected task panic");
                }
                let shard =
                    shard_ctx.map(|(spec, shards)| ShardCtx { spec, shards, inject: inject_shard });
                run_task(task, ins, cx.dag, cx.plan, cx.bindings, shard)
            }))
        };

        st = lock(cx.shared);
        st.reserved_bytes -= held;
        st.running -= 1;
        let err = match result {
            Ok(Ok((outs, counts))) => {
                st.sched.absorb(&counts);
                if st.failure.is_some() {
                    // The run failed before or while this task ran: its
                    // outputs have no consumers anymore — recycle them.
                    st.resident_bytes = st.resident_bytes.saturating_sub(dying_bytes);
                    drop(st);
                    for (_, v) in outs {
                        v.recycle();
                    }
                    st = lock(cx.shared);
                    continue;
                }
                for (h, v) in outs {
                    if st.reads_left[h.index()] == 0 {
                        // An undemanded extra output of a multi-root fused
                        // operator: recycle it instead of keeping it resident.
                        v.recycle();
                        continue;
                    }
                    st.resident_bytes += v.size_in_bytes();
                    st.sched.resident_all_bytes += v.size_in_bytes();
                    if st.resident_bytes > st.sched.peak_bytes {
                        st.sched.peak_bytes = st.resident_bytes;
                    }
                    st.note(h.index(), crate::verify::SlotState::Resident);
                    st.slots[h.index()] = Slot::Resident(v);
                }
                // Now the dying inputs are really gone.
                st.resident_bytes -= dying_bytes;
                if st.remaining > 1 {
                    st.sched.bytes_freed_early += dying_bytes;
                }
                st.tasks_done[t] = true;
                for &c in &task.consumers {
                    st.producers_left[c] -= 1;
                    if st.producers_left[c] == 0 {
                        st.ready.push(c);
                    }
                }
                st.remaining -= 1;
                wake(cx, &st);
                continue;
            }
            // A typed task failure (a sharded operator's first-failing
            // shard): inputs were already recycled inside `run_task`,
            // siblings were cancelled, and the run fails with the typed
            // error instead of a stringly panic.
            Ok(Err(err)) => err,
            // Contain the panic on this worker: it becomes a typed task
            // failure, never crosses to sibling threads, and the run's
            // post-join sweep restores the engine.
            Err(payload) => ExecError::WorkerPanic {
                op: task_label(cx, task),
                message: panic_message(payload.as_ref()),
            },
        };
        st.resident_bytes = st.resident_bytes.saturating_sub(dying_bytes);
        fail(cx, &mut st, err);
    }
}

/// Blocks until slot `di` holds an in-memory value: faults `Spilled` slots
/// back synchronously (counted as a spill fault) and waits out in-flight
/// `Loading`/`Evicting` transitions (counted as stall time).
///
/// If the run fails while this waits, it returns with the slot untouched —
/// the caller observes `st.failure` and aborts its gather. Waiters *must
/// not* block forever on byte movement that will never complete, and must
/// not panic either: the failure is the task's result, not the waiter's.
///
/// `paid` is what the task's reservation still holds for spilled inputs.
fn ensure_resident<'a>(cx: &Ctx<'a>, mut st: Guard<'a>, di: usize, paid: &mut usize) -> Guard<'a> {
    loop {
        if st.failure.is_some() {
            return st;
        }
        match &st.slots[di] {
            Slot::Resident(_) | Slot::Streamed(_) => return st,
            Slot::Spilled(_) => st = fault_in(cx, st, di, paid),
            Slot::Loading | Slot::Evicting => {
                let t0 = Instant::now();
                st = wait(cx, st);
                st.sched.spill_stall_us += t0.elapsed().as_micros() as usize;
            }
            Slot::Empty => unreachable!("input computed before its consumer"),
        }
    }
}

/// Reads spilled slot `di` back into memory (lock released around the file
/// read). The incoming bytes come out of what the task's reservation holds
/// for its spilled inputs (`paid`); only the rest is reserved here.
/// Transient read failures retry with backoff; exhausted retries fail the
/// run with a typed error — a lost spill file is unrecoverable (the value
/// exists nowhere else), but it is a *run* failure, not a process one.
fn fault_in<'a>(cx: &Ctx<'a>, mut st: Guard<'a>, di: usize, paid: &mut usize) -> Guard<'a> {
    st.note(di, crate::verify::SlotState::Loading);
    let Slot::Spilled(tok) = std::mem::replace(&mut st.slots[di], Slot::Loading) else {
        unreachable!("fault_in reads a spilled slot")
    };
    let mem = tok.mem_bytes();
    let file = tok.file_bytes();
    let covered = mem.min(*paid);
    st = if covered < mem { reserve(cx, st, mem - covered, &[]) } else { st };
    drop(st);
    let (loaded, retries) = retried(|| cx.exec.store.reload(&tok));
    st = lock(cx.shared);
    st.sched.spill_retries += retries;
    match loaded {
        Ok(m) => {
            *paid -= covered;
            st.reserved_bytes -= covered;
            st.resident_bytes += mem;
            if st.resident_bytes > st.sched.peak_bytes {
                st.sched.peak_bytes = st.resident_bytes;
            }
            st.sched.reloaded_bytes += file;
            st.sched.spill_faults += 1;
            st.note(di, crate::verify::SlotState::Resident);
            st.slots[di] = Slot::Resident(Value::Matrix(m));
            wake(cx, &st);
            st
        }
        Err(e) => {
            cx.exec.store.discard(&tok);
            let err =
                ExecError::SpillIo { op: format!("spilled slot {di}"), during: "read", source: e };
            fail(cx, &mut st, err);
            st
        }
    }
}

/// Evicts farthest-next-use victims until `need` more bytes fit under the
/// store's budget beside the resident values and the running tasks'
/// reservations (or no victim remains — the run then proceeds over budget).
/// `keep` shields the reserving task's own inputs.
fn reserve<'a>(cx: &Ctx<'a>, mut st: Guard<'a>, need: usize, keep: &[HopId]) -> Guard<'a> {
    let store = cx.exec.store;
    if !store.enabled() {
        return st;
    }
    let budget = store.threshold();
    while !st.spill_disabled && st.resident_bytes + st.reserved_bytes + need > budget {
        let Some(h) = pick_victim(cx, &st, keep) else { break };
        st.note(h, crate::verify::SlotState::Evicting);
        let v = match std::mem::replace(&mut st.slots[h], Slot::Evicting) {
            Slot::Resident(v) => v,
            _ => unreachable!("victims are resident"),
        };
        let sz = v.size_in_bytes();
        st.resident_bytes -= sz;
        drop(st);
        let mat = match &v {
            Value::Matrix(m) => m,
            Value::Scalar(_) => unreachable!("victims are matrices"),
        };
        // Transient write failures retry with backoff; nothing is lost
        // either way (the value is still in memory), so exhausted retries
        // degrade the run to resident-only instead of failing it.
        let (res, retries) = retried(|| store.spill(mat));
        st = lock(cx.shared);
        st.sched.spill_retries += retries;
        match res {
            Ok(tok) => {
                st.sched.spilled_bytes += tok.file_bytes();
                st.note(h, crate::verify::SlotState::Spilled);
                st.slots[h] = Slot::Spilled(tok);
                // The slot held the only reference: recycling hands the
                // buffers to the pool, where the eventual reload (or the
                // next output) picks them straight back up.
                v.recycle();
            }
            Err(_) => {
                // Spill tier unavailable (disk full, dir removed): put the
                // value back and degrade to resident-only for this run.
                st.resident_bytes += sz;
                st.note(h, crate::verify::SlotState::Resident);
                st.slots[h] = Slot::Resident(v);
                st.spill_disabled = true;
            }
        }
        wake(cx, &st);
    }
    st
}

/// Picks the resident slot with the farthest next use: the minimum ready-set
/// level over unfinished consumers, `usize::MAX` for values only the root
/// collection will touch again (those evict first). Only uniquely held
/// matrix values at least [`MIN_SPILL_BYTES`] large qualify — shared
/// payloads (leaf bindings, inputs gathered by running tasks) free nothing
/// when dropped. Ties break toward the larger value.
fn pick_victim(cx: &Ctx<'_>, st: &EngineState, keep: &[HopId]) -> Option<usize> {
    let mut best: Option<(usize, usize, usize)> = None; // (next_use, bytes, slot)
    for (h, slot) in st.slots.iter().enumerate() {
        if !cx.graph.spill_ok[h] {
            continue;
        }
        let Slot::Resident(Value::Matrix(m)) = slot else { continue };
        if !m.is_uniquely_owned() {
            continue;
        }
        let bytes = m.size_in_bytes();
        if bytes < MIN_SPILL_BYTES {
            continue;
        }
        if keep.iter().any(|k| k.index() == h) {
            continue;
        }
        let next_use = cx.graph.consumers_of[h]
            .iter()
            .filter(|&&t| !st.tasks_done[t])
            .map(|&t| cx.graph.tasks[t].level)
            .min()
            .unwrap_or(usize::MAX);
        if best.is_none_or(|(bu, bb, _)| (next_use, bytes) > (bu, bb)) {
            best = Some((next_use, bytes, h));
        }
    }
    best.map(|(_, _, h)| h)
}

/// The planner's sharding decision for one fused task, paired with the
/// engine's shard layout by the worker loop.
struct ShardCtx<'a> {
    spec: &'a crate::shard::ShardSpec,
    shards: Shards,
    /// `ShardExec` fault-injection flag: panic shard band 0 mid-kernel.
    inject: bool,
}

/// Runs one task over its gathered inputs; returns `(hop, value)` stores and
/// the task's counters (the operator it ran, a sharded operator's shard
/// work), or a typed error when a band of a sharded operator fails.
fn run_task(
    task: &Task,
    ins: Vec<SlotIn>,
    dag: &HopDag,
    plan: Option<&FusionPlan>,
    bindings: &Bindings,
    shard_ctx: Option<ShardCtx<'_>>,
) -> Result<(Vec<(HopId, Value)>, SchedSnapshot), ExecError> {
    let mut counts = SchedSnapshot::default();
    match &task.kind {
        TaskKind::Basic(h) => {
            counts.basic_ops = 1;
            let v = eval_basic(dag, *h, ins, bindings);
            Ok((vec![(*h, v)], counts))
        }
        TaskKind::Fused { op_ix } => {
            // A fused task without a plan is a compile bug; the panic is
            // contained by the worker's catch_unwind and surfaces as a typed
            // WorkerPanic rather than a process abort.
            let Some(plan) = plan else { unreachable!("fused task implies a plan") };
            let f = &plan.operators[*op_ix];
            let n_main = usize::from(f.cplan.main.is_some());
            let n_sides = f.cplan.sides.len();
            let main_val = ins.first().filter(|_| n_main == 1).map(|s| s.val.as_matrix());
            let side_mats: Vec<Matrix> =
                ins[n_main..n_main + n_sides].iter().map(|s| s.val.as_matrix()).collect();
            let scalars: Vec<f64> =
                ins[n_main + n_sides..].iter().map(|s| s.val.as_scalar()).collect();
            let outs = match (shard_ctx, &main_val) {
                (Some(sc), Some(main)) => {
                    // The planner chose sharded execution: row-partition the
                    // main, ship sides per the spec's dispositions, merge
                    // per-shard partials on this (driver) thread.
                    let res = crate::shard::execute(
                        sc.shards,
                        &f.op,
                        sc.spec,
                        main,
                        &side_mats,
                        &scalars,
                        f.cplan.iter_cols,
                        sc.inject,
                    );
                    match res {
                        Ok((outs, shard_counts)) => {
                            counts = shard_counts;
                            outs
                        }
                        Err(e) => {
                            drop(side_mats);
                            drop(main_val);
                            recycle_all(ins);
                            return Err(ExecError::ShardFailure {
                                op: format!("fused operator #{op_ix}"),
                                shard: e.shard,
                                message: e.message,
                            });
                        }
                    }
                }
                _ => spoof::execute(
                    &f.op,
                    main_val.as_ref(),
                    &side_mats,
                    &scalars,
                    f.cplan.iter_rows,
                    f.cplan.iter_cols,
                ),
            };
            drop(side_mats);
            drop(main_val);
            recycle_all(ins);
            counts.count_fused(f.op.class);
            let stores = f
                .roots
                .iter()
                .enumerate()
                .map(|(slot, &r)| {
                    let m = &outs[slot];
                    let v = if dag.hop(r).is_scalar() && m.is_scalar_shaped() {
                        Value::Scalar(m.get(0, 0))
                    } else {
                        Value::Matrix(m.clone())
                    };
                    (r, v)
                })
                .collect();
            Ok((stores, counts))
        }
    }
}

/// Returns the dense buffers of owned (dying) inputs to the pool.
fn recycle_all(ins: Vec<SlotIn>) {
    for s in ins {
        if s.owned {
            s.val.recycle();
        }
    }
}

/// Evaluates a basic operator, reusing a dying dense input buffer in place
/// for the dominant same-shape element-wise operators. The in-place variants
/// are bitwise-identical to the out-of-place kernels `eval_op` dispatches to,
/// so scheduled results match the sequential oracle exactly.
fn eval_basic(dag: &HopDag, h: HopId, mut ins: Vec<SlotIn>, bindings: &Bindings) -> Value {
    let kind = &dag.hop(h).kind;
    let in_place_candidate =
        !ins.is_empty() && ins[0].owned && matches!(ins[0].val, Value::Matrix(Matrix::Dense(_)));
    if in_place_candidate {
        match kind {
            OpKind::Binary { op } => {
                let op = *op;
                let a = match std::mem::replace(&mut ins[0].val, Value::Scalar(0.0)) {
                    Value::Matrix(m) => m,
                    Value::Scalar(_) => unreachable!("checked above"),
                };
                match a.try_into_dense() {
                    Ok(ad) => {
                        let out = lops::binary_assign(ad, &ins[1].val.as_matrix(), op);
                        ins.swap_remove(0);
                        recycle_all(ins);
                        return Value::Matrix(out);
                    }
                    Err(m) => ins[0].val = Value::Matrix(m),
                }
            }
            OpKind::Unary { op } => {
                let op = *op;
                let a = match std::mem::replace(&mut ins[0].val, Value::Scalar(0.0)) {
                    Value::Matrix(m) => m,
                    Value::Scalar(_) => unreachable!("checked above"),
                };
                match a.try_into_dense() {
                    Ok(ad) => {
                        recycle_all(ins);
                        return Value::Matrix(lops::unary_assign(ad, op));
                    }
                    Err(m) => ins[0].val = Value::Matrix(m),
                }
            }
            _ => {}
        }
    }
    let vals: Vec<&Value> = ins.iter().map(|s| &s.val).collect();
    let v = interp::eval_op_inputs(dag, h, &vals, bindings);
    recycle_all(ins);
    v
}
