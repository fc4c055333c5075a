//! The engine API: **compile once, execute concurrently**.
//!
//! The paper's premise is that fusion-plan optimization is an expensive
//! compile-time investment amortized over many executions (Boehm et al.,
//! VLDB 2018; the costing companion, Boehm 2015, makes the
//! compile-once/run-many assumption explicit). This module makes that split
//! the shape of the public API:
//!
//! * an [`Engine`] (built via [`EngineBuilder`]) owns everything that used
//!   to be implicit or process-wide — the buffer pool, the plan and kernel
//!   caches, scheduler worker limits, optimizer knobs — so two engines with
//!   different configurations coexist in one process;
//! * [`Engine::compile`] runs candidate exploration, costing, code
//!   generation, and task-graph/liveness construction **exactly once**,
//!   returning a [`CompiledScript`];
//! * [`CompiledScript::execute`] is `&self`, `Send + Sync`, and allocates
//!   only per-call state — so one compiled script serves many threads
//!   simultaneously with zero re-optimization;
//! * every `execute` **revalidates** the bound input geometry against the
//!   shapes the plan was costed under, and transparently recompiles (once
//!   per new geometry) when they diverge — trusting a stale plan is the one
//!   thing the API makes impossible.
//!
//! ```
//! use fusedml_hop::interp::bind;
//! use fusedml_hop::DagBuilder;
//! use fusedml_linalg::generate;
//! use fusedml_runtime::{EngineBuilder, FusionMode};
//!
//! // sum(X ⊙ Y): one fused Cell operator under Gen.
//! let mut b = DagBuilder::new();
//! let x = b.read("X", 64, 32, 1.0);
//! let y = b.read("Y", 64, 32, 1.0);
//! let m = b.mult(x, y);
//! let s = b.sum(m);
//! let dag = b.build(vec![s]);
//!
//! let engine = EngineBuilder::new(FusionMode::Gen).workers(2).build();
//! let script = engine.compile(&dag); // exploration/costing/codegen run here, once
//! let out = script.execute(&bind(&[
//!     ("X", generate::rand_dense(64, 32, 0.0, 1.0, 1)),
//!     ("Y", generate::rand_dense(64, 32, 0.0, 1.0, 2)),
//! ]));
//! assert_eq!(out.len(), 1);
//! let _sum = out.scalar(0);
//! ```

use crate::error::{panic_message, ExecError};
use crate::exec::{self, ExecStats, SchedSnapshot};
use crate::handcoded;
use crate::schedule::{self, TaskGraph};
use crate::shard::Shards;
use crate::spoof;
use fusedml_core::optimizer::{dag_structural_hash, EnumCap, FusionPlan, Optimizer};
use fusedml_core::plancache::{KernelCaches, PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
use fusedml_core::util::LruMap;
use fusedml_core::FusionMode;
use fusedml_hop::interp::{self, Bindings};
use fusedml_hop::liveness::{self, Liveness};
use fusedml_hop::HopDag;
use fusedml_linalg::fault::FaultPlan;
use fusedml_linalg::matrix::Value;
use fusedml_linalg::pool::{self, BufferPool, PoolHandle, PoolStats};
use fusedml_linalg::spill::{SpillStats, TieredStore};
use fusedml_linalg::Matrix;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Configures and builds an [`Engine`].
///
/// Every knob that used to live in a per-call path or a process-wide static
/// is set here, once, and owned by the built engine: the fusion mode, the
/// inter-operator worker count, the memory budget, plan caching, and the
/// shard layout.
pub struct EngineBuilder {
    mode: FusionMode,
    workers: usize,
    memory_budget: usize,
    cache_plans: bool,
    spill_dir: Option<PathBuf>,
    faults: Option<Arc<FaultPlan>>,
    verify_plans: bool,
    shards: usize,
    shard_threads: usize,
    force_shard: bool,
}

impl EngineBuilder {
    /// Starts a builder for the given fusion mode with default limits
    /// (4 scheduler workers, 1 GiB pool budget, 1024-operator plan cache).
    pub fn new(mode: FusionMode) -> Self {
        EngineBuilder {
            mode,
            workers: schedule::DEFAULT_MAX_WORKERS,
            memory_budget: 1 << 30,
            cache_plans: true,
            spill_dir: None,
            faults: None,
            verify_plans: cfg!(debug_assertions),
            shards: 1,
            shard_threads: 0,
            force_shard: false,
        }
    }

    /// Number of row bands a sharded fused operator runs as (DESIGN.md
    /// substitution X11). `1` (the default) disables sharding entirely;
    /// with `>= 2` the planner chooses local vs sharded per fused operator
    /// with the estimator behind `shard::estimate_plan`, and each sharded
    /// execute runs its bands on threads spawned for that call. Small
    /// operators keep running locally regardless of this knob.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Intra-shard kernel threads (row-band parallelism *inside* each shard
    /// band). `0` (the default) auto-sizes to `available_parallelism /
    /// shards`, floored at 1, so shards split the machine instead of
    /// oversubscribing it.
    pub fn shard_threads(mut self, n: usize) -> Self {
        self.shard_threads = n;
        self
    }

    /// Shards every legally-shardable fused operator regardless of the cost
    /// model's local-vs-sharded verdict. For differential tests that must
    /// exercise the sharded data path on matrices far too small for sharding
    /// to ever win on cost; production callers should leave this off.
    pub fn force_shard(mut self, on: bool) -> Self {
        self.force_shard = on;
        self
    }

    /// Enables or disables static plan verification inside
    /// [`Engine::compile`]: every compiled artifact (hop DAG, fusion plan,
    /// register programs, task graph) is checked against the IR-invariant
    /// catalogue (DESIGN.md substitution X9) before it can execute, and a
    /// violation surfaces as a typed [`crate::verify::VerifyError`].
    ///
    /// Defaults to **on in debug builds, off in release** — verification is
    /// compile-path-only (executing a compiled script never re-verifies),
    /// but release users who want the guarantee opt in here.
    pub fn verify_plans(mut self, on: bool) -> Self {
        self.verify_plans = on;
        self
    }

    /// Caps inter-operator scheduler workers (kernels keep their internal
    /// row-band parallelism on top of this).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// The engine's memory budget in bytes: the retention cap of the buffer
    /// pool *and* the resident-bytes budget the scheduler enforces by
    /// spilling cold values to disk — a real contract, not advice.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Directory for the engine's spill files (default: the OS temp dir).
    /// A uniquely named subdirectory is created on first spill and removed,
    /// with any remaining files, when the engine drops.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Installs a deterministic fault-injection plan (chaos testing): the
    /// scheduler and spill tier consult it at every injectable site
    /// ([`fusedml_linalg::fault::FaultSite`]). Keep a clone of the `Arc` to
    /// [`FaultPlan::disarm`] it or read its injection counters. Production
    /// engines leave this unset.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables or disables fusion-plan caching (disabled = re-optimize on
    /// every call, as in the compilation-overhead experiments).
    pub fn cache_plans(mut self, on: bool) -> Self {
        self.cache_plans = on;
        self
    }

    /// Builds the engine: allocates its buffer pool, kernel caches, plan
    /// cache, optimizer, and statistics. It starts no thread: scheduler
    /// workers and shard bands are spawned per execute.
    pub fn build(self) -> Engine {
        let kernels = KernelCaches::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY);
        let plan_cache =
            Arc::new(PlanCache::with_kernels(Arc::clone(&kernels), DEFAULT_PLAN_CACHE_CAPACITY));
        let optimizer = Optimizer::with_plan_cache(self.mode, plan_cache);
        let pool: PoolHandle =
            Arc::new(BufferPool::with_limits(self.memory_budget, POOL_BUFFERS_PER_CLASS));
        let mut store = TieredStore::new(Arc::clone(&pool), self.memory_budget, self.spill_dir);
        if let Some(f) = &self.faults {
            store = store.with_faults(Arc::clone(f));
        }
        let shards = (self.shards >= 2).then(|| {
            let threads = if self.shard_threads == 0 {
                let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
                (avail / self.shards).max(1)
            } else {
                self.shard_threads
            };
            Shards { k: self.shards, threads }
        });
        Engine {
            inner: Arc::new(EngineInner {
                mode: self.mode,
                optimizer,
                kernels,
                pool,
                store,
                stats: Arc::new(ExecStats::default()),
                workers: self.workers,
                faults: self.faults,
                verify_plans: self.verify_plans,
                shards,
                force_shard: self.force_shard,
                cache_plans: self.cache_plans,
                compile_lock: Mutex::new(()),
                plans: Mutex::new(LruMap::new(DEFAULT_PLAN_CACHE_CAPACITY)),
                scripts: Mutex::new(LruMap::new(DEFAULT_PLAN_CACHE_CAPACITY)),
            }),
        }
    }
}

/// Buffers the engine's pool retains per power-of-two size class.
const POOL_BUFFERS_PER_CLASS: usize = 32;

/// Maximum geometry-revalidation variants retained per compiled script;
/// beyond this, the oldest variant is dropped (recompiled on demand if that
/// geometry ever returns). Bounds long-running servers with churning batch
/// sizes.
const MAX_GEOMETRY_VARIANTS: usize = 16;

/// Everything one engine owns. Shared behind an `Arc` by the [`Engine`]
/// handle and every [`CompiledScript`] it produces.
struct EngineInner {
    mode: FusionMode,
    optimizer: Optimizer,
    kernels: Arc<KernelCaches>,
    pool: PoolHandle,
    /// The two-tier store: the buffer pool above plus the engine-owned spill
    /// tier (budgeted temp files; the directory dies with the engine).
    store: TieredStore,
    stats: Arc<ExecStats>,
    workers: usize,
    /// Deterministic chaos harness consulted at every injectable site;
    /// `None` in production engines.
    faults: Option<Arc<FaultPlan>>,
    /// Run the static plan verifier on every cold compile (and geometry
    /// recompile). Compile-path-only cost; see `EngineBuilder::verify_plans`.
    verify_plans: bool,
    /// The shard layout (`EngineBuilder::shards >= 2`), or `None` when
    /// sharding is disabled. Per-operator local-vs-sharded choices are
    /// planned at compile time against `Shards::k`.
    shards: Option<Shards>,
    /// Shard every legally-shardable operator, skipping the cost comparison
    /// (`EngineBuilder::force_shard`; differential-test hook).
    force_shard: bool,
    /// Cache fusion plans and compiled scripts by structural DAG hash
    /// (`EngineBuilder::cache_plans`; off = re-optimize on every compile).
    cache_plans: bool,
    /// Serializes cold script compilation so N threads racing on the same
    /// uncached DAG run the optimizer once (the "exactly once" contract
    /// holds even for a cold start; cached lookups never take this lock).
    compile_lock: Mutex<()>,
    /// Fusion plans per structural DAG hash (SystemML's runtime-program
    /// cache across dynamic recompilations) — per engine, not per process,
    /// and bounded by the plan-cache capacity. Each with the optimizer's
    /// report of an enumeration that ran into its cap.
    plans: Mutex<LruMap<(Arc<FusionPlan>, Option<EnumCap>)>>,
    /// Compiled scripts per structural DAG hash (bounded likewise), so the
    /// convenience [`Engine::execute`] also amortizes task-graph
    /// construction.
    scripts: Mutex<LruMap<Arc<ScriptInner>>>,
}

/// A thread-safe, cheaply clonable handle to an execution engine.
///
/// The engine owns what was previously implicit global state: the buffer
/// pool, the plan/kernel caches, the optimizer and its statistics, and the
/// scheduler worker limit. Two engines with different configurations
/// coexist in one process without sharing anything.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// An engine with default configuration for the given mode
    /// (equivalent to `EngineBuilder::new(mode).build()`).
    pub fn new(mode: FusionMode) -> Self {
        EngineBuilder::new(mode).build()
    }

    /// Starts a configuration builder.
    pub fn builder(mode: FusionMode) -> EngineBuilder {
        EngineBuilder::new(mode)
    }

    /// The engine's fusion mode.
    pub fn mode(&self) -> FusionMode {
        self.inner.mode
    }

    /// Shared execution statistics (accumulated across all scripts and
    /// threads of this engine).
    pub fn stats(&self) -> &ExecStats {
        &self.inner.stats
    }

    /// The optimizer (cost model, enumeration config, codegen statistics).
    pub fn optimizer(&self) -> &Optimizer {
        &self.inner.optimizer
    }

    /// The engine-owned plan cache (generated operators keyed by CPlan).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.inner.optimizer.plan_cache
    }

    /// The engine-owned lowered-kernel caches.
    pub fn kernel_caches(&self) -> &Arc<KernelCaches> {
        &self.inner.kernels
    }

    /// The engine-owned buffer pool.
    pub fn pool(&self) -> &PoolHandle {
        &self.inner.pool
    }

    /// Buffer-pool counters (hits/misses/returns/drops/retained bytes).
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// The engine-owned two-tier store (buffer pool + spill tier).
    pub fn store(&self) -> &TieredStore {
        &self.inner.store
    }

    /// Spill-tier counters (values and bytes spilled/reloaded).
    pub fn spill_stats(&self) -> SpillStats {
        self.inner.store.stats()
    }

    /// The engine's spill directory, if anything has spilled yet. The
    /// directory and its files are removed when the engine drops.
    pub fn spill_dir(&self) -> Option<PathBuf> {
        self.inner.store.spill_dir()
    }

    /// The configured inter-operator worker cap.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// The number of row bands a sharded operator runs as (1 when sharding
    /// is disabled; see [`EngineBuilder::shards`]).
    pub fn shards(&self) -> usize {
        self.inner.shard_count()
    }

    /// The installed fault-injection plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.inner.faults.as_ref()
    }

    /// Whether this engine statically verifies compiled plans (see
    /// `EngineBuilder::verify_plans`).
    pub fn verify_plans(&self) -> bool {
        self.inner.verify_plans
    }

    /// Installs this engine's buffer pool and kernel caches on the current
    /// thread until the returned guard drops. Driver loops that recycle
    /// values or update buffers *between* `execute` calls (e.g. iterative
    /// algorithms retiring dead intermediates) hold a scope so those
    /// buffers land back in — and are served from — this engine's pool.
    pub fn scope(&self) -> EngineScope {
        EngineScope {
            _pool: pool::enter(&self.inner.pool),
            _kernels: spoof::enter_kernels(&self.inner.kernels),
        }
    }

    /// Returns a dying value's buffers to this engine's pool (shorthand for
    /// recycling under [`Engine::scope`]).
    pub fn recycle(&self, v: Value) {
        let _scope = pool::enter(&self.inner.pool);
        v.recycle();
    }

    /// Compiles a DAG into a [`CompiledScript`]: exploration, costing, code
    /// generation, hand-coded pattern matching, liveness analysis, and task
    /// graph construction all happen here — **exactly once**. The returned
    /// script is `Send + Sync` and executes from any number of threads.
    /// Panics if the plan verifier rejects the compiled artifact (see
    /// [`Engine::try_compile`] for the fallible form).
    pub fn compile(&self, dag: &HopDag) -> CompiledScript {
        self.try_compile(dag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Engine::compile`]: when
    /// `EngineBuilder::verify_plans` is on and the static verifier rejects
    /// the compiled artifact, the violation comes back as a typed
    /// [`ExecError::Verify`] instead of a panic. Nothing is cached on
    /// rejection — a rejected artifact can never execute.
    pub fn try_compile(&self, dag: &HopDag) -> Result<CompiledScript, ExecError> {
        let key = dag_structural_hash(dag);
        if self.inner.cache_plans {
            if let Some(s) = self.inner.scripts.lock().get(key) {
                return Ok(CompiledScript { engine: self.clone(), inner: Arc::clone(s) });
            }
        }
        // Cold compile: serialize, and re-probe the cache once the lock is
        // held — a racing thread may have just compiled this DAG.
        let _cold = self.inner.compile_lock.lock();
        if self.inner.cache_plans {
            if let Some(s) = self.inner.scripts.lock().get(key) {
                return Ok(CompiledScript { engine: self.clone(), inner: Arc::clone(s) });
            }
        }
        let inner = Arc::new(self.inner.compile_script(dag)?);
        if self.inner.cache_plans {
            self.inner.scripts.lock().insert(key, Arc::clone(&inner));
        }
        Ok(CompiledScript { engine: self.clone(), inner })
    }

    /// Convenience: compile (cached by DAG structure) and execute in one
    /// call. Repeated calls with the same DAG shape hit the script cache and
    /// perform zero re-optimization. Panics on failure; see
    /// [`Engine::try_execute`] for the fallible form.
    pub fn execute(&self, dag: &HopDag, bindings: &Bindings) -> Outputs {
        self.compile(dag).execute(bindings)
    }

    /// Fallible twin of [`Engine::execute`]: failures come back as a typed
    /// [`ExecError`] and leave the engine fully reusable (see
    /// [`CompiledScript::try_execute`]).
    pub fn try_execute(&self, dag: &HopDag, bindings: &Bindings) -> Result<Outputs, ExecError> {
        self.try_compile(dag)?.try_execute(bindings)
    }

    /// Returns the (possibly cached) fusion plan for a DAG.
    pub fn plan_for(&self, dag: &HopDag) -> Arc<FusionPlan> {
        self.inner.plan_for(dag).0
    }
}

impl EngineInner {
    /// The execution context handed to the scheduler: this engine's stats,
    /// two-tier store, kernel caches, and worker limit.
    fn exec_ctx(&self) -> schedule::ExecCtx<'_> {
        schedule::ExecCtx {
            stats: &self.stats,
            max_workers: self.workers,
            store: &self.store,
            kernels: &self.kernels,
            faults: self.faults.as_ref(),
            shards: self.shards,
        }
    }

    /// The engine's shard count (1 when sharding is disabled).
    fn shard_count(&self) -> usize {
        self.shards.map_or(1, |s| s.k)
    }

    fn plan_for(&self, dag: &HopDag) -> (Arc<FusionPlan>, Option<EnumCap>) {
        let optimize = || {
            let (plan, cap) = self.optimizer.optimize_reporting_cap(dag);
            (Arc::new(plan), cap)
        };
        if !self.cache_plans {
            return optimize();
        }
        let key = dag_structural_hash(dag);
        if let Some(p) = self.plans.lock().get(key) {
            return p.clone();
        }
        let p = optimize();
        self.plans.lock().insert(key, p.clone());
        p
    }

    /// Compiles one geometry variant: plan / patterns / task graph /
    /// liveness facts (per variant, so they always describe the geometry
    /// that actually executes). With `verify_plans` on, the compiled
    /// artifact is statically verified before it is allowed to exist —
    /// cold compiles and geometry recompiles only, never the execute path.
    fn compile_variant(&self, dag: HopDag) -> Result<ScriptVariant, crate::verify::VerifyError> {
        let (plan, enum_cap, patterns) = match self.mode {
            FusionMode::Base => (None, None, None),
            FusionMode::Fused => (None, None, Some(handcoded::match_patterns(&dag))),
            _ => {
                let (plan, cap) = self.plan_for(&dag);
                (Some(plan), cap, None)
            }
        };
        let mut graph = schedule::prepare(&dag, plan.as_deref(), patterns.as_ref());
        if let (Some(shards), Some(plan)) = (self.shards, plan.as_deref()) {
            // Per-operator local-vs-sharded choice, planned once at compile
            // time with the estimator `shard::estimate_plan` reports.
            let specs = if self.force_shard {
                crate::shard::force_shards(plan, shards.k)
            } else {
                crate::shard::plan_shards(&dag, plan, shards.k, &self.optimizer.model)
            };
            graph.set_shard_specs(&specs);
        }
        let shapes = dag.input_shapes();
        let liveness = liveness::analyze(&dag);
        if self.verify_plans {
            crate::verify::verify_compiled(&dag, plan.as_deref(), &graph, &liveness)?;
        }
        Ok(ScriptVariant { shapes, dag, plan, enum_cap, graph, liveness })
    }

    fn compile_script(&self, dag: &HopDag) -> Result<ScriptInner, crate::verify::VerifyError> {
        let base = Arc::new(self.compile_variant(dag.clone())?);
        let input_names = base.shapes.iter().map(|(n, _, _)| n.clone()).collect();
        Ok(ScriptInner {
            base,
            variants: Mutex::new(Vec::new()),
            recompiles: AtomicUsize::new(0),
            input_names,
        })
    }
}

/// One compiled geometry of a script: the DAG (sizes as costed), its fusion
/// plan or hand-coded patterns, and the prepared task graph.
struct ScriptVariant {
    /// `(name, rows, cols)` of every live input, sorted — the geometry this
    /// variant was costed under.
    shapes: Vec<(String, usize, usize)>,
    dag: HopDag,
    plan: Option<Arc<FusionPlan>>,
    /// Set when the plan's enumeration ran into its cap (best-so-far plan).
    enum_cap: Option<EnumCap>,
    graph: TaskGraph,
    /// Liveness facts for this variant's DAG, computed once at compile.
    liveness: Liveness,
}

/// The shared immutable state of a compiled script.
struct ScriptInner {
    /// The variant compiled for the DAG's declared geometry.
    base: Arc<ScriptVariant>,
    /// Geometry-revalidated recompiles (one per distinct bound geometry,
    /// FIFO-bounded at [`MAX_GEOMETRY_VARIANTS`]).
    variants: Mutex<Vec<Arc<ScriptVariant>>>,
    /// Total geometry recompiles this script performed (monotonic — unlike
    /// `variants.len()`, eviction never decrements it).
    recompiles: AtomicUsize,
    /// Live input names (sorted), for the per-execute geometry probe.
    input_names: Vec<String>,
}

/// A compiled, reusable, thread-safe execution plan for one DAG.
///
/// Produced by [`Engine::compile`]. `execute` takes `&self` and allocates
/// only per-call state, so the same script can run from many threads
/// simultaneously — all of them sharing the engine's buffer pool, kernel
/// caches, and statistics, and none of them re-running the optimizer.
///
/// Every call revalidates the bound input geometry against the shapes the
/// plan was costed under. On divergence the script transparently recompiles
/// for the new geometry (once — each distinct geometry is cached) instead of
/// trusting the stale plan.
#[derive(Clone)]
pub struct CompiledScript {
    engine: Engine,
    inner: Arc<ScriptInner>,
}

impl CompiledScript {
    /// Executes the compiled script over bound inputs, returning the root
    /// values plus this call's counters. Thread-safe: `&self`, no
    /// re-optimization. Panics on failure; see
    /// [`CompiledScript::try_execute`] for the fallible form.
    pub fn execute(&self, bindings: &Bindings) -> Outputs {
        self.try_execute(bindings).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`CompiledScript::execute`]: every failure — a
    /// missing or mis-shaped binding, a worker panic, exhausted spill-I/O
    /// retries, an injected fault — comes back as a typed [`ExecError`].
    ///
    /// Failures are *contained*: the scheduler cancels pending tasks, drains
    /// in-flight ones, returns every pooled buffer, and discards the run's
    /// spill files, so the engine (and this script) execute correctly
    /// afterwards, and concurrent executions on sibling threads are never
    /// affected.
    pub fn try_execute(&self, bindings: &Bindings) -> Result<Outputs, ExecError> {
        let e = &self.engine.inner;
        // A binding the script cannot run under never reaches the scheduler
        // (which counts its own failures), so it is counted here.
        let v =
            self.bind_variant(bindings).inspect_err(|_| e.stats.lock().failed_executions += 1)?;
        let result = schedule::run(&v.graph, &v.dag, v.plan.as_deref(), bindings, &e.exec_ctx());
        // Epoch-bound the engine pool: buffers unused for a few DAGs retire.
        e.pool.advance_epoch();
        let (values, sched) = result?;
        Ok(Outputs { values, sched })
    }

    /// Checks the bindings and resolves the variant compiled for their
    /// geometry. Geometry revalidation recompiles for reshaped inputs; a
    /// panic inside that compilation is contained here, and a verifier
    /// rejection of the recompiled variant surfaces as a typed error.
    ///
    /// Bindings of the declared geometry (every call of a serving loop) are
    /// checked once, against the base variant's shapes: those are the shapes
    /// of the same inputs `validate_bindings` would check, so the base is
    /// returned without the name pass or that second check.
    fn bind_variant(&self, bindings: &Bindings) -> Result<Arc<ScriptVariant>, ExecError> {
        let base = &self.inner.base;
        let declared = base.shapes.iter().all(|(name, rows, cols)| {
            bindings.get(name).is_some_and(|m| m.rows() == *rows && m.cols() == *cols)
        });
        if declared {
            return Ok(Arc::clone(base));
        }
        for name in &self.inner.input_names {
            if bindings.get(name).is_none() {
                return Err(ExecError::UnboundInput { name: name.clone() });
            }
        }
        let v =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.variant_for(bindings)))
                .map_err(|p| ExecError::WorkerPanic {
                    op: "geometry revalidation".to_string(),
                    message: panic_message(p.as_ref()),
                })??;
        interp::validate_bindings(&v.dag, bindings)?;
        Ok(v)
    }

    /// Executes sequentially with the retained seed-era materializer (same
    /// revalidation guard): the oracle the scheduled engine is
    /// differentially tested against, bitwise, in every fusion mode.
    pub fn execute_sequential(&self, bindings: &Bindings) -> Vec<Value> {
        let v = self.bind_variant(bindings).unwrap_or_else(|e| panic!("{e}"));
        let e = &self.engine.inner;
        let _pool = pool::enter(&e.pool);
        let _kern = spoof::enter_kernels(&e.kernels);
        let patterns = (e.mode == FusionMode::Fused).then(|| handcoded::match_patterns(&v.dag));
        exec::sequential(&v.dag, v.plan.as_deref(), patterns.as_ref(), bindings, &e.stats)
    }

    /// The engine this script was compiled by.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The DAG as compiled (sizes of the declared geometry).
    pub fn dag(&self) -> &HopDag {
        &self.inner.base.dag
    }

    /// The fusion plan of the declared geometry (`None` for `Base`/`Fused`).
    pub fn plan(&self) -> Option<&Arc<FusionPlan>> {
        self.inner.base.plan.as_ref()
    }

    /// Liveness facts of the declared geometry, computed once at compile
    /// time (consumer counts, last-use positions, ready-set levels).
    pub fn liveness(&self) -> &Liveness {
        &self.inner.base.liveness
    }

    /// The input geometry this script was costed under, sorted by name.
    pub fn input_shapes(&self) -> &[(String, usize, usize)] {
        &self.inner.base.shapes
    }

    /// Number of geometry-revalidation recompiles this script performed
    /// (monotonic; evicted variants that recompile on return count again).
    pub fn recompiled_variants(&self) -> usize {
        self.inner.recompiles.load(Ordering::Relaxed)
    }

    /// An explain-style rendering of the compiled plan; ends with a line
    /// saying so when the enumeration behind it ran into its cap.
    pub fn explain(&self) -> String {
        let base = &self.inner.base;
        let cap = base.enum_cap.map_or(String::new(), |cap| format!("{cap}\n"));
        match &base.plan {
            Some(p) => p.explain() + &cap,
            None => format!("{:?} (no generated operators)\n", self.engine.mode()),
        }
    }

    /// Resolves the variant for a bound geometry that differs from the base
    /// plan's (`bind_variant` returns the base itself): a cached recompile,
    /// or one compiled on first divergence (the shape-revalidation guard).
    /// Errs when the size propagator rejects the bound geometry (mutually
    /// inconsistent shapes) or the plan verifier rejects the freshly
    /// recompiled variant; neither caches anything.
    fn variant_for(&self, bindings: &Bindings) -> Result<Arc<ScriptVariant>, ExecError> {
        let base = &self.inner.base;
        let shapes = interp::bound_shapes(bindings, &self.inner.input_names);
        {
            let variants = self.inner.variants.lock();
            if let Some(v) = variants.iter().find(|v| v.shapes == shapes) {
                return Ok(Arc::clone(v));
            }
        }
        // Geometry diverged from the costed plan: re-propagate sizes and
        // recompile for the bound shapes. Reads whose shape changed are
        // re-probed for their *actual* bound sparsity (the structural hash
        // includes sparsity, so the plan cache keeps data profiles apart);
        // revalidation is deliberately shape-only — same-shape sparsity
        // drift keeps the costed plan. Compilation runs *outside*
        // the variants lock so concurrent executes on cached geometries are
        // never stalled behind an optimizer run; a racing thread may compile
        // the same variant, and the loser's copy is simply dropped below.
        let mut geometry: HashMap<String, (usize, usize, f64)> = HashMap::new();
        for ((name, rows, cols), (bname, brows, bcols)) in base.shapes.iter().zip(&shapes) {
            debug_assert_eq!(name, bname, "sorted shape lists align");
            if (rows, cols) != (brows, bcols) {
                let sp =
                    bindings.get(name).map(Matrix::sparsity).unwrap_or(1.0).max(f64::MIN_POSITIVE);
                geometry.insert(name.clone(), (*brows, *bcols, sp));
            }
        }
        // `with_read_geometry` panics, with the builder's message, on shapes
        // no DAG of this structure can have: that is the caller's binding
        // defect, reported as the declared-shape check reports it (the first
        // input that left its declared shape).
        let reshaped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            base.dag.with_read_geometry(&geometry)
        }))
        .map_err(|_| {
            interp::validate_bindings(&base.dag, bindings)
                .expect_err("a diverged geometry differs from the declared one")
        })?;
        let v = Arc::new(self.engine.inner.compile_variant(reshaped)?);
        let mut variants = self.inner.variants.lock();
        if let Some(existing) = variants.iter().find(|x| x.shapes == shapes) {
            return Ok(Arc::clone(existing)); // lost the race; drop our copy
        }
        self.engine.inner.stats.lock().plan_recompiles += 1;
        self.inner.recompiles.fetch_add(1, Ordering::Relaxed);
        if variants.len() >= MAX_GEOMETRY_VARIANTS {
            variants.remove(0); // FIFO: oldest geometry recompiles if it returns
        }
        variants.push(Arc::clone(&v));
        Ok(v)
    }
}

/// RAII guard installing an engine's pool and kernel caches on the current
/// thread (see [`Engine::scope`]).
pub struct EngineScope {
    _pool: pool::PoolScope,
    _kernels: spoof::KernelScope,
}

/// The result of one `execute` call: the root values (in root order) plus
/// the call's counters.
#[derive(Debug)]
pub struct Outputs {
    values: Vec<Value>,
    sched: SchedSnapshot,
}

impl Outputs {
    /// The root values in root order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consumes the outputs, moving the root values out (never cloned).
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// The `i`-th root value.
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// The `i`-th root as a scalar (panics if it is a larger matrix).
    pub fn scalar(&self, i: usize) -> f64 {
        self.values[i].as_scalar()
    }

    /// The `i`-th root as a matrix (scalars promote to 1×1).
    pub fn matrix(&self, i: usize) -> Matrix {
        self.values[i].as_matrix()
    }

    /// This call's counters: operators run, peak bytes, pool hits, parallel
    /// ops, spill and shard work.
    pub fn sched(&self) -> SchedSnapshot {
        self.sched
    }

    /// Iterates the root values in root order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values.iter()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl std::ops::Index<usize> for Outputs {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

impl IntoIterator for Outputs {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter()
    }
}

impl<'a> IntoIterator for &'a Outputs {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

// `Engine` and `CompiledScript` must stay usable across threads; this fails
// to compile if a non-Sync field ever sneaks in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<CompiledScript>();
    assert_send_sync::<Outputs>();
};
