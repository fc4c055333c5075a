//! The plan cache: reuses compiled fused operators across DAGs and dynamic
//! recompilation (paper §2.1, Figure 11).
//!
//! Generated operators are keyed by the structural CPlan hash, so equivalent
//! CPlans — e.g. the same update rule recompiled every iteration — map to
//! one compiled operator. The cache also tracks hit/miss statistics and the
//! cumulative compilation time, which the Figure 11 and Table 3 harnesses
//! report.
//!
//! None of the caches here are process-wide: each `fusedml_runtime::Engine`
//! owns one [`KernelCaches`] (the lowered block/row kernels the skeletons
//! execute) and one [`PlanCache`] over it, so engines with different
//! configurations never share compiled state.

use crate::codegen::{generate, CodegenOptions, GeneratedOperator};
use crate::cplan::CPlan;
use crate::spoof::block::{
    compile_kernel, compile_row_kernel, program_hash, row_kernel_hash, BlockKernel, RowKernel,
};
use crate::spoof::{FusedSpec, Program, RowSpec};
use crate::util::LruMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default bound on distinct compiled operators retained per plan cache.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1024;

/// A capacity-bounded map and the hit / miss counts of its lookups, kept
/// under one lock (LRU eviction via [`LruMap`]: hits touch entries, so hot
/// entries survive churn of cold ones).
struct Lookups<V> {
    map: LruMap<Arc<V>>,
    hits: usize,
    misses: usize,
}

impl<V> Lookups<V> {
    fn new(capacity: usize) -> Self {
        Lookups { map: LruMap::new(capacity), hits: 0, misses: 0 }
    }

    /// The entry under `key`, counted as a hit, or `None`, counted as a miss.
    fn get(&mut self, key: u64) -> Option<Arc<V>> {
        let found = self.map.get(key).cloned();
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    fn clear(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

/// A concurrent, capacity-bounded plan cache for generated operators.
pub struct PlanCache {
    state: Mutex<Lookups<GeneratedOperator>>,
    /// The kernel caches warmed on compilation (shared with the runtime
    /// skeletons of the owning engine).
    kernels: Arc<KernelCaches>,
    /// Cumulative compile time (nanoseconds) spent on cache misses.
    compile_nanos: AtomicU64,
    /// Monotonic operator name counter (TMP0, TMP1, …).
    name_counter: AtomicUsize,
    /// Whether lookups are enabled (disabled = always compile; used by the
    /// Figure 11 "without plan cache" configuration).
    enabled: std::sync::atomic::AtomicBool,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// A plan cache with its own kernel caches and the default capacity.
    pub fn new() -> Self {
        Self::with_kernels(Arc::new(KernelCaches::default()), DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// A plan cache warming the given (engine-owned) kernel caches, retaining
    /// at most `capacity` compiled operators.
    pub fn with_kernels(kernels: Arc<KernelCaches>, capacity: usize) -> Self {
        PlanCache {
            state: Mutex::new(Lookups::new(capacity)),
            kernels,
            compile_nanos: AtomicU64::new(0),
            name_counter: AtomicUsize::new(0),
            enabled: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// The kernel caches this plan cache warms.
    pub fn kernels(&self) -> &Arc<KernelCaches> {
        &self.kernels
    }

    /// Enables or disables cache lookups (compilation still records stats).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Looks up or compiles the operator for a CPlan.
    pub fn get_or_compile(&self, cplan: &CPlan) -> Arc<GeneratedOperator> {
        let key = cplan.structural_hash();
        let found = {
            let mut st = self.state.lock();
            if self.enabled.load(Ordering::Relaxed) {
                st.get(key)
            } else {
                st.misses += 1;
                None
            }
        };
        if let Some(op) = found {
            return op;
        }
        let n = self.name_counter.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let op = Arc::new(generate(cplan, &format!("TMP{n}"), &CodegenOptions::default()));
        // Lower the tile-vectorized block kernel (Cell/MAgg/Outer) or the
        // band-lowered row kernel (Row) eagerly so its cost is part of the
        // measured compile time (Figure 11) and the first execution hits the
        // warm kernel cache. With lookups disabled (the "no plan cache"
        // configuration) the shared kernel caches must not hide the lowering
        // cost either: pay it on every compile, like a cold JIT.
        match &op.spec {
            FusedSpec::Row(r) => {
                if self.enabled.load(Ordering::Relaxed) {
                    let _ = self.kernels.row.get_or_lower(r, &cplan.side_dims);
                } else {
                    std::hint::black_box(compile_row_kernel(r, &cplan.side_dims));
                }
            }
            _ => {
                if self.enabled.load(Ordering::Relaxed) {
                    let _ = self.kernels.block.get_or_lower(op.spec.program());
                } else {
                    std::hint::black_box(compile_kernel(op.spec.program()));
                }
            }
        }
        self.compile_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.state.lock().map.insert(key, Arc::clone(&op));
        op
    }

    /// (hits, misses).
    pub fn stats(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.hits, st.misses)
    }

    /// Cumulative compile time in seconds.
    pub fn compile_seconds(&self) -> f64 {
        self.compile_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Number of distinct compiled operators.
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears contents and statistics.
    pub fn clear(&self) {
        self.state.lock().clear();
        self.compile_nanos.store(0, Ordering::Relaxed);
    }
}

/// Default bound on distinct lowered kernels retained per kernel cache —
/// kernels are keyed by structural program hash, so this comfortably covers
/// every workload in the evaluation while keeping long-running engines with
/// churning programs bounded (matching the plan cache's capacity policy).
pub const DEFAULT_KERNEL_CACHE_CAPACITY: usize = 1024;

/// Shared machinery of the kernel caches: a concurrent, capacity-bounded
/// map keyed by a caller-computed structural hash, with hit/miss
/// statistics. The concrete caches ([`BlockProgramCache`],
/// [`RowKernelCache`]) wrap this with their key derivation and lowering
/// function, and expose the statistics API through `Deref`. Eviction is
/// LRU, like [`PlanCache`]; in-flight `Arc`s keep evicted kernels alive
/// until their executions finish.
pub struct KernelCache<V> {
    state: Mutex<Lookups<V>>,
}

impl<V> Default for KernelCache<V> {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_KERNEL_CACHE_CAPACITY)
    }
}

impl<V> KernelCache<V> {
    /// A cache retaining at most `capacity` lowered kernels.
    pub fn with_capacity(capacity: usize) -> Self {
        KernelCache { state: Mutex::new(Lookups::new(capacity)) }
    }

    fn get_or_insert_with(&self, key: u64, lower: impl FnOnce() -> V) -> Arc<V> {
        if let Some(k) = self.state.lock().get(key) {
            return k;
        }
        let k = Arc::new(lower());
        self.state.lock().map.insert(key, Arc::clone(&k));
        k
    }

    /// (hits, misses).
    pub fn stats(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.hits, st.misses)
    }

    /// Number of distinct lowered kernels.
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears contents and statistics.
    pub fn clear(&self) {
        self.state.lock().clear();
    }
}

/// A concurrent cache of tile-vectorized block kernels keyed by the
/// *structural program hash*, so equivalent register programs — whether they
/// came through the operator plan cache or were constructed directly —
/// lower and classify exactly once (the block-backend analogue of the
/// operator plan cache above).
#[derive(Default)]
pub struct BlockProgramCache {
    cache: KernelCache<BlockKernel>,
}

impl BlockProgramCache {
    /// Looks up or lowers the block kernel for a scalar program. Panics on
    /// programs with vector instructions (the Row template lowers through
    /// [`RowKernelCache`] instead).
    pub fn get_or_lower(&self, prog: &Program) -> Arc<BlockKernel> {
        self.cache.get_or_insert_with(program_hash(prog), || compile_kernel(prog))
    }
}

impl std::ops::Deref for BlockProgramCache {
    type Target = KernelCache<BlockKernel>;
    fn deref(&self) -> &Self::Target {
        &self.cache
    }
}

/// A concurrent cache of band-lowered Row kernels keyed by
/// [`row_kernel_hash`] (program + output + the side-geometry invariance
/// bits) — the Row-template analogue of [`BlockProgramCache`], so a row
/// operator recompiled every iteration, or re-bound over varying data
/// shapes, lowers and specializes exactly once.
#[derive(Default)]
pub struct RowKernelCache {
    cache: KernelCache<RowKernel>,
}

impl RowKernelCache {
    /// Looks up or lowers the row kernel for a Row spec under the given side
    /// dimensions.
    pub fn get_or_lower(&self, spec: &RowSpec, side_dims: &[(usize, usize)]) -> Arc<RowKernel> {
        self.cache.get_or_insert_with(row_kernel_hash(spec, side_dims), || {
            compile_row_kernel(spec, side_dims)
        })
    }
}

impl std::ops::Deref for RowKernelCache {
    type Target = KernelCache<RowKernel>;
    fn deref(&self) -> &Self::Target {
        &self.cache
    }
}

/// The lowered-kernel caches of one engine: the block kernels the
/// Cell/MAgg/Outer skeletons dispatch and the band-lowered Row kernels,
/// plus the tile width the skeletons evaluate them with.
/// Shared (via `Arc`) between the engine's [`PlanCache`] — which warms them
/// at compile time — and its runtime skeletons, which look kernels up at
/// execution time. There is deliberately no process-wide instance.
pub struct KernelCaches {
    pub block: BlockProgramCache,
    pub row: RowKernelCache,
    /// Tile width (elements per tile register) the skeletons evaluate with.
    pub tile_width: usize,
}

impl Default for KernelCaches {
    fn default() -> Self {
        KernelCaches {
            block: BlockProgramCache::default(),
            row: RowKernelCache::default(),
            tile_width: crate::spoof::block::DEFAULT_TILE_WIDTH,
        }
    }
}

impl KernelCaches {
    /// A fresh, empty set of kernel caches behind a shareable handle.
    pub fn shared() -> Arc<KernelCaches> {
        Arc::new(KernelCaches::default())
    }

    /// Kernel caches bounded at `capacity` lowered kernels each (the engine
    /// passes its plan-cache capacity, so the compiled-state bound covers
    /// operators *and* their kernels), default tile width.
    pub fn with_capacity(capacity: usize) -> Arc<KernelCaches> {
        Self::with_config(capacity, crate::spoof::block::DEFAULT_TILE_WIDTH)
    }

    /// Kernel caches with an explicit tile width, for the differential
    /// suites: `capacity` bounds each cache, `tile_width` is clamped to the
    /// supported range.
    pub fn with_config(capacity: usize, tile_width: usize) -> Arc<KernelCaches> {
        Arc::new(KernelCaches {
            block: BlockProgramCache { cache: KernelCache::with_capacity(capacity) },
            row: RowKernelCache { cache: KernelCache::with_capacity(capacity) },
            tile_width: crate::spoof::block::clamp_tile_width(tile_width),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplan::{CNode, CPlan, CellAggKind, OutputSpec};
    use crate::templates::TemplateType;
    use fusedml_linalg::ops::{AggOp, BinaryOp};

    /// A tiny Cell CPlan `sum(X * c)` parameterized by the constant.
    fn tiny_cplan(c: f64) -> CPlan {
        CPlan {
            ttype: TemplateType::Cell,
            nodes: vec![
                CNode::Main,
                CNode::Const { value: c },
                CNode::Binary { op: BinaryOp::Mult, a: 0, b: 1 },
            ],
            output: OutputSpec::Cell { result: 2, agg: CellAggKind::FullAgg(AggOp::Sum) },
            main: Some(fusedml_hop::HopId(0)),
            sides: vec![],
            side_dims: vec![],
            scalars: vec![],
            iter_rows: 10,
            iter_cols: 10,
            out_rows: 1,
            out_cols: 1,
            outer_uv: None,
            covered: vec![],
        }
    }

    #[test]
    fn cache_hits_on_equivalent_plans() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile(&tiny_cplan(2.0));
        let b = cache.get_or_compile(&tiny_cplan(2.0));
        assert!(Arc::ptr_eq(&a, &b), "equivalent CPlans share one operator");
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn cache_misses_on_different_plans() {
        let cache = PlanCache::new();
        let _ = cache.get_or_compile(&tiny_cplan(2.0));
        let _ = cache.get_or_compile(&tiny_cplan(3.0));
        assert_eq!(cache.stats(), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn disabled_cache_always_compiles() {
        let cache = PlanCache::new();
        cache.set_enabled(false);
        let _ = cache.get_or_compile(&tiny_cplan(2.0));
        let _ = cache.get_or_compile(&tiny_cplan(2.0));
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn operator_names_are_unique() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile(&tiny_cplan(2.0));
        let b = cache.get_or_compile(&tiny_cplan(3.0));
        assert_ne!(a.name, b.name);
    }

    #[test]
    fn block_cache_dedups_by_program_structure() {
        use crate::spoof::Instr;
        let cache = BlockProgramCache::default();
        let prog = || crate::spoof::Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                Instr::LoadConst { out: 1, value: 2.0 },
                Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
            ],
            n_regs: 3,
            vreg_lens: vec![],
        };
        let a = cache.get_or_lower(&prog());
        let b = cache.get_or_lower(&prog());
        assert!(Arc::ptr_eq(&a, &b), "equivalent programs share one kernel");
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_or_compile_warms_kernel_caches() {
        let cache = PlanCache::new();
        let op = cache.get_or_compile(&tiny_cplan(41.5));
        // The engine-owned kernel cache must now resolve the same program
        // without lowering again (a hit on the first lookup after warming).
        let k1 = cache.kernels().block.get_or_lower(op.spec.program());
        let k2 = cache.kernels().block.get_or_lower(op.spec.program());
        assert!(Arc::ptr_eq(&k1, &k2));
        assert_eq!(cache.kernels().block.stats().0, 2, "both lookups hit the warmed cache");
    }

    #[test]
    fn capacity_evicts_oldest_inserted() {
        let cache = PlanCache::with_kernels(KernelCaches::shared(), 2);
        let _ = cache.get_or_compile(&tiny_cplan(1.0));
        let _ = cache.get_or_compile(&tiny_cplan(2.0));
        let _ = cache.get_or_compile(&tiny_cplan(3.0)); // evicts 1.0
        assert_eq!(cache.len(), 2);
        let _ = cache.get_or_compile(&tiny_cplan(2.0)); // still cached
        assert_eq!(cache.stats().0, 1, "2.0 survives eviction");
        let _ = cache.get_or_compile(&tiny_cplan(1.0)); // recompiles
        assert_eq!(cache.stats().1, 4, "1.0 was evicted and compiles again");
    }

    #[test]
    fn row_cache_dedups_by_program_and_side_dims() {
        use crate::spoof::{Instr, RowOut, RowSpec};
        let cache = RowKernelCache::default();
        let spec = || RowSpec {
            prog: crate::spoof::Program {
                instrs: vec![
                    Instr::LoadMainRow { out: 0 },
                    Instr::LoadSideRow { out: 1, side: 0, cl: 0, cu: 8 },
                    Instr::Dot { out: 0, a: 0, b: 1 },
                ],
                n_regs: 1,
                vreg_lens: vec![8, 8],
            },
            out: RowOut::ColAggMultAdd { vec: 0, scalar: 0 },
            out_rows: 8,
            out_cols: 1,
        };
        let a = cache.get_or_lower(&spec(), &[(8, 1)]);
        let b = cache.get_or_lower(&spec(), &[(8, 1)]);
        assert!(Arc::ptr_eq(&a, &b), "equivalent row operators share one kernel");
        assert_eq!(cache.stats(), (1, 1));
        // Different side geometry lowers separately (whole-vector vs slice).
        let c = cache.get_or_lower(&spec(), &[(20, 8)]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn kernel_cache_capacity_evicts_lru() {
        let c: KernelCache<u32> = KernelCache::with_capacity(2);
        let _ = c.get_or_insert_with(1, || 1);
        let _ = c.get_or_insert_with(2, || 2);
        let _ = c.get_or_insert_with(3, || 3); // evicts key 1 (least recent)
        assert_eq!(c.len(), 2);
        let _ = c.get_or_insert_with(2, || 22); // still cached
        assert_eq!(c.stats().0, 1);
        let _ = c.get_or_insert_with(1, || 11); // evicted: lowers again
        assert_eq!(c.stats().1, 4);
    }

    #[test]
    fn hot_operator_survives_cache_churn() {
        // LRU (touch-on-hit): a plan that is looked up between every insert
        // must never be evicted, no matter how many cold plans churn through.
        let cache = PlanCache::with_kernels(KernelCaches::shared(), 2);
        let hot = cache.get_or_compile(&tiny_cplan(0.5));
        for i in 1..16 {
            let again = cache.get_or_compile(&tiny_cplan(0.5));
            assert!(Arc::ptr_eq(&hot, &again), "hot plan cached at round {i}");
            let _ = cache.get_or_compile(&tiny_cplan(i as f64)); // cold churn
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 15, "every hot lookup hits");
        assert_eq!(misses, 16, "only the cold plans (and the first hot) compile");
    }

    #[test]
    fn compile_time_recorded() {
        let cache = PlanCache::new();
        let _ = cache.get_or_compile(&tiny_cplan(2.0));
        assert!(cache.compile_seconds() >= 0.0);
    }
}
