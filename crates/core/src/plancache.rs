//! The plan cache: reuses compiled fused operators across DAGs and dynamic
//! recompilation (paper §2.1, Figure 11).
//!
//! Generated operators are keyed by the structural CPlan hash, so equivalent
//! CPlans — e.g. the same update rule recompiled every iteration — map to
//! one compiled operator. The cache also tracks hit/miss statistics, which
//! the Figure 11 and Table 3 harnesses report. A generated operator carries its lowered kernel (lowered by
//! `codegen::generate`), so this is the one cache of compiled state: the
//! key covers everything codegen and lowering read but the row count, and
//! a hit is also a kernel that is not lowered again.
//!
//! The cache is not process-wide: each `fusedml_runtime::Engine` owns one,
//! so engines with different configurations never share compiled state.

use crate::codegen::{generate, CodegenOptions, GeneratedOperator};
use crate::cplan::CPlan;
use crate::util::LruMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default bound on distinct compiled operators retained per plan cache.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1024;

/// A capacity-bounded map and the hit / miss counts of its lookups, kept
/// under one lock (LRU eviction via [`LruMap`]: hits touch entries, so hot
/// entries survive churn of cold ones).
struct Lookups {
    map: LruMap<Arc<GeneratedOperator>>,
    hits: usize,
    misses: usize,
}

impl Lookups {
    fn new(capacity: usize) -> Self {
        Lookups { map: LruMap::new(capacity), hits: 0, misses: 0 }
    }

    /// The entry under `key`, counted as a hit, or `None`, counted as a miss.
    fn get(&mut self, key: u64) -> Option<Arc<GeneratedOperator>> {
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
    state: Mutex<Lookups>,
    /// Monotonic operator name counter (TMP0, TMP1, …).
    name_counter: AtomicUsize,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// A plan cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// A plan cache retaining at most `capacity` compiled operators.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache { state: Mutex::new(Lookups::new(capacity)), name_counter: AtomicUsize::new(0) }
    }

    /// Looks up or compiles the operator for a CPlan; a miss pays code
    /// generation and lowering, which `generate` does.
    pub fn get_or_compile(&self, cplan: &CPlan) -> Arc<GeneratedOperator> {
        let key = cplan.structural_hash();
        let found = self.state.lock().get(key);
        if let Some(op) = found {
            return op;
        }
        let n = self.name_counter.fetch_add(1, Ordering::Relaxed);
        let op = Arc::new(generate(cplan, &format!("TMP{n}"), &CodegenOptions::default()));
        self.state.lock().map.insert(key, Arc::clone(&op));
        op
    }

    /// (hits, misses).
    pub fn stats(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.hits, st.misses)
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplan::{CNode, CPlan, CellAggKind, OutputSpec, RowOutKind};
    use crate::spoof::block::{Kernel, RowKernel};
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
    fn operator_names_are_unique() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile(&tiny_cplan(2.0));
        let b = cache.get_or_compile(&tiny_cplan(3.0));
        assert_ne!(a.name, b.name);
    }

    #[test]
    fn capacity_evicts_oldest_inserted() {
        let cache = PlanCache::with_capacity(2);
        let _ = cache.get_or_compile(&tiny_cplan(1.0));
        let _ = cache.get_or_compile(&tiny_cplan(2.0));
        let _ = cache.get_or_compile(&tiny_cplan(3.0)); // evicts 1.0
        assert_eq!(cache.len(), 2);
        let _ = cache.get_or_compile(&tiny_cplan(2.0)); // still cached
        assert_eq!(cache.stats().0, 1, "2.0 survives eviction");
        let _ = cache.get_or_compile(&tiny_cplan(1.0)); // recompiles
        assert_eq!(cache.stats().1, 4, "1.0 was evicted and compiles again");
    }

    /// `rowSums(X ⊙ S)` over an `n×8` main, `S` read a row at a time:
    /// one load per row of an `n×8` side, one load per band of a `1×8` one.
    fn row_cplan(n: usize, side_dims: (usize, usize)) -> CPlan {
        CPlan {
            ttype: TemplateType::Row,
            nodes: vec![
                CNode::MainRow,
                CNode::SideRow { side: 0, cl: 0, cu: 8 },
                CNode::Dot { a: 0, b: 1 },
            ],
            output: OutputSpec::Row { out: RowOutKind::RowAgg { src: 2 } },
            main: Some(fusedml_hop::HopId(0)),
            sides: vec![fusedml_hop::HopId(1)],
            side_dims: vec![side_dims],
            scalars: vec![],
            iter_rows: n,
            iter_cols: 8,
            out_rows: n,
            out_cols: 1,
            outer_uv: None,
            covered: vec![],
        }
    }

    fn row_kernel(op: &GeneratedOperator) -> &RowKernel {
        match &op.kernel {
            Kernel::Row(k) => k,
            Kernel::Block(_) => panic!("a Row operator lowers to a row kernel"),
        }
    }

    #[test]
    fn row_cache_dedups_by_program_and_side_dims() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile(&row_cplan(20, (20, 8)));
        let b = cache.get_or_compile(&row_cplan(20, (20, 8)));
        assert!(Arc::ptr_eq(&a, &b), "equivalent row operators share one operator");
        assert_eq!(cache.stats(), (1, 1));
        // Equal nodes over a broadcast side row lower separately: the load
        // moves to the invariant prologue.
        let c = cache.get_or_compile(&row_cplan(20, (1, 8)));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        let (ka, kc) = (row_kernel(&a), row_kernel(&c));
        assert_ne!(ka.invariant, kc.invariant);
        assert_ne!(ka.per_row, kc.per_row);
    }

    #[test]
    fn plan_key_covers_side_row_invariance() {
        let key = |n, dims| row_cplan(n, dims).structural_hash();
        assert_ne!(key(20, (20, 8)), key(20, (1, 8)), "row slice vs broadcast row");
        assert_eq!(key(20, (20, 8)), key(20, (20, 8)));
        // Dims that change no load's invariance share one key: the same
        // operator over varying row counts (mini-batches) is one operator.
        assert_eq!(key(20, (20, 8)), key(100_000, (100_000, 8)));
        assert_eq!(key(20, (1, 8)), key(100_000, (1, 8)));
    }

    #[test]
    fn hot_operator_survives_cache_churn() {
        // LRU (touch-on-hit): a plan that is looked up between every insert
        // must never be evicted, no matter how many cold plans churn through.
        let cache = PlanCache::with_capacity(2);
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
}
