//! The top-level fusion optimizer façade: exploration → selection → CPlan
//! construction → code generation → fusion plan (paper Figure 2).

use crate::codegen::GeneratedOperator;
use crate::cplan::{self, CPlan};
use crate::explore::explore;
use crate::handcoded;
use crate::opt::{select_plans, CostModel, EnumConfig, SelectionPolicy};
use crate::plancache::PlanCache;
use crate::stats::{CodegenStats, StatsSnapshot};
use fusedml_hop::{HopDag, HopId};
use std::sync::Arc;
use std::time::Instant;

/// The execution configurations of the paper's evaluation (§5.1):
/// `Base` (no fusion), `Fused` (hand-coded fused operators), `Gen`
/// (cost-based optimizer), and the `Gen-FA`/`Gen-FNR` heuristics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FusionMode {
    /// Basic operators only.
    Base,
    /// Hand-coded fused operators: one generated operator per instance of
    /// the fixed pattern table ([`crate::handcoded`]), fused-all.
    Fused,
    /// Cost-based optimized fusion (the paper's contribution).
    Gen,
    /// Fuse-all heuristic.
    GenFA,
    /// Fuse-no-redundancy heuristic.
    GenFNR,
}

impl FusionMode {
    /// True for the modes that run the code generator (all but `Base`).
    pub fn uses_codegen(self) -> bool {
        self != FusionMode::Base
    }
}

/// A compiled fused operator bound to DAG positions.
#[derive(Clone, Debug)]
pub struct FusedOperator {
    /// Output HOPs (one for Cell/Row/Outer; several for MAgg, in the order
    /// of the spec's aggregate results).
    pub roots: Vec<HopId>,
    /// The constructed CPlan (carries main/side/scalar bindings and the
    /// covered set).
    pub cplan: CPlan,
    /// The generated operator (register program + source).
    pub op: Arc<GeneratedOperator>,
}

/// The optimizer's output for one DAG: fused operators covering parts of the
/// DAG. Uncovered HOPs execute as basic operators.
#[derive(Clone, Debug, Default)]
pub struct FusionPlan {
    pub operators: Vec<FusedOperator>,
    /// Structural hash of the DAG this plan was optimized for (operator
    /// kinds, edges, *sizes*). Executors revalidate against the DAG they are
    /// asked to run: a mismatch means the bound geometry changed since
    /// costing and the plan must not be trusted (see
    /// [`FusionPlan::matches`]).
    pub dag_hash: u64,
}

/// Reported beside a [`FusionPlan`] when `MPSkipEnum` stopped at
/// `EnumConfig::max_eval` in at least one partition: the plan is the best
/// found so far, not the cost optimum. Displays as the closing line of
/// `CompiledScript::explain`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnumCap {
    /// The cap the enumeration ran into.
    pub max_eval: u64,
    /// Interesting points |M′| of the largest capped partition.
    pub points: usize,
    /// Number of capped partitions.
    pub partitions: usize,
}

impl std::fmt::Display for EnumCap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "enumeration capped at {} of 2^{} plans in {} partition(s): plan is best-so-far",
            self.max_eval, self.points, self.partitions
        )
    }
}

impl FusionPlan {
    /// True when this plan was optimized for exactly this DAG (same
    /// structure and sizes).
    pub fn matches(&self, dag: &HopDag) -> bool {
        self.dag_hash == dag_structural_hash(dag)
    }
}

/// A structural hash of a DAG (operator kinds, edges, sizes, *and* sparsity
/// estimates) — the key of per-engine fusion-plan caches and the token plan
/// revalidation compares. Sparsity is part of the key because costing
/// depends on it: a geometry-revalidation recompile that re-probes bound
/// sparsity must not be served a plan costed under a different data
/// profile. For identical DAG structures sparsity derives deterministically
/// from the declared reads, so including it adds no cache fragmentation.
///
/// This runs on the per-execute hot path (the engine's plan/script cache
/// probe), so it feeds a hasher directly — no string rendering.
pub fn dag_structural_hash(dag: &HopDag) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::util::FxHasher::default();
    for hop in dag.iter() {
        hash_op_kind(&hop.kind, &mut h);
        hop.inputs.hash(&mut h);
        hop.size.rows.hash(&mut h);
        hop.size.cols.hash(&mut h);
        hop.size.sparsity.to_bits().hash(&mut h);
    }
    dag.roots().hash(&mut h);
    h.finish()
}

/// Hashes an [`fusedml_hop::OpKind`] structurally (`f64` literals by bit
/// pattern — the same identity the builder's CSE uses).
fn hash_op_kind(kind: &fusedml_hop::OpKind, h: &mut impl std::hash::Hasher) {
    use fusedml_hop::OpKind;
    use std::hash::Hash;
    std::mem::discriminant(kind).hash(h);
    match kind {
        OpKind::Read { name } => name.hash(h),
        OpKind::Literal { value } => value.to_bits().hash(h),
        OpKind::Unary { op } => op.hash(h),
        OpKind::Binary { op } => op.hash(h),
        OpKind::Ternary { op } => op.hash(h),
        OpKind::Agg { op, dir } => (op, dir).hash(h),
        OpKind::CumAgg { op } => op.hash(h),
        OpKind::RightIndex { rows, cols } => (rows, cols).hash(h),
        OpKind::MatMult | OpKind::Transpose | OpKind::CBind | OpKind::RBind | OpKind::Diag => {}
    }
}

impl FusionPlan {
    /// Renders an explain-style summary.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        for f in &self.operators {
            s.push_str(&format!(
                "{} [{}] roots={:?} covered={:?} main={:?} sides={:?}\n",
                f.op.name,
                f.op.spec.template_name(),
                f.roots,
                f.cplan.covered,
                f.cplan.main,
                f.cplan.sides,
            ));
        }
        s
    }
}

/// The fusion optimizer with its plan cache and statistics.
pub struct Optimizer {
    pub mode: FusionMode,
    pub model: CostModel,
    pub enum_cfg: EnumConfig,
    pub plan_cache: Arc<PlanCache>,
    pub stats: Arc<CodegenStats>,
}

impl Optimizer {
    /// Creates an optimizer with default model and options (and its own
    /// private plan cache).
    pub fn new(mode: FusionMode) -> Self {
        Self::with_plan_cache(mode, Arc::new(PlanCache::new()))
    }

    /// Creates an optimizer over an engine-owned plan cache.
    pub fn with_plan_cache(mode: FusionMode, plan_cache: Arc<PlanCache>) -> Self {
        Optimizer {
            mode,
            model: CostModel::default(),
            enum_cfg: EnumConfig::default(),
            plan_cache,
            stats: Arc::new(CodegenStats::new()),
        }
    }

    /// Optimizes one HOP DAG into a fusion plan.
    pub fn optimize(&self, dag: &HopDag) -> FusionPlan {
        self.optimize_reporting_cap(dag).0
    }

    /// [`Optimizer::optimize`], also reporting whether the enumeration ran
    /// into its cap (`FusionPlan` itself cannot carry it: its fields are
    /// part of the surface `fusebench` builds plans through).
    pub fn optimize_reporting_cap(&self, dag: &HopDag) -> (FusionPlan, Option<EnumCap>) {
        if !self.mode.uses_codegen() {
            let plan = FusionPlan { dag_hash: dag_structural_hash(dag), ..FusionPlan::default() };
            return (plan, None);
        }
        let t0 = Instant::now();
        let mut run = StatsSnapshot { dags_optimized: 1, ..StatsSnapshot::default() };

        // Phase 1: candidate exploration (`Fused` keeps only the matched
        // pattern instances).
        let mut memo = explore(dag);
        if self.mode == FusionMode::Fused {
            memo = handcoded::restrict(dag, &memo);
        }

        // Phase 2: candidate selection.
        let policy = match self.mode {
            FusionMode::Gen => SelectionPolicy::CostBased(self.enum_cfg),
            FusionMode::GenFA | FusionMode::Fused => SelectionPolicy::FuseAll,
            FusionMode::GenFNR => SelectionPolicy::FuseNoRedundancy,
            FusionMode::Base => unreachable!(),
        };
        let mut sel = select_plans(dag, &memo, policy, &self.model);
        if self.mode == FusionMode::Fused {
            // One hand-coded operator per instance: no multi-aggregates.
            sel.magg_groups.clear();
        }
        run.plans_evaluated = sel.plans_evaluated;
        run.plans_walked = sel.plans_walked;
        run.plans_pruned_cost = sel.plans_pruned_cost;
        run.plans_pruned_structural = sel.plans_pruned_structural;
        run.partitions = sel.partitions;
        run.interesting_points = sel.interesting_points;
        run.partitions_capped = sel.partitions_capped;
        let cap = (sel.partitions_capped > 0).then_some(EnumCap {
            max_eval: self.enum_cfg.max_eval,
            points: sel.capped_points,
            partitions: sel.partitions_capped,
        });
        run.optimize_seconds = t0.elapsed().as_secs_f64();

        // Phases 3-4: CPlan construction + code generation (plan cache).
        let t1 = Instant::now();
        let mut plan = FusionPlan { dag_hash: dag_structural_hash(dag), ..FusionPlan::default() };
        let in_magg: crate::util::FxHashSet<usize> =
            sel.magg_groups.iter().flatten().copied().collect();

        for (i, op_plan) in sel.operators.iter().enumerate() {
            if in_magg.contains(&i) {
                continue;
            }
            match cplan::construct(dag, op_plan) {
                Ok(cp) => {
                    run.cplans_constructed += 1;
                    self.push_operator(&mut plan, &mut run, vec![op_plan.root], cp);
                }
                Err(_) => { /* fall back to unfused execution of this subDAG */ }
            }
        }
        for group in &sel.magg_groups {
            let mut members: Vec<CPlan> = Vec::new();
            let mut roots: Vec<HopId> = Vec::new();
            for &i in group {
                if let Ok(cp) = cplan::construct(dag, &sel.operators[i]) {
                    run.cplans_constructed += 1;
                    members.push(cp);
                    roots.push(sel.operators[i].root);
                }
            }
            match cplan::construct_multi_agg(&members) {
                Ok(magg) => {
                    run.cplans_constructed += 1;
                    self.push_operator(&mut plan, &mut run, roots, magg);
                }
                Err(_) => {
                    // Fall back to individual Cell operators.
                    for (cp, root) in members.into_iter().zip(roots) {
                        self.push_operator(&mut plan, &mut run, vec![root], cp);
                    }
                }
            }
        }
        run.codegen_seconds = t1.elapsed().as_secs_f64();
        self.stats.absorb(&run);
        (plan, cap)
    }

    fn push_operator(
        &self,
        plan: &mut FusionPlan,
        run: &mut StatsSnapshot,
        roots: Vec<HopId>,
        cp: CPlan,
    ) {
        let (h0, m0) = self.plan_cache.stats();
        let op = self.plan_cache.get_or_compile(&cp);
        let (h1, m1) = self.plan_cache.stats();
        run.cache_hits += h1 - h0;
        run.operators_compiled += m1 - m0;
        plan.operators.push(FusedOperator { roots, cplan: cp, op });
    }
}

/// One-shot convenience: optimize a DAG under a mode with defaults.
pub fn optimize(dag: &HopDag, mode: FusionMode) -> FusionPlan {
    Optimizer::new(mode).optimize(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spoof::FusedSpec;
    use fusedml_hop::DagBuilder;

    fn cell_chain_dag() -> HopDag {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let z = b.read("Z", 1000, 1000, 1.0);
        let m1 = b.mult(x, y);
        let m2 = b.mult(m1, z);
        let s = b.sum(m2);
        b.build(vec![s])
    }

    #[test]
    fn base_mode_generates_nothing() {
        let plan = optimize(&cell_chain_dag(), FusionMode::Base);
        assert!(plan.operators.is_empty());
    }

    #[test]
    fn gen_compiles_cell_chain_to_one_operator() {
        let plan = optimize(&cell_chain_dag(), FusionMode::Gen);
        assert_eq!(plan.operators.len(), 1);
        let f = &plan.operators[0];
        assert!(matches!(f.op.spec, FusedSpec::Cell(_)));
        assert!(f.op.source.contains("SpoofCellwise"));
        assert_eq!(f.cplan.sides.len() + usize::from(f.cplan.main.is_some()), 3);
    }

    #[test]
    fn plan_cache_reused_across_dags() {
        let opt = Optimizer::new(FusionMode::Gen);
        let _ = opt.optimize(&cell_chain_dag());
        let _ = opt.optimize(&cell_chain_dag());
        let (hits, misses) = opt.plan_cache.stats();
        assert_eq!(misses, 1, "structural hash matches across DAGs");
        assert_eq!(hits, 1);
    }

    #[test]
    fn magg_compiled_for_shared_input_aggregates() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let z = b.read("Z", 1000, 1000, 1.0);
        let a = b.mult(x, y);
        let c = b.mult(x, z);
        let s1 = b.sum(a);
        let s2 = b.sum(c);
        let dag = b.build(vec![s1, s2]);
        let plan = optimize(&dag, FusionMode::Gen);
        assert_eq!(plan.operators.len(), 1, "one MAgg operator: {}", plan.explain());
        let f = &plan.operators[0];
        assert!(matches!(f.op.spec, FusedSpec::MAgg(_)));
        assert_eq!(f.roots.len(), 2);
    }

    #[test]
    fn outer_compiled_for_als_loss() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2000, 2000, 0.01);
        let u = b.read("U", 2000, 20, 1.0);
        let v = b.read("V", 2000, 20, 1.0);
        let vt = b.t(v);
        let uvt = b.mm(u, vt);
        let eps = b.lit(1e-15);
        let plus = b.add(uvt, eps);
        let lg = b.log(plus);
        let prod = b.mult(x, lg);
        let s = b.sum(prod);
        let dag = b.build(vec![s]);
        let plan = optimize(&dag, FusionMode::Gen);
        assert!(
            plan.operators.iter().any(|f| matches!(f.op.spec, FusedSpec::Outer(_))),
            "Outer operator expected: {}",
            plan.explain()
        );
    }

    #[test]
    fn row_compiled_for_mv_chain() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 10_000, 100, 1.0);
        let v = b.read("v", 100, 1, 1.0);
        let xv = b.mm(x, v);
        let xt = b.t(x);
        let out = b.mm(xt, xv);
        let dag = b.build(vec![out]);
        let plan = optimize(&dag, FusionMode::Gen);
        assert_eq!(plan.operators.len(), 1, "{}", plan.explain());
        assert!(matches!(plan.operators[0].op.spec, FusedSpec::Row(_)));
    }

    #[test]
    fn heuristic_modes_produce_plans() {
        for mode in [FusionMode::GenFA, FusionMode::GenFNR] {
            let plan = optimize(&cell_chain_dag(), mode);
            assert!(!plan.operators.is_empty(), "{mode:?}");
        }
    }
}
