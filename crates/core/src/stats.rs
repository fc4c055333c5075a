//! Optimizer and codegen statistics (paper Table 3, Figures 11–12).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counters collected across optimizer invocations. All counters are atomic
/// so the executor's dynamic recompilation can update them concurrently.
#[derive(Default, Debug)]
pub struct CodegenStats {
    /// Number of HOP DAGs passed through the optimizer.
    pub dags_optimized: AtomicUsize,
    /// Number of CPlans constructed.
    pub cplans_constructed: AtomicUsize,
    /// Number of operators compiled (plan-cache misses).
    pub operators_compiled: AtomicUsize,
    /// Number of plan-cache hits.
    pub cache_hits: AtomicUsize,
    /// Plans costed by the enumeration algorithm (Figure 12's y-axis).
    pub plans_evaluated: AtomicU64,
    /// Of those, the plans a costing table walked; the others were answered
    /// from a walk of the same referenced points (`CostTable::partition_cost`).
    pub plans_walked: AtomicU64,
    /// Scan positions cost-based skip-ahead jumped over, never costed.
    pub plans_pruned_cost: AtomicU64,
    /// Scan positions cut-set jumps passed over (structural pruning), less
    /// the combined plan each jump costs.
    pub plans_pruned_structural: AtomicU64,
    /// Total optimizer time (exploration + selection), nanoseconds.
    pub optimize_nanos: AtomicU64,
    /// Total code generation time (CPlan construction + compile), nanoseconds.
    pub codegen_nanos: AtomicU64,
    /// Number of independent plan partitions optimized.
    pub partitions: AtomicUsize,
    /// Total number of interesting points across partitions.
    pub interesting_points: AtomicUsize,
    /// Partitions whose enumeration stopped at `EnumConfig::max_eval` (their
    /// plan is the best found so far, not the optimum).
    pub partitions_capped: AtomicUsize,
}

impl CodegenStats {
    pub fn new() -> Self {
        CodegenStats::default()
    }

    pub fn add_plans_evaluated(&self, n: u64) {
        self.plans_evaluated.fetch_add(n, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            dags_optimized: self.dags_optimized.load(Ordering::Relaxed),
            cplans_constructed: self.cplans_constructed.load(Ordering::Relaxed),
            operators_compiled: self.operators_compiled.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            plans_evaluated: self.plans_evaluated.load(Ordering::Relaxed),
            plans_walked: self.plans_walked.load(Ordering::Relaxed),
            plans_pruned_cost: self.plans_pruned_cost.load(Ordering::Relaxed),
            plans_pruned_structural: self.plans_pruned_structural.load(Ordering::Relaxed),
            optimize_seconds: self.optimize_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            codegen_seconds: self.codegen_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            partitions: self.partitions.load(Ordering::Relaxed),
            interesting_points: self.interesting_points.load(Ordering::Relaxed),
            partitions_capped: self.partitions_capped.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        self.dags_optimized.store(0, Ordering::Relaxed);
        self.cplans_constructed.store(0, Ordering::Relaxed);
        self.operators_compiled.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.plans_evaluated.store(0, Ordering::Relaxed);
        self.plans_walked.store(0, Ordering::Relaxed);
        self.plans_pruned_cost.store(0, Ordering::Relaxed);
        self.plans_pruned_structural.store(0, Ordering::Relaxed);
        self.optimize_nanos.store(0, Ordering::Relaxed);
        self.codegen_nanos.store(0, Ordering::Relaxed);
        self.partitions.store(0, Ordering::Relaxed);
        self.interesting_points.store(0, Ordering::Relaxed);
        self.partitions_capped.store(0, Ordering::Relaxed);
    }
}

/// A plain-data snapshot of [`CodegenStats`] for reporting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    pub dags_optimized: usize,
    pub cplans_constructed: usize,
    pub operators_compiled: usize,
    pub cache_hits: usize,
    pub plans_evaluated: u64,
    pub plans_walked: u64,
    pub plans_pruned_cost: u64,
    pub plans_pruned_structural: u64,
    pub optimize_seconds: f64,
    pub codegen_seconds: f64,
    pub partitions: usize,
    pub interesting_points: usize,
    pub partitions_capped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip() {
        let s = CodegenStats::new();
        s.dags_optimized.fetch_add(3, Ordering::Relaxed);
        s.add_plans_evaluated(100);
        let snap = s.snapshot();
        assert_eq!(snap.dags_optimized, 3);
        assert_eq!(snap.plans_evaluated, 100);
        s.reset();
        assert_eq!(s.snapshot().plans_evaluated, 0);
    }
}
