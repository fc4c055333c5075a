//! Optimizer and codegen statistics (paper Table 3, Figures 11–12).

use parking_lot::Mutex;

/// Counters collected across optimizer invocations: one [`StatsSnapshot`]
/// under a lock. Each optimization fills a record of its own and absorbs it
/// once, so concurrent recompilations never interleave their counts.
#[derive(Default, Debug)]
pub struct CodegenStats(Mutex<StatsSnapshot>);

impl CodegenStats {
    pub fn new() -> Self {
        CodegenStats::default()
    }

    /// Adds one optimization's record.
    pub fn absorb(&self, run: &StatsSnapshot) {
        self.0.lock().absorb(run);
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        self.0.lock().clone()
    }

    pub fn reset(&self) {
        *self.0.lock() = StatsSnapshot::default();
    }
}

/// The optimizer's counters: one optimization's, or (in [`CodegenStats`])
/// every optimization's summed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Number of HOP DAGs passed through the optimizer.
    pub dags_optimized: usize,
    /// Number of CPlans constructed.
    pub cplans_constructed: usize,
    /// Number of operators compiled (plan-cache misses).
    pub operators_compiled: usize,
    /// Number of plan-cache hits.
    pub cache_hits: usize,
    /// Plans costed by the enumeration algorithm (Figure 12's y-axis).
    pub plans_evaluated: u64,
    /// Of those, the plans a costing table walked; the others were answered
    /// from a walk of the same referenced points (`CostTable::partition_cost`).
    pub plans_walked: u64,
    /// Scan positions cost-based skip-ahead jumped over, never costed.
    pub plans_pruned_cost: u64,
    /// Scan positions cut-set jumps passed over (structural pruning), less
    /// the combined plan each jump costs.
    pub plans_pruned_structural: u64,
    /// Optimizer time (exploration + selection).
    pub optimize_seconds: f64,
    /// Code generation time (CPlan construction + compile).
    pub codegen_seconds: f64,
    /// Number of independent plan partitions optimized.
    pub partitions: usize,
    /// Total number of interesting points across partitions.
    pub interesting_points: usize,
    /// Partitions whose enumeration stopped at `EnumConfig::max_eval` (their
    /// plan is the best found so far, not the optimum).
    pub partitions_capped: usize,
}

impl StatsSnapshot {
    /// Adds `other` into `self`, field by field.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        // Destructured, so a new field does not compile until it is added.
        let StatsSnapshot {
            dags_optimized,
            cplans_constructed,
            operators_compiled,
            cache_hits,
            plans_evaluated,
            plans_walked,
            plans_pruned_cost,
            plans_pruned_structural,
            optimize_seconds,
            codegen_seconds,
            partitions,
            interesting_points,
            partitions_capped,
        } = *other;
        self.dags_optimized += dags_optimized;
        self.cplans_constructed += cplans_constructed;
        self.operators_compiled += operators_compiled;
        self.cache_hits += cache_hits;
        self.plans_evaluated += plans_evaluated;
        self.plans_walked += plans_walked;
        self.plans_pruned_cost += plans_pruned_cost;
        self.plans_pruned_structural += plans_pruned_structural;
        self.optimize_seconds += optimize_seconds;
        self.codegen_seconds += codegen_seconds;
        self.partitions += partitions;
        self.interesting_points += interesting_points;
        self.partitions_capped += partitions_capped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip() {
        let s = CodegenStats::new();
        let run = StatsSnapshot { dags_optimized: 1, plans_evaluated: 50, ..Default::default() };
        s.absorb(&run);
        s.absorb(&run);
        let snap = s.snapshot();
        assert_eq!(snap.dags_optimized, 2);
        assert_eq!(snap.plans_evaluated, 100);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
