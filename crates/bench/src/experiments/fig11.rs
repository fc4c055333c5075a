//! Figure 11: operator compilation and loading with and without the plan
//! cache. The paper's fast-vs-standard Java compiler axis is not reproduced:
//! this engine has one compiler (DESIGN.md substitution X1).

use super::Scale;
use crate::report::Table;
use fusedml_core::codegen::{generate, CodegenOptions};
use fusedml_core::cplan::CPlan;
use fusedml_core::explore::explore;
use fusedml_core::opt::{select_plans, CostModel, EnumConfig, SelectionPolicy};
use fusedml_core::plancache::PlanCache;
use fusedml_hop::DagBuilder;

/// Builds a family of `n` structurally distinct fused-operator CPlans
/// (cell chains of one to seven added constants, unique to each member),
/// mimicking the operator diversity of the six algorithms.
fn cplan_family(n: usize) -> Vec<CPlan> {
    let mut out = Vec::new();
    for i in 0..n {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let mut cur = b.mult(x, y);
        for j in 0..=(i % 7) {
            let c = b.lit(1.0 + (i * 31 + j) as f64);
            cur = b.add(cur, c);
        }
        let s = b.sum(cur);
        let dag = b.build(vec![s]);
        let memo = explore(&dag);
        let sel = select_plans(
            &dag,
            &memo,
            SelectionPolicy::CostBased(EnumConfig::default()),
            &CostModel::default(),
        );
        for op in &sel.operators {
            if let Ok(cp) = fusedml_core::cplan::construct(&dag, op) {
                out.push(cp);
            }
        }
    }
    out
}

/// Runs the plan-cache on/off comparison over repeated compilations of the
/// operator family (as dynamic recompilation would).
pub fn run(scale: Scale) {
    let family = cplan_family(scale.pick(30, 60));
    let rounds = scale.pick(20, 50);
    let mut t = Table::new(
        &format!(
            "Figure 11: compilation of {} distinct operators x {} recompilations",
            family.len(),
            rounds
        ),
        &["config", "compile time", "hits", "misses"],
    );
    // Times `rounds` compilations of the whole family through `compile`.
    let time_rounds = |compile: &dyn Fn(&CPlan)| {
        let t0 = std::time::Instant::now();
        for _ in 0..rounds {
            for cp in &family {
                compile(cp);
            }
        }
        Table::secs(t0.elapsed().as_secs_f64())
    };
    // Without a cache every lookup is a miss that generates and lowers anew.
    let secs = time_rounds(&|cp| {
        std::hint::black_box(generate(cp, "TMP", &CodegenOptions::default()));
    });
    let misses = rounds * family.len();
    t.row(vec!["no cache".to_string(), secs, "0".to_string(), misses.to_string()]);
    let cache = PlanCache::new();
    let secs = time_rounds(&|cp| {
        cache.get_or_compile(cp);
    });
    let (h, m) = cache.stats();
    t.row(vec!["plan cache".to_string(), secs, h.to_string(), m.to_string()]);
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_members_are_distinct_operators() {
        for n in [30, 60] {
            let family = cplan_family(n);
            let hashes: std::collections::HashSet<u64> =
                family.iter().map(CPlan::structural_hash).collect();
            assert_eq!((family.len(), hashes.len()), (n, n), "n = {n}");
        }
    }
}
