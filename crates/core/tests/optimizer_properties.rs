#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Property tests for the fusion optimizer:
//!
//! * memo-table invariants after exploration (references point to groups
//!   with compatible open plans; no closed entries without references),
//! * `MPSkipEnum` with pruning finds the same optimum as exhaustive
//!   enumeration on randomly generated DAGs,
//! * selected operator plans are well-formed (covered sets are connected
//!   along fusion references; entries match HOP arities),
//! * the costing table's assignment masks preserve the best-entry pick, the
//!   lower bound and partial costing,
//! * a table that answers a mask from an earlier walk of the same
//!   referenced points returns the cost a fresh walk returns, and the scan
//!   counts every position it prices or prunes,
//! * an enumeration that runs into `max_eval` says so, and its plan never
//!   costs more than fuse-all or fuse-no-redundancy,
//! * a hop consumed outside the operator that fuses it is that operator's
//!   root, so it is computed once,
//! * code generation is deterministic and the structural hash is stable.

use fusedml_core::codegen::compile_spec;
use fusedml_core::explore::explore;
use fusedml_core::opt::{
    cost, heuristics, mpskip_enum, partitions, select_plans, CostModel, EnumConfig,
    InterestingPoint, PlanPartition, SelectionPolicy,
};
use fusedml_core::{FusionMode, MemoEntry, MemoTable, Optimizer, TemplateType};
use fusedml_hop::{DagBuilder, HopDag, HopId, OpKind};
use fusedml_linalg::ops::UnaryOp;
use proptest::prelude::*;

/// A small random DAG generator: layered cell-wise ops, aggregates, and
/// occasional matrix-vector products with shared intermediates.
#[derive(Debug, Clone)]
struct RandomDag {
    ops: Vec<(u8, u8, u8)>, // (op selector, input a selector, input b selector)
    rows: usize,
    cols: usize,
}

fn dag_strategy() -> impl Strategy<Value = RandomDag> {
    (proptest::collection::vec((0u8..8, 0u8..16, 0u8..16), 2..12), 100usize..2000, 10usize..100)
        .prop_map(|(ops, rows, cols)| RandomDag { ops, rows, cols })
}

fn build(spec: &RandomDag) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", spec.rows, spec.cols, 1.0);
    let y = b.read("Y", spec.rows, spec.cols, 0.1);
    let mut pool: Vec<HopId> = vec![x, y];
    for &(op, ia, ib) in &spec.ops {
        let a = pool[ia as usize % pool.len()];
        let bb = pool[ib as usize % pool.len()];
        // Only matrix-shaped nodes participate (aggregates end chains).
        let node = match op {
            0 => b.mult(a, bb),
            1 => b.add(a, bb),
            2 => b.sub(a, bb),
            3 => b.abs(a),
            4 => b.sq(a),
            5 => {
                let c = b.lit(0.5);
                b.mult(a, c)
            }
            6 => b.exp(a),
            _ => b.min(a, bb),
        };
        pool.push(node);
    }
    // Close with aggregates over the last few nodes (multiple roots create
    // materialization points).
    let mut roots = Vec::new();
    let tail: Vec<HopId> = pool.iter().rev().take(3).copied().collect();
    for t in tail {
        roots.push(b.sum(t));
    }
    b.build(roots)
}

/// The best memo entry by definition (paper §4.2): the first maximum of
/// `(ref_count, preference)` over the type-compatible entries none of whose
/// `(hop → ref)` interesting points the assignment sets.
fn best_by_definition<'m>(
    entries: &'m [MemoEntry],
    hop: HopId,
    current: Option<TemplateType>,
    part: &PlanPartition,
    mask: u64,
) -> Option<&'m MemoEntry> {
    let set = |r: HopId| {
        let point = part.interesting.iter().position(|p| p.consumer == hop && p.target == r);
        point.is_some_and(|i| mask >> i & 1 == 1)
    };
    let key = |e: &MemoEntry| (e.ref_count(), e.ttype.preference());
    let mut best: Option<&MemoEntry> = None;
    for e in entries {
        let type_ok = current.is_none_or(|t| t.merge_compatible(e.ttype));
        if type_ok && !e.refs().any(set) && best.is_none_or(|b| key(e) > key(b)) {
            best = Some(e);
        }
    }
    best
}

/// An autoencoder's per-batch forward + backward DAG with `hidden` sigmoid
/// layers: 3 is the four-weight DAG `algos::autoencoder` builds, 2 the
/// three-weight cousin in fusebench's `compile_cold` corpus (both builders
/// are private to their crates, so the shape is restated).
fn autoencoder_dag(bsz: usize, m: usize, h1: usize, h2: usize, hidden: usize) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("Xb", bsz, m, 1.0);
    let widths: Vec<usize> = if hidden == 3 { vec![m, h1, h2, h1, m] } else { vec![m, h1, h2, m] };
    let ws: Vec<HopId> = widths
        .windows(2)
        .enumerate()
        .map(|(i, w)| b.read(&format!("W{}", i + 1), w[0], w[1], 1.0))
        .collect();
    let mut zs = vec![x];
    for &w in &ws[..hidden] {
        let a = b.mm(zs[zs.len() - 1], w);
        zs.push(b.sigmoid(a));
    }
    let xhat = b.mm(zs[hidden], ws[hidden]);
    let diff = b.sub(xhat, x);
    let sq = b.sq(diff);
    let se = b.sum(sq);
    let scale = b.lit(0.5 / bsz as f64);
    let loss = b.mult(scale, se);
    let dscale = b.lit(1.0 / bsz as f64);
    let mut delta = b.mult(diff, dscale);
    let mut grads = Vec::new();
    for layer in (0..=hidden).rev() {
        let zt = b.t(zs[layer]);
        grads.push(b.mm(zt, delta));
        if layer > 0 {
            let wt = b.t(ws[layer]);
            let dz = b.mm(delta, wt);
            let s = b.unary(UnaryOp::Sprop, zs[layer]);
            delta = b.mult(dz, s);
        }
    }
    grads.reverse();
    let mut roots = vec![loss];
    roots.extend(grads);
    b.build(roots)
}

/// fusebench's `compile_cold` reports `correct: false` when its
/// `autoencoder_batch` DAG costs fewer than 10^4 plans
/// (`fusebench/src/workloads/compile.rs:262`), so a pruning improvement that
/// is right can still fail the benchmark. This restates that coupling where
/// tier-1 sees it; delete when that assertion moves to the search space.
#[test]
fn three_weight_autoencoder_still_costs_ten_thousand_plans() {
    let opt = Optimizer::new(FusionMode::Gen);
    let (_, cap) = opt.optimize_reporting_cap(&autoencoder_dag(512, 100, 64, 2, 2));
    let stats = opt.stats.snapshot();
    assert!(stats.plans_evaluated >= 10_000, "costed {} plans", stats.plans_evaluated);
    assert_eq!((stats.partitions_capped, cap), (0, None), "enumerates to the end");
}

/// The four-weight DAG has 2^20 assignments in one partition: the scan stops
/// at `max_eval`, and every layer that reports on the plan says so.
#[test]
fn capped_enumeration_is_reported() {
    let dag = autoencoder_dag(512, 100, 64, 2, 3);
    let memo = explore(&dag);
    let cfg = EnumConfig::default();
    let sel = select_plans(&dag, &memo, SelectionPolicy::CostBased(cfg), &CostModel::default());
    assert_eq!((sel.partitions_capped, sel.capped_points), (1, 20));
    // The cap counts costed plans, so the one partition that hit it costed
    // exactly `max_eval`; the other partitions have nothing to decide.
    assert_eq!(sel.plans_evaluated, cfg.max_eval + sel.partitions as u64 - 1);

    let opt = Optimizer::new(FusionMode::Gen);
    let (_, cap) = opt.optimize_reporting_cap(&dag);
    assert_eq!(opt.stats.snapshot().partitions_capped, 1);
    assert_eq!(
        cap.expect("capped").to_string(),
        "enumeration capped at 32768 of 2^20 plans in 1 partition(s): plan is best-so-far"
    );
    // The heuristics cost one plan per partition: nothing to cap.
    let (_, cap) = Optimizer::new(FusionMode::GenFA).optimize_reporting_cap(&dag);
    assert_eq!(cap, None);
}

/// The capped four-weight partition starts from the cheaper heuristic plan,
/// which materializes `Xb %*% W1`. The plans near fuse-all, all that a scan
/// from fuse-all reaches within the cap, recompute it in four Row operators.
#[test]
fn capped_autoencoder_computes_its_forward_product_once() {
    let dag = autoencoder_dag(512, 100, 64, 2, 3);
    let first_mm = dag.iter().find(|h| h.kind == OpKind::MatMult).expect("Xb %*% W1").id;
    let plan = Optimizer::new(FusionMode::Gen).optimize(&dag);
    let covering = plan.operators.iter().filter(|f| f.cplan.covered.contains(&first_mm)).count();
    assert!(covering <= 1, "{covering} operators compute hop {first_mm}:\n{}", plan.explain());
}

/// The interesting points of `part` no memo entry of their consumer
/// references: no assignment of them changes which entries a walk picks.
fn unreferenced_points(memo: &MemoTable, part: &PlanPartition) -> Vec<usize> {
    let referenced = |p: &InterestingPoint| {
        memo.entries(p.consumer).iter().any(|e| e.refs().any(|r| r == p.target))
    };
    (0..part.interesting.len().min(64)).filter(|&i| !referenced(&part.interesting[i])).collect()
}

/// The partitions `select_plans` enumerates: over the memo with its useless
/// Row plans pruned.
fn selected_partitions(dag: &HopDag) -> (MemoTable, Vec<PlanPartition>) {
    let mut memo = explore(dag);
    memo.prune_useless_row_plans(dag);
    let parts = partitions(dag, &memo);
    (memo, parts)
}

/// Each autoencoder's big partition (14 points with three weights, 20 with
/// four) has two points no entry references, both `t(z) → z` for a sigmoid
/// output `z`: added because `z` has several consumers, though the
/// transpose never fuses it.
#[test]
fn autoencoder_has_two_unreferenced_transpose_points() {
    for (hidden, points) in [(2, 14), (3, 20)] {
        let dag = autoencoder_dag(512, 100, 64, 2, hidden);
        let (memo, parts) = selected_partitions(&dag);
        let part = parts.iter().max_by_key(|p| p.interesting.len()).unwrap();
        assert_eq!(part.interesting.len(), points);
        let unreferenced = unreferenced_points(&memo, part);
        assert_eq!(unreferenced.len(), 2, "{hidden} hidden layers: {:?}", part.interesting);
        for i in unreferenced {
            let p = part.interesting[i];
            assert_eq!(dag.hop(p.consumer).kind, OpKind::Transpose, "point {i}: {p:?}");
            let target = &dag.hop(p.target).kind;
            assert_eq!(*target, OpKind::Unary { op: UnaryOp::Sigmoid }, "point {i}: {p:?}");
        }
    }
}

/// Plans priced vs walked on both autoencoders: the two unreferenced points
/// of each big partition make four priced plans share one walk. Every count
/// but `plans_walked` is what a walk per plan gives.
#[test]
fn autoencoder_walks_a_quarter_of_its_plans() {
    for (hidden, priced, walked) in [(2, 13_506, 3_378), (3, 32_771, 8_196)] {
        let opt = Optimizer::new(FusionMode::Gen);
        opt.optimize(&autoencoder_dag(512, 100, 64, 2, hidden));
        let s = opt.stats.snapshot();
        assert_eq!((s.plans_evaluated, s.plans_walked), (priced, walked), "{hidden} hidden layers");
    }
}

/// Pruned scan positions are counted: an unseeded, uncapped scan without
/// cut sets prices or skips every one of its 2^|M′| positions, and the
/// optimizer's statistics carry the counts.
#[test]
fn every_scan_position_is_priced_or_pruned() {
    let dag = autoencoder_dag(512, 100, 64, 2, 2);
    let mut opt = Optimizer::new(FusionMode::Gen);
    opt.enum_cfg = EnumConfig { cost_prune: true, structural_prune: false, max_eval: u64::MAX };
    opt.optimize(&dag);
    let s = opt.stats.snapshot();
    let space: u64 = selected_partitions(&dag).1.iter().map(|p| 1 << p.interesting.len()).sum();
    assert!(s.plans_pruned_cost > 0, "nothing pruned: {s:?}");
    assert_eq!(s.plans_evaluated + s.plans_pruned_cost, space, "{s:?}");
    assert_eq!(s.plans_pruned_structural, 0);
}

/// A mask aborted at a tight bound and re-priced at a looser one is walked
/// again: an aborted walk's running cost is a prefix, not the plan's cost.
#[test]
fn an_aborted_walk_is_not_a_cost() {
    let dag = autoencoder_dag(512, 100, 64, 2, 2);
    let (memo, parts) = selected_partitions(&dag);
    let part = parts.iter().max_by_key(|p| p.interesting.len()).unwrap();
    assert!(part.roots.len() > 1, "a walk can abort with roots left");
    let (compute, model) = (cost::compute_costs(&dag), CostModel::default());
    let mut shared = cost::CostTable::new(&dag, &memo, part, &compute, &model);
    for mask in [0, 0b1011, 0b1_0110_0101] {
        let full = cost::CostTable::new(&dag, &memo, part, &compute, &model)
            .partition_cost(mask, f64::INFINITY);
        assert_eq!(shared.partition_cost(mask, 0.0), f64::INFINITY);
        assert_eq!(shared.partition_cost(mask, 0.5 * full), f64::INFINITY);
        assert_eq!(shared.partition_cost(mask, f64::INFINITY).to_bits(), full.to_bits());
    }
}

/// fusebench's serving scorer: `S = X W` is an output, and `rowMaxs(S)`
/// reads it.
fn scorer_dag() -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", 64, 128, 1.0);
    let w = b.read("W", 128, 10, 1.0);
    let s = b.mm(x, w);
    let m = b.row_maxs(s);
    b.build(vec![s, m])
}

/// MLogreg's probability DAG, `cbind(E, 1) / (rowSums(E) + 1)` with
/// `E = exp(X B)`: `E` feeds the unfusible `cbind`.
fn mlogreg_prob_dag() -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", 2000, 50, 1.0);
    let beta = b.read("B", 50, 4, 1.0);
    let eta = b.mm(x, beta);
    let e = b.exp(eta);
    let rs = b.row_sums(e);
    let one = b.lit(1.0);
    let denom = b.add(rs, one);
    let ones = b.read("ones", 2000, 1, 1.0);
    let full = b.cbind(e, ones);
    let p = b.div(full, denom);
    b.build(vec![p])
}

/// A hop whose value leaves the operators that fuse it (a DAG output, or
/// the input of a hop no operator covers with it) is materialized anyway:
/// `Gen` and `Gen-FNR` fuse it only as an operator's root, so it is computed
/// once.
#[test]
fn externally_consumed_hops_are_computed_once() {
    for (name, dag) in [("scorer", scorer_dag()), ("mlogreg_prob", mlogreg_prob_dag())] {
        let consumers = dag.consumers();
        for mode in [FusionMode::Gen, FusionMode::GenFNR] {
            let plan = Optimizer::new(mode).optimize(&dag);
            for op in &plan.operators {
                let covered = &op.cplan.covered;
                for &h in covered.iter().filter(|h| !op.roots.contains(h)) {
                    let external = dag.roots().contains(&h)
                        || consumers[h.index()].iter().any(|c| !covered.contains(c));
                    assert!(
                        !external,
                        "{name} {mode:?}: hop {h} is fused inside an operator and also consumed \
                         outside it:\n{}",
                        plan.explain()
                    );
                }
            }
        }
    }
}

/// Checks every partition of `dag` at `max_eval`: the enumerated plan costs no
/// more than fuse-all or fuse-no-redundancy on the same costing table, and
/// its reported cost is the table's cost of its assignment.
fn gen_within_heuristics(dag: &HopDag, max_eval: u64) -> Result<(), TestCaseError> {
    let mut memo = explore(dag);
    memo.prune_useless_row_plans(dag);
    let compute = cost::compute_costs(dag);
    let model = CostModel::default();
    let cfg = EnumConfig { max_eval, ..EnumConfig::default() };
    for (ix, part) in partitions(dag, &memo).iter().enumerate() {
        let r = mpskip_enum(dag, &memo, part, &compute, &model, &cfg);
        let mut table = cost::CostTable::new(dag, &memo, part, &compute, &model);
        let mut cost_of =
            |a: &[bool]| table.partition_cost(cost::assignment_mask(a), f64::INFINITY);
        let fa = cost_of(&heuristics::fuse_all(part));
        let fnr = cost_of(&heuristics::fuse_no_redundancy(part));
        let at = format!("partition {ix} ({} points, max_eval {max_eval})", part.interesting.len());
        prop_assert!(r.cost <= fa && r.cost <= fnr, "{at}: Gen {} vs FA {fa}, FNR {fnr}", r.cost);
        prop_assert_eq!(r.cost, cost_of(&r.assignment), "{}: reported vs assignment cost", at);
    }
    Ok(())
}

const MAX_EVALS: [u64; 5] = [1, 2, 8, 64, 32_768];

/// Both autoencoder shapes: the three-weight one enumerates to the end, the
/// four-weight one stops at the default cap.
#[test]
fn gen_never_costs_more_than_a_heuristic_on_autoencoders() {
    for hidden in [2, 3] {
        let dag = autoencoder_dag(512, 100, 64, 2, hidden);
        for max_eval in MAX_EVALS {
            if let Err(e) = gen_within_heuristics(&dag, max_eval) {
                panic!("autoencoder with {hidden} hidden layers: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Memo invariants: every fused reference points to a group containing
    /// at least one open plan merge-compatible with the referencing entry.
    #[test]
    fn memo_references_are_compatible(spec in dag_strategy()) {
        let dag = build(&spec);
        let memo = explore(&dag);
        for g in memo.group_ids() {
            for e in memo.entries(g) {
                prop_assert_eq!(e.inputs.len(), dag.hop(g).inputs.len(), "arity");
                for r in e.refs() {
                    prop_assert!(
                        memo.entries(r).iter().any(|se| !se.closed && e.ttype.merge_compatible(se.ttype)),
                        "ref {} from {} ({:?}) lacks a compatible open plan",
                        r, g, e.ttype
                    );
                }
                // Closed single-op plans must have been pruned.
                prop_assert!(!(e.closed && e.ref_count() == 0));
            }
        }
    }

    /// Pruned enumeration preserves the optimum found by exhaustive search.
    #[test]
    fn mpskipenum_preserves_optimality(spec in dag_strategy()) {
        let dag = build(&spec);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let compute = cost::compute_costs(&dag);
        let model = CostModel::default();
        for part in &parts {
            if part.interesting.len() > 10 {
                continue; // keep exhaustive search tractable
            }
            let full = mpskip_enum(
                &dag, &memo, part, &compute, &model,
                &EnumConfig { cost_prune: false, structural_prune: false, max_eval: u64::MAX },
            );
            let pruned = mpskip_enum(&dag, &memo, part, &compute, &model, &EnumConfig::default());
            prop_assert!(
                (full.cost - pruned.cost).abs() <= 1e-9 * full.cost.max(1.0),
                "optimum lost: exhaustive {} vs pruned {} ({} points)",
                full.cost, pruned.cost, part.interesting.len()
            );
            // Structural decomposition may cost a handful of extra plans on
            // tiny spaces (sub-problem enumerations are counted too); it must
            // never blow past the exhaustive count asymptotically.
            prop_assert!(pruned.evaluated <= 2 * full.evaluated + 4);
        }
    }

    /// Model-cost(`Gen`) ≤ min(model-cost(`Gen-FA`), model-cost(`Gen-FNR`))
    /// per partition, capped or not.
    #[test]
    fn gen_never_costs_more_than_a_heuristic(spec in dag_strategy()) {
        let dag = build(&spec);
        for max_eval in MAX_EVALS {
            gen_within_heuristics(&dag, max_eval)?;
        }
    }

    /// What the assignment masks of the costing table must preserve, for
    /// fuse-all, materialize-all and random assignments of every partition:
    /// (i) the best-entry pick equals its definition for every `(hop,
    /// current type)`; (ii) the lower bound never exceeds the cost; (iii)
    /// partial costing returns the uncapped cost or `INFINITY`, the latter
    /// only when the uncapped cost reaches the upper bound.
    #[test]
    fn cost_table_masks_preserve_the_definitions(spec in dag_strategy(), seed in 0u64..u64::MAX) {
        use TemplateType::{Cell, MAgg, Outer, Row};
        let dag = build(&spec);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let compute = cost::compute_costs(&dag);
        let model = CostModel::default();
        for part in &parts {
            let n = part.interesting.len();
            prop_assert!(n < 64, "{n} interesting points");
            let all = (1u64 << n) - 1;
            let mut table = cost::CostTable::new(&dag, &memo, part, &compute, &model);
            let mut state = seed;
            for draw in 0..6 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let mask = [0, all, state >> 20 & all][draw.min(2)];
                for &hop in &part.nodes {
                    for current in [None, Some(Row), Some(Cell), Some(MAgg), Some(Outer)] {
                        prop_assert_eq!(
                            table.best_entry(hop, current, mask),
                            best_by_definition(memo.entries(hop), hop, current, part, mask),
                            "best entry at {} under {:?}, assignment {:#b}", hop, current, mask
                        );
                    }
                }
                let cost = table.partition_cost(mask, f64::INFINITY);
                let bound = table.lower_bound(mask);
                prop_assert!(cost.is_finite() && bound <= cost * (1.0 + 1e-9),
                    "lower bound {} above cost {} of assignment {:#b}", bound, cost, mask);
                for upper in [0.5 * cost, cost, 2.0 * cost] {
                    let partial = table.partition_cost(mask, upper);
                    prop_assert!(
                        partial == cost || (partial == f64::INFINITY && cost >= upper),
                        "partial costing at {}: {} (uncapped {})", upper, partial, cost
                    );
                }
            }
        }
    }

    /// A scan without a seed, a cap or cut sets prices or skips each of its
    /// 2^|M′| positions exactly once.
    #[test]
    fn scan_positions_are_priced_or_pruned(spec in dag_strategy()) {
        let dag = build(&spec);
        let (memo, parts) = selected_partitions(&dag);
        let (compute, model) = (cost::compute_costs(&dag), CostModel::default());
        let cfg = EnumConfig { cost_prune: true, structural_prune: false, max_eval: u64::MAX };
        for part in parts.iter().filter(|p| p.interesting.len() <= 12) {
            let r = mpskip_enum(&dag, &memo, part, &compute, &model, &cfg);
            prop_assert_eq!(r.evaluated + r.pruned_cost, 1 << part.interesting.len());
            prop_assert_eq!(r.pruned_structural, 0);
            prop_assert!(r.walked <= r.evaluated);
        }
    }

    /// The walk and summary memos are exact: on random partitions and on
    /// autoencoders of random widths, one table shared by every query and a
    /// fresh table per query cost random masks, with and without each point
    /// no entry references and with each referenced point flipped, bitwise
    /// alike, uncapped and at bounds around the cost. A flipped point that
    /// a summary's key leaves out reuses that summary where a fresh table
    /// builds another.
    #[test]
    fn a_shared_table_costs_what_a_fresh_one_costs(
        spec in dag_strategy(),
        widths in (8usize..64, 2usize..24, 1usize..4, 2usize..4),
        seed in 0u64..u64::MAX,
    ) {
        let (m, h1, h2, hidden) = widths;
        for dag in [build(&spec), autoencoder_dag(64, m, h1, h2, hidden)] {
            let (memo, parts) = selected_partitions(&dag);
            let (compute, model) = (cost::compute_costs(&dag), CostModel::default());
            for part in &parts {
                let n = part.interesting.len().min(64) as u32;
                let all = u64::MAX.checked_shr(64 - n).unwrap_or(0);
                let unreferenced = unreferenced_points(&memo, part);
                let mut shared = cost::CostTable::new(&dag, &memo, part, &compute, &model);
                let mut state = seed;
                for _ in 0..4 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let drawn = state >> 7 & all;
                    let flips = unreferenced.iter().flat_map(|&b| [drawn | 1 << b, drawn & !(1 << b)]);
                    let referenced = (0..n as usize).filter(|b| !unreferenced.contains(b));
                    let flipped = referenced.map(|b| drawn ^ 1 << b);
                    for mask in std::iter::once(drawn).chain(flips).chain(flipped) {
                        let fresh = |upper| {
                            cost::CostTable::new(&dag, &memo, part, &compute, &model)
                                .partition_cost(mask, upper)
                        };
                        let full = fresh(f64::INFINITY);
                        for upper in [0.5 * full, full, f64::INFINITY, 0.5 * full, full * (1.0 + 1e-9)] {
                            prop_assert_eq!(
                                shared.partition_cost(mask, upper).to_bits(),
                                fresh(upper).to_bits(),
                                "assignment {:#b} at bound {} (uncapped {})", mask, upper, full
                            );
                        }
                    }
                }
                prop_assert!(shared.walks() > 0);
            }
        }
    }

    /// Selected plans are well-formed: the covered set is closed under the
    /// entries' fused references, and contains the root.
    #[test]
    fn selected_plans_are_wellformed(spec in dag_strategy()) {
        let dag = build(&spec);
        let memo = explore(&dag);
        for policy in [
            SelectionPolicy::CostBased(EnumConfig::default()),
            SelectionPolicy::FuseAll,
            SelectionPolicy::FuseNoRedundancy,
        ] {
            let sel = select_plans(&dag, &memo, policy, &CostModel::default());
            for op in &sel.operators {
                let covered = op.covered();
                prop_assert!(covered.contains(&op.root));
                for (&h, e) in &op.entries {
                    for (j, &input) in dag.hop(h).inputs.iter().enumerate() {
                        if e.inputs[j].is_fused() {
                            prop_assert!(
                                covered.contains(&input),
                                "fused ref {}→{} leaves the covered set", h, input
                            );
                        }
                    }
                }
            }
        }
    }

    /// Codegen determinism: compiling the same CPlan twice yields identical
    /// specs, and the structural hash is invariant.
    #[test]
    fn codegen_is_deterministic(spec in dag_strategy()) {
        let dag = build(&spec);
        let memo = explore(&dag);
        let sel = select_plans(
            &dag,
            &memo,
            SelectionPolicy::CostBased(EnumConfig::default()),
            &CostModel::default(),
        );
        for op in &sel.operators {
            if let Ok(cp) = fusedml_core::cplan::construct(&dag, op) {
                let s1 = compile_spec(&cp);
                let s2 = compile_spec(&cp);
                prop_assert_eq!(&s1, &s2);
                prop_assert_eq!(cp.structural_hash(), cp.clone().structural_hash());
            }
        }
    }
}
