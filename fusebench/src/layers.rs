//! The per-layer metrics of the traced run, named `<module>.<what>`.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. Three sources:
//!
//! * [`of_workload`] — rows that describe the traced workload itself: its
//!   tail latencies, its engine's pool and scheduler counters, and what the
//!   tracing cost;
//! * [`suite`] — rows that are the same whichever workload is traced: the
//!   compile phases replayed beside `Engine::compile`, the kernel rates of
//!   the Figure 8 panels under every fusion mode, the `linalg` / `simd`
//!   primitives, the shard runtime against a local run, and probes of the
//!   machine (stream bandwidth, FMA rate, timer cost);
//! * [`HostProbe`] — what the host did to the run: steal time from
//!   `/proc/stat` and a spin loop timed when the run opens and closes.
//!
//! None of these is gated. Rates are *computed* bytes, flops or non-zeros
//! (array sizes, ignoring cache misses) over a measured median.

use crate::gen::{self, Rng};
use crate::panel::{PanelSpec, Template};
use crate::run::untraced_units;
use crate::stats::{geomean, median, percentile, sorted};
use crate::trace::{Tracer, NONE};
use crate::workloads::algos::{AlgosE2e, ALGOS};
use crate::workloads::compile::{self, Item};
use crate::workloads::{ops, serve, shard, Check, PanelSet, Scale, Timed, Workload};
use fusedml_core::codegen::{self, CodegenOptions};
use fusedml_core::opt::{partitions, select_plans, CostModel, EnumConfig, SelectionPolicy};
use fusedml_core::optimizer::{dag_structural_hash, FusedOperator, FusionPlan};
use fusedml_core::spoof::block::compile_row_kernel;
use fusedml_core::spoof::FusedSpec;
use fusedml_core::{cplan, explore::explore};
use fusedml_hop::interp;
use fusedml_hop::{liveness, DagBuilder};
use fusedml_linalg::ops::{AggDir, AggOp, BinaryOp};
use fusedml_linalg::{par, simd, Matrix};
use fusedml_runtime::{schedule, EngineBuilder, FusionMode};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

type Rows = Vec<(&'static str, f64)>;

fn ms_of(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Fastest of five calls, in milliseconds: for probes of what the machine
/// *can* do, where every disturbance only adds.
fn best_ms(mut f: impl FnMut()) -> f64 {
    (0..5).map(|_| ms_of(&mut f)).fold(f64::INFINITY, f64::min)
}

/// `reps` back-to-back `simd::dot`s of the same vectors, best of five.
fn dots_ms(a: &[f64], b: &[f64], reps: usize) -> f64 {
    best_ms(|| {
        let mut acc = 0.0;
        for _ in 0..reps {
            acc += simd::dot(black_box(a), black_box(b));
        }
        black_box(acc);
    })
}

/// Median milliseconds of `reps` calls.
fn p50_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| ms_of(&mut f)).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------------
// The host
// ---------------------------------------------------------------------------

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice
    (fields.get(7).copied().unwrap_or(0.0), fields.iter().take(8).sum())
}

/// The spin probe: eight independent multiply-add chains over an
/// L1-resident vector — throughput-bound, no memory, ≈ 50 µs a sample; the
/// median of 400 samples (20 ms). Throughput-bound on purpose: a busy
/// neighbour on this host slows such code by up to 1.6× for minutes at a
/// time while a dependent (latency-bound) chain barely notices, so this is
/// the probe that tells which state a run was in.
fn spin_us() -> f64 {
    let v: Vec<f64> = (0..2048).map(|i| f64::from(i) * 1e-3).collect();
    let samples: Vec<f64> = (0..400)
        .map(|_| {
            1e3 * ms_of(|| {
                let mut acc = [0.0f64; 8];
                for _ in 0..200 {
                    for chunk in black_box(&v).chunks_exact(8) {
                        for (a, x) in acc.iter_mut().zip(chunk) {
                            *a += x * x;
                        }
                    }
                }
                black_box(acc);
            })
        })
        .collect();
    median(&samples)
}

/// What the host did to a run: opened first thing, closed last.
pub struct HostProbe {
    jiffies: (f64, f64),
    pub spin_open_us: f64,
}

/// `(host.steal_share, spin_close_us)` — see [`HostProbe::close`].
pub struct HostReport {
    pub steal_share: f64,
    pub spin_open_us: f64,
    pub spin_close_us: f64,
}

impl HostProbe {
    pub fn open() -> HostProbe {
        // A core is slow for its first tens of milliseconds after process
        // start; the first probe absorbs that and is thrown away.
        spin_us();
        HostProbe { jiffies: cpu_jiffies(), spin_open_us: spin_us() }
    }

    /// Steal share: stolen over all jiffies since [`HostProbe::open`]; and
    /// the spin probe again, for `probe.spin_drift` = closing ÷ opening
    /// (1.0 = the core was as fast at the end as at the start).
    pub fn close(self) -> HostReport {
        let (steal, total) = cpu_jiffies();
        let elapsed = (total - self.jiffies.1).max(1.0);
        HostReport {
            steal_share: (steal - self.jiffies.0) / elapsed,
            spin_open_us: self.spin_open_us,
            spin_close_us: spin_us(),
        }
    }
}

impl HostReport {
    pub fn rows(&self) -> Rows {
        vec![
            ("host.steal_share", self.steal_share),
            ("probe.spin_drift", self.spin_close_us / self.spin_open_us),
        ]
    }
}

// ---------------------------------------------------------------------------
// The traced workload
// ---------------------------------------------------------------------------

pub fn of_workload(w: &dyn Workload, t: &Timed) -> Rows {
    let plain = sorted(&untraced_units(t));
    let traced: Vec<f64> =
        t.unit_ms.iter().zip(&t.unit_traced).filter(|(_, &on)| on).map(|(&ms, _)| ms).collect();
    let spans: usize = t.tracers.iter().map(|tr| tr.spans().len()).sum();
    let dropped: u64 = t.tracers.iter().map(Tracer::dropped).sum();
    let done = (t.unit_ms.len() as u64).saturating_sub(t.failed_units);
    let mut rows = vec![
        ("engine.req_per_s", done as f64 / t.wall_s),
        ("engine.exec_ms_p50", percentile(&plain, 0.5)),
        ("engine.exec_ms_p90", percentile(&plain, 0.9)),
        ("engine.exec_ms_p99", percentile(&plain, 0.99)),
        ("trace.overhead_share", median(&traced) / percentile(&plain, 0.5) - 1.0),
        ("trace.spans", spans as f64),
        ("trace.dropped_spans", dropped as f64),
    ];
    let units = t.unit_ms.len().max(1) as f64;
    // A workload that executes nothing (compile_cold) has no pool or
    // scheduler to report: the rows are present and zero.
    let (pool, sched, recompiles) = w.engine().map_or_else(Default::default, |e| {
        (e.pool_stats(), e.stats().scheduler_snapshot(), e.stats().plan_recompiles())
    });
    rows.extend([
        ("engine.recompiles", recompiles as f64),
        ("pool.hit_share", pool.hit_rate()),
        ("pool.retained_mb", pool.retained_bytes as f64 / 1e6),
        ("schedule.peak_tracked_mb", sched.peak_bytes as f64 / 1e6),
        ("schedule.freed_early_mb", sched.bytes_freed_early as f64 / 1e6 / units),
        ("schedule.parallel_ops", sched.parallel_ops as f64),
    ]);
    rows
}

// ---------------------------------------------------------------------------
// Machine probes
// ---------------------------------------------------------------------------

fn machine(scale: Scale) -> Rows {
    // Timer: median gap between back-to-back `Instant::now()` calls.
    let mut gaps: Vec<f64> = Vec::with_capacity(20_000);
    let mut last = Instant::now();
    for _ in 0..20_000 {
        let now = Instant::now();
        gaps.push((now - last).as_nanos() as f64);
        last = now;
    }
    // Stream: a[i] = b[i] + s·c[i] over three 32 MB arrays (16× the private
    // L2; the 260 MiB L3 is shared with the host, so this is the bandwidth
    // a streaming kernel can count on, not DRAM bandwidth). Best of 5.
    let n = scale.pick(4_000_000, 200_000);
    let (b, c) = (vec![1.0f64; n], vec![2.0f64; n]);
    let mut a = vec![0.0f64; n];
    let stream_ms = best_ms(|| {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        black_box(&mut a);
    });
    // FMA: the library's own AVX2 dot over two L1-resident 16 KB vectors,
    // 2 flops per element — the rate its SIMD tier reaches when memory is
    // out of the way.
    let (x, y) = (vec![1.000_1f64; 2048], vec![0.999_9f64; 2048]);
    let reps = 20_000;
    let dot_ms = dots_ms(&x, &y, reps);
    vec![
        ("probe.timer_ns", median(&gaps)),
        ("probe.stream_gbps", 3.0 * 8.0 * n as f64 / 1e9 / (stream_ms / 1e3)),
        ("probe.fma_gflops", 2.0 * 2048.0 * reps as f64 / 1e9 / (dot_ms / 1e3)),
    ]
}

// ---------------------------------------------------------------------------
// hop + core: the compile phases, replayed beside Engine::compile
// ---------------------------------------------------------------------------

/// One pass over the corpus on a fresh engine, in milliseconds.
fn cold_pass_ms(items: &[Item], verify: bool) -> (f64, usize) {
    let engine = EngineBuilder::new(FusionMode::Gen)
        .cache_plans(false)
        .verify_plans(verify)
        .workers(1)
        .build();
    let ms = ms_of(|| {
        for item in items {
            black_box(engine.try_compile(&item.dag).is_ok());
        }
    });
    (ms, engine.optimizer().stats.snapshot().operators_compiled)
}

fn compile_layers(seed: u64, scale: Scale, tr: &mut Tracer) -> Rows {
    let mut items = Vec::new();
    let build_ms = p50_ms(5, || items = compile::corpus(seed, scale));
    let n = items.len() as f64;

    let model = CostModel::default();
    let opts = CodegenOptions::default();
    let (mut memo_entries, mut plans, mut space) = (0usize, 0u64, 0.0f64);
    // Phase totals over the corpus, one sample per replay.
    let mut samples: [Vec<f64>; 7] = Default::default();
    for rep in 0..5 {
        let mut us = [0.0f64; 7];
        (memo_entries, plans, space) = (0, 0, 0.0);
        for item in &items {
            let dag = &item.dag;
            let t = Instant::now();
            let memo = tr.span("core.explore.explore", NONE, rep, || explore(dag));
            us[0] += t.elapsed().as_secs_f64() * 1e6;
            memo_entries += memo.total_entries();

            let mut pruned = memo.clone();
            pruned.prune_useless_row_plans(dag);
            let t = Instant::now();
            black_box(tr.span("core.opt.partitions", NONE, rep, || partitions(dag, &pruned)));
            let partition_us = t.elapsed().as_secs_f64() * 1e6;
            us[1] += partition_us;

            // `select_plans` partitions again inside; what is left after
            // taking the replayed partitioning out is costing + MPSkipEnum
            // + operator extraction.
            let policy = SelectionPolicy::CostBased(EnumConfig::default());
            let t = Instant::now();
            let sel = tr.span("core.opt.select_plans", NONE, rep, || {
                select_plans(dag, &memo, policy, &model)
            });
            us[2] += (t.elapsed().as_secs_f64() * 1e6 - partition_us).max(0.0);
            plans += sel.plans_evaluated;
            space += sel.search_space;

            // CPlan construction + code generation, grouped into MultiAgg
            // operators as `Optimizer::optimize` groups them.
            let t = Instant::now();
            tr.enter("core.codegen.generate", NONE, rep);
            let grouped: Vec<usize> = sel.magg_groups.iter().flatten().copied().collect();
            let mut built: Vec<(Vec<fusedml_hop::HopId>, cplan::CPlan)> = Vec::new();
            for (i, op) in sel.operators.iter().enumerate() {
                if !grouped.contains(&i) {
                    if let Ok(cp) = cplan::construct(dag, op) {
                        built.push((vec![op.root], cp));
                    }
                }
            }
            for group in &sel.magg_groups {
                let members: Vec<(fusedml_hop::HopId, cplan::CPlan)> = group
                    .iter()
                    .filter_map(|&i| {
                        let op = &sel.operators[i];
                        cplan::construct(dag, op).ok().map(|cp| (op.root, cp))
                    })
                    .collect();
                let cps: Vec<cplan::CPlan> = members.iter().map(|(_, cp)| cp.clone()).collect();
                match cplan::construct_multi_agg(&cps) {
                    Ok(magg) => built.push((members.iter().map(|(r, _)| *r).collect(), magg)),
                    Err(_) => built.extend(members.into_iter().map(|(r, cp)| (vec![r], cp))),
                }
            }
            let operators: Vec<FusedOperator> = built
                .into_iter()
                .enumerate()
                .map(|(i, (roots, cp))| {
                    let op = Arc::new(codegen::generate(&cp, &format!("TMP{i}"), &opts));
                    FusedOperator { roots, cplan: cp, op }
                })
                .collect();
            tr.exit();
            us[3] += t.elapsed().as_secs_f64() * 1e6;

            let t = Instant::now();
            tr.enter("core.codegen.lower_block_kernel", NONE, rep);
            for f in &operators {
                match &f.op.spec {
                    FusedSpec::Row(r) => {
                        black_box(compile_row_kernel(r, &f.cplan.side_dims));
                    }
                    spec => {
                        black_box(codegen::lower_block_kernel(spec));
                    }
                }
            }
            tr.exit();
            us[4] += t.elapsed().as_secs_f64() * 1e6;

            let t = Instant::now();
            black_box(tr.span("hop.liveness.analyze", NONE, rep, || liveness::analyze(dag)));
            us[5] += t.elapsed().as_secs_f64() * 1e6;

            // The rest of `Engine::compile`: the task graph.
            let plan = FusionPlan { operators, dag_hash: dag_structural_hash(dag) };
            let t = Instant::now();
            black_box(tr.span("runtime.schedule.prepare", NONE, rep, || {
                schedule::prepare(dag, Some(&plan), None)
            }));
            us[6] += t.elapsed().as_secs_f64() * 1e6;
        }
        for (s, v) in samples.iter_mut().zip(us) {
            s.push(v);
        }
    }
    // The fastest of five on both sides of `compile_unattributed_share`: a
    // share of two medians of three swung between −0.05 and 0.21 with the
    // host; a disturbed pass only adds.
    let fastest = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    let phase: Vec<f64> = samples.iter().map(|s| fastest(s)).collect();

    // Engine::compile itself, with and without the verifier, interleaved.
    let (mut plain, mut verified, mut compiled) = (Vec::new(), Vec::new(), 0);
    for _ in 0..5 {
        let (ms, ops) = cold_pass_ms(&items, false);
        plain.push(ms);
        compiled = ops;
        verified.push(cold_pass_ms(&items, true).0);
    }
    let compile_ms = fastest(&plain);
    let replayed_ms = phase.iter().sum::<f64>() / 1e3;
    vec![
        ("hop.build_us", build_ms * 1e3 / n),
        ("hop.liveness_us", phase[5] / n),
        ("core.explore_us", phase[0] / n),
        ("core.memo_entries", memo_entries as f64),
        ("core.partition_us", phase[1] / n),
        ("core.select_us", phase[2] / n),
        ("core.plans_evaluated", plans as f64),
        ("core.plans_pruned_share", 1.0 - plans as f64 / space.max(1.0)),
        ("core.codegen_us", phase[3] / n),
        ("core.lower_us", phase[4] / n),
        ("core.operators_compiled", compiled as f64),
        ("engine.compile_ms", compile_ms),
        ("engine.compile_unattributed_share", 1.0 - replayed_ms / compile_ms),
        ("verify.compile_overhead_share", fastest(&verified) / compile_ms - 1.0),
    ]
}

/// `hop.interp_ms`: the reference interpreter on an L2-resident fig8a
/// (three 128×512 inputs, 1.5 MB) — the control row; no optimizer or kernel
/// change should ever move it.
fn interp_control(seed: u64) -> Rows {
    let (rows, cols) = (128, 512);
    let dag = fusedml_bench::experiments::fig8::cell_dag(rows, cols, 1.0).0;
    let m = |name: &str| gen::dense(rows, cols, 0.1, 1.0, &mut Rng::new(seed, name));
    let b = interp::bind(&[("X", m("interp.X")), ("Y", m("interp.Y")), ("Z", m("interp.Z"))]);
    vec![("hop.interp_ms", p50_ms(30, || drop(black_box(interp::interpret(&dag, &b)))))]
}

// ---------------------------------------------------------------------------
// Kernels: the Figure 8 panels under every fusion mode
// ---------------------------------------------------------------------------

/// Per-panel p50 of one mode: `(panel name, template, ms)`.
struct ModeTimes {
    mode: FusionMode,
    p50: Vec<(&'static str, Template, f64)>,
    mono: (usize, usize),
}

/// Times the panels under every mode, interleaved: one repetition runs
/// every mode's round once. `Base` skips the Outer panels: it would
/// materialise the dense `U Vᵀ` plane (96 MB, a second per run) that the
/// Outer template exists to avoid.
fn mode_times(specs: &[PanelSpec], modes: &[FusionMode], reps: usize) -> Vec<ModeTimes> {
    let mut sets: Vec<PanelSet> = modes
        .iter()
        .map(|&mode| {
            let keep =
                specs.iter().filter(|s| mode != FusionMode::Base || s.template != Template::Outer);
            PanelSet::build(ops::engine_1t(mode), keep, Check::Skip)
        })
        .collect();
    let mut samples: Vec<Vec<Vec<f64>>> =
        sets.iter().map(|s| vec![Vec::new(); s.panels.len()]).collect();
    let mut tr = Tracer::off();
    for rep in 0..reps + 1 {
        for (set, out) in sets.iter_mut().zip(&mut samples) {
            for (i, p) in set.panels.iter().enumerate() {
                let (ms, _) = p.execute(&mut tr, i as u32, rep as u32);
                if rep > 0 {
                    out[i].push(ms); // repetition 0 warms the pool
                }
            }
        }
    }
    sets.iter()
        .zip(modes)
        .zip(samples)
        .map(|((set, &mode), out)| ModeTimes {
            mode,
            p50: set
                .panels
                .iter()
                .zip(out)
                .map(|(p, s)| (p.name, p.template, median(&s)))
                .collect(),
            mono: set.engine.stats().mono_snapshot(),
        })
        .collect()
}

const MODES: [FusionMode; 5] =
    [FusionMode::Gen, FusionMode::Base, FusionMode::GenFA, FusionMode::GenFNR, FusionMode::Fused];

fn lookup(times: &[ModeTimes], mode: FusionMode, panel: &str) -> Option<f64> {
    times.iter().find(|t| t.mode == mode)?.p50.iter().find(|p| p.0 == panel).map(|p| p.2)
}

/// `Gen ÷ min(Base, Gen-FA, Gen-FNR)` per panel, plus `Base ÷ Gen` and
/// `Fused ÷ Gen`.
fn plan_quality(times: &[ModeTimes]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut regret, mut vs_base, mut vs_hand) = (Vec::new(), Vec::new(), Vec::new());
    let gen = times.iter().find(|t| t.mode == FusionMode::Gen);
    for &(panel, _, gen_ms) in gen.map_or(&[][..], |g| &g.p50) {
        let rivals = [FusionMode::Base, FusionMode::GenFA, FusionMode::GenFNR];
        let best =
            rivals.iter().filter_map(|&m| lookup(times, m, panel)).fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            regret.push(gen_ms / best);
        }
        if let Some(base) = lookup(times, FusionMode::Base, panel) {
            vs_base.push(base / gen_ms);
        }
        if let Some(hand) = lookup(times, FusionMode::Fused, panel) {
            vs_hand.push(hand / gen_ms);
        }
    }
    (regret, vs_base, vs_hand)
}

fn work_of(specs: &[PanelSpec], panel: &str) -> crate::panel::Work {
    specs.iter().find(|s| s.name == panel).map(|s| s.work).unwrap_or_default()
}

fn input<'a>(specs: &'a [PanelSpec], panel: &str, name: &str) -> Option<&'a Matrix> {
    specs.iter().find(|s| s.name == panel)?.inputs.iter().find(|(n, _)| *n == name).map(|(_, m)| m)
}

fn kernel_layers(seed: u64, scale: Scale, stream_gbps: f64) -> Rows {
    let gen_reps = scale.pick(12, 2);
    // Two measured repetitions after the warm one for the rivals of `Gen`
    // (Base and Fused take seconds per round): their ratios are context.
    let reps = 2;
    let ops::Shapes { dense: (rows, cols), sparse: shape, outer } = ops::shapes(scale);

    // `Gen` alone on the `ops_dense` inputs: computed rates and the dense
    // half of the template rows.
    let dense_specs = ops::dense_specs(seed, rows, cols);
    let gen_dense = mode_times(&dense_specs, &[FusionMode::Gen], gen_reps);
    let gbps = |panel: &str| {
        lookup(&gen_dense, FusionMode::Gen, panel)
            .map_or(f64::NAN, |ms| work_of(&dense_specs, panel).bytes / 1e9 / (ms / 1e3))
    };
    let mut rows_out: Rows = vec![
        ("spoof.cell_gbps", gbps("fig8a_cell")),
        ("spoof.magg_gbps", gbps("fig8c_magg")),
        ("spoof.row_gbps", gbps("fig8e_row")),
        (
            "spoof.row_k2_gflops",
            lookup(&gen_dense, FusionMode::Gen, "fig8g_row_k2").map_or(f64::NAN, |ms| {
                work_of(&dense_specs, "fig8g_row_k2").flops / 1e9 / (ms / 1e3)
            }),
        ),
        ("spoof.roofline_share", gbps("fig8a_cell") / stream_gbps),
    ];

    // Two kernel threads against one, on the bandwidth-bound fig8a: the
    // parallel scaling the gated workloads deliberately do not use.
    let set = PanelSet::build(ops::engine_1t(FusionMode::Gen), &dense_specs[..1], Check::Skip);
    let mut tr = Tracer::off();
    let one = p50_ms(reps, || {
        black_box(set.panels[0].execute(&mut tr, 0, 0));
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    par::set_num_threads(threads);
    let two = p50_ms(reps, || {
        black_box(set.panels[0].execute(&mut tr, 0, 0));
    });
    par::set_num_threads(1);
    rows_out.push(("par.scaling_2t", one / two));
    drop(set);

    // linalg basic operators on the same 64 MB inputs.
    if let (Some(x), Some(y), Some(v)) = (
        input(&dense_specs, "fig8a_cell", "X"),
        input(&dense_specs, "fig8a_cell", "Y"),
        input(&dense_specs, "fig8e_row", "v"),
    ) {
        let one = (rows * cols * 8) as f64 / 1e9;
        let ewise = p50_ms(reps, || {
            fusedml_linalg::ops::binary(x, y, BinaryOp::Mult).recycle();
        });
        let agg =
            p50_ms(reps, || drop(black_box(fusedml_linalg::ops::agg(x, AggOp::Sum, AggDir::Full))));
        let mv = p50_ms(reps, || drop(black_box(fusedml_linalg::ops::matmult(x, v))));
        rows_out.extend([
            ("linalg.ewise_gbps", 3.0 * one / (ewise / 1e3)),
            ("linalg.agg_gbps", one / (agg / 1e3)),
            ("linalg.mv_gbps", one / (mv / 1e3)),
        ]);
    }
    drop(dense_specs);

    // Every fusion mode on the dense panels at a quarter of the rows (Base
    // and Fused take seconds a round at the full size), then on the
    // `ops_sparse` panels at half the rows.
    let quarter_dense = ops::dense_specs(seed, rows / 4, cols);
    let dense = mode_times(&quarter_dense, &MODES, reps);
    let (regret_d, base_d, hand_d) = plan_quality(&dense);
    let mono_d = dense.iter().find(|t| t.mode == FusionMode::Gen).map_or((0, 0), |t| t.mono);
    drop(quarter_dense);

    let sparse_specs = ops::sparse_specs(seed, shape, outer);
    let gen_sparse = mode_times(&sparse_specs, &[FusionMode::Gen], gen_reps);
    let mnnz = |panel: &str| {
        lookup(&gen_sparse, FusionMode::Gen, panel)
            .map_or(f64::NAN, |ms| work_of(&sparse_specs, panel).nnz / 1e6 / (ms / 1e3))
    };
    rows_out.extend([
        ("spoof.cell_sparse_mnnz_s", mnnz("fig8b_cell_0.1")),
        ("spoof.row_sparse_mnnz_s", mnnz("fig8f_row_0.1")),
        ("spoof.outer_mnnz_s", mnnz("fig8h_outer_0.01")),
    ]);
    // The paper's four templates: geometric mean of the `Gen` p50s of every
    // `ops_dense` and `ops_sparse` panel of the template (Outer has sparse
    // panels only).
    for template in Template::ALL {
        let p50s: Vec<f64> = gen_dense
            .iter()
            .chain(&gen_sparse)
            .flat_map(|g| &g.p50)
            .filter(|p| p.1 == template)
            .map(|p| p.2)
            .collect();
        rows_out.push((template.metric(), geomean(&p50s)));
    }
    if let (Some(x), Some(v)) =
        (input(&sparse_specs, "fig8f_row_0.1", "X"), input(&sparse_specs, "fig8f_row_0.1", "v"))
    {
        let spmv = p50_ms(reps, || drop(black_box(fusedml_linalg::ops::matmult(x, v))));
        rows_out.push(("linalg.spmv_mnnz_s", x.nnz() as f64 / 1e6 / (spmv / 1e3)));
    }
    drop(sparse_specs);
    let half_specs =
        ops::sparse_specs(seed, (shape.0 / 2, shape.1), (outer.0 / 2, outer.1, outer.2));
    let sparse = mode_times(&half_specs, &MODES, reps);
    let (regret_s, base_s, hand_s) = plan_quality(&sparse);
    let mono_s = sparse.iter().find(|t| t.mode == FusionMode::Gen).map_or((0, 0), |t| t.mono);

    let regret: Vec<f64> = regret_d.into_iter().chain(regret_s).collect();
    let vs_base: Vec<f64> = base_d.into_iter().chain(base_s).collect();
    let vs_hand: Vec<f64> = hand_d.into_iter().chain(hand_s).collect();
    let (mono, interpreted) = (mono_d.0 + mono_s.0, mono_d.1 + mono_s.1);
    rows_out.extend([
        ("core.mono_share", mono as f64 / (mono + interpreted).max(1) as f64),
        ("core.plan_regret_geo", geomean(&regret)),
        ("core.plan_regret_max", regret.iter().copied().fold(f64::NAN, f64::max)),
        ("core.gen_vs_base_geo", geomean(&vs_base)),
        ("handcoded.vs_gen_ratio", geomean(&vs_hand)),
    ]);
    rows_out
}

/// `simd.*`: the tile primitives over L2-resident vectors (two 512 KB
/// arrays), AVX2 against their scalar twins.
fn simd_layers() -> Rows {
    let n = 65_536;
    let (a, b) = (vec![1.000_1f64; n], vec![0.999_9f64; n]);
    let mut c = vec![0.5f64; n];
    let reps = 200;
    let dot_ms = dots_ms(&a, &b, reps);
    let axpy_ms = best_ms(|| {
        for _ in 0..reps {
            simd::axpy(black_box(&a), 1e-9, black_box(&mut c));
        }
    });
    let was_forced = simd::forced_scalar();
    simd::force_scalar(true);
    let scalar_ms = dots_ms(&a, &b, reps);
    simd::force_scalar(was_forced);
    let bytes = (n * 8 * reps) as f64 / 1e9;
    vec![
        ("simd.dot_gbps", 2.0 * bytes / (dot_ms / 1e3)),
        ("simd.axpy_gbps", 3.0 * bytes / (axpy_ms / 1e3)),
        ("simd.scalar_twin_ratio", scalar_ms / dot_ms),
    ]
}

// ---------------------------------------------------------------------------
// Scheduler, shard runtime, CLA, algorithms
// ---------------------------------------------------------------------------

fn schedule_layers(seed: u64, scale: Scale) -> Rows {
    // Dispatch cost: a chain of 64 one-cell-wide basic operators on an 8×8
    // matrix under `Base` (nothing fuses), divided by 64.
    let mut b = DagBuilder::new();
    let mut cur = b.read("X", 8, 8, 1.0);
    for i in 0..64 {
        cur = if i % 2 == 0 { b.abs(cur) } else { b.sqrt(cur) };
    }
    let chain = b.build(vec![cur]);
    let engine = ops::engine_1t(FusionMode::Base);
    let x = gen::dense(8, 8, 0.1, 1.0, &mut Rng::new(seed, "schedule.X"));
    let bind = interp::bind(&[("X", x)]);
    let per_task_us = engine.try_compile(&chain).map_or(f64::NAN, |script| {
        p50_ms(300, || {
            black_box(script.try_execute(&bind).is_ok());
        }) * 1e3
            / 64.0
    });

    // Inter-operator scaling: two independent compute-bound branches
    // (`sum(exp(X))`, `sum(exp(Y))`) with one and with two workers.
    let n = scale.pick(1000, 100);
    let mut b = DagBuilder::new();
    let (xh, yh) = (b.read("X", n, n, 1.0), b.read("Y", n, n, 1.0));
    let (ex, ey) = (b.exp(xh), b.exp(yh));
    let (sx, sy) = (b.sum(ex), b.sum(ey));
    let two_branches = b.build(vec![sx, sy]);
    let bind = interp::bind(&[
        ("X", gen::dense(n, n, 0.0, 1.0, &mut Rng::new(seed, "schedule.A"))),
        ("Y", gen::dense(n, n, 0.0, 1.0, &mut Rng::new(seed, "schedule.B"))),
    ]);
    let with_workers = |w: usize| {
        let engine = EngineBuilder::new(FusionMode::Base).workers(w).build();
        engine.try_compile(&two_branches).map_or(f64::NAN, |script| {
            p50_ms(15, || {
                if let Ok(out) = script.try_execute(&bind) {
                    crate::panel::recycle(&engine, out.into_values());
                }
            })
        })
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    vec![
        ("schedule.us_per_task", per_task_us),
        ("schedule.scaling_2w", with_workers(1) / with_workers(workers)),
        ("engine.scaling_2c", serve::scaling_2c(seed, scale, 2)),
    ]
}

fn shard_layers(seed: u64, scale: Scale) -> Rows {
    let specs = shard::specs(seed, scale);
    let mut sharded = PanelSet::build(shard::sharded_engine(scale), &specs, Check::Skip);
    let mut local = PanelSet::build(ops::engine_1t(FusionMode::Gen), &specs, Check::Skip);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let mut tr = Tracer::off();
    let mut scratch = vec![0.0; specs.len()];
    let reps = scale.pick(7, 3);
    let (mut sharded_ms, mut local_ms) = (Vec::new(), Vec::new());
    let mut before = sharded.engine.stats().scheduler_snapshot();
    for rep in 0..reps + 1 {
        if rep == 1 {
            before = sharded.engine.stats().scheduler_snapshot(); // rep 0 warms up
        }
        let s = ms_of(|| {
            sharded.round(&mut tr, rep as u32, &mut scratch);
        });
        // The local rival gets the same two cores as kernel threads.
        par::set_num_threads(threads);
        let l = ms_of(|| {
            local.round(&mut tr, rep as u32, &mut scratch);
        });
        par::set_num_threads(1);
        if rep > 0 {
            sharded_ms.push(s);
            local_ms.push(l);
        }
    }
    let after = sharded.engine.stats().scheduler_snapshot();
    let per_round = |a: usize, b: usize| (a - b) as f64 / reps as f64;
    vec![
        ("shard.sharded_ops", per_round(after.sharded_ops, before.sharded_ops)),
        (
            "shard.broadcast_mb",
            per_round(after.shard_broadcast_bytes, before.shard_broadcast_bytes) / 1e6,
        ),
        (
            "shard.partial_mb",
            per_round(after.shard_partial_bytes, before.shard_partial_bytes) / 1e6,
        ),
        ("shard.merge_ms", per_round(after.shard_merge_us, before.shard_merge_us) / 1e3),
        ("shard.skew", after.shard_skew_milli as f64 / 1e3),
        ("shard.vs_local_ratio", median(&sharded_ms) / median(&local_ms)),
    ]
}

fn cla_layers(seed: u64, scale: Scale) -> Rows {
    let m = fusedml_linalg::generate::airline_like(scale.pick(20_000, 2000), 20, 12, seed);
    let mut compressed = None;
    let compress_ms = p50_ms(3, || compressed = Some(fusedml_cla::compress(&m)));
    let sumsq_us = compressed.as_ref().map_or(f64::NAN, |c| {
        p50_ms(50, || {
            black_box(fusedml_cla::ops::sum_sq(c));
        }) * 1e3
    });
    vec![("cla.compress_ms", compress_ms), ("cla.sumsq_us", sumsq_us)]
}

fn algo_layers(seed: u64, scale: Scale) -> Rows {
    const NAMES: [&str; 6] = [
        "algos.l2svm_ms_p50",
        "algos.mlogreg_ms_p50",
        "algos.glm_ms_p50",
        "algos.kmeans_ms_p50",
        "algos.alscg_ms_p50",
        "algos.autoencoder_ms_p50",
    ];
    let mut w = AlgosE2e::setup_with(seed, scale, Check::Skip);
    let mut samples = vec![Vec::new(); ALGOS.len()];
    let mut scratch = vec![0.0; ALGOS.len()];
    let mut tr = Tracer::off();
    for unit in 0..scale.pick(7, 3) as u32 {
        w.round(&mut tr, unit, &mut scratch);
        samples.iter_mut().zip(&scratch).for_each(|(s, &ms)| s.push(ms));
    }
    let mut rows: Rows = NAMES.iter().zip(&samples).map(|(&n, s)| (n, median(s))).collect();
    let (hits, misses) = w.engine().map_or((0, 0), |e| e.plan_cache().stats());
    rows.push(("core.plancache_hit_share", hits as f64 / (hits + misses).max(1) as f64));
    rows
}

/// Every row that does not depend on which workload is traced. The replay
/// of the compile phases records its spans into `tr`.
pub fn suite(seed: u64, scale: Scale, tr: &mut Tracer) -> Rows {
    let mut rows = machine(scale);
    let stream = rows.iter().find(|r| r.0 == "probe.stream_gbps").map_or(f64::NAN, |r| r.1);
    let sections: [(&str, &mut dyn FnMut() -> Rows); 8] = [
        ("hop.interp", &mut || interp_control(seed)),
        ("compile phases", &mut || compile_layers(seed, scale, tr)),
        ("kernels by fusion mode", &mut || kernel_layers(seed, scale, stream)),
        ("simd", &mut simd_layers),
        ("schedule", &mut || schedule_layers(seed, scale)),
        ("shard", &mut || shard_layers(seed, scale)),
        ("cla", &mut || cla_layers(seed, scale)),
        ("algos", &mut || algo_layers(seed, scale)),
    ];
    for (what, section) in sections {
        let t0 = Instant::now();
        rows.extend(section());
        if scale == Scale::Full {
            eprintln!("layer suite: {what} took {:.1} s", t0.elapsed().as_secs_f64());
        }
    }
    rows
}

/// Orders rows as `spec::PER_LAYER` lists them (rows it does not list are
/// dropped; `--quick` reports a listed row that is absent).
pub fn in_spec_order(rows: Rows) -> Rows {
    crate::spec::PER_LAYER
        .iter()
        .filter_map(|&(name, _, _)| rows.iter().find(|r| r.0 == name).copied())
        .collect()
}
