#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! No wakeup is lost. The scheduler notifies its condvar only when some
//! worker waits on it, by a waiter count kept under the scheduler lock; a
//! worker that counted itself in and then missed its wakeup would hang the
//! run. Wide DAGs run many times on two and four workers under a memory
//! budget far below their working set, so workers gather values other
//! workers are evicting or reloading (`Loading` / `Evicting`) and wait on
//! the condvar, and idle workers wait for tasks. A watchdog turns a hang
//! into a failure, and every run must equal the unbounded one-worker run
//! bitwise.

mod common;

use common::assert_roots_bitwise;
use fusedml_hop::interp::{bind, Bindings};
use fusedml_hop::{DagBuilder, HopDag};
use fusedml_linalg::{generate, par};
use fusedml_runtime::{Engine, FusionMode};
use std::sync::mpsc;
use std::time::Duration;

/// 64×40 doubles: 20 KB a value, above the smallest value the scheduler
/// spills.
const ROWS: usize = 64;
const COLS: usize = 40;
const VALUE_BYTES: usize = ROWS * COLS * 8;

/// Runs per worker count and fusion mode.
const RUNS: usize = 60;

/// Every run together takes about a second in release; a lost wakeup blocks
/// forever.
const WATCHDOG: Duration = Duration::from_secs(300);

/// `width` branches `a_i = X·c_i`, each read by its own and its neighbour's
/// `b_i = a_i + a_{i+1}` and again, two levels later, by `e_i = b_i·Y − a_i`:
/// every `a_i` stays live across levels, so a small budget evicts it and a
/// later gather faults it back, while wide levels keep several workers busy.
fn wide_dag(width: usize) -> (HopDag, Bindings) {
    let mut b = DagBuilder::new();
    let x = b.read("X", ROWS, COLS, 1.0);
    let y = b.read("Y", ROWS, COLS, 1.0);
    let a: Vec<_> = (0..width)
        .map(|i| {
            let c = b.lit(1.0 + i as f64 / 8.0);
            b.mult(x, c)
        })
        .collect();
    let mut roots = Vec::new();
    for i in 0..width {
        let bi = b.add(a[i], a[(i + 1) % width]);
        let d = b.mult(bi, y);
        let e = b.sub(d, a[i]);
        roots.push(b.sum(e));
        roots.push(b.row_sums(bi));
    }
    let dag = b.build(roots);
    let bindings = bind(&[
        ("X", generate::rand_dense(ROWS, COLS, 0.5, 1.5, 1)),
        ("Y", generate::rand_dense(ROWS, COLS, 0.5, 1.5, 2)),
    ]);
    (dag, bindings)
}

#[test]
fn budgeted_wide_runs_lose_no_wakeup() {
    // Two and four workers even on one core: the worker count is capped by
    // the kernel thread count, which defaults to the cores the process has.
    par::set_num_threads(4);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut spilled = 0;
        for mode in [FusionMode::Base, FusionMode::Gen] {
            for width in [4, 8] {
                let (dag, bindings) = wide_dag(width);
                let expect = Engine::builder(mode).workers(1).build().execute(&dag, &bindings);
                for workers in [2, 4] {
                    let engine = Engine::builder(mode)
                        .memory_budget(3 * VALUE_BYTES)
                        .workers(workers)
                        .build();
                    let script = engine.compile(&dag);
                    for run in 0..RUNS {
                        let got = script.execute(&bindings);
                        let what = format!("{mode:?} width {width} workers {workers} run {run}");
                        assert_roots_bitwise(got.values(), expect.values(), &what);
                    }
                    spilled += engine.stats().scheduler_snapshot().spilled_bytes;
                }
            }
        }
        tx.send(spilled).unwrap();
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(spilled) => assert!(spilled > 0, "the budget must force evictions"),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("the budgeted runs did not finish in {WATCHDOG:?}: a lost wakeup")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the runs failed (see above)"),
    }
}
