//! Scoped-thread parallelization: the engine's one spawn site.
//!
//! The fused-operator skeletons and the large dense kernels parallelize over
//! row ranges. We deliberately avoid a work-stealing runtime: static row
//! partitioning matches SystemML's executor model and keeps the
//! time-measurement behaviour of the benchmarks deterministic.
//!
//! [`run_bands`] is the only place the engine starts threads. It runs the
//! first item on the calling thread and every other item on a scoped thread
//! that re-enters the caller's buffer-pool scope ([`crate::pool::current`],
//! tally included), so kernels that draw per-band scratch from the pool keep
//! hitting the engine's pool under internal parallelism. The row-band helpers
//! below cut `0..n` into at most [`num_threads`] contiguous bands and fan out
//! through it; the runtime's shard bands and scheduler workers call it
//! directly, each under its own thread-count limit.

use crate::pool;
use std::sync::atomic::{AtomicUsize, Ordering};

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override of the parallelism degree (0 = defer to the
    /// global setting). Shard bands cap their internal band parallelism
    /// with this so `shards × shard_threads` threads never oversubscribe
    /// the machine, without perturbing the process-wide configuration.
    static THREAD_NUM_THREADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Returns the configured degree of parallelism: the calling thread's
/// [`limit_current_thread`] override if set, else the global
/// [`set_num_threads`] value, else the number of hardware threads.
pub fn num_threads() -> usize {
    let t = THREAD_NUM_THREADS.with(|c| c.get());
    if t != 0 {
        return t;
    }
    let n = NUM_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Restores the previous per-thread parallelism limit on drop.
pub struct ThreadLimitGuard {
    prev: usize,
}

impl Drop for ThreadLimitGuard {
    fn drop(&mut self) {
        THREAD_NUM_THREADS.with(|c| c.set(self.prev));
    }
}

/// Caps the parallelism seen by kernels on the *calling thread only* until
/// the returned guard drops (0 removes the cap). The items [`run_bands`] fans
/// out do not inherit the cap: they see the process-wide count unless they
/// set a cap of their own (a shard band does), so the cap bounds fan-out at
/// the split point it is set around.
pub fn limit_current_thread(n: usize) -> ThreadLimitGuard {
    let prev = THREAD_NUM_THREADS.with(|c| c.replace(n));
    ThreadLimitGuard { prev }
}

/// Overrides the degree of parallelism used by all parallel kernels
/// (0 restores the hardware default). Used by benchmarks to pin thread counts.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// Minimum number of "work items" per thread before we bother spawning.
pub const PAR_THRESHOLD: usize = 4096;

/// Runs `f` on every item and returns the results in item order: the first
/// item on the calling thread, every other one on a scoped thread of its own
/// that re-enters the caller's pool scope (tally included). This is the
/// engine's one spawn site: `par`'s band helpers, the shard bands and the
/// scheduler's workers all fan out through it, so the caller always works
/// instead of waiting.
///
/// A spawned thread starts with no [`limit_current_thread`] cap, so when
/// there is more than one item the first runs with the caller's cap lifted
/// too: every item sees the same thread count, whichever thread runs it. A
/// single item runs inline, cap and all. A panic in any item reaches the
/// caller with its own payload once every thread has finished.
pub fn run_bands<I, T, F>(items: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let mut items = items.into_iter();
    let Some(first) = items.next() else { return Vec::new() };
    let Some(second) = items.next() else { return vec![f(first)] };
    let scope = pool::current_scope();
    std::thread::scope(|s| {
        let spawned: Vec<_> = std::iter::once(second)
            .chain(items)
            .map(|item| {
                let (f, scope) = (&f, &scope);
                s.spawn(move || {
                    let _pool = scope.as_ref().map(pool::reenter);
                    f(item)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(spawned.len() + 1);
        out.push({
            let _uncapped = limit_current_thread(0);
            f(first)
        });
        for h in spawned {
            out.push(h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        out
    })
}

/// Parallel map-reduce over `0..n`: each band folds its range with `map`,
/// then the per-band results are combined in band order with `reduce`,
/// starting from `identity`, on the calling thread. Falls back to a single
/// inline call for small `n`.
pub fn par_map_reduce<T, M, R>(n: usize, work_per_item: usize, identity: T, map: M, reduce: R) -> T
where
    T: Send,
    M: Fn(usize, usize) -> T + Sync,
    R: Fn(T, T) -> T,
{
    let k = num_threads();
    if k <= 1 || n * work_per_item.max(1) < PAR_THRESHOLD || n < 2 {
        return reduce(identity, map(0, n));
    }
    let chunk = n.div_ceil(k.min(n));
    let bands = (0..n).step_by(chunk).map(|lo| (lo, (lo + chunk).min(n)));
    run_bands(bands, |(lo, hi)| map(lo, hi)).into_iter().fold(identity, reduce)
}

/// Splits a mutable slice into per-thread row bands and runs `f` once per
/// row with `(row, row_slice)`: [`par_row_bands_mut`] with a per-row loop in
/// each band. With `row_len` = 0 there is nothing to write and `f` is not
/// called.
pub fn par_rows_mut<F>(data: &mut [f64], rows: usize, row_len: usize, work_per_row: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    par_row_bands_mut(data, rows, row_len, work_per_row, |r0, band| {
        for (i, row) in band.chunks_exact_mut(row_len).enumerate() {
            f(r0 + i, row);
        }
    });
}

/// Splits a mutable slice into per-thread row bands and runs `f` once per
/// band with `(first_row, band)` — unlike [`par_rows_mut`], workers see their
/// whole contiguous band, so per-thread state (scratch buffers, evaluator
/// register files) can be set up once per band instead of once per row.
/// `rows * row_len` must equal `data.len()`; with `row_len` = 0 there is
/// nothing to write and `f` is not called.
pub fn par_row_bands_mut<F>(
    data: &mut [f64],
    rows: usize,
    row_len: usize,
    work_per_row: usize,
    f: F,
) where
    F: Fn(usize, &mut [f64]) + Sync,
{
    assert_eq!(data.len(), rows * row_len, "slice/row geometry mismatch");
    if row_len == 0 {
        return;
    }
    let k = num_threads();
    if k <= 1 || rows * work_per_row.max(1) < PAR_THRESHOLD || rows < 2 {
        f(0, data);
        return;
    }
    let band = rows.div_ceil(k.min(rows));
    run_bands(data.chunks_mut(band * row_len).enumerate(), |(t, chunk)| f(t * band, chunk));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first item runs on the calling thread, the others on threads of
    /// their own, and the results come back in item order.
    #[test]
    fn run_bands_runs_the_first_item_on_the_caller() {
        let ids = run_bands(0..4, |i| (i, std::thread::current().id()));
        assert_eq!(ids.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(ids[0].1, std::thread::current().id());
        let distinct: std::collections::HashSet<_> = ids.iter().map(|&(_, id)| id).collect();
        assert_eq!(distinct.len(), 4, "k items run on k distinct threads");
    }

    /// Every item sees the same thread count: the caller's cap is lifted
    /// for the first item, as a spawned thread never had it.
    #[test]
    fn run_bands_items_see_one_thread_count() {
        let _one = limit_current_thread(1);
        let seen = run_bands(0..2, |_| num_threads());
        assert_eq!(seen[0], seen[1]);
        assert_eq!(run_bands(0..1, |_| num_threads()), [1], "one item runs inline, cap and all");
        assert_eq!(num_threads(), 1, "the caller's cap is back");
    }

    /// A panic in a spawned band reaches the caller with its own payload.
    #[test]
    fn a_band_panic_reaches_the_caller_with_its_message() {
        let _two = limit_current_thread(2);
        let caught = std::panic::catch_unwind(|| {
            par_map_reduce(
                100_000,
                1,
                0usize,
                |lo, hi| {
                    assert!(lo == 0, "band at row {lo} failed");
                    hi - lo
                },
                |a, b| a + b,
            )
        });
        let payload = caught.expect_err("the second band panics");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("band at row 50000 failed"));
    }

    #[test]
    fn par_map_reduce_sums() {
        let n = 1_000_000usize;
        let s = par_map_reduce(n, 1, 0u64, |lo, hi| (lo..hi).map(|i| i as u64).sum(), |a, b| a + b);
        assert_eq!(s, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn par_rows_mut_writes_each_row_once() {
        let rows = 1000;
        let cols = 8;
        let mut data = vec![0.0; rows * cols];
        par_rows_mut(&mut data, rows, cols, cols, |r, row| {
            for v in row.iter_mut() {
                *v += r as f64;
            }
        });
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(data[r * cols + c], r as f64);
            }
        }
    }

    #[test]
    fn par_row_bands_cover_all_rows_once() {
        let rows = 3000;
        let cols = 4;
        let mut data = vec![0.0; rows * cols];
        par_row_bands_mut(&mut data, rows, cols, cols, |r0, band| {
            for (i, row) in band.chunks_exact_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (r0 + i) as f64;
                }
            }
        });
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(data[r * cols + c], r as f64);
            }
        }
    }

    /// Zero-width rows hold nothing to write, on the split path as well.
    #[test]
    fn zero_width_rows_are_nothing_to_write() {
        let _two = limit_current_thread(2);
        let (calls, rows) = (AtomicUsize::new(0), 100_000);
        par_rows_mut(&mut [], rows, 0, 100, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        par_row_bands_mut(&mut [], rows, 0, 100, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn set_num_threads_roundtrip() {
        set_num_threads(2);
        assert_eq!(num_threads(), 2);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn thread_limit_overrides_and_restores() {
        let base = num_threads();
        {
            let _g = limit_current_thread(1);
            assert_eq!(num_threads(), 1);
            {
                let _inner = limit_current_thread(3);
                assert_eq!(num_threads(), 3);
            }
            assert_eq!(num_threads(), 1, "inner guard restores outer cap");
        }
        assert_eq!(num_threads(), base, "guard restores prior state");
        // The cap is thread-local: a fresh thread sees the global default.
        let seen = std::thread::scope(|s| {
            let _g = limit_current_thread(1);
            s.spawn(num_threads).join().expect("thread ok")
        });
        assert_eq!(seen, base);
    }
}
