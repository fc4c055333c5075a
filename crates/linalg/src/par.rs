//! Minimal scoped-thread parallelization helpers.
//!
//! The fused-operator skeletons and the large dense kernels parallelize over
//! row ranges. We deliberately avoid a work-stealing runtime: static row
//! partitioning matches SystemML's executor model and keeps the
//! time-measurement behaviour of the benchmarks deterministic.
//!
//! Every helper propagates the caller's scoped buffer pool
//! ([`crate::pool::current`]) into its band threads, so kernels that draw
//! per-band scratch from the pool keep hitting the engine's pool when they
//! run under internal parallelism.

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
/// the returned guard drops (0 removes the cap). Band threads spawned by the
/// helpers below do not inherit the cap — they only run leaf work and never
/// re-split — so the cap bounds fan-out where it matters: at the split point.
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

/// Splits `0..n` into at most [`num_threads`] contiguous ranges and runs `f`
/// on each range in parallel. `f(lo, hi)` must handle the half-open range
/// `[lo, hi)`. Falls back to a single inline call for small `n`.
pub fn par_range<F>(n: usize, work_per_item: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let k = num_threads();
    if k <= 1 || n * work_per_item.max(1) < PAR_THRESHOLD || n < 2 {
        f(0, n);
        return;
    }
    let k = k.min(n);
    let chunk = n.div_ceil(k);
    let cur = pool::current_scope();
    std::thread::scope(|s| {
        for t in 0..k {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let fref = &f;
            let cur = &cur;
            s.spawn(move || {
                let _pool = cur.as_ref().map(pool::reenter);
                fref(lo, hi)
            });
        }
    });
}

/// Parallel map-reduce over `0..n`: each thread folds its range with `map`
/// starting from `identity`, then the per-thread results are combined with
/// `reduce` on the calling thread.
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
    let k = k.min(n);
    let chunk = n.div_ceil(k);
    let cur = pool::current_scope();
    let mut results: Vec<Option<T>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(k);
        for t in 0..k {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let mref = &map;
            let cur = &cur;
            handles.push(s.spawn(move || {
                let _pool = cur.as_ref().map(pool::reenter);
                mref(lo, hi)
            }));
        }
        for h in handles {
            results.push(Some(h.join().expect("worker thread panicked")));
        }
    });
    let mut acc = identity;
    for r in results.iter_mut() {
        acc = reduce(acc, r.take().expect("result present"));
    }
    acc
}

/// Splits a mutable slice into per-thread row bands and runs `f` on each band
/// in parallel. `rows * row_len` must equal `data.len()`; with `row_len` = 0
/// there is nothing to write and `f` is not called.
pub fn par_rows_mut<F>(data: &mut [f64], rows: usize, row_len: usize, work_per_row: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    assert_eq!(data.len(), rows * row_len, "slice/row geometry mismatch");
    if row_len == 0 {
        return;
    }
    let k = num_threads();
    if k <= 1 || rows * work_per_row.max(1) < PAR_THRESHOLD || rows < 2 {
        for (r, row) in data.chunks_exact_mut(row_len).enumerate() {
            f(r, row);
        }
        return;
    }
    let k = k.min(rows);
    let band = rows.div_ceil(k);
    let cur = pool::current_scope();
    std::thread::scope(|s| {
        for (t, chunk) in data.chunks_mut(band * row_len).enumerate() {
            let fref = &f;
            let cur = &cur;
            s.spawn(move || {
                let _pool = cur.as_ref().map(pool::reenter);
                for (i, row) in chunk.chunks_exact_mut(row_len).enumerate() {
                    fref(t * band + i, row);
                }
            });
        }
    });
}

/// Splits a mutable slice into per-thread row bands and runs `f` once per
/// band with `(first_row, band)` — unlike [`par_rows_mut`], workers see their
/// whole contiguous band, so per-thread state (scratch buffers, evaluator
/// register files) can be set up once per band instead of once per row. With
/// `row_len` = 0 there is nothing to write and `f` is not called.
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
    let k = k.min(rows);
    let band = rows.div_ceil(k);
    let cur = pool::current_scope();
    std::thread::scope(|s| {
        for (t, chunk) in data.chunks_mut(band * row_len).enumerate() {
            let fref = &f;
            let cur = &cur;
            s.spawn(move || {
                let _pool = cur.as_ref().map(pool::reenter);
                fref(t * band, chunk)
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_range_covers_all_indices() {
        let n = 100_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_range(n, 1, |lo, hi| {
            for h in &hits[lo..hi] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
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
