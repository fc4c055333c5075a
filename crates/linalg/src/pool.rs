//! Pooled buffer allocator — the stand-in for SystemML's buffer pool.
//!
//! SystemML's control program manages intermediates through a buffer pool:
//! operator outputs are acquired from and released back to a managed region,
//! so iterative algorithms reach a steady state with near-zero fresh
//! allocation. This module provides the same behaviour for the dense `f64`
//! buffers that dominate this runtime's allocation volume, and for the
//! `usize` index buffers of CSR sparse outputs.
//!
//! Design:
//!
//! * **Engine-owned.** There is no process-wide pool. Each
//!   `fusedml_runtime::Engine` owns a [`BufferPool`] (behind a
//!   [`PoolHandle`]) sized by its memory budget, so two engines with
//!   different configurations coexist in one process without sharing
//!   retention state. Kernels reach the pool through a *scoped* thread-local
//!   handle ([`enter`]): the executor installs its engine's pool around each
//!   task, and every thread [`crate::par::run_bands`] spawns re-enters the
//!   caller's scope. Outside any scope the free functions degrade
//!   to plain allocation — correct, just unpooled.
//! * **Size-class keyed.** Buffers are binned by the power-of-two class of
//!   their capacity (`⌊log2 cap⌋`, so a class-`k` shelf only holds buffers
//!   with capacity ≥ `2^k`). A request of length `len` drains the
//!   guaranteed-fit class `⌈log2 len⌉` first and then scans the class below
//!   for a large-enough entry. Fresh allocations are exact-size: the pool
//!   never inflates a live buffer beyond its logical length, so physical
//!   memory matches the tracked footprint byte-for-byte.
//! * **Epoch-bounded.** The executor advances the pool epoch after each DAG
//!   execution; buffers that have sat unused for more than
//!   [`BufferPool::MAX_AGE`] epochs are released to the allocator. This
//!   bounds retained memory across workload changes without a background
//!   thread.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buffers below this length are not worth pooling (allocator fast paths
/// beat the pool lock for tiny vectors).
const MIN_POOL_LEN: usize = 64;
/// Default maximum retained buffers per size class.
const DEFAULT_MAX_PER_CLASS: usize = 32;
/// Default maximum total bytes retained by a pool (beyond this, `give`
/// drops).
const DEFAULT_MAX_POOL_BYTES: usize = 1 << 30;

/// A shared, thread-safe handle to an engine-owned buffer pool.
pub type PoolHandle = Arc<BufferPool>;

/// A pooled buffer with the epoch at which it was returned.
struct Shelved<T> {
    buf: Vec<T>,
    epoch: u64,
}

/// Size-class shelves for one element type.
struct Shelves<T> {
    /// `classes[k]` holds buffers with capacity in `[2^k, 2^(k+1))`.
    classes: Vec<Vec<Shelved<T>>>,
}

impl<T> Default for Shelves<T> {
    fn default() -> Self {
        Shelves { classes: Vec::new() }
    }
}

impl<T> Shelves<T> {
    /// The size class a request of `len` draws from: the exponent of the next
    /// power of two ≥ `len`. Buffers shelved under class `k` have capacity
    /// ≥ `2^k`, so any class-`k` request fits.
    fn class_of(len: usize) -> usize {
        len.next_power_of_two().trailing_zeros() as usize
    }

    /// Pops a buffer with capacity ≥ `len`, if one is shelved.
    fn pop(&mut self, len: usize) -> Option<Vec<T>> {
        let cls = Self::class_of(len);
        let mut popped = self.classes.get_mut(cls).and_then(|shelf| shelf.pop());
        if popped.is_none() && cls > 0 {
            if let Some(shelf) = self.classes.get_mut(cls - 1) {
                if let Some(i) = shelf.iter().rposition(|s| s.buf.capacity() >= len) {
                    popped = Some(shelf.swap_remove(i));
                }
            }
        }
        popped.map(|s| s.buf)
    }

    /// Shelves a buffer under the floor-log2 class of its capacity (so a
    /// class-`k` shelf only holds buffers with capacity ≥ `2^k`). Returns
    /// `false` when the class is full.
    fn push(&mut self, buf: Vec<T>, epoch: u64, max_per_class: usize) -> bool {
        let cls = (usize::BITS - 1 - buf.capacity().leading_zeros()) as usize;
        if self.classes.len() <= cls {
            self.classes.resize_with(cls + 1, Vec::new);
        }
        let shelf = &mut self.classes[cls];
        if shelf.len() >= max_per_class {
            return false;
        }
        shelf.push(Shelved { buf, epoch });
        true
    }

    /// Drops buffers older than `cutoff`; returns the freed element count.
    fn retire_older_than(&mut self, cutoff: u64) -> usize {
        let mut freed = 0usize;
        for shelf in self.classes.iter_mut() {
            shelf.retain(|s| {
                if s.epoch < cutoff {
                    freed += s.buf.capacity();
                    false
                } else {
                    true
                }
            });
        }
        freed
    }
}

/// The element types a pool shelves, each on shelves of its own.
trait Pooled: Sized {
    fn shelves(st: &mut PoolState) -> &mut Shelves<Self>;
}

impl Pooled for f64 {
    fn shelves(st: &mut PoolState) -> &mut Shelves<f64> {
        &mut st.values
    }
}

impl Pooled for usize {
    fn shelves(st: &mut PoolState) -> &mut Shelves<usize> {
        &mut st.indices
    }
}

#[derive(Default)]
struct PoolState {
    /// Dense `f64` value buffers.
    values: Shelves<f64>,
    /// CSR `usize` index buffers (column indices / row pointers).
    indices: Shelves<usize>,
    epoch: u64,
    /// Updated under the same lock as the shelves.
    stats: PoolStats,
}

/// The pool's counters (monotonic, but for the retained bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a retired buffer.
    pub hits: u64,
    /// Requests that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
    /// Buffers rejected at return time (too small / class full / over cap).
    pub drops: u64,
    /// Bytes currently shelved in the pool.
    pub retained_bytes: usize,
}

impl PoolStats {
    /// Counts one pooled request: a hit that took a shelved buffer of
    /// `Some(bytes)`, or a miss.
    fn count_take(&mut self, taken: Option<usize>) {
        match taken {
            Some(bytes) => {
                self.hits += 1;
                self.retained_bytes -= bytes;
            }
            None => self.misses += 1,
        }
    }

    /// Counts one returned buffer: shelved with `Some(bytes)`, or dropped.
    fn count_give(&mut self, shelved: Option<usize>) {
        match shelved {
            Some(bytes) => {
                self.returns += 1;
                self.retained_bytes += bytes;
            }
            None => self.drops += 1,
        }
    }

    /// Fraction of requests served from the pool, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-execution tally of pool requests: the scheduler installs one per
/// `execute` call (see [`enter_tallied`]), and every pooled request made
/// inside that scope — including from the band threads
/// [`crate::par::run_bands`] spawns, which re-enter the caller's scope —
/// counts here as well as in the
/// pool's own [`PoolStats`]. This is what makes per-call `SchedSnapshot`
/// pool counts exact under concurrent executions on one engine.
#[derive(Debug, Default)]
pub struct PoolTally {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PoolTally {
    /// Requests served from the pool within this scope.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that fell through to fresh allocation within this scope.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn count(tally: Option<&PoolTally>, hit: bool) {
        if let Some(t) = tally {
            let c = if hit { &t.hits } else { &t.misses };
            c.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What [`BufferPool::take_unzeroed`] hands out: the buffer as it is in
/// release builds, NaN in every slot in debug builds.
fn poisoned(mut buf: Vec<f64>) -> Vec<f64> {
    if cfg!(debug_assertions) {
        buf.fill(f64::NAN);
    }
    buf
}

/// A size-class keyed, epoch-bounded pool of dense `f64` value buffers and
/// CSR `usize` index buffers.
pub struct BufferPool {
    state: Mutex<PoolState>,
    /// Maximum total bytes retained (beyond this, returns drop).
    max_bytes: usize,
    /// Maximum retained buffers per size class.
    max_per_class: usize,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}

impl BufferPool {
    /// Buffers unused for more than this many epochs are released.
    pub const MAX_AGE: u64 = 8;

    /// A pool with the default retention limits (1 GiB, 32 buffers/class).
    pub fn new() -> Self {
        Self::with_limits(DEFAULT_MAX_POOL_BYTES, DEFAULT_MAX_PER_CLASS)
    }

    /// A pool with explicit retention limits: `max_bytes` caps the total
    /// shelved bytes (an engine's memory budget for recycled buffers);
    /// `max_per_class` caps the buffers kept per power-of-two size class.
    pub fn with_limits(max_bytes: usize, max_per_class: usize) -> Self {
        BufferPool {
            state: Mutex::new(PoolState::default()),
            max_bytes,
            max_per_class: max_per_class.max(1),
        }
    }

    /// A shareable handle to a fresh default pool.
    pub fn handle() -> PoolHandle {
        Arc::new(BufferPool::new())
    }

    /// The configured retention cap in bytes.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    #[cfg(test)]
    fn class_of(len: usize) -> usize {
        Shelves::<f64>::class_of(len)
    }

    /// Takes a zeroed buffer of exactly `len` elements, reusing a shelved
    /// buffer when one fits. Fresh allocations are *exact-size* (no
    /// power-of-two slack, so physical memory matches the accounted bytes);
    /// reuse first drains the guaranteed-fit class `⌈log2 len⌉`, then scans
    /// the class below for an entry whose capacity happens to fit (that is
    /// where exact-size non-power-of-two buffers retire to).
    pub fn take_zeroed(&self, len: usize) -> Vec<f64> {
        self.take_zeroed_tallied(len, None)
    }

    fn take_zeroed_tallied(&self, len: usize, tally: Option<&PoolTally>) -> Vec<f64> {
        match self.pop(len, tally) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// A shelved buffer with capacity ≥ `len`, counted as a hit, or `None`
    /// (counted as a miss unless `len` is too small to pool).
    fn pop<T: Pooled>(&self, len: usize, tally: Option<&PoolTally>) -> Option<Vec<T>> {
        if len < MIN_POOL_LEN {
            return None;
        }
        let popped = {
            let mut st = self.state.lock();
            let popped = T::shelves(&mut st).pop(len);
            st.stats.count_take(popped.as_ref().map(|b| b.capacity() * size_of::<T>()));
            popped
        };
        PoolTally::count(tally, popped.is_some());
        popped
    }

    /// Takes a buffer of exactly `len` elements whose contents are
    /// unspecified, for a caller that writes every one of them: a recycled
    /// buffer keeps what it held (it is truncated, or extended by zeros past
    /// its old length, never rewritten), a fresh one is zeroed. Debug builds
    /// fill it with NaN instead, so a slot a caller fails to write shows up
    /// in the differential suites rather than as a stale value.
    pub fn take_unzeroed(&self, len: usize) -> Vec<f64> {
        self.take_unzeroed_tallied(len, None)
    }

    fn take_unzeroed_tallied(&self, len: usize, tally: Option<&PoolTally>) -> Vec<f64> {
        let buf = match self.pop(len, tally) {
            Some(mut buf) => {
                // Only the elements past the buffer's old length are written:
                // the spare capacity of a shelved buffer need not hold
                // initialized values.
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        };
        poisoned(buf)
    }

    /// Returns a value buffer to the pool. Tiny buffers, overfull classes,
    /// and anything beyond the retention cap are dropped instead.
    pub fn give(&self, buf: Vec<f64>) {
        self.shelve(buf);
    }

    fn shelve<T: Pooled>(&self, buf: Vec<T>) {
        if buf.capacity() < MIN_POOL_LEN {
            return;
        }
        let bytes = buf.capacity() * size_of::<T>();
        let mut st = self.state.lock();
        let fits = st.stats.retained_bytes + bytes <= self.max_bytes;
        let epoch = st.epoch;
        let shelved = fits && T::shelves(&mut st).push(buf, epoch, self.max_per_class);
        st.stats.count_give(shelved.then_some(bytes));
    }

    /// Takes an *empty* `f64` buffer with capacity ≥ `cap` for push-based
    /// construction (CSR values). The `f64` twin of
    /// [`BufferPool::take_indices`].
    pub fn take_values(&self, cap: usize) -> Vec<f64> {
        self.take_empty(cap, None)
    }

    fn take_empty<T: Pooled>(&self, cap: usize, tally: Option<&PoolTally>) -> Vec<T> {
        match self.pop(cap, tally) {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Takes an *empty* `usize` buffer with capacity ≥ `cap` for CSR index
    /// construction (column indices, row pointers). The caller pushes into
    /// it; return it with [`BufferPool::give_indices`] when the sparse value
    /// dies.
    pub fn take_indices(&self, cap: usize) -> Vec<usize> {
        self.take_empty(cap, None)
    }

    /// Returns an index buffer to the pool (the `usize` twin of
    /// [`BufferPool::give`]).
    pub fn give_indices(&self, buf: Vec<usize>) {
        self.shelve(buf);
    }

    /// Advances the pool epoch and releases buffers unused for more than
    /// [`BufferPool::MAX_AGE`] epochs. Called by the executor after each DAG.
    pub fn advance_epoch(&self) {
        let mut st = self.state.lock();
        st.epoch += 1;
        let cutoff = st.epoch.saturating_sub(Self::MAX_AGE);
        let freed = st.values.retire_older_than(cutoff) * 8
            + st.indices.retire_older_than(cutoff) * std::mem::size_of::<usize>();
        st.stats.retained_bytes -= freed;
    }

    /// Releases every shelved buffer.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.values.classes.clear();
        st.indices.classes.clear();
        st.stats.retained_bytes = 0;
    }

    /// Snapshot of the pool counters and retained bytes.
    pub fn stats(&self) -> PoolStats {
        self.state.lock().stats
    }
}

// ---------------------------------------------------------------------------
// Scoped thread-local pool: how kernels reach the engine's pool without the
// handle being threaded through every call signature.
// ---------------------------------------------------------------------------

/// One installed scope: the pool plus the per-execution tally (if any)
/// that requests inside the scope should be attributed to. Obtained from
/// [`current_scope`] and re-installed with [`reenter`] — how the threads
/// [`crate::par::run_bands`] spawns inherit the caller's scope, tally
/// included.
#[derive(Clone)]
pub(crate) struct ScopeHandle {
    pool: PoolHandle,
    tally: Option<Arc<PoolTally>>,
}

thread_local! {
    /// The installed scopes, innermost last.
    static CURRENT: RefCell<Vec<ScopeHandle>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an installed pool scope (see [`enter`]). Dropping it
/// uninstalls the pool from the current thread. Guards must drop in LIFO
/// order (the natural lexical-scope usage): an out-of-order drop would route
/// requests to the wrong engine's pool, and a debug assertion catches it.
pub struct PoolScope {
    /// Stack depth right after this scope was pushed (the LIFO check).
    depth: usize,
    /// The scope lives on this thread's stack: the guard stays here too.
    _not_send: std::marker::PhantomData<*const ()>,
}

fn push_scope(scope: ScopeHandle) -> PoolScope {
    let depth = CURRENT.with(|c| {
        let mut st = c.borrow_mut();
        st.push(scope);
        st.len()
    });
    PoolScope { depth, _not_send: std::marker::PhantomData }
}

impl Drop for PoolScope {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            let mut st = c.borrow_mut();
            debug_assert_eq!(
                st.len(),
                self.depth,
                "scopes must drop in LIFO order (a later scope is still alive)"
            );
            st.pop();
        });
    }
}

/// Installs `pool` as the current thread's buffer pool until the returned
/// guard drops. Nested scopes stack; the innermost wins. The executor enters
/// a scope around each task, and every thread [`crate::par::run_bands`]
/// spawns re-enters the caller's scope, so kernels can keep calling the free
/// functions ([`take_zeroed`], [`give`], …) with no handle threading.
pub fn enter(pool: &PoolHandle) -> PoolScope {
    push_scope(ScopeHandle { pool: Arc::clone(pool), tally: None })
}

/// Like [`enter`], additionally attributing every pooled request in the
/// scope to `tally` — the scheduler installs one tally per `execute` call,
/// so per-call pool deltas stay exact under concurrent executions.
pub fn enter_tallied(pool: &PoolHandle, tally: &Arc<PoolTally>) -> PoolScope {
    push_scope(ScopeHandle { pool: Arc::clone(pool), tally: Some(Arc::clone(tally)) })
}

/// Re-installs a scope captured with [`current_scope`] (tally included).
pub(crate) fn reenter(scope: &ScopeHandle) -> PoolScope {
    push_scope(scope.clone())
}

/// The innermost scope installed on the current thread, if any.
pub(crate) fn current_scope() -> Option<ScopeHandle> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// The pool installed on the current thread, if any.
pub fn current() -> Option<PoolHandle> {
    current_scope().map(|s| s.pool)
}

/// Takes a zeroed buffer of `len` elements from the current scope's pool
/// (plain allocation outside any scope).
pub fn take_zeroed(len: usize) -> Vec<f64> {
    match current_scope() {
        Some(s) => s.pool.take_zeroed_tallied(len, s.tally.as_deref()),
        None => vec![0.0; len],
    }
}

/// Takes a buffer of `len` elements with unspecified contents from the
/// current scope's pool, for a caller that writes every slot (see
/// [`BufferPool::take_unzeroed`]; NaN-filled in debug builds, in or out of a
/// scope).
pub fn take_unzeroed(len: usize) -> Vec<f64> {
    match current_scope() {
        Some(s) => s.pool.take_unzeroed_tallied(len, s.tally.as_deref()),
        None => poisoned(vec![0.0; len]),
    }
}

/// Returns a value buffer to the current scope's pool (dropped outside any
/// scope).
pub fn give(buf: Vec<f64>) {
    if let Some(p) = current() {
        p.give(buf);
    }
}

/// Takes an empty `f64` value buffer with capacity ≥ `cap` from the current
/// scope's pool.
pub fn take_values(cap: usize) -> Vec<f64> {
    match current_scope() {
        Some(s) => s.pool.take_empty(cap, s.tally.as_deref()),
        None => Vec::with_capacity(cap),
    }
}

/// Takes an empty `usize` index buffer with capacity ≥ `cap` from the
/// current scope's pool.
pub fn take_indices(cap: usize) -> Vec<usize> {
    match current_scope() {
        Some(s) => s.pool.take_empty(cap, s.tally.as_deref()),
        None => Vec::with_capacity(cap),
    }
}

/// Returns a `usize` index buffer to the current scope's pool.
pub fn give_indices(buf: Vec<usize>) {
    if let Some(p) = current() {
        p.give_indices(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping_round_trips() {
        assert_eq!(BufferPool::class_of(1), 0);
        assert_eq!(BufferPool::class_of(64), 6);
        assert_eq!(BufferPool::class_of(65), 7);
        assert_eq!(BufferPool::class_of(300), 9); // next pow2 = 512
    }

    #[test]
    fn take_give_take_hits() {
        let p = BufferPool::new();
        let a = p.take_zeroed(300);
        assert_eq!(a.len(), 300);
        assert!(a.capacity() < 512, "fresh allocations are exact-size");
        p.give(a);
        let b = p.take_zeroed(300);
        assert_eq!(b.len(), 300);
        let s = p.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn smaller_request_reuses_neighbor_class() {
        let p = BufferPool::new();
        p.give(p.take_zeroed(400)); // capacity ~400 retires to class 8
        let b = p.take_zeroed(350); // class 9 is empty; class-8 scan fits
        assert_eq!(b.len(), 350);
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn too_small_neighbor_is_not_reused() {
        let p = BufferPool::new();
        p.give(p.take_zeroed(300)); // class 8, capacity ~300
        let b = p.take_zeroed(500); // needs ≥ 500: class-8 entry must not serve
        assert_eq!(b.len(), 500);
        assert_eq!(p.stats().hits, 0);
        assert_eq!(p.stats().misses, 2);
    }

    #[test]
    fn reused_buffers_are_zeroed() {
        let p = BufferPool::new();
        let mut a = p.take_zeroed(128);
        a.iter_mut().for_each(|v| *v = 7.0);
        p.give(a);
        let b = p.take_zeroed(100);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn unzeroed_buffers_are_reused_unwritten_and_poisoned_in_debug() {
        let p = BufferPool::new();
        let mut a = p.take_unzeroed(300);
        assert_eq!(a.len(), 300);
        a.iter_mut().for_each(|v| *v = 7.0);
        let ptr = a.as_ptr();
        p.give(a);
        // A shorter request is a truncation of the same buffer, a longer one
        // (still within its capacity) extends it.
        for len in [200, 300] {
            let b = p.take_unzeroed(len);
            assert_eq!((b.len(), b.as_ptr()), (len, ptr), "the shelved buffer is reused");
            if cfg!(debug_assertions) {
                assert!(b.iter().all(|v| v.is_nan()), "debug builds poison every slot");
            } else {
                assert!(b[..200].iter().all(|&v| v == 7.0), "release builds write nothing");
            }
            p.give(b);
        }
        assert_eq!((p.stats().hits, p.stats().misses), (2, 1));
        // A zeroed take of the same buffer is zeroed whatever it held.
        assert!(p.take_zeroed(300).iter().all(|&v| v == 0.0));
        // Tiny and unscoped requests: poisoned the same way, never pooled.
        let tiny = p.take_unzeroed(8);
        assert_eq!(tiny.len(), 8);
        assert_eq!(tiny.iter().all(|v| v.is_nan()), cfg!(debug_assertions));
        assert_eq!(take_unzeroed(100).iter().all(|v| v.is_nan()), cfg!(debug_assertions));
    }

    #[test]
    fn tiny_buffers_bypass_pool() {
        let p = BufferPool::new();
        let a = p.take_zeroed(8);
        p.give(a);
        let s = p.stats();
        assert_eq!(s.hits + s.misses, 0);
        assert_eq!(s.returns, 0);
    }

    #[test]
    fn epoch_bound_releases_stale_buffers() {
        let p = BufferPool::new();
        p.give(p.take_zeroed(1024));
        p.give_indices({
            let mut v = Vec::with_capacity(256);
            v.push(1usize);
            v
        });
        assert!(p.stats().retained_bytes >= 1024 * 8);
        for _ in 0..=BufferPool::MAX_AGE {
            p.advance_epoch();
        }
        assert_eq!(p.stats().retained_bytes, 0);
    }

    #[test]
    fn class_capacity_is_bounded() {
        let p = BufferPool::new();
        for _ in 0..64 {
            // Fresh buffers (not from take) so returns exceed the cap.
            let mut b = Vec::with_capacity(256);
            b.resize(256, 0.0);
            p.give(b);
        }
        let s = p.stats();
        assert!(s.drops > 0);
        assert!(s.retained_bytes <= 32 * 256 * 8);
    }

    #[test]
    fn byte_budget_is_respected() {
        let p = BufferPool::with_limits(4096, 32);
        p.give(p.take_zeroed(256)); // 2 KiB: fits
        p.give(p.take_zeroed(512)); // would exceed 4 KiB: dropped
        let s = p.stats();
        assert_eq!(s.returns, 1);
        assert_eq!(s.drops, 1);
        assert!(s.retained_bytes <= 4096);
    }

    #[test]
    fn index_buffers_recycle() {
        let p = BufferPool::new();
        let mut a = p.take_indices(300);
        a.extend(0..300usize);
        p.give_indices(a);
        let b = p.take_indices(280);
        assert!(b.is_empty(), "reused index buffers come back cleared");
        assert!(b.capacity() >= 280);
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn scoped_pool_routes_free_functions() {
        let pool = BufferPool::handle();
        {
            let _g = enter(&pool);
            let b = take_zeroed(128);
            give(b);
            let b2 = take_zeroed(128);
            assert_eq!(b2.len(), 128);
        }
        let s = pool.stats();
        assert_eq!(s.hits, 1, "second take inside the scope reuses the first");
        // Outside any scope the free functions degrade to plain allocation.
        assert!(current().is_none());
        give(take_zeroed(128));
        assert_eq!(pool.stats().hits, 1, "unscoped traffic never touches the pool");
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let outer = BufferPool::handle();
        let inner = BufferPool::handle();
        let _a = enter(&outer);
        {
            let _b = enter(&inner);
            give(take_zeroed(256));
        }
        assert_eq!(inner.stats().misses, 1);
        assert_eq!(outer.stats().misses, 0);
        give(take_zeroed(256));
        assert_eq!(outer.stats().misses, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "LIFO order")]
    fn out_of_order_drop_is_caught() {
        let (outer, inner) = (BufferPool::handle(), BufferPool::handle());
        let a = enter(&outer);
        let _b = enter(&inner);
        drop(a); // drops out of order: the debug assertion must fire
    }
}
