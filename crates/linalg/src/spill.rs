//! The spill tier: engine-owned temp-file storage for cold live values.
//!
//! The buffer pool ([`crate::pool`]) recycles *free* buffers; this module
//! adds the second tier that lets an engine's memory budget bound its
//! *live* values too. A [`TieredStore`] pairs the engine's
//! `BufferPool` with a spill directory: when the executor's resident bytes
//! would exceed the budget, it serializes cold slots (dense and CSR) to
//! engine-owned temp files through [`TieredStore::spill`] and faults them
//! back in with [`TieredStore::reload`]. SystemML's buffer pool does the
//! same on the JVM (evict-to-local-FS under memory pressure); here the
//! executor picks victims from its liveness facts (farthest next use first)
//! and the store only does the byte movement.
//!
//! Serialization is **bit-exact**: `f64` payloads round-trip through
//! little-endian byte encoding, so an execution that spills is bitwise
//! identical to one that never does — the property the
//! `spill_vs_resident_property` differential test pins.

// Spill I/O runs on scheduler workers; a stray unwrap here turns a
// recoverable disk hiccup into a worker death. The workspace bans
// `unwrap`/`expect` via `clippy.toml` (disallowed-methods); this module opts
// into enforcement at deny level.
#![deny(clippy::disallowed_methods)]

use crate::dense::DenseMatrix;
use crate::fault::{FaultPlan, FaultSite};
use crate::matrix::Matrix;
use crate::pool::PoolHandle;
use crate::sparse::SparseMatrix;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Values below this in-memory size are never worth spilling: a file
/// round-trip costs more than the bytes they would free.
pub const MIN_SPILL_BYTES: usize = 4096;

/// File-format header: `[tag][rows][cols]` as `u64`s (sparse adds `[nnz]`).
const DENSE_TAG: u64 = 1;
const SPARSE_TAG: u64 = 2;
const HEADER_BYTES: usize = 3 * 8;

/// The exact on-disk byte count of a spilled matrix.
pub fn serialized_bytes(m: &Matrix) -> usize {
    match m {
        Matrix::Dense(d) => HEADER_BYTES + 8 * d.len(),
        Matrix::Sparse(s) => HEADER_BYTES + 8 + 8 * (s.rows() + 1) + 16 * s.nnz(),
    }
}

/// A receipt for one spilled value: where it lives on disk and what it will
/// cost to bring back. The executor stores this in the slot the value left.
#[derive(Debug)]
pub struct SpillToken {
    path: PathBuf,
    /// The store-wide file sequence number (keys the live-file registry the
    /// orphan sweep consults).
    seq: u64,
    /// In-memory size of the value (what reloading adds to the resident set).
    mem_bytes: usize,
    /// On-disk size (what the write/read actually moved).
    file_bytes: usize,
}

impl SpillToken {
    /// In-memory bytes the reloaded value will occupy.
    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes
    }

    /// Serialized on-disk bytes.
    pub fn file_bytes(&self) -> usize {
        self.file_bytes
    }
}

/// Monotonic counters for the spill tier (engine-wide, across runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Values written to the spill tier.
    pub spill_events: u64,
    /// Values read back from the spill tier.
    pub reload_events: u64,
    /// Serialized bytes written.
    pub bytes_spilled: u64,
    /// Serialized bytes read back.
    pub bytes_reloaded: u64,
    /// Spilled values discarded unread (failed runs sweep their tokens).
    pub discard_events: u64,
    /// Files deleted by [`TieredStore::sweep_orphans`] (present on disk but
    /// not owned by any outstanding token).
    pub orphans_swept: u64,
}

/// The spill files a store owns and its counters, under one lock.
#[derive(Default)]
struct Registry {
    /// Sequence numbers of files owned by an outstanding [`SpillToken`].
    /// A file in the spill dir whose sequence is *not* here is an orphan
    /// (its run failed before discarding it) and is fair game for
    /// [`TieredStore::sweep_orphans`].
    live: HashSet<u64>,
    stats: SpillStats,
}

/// Process-global sequence so two engines (or two test runs in one process)
/// never collide on a spill directory name.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// The two-tier store an engine owns: the recycled-buffer pool plus a
/// budgeted spill tier of temp files. `threshold` is the resident-bytes
/// budget the executor enforces ([`usize::MAX`] disables spilling — the
/// pre-spill behaviour). The spill directory is created lazily on first
/// spill and removed (with any remaining files) when the store drops.
pub struct TieredStore {
    pool: PoolHandle,
    threshold: usize,
    parent: PathBuf,
    dir: Mutex<Option<PathBuf>>,
    file_seq: AtomicU64,
    registry: Mutex<Registry>,
    /// Optional chaos harness: injects `io::Error`s at the
    /// [`FaultSite::SpillWrite`]/[`FaultSite::SpillRead`] sites.
    faults: Option<Arc<FaultPlan>>,
}

impl TieredStore {
    /// A store over `pool` with resident budget `threshold`, spilling under
    /// `dir` (defaults to the OS temp directory).
    pub fn new(pool: PoolHandle, threshold: usize, dir: Option<PathBuf>) -> Self {
        TieredStore {
            pool,
            threshold,
            parent: dir.unwrap_or_else(std::env::temp_dir),
            dir: Mutex::new(None),
            file_seq: AtomicU64::new(0),
            registry: Mutex::new(Registry::default()),
            faults: None,
        }
    }

    /// Attaches a fault plan: spill writes and reads consult it and fail
    /// with an injected `io::Error` when it fires (before touching disk, so
    /// injected failures never leave partial files behind).
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    fn injected(&self, site: FaultSite) -> bool {
        self.faults.as_ref().is_some_and(|f| f.should_inject(site))
    }

    /// The resident-bytes budget ([`usize::MAX`] = spilling disabled).
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Whether the executor should enforce the budget at all.
    pub fn enabled(&self) -> bool {
        self.threshold != usize::MAX
    }

    /// The recycled-buffer tier.
    pub fn pool(&self) -> &PoolHandle {
        &self.pool
    }

    /// The spill directory, if anything has spilled yet.
    pub fn spill_dir(&self) -> Option<PathBuf> {
        self.dir.lock().clone()
    }

    /// Snapshot of the spill counters.
    pub fn stats(&self) -> SpillStats {
        self.registry.lock().stats
    }

    fn ensure_dir(&self) -> io::Result<PathBuf> {
        let mut guard = self.dir.lock();
        if let Some(d) = guard.as_ref() {
            return Ok(d.clone());
        }
        let name = format!(
            "fusedml-spill-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let d = self.parent.join(name);
        fs::create_dir_all(&d)?;
        *guard = Some(d.clone());
        Ok(d)
    }

    /// Serializes `m` to a fresh temp file and returns the receipt. The
    /// caller drops its reference afterwards — that is what actually frees
    /// the memory (the executor only spills uniquely held values).
    ///
    /// A failed write (real or injected) never leaves a partial file behind:
    /// the path is removed best-effort before the error propagates, so the
    /// only cleanup a failed run owes is discarding the tokens it *did* get.
    pub fn spill(&self, m: &Matrix) -> io::Result<SpillToken> {
        if self.injected(FaultSite::SpillWrite) {
            return Err(io::Error::other("injected spill-write fault"));
        }
        let dir = self.ensure_dir()?;
        let seq = self.file_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("slot-{seq}.bin"));
        // Register before creating the file so a concurrent orphan sweep
        // never deletes a file that is still being written.
        self.registry.lock().live.insert(seq);
        let file_bytes = match write_matrix(&path, m) {
            Ok(n) => n,
            Err(e) => {
                self.registry.lock().live.remove(&seq);
                let _ = fs::remove_file(&path);
                return Err(e);
            }
        };
        let mut reg = self.registry.lock();
        reg.stats.spill_events += 1;
        reg.stats.bytes_spilled += file_bytes as u64;
        Ok(SpillToken { path, seq, mem_bytes: m.size_in_bytes(), file_bytes })
    }

    /// Reads a spilled value back (bit-exact) and deletes its file. Buffers
    /// are drawn from the store's pool, so steady-state spill/reload cycles
    /// allocate nothing fresh.
    ///
    /// The token is borrowed, not consumed: on `Err` the file (and the
    /// token's claim on it) survives, so the caller can retry a transient
    /// failure or [`TieredStore::discard`] the token when it gives up.
    pub fn reload(&self, token: &SpillToken) -> io::Result<Matrix> {
        if self.injected(FaultSite::SpillRead) {
            return Err(io::Error::other("injected spill-read fault"));
        }
        let m = read_matrix(&token.path, &self.pool)?;
        {
            let mut reg = self.registry.lock();
            reg.live.remove(&token.seq);
            reg.stats.reload_events += 1;
            reg.stats.bytes_reloaded += token.file_bytes as u64;
        }
        let _ = fs::remove_file(&token.path); // best-effort; Drop sweeps the dir
        Ok(m)
    }

    /// Releases a spilled value without reading it back: deletes the file
    /// and the token's live-registry claim. Failed runs call this for every
    /// token they still hold, so an error leaves no temp files behind.
    pub fn discard(&self, token: &SpillToken) {
        {
            let mut reg = self.registry.lock();
            reg.live.remove(&token.seq);
            reg.stats.discard_events += 1;
        }
        let _ = fs::remove_file(&token.path);
    }

    /// Deletes every file in the spill directory not owned by an outstanding
    /// token and returns how many were removed. Safe under concurrent
    /// executions: in-flight spills register their sequence number *before*
    /// creating the file, so the sweep only ever touches files whose run
    /// lost track of them (e.g. a process that was killed mid-run in a
    /// previous life of the directory).
    pub fn sweep_orphans(&self) -> usize {
        let Some(dir) = self.spill_dir() else { return 0 };
        let Ok(entries) = fs::read_dir(&dir) else { return 0 };
        // Hold the registry lock across the scan so no spill can register
        // between the liveness check and the deletion.
        let mut reg = self.registry.lock();
        let mut swept = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(seq) = name
                .to_str()
                .and_then(|s| s.strip_prefix("slot-"))
                .and_then(|s| s.strip_suffix(".bin"))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            if !reg.live.contains(&seq) && fs::remove_file(entry.path()).is_ok() {
                swept += 1;
            }
        }
        reg.stats.orphans_swept += swept as u64;
        swept
    }

    /// Number of files currently present in the spill directory (0 when the
    /// directory was never created). Test hook for the no-leak invariant.
    pub fn spill_file_count(&self) -> usize {
        self.spill_dir()
            .and_then(|d| fs::read_dir(d).ok())
            .map(|entries| entries.flatten().count())
            .unwrap_or(0)
    }
}

impl Drop for TieredStore {
    fn drop(&mut self) {
        if let Some(d) = self.dir.get_mut().take() {
            let _ = fs::remove_dir_all(d);
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-exact little-endian (de)serialization, chunked through a stack buffer
// so no format-width allocation is needed.
// ---------------------------------------------------------------------------

/// Values per chunk: 64 KB a read or write call. At 8 KB the calls cost
/// a quarter of `repro fig10 --smoke`'s out-of-core leg (143 → 106 ms on a
/// 2-vCPU host spilling to ext4).
const CHUNK: usize = 8 * 1024;

fn write_u64s(w: &mut impl Write, vals: impl Iterator<Item = u64>) -> io::Result<()> {
    let mut buf = [0u8; CHUNK * 8];
    let mut n = 0usize;
    for v in vals {
        buf[n * 8..n * 8 + 8].copy_from_slice(&v.to_le_bytes());
        n += 1;
        if n == CHUNK {
            w.write_all(&buf)?;
            n = 0;
        }
    }
    if n > 0 {
        w.write_all(&buf[..n * 8])?;
    }
    Ok(())
}

fn write_f64s(w: &mut impl Write, vals: &[f64]) -> io::Result<()> {
    write_u64s(w, vals.iter().map(|v| v.to_bits()))
}

fn read_u64s(r: &mut impl Read, n: usize, mut sink: impl FnMut(u64)) -> io::Result<()> {
    let mut buf = [0u8; CHUNK * 8];
    let mut left = n;
    while left > 0 {
        let take = left.min(CHUNK);
        r.read_exact(&mut buf[..take * 8])?;
        for i in 0..take {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[i * 8..i * 8 + 8]);
            sink(u64::from_le_bytes(b));
        }
        left -= take;
    }
    Ok(())
}

/// Writes `m` to `path`; returns the serialized byte count.
fn write_matrix(path: &Path, m: &Matrix) -> io::Result<usize> {
    let mut w = BufWriter::new(File::create(path)?);
    match m {
        Matrix::Dense(d) => {
            write_u64s(&mut w, [DENSE_TAG, d.rows() as u64, d.cols() as u64].into_iter())?;
            write_f64s(&mut w, d.values())?;
        }
        Matrix::Sparse(s) => {
            write_u64s(&mut w, [SPARSE_TAG, s.rows() as u64, s.cols() as u64].into_iter())?;
            write_u64s(&mut w, std::iter::once(s.nnz() as u64))?;
            write_u64s(&mut w, s.row_ptr().iter().map(|&p| p as u64))?;
            write_u64s(&mut w, s.col_indices().iter().map(|&c| c as u64))?;
            write_f64s(&mut w, s.values())?;
        }
    }
    w.flush()?;
    Ok(serialized_bytes(m))
}

/// Reads a matrix written by [`write_matrix`], drawing buffers from `pool`.
fn read_matrix(path: &Path, pool: &PoolHandle) -> io::Result<Matrix> {
    let mut r = BufReader::new(File::open(path)?);
    let mut header = [0u64; 3];
    {
        let mut i = 0;
        read_u64s(&mut r, 3, |v| {
            header[i] = v;
            i += 1;
        })?;
    }
    let (tag, rows, cols) = (header[0], header[1] as usize, header[2] as usize);
    match tag {
        DENSE_TAG => {
            let len = rows * cols;
            // `read_u64s` fills all `len` slots or fails the reload.
            let mut values = pool.take_unzeroed(len);
            {
                let mut i = 0;
                read_u64s(&mut r, len, |v| {
                    values[i] = f64::from_bits(v);
                    i += 1;
                })?;
            }
            Ok(Matrix::dense(DenseMatrix::new(rows, cols, values)))
        }
        SPARSE_TAG => {
            let mut nnz = 0usize;
            read_u64s(&mut r, 1, |v| nnz = v as usize)?;
            let mut row_ptr = pool.take_indices(rows + 1);
            read_u64s(&mut r, rows + 1, |v| row_ptr.push(v as usize))?;
            let mut col_idx = pool.take_indices(nnz);
            read_u64s(&mut r, nnz, |v| col_idx.push(v as usize))?;
            let mut values = pool.take_values(nnz);
            read_u64s(&mut r, nnz, |v| values.push(f64::from_bits(v)))?;
            Ok(Matrix::sparse(SparseMatrix::from_csr(rows, cols, row_ptr, col_idx, values)))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown spill tag {other} in {}", path.display()),
        )),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap freely
mod tests {
    use super::*;
    use crate::pool::BufferPool;

    fn store() -> TieredStore {
        TieredStore::new(BufferPool::handle(), 1 << 20, None)
    }

    #[test]
    fn dense_round_trip_is_bitwise() {
        let s = store();
        let d = DenseMatrix::new(
            7,
            13,
            (0..7 * 13).map(|i| (i as f64).sin() * 1e300 + f64::MIN_POSITIVE).collect(),
        );
        let m = Matrix::dense(d.clone());
        let tok = s.spill(&m).unwrap();
        assert_eq!(tok.mem_bytes(), m.size_in_bytes());
        assert_eq!(tok.file_bytes(), serialized_bytes(&m));
        let path = tok.path.clone();
        assert!(path.exists());
        let back = s.reload(&tok).unwrap();
        assert!(!path.exists(), "reload deletes the file");
        match back {
            Matrix::Dense(b) => assert!(
                d.values().iter().zip(b.values()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "dense payload must round-trip bit-exactly"
            ),
            _ => panic!("dense in, dense out"),
        }
    }

    #[test]
    fn sparse_round_trip_preserves_structure() {
        let s = store();
        let mut d = DenseMatrix::zeros(50, 40);
        for i in 0..50 {
            d.set(i, (i * 7) % 40, -(i as f64) / 3.0);
        }
        let m = Matrix::sparse(SparseMatrix::from_dense(&d));
        let tok = s.spill(&m).unwrap();
        let back = s.reload(&tok).unwrap();
        assert!(back.is_sparse());
        assert_eq!(back.nnz(), m.nnz());
        for i in 0..50 {
            let c = (i * 7) % 40;
            assert_eq!(back.get(i, c).to_bits(), m.get(i, c).to_bits());
        }
    }

    #[test]
    fn special_values_round_trip() {
        let s = store();
        let d = DenseMatrix::new(1, 6, vec![f64::NAN, f64::INFINITY, -0.0, 0.0, -1e-308, 1e308]);
        let m = Matrix::dense(d.clone());
        let back = s.reload(&s.spill(&m).unwrap()).unwrap();
        for (a, b) in d.values().iter().zip(back.as_dense().values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn drop_removes_spill_dir() {
        let s = store();
        let m = Matrix::dense(DenseMatrix::filled(10, 10, 2.5));
        let _tok = s.spill(&m).unwrap();
        let dir = s.spill_dir().expect("dir created on first spill");
        assert!(dir.exists());
        drop(s);
        assert!(!dir.exists(), "TieredStore drop must sweep its temp files");
    }

    #[test]
    fn counters_track_bytes() {
        let s = store();
        let m = Matrix::dense(DenseMatrix::filled(16, 16, 1.0));
        let expect = serialized_bytes(&m) as u64;
        let tok = s.spill(&m).unwrap();
        let _ = s.reload(&tok).unwrap();
        let st = s.stats();
        assert_eq!(st.spill_events, 1);
        assert_eq!(st.reload_events, 1);
        assert_eq!(st.bytes_spilled, expect);
        assert_eq!(st.bytes_reloaded, expect);
    }

    #[test]
    fn reload_draws_from_pool() {
        let pool = BufferPool::handle();
        let s = TieredStore::new(std::sync::Arc::clone(&pool), 1 << 20, None);
        let m = Matrix::dense(DenseMatrix::filled(64, 64, 3.0));
        // Prime the pool with a right-sized buffer, then reload: it must hit.
        pool.give(pool.take_zeroed(64 * 64));
        let hits_before = pool.stats().hits;
        let _back = s.reload(&s.spill(&m).unwrap()).unwrap();
        assert!(pool.stats().hits > hits_before, "reload buffers come from the pool");
    }

    #[test]
    fn disabled_threshold_reports_disabled() {
        let s = TieredStore::new(BufferPool::handle(), usize::MAX, None);
        assert!(!s.enabled());
        assert!(TieredStore::new(BufferPool::handle(), 1024, None).enabled());
    }
}
