//! # fusedml-linalg
//!
//! Dense and sparse linear-algebra substrate for the `fusedml` workspace.
//!
//! This crate provides the runtime data structures and kernels that the
//! SystemML-style fusion optimizer generates code against:
//!
//! * [`DenseMatrix`] — row-major dense `f64` matrices,
//! * [`SparseMatrix`] — CSR sparse matrices,
//! * [`Matrix`] — a format-polymorphic wrapper with automatic output-format
//!   decisions, mirroring SystemML's `MatrixBlock`,
//! * [`ops`] — element-wise, unary, ternary, aggregation, matrix-multiply,
//!   reorg and indexing kernels (each with dense and sparse implementations),
//! * [`primitives`] — the vector-primitive library (`dotProduct`,
//!   `vectMultAdd`, …) that generated fused operators call, mirroring
//!   SystemML's `LibSpoofPrimitives`,
//! * [`generate`] — seeded random/structured matrix generators used by the
//!   benchmark workloads,
//! * [`par`] — minimal scoped-thread parallelization helpers,
//! * [`pool`] — the size-class keyed buffer pool standing in for SystemML's
//!   buffer-pool-managed intermediates (dense outputs draw from and return
//!   to it, so steady-state iterations allocate near zero),
//! * [`spill`] — the second tier under the pool: a budgeted [`spill::TieredStore`]
//!   that serializes cold live values to engine-owned temp files and reloads
//!   them bit-exactly, so the engine's memory budget bounds live values too.

// Every unsafe block in this crate must discharge its obligations locally:
// `unsafe fn` bodies get no blanket license, and each block carries a
// `// SAFETY:` comment (enforced by the CI unsafe-audit grep gate).
#![deny(unsafe_op_in_unsafe_fn)]
// Tests and assertions use unwrap/expect freely; the targeted failure-path
// modules (`spill`, the runtime scheduler) re-deny at module level.
#![allow(clippy::disallowed_methods)]

mod buf;
pub mod dense;
pub mod fault;
pub mod generate;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod pool;
pub mod primitives;
pub mod simd;
pub mod sparse;
pub mod spill;

pub use dense::DenseMatrix;
pub use matrix::Matrix;
pub use ops::{AggDir, AggOp, BinaryOp, TernaryOp, UnaryOp};
pub use sparse::SparseMatrix;

/// Relative tolerance used by approximate comparisons in tests and validation.
pub const EPS: f64 = 1e-9;

/// Returns true if `a` and `b` are equal within a combined absolute/relative
/// tolerance. Used pervasively in tests comparing fused vs. unfused results.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        return true;
    }
    if a.is_nan() && b.is_nan() {
        return true;
    }
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}
