// Tests and assertions use unwrap/expect freely; the targeted failure-path
// modules (`spill`, the runtime scheduler) re-deny at module level.
#![allow(clippy::disallowed_methods)]
//! # fusedml-hop
//!
//! The HOP (high-level operator) DAG compiler IR, mirroring SystemML's
//! per-statement-block DAGs of linear-algebra operations (paper §2.1).
//!
//! * [`hop`] — operator kinds and nodes,
//! * [`dag`] — the arena-allocated DAG with consumer tracking,
//! * [`builder`] — an expression-builder front end with hash-consing CSE
//!   (standing in for SystemML's R-like script parser),
//! * [`size`] — dimension and sparsity propagation (the IPA analogue; the
//!   fusion optimizer relies on known sizes for costing and validity),
//! * [`liveness`] — live read-occurrence counts and the root mask, which the
//!   plan verifier checks the task graph's `Base`-mode refcounts against
//!   (the runtime's task graph carries the refcounts and levels execution
//!   runs on; its shard planner makes the local-vs-sharded choice),
//! * [`interp`] — a reference interpreter executing a DAG operator-by-
//!   operator with materialized intermediates (the `Base` mode of the
//!   evaluation, and the correctness oracle for fused execution).

pub mod builder;
pub mod dag;
pub mod hop;
pub mod interp;
pub mod liveness;
pub mod size;

pub use builder::DagBuilder;
pub use dag::{HopDag, HopId};
pub use hop::{Hop, OpKind};
pub use size::SizeInfo;
