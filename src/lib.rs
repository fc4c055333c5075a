// Tests and assertions use unwrap/expect freely; the targeted failure-path
// modules (`spill`, the runtime scheduler) re-deny at module level.
#![allow(clippy::disallowed_methods)]
//! # fusedml
//!
//! A Rust reproduction of SystemML's cost-based operator-fusion-plan
//! optimizer (Boehm et al., *On Optimizing Operator Fusion Plans for
//! Large-Scale Machine Learning in SystemML*, VLDB 2018).
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! * [`linalg`] — dense/sparse matrices, kernels, vector primitives,
//! * [`cla`] — compressed linear algebra (column-group compression),
//! * [`hop`] — the HOP DAG compiler IR with size propagation,
//! * [`core`] — the fusion optimizer: OFMC candidate exploration, memo
//!   table, CPlans, code generation, cost model and `MPSkipEnum`,
//! * [`runtime`] — the engine API (`EngineBuilder` → `Engine::compile` →
//!   `CompiledScript`), fused-operator skeletons, the scheduled executor,
//!   and the sharded multi-worker runtime,
//! * [`algos`] — the six ML algorithms of the paper's evaluation.
//!
//! The README quickstart, compile-checked:
//!
//! ```
//! use fusedml::hop::{interp::bind, DagBuilder};
//! use fusedml::linalg::generate;
//! use fusedml::runtime::{EngineBuilder, FusionMode};
//!
//! // sum(X ⊙ Y): fuses into a single-pass Cell operator under Gen.
//! let mut b = DagBuilder::new();
//! let x = b.read("X", 1000, 100, 1.0);
//! let y = b.read("Y", 1000, 100, 1.0);
//! let xy = b.mult(x, y);
//! let s = b.sum(xy);
//! let dag = b.build(vec![s]);
//!
//! let engine = EngineBuilder::new(FusionMode::Gen)
//!     .workers(4)               // inter-operator scheduler workers
//!     .memory_budget(1 << 30)   // buffer-pool retention budget
//!     .build();
//! let script = engine.compile(&dag); // exploration/costing/codegen run once
//! let out = script.execute(&bind(&[
//!     ("X", generate::rand_dense(1000, 100, 0.0, 1.0, 1)),
//!     ("Y", generate::rand_dense(1000, 100, 0.0, 1.0, 2)),
//! ]));
//! assert!(out.scalar(0).is_finite());
//! assert_eq!(engine.optimizer().stats.snapshot().dags_optimized, 1);
//! ```
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

pub use fusedml_algos as algos;
pub use fusedml_cla as cla;
pub use fusedml_core as core;
pub use fusedml_hop as hop;
pub use fusedml_linalg as linalg;
pub use fusedml_runtime as runtime;
