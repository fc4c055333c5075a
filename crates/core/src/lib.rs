// Tests and assertions use unwrap/expect freely; the targeted failure-path
// modules (`spill`, the runtime scheduler) re-deny at module level.
#![allow(clippy::disallowed_methods)]
//! # fusedml-core
//!
//! The paper's primary contribution: a cost-based optimization framework for
//! operator fusion plans over HOP DAGs (Boehm et al., VLDB 2018).
//!
//! The compiler runs in five steps (paper §2.1 "Codegen Architecture"):
//!
//! 1. **Candidate exploration** ([`explore`]) — a bottom-up, template-
//!    oblivious OFMC (open-fuse-merge-close) pass populating the
//!    [`memo::MemoTable`] with all valid partial fusion plans,
//! 2. **Candidate selection** ([`opt`]) — plan partitioning, interesting
//!    points, the analytical cost model, and the `MPSkipEnum` enumeration
//!    algorithm (plus the fuse-all / fuse-no-redundancy heuristic baselines),
//! 3. **CPlan construction** ([`cplan`]) — backend-independent code
//!    generation plans for the selected fusion plans,
//! 4. **Code generation** ([`codegen`]) — rendered operator source plus a
//!    compiled register program executed by the runtime skeletons, cached in
//!    the [`plancache::PlanCache`],
//! 5. **DAG modification** — the optimizer output maps covered HOPs to fused
//!    operators ([`optimizer::FusionPlan`]), applied by the runtime executor.
//!
//! The `Fused` baseline runs the same pipeline over a fixed pattern table
//! ([`handcoded`]): step 1's memo keeps only the matched instances, and
//! step 2 fuses each of them whole.

pub mod codegen;
pub mod cplan;
pub mod explore;
pub mod handcoded;
pub mod memo;
pub mod opt;
pub mod optimizer;
pub mod plancache;
pub mod spoof;
pub mod stats;
pub mod templates;
pub mod util;

pub use memo::{InputRef, MemoEntry, MemoTable};
pub use optimizer::{optimize, FusedOperator, FusionMode, FusionPlan, Optimizer};
pub use templates::TemplateType;
