// Tests and assertions use unwrap/expect freely; the targeted failure-path
// modules (`spill`, the runtime scheduler) re-deny at module level.
#![allow(clippy::disallowed_methods)]
#![forbid(unsafe_code)]
//! # fusedml-runtime
//!
//! Execution runtime for fused and basic operators:
//!
//! * [`spoof`] — the hand-coded template skeletons (`SpoofCellwise`,
//!   `SpoofRowwise`, `SpoofMultiAgg`, `SpoofOuterProduct`) that own data
//!   access over dense/sparse/compressed matrices, multi-threading and
//!   aggregation, and invoke the generated register programs per cell/row
//!   (paper §2.2 "Runtime Integration", Figure 4); the `Fused` baseline's
//!   hand-coded patterns (`fusedml_core::handcoded`) run through them too,
//! * [`engine`] — the public execution API: [`EngineBuilder`] → [`Engine`]
//!   (owns the buffer pool, plan cache, worker limit, stats) →
//!   [`Engine::compile`] → [`CompiledScript`] (`Send + Sync`, executes from
//!   many threads with zero re-optimization),
//! * [`exec`] — execution statistics and the sequential oracle,
//! * [`error`] — typed execution failures ([`ExecError`]) surfaced by the
//!   `try_execute` APIs: panics are contained per run, spill I/O retries
//!   and degrades, and a failed execution leaves the engine fully reusable,
//! * [`schedule`] — the liveness-aware scheduled engine: refcounted value
//!   slots freed at last use, pool-backed buffers, parallel execution of
//!   independent ready operators (workers started by `par::run_bands`,
//!   worker 0 on the calling thread), and out-of-core execution under a
//!   memory budget kept at every worker count (farthest-next-use eviction
//!   to the engine's spill tier; the task that gathers a spilled input
//!   reads it back),
//! * [`shard`] — the sharded multi-worker runtime (DESIGN.md
//!   substitution X11): a sharded operator runs as row bands through
//!   `par::run_bands`, band 0 on the calling thread and the rest on scoped
//!   threads spawned per call,
//!   over row-partitioned mains and broadcast side inputs, with per-band
//!   partial aggregation, driver-side merge, and a cost-model-driven
//!   local-vs-sharded choice behind `EngineBuilder::shards`,
//! * [`verify`] — the static plan verifier (DESIGN.md substitution X9): an
//!   IR-invariant checker across the hop, fusion-plan, register-program, and
//!   task-graph layers, plus the residency state-machine spec the debug
//!   scheduler replays its slot-transition traces against. Runs inside
//!   [`Engine::compile`] behind `EngineBuilder::verify_plans`.

pub mod engine;
pub mod error;
pub mod exec;
pub mod schedule;
pub mod shard;
pub mod spoof;
pub mod verify;

pub use engine::{CompiledScript, Engine, EngineBuilder, Outputs};
pub use error::ExecError;
pub use exec::{ExecStats, SchedSnapshot};
pub use fusedml_core::FusionMode;
pub use fusedml_linalg::fault::{FaultPlan, FaultSite};
pub use shard::{MergeOp, MergePlan, ShardSpec, Shards, SideDisp};
pub use verify::VerifyError;
