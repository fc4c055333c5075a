//! Typed execution errors: every way a run can fail, as data.
//!
//! SystemML earns its production claim by running fused plans on resilient
//! backends; the single-process equivalent is an engine where failures are
//! *contained, typed, and recoverable*. [`ExecError`] is the containment
//! boundary: `CompiledScript::try_execute` and the `Engine::try_execute*`
//! APIs surface one of these instead of panicking, and the scheduler
//! guarantees that after any of them the engine is bitwise-correct for the
//! next execution — slots swept, pooled buffers returned, spill tokens
//! discarded, sibling threads untouched.
//!
//! The panicking `execute` APIs are retained as thin wrappers that unwrap
//! these errors, so callers that treated every failure as fatal keep their
//! behaviour.

use fusedml_hop::interp::BindError;
use fusedml_linalg::fault::FaultSite;
use std::fmt;
use std::io;

/// Why an execution failed. Every variant names the failing operation, so a
/// serving layer can log *which* op of *which* request died without parsing
/// panic strings.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExecError {
    /// A live `Read` of the DAG has no matrix bound under its name.
    UnboundInput {
        /// The missing input's name.
        name: String,
    },
    /// A bound matrix disagrees with the geometry the plan was compiled
    /// for, in a way geometry revalidation could not reconcile (mutually
    /// inconsistent shapes recompile to a DAG the bindings still miss).
    ShapeMismatch {
        /// The offending input's name.
        name: String,
        /// `(rows, cols)` the plan was compiled for.
        expected: (usize, usize),
        /// `(rows, cols)` actually bound.
        bound: (usize, usize),
    },
    /// Spill-tier I/O failed and retries were exhausted. `during` is
    /// `"write"` or `"read"`; reload failures are fatal to the run (the
    /// value exists nowhere else), write failures normally degrade to
    /// resident-only execution instead of surfacing here.
    SpillIo {
        /// The operation or slot the bytes belonged to.
        op: String,
        /// `"write"` or `"read"`.
        during: &'static str,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A worker panicked executing a task. The panic was caught on the
    /// worker, pending tasks were cancelled, and the engine was swept — the
    /// panic never crosses to sibling serving threads.
    WorkerPanic {
        /// Identity of the panicking operator.
        op: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// The scheduler could not reserve memory for a task under the engine
    /// budget (only reachable through the `Alloc` fault-injection site
    /// today — the real reservation path degrades over budget, best
    /// effort).
    BudgetExhausted {
        /// The task whose reservation failed.
        op: String,
        /// Bytes the reservation asked for.
        needed: usize,
        /// The engine's resident-bytes budget.
        budget: usize,
    },
    /// A fault-injection site failed this run on purpose (the chaos
    /// harness's non-panicking task failure).
    Injected {
        /// The site that fired.
        site: FaultSite,
        /// The task it fired on.
        op: String,
    },
    /// One band of a sharded fused operator panicked. The panic was caught
    /// on the band's thread, sibling bands that had not started were
    /// cancelled, and only the owning request fails: no shard thread
    /// outlives its execute, so later ones run as if nothing happened.
    ShardFailure {
        /// Identity of the sharded operator.
        op: String,
        /// Index of the first shard that failed.
        shard: usize,
        /// The shard's panic payload, stringified.
        message: String,
    },
    /// Static plan verification rejected a compiled artifact before it could
    /// execute (see [`crate::verify`]). Only reachable when
    /// `EngineBuilder::verify_plans` is on.
    Verify(crate::verify::VerifyError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnboundInput { name } => write!(f, "unbound input matrix '{name}'"),
            ExecError::ShapeMismatch { name, expected, bound } => write!(
                f,
                "bound matrix '{name}' is {}x{} but the plan was compiled for {}x{}",
                bound.0, bound.1, expected.0, expected.1
            ),
            ExecError::SpillIo { op, during, source } => {
                write!(f, "spill {during} failed for {op}: {source}")
            }
            ExecError::WorkerPanic { op, message } => {
                write!(f, "worker panicked executing {op}: {message}")
            }
            ExecError::BudgetExhausted { op, needed, budget } => {
                write!(f, "could not reserve {needed} bytes for {op} under a {budget}-byte budget")
            }
            ExecError::Injected { site, op } => {
                write!(f, "injected {site:?} fault at {op}")
            }
            ExecError::ShardFailure { op, shard, message } => {
                write!(f, "shard {shard} failed executing {op}: {message}")
            }
            ExecError::Verify(e) => write!(f, "plan verification failed: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::SpillIo { source, .. } => Some(source),
            ExecError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::verify::VerifyError> for ExecError {
    fn from(e: crate::verify::VerifyError) -> Self {
        ExecError::Verify(e)
    }
}

impl From<BindError> for ExecError {
    fn from(e: BindError) -> Self {
        match e {
            BindError::Unbound { name } => ExecError::UnboundInput { name },
            BindError::Shape { name, expected, bound } => {
                ExecError::ShapeMismatch { name, expected, bound }
            }
        }
    }
}

/// Renders a caught panic payload for [`ExecError::WorkerPanic`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_op() {
        let e =
            ExecError::WorkerPanic { op: "basic MatMult (hop 4)".into(), message: "boom".into() };
        let s = e.to_string();
        assert!(s.contains("basic MatMult (hop 4)") && s.contains("boom"), "{s}");
        let e = ExecError::SpillIo {
            op: "slot 7".into(),
            during: "read",
            source: io::Error::other("disk gone"),
        };
        assert!(e.to_string().contains("spill read failed"), "{e}");
        assert!(std::error::Error::source(&e).is_some(), "io source preserved");
    }

    #[test]
    fn bind_errors_convert() {
        let e: ExecError = BindError::Unbound { name: "X".into() }.into();
        assert!(matches!(e, ExecError::UnboundInput { ref name } if name == "X"));
        let e: ExecError =
            BindError::Shape { name: "Y".into(), expected: (2, 2), bound: (3, 3) }.into();
        assert!(matches!(e, ExecError::ShapeMismatch { bound: (3, 3), .. }));
    }
}
