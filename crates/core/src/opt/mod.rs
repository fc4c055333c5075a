//! Candidate selection (paper §4): plan partitions, interesting points, the
//! analytical cost model, the `MPSkipEnum` enumeration algorithm, and the
//! fuse-all / fuse-no-redundancy heuristics.

pub mod cost;
pub mod enumerate;
pub mod heuristics;
pub mod partition;
pub mod select;

pub use cost::{CostModel, DistConfig};
pub use enumerate::{mpskip_enum, EnumConfig, EnumResult};
pub use partition::{partitions, InterestingPoint, PlanPartition};
pub use select::{select_plans, SelectionPolicy};
