//! Fusion template types and the OFMC (open-fuse-merge-close) abstraction
//! (paper §3.2, Table 1).
//!
//! Each template implements four predicates that fully separate template-
//! specific fusion conditions from the DAG traversal in [`crate::explore`]:
//!
//! * `open(h)` — can a new fused operator of this template start at `h`?
//! * `fuse(h, in)` — can an open operator at input `in` expand to consumer `h`?
//! * `merge(h, in)` — can an operator at consumer `h` absorb plans at `in`?
//! * `close(h)` — does `h` close the template (valid/invalid) or leave it open?

mod cell;
mod outer;
mod row;

pub use cell::CellTemplate;
pub use outer::OuterTemplate;
pub(crate) use row::sums_over_rows;
pub use row::RowTemplate;

use fusedml_hop::{Hop, HopDag};

/// Template types of Table 1. `MAgg` is assembled during candidate selection
/// from closed full-aggregate Cell plans sharing inputs (it never explores
/// independently), so only Cell/Row/Outer participate in OFMC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TemplateType {
    Row,
    Cell,
    MAgg,
    Outer,
}

impl TemplateType {
    /// Single-letter tag used in memo-table rendering (paper Figure 5).
    pub fn tag(self) -> &'static str {
        match self {
            TemplateType::Row => "R",
            TemplateType::Cell => "C",
            TemplateType::MAgg => "M",
            TemplateType::Outer => "O",
        }
    }

    /// Whether an operator of type `self` can absorb a partial plan of type
    /// `input` at one of its inputs (e.g. Cell templates merge into Row
    /// templates, paper §3.2).
    pub fn merge_compatible(self, input: TemplateType) -> bool {
        match self {
            TemplateType::Row => matches!(input, TemplateType::Row | TemplateType::Cell),
            TemplateType::Cell => input == TemplateType::Cell,
            TemplateType::Outer => matches!(input, TemplateType::Outer | TemplateType::Cell),
            TemplateType::MAgg => false,
        }
    }

    /// Selection preference when several template types cover the same root
    /// (higher wins): sparsity-exploiting and wider-scope templates first,
    /// mirroring SystemML's type precedence.
    pub fn preference(self) -> u8 {
        match self {
            TemplateType::MAgg => 3,
            TemplateType::Outer => 2,
            TemplateType::Row => 1,
            TemplateType::Cell => 0,
        }
    }
}

/// Close decision of a template at a HOP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseDecision {
    /// The operator stays open and may fuse further consumers.
    Open,
    /// The HOP closes the operator; the plan remains valid.
    ClosedValid,
    /// The HOP closes the operator and invalidates the plan.
    ClosedInvalid,
}

/// The OFMC template interface (paper §3.2).
pub trait FusionTemplate: Sync {
    /// This template's type.
    fn ttype(&self) -> TemplateType;
    /// Opening condition at `h`.
    fn open(&self, dag: &HopDag, h: &Hop) -> bool;
    /// Expansion condition from an open operator at `input` to consumer `h`.
    fn fuse(&self, dag: &HopDag, h: &Hop, input: &Hop) -> bool;
    /// Merge condition: can an operator at `h` absorb input plans at `input`
    /// (of any [`TemplateType::merge_compatible`] type)?
    fn merge(&self, dag: &HopDag, h: &Hop, input: &Hop) -> bool;
    /// Close status after `h`.
    fn close(&self, dag: &HopDag, h: &Hop) -> CloseDecision;
}

/// The template registry used by exploration (order irrelevant).
pub fn all_templates() -> &'static [&'static dyn FusionTemplate] {
    static CELL: CellTemplate = CellTemplate;
    static ROW: RowTemplate = RowTemplate;
    static OUTER: OuterTemplate = OuterTemplate;
    static ALL: [&dyn FusionTemplate; 3] = [&ROW, &CELL, &OUTER];
    &ALL
}

/// Looks up the template implementation for a type (panics for `MAgg`,
/// which has no OFMC behaviour).
pub fn template_for(t: TemplateType) -> &'static dyn FusionTemplate {
    all_templates()
        .iter()
        .copied()
        .find(|tpl| tpl.ttype() == t)
        .unwrap_or_else(|| panic!("no OFMC template for {t:?}"))
}

/// Shared shape helpers for template conditions.
pub(crate) mod shape {
    use fusedml_hop::Hop;

    /// rows>1 && cols>1.
    pub fn is_matrix(h: &Hop) -> bool {
        h.size.rows > 1 && h.size.cols > 1
    }

    /// 1×1.
    pub fn is_scalar(h: &Hop) -> bool {
        h.size.rows == 1 && h.size.cols == 1
    }

    /// Not 1×1.
    pub fn is_non_scalar(h: &Hop) -> bool {
        !is_scalar(h)
    }

    /// True when `b` broadcasts cell-wise against `a`'s geometry.
    pub fn broadcast_compatible(a: &Hop, b: &Hop) -> bool {
        (b.size.rows == a.size.rows || b.size.rows == 1)
            && (b.size.cols == a.size.cols || b.size.cols == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_compatibility_matrix() {
        use TemplateType::*;
        assert!(Row.merge_compatible(Cell));
        assert!(Row.merge_compatible(Row));
        assert!(!Row.merge_compatible(Outer));
        assert!(Cell.merge_compatible(Cell));
        assert!(!Cell.merge_compatible(Row));
        assert!(Outer.merge_compatible(Cell));
        assert!(!MAgg.merge_compatible(Cell));
    }

    #[test]
    fn preferences_order_types() {
        use TemplateType::*;
        assert!(MAgg.preference() > Outer.preference());
        assert!(Outer.preference() > Row.preference());
        assert!(Row.preference() > Cell.preference());
    }

    #[test]
    fn registry_has_three_ofmc_templates() {
        assert_eq!(all_templates().len(), 3);
        assert_eq!(template_for(TemplateType::Cell).ttype(), TemplateType::Cell);
    }

    #[test]
    #[should_panic(expected = "no OFMC template")]
    fn magg_has_no_ofmc_template() {
        template_for(TemplateType::MAgg);
    }
}
