//! Operator kernels over [`Matrix`] values.
//!
//! Each logical operation (element-wise binary, unary map, ternary,
//! aggregation, matrix multiply, reorg/indexing) has dense and sparse
//! implementations with an automatic output-format decision, mirroring
//! SystemML's physical operator library. These kernels are what the `Base`
//! (no fusion) execution mode runs, and what fused operators are validated
//! against in tests.

use crate::matrix::Matrix;

pub mod agg;
pub mod elementwise;
pub mod loops;
pub mod matmult;
pub mod reorg;
pub mod ternary;
pub mod unary;

pub use agg::{agg, cum_agg};
pub use elementwise::{binary, binary_assign, binary_scalar};
pub use loops::{bin_loop, bin_rows, ter_loop, un_loop, OpRef, RowsRef};
pub use matmult::{matmult, tsmm_left};
pub use reorg::{cbind, diag, index_range, rbind, seq, transpose};
pub use ternary::ternary;
pub use unary::{unary, unary_assign};

/// `min(a, b)` with `-0.0 < +0.0`: [`f64::min`] (the other operand where one
/// is NaN) except that two zeros give `-0.0` whenever either is `-0.0`, so
/// the result does not depend on the operand order. Every `Min` — the binary
/// operator, the aggregate's fold and combine, [`crate::primitives::vect_min`]
/// and the shard merge — goes through it.
#[inline(always)]
pub fn min(a: f64, b: f64) -> f64 {
    if a == b {
        f64::from_bits(a.to_bits() | b.to_bits())
    } else {
        a.min(b)
    }
}

/// `max(a, b)` with `-0.0 < +0.0`, the twin of [`min`]: two zeros give
/// `+0.0` whenever either is `+0.0`.
#[inline(always)]
pub fn max(a: f64, b: f64) -> f64 {
    if a == b {
        f64::from_bits(a.to_bits() & b.to_bits())
    } else {
        a.max(b)
    }
}

/// Element-wise binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mult,
    Div,
    Min,
    Max,
    Pow,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinaryOp {
    /// Applies the scalar semantics of the operator. Comparison and logical
    /// operators produce 0/1 indicators, as in SystemML.
    #[inline(always)]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mult => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Min => min(a, b),
            BinaryOp::Max => max(a, b),
            BinaryOp::Pow => a.powf(b),
            BinaryOp::Eq => f64::from(a == b),
            BinaryOp::Neq => f64::from(a != b),
            BinaryOp::Lt => f64::from(a < b),
            BinaryOp::Le => f64::from(a <= b),
            BinaryOp::Gt => f64::from(a > b),
            BinaryOp::Ge => f64::from(a >= b),
            BinaryOp::And => f64::from(a != 0.0 && b != 0.0),
            BinaryOp::Or => f64::from(a != 0.0 || b != 0.0),
        }
    }

    /// True if `0 op x == 0` for all finite `x` — i.e. zero cells of the
    /// *left* input can be skipped regardless of the right value. This is the
    /// paper's notion of a sparse-safe operation with a left sparse driver.
    pub fn sparse_safe_left(self) -> bool {
        matches!(self, BinaryOp::Mult | BinaryOp::And)
    }

    /// True if `0 op 0 == 0`, so a cell that is zero in *both* inputs stays
    /// zero (e.g. add/sub preserve joint sparsity even though a single-sided
    /// zero does not).
    pub fn zero_zero_is_zero(self) -> bool {
        self.apply(0.0, 0.0) == 0.0
    }

    /// Short mnemonic used in rendered fused-operator source code.
    pub fn name(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mult => "*",
            BinaryOp::Div => "/",
            BinaryOp::Min => "min",
            BinaryOp::Max => "max",
            BinaryOp::Pow => "^",
            BinaryOp::Eq => "==",
            BinaryOp::Neq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "&",
            BinaryOp::Or => "|",
        }
    }
}

/// Element-wise unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Exp,
    Log,
    Sqrt,
    Abs,
    Sign,
    Round,
    Floor,
    Ceil,
    Neg,
    /// Logistic function `1 / (1 + exp(-x))`.
    Sigmoid,
    /// `x^2` — distinct from `Pow` so sparse-safety is visible statically.
    Pow2,
    /// Sample proportion `x * (1 - x)` (used by neural-network backprop).
    Sprop,
    /// Numerically robust `log(x + eps)`-style guard is modelled via binary
    /// add before log; plain `1/x`.
    Recip,
}

impl UnaryOp {
    /// Scalar semantics.
    #[inline(always)]
    pub fn apply(self, a: f64) -> f64 {
        match self {
            UnaryOp::Exp => a.exp(),
            UnaryOp::Log => a.ln(),
            UnaryOp::Sqrt => a.sqrt(),
            UnaryOp::Abs => a.abs(),
            UnaryOp::Sign => {
                if a > 0.0 {
                    1.0
                } else if a < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Round => a.round(),
            UnaryOp::Floor => a.floor(),
            UnaryOp::Ceil => a.ceil(),
            UnaryOp::Neg => -a,
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-a).exp()),
            UnaryOp::Pow2 => a * a,
            UnaryOp::Sprop => a * (1.0 - a),
            UnaryOp::Recip => 1.0 / a,
        }
    }

    /// True if `f(0) == 0`, i.e. the operation can run over non-zeros only.
    pub fn sparse_safe(self) -> bool {
        matches!(
            self,
            UnaryOp::Sqrt
                | UnaryOp::Abs
                | UnaryOp::Sign
                | UnaryOp::Round
                | UnaryOp::Floor
                | UnaryOp::Ceil
                | UnaryOp::Neg
                | UnaryOp::Pow2
                | UnaryOp::Sprop
        )
    }

    /// Mnemonic for rendered source.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Exp => "exp",
            UnaryOp::Log => "log",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Abs => "abs",
            UnaryOp::Sign => "sign",
            UnaryOp::Round => "round",
            UnaryOp::Floor => "floor",
            UnaryOp::Ceil => "ceil",
            UnaryOp::Neg => "neg",
            UnaryOp::Sigmoid => "sigmoid",
            UnaryOp::Pow2 => "sq",
            UnaryOp::Sprop => "sprop",
            UnaryOp::Recip => "recip",
        }
    }
}

/// Ternary fused scalar operators (SystemML's `+*`, `-*`, `ifelse`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TernaryOp {
    /// `a + b * c`
    PlusMult,
    /// `a - b * c`
    MinusMult,
    /// `if a != 0 then b else c`
    IfElse,
}

impl TernaryOp {
    /// Scalar semantics.
    #[inline(always)]
    pub fn apply(self, a: f64, b: f64, c: f64) -> f64 {
        match self {
            TernaryOp::PlusMult => a + b * c,
            TernaryOp::MinusMult => a - b * c,
            TernaryOp::IfElse => {
                if a != 0.0 {
                    b
                } else {
                    c
                }
            }
        }
    }

    /// Mnemonic for rendered source.
    pub fn name(self) -> &'static str {
        match self {
            TernaryOp::PlusMult => "+*",
            TernaryOp::MinusMult => "-*",
            TernaryOp::IfElse => "ifelse",
        }
    }
}

/// Aggregation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggOp {
    Sum,
    SumSq,
    Min,
    Max,
    Mean,
}

impl AggOp {
    /// The fold identity for this aggregate.
    pub fn identity(self) -> f64 {
        match self {
            AggOp::Sum | AggOp::SumSq | AggOp::Mean => 0.0,
            AggOp::Min => f64::INFINITY,
            AggOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Folds one value into the accumulator.
    #[inline(always)]
    pub fn fold(self, acc: f64, v: f64) -> f64 {
        match self {
            AggOp::Sum | AggOp::Mean => acc + v,
            AggOp::SumSq => acc + v * v,
            AggOp::Min => min(acc, v),
            AggOp::Max => max(acc, v),
        }
    }

    /// Combines two partial accumulators.
    #[inline(always)]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            AggOp::Sum | AggOp::SumSq | AggOp::Mean => a + b,
            AggOp::Min => min(a, b),
            AggOp::Max => max(a, b),
        }
    }

    /// True if zero cells contribute the identity (so an aggregation over
    /// non-zeros plus a zero-count correction is exact).
    pub fn sparse_safe(self) -> bool {
        matches!(self, AggOp::Sum | AggOp::SumSq)
    }
}

/// Aggregation direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggDir {
    /// Full aggregation to a 1×1 result.
    Full,
    /// Row-wise aggregation to an n×1 column vector (e.g. `rowSums`).
    Row,
    /// Column-wise aggregation to a 1×m row vector (e.g. `colSums`).
    Col,
}

/// Resolved broadcasting relationship between two operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Broadcast {
    /// Identical geometry.
    Cellwise,
    /// Right operand is an n×1 column vector replicated across columns.
    ColVector,
    /// Right operand is a 1×m row vector replicated across rows.
    RowVector,
    /// Right operand is 1×1.
    Scalar,
}

/// Determines how `rhs` broadcasts against an `rows`×`cols` left operand;
/// panics on incompatible shapes (shape errors are compile-time bugs in this
/// system, caught by HOP size propagation before execution).
pub fn resolve_broadcast(rows: usize, cols: usize, m: &Matrix) -> Broadcast {
    if m.rows() == 1 && m.cols() == 1 {
        Broadcast::Scalar
    } else if m.rows() == rows && m.cols() == cols {
        Broadcast::Cellwise
    } else if m.rows() == rows && m.cols() == 1 {
        Broadcast::ColVector
    } else if m.rows() == 1 && m.cols() == cols {
        Broadcast::RowVector
    } else {
        panic!("incompatible shapes for broadcast: {}x{} vs {}x{}", rows, cols, m.rows(), m.cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_semantics() {
        assert_eq!(BinaryOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinaryOp::Pow.apply(2.0, 10.0), 1024.0);
        assert_eq!(BinaryOp::Neq.apply(1.0, 0.0), 1.0);
        assert_eq!(BinaryOp::And.apply(2.0, 0.0), 0.0);
        assert_eq!(BinaryOp::Or.apply(0.0, 3.0), 1.0);
    }

    #[test]
    fn sparse_safety_flags() {
        assert!(BinaryOp::Mult.sparse_safe_left());
        assert!(!BinaryOp::Add.sparse_safe_left());
        assert!(BinaryOp::Add.zero_zero_is_zero());
        assert!(!BinaryOp::Eq.zero_zero_is_zero());
        assert!(UnaryOp::Pow2.sparse_safe());
        assert!(!UnaryOp::Exp.sparse_safe());
        assert!(AggOp::Sum.sparse_safe());
        assert!(!AggOp::Min.sparse_safe());
    }

    #[test]
    fn unary_semantics() {
        assert_eq!(UnaryOp::Sign.apply(-3.0), -1.0);
        assert_eq!(UnaryOp::Pow2.apply(3.0), 9.0);
        assert!((UnaryOp::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(UnaryOp::Sprop.apply(0.25), 0.1875);
    }

    #[test]
    fn ternary_semantics() {
        assert_eq!(TernaryOp::PlusMult.apply(1.0, 2.0, 3.0), 7.0);
        assert_eq!(TernaryOp::MinusMult.apply(1.0, 2.0, 3.0), -5.0);
        assert_eq!(TernaryOp::IfElse.apply(1.0, 2.0, 3.0), 2.0);
        assert_eq!(TernaryOp::IfElse.apply(0.0, 2.0, 3.0), 3.0);
    }

    #[test]
    fn agg_identities() {
        assert_eq!(AggOp::Min.identity(), f64::INFINITY);
        assert_eq!(AggOp::Sum.fold(1.0, 2.0), 3.0);
        assert_eq!(AggOp::SumSq.fold(1.0, 2.0), 5.0);
        assert_eq!(AggOp::Max.combine(1.0, 2.0), 2.0);
    }

    #[test]
    fn broadcast_resolution() {
        use crate::dense::DenseMatrix;
        let col = Matrix::dense(DenseMatrix::zeros(4, 1));
        let row = Matrix::dense(DenseMatrix::zeros(1, 5));
        let full = Matrix::dense(DenseMatrix::zeros(4, 5));
        let sc = Matrix::dense(DenseMatrix::zeros(1, 1));
        assert_eq!(resolve_broadcast(4, 5, &col), Broadcast::ColVector);
        assert_eq!(resolve_broadcast(4, 5, &row), Broadcast::RowVector);
        assert_eq!(resolve_broadcast(4, 5, &full), Broadcast::Cellwise);
        assert_eq!(resolve_broadcast(4, 5, &sc), Broadcast::Scalar);
    }

    /// Dense kernels over a matrix with no rows or no columns return the
    /// empty result of the right shape.
    #[test]
    fn dense_kernels_accept_empty_shapes() {
        use crate::dense::DenseMatrix;
        for (r, c) in [(5, 0), (0, 5)] {
            let a = Matrix::dense(DenseMatrix::zeros(r, c));
            let shape = |m: Matrix| (m.rows(), m.cols());
            assert_eq!(shape(unary(&a, UnaryOp::Exp)), (r, c));
            assert_eq!(shape(unary_assign(a.to_dense(), UnaryOp::Exp)), (r, c));
            assert_eq!(shape(binary(&a, &a, BinaryOp::Add)), (r, c));
            assert_eq!(shape(binary_assign(a.to_dense(), &a, BinaryOp::Add)), (r, c));
            assert_eq!(shape(binary_scalar(&a, 1.0, BinaryOp::Add)), (r, c));
            assert_eq!(shape(ternary(&a, &a, &a, TernaryOp::PlusMult)), (r, c));
            assert_eq!(shape(transpose(&a)), (c, r));
            let b = Matrix::dense(DenseMatrix::zeros(c, 3));
            assert_eq!(shape(matmult(&a, &b)), (r, 3));
            assert_eq!(shape(agg(&a, AggOp::Sum, AggDir::Row)), (r, 1));
        }
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn broadcast_mismatch_panics() {
        use crate::dense::DenseMatrix;
        let bad = Matrix::dense(DenseMatrix::zeros(3, 2));
        resolve_broadcast(4, 5, &bad);
    }
}
