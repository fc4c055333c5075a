//! Element loops with the operator dispatch hoisted out: one monomorphized
//! loop per operator, so the `match` in `apply` is paid once per call, not
//! once per element. The tile interpreter (`core::spoof::block`), the Row
//! band kernels and the basic element-wise operators all run these.

use super::{BinaryOp, TernaryOp, UnaryOp};

/// A resolved operand: a slice of at least the loop's length, or a value
/// uniform across it.
#[derive(Clone, Copy, Debug)]
pub enum OpRef<'a> {
    S(&'a [f64]),
    C(f64),
}

impl OpRef<'_> {
    /// Element `i`.
    #[inline(always)]
    pub fn get(self, i: usize) -> f64 {
        match self {
            OpRef::S(s) => s[i],
            OpRef::C(c) => c,
        }
    }
}

/// Expands to a `match` over every [`BinaryOp`] so each arm monomorphizes
/// its loop (`$op.apply` constant-folds per arm under `inline(always)`).
macro_rules! with_binop {
    ($op:expr, $go:ident) => {
        match $op {
            BinaryOp::Add => $go!(BinaryOp::Add),
            BinaryOp::Sub => $go!(BinaryOp::Sub),
            BinaryOp::Mult => $go!(BinaryOp::Mult),
            BinaryOp::Div => $go!(BinaryOp::Div),
            BinaryOp::Min => $go!(BinaryOp::Min),
            BinaryOp::Max => $go!(BinaryOp::Max),
            BinaryOp::Pow => $go!(BinaryOp::Pow),
            BinaryOp::Eq => $go!(BinaryOp::Eq),
            BinaryOp::Neq => $go!(BinaryOp::Neq),
            BinaryOp::Lt => $go!(BinaryOp::Lt),
            BinaryOp::Le => $go!(BinaryOp::Le),
            BinaryOp::Gt => $go!(BinaryOp::Gt),
            BinaryOp::Ge => $go!(BinaryOp::Ge),
            BinaryOp::And => $go!(BinaryOp::And),
            BinaryOp::Or => $go!(BinaryOp::Or),
        }
    };
}

macro_rules! with_unop {
    ($op:expr, $go:ident) => {
        match $op {
            UnaryOp::Exp => $go!(UnaryOp::Exp),
            UnaryOp::Log => $go!(UnaryOp::Log),
            UnaryOp::Sqrt => $go!(UnaryOp::Sqrt),
            UnaryOp::Abs => $go!(UnaryOp::Abs),
            UnaryOp::Sign => $go!(UnaryOp::Sign),
            UnaryOp::Round => $go!(UnaryOp::Round),
            UnaryOp::Floor => $go!(UnaryOp::Floor),
            UnaryOp::Ceil => $go!(UnaryOp::Ceil),
            UnaryOp::Neg => $go!(UnaryOp::Neg),
            UnaryOp::Sigmoid => $go!(UnaryOp::Sigmoid),
            UnaryOp::Pow2 => $go!(UnaryOp::Pow2),
            UnaryOp::Sprop => $go!(UnaryOp::Sprop),
            UnaryOp::Recip => $go!(UnaryOp::Recip),
        }
    };
}

/// `dst[i] = op(a[i])`, one monomorphized loop per operator.
pub fn un_loop(op: UnaryOp, a: OpRef<'_>, dst: &mut [f64]) {
    let n = dst.len();
    match a {
        OpRef::S(a) => {
            let a = &a[..n];
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = $k.apply(a[i]);
                    }
                };
            }
            with_unop!(op, go)
        }
        OpRef::C(c) => dst.fill(op.apply(c)),
    }
}

/// `dst[i] = op(dst[i])`: [`un_loop`] over the slice it writes.
pub(crate) fn un_loop_assign(op: UnaryOp, dst: &mut [f64]) {
    macro_rules! go {
        ($k:expr) => {
            for v in dst.iter_mut() {
                *v = $k.apply(*v);
            }
        };
    }
    with_unop!(op, go)
}

/// `dst[i] = op(a[i], b[i])`, one monomorphized loop per operator and
/// slice/uniform operand combination.
pub fn bin_loop(op: BinaryOp, a: OpRef<'_>, b: OpRef<'_>, dst: &mut [f64]) {
    let n = dst.len();
    match (a, b) {
        (OpRef::S(a), OpRef::S(b)) => {
            let (a, b) = (&a[..n], &b[..n]);
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = $k.apply(a[i], b[i]);
                    }
                };
            }
            with_binop!(op, go)
        }
        (OpRef::S(a), OpRef::C(c)) => {
            let a = &a[..n];
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = $k.apply(a[i], c);
                    }
                };
            }
            with_binop!(op, go)
        }
        (OpRef::C(c), OpRef::S(b)) => {
            let b = &b[..n];
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = $k.apply(c, b[i]);
                    }
                };
            }
            with_binop!(op, go)
        }
        (OpRef::C(x), OpRef::C(y)) => dst.fill(op.apply(x, y)),
    }
}

/// One operand of [`bin_rows`]: rows `stride` apart in a slice (row `i` is
/// `data[i·stride..][..len]`; stride 0 repeats one row), or one value per row.
#[derive(Clone, Copy, Debug)]
pub enum RowsRef<'a> {
    Rows(&'a [f64], usize),
    Lanes(&'a [f64]),
}

/// `dst` row `i` = `op(a row i, b row i)` element by element, over the
/// `dst.len() / len` rows of `len` values of `dst`: [`bin_loop`] for a batch
/// of rows, the operator matched once per batch.
pub fn bin_rows(op: BinaryOp, a: RowsRef<'_>, b: RowsRef<'_>, len: usize, dst: &mut [f64]) {
    use RowsRef::{Lanes, Rows};
    if len == 0 {
        return;
    }
    macro_rules! go {
        ($k:expr) => {
            for (i, d) in dst.chunks_exact_mut(len).enumerate() {
                match (a, b) {
                    (Rows(x, xs), Rows(y, ys)) => {
                        let (x, y) = (&x[i * xs..][..len], &y[i * ys..][..len]);
                        for j in 0..len {
                            d[j] = $k.apply(x[j], y[j]);
                        }
                    }
                    (Rows(x, xs), Lanes(y)) => {
                        let (x, y) = (&x[i * xs..][..len], y[i]);
                        for j in 0..len {
                            d[j] = $k.apply(x[j], y);
                        }
                    }
                    (Lanes(x), Rows(y, ys)) => {
                        let (x, y) = (x[i], &y[i * ys..][..len]);
                        for j in 0..len {
                            d[j] = $k.apply(x, y[j]);
                        }
                    }
                    (Lanes(x), Lanes(y)) => d.fill($k.apply(x[i], y[i])),
                }
            }
        };
    }
    with_binop!(op, go)
}

/// `dst[i] = op(a[i], b[i], c[i])`, one loop per operator: a zipped loop
/// over slices where all three operands are slices (`a + b·c` is not
/// contracted, so it vectorizes to the same bits), else one that resolves
/// each operand per element.
pub fn ter_loop(op: TernaryOp, a: OpRef<'_>, b: OpRef<'_>, c: OpRef<'_>, dst: &mut [f64]) {
    if let (OpRef::S(a), OpRef::S(b), OpRef::S(c)) = (a, b, c) {
        let n = dst.len();
        let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
        macro_rules! go {
            ($k:expr) => {
                for i in 0..n {
                    dst[i] = $k.apply(a[i], b[i], c[i]);
                }
            };
        }
        return match op {
            TernaryOp::PlusMult => go!(TernaryOp::PlusMult),
            TernaryOp::MinusMult => go!(TernaryOp::MinusMult),
            TernaryOp::IfElse => go!(TernaryOp::IfElse),
        };
    }
    // A uniform operand: the per-element resolution is a predictable
    // two-way branch.
    match op {
        TernaryOp::PlusMult => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = a.get(i) + b.get(i) * c.get(i);
            }
        }
        TernaryOp::MinusMult => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = a.get(i) - b.get(i) * c.get(i);
            }
        }
        TernaryOp::IfElse => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = if a.get(i) != 0.0 { b.get(i) } else { c.get(i) };
            }
        }
    }
}

/// `dst[i] = op(dst[i], b[i])`: [`bin_loop`] with the left operand read from
/// the slice it writes.
pub(crate) fn bin_loop_assign(op: BinaryOp, dst: &mut [f64], b: OpRef<'_>) {
    let n = dst.len();
    match b {
        OpRef::S(b) => {
            let b = &b[..n];
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = $k.apply(dst[i], b[i]);
                    }
                };
            }
            with_binop!(op, go)
        }
        OpRef::C(c) => {
            macro_rules! go {
                ($k:expr) => {
                    for v in dst.iter_mut() {
                        *v = $k.apply(*v, c);
                    }
                };
            }
            with_binop!(op, go)
        }
    }
}
