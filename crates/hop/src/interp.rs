//! Reference interpreter: executes a HOP DAG operator-by-operator with fully
//! materialized intermediates.
//!
//! This is the `Base` execution mode of the paper's evaluation and the
//! correctness oracle against which fused execution is validated in tests.

use crate::dag::{HopDag, HopId};
use crate::hop::OpKind;
use fusedml_linalg::matrix::Value;
use fusedml_linalg::ops as lops;
use fusedml_linalg::Matrix;
use std::collections::HashMap;

/// Execution-time bindings of `Read` names to matrices.
pub type Bindings = HashMap<String, Matrix>;

/// Builds [`Bindings`] from `(name, matrix)` pairs — the ergonomic way to
/// bind inputs for `CompiledScript::execute` and the tests' oracle paths.
///
/// ```
/// use fusedml_hop::interp::bind;
/// use fusedml_linalg::Matrix;
/// let b = bind(&[("X", Matrix::zeros(2, 2))]);
/// assert!(b.contains_key("X"));
/// ```
pub fn bind(pairs: &[(&str, Matrix)]) -> Bindings {
    pairs.iter().map(|(n, m)| (n.to_string(), m.clone())).collect()
}

/// A typed binding defect: what `validate_bindings` reports instead of the
/// interpreter's panic. The runtime converts these into its `ExecError`
/// variants so `try_execute` callers get a structured error, not an abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// A live `Read` has no matrix bound under its name.
    Unbound { name: String },
    /// A bound matrix disagrees with the shape the DAG was compiled for.
    Shape { name: String, expected: (usize, usize), bound: (usize, usize) },
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::Unbound { name } => write!(f, "unbound input matrix '{name}'"),
            BindError::Shape { name, expected, bound } => write!(
                f,
                "bound matrix '{name}' is {}x{} but the plan was compiled for {}x{}",
                bound.0, bound.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for BindError {}

/// Checks every live `Read` of the DAG against `bindings`: present, and
/// exactly the declared shape. This is the fallible twin of the shape
/// assertion the interpreter makes at `Read` evaluation — run it up front
/// and execution cannot abort on a binding defect.
pub fn validate_bindings(dag: &HopDag, bindings: &Bindings) -> Result<(), BindError> {
    for (name, rows, cols) in dag.input_shapes() {
        let Some(m) = bindings.get(&name) else {
            return Err(BindError::Unbound { name });
        };
        if (m.rows(), m.cols()) != (rows, cols) {
            return Err(BindError::Shape {
                name,
                expected: (rows, cols),
                bound: (m.rows(), m.cols()),
            });
        }
    }
    Ok(())
}

/// The `(name, rows, cols)` geometry of the bound matrices for the given
/// input names, sorted by name — the execution-side counterpart of
/// [`crate::HopDag::input_shapes`]. Panics on a missing binding, mirroring
/// the interpreter's unbound-input error.
pub fn bound_shapes(bindings: &Bindings, names: &[String]) -> Vec<(String, usize, usize)> {
    let mut out: Vec<(String, usize, usize)> = names
        .iter()
        .map(|n| {
            let m = bindings.get(n).unwrap_or_else(|| panic!("unbound input matrix '{n}'"));
            (n.clone(), m.rows(), m.cols())
        })
        .collect();
    out.sort();
    out
}

/// Executes all live operators bottom-up; returns the values of all nodes
/// (dead nodes hold `None`).
pub fn interpret_all(dag: &HopDag, bindings: &Bindings) -> Vec<Option<Value>> {
    let live = dag.live_set();
    let mut vals: Vec<Option<Value>> = vec![None; dag.len()];
    for h in dag.iter() {
        if !live[h.id.index()] {
            continue;
        }
        let v = eval_op(dag, h.id, &vals, bindings);
        vals[h.id.index()] = Some(v);
    }
    vals
}

/// Executes the DAG and returns the root values in root order. Roots are
/// *moved* out of the value table (they are deduplicated at build time), not
/// cloned.
pub fn interpret(dag: &HopDag, bindings: &Bindings) -> Vec<Value> {
    let mut vals = interpret_all(dag, bindings);
    dag.roots().iter().map(|r| vals[r.index()].take().expect("root evaluated")).collect()
}

/// Evaluates a single operator given already-computed input values.
pub fn eval_op(dag: &HopDag, id: HopId, vals: &[Option<Value>], bindings: &Bindings) -> Value {
    let h = dag.hop(id);
    let refs: Vec<&Value> = h
        .inputs
        .iter()
        .map(|&i| vals[i.index()].as_ref().expect("inputs evaluated before consumers"))
        .collect();
    eval_kind(dag, id, &refs, bindings)
}

/// Evaluates a single operator over *positional* input values (the scheduled
/// executor gathers inputs per task instead of holding a full value table).
pub fn eval_op_inputs(dag: &HopDag, id: HopId, inputs: &[&Value], bindings: &Bindings) -> Value {
    eval_kind(dag, id, inputs, bindings)
}

fn eval_kind(dag: &HopDag, id: HopId, input_refs: &[&Value], bindings: &Bindings) -> Value {
    let h = dag.hop(id);
    let input = |j: usize| -> &Value { input_refs[j] };
    match &h.kind {
        OpKind::Read { name } => {
            let m = bindings
                .get(name)
                .unwrap_or_else(|| panic!("unbound input matrix '{name}'"))
                .clone();
            assert_eq!(
                (m.rows(), m.cols()),
                (h.size.rows, h.size.cols),
                "bound matrix '{name}' does not match declared shape"
            );
            Value::Matrix(m)
        }
        OpKind::Literal { value } => Value::Scalar(*value),
        OpKind::Unary { op } => Value::Matrix(lops::unary(&input(0).as_matrix(), *op)),
        OpKind::Binary { op } => {
            let a = input(0);
            let b = input(1);
            match (a, b) {
                (Value::Scalar(x), Value::Scalar(y)) => Value::Scalar(op.apply(*x, *y)),
                (Value::Scalar(x), Value::Matrix(m)) => {
                    Value::Matrix(lops::elementwise::scalar_binary(*x, m, *op))
                }
                (Value::Matrix(m), Value::Scalar(y)) => {
                    Value::Matrix(lops::binary_scalar(m, *y, *op))
                }
                (Value::Matrix(x), Value::Matrix(y)) => Value::Matrix(lops::binary(x, y, *op)),
            }
        }
        OpKind::Ternary { op } => {
            let a = input(0).as_matrix();
            let b = input(1).as_matrix();
            let c = input(2).as_matrix();
            Value::Matrix(lops::ternary(&a, &b, &c, *op))
        }
        OpKind::MatMult => {
            Value::Matrix(lops::matmult(&input(0).as_matrix(), &input(1).as_matrix()))
        }
        OpKind::Transpose => Value::Matrix(lops::transpose(&input(0).as_matrix())),
        OpKind::Agg { op, dir } => {
            let r = lops::agg(&input(0).as_matrix(), *op, *dir);
            if r.is_scalar_shaped() {
                Value::Scalar(r.get(0, 0))
            } else {
                Value::Matrix(r)
            }
        }
        OpKind::CumAgg { op } => Value::Matrix(lops::cum_agg(&input(0).as_matrix(), *op)),
        OpKind::RightIndex { rows, cols } => {
            let m = input(0).as_matrix();
            let rr = rows.map(|(a, b)| a..b).unwrap_or(0..m.rows());
            let cc = cols.map(|(a, b)| a..b).unwrap_or(0..m.cols());
            Value::Matrix(lops::index_range(&m, rr, cc))
        }
        OpKind::CBind => Value::Matrix(lops::cbind(&input(0).as_matrix(), &input(1).as_matrix())),
        OpKind::RBind => Value::Matrix(lops::rbind(&input(0).as_matrix(), &input(1).as_matrix())),
        OpKind::Diag => Value::Matrix(lops::diag(&input(0).as_matrix())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use fusedml_linalg::generate;

    fn bind(pairs: &[(&str, Matrix)]) -> Bindings {
        pairs.iter().map(|(n, m)| (n.to_string(), m.clone())).collect()
    }

    #[test]
    fn sum_of_product() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2, 2, 1.0);
        let y = b.read("Y", 2, 2, 1.0);
        let m = b.mult(x, y);
        let s = b.sum(m);
        let dag = b.build(vec![s]);
        let xm = generate::rand_dense(2, 2, 0.0, 1.0, 1);
        let ym = generate::rand_dense(2, 2, 0.0, 1.0, 2);
        let out = interpret(&dag, &bind(&[("X", xm.clone()), ("Y", ym.clone())]));
        let expect: f64 = (0..2)
            .flat_map(|r| (0..2).map(move |c| (r, c)))
            .map(|(r, c)| xm.get(r, c) * ym.get(r, c))
            .sum();
        assert!(fusedml_linalg::approx_eq(out[0].as_scalar(), expect, 1e-12));
    }

    #[test]
    fn mlogreg_core_expression_shapes() {
        // Q = P[,0:k] * (X v); H = t(X) (Q - P[,0:k] * rowSums(Q))
        let (n, m, k) = (30, 8, 3);
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, 1.0);
        let p = b.read("P", n, k + 1, 1.0);
        let v = b.read("V", m, k, 1.0);
        let xv = b.mm(x, v);
        let pk = b.rix(p, None, Some((0, k)));
        let q = b.mult(pk, xv);
        let rs = b.row_sums(q);
        let prs = b.mult(pk, rs);
        let diff = b.sub(q, prs);
        let xt = b.t(x);
        let h = b.mm(xt, diff);
        let dag = b.build(vec![h]);
        let out = interpret(
            &dag,
            &bind(&[
                ("X", generate::rand_dense(n, m, 0.0, 1.0, 3)),
                ("P", generate::rand_dense(n, k + 1, 0.0, 1.0, 4)),
                ("V", generate::rand_dense(m, k, 0.0, 1.0, 5)),
            ]),
        );
        let hm = out[0].as_matrix();
        assert_eq!((hm.rows(), hm.cols()), (m, k));
    }

    #[test]
    fn scalar_arithmetic_chains() {
        let mut b = DagBuilder::new();
        let c1 = b.lit(2.0);
        let c2 = b.lit(5.0);
        let s = b.add(c1, c2);
        let x = b.read("X", 2, 2, 1.0);
        let y = b.mult(x, s);
        let dag = b.build(vec![y]);
        let xm = Matrix::dense(fusedml_linalg::DenseMatrix::filled(2, 2, 1.0));
        let out = interpret(&dag, &bind(&[("X", xm)]));
        assert_eq!(out[0].as_matrix().get(0, 0), 7.0);
    }

    #[test]
    #[should_panic(expected = "unbound input matrix")]
    fn missing_binding_panics() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2, 2, 1.0);
        let dag = b.build(vec![x]);
        interpret(&dag, &Bindings::new());
    }

    #[test]
    #[should_panic(expected = "does not match declared shape")]
    fn wrong_shape_binding_panics() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2, 2, 1.0);
        let dag = b.build(vec![x]);
        interpret(&dag, &bind(&[("X", Matrix::zeros(3, 3))]));
    }

    #[test]
    fn validate_bindings_reports_typed_defects() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2, 3, 1.0);
        let y = b.read("Y", 2, 3, 1.0);
        let s = b.add(x, y);
        let dag = b.build(vec![s]);
        let ok = bind(&[("X", Matrix::zeros(2, 3)), ("Y", Matrix::zeros(2, 3))]);
        assert_eq!(validate_bindings(&dag, &ok), Ok(()));
        let missing = bind(&[("X", Matrix::zeros(2, 3))]);
        assert_eq!(validate_bindings(&dag, &missing), Err(BindError::Unbound { name: "Y".into() }));
        let misshaped = bind(&[("X", Matrix::zeros(2, 3)), ("Y", Matrix::zeros(3, 2))]);
        assert_eq!(
            validate_bindings(&dag, &misshaped),
            Err(BindError::Shape { name: "Y".into(), expected: (2, 3), bound: (3, 2) })
        );
    }
}
