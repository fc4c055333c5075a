//! Panels: one compiled script with its bound inputs, checked against the
//! independent `hop::interp` oracle before it is ever timed.
//!
//! The oracle never sees the optimizer: it interprets the same expression
//! operator by operator with materialised intermediates. To keep its
//! intermediates (64 MB each at 8000×1000, 96 MB for the dense `U Vᵀ` of
//! fig8h) out of `rss_peak_mb`, it runs **blockwise**: the row-partitioned
//! inputs are cut into row blocks, each block is interpreted on a DAG built
//! for the block's geometry, and the block results are merged the way the
//! expression's root demands (add for aggregates over rows, stack for
//! row-aligned outputs). Map-class outputs must match bitwise; anything
//! with a reduction inside within 1e-9 relative.

use crate::trace::Tracer;
use crate::workloads::Check;
use fusedml_hop::interp::{self, Bindings};
use fusedml_hop::HopDag;
use fusedml_linalg::matrix::Value;
use fusedml_linalg::Matrix;
use fusedml_runtime::{CompiledScript, Engine};
use std::time::Instant;

/// The paper's four fused-operator templates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Template {
    Cell,
    MAgg,
    Row,
    Outer,
}

impl Template {
    pub const ALL: [Template; 4] = [Template::Cell, Template::MAgg, Template::Row, Template::Outer];

    /// The per-layer row this template's panels feed.
    pub fn metric(self) -> &'static str {
        match self {
            Template::Cell => "spoof.cell_ms_p50",
            Template::MAgg => "spoof.magg_ms_p50",
            Template::Row => "spoof.row_ms_p50",
            Template::Outer => "spoof.outer_ms_p50",
        }
    }
}

/// How exact the oracle comparison is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Element-wise only: bitwise equal to the oracle.
    Map,
    /// Contains a reduction (association order is backend-defined): 1e-9
    /// relative.
    Reduce,
}

/// How block results of the oracle combine into the full result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Roots aggregate over rows: block results add.
    Sum,
    /// Roots are row-aligned with the main input: block results stack.
    Concat,
}

/// Computed (not measured) work of one execution, for the GB/s, GFLOP/s and
/// Mnnz/s rows of the traced run: bytes are array sizes, so they ignore
/// cache misses and are labelled *computed* wherever they are printed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    pub bytes: f64,
    pub flops: f64,
    pub nnz: f64,
}

pub struct PanelSpec {
    pub name: &'static str,
    pub template: Template,
    /// Builds the expression for a main input of the given row count.
    pub build: Box<dyn Fn(usize) -> HopDag>,
    /// Rows of the main input.
    pub rows: usize,
    pub inputs: Vec<(&'static str, Matrix)>,
    pub class: Class,
    pub merge: Merge,
    /// Oracle block height in rows.
    pub block: usize,
    pub work: Work,
}

pub struct Panel {
    pub name: &'static str,
    pub template: Template,
    pub script: CompiledScript,
    pub bindings: Bindings,
}

/// Relative-or-absolute agreement at `tol` (the repository's `approx_eq`
/// rule, restated here so that no oracle depends on it).
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    a == b || (a.is_nan() && b.is_nan()) || diff <= tol || diff <= tol * a.abs().max(b.abs())
}

/// Compares one root's cells with the oracle's.
fn agree(root: usize, at: usize, got: &[f64], want: &[f64], class: Class) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("root {root}: {} cells, oracle has {}", got.len(), want.len()));
    }
    let bad = got.iter().zip(want).position(|(&a, &b)| match class {
        Class::Map => a.to_bits() != b.to_bits() && !(a == 0.0 && b == 0.0),
        Class::Reduce => !close(a, b, 1e-9),
    });
    match bad {
        None => Ok(()),
        Some(p) => Err(format!(
            "root {root} cell {}: engine {:e}, oracle {:e} ({class:?} class)",
            at + p,
            got[p],
            want[p]
        )),
    }
}

/// A root's cells as a dense row-major slice (copied only if it is CSR).
fn cells(v: &Value) -> std::borrow::Cow<'_, [f64]> {
    match v {
        Value::Scalar(s) => vec![*s].into(),
        Value::Matrix(Matrix::Dense(d)) => d.values().into(),
        Value::Matrix(m) => m.to_dense().into_values().into(),
    }
}

/// Compares whole roots with an oracle's, shapes included (the unblocked
/// form, for outputs small enough to hold twice).
pub fn roots_agree(got: &[Value], want: &[Value], class: Class) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} roots, oracle has {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let shape = |v: &Value| (v.as_matrix().rows(), v.as_matrix().cols());
        if shape(g) != shape(w) {
            return Err(format!("root {i} is {:?}, oracle {:?}", shape(g), shape(w)));
        }
        agree(i, 0, &cells(g), &cells(w), class)?;
    }
    Ok(())
}

/// Checks the engine's roots against the blockwise `hop::interp` oracle
/// (see the module comment). Row-aligned roots are compared block by block,
/// so the oracle never holds more than one block of any output.
pub fn oracle_check(spec: &PanelSpec, got: &[Value]) -> Result<(), String> {
    let got: Vec<_> = got.iter().map(cells).collect();
    let mut sums: Vec<Vec<f64>> = Vec::new();
    let mut r0 = 0;
    while r0 < spec.rows {
        let r1 = (r0 + spec.block).min(spec.rows);
        let dag = (spec.build)(r1 - r0);
        let bindings: Bindings = spec
            .inputs
            .iter()
            .map(|(name, m)| {
                let part = if m.rows() == spec.rows { m.row_slice(r0, r1) } else { m.clone() };
                (name.to_string(), part)
            })
            .collect();
        let want = interp::interpret(&dag, &bindings);
        if want.len() != got.len() {
            return Err(format!("{} roots, oracle has {}", got.len(), want.len()));
        }
        for (i, w) in want.iter().enumerate() {
            let w = cells(w);
            match spec.merge {
                Merge::Concat => {
                    let width = w.len() / (r1 - r0);
                    let band = got[i].get(r0 * width..r1 * width).ok_or_else(|| {
                        format!("root {i}: {} cells, oracle has more", got[i].len())
                    })?;
                    agree(i, r0 * width, band, &w, spec.class)?;
                }
                Merge::Sum if r0 == 0 => sums.push(w.into_owned()),
                Merge::Sum => sums[i].iter_mut().zip(w.iter()).for_each(|(a, b)| *a += b),
            }
        }
        r0 = r1;
    }
    match spec.merge {
        Merge::Concat => got.iter().enumerate().try_for_each(|(i, g)| {
            // Every block matched; the root must not be longer than them.
            let width = g.len() / spec.rows.max(1);
            (width * spec.rows == g.len()).then_some(()).ok_or_else(|| {
                format!("root {i}: {} cells do not tile {} rows", g.len(), spec.rows)
            })
        }),
        Merge::Sum => {
            sums.iter().enumerate().try_for_each(|(i, s)| agree(i, 0, &got[i], s, spec.class))
        }
    }
}

impl Panel {
    /// Compiles the panel on `engine` and checks one execution against the
    /// oracle. `Err` carries what disagreed (or what failed to compile or
    /// run); the caller counts it as an incorrect run.
    pub fn prepare(engine: &Engine, spec: &PanelSpec, check: Check) -> Result<Panel, String> {
        let dag = (spec.build)(spec.rows);
        let script =
            engine.try_compile(&dag).map_err(|e| format!("{}: compile: {e}", spec.name))?;
        let bindings: Bindings =
            spec.inputs.iter().map(|(n, m)| (n.to_string(), m.clone())).collect();
        let out = script.try_execute(&bindings).map_err(|e| format!("{}: {e}", spec.name))?;
        let verdict = match check {
            Check::Oracle => oracle_check(spec, out.values()),
            Check::Skip => Ok(()),
        };
        recycle(engine, out.into_values());
        verdict.map_err(|e| format!("{}: {e}", spec.name))?;
        Ok(Panel { name: spec.name, template: spec.template, script, bindings })
    }

    /// One timed execution through `try_execute`; the response is recycled
    /// into the engine's pool as a serving loop would. Returns milliseconds
    /// and whether the call succeeded.
    pub fn execute(&self, tr: &mut Tracer, part: u32, unit: u32) -> (f64, bool) {
        let t0 = Instant::now();
        tr.enter("runtime.CompiledScript.try_execute", part, unit);
        let result = self.script.try_execute(&self.bindings);
        tr.exit();
        let ok = match result {
            Ok(out) => {
                std::hint::black_box(out.values());
                recycle(self.script.engine(), out.into_values());
                true
            }
            Err(_) => false,
        };
        (t0.elapsed().as_secs_f64() * 1e3, ok)
    }
}

/// Returns a response's buffers to the engine's pool.
pub fn recycle(engine: &Engine, values: Vec<Value>) {
    let _scope = engine.scope();
    values.into_iter().for_each(Value::recycle);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_hop::DagBuilder;

    #[test]
    fn map_class_is_bitwise_and_reduce_class_is_relative() {
        let a = 1.0 + f64::EPSILON;
        assert!(agree(0, 0, &[a], &[1.0], Class::Map).is_err());
        assert!(agree(0, 0, &[a], &[1.0], Class::Reduce).is_ok());
        assert!(agree(0, 0, &[1.0 + 1e-8], &[1.0], Class::Reduce).is_err());
        assert!(agree(0, 0, &[1e12 + 1.0], &[1e12], Class::Reduce).is_ok());
        assert!(agree(0, 0, &[], &[1.0], Class::Reduce).is_err());
    }

    /// `t(X)(Xv)` (adds over row blocks) and `sigmoid(Xv)` (stacks), cut
    /// into uneven blocks, must agree with interpreting the whole input —
    /// and must notice a single wrong cell.
    #[test]
    fn blockwise_oracle_equals_the_whole_interpretation() {
        let x = crate::gen::dense(10, 4, 0.1, 1.0, &mut crate::gen::Rng::new(1, "X"));
        let v = crate::gen::dense(4, 1, 0.1, 1.0, &mut crate::gen::Rng::new(1, "v"));
        for merge in [Merge::Sum, Merge::Concat] {
            let spec = PanelSpec {
                name: "t",
                template: Template::Row,
                build: Box::new(move |rows| {
                    let mut b = DagBuilder::new();
                    let xh = b.read("X", rows, 4, 1.0);
                    let vh = b.read("v", 4, 1, 1.0);
                    let xv = b.mm(xh, vh);
                    let root = if merge == Merge::Sum {
                        let xt = b.t(xh);
                        b.mm(xt, xv)
                    } else {
                        b.sigmoid(xv)
                    };
                    b.build(vec![root])
                }),
                rows: 10,
                inputs: vec![("X", x.clone()), ("v", v.clone())],
                class: Class::Reduce,
                merge,
                block: 3,
                work: Work::default(),
            };
            let whole = interp::interpret(
                &(spec.build)(10),
                &interp::bind(&[("X", x.clone()), ("v", v.clone())]),
            );
            assert_eq!(oracle_check(&spec, &whole), Ok(()), "{merge:?}");
            let mut wrong = whole[0].as_matrix().to_dense();
            let last = wrong.len() - 1;
            wrong.values_mut()[last] *= 1.001;
            let wrong = [Value::Matrix(Matrix::dense(wrong))];
            assert!(oracle_check(&spec, &wrong).is_err(), "{merge:?}");
        }
    }
}
