//! Code generation: CPlan → rendered operator source + compiled register
//! program (paper §2.1 step 4; DESIGN.md substitution X1). There is one
//! compiler: the register program is built directly from the CPlan, and the
//! rendered source is for reading (`explain`, the examples), not an input to
//! anything.

use crate::cplan::{CNode, CPlan, CellAggKind, NodeId, OuterOutKind, OutputSpec, RowOutKind};
use crate::spoof::block::{self, BlockKernel, Kernel, RowKernel, RowShape};
use crate::spoof::mono::ShapeClass;
use crate::spoof::{
    CellAgg, CellSpec, FusedSpec, Instr, MAggSpec, OuterOut, OuterSpec, Program, Reg, RowOut,
    RowSpec,
};
use crate::util::FxHashMap;
use std::fmt::Write as _;

/// Codegen options: none. The struct and the `opts` parameter of
/// [`generate`] exist because `fusebench/src/layers.rs:262,326` (frozen with
/// the benchmark) constructs and passes one; both go with the next
/// `benchmark` PR.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodegenOptions {}

/// A generated fused operator: source text, compiled program, the kernel it
/// runs, identity.
#[derive(Clone, Debug)]
pub struct GeneratedOperator {
    /// Class-style name (`TMP4`).
    pub name: String,
    /// Rendered operator source (Java-flavoured like the paper's listings).
    pub source: String,
    /// The compiled register program + template variant.
    pub spec: FusedSpec,
    /// Structural CPlan hash (plan-cache key).
    pub plan_hash: u64,
    /// The lowered kernel the skeletons run: lowered once, here, under the
    /// CPlan's side geometry; every plan the plan cache hands this operator
    /// to runs this kernel.
    pub kernel: Kernel,
    /// The kernel family `kernel` runs under.
    pub class: ShapeClass,
}

/// Compiles a CPlan into a generated operator.
pub fn generate(cplan: &CPlan, name: &str, _opts: &CodegenOptions) -> GeneratedOperator {
    let spec = compile_spec(cplan);
    let source = render_source(cplan, name, &spec);
    GeneratedOperator::new(
        name.to_string(),
        source,
        spec,
        cplan.structural_hash(),
        &cplan.side_dims,
    )
}

impl GeneratedOperator {
    /// An operator over a compiled spec, lowered under `side_dims` (`(rows,
    /// cols)` per side; only Row lowering reads them): the Row template to
    /// a band kernel, the others to a block kernel.
    pub fn new(
        name: String,
        source: String,
        spec: FusedSpec,
        plan_hash: u64,
        side_dims: &[(usize, usize)],
    ) -> Self {
        let (kernel, class) = match &spec {
            FusedSpec::Row(r) => {
                let k = block::compile_row_kernel(r, side_dims);
                let class = row_class(r, &k);
                (Kernel::Row(k), class)
            }
            FusedSpec::Cell(CellSpec { result, .. })
            | FusedSpec::Outer(OuterSpec { result, .. }) => {
                let k = block::compile_kernel(spec.program());
                let class = block_class(&k, std::slice::from_ref(result));
                (Kernel::Block(k), class)
            }
            FusedSpec::MAgg(m) => {
                let k = block::compile_kernel(&m.prog);
                let regs: Vec<Reg> = m.results.iter().map(|&(r, _)| r).collect();
                let class = block_class(&k, &regs);
                (Kernel::Block(k), class)
            }
        };
        GeneratedOperator { name, source, spec, plan_hash, kernel, class }
    }
}

/// A block template's class: a product chain only when *every* result
/// register is one (otherwise the tile body still runs and the operator
/// counts as interpreted).
fn block_class(kernel: &BlockKernel, regs: &[Reg]) -> ShapeClass {
    if kernel.tiled() && !regs.is_empty() && regs.iter().all(|&r| kernel.mono_for(r).is_some()) {
        ShapeClass::ProductChain
    } else {
        ShapeClass::Interpreted
    }
}

/// A Row operator's class: the mv-chain shape, a row tile whose
/// matrix-shaped work runs in the gemm micro-kernel, or the band
/// interpreter.
fn row_class(spec: &RowSpec, kernel: &RowKernel) -> ShapeClass {
    let matrix_shaped = matches!(spec.out, RowOut::OuterColAgg { .. })
        || kernel.per_row.iter().any(|i| matches!(i, Instr::VecMatMult { .. }));
    match kernel.shape {
        Some(RowShape::MvChain { .. }) => ShapeClass::MvChain,
        None if matrix_shaped => ShapeClass::RowTile,
        None => ShapeClass::Interpreted,
    }
}

// ===========================================================================
// Program compilation
// ===========================================================================

/// Node value class during register allocation.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Scalar(Reg),
    Vector(u16, usize), // (vreg, len)
}

struct ProgCompiler<'a> {
    cplan: &'a CPlan,
    prog: Program,
    classes: FxHashMap<NodeId, Class>,
    next_sreg: u16,
}

impl<'a> ProgCompiler<'a> {
    fn new(cplan: &'a CPlan) -> Self {
        ProgCompiler {
            cplan,
            prog: Program::default(),
            classes: FxHashMap::default(),
            next_sreg: 0,
        }
    }

    fn sreg(&mut self) -> Reg {
        let r = self.next_sreg;
        self.next_sreg += 1;
        r
    }

    fn vreg(&mut self, len: usize) -> u16 {
        self.prog.vreg_lens.push(len);
        (self.prog.vreg_lens.len() - 1) as u16
    }

    fn scalar_of(&self, n: NodeId) -> Reg {
        match self.classes[&n] {
            Class::Scalar(r) => r,
            Class::Vector(..) => panic!("expected scalar node {n}"),
        }
    }

    fn vector_of(&self, n: NodeId) -> (u16, usize) {
        match self.classes[&n] {
            Class::Vector(v, l) => (v, l),
            Class::Scalar(_) => panic!("expected vector node {n}"),
        }
    }

    fn compile(mut self) -> (Program, FxHashMap<NodeId, Class>) {
        for (i, node) in self.cplan.nodes.iter().enumerate() {
            let id = i as NodeId;
            let cls = match node {
                CNode::Main => {
                    let r = self.sreg();
                    self.prog.instrs.push(Instr::LoadMain { out: r });
                    Class::Scalar(r)
                }
                CNode::UVDot => {
                    let r = self.sreg();
                    self.prog.instrs.push(Instr::LoadUVDot { out: r });
                    Class::Scalar(r)
                }
                CNode::Side { side, access } => {
                    let r = self.sreg();
                    self.prog.instrs.push(Instr::LoadSide { out: r, side: *side, access: *access });
                    Class::Scalar(r)
                }
                CNode::ScalarInput { idx } => {
                    let r = self.sreg();
                    self.prog.instrs.push(Instr::LoadScalar { out: r, idx: *idx });
                    Class::Scalar(r)
                }
                CNode::Const { value } => {
                    let r = self.sreg();
                    self.prog.instrs.push(Instr::LoadConst { out: r, value: *value });
                    Class::Scalar(r)
                }
                CNode::MainRow => {
                    let v = self.vreg(self.cplan.iter_cols);
                    self.prog.instrs.push(Instr::LoadMainRow { out: v });
                    Class::Vector(v, self.cplan.iter_cols)
                }
                CNode::SideRow { .. } | CNode::SideVector { .. } => {
                    let (side, cl, cu) = self.cplan.side_row_lanes(node).expect("a side-row node");
                    let v = self.vreg(cu - cl);
                    self.prog.instrs.push(Instr::LoadSideRow { out: v, side, cl, cu });
                    Class::Vector(v, cu - cl)
                }
                CNode::Unary { op, a } => match self.classes[a] {
                    Class::Scalar(ra) => {
                        let r = self.sreg();
                        self.prog.instrs.push(Instr::Unary { out: r, op: *op, a: ra });
                        Class::Scalar(r)
                    }
                    Class::Vector(va, l) => {
                        let v = self.vreg(l);
                        self.prog.instrs.push(Instr::VecUnary { out: v, op: *op, a: va });
                        Class::Vector(v, l)
                    }
                },
                CNode::Binary { op, a, b } => match (self.classes[a], self.classes[b]) {
                    (Class::Scalar(ra), Class::Scalar(rb)) => {
                        let r = self.sreg();
                        self.prog.instrs.push(Instr::Binary { out: r, op: *op, a: ra, b: rb });
                        Class::Scalar(r)
                    }
                    (Class::Vector(va, l), Class::Vector(vb, l2)) => {
                        assert_eq!(l, l2, "vector length mismatch in codegen");
                        let v = self.vreg(l);
                        self.prog.instrs.push(Instr::VecBinaryVV { out: v, op: *op, a: va, b: vb });
                        Class::Vector(v, l)
                    }
                    (Class::Vector(va, l), Class::Scalar(rb)) => {
                        let v = self.vreg(l);
                        self.prog.instrs.push(Instr::VecBinaryVS {
                            out: v,
                            op: *op,
                            a: va,
                            b: rb,
                            scalar_left: false,
                        });
                        Class::Vector(v, l)
                    }
                    (Class::Scalar(ra), Class::Vector(vb, l)) => {
                        let v = self.vreg(l);
                        self.prog.instrs.push(Instr::VecBinaryVS {
                            out: v,
                            op: *op,
                            a: vb,
                            b: ra,
                            scalar_left: true,
                        });
                        Class::Vector(v, l)
                    }
                },
                CNode::Ternary { op, a, b, c } => {
                    let (ra, rb, rc) = (self.scalar_of(*a), self.scalar_of(*b), self.scalar_of(*c));
                    let r = self.sreg();
                    self.prog.instrs.push(Instr::Ternary { out: r, op: *op, a: ra, b: rb, c: rc });
                    Class::Scalar(r)
                }
                CNode::VectMatMult { a, side } => {
                    let (va, _) = self.vector_of(*a);
                    let k = self.cplan.side_dims[*side].1;
                    let v = self.vreg(k);
                    self.prog.instrs.push(Instr::VecMatMult { out: v, a: va, side: *side });
                    Class::Vector(v, k)
                }
                CNode::Dot { a, b } => {
                    let (va, _) = self.vector_of(*a);
                    let (vb, _) = self.vector_of(*b);
                    let r = self.sreg();
                    self.prog.instrs.push(Instr::Dot { out: r, a: va, b: vb });
                    Class::Scalar(r)
                }
                CNode::VecAgg { op, a } => {
                    let (va, _) = self.vector_of(*a);
                    let r = self.sreg();
                    self.prog.instrs.push(Instr::VecAgg { out: r, op: *op, a: va });
                    Class::Scalar(r)
                }
            };
            self.classes.insert(id, cls);
        }
        self.prog.n_regs = self.next_sreg;
        (self.prog, self.classes)
    }
}

/// Compiles the CPlan into the template-specific [`FusedSpec`].
pub fn compile_spec(cplan: &CPlan) -> FusedSpec {
    let (prog, classes) = ProgCompiler::new(cplan).compile();
    let scalar = |n: NodeId| match classes[&n] {
        Class::Scalar(r) => r,
        Class::Vector(..) => panic!("expected scalar output node"),
    };
    let vector = |n: NodeId| match classes[&n] {
        Class::Vector(v, _) => v,
        Class::Scalar(_) => panic!("expected vector output node"),
    };
    match &cplan.output {
        OutputSpec::Cell { result, agg } => FusedSpec::Cell(CellSpec {
            prog,
            result: scalar(*result),
            agg: match agg {
                CellAggKind::NoAgg => CellAgg::NoAgg,
                CellAggKind::RowAgg(op) => CellAgg::RowAgg(*op),
                CellAggKind::ColAgg(op) => CellAgg::ColAgg(*op),
                CellAggKind::FullAgg(op) => CellAgg::FullAgg(*op),
            },
            sparse_safe: cplan.sparse_safe(),
        }),
        OutputSpec::MAgg { results } => FusedSpec::MAgg(MAggSpec {
            prog,
            results: results.iter().map(|(n, op)| (scalar(*n), *op)).collect(),
            sparse_safe: cplan.sparse_safe(),
        }),
        OutputSpec::Row { out } => FusedSpec::Row(RowSpec {
            out: match out {
                RowOutKind::NoAgg { src } => RowOut::NoAgg { src: vector(*src) },
                RowOutKind::RowAgg { src } => RowOut::RowAgg { src: scalar(*src) },
                RowOutKind::ColAgg { src } => RowOut::ColAgg { src: vector(*src) },
                RowOutKind::FullAgg { src } => RowOut::FullAgg { src: scalar(*src) },
                RowOutKind::OuterColAgg { left, right } => {
                    RowOut::OuterColAgg { left: vector(*left), right: vector(*right) }
                }
                RowOutKind::ColAggMultAdd { vec, scalar: s } => {
                    RowOut::ColAggMultAdd { vec: vector(*vec), scalar: scalar(*s) }
                }
            },
            prog,
        }),
        OutputSpec::Outer { result, out } => {
            let (u_side, v_side, rank) = cplan.outer_uv.expect("outer plan has UV binding");
            FusedSpec::Outer(OuterSpec {
                prog,
                result: scalar(*result),
                out: match out {
                    OuterOutKind::FullAgg => OuterOut::FullAgg,
                    OuterOutKind::RightMM { side } => OuterOut::RightMM { side: *side },
                    OuterOutKind::LeftMM { side } => OuterOut::LeftMM { side: *side },
                    OuterOutKind::NoAgg => OuterOut::NoAgg,
                },
                u_side,
                v_side,
                rank,
                sparse_safe: cplan.sparse_safe(),
            })
        }
    }
}

/// Lowering of the compiled spec: Cell/MAgg/Outer programs lower to the
/// tile-vectorized block backend (generic body plus the per-register mono
/// kernel table, DESIGN.md X1). Row programs lower separately
/// through [`block::compile_row_kernel`], which needs the CPlan's side
/// geometry ([`GeneratedOperator::new`] does both).
pub fn lower_block_kernel(spec: &FusedSpec) -> Option<BlockKernel> {
    match spec {
        FusedSpec::Cell(_) | FusedSpec::MAgg(_) | FusedSpec::Outer(_) => {
            Some(block::compile_kernel(spec.program()))
        }
        FusedSpec::Row(_) => None,
    }
}

// ===========================================================================
// Source rendering (paper §2.2 listings)
// ===========================================================================

/// Renders operator source in the style of the paper's generated Java.
pub fn render_source(cplan: &CPlan, name: &str, spec: &FusedSpec) -> String {
    let mut s = String::with_capacity(512);
    let (skeleton, variant) = match spec {
        FusedSpec::Cell(c) => ("SpoofCellwise", format!("{:?}", c.agg)),
        FusedSpec::MAgg(m) => ("SpoofMultiAggregate", format!("{} aggs", m.results.len())),
        FusedSpec::Row(r) => ("SpoofRowwise", format!("{:?}", r.out)),
        FusedSpec::Outer(o) => ("SpoofOuterProduct", format!("{:?}", o.out)),
    };
    let _ = writeln!(s, "public final class {name} extends {skeleton} {{");
    let _ = writeln!(
        s,
        "  // variant: {variant}; sides: {}; scalars: {}; sparse-safe: {}",
        cplan.sides.len(),
        cplan.scalars.len(),
        cplan.sparse_safe()
    );
    let _ = writeln!(s, "  protected genexec(...) {{");
    for ins in &spec.program().instrs {
        let _ = writeln!(s, "    {}", render_instr(ins));
    }
    let _ = writeln!(s, "    // output: {:?}", cplan.output);
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

fn render_instr(ins: &Instr) -> String {
    match ins {
        Instr::LoadMain { out } => format!("double t{out} = a;"),
        Instr::LoadUVDot { out } => format!("double t{out} = dotProduct(a1, a2, a1i, a2i, len);"),
        Instr::LoadSide { out, side, access } => {
            format!("double t{out} = getValue(b[{side}], {access:?});")
        }
        Instr::LoadScalar { out, idx } => format!("double t{out} = scalars[{idx}];"),
        Instr::LoadConst { out, value } => format!("double t{out} = {value};"),
        Instr::Unary { out, op, a } => format!("double t{out} = {}(t{a});", op.name()),
        Instr::Binary { out, op, a, b } => format!("double t{out} = t{a} {} t{b};", op.name()),
        Instr::Ternary { out, op, a, b, c } => {
            format!("double t{out} = {}(t{a}, t{b}, t{c});", op.name())
        }
        Instr::LoadMainRow { out } => format!("double[] v{out} = a.values(rix);"),
        Instr::LoadSideRow { out, side, cl, cu } => {
            format!("double[] v{out} = getVector(b[{side}].vals(rix), {cl}, {cu});")
        }
        Instr::VecUnary { out, op, a } => {
            format!("double[] v{out} = vect{}Write(v{a});", camel(op.name()))
        }
        Instr::VecBinaryVV { out, op, a, b } => {
            format!("double[] v{out} = vect{}Write(v{a}, v{b});", camel(op.name()))
        }
        Instr::VecBinaryVS { out, op, a, b, scalar_left } => {
            if *scalar_left {
                format!("double[] v{out} = vect{}Write(t{b}, v{a});", camel(op.name()))
            } else {
                format!("double[] v{out} = vect{}Write(v{a}, t{b});", camel(op.name()))
            }
        }
        Instr::VecMatMult { out, a, side } => {
            format!("double[] v{out} = vectMatrixMult(v{a}, b[{side}].vals(), ...);")
        }
        Instr::Dot { out, a, b } => format!("double t{out} = dotProduct(v{a}, v{b}, len);"),
        Instr::VecAgg { out, op, a } => format!("double t{out} = vect{op:?}(v{a});"),
        Instr::VecCumsum { out, a } => format!("double[] v{out} = vectCumsum(v{a});"),
    }
}

fn camel(name: &str) -> String {
    match name {
        "+" => "Plus".to_string(),
        "-" => "Minus".to_string(),
        "*" => "Mult".to_string(),
        "/" => "Div".to_string(),
        "^" => "Pow".to_string(),
        "==" => "Equal".to_string(),
        "!=" => "NotEqual".to_string(),
        "<" => "Less".to_string(),
        "<=" => "LessEqual".to_string(),
        ">" => "Greater".to_string(),
        ">=" => "GreaterEqual".to_string(),
        other => {
            let mut c = other.chars();
            match c.next() {
                Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
                None => String::new(),
            }
        }
    }
}
