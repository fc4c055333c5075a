//! The arena-allocated HOP DAG.

use crate::hop::{Hop, OpKind};
use std::fmt;

/// Identifier of a HOP node: an index into the DAG arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HopId(pub u32);

impl HopId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A DAG of HOP nodes for one statement block. Nodes are stored in creation
/// order, which is a valid topological order (inputs precede consumers).
#[derive(Clone, Debug, Default)]
pub struct HopDag {
    hops: Vec<Hop>,
    roots: Vec<HopId>,
}

impl HopDag {
    /// An empty DAG (populated through [`crate::builder::DagBuilder`]).
    pub fn new() -> Self {
        HopDag::default()
    }

    /// Adds a node; used by the builder. Inputs must already exist.
    pub(crate) fn push(
        &mut self,
        kind: OpKind,
        inputs: Vec<HopId>,
        size: crate::SizeInfo,
    ) -> HopId {
        debug_assert!(inputs.iter().all(|i| i.index() < self.hops.len()));
        debug_assert_eq!(inputs.len(), kind.arity(), "arity mismatch for {kind:?}");
        let id = HopId(self.hops.len() as u32);
        self.hops.push(Hop { id, kind, inputs, size });
        id
    }

    /// Marks a node as a DAG root (an output consumed by later blocks).
    pub fn add_root(&mut self, id: HopId) {
        if !self.roots.contains(&id) {
            self.roots.push(id);
        }
    }

    /// All root node ids.
    pub fn roots(&self) -> &[HopId] {
        &self.roots
    }

    /// Node accessor.
    #[inline]
    pub fn hop(&self, id: HopId) -> &Hop {
        &self.hops[id.index()]
    }

    /// Mutable node accessor for verifier mutation tests only: lets a test
    /// corrupt a compiled artifact (e.g. drift a stored size) to prove the
    /// verifier catches it. Not part of the public API contract.
    #[doc(hidden)]
    pub fn hop_mut(&mut self, id: HopId) -> &mut Hop {
        &mut self.hops[id.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Iterates nodes in topological (creation) order.
    pub fn iter(&self) -> impl Iterator<Item = &Hop> {
        self.hops.iter()
    }

    /// Computes the consumer lists (`id → ids of hops reading it`). Roots
    /// additionally count as having one external consumer in the optimizer's
    /// materialization reasoning; that adjustment is applied there, not here.
    pub fn consumers(&self) -> Vec<Vec<HopId>> {
        let mut out = vec![Vec::new(); self.hops.len()];
        for h in &self.hops {
            for &i in &h.inputs {
                out[i.index()].push(h.id);
            }
        }
        out
    }

    /// Number of consumers per node (cheaper than [`HopDag::consumers`]).
    pub fn consumer_counts(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.hops.len()];
        for h in &self.hops {
            for &i in &h.inputs {
                out[i.index()] += 1;
            }
        }
        out
    }

    /// The set of nodes reachable from the roots (a builder may leave nodes
    /// that no root reads).
    pub fn live_set(&self) -> Vec<bool> {
        let mut live = vec![false; self.hops.len()];
        let mut stack: Vec<HopId> = self.roots.clone();
        while let Some(id) = stack.pop() {
            if !live[id.index()] {
                live[id.index()] = true;
                stack.extend(self.hop(id).inputs.iter().copied());
            }
        }
        live
    }

    /// The declared geometry of every *live* `Read` input, sorted by name:
    /// `(name, rows, cols)`. This is the geometry a compiled script was
    /// costed under; executors compare it against the bound matrices to
    /// decide whether the plan is still valid.
    pub fn input_shapes(&self) -> Vec<(String, usize, usize)> {
        let live = self.live_set();
        let mut out: Vec<(String, usize, usize)> = self
            .hops
            .iter()
            .filter(|h| live[h.id.index()])
            .filter_map(|h| match &h.kind {
                OpKind::Read { name } => Some((name.clone(), h.size.rows, h.size.cols)),
                _ => None,
            })
            .collect();
        out.sort();
        out
    }

    /// Rebuilds this DAG with updated `Read` geometry (and sparsity), re-
    /// propagating every downstream size with [`crate::size::infer`] — the
    /// recompile path when bound input geometry invalidates a costed plan.
    /// `geometry` maps input names to `(rows, cols, sparsity)`; unnamed reads
    /// keep their declared size. Panics when the new geometry is structurally
    /// incompatible with the DAG (e.g. a matmult inner-dimension mismatch),
    /// with the same messages the builder raises.
    pub fn with_read_geometry(
        &self,
        geometry: &std::collections::HashMap<String, (usize, usize, f64)>,
    ) -> HopDag {
        // Only live hops execute, and only live reads were probed for the
        // new geometry — dead nodes keep their declared sizes instead of
        // being re-inferred (their stale inputs could be incompatible with
        // the new shapes, and they never run).
        let live = self.live_set();
        let mut out = HopDag::new();
        for h in &self.hops {
            let size = match &h.kind {
                OpKind::Read { name } => match geometry.get(name) {
                    Some(&(rows, cols, sparsity)) => crate::SizeInfo::new(rows, cols, sparsity),
                    None => h.size,
                },
                OpKind::Literal { .. } => h.size,
                _ if !live[h.id.index()] => h.size,
                kind => {
                    let ins: Vec<crate::SizeInfo> =
                        h.inputs.iter().map(|&i| out.hop(i).size).collect();
                    crate::size::infer(kind, &ins)
                }
            };
            out.push(h.kind.clone(), h.inputs.clone(), size);
        }
        out.roots = self.roots.clone();
        out
    }

    /// Renders an `explain`-style listing (one line per live node), for
    /// debugging and documentation examples.
    pub fn explain(&self) -> String {
        let live = self.live_set();
        let mut s = String::new();
        for h in &self.hops {
            if !live[h.id.index()] {
                continue;
            }
            let ins: Vec<String> = h.inputs.iter().map(|i| i.to_string()).collect();
            let root = if self.roots.contains(&h.id) { " [root]" } else { "" };
            s.push_str(&format!(
                "{:>4} {:<12} ({})  {}x{}, sp={:.4}{}\n",
                h.id.to_string(),
                h.kind.display_name(),
                ins.join(","),
                h.size.rows,
                h.size.cols,
                h.size.sparsity,
                root
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DagBuilder;

    #[test]
    fn topological_order_holds() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 10, 10, 1.0);
        let y = b.read("Y", 10, 10, 1.0);
        let m = b.mult(x, y);
        let s = b.sum(m);
        let dag = b.build(vec![s]);
        for h in dag.iter() {
            for &i in &h.inputs {
                assert!(i < h.id, "input {i} must precede {}", h.id);
            }
        }
    }

    #[test]
    fn consumers_and_counts() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 4, 4, 1.0);
        let a = b.mult(x, x); // consumes x twice
        let s = b.sum(a);
        let dag = b.build(vec![s]);
        let counts = dag.consumer_counts();
        assert_eq!(counts[x.index()], 2);
        assert_eq!(counts[a.index()], 1);
        assert_eq!(counts[s.index()], 0);
        let cons = dag.consumers();
        assert_eq!(cons[x.index()], vec![a, a]);
    }

    #[test]
    fn live_set_excludes_dead_nodes() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 4, 4, 1.0);
        let _dead = b.exp(x);
        let s = b.sum(x);
        let dag = b.build(vec![s]);
        let live = dag.live_set();
        assert!(live[x.index()]);
        assert!(live[s.index()]);
        assert!(!live[1], "exp node should be dead");
    }

    #[test]
    fn with_read_geometry_ignores_dead_nodes() {
        // A dead mm(A, X) whose stale inner dimension (8) becomes
        // incompatible once X grows to 16 rows — it never executes, so the
        // re-propagation must not try to re-infer (and panic on) it.
        let mut b = DagBuilder::new();
        let x = b.read("X", 8, 4, 1.0);
        let a = b.read("A", 3, 8, 1.0);
        let _dead = b.mm(a, x);
        let s = b.sum(x);
        let dag = b.build(vec![s]);
        let geometry =
            std::collections::HashMap::from([("X".to_string(), (16usize, 4usize, 1.0f64))]);
        let reshaped = dag.with_read_geometry(&geometry);
        assert_eq!(reshaped.hop(x).size.rows, 16, "live read reshaped");
        assert_eq!(reshaped.hop(s).size.rows, 1, "live consumer re-inferred");
    }

    #[test]
    fn explain_contains_ops() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 4, 4, 1.0);
        let s = b.sum(x);
        let dag = b.build(vec![s]);
        let e = dag.explain();
        assert!(e.contains("PRead X"));
        assert!(e.contains("ua(+)"));
        assert!(e.contains("[root]"));
    }
}
