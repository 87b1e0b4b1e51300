//! Execution-DAG representation and the fusing optimization (paper
//! §6.1–6.2, Figures 4–5).
//!
//! The paper's toolchain builds the forward and backward execution DAGs
//! of each model, marks tensors too large to instantiate as *virtual*
//! ("some tensors could still be too large to be stored explicitly … In
//! the considered GNN models, this happens when obtaining Ψ"), and then
//! fuses: *"we traverse the DAG until we find an edge (v_i, v_j) whose
//! output v_j is a virtual matrix. Then, we continue to traverse the
//! graph until we meet an edge (v_k, v_l) where v_l is a sparse
//! intermediate result … We proceed by fusing all the operations in this
//! path to generate an SDDMM-like kernel."*
//!
//! [`Dag::fusion_analysis`] implements that rule without panicking,
//! reporting virtual tensors that *escape* (flow into a non-sparse
//! consumer) or are *unsampled* (never reach a sparse sampler) so the
//! plan-time validator in [`crate::analyze`] can turn them into
//! structured diagnostics. [`Dag::fusion_groups`] is the strict wrapper
//! that panics on escapes, and the canned model DAGs
//! ([`Dag::va_forward`], [`Dag::agnn_forward`], [`Dag::gat_forward`] and
//! their backward counterparts) reproduce the paper's Figure 5 analysis.
//!
//! Each node carries a symbolic [`Shape`] over the dimensions `n`
//! (vertices), `k` (input feature width), `k'` (output feature width) and
//! `1`, plus an optional [`SemiringKind`] annotation on aggregation
//! nodes; both feed the validator's shape-consistency and
//! semiring-compatibility rules.

use std::collections::HashMap;
use std::fmt;

pub use atgnn_sparse::semiring::SemiringKind;

/// The shape/density class of a tensor in the DAG (Table 1's objects).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TensorClass {
    /// Tall dense `n×k` (features, gradients).
    DenseNk,
    /// Small dense `k×k` (parameters).
    DenseKk,
    /// Dense `n×n` — a *virtual-tensor candidate*: never instantiable at
    /// scale (the gray matrix of Table 1).
    DenseNn,
    /// Sparse `n×n` on the adjacency pattern.
    SparseNn,
    /// Dense length-`n` vector.
    VecN,
    /// Dense length-`k` vector.
    VecK,
    /// A scalar.
    Scalar,
}

impl TensorClass {
    /// The default symbolic shape of this class (column vectors for the
    /// vector classes). Builders override it where the distinction
    /// between `k` and `k'` matters.
    pub fn default_shape(self) -> Shape {
        match self {
            TensorClass::DenseNk => Shape::new(Dim::N, Dim::K),
            TensorClass::DenseKk => Shape::new(Dim::K, Dim::K),
            TensorClass::DenseNn | TensorClass::SparseNn => Shape::new(Dim::N, Dim::N),
            TensorClass::VecN => Shape::new(Dim::N, Dim::One),
            TensorClass::VecK => Shape::new(Dim::K, Dim::One),
            TensorClass::Scalar => Shape::new(Dim::One, Dim::One),
        }
    }
}

/// Element-storage width a planner may annotate a node's output with.
///
/// The annotation is a *request*, not a fact: the precision-safety
/// analysis ([`crate::analyze::precision`]) compares it against the
/// per-node narrowing verdict derived from semiring and stability facts
/// and rejects plans that store a keep-f32 node in bf16. Unannotated
/// nodes (the default) are stored at the working precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// bfloat16 storage (8-bit mantissa, f32 exponent range).
    Bf16,
    /// IEEE binary16 storage (11-bit mantissa, [2⁻²⁴, 65504] range).
    F16,
    /// Single precision.
    F32,
    /// Double precision.
    F64,
}

impl Storage {
    /// Kebab-case name used in diagnostics and reports.
    pub fn name(self) -> &'static str {
        match self {
            Storage::Bf16 => "bf16",
            Storage::F16 => "f16",
            Storage::F32 => "f32",
            Storage::F64 => "f64",
        }
    }

    /// Whether this annotation stores fewer bits than the working
    /// precision — the cases the narrowing verdicts constrain.
    pub fn is_narrow(self) -> bool {
        matches!(self, Storage::Bf16 | Storage::F16)
    }
}

/// A symbolic dimension of a DAG tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dim {
    /// Number of vertices `n`.
    N,
    /// Input feature width `k`.
    K,
    /// Output feature width `k'`.
    KPrime,
    /// A broadcast/scalar dimension.
    One,
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dim::N => "n",
            Dim::K => "k",
            Dim::KPrime => "k'",
            Dim::One => "1",
        })
    }
}

/// A symbolic `rows × cols` shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Row dimension.
    pub rows: Dim,
    /// Column dimension.
    pub cols: Dim,
}

impl Shape {
    /// A `rows × cols` shape.
    pub fn new(rows: Dim, cols: Dim) -> Self {
        Self { rows, cols }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.rows, self.cols)
    }
}

/// A node: one tensor-producing operation.
#[derive(Clone, Debug)]
pub struct Node {
    /// Operation label ("matmul_nt", "mask", "lrelu", …).
    pub op: String,
    /// The class of the *output* tensor.
    pub output: TensorClass,
    /// Input node ids.
    pub inputs: Vec<usize>,
    /// Symbolic shape of the output tensor.
    pub shape: Shape,
    /// The aggregation semiring, for SpMM-like nodes.
    pub semiring: Option<SemiringKind>,
    /// Requested element storage, when a planner wants to narrow this
    /// node's output below the working precision.
    pub storage: Option<Storage>,
}

/// A tensor-expression DAG.
#[derive(Clone, Debug, Default)]
pub struct Dag {
    nodes: Vec<Node>,
    backward: bool,
}

/// One fusion group: the node ids fused into a single SDDMM-like kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusionGroup {
    /// Fused nodes, in topological order; the trailing sparse samplers
    /// (if any) sample the virtual intermediates on the adjacency
    /// pattern.
    pub nodes: Vec<usize>,
}

impl FusionGroup {
    /// The ids of the group's sparse sampler nodes.
    pub fn samplers<'a>(&'a self, dag: &'a Dag) -> impl Iterator<Item = usize> + 'a {
        self.nodes
            .iter()
            .copied()
            .filter(|&id| dag.nodes[id].output == TensorClass::SparseNn)
    }
}

/// A virtual tensor flowing into a consumer that is neither part of the
/// virtual region nor a sparse sampler — it would have to be
/// materialized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Escape {
    /// A node of the escaping virtual region.
    pub virtual_node: usize,
    /// The offending consumer node.
    pub consumer: usize,
}

/// The result of the §6.2 fusion traversal, including the failure modes
/// the validator lints on.
#[derive(Clone, Debug, Default)]
pub struct FusionAnalysis {
    /// Fusion groups (virtual regions plus their sparse samplers).
    pub groups: Vec<FusionGroup>,
    /// Virtual outputs consumed by non-sparse, non-virtual nodes.
    pub escapes: Vec<Escape>,
    /// Virtual regions with no sparse sampler at all: nothing ever
    /// samples them, so they would have to be materialized to be of any
    /// use. Each entry is the region's node list.
    pub unsampled: Vec<Vec<usize>>,
}

impl Dag {
    /// An empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks this DAG as a backward (gradient) computation. The
    /// semiring-compatibility rule only applies to backward DAGs.
    pub fn mark_backward(&mut self) {
        self.backward = true;
    }

    /// Whether this DAG computes gradients.
    pub fn is_backward(&self) -> bool {
        self.backward
    }

    /// Adds an operation; inputs must already exist. Returns the node id.
    /// The shape defaults to the class's canonical shape.
    pub fn add(&mut self, op: &str, output: TensorClass, inputs: &[usize]) -> usize {
        self.push(op, output, inputs, output.default_shape(), None)
    }

    /// Adds an operation with an explicit symbolic shape (used where the
    /// `k` / `k'` distinction matters, e.g. projected features).
    pub fn add_shaped(
        &mut self,
        op: &str,
        output: TensorClass,
        inputs: &[usize],
        shape: Shape,
    ) -> usize {
        self.push(op, output, inputs, shape, None)
    }

    /// Adds an aggregation (SpMM-like) operation annotated with its
    /// semiring, with an explicit output shape.
    pub fn add_agg(
        &mut self,
        op: &str,
        output: TensorClass,
        inputs: &[usize],
        shape: Shape,
        semiring: SemiringKind,
    ) -> usize {
        self.push(op, output, inputs, shape, Some(semiring))
    }

    fn push(
        &mut self,
        op: &str,
        output: TensorClass,
        inputs: &[usize],
        shape: Shape,
        semiring: Option<SemiringKind>,
    ) -> usize {
        for &i in inputs {
            assert!(i < self.nodes.len(), "input {i} does not exist yet");
        }
        self.nodes.push(Node {
            op: op.to_string(),
            output,
            inputs: inputs.to_vec(),
            shape,
            semiring,
            storage: None,
        });
        self.nodes.len() - 1
    }

    /// Annotates a node with a requested element storage; the
    /// precision-safety analysis validates the request against the
    /// node's narrowing verdict.
    pub fn set_storage(&mut self, id: usize, storage: Storage) {
        assert!(id < self.nodes.len(), "node {id} does not exist");
        self.nodes[id].storage = Some(storage);
    }

    /// The nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Ids of nodes whose output is a virtual (dense `n×n`) tensor.
    pub fn virtual_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.output == TensorClass::DenseNn)
            .map(|(i, _)| i)
            .collect()
    }

    /// The paper's §6.2 fusion rule, as a total analysis: every maximal
    /// connected region of virtual-output nodes, together with the sparse
    /// *sampler* nodes that consume the region's outputs, becomes one
    /// fused SDDMM-like kernel. Instead of panicking, virtual outputs
    /// that flow into non-sparse consumers are reported as
    /// [`FusionAnalysis::escapes`] and regions no sparse node ever
    /// samples as [`FusionAnalysis::unsampled`].
    pub fn fusion_analysis(&self) -> FusionAnalysis {
        let n = self.nodes.len();
        // Union regions of virtual nodes connected through virtual edges.
        let mut region = vec![usize::MAX; n];
        let mut next_region = 0usize;
        for (id, node) in self.nodes.iter().enumerate() {
            if node.output != TensorClass::DenseNn {
                continue;
            }
            // Adopt the region of any virtual input, else start one.
            let mut r = usize::MAX;
            for &i in &node.inputs {
                if self.nodes[i].output == TensorClass::DenseNn && region[i] != usize::MAX {
                    r = region[i];
                }
            }
            if r == usize::MAX {
                r = next_region;
                next_region += 1;
            }
            region[id] = r;
            // Merge: all virtual inputs join this region.
            for &i in &node.inputs {
                if self.nodes[i].output == TensorClass::DenseNn {
                    let old = region[i];
                    if old != r {
                        for slot in region.iter_mut() {
                            if *slot == old {
                                *slot = r;
                            }
                        }
                    }
                }
            }
        }
        // Collect regions, attach their sparse samplers, record escapes.
        let mut by_region: HashMap<usize, Vec<usize>> = HashMap::new();
        for (id, &r) in region.iter().enumerate() {
            if r != usize::MAX {
                by_region.entry(r).or_default().push(id);
            }
        }
        let mut analysis = FusionAnalysis::default();
        let mut regions: Vec<_> = by_region.into_iter().collect();
        regions.sort_by_key(|(_, nodes)| nodes[0]);
        for (r, mut nodes) in regions {
            let members = nodes.clone();
            let mut sampled = false;
            for (id, node) in self.nodes.iter().enumerate() {
                if region[id] == r {
                    continue;
                }
                let consumed = node.inputs.iter().copied().find(|&i| region[i] == r);
                let Some(virtual_node) = consumed else {
                    continue;
                };
                if node.output == TensorClass::SparseNn {
                    sampled = true;
                    nodes.push(id);
                } else {
                    analysis.escapes.push(Escape {
                        virtual_node,
                        consumer: id,
                    });
                }
            }
            if !sampled {
                analysis.unsampled.push(members);
            }
            nodes.sort_unstable();
            analysis.groups.push(FusionGroup { nodes });
        }
        analysis
    }

    /// Strict variant of [`Dag::fusion_analysis`].
    ///
    /// # Panics
    /// Panics if a virtual node's output escapes to a non-sparse,
    /// non-virtual consumer — that would force materializing an `n×n`
    /// dense tensor, which the design forbids.
    pub fn fusion_groups(&self) -> Vec<FusionGroup> {
        let analysis = self.fusion_analysis();
        if let Some(e) = analysis.escapes.first() {
            panic!(
                "virtual tensor of node {} escapes into non-sparse op '{}' — \
                 it would have to be materialized",
                e.consumer, self.nodes[e.consumer].op
            );
        }
        analysis.groups
    }

    /// Whether, after fusion, no dense `n×n` tensor needs to be stored:
    /// every virtual node belongs to a fusion group that ends in a sparse
    /// sampler, and none escapes into a dense consumer.
    ///
    /// This is a summary of the structured [`crate::analyze::validate`]
    /// lints — unlike the pre-analyzer version it also rejects virtual
    /// regions that no sparse node ever samples, and it reports escapes
    /// as `false` instead of panicking.
    pub fn all_virtual_fused(&self) -> bool {
        let analysis = self.fusion_analysis();
        analysis.escapes.is_empty() && analysis.unsampled.is_empty()
    }

    // -----------------------------------------------------------------
    // The Figure 5 model DAGs.
    // -----------------------------------------------------------------

    /// VA forward: `Ψ = A ⊙ (H Hᵀ)`, `Z = Ψ H W`.
    pub fn va_forward() -> Self {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let w = d.add_shaped(
            "W",
            TensorClass::DenseKk,
            &[],
            Shape::new(Dim::K, Dim::KPrime),
        );
        let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let psi = d.add("mask(A, HHt)", TensorClass::SparseNn, &[a, hht]);
        let agg = d.add_agg(
            "spmm(Psi,H)",
            TensorClass::DenseNk,
            &[psi, h],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::Real,
        );
        let _z = d.add_shaped(
            "matmul(agg,W)",
            TensorClass::DenseNk,
            &[agg, w],
            Shape::new(Dim::N, Dim::KPrime),
        );
        d
    }

    /// AGNN forward: `Ψ = sm(A ⊙ (β · H Hᵀ ⊘ n nᵀ))`, `Z = Ψ H W`.
    pub fn agnn_forward() -> Self {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let w = d.add_shaped(
            "W",
            TensorClass::DenseKk,
            &[],
            Shape::new(Dim::K, Dim::KPrime),
        );
        let norms = d.add("row_l2_norms(H)", TensorClass::VecN, &[h]);
        let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let nnt = d.add("outer(n,n)", TensorClass::DenseNn, &[norms, norms]);
        let cosd = d.add("hadamard_div", TensorClass::DenseNn, &[hht, nnt]);
        let scaled = d.add("scale_beta", TensorClass::DenseNn, &[cosd]);
        let masked = d.add("mask(A,·)", TensorClass::SparseNn, &[a, scaled]);
        let psi = d.add("row_softmax", TensorClass::SparseNn, &[masked]);
        let proj = d.add_shaped(
            "matmul(H,W)",
            TensorClass::DenseNk,
            &[h, w],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let _z = d.add_agg(
            "spmm(Psi,HW)",
            TensorClass::DenseNk,
            &[psi, proj],
            Shape::new(Dim::N, Dim::KPrime),
            SemiringKind::Real,
        );
        d
    }

    /// GAT forward: `C = u 𝟙ᵀ + 𝟙 vᵀ`, `Ψ = sm(A ⊙ LeakyReLU(C))`,
    /// `Z = Ψ H'`. Block inference, where `GatLayer::forward` aggregates
    /// first (`u = H (W a₁)`, `v = H (W a₂)`, `Z = (Ψ H) W`), is the SpMMM
    /// reassociation of this DAG — the same nodes, no second canned DAG.
    pub fn gat_forward() -> Self {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let w = d.add_shaped(
            "W",
            TensorClass::DenseKk,
            &[],
            Shape::new(Dim::K, Dim::KPrime),
        );
        let a1 = d.add_shaped(
            "a1",
            TensorClass::VecK,
            &[],
            Shape::new(Dim::KPrime, Dim::One),
        );
        let a2 = d.add_shaped(
            "a2",
            TensorClass::VecK,
            &[],
            Shape::new(Dim::KPrime, Dim::One),
        );
        let hp = d.add_shaped(
            "matmul(H,W)",
            TensorClass::DenseNk,
            &[h, w],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let u = d.add("matvec(H',a1)", TensorClass::VecN, &[hp, a1]);
        let v = d.add("matvec(H',a2)", TensorClass::VecN, &[hp, a2]);
        let repu = d.add("rep(u)", TensorClass::DenseNn, &[u]);
        let repv = d.add("rep_t(v)", TensorClass::DenseNn, &[v]);
        let c = d.add("add", TensorClass::DenseNn, &[repu, repv]);
        let act = d.add("leaky_relu", TensorClass::DenseNn, &[c]);
        let e = d.add("mask(A,·)", TensorClass::SparseNn, &[a, act]);
        let psi = d.add("row_softmax", TensorClass::SparseNn, &[e]);
        let _z = d.add_agg(
            "spmm(Psi,H')",
            TensorClass::DenseNk,
            &[psi, hp],
            Shape::new(Dim::N, Dim::KPrime),
            SemiringKind::Real,
        );
        d
    }

    /// VA backward (Eqs. 11–13): both `M Hᵀ` and `H Hᵀ` are virtual and
    /// sampled by `A`-patterned masks.
    pub fn va_backward() -> Self {
        let mut d = Dag::new();
        d.mark_backward();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let g = d.add_shaped(
            "G",
            TensorClass::DenseNk,
            &[],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let w = d.add_shaped(
            "W",
            TensorClass::DenseKk,
            &[],
            Shape::new(Dim::K, Dim::KPrime),
        );
        let m = d.add("matmul_nt(G,W)", TensorClass::DenseNk, &[g, w]);
        let mht = d.add("matmul_nt(M,H)", TensorClass::DenseNn, &[m, h]);
        let nmat = d.add("mask(A, MHt)", TensorClass::SparseNn, &[a, mht]);
        let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let psit = d.add("mask(At, HHt)", TensorClass::SparseNn, &[a, hht]);
        let nh = d.add_agg(
            "spmm(N,H)",
            TensorClass::DenseNk,
            &[nmat, h],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::Real,
        );
        let nth = d.add_agg(
            "spmm_t(N,H)",
            TensorClass::DenseNk,
            &[nmat, h],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::Real,
        );
        let pm = d.add_agg(
            "spmm(PsiT,M)",
            TensorClass::DenseNk,
            &[psit, m],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::Real,
        );
        let s1 = d.add("add", TensorClass::DenseNk, &[nh, nth]);
        let _dh = d.add("add", TensorClass::DenseNk, &[s1, pm]);
        d
    }

    /// AGNN backward: the incoming gradient is sampled on `A`'s pattern
    /// (`dΨ = A ⊙ (G (HW)ᵀ)`), the cosine score chain is *recomputed
    /// virtually* for the softmax backward, and the feature gradient
    /// accumulates the aggregation and score contributions.
    pub fn agnn_backward() -> Self {
        let mut d = Dag::new();
        d.mark_backward();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let g = d.add_shaped(
            "G",
            TensorClass::DenseNk,
            &[],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let w = d.add_shaped(
            "W",
            TensorClass::DenseKk,
            &[],
            Shape::new(Dim::K, Dim::KPrime),
        );
        let proj = d.add_shaped(
            "matmul(H,W)",
            TensorClass::DenseNk,
            &[h, w],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let norms = d.add("row_l2_norms(H)", TensorClass::VecN, &[h]);
        // dΨ sampled on the adjacency pattern.
        let gproj = d.add("matmul_nt(G,HW)", TensorClass::DenseNn, &[g, proj]);
        let dpsi = d.add("mask(A, G(HW)t)", TensorClass::SparseNn, &[a, gproj]);
        // Virtual recompute of the forward score chain.
        let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let nnt = d.add("outer(n,n)", TensorClass::DenseNn, &[norms, norms]);
        let cosd = d.add("hadamard_div", TensorClass::DenseNn, &[hht, nnt]);
        let scaled = d.add("scale_beta", TensorClass::DenseNn, &[cosd]);
        let masked = d.add("mask(A,·)", TensorClass::SparseNn, &[a, scaled]);
        let psi = d.add("row_softmax", TensorClass::SparseNn, &[masked]);
        let dscore = d.add("softmax_bwd", TensorClass::SparseNn, &[psi, dpsi]);
        let _dbeta = d.add("contract", TensorClass::Scalar, &[dscore, masked]);
        // dH and dW.
        let aggt = d.add_agg(
            "spmm_t(Psi,G)",
            TensorClass::DenseNk,
            &[psi, g],
            Shape::new(Dim::N, Dim::KPrime),
            SemiringKind::Real,
        );
        let dh1 = d.add("matmul_nt(aggT,W)", TensorClass::DenseNk, &[aggt, w]);
        let dh2 = d.add_agg(
            "spmm(dscore,H)",
            TensorClass::DenseNk,
            &[dscore, h],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::Real,
        );
        let dh3 = d.add_agg(
            "spmm_t(dscore,H)",
            TensorClass::DenseNk,
            &[dscore, h],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::Real,
        );
        let s1 = d.add("add", TensorClass::DenseNk, &[dh1, dh2]);
        let _dh = d.add("add", TensorClass::DenseNk, &[s1, dh3]);
        let _dw = d.add_shaped(
            "matmul_tn(H,aggT)",
            TensorClass::DenseKk,
            &[h, aggt],
            Shape::new(Dim::K, Dim::KPrime),
        );
        d
    }

    /// GAT backward: `dΨ = A ⊙ (G H'ᵀ)`, the LeakyReLU score chain is
    /// recomputed virtually, the per-edge gradient is reduced into `du`,
    /// `dv`, and the projected-feature gradient flows back through `W`
    /// and the attention vectors.
    pub fn gat_backward() -> Self {
        let mut d = Dag::new();
        d.mark_backward();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let g = d.add_shaped(
            "G",
            TensorClass::DenseNk,
            &[],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let w = d.add_shaped(
            "W",
            TensorClass::DenseKk,
            &[],
            Shape::new(Dim::K, Dim::KPrime),
        );
        let a1 = d.add_shaped(
            "a1",
            TensorClass::VecK,
            &[],
            Shape::new(Dim::KPrime, Dim::One),
        );
        let a2 = d.add_shaped(
            "a2",
            TensorClass::VecK,
            &[],
            Shape::new(Dim::KPrime, Dim::One),
        );
        let hp = d.add_shaped(
            "matmul(H,W)",
            TensorClass::DenseNk,
            &[h, w],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let u = d.add("matvec(H',a1)", TensorClass::VecN, &[hp, a1]);
        let v = d.add("matvec(H',a2)", TensorClass::VecN, &[hp, a2]);
        // Virtual recompute of the forward score chain.
        let repu = d.add("rep(u)", TensorClass::DenseNn, &[u]);
        let repv = d.add("rep_t(v)", TensorClass::DenseNn, &[v]);
        let c = d.add("add", TensorClass::DenseNn, &[repu, repv]);
        let act = d.add("leaky_relu", TensorClass::DenseNn, &[c]);
        let e = d.add("mask(A,·)", TensorClass::SparseNn, &[a, act]);
        let psi = d.add("row_softmax", TensorClass::SparseNn, &[e]);
        // dΨ sampled on the adjacency pattern.
        let ghpt = d.add("matmul_nt(G,H')", TensorClass::DenseNn, &[g, hp]);
        let dpsi = d.add("mask(A, GH't)", TensorClass::SparseNn, &[a, ghpt]);
        let dscore = d.add("softmax_bwd", TensorClass::SparseNn, &[psi, dpsi]);
        let gmask = d.add("lrelu_grad", TensorClass::SparseNn, &[e]);
        let dc = d.add("hadamard", TensorClass::SparseNn, &[dscore, gmask]);
        // Per-edge gradient reduced onto the attention vectors.
        let du = d.add("row_sums", TensorClass::VecN, &[dc]);
        let dv = d.add("col_sums", TensorClass::VecN, &[dc]);
        let _da1 = d.add_shaped(
            "matvec_t(H',du)",
            TensorClass::VecK,
            &[hp, du],
            Shape::new(Dim::KPrime, Dim::One),
        );
        let _da2 = d.add_shaped(
            "matvec_t(H',dv)",
            TensorClass::VecK,
            &[hp, dv],
            Shape::new(Dim::KPrime, Dim::One),
        );
        // Projected-feature gradient and parameter gradients.
        let dhp1 = d.add_shaped(
            "outer(du,a1)",
            TensorClass::DenseNk,
            &[du, a1],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let dhp2 = d.add_shaped(
            "outer(dv,a2)",
            TensorClass::DenseNk,
            &[dv, a2],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let dhp3 = d.add_agg(
            "spmm_t(Psi,G)",
            TensorClass::DenseNk,
            &[psi, g],
            Shape::new(Dim::N, Dim::KPrime),
            SemiringKind::Real,
        );
        let s1 = d.add_shaped(
            "add",
            TensorClass::DenseNk,
            &[dhp1, dhp2],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let dhp = d.add_shaped(
            "add",
            TensorClass::DenseNk,
            &[s1, dhp3],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let _dw = d.add_shaped(
            "matmul_tn(H,dH')",
            TensorClass::DenseKk,
            &[h, dhp],
            Shape::new(Dim::K, Dim::KPrime),
        );
        let _dh = d.add("matmul_nt(dH',W)", TensorClass::DenseNk, &[dhp, w]);
        d
    }

    /// GCN forward (`Z = Â H W`) — the C-GNN special case: no virtual
    /// tensors at all, included so every [`crate::ModelKind`] has a
    /// validated plan.
    pub fn gcn_forward() -> Self {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A_hat", TensorClass::SparseNn, &[]);
        let w = d.add_shaped(
            "W",
            TensorClass::DenseKk,
            &[],
            Shape::new(Dim::K, Dim::KPrime),
        );
        let agg = d.add_agg(
            "spmm(A_hat,H)",
            TensorClass::DenseNk,
            &[a, h],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::Real,
        );
        let _z = d.add_shaped(
            "matmul(agg,W)",
            TensorClass::DenseNk,
            &[agg, w],
            Shape::new(Dim::N, Dim::KPrime),
        );
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn va_forward_has_one_fusion_group() {
        let d = Dag::va_forward();
        let groups = d.fusion_groups();
        assert_eq!(groups.len(), 1);
        // H Hᵀ (node 3) fused with the mask (node 4) — the fused VA
        // score kernel.
        assert_eq!(groups[0].nodes, vec![3, 4]);
        assert!(d.all_virtual_fused());
    }

    #[test]
    fn agnn_forward_fuses_the_whole_cosine_chain() {
        let d = Dag::agnn_forward();
        let groups = d.fusion_groups();
        assert_eq!(groups.len(), 1);
        // HHᵀ, nnᵀ, ⊘, β-scale, and the mask: five ops, one kernel —
        // Figure 5's dashed-arrow fusion.
        assert_eq!(groups[0].nodes.len(), 5);
        assert!(d.all_virtual_fused());
    }

    #[test]
    fn gat_forward_fuses_rep_add_relu_mask() {
        let d = Dag::gat_forward();
        let groups = d.fusion_groups();
        assert_eq!(groups.len(), 1);
        // rep(u), rep_t(v), add, leaky_relu, mask.
        assert_eq!(groups[0].nodes.len(), 5);
        assert!(d.all_virtual_fused());
    }

    #[test]
    fn va_backward_has_two_independent_groups() {
        let d = Dag::va_backward();
        let groups = d.fusion_groups();
        // M Hᵀ→mask and H Hᵀ→mask are separate SDDMM kernels.
        assert_eq!(groups.len(), 2);
        assert!(d.all_virtual_fused());
        assert!(d.is_backward());
    }

    #[test]
    fn agnn_backward_fuses_gradient_and_recompute_chains() {
        let d = Dag::agnn_backward();
        let groups = d.fusion_groups();
        // G(HW)ᵀ→mask and the recomputed cosine chain→mask.
        assert_eq!(groups.len(), 2);
        assert!(d.all_virtual_fused());
    }

    #[test]
    fn gat_backward_fuses_gradient_and_recompute_chains() {
        let d = Dag::gat_backward();
        let groups = d.fusion_groups();
        // The rep/add/lrelu recompute chain and G H'ᵀ→mask.
        assert_eq!(groups.len(), 2);
        assert!(d.all_virtual_fused());
    }

    #[test]
    #[should_panic(expected = "escapes into non-sparse")]
    fn escaping_virtual_tensor_is_rejected() {
        // A dense n×n fed into a dense consumer would have to be
        // materialized; the strict traversal must refuse.
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let _bad = d.add("spmm_dense", TensorClass::DenseNk, &[hht, h]);
        let _ = d.fusion_groups();
    }

    #[test]
    fn escaping_virtual_tensor_is_reported_not_panicked() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let bad = d.add("spmm_dense", TensorClass::DenseNk, &[hht, h]);
        let fa = d.fusion_analysis();
        assert_eq!(
            fa.escapes,
            vec![Escape {
                virtual_node: hht,
                consumer: bad
            }]
        );
        assert!(!d.all_virtual_fused());
    }

    #[test]
    fn unsampled_virtual_region_is_not_silently_fused() {
        // A virtual tensor that nothing ever samples used to pass
        // `all_virtual_fused` silently; it must be reported.
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let fa = d.fusion_analysis();
        assert_eq!(fa.unsampled, vec![vec![hht]]);
        assert!(!d.all_virtual_fused());
    }

    #[test]
    fn diamond_virtual_region_is_one_group() {
        // Diamond: two virtual branches off one virtual source, rejoined
        // by a virtual combinator, then sampled — a single region.
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let src = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let l = d.add("scale", TensorClass::DenseNn, &[src]);
        let r = d.add("exp", TensorClass::DenseNn, &[src]);
        let join = d.add("hadamard", TensorClass::DenseNn, &[l, r]);
        let mask = d.add("mask(A,·)", TensorClass::SparseNn, &[a, join]);
        let groups = d.fusion_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].nodes, vec![src, l, r, join, mask]);
        assert!(d.all_virtual_fused());
    }

    #[test]
    fn multiple_virtual_nodes_on_one_path_share_a_group() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let v1 = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let v2 = d.add("scale", TensorClass::DenseNn, &[v1]);
        let v3 = d.add("exp", TensorClass::DenseNn, &[v2]);
        let mask = d.add("mask(A,·)", TensorClass::SparseNn, &[a, v3]);
        let groups = d.fusion_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].nodes, vec![v1, v2, v3, mask]);
    }

    #[test]
    fn empty_dag_is_trivially_fused() {
        let d = Dag::new();
        let fa = d.fusion_analysis();
        assert!(fa.groups.is_empty());
        assert!(fa.escapes.is_empty());
        assert!(fa.unsampled.is_empty());
        assert!(d.all_virtual_fused());
        assert!(d.fusion_groups().is_empty());
    }

    #[test]
    fn non_virtual_dags_have_no_groups() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let w = d.add("W", TensorClass::DenseKk, &[]);
        let _z = d.add("matmul", TensorClass::DenseNk, &[h, w]);
        assert!(d.fusion_groups().is_empty());
        assert!(d.all_virtual_fused());
    }

    #[test]
    fn add_rejects_forward_references() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.add("bad", TensorClass::DenseNk, &[h + 5]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn default_shapes_follow_tensor_class() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        assert_eq!(d.nodes()[h].shape, Shape::new(Dim::N, Dim::K));
        assert_eq!(format!("{}", d.nodes()[h].shape), "n×k");
        assert_eq!(format!("{}", Shape::new(Dim::KPrime, Dim::One)), "k'×1");
    }
}
