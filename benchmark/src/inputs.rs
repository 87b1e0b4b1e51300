//! Seeded inputs. Graph, features, targets, weights and the request
//! sequence all derive from the one `--seed`; the product sees only the
//! generated inputs. Everything here goes through the product's top-level
//! API (generators, `init::features`, `GnnModel`).

use crate::spec::{EDGES_PER_VERTEX, K};
use atgnn::plan::{ExecPlan, Layout, MicroKernel, Precision, ReorderStrategy};
use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::{erdos_renyi, kronecker};
use atgnn_sparse::Csr;
use atgnn_tensor::{init, Activation, Dense};

/// SplitMix64: the benchmark's own generator for seed derivation and the
/// request sequence (the product's RNG is not part of its top-level API).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the bias of the plain modulus is below 2⁻⁴⁰ for
    /// the vertex counts used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One independent seed per input, all functions of `--seed`.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub graph: u64,
    pub features: u64,
    pub target: u64,
    pub weights: u64,
    pub requests: u64,
}

impl Seeds {
    pub fn of(seed: u64) -> Self {
        let mut g = SplitMix(seed);
        let mut next = || g.next_u64();
        Self {
            graph: next(),
            features: next(),
            target: next(),
            weights: next(),
            requests: next(),
        }
    }
}

/// The skewed graph: Kronecker, `16·n` generated edges, GAT-prepared
/// (self loops added).
pub fn kron(n: usize, seed: u64) -> Csr<f32> {
    let raw = kronecker::adjacency::<f32>(n, EDGES_PER_VERTEX * n, seed);
    GnnModel::<f32>::prepare_adjacency(ModelKind::Gat, &raw)
}

/// The uniform graph: Erdős–Rényi with the same edge budget.
pub fn er(n: usize, seed: u64) -> Csr<f32> {
    let raw = erdos_renyi::adjacency::<f32>(n, EDGES_PER_VERTEX * n, seed);
    GnnModel::<f32>::prepare_adjacency(ModelKind::Gat, &raw)
}

/// An `n × K` feature (or target) matrix.
pub fn features(n: usize, seed: u64) -> Dense<f32> {
    init::features::<f32>(n, K, seed)
}

/// The model of every workload: 2-layer GAT, dims `[K, K, K]`, ReLU, f32.
pub const DIMS: [usize; 3] = [K, K, K];

pub fn gat(seed: u64) -> GnnModel<f32> {
    GnnModel::uniform(ModelKind::Gat, &DIMS, Activation::Relu, seed)
}

/// The reference every fast path is gated against: staged sweeps, scalar
/// microkernels, tight layout, no reordering, f32 storage.
///
/// The microkernel family is a process-global switch, so a model only
/// runs this plan after [`ExecPlan::apply_kernel_knobs`] — which is why
/// each workload verifies *after* its last timed iteration.
pub fn oracle_plan() -> ExecPlan {
    ExecPlan::staged()
        .with_micro(MicroKernel::Scalar)
        .with_layout(Layout::Tight)
        .with_reorder(ReorderStrategy::Off)
        .with_precision(Precision::F32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (kron(256, 5), kron(256, 5), kron(256, 6));
        assert_eq!(a.indices(), b.indices());
        assert_ne!(a.indices(), c.indices());
        assert_eq!(features(64, 1).as_slice(), features(64, 1).as_slice());
        let s = Seeds::of(0);
        let all = [s.graph, s.features, s.target, s.weights, s.requests];
        let distinct: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn request_stream_stays_in_range_and_repeats_per_seed() {
        let draw = |seed| {
            let mut g = SplitMix(seed);
            (0..100).map(|_| g.below(2048)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        assert!(draw(3).iter().all(|&v| v < 2048));
    }
}
