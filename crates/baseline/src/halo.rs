//! The distributed local formulation: 1D vertex partition + halo exchange.
//!
//! This is the execution model of DistDGL-style message-passing systems,
//! which the paper's Section 7 analyzes as the "local view": each rank
//! owns a contiguous block of vertices (all their edges), and every layer
//! it must *gather the feature vectors of individual remote neighbors*
//! before computing, and scatter per-edge gradient contributions back in
//! the backward pass. The per-rank volume is `Θ(#cut-edges · k)` — up to
//! `Ω(nkd/p)` for max degree `d`, and `O(n²kq/p)` on Erdős–Rényi graphs —
//! versus the global formulation's `O(nk/√p)`.
//!
//! The math is identical to the global formulation (verified in tests);
//! only the data movement differs, which is exactly the comparison the
//! paper's §8.4 makes.

use atgnn::ModelKind;
use atgnn_net::Comm;
use atgnn_sparse::{masked, sddmm, spmm, Csr};
use atgnn_tensor::{blocks, gemm, ops, Activation, Dense, Scalar};

/// The 1D block partition of vertices over `p` ranks.
#[derive(Clone, Copy, Debug)]
pub struct Partition1d {
    /// Vertex count.
    pub n: usize,
    /// Rank count.
    pub p: usize,
}

impl Partition1d {
    /// Vertex range `[lo, hi)` owned by `rank`.
    pub fn bounds(&self, rank: usize) -> (usize, usize) {
        (rank * self.n / self.p, (rank + 1) * self.n / self.p)
    }

    /// The owner of a vertex.
    pub fn owner(&self, v: usize) -> usize {
        // Inverse of the balanced block map; scan is fine for the small p
        // used here, but the closed form is exact for this split.
        let mut r = (v * self.p) / self.n.max(1);
        r = r.min(self.p - 1);
        while v < self.bounds(r).0 {
            r -= 1;
        }
        while v >= self.bounds(r).1 {
            r += 1;
        }
        r
    }
}

/// The per-rank halo plan: which remote vertices this rank reads, which
/// owned vertices it serves to others, and the rank-local adjacency with
/// columns remapped into the gathered index space
/// (`[own vertices | halo vertices]`).
pub struct HaloPlan<T> {
    /// The partition.
    pub part: Partition1d,
    /// This rank.
    pub rank: usize,
    /// Owned vertex range.
    pub own: (usize, usize),
    /// Remote vertex ids needed, grouped by owner rank (sorted).
    pub needed: Vec<Vec<u32>>,
    /// Owned vertex ids served to each rank (sorted) — the mirror lists.
    pub serves: Vec<Vec<u32>>,
    /// Local rows of `A` with columns remapped to the gathered space.
    pub a_local: Csr<T>,
    /// Gathered-space size (`own_len + total halo`).
    pub gathered_len: usize,
}

impl<T: Scalar> HaloPlan<T> {
    /// Builds the plan from the full graph (deterministic, no
    /// communication — mirrors DGL's partitioning preprocessing).
    pub fn build(a_full: &Csr<T>, part: Partition1d, rank: usize) -> Self {
        let (lo, hi) = part.bounds(rank);
        let own_len = hi - lo;
        // Collect remote neighbors of local rows.
        let mut needed: Vec<Vec<u32>> = vec![Vec::new(); part.p];
        let mut seen = std::collections::BTreeSet::new();
        for r in lo..hi {
            for &c in a_full.row(r).0 {
                let c = c as usize;
                if (c < lo || c >= hi) && seen.insert(c) {
                    needed[part.owner(c)].push(c as u32);
                }
            }
        }
        for list in &mut needed {
            list.sort_unstable();
        }
        // Gathered-space remap: own first, then halos grouped by rank.
        let mut remap = std::collections::HashMap::new();
        for v in lo..hi {
            remap.insert(v as u32, (v - lo) as u32);
        }
        let mut next = own_len as u32;
        for list in &needed {
            for &v in list {
                remap.insert(v, next);
                next += 1;
            }
        }
        // Mirror lists: what this rank serves to others (computed from
        // the same deterministic rule every rank applies).
        let mut serves: Vec<Vec<u32>> = vec![Vec::new(); part.p];
        for (other, list) in serves.iter_mut().enumerate() {
            if other == rank {
                continue;
            }
            let (olo, ohi) = part.bounds(other);
            let mut set = std::collections::BTreeSet::new();
            for r in olo..ohi {
                for &c in a_full.row(r).0 {
                    let c = c as usize;
                    if c >= lo && c < hi {
                        set.insert(c as u32);
                    }
                }
            }
            *list = set.into_iter().collect();
        }
        // Local adjacency rows with remapped columns.
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in lo..hi {
            let (cols, vals) = a_full.row(r);
            let mut row: Vec<(u32, T)> = cols
                .iter()
                .zip(vals)
                .map(|(&c, &v)| (remap[&c], v))
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in row {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        let gathered_len = next as usize;
        let a_local = Csr::from_raw(own_len, gathered_len, indptr, indices, values);
        Self {
            part,
            rank,
            own: (lo, hi),
            needed,
            serves,
            a_local,
            gathered_len,
        }
    }

    /// Owned vertex count.
    pub fn own_len(&self) -> usize {
        self.own.1 - self.own.0
    }

    /// Total halo size (remote vertices fetched per layer).
    pub fn halo_len(&self) -> usize {
        self.gathered_len - self.own_len()
    }

    /// The halo exchange: gathers `[own | halo]` features. Each rank
    /// sends the rows of its own block that other ranks' halos reference —
    /// the per-vertex feature traffic of the local formulation.
    pub fn gather(&self, comm: &Comm, own: &Dense<T>) -> Dense<T> {
        assert_eq!(own.rows(), self.own_len(), "own block shape mismatch");
        let k = own.cols();
        let mut out = Dense::zeros(self.gathered_len, k);
        out.set_rows(0, own);
        if self.part.p == 1 {
            return out;
        }
        comm.charge_supersteps(1);
        // Send served rows to each requester.
        for (other, list) in self.serves.iter().enumerate() {
            if other == self.rank || list.is_empty() {
                continue;
            }
            let mut payload = Vec::with_capacity(list.len() * k);
            for &v in list {
                payload.extend_from_slice(own.row(v as usize - self.own.0));
            }
            comm.send(other, 70, payload);
        }
        // Receive halos (grouped by owner rank, in the remap order).
        let mut offset = self.own_len();
        for (other, list) in self.needed.iter().enumerate() {
            if other == self.rank || list.is_empty() {
                continue;
            }
            let payload: Vec<T> = comm.recv(other, 70);
            assert_eq!(payload.len(), list.len() * k, "halo payload size");
            out.as_mut_slice()[offset * k..(offset + list.len()) * k].copy_from_slice(&payload);
            offset += list.len();
        }
        out
    }

    /// The reverse halo: scatters gathered-space gradient contributions
    /// back to the owners and returns the completed own-block gradient
    /// (own part + received remote contributions).
    pub fn scatter_add(&self, comm: &Comm, gathered: &Dense<T>) -> Dense<T> {
        assert_eq!(
            gathered.rows(),
            self.gathered_len,
            "gathered shape mismatch"
        );
        let k = gathered.cols();
        let mut own = gathered.slice_rows(0, self.own_len());
        if self.part.p == 1 {
            return own;
        }
        comm.charge_supersteps(1);
        // Send halo contributions back to their owners.
        let mut offset = self.own_len();
        for (other, list) in self.needed.iter().enumerate() {
            if other == self.rank || list.is_empty() {
                continue;
            }
            let mut payload = Vec::with_capacity(list.len() * k);
            for t in 0..list.len() {
                payload.extend_from_slice(gathered.row(offset + t));
            }
            comm.send(other, 71, payload);
            offset += list.len();
        }
        // Receive contributions for the vertices we serve.
        for (other, list) in self.serves.iter().enumerate() {
            if other == self.rank || list.is_empty() {
                continue;
            }
            let payload: Vec<T> = comm.recv(other, 71);
            for (t, &v) in list.iter().enumerate() {
                let row = own.row_mut(v as usize - self.own.0);
                for (o, &x) in row.iter_mut().zip(&payload[t * k..(t + 1) * k]) {
                    *o += x;
                }
            }
        }
        own
    }

    /// Global allreduce of a flat parameter-gradient vector.
    pub fn allreduce(&self, comm: &Comm, v: Vec<T>) -> Vec<T> {
        if self.part.p == 1 {
            return v;
        }
        let members: Vec<usize> = (0..self.part.p).collect();
        comm.allreduce_vec_group(&members, v, 72, |a, b| a + b)
    }
}

/// One local-formulation distributed layer (replicated parameters).
pub struct LocalLayer<T> {
    /// Model tag.
    pub kind: ModelKind,
    /// `W`.
    pub w: Dense<T>,
    /// GAT `a₁`.
    pub a_src: Vec<T>,
    /// GAT `a₂`.
    pub a_dst: Vec<T>,
    /// AGNN `β`.
    pub beta: T,
    /// Following non-linearity.
    pub activation: Activation,
}

/// Cached intermediates of one local-formulation layer.
pub struct LocalCache<T: Scalar> {
    h_in: Dense<T>,
    z: Dense<T>,
    gathered_h: Option<Dense<T>>,
    gathered_hp: Option<Dense<T>>,
    psi: Option<Csr<T>>,
    scores: Option<Csr<T>>,
    h_agg: Option<Dense<T>>,
    u_own: Option<Vec<T>>,
}

impl<T: Scalar> LocalLayer<T> {
    /// Forward pass: halo-gather remote features, compute locally.
    pub fn forward(&self, plan: &HaloPlan<T>, comm: &Comm, h_own: &Dense<T>) -> LocalCache<T> {
        comm.set_phase("halo-gather");
        let mut cache = LocalCache {
            h_in: h_own.clone(),
            z: Dense::zeros(0, 0),
            gathered_h: None,
            gathered_hp: None,
            psi: None,
            scores: None,
            h_agg: None,
            u_own: None,
        };
        match self.kind {
            ModelKind::Gcn => {
                let hp_own = gemm::matmul(h_own, &self.w);
                let gathered = plan.gather(comm, &hp_own);
                cache.z = spmm::spmm(&plan.a_local, &gathered);
                cache.gathered_hp = Some(gathered);
            }
            ModelKind::Va => {
                let gathered = plan.gather(comm, h_own);
                let psi = sddmm::sddmm_pattern(&plan.a_local, h_own, &gathered);
                let h_agg = spmm::spmm(&psi, &gathered);
                cache.z = gemm::matmul(&h_agg, &self.w);
                cache.psi = Some(psi);
                cache.h_agg = Some(h_agg);
                cache.gathered_h = Some(gathered);
            }
            ModelKind::Agnn => {
                let gathered = plan.gather(comm, h_own);
                let n_own = blocks::row_l2_norms(h_own);
                let n_g = blocks::row_l2_norms(&gathered);
                let (scores, cos) = atgnn_sparse::fused::agnn_scores_block(
                    &plan.a_local,
                    h_own,
                    &gathered,
                    &n_own,
                    &n_g,
                    self.beta,
                );
                // 1D row ownership makes the softmax fully local.
                let psi = masked::row_softmax(&scores);
                let hp_g = gemm::matmul(&gathered, &self.w);
                cache.z = spmm::spmm(&psi, &hp_g);
                cache.psi = Some(psi);
                cache.scores = Some(cos);
                cache.gathered_h = Some(gathered);
                cache.gathered_hp = Some(hp_g);
            }
            ModelKind::Gat => {
                let hp_own = gemm::matmul(h_own, &self.w);
                let gathered_hp = plan.gather(comm, &hp_own);
                let u_own = gemm::matvec(&hp_own, &self.a_src);
                let v_g = gemm::matvec(&gathered_hp, &self.a_dst);
                let (e, c_pre) = atgnn_sparse::fused::gat_scores(
                    &plan.a_local,
                    &u_own,
                    &v_g,
                    atgnn::layers::GAT_SLOPE,
                );
                let psi = masked::row_softmax(&e);
                cache.z = spmm::spmm(&psi, &gathered_hp);
                cache.psi = Some(psi);
                cache.scores = Some(c_pre);
                cache.gathered_hp = Some(gathered_hp);
                cache.u_own = Some(u_own);
            }
        }
        cache
    }

    /// Backward pass: local per-edge gradient computation plus the
    /// reverse halo (scatter-add of remote contributions). Returns
    /// `(∂L/∂H_own, allreduced parameter gradients)`.
    pub fn backward(
        &self,
        plan: &HaloPlan<T>,
        comm: &Comm,
        cache: &LocalCache<T>,
        g_own: &Dense<T>,
    ) -> (Dense<T>, Vec<Vec<T>>) {
        comm.set_phase("halo-scatter");
        match self.kind {
            ModelKind::Gcn => {
                let gathered = cache.gathered_hp.as_ref().expect("gcn cache");
                let _ = gathered;
                // t = Âᵀ G in gathered space, scattered back to owners.
                let t_gathered = spmm::spmm_t(&plan.a_local, g_own);
                let t_own = plan.scatter_add(comm, &t_gathered);
                let dh = gemm::matmul_nt(&t_own, &self.w);
                let dw = gemm::matmul_tn(&cache.h_in, &t_own);
                let dw = plan.allreduce(comm, dw.into_vec());
                (dh, vec![dw])
            }
            ModelKind::Va => {
                let psi = cache.psi.as_ref().expect("va cache psi");
                let gathered = cache.gathered_h.as_ref().expect("va cache gathered");
                let h_agg = cache.h_agg.as_ref().expect("va cache h_agg");
                let m_own = gemm::matmul_nt(g_own, &self.w);
                let n = sddmm::sddmm_pattern(&plan.a_local, &m_own, gathered);
                // NH — local; NᵀH + ΨᵀM — gathered-space scatter.
                let mut dh = spmm::spmm(&n, gathered);
                let mut buf = spmm::spmm_t(&n, &cache.h_in);
                ops::add_assign(&mut buf, &spmm::spmm_t(psi, &m_own));
                let remote = plan.scatter_add(comm, &buf);
                ops::add_assign(&mut dh, &remote);
                let dw = gemm::matmul_tn(h_agg, g_own);
                let dw = plan.allreduce(comm, dw.into_vec());
                (dh, vec![dw])
            }
            ModelKind::Agnn => {
                let psi = cache.psi.as_ref().expect("agnn cache psi");
                let cos = cache.scores.as_ref().expect("agnn cache cos");
                let gathered = cache.gathered_h.as_ref().expect("agnn cache gathered");
                let hp_g = cache.gathered_hp.as_ref().expect("agnn cache hp");
                let d = sddmm::sddmm_pattern(&plan.a_local, g_own, hp_g);
                let ds = masked::row_softmax_backward(psi, &d);
                let dbeta: T = masked::row_dots(&ds, cos).into_iter().sum();
                let dcos = ds.map_values(|v| self.beta * v);
                let n_own = blocks::row_l2_norms(&cache.h_in);
                let n_g = blocks::row_l2_norms(gathered);
                let inv = |x: T| {
                    if x == T::zero() {
                        T::zero()
                    } else {
                        T::one() / x
                    }
                };
                let p_mat = {
                    let mut vals = dcos.values().to_vec();
                    let indptr = dcos.indptr().to_vec();
                    let indices = dcos.indices();
                    for r in 0..dcos.rows() {
                        let ir = inv(n_own[r]);
                        for idx in indptr[r]..indptr[r + 1] {
                            vals[idx] *= ir * inv(n_g[indices[idx] as usize]);
                        }
                    }
                    dcos.with_values(vals)
                };
                // Own-side terms.
                let mut dh = spmm::spmm(&p_mat, gathered);
                let tc = masked::hadamard(&dcos, cos);
                let row_corr = masked::row_sums(&tc);
                for i in 0..dh.rows() {
                    let coef = row_corr[i] * inv(n_own[i]) * inv(n_own[i]);
                    for (o, &hv) in dh.row_mut(i).iter_mut().zip(cache.h_in.row(i)) {
                        *o -= coef * hv;
                    }
                }
                // Gathered-space terms: Pᵀ h_own − diag(colsum(tc)/n²) h,
                // and the product-rule Ψᵀ G (k_out wide, separate buffer).
                let mut buf = spmm::spmm_t(&p_mat, &cache.h_in);
                let col_corr = masked::col_sums(&tc);
                for jv in 0..buf.rows() {
                    let coef = col_corr[jv] * inv(n_g[jv]) * inv(n_g[jv]);
                    for (o, &hv) in buf.row_mut(jv).iter_mut().zip(gathered.row(jv)) {
                        *o -= coef * hv;
                    }
                }
                let remote = plan.scatter_add(comm, &buf);
                ops::add_assign(&mut dh, &remote);
                let dhp_gathered = spmm::spmm_t(psi, g_own);
                let dhp_own = plan.scatter_add(comm, &dhp_gathered);
                let dw = gemm::matmul_tn(&cache.h_in, &dhp_own);
                ops::add_assign(&mut dh, &gemm::matmul_nt(&dhp_own, &self.w));
                let dw = plan.allreduce(comm, dw.into_vec());
                let dbeta = plan.allreduce(comm, vec![dbeta]);
                (dh, vec![dw, dbeta])
            }
            ModelKind::Gat => {
                let psi = cache.psi.as_ref().expect("gat cache psi");
                let c_pre = cache.scores.as_ref().expect("gat cache scores");
                let hp_g = cache.gathered_hp.as_ref().expect("gat cache hp");
                let d = sddmm::sddmm_pattern(&plan.a_local, g_own, hp_g);
                let de = masked::row_softmax_backward(psi, &d);
                let lrelu = Activation::LeakyRelu(atgnn::layers::GAT_SLOPE);
                let dc = de.with_values(
                    de.values()
                        .iter()
                        .zip(c_pre.values())
                        .map(|(&x, &c)| x * lrelu.grad(c))
                        .collect(),
                );
                let du_own = masked::row_sums(&dc);
                let dv_gathered = masked::col_sums(&dc);
                // ∂H' in gathered space: Ψᵀ G + dv a₂ᵀ, scattered home;
                // the du a₁ᵀ term applies to own rows directly.
                let mut buf = spmm::spmm_t(psi, g_own);
                for (jv, &dvv) in dv_gathered.iter().enumerate() {
                    for (o, &a2) in buf.row_mut(jv).iter_mut().zip(&self.a_dst) {
                        *o += dvv * a2;
                    }
                }
                let mut dhp_own = plan.scatter_add(comm, &buf);
                for (i, &dui) in du_own.iter().enumerate() {
                    for (o, &a1) in dhp_own.row_mut(i).iter_mut().zip(&self.a_src) {
                        *o += dui * a1;
                    }
                }
                // Parameter gradients (hp_own = first rows of gathered).
                let hp_own = hp_g.slice_rows(0, plan.own_len());
                // dv must be complete at owners for ∂a₂.
                let dv_own = plan
                    .scatter_add(comm, &Dense::from_vec(plan.gathered_len, 1, dv_gathered))
                    .into_vec();
                let da_src = gemm::matvec_t(&hp_own, &du_own);
                let da_dst = gemm::matvec_t(&hp_own, &dv_own);
                let dw = gemm::matmul_tn(&cache.h_in, &dhp_own);
                let dh = gemm::matmul_nt(&dhp_own, &self.w);
                let dw = plan.allreduce(comm, dw.into_vec());
                let da_src = plan.allreduce(comm, da_src);
                let da_dst = plan.allreduce(comm, da_dst);
                (dh, vec![dw, da_src, da_dst])
            }
        }
    }
}

/// A stack of local-formulation layers with the same replicated-parameter
/// construction as [`atgnn::GnnModel::uniform`].
pub struct LocalDistModel<T: Scalar> {
    /// The layers.
    pub layers: Vec<LocalLayer<T>>,
}

impl<T: Scalar> LocalDistModel<T> {
    /// Builds the model with parameters identical to the global
    /// formulation's `uniform` constructor (same seeds).
    pub fn uniform(kind: ModelKind, dims: &[usize], activation: Activation, seed: u64) -> Self {
        let reference = atgnn::GnnModel::<T>::uniform(kind, dims, activation, seed);
        let mut layers = Vec::new();
        for (l, layer) in reference.layers().iter().enumerate() {
            let slices = layer.param_slices();
            let w = Dense::from_vec(layer.in_dim(), layer.out_dim(), slices[0].to_vec());
            let (a_src, a_dst, beta) = match kind {
                ModelKind::Gat => (slices[1].to_vec(), slices[2].to_vec(), T::one()),
                ModelKind::Agnn => (Vec::new(), Vec::new(), slices[1][0]),
                _ => (Vec::new(), Vec::new(), T::one()),
            };
            let _ = l;
            layers.push(LocalLayer {
                kind,
                w,
                a_src,
                a_dst,
                beta,
                activation: layer.activation(),
            });
        }
        Self { layers }
    }

    /// Distributed local-formulation inference over the own block.
    pub fn inference(&self, plan: &HaloPlan<T>, comm: &Comm, x_own: &Dense<T>) -> Dense<T> {
        let mut h = x_own.clone();
        for layer in &self.layers {
            let cache = layer.forward(plan, comm, &h);
            h = layer.activation.apply(&cache.z);
        }
        h
    }

    /// Training-mode forward.
    pub fn forward_cached(
        &self,
        plan: &HaloPlan<T>,
        comm: &Comm,
        x_own: &Dense<T>,
    ) -> (Dense<T>, Vec<LocalCache<T>>) {
        let mut h = x_own.clone();
        let mut caches = Vec::new();
        for layer in &self.layers {
            let cache = layer.forward(plan, comm, &h);
            h = layer.activation.apply(&cache.z);
            caches.push(cache);
        }
        (h, caches)
    }

    /// Backward from the own-block output gradient; returns per-layer
    /// allreduced parameter gradients.
    pub fn backward(
        &self,
        plan: &HaloPlan<T>,
        comm: &Comm,
        caches: &[LocalCache<T>],
        grad_out_own: &Dense<T>,
    ) -> Vec<Vec<Vec<T>>> {
        let mut g = grad_out_own.clone();
        let mut grads = Vec::with_capacity(self.layers.len());
        for (layer, cache) in self.layers.iter().zip(caches).rev() {
            layer.activation.chain_assign(&mut g, &cache.z);
            let (dh, gr) = layer.backward(plan, comm, cache, &g);
            grads.push(gr);
            g = dh;
        }
        grads.reverse();
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn::loss::{Loss, Mse};
    use atgnn::GnnModel;
    use atgnn_net::Cluster;
    use atgnn_sparse::Coo;
    use atgnn_tensor::init;

    fn graph(n: usize) -> Csr<f64> {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| [(i, (i + 1) % n as u32), (i, (i * 3 + 5) % n as u32)])
            .filter(|&(a, b)| a != b)
            .collect();
        let mut coo = Coo::from_edges(n, n, edges);
        coo.symmetrize_binary();
        Csr::from_coo(&coo)
    }

    #[test]
    fn partition_owner_is_consistent() {
        let part = Partition1d { n: 10, p: 3 };
        for v in 0..10 {
            let r = part.owner(v);
            let (lo, hi) = part.bounds(r);
            assert!(v >= lo && v < hi, "vertex {v} not in its owner's range");
        }
    }

    #[test]
    fn halo_plan_partitions_edges() {
        let a = graph(12);
        let part = Partition1d { n: 12, p: 3 };
        let mut total_edges = 0;
        for r in 0..3 {
            let plan = HaloPlan::build(&a, part, r);
            total_edges += plan.a_local.nnz();
            // Every needed list must be mirrored in the owner's serves.
            for (other, list) in plan.needed.iter().enumerate() {
                if other == r {
                    continue;
                }
                let other_plan = HaloPlan::<f64>::build(&a, part, other);
                assert_eq!(list, &other_plan.serves[r], "mirror mismatch {r}<->{other}");
            }
        }
        assert_eq!(total_edges, a.nnz());
    }

    #[test]
    fn halo_inference_equals_sequential_for_every_model() {
        let n = 12;
        for kind in [
            ModelKind::Va,
            ModelKind::Agnn,
            ModelKind::Gat,
            ModelKind::Gcn,
        ] {
            let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(n));
            let x = init::features(n, 3, 5);
            let seq =
                GnnModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Tanh, 7).inference(&a, &x);
            for p in [1usize, 3, 4] {
                let a = a.clone();
                let x = x.clone();
                let seq = seq.clone();
                let (errs, stats) = Cluster::run(p, move |comm| {
                    let part = Partition1d { n, p: comm.size() };
                    let plan = HaloPlan::build(&a, part, comm.rank());
                    let model =
                        LocalDistModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Tanh, 7);
                    let (lo, hi) = part.bounds(comm.rank());
                    let out = model.inference(&plan, &comm, &x.slice_rows(lo, hi - lo));
                    out.max_abs_diff(&seq.slice_rows(lo, hi - lo))
                });
                for e in errs {
                    assert!(e < 1e-10, "{kind:?} p={p}: {e}");
                }
                if p > 1 {
                    assert!(stats.total_bytes() > 0, "{kind:?} p={p}: no halo traffic?");
                }
            }
        }
    }

    #[test]
    fn halo_gradients_equal_sequential() {
        let n = 10;
        for kind in [
            ModelKind::Va,
            ModelKind::Agnn,
            ModelKind::Gat,
            ModelKind::Gcn,
        ] {
            let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(n));
            let x = init::features(n, 3, 11);
            let target = init::features(n, 2, 13);
            let seq_model = GnnModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Tanh, 17);
            let loss = Mse::new(target.clone());
            let (out, ctxs) = seq_model.forward_cached(&a, &x);
            let (seq_grads, _) = seq_model.backward(&a, &ctxs, &loss.gradient(&out));
            let p = 3;
            let a2 = a.clone();
            let (errs, _) = Cluster::run(p, move |comm| {
                let part = Partition1d { n, p: comm.size() };
                let plan = HaloPlan::build(&a2, part, comm.rank());
                let model = LocalDistModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Tanh, 17);
                let (lo, hi) = part.bounds(comm.rank());
                let x_own = x.slice_rows(lo, hi - lo);
                let (out_own, caches) = model.forward_cached(&plan, &comm, &x_own);
                let diff = ops::sub(&out_own, &target.slice_rows(lo, hi - lo));
                let grad_own = ops::scale(&diff, 2.0 / (n * 2) as f64);
                let grads = model.backward(&plan, &comm, &caches, &grad_own);
                let mut worst = 0.0f64;
                for (sg, dg) in seq_grads.iter().zip(&grads) {
                    for (ss, ds) in sg.slots.iter().zip(dg) {
                        for (a, b) in ss.iter().zip(ds) {
                            worst = worst.max((a - b).abs());
                        }
                    }
                }
                worst
            });
            for e in errs {
                assert!(e < 1e-9, "{kind:?}: grad error {e}");
            }
        }
    }

    #[test]
    fn halo_volume_scales_with_cut_edges() {
        // A denser graph must move more halo bytes — the Θ(cut·k) law.
        let n = 32;
        let run = |extra_edges: u32| {
            let mut edges: Vec<(u32, u32)> =
                (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
            for d in 0..extra_edges {
                for i in 0..n as u32 {
                    edges.push((i, (i + 7 + d * 3) % n as u32));
                }
            }
            let mut coo = Coo::from_edges(n, n, edges);
            coo.symmetrize_binary();
            let a: Csr<f64> = Csr::from_coo(&coo);
            let (_, stats) = Cluster::run(4, move |comm| {
                let part = Partition1d { n, p: comm.size() };
                let plan = HaloPlan::build(&a, part, comm.rank());
                let model =
                    LocalDistModel::<f64>::uniform(ModelKind::Gcn, &[4, 4], Activation::Relu, 3);
                let (lo, hi) = part.bounds(comm.rank());
                let x = init::features(n, 4, 9);
                model.inference(&plan, &comm, &x.slice_rows(lo, hi - lo));
            });
            stats.total_bytes()
        };
        let sparse = run(0);
        let dense = run(6);
        assert!(dense > sparse * 2, "dense={dense} sparse={sparse}");
    }
}
