//! Seeded ego-subgraph extraction for mini-batch and serving workloads.
//!
//! The serving runtime (`atgnn-serve`) answers per-node inference requests
//! by running the fused attention sweep over the union of the requested
//! nodes' receptive fields instead of the whole graph. This module extracts
//! that receptive field: a breadth-first expansion from one or more seed
//! nodes, `hops` levels deep, keeping at most `fanout` neighbours per
//! expanded node (deterministic sampling under a fixed seed).
//!
//! Nodes are numbered in discovery order — seeds, then hop 1, then hop 2 —
//! and [`EgoSubgraph::levels`] records where each hop ends, so "every node
//! within `h` hops" is the prefix `nodes[..levels[h]]` and a stored column
//! of a row in level `h` is always `< levels[h + 1]`. That is DGL's block
//! (message-flow-graph) convention — destination nodes are a prefix of the
//! source nodes — expressed as one integer per hop: layer `l` of an
//! `L`-layer model only needs the `levels[L-1-l] × levels[L-l]` leading
//! block of the extracted matrix (`Csr::row_prefix`), which is what
//! `GnnModel::inference_prefix` runs.
//!
//! The extractor's core emits rows for *expanded* nodes only — with all
//! `hops` rounds run, the rectangular `levels[hops-1] × levels[hops]`
//! block. Nodes discovered on the last hop (the *fringe*) have no row
//! there; the square form [`Csr::ego_union`] returns appends one row per
//! fringe node holding just its self-edge, which only a model deeper than
//! `hops` ever reads.
//!
//! The id map is a dense `(stamp, id)` array over the parent's nodes kept
//! in a caller-owned [`EgoScratch`] and invalidated by bumping a
//! generation counter, so a warm extraction performs no hashing and a
//! constant number of allocations (the returned arrays) whatever the ego
//! size.
//!
//! Properties upheld by construction (and property-tested here and in
//! `tests/serve_runtime.rs`):
//!
//! * every extracted edge `(u', v')` maps to an edge `(u, v)` of the parent
//!   graph with the same stored value;
//! * the node remapping `new → old` is a bijection onto the extracted node
//!   set (no duplicates, every referenced column mapped);
//! * extraction is deterministic: the same `(seeds, hops, fanout, seed)`
//!   yields the same subgraph regardless of thread count, prior calls, or
//!   what the scratch served before;
//! * with `fanout >= max degree` and `hops >=` model depth, inference on
//!   the ego graph reproduces the full-graph rows for the seed nodes (the
//!   exactness oracle used by the serve tests);
//! * rows keep their self-edge whenever the parent row has one, even when
//!   sampling would have dropped it — `fanout = 0` keeps the self-edge and
//!   nothing else — so attention softmax rows never become empty.

use crate::csr::Csr;
use atgnn_tensor::rng::Rng;
use atgnn_tensor::Scalar;

/// An extracted ego subgraph: the sampled adjacency over the union of the
/// seeds' receptive fields, plus the mapping back to parent node ids.
#[derive(Clone, Debug)]
pub struct EgoSubgraph<T> {
    /// Sampled adjacency over the extracted nodes: `nodes.len()` columns,
    /// and either one row per node (fringe rows hold a self-edge) or one
    /// row per expanded node (see [`Csr::ego_union_in`]).
    pub csr: Csr<T>,
    /// `nodes[new] = old`: parent id of each subgraph node, in discovery
    /// order (seeds first, then hop-1 neighbours, ...). A bijection.
    pub nodes: Vec<u32>,
    /// Subgraph index of each seed, in seed order (`centers[i]` is the row
    /// of `seeds[i]` in the subgraph).
    pub centers: Vec<usize>,
    /// `levels[h]` = number of nodes within `h` hops of a seed:
    /// non-decreasing, `levels[0]` = distinct seeds, last = `nodes.len()`.
    /// Shorter than `hops + 1` when the frontier empties early.
    pub levels: Vec<usize>,
}

/// Reusable extraction state: the dense node-id map and the per-row
/// buffers. Owned by the caller (one per serving worker), valid for any
/// parent graph, and never observable in the result.
#[derive(Debug, Default)]
pub struct EgoScratch {
    /// `(stamp, id)` per parent node: `id` is the node's subgraph index
    /// iff `stamp == generation`.
    slots: Vec<(u32, u32)>,
    generation: u32,
    /// The row being assembled: `(subgraph column, position in the
    /// parent row)`.
    row: Vec<(u32, u32)>,
    /// Fisher–Yates positions of a sampled row.
    pos: Vec<u32>,
    /// High-water node and entry counts, so the returned arrays are
    /// allocated once at a size that has already been enough.
    nodes_hint: usize,
    nnz_hint: usize,
}

impl EgoScratch {
    /// An empty scratch; it sizes itself to the first parent it serves.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new extraction over an `n`-node parent and returns its
    /// generation: every id mapped by an earlier call becomes stale.
    fn begin(&mut self, n: usize) -> u32 {
        if self.slots.len() < n {
            self.slots.resize(n, (0, 0));
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps from 2³² calls ago would read as current.
            self.slots.fill((0, 0));
            self.generation = 1;
        }
        self.generation
    }
}

/// SplitMix64 finalizer: decorrelates per-node sampling streams so that
/// node `v`'s kept-neighbour set is independent of `v-1`'s.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministically samples `fanout < cols.len()` positions of node `u`'s
/// parent row into `pos` (ascending), always retaining the self-edge when
/// the row stores one — alone when `fanout == 0`.
fn sample_positions(cols: &[u32], u: u32, fanout: usize, seed: u64, pos: &mut Vec<u32>) {
    let d = cols.len();
    // Partial Fisher–Yates over row positions, seeded per (run, node).
    let mut rng = Rng::seed_from_u64(seed ^ splitmix(u as u64));
    pos.clear();
    pos.extend(0..d as u32);
    for i in 0..fanout {
        let j = rng.gen_range(i, d);
        pos.swap(i, j);
    }
    pos.truncate(fanout);
    // Keep the self-edge (the attention softmax anchor added by
    // add_self_loops) even if sampling evicted it.
    if let Ok(p) = cols.binary_search(&u) {
        let p = p as u32;
        if !pos.contains(&p) {
            match pos.last_mut() {
                Some(last) => *last = p,
                None => pos.push(p),
            }
        }
    }
    pos.sort_unstable();
}

impl<T: Scalar> Csr<T> {
    /// Extract the `hops`-hop ego subgraph around `node`, sampling at most
    /// `fanout` neighbours per expanded node. Deterministic under `seed`.
    ///
    /// # Panics
    /// Panics if the matrix is not square or `node` is out of range.
    pub fn ego_subgraph(
        &self,
        node: usize,
        hops: usize,
        fanout: usize,
        seed: u64,
    ) -> EgoSubgraph<T> {
        self.ego_union(&[node], hops, fanout, seed)
    }

    /// Extract one subgraph covering the union of several seeds' receptive
    /// fields — the batched form used by the serving runtime, where one
    /// fused sweep answers every request in the batch.
    ///
    /// Expansion is level-synchronous from all seeds at once; a node
    /// reached from two seeds is expanded once, so overlapping receptive
    /// fields are shared rather than duplicated. Nodes discovered on the
    /// final hop contribute only their self-edge (their neighbourhoods lie
    /// outside the receptive field). The result is square; this is
    /// [`Csr::ego_union_in`] with a throw-away scratch and fringe rows.
    ///
    /// # Panics
    /// Panics if the matrix is not square or any seed is out of range.
    pub fn ego_union(
        &self,
        seeds: &[usize],
        hops: usize,
        fanout: usize,
        seed: u64,
    ) -> EgoSubgraph<T> {
        self.ego_union_in(&mut EgoScratch::new(), seeds, hops, fanout, seed, true)
    }

    /// [`Csr::ego_union`] over a reusable scratch. Without `fringe_rows`
    /// the matrix stops after the last expanded node — the
    /// `levels[hops-1] × levels[hops]` block, all a model of at most
    /// `hops` layers reads; with them it is square. The scratch never
    /// influences the result.
    ///
    /// # Panics
    /// Panics if the matrix is not square or any seed is out of range.
    pub fn ego_union_in(
        &self,
        scratch: &mut EgoScratch,
        seeds: &[usize],
        hops: usize,
        fanout: usize,
        seed: u64,
        fringe_rows: bool,
    ) -> EgoSubgraph<T> {
        assert_eq!(
            self.rows(),
            self.cols(),
            "ego extraction needs a square adjacency"
        );
        let n = self.rows();
        let generation = scratch.begin(n);
        let EgoScratch {
            slots, row, pos, ..
        } = scratch;
        let mut nodes: Vec<u32> = Vec::with_capacity(scratch.nodes_hint.max(seeds.len()));
        let mut indptr: Vec<usize> = Vec::with_capacity(nodes.capacity() + 1);
        let mut indices: Vec<u32> = Vec::with_capacity(scratch.nnz_hint);
        let mut values: Vec<T> = Vec::with_capacity(scratch.nnz_hint);
        indptr.push(0);
        // Subgraph id of parent node `c`, assigned on first sight.
        let mut id_of = |c: u32, nodes: &mut Vec<u32>| {
            let slot = &mut slots[c as usize];
            if slot.0 != generation {
                *slot = (generation, nodes.len() as u32);
                nodes.push(c);
            }
            slot.1
        };
        let centers: Vec<usize> = seeds
            .iter()
            .map(|&s| {
                assert!(s < n, "seed node {s} out of range for {n}-node graph");
                id_of(s as u32, &mut nodes) as usize
            })
            .collect();

        // Level-synchronous expansion. The nodes expanded so far are
        // always the prefix `nodes[..lo]`, so their rows are appended in
        // discovery order as they are expanded.
        let mut levels = vec![nodes.len()];
        let mut lo = 0;
        for _ in 0..hops {
            let hi = nodes.len();
            if lo == hi {
                break;
            }
            for i in lo..hi {
                let u = nodes[i];
                let (cols, vals) = self.row(u as usize);
                row.clear();
                if cols.len() <= fanout {
                    row.extend((0u32..).zip(cols).map(|(p, &c)| (id_of(c, &mut nodes), p)));
                } else {
                    sample_positions(cols, u, fanout, seed, pos);
                    row.extend(
                        pos.iter()
                            .map(|&p| (id_of(cols[p as usize], &mut nodes), p)),
                    );
                }
                // Remapped columns are not monotone in general, so each
                // row is sorted to uphold the strictly-increasing column
                // invariant checked by from_raw.
                row.sort_unstable_by_key(|&(c, _)| c);
                indices.extend(row.iter().map(|&(c, _)| c));
                values.extend(row.iter().map(|&(_, p)| vals[p as usize]));
                indptr.push(indices.len());
            }
            lo = hi;
            levels.push(nodes.len());
        }
        if fringe_rows {
            // Fringe nodes keep their self-edge (if the parent stores
            // one) so their attention rows stay non-empty.
            for (i, &u) in nodes.iter().enumerate().skip(lo) {
                let (cols, vals) = self.row(u as usize);
                if let Ok(p) = cols.binary_search(&u) {
                    indices.push(i as u32);
                    values.push(vals[p]);
                }
                indptr.push(indices.len());
            }
        }
        scratch.nodes_hint = scratch.nodes_hint.max(nodes.len());
        scratch.nnz_hint = scratch.nnz_hint.max(indices.len());
        EgoSubgraph {
            csr: Csr::from_raw(indptr.len() - 1, nodes.len(), indptr, indices, values),
            nodes,
            centers,
            levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Csr<f32> {
        // ring + self loops: row i links i-1, i, i+1 (mod n).
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            let mut cols = [((i + n - 1) % n) as u32, i as u32, ((i + 1) % n) as u32];
            cols.sort_unstable();
            for c in cols {
                indices.push(c);
                values.push(1.0 + c as f32);
            }
            indptr.push(indices.len());
        }
        Csr::from_raw(n, n, indptr, indices, values)
    }

    #[test]
    fn single_seed_one_hop_covers_neighbours() {
        let g = ring(10);
        let ego = g.ego_subgraph(4, 1, usize::MAX, 7);
        let mut olds = ego.nodes.clone();
        olds.sort_unstable();
        assert_eq!(olds, vec![3, 4, 5]);
        assert_eq!(ego.centers, vec![0]);
        assert_eq!(ego.nodes[0], 4);
        // Seed row has all 3 edges; fringe rows keep the self-edge only.
        assert_eq!(ego.csr.row_nnz(0), 3);
        for r in 1..ego.csr.rows() {
            assert_eq!(ego.csr.row_nnz(r), 1);
            let (cols, _) = ego.csr.row(r);
            assert_eq!(cols, [r as u32]);
        }
    }

    #[test]
    fn edges_carry_parent_values() {
        let g = ring(16);
        let ego = g.ego_union(&[0, 8], 2, usize::MAX, 3);
        for r in 0..ego.csr.rows() {
            let (cols, vals) = ego.csr.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let old_r = ego.nodes[r] as usize;
                let old_c = ego.nodes[c as usize] as usize;
                assert_eq!(g.get(old_r, old_c), v, "edge {old_r}->{old_c}");
            }
        }
    }

    #[test]
    fn fanout_bounds_row_degree_and_keeps_self_edge() {
        let g = ring(12);
        let ego = g.ego_subgraph(5, 2, 2, 99);
        // Expanded rows are capped at fanout=2 and always keep the self
        // edge; the ring has self loops on every node.
        let center = ego.centers[0];
        let (cols, _) = ego.csr.row(center);
        assert!(cols.len() <= 2);
        assert!(
            cols.contains(&(center as u32)),
            "self-edge must survive sampling"
        );
    }

    #[test]
    fn duplicate_seeds_share_rows() {
        let g = ring(8);
        let ego = g.ego_union(&[2, 2], 1, usize::MAX, 0);
        assert_eq!(ego.centers, vec![0, 0]);
        let uniq: std::collections::HashSet<u32> = ego.nodes.iter().copied().collect();
        assert_eq!(
            uniq.len(),
            ego.nodes.len(),
            "node remap must be a bijection"
        );
    }

    /// The extractor this module shipped before the dense id map — two
    /// `HashMap`s and a `Vec` pair per expanded node — kept as the oracle.
    /// Two additions: it records `levels`, and `fanout = 0` (which used to
    /// underflow) keeps the self-edge alone.
    fn reference_ego_union(
        a: &Csr<f32>,
        seeds: &[usize],
        hops: usize,
        fanout: usize,
        seed: u64,
    ) -> EgoSubgraph<f32> {
        use std::collections::HashMap;
        let sampled_row = |u: usize| -> (Vec<u32>, Vec<f32>) {
            let (cols, vals) = a.row(u);
            let d = cols.len();
            if d <= fanout {
                return (cols.to_vec(), vals.to_vec());
            }
            let mut rng = Rng::seed_from_u64(seed ^ splitmix(u as u64));
            let mut pos: Vec<u32> = (0..d as u32).collect();
            for i in 0..fanout {
                let j = rng.gen_range(i, d);
                pos.swap(i, j);
            }
            let mut sel: Vec<usize> = pos[..fanout].iter().map(|&p| p as usize).collect();
            if let Ok(p) = cols.binary_search(&(u as u32)) {
                if !sel.contains(&p) {
                    match sel.last_mut() {
                        Some(last) => *last = p,
                        None => sel.push(p),
                    }
                }
            }
            sel.sort_unstable();
            sel.dedup();
            (
                sel.iter().map(|&p| cols[p]).collect(),
                sel.iter().map(|&p| vals[p]).collect(),
            )
        };
        let mut new_id: HashMap<u32, u32> = HashMap::new();
        let mut nodes: Vec<u32> = Vec::new();
        for &s in seeds {
            new_id.entry(s as u32).or_insert_with(|| {
                nodes.push(s as u32);
                nodes.len() as u32 - 1
            });
        }
        let centers = seeds
            .iter()
            .map(|&s| new_id[&(s as u32)] as usize)
            .collect();
        let mut kept: HashMap<u32, (Vec<u32>, Vec<f32>)> = HashMap::new();
        let mut frontier: Vec<u32> = nodes.clone();
        let mut levels = vec![nodes.len()];
        for _ in 0..hops {
            if frontier.is_empty() {
                break;
            }
            let mut next: Vec<u32> = Vec::new();
            for &u in &frontier {
                let (cols, vals) = sampled_row(u as usize);
                for &c in &cols {
                    new_id.entry(c).or_insert_with(|| {
                        nodes.push(c);
                        next.push(c);
                        nodes.len() as u32 - 1
                    });
                }
                kept.insert(u, (cols, vals));
            }
            frontier = next;
            levels.push(nodes.len());
        }
        let sub_n = nodes.len();
        let mut indptr = vec![0usize];
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        let mut rowbuf: Vec<(u32, f32)> = Vec::new();
        for &u in &nodes {
            rowbuf.clear();
            if let Some((cols, vals)) = kept.get(&u) {
                for (&c, &v) in cols.iter().zip(vals.iter()) {
                    rowbuf.push((new_id[&c], v));
                }
            } else {
                let (cols, vals) = a.row(u as usize);
                if let Ok(p) = cols.binary_search(&u) {
                    rowbuf.push((new_id[&u], vals[p]));
                }
            }
            rowbuf.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in rowbuf.iter() {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        EgoSubgraph {
            csr: Csr::from_raw(sub_n, sub_n, indptr, indices, values),
            nodes,
            centers,
            levels,
        }
    }

    /// A seeded random digraph with distinct edge values; `skew` squares
    /// the endpoint draw (a few hubs), `self_loops` adds the diagonal to
    /// every node but the last eighth, which stays isolated.
    fn random_graph(n: usize, edges: usize, skew: bool, self_loops: bool, seed: u64) -> Csr<f32> {
        let live = n - n / 8;
        let mut rng = Rng::seed_from_u64(seed);
        let draw = |rng: &mut Rng| {
            let x = rng.next_f64();
            ((if skew { x * x } else { x }) * live as f64) as u32
        };
        let mut coo = crate::Coo::new(n, n);
        for e in 0..edges {
            let (r, c) = (draw(&mut rng), draw(&mut rng));
            if r != c {
                coo.push(r, c, 1.0 + e as f32);
            }
        }
        if self_loops {
            for v in 0..live as u32 {
                coo.push(v, v, 0.5 + v as f32);
            }
        }
        Csr::from_coo(&coo)
    }

    fn parents() -> Vec<(&'static str, Csr<f32>)> {
        vec![
            ("ring", ring(40)),
            ("uniform", random_graph(300, 2400, false, true, 11)),
            ("skewed", random_graph(257, 3000, true, true, 13)),
            ("no-self-loops", random_graph(120, 700, false, false, 17)),
        ]
    }

    fn seed_sets(n: usize) -> Vec<Vec<usize>> {
        vec![
            vec![n / 3],
            vec![5, n - 1, 5],
            (0..16).map(|i| (i * 7 + 3) % n).collect(),
        ]
    }

    fn assert_same(got: &EgoSubgraph<f32>, want: &EgoSubgraph<f32>, case: &str) {
        assert_eq!(got.nodes, want.nodes, "{case}: nodes");
        assert_eq!(got.centers, want.centers, "{case}: centers");
        assert_eq!(got.levels, want.levels, "{case}: levels");
        assert_eq!(got.csr.cols(), want.csr.cols(), "{case}: cols");
        assert_eq!(got.csr.indptr(), want.csr.indptr(), "{case}: indptr");
        assert_eq!(got.csr.indices(), want.csr.indices(), "{case}: indices");
        assert_eq!(got.csr.values(), want.csr.values(), "{case}: values");
    }

    /// The whole grid against the oracle, one scratch serving every call
    /// (so each extraction follows one of a different size, on a parent of
    /// a different `n`, and two of them straddle the generation wrap).
    #[test]
    fn matches_the_hashmap_reference_across_the_grid_on_one_scratch() {
        let mut scratch = EgoScratch::new();
        let mut calls = 0u32;
        for (name, g) in parents() {
            for seeds in seed_sets(g.rows()) {
                for fanout in [0, 2, 4, usize::MAX] {
                    for hops in 0..=3 {
                        let case = format!("{name} seeds={seeds:?} fanout={fanout} hops={hops}");
                        if calls == 100 {
                            scratch.generation = u32::MAX - 1;
                        }
                        calls += 1;
                        let want = reference_ego_union(&g, &seeds, hops, fanout, 29);
                        let got = g.ego_union_in(&mut scratch, &seeds, hops, fanout, 29, true);
                        assert_same(&got, &want, &case);
                        assert_same(&g.ego_union(&seeds, hops, fanout, 29), &want, &case);

                        // Level invariants.
                        let lv = &got.levels;
                        assert!(lv.windows(2).all(|w| w[0] <= w[1]), "{case}: {lv:?}");
                        let mut distinct = seeds.clone();
                        distinct.sort_unstable();
                        distinct.dedup();
                        assert_eq!(lv[0], distinct.len(), "{case}");
                        assert_eq!(*lv.last().unwrap(), got.nodes.len(), "{case}");
                        assert!(lv.len() <= hops + 1, "{case}");
                        for h in 0..lv.len() - 1 {
                            let lo = if h == 0 { 0 } else { lv[h - 1] };
                            for r in lo..lv[h] {
                                let (cols, _) = got.csr.row(r);
                                assert!(
                                    cols.iter().all(|&c| (c as usize) < lv[h + 1]),
                                    "{case}: row {r} of level {h} reaches past level {}",
                                    h + 1
                                );
                            }
                        }

                        // Without fringe rows: the same arrays, cut after
                        // the last expanded node.
                        let block = g.ego_union_in(&mut scratch, &seeds, hops, fanout, 29, false);
                        let expanded = if lv.len() >= 2 { lv[lv.len() - 2] } else { 0 };
                        assert_eq!(block.csr.rows(), expanded, "{case}");
                        assert_same(
                            &EgoSubgraph {
                                csr: got.csr.row_prefix(expanded, got.nodes.len()),
                                ..got.clone()
                            },
                            &block,
                            &case,
                        );
                    }
                }
            }
        }
        assert!(scratch.generation < 1000, "the generation counter wrapped");
    }

    #[test]
    fn sampling_reinstates_an_evicted_self_edge() {
        let g = random_graph(300, 2400, false, true, 11);
        let mut pos = Vec::new();
        let mut reinstated = 0;
        for u in 0..g.rows() as u32 {
            let (cols, _) = g.row(u as usize);
            if cols.len() <= 2 {
                continue;
            }
            sample_positions(cols, u, 2, 29, &mut pos);
            assert_eq!(pos.len(), 2);
            assert!(pos.windows(2).all(|w| w[0] < w[1]));
            assert!(pos.iter().any(|&p| cols[p as usize] == u), "node {u}");
            // Replay the draw without the retention step.
            let mut rng = Rng::seed_from_u64(29 ^ splitmix(u as u64));
            let mut plain: Vec<u32> = (0..cols.len() as u32).collect();
            for i in 0..2 {
                let j = rng.gen_range(i, cols.len());
                plain.swap(i, j);
            }
            reinstated += usize::from(plain[..2].iter().all(|&p| cols[p as usize] != u));
        }
        assert!(reinstated > 0, "no draw evicted a self-edge");
    }

    #[test]
    fn zero_fanout_keeps_the_self_edge_alone() {
        let g = ring(10);
        let ego = g.ego_subgraph(4, 2, 0, 7);
        assert_eq!(
            (ego.nodes.as_slice(), ego.levels.as_slice()),
            (&[4][..], &[1, 1][..])
        );
        assert_eq!(ego.csr.row(0), (&[0u32][..], &[5.0f32][..]));
        // No self-edge to keep: the row is empty, and nothing underflows.
        let bare = random_graph(120, 700, false, false, 17);
        let ego = bare.ego_union(&[0, 1, 2], 2, 0, 7);
        assert_eq!((ego.nodes.len(), ego.csr.nnz()), (3, 0));
    }
}
