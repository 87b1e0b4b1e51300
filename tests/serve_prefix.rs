//! The row-prefix block contract across the serving space.
//!
//! `GnnModel::inference_prefix` runs layer `l` of `L` on the
//! `levels[L-1-l] × levels[L-l]` leading block of an ego graph in
//! discovery order. Its seed rows must be **bit-identical** to
//! `GnnModel::inference` over the whole square ego graph with the reorder
//! stage off (same per-row reduction order, fewer rows) **at the same
//! product order** — a GAT layer aggregates first on a block it would
//! project first on the square (`spmm::product_order`), a reassociation,
//! so the GAT oracle runs each layer through `GatLayer::forward_ordered`
//! in the order of the block it mirrors — and, at full fanout with
//! `hops >= depth`, within 1e-3 of full-graph inference.
//!
//! The space is parent × batch × fanout × hops × depth × model kind ×
//! exec × k × threads; its full product is ~41 k cases, so it is swept in
//! two parts that each take one group of axes exhaustively:
//!
//! * **shapes** — every parent × batch × fanout × hops × depth, on small
//!   parents, under every model kind, with exec and k drawn per case from
//!   a seeded stream (and a check that every kind × exec × k was drawn);
//! * **kernels** — every kind × exec × k × thread count, on a parent large
//!   enough that the sweeps and the projection GEMM cross their parallel
//!   thresholds, at the served shape (batch 16, hops = depth = 2).
//!
//! One `#[test]`, so the in-process `rt::set_threads` sweep cannot race
//! with itself under the parallel test harness.

use atgnn::layers::{GatLayer, GAT_SLOPE};
use atgnn::plan::{ExecPlan, Layout, ReorderStrategy};
use atgnn::{AGnnLayer, AttentionExec, GnnModel, ModelKind};
use atgnn_graphgen::{erdos_renyi, kronecker};
use atgnn_sparse::spmm::product_order;
use atgnn_sparse::{Coo, Csr, EgoScratch, EgoSubgraph};
use atgnn_tensor::{init, ops, rt, Activation, Dense};
use std::collections::HashMap;

const KINDS: [ModelKind; 4] = [
    ModelKind::Gat,
    ModelKind::Agnn,
    ModelKind::Va,
    ModelKind::Gcn,
];
const EXECS: [AttentionExec; 2] = [AttentionExec::FusedOnePass, AttentionExec::Staged];
/// 7 and 60 are ragged: under the wide kernels they take the padded layout.
const KS: [usize; 4] = [4, 7, 60, 64];
const SAMPLE_SEED: u64 = 0x5EED;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A ring over the first `n - isolated` nodes; the rest have no edges
/// (the generators guarantee minimum degree one, so this is built by hand).
fn ring_with_isolated_nodes(n: usize, isolated: usize) -> Csr<f32> {
    let live = (n - isolated) as u32;
    let edges = (0..live).map(|i| (i, (i + 1) % live)).collect();
    let mut coo = Coo::<f32>::from_edges(n, n, edges);
    coo.symmetrize_binary();
    Csr::from_coo(&coo)
}

fn seed_sets(n: usize) -> [Vec<usize>; 3] {
    [
        vec![n / 3],
        vec![n - 1, 2, n - 1],
        (0..16).map(|i| (i * 5 + 1) % n).collect(),
    ]
}

/// A model and its reference: the same weights, the same plan, with the
/// reorder stage pinned off on the reference so it runs in the caller's
/// order whatever `ATGNN_REORDER` says.
struct Pair {
    model: GnnModel<f32>,
    reference: GnnModel<f32>,
    /// For GAT, the reference's layers rebuilt from its parameters, so the
    /// oracle can pin each layer's product order by argument.
    gat: Option<Vec<GatLayer<f32>>>,
}

impl Pair {
    fn new(kind: ModelKind, depth: usize, k: usize, exec: AttentionExec) -> Self {
        let build = || GnnModel::<f32>::uniform(kind, &vec![k; depth + 1], Activation::Relu, 9);
        let plan: ExecPlan = build().plan().with_exec(exec);
        let reference = build().with_plan(plan.with_reorder(ReorderStrategy::Off));
        let gat = (kind == ModelKind::Gat).then(|| {
            let rebuilt = reference.layers().iter().map(|l| {
                let p = l.param_slices();
                let w = Dense::from_vec(l.in_dim(), l.out_dim(), p[0].to_vec());
                GatLayer::with_params(w, p[1].to_vec(), p[2].to_vec(), GAT_SLOPE, l.activation())
                    .with_plan(plan)
            });
            rebuilt.collect()
        });
        Self {
            model: build().with_plan(plan),
            reference,
            gat,
        }
    }
}

/// One parent prepared for one model kind at one width, with the
/// full-graph outputs computed on first use.
struct Served {
    g: Csr<f32>,
    x: Dense<f32>,
    full: HashMap<(usize, usize), Dense<f32>>,
}

impl Served {
    fn new(kind: ModelKind, raw: &Csr<f32>, k: usize) -> Self {
        let g = GnnModel::<f32>::prepare_adjacency(kind, raw);
        // Quarter-scale features keep three unnormalized VA layers O(1).
        let x = ops::scale(&init::features::<f32>(g.rows(), k, 21), 0.25);
        Self {
            g,
            x,
            full: HashMap::new(),
        }
    }
}

/// One batch of requests under one serving configuration.
#[derive(Clone, Copy)]
struct Batch<'a> {
    seeds: &'a [usize],
    hops: usize,
    fanout: usize,
}

/// What `atgnn-serve`'s worker computes for a batch: the subgraph it
/// extracts and the seed rows it answers from.
fn serve(
    case: &str,
    served: &Served,
    pair: &Pair,
    scratch: &mut EgoScratch,
    b: Batch,
) -> (EgoSubgraph<f32>, Dense<f32>) {
    let depth = pair.model.depth();
    let ego = served.g.ego_union_in(
        scratch,
        b.seeds,
        b.hops.min(depth),
        b.fanout,
        SAMPLE_SEED,
        b.hops < depth,
    );
    let x = served.x.gather_rows(&ego.nodes);
    let got = pair.model.inference_prefix(&ego.csr, x, &ego.levels);
    assert_eq!(got.shape(), (ego.levels[0], served.x.cols()), "{case}");
    assert!(!got.is_padded(), "{case}: seed rows come back tight");
    (ego, got)
}

/// Oracle 1: every layer over the whole square ego graph, all `hops` of
/// it, in the caller's order — for GAT, each layer in the product order of
/// the leading block `inference_prefix` runs it on.
fn square_oracle(served: &Served, pair: &Pair, b: Batch) -> (Vec<usize>, Dense<f32>) {
    let square = served.g.ego_union(b.seeds, b.hops, b.fanout, SAMPLE_SEED);
    let x = served.x.gather_rows(&square.nodes);
    let Some(gat) = &pair.gat else {
        return (square.centers, pair.reference.inference(&square.csr, &x));
    };
    // `GnnModel::inference`'s layer loop, with the order an argument. The
    // server extracts `hops.min(depth)` levels of these (fewer if the
    // expansion ran dry first); `inference_prefix` repeats the last one.
    let last = b.hops.min(gat.len()).min(square.levels.len() - 1);
    let level = |i: usize| square.levels[i.min(last)];
    let mut h = match pair.reference.resolved_plan(&square.csr).layout() {
        Layout::Padded => x.padded(),
        Layout::Tight => x,
    };
    for (l, layer) in gat.iter().enumerate() {
        let (dst, src) = (level(gat.len() - 1 - l), level(gat.len() - l));
        let nnz = square.csr.row_prefix(dst, src).nnz();
        let order = product_order(dst, src, nnz, layer.in_dim(), layer.out_dim());
        let z = layer.forward_ordered(&square.csr, &h, order);
        h = layer.activation().apply(&z);
    }
    (square.centers, h.into_tight())
}

fn assert_same_bits(case: &str, got: &Dense<f32>, want: &Dense<f32>) {
    for r in 0..got.rows() {
        for (c, (a, b)) in got.row(r).iter().zip(want.row(r)).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{case}: seed row {r} col {c}: prefix {a} vs square {b}"
            );
        }
    }
}

/// Oracle 2: the full graph, whenever the receptive field is complete.
fn assert_near_full_graph(
    case: &str,
    served: &mut Served,
    pair: &Pair,
    full_key: (usize, usize),
    b: Batch,
    centers: &[usize],
    got: &Dense<f32>,
) {
    if b.fanout != usize::MAX || b.hops < pair.model.depth() {
        return;
    }
    let (g, x) = (&served.g, &served.x);
    let full = served
        .full
        .entry(full_key)
        .or_insert_with(|| pair.reference.inference(g, x));
    let scale = full.max_abs().max(1.0);
    for (&s, &c) in b.seeds.iter().zip(centers) {
        let off = got
            .row(c)
            .iter()
            .zip(full.row(s))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            off <= 1e-3 * scale,
            "{case}: node {s} is {off} off its full-graph row"
        );
    }
}

#[test]
fn prefix_seed_rows_are_bit_identical_to_square_ego_inference() {
    let max_threads = rt::max_threads();
    let mut scratch = EgoScratch::new();
    let mut pairs: HashMap<(usize, usize, usize, usize), Pair> = HashMap::new();

    // -- shapes ----------------------------------------------------------
    let parents = [
        ("er", erdos_renyi::adjacency::<f32>(64, 64 * 3, 5)),
        ("kron", kronecker::adjacency::<f32>(64, 64 * 4, 6)),
        ("ring+isolated", ring_with_isolated_nodes(40, 8)),
    ];
    let mut drawn = [[[0usize; KS.len()]; EXECS.len()]; KINDS.len()];
    let mut draw = 0u64;
    for (pname, raw) in &parents {
        for (ki, &kind) in KINDS.iter().enumerate() {
            let mut by_width: Vec<Served> = KS.iter().map(|&k| Served::new(kind, raw, k)).collect();
            for (bi, seeds) in seed_sets(raw.rows()).iter().enumerate() {
                for fanout in [0, 2, 4, usize::MAX] {
                    for hops in 0..=3 {
                        for depth in 1..=3 {
                            draw += 1;
                            let r = splitmix(draw);
                            let (ei, wi) = (r as usize % EXECS.len(), (r >> 8) as usize % KS.len());
                            drawn[ki][ei][wi] += 1;
                            let pair = pairs
                                .entry((ki, depth, wi, ei))
                                .or_insert_with(|| Pair::new(kind, depth, KS[wi], EXECS[ei]));
                            let case = format!(
                                "{pname}/{}/{}/k={} batch#{bi} fanout={fanout} hops={hops} depth={depth}",
                                kind.name(),
                                EXECS[ei].name(),
                                KS[wi]
                            );
                            let b = Batch {
                                seeds,
                                hops,
                                fanout,
                            };
                            let served = &mut by_width[wi];
                            let (ego, got) = serve(&case, served, pair, &mut scratch, b);
                            let (centers, want) = square_oracle(served, pair, b);
                            assert_eq!(ego.centers, centers, "{case}");
                            assert_same_bits(&case, &got, &want);
                            assert_near_full_graph(
                                &case,
                                served,
                                pair,
                                (depth, ei),
                                b,
                                &centers,
                                &got,
                            );
                        }
                    }
                }
            }
        }
    }
    let least = drawn.iter().flatten().flatten().min().copied().unwrap_or(0);
    assert!(
        least >= 20,
        "a kind × exec × k cell was drawn only {least} times"
    );

    // -- kernels ---------------------------------------------------------
    // 16 seeds at ≈ 25 neighbours expand ≈ 250 rows and reach all 384
    // nodes: over 4096 stored entries (the sweeps' parallel threshold)
    // and, from k = 60, over 16 Ki projected elements (the GEMM's).
    let raw = erdos_renyi::adjacency::<f32>(384, 384 * 12, 7);
    let seeds: Vec<usize> = (0..16).map(|i| i * 23 + 3).collect();
    for (ki, &kind) in KINDS.iter().enumerate() {
        for (wi, &k) in KS.iter().enumerate() {
            let mut served = Served::new(kind, &raw, k);
            for (ei, &exec) in EXECS.iter().enumerate() {
                let pair = pairs
                    .entry((ki, 2, wi, ei))
                    .or_insert_with(|| Pair::new(kind, 2, k, exec));
                let b = Batch {
                    seeds: &seeds,
                    hops: 2,
                    fanout: usize::MAX,
                };
                // The reference's own thread-count invariance is
                // `tests/runtime_determinism.rs`'s business: one oracle.
                let (centers, want) = square_oracle(&served, pair, b);
                for threads in [1usize, 2, 8] {
                    rt::set_threads(threads);
                    let case = format!(
                        "er384/{}/{}/k={k} threads={threads}",
                        kind.name(),
                        exec.name()
                    );
                    let (ego, got) = serve(&case, &served, pair, &mut scratch, b);
                    assert_eq!(ego.centers, centers, "{case}");
                    assert_same_bits(&case, &got, &want);
                    assert_near_full_graph(&case, &mut served, pair, (2, ei), b, &centers, &got);
                }
            }
        }
    }
    rt::set_threads(max_threads);
    let ego = GnnModel::<f32>::prepare_adjacency(ModelKind::Gat, &raw).ego_union(
        &seeds,
        2,
        usize::MAX,
        SAMPLE_SEED,
    );
    assert!(
        ego.csr.nnz() >= 4096 && ego.levels[2] * 60 >= 16 * 1024,
        "the kernel sweep no longer crosses the parallel thresholds: {} entries, levels {:?}",
        ego.csr.nnz(),
        ego.levels
    );
}

/// A level boundary that cuts through a row's columns is refused by
/// `Csr::row_prefix`, not silently computed.
#[test]
#[should_panic(expected = "row_prefix")]
fn a_level_boundary_one_node_short_is_refused() {
    let g = GnnModel::<f32>::prepare_adjacency(
        ModelKind::Gat,
        &erdos_renyi::adjacency::<f32>(64, 64 * 3, 5),
    );
    let ego = g.ego_union(&[1, 2, 3], 2, usize::MAX, SAMPLE_SEED);
    let x = init::features::<f32>(ego.nodes.len(), 4, 1);
    let model = GnnModel::<f32>::uniform(ModelKind::Gat, &[4, 4, 4], Activation::Relu, 9);
    let levels = [ego.levels[0], ego.levels[1] - 1, ego.levels[2]];
    let _ = model.inference_prefix(&ego.csr, x, &levels);
}
