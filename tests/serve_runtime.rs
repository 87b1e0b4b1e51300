//! Serving-runtime integration suite: ego-subgraph extraction
//! properties, the bounded retransmit store, admission control and
//! deadlines, the graceful-degradation ladder (with the bf16 tolerance
//! gate), crash/hang healing, and warm restart from the write-ahead
//! intent log.

use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::erdos_renyi;
use atgnn_net::{Cluster, FaultPlan};
use atgnn_serve::{ServeConfig, ServeError, Server, RUNG_BF16, RUNG_FULL};
use atgnn_sparse::Csr;
use atgnn_tensor::{init, Activation};
use std::collections::HashSet;
use std::time::{Duration, Instant};

const DIMS: [usize; 3] = [8, 8, 4];
const HOPS: usize = 2; // = layer count: the served receptive field

fn served_graph(n: usize, m: usize, seed: u64) -> Csr<f32> {
    // Serve over the GAT-prepared adjacency (self loops added), the
    // same matrix whole-graph inference uses.
    let raw = erdos_renyi::adjacency::<f32>(n, m, seed);
    GnnModel::<f32>::prepare_adjacency(ModelKind::Gat, &raw)
}

fn gat(seed: u64) -> GnnModel<f32> {
    GnnModel::uniform(ModelKind::Gat, &DIMS, Activation::Relu, seed)
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("atgnn_serve_test_{}_{name}", std::process::id()));
    p
}

// ---------------------------------------------------------------------
// Ego-subgraph extraction properties
// ---------------------------------------------------------------------

#[test]
fn ego_edges_exist_in_parent_with_parent_values() {
    let g = served_graph(128, 1024, 3);
    for &fanout in &[3usize, 8, usize::MAX] {
        let ego = g.ego_union(&[5, 41, 99], HOPS, fanout, 7);
        for r in 0..ego.csr.rows() {
            let (cols, vals) = ego.csr.row(r);
            let old_r = ego.nodes[r] as usize;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let old_c = ego.nodes[c as usize] as usize;
                assert_eq!(
                    g.get(old_r, old_c),
                    v,
                    "ego edge {r}->{c} maps to parent {old_r}->{old_c}"
                );
            }
            assert!(
                cols.len() <= fanout.max(1).min(g.row_nnz(old_r)),
                "row degree exceeds fanout"
            );
        }
    }
}

#[test]
fn ego_remap_is_a_bijection_and_centers_resolve() {
    let g = served_graph(128, 1024, 3);
    let seeds = [17usize, 17, 63, 2];
    let ego = g.ego_union(&seeds, HOPS, 4, 11);
    let uniq: HashSet<u32> = ego.nodes.iter().copied().collect();
    assert_eq!(uniq.len(), ego.nodes.len(), "duplicate parent id in remap");
    assert!(ego.nodes.iter().all(|&v| (v as usize) < g.rows()));
    assert_eq!(ego.centers.len(), seeds.len());
    for (&seed, &center) in seeds.iter().zip(ego.centers.iter()) {
        assert_eq!(
            ego.nodes[center] as usize, seed,
            "center maps back to its seed"
        );
    }
    // Duplicate seeds share one row.
    assert_eq!(ego.centers[0], ego.centers[1]);
}

#[test]
fn ego_extraction_is_deterministic_under_a_fixed_seed() {
    let g = served_graph(128, 1024, 3);
    let a = g.ego_union(&[9, 77], HOPS, 3, 1234);
    let b = g.ego_union(&[9, 77], HOPS, 3, 1234);
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.centers, b.centers);
    assert_eq!(a.csr.indptr(), b.csr.indptr());
    assert_eq!(a.csr.indices(), b.csr.indices());
    assert_eq!(a.csr.values(), b.csr.values());
    // ...and seed-sensitive: a different seed samples a different
    // neighbourhood on a graph with degrees above the fanout.
    let c = g.ego_union(&[9, 77], HOPS, 3, 4321);
    assert!(
        a.nodes != c.nodes || a.csr.indices() != c.csr.indices(),
        "sampling ignored the seed"
    );
}

#[test]
fn ego_inference_reproduces_full_graph_rows_at_full_fanout() {
    let g = served_graph(96, 700, 5);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    let model = gat(42);
    let full = model.inference(&g, &x);
    for node in [0usize, 13, 50, 95] {
        let ego = g.ego_subgraph(node, HOPS, usize::MAX, 0);
        let out = model.inference(&ego.csr, &x.gather_rows(&ego.nodes));
        let got = out.row(ego.centers[0]);
        let want = full.row(node);
        let diff = got
            .iter()
            .zip(want.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            diff < 1e-3,
            "node {node}: ego row diverges from full-graph row by {diff}"
        );
    }
}

// ---------------------------------------------------------------------
// Bounded retransmit store (satellite: eager drain + capped residency)
// ---------------------------------------------------------------------

#[test]
fn retransmit_store_drains_acked_frames_eagerly() {
    // Ping-pong under drops: every healed frame is acked on delivery,
    // so the store ends empty and its high-water mark stays at a few
    // frames, not the whole run's traffic.
    let plan = FaultPlan::seeded(11).with_drop(0.1).with_timeout_ms(10_000);
    let (results, _) = Cluster::run_supervised(2, &plan, |comm| {
        let me = comm.rank();
        let peer = 1 - me;
        let payload: Vec<f32> = vec![1.0; 256]; // 1 KiB on the wire
        for round in 0..100u32 {
            if me == 0 {
                comm.send(peer, round, payload.clone());
                let _: Vec<f32> = comm.recv(peer, round);
            } else {
                let _: Vec<f32> = comm.recv(peer, round);
                comm.send(peer, round, payload.clone());
            }
        }
        comm.barrier();
        comm.retransmit_stats()
    })
    .expect("drop-heal run must succeed");
    let stats = results[0].expect("message faults active: store exists");
    assert_eq!(
        stats.resident_bytes, 0,
        "acked frames must be drained eagerly"
    );
    assert!(stats.high_water_bytes > 0, "the store was exercised");
    assert!(
        stats.high_water_bytes <= 16 * 1024,
        "ping-pong residency stayed at a few frames, got {}",
        stats.high_water_bytes
    );
    assert_eq!(stats.evicted_frames, 0, "no eviction under a default cap");
}

#[test]
fn retransmit_store_high_water_stays_under_the_cap() {
    // Burst 64 KiB of sends ahead of any recv with a 4 KiB cap: the
    // regression this pins is the old unbounded HashMap, whose
    // high-water mark would have been the full 64 KiB.
    let cap = 4 * 1024;
    let plan = FaultPlan::seeded(13)
        .with_dup(0.05)
        .with_store_cap(cap)
        .with_timeout_ms(10_000);
    let (results, _) = Cluster::run_supervised(2, &plan, |comm| {
        let me = comm.rank();
        let payload: Vec<f32> = vec![2.0; 256]; // 1 KiB on the wire
        if me == 0 {
            for round in 0..64u32 {
                comm.send(1, round, payload.clone());
            }
            let _: u32 = comm.recv(1, 999);
        } else {
            for round in 0..64u32 {
                let _: Vec<f32> = comm.recv(0, round);
            }
            comm.send(0, 999, 7u32);
        }
        comm.barrier();
        comm.retransmit_stats()
    })
    .expect("dup-only run must succeed");
    let stats = results[0].expect("message faults active: store exists");
    assert!(
        stats.high_water_bytes <= cap,
        "high water {} exceeds cap {cap}",
        stats.high_water_bytes
    );
    assert!(stats.evicted_frames > 0, "the burst must have hit the cap");
    assert_eq!(stats.resident_bytes, 0, "everything delivered and drained");
    assert_eq!(stats.cap_bytes, cap);
}

// ---------------------------------------------------------------------
// Serving: admission, deadlines, answers
// ---------------------------------------------------------------------

#[test]
fn served_answers_match_direct_inference() {
    let g = served_graph(96, 700, 5);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    let full = gat(42).inference(&g, &x);
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(10_000)
        .with_batch_max(8)
        .with_batch_window_us(500)
        .with_seed(0);
    let server = Server::start(cfg, || gat(42), g.clone(), x.clone()).expect("start");
    let nodes = [0usize, 7, 13, 50, 51, 95];
    let tickets: Vec<_> = nodes
        .iter()
        .map(|&n| server.submit(n).expect("admitted"))
        .collect();
    assert!(server.drain(Duration::from_secs(10)), "server must drain");
    for (&node, ticket) in nodes.iter().zip(tickets.iter()) {
        let response = ticket.wait().expect("answered");
        assert_eq!(response.rung, RUNG_FULL, "no pressure, no degradation");
        let want = full.row(node);
        let diff = response
            .values
            .iter()
            .zip(want.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-3, "node {node}: served answer off by {diff}");
    }
    let stats = server.stats();
    assert_eq!(stats.accepted, nodes.len() as u64);
    assert_eq!(stats.answered, nodes.len() as u64);
    assert_eq!(stats.outstanding(), 0);
    server.shutdown();
}

/// The batch window closes early only when nobody is coming: on an empty
/// queue whose latest inter-arrival gap exceeds what is left of it. A long
/// window and coarse bounds, so a stall of the shared host cannot flake it.
#[test]
fn the_batch_window_closes_early_only_when_nobody_is_coming() {
    let g = served_graph(96, 700, 5);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    let window = Duration::from_millis(200);
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(10_000)
        .with_batch_window_us(window.as_micros() as u64);
    let server = Server::start(cfg, || gat(42), g, x).expect("start");
    let answer_time = |node: usize| {
        let submitted = Instant::now();
        let ticket = server.submit(node).expect("admitted");
        ticket.wait().expect("answered");
        submitted.elapsed()
    };

    // No gap is known before the first request: it waits for company.
    let first = answer_time(0);
    assert!(first >= window, "the first request closed after {first:?}");
    // Arrivals sparser than the window are answered at compute latency
    // (each used to wait the window out: >= 200 ms).
    for node in [7usize, 13, 50] {
        std::thread::sleep(window * 3);
        let took = answer_time(node);
        assert!(took < window / 2, "node {node} waited {took:?}");
    }
    // A batch's counters land just after its slots fill; drain is the
    // barrier that makes them visible.
    assert!(server.drain(Duration::from_secs(10)), "server must drain");
    let stats = server.stats();
    assert_eq!(
        (stats.batches, stats.closed_window, stats.closed_idle),
        (4, 1, 3)
    );

    // A burst still batches: its first request may close alone (its gap
    // to the last sparse arrival is long), the rest share one window.
    std::thread::sleep(window * 3);
    let burst: Vec<_> = (0..8usize)
        .map(|i| server.submit(i * 11).expect("admitted"))
        .collect();
    assert!(server.drain(Duration::from_secs(10)), "server must drain");
    let stats = server.stats();
    assert_eq!(stats.answered, 12);
    assert_eq!(
        stats.closed_full + stats.closed_window + stats.closed_idle,
        stats.batches
    );
    // Only if the host let the burst be one: a submit loop stalled for a
    // good part of the window is sparse traffic, and may close early.
    let spread = burst[7].deadline() - burst[0].deadline();
    if spread < window / 4 {
        assert!(
            stats.batches - 4 <= 2,
            "a burst of 8 took {} batches",
            stats.batches - 4
        );
    }
    server.shutdown();
}

/// `fanout = 0` used to underflow in the sampler on the first row with a
/// self-edge: the worker panicked, healed, took the same requeued batch
/// and panicked again until the deadline. Now the builder clamps it, and
/// a literal 0 in the field means "the self-edge alone".
#[test]
fn zero_fanout_is_answered_not_a_crash_loop() {
    let g = served_graph(96, 700, 5);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    // Every node attending to itself only: GAT over the identity.
    let alone = gat(42).inference(&Csr::identity(g.rows()), &x);
    let clamped = ServeConfig::default().with_fanout(0);
    assert_eq!(clamped.fanout, 1);
    let mut literal = clamped.clone();
    literal.fanout = 0;
    for cfg in [clamped, literal] {
        let cfg = cfg.with_hops(HOPS).with_deadline_ms(10_000);
        let server = Server::start(cfg, || gat(42), g.clone(), x.clone()).expect("start");
        let tickets: Vec<_> = [3usize, 40, 95]
            .iter()
            .map(|&n| server.submit(n).expect("admitted"))
            .collect();
        assert!(server.drain(Duration::from_secs(10)), "server must drain");
        for ticket in &tickets {
            let response = ticket.wait().expect("answered");
            let diff = response
                .values
                .iter()
                .zip(alone.row(ticket.node()))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(diff < 1e-5, "node {}: off by {diff}", ticket.node());
        }
        let stats = server.stats();
        assert_eq!((stats.answered, stats.crashes_healed), (3, 0));
        server.shutdown();
    }
}

/// The worker extracts `min(hops, depth)` hops and asks for fringe rows
/// only below the layer count; either way a request is answered as
/// square inference over its `hops`-hop ego graph would answer it.
#[test]
fn hops_off_the_layer_count_serve_the_square_ego_answer() {
    let g = served_graph(96, 700, 5);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    for hops in [0usize, 1, 3] {
        let cfg = ServeConfig::default()
            .with_hops(hops)
            .with_fanout(3)
            .with_batch_max(1)
            .with_deadline_ms(10_000)
            .with_seed(9);
        let server = Server::start(cfg, || gat(42), g.clone(), x.clone()).expect("start");
        for node in [0usize, 13, 95] {
            let served = server
                .submit(node)
                .expect("admitted")
                .wait()
                .expect("answered");
            let ego = g.ego_subgraph(node, hops, 3, 9);
            let want = gat(42).inference(&ego.csr, &x.gather_rows(&ego.nodes));
            let diff = served
                .values
                .iter()
                .zip(want.row(ego.centers[0]))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(diff < 1e-5, "hops={hops} node {node}: off by {diff}");
        }
        server.shutdown();
    }
}

#[test]
fn overload_sheds_with_a_typed_error_and_no_loss() {
    let g = served_graph(96, 700, 5);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(10_000)
        .with_batch_max(2)
        .with_batch_window_us(2_000)
        .with_queue_cap(4);
    let server = Server::start(cfg, || gat(42), g, x).expect("start");
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for i in 0..64 {
        match server.submit(i % 96) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { queued, cap }) => {
                shed += 1;
                assert!(queued >= cap, "typed refusal carries the queue state");
            }
            Err(e) => panic!("unexpected refusal: {e}"),
        }
    }
    assert!(shed > 0, "a 64-burst against cap 4 must shed");
    assert!(server.drain(Duration::from_secs(10)));
    let stats = server.stats();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.accepted, tickets.len() as u64);
    assert_eq!(
        stats.accepted,
        stats.settled(),
        "every accepted request settled exactly once"
    );
    for ticket in &tickets {
        assert!(ticket.wait().is_ok(), "admitted requests answer");
    }
    server.shutdown();
}

#[test]
fn stale_requests_settle_as_deadline_exceeded() {
    let g = served_graph(96, 700, 5);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(0) // expired on arrival
        .with_batch_max(4)
        .with_batch_window_us(200);
    let server = Server::start(cfg, || gat(42), g, x).expect("start");
    let tickets: Vec<_> = (0..6)
        .map(|n| server.submit(n).expect("admitted"))
        .collect();
    assert!(server.drain(Duration::from_secs(10)));
    for ticket in &tickets {
        assert_eq!(ticket.wait(), Err(ServeError::DeadlineExceeded));
    }
    let stats = server.stats();
    assert_eq!(stats.expired, 6);
    assert_eq!(stats.answered, 0);
    assert_eq!(stats.outstanding(), 0, "expiry settles, never loses");
    server.shutdown();
}

#[test]
fn invalid_nodes_are_refused_typed() {
    let g = served_graph(96, 700, 5);
    let n = g.rows();
    let x = init::features::<f32>(n, DIMS[0], 21);
    let server =
        Server::start(ServeConfig::default().with_hops(HOPS), || gat(42), g, x).expect("start");
    match server.submit(n + 5) {
        Err(ServeError::InvalidNode { node, nodes }) => {
            assert_eq!(node, n + 5);
            assert_eq!(nodes, n);
        }
        Err(e) => panic!("wrong refusal: {e}"),
        Ok(_) => panic!("out-of-range node admitted"),
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Degradation ladder (satellite: overload script + bf16 gate)
// ---------------------------------------------------------------------

#[test]
fn ladder_degrades_under_pressure_then_recovers_and_bf16_stays_in_tolerance() {
    let g = served_graph(64, 400, 9);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    let full = gat(42).inference(&g, &x);
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(10_000)
        .with_batch_max(1) // one observation per request
        .with_batch_window_us(200)
        .with_queue_cap(16)
        .with_ladder(0.5, 0.0625, 2)
        // Keep the fanout rung semantics-neutral here so *every*
        // degraded answer can be gated against the full-fanout oracle;
        // the fanout mapping itself is unit-tested in the ladder.
        .with_degraded_fanout(usize::MAX)
        .with_seed(0)
        // A worker that needs 1 ms per batch, whatever the build: queue
        // pressure comes from the worker being slower than the client,
        // and a 64-node ego graph no longer costs enough to make it so
        // (without this the 12 submissions below race the drain).
        .with_faults(FaultPlan::seeded(1).with_delay(1.0, 1_000));
    let server = Server::start(cfg, || gat(42), g, x).expect("start");

    // Phase 1 — sustained pressure below the admission cap: the server
    // must DEGRADE first, shedding nothing (shed-vs-degrade ordering).
    let mut tickets = Vec::new();
    for i in 0..12 {
        tickets.push(server.submit(i % 64).expect("under cap"));
    }
    while !server.drain(Duration::from_millis(1)) {}
    let after_pressure = server.stats();
    assert!(
        after_pressure.step_down >= 1,
        "sustained occupancy >= high-water must step the ladder down"
    );
    assert_eq!(
        after_pressure.shed, 0,
        "degradation comes before shedding below the cap"
    );

    // Phase 2 — burst far past the cap: now the server also sheds.
    let mut shed = 0;
    for i in 0..64 {
        match server.submit(i % 64) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected refusal: {e}"),
        }
    }
    assert!(shed > 0, "past the cap the server sheds typed");
    assert!(server.drain(Duration::from_secs(10)));

    // Phase 3 — pressure cleared: a light trickle walks the ladder
    // back up to full service, one rung at a time.
    for i in 0..40 {
        let t = server.submit(i % 64).expect("light load");
        std::thread::sleep(Duration::from_millis(2));
        tickets.push(t);
    }
    assert!(server.drain(Duration::from_secs(10)));
    let stats = server.stats();
    assert_eq!(stats.current_rung, RUNG_FULL, "recovered to full service");
    assert_eq!(
        stats.step_up, stats.step_down,
        "every step down was undone by exactly one step up"
    );
    assert!(stats.step_down >= 2, "the script reached a deep rung");
    assert_eq!(
        stats.accepted,
        stats.settled(),
        "zero lost under the script"
    );

    // bf16 gate: every answer computed on a bf16 rung stays within the
    // precision suite's tolerance of the f32 oracle.
    let mut degraded = 0;
    for ticket in &tickets {
        let response = ticket.wait().expect("settled ok");
        if response.rung >= RUNG_BF16 {
            degraded += 1;
            let want = full.row(ticket.node());
            for (a, b) in response.values.iter().zip(want.iter()) {
                let rel = (a - b).abs() / b.abs().max(1e-3);
                assert!(
                    rel < 5e-2,
                    "bf16-rung answer off by rel {rel} (node {})",
                    ticket.node()
                );
            }
        }
    }
    assert!(degraded > 0, "the script must produce bf16-rung answers");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Chaos: crash healing, hang fencing, warm restart
// ---------------------------------------------------------------------

#[test]
fn injected_crash_heals_with_zero_lost_requests() {
    let g = served_graph(96, 700, 5);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(10_000)
        .with_batch_max(4)
        .with_batch_window_us(500)
        .with_watchdog_ms(50)
        .with_faults(FaultPlan::seeded(3).with_crash(0, 2)); // die at batch 2
    let server = Server::start(cfg, || gat(42), g, x).expect("start");
    let tickets: Vec<_> = (0..30)
        .map(|i| server.submit(i % 96).expect("admitted"))
        .collect();
    assert!(server.drain(Duration::from_secs(20)), "heal must complete");
    let stats = server.stats();
    assert!(stats.crashes_healed >= 1, "the crash was healed");
    assert_eq!(stats.accepted, 30);
    assert_eq!(
        stats.answered, 30,
        "every accepted request answered across the crash"
    );
    for ticket in &tickets {
        assert!(ticket.wait().is_ok(), "no accepted request lost");
    }
    server.shutdown();
}

#[test]
fn hung_worker_is_fenced_by_the_watchdog_and_healed() {
    let g = served_graph(96, 700, 5);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(10_000)
        .with_batch_max(4)
        .with_batch_window_us(500)
        .with_watchdog_ms(30)
        .with_faults(FaultPlan::seeded(4).with_hang(0, 1)); // hang at batch 1
    let server = Server::start(cfg, || gat(42), g, x).expect("start");
    let tickets: Vec<_> = (0..12)
        .map(|i| server.submit(i % 96).expect("admitted"))
        .collect();
    assert!(
        server.drain(Duration::from_secs(20)),
        "fence + heal completes"
    );
    let stats = server.stats();
    assert!(stats.hangs_fenced >= 1, "the watchdog fenced the hang");
    assert!(stats.crashes_healed >= 1, "the fenced worker was respawned");
    assert_eq!(stats.answered, 12, "no request lost across the fence");
    for ticket in &tickets {
        assert!(ticket.wait().is_ok());
    }
    server.shutdown();
}

#[test]
fn warm_restart_replays_unsettled_intents_from_the_wal() {
    let g = served_graph(96, 700, 5);
    let x = init::features::<f32>(g.rows(), DIMS[0], 21);
    let wal = tmp("restart.wal");
    let ckpt = tmp("restart.ckpt");
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(10_000)
        .with_batch_max(4)
        .with_batch_window_us(500)
        .with_watchdog_ms(50)
        .with_auto_heal(false) // simulate a process with no supervisor
        .with_wal(&wal)
        .with_checkpoint(&ckpt)
        .with_faults(FaultPlan::seeded(5).with_crash(0, 1)); // die at batch 1
    let server_a = Server::start(cfg.clone(), || gat(42), g.clone(), x.clone()).expect("start");
    let submitted: Vec<usize> = (0..12).map(|i| (i * 7) % 96).collect();
    for &node in &submitted {
        server_a.submit(node).expect("admitted");
    }
    // The worker answers batch 0, then dies; with auto-heal off the
    // server stays dead and cannot drain.
    assert!(
        !server_a.drain(Duration::from_secs(1)),
        "crashed and unhealed"
    );
    let stats_a = server_a.stats();
    assert!(stats_a.answered >= 1, "batch 0 completed before the crash");
    let unsettled = stats_a.outstanding();
    assert!(unsettled > 0, "the crash stranded accepted requests");
    server_a.abandon(); // process death: nothing settles, the WAL stays

    // Warm restart with *different* factory weights: answers must come
    // from the checkpoint image, proving the rebuild path.
    let cfg_b = cfg.with_faults(FaultPlan::none()).with_auto_heal(true);
    let (server_b, replayed) =
        Server::recover(cfg_b, || gat(43), g.clone(), x.clone()).expect("recover");
    assert_eq!(
        replayed.len() as u64,
        unsettled,
        "exactly the unsettled intents replay"
    );
    assert_eq!(server_b.stats().wal_replayed, unsettled);
    assert!(server_b.drain(Duration::from_secs(20)));

    let oracle_a = gat(42).inference(&g, &x);
    let oracle_b = gat(43).inference(&g, &x);
    for ticket in &replayed {
        let response = ticket.wait().expect("replayed request answered");
        let want = oracle_a.row(ticket.node());
        let decoy = oracle_b.row(ticket.node());
        let diff_a = response
            .values
            .iter()
            .zip(want.iter())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f32, f32::max);
        let diff_b = response
            .values
            .iter()
            .zip(decoy.iter())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f32, f32::max);
        assert!(
            diff_a < 1e-3,
            "replayed answer diverges from the checkpointed weights by {diff_a}"
        );
        assert!(
            diff_b > diff_a,
            "answer should track the checkpoint image, not the new factory"
        );
    }
    server_b.shutdown();
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&ckpt);
}
