//! Serving bench + chaos smoke for `atgnn-serve`.
//!
//! Phase 1 sweeps the dynamic-batching knob: an open-loop client submits
//! per-node inference requests against a running server at each
//! `batch_max` rung, measuring answer latency (p50/p99) and the
//! sustained answer rate. The sweep lands in
//! `results/BENCH_serve.json` — the serving counterpart of the paper's
//! throughput tables, showing the latency/throughput trade the batch
//! window buys.
//!
//! Phase 2 is the CI-facing resilience smoke (it runs under
//! `ATGNN_SMOKE=1` too): one bounded chaos script per failure class —
//!
//! * a burst past the admission cap must SHED with the typed
//!   `Overloaded` error and step the degradation ladder down;
//! * an injected worker crash must HEAL with zero lost accepted
//!   requests;
//! * an injected hang must be FENCED by the watchdog and healed;
//! * a process death mid-batch must WARM-RESTART from the checkpoint
//!   image + intent log with every accepted-but-unsettled request
//!   replayed and answered from the *checkpointed* weights.
//!
//! Every phase asserts the accounting invariant
//! `accepted == answered + expired + cancelled` after drain — the
//! zero-loss contract the serve crate exists to keep.

use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::erdos_renyi;
use atgnn_net::FaultPlan;
use atgnn_serve::{ServeConfig, ServeError, Server};
use atgnn_sparse::Csr;
use atgnn_tensor::{init, Activation, Dense};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const DIMS: [usize; 3] = [8, 8, 4];
const HOPS: usize = 2;

fn served_graph(n: usize, m: usize, seed: u64) -> Csr<f32> {
    let raw = erdos_renyi::adjacency::<f32>(n, m, seed);
    GnnModel::<f32>::prepare_adjacency(ModelKind::Gat, &raw)
}

fn gat(seed: u64) -> GnnModel<f32> {
    GnnModel::uniform(ModelKind::Gat, &DIMS, Activation::Relu, seed)
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("atgnn_serve_bench_{}_{name}", std::process::id()));
    p
}

struct SweepEntry {
    batch_max: usize,
    requests: usize,
    p50_us: u64,
    p99_us: u64,
    qps: f64,
    batches: u64,
    mean_batch: f64,
}

/// Open-loop latency/throughput measurement at one batch_max rung.
fn sweep_rung(
    graph: &Csr<f32>,
    feats: &Dense<f32>,
    batch_max: usize,
    requests: usize,
) -> SweepEntry {
    let n = graph.rows();
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(30_000)
        .with_batch_max(batch_max)
        .with_batch_window_us(2_000)
        .with_queue_cap(requests + 1) // open loop: admission never sheds
        .with_seed(0);
    let server =
        Server::start(cfg, || gat(42), graph.clone(), feats.clone()).expect("server start");
    let t0 = Instant::now();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            let submitted = Instant::now();
            (server.submit((i * 13) % n).expect("admitted"), submitted)
        })
        .collect();
    let mut lat_us: Vec<u64> = tickets
        .iter()
        .map(|(t, submitted)| {
            t.wait().expect("answered");
            submitted.elapsed().as_micros() as u64
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    lat_us.sort_unstable();
    // The per-batch stats update lands just after the slots fill; drain
    // is the barrier that makes the counters visible.
    assert!(server.drain(Duration::from_secs(30)), "sweep drains");
    let stats = server.stats();
    assert_eq!(
        stats.accepted, stats.answered,
        "open loop answers everything"
    );
    let entry = SweepEntry {
        batch_max,
        requests,
        p50_us: lat_us[lat_us.len() / 2],
        p99_us: lat_us[lat_us.len() * 99 / 100],
        qps: requests as f64 / wall,
        batches: stats.batches,
        mean_batch: stats.batched_requests as f64 / stats.batches.max(1) as f64,
    };
    server.shutdown();
    entry
}

/// Chaos script: shed + degrade, crash-heal, hang-fence, warm restart.
fn chaos_phase(graph: &Csr<f32>, feats: &Dense<f32>) {
    let n = graph.rows();

    // -- shed + degrade -------------------------------------------------
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(30_000)
        .with_batch_max(1)
        .with_batch_window_us(200)
        .with_queue_cap(16)
        .with_ladder(0.5, 0.0625, 2);
    let server = Server::start(cfg, || gat(42), graph.clone(), feats.clone()).expect("start");
    let mut shed = 0u64;
    let mut tickets = Vec::new();
    for i in 0..96 {
        match server.submit(i % n) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected refusal: {e}"),
        }
    }
    assert!(server.drain(Duration::from_secs(30)), "overload run drains");
    let stats = server.stats();
    assert!(shed > 0, "burst past the cap must shed typed");
    assert!(stats.step_down >= 1, "sustained pressure must degrade");
    assert_eq!(stats.accepted, stats.settled(), "zero lost under overload");
    for t in &tickets {
        t.wait().expect("accepted requests answer");
    }
    server.shutdown();
    println!(
        "chaos/overload: shed={shed} step_down={} step_up={} rung={}",
        stats.step_down, stats.step_up, stats.current_rung
    );

    // -- crash heal -----------------------------------------------------
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(30_000)
        .with_batch_max(4)
        .with_batch_window_us(500)
        .with_watchdog_ms(50)
        .with_faults(FaultPlan::seeded(3).with_crash(0, 1));
    let server = Server::start(cfg, || gat(42), graph.clone(), feats.clone()).expect("start");
    let tickets: Vec<_> = (0..16)
        .map(|i| server.submit(i % n).expect("admitted"))
        .collect();
    assert!(
        server.drain(Duration::from_secs(30)),
        "crash run heals and drains"
    );
    let stats = server.stats();
    assert!(stats.crashes_healed >= 1, "the injected crash healed");
    assert_eq!(stats.accepted, stats.answered, "zero lost across the crash");
    for t in &tickets {
        t.wait().expect("answered across the crash");
    }
    server.shutdown();
    println!(
        "chaos/crash: healed={} answered={}",
        stats.crashes_healed, stats.answered
    );

    // -- hang fence -----------------------------------------------------
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(30_000)
        .with_batch_max(4)
        .with_batch_window_us(500)
        .with_watchdog_ms(30)
        .with_faults(FaultPlan::seeded(4).with_hang(0, 1));
    let server = Server::start(cfg, || gat(42), graph.clone(), feats.clone()).expect("start");
    let tickets: Vec<_> = (0..12)
        .map(|i| server.submit(i % n).expect("admitted"))
        .collect();
    assert!(
        server.drain(Duration::from_secs(30)),
        "hang run fences and drains"
    );
    let stats = server.stats();
    assert!(stats.hangs_fenced >= 1, "the watchdog fenced the hang");
    assert_eq!(stats.accepted, stats.answered, "zero lost across the fence");
    for t in &tickets {
        t.wait().expect("answered across the fence");
    }
    server.shutdown();
    println!(
        "chaos/hang: fenced={} healed={}",
        stats.hangs_fenced, stats.crashes_healed
    );

    // -- warm restart ---------------------------------------------------
    let wal = tmp("wal");
    let ckpt = tmp("ckpt");
    let cfg = ServeConfig::default()
        .with_hops(HOPS)
        .with_deadline_ms(30_000)
        .with_batch_max(4)
        .with_batch_window_us(500)
        .with_watchdog_ms(50)
        .with_auto_heal(false)
        .with_wal(&wal)
        .with_checkpoint(&ckpt)
        .with_faults(FaultPlan::seeded(5).with_crash(0, 1));
    let server_a =
        Server::start(cfg.clone(), || gat(42), graph.clone(), feats.clone()).expect("start");
    for i in 0..12 {
        server_a.submit((i * 7) % n).expect("admitted");
    }
    assert!(
        !server_a.drain(Duration::from_secs(1)),
        "unhealed crash cannot drain"
    );
    let unsettled = server_a.stats().outstanding();
    assert!(unsettled > 0, "the crash stranded accepted requests");
    server_a.abandon(); // process death: the WAL keeps the intents

    let oracle = gat(42).inference(graph, feats);
    let cfg_b = cfg.with_faults(FaultPlan::none()).with_auto_heal(true);
    // A different factory seed: answers must come from the checkpoint.
    let (server_b, replayed) =
        Server::recover(cfg_b, || gat(43), graph.clone(), feats.clone()).expect("recover");
    assert_eq!(
        replayed.len() as u64,
        unsettled,
        "exactly the unsettled intents replay"
    );
    assert!(
        server_b.drain(Duration::from_secs(30)),
        "recovered server drains"
    );
    for t in &replayed {
        let response = t.wait().expect("replayed request answered");
        let want = oracle.row(t.node());
        let diff = response
            .values
            .iter()
            .zip(want.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            diff < 1e-3,
            "replayed answer must use the checkpointed weights"
        );
    }
    server_b.shutdown();
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&ckpt);
    println!("chaos/restart: replayed={unsettled} answered from checkpoint, zero lost");
}

fn main() {
    // Injected faults surface as worker panics that the serve runtime
    // catches and heals; keep their backtraces out of the smoke's output
    // while leaving genuine failures loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        let expected = msg.starts_with("injected fault:") || msg.contains("fenced");
        if !expected {
            default_hook(info);
        }
    }));
    let smoke = std::env::var("ATGNN_SMOKE").is_ok();
    println!("== serve ==");
    let (n, m, requests) = if smoke {
        (256, 2_048, 64)
    } else {
        (4_096, 65_536, 1_024)
    };
    let graph = served_graph(n, m, 5);
    let feats = init::features::<f32>(graph.rows(), DIMS[0], 21);

    let rungs: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16, 64] };
    let entries: Vec<SweepEntry> = rungs
        .iter()
        .map(|&b| {
            let e = sweep_rung(&graph, &feats, b, requests);
            println!(
                "batch_max={:<3} p50={:>7}us p99={:>7}us qps={:>9.1} batches={:<5} mean_batch={:.2}",
                e.batch_max, e.p50_us, e.p99_us, e.qps, e.batches, e.mean_batch
            );
            e
        })
        .collect();
    if !smoke {
        let solo = &entries[0];
        let batched = entries.last().expect("sweep entries");
        assert!(
            batched.qps > solo.qps,
            "dynamic batching must raise sustained QPS (got {:.1} vs {:.1})",
            batched.qps,
            solo.qps
        );
    }

    chaos_phase(&graph, &feats);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"n\": {},", graph.rows());
    let _ = writeln!(json, "  \"nnz\": {},", graph.nnz());
    let _ = writeln!(json, "  \"hops\": {HOPS},");
    let _ = writeln!(json, "  \"requests\": {requests},");
    json.push_str("  \"sweep\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"batch_max\": {}, \"requests\": {}, \"p50_us\": {}, \"p99_us\": {}, \"qps\": {:.2}, \"batches\": {}, \"mean_batch\": {:.3}}}{}",
            e.batch_max,
            e.requests,
            e.p50_us,
            e.p99_us,
            e.qps,
            e.batches,
            e.mean_batch,
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"chaos\": {\"shed\": true, \"degrade\": true, \"crash_heal\": true, \"hang_fence\": true, \"warm_restart\": true, \"lost_requests\": 0}\n");
    json.push_str("}\n");
    let path = atgnn_bench::result_path("BENCH_serve.json").expect("create results dir");
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
