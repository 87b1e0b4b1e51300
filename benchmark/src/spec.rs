//! The benchmark's fixed vocabulary: workload names and sizes, and the
//! metric names with their units. `BENCHMARK.json` at the repo root lists
//! the same names (a test holds the two together); bounds live only there.

/// Feature width of every layer (`dims = [K, K, K]`, L = 2).
pub const K: usize = 64;
/// Edges generated per vertex (`m = 16·n`, before symmetrisation).
pub const EDGES_PER_VERTEX: usize = 16;
/// SGD step size of both training workloads: small enough that the MSE
/// loss falls monotonically on every seed, which the gates assert.
pub const LR: f32 = 0.01;
/// Ranks of the distributed workload (a 2×2 grid).
pub const RANKS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainKron,
    InferEr,
    ServeEr,
    DistKron4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainKron,
        Workload::InferEr,
        Workload::ServeEr,
        Workload::DistKron4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainKron => "train_kron",
            Workload::InferEr => "infer_er",
            Workload::ServeEr => "serve_er",
            Workload::DistKron4 => "dist_kron4",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Set-ups timed per run; `setup_s` is their median. Seven where a
    /// set-up is cheap, three where each costs seconds (a training step
    /// on the skewed graph) and the run's time budget says no.
    pub fn setups(self, smoke: bool) -> usize {
        if smoke || matches!(self, Workload::InferEr | Workload::ServeEr) {
            7
        } else {
            3
        }
    }

    /// Vertex count: the full size, or the `--smoke` size (n = 2048).
    pub fn vertices(self, smoke: bool) -> usize {
        match (smoke, self) {
            (true, _) => 2048,
            (false, Workload::DistKron4) => 16_384,
            (false, _) => 32_768,
        }
    }
}

/// Serving load, in the three phases of `serve_er`.
pub mod serve {
    /// Phase A: open-loop arrival rate (requests per second).
    pub const RATE_A: f64 = 300.0;
    /// Phase B (traced run only): the loaded open-loop regime.
    pub const RATE_B: f64 = 800.0;
    /// Phase C: tickets outstanding in the closed loop.
    pub const OUTSTANDING: usize = 32;
    /// Closed-loop requests answered before a set-up counts as warm.
    pub const WARMUP_REQUESTS: usize = 32;
    /// Answer tolerance against the full-graph row (the
    /// `tests/serve_runtime.rs` gate).
    pub const ROW_TOLERANCE: f32 = 1e-3;
}

/// End-to-end metrics `(name, unit)`: printed by every workload with
/// `--trace 0`. What a "step" is on each workload is in the README.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("step_s_p50", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: printed by every workload with
/// `--trace 1`; a workload reports 0 for a layer it does not exercise.
/// The prefix is the crate the time or count belongs to.
pub const PER_LAYER: [(&str, &str); 82] = [
    ("graphgen.generate_s", "s"),
    ("graphgen.reorder_ms", "ms"),
    ("core.resolve_cold_ms", "ms"),
    ("core.resolve_warm_us", "us"),
    ("core.ingest_ms", "ms"),
    ("core.copy_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.loss_ms", "ms"),
    ("core.backward_ms", "ms"),
    ("core.optimizer_ms", "ms"),
    ("core.layer_fwd_ms.l0", "ms"),
    ("core.layer_fwd_ms.l1", "ms"),
    ("core.layer_bwd_ms.l0", "ms"),
    ("core.layer_bwd_ms.l1", "ms"),
    ("core.trace_coverage", "ratio"),
    ("core.trace_overhead", "ratio"),
    ("tensor.project_gemm_ms", "ms"),
    ("tensor.project_gemm_gflops", "GFLOP/s"),
    ("tensor.matvec_ms", "ms"),
    ("tensor.activation_ms", "ms"),
    ("tensor.wgrad_gemm_ms", "ms"),
    ("tensor.dgrad_gemm_ms", "ms"),
    ("tensor.rt_speedup", "ratio"),
    ("tensor.gather_rows_ms.b16", "ms"),
    ("sparse.sweep_fwd_ms", "ms"),
    ("sparse.sweep_fwd_gflops", "GFLOP/s"),
    ("sparse.sweep_fwd_gbs", "GB/s"),
    ("sparse.sweep_fwd_roofline", "ratio"),
    ("sparse.sweep_bwd_ms", "ms"),
    ("sparse.col_sums_ms", "ms"),
    ("sparse.spmm_t_ms", "ms"),
    ("sparse.spmm_t_gbs", "GB/s"),
    ("sparse.spmm_t_roofline", "ratio"),
    ("sparse.value_allocs_per_step", "count"),
    ("sparse.ego_extract_ms.b1", "ms"),
    ("sparse.ego_extract_ms.b16", "ms"),
    ("sparse.ego_nodes.b16", "count"),
    ("sparse.ego_nnz.b16", "count"),
    ("serve.batch_compute_ms.b1", "ms"),
    ("serve.batch_compute_ms.b16", "ms"),
    ("serve.wait_share", "ratio"),
    ("serve.mean_batch.a", "count"),
    ("serve.mean_batch.c", "count"),
    ("serve.batches", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.late", "count"),
    ("serve.step_down", "count"),
    ("serve.rung_final", "count"),
    ("serve.submit_us_p50", "us"),
    ("serve.gen_late_ms_max", "ms"),
    ("serve.lat_ms_p50", "ms"),
    ("serve.lat_ms_p90", "ms"),
    ("serve.lat_ms_p99", "ms"),
    ("serve.lat_ms_p50.r800", "ms"),
    ("serve.lat_ms_p90.r800", "ms"),
    ("serve.backlog_growth.r800", "req/s"),
    ("serve.sat_rps", "req/s"),
    ("net.bytes_max_rank_per_step", "B"),
    ("net.messages_per_step", "count"),
    ("net.supersteps_per_step", "count"),
    ("net.phase_bytes.forward", "B"),
    ("net.phase_bytes.backward", "B"),
    ("net.phase_bytes.grad-allreduce", "B"),
    ("dist.context_ms", "ms"),
    ("dist.block_nnz_imbalance", "ratio"),
    ("dist.volume_vs_bound", "ratio"),
    ("dist.modeled_comm_ms", "ms"),
    ("dist.modeled_step_s", "s"),
    ("dist.single_step_s", "s"),
    ("dist.wall_step_s", "s"),
    ("dist.sim_vs_single", "ratio"),
    ("baseline.local_infer_s", "s"),
    ("host.peak_gflops", "GFLOP/s"),
    ("host.triad_gbs", "GB/s"),
    ("host.triad_bytes", "B"),
    ("host.llc_bytes", "B"),
    ("e2e.step_s_p50", "s"),
    ("e2e.step_s_tail", "s"),
    ("e2e.step_s_tail_pct", "%"),
    ("e2e.step_s_tail_beyond", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let metrics = END_TO_END.iter().chain(PER_LAYER.iter()).copied();
        for (name, unit) in metrics.chain(Workload::ALL.map(|w| (w.name(), "count"))) {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// binaries print. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |section: &str| -> Vec<(String, String)> {
            doc.get(section)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let f = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (f("name"), f("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        let paths = doc.get("paths").and_then(Value::as_arr).unwrap();
        assert_eq!(paths, [Value::Str("benchmark".into())]);
    }
}
