//! Result recording: CSV files (the artifact's `unified_results.csv`
//! format, extended with the communication columns) and aligned console
//! tables.

use std::io::Write;
use std::path::PathBuf;

/// One experiment measurement row.
#[derive(Clone, Debug)]
pub struct Record {
    /// Figure/experiment id ("fig6a", "fig7_weak_rand", …).
    pub experiment: String,
    /// Model name ("VA", "AGNN", "GAT", "GCN", "DistDGL-standin", …).
    pub model: String,
    /// Execution system ("global", "local", "minibatch").
    pub system: String,
    /// Task ("inference" | "training").
    pub task: String,
    /// Vertices.
    pub n: usize,
    /// Stored edges.
    pub m: usize,
    /// Feature width.
    pub k: usize,
    /// GNN layers.
    pub layers: usize,
    /// Simulated rank count.
    pub p: usize,
    /// Measured single-node compute seconds.
    pub compute_s: f64,
    /// Measured max-per-rank communication bytes.
    pub comm_bytes: u64,
    /// Measured BSP supersteps.
    pub supersteps: u64,
    /// Modeled distributed runtime (α–β machine model), seconds.
    pub modeled_s: f64,
}

/// Collects records, prints them, writes CSV.
pub struct Reporter {
    name: String,
    records: Vec<Record>,
}

impl Reporter {
    /// A reporter writing `results/<name>.csv`.
    pub fn new(name: &str) -> Self {
        println!("== {name} ==");
        Self {
            name: name.to_string(),
            records: Vec::new(),
        }
    }

    /// Adds one row and echoes it.
    pub fn push(&mut self, r: Record) {
        println!(
            "{:<10} {:<16} {:<10} {:<9} n={:<8} m={:<9} k={:<4} L={:<2} p={:<4} compute={:.4}s comm={:>10}B steps={:<5} modeled={:.5}s",
            r.experiment,
            format!("{}/{}", r.model, r.system),
            r.system,
            r.task,
            r.n,
            r.m,
            r.k,
            r.layers,
            r.p,
            r.compute_s,
            r.comm_bytes,
            r.supersteps,
            r.modeled_s
        );
        self.records.push(r);
    }

    /// The rows recorded so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Writes `results/<name>.csv` (relative to the workspace root when
    /// run via `cargo run`, else the current directory; under
    /// `results/smoke/` in smoke runs — see [`crate::result_path`]).
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let path = crate::result_path(&format!("{}.csv", self.name))?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            f,
            "experiment,model,system,task,n,m,k,layers,p,compute_s,comm_bytes,supersteps,modeled_s"
        )?;
        for r in &self.records {
            writeln!(
                f,
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                r.experiment,
                r.model,
                r.system,
                r.task,
                r.n,
                r.m,
                r.k,
                r.layers,
                r.p,
                r.compute_s,
                r.comm_bytes,
                r.supersteps,
                r.modeled_s
            )?;
        }
        f.flush()?;
        println!("wrote {}", path.display());
        Ok(path)
    }

    /// Prints paper-style speedup summaries: for each (experiment, task,
    /// k, p) group, the ratio of the baseline system's modeled time to
    /// each global model's.
    pub fn print_speedups(&self, baseline_system: &str) {
        println!("-- speedups vs {baseline_system} --");
        for r in &self.records {
            if r.system == baseline_system {
                continue;
            }
            if let Some(base) = self.records.iter().find(|b| {
                b.system == baseline_system
                    && b.experiment == r.experiment
                    && b.task == r.task
                    && b.k == r.k
                    && b.p == r.p
                    && b.n == r.n
            }) {
                println!(
                    "{} {} n={} k={} p={}: {}/{} speedup {:.2}x",
                    r.experiment,
                    r.task,
                    r.n,
                    r.k,
                    r.p,
                    r.model,
                    r.system,
                    base.modeled_s / r.modeled_s
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(system: &str, modeled: f64) -> Record {
        Record {
            experiment: "test".into(),
            model: "VA".into(),
            system: system.into(),
            task: "inference".into(),
            n: 10,
            m: 20,
            k: 4,
            layers: 2,
            p: 4,
            compute_s: 0.1,
            comm_bytes: 1000,
            supersteps: 10,
            modeled_s: modeled,
        }
    }

    #[test]
    fn csv_round_trip() {
        let mut rep = Reporter::new("unit_test_report");
        rep.push(rec("global", 0.5));
        rep.push(rec("minibatch", 1.0));
        let path = rep.write_csv().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() == 3);
        assert!(text.contains("global"));
        std::fs::remove_file(path).ok();
    }
}
