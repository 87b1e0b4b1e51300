//! The host's two ceilings, measured in the same run as the kernels they
//! are held against, and the roofline bound built from them.
//!
//! * **Peak compute**: independent f32 FMA chains on every hardware
//!   thread — the rate the vector units reach when nothing waits for
//!   memory.
//! * **Sustainable bandwidth**: a STREAM-style triad `a = b + s·c` over
//!   arrays of four times the last-level cache each, so the traffic
//!   cannot be served from cache — capped at [`TRIAD_CAP`] per array,
//!   because on a microVM the first touch of fresh guest memory was
//!   measured at up to 6 s/GiB and the probe runs inside every traced
//!   run. Both sizes are reported, so a capped probe is visible as such.
//!
//! Kernel bytes held against the bandwidth are **computed** from array
//! sizes (the streaming model of `kernel_scaling`: every stored entry
//! reads its index and value and moves one feature row in, the output is
//! written once). They ignore cache misses and are labelled as such.

use atgnn_e2e_benchmark::host;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Host {
    pub peak_gflops: f64,
    pub triad_gbs: f64,
    /// Bytes of one triad array.
    pub triad_bytes: usize,
    pub llc_bytes: usize,
}

/// Assumed when sysfs does not say: larger than any cache this is likely
/// to meet, so the triad still streams from memory.
const FALLBACK_LLC: usize = 64 << 20;

/// Largest triad array. Three of them are 768 MiB: a working set no
/// last-level cache met so far holds, though below the 4× rule per
/// array once the cache exceeds 64 MiB.
const TRIAD_CAP: usize = 256 << 20;

/// FMA chains per thread: enough independent accumulators to cover the
/// FMA latency at any vector width up to 512 bits.
const CHAINS: usize = 128;

fn fma_loop(iters: usize) -> f32 {
    let mut acc = [0.5f32; CHAINS];
    let (m, a) = (
        std::hint::black_box(0.999_9f32),
        std::hint::black_box(1e-4f32),
    );
    for _ in 0..iters {
        for v in &mut acc {
            *v = v.mul_add(m, a);
        }
    }
    acc.iter().sum()
}

fn peak_gflops(threads: usize) -> f64 {
    let iters = 4_000_000;
    let best = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads).map(|_| s.spawn(|| fma_loop(iters))).collect();
                for w in workers {
                    std::hint::black_box(w.join().expect("fma worker panicked"));
                }
            });
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (2 * CHAINS * iters * threads) as f64 / best / 1e9
}

fn triad_gbs(threads: usize, elems: usize) -> f64 {
    let mut a = vec![0.0f32; elems];
    let b = vec![1.0f32; elems];
    let c = vec![2.0f32; elems];
    let chunk = elems.div_ceil(threads);
    let mut pass = || {
        let t = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        t.elapsed().as_secs_f64()
    };
    pass(); // first touch of `a`
    let best = pass().min(pass());
    std::hint::black_box(&a);
    (3 * elems * 4) as f64 / best / 1e9
}

pub fn measure() -> Host {
    let threads = host::nproc();
    let llc_bytes = host::llc_bytes().unwrap_or(FALLBACK_LLC);
    let triad_bytes = (4 * llc_bytes).clamp(1 << 20, TRIAD_CAP);
    Host {
        peak_gflops: peak_gflops(threads),
        triad_gbs: triad_gbs(threads, triad_bytes / 4),
        triad_bytes,
        llc_bytes,
    }
}

/// Work of one kernel call: floating-point operations and computed
/// (streamed, cache-blind) bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    pub flops: f64,
    pub bytes: f64,
}

impl Work {
    /// An aggregation over `nnz` stored entries of `k`-wide f32 rows into
    /// `n` output rows (`spmm`, `spmm_t`, the fused sweep): one FMA per
    /// entry and column; index + value + one feature row per entry, the
    /// output once. `extra_nnz_values` counts further nnz-sized f32
    /// arrays the call reads or writes (the sweep's Ψ and scores).
    pub fn aggregation(n: usize, nnz: usize, k: usize, extra_nnz_values: usize) -> Self {
        let (n, nnz, k) = (n as f64, nnz as f64, k as f64);
        Self {
            flops: 2.0 * nnz * k,
            bytes: nnz * (4.0 + 4.0 + 4.0 * k) + n * k * 4.0 + extra_nnz_values as f64 * nnz * 4.0,
        }
    }

    pub fn scaled(self, calls: f64) -> Self {
        Self {
            flops: self.flops * calls,
            bytes: self.bytes * calls,
        }
    }
}

/// Achieved rates of `work` done in `seconds`, and the achieved share of
/// the roofline bound `min(peak, bandwidth × flops/byte)`.
pub fn rates(host: &Host, work: Work, seconds: f64) -> (f64, f64, f64) {
    if seconds <= 0.0 || work.flops <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let gflops = work.flops / seconds / 1e9;
    let gbs = work.bytes / seconds / 1e9;
    let bound = host
        .peak_gflops
        .min(host.triad_gbs * work.flops / work.bytes);
    (gflops, gbs, gflops / bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bandwidth_bound_kernel_is_held_against_bandwidth() {
        let host = Host {
            peak_gflops: 100.0,
            triad_gbs: 10.0,
            triad_bytes: 0,
            llc_bytes: 0,
        };
        // 0.5 flop/byte: the bound is 5 GFLOP/s, not the 100 of the FMA units.
        let work = Work {
            flops: 1e9,
            bytes: 2e9,
        };
        let (gflops, gbs, share) = rates(&host, work, 0.5);
        assert!((gflops - 2.0).abs() < 1e-12 && (gbs - 4.0).abs() < 1e-12);
        assert!((share - 0.4).abs() < 1e-12);
        assert_eq!(rates(&host, work, 0.0), (0.0, 0.0, 0.0));
    }

    #[test]
    fn aggregation_work_follows_the_streaming_model() {
        let w = Work::aggregation(10, 100, 8, 0);
        assert_eq!(w.flops, 1600.0);
        assert_eq!(w.bytes, 100.0 * (8.0 + 32.0) + 320.0);
        assert_eq!(Work::aggregation(10, 100, 8, 2).bytes, w.bytes + 800.0);
    }

    #[test]
    fn ceilings_are_positive() {
        assert!(peak_gflops(1) > 0.0);
        assert!(triad_gbs(2, 1 << 16) > 0.0);
    }
}
