//! What the numbers were measured on: core count, cache sizes, SIMD
//! level, the codegen the binary was built with, and the process's peak
//! resident set.

use crate::json::{obj, Value};

/// Removes every `ATGNN_*` variable from this process's environment, so
/// the product runs its defaults (and, with `ATGNN_TUNE` gone, never
/// opens a tuning database). Must run before any other thread exists and
/// before the product reads its first knob — i.e. first thing in `main`.
pub fn clear_atgnn_env() {
    let keys: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("ATGNN_"))
        .collect();
    for k in keys {
        std::env::remove_var(k);
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of cpu0's data/unified cache at `level`, from sysfs.
pub fn cache_bytes(level: u32) -> Option<usize> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8).find_map(|idx| {
        let dir = base.join(format!("index{idx}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        if read("level")?.trim().parse::<u32>().ok()? != level
            || read("type")?.trim() == "Instruction"
        {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1 << 10),
            b'M' => (&size[..size.len() - 1], 1 << 20),
            b'G' => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        digits.parse::<usize>().ok().map(|v| v * mult)
    })
}

/// Last-level cache: the highest level sysfs lists.
pub fn llc_bytes() -> Option<usize> {
    (1..=4).rev().find_map(cache_bytes)
}

/// Widest SIMD level the CPU reports at run time.
pub fn simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            return "sse4.2";
        }
    }
    "baseline"
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The host stamp every result carries. `codegen` records what the
/// *compiler* was allowed to emit (the `.cargo/config.toml` rustflags
/// reach this package by location only), so a build that silently lost
/// `target-cpu=native` is visible next to the numbers it produced.
pub fn stamp() -> Value {
    obj([
        ("nproc", nproc().into()),
        ("l1d", cache_bytes(1).into()),
        ("llc", llc_bytes().into()),
        ("simd", simd().into()),
        (
            "codegen",
            obj([
                ("fma", cfg!(target_feature = "fma").into()),
                ("avx2", cfg!(target_feature = "avx2").into()),
                ("debug_assertions", cfg!(debug_assertions).into()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }

    #[test]
    fn stamp_names_the_host_fields() {
        let s = stamp();
        for key in ["nproc", "l1d", "llc", "simd", "codegen"] {
            assert!(s.get(key).is_some(), "{key} missing");
        }
        assert!(s.get("nproc").and_then(Value::as_f64).unwrap() >= 1.0);
    }
}
