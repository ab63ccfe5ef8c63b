//! Order statistics over the benchmark's own samples.

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// sample with at least `pct`% of the samples at or below it. `None` when
/// there are no samples.
pub fn percentile(samples: &mut [u64], pct: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    Some(samples[rank.clamp(1, n) - 1])
}

/// Median of per-repetition readings; the mean of the middle two for an
/// even count. `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The mean over repetitions of each repetition's median latency, in
/// microseconds, from nanosecond samples. Runs on a noisy host mix fast
/// and slow repetitions; this moves smoothly with the mix where the
/// median of the pooled samples jumps between the two.
pub fn mean_p50_us<'a>(reps: impl Iterator<Item = &'a Vec<u64>>) -> f64 {
    let p50s: Vec<f64> = reps
        .map(|lat| percentile(&mut lat.clone(), 50.0).unwrap_or(0) as f64 / 1e3)
        .collect();
    p50s.iter().sum::<f64>() / p50s.len() as f64
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so that
/// `peak_rss_mb` covers only what runs after the reset. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The CPUs this process may run on, as `/proc/self/status` lists them.
pub fn cpus_allowed() -> String {
    proc_status_field("Cpus_allowed_list:").unwrap_or_else(|| "unknown".into())
}

fn proc_status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}
