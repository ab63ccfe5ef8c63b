//! The repository benchmark's measuring program. `run.py` builds it and
//! starts it pinned to one CPU; it runs one workload and prints, as its
//! last line, `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! ulmt-perfbench --workload <paper_inproc|small_net|sim_fig7> --seconds S
//!                [--seed N] [--trace 0|1] [--revision R] [--host-cpus N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` alternates
//! untraced and traced repetitions, times each layer's public calls from
//! outside, writes the spans as Chrome trace JSON under `perfbench/out/`
//! and prints the per-layer metrics. Either way the run exits 1 if an
//! output is wrong.

mod calib;
mod common;
mod inproc;
mod net;
mod score;
mod selftest;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;

use ulmt_system::PrefetchScheme;

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 24301;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    revision: String,
    host_cpus: String,
}

/// `--seconds` has no default here: `run.py` owns it and always passes it.
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        revision: "unknown".into(),
        host_cpus: "unknown".into(),
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad)?),
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad)? == 1,
            "--revision" => args.revision = value,
            "--host-cpus" => args.host_cpus = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.seconds = seconds.ok_or("--seconds is required")?;
    Ok(args)
}

/// End-to-end metrics, each printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("ontime_frac", "fraction"),
    ("ok_frac", "fraction"),
    ("prefetch_accuracy", "fraction"),
    ("prefetch_coverage", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, each printed by every traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("workloads.gen_ms", "ms"),
        ("workloads.build_ms", "ms"),
        ("service.open_ms", "ms"),
        ("service.submit_ns", "ns"),
        ("service.wait_us_p50", "us"),
        ("service.wait_us_p99", "us"),
        ("service.refused", "count"),
        ("shard.queue_wait_p50_ns", "ns"),
        ("shard.queue_wait_p99_ns", "ns"),
        ("shard.ingest_p50_ns", "ns"),
        ("shard.ingest_p99_ns", "ns"),
        ("shard.batches", "count"),
        ("shard.observed", "count"),
        ("shard.prefetches", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for alg in ["base", "chain", "repl"] {
        m.push((format!("table.batch_ns_per_obs.{alg}"), "ns"));
        m.push((format!("table.miss_ns.{alg}"), "ns"));
    }
    for tenant in ["mcf_repl", "cg_chain", "equake_base"] {
        m.push((format!("table.snapshot_ms.{tenant}"), "ms"));
    }
    for (n, u) in [
        ("table.checkpoint_share", "fraction"),
        ("table.restore_ms", "ms"),
        ("snapshot.encode_ms", "ms"),
        ("snapshot.decode_ms", "ms"),
        ("net.submit_us", "us"),
        ("net.reap_us_p50", "us"),
        ("net.reap_us_p99", "us"),
        ("net.codec_ns_per_obs", "ns"),
        ("net.nacks", "count"),
        ("sim.speedup", "x"),
        ("cache.filter_ns_per_ref", "ns"),
    ] {
        m.push((n.to_string(), u));
    }
    for scheme in PrefetchScheme::FIGURE7 {
        let s = scheme.label().to_lowercase().replace('+', "_");
        m.push((format!("sim.run_ms.{s}"), "ms"));
        m.push((format!("sim.host_ns_per_ref.{s}"), "ns"));
        m.push((format!("sim.exec_cycles.{s}"), "cycles"));
        m.push((format!("sim.l2_misses.{s}"), "count"));
    }
    for (n, u) in [
        ("memproc.occupancy", "cycles"),
        ("memproc.response_cycles", "cycles"),
        ("fsb.utilization", "fraction"),
        ("dram.row_hit_ratio", "fraction"),
        ("prefetch.issued", "count"),
        ("prefetch.useful", "count"),
        ("loadgen.late_p99_us", "us"),
        ("trace.overhead_frac", "fraction"),
        ("host.kernel_ms", "ms"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// Why a per-layer metric has no reading on a workload.
fn unavailable_reason(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "service" => "no in-process Session calls on this workload",
        "net" => "no network front-end on this workload",
        "shard" => "no service shard on this workload",
        "loadgen" => "no open-loop generator on this workload",
        "sim" | "memproc" | "fsb" | "dram" | "prefetch" => "no simulator on this workload",
        _ => "no such tenant table on this workload",
    }
}

/// Writes the traced run's spans as Chrome trace JSON.
pub fn write_trace(args: &Args, spans: &[trace::Span], report: &mut common::Report) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"spans\":{}}}",
        args.workload,
        args.seed,
        spans.len()
    );
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(spans, &meta)));
    match written {
        Ok(()) => report.note(format!(
            "trace: {} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// Orders the metrics as the benchmark lists them and checks each name
/// and unit; per-layer metrics a workload cannot measure read 0, with a
/// note saying why.
fn finish(args: &Args, report: &mut common::Report) {
    let expected: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut got = std::mem::take(&mut report.metrics);
    for (name, _, unit) in &got {
        let known = expected.iter().any(|(n, u)| n == name && u == unit);
        report.check(known, || {
            format!("metric {name} ({unit}) is not in the benchmark's list")
        });
    }
    let mut missing: Vec<(&'static str, Vec<String>)> = Vec::new();
    for (name, unit) in &expected {
        match got.iter().position(|(n, _, _)| n == name) {
            Some(i) => {
                let (n, v, u) = got.swap_remove(i);
                report.check(v.is_finite(), || format!("metric {n} is not a number"));
                report.metrics.push((n, v, u));
            }
            None if args.trace => {
                let why = unavailable_reason(name);
                match missing.iter_mut().find(|(w, _)| *w == why) {
                    Some((_, names)) => names.push(name.clone()),
                    None => missing.push((why, vec![name.clone()])),
                }
                report.metrics.push((name.clone(), 0.0, unit));
            }
            None => report.check(false, || format!("metric {name} was not measured")),
        }
    }
    for (why, names) in missing {
        report.note(format!(
            "unavailable on {} (reported as 0): {} — {why}",
            args.workload,
            names.join(", ")
        ));
    }
}

fn print(report: &common::Report) {
    for note in &report.notes {
        println!("note: {note}");
    }
    const SHOWN: usize = 20;
    for e in report.errors.iter().take(SHOWN) {
        println!("error: {e}");
    }
    if report.errors.len() > SHOWN {
        println!("error: ... and {} more", report.errors.len() - SHOWN);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}",
                if v.is_finite() { *v } else { 0.0 }
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.errors.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: ulmt-perfbench --workload <paper_inproc|small_net|sim_fig7> --seconds S [--seed N] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = selftest::run() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let cpus = stats::cpus_allowed();
    let pinned = !cpus.contains([',', '-']);
    println!(
        "{{\"stamp\":{{\"workload\":\"{}\",\"seed\":{},\"default_seed\":{DEFAULT_SEED},\"seconds\":{},\"trace\":{},\"revision\":\"{}\",\"host_cpus\":\"{}\",\"cpus_allowed\":\"{cpus}\",\"pinned\":{pinned}}}}}",
        args.workload, args.seed, args.seconds, args.trace, args.revision, args.host_cpus
    );
    let mut report = match args.workload.as_str() {
        "paper_inproc" => inproc::run(&args),
        "small_net" => net::run(&args),
        "sim_fig7" => sim::run(&args),
        other => {
            eprintln!("unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    report.check(pinned, || {
        format!("not pinned to one CPU (allowed: {cpus})")
    });
    finish(&args, &mut report);
    print(&report);
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn section(json: &str, key: &str, next: Option<&str>) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = next.map_or(json.len(), |n| {
            json.find(&format!("\"{n}\"")).expect("next section")
        });
        let field = |s: &str, f: &str| -> Vec<String> {
            s.split(&format!("\"{f}\": \""))
                .skip(1)
                .map(|p| p.split('"').next().unwrap_or("").to_string())
                .collect()
        };
        let part = &json[start..end];
        field(part, "name")
            .into_iter()
            .zip(field(part, "unit"))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e: Vec<(String, String)> = super::END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        let layers: Vec<(String, String)> = super::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(section(&json, "end_to_end", Some("per_layer")), e2e);
        assert_eq!(section(&json, "per_layer", None), layers);
    }
}
