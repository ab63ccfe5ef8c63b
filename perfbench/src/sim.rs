//! `sim_fig7`: the seven Figure 7 schemes on Mcf (irregular, where
//! correlation prefetching wins) and CG (regular, where Conven4 wins) at
//! the `mid` profile, run one after another through `Experiment::run`
//! on one thread. It exercises the simulator — cache, DRAM, CPU and
//! memory-processor models plus the table's per-miss path — and no
//! service code. Its modelled results are deterministic.

use ulmt_bench::profile::Profile;
use ulmt_simcore::LineAddr;
use ulmt_system::{Experiment, PrefetchScheme, RunResult};
use ulmt_workloads::{App, WorkloadSpec};

use crate::common::{self, check_repeats, Report, Timings};
use crate::score::Score;
use crate::stats::{geomean, median, peak_rss_mb, percentile};
use crate::trace::{Clock, Tracer};
use crate::Args;

pub const APPS: [App; 2] = [App::Mcf, App::Cg];
/// A simulation finished within this long is on time: about three times
/// the slowest simulation's measured wall time (Mcf `Conven4+Repl`,
/// 640–1090 ms), so it flags a hung or pathologically slow simulation and
/// nothing else.
pub const LIMIT_NS: u64 = 3_000_000_000;

struct Run {
    scheme: PrefetchScheme,
    wall_ns: u64,
    result: RunResult,
}

/// One pass over every app and scheme.
struct Sweep {
    runs: Vec<Run>,
    failed: u64,
}

/// Each (app, scheme) pair's simulated references and median wall time
/// over `sweeps`, in nanoseconds. A median per pair drops the sweeps
/// that ran in a slow period of the host.
fn pair_medians(sweeps: &[Sweep]) -> Vec<(u64, f64)> {
    let mut pairs: Vec<(&str, PrefetchScheme, u64, Vec<f64>)> = Vec::new();
    for r in sweeps.iter().flat_map(|s| &s.runs) {
        let key = (r.result.app.as_str(), r.scheme);
        match pairs.iter_mut().find(|p| (p.0, p.1) == key) {
            Some(p) => p.3.push(r.wall_ns as f64),
            None => pairs.push((key.0, key.1, r.result.refs, vec![r.wall_ns as f64])),
        }
    }
    pairs
        .into_iter()
        .map(|(_, _, refs, walls)| (refs, median(&walls)))
        .collect()
}

/// Simulated references per host second: every pair's references over
/// the sum of the pairs' median wall times.
fn throughput(sweeps: &[Sweep]) -> f64 {
    let pairs = pair_medians(sweeps);
    let refs: u64 = pairs.iter().map(|p| p.0).sum();
    let ns: f64 = pairs.iter().map(|p| p.1).sum();
    refs as f64 / (ns / 1e9)
}

impl Sweep {
    fn of(&self, scheme: PrefetchScheme) -> impl Iterator<Item = &Run> {
        self.runs.iter().filter(move |r| r.scheme == scheme)
    }

    /// Prefetch accuracy and coverage over the schemes that run a ULMT,
    /// from the simulator's own accounting: a prefetch is useful if it
    /// served a demand miss, and coverage is relative to NoPref's misses.
    fn score(&self) -> Score {
        let mut s = Score::default();
        for r in self.runs.iter().filter(|r| r.result.ulmt.is_some()) {
            let nopref = self
                .of(PrefetchScheme::NoPref)
                .find(|n| n.result.app == r.result.app)
                .map_or(0, |n| n.result.l2_misses);
            let useful = r.result.prefetch.hits + r.result.prefetch.delayed_hits;
            s.add(Score {
                predicted: r.result.prefetch.issued,
                useful,
                misses: nopref,
                covered: useful,
            });
        }
        s
    }

    /// Geometric mean over the apps of NoPref over Conven4+Repl cycles.
    fn speedup(&self) -> f64 {
        let ratios: Vec<f64> = self
            .of(PrefetchScheme::NoPref)
            .zip(self.of(PrefetchScheme::Conven4Repl))
            .map(|(n, c)| n.result.exec_cycles as f64 / c.result.exec_cycles as f64)
            .collect();
        geomean(&ratios)
    }

    fn deterministic(&self) -> (Vec<u64>, u64, u64, u64) {
        let s = self.score();
        (
            self.runs.iter().map(|r| r.result.fingerprint()).collect(),
            s.accuracy().to_bits(),
            s.coverage().to_bits(),
            self.speedup().to_bits(),
        )
    }
}

fn sweep(profile: &Profile, specs: &[WorkloadSpec], clock: Clock, tracer: &mut Tracer) -> Sweep {
    let root = tracer.reserve();
    let t0 = clock.now();
    let mut runs = Vec::new();
    let mut failed = 0;
    for spec in specs {
        for scheme in PrefetchScheme::FIGURE7 {
            let a = clock.now();
            let result = Experiment::new(profile.config, spec.clone())
                .scheme(scheme)
                .run_guarded();
            let b = clock.now();
            tracer.span(scheme.label(), root, None, a, b);
            match result {
                Ok(result) => runs.push(Run {
                    scheme,
                    wall_ns: b - a,
                    result,
                }),
                Err(_) => failed += 1,
            }
        }
    }
    tracer.put(root, "repetition", 0, None, t0, clock.now());
    Sweep { runs, failed }
}

/// `Conven4+Repl` → `conven4_repl`.
fn snake(scheme: PrefetchScheme) -> String {
    scheme.label().to_lowercase().replace('+', "_")
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let profile = Profile::mid();
    let specs: Vec<WorkloadSpec> = APPS
        .iter()
        .map(|&a| profile.workload(a).seed(args.seed))
        .collect();
    // Set-up: building both apps' reference streams to their end (the
    // simulator reads them lazily; `build` alone takes under a millisecond).
    let (setup_s, _) = common::timed_median(25, || {
        specs.iter().map(|s| s.build().count()).sum::<usize>()
    });
    let (build_s, _) = common::timed_median(51, || {
        specs.iter().map(|s| s.build().total_refs()).sum::<usize>()
    });
    let clock = Clock::new();
    let (sweeps, traced, mut tracer, host) = common::repetitions(args, clock, &mut report, |tr| {
        Ok(sweep(&profile, &specs, clock, tr))
    });
    let all = || sweeps.iter().chain(&traced);
    report.attempted = all().map(|s| s.runs.len() as u64 + s.failed).sum();
    report.failed = all().map(|s| s.failed).sum();
    let failed = report.failed;
    report.check(failed == 0, || format!("{failed} simulations failed"));
    let det: Vec<_> = all().map(Sweep::deterministic).collect();
    check_repeats(&mut report, "simulation fingerprints and scores", &det);
    let Some(first) = sweeps.first() else {
        return report;
    };

    if !args.trace {
        // Latency and throughput come from each (app, scheme) pair's
        // median over the sweeps. A run holds only a handful of sweeps,
        // so a percentile over every simulation would be its slowest one
        // or two; p50 and p99 are taken over the 14 pair medians instead
        // (p99 is then the slowest pair's median).
        let mut medians: Vec<u64> = pair_medians(&sweeps).iter().map(|p| p.1 as u64).collect();
        let on_time = sweeps
            .iter()
            .flat_map(|s| &s.runs)
            .filter(|r| r.wall_ns <= LIMIT_NS)
            .count();
        let timings = Timings {
            per_s: throughput(&sweeps),
            p50_us: percentile(&mut medians, 50.0).unwrap_or(0) as f64 / 1e3,
            p99_us: percentile(&mut medians, 99.0).unwrap_or(0) as f64 / 1e3,
            setup_s,
        };
        common::report_timings(&mut report, Some(&host), timings);
        let sims: u64 = sweeps.iter().map(|s| s.runs.len() as u64 + s.failed).sum();
        report.metric("ontime_frac", on_time as f64 / sims as f64, "fraction");
        let attempted = report.attempted as f64;
        report.metric(
            "ok_frac",
            (attempted - report.failed as f64) / attempted,
            "fraction",
        );
        let score = first.score();
        report.metric("prefetch_accuracy", score.accuracy(), "fraction");
        report.metric("prefetch_coverage", score.coverage(), "fraction");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        return report;
    }

    report.metric("workloads.build_ms", build_s * 1e3, "ms");
    report.metric(
        "trace.overhead_frac",
        throughput(&traced) / throughput(&sweeps),
        "fraction",
    );
    report.metric("sim.speedup", first.speedup(), "x");
    for scheme in PrefetchScheme::FIGURE7 {
        let name = snake(scheme);
        let ms: Vec<f64> = traced
            .iter()
            .map(|s| s.of(scheme).map(|r| r.wall_ns as f64 / 1e6).sum())
            .collect();
        let refs: u64 = first.of(scheme).map(|r| r.result.refs).sum();
        report.metric(format!("sim.run_ms.{name}"), median(&ms), "ms");
        report.metric(
            format!("sim.host_ns_per_ref.{name}"),
            median(&ms) * 1e6 / refs as f64,
            "ns",
        );
        let cycles: u64 = first.of(scheme).map(|r| r.result.exec_cycles).sum();
        let misses: u64 = first.of(scheme).map(|r| r.result.l2_misses).sum();
        report.metric(format!("sim.exec_cycles.{name}"), cycles as f64, "cycles");
        report.metric(format!("sim.l2_misses.{name}"), misses as f64, "count");
    }
    // Memory-processor and memory-system figures of the Conven4+Repl runs,
    // averaged over the apps; prefetch counts summed over the ULMT schemes.
    let headline: Vec<&RunResult> = first
        .of(PrefetchScheme::Conven4Repl)
        .map(|r| &r.result)
        .collect();
    let mean = |f: &dyn Fn(&RunResult) -> f64| {
        headline.iter().map(|r| f(r)).sum::<f64>() / headline.len() as f64
    };
    report.metric(
        "memproc.occupancy",
        mean(&|r| r.ulmt.as_ref().map_or(0.0, |u| u.occupancy.mean())),
        "cycles",
    );
    report.metric(
        "memproc.response_cycles",
        mean(&|r| r.ulmt.as_ref().map_or(0.0, |u| u.response.mean())),
        "cycles",
    );
    report.metric("fsb.utilization", mean(&|r| r.fsb_utilization), "fraction");
    report.metric(
        "dram.row_hit_ratio",
        mean(&|r| r.dram_row_hit_ratio),
        "fraction",
    );
    let score = first.score();
    report.metric("prefetch.issued", score.predicted as f64, "count");
    report.metric("prefetch.useful", score.useful as f64, "count");

    let mut probe = tracer.fork(8);
    let g0 = clock.now();
    let (gen_s, streams) = common::timed_median(3, || {
        specs
            .iter()
            .map(|s| common::miss_stream(&profile.config, s))
            .collect::<Vec<Vec<LineAddr>>>()
    });
    probe.span("workloads.gen", 0, None, g0, clock.now());
    report.metric("workloads.gen_ms", gen_s * 1e3, "ms");
    // The simulator sizes its table to the footprint, as `SystemSim` does.
    let rows: Vec<usize> = specs
        .iter()
        .map(|s| (s.footprint_lines() as usize).next_power_of_two().max(1024))
        .collect();
    let pairs: Vec<(&[LineAddr], usize)> = streams.iter().map(|s| &s[..]).zip(rows).collect();
    common::table_probes(&pairs, &[], clock, &mut probe, &mut report);
    common::filter_probe(
        &profile.config,
        &specs,
        &streams,
        clock,
        &mut probe,
        &mut report,
    );
    let slices: Vec<&[LineAddr]> = streams.iter().map(|s| &s[..]).collect();
    common::codec_probe(
        &slices,
        crate::inproc::BATCH,
        clock,
        &mut probe,
        &mut report,
    );
    tracer.absorb(probe);
    crate::write_trace(args, &tracer.spans, &mut report);
    report
}
