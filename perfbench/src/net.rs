//! `small_net`: two tenants with 1024-row tables over loopback TCP, one
//! connection each, driven from one client thread in 64-observation
//! batches. A closed loop with a bounded pending window per connection,
//! because `NetClient::reap` is a blocking request/response. The tables
//! fit in cache and checkpoints are tiny, so per-batch costs dominate.

use ulmt_service::{
    BatchReply, MetricsReport, NetClient, NetConfig, NetServer, NetSubmit, PrefetchService,
    ServiceConfig, ServiceError, TenantSpec,
};
use ulmt_simcore::LineAddr;
use ulmt_system::SystemConfig;
use ulmt_workloads::{App, WorkloadSpec};

use crate::common::{
    self, ClosedLoop, ClosedLoopPlan, Endpoint, Report, Slot, Submitted, Tenant, Timings,
};
use crate::stats::{mean_p50_us, median, peak_rss_mb, percentile};
use crate::trace::{self, Clock, Tracer};
use crate::Args;

pub const BATCH: usize = 64;
pub const ROWS: usize = 1024;
/// Footprint scale of the streams, through the 1/16-scale caches: the
/// footprints fit the 1024-row tables, so the tables learn and predict.
pub const SCALE: f64 = 1.0 / 32.0;
/// Outer iterations: enough for over 1000 batches per repetition.
pub const ITERATIONS: usize = 60;
/// Pending batches per connection.
pub const WINDOW: usize = 4;
/// A batch acked within this long of its submission is on time.
pub const LIMIT_NS: u64 = 2_000_000;

#[derive(Default)]
struct Rep {
    connect_s: f64,
    closed: ClosedLoop,
    metrics: Option<MetricsReport>,
}

/// Observations acked per second over `reps` together.
fn throughput<'a>(reps: impl Iterator<Item = &'a Rep>) -> f64 {
    let (obs, ns) = reps.fold((0, 0), |(o, n), r| (o + r.closed.obs, n + r.closed.wall_ns));
    obs as f64 / (ns as f64 / 1e9)
}

/// One connection per tenant. `reap` answers the connection's oldest
/// pending batch, so a batch's handle carries nothing.
impl Endpoint for [NetClient] {
    type Handle = ();

    fn submit(&mut self, i: usize, buf: Vec<LineAddr>) -> Result<Submitted<()>, String> {
        match self[i].try_submit(buf) {
            Ok(NetSubmit::Enqueued { .. }) => Ok(Submitted::Taken(())),
            Ok(NetSubmit::Full(b) | NetSubmit::TimedOut(b)) => Ok(Submitted::Refused(b)),
            Err(e) => Err(format!("submit failed: {e}")),
        }
    }

    fn reap(&mut self, i: usize, (): ()) -> Result<BatchReply, ServiceError> {
        self[i].reap()
    }
}

fn repetition(
    tenants: &[Tenant],
    plan: &[Slot],
    clock: Clock,
    tracer: &mut Tracer,
) -> Result<(Rep, Vec<u64>), String> {
    let mut rep = Rep::default();
    let root = tracer.reserve();
    let r0 = clock.now();
    let service = PrefetchService::start(ServiceConfig {
        shards: 1,
        ..ServiceConfig::default()
    });
    let server =
        NetServer::bind(service, NetConfig::loopback()).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    let mut clients = Vec::new();
    for t in tenants {
        clients.push(
            NetClient::connect(addr, t.id, t.spec)
                .map_err(|e| format!("{}: connect failed: {e}", t.name))?,
        );
    }
    let r1 = clock.now();
    tracer.span("service.open", root, None, r0, r1);
    rep.connect_s = (r1 - r0) as f64 / 1e9;

    let closed = ClosedLoopPlan {
        tenants,
        plan,
        batch: BATCH,
        window: WINDOW,
        calls: ("net.submit", "net.reap"),
    };
    rep.closed = closed.run(&mut clients[..], clock, tracer, root)?;

    let mut fps = Vec::new();
    for (c, t) in clients.iter_mut().zip(tenants) {
        fps.push(
            c.fingerprint()
                .map_err(|e| format!("{}: fingerprint failed: {e}", t.name))?,
        );
    }
    rep.metrics = clients[0].metrics().ok();
    for c in clients {
        c.goodbye();
    }
    server.shutdown();
    tracer.put(root, "repetition", 0, None, r0, clock.now());
    Ok((rep, fps))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let defs = [
        (1, "mcf_repl", App::Mcf, TenantSpec::repl(ROWS)),
        (2, "cg_chain", App::Cg, TenantSpec::chain(ROWS)),
    ];
    let specs: Vec<_> = defs
        .iter()
        .map(|d| {
            WorkloadSpec::new(d.2)
                .scale(SCALE)
                .iterations(ITERATIONS)
                .seed(args.seed)
        })
        .collect();
    let (streams, gen_s, build_s) =
        common::generate(&SystemConfig::small(), &specs, 15, &mut report);
    let tenants: Vec<Tenant> = defs
        .iter()
        .zip(streams)
        .map(|(&(id, name, _, spec), obs)| Tenant::new(id, name, spec, obs))
        .collect();
    let plan = common::round_robin(&tenants, BATCH, |t| 0..t.obs.len().div_ceil(BATCH));
    let clock = Clock::new();
    let offline: Vec<u64> = tenants.iter().map(|t| t.fingerprint).collect();
    let (reps, traced, mut tracer, host) = common::repetitions(args, clock, &mut report, |tr| {
        let (rep, fps) = repetition(&tenants, &plan, clock, tr).map_err(|e| vec![e])?;
        if fps != offline {
            return Err(vec![
                "fingerprints over the wire differ from the in-process replay".into(),
            ]);
        }
        Ok(rep)
    });
    let batches = plan.len() as u64;
    let observed: u64 = tenants.iter().map(|t| t.obs.len() as u64).sum();
    let prefetches: u64 = tenants.iter().map(|t| t.pred_lines.len() as u64).sum();
    for rep in reps.iter().chain(&traced) {
        let counts = rep.metrics.as_ref().map(|m| {
            let s = &m.shards[0];
            (s.batches, s.observed, s.prefetches)
        });
        report.check(counts == Some((batches, observed, prefetches)), || {
            format!("shard counters {counts:?} differ from the benchmark's ({batches}, {observed}, {prefetches})")
        });
    }
    let all = || reps.iter().chain(&traced);
    report.attempted = all()
        .map(|r| r.closed.lat.len() as u64 + r.closed.refusals)
        .sum();
    report.failed = all().map(|r| r.closed.refusals).sum();
    if reps.is_empty() {
        return report;
    }
    let setup_s = gen_s + median(&reps.iter().map(|r| r.connect_s).collect::<Vec<_>>());

    if !args.trace {
        // Throughput, p99 and the on-time share are pooled over the
        // repetitions, so that the host's second-to-second drift averages
        // out over the run.
        let mut lat: Vec<u64> = reps
            .iter()
            .flat_map(|r| r.closed.lat.iter().copied())
            .collect();
        let on_time = reps
            .iter()
            .flat_map(|r| r.closed.lat.iter().zip(&r.closed.refused))
            .filter(|(&l, &n)| !n && l <= LIMIT_NS)
            .count();
        let timings = Timings {
            per_s: throughput(reps.iter()),
            p50_us: mean_p50_us(reps.iter().map(|r| &r.closed.lat)),
            p99_us: percentile(&mut lat, 99.0).unwrap_or(0) as f64 / 1e3,
            setup_s,
        };
        common::report_timings(&mut report, Some(&host), timings);
        report.metric("ontime_frac", on_time as f64 / lat.len() as f64, "fraction");
        let attempted = report.attempted as f64;
        report.metric(
            "ok_frac",
            (attempted - report.failed as f64) / attempted,
            "fraction",
        );
        common::report_scores(&tenants, &mut report);
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        return report;
    }

    report.metric("workloads.gen_ms", gen_s * 1e3, "ms");
    report.metric("workloads.build_ms", build_s * 1e3, "ms");
    report.metric(
        "trace.overhead_frac",
        throughput(traced.iter()) / throughput(reps.iter()),
        "fraction",
    );
    report.metric(
        "service.open_ms",
        median(&traced.iter().map(|r| r.connect_s * 1e3).collect::<Vec<_>>()),
        "ms",
    );
    let spans = &tracer.spans;
    match trace::check_batches(spans) {
        Ok(n) => report.check(n == plan.len() * traced.len(), || {
            format!("{n} batch spans traced")
        }),
        Err(e) => report.check(false, || e),
    }
    let mut submit = trace::durations(spans, "net.submit");
    let mut reaps = trace::durations(spans, "net.reap");
    report.metric(
        "net.submit_us",
        percentile(&mut submit, 50.0).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    report.metric(
        "net.reap_us_p50",
        percentile(&mut reaps, 50.0).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    report.metric(
        "net.reap_us_p99",
        percentile(&mut reaps, 99.0).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    report.metric(
        "net.nacks",
        traced.iter().map(|r| r.closed.refusals).sum::<u64>() as f64,
        "count",
    );
    crate::inproc::shard_metrics(
        &traced
            .iter()
            .filter_map(|r| r.metrics.clone())
            .collect::<Vec<_>>(),
        &mut report,
    );

    let mut probe = tracer.fork(8);
    let streams: Vec<(&[LineAddr], usize)> = tenants.iter().map(|t| (&t.obs[..], ROWS)).collect();
    let snapshot_ms = common::table_probes(&streams, &tenants, clock, &mut probe, &mut report);
    let wall_s = median(
        &reps
            .iter()
            .map(|r| r.closed.wall_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let checkpoints = batches as f64 / ServiceConfig::default().supervision.checkpoint_every as f64;
    report.metric(
        "table.checkpoint_share",
        checkpoints * snapshot_ms / 1e3 / wall_s,
        "fraction",
    );
    let obs: Vec<Vec<LineAddr>> = tenants.iter().map(|t| t.obs.clone()).collect();
    common::filter_probe(
        &SystemConfig::small(),
        &specs,
        &obs,
        clock,
        &mut probe,
        &mut report,
    );
    let slices: Vec<&[LineAddr]> = tenants.iter().map(|t| &t.obs[..]).collect();
    common::codec_probe(&slices, BATCH, clock, &mut probe, &mut report);
    tracer.absorb(probe);
    crate::write_trace(args, &tracer.spans, &mut report);
    report
}
