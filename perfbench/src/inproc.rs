//! `paper_inproc`: three tenants at their Table 2 row counts on one
//! in-process shard, fed paper-scale miss streams in 256-observation
//! batches. Each repetition starts a fresh service and feeds every
//! stream from the beginning: first a closed loop with a bounded window
//! of pending batches per tenant (capacity), then, once the tables are
//! full, an open loop at a fixed offered rate over the streams' last
//! batches (misses arrive on the application's schedule).

use std::sync::mpsc;
use std::time::Duration;

use ulmt_service::{
    BatchReply, MetricsReport, PendingBatch, PrefetchService, ServiceConfig, ServiceError, Session,
    ShardStats, TenantSpec, TrySubmit,
};
use ulmt_simcore::stats::Log2Histogram;
use ulmt_simcore::LineAddr;
use ulmt_system::SystemConfig;
use ulmt_workloads::{App, WorkloadSpec};

use crate::common::{
    self, check_repeats, check_reply, ClosedLoop, ClosedLoopPlan, Endpoint, Report, Slot,
    Submitted, Tenant, Timings,
};
use crate::stats::{mean_p50_us, median, peak_rss_mb, percentile};
use crate::trace::{self, Clock, Tracer};
use crate::Args;

pub const BATCH: usize = 256;
/// Batches of each tenant's stream, at its end, fed in the open loop.
pub const OPEN_BATCHES: usize = 150;
/// Offered rate of the open-loop phase, observations per second: about an
/// eighth of capacity, so the batches that queue behind a checkpoint stay
/// a minority (about one in nine).
pub const OFFERED_OBS_PER_S: f64 = 50_000.0;
/// A batch acked within this long of its due time is on time.
pub const LIMIT_NS: u64 = 10_000_000;
/// Pending batches per tenant in the closed loop.
pub const WINDOW: usize = 4;

/// One open-loop batch's timeline, in clock nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeline {
    pub due: u64,
    pub sent: u64,
    pub acked: u64,
    /// The first submission was refused (`Full`).
    pub refused: bool,
}

impl Timeline {
    /// How late the generator sent the batch.
    pub fn late(&self) -> u64 {
        self.sent - self.due
    }

    /// Time to ack, counted from the due time so a generator stall
    /// counts against every batch it delays.
    pub fn latency(&self) -> u64 {
        self.acked - self.due
    }

    /// Acked within `limit` of its due time and not refused.
    pub fn on_time(&self, limit: u64) -> bool {
        !self.refused && self.latency() <= limit
    }
}

/// Sleeps toward `due` and yields for the last stretch. Spinning would
/// take the one CPU away from the shard worker.
fn wait_until(clock: Clock, due: u64) {
    loop {
        let now = clock.now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > 200_000 {
            std::thread::sleep(Duration::from_nanos(left - 150_000));
        } else {
            std::thread::yield_now();
        }
    }
}

struct InFlight {
    slot: Slot,
    batch: u32,
    span: u32,
    due: u64,
    sent: u64,
    submitted: u64,
    refused: bool,
    pending: PendingBatch,
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    start_open_s: f64,
    open: Vec<Timeline>,
    closed: ClosedLoop,
    refused: u64,
    fingerprints: Vec<u64>,
    stats: Option<ShardStats>,
    metrics: Option<MetricsReport>,
    errors: Vec<String>,
}

/// Closed-loop observations acked per second over `reps` together.
fn throughput<'a>(reps: impl Iterator<Item = &'a Rep>) -> f64 {
    let (obs, ns) = reps.fold((0, 0), |(o, n), r| (o + r.closed.obs, n + r.closed.wall_ns));
    obs as f64 / (ns as f64 / 1e9)
}

/// Waits for one tenant's open-loop batches in order, stamping each ack.
fn collect(
    tenant: &Tenant,
    rx: mpsc::Receiver<InFlight>,
    pool: mpsc::Sender<Vec<LineAddr>>,
    clock: Clock,
    mut tracer: Tracer,
    phase: u32,
) -> (Vec<Timeline>, Tracer, Vec<String>) {
    let mut out = Vec::new();
    let mut errors = Vec::new();
    for f in rx {
        let w0 = clock.now();
        let reply = f.pending.wait();
        let acked = clock.now();
        match check_reply(tenant, f.slot, reply) {
            Ok(buf) => {
                let _ = pool.send(buf);
            }
            Err(e) => errors.push(e),
        }
        if tracer.on() {
            let b = Some(f.batch);
            tracer.span("loadgen.late", f.span, b, f.due, f.sent);
            tracer.span("pending", f.span, b, f.submitted, w0);
            tracer.span("service.wait", f.span, b, w0, acked);
            tracer.put(f.span, "batch", phase, b, f.due, acked);
        }
        out.push(Timeline {
            due: f.due,
            sent: f.sent,
            acked,
            refused: f.refused,
        });
    }
    (out, tracer, errors)
}

/// The open-loop phase: the generator submits each batch at its due
/// time; one collector thread per tenant waits for the acks.
fn open_phase(
    tenants: &[Tenant],
    sessions: &mut [Session],
    plan: &[Slot],
    clock: Clock,
    tracer: &mut Tracer,
    parent: u32,
    rep: &mut Rep,
) {
    // Batch ids continue after the closed phase's.
    let first_batch = rep.closed.lat.len();
    let phase = tracer.reserve();
    let p0 = clock.now();
    let interval = BATCH as f64 / OFFERED_OBS_PER_S * 1e9;
    std::thread::scope(|scope| {
        let (pool_tx, pool_rx) = mpsc::channel::<Vec<LineAddr>>();
        let mut txs = Vec::new();
        let mut handles = Vec::new();
        for (i, t) in tenants.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            let pool = pool_tx.clone();
            let fork = tracer.fork(i as u32 + 1);
            handles.push(scope.spawn(move || collect(t, rx, pool, clock, fork, phase)));
            txs.push(tx);
        }
        drop(pool_tx);
        let t0 = clock.now() + 1_000_000;
        for (k, &slot) in plan.iter().enumerate() {
            let due = t0 + (k as f64 * interval) as u64;
            wait_until(clock, due);
            let span = tracer.reserve();
            let sent = clock.now();
            let mut buf = pool_rx
                .try_recv()
                .unwrap_or_else(|_| Vec::with_capacity(BATCH));
            buf.extend_from_slice(&tenants[slot.tenant].obs[slot.lo..slot.hi]);
            let session = &mut sessions[slot.tenant];
            let (pending, refused) = match session.try_submit(buf) {
                TrySubmit::Enqueued(p) => (Ok(p), false),
                TrySubmit::Full(b) => (session.submit(b).map_err(|e| e.to_string()), true),
                TrySubmit::TimedOut(_) => (Err("submit timed out".to_string()), true),
                TrySubmit::Closed(_) => (Err("shard closed".to_string()), true),
            };
            let submitted = clock.now();
            let batch = (first_batch + k) as u32;
            tracer.span("service.submit", span, Some(batch), sent, submitted);
            rep.refused += u64::from(refused);
            match pending {
                Ok(pending) => {
                    let f = InFlight {
                        slot,
                        batch,
                        span,
                        due,
                        sent,
                        submitted,
                        refused,
                        pending,
                    };
                    txs[slot.tenant].send(f).expect("collector alive");
                }
                Err(e) => rep
                    .errors
                    .push(format!("{}: {e}", tenants[slot.tenant].name)),
            }
        }
        drop(txs);
        for h in handles {
            let (timelines, fork, errs) = h.join().expect("collector thread");
            rep.open.extend(timelines);
            tracer.absorb(fork);
            rep.errors.extend(errs);
        }
    });
    tracer.put(phase, "phase.open", parent, None, p0, clock.now());
}

/// In-process sessions, one per tenant. `submit` waits for queue space,
/// so the closed loop is never refused.
impl Endpoint for [Session] {
    type Handle = PendingBatch;

    fn submit(&mut self, i: usize, buf: Vec<LineAddr>) -> Result<Submitted<PendingBatch>, String> {
        self[i]
            .submit(buf)
            .map(Submitted::Taken)
            .map_err(|e| format!("submit failed: {e}"))
    }

    fn reap(&mut self, _: usize, handle: PendingBatch) -> Result<BatchReply, ServiceError> {
        handle.wait()
    }
}

/// The closed-loop phase: one thread, round-robin over tenants, at most
/// `WINDOW` pending batches per tenant.
fn closed_phase(
    tenants: &[Tenant],
    sessions: &mut [Session],
    plan: &[Slot],
    clock: Clock,
    tracer: &mut Tracer,
    parent: u32,
) -> Result<ClosedLoop, String> {
    let phase = tracer.reserve();
    let start = clock.now();
    let closed = ClosedLoopPlan {
        tenants,
        plan,
        batch: BATCH,
        window: WINDOW,
        calls: ("service.submit", "service.wait"),
    }
    .run(sessions, clock, tracer, phase);
    tracer.put(phase, "phase.closed", parent, None, start, clock.now());
    closed
}

/// One repetition on a fresh service.
fn repetition(
    tenants: &[Tenant],
    (closed, open): (&[Slot], &[Slot]),
    clock: Clock,
    tracer: &mut Tracer,
) -> Result<Rep, Vec<String>> {
    let mut rep = Rep::default();
    let root = tracer.reserve();
    let r0 = clock.now();
    let service = PrefetchService::start(ServiceConfig {
        shards: 1,
        ..ServiceConfig::default()
    });
    let mut sessions = Vec::new();
    for t in tenants {
        match service.open(t.id, t.spec) {
            Ok(s) => sessions.push(s),
            Err(e) => return Err(vec![format!("{}: open failed: {e}", t.name)]),
        }
    }
    let r1 = clock.now();
    tracer.span("service.open", root, None, r0, r1);
    rep.start_open_s = (r1 - r0) as f64 / 1e9;

    match closed_phase(tenants, &mut sessions, closed, clock, tracer, root) {
        Ok(c) => {
            rep.closed = c;
            open_phase(tenants, &mut sessions, open, clock, tracer, root, &mut rep);
        }
        Err(e) => rep.errors.push(e),
    }

    if let Err(e) = service.drain() {
        rep.errors.push(format!("drain failed: {e}"));
    }
    for (s, t) in sessions.iter_mut().zip(tenants) {
        match s.fingerprint() {
            Ok(fp) => rep.fingerprints.push(fp),
            Err(e) => rep
                .errors
                .push(format!("{}: fingerprint failed: {e}", t.name)),
        }
    }
    rep.stats = service.shard_stats(0).ok();
    rep.metrics = service.metrics().ok();
    drop(sessions);
    service.shutdown();
    tracer.put(root, "repetition", 0, None, r0, clock.now());
    if rep.errors.is_empty() {
        Ok(rep)
    } else {
        Err(rep.errors)
    }
}

pub fn tenants(seed: u64, report: &mut Report) -> (Vec<Tenant>, f64, f64) {
    let defs = [
        (
            1,
            "mcf_repl",
            App::Mcf,
            TenantSpec::repl as fn(usize) -> TenantSpec,
        ),
        (2, "cg_chain", App::Cg, TenantSpec::chain),
        (3, "equake_base", App::Equake, TenantSpec::base),
    ];
    let specs: Vec<_> = defs
        .iter()
        .map(|d| WorkloadSpec::new(d.2).seed(seed))
        .collect();
    let (streams, gen_s, build_s) = common::generate(&SystemConfig::default(), &specs, 5, report);
    let tenants = defs
        .iter()
        .zip(streams)
        .map(|(&(id, name, app, make), obs)| Tenant::new(id, name, make(app.paper_num_rows()), obs))
        .collect();
    (tenants, gen_s, build_s)
}

/// Checks the shard's exact counters against the benchmark's own counts.
fn check_counters(report: &mut Report, tenants: &[Tenant], plan: &[Slot], rep: &Rep) {
    let batches = plan.len() as u64;
    let observed: u64 = tenants.iter().map(|t| t.obs.len() as u64).sum();
    let prefetches: u64 = tenants.iter().map(|t| t.pred_lines.len() as u64).sum();
    let stats_ok = rep
        .stats
        .as_ref()
        .is_some_and(|s| (s.batches, s.observed, s.prefetches) == (batches, observed, prefetches));
    let metrics_ok = rep.metrics.as_ref().is_some_and(|m| {
        m.shards.len() == 1
            && (
                m.shards[0].batches,
                m.shards[0].observed,
                m.shards[0].prefetches,
            ) == (batches, observed, prefetches)
    });
    report.check(stats_ok && metrics_ok, || {
        format!("shard counters differ from the benchmark's counts ({batches} batches, {observed} obs, {prefetches} prefetches)")
    });
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (tenants, gen_s, build_s) = tenants(args.seed, &mut report);
    let head = |t: &Tenant| t.obs.len().div_ceil(BATCH) - OPEN_BATCHES;
    let closed = common::round_robin(&tenants, BATCH, |t| 0..head(t));
    let open = common::round_robin(&tenants, BATCH, |t| head(t)..head(t) + OPEN_BATCHES);
    let plan = [&closed[..], &open[..]].concat();
    let clock = Clock::new();

    let (reps, traced, mut tracer, _) = common::repetitions(args, clock, &mut report, |tr| {
        let rep = repetition(&tenants, (&closed, &open), clock, tr)?;
        let fps: Vec<u64> = tenants.iter().map(|t| t.fingerprint).collect();
        if rep.fingerprints != fps {
            return Err(vec![
                "tenant fingerprints differ from the offline replay".into()
            ]);
        }
        Ok(rep)
    });
    for rep in reps.iter().chain(&traced) {
        check_counters(&mut report, &tenants, &plan, rep);
    }
    let all = reps.iter().chain(&traced);
    report.attempted = all
        .clone()
        .map(|r| (r.open.len() as u64) + r.closed.lat.len() as u64 + r.refused)
        .sum();
    report.failed = all.map(|r| r.refused).sum();
    if reps.is_empty() {
        return report;
    }
    let fps: Vec<_> = reps
        .iter()
        .chain(&traced)
        .map(|r| r.fingerprints.clone())
        .collect();
    check_repeats(&mut report, "tenant fingerprints", &fps);
    let setup_s = gen_s + median(&reps.iter().map(|r| r.start_open_s).collect::<Vec<_>>());

    if !args.trace {
        // Throughput, p99 and the on-time share are pooled over the
        // repetitions, so that the host's second-to-second drift averages
        // out over the run. Latency is the closed loop's, from submit; the
        // open loop is judged by its on-time share.
        let mut lat: Vec<u64> = reps
            .iter()
            .flat_map(|r| r.closed.lat.iter().copied())
            .collect();
        let open: Vec<&Timeline> = reps.iter().flat_map(|r| &r.open).collect();
        let on_time = open.iter().filter(|t| t.on_time(LIMIT_NS)).count();
        let timings = Timings {
            per_s: throughput(reps.iter()),
            p50_us: mean_p50_us(reps.iter().map(|r| &r.closed.lat)),
            p99_us: percentile(&mut lat, 99.0).unwrap_or(0) as f64 / 1e3,
            setup_s,
        };
        // Not scaled: this workload's run-to-run figures do not follow the
        // reference kernel (scaling widened its throughput spread over ten
        // seeds from 0.10 to 0.13); the host's drift moves it far less.
        common::report_timings(&mut report, None, timings);
        report.metric(
            "ontime_frac",
            on_time as f64 / open.len() as f64,
            "fraction",
        );
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

    // Per-layer metrics of the traced run.
    report.metric("workloads.gen_ms", gen_s * 1e3, "ms");
    report.metric("workloads.build_ms", build_s * 1e3, "ms");
    report.metric(
        "trace.overhead_frac",
        throughput(traced.iter()) / throughput(reps.iter()),
        "fraction",
    );
    report.metric(
        "service.open_ms",
        median(
            &traced
                .iter()
                .map(|r| r.start_open_s * 1e3)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let spans = &tracer.spans;
    match trace::check_batches(spans) {
        Ok(n) => report.check(n == plan.len() * traced.len(), || {
            format!("{n} batch spans traced")
        }),
        Err(e) => report.check(false, || e),
    }
    let mut submit = trace::durations(spans, "service.submit");
    let mut wait = trace::durations(spans, "service.wait");
    report.metric(
        "service.submit_ns",
        percentile(&mut submit, 50.0).unwrap_or(0) as f64,
        "ns",
    );
    report.metric(
        "service.wait_us_p50",
        percentile(&mut wait, 50.0).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    report.metric(
        "service.wait_us_p99",
        percentile(&mut wait, 99.0).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    report.metric(
        "service.refused",
        traced.iter().map(|r| r.refused).sum::<u64>() as f64,
        "count",
    );
    shard_metrics(
        &traced
            .iter()
            .filter_map(|r| r.metrics.clone())
            .collect::<Vec<_>>(),
        &mut report,
    );
    let mut late: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.open.iter().map(Timeline::late))
        .collect();
    report.metric(
        "loadgen.late_p99_us",
        percentile(&mut late, 99.0).unwrap_or(0) as f64 / 1e3,
        "us",
    );

    let mut probe = tracer.fork(8);
    let streams: Vec<(&[LineAddr], usize)> = tenants
        .iter()
        .map(|t| (&t.obs[..], t.spec.params.num_rows))
        .collect();
    let snapshot_ms = common::table_probes(&streams, &tenants, clock, &mut probe, &mut report);
    let checkpoints =
        closed.len() as f64 / ServiceConfig::default().supervision.checkpoint_every as f64;
    let closed_s = median(
        &reps
            .iter()
            .map(|r| r.closed.wall_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    report.metric(
        "table.checkpoint_share",
        checkpoints * snapshot_ms / 1e3 / closed_s,
        "fraction",
    );
    let specs: Vec<_> = [App::Mcf, App::Cg, App::Equake]
        .iter()
        .map(|&a| WorkloadSpec::new(a).seed(args.seed))
        .collect();
    let obs: Vec<Vec<LineAddr>> = tenants.iter().map(|t| t.obs.clone()).collect();
    common::filter_probe(
        &SystemConfig::default(),
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

/// Shard queue-wait and ingest percentiles, merged over repetitions, and
/// the exact counters of one repetition.
pub fn shard_metrics(reports: &[MetricsReport], report: &mut Report) {
    let (mut queue, mut ingest) = (Log2Histogram::new(), Log2Histogram::new());
    for m in reports {
        for s in &m.shards {
            queue.merge(&s.queue_wait_nanos);
            ingest.merge(&s.ingest_nanos);
        }
    }
    report.metric("shard.queue_wait_p50_ns", queue.percentile(50) as f64, "ns");
    report.metric("shard.queue_wait_p99_ns", queue.percentile(99) as f64, "ns");
    report.metric("shard.ingest_p50_ns", ingest.percentile(50) as f64, "ns");
    report.metric("shard.ingest_p99_ns", ingest.percentile(99) as f64, "ns");
    report.note("shard.* percentiles are log2-bucket upper bounds: each is accurate only to a factor of two");
    if let Some(m) = reports.first() {
        let sum =
            |f: fn(&ulmt_service::ShardMetrics) -> u64| m.shards.iter().map(f).sum::<u64>() as f64;
        report.metric("shard.batches", sum(|s| s.batches), "count");
        report.metric("shard.observed", sum(|s| s.observed), "count");
        report.metric("shard.prefetches", sum(|s| s.prefetches), "count");
    }
}
