//! Pieces the workloads share: the result report, generated streams,
//! tenants with their offline replays, and the table probes of the
//! traced run.

use std::collections::VecDeque;
use std::time::Instant;

use ulmt_core::algorithm::StepSink;
use ulmt_core::table::{Base, Chain, Replicated, SnapshotError, TableSnapshot};
use ulmt_core::UlmtAlgorithm;
use ulmt_service::{BatchReply, ServiceError, TableKind, TenantSpec};
use ulmt_simcore::LineAddr;
use ulmt_system::{l2_miss_stream_with, SystemConfig};
use ulmt_workloads::WorkloadSpec;

use crate::calib::{self, HostSpeed};
use crate::score::{self, Score};
use crate::stats::{median, peak_rss_mb, reset_peak_rss};
use crate::trace::{Clock, Tracer};
use crate::Args;

/// What one run reports: the correctness verdict, the operation counts
/// and the metrics, in print order.
#[derive(Debug, Default)]
pub struct Report {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

/// The deterministic per-repetition values of a run must repeat exactly.
pub fn check_repeats<T: PartialEq + std::fmt::Debug>(
    report: &mut Report,
    what: &str,
    values: &[T],
) {
    if let Some(first) = values.first() {
        for (i, v) in values.iter().enumerate().skip(1) {
            report.check(v == first, || {
                format!("{what} differs on repetition {i}: {v:?} vs {first:?}")
            });
        }
    }
}

/// Times `f` `trials` times and returns the median seconds and the last
/// result. Each trial's result is dropped before the next trial starts,
/// so no more than one is resident at a time.
pub fn timed_median<T>(trials: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(trials);
    let mut last = None;
    for _ in 0..trials {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("at least one trial"))
}

/// Spans a traced run keeps at most, bounding its memory and trace file.
const SPAN_CAP: usize = 60_000;

/// Runs repetitions on a fresh instance each, until `seconds` have
/// passed and at least three have run. The traced run alternates
/// untraced and traced repetitions, so the tracing overhead is measured
/// against neighbours, and also stops once it holds `SPAN_CAP` spans.
/// Between repetitions it times the reference kernel (`calib`). Returns
/// the untraced and the traced results, the traced spans and the host's
/// speed over the run.
pub fn repetitions<R>(
    args: &Args,
    clock: Clock,
    report: &mut Report,
    mut rep: impl FnMut(&mut Tracer) -> Result<R, Vec<String>>,
) -> (Vec<R>, Vec<R>, Tracer, HostSpeed) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new(true);
    // `peak_rss_mb` covers the repetitions only, not the set-up before them.
    let setup_peak = peak_rss_mb();
    if reset_peak_rss() {
        report.note(format!(
            "peak RSS {setup_peak:.1} MiB during set-up; reset before the first repetition"
        ));
    } else {
        report.note("could not reset the peak RSS: peak_rss_mb includes set-up");
    }
    let mut host = HostSpeed::default();
    let t0 = clock.now();
    for i in 0.. {
        let enough = i >= if args.trace { 6 } else { 3 };
        let done = enough
            && (clock.now() - t0 >= (args.seconds * 1e9) as u64 || tracer.spans.len() >= SPAN_CAP);
        if done {
            break;
        }
        let trace_this = args.trace && i % 2 == 1;
        let r0 = clock.now();
        let result = if trace_this {
            rep(&mut tracer)
        } else {
            rep(&mut Tracer::new(false))
        };
        host.after(clock.now() - r0);
        match result {
            Ok(r) if trace_this => traced.push(r),
            Ok(r) => plain.push(r),
            Err(errs) => {
                report.errors.extend(errs);
                break;
            }
        }
    }
    report.note(format!(
        "{} untraced and {} traced repetitions in {:.1} s",
        plain.len(),
        traced.len(),
        (clock.now() - t0) as f64 / 1e9
    ));
    if args.trace {
        report.metric("host.kernel_ms", host.kernel_ns() / 1e6, "ms");
    }
    (plain, traced, tracer, host)
}

/// A run's time-based end-to-end figures, as measured.
pub struct Timings {
    pub per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub setup_s: f64,
}

/// Reports `t`, scaled to the nominal host (`calib`) when `host` is
/// given. On-time shares are never scaled: their limits are wall-clock
/// deadlines.
pub fn report_timings(report: &mut Report, host: Option<&HostSpeed>, t: Timings) {
    let k = host.map_or(1.0, HostSpeed::to_nominal);
    if let Some(h) = host {
        report.note(format!(
            "host speed: reference kernel {:.2} ms (nominal {:.2} ms); throughput, latency percentiles and set-up time are scaled by {k:.3} to the nominal host",
            h.kernel_ns() / 1e6,
            calib::NOMINAL_NS / 1e6,
        ));
    }
    report.metric("throughput_per_s", t.per_s / k, "1/s");
    report.metric("latency_p50_us", t.p50_us * k, "us");
    report.metric("latency_p99_us", t.p99_us * k, "us");
    report.metric("setup_s", t.setup_s * k, "s");
}

/// Checks a batch reply against the offline replay of the same
/// observations and returns the recycled buffer.
pub fn check_reply(
    tenant: &Tenant,
    slot: Slot,
    reply: Result<BatchReply, ServiceError>,
) -> Result<Vec<LineAddr>, String> {
    let reply = reply.map_err(|e| format!("{}: reply failed: {e}", tenant.name))?;
    if let Some(e) = reply.error {
        return Err(format!("{}: batch rejected: {e}", tenant.name));
    }
    if reply.observed != (slot.hi - slot.lo) as u64 || reply.shed || reply.cancelled {
        return Err(format!(
            "{}: batch at {} not fully observed",
            tenant.name, slot.lo
        ));
    }
    if reply.prefetches != tenant.expected(slot.lo, slot.hi) {
        return Err(format!(
            "{}: predictions at {} differ from the offline replay",
            tenant.name, slot.lo
        ));
    }
    Ok(reply.recycled)
}

/// What a closed-loop driver submits batches to and reaps replies from:
/// in-process sessions or network clients, one per tenant.
pub trait Endpoint {
    /// What a submission leaves to wait on.
    type Handle;
    /// Submits `buf` for tenant `i`; a refusal hands the buffer back.
    fn submit(&mut self, i: usize, buf: Vec<LineAddr>) -> Result<Submitted<Self::Handle>, String>;
    /// Waits for the reply to tenant `i`'s oldest pending batch.
    fn reap(&mut self, i: usize, handle: Self::Handle) -> Result<BatchReply, ServiceError>;
}

/// The outcome of one submission.
pub enum Submitted<H> {
    Taken(H),
    /// Refused (`Full`, `TimedOut` or a NACK), with the caller's buffer.
    Refused(Vec<LineAddr>),
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Per-batch time from first submission to ack, in nanoseconds.
    pub lat: Vec<u64>,
    /// Whether each batch was refused before it was taken.
    pub refused: Vec<bool>,
    /// Refused submissions, each a failed operation.
    pub refusals: u64,
    pub obs: u64,
    pub wall_ns: u64,
}

/// A closed loop: one thread submits `plan` in order, with at most
/// `window` pending batches per tenant, reaping a tenant's oldest
/// pending batch when its window is full. A refused batch is retried
/// once an older batch of its tenant has been reaped. Every reply is
/// checked against the offline replay.
pub struct ClosedLoopPlan<'a> {
    pub tenants: &'a [Tenant],
    pub plan: &'a [Slot],
    /// Observations per batch.
    pub batch: usize,
    pub window: usize,
    /// Span names of the submit and reap calls.
    pub calls: (&'static str, &'static str),
}

impl ClosedLoopPlan<'_> {
    /// Runs the loop against `to`. Batch spans hang off `parent`, and
    /// each is tiled by its submit, pending and reap spans.
    pub fn run<E: Endpoint + ?Sized>(
        &self,
        to: &mut E,
        clock: Clock,
        tracer: &mut Tracer,
        parent: u32,
    ) -> Result<ClosedLoop, String> {
        struct Pending<H> {
            slot: Slot,
            batch: u32,
            span: u32,
            sent: u64,
            submitted: u64,
            refused: bool,
            handle: H,
        }
        let mut out = ClosedLoop::default();
        let mut window: Vec<VecDeque<Pending<E::Handle>>> =
            self.tenants.iter().map(|_| VecDeque::new()).collect();
        let mut pools: Vec<Vec<Vec<LineAddr>>> = self.tenants.iter().map(|_| Vec::new()).collect();
        let reap = |to: &mut E,
                    p: Pending<E::Handle>,
                    pools: &mut [Vec<Vec<LineAddr>>],
                    tracer: &mut Tracer,
                    out: &mut ClosedLoop|
         -> Result<(), String> {
            let i = p.slot.tenant;
            let w0 = clock.now();
            let reply = to.reap(i, p.handle);
            let acked = clock.now();
            pools[i].push(check_reply(&self.tenants[i], p.slot, reply)?);
            if tracer.on() {
                let b = Some(p.batch);
                tracer.span(self.calls.0, p.span, b, p.sent, p.submitted);
                tracer.span("pending", p.span, b, p.submitted, w0);
                tracer.span(self.calls.1, p.span, b, w0, acked);
                tracer.put(p.span, "batch", parent, b, p.sent, acked);
            }
            out.lat.push(acked - p.sent);
            out.refused.push(p.refused);
            out.obs += (p.slot.hi - p.slot.lo) as u64;
            Ok(())
        };
        let start = clock.now();
        for (k, &slot) in self.plan.iter().enumerate() {
            let i = slot.tenant;
            if window[i].len() >= self.window {
                let p = window[i].pop_front().expect("window is full");
                reap(to, p, &mut pools, tracer, &mut out)?;
            }
            let mut buf = pools[i]
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(self.batch));
            buf.extend_from_slice(&self.tenants[i].obs[slot.lo..slot.hi]);
            let span = tracer.reserve();
            let sent = clock.now();
            let mut refused = false;
            let handle = loop {
                let submitted = to
                    .submit(i, buf)
                    .map_err(|e| format!("{}: {e}", self.tenants[i].name))?;
                match submitted {
                    Submitted::Taken(h) => break h,
                    Submitted::Refused(b) => {
                        out.refusals += 1;
                        refused = true;
                        buf = b;
                        match window[i].pop_front() {
                            Some(p) => reap(to, p, &mut pools, tracer, &mut out)?,
                            None => std::thread::yield_now(),
                        }
                    }
                }
            };
            window[i].push_back(Pending {
                slot,
                batch: k as u32,
                span,
                sent,
                submitted: clock.now(),
                refused,
                handle,
            });
        }
        for w in &mut window {
            while let Some(p) = w.pop_front() {
                reap(to, p, &mut pools, tracer, &mut out)?;
            }
        }
        out.wall_ns = clock.now() - start;
        Ok(out)
    }
}

/// The L2 miss stream of `spec` through the caches of `config`.
pub fn miss_stream(config: &SystemConfig, spec: &WorkloadSpec) -> Vec<LineAddr> {
    l2_miss_stream_with(config, spec).collect()
}

/// Generates every stream `trials` times, checks the copies are
/// identical, and returns the streams with the median generation and
/// workload-build times in seconds (each summed over the streams).
pub fn generate(
    config: &SystemConfig,
    specs: &[WorkloadSpec],
    trials: usize,
    report: &mut Report,
) -> (Vec<Vec<LineAddr>>, f64, f64) {
    let (build_s, _) = timed_median(trials, || {
        specs.iter().map(|s| s.build().total_refs()).sum::<usize>()
    });
    let mut copies = Vec::new();
    let (gen_s, streams) = timed_median(trials, || {
        let streams: Vec<Vec<LineAddr>> = specs.iter().map(|s| miss_stream(config, s)).collect();
        copies.push(streams.iter().map(|s| stream_hash(s)).collect::<Vec<u64>>());
        streams
    });
    check_repeats(report, "generated stream", &copies);
    (streams, gen_s, build_s)
}

fn stream_hash(stream: &[LineAddr]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = ulmt_simcore::FxHasher::default();
    stream.hash(&mut h);
    h.finish()
}

/// One algorithm's table, as a tenant or a probe uses it.
pub enum Table {
    Base(Base),
    Chain(Chain),
    Repl(Replicated),
}

impl Table {
    pub fn new(spec: &TenantSpec) -> Self {
        match spec.kind {
            TableKind::Base => Table::Base(Base::new(spec.params)),
            TableKind::Chain => Table::Chain(Chain::new(spec.params)),
            TableKind::Repl => Table::Repl(Replicated::new(spec.params)),
        }
    }

    pub fn algo(&mut self) -> &mut dyn UlmtAlgorithm {
        match self {
            Table::Base(t) => t,
            Table::Chain(t) => t,
            Table::Repl(t) => t,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        match self {
            Table::Base(t) => t.table_fingerprint(),
            Table::Chain(t) => t.table_fingerprint(),
            Table::Repl(t) => t.table_fingerprint(),
        }
    }

    pub fn snapshot(&self) -> TableSnapshot {
        match self {
            Table::Base(t) => t.snapshot(),
            Table::Chain(t) => t.snapshot(),
            Table::Repl(t) => t.snapshot(),
        }
    }

    pub fn restored(&self, snap: &TableSnapshot) -> Result<Table, SnapshotError> {
        Ok(match self {
            Table::Base(_) => Table::Base(Base::from_snapshot(snap)?),
            Table::Chain(_) => Table::Chain(Chain::from_snapshot(snap)?),
            Table::Repl(_) => Table::Repl(Replicated::from_snapshot(snap)?),
        })
    }
}

/// Records each prediction with the index of the observation that
/// emitted it.
#[derive(Default)]
struct PositionSink {
    steps: u32,
    pos: Vec<u32>,
    lines: Vec<LineAddr>,
}

impl StepSink for PositionSink {
    fn begin(&mut self, _miss: LineAddr) {
        self.steps += 1;
    }

    fn prefetch(&mut self, addr: LineAddr) {
        self.pos.push(self.steps - 1);
        self.lines.push(addr);
    }

    fn end(&mut self, _prefetch_insns: u64, _learn_insns: u64) {}
}

/// Counts steps and predictions; the cheapest sink, for timing kernels.
#[derive(Default)]
struct CountSink {
    steps: u64,
    prefetches: u64,
}

impl StepSink for CountSink {
    fn begin(&mut self, _miss: LineAddr) {
        self.steps += 1;
    }

    fn prefetch(&mut self, _addr: LineAddr) {
        self.prefetches += 1;
    }

    fn end(&mut self, _prefetch_insns: u64, _learn_insns: u64) {}
}

/// A service tenant: its table, its whole observation stream, and what
/// an offline replay of that stream through `process_misses` produced.
pub struct Tenant {
    pub id: u32,
    /// `<app>_<algorithm>`, as the per-tenant metrics name it.
    pub name: &'static str,
    pub spec: TenantSpec,
    pub obs: Vec<LineAddr>,
    /// Offline fingerprint after the whole stream.
    pub fingerprint: u64,
    /// Offline predictions, in emission order, with emitting observation.
    pub pred_pos: Vec<u32>,
    pub pred_lines: Vec<LineAddr>,
    pub score: Score,
}

impl Tenant {
    pub fn new(id: u32, name: &'static str, spec: TenantSpec, obs: Vec<LineAddr>) -> Self {
        let mut table = Table::new(&spec);
        let mut sink = PositionSink::default();
        table.algo().process_misses(&obs, &mut sink);
        let score = score::score(&obs, &sink.pos, &sink.lines, score::WINDOW);
        Tenant {
            id,
            name,
            spec,
            fingerprint: table.fingerprint(),
            pred_pos: sink.pos,
            pred_lines: sink.lines,
            score,
            obs,
        }
    }

    /// The predictions the service must return for observations `lo..hi`.
    pub fn expected(&self, lo: usize, hi: usize) -> &[LineAddr] {
        let a = self.pred_pos.partition_point(|&p| (p as usize) < lo);
        let b = self.pred_pos.partition_point(|&p| (p as usize) < hi);
        &self.pred_lines[a..b]
    }
}

/// Accuracy and coverage over all tenants, from the offline replays.
pub fn report_scores(tenants: &[Tenant], report: &mut Report) {
    let mut total = Score::default();
    for t in tenants {
        total.add(t.score);
    }
    report.metric("prefetch_accuracy", total.accuracy(), "fraction");
    report.metric("prefetch_coverage", total.coverage(), "fraction");
}

/// A batch of the feed: tenant index and observation range.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub tenant: usize,
    pub lo: usize,
    pub hi: usize,
}

/// Interleaves the tenants' batches round-robin, one per tenant per
/// round; `batches` picks each tenant's range of batch indices.
pub fn round_robin(
    tenants: &[Tenant],
    batch: usize,
    batches: impl Fn(&Tenant) -> std::ops::Range<usize>,
) -> Vec<Slot> {
    let ranges: Vec<_> = tenants.iter().map(&batches).collect();
    let rounds = ranges.iter().map(ExactSizeIterator::len).max().unwrap_or(0);
    let mut plan = Vec::new();
    for r in 0..rounds {
        for (i, (t, range)) in tenants.iter().zip(&ranges).enumerate() {
            if r < range.len() {
                let lo = (range.start + r) * batch;
                plan.push(Slot {
                    tenant: i,
                    lo,
                    hi: (lo + batch).min(t.obs.len()),
                });
            }
        }
    }
    plan
}

/// Table and codec probes of the traced run, on the workload's own
/// streams and row counts: every algorithm's batch kernel and per-miss
/// path on every stream, and a snapshot, encode, decode and restore of
/// each tenant's table. Returns the summed snapshot milliseconds.
pub fn table_probes(
    streams: &[(&[LineAddr], usize)],
    tenants: &[Tenant],
    clock: Clock,
    tracer: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let probe = tracer.reserve();
    let t0 = clock.now();
    for (alg, make) in [
        ("base", TenantSpec::base as fn(usize) -> TenantSpec),
        ("chain", TenantSpec::chain),
        ("repl", TenantSpec::repl),
    ] {
        let (mut batch_ns, mut miss_ns, mut obs) = (0u64, 0u64, 0u64);
        for &(stream, rows) in streams {
            let spec = make(rows);
            let mut batch_table = Table::new(&spec);
            let mut sink = CountSink::default();
            let a = clock.now();
            batch_table.algo().process_misses(stream, &mut sink);
            let b = clock.now();
            tracer.span("table.process_misses", probe, None, a, b);
            let mut miss_table = Table::new(&spec);
            let mut predicted = 0u64;
            let c = clock.now();
            for &m in stream {
                predicted += miss_table.algo().process_miss(m).prefetches.len() as u64;
            }
            let d = clock.now();
            tracer.span("table.process_miss", probe, None, c, d);
            report.check(
                batch_table.fingerprint() == miss_table.fingerprint()
                    && predicted == sink.prefetches,
                || format!("{alg}: batch kernel and per-miss path disagree at {rows} rows"),
            );
            batch_ns += b - a;
            miss_ns += d - c;
            obs += stream.len() as u64;
        }
        report.metric(
            format!("table.batch_ns_per_obs.{alg}"),
            batch_ns as f64 / obs as f64,
            "ns",
        );
        report.metric(
            format!("table.miss_ns.{alg}"),
            miss_ns as f64 / obs as f64,
            "ns",
        );
    }

    let (mut snapshot_ms, mut restore_ms, mut encode_ms, mut decode_ms) = (0.0, 0.0, 0.0, 0.0);
    for t in tenants {
        let mut table = Table::new(&t.spec);
        table
            .algo()
            .process_misses(&t.obs, &mut CountSink::default());
        let a = clock.now();
        let (snap_s, snap) = timed_median(3, || table.snapshot());
        let (enc_s, bytes) = timed_median(3, || snap.to_bytes());
        let (dec_s, decoded) = timed_median(3, || TableSnapshot::from_bytes(&bytes));
        let (res_s, restored) = timed_median(3, || table.restored(&snap));
        tracer.span("table.snapshot_probe", probe, None, a, clock.now());
        let round_trip = decoded.is_ok_and(|d| d.fingerprint() == snap.fingerprint())
            && restored.is_ok_and(|r| r.fingerprint() == t.fingerprint);
        report.check(round_trip, || {
            format!("{}: snapshot round trip changed the table", t.name)
        });
        report.metric(format!("table.snapshot_ms.{}", t.name), snap_s * 1e3, "ms");
        snapshot_ms += snap_s * 1e3;
        restore_ms += res_s * 1e3;
        encode_ms += enc_s * 1e3;
        decode_ms += dec_s * 1e3;
    }
    if !tenants.is_empty() {
        report.metric("table.restore_ms", restore_ms, "ms");
        report.metric("snapshot.encode_ms", encode_ms, "ms");
        report.metric("snapshot.decode_ms", decode_ms, "ms");
    }
    tracer.put(probe, "probe.tables", 0, None, t0, clock.now());
    snapshot_ms
}

/// Times the cache model alone: `MissStream` over materialised
/// references, in nanoseconds per reference, checking it reproduces
/// the generated miss streams.
pub fn filter_probe(
    config: &SystemConfig,
    specs: &[WorkloadSpec],
    streams: &[Vec<LineAddr>],
    clock: Clock,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let (mut ns, mut refs) = (0u64, 0u64);
    for (spec, stream) in specs.iter().zip(streams) {
        let recs: Vec<_> = spec.build().collect();
        refs += recs.len() as u64;
        let a = clock.now();
        let misses =
            ulmt_system::miss_stream::MissStream::new(recs.into_iter(), config.l1, config.l2)
                .count();
        let b = clock.now();
        tracer.span("cache.miss_stream", 0, None, a, b);
        ns += b - a;
        report.check(misses == stream.len(), || {
            format!("{:?}: cache filter count differs", spec.app)
        });
    }
    report.metric("cache.filter_ns_per_ref", ns as f64 / refs as f64, "ns");
}

/// Times `encode_lines_into` plus `decode_lines_into` over the streams in
/// `batch`-observation frames, in nanoseconds per observation.
pub fn codec_probe(
    streams: &[&[LineAddr]],
    batch: usize,
    clock: Clock,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    use ulmt_workloads::codec::{decode_lines_into, encode_lines_into};
    let (mut bytes, mut back) = (Vec::new(), Vec::new());
    let mut per_obs = Vec::new();
    for _ in 0..3 {
        let (mut ns, mut obs) = (0u64, 0u64);
        for s in streams {
            let a = clock.now();
            for chunk in s.chunks(batch) {
                bytes.clear();
                back.clear();
                encode_lines_into(chunk, &mut bytes);
                let ok = decode_lines_into(&bytes, &mut back).is_ok() && back == chunk;
                if !ok {
                    report.check(false, || "line codec round trip failed".into());
                    return;
                }
            }
            let b = clock.now();
            tracer.span("net.codec", 0, None, a, b);
            ns += b - a;
            obs += s.len() as u64;
        }
        per_obs.push(ns as f64 / obs as f64);
    }
    report.metric("net.codec_ns_per_obs", median(&per_obs), "ns");
}
