//! In-memory spans around the calls the benchmark makes into each layer,
//! written out at the end of a run as Chrome `trace_event` JSON (opens
//! in Perfetto).
//!
//! Spans nest as repetition → phase → batch → submit / pending / wait
//! (or `net.submit` / `pending` / `net.reap`); simulator runs and table
//! replays hang off their repetition or probe span. A batch span is
//! tiled exactly by its children: the time the batch spent in the
//! client's call into the layer plus the time it sat pending while the
//! client served other batches.

use std::fmt::Write as _;
use std::time::Instant;

/// Nanoseconds since a shared epoch; every thread of a run stamps with
/// the same clock, so spans and latencies line up.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// The batch this span belongs to, if any.
    pub batch: Option<u32>,
    pub tid: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Span names drawn as async slices: they overlap other batches' spans
/// on the same thread, so they cannot nest as complete events.
const ASYNC: [&str; 3] = ["batch", "pending", "loadgen.late"];

/// One thread's span recorder. A disabled recorder returns id 0 and
/// stores nothing, so the untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    tid: u32,
    next: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            tid: 0,
            next: 1,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread; ids stay unique across threads.
    pub fn fork(&self, tid: u32) -> Self {
        Tracer {
            on: self.on,
            tid,
            next: (tid << 24) | 1,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// An id for a span whose end is not known yet, so its children can
    /// name it as their parent before it is recorded with [`Tracer::put`].
    pub fn reserve(&mut self) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        id
    }

    pub fn put(
        &mut self,
        id: u32,
        name: &'static str,
        parent: u32,
        batch: Option<u32>,
        start: u64,
        end: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                name,
                start,
                end,
                batch,
                tid: self.tid,
            });
        }
    }

    pub fn span(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: Option<u32>,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = self.reserve();
        self.put(id, name, parent, batch, start, end);
        id
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// Checks that every batch span is tiled by its children: they start at
/// the batch's start, follow one another without gap or overlap, and end
/// at its end. Returns the number of batches checked.
pub fn check_batches(spans: &[Span]) -> Result<usize, String> {
    let mut children: std::collections::HashMap<u32, Vec<&Span>> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut checked = 0;
    for b in spans.iter().filter(|s| s.name == "batch") {
        let mut kids = children.remove(&b.id).unwrap_or_default();
        kids.sort_by_key(|s| s.start);
        let mut at = b.start;
        for k in &kids {
            if k.start != at {
                return Err(format!(
                    "batch {:?}: child {} starts at {} not {at}",
                    b.batch, k.name, k.start
                ));
            }
            at = k.end;
        }
        if kids.len() < 2 || at != b.end {
            return Err(format!(
                "batch {:?}: children do not reach its end",
                b.batch
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Renders `spans` as Chrome `trace_event` JSON.
pub fn chrome_json(spans: &[Span], meta: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":");
    out.push_str(meta);
    out.push_str(",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };
    for s in spans {
        let batch = s.batch.map_or(-1, i64::from);
        let args = format!(
            "{{\"id\":{},\"parent\":{},\"batch\":{batch}}}",
            s.id, s.parent
        );
        let ts = s.start as f64 / 1e3;
        if ASYNC.contains(&s.name) {
            // Async slices of one batch share its id, so they nest on one track.
            let key = s.batch.unwrap_or(s.id);
            for (ph, at) in [("b", ts), ("e", s.end as f64 / 1e3)] {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"batch\",\"ph\":\"{ph}\",\"id\":\"{key:#x}\",\"ts\":{at:.3},\"pid\":1,\"tid\":{},\"args\":{args}}}",
                    s.name, s.tid
                );
            }
        } else {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{args}}}",
                s.name,
                s.dur() as f64 / 1e3,
                s.tid
            );
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_batches_pass_and_gaps_fail() {
        let mut t = Tracer::new(true);
        let b = t.reserve();
        t.span("service.submit", b, Some(0), 10, 12);
        t.span("pending", b, Some(0), 12, 20);
        t.span("service.wait", b, Some(0), 20, 25);
        t.put(b, "batch", 0, Some(0), 10, 25);
        assert_eq!(check_batches(&t.spans), Ok(1));
        t.spans[1].end = 19;
        assert!(check_batches(&t.spans).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, None, 1, 2), 0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn chrome_json_is_one_event_per_complete_span_and_two_per_async() {
        let mut t = Tracer::new(true);
        let b = t.reserve();
        t.span("service.submit", b, Some(3), 0, 1000);
        t.put(b, "batch", 0, Some(3), 0, 2000);
        let json = chrome_json(&t.spans, "{}");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 1);
    }
}
