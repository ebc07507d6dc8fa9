//! Request-scoped tracing for the serving layer.
//!
//! Engine-level tracing ([`crate::trace`], [`crate::causal`]) is
//! *run*-scoped: it explains one MPC execution, but nothing connects an
//! HTTP request to the MPC rounds it caused. This module adds that
//! missing edge. A [`RequestContext`] is minted when a request is
//! admitted into the serving scheduler and travels with the job through
//! its whole life: the queue wait, the ledger's admission gate, the MPC
//! release, and the reply encoding each record one [`Span`] into it.
//! The MPC child span links to the engine run through the causal run id
//! and carries the run's [`CriticalPath`], walked over the flows read off
//! the trace's round records, so "why was this request slow" decomposes
//! all the way down to the straggler party.
//!
//! ## Invariants
//!
//! * The root span's duration is **defined** as the scheduler's measured
//!   `queue_wait + exec`, so the span tree's end-to-end time always
//!   equals the sum of its top-level phases exactly (`assert_eq`-tested
//!   in the serve crate — no epsilon).
//! * The MPC child span's [`CriticalPath::total`] is the causal
//!   critical path of the release's trace, which equals
//!   `RunStats::simulated_time()` exactly on SPMD runs: both are read off
//!   the parties' one tally (see [`crate::causal`]).
//! * Collection is passive: span recording never feeds back into
//!   protocol execution, so results are bit-identical with request
//!   tracing on or off (asserted in the serve crate).
//!
//! ## Determinism
//!
//! The collector keeps every finished request, up to [`RETAIN_CAP`]
//! (past it, `slow_dropped` counts), so its slow-request dump
//! ([`SpanCollector::render_slow_dump`]) is the full request log. It follows
//! the flight-recorder discipline ([`crate::live`]): only deterministic
//! fields — tenant, per-tenant sequence number, request kind, outcome,
//! span-tree structure, protocol counters, per-party round/message
//! counts — ever reach the JSONL. Measured wall durations (span
//! durations, critical-path times, idle/compute splits) stay in memory
//! for the live endpoints and the HTML report, but are *never* written,
//! so two runs of the same seeded workload dump byte-identical files.
//! Request ids are `(tenant, per-tenant seq)` rather than a global
//! counter: per-tenant FIFO makes them deterministic under any worker
//! interleaving, where a global counter would not be.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::causal::CriticalPath;
use crate::export::atomic_write_str;

/// Index of the root `"request"` span in every [`RequestContext`].
pub const ROOT: usize = 0;
/// Index of the `"queue"` child span (scheduler queue wait).
pub const QUEUE: usize = 1;
/// Index of the `"exec"` child span (worker execution).
pub const EXEC: usize = 2;

/// Most finished requests a collector retains; past it, `slow_dropped`
/// counts.
pub const RETAIN_CAP: usize = 4096;
/// Slots in the SLO history ring.
pub const HISTORY_BUCKETS: usize = 64;
/// Width of one SLO history bucket.
pub const BUCKET_WIDTH: Duration = Duration::from_secs(1);

/// One node of a request's span tree.
#[derive(Clone, Debug)]
pub struct Span {
    /// Phase name (`"request"`, `"queue"`, `"exec"`, `"admit"`, `"mpc"`,
    /// `"encode"`).
    pub name: &'static str,
    /// Parent span index within the same tree; `None` for the root.
    pub parent: Option<usize>,
    /// Measured wall duration. In-memory only — never dumped (see the
    /// module docs on determinism).
    pub duration: Duration,
    /// Causal link: the MPC run id (the session seed) this span covers.
    pub run_id: Option<u64>,
    /// Deterministic protocol counters (zero for non-MPC spans).
    pub rounds: u64,
    pub messages: u64,
    pub bytes: u64,
    /// Critical path of the linked run's trace.
    pub critical: Option<CriticalPath>,
}

impl Span {
    fn new(name: &'static str, parent: Option<usize>) -> Span {
        Span {
            name,
            parent,
            duration: Duration::ZERO,
            run_id: None,
            rounds: 0,
            messages: 0,
            bytes: 0,
            critical: None,
        }
    }
}

/// A request's span tree while the request is in flight.
///
/// Minted at admission with three pre-allocated spans ([`ROOT`],
/// [`QUEUE`], [`EXEC`]) whose durations the scheduler fills in; deeper
/// layers append children under [`EXEC`] as the request passes through
/// them.
#[derive(Clone, Debug)]
pub struct RequestContext {
    pub tenant: String,
    /// Per-tenant sequence number (deterministic under per-tenant FIFO).
    pub seq: u64,
    /// `"ingest"` or `"release"`.
    pub kind: &'static str,
    spans: Vec<Span>,
}

impl RequestContext {
    pub fn new(tenant: &str, seq: u64, kind: &'static str) -> RequestContext {
        RequestContext {
            tenant: tenant.to_string(),
            seq,
            kind,
            spans: vec![
                Span::new("request", None),
                Span::new("queue", Some(ROOT)),
                Span::new("exec", Some(ROOT)),
            ],
        }
    }

    /// Append a child span with a measured duration; returns its index.
    pub fn add_child(&mut self, parent: usize, name: &'static str, duration: Duration) -> usize {
        assert!(parent < self.spans.len(), "parent span out of range");
        let mut span = Span::new(name, Some(parent));
        span.duration = duration;
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn set_duration(&mut self, id: usize, duration: Duration) {
        self.spans[id].duration = duration;
    }

    pub fn span_mut(&mut self, id: usize) -> &mut Span {
        &mut self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The root span's duration (the scheduler sets it to its measured
    /// `queue_wait + exec`).
    pub fn end_to_end(&self) -> Duration {
        self.spans[ROOT].duration
    }
}

/// What became of a finished request (deterministic for seeded loads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Executed and replied.
    Ok,
    /// Refused by the privacy budget gate (costs nothing).
    Refused,
    /// The tenant's session is poisoned (party crash).
    Failed,
    /// Any other typed error.
    Error,
}

impl RequestOutcome {
    pub fn as_str(self) -> &'static str {
        match self {
            RequestOutcome::Ok => "ok",
            RequestOutcome::Refused => "refused",
            RequestOutcome::Failed => "failed",
            RequestOutcome::Error => "error",
        }
    }
}

/// A completed request as retained by the collector.
#[derive(Clone, Debug)]
pub struct FinishedRequest {
    pub tenant: String,
    pub seq: u64,
    pub kind: &'static str,
    pub outcome: RequestOutcome,
    pub spans: Vec<Span>,
}

impl FinishedRequest {
    pub fn duration(&self) -> Duration {
        self.spans[ROOT].duration
    }

    /// First span with the given name, if any.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// Request tracing's switch in a server's config. It has no knobs: a
/// collector keeps every finished request up to [`RETAIN_CAP`] and a
/// [`HISTORY_BUCKETS`] × [`BUCKET_WIDTH`] history ring.
#[derive(Clone, Copy, Debug)]
pub struct SpanConfig;

/// One bucket of the SLO history ring.
#[derive(Clone, Copy, Debug, Default)]
pub struct SloBucket {
    /// Absolute bucket number since the collector started.
    pub index: u64,
    pub requests: u64,
    pub releases: u64,
    pub refusals: u64,
    pub failures: u64,
    /// Sum / max of request durations in the bucket, nanoseconds.
    pub total_ns: u64,
    pub max_ns: u64,
}

/// Point-in-time SLO view (feeds `/snapshot` and the HTML report).
#[derive(Clone, Debug, Default)]
pub struct SloSnapshot {
    /// Occupied history buckets in ascending index order.
    pub buckets: Vec<SloBucket>,
    pub bucket_width: Duration,
    pub total_requests: u64,
    pub total_releases: u64,
    pub total_refusals: u64,
    pub total_failures: u64,
    /// Requests currently retained / dropped past [`RETAIN_CAP`].
    pub slow_retained: usize,
    pub slow_dropped: u64,
}

struct CollectorState {
    slow: Vec<FinishedRequest>,
    slow_dropped: u64,
    /// Ring of [`HISTORY_BUCKETS`] slots; a slot is live iff
    /// `requests > 0` and its `index` matches the current wrap.
    buckets: Vec<SloBucket>,
    total_requests: u64,
    total_releases: u64,
    total_refusals: u64,
    total_failures: u64,
}

/// The per-server span collector. Owned by the serving scheduler (not
/// process-global like [`crate::metrics`]), so concurrent servers — and
/// concurrent tests — never share request state.
pub struct SpanCollector {
    started: Instant,
    state: Mutex<CollectorState>,
}

impl Default for SpanCollector {
    fn default() -> Self {
        SpanCollector::new()
    }
}

impl SpanCollector {
    pub fn new() -> SpanCollector {
        SpanCollector {
            started: Instant::now(),
            state: Mutex::new(CollectorState {
                slow: Vec::new(),
                slow_dropped: 0,
                buckets: vec![SloBucket::default(); HISTORY_BUCKETS],
                total_requests: 0,
                total_releases: 0,
                total_refusals: 0,
                total_failures: 0,
            }),
        }
    }

    /// Recover from poisoning like the metrics registry: a worker that
    /// died mid-record costs at most one observation.
    fn lock(&self) -> MutexGuard<'_, CollectorState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Absorb one finished request: SLO history and, below
    /// [`RETAIN_CAP`], retention.
    pub fn finish(&self, ctx: RequestContext, outcome: RequestOutcome) {
        let duration_ns = ctx.end_to_end().as_nanos() as u64;
        let bucket_index = (self.started.elapsed().as_nanos() / BUCKET_WIDTH.as_nanos()) as u64;
        let mut state = self.lock();
        let slot = bucket_index as usize % HISTORY_BUCKETS;
        let bucket = &mut state.buckets[slot];
        if bucket.requests == 0 || bucket.index != bucket_index {
            *bucket = SloBucket {
                index: bucket_index,
                ..SloBucket::default()
            };
        }
        bucket.requests += 1;
        bucket.total_ns += duration_ns;
        bucket.max_ns = bucket.max_ns.max(duration_ns);
        state.total_requests += 1;
        match outcome {
            RequestOutcome::Ok if ctx.kind == "release" => {
                state.buckets[slot].releases += 1;
                state.total_releases += 1;
            }
            RequestOutcome::Ok => {}
            RequestOutcome::Refused => {
                state.buckets[slot].refusals += 1;
                state.total_refusals += 1;
            }
            RequestOutcome::Failed | RequestOutcome::Error => {
                state.buckets[slot].failures += 1;
                state.total_failures += 1;
            }
        }

        if state.slow.len() < RETAIN_CAP {
            let RequestContext {
                tenant,
                seq,
                kind,
                spans,
            } = ctx;
            state.slow.push(FinishedRequest {
                tenant,
                seq,
                kind,
                outcome,
                spans,
            });
        } else {
            state.slow_dropped += 1;
        }
    }

    /// Clones of every retained slow request (tests and exporters).
    pub fn slow_requests(&self) -> Vec<FinishedRequest> {
        self.lock().slow.clone()
    }

    /// Point-in-time SLO view.
    pub fn snapshot(&self) -> SloSnapshot {
        let state = self.lock();
        let mut buckets: Vec<SloBucket> = state
            .buckets
            .iter()
            .filter(|b| b.requests > 0)
            .copied()
            .collect();
        buckets.sort_by_key(|b| b.index);
        SloSnapshot {
            buckets,
            bucket_width: BUCKET_WIDTH,
            total_requests: state.total_requests,
            total_releases: state.total_releases,
            total_refusals: state.total_refusals,
            total_failures: state.total_failures,
            slow_retained: state.slow.len(),
            slow_dropped: state.slow_dropped,
        }
    }

    /// Render the slow-request dump: a meta header line, then one JSONL
    /// line per retained request sorted by `(tenant, seq)`. Only
    /// deterministic fields appear (module docs); byte-identical across
    /// runs of the same seeded workload.
    pub fn render_slow_dump(&self, seed: u64) -> String {
        let state = self.lock();
        let mut retained: Vec<&FinishedRequest> = state.slow.iter().collect();
        retained.sort_by(|a, b| (&a.tenant, a.seq).cmp(&(&b.tenant, b.seq)));
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"slowreq_meta\",\"version\":1,\"seed\":{seed},\"requests\":{}}}\n",
            retained.len(),
        ));
        for req in retained {
            out.push_str(&format!(
                "{{\"type\":\"slowreq\",\"tenant\":\"{}\",\"seq\":{},\"kind\":\"{}\",\
                 \"outcome\":\"{}\",\"spans\":[",
                req.tenant,
                req.seq,
                req.kind,
                req.outcome.as_str(),
            ));
            for (i, span) in req.spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"name\":\"{}\",\"parent\":", span.name));
                match span.parent {
                    Some(p) => out.push_str(&p.to_string()),
                    None => out.push_str("null"),
                }
                if let Some(run_id) = span.run_id {
                    out.push_str(&format!(
                        ",\"run_id\":{run_id},\"rounds\":{},\"messages\":{},\"bytes\":{}",
                        span.rounds, span.messages, span.bytes
                    ));
                }
                if let Some(critical) = &span.critical {
                    out.push_str(",\"critical\":{\"parties\":[");
                    for (k, p) in critical.parties.iter().enumerate() {
                        if k > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!(
                            "{{\"party\":{},\"rounds\":{},\"messages\":{}}}",
                            p.party, p.rounds, p.messages
                        ));
                    }
                    out.push_str("]}");
                }
                out.push('}');
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Write the dump as `<dir>/slowreq_<seed>.jsonl` (atomic: temp file
    /// + rename, like the flight recorder).
    pub fn write_slow_dump(&self, dir: &Path, seed: u64) -> io::Result<PathBuf> {
        let path = dir.join(format!("slowreq_{seed}.jsonl"));
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        atomic_write_str(&path, &self.render_slow_dump(seed))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(tenant: &str, seq: u64, kind: &'static str, total_ms: u64) -> RequestContext {
        let mut c = RequestContext::new(tenant, seq, kind);
        c.set_duration(QUEUE, Duration::from_millis(total_ms / 4));
        c.set_duration(EXEC, Duration::from_millis(total_ms - total_ms / 4));
        c.set_duration(ROOT, Duration::from_millis(total_ms));
        c
    }

    #[test]
    fn context_tree_is_rooted_and_sums() {
        let mut c = ctx("t", 0, "release", 8);
        let admit = c.add_child(EXEC, "admit", Duration::from_millis(1));
        let mpc = c.add_child(EXEC, "mpc", Duration::from_millis(5));
        assert_eq!(c.spans()[admit].parent, Some(EXEC));
        assert_eq!(c.spans()[mpc].parent, Some(EXEC));
        assert_eq!(c.spans()[QUEUE].parent, Some(ROOT));
        assert_eq!(c.spans()[ROOT].parent, None);
        assert_eq!(
            c.end_to_end(),
            c.spans()[QUEUE].duration + c.spans()[EXEC].duration
        );
    }

    #[test]
    fn collector_retains_every_request() {
        let collector = SpanCollector::new();
        collector.finish(ctx("b", 0, "ingest", 1), RequestOutcome::Ok);
        collector.finish(ctx("a", 0, "release", 3), RequestOutcome::Ok);
        collector.finish(ctx("a", 1, "release", 2), RequestOutcome::Refused);
        let snap = collector.snapshot();
        assert_eq!(snap.total_requests, 3);
        assert_eq!(snap.total_releases, 1);
        assert_eq!(snap.total_refusals, 1);
        assert_eq!(snap.slow_retained, 3);
        assert_eq!(snap.bucket_width, BUCKET_WIDTH);
        assert!(!snap.buckets.is_empty());
        assert_eq!(snap.buckets.iter().map(|b| b.requests).sum::<u64>(), 3);
    }

    #[test]
    fn dump_is_sorted_deterministic_and_wall_free() {
        let build = || {
            let collector = SpanCollector::new();
            // Finish out of (tenant, seq) order on purpose.
            collector.finish(ctx("b", 0, "ingest", 7), RequestOutcome::Ok);
            let mut rel = ctx("a", 1, "release", 13);
            let mpc = rel.add_child(EXEC, "mpc", Duration::from_millis(9));
            let span = rel.span_mut(mpc);
            span.run_id = Some(42);
            span.rounds = 5;
            span.messages = 60;
            span.bytes = 480;
            collector.finish(rel, RequestOutcome::Ok);
            collector.finish(ctx("a", 0, "ingest", 11), RequestOutcome::Ok);
            collector.render_slow_dump(42)
        };
        let first = build();
        let second = build();
        assert_eq!(first, second, "dump must be byte-deterministic");
        // Sorted by (tenant, seq): a/0, a/1, b/0.
        let lines: Vec<&str> = first.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"slowreq_meta\""));
        assert!(lines[1].contains("\"tenant\":\"a\"") && lines[1].contains("\"seq\":0"));
        assert!(lines[2].contains("\"tenant\":\"a\"") && lines[2].contains("\"seq\":1"));
        assert!(lines[3].contains("\"tenant\":\"b\""));
        // The MPC span carries its causal link and counters...
        assert!(lines[2].contains("\"run_id\":42"));
        assert!(lines[2].contains("\"messages\":60"));
        // ...and no measured wall time leaks into the dump.
        assert!(!first.contains("wall") && !first.contains("duration"));
        // Every line parses as standalone JSON.
        for line in &lines {
            crate::json::parse(line).expect("dump line must be valid JSON");
        }
    }

    #[test]
    fn retention_cap_counts_drops() {
        let collector = SpanCollector::new();
        let total = RETAIN_CAP as u64 + 3;
        for i in 0..total {
            collector.finish(ctx("t", i, "ingest", 1), RequestOutcome::Ok);
        }
        let snap = collector.snapshot();
        assert_eq!(snap.slow_retained, RETAIN_CAP);
        assert_eq!(snap.slow_dropped, 3);
        assert_eq!(snap.total_requests, total);
        // The first RETAIN_CAP requests are the ones kept.
        let kept = collector.slow_requests();
        assert_eq!(kept.last().map(|r| r.seq), Some(RETAIN_CAP as u64 - 1));
    }
}
