//! Observability for SQM: tracing, metrics, and a privacy ledger.
//!
//! The simulation layer already *accounts* (rounds, bytes, virtual-clock
//! time in `sqm_mpc::RunStats`; RDP spend in `sqm_accounting::budget`), but
//! accounting alone answers "how much" — not "where", "when", or "under
//! what privacy claim". This crate adds the missing views:
//!
//! * [`round`] — the spine: one [`round::RoundEvent`] per party per
//!   exchange, fanned out by observers the *run* owns to the trace, live
//!   telemetry, cost profiler and metrics below — why those views agree.
//! * [`trace`] — structured span/round records keyed to the **simulated
//!   clock**. Each MPC party thread owns a lock-free [`trace::PartyRecorder`]
//!   fed from the same code paths (and the *same* `Instant` measurements) as
//!   the engine's `PartyStats`, so a merged [`trace::Trace`] reproduces
//!   `RunStats::simulated_time()` exactly — see [`trace::TraceSummary`].
//! * [`metrics`] — a process-wide registry of counters, gauges and
//!   histograms (messages per round, bytes per party, degree-reduction batch
//!   sizes, eigensolver sweeps, ...). Disabled by default; every recording
//!   call is a single relaxed atomic load when disabled.
//! * [`ledger`] — a privacy ledger: one entry per DP release carrying
//!   `(gamma, mu, sensitivity)` and the **server-observed** and
//!   **client-observed** epsilons (paper Eqs. 3-4, Lemma 1), plus the
//!   running RDP composition of everything released so far. The composed
//!   totals agree with `sqm_accounting::budget::PrivacyOdometer` fed the
//!   same curves.
//! * [`causal`] — cross-party causal analysis of a traced run: every
//!   message carries a compact trace context (run id, party, round,
//!   per-link sequence number, Lamport clock), from which
//!   [`causal::MessageDag`] reconstructs the full send→recv flow graph,
//!   validates it (Lamport monotonicity, one matching receive per send),
//!   and computes the latency-weighted critical path with a per-party
//!   idle/compute breakdown. On the in-process backend the critical-path
//!   total equals `RunStats::simulated_time()` exactly.
//! * [`export`] — JSONL event logs, Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`, timestamps on the simulated timeline,
//!   flow arrows from the causal stamps), and a human-readable per-phase
//!   summary table. File-writing goes through [`export::atomic_write`]
//!   (temp file + rename), so interrupted runs never leave truncated
//!   artifacts.
//! * [`httpd`] — the minimal std-only HTTP/1.1 listener shared by every
//!   in-process endpoint (`live`'s `/metrics`+`/snapshot` and the
//!   `sqm-serve` protocol), with graceful shutdown/drain.
//! * [`json`] — a small recursive-descent JSON reader (the offline `serde`
//!   stand-in only writes), used by the bench gate to read artifacts back
//!   and by HTTP endpoints to parse request bodies.
//! * [`span`] — request-scoped tracing for the serving layer: a
//!   [`span::RequestContext`] minted at admission carries a span tree
//!   (queue wait, odometer admit, MPC, encode) through the scheduler, and
//!   the MPC child span links to the causal run id so the message DAG's
//!   critical path attaches as its self-time breakdown. A per-server
//!   [`span::SpanCollector`] keeps a time-bucketed SLO history ring and a
//!   slow-request recorder whose `slowreq_<seed>.jsonl` dump is
//!   byte-deterministic (flight-recorder discipline: counters and
//!   structure only, never measured wall time).
//! * [`prof`] — a deterministic hierarchical cost profiler: a
//!   [`prof::Profiler`] handle the embedder creates and attaches to runs;
//!   `;`-separated collapsed-stack paths attribute engine cost to circuit
//!   layers, gate kinds, degree reductions, bulk field ops and sampler
//!   draws; and the exporters (folded format, deterministic
//!   `prof_<seed>.json`, self-contained SVG flamegraph) never carry wall
//!   time, so same-seed runs dump byte-identical artifacts.
//! * [`live`] — streaming telemetry for runs *in flight*: a
//!   [`live::Collector`] handle the embedder creates and attaches to runs,
//!   holding a bounded lock-free event ring every observed round is
//!   published into, a background aggregator with rolling per-party /
//!   per-phase counters and latency quantiles, a stall watchdog emitting
//!   typed [`live::StallEvent`]s, a crash flight recorder dumping
//!   `results/flightrec_<seed>.jsonl` on failure, and a std-only HTTP
//!   endpoint serving Prometheus text at `/metrics` and JSON at
//!   `/snapshot`.
//!
//! Everything here is *passive*: recording is driven by the `mpc`/`vfl`
//! layers from what a run's config attaches (`trace: bool`, a collector, a
//! profiler), and the experiment binaries gate exports behind `--trace` /
//! `SQM_TRACE=1`. Only [`metrics`] is process-wide, by decision.

pub mod causal;
pub mod export;
pub mod httpd;
pub mod json;
pub mod ledger;
pub mod live;
pub mod metrics;
pub mod prof;
pub mod round;
pub mod span;
pub mod trace;

pub use causal::{CriticalPath, FlowEdge, MessageDag, PartyBreakdown, PathSegment};
pub use export::{
    atomic_write, atomic_write_str, chrome_trace_json, flamegraph_html, html_report,
    write_chrome_trace, write_jsonl, write_ledger_jsonl,
};
pub use ledger::{LedgerEntry, LedgerReport, PrivacyLedger};
pub use live::{LiveConfig, LiveEvent, LiveSnapshot, StallEvent};
pub use prof::{ProfConfig, ProfSnapshot};
pub use span::{
    CriticalSummary, FinishedRequest, PartyCost, RequestContext, RequestOutcome, SloBucket,
    SloSnapshot, Span, SpanCollector, SpanConfig,
};
pub use trace::{
    CausalRound, MsgStamp, NetEvent, PartyRecorder, PartyTrace, PhaseTotal, RoundRecord,
    SpanRecord, Trace, TraceSummary,
};
