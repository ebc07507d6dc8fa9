//! Observability for SQM: tracing, metrics, and a privacy ledger.
//!
//! The simulation accounts for rounds, bytes and virtual-clock time
//! ([`round::RunStats`]) and the accounting crate for RDP spend
//! (`sqm_accounting::budget`), but accounting alone answers "how much" —
//! not "where", "when", or "under what privacy claim". This crate holds
//! that accounting's one tally and adds the missing views:
//!
//! * [`round`] — the spine: one [`round::RoundEvent`] per party per
//!   exchange. A party's observer records it in the party's one tally
//!   ([`round::PartyStats`], merged into the run's [`round::RunStats`] when
//!   the run finishes) and fans it out to the trace, live telemetry, cost
//!   profiler and metrics below — why those views agree.
//! * [`trace`] — structured span/round records keyed to the **simulated
//!   clock**. Each party's [`trace::PartyRecorder`] keeps detail records
//!   only and takes each phase visit's totals from the party's tally, which
//!   its [`trace::PartyTrace`] carries, so a [`trace::Trace`]'s merged
//!   stats *are* the run's `RunStats`.
//! * [`metrics`] — a process-wide registry of counters, gauges and
//!   histograms (messages per round, bytes per party, degree-reduction batch
//!   sizes, eigensolver sweeps, ...). Disabled by default; every recording
//!   call is a single relaxed atomic load when disabled.
//! * [`ledger`] — a privacy ledger: one entry per DP release carrying
//!   `(gamma, mu, sensitivity)` and the **server-observed** and
//!   **client-observed** epsilons (paper Eqs. 3-4, Lemma 1), plus the
//!   running RDP composition of everything released so far (the entries
//!   themselves are kept only for the most recent releases). It is a
//!   session's one privacy book: it also prices each release and gates it
//!   against the budget, and its server-side spend is a
//!   `sqm_accounting::budget::PrivacyOdometer`.
//! * [`causal`] — cross-party causal analysis of a traced run: each
//!   exchange is one round record, and [`causal::flows`] reads the
//!   send→recv flow graph off the senders' `dests`, from which
//!   [`causal::critical_path`] walks the latency-weighted critical path
//!   with a per-party idle/compute breakdown. On SPMD runs the
//!   critical-path total equals `RunStats::simulated_time()` exactly: both
//!   are read off the same per-party tallies.
//! * [`export`] — JSONL event logs, Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`, timestamps on the simulated timeline,
//!   flow arrows from the round records' `dests`), and a self-contained HTML run
//!   report. File-writing goes through [`export::atomic_write`]
//!   (temp file + rename), so interrupted runs never leave truncated
//!   artifacts.
//! * [`httpd`] — the minimal std-only HTTP/1.1 listener shared by every
//!   in-process endpoint (`live`'s `/metrics`+`/snapshot` and the
//!   `sqm-serve` protocol), with graceful shutdown/drain.
//! * [`json`] — a small recursive-descent JSON reader (the offline `serde`
//!   stand-in only writes), used by the `benchmark/` harness to read its
//!   spec and results back and by HTTP endpoints to parse request bodies.
//! * [`span`] — request-scoped tracing for the serving layer: a
//!   [`span::RequestContext`] minted at admission carries a span tree
//!   (queue wait, budget admit, MPC, encode) through the scheduler, and
//!   the MPC child span links to the causal run id so the message DAG's
//!   critical path attaches as its self-time breakdown. A per-server
//!   [`span::SpanCollector`] keeps a time-bucketed SLO history ring and
//!   every finished request up to a constant cap; its
//!   `slowreq_<seed>.jsonl` dump is byte-deterministic (flight-recorder
//!   discipline: counters and structure only, never measured wall time).
//!   [`span::SpanConfig`] is the switch alone: it has no knobs.
//! * [`prof`] — a deterministic hierarchical cost profiler: a
//!   [`prof::Profiler`] handle the embedder creates and attaches to runs;
//!   `;`-separated collapsed-stack paths attribute engine cost to circuit
//!   layers, gate kinds, degree reductions, bulk field ops and sampler
//!   draws; and the exporters (folded format, deterministic
//!   `prof_<seed>.json`, self-contained SVG flamegraph) never carry wall
//!   time, so same-seed runs dump byte-identical artifacts.
//! * [`live`] — streaming telemetry for runs *in flight*: a
//!   [`live::Collector`] handle the embedder creates and attaches to runs,
//!   into which every observed round is folded under one lock — rolling
//!   per-party / per-phase counters and latency quantiles, a stall
//!   watchdog emitting typed [`live::StallEvent`]s, a crash flight recorder
//!   dumping `results/flightrec_<seed>.jsonl` on failure — and a std-only
//!   HTTP endpoint serving Prometheus text at `/metrics` and JSON at
//!   `/snapshot`.
//!
//! Everything here is *passive*: recording is driven by the `mpc`/`vfl`
//! layers from what a run's config attaches (`trace: bool`, a collector, a
//! profiler), and the experiment binaries gate exports behind `--trace` /
//! `SQM_TRACE=1`. Only [`metrics`] is process-wide, by decision.
#![forbid(unsafe_code)]

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

pub use causal::{critical_path, flows, CriticalPath, FlowEdge, PartyBreakdown, PathSegment};
pub use export::{
    atomic_write, atomic_write_str, chrome_trace_json, flamegraph_html, html_report,
    write_chrome_trace, write_jsonl, write_ledger_jsonl,
};
pub use ledger::{LedgerEntry, LedgerReport, PrivacyLedger};
pub use live::{LiveConfig, LiveSnapshot, StallEvent};
pub use prof::{ProfConfig, ProfSnapshot};
pub use round::{PartyStats, PhaseStats, RunStats};
pub use span::{
    FinishedRequest, RequestContext, RequestOutcome, SloBucket, SloSnapshot, Span, SpanCollector,
    SpanConfig,
};
pub use trace::{NetEvent, PartyRecorder, PartyTrace, RoundRecord, SpanRecord, Trace};
