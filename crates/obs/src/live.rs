//! Streaming telemetry for in-flight runs: every round folded into per-run
//! aggregates under one lock, a stall watchdog, an HTTP `/metrics` +
//! `/snapshot` endpoint, and a crash flight recorder.
//!
//! Every observability surface in this crate so far is post-hoc: traces,
//! ledgers and causal DAGs exist only after `try_run` returns. This module
//! makes a run visible *while it executes*:
//!
//! * **Fold** — the run's observer ([`crate::round`]) folds each party's
//!   [`RoundEvent`] — its per-link walls, its injected faults, the round —
//!   into per-party / per-phase / per-link counters and round-wall
//!   quantiles over a bounded window, at the call, under one mutex. A
//!   release is 2 rounds × P parties: there is no queue to fill and no
//!   thread to drain one, so the live view holds exactly the trace's rounds.
//! * **Stall watchdog** — flags rounds slower than an adaptive threshold
//!   (a multiple of the rolling round-wall median). A slow *link* slows the
//!   sender and every receiver alike, so the culprit is the party with the
//!   largest deterministic `net::fault` cost injected at that round. The
//!   heartbeat check (a party silent far longer than the threshold) runs on
//!   every snapshot or scrape and at the end of the run, so a wedged party
//!   shows on a `/metrics` fetched mid-stall. Findings are [`StallEvent`]s.
//! * **Flight recorder** — the last [`FLIGHT_CAP`] records per party; a failed
//!   run (transport error or party-thread panic) dumps them atomically to
//!   `results/flightrec_<seed>.jsonl`. Only deterministic fields are kept,
//!   never wall time, so a seeded failure dumps byte-reproducibly.
//! * **HTTP endpoint** — Prometheus text at `/metrics` (the live families,
//!   then the [`crate::metrics`] registry, keys sorted) and a JSON
//!   [`LiveSnapshot`] at `/snapshot`, on the shared [`crate::httpd`]
//!   listener.
//!
//! A [`Collector`] is a value: the embedder creates one from a
//! [`LiveConfig`] and hands the `Arc` to the runs it wants to watch
//! (`MpcConfig::with_live`); a run whose config carries none folds nothing.
//! Its endpoint ends with the last handle. A collector aggregates one run
//! at a time — the most recent [`Collector::begin_run`]; runs that must not
//! mix take a collector each. Nothing here touches `RunStats` or the trace:
//! accounting is bit-identical with live telemetry on or off.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::export::atomic_write_str;
use crate::httpd::{HttpRequest, HttpResponse, HttpServer};
use crate::metrics::{self, MetricsSnapshot};
use crate::round::RoundEvent;

/// Records retained per party in the flight recorder.
pub const FLIGHT_CAP: usize = 64;
/// Rolling window length (round-wall samples) for quantiles and the
/// adaptive stall threshold.
const WINDOW: usize = 256;
/// Adaptive stall threshold = `STALL_FACTOR` × rolling round-wall median,
/// but never below `STALL_MIN`, so µs-scale in-process rounds don't flag
/// each other over scheduler noise.
const STALL_FACTOR: f64 = 8.0;
const STALL_MIN: Duration = Duration::from_millis(25);

/// Configuration of one [`Collector`], which owns it for its whole life.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// HTTP bind address for `/metrics` + `/snapshot` (e.g.
    /// `"127.0.0.1:9184"`, port `0` for ephemeral). `None` aggregates
    /// without serving.
    pub addr: Option<String>,
    /// Directory flight-recorder dumps land in.
    pub flight_dir: PathBuf,
    /// Fixed stall threshold overriding the adaptive rule — used by tests
    /// that derive the expected flag set from the fault schedule.
    pub stall_threshold: Option<Duration>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            addr: None,
            flight_dir: PathBuf::from("results"),
            stall_threshold: None,
        }
    }
}

impl LiveConfig {
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = Some(addr.into());
        self
    }

    pub fn with_flight_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dir = dir.into();
        self
    }

    pub fn with_stall_threshold(mut self, threshold: Duration) -> Self {
        self.stall_threshold = Some(threshold);
        self
    }
}

/// A typed watchdog finding: `party` made no acceptable progress at
/// `round` for `stalled_for`.
#[derive(Clone, Debug, Serialize)]
pub struct StallEvent {
    pub party: usize,
    pub round: u64,
    /// How long the stall lasted (injected link cost for attributed slow
    /// rounds, observed wall otherwise). Wall-clock derived — excluded from
    /// deterministic flight-recorder dumps.
    pub stalled_for: Duration,
    /// `"slow_round"` (threshold exceeded), `"heartbeat"` (no progress
    /// at all), or `"crash"` (synthesized from a transport error).
    pub kind: String,
}

/// Round-wall quantiles over the rolling window, in nanoseconds.
#[derive(Clone, Debug, Default, Serialize)]
pub struct QuantileSummary {
    pub count: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

fn quantiles(window: &VecDeque<u64>) -> QuantileSummary {
    if window.is_empty() {
        return QuantileSummary::default();
    }
    let mut sorted: Vec<u64> = window.iter().copied().collect();
    sorted.sort_unstable();
    let q = |p: f64| sorted[crate::metrics::nearest_rank_index(sorted.len(), p)];
    QuantileSummary {
        count: sorted.len() as u64,
        p50_ns: q(0.50),
        p90_ns: q(0.90),
        p99_ns: q(0.99),
        max_ns: *sorted.last().unwrap(),
    }
}

/// Per-party live aggregates.
#[derive(Clone, Debug, Serialize)]
pub struct PartyLive {
    pub party: usize,
    pub rounds: u64,
    pub messages: u64,
    pub bytes: u64,
    pub last_round: u64,
    pub round_wall: QuantileSummary,
    pub seconds_since_progress: f64,
}

/// Per-phase rolling counters.
#[derive(Clone, Debug, Default, Serialize)]
pub struct PhaseCounters {
    pub rounds: u64,
    pub messages: u64,
    pub bytes: u64,
}

/// Per-directed-link transfer aggregates (TCP backend only).
#[derive(Clone, Debug, Default, Serialize)]
pub struct LinkLive {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// Metadata for the run currently (or most recently) bracketed by
/// [`Collector::begin_run`].
#[derive(Clone, Debug, Serialize)]
pub struct RunLive {
    pub seed: u64,
    pub n_parties: usize,
    pub in_progress: bool,
    pub error: Option<String>,
    pub pending_slow_rounds: u64,
}

/// Point-in-time JSON view served at `/snapshot`.
#[derive(Clone, Debug, Default, Serialize)]
pub struct LiveSnapshot {
    pub runs_started: u64,
    pub runs_failed: u64,
    pub stalls_total: u64,
    /// Flight-recorder records folded, over every run of this collector:
    /// one per party round, two per link wall, one per injected fault.
    pub events_published: u64,
    pub run: Option<RunLive>,
    pub parties: Vec<PartyLive>,
    pub phases: BTreeMap<String, PhaseCounters>,
    /// Keyed `"from->to"`.
    pub links: BTreeMap<String, LinkLive>,
    pub stalls: Vec<StallEvent>,
    pub metrics: MetricsSnapshot,
}

/// One flight-recorder record: the deterministic part of a folded round,
/// injected fault or link transfer. Each starts with its round.
#[derive(Debug)]
enum FlightRecord {
    /// Round, phase, messages, bytes.
    Round(u64, String, u64, u64),
    /// Round, `"delay"` or `"retransmit"`, peer, and the seconds slept at
    /// the sender or the attempts dropped.
    Fault(u64, &'static str, usize, f64),
    /// Round, `"send"` to or `"recv"` from, peer: one TCP frame batch.
    Link(u64, &'static str, usize),
}

struct PartyAgg {
    rounds: u64,
    messages: u64,
    bytes: u64,
    last_round: u64,
    last_seen: Instant,
    window: VecDeque<u64>,
}

struct RunAgg {
    seed: u64,
    n_parties: usize,
    in_progress: bool,
    error: Option<String>,
    settings: LiveConfig,
    parties: Vec<PartyAgg>,
    phases: BTreeMap<String, PhaseCounters>,
    window: VecDeque<u64>,
    /// round → (party with the largest injected fault cost, that cost in
    /// seconds-equivalent units). Deterministic: fault schedules are pure
    /// functions of (seed, from, to, round).
    culprits: BTreeMap<u64, (usize, f64)>,
    /// Parties that have folded a round per round index; a pending slow
    /// round resolves once every party folded it (every fault of the round
    /// has then been folded too).
    round_reports: BTreeMap<u64, usize>,
    pending_slow: Vec<(usize, u64, u64)>,
    stalls: Vec<StallEvent>,
    stall_keys: BTreeSet<(usize, u64)>,
    flight: Vec<VecDeque<FlightRecord>>,
    links: BTreeMap<(usize, usize), LinkLive>,
}

impl RunAgg {
    fn new(settings: LiveConfig, n_parties: usize, seed: u64) -> Self {
        let now = Instant::now();
        RunAgg {
            seed,
            n_parties,
            in_progress: true,
            error: None,
            parties: (0..n_parties)
                .map(|_| PartyAgg {
                    rounds: 0,
                    messages: 0,
                    bytes: 0,
                    last_round: 0,
                    last_seen: now,
                    window: VecDeque::new(),
                })
                .collect(),
            phases: BTreeMap::new(),
            window: VecDeque::new(),
            culprits: BTreeMap::new(),
            round_reports: BTreeMap::new(),
            pending_slow: Vec::new(),
            stalls: Vec::new(),
            stall_keys: BTreeSet::new(),
            flight: (0..n_parties).map(|_| VecDeque::new()).collect(),
            links: BTreeMap::new(),
            settings,
        }
    }

    /// Current stall threshold in nanoseconds: the fixed override, or
    /// `STALL_FACTOR` × rolling median once the window has warmed up.
    fn threshold_ns(&self) -> Option<u64> {
        if let Some(t) = self.settings.stall_threshold {
            return Some(t.as_nanos() as u64);
        }
        const WARMUP: usize = 8;
        if self.window.len() < WARMUP {
            return None;
        }
        let mut sorted: Vec<u64> = self.window.iter().copied().collect();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let adaptive = (median as f64 * STALL_FACTOR) as u64;
        Some(adaptive.max(STALL_MIN.as_nanos() as u64))
    }

    /// Record a stall unless `(party, round)` already has one; 1 if new.
    fn record_stall(&mut self, party: usize, round: u64, gap: Duration, kind: &str) -> u64 {
        if !self.stall_keys.insert((party, round)) {
            return 0;
        }
        self.stalls.push(StallEvent {
            party,
            round,
            stalled_for: gap,
            kind: kind.to_string(),
        });
        1
    }

    /// Resolve pending slow rounds whose fault attribution is complete:
    /// every party has folded `round` (or `force`, at end of run). All
    /// slow reports for one round collapse onto the single culprit.
    fn resolve_pending(&mut self, force: bool) -> u64 {
        let mut emitted = 0;
        let mut keep = Vec::new();
        for (reporter, round, wall_ns) in std::mem::take(&mut self.pending_slow) {
            let complete = self.round_reports.get(&round).copied().unwrap_or(0) >= self.n_parties;
            if !complete && !force {
                keep.push((reporter, round, wall_ns));
                continue;
            }
            let (party, stalled_for) = match self.culprits.get(&round) {
                Some(&(culprit, secs)) => (culprit, Duration::from_secs_f64(secs.max(0.0))),
                None => (reporter, Duration::from_nanos(wall_ns)),
            };
            emitted += self.record_stall(party, round, stalled_for, "slow_round");
        }
        self.pending_slow = keep;
        emitted
    }

    /// Fold one party's round: a send and a receive record per peer, the
    /// injected faults, then the round — the order the flight recorder
    /// keeps them in. Returns `(records folded, stalls flagged)`.
    fn fold(&mut self, event: &RoundEvent<'_>) -> (u64, u64) {
        let (party, round, n) = (event.party, event.round, self.n_parties);
        if party >= n {
            return (0, 0);
        }
        let mut folded = 1;
        for l in &event.link_walls {
            let link = self.links.entry((party, l.peer)).or_default();
            for (kind, wall) in [("send", l.send), ("recv", l.recv)] {
                let ns = wall.as_nanos() as u64;
                link.count += 1;
                link.total_ns += ns;
                link.max_ns = link.max_ns.max(ns);
                let record = FlightRecord::Link(round, kind, l.peer);
                push_window(&mut self.flight[party], record, FLIGHT_CAP);
                folded += 1;
            }
        }
        for f in event.net_events.iter().filter(|f| f.party < n) {
            // Rank a retransmit cycle by its dropped-attempt count; in runs
            // mixing delays and drops the largest injected seconds-scale
            // delay still dominates attribution.
            let (kind, cost) = match f.kind.as_str() {
                "delay" => ("delay", f.value),
                "retransmit" => ("retransmit", f.value * 1e-3),
                _ => continue,
            };
            let culprit = self.culprits.entry(f.round).or_insert((f.party, cost));
            if cost > culprit.1 {
                *culprit = (f.party, cost);
            }
            let record = FlightRecord::Fault(f.round, kind, f.peer, f.value);
            push_window(&mut self.flight[f.party], record, FLIGHT_CAP);
            folded += 1;
        }
        let (messages, bytes) = (event.messages, event.bytes);
        let wall_ns = event.wall.as_nanos() as u64;
        let record = FlightRecord::Round(round, event.phase.to_string(), messages, bytes);
        push_window(&mut self.flight[party], record, FLIGHT_CAP);
        let p = &mut self.parties[party];
        p.rounds += 1;
        p.messages += messages;
        p.bytes += bytes;
        p.last_round = p.last_round.max(round);
        p.last_seen = Instant::now();
        push_window(&mut p.window, wall_ns, WINDOW);
        push_window(&mut self.window, wall_ns, WINDOW);
        let phase = self.phases.entry(event.phase.to_string()).or_default();
        phase.rounds += 1;
        phase.messages += messages;
        phase.bytes += bytes;
        *self.round_reports.entry(round).or_insert(0) += 1;
        if self.threshold_ns().is_some_and(|t| wall_ns > t) {
            self.pending_slow.push((party, round, wall_ns));
        }
        (folded, self.resolve_pending(false))
    }

    /// Heartbeat check: a party silent for much longer than the stall
    /// threshold while the run is in progress is flagged even before its
    /// round completes — this is what makes a wedged party visible on
    /// `/metrics` *during* the stall.
    fn heartbeat_check(&mut self) -> u64 {
        if !self.in_progress {
            return 0;
        }
        let threshold = self.threshold_ns().unwrap_or(0);
        let timeout = Duration::from_nanos((threshold.saturating_mul(8)).max(1_000_000_000));
        let mut silent = Vec::new();
        for (party, p) in self.parties.iter().enumerate() {
            let gap = p.last_seen.elapsed();
            if gap > timeout {
                silent.push((party, p.last_round + 1, gap));
            }
        }
        let flag = |(party, round, gap)| self.record_stall(party, round, gap, "heartbeat");
        silent.into_iter().map(flag).sum()
    }
}

/// Append `value`, first evicting the oldest entry once `cap` are held:
/// the round-wall windows and the flight recorder alike.
fn push_window<T>(window: &mut VecDeque<T>, value: T, cap: usize) {
    if window.len() >= cap {
        window.pop_front();
    }
    window.push_back(value);
}

#[derive(Default)]
struct AggState {
    run: Option<RunAgg>,
    runs_started: u64,
    runs_failed: u64,
    stalls_total: u64,
    events_published: u64,
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// A failed run's digest, pre-extracted by the engine (this crate cannot
/// name `TransportError`: `sqm-net` depends on `sqm-obs`, not vice versa).
#[derive(Clone, Debug)]
pub struct RunError {
    pub kind: String,
    pub party: Option<usize>,
    pub round: Option<u64>,
}

impl RunError {
    pub fn new(kind: impl Into<String>, party: Option<usize>, round: Option<u64>) -> Self {
        RunError {
            kind: kind.into(),
            party,
            round,
        }
    }
}

/// What a collector's handle and its HTTP handler share.
struct Shared {
    config: LiveConfig,
    state: Mutex<AggState>,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, AggState> {
        // Same poison policy as the metrics registry: a party thread that
        // died mid-fold loses at most its one round.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Run the heartbeat check, then copy the aggregates out. Called by
    /// every read and every HTTP request, so `/metrics` flags a wedged
    /// party while it is wedged.
    fn snapshot(&self) -> LiveSnapshot {
        let mut state = self.lock_state();
        let flagged = state.run.as_mut().map_or(0, RunAgg::heartbeat_check);
        state.stalls_total += flagged;
        let mut snap = LiveSnapshot {
            runs_started: state.runs_started,
            runs_failed: state.runs_failed,
            stalls_total: state.stalls_total,
            events_published: state.events_published,
            ..LiveSnapshot::default()
        };
        if let Some(run) = &state.run {
            snap.run = Some(RunLive {
                seed: run.seed,
                n_parties: run.n_parties,
                in_progress: run.in_progress,
                error: run.error.clone(),
                pending_slow_rounds: run.pending_slow.len() as u64,
            });
            snap.parties = run
                .parties
                .iter()
                .enumerate()
                .map(|(party, p)| PartyLive {
                    party,
                    rounds: p.rounds,
                    messages: p.messages,
                    bytes: p.bytes,
                    last_round: p.last_round,
                    round_wall: quantiles(&p.window),
                    seconds_since_progress: p.last_seen.elapsed().as_secs_f64(),
                })
                .collect();
            snap.phases = run.phases.clone();
            snap.links = run
                .links
                .iter()
                .map(|(&(from, to), v)| (format!("{from}->{to}"), v.clone()))
                .collect();
            snap.stalls = run.stalls.clone();
        }
        drop(state);
        snap.metrics = metrics::snapshot();
        snap
    }
}

/// The telemetry collector an embedder holds: the aggregates its runs fold
/// into and (when [`LiveConfig::addr`] is set) the HTTP endpoint, which
/// shuts down with the last handle.
pub struct Collector {
    shared: Arc<Shared>,
    http: Option<HttpServer>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// Start a collector, binding `/metrics` + `/snapshot` at
    /// `config.addr` when it is set (the only way this fails).
    pub fn new(config: LiveConfig) -> io::Result<Arc<Collector>> {
        let shared = Arc::new(Shared {
            state: Mutex::new(AggState::default()),
            config,
        });
        let serve = |addr: &String| {
            let shared = Arc::clone(&shared);
            let handler = move |req: &HttpRequest| handle_live_request(req, &shared);
            HttpServer::bind(addr, "sqm-live-http", Arc::new(handler))
        };
        let http = shared.config.addr.as_ref().map(serve).transpose()?;
        Ok(Arc::new(Collector { shared, http }))
    }

    /// Fold one party's completed round into the current run (nothing
    /// before the first [`Collector::begin_run`]).
    pub(crate) fn fold(&self, event: &RoundEvent<'_>) {
        let mut state = self.shared.lock_state();
        let Some(run) = state.run.as_mut() else {
            return;
        };
        let (folded, flagged) = run.fold(event);
        state.events_published += folded;
        state.stalls_total += flagged;
    }

    /// Bracket one engine run: reset per-run aggregation. Every begun run
    /// must be ended with [`Collector::end_run`], also when it panics
    /// (`crate::round::RunObserver` does so from its `Drop`).
    pub fn begin_run(&self, n_parties: usize, seed: u64) {
        let mut state = self.shared.lock_state();
        state.runs_started += 1;
        state.run = Some(RunAgg::new(self.shared.config.clone(), n_parties, seed));
    }

    /// End the current run after a last heartbeat check. `None`: it
    /// completed — resolve the watchdog and leave the aggregates visible.
    /// `Some(error)`: it failed — synthesize the crash stall and dump the
    /// flight recorder.
    pub fn end_run(&self, error: Option<RunError>) {
        let mut state = self.shared.lock_state();
        let Some(run) = state.run.as_mut() else {
            return;
        };
        let mut emitted = run.heartbeat_check() + run.resolve_pending(true);
        run.in_progress = false;
        if let Some(err) = &error {
            run.error = Some(match (err.party, err.round) {
                (Some(p), Some(r)) => format!("{} party={p} round={r}", err.kind),
                (Some(p), None) => format!("{} party={p}", err.kind),
                _ => err.kind.clone(),
            });
            // A crash names its party and round exactly; synthesize the
            // typed stall the watchdog may not have seen complete.
            if let Some(party) = err.party.filter(|&p| p < run.n_parties) {
                let round = err.round.unwrap_or(run.parties[party].last_round);
                let gap = run.parties[party].last_seen.elapsed();
                emitted += run.record_stall(party, round, gap, "crash");
            }
            let dump = render_flight_dump(run);
            let path = run
                .settings
                .flight_dir
                .join(format!("flightrec_{}.jsonl", run.seed));
            if let Err(e) = atomic_write_str(&path, &dump) {
                eprintln!(
                    "[live] flight-recorder dump to {} failed: {e}",
                    path.display()
                );
            }
        }
        state.stalls_total += emitted;
        state.runs_failed += u64::from(error.is_some());
    }

    /// The JSON/Prometheus view of everything folded so far.
    pub fn snapshot(&self) -> LiveSnapshot {
        self.shared.snapshot()
    }

    /// Stalls recorded for the current (or most recent) run.
    pub fn stalls(&self) -> Vec<StallEvent> {
        self.snapshot().stalls
    }

    /// Address the HTTP endpoint is bound to, if serving (useful with
    /// port 0).
    pub fn bound_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(HttpServer::local_addr)
    }
}

// ---------------------------------------------------------------------------
// Flight-recorder dump
// ---------------------------------------------------------------------------

/// Render the flight recorder as JSONL. Only deterministic fields are
/// written — party, round, kind, phase, messages, bytes, injected fault
/// costs — never wall-clock measurements, so a seeded failure dumps
/// byte-identically on every machine.
fn render_flight_dump(run: &RunAgg) -> String {
    let (seed, n, error) = (run.seed, run.n_parties, run.error.to_json());
    let mut out = format!(
        "{{\"type\":\"flightrec_meta\",\"version\":1,\"seed\":{seed},\"n_parties\":{n},\"error\":{error},\"stalls\":{}}}\n",
        run.stalls.len()
    );
    let mut stalls: Vec<&StallEvent> = run.stalls.iter().collect();
    stalls.sort_by_key(|s| (s.party, s.round));
    for s in stalls {
        let (party, round, kind) = (s.party, s.round, s.kind.to_json());
        out.push_str(&format!(
            "{{\"type\":\"stall\",\"party\":{party},\"round\":{round},\"kind\":{kind}}}\n"
        ));
    }
    for (party, flight) in run.flight.iter().enumerate() {
        for (seq, record) in flight.iter().enumerate() {
            let (round, kind, rest) = match record {
                FlightRecord::Round(round, phase, messages, bytes) => {
                    let phase = phase.to_json();
                    let rest =
                        format!("\"phase\":{phase},\"messages\":{messages},\"bytes\":{bytes}");
                    (round, "round", rest)
                }
                FlightRecord::Fault(round, kind, peer, value) => (
                    round,
                    *kind,
                    format!("\"peer\":{peer},\"value\":{}", value.to_json()),
                ),
                FlightRecord::Link(round, kind, peer) => (round, *kind, format!("\"peer\":{peer}")),
            };
            out.push_str(&format!(
                "{{\"type\":\"event\",\"party\":{party},\"seq\":{seq},\"round\":{round},\"kind\":\"{kind}\",{rest}}}\n"
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// One metric family: name, help text, type, and its samples as (what
/// follows the name — labels or a `_count`/`_sum` suffix — , value).
type Family = (String, String, &'static str, Vec<(String, String)>);

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        let ok = ok && !(i == 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Render the Prometheus text exposition format (0.0.4): the live
/// aggregates of `live`, if given, then the `metrics` registry's counters,
/// gauges and histogram summaries. Every family is `# HELP`, `# TYPE` and
/// its samples; a family with no samples is left out. Keyed sections
/// iterate `BTreeMap`s, so the text is key-sorted and byte-deterministic
/// for a given state. The live `/metrics` renders a snapshot with it and
/// the `sqm-serve` scrape route the registry alone.
pub fn render_prometheus(live: Option<&LiveSnapshot>, metrics: &MetricsSnapshot) -> String {
    let families = live.map(live_families).unwrap_or_default();
    let mut out = String::with_capacity(8 * 1024);
    for (name, help, kind, samples) in families.into_iter().chain(registry_families(metrics)) {
        if samples.is_empty() {
            continue;
        }
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (labels, value) in samples {
            out.push_str(&format!("{name}{labels} {value}\n"));
        }
    }
    out
}

fn live_families(snap: &LiveSnapshot) -> Vec<Family> {
    let family = |name: &str, help: &str, kind, samples| (name.into(), help.into(), kind, samples);
    let one = |v: u64| vec![(String::new(), v.to_string())];
    let run = |f: fn(&RunLive) -> u64| {
        let sample = |r: &RunLive| (String::new(), f(r).to_string());
        snap.run.iter().map(sample).collect()
    };
    let party = |f: fn(&PartyLive) -> u64| {
        let sample = |p: &PartyLive| (format!("{{party=\"{}\"}}", p.party), f(p).to_string());
        snap.parties.iter().map(sample).collect()
    };
    let phase = |f: fn(&PhaseCounters) -> u64| {
        let label = |name| format!("{{phase=\"{}\"}}", prom_name(name));
        snap.phases
            .iter()
            .map(|(n, c)| (label(n), f(c).to_string()))
            .collect()
    };
    let round_wall = snap.parties.iter().flat_map(|p| {
        let w = &p.round_wall;
        [("0.5", w.p50_ns), ("0.9", w.p90_ns), ("0.99", w.p99_ns)].map(|(q, ns)| {
            let labels = format!("{{party=\"{}\",quantile=\"{q}\"}}", p.party);
            (labels, (ns as f64 * 1e-9).to_json())
        })
    });
    let stalls = snap.stalls.iter().map(|s| {
        let (party, round, kind) = (s.party, s.round, &s.kind);
        let labels = format!("{{party=\"{party}\",round=\"{round}\",kind=\"{kind}\"}}");
        (labels, s.stalled_for.as_secs_f64().to_json())
    });
    vec![
        family(
            "sqm_live_runs_started_total",
            "Engine runs started since the live collector was installed.",
            "counter",
            one(snap.runs_started),
        ),
        family(
            "sqm_live_runs_failed_total",
            "Engine runs ended by a transport error or party panic.",
            "counter",
            one(snap.runs_failed),
        ),
        family(
            "sqm_live_stalls_total",
            "Stall events flagged by the watchdog (slow_round, heartbeat, crash).",
            "counter",
            one(snap.stalls_total),
        ),
        // Help text kept verbatim so scrapes stay comparable; the value
        // counts flight-recorder records folded.
        family(
            "sqm_live_events_published_total",
            "Events accepted into the live ring by engines and transports.",
            "counter",
            one(snap.events_published),
        ),
        family(
            "sqm_live_run_in_progress",
            "1 while the current engine run is still executing, else 0.",
            "gauge",
            run(|r| u64::from(r.in_progress)),
        ),
        family(
            "sqm_live_run_seed",
            "Seed of the current (or most recent) engine run.",
            "gauge",
            run(|r| r.seed),
        ),
        family(
            "sqm_live_party_rounds",
            "Exchange rounds completed, per party.",
            "counter",
            party(|p| p.rounds),
        ),
        family(
            "sqm_live_party_messages",
            "Messages sent, per party.",
            "counter",
            party(|p| p.messages),
        ),
        family(
            "sqm_live_party_bytes",
            "Payload bytes sent, per party.",
            "counter",
            party(|p| p.bytes),
        ),
        family(
            "sqm_live_party_round_wall_seconds",
            "Windowed per-round wall-time quantiles, per party.",
            "summary",
            round_wall.collect(),
        ),
        family(
            "sqm_live_phase_rounds",
            "Exchange rounds completed, per protocol phase.",
            "counter",
            phase(|c| c.rounds),
        ),
        family(
            "sqm_live_phase_bytes",
            "Payload bytes sent, per protocol phase.",
            "counter",
            phase(|c| c.bytes),
        ),
        family(
            "sqm_live_stall",
            "Seconds a flagged party was stalled, labeled by round and stall kind.",
            "gauge",
            stalls.collect(),
        ),
    ]
}

fn registry_families(metrics: &MetricsSnapshot) -> Vec<Family> {
    let family = |raw: &str, help: String, kind, samples| {
        let help = format!("Process metrics registry {help}.");
        (prom_name(&format!("sqm_{raw}")), help, kind, samples)
    };
    let counters = metrics.counters.iter().map(|(raw, v)| {
        let samples = vec![(String::new(), v.to_string())];
        family(raw, format!("counter `{raw}`"), "counter", samples)
    });
    let gauges = metrics.gauges.iter().map(|(raw, v)| {
        let samples = vec![(String::new(), v.to_json())];
        family(raw, format!("gauge `{raw}`"), "gauge", samples)
    });
    let histograms = metrics.histograms.iter().map(|(raw, h)| {
        let quantiles = [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)];
        let quantile = |(q, v): (&str, f64)| (format!("{{quantile=\"{q}\"}}"), v.to_json());
        let mut samples: Vec<_> = quantiles.map(quantile).into();
        samples.push(("_count".to_string(), h.count.to_string()));
        samples.push(("_sum".to_string(), h.sum.to_json()));
        let help = format!("histogram `{raw}` (quantile summary)");
        family(raw, help, "summary", samples)
    });
    counters.chain(gauges).chain(histograms).collect()
}

fn handle_live_request(req: &HttpRequest, shared: &Shared) -> HttpResponse {
    if req.method != "GET" {
        return HttpResponse::text(405, "only GET is supported\n");
    }
    match req.path.as_str() {
        "/metrics" => {
            let snap = shared.snapshot();
            HttpResponse::prometheus(render_prometheus(Some(&snap), &snap.metrics))
        }
        "/snapshot" => {
            let mut body = shared.snapshot().to_json();
            body.push('\n');
            HttpResponse::json(200, body)
        }
        "/" => HttpResponse::text(
            200,
            "sqm live telemetry\n/metrics  Prometheus text exposition\n/snapshot JSON snapshot\n",
        ),
        _ => HttpResponse::not_found(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::LinkWall;
    use crate::trace::NetEvent;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn test_config() -> LiveConfig {
        LiveConfig {
            stall_threshold: Some(Duration::from_millis(10)),
            ..LiveConfig::default()
        }
    }

    /// A collector with a run begun.
    fn started(config: &LiveConfig, n: usize, seed: u64) -> Arc<Collector> {
        let c = Collector::new(config.clone()).unwrap();
        c.begin_run(n, seed);
        c
    }

    /// `party`'s round `round` in `phase`, with no faults and no link walls.
    fn round_event(
        party: usize,
        round: u64,
        phase: &str,
        wall: Duration,
        messages: u64,
        bytes: u64,
    ) -> RoundEvent<'_> {
        RoundEvent {
            party,
            round,
            phase,
            messages,
            bytes,
            elems: 0,
            wall,
            net_events: Vec::new(),
            link_walls: Vec::new(),
        }
    }

    /// Round 4 of three parties, each spiking to 50 ms; party 1 injected a
    /// 50 ms delay, the others 1 ms.
    fn fold_delayed_round(c: &Collector) {
        for party in 0..3 {
            let mut event = round_event(party, 4, "mul", Duration::from_millis(50), 2, 64);
            event.net_events.push(NetEvent {
                party,
                round: 4,
                peer: (party + 1) % 3,
                kind: "delay".to_string(),
                value: if party == 1 { 0.05 } else { 0.001 },
            });
            c.fold(&event);
        }
    }

    #[test]
    fn concurrent_folds_keep_every_round_in_per_party_order() {
        let c = started(&test_config(), 4, 1);
        std::thread::scope(|s| {
            for party in 0..4usize {
                let c = &c;
                s.spawn(move || {
                    for round in 0..500u64 {
                        c.fold(&round_event(party, round, "p", Duration::ZERO, 1, 1));
                    }
                });
            }
        });
        let snap = c.snapshot();
        assert!(snap.parties.iter().all(|p| p.rounds == 500), "{snap:?}");
        assert_eq!(snap.events_published, 2000);
        let state = c.shared.lock_state();
        for flight in &state.run.as_ref().unwrap().flight {
            let rounds: Vec<u64> = flight
                .iter()
                .map(|r| match r {
                    FlightRecord::Round(round, ..) => *round,
                    other => panic!("only rounds were folded: {other:?}"),
                })
                .collect();
            // The ring is exactly each party's last FLIGHT_CAP rounds, in
            // order.
            let last = 500 - FLIGHT_CAP as u64..500;
            assert_eq!(rounds, last.collect::<Vec<_>>());
        }
    }

    #[test]
    fn watchdog_attributes_slow_round_to_injected_culprit() {
        let c = started(&test_config(), 3, 1);
        // Every party's round wall spikes, but only party 1 must be flagged.
        fold_delayed_round(&c);
        let stalls = c.stalls();
        assert_eq!(stalls.len(), 1, "{stalls:?}");
        assert_eq!((stalls[0].party, stalls[0].round), (1, 4));
        assert_eq!(stalls[0].kind, "slow_round");
        assert!((stalls[0].stalled_for.as_secs_f64() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn watchdog_adaptive_threshold_flags_outlier_round() {
        let c = started(&LiveConfig::default(), 2, 2);
        // Warm the window with 5 ms rounds: 8 × median 5 ms = 40 ms, above
        // the 25 ms floor, so the median decides. Then one 100 ms outlier
        // at party 0, and a 30 ms round at party 1 that clears the floor
        // but not 8 × the median.
        let ms = Duration::from_millis;
        for round in 0..20u64 {
            for party in 0..2 {
                c.fold(&round_event(party, round, "p", ms(5), 1, 8));
            }
        }
        c.fold(&round_event(0, 20, "p", ms(100), 1, 8));
        c.fold(&round_event(1, 20, "p", ms(30), 1, 8));
        let stalls = c.stalls();
        assert_eq!(stalls.len(), 1, "{stalls:?}");
        assert_eq!((stalls[0].party, stalls[0].round), (0, 20));
        // And nothing was flagged during warmup.
        assert!(stalls[0].kind == "slow_round");
    }

    #[test]
    fn crash_digest_synthesizes_stall_and_dumps_deterministic_flightrec() {
        let dir = std::env::temp_dir().join(format!("sqm_live_fr_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = LiveConfig {
            flight_dir: dir.clone(),
            ..test_config()
        };
        let render = |c: &Arc<Collector>| {
            for party in 0..3 {
                c.fold(&round_event(
                    party,
                    0,
                    "share",
                    Duration::from_micros(10),
                    2,
                    48,
                ));
            }
            c.end_run(Some(RunError::new("crashed", Some(2), Some(1))));
            std::fs::read_to_string(dir.join("flightrec_9.jsonl")).unwrap()
        };
        let first = render(&started(&cfg, 3, 9));
        let second = render(&started(&cfg, 3, 9));
        assert_eq!(first, second, "dump must be byte-deterministic");
        assert!(first.contains("\"type\":\"flightrec_meta\""));
        assert!(first.contains("\"error\":\"crashed party=2 round=1\""));
        assert!(first.contains("\"type\":\"stall\",\"party\":2,\"round\":1,\"kind\":\"crash\""));
        assert!(first.contains("\"phase\":\"share\""));
        // The nondeterministic field never leaks into the dump.
        assert!(!first.contains("wall"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_and_prometheus_are_sorted_and_deterministic() {
        let c = started(&test_config(), 2, 5);
        let us = Duration::from_micros;
        let mut linked = round_event(0, 0, "share", us(5), 1, 32);
        linked.link_walls.push(LinkWall {
            peer: 1,
            send: us(2),
            recv: us(3),
        });
        c.fold(&linked);
        c.fold(&round_event(1, 0, "share", us(5), 1, 32));
        let snap = c.snapshot();
        assert_eq!(snap.parties.len(), 2);
        assert_eq!(snap.phases["share"].rounds, 2);
        // One link wall folds as one send and one receive.
        assert_eq!(snap.links["0->1"].count, 2);
        assert_eq!(snap.links["0->1"].total_ns, 5_000);
        let json = snap.to_json();
        assert!(json.contains("\"runs_started\":1"), "{json}");
        assert!(json.contains("\"in_progress\":true"));
        let text_a = render_prometheus(Some(&snap), &snap.metrics);
        let again = c.snapshot();
        let text_b = render_prometheus(Some(&again), &again.metrics);
        assert_eq!(text_a, text_b, "same state must render byte-identically");
        assert!(text_a.contains("sqm_live_party_rounds{party=\"0\"} 1"));
        assert!(text_a.contains("# TYPE sqm_live_phase_rounds counter"));
        // Registry names are sanitized and key-sorted.
        let reg_lines: Vec<&str> = text_a
            .lines()
            .filter(|l| l.starts_with("sqm_") && !l.starts_with("sqm_live_"))
            .collect();
        let mut sorted = reg_lines.clone();
        sorted.sort_unstable();
        assert_eq!(reg_lines, sorted);
    }

    #[test]
    fn every_prometheus_type_line_has_a_matching_help_line() {
        // Populate every exported family: per-party, per-phase, run gauges,
        // a stall, and all three registry metric kinds.
        let c = started(&test_config(), 3, 5);
        fold_delayed_round(&c);
        let mut snap = c.snapshot();
        assert!(!snap.stalls.is_empty(), "need a stall line in the fixture");
        snap.metrics.counters.insert("mpc.rounds".to_string(), 7);
        snap.metrics.gauges.insert("queue.depth".to_string(), 1.5);
        snap.metrics.histograms.insert(
            "round.wall".to_string(),
            crate::metrics::HistogramSummary::default(),
        );
        let text = render_prometheus(Some(&snap), &snap.metrics);
        let lines: Vec<&str> = text.lines().collect();
        let mut families = 0usize;
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                families += 1;
                let name = rest.split_whitespace().next().unwrap();
                let help_name = i
                    .checked_sub(1)
                    .and_then(|p| lines[p].strip_prefix("# HELP "))
                    .and_then(|r| r.split_whitespace().next());
                assert_eq!(
                    help_name,
                    Some(name),
                    "# TYPE without an immediately preceding matching # HELP: {line}"
                );
            }
        }
        // Scalars (6) + party families (4) + phase families (2) + stall +
        // registry counter/gauge/summary (3).
        assert!(families >= 16, "only {families} TYPE lines in:\n{text}");
        assert!(text.contains("# TYPE sqm_live_stall gauge"));
        // The registry alone (the serve /metrics body) carries HELP too,
        // and is exactly the live text's tail.
        let registry = render_prometheus(None, &snap.metrics);
        assert!(registry.contains("# HELP sqm_mpc_rounds "), "{registry}");
        assert!(registry.contains("# HELP sqm_queue_depth "));
        assert!(registry.contains("# HELP sqm_round_wall "));
        assert!(text.ends_with(&registry));
    }

    #[test]
    fn http_endpoint_serves_metrics_snapshot_and_404() {
        let c = started(&test_config().with_addr("127.0.0.1:0"), 2, 11);
        c.fold(&round_event(0, 0, "open", Duration::from_micros(5), 1, 16));
        let addr = c.bound_addr().unwrap();
        let get = |path: &str| -> (String, String) {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
            let mut response = String::new();
            s.read_to_string(&mut response).unwrap();
            let (head, body) = response.split_once("\r\n\r\n").unwrap();
            (head.to_string(), body.to_string())
        };
        let (head, body) = get("/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("sqm_live_events_published_total"));
        let (head, body) = get("/snapshot");
        assert!(head.contains("application/json"));
        assert!(body.trim_end().starts_with('{') && body.trim_end().ends_with('}'));
        assert!(body.contains("\"parties\""));
        let (head, _) = get("/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
        // The endpoint's threads (which hold the shared state) end with the
        // last handle.
        let shared = Arc::downgrade(&c.shared);
        drop(c);
        assert!(
            shared.upgrade().is_none(),
            "a thread outlived its collector"
        );
    }

    #[test]
    fn heartbeat_watchdog_flags_silent_party() {
        let cfg = LiveConfig {
            // Tiny threshold → heartbeat timeout is the 1 s floor... too
            // slow for a unit test, so backdate last_seen and let the next
            // read run the check.
            stall_threshold: Some(Duration::from_millis(1)),
            ..LiveConfig::default()
        };
        let c = started(&cfg, 2, 3);
        c.fold(&round_event(0, 0, "p", Duration::from_micros(5), 1, 8));
        c.fold(&round_event(1, 0, "p", Duration::from_micros(5), 1, 8));
        {
            let mut state = c.shared.lock_state();
            let run = state.run.as_mut().unwrap();
            run.parties[1].last_seen = Instant::now() - Duration::from_secs(5);
        }
        let stalls = c.stalls();
        assert_eq!(stalls.len(), 1, "{stalls:?}");
        assert_eq!(stalls[0].party, 1);
        assert_eq!(stalls[0].kind, "heartbeat");
        assert!(stalls[0].stalled_for >= Duration::from_secs(4));
    }

    #[test]
    fn finished_run_without_error_leaves_no_dump() {
        let dir = std::env::temp_dir().join(format!("sqm_live_ok_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = LiveConfig {
            flight_dir: dir.clone(),
            ..test_config()
        };
        let c = started(&cfg, 2, 13);
        c.fold(&round_event(0, 0, "p", Duration::from_micros(5), 1, 8));
        c.end_run(None);
        assert!(!dir.join("flightrec_13.jsonl").exists());
        let snap = c.snapshot();
        assert!(!snap.run.as_ref().unwrap().in_progress);
        assert_eq!(snap.runs_failed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
