//! Streaming telemetry for in-flight runs: a lock-free event ring, a stall
//! watchdog, an HTTP `/metrics` + `/snapshot` endpoint, and a crash flight
//! recorder.
//!
//! Every observability surface in this crate so far is post-hoc: traces,
//! ledgers and causal DAGs exist only after `try_run` returns. This module
//! makes a run visible *while it executes*:
//!
//! * **Event ring** — every observed round is published by the run's
//!   observer ([`crate::round`]) as fixed-size [`LiveEvent`]s into a bounded
//!   lock-free MPMC ring (Vyukov-style sequence-stamped slots). Producers
//!   never block and never allocate: when the ring is full the event is
//!   dropped and counted, so telemetry can never stall the engine's round
//!   path.
//! * **Aggregator** — a background thread (or any `/metrics` request)
//!   drains the ring into rolling per-party / per-phase counters and
//!   round-wall latency quantiles over a bounded window.
//! * **Stall watchdog** — tracks per-party round-progress heartbeats and
//!   flags rounds whose wall time exceeds an adaptive threshold derived
//!   from the rolling round-wall median. Because a slow *link* slows the
//!   sender and every receiver alike, attribution uses the deterministic
//!   `net::fault` delay/retransmit events published alongside each round:
//!   the party with the largest injected cost at that round is the culprit.
//!   Typed [`StallEvent`]s carry `(party, round, stalled-for)`.
//! * **Flight recorder** — the last `flight_cap` events per party are kept
//!   in per-party rings; when a run fails (transport error or party-thread
//!   panic) they are dumped to `results/flightrec_<seed>.jsonl`
//!   (atomically, see [`crate::export::atomic_write`]) so a postmortem does
//!   not require a re-run. Only deterministic fields (party, round, phase,
//!   messages, bytes, injected fault costs) are dumped — never wall-clock
//!   timings — so the dump for a seeded failure is byte-reproducible.
//! * **HTTP endpoint** — a minimal `std::net::TcpListener` HTTP/1.1 server
//!   (no dependencies) serving a Prometheus text exposition at `/metrics`
//!   (live aggregates plus the [`crate::metrics`] registry, keys always in
//!   sorted order) and a JSON [`LiveSnapshot`] at `/snapshot`.
//!
//! A [`Collector`] is a value: the embedder creates one from a
//! [`LiveConfig`] and hands the `Arc` to the runs it wants to watch
//! (`MpcConfig::with_live`); a run whose config carries none publishes
//! nothing, anywhere. The collector owns its config, its aggregator thread
//! and its HTTP endpoint, and all three end when the last handle is
//! dropped. One live run is aggregated at a time per collector: overlapping
//! runs on one handle mix aggregates (harmless) while the flight recorder
//! and watchdog follow the most recent [`Collector::begin_run`]; runs that
//! must not mix take a collector each. Nothing here touches `RunStats` or
//! the trace: the accounting contracts are bit-identical with live
//! telemetry on or off.

use std::cell::UnsafeCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::mem::MaybeUninit;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{json, Serialize};

use crate::export::atomic_write_str;
use crate::httpd::{HttpRequest, HttpResponse, HttpServer};
use crate::metrics::{self, MetricsSnapshot};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of one [`Collector`], which owns it for its whole life.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// HTTP bind address for `/metrics` + `/snapshot` (e.g.
    /// `"127.0.0.1:9184"`, port `0` for ephemeral). `None` aggregates
    /// without serving — the mode benches use to measure pure publish
    /// overhead.
    pub addr: Option<String>,
    /// Directory flight-recorder dumps land in.
    pub flight_dir: PathBuf,
    /// Events retained per party in the flight recorder.
    pub flight_cap: usize,
    /// Rolling window length (round-wall samples) for quantiles and the
    /// adaptive stall threshold.
    pub window: usize,
    /// Adaptive stall threshold = `stall_factor` × rolling round-wall
    /// median (but never below `stall_min`).
    pub stall_factor: f64,
    /// Floor for the adaptive threshold, so µs-scale in-process rounds
    /// don't flag each other over scheduler noise.
    pub stall_min: Duration,
    /// Fixed stall threshold overriding the adaptive rule — used by tests
    /// that derive the expected flag set from the fault schedule.
    pub stall_threshold: Option<Duration>,
    /// Ring capacity (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Aggregator poll interval.
    pub poll: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            addr: None,
            flight_dir: PathBuf::from("results"),
            flight_cap: 64,
            window: 256,
            stall_factor: 8.0,
            stall_min: Duration::from_millis(25),
            stall_threshold: None,
            ring_capacity: 1 << 14,
            poll: Duration::from_millis(25),
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

    pub fn with_flight_cap(mut self, cap: usize) -> Self {
        self.flight_cap = cap.max(1);
        self
    }

    pub fn with_stall_threshold(mut self, threshold: Duration) -> Self {
        self.stall_threshold = Some(threshold);
        self
    }

    pub fn with_stall_min(mut self, min: Duration) -> Self {
        self.stall_min = min;
        self
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Maximum phase-name bytes carried inline in a [`LiveEvent`] (events must
/// stay `Copy` and allocation-free for the lock-free ring).
const PHASE_TAG_CAP: usize = 23;

/// A fixed-capacity inline phase name; longer names are truncated at a
/// UTF-8 boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PhaseTag {
    len: u8,
    buf: [u8; PHASE_TAG_CAP],
}

impl PhaseTag {
    pub fn new(phase: &str) -> Self {
        let mut end = phase.len().min(PHASE_TAG_CAP);
        while end > 0 && !phase.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; PHASE_TAG_CAP];
        buf[..end].copy_from_slice(&phase.as_bytes()[..end]);
        PhaseTag {
            len: end as u8,
            buf,
        }
    }

    pub fn as_str(&self) -> &str {
        // The constructor only stores prefixes cut at char boundaries.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }
}

/// What a [`LiveEvent`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveEventKind {
    /// One completed synchronous exchange at `party`.
    Round,
    /// A deterministic injected link delay (`value` = seconds slept at the
    /// publishing sender).
    Delay,
    /// A deterministic injected drop/retransmit cycle (`value` = dropped
    /// attempts at the publishing sender).
    Retransmit,
    /// One TCP frame batch sent to `peer` (`wall_ns` = send wall time).
    Send,
    /// One TCP frame batch received from `peer` (`wall_ns` = recv wall
    /// time, including any wait for the peer).
    Recv,
}

impl LiveEventKind {
    fn as_str(self) -> &'static str {
        match self {
            LiveEventKind::Round => "round",
            LiveEventKind::Delay => "delay",
            LiveEventKind::Retransmit => "retransmit",
            LiveEventKind::Send => "send",
            LiveEventKind::Recv => "recv",
        }
    }
}

/// A fixed-size, `Copy`, allocation-free telemetry event.
#[derive(Clone, Copy, Debug)]
pub struct LiveEvent {
    pub kind: LiveEventKind,
    pub party: usize,
    pub round: u64,
    /// Peer party for link-scoped events; `usize::MAX` otherwise.
    pub peer: usize,
    pub phase: PhaseTag,
    /// Wall-clock nanoseconds (round wall, link send/recv). Never written
    /// to flight-recorder dumps — it is the one nondeterministic field.
    pub wall_ns: u64,
    /// Deterministic injected fault cost (seconds for [`Delay`], attempt
    /// count for [`Retransmit`]).
    ///
    /// [`Delay`]: LiveEventKind::Delay
    /// [`Retransmit`]: LiveEventKind::Retransmit
    pub value: f64,
    pub messages: u64,
    pub bytes: u64,
}

impl LiveEvent {
    /// One completed exchange at `party`.
    pub fn round(
        party: usize,
        round: u64,
        phase: &str,
        wall: Duration,
        messages: u64,
        bytes: u64,
    ) -> Self {
        LiveEvent {
            kind: LiveEventKind::Round,
            party,
            round,
            peer: usize::MAX,
            phase: PhaseTag::new(phase),
            wall_ns: wall.as_nanos() as u64,
            value: 0.0,
            messages,
            bytes,
        }
    }

    /// A deterministic injected fault at `party` (the sender that slept or
    /// retransmitted), as drained from the transport's net-event stream.
    pub fn fault(party: usize, round: u64, peer: usize, kind: &str, value: f64) -> Option<Self> {
        let kind = match kind {
            "delay" => LiveEventKind::Delay,
            "retransmit" => LiveEventKind::Retransmit,
            _ => return None,
        };
        Some(LiveEvent {
            kind,
            party,
            round,
            peer,
            phase: PhaseTag::new(""),
            wall_ns: 0,
            value,
            messages: 0,
            bytes: 0,
        })
    }

    /// One TCP link transfer (`send` chooses direction).
    pub fn link(party: usize, round: u64, peer: usize, send: bool, wall: Duration) -> Self {
        LiveEvent {
            kind: if send {
                LiveEventKind::Send
            } else {
                LiveEventKind::Recv
            },
            party,
            round,
            peer,
            phase: PhaseTag::new(""),
            wall_ns: wall.as_nanos() as u64,
            value: 0.0,
            messages: 0,
            bytes: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-free bounded MPMC ring (Vyukov sequence-stamped slots)
// ---------------------------------------------------------------------------

struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<LiveEvent>>,
}

/// Bounded lock-free multi-producer queue. Producers (`try_push`) never
/// block: a full ring drops the event and bumps a counter. The consumer
/// side is also lock-free, though the collector serializes consumers behind
/// its state mutex anyway.
struct EventRing {
    mask: usize,
    slots: Box<[Slot]>,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    published: AtomicU64,
    dropped: AtomicU64,
}

// SAFETY: slot payloads are only written by the producer that won the
// sequence CAS and only read by the consumer that won the dequeue CAS; the
// seq acquire/release pair orders payload access. `LiveEvent` is `Copy` +
// `Send`.
unsafe impl Send for EventRing {}
unsafe impl Sync for EventRing {}

impl EventRing {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        EventRing {
            mask: capacity - 1,
            slots,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Non-blocking push; `false` (plus a drop count) when the ring is full.
    fn try_push(&self, event: LiveEvent) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive write
                        // access to this slot until the seq store below.
                        unsafe { (*slot.value.get()).write(event) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        self.published.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    fn pop(&self) -> Option<LiveEvent> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive read
                        // access; the producer's Release store made the
                        // payload visible.
                        let event = unsafe { (*slot.value.get()).assume_init() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(event);
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stall events and snapshots
// ---------------------------------------------------------------------------

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
    /// events at all), or `"crash"` (synthesized from a transport error).
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
#[derive(Clone, Debug, Serialize)]
pub struct LiveSnapshot {
    pub runs_started: u64,
    pub runs_failed: u64,
    pub stalls_total: u64,
    pub events_published: u64,
    pub events_dropped: u64,
    pub run: Option<RunLive>,
    pub parties: Vec<PartyLive>,
    pub phases: BTreeMap<String, PhaseCounters>,
    /// Keyed `"from->to"`.
    pub links: BTreeMap<String, LinkLive>,
    pub stalls: Vec<StallEvent>,
    pub metrics: MetricsSnapshot,
}

// ---------------------------------------------------------------------------
// Aggregation state
// ---------------------------------------------------------------------------

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
    /// Parties that have reported a `Round` event per round index; a
    /// pending slow round resolves once every party reported it (all fault
    /// events for the round have then been published too).
    round_reports: BTreeMap<u64, usize>,
    pending_slow: Vec<(usize, u64, u64)>,
    stalls: Vec<StallEvent>,
    stall_keys: BTreeSet<(usize, u64)>,
    flight: Vec<VecDeque<LiveEvent>>,
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
    /// `stall_factor` × rolling median once the window has warmed up.
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
        let adaptive = (median as f64 * self.settings.stall_factor) as u64;
        Some(adaptive.max(self.settings.stall_min.as_nanos() as u64))
    }

    fn record_stall(
        &mut self,
        party: usize,
        round: u64,
        stalled_for: Duration,
        kind: &str,
    ) -> bool {
        if !self.stall_keys.insert((party, round)) {
            return false;
        }
        self.stalls.push(StallEvent {
            party,
            round,
            stalled_for,
            kind: kind.to_string(),
        });
        true
    }

    /// Resolve pending slow rounds whose fault attribution is complete:
    /// every party has reported `round` (or `force`, at end of run). All
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
            if self.record_stall(party, round, stalled_for, "slow_round") {
                emitted += 1;
            }
        }
        self.pending_slow = keep;
        emitted
    }

    fn apply(&mut self, event: LiveEvent) -> u64 {
        if event.party >= self.n_parties {
            return 0;
        }
        let mut emitted = 0;
        let flight_cap = self.settings.flight_cap;
        let flight = &mut self.flight[event.party];
        if flight.len() == flight_cap {
            flight.pop_front();
        }
        flight.push_back(event);
        match event.kind {
            LiveEventKind::Round => {
                let p = &mut self.parties[event.party];
                p.rounds += 1;
                p.messages += event.messages;
                p.bytes += event.bytes;
                p.last_round = p.last_round.max(event.round);
                p.last_seen = Instant::now();
                push_window(&mut p.window, event.wall_ns, self.settings.window);
                push_window(&mut self.window, event.wall_ns, self.settings.window);
                let phase = self
                    .phases
                    .entry(event.phase.as_str().to_string())
                    .or_default();
                phase.rounds += 1;
                phase.messages += event.messages;
                phase.bytes += event.bytes;
                *self.round_reports.entry(event.round).or_insert(0) += 1;
                if let Some(threshold) = self.threshold_ns() {
                    if event.wall_ns > threshold {
                        self.pending_slow
                            .push((event.party, event.round, event.wall_ns));
                    }
                }
                emitted += self.resolve_pending(false);
            }
            LiveEventKind::Delay | LiveEventKind::Retransmit => {
                let cost = if event.kind == LiveEventKind::Delay {
                    event.value
                } else {
                    // Rank a retransmit cycle by its dropped-attempt count;
                    // in runs mixing delays and drops the largest injected
                    // seconds-scale delay still dominates attribution.
                    event.value * 1e-3
                };
                let entry = self
                    .culprits
                    .entry(event.round)
                    .or_insert((event.party, cost));
                if cost > entry.1 {
                    *entry = (event.party, cost);
                }
            }
            LiveEventKind::Send | LiveEventKind::Recv => {
                let link = self.links.entry((event.party, event.peer)).or_default();
                link.count += 1;
                link.total_ns += event.wall_ns;
                link.max_ns = link.max_ns.max(event.wall_ns);
            }
        }
        emitted
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
        let mut found = Vec::new();
        for (party, p) in self.parties.iter().enumerate() {
            let gap = p.last_seen.elapsed();
            if gap > timeout {
                found.push((party, p.last_round + 1, gap));
            }
        }
        let mut emitted = 0;
        for (party, round, gap) in found {
            if self.record_stall(party, round, gap, "heartbeat") {
                emitted += 1;
            }
        }
        emitted
    }
}

fn push_window(window: &mut VecDeque<u64>, value: u64, cap: usize) {
    if window.len() == cap.max(1) {
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

/// Ring + aggregation state: what a collector's handle, its aggregator
/// thread and its HTTP handler share.
struct Shared {
    config: LiveConfig,
    ring: EventRing,
    state: Mutex<AggState>,
    stop: AtomicBool,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, AggState> {
        // Same poison policy as the metrics registry: a consumer that died
        // mid-aggregation loses at most one event.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Drain the ring into the aggregates and run the watchdog once.
    /// Called by the aggregator thread, by every HTTP request (so
    /// `/metrics` is fresh even between polls), and by every read.
    fn pump(&self) {
        let mut state = self.lock_state();
        let mut emitted = 0;
        while let Some(event) = self.ring.pop() {
            if let Some(run) = state.run.as_mut() {
                emitted += run.apply(event);
            }
        }
        if let Some(run) = state.run.as_mut() {
            emitted += run.heartbeat_check();
        }
        state.stalls_total += emitted;
    }

    fn snapshot(&self) -> LiveSnapshot {
        self.pump();
        let state = self.lock_state();
        let mut snap = LiveSnapshot {
            runs_started: state.runs_started,
            runs_failed: state.runs_failed,
            stalls_total: state.stalls_total,
            events_published: self.ring.published.load(Ordering::Relaxed),
            events_dropped: self.ring.dropped.load(Ordering::Relaxed),
            run: None,
            parties: Vec::new(),
            phases: BTreeMap::new(),
            links: BTreeMap::new(),
            stalls: Vec::new(),
            metrics: metrics::snapshot(),
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
        snap
    }
}

/// The telemetry collector an embedder holds: the ring and aggregates its
/// runs publish into, the background aggregator that drains them, and (when
/// [`LiveConfig::addr`] is set) the HTTP endpoint. Dropping the last handle
/// stops the aggregator and shuts the endpoint down.
pub struct Collector {
    shared: Arc<Shared>,
    aggregator: Option<JoinHandle<()>>,
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
    /// Start a collector: spawn its aggregator and, when `config.addr` is
    /// set, bind `/metrics` + `/snapshot` there (the only way this fails).
    pub fn new(config: LiveConfig) -> io::Result<Arc<Collector>> {
        let shared = Arc::new(Shared {
            ring: EventRing::new(config.ring_capacity),
            state: Mutex::new(AggState::default()),
            stop: AtomicBool::new(false),
            config,
        });
        let serve = |addr: &String| {
            let shared = Arc::clone(&shared);
            let handler = move |req: &HttpRequest| handle_live_request(req, &shared);
            HttpServer::bind(addr, "sqm-live-http", Arc::new(handler))
        };
        let http = shared.config.addr.as_ref().map(serve).transpose()?;
        let aggregator = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sqm-live-agg".to_string())
                .spawn(move || {
                    while !shared.stop.load(Ordering::Relaxed) {
                        shared.pump();
                        // Woken early by the handle's Drop.
                        std::thread::park_timeout(shared.config.poll);
                    }
                })
                .expect("spawn live aggregator")
        };
        Ok(Arc::new(Collector {
            shared,
            aggregator: Some(aggregator),
            http,
        }))
    }

    /// Push one event (never blocks; drops + counts when full).
    pub fn publish(&self, event: LiveEvent) {
        self.shared.ring.try_push(event);
    }

    /// Bracket one engine run: reset per-run aggregation. Every begun run
    /// must be ended with [`Collector::end_run`], also when it panics
    /// (`crate::round::RunObserver` does so from its `Drop`).
    pub fn begin_run(&self, n_parties: usize, seed: u64) {
        self.shared.pump();
        let mut state = self.shared.lock_state();
        state.runs_started += 1;
        state.run = Some(RunAgg::new(self.shared.config.clone(), n_parties, seed));
    }

    /// End the current run. `None`: it completed — resolve the watchdog and
    /// leave the aggregates visible. `Some(error)`: it failed — synthesize
    /// the crash stall and dump the flight recorder.
    pub fn end_run(&self, error: Option<RunError>) {
        self.shared.pump();
        let mut state = self.shared.lock_state();
        let Some(run) = state.run.as_mut() else {
            return;
        };
        let mut emitted = run.resolve_pending(true);
        run.in_progress = false;
        let failed = error.is_some();
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
                if run.record_stall(party, round, gap, "crash") {
                    emitted += 1;
                }
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
        if failed {
            state.runs_failed += 1;
        }
    }

    /// The JSON/Prometheus view, with everything published so far drained
    /// into it.
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

impl Drop for Collector {
    fn drop(&mut self) {
        // The flag publishes no data: the aggregator only stops polling.
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.aggregator.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        // `http` shuts down and drains in its own Drop.
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
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\"type\":\"flightrec_meta\",\"version\":1,\"seed\":{},\"n_parties\":{},\"error\":",
        run.seed, run.n_parties
    ));
    match &run.error {
        Some(e) => json::write_str(&mut out, e),
        None => out.push_str("null"),
    }
    out.push_str(&format!(",\"stalls\":{}}}\n", run.stalls.len()));
    let mut stalls: Vec<&StallEvent> = run.stalls.iter().collect();
    stalls.sort_by_key(|s| (s.party, s.round));
    for s in stalls {
        out.push_str(&format!(
            "{{\"type\":\"stall\",\"party\":{},\"round\":{},\"kind\":",
            s.party, s.round
        ));
        json::write_str(&mut out, &s.kind);
        out.push_str("}\n");
    }
    for (party, flight) in run.flight.iter().enumerate() {
        for (seq, e) in flight.iter().enumerate() {
            out.push_str(&format!(
                "{{\"type\":\"event\",\"party\":{party},\"seq\":{seq},\"round\":{},\"kind\":",
                e.round
            ));
            json::write_str(&mut out, e.kind.as_str());
            match e.kind {
                LiveEventKind::Round => {
                    out.push_str(",\"phase\":");
                    json::write_str(&mut out, e.phase.as_str());
                    out.push_str(&format!(
                        ",\"messages\":{},\"bytes\":{}",
                        e.messages, e.bytes
                    ));
                }
                LiveEventKind::Delay | LiveEventKind::Retransmit => {
                    out.push_str(&format!(",\"peer\":{},\"value\":", e.peer));
                    json::write_f64(&mut out, e.value);
                }
                LiveEventKind::Send | LiveEventKind::Recv => {
                    out.push_str(&format!(",\"peer\":{}", e.peer));
                }
            }
            out.push_str("}\n");
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        let ok = ok && !(i == 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Render the live aggregates plus the metrics registry in the Prometheus
/// text exposition format (0.0.4). Output order is fixed: live section
/// first, then registry counters/gauges/histograms — each from a `BTreeMap`
/// iteration, so the exposition is key-sorted and byte-deterministic for a
/// given state.
pub fn render_prometheus(snap: &LiveSnapshot) -> String {
    let mut out = String::with_capacity(8 * 1024);
    let scalar = |out: &mut String, name: &str, kind: &str, help: &str, value: String| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
        ));
    };
    scalar(
        &mut out,
        "sqm_live_runs_started_total",
        "counter",
        "Engine runs started since the live collector was installed.",
        snap.runs_started.to_string(),
    );
    scalar(
        &mut out,
        "sqm_live_runs_failed_total",
        "counter",
        "Engine runs ended by a transport error or party panic.",
        snap.runs_failed.to_string(),
    );
    scalar(
        &mut out,
        "sqm_live_stalls_total",
        "counter",
        "Stall events flagged by the watchdog (slow_round, heartbeat, crash).",
        snap.stalls_total.to_string(),
    );
    scalar(
        &mut out,
        "sqm_live_events_published_total",
        "counter",
        "Events accepted into the live ring by engines and transports.",
        snap.events_published.to_string(),
    );
    scalar(
        &mut out,
        "sqm_live_events_dropped_total",
        "counter",
        "Events dropped because the live ring was full.",
        snap.events_dropped.to_string(),
    );
    if let Some(run) = &snap.run {
        scalar(
            &mut out,
            "sqm_live_run_in_progress",
            "gauge",
            "1 while the current engine run is still executing, else 0.",
            u64::from(run.in_progress).to_string(),
        );
        scalar(
            &mut out,
            "sqm_live_run_seed",
            "gauge",
            "Seed of the current (or most recent) engine run.",
            run.seed.to_string(),
        );
    }
    if !snap.parties.is_empty() {
        out.push_str(
            "# HELP sqm_live_party_rounds Exchange rounds completed, per party.\n\
             # TYPE sqm_live_party_rounds counter\n",
        );
        for p in &snap.parties {
            out.push_str(&format!(
                "sqm_live_party_rounds{{party=\"{}\"}} {}\n",
                p.party, p.rounds
            ));
        }
        out.push_str(
            "# HELP sqm_live_party_messages Messages sent, per party.\n\
             # TYPE sqm_live_party_messages counter\n",
        );
        for p in &snap.parties {
            out.push_str(&format!(
                "sqm_live_party_messages{{party=\"{}\"}} {}\n",
                p.party, p.messages
            ));
        }
        out.push_str(
            "# HELP sqm_live_party_bytes Payload bytes sent, per party.\n\
             # TYPE sqm_live_party_bytes counter\n",
        );
        for p in &snap.parties {
            out.push_str(&format!(
                "sqm_live_party_bytes{{party=\"{}\"}} {}\n",
                p.party, p.bytes
            ));
        }
        out.push_str(
            "# HELP sqm_live_party_round_wall_seconds Windowed per-round wall-time quantiles, per party.\n\
             # TYPE sqm_live_party_round_wall_seconds summary\n",
        );
        for p in &snap.parties {
            for (q, v) in [
                ("0.5", p.round_wall.p50_ns),
                ("0.9", p.round_wall.p90_ns),
                ("0.99", p.round_wall.p99_ns),
            ] {
                out.push_str(&format!(
                    "sqm_live_party_round_wall_seconds{{party=\"{}\",quantile=\"{q}\"}} ",
                    p.party
                ));
                json::write_f64(&mut out, v as f64 * 1e-9);
                out.push('\n');
            }
        }
    }
    if !snap.phases.is_empty() {
        out.push_str(
            "# HELP sqm_live_phase_rounds Exchange rounds completed, per protocol phase.\n\
             # TYPE sqm_live_phase_rounds counter\n",
        );
        for (phase, c) in &snap.phases {
            out.push_str(&format!(
                "sqm_live_phase_rounds{{phase=\"{}\"}} {}\n",
                prom_name(phase),
                c.rounds
            ));
        }
        out.push_str(
            "# HELP sqm_live_phase_bytes Payload bytes sent, per protocol phase.\n\
             # TYPE sqm_live_phase_bytes counter\n",
        );
        for (phase, c) in &snap.phases {
            out.push_str(&format!(
                "sqm_live_phase_bytes{{phase=\"{}\"}} {}\n",
                prom_name(phase),
                c.bytes
            ));
        }
    }
    if !snap.stalls.is_empty() {
        out.push_str(
            "# HELP sqm_live_stall Seconds a flagged party was stalled, labeled by round and stall kind.\n\
             # TYPE sqm_live_stall gauge\n",
        );
    }
    for s in &snap.stalls {
        out.push_str(&format!(
            "sqm_live_stall{{party=\"{}\",round=\"{}\",kind=\"{}\"}} ",
            s.party, s.round, s.kind
        ));
        json::write_f64(&mut out, s.stalled_for.as_secs_f64());
        out.push('\n');
    }
    // Metrics registry, key-sorted (BTreeMap iteration order).
    out.push_str(&render_metrics_prometheus(&snap.metrics));
    out
}

/// Render the process-wide metrics registry (counters, gauges, histogram
/// summaries) in Prometheus text exposition format. Shared between the live
/// `/metrics` endpoint (as the tail of [`render_prometheus`]) and other
/// endpoints — e.g. the `sqm-serve` scrape route — that expose the registry
/// without the live ring's per-run aggregates.
pub fn render_metrics_prometheus(metrics: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    for (name, v) in &metrics.counters {
        let raw = name;
        let name = prom_name(&format!("sqm_{name}"));
        out.push_str(&format!(
            "# HELP {name} Process metrics registry counter `{raw}`.\n\
             # TYPE {name} counter\n{name} {v}\n"
        ));
    }
    for (name, v) in &metrics.gauges {
        let raw = name;
        let name = prom_name(&format!("sqm_{name}"));
        out.push_str(&format!(
            "# HELP {name} Process metrics registry gauge `{raw}`.\n\
             # TYPE {name} gauge\n{name} "
        ));
        json::write_f64(&mut out, *v);
        out.push('\n');
    }
    for (name, h) in &metrics.histograms {
        let raw = name;
        let name = prom_name(&format!("sqm_{name}"));
        out.push_str(&format!(
            "# HELP {name} Process metrics registry histogram `{raw}` (quantile summary).\n\
             # TYPE {name} summary\n"
        ));
        for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
            out.push_str(&format!("{name}{{quantile=\"{q}\"}} "));
            json::write_f64(&mut out, v);
            out.push('\n');
        }
        out.push_str(&format!("{name}_count {}\n{name}_sum ", h.count));
        json::write_f64(&mut out, h.sum);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// HTTP endpoint (routes over the shared `obs::httpd` listener)
// ---------------------------------------------------------------------------

fn handle_live_request(req: &HttpRequest, shared: &Shared) -> HttpResponse {
    if req.method != "GET" {
        return HttpResponse::text(405, "only GET is supported\n");
    }
    match req.path.as_str() {
        "/metrics" => HttpResponse::prometheus(render_prometheus(&shared.snapshot())),
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
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn test_config() -> LiveConfig {
        LiveConfig {
            stall_threshold: Some(Duration::from_millis(10)),
            ..LiveConfig::default()
        }
    }

    /// A collector with a run begun. Reads pump for themselves, so the
    /// aggregator thread running beside the test changes nothing.
    fn started(config: &LiveConfig, n: usize, seed: u64) -> Arc<Collector> {
        let c = Collector::new(config.clone()).unwrap();
        c.begin_run(n, seed);
        c
    }

    #[test]
    fn ring_is_fifo_and_drops_when_full() {
        let ring = EventRing::new(4);
        for round in 0..4 {
            assert!(ring.try_push(LiveEvent::round(0, round, "p", Duration::ZERO, 1, 8)));
        }
        assert!(!ring.try_push(LiveEvent::round(0, 99, "p", Duration::ZERO, 1, 8)));
        assert_eq!(ring.dropped.load(Ordering::Relaxed), 1);
        for round in 0..4 {
            assert_eq!(ring.pop().unwrap().round, round);
        }
        assert!(ring.pop().is_none());
        // Wraparound keeps working.
        assert!(ring.try_push(LiveEvent::round(1, 7, "p", Duration::ZERO, 1, 8)));
        assert_eq!(ring.pop().unwrap().party, 1);
    }

    #[test]
    fn ring_survives_concurrent_producers() {
        let ring = Arc::new(EventRing::new(1 << 12));
        std::thread::scope(|s| {
            for party in 0..4usize {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for round in 0..500u64 {
                        ring.try_push(LiveEvent::round(party, round, "p", Duration::ZERO, 1, 1));
                    }
                });
            }
        });
        let mut per_party_next = [0u64; 4];
        let mut total = 0;
        while let Some(e) = ring.pop() {
            // Per-producer FIFO: each party's rounds arrive in order.
            assert_eq!(e.round, per_party_next[e.party]);
            per_party_next[e.party] += 1;
            total += 1;
        }
        assert_eq!(total, 2000);
    }

    #[test]
    fn phase_tag_truncates_at_char_boundary() {
        assert_eq!(PhaseTag::new("share").as_str(), "share");
        let long = "a".repeat(100);
        assert_eq!(PhaseTag::new(&long).as_str().len(), PHASE_TAG_CAP);
        // Multi-byte char straddling the cap is dropped, not split.
        let tricky = format!("{}é", "x".repeat(PHASE_TAG_CAP - 1));
        let tag = PhaseTag::new(&tricky);
        assert_eq!(tag.as_str(), &"x".repeat(PHASE_TAG_CAP - 1));
    }

    #[test]
    fn watchdog_attributes_slow_round_to_injected_culprit() {
        let cfg = test_config();
        let c = started(&cfg, 3, 1);
        // Round 4: party 1 injected a 50 ms delay; every party's round wall
        // spikes, but only party 1 must be flagged.
        for party in 0..3 {
            c.publish(
                LiveEvent::fault(
                    party,
                    4,
                    (party + 1) % 3,
                    "delay",
                    if party == 1 { 0.05 } else { 0.001 },
                )
                .unwrap(),
            );
            c.publish(LiveEvent::round(
                party,
                4,
                "mul",
                Duration::from_millis(50),
                2,
                64,
            ));
        }
        c.shared.pump();
        let stalls = c.stalls();
        assert_eq!(stalls.len(), 1, "{stalls:?}");
        assert_eq!((stalls[0].party, stalls[0].round), (1, 4));
        assert_eq!(stalls[0].kind, "slow_round");
        assert!((stalls[0].stalled_for.as_secs_f64() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn watchdog_adaptive_threshold_flags_outlier_round() {
        let cfg = LiveConfig {
            stall_min: Duration::from_micros(1),
            ..LiveConfig::default()
        };
        let c = started(&cfg, 2, 2);
        // Warm the window with 1 ms rounds, then one 100 ms outlier at
        // party 0 (factor 8 × median 1 ms = 8 ms threshold).
        for round in 0..20u64 {
            for party in 0..2 {
                c.publish(LiveEvent::round(
                    party,
                    round,
                    "p",
                    Duration::from_millis(1),
                    1,
                    8,
                ));
            }
        }
        c.publish(LiveEvent::round(
            0,
            20,
            "p",
            Duration::from_millis(100),
            1,
            8,
        ));
        c.publish(LiveEvent::round(1, 20, "p", Duration::from_millis(1), 1, 8));
        c.shared.pump();
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
                c.publish(LiveEvent::round(
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
        let cfg = test_config();
        let c = started(&cfg, 2, 5);
        c.publish(LiveEvent::round(
            0,
            0,
            "share",
            Duration::from_micros(5),
            1,
            32,
        ));
        c.publish(LiveEvent::round(
            1,
            0,
            "share",
            Duration::from_micros(5),
            1,
            32,
        ));
        c.publish(LiveEvent::link(0, 0, 1, false, Duration::from_micros(3)));
        let snap = c.snapshot();
        assert_eq!(snap.parties.len(), 2);
        assert_eq!(snap.phases["share"].rounds, 2);
        assert_eq!(snap.links["0->1"].count, 1);
        let json = snap.to_json();
        assert!(json.contains("\"runs_started\":1"), "{json}");
        assert!(json.contains("\"in_progress\":true"));
        let text_a = render_prometheus(&snap);
        let text_b = render_prometheus(&c.snapshot());
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
        let cfg = test_config();
        let c = started(&cfg, 3, 5);
        for party in 0..3 {
            c.publish(
                LiveEvent::fault(
                    party,
                    4,
                    (party + 1) % 3,
                    "delay",
                    if party == 1 { 0.05 } else { 0.001 },
                )
                .unwrap(),
            );
            c.publish(LiveEvent::round(
                party,
                4,
                "mul",
                Duration::from_millis(50),
                2,
                64,
            ));
        }
        c.shared.pump();
        let mut snap = c.snapshot();
        assert!(!snap.stalls.is_empty(), "need a stall line in the fixture");
        snap.metrics.counters.insert("mpc.rounds".to_string(), 7);
        snap.metrics.gauges.insert("queue.depth".to_string(), 1.5);
        snap.metrics.histograms.insert(
            "round.wall".to_string(),
            crate::metrics::HistogramSummary::default(),
        );
        let text = render_prometheus(&snap);
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
        // Scalars (7) + party families (4) + phase families (2) + stall +
        // registry counter/gauge/summary (3).
        assert!(families >= 17, "only {families} TYPE lines in:\n{text}");
        assert!(text.contains("# TYPE sqm_live_stall gauge"));
        // The shared registry renderer (the serve /metrics tail) carries
        // HELP on its own too.
        let registry = render_metrics_prometheus(&snap.metrics);
        assert!(registry.contains("# HELP sqm_mpc_rounds "), "{registry}");
        assert!(registry.contains("# HELP sqm_queue_depth "));
        assert!(registry.contains("# HELP sqm_round_wall "));
    }

    #[test]
    fn http_endpoint_serves_metrics_snapshot_and_404() {
        let c = started(&test_config().with_addr("127.0.0.1:0"), 2, 11);
        c.publish(LiveEvent::round(
            0,
            0,
            "open",
            Duration::from_micros(5),
            1,
            16,
        ));
        let addr = c.bound_addr().unwrap();
        let get = |path: &str| -> (String, String) {
            let mut s = TcpStream::connect(addr).unwrap();
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
        // The endpoint and the aggregator (each holds the shared state)
        // end with the last handle.
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
            // slow for a unit test, so drive the check directly with a
            // backdated last_seen.
            stall_threshold: Some(Duration::from_millis(1)),
            ..LiveConfig::default()
        };
        let c = started(&cfg, 2, 3);
        c.publish(LiveEvent::round(0, 0, "p", Duration::from_micros(5), 1, 8));
        c.publish(LiveEvent::round(1, 0, "p", Duration::from_micros(5), 1, 8));
        c.shared.pump();
        {
            let mut state = c.shared.lock_state();
            let run = state.run.as_mut().unwrap();
            run.parties[1].last_seen = Instant::now() - Duration::from_secs(5);
        }
        c.shared.pump();
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
        c.publish(LiveEvent::round(0, 0, "p", Duration::from_micros(5), 1, 8));
        c.end_run(None);
        assert!(!dir.join("flightrec_13.jsonl").exists());
        let snap = c.snapshot();
        assert!(!snap.run.as_ref().unwrap().in_progress);
        assert_eq!(snap.runs_failed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
