//! The five workloads. Each builds its inputs and oracles from the seed,
//! drives the program in a closed loop, and checks what came back.
//!
//! An *op* is a release or an ingest; a *cycle* is the unit a client
//! repeats and holds exactly one release.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use sqm::linalg::Matrix;
use sqm::mpc::RunStats;
use sqm::serve::{Reply, Request, ServeError, Server, ServerConfig, TenantConfig};
use sqm::vfl::{
    covariance_quantized_oracle, covariance_streaming_oracle, gradient, gradient_sum_skellam,
    try_covariance_skellam, ColumnPartition, NetBackend, StreamCov, VflConfig, VflSession,
};

use crate::data;
use crate::spans::Tracer;

/// Table II settings, used by every workload except `serve_mix`.
pub const GAMMA: f64 = 18.0;
pub const MU: f64 = 100.0;

/// The paper charges this much per communication round.
pub const ROUND_LATENCY: Duration = Duration::from_millis(100);

/// The protocol phases, in program order.
pub const PHASES: [&str; 5] = ["quantize", "input", "compute", "dp_noise", "open"];

/// Every set-up ends with an unmeasured warm-up: at least this many cycles
/// and at least this long. Three cycles of a 1.4 ms release would warm
/// nothing (sockets, allocator arenas, clock speed).
pub const WARMUP_CYCLES: usize = 3;
pub const WARMUP_FLOOR: Duration = Duration::from_millis(50);

/// Protocol seeds a one-shot workload rotates through.
const SEED_ROTATION: usize = 4;

/// One successful release as the caller saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Caller-observed wall-clock of the release call.
    pub wall: Duration,
    /// `RunStats.total.wall`: the protocol's own wall (max over parties).
    pub mpc_wall: Duration,
    /// `RunStats.phases[..].wall` in [`PHASES`] order.
    pub phases: [Duration; 5],
}

impl Sample {
    /// The paper's cost model: measured wall plus 0.1 s per round.
    pub fn simulated(&self, rounds: u64) -> Duration {
        self.mpc_wall + ROUND_LATENCY * rounds as u32
    }
}

/// The exact per-release counters. Every release of a run must agree.
#[derive(Clone, Debug, PartialEq)]
pub struct Counts {
    pub rounds: u64,
    pub messages: u64,
    pub bytes: u64,
    pub elems: u64,
    /// `RunStats.phases[..].bytes` in [`PHASES`] order.
    pub phase_bytes: [u64; 5],
}

/// What one stretch of driving produced.
pub struct RunLog {
    pub samples: Vec<Sample>,
    pub counts: Option<Counts>,
    /// Ops attempted, and ops that errored, were refused, disagreed with
    /// the run's counters or failed their oracle check.
    pub attempted: u64,
    pub failed: u64,
    /// `Overloaded` replies (each also counts as a failed op).
    pub overloaded: u64,
    /// How long each cycle took a client, start to start.
    pub cycle_walls: Vec<Duration>,
    /// `serve_mix` only: caller-observed wall of each ingest.
    pub ingest_walls: Vec<Duration>,
    /// Present in a traced run: one root span per release, with the phases
    /// as synthetic children.
    pub tracer: Option<Tracer>,
    next_op: u64,
}

impl RunLog {
    pub fn new(tracer: Option<Tracer>) -> RunLog {
        RunLog {
            samples: Vec::new(),
            counts: None,
            attempted: 0,
            failed: 0,
            overloaded: 0,
            ingest_walls: Vec::new(),
            cycle_walls: Vec::new(),
            tracer,
            next_op: 0,
        }
    }

    /// A log for client thread `client`, tracing on the same clock with a
    /// disjoint op-id range.
    fn fork(&self, client: usize) -> RunLog {
        let mut log = RunLog::new(self.tracer.as_ref().map(Tracer::sibling));
        log.next_op = (client as u64 + 1) << 40;
        log
    }

    fn merge(&mut self, other: RunLog) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.overloaded += other.overloaded;
        self.ingest_walls.extend(other.ingest_walls);
        self.cycle_walls.extend(other.cycle_walls);
        match (&self.counts, other.counts) {
            (None, theirs) => self.counts = theirs,
            (Some(mine), Some(theirs)) if *mine != theirs => self.failed += 1,
            _ => {}
        }
        if let (Some(mine), Some(theirs)) = (&mut self.tracer, other.tracer) {
            mine.absorb(theirs);
        }
    }

    /// Record a release that returned `stats` after `wall`.
    fn release(&mut self, start: Instant, wall: Duration, stats: &RunStats) {
        let phase = |name: &str| stats.phases.get(name).cloned().unwrap_or_default();
        let sample = Sample {
            wall,
            mpc_wall: stats.total.wall,
            phases: PHASES.map(|name| phase(name).wall),
        };
        let counts = Counts {
            rounds: stats.total.rounds,
            messages: stats.total.messages,
            bytes: stats.total.bytes,
            elems: stats.total.elems,
            phase_bytes: PHASES.map(|name| phase(name).bytes),
        };
        match &self.counts {
            None => self.counts = Some(counts),
            Some(first) if *first != counts => self.failed += 1,
            Some(_) => {}
        }
        if let Some(tracer) = &mut self.tracer {
            let root = tracer.span(None, "release", self.next_op, start, wall);
            let laid: Vec<(&str, Duration)> = PHASES.into_iter().zip(sample.phases).collect();
            // Per-phase walls are maxima over parties, so they can sum to
            // more than any one party spent: cap them at the protocol's
            // own wall. What remains of the caller's wall is the engine's
            // spawn, join and merge, and the output assembly.
            tracer.synthetic_children(root, &laid, sample.mpc_wall);
            self.next_op += 1;
        }
        self.samples.push(sample);
    }
}

/// When a stretch of driving ends.
#[derive(Clone, Copy)]
pub enum Limit {
    /// After this many cycles (per client).
    Cycles(usize),
    /// No cycle starts after this instant.
    Until(Instant),
}

impl Limit {
    /// Call `cycle` with 0, 1, 2, .. until the limit is reached; returns
    /// how long each call took.
    fn each_cycle(self, mut cycle: impl FnMut(usize)) -> Vec<Duration> {
        let mut walls = Vec::new();
        let mut start = Instant::now();
        while match self {
            Limit::Cycles(n) => walls.len() < n,
            Limit::Until(deadline) => start < deadline,
        } {
            cycle(walls.len());
            let end = Instant::now();
            walls.push(end - start);
            start = end;
        }
        walls
    }
}

pub trait Workload {
    /// Closed loop: each client starts its next cycle when the last one
    /// returned, until `limit`.
    fn drive(&mut self, limit: Limit, log: &mut RunLog);

    /// Oracle checks left for after the measured window; failures go to
    /// `log.failed`.
    fn verify(&mut self, _log: &mut RunLog) {}

    /// Client threads driving the loop.
    fn clients(&self) -> usize {
        1
    }
}

/// Build a workload from `seed`, warm-up included. The warm-up's ops are
/// returned so that its failures count.
pub fn setup(name: &str, seed: u64) -> Option<(Box<dyn Workload>, RunLog)> {
    let rng = &mut data::rng_for(seed, name);
    let mut workload: Box<dyn Workload> = match name {
        "cov_wide" => Box::new(Cov::new(rng, 1000, 500, 4)),
        "cov_clients" => Box::new(Cov::new(rng, 500, 100, 10)),
        "stream_tcp" => Box::new(StreamLoop::new(rng, NetBackend::tcp(), false)),
        "lr_train" => Box::new(LrTrain::new(rng, 1000, 100, 4)),
        "serve_mix" => Box::new(ServeMix::new(rng, 1)),
        _ => return None,
    };
    let mut warmup = RunLog::new(None);
    let floor = Instant::now() + WARMUP_FLOOR;
    workload.drive(Limit::Cycles(WARMUP_CYCLES), &mut warmup);
    workload.drive(Limit::Until(floor), &mut warmup);
    Some((workload, warmup))
}

// --- cov_wide, cov_clients ---------------------------------------------------

/// One-shot `covariance_skellam` releases of one matrix, rotating protocol
/// seeds; every `c_hat` must equal its precomputed oracle exactly.
pub struct Cov {
    data: Matrix,
    partition: ColumnPartition,
    cfgs: Vec<VflConfig>,
    oracles: Vec<Matrix>,
    next: usize,
}

impl Cov {
    pub fn new(rng: &mut StdRng, m: usize, n: usize, p: usize) -> Cov {
        let data = data::matrix(rng, m, n);
        let partition = ColumnPartition::even(n, p);
        let cfgs: Vec<VflConfig> = (0..SEED_ROTATION)
            .map(|_| VflConfig::new(p).with_seed(rng.gen()))
            .collect();
        let oracles = cfgs
            .iter()
            .map(|cfg| covariance_quantized_oracle(&data, &partition, GAMMA, MU, cfg))
            .collect();
        Cov {
            data,
            partition,
            cfgs,
            oracles,
            next: 0,
        }
    }
}

impl Workload for Cov {
    fn drive(&mut self, limit: Limit, log: &mut RunLog) {
        let cycles = limit.each_cycle(|_| {
            let i = self.next % self.cfgs.len();
            self.next += 1;
            log.attempted += 1;
            let start = Instant::now();
            let out = try_covariance_skellam(&self.data, &self.partition, GAMMA, MU, &self.cfgs[i]);
            let wall = start.elapsed();
            match out {
                Ok(out) => {
                    log.release(start, wall, &out.stats);
                    if out.c_hat != self.oracles[i] {
                        log.failed += 1;
                    }
                }
                Err(_) => log.failed += 1,
            }
        });
        log.cycle_walls.extend(cycles);
    }
}

// --- lr_train ----------------------------------------------------------------

/// Releases per `VflSession` before a fresh one: bounds ledger growth.
const RELEASES_PER_SESSION: usize = 256;

/// Plaintext draws that calibrate the statistical check.
const PLAINTEXT_DRAWS: usize = 32;

/// `VflSession::gradient_sum` over the full batch at fixed weights.
///
/// `crates/vfl` has no bit-exact gradient oracle, so each release must be
/// bit-identical to a reference computed at set-up over the TCP backend
/// with the same protocol seed (backend equivalence), and each reference
/// must sit within twice the largest deviation that
/// [`PLAINTEXT_DRAWS`] draws of the plaintext mechanism show from the
/// noiseless gradient.
pub struct LrTrain {
    data: Matrix,
    partition: ColumnPartition,
    batch: Vec<usize>,
    w: Vec<f64>,
    cfgs: Vec<VflConfig>,
    references: Vec<Vec<f64>>,
    session: VflSession,
    sessions_opened: usize,
    /// References that failed the statistical check at set-up.
    bad_references: u64,
}

/// Eq. 9 summed over the batch on the raw, unquantized records.
fn noiseless_gradient(data: &Matrix, batch: &[usize], w: &[f64]) -> Vec<f64> {
    let d = w.len();
    let mut g = vec![0.0; d];
    for &i in batch {
        let row = data.row(i);
        let (x, y) = (&row[..d], row[d]);
        let wx: f64 = w.iter().zip(x).map(|(a, b)| a * b).sum();
        for k in 0..d {
            g[k] += (0.5 + wx / 4.0 - y) * x[k];
        }
    }
    g
}

fn max_deviation(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

impl LrTrain {
    pub fn new(rng: &mut StdRng, m: usize, d: usize, p: usize) -> LrTrain {
        let data = data::labelled_matrix(rng, m, d);
        let partition = ColumnPartition::even(d + 1, p);
        let batch: Vec<usize> = (0..m).collect();
        let w = vec![0.01; d];
        let cfgs: Vec<VflConfig> = (0..SEED_ROTATION)
            .map(|_| VflConfig::new(p).with_seed(rng.gen()))
            .collect();
        let references: Vec<Vec<f64>> = cfgs
            .iter()
            .map(|cfg| {
                let tcp = cfg.clone().with_backend(NetBackend::tcp());
                gradient_sum_skellam(&data, &partition, &batch, &w, GAMMA, MU, &tcp).grad_sum
            })
            .collect();

        let truth = noiseless_gradient(&data, &batch, &w);
        let allowed = 2.0
            * (0..PLAINTEXT_DRAWS)
                .map(|_| {
                    let public_seed = rng.gen();
                    let draw = gradient::gradient_sum_skellam_plaintext(
                        rng,
                        &data,
                        &batch,
                        &w,
                        GAMMA,
                        MU,
                        p,
                        public_seed,
                    );
                    max_deviation(&draw, &truth)
                })
                .fold(0.0, f64::max);
        let bad_references = references
            .iter()
            .filter(|r| max_deviation(r, &truth) > allowed)
            .count() as u64;

        let session = VflSession::new(partition.clone(), cfgs[0].clone());
        LrTrain {
            data,
            partition,
            batch,
            w,
            cfgs,
            references,
            session,
            sessions_opened: 1,
            bad_references,
        }
    }
}

impl Workload for LrTrain {
    fn drive(&mut self, limit: Limit, log: &mut RunLog) {
        let cycles = limit.each_cycle(|_| {
            if self.session.stats().len() == RELEASES_PER_SESSION {
                let cfg = self.cfgs[self.sessions_opened % self.cfgs.len()].clone();
                self.session = VflSession::new(self.partition.clone(), cfg);
                self.sessions_opened += 1;
            }
            let reference = &self.references[(self.sessions_opened - 1) % self.cfgs.len()];
            log.attempted += 1;
            let start = Instant::now();
            let out = self
                .session
                .try_gradient_sum(&self.data, &self.batch, &self.w, GAMMA, MU);
            let wall = start.elapsed();
            match out {
                Ok(grad) => {
                    let stats = self.session.stats().last().expect("a release was recorded");
                    log.release(start, wall, stats);
                    if grad != *reference {
                        log.failed += 1;
                    }
                }
                Err(_) => log.failed += 1,
            }
        });
        log.cycle_walls.extend(cycles);
    }

    fn verify(&mut self, log: &mut RunLog) {
        log.attempted += self.references.len() as u64;
        log.failed += self.bad_references;
    }
}

// --- stream_tcp (and its in-process twin) ------------------------------------

/// Distinct mini-batches a streaming client cycles through. Quantization is
/// stochastic, so a repeated batch still shares and accumulates afresh.
const BATCH_POOL: usize = 16;

/// Streaming releases checked against the oracle: this many from the start
/// (warm-up included), and the last.
const STREAM_CHECK_FIRST: usize = 8;

pub const STREAM_COLS: usize = 20;
pub const STREAM_CLIENTS: usize = 4;
pub const STREAM_BATCH_ROWS: usize = 100;

/// A release kept for the post-window oracle check.
struct Kept<T> {
    /// 0-based index of the release in its session (= noise draws to skip).
    release: usize,
    /// Batches ingested up to and including this release.
    batches: usize,
    output: T,
}

/// `StreamCov` over a mesh built once: one 100-row ingest and one release
/// per cycle.
pub struct StreamLoop {
    stream: StreamCov,
    cfg: VflConfig,
    partition: ColumnPartition,
    pool: Vec<Matrix>,
    /// Pool index of every batch ingested, in order.
    history: Vec<usize>,
    first: Vec<Kept<Matrix>>,
    last: Option<Kept<Matrix>>,
}

impl StreamLoop {
    pub fn new(rng: &mut StdRng, backend: NetBackend, trace: bool) -> StreamLoop {
        let partition = ColumnPartition::even(STREAM_COLS, STREAM_CLIENTS);
        let cfg = VflConfig::new(STREAM_CLIENTS)
            .with_seed(rng.gen())
            .with_backend(backend)
            .with_trace(trace);
        let pool = (0..BATCH_POOL)
            .map(|_| data::matrix(rng, STREAM_BATCH_ROWS, STREAM_COLS))
            .collect();
        // Room for an hour of releases; still far inside M61.
        let max_rows = 1 << 32;
        let stream = StreamCov::new(partition.clone(), GAMMA, MU, &cfg, max_rows, 1.0)
            .expect("loopback mesh");
        StreamLoop {
            stream,
            cfg,
            partition,
            pool,
            history: Vec::new(),
            first: Vec::new(),
            last: None,
        }
    }
}

impl Workload for StreamLoop {
    fn drive(&mut self, limit: Limit, log: &mut RunLog) {
        let cycles = limit.each_cycle(|_| {
            let pick = self.history.len() % self.pool.len();
            log.attempted += 2;
            self.stream.ingest(&self.pool[pick]);
            self.history.push(pick);
            let start = Instant::now();
            let out = self.stream.release();
            let wall = start.elapsed();
            match out {
                Ok(out) => {
                    log.release(start, wall, &out.stats);
                    let kept = Kept {
                        release: self.stream.releases() - 1,
                        batches: self.history.len(),
                        output: out.c_hat,
                    };
                    if self.first.len() < STREAM_CHECK_FIRST {
                        self.first.push(kept);
                    } else {
                        self.last = Some(kept);
                    }
                }
                Err(_) => log.failed += 1,
            }
        });
        log.cycle_walls.extend(cycles);
    }

    fn verify(&mut self, log: &mut RunLog) {
        for kept in self.first.iter().chain(&self.last) {
            let batches: Vec<Matrix> = self.history[..kept.batches]
                .iter()
                .map(|&i| self.pool[i].clone())
                .collect();
            let oracle = covariance_streaming_oracle(
                &batches,
                &self.partition,
                GAMMA,
                MU,
                &self.cfg,
                kept.release,
            );
            if oracle != kept.output {
                log.failed += 1;
            }
        }
    }
}

// --- serve_mix ---------------------------------------------------------------

pub const SERVE_GAMMA: f64 = 256.0;
pub const SERVE_MU: f64 = 1e9;
pub const SERVE_INGESTS_PER_RELEASE: usize = 4;
pub const SERVE_BATCH_ROWS: usize = 64;
const SERVE_TENANTS: usize = 4;
const SERVE_CHECK_FIRST: usize = 3;

/// Generous enough that no request of any run length is refused on budget
/// or envelope: the workload measures serving, not refusals.
pub fn serve_tenant_config(name: &str, seed: u64) -> TenantConfig {
    let mut cfg = TenantConfig::new(name);
    cfg.n_cols = STREAM_COLS;
    cfg.n_clients = STREAM_CLIENTS;
    cfg.gamma = SERVE_GAMMA;
    cfg.mu = SERVE_MU;
    cfg.budget_eps = 1e9;
    cfg.max_rows = 4_000_000;
    cfg.seed = seed;
    cfg
}

/// The harness's side of one tenant: what it sent and what came back.
struct TenantLoop {
    config: TenantConfig,
    pool: Vec<Vec<Vec<f64>>>,
    history: Vec<usize>,
    first: Vec<Kept<Vec<f64>>>,
    last: Option<Kept<Vec<f64>>>,
}

/// `Server::call` until the scheduler admits the request: an `Overloaded`
/// reply is a failed op, retried after 1 ms.
fn call_admitted(
    server: &Server,
    tenant: &str,
    request: &Request,
    log: &mut RunLog,
) -> Result<Reply, ServeError> {
    loop {
        log.attempted += 1;
        match server.call(tenant, request.clone()) {
            Err(ServeError::Overloaded { .. }) => {
                log.failed += 1;
                log.overloaded += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            response => return response,
        }
    }
}

impl TenantLoop {
    /// Four ingests, then a release.
    fn cycle(&mut self, server: &Server, log: &mut RunLog) {
        for _ in 0..SERVE_INGESTS_PER_RELEASE {
            let pick = self.history.len() % self.pool.len();
            let request = Request::Ingest {
                records: self.pool[pick].clone(),
            };
            let start = Instant::now();
            match call_admitted(server, &self.config.name, &request, log) {
                Ok(Reply::Ingested { .. }) => {
                    log.ingest_walls.push(start.elapsed());
                    self.history.push(pick);
                }
                _ => log.failed += 1,
            }
        }
        let start = Instant::now();
        let response = call_admitted(server, &self.config.name, &Request::Release, log);
        let wall = start.elapsed();
        match response {
            Ok(Reply::Released(reply)) => {
                log.release(start, wall, &reply.stats);
                let kept = Kept {
                    release: reply.release_index - 1,
                    batches: self.history.len(),
                    output: reply.covariance,
                };
                if self.first.len() < SERVE_CHECK_FIRST {
                    self.first.push(kept);
                } else {
                    self.last = Some(kept);
                }
            }
            _ => log.failed += 1,
        }
    }

    /// Replay the kept releases through the streaming oracle.
    fn verify(&self, log: &mut RunLog) {
        let c = &self.config;
        let partition = ColumnPartition::even(c.n_cols, c.n_clients);
        // Only the seed and the party count reach the oracle.
        let cfg = VflConfig::fast(c.n_clients).with_seed(c.seed);
        for kept in self.first.iter().chain(&self.last) {
            let batches: Vec<Matrix> = self.history[..kept.batches]
                .iter()
                .map(|&i| Matrix::from_rows(&self.pool[i]))
                .collect();
            let oracle = covariance_streaming_oracle(
                &batches,
                &partition,
                c.gamma,
                c.mu,
                &cfg,
                kept.release,
            );
            let scale = c.gamma * c.gamma;
            let expected: Vec<f64> = oracle.as_slice().iter().map(|v| v / scale).collect();
            if expected != kept.output {
                log.failed += 1;
            }
        }
    }
}

/// `sqm_serve::Server` with four tenants shared evenly among the
/// closed-loop client threads; a client takes its tenants in turn, one
/// cycle each.
///
/// The workload drives one client. Two clients keep two releases — eight
/// party threads, two workers and the clients themselves — runnable on
/// this box's two cores, and identical runs of that then differ by a
/// quarter; it stays as a per-layer probe.
pub struct ServeMix {
    server: Arc<Server>,
    tenants: Vec<TenantLoop>,
    clients: usize,
}

impl ServeMix {
    pub fn new(rng: &mut StdRng, clients: usize) -> ServeMix {
        let server = Server::start(ServerConfig {
            workers: 2,
            queue_bound: 64,
            tracing: None,
        });
        assert!(clients > 0 && SERVE_TENANTS % clients == 0);
        let tenants = (0..SERVE_TENANTS)
            .map(|t| {
                let config = serve_tenant_config(&format!("tenant{t}"), rng.gen());
                server.add_tenant(config.clone()).expect("fresh tenant");
                TenantLoop {
                    config,
                    pool: (0..BATCH_POOL)
                        .map(|_| data::records(rng, SERVE_BATCH_ROWS, STREAM_COLS))
                        .collect(),
                    history: Vec::new(),
                    first: Vec::new(),
                    last: None,
                }
            })
            .collect();
        ServeMix {
            server,
            tenants,
            clients,
        }
    }

    pub fn max_queue_depth(&self) -> usize {
        self.server.max_queued_observed()
    }
}

impl Workload for ServeMix {
    fn drive(&mut self, limit: Limit, log: &mut RunLog) {
        let server = &self.server;
        let logs: Vec<RunLog> = std::thread::scope(|s| {
            let clients: Vec<_> = self
                .tenants
                .chunks_mut(SERVE_TENANTS / self.clients)
                .enumerate()
                .map(|(client, mine)| {
                    let mut log = log.fork(client);
                    s.spawn(move || {
                        let cycles = limit.each_cycle(|done| {
                            mine[done % mine.len()].cycle(server, &mut log);
                        });
                        log.cycle_walls.extend(cycles);
                        log
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        logs.into_iter().for_each(|l| log.merge(l));
    }

    fn verify(&mut self, log: &mut RunLog) {
        self.tenants.iter().for_each(|t| t.verify(log));
    }

    fn clients(&self) -> usize {
        self.clients
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        // The workers hold the server alive; drain and join them here.
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    /// A short pass over every declared workload: set-up, a few cycles and
    /// the post-window checks, with tracing on. Every oracle check runs and
    /// none may fail.
    #[test]
    fn five_cycles_of_every_workload_pass_their_oracles() {
        for name in Spec::load().workloads {
            let (mut workload, warmup) = setup(&name, 11).expect("declared workload is built");
            assert_eq!(warmup.failed, 0, "{name} warm-up");
            let mut log = RunLog::new(Some(Tracer::new()));
            workload.drive(Limit::Cycles(5), &mut log);
            workload.verify(&mut log);
            assert_eq!(log.failed, 0, "{name}");
            assert!(log.attempted >= 5, "{name}");
            assert_eq!(workload.clients(), 1, "{name}");
            assert_eq!(log.samples.len(), 5, "{name}");
            let counts = log.counts.as_ref().expect("counts recorded");
            // One input round per pending batch, then reduce, noise, open.
            let input_rounds = if name == "serve_mix" {
                SERVE_INGESTS_PER_RELEASE
            } else {
                1
            };
            assert_eq!(counts.rounds as usize, input_rounds + 3, "{name}");
            assert_eq!(
                counts.phase_bytes.iter().sum::<u64>(),
                counts.bytes,
                "{name}"
            );
            // One root and five phase children per release.
            let tracer = log.tracer.as_ref().expect("traced");
            assert_eq!(tracer.spans().len(), 6 * log.samples.len(), "{name}");
            let self_times = tracer.self_times_ns();
            for (id, span) in tracer.spans().iter().enumerate() {
                if span.parent.is_none() {
                    let phases: u64 = tracer.spans()[id + 1..id + 6]
                        .iter()
                        .map(|s| s.end_ns - s.start_ns)
                        .sum();
                    assert_eq!(phases + self_times[id], span.end_ns - span.start_ns);
                }
            }
        }
        assert!(setup("no_such_workload", 1).is_none());
    }

    #[test]
    fn a_wrong_output_or_a_drifting_counter_is_a_failed_op() {
        let rng = &mut data::rng_for(5, "test");
        let mut cov = Cov::new(rng, 30, 6, 3);
        cov.oracles[1][(0, 0)] += 1.0;
        let mut log = RunLog::new(None);
        cov.drive(Limit::Cycles(4), &mut log);
        assert_eq!((log.attempted, log.failed), (4, 1));

        let mut drifted = RunStats::default();
        drifted.total.rounds = 5;
        log.release(Instant::now(), Duration::ZERO, &drifted);
        assert_eq!(log.failed, 2);
    }

    #[test]
    fn a_wrong_streaming_release_fails_verification() {
        let rng = &mut data::rng_for(5, "test");
        let mut stream = StreamLoop::new(rng, NetBackend::InProcess, false);
        let mut log = RunLog::new(None);
        stream.drive(Limit::Cycles(STREAM_CHECK_FIRST + 2), &mut log);
        stream.verify(&mut log);
        assert_eq!(log.failed, 0);
        assert_eq!(stream.first.len(), STREAM_CHECK_FIRST);
        let last = stream.last.as_mut().expect("a last release is kept");
        assert_eq!(last.release, STREAM_CHECK_FIRST + 1);
        last.output[(2, 1)] += 1.0;
        stream.verify(&mut log);
        assert_eq!(log.failed, 1);
    }
}
