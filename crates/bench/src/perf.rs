//! Deterministic wall-clock perf suites and the `BENCH_*.json` artifact
//! schema.
//!
//! Criterion benches (`benches/`) answer "how fast is this on my machine
//! right now"; this module answers "did it get slower since the committed
//! baseline". Three suites cover the paper's hot paths end to end:
//!
//! * `micro` — field arithmetic (M61 mul/inv/dot/dot4, M127 mul),
//!   stochastic quantization, Skellam sampling. Pure compute, no MPC.
//! * `mpc` — Shamir share/open and full GRR multiplication rounds through
//!   the BGW engine (in-process mesh, zero simulated latency), with the
//!   engine's own message/byte/simulated-time accounting attached.
//! * `vfl` — one covariance release and one logistic-regression
//!   gradient-sum epoch, each on both the in-process and the loopback-TCP
//!   backend.
//! * `serve` — the multi-tenant serving layer: a full seeded load run
//!   (sessions/sec) and the steady-state per-release latency through the
//!   scheduler.
//!
//! Every workload is seeded, so byte/message/round counts are exactly
//! reproducible run to run; only wall-clock varies. Each suite run is
//! summarized as a [`BenchArtifact`] (schema in one place, versioned by
//! [`SCHEMA_VERSION`]) and written as `BENCH_<suite>.json` for the
//! regression gate ([`crate::gate`]) to diff against `bench/baseline.json`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use sqm::core::quantize::quantize_vec;
use sqm::datasets::SpectralSpec;
use sqm::field::{PrimeField, M127, M61};
use sqm::mpc::shamir::{lagrange_at_zero, share_secret, share_secrets_batch};
use sqm::mpc::{MpcConfig, MpcEngine, RunStats};
use sqm::obs::live::Collector;
use sqm::obs::prof::Profiler;
use sqm::obs::trace::Trace;
use sqm::obs::{metrics, MessageDag, SpanConfig};
use sqm::sampling::skellam::sample_skellam_vec;
use sqm::serve::{load_tenant_config, run_load, LoadSpec, Reply, Request, Server, ServerConfig};
use sqm::vfl::{
    covariance_skellam, gradient_sum_skellam, ColumnPartition, LiveConfig, NetBackend, ProfConfig,
    VflConfig,
};

use sqm::obs::json::JsonValue;

/// Version of the `BENCH_*.json` schema; bump on any field change so the
/// gate can refuse to diff artifacts it does not understand.
pub const SCHEMA_VERSION: u64 = 1;

/// How hard to drive each workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Tier {
    /// CI-sized: seconds per suite.
    Small,
    /// Local: larger inputs, more repeats, tighter percentiles.
    Full,
}

impl Tier {
    pub fn name(self) -> &'static str {
        match self {
            Tier::Small => "small",
            Tier::Full => "full",
        }
    }

    /// Parse a `--suite small|full` argument value.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "small" => Some(Tier::Small),
            "full" => Some(Tier::Full),
            _ => None,
        }
    }

    fn warmup(self) -> usize {
        match self {
            Tier::Small => 1,
            Tier::Full => 3,
        }
    }

    fn repeats(self) -> usize {
        match self {
            Tier::Small => 7,
            Tier::Full => 15,
        }
    }
}

/// Deterministic cost counters attached to one workload execution:
/// the MPC engine's own accounting, or zero for pure-compute workloads.
#[derive(Copy, Clone, Debug, Default)]
pub struct RunCost {
    pub rounds: u64,
    pub messages: u64,
    pub bytes: u64,
    pub simulated: Duration,
    /// Latency-weighted critical path of the causal message DAG (zero for
    /// untraced or pure-compute workloads).
    pub critical_path: Duration,
}

impl RunCost {
    pub fn from_stats(stats: &RunStats) -> RunCost {
        RunCost {
            rounds: stats.total.rounds,
            messages: stats.total.messages,
            bytes: stats.total.bytes,
            simulated: stats.simulated_time(),
            critical_path: Duration::ZERO,
        }
    }

    /// Like [`RunCost::from_stats`], plus the critical path of the run's
    /// causal message DAG (requires the workload to run with tracing on).
    pub fn from_stats_and_trace(stats: &RunStats, trace: Option<&Trace>) -> RunCost {
        let mut cost = RunCost::from_stats(stats);
        if let Some(trace) = trace {
            cost.critical_path = MessageDag::build(trace).critical_path().total;
        }
        cost
    }
}

/// One benchmarked workload inside an artifact.
#[derive(Clone, Debug, Serialize)]
pub struct BenchEntry {
    pub name: String,
    /// Median wall-clock over `repeats` timed runs, nanoseconds.
    pub median_ns: u64,
    /// 95th percentile (nearest-rank) over the timed runs, nanoseconds.
    pub p95_ns: u64,
    pub repeats: u64,
    pub warmup: u64,
    /// Deterministic: synchronous protocol rounds (0 for pure compute).
    pub rounds: u64,
    /// Deterministic: total point-to-point messages (0 for pure compute).
    pub messages: u64,
    /// Deterministic: total payload bytes (0 for pure compute).
    pub bytes: u64,
    /// Simulated protocol time under the configured latency model, seconds
    /// (0 for pure compute). `wall + rounds * latency`, so the latency part
    /// is deterministic but the wall part is not — the gate compares this
    /// by ratio, while `rounds`/`messages`/`bytes` must match exactly.
    pub simulated_s: f64,
    /// Critical path of the causal message DAG, seconds (0 when the
    /// workload runs untraced). Same deterministic-latency/measured-wall
    /// mix as `simulated_s`, so the gate ratio-compares it — and only
    /// when both sides are non-zero, since older baselines predate the
    /// field.
    pub critical_path_s: f64,
}

/// One suite run: what `BENCH_<suite>.json` holds.
#[derive(Clone, Debug, Serialize)]
pub struct BenchArtifact {
    pub schema_version: u64,
    pub suite: String,
    pub tier: String,
    /// Commit hash from `SQM_COMMIT` (CI exports it); `"unknown"` locally.
    pub commit: String,
    pub created_unix_s: u64,
    /// Peak RSS of the whole process at artifact-write time (`VmHWM`);
    /// 0 where procfs is unavailable.
    pub peak_rss_bytes: u64,
    pub entries: Vec<BenchEntry>,
}

impl BenchArtifact {
    fn new(suite: &str, tier: Tier, entries: Vec<BenchEntry>) -> BenchArtifact {
        BenchArtifact {
            schema_version: SCHEMA_VERSION,
            suite: suite.to_string(),
            tier: tier.name().to_string(),
            commit: std::env::var("SQM_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
            created_unix_s: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            peak_rss_bytes: metrics::peak_rss_bytes().unwrap_or(0),
            entries,
        }
    }

    /// Entry lookup by workload name.
    pub fn entry(&self, name: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Rebuild an artifact from parsed JSON (the inverse of the derived
    /// `Serialize`, which the compat serde cannot provide).
    pub fn from_json(doc: &JsonValue) -> Result<BenchArtifact, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing field {key:?}"));
        let str_field = |key: &str| -> Result<String, String> {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field {key:?} is not a string"))
        };
        let u64_field = |doc: &JsonValue, key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("field {key:?} is not a non-negative integer"))
        };
        let schema_version = u64_field(doc, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (expected {SCHEMA_VERSION})"
            ));
        }
        let entries = field("entries")?
            .as_arr()
            .ok_or_else(|| "field \"entries\" is not an array".to_string())?
            .iter()
            .map(|e| -> Result<BenchEntry, String> {
                Ok(BenchEntry {
                    name: e
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| "entry missing string \"name\"".to_string())?
                        .to_string(),
                    median_ns: u64_field(e, "median_ns")?,
                    p95_ns: u64_field(e, "p95_ns")?,
                    repeats: u64_field(e, "repeats")?,
                    warmup: u64_field(e, "warmup")?,
                    rounds: u64_field(e, "rounds")?,
                    messages: u64_field(e, "messages")?,
                    bytes: u64_field(e, "bytes")?,
                    simulated_s: e
                        .get("simulated_s")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| "entry missing number \"simulated_s\"".to_string())?,
                    // Absent from pre-causal baselines: default 0 = "not
                    // measured", which the gate treats as non-comparable.
                    critical_path_s: e
                        .get("critical_path_s")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchArtifact {
            schema_version,
            suite: str_field("suite")?,
            tier: str_field("tier")?,
            commit: str_field("commit")?,
            created_unix_s: u64_field(doc, "created_unix_s")?,
            peak_rss_bytes: u64_field(doc, "peak_rss_bytes")?,
            entries,
        })
    }

    /// Write this artifact as `BENCH_<suite>.json` under `dir`
    /// (atomically: temp file + rename, so a crashed run never leaves a
    /// truncated artifact for the gate to choke on).
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        let mut body = self.to_json();
        body.push('\n');
        sqm::obs::atomic_write_str(&path, &body)?;
        Ok(path)
    }
}

/// Time `work` with `warmup` discarded runs then `repeats` timed runs;
/// summarize as median + nearest-rank p95. The workload's deterministic
/// cost counters are taken from the last run (they are identical across
/// runs by construction — seeded RNGs, fixed shapes).
pub fn measure(name: &str, tier: Tier, mut work: impl FnMut() -> RunCost) -> BenchEntry {
    let (warmup, repeats) = (tier.warmup(), tier.repeats());
    let mut cost = RunCost::default();
    for _ in 0..warmup {
        cost = black_box(work());
    }
    let mut samples_ns: Vec<u64> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        cost = black_box(work());
        samples_ns.push(t0.elapsed().as_nanos() as u64);
    }
    samples_ns.sort_unstable();
    let nearest = |p: f64| samples_ns[metrics::nearest_rank_index(samples_ns.len(), p)];
    BenchEntry {
        name: name.to_string(),
        median_ns: nearest(0.50),
        p95_ns: nearest(0.95),
        repeats: repeats as u64,
        warmup: warmup as u64,
        rounds: cost.rounds,
        messages: cost.messages,
        bytes: cost.bytes,
        simulated_s: cost.simulated.as_secs_f64(),
        critical_path_s: cost.critical_path.as_secs_f64(),
    }
}

/// `micro` suite: pure-compute kernels (no MPC, no I/O).
pub fn run_micro(tier: Tier) -> BenchArtifact {
    let n_ops = match tier {
        Tier::Small => 1 << 14,
        Tier::Full => 1 << 17,
    };
    let mut entries = Vec::new();

    entries.push(measure(&format!("m61_mul_x{n_ops}"), tier, || {
        let mut rng = StdRng::seed_from_u64(11);
        let xs: Vec<M61> = (0..n_ops).map(|_| M61::random(&mut rng)).collect();
        let mut acc = M61::ONE;
        for &x in &xs {
            acc *= x;
        }
        black_box(acc);
        RunCost::default()
    }));

    let n_inv = n_ops / 16; // inversion is ~60 squarings+muls per element
    entries.push(measure(&format!("m61_inv_x{n_inv}"), tier, || {
        let mut rng = StdRng::seed_from_u64(12);
        let xs: Vec<M61> = (0..n_inv).map(|_| M61::random(&mut rng)).collect();
        let mut acc = M61::ZERO;
        for &x in &xs {
            acc += x.inverse();
        }
        black_box(acc);
        RunCost::default()
    }));

    entries.push(measure(&format!("m127_mul_x{n_ops}"), tier, || {
        let mut rng = StdRng::seed_from_u64(13);
        let xs: Vec<M127> = (0..n_ops).map(|_| M127::random(&mut rng)).collect();
        let mut acc = M127::ONE;
        for &x in &xs {
            acc *= x;
        }
        black_box(acc);
        RunCost::default()
    }));

    entries.push(measure(&format!("quantize_x{n_ops}"), tier, || {
        let values: Vec<f64> = (0..n_ops).map(|i| (i as f64).sin()).collect();
        let mut rng = StdRng::seed_from_u64(14);
        black_box(quantize_vec(&mut rng, &values, 4096.0));
        RunCost::default()
    }));

    entries.push(measure(&format!("skellam_mu100_x{n_ops}"), tier, || {
        let mut rng = StdRng::seed_from_u64(15);
        black_box(sample_skellam_vec(&mut rng, 100.0, n_ops));
        RunCost::default()
    }));

    // The two field functions the covariance Gram kernel is built from, at
    // the paper's m = 1000 rows: one share column against `DOT_COLS` others
    // per timed run, inputs built outside the timed closure.
    const DOT_ROWS: usize = 1000;
    const DOT_COLS: usize = 256;
    let mut rng = StdRng::seed_from_u64(16);
    let mut column = || -> Vec<M61> { (0..DOT_ROWS).map(|_| M61::random(&mut rng)).collect() };
    let x = column();
    let cols: Vec<Vec<M61>> = (0..DOT_COLS).map(|_| column()).collect();

    entries.push(measure(&format!("m61_dot_x{DOT_ROWS}"), tier, || {
        let mut acc = M61::ZERO;
        for c in &cols {
            acc += M61::dot(black_box(&x), c);
        }
        black_box(acc);
        RunCost::default()
    }));

    entries.push(measure(&format!("m61_dot4_x{DOT_ROWS}"), tier, || {
        let mut acc = M61::ZERO;
        for c in cols.chunks_exact(4) {
            let sums = M61::dot4(black_box(&x), [&c[0], &c[1], &c[2], &c[3]]);
            acc += sums[0] + sums[1] + sums[2] + sums[3];
        }
        black_box(acc);
        RunCost::default()
    }));

    BenchArtifact::new("micro", tier, entries)
}

/// `mpc` suite: Shamir primitives and GRR multiplication rounds through
/// the BGW engine (in-process mesh, zero simulated latency).
pub fn run_mpc(tier: Tier) -> BenchArtifact {
    let (n_secrets, mul_len, mul_rounds) = match tier {
        Tier::Small => (1 << 10, 256, 4),
        Tier::Full => (1 << 13, 1024, 8),
    };
    let (n_parties, threshold) = (5usize, 2usize);
    let mut entries = Vec::new();

    entries.push(measure(
        &format!("shamir_share_n5_t2_x{n_secrets}"),
        tier,
        || {
            let mut rng = StdRng::seed_from_u64(21);
            let mut acc = M61::ZERO;
            for i in 0..n_secrets {
                let shares =
                    share_secret::<M61, _>(&mut rng, M61::from_u64(i), threshold, n_parties);
                acc += shares[0];
            }
            black_box(acc);
            RunCost::default()
        },
    ));

    // What the engine's open does: party-major shares recombined with the
    // Lagrange weights it builds once per run. Shares and weights are made
    // outside the timed closure.
    let secrets: Vec<M61> = (0..n_secrets).map(M61::from_u64).collect();
    let per_party = share_secrets_batch::<M61, _>(
        &mut StdRng::seed_from_u64(22),
        &secrets,
        threshold,
        n_parties,
        1,
        usize::MAX,
    );
    let weights = lagrange_at_zero::<M61>(&(0..n_parties).collect::<Vec<_>>());
    let recombine = || {
        let mut opened = vec![M61::ZERO; secrets.len()];
        for (&li, shares) in weights.iter().zip(&per_party) {
            for (o, &s) in opened.iter_mut().zip(shares) {
                *o += li * s;
            }
        }
        opened
    };
    assert_eq!(
        recombine(),
        secrets,
        "recombination must return the secrets"
    );
    entries.push(measure(
        &format!("shamir_open_n5_t2_x{n_secrets}"),
        tier,
        || {
            black_box(recombine());
            RunCost::default()
        },
    ));

    entries.push(measure(
        &format!("bgw_grr_mul_p4_len{mul_len}_r{mul_rounds}"),
        tier,
        || {
            let cfg = MpcConfig::semi_honest(4)
                .with_latency(Duration::from_millis(100))
                .with_seed(23);
            let run = MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
                let x = ctx.share_input(
                    0,
                    (ctx.id == 0)
                        .then(|| (0..mul_len as u64).map(M61::from_u64).collect::<Vec<_>>())
                        .as_deref(),
                    mul_len,
                );
                let mut y = x.clone();
                for _ in 0..mul_rounds {
                    y = ctx.mul(&y, &x);
                }
                ctx.open(&y)
            });
            black_box(&run.outputs);
            RunCost::from_stats(&run.stats)
        },
    ));

    BenchArtifact::new("mpc", tier, entries)
}

/// `vfl` suite: end-to-end covariance and LR-gradient releases over both
/// transport backends.
pub fn run_vfl(tier: Tier) -> BenchArtifact {
    let (m, n, p) = match tier {
        Tier::Small => (60, 8, 3),
        Tier::Full => (200, 16, 4),
    };
    let mut entries = Vec::new();

    for (backend_name, backend) in [
        ("inprocess", NetBackend::InProcess),
        ("tcp", NetBackend::tcp()),
    ] {
        // Traced: the engines stamp every message, so the entry carries
        // the causal critical path next to the virtual-clock total. The
        // stamps ride outside the byte accounting, so rounds/messages/
        // bytes stay identical to an untraced run.
        let cov_name = format!("covariance_{backend_name}_m{m}_n{n}_p{p}");
        let backend_cov = backend.clone();
        entries.push(measure(&cov_name, tier, || {
            let data = SpectralSpec::new(m, n).with_seed(31).generate();
            let partition = ColumnPartition::even(n, p);
            let cfg = VflConfig::new(p)
                .with_seed(32)
                .with_trace(true)
                .with_backend(backend_cov.clone());
            let out = covariance_skellam(&data, &partition, 18.0, 100.0, &cfg);
            black_box(&out.c_hat);
            RunCost::from_stats_and_trace(&out.stats, out.trace.as_ref())
        }));

        let lr_name = format!("logreg_grad_{backend_name}_m{m}_d{d}_p{p}", d = n - 1);
        entries.push(measure(&lr_name, tier, || {
            let data = SpectralSpec::new(m, n).with_seed(33).generate();
            let partition = ColumnPartition::even(n, p);
            let cfg = VflConfig::new(p)
                .with_seed(34)
                .with_trace(true)
                .with_backend(backend.clone());
            let batch: Vec<usize> = (0..m).collect();
            let w = vec![0.01; n - 1];
            let out = gradient_sum_skellam(&data, &partition, &batch, &w, 18.0, 100.0, &cfg);
            black_box(&out.grad_sum);
            RunCost::from_stats_and_trace(&out.stats, out.trace.as_ref())
        }));
    }

    // Same covariance workload with live telemetry streaming (aggregator
    // only, no HTTP endpoint): the gate's median-ratio rule on this entry
    // is the standing bound on publish-path overhead. One collector serves
    // every repeat, as a long-lived embedder's would.
    let live_name = format!("live_overhead_covariance_m{m}_n{n}_p{p}");
    let collector = Collector::new(LiveConfig::default()).expect("no endpoint to bind");
    entries.push(measure(&live_name, tier, || {
        let data = SpectralSpec::new(m, n).with_seed(31).generate();
        let partition = ColumnPartition::even(n, p);
        let cfg = VflConfig::new(p)
            .with_seed(32)
            .with_trace(true)
            .with_live(Some(collector.clone()));
        let out = covariance_skellam(&data, &partition, 18.0, 100.0, &cfg);
        black_box(&out.c_hat);
        RunCost::from_stats_and_trace(&out.stats, out.trace.as_ref())
    }));

    // Same covariance workload with the cost profiler attached: the gate's
    // 1.5x median rule on this entry is the standing bound on attribution
    // overhead (every exchange, masked sum and Skellam draw records
    // into the profile). The profile is this entry's own and goes with it.
    let prof_name = format!("prof_overhead_covariance_m{m}_n{n}_p{p}");
    let profiler = Profiler::new(ProfConfig::default().with_dir("results/perf"));
    entries.push(measure(&prof_name, tier, || {
        let data = SpectralSpec::new(m, n).with_seed(31).generate();
        let partition = ColumnPartition::even(n, p);
        let cfg = VflConfig::new(p)
            .with_seed(32)
            .with_trace(true)
            .with_prof(Some(profiler.clone()));
        let out = covariance_skellam(&data, &partition, 18.0, 100.0, &cfg);
        black_box(&out.c_hat);
        RunCost::from_stats_and_trace(&out.stats, out.trace.as_ref())
    }));

    // Message accounting at the paper's n = 31 covariance shape (round-2
    // width n(n+1)/2 = 496 at P = 4): one frame per link in round 1, one
    // per non-receiver in round 2, so the exact-diffed `messages` of this
    // entry pins 12 + 3 = 15 — a frame-codec
    // regression that quietly splits frames fails the gate even if
    // wall-clock is unchanged. The shape is fixed across tiers: it is the
    // acceptance point, not a load knob.
    let (bm, bn, bp) = (40usize, 31usize, 4usize);
    entries.push(measure(
        &format!("covariance_batched_m{bm}_n{bn}_p{bp}"),
        tier,
        move || {
            let data = SpectralSpec::new(bm, bn).with_seed(35).generate();
            let partition = ColumnPartition::even(bn, bp);
            let cfg = VflConfig::new(bp).with_seed(36);
            let out = covariance_skellam(&data, &partition, 18.0, 100.0, &cfg);
            black_box(&out.c_hat);
            RunCost::from_stats(&out.stats)
        },
    ));

    BenchArtifact::new("vfl", tier, entries)
}

/// The `serve` suite: the multi-tenant serving layer end to end.
///
/// * `serve_load_*` — a full seeded closed-loop load run (tenant
///   creation, concurrent drivers, budget refusals, drain shutdown) per
///   repeat; the entry's `median_ns / (tenants * rounds)` is the
///   sessions/sec figure, and the exact-diffed counters pin the admitted
///   release count (`rounds`), the admitted+refused total (`messages`)
///   and the released bytes — so a scheduler or odometer regression that
///   changes *what* was served fails the gate even if wall-clock is fine.
/// * `slo_overhead_*` — the same load workload with request tracing on
///   (span collector, traced tenants, causal DAG per release); its gate
///   pins the cost of the observability layer, and its counters must
///   equal the untraced entry's (tracing is passive).
/// * `serve_release_*` — one ingest+release round against a long-lived
///   server, so the median/p95 percentiles are per-release latency
///   through the scheduler (queueing included); counters come from the
///   release's own MPC `RunStats`.
pub fn run_serve(tier: Tier) -> BenchArtifact {
    let mut spec = LoadSpec::smoke();
    if tier == Tier::Full {
        spec.tenants = 6;
        spec.rounds = 8;
        spec.rows_per_batch = 8;
    }
    let mut entries = Vec::new();

    let load_name = format!(
        "serve_load_t{}_r{}_p{}",
        spec.tenants, spec.rounds, spec.n_clients
    );
    let load_spec = spec.clone();
    entries.push(measure(&load_name, tier, || {
        let server = Server::start(ServerConfig {
            queue_bound: 64,
            workers: 4,
            tracing: None,
        });
        let report = run_load(&server, &load_spec);
        server.shutdown();
        black_box(report.digest());
        RunCost {
            rounds: report.releases_admitted() as u64,
            messages: (report.releases_admitted() + report.budget_refusals()) as u64,
            bytes: report
                .per_tenant
                .iter()
                .map(|t| t.checksums.len() * load_spec.n_cols * load_spec.n_cols * 8)
                .sum::<usize>() as u64,
            simulated: Duration::ZERO,
            critical_path: Duration::ZERO,
        }
    }));

    // Tracing overhead: the identical load workload with request tracing
    // on end to end (span collector, traced tenants, causal DAG builds on
    // every release). Gated at the same 1.5x median rule, so "span
    // recording stays cheap" is a pinned property — and the exact-diffed
    // counters must equal the untraced load entry's, re-asserting that
    // tracing is passive on every bench run.
    let slo_name = format!(
        "slo_overhead_t{}_r{}_p{}",
        spec.tenants, spec.rounds, spec.n_clients
    );
    let slo_spec = LoadSpec {
        tracing: true,
        ..spec.clone()
    };
    entries.push(measure(&slo_name, tier, || {
        let server = Server::start(ServerConfig {
            queue_bound: 64,
            workers: 4,
            tracing: Some(SpanConfig::default()),
        });
        let report = run_load(&server, &slo_spec);
        let snap = server.spans().expect("tracing configured").snapshot();
        server.shutdown();
        black_box(report.digest());
        black_box(snap.total_requests);
        RunCost {
            rounds: report.releases_admitted() as u64,
            messages: (report.releases_admitted() + report.budget_refusals()) as u64,
            bytes: report
                .per_tenant
                .iter()
                .map(|t| t.checksums.len() * slo_spec.n_cols * slo_spec.n_cols * 8)
                .sum::<usize>() as u64,
            simulated: Duration::ZERO,
            critical_path: Duration::ZERO,
        }
    }));

    // Long-lived server: warmup + repeats all hit the same session, so
    // this measures the steady-state release path (amortized streaming
    // statistics, reused mesh), not session setup.
    let server = Server::start(ServerConfig {
        queue_bound: 64,
        workers: 2,
        tracing: None,
    });
    let mut tenant = load_tenant_config(&spec, 0);
    tenant.name = "bench-release".to_string();
    tenant.budget_eps = f64::INFINITY; // latency entry never hits the budget
    tenant.max_rows = 10_000;
    server.add_tenant(tenant).expect("bench tenant");
    let rel_name = format!("serve_release_n{}_p{}", spec.n_cols, spec.n_clients);
    let mut round = 0u64;
    entries.push(measure(&rel_name, tier, || {
        // Fresh deterministic rows each round (seeded by the round index).
        let mut rng = StdRng::seed_from_u64(0x5E54_0000 + round);
        round += 1;
        let records: Vec<Vec<f64>> = (0..spec.rows_per_batch)
            .map(|_| {
                (0..spec.n_cols)
                    .map(|_| rand::Rng::gen_range(&mut rng, -0.5..0.5))
                    .collect()
            })
            .collect();
        match server.call("bench-release", Request::Ingest { records }) {
            Ok(_) => {}
            Err(e) => panic!("bench ingest failed: {e}"),
        }
        match server.call("bench-release", Request::Release) {
            Ok(Reply::Released(rel)) => {
                black_box(&rel.covariance);
                let mut cost = RunCost::from_stats(&rel.stats);
                // The serving config runs at zero simulated latency, so
                // `simulated_time` degenerates to measured party wall
                // clock — not deterministic, not diffable. The wall-clock
                // percentiles above already carry the timing signal.
                cost.simulated = Duration::ZERO;
                cost
            }
            other => panic!("bench release failed: {other:?}"),
        }
    }));
    server.shutdown();

    BenchArtifact::new("serve", tier, entries)
}

/// Run every suite at `tier`, in a fixed order.
pub fn run_all(tier: Tier) -> Vec<BenchArtifact> {
    vec![
        run_micro(tier),
        run_mpc(tier),
        run_vfl(tier),
        run_serve(tier),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm::obs::json;

    #[test]
    fn measure_summarizes_and_keeps_costs() {
        let mut calls = 0u64;
        let entry = measure("toy", Tier::Small, || {
            calls += 1;
            std::hint::black_box((0..1000u64).sum::<u64>());
            RunCost {
                rounds: 3,
                messages: 7,
                bytes: 99,
                simulated: Duration::from_millis(250),
                critical_path: Duration::from_millis(260),
            }
        });
        assert_eq!(calls, 1 + 7); // warmup + repeats at Small
        assert_eq!(entry.repeats, 7);
        assert_eq!(entry.warmup, 1);
        assert!(entry.median_ns > 0);
        assert!(entry.p95_ns >= entry.median_ns);
        assert_eq!(entry.rounds, 3);
        assert_eq!(entry.messages, 7);
        assert_eq!(entry.bytes, 99);
        assert!((entry.simulated_s - 0.25).abs() < 1e-12);
        assert!((entry.critical_path_s - 0.26).abs() < 1e-12);
    }

    #[test]
    fn artifact_json_roundtrip() {
        let artifact = BenchArtifact::new(
            "unit",
            Tier::Small,
            vec![measure("noop", Tier::Small, RunCost::default)],
        );
        let doc = json::parse(&artifact.to_json()).unwrap();
        let back = BenchArtifact::from_json(&doc).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.suite, "unit");
        assert_eq!(back.tier, "small");
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].name, "noop");
        assert_eq!(back.entries[0].median_ns, artifact.entries[0].median_ns);
    }

    #[test]
    fn mpc_suite_costs_are_deterministic_and_nonzero() {
        // GRR rounds through the real engine: accounting must be attached
        // and identical across two runs (seeded workload).
        let a = run_mpc(Tier::Small);
        let b = run_mpc(Tier::Small);
        let mul_a = a.entry("bgw_grr_mul_p4_len256_r4").unwrap();
        let mul_b = b.entry("bgw_grr_mul_p4_len256_r4").unwrap();
        assert!(mul_a.rounds > 0 && mul_a.messages > 0 && mul_a.bytes > 0);
        // The latency component dominates: 100ms per round.
        assert!(mul_a.simulated_s >= 0.1 * mul_a.rounds as f64);
        assert_eq!(mul_a.rounds, mul_b.rounds);
        assert_eq!(mul_a.messages, mul_b.messages);
        assert_eq!(mul_a.bytes, mul_b.bytes);
    }
}
