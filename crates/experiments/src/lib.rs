//! Shared plumbing for the experiment binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! `DESIGN.md` for the index) and accepts:
//!
//! * `--paper` — run at the paper's full dataset sizes (default: laptop
//!   scale, which regenerates every figure in minutes);
//! * `--runs N` — number of independent repetitions to average (paper: 20);
//! * `--seed S` — base RNG seed;
//! * `--trace` (or `SQM_TRACE=1`) — enable the observability layer:
//!   metrics recording plus, for the timing tables, per-phase trace
//!   exports into `results/` (JSONL + Chrome trace-event JSON);
//! * `--live [addr]` (or `SQM_LIVE=1` / `SQM_LIVE=addr`) — stream live
//!   telemetry while the run executes: Prometheus text at
//!   `http://<addr>/metrics`, a JSON snapshot at `/snapshot`, a stall
//!   watchdog, and a crash flight recorder (default addr
//!   `127.0.0.1:9184`);
//! * `--prof` (or `SQM_PROF=1`) — attach the deterministic cost profiler
//!   (`sqm_obs::prof`): collapsed-stack attribution of every MPC round,
//!   masked sum, degree reduction and Skellam draw, and
//!   seed-deterministic `results/prof_<seed>.{folded,json,html}` artifacts
//!   dumped at exit. Release bits are identical with or without it.
#![forbid(unsafe_code)]

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm::datasets::Scale;
use sqm::obs::live::{Collector, LiveConfig};
use sqm::obs::prof::{ProfConfig, Profiler};

/// Default bind address for `--live` without an explicit value.
pub const DEFAULT_LIVE_ADDR: &str = "127.0.0.1:9184";

/// Parsed common CLI options.
#[derive(Clone, Debug)]
pub struct ExpOptions {
    pub scale: Scale,
    pub runs: usize,
    pub seed: u64,
    /// Include the most expensive configurations (e.g. n = 2500 in
    /// Table II).
    pub full: bool,
    /// Observability on: record metrics and export traces.
    pub trace: bool,
    /// Live-telemetry bind address (`--live [addr]` / `SQM_LIVE`).
    pub live: Option<String>,
    /// Cost profiler on (`--prof` / `SQM_PROF=1`).
    pub prof: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: Scale::Laptop,
            runs: 3,
            seed: 0,
            full: false,
            trace: std::env::var("SQM_TRACE").ok().as_deref() == Some("1"),
            live: live_addr_from_env(),
            prof: std::env::var("SQM_PROF").ok().as_deref() == Some("1"),
        }
    }
}

/// The live-telemetry bind address requested through `SQM_LIVE`:
/// unset/empty/`0` means off, `1` means the default loopback address,
/// anything else is taken as the address itself.
pub fn live_addr_from_env() -> Option<String> {
    match std::env::var("SQM_LIVE").ok().as_deref() {
        None | Some("") | Some("0") => None,
        Some("1") => Some(DEFAULT_LIVE_ADDR.to_string()),
        Some(addr) => Some(addr.to_string()),
    }
}

/// The collector behind `--live`: one handle for the process, attached to
/// every config the harness builds.
static LIVE: OnceLock<Option<Arc<Collector>>> = OnceLock::new();

/// The live collector selected by [`parse_options`] (`None` when `--live`
/// was not requested). The timing harness attaches this to every
/// `VflConfig` it builds, so watchdog run-bracketing and flight-recorder
/// dumps follow the workload without each binary threading the flag
/// through by hand.
pub fn live_handle() -> Option<Arc<Collector>> {
    LIVE.get().cloned().flatten()
}

/// The profiler behind `--prof`, likewise one handle for the process.
static PROF: OnceLock<Option<Arc<Profiler>>> = OnceLock::new();

/// The cost profiler selected by [`parse_options`] (`None` when `--prof`
/// was not requested). The timing harness attaches this to every
/// `VflConfig` it builds, so attribution follows the workload without each
/// binary threading the flag through by hand; artifacts land in
/// `results/prof_<seed>.*` via [`obsout::dump_prof`].
pub fn prof_handle() -> Option<Arc<Profiler>> {
    PROF.get().cloned().flatten()
}

/// Create the process's cost profiler when `--prof` asked for one. First
/// call wins, mirroring [`install_live`].
pub fn install_prof(enabled: bool) {
    PROF.get_or_init(|| enabled.then(|| Profiler::new(ProfConfig::default().with_dir("results"))));
}

/// Parse the common flags from `std::env::args`.
///
/// When tracing is requested (via `--trace` or `SQM_TRACE=1`) this also
/// switches the global metrics registry on. When live telemetry is
/// requested (`--live [addr]` / `SQM_LIVE`), the process's collector is
/// started and its HTTP endpoint bound before any workload starts.
pub fn parse_options() -> ExpOptions {
    let mut opts = ExpOptions::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--paper" => opts.scale = Scale::Paper,
            "--full" => opts.full = true,
            "--trace" => opts.trace = true,
            "--prof" => opts.prof = true,
            "--live" => {
                // Optional value: `--live 0.0.0.0:9200` binds there,
                // bare `--live` uses the default loopback address.
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        opts.live = Some(v.clone());
                        i += 1;
                    }
                    _ => opts.live = Some(DEFAULT_LIVE_ADDR.to_string()),
                }
            }
            "--runs" => {
                i += 1;
                opts.runs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--runs needs a positive integer");
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            other => panic!(
                "unknown flag {other} (expected --paper, --full, --trace, --prof, \
                 --live [addr], --runs N, --seed S)"
            ),
        }
        i += 1;
    }
    if opts.trace {
        sqm::obs::metrics::set_enabled(true);
    }
    install_live(opts.live.as_deref());
    install_prof(opts.prof);
    opts
}

/// Start the process's live collector (and bind its HTTP endpoint) for the
/// given `--live` address, keeping the handle for [`live_handle`]. A `None`
/// address records "live off". First call wins.
pub fn install_live(addr: Option<&str>) {
    LIVE.get_or_init(|| {
        let addr = addr?;
        let config = LiveConfig::default().with_addr(addr);
        let collector = Collector::new(config.clone()).or_else(|e| {
            eprintln!("[live] bind {addr} failed ({e}); telemetry aggregates without serving");
            Collector::new(LiveConfig {
                addr: None,
                ..config
            })
        });
        let collector = collector.expect("a collector without an endpoint binds nothing");
        if let Some(bound) = collector.bound_addr() {
            eprintln!("[live] serving http://{bound}/metrics and http://{bound}/snapshot");
        }
        Some(collector)
    });
}

/// The RNG one mechanism draws from for one cell of a figure, keyed by
/// (base seed, mechanism, epsilon, run, dataset). Each mechanism gets the
/// same numbers whatever the others in its row draw, so a change to one
/// mechanism moves only that mechanism's column.
pub fn cell_rng(seed: u64, mechanism: &str, eps: f64, run: u64, dataset: &str) -> StdRng {
    // FNV-1a over the key's bytes; names end in 0xFF so the fields cannot
    // run into each other.
    let mut key: Vec<u8> = seed.to_le_bytes().to_vec();
    key.extend(mechanism.bytes().chain([0xFF]));
    key.extend(eps.to_bits().to_le_bytes());
    key.extend(run.to_le_bytes());
    key.extend(dataset.bytes().chain([0xFF]));
    let hash = key.into_iter().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    StdRng::seed_from_u64(hash)
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty());
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() == 1 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Render `mean +/- std` compactly.
pub fn fmt_pm(mean: f64, std: f64) -> String {
    format!("{mean:10.4} ±{std:7.4}")
}

/// A right-aligned header row.
pub fn header(cols: &[&str]) -> String {
    cols.iter()
        .map(|c| format!("{c:>20}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Timing harness for the paper's Tables II, IV and V: run the BGW-backed
/// PCA / LR workloads and report simulated times under the 0.1 s/hop model.
pub mod timing {
    use std::time::Duration;

    use sqm::datasets::SpectralSpec;
    use sqm::mpc::RunStats;
    use sqm::obs::trace::Trace;
    use sqm::vfl::covariance::covariance_skellam;
    use sqm::vfl::gradient::gradient_sum_skellam;
    use sqm::vfl::{ColumnPartition, VflConfig};

    /// One timing measurement: overall and DP-noise simulated seconds (the
    /// DP-noise phase is local sampling only — it owns no round and no bytes),
    /// plus the full per-phase stats and (when tracing) the merged trace.
    #[derive(Clone, Debug)]
    pub struct Timing {
        pub overall: Duration,
        pub dp_noise: Duration,
        pub rounds: u64,
        pub megabytes: f64,
        pub stats: RunStats,
        pub trace: Option<Trace>,
    }

    fn cfg(p: usize, seed: u64, trace: bool) -> VflConfig {
        VflConfig::new(p)
            .with_latency(Duration::from_millis(100))
            .with_seed(seed)
            .with_trace(trace)
            .with_live(crate::live_handle())
            .with_prof(crate::prof_handle())
    }

    fn timing(stats: RunStats, trace: Option<Trace>) -> Timing {
        Timing {
            overall: stats.simulated_time(),
            dp_noise: stats.phase_time("dp_noise"),
            rounds: stats.total.rounds,
            megabytes: stats.total.bytes as f64 / (1024.0 * 1024.0),
            stats,
            trace,
        }
    }

    /// Time the PCA covariance workload (the paper's gamma = 18).
    pub fn time_pca(m: usize, n: usize, p: usize, seed: u64, trace: bool) -> Timing {
        let data = SpectralSpec::new(m, n).with_seed(seed).generate();
        let partition = ColumnPartition::even(n, p);
        let out = covariance_skellam(&data, &partition, 18.0, 100.0, &cfg(p, seed, trace));
        timing(out.stats, out.trace)
    }

    /// Time one full-dataset LR gradient computation (the paper times the
    /// per-epoch gradient pass).
    pub fn time_lr(m: usize, n: usize, p: usize, seed: u64, trace: bool) -> Timing {
        let d = n - 1;
        let data = SpectralSpec::new(m, n).with_seed(seed).generate();
        let partition = ColumnPartition::even(n, p);
        let batch: Vec<usize> = (0..m).collect();
        let w = vec![0.01; d];
        let out = gradient_sum_skellam(
            &data,
            &partition,
            &batch,
            &w,
            18.0,
            100.0,
            &cfg(p, seed, trace),
        );
        timing(out.stats, out.trace)
    }
}

/// Observability artifact writers for the experiment binaries.
///
/// Everything lands in `results/` next to the plotted CSVs: per-run MPC
/// stats as JSON (always), plus — when a trace was recorded — a JSONL
/// event log, a Chrome trace-event file (load it in Perfetto or
/// `chrome://tracing`), an HTML run report, and the run's per-phase
/// `RunStats` table on stdout.
pub mod obsout {
    use std::fs;
    use std::io;
    use std::path::PathBuf;

    use serde::Serialize as _;
    use sqm::mpc::RunStats;
    use sqm::obs::trace::Trace;
    use sqm::obs::{
        atomic_write, atomic_write_str, chrome_trace_json, critical_path, html_report, metrics,
        write_jsonl,
    };

    /// The `results/` directory, created on first use.
    pub fn results_dir() -> PathBuf {
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir).expect("cannot create results/");
        dir
    }

    /// Dump one run's stats (and trace artifacts, when recorded) under
    /// `results/<name>.*`; returns the paths written.
    pub fn dump_run(
        name: &str,
        stats: &RunStats,
        trace: Option<&Trace>,
    ) -> io::Result<Vec<PathBuf>> {
        let dir = results_dir();
        let mut written = Vec::new();
        let stats_path = dir.join(format!("{name}.stats.json"));
        // When the trace kept round records, the stats JSON gains a
        // `critical_path` section (total, per-party idle/compute, walked
        // segments) computed over the flows read off them.
        let mut stats_json = stats.to_json();
        if let Some(trace) = trace.filter(|t| t.parties.iter().any(|p| !p.rounds.is_empty())) {
            let cp = critical_path(trace);
            debug_assert!(stats_json.ends_with('}'));
            stats_json.truncate(stats_json.len() - 1);
            stats_json.push_str(",\"critical_path\":");
            stats_json.push_str(&cp.to_json());
            stats_json.push('}');
        }
        atomic_write_str(&stats_path, &stats_json)?;
        written.push(stats_path);
        if let Some(trace) = trace {
            let jsonl_path = dir.join(format!("{name}.trace.jsonl"));
            let mut buf = Vec::new();
            write_jsonl(trace, &mut buf)?;
            atomic_write(&jsonl_path, &buf)?;
            written.push(jsonl_path);
            let chrome_path = dir.join(format!("{name}.chrome.json"));
            atomic_write_str(&chrome_path, &chrome_trace_json(trace))?;
            written.push(chrome_path);
            let html_path = dir.join(format!("{name}.report.html"));
            let snapshot = metrics::is_enabled().then(metrics::snapshot);
            atomic_write_str(
                &html_path,
                &html_report(name, trace, None, snapshot.as_ref(), None, None),
            )?;
            written.push(html_path);
            println!("[trace {name}]");
            println!("{stats}");
        }
        Ok(written)
    }

    /// Snapshot the metrics registry into `results/<name>.metrics.json`
    /// (no-op unless metrics were enabled via `--trace` / `SQM_TRACE=1`).
    /// Also flushes the cost profiler's artifacts when `--prof` is active,
    /// so every binary that dumps metrics gets `prof_<seed>.*` for free.
    pub fn dump_metrics(name: &str) -> io::Result<Option<PathBuf>> {
        dump_prof()?;
        if !metrics::is_enabled() {
            return Ok(None);
        }
        let path = results_dir().join(format!("{name}.metrics.json"));
        atomic_write_str(&path, &metrics::snapshot().to_json())?;
        println!("[metrics] wrote {}", path.display());
        Ok(Some(path))
    }

    /// Flush the cost profiler (no-op when `--prof` / `SQM_PROF=1` was not
    /// requested): writes the seed-deterministic
    /// `results/prof_<seed>.{folded,json,html}` triple and prints the
    /// top-weight attribution summary.
    pub fn dump_prof() -> io::Result<Vec<PathBuf>> {
        let Some(prof) = crate::prof_handle() else {
            return Ok(Vec::new());
        };
        let written = prof.dump()?;
        if !written.is_empty() {
            println!("[prof]");
            println!("{}", sqm::obs::prof::render_summary(&prof.snapshot(), 12));
            for p in &written {
                println!("[prof] wrote {}", p.display());
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_smoke() {
        let t = timing::time_pca(20, 8, 4, 0, false);
        assert!(t.overall >= t.dp_noise);
        assert_eq!(t.rounds, 2);
        assert!(t.trace.is_none());
        let t = timing::time_lr(20, 9, 4, 0, false);
        assert!(t.overall > std::time::Duration::ZERO);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        let (m1, s1) = mean_std(&[5.0]);
        assert_eq!((m1, s1), (5.0, 0.0));
    }

    #[test]
    fn defaults() {
        let o = ExpOptions::default();
        assert_eq!(o.runs, 3);
        assert!(!o.full);
    }
}
