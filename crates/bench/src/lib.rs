//! `sqm-bench`: Criterion microbenchmarks (under `benches/`) plus the
//! perf-tracking library behind the `sqm-perf` binary:
//!
//! * [`perf`] — deterministic wall-clock suites and the versioned
//!   `BENCH_*.json` artifact schema.
//! * [`gate`] — the regression gate diffing fresh artifacts against the
//!   committed `bench/baseline.json`, plus its own self-test.
//! * [`history`] — the append-only `history.jsonl` median trend log and
//!   its sparkline rendering for the HTML report.
//!
//! Artifacts are read back with `sqm::obs::json` (the offline serde
//! stand-in only writes).

pub mod gate;
pub mod history;
pub mod perf;

pub use gate::{compare, gate_artifacts, Baseline, GateConfig, GateReport, Verdict};
pub use perf::{run_all, run_micro, run_mpc, run_serve, run_vfl, BenchArtifact, BenchEntry, Tier};
