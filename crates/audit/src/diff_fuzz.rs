//! Differential backend fuzzing: one release, every execution path,
//! bit-identical or a typed error.
//!
//! The MPC party threads derive **all** their randomness from documented
//! per-party streams of `VflConfig::seed()`, which makes the secure
//! protocols exactly replayable in plaintext:
//! [`sqm_vfl::covariance_quantized_oracle`] predicts the opened integer
//! covariance of [`sqm_vfl::try_covariance_skellam`] bit-for-bit. The
//! fuzzer sweeps a seeded grid of `(seed, P, m, n, gamma, mu)` workloads
//! across the execution axes —
//!
//! * **in-process channels** vs **loopback TCP** (`NetBackend`),
//! * fault-free vs **delay** / **drop-with-retransmit** / **crash**
//!   injection (`FaultSpec`),
//! * three protocol layers: the covariance release against its oracle,
//!   and the **column-sum** release (two rounds, no multiplication) and a
//!   **generic** degree-2 polynomial (the GRR circuit evaluator) each
//!   against its own fault-free in-process run,
//!
//! and asserts the invariant from the network layer's design: faults
//! perturb *timing*, never *payloads*. Every completing run must equal
//! its reference exactly (integer outputs — no tolerance), every crashed
//! run must surface a typed [`TransportError`], and nothing may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use sqm_core::polynomial::{Monomial, Polynomial};
use sqm_linalg::Matrix;
use sqm_mpc::{FaultSpec, NetBackend};
use sqm_vfl::{
    column_sums_skellam, covariance_quantized_oracle, eval_polynomial_skellam,
    try_covariance_skellam, ColumnPartition, VflConfig,
};

use crate::AuditConfig;

/// One fuzzed execution.
#[derive(Clone, Debug, Serialize)]
pub struct FuzzCase {
    pub id: u64,
    pub seed: u64,
    pub workload: String,
    pub n_clients: usize,
    pub records: usize,
    pub cols: usize,
    pub gamma: f64,
    pub mu: f64,
    /// `"in_process"` or `"tcp"`.
    pub backend: String,
    /// `"none"`, `"delay"`, `"drop"` or `"crash"`.
    pub fault: String,
    /// `"match"`, `"typed_error"`, `"divergence"` or `"panic"`.
    pub outcome: String,
    /// `TransportError::kind()` when a typed error surfaced.
    pub error_kind: Option<String>,
}

/// Aggregate fuzzing outcome.
#[derive(Clone, Debug, Serialize)]
pub struct FuzzSummary {
    pub cases: usize,
    pub matches: usize,
    pub typed_errors: usize,
    pub divergences: usize,
    pub panics: usize,
    pub results: Vec<FuzzCase>,
}

impl FuzzSummary {
    /// Every completing run matched the oracle, every crash surfaced as a
    /// typed error, and nothing panicked.
    pub fn passed(&self) -> bool {
        self.divergences == 0 && self.panics == 0
    }
}

fn random_data(rng: &mut StdRng, m: usize, n: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..m)
        .map(|_| (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect())
        .collect();
    Matrix::from_rows(&rows)
}

/// Run one covariance case and classify its outcome.
fn run_covariance_case(case: &mut FuzzCase, data: &Matrix, cfg: &VflConfig) {
    let partition = ColumnPartition::even(case.cols, case.n_clients);
    let oracle = covariance_quantized_oracle(data, &partition, case.gamma, case.mu, cfg);
    let crash_expected = case.fault == "crash";
    let result = catch_unwind(AssertUnwindSafe(|| {
        try_covariance_skellam(data, &partition, case.gamma, case.mu, cfg)
    }));
    match result {
        Err(_) => case.outcome = "panic".to_string(),
        Ok(Ok(out)) => {
            if crash_expected {
                // A crash at round 1 must never complete.
                case.outcome = "divergence".to_string();
            } else if out.c_hat == oracle {
                case.outcome = "match".to_string();
            } else {
                case.outcome = "divergence".to_string();
            }
        }
        Ok(Err(e)) => {
            case.error_kind = Some(e.kind().to_string());
            case.outcome = if crash_expected {
                "typed_error".to_string()
            } else {
                "divergence".to_string()
            };
        }
    }
}

/// What a `column_sums` or `generic` case releases under `cfg`.
fn release(case: &FuzzCase, data: &Matrix, cfg: &VflConfig) -> Vec<f64> {
    let partition = ColumnPartition::even(case.cols, case.n_clients);
    if case.workload == "column_sums" {
        return column_sums_skellam(data, &partition, case.gamma, case.mu, cfg).sums_hat;
    }
    // Sum over records of x0 * x1: input, one GRR layer, masked sum.
    let product = Monomial::new(1.0, vec![(0, 1), (1, 1)]);
    let poly = Polynomial::one_dimensional(case.cols, vec![product]);
    eval_polynomial_skellam(&poly, data, &partition, case.gamma, case.mu, cfg).0
}

/// Cross-path case: the release under the case's backend and faults must
/// equal, bit for bit, the same seed's fault-free in-process run.
fn run_cross_path_case(case: &mut FuzzCase, data: &Matrix, cfg: &VflConfig) {
    let clean = VflConfig::fast(case.n_clients).with_seed(case.seed);
    let result = catch_unwind(AssertUnwindSafe(|| {
        release(case, data, cfg) == release(case, data, &clean)
    }));
    case.outcome = match result {
        Err(_) => "panic".to_string(),
        Ok(true) => "match".to_string(),
        Ok(false) => "divergence".to_string(),
    };
}

/// Sweep the seeded configuration grid for the configured tier.
pub fn run_diff_fuzz(cfg: &AuditConfig) -> FuzzSummary {
    let n_cases = cfg.fuzz_cases();
    let mut gen = StdRng::seed_from_u64(cfg.seed ^ 0xF0_22_2E_11);
    let mut results = Vec::with_capacity(n_cases);

    for id in 0..n_cases as u64 {
        let n_clients = gen.gen_range(2usize..=4);
        let cols = n_clients + gen.gen_range(0usize..=2);
        let records = gen.gen_range(3usize..=6);
        let gamma = [16.0, 64.0, 256.0][gen.gen_range(0usize..3)];
        let mu = [0.0, 4.0, 100.0][gen.gen_range(0usize..3)];
        let seed = gen.gen::<u64>();
        let workload = match id % 5 {
            3 => "generic",
            4 => "column_sums",
            _ => "covariance",
        };
        let (backend_name, backend) = if id % 2 == 1 {
            ("tcp", NetBackend::tcp())
        } else {
            ("in_process", NetBackend::InProcess)
        };
        // Only the covariance entry point is fallible, so only it takes
        // crashes; `id / 5` walks the other workloads through every
        // backend x fault pair.
        let fault = if workload == "covariance" {
            ["none", "delay", "drop", "crash"][(id % 4) as usize]
        } else {
            ["none", "delay", "drop"][(id / 5 % 3) as usize]
        };
        let faults = match fault {
            "delay" => Some(
                FaultSpec::seeded(seed ^ 0xFA)
                    .with_delay(Duration::ZERO, Duration::from_micros(500)),
            ),
            "drop" => Some(
                FaultSpec::seeded(seed ^ 0xFB)
                    .with_drop(0.25)
                    .with_retransmit(Duration::from_micros(200), 10),
            ),
            "crash" => {
                Some(FaultSpec::seeded(seed ^ 0xFC).with_crash((id % n_clients as u64) as usize, 1))
            }
            _ => None,
        };
        let vfl_cfg = VflConfig::fast(n_clients)
            .with_seed(seed)
            .with_backend(backend)
            .with_faults(faults);

        let mut case = FuzzCase {
            id,
            seed,
            workload: workload.to_string(),
            n_clients,
            records,
            cols,
            gamma,
            mu,
            backend: backend_name.to_string(),
            fault: fault.to_string(),
            outcome: String::new(),
            error_kind: None,
        };
        let data = random_data(&mut gen, records, cols);
        match workload {
            "covariance" => run_covariance_case(&mut case, &data, &vfl_cfg),
            _ => run_cross_path_case(&mut case, &data, &vfl_cfg),
        }
        results.push(case);
    }

    let count = |outcome: &str| results.iter().filter(|c| c.outcome == outcome).count();
    FuzzSummary {
        cases: results.len(),
        matches: count("match"),
        typed_errors: count("typed_error"),
        divergences: count("divergence"),
        panics: count("panic"),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tier;

    /// The fast-tier sweep, run once and shared between tests (each case
    /// is a real MPC run; no need to pay for the sweep twice).
    fn small_sweep() -> &'static FuzzSummary {
        use std::sync::OnceLock;
        static SWEEP: OnceLock<FuzzSummary> = OnceLock::new();
        SWEEP.get_or_init(|| run_diff_fuzz(&AuditConfig::new(0xA0D1_7003, Tier::Fast)))
    }

    #[test]
    fn sweep_has_zero_divergences_and_panics() {
        let summary = small_sweep();
        assert!(summary.cases >= 50, "acceptance floor: >= 50 configs");
        let bad: Vec<&FuzzCase> = summary
            .results
            .iter()
            .filter(|c| c.outcome == "divergence" || c.outcome == "panic")
            .collect();
        assert!(bad.is_empty(), "divergent cases: {bad:?}");
        assert!(summary.passed());
        assert_eq!(
            summary.matches + summary.typed_errors,
            summary.cases,
            "every case must be accounted for"
        );
    }

    #[test]
    fn sweep_covers_every_axis() {
        let summary = small_sweep();
        let has = |f: &dyn Fn(&&FuzzCase) -> bool| summary.results.iter().any(|c| f(&c));
        assert!(has(&|c| c.backend == "tcp"));
        assert!(has(&|c| c.backend == "in_process"));
        for fault in ["none", "delay", "drop", "crash"] {
            assert!(has(&|c| c.fault == fault), "no {fault} case");
        }
        for workload in ["column_sums", "generic"] {
            for backend in ["in_process", "tcp"] {
                for fault in ["none", "delay", "drop"] {
                    let hit = has(&|c| {
                        c.workload == workload && c.backend == backend && c.fault == fault
                    });
                    assert!(hit, "no {workload} case on {backend} with fault {fault}");
                }
            }
        }
        // Every crash case surfaced the root-cause error.
        for c in summary.results.iter().filter(|c| c.fault == "crash") {
            assert_eq!(c.outcome, "typed_error", "{c:?}");
            assert_eq!(c.error_kind.as_deref(), Some("crashed"), "{c:?}");
        }
    }
}
