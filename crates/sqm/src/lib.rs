//! # SQM: the Skellam Quantization Mechanism for Vertical Federated Learning
//!
//! A full implementation of *"Towards Learning on Vertically Partitioned
//! Data with Distributed Differential Privacy"* (ICDE 2025): distributed-DP
//! evaluation of polynomial functions over vertically partitioned data with
//! **no trusted party**, achieving privacy-utility trade-offs comparable to
//! centralized DP.
//!
//! ## How it works
//!
//! 1. Each client **quantizes** its private columns: scale by `gamma`,
//!    stochastically round to integers ([`core::quantize`]).
//! 2. Each client **locally samples** a Skellam noise share `Sk(mu/n)`
//!    ([`sampling::skellam`]); the aggregate is exactly `Sk(mu)`.
//! 3. The clients run **BGW MPC** ([`mpc`]) to evaluate the (coefficient-
//!    quantized) polynomial on the quantized data, folding the aggregate
//!    noise into the result before anything is opened ([`vfl`]).
//! 4. The untrusted server **post-processes**: divide by
//!    `gamma^(lambda+1)`.
//!
//! Privacy is accounted in Rényi DP — Skellam RDP (Lemma 1), subsampling
//! amplification (Lemma 11), composition (Lemma 10) and conversion
//! (Lemma 9) — all in [`accounting`].
//!
//! ## Quickstart
//!
//! ```
//! use sqm::core::{Monomial, Polynomial};
//! use sqm::linalg::Matrix;
//! use sqm::vfl::{eval_polynomial_oracle, ColumnPartition, VflConfig};
//!
//! // Three clients each own one attribute; estimate sum_x x0 * x1 with DP.
//! let data = Matrix::from_rows(&[
//!     vec![0.5, -0.2, 0.1],
//!     vec![-0.4, 0.3, 0.2],
//!     vec![0.1, 0.1, -0.5],
//! ]);
//! let f = Polynomial::one_dimensional(3, vec![Monomial::new(1.0, vec![(0, 1), (1, 1)])]);
//! let partition = ColumnPartition::even_or_sparse(3, 3);
//! let cfg = VflConfig::new(3).with_seed(0);
//! // The plaintext oracle: the value the 3-party BGW release
//! // (`sqm::vfl::eval_polynomial_skellam`) opens at this config.
//! let estimate = eval_polynomial_oracle(&f, &data, &partition, 4096.0, 100.0, &cfg);
//! assert!(estimate[0].is_finite());
//! ```
//!
//! Ready-made tasks live in [`tasks`]: [`tasks::SqmPca`] and
//! [`tasks::SqmLogReg`] with the paper's central-DP and local-DP baselines.
#![forbid(unsafe_code)]

/// DP accounting: RDP curves, Skellam/Gaussian bounds, subsampling,
/// conversion, calibration.
pub use sqm_accounting as accounting;
/// Statistical correctness and privacy auditing: goodness-of-fit,
/// empirical-epsilon lower bounds, differential backend fuzzing.
pub use sqm_audit as audit;
/// The SQM mechanism: polynomials, quantization, sensitivity, baselines.
pub use sqm_core as core;
/// Dataset generators shaped like the paper's evaluation data, plus CSV.
pub use sqm_datasets as datasets;
/// Prime fields (Mersenne-61 / Mersenne-127) with centered encoding.
pub use sqm_field as field;
/// Dense linear algebra: Jacobi eigensolver, subspaces, norms.
pub use sqm_linalg as linalg;
/// Semi-honest BGW MPC over a simulated, latency-accounted network.
pub use sqm_mpc as mpc;
/// Pluggable party-to-party transport: in-process channels, loopback TCP,
/// deterministic fault injection.
pub use sqm_net as net;
/// Observability: structured tracing, metrics, privacy ledger, exporters.
pub use sqm_obs as obs;
/// Samplers (Poisson / Skellam / Gaussian / stochastic rounding) and
/// special functions.
pub use sqm_sampling as sampling;
/// Multi-tenant VFL serving: bounded-admission scheduler, enforced
/// per-tenant privacy budgets, streaming covariance, HTTP protocol.
pub use sqm_serve as serve;
/// PCA and logistic-regression instantiations with all baselines.
pub use sqm_tasks as tasks;
/// The VFL runtime binding SQM to the MPC engine.
pub use sqm_vfl as vfl;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        // Touch one item from each facade module.
        use crate::field::PrimeField;
        let _ = crate::field::M61::ONE;
        let _ = crate::linalg::Matrix::zeros(1, 1);
        let _ = crate::accounting::default_alpha_grid();
        let _ = crate::core::Polynomial::covariance(2);
        let _ = crate::vfl::ColumnPartition::even(2, 2);
        let _ = crate::tasks::NonPrivatePca::new(1);
        let _ = crate::datasets::Scale::Laptop;
        let _ = crate::obs::PrivacyLedger::new(2, 1e-5);
        let _ = crate::audit::AuditConfig::new(0, crate::audit::Tier::Fast);
        let _ = crate::serve::TenantConfig::new("facade");
    }
}
