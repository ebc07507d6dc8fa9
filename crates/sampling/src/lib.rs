//! Random samplers and special functions used throughout SQM.
//!
//! * [`poisson`] — exact Poisson sampling (inversion for small means, the
//!   PTRD transformed-rejection method for large means, and a normal
//!   approximation beyond `f64` integer precision).
//! * [`skellam`] — Skellam noise `Sk(mu) = Pois(mu) - Pois(mu)`, the
//!   integer-valued DP noise at the heart of the paper (Lemma 1), drawn at
//!   small `mu` as `2 Bin(N, 1/2) - N` with `N ~ Pois(2 mu)`.
//! * [`gaussian`] — standard normal sampling (Marsaglia polar method) for the
//!   central-DP and local-DP baselines.
//! * [`discrete_gaussian`] — exact discrete Gaussian / discrete Laplace
//!   sampling (CKS 2020), the alternative integer noise of the distributed
//!   discrete Gaussian mechanism \[39\] the paper compares against.
//! * [`rounding`] — the unbiased stochastic rounding primitive of
//!   Algorithm 2.
//! * [`special`] — `erf`/`erfc`, `ln_gamma`, log-binomials and
//!   `log_sum_exp`, needed by the analytic Gaussian mechanism (Lemma 8) and
//!   subsampled-RDP accounting (Lemma 11).
#![forbid(unsafe_code)]

pub mod discrete_gaussian;
pub mod gaussian;
pub mod poisson;
pub mod rounding;
pub mod skellam;
pub mod special;

pub use discrete_gaussian::{
    discrete_gaussian_log_pmf, discrete_laplace_log_pmf, sample_discrete_gaussian,
    sample_discrete_laplace,
};
pub use gaussian::sample_standard_normal;
pub use poisson::{poisson_log_pmf, sample_poisson, Poisson};
pub use rounding::stochastic_round;
pub use skellam::{sample_skellam, sample_skellam_vec, skellam_log_pmf, Skellam};
