//! # SQM — the Skellam Quantization Mechanism
//!
//! The paper's primary contribution: a distributed-DP mechanism for
//! evaluating polynomial functions `F(X) = sum_{x in X} f(x)` over a
//! *vertically partitioned* database, with no trusted party.
//!
//! Pipeline (Figure 1 / Algorithms 1-3):
//!
//! 1. **Data quantization** ([`quantize`], Algorithm 2) — each client scales
//!    its column by `gamma` and stochastically rounds to integers.
//! 2. **Coefficient quantization** ([`quantize::quantize_polynomial`],
//!    Algorithm 3 lines 1-3) — each monomial coefficient is scaled by
//!    `gamma^(1 + lambda - deg)` so every monomial ends up amplified by the
//!    *same* `gamma^(lambda+1)` regardless of its degree.
//! 3. **Local noise sampling** — each client draws `Sk(mu/n)`; the aggregate
//!    is `Sk(mu)` by closure under convolution.
//! 4. **Secure evaluation** — the clients run MPC (see `sqm-vfl`) to compute
//!    the quantized polynomial sum with the aggregate noise folded in. Its
//!    plaintext path is `sqm_vfl::eval_polynomial_oracle`, which replays
//!    the release's streams and predicts, bit for bit, the value the MPC
//!    run opens at the same seed (the statistical experiments run on it).
//! 5. **Post-processing** — the server divides by `gamma^(lambda+1)`
//!    (`gamma^lambda` in the monomial-only Algorithm 1).
//!
//! [`sensitivity`] carries the paper's sensitivity analysis (Lemmas 3-5, 7)
//! and [`baseline`] the local-DP baseline (Algorithm 4 / Lemma 12).
#![forbid(unsafe_code)]

pub mod approx;
pub mod baseline;
pub mod confidence;
pub mod polynomial;
pub mod quantize;
pub mod sensitivity;

pub use polynomial::{Monomial, Polynomial};
pub use quantize::{quantize_polynomial, quantize_value, quantize_vec, QuantizedPolynomial};
pub use sensitivity::{column_sum_sensitivity, lr_sensitivity, pca_sensitivity};
