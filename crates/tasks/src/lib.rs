//! The paper's task instantiations and every baseline its evaluation
//! compares against (Section V / VI).
//!
//! **PCA** ([`pca`]):
//! * [`pca::SqmPca`] — SQM: quantize, secure noisy covariance, eigensolve.
//! * [`pca::AnalyzeGaussPca`] — the central-DP upper bound \[65\].
//! * [`pca::LocalDpPca`] — the VFL local-DP baseline (Algorithm 4).
//! * [`pca::NonPrivatePca`] — utility ceiling.
//!
//! **Ridge regression** ([`ridge`]) — an extension instantiation showing the
//! framework generalizes: the sufficient statistics `X^T X` and `X^T y` are
//! one augmented-covariance release.
//!
//! **Logistic regression** ([`logreg`]):
//! * [`logreg::SqmLogReg`] — SQM with the degree-1 Taylor gradient (Eq. 9),
//!   subsampled Skellam accounting (Lemma 7).
//! * [`logreg::DpSgd`] — central DPSGD \[54\] with exact sigmoid gradients.
//! * [`logreg::ApproxPolyLogReg`] — central Gaussian + polynomial gradient
//!   (Figure 5's "Approx-Poly").
//! * [`logreg::LocalDpLogReg`] — train on an Algorithm-4-perturbed dataset.
//! * [`logreg::NonPrivateLogReg`] — accuracy ceiling.
#![forbid(unsafe_code)]

pub mod histogram;
pub mod logreg;
pub mod pca;
pub mod ridge;
pub mod stats;

pub use histogram::{Categorical, GaussianHistogram, SqmContingency, SqmHistogram};
pub use logreg::{ApproxPolyLogReg, DpSgd, LocalDpLogReg, LrConfig, NonPrivateLogReg, SqmLogReg};
pub use pca::{AnalyzeGaussPca, LocalDpPca, NonPrivatePca, SqmPca};
pub use ridge::{GaussianRidge, LocalDpRidge, NonPrivateRidge, SqmRidge};
pub use stats::{GaussianMean, LocalDpMean, SqmMean};

use rand::Rng;
use sqm_vfl::{ColumnPartition, VflConfig};

/// Which execution backend an SQM task runs on.
#[derive(Clone, Debug)]
// The Mpc variant carries the whole VflConfig (transport backend
// included); backends are built once per task, so the size gap is fine.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// The release's bit-exact plaintext oracle, at a seed drawn from the
    /// task's RNG for each release — fast, for statistical experiments.
    Plaintext,
    /// Full BGW execution across `VflConfig::n_clients` parties.
    Mpc(VflConfig),
}

/// The run a `Plaintext` backend replays: the `Mpc` backends' partition of
/// `n` columns over `clients`, at a seed drawn from `rng`.
fn replay<R: Rng + ?Sized>(rng: &mut R, n: usize, clients: usize) -> (ColumnPartition, VflConfig) {
    let partition = ColumnPartition::even_or_sparse(n, clients);
    (partition, VflConfig::fast(clients).with_seed(rng.gen()))
}

#[cfg(test)]
/// `(||hat x||_2, ||hat x||_1)` of every outcome of Algorithm 2 on `x` at
/// scale `gamma`: each coordinate rounds to the integer below `gamma x_i`
/// or the one above (to itself when it is an integer), so `2^k` outcomes
/// for `k` fractional coordinates.
pub(crate) fn rounding_norms(x: &[f64], gamma: f64) -> Vec<(f64, f64)> {
    let mut outcomes = vec![(0.0f64, 0.0f64)];
    for &v in x {
        let (lo, hi) = ((gamma * v).floor(), (gamma * v).ceil());
        let choices = if lo == hi { vec![lo] } else { vec![lo, hi] };
        outcomes = outcomes
            .iter()
            .flat_map(|&(sq, l1)| choices.iter().map(move |&q| (sq + q * q, l1 + q.abs())))
            .collect();
    }
    outcomes
        .into_iter()
        .map(|(sq, l1)| (sq.sqrt(), l1))
        .collect()
}
