//! Empirical DP audit: a Monte-Carlo lower bound on epsilon that must sit
//! below the accountant's analytic upper bound.
//!
//! For each audited `(gamma, mu)` configuration we run the
//! server-observed covariance release (via its bit-exact oracle at a fresh
//! protocol seed per trial — the integers the MPC protocol opens, from the
//! clients' own quantization and noise streams) on two **adjacent**
//! datasets: `D` with a record of full norm `c = 1`,
//! and `D'` with that record zeroed — the paper's server-side adjacency
//! whose quantized L2 shift is bounded by `Delta_2 = (gamma c + sqrt(n))^2`
//! (Lemma 5, for every rounding outcome). A threshold distinguisher over the released scalar yields,
//! with conservative Hoeffding confidence margins, a certified lower
//! bound
//!
//! ```text
//! eps_emp = max_T  ln( (P[A(D) in T] - delta) / P[A(D') in T] )
//! ```
//!
//! on any `(eps, delta)`-DP claim. Soundness of the accountant then
//! requires `eps_emp <= eps_analytic`, where `eps_analytic` is the
//! RDP→DP conversion of the Skellam curve (`skellam_rdp` over the
//! default alpha grid) at the same `delta`. A mechanism bug — noise not
//! added, wrong scale, broken sampler — drives `eps_emp` above the
//! claimed bound, which is exactly what the audit exists to catch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use sqm_accounting::conversion::best_epsilon;
use sqm_accounting::{default_alpha_grid, skellam_rdp};
use sqm_core::pca_sensitivity;
use sqm_linalg::Matrix;
use sqm_vfl::{covariance_quantized_oracle, ColumnPartition, VflConfig};

use crate::{AuditConfig, Tier};

/// Outcome of auditing one `(gamma, mu)` configuration.
#[derive(Clone, Debug, Serialize)]
pub struct DpAuditResult {
    pub gamma: f64,
    pub mu: f64,
    pub n_clients: usize,
    /// Monte-Carlo trials per adjacent dataset.
    pub trials: u64,
    /// The `delta` both bounds are stated at.
    pub delta: f64,
    /// Certified empirical lower bound (Hoeffding 99% margins).
    pub empirical_epsilon: f64,
    /// Analytic server-observed upper bound from the accountant.
    pub analytic_epsilon: f64,
    /// Rényi order the analytic conversion selected.
    pub best_alpha: u64,
    /// `empirical_epsilon <= analytic_epsilon`.
    pub passed: bool,
}

/// The released scalar: covariance of an `m x 1` dataset at a protocol
/// seed drawn from `rng` (client 0 owns the column; the others add noise).
fn release(rng: &mut StdRng, data: &Matrix, gamma: f64, mu: f64, n_clients: usize) -> f64 {
    let partition = ColumnPartition::even_or_sparse(1, n_clients);
    let cfg = VflConfig::fast(n_clients).with_seed(rng.gen());
    covariance_quantized_oracle(data, &partition, gamma, mu, &cfg)[(0, 0)]
}

/// The certified distinguisher: sweep thresholds over the pooled sample,
/// in both directions and with the datasets swapped, keeping the largest
/// lower bound that survives the confidence margins.
fn empirical_epsilon(samples_d: &[f64], samples_dp: &[f64], delta: f64) -> f64 {
    let n = samples_d.len() as f64;
    // Hoeffding two-sided 99% margin on each estimated probability.
    let margin = ((2.0f64 / 0.01).ln() / (2.0 * n)).sqrt();
    let mut thresholds: Vec<f64> = samples_d.iter().chain(samples_dp).copied().collect();
    thresholds.sort_by(f64::total_cmp);
    thresholds.dedup();

    let frac_ge = |xs: &[f64], t: f64| xs.iter().filter(|&&x| x >= t).count() as f64 / n;
    let frac_le = |xs: &[f64], t: f64| xs.iter().filter(|&&x| x <= t).count() as f64 / n;

    let mut best = 0.0f64;
    for &t in &thresholds {
        for (p_hat, q_hat) in [
            (frac_ge(samples_d, t), frac_ge(samples_dp, t)),
            (frac_le(samples_d, t), frac_le(samples_dp, t)),
            (frac_ge(samples_dp, t), frac_ge(samples_d, t)),
            (frac_le(samples_dp, t), frac_le(samples_d, t)),
        ] {
            let p_lo = p_hat - margin - delta;
            let q_hi = (q_hat + margin).max(1e-12);
            if p_lo > 0.0 {
                best = best.max((p_lo / q_hi).ln());
            }
        }
    }
    best
}

/// Audit one `(gamma, mu)` configuration.
pub fn audit_dp_config(
    cfg: &AuditConfig,
    gamma: f64,
    mu: f64,
    n_clients: usize,
    stream: u64,
) -> DpAuditResult {
    let delta = 1e-5;
    let trials = cfg.dp_trials();
    let m = 4;

    // D: four unit-norm records; D': the first record zeroed.
    let d = Matrix::from_rows(&vec![vec![1.0]; m]);
    let mut d_prime = d.clone();
    d_prime[(0, 0)] = 0.0;

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0xD9A0_0000 + stream));
    let samples_d: Vec<f64> = (0..trials)
        .map(|_| release(&mut rng, &d, gamma, mu, n_clients))
        .collect();
    let samples_dp: Vec<f64> = (0..trials)
        .map(|_| release(&mut rng, &d_prime, gamma, mu, n_clients))
        .collect();

    let emp = empirical_epsilon(&samples_d, &samples_dp, delta);

    let sens = pca_sensitivity(gamma, 1.0, 1);
    let (analytic, best_alpha) =
        best_epsilon(|a| skellam_rdp(a, sens, mu), delta, &default_alpha_grid());

    DpAuditResult {
        gamma,
        mu,
        n_clients,
        trials: trials as u64,
        delta,
        empirical_epsilon: emp,
        analytic_epsilon: analytic,
        best_alpha,
        passed: emp <= analytic + 1e-9,
    }
}

/// The `(gamma, mu)` grid for the configured tier. Chosen so the analytic
/// epsilon spans roughly `0.5..2` — tight enough that a broken mechanism
/// overshoots it, loose enough that the Monte-Carlo bound has headroom.
pub fn run_dp_audit(cfg: &AuditConfig) -> Vec<DpAuditResult> {
    let mut grid: Vec<(f64, f64)> = vec![(4.0, 2e3), (4.0, 1e4), (8.0, 5e4), (2.0, 100.0)];
    if cfg.tier == Tier::Deep {
        grid.extend([(8.0, 2e5), (16.0, 1e6), (2.0, 400.0), (4.0, 5e4)]);
    }
    grid.iter()
        .enumerate()
        .map(|(i, &(gamma, mu))| audit_dp_config(cfg, gamma, mu, 3, i as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_bound_is_zero_for_identical_distributions() {
        let xs: Vec<f64> = (0..500).map(|i| f64::from(i % 17)).collect();
        assert_eq!(empirical_epsilon(&xs, &xs, 1e-5), 0.0);
    }

    #[test]
    fn empirical_bound_grows_with_separation() {
        // Perfectly separated samples: the bound should approach
        // ln((1 - margin)/margin), far above 1.
        let a: Vec<f64> = vec![0.0; 1000];
        let b: Vec<f64> = vec![100.0; 1000];
        let eps = empirical_epsilon(&a, &b, 1e-5);
        assert!(eps > 2.0, "eps = {eps}");
    }

    #[test]
    fn audited_configs_sit_below_the_analytic_bound() {
        let cfg = AuditConfig::new(0xA0D1_7002, crate::Tier::Fast);
        for r in run_dp_audit(&cfg) {
            assert!(
                r.passed,
                "empirical {} exceeds analytic {} at (gamma={}, mu={})",
                r.empirical_epsilon, r.analytic_epsilon, r.gamma, r.mu
            );
            assert!(r.analytic_epsilon.is_finite() && r.analytic_epsilon > 0.0);
        }
    }

    #[test]
    fn a_noiseless_mechanism_is_flagged() {
        // mu = 0: no DP at all. The analytic accountant reports infinity
        // (never claimed), but the distinguisher must certify a large
        // epsilon, demonstrating the audit has teeth.
        let cfg = AuditConfig::new(5, crate::Tier::Fast);
        let gamma = 8.0;
        let d = Matrix::from_rows(&vec![vec![1.0]; 4]);
        let mut d_prime = d.clone();
        d_prime[(0, 0)] = 0.0;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = 1000;
        let samples_d: Vec<f64> = (0..n)
            .map(|_| release(&mut rng, &d, gamma, 0.0, 3))
            .collect();
        let samples_dp: Vec<f64> = (0..n)
            .map(|_| release(&mut rng, &d_prime, gamma, 0.0, 3))
            .collect();
        let eps = empirical_epsilon(&samples_d, &samples_dp, 1e-5);
        assert!(eps > 2.0, "noiseless release only certified eps = {eps}");
    }
}
