//! Exact-distribution goodness-of-fit tests for the integer samplers.
//!
//! Each check draws a seeded sample from one of `sqm-sampling`'s
//! generators and compares it against the law's **exact** pmf
//! (`poisson_log_pmf`, `skellam_log_pmf`, `discrete_gaussian_log_pmf`,
//! `discrete_laplace_log_pmf` — all closed-form, no Monte-Carlo
//! reference):
//!
//! * **chi-square** over an integer support window covering all but
//!   `~1e-12` of the mass (residual tail mass is folded into the edge
//!   bins), with adjacent bins merged until every group's expected count
//!   is at least 5 — the classical validity condition;
//! * **Kolmogorov–Smirnov** on the empirical CDF, using the continuous
//!   Kolmogorov null as the reference. For discrete laws this is
//!   *conservative* (the discrete statistic is stochastically smaller),
//!   so a KS rejection is always meaningful;
//! * **moment z-tests** pinning mean and variance to their closed forms
//!   (`Sk(mu)`: mean 0, variance `2 mu`; `Pois(mu)`: both `mu`);
//! * **unbiasedness of stochastic rounding** — Algorithm 2's entire
//!   sensitivity analysis rests on `E[Q(x)] = x` with two-point support
//!   `{floor x, ceil x}`; both are tested exactly.
//!
//! All randomness derives from [`AuditConfig::seed`], so pass/fail is
//! deterministic; `alpha` only matters when re-pinning seeds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use sqm_sampling::special::{chi_square_sf, erfc, kolmogorov_sf};
use sqm_sampling::{
    discrete_gaussian_log_pmf, discrete_laplace_log_pmf, poisson_log_pmf, sample_discrete_gaussian,
    sample_discrete_laplace, sample_poisson, sample_skellam, skellam_log_pmf, stochastic_round,
};

use crate::AuditConfig;

/// One statistical check on one sampler configuration.
#[derive(Clone, Debug, Serialize)]
pub struct GofCheck {
    /// What was tested, e.g. `"skellam(mu=10)"`.
    pub name: String,
    /// `"chi_square"`, `"ks"`, `"mean"`, `"variance"` or `"unbiasedness"`.
    pub kind: String,
    pub n_samples: u64,
    /// Test statistic (chi-square value, `sqrt(n) * D`, or |z|).
    pub statistic: f64,
    /// Approximate p-value under the null.
    pub p_value: f64,
    /// Significance level the check was judged at.
    pub alpha: f64,
    pub passed: bool,
}

/// Two-sided normal p-value for a z statistic.
fn normal_two_sided_p(z: f64) -> f64 {
    erfc(z.abs() / std::f64::consts::SQRT_2)
}

/// Chi-square GOF over integer bins with exact expected probabilities.
/// Adjacent bins are merged left-to-right until every group's expected
/// count reaches 5 (a trailing underfull group is merged backwards).
/// Returns `(statistic, degrees_of_freedom, p_value)`.
pub fn chi_square_binned(observed: &[u64], expected_probs: &[f64], n: u64) -> (f64, f64, f64) {
    assert_eq!(observed.len(), expected_probs.len());
    assert!(n > 0);
    let mut groups: Vec<(f64, f64)> = Vec::new(); // (observed, expected)
    let mut acc_obs = 0.0;
    let mut acc_exp = 0.0;
    for (&o, &p) in observed.iter().zip(expected_probs) {
        acc_obs += o as f64;
        acc_exp += p * n as f64;
        if acc_exp >= 5.0 {
            groups.push((acc_obs, acc_exp));
            acc_obs = 0.0;
            acc_exp = 0.0;
        }
    }
    if acc_exp > 0.0 || acc_obs > 0.0 {
        match groups.last_mut() {
            Some(last) => {
                last.0 += acc_obs;
                last.1 += acc_exp;
            }
            None => groups.push((acc_obs, acc_exp)),
        }
    }
    assert!(
        groups.len() >= 2,
        "support too narrow for a chi-square test"
    );
    let statistic: f64 = groups.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    let df = (groups.len() - 1) as f64;
    (statistic, df, chi_square_sf(statistic, df))
}

/// KS distance of an integer sample against exact bin probabilities over
/// `[lo, lo + probs.len())`; samples are assumed in-window (callers clamp).
fn ks_statistic(counts: &[u64], probs: &[f64], n: u64) -> f64 {
    let mut emp = 0.0f64;
    let mut theory = 0.0f64;
    let mut d: f64 = 0.0;
    for (&c, &p) in counts.iter().zip(probs) {
        emp += c as f64 / n as f64;
        theory += p;
        d = d.max((emp - theory).abs());
    }
    d
}

/// A sampled integer law with its exact pmf over a finite window.
struct WindowedLaw {
    name: String,
    lo: i64,
    probs: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl WindowedLaw {
    /// Window covering ~all mass; residual is folded into the edge bins
    /// so `probs` sums to exactly 1.
    fn new(
        name: String,
        lo: i64,
        hi: i64,
        mean: f64,
        variance: f64,
        log_pmf: impl Fn(i64) -> f64,
    ) -> Self {
        assert!(hi > lo);
        let mut probs: Vec<f64> = (lo..=hi).map(|k| log_pmf(k).exp()).collect();
        let total: f64 = probs.iter().sum();
        let residual = (1.0 - total).max(0.0);
        let len = probs.len();
        probs[0] += residual / 2.0;
        probs[len - 1] += residual / 2.0;
        WindowedLaw {
            name,
            lo,
            probs,
            mean,
            variance,
        }
    }

    fn bin_of(&self, k: i64) -> usize {
        (k - self.lo).clamp(0, self.probs.len() as i64 - 1) as usize
    }
}

/// Run the chi-square / KS / moment battery for one law, pushing results
/// into `out`.
fn check_law(
    cfg: &AuditConfig,
    law: &WindowedLaw,
    stream: u64,
    mut draw: impl FnMut(&mut StdRng) -> i64,
    out: &mut Vec<GofCheck>,
) {
    let n = cfg.gof_samples();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ stream);
    let mut counts = vec![0u64; law.probs.len()];
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for _ in 0..n {
        let k = draw(&mut rng);
        counts[law.bin_of(k)] += 1;
        let x = k as f64;
        sum += x;
        sum_sq += x * x;
    }
    let nf = n as f64;
    let mean = sum / nf;
    let var = (sum_sq / nf - mean * mean).max(0.0);

    let (stat, _df, p) = chi_square_binned(&counts, &law.probs, n as u64);
    push(out, cfg, &law.name, "chi_square", n, stat, p);

    let d = ks_statistic(&counts, &law.probs, n as u64);
    let ks_stat = nf.sqrt() * d;
    push(
        out,
        cfg,
        &law.name,
        "ks",
        n,
        ks_stat,
        kolmogorov_sf(ks_stat),
    );

    // Moment z-tests. SE of the mean is sqrt(var/n); SE of the sample
    // variance is approximated by sqrt(2/n) * var, exact for the normal
    // limit and accurate for these light-tailed laws at audit sample
    // sizes.
    let z_mean = (mean - law.mean) / (law.variance / nf).sqrt();
    push(
        out,
        cfg,
        &law.name,
        "mean",
        n,
        z_mean.abs(),
        normal_two_sided_p(z_mean),
    );
    let z_var = (var - law.variance) / ((2.0 / nf).sqrt() * law.variance);
    push(
        out,
        cfg,
        &law.name,
        "variance",
        n,
        z_var.abs(),
        normal_two_sided_p(z_var),
    );
}

fn push(
    out: &mut Vec<GofCheck>,
    cfg: &AuditConfig,
    name: &str,
    kind: &str,
    n: usize,
    statistic: f64,
    p_value: f64,
) {
    out.push(GofCheck {
        name: name.to_string(),
        kind: kind.to_string(),
        n_samples: n as u64,
        statistic,
        p_value,
        alpha: cfg.alpha,
        passed: p_value >= cfg.alpha,
    });
}

/// Stochastic rounding: exact two-point chi-square on `{floor, ceil}`
/// frequencies plus the unbiasedness z-test `E[Q(x)] = x`.
fn check_rounding(cfg: &AuditConfig, x: f64, stream: u64, out: &mut Vec<GofCheck>) {
    let n = cfg.gof_samples();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ stream);
    let floor = x.floor();
    let frac = x - floor; // P[round up]
    let name = format!("stochastic_round(x={x})");
    let mut ups = 0u64;
    let mut sum = 0.0f64;
    for _ in 0..n {
        let q = stochastic_round(&mut rng, x);
        assert!(
            q as f64 == floor || q as f64 == floor + 1.0,
            "Q({x}) = {q} escaped the two-point support"
        );
        if q as f64 > floor {
            ups += 1;
        }
        sum += q as f64;
    }
    let nf = n as f64;
    if frac > 0.0 && frac < 1.0 {
        let counts = [n as u64 - ups, ups];
        let probs = [1.0 - frac, frac];
        let (stat, _df, p) = chi_square_binned(&counts, &probs, n as u64);
        push(out, cfg, &name, "chi_square", n, stat, p);
        let z = (sum / nf - x) / (frac * (1.0 - frac) / nf).sqrt();
        push(
            out,
            cfg,
            &name,
            "unbiasedness",
            n,
            z.abs(),
            normal_two_sided_p(z),
        );
    } else {
        // Integer input: Q(x) = x surely; any deviation is an outright bug.
        let exact = sum / nf == x && (ups == 0 || ups == n as u64);
        push(
            out,
            cfg,
            &name,
            "unbiasedness",
            n,
            0.0,
            if exact { 1.0 } else { 0.0 },
        );
    }
}

/// The full goodness-of-fit battery for the configured tier.
pub fn run_gof(cfg: &AuditConfig) -> Vec<GofCheck> {
    let mut out = Vec::new();
    let deep = matches!(cfg.tier, crate::Tier::Deep);

    // Poisson.
    let mut poisson_mus: Vec<f64> = vec![0.5, 4.0, 40.0];
    if deep {
        poisson_mus.extend([1.5, 200.0]);
    }
    for (i, &mu) in poisson_mus.iter().enumerate() {
        let hi = (mu + 8.0 * mu.sqrt() + 10.0).ceil() as i64;
        let law = WindowedLaw::new(format!("poisson(mu={mu})"), 0, hi, mu, mu, |k| {
            poisson_log_pmf(k as u64, mu)
        });
        check_law(
            cfg,
            &law,
            0x6012_0000 + i as u64,
            |r| sample_poisson(r, mu),
            &mut out,
        );
    }

    // Skellam — the DP noise itself. 25 is `cov_wide`'s per-party scale,
    // 224 and 224.5 sit on either side of the binomial split's bound, and
    // 4.99 just below where its `Pois(2 mu)` turns from inversion to PTRD.
    let mut skellam_mus: Vec<f64> = vec![1.0, 10.0, 100.0, 25.0, 224.0, 224.5];
    if deep {
        skellam_mus.extend([0.25, 1000.0, 4.99]);
    }
    for (i, &mu) in skellam_mus.iter().enumerate() {
        let w = (8.0 * (2.0 * mu).sqrt() + 10.0).ceil() as i64;
        let law = WindowedLaw::new(format!("skellam(mu={mu})"), -w, w, 0.0, 2.0 * mu, |k| {
            skellam_log_pmf(k, mu)
        });
        check_law(
            cfg,
            &law,
            0x6013_0000 + i as u64,
            |r| sample_skellam(r, mu),
            &mut out,
        );
    }

    // Discrete Gaussian — the baseline integer noise.
    let mut sigmas: Vec<f64> = vec![0.8, 3.0, 20.0];
    if deep {
        sigmas.push(50.0);
    }
    for (i, &sigma) in sigmas.iter().enumerate() {
        let w = (8.0 * sigma + 10.0).ceil() as i64;
        // Variance of the discrete Gaussian is close to, but not exactly,
        // sigma^2; compute it from the exact pmf over the window.
        let var: f64 = (-w..=w)
            .map(|k| (k as f64).powi(2) * discrete_gaussian_log_pmf(k, sigma).exp())
            .sum();
        let law = WindowedLaw::new(
            format!("discrete_gaussian(sigma={sigma})"),
            -w,
            w,
            0.0,
            var,
            |k| discrete_gaussian_log_pmf(k, sigma),
        );
        check_law(
            cfg,
            &law,
            0x6014_0000 + i as u64,
            |r| sample_discrete_gaussian(r, sigma),
            &mut out,
        );
    }

    // Discrete Laplace — the rejection sampler's inner law.
    for (i, &t) in [1.0f64, 5.0].iter().enumerate() {
        let w = (30.0 * t + 10.0).ceil() as i64;
        let q = (-1.0f64 / t).exp();
        let var = 2.0 * q / (1.0 - q) / (1.0 - q);
        let law = WindowedLaw::new(format!("discrete_laplace(t={t})"), -w, w, 0.0, var, |k| {
            discrete_laplace_log_pmf(k, t)
        });
        check_law(
            cfg,
            &law,
            0x6015_0000 + i as u64,
            |r| sample_discrete_laplace(r, t),
            &mut out,
        );
    }

    // Stochastic rounding (Algorithm 2).
    let mut xs: Vec<f64> = vec![0.25, -1.75, 3.0, 1e6 + 0.5];
    if deep {
        xs.extend([0.001, -12345.875]);
    }
    for (i, &x) in xs.iter().enumerate() {
        check_rounding(cfg, x, 0x6016_0000 + i as u64, &mut out);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tier;

    #[test]
    fn chi_square_binned_merges_sparse_bins() {
        // 4 bins, two of them tiny: after merging at expected >= 5, at
        // least 2 groups must remain and the p-value must be sane.
        let observed = [48u64, 3, 2, 47];
        let probs = [0.48, 0.025, 0.025, 0.47];
        let (stat, df, p) = chi_square_binned(&observed, &probs, 100);
        assert!(stat >= 0.0 && stat.is_finite());
        assert!(df >= 1.0);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn chi_square_detects_a_wrong_law() {
        // Claim uniform over 4 bins, observe something very skewed.
        let observed = [900u64, 50, 30, 20];
        let probs = [0.25; 4];
        let (_, _, p) = chi_square_binned(&observed, &probs, 1000);
        assert!(p < 1e-10, "p = {p}");
    }

    #[test]
    fn fast_battery_passes_at_pinned_seed() {
        let cfg = AuditConfig::new(0xA0D1_7001, Tier::Fast);
        let checks = run_gof(&cfg);
        assert!(checks.len() >= 40, "got {} checks", checks.len());
        let failures: Vec<&GofCheck> = checks.iter().filter(|c| !c.passed).collect();
        assert!(failures.is_empty(), "failures: {failures:?}");
    }

    #[test]
    fn battery_is_deterministic() {
        let cfg = AuditConfig::new(7, Tier::Fast);
        let a = run_gof(&cfg);
        let b = run_gof(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.statistic, y.statistic, "{}/{}", x.name, x.kind);
            assert_eq!(x.p_value, y.p_value);
        }
    }

    #[test]
    fn battery_catches_a_biased_sampler() {
        // Feed the chi-square machinery a Skellam sample whose mu is off
        // by 20%: the test must reject decisively.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = AuditConfig::new(3, Tier::Fast);
        let mu = 10.0f64;
        let w = (8.0 * (2.0 * mu).sqrt() + 10.0).ceil() as i64;
        let law = WindowedLaw::new("skellam(bad)".into(), -w, w, 0.0, 2.0 * mu, |k| {
            skellam_log_pmf(k, mu)
        });
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0u64; law.probs.len()];
        for _ in 0..cfg.gof_samples() {
            counts[law.bin_of(sample_skellam(&mut rng, mu * 1.2))] += 1;
        }
        let (_, _, p) = chi_square_binned(&counts, &law.probs, cfg.gof_samples() as u64);
        assert!(p < 1e-12, "a 20% mu error must be detected, p = {p}");
    }
}
