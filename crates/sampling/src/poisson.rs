//! Poisson sampling across the full range of means SQM needs.
//!
//! Skellam noise with scale `mu = O(gamma^4)` (Lemma 5) requires Poisson
//! means up to ~`10^16`. Three regimes:
//!
//! * `mu < 10` — inversion by sequential search (exact).
//! * `10 <= mu < 2^50` — PTRD, Hörmann's transformed-rejection method with
//!   decomposition (exact up to `f64` evaluation of the acceptance test).
//! * `mu >= 2^50` — rounded normal approximation `round(N(mu, mu))`. Beyond
//!   `2^50` the relative skewness `1/sqrt(mu)` is below `3e-8` and `f64`
//!   cannot exactly represent the candidate integers anyway; the
//!   approximation error is orders of magnitude below the noise standard
//!   deviation and has no measurable effect on the DP simulation (the
//!   *accounting* never uses samples, only closed-form bounds).
//!
//! [`crate::skellam`] draws one `Pois(2 mu)` per `Sk(mu)` variate while
//! `2 mu <= 448` (the binomial split; its inversion-to-PTRD switch is at
//! `mu = 5`), two `Pois(mu)` above that, and no Poisson count at all
//! from `mu = 2^49` on.

use rand::Rng;

use crate::gaussian::sample_standard_normal;
use crate::special::ln_factorial;

/// Mean threshold between inversion and PTRD.
const INVERSION_MAX: f64 = 10.0;
/// Mean threshold between PTRD and the normal approximation.
const PTRD_MAX: f64 = (1u64 << 50) as f64;

/// Sample `Pois(mu)`. Panics if `mu` is negative, not finite, or so large
/// that the result would not fit an `i64` (use
/// [`crate::skellam::sample_skellam`] for huge noise scales — it samples
/// the centered difference directly and never materializes the Poisson
/// counts). Many draws at one `mu` should build one [`Poisson`] instead.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, mu: f64) -> i64 {
    Poisson::new(mu).sample(rng)
}

/// A `Pois(mu)` sampler: the regime is picked, and its constants computed,
/// once in [`Poisson::new`]; every [`Poisson::sample`] then draws exactly
/// what [`sample_poisson`] would, from the same random numbers.
#[derive(Clone, Copy, Debug)]
pub struct Poisson(Regime);

#[derive(Clone, Copy, Debug)]
enum Regime {
    Zero,
    /// Inversion stops once the running product falls to `e^{-mu}`.
    Inversion {
        exp_neg_mu: f64,
    },
    Ptrd(Ptrd),
    Normal {
        mu: f64,
        smu: f64,
    },
}

/// PTRD's setup for one `mu` (Hörmann's notation).
#[derive(Clone, Copy, Debug)]
struct Ptrd {
    mu: f64,
    b: f64,
    a: f64,
    inv_alpha: f64,
    v_r: f64,
    ln_mu: f64,
}

impl Poisson {
    /// The sampler for `Pois(mu)`, with the same panics as
    /// [`sample_poisson`].
    pub fn new(mu: f64) -> Poisson {
        assert!(
            mu.is_finite() && mu >= 0.0,
            "Poisson mean must be finite and >= 0, got {mu}"
        );
        assert!(
            mu < 4.0e18,
            "Poisson mean {mu} too large for i64 counts; sample the Skellam difference directly"
        );
        Poisson(if mu == 0.0 {
            Regime::Zero
        } else if mu < INVERSION_MAX {
            Regime::Inversion {
                exp_neg_mu: (-mu).exp(),
            }
        } else if mu < PTRD_MAX {
            let smu = mu.sqrt();
            let b = 0.931 + 2.53 * smu;
            Regime::Ptrd(Ptrd {
                mu,
                b,
                a: -0.059 + 0.02483 * b,
                inv_alpha: 1.1239 + 1.1328 / (b - 3.4),
                v_r: 0.9277 - 3.6224 / (b - 2.0),
                ln_mu: mu.ln(),
            })
        } else {
            Regime::Normal { mu, smu: mu.sqrt() }
        })
    }

    /// One `Pois(mu)` variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        match self.0 {
            Regime::Zero => 0,
            Regime::Inversion { exp_neg_mu } => poisson_inversion(rng, exp_neg_mu),
            Regime::Ptrd(ref ptrd) => ptrd.sample(rng),
            Regime::Normal { mu, smu } => {
                let z = sample_standard_normal(rng);
                let v = mu + smu * z;
                v.round().max(0.0) as i64
            }
        }
    }
}

/// Inversion by sequential search (Knuth), stopping at `l = e^{-mu}`.
/// Exact; O(mu) time.
fn poisson_inversion<R: Rng + ?Sized>(rng: &mut R, l: f64) -> i64 {
    let mut k: i64 = 0;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

impl Ptrd {
    /// PTRD: "The transformed rejection method for generating Poisson
    /// random variables", W. Hörmann, 1993. Valid for `mu >= 10`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        let Ptrd {
            mu,
            b,
            a,
            inv_alpha,
            v_r,
            ln_mu,
        } = *self;
        loop {
            let v: f64 = rng.gen();
            // Fast path: the dominating triangular region.
            if v <= 0.86 * v_r {
                let u = v / v_r - 0.43;
                let us = 0.5 - u.abs();
                return ((2.0 * a / us + b) * u + mu + 0.445).floor() as i64;
            }

            let (u, v) = if v >= v_r {
                (rng.gen::<f64>() - 0.5, v)
            } else {
                let u = v / v_r - 0.93;
                let u = 0.5f64.copysign(u) - u;
                (u, rng.gen::<f64>() * v_r)
            };

            let us = 0.5 - u.abs();
            if us < 0.013 && v > us {
                continue;
            }

            let k = ((2.0 * a / us + b) * u + mu + 0.445).floor();
            if k < 0.0 {
                continue;
            }
            let v = v * inv_alpha / (a / (us * us) + b);

            // Acceptance test: ln(v) <= ln pmf(k) = k*ln(mu) - mu - ln(k!).
            // For large k, ln(k!) uses the Stirling series (ln_factorial_f);
            // computing k*ln(mu/k) keeps the difference of large terms stable.
            let ln_pmf = if k >= 10.0 {
                (k + 0.5) * (mu / k).ln() - mu + k
                    - 0.5 * ln_mu
                    - 0.5 * (2.0 * std::f64::consts::PI).ln()
                    - stirling_log_correction(k)
            } else {
                k * ln_mu - mu - ln_factorial(k as u64)
            };
            if v.ln() <= ln_pmf {
                return k as i64;
            }
        }
    }
}

/// Exact log-pmf of `Pois(mu)`: `ln P[K = k] = k ln(mu) - mu - ln(k!)`.
///
/// The reference law the statistical audit harness tests the sampler
/// against. `mu = 0` is the point mass at 0.
pub fn poisson_log_pmf(k: u64, mu: f64) -> f64 {
    assert!(
        mu.is_finite() && mu >= 0.0,
        "Poisson mean must be finite and >= 0, got {mu}"
    );
    if mu == 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    k as f64 * mu.ln() - mu - ln_factorial(k)
}

/// Stirling series correction `1/(12k) - 1/(360k^3)`.
fn stirling_log_correction(k: f64) -> f64 {
    let inv = 1.0 / k;
    (1.0 / 12.0 - inv * inv / 360.0) * inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_moments(mu: f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n)
            .map(|_| sample_poisson(&mut rng, mu) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn zero_mean_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        }
    }

    #[test]
    fn small_mean_moments() {
        let (mean, var) = sample_moments(3.5, 200_000, 1);
        assert!((mean - 3.5).abs() < 0.05, "mean {mean}");
        assert!((var - 3.5).abs() < 0.1, "var {var}");
    }

    #[test]
    fn ptrd_moments_mid() {
        let (mean, var) = sample_moments(50.0, 200_000, 2);
        assert!((mean - 50.0).abs() / 50.0 < 0.01, "mean {mean}");
        assert!((var - 50.0).abs() / 50.0 < 0.03, "var {var}");
    }

    #[test]
    fn ptrd_moments_large() {
        let (mean, var) = sample_moments(1e6, 100_000, 3);
        assert!((mean - 1e6).abs() / 1e6 < 1e-3, "mean {mean}");
        assert!((var - 1e6).abs() / 1e6 < 0.02, "var {var}");
    }

    #[test]
    fn normal_regime_moments() {
        let mu = 2f64.powi(52);
        let (mean, var) = sample_moments(mu, 20_000, 4);
        assert!((mean - mu).abs() / mu < 1e-6, "mean {mean}");
        assert!((var - mu).abs() / mu < 0.05, "var {var}");
    }

    #[test]
    fn ptrd_pmf_matches_exact_at_boundary() {
        // Chi-square style check on mu=12 against the exact pmf.
        let mu = 12.0;
        let n = 300_000usize;
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = vec![0usize; 60];
        for _ in 0..n {
            let k = sample_poisson(&mut rng, mu) as usize;
            if k < counts.len() {
                counts[k] += 1;
            }
        }
        // Compare observed frequency to pmf within 5 sigma for bins with
        // expected count >= 100.
        for (k, &c) in counts.iter().enumerate() {
            let lp = k as f64 * mu.ln() - mu - ln_factorial(k as u64);
            let p = lp.exp();
            let expect = p * n as f64;
            if expect >= 100.0 {
                let sigma = (expect * (1.0 - p)).sqrt();
                assert!(
                    ((c as f64) - expect).abs() < 5.0 * sigma,
                    "k={k}: observed {c}, expected {expect:.1} +/- {sigma:.1}"
                );
            }
        }
    }

    #[test]
    fn never_negative() {
        let mut rng = StdRng::seed_from_u64(6);
        for mu in [0.1, 1.0, 9.9, 10.0, 11.0, 1e3, 1e9] {
            for _ in 0..1000 {
                assert!(sample_poisson(&mut rng, mu) >= 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let mut rng = StdRng::seed_from_u64(0);
        sample_poisson(&mut rng, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative() {
        let mut rng = StdRng::seed_from_u64(0);
        sample_poisson(&mut rng, -1.0);
    }

    #[test]
    fn log_pmf_normalizes_and_matches_point_values() {
        // P(0) = e^{-mu}; P(1) = mu e^{-mu}; the pmf sums to 1.
        for mu in [0.5, 3.0, 25.0] {
            assert!((poisson_log_pmf(0, mu) - (-mu)).abs() < 1e-12);
            assert!((poisson_log_pmf(1, mu) - (mu.ln() - mu)).abs() < 1e-12);
            let kmax = (mu + 20.0 * mu.sqrt() + 30.0) as u64;
            let total: f64 = (0..=kmax).map(|k| poisson_log_pmf(k, mu).exp()).sum();
            assert!((total - 1.0).abs() < 1e-10, "mu={mu}: total {total}");
        }
        assert_eq!(poisson_log_pmf(0, 0.0), 0.0);
        assert_eq!(poisson_log_pmf(3, 0.0), f64::NEG_INFINITY);
    }
}
