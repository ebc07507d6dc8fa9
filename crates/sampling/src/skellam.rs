//! Skellam noise: the integer-valued DP noise of the paper.
//!
//! `Z ~ Sk(mu)` is the difference of two independent `Pois(mu)` variates
//! (Section II of the paper). Key properties SQM relies on:
//!
//! * **Integer-valued** — compatible with MPC over finite fields, no
//!   floating-point privacy leaks (Mironov's attack).
//! * **Closed under summation** — `Sk(a) + Sk(b) = Sk(a+b)`, so `n` clients
//!   each sampling `Sk(mu/n)` produce an aggregate `Sk(mu)` without any
//!   party knowing the total noise.
//! * **Mean 0, variance `2*mu`** — calibrated against the sensitivity by
//!   Lemma 1's RDP bound (implemented in `sqm-accounting`).
//!
//! Three regimes, fixed per `mu` in [`Skellam::new`]:
//!
//! * `2 mu <= 448` — the binomial split. If `X, Y ~ Pois(mu)` are
//!   independent and `N = X + Y`, then `X | N ~ Bin(N, 1/2)`, so
//!   `X - Y = 2 Bin(N, 1/2) - N` with `N ~ Pois(2 mu)`: one Poisson draw
//!   plus the set bits of `N` fresh random bits. Exact, and about half the
//!   cost of two Poisson draws at the per-party scales of a `mu = 100`
//!   release over 4 or 10 parties (25 and 10).
//! * `224 < mu < 2^49` — `Pois(mu) - Pois(mu)`, two PTRD draws. Above the
//!   split's bound its `N / 64` words cost more than the second draw.
//! * `mu >= 2^49` — the rounded normal limit (calibrated noise lands here).

use rand::Rng;

use crate::gaussian::sample_standard_normal;
use crate::poisson::Poisson;

/// Above this `mu`, `Sk(mu)` is sampled as its centered normal limit
/// `round(N(0, 2 mu))`. The Poisson counts themselves would exceed `f64`
/// integer precision (and `i64`) long before this matters statistically:
/// at `mu = 2^49` the Skellam's total-variation distance to the rounded
/// normal is far below `2^-20`.
const DIRECT_DIFFERENCE_MAX: f64 = (1u64 << 49) as f64;

/// The largest `2 mu` drawn by the binomial split: the measured crossover.
/// The split's cost grows by one word per 64 expected counts, and from
/// `mu = 224` to `256` it costs what the two-draw difference does.
const SPLIT_MAX: f64 = 448.0;

/// Sample one `Sk(mu)` variate. Panics if `2 mu` is so large that the
/// *difference* would overflow `i64` (`mu > ~4e36`), far beyond any
/// calibrated noise scale. Many draws at one `mu` should build one
/// [`Skellam`] instead.
pub fn sample_skellam<R: Rng + ?Sized>(rng: &mut R, mu: f64) -> i64 {
    Skellam::new(mu).sample(rng)
}

/// A `Sk(mu)` sampler: the regime and the Poisson setup are fixed once in
/// [`Skellam::new`], and every [`Skellam::sample`] draws exactly what
/// [`sample_skellam`] would, from the same random numbers.
#[derive(Clone, Copy, Debug)]
pub struct Skellam(Law);

#[derive(Clone, Copy, Debug)]
enum Law {
    /// `2 Bin(N, 1/2) - N` with `N ~ Pois(2 mu)`, while `2 mu` is at most
    /// [`SPLIT_MAX`].
    Split(Poisson),
    /// `Pois(mu) - Pois(mu)`, from the split's bound up to
    /// [`DIRECT_DIFFERENCE_MAX`].
    Difference(Poisson),
    /// `round(std * N(0, 1))` with `std = sqrt(2 mu)`, above it.
    Normal { std: f64 },
}

impl Skellam {
    /// The sampler for `Sk(mu)`, with the same panics as
    /// [`sample_skellam`].
    pub fn new(mu: f64) -> Skellam {
        assert!(
            mu.is_finite() && mu >= 0.0,
            "Skellam parameter must be finite and >= 0, got {mu}"
        );
        if 2.0 * mu <= SPLIT_MAX {
            Skellam(Law::Split(Poisson::new(2.0 * mu)))
        } else if mu < DIRECT_DIFFERENCE_MAX {
            Skellam(Law::Difference(Poisson::new(mu)))
        } else {
            let std = (2.0 * mu).sqrt();
            assert!(std < 4.0e18, "Skellam scale {mu} overflows i64");
            Skellam(Law::Normal { std })
        }
    }

    /// One `Sk(mu)` variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        match self.0 {
            Law::Split(ref pois) => {
                let n = pois.sample(rng);
                2 * binomial_half(rng, n as u64) as i64 - n
            }
            Law::Difference(ref pois) => pois.sample(rng) - pois.sample(rng),
            Law::Normal { std } => (std * sample_standard_normal(rng)).round() as i64,
        }
    }
}

/// `Bin(n, 1/2)`: the set bits among `n` fresh random bits, read as
/// `n / 64` whole words and, when `64` does not divide `n`, the low
/// `n % 64` bits of one more. `n = 0` reads nothing.
fn binomial_half<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    let mut heads = 0;
    for _ in 0..n / 64 {
        heads += u64::from(rng.next_u64().count_ones());
    }
    let rest = n % 64;
    if rest > 0 {
        heads += u64::from((rng.next_u64() & ((1 << rest) - 1)).count_ones());
    }
    heads
}

/// Sample a vector of `len` i.i.d. `Sk(mu)` variates.
///
/// ```
/// use rand::SeedableRng;
/// use sqm_sampling::skellam::sample_skellam_vec;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let noise = sample_skellam_vec(&mut rng, 50.0, 1000);
/// let mean: f64 = noise.iter().map(|&z| z as f64).sum::<f64>() / 1000.0;
/// assert!(mean.abs() < 2.0); // mean 0, variance 2*mu = 100
/// ```
pub fn sample_skellam_vec<R: Rng + ?Sized>(rng: &mut R, mu: f64, len: usize) -> Vec<i64> {
    let skellam = Skellam::new(mu);
    (0..len).map(|_| skellam.sample(rng)).collect()
}

/// Exact log-pmf of `Sk(mu)`:
/// `P[K = k] = e^{-2 mu} I_{|k|}(2 mu)`, evaluated as the convolution sum
/// `sum_j Pois(j + |k|; mu) * Pois(j; mu)` in log space.
///
/// The summation window is centered on the dominating term and padded by
/// many standard deviations, so the truncation error is far below `f64`
/// round-off for every `mu <= 1e8` (asserted; the audit suites stay well
/// under that). The reference law the statistical audit harness tests
/// [`sample_skellam`] against.
pub fn skellam_log_pmf(k: i64, mu: f64) -> f64 {
    assert!(
        mu.is_finite() && mu >= 0.0,
        "Skellam parameter must be finite and >= 0, got {mu}"
    );
    assert!(
        mu <= 1e8,
        "exact Skellam pmf evaluation supports mu <= 1e8, got {mu}"
    );
    if mu == 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    let a = k.unsigned_abs();
    // Term j: -2 mu + (2j + a) ln(mu) - ln(j!) - ln((j+a)!), maximized near
    // j* = (-a + sqrt(a^2 + 4 mu^2)) / 2 (where the term ratio crosses 1).
    let af = a as f64;
    let j_star = 0.5 * (-af + (af * af + 4.0 * mu * mu).sqrt());
    let width = 12.0 * (j_star + 1.0).sqrt() + 40.0;
    let j_lo = (j_star - width).max(0.0) as u64;
    let j_hi = (j_star + width) as u64;
    let ln_mu = mu.ln();
    let terms: Vec<f64> = (j_lo..=j_hi)
        .map(|j| {
            (2 * j + a) as f64 * ln_mu
                - 2.0 * mu
                - crate::special::ln_factorial(j)
                - crate::special::ln_factorial(j + a)
        })
        .collect();
    crate::special::log_sum_exp(&terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn moments(xs: &[i64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn moments_match_theory() {
        let mut rng = StdRng::seed_from_u64(11);
        let mu = 20.0;
        let xs = sample_skellam_vec(&mut rng, mu, 200_000);
        let (mean, var) = moments(&xs);
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 2.0 * mu).abs() / (2.0 * mu) < 0.03, "var {var}");
    }

    #[test]
    fn symmetric_about_zero() {
        let mut rng = StdRng::seed_from_u64(12);
        let xs = sample_skellam_vec(&mut rng, 5.0, 100_000);
        let pos = xs.iter().filter(|&&x| x > 0).count() as f64;
        let neg = xs.iter().filter(|&&x| x < 0).count() as f64;
        assert!((pos - neg).abs() / (pos + neg) < 0.02);
    }

    #[test]
    fn closure_under_summation() {
        // Sum of n Sk(mu/n) has the same first two moments as Sk(mu);
        // (the distributions are identical by the convolution property of
        // Poisson differences — we verify moments and tail mass).
        let mut rng = StdRng::seed_from_u64(13);
        let mu = 30.0;
        let n_clients = 10;
        let agg: Vec<i64> = (0..100_000)
            .map(|_| {
                (0..n_clients)
                    .map(|_| sample_skellam(&mut rng, mu / n_clients as f64))
                    .sum()
            })
            .collect();
        let direct = sample_skellam_vec(&mut rng, mu, 100_000);
        let (m1, v1) = moments(&agg);
        let (m2, v2) = moments(&direct);
        assert!((m1 - m2).abs() < 0.15, "means {m1} vs {m2}");
        assert!((v1 - v2).abs() / v2 < 0.05, "vars {v1} vs {v2}");
    }

    #[test]
    fn huge_mu_regression_no_silent_saturation() {
        // mu ~ 1e22 once silently saturated the Poisson counts to i64::MAX
        // and returned zero noise; the direct-difference path must produce
        // noise with the correct variance.
        let mut rng = StdRng::seed_from_u64(99);
        let mu = 3.9e22;
        let xs: Vec<i64> = (0..20_000).map(|_| sample_skellam(&mut rng, mu)).collect();
        assert!(xs.iter().any(|&x| x != 0), "noise silently vanished");
        let (mean, var) = moments(&xs);
        let expect = 2.0 * mu;
        assert!(mean.abs() < 4.0 * (expect / 20_000.0).sqrt(), "mean {mean}");
        assert!((var - expect).abs() / expect < 0.05, "var {var}");
    }

    #[test]
    fn zero_mu_is_zero_noise() {
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..100 {
            assert_eq!(sample_skellam(&mut rng, 0.0), 0);
        }
    }

    #[test]
    fn log_pmf_is_symmetric_and_normalizes() {
        for mu in [0.3, 2.0, 40.0, 400.0] {
            // Symmetry: Sk(mu) = Pois - Pois of equal means.
            for k in [0i64, 1, 3, 17] {
                let p = skellam_log_pmf(k, mu);
                let m = skellam_log_pmf(-k, mu);
                assert!((p - m).abs() < 1e-12, "mu={mu} k={k}: {p} vs {m}");
            }
            let kmax = (20.0 * (2.0 * mu).sqrt() + 40.0) as i64;
            let total: f64 = (-kmax..=kmax).map(|k| skellam_log_pmf(k, mu).exp()).sum();
            assert!((total - 1.0).abs() < 1e-9, "mu={mu}: total {total}");
        }
    }

    #[test]
    fn log_pmf_matches_direct_convolution() {
        // Brute-force convolution of two Poisson pmfs at small mu.
        let mu = 4.0;
        for k in -6i64..=6 {
            let mut acc = 0.0f64;
            for j in 0..200u64 {
                let jk = j as i64 + k;
                if jk < 0 {
                    continue;
                }
                acc += (crate::poisson::poisson_log_pmf(jk as u64, mu)
                    + crate::poisson::poisson_log_pmf(j, mu))
                .exp();
            }
            let exact = skellam_log_pmf(k, mu).exp();
            assert!(
                (acc - exact).abs() / exact < 1e-10,
                "k={k}: {acc} vs {exact}"
            );
        }
    }

    #[test]
    fn log_pmf_zero_mu_is_point_mass() {
        assert_eq!(skellam_log_pmf(0, 0.0), 0.0);
        assert_eq!(skellam_log_pmf(2, 0.0), f64::NEG_INFINITY);
    }

    /// The per-call sampler as it stood before its setup moved into
    /// [`Skellam::new`]: regime, PTRD constants and `e^{-mu}` recomputed
    /// on every draw. Kept verbatim as the differential reference above
    /// [`SPLIT_MAX`]; below it, the split counts heads one bit at a time.
    mod per_call {
        use crate::gaussian::sample_standard_normal;
        use crate::special::ln_factorial;
        use rand::Rng;

        pub fn sample_skellam<R: Rng + ?Sized>(rng: &mut R, mu: f64) -> i64 {
            if 2.0 * mu <= super::SPLIT_MAX {
                let n = sample_poisson(rng, 2.0 * mu);
                let mut heads = 0;
                let mut word = 0u64;
                for bit in 0..n {
                    if bit % 64 == 0 {
                        word = rng.next_u64();
                    }
                    heads += (word >> (bit % 64) & 1) as i64;
                }
                2 * heads - n
            } else if mu < super::DIRECT_DIFFERENCE_MAX {
                sample_poisson(rng, mu) - sample_poisson(rng, mu)
            } else {
                let std = (2.0 * mu).sqrt();
                (std * sample_standard_normal(rng)).round() as i64
            }
        }

        fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, mu: f64) -> i64 {
            if mu == 0.0 {
                0
            } else if mu < 10.0 {
                let l = (-mu).exp();
                let mut k: i64 = 0;
                let mut p = 1.0f64;
                loop {
                    p *= rng.gen::<f64>();
                    if p <= l {
                        return k;
                    }
                    k += 1;
                }
            } else if mu < (1u64 << 50) as f64 {
                poisson_ptrd(rng, mu)
            } else {
                let z = sample_standard_normal(rng);
                let v = mu + mu.sqrt() * z;
                v.round().max(0.0) as i64
            }
        }

        fn poisson_ptrd<R: Rng + ?Sized>(rng: &mut R, mu: f64) -> i64 {
            let smu = mu.sqrt();
            let b = 0.931 + 2.53 * smu;
            let a = -0.059 + 0.02483 * b;
            let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
            let v_r = 0.9277 - 3.6224 / (b - 2.0);
            loop {
                let v: f64 = rng.gen();
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
                let ln_pmf = if k >= 10.0 {
                    let inv = 1.0 / k;
                    (k + 0.5) * (mu / k).ln() - mu + k
                        - 0.5 * mu.ln()
                        - 0.5 * (2.0 * std::f64::consts::PI).ln()
                        - (1.0 / 12.0 - inv * inv / 360.0) * inv
                } else {
                    k * mu.ln() - mu - ln_factorial(k as u64)
                };
                if v.ln() <= ln_pmf {
                    return k as i64;
                }
            }
        }
    }

    #[test]
    fn binomial_split_counts_the_set_bits_of_the_words_it_reads() {
        for n in [0u64, 1, 63, 64, 65, 128, 200] {
            let mut rng = StdRng::seed_from_u64(n);
            let mut replay = rng.clone();
            let heads = binomial_half(&mut rng, n);
            let mut want = 0;
            for word in 0..n.div_ceil(64) {
                let bits = (n - 64 * word).min(64);
                let mask = u64::MAX >> (64 - bits);
                want += u64::from((replay.next_u64() & mask).count_ones());
            }
            assert_eq!(heads, want, "n={n}");
            assert!(heads <= n, "n={n}");
            // Exactly ceil(n / 64) words were read.
            assert_eq!(rng.next_u64(), replay.next_u64(), "n={n}");
        }
    }

    #[test]
    fn regimes_split_at_the_cap() {
        assert!(matches!(Skellam::new(0.0).0, Law::Split(_)));
        assert!(matches!(Skellam::new(25.0).0, Law::Split(_)));
        assert!(matches!(Skellam::new(SPLIT_MAX / 2.0).0, Law::Split(_)));
        assert!(matches!(Skellam::new(224.5).0, Law::Difference(_)));
        assert!(matches!(Skellam::new(3.9e22).0, Law::Normal { .. }));
        // mu = 0 draws nothing.
        let mut rng = StdRng::seed_from_u64(16);
        let mut untouched = rng.clone();
        assert_eq!(Skellam::new(0.0).sample(&mut rng), 0);
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn hoisted_setup_draws_what_the_per_call_sampler_drew() {
        let two49 = (1u64 << 49) as f64;
        for mu in [
            0.0,
            0.3,
            4.99,
            5.0,
            9.99,
            10.0,
            12.5,
            25.0,
            128.0,
            223.5,
            224.0,
            224.0 + 1e-9,
            224.5,
            1e6,
            two49 - 1.0,
            two49 + 1.0,
            3.9e22,
        ] {
            let skellam = Skellam::new(mu);
            let mut hoisted = StdRng::seed_from_u64(mu.to_bits());
            let mut per_call = hoisted.clone();
            let mut wrapper = hoisted.clone();
            for draw in 0..20_000 {
                let want = per_call::sample_skellam(&mut per_call, mu);
                assert_eq!(skellam.sample(&mut hoisted), want, "mu={mu} draw {draw}");
                assert_eq!(
                    sample_skellam(&mut wrapper, mu),
                    want,
                    "mu={mu} draw {draw}"
                );
            }
            // The same number of random words went into the draws.
            let next = per_call.next_u64();
            assert_eq!(hoisted.next_u64(), next, "mu={mu}");
            assert_eq!(wrapper.next_u64(), next, "mu={mu}");
        }
    }
}
