//! Shamir secret sharing over a prime field.
//!
//! A secret `s` is hidden as the constant term of a random degree-`t`
//! polynomial `f`; party `i` (0-based) receives the evaluation `f(i+1)`.
//! Any `t+1` shares reconstruct `s` by Lagrange interpolation at 0; any `t`
//! shares are jointly uniform and reveal nothing (information-theoretic
//! secrecy, the foundation of BGW's semi-honest security).

use rand::Rng;
use sqm_field::PrimeField;

/// One party's share: the evaluation point is implied by the party index
/// (`x = party + 1`).
pub type ShamirShare<F> = F;

/// Split `secret` into `n` shares with threshold `t` (degree-`t` polynomial;
/// any `t+1` shares reconstruct, any `t` reveal nothing). The scalar
/// specification: the engine shares through [`share_secrets_batch`], which
/// the tests and benches hold against this function.
pub fn share_secret<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    secret: F,
    t: usize,
    n: usize,
) -> Vec<ShamirShare<F>> {
    assert!(n >= 1, "need at least one party");
    assert!(t < n, "threshold t={t} must be below the party count n={n}");
    let mut coeffs = Vec::with_capacity(t + 1);
    coeffs.push(secret);
    for _ in 0..t {
        coeffs.push(F::random(rng));
    }
    (1..=n as u64)
        .map(|x| sqm_field::traits::horner(&coeffs, F::from_u64(x)))
        .collect()
}

/// Share a whole vector of secrets at once — the width-parallel batch
/// variant of [`share_secret`] behind every engine sharing.
///
/// The polynomial coefficients are drawn **serially, in secret order**
/// (`[secret, r_1..r_t]` per secret), so the RNG stream — and therefore
/// every wire byte — is bit-identical to calling [`share_secret`] once per
/// secret. Only the pure polynomial evaluations fan out across `workers`
/// scoped threads, and only once the batch is at least `min_parallel_width`
/// secrets wide (thread hand-off costs more than it saves on narrow
/// batches).
///
/// Returns party-major shares: `out[j][k]` is party `j`'s share of
/// `secrets[k]`.
pub fn share_secrets_batch<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    secrets: &[F],
    t: usize,
    n: usize,
    workers: usize,
    min_parallel_width: usize,
) -> Vec<Vec<F>> {
    assert!(n >= 1, "need at least one party");
    assert!(t < n, "threshold t={t} must be below the party count n={n}");
    let width = secrets.len();
    let mut coeffs = Vec::with_capacity(width * (t + 1));
    for &s in secrets {
        coeffs.push(s);
        for _ in 0..t {
            coeffs.push(F::random(rng));
        }
    }
    let xs: Vec<F> = (1..=n as u64).map(F::from_u64).collect();
    // Secret-major scratch (row `k` holds all n shares of secret `k`) so
    // each worker owns a contiguous chunk; transposed to party-major below.
    let mut rows = vec![F::ZERO; width * n];
    let eval_rows = |rows: &mut [F], coeffs: &[F]| {
        for (row, poly) in rows.chunks_mut(n).zip(coeffs.chunks(t + 1)) {
            for (share, &x) in row.iter_mut().zip(&xs) {
                *share = sqm_field::traits::horner(poly, x);
            }
        }
    };
    let workers = workers.max(1);
    if workers > 1 && width >= min_parallel_width.max(2) {
        let chunk = width.div_ceil(workers);
        std::thread::scope(|s| {
            let eval_rows = &eval_rows;
            for (rows, coeffs) in rows
                .chunks_mut(chunk * n)
                .zip(coeffs.chunks(chunk * (t + 1)))
            {
                s.spawn(move || eval_rows(rows, coeffs));
            }
        });
    } else {
        eval_rows(&mut rows, &coeffs);
    }
    let mut per_party: Vec<Vec<F>> = vec![Vec::with_capacity(width); n];
    for row in rows.chunks(n) {
        for (j, &share) in row.iter().enumerate() {
            per_party[j].push(share);
        }
    }
    per_party
}

/// Lagrange coefficients for interpolating at 0 from evaluation points
/// `x = i+1` for each party index `i` in `parties`.
pub fn lagrange_at_zero<F: PrimeField>(parties: &[usize]) -> Vec<F> {
    assert!(!parties.is_empty(), "need at least one share");
    let xs: Vec<F> = parties.iter().map(|&i| F::from_u64(i as u64 + 1)).collect();
    let mut coeffs = Vec::with_capacity(xs.len());
    for (j, &xj) in xs.iter().enumerate() {
        let mut num = F::ONE;
        let mut den = F::ONE;
        for (k, &xk) in xs.iter().enumerate() {
            if k != j {
                num *= -xk; // (0 - x_k)
                den *= xj - xk;
            }
        }
        coeffs.push(num * den.inverse());
    }
    coeffs
}

/// Reconstruct the secret from `(party_index, share)` pairs. The number of
/// pairs must exceed the sharing degree.
pub fn reconstruct<F: PrimeField>(shares: &[(usize, F)]) -> F {
    let parties: Vec<usize> = shares.iter().map(|&(i, _)| i).collect();
    let coeffs = lagrange_at_zero::<F>(&parties);
    shares
        .iter()
        .zip(&coeffs)
        .map(|(&(_, s), &c)| s * c)
        .fold(F::ZERO, |acc, v| acc + v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqm_field::{M127, M61};

    #[test]
    fn share_and_reconstruct_m61() {
        let mut rng = StdRng::seed_from_u64(1);
        let secret = M61::from_i128(-123456);
        let shares = share_secret(&mut rng, secret, 2, 5);
        let pairs: Vec<(usize, M61)> = shares.iter().cloned().enumerate().collect();
        assert_eq!(reconstruct(&pairs[..3]), secret);
        assert_eq!(reconstruct(&pairs[1..4]), secret);
        assert_eq!(reconstruct(&pairs), secret);
    }

    #[test]
    fn share_and_reconstruct_m127() {
        let mut rng = StdRng::seed_from_u64(2);
        let secret = M127::from_i128(1i128 << 100);
        let shares = share_secret(&mut rng, secret, 3, 7);
        let pairs: Vec<(usize, M127)> = shares.iter().cloned().enumerate().collect();
        assert_eq!(reconstruct(&pairs[2..6]), secret);
    }

    #[test]
    fn any_subset_of_t_plus_one_works() {
        let mut rng = StdRng::seed_from_u64(3);
        let secret = M61::from_u64(777);
        let shares = share_secret(&mut rng, secret, 2, 6);
        for subset in [[0usize, 2, 4], [1, 3, 5], [0, 1, 5], [3, 4, 5]] {
            let pairs: Vec<(usize, M61)> = subset.iter().map(|&i| (i, shares[i])).collect();
            assert_eq!(reconstruct(&pairs), secret, "subset {subset:?}");
        }
    }

    #[test]
    fn shares_are_additive() {
        // [a] + [b] is a sharing of a + b (the linearity BGW's add gates
        // rely on).
        let mut rng = StdRng::seed_from_u64(4);
        let (a, b) = (M61::from_u64(100), M61::from_i128(-30));
        let sa = share_secret(&mut rng, a, 2, 5);
        let sb = share_secret(&mut rng, b, 2, 5);
        let sum: Vec<(usize, M61)> = sa
            .iter()
            .zip(&sb)
            .map(|(&x, &y)| x + y)
            .enumerate()
            .collect();
        assert_eq!(reconstruct(&sum[..3]), a + b);
    }

    #[test]
    fn local_products_reconstruct_with_2t_plus_one() {
        // [a]*[b] element-wise is a degree-2t sharing of a*b.
        let mut rng = StdRng::seed_from_u64(5);
        let (a, b) = (M61::from_u64(12), M61::from_u64(34));
        let t = 2;
        let n = 2 * t + 1;
        let sa = share_secret(&mut rng, a, t, n);
        let sb = share_secret(&mut rng, b, t, n);
        let prod: Vec<(usize, M61)> = sa
            .iter()
            .zip(&sb)
            .map(|(&x, &y)| x * y)
            .enumerate()
            .collect();
        assert_eq!(reconstruct(&prod), a * b);
        // t+1 points are NOT enough for the degree-2t product polynomial.
        assert_ne!(reconstruct(&prod[..t + 1]), a * b);
    }

    #[test]
    fn t_shares_are_statistically_uninformative() {
        // A single share of two very different secrets has the same marginal
        // distribution (uniform). Compare coarse histograms.
        let mut rng = StdRng::seed_from_u64(6);
        let n_trials = 4000;
        let buckets = 8;
        let p = M61::modulus();
        let mut h0 = vec![0usize; buckets];
        let mut h1 = vec![0usize; buckets];
        for _ in 0..n_trials {
            let s0 = share_secret(&mut rng, M61::ZERO, 1, 3)[0];
            let s1 = share_secret(&mut rng, M61::from_u128(p / 2), 1, 3)[0];
            h0[(s0.to_canonical() * buckets as u128 / p) as usize] += 1;
            h1[(s1.to_canonical() * buckets as u128 / p) as usize] += 1;
        }
        let expect = n_trials as f64 / buckets as f64;
        for b in 0..buckets {
            for h in [&h0, &h1] {
                let dev = (h[b] as f64 - expect).abs() / expect.sqrt();
                assert!(dev < 5.0, "bucket {b} deviates {dev} sigma");
            }
        }
    }

    #[test]
    fn lagrange_weights_sum_to_one_at_degree_zero() {
        // Interpolating a constant polynomial: weights sum to 1.
        let w = lagrange_at_zero::<M61>(&[0, 1, 2, 3]);
        let sum = w.iter().fold(M61::ZERO, |a, &b| a + b);
        assert_eq!(sum, M61::ONE);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_threshold_not_below_n() {
        let mut rng = StdRng::seed_from_u64(0);
        share_secret(&mut rng, M61::ONE, 3, 3);
    }

    /// The batch kernel must consume the RNG in the exact order the scalar
    /// loop does, so the kernel produces the shares `share_secret` specifies
    /// — the determinism contract every oracle-compared release rests on.
    #[test]
    fn batch_sharing_is_bit_identical_to_scalar_loop() {
        let (t, n) = (2, 5);
        for width in [0usize, 1, 3, 7, 64, 513] {
            let secrets: Vec<M61> = (0..width as u64)
                .map(|k| M61::from_i128(k as i128 - 200))
                .collect();
            let mut scalar_rng = StdRng::seed_from_u64(9 + width as u64);
            let mut per_party_scalar: Vec<Vec<M61>> = vec![Vec::new(); n];
            for &v in &secrets {
                for (j, s) in share_secret(&mut scalar_rng, v, t, n)
                    .into_iter()
                    .enumerate()
                {
                    per_party_scalar[j].push(s);
                }
            }
            for (workers, min_width) in [(1, 4), (4, 4), (4, 0), (3, 1_000_000)] {
                let mut batch_rng = StdRng::seed_from_u64(9 + width as u64);
                let batch = share_secrets_batch(&mut batch_rng, &secrets, t, n, workers, min_width);
                assert_eq!(batch, per_party_scalar, "width={width} workers={workers}");
                // Both paths must leave the RNG in the same state.
                assert_eq!(
                    rand::Rng::gen::<u64>(&mut batch_rng),
                    rand::Rng::gen::<u64>(&mut scalar_rng.clone()),
                    "width={width} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn batch_shares_reconstruct() {
        let mut rng = StdRng::seed_from_u64(11);
        let secrets: Vec<M61> = (0..300u64).map(M61::from_u64).collect();
        let per_party = share_secrets_batch(&mut rng, &secrets, 2, 5, 4, 16);
        for (k, &s) in secrets.iter().enumerate() {
            let pairs: Vec<(usize, M61)> = (0..5).map(|j| (j, per_party[j][k])).collect();
            assert_eq!(reconstruct(&pairs[..3]), s, "secret {k}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqm_field::{PrimeField, M61};

    proptest! {
        #[test]
        fn prop_any_large_enough_subset_reconstructs(
            secret in any::<i64>(),
            t in 0usize..4,
            extra in 0usize..4,
            seed in any::<u64>(),
            subset_seed in any::<u64>(),
        ) {
            let n = 2 * t + 1 + extra;
            let mut rng = StdRng::seed_from_u64(seed);
            let s = M61::from_i128(secret as i128);
            let shares = share_secret(&mut rng, s, t, n);
            // Pick a random (t+1)-subset.
            let mut idx: Vec<usize> = (0..n).collect();
            let mut srng = StdRng::seed_from_u64(subset_seed);
            for i in (1..n).rev() {
                let j = rand::Rng::gen_range(&mut srng, 0..=i);
                idx.swap(i, j);
            }
            let pairs: Vec<(usize, M61)> = idx[..t + 1].iter().map(|&i| (i, shares[i])).collect();
            prop_assert_eq!(reconstruct(&pairs), s);
        }

        #[test]
        fn prop_linearity_of_sharing(
            a in any::<i32>(),
            b in any::<i32>(),
            scale in 1i64..1000,
            seed in any::<u64>(),
        ) {
            // alpha*[a] + [b] reconstructs alpha*a + b.
            let mut rng = StdRng::seed_from_u64(seed);
            let (t, n) = (2, 5);
            let fa = M61::from_i128(a as i128);
            let fb = M61::from_i128(b as i128);
            let alpha = M61::from_i128(scale as i128);
            let sa = share_secret(&mut rng, fa, t, n);
            let sb = share_secret(&mut rng, fb, t, n);
            let combo: Vec<(usize, M61)> = sa
                .iter()
                .zip(&sb)
                .map(|(&x, &y)| alpha * x + y)
                .enumerate()
                .collect();
            prop_assert_eq!(reconstruct(&combo[..t + 1]), alpha * fa + fb);
        }
    }
}
