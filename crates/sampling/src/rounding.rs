//! Unbiased stochastic rounding — the primitive inside Algorithm 2.
//!
//! Given a real `x`, flip a coin with heads probability `x - floor(x)`;
//! on heads round up, otherwise round down. The result is an integer whose
//! expectation is exactly `x`, and whose deviation from `x` is strictly less
//! than 1. The paper's sensitivity analysis (Lemmas 2-4) charges exactly this
//! per-coordinate deviation of at most 1.

use rand::Rng;

/// Stochastically round `x` to one of its two nearest integers, unbiased.
///
/// Panics if `x` is not finite or exceeds the exactly-representable integer
/// range of `f64` (`|x| > 2^53`), where "nearest integer" is ill-defined.
pub fn stochastic_round<R: Rng + ?Sized>(rng: &mut R, x: f64) -> i64 {
    assert!(x.is_finite(), "cannot round non-finite value {x}");
    assert!(
        x.abs() <= (1u64 << 53) as f64,
        "|x| = {x} exceeds exact f64 integer range"
    );
    // Floor by truncation: `as` rounds toward zero, one above the floor for
    // a negative non-integer. Exact under the assert above (every integer
    // of magnitude at most 2^53 is an f64), and branch-free where `floor`
    // is a libm call (baseline x86-64 has no `roundsd`).
    let trunc = x as i64;
    let floor = trunc - i64::from(trunc as f64 > x);
    let frac = x - floor as f64;
    let up = frac > 0.0 && rng.gen::<f64>() < frac;
    floor + i64::from(up)
}

/// Stochastically round each entry of a slice (Algorithm 2 without the
/// scaling step).
pub fn stochastic_round_vec<R: Rng + ?Sized>(rng: &mut R, xs: &[f64]) -> Vec<i64> {
    xs.iter().map(|&x| stochastic_round(rng, x)).collect()
}

/// Deterministic nearest rounding — the *biased* alternative used by the
/// rounding-strategy ablation (DESIGN.md decision 2).
pub fn nearest_round(x: f64) -> i64 {
    assert!(x.is_finite(), "cannot round non-finite value {x}");
    x.round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The `f64::floor` formulation the truncating floor replaced, kept as
    /// the reference.
    fn floor_reference<R: Rng + ?Sized>(rng: &mut R, x: f64) -> i64 {
        let floor = x.floor();
        let frac = x - floor;
        let up = frac > 0.0 && rng.gen::<f64>() < frac;
        floor as i64 + i64::from(up)
    }

    /// Same integer and same draws as the reference, at the values where a
    /// truncating floor could go wrong: signed zeros, integers of either
    /// sign up to 2^53, subnormals, and values just below an integer.
    #[test]
    fn truncating_floor_matches_the_floor_reference() {
        let top = (1u64 << 53) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            top,
            -top,
            top - 1.0,
            -top + 1.0,
            top / 2.0 + 0.5,
            -(top / 2.0) - 0.5,
        ];
        for k in [-1e15f64, -1e6, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 1e6, 1e15] {
            // The neighbours of `k` one ulp nearer to and further from zero.
            let nearer = f64::from_bits(k.to_bits() - 1);
            let further = f64::from_bits(k.to_bits() + 1);
            xs.extend([k, nearer, further, k - 0.5, k + 0.25]);
        }
        let (mut a, mut b) = (StdRng::seed_from_u64(53), StdRng::seed_from_u64(53));
        for &x in &xs {
            for _ in 0..8 {
                assert_eq!(
                    stochastic_round(&mut a, x),
                    floor_reference(&mut b, x),
                    "x={x:e}"
                );
            }
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "same draws consumed");
    }

    #[test]
    fn integers_round_to_themselves() {
        let mut rng = StdRng::seed_from_u64(0);
        for v in [-5.0, 0.0, 3.0, 1e9] {
            for _ in 0..10 {
                assert_eq!(stochastic_round(&mut rng, v), v as i64);
            }
        }
    }

    #[test]
    fn result_is_floor_or_ceil() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rand::Rng::gen::<f64>(&mut rng) * 200.0 - 100.0;
            let r = stochastic_round(&mut rng, x);
            assert!(r == x.floor() as i64 || r == x.ceil() as i64, "x={x} r={r}");
        }
    }

    #[test]
    fn unbiasedness() {
        let mut rng = StdRng::seed_from_u64(2);
        for &x in &[0.25, -1.7, 3.5, 0.99, -0.01] {
            let n = 200_000;
            let sum: i64 = (0..n).map(|_| stochastic_round(&mut rng, x)).sum();
            let mean = sum as f64 / n as f64;
            assert!((mean - x).abs() < 0.01, "x={x} mean={mean}");
        }
    }

    #[test]
    fn negative_fractions() {
        // -1.25 must round to -2 or -1 (floor/ceil), with P(-1) = 0.75.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let ups = (0..n)
            .filter(|_| stochastic_round(&mut rng, -1.25) == -1)
            .count() as f64;
        assert!((ups / n as f64 - 0.75).abs() < 0.01);
    }

    #[test]
    fn nearest_round_is_deterministic_and_biased_sample() {
        assert_eq!(nearest_round(0.5), 1);
        assert_eq!(nearest_round(1.4), 1);
        assert_eq!(nearest_round(-1.6), -2);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_infinity() {
        let mut rng = StdRng::seed_from_u64(0);
        stochastic_round(&mut rng, f64::INFINITY);
    }

    proptest! {
        #[test]
        fn prop_deviation_below_one(x in -1e12f64..1e12f64) {
            let mut rng = StdRng::seed_from_u64(7);
            let r = stochastic_round(&mut rng, x) as f64;
            prop_assert!((r - x).abs() < 1.0);
        }

        #[test]
        fn prop_truncating_floor_matches_the_floor_reference(x in -1e15f64..1e15f64, seed in any::<u64>()) {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            prop_assert_eq!(stochastic_round(&mut a, x), floor_reference(&mut b, x));
            prop_assert_eq!(stochastic_round(&mut a, x / 1e9), floor_reference(&mut b, x / 1e9));
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }

        #[test]
        fn prop_vec_matches_scalars_in_length(xs in proptest::collection::vec(-100.0f64..100.0, 0..50)) {
            let mut rng = StdRng::seed_from_u64(8);
            prop_assert_eq!(stochastic_round_vec(&mut rng, &xs).len(), xs.len());
        }
    }
}
