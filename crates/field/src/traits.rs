//! The [`PrimeField`] trait shared by all field implementations.

use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

/// A prime field `GF(p)` with a centered signed-integer encoding.
///
/// Implementations guarantee the canonical representative of every element is
/// in `[0, p)`. Equality and hashing are on canonical representatives.
pub trait PrimeField:
    Copy
    + Clone
    + Eq
    + PartialEq
    + Hash
    + Debug
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Number of bits of the modulus.
    const MODULUS_BITS: u32;

    /// The modulus `p` as a `u128`.
    fn modulus() -> u128;

    /// Construct from an unsigned integer (reduced mod `p`).
    fn from_u128(v: u128) -> Self;

    /// Construct from an unsigned 64-bit integer (reduced mod `p`).
    fn from_u64(v: u64) -> Self {
        Self::from_u128(v as u128)
    }

    /// Centered encoding of a signed integer: `v >= 0` maps to `v mod p`,
    /// `v < 0` maps to `p - (|v| mod p)`.
    fn from_i128(v: i128) -> Self {
        if v >= 0 {
            Self::from_u128(v as u128)
        } else {
            -Self::from_u128(v.unsigned_abs())
        }
    }

    /// Canonical representative in `[0, p)`.
    fn to_canonical(self) -> u128;

    /// Centered decoding: representatives in `(p/2, p)` are interpreted as
    /// negative integers. The result is in `(-p/2, p/2]`.
    fn to_centered_i128(self) -> i128 {
        let c = self.to_canonical();
        let p = Self::modulus();
        if c > p / 2 {
            -((p - c) as i128)
        } else {
            c as i128
        }
    }

    /// Multiplicative inverse. Panics on zero.
    fn inverse(self) -> Self {
        assert!(self != Self::ZERO, "inverse of zero");
        // p is prime: a^(p-2) = a^-1.
        self.pow(Self::modulus() - 2)
    }

    /// Exponentiation by square-and-multiply.
    fn pow(self, mut e: u128) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// A uniformly random field element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// `self * 2` (cheap doubling).
    fn double(self) -> Self {
        self + self
    }

    /// `self^2`.
    fn square(self) -> Self {
        self * self
    }

    /// Sum of products `sum_i a[i] * b[i]`. Panics on a length mismatch.
    ///
    /// Field arithmetic is exact, so an implementation may sum in any order
    /// and reduce as rarely as its representation allows (see `M61`).
    fn dot(a: &[Self], b: &[Self]) -> Self {
        assert_eq!(a.len(), b.len(), "dot: operand length mismatch");
        let mut s = Self::ZERO;
        for (&x, &y) in a.iter().zip(b) {
            s += x * y;
        }
        s
    }

    /// `[dot(x, cols[0]), .., dot(x, cols[3])]`: one operand against four,
    /// so an implementation can read `x` once for all four sums.
    fn dot4(x: &[Self], cols: [&[Self]; 4]) -> [Self; 4] {
        cols.map(|c| Self::dot(x, c))
    }

    /// Serialized byte width of one element (for communication accounting).
    fn byte_width() -> usize {
        Self::MODULUS_BITS.div_ceil(8) as usize
    }
}

/// Evaluate a polynomial with coefficients `coeffs` (constant term first) at
/// point `x`, by Horner's rule.
pub fn horner<F: PrimeField>(coeffs: &[F], x: F) -> F {
    let mut acc = F::ZERO;
    for &c in coeffs.iter().rev() {
        acc = acc * x + c;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{M127, M61};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-term loop `dot` replaced, kept as the reference.
    fn fold_dot<F: PrimeField>(a: &[F], b: &[F]) -> F {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| x * y)
            .fold(F::ZERO, |acc, v| acc + v)
    }

    /// `dot`/`dot4` against the reference at every length through four
    /// reduction blocks and a ragged fifth (0, 1, 31, 32, 33, 64, 65, ...).
    fn check_dot_at_every_length<F: PrimeField>() {
        let mut rng = StdRng::seed_from_u64(61);
        for len in 0..=130 {
            let mut col = || (0..len).map(|_| F::random(&mut rng)).collect::<Vec<F>>();
            let (x, c) = (col(), [col(), col(), col(), col()]);
            assert_eq!(F::dot(&x, &c[0]), fold_dot(&x, &c[0]), "dot, len {len}");
            assert_eq!(
                F::dot4(&x, [&c[0], &c[1], &c[2], &c[3]]),
                [0, 1, 2, 3].map(|l| fold_dot(&x, &c[l])),
                "dot4, len {len}"
            );
        }
    }

    #[test]
    fn m61_dot_matches_fold_at_every_length() {
        check_dot_at_every_length::<M61>();
    }

    #[test]
    fn m127_default_dot_matches_fold_at_every_length() {
        check_dot_at_every_length::<M127>();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn m61_dot4_rejects_a_ragged_column() {
        let (x, short) = ([M61::ONE; 3], [M61::ONE; 2]);
        M61::dot4(&x, [&x, &x, &short, &x]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn m127_default_dot4_rejects_a_ragged_column() {
        let (x, long) = ([M127::ONE; 3], [M127::ONE; 4]);
        M127::dot4(&x, [&x, &x, &x, &long]);
    }

    #[test]
    fn horner_constant() {
        let c = [M61::from_u64(7)];
        assert_eq!(horner(&c, M61::from_u64(100)), M61::from_u64(7));
    }

    #[test]
    fn horner_linear() {
        // 3 + 5x at x = 2 => 13
        let c = [M61::from_u64(3), M61::from_u64(5)];
        assert_eq!(horner(&c, M61::from_u64(2)), M61::from_u64(13));
    }

    #[test]
    fn horner_empty_is_zero() {
        assert_eq!(horner::<M61>(&[], M61::from_u64(9)), M61::ZERO);
    }
}
