//! `GF(2^61 - 1)`: the Mersenne-61 prime field.
//!
//! Reduction exploits `2^61 ≡ 1 (mod p)`: a value is folded by adding its
//! high bits (shifted down by 61) to its low 61 bits. Multiplication of two
//! canonical elements fits in `u128`.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::traits::PrimeField;

/// The modulus `2^61 - 1`.
pub const P61: u64 = (1u64 << 61) - 1;

/// Products summed into one `u128` between two reductions in
/// [`PrimeField::dot`] / [`PrimeField::dot4`].
const DOT_BLOCK: usize = 32;

// The release profile does not check overflow, so the accumulator bound is
// proven here: a block of products of canonical elements fits a `u128`.
const _: () = assert!(DOT_BLOCK as u128 <= u128::MAX / ((P61 as u128 - 1) * (P61 as u128 - 1)));

/// An element of `GF(2^61 - 1)`, stored canonically in `[0, p)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct M61(u64);

impl M61 {
    /// Construct from a canonical representative. Debug-asserts canonicity.
    #[inline]
    pub fn from_canonical(v: u64) -> Self {
        debug_assert!(v < P61);
        M61(v)
    }

    /// Raw canonical value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reduce an arbitrary `u64` modulo `p`.
    #[inline]
    fn reduce64(v: u64) -> u64 {
        // Fold once: v < 2^64 => folded < 2^61 + 2^3.
        let folded = (v & P61) + (v >> 61);
        if folded >= P61 {
            folded - P61
        } else {
            folded
        }
    }

    /// Reduce an arbitrary `u128` modulo `p`.
    #[inline]
    fn reduce128(v: u128) -> u64 {
        // Two folds bring any u128 below 2^62, then a conditional subtract.
        let lo = (v & P61 as u128) as u64;
        let hi = v >> 61;
        let lo2 = (hi & P61 as u128) as u64;
        let hi2 = (hi >> 61) as u64;
        let mut acc = lo as u128 + lo2 as u128 + hi2 as u128;
        if acc >= P61 as u128 {
            acc -= P61 as u128;
        }
        if acc >= P61 as u128 {
            acc -= P61 as u128;
        }
        acc as u64
    }

    /// `out[l] = <x, cols[l]>` with delayed reduction: raw 122-bit products
    /// are added in `u128` and folded once per [`DOT_BLOCK`] terms. The `N`
    /// lanes share each load of `x` and keep `N` independent add chains in
    /// flight, which is what lets the loop run at the multiplier's pace.
    #[inline]
    fn dot_lanes<const N: usize>(x: &[M61], cols: [&[M61]; N]) -> [M61; N] {
        let m = x.len();
        for c in &cols {
            assert_eq!(c.len(), m, "dot: operand length mismatch");
        }
        let mut out = [M61::ZERO; N];
        let mut start = 0;
        while start < m {
            let end = (start + DOT_BLOCK).min(m);
            let xb = &x[start..end];
            let cb = cols.map(|c| &c[start..end]);
            let mut wide = [0u128; N];
            for i in 0..xb.len() {
                let xi = xb[i].0 as u128;
                for l in 0..N {
                    wide[l] += xi * cb[l][i].0 as u128;
                }
            }
            for l in 0..N {
                out[l] += M61(Self::reduce128(wide[l]));
            }
            start = end;
        }
        out
    }
}

impl PrimeField for M61 {
    const ZERO: Self = M61(0);
    const ONE: Self = M61(1);
    const MODULUS_BITS: u32 = 61;

    #[inline]
    fn modulus() -> u128 {
        P61 as u128
    }

    #[inline]
    fn from_u128(v: u128) -> Self {
        M61(Self::reduce128(v))
    }

    #[inline]
    fn from_u64(v: u64) -> Self {
        M61(Self::reduce64(v))
    }

    #[inline]
    fn to_canonical(self) -> u128 {
        self.0 as u128
    }

    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling from 61 random bits keeps the distribution
        // exactly uniform (acceptance probability 1 - 2^-61).
        loop {
            let v = rng.gen::<u64>() >> 3; // 61 bits
            if v < P61 {
                return M61(v);
            }
        }
    }

    #[inline]
    fn dot(a: &[Self], b: &[Self]) -> Self {
        Self::dot_lanes(a, [b])[0]
    }

    #[inline]
    fn dot4(x: &[Self], cols: [&[Self]; 4]) -> [Self; 4] {
        Self::dot_lanes(x, cols)
    }
}

impl Add for M61 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let s = self.0 + rhs.0; // < 2^62, no overflow
        M61(if s >= P61 { s - P61 } else { s })
    }
}

impl Sub for M61 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        M61(if borrow { d.wrapping_add(P61) } else { d })
    }
}

impl Mul for M61 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        M61(Self::reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl Neg for M61 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            M61(P61 - self.0)
        }
    }
}

impl AddAssign for M61 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for M61 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for M61 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl fmt::Debug for M61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M61({})", self.0)
    }
}

impl fmt::Display for M61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_identities() {
        let a = M61::from_u64(12345);
        assert_eq!(a + M61::ZERO, a);
        assert_eq!(a * M61::ONE, a);
        assert_eq!(a - a, M61::ZERO);
        assert_eq!(a + (-a), M61::ZERO);
    }

    #[test]
    fn wraparound_addition() {
        let a = M61::from_canonical(P61 - 1);
        assert_eq!(a + M61::ONE, M61::ZERO);
        assert_eq!(a + M61::from_u64(2), M61::ONE);
    }

    #[test]
    fn reduce_of_modulus_is_zero() {
        assert_eq!(M61::from_u64(P61), M61::ZERO);
        assert_eq!(M61::from_u128(P61 as u128 * 7), M61::ZERO);
        assert!(M61::from_u128(u128::MAX).to_canonical() < P61 as u128);
    }

    #[test]
    fn centered_encoding_roundtrip() {
        for v in [-1i128, 0, 1, -(1i128 << 59), (1i128 << 59), 42, -42] {
            assert_eq!(M61::from_i128(v).to_centered_i128(), v, "v={v}");
        }
    }

    #[test]
    fn centered_arithmetic_matches_integers() {
        let a = -123456789i128;
        let b = 987654321i128;
        assert_eq!(
            (M61::from_i128(a) * M61::from_i128(b)).to_centered_i128(),
            a * b
        );
        assert_eq!(
            (M61::from_i128(a) + M61::from_i128(b)).to_centered_i128(),
            a + b
        );
    }

    #[test]
    fn inverse_and_pow() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let a = M61::random(&mut rng);
            if a == M61::ZERO {
                continue;
            }
            assert_eq!(a * a.inverse(), M61::ONE);
        }
        // Fermat: a^(p-1) = 1.
        let a = M61::from_u64(3);
        assert_eq!(a.pow(P61 as u128 - 1), M61::ONE);
    }

    #[test]
    fn random_is_canonical() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(M61::random(&mut rng).raw() < P61);
        }
    }

    /// Every product at its maximum `(p - 1)^2`, four full blocks plus one
    /// term: in the debug profile an overflowing `u128 +=` panics here.
    #[test]
    fn dot_worst_case_does_not_overflow() {
        let len = 4 * DOT_BLOCK + 1;
        let top = vec![M61::from_canonical(P61 - 1); len];
        // (p - 1)^2 = 1 (mod p), so each sum is `len`.
        let expect = M61::from_u64(len as u64);
        assert_eq!(M61::dot(&top, &top), expect);
        assert_eq!(M61::dot4(&top, [&top, &top, &top, &top]), [expect; 4]);
    }

    proptest! {
        #[test]
        fn prop_dot_matches_u128_mod(
            raw in collection::vec(0u64..P61, 5 * 130),
            len in 0usize..=130,
        ) {
            let cols: Vec<Vec<M61>> = raw
                .chunks_exact(130)
                .map(|c| c[..len].iter().map(|&v| M61::from_canonical(v)).collect())
                .collect();
            let expect = |l: usize| {
                let sum = cols[0].iter().zip(&cols[l]).fold(0u128, |acc, (x, y)| {
                    (acc + x.0 as u128 * y.0 as u128 % P61 as u128) % P61 as u128
                });
                M61::from_u128(sum)
            };
            prop_assert_eq!(M61::dot(&cols[0], &cols[1]), expect(1));
            prop_assert_eq!(
                M61::dot4(&cols[0], [&cols[1], &cols[2], &cols[3], &cols[4]]),
                [1, 2, 3, 4].map(expect)
            );
        }

        #[test]
        fn prop_add_commutes(a in 0u64..P61, b in 0u64..P61) {
            let (x, y) = (M61::from_canonical(a), M61::from_canonical(b));
            prop_assert_eq!(x + y, y + x);
        }

        #[test]
        fn prop_mul_matches_u128(a in 0u64..P61, b in 0u64..P61) {
            let expect = (a as u128 * b as u128) % P61 as u128;
            prop_assert_eq!((M61::from_canonical(a) * M61::from_canonical(b)).to_canonical(), expect);
        }

        #[test]
        fn prop_distributive(a in 0u64..P61, b in 0u64..P61, c in 0u64..P61) {
            let (x, y, z) = (M61::from_canonical(a), M61::from_canonical(b), M61::from_canonical(c));
            prop_assert_eq!(x * (y + z), x * y + x * z);
        }

        #[test]
        fn prop_sub_is_add_neg(a in 0u64..P61, b in 0u64..P61) {
            let (x, y) = (M61::from_canonical(a), M61::from_canonical(b));
            prop_assert_eq!(x - y, x + (-y));
        }

        #[test]
        fn prop_centered_roundtrip(v in -((P61 as i128)/2)..=((P61 as i128)/2)) {
            prop_assert_eq!(M61::from_i128(v).to_centered_i128(), v);
        }
    }
}
