//! `GF(2^127 - 1)`: the Mersenne-127 prime field.
//!
//! Multiplication decomposes each 127-bit operand into two 64-bit limbs and
//! assembles the 254-bit product as `hi * 2^128 + lo`; since
//! `2^128 ≡ 2 (mod p)` the product reduces to `2*hi + lo` followed by
//! Mersenne folds. This gives PCA workloads ~126 bits of integer headroom.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::traits::{check_combine, PrimeField};

/// The modulus `2^127 - 1`.
pub const P127: u128 = (1u128 << 127) - 1;

/// An element of `GF(2^127 - 1)`, stored canonically in `[0, p)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct M127(u128);

impl M127 {
    /// Construct from a canonical representative. Debug-asserts canonicity.
    #[inline]
    pub fn from_canonical(v: u128) -> Self {
        debug_assert!(v < P127);
        M127(v)
    }

    /// Raw canonical value.
    #[inline]
    pub fn raw(self) -> u128 {
        self.0
    }

    /// Fold a `u128` once: result `< 2^127 + 1`.
    #[inline]
    fn fold(v: u128) -> u128 {
        (v & P127) + (v >> 127)
    }

    /// Reduce an arbitrary `u128` modulo `p`.
    #[inline]
    fn reduce(v: u128) -> u128 {
        let f = Self::fold(v);
        if f >= P127 {
            f - P127
        } else {
            f
        }
    }

    /// Full 128x128 -> 256-bit product as `(hi, lo)`.
    #[inline]
    fn wide_mul(a: u128, b: u128) -> (u128, u128) {
        let (a0, a1) = (a as u64 as u128, a >> 64);
        let (b0, b1) = (b as u64 as u128, b >> 64);
        let ll = a0 * b0;
        let lh = a0 * b1;
        let hl = a1 * b0;
        let hh = a1 * b1;
        // lo = ll + (lh + hl) << 64 ; carries propagate into hi.
        let (mid, carry_mid) = lh.overflowing_add(hl);
        let (lo, carry_lo) = ll.overflowing_add(mid << 64);
        let hi = hh + (mid >> 64) + ((carry_mid as u128) << 64) + carry_lo as u128;
        (hi, lo)
    }

    /// Reduce a 256-bit value `hi * 2^128 + lo` modulo `p`.
    #[inline]
    fn reduce256(hi: u128, lo: u128) -> u128 {
        // 2^128 = 2 (mod p), so hi*2^128 + lo = 2*hi + lo (mod p).
        // For products of canonical elements, hi < 2^126, so 2*hi < 2^127.
        let lo_folded = Self::fold(lo); // < 2^127 + 1
        let hi2 = Self::reduce(hi) << 1; // < 2^128 safe: reduce(hi) < 2^127
        let hi2 = Self::fold(hi2);
        let mut acc = Self::fold(lo_folded + hi2);
        if acc >= P127 {
            acc -= P127;
        }
        acc
    }
}

impl PrimeField for M127 {
    const ZERO: Self = M127(0);
    const ONE: Self = M127(1);
    const MODULUS_BITS: u32 = 127;

    #[inline]
    fn modulus() -> u128 {
        P127
    }

    #[inline]
    fn from_u128(v: u128) -> Self {
        M127(Self::reduce(v))
    }

    #[inline]
    fn to_canonical(self) -> u128 {
        self.0
    }

    #[inline]
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let v = rng.gen::<u128>() >> 1; // 127 bits
            if v < P127 {
                return M127(v);
            }
        }
    }

    /// One reduction per output element instead of one per term: each
    /// 254-bit product `hi * 2^128 + lo` is folded below `2^128` as
    /// `lo mod* 2^127 + 2 * hi` (`2^127 = 1`, `2^128 = 2`; `hi < 2^126`
    /// for canonical operands, so the fold is at most `2^128 - 4`), the
    /// folds are summed in a `u128` that counts its carries, and a carry is
    /// worth `2^128 = 2`.
    fn combine(weights: &[Self], rows: &[&[Self]], out: &mut [Self]) {
        check_combine(weights, rows, out.len());
        for (k, o) in out.iter_mut().enumerate() {
            let (mut low, mut carries) = (0u128, 0u128);
            for (w, row) in weights.iter().zip(rows) {
                let (hi, lo) = Self::wide_mul(w.0, row[k].0);
                let (sum, carry) = low.overflowing_add(Self::fold(lo) + (hi << 1));
                low = sum;
                carries += carry as u128;
            }
            *o = M127(Self::reduce(Self::fold(low) + 2 * carries));
        }
    }
}

impl Add for M127 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        // Both < 2^127 - 1 so the u128 sum cannot overflow.
        let s = self.0 + rhs.0;
        M127(if s >= P127 { s - P127 } else { s })
    }
}

impl Sub for M127 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        M127(if borrow { d.wrapping_add(P127) } else { d })
    }
}

impl Mul for M127 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let (hi, lo) = Self::wide_mul(self.0, rhs.0);
        M127(Self::reduce256(hi, lo))
    }
}

impl Neg for M127 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            M127(P127 - self.0)
        }
    }
}

impl AddAssign for M127 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for M127 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for M127 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl fmt::Debug for M127 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M127({})", self.0)
    }
}

impl fmt::Display for M127 {
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
        let a = M127::from_u128(1u128 << 100);
        assert_eq!(a + M127::ZERO, a);
        assert_eq!(a * M127::ONE, a);
        assert_eq!(a - a, M127::ZERO);
        assert_eq!(a + (-a), M127::ZERO);
    }

    #[test]
    fn wraparound() {
        let a = M127::from_canonical(P127 - 1);
        assert_eq!(a + M127::ONE, M127::ZERO);
        assert_eq!(M127::from_u128(P127), M127::ZERO);
    }

    #[test]
    fn wide_mul_known_values() {
        // (2^64)^2 = 2^128 => hi = 1, lo = 0.
        let (hi, lo) = M127::wide_mul(1u128 << 64, 1u128 << 64);
        assert_eq!((hi, lo), (1, 0));
        // max * max
        let (hi, lo) = M127::wide_mul(u128::MAX, u128::MAX);
        // (2^128-1)^2 = 2^256 - 2^129 + 1
        assert_eq!(lo, 1);
        assert_eq!(hi, u128::MAX - 1);
    }

    #[test]
    fn mul_matches_mod_exp_identity() {
        // 2^127 mod p = 1, so (2^64)*(2^63) = 2^127 = 1 (mod p).
        let a = M127::from_u128(1u128 << 64);
        let b = M127::from_u128(1u128 << 63);
        assert_eq!(a * b, M127::ONE);
    }

    #[test]
    fn centered_roundtrip_large() {
        for v in [
            -(1i128 << 120),
            1i128 << 120,
            -1,
            0,
            1,
            i128::MAX / 2,
            i128::MIN / 2 + 1,
        ] {
            assert_eq!(M127::from_i128(v).to_centered_i128(), v, "v={v}");
        }
    }

    #[test]
    fn inverse() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = M127::random(&mut rng);
            if a == M127::ZERO {
                continue;
            }
            assert_eq!(a * a.inverse(), M127::ONE);
        }
    }

    #[test]
    fn fermat_little() {
        let a = M127::from_u128(5);
        assert_eq!(a.pow(P127 - 1), M127::ONE);
    }

    proptest! {
        #[test]
        fn prop_mul_small_matches_integers(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let expect = a as u128 * b as u128;
            prop_assert_eq!(
                (M127::from_u128(a as u128) * M127::from_u128(b as u128)).to_canonical(),
                expect % P127
            );
        }

        #[test]
        fn prop_distributive(a in 0u128..P127, b in 0u128..P127, c in 0u128..P127) {
            let (x, y, z) = (M127::from_canonical(a), M127::from_canonical(b), M127::from_canonical(c));
            prop_assert_eq!(x * (y + z), x * y + x * z);
        }

        #[test]
        fn prop_mul_commutes(a in 0u128..P127, b in 0u128..P127) {
            let (x, y) = (M127::from_canonical(a), M127::from_canonical(b));
            prop_assert_eq!(x * y, y * x);
        }

        #[test]
        fn prop_assoc(a in 0u128..P127, b in 0u128..P127, c in 0u128..P127) {
            let (x, y, z) = (M127::from_canonical(a), M127::from_canonical(b), M127::from_canonical(c));
            prop_assert_eq!((x * y) * z, x * (y * z));
        }
    }
}
