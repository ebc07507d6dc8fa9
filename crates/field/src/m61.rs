//! `GF(2^61 - 1)`: the Mersenne-61 prime field.
//!
//! Reduction exploits `2^61 ≡ 1 (mod p)`: a value is folded by adding its
//! high bits (shifted down by 61) to its low 61 bits. Multiplication of two
//! canonical elements fits in `u128`.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::traits::{check_combine, PrimeField};

/// The modulus `2^61 - 1`.
pub const P61: u64 = (1u64 << 61) - 1;

/// Products summed into one `u128` between two reductions in
/// [`PrimeField::dot`], and rows summed into one in [`PrimeField::combine`].
const DOT_BLOCK: usize = 32;

/// Pair products summed into one `u128` between two reductions in
/// [`PrimeField::winograd4`]. Each factor is a sum of two canonical
/// elements, below `2^62`, so each product is below `2^124`: fifteen fit a
/// `u128`, sixteen of the loose bound do not.
const PAIR_BLOCK: usize = 15;

// The release profile does not check overflow, so the accumulator bounds are
// proven here: a block of products of canonical elements fits a `u128`, and
// so does a block of products of sums below `2^62`.
const _: () = assert!(DOT_BLOCK as u128 <= u128::MAX / ((P61 as u128 - 1) * (P61 as u128 - 1)));
const _: () = assert!(PAIR_BLOCK as u128 <= u128::MAX >> 124);

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
        // v = l0 + l1 * 2^61 + l2 * 2^122 with l0, l1 < 2^61 and l2 < 2^6,
        // and 2^61 = 1 (mod p): the limbs sum below 2^63 in a u64, which
        // one fold and one conditional subtract bring into [0, p).
        let limbs = (v as u64 & P61) + ((v >> 61) as u64 & P61) + (v >> 122) as u64;
        Self::reduce64(limbs)
    }

    /// `(x[0] + c[1]) * (x[1] + c[0])` unreduced: each sum of two canonical
    /// elements is below `2^62` in a `u64`, the product below `2^124`.
    #[inline(always)]
    fn pair_product(x: &[M61], c: &[M61]) -> u128 {
        (x[0].0 + c[1].0) as u128 * (x[1].0 + c[0].0) as u128
    }

    /// `sum_i weights[i] * rows[i][k]` over at most [`DOT_BLOCK`] rows, the
    /// products added in one `u128` and reduced once.
    #[inline]
    fn column_sum(weights: &[M61], rows: &[&[M61]], k: usize) -> M61 {
        let mut wide = 0u128;
        for (w, row) in weights.iter().zip(rows) {
            wide += w.0 as u128 * row[k].0 as u128;
        }
        M61(Self::reduce128(wide))
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

    /// Delayed reduction: raw 122-bit products are added in a `u128` and
    /// folded once per [`DOT_BLOCK`] terms.
    #[inline]
    fn dot(a: &[Self], b: &[Self]) -> Self {
        assert_eq!(a.len(), b.len(), "dot: operand length mismatch");
        let mut out = M61::ZERO;
        for (ab, bb) in a.chunks(DOT_BLOCK).zip(b.chunks(DOT_BLOCK)) {
            let mut wide = 0u128;
            for (x, y) in ab.iter().zip(bb) {
                wide += x.0 as u128 * y.0 as u128;
            }
            out += M61(Self::reduce128(wide));
        }
        out
    }

    /// Each factor adds two canonical operands in a `u64` (below `2^62`,
    /// no reduction), the raw products are added in one `u128` per lane and
    /// folded once per [`PAIR_BLOCK`] pairs; the four lanes share each
    /// load of `x`.
    fn winograd4(x: &[Self], cols: [&[Self]; 4]) -> [Self; 4] {
        let m = x.len();
        for c in &cols {
            assert_eq!(c.len(), m, "winograd4: operand length mismatch");
        }
        let even = m - m % 2;
        let mut out = [M61::ZERO; 4];
        let mut start = 0;
        while start < even {
            let end = (start + 2 * PAIR_BLOCK).min(even);
            let [c0, c1, c2, c3] = cols.map(|c| c[start..end].chunks_exact(2));
            let lanes = x[start..end]
                .chunks_exact(2)
                .zip(c0)
                .zip(c1)
                .zip(c2)
                .zip(c3);
            let mut wide = [0u128; 4];
            // One statement per lane: a loop over the lanes here is
            // vectorized into shuffles and spills, at twice the cost.
            for ((((xp, p0), p1), p2), p3) in lanes {
                wide[0] += Self::pair_product(xp, p0);
                wide[1] += Self::pair_product(xp, p1);
                wide[2] += Self::pair_product(xp, p2);
                wide[3] += Self::pair_product(xp, p3);
            }
            for (o, w) in out.iter_mut().zip(wide) {
                *o += M61(Self::reduce128(w));
            }
            start = end;
        }
        if even < m {
            for (o, c) in out.iter_mut().zip(cols) {
                *o += x[even] * c[even];
            }
        }
        out
    }

    /// Two's complement reads a negative `v` as `v + 2^64`, and
    /// `2^64 = 8 * 2^61 = 8 (mod p)`: the sign mask adds `p - 8` back. The
    /// two limbs of `v` and that correction sum below `2^62 + 8`, so one
    /// [`M61::reduce64`] lands in `[0, p)` with no branch on the sign.
    #[inline]
    fn from_i64(v: i64) -> Self {
        let u = v as u64;
        let sign_fix = (v >> 63) as u64 & (P61 - 8);
        M61(Self::reduce64((u & P61) + (u >> 61) + sign_fix))
    }

    /// Delayed reduction, as in `dot` above: each output element sums
    /// the raw 122-bit products of up to [`DOT_BLOCK`] rows in one `u128`
    /// (the `const` bound above) and is reduced once per block of rows.
    fn combine(weights: &[Self], rows: &[&[Self]], out: &mut [Self]) {
        check_combine(weights, rows, out.len());
        let head = weights.len().min(DOT_BLOCK);
        let (head_w, tail_w) = weights.split_at(head);
        let (head_rows, tail_rows) = rows.split_at(head);
        for (k, o) in out.iter_mut().enumerate() {
            *o = Self::column_sum(head_w, head_rows, k);
        }
        for (ws, rs) in tail_w.chunks(DOT_BLOCK).zip(tail_rows.chunks(DOT_BLOCK)) {
            for (k, o) in out.iter_mut().enumerate() {
                *o += Self::column_sum(ws, rs, k);
            }
        }
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
    }

    /// `v mod p` by `u128` division: the reference for [`M61::reduce128`].
    fn mod_p(v: u128) -> u64 {
        (v % P61 as u128) as u64
    }

    /// `v mod p` in `[0, p)` by `rem_euclid`: the reference for the signed
    /// conversions.
    fn rem_p(v: i128) -> u64 {
        v.rem_euclid(P61 as i128) as u64
    }

    #[test]
    fn conversions_match_the_division_references_at_the_edges() {
        let p = P61 as u128;
        let unsigned = [
            0,
            1,
            p - 1,
            p,
            p + 1,
            2 * p,
            (p - 1) * (p - 1),
            DOT_BLOCK as u128 * (p - 1) * (p - 1),
            PAIR_BLOCK as u128 * (2 * p - 2) * (2 * p - 2),
            1 << 61,
            1 << 122,
            (1 << 122) - 1,
            u64::MAX as u128,
            u128::MAX / p * p,
            u128::MAX - 1,
            u128::MAX,
        ];
        for v in unsigned {
            assert_eq!(M61::reduce128(v), mod_p(v), "reduce128({v})");
            assert_eq!(M61::from_u128(v).raw(), mod_p(v), "from_u128({v})");
        }
        let k = P61 as i64;
        let signed = [
            0,
            1,
            -1,
            k - 1,
            k,
            k + 1,
            -k + 1,
            -k,
            -k - 1,
            2 * k,
            -2 * k,
            4 * k,
            -4 * k,
            -8,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ];
        for v in signed {
            assert_eq!(M61::from_i64(v).raw(), rem_p(v as i128), "from_i64({v})");
            assert_eq!(
                M61::from_i128(v as i128).raw(),
                rem_p(v as i128),
                "from_i128({v})"
            );
        }
        let wide = [i128::MAX, i128::MIN, i128::MIN + 1, -(1 << 122), 1 << 122];
        for v in wide {
            assert_eq!(M61::from_i128(v).raw(), rem_p(v), "from_i128({v})");
        }
    }

    proptest! {
        #[test]
        fn prop_conversions_match_the_division_references(hi in any::<u64>(), lo in any::<u64>()) {
            let v = (hi as u128) << 64 | lo as u128;
            prop_assert_eq!(M61::reduce128(v), mod_p(v));
            prop_assert_eq!(M61::reduce128(v >> 6), mod_p(v >> 6));
            prop_assert_eq!(M61::from_i64(lo as i64).raw(), rem_p(lo as i64 as i128));
            prop_assert_eq!(M61::from_i64(lo as i64 >> 20).raw(), rem_p((lo as i64 >> 20) as i128));
            prop_assert_eq!(M61::from_i128(v as i128).raw(), rem_p(v as i128));
        }

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
            let xi = M61::pair_sum(&cols[0]);
            let pairs = M61::winograd4(&cols[0], [&cols[1], &cols[2], &cols[3], &cols[4]]);
            prop_assert_eq!(
                [1, 2, 3, 4].map(|l| pairs[l - 1] - xi - M61::pair_sum(&cols[l])),
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
