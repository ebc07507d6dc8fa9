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

    /// [`Self::from_i128`] for a value that fits an `i64` (quantized data,
    /// noise draws): the same element, which an implementation may reach
    /// without branching on the sign (see `M61`).
    fn from_i64(v: i64) -> Self {
        Self::from_i128(v as i128)
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

    /// `ξ(v) = sum_i v[2i] * v[2i+1]`, the correction term of
    /// [`Self::winograd4`] (a trailing odd element takes no part).
    fn pair_sum(v: &[Self]) -> Self {
        let mut s = Self::ZERO;
        for pair in v.chunks_exact(2) {
            s += pair[0] * pair[1];
        }
        s
    }

    /// Winograd's pair products of one operand against four (S. Winograd,
    /// "A New Algorithm for Inner Product", 1968): lane `l` is
    /// `sum_i (x[2i] + c[2i+1]) * (x[2i+1] + c[2i])` for `c = cols[l]`,
    /// plus `x[m-1] * c[m-1]` when the length `m` is odd, so that
    /// `dot(x, c) = winograd4(x, cols)[l] - pair_sum(x) - pair_sum(c)`.
    /// One multiply per two records: a Gram that knows every column's
    /// [`Self::pair_sum`] halves its multiplies. Panics on a length
    /// mismatch.
    fn winograd4(x: &[Self], cols: [&[Self]; 4]) -> [Self; 4] {
        let m = x.len();
        for c in &cols {
            assert_eq!(c.len(), m, "winograd4: operand length mismatch");
        }
        let mut out = [Self::ZERO; 4];
        for (i, xp) in x.chunks_exact(2).enumerate() {
            for (o, c) in out.iter_mut().zip(&cols) {
                *o += (xp[0] + c[2 * i + 1]) * (xp[1] + c[2 * i]);
            }
        }
        if m % 2 == 1 {
            for (o, c) in out.iter_mut().zip(&cols) {
                *o += x[m - 1] * c[m - 1];
            }
        }
        out
    }

    /// Linear combination of equal-length rows: `out[k] = sum_i weights[i] *
    /// rows[i][k]`, overwriting `out`. Panics unless there is one weight per
    /// row and every row is as long as `out`.
    ///
    /// The one kernel behind Shamir sharing (a party's share vector is its
    /// Vandermonde row against the coefficient planes) and Lagrange
    /// recombination (the weights against the parties' incoming vectors).
    /// Like [`Self::dot`], an implementation may reduce as rarely as its
    /// representation allows (see `M61`, `M127`); this body is per-term
    /// field ops, row by row.
    fn combine(weights: &[Self], rows: &[&[Self]], out: &mut [Self]) {
        combine_per_term(weights, rows, out);
    }

    /// Serialized byte width of one element (for communication accounting).
    fn byte_width() -> usize {
        Self::MODULUS_BITS.div_ceil(8) as usize
    }
}

/// The default [`PrimeField::combine`]: per-term field ops, row by row.
pub(crate) fn combine_per_term<F: PrimeField>(weights: &[F], rows: &[&[F]], out: &mut [F]) {
    check_combine(weights, rows, out.len());
    out.fill(F::ZERO);
    for (&w, row) in weights.iter().zip(rows) {
        for (o, &x) in out.iter_mut().zip(*row) {
            *o += w * x;
        }
    }
}

/// The shape checks every [`PrimeField::combine`] makes.
pub(crate) fn check_combine<F>(weights: &[F], rows: &[&[F]], width: usize) {
    assert_eq!(
        weights.len(),
        rows.len(),
        "combine: weights and rows length mismatch"
    );
    for row in rows {
        assert_eq!(row.len(), width, "combine: row length mismatch");
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

    /// `dot` against the reference at every length through four reduction
    /// blocks and a ragged fifth (0, 1, 31, 32, 33, 64, 65, ...), and
    /// `winograd4` less both operands' `pair_sum` against the direct `dot`
    /// at the same lengths: odd and even, and across `M61`'s 15-pair block.
    fn check_dot_at_every_length<F: PrimeField>() {
        let mut rng = StdRng::seed_from_u64(61);
        for len in 0..=130 {
            let mut col = || (0..len).map(|_| F::random(&mut rng)).collect::<Vec<F>>();
            let (x, c) = (col(), [col(), col(), col(), col()]);
            assert_eq!(F::dot(&x, &c[0]), fold_dot(&x, &c[0]), "dot, len {len}");
            let pairs = F::winograd4(&x, [&c[0], &c[1], &c[2], &c[3]]);
            assert_eq!(
                [0, 1, 2, 3].map(|l| pairs[l] - F::pair_sum(&x) - F::pair_sum(&c[l])),
                [0, 1, 2, 3].map(|l| F::dot(&x, &c[l])),
                "winograd4, len {len}"
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

    /// Every operand at `p - 1`, through one block of 15 pairs and past it:
    /// each pair sum is at its largest, `2p - 2`, so in the debug profile an
    /// overflowing `u128 +=` in `M61`'s delayed reduction panics here.
    fn check_winograd_worst_case<F: PrimeField>() {
        let top = -F::ONE;
        for len in [1, 2, 30, 31, 32, 61] {
            let x = vec![top; len];
            let pairs = F::winograd4(&x, [&x; 4]);
            let xi = F::pair_sum(&x);
            // (p - 1)^2 = 1 (mod p), so each inner product is the length.
            assert_eq!(
                pairs.map(|s| s - xi - xi),
                [F::from_u64(len as u64); 4],
                "len {len}"
            );
        }
    }

    #[test]
    fn winograd_worst_case_does_not_overflow() {
        check_winograd_worst_case::<M61>();
        check_winograd_worst_case::<M127>();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn m61_winograd4_rejects_a_ragged_column() {
        let (x, short) = ([M61::ONE; 3], [M61::ONE; 2]);
        M61::winograd4(&x, [&x, &x, &short, &x]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn m127_default_winograd4_rejects_a_ragged_column() {
        let (x, long) = ([M127::ONE; 3], [M127::ONE; 4]);
        M127::winograd4(&x, [&x, &x, &x, &long]);
    }

    type Combine<F> = fn(&[F], &[&[F]], &mut [F]);

    /// A `combine` against a per-term fold at every row count through one
    /// reduction block (and past it, `max_rows > 32`) and the widths around
    /// a block edge.
    fn check_combine_against_fold<F: PrimeField>(combine: Combine<F>, max_rows: usize) {
        let mut rng = StdRng::seed_from_u64(30);
        for n_rows in 0..=max_rows {
            for width in [0, 1, 31, 32, 33, 1000] {
                let weights: Vec<F> = (0..n_rows).map(|_| F::random(&mut rng)).collect();
                let rows: Vec<Vec<F>> = (0..n_rows)
                    .map(|_| (0..width).map(|_| F::random(&mut rng)).collect())
                    .collect();
                let want: Vec<F> = (0..width)
                    .map(|k| {
                        let terms = weights.iter().zip(&rows).map(|(&w, row)| w * row[k]);
                        terms.fold(F::ZERO, |acc, v| acc + v)
                    })
                    .collect();
                let rows: Vec<&[F]> = rows.iter().map(Vec::as_slice).collect();
                let mut out = vec![F::ONE; width];
                combine(&weights, &rows, &mut out);
                assert_eq!(out, want, "rows {n_rows}, width {width}");
            }
        }
    }

    #[test]
    fn m61_combine_matches_fold() {
        check_combine_against_fold::<M61>(M61::combine, 65);
    }

    #[test]
    fn m127_combine_matches_fold() {
        check_combine_against_fold::<M127>(M127::combine, 65);
    }

    #[test]
    fn default_combine_matches_fold() {
        check_combine_against_fold::<M61>(combine_per_term, 32);
        check_combine_against_fold::<M127>(combine_per_term, 32);
    }

    /// Every weight and element at `p - 1`, past a full block of rows: in
    /// the debug profile an overflowing `+=` in a delayed reduction panics
    /// here, and `M127`'s carries are counted on every second row.
    fn check_combine_worst_case<F: PrimeField>() {
        let top = -F::ONE;
        for n_rows in [1, 2, 3, 32, 33, 65] {
            let row = vec![top; 40];
            let rows = vec![row.as_slice(); n_rows];
            let mut out = vec![F::ZERO; 40];
            F::combine(&vec![top; n_rows], &rows, &mut out);
            // (p - 1)^2 = 1 (mod p), so each sum is the row count.
            assert_eq!(out, vec![F::from_u64(n_rows as u64); 40], "rows {n_rows}");
        }
    }

    #[test]
    fn combine_worst_case_does_not_overflow() {
        check_combine_worst_case::<M61>();
        check_combine_worst_case::<M127>();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn m61_combine_rejects_a_ragged_row() {
        let (row, short) = ([M61::ONE; 3], [M61::ONE; 2]);
        M61::combine(&[M61::ONE; 2], &[&row, &short], &mut [M61::ZERO; 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn m127_combine_rejects_a_ragged_row() {
        let (row, long) = ([M127::ONE; 3], [M127::ONE; 4]);
        M127::combine(&[M127::ONE; 2], &[&long, &row], &mut [M127::ZERO; 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn default_combine_rejects_a_ragged_row() {
        let (row, short) = ([M61::ONE; 3], [M61::ONE; 2]);
        combine_per_term(&[M61::ONE; 2], &[&row, &short], &mut [M61::ZERO; 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn combine_rejects_a_missing_weight() {
        let row = [M61::ONE; 3];
        M61::combine(&[M61::ONE], &[&row, &row], &mut [M61::ZERO; 3]);
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
