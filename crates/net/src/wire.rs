//! Wire format for field-element vectors.
//!
//! Every payload that crosses a transport link is a flat vector of field
//! elements, serialized as the little-endian canonical representative at a
//! fixed `F::byte_width()` bytes per element. The in-process backend passes
//! typed values and only *accounts* bytes with [`encoded_len`]; the TCP
//! backend actually moves these bytes, so [`decode`] validates untrusted
//! input and returns a [`WireError`] instead of panicking.

use std::convert::Infallible;
use std::marker::PhantomData;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sqm_field::PrimeField;

pub use crate::error::WireError;

/// Encode a vector of field elements (fixed `F::byte_width()` bytes each,
/// little-endian canonical representative).
pub fn encode<F: PrimeField>(values: &[F]) -> Bytes {
    let mut buf = BytesMut::with_capacity(values.len() * F::byte_width());
    put_elements(&mut buf, values);
    buf.freeze()
}

fn put_elements<F: PrimeField>(buf: &mut BytesMut, values: &[F]) {
    let w = F::byte_width();
    for v in values {
        buf.put_slice(&v.to_canonical().to_le_bytes()[..w]);
    }
}

/// Decode a buffer produced by [`encode`].
///
/// Returns [`WireError::RaggedBuffer`] when the buffer length is not a
/// multiple of the element width and [`WireError::NonCanonical`] when an
/// element is `>=` the field modulus — both are real possibilities once
/// bytes come from a socket rather than an in-process channel.
pub fn decode<F: PrimeField>(mut buf: Bytes) -> Result<Vec<F>, WireError> {
    let w = F::byte_width();
    if !buf.len().is_multiple_of(w) {
        return Err(WireError::RaggedBuffer {
            len: buf.len(),
            width: w,
        });
    }
    let mut out = Vec::with_capacity(buf.len() / w);
    while buf.has_remaining() {
        let mut raw = [0u8; 16];
        buf.copy_to_slice(&mut raw[..w]);
        let c = u128::from_le_bytes(raw);
        if c >= F::modulus() {
            return Err(WireError::NonCanonical {
                value: c,
                modulus: F::modulus(),
            });
        }
        out.push(F::from_u128(c));
    }
    Ok(out)
}

/// The number of bytes [`encode`] produces for `len` elements.
pub fn encoded_len<F: PrimeField>(len: usize) -> u64 {
    (len * F::byte_width()) as u64
}

/// A round-batched wire frame: every field element one party sends to one
/// peer in one synchronous round, carried as a single unit.
///
/// Layout (inside whatever outer framing the backend uses):
///
/// ```text
/// [u32 element count, LE] [elements]
/// ```
///
/// The element count is redundant with the payload length but makes the
/// frame self-describing and lets [`Frame::decode`] reject corruption with
/// a *typed* error instead of silently mis-splitting: a buffer shorter than
/// the announced content is [`WireError::TruncatedFrame`], trailing bytes
/// beyond it are [`WireError::FrameCountMismatch`], and element validation
/// reuses [`decode`]'s [`WireError::NonCanonical`]. Decoding never panics
/// on untrusted input.
///
/// A frame carries payload only: the receiver of a lock-step round knows
/// the sender (the link), the round (its own counter) and the payload's
/// place on the link (its own count), so nothing else crosses the wire.
pub struct Frame<F>(PhantomData<F>);

impl<F: PrimeField> Frame<F> {
    /// Bytes of the element-count prefix.
    pub const COUNT_BYTES: usize = 4;

    /// Encode a frame carrying `elements`. The second argument can only be
    /// `None`: [`Infallible`] has no values, so no caller can attach
    /// anything to a frame.
    pub fn encode(elements: &[F], _: Option<&Infallible>) -> Bytes {
        let count = u32::try_from(elements.len()).expect("frame width exceeds u32 element count");
        let mut buf = BytesMut::with_capacity(Self::encoded_bytes(elements.len()));
        buf.put_slice(&count.to_le_bytes());
        put_elements(&mut buf, elements);
        buf.freeze()
    }

    /// Decode a frame produced by [`Frame::encode`] into its elements,
    /// validating the element-count prefix against the payload.
    pub fn decode(mut buf: Bytes) -> Result<Vec<F>, WireError> {
        if buf.len() < Self::COUNT_BYTES {
            return Err(WireError::TruncatedFrame {
                len: buf.len(),
                needed: Self::COUNT_BYTES,
            });
        }
        let mut count = [0u8; 4];
        buf.copy_to_slice(&mut count);
        let declared = u32::from_le_bytes(count) as usize;
        let width = F::byte_width();
        let expected = declared * width;
        match buf.len().cmp(&expected) {
            std::cmp::Ordering::Less => Err(WireError::TruncatedFrame {
                len: buf.len(),
                needed: expected,
            }),
            std::cmp::Ordering::Greater => Err(WireError::FrameCountMismatch {
                declared,
                payload_bytes: buf.len(),
                width,
            }),
            std::cmp::Ordering::Equal => decode::<F>(buf),
        }
    }

    /// Total encoded bytes of a frame carrying `n_elements` elements.
    pub fn encoded_bytes(n_elements: usize) -> usize {
        Self::COUNT_BYTES + n_elements * F::byte_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqm_field::{M127, M61};

    #[test]
    fn roundtrip_m61() {
        let mut rng = StdRng::seed_from_u64(1);
        let vals: Vec<M61> = (0..100).map(|_| M61::random(&mut rng)).collect();
        let bytes = encode(&vals);
        assert_eq!(bytes.len() as u64, encoded_len::<M61>(vals.len()));
        assert_eq!(decode::<M61>(bytes).expect("roundtrip"), vals);
    }

    #[test]
    fn roundtrip_m127() {
        let mut rng = StdRng::seed_from_u64(2);
        let vals: Vec<M127> = (0..50).map(|_| M127::random(&mut rng)).collect();
        let bytes = encode(&vals);
        assert_eq!(bytes.len() as u64, encoded_len::<M127>(vals.len()));
        assert_eq!(decode::<M127>(bytes).expect("roundtrip"), vals);
    }

    #[test]
    fn widths() {
        assert_eq!(encoded_len::<M61>(1), 8);
        assert_eq!(encoded_len::<M127>(1), 16);
    }

    #[test]
    fn empty() {
        let bytes = encode::<M61>(&[]);
        assert!(bytes.is_empty());
        assert!(decode::<M61>(bytes).expect("empty").is_empty());
    }

    #[test]
    fn rejects_ragged_buffer() {
        let err = decode::<M61>(Bytes::from_static(&[1, 2, 3])).unwrap_err();
        assert_eq!(err, WireError::RaggedBuffer { len: 3, width: 8 });
    }

    #[test]
    fn rejects_non_canonical_element() {
        // 2^64 - 1 is far above the Mersenne-61 modulus.
        let err = decode::<M61>(Bytes::from_static(&[0xFF; 8])).unwrap_err();
        match err {
            WireError::NonCanonical { value, modulus } => {
                assert_eq!(value, u64::MAX as u128);
                assert_eq!(modulus, M61::modulus());
            }
            other => panic!("expected NonCanonical, got {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrip_is_count_prefix_then_elements() {
        let vals: Vec<M61> = (0..17).map(M61::from_u64).collect();
        let framed = Frame::<M61>::encode(&vals, None);
        assert_eq!(framed.len(), 4 + 8 * vals.len());
        assert_eq!(framed.len(), Frame::<M61>::encoded_bytes(vals.len()));
        assert_eq!(Frame::<M61>::decode(framed).expect("frame roundtrip"), vals);

        let wide: Vec<M127> = (0..5)
            .map(|i| M127::from_u128(M127::modulus() - 1 - i))
            .collect();
        let framed = Frame::<M127>::encode(&wide, None);
        assert_eq!(framed.len(), 4 + 16 * wide.len());
        assert_eq!(
            Frame::<M127>::decode(framed).expect("frame roundtrip"),
            wide
        );
    }

    #[test]
    fn empty_frame_is_four_bytes_and_roundtrips() {
        let framed = Frame::<M61>::encode(&[], None);
        assert_eq!(framed.len(), Frame::<M61>::COUNT_BYTES);
        assert!(Frame::<M61>::decode(framed)
            .expect("empty frame")
            .is_empty());
    }

    #[test]
    fn frame_rejects_truncated_count_prefix() {
        let err = Frame::<M61>::decode(Bytes::from_static(&[1, 0])).unwrap_err();
        assert_eq!(err, WireError::TruncatedFrame { len: 2, needed: 4 });
    }

    #[test]
    fn frame_rejects_truncated_payload() {
        // Announce 2 elements, carry only one.
        let mut buf = BytesMut::new();
        buf.put_slice(&2u32.to_le_bytes());
        buf.put_slice(encode(&[M61::ONE]).as_ref_slice());
        let err = Frame::<M61>::decode(buf.freeze()).unwrap_err();
        assert_eq!(err, WireError::TruncatedFrame { len: 8, needed: 16 });
    }

    #[test]
    fn frame_rejects_count_mismatch_with_trailing_bytes() {
        // Announce 1 element but carry two.
        let mut buf = BytesMut::new();
        buf.put_slice(&1u32.to_le_bytes());
        buf.put_slice(encode(&[M61::ONE, M61::ONE]).as_ref_slice());
        let err = Frame::<M61>::decode(buf.freeze()).unwrap_err();
        assert_eq!(
            err,
            WireError::FrameCountMismatch {
                declared: 1,
                payload_bytes: 16,
                width: 8,
            }
        );
    }

    #[test]
    fn frame_rejects_non_canonical_element() {
        let mut buf = BytesMut::new();
        buf.put_slice(&1u32.to_le_bytes());
        buf.put_slice(&[0xFF; 8]);
        let err = Frame::<M61>::decode(buf.freeze()).unwrap_err();
        assert!(
            matches!(err, WireError::NonCanonical { .. }),
            "expected NonCanonical, got {err:?}"
        );
    }

    #[test]
    fn frame_rejects_bad_header_version() {
        // A frame has no header: a version byte after the count, as a peer
        // on the old header-bearing layout would send, is a stray byte.
        let mut buf = BytesMut::new();
        buf.put_slice(&0u32.to_le_bytes());
        buf.put_u8(42);
        let err = Frame::<M61>::decode(buf.freeze()).unwrap_err();
        assert_eq!(
            err,
            WireError::FrameCountMismatch {
                declared: 0,
                payload_bytes: 1,
                width: 8,
            }
        );
    }

    // Round-trips for both fields, explicitly seeding the canonical
    // boundary values 0 and p-1 into every generated vector.
    proptest! {
        #[test]
        fn roundtrip_m61_with_boundaries(raw in proptest::collection::vec(any::<u64>(), 0..64)) {
            let mut vals: Vec<M61> = raw.into_iter().map(|v| M61::from_u128(v as u128 % M61::modulus())).collect();
            vals.push(M61::from_u128(0));
            vals.push(M61::from_u128(M61::modulus() - 1));
            let bytes = encode(&vals);
            prop_assert_eq!(bytes.len() as u64, encoded_len::<M61>(vals.len()));
            let back = decode::<M61>(bytes).expect("canonical round-trip");
            prop_assert_eq!(back, vals);
        }

        #[test]
        fn roundtrip_m127_with_boundaries(raw in proptest::collection::vec(any::<u64>(), 0..64)) {
            let m = M127::modulus();
            let mut vals: Vec<M127> = raw
                .into_iter()
                .map(|v| {
                    // Spread 64-bit raws across the 127-bit range.
                    let wide = (v as u128).wrapping_mul(0x1_0000_0001_0000_0001) % m;
                    M127::from_u128(wide)
                })
                .collect();
            vals.push(M127::from_u128(0));
            vals.push(M127::from_u128(m - 1));
            let bytes = encode(&vals);
            prop_assert_eq!(bytes.len() as u64, encoded_len::<M127>(vals.len()));
            let back = decode::<M127>(bytes).expect("canonical round-trip");
            prop_assert_eq!(back, vals);
        }

        #[test]
        fn ragged_buffers_always_rejected(len in 1usize..64) {
            prop_assume!(len % M61::byte_width() != 0);
            let buf = Bytes::from(vec![0u8; len]);
            prop_assert_eq!(
                decode::<M61>(buf).unwrap_err(),
                WireError::RaggedBuffer { len, width: M61::byte_width() }
            );
        }
    }

    #[test]
    fn non_canonical_is_an_error_not_a_panic() {
        let above = M61::modulus(); // p itself is the smallest non-canonical value
        let buf = Bytes::from((above as u64).to_le_bytes().to_vec());
        assert!(matches!(
            decode::<M61>(buf),
            Err(WireError::NonCanonical { .. })
        ));
    }
}

#[cfg(test)]
mod frame_proptests {
    //! Satellite: frame encode/decode round-trips for arbitrary widths
    //! 0..=4096 over both fields including the boundary values 0 and p-1,
    //! and malformed input always yields a typed [`WireError`] — never a
    //! panic or a silently wrong decode.

    use super::*;
    use proptest::prelude::*;
    use sqm_field::{M127, M61};

    /// Element values spanning the full canonical range, with the
    /// boundaries 0 and p-1 explicitly over-weighted.
    fn element<FP: PrimeField>(raw: u128) -> FP {
        FP::from_u128(raw % FP::modulus())
    }

    proptest! {
        #[test]
        fn prop_frame_roundtrip_m61(
            width in 0usize..=4096,
            fill in any::<u64>(),
        ) {
            // Mix the boundary values 0 and p-1 into every wide payload.
            let vals: Vec<M61> = (0..width)
                .map(|i| match i % 3 {
                    0 => M61::ZERO,
                    1 => M61::from_u128(M61::modulus() - 1),
                    _ => element::<M61>((fill as u128).wrapping_add(i as u128)),
                })
                .collect();
            let framed = Frame::<M61>::encode(&vals, None);
            prop_assert_eq!(Frame::<M61>::decode(framed).expect("roundtrip"), vals);
        }

        #[test]
        fn prop_frame_roundtrip_m127(
            width in 0usize..=4096,
            fill in any::<u64>(),
        ) {
            let vals: Vec<M127> = (0..width)
                .map(|i| match i % 3 {
                    0 => M127::ZERO,
                    1 => M127::from_u128(M127::modulus() - 1),
                    _ => element::<M127>(((fill as u128) << 64).wrapping_add(i as u128)),
                })
                .collect();
            let framed = Frame::<M127>::encode(&vals, None);
            prop_assert_eq!(Frame::<M127>::decode(framed).expect("roundtrip"), vals);
        }

        #[test]
        fn prop_truncation_is_typed_never_panics(
            width in 0usize..=256,
            cut_frac in 0.0f64..1.0,
        ) {
            let vals: Vec<M61> = (0..width).map(|i| M61::from_u64(i as u64)).collect();
            let framed = Frame::<M61>::encode(&vals, None);
            // Cut the frame strictly short: every truncation must decode to
            // a typed TruncatedFrame.
            let keep = ((framed.len() as f64 * cut_frac) as usize).min(framed.len() - 1);
            let cutout = Bytes::from(framed.as_ref_slice()[..keep].to_vec());
            let err = Frame::<M61>::decode(cutout).expect_err("truncated frame must fail");
            prop_assert!(
                matches!(err, WireError::TruncatedFrame { .. }),
                "unexpected error for truncation at {keep}: {err:?}"
            );
        }

        #[test]
        fn prop_malformed_length_is_typed_never_panics(
            width in 0usize..=64,
            declared in 0u32..=8192,
            garbage in collection::vec(any::<u8>(), 0usize..64),
        ) {
            // Arbitrary declared count glued to an arbitrary payload tail:
            // decode must either succeed on an exactly-consistent frame or
            // return a typed error — never panic.
            let vals: Vec<M61> = (0..width).map(|i| M61::from_u64(i as u64)).collect();
            let mut buf = BytesMut::new();
            buf.put_slice(&declared.to_le_bytes());
            buf.put_slice(encode(&vals).as_ref_slice());
            buf.put_slice(&garbage);
            match Frame::<M61>::decode(buf.freeze()) {
                Ok(elements) => {
                    prop_assert_eq!(elements.len(), declared as usize);
                }
                Err(
                    WireError::TruncatedFrame { .. }
                    | WireError::FrameCountMismatch { .. }
                    | WireError::NonCanonical { .. }
                    | WireError::RaggedBuffer { .. },
                ) => {}
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }
}
