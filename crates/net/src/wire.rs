//! Wire format for field-element vectors.
//!
//! Every payload that crosses a transport link is a flat vector of field
//! elements, serialized as the little-endian canonical representative at a
//! fixed `F::byte_width()` bytes per element. The in-process backend passes
//! typed values and only *accounts* bytes with [`encoded_len`]; the TCP
//! backend actually moves these bytes, so [`decode`] validates untrusted
//! input and returns a [`WireError`] instead of panicking.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sqm_field::PrimeField;

pub use crate::error::WireError;

/// Encode a vector of field elements (fixed `F::byte_width()` bytes each,
/// little-endian canonical representative).
pub fn encode<F: PrimeField>(values: &[F]) -> Bytes {
    let w = F::byte_width();
    let mut buf = BytesMut::with_capacity(values.len() * w);
    for v in values {
        let c = v.to_canonical();
        buf.put_slice(&c.to_le_bytes()[..w]);
    }
    buf.freeze()
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

/// Wire version byte announcing "no trace context attached".
pub const TRACE_HEADER_ABSENT: u8 = 0;
/// Wire version byte of the [`TraceHeader`] v1 layout.
pub const TRACE_HEADER_V1: u8 = 1;

/// Compact causal trace context stamped on a message by the sending party.
///
/// Carried as a *versioned optional* prefix of each frame payload: a single
/// version byte ([`TRACE_HEADER_ABSENT`] or [`TRACE_HEADER_V1`]) followed,
/// for v1, by the five fields in little-endian order. The header is pure
/// observability metadata: it is excluded from the message/byte accounting
/// so [`RoundOutcome`](crate::RoundOutcome) figures stay identical whether
/// tracing is on or off, and identical across backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceHeader {
    /// Identifies the protocol run (derived deterministically from the
    /// engine seed so repeated runs produce comparable traces).
    pub run_id: u64,
    /// The sending party's index.
    pub party: u32,
    /// The sender's synchronous round index at send time.
    pub round: u64,
    /// Per-directed-link sequence number (the k-th real message this
    /// sender put on this link), used to match sends to receives.
    pub link_seq: u64,
    /// The sender's Lamport clock at send time.
    pub lamport: u64,
}

impl TraceHeader {
    /// Bytes of a v1 header body (the version byte is not included).
    pub const ENCODED_BYTES: usize = 8 + 4 + 8 + 8 + 8;

    /// Append the versioned optional header (`None` encodes as the single
    /// [`TRACE_HEADER_ABSENT`] byte).
    pub fn encode_into(header: Option<&TraceHeader>, buf: &mut BytesMut) {
        match header {
            None => buf.put_u8(TRACE_HEADER_ABSENT),
            Some(h) => {
                buf.put_u8(TRACE_HEADER_V1);
                buf.put_slice(&h.run_id.to_le_bytes());
                buf.put_slice(&h.party.to_le_bytes());
                buf.put_slice(&h.round.to_le_bytes());
                buf.put_slice(&h.link_seq.to_le_bytes());
                buf.put_slice(&h.lamport.to_le_bytes());
            }
        }
    }

    /// Decode the versioned optional header from the front of `buf`,
    /// leaving the cursor at the first payload byte.
    pub fn decode_from(buf: &mut Bytes) -> Result<Option<TraceHeader>, WireError> {
        let remaining = buf.len();
        if remaining == 0 {
            return Err(WireError::BadTraceHeader {
                version: TRACE_HEADER_ABSENT,
                remaining,
            });
        }
        let mut version = [0u8; 1];
        buf.copy_to_slice(&mut version);
        match version[0] {
            TRACE_HEADER_ABSENT => Ok(None),
            TRACE_HEADER_V1 => {
                if buf.len() < Self::ENCODED_BYTES {
                    return Err(WireError::BadTraceHeader {
                        version: TRACE_HEADER_V1,
                        remaining,
                    });
                }
                let mut u64buf = [0u8; 8];
                let mut u32buf = [0u8; 4];
                buf.copy_to_slice(&mut u64buf);
                let run_id = u64::from_le_bytes(u64buf);
                buf.copy_to_slice(&mut u32buf);
                let party = u32::from_le_bytes(u32buf);
                buf.copy_to_slice(&mut u64buf);
                let round = u64::from_le_bytes(u64buf);
                buf.copy_to_slice(&mut u64buf);
                let link_seq = u64::from_le_bytes(u64buf);
                buf.copy_to_slice(&mut u64buf);
                let lamport = u64::from_le_bytes(u64buf);
                Ok(Some(TraceHeader {
                    run_id,
                    party,
                    round,
                    link_seq,
                    lamport,
                }))
            }
            v => Err(WireError::BadTraceHeader {
                version: v,
                remaining,
            }),
        }
    }
}

/// A round-batched wire frame: every field element one party sends to one
/// peer in one synchronous round, carried as a single unit.
///
/// Layout (inside whatever outer framing the backend uses):
///
/// ```text
/// [u32 element count, LE] [versioned TraceHeader] [elements]
/// ```
///
/// The element count is redundant with the payload length but makes the
/// frame self-describing and lets [`Frame::decode`] reject corruption with
/// a *typed* error instead of silently mis-splitting: a buffer shorter than
/// the announced content is [`WireError::TruncatedFrame`], trailing bytes
/// beyond it are [`WireError::FrameCountMismatch`], and element validation
/// reuses [`decode`]'s [`WireError::NonCanonical`]. Decoding never panics
/// on untrusted input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame<F> {
    /// Causal trace context stamped by the sender, if any.
    pub header: Option<TraceHeader>,
    /// The field elements the frame carries.
    pub elements: Vec<F>,
}

impl<F: PrimeField> Frame<F> {
    /// Bytes of the element-count prefix.
    pub const COUNT_BYTES: usize = 4;

    /// Encode a frame carrying `elements` with an optional trace header.
    pub fn encode(elements: &[F], header: Option<&TraceHeader>) -> Bytes {
        let count = u32::try_from(elements.len()).expect("frame width exceeds u32 element count");
        let body = encode(elements);
        let mut buf = BytesMut::with_capacity(
            Self::COUNT_BYTES + 1 + TraceHeader::ENCODED_BYTES + body.len(),
        );
        buf.put_slice(&count.to_le_bytes());
        TraceHeader::encode_into(header, &mut buf);
        buf.put_slice(body.as_ref_slice());
        buf.freeze()
    }

    /// Decode a frame produced by [`Frame::encode`], validating the
    /// element-count prefix against the payload.
    pub fn decode(mut buf: Bytes) -> Result<Frame<F>, WireError> {
        if buf.len() < Self::COUNT_BYTES {
            return Err(WireError::TruncatedFrame {
                len: buf.len(),
                needed: Self::COUNT_BYTES,
            });
        }
        let mut count = [0u8; 4];
        buf.copy_to_slice(&mut count);
        let declared = u32::from_le_bytes(count) as usize;
        let header = TraceHeader::decode_from(&mut buf)?;
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
            std::cmp::Ordering::Equal => Ok(Frame {
                header,
                elements: decode::<F>(buf)?,
            }),
        }
    }

    /// Total encoded bytes of a frame carrying `n_elements` elements.
    pub fn encoded_bytes(n_elements: usize, with_header: bool) -> usize {
        Self::COUNT_BYTES
            + 1
            + if with_header {
                TraceHeader::ENCODED_BYTES
            } else {
                0
            }
            + n_elements * F::byte_width()
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
    fn trace_header_roundtrip() {
        let h = TraceHeader {
            run_id: 0xDEAD_BEEF_0123_4567,
            party: 3,
            round: 42,
            link_seq: 7,
            lamport: 99,
        };
        let mut buf = BytesMut::new();
        TraceHeader::encode_into(Some(&h), &mut buf);
        assert_eq!(buf.len(), 1 + TraceHeader::ENCODED_BYTES);
        let mut bytes = buf.freeze();
        assert_eq!(TraceHeader::decode_from(&mut bytes).expect("v1"), Some(h));
        assert!(bytes.is_empty());
    }

    #[test]
    fn trace_header_absent_is_one_byte() {
        let mut buf = BytesMut::new();
        TraceHeader::encode_into(None, &mut buf);
        assert_eq!(buf.len(), 1);
        let mut bytes = buf.freeze();
        assert_eq!(TraceHeader::decode_from(&mut bytes).expect("absent"), None);
    }

    #[test]
    fn trace_header_survives_payload_suffix() {
        let vals: Vec<M61> = (0..5).map(M61::from_u64).collect();
        let h = TraceHeader {
            run_id: 1,
            party: 0,
            round: 0,
            link_seq: 0,
            lamport: 1,
        };
        let mut buf = BytesMut::new();
        TraceHeader::encode_into(Some(&h), &mut buf);
        buf.put_slice(encode(&vals).as_ref_slice());
        let mut bytes = buf.freeze();
        assert_eq!(TraceHeader::decode_from(&mut bytes).expect("v1"), Some(h));
        assert_eq!(decode::<M61>(bytes).expect("payload"), vals);
    }

    #[test]
    fn trace_header_rejects_unknown_version_and_truncation() {
        let mut bytes = Bytes::from_static(&[9, 0, 0]);
        match TraceHeader::decode_from(&mut bytes).unwrap_err() {
            WireError::BadTraceHeader { version: 9, .. } => {}
            other => panic!("expected BadTraceHeader, got {other:?}"),
        }
        let mut short = Bytes::from_static(&[TRACE_HEADER_V1, 1, 2, 3]);
        match TraceHeader::decode_from(&mut short).unwrap_err() {
            WireError::BadTraceHeader {
                version: TRACE_HEADER_V1,
                remaining: 4,
            } => {}
            other => panic!("expected truncated BadTraceHeader, got {other:?}"),
        }
        let mut empty = Bytes::new();
        assert!(TraceHeader::decode_from(&mut empty).is_err());
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
    fn frame_roundtrip_with_and_without_header() {
        let vals: Vec<M61> = (0..17).map(M61::from_u64).collect();
        let h = TraceHeader {
            run_id: 3,
            party: 1,
            round: 9,
            link_seq: 4,
            lamport: 20,
        };
        let framed = Frame::<M61>::encode(&vals, Some(&h));
        assert_eq!(framed.len(), Frame::<M61>::encoded_bytes(vals.len(), true));
        let dec = Frame::<M61>::decode(framed).expect("frame roundtrip");
        assert_eq!(dec.header, Some(h));
        assert_eq!(dec.elements, vals);

        let bare = Frame::<M61>::encode(&vals, None);
        assert_eq!(bare.len(), Frame::<M61>::encoded_bytes(vals.len(), false));
        let dec = Frame::<M61>::decode(bare).expect("bare frame roundtrip");
        assert_eq!(dec.header, None);
        assert_eq!(dec.elements, vals);
    }

    #[test]
    fn empty_frame_is_five_bytes_and_roundtrips() {
        let framed = Frame::<M61>::encode(&[], None);
        assert_eq!(framed.len(), Frame::<M61>::COUNT_BYTES + 1);
        let dec = Frame::<M61>::decode(framed).expect("empty frame");
        assert_eq!(dec.header, None);
        assert!(dec.elements.is_empty());
    }

    #[test]
    fn frame_rejects_truncated_count_prefix() {
        let err = Frame::<M61>::decode(Bytes::from_static(&[1, 0])).unwrap_err();
        assert_eq!(err, WireError::TruncatedFrame { len: 2, needed: 4 });
    }

    #[test]
    fn frame_rejects_truncated_payload() {
        // Announce 2 elements, absent header, carry only one.
        let mut buf = BytesMut::new();
        buf.put_slice(&2u32.to_le_bytes());
        TraceHeader::encode_into(None, &mut buf);
        buf.put_slice(encode(&[M61::ONE]).as_ref_slice());
        let err = Frame::<M61>::decode(buf.freeze()).unwrap_err();
        assert_eq!(err, WireError::TruncatedFrame { len: 8, needed: 16 });
    }

    #[test]
    fn frame_rejects_count_mismatch_with_trailing_bytes() {
        // Announce 1 element but carry two.
        let mut buf = BytesMut::new();
        buf.put_slice(&1u32.to_le_bytes());
        TraceHeader::encode_into(None, &mut buf);
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
        TraceHeader::encode_into(None, &mut buf);
        buf.put_slice(&[0xFF; 8]);
        let err = Frame::<M61>::decode(buf.freeze()).unwrap_err();
        assert!(
            matches!(err, WireError::NonCanonical { .. }),
            "expected NonCanonical, got {err:?}"
        );
    }

    #[test]
    fn frame_rejects_bad_header_version() {
        let mut buf = BytesMut::new();
        buf.put_slice(&0u32.to_le_bytes());
        buf.put_u8(42); // unknown header version
        let err = Frame::<M61>::decode(buf.freeze()).unwrap_err();
        assert!(
            matches!(err, WireError::BadTraceHeader { version: 42, .. }),
            "expected BadTraceHeader, got {err:?}"
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

    fn header_from(seed: u64) -> TraceHeader {
        TraceHeader {
            run_id: seed,
            party: (seed % 97) as u32,
            round: seed.rotate_left(17),
            link_seq: seed.rotate_left(33),
            lamport: seed.rotate_left(49),
        }
    }

    proptest! {
        #[test]
        fn prop_frame_roundtrip_m61(
            width in 0usize..=4096,
            fill in any::<u64>(),
            with_header in any::<bool>(),
            hseed in any::<u64>(),
        ) {
            // Mix the boundary values 0 and p-1 into every wide payload.
            let vals: Vec<M61> = (0..width)
                .map(|i| match i % 3 {
                    0 => M61::ZERO,
                    1 => M61::from_u128(M61::modulus() - 1),
                    _ => element::<M61>((fill as u128).wrapping_add(i as u128)),
                })
                .collect();
            let header = with_header.then(|| header_from(hseed));
            let framed = Frame::<M61>::encode(&vals, header.as_ref());
            let dec = Frame::<M61>::decode(framed).expect("roundtrip");
            prop_assert_eq!(dec.header, header);
            prop_assert_eq!(dec.elements, vals);
        }

        #[test]
        fn prop_frame_roundtrip_m127(
            width in 0usize..=4096,
            fill in any::<u64>(),
            with_header in any::<bool>(),
            hseed in any::<u64>(),
        ) {
            let vals: Vec<M127> = (0..width)
                .map(|i| match i % 3 {
                    0 => M127::ZERO,
                    1 => M127::from_u128(M127::modulus() - 1),
                    _ => element::<M127>(((fill as u128) << 64).wrapping_add(i as u128)),
                })
                .collect();
            let header = with_header.then(|| header_from(hseed));
            let framed = Frame::<M127>::encode(&vals, header.as_ref());
            let dec = Frame::<M127>::decode(framed).expect("roundtrip");
            prop_assert_eq!(dec.header, header);
            prop_assert_eq!(dec.elements, vals);
        }

        #[test]
        fn prop_truncation_is_typed_never_panics(
            width in 0usize..=256,
            cut_frac in 0.0f64..1.0,
            with_header in any::<bool>(),
        ) {
            let vals: Vec<M61> = (0..width).map(|i| M61::from_u64(i as u64)).collect();
            let header = with_header.then(|| header_from(width as u64));
            let framed = Frame::<M61>::encode(&vals, header.as_ref());
            // Cut the frame strictly short: every truncation must decode to
            // a typed error (TruncatedFrame or BadTraceHeader).
            let keep = ((framed.len() as f64 * cut_frac) as usize).min(framed.len() - 1);
            let cutout = Bytes::from(framed.as_ref_slice()[..keep].to_vec());
            let err = Frame::<M61>::decode(cutout).expect_err("truncated frame must fail");
            prop_assert!(matches!(
                err,
                WireError::TruncatedFrame { .. } | WireError::BadTraceHeader { .. }
            ), "unexpected error for truncation at {keep}: {err:?}");
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
            TraceHeader::encode_into(None, &mut buf);
            buf.put_slice(encode(&vals).as_ref_slice());
            buf.put_slice(&garbage);
            match Frame::<M61>::decode(buf.freeze()) {
                Ok(frame) => {
                    prop_assert_eq!(frame.elements.len(), declared as usize);
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
