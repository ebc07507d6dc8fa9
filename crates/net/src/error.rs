//! Typed transport failures.
//!
//! Every error names the peer party it concerns and, where meaningful, the
//! synchronous round in which it was observed, so a failed BGW run can be
//! diagnosed ("party 2 crashed in round 3") instead of aborting with a
//! poisoned-thread panic.

use std::fmt;
use std::time::Duration;

/// Wire-format decoding failure (see [`crate::wire`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer length is not a multiple of the field element width.
    RaggedBuffer {
        /// Buffer length in bytes.
        len: usize,
        /// Canonical element width in bytes.
        width: usize,
    },
    /// An element's little-endian value is not a canonical representative
    /// (it is `>=` the field modulus).
    NonCanonical {
        /// The decoded (non-canonical) value.
        value: u128,
        /// The field modulus it was checked against.
        modulus: u128,
    },
    /// A length-prefixed frame announced an implausible payload size.
    OversizedFrame {
        /// The announced payload length in bytes.
        len: usize,
        /// The largest frame the transport accepts.
        max: usize,
    },
    /// A round-batched [`crate::wire::Frame`] ended before its announced
    /// content: the buffer is too short for the element-count prefix, or
    /// for the payload the count announces.
    TruncatedFrame {
        /// Bytes actually available.
        len: usize,
        /// Bytes the frame layout required at this point.
        needed: usize,
    },
    /// A round-batched [`crate::wire::Frame`]'s element-count prefix
    /// disagrees with its payload length (trailing garbage after the
    /// announced elements).
    FrameCountMismatch {
        /// The element count the prefix announced.
        declared: usize,
        /// Payload bytes actually present after the count prefix.
        payload_bytes: usize,
        /// Canonical element width in bytes.
        width: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::RaggedBuffer { len, width } => write!(
                f,
                "buffer length {len} is not a multiple of the element width {width}"
            ),
            WireError::NonCanonical { value, modulus } => {
                write!(f, "non-canonical element {value} >= modulus {modulus}")
            }
            WireError::OversizedFrame { len, max } => {
                write!(
                    f,
                    "frame announces {len} bytes, exceeding the {max}-byte cap"
                )
            }
            WireError::TruncatedFrame { len, needed } => {
                write!(f, "frame truncated: {len} bytes available, {needed} needed")
            }
            WireError::FrameCountMismatch {
                declared,
                payload_bytes,
                width,
            } => write!(
                f,
                "frame announces {declared} elements ({} bytes at width {width}) but carries {payload_bytes} payload bytes",
                declared * width
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// A failure in the party-to-party transport layer.
///
/// The `party` field always identifies the *peer* the local endpoint was
/// talking to when the failure surfaced — except for [`Crashed`] and
/// [`ConnectFailed`], where it names the crashed / unreachable party itself.
///
/// [`Crashed`]: TransportError::Crashed
/// [`ConnectFailed`]: TransportError::ConnectFailed
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The link to `party` closed mid-protocol (its endpoint dropped, or
    /// the socket hit EOF / a broken pipe).
    Disconnected { party: usize, round: u64 },
    /// No payload arrived from `party` within the read timeout.
    Timeout {
        party: usize,
        round: u64,
        /// The timeout that elapsed.
        after: Duration,
    },
    /// `party` was taken down by the fault plan at `round`
    /// (see [`crate::fault::FaultSpec::crash`]).
    Crashed { party: usize, round: u64 },
    /// Every transmission attempt to `party` in `round` was dropped,
    /// exhausting the retransmit budget.
    RetransmitExhausted {
        party: usize,
        round: u64,
        /// Total attempts made (initial send plus retransmits).
        attempts: u32,
    },
    /// A connection to `party` could not be established within the
    /// bounded exponential-backoff retry budget.
    ConnectFailed {
        party: usize,
        /// Connection attempts made.
        attempts: u32,
        detail: String,
    },
    /// Bytes received from `party` failed wire-format validation.
    Wire {
        party: usize,
        round: u64,
        source: WireError,
    },
    /// Any other I/O failure on the link to/from `party`.
    Io {
        party: usize,
        round: u64,
        detail: String,
    },
}

impl TransportError {
    /// The party this error concerns (the offending peer, or for
    /// [`TransportError::Crashed`] the crashed party itself).
    pub fn party(&self) -> usize {
        match self {
            TransportError::Disconnected { party, .. }
            | TransportError::Timeout { party, .. }
            | TransportError::Crashed { party, .. }
            | TransportError::RetransmitExhausted { party, .. }
            | TransportError::ConnectFailed { party, .. }
            | TransportError::Wire { party, .. }
            | TransportError::Io { party, .. } => *party,
        }
    }

    /// A stable machine-readable classification of the failure, for
    /// structured reports (the audit harness buckets fuzz outcomes by it).
    pub fn kind(&self) -> &'static str {
        match self {
            TransportError::Disconnected { .. } => "disconnected",
            TransportError::Timeout { .. } => "timeout",
            TransportError::Crashed { .. } => "crashed",
            TransportError::RetransmitExhausted { .. } => "retransmit_exhausted",
            TransportError::ConnectFailed { .. } => "connect_failed",
            TransportError::Wire { .. } => "wire",
            TransportError::Io { .. } => "io",
        }
    }

    /// The synchronous round the failure was observed in, if the error
    /// occurred after the mesh was up (`None` for connect-time failures).
    pub fn round(&self) -> Option<u64> {
        match self {
            TransportError::Disconnected { round, .. }
            | TransportError::Timeout { round, .. }
            | TransportError::Crashed { round, .. }
            | TransportError::RetransmitExhausted { round, .. }
            | TransportError::Wire { round, .. }
            | TransportError::Io { round, .. } => Some(*round),
            TransportError::ConnectFailed { .. } => None,
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected { party, round } => {
                write!(f, "party {party} disconnected in round {round}")
            }
            TransportError::Timeout {
                party,
                round,
                after,
            } => write!(
                f,
                "no payload from party {party} in round {round} within {after:?}"
            ),
            TransportError::Crashed { party, round } => {
                write!(f, "party {party} crashed in round {round}")
            }
            TransportError::RetransmitExhausted {
                party,
                round,
                attempts,
            } => write!(
                f,
                "all {attempts} transmission attempts to party {party} dropped in round {round}"
            ),
            TransportError::ConnectFailed {
                party,
                attempts,
                detail,
            } => write!(
                f,
                "could not connect to party {party} after {attempts} attempts: {detail}"
            ),
            TransportError::Wire {
                party,
                round,
                source,
            } => write!(
                f,
                "malformed bytes from party {party} in round {round}: {source}"
            ),
            TransportError::Io {
                party,
                round,
                detail,
            } => write!(
                f,
                "i/o error on link to party {party} in round {round}: {detail}"
            ),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Wire { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_name_party_and_round() {
        let e = TransportError::Crashed { party: 2, round: 3 };
        assert_eq!(e.party(), 2);
        assert_eq!(e.round(), Some(3));
        let shown = e.to_string();
        assert!(shown.contains("party 2"), "{shown}");
        assert!(shown.contains("round 3"), "{shown}");
    }

    #[test]
    fn kind_is_stable_and_distinct() {
        let crashed = TransportError::Crashed { party: 0, round: 0 };
        let dropped = TransportError::RetransmitExhausted {
            party: 0,
            round: 0,
            attempts: 11,
        };
        assert_eq!(crashed.kind(), "crashed");
        assert_eq!(dropped.kind(), "retransmit_exhausted");
        assert_ne!(crashed.kind(), dropped.kind());
    }

    #[test]
    fn connect_failures_have_no_round() {
        let e = TransportError::ConnectFailed {
            party: 1,
            attempts: 6,
            detail: "refused".into(),
        };
        assert_eq!(e.party(), 1);
        assert_eq!(e.round(), None);
    }

    #[test]
    fn wire_error_is_chained_as_source() {
        let e = TransportError::Wire {
            party: 0,
            round: 7,
            source: WireError::RaggedBuffer { len: 9, width: 8 },
        };
        let src = std::error::Error::source(&e).expect("wire source");
        assert!(src.to_string().contains("multiple"));
    }
}
