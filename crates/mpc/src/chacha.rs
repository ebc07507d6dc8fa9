//! The pairwise mask stream `G` of [`crate::PartyCtx::sum_to_receiver`]: the
//! ChaCha20 block function (RFC 8439 section 2.3, with the original 64-bit
//! block counter and nonce) behind `rand::RngCore`, so a mask is
//! `F::random(&mut stream)` — exactly uniform by the field's own rejection
//! sampling.
//!
//! The masked sum's hiding claim rests on this construction alone:
//! `compat/rand`'s `StdRng` is xoshiro256++, not a CSPRNG (and it still feeds
//! every share polynomial). In this simulation a pair's key derives from the
//! session seed, which every party holds; a deployment needs a pairwise key
//! agreement the repository does not model.

use rand::RngCore;

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One 64-byte ChaCha20 block, as sixteen little-endian words.
fn block(key: &[u32; 8], counter: u64, nonce: u64) -> [u32; 16] {
    let mut init = [0u32; 16];
    init[..4].copy_from_slice(&SIGMA);
    init[4..12].copy_from_slice(key);
    (init[12], init[13]) = (counter as u32, (counter >> 32) as u32);
    (init[14], init[15]) = (nonce as u32, (nonce >> 32) as u32);
    let mut s = init;
    for _ in 0..10 {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (word, start) in s.iter_mut().zip(init) {
        *word = word.wrapping_add(start);
    }
    s
}

/// The keystream of one unordered party pair under one nonce.
pub struct PairStream {
    key: [u32; 8],
    nonce: u64,
    counter: u64,
    buf: [u32; 16],
    used: usize,
}

impl PairStream {
    /// The stream parties `a` and `b` share (in either order) under the
    /// session `seed`, from its start. Distinct `nonce`s give independent
    /// streams: the engine passes the index of the round the masks ride.
    pub fn for_pair(seed: u64, a: usize, b: usize, nonce: u64) -> Self {
        let session = [seed as u32, (seed >> 32) as u32, 0, 0, 0, 0, 0, 0];
        let pair = (a.min(b) as u64) << 32 | a.max(b) as u64;
        // The derivation block's nonce is apart from every round index.
        let mut key = [0u32; 8];
        key.copy_from_slice(&block(&session, pair, u64::MAX)[..8]);
        PairStream {
            key,
            nonce,
            counter: 0,
            buf: [0; 16],
            used: 16,
        }
    }
}

impl RngCore for PairStream {
    fn next_u64(&mut self) -> u64 {
        if self.used == 16 {
            self.buf = block(&self.key, self.counter, self.nonce);
            self.counter = self.counter.wrapping_add(1);
            self.used = 0;
        }
        let word = u64::from(self.buf[self.used]) | u64::from(self.buf[self.used + 1]) << 32;
        self.used += 2;
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_field::{PrimeField, M127, M61};

    /// RFC 8439 section 2.3.2: key 00..1f, block count 1, nonce
    /// 00:00:00:09:00:00:00:4a:00:00:00:00. The RFC's 32-bit counter and
    /// first nonce word are the low and high halves of the 64-bit counter.
    #[test]
    fn rfc8439_block_known_answer() {
        let bytes: Vec<u8> = (0u8..32).collect();
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(bytes.chunks(4)) {
            *word = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        let out = block(&key, 0x0900_0000_0000_0001, 0x4a00_0000);
        #[rustfmt::skip]
        let want: [u32; 16] = [
            0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3,
            0xc7f4d1c7, 0x0368c033, 0x9aaa2204, 0x4e6cd4c3,
            0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9,
            0xd19c12b5, 0xb94e16de, 0xe883d0cb, 0x4e3c50a2,
        ];
        assert_eq!(out, want);
    }

    /// RFC 8439 section 2.1.1.
    #[test]
    fn rfc8439_quarter_round_known_answer() {
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&[0x1111_1111, 0x0102_0304, 0x9b8d_6f43, 0x0123_4567]);
        quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(s[..4], [0xea2a_92f4, 0xcb1c_f8ce, 0x4581_472e, 0x5881_c4bb]);
    }

    #[test]
    fn block_counter_carries_into_its_high_word() {
        let key = [7u32; 8];
        let mut stream = PairStream {
            key,
            nonce: 3,
            counter: u64::from(u32::MAX),
            buf: [0; 16],
            used: 16,
        };
        let words = |b: [u32; 16]| -> Vec<u64> {
            b.chunks(2)
                .map(|w| u64::from(w[0]) | u64::from(w[1]) << 32)
                .collect()
        };
        let got: Vec<u64> = (0..16).map(|_| stream.next_u64()).collect();
        let low = words(block(&key, u64::from(u32::MAX), 3));
        let carried = words(block(&key, 1 << 32, 3));
        assert_eq!(got, [low, carried.clone()].concat());
        // The carry is a different block from a wrapped 32-bit counter.
        assert_ne!(carried, words(block(&key, 0, 3)));
    }

    #[test]
    fn pair_streams_are_symmetric_and_separated() {
        let head = |mut s: PairStream| [s.next_u64(), s.next_u64()];
        let base = head(PairStream::for_pair(9, 2, 5, 1));
        assert_eq!(base, head(PairStream::for_pair(9, 5, 2, 1)));
        for other in [
            PairStream::for_pair(10, 2, 5, 1),
            PairStream::for_pair(9, 2, 6, 1),
            PairStream::for_pair(9, 5, 6, 1),
            PairStream::for_pair(9, 2, 5, 2),
        ] {
            assert_ne!(base, head(other));
        }
    }

    #[test]
    fn field_elements_drawn_from_the_stream_are_canonical() {
        let mut stream = PairStream::for_pair(1, 0, 1, 0);
        for _ in 0..1000 {
            assert!(M61::random(&mut stream).to_canonical() < M61::modulus());
            assert!(M127::random(&mut stream).to_canonical() < M127::modulus());
        }
    }
}
