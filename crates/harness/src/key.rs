//! The in-tree 64-bit hash behind cache keys and blob checksums.
//!
//! [`HashSink`] is the second [`Sink`] driver: the field list that
//! writes a spec to the wire is also pushed through it, so a key is a
//! hash of the canonical spec and of nothing std formats. A
//! token is one multiply over two words: a payload, and a tag that says
//! what the payload is (with the length, for text).

use crate::json::Sink;

/// 2^64 / φ: the odd constant the tag word is offset by.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// Where the two lanes start (the first hex digits of π): unrelated to
/// each other, to [`PHI`] and to anything a payload is likely to hold.
const LANES: (u64, u64) = (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);

// What a payload word is. Text carries its byte length above the tag.
const OPEN_OBJ: u64 = 1;
const CLOSE_OBJ: u64 = 2;
const OPEN_ARR: u64 = 3;
const CLOSE_ARR: u64 = 4;
const KEY: u64 = 5;
const NULL: u64 = 6;
const BOOL: u64 = 7;
const U64: u64 = 8;
const F64: u64 = 9;
const STR: u64 = 10;
const RAW: u64 = 11;
const MORE: u64 = 12;

/// The 128-bit product of `a` and `b`, high half onto low.
fn fold(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// A [`Sink`] that hashes what is pushed into it. Two lanes take the
/// tokens in turn, so that one token's multiply need not wait for the
/// one before it.
pub(crate) struct HashSink(u64, u64);

impl HashSink {
    /// A hasher whose state starts from `seed`.
    pub(crate) fn new(seed: u64) -> HashSink {
        HashSink(seed ^ LANES.0, seed ^ LANES.1)
    }

    /// Folds one token into the lane whose turn it is: the lane under
    /// the payload, times the tag under [`PHI`]. A tag is far below
    /// 2^63, so the second factor is never zero; the first is only when
    /// a payload equals its lane, which takes a 64-bit coincidence.
    fn token(&mut self, tag: u64, payload: u64) {
        let next = fold(self.0 ^ payload, PHI ^ tag);
        self.0 = self.1;
        self.1 = next;
    }

    /// Text, eight bytes to a token, the last zero-padded (empty text is
    /// one empty chunk); the first token's tag carries the length, which
    /// says where the text ends.
    fn bytes(&mut self, tag: u64, text: &[u8]) {
        let mut tag = tag | (text.len() as u64) << 8;
        for chunk in text.chunks(8).chain(text.is_empty().then_some(text)) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.token(tag, u64::from_le_bytes(word));
            tag = MORE;
        }
    }

    /// The hash of everything pushed so far: the lanes joined, then two
    /// closing rounds, so that the last token reaches every bit as the
    /// first did.
    pub(crate) fn finish(self) -> u64 {
        let joined = fold(self.0 ^ self.1.rotate_left(32), PHI);
        fold(joined ^ PHI, PHI)
    }
}

/// The hash of `bytes` alone: what a cache blob's header carries of its
/// body.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut h = HashSink::new(0);
    h.bytes(RAW, bytes);
    h.finish()
}

impl Sink for HashSink {
    fn begin_obj(&mut self) {
        self.token(OPEN_OBJ, 0);
    }

    fn end_obj(&mut self) {
        self.token(CLOSE_OBJ, 0);
    }

    fn begin_arr(&mut self) {
        self.token(OPEN_ARR, 0);
    }

    fn end_arr(&mut self) {
        self.token(CLOSE_ARR, 0);
    }

    fn key(&mut self, key: &str) {
        self.bytes(KEY, key.as_bytes());
    }

    fn null(&mut self) {
        self.token(NULL, 0);
    }

    fn bool(&mut self, v: bool) {
        self.token(BOOL, u64::from(v));
    }

    fn u64(&mut self, v: u64) {
        self.token(U64, v);
    }

    fn f64(&mut self, v: f64) {
        self.token(F64, v.to_bits());
    }

    fn str(&mut self, v: &str) {
        self.bytes(STR, v.as_bytes());
    }

    fn raw(&mut self, text: &str) {
        self.bytes(RAW, text.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(push: impl FnOnce(&mut HashSink)) -> u64 {
        let mut h = HashSink::new(7);
        push(&mut h);
        h.finish()
    }

    #[test]
    fn tokens_of_different_kinds_or_order_hash_apart() {
        let all = [
            hash(|h| h.u64(1)),
            hash(|h| h.bool(true)),
            hash(|h| h.f64(f64::from_bits(1))),
            hash(|h| h.str("\u{1}")),
            hash(|h| h.key("\u{1}")),
            hash(|h| h.raw("\u{1}")),
            hash(|h| h.null()),
            hash(|h| h.begin_obj()),
            hash(|h| h.end_obj()),
            hash(|h| h.begin_arr()),
            hash(|h| h.end_arr()),
            hash(|_| {}),
            hash(|h| {
                h.u64(1);
                h.u64(2);
            }),
            hash(|h| {
                h.u64(2);
                h.u64(1);
            }),
            // The same bytes cut differently.
            hash(|h| {
                h.str("ab");
                h.str("")
            }),
            hash(|h| {
                h.str("a");
                h.str("b")
            }),
            hash(|h| h.str("ab")),
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "cases {i} and {j}");
            }
        }
        assert_ne!(HashSink::new(1).finish(), HashSink::new(2).finish());
    }

    #[test]
    fn a_checksum_sees_every_bit_the_length_and_the_padding() {
        let text: Vec<u8> = (0..100u8).collect();
        let sum = checksum(&text);
        assert_eq!(sum, checksum(&text), "deterministic");
        for at in 0..text.len() * 8 {
            let mut flipped = text.clone();
            flipped[at / 8] ^= 1 << (at % 8);
            assert_ne!(checksum(&flipped), sum, "bit {at}");
        }
        for len in 0..text.len() {
            assert_ne!(checksum(&text[..len]), sum, "cut to {len}");
        }
        // Zero bytes at the end are not the last token's padding.
        assert_ne!(checksum(b"abc"), checksum(b"abc\0"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        assert_ne!(checksum(b"12345678"), checksum(b"12345678\0"));
    }
}
