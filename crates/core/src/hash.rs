//! 64-bit non-cryptographic hash validating In-n-Out in-place data.
//!
//! The paper's implementation uses xxHash3 (§6); the only property In-n-Out
//! needs is that a *torn* buffer (a mix of two writes, or in-place data that
//! belongs to an older metadata word) virtually never validates against the
//! stored hash. We implement the classic xxHash64 algorithm from scratch to
//! stay within the allowed dependency set; it is well-specified, fast, and
//! has excellent avalanche behavior.

const PRIME64_1: u64 = 0x9E3779B185EBCA87;
const PRIME64_2: u64 = 0xC2B2AE3D27D4EB4F;
const PRIME64_3: u64 = 0x165667B19E3779F9;
const PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const PRIME64_5: u64 = 0x27D4EB2F165667C5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

#[inline]
fn read_u32(b: &[u8]) -> u64 {
    u32::from_le_bytes(b[..4].try_into().unwrap()) as u64
}

/// Computes the xxHash64 of `data` with the given `seed`.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut rest = data;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64(&rest[0..]));
            v2 = round(v2, read_u64(&rest[8..]));
            v3 = round(v3, read_u64(&rest[16..]));
            v4 = round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while rest.len() >= 8 {
        h = (h ^ round(0, read_u64(rest)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h = (h ^ read_u32(rest).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }

    avalanche(h)
}

/// xxHash64's final mix (a bijection).
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

/// Hash of a value's bytes alone: the expensive half of [`innout_hash`],
/// the same for every metadata word the value is ever stored under, so a
/// write computes it once (it travels with the [`crate::MVal`]).
pub(crate) fn body_hash(value: &[u8]) -> u64 {
    xxh64(value, 0)
}

/// Binds a [`body_hash`] to a metadata word. One xxHash64 round and the
/// final mix: a bijection in either argument with the other fixed, so the
/// same bytes under two different words never share a hash, and two bodies
/// collide under a word only where their body hashes collide.
#[inline]
pub(crate) fn bind_word(meta_word: u64, body_hash: u64) -> u64 {
    avalanche(round(body_hash, meta_word))
}

/// Hash binding an In-n-Out metadata word to its in-place value
/// (Algorithm 5 line 7 / Algorithm 6 line 11).
pub fn innout_hash(meta_word: u64, value: &[u8]) -> u64 {
    bind_word(meta_word, body_hash(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors from the canonical xxHash implementation.
    #[test]
    fn known_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46DB3751D8E999);
        assert_eq!(xxh64(b"a", 0), 0xD24EC4F1A98C6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC2CF5AD770999);
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog", 0),
            0x0B242D361FDA71BC
        );
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(xxh64(b"hello", 0), xxh64(b"hello", 1));
    }

    #[test]
    fn long_inputs_cover_stripe_loop() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31) as u8).collect();
        let a = xxh64(&data, 0);
        let mut tampered = data.clone();
        tampered[777] ^= 1;
        assert_ne!(a, xxh64(&tampered, 0));
        // Deterministic.
        assert_eq!(a, xxh64(&data, 0));
    }

    #[test]
    fn innout_hash_binds_metadata() {
        let v = vec![9u8; 64];
        assert_ne!(innout_hash(1, &v), innout_hash(2, &v));
        assert_ne!(innout_hash(1, &v), innout_hash(1, &[8u8; 64]));
    }

    #[test]
    fn same_body_under_another_word_never_validates() {
        // Stale in-place data is the old value's bytes and hash under a
        // newer word: the binding alone must tell the words apart.
        let body = body_hash(&[9u8; 64]);
        let mut seen = std::collections::HashSet::new();
        for word in (0..1_000u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) | 1 << 16) {
            assert!(
                seen.insert(bind_word(word, body)),
                "word {word:#x} collided"
            );
            assert_eq!(bind_word(word, body), innout_hash(word, &[9u8; 64]));
        }
    }

    #[test]
    fn body_hash_is_computed_once_and_shared() {
        use crate::{MVal, Stamp};
        let guessed = MVal::new(Stamp::guessed(3, 1), vec![5u8; 300]);
        assert_eq!(guessed.body_hash(), body_hash(&[5u8; 300]));
        // Re-stamping keeps the bytes, so it keeps their hash: the VERIFIED
        // confirmation and a re-executed write hash nothing.
        let verified = guessed.with_verified();
        let fresh = guessed.restamped(Stamp::verified(9, 1));
        for v in [&verified, &fresh] {
            assert!(std::rc::Rc::ptr_eq(v.value(), guessed.value()));
            assert_eq!(v.body_hash(), guessed.body_hash());
        }
        // What a replica stores under its own word derives from it.
        assert_eq!(
            bind_word(77 << 16, guessed.body_hash()),
            innout_hash(77 << 16, guessed.value())
        );
    }

    #[test]
    fn torn_buffers_do_not_validate() {
        // A mix of two writes must not hash to either write's stored hash.
        let old = vec![0x11u8; 256];
        let new = vec![0x22u8; 256];
        let h_new = innout_hash(42, &new);
        for cut in [1usize, 64, 128, 255] {
            let mut torn = new.clone();
            torn[cut..].copy_from_slice(&old[cut..]);
            assert_ne!(innout_hash(42, &torn), h_new, "cut at {cut} validated");
        }
    }
}
