//! The hand-rolled digest behind the hash chain.
//!
//! FNV-1a over 64 bits: not cryptographic, but the threat model here is
//! *tamper evidence against accidental or casual modification* — torn
//! writes, editor slips, spliced files — the class a per-record CRC
//! defends against, upgraded with chaining so record *order* and
//! *ancestry* are covered too. An adversary who can rewrite the whole
//! chain *and* every later snapshot can forge a history, but replay
//! re-verification (the record is evidence, not authority) still
//! refuses any forged `permitted` effect.

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a of `bytes` from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold(OFFSET, bytes)
}

/// Continues an FNV-1a state over more bytes.
fn fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(PRIME);
    }
    state
}

/// The chain hash of one commit record: a digest over the predecessor's
/// hash, the record's sequence number, and its payload text. Because the
/// predecessor hash is folded in, equal payloads at different chain
/// positions hash differently, and a record moved, reordered, or spliced
/// in from another log can never link cleanly.
pub fn chain_hash(prev: u64, seq: u64, payload: &str) -> u64 {
    let mut state = fold(OFFSET, &prev.to_be_bytes());
    state = fold(state, &seq.to_be_bytes());
    fold(state, payload.as_bytes())
}

/// Renders a digest in the canonical 16-digit lower-case hex form used
/// by the `TGL1` and `TGS1` headers.
pub fn hex16(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Parses a canonical 16-digit hex digest (inverse of [`hex16`]).
pub fn parse_hex16(text: &str) -> Option<u64> {
    if text.len() != 16 {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn chain_hash_separates_position_from_payload() {
        let h1 = chain_hash(0, 0, "R permitted take ...");
        let h2 = chain_hash(0, 1, "R permitted take ...");
        let h3 = chain_hash(1, 0, "R permitted take ...");
        assert_ne!(h1, h2, "sequence number is covered");
        assert_ne!(h1, h3, "predecessor hash is covered");
    }

    #[test]
    fn hex16_round_trips() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_hex16(&hex16(v)), Some(v));
        }
        assert_eq!(parse_hex16("123"), None);
        assert_eq!(parse_hex16("zzzzzzzzzzzzzzzz"), None);
        assert_eq!(parse_hex16("0123456789abcdef0"), None);
    }
}
