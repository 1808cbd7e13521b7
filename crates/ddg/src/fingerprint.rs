//! Structural fingerprints of dependence graphs.
//!
//! A fingerprint is a 64-bit hash over everything that defines a [`Ddg`]
//! structurally: the loop name, every node (name, kind, latency,
//! value-definition flag, invariant uses), every edge (endpoints, kind,
//! distance), the invariant count and the profiled iteration count. Two
//! graphs have equal fingerprints exactly when an export → import round trip
//! through one of the on-disk formats (`docs/FORMATS.md`) is lossless, and
//! the schedulers — which read nothing else — treat them identically.
//!
//! Fingerprints are the cache keys of the scheduling-as-a-service direction:
//! a result for `(loop, machine, scheduler)` is addressed by
//! [`cache_key`], so duplicate hot loops in a traffic mix pay for each
//! distinct loop once. The hash is FNV-1a — not cryptographic, but stable
//! across platforms and releases of this workspace (the constants below are
//! part of the on-disk format contract and must not change).

use crate::graph::Ddg;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME` to the powers 0 to 8. Absorbing a zero byte only multiplies
/// the state by the prime, so `k` zero bytes multiply it by
/// `PRIME_POWERS[k]`.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// An incremental FNV-1a 64-bit hasher.
///
/// Unlike [`std::hash::Hasher`] implementations from the standard library,
/// the output is specified: identical byte sequences hash identically on
/// every platform and in every build, so the digests can live in files and
/// act as content-addressed cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a string as its UTF-8 bytes followed by a length tag, so
    /// `("ab", "c")` and `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes());
        self.write_u64(s.len() as u64)
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write_int(u64::from(v), 4)
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_int(v, 8)
    }

    /// Absorbs the low `width` bytes of `v` in little-endian byte order.
    /// The zero bytes above the highest non-zero one are absorbed by one
    /// multiplication (see [`PRIME_POWERS`]); the digest is the same.
    fn write_int(&mut self, v: u64, width: usize) -> &mut Self {
        let significant = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
        self.write(&v.to_le_bytes()[..significant]);
        self.state = self.state.wrapping_mul(PRIME_POWERS[width - significant]);
        self
    }

    /// Absorbs a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write(&[u8::from(v)])
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// The structural fingerprint of a dependence graph.
///
/// Covers the name, nodes, edges, invariants and iteration count — exactly
/// the information the on-disk loop formats serialise. Node and edge order
/// matter (node ids are program order, edge ids are insertion order; both
/// are part of the structure the schedulers see).
pub fn ddg_fingerprint(ddg: &Ddg) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(ddg.name());
    h.write_u64(ddg.num_nodes() as u64);
    for (_, n) in ddg.nodes() {
        h.write_str(n.name());
        h.write_str(n.kind().mnemonic());
        h.write_u32(n.latency());
        h.write_bool(n.defines_value());
        h.write_u32(n.invariant_uses());
    }
    h.write_u64(ddg.num_edges() as u64);
    for (_, e) in ddg.edges() {
        h.write_u32(e.source().0);
        h.write_u32(e.target().0);
        h.write_str(e.kind().label());
        h.write_u32(e.distance());
    }
    h.write_u32(ddg.num_invariants());
    h.write_u64(ddg.iteration_count());
    h.finish()
}

/// The content-addressed cache key of one scheduling request:
/// loop fingerprint × machine fingerprint × scheduler name.
///
/// The machine fingerprint is computed by `hrms_machine::machine_fingerprint`
/// (that crate depends on this one, so the combination lives here as a plain
/// function over the two digests).
pub fn cache_key(ddg_digest: u64, machine_digest: u64, scheduler: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(ddg_digest);
    h.write_u64(machine_digest);
    h.write_str(scheduler);
    h.finish()
}

/// Formats a digest the way the JSON-lines schedule reports and the CLI
/// print it: 16 lowercase hex digits.
pub fn format_digest(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdgBuilder, DepKind, OpKind};

    fn sample() -> Ddg {
        let mut b = DdgBuilder::new("fp");
        let a = b.node("a", OpKind::Load, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, c, DepKind::RegFlow, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fnv_vector_is_stable() {
        // Classic FNV-1a test vector: the empty input hashes to the offset
        // basis, and "a" to a known constant.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn integers_hash_as_their_little_endian_bytes() {
        let bytewise = |bytes: &[u8]| {
            let mut h = Fnv64::new();
            for &b in bytes {
                h.write(&[b]);
            }
            h.finish()
        };
        for v in [
            0,
            1,
            0xff,
            1 << 8,
            1 << 16,
            0xff << 24,
            1 << 40,
            1 << 56,
            u64::MAX,
        ] {
            assert_eq!(
                Fnv64::new().write_u64(v).finish(),
                bytewise(&v.to_le_bytes()),
                "u64 {v:#x}"
            );
            let v = v as u32;
            assert_eq!(
                Fnv64::new().write_u32(v).finish(),
                bytewise(&v.to_le_bytes()),
                "u32 {v:#x}"
            );
        }
    }

    #[test]
    fn equal_graphs_have_equal_fingerprints() {
        assert_eq!(ddg_fingerprint(&sample()), ddg_fingerprint(&sample()));
    }

    #[test]
    fn every_field_changes_the_fingerprint() {
        let base = ddg_fingerprint(&sample());

        // Different name.
        let mut b = DdgBuilder::new("other");
        let a = b.node("a", OpKind::Load, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, c, DepKind::RegFlow, 1).unwrap();
        assert_ne!(ddg_fingerprint(&b.build().unwrap()), base);

        // Different latency.
        let mut b = DdgBuilder::new("fp");
        let a = b.node("a", OpKind::Load, 3);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, c, DepKind::RegFlow, 1).unwrap();
        assert_ne!(ddg_fingerprint(&b.build().unwrap()), base);

        // Different distance.
        let mut b = DdgBuilder::new("fp");
        let a = b.node("a", OpKind::Load, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, c, DepKind::RegFlow, 2).unwrap();
        assert_ne!(ddg_fingerprint(&b.build().unwrap()), base);

        // Different edge kind.
        let mut b = DdgBuilder::new("fp");
        let a = b.node("a", OpKind::Load, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::Memory, 0).unwrap();
        b.edge(c, c, DepKind::RegFlow, 1).unwrap();
        assert_ne!(ddg_fingerprint(&b.build().unwrap()), base);

        // Different iteration count.
        let mut b = DdgBuilder::new("fp");
        let a = b.node("a", OpKind::Load, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, c, DepKind::RegFlow, 1).unwrap();
        b.iteration_count(7);
        assert_ne!(ddg_fingerprint(&b.build().unwrap()), base);
    }

    #[test]
    fn defines_value_and_invariants_are_covered() {
        let mut b = DdgBuilder::new("nv");
        b.node("x", OpKind::IntAlu, 1);
        let plain = ddg_fingerprint(&b.build().unwrap());

        let mut b = DdgBuilder::new("nv");
        b.node_no_result("x", OpKind::IntAlu, 1);
        assert_ne!(ddg_fingerprint(&b.build().unwrap()), plain);

        let mut b = DdgBuilder::new("nv");
        let x = b.node("x", OpKind::IntAlu, 1);
        b.node_invariant_uses(x, 2);
        assert_ne!(ddg_fingerprint(&b.build().unwrap()), plain);
    }

    #[test]
    fn cache_key_separates_all_three_inputs() {
        let k = cache_key(1, 2, "HRMS");
        assert_ne!(cache_key(3, 2, "HRMS"), k);
        assert_ne!(cache_key(1, 4, "HRMS"), k);
        assert_ne!(cache_key(1, 2, "Slack"), k);
        assert_eq!(cache_key(1, 2, "HRMS"), k);
    }

    #[test]
    fn digest_formatting_is_fixed_width_hex() {
        assert_eq!(format_digest(0xabc), "0000000000000abc");
        assert_eq!(format_digest(u64::MAX), "ffffffffffffffff");
    }
}
