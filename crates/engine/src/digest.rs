//! Stable content digests for cache keys.
//!
//! The cache addresses units by the hash of their canonical description,
//! so the hash must be **stable across processes, platforms, and Rust
//! releases** — which rules out `std::hash` (`DefaultHasher` makes no
//! cross-version promise, and `SipHasher` is randomly keyed elsewhere).
//! Two independently-seeded FNV-1a 64 streams give a cheap 128-bit
//! digest; a colliding pair would only cost a spurious cache miss, never
//! a wrong result, because [`crate::PackStore`] stores the full
//! canonical description next to each payload and verifies it on read.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a 64 over a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// An incremental 128-bit digest: two FNV-1a 64 lanes with different
/// starting states (the second lane also folds in a running length, so
/// the lanes never collapse to the same function).
#[derive(Debug, Clone)]
pub struct Digest {
    a: u64,
    b: u64,
    len: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    /// A fresh digest.
    pub fn new() -> Digest {
        Digest {
            a: FNV_OFFSET,
            // Any constant different from the FNV offset decorrelates the
            // lanes; this one is the offset mixed with an arbitrary odd
            // 64-bit pattern.
            b: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
            len: 0,
        }
    }

    /// Folds raw bytes into both lanes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.len = self.len.wrapping_add(1);
            self.b = (self.b ^ u64::from(byte) ^ (self.len << 8)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a string into the digest.
    pub fn write_str(&mut self, s: &str) -> &mut Digest {
        self.write_bytes(s.as_bytes())
    }

    /// Folds an integer (little-endian bytes) into the digest.
    pub fn write_u64(&mut self, v: u64) -> &mut Digest {
        self.write_bytes(&v.to_le_bytes())
    }

    /// The 32-hex-character digest of everything written so far.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_values() {
        // Pinned outputs: a digest change silently invalidates every
        // on-disk cache, so it must be a deliberate, visible decision.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::new();
        d.write_str("unit").write_u64(7);
        assert_eq!(d.hex(), d.clone().hex());
        assert_eq!(d.hex().len(), 32);
    }

    #[test]
    fn digests_separate_similar_inputs() {
        let hex = |parts: &[&str]| {
            let mut d = Digest::new();
            for p in parts {
                d.write_str(p);
            }
            d.hex()
        };
        // Incremental writes digest the concatenated byte stream — field
        // boundaries are the caller's job (the canonical unit line uses
        // explicit `key=value` separators).
        assert_eq!(hex(&["ab"]), hex(&["a", "b", ""]));
        assert_ne!(hex(&["a"]), hex(&["b"]));
        assert_ne!(hex(&["ab"]), hex(&["ba"]));
        let mut x = Digest::new();
        x.write_u64(1);
        let mut y = Digest::new();
        y.write_u64(2);
        assert_ne!(x.hex(), y.hex());
    }
}
