//! FNV-1a, 64-bit: the one hasher behind every hash the workspace compares
//! across runs and processes — template, plan and profile fingerprints, and
//! the shard a partitioned row lands on. Used instead of
//! `std::hash::DefaultHasher`, whose output may change between Rust
//! versions.

/// FNV-1a 64-bit hasher over explicit words and bytes.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// A hasher whose offset basis is XORed with `seed`, so two users of
    /// the same input bytes get unrelated hashes.
    pub fn seeded(seed: u64) -> Self {
        Fnv(Self::OFFSET ^ seed)
    }

    /// Hash the eight little-endian bytes of `word`.
    pub fn write(&mut self, word: u64) -> &mut Self {
        self.write_bytes(&word.to_le_bytes())
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::new().write_bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::new().write_bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn words_and_seed_agree_with_bytes() {
        let word = 0x0123_4567_89ab_cdefu64;
        assert_eq!(
            Fnv::new().write(word).finish(),
            Fnv::new().write_bytes(&word.to_le_bytes()).finish()
        );
        assert_eq!(Fnv::seeded(0).finish(), Fnv::new().finish());
        assert_eq!(Fnv::seeded(7).finish(), 0xcbf2_9ce4_8422_2325 ^ 7);
    }
}
