//! Peer residency summaries: a compact, lossy picture of which blocks a
//! node's cache holds (Summary Cache, Fan et al., SIGCOMM '98).
//!
//! Each cache module periodically broadcasts a Bloom filter of its
//! resident keys to the other cache nodes. A local miss consults the
//! filters it holds before asking the block location directory: when no
//! missing block appears in any peer's summary, no peer held any of them
//! when it last reported, so the module skips the query and goes straight
//! to the iod. A Bloom filter has no false negatives, so a skipped query
//! never hides a block that was resident when the summary was built; a
//! false positive (or a summary that aged since) costs one directory query
//! that finds nothing, never wrong data.

use crate::protocol::Fid;

/// Bloom filter over `(fid, block)` keys with [`ResidencySummary::HASHES`]
/// probes per key and a power-of-two bit count.
///
/// Every filter carries its own hash seed. A sender that reseeds each
/// refresh turns a false positive into a transient event: the next
/// summary misreports an independent set of keys, so no single (possibly
/// hot) block is misjudged for the length of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidencySummary {
    bits: Vec<u64>,
    /// `bit count - 1`; positions are masked, not reduced modulo.
    mask: u64,
    seed: u64,
}

impl ResidencySummary {
    /// Probes per key.
    pub const HASHES: usize = 3;
    /// Minimum filter bits per cache frame.
    pub const BITS_PER_FRAME: usize = 16;

    /// An empty filter hashing with `seed`, sized for a cache of
    /// `capacity_blocks` frames: at least [`Self::BITS_PER_FRAME`] bits
    /// per frame, rounded up to a power of two (and never below one
    /// 64-bit word).
    pub fn for_capacity(capacity_blocks: usize, seed: u64) -> ResidencySummary {
        let nbits = (capacity_blocks.max(1) * Self::BITS_PER_FRAME).next_power_of_two().max(64);
        ResidencySummary { bits: vec![0; nbits / 64], mask: nbits as u64 - 1, seed }
    }

    /// Bit positions of one key: double hashing over a 64-bit mix, with
    /// an odd stride so the probes stay distinct.
    fn positions(&self, fid: Fid, blk: u64) -> [u64; Self::HASHES] {
        let h1 = mix(fid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ blk ^ mix(self.seed));
        let h2 = mix(h1 ^ 0xD6E8_FEB8_6659_FD93) | 1;
        std::array::from_fn(|i| h1.wrapping_add((i as u64).wrapping_mul(h2)) & self.mask)
    }

    pub fn insert(&mut self, fid: Fid, blk: u64) {
        for p in self.positions(fid, blk) {
            self.bits[(p / 64) as usize] |= 1 << (p % 64);
        }
    }

    /// `false` means the key was certainly not inserted.
    pub fn contains(&self, fid: Fid, blk: u64) -> bool {
        self.positions(fid, blk)
            .iter()
            .all(|&p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0)
    }

    /// Encoded size of the filter on the wire.
    pub fn wire_bytes(&self) -> u32 {
        (self.bits.len() * 8) as u32
    }
}

/// splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_from_capacity_at_eight_bits_per_frame_or_more() {
        let s = ResidencySummary::for_capacity(300, 7);
        assert_eq!(s.wire_bytes(), 1024, "300 frames * 16 bits rounds up to 8192 bits");
        assert!(s.wire_bytes() as usize * 8 >= 300 * ResidencySummary::BITS_PER_FRAME);
        assert_eq!(ResidencySummary::for_capacity(0, 7).wire_bytes(), 8, "one word minimum");
    }

    #[test]
    fn every_inserted_key_is_contained() {
        for cap in [1usize, 64, 300, 512, 4096] {
            let mut s = ResidencySummary::for_capacity(cap, 7);
            let keys: Vec<(Fid, u64)> =
                (0..cap as u64).map(|i| (Fid(1 + i % 3), i * 7 + 11)).collect();
            for &(f, b) in &keys {
                s.insert(f, b);
            }
            for &(f, b) in &keys {
                assert!(s.contains(f, b), "cap {cap}: false negative for {f:?}/{b}");
            }
        }
    }

    /// With `n = capacity` keys in `m >= 16n` bits and k = 3 the expected
    /// false-positive rate is at most (1 - e^{-3/16})^3 ~= 0.48 %; the
    /// test allows 1 % over 100k absent probes.
    #[test]
    fn false_positive_rate_at_full_capacity_stays_under_one_percent() {
        for cap in [64usize, 300, 512, 2048] {
            let mut s = ResidencySummary::for_capacity(cap, 7);
            for i in 0..cap as u64 {
                s.insert(Fid(1), i);
            }
            let probes = 100_000u64;
            let fp = (0..probes).filter(|i| s.contains(Fid(2), *i)).count();
            let rate = fp as f64 / probes as f64;
            assert!(rate < 0.01, "cap {cap}: false-positive rate {rate:.4}");
        }
    }

    #[test]
    fn reseeding_moves_false_positives() {
        let fill = |seed| {
            let mut s = ResidencySummary::for_capacity(300, seed);
            for i in 0..300u64 {
                s.insert(Fid(1), i);
            }
            s
        };
        let (a, b) = (fill(1), fill(2));
        let fp_a: Vec<u64> = (1000..101_000u64).filter(|&k| a.contains(Fid(1), k)).collect();
        assert!(!fp_a.is_empty(), "100k probes must hit some false positives");
        let shared = fp_a.iter().filter(|&&k| b.contains(Fid(1), k)).count();
        assert!(shared * 10 < fp_a.len(), "{shared} of {} false positives survived", fp_a.len());
    }

    #[test]
    fn empty_summary_contains_nothing() {
        let s = ResidencySummary::for_capacity(300, 7);
        assert!((0..10_000u64).all(|b| !s.contains(Fid(1), b)));
    }
}
