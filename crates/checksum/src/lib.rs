//! CRC32C (Castagnoli) for end-to-end shuffle integrity.
//!
//! The JBS dataplane moves intermediate data outside the JVM's safety
//! net, so the wire frame carries a checksum computed at the supplier
//! when the response frame is built and verified by the NetMerger
//! before the chunk is admitted to the merge; spill extents and
//! manifest frames carry the same checksum on disk. CRC32C is the
//! iSCSI/ext4 polynomial (`0x1EDC6F41`).
//!
//! Two kernels compute it, bit-identically. On x86_64 CPUs with SSE4.2
//! the hardware `crc32` instruction runs (the fenced `hw` module,
//! detected at run time on every call). Everywhere else a portable
//! slice-by-8 table implementation runs: dependency-free, no SIMD,
//! eight bytes per table round. The portable kernel is also the
//! reference the hardware one is property-tested against.
//!
//! Two entry points: one-shot [`crc32c`] for a contiguous chunk, and the
//! streaming [`Crc32c`] hasher for callers that see the payload in
//! pieces.

#[cfg(target_arch = "x86_64")]
mod hw;

/// The reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC contribution
/// of byte `b` seen `k` positions before the end of an 8-byte block.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// The portable slice-by-8 kernel: folds `bytes` into the running
/// register `state` (the checksum before its final inversion). It runs
/// where the hardware kernel cannot, and it is the reference the
/// hardware kernel is tested against.
fn update_portable(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // chunks_exact(8) guarantees the slice converts; the state
        // folds into the low half of the block, the high half is
        // independent of the running CRC.
        let block = u64::from_le_bytes(match chunk.try_into() {
            Ok(b) => b,
            Err(_) => unreachable!(),
        });
        let lo = (block as u32) ^ crc;
        let hi = (block >> 32) as u32;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        // Each table has exactly 256 entries and idx is masked.
        crc = TABLES[0][idx] ^ (crc >> 8);
    }
    crc
}

/// CRC32C of `bytes` in one shot.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(bytes);
    h.finish()
}

/// Streaming CRC32C hasher.
///
/// ```
/// use jbs_checksum::{crc32c, Crc32c};
/// let mut h = Crc32c::new();
/// h.update(b"123");
/// h.update(b"456789");
/// assert_eq!(h.finish(), crc32c(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Feed `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(state) = hw::try_update(self.state, bytes) {
            self.state = state;
            return;
        }
        self.state = update_portable(self.state, bytes);
    }

    /// The checksum of everything fed so far. Non-consuming: more
    /// `update` calls may follow and `finish` may be called again.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One-shot CRC32C through the portable reference kernel alone.
    fn crc32c_portable(bytes: &[u8]) -> u32 {
        !update_portable(!0, bytes)
    }

    /// Deterministic pseudo-random bytes (xorshift64), for buffers too
    /// large to draw byte by byte from a strategy.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// The canonical CRC32C check value (RFC 3720 / iSCSI test vector).
    #[test]
    fn rfc3720_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_portable(b"123456789"), 0xE306_9283);
    }

    /// Known vectors from the iSCSI specification appendix, through
    /// both the dispatched and the portable kernel.
    #[test]
    fn iscsi_vectors() {
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let vectors: [(&[u8], u32); 4] = [
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (bytes, want) in vectors {
            assert_eq!(crc32c(bytes), want);
            assert_eq!(crc32c_portable(bytes), want);
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c_portable(b""), 0);
    }

    /// The slice-by-8 fast path, and the dispatched kernel, agree with
    /// the byte-at-a-time table on every length around the 8-byte block
    /// boundaries.
    #[test]
    fn slice_by_8_matches_bytewise() {
        let bytewise = |bytes: &[u8]| -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
            }
            !crc
        };
        let data: Vec<u8> = (0..257u32).map(|i| (i * 131 % 251) as u8).collect();
        for len in 0..data.len() {
            let want = bytewise(&data[..len]);
            assert_eq!(crc32c_portable(&data[..len]), want, "len {len}");
            assert_eq!(crc32c(&data[..len]), want, "len {len}");
        }
    }

    /// On x86_64 the hardware kernel is picked exactly when the CPU
    /// reports SSE4.2, so a test run on such a CPU exercises it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_kernel_runs_when_the_cpu_has_it() {
        assert_eq!(
            hw::try_update(!0, b"123456789").is_some(),
            std::arch::is_x86_feature_detected!("sse4.2")
        );
    }

    /// Streaming across arbitrary split points equals the one-shot CRC,
    /// including splits that leave the fast path mid-block.
    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = crc32c(&data);
        for split in [0, 1, 3, 7, 8, 9, 15, 512, 1021, 1023, 1024] {
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    /// Large buffers (the 128 KiB default chunk) agree across kernels.
    #[test]
    fn large_buffers_match_portable() {
        for seed in 1..=4u64 {
            let data = noise(128 << 10, seed);
            assert_eq!(crc32c(&data), crc32c_portable(&data), "seed {seed}");
        }
    }

    proptest! {
        /// The dispatched kernel equals the portable reference on
        /// arbitrary bytes.
        #[test]
        fn dispatched_matches_portable(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(crc32c(&data), crc32c_portable(&data));
        }

        /// Streaming at arbitrary split points, with each piece fed to a
        /// kernel chosen per piece (so one stream mixes both), equals
        /// the one-shot reference.
        #[test]
        fn mixed_kernel_streaming_matches_one_shot(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            cuts in prop::collection::vec(0usize..4096, 0..8),
            portable in prop::collection::vec(prop::bool::ANY, 9),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut h = Crc32c::new();
            let mut at = 0;
            for (cut, use_portable) in cuts.into_iter().zip(portable) {
                let piece = &data[at..cut];
                if use_portable {
                    h.state = update_portable(h.state, piece);
                } else {
                    h.update(piece);
                }
                at = cut;
            }
            prop_assert_eq!(h.finish(), crc32c_portable(&data));
        }

        /// Slices starting at every offset 0..8 into a buffer (unaligned
        /// word loads) and ending anywhere agree across kernels.
        #[test]
        fn unaligned_starts_match_portable(
            data in prop::collection::vec(any::<u8>(), 8..4096),
            trim in 0usize..4096,
        ) {
            for start in 0..8 {
                let end = data.len() - trim.min(data.len() - start);
                let slice = &data[start..end];
                prop_assert_eq!(crc32c(slice), crc32c_portable(slice), "start {}", start);
            }
        }
    }

    /// Every single-bit flip changes the checksum (the property the
    /// integrity layer rests on for the corruption faults we inject).
    #[test]
    fn single_bit_flips_always_detected() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "flip {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let mut h = Crc32c::new();
        h.update(b"abc");
        let a = h.finish();
        assert_eq!(a, h.finish());
        h.update(b"def");
        assert_eq!(h.finish(), crc32c(b"abcdef"));
    }
}
