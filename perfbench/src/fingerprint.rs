//! Per-reducer output fingerprints: the correctness gate.
//!
//! The expected fingerprint of every reducer is accumulated while its
//! records are generated, so the benchmark never keeps a copy of the
//! inputs. A reducer's merged output must then match it exactly:
//!
//! * `records` catches a dropped or duplicated record;
//! * `sorted` catches records delivered out of key order;
//! * `hash`, the wrapping sum of a per-record hash, catches a changed
//!   byte anywhere, independent of the order records arrive in.

/// One reducer's fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    /// Record count.
    pub records: u64,
    /// Key + value bytes.
    pub bytes: u64,
    /// Order-independent sum of [`record_hash`] over the records.
    pub hash: u64,
    /// Keys never decrease from one record to the next.
    pub sorted: bool,
}

/// Builds a [`Fingerprint`] from records in delivery order.
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    fp: Fingerprint,
    last_key: Vec<u8>,
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        FingerprintBuilder {
            fp: Fingerprint {
                sorted: true,
                ..Fingerprint::default()
            },
            last_key: Vec::new(),
        }
    }
}

impl FingerprintBuilder {
    /// Add a record that arrived in this position of the output.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        if self.fp.records > 0 && key < self.last_key.as_slice() {
            self.fp.sorted = false;
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.push_unordered(key, value);
    }

    /// Add a record whose position carries no meaning (input generation,
    /// where a reducer's records arrive before they are sorted).
    pub fn push_unordered(&mut self, key: &[u8], value: &[u8]) {
        self.fp.records += 1;
        self.fp.bytes += (key.len() + value.len()) as u64;
        self.fp.hash = self.fp.hash.wrapping_add(record_hash(key, value));
    }

    /// The fingerprint so far.
    pub fn finish(&self) -> Fingerprint {
        self.fp
    }
}

/// Fingerprint of records in the order given.
pub fn fingerprint_of<'a>(records: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) -> Fingerprint {
    let mut b = FingerprintBuilder::default();
    for (k, v) in records {
        b.push(k, v);
    }
    b.finish()
}

const K1: u64 = 0x9E37_79B9_7F4A_7C15;
const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Absorb `bytes` into `h`, eight bytes per step. Every step is a
/// bijection of the state for a fixed input word (xor, multiply by an
/// odd constant, rotate), so two inputs of equal length that differ in
/// one word always leave different states: a single flipped bit can
/// never cancel out.
fn absorb(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ w).wrapping_mul(K1).rotate_left(29);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = (h ^ u64::from_le_bytes(last))
            .wrapping_mul(K1)
            .rotate_left(29);
    }
    h
}

/// 64-bit hash of one record; lengths are mixed in first so the split
/// between key and value is part of the identity.
pub fn record_hash(key: &[u8], value: &[u8]) -> u64 {
    let h = ((key.len() as u64) << 32 | value.len() as u64).wrapping_mul(K2);
    let h = absorb(absorb(h, key), value);
    // Final avalanche so the wrapping sum of many hashes stays uniform.
    let h = (h ^ (h >> 33)).wrapping_mul(K2);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs() -> Vec<(Vec<u8>, Vec<u8>)> {
        (0u8..40)
            .map(|i| (vec![b'k', i / 10, i % 10], vec![i; 17 + i as usize]))
            .collect()
    }

    fn fp(rs: &[(Vec<u8>, Vec<u8>)]) -> Fingerprint {
        fingerprint_of(rs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
    }

    #[test]
    fn clean_output_matches_generation_time_fingerprint() {
        let rs = recs();
        let mut gen = FingerprintBuilder::default();
        // Generation sees records in arbitrary order.
        for (k, v) in rs.iter().rev() {
            gen.push_unordered(k, v);
        }
        assert_eq!(fp(&rs), gen.finish());
        assert!(fp(&rs).sorted);
    }

    #[test]
    fn catches_a_dropped_record() {
        let rs = recs();
        let mut bad = rs.clone();
        bad.remove(17);
        assert_ne!(fp(&rs), fp(&bad));
    }

    #[test]
    fn catches_a_duplicated_record() {
        let rs = recs();
        let mut bad = rs.clone();
        bad.insert(18, rs[17].clone());
        assert_ne!(fp(&rs), fp(&bad));
    }

    #[test]
    fn catches_a_reordered_record() {
        let rs = recs();
        let mut bad = rs.clone();
        bad.swap(3, 30);
        let got = fp(&bad);
        assert!(!got.sorted);
        assert_ne!(fp(&rs), got);
    }

    #[test]
    fn catches_every_single_bit_flip() {
        let rs = recs();
        let clean = fp(&rs);
        for i in [0usize, 9, 39] {
            for byte in 0..rs[i].0.len() + rs[i].1.len() {
                for bit in 0..8 {
                    let mut bad = rs.clone();
                    let (k, v) = &mut bad[i];
                    let klen = k.len();
                    let b = if byte < klen {
                        &mut k[byte]
                    } else {
                        &mut v[byte - klen]
                    };
                    *b ^= 1 << bit;
                    assert_ne!(clean, fp(&bad), "record {i} byte {byte} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn catches_a_record_replaced_by_a_copy_of_another() {
        let rs = recs();
        let mut bad = rs.clone();
        bad[21] = (rs[21].0.clone(), rs[20].1.clone());
        assert_ne!(fp(&rs), fp(&bad));
    }

    #[test]
    fn key_value_split_is_part_of_the_identity() {
        assert_ne!(record_hash(b"ab", b"c"), record_hash(b"a", b"bc"));
    }
}
