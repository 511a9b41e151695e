//! The three workloads: their shapes, and the seeded generation of
//! their map outputs together with each reducer's expected fingerprint.

use crate::fingerprint::{Fingerprint, FingerprintBuilder};
use jbs_des::DetRng;
use jbs_mapred::merge::{sort_run, Record};
use jbs_mapred::mof::MofWriter;
use jbs_workloads::{gen_terasort_records, HashPartitioner, Partitioner, ZipfPartitioner};
use std::time::Duration;

/// Transport buffer (chunk) size of the program's defaults; the
/// benchmark's own chunking (appends, replays) follows it.
pub const CHUNK: usize = 128 << 10;

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TeraSort records, uniform partitions, synthetic disk delay.
    Paper,
    /// ~1 KiB records, Zipf(1) partition sizes, no delay.
    RawSkew,
    /// ~1 KiB records appended into hybrid stores while reducers read.
    PushSpill,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(Workload::Paper),
            "raw-skew" => Some(Workload::RawSkew),
            "push-spill" => Some(Workload::PushSpill),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::RawSkew => "raw-skew",
            Workload::PushSpill => "push-spill",
        }
    }

    /// The data shape and the one setting that defines the workload.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Paper => Shape {
                mofs_per_supplier: 4,
                reducers: 8,
                records_per_mof: 80_000,
                record: RecordKind::TeraSort,
                partition: PartitionKind::Uniform,
                disk_delay: Duration::from_millis(PAPER_DISK_DELAY_MS),
            },
            Workload::RawSkew => Shape {
                mofs_per_supplier: 8,
                reducers: 16,
                records_per_mof: 8_000,
                record: RecordKind::Kib,
                partition: PartitionKind::Zipf,
                disk_delay: Duration::ZERO,
            },
            // Per map wave each supplier receives 2 MOFs (~16 MiB).
            Workload::PushSpill => Shape {
                mofs_per_supplier: 2,
                reducers: 8,
                records_per_mof: 8_000,
                record: RecordKind::Kib,
                partition: PartitionKind::Uniform,
                disk_delay: Duration::ZERO,
            },
        }
    }
}

/// Synthetic delay per read-ahead batch on `paper`, sized so that disk
/// wait is the largest layer cost in the traced run.
pub const PAPER_DISK_DELAY_MS: u64 = 12;

/// Suppliers in every workload (one per core of the 2-core reference
/// machine; at most 2 client connections).
pub const SUPPLIERS: usize = 2;

/// Key length of every record (the TeraSort key).
pub const KEY_LEN: usize = 10;

/// Value length of the ~1 KiB records: 10 + 1014 = 1024 bytes.
pub const KIB_VALUE_LEN: usize = 1014;

/// Record layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// 100-byte TeraGen records (`gen_terasort_records`).
    TeraSort,
    /// 10-byte random key, 1014-byte random value.
    Kib,
}

/// How keys choose their reducer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// `HashPartitioner`: near-equal partitions.
    Uniform,
    /// `ZipfPartitioner` with θ = 1: partition 0 hottest.
    Zipf,
}

/// Data shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// MOFs each supplier holds (per wave on `push-spill`).
    pub mofs_per_supplier: usize,
    /// Reducers (partitions per MOF).
    pub reducers: usize,
    /// Records per MOF.
    pub records_per_mof: usize,
    /// Record layout.
    pub record: RecordKind,
    /// Partitioning.
    pub partition: PartitionKind,
    /// `ServerOptions::synthetic_disk_delay`.
    pub disk_delay: Duration,
}

impl Shape {
    /// MOFs across all suppliers.
    pub fn mofs(&self) -> usize {
        SUPPLIERS * self.mofs_per_supplier
    }

    /// The partitioner this shape routes keys with.
    pub fn partitioner(&self) -> Box<dyn Partitioner + Send + Sync> {
        match self.partition {
            PartitionKind::Uniform => Box::new(HashPartitioner::new(self.reducers)),
            PartitionKind::Zipf => Box::new(ZipfPartitioner::new(self.reducers, 1.0)),
        }
    }
}

/// SplitMix64 finalizer: decorrelates (seed, salt) pairs.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The records of map output `mof` (an index in `0..shape.mofs()`, or
/// beyond for later waves), deterministic in `(seed, mof)`.
pub fn gen_mof_records(shape: &Shape, seed: u64, mof: u64) -> Vec<Record> {
    let mut rng = DetRng::new(mix(seed, mof));
    match shape.record {
        RecordKind::TeraSort => gen_terasort_records(shape.records_per_mof, &mut rng),
        RecordKind::Kib => (0..shape.records_per_mof)
            .map(|_| {
                let mut key = vec![0u8; KEY_LEN];
                rng.fill_bytes(&mut key);
                let mut value = vec![0u8; KIB_VALUE_LEN];
                rng.fill_bytes(&mut value);
                (key, value)
            })
            .collect(),
    }
}

/// Expected per-reducer fingerprints, accumulated at generation time.
#[derive(Debug, Clone)]
pub struct Expected {
    builders: Vec<FingerprintBuilder>,
}

impl Expected {
    /// No records yet for `reducers` reducers.
    pub fn new(reducers: usize) -> Self {
        Expected {
            builders: vec![FingerprintBuilder::default(); reducers],
        }
    }

    /// Account `records`, each routed by `part`.
    pub fn add(&mut self, records: &[Record], part: &dyn Partitioner) {
        for (k, v) in records {
            if let Some(b) = self.builders.get_mut(part.partition(k)) {
                b.push_unordered(k, v);
            }
        }
    }

    /// All reducers' fingerprints.
    pub fn all(&self) -> Vec<Fingerprint> {
        self.builders
            .iter()
            .map(FingerprintBuilder::finish)
            .collect()
    }
}

/// One generated map output in segment form: the MOF data bytes and
/// each reducer's `[start, end)` within them.
pub struct MofBytes {
    /// The MOF data file contents.
    pub data: Vec<u8>,
    /// Per-reducer byte range of its segment.
    pub segments: Vec<(usize, usize)>,
}

impl MofBytes {
    /// Reducer `r`'s segment bytes.
    pub fn segment(&self, r: usize) -> &[u8] {
        let (s, e) = self.segments[r];
        &self.data[s..e]
    }
}

/// Partition, sort and encode `records` exactly as a map task's spill
/// does (`MofStore::write_mof` does the same before writing files).
pub fn encode_mof(records: Vec<Record>, part: &dyn Partitioner) -> MofBytes {
    let mut buckets: Vec<Vec<Record>> = vec![Vec::new(); part.partitions()];
    for (k, v) in records {
        let p = part.partition(&k);
        buckets[p].push((k, v));
    }
    let mut w = MofWriter::new();
    for bucket in &mut buckets {
        sort_run(bucket);
        w.begin_segment();
        for (k, v) in bucket.iter() {
            w.append(k, v);
        }
        w.end_segment();
    }
    let (data, index) = w.finish();
    let segments = index
        .entries()
        .iter()
        .map(|e| (e.offset as usize, (e.offset + e.part_len) as usize))
        .collect();
    MofBytes {
        data: data.to_vec(),
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(w: Workload) -> Shape {
        Shape {
            records_per_mof: 500,
            ..w.shape()
        }
    }

    fn fingerprints(shape: &Shape, seed: u64) -> Vec<Fingerprint> {
        let part = shape.partitioner();
        let mut exp = Expected::new(shape.reducers);
        for mof in 0..shape.mofs() as u64 {
            exp.add(&gen_mof_records(shape, seed, mof), part.as_ref());
        }
        exp.all()
    }

    #[test]
    fn same_seed_same_fingerprints_other_seed_other_fingerprints() {
        for w in [Workload::Paper, Workload::RawSkew, Workload::PushSpill] {
            let shape = small(w);
            let a = fingerprints(&shape, 7);
            assert_eq!(a, fingerprints(&shape, 7), "{}", w.name());
            let b = fingerprints(&shape, 8);
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.hash != y.hash),
                "{}: the seed must reach the generator",
                w.name()
            );
        }
    }

    #[test]
    fn record_shapes() {
        let tera = gen_mof_records(&small(Workload::Paper), 1, 0);
        assert!(tera.iter().all(|(k, v)| k.len() == 10 && v.len() == 90));
        let kib = gen_mof_records(&small(Workload::RawSkew), 1, 0);
        assert!(kib.iter().all(|(k, v)| k.len() + v.len() == 1024));
    }

    #[test]
    fn zipf_partitions_are_skewed_and_uniform_ones_are_not() {
        let count = |w: Workload| {
            let shape = small(w);
            let fps = fingerprints(&shape, 3);
            let max = fps.iter().map(|f| f.records).max().unwrap();
            let min = fps.iter().map(|f| f.records).min().unwrap();
            (max, min)
        };
        let (zmax, zmin) = count(Workload::RawSkew);
        assert!(zmax > 8 * zmin, "zipf max {zmax} min {zmin}");
        let (umax, umin) = count(Workload::Paper);
        assert!(umax < 2 * umin, "uniform max {umax} min {umin}");
    }

    #[test]
    fn encoded_segments_hold_each_reducers_sorted_records() {
        let shape = small(Workload::PushSpill);
        let part = shape.partitioner();
        let records = gen_mof_records(&shape, 5, 0);
        let mut exp = Expected::new(shape.reducers);
        exp.add(&records, part.as_ref());
        let mof = encode_mof(records, part.as_ref());
        for r in 0..shape.reducers {
            let fp = crate::fingerprint::fingerprint_of(
                jbs_mapred::mof::SegmentReader::new(mof.segment(r)).map(|x| x.unwrap()),
            );
            assert_eq!(fp, exp.all()[r]);
        }
    }
}
