//! On-disk MOF store: real files in the real MOF/index formats.
//!
//! Like the paper's MOFSupplier IndexCache, every index is parsed once —
//! when the store opens the directory or writes the MOF — and each data
//! file is opened once. From then on the store only reads: `index` is a
//! map lookup and `read_segment_range` a positioned read
//! (`pread(2)`) on the shared handle, so a published store needs no
//! lock and concurrent readers never queue on one another.

use jbs_mapred::merge::{sort_run, Record};
use jbs_mapred::mof::{MofIndex, MofWriter};
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static STORE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One published MOF: its parsed index and its open data file.
struct Mof {
    index: MofIndex,
    data: File,
}

/// A directory of MOFs, as one node's TaskTracker local storage.
pub struct MofStore {
    dir: PathBuf,
    mofs: HashMap<u64, Mof>,
    owns_dir: bool,
}

impl MofStore {
    /// Create a store in a fresh temporary directory.
    pub fn temp() -> io::Result<Self> {
        let dir = std::env::temp_dir().join(format!(
            "jbs-mofstore-{}-{}",
            std::process::id(),
            STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        Self::open(dir, true)
    }

    /// Open (or create) a store in an existing directory, loading every
    /// MOF already written there.
    pub fn at(dir: &Path) -> io::Result<Self> {
        Self::open(dir.to_path_buf(), false)
    }

    fn open(dir: PathBuf, owns_dir: bool) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        let mut store = MofStore {
            dir,
            mofs: HashMap::new(),
            owns_dir,
        };
        for entry in fs::read_dir(&store.dir)? {
            // `file-<mof>.out.index` names the index of data file `file-<mof>.out`.
            let index_path = entry?.path();
            let Some(mof) = index_path
                .file_name()
                .and_then(|n| n.to_str()?.strip_prefix("file-")?.strip_suffix(".out.index"))
                .and_then(|id| id.parse::<u64>().ok())
            else {
                continue;
            };
            let index = MofIndex::from_bytes(&fs::read(&index_path)?)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let data = File::open(index_path.with_extension(""))?;
            store.mofs.insert(mof, Mof { index, data });
        }
        Ok(store)
    }

    fn data_path(&self, mof: u64) -> PathBuf {
        self.dir.join(format!("file-{mof}.out"))
    }

    fn index_path(&self, mof: u64) -> PathBuf {
        self.dir.join(format!("file-{mof}.out.index"))
    }

    /// Write a MOF from records, partitioning each record with `partition`
    /// into `partitions` sorted segments (exactly what a MapTask's
    /// sort/spill produces). Records within each segment are key-sorted.
    pub fn write_mof<P>(
        &mut self,
        mof: u64,
        records: Vec<Record>,
        partitions: usize,
        partition: P,
    ) -> io::Result<()>
    where
        P: Fn(&[u8]) -> usize,
    {
        let mut buckets: Vec<Vec<Record>> = vec![Vec::new(); partitions];
        for (k, v) in records {
            let p = partition(&k);
            let bucket = buckets.get_mut(p).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("partition {p} out of range (have {partitions})"),
                )
            })?;
            bucket.push((k, v));
        }
        let mut writer = MofWriter::new();
        for bucket in &mut buckets {
            sort_run(bucket);
            writer.begin_segment();
            for (k, v) in bucket.iter() {
                writer.append(k, v);
            }
            writer.end_segment();
        }
        let (bytes, index) = writer.finish();
        // One handle both writes the data and serves every later read.
        let mut data = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.data_path(mof))?;
        data.write_all(&bytes)?;
        fs::write(self.index_path(mof), index.to_bytes())?;
        self.mofs.insert(mof, Mof { index, data });
        Ok(())
    }

    /// The parsed index of `mof` (`NotFound` for an unknown MOF).
    pub fn index(&self, mof: u64) -> io::Result<&MofIndex> {
        self.mofs
            .get(&mof)
            .map(|m| &m.index)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("index for mof {mof}")))
    }

    /// Read `[offset, offset+len)` of reducer `reducer`'s segment in `mof`
    /// (`len == 0` reads to the segment end). Returns `None` for an
    /// unknown MOF/reducer.
    pub fn read_segment_range(
        &self,
        mof: u64,
        reducer: u32,
        offset: u64,
        len: u64,
    ) -> io::Result<Option<Vec<u8>>> {
        let Some((m, entry)) = self
            .mofs
            .get(&mof)
            .and_then(|m| Some((m, m.index.entry(reducer as usize)?)))
        else {
            return Ok(None);
        };
        if offset >= entry.part_len {
            return Ok(Some(Vec::new()));
        }
        let want = if len == 0 {
            entry.part_len - offset
        } else {
            len.min(entry.part_len - offset)
        };
        let mut buf = vec![0u8; want as usize];
        m.data.read_exact_at(&mut buf, entry.offset + offset)?;
        Ok(Some(buf))
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for MofStore {
    fn drop(&mut self) {
        if self.owns_dir {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbs_mapred::mof::SegmentReader;

    fn rec(k: &str, v: &str) -> Record {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn write_and_read_back_segments() {
        let mut store = MofStore::temp().unwrap();
        store
            .write_mof(
                0,
                vec![rec("b", "2"), rec("a", "1"), rec("c", "3")],
                2,
                |k| usize::from(k[0] % 2 == 0), // 'b' -> 1, 'a','c' -> 0
            )
            .unwrap();
        let seg0 = store.read_segment_range(0, 0, 0, 0).unwrap().unwrap();
        let recs: Vec<_> = SegmentReader::new(&seg0).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, b"a"); // sorted within the segment
        assert_eq!(recs[1].0, b"c");
        let seg1 = store.read_segment_range(0, 1, 0, 0).unwrap().unwrap();
        assert_eq!(SegmentReader::new(&seg1).count(), 1);
    }

    #[test]
    fn range_reads_are_exact_slices() {
        let mut store = MofStore::temp().unwrap();
        store
            .write_mof(1, vec![rec("key", "0123456789")], 1, |_| 0)
            .unwrap();
        let whole = store.read_segment_range(1, 0, 0, 0).unwrap().unwrap();
        let first = store.read_segment_range(1, 0, 0, 5).unwrap().unwrap();
        let rest = store.read_segment_range(1, 0, 5, 0).unwrap().unwrap();
        assert_eq!(first.len(), 5);
        assert_eq!([first.as_slice(), rest.as_slice()].concat(), whole);
        // Past the end: empty.
        let past = store
            .read_segment_range(1, 0, whole.len() as u64 + 10, 0)
            .unwrap()
            .unwrap();
        assert!(past.is_empty());
    }

    #[test]
    fn unknown_mof_or_reducer_is_none() {
        let mut store = MofStore::temp().unwrap();
        store.write_mof(5, vec![rec("k", "v")], 1, |_| 0).unwrap();
        assert!(store.read_segment_range(99, 0, 0, 0).unwrap().is_none());
        assert!(store.read_segment_range(5, 7, 0, 0).unwrap().is_none());
    }

    #[test]
    fn index_survives_reopen() {
        let mut store = MofStore::temp().unwrap();
        store.write_mof(3, vec![rec("k", "v")], 2, |_| 1).unwrap();
        let dir = store.dir().to_path_buf();
        store.owns_dir = false; // keep the files
        drop(store);
        let reopened = MofStore::at(&dir).unwrap();
        let seg = reopened.read_segment_range(3, 1, 0, 0).unwrap().unwrap();
        assert!(SegmentReader::new(&seg).count() == 1);
        std::fs::remove_dir_all(dir).unwrap();

        let mut writer = MofStore::temp().unwrap();
        let mut expected = Vec::new();
        for mof in 0..4u64 {
            let recs = (0..50).map(|i| rec(&format!("k{mof}-{i:03}"), "v")).collect();
            writer
                .write_mof(mof, recs, 3, |k| usize::from(k[k.len() - 1]) % 3)
                .unwrap();
            for r in 0..3 {
                expected.push((mof, r, writer.read_segment_range(mof, r, 0, 0).unwrap()));
            }
        }
        // A second instance over the same directory, with no write of
        // its own, serves every MOF the first one wrote (a restarted
        // supplier reopening its node's local storage).
        let reopened = MofStore::at(writer.dir()).unwrap();
        for (mof, r, bytes) in &expected {
            assert!(bytes.is_some());
            assert_eq!(&reopened.read_segment_range(*mof, *r, 0, 0).unwrap(), bytes);
            assert_eq!(
                reopened.index(*mof).unwrap().entry(*r as usize),
                writer.index(*mof).unwrap().entry(*r as usize)
            );
        }
        assert!(reopened.read_segment_range(4, 0, 0, 0).unwrap().is_none());
    }

    #[test]
    fn concurrent_readers_share_one_store() {
        let mut store = MofStore::temp().unwrap();
        let recs = (0..4000)
            .map(|i| rec(&format!("k{i:05}"), &"x".repeat(i % 97)))
            .collect();
        store.write_mof(0, recs, 2, |k| usize::from(k[5] % 2)).unwrap();
        let whole: Vec<Vec<u8>> = (0..2)
            .map(|r| store.read_segment_range(0, r, 0, 0).unwrap().unwrap())
            .collect();
        let store = &store;
        let whole = &whole;
        // 8 threads read interleaved 1 KiB ranges through one `&MofStore`:
        // thread t takes chunks t, t+8, t+16, … of both segments.
        let chunk = 1024u64;
        let parts: Vec<Vec<(u32, u64, Vec<u8>)>> = std::thread::scope(|s| {
            let joins: Vec<_> = (0..8u64)
                .map(|t| {
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for r in 0..2u32 {
                            let len = whole[r as usize].len() as u64;
                            let mut off = t * chunk;
                            while off < len {
                                let bytes = store.read_segment_range(0, r, off, chunk).unwrap();
                                got.push((r, off, bytes.unwrap()));
                                off += 8 * chunk;
                            }
                        }
                        got
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let mut rebuilt = vec![vec![0u8; whole[0].len()], vec![0u8; whole[1].len()]];
        let mut covered = 0;
        for (r, off, bytes) in parts.into_iter().flatten() {
            let off = off as usize;
            rebuilt[r as usize][off..off + bytes.len()].copy_from_slice(&bytes);
            covered += bytes.len();
        }
        assert_eq!(covered, whole[0].len() + whole[1].len());
        assert_eq!(&rebuilt, whole, "concurrent reads match a single-thread read");
    }

    #[test]
    fn corrupt_index_fails_open() {
        let mut store = MofStore::temp().unwrap();
        store.write_mof(2, vec![rec("k", "v")], 1, |_| 0).unwrap();
        std::fs::write(store.index_path(2), b"not an index").unwrap();
        let err = MofStore::at(store.dir()).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn temp_dir_cleanup_on_drop() {
        let store = MofStore::temp().unwrap();
        let dir = store.dir().to_path_buf();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists());
    }
}
