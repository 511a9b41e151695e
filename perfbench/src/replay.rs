//! Layer replays: each layer's public functions run again, alone on one
//! thread, over the bytes a traced run moved. The wall time of a
//! single-threaded replay is that layer's CPU cost for the run.

use crate::cluster::Cluster;
use crate::fingerprint::fingerprint_of;
use crate::workload::{Workload, CHUNK};
use jbs_mapred::levitate::{SliceStream, StreamingMerge};
use jbs_transport::wire::Status;
use jbs_transport::{FetchRequest, FetchResponse, MofStore};
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Seconds of single-threaded work per layer, over one traced run.
#[derive(Debug, Default)]
pub struct LayerCost {
    /// `crc32c` over every chunk, twice (seal at the supplier, verify
    /// at the client).
    pub checksum_s: f64,
    /// Bytes one CRC pass covered.
    pub crc_bytes: u64,
    /// Request encode/decode and response frame write/read per chunk.
    pub wire_s: f64,
    /// `MofStore::read_segment_range` over the chunk sequence.
    pub store_read_s: f64,
    /// `HybridStore::read_segment_range` over the chunk sequence.
    pub hybrid_read_s: f64,
    /// `StreamingMerge` of each reducer's segments.
    pub merge_s: f64,
    /// Records the merge replay produced.
    pub merge_records: u64,
    /// Merge-replay outputs that missed their fingerprint.
    pub mismatches: Vec<String>,
}

/// Where a supplier's segment bytes are read from.
enum Source<'a> {
    Mof(MofStore),
    Hybrid(&'a jbs_store_hybrid::HybridStore),
}

impl Source<'_> {
    fn read(&mut self, mof: u64, r: u32, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let got = match self {
            Source::Mof(store) => store.read_segment_range(mof, r, offset, len)?,
            Source::Hybrid(store) => store.read_segment_range(mof, r, offset, len)?,
        };
        got.ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("segment {mof}/{r}")))
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Replay every layer over the segments of each of `waves` in turn (the
/// MOF workloads store only wave 0).
pub fn replay(cl: &Cluster, waves: &[u64]) -> io::Result<LayerCost> {
    let mut sources: Vec<Source> = if cl.workload == Workload::PushSpill {
        cl.hybrids.iter().map(|h| Source::Hybrid(h)).collect()
    } else {
        cl.dirs
            .iter()
            .map(|d| MofStore::at(d).map(Source::Mof))
            .collect::<io::Result<_>>()?
    };
    let mut cost = LayerCost::default();
    let mut sink: Vec<u8> = Vec::with_capacity(2 * CHUNK);
    let mut frame_id = 0u64;
    for &wave in waves {
        for r in 0..cl.shape.reducers {
            let mut segments = Vec::new();
            for i in 0..cl.shape.mofs() {
                let mof = cl.mof_id(wave, i);
                let src = &mut sources[i / cl.shape.mofs_per_supplier];
                let seg = src.read(mof, r as u32, 0, 0)?;
                let len = seg.len() as u64;

                // Store: the chunk-sized reads that served the run.
                let t = Instant::now();
                let mut offset = 0;
                while offset < len {
                    black_box(src.read(mof, r as u32, offset, CHUNK as u64)?);
                    offset += CHUNK as u64;
                }
                match src {
                    Source::Mof(_) => cost.store_read_s += secs(t),
                    Source::Hybrid(_) => cost.hybrid_read_s += secs(t),
                }

                // Checksum: seal and verify of every chunk.
                let t = Instant::now();
                let crcs: Vec<u32> = seg
                    .chunks(CHUNK)
                    .map(|c| {
                        black_box(jbs_checksum::crc32c(black_box(c)));
                        jbs_checksum::crc32c(black_box(c))
                    })
                    .collect();
                cost.checksum_s += secs(t);
                cost.crc_bytes += len;

                // Wire: one v3 request and one checksummed response frame
                // per chunk. The CRC is already counted above, so the
                // frame carries it precomputed.
                let payloads: Vec<Vec<u8>> = seg.chunks(CHUNK).map(<[u8]>::to_vec).collect();
                let t = Instant::now();
                for (k, (payload, crc)) in payloads.into_iter().zip(crcs).enumerate() {
                    frame_id += 1;
                    let req = FetchRequest {
                        id: frame_id,
                        mof,
                        reducer: r as u32,
                        offset: (k * CHUNK) as u64,
                        len: CHUNK as u64,
                        flags: 0,
                    };
                    black_box(FetchRequest::decode(&black_box(req.encode_v3()))?);
                    let resp = FetchResponse {
                        status: Status::OkCrc,
                        id: frame_id,
                        payload,
                        crc,
                        seg_len: len,
                        retry_after_ms: 0,
                    };
                    sink.clear();
                    resp.write_vectored_to(&mut sink)?;
                    black_box(FetchResponse::read_from(&mut sink.as_slice())?);
                }
                cost.wire_s += secs(t);
                segments.push(seg);
            }

            // Merge: the levitated merge's algorithm over in-memory
            // streams chunked like transport buffers.
            let t = Instant::now();
            let streams = segments
                .iter()
                .map(|s| SliceStream::chunked(s, CHUNK))
                .collect();
            let merged = StreamingMerge::new(streams).collect_all()?;
            cost.merge_s += secs(t);
            cost.merge_records += merged.len() as u64;
            let got = fingerprint_of(merged.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
            let want = cl.expected[cl.variant(wave)][r];
            if got != want {
                cost.mismatches.push(format!(
                    "merge replay, wave {wave} reducer {r}: got {got:?}, expected {want:?}"
                ));
            }
        }
    }
    Ok(cost)
}
