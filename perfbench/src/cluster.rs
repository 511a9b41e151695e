//! Set-up and tear-down of one in-process shuffle: two suppliers over
//! loopback TCP and one `NetMergerClient`, all at the program's
//! defaults except the setting that defines the workload.

use crate::fingerprint::Fingerprint;
use crate::workload::{
    encode_mof, gen_mof_records, Expected, MofBytes, Shape, Workload, CHUNK, SUPPLIERS,
};
use jbs_obs::{Entity, Trace};
use jbs_store_hybrid::{HybridConfig, HybridStore};
use jbs_transport::client::SegmentRef;
use jbs_transport::{
    ClientConfig, IoScheduler, MofStore, MofSupplierServer, NetMergerClient, ServerOptions,
    SupplierStatsSnapshot,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Distinct map-wave payloads `push-spill` cycles through.
pub const WAVE_VARIANTS: usize = 2;

/// One running shuffle.
pub struct Cluster {
    /// The workload it serves.
    pub workload: Workload,
    /// Its data shape.
    pub shape: Shape,
    /// The suppliers, in supplier order.
    pub servers: Vec<MofSupplierServer>,
    /// The reducer-side client shared by every driver thread.
    pub client: NetMergerClient,
    /// The supplier-attached hybrid stores (`push-spill` only).
    pub hybrids: Vec<Arc<HybridStore>>,
    /// Each supplier's MOF directory.
    pub dirs: Vec<PathBuf>,
    /// Expected fingerprints, `[variant][reducer]`. The MOF workloads
    /// have one variant; `push-spill` wave `w` uses variant
    /// `w % WAVE_VARIANTS`.
    pub expected: Vec<Vec<Fingerprint>>,
    /// Segment payload bytes per reducer, `[variant][reducer]`.
    pub reducer_bytes: Vec<Vec<u64>>,
    /// `push-spill` wave payloads, `[variant][supplier * mofs_per_supplier + m]`.
    pub waves: Vec<Vec<MofBytes>>,
    /// The trace every component records to (disabled for timed runs).
    pub trace: Trace,
    /// Where the suppliers keep their files.
    root: PathBuf,
    /// `push-spill`: how many times the suppliers were started; each
    /// start gets a fresh directory.
    starts: u32,
    /// `push-spill`: the current stores have been appended to.
    used: bool,
}

impl Cluster {
    /// Generate the inputs from `seed`, write them, and start the
    /// suppliers under `root`. Returns the cluster and the seconds the
    /// whole set-up took.
    pub fn setup(
        workload: Workload,
        seed: u64,
        root: &Path,
        trace: Trace,
    ) -> io::Result<(Self, f64)> {
        let start = Instant::now();
        let shape = workload.shape();
        let part = shape.partitioner();
        let client = new_client(&trace);
        let mut cl = Cluster {
            workload,
            shape,
            servers: Vec::new(),
            client,
            hybrids: Vec::new(),
            dirs: Vec::new(),
            expected: Vec::new(),
            reducer_bytes: Vec::new(),
            waves: Vec::new(),
            trace,
            root: root.to_path_buf(),
            starts: 0,
            used: false,
        };
        if workload == Workload::PushSpill {
            for variant in 0..WAVE_VARIANTS {
                let mut exp = Expected::new(shape.reducers);
                let mut mofs = Vec::new();
                for i in 0..shape.mofs() {
                    let records =
                        gen_mof_records(&shape, seed, (variant * shape.mofs() + i) as u64);
                    exp.add(&records, part.as_ref());
                    mofs.push(encode_mof(records, part.as_ref()));
                }
                cl.reducer_bytes.push(
                    (0..shape.reducers)
                        .map(|r| mofs.iter().map(|m| m.segment(r).len() as u64).sum())
                        .collect(),
                );
                cl.expected.push(exp.all());
                cl.waves.push(mofs);
            }
            cl.start_push_suppliers()?;
            return Ok((cl, start.elapsed().as_secs_f64()));
        }

        let mut exp = Expected::new(shape.reducers);
        let mut bytes = vec![0u64; shape.reducers];
        for s in 0..SUPPLIERS {
            let dir = root.join(format!("supplier-{s}"));
            let mut store = MofStore::at(&dir)?;
            for m in 0..shape.mofs_per_supplier {
                let mof = (s * shape.mofs_per_supplier + m) as u64;
                let records = gen_mof_records(&shape, seed, mof);
                exp.add(&records, part.as_ref());
                let _span = cl.trace.span("bench.write_mof", Entity::mof(mof), mof, 0);
                store.write_mof(mof, records, shape.reducers, |k| part.partition(k))?;
            }
            for m in 0..shape.mofs_per_supplier {
                let index = store.index((s * shape.mofs_per_supplier + m) as u64)?;
                for (r, b) in bytes.iter_mut().enumerate() {
                    *b += index.entry(r).map_or(0, |e| e.part_len);
                }
            }
            let options = ServerOptions {
                synthetic_disk_delay: shape.disk_delay,
                trace: cl.trace.clone(),
                ..ServerOptions::default()
            };
            cl.servers
                .push(MofSupplierServer::start_with_options(store, options)?);
            cl.dirs.push(dir);
        }
        cl.expected.push(exp.all());
        cl.reducer_bytes.push(bytes);
        Ok((cl, start.elapsed().as_secs_f64()))
    }

    /// `push-spill`: start both suppliers over fresh, empty hybrid stores
    /// in a fresh directory.
    fn start_push_suppliers(&mut self) -> io::Result<()> {
        let defaults = ServerOptions::default();
        let root = self.root.join(format!("start-{}", self.starts));
        self.starts += 1;
        for s in 0..SUPPLIERS {
            // One scheduler arbitrates the supplier's staging reads
            // against the store's spill appends.
            let sched = Arc::new(IoScheduler::with_trace(
                defaults.io_read_permits,
                defaults.io_append_permits,
                self.trace.clone(),
            ));
            let hybrid = HybridStore::new(HybridConfig {
                durable_spill: true,
                data_dir: Some(root.join(format!("hybrid-{s}/data"))),
                remote_dir: Some(root.join(format!("hybrid-{s}/remote"))),
                spill_gate: Some(sched.clone()),
                trace: self.trace.clone(),
                ..HybridConfig::default()
            })?;
            // The MOF store stays empty: the hybrid store answers.
            let dir = root.join(format!("supplier-{s}"));
            let options = ServerOptions {
                trace: self.trace.clone(),
                hybrid: Some(Arc::clone(&hybrid)),
                iosched: Some(sched),
                ..ServerOptions::default()
            };
            self.servers.push(MofSupplierServer::start_with_options(
                MofStore::at(&dir)?,
                options,
            )?);
            self.hybrids.push(hybrid);
            self.dirs.push(dir);
        }
        Ok(())
    }

    /// `push-spill`: make sure the suppliers serve empty stores. If the
    /// current ones were appended to, stop them, delete their files, and
    /// start fresh ones with a new client, so every job begins empty and
    /// the disk holds one job's spill. A no-op on the MOF workloads.
    pub fn fresh_push_stores(&mut self) -> io::Result<()> {
        if !self.used {
            return Ok(());
        }
        self.used = false;
        self.client = new_client(&self.trace);
        for s in self.servers.drain(..) {
            s.shutdown();
        }
        for h in self.hybrids.drain(..) {
            h.close();
        }
        self.dirs.clear();
        std::fs::remove_dir_all(self.root.join(format!("start-{}", self.starts - 1)))?;
        self.start_push_suppliers()
    }

    /// `push-spill`: the current stores now hold appended waves.
    pub fn push_stores_used(&mut self) {
        self.used = true;
    }

    /// MOF id of map output `i` (`supplier * mofs_per_supplier + m`) in
    /// map wave `wave` (always 0 on the MOF workloads).
    pub fn mof_id(&self, wave: u64, i: usize) -> u64 {
        wave * self.shape.mofs() as u64 + i as u64
    }

    /// Reducer `r`'s segments in wave `wave`, one per map output.
    pub fn segments(&self, wave: u64, r: usize) -> Vec<SegmentRef> {
        (0..self.shape.mofs())
            .map(|i| SegmentRef {
                addr: self.servers[i / self.shape.mofs_per_supplier].addr(),
                mof: self.mof_id(wave, i),
                reducer: r as u32,
            })
            .collect()
    }

    /// Fingerprint variant of wave `wave`.
    pub fn variant(&self, wave: u64) -> usize {
        (wave % self.expected.len() as u64) as usize
    }

    /// Append map wave `wave` into the suppliers' hybrid stores in
    /// transport-buffer chunks (`push-spill`).
    pub fn append_wave(&self, wave: u64) -> io::Result<()> {
        let mofs = &self.waves[self.variant(wave)];
        for (i, mof) in mofs.iter().enumerate() {
            let store = &self.hybrids[i / self.shape.mofs_per_supplier];
            let id = self.mof_id(wave, i);
            for r in 0..self.shape.reducers {
                for chunk in mof.segment(r).chunks(CHUNK) {
                    let _span = self
                        .trace
                        .span("bench.append", Entity::mof(id), id, r as u64);
                    store.append(id, r as u32, chunk)?;
                }
            }
        }
        Ok(())
    }

    /// Every supplier's counters.
    pub fn server_stats(&self) -> Vec<SupplierStatsSnapshot> {
        self.servers
            .iter()
            .map(MofSupplierServer::stats_snapshot)
            .collect()
    }

    /// Stop the client, then the suppliers, then close the stores. The
    /// caller removes the files.
    pub fn stop(self) {
        drop(self.client);
        for s in self.servers {
            s.shutdown();
        }
        for h in &self.hybrids {
            h.close();
        }
    }
}

fn new_client(trace: &Trace) -> NetMergerClient {
    NetMergerClient::with_client_config(ClientConfig {
        trace: trace.clone(),
        ..ClientConfig::default()
    })
}
