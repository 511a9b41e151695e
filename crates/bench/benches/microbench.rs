//! Criterion micro-benchmarks for the core data structures: the pieces on
//! the simulator's hot path (event queue, LRU, queueing resources) and the
//! real dataplane's hot path (MOF encode/decode, k-way merge, CRC32C).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use jbs_des::{DetRng, EventQueue, LruCache, SimTime};
use jbs_des::server::FifoServer;
use jbs_disk::PageCache;
use jbs_jvm::{GcModel, GcParams};
use jbs_mapred::merge::{merge_sorted_runs, sort_run, Record};
use jbs_mapred::mof::{MofWriter, SegmentReader};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_10k", |b| {
        let mut rng = DetRng::new(1);
        let times: Vec<u64> = (0..10_000).map(|_| rng.uniform_u64(0, 1 << 30)).collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            for &t in &times {
                q.push(SimTime::from_nanos(t), t);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
    g.finish();
}

fn bench_lru(c: &mut Criterion) {
    let mut g = c.benchmark_group("lru_cache");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("mixed_ops_10k", |b| {
        let mut rng = DetRng::new(2);
        let keys: Vec<u64> = (0..10_000).map(|_| rng.uniform_u64(0, 2048)).collect();
        b.iter(|| {
            let mut lru = LruCache::new(512);
            let mut hits = 0u64;
            for &k in &keys {
                if lru.touch(&k) {
                    hits += 1;
                } else {
                    lru.insert(k, k);
                }
            }
            hits
        })
    });
    g.finish();
}

fn bench_fifo_server(c: &mut Criterion) {
    let mut g = c.benchmark_group("fifo_server");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("serve_100k", |b| {
        b.iter(|| {
            let mut srv = FifoServer::new();
            let mut t = SimTime::ZERO;
            for i in 0..100_000u64 {
                t = srv.serve(t, SimTime::from_nanos(i % 777)).end;
            }
            t
        })
    });
    g.finish();
}

fn bench_page_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_cache");
    g.throughput(Throughput::Bytes(10_000 * (128 << 10)));
    g.bench_function("stream_reads", |b| {
        b.iter(|| {
            let mut cache = PageCache::new(64 << 20);
            let mut miss = 0u64;
            for i in 0..10_000u64 {
                let file = i % 8;
                let off = (i / 8) * (128 << 10);
                let out = cache.read(file, off, 128 << 10);
                miss += out.miss_bytes();
                cache.fill(file, off, 128 << 10);
            }
            miss
        })
    });
    g.finish();
}

fn bench_gc_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("gc_model");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("allocate_100k", |b| {
        b.iter(|| {
            let mut gc = GcModel::new(GcParams::task_jvm_1g());
            let mut pause = SimTime::ZERO;
            for _ in 0..100_000 {
                pause += gc.allocate(64 << 10);
            }
            pause
        })
    });
    g.finish();
}

fn records(n: usize, seed: u64) -> Vec<Record> {
    let mut rng = DetRng::new(seed);
    (0..n)
        .map(|_| {
            let mut k = vec![0u8; 10];
            rng.fill_bytes(&mut k);
            (k, vec![0u8; 90])
        })
        .collect()
}

fn bench_mof_format(c: &mut Criterion) {
    let recs = records(10_000, 3);
    let mut g = c.benchmark_group("mof_format");
    g.throughput(Throughput::Bytes(10_000 * 100));
    g.bench_function("write_10k_records", |b| {
        b.iter_batched(
            || recs.clone(),
            |recs| {
                let mut w = MofWriter::new();
                w.begin_segment();
                for (k, v) in &recs {
                    w.append(k, v);
                }
                w.end_segment();
                w.finish()
            },
            BatchSize::SmallInput,
        )
    });
    let (data, index) = {
        let mut w = MofWriter::new();
        w.begin_segment();
        for (k, v) in &recs {
            w.append(k, v);
        }
        w.end_segment();
        w.finish()
    };
    let e = index.entry(0).unwrap();
    g.bench_function("read_10k_records", |b| {
        b.iter(|| {
            let seg = &data[e.offset as usize..(e.offset + e.part_len) as usize];
            SegmentReader::new(seg).count()
        })
    });
    g.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("kway_merge");
    let runs: Vec<Vec<Record>> = (0..16)
        .map(|i| {
            let mut r = records(2_000, 100 + i);
            sort_run(&mut r);
            r
        })
        .collect();
    g.throughput(Throughput::Elements(16 * 2_000));
    g.bench_function("merge_16x2k", |b| {
        b.iter_batched(
            || runs.clone(),
            merge_sorted_runs,
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The integrity checksum at a small frame, a page, and the default
/// 128 KiB chunk, through the public entry point (hardware kernel where
/// the CPU has SSE4.2, slice-by-8 otherwise).
fn bench_crc32c(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32c");
    let mut rng = DetRng::new(5);
    let data: Vec<u8> = (0..128 << 10)
        .map(|_| rng.uniform_u64(0, 256) as u8)
        .collect();
    for (id, len) in [("64B", 64usize), ("4KiB", 4 << 10), ("128KiB", 128 << 10)] {
        g.throughput(Throughput::Bytes(len as u64));
        let bytes = &data[..len];
        g.bench_function(id, |b| b.iter(|| jbs_checksum::crc32c(black_box(bytes))));
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1200))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_event_queue, bench_lru, bench_fifo_server, bench_page_cache,
              bench_gc_model, bench_mof_format, bench_merge, bench_crc32c
}
criterion_main!(benches);
