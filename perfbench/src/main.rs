//! `perfbench`: the repository's end-to-end shuffle benchmark.
//!
//! ```text
//! perfbench --workload <paper|raw-skew|push-spill> --seed <n> --seconds <s> --trace <0|1>
//!           [--work-dir <dir>]
//! ```
//!
//! One run, in one process: set up the workload five times (the median
//! is `setup_s`; the last set-up is kept), shuffle one untimed warm-up
//! round, then drive reducers in a closed loop for `--seconds` with
//! tracing off and report the end-to-end metrics. With `--trace 1` it
//! then sets the workload up once more with a recording trace, runs a
//! few traced rounds, replays each layer over those rounds' bytes, and
//! reports the per-layer split instead. Every reducer's output is checked
//! against a fingerprint taken when its records were generated; any
//! mismatch makes the command exit non-zero. The last line of standard
//! output is one JSON object; the lines before it are the human report.
//! See `perfbench/README.md`.

mod cluster;
mod drive;
mod fingerprint;
mod procfs;
mod replay;
mod stats;
mod workload;

use cluster::Cluster;
use drive::{drive_mof, drive_push, Driven, Until, JOB_WAVES};
use jbs_obs::Trace;
use jbs_transport::{ClientConfig, ServerOptions};
use procfs::PeakRss;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Workload, CHUNK, SUPPLIERS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Rounds in the traced run, each a second or more of traffic: passes on
/// the MOF workloads, one job of map waves on `push-spill`.
fn traced_rounds(w: Workload) -> u64 {
    match w {
        Workload::Paper => 1,
        Workload::RawSkew => 3,
        Workload::PushSpill => 1,
    }
}

/// Drive `cl`'s workload until `until`.
fn drive(cl: &mut Cluster, until: Until) -> std::io::Result<Driven> {
    match cl.workload {
        Workload::PushSpill => drive_push(cl, until),
        _ => Ok(drive_mof(cl, until)),
    }
}

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <paper|raw-skew|push-spill> --seed <n> \
                     --seconds <s> --trace <0|1> [--work-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

/// Removes the run's working directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The commit of a git checkout at `root`, when there is one.
fn commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(root.join(".git").join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

/// One metric for the JSON line.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: Some(value),
        unit,
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Unmeasurable values (a refused peak-RSS reset) are null,
            // never a stale or made-up number.
            let v = m
                .value
                .filter(|v| v.is_finite())
                .map_or("null".to_string(), |v| format!("{v}"));
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One run; `Ok(false)` when some output was wrong.
fn run(args: &Args) -> std::io::Result<bool> {
    let w = args.workload;
    let shape = w.shape();
    let work = WorkDir(
        args.work_dir
            .join(format!("{}-{}", w.name(), std::process::id())),
    );
    std::fs::create_dir_all(&work.0)?;
    let server = ServerOptions::default();
    let client = ClientConfig::default();

    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env: nproc={} kernel={} cpu=\"{}\" tmp_fs={} commit={} traffic=loopback-only (127.0.0.1, in one process)",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        procfs::kernel(),
        procfs::cpu_model(),
        procfs::fs_type(&work.0),
        commit(Path::new(".")).unwrap_or_else(|| "unavailable".into()),
    );
    println!(
        "config: suppliers={SUPPLIERS} mofs={} reducers={} records_per_mof={} record={:?} \
         partition={:?} disk_delay_ms={} | defaults: serve={} buffer_kib={} prefetch_batch={} \
         window={} crc={}",
        shape.mofs(),
        shape.reducers,
        shape.records_per_mof,
        shape.record,
        shape.partition,
        shape.disk_delay.as_millis(),
        if server.threaded {
            "threaded"
        } else {
            "reactor"
        },
        server.buffer_bytes >> 10,
        server.prefetch_batch,
        client.window,
        if client.checksum { "v3-on" } else { "off" },
    );

    // Set-up, several times; the last cluster is kept. Each starts from
    // a trimmed heap, as the first one in a fresh process does.
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        procfs::release_free_heap();
        let root = work.0.join(format!("setup-{i}"));
        let (cl, secs) = Cluster::setup(w, args.seed, &root, Trace::disabled())?;
        setups.push(secs);
        if i + 1 < SETUPS {
            // Its files go with the work directory: deleting them now
            // would put the filesystem's cleanup inside the next set-up.
            cl.stop();
        } else {
            kept = Some(cl);
        }
    }
    let mut cl = kept.expect("at least one set-up");
    let digest = cl
        .expected
        .iter()
        .flatten()
        .fold(0u64, |h, f| workload::mix(h ^ f.hash, f.records));
    println!(
        "inputs: fingerprint_digest={digest:#018x} reducers={} payload_mib_per_{}={:.3}",
        shape.reducers,
        if w == Workload::PushSpill {
            "wave"
        } else {
            "pass"
        },
        cl.reducer_bytes[0].iter().sum::<u64>() as f64 / MIB
    );

    // Warm-up, then the timed region.
    procfs::release_free_heap();
    let warm = drive(&mut cl, Until::Rounds(1))?;
    let peak = PeakRss::start();
    let machine0 = procfs::machine_ticks();
    let cpu0 = procfs::process_cpu_s();
    let until = Until::Deadline(Instant::now() + Duration::from_secs(args.seconds));
    let timed = drive(&mut cl, until)?;
    let cpu_s = procfs::process_cpu_s() - cpu0;
    let peak_rss = peak.read_mib();
    let machine1 = procfs::machine_ticks();
    cl.stop();

    let mut mismatches: Vec<String> = warm
        .mismatches
        .iter()
        .chain(&timed.mismatches)
        .cloned()
        .collect();
    // Throughput and CPU per GiB are medians over the region's rounds
    // (passes, or push-spill jobs), so a burst of outside load during a
    // few rounds does not move them.
    let round_mib_s: Vec<f64> = timed
        .per_round
        .iter()
        .map(|r| r.bytes as f64 / MIB / r.wall_s)
        .collect();
    let round_cpu: Vec<f64> = timed
        .per_round
        .iter()
        .map(|r| r.cpu_s / (r.bytes as f64 / GIB))
        .collect();
    let mib_s = stats::median(&round_mib_s).unwrap_or(f64::NAN);
    let cpu_per_gib = stats::median(&round_cpu).unwrap_or(f64::NAN);
    let p50 = stats::median(&timed.reduce_ms).unwrap_or(f64::NAN);
    let n = timed.reduce_ms.len();
    let quart = |xs: &[f64]| stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
    let (q1, q3) = quart(&round_mib_s);
    println!(
        "e2e shuffle_mib_s = {mib_s:.3} MiB/s (median of {} rounds, quartiles {q1:.3} / {q3:.3}; \
         overall {:.1} MiB in {:.3} s = {:.3})",
        timed.rounds,
        timed.bytes as f64 / MIB,
        timed.wall_s,
        timed.bytes as f64 / MIB / timed.wall_s
    );
    let (q1, q3) = quart(&timed.reduce_ms);
    println!("e2e reduce_p50_ms = {p50:.3} ms (n={n} reducers; quartiles {q1:.3} / {q3:.3} ms)");
    if let Some(p) = stats::highest_supported_percentile(n) {
        let v = stats::percentile(&timed.reduce_ms, p).unwrap_or(f64::NAN);
        println!("    highest percentile with >= 10 samples beyond it: p{p} = {v:.3} ms");
    }
    let (q1, q3) = quart(&round_cpu);
    println!(
        "e2e cpu_s_per_gib = {cpu_per_gib:.4} s/GiB (median of {} rounds, quartiles {q1:.4} / {q3:.4}; \
         overall {cpu_s:.2} CPU s = {:.4})",
        timed.rounds,
        cpu_s / (timed.bytes as f64 / GIB)
    );
    match peak_rss {
        Some(v) => println!("e2e peak_rss_mib = {v:.1} MiB"),
        None => {
            println!("e2e peak_rss_mib = unavailable (clear_refs refused; no stale peak reported)")
        }
    }
    println!(
        "env: steal {:.2}% of machine CPU time during the timed region (outside load on the host)",
        100.0
            * ratio(
                (machine1.1 - machine0.1) as f64,
                (machine1.0 - machine0.0) as f64
            )
    );
    println!(
        "e2e setup_s = {:.4} s (median of {SETUPS}: {setups:.4?})",
        stats::median(&setups).unwrap_or(f64::NAN)
    );
    println!(
        "e2e failed_frac = {} ({} failed of {} reducers attempted)",
        ratio(timed.failed as f64, timed.attempted as f64),
        timed.failed,
        timed.attempted
    );

    let metrics = if args.trace {
        let (layers, bad) = traced(args, &work.0, mib_s)?;
        mismatches.extend(bad);
        layers
    } else {
        vec![
            metric("shuffle_mib_s", mib_s, "MiB/s"),
            metric("reduce_p50_ms", p50, "ms"),
            metric("cpu_s_per_gib", cpu_per_gib, "s/GiB"),
            Metric {
                name: "peak_rss_mib",
                value: peak_rss,
                unit: "MiB",
            },
            metric("setup_s", stats::median(&setups).unwrap_or(f64::NAN), "s"),
        ]
    };
    let correct = mismatches.is_empty() && timed.attempted > timed.failed;
    for m in &mismatches {
        eprintln!("MISMATCH: {m}");
    }
    println!(
        "{}",
        json_line(correct, timed.attempted.max(1), timed.failed, &metrics)
    );
    Ok(correct)
}

/// The traced run and the layer replays; returns the per-layer metrics
/// and any mismatches.
fn traced(
    args: &Args,
    work: &Path,
    untraced_mib_s: f64,
) -> std::io::Result<(Vec<Metric>, Vec<String>)> {
    let w = args.workload;
    let shape = w.shape();
    // Ring sized for the traced rounds (the warm-up round is cleared
    // before them): one `merge.pull` per record, a few dozen events per
    // transport chunk, and slack.
    let rounds = traced_rounds(w);
    let waves_per_round = if w == Workload::PushSpill {
        JOB_WAVES
    } else {
        1
    };
    let records = rounds * waves_per_round * (shape.mofs() * shape.records_per_mof) as u64;
    let record_len = match shape.record {
        workload::RecordKind::TeraSort => 108,
        workload::RecordKind::Kib => 1032,
    };
    let chunks = records * record_len / CHUNK as u64
        + rounds * waves_per_round * (shape.mofs() * shape.reducers) as u64;
    let trace = Trace::recording((records + 64 * chunks + (1 << 16)) as usize);

    let root = work.join("traced");
    let (mut cl, _) = Cluster::setup(w, args.seed, &root, trace.clone())?;
    let span_s = |q: &jbs_obs::TraceQuery, name: &str| {
        q.named(name)
            .events()
            .iter()
            .map(|e| e.duration())
            .sum::<u64>() as f64
            / 1e9
    };
    let write_mof_s = span_s(&trace.query(), "bench.write_mof");
    // A warm-up round on the fresh suppliers, as in the timed run, then
    // only the traced rounds stay in the ring. `push-spill` starts its
    // traced job on fresh stores now, so the counters below are theirs.
    let warm = drive(&mut cl, Until::Rounds(1))?;
    cl.fresh_push_stores()?;
    let hybrid_totals = |cl: &Cluster| {
        cl.hybrids
            .iter()
            .map(|h| h.stats())
            .fold([0u64; 4], |acc, s| {
                [
                    acc[0] + s.memory_hits,
                    acc[1] + s.local_hits,
                    acc[2] + s.remote_hits,
                    acc[3] + s.spill_trips,
                ]
            })
    };
    let (servers0, fetch0, hybrid0) = (
        cl.server_stats(),
        cl.client.fetch_stats(),
        hybrid_totals(&cl),
    );
    trace.clear();
    let cpu0 = procfs::process_cpu_s();
    let run = drive(&mut cl, Until::Rounds(rounds))?;
    let cpu_s = procfs::process_cpu_s() - cpu0;
    assert_eq!(
        trace.dropped(),
        0,
        "trace ring too small for the traced run"
    );
    let q = trace.query();
    let (servers, fetch, hybrid1) = (
        cl.server_stats(),
        cl.client.fetch_stats(),
        hybrid_totals(&cl),
    );
    let hybrid: Vec<u64> = hybrid1.iter().zip(hybrid0).map(|(b, a)| b - a).collect();
    // The same bytes the traced rounds moved: the one stored pass once
    // per round, or the traced job's map waves (its stores stay up).
    let waves: Vec<u64> = match w {
        Workload::PushSpill => (0..JOB_WAVES).collect(),
        _ => vec![0; rounds as usize],
    };
    let cost = replay::replay(&cl, &waves)?;
    cl.stop();
    std::fs::remove_dir_all(&root)?;

    // Counter deltas over the traced rounds, summed over suppliers.
    let sum = |f: &dyn Fn(&jbs_transport::SupplierStatsSnapshot) -> u64| {
        let total = |v: &[jbs_transport::SupplierStatsSnapshot]| v.iter().map(f).sum::<u64>();
        (total(&servers) - total(&servers0)) as f64
    };
    let requests = sum(&|s| s.requests);
    let served = sum(&|s| s.bytes);
    let segments = (waves.len() * shape.mofs() * shape.reducers) as f64;
    let traced_mib_s = run.bytes as f64 / MIB / run.wall_s;
    let replayed =
        cost.checksum_s + cost.wire_s + cost.store_read_s + cost.hybrid_read_s + cost.merge_s;
    println!(
        "traced run: {:.1} MiB in {:.3} s ({traced_mib_s:.3} MiB/s), {} events, process CPU {cpu_s:.3} s, \
         replayed layer CPU {replayed:.3} s",
        run.bytes as f64 / MIB,
        run.wall_s,
        q.len()
    );
    let metrics = vec![
        metric("checksum.cpu_s", cost.checksum_s, "s"),
        metric(
            "checksum.crc32c_gib_s",
            ratio(2.0 * cost.crc_bytes as f64 / GIB, cost.checksum_s),
            "GiB/s",
        ),
        metric("wire.cpu_s", cost.wire_s, "s"),
        metric("store.read_cpu_s", cost.store_read_s, "s"),
        metric("store.write_s", write_mof_s, "s"),
        metric("merge.cpu_s", cost.merge_s, "s"),
        metric(
            "merge.records_per_s",
            ratio(cost.merge_records as f64, cost.merge_s),
            "1/s",
        ),
        metric(
            "server.syscalls_per_seg",
            ratio(sum(&|s| s.read_syscalls + s.write_syscalls), segments),
            "count",
        ),
        metric(
            "server.copies_per_byte",
            ratio(sum(&|s| s.copied_bytes), served),
            "ratio",
        ),
        metric(
            "server.zerocopy_frac",
            ratio(sum(&|s| s.zerocopy_bytes), served),
            "ratio",
        ),
        metric(
            "server.datacache_hit_ratio",
            ratio(sum(&|s| s.datacache_hits), requests),
            "ratio",
        ),
        metric(
            "server.bufpool_hit_rate",
            ratio(
                sum(&|s| s.bufpool.hits),
                sum(&|s| s.bufpool.hits + s.bufpool.misses),
            ),
            "ratio",
        ),
        metric(
            "server.prefetch_queue_peak",
            servers
                .iter()
                .map(|s| s.prefetch_queue_peak)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "server.busy_rejections",
            sum(&|s| s.busy_rejections),
            "count",
        ),
        metric(
            "iosched.read_wait_ratio",
            ratio(
                sum(&|s| s.iosched.read_waits),
                sum(&|s| s.iosched.read_acquires),
            ),
            "ratio",
        ),
        metric(
            "iosched.append_wait_ratio",
            ratio(
                sum(&|s| s.iosched.append_waits),
                sum(&|s| s.iosched.append_acquires),
            ),
            "ratio",
        ),
        metric(
            "client.spec_discard_ratio",
            ratio(
                (fetch.spec_discards - fetch0.spec_discards) as f64,
                requests,
            ),
            "ratio",
        ),
        metric(
            "client.retries",
            (fetch.retries - fetch0.retries) as f64,
            "count",
        ),
        metric(
            "client.reconnects",
            (fetch.reconnects - fetch0.reconnects) as f64,
            "count",
        ),
        metric("hybrid.append_s", span_s(&q, "bench.append"), "s"),
        metric("hybrid.read_cpu_s", cost.hybrid_read_s, "s"),
        metric(
            "hybrid.local_read_ratio",
            ratio(hybrid[1] as f64, (hybrid[0] + hybrid[1] + hybrid[2]) as f64),
            "ratio",
        ),
        metric("hybrid.spill_trips", hybrid[3] as f64, "count"),
        metric(
            "trace.disk_read_s",
            q.union_nanos("disk.read") as f64 / 1e9,
            "s",
        ),
        metric(
            "trace.net_xmit_s",
            q.union_nanos("net.xmit") as f64 / 1e9,
            "s",
        ),
        metric(
            "trace.prefetch_wait_s",
            q.union_nanos("prefetch.wait") as f64 / 1e9,
            "s",
        ),
        metric(
            "trace.overlap_frac",
            q.overlap_fraction("disk.read", "net.xmit"),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            1.0 - ratio(traced_mib_s, untraced_mib_s),
            "ratio",
        ),
        metric("unattributed_cpu_s", cpu_s - replayed, "s"),
    ];
    for m in &metrics {
        println!(
            "layer {} = {} {}",
            m.name,
            m.value.unwrap_or(f64::NAN),
            m.unit
        );
    }
    let mut bad = warm.mismatches;
    bad.extend(run.mismatches);
    bad.extend(cost.mismatches);
    Ok((metrics, bad))
}
