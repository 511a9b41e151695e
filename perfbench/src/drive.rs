//! The closed-loop drivers: reducers run back to back, each driver
//! starting its next reducer only when its previous one returned.

use crate::cluster::Cluster;
use crate::fingerprint::fingerprint_of;
use crate::procfs;
use jbs_obs::Entity;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::Instant;

/// Driver threads on the MOF workloads (the reference machine's cores).
pub const DRIVERS: usize = 2;

/// What one driven region did.
#[derive(Debug, Default)]
pub struct Driven {
    /// Seconds from the first request (or append) to the last verified
    /// reducer.
    pub wall_s: f64,
    /// Segment payload bytes of the reducers that returned and verified.
    pub bytes: u64,
    /// Wall milliseconds of each `levitated_merge` call that returned.
    pub reduce_ms: Vec<f64>,
    /// Reducers started.
    pub attempted: u64,
    /// Reducers whose call returned an error.
    pub failed: u64,
    /// Output that did not match its fingerprint (fails the command).
    pub mismatches: Vec<String>,
    /// Rounds completed: passes (MOF workloads) or jobs of [`JOB_WAVES`]
    /// map waves (`push-spill`).
    pub rounds: u64,
    /// Per round: wall seconds since the previous round ended (or the
    /// region started), verified payload bytes, and process CPU seconds.
    pub per_round: Vec<Round>,
}

/// One pass (MOF workloads) or one job (`push-spill`).
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Wall seconds since the previous round ended.
    pub wall_s: f64,
    /// Verified segment payload bytes.
    pub bytes: u64,
    /// Process CPU seconds (all threads) over the same interval.
    pub cpu_s: f64,
}

/// Marks round boundaries: wall clock and process CPU.
struct RoundClock {
    wall: Instant,
    cpu: f64,
    bytes: u64,
}

impl RoundClock {
    fn start() -> Self {
        RoundClock {
            wall: Instant::now(),
            cpu: procfs::process_cpu_s(),
            bytes: 0,
        }
    }

    /// Close the round that ends now; `total_bytes` is the region's
    /// verified bytes so far.
    fn lap(&mut self, total_bytes: u64) -> Round {
        let (wall, cpu) = (Instant::now(), procfs::process_cpu_s());
        let round = Round {
            wall_s: (wall - self.wall).as_secs_f64(),
            bytes: total_bytes - self.bytes,
            cpu_s: cpu - self.cpu,
        };
        *self = RoundClock {
            wall,
            cpu,
            bytes: total_bytes,
        };
        round
    }
}

impl Driven {
    fn absorb(&mut self, other: Driven) {
        self.bytes += other.bytes;
        self.reduce_ms.extend(other.reduce_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches);
        self.per_round.extend(other.per_round);
    }
}

/// When a driven region stops starting new work.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many rounds.
    Rounds(u64),
    /// At the first round boundary past this instant.
    Deadline(Instant),
}

impl Until {
    fn done(self, rounds: u64) -> bool {
        match self {
            Until::Rounds(n) => rounds >= n,
            Until::Deadline(t) => Instant::now() >= t,
        }
    }
}

/// Merge reducer `r` of wave `wave`, verify it, and account it.
fn reduce_one(cl: &Cluster, wave: u64, r: usize, out: &mut Driven) {
    let segs = cl.segments(wave, r);
    out.attempted += 1;
    let t0 = Instant::now();
    let result = {
        let _span = cl
            .trace
            .span("bench.merge", Entity::op(r as u64), wave, r as u64);
        cl.client.levitated_merge(&segs)
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(records) => {
            let got = fingerprint_of(records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
            let variant = cl.variant(wave);
            let want = cl.expected[variant][r];
            if got == want {
                out.reduce_ms.push(ms);
                out.bytes += cl.reducer_bytes[variant][r];
            } else {
                out.mismatches.push(format!(
                    "wave {wave} reducer {r}: got {got:?}, expected {want:?}"
                ));
            }
        }
        Err(e) => {
            out.failed += 1;
            eprintln!("reducer {r} of wave {wave} failed: {e}");
        }
    }
}

/// Shuffle every reducer of the stored MOFs, pass after pass, on
/// [`DRIVERS`] threads. A pass ends when its last reducer returns, so
/// the largest reducer of each pass sets the pass's wall time.
pub fn drive_mof(cl: &Cluster, until: Until) -> Driven {
    let start = Instant::now();
    let barrier = Barrier::new(DRIVERS);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let total = Mutex::new((Driven::default(), RoundClock::start()));
    let lock = || total.lock().expect("a driver panicked holding the totals");
    std::thread::scope(|scope| {
        for _ in 0..DRIVERS {
            scope.spawn(|| loop {
                let mut mine = Driven::default();
                loop {
                    let r = next.fetch_add(1, Ordering::Relaxed);
                    if r >= cl.shape.reducers {
                        break;
                    }
                    reduce_one(cl, 0, r, &mut mine);
                }
                lock().0.absorb(mine);
                // Pass boundary: one driver closes the round and decides
                // whether another pass starts; the barrier (a
                // synchronization point) publishes that to the other.
                if barrier.wait().is_leader() {
                    let (t, clock) = &mut *lock();
                    t.rounds += 1;
                    t.per_round.push(clock.lap(t.bytes));
                    next.store(0, Ordering::Relaxed);
                    stop.store(
                        !t.mismatches.is_empty() || until.done(t.rounds),
                        Ordering::Relaxed,
                    );
                }
                barrier.wait();
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            });
        }
    });
    let mut total = total
        .into_inner()
        .expect("a driver panicked holding the totals")
        .0;
    total.wall_s = start.elapsed().as_secs_f64();
    total
}

/// Map waves in one `push-spill` job: each supplier receives 16 waves of
/// ~16 MiB, four times its 64 MiB memory budget.
pub const JOB_WAVES: u64 = 16;

/// `push-spill`: jobs back to back until `until` (which counts jobs).
/// Each job starts fresh suppliers over empty hybrid stores (outside its
/// round's clock, inside the region's wall time) and is one round.
pub fn drive_push(cl: &mut Cluster, until: Until) -> io::Result<Driven> {
    let start = Instant::now();
    let mut total = Driven::default();
    loop {
        cl.fresh_push_stores()?;
        let job = push_job(cl)?;
        cl.push_stores_used();
        total.absorb(job);
        total.rounds += 1;
        if !total.mismatches.is_empty() || until.done(total.rounds) {
            break;
        }
    }
    total.wall_s = start.elapsed().as_secs_f64();
    Ok(total)
}

/// One `push-spill` job: the mapper appends wave `w + 1` while one
/// reducer thread merges wave `w`, for [`JOB_WAVES`] waves. The mapper
/// runs on the calling thread, which lives for the whole run, so the
/// stores' buffers come from the same allocator arena job after job and
/// peak memory does not depend on which arena a new thread drew.
fn push_job(cl: &Cluster) -> io::Result<Driven> {
    let mut clock = RoundClock::start();
    // Rendezvous: the mapper hands over wave w only when the reducer is
    // ready for it, so at most one wave is appended ahead of the merge.
    let (tx, rx) = mpsc::sync_channel::<u64>(0);
    let (appended, mut job) = std::thread::scope(|scope| {
        let reducer = scope.spawn(move || {
            let mut job = Driven::default();
            for wave in rx {
                for r in 0..cl.shape.reducers {
                    reduce_one(cl, wave, r, &mut job);
                }
                if !job.mismatches.is_empty() {
                    break;
                }
            }
            job
        });
        let appended: io::Result<()> = (|| {
            for wave in 0..JOB_WAVES {
                cl.append_wave(wave)?;
                if tx.send(wave).is_err() {
                    break;
                }
            }
            Ok(())
        })();
        drop(tx);
        (appended, reducer.join().expect("reducer thread panicked"))
    });
    appended?;
    job.per_round.push(clock.lap(job.bytes));
    Ok(job)
}
