//! Readings from `/proc`: process CPU time, peak resident memory, and
//! the machine facts printed in every report's environment block.

use std::path::Path;

/// Kernel clock ticks per second for `utime`/`stime` in `/proc/<pid>/stat`
/// (`USER_HZ`; 100 on every Linux architecture this runs on).
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU ticks of the whole process (all threads, live and
/// exited) from the text of `/proc/self/stat`.
///
/// The second field, `comm`, is the executable name in parentheses and
/// may itself contain spaces and `)`, so the fields are counted from the
/// *last* `)` in the line. `utime` and `stime` are fields 14 and 15.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // Fields after `comm` start at field 3 (`state`).
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Process CPU seconds so far (user + system).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat");
    ticks as f64 / CLOCK_TICKS_PER_S
}

/// Machine-wide `(all, steal)` CPU ticks from the text of `/proc/stat`:
/// the sum of the aggregate `cpu` line's first eight fields (user
/// through steal; the guest fields after them are already counted in
/// user), and the eighth, time the hypervisor ran something else while
/// this machine's CPUs wanted to run.
pub fn parse_proc_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Machine-wide `(all, steal)` CPU ticks so far (zeros if unreadable).
pub fn machine_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_proc_stat_ticks(&s))
        .unwrap_or((0, 0))
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak-RSS meter over a region: resets the kernel's high-water mark at
/// the start so the reading at the end covers that region alone.
pub struct PeakRss {
    /// `false` when the kernel refused the reset: the high-water mark
    /// then still holds whatever came before the region, and reading it
    /// would report a stale peak.
    reset_ok: bool,
}

impl PeakRss {
    /// Reset the high-water mark by writing `5` to `clear_refs`.
    pub fn start() -> Self {
        Self::start_at(Path::new("/proc/self/clear_refs"))
    }

    /// As [`PeakRss::start`], with the `clear_refs` file named (tests
    /// point it at a path the write must fail on).
    pub fn start_at(clear_refs: &Path) -> Self {
        PeakRss {
            reset_ok: std::fs::write(clear_refs, b"5").is_ok(),
        }
    }

    /// Peak RSS in MiB since [`PeakRss::start`], or `None` when the reset
    /// was refused and no honest reading exists.
    pub fn read_mib(&self) -> Option<f64> {
        if !self.reset_ok {
            return None;
        }
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
    }
}

extern "C" {
    /// glibc: return free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the heap memory the benchmark's own set-up freed back to the
/// kernel, so the resident set the timed region starts from does not
/// depend on how that garbage happened to fragment.
pub fn release_free_heap() {
    // SAFETY: `malloc_trim` takes no pointers and only walks glibc's own
    // arenas under their locks; it is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Filesystem type of the mount that holds `path`, from `/proc/mounts`
/// (the longest mount point that prefixes the canonical path).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// The running kernel release.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_reads_utime_plus_stime() {
        let stat = "4242 (perfbench) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 9 0 100";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(325));
    }

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_comm() {
        let stat = "4242 (a) b (c) d)) S 1 2 3 4 5 6 7 8 9 10 31 7 0 0 20 0 9 0 100";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(38));
    }

    #[test]
    fn stat_parser_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no comm here"), None);
    }

    #[test]
    fn live_stat_parses() {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat_cpu_ticks(&stat).is_some());
    }

    #[test]
    fn proc_stat_steal_is_the_eighth_field() {
        let stat = "cpu  100 1 50 800 10 0 5 34 7 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n";
        assert_eq!(parse_proc_stat_ticks(stat), Some((1000, 34)));
        assert_eq!(parse_proc_stat_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1768 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1768));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn refused_reset_reports_unavailable_not_stale() {
        let refused = PeakRss::start_at(Path::new("/nonexistent-dir/clear_refs"));
        assert_eq!(refused.read_mib(), None);
    }

    #[test]
    fn fs_type_names_a_filesystem() {
        assert_ne!(fs_type(Path::new(".")), "");
    }
}
