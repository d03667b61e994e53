//! Outside-in process accounting from `/proc/self`.
//!
//! The single source of every CPU, fault, context-switch and resident-set
//! figure the benchmark reports: per-thread `utime`/`stime` and minor
//! faults from `task/<tid>/stat`, CPU nanoseconds from
//! `task/<tid>/schedstat` (10 ms tick resolution is too coarse for a
//! manager thread that runs ~1 % of a core), voluntary and nonvoluntary
//! context switches from `task/<tid>/status`, and the process's `VmHWM`.

use std::collections::BTreeMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`, fixed
/// at 100 on every Linux ABI this runs on).
const USER_HZ: u64 = 100;

/// One thread's cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadSample {
    /// User-mode CPU time in clock ticks.
    pub utime_ticks: u64,
    /// Kernel-mode CPU time in clock ticks.
    pub stime_ticks: u64,
    /// On-CPU nanoseconds from `schedstat` (0 when the kernel lacks it).
    pub sched_ns: u64,
    /// Minor page faults.
    pub minflt: u64,
    /// Voluntary context switches (sleeps and lock waits).
    pub vcsw: u64,
    /// Nonvoluntary context switches (preemptions).
    pub nvcsw: u64,
}

impl ThreadSample {
    /// CPU time in nanoseconds: `schedstat` when present, otherwise
    /// `utime + stime` at tick resolution.
    pub fn cpu_ns(&self) -> u64 {
        if self.sched_ns > 0 {
            self.sched_ns
        } else {
            (self.utime_ticks + self.stime_ticks) * (1_000_000_000 / USER_HZ)
        }
    }

    /// Counter growth from `earlier` to `self` (saturating, so a sample
    /// of a recycled tid never underflows).
    pub fn since(&self, earlier: &ThreadSample) -> ThreadSample {
        ThreadSample {
            utime_ticks: self.utime_ticks.saturating_sub(earlier.utime_ticks),
            stime_ticks: self.stime_ticks.saturating_sub(earlier.stime_ticks),
            sched_ns: self.sched_ns.saturating_sub(earlier.sched_ns),
            minflt: self.minflt.saturating_sub(earlier.minflt),
            vcsw: self.vcsw.saturating_sub(earlier.vcsw),
            nvcsw: self.nvcsw.saturating_sub(earlier.nvcsw),
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &ThreadSample) -> ThreadSample {
        ThreadSample {
            utime_ticks: self.utime_ticks + o.utime_ticks,
            stime_ticks: self.stime_ticks + o.stime_ticks,
            sched_ns: self.sched_ns + o.sched_ns,
            minflt: self.minflt + o.minflt,
            vcsw: self.vcsw + o.vcsw,
            nvcsw: self.nvcsw + o.nvcsw,
        }
    }
}

/// Parses a `/proc/<pid>/task/<tid>/stat` line into `(comm, utime,
/// stime, minflt)`. The command name sits in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// closing parenthesis.
pub fn parse_stat(line: &str) -> Option<(String, u64, u64, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // After ") ": field 3 (state) is index 0, so field n is index n - 3.
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let field = |n: usize| rest.get(n - 3)?.parse::<u64>().ok();
    Some((comm, field(14)?, field(15)?, field(10)?))
}

/// Parses the voluntary/nonvoluntary context-switch counts out of a
/// `status` file.
pub fn parse_ctxt(status: &str) -> Option<(u64, u64)> {
    Some((
        status_field(status, "voluntary_ctxt_switches")?,
        status_field(status, "nonvoluntary_ctxt_switches")?,
    ))
}

/// The first number of a `Key:\tvalue` line of a `status` file.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let v = l.strip_prefix(key)?.strip_prefix(':')?;
        v.split_whitespace().next()?.parse().ok()
    })
}

/// The first field of a `schedstat` line: nanoseconds spent on a CPU.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Reads one thread's counters, with its command name.
pub fn read_thread(tid: u64) -> Option<(String, ThreadSample)> {
    let dir = format!("/proc/self/task/{tid}");
    let (comm, utime_ticks, stime_ticks, minflt) =
        parse_stat(&fs::read_to_string(format!("{dir}/stat")).ok()?)?;
    let (vcsw, nvcsw) = parse_ctxt(&fs::read_to_string(format!("{dir}/status")).ok()?)?;
    let sched_ns = fs::read_to_string(format!("{dir}/schedstat"))
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or(0);
    Some((
        comm,
        ThreadSample {
            utime_ticks,
            stime_ticks,
            sched_ns,
            minflt,
            vcsw,
            nvcsw,
        },
    ))
}

/// Every live thread of the process, by tid.
pub fn read_all_threads() -> BTreeMap<u64, (String, ThreadSample)> {
    let mut out = BTreeMap::new();
    if let Ok(dir) = fs::read_dir("/proc/self/task") {
        for e in dir.flatten() {
            if let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) {
                if let Some(s) = read_thread(tid) {
                    out.insert(tid, s);
                }
            }
        }
    }
    out
}

/// Summed growth, between two [`read_all_threads`] snapshots, of the
/// threads *not* in `exclude`. A thread born between the snapshots counts
/// from zero; one that exited is lost (the runtime's manager lives across
/// every measured phase).
pub fn others_since(
    before: &BTreeMap<u64, (String, ThreadSample)>,
    after: &BTreeMap<u64, (String, ThreadSample)>,
    exclude: &[u64],
) -> ThreadSample {
    let mut total = ThreadSample::default();
    for (tid, (_, s)) in after {
        if exclude.contains(tid) {
            continue;
        }
        let base = before.get(tid).map(|(_, b)| *b).unwrap_or_default();
        total = total.plus(&s.since(&base));
    }
    total
}

/// Peak resident set (`VmHWM`) in KiB.
pub fn vm_hwm_kib() -> Option<u64> {
    status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// Resets `VmHWM` to the current resident set (`clear_refs` code 5), so
/// the next [`vm_hwm_kib`] covers only what follows. Returns `false` when
/// the kernel refuses.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A thread that, once per period, reads the process's peak resident set
/// and resets it, so that each window's peak is its own.
pub struct PeakMonitor {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<u64>>,
    /// Kernel tid of the monitor thread.
    pub tid: u64,
}

impl PeakMonitor {
    /// Resets `VmHWM` and starts the monitor; `None` when the kernel
    /// refuses the reset, so no window peak could be measured.
    pub fn start(period: Duration) -> Option<Self> {
        if !reset_peak_rss() {
            return None;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("rss-monitor".into())
            .spawn(move || {
                let _ = tx.send(current_tid().unwrap_or(0));
                let mut peaks = Vec::new();
                let mut next = Instant::now() + period;
                loop {
                    let stopping = flag.load(Ordering::Acquire);
                    if stopping || Instant::now() >= next {
                        peaks.push(vm_hwm_kib().unwrap_or(0));
                        reset_peak_rss();
                        next += period;
                    }
                    if stopping {
                        return peaks;
                    }
                    std::thread::park_timeout(next.saturating_duration_since(Instant::now()));
                }
            })
            .expect("spawn rss monitor thread");
        let tid = rx.recv().unwrap_or(0);
        Some(PeakMonitor { stop, handle, tid })
    }

    /// Stops the monitor; returns each window's peak in KiB, the last
    /// window partial.
    pub fn stop(self) -> Vec<u64> {
        self.stop.store(true, Ordering::Release);
        self.handle.thread().unpark();
        self.handle.join().expect("rss monitor thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_stat_line() {
        let line = "10000 (python3) R 9996 10000 9996 0 -1 4194304 2750 6047 0 0 6 2 4 5 \
                    20 0 1 0 132338 16969728 3350 18446744073709551615";
        assert_eq!(parse_stat(line), Some(("python3".into(), 6, 2, 2750)));
    }

    #[test]
    fn parses_comm_with_spaces_and_parentheses() {
        let line = "4242 (my (odd) name) x) S 1 4242 4242 0 -1 4194560 77 0 0 0 1234 56 0 0 \
                    20 0 3 0 99 0 0";
        let (comm, utime, stime, minflt) = parse_stat(line).expect("parses");
        assert_eq!(comm, "my (odd) name) x");
        assert_eq!((utime, stime, minflt), (1234, 56, 77));
    }

    #[test]
    fn rejects_truncated_stat_line() {
        assert_eq!(parse_stat("1 (a) R 1 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\thermes-mgmt\nVmHWM:\t   13536 kB\nVmRSS:\t   13000 kB\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_ctxt(status), Some((17, 3)));
        assert_eq!(status_field(status, "VmHWM"), Some(13536));
        assert_eq!(status_field(status, "VmSwap"), None);
    }

    #[test]
    fn parses_schedstat() {
        assert_eq!(parse_schedstat("1864685 0 1\n"), Some(1_864_685));
    }

    #[test]
    fn cpu_ns_prefers_schedstat() {
        let mut s = ThreadSample {
            utime_ticks: 3,
            stime_ticks: 1,
            ..ThreadSample::default()
        };
        assert_eq!(s.cpu_ns(), 40_000_000);
        s.sched_ns = 123;
        assert_eq!(s.cpu_ns(), 123);
    }

    #[test]
    fn others_since_excludes_and_counts_newborns() {
        let t = |minflt| {
            (
                String::from("t"),
                ThreadSample {
                    minflt,
                    ..ThreadSample::default()
                },
            )
        };
        let before: BTreeMap<_, _> = [(1, t(10)), (2, t(5))].into_iter().collect();
        let after: BTreeMap<_, _> = [(1, t(30)), (2, t(9)), (3, t(4))].into_iter().collect();
        assert_eq!(others_since(&before, &after, &[1]).minflt, 4 + 4);
    }

    #[test]
    fn reads_this_thread() {
        let tid = current_tid().expect("thread-self link");
        let (comm, _) = read_thread(tid).expect("own task dir");
        assert!(!comm.is_empty());
        assert!(read_all_threads().contains_key(&tid));
        assert!(vm_hwm_kib().unwrap_or(0) > 0);
    }

    #[test]
    fn peak_monitor_reports_a_peak_per_window() {
        let m = PeakMonitor::start(Duration::from_millis(5)).expect("VmHWM resets");
        std::thread::sleep(Duration::from_millis(30));
        let peaks = m.stop();
        assert!(peaks.len() >= 2, "{peaks:?}");
        assert!(peaks.iter().all(|&k| k > 0), "{peaks:?}");
    }
}
