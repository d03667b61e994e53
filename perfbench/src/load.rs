//! Workloads, their seeded open-loop schedules, the load loop, and the
//! batch co-tenant.

use crate::backends::set_query;
use crate::trace::{self, Kind};
use hermes_services::Service;
use hermes_sim::rng::DetRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which service model a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Svc {
    /// `RedisModel`: every query inserts one record and deletes one.
    Redis,
    /// `RocksdbModel` over `RealFiles`: inserts only; memtable flushes
    /// free the arena.
    Rocksdb,
}

/// Record-size distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Values {
    /// 256 B–2 KiB (70 %) or 8–32 KiB (30 %): all below the mmap
    /// threshold.
    Small,
    /// The paper's 200 KB RocksDB record.
    Large,
    /// `workloads::sample_value_bytes`: `Small` plus a 5 % tail of
    /// 64–256 KiB values.
    FullMix,
}

impl Values {
    fn sample(self, rng: &mut DetRng) -> usize {
        match self {
            Values::Small => {
                if rng.unit() < 0.70 {
                    rng.range(256, 2048) as usize
                } else {
                    rng.range(8 * 1024, 32 * 1024) as usize
                }
            }
            Values::Large => 200 * 1024,
            Values::FullMix => hermes_workloads::sample_value_bytes(rng),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// Service model.
    pub svc: Svc,
    /// Record sizes.
    pub values: Values,
    /// Queries run (closed loop) during set-up, before timing.
    pub prefill: usize,
    /// Offered rate, queries per second.
    pub rate: f64,
    /// Fixed latency limit for `slo_violation_pct`, in microseconds.
    pub slo_us: f64,
    /// Frees run on a second (lazy-free) thread.
    pub lazy_free: bool,
    /// A batch co-tenant runs beside the service.
    pub batch: bool,
}

/// The benchmark's workloads.
///
/// `lsm-large` and `colocated-batch` run at about half of what
/// `real:hermes` sustained closed-loop on a 2-core x86_64 VM
/// (`--closed-loop`); the two kv workloads share one rate so that they
/// differ only in where frees run. Each latency limit is the p90 of
/// `real:system` on the same host at the same rate (`--backend system`,
/// median of five 20 s runs), the paper's SLO definition, fixed here so
/// `slo_violation_pct` compares one limit across commits. `lsm-large` runs
/// by name but is left out of `BENCHMARK.json`: on a 2-core VM its peak
/// resident set did not repeat from run to run within the bound.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kv-small",
        why: "small-object churn on tcache and RawHeap with no LargePool or remote-inbox work: \
              the no-change control for large-path and remote-free changes",
        svc: Svc::Redis,
        values: Values::Small,
        prefill: 7_000,
        rate: 40_000.0,
        slo_us: 8.4,
        lazy_free: false,
        batch: false,
    },
    Workload {
        name: "lsm-large",
        why: "the paper's Figure 2 hot spot: a 256 KiB memtable block per query and a 64 MiB \
              flush, worked by LargePool, the manager's reserve and trim, and page commit",
        svc: Svc::Rocksdb,
        values: Values::Large,
        prefill: 328,
        rate: 1_100.0,
        slo_us: 65.7,
        lazy_free: false,
        batch: false,
    },
    Workload {
        name: "kv-lazyfree",
        why: "kv-small traffic with frees on a second thread: the only workload on the \
              remote-free inbox, so its difference from kv-small isolates cross-thread frees",
        svc: Svc::Redis,
        values: Values::Small,
        prefill: 7_000,
        rate: 40_000.0,
        slo_us: 10.7,
        lazy_free: true,
        batch: false,
    },
    Workload {
        name: "colocated-batch",
        why: "the paper's setting: a service whose 5 % tail of 64-256 KiB values reaches \
              LargePool beside a batch job, trading manager CPU and reserve against a co-tenant",
        svc: Svc::Redis,
        values: Values::FullMix,
        prefill: 3_500,
        rate: 35_000.0,
        slo_us: 16.6,
        lazy_free: false,
        batch: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A seeded open-loop schedule: when each query is due (offset from the
/// phase start) and its record size.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Due offsets in nanoseconds, ascending.
    pub due_ns: Vec<u64>,
    /// Record size of each query.
    pub values: Vec<u32>,
}

impl Schedule {
    /// Poisson arrivals (independent clients) at the workload's rate for
    /// `seconds`.
    pub fn open_loop(w: &Workload, seed: u64, seconds: f64) -> Self {
        let rate = w.rate;
        let mut arrivals = DetRng::new(seed, "perfbench-arrivals");
        let mut sizes = DetRng::new(seed, "perfbench-values");
        let horizon = (seconds * 1e9) as u64;
        let mean_gap_ns = 1e9 / rate;
        let cap = (rate * seconds * 1.1) as usize + 16;
        let mut due_ns = Vec::with_capacity(cap);
        let mut values = Vec::with_capacity(cap);
        let mut t = 0.0f64;
        loop {
            t += arrivals.exp(mean_gap_ns);
            if t as u64 >= horizon {
                break;
            }
            due_ns.push(t as u64);
            values.push(w.values.sample(&mut sizes) as u32);
        }
        Schedule { due_ns, values }
    }

    /// Set-up records: `n` sizes from a stream of their own.
    pub fn prefill(w: &Workload, seed: u64) -> Vec<usize> {
        let mut sizes = DetRng::new(seed, "perfbench-prefill");
        (0..w.prefill)
            .map(|_| w.values.sample(&mut sizes))
            .collect()
    }

    /// Queries in the schedule.
    pub fn len(&self) -> usize {
        self.due_ns.len()
    }
}

/// What one timed phase produced.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Latency of each successful query, due time to return, in ns.
    pub latency_ns: Vec<u64>,
    /// Lateness of each send that no earlier query held up, in ns.
    pub lateness_ns: Vec<u64>,
    /// Queries attempted (sent or due but never sent).
    pub attempted: u64,
    /// Queries that returned an error.
    pub failed: u64,
    /// Queries still unsent when the phase ran out of time.
    pub unsent: u64,
    /// Queries whose latency exceeded the limit.
    pub over_limit: u64,
}

/// A periodic observation taken in the generator's idle time.
pub trait Sampler {
    /// Samples `svc`.
    fn sample(&mut self, svc: &dyn Service);
}

/// Minimum spacing of samples and the idle time a sample needs.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);
const SAMPLE_SLACK: Duration = Duration::from_micros(200);

/// Runs `sched` against `svc` as an open loop: each query is due at its
/// scheduled time whether or not the previous one has returned, and is
/// timed from that due time. The loop spins between queries (a sleeping
/// generator would add wake-up delay to every latency). Queries not sent
/// by twice the schedule's span are abandoned and count as unsent.
pub fn run_phase(
    svc: &mut dyn Service,
    sched: &Schedule,
    deletes: bool,
    slo_us: f64,
    mut sampler: Option<&mut dyn Sampler>,
) -> PhaseOut {
    let n = sched.len();
    let mut out = PhaseOut {
        latency_ns: Vec::with_capacity(n),
        lateness_ns: Vec::with_capacity(n),
        attempted: n as u64,
        ..PhaseOut::default()
    };
    let limit_ns = (slo_us * 1e3) as u64;
    let span_ns = sched.due_ns.last().copied().unwrap_or(0);
    let t0 = Instant::now() + Duration::from_millis(1);
    let give_up = t0 + Duration::from_nanos(span_ns.saturating_mul(2));
    let mut prev_done = t0;
    let mut last_sample = t0;
    for i in 0..n {
        let due = t0 + Duration::from_nanos(sched.due_ns[i]);
        let mut now = Instant::now();
        if now > give_up {
            out.unsent = (n - i) as u64;
            break;
        }
        while now < due {
            if let Some(s) = sampler.as_deref_mut() {
                if due - now > SAMPLE_SLACK && now - last_sample > SAMPLE_EVERY {
                    s.sample(svc);
                    last_sample = Instant::now();
                }
            }
            std::hint::spin_loop();
            now = Instant::now();
        }
        if prev_done <= due {
            out.lateness_ns.push((now - due).as_nanos() as u64);
        }
        set_query(i as u32);
        let v = sched.values[i] as usize;
        let r = trace::span(Kind::Query, || {
            let r = trace::span(Kind::SvcQuery, || svc.query(v));
            if deletes {
                trace::span(Kind::SvcDelete, || svc.delete_one());
            }
            r
        });
        let done = Instant::now();
        prev_done = done;
        let lat = (done - due).as_nanos() as u64;
        if r.is_err() {
            out.failed += 1;
        } else {
            out.latency_ns.push(lat);
            if lat > limit_ns {
                out.over_limit += 1;
            }
        }
    }
    out
}

/// Runs `sched`'s record sizes back to back (closed loop) and returns
/// the queries per second achieved.
pub fn run_closed_loop(svc: &mut dyn Service, sched: &Schedule, deletes: bool) -> f64 {
    let t = Instant::now();
    for &v in &sched.values {
        let _ = svc.query(v as usize);
        if deletes {
            svc.delete_one();
        }
    }
    sched.len() as f64 / t.elapsed().as_secs_f64()
}

/// Size of each co-tenant buffer.
pub const BATCH_BUF: usize = 64 << 20;

/// A batch job beside the service: allocates 64 MiB buffers from the
/// system allocator, writes every page, frees them, as fast as it can.
pub struct Batch {
    stop: Arc<AtomicBool>,
    touched: Arc<AtomicU64>,
    handle: JoinHandle<()>,
    /// Kernel tid of the batch thread.
    pub tid: u64,
}

impl Batch {
    /// Starts the co-tenant thread.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let touched = Arc::new(AtomicU64::new(0));
        let (flag, count) = (Arc::clone(&stop), Arc::clone(&touched));
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("batch".into())
            .spawn(move || {
                let _ = tx.send(crate::procfs::current_tid().unwrap_or(0));
                let layout = std::alloc::Layout::from_size_align(BATCH_BUF, 4096)
                    .expect("valid batch layout");
                while !flag.load(Ordering::Relaxed) {
                    // SAFETY: non-zero layout; freed below.
                    let p = unsafe { std::alloc::alloc(layout) };
                    assert!(!p.is_null(), "batch buffer allocation failed");
                    for mib in 0..BATCH_BUF >> 20 {
                        if flag.load(Ordering::Relaxed) {
                            break;
                        }
                        for page in 0..256 {
                            // SAFETY: within the buffer.
                            unsafe {
                                std::ptr::write_volatile(p.add((mib << 20) + page * 4096), 1)
                            };
                        }
                        count.fetch_add(1 << 20, Ordering::Relaxed);
                    }
                    // SAFETY: allocated above with this layout.
                    unsafe { std::alloc::dealloc(p, layout) };
                }
            })
            .expect("spawn batch thread");
        let tid = rx.recv().unwrap_or(0);
        Batch {
            stop,
            touched,
            handle,
            tid,
        }
    }

    /// Bytes allocated and touched so far.
    pub fn touched(&self) -> u64 {
        self.touched.load(Ordering::Relaxed)
    }

    /// Stops the co-tenant and waits for it.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("batch thread panicked");
    }
}
