//! Outside-in benchmark of the real Hermes runtime under latency-critical
//! service load.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--backend hermes|system] [--closed-loop] [--out <dir>]
//! ```
//!
//! `--trace 0` boots the service on `real:hermes` several times (set-up
//! time is their median), then drives it with the workload's seeded
//! open-loop schedule for `--seconds`, timing every query from its due
//! time, and prints the end-to-end metrics. `--trace 1` splits the time
//! into three passes — untraced, traced, and the same workload on
//! `real:system` for reference — writes the traced pass's spans to
//! `<out>/spans-<workload>.tsv`, and prints the per-layer metrics. Both
//! modes check the runtime's integrity and accounting after every pass;
//! the last line of standard output is one JSON object.
//!
//! `--backend system` runs the end-to-end pass on the system allocator
//! (how each workload's latency limit was derived), `--closed-loop`
//! reports the rate the service sustains back to back (how each offered
//! rate was derived).

mod backends;
mod load;
mod procfs;
mod trace;

use backends::{HeapSnap, Instrumented, LazyCtl, LazyFree, Probe, SystemRaw};
use hermes_allocators::real::RealHermesBackend;
use hermes_allocators::{AllocatorBackend, RealSystemBackend};
use hermes_core::rt::{HermesHeap, HermesHeapConfig};
use hermes_core::HermesConfig;
use hermes_services::{RealFiles, RedisModel, RocksdbModel, Service};
use hermes_sim::rng::DetRng;
use load::{Batch, PhaseOut, Sampler, Schedule, Svc, Workload};
use procfs::ThreadSample;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median. Half run before
/// the timed phase and the rest after it, so that the median spans the
/// run rather than one moment of the host.
const SETUPS: usize = 7;
/// Untimed open-loop warm-up before each timed phase, in seconds.
const WARMUP_S: f64 = 2.0;
/// Seed perturbation that gives the warm-up a schedule of its own.
const WARMUP_STREAM: u64 = 0x5741_524d;
/// Queued frees the lazy-free ring holds.
const RING: usize = 1 << 16;
/// Span buffer of a tracing thread (32 B a span).
const MAX_SPANS: usize = 1 << 20;
/// Window over which the monitor takes each peak resident set.
const RSS_WINDOW: std::time::Duration = std::time::Duration::from_secs(1);
/// A percentile is reported only with at least this many samples beyond
/// it.
const MIN_BEYOND: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Alloc {
    Hermes,
    System,
}

impl Alloc {
    fn label(self) -> &'static str {
        match self {
            Alloc::Hermes => "real:hermes",
            Alloc::System => "real:system",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    backend: Alloc,
    closed_loop: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut closed_loop = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--closed-loop" => closed_loop = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--backend" | "--out" => {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                kv.insert(a[2..].to_string(), v);
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or(format!("--{k} is required"));
    let name = get("workload")?;
    let names: Vec<_> = load::WORKLOADS.iter().map(|w| w.name).collect();
    let workload = load::workload(name).ok_or(format!(
        "unknown workload {name}; one of {}",
        names.join(", ")
    ))?;
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or(format!("--{k} needs a positive number"))
    };
    Ok(Args {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed needs an integer")?,
        seconds: num("seconds")?,
        trace: match kv.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
        },
        backend: match kv.get("backend").map(String::as_str) {
            None | Some("hermes") => Alloc::Hermes,
            Some("system") => Alloc::System,
            Some(v) => return Err(format!("--backend takes hermes or system, not {v}")),
        },
        closed_loop,
        out: kv
            .get("out")
            .cloned()
            .unwrap_or_else(|| "perfbench/out".into()),
    })
}

/// A service booted and prefilled, ready for its timed phase.
struct Built {
    svc: Box<dyn Service>,
    probe: Probe,
    lazy: Option<LazyCtl>,
}

impl Built {
    /// Latest heap snapshot, refreshed through the backend's `stats()`.
    fn heap(&self) -> Option<HeapSnap> {
        let _ = self.svc.backend().stats();
        *self.probe.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn service<B: AllocatorBackend + 'static>(
    w: &Workload,
    b: B,
    seed: u64,
) -> Result<Box<dyn Service>, String> {
    Ok(match w.svc {
        Svc::Redis => Box::new(RedisModel::new(b, seed)),
        Svc::Rocksdb => Box::new(
            RocksdbModel::new(b, Box::new(RealFiles::new()), seed).map_err(|e| e.to_string())?,
        ),
    })
}

/// Boots the backend and service and runs the prefill: the set-up
/// `setup_s` times.
fn build(w: &Workload, alloc: Alloc, seed: u64, lazy_trace: usize) -> Result<Built, String> {
    let probe = Probe::default();
    let svc_seed = DetRng::new(seed, "perfbench-service").next_u64();
    let (mut svc, lazy): (Box<dyn Service>, Option<LazyCtl>) = match (alloc, w.lazy_free) {
        (Alloc::Hermes, false) => {
            let b = RealHermesBackend::new(HermesConfig::default())
                .map_err(|e| format!("heap boot: {e}"))?;
            (
                service(w, Instrumented::new(b, probe.clone()), svc_seed)?,
                None,
            )
        }
        (Alloc::System, false) => {
            let b = RealSystemBackend::new();
            (
                service(w, Instrumented::new(b, probe.clone()), svc_seed)?,
                None,
            )
        }
        (Alloc::Hermes, true) => {
            let heap = Arc::new(
                HermesHeap::new(HermesHeapConfig::default())
                    .map_err(|e| format!("heap boot: {e}"))?,
            );
            heap.start_manager();
            let home = heap.home_arena();
            let (b, ctl) = LazyFree::new(heap, RING, lazy_trace, Some(home));
            let s = service(w, Instrumented::new(b, probe.clone()), svc_seed)?;
            (s, Some(ctl))
        }
        (Alloc::System, true) => {
            let (b, ctl) = LazyFree::new(Arc::new(SystemRaw), RING, lazy_trace, None);
            let s = service(w, Instrumented::new(b, probe.clone()), svc_seed)?;
            (s, Some(ctl))
        }
    };
    for v in Schedule::prefill(w, seed) {
        svc.query(v)
            .map_err(|e| format!("prefill query failed: {e}"))?;
    }
    Ok(Built { svc, probe, lazy })
}

/// Reservation samples taken in the generator's idle time.
#[derive(Default)]
struct ReserveSampler {
    unused_bytes_sum: f64,
    empty: u64,
    n: u64,
    queued_peak: usize,
}

impl Sampler for ReserveSampler {
    fn sample(&mut self, svc: &dyn Service) {
        let s = svc.backend().stats();
        self.unused_bytes_sum += s.reserved_unused_bytes as f64;
        self.empty += u64::from(s.reserved_unused_bytes == 0);
        self.n += 1;
        self.queued_peak = self.queued_peak.max(s.remote_queued);
    }
}

/// Everything one timed pass produced.
struct Pass {
    alloc: Alloc,
    out: PhaseOut,
    setup_s: Vec<f64>,
    /// Measured wall time between the two `/proc` snapshots.
    wall_s: f64,
    fg: ThreadSample,
    runtime: ThreadSample,
    batch: Option<(ThreadSample, u64)>,
    /// Peak resident set of each one-second window of the timed phase
    /// (`VmHWM`, reset at each window's start), in KiB; the last window
    /// is partial.
    rss_peaks_kib: Vec<u64>,
    heap0: Option<HeapSnap>,
    heap1: Option<HeapSnap>,
    samples: ReserveSampler,
    spans: Vec<(&'static str, trace::Recorder)>,
    failures: Vec<String>,
}

impl Pass {
    fn sorted_latency(&self) -> Vec<u64> {
        let mut v = self.out.latency_ns.clone();
        v.sort_unstable();
        v
    }
}

/// Runs `n` timed set-ups, each torn down before the next starts, and
/// keeps the last.
fn timed_setups(
    w: &Workload,
    alloc: Alloc,
    seed: u64,
    n: usize,
    lazy_trace: usize,
    times: &mut Vec<f64>,
) -> Result<Built, String> {
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        let b = build(w, alloc, seed, lazy_trace)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(b);
    }
    Ok(last.expect("at least one set-up"))
}

/// Boots, runs one timed open-loop pass, and checks the result.
fn run_pass(
    w: &Workload,
    alloc: Alloc,
    seed: u64,
    seconds: f64,
    setups: usize,
    traced: bool,
) -> Result<Pass, String> {
    let sched = Schedule::open_loop(w, seed, seconds);
    let deletes = w.svc == Svc::Redis;
    // Room for every span a query can open (root, service, backend and
    // direct runtime calls) plus the flush frees of the LSM workload, up
    // to a fixed buffer; a full buffer stops tracing further queries.
    let cap = if traced {
        (sched.len() * 12 + 4096).min(MAX_SPANS)
    } else {
        0
    };
    let before = setups.div_ceil(2);
    let mut setup_s = Vec::with_capacity(setups);
    let mut built = timed_setups(w, alloc, seed, before, cap / 2, &mut setup_s)?;
    let batch = w.batch.then(Batch::start);
    // Warm up at the offered rate, untimed, so the timed phase starts in
    // steady state (thread caches filled, the manager's reserve sized to
    // the load) rather than in the ramp after the prefill.
    let warm = Schedule::open_loop(w, seed ^ WARMUP_STREAM, WARMUP_S);
    let warm_out = load::run_phase(built.svc.as_mut(), &warm, deletes, w.slo_us, None);
    if warm_out.failed + warm_out.unsent > 0 {
        if let Some(b) = batch {
            b.stop();
        }
        return Err(format!(
            "warm-up: {} queries failed, {} unsent",
            warm_out.failed, warm_out.unsent
        ));
    }
    if traced {
        trace::install(cap);
        if let Some(l) = &built.lazy {
            l.start_trace();
        }
    }
    let load_tid = procfs::current_tid().unwrap_or(0);
    let heap0 = built.heap();
    let mut own = vec![load_tid];
    own.extend(built.lazy.as_ref().map(LazyCtl::tid));
    own.extend(batch.as_ref().map(|b| b.tid));
    let mut failures = Vec::new();
    let monitor = procfs::PeakMonitor::start(RSS_WINDOW);
    if monitor.is_none() {
        failures
            .push("the kernel refused to reset VmHWM, so rss_peak_mib cannot be measured".into());
    }
    own.extend(monitor.as_ref().map(|m| m.tid));
    let threads0 = procfs::read_all_threads();
    let t0 = Instant::now();
    let touched0 = batch.as_ref().map_or(0, Batch::touched);

    let mut sampler = ReserveSampler::default();
    let out = load::run_phase(
        built.svc.as_mut(),
        &sched,
        deletes,
        w.slo_us,
        traced.then_some(&mut sampler as &mut dyn Sampler),
    );

    let threads1 = procfs::read_all_threads();
    let wall_s = t0.elapsed().as_secs_f64();
    let rss_peaks_kib = monitor.map_or_else(Vec::new, procfs::PeakMonitor::stop);
    let heap1 = built.heap();
    let delta = |tid: u64| match (threads0.get(&tid), threads1.get(&tid)) {
        (Some((_, a)), Some((_, b))) => b.since(a),
        _ => ThreadSample::default(),
    };
    let fg = delta(load_tid);
    let runtime = procfs::others_since(&threads0, &threads1, &own);
    let batch = batch.map(|b| {
        let sample = (delta(b.tid), b.touched() - touched0);
        b.stop();
        sample
    });
    let mut spans = Vec::new();
    if let Some(rec) = trace::take() {
        spans.push(("load", rec));
    }
    if let Some(lazy) = built.lazy.take() {
        let report = lazy.finish();
        if report.bad_patterns > 0 {
            failures.push(format!(
                "lazy-free thread found {} records with their first write overwritten",
                report.bad_patterns
            ));
        }
        if let Some(rec) = report.trace {
            spans.push(("lazy-free", rec));
        }
    }
    check(w, alloc, &built, &out, warm.len(), heap0, &mut failures);
    for (thread, rec) in &spans {
        check_spans(thread, rec, &mut failures);
    }
    drop(built);
    if setups > before {
        timed_setups(w, alloc, seed, setups - before, 0, &mut setup_s)?;
    }
    Ok(Pass {
        alloc,
        out,
        setup_s,
        wall_s,
        fg,
        runtime,
        batch,
        rss_peaks_kib,
        heap0,
        heap1,
        samples: sampler,
        spans,
        failures,
    })
}

/// The correctness checks run after every pass; each failure fails the
/// run.
fn check(
    w: &Workload,
    alloc: Alloc,
    built: &Built,
    out: &PhaseOut,
    warmed: usize,
    heap0: Option<HeapSnap>,
    failures: &mut Vec<String>,
) {
    let b = built.svc.backend();
    if let Err(e) = b.check() {
        failures.push(format!("heap integrity: {e}"));
    }
    let s = b.stats();
    if s.alloc_count.checked_sub(s.free_count) != Some(s.live) {
        failures.push(format!(
            "conservation: {} allocs - {} frees != {} live",
            s.alloc_count, s.free_count, s.live
        ));
    }
    if s.committed_bytes > s.backing_reserved_bytes && alloc == Alloc::Hermes {
        failures.push(format!(
            "committed {} B exceeds the backing reservation {} B",
            s.committed_bytes, s.backing_reserved_bytes
        ));
    }
    if out.failed == 0 && out.unsent == 0 {
        let inserts = w.prefill + warmed + out.latency_ns.len();
        match w.svc {
            // One entry and one value per record; every query inserts a
            // record and deletes one.
            Svc::Redis if s.live != 2 * w.prefill as u64 => failures.push(format!(
                "store holds {} allocations, expected {} (flat live set)",
                s.live,
                2 * w.prefill
            )),
            Svc::Rocksdb if built.svc.stored_bytes() != inserts * 200 * 1024 => {
                failures.push(format!(
                    "store holds {} B after {inserts} inserts of 200 KiB",
                    built.svc.stored_bytes()
                ))
            }
            _ => {}
        }
    }
    if let Some(h) = built.heap() {
        if h.counters.remote_lock_falls != 0 {
            failures.push(format!(
                "{} remote frees fell back to the locked path",
                h.counters.remote_lock_falls
            ));
        }
        let remote = h
            .counters
            .remote_frees
            .saturating_sub(heap0.map_or(0, |h0| h0.counters.remote_frees));
        if w.lazy_free && h.arenas < 2 {
            failures.push(format!(
                "the heap has {} arena, so lazy frees cannot cross arenas",
                h.arenas
            ));
        } else if w.lazy_free && remote == 0 {
            failures.push("lazy frees never reached the remote-free inbox".into());
        }
    }
}

/// Self times partition each query: summed over a root span's subtree
/// they equal the root's duration.
fn check_spans(thread: &str, rec: &trace::Recorder, failures: &mut Vec<String>) {
    if rec.dropped() > 0 {
        failures.push(format!(
            "{thread}: {} spans did not fit the buffer",
            rec.dropped()
        ));
        return;
    }
    let spans = rec.spans();
    if rec.closed() {
        println!(
            "  {thread}: span buffer filled; {} spans recorded",
            spans.len()
        );
    }
    let selfs = trace::self_times(spans);
    // Walk up to each span's root; parents precede children.
    let mut root = vec![0usize; spans.len()];
    let mut sum = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = if s.parent == trace::NO_PARENT {
            i
        } else {
            root[s.parent as usize]
        };
        sum[root[i]] += selfs[i];
    }
    let bad = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.parent == trace::NO_PARENT && sum[*i] != s.dur())
        .count();
    if bad > 0 {
        failures.push(format!(
            "{thread}: {bad} span trees whose self times do not sum to the root"
        ));
    }
}

/// Nearest-rank percentile of sorted samples, with the count beyond it.
fn pct(sorted: &[u64], q: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Metrics in print order: name, value, unit, note.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str, String)>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push((name.into(), value, unit, note.into()));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, v, unit, _)) in self.metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s + "}}"
    }
}

fn mib(bytes: f64) -> f64 {
    bytes / (1u64 << 20) as f64
}

/// CPU of the threads the benchmark did not start (the runtime's
/// manager) over the timed phase, in % of one core.
fn runtime_cpu_pct(p: &Pass) -> f64 {
    p.runtime.cpu_ns() as f64 / (p.wall_s * 1e9) * 100.0
}

/// Prints a pass's p50, p90, p99 and p99.9 query latency, each with its
/// sample count, and returns them in microseconds. A percentile is
/// reported only where at least [`MIN_BEYOND`] samples lie beyond it.
fn latency_report(sorted: &[u64]) -> [Option<f64>; 4] {
    let n = sorted.len();
    [
        ("query_p50_us", 0.50),
        ("query_p90_us", 0.90),
        ("query_p99_us", 0.99),
        ("query_p999_us", 0.999),
    ]
    .map(|(name, q)| match pct(sorted, q) {
        Some((v, beyond)) if beyond >= MIN_BEYOND => {
            let us = v as f64 / 1e3;
            println!("  {name} = {us:.4} us  ({n} samples, {beyond} beyond)");
            Some(us)
        }
        _ => {
            println!("  {name}: not reported, fewer than {MIN_BEYOND} of {n} samples beyond it");
            None
        }
    })
}

/// Share of all queries sent that failed, went unsent or exceeded the
/// workload's latency limit, with the counts behind it.
fn slo_violation_pct(p: &Pass) -> (f64, String) {
    let o = &p.out;
    (
        (o.failed + o.unsent + o.over_limit) as f64 / o.attempted.max(1) as f64 * 100.0,
        format!(
            "{} over the limit, {} failed, {} unsent of {} queries",
            o.over_limit, o.failed, o.unsent, o.attempted
        ),
    )
}

/// The end-to-end metrics of an untraced pass: the p90 of the one-second
/// peak resident sets (the whole-phase peak is one overshoot of the
/// reserve, which some runs have and others not) and the median set-up
/// time. Query latency, the SLO-violation share and manager CPU are
/// printed with their sample counts but are not in the result: on a
/// 2-core VM they did not repeat from run to run within the largest
/// allowed bound (the traced run reports them per layer).
fn end_to_end(r: &mut Report, p: &Pass) {
    latency_report(&p.sorted_latency());
    let (slo, note) = slo_violation_pct(p);
    println!("  slo_violation_pct = {slo:.4} %  ({note})");
    println!(
        "  runtime_cpu_pct = {:.4} %  (threads the benchmark did not start)",
        runtime_cpu_pct(p)
    );
    let list: Vec<String> = p
        .rss_peaks_kib
        .iter()
        .map(|k| format!("{:.1}", *k as f64 / 1024.0))
        .collect();
    println!("  window rss peaks (MiB): {}", list.join(" "));
    // The last window is partial; with only one, it is all there is.
    let whole = match p.rss_peaks_kib.len() {
        0 | 1 => &p.rss_peaks_kib[..],
        n => &p.rss_peaks_kib[..n - 1],
    };
    let mut peaks = whole.to_vec();
    peaks.sort_unstable();
    r.add(
        "rss_peak_mib",
        p_or_zero(&peaks, 0.90) / 1024.0,
        "MiB",
        format!(
            "p90 of {} one-second VmHWM window peaks; whole-phase peak {:.1}",
            peaks.len(),
            p.rss_peaks_kib.iter().copied().max().unwrap_or(0) as f64 / 1024.0
        ),
    );
    r.add(
        "setup_s",
        median(&p.setup_s),
        "s",
        format!("median of {} set-ups: {:?}", p.setup_s.len(), p.setup_s),
    );
}

fn batch_mib_s(p: &Pass) -> f64 {
    p.batch
        .map_or(0.0, |(_, bytes)| mib(bytes as f64) / p.wall_s)
}

/// Spans of one kind, by duration, from every thread of a pass.
fn durations(p: &Pass, kind: trace::Kind) -> Vec<u64> {
    let mut v: Vec<u64> = p
        .spans
        .iter()
        .flat_map(|(_, rec)| {
            rec.spans()
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.dur())
        })
        .collect();
    v.sort_unstable();
    v
}

fn p_or_zero(sorted: &[u64], q: f64) -> f64 {
    pct(sorted, q).map_or(0.0, |(v, _)| v as f64)
}

/// The per-layer metrics of a traced run: `base` untraced, `traced`, and
/// the `real:system` reference.
fn per_layer(r: &mut Report, w: &Workload, base: &Pass, traced: &Pass, reference: &Pass) {
    use trace::Kind;
    let queries = traced.out.latency_ns.len().max(1) as f64;
    let kq = queries / 1e3;
    let secs = traced.wall_s;

    // services
    let traced_queries = durations(traced, Kind::Query).len().max(1) as f64;
    let (mut svc_self, mut svc_total, mut malloc_total) = (0u64, 0u64, 0u64);
    for (_, rec) in &traced.spans {
        let selfs = trace::self_times(rec.spans());
        for (s, own) in rec.spans().iter().zip(selfs) {
            match s.kind {
                Kind::SvcQuery | Kind::SvcDelete => {
                    svc_self += own;
                    svc_total += s.dur();
                }
                Kind::BackendMalloc => malloc_total += s.dur(),
                _ => {}
            }
        }
    }
    r.add(
        "services.self_us_per_query",
        svc_self as f64 / 1e3 / traced_queries,
        "us",
        format!(
            "svc.query + svc.delete minus their backend spans, {traced_queries} traced queries"
        ),
    );
    let deletes = durations(traced, Kind::SvcDelete);
    r.add(
        "services.delete_p99_us",
        p_or_zero(&deletes, 0.99) / 1e3,
        "us",
        format!("{} svc.delete spans", deletes.len()),
    );

    // allocators.real
    let mallocs = durations(traced, Kind::BackendMalloc);
    let frees = durations(traced, Kind::BackendFree);
    r.add(
        "backend.malloc_p50_ns",
        p_or_zero(&mallocs, 0.50),
        "ns",
        format!("{} spans", mallocs.len()),
    );
    r.add("backend.malloc_p99_ns", p_or_zero(&mallocs, 0.99), "ns", "");
    r.add(
        "backend.free_p99_ns",
        p_or_zero(&frees, 0.99),
        "ns",
        format!("{} spans", frees.len()),
    );
    r.add(
        "backend.malloc_share_pct",
        malloc_total as f64 / svc_total.max(1) as f64 * 100.0,
        "%",
        "backend.malloc time / service time",
    );

    // core.rt, core.rt.manager
    let (c0, c1) = match (traced.heap0, traced.heap1) {
        (Some(a), Some(b)) => (a, b),
        _ => (HeapSnap::default(), HeapSnap::default()),
    };
    let d = |f: fn(&HeapSnap) -> u64| f(&c1).saturating_sub(f(&c0)) as f64;
    let small = d(|h| h.counters.fast_small + h.counters.slow_small);
    let large = d(|h| h.counters.fast_large + h.counters.slow_large);
    let share = |x: f64, of: f64| if of > 0.0 { x / of * 100.0 } else { 0.0 };
    r.add(
        "rt.tcache_hit_pct",
        share(d(|h| h.counters.tcache_hits), small),
        "%",
        format!("{small} small allocations"),
    );
    r.add(
        "rt.tcache_refills_per_kq",
        d(|h| h.counters.tcache_refills) / kq,
        "count",
        "",
    );
    r.add(
        "rt.tcache_flushes_per_kq",
        d(|h| h.counters.tcache_flushes) / kq,
        "count",
        "",
    );
    r.add(
        "rt.small_slow_pct",
        share(d(|h| h.counters.slow_small), small),
        "%",
        "",
    );
    r.add(
        "rt.large_cold_pct",
        share(d(|h| h.counters.slow_large), large),
        "%",
        format!("{large} large allocations"),
    );
    r.add(
        "rt.remote_frees_per_kq",
        d(|h| h.counters.remote_frees) / kq,
        "count",
        "",
    );
    r.add(
        "rt.remote_drained_per_kq",
        d(|h| h.counters.remote_drained) / kq,
        "count",
        "",
    );
    r.add(
        "rt.remote_queued_peak_kib",
        traced.samples.queued_peak as f64 / 1024.0,
        "KiB",
        "sampled",
    );
    r.add(
        "rt.remote_lock_falls",
        c1.counters.remote_lock_falls as f64,
        "count",
        "must be 0",
    );
    let allocs = durations(traced, Kind::RtAllocate);
    let deallocs = durations(traced, Kind::RtDeallocate);
    r.add(
        "rt.allocate_p99_ns",
        p_or_zero(&allocs, 0.99),
        "ns",
        format!("{} direct spans", allocs.len()),
    );
    r.add(
        "rt.deallocate_p99_ns",
        p_or_zero(&deallocs, 0.99),
        "ns",
        format!("{} direct spans", deallocs.len()),
    );
    r.add(
        "manager.busy_pct",
        d(|h| h.counters.manager_busy_ns) / (secs * 1e9) * 100.0,
        "%",
        "",
    );
    r.add(
        "manager.rounds_per_s",
        d(|h| h.counters.manager_rounds) / secs,
        "1/s",
        "",
    );
    r.add(
        "manager.reserved_mib_per_s",
        mib(d(|h| h.counters.reserved_bytes)) / secs,
        "MiB/s",
        "",
    );
    r.add(
        "manager.trimmed_mib_per_s",
        mib(d(|h| h.counters.trimmed_bytes)) / secs,
        "MiB/s",
        "",
    );
    r.add(
        "manager.decommitted_mib_per_s",
        mib(d(|h| h.counters.decommitted_bytes)) / secs,
        "MiB/s",
        "",
    );
    let s = &traced.samples;
    r.add(
        "reserve.unused_mib_mean",
        if s.n > 0 {
            mib(s.unused_bytes_sum / s.n as f64)
        } else {
            0.0
        },
        "MiB",
        format!("{} samples", s.n),
    );
    r.add(
        "reserve.empty_pct",
        share(s.empty as f64, s.n as f64),
        "%",
        "",
    );

    // core.platform, seen from /proc
    r.add(
        "fg.minflt_per_query",
        traced.fg.minflt as f64 / queries,
        "count",
        "",
    );
    r.add("fg.vcsw_per_kq", traced.fg.vcsw as f64 / kq, "count", "");
    r.add("fg.nvcsw_per_kq", traced.fg.nvcsw as f64 / kq, "count", "");
    r.add(
        "runtime.minflt_per_s",
        traced.runtime.minflt as f64 / secs,
        "1/s",
        "",
    );
    r.add(
        "heap.committed_mib_end",
        mib(c1.heap_committed as f64),
        "MiB",
        "",
    );
    r.add(
        "large.committed_mib_end",
        mib(c1.large_committed as f64),
        "MiB",
        "",
    );
    r.add(
        "decommitted_mib",
        mib(d(|h| h.decommitted)),
        "MiB",
        "over the traced pass",
    );

    // end-to-end latency and manager CPU, from the untraced pass
    r.add(
        "runtime_cpu_pct",
        runtime_cpu_pct(base),
        "%",
        "untraced pass; threads the benchmark did not start",
    );
    let (slo, note) = slo_violation_pct(base);
    r.add(
        "tail.slo_violation_pct",
        slo,
        "%",
        format!("untraced pass; {note}"),
    );
    let sorted = base.sorted_latency();
    r.add(
        "tail.query_p50_us",
        p_or_zero(&sorted, 0.50) / 1e3,
        "us",
        format!("untraced pass, {} samples", sorted.len()),
    );
    let [_, _, p99, p999] = latency_report(&sorted);
    for (name, v) in [("tail.query_p99_us", p99), ("tail.query_p999_us", p999)] {
        r.add(
            name,
            v.unwrap_or(0.0),
            "us",
            if v.is_some() {
                "untraced pass"
            } else {
                "not reported: fewer than 10 samples beyond it"
            },
        );
    }

    // harness
    let mut late = base.out.lateness_ns.clone();
    late.sort_unstable();
    r.add(
        "gen.lateness_p99_us",
        p_or_zero(&late, 0.99) / 1e3,
        "us",
        format!("{} unblocked sends of the untraced pass", late.len()),
    );
    r.add(
        "batch.cpu_pct",
        base.batch.map_or(0.0, |(t, _)| {
            t.cpu_ns() as f64 / (base.wall_s * 1e9) * 100.0
        }),
        "%",
        "untraced pass",
    );
    r.add("batch_mib_s", batch_mib_s(base), "MiB/s", "untraced pass");
    let p50 = |p: &Pass| p_or_zero(&p.sorted_latency(), 0.50);
    r.add(
        "trace.overhead_pct",
        (p50(traced) / p50(base).max(1.0) - 1.0) * 100.0,
        "%",
        "traced vs untraced query_p50_us",
    );
    let ref_sorted = reference.sorted_latency();
    r.add(
        "ref_system.query_p50_us",
        p_or_zero(&ref_sorted, 0.50) / 1e3,
        "us",
        "",
    );
    r.add(
        "ref_system.query_p99_us",
        p_or_zero(&ref_sorted, 0.99) / 1e3,
        "us",
        "",
    );
    r.add(
        "ref_system.batch_mib_s",
        batch_mib_s(reference),
        "MiB/s",
        if w.batch { "" } else { "no co-tenant" },
    );
}

fn write_spans(dir: &str, w: &Workload, pass: &Pass) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}.tsv", w.name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "thread\tid\tname\tstart_ns\tend_ns\tparent\tquery")?;
    for (thread, rec) in &pass.spans {
        trace::write_tsv(&mut f, thread, rec.spans())?;
    }
    f.flush()?;
    Ok(path)
}

fn print_shape(a: &Args, arenas: Option<usize>) {
    let w = &a.workload;
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("HERMES_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    env.sort();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("#   why: {}", w.why);
    println!(
        "#   shape: nproc={nproc} kernel={} toolchain={} arenas={} env=[{}] backend={}",
        kernel.trim(),
        env!("PERFBENCH_RUSTC"),
        arenas.map_or("-".into(), |n| n.to_string()),
        env.join(" "),
        a.backend.label(),
    );
    println!(
        "#   load: open loop, Poisson arrivals at {} queries/s; latency limit {} us; prefill {} records{}{}",
        w.rate,
        w.slo_us,
        w.prefill,
        if w.lazy_free { "; frees on a lazy-free thread" } else { "" },
        if w.batch { "; batch co-tenant churning 64 MiB buffers" } else { "" },
    );
}

fn print_pass(label: &str, p: &Pass) {
    let o = &p.out;
    println!(
        "## {label} on {}: sent {} failed {} unsent {} in {:.2} s; gen lateness p99 {:.1} us over {} unblocked sends",
        p.alloc.label(),
        o.attempted - o.unsent,
        o.failed,
        o.unsent,
        p.wall_s,
        p_or_zero(&{
            let mut l = o.lateness_ns.clone();
            l.sort_unstable();
            l
        }, 0.99) / 1e3,
        o.lateness_ns.len()
    );
    for f in &p.failures {
        println!("  CHECK FAILED: {f}");
    }
}

fn print_report(r: &Report) {
    for (name, v, unit, note) in &r.metrics {
        if note.is_empty() {
            println!("  {name} = {v:.4} {unit}");
        } else {
            println!("  {name} = {v:.4} {unit}  ({note})");
        }
    }
}

fn run(a: &Args) -> Result<(Report, bool, u64, u64), String> {
    let w = &a.workload;
    if a.closed_loop {
        let sched = Schedule::open_loop(w, a.seed, a.seconds);
        let mut b = build(w, a.backend, a.seed, 0)?;
        let batch = w.batch.then(Batch::start);
        let qps = load::run_closed_loop(b.svc.as_mut(), &sched, w.svc == Svc::Redis);
        if let Some(b) = batch {
            b.stop();
        }
        print_shape(a, b.heap().map(|h| h.arenas));
        let mut r = Report::default();
        r.add(
            "closed_loop_qps",
            qps,
            "1/s",
            format!("{} queries back to back", sched.len()),
        );
        print_report(&r);
        return Ok((r, true, sched.len() as u64, 0));
    }
    let mut r = Report::default();
    let passes = if a.trace {
        let s = a.seconds / 3.0;
        let base = run_pass(w, Alloc::Hermes, a.seed, s, 1, false)?;
        let traced = run_pass(w, Alloc::Hermes, a.seed, s, 1, true)?;
        let reference = run_pass(w, Alloc::System, a.seed, s, 1, false)?;
        match write_spans(&a.out, w, &traced) {
            Ok(path) => println!("# spans written to {path}"),
            Err(e) => return Err(format!("writing spans: {e}")),
        }
        per_layer(&mut r, w, &base, &traced, &reference);
        vec![
            ("untraced", base),
            ("traced", traced),
            ("reference", reference),
        ]
    } else {
        let p = run_pass(w, a.backend, a.seed, a.seconds, SETUPS, false)?;
        end_to_end(&mut r, &p);
        if w.batch {
            println!("  batch_mib_s = {:.4} MiB/s", batch_mib_s(&p));
        }
        vec![("end-to-end", p)]
    };
    print_shape(
        a,
        passes.iter().find_map(|(_, p)| p.heap1.map(|h| h.arenas)),
    );
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for (label, p) in &passes {
        print_pass(label, p);
        attempted += p.out.attempted;
        failed += p.out.failed + p.out.unsent;
        correct &= p.failures.is_empty();
    }
    print_report(&r);
    Ok((r, correct, attempted, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((r, correct, attempted, failed)) => {
            println!("{}", r.json(correct, attempted.max(1), failed));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
