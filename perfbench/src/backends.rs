//! Benchmark-owned allocation backends.
//!
//! * [`Instrumented`] wraps any backend: it puts `backend.*` spans around
//!   `malloc`, `free` and `access` (live only on a tracing thread), and
//!   publishes the Hermes heap's counters to a [`Probe`] whenever the
//!   harness asks for `stats()` — the service owns the backend and hides
//!   its concrete type, so this is how the harness reads the heap.
//! * [`LazyFree`] serves allocations on the load thread but hands every
//!   free to a second thread, as Redis's lazy-free does; that thread
//!   verifies each record's first-write pattern before freeing it. Over
//!   a [`HermesHeap`] its frees cross arenas, exercising the runtime's
//!   remote-free inbox.

use crate::trace::{self, Kind};
use hermes_allocators::real::RealHermesBackend;
use hermes_allocators::{
    AllocError, AllocHandle, AllocatorBackend, BackendKind, BackendStats, RealSystemBackend,
};
use hermes_core::rt::{CountersSnapshot, HermesHeap, IntegrityError};
use hermes_sim::clock::{ClockHandle, WallClock};
use hermes_sim::time::SimDuration;
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Alignment and first-write byte of every allocation, as in
/// `RealHermesBackend`.
const ALIGN: usize = 16;
const FIRST_WRITE: u8 = 0xA5;

/// Runtime state read at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapSnap {
    /// Merged counters.
    pub counters: CountersSnapshot,
    /// Main-heap committed bytes.
    pub heap_committed: usize,
    /// Large-pool committed bytes.
    pub large_committed: usize,
    /// Bytes decommitted so far (heap + large).
    pub decommitted: u64,
    /// Arena shards.
    pub arenas: usize,
}

impl HeapSnap {
    fn read(heap: &HermesHeap) -> Self {
        let hs = heap.heap_stats();
        let ls = heap.large_stats();
        HeapSnap {
            counters: heap.counters(),
            heap_committed: hs.committed,
            large_committed: ls.committed,
            decommitted: hs.decommitted + ls.decommitted,
            arenas: heap.arena_count(),
        }
    }
}

/// Where [`Instrumented::stats`] publishes the heap snapshot.
pub type Probe = Arc<Mutex<Option<HeapSnap>>>;

/// A backend that may sit on a Hermes heap.
pub trait HeapBacked: AllocatorBackend {
    /// The heap, when there is one.
    fn hermes(&self) -> Option<&HermesHeap>;
}

impl HeapBacked for RealHermesBackend {
    fn hermes(&self) -> Option<&HermesHeap> {
        Some(self.heap())
    }
}

impl HeapBacked for RealSystemBackend {
    fn hermes(&self) -> Option<&HermesHeap> {
        None
    }
}

/// Spans and heap probing around an inner backend.
pub struct Instrumented<B> {
    inner: B,
    probe: Probe,
}

impl<B: HeapBacked> Instrumented<B> {
    /// Wraps `inner`; snapshots land in `probe`.
    pub fn new(inner: B, probe: Probe) -> Self {
        Instrumented { inner, probe }
    }
}

impl<B: HeapBacked> AllocatorBackend for Instrumented<B> {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }
    fn clock(&self) -> ClockHandle {
        self.inner.clock()
    }
    fn malloc(&mut self, size: usize) -> Result<(AllocHandle, SimDuration), AllocError> {
        trace::span(Kind::BackendMalloc, || self.inner.malloc(size))
    }
    fn free(&mut self, handle: AllocHandle) -> SimDuration {
        trace::span(Kind::BackendFree, || self.inner.free(handle))
    }
    fn realloc(
        &mut self,
        handle: AllocHandle,
        new_size: usize,
    ) -> Result<(AllocHandle, SimDuration), AllocError> {
        self.inner.realloc(handle, new_size)
    }
    fn access(&mut self, handle: AllocHandle, bytes: usize) -> SimDuration {
        trace::span(Kind::BackendAccess, || self.inner.access(handle, bytes))
    }
    fn advance(&mut self) {
        self.inner.advance()
    }
    fn stats(&self) -> BackendStats {
        let snap = self.inner.hermes().map(HeapSnap::read);
        *self.probe.lock().unwrap_or_else(|e| e.into_inner()) = snap;
        self.inner.stats()
    }
    fn check(&self) -> Result<(), IntegrityError> {
        self.inner.check()
    }
}

/// Raw allocation underneath [`LazyFree`].
pub trait RawAlloc: Send + Sync + 'static {
    /// Allocates per `layout`.
    ///
    /// # Errors
    ///
    /// The allocator's typed failure.
    fn allocate(&self, layout: Layout) -> Result<NonNull<u8>, AllocError>;

    /// Frees a block from [`RawAlloc::allocate`].
    ///
    /// # Safety
    ///
    /// `p` came from `allocate(layout)` and is freed once.
    unsafe fn deallocate(&self, p: NonNull<u8>, layout: Layout);

    /// The Hermes heap, when this is one.
    fn hermes(&self) -> Option<&HermesHeap>;
}

impl RawAlloc for HermesHeap {
    fn allocate(&self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        trace::span(Kind::RtAllocate, || HermesHeap::allocate(self, layout))
    }
    unsafe fn deallocate(&self, p: NonNull<u8>, layout: Layout) {
        // SAFETY: forwarded caller contract.
        trace::span(Kind::RtDeallocate, || unsafe {
            HermesHeap::deallocate(self, p, layout)
        })
    }
    fn hermes(&self) -> Option<&HermesHeap> {
        Some(self)
    }
}

/// The process allocator, for the reference pass.
#[derive(Debug, Default)]
pub struct SystemRaw;

impl RawAlloc for SystemRaw {
    fn allocate(&self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        // SAFETY: layouts here have non-zero size.
        NonNull::new(unsafe { std::alloc::alloc(layout) }).ok_or(AllocError::Exhausted)
    }
    unsafe fn deallocate(&self, p: NonNull<u8>, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { std::alloc::dealloc(p.as_ptr(), layout) }
    }
    fn hermes(&self) -> Option<&HermesHeap> {
        None
    }
}

fn layout_for(size: usize) -> Layout {
    Layout::from_size_align(size.max(1), ALIGN).expect("benchmark sizes are small")
}

fn elapsed(t: Instant) -> SimDuration {
    SimDuration::from_nanos(t.elapsed().as_nanos() as u64)
}

/// One freed record on its way to the lazy-free thread.
#[derive(Clone, Copy, Default)]
struct Freed {
    addr: usize,
    size: usize,
    query: u32,
}

/// Bounded single-producer single-consumer ring, allocated up front.
struct Ring {
    slots: Box<[std::cell::UnsafeCell<Freed>]>,
    head: AtomicUsize,
    tail: AtomicUsize,
}

// SAFETY: a slot is written only by the producer before it publishes
// `tail`, and read only by the consumer before it publishes `head`.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..capacity).map(|_| Default::default()).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    fn push(&self, f: Freed) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        if tail - self.head.load(Ordering::Acquire) == self.slots.len() {
            return false;
        }
        // SAFETY: the slot is outside the consumer's window (see Sync).
        unsafe { *self.slots[tail % self.slots.len()].get() = f };
        self.tail.store(tail + 1, Ordering::Release);
        true
    }

    fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire)
    }

    fn pop(&self) -> Option<Freed> {
        let head = self.head.load(Ordering::Relaxed);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: the slot was published by the producer (see Sync).
        let f = unsafe { *self.slots[head % self.slots.len()].get() };
        self.head.store(head + 1, Ordering::Release);
        Some(f)
    }
}

/// State shared with the lazy-free thread.
struct Shared<A> {
    raw: Arc<A>,
    ring: Ring,
    freed: AtomicU64,
    trace_capacity: usize,
    ctl: Arc<Control>,
}

/// The lazy-free thread's control state, which does not depend on the
/// allocator it frees into.
struct Control {
    stop: AtomicBool,
    bad_pattern: AtomicU64,
    worker: Mutex<Option<JoinHandle<LazyReport>>>,
    worker_tid: u64,
    trace_on: AtomicBool,
}

/// What the lazy-free thread reports when it ends.
#[derive(Debug, Default)]
pub struct LazyReport {
    /// Records whose first-write pattern was found overwritten.
    pub bad_patterns: u64,
    /// Its spans, when it traced.
    pub trace: Option<trace::Recorder>,
}

/// The harness's handle on a [`LazyFree`] backend's thread, usable while
/// a service owns the backend.
pub struct LazyCtl(Arc<Control>);

impl LazyCtl {
    /// Kernel tid of the lazy-free thread.
    pub fn tid(&self) -> u64 {
        self.0.worker_tid
    }

    /// Starts recording the thread's spans (when it has a trace buffer).
    pub fn start_trace(&self) {
        self.0.trace_on.store(true, Ordering::Release);
    }

    /// Waits until every queued free has run, then stops the thread and
    /// returns its report. Later frees run on the caller's thread.
    pub fn finish(&self) -> LazyReport {
        let h = self
            .0
            .worker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let Some(h) = h else {
            return LazyReport::default();
        };
        self.0.stop.store(true, Ordering::Release);
        let mut report = h.join().expect("lazy-free thread panicked");
        report.bad_patterns = self.0.bad_pattern.load(Ordering::Acquire);
        report
    }
}

/// A backend whose frees run on a second thread.
pub struct LazyFree<A: RawAlloc> {
    shared: Arc<Shared<A>>,
    slots: Vec<Option<(usize, usize)>>,
    free_slots: Vec<usize>,
    live_bytes: usize,
    allocs: u64,
    /// Frees the service has issued; `freed` counts those that ran.
    released: u64,
    clock: WallClock,
}

/// Verifies that the whole record still holds the first-write pattern.
///
/// # Safety
///
/// `[addr, addr + size)` is a live allocation.
unsafe fn pattern_intact(addr: usize, size: usize) -> bool {
    let word = u64::from_ne_bytes([FIRST_WRITE; 8]);
    let p = addr as *const u8;
    let mut i = 0;
    while i + 8 <= size {
        // SAFETY: within the record; unaligned read is allowed.
        if unsafe { std::ptr::read_unaligned(p.add(i) as *const u64) } != word {
            return false;
        }
        i += 8;
    }
    // SAFETY: within the record.
    (i..size).all(|j| unsafe { *p.add(j) } == FIRST_WRITE)
}

impl<A: RawAlloc> LazyFree<A> {
    /// A backend over `raw` with a ring of `ring_capacity` queued frees,
    /// whose lazy-free thread traces into a buffer of `trace_capacity`
    /// spans (0 = untraced) once [`LazyCtl::start_trace`] is called. Over
    /// a Hermes heap with several arenas the thread is re-spawned until
    /// its home arena differs from `avoid_home`, so that its frees cross
    /// arenas.
    pub fn new(
        raw: Arc<A>,
        ring_capacity: usize,
        trace_capacity: usize,
        avoid_home: Option<usize>,
    ) -> (Self, LazyCtl) {
        let arenas = raw.hermes().map_or(1, HermesHeap::arena_count);
        let mut spawned = None;
        for _ in 0..arenas.max(1) {
            let (tx, rx) = std::sync::mpsc::channel();
            let (go_tx, go_rx) = std::sync::mpsc::channel::<Option<Arc<Shared<A>>>>();
            let raw2 = Arc::clone(&raw);
            let h = std::thread::Builder::new()
                .name("lazy-free".into())
                .spawn(move || {
                    let home = raw2.hermes().map(HermesHeap::home_arena);
                    let accept = arenas < 2 || home != avoid_home;
                    let tid = crate::procfs::current_tid().unwrap_or(0);
                    let _ = tx.send((accept, tid));
                    let Ok(Some(sh)) = go_rx.recv() else {
                        return LazyReport::default();
                    };
                    lazy_loop(&sh);
                    LazyReport {
                        bad_patterns: 0,
                        trace: trace::take(),
                    }
                })
                .expect("spawn lazy-free thread");
            let (accept, tid) = rx.recv().expect("lazy-free thread reports its home");
            if accept {
                spawned = Some((h, tid, go_tx));
                break;
            }
            let _ = go_tx.send(None);
            let _ = h.join();
        }
        let (h, tid, go_tx) = spawned.expect("a lazy-free thread with a distinct home arena");
        let ctl = Arc::new(Control {
            stop: AtomicBool::new(false),
            bad_pattern: AtomicU64::new(0),
            worker: Mutex::new(None),
            worker_tid: tid,
            trace_on: AtomicBool::new(false),
        });
        let shared = Arc::new(Shared {
            raw,
            ring: Ring::new(ring_capacity),
            freed: AtomicU64::new(0),
            trace_capacity,
            ctl: Arc::clone(&ctl),
        });
        let _ = go_tx.send(Some(Arc::clone(&shared)));
        *ctl.worker.lock().unwrap_or_else(|e| e.into_inner()) = Some(h);
        let ctl = LazyCtl(ctl);
        (
            LazyFree {
                shared,
                slots: Vec::new(),
                free_slots: Vec::new(),
                live_bytes: 0,
                allocs: 0,
                released: 0,
                clock: WallClock::new(),
            },
            ctl,
        )
    }
}

fn lazy_loop<A: RawAlloc>(sh: &Shared<A>) {
    let mut tracing = false;
    loop {
        if !tracing && sh.trace_capacity > 0 && sh.ctl.trace_on.load(Ordering::Acquire) {
            trace::install(sh.trace_capacity);
            tracing = true;
        }
        let mut did = false;
        while let Some(f) = sh.ring.pop() {
            did = true;
            // SAFETY: the record is live until freed below.
            if !unsafe { pattern_intact(f.addr, f.size) } {
                sh.ctl.bad_pattern.fetch_add(1, Ordering::Relaxed);
            }
            trace::set_query(f.query);
            // SAFETY: allocated by `LazyFree::malloc` with this layout,
            // handed over exactly once.
            unsafe {
                sh.raw.deallocate(
                    NonNull::new_unchecked(f.addr as *mut u8),
                    layout_for(f.size),
                )
            };
            sh.freed.fetch_add(1, Ordering::Release);
        }
        if !did {
            if sh.ctl.stop.load(Ordering::Acquire) && sh.ring.is_empty() {
                return;
            }
            // Redis's lazy-free thread sleeps on a condition variable
            // when idle; a sleep keeps this one off the CPU too. At 1 ms
            // the ring holds ~40 queued frees at 40k queries/s; 100 us
            // sleeps cost ten times the timer wake-ups, which on a 2-core
            // VM slowed the set-up beside them by ~8 %.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl<A: RawAlloc> HeapBacked for LazyFree<A> {
    fn hermes(&self) -> Option<&HermesHeap> {
        self.shared.raw.hermes()
    }
}

impl<A: RawAlloc> AllocatorBackend for LazyFree<A> {
    fn kind(&self) -> BackendKind {
        if self.shared.raw.hermes().is_some() {
            BackendKind::RealHermes
        } else {
            BackendKind::RealSystem
        }
    }

    fn clock(&self) -> ClockHandle {
        ClockHandle::Wall(self.clock)
    }

    fn malloc(&mut self, size: usize) -> Result<(AllocHandle, SimDuration), AllocError> {
        let layout = layout_for(size);
        let t = Instant::now();
        let p = self.shared.raw.allocate(layout)?;
        // First write, as `RealHermesBackend::malloc` does.
        // SAFETY: fresh allocation of `layout.size()` bytes.
        unsafe { std::ptr::write_bytes(p.as_ptr(), FIRST_WRITE, layout.size()) };
        let lat = elapsed(t);
        self.allocs += 1;
        self.live_bytes += size;
        let entry = Some((p.as_ptr() as usize, size));
        let h = match self.free_slots.pop() {
            Some(i) => {
                self.slots[i] = entry;
                i
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        Ok((AllocHandle(h as u64), lat))
    }

    fn free(&mut self, handle: AllocHandle) -> SimDuration {
        let Some((addr, size)) = self.slots.get_mut(handle.0 as usize).and_then(Option::take)
        else {
            return SimDuration::ZERO;
        };
        self.free_slots.push(handle.0 as usize);
        self.live_bytes -= size;
        let t = Instant::now();
        let f = Freed {
            addr,
            size,
            query: current_query(),
        };
        self.released += 1;
        if !self.shared.ctl.stop.load(Ordering::Acquire) {
            while !self.shared.ring.push(f) {
                std::thread::yield_now();
            }
        } else {
            self.free_now(f);
        }
        elapsed(t)
    }

    fn realloc(
        &mut self,
        handle: AllocHandle,
        new_size: usize,
    ) -> Result<(AllocHandle, SimDuration), AllocError> {
        let (h, lat) = self.malloc(new_size)?;
        Ok((h, lat + self.free(handle)))
    }

    fn access(&mut self, handle: AllocHandle, bytes: usize) -> SimDuration {
        let Some(Some((addr, size))) = self.slots.get(handle.0 as usize).copied() else {
            return SimDuration::ZERO;
        };
        let t = Instant::now();
        let mut sum = 0u64;
        let mut i = 0;
        while i < bytes.min(size) {
            // SAFETY: live, initialised allocation.
            sum = sum
                .wrapping_add(unsafe { std::ptr::read_volatile((addr + i) as *const u8) } as u64);
            i += 64;
        }
        std::hint::black_box(sum);
        elapsed(t)
    }

    fn advance(&mut self) {}

    fn stats(&self) -> BackendStats {
        let freed = self.shared.freed.load(Ordering::Acquire);
        let live_handles = (self.slots.len() - self.free_slots.len()) as u64;
        let (rsv, busy, rounds, committed, backing, decommitted, queued) =
            match self.shared.raw.hermes() {
                Some(h) => {
                    let c = h.counters();
                    let hs = h.heap_stats();
                    let ls = h.large_stats();
                    (
                        h.reserved_unused_bytes(),
                        SimDuration::from_nanos(c.manager_busy_ns),
                        c.manager_rounds,
                        hs.committed + ls.committed,
                        hs.backing_reserved + ls.backing_reserved,
                        hs.decommitted + ls.decommitted,
                        c.remote_queued_bytes as usize,
                    )
                }
                None => (0, SimDuration::ZERO, 0, 0, 0, 0, 0),
            };
        BackendStats {
            alloc_count: self.allocs,
            free_count: freed,
            realloc_count: 0,
            // Records still queued for the lazy-free thread are live
            // memory until that thread frees them.
            live: live_handles + (self.released - freed),
            live_bytes: self.live_bytes,
            reserved_unused_bytes: rsv,
            management_busy: busy,
            manager_rounds: rounds,
            committed_bytes: committed,
            backing_reserved_bytes: backing,
            decommitted_bytes: decommitted,
            remote_queued: queued,
        }
    }

    fn check(&self) -> Result<(), IntegrityError> {
        self.shared
            .raw
            .hermes()
            .map_or(Ok(()), HermesHeap::check_integrity)
    }
}

impl<A: RawAlloc> LazyFree<A> {
    /// Frees on the calling thread, once the lazy-free thread is gone.
    fn free_now(&self, f: Freed) {
        // SAFETY: a live record of this backend, freed exactly once.
        unsafe {
            self.shared.raw.deallocate(
                NonNull::new_unchecked(f.addr as *mut u8),
                layout_for(f.size),
            )
        };
        self.shared.freed.fetch_add(1, Ordering::Release);
    }
}

impl<A: RawAlloc> Drop for LazyFree<A> {
    fn drop(&mut self) {
        LazyCtl(Arc::clone(&self.shared.ctl)).finish();
        for (addr, size) in std::mem::take(&mut self.slots).into_iter().flatten() {
            self.free_now(Freed {
                addr,
                size,
                query: 0,
            });
        }
        if let Some(h) = self.shared.raw.hermes() {
            h.drain_thread_cache();
            h.stop_manager();
        }
    }
}

thread_local! {
    static QUERY: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Tags the calling thread's work with query `q` (spans and the records
/// it hands to the lazy-free thread).
pub fn set_query(q: u32) {
    QUERY.with(|c| c.set(q));
    trace::set_query(q);
}

fn current_query() -> u32 {
    QUERY.with(std::cell::Cell::get)
}
