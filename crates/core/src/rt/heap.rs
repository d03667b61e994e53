//! The main-heap allocator: a boundary-tag, binned free-list malloc over a
//! single arena, with an emulated program break.
//!
//! The layout mirrors Glibc's ptmalloc main heap (paper §2.1): an
//! *allocated area* of boundary-tagged chunks followed by the *top chunk*,
//! a contiguous free region ending at the program break. Small requests
//! are served from free bins or carved from the top chunk; when the top
//! chunk runs out the break is extended (`sbrk`). What makes expansion
//! slow in practice is constructing virtual-physical mappings for fresh
//! pages — modelled here by really building the mappings of
//! never-committed arena pages ([`Arena::touch`]) — and Hermes'
//! management thread extends the break and builds its mappings ahead of
//! demand so allocations stay on the fast path. It does the building
//! with the heap lock dropped (`RawHeap::sbrk_extend` hands out the
//! range, `RawHeap::publish_commit` raises the watermark afterwards).
//!
//! Chunk format (16-byte header, 16-byte granularity):
//!
//! ```text
//! offset 0: prev_size  — size of the physically previous chunk
//! offset 8: size|flags — chunk size (multiple of 16) | bit0 = in-use
//! offset 16: payload   — user data; when free: next/prev free-list links
//! ```
//!
//! The first word at the top-chunk offset always stamps the size of the
//! last allocated chunk, so carving from the top finds a valid `prev_size`
//! already in place.

use super::arena::{Arena, PAGE};
use super::error::{IntegrityError, IntegrityViolation};
use std::fmt;
use std::ptr::NonNull;

/// Header size in bytes.
pub const HDR: usize = 16;
/// Allocation granularity.
pub const ALIGN: usize = 16;
/// Smallest chunk (header + room for the two free-list links).
pub const MIN_CHUNK: usize = 32;

// Remote-free staging (`rt::remote`) threads an intrusive next pointer
// through the first payload word of dead blocks; every chunk payload
// must have room for it.
const _: () = assert!(MIN_CHUNK - HDR >= std::mem::size_of::<usize>());

const NIL: usize = usize::MAX;
/// Small bins: exact-size classes 32, 48, ..., 1024.
const SMALL_MAX: usize = 1024;
const SMALL_BINS: usize = (SMALL_MAX - MIN_CHUNK) / ALIGN + 1; // 63
/// Large bins: power-of-two groups (1 KiB, 2 KiB], ..., (64 KiB, 128 KiB], (128 KiB, inf).
const LARGE_BINS: usize = 8;
const NBINS: usize = SMALL_BINS + LARGE_BINS;

/// Counters describing heap state (all byte quantities).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes handed out to live allocations (chunk sizes incl. headers).
    pub in_use: usize,
    /// Bytes sitting in free bins.
    pub binned: usize,
    /// Program-break offset (heap segment size).
    pub brk: usize,
    /// Touched (mapping-constructed) bytes.
    pub committed: usize,
    /// Total reserved address range of the backing arena — the ceiling
    /// on-demand growth can extend the heap segment to.
    pub backing_reserved: usize,
    /// Live allocation count.
    pub live: usize,
    /// Pages touched by foreground allocations (the slow path Hermes
    /// eliminates).
    pub demand_touched_pages: u64,
    /// Bytes returned to the kernel (`madvise(DONTNEED)`) by trim
    /// decommits, cumulative.
    pub decommitted: u64,
}

impl HeapStats {
    /// Adds `other` into `self` field-wise; used to merge per-arena
    /// statistics into the runtime-wide view.
    pub fn accumulate(&mut self, other: &HeapStats) {
        self.in_use += other.in_use;
        self.binned += other.binned;
        self.brk += other.brk;
        self.committed += other.committed;
        self.backing_reserved += other.backing_reserved;
        self.live += other.live;
        self.demand_touched_pages += other.demand_touched_pages;
        self.decommitted += other.decommitted;
    }
}

/// Errors from heap operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The arena is exhausted: the program break cannot grow further.
    OutOfSpace,
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfSpace => write!(f, "heap arena exhausted"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Fresh break whose mappings the management thread builds with the heap
/// lock dropped: returned by [`RawHeap::sbrk_extend`], published by
/// [`RawHeap::publish_commit`].
#[derive(Debug)]
pub(crate) struct PendingCommit {
    /// First uncommitted page of the range.
    base: NonNull<u8>,
    /// Bytes from `base` to `end` (0 when already committed).
    len: usize,
    /// Heap offset the committed watermark may rise to.
    end: usize,
}

impl PendingCommit {
    /// Builds the range's mappings with one `MADV_POPULATE_WRITE` call.
    /// Safe without the heap lock: the call never writes to the range,
    /// so blocks a foreground carve hands out of it meanwhile keep what
    /// their owners store. Returns `false` where the kernel refuses;
    /// [`RawHeap::publish_commit`] then commits the range under the lock.
    pub(crate) fn populate(&self) -> bool {
        // SAFETY: the range lies inside the heap's arena, whose mapping
        // lives as long as the heap and never shrinks its capacity.
        unsafe { super::arena::populate(self.base, self.len) }
    }
}

/// The raw (unsynchronised) heap. Embedders wrap it in a lock; the heap
/// lock serialisation is precisely what the paper's gradual reservation
/// is designed around.
pub struct RawHeap {
    arena: Arena,
    /// Start of the top chunk.
    top_off: usize,
    /// Logical program break: end of the heap segment.
    brk_off: usize,
    /// Touched watermark: bytes `[0, committed_off)` have mappings.
    committed_off: usize,
    bins: [usize; NBINS],
    stats: HeapStats,
}

// SAFETY: RawHeap exclusively owns its arena; raw offsets never escape
// except as allocation pointers whose lifetimes the embedder manages.
unsafe impl Send for RawHeap {}

impl fmt::Debug for RawHeap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawHeap")
            .field("top_off", &self.top_off)
            .field("brk_off", &self.brk_off)
            .field("committed_off", &self.committed_off)
            .field("stats", &self.stats)
            .finish()
    }
}

#[inline]
fn round_up(v: usize, q: usize) -> usize {
    v.div_ceil(q) * q
}

#[inline]
fn bin_index(chunk_size: usize) -> usize {
    debug_assert!(chunk_size >= MIN_CHUNK);
    if chunk_size <= SMALL_MAX {
        (chunk_size - MIN_CHUNK) / ALIGN
    } else {
        // 1025..=2048 -> 0, 2049..=4096 -> 1, ... capped at LARGE_BINS-1.
        let group = (usize::BITS - ((chunk_size - 1) / SMALL_MAX).leading_zeros()) as usize - 1;
        SMALL_BINS + group.min(LARGE_BINS - 1)
    }
}

impl RawHeap {
    /// Creates a heap over `arena`.
    pub fn new(arena: Arena) -> Self {
        let mut h = RawHeap {
            arena,
            top_off: 0,
            brk_off: 0,
            committed_off: 0,
            bins: [NIL; NBINS],
            stats: HeapStats::default(),
        };
        // Commit the first page and stamp "previous chunk size = 0" at the
        // top-chunk position so the first carve reads a valid prev_size.
        h.commit_to(PAGE);
        // SAFETY: offset 0 is committed.
        unsafe { h.write_word(0, 0) };
        h
    }

    /// Stats snapshot.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            brk: self.brk_off,
            committed: self.committed_off,
            backing_reserved: self.arena.reserved(),
            ..self.stats
        }
    }

    /// Free bytes in the top chunk (break minus top offset).
    pub fn top_free(&self) -> usize {
        self.brk_off - self.top_off
    }

    /// Bytes of the top chunk whose mappings are already constructed —
    /// the memory that can be handed out with no fault at all.
    pub fn reserve_ready(&self) -> usize {
        self.committed_off
            .min(self.brk_off)
            .saturating_sub(self.top_off)
    }

    /// `true` if `ptr` belongs to this heap.
    pub fn contains(&self, ptr: *const u8) -> bool {
        self.arena.contains(ptr)
    }

    // -- word accessors -------------------------------------------------

    /// # Safety
    /// `off + 8 <= committed_off`.
    #[inline]
    unsafe fn read_word(&self, off: usize) -> usize {
        debug_assert!(off + 8 <= self.committed_off);
        // SAFETY: per contract the address is committed arena memory.
        unsafe { (self.arena.at(off) as *const usize).read() }
    }

    /// # Safety
    /// `off + 8 <= committed_off`.
    #[inline]
    unsafe fn write_word(&mut self, off: usize, v: usize) {
        debug_assert!(off + 8 <= self.committed_off);
        // SAFETY: per contract the address is committed arena memory.
        unsafe { (self.arena.at(off) as *mut usize).write(v) }
    }

    #[inline]
    unsafe fn chunk_size(&self, off: usize) -> usize {
        // SAFETY: caller passes a valid chunk offset.
        unsafe { self.read_word(off + 8) & !1 }
    }

    #[inline]
    unsafe fn chunk_in_use(&self, off: usize) -> bool {
        // SAFETY: caller passes a valid chunk offset.
        unsafe { self.read_word(off + 8) & 1 == 1 }
    }

    #[inline]
    unsafe fn set_chunk(&mut self, off: usize, size: usize, in_use: bool) {
        debug_assert!(size % ALIGN == 0 && size >= MIN_CHUNK);
        // SAFETY: caller guarantees the chunk is committed.
        unsafe {
            self.write_word(off + 8, size | usize::from(in_use));
            // Stamp the next chunk's (or the top position's) prev_size.
            let next = off + size;
            if next + 8 <= self.committed_off {
                self.write_word(next, size);
            }
        }
    }

    #[inline]
    unsafe fn prev_size(&self, off: usize) -> usize {
        // SAFETY: caller passes a valid chunk offset.
        unsafe { self.read_word(off) }
    }

    // -- free-list intrusive links (stored in the payload) ---------------

    #[inline]
    unsafe fn fd(&self, off: usize) -> usize {
        // SAFETY: free chunks always have committed payload words.
        unsafe { self.read_word(off + HDR) }
    }

    #[inline]
    unsafe fn bk(&self, off: usize) -> usize {
        // SAFETY: as `fd`.
        unsafe { self.read_word(off + HDR + 8) }
    }

    #[inline]
    unsafe fn set_links(&mut self, off: usize, fd: usize, bk: usize) {
        // SAFETY: as `fd`.
        unsafe {
            self.write_word(off + HDR, fd);
            self.write_word(off + HDR + 8, bk);
        }
    }

    unsafe fn bin_push(&mut self, off: usize) {
        // SAFETY: `off` is a valid, free, committed chunk.
        unsafe {
            let size = self.chunk_size(off);
            let b = bin_index(size);
            let head = self.bins[b];
            self.set_links(off, head, NIL);
            if head != NIL {
                let head_fd = self.fd(head);
                self.set_links(head, head_fd, off);
            }
            self.bins[b] = off;
            self.stats.binned += size;
        }
    }

    unsafe fn bin_unlink(&mut self, off: usize) {
        // SAFETY: `off` is a chunk currently linked in its bin.
        unsafe {
            let size = self.chunk_size(off);
            let b = bin_index(size);
            let fd = self.fd(off);
            let bk = self.bk(off);
            if bk == NIL {
                debug_assert_eq!(self.bins[b], off, "unlink head mismatch");
                self.bins[b] = fd;
            } else {
                let bk_fd = self.fd(bk);
                debug_assert_eq!(bk_fd, off);
                let _ = bk_fd;
                self.set_links(bk, fd, self.bk(bk));
            }
            if fd != NIL {
                let fd_bk = self.bk(fd);
                debug_assert_eq!(fd_bk, off);
                let _ = fd_bk;
                self.set_links(fd, self.fd(fd), bk);
            }
            self.stats.binned -= size;
        }
    }

    // -- commit / break management ---------------------------------------

    fn commit_to(&mut self, new_off: usize) {
        if new_off <= self.committed_off {
            return;
        }
        let target = round_up(new_off, PAGE).min(self.arena.capacity());
        self.arena
            .touch(self.committed_off, target - self.committed_off);
        self.committed_off = target;
    }

    /// Ensures the arena can hold a break at `new_brk` (plus the tail
    /// page reserved for the top-position prev_size stamp), growing a
    /// mapped arena's exposed capacity on demand. Returns `false` when
    /// even the full reservation cannot accommodate it.
    fn ensure_capacity(&mut self, new_brk: usize) -> bool {
        let limit = self.arena.capacity().saturating_sub(PAGE);
        if new_brk <= limit {
            return true;
        }
        let needed = (new_brk + PAGE).saturating_sub(self.arena.capacity());
        let avail = self.arena.reserved() - self.arena.capacity();
        if needed > avail {
            return false;
        }
        // Grow in multi-megabyte steps so a tight allocation loop does
        // not take the grow path once per page.
        const GROW_CHUNK: usize = 4 << 20;
        let extra = round_up(needed, PAGE).max(GROW_CHUNK).min(avail);
        self.arena.grow(extra).is_ok()
    }

    /// Extends the program break by `bytes` **and** constructs the
    /// mappings (Algorithm 1 lines 11–15 in one step). Mapped arenas grow
    /// their exposed capacity on demand, up to the reservation.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfSpace`] when the arena cannot grow that far.
    pub fn sbrk_commit(&mut self, bytes: usize) -> Result<(), HeapError> {
        let pending = self.sbrk_extend(bytes)?;
        self.commit_to(pending.end);
        Ok(())
    }

    /// The first half of [`RawHeap::sbrk_commit`]: extends the break by
    /// `bytes` and returns the part of it above the committed watermark,
    /// for the caller to populate after releasing the heap lock.
    /// Until [`RawHeap::publish_commit`] raises the watermark, a carve
    /// into that range commits its own pages as usual.
    pub(crate) fn sbrk_extend(&mut self, bytes: usize) -> Result<PendingCommit, HeapError> {
        let new_brk = round_up(self.brk_off + bytes, PAGE);
        // One tail page stays in reserve for the top-position prev_size stamp.
        if !self.ensure_capacity(new_brk) {
            return Err(HeapError::OutOfSpace);
        }
        self.brk_off = new_brk;
        let start = self.committed_off.min(new_brk);
        Ok(PendingCommit {
            // SAFETY: `start <= new_brk <= capacity`.
            base: unsafe { NonNull::new_unchecked(self.arena.at(start)) },
            len: new_brk - start,
            end: new_brk,
        })
    }

    /// The second half: raises the committed watermark over a range
    /// [`PendingCommit::populate`] built (never lowering it — a carve may
    /// have committed further meanwhile). When the populate was refused
    /// (`populated == false`), commits the range here, under the lock;
    /// every byte above the watermark is still unallocated, so the
    /// fallback loop cannot race a writer.
    pub(crate) fn publish_commit(&mut self, pending: PendingCommit, populated: bool) {
        if populated {
            self.committed_off = self.committed_off.max(pending.end);
        } else {
            self.commit_to(pending.end);
        }
    }

    /// Returns the committed pages above the (already trimmed) program
    /// break to the kernel, where the platform supports decommit. The
    /// page holding the top-position prev_size stamp is kept. Returns the
    /// bytes decommitted; the manager calls this after [`RawHeap::trim`]
    /// so the paper's `sbrk(-extra)` release becomes a real
    /// `madvise(DONTNEED)` instead of an accounting fiction.
    pub fn decommit_tail(&mut self) -> usize {
        // `+ HDR` keeps the 8-byte stamp at the top position (top_off <=
        // brk_off) out of the dropped range even when the break is
        // page-aligned.
        let start = round_up(self.brk_off + HDR, PAGE);
        if start >= self.committed_off {
            return 0;
        }
        // SAFETY: everything at or above the break is top-chunk tail; no
        // live chunk or stamp lies in [start, committed_off).
        let freed = unsafe { self.arena.decommit(start, self.committed_off - start) };
        if freed > 0 {
            self.committed_off = start;
            self.stats.decommitted += freed as u64;
        }
        freed
    }

    /// Shrinks the top chunk so at most `keep` bytes remain
    /// (`sbrk(-extra)` in Algorithm 1 line 20). Returns released bytes.
    ///
    /// Note: without `madvise` the released pages stay resident; the
    /// break accounting still shrinks so policy decisions see the trim.
    pub fn trim(&mut self, keep: usize) -> usize {
        let free = self.top_free();
        if free <= keep {
            return 0;
        }
        let release = round_up(free - keep, PAGE).min(free);
        self.brk_off -= release;
        debug_assert!(self.brk_off >= self.top_off);
        release
    }

    // -- allocation -------------------------------------------------------

    fn request_to_chunk(size: usize) -> usize {
        round_up(size.max(1) + HDR, ALIGN).max(MIN_CHUNK)
    }

    /// The boundary-tag chunk size (header included) that a request of
    /// `size` bytes occupies. Public so embedders — the thread-cache size
    /// classes and its accounting tests — can reason in chunk units.
    pub fn request_chunk_size(size: usize) -> usize {
        Self::request_to_chunk(size)
    }

    /// Allocates `size` bytes (16-byte aligned).
    ///
    /// Returns `None` when the arena is exhausted.
    pub fn malloc(&mut self, size: usize) -> Option<NonNull<u8>> {
        let need = Self::request_to_chunk(size);
        // 1. Binned chunks: exact/first fit, then any larger bin.
        // SAFETY: bin contents are valid free chunks by invariant.
        unsafe {
            if let Some(off) = self.bin_take(need) {
                let got = self.chunk_size(off);
                self.split_excess(off, got, need);
                let final_size = self.chunk_size(off);
                self.set_chunk(off, final_size, true);
                self.stats.in_use += final_size;
                self.stats.live += 1;
                return Some(NonNull::new_unchecked(self.arena.at(off + HDR)));
            }
        }
        // 2. Carve from the top chunk, growing the break if needed.
        self.carve_top(need)
    }

    /// Allocates up to `out.len()` blocks, each of *exactly* the chunk
    /// size implied by `size`, writing payload addresses into `out` and
    /// returning how many were carved (stopping early on exhaustion).
    ///
    /// The exactness guarantee is what lets the thread-cache layer account
    /// cached blocks at class granularity: `malloc` may hand back a chunk
    /// up to `MIN_CHUNK - ALIGN` bytes larger when splitting the remainder
    /// off a binned chunk would leave an unusable sliver; this path skips
    /// such chunks instead. One call means one lock acquisition for the
    /// whole batch — the amortisation the cache exists for.
    pub fn malloc_batch(&mut self, size: usize, out: &mut [usize]) -> usize {
        let need = Self::request_to_chunk(size);
        let base = self.arena.base().as_ptr() as usize;
        let mut n = 0;
        while n < out.len() {
            // SAFETY: bin contents are valid free chunks by invariant.
            let payload = unsafe {
                if let Some(off) = self.bin_take_exact(need) {
                    self.split_excess(off, self.chunk_size(off), need);
                    debug_assert_eq!(self.chunk_size(off), need);
                    self.set_chunk(off, need, true);
                    self.stats.in_use += need;
                    self.stats.live += 1;
                    Some(base + off + HDR)
                } else {
                    // Top carves are exact by construction.
                    self.carve_top(need).map(|p| p.as_ptr() as usize)
                }
            };
            match payload {
                Some(p) => {
                    out[n] = p;
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Frees a batch of payload addresses under one lock acquisition (the
    /// thread-cache flush path).
    ///
    /// # Safety
    ///
    /// Every address must have been returned by this heap's allocation
    /// methods, be live, and appear at most once in `addrs`.
    pub unsafe fn free_batch(&mut self, addrs: &[usize]) {
        for &a in addrs {
            // SAFETY: per the caller's contract each address heads a live
            // allocation of this heap.
            unsafe { self.free(NonNull::new_unchecked(a as *mut u8)) };
        }
    }

    /// Exact-fit variant of [`RawHeap::bin_take`]: only returns chunks
    /// that are either exactly `need` bytes or big enough to split down to
    /// exactly `need` (`>= need + MIN_CHUNK`). Small bins hold exactly one
    /// chunk size each, so a whole bin qualifies or is skipped in O(1);
    /// only the mixed-size large bins are walked.
    unsafe fn bin_take_exact(&mut self, need: usize) -> Option<usize> {
        // SAFETY: all offsets in bins are valid free chunks.
        unsafe {
            for b in bin_index(need)..NBINS {
                if b < SMALL_BINS {
                    let bin_size = MIN_CHUNK + b * ALIGN;
                    if bin_size != need && bin_size < need + MIN_CHUNK {
                        continue;
                    }
                    let head = self.bins[b];
                    if head != NIL {
                        self.bin_unlink(head);
                        return Some(head);
                    }
                    continue;
                }
                let mut cur = self.bins[b];
                while cur != NIL {
                    let size = self.chunk_size(cur);
                    if size == need || size >= need + MIN_CHUNK {
                        self.bin_unlink(cur);
                        return Some(cur);
                    }
                    cur = self.fd(cur);
                }
            }
            None
        }
    }

    unsafe fn bin_take(&mut self, need: usize) -> Option<usize> {
        // SAFETY: all offsets in bins are valid free chunks.
        unsafe {
            let start = bin_index(need);
            // Exact/first-fit scan in the home bin.
            let mut cur = self.bins[start];
            while cur != NIL {
                if self.chunk_size(cur) >= need {
                    self.bin_unlink(cur);
                    return Some(cur);
                }
                cur = self.fd(cur);
            }
            // Any chunk in a higher bin is large enough.
            for b in (start + 1)..NBINS {
                let head = self.bins[b];
                if head != NIL {
                    debug_assert!(self.chunk_size(head) >= need);
                    self.bin_unlink(head);
                    return Some(head);
                }
            }
            None
        }
    }

    /// Splits chunk `off` (currently sized `got`) down to `need`, binning
    /// the remainder when it is big enough to stand alone.
    ///
    /// # Safety
    /// `off` must be an unlinked free chunk of size `got`.
    unsafe fn split_excess(&mut self, off: usize, got: usize, need: usize) {
        debug_assert!(got >= need);
        if got - need >= MIN_CHUNK {
            // SAFETY: both sub-chunks lie inside the old chunk's extent.
            unsafe {
                self.set_chunk(off, need, false);
                let rem = off + need;
                self.write_word(rem, need); // prev_size of remainder
                self.set_chunk(rem, got - need, false);
                self.bin_push(rem);
            }
        }
    }

    fn carve_top(&mut self, need: usize) -> Option<NonNull<u8>> {
        if self.top_free() < need {
            // Glibc expands by exactly the shortfall (paper §2.1).
            let grow = need - self.top_free();
            let new_brk = round_up(self.brk_off + grow, PAGE);
            if !self.ensure_capacity(new_brk) {
                return None;
            }
            self.brk_off = new_brk;
        }
        let off = self.top_off;
        let end = off + need;
        // Demand-fault any pages beyond the committed watermark: this is
        // the slow path Hermes' advance reservation avoids.
        if end + HDR > self.committed_off {
            let before = self.committed_off;
            self.commit_to(end + HDR);
            self.stats.demand_touched_pages += ((self.committed_off - before) / PAGE) as u64;
        }
        self.top_off = end;
        // SAFETY: [off, end+8) committed above; prev_size already stamped
        // at `off` by the previous carve/free.
        unsafe {
            self.set_chunk(off, need, true);
            // Stamp prev_size at the new top position for the next carve.
            self.write_word(end, need);
            self.stats.in_use += need;
            self.stats.live += 1;
            Some(NonNull::new_unchecked(self.arena.at(off + HDR)))
        }
    }

    /// Allocates `size` bytes aligned to `align` (a power of two).
    pub fn memalign(&mut self, align: usize, size: usize) -> Option<NonNull<u8>> {
        debug_assert!(align.is_power_of_two());
        if align <= ALIGN {
            return self.malloc(size);
        }
        let padded = size + align + MIN_CHUNK;
        let raw = self.malloc(padded)?;
        let payload = raw.as_ptr() as usize;
        let base = self.arena.base().as_ptr() as usize;
        let off = payload - base - HDR;
        // SAFETY: `off` is the live chunk just returned by malloc.
        unsafe {
            let chunk_size = self.chunk_size(off);
            let mut aligned_payload = round_up(payload, align);
            if aligned_payload != payload && aligned_payload - payload < MIN_CHUNK {
                aligned_payload += align;
            }
            if aligned_payload == payload {
                return Some(raw);
            }
            let new_off = aligned_payload - base - HDR;
            let prefix = new_off - off;
            debug_assert!(prefix >= MIN_CHUNK);
            let rest = chunk_size - prefix;
            debug_assert!(rest >= size + HDR);
            // Undo the in_use accounting for the original chunk; re-add
            // for the aligned one.
            self.stats.in_use -= chunk_size;
            self.stats.live -= 1;
            // Prefix becomes a free chunk.
            self.set_chunk(off, prefix, false);
            self.write_word(new_off, prefix);
            self.set_chunk(new_off, rest, true);
            self.stats.in_use += rest;
            self.stats.live += 1;
            self.bin_push(off);
            Some(NonNull::new_unchecked(self.arena.at(new_off + HDR)))
        }
    }

    /// Frees the allocation at `ptr`, coalescing with free neighbours and
    /// the top chunk.
    ///
    /// # Safety
    ///
    /// `ptr` must have been returned by this heap's `malloc`/`memalign`
    /// and not freed since.
    pub unsafe fn free(&mut self, ptr: NonNull<u8>) {
        let base = self.arena.base().as_ptr() as usize;
        let mut off = ptr.as_ptr() as usize - base - HDR;
        // SAFETY: per contract `off` heads a live chunk.
        unsafe {
            debug_assert!(self.chunk_in_use(off), "double free at {off:#x}");
            let mut size = self.chunk_size(off);
            self.stats.in_use -= size;
            self.stats.live -= 1;
            // Coalesce with the physically previous chunk.
            if off > 0 {
                let psize = self.prev_size(off);
                let poff = off - psize;
                if psize != 0 && !self.chunk_in_use(poff) {
                    self.bin_unlink(poff);
                    off = poff;
                    size += psize;
                }
            }
            // Coalesce with the next chunk (or the top).
            let next = off + size;
            if next == self.top_off {
                // Merge into the top chunk.
                self.top_off = off;
                // The prev_size stamp for the new top position is already
                // the prev_size field at `off`.
                return;
            }
            if !self.chunk_in_use(next) {
                self.bin_unlink(next);
                size += self.chunk_size(next);
                let after = off + size;
                if after == self.top_off {
                    self.top_off = off;
                    return;
                }
            }
            self.set_chunk(off, size, false);
            self.bin_push(off);
        }
    }

    /// Usable payload bytes of the allocation at `ptr`.
    ///
    /// # Safety
    ///
    /// `ptr` must head a live allocation of this heap.
    pub unsafe fn usable_size(&self, ptr: NonNull<u8>) -> usize {
        let base = self.arena.base().as_ptr() as usize;
        let off = ptr.as_ptr() as usize - base - HDR;
        // SAFETY: per contract.
        unsafe { self.chunk_size(off) - HDR }
    }

    /// Walks the whole heap verifying structural invariants; used by the
    /// test suite, property tests and the real backend's debug path.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a typed
    /// [`IntegrityError`] (whose `Display` keeps the historical message
    /// text).
    pub fn check_integrity(&self) -> Result<(), IntegrityError> {
        let mut off = 0usize;
        let mut prev: Option<(usize, usize, bool)> = None;
        let mut free_bytes = 0usize;
        let mut in_use_bytes = 0usize;
        let mut live = 0usize;
        while off < self.top_off {
            // SAFETY: chunks in [0, top_off) are committed by invariant.
            let (size, in_use, stamped_prev) = unsafe {
                (
                    self.chunk_size(off),
                    self.chunk_in_use(off),
                    self.prev_size(off),
                )
            };
            if size < MIN_CHUNK || size % ALIGN != 0 {
                return Err(IntegrityViolation::BadChunkSize { off, size }.into());
            }
            if let Some((poff, psize, pfree)) = prev {
                if stamped_prev != psize {
                    return Err(IntegrityViolation::PrevSizeMismatch {
                        off,
                        stamped: stamped_prev,
                        actual: psize,
                        prev_off: poff,
                    }
                    .into());
                }
                if pfree && !in_use {
                    return Err(IntegrityViolation::AdjacentFreeChunks {
                        prev_off: poff,
                        off,
                    }
                    .into());
                }
            }
            if in_use {
                in_use_bytes += size;
                live += 1;
            } else {
                free_bytes += size;
            }
            prev = Some((off, size, !in_use));
            off += size;
        }
        if off != self.top_off {
            return Err(IntegrityViolation::WalkOverrun {
                off,
                top: self.top_off,
            }
            .into());
        }
        // Free-list consistency.
        let mut linked = 0usize;
        for (b, &head) in self.bins.iter().enumerate() {
            let mut cur = head;
            let mut prev_link = NIL;
            while cur != NIL {
                // SAFETY: invariant — bins reference committed free chunks.
                let (size, in_use, bk) =
                    unsafe { (self.chunk_size(cur), self.chunk_in_use(cur), self.bk(cur)) };
                if in_use {
                    return Err(IntegrityViolation::InUseChunkBinned { bin: b, off: cur }.into());
                }
                if bin_index(size) != b {
                    return Err(IntegrityViolation::MisfiledChunk {
                        bin: b,
                        off: cur,
                        size,
                    }
                    .into());
                }
                if bk != prev_link {
                    return Err(IntegrityViolation::BrokenBackLink { bin: b, off: cur }.into());
                }
                linked += size;
                prev_link = cur;
                // SAFETY: as above.
                cur = unsafe { self.fd(cur) };
            }
        }
        if linked != free_bytes {
            return Err(IntegrityViolation::BinnedBytesMismatch {
                linked,
                walked: free_bytes,
            }
            .into());
        }
        if self.stats.binned != free_bytes {
            return Err(IntegrityViolation::StatsBinnedMismatch {
                stat: self.stats.binned,
                walked: free_bytes,
            }
            .into());
        }
        if self.stats.in_use != in_use_bytes || self.stats.live != live {
            return Err(IntegrityViolation::StatsDrift.into());
        }
        if self.top_off > self.brk_off {
            return Err(IntegrityViolation::TopBeyondBreak.into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(pages: usize) -> RawHeap {
        RawHeap::new(Arena::reserve(PAGE * pages).unwrap())
    }

    #[test]
    fn bin_index_classes() {
        assert_eq!(bin_index(MIN_CHUNK), 0);
        assert_eq!(bin_index(48), 1);
        assert_eq!(bin_index(SMALL_MAX), SMALL_BINS - 1);
        assert_eq!(bin_index(SMALL_MAX + 16), SMALL_BINS);
        assert_eq!(bin_index(2048), SMALL_BINS);
        assert_eq!(bin_index(2064), SMALL_BINS + 1);
        assert_eq!(bin_index(1 << 20), NBINS - 1);
    }

    #[test]
    fn alloc_writes_are_usable() {
        let mut h = heap(64);
        let p = h.malloc(100).unwrap();
        // SAFETY: fresh allocation of >= 100 bytes.
        unsafe {
            std::ptr::write_bytes(p.as_ptr(), 0xAB, 100);
            assert_eq!(*p.as_ptr(), 0xAB);
            assert!(h.usable_size(p) >= 100);
        }
        h.check_integrity().unwrap();
    }

    #[test]
    fn free_and_reuse_same_chunk() {
        let mut h = heap(64);
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        // SAFETY: a is live.
        unsafe { h.free(a) };
        let c = h.malloc(64).unwrap();
        assert_eq!(a, c, "freed chunk is reused");
        // SAFETY: b, c live.
        unsafe {
            h.free(b);
            h.free(c);
        }
        h.check_integrity().unwrap();
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut h = heap(64);
        let a = h.malloc(48).unwrap();
        let b = h.malloc(48).unwrap();
        let _guard = h.malloc(48).unwrap(); // keep top away
                                            // SAFETY: both live.
        unsafe {
            h.free(a);
            h.free(b);
        }
        h.check_integrity().unwrap();
        // The merged chunk serves a request bigger than either part.
        let big = h.malloc(96).unwrap();
        let base = h.arena.base().as_ptr() as usize;
        assert_eq!(
            big.as_ptr() as usize,
            a.as_ptr() as usize,
            "merged in place"
        );
        let _ = base;
        h.check_integrity().unwrap();
    }

    #[test]
    fn free_adjacent_to_top_merges_into_top() {
        let mut h = heap(64);
        let a = h.malloc(1000).unwrap();
        let top_after_alloc = h.top_free();
        // SAFETY: a live.
        unsafe { h.free(a) };
        assert!(
            h.top_free() > top_after_alloc + 1000,
            "chunk merged back into top, not binned"
        );
        assert_eq!(h.stats().binned, 0);
        // The same address is carved again.
        let b = h.malloc(1000).unwrap();
        assert_eq!(a, b);
        h.check_integrity().unwrap();
    }

    #[test]
    fn top_carve_faults_fresh_pages() {
        let mut h = heap(256);
        let s0 = h.stats();
        let _p = h.malloc(PAGE * 8).unwrap();
        let s1 = h.stats();
        assert!(s1.demand_touched_pages > s0.demand_touched_pages);
        // After sbrk_commit (the manager's reservation) no demand faults.
        h.sbrk_commit(PAGE * 32).unwrap();
        let s2 = h.stats();
        let _q = h.malloc(PAGE * 8).unwrap();
        let s3 = h.stats();
        assert_eq!(
            s3.demand_touched_pages, s2.demand_touched_pages,
            "reserved memory carves without faults"
        );
        assert!(h.reserve_ready() > 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut h = heap(4);
        assert!(h.malloc(PAGE * 16).is_none());
        // Heap still works afterwards.
        assert!(h.malloc(64).is_some());
        h.check_integrity().unwrap();
    }

    #[test]
    fn trim_shrinks_break() {
        let mut h = heap(64);
        h.sbrk_commit(PAGE * 16).unwrap();
        let free = h.top_free();
        assert!(free >= PAGE * 16);
        let released = h.trim(PAGE);
        assert!(released > 0);
        assert!(h.top_free() <= PAGE + PAGE); // keep + rounding
        h.check_integrity().unwrap();
    }

    #[test]
    fn memalign_returns_aligned_and_freeable() {
        let mut h = heap(256);
        for align in [32usize, 64, 256, 4096] {
            let p = h.memalign(align, 200).unwrap();
            assert_eq!(p.as_ptr() as usize % align, 0, "align {align}");
            // SAFETY: fresh 200-byte allocation.
            unsafe {
                std::ptr::write_bytes(p.as_ptr(), 0x5A, 200);
                h.free(p);
            }
            h.check_integrity().unwrap();
        }
    }

    #[test]
    fn interleaved_pattern_keeps_invariants() {
        let mut h = heap(512);
        let mut live: Vec<NonNull<u8>> = Vec::new();
        for i in 0..300usize {
            let size = 16 + (i * 37) % 2000;
            let p = h.malloc(size).unwrap();
            // SAFETY: fresh allocation.
            unsafe { std::ptr::write_bytes(p.as_ptr(), (i & 0xff) as u8, size) };
            live.push(p);
            if i % 3 == 0 {
                let victim = live.swap_remove((i * 7) % live.len());
                // SAFETY: victim is live and removed from the set.
                unsafe { h.free(victim) };
            }
        }
        h.check_integrity().unwrap();
        for p in live {
            // SAFETY: still live.
            unsafe { h.free(p) };
        }
        h.check_integrity().unwrap();
        assert_eq!(h.stats().live, 0);
        assert_eq!(h.stats().in_use, 0);
    }

    #[test]
    fn malloc_batch_carves_exact_chunks() {
        let mut h = heap(256);
        let mut out = [0usize; 16];
        let n = h.malloc_batch(100, &mut out);
        assert_eq!(n, 16);
        let need = RawHeap::request_to_chunk(100);
        let base = h.arena.base().as_ptr() as usize;
        for &addr in &out {
            // SAFETY: each address heads a live chunk just carved.
            let size = unsafe { h.chunk_size(addr - base - HDR) };
            assert_eq!(size, need, "batch chunks are exactly the class size");
        }
        assert_eq!(h.stats().live, 16);
        assert_eq!(h.stats().in_use, 16 * need);
        h.check_integrity().unwrap();
        // SAFETY: all 16 live, each freed once.
        unsafe { h.free_batch(&out) };
        assert_eq!(h.stats().live, 0);
        assert_eq!(h.stats().in_use, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn malloc_batch_skips_unsplittable_bin_chunks() {
        let mut h = heap(256);
        // Bin a 112-byte chunk: an exact-96 batch request must not take it
        // (112 - 96 = 16 < MIN_CHUNK would strand an oversized chunk in a
        // 96-byte class), while plain malloc happily would.
        let odd = h.malloc(96).unwrap(); // chunk 112
        let _hold = h.malloc(64).unwrap();
        // SAFETY: odd is live.
        unsafe { h.free(odd) };
        assert_eq!(h.stats().binned, 112);
        let mut out = [0usize; 1];
        let n = h.malloc_batch(80, &mut out); // chunk 96
        assert_eq!(n, 1);
        let base = h.arena.base().as_ptr() as usize;
        // SAFETY: out[0] heads a live chunk.
        let size = unsafe { h.chunk_size(out[0] - base - HDR) };
        assert_eq!(size, 96);
        assert_eq!(h.stats().binned, 112, "the 112-byte chunk stays binned");
        // SAFETY: live, freed once.
        unsafe { h.free_batch(&out) };
        h.check_integrity().unwrap();
    }

    #[test]
    fn malloc_batch_stops_at_exhaustion() {
        let mut h = heap(8);
        let mut out = [0usize; 64];
        let n = h.malloc_batch(PAGE, &mut out);
        assert!(n > 0 && n < 64, "partial batch on a tiny arena: {n}");
        // SAFETY: exactly the first n are live.
        unsafe { h.free_batch(&out[..n]) };
        assert_eq!(h.stats().live, 0);
        h.check_integrity().unwrap();
    }

    #[test]
    fn break_grows_into_mapped_reservation() {
        let mut h = RawHeap::new(Arena::map(PAGE * 8, PAGE * 2048, false).unwrap());
        // Demand far beyond the initial 8-page capacity is served by
        // on-demand Arena::grow instead of OutOfSpace.
        let p = h.malloc(PAGE * 64).unwrap();
        // SAFETY: fresh allocation of 64 pages.
        unsafe { std::ptr::write_bytes(p.as_ptr(), 0x3C, PAGE * 64) };
        assert!(h.stats().brk > PAGE * 8);
        assert_eq!(h.stats().backing_reserved, PAGE * 2048);
        // Exhaustion still reports once the reservation itself is spent.
        assert!(h.malloc(PAGE * 4096).is_none());
        // SAFETY: p live.
        unsafe { h.free(p) };
        h.check_integrity().unwrap();
    }

    #[test]
    fn publish_after_a_racing_carve_keeps_the_watermark() {
        for populated in [true, false] {
            let mut h = heap(256);
            let pending = h.sbrk_extend(PAGE * 8).unwrap();
            assert_eq!(h.stats().committed, PAGE, "extend builds no mappings");
            let ok = pending.populate();
            // A foreground carve runs past the pending range before the
            // manager re-locks to publish it.
            let p = h.malloc(PAGE * 12).unwrap();
            // SAFETY: fresh allocation of 12 pages.
            unsafe { std::ptr::write_bytes(p.as_ptr(), 0x6D, PAGE * 12) };
            let committed = h.stats().committed;
            assert!(committed > pending.end);
            h.publish_commit(pending, ok && populated);
            assert_eq!(h.stats().committed, committed, "never lowered");
            // SAFETY: p is live for 12 pages.
            unsafe {
                assert_eq!(*p.as_ptr(), 0x6D);
                assert_eq!(*p.as_ptr().add(PAGE * 12 - 1), 0x6D);
            }
            h.check_integrity().unwrap();
            // SAFETY: p live.
            unsafe { h.free(p) };
            h.check_integrity().unwrap();
        }
    }

    #[test]
    fn published_reserve_serves_without_faults() {
        let mut h = heap(256);
        let pending = h.sbrk_extend(PAGE * 16).unwrap();
        let populated = pending.populate();
        h.publish_commit(pending, populated);
        assert!(h.reserve_ready() >= PAGE * 15);
        let faults = h.stats().demand_touched_pages;
        let p = h.malloc(PAGE * 8).unwrap();
        assert_eq!(
            h.stats().demand_touched_pages,
            faults,
            "served from reserve"
        );
        // SAFETY: p live.
        unsafe { h.free(p) };
        h.check_integrity().unwrap();
    }

    #[test]
    fn decommit_tail_returns_trimmed_pages() {
        let mut h = heap(64);
        h.sbrk_commit(PAGE * 32).unwrap();
        h.trim(0);
        let freed = h.decommit_tail();
        let s = h.stats();
        if crate::platform::platform().supports_mapping() {
            assert!(freed > 0, "trimmed tail pages decommit on mmap hosts");
            assert!(s.committed < s.backing_reserved);
            assert_eq!(s.decommitted, freed as u64);
        } else {
            assert_eq!(freed, 0);
        }
        // Decommit-then-reuse: the dropped range is re-committed on the
        // next carve and fully usable.
        let p = h.malloc(PAGE * 8).unwrap();
        // SAFETY: fresh allocation of 8 pages.
        unsafe {
            std::ptr::write_bytes(p.as_ptr(), 0x7E, PAGE * 8);
            h.free(p);
        }
        h.check_integrity().unwrap();
        assert!(h.decommit_tail() == 0 || h.stats().decommitted > freed as u64);
    }

    #[test]
    fn split_leaves_usable_remainder() {
        let mut h = heap(64);
        let a = h.malloc(2048).unwrap();
        let _hold = h.malloc(64).unwrap();
        // SAFETY: a live.
        unsafe { h.free(a) };
        // A small request splits the 2 KiB free chunk.
        let b = h.malloc(100).unwrap();
        assert_eq!(b, a);
        let c = h.malloc(100).unwrap();
        // Remainder sits right after b.
        assert!(c.as_ptr() as usize > b.as_ptr() as usize);
        h.check_integrity().unwrap();
    }
}
