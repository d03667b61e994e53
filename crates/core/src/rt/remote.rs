//! Lock-free remote-free inboxes: cross-shard frees without the owner's
//! lock.
//!
//! Sharding routes every free back to the arena that served it, so a
//! producer/consumer service — allocate on thread A, free on thread B —
//! pays a shard-lock acquisition per free exactly where the runtime is
//! most contended. This module gives every shard an **inbox**: a
//! [`SegQueue`] of block *chains* that any thread may push without
//! touching the owner's lock, and that the owner drains in batches.
//!
//! The flow (see DESIGN.md §9 for the full protocol):
//!
//! * **stage** — the freeing thread links the dead block into a small
//!   per-thread, per-owner staging chain ([`super::tcache`]), threading
//!   an intrusive next pointer through the block's first payload word
//!   (dead payloads are at least one word: see the `MIN_CHUNK` assert in
//!   `heap.rs`). Counters and the inbox gauges are booked per free, at
//!   stage time, so statistics never wait for a drain.
//! * **push** — at [`REMOTE_BATCH`] blocks the chain moves onto the
//!   owner's queue: one CAS for sixteen frees.
//! * **drain** — the owner pops chains opportunistically on its
//!   allocation slow path, and the management thread drains every inbox
//!   each round. Pops happen *outside* the shard lock (queue segment
//!   maintenance may allocate through the global allocator, which must
//!   never re-enter a held shard lock); only the terminal `free_batch`
//!   runs under it.
//!
//! Queued-but-undrained blocks are still *demand* from the reservation
//! machinery's point of view: the drain un-books them through
//! [`ThresholdTracker::on_return_bytes`](crate::policy::thresholds::ThresholdTracker::on_return_bytes)
//! only when they actually return to the heap, and the gauges feed the
//! `remote_queued` statistics so Algorithms 1/2 and the §5.5 overhead
//! metric stay honest about memory parked in transit.

use super::stats::Counters;
use super::{lock, try_lock, Shared};
use crossbeam::queue::SegQueue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Blocks per chain: one queue push (and one owner-side lock acquisition
/// at drain) amortised over this many cross-shard frees.
pub(crate) const REMOTE_BATCH: usize = 16;

/// Chains an allocation slow path drains before taking its shard lock —
/// enough to keep inboxes short under steady load while bounding the
/// latency added to a single allocation.
pub(crate) const OPPORTUNISTIC_CHAINS: usize = 2;

/// A batch of dead blocks linked through their first payload words
/// (`head → … → 0`), with the totals the drain needs for accounting.
pub(crate) struct Chain {
    /// Address of the most recently staged block (LIFO link order).
    pub head: usize,
    /// Blocks on the chain.
    pub blocks: u32,
    /// Summed boundary-tag chunk sizes of the chain's blocks.
    pub bytes: u64,
}

/// One shard's remote-free inbox.
pub(crate) struct RemoteInbox {
    /// Chains pushed by remote freers, popped by drains.
    queue: SegQueue<Chain>,
    /// Gauge: blocks staged or queued for this shard, not yet drained.
    /// Booked per free at stage time (before the chain is even pushed),
    /// un-booked by the drain after the blocks return to the heap, so
    /// the runtime's `in_use`/`live` views can re-book them from
    /// "user-held" to "in transit" without waiting for a drain.
    queued_blocks: AtomicU64,
    /// Gauge: bytes staged or queued, chunk granularity.
    queued_bytes: AtomicU64,
    /// Serialises drains of this inbox. Allocator paths and the manager
    /// only `try_lock` it: a second drainer (or a re-entrant one, when a
    /// queue pop frees a segment through the global allocator and lands
    /// back here) skips instead of stacking up behind the first. Only
    /// [`drain_all`] waits for it.
    pub(super) drain_gate: Mutex<()>,
}

impl RemoteInbox {
    pub(crate) fn new() -> Self {
        RemoteInbox {
            queue: SegQueue::new(),
            queued_blocks: AtomicU64::new(0),
            queued_bytes: AtomicU64::new(0),
            drain_gate: Mutex::new(()),
        }
    }

    /// Books one staged free into the gauges (stage time, freeing
    /// thread).
    #[inline]
    pub(crate) fn stage_account(&self, chunk: usize) {
        self.queued_blocks.fetch_add(1, Ordering::Relaxed);
        self.queued_bytes.fetch_add(chunk as u64, Ordering::Relaxed);
    }

    /// Hands a full (or flush-forced partial) chain to the owner. Gauges
    /// were already booked at stage time.
    #[inline]
    pub(crate) fn push(&self, chain: Chain) {
        debug_assert!(chain.blocks > 0 && chain.head != 0);
        self.queue.push(chain);
    }

    /// Current `(blocks, bytes)` gauge readings.
    #[inline]
    pub(crate) fn gauges(&self) -> (u64, u64) {
        (
            self.queued_blocks.load(Ordering::Relaxed),
            self.queued_bytes.load(Ordering::Relaxed),
        )
    }
}

/// Drains up to `max_chains` chains from shard `idx`'s inbox back into
/// its heap, returning the number of blocks freed. Safe to call from any
/// thread; concurrent drains of the same shard skip (gate). The caller
/// must not hold the shard's heap lock.
pub(crate) fn drain(shared: &Shared, idx: usize, max_chains: usize) -> u64 {
    let inbox = &shared.shards[idx].remote;
    if inbox.queue.is_empty() {
        return 0;
    }
    let Some(gate) = try_lock(&inbox.drain_gate) else {
        return 0;
    };
    drain_gated(shared, idx, max_chains, gate)
}

/// Drains every chain queued for shard `idx`, first waiting out a drain
/// already in progress — so every chain pushed before the call is back
/// in the heap on return. Takes the gate with a blocking
/// lock: a re-entrant drain from inside it still goes through [`drain`]
/// and skips. The caller must not hold the shard's heap lock.
pub(crate) fn drain_all(shared: &Shared, idx: usize) -> u64 {
    let gate = lock(&shared.shards[idx].remote.drain_gate);
    drain_gated(shared, idx, usize::MAX, gate)
}

fn drain_gated(shared: &Shared, idx: usize, max_chains: usize, _gate: MutexGuard<'_, ()>) -> u64 {
    let shard = &shared.shards[idx];
    let inbox = &shard.remote;
    let mut drained = 0u64;
    let mut chains = 0usize;
    while chains < max_chains {
        // The pop stays outside the shard lock on purpose: queue segment
        // maintenance may allocate or free through the global allocator,
        // which can re-enter this runtime.
        let Some(chain) = inbox.queue.pop() else {
            break;
        };
        chains += 1;
        let mut next = chain.head;
        while next != 0 {
            // Collect the links *before* freeing: `free_batch` reuses
            // the payload words the chain is threaded through.
            let mut addrs = [0usize; REMOTE_BATCH];
            let mut n = 0;
            while next != 0 && n < REMOTE_BATCH {
                addrs[n] = next;
                // SAFETY: the stage path threaded the next link through
                // the first payload word of each dead block, 0-ending.
                next = unsafe { (next as *const usize).read() };
                n += 1;
            }
            let mut g = lock(&shard.heap);
            // SAFETY: every address on the chain heads a live boundary-
            // tag allocation of this shard's heap, staged exactly once
            // by its (former) owner's free.
            unsafe { g.raw.free_batch(&addrs[..n]) };
            if next == 0 {
                // Un-book the whole chain's demand with the last batch.
                g.tracker
                    .on_return_bytes(chain.bytes as usize, u64::from(chain.blocks));
            }
        }
        inbox
            .queued_blocks
            .fetch_sub(u64::from(chain.blocks), Ordering::Relaxed);
        inbox.queued_bytes.fetch_sub(chain.bytes, Ordering::Relaxed);
        drained += u64::from(chain.blocks);
    }
    if drained > 0 {
        Counters::add(&shard.counters.remote_drained, drained);
    }
    drained
}
