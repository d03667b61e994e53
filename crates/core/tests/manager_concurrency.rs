//! Management rounds racing the foreground on one arena.
//!
//! The manager builds page mappings with the shard locks dropped: a heap
//! step populates fresh break that a foreground carve may already be
//! handing out, and a pool refill populates a chunk before inserting it.
//! Here one thread loops `run_management_round` (alongside the live
//! manager thread, whose rounds it must serialise with) while two
//! threads allocate, fill, verify and free small and large blocks on a
//! single-arena heap. Every block must keep its bytes, the heap must
//! stay structurally sound, allocations must balance frees plus live
//! blocks, and the reservation counter must grow during the race — so
//! population really did run beside the workers.

use hermes_core::config::HermesConfig;
use hermes_core::rt::{HermesHeap, HermesHeapConfig};
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const KIB: usize = 1024;
const OPS: usize = 2_000;
/// Blocks each worker keeps live; the oldest is verified and freed as a
/// new one arrives.
const WINDOW: usize = 24;

struct Block {
    addr: usize,
    size: usize,
    tag: u8,
}

fn layout(size: usize) -> Layout {
    Layout::from_size_align(size, 16).unwrap()
}

/// A small xorshift so the size mix is seeded and repeatable.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One block in five is large (128–512 KiB); the rest are 256 B–64 KiB.
fn size_for(state: &mut u64) -> usize {
    let r = next(state);
    if r % 5 == 0 {
        128 * KIB + (r >> 8) as usize % (384 * KIB)
    } else {
        256 + (r >> 8) as usize % (64 * KIB - 256)
    }
}

/// Checks the first and last byte and one byte every 512: a page lost to
/// a decommit, or rewritten by a racing commit, reads as the wrong value.
fn verify(b: &Block) {
    let p = b.addr as *const u8;
    let mut off = 0;
    while off < b.size {
        // SAFETY: the block is live and `size` bytes long.
        let v = unsafe { p.add(off).read() };
        assert_eq!(v, b.tag, "byte {off} of a {} B block", b.size);
        off += 512;
    }
    // SAFETY: as above.
    assert_eq!(unsafe { p.add(b.size - 1).read() }, b.tag, "last byte");
}

fn alloc_filled(heap: &HermesHeap, size: usize, tag: u8) -> Block {
    let p = heap
        .allocate(layout(size))
        .expect("arena capacity suffices");
    // SAFETY: fresh allocation of `size` bytes.
    unsafe { std::ptr::write_bytes(p.as_ptr(), tag, size) };
    Block {
        addr: p.as_ptr() as usize,
        size,
        tag,
    }
}

fn free(heap: &HermesHeap, b: Block) {
    verify(&b);
    // SAFETY: the block is live and freed exactly once.
    unsafe { heap.deallocate(NonNull::new(b.addr as *mut u8).unwrap(), layout(b.size)) };
}

#[test]
fn rounds_populate_beside_allocating_threads() {
    let heap = Arc::new(
        HermesHeap::new(HermesHeapConfig {
            heap_capacity: 32 << 20,
            large_capacity: 64 << 20,
            arenas: 1,
            reserve_factor: 4,
            hermes: HermesConfig::default(),
        })
        .unwrap(),
    );

    // Burst: demand the rounds will size their reserve from.
    let mut seed = 0x9E37_79B9_7F4A_7C15;
    let burst: Vec<Block> = (0..256)
        .map(|i| alloc_filled(&heap, size_for(&mut seed), i as u8))
        .collect();
    for b in burst {
        free(&heap, b);
    }
    heap.run_management_round();
    let reserved_before = heap.counters().reserved_bytes;
    heap.start_manager();

    let stop = Arc::new(AtomicBool::new(false));
    let rounds = {
        let heap = Arc::clone(&heap);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                heap.run_management_round();
                n += 1;
            }
            n
        })
    };
    let workers: Vec<_> = (0..2u64)
        .map(|t| {
            let heap = Arc::clone(&heap);
            std::thread::spawn(move || {
                let mut seed = 0xD1B5_4A32_D192_ED03 ^ (t + 1);
                let mut live = std::collections::VecDeque::with_capacity(WINDOW);
                for i in 0..OPS {
                    if live.len() == WINDOW {
                        free(&heap, live.pop_front().unwrap());
                    }
                    let tag = (i as u8).wrapping_mul(31) ^ (t as u8 + 1);
                    live.push_back(alloc_filled(&heap, size_for(&mut seed), tag));
                }
                live
            })
        })
        .collect();
    let survivors: Vec<Block> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("worker panicked"))
        .collect();
    stop.store(true, Ordering::Relaxed);
    let looped = rounds.join().expect("round loop panicked");
    heap.stop_manager();

    assert!(looped > 0, "the round loop ran");
    heap.check_integrity()
        .expect("heap integrity after the race");
    let c = heap.counters();
    let live = heap.heap_stats().live + heap.large_stats().live;
    assert_eq!(live, survivors.len(), "every survivor is live");
    assert_eq!(
        c.alloc_count - c.free_count,
        live as u64,
        "allocations balance frees plus live blocks"
    );
    assert!(
        c.reserved_bytes > reserved_before,
        "rounds reserved while the workers ran ({} -> {} B)",
        reserved_before,
        c.reserved_bytes
    );
    for b in survivors {
        free(&heap, b);
    }
    heap.check_integrity()
        .expect("heap integrity after the frees");
    assert_eq!(heap.heap_stats().live + heap.large_stats().live, 0);
}
