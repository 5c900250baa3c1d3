//! The heap a partial order holds, measured by this test binary's own
//! counting allocator: an 80 000-transaction generated document at the
//! benchmark's shape (4 sessions, 64 variables, 3 events per transaction)
//! must build into at most 128 bytes per transaction, and dropping the order
//! must give every byte back.
//!
//! The allocator counts every thread, so this file holds one test: a second
//! one running beside it would count into the same figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tm_audit::po::TxnPartialOrder;
use tm_history::{generate, GenConfig};

/// [`System`], counting the bytes live and the most live at once.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes per transaction the order may hold (ROADMAP item 5's target).
const BUDGET: usize = 128;

#[test]
fn the_partial_order_holds_at_most_128_bytes_per_transaction_and_frees_them() {
    let txns = 80_000;
    let history = generate(&GenConfig {
        sessions: 4,
        vars: 64,
        txns_per_session: txns / 4,
        events_per_txn: 3,
        seed: 7,
        ..GenConfig::default()
    })
    .history;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let po = TxnPartialOrder::build(&history).expect("a generated history is well formed");
    let held = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let vertices = po.len();
    drop(po);
    // Read before anything else allocates: printing does.
    let after = LIVE.load(Ordering::Relaxed);

    assert_eq!(vertices, txns + 1);
    println!(
        "{txns} transactions: the order holds {held} B ({} B/txn); building it peaked at {peak} B \
         ({} B/txn)",
        held / txns,
        peak / txns
    );
    assert!(held <= BUDGET * txns, "{} B/txn held, budget {BUDGET}", held / txns);
    assert_eq!(after, before, "dropping the order frees all of it");
}
