//! The heap a causal saturation holds, measured by this test binary's own
//! counting allocator: on a 6 000-transaction document at the shape of the
//! benchmark's search workload (4 sessions, 64 variables, 3 events per
//! transaction, write-skew plants, so its recording order is no witness and
//! a window of it saturates), the [`Saturated`] order `check_causal` returns
//! — its graph, chain clocks, per-variable lists and topological order —
//! must hold at most 48 bytes per edge of its graph.  A graph that kept a
//! vector per vertex and a hashed set of every edge beside them held 57.
//!
//! The allocator counts every thread, so this file holds one test: a second
//! one running beside it would count into the same figures.
//!
//! [`Saturated`]: tm_audit::saturation::Saturated

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tm_audit::linearization::find_same_source_skew;
use tm_audit::po::TxnPartialOrder;
use tm_audit::saturation::check_causal;
use tm_history::{generate, GenConfig};

/// [`System`], counting the bytes live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes per saturated edge the causal check may hold.
const BUDGET: usize = 48;

#[test]
fn a_causal_saturation_holds_at_most_48_bytes_per_edge() {
    let txns = 6_000;
    let history = generate(&GenConfig {
        sessions: 4,
        vars: 64,
        txns_per_session: txns / 4,
        events_per_txn: 3,
        seed: 7,
        write_skew_per_mille: 2,
        ..GenConfig::default()
    })
    .history;
    let po = TxnPartialOrder::build(&history).expect("a generated history is well formed");

    let before = LIVE.load(Ordering::Relaxed);
    let sat = check_causal(&po).expect("write skew is causal");
    let held = LIVE.load(Ordering::Relaxed) - before;
    let edges = sat.graph.edge_count();

    assert!(
        find_same_source_skew(&po, &sat).is_some(),
        "the plants make the document non-serializable, so no recording order certifies it"
    );
    println!(
        "{txns} transactions, {edges} saturated edges: held {held} B ({} B/edge)",
        held / edges
    );
    assert!(held <= BUDGET * edges, "{} B/edge held, budget {BUDGET}", held / edges);
}
