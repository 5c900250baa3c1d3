//! The tl2-blocking L-axis regression: a lock holder parked inside its
//! transaction makes every other transaction on the hot pair retry for as
//! long as it stays parked, and each of them still commits once it leaves.
//!
//! The storm is deterministic by construction (kv-zipf distilled to its hot
//! pair): a stalled writer takes the hot variable's encounter-time lock on
//! the blocking backend and holds it for a fixed window while 8 victim
//! threads each run exactly one read-modify-write of the hot pair; a
//! barrier closes the round and the next window opens.  Every victim
//! transaction therefore runs against a locked hot variable for a full
//! window, and `Stm::run`'s retry loop re-attempts as fast as the
//! (deliberately tiny) spin budget aborts it — thousands of attempts per
//! window, on every victim at once.  That is what blocking costs in
//! Liveness: progress waits on the lock holder, and the attempts histogram
//! is the statistic that shows it.
//!
//! The attempts histogram is log2-bucketed and quantiles report bucket
//! lower bounds, so the asserted bound has a power-of-two's worth of slack
//! on each side.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use stm_runtime::registry::TL2_BLOCKING;
use stm_runtime::tl2::Tl2Backend;
use stm_runtime::Stm;

const VICTIMS: usize = 8;
const ROUNDS: usize = 5;
const STALL: Duration = Duration::from_millis(30);
/// Attempts-per-transaction bound the median victim must exceed: a parked
/// lock holder stalls its victims for far more attempts than this.
const BOUND: u32 = 512;

/// Run the hot-pair storm; returns (commits, attempts_p50).
fn hot_pair_storm() -> (u64, u32) {
    // A tiny spin budget makes every attempt against the locked hot
    // variable abort quickly, so the stall shows in attempt counts.
    let tiny_spin = Arc::new(Tl2Backend::with_spin_limit(64));
    let stm = Arc::new(Stm::from_backend(TL2_BLOCKING, tiny_spin));
    let hot_a = stm.alloc(0i64);
    let hot_b = stm.alloc(0i64);
    // Monotone round counter: window `r` is open once it reads `r + 1`.
    // Victims poll it so every victim transaction starts against a locked
    // hot variable (a plain flag could be missed by a slowly-scheduled
    // victim after the window already closed).
    let window_open = Arc::new(AtomicUsize::new(0));
    let round_done = Arc::new(Barrier::new(VICTIMS + 1));
    std::thread::scope(|s| {
        {
            let stm = Arc::clone(&stm);
            let window_open = Arc::clone(&window_open);
            let round_done = Arc::clone(&round_done);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    stm.run(|t| {
                        // Encounter-time lock on the hot variable, held
                        // across the whole stall.
                        t.write(hot_a, -1)?;
                        window_open.store(r + 1, Ordering::Release);
                        std::thread::sleep(STALL);
                        Ok(())
                    });
                    round_done.wait();
                }
            });
        }
        for _ in 0..VICTIMS {
            let stm = Arc::clone(&stm);
            let window_open = Arc::clone(&window_open);
            let round_done = Arc::clone(&round_done);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    while window_open.load(Ordering::Acquire) < r + 1 {
                        std::thread::yield_now();
                    }
                    stm.run(|t| {
                        let a = t.read(hot_a)?;
                        let b = t.read(hot_b)?;
                        t.write(hot_a, a + 1)?;
                        t.write(hot_b, b + 1)
                    });
                    round_done.wait();
                }
            });
        }
    });
    (stm.stats().commits(), stm.stats().attempts_quantile(0.5))
}

#[test]
fn a_parked_lock_holder_stalls_its_victims_and_every_transaction_commits() {
    let total = (ROUNDS * (VICTIMS + 1)) as u64;
    let (commits, p50) = hot_pair_storm();
    assert_eq!(commits, total, "every transaction commits once the holder leaves");
    assert!(
        p50 > BOUND,
        "victims must retry through the stall windows (p50 {p50} ≤ {BOUND}); \
         if this fails the storm no longer stalls its victims"
    );
}
