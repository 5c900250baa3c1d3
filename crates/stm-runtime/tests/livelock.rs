//! Livelock regression: contention-managed retry policies must keep the
//! *typical* transaction's attempt count bounded under a hot-pair storm
//! where immediate retry burns unbounded attempts.
//!
//! The storm is deterministic by construction (kv-zipf distilled to its hot
//! pair): a stalled writer takes the hot variable's encounter-time lock on
//! the blocking backend and holds it for a fixed window while 8 victim
//! threads each run exactly one read-modify-write of the hot pair; a
//! barrier closes the round and the next window opens.  Every victim
//! transaction therefore runs against a locked hot variable for a full
//! window:
//!
//! * **immediate retry** re-attempts as fast as the (deliberately tiny)
//!   spin budget aborts it — thousands of attempts per window, on every
//!   victim transaction at once;
//! * **karma** and **timestamp** elect one transaction to poll the lock at
//!   full speed and pace everyone else, so the *median* victim commits in
//!   a bounded number of attempts.  The maximum is the wrong statistic
//!   here by design: some transaction must poll the lock, and both
//!   policies deliberately nominate exactly one.
//!
//! The attempts histogram is log2-bucketed and quantiles report bucket
//! lower bounds, so the asserted bound has a power-of-two's worth of slack
//! on each side.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use stm_runtime::policy::{ImmediateRetry, Karma, RetryPolicy, Timestamp};
use stm_runtime::registry::TL2_BLOCKING;
use stm_runtime::tl2::Tl2Backend;
use stm_runtime::Stm;

const VICTIMS: usize = 8;
const ROUNDS: usize = 5;
const STALL: Duration = Duration::from_millis(30);
/// Attempts-per-transaction bound (asserted at the median): the managed
/// policies stay under it, immediate retry blows through it.
const BOUND: u32 = 512;

/// Run the hot-pair storm under `policy`; returns (commits, attempts_p50).
fn hot_pair_storm(policy: Arc<dyn RetryPolicy>) -> (u64, u32) {
    // A tiny spin budget makes every attempt against the locked hot
    // variable abort quickly, so attempt counts — not wall time — are what
    // the policies differ in.
    let tiny_spin = Arc::new(Tl2Backend::with_spin_limit(64));
    let stm = Arc::new(Stm::from_backend(TL2_BLOCKING, tiny_spin).with_policy(policy));
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
fn managed_policies_bound_the_attempts_immediate_retry_burns() {
    let total = (ROUNDS * (VICTIMS + 1)) as u64;

    let (commits, immediate_p50) = hot_pair_storm(Arc::new(ImmediateRetry));
    assert_eq!(commits, total, "every transaction still commits under immediate retry");
    assert!(
        immediate_p50 > BOUND,
        "immediate retry must burn the stall windows (p50 {immediate_p50} ≤ {BOUND}); \
         if this fails the storm no longer stalls its victims"
    );

    for (name, policy) in [
        ("karma", Arc::new(Karma::new(1_024)) as Arc<dyn RetryPolicy>),
        ("timestamp", Arc::new(Timestamp::new(1 << 17)) as Arc<dyn RetryPolicy>),
    ] {
        let (commits, p50) = hot_pair_storm(policy);
        assert_eq!(commits, total, "{name}: every transaction must still commit");
        assert!(
            p50 <= BOUND,
            "{name} must pace the storm (p50 {p50} > {BOUND}, immediate burned {immediate_p50})"
        );
    }
}
