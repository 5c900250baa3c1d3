//! Lightweight, thread-safe statistics counters, including the
//! per-transaction attempt histogram that measures how long the retry loop
//! ran (the livelock statistic) and the per-reason abort taxonomy that
//! makes each backend's sacrifice visible.
//!
//! The counters are **striped**: each thread writes its own cache-line-padded
//! stripe (its [`tm_telemetry::thread_index`], round-robin) and readers sum
//! across stripes.
//! Counts stay exact — a read sums whatever every stripe holds at that moment
//! — but the hot path never bounces a shared cache line between committing
//! threads, which used to serialize disjoint transactions through the stats
//! block even with telemetry off.

use crate::txn::AbortReason;
use std::sync::atomic::{AtomicU64, Ordering};
use tm_telemetry::metrics::{bucket_lower_bound, bucket_of, quantile_bucket};

/// The attempts histogram is the spine's log2 histogram over retries: a
/// transaction of `a` attempts lands in [`bucket_of`]`(a − 1)`, so bucket 0
/// holds exactly 1 attempt and bucket `i >= 1` holds `[2^(i-1) + 1, 2^i]`
/// attempts, reported as their lower bound [`bucket_lower_bound`]`(i) + 1`.
/// 33 buckets cover the whole `u32` attempt range.
const ATTEMPT_BUCKETS: usize = 33;

/// How many cache-line-padded counter stripes a [`StmStats`] carries (power
/// of two so the stripe pick is a mask).
const STRIPES: usize = 16;

/// One thread-stripe of counters, padded out to its own cache lines so
/// commits on different threads never write the same line.  It holds two
/// distributions and nothing else: every total is derived from them.
#[repr(align(128))]
#[derive(Debug)]
struct StatStripe {
    abort_reasons: [AtomicU64; AbortReason::ALL.len()],
    attempts: [AtomicU64; ATTEMPT_BUCKETS],
}

impl Default for StatStripe {
    fn default() -> Self {
        StatStripe {
            abort_reasons: std::array::from_fn(|_| AtomicU64::new(0)),
            attempts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The per-reason abort taxonomy and the attempts-per-transaction histogram
/// for one [`crate::Stm`] instance, and the commit / abort totals they
/// determine.
#[derive(Debug)]
pub struct StmStats {
    stripes: Box<[StatStripe; STRIPES]>,
}

impl Default for StmStats {
    fn default() -> Self {
        StmStats { stripes: Box::new(std::array::from_fn(|_| StatStripe::default())) }
    }
}

impl StmStats {
    #[inline]
    fn local(&self) -> &StatStripe {
        &self.stripes[tm_telemetry::thread_index() & (STRIPES - 1)]
    }

    fn sum(&self, field: impl Fn(&StatStripe) -> &AtomicU64) -> u64 {
        self.stripes.iter().map(|s| field(s).load(Ordering::Relaxed)).sum()
    }

    /// Record an aborted attempt and why it aborted.
    pub fn record_abort(&self, reason: AbortReason) {
        self.local().abort_reasons[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record how many attempts one transaction took to commit.
    /// `attempts` is 1-based; 0 is treated as 1.  This is also what counts
    /// a commit: see [`StmStats::commits`].
    pub fn record_attempts(&self, attempts: u32) {
        let retries = u64::from(attempts.max(1) - 1);
        self.local().attempts[bucket_of(retries)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of commits so far: every committed transaction lands in the
    /// attempts histogram once, so this is [`StmStats::attempts_recorded`].
    pub fn commits(&self) -> u64 {
        self.attempts_recorded()
    }

    /// Number of aborted attempts so far (the sum of the taxonomy).
    pub fn aborts(&self) -> u64 {
        self.abort_reason_counts().iter().map(|(_, n)| n).sum()
    }

    /// Aborts recorded for one specific reason.
    pub fn aborts_by(&self, reason: AbortReason) -> u64 {
        self.sum(|s| &s.abort_reasons[reason.index()])
    }

    /// The whole abort taxonomy, in [`AbortReason::ALL`] order.
    pub fn abort_reason_counts(&self) -> [(AbortReason, u64); AbortReason::ALL.len()] {
        std::array::from_fn(|i| (AbortReason::ALL[i], self.aborts_by(AbortReason::ALL[i])))
    }

    /// A snapshot of the attempts histogram: `snapshot[i]` transactions
    /// finished within bucket `i`'s log2-spaced attempt range (bucket 0 is
    /// exactly 1 attempt, bucket `i >= 1` spans `2^(i-1)+1 ..= 2^i`).
    pub fn attempts_histogram(&self) -> [u64; ATTEMPT_BUCKETS] {
        std::array::from_fn(|i| self.sum(|s| &s.attempts[i]))
    }

    /// Transactions with a recorded attempt count.
    pub fn attempts_recorded(&self) -> u64 {
        self.attempts_histogram().iter().sum()
    }

    /// The `q`-quantile (0.0..=1.0) of attempts-per-transaction, or 0 when
    /// nothing was recorded.  Buckets report their lower bound, so extreme
    /// tails read "at least".
    pub fn attempts_quantile(&self, q: f64) -> u32 {
        quantile_bucket(&self.attempts_histogram(), q)
            .map_or(0, |i| bucket_lower_bound(i) as u32 + 1)
    }

    /// Median attempts per transaction.
    pub fn attempts_p50(&self) -> u32 {
        self.attempts_quantile(0.50)
    }

    /// 99th-percentile attempts per transaction.
    pub fn attempts_p99(&self) -> u32 {
        self.attempts_quantile(0.99)
    }

    /// Mean attempts per transaction (each bucket counted at its lower
    /// bound), or 0.0 when nothing was recorded.
    pub fn attempts_mean(&self) -> f64 {
        let histogram = self.attempts_histogram();
        let total: u64 = histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = histogram
            .iter()
            .enumerate()
            .map(|(i, count)| (bucket_lower_bound(i) + 1) * count)
            .sum();
        weighted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = StmStats::default();
        s.record_attempts(1);
        s.record_attempts(2);
        s.record_abort(AbortReason::LockConflict);
        assert_eq!(s.commits(), 2);
        assert_eq!(s.aborts(), 1);
    }

    #[test]
    fn abort_reason_counts_sum_to_total_aborts() {
        let s = StmStats::default();
        s.record_abort(AbortReason::ReadValidation);
        s.record_abort(AbortReason::ReadValidation);
        s.record_abort(AbortReason::LockConflict);
        s.record_abort(AbortReason::FirstCommitterWins);
        s.record_abort(AbortReason::Explicit);
        assert_eq!(s.aborts_by(AbortReason::ReadValidation), 2);
        let sum: u64 = s.abort_reason_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(sum, s.aborts());
    }

    #[test]
    fn striped_counters_stay_exact_across_threads() {
        let s = std::sync::Arc::new(StmStats::default());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        s.record_abort(AbortReason::LockConflict);
                        s.record_attempts(2);
                    }
                });
            }
        });
        assert_eq!(s.commits(), 8_000);
        assert_eq!(s.aborts(), 8_000);
        assert_eq!(s.aborts_by(AbortReason::LockConflict), 8_000);
        assert_eq!(s.attempts_recorded(), 8_000);
        assert_eq!(s.attempts_p50(), 2);
    }

    /// The bucket one transaction of `attempts` attempts lands in.
    fn bucket_of_attempts(attempts: u32) -> usize {
        let s = StmStats::default();
        s.record_attempts(attempts);
        s.attempts_histogram().iter().position(|&n| n == 1).expect("one recorded transaction")
    }

    #[test]
    fn attempt_buckets_are_log2_spaced() {
        assert_eq!(bucket_of_attempts(1), 0);
        assert_eq!(bucket_of_attempts(2), 1);
        assert_eq!(bucket_of_attempts(3), 2);
        assert_eq!(bucket_of_attempts(4), 2);
        assert_eq!(bucket_of_attempts(5), 3);
        assert_eq!(bucket_of_attempts(8), 3);
        assert_eq!(bucket_of_attempts(9), 4);
        assert_eq!(bucket_of_attempts(u32::MAX), 32);
        for i in 1..ATTEMPT_BUCKETS - 1 {
            let lo = bucket_lower_bound(i) as u32 + 1;
            assert_eq!(bucket_of_attempts(lo), i);
            assert_eq!(bucket_of_attempts(1 << i), i, "upper bound of bucket {i}");
        }
    }

    #[test]
    fn attempt_quantiles_come_from_the_histogram() {
        let s = StmStats::default();
        assert_eq!(s.attempts_p50(), 0);
        assert_eq!(s.attempts_mean(), 0.0);
        // 90 one-shot transactions, 9 that took 3 attempts, 1 that took 40.
        for _ in 0..90 {
            s.record_attempts(1);
        }
        for _ in 0..9 {
            s.record_attempts(3);
        }
        s.record_attempts(40);
        assert_eq!(s.attempts_recorded(), 100);
        assert_eq!(s.attempts_p50(), 1);
        assert_eq!(s.attempts_p99(), 3, "3 lands in [3,4], whose lower bound is 3");
        // 40 lands in [33,64]: the tail reads "at least 33" instead of the
        // old linear histogram's flattened "17+".
        assert_eq!(s.attempts_quantile(1.0), 33);
        let mean = s.attempts_mean();
        assert!((mean - (90.0 + 27.0 + 33.0) / 100.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn attempt_zero_counts_as_one() {
        let s = StmStats::default();
        s.record_attempts(0);
        assert_eq!(s.attempts_p50(), 1);
    }
}
