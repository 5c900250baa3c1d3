//! Pluggable retry policies: what happens *between* transaction attempts.
//!
//! The old front-end baked one loop into [`crate::Stm::run`]: retry
//! immediately, forever.  That is one point in a design space the PCL
//! trade-offs care about — under contention, *when* you retry decides how
//! much work the abort storm burns.  A [`RetryPolicy`] makes the loop a
//! strategy:
//!
//! * [`ImmediateRetry`] — the historical behaviour (one spin hint, retry);
//! * [`BoundedRetry`] — give up after N attempts (surfaced by
//!   [`crate::Stm::run_policy`] as an error instead of looping forever);
//! * [`ExponentialBackoff`] — spin-wait `base · 2^attempt` (capped both
//!   per-attempt and in total) before retrying, the classic
//!   contention-management answer;
//! * [`Karma`] — priority by cumulative work: the loser that has burned the
//!   most attempts proceeds immediately, everyone else waits proportionally
//!   to their priority deficit (ties broken by ticket so exactly one
//!   contender is "top" at a time — the symmetric-livelock breaker);
//! * [`Timestamp`] — oldest-transaction-wins: the transaction holding the
//!   oldest live ticket retries immediately, younger ones pace themselves
//!   by their distance from it;
//! * [`Adaptive`] — exponential backoff whose gain is steered live by the
//!   attempts-p99 of the [`crate::StmStats`] attempt histogram: near-zero
//!   pacing on quiet workloads, deep backoff once the tail grows.
//!
//! Every policy answers through one hook, [`RetryPolicy::decide`], which
//! sees a [`RetryCtx`] (attempt count, live stats, per-transaction
//! [`PolicyScratch`]); the front-end tells the policy when a transaction
//! finally commits via [`RetryPolicy::on_commit`] so priority state can be
//! released.  Policies are measurable, not just selectable: the
//! per-transaction attempt histogram in [`crate::StmStats`] (p50/p99
//! attempts) shows what a policy actually did to the retry distribution.

use crate::stats::StmStats;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// What to do after a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Retry right away.
    RetryNow,
    /// Spin-wait this many iterations, then retry.
    SpinThen(u32),
    /// Stop retrying ([`crate::Stm::run_policy`] returns the abort;
    /// [`crate::Stm::run`], which promises a result, ignores this and
    /// retries anyway).
    GiveUp,
}

/// Per-transaction scratch state a policy may use across the attempts of
/// **one** `run` call.  The front-end zeroes it per transaction and hands it
/// back to the policy on every [`RetryPolicy::decide`] and the final
/// [`RetryPolicy::on_commit`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyScratch {
    /// Total spin iterations this transaction has been told to burn so far
    /// (maintained by [`ExponentialBackoff`] to cap total, not just
    /// per-attempt, spin time).
    pub spun: u64,
    /// A policy-assigned ticket (0 = none drawn yet).  [`Karma`] and
    /// [`Timestamp`] draw one on the first failure and release it on commit.
    pub ticket: u64,
}

/// Everything a contention-aware policy can consult after a failed attempt.
pub struct RetryCtx<'a> {
    /// Failed attempts so far in this transaction (first call sees `1`).
    pub attempt: u32,
    /// Live counters for the whole `Stm` instance (the attempts histogram
    /// drives [`Adaptive`]).
    pub stats: &'a StmStats,
    /// This transaction's scratch state.
    pub scratch: &'a mut PolicyScratch,
}

/// A retry strategy consulted once per failed attempt.
///
/// Implementations must be cheap and thread-safe: the same policy instance
/// is consulted concurrently from every worker thread.
pub trait RetryPolicy: Send + Sync {
    /// Short machine-readable name (appears in reports).
    fn name(&self) -> &'static str;

    /// Decide what to do after the `ctx.attempt`-th consecutive failure.
    fn decide(&self, ctx: RetryCtx<'_>) -> RetryDecision;

    /// Called once when the transaction finally commits, so policies can
    /// release any shared priority state tied to `scratch`.
    fn on_commit(&self, _scratch: &mut PolicyScratch) {}
}

impl fmt::Debug for dyn RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RetryPolicy({})", self.name())
    }
}

/// Retry immediately, forever (the historical default).
#[derive(Debug, Clone, Copy, Default)]
pub struct ImmediateRetry;

impl RetryPolicy for ImmediateRetry {
    fn name(&self) -> &'static str {
        "immediate"
    }

    fn decide(&self, _ctx: RetryCtx<'_>) -> RetryDecision {
        RetryDecision::RetryNow
    }
}

/// Retry immediately up to `max_attempts` total attempts, then give up.
#[derive(Debug, Clone, Copy)]
pub struct BoundedRetry {
    /// Total attempts allowed (must be ≥ 1).
    pub max_attempts: u32,
}

impl RetryPolicy for BoundedRetry {
    fn name(&self) -> &'static str {
        "bounded"
    }

    fn decide(&self, ctx: RetryCtx<'_>) -> RetryDecision {
        if ctx.attempt >= self.max_attempts.max(1) {
            RetryDecision::GiveUp
        } else {
            RetryDecision::RetryNow
        }
    }
}

/// Exponential backoff: spin `base_spins · 2^(attempt-1)` iterations (capped
/// at `max_spins` per attempt and `max_total_spins` across the whole
/// transaction) before each retry.  Once the total budget is spent, further
/// retries are immediate — backoff stops adding latency instead of spinning
/// unboundedly on a long conflict chain.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialBackoff {
    /// Spin iterations before the second attempt.
    pub base_spins: u32,
    /// Upper bound on any single attempt's spin count.
    pub max_spins: u32,
    /// Upper bound on the transaction's *cumulative* spin count.
    pub max_total_spins: u64,
}

impl Default for ExponentialBackoff {
    fn default() -> Self {
        ExponentialBackoff { base_spins: 32, max_spins: 16_384, max_total_spins: 1 << 20 }
    }
}

impl ExponentialBackoff {
    fn per_attempt_spins(&self, attempt: u32) -> u32 {
        let exponent = attempt.saturating_sub(1).min(24);
        self.base_spins.saturating_mul(1u32 << exponent).min(self.max_spins.max(1))
    }
}

impl RetryPolicy for ExponentialBackoff {
    fn name(&self) -> &'static str {
        "backoff"
    }

    fn decide(&self, ctx: RetryCtx<'_>) -> RetryDecision {
        let remaining = self.max_total_spins.saturating_sub(ctx.scratch.spun);
        let spins = (self.per_attempt_spins(ctx.attempt) as u64).min(remaining) as u32;
        if spins == 0 {
            return RetryDecision::RetryNow;
        }
        ctx.scratch.spun += spins as u64;
        RetryDecision::SpinThen(spins)
    }
}

/// How many bits of a [`Karma`] priority word hold the ticket tie-breaker.
const KARMA_TICKET_BITS: u32 = 24;
const KARMA_TICKET_MASK: u64 = (1 << KARMA_TICKET_BITS) - 1;

/// Karma: priority by cumulative work.  Each transaction's priority is the
/// number of attempts it has already burned; the highest-priority contender
/// retries immediately while everyone else spins proportionally to their
/// priority *deficit*.  Ties (equal attempts — the symmetric-livelock case)
/// are broken by a per-transaction ticket folded into the low bits of the
/// priority word, so exactly one contender is "top" at any moment.
#[derive(Debug)]
pub struct Karma {
    /// Spin iterations per point of priority deficit.
    pub base_spins: u32,
    /// Highest encoded priority currently contending (0 = nobody waiting).
    top: AtomicU64,
    /// Ticket source for the tie-breaker.
    next_ticket: AtomicU64,
}

impl Karma {
    /// A karma manager pacing losers by `base_spins` per deficit point.
    pub fn new(base_spins: u32) -> Self {
        Karma { base_spins, top: AtomicU64::new(0), next_ticket: AtomicU64::new(0) }
    }

    fn encode(attempts: u32, ticket: u64) -> u64 {
        // Earlier tickets (smaller values) must win ties, so fold the ticket
        // in complemented: same attempts ⇒ the older transaction encodes
        // higher and fetch_max keeps it on top.
        ((attempts as u64) << KARMA_TICKET_BITS)
            | (KARMA_TICKET_MASK - (ticket & KARMA_TICKET_MASK))
    }
}

impl Default for Karma {
    fn default() -> Self {
        Karma::new(64)
    }
}

impl RetryPolicy for Karma {
    fn name(&self) -> &'static str {
        "karma"
    }

    fn decide(&self, ctx: RetryCtx<'_>) -> RetryDecision {
        if ctx.scratch.ticket == 0 {
            ctx.scratch.ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed) + 1;
        }
        let mine = Karma::encode(ctx.attempt, ctx.scratch.ticket);
        let top = self.top.fetch_max(mine, Ordering::Relaxed).max(mine);
        if mine >= top {
            return RetryDecision::RetryNow;
        }
        let deficit = ((top >> KARMA_TICKET_BITS) as u32).saturating_sub(ctx.attempt).max(1);
        RetryDecision::SpinThen(self.base_spins.saturating_mul(deficit.min(1024)))
    }

    fn on_commit(&self, scratch: &mut PolicyScratch) {
        if scratch.ticket != 0 {
            // Clear the leaderboard; surviving contenders re-assert their
            // priority on their next decide via fetch_max.
            self.top.store(0, Ordering::Relaxed);
            scratch.ticket = 0;
        }
    }
}

/// Timestamp (oldest-transaction-wins): transactions draw monotonically
/// increasing tickets on their first failure; the holder of the oldest live
/// ticket retries immediately, younger transactions spin proportionally to
/// their distance behind it.  A committing transaction releases its ticket,
/// promoting the next-oldest.
#[derive(Debug)]
pub struct Timestamp {
    /// Spin iterations per ticket of age distance.
    pub base_spins: u32,
    next_ticket: AtomicU64,
    /// Oldest live (not yet committed) ticket; `u64::MAX` when none.
    oldest: AtomicU64,
}

impl Timestamp {
    /// An oldest-wins manager pacing younger transactions by `base_spins`
    /// per ticket of distance.
    pub fn new(base_spins: u32) -> Self {
        Timestamp { base_spins, next_ticket: AtomicU64::new(0), oldest: AtomicU64::new(u64::MAX) }
    }
}

impl Default for Timestamp {
    fn default() -> Self {
        Timestamp::new(64)
    }
}

impl RetryPolicy for Timestamp {
    fn name(&self) -> &'static str {
        "timestamp"
    }

    fn decide(&self, ctx: RetryCtx<'_>) -> RetryDecision {
        if ctx.scratch.ticket == 0 {
            ctx.scratch.ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed) + 1;
        }
        let oldest =
            self.oldest.fetch_min(ctx.scratch.ticket, Ordering::Relaxed).min(ctx.scratch.ticket);
        if ctx.scratch.ticket <= oldest {
            return RetryDecision::RetryNow;
        }
        let distance = (ctx.scratch.ticket - oldest).min(1024) as u32;
        RetryDecision::SpinThen(self.base_spins.saturating_mul(distance))
    }

    fn on_commit(&self, scratch: &mut PolicyScratch) {
        if scratch.ticket != 0 {
            // Release the ticket if we were the oldest; the next-oldest
            // re-installs itself via fetch_min on its next decide.
            let _ = self.oldest.compare_exchange(
                scratch.ticket,
                u64::MAX,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            scratch.ticket = 0;
        }
    }
}

/// How many `decide` calls [`Adaptive`] waits between gain recomputes.
const ADAPTIVE_REFRESH: u32 = 256;

/// Adaptive backoff: exponential pacing whose depth (gain) is steered live
/// by the attempts-p99 of the shared [`StmStats`] histogram.  A quiet
/// workload (p99 ≤ 1) pays nothing — every decision is an immediate retry —
/// while a growing retry tail deepens the backoff curve toward
/// `base · 2^gain`, capped at `max_spins`.
#[derive(Debug)]
pub struct Adaptive {
    /// Spin iterations before the second attempt once backoff engages.
    pub base_spins: u32,
    /// Upper bound on any single attempt's spin count.
    pub max_spins: u32,
    gain: AtomicU32,
    decides: AtomicU32,
}

impl Adaptive {
    /// An adaptive manager with the given pacing bounds.
    pub fn new(base_spins: u32, max_spins: u32) -> Self {
        Adaptive { base_spins, max_spins, gain: AtomicU32::new(0), decides: AtomicU32::new(0) }
    }

    /// The current backoff gain (exposed for tests and reports).
    pub fn gain(&self) -> u32 {
        self.gain.load(Ordering::Relaxed)
    }

    fn refresh_gain(&self, stats: &StmStats) {
        // gain = bit-length(p99) − 1: p99 ≤ 1 ⇒ 0 (no backoff),
        // p99 ∈ [2,3] ⇒ 1, [4,7] ⇒ 2, …, clamped so spins stay sane.
        let p99 = stats.attempts_p99();
        let gain = (32 - p99.leading_zeros()).saturating_sub(1).min(12);
        self.gain.store(gain, Ordering::Relaxed);
    }
}

impl Default for Adaptive {
    fn default() -> Self {
        Adaptive::new(32, 16_384)
    }
}

impl RetryPolicy for Adaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn decide(&self, ctx: RetryCtx<'_>) -> RetryDecision {
        if self.decides.fetch_add(1, Ordering::Relaxed).is_multiple_of(ADAPTIVE_REFRESH) {
            self.refresh_gain(ctx.stats);
        }
        let gain = self.gain();
        if gain == 0 {
            return RetryDecision::RetryNow;
        }
        let exponent = ctx.attempt.saturating_sub(1).min(gain);
        let spins =
            self.base_spins.saturating_mul(1u32 << exponent.min(24)).min(self.max_spins.max(1));
        RetryDecision::SpinThen(spins)
    }
}

/// How many pure spin iterations [`spin_wait`] burns before ceding the
/// timeslice.  Short waits (one cache-miss-ish) never reach it.
const SPIN_YIELD_EVERY: u32 = 1 << 10;

/// Wait `spins` iterations (what [`RetryDecision::SpinThen`] asks for).
///
/// Short waits busy-spin; long waits yield to the scheduler every
/// `SPIN_YIELD_EVERY` iterations: when threads outnumber cores, the
/// conflicting transaction (often a preempted encounter-lock holder) can
/// only finish on a core a paced waiter gives up, and a pure busy-spin
/// burns the exact timeslice it needs.
pub fn spin_wait(spins: u32) {
    let mut remaining = spins;
    while remaining > 0 {
        let chunk = remaining.min(SPIN_YIELD_EVERY);
        for _ in 0..chunk {
            std::hint::spin_loop();
        }
        remaining -= chunk;
        if remaining > 0 {
            std::thread::yield_now();
        }
    }
}

/// Every registered policy spelling, exercised by the round-trip test and
/// listed in CLI help (`NAME` or `NAME:args` forms).
pub const POLICY_SPECS: &[(&str, &str)] = &[
    ("immediate", "immediate"),
    ("bounded:3", "bounded"),
    ("backoff", "backoff"),
    ("backoff:4:64", "backoff"),
    ("backoff:4:64:4096", "backoff"),
    ("karma", "karma"),
    ("karma:16", "karma"),
    ("timestamp", "timestamp"),
    ("timestamp:16", "timestamp"),
    ("adaptive", "adaptive"),
    ("adaptive:8:512", "adaptive"),
];

/// Parse a policy description shared by the CLI, benches and examples:
/// `immediate`, `bounded:N` (N total attempts), `backoff[:BASE:MAX[:TOTAL]]`,
/// `karma[:BASE]`, `timestamp[:BASE]` or `adaptive[:BASE:MAX]`.
pub fn parse_policy(s: &str) -> Result<Arc<dyn RetryPolicy>, String> {
    fn num<T: std::str::FromStr>(what: &str, raw: &str) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        raw.parse().map_err(|e| format!("{what}: {e}"))
    }
    let mut parts = s.split(':');
    let head = parts.next().unwrap_or_default();
    let args: Vec<&str> = parts.collect();
    match (head, args.as_slice()) {
        ("immediate", []) => Ok(Arc::new(ImmediateRetry)),
        ("bounded", [n]) => {
            let max_attempts: u32 = num("bounded:N needs an attempt count", n)?;
            if max_attempts == 0 {
                return Err("bounded:N needs N ≥ 1".into());
            }
            Ok(Arc::new(BoundedRetry { max_attempts }))
        }
        ("backoff", []) => Ok(Arc::new(ExponentialBackoff::default())),
        ("backoff", [base, max]) => Ok(Arc::new(ExponentialBackoff {
            base_spins: num("backoff base", base)?,
            max_spins: num("backoff max", max)?,
            ..ExponentialBackoff::default()
        })),
        ("backoff", [base, max, total]) => Ok(Arc::new(ExponentialBackoff {
            base_spins: num("backoff base", base)?,
            max_spins: num("backoff max", max)?,
            max_total_spins: num("backoff total", total)?,
        })),
        ("karma", []) => Ok(Arc::new(Karma::default())),
        ("karma", [base]) => Ok(Arc::new(Karma::new(num("karma base", base)?))),
        ("timestamp", []) => Ok(Arc::new(Timestamp::default())),
        ("timestamp", [base]) => Ok(Arc::new(Timestamp::new(num("timestamp base", base)?))),
        ("adaptive", []) => Ok(Arc::new(Adaptive::default())),
        ("adaptive", [base, max]) => {
            Ok(Arc::new(Adaptive::new(num("adaptive base", base)?, num("adaptive max", max)?)))
        }
        _ => Err(format!(
            "unknown retry policy {s:?} (use immediate | bounded:N | backoff[:BASE:MAX[:TOTAL]] \
             | karma[:BASE] | timestamp[:BASE] | adaptive[:BASE:MAX])"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(attempt: u32, stats: &'a StmStats, scratch: &'a mut PolicyScratch) -> RetryCtx<'a> {
        RetryCtx { attempt, stats, scratch }
    }

    #[test]
    fn immediate_always_retries() {
        let stats = StmStats::default();
        let mut scratch = PolicyScratch::default();
        for attempt in [1, 5, 1_000] {
            assert_eq!(
                ImmediateRetry.decide(ctx(attempt, &stats, &mut scratch)),
                RetryDecision::RetryNow
            );
        }
    }

    #[test]
    fn bounded_gives_up_at_the_limit() {
        let policy = BoundedRetry { max_attempts: 3 };
        let stats = StmStats::default();
        let mut scratch = PolicyScratch::default();
        assert_eq!(policy.decide(ctx(1, &stats, &mut scratch)), RetryDecision::RetryNow);
        assert_eq!(policy.decide(ctx(2, &stats, &mut scratch)), RetryDecision::RetryNow);
        assert_eq!(policy.decide(ctx(3, &stats, &mut scratch)), RetryDecision::GiveUp);
        assert_eq!(policy.decide(ctx(9, &stats, &mut scratch)), RetryDecision::GiveUp);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = ExponentialBackoff { base_spins: 10, max_spins: 35, ..Default::default() };
        let stats = StmStats::default();
        let mut scratch = PolicyScratch::default();
        assert_eq!(policy.decide(ctx(1, &stats, &mut scratch)), RetryDecision::SpinThen(10));
        assert_eq!(policy.decide(ctx(2, &stats, &mut scratch)), RetryDecision::SpinThen(20));
        assert_eq!(policy.decide(ctx(3, &stats, &mut scratch)), RetryDecision::SpinThen(35));
        assert_eq!(policy.decide(ctx(30, &stats, &mut scratch)), RetryDecision::SpinThen(35));
        spin_wait(3); // must terminate
    }

    #[test]
    fn backoff_total_cap_exhausts_to_immediate_retries() {
        let policy = ExponentialBackoff { base_spins: 10, max_spins: 35, max_total_spins: 40 };
        let stats = StmStats::default();
        let mut scratch = PolicyScratch::default();
        // 10 + 20 spend 30 of the 40 budget; attempt 3 is clipped to the
        // remaining 10; attempt 4 onward has nothing left.
        assert_eq!(policy.decide(ctx(1, &stats, &mut scratch)), RetryDecision::SpinThen(10));
        assert_eq!(policy.decide(ctx(2, &stats, &mut scratch)), RetryDecision::SpinThen(20));
        assert_eq!(policy.decide(ctx(3, &stats, &mut scratch)), RetryDecision::SpinThen(10));
        assert_eq!(policy.decide(ctx(4, &stats, &mut scratch)), RetryDecision::RetryNow);
        assert_eq!(policy.decide(ctx(5, &stats, &mut scratch)), RetryDecision::RetryNow);
        assert_eq!(scratch.spun, 40);
    }

    #[test]
    fn karma_elects_exactly_one_top_contender_under_ties() {
        let policy = Karma::new(8);
        let stats = StmStats::default();
        let mut a = PolicyScratch::default();
        let mut b = PolicyScratch::default();
        // Same attempt count: the earlier ticket (a) wins the tie; b waits.
        let da = policy.decide(ctx(1, &stats, &mut a));
        let db = policy.decide(ctx(1, &stats, &mut b));
        assert_eq!(da, RetryDecision::RetryNow);
        assert!(matches!(db, RetryDecision::SpinThen(_)), "{db:?}");
        // b accumulates more attempts than a and takes the lead.
        let db = policy.decide(ctx(5, &stats, &mut b));
        assert_eq!(db, RetryDecision::RetryNow);
        let da = policy.decide(ctx(1, &stats, &mut a));
        assert!(matches!(da, RetryDecision::SpinThen(_)), "{da:?}");
        // b commits: the leaderboard clears and a proceeds immediately again.
        policy.on_commit(&mut b);
        assert_eq!(b.ticket, 0);
        assert_eq!(policy.decide(ctx(1, &stats, &mut a)), RetryDecision::RetryNow);
    }

    #[test]
    fn timestamp_lets_the_oldest_through_and_paces_the_young() {
        let policy = Timestamp::new(8);
        let stats = StmStats::default();
        let mut old = PolicyScratch::default();
        let mut young = PolicyScratch::default();
        assert_eq!(policy.decide(ctx(1, &stats, &mut old)), RetryDecision::RetryNow);
        assert_eq!(policy.decide(ctx(1, &stats, &mut young)), RetryDecision::SpinThen(8));
        // No matter how many attempts the young one burns, age rules.
        assert_eq!(policy.decide(ctx(50, &stats, &mut young)), RetryDecision::SpinThen(8));
        // The oldest commits and releases its ticket; the young one is now
        // the oldest live transaction and proceeds immediately.
        policy.on_commit(&mut old);
        assert_eq!(policy.decide(ctx(51, &stats, &mut young)), RetryDecision::RetryNow);
    }

    #[test]
    fn adaptive_gain_follows_the_attempts_tail() {
        let policy = Adaptive::new(4, 64);
        let stats = StmStats::default();
        let mut scratch = PolicyScratch::default();
        // Empty histogram: gain 0, immediate retries.
        assert_eq!(policy.decide(ctx(1, &stats, &mut scratch)), RetryDecision::RetryNow);
        assert_eq!(policy.gain(), 0);
        // A heavy tail (p99 lands in the [9,16] bucket ⇒ lower bound 9,
        // bit-length 4 ⇒ gain 3) engages exponential pacing.
        for _ in 0..100 {
            stats.record_attempts(12);
        }
        let fresh = Adaptive::new(4, 64);
        assert!(matches!(fresh.decide(ctx(1, &stats, &mut scratch)), RetryDecision::SpinThen(4)));
        assert_eq!(fresh.gain(), 3);
        assert_eq!(fresh.decide(ctx(2, &stats, &mut scratch)), RetryDecision::SpinThen(8));
        assert_eq!(
            fresh.decide(ctx(10, &stats, &mut scratch)),
            RetryDecision::SpinThen(32),
            "exponent capped at gain"
        );
    }

    #[test]
    fn every_registered_policy_spec_round_trips_through_parse() {
        for &(spec, expected_name) in POLICY_SPECS {
            let policy =
                parse_policy(spec).unwrap_or_else(|e| panic!("spec {spec:?} failed to parse: {e}"));
            assert_eq!(policy.name(), expected_name, "spec {spec:?}");
            // Re-parsing the bare name must also work for every family.
            let bare = parse_policy(expected_name).or_else(|_| parse_policy(spec)).unwrap();
            assert_eq!(bare.name(), expected_name);
        }
        assert!(parse_policy("bounded:0").is_err());
        assert!(parse_policy("bounded").is_err());
        assert!(parse_policy("karma:x").is_err());
        assert!(parse_policy("nope").unwrap_err().contains("unknown retry policy"));
    }

    #[test]
    fn policies_parse_from_shared_syntax() {
        assert_eq!(parse_policy("immediate").unwrap().name(), "immediate");
        assert_eq!(parse_policy("bounded:8").unwrap().name(), "bounded");
        assert_eq!(parse_policy("backoff").unwrap().name(), "backoff");
        assert_eq!(parse_policy("backoff:4:64").unwrap().name(), "backoff");
        assert_eq!(parse_policy("karma").unwrap().name(), "karma");
        assert_eq!(parse_policy("timestamp").unwrap().name(), "timestamp");
        assert_eq!(parse_policy("adaptive").unwrap().name(), "adaptive");
    }
}
