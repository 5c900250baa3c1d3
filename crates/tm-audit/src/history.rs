//! The shared history type every auditable source converts into.
//!
//! An [`AuditHistory`] is the dbcop-style abstraction of a run: a set of
//! **sessions** (one per worker thread, or one per simulated process), each an
//! ordered list of **committed transactions** ([`AuditTxn`], the recorder's
//! [`stm_runtime::CommittedTxn`] re-exported), each carrying its external read
//! set and its write set as `(variable, value)` pairs.  Session order `so` is
//! implicit in the per-session ordering; the write-read relation `wr` is
//! recovered by [`crate::po::TxnPartialOrder::build`] from **unique write
//! values** — the recorded analogue of unique write versions: every
//! `(variable, value)` pair may be written by at most one transaction, so a
//! read names its source write unambiguously.
//!
//! Sources:
//! * live multi-threaded STM runs: [`stm_runtime::StreamingRecorder`] →
//!   [`crate::StreamMerger`] → [`crate::HistoryCollector`] (what
//!   `workloads::run_live` does when asked to capture);
//! * serialized histories, via `tm-history`'s decoder;
//! * deterministic simulator runs, via [`crate::adapter`];
//! * hand-written scenarios in tests, via [`AuditHistory::push_txn`].

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

/// Identifies a transaction by its place in the history: `session` is the
/// session index, `seq` the transaction's position within that session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// 0-based session index.
    pub session: usize,
    /// 0-based position within the session (the per-thread sequence number).
    pub seq: usize,
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}:{}", self.session, self.seq)
    }
}

/// One committed transaction as the auditor sees it: the recorder's own
/// record type, consumed as delivered.
pub use stm_runtime::{AccessSet, CommittedTxn as AuditTxn};

/// A recorded run: per-session transaction sequences over `n_vars` variables
/// that all start at `initial`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditHistory {
    /// Number of variables (variables are `0..n_vars`).
    pub n_vars: usize,
    /// The initial value of every variable; a read observing it (with no
    /// unique writer) is attributed to the synthetic initial transaction.
    pub initial: i64,
    /// The sessions, each an ordered list of committed transactions.
    pub sessions: Vec<Vec<AuditTxn>>,
}

impl AuditHistory {
    /// An empty history with `n_sessions` sessions over `n_vars` variables.
    pub fn new(n_vars: usize, initial: i64, n_sessions: usize) -> Self {
        AuditHistory { n_vars, initial, sessions: vec![Vec::new(); n_sessions] }
    }

    /// Append a transaction to a session (test/scenario convenience; the
    /// `hint` is set to the global append order).
    pub fn push_txn(
        &mut self,
        session: usize,
        reads: impl IntoIterator<Item = (usize, i64)>,
        writes: impl IntoIterator<Item = (usize, i64)>,
    ) -> TxnId {
        let hint = self.txn_count() as u64;
        let txns = &mut self.sessions[session];
        txns.push(AuditTxn {
            reads: reads.into_iter().collect(),
            writes: writes.into_iter().collect(),
            hint,
            footprint: 0,
        });
        TxnId { session, seq: txns.len() - 1 }
    }

    /// The transactions as `(session, transaction)` in recording order —
    /// sorted by `(hint, session)`, the stream a recorder and
    /// [`crate::StreamMerger`] would have delivered.
    pub fn recording_order(&self) -> Vec<(usize, &AuditTxn)> {
        let mut all: Vec<(usize, &AuditTxn)> = self
            .sessions
            .iter()
            .enumerate()
            .flat_map(|(s, session)| session.iter().map(move |txn| (s, txn)))
            .collect();
        all.sort_by_key(|&(s, txn)| (txn.hint, s));
        all
    }

    /// Total number of recorded transactions.
    pub fn txn_count(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum()
    }

    /// `true` if no transactions were recorded.
    pub fn is_empty(&self) -> bool {
        self.sessions.iter().all(Vec::is_empty)
    }

    /// Look up a transaction.
    pub fn txn(&self, id: TxnId) -> Option<&AuditTxn> {
        self.sessions.get(id.session)?.get(id.seq)
    }

    /// One-line shape summary (`sessions`, `transactions`, `variables`).
    pub fn shape(&self) -> String {
        format!(
            "{} sessions, {} transactions, {} variables",
            self.sessions.iter().filter(|s| !s.is_empty()).count(),
            self.txn_count(),
            self.n_vars
        )
    }
}

/// Finds, for each access of one access set in order, the value of the first
/// earlier access to the same variable: the question behind the
/// repeated-read rule of [`crate::po::TxnPartialOrder::extend`] and the wire
/// decoder's duplicate checks.
///
/// A set of up to [`FirstAccess::SCAN_LIMIT`] accesses is scanned backwards
/// (a handful of entries is the common case, and the scan allocates
/// nothing); past that, a map from variable to first value keeps the whole
/// set's check linear instead of quadratic in its width.  The map uses std's
/// keyed hasher: the variables may come from a hostile document.
#[derive(Debug, Default)]
pub struct FirstAccess {
    firsts: Option<HashMap<usize, i64>>,
}

impl FirstAccess {
    /// Accesses checked by the backward scan before the map takes over.
    pub const SCAN_LIMIT: usize = 32;

    /// The value of the first access to `set[i]`'s variable among
    /// `set[..i]`, if any.  Call it for `i = 0, 1, 2, …` in turn, on one set.
    #[inline]
    pub fn earlier(&mut self, set: &[(usize, i64)], i: usize) -> Option<i64> {
        let (var, value) = set[i];
        if i < Self::SCAN_LIMIT {
            return set[..i].iter().find(|&&(v, _)| v == var).map(|&(_, first)| first);
        }
        let firsts = self.firsts.get_or_insert_with(|| {
            let mut firsts = HashMap::with_capacity(2 * i);
            for &(v, first) in &set[..i] {
                firsts.entry(v).or_insert(first);
            }
            firsts
        });
        match firsts.entry(var) {
            Entry::Occupied(first) => Some(*first.get()),
            Entry::Vacant(slot) => {
                slot.insert(value);
                None
            }
        }
    }
}

/// Why a history cannot be turned into a transaction partial order.
///
/// Both variants are *history defects*, not consistency violations of a level:
/// they mean the run broke the recording contract (unique write values) or
/// returned a value nobody ever wrote — the latter is itself a consistency
/// disaster, so the auditor reports it as failing every level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// Two transactions wrote the same value to the same variable, so
    /// write-read edges cannot be recovered.
    AmbiguousWrite {
        /// The variable written twice with the same value.
        var: usize,
        /// The duplicated value.
        value: i64,
        /// The first writer.
        first: TxnId,
        /// The second writer.
        second: TxnId,
    },
    /// A transaction wrote the variable's initial value, so reads of that
    /// value can no longer be attributed (initial transaction or this one?).
    InitialValueWritten {
        /// The offending writer.
        writer: TxnId,
        /// The variable written.
        var: usize,
        /// The initial value that was re-written.
        value: i64,
    },
    /// A transaction observed two different values for the same variable
    /// (without writing it in between): the history is not atomically
    /// recordable.  The runtime recorder's read cache makes this impossible
    /// on live runs; adapted simulator executions can exhibit it.
    NonRepeatableRead {
        /// The reading transaction.
        reader: TxnId,
        /// The variable read twice.
        var: usize,
        /// Value of the first read.
        first: i64,
        /// Differing value of a later read.
        second: i64,
    },
    /// A transaction read a value that no transaction wrote and that is not
    /// the initial value.
    ThinAirRead {
        /// The reading transaction.
        reader: TxnId,
        /// The variable read.
        var: usize,
        /// The out-of-thin-air value observed.
        value: i64,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::AmbiguousWrite { var, value, first, second } => write!(
                f,
                "ambiguous write: both {first} and {second} wrote v{var} = {value}; \
                 audited runs must write unique values"
            ),
            HistoryError::InitialValueWritten { writer, var, value } => write!(
                f,
                "{writer} wrote v{var} = {value}, the initial value; audited runs \
                 must write values distinct from the initial one"
            ),
            HistoryError::NonRepeatableRead { reader, var, first, second } => write!(
                f,
                "non-repeatable read: {reader} observed v{var} = {first} and later \
                 v{var} = {second} in the same transaction"
            ),
            HistoryError::ThinAirRead { reader, var, value } => write!(
                f,
                "thin-air read: {reader} observed v{var} = {value}, which no \
                 transaction wrote and which is not the initial value"
            ),
        }
    }
}

impl std::error::Error for HistoryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_shape() {
        let mut h = AuditHistory::new(4, 0, 2);
        assert!(h.is_empty());
        let t0 = h.push_txn(0, [(0, 0)], [(0, 7)]);
        let t1 = h.push_txn(1, [(0, 7)], []);
        assert_eq!(t0, TxnId { session: 0, seq: 0 });
        assert_eq!(t1, TxnId { session: 1, seq: 0 });
        assert_eq!(h.txn_count(), 2);
        assert_eq!(h.txn(t1).unwrap().reads, vec![(0, 7)]);
        assert_eq!(h.txn(TxnId { session: 1, seq: 5 }), None);
        assert!(h.shape().contains("2 sessions"));
        assert!(h.shape().contains("2 transactions"));
        assert_eq!(h.sessions[0][0].hint, 0);
        assert_eq!(h.sessions[1][0].hint, 1);
    }

    #[test]
    fn errors_render_helpfully() {
        let a = HistoryError::AmbiguousWrite {
            var: 3,
            value: 9,
            first: TxnId { session: 0, seq: 0 },
            second: TxnId { session: 1, seq: 2 },
        };
        assert!(a.to_string().contains("v3 = 9"));
        assert!(a.to_string().contains("s1:2"));
        let t =
            HistoryError::ThinAirRead { reader: TxnId { session: 0, seq: 1 }, var: 2, value: 5 };
        assert!(t.to_string().contains("thin-air"));
    }

    /// The map past the scan limit answers exactly what the scan would.
    #[test]
    fn first_access_agrees_with_the_scan_at_every_width() {
        let n = 3 * FirstAccess::SCAN_LIMIT;
        // Variables repeat with period 40 (so repeats start past the limit)
        // and values never do, so every answer names one exact access.
        let set: Vec<(usize, i64)> = (0..n).map(|i| (i % 40, i as i64)).collect();
        let mut firsts = FirstAccess::default();
        for i in 0..n {
            let scan = set[..i].iter().find(|&&(v, _)| v == set[i].0).map(|&(_, first)| first);
            assert_eq!(firsts.earlier(&set, i), scan, "access {i}");
        }
    }
}
