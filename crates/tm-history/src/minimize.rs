//! Delta-debugging reduction of histories to minimal reproducers.
//!
//! [`minimize`] takes a history and a predicate ("the checkers still
//! disagree on it") and greedily removes transactions — classic ddmin over
//! the global recording order — while the predicate keeps holding.  Two
//! invariants are maintained so every intermediate candidate is a *valid*
//! history (and the final reproducer re-encodes as a wire document the
//! decoder accepts):
//!
//! * **read closure** — a candidate that removes a write some retained
//!   transaction still reads would fabricate a thin-air read; such
//!   candidates are skipped without consulting the predicate;
//! * **renumbering** — per-session sequence numbers compact and hints are
//!   renumbered `0..n` in the surviving order, preserving relative
//!   recording order.

use tm_audit::{AuditHistory, AuditTxn};

/// One flattened transaction with its original session.
#[derive(Clone)]
struct Flat {
    session: usize,
    txn: AuditTxn,
}

/// Rebuild a history from a subset of flattened transactions (order
/// preserved), renumbering hints.
fn rebuild(n_vars: usize, initial: i64, n_sessions: usize, kept: &[Flat]) -> AuditHistory {
    let mut history = AuditHistory::new(n_vars, initial, n_sessions);
    for (hint, flat) in kept.iter().enumerate() {
        history.sessions[flat.session].push(AuditTxn { hint: hint as u64, ..flat.txn.clone() });
    }
    history
}

/// `true` if every read in `kept` still has its writer (or reads the
/// initial value) — removing transactions must not fabricate thin-air
/// reads.
fn reads_closed(initial: i64, kept: &[Flat]) -> bool {
    let written: std::collections::HashSet<(usize, i64)> =
        kept.iter().flat_map(|f| f.txn.writes.iter().copied()).collect();
    kept.iter().all(|f| {
        f.txn.reads.iter().all(|&(var, value)| value == initial || written.contains(&(var, value)))
    })
}

/// Shrink `history` to a (locally) minimal sub-history on which
/// `interesting` still returns `true`.  The input itself must be
/// interesting; the result always is.
pub fn minimize(
    history: &AuditHistory,
    mut interesting: impl FnMut(&AuditHistory) -> bool,
) -> AuditHistory {
    let n_sessions = history.sessions.len();
    let mut flats: Vec<Flat> = history
        .recording_order()
        .into_iter()
        .map(|(session, txn)| Flat { session, txn: txn.clone() })
        .collect();
    assert!(
        interesting(&rebuild(history.n_vars, history.initial, n_sessions, &flats)),
        "minimize() requires the input history to satisfy the predicate"
    );

    let mut granularity = 2usize;
    while flats.len() >= 2 {
        let chunk = flats.len().div_ceil(granularity);
        let mut removed_any = false;
        let mut start = 0;
        while start < flats.len() && flats.len() >= 2 {
            let end = (start + chunk).min(flats.len());
            let candidate: Vec<Flat> =
                flats[..start].iter().chain(flats[end..].iter()).cloned().collect();
            let keeps = !candidate.is_empty()
                && reads_closed(history.initial, &candidate)
                && interesting(&rebuild(history.n_vars, history.initial, n_sessions, &candidate));
            if keeps {
                flats = candidate;
                removed_any = true;
                // Same start: the next chunk slid into this position.
            } else {
                start = end;
            }
        }
        if removed_any {
            granularity = granularity.saturating_sub(1).max(2);
        } else if chunk <= 1 {
            break;
        } else {
            granularity = (granularity * 2).min(flats.len());
        }
    }
    rebuild(history.n_vars, history.initial, n_sessions, &flats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_audit::{audit, Level};

    /// A planted lost update buried in serial noise reduces to just the two
    /// conflicting read-modify-writes.
    #[test]
    fn lost_update_reduces_to_its_pair() {
        let mut h = AuditHistory::new(4, 0, 3);
        // Serial noise: a chain on v1 across sessions.
        h.push_txn(0, [(1, 0)], [(1, 100)]);
        h.push_txn(1, [(1, 100)], [(1, 101)]);
        h.push_txn(2, [(1, 101)], [(1, 102)]);
        // The plant: both RMW v0 from the initial value.
        h.push_txn(0, [(0, 0)], [(0, 7)]);
        h.push_txn(1, [(0, 0)], [(0, 8)]);
        // More noise reading the plant's surviving write.
        h.push_txn(2, [(0, 8)], [(2, 103)]);
        let reduced = minimize(&h, |cand| audit(cand).fails(Level::SnapshotIsolation));
        assert_eq!(reduced.txn_count(), 2, "{}", reduced.shape());
        assert!(audit(&reduced).fails(Level::SnapshotIsolation));
        // The reproducer is wire-valid.
        let encoded = crate::wire::encode(&reduced);
        assert_eq!(crate::wire::decode(&encoded).expect("valid reproducer"), reduced);
    }

    #[test]
    #[should_panic(expected = "satisfy the predicate")]
    fn uninteresting_inputs_are_rejected() {
        let mut h = AuditHistory::new(1, 0, 1);
        h.push_txn(0, [], [(0, 1)]);
        let _ = minimize(&h, |_| false);
    }
}
