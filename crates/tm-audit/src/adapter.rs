//! Adapter from the deterministic simulator's executions to the shared
//! history type, so `tm-consistency`'s execution-level checkers and this
//! crate's history-level checkers can cross-validate each other on the same
//! runs.
//!
//! The conversion keeps exactly what the audit needs: per-process sessions,
//! committed transactions only, first external read per item, last write per
//! item.  Reads that follow the transaction's own write of the same item are
//! internal (read-your-own-writes) and excluded, mirroring what the runtime
//! recorder captures.

use crate::history::{AccessSet, AuditHistory, AuditTxn};
use std::collections::{BTreeMap, BTreeSet};
use tm_model::history::{ReadResult, TmEvent};
use tm_model::{Execution, ProcId, TxId};

/// Convert a simulator execution into an [`AuditHistory`].
///
/// `initial` is the value every data item starts at (the simulator's
/// registers default to 0).  Sessions are processes, ordered by [`ProcId`];
/// variables are data items, ordered by name.
pub fn from_execution(execution: &Execution, initial: i64) -> AuditHistory {
    let history = execution.history();

    // Stable item → variable-index mapping.
    let mut items: BTreeSet<String> = BTreeSet::new();
    for (_, ev) in history.events() {
        match ev {
            TmEvent::InvRead { item, .. }
            | TmEvent::RespRead { item, .. }
            | TmEvent::InvWrite { item, .. }
            | TmEvent::RespWrite { item, .. } => {
                items.insert(item.to_string());
            }
            _ => {}
        }
    }
    let var_of: BTreeMap<String, usize> =
        items.into_iter().enumerate().map(|(i, item)| (item, i)).collect();

    // Per-transaction accumulation in event order.
    struct Pending {
        proc: ProcId,
        reads: AccessSet,
        first_read: BTreeMap<usize, i64>,
        writes: BTreeMap<usize, i64>,
    }
    impl Pending {
        fn new(proc: ProcId) -> Self {
            Pending {
                proc,
                reads: AccessSet::new(),
                first_read: BTreeMap::new(),
                writes: BTreeMap::new(),
            }
        }
    }
    let mut pending: BTreeMap<TxId, Pending> = BTreeMap::new();
    let mut committed: Vec<(ProcId, u64, AuditTxn)> = Vec::new();

    for (index, (proc, ev)) in history.events().iter().enumerate() {
        match ev {
            TmEvent::RespRead { tx, item, result: ReadResult::Value(value) } => {
                let var = var_of[&item.to_string()];
                let p = pending.entry(*tx).or_insert_with(|| Pending::new(*proc));
                // Own-write reads are internal.  Repeated reads are kept only
                // when they *differ* from the first — the partial-order
                // builder then rejects the history as non-repeatable, which
                // is exactly the verdict such an execution deserves.
                if !p.writes.contains_key(&var) {
                    match p.first_read.get(&var) {
                        Some(first) if first == value => {}
                        Some(_) => p.reads.push((var, *value)),
                        None => {
                            p.first_read.insert(var, *value);
                            p.reads.push((var, *value));
                        }
                    }
                }
            }
            TmEvent::InvWrite { tx, item, value } => {
                let var = var_of[&item.to_string()];
                let p = pending.entry(*tx).or_insert_with(|| Pending::new(*proc));
                p.writes.insert(var, *value);
            }
            TmEvent::RespCommit { tx, committed: true } => {
                if let Some(p) = pending.remove(tx) {
                    committed.push((
                        p.proc,
                        index as u64,
                        AuditTxn {
                            reads: p.reads,
                            writes: p.writes.into_iter().collect(),
                            hint: index as u64,
                            ..Default::default()
                        },
                    ));
                }
            }
            TmEvent::RespCommit { tx, committed: false } | TmEvent::RespAbort { tx } => {
                pending.remove(tx);
            }
            _ => {}
        }
    }

    // Sessions are processes, in ProcId order; commits stay in history order.
    let procs: BTreeSet<ProcId> = committed.iter().map(|(p, _, _)| *p).collect();
    let session_of: BTreeMap<ProcId, usize> =
        procs.into_iter().enumerate().map(|(i, p)| (p, i)).collect();
    let mut out = AuditHistory::new(var_of.len(), initial, session_of.len());
    committed.sort_by_key(|(_, index, _)| *index);
    for (proc, _, txn) in committed {
        out.sessions[session_of[&proc]].push(txn);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::prelude::*;
    use tm_model::step::Event;

    fn tm(proc: usize, event: TmEvent) -> Event {
        Event::Tm { proc: ProcId(proc), event }
    }

    fn committed_txn(proc: usize, tx: usize, ops: Vec<TmEvent>) -> Vec<Event> {
        let t = TxId(tx);
        let mut events =
            vec![tm(proc, TmEvent::InvBegin { tx: t }), tm(proc, TmEvent::RespBegin { tx: t })];
        events.extend(ops.into_iter().map(|e| tm(proc, e)));
        events.push(tm(proc, TmEvent::InvCommit { tx: t }));
        events.push(tm(proc, TmEvent::RespCommit { tx: t, committed: true }));
        events
    }

    #[test]
    fn converts_committed_transactions_and_skips_aborted_ones() {
        let t0 = TxId(0);
        let x = DataItem::new("x");
        let mut events = committed_txn(
            0,
            0,
            vec![
                TmEvent::InvRead { tx: t0, item: x.clone() },
                TmEvent::RespRead { tx: t0, item: x.clone(), result: ReadResult::Value(0) },
                TmEvent::InvWrite { tx: t0, item: x.clone(), value: 7 },
                TmEvent::RespWrite { tx: t0, item: x.clone(), ok: true },
            ],
        );
        // An aborted transaction on another process must vanish.
        let t1 = TxId(1);
        events.push(tm(1, TmEvent::InvBegin { tx: t1 }));
        events.push(tm(1, TmEvent::RespBegin { tx: t1 }));
        events.push(tm(1, TmEvent::InvWrite { tx: t1, item: x.clone(), value: 9 }));
        events.push(tm(1, TmEvent::RespWrite { tx: t1, item: x.clone(), ok: true }));
        events.push(tm(1, TmEvent::InvCommit { tx: t1 }));
        events.push(tm(1, TmEvent::RespCommit { tx: t1, committed: false }));

        let history = from_execution(&Execution::from_events(events), 0);
        assert_eq!(history.txn_count(), 1);
        assert_eq!(history.sessions[0][0].reads, vec![(0, 0)]);
        assert_eq!(history.sessions[0][0].writes, vec![(0, 7)]);
    }

    #[test]
    fn own_write_reads_are_internal_and_last_write_wins() {
        let t0 = TxId(0);
        let x = DataItem::new("x");
        let y = DataItem::new("y");
        let events = committed_txn(
            0,
            0,
            vec![
                TmEvent::InvWrite { tx: t0, item: x.clone(), value: 1 },
                TmEvent::RespWrite { tx: t0, item: x.clone(), ok: true },
                // Read-after-own-write: internal, not an audit read.
                TmEvent::InvRead { tx: t0, item: x.clone() },
                TmEvent::RespRead { tx: t0, item: x.clone(), result: ReadResult::Value(1) },
                // External read of y.
                TmEvent::InvRead { tx: t0, item: y.clone() },
                TmEvent::RespRead { tx: t0, item: y.clone(), result: ReadResult::Value(0) },
                // Overwrite x: last write wins.
                TmEvent::InvWrite { tx: t0, item: x.clone(), value: 2 },
                TmEvent::RespWrite { tx: t0, item: x.clone(), ok: true },
            ],
        );
        let history = from_execution(&Execution::from_events(events), 0);
        let txn = &history.sessions[0][0];
        assert_eq!(txn.reads, vec![(1, 0)], "only y is an external read");
        assert_eq!(txn.writes, vec![(0, 2)], "last write to x wins");
    }

    #[test]
    fn sessions_follow_process_ids() {
        let x = DataItem::new("x");
        let mut events = Vec::new();
        for (proc, tx, value) in [(2usize, 0usize, 5i64), (0, 1, 6)] {
            let t = TxId(tx);
            events.extend(committed_txn(
                proc,
                tx,
                vec![
                    TmEvent::InvWrite { tx: t, item: x.clone(), value },
                    TmEvent::RespWrite { tx: t, item: x.clone(), ok: true },
                ],
            ));
        }
        let history = from_execution(&Execution::from_events(events), 0);
        assert_eq!(history.sessions.len(), 2);
        // ProcId(0) is session 0 even though it committed second.
        assert_eq!(history.sessions[0][0].writes, vec![(0, 6)]);
        assert_eq!(history.sessions[1][0].writes, vec![(0, 5)]);
    }
}
