//! Base-object contention between transactions in a recorded execution.
//!
//! Two executions (here: the step subsequences `α|T1` and `α|T2` of two transactions)
//! *contend* on a base object `o` if both contain a primitive operation on `o` and at
//! least one of those primitives is non-trivial.  Contention is the low-level
//! phenomenon disjoint-access-parallelism restricts: it is what forces cache-line
//! transfers and synchronization between otherwise unrelated transactions.

use std::collections::BTreeMap;
use tm_model::{Execution, TxId};

/// A witnessed contention between two transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contention {
    /// One of the transactions.
    pub tx1: TxId,
    /// The other transaction.
    pub tx2: TxId,
    /// The base object (by stable name) they contend on.
    pub object: String,
}

impl std::fmt::Display for Contention {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} and {} contend on base object `{}`", self.tx1, self.tx2, self.object)
    }
}

/// Whether two transactions contend in an execution; returns the first witnessing
/// object name if they do.
pub fn contend_on(execution: &Execution, tx1: TxId, tx2: TxId) -> Option<String> {
    let f1 = execution.footprint_of_tx(tx1);
    let f2 = execution.footprint_of_tx(tx2);
    f1.contends_with(&f2)
}

/// All pairwise contentions in an execution (each unordered pair reported once, with
/// one witnessing object).
pub fn all_contentions(execution: &Execution) -> Vec<Contention> {
    let txs = execution.transactions();
    let footprints: BTreeMap<TxId, _> =
        txs.iter().map(|t| (*t, execution.footprint_of_tx(*t))).collect();
    let mut out = Vec::new();
    for (i, a) in txs.iter().enumerate() {
        for b in txs.iter().skip(i + 1) {
            if let Some(object) = footprints[a].contends_with(&footprints[b]) {
                out.push(Contention { tx1: *a, tx2: *b, object });
            }
        }
    }
    out
}

/// The number of distinct base objects each transaction accessed (a cheap measure of
/// metadata footprint).
pub fn objects_touched(execution: &Execution) -> BTreeMap<TxId, usize> {
    execution
        .transactions()
        .into_iter()
        .map(|t| (t, execution.footprint_of_tx(t).all().len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::primitive::{PrimResponse, Primitive};
    use tm_model::step::{Event, MemStep};
    use tm_model::{ObjId, ProcId, Word};

    fn step(proc: usize, tx: usize, obj: &str, write: bool) -> Event {
        Event::Mem(MemStep {
            proc: ProcId(proc),
            tx: TxId(tx),
            obj: ObjId(0),
            obj_name: obj.into(),
            prim: if write { Primitive::Write(Word::Int(1)) } else { Primitive::Read },
            resp: if write { PrimResponse::Ack } else { PrimResponse::Value(Word::Int(0)) },
        })
    }

    #[test]
    fn writer_and_reader_of_same_object_contend() {
        let e = Execution::from_events(vec![step(0, 0, "val:x", true), step(1, 1, "val:x", false)]);
        assert_eq!(contend_on(&e, TxId(0), TxId(1)), Some("val:x".into()));
        let all = all_contentions(&e);
        assert_eq!(all.len(), 1);
        assert!(all[0].to_string().contains("val:x"));
    }

    #[test]
    fn two_readers_do_not_contend() {
        let e =
            Execution::from_events(vec![step(0, 0, "val:x", false), step(1, 1, "val:x", false)]);
        assert_eq!(contend_on(&e, TxId(0), TxId(1)), None);
        assert!(all_contentions(&e).is_empty());
    }

    #[test]
    fn disjoint_objects_do_not_contend() {
        let e = Execution::from_events(vec![step(0, 0, "val:x", true), step(1, 1, "val:y", true)]);
        assert!(all_contentions(&e).is_empty());
    }

    #[test]
    fn two_writers_of_same_object_contend() {
        let e = Execution::from_events(vec![step(0, 0, "clock", true), step(1, 1, "clock", true)]);
        assert_eq!(all_contentions(&e).len(), 1);
    }

    #[test]
    fn objects_touched_counts_distinct_names() {
        let e = Execution::from_events(vec![
            step(0, 0, "a", true),
            step(0, 0, "a", false),
            step(0, 0, "b", false),
            step(1, 1, "c", true),
        ]);
        let counts = objects_touched(&e);
        assert_eq!(counts[&TxId(0)], 2);
        assert_eq!(counts[&TxId(1)], 1);
    }
}
