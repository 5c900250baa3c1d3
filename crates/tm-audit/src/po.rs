//! From a recorded history to the transaction partial order `(T, so, wr)` —
//! batch or **incrementally**, one committed transaction at a time.
//!
//! [`TxnPartialOrder::build`] resolves every external read to the unique
//! transaction that wrote the observed value (or to the synthetic **initial
//! transaction**, dense index 0, when the initial value was observed), checks
//! the recording contract on the way (unique write values, no thin-air reads),
//! and lays everything out over dense `u32` indices so the checkers can use
//! flat vectors and bitsets instead of hash maps keyed by rich ids.
//!
//! The streaming pipeline never has the whole history in hand, so the same
//! structure also grows *incrementally*: [`TxnPartialOrder::new`] starts from
//! just the initial transaction and [`TxnPartialOrder::extend`] appends one
//! committed transaction, resolving what it can immediately and parking reads
//! whose writer has not arrived yet (commit records from different sessions
//! reach the auditor slightly out of order).  Parked reads resolve the moment
//! the writer arrives; [`TxnPartialOrder::seal`] turns any still-unresolved
//! read into the thin-air-read defect, exactly as the batch path would.
//! Every base edge (session order and write-read alike) is appended to an
//! **edge log** so [`crate::saturation::resaturate`] can absorb only what is
//! new.
//!
//! Every transaction also gets a **chain position**: a session is a chain
//! (each member has a base edge to the next), a detached stand-in is a chain
//! of one.  Because consecutive members are joined by an edge, the members of
//! a chain that reach any given vertex are always a prefix of it — which is
//! what lets the causal saturation keep one `u32` per (vertex, chain) instead
//! of a reachability closure.

use crate::digraph::DiGraph;
use crate::history::{AuditHistory, AuditTxn, FirstAccess, HistoryError, TxnId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Dense index of the synthetic initial transaction.
pub const ROOT: u32 = 0;

/// Session number used by the windowed auditor for synthetic stand-ins whose
/// true origin fell off the retention horizon; rendered as `past?seq`.
pub const EVICTED_SESSION: usize = usize::MAX;

/// The `(T, so, wr)` structure of a history over dense indices; input to every
/// checker.
#[derive(Debug)]
pub struct TxnPartialOrder {
    n_vars: usize,
    initial: i64,
    names: Vec<Option<TxnId>>,
    /// Per-transaction external reads as `(var, source transaction)`.
    pub reads: Vec<Vec<(u32, u32)>>,
    /// Per-transaction written variables.
    pub writes: Vec<Vec<u32>>,
    /// Per-variable writers, the initial transaction first.
    pub writers_by_var: Vec<Vec<u32>>,
    /// Per-variable write-read edges as `(source, reader)` pairs, in the
    /// order they were wired.
    pub wr_by_var: Vec<Vec<(u32, u32)>>,
    /// Commit-order hints (recording order); the initial transaction is 0.
    pub hints: Vec<u64>,
    /// `so ∪ wr` plus the initial transaction's edges — the base relation any
    /// commit order must extend.
    pub base: DiGraph,
    /// `(var, value)` → dense writer (the unique-writer table).
    writer_of: HashMap<(usize, i64), u32>,
    /// Session → (dense index of its most recently extended txn, its chain).
    session_tail: HashMap<usize, (u32, u32)>,
    /// Per-transaction `(chain, 1-based position in it)`; the initial
    /// transaction, which precedes every chain, is `(0, 0)`.
    chain_pos: Vec<(u32, u32)>,
    n_chains: u32,
    /// `(var, value)` → readers waiting for that writer to arrive.
    pending_reads: HashMap<(usize, i64), Vec<u32>>,
    /// Every base edge in insertion order, for incremental re-saturation.
    edge_log: Vec<(u32, u32)>,
}

impl TxnPartialOrder {
    /// An order holding only the initial transaction, ready to be extended.
    pub fn new(n_vars: usize, initial: i64) -> Self {
        Self::with_capacity(n_vars, initial, 0)
    }

    /// [`TxnPartialOrder::new`] with room for `txns` transactions before the
    /// per-transaction tables reallocate — a window knows its size up front.
    pub(crate) fn with_capacity(n_vars: usize, initial: i64, txns: usize) -> Self {
        let vertices = txns + 1;
        // A session edge per transaction plus one write-read edge per source
        // it reads: room for 2.5 edges and 1.5 writes per transaction.
        let edges = 5 * txns / 2;
        let mut po = TxnPartialOrder {
            n_vars,
            initial,
            names: Vec::with_capacity(vertices),
            reads: Vec::with_capacity(vertices),
            writes: Vec::with_capacity(vertices),
            writers_by_var: vec![vec![ROOT]; n_vars],
            wr_by_var: vec![Vec::new(); n_vars],
            hints: Vec::with_capacity(vertices),
            base: DiGraph::with_capacity(vertices, edges),
            writer_of: HashMap::with_capacity(3 * txns / 2),
            session_tail: HashMap::new(),
            chain_pos: Vec::with_capacity(vertices),
            n_chains: 0,
            pending_reads: HashMap::new(),
            edge_log: Vec::with_capacity(edges),
        };
        po.base.add_vertex();
        po.names.push(None);
        po.reads.push(Vec::new());
        po.writes.push(Vec::new());
        po.hints.push(0);
        po.chain_pos.push((0, 0));
        po
    }

    /// Number of vertices, including the initial transaction.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the history held no transactions.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }

    /// Number of variables this order was built over.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Human-readable name of a dense index (`init` for the initial
    /// transaction, `past?seq` for an evicted-origin stand-in).
    pub fn name(&self, dense: u32) -> String {
        match self.names[dense as usize] {
            Some(id) if id.session == EVICTED_SESSION => format!("past?{}", id.seq),
            Some(id) => id.to_string(),
            None => "init".to_string(),
        }
    }

    /// Render a dense-index path (as produced by cycle detection).
    pub fn render_path(&self, path: &[u32]) -> String {
        path.iter().map(|&v| self.name(v)).collect::<Vec<_>>().join(" → ")
    }

    /// Number of chains: sessions seen so far plus detached stand-ins.
    pub fn chains(&self) -> usize {
        self.n_chains as usize
    }

    /// The `(chain, position)` of a transaction; positions start at 1 and
    /// follow the chain's base edges.  [`ROOT`] belongs to no chain and
    /// reads `(0, 0)`.
    pub fn chain_pos(&self, dense: u32) -> (u32, u32) {
        self.chain_pos[dense as usize]
    }

    /// Base edges in insertion order; [`crate::saturation::resaturate`] and
    /// the windowed verify-first pass each keep a cursor into this log to
    /// absorb only what is new.
    pub fn edge_log(&self) -> &[(u32, u32)] {
        &self.edge_log
    }

    /// The `(var, value)` pairs some extended transaction read but no
    /// extended transaction wrote (yet).  The windowed auditor materializes
    /// frontier stand-ins for these before sealing.
    pub fn pending_values(&self) -> Vec<(usize, i64)> {
        let mut values: Vec<(usize, i64)> = self.pending_reads.keys().copied().collect();
        values.sort_unstable();
        values
    }

    fn add_base_edge(&mut self, a: u32, b: u32) {
        if self.base.add_edge(a, b) {
            self.edge_log.push((a, b));
        }
    }

    fn wire_read(&mut self, reader: u32, var: usize, src: u32) {
        self.reads[reader as usize].push((var as u32, src));
        self.wr_by_var[var].push((src, reader));
        self.add_base_edge(src, reader);
    }

    /// Append one committed transaction, chained to its session's previous
    /// transaction by a session-order edge.  Returns the dense index.
    pub fn extend(&mut self, id: TxnId, txn: &AuditTxn) -> Result<u32, HistoryError> {
        self.extend_inner(id, txn, true)
    }

    /// Append a transaction **without** a session-order edge (only the
    /// initial transaction precedes it).  The windowed auditor uses this for
    /// frontier stand-ins materialized after their session's chain has moved
    /// on: a fabricated session edge could invent a violation, a dropped one
    /// only weakens the constraint set.
    pub fn extend_detached(&mut self, id: TxnId, txn: &AuditTxn) -> Result<u32, HistoryError> {
        self.extend_inner(id, txn, false)
    }

    fn extend_inner(
        &mut self,
        id: TxnId,
        txn: &AuditTxn,
        chain: bool,
    ) -> Result<u32, HistoryError> {
        let dense = self.base.add_vertex();
        self.names.push(Some(id));
        self.reads.push(Vec::new());
        self.writes.push(Vec::new());
        self.hints.push(txn.hint + 1);

        let tail = if chain { self.session_tail.get_mut(&id.session) } else { None };
        let (prev, chain_id) = match tail {
            Some(tail) => (std::mem::replace(&mut tail.0, dense), tail.1),
            None => {
                let fresh = self.n_chains;
                self.n_chains += 1;
                if chain {
                    self.session_tail.insert(id.session, (dense, fresh));
                }
                (ROOT, fresh)
            }
        };
        self.chain_pos.push((chain_id, self.chain_pos[prev as usize].1 + 1));
        self.add_base_edge(prev, dense);

        // Writes first, mirroring the batch path's writer-table-before-reads
        // order so a transaction observing its own write resolves to itself
        // (and is dropped as internal).
        for &(var, value) in &txn.writes {
            if value == self.initial {
                return Err(HistoryError::InitialValueWritten { writer: id, var, value });
            }
            match self.writer_of.entry((var, value)) {
                Entry::Occupied(other) => {
                    return Err(HistoryError::AmbiguousWrite {
                        var,
                        value,
                        first: self.names[*other.get() as usize].expect("initial txn never writes"),
                        second: id,
                    });
                }
                Entry::Vacant(slot) => {
                    slot.insert(dense);
                }
            }
            self.writes[dense as usize].push(var as u32);
            self.writers_by_var[var].push(dense);
            // The writer some earlier reader was parked on has arrived: the
            // only way a read is wired into an already extended reader, and
            // it always logs a new edge into that reader (the writer is
            // newer, so no edge from it can exist yet).
            if self.pending_reads.is_empty() {
                continue;
            }
            if let Some(parked) = self.pending_reads.remove(&(var, value)) {
                for reader in parked {
                    self.wire_read(reader, var, dense);
                }
            }
        }

        let mut firsts = FirstAccess::default();
        for (i, &(var, value)) in txn.reads.iter().enumerate() {
            match firsts.earlier(&txn.reads, i) {
                None => {}
                Some(first) if first == value => continue, // repeated read
                Some(first) => {
                    return Err(HistoryError::NonRepeatableRead {
                        reader: id,
                        var,
                        first,
                        second: value,
                    })
                }
            }
            if value == self.initial {
                self.wire_read(dense, var, ROOT);
                continue;
            }
            match self.writer_of.get(&(var, value)) {
                // A transaction observing its own write is an internal read;
                // recorders exclude these, adapters may not.
                Some(&src) if src == dense => continue,
                Some(&src) => self.wire_read(dense, var, src),
                None => self.pending_reads.entry((var, value)).or_default().push(dense),
            }
        }
        Ok(dense)
    }

    /// Declare the order complete: any read still waiting for its writer is a
    /// thin-air read (nobody wrote the observed value).
    pub fn seal(&self) -> Result<(), HistoryError> {
        let defect = self
            .pending_reads
            .iter()
            .flat_map(|(&(var, value), readers)| {
                readers.iter().map(move |&reader| (var, value, reader))
            })
            .min();
        match defect {
            None => Ok(()),
            Some((var, value, reader)) => Err(HistoryError::ThinAirRead {
                reader: self.names[reader as usize].expect("initial txn never reads"),
                var,
                value,
            }),
        }
    }

    /// Build the partial order of a complete history, resolving write-read
    /// edges via unique write values.
    pub fn build(history: &AuditHistory) -> Result<Self, HistoryError> {
        let mut po =
            TxnPartialOrder::with_capacity(history.n_vars, history.initial, history.txn_count());
        for (s, session) in history.sessions.iter().enumerate() {
            for (seq, txn) in session.iter().enumerate() {
                po.extend(TxnId { session: s, seq }, txn)?;
            }
        }
        po.seal()?;
        Ok(po)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_session_history() -> AuditHistory {
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 10)]); // s0:0 reads v0 initial, writes 10
        h.push_txn(0, [(1, 0)], [(1, 20)]); // s0:1
        h.push_txn(1, [(0, 10)], [(0, 30)]); // s1:0 reads s0:0's write
        h
    }

    #[test]
    fn builds_so_and_wr_edges() {
        let po = TxnPartialOrder::build(&two_session_history()).unwrap();
        assert_eq!(po.len(), 4);
        assert!(!po.is_empty());
        assert_eq!(po.n_vars(), 2);
        // Dense layout: 0 = init, 1 = s0:0, 2 = s0:1, 3 = s1:0.
        assert_eq!(po.name(0), "init");
        assert_eq!(po.name(1), "s0:0");
        assert_eq!(po.name(3), "s1:0");
        // Session chains.
        assert!(po.base.has_edge(0, 1));
        assert!(po.base.has_edge(1, 2));
        assert!(po.base.has_edge(0, 3));
        // wr: init → s0:0 (v0), init → s0:1 (v1), s0:0 → s1:0 (v0).
        assert!(po.base.has_edge(1, 3));
        assert_eq!(po.reads[3], vec![(0, 1)]);
        assert_eq!(po.writers_by_var[0], vec![0, 1, 3]);
        assert_eq!(po.wr_by_var[0], vec![(0, 1), (1, 3)]);
        assert_eq!(po.wr_by_var[1], vec![(0, 2)]);
        // Hints shift past the initial transaction.
        assert_eq!(po.hints, vec![0, 1, 2, 3]);
        assert!(po.render_path(&[0, 1, 3]).contains("init → s0:0 → s1:0"));
        // Every base edge made it into the log, deduplicated.
        assert_eq!(po.edge_log().len(), po.base.edge_count());
    }

    #[test]
    fn duplicate_write_values_are_rejected() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [], [(0, 7)]);
        h.push_txn(1, [], [(0, 7)]);
        match TxnPartialOrder::build(&h) {
            Err(HistoryError::AmbiguousWrite { var: 0, value: 7, first, second }) => {
                assert_eq!(first, TxnId { session: 0, seq: 0 });
                assert_eq!(second, TxnId { session: 1, seq: 0 });
            }
            other => panic!("expected ambiguous write, got {other:?}"),
        }
    }

    #[test]
    fn writing_the_initial_value_is_rejected() {
        let mut h = AuditHistory::new(1, 0, 1);
        h.push_txn(0, [], [(0, 0)]);
        assert!(matches!(
            TxnPartialOrder::build(&h),
            Err(HistoryError::InitialValueWritten { var: 0, value: 0, .. })
        ));
    }

    #[test]
    fn thin_air_reads_are_rejected() {
        let mut h = AuditHistory::new(1, 0, 1);
        h.push_txn(0, [(0, 42)], []);
        assert!(matches!(
            TxnPartialOrder::build(&h),
            Err(HistoryError::ThinAirRead { var: 0, value: 42, .. })
        ));
    }

    #[test]
    fn differing_repeated_reads_are_rejected_as_non_repeatable() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [], [(0, 5)]);
        h.push_txn(1, [(0, 0), (0, 5)], []); // saw initial, then the new value
        match TxnPartialOrder::build(&h) {
            Err(HistoryError::NonRepeatableRead { var: 0, first: 0, second: 5, reader }) => {
                assert_eq!(reader, TxnId { session: 1, seq: 0 });
            }
            other => panic!("expected non-repeatable read, got {other:?}"),
        }
        // Identical repeated reads are fine (and collapse to one edge).
        let mut h2 = AuditHistory::new(1, 0, 2);
        h2.push_txn(0, [], [(0, 5)]);
        h2.push_txn(1, [(0, 5), (0, 5)], []);
        let po = TxnPartialOrder::build(&h2).unwrap();
        assert_eq!(po.reads[2], vec![(0, 1)]);
    }

    #[test]
    fn own_write_reads_are_ignored_as_internal() {
        let mut h = AuditHistory::new(1, 0, 1);
        h.push_txn(0, [], [(0, 5)]);
        // An adapter might report a read of one's own write; it must not
        // create a self wr edge.
        h.sessions[0][0].reads.push((0, 5));
        let po = TxnPartialOrder::build(&h).unwrap();
        assert!(po.reads[1].is_empty());
        assert!(!po.base.has_edge(1, 1));
    }

    #[test]
    fn reads_of_writers_that_arrive_later_resolve_on_arrival() {
        // Session 0's first txn reads a value session 1 writes — in dense
        // (session-major) order the writer is extended *after* the reader.
        let mut po = TxnPartialOrder::new(1, 0);
        let reader = po.extend(TxnId { session: 0, seq: 0 }, &read_txn(0, 99, 0)).unwrap();
        assert_eq!(po.pending_values(), vec![(0, 99)]);
        assert!(po.seal().is_err(), "unresolved read is thin air if sealed now");
        let writer = po.extend(TxnId { session: 1, seq: 0 }, &write_txn(0, 99, 1)).unwrap();
        assert!(po.pending_values().is_empty());
        po.seal().unwrap();
        assert_eq!(po.reads[reader as usize], vec![(0, writer)]);
        assert!(po.base.has_edge(writer, reader));
        assert_eq!(po.wr_by_var[0], vec![(writer, reader)]);
    }

    #[test]
    fn detached_extension_skips_the_session_chain() {
        let mut po = TxnPartialOrder::new(1, 0);
        let a = po.extend(TxnId { session: 0, seq: 5 }, &write_txn(0, 1, 0)).unwrap();
        let b = po.extend_detached(TxnId { session: 0, seq: 2 }, &write_txn(0, 2, 0)).unwrap();
        // The detached vertex hangs off the initial transaction only.
        assert!(po.base.has_edge(ROOT, b));
        assert!(!po.base.has_edge(a, b));
        assert!(!po.base.has_edge(b, a));
        // The session tail was not disturbed: the next chained txn follows `a`.
        let c = po.extend(TxnId { session: 0, seq: 6 }, &read_txn(0, 2, 1)).unwrap();
        assert!(po.base.has_edge(a, c));
        assert!(po.base.has_edge(b, c), "wr edge from the detached writer");
        // Session 0 is one chain, the detached vertex a chain of its own.
        assert_eq!(po.chains(), 2);
        assert_eq!([a, b, c].map(|v| po.chain_pos(v)), [(0, 1), (1, 1), (0, 2)]);
        assert_eq!(po.chain_pos(ROOT), (0, 0));
    }

    #[test]
    fn evicted_stand_ins_render_distinctly() {
        let mut po = TxnPartialOrder::new(1, 0);
        let v = po.extend_detached(TxnId { session: EVICTED_SESSION, seq: 3 }, &write_txn(0, 9, 0));
        assert_eq!(po.name(v.unwrap()), "past?3");
    }

    fn read_txn(var: usize, value: i64, hint: u64) -> AuditTxn {
        AuditTxn { reads: [(var, value)].into(), hint, ..AuditTxn::default() }
    }

    fn write_txn(var: usize, value: i64, hint: u64) -> AuditTxn {
        AuditTxn { writes: [(var, value)].into(), hint, ..AuditTxn::default() }
    }
}
