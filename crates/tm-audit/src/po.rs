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
//!
//! # Layout
//!
//! The order is a few flat arrays that grow at their ends, not a heap object
//! per transaction, so building one costs a handful of allocations and
//! dropping it a handful of frees:
//!
//! * **Reads and writes** live in two arenas — `(var, source)` read slots
//!   and written variables — with one offset per transaction into each
//!   ([`TxnPartialOrder::reads`], [`TxnPartialOrder::writes`]).  A read
//!   parked on a writer that has not arrived keeps a reserved slot at the
//!   end of its reader's range; the writer fills the first reserved slot
//!   when it arrives, so a range never moves and a transaction's reads stay
//!   in the order they were wired.
//! * **Parked readers** wait in one arena of circular lists, a list per
//!   awaited `(var, value)`.
//! * **The base graph** ([`BaseGraph`]) is an append-only edge arena — the
//!   edge log itself — threaded with per-vertex out-lists that keep
//!   insertion order.  It keeps no edge set.  Every edge one `extend` adds
//!   touches the vertex that call appends (`prev → dense`, `src → dense`,
//!   or `dense → reader` when a parked read resolves), so a duplicate can
//!   only come from the same call: a per-vertex stamp naming the last call
//!   that drew an edge from the vertex catches a repeated `src → dense`,
//!   and a reader whose previous slot already names `dense` a repeated
//!   `dense → reader`.  [`TxnPartialOrder::has_edge`] is "`a` is `b`'s chain
//!   predecessor or one of its read sources".  It is the audit core's only
//!   graph type: the saturated order is one too
//!   ([`crate::saturation::Saturated::graph`]).
//!
//! Extension keeps two maps keyed by values from the input — each written
//! or awaited `(var, value)` with its writer or its parked readers, and the
//! session tails — on std's keyed hasher.  A complete order
//! ([`TxnPartialOrder::build`]) drops them with the rest of what only
//! extension reads.

use crate::history::{AuditHistory, AuditTxn, FirstAccess, HistoryError, TxnId};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::ops::Range;

/// Dense index of the synthetic initial transaction.
pub const ROOT: u32 = 0;

/// Session number used by the windowed auditor for synthetic stand-ins whose
/// true origin fell off the retention horizon; rendered as `past?seq`.
pub const EVICTED_SESSION: usize = usize::MAX;

/// The end of an arena list.
const NIL: u32 = u32::MAX;

/// A read slot reserved for a read whose writer has not been extended yet.
const PARKED: (u32, u32) = (u32::MAX, u32::MAX);

/// An arena length as a `u32` offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a partial order holds fewer than 2^32 reads, writes and edges")
}

/// The range of item `t` in an arena where each item's range starts at
/// `starts[t]` and ends where the next one's starts.
fn range(starts: &[u32], t: u32) -> Range<usize> {
    let t = t as usize;
    starts[t] as usize..starts[t + 1] as usize
}

/// End the last item's range at the arena's length `len`.
fn end_last(starts: &mut [u32], len: usize) {
    if let Some(end) = starts.last_mut() {
        *end = offset(len);
    }
}

/// The audit core's one graph type: an append-only edge arena in insertion
/// order, threaded with one out-list per vertex.  It is the base relation
/// `so ∪ wr` of a [`TxnPartialOrder`] and, grown from the base edges and
/// then the derived ones, the saturated order of
/// [`crate::saturation::Saturated`].
///
/// It keeps no edge set: it takes only edges its owner knows to be new.  The
/// partial order deduplicates its base edges as it draws them (see the
/// module docs); saturation derives an edge only between two vertices that
/// do not reach each other yet, and drops a round's repeats before adding
/// them.
#[derive(Debug, Default)]
pub struct BaseGraph {
    /// Every edge, in insertion order (the partial order's edge log).
    edges: Vec<(u32, u32)>,
    /// Per edge: the next edge out of the same vertex, or [`NIL`].
    next: Vec<u32>,
    /// Per vertex: its first and last out-edge, or [`NIL`].
    ends: Vec<(u32, u32)>,
}

impl BaseGraph {
    fn with_capacity(vertices: usize, edges: usize) -> Self {
        BaseGraph {
            edges: Vec::with_capacity(edges),
            next: Vec::with_capacity(edges),
            ends: Vec::with_capacity(vertices),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of edges (all distinct).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Append a fresh isolated vertex and return its index.
    pub(crate) fn add_vertex(&mut self) -> u32 {
        self.ends.push((NIL, NIL));
        offset(self.ends.len() - 1)
    }

    /// Append `a → b`, which the caller knows to be new.  A self-loop is an
    /// edge too (it makes the graph cyclic, which is the point).
    pub(crate) fn add_edge(&mut self, a: u32, b: u32) {
        let edge = offset(self.edges.len());
        self.edges.push((a, b));
        self.next.push(NIL);
        let (first, last) = &mut self.ends[a as usize];
        match *last {
            NIL => *first = edge,
            tail => self.next[tail as usize] = edge,
        }
        *last = edge;
    }

    /// Out-neighbours of `v`, in the order their edges were added.
    pub fn neighbors(&self, v: u32) -> Neighbors<'_> {
        Neighbors { graph: self, edge: self.ends[v as usize].0 }
    }

    /// A topological order of the vertices `from..` minimising the given
    /// per-vertex key, then the index, among the ready vertices
    /// (deterministic Kahn), or `None` if they hold a cycle.  `from = 0`
    /// orders the whole graph.
    ///
    /// The key steers *which* valid order is produced — the serializability
    /// fast path passes recording-order hints so the result is the closest
    /// topological order to the observed commit order.  A `from` above 0
    /// continues an order that already placed `0..from`: no edge may enter
    /// that prefix from `from..` (it panics if one does).
    pub fn topo_order_by(&self, tie_break: &[u64], from: u32) -> Option<Vec<u32>> {
        topo_order_by(self.len(), |v| self.neighbors(v), tie_break, from)
    }

    /// A cycle as a vertex path `v0 → v1 → … → v0` starting at its smallest
    /// vertex, if one exists.
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        find_cycle(self.len(), |v| self.neighbors(v))
    }
}

/// The out-neighbours of one [`BaseGraph`] vertex, oldest edge first.
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    graph: &'a BaseGraph,
    edge: u32,
}

impl Iterator for Neighbors<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let edge = self.edge as usize;
        let &(_, b) = self.graph.edges.get(edge)?;
        self.edge = self.graph.next[edge];
        Some(b)
    }
}

/// What the order knows of one written or awaited `(var, value)`.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The dense transaction that wrote it.
    Writer(u32),
    /// Nobody extended so far wrote it: the last entry of the circular list
    /// of readers waiting for it in `parked`, whose next is the first.
    Awaited(u32),
}

/// The `(T, so, wr)` structure of a history over dense indices; input to every
/// checker.
#[derive(Debug)]
pub struct TxnPartialOrder {
    n_vars: usize,
    initial: i64,
    /// Per-transaction ids; the initial transaction's entry is unused.
    names: Vec<TxnId>,
    /// External reads as `(var, source transaction)`, one range per
    /// transaction ([`Self::reads`]); a range ends in one [`PARKED`] slot per
    /// read still waiting for its writer.
    read_slots: Vec<(u32, u32)>,
    /// Per transaction: where its range in `read_slots` starts; one more
    /// entry ends the last one.
    read_starts: Vec<u32>,
    /// Written variables, one range per transaction ([`Self::writes`]).
    write_vars: Vec<u32>,
    /// Per transaction: where its range in `write_vars` starts; one more
    /// entry ends the last one.
    write_starts: Vec<u32>,
    /// Per-variable writers, the initial transaction first.
    pub writers_by_var: Vec<Vec<u32>>,
    /// Per-variable write-read edges as `(source, reader)` pairs, in the
    /// order they were wired.
    pub wr_by_var: Vec<Vec<(u32, u32)>>,
    /// Commit-order hints (recording order); the initial transaction is 0.
    pub hints: Vec<u64>,
    /// `so ∪ wr` plus the initial transaction's edges — the base relation any
    /// commit order must extend.
    pub base: BaseGraph,
    /// Per-transaction `(chain, 1-based position in it)`; the initial
    /// transaction, which precedes every chain, is `(0, 0)`.
    chain_pos: Vec<(u32, u32)>,
    n_chains: u32,
    /// What only extension reads; [`TxnPartialOrder::build`] drops it once
    /// the history is in.
    growth: Growth,
}

/// The tables an order needs only while it is being extended.
#[derive(Debug, Default)]
struct Growth {
    /// A complete order ([`TxnPartialOrder::build`]) takes no more
    /// transactions.
    complete: bool,
    /// `(var, value)` → its writer, or the readers awaiting one: the
    /// unique-writer table and the parked reads in one lookup.
    sources: HashMap<(usize, i64), Source>,
    /// Session → (dense index of its most recently extended txn, its chain).
    session_tail: HashMap<usize, (u32, u32)>,
    /// Per transaction: the last transaction whose extension drew an edge
    /// from it — the per-call stamp that deduplicates `src → dense`.
    stamps: Vec<u32>,
    /// Parked readers as `(reader, next entry)` entries of circular lists; a
    /// resolved list's first entry reads [`NIL`] as its reader.
    parked: Vec<(u32, u32)>,
    /// Every awaited value with its list's first entry, resolved ones
    /// included until the next compaction.
    awaited: Vec<((usize, i64), u32)>,
    /// Lists in `awaited` still waiting.
    n_awaited: usize,
}

impl TxnPartialOrder {
    /// An order holding only the initial transaction, ready to be extended.
    pub fn new(n_vars: usize, initial: i64) -> Self {
        Self::with_capacity(n_vars, initial, 0)
    }

    /// [`TxnPartialOrder::new`] with room for `txns` transactions before the
    /// per-transaction tables reallocate — a window knows its size up front.
    /// It plans for 1.5 reads and 1.5 writes per transaction.
    pub(crate) fn with_capacity(n_vars: usize, initial: i64, txns: usize) -> Self {
        Self::sized(n_vars, initial, txns, 3 * txns / 2, 3 * txns / 2)
    }

    /// An order with room for `txns` transactions holding `reads` reads and
    /// `writes` writes in all.
    fn sized(n_vars: usize, initial: i64, txns: usize, reads: usize, writes: usize) -> Self {
        let vertices = txns + 1;
        // A session edge per transaction plus one write-read edge per source
        // it reads.
        let edges = txns + reads;
        let mut po = TxnPartialOrder {
            n_vars,
            initial,
            names: Vec::with_capacity(vertices),
            read_slots: Vec::with_capacity(reads),
            read_starts: Vec::with_capacity(vertices + 1),
            write_vars: Vec::with_capacity(writes),
            write_starts: Vec::with_capacity(vertices + 1),
            writers_by_var: vec![vec![ROOT]; n_vars],
            wr_by_var: vec![Vec::new(); n_vars],
            hints: Vec::with_capacity(vertices),
            base: BaseGraph::with_capacity(vertices, edges),
            chain_pos: Vec::with_capacity(vertices),
            n_chains: 0,
            growth: Growth {
                sources: HashMap::with_capacity(writes),
                stamps: Vec::with_capacity(vertices),
                ..Growth::default()
            },
        };
        po.read_starts.push(0);
        po.write_starts.push(0);
        po.push_vertex(TxnId { session: 0, seq: 0 }, 0, (0, 0));
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

    /// The external reads of a transaction as `(var, source transaction)`:
    /// those resolved when it was extended, in its read order, then those
    /// resolved since, in the order their writers arrived.  Reads still
    /// parked on a writer that has not arrived are not listed.
    pub fn reads(&self, dense: u32) -> &[(u32, u32)] {
        let slots = &self.read_slots[range(&self.read_starts, dense)];
        match slots.last() {
            Some(&PARKED) => &slots[..slots.partition_point(|&slot| slot != PARKED)],
            _ => slots,
        }
    }

    /// The variables a transaction wrote.
    pub fn writes(&self, dense: u32) -> &[u32] {
        &self.write_vars[range(&self.write_starts, dense)]
    }

    /// Whether `a → b` is a base edge: `a` is `b`'s chain predecessor (the
    /// initial transaction precedes each chain's first member) or one of
    /// its read sources.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        if b == ROOT {
            return false; // no base edge enters the initial transaction
        }
        let (chain, pos) = self.chain_pos[b as usize];
        let chained = match a {
            ROOT => pos == 1,
            _ => self.chain_pos[a as usize] == (chain, pos - 1),
        };
        chained || self.reads(b).iter().any(|&(_, src)| src == a)
    }

    /// Human-readable name of a dense index (`init` for the initial
    /// transaction, `past?seq` for an evicted-origin stand-in).
    pub fn name(&self, dense: u32) -> String {
        match self.names[dense as usize] {
            _ if dense == ROOT => "init".to_string(),
            id if id.session == EVICTED_SESSION => format!("past?{}", id.seq),
            id => id.to_string(),
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
        &self.base.edges
    }

    /// The awaited values with the first entry of their reader lists.
    fn awaited(&self) -> impl Iterator<Item = ((usize, i64), u32)> + '_ {
        let growth = &self.growth;
        growth.awaited.iter().copied().filter(|&(_, first)| growth.parked[first as usize].0 != NIL)
    }

    /// The `(var, value)` pairs some extended transaction read but no
    /// extended transaction wrote (yet).  The windowed auditor materializes
    /// frontier stand-ins for these before sealing.
    pub fn pending_values(&self) -> Vec<(usize, i64)> {
        let mut values: Vec<(usize, i64)> = self.awaited().map(|(value, _)| value).collect();
        values.sort_unstable();
        values
    }

    /// Append a vertex's per-transaction entries, its ranges empty: the
    /// entry that ended the last range starts this one.
    fn push_vertex(&mut self, id: TxnId, hint: u64, chain_pos: (u32, u32)) -> u32 {
        let dense = self.base.add_vertex();
        self.names.push(id);
        self.hints.push(hint);
        self.chain_pos.push(chain_pos);
        self.read_starts.push(offset(self.read_slots.len()));
        self.write_starts.push(offset(self.write_vars.len()));
        self.growth.stamps.push(ROOT);
        dense
    }

    fn new_chain(&mut self) -> u32 {
        self.n_chains += 1;
        self.n_chains - 1
    }

    /// Draw `src → dense` for the transaction `dense` being extended, unless
    /// this call already drew it.
    fn add_edge_into(&mut self, src: u32, dense: u32) {
        let stamp = &mut self.growth.stamps[src as usize];
        if *stamp != dense {
            *stamp = dense;
            self.base.add_edge(src, dense);
        }
    }

    /// The writer `dense` being extended has arrived for a read `reader`
    /// parked on its write of `var`: fill the reader's first reserved slot.
    /// Every slot this call fills names `dense`, so the edge `dense →
    /// reader` exists exactly when the slot before it names `dense` too.
    fn resolve_parked(&mut self, reader: u32, var: usize, dense: u32) {
        let slots = range(&self.read_starts, reader);
        let at = slots.start + self.read_slots[slots.clone()].partition_point(|&s| s != PARKED);
        let drawn = at > slots.start && self.read_slots[at - 1].1 == dense;
        self.read_slots[at] = (var as u32, dense);
        self.wr_by_var[var].push((dense, reader));
        if !drawn {
            self.base.add_edge(dense, reader);
        }
    }

    /// Append one committed transaction, chained to its session's previous
    /// transaction by a session-order edge.  Returns the dense index.
    pub fn extend(&mut self, id: TxnId, txn: &AuditTxn) -> Result<u32, HistoryError> {
        let dense = offset(self.len());
        let (prev, chain) = match self.growth.session_tail.entry(id.session) {
            Entry::Occupied(mut tail) => {
                let (prev, chain) = *tail.get();
                tail.get_mut().0 = dense;
                (prev, chain)
            }
            Entry::Vacant(slot) => {
                let chain = self.n_chains;
                slot.insert((dense, chain));
                self.n_chains += 1;
                (ROOT, chain)
            }
        };
        self.append(id, txn, prev, chain)
    }

    /// Append a transaction **without** a session-order edge (only the
    /// initial transaction precedes it).  The windowed auditor uses this for
    /// frontier stand-ins materialized after their session's chain has moved
    /// on: a fabricated session edge could invent a violation, a dropped one
    /// only weakens the constraint set.
    pub fn extend_detached(&mut self, id: TxnId, txn: &AuditTxn) -> Result<u32, HistoryError> {
        let chain = self.new_chain();
        self.append(id, txn, ROOT, chain)
    }

    /// Append `txn` as the member of `chain` after `prev`.
    fn append(
        &mut self,
        id: TxnId,
        txn: &AuditTxn,
        prev: u32,
        chain: u32,
    ) -> Result<u32, HistoryError> {
        assert!(!self.growth.complete, "a built partial order is complete and takes no more");
        let dense =
            self.push_vertex(id, txn.hint + 1, (chain, self.chain_pos[prev as usize].1 + 1));
        self.add_edge_into(prev, dense);

        // Writes first, mirroring the batch path's writer-table-before-reads
        // order so a transaction observing its own write resolves to itself
        // (and is dropped as internal).
        for &(var, value) in &txn.writes {
            if value == self.initial {
                return Err(HistoryError::InitialValueWritten { writer: id, var, value });
            }
            let awaited = match self.growth.sources.entry((var, value)) {
                Entry::Occupied(mut source) => match *source.get() {
                    Source::Writer(other) => {
                        return Err(HistoryError::AmbiguousWrite {
                            var,
                            value,
                            first: self.names[other as usize],
                            second: id,
                        });
                    }
                    Source::Awaited(last) => {
                        source.insert(Source::Writer(dense));
                        last
                    }
                },
                Entry::Vacant(slot) => {
                    slot.insert(Source::Writer(dense));
                    NIL
                }
            };
            self.write_vars.push(var as u32);
            end_last(&mut self.write_starts, self.write_vars.len());
            self.writers_by_var[var].push(dense);
            // The writer some earlier readers were parked on has arrived:
            // the only way a read is wired into an already extended reader,
            // and it always logs a new edge into that reader (the writer is
            // newer, so no edge from it can exist yet).
            if awaited != NIL {
                let first = self.growth.parked[awaited as usize].1;
                let mut entry = first;
                loop {
                    let (reader, next) = self.growth.parked[entry as usize];
                    self.resolve_parked(reader, var, dense);
                    if entry == awaited {
                        break;
                    }
                    entry = next;
                }
                self.growth.parked[first as usize].0 = NIL;
                self.growth.n_awaited -= 1;
            }
        }

        // A slot per read: resolved reads fill them from the front, a parked
        // read keeps one reserved, and what neither used is given back.
        let start = self.read_slots.len();
        self.read_slots.resize(start + txn.reads.len(), PARKED);
        end_last(&mut self.read_starts, self.read_slots.len());
        let (mut filled, mut parked) = (start, 0);
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
            let src = if value == self.initial {
                ROOT
            } else {
                match self.park_unless_written(var, value, dense) {
                    // A transaction observing its own write is an internal
                    // read; recorders exclude these, adapters may not.
                    Some(src) if src == dense => continue,
                    Some(src) => src,
                    None => {
                        parked += 1;
                        continue;
                    }
                }
            };
            self.read_slots[filled] = (var as u32, src);
            filled += 1;
            self.wr_by_var[var].push((src, dense));
            self.add_edge_into(src, dense);
        }
        self.read_slots.truncate(filled + parked);
        end_last(&mut self.read_starts, self.read_slots.len());
        Ok(dense)
    }

    /// The writer of `(var, value)`, or `None` after queueing `reader` on it.
    fn park_unless_written(&mut self, var: usize, value: i64, reader: u32) -> Option<u32> {
        let growth = &mut self.growth;
        let entry = offset(growth.parked.len());
        let first = match growth.sources.entry((var, value)) {
            Entry::Occupied(mut source) => match source.get_mut() {
                Source::Writer(src) => return Some(*src),
                Source::Awaited(last) => {
                    let first = std::mem::replace(&mut growth.parked[*last as usize].1, entry);
                    *last = entry;
                    first
                }
            },
            Entry::Vacant(slot) => {
                slot.insert(Source::Awaited(entry));
                // Resolved lists are dropped from `awaited` once they
                // outnumber the waiting ones, so it stays proportional to
                // what waits.
                if growth.awaited.len() >= 2 * growth.n_awaited + 64 {
                    let parked = &growth.parked;
                    growth.awaited.retain(|&(_, first)| parked[first as usize].0 != NIL);
                }
                growth.awaited.push(((var, value), entry));
                growth.n_awaited += 1;
                entry
            }
        };
        growth.parked.push((reader, first));
        None
    }

    /// The readers on one parked list, in the order they were parked.
    fn parked_readers(&self, first: u32) -> impl Iterator<Item = u32> + '_ {
        let parked = &self.growth.parked;
        let mut entry = Some(first);
        std::iter::from_fn(move || {
            let (reader, next) = parked[entry? as usize];
            entry = (next != first).then_some(next);
            Some(reader)
        })
    }

    /// Declare the order complete: any read still waiting for its writer is a
    /// thin-air read (nobody wrote the observed value).
    pub fn seal(&self) -> Result<(), HistoryError> {
        let defect = self
            .awaited()
            .flat_map(|((var, value), first)| {
                self.parked_readers(first).map(move |reader| (var, value, reader))
            })
            .min();
        match defect {
            None => Ok(()),
            Some((var, value, reader)) => {
                Err(HistoryError::ThinAirRead { reader: self.names[reader as usize], var, value })
            }
        }
    }

    /// Build the partial order of a complete history, resolving write-read
    /// edges via unique write values.  The order is complete: the tables
    /// only extension reads are dropped, and it takes no more transactions.
    pub fn build(history: &AuditHistory) -> Result<Self, HistoryError> {
        let txns = history.sessions.iter().flatten();
        let (reads, writes) =
            txns.fold((0, 0), |(r, w), txn| (r + txn.reads.len(), w + txn.writes.len()));
        let mut po = TxnPartialOrder::sized(
            history.n_vars,
            history.initial,
            history.txn_count(),
            reads,
            writes,
        );
        // Session by session, each one chain: what `extend` would do, with
        // no session lookup per transaction.
        for (s, session) in history.sessions.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            let chain = po.new_chain();
            let mut prev = ROOT;
            for (seq, txn) in session.iter().enumerate() {
                prev = po.append(TxnId { session: s, seq }, txn, prev, chain)?;
            }
        }
        po.seal()?;
        po.growth = Growth { complete: true, ..Growth::default() };
        Ok(po)
    }
}

/// Edges grouped by tail in one flat array, each group in the order its
/// edges were given: the few extra edges a check walks after a
/// [`BaseGraph`]'s own out-lists, without copying the graph.
#[derive(Debug)]
pub(crate) struct OutLists {
    /// `heads[starts[v]..starts[v + 1]]` are the heads of `v`'s edges.
    starts: Vec<u32>,
    heads: Vec<u32>,
}

impl OutLists {
    /// The edges over vertices `0..n`.
    pub(crate) fn new(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut starts = vec![0u32; n + 1];
        for (a, _) in edges.clone() {
            starts[a as usize + 1] += 1;
        }
        for v in 0..n {
            starts[v + 1] += starts[v];
        }
        let mut heads = vec![0u32; starts[n] as usize];
        let mut next = starts.clone();
        for (a, b) in edges {
            heads[next[a as usize] as usize] = b;
            next[a as usize] += 1;
        }
        OutLists { starts, heads }
    }

    /// The heads of `v`'s edges.
    pub(crate) fn get(&self, v: u32) -> &[u32] {
        &self.heads[range(&self.starts, v)]
    }
}

/// [`BaseGraph::topo_order_by`] over the graph on `0..n` whose
/// out-neighbours `neighbors` lists — a graph's out-lists, or those followed
/// by a check's own [`OutLists`].  A repeated edge changes nothing: its head
/// becomes ready while its tail is being placed either way.
pub(crate) fn topo_order_by<I: Iterator<Item = u32>>(
    n: usize,
    neighbors: impl Fn(u32) -> I,
    tie_break: &[u64],
    from: u32,
) -> Option<Vec<u32>> {
    let from = from as usize;
    let key = |v: u32| Reverse((tie_break.get(v as usize).copied().unwrap_or(0), v));
    let mut indegree = vec![0u32; n - from];
    for v in from..n {
        for b in neighbors(v as u32) {
            indegree[b as usize - from] += 1;
        }
    }
    // Min-heap over (key, vertex) via Reverse ordering.
    let mut ready: BinaryHeap<Reverse<(u64, u32)>> =
        (from..n).filter(|&v| indegree[v - from] == 0).map(|v| key(v as u32)).collect();
    let mut order = Vec::with_capacity(n - from);
    while let Some(Reverse((_, v))) = ready.pop() {
        order.push(v);
        for b in neighbors(v) {
            let d = &mut indegree[b as usize - from];
            *d -= 1;
            if *d == 0 {
                ready.push(key(b));
            }
        }
    }
    (order.len() == n - from).then_some(order)
}

/// [`BaseGraph::find_cycle`] over the graph on `0..n` whose out-neighbours
/// `neighbors` lists.  A repeated edge changes nothing: the walk finishes
/// its head (or closes the cycle) the first time it meets the edge.
pub(crate) fn find_cycle<I: Iterator<Item = u32>>(
    n: usize,
    neighbors: impl Fn(u32) -> I,
) -> Option<Vec<u32>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    let mut parent = vec![u32::MAX; n];
    for start in 0..n as u32 {
        if color[start as usize] != WHITE {
            continue;
        }
        // Iterative DFS keeping (vertex, children still to visit) frames.
        let mut stack = vec![(start, neighbors(start))];
        color[start as usize] = GRAY;
        while let Some((v, children)) = stack.last_mut() {
            let v = *v;
            let Some(child) = children.next() else {
                color[v as usize] = BLACK;
                stack.pop();
                continue;
            };
            match color[child as usize] {
                WHITE => {
                    color[child as usize] = GRAY;
                    parent[child as usize] = v;
                    stack.push((child, neighbors(child)));
                }
                GRAY => {
                    // Back edge v → child closes a cycle.
                    let mut path = vec![child];
                    let mut cur = v;
                    while cur != child {
                        path.push(cur);
                        cur = parent[cur as usize];
                    }
                    path.reverse();
                    // Start the cycle at its smallest vertex: which back
                    // edge the DFS meets first depends on the order edges
                    // were inserted in (eagerly per probe, or caught up at
                    // once), and the same cycle must not read differently
                    // for it.
                    let (at, &first) =
                        path.iter().enumerate().min_by_key(|&(_, &v)| v).expect("non-empty");
                    path.rotate_left(at);
                    path.push(first);
                    return Some(path);
                }
                _ => {}
            }
        }
    }
    None
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
        assert!(po.has_edge(0, 1));
        assert!(po.has_edge(1, 2));
        assert!(po.has_edge(0, 3));
        // wr: init → s0:0 (v0), init → s0:1 (v1), s0:0 → s1:0 (v0).
        assert!(po.has_edge(1, 3));
        assert_eq!(po.reads(3), vec![(0, 1)]);
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
        assert_eq!(po.reads(2), vec![(0, 1)]);
    }

    #[test]
    fn own_write_reads_are_ignored_as_internal() {
        let mut h = AuditHistory::new(1, 0, 1);
        h.push_txn(0, [], [(0, 5)]);
        // An adapter might report a read of one's own write; it must not
        // create a self wr edge.
        h.sessions[0][0].reads.push((0, 5));
        let po = TxnPartialOrder::build(&h).unwrap();
        assert!(po.reads(1).is_empty());
        assert!(!po.has_edge(1, 1));
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
        assert_eq!(po.reads(reader), vec![(0, writer)]);
        assert!(po.has_edge(writer, reader));
        assert_eq!(po.wr_by_var[0], vec![(writer, reader)]);
    }

    #[test]
    fn detached_extension_skips_the_session_chain() {
        let mut po = TxnPartialOrder::new(1, 0);
        let a = po.extend(TxnId { session: 0, seq: 5 }, &write_txn(0, 1, 0)).unwrap();
        let b = po.extend_detached(TxnId { session: 0, seq: 2 }, &write_txn(0, 2, 0)).unwrap();
        // The detached vertex hangs off the initial transaction only.
        assert!(po.has_edge(ROOT, b));
        assert!(!po.has_edge(a, b));
        assert!(!po.has_edge(b, a));
        // The session tail was not disturbed: the next chained txn follows `a`.
        let c = po.extend(TxnId { session: 0, seq: 6 }, &read_txn(0, 2, 1)).unwrap();
        assert!(po.has_edge(a, c));
        assert!(po.has_edge(b, c), "wr edge from the detached writer");
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

    fn graph(n: usize, edges: &[(u32, u32)]) -> BaseGraph {
        let mut g = BaseGraph::default();
        for _ in 0..n {
            g.add_vertex();
        }
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// 0 → 1 → 3, 0 → 2 → 3
    const DIAMOND: [(u32, u32); 4] = [(0, 1), (0, 2), (1, 3), (2, 3)];

    #[test]
    fn out_lists_keep_insertion_order_as_vertices_grow() {
        let mut g = graph(4, &[(0, 2), (1, 3), (0, 1), (2, 3)]);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), [2, 1]);
        assert_eq!(g.edge_count(), 4);
        assert!(!g.is_empty());
        let v = g.add_vertex();
        assert_eq!((v, g.len()), (4, 5));
        g.add_edge(3, v);
        assert_eq!(*g.topo_order_by(&[0; 5], 0).unwrap().last().unwrap(), v);
    }

    #[test]
    fn topo_respects_edges_and_tie_break() {
        let order = graph(4, &DIAMOND).topo_order_by(&[0, 9, 1, 0], 0).unwrap();
        // 0 first, 3 last; hint prefers 2 over 1.
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    /// Grown only by vertices whose edges point forward, an ordered prefix
    /// continues: the order from its end is the tail of the whole order.
    #[test]
    fn topo_resumes_at_a_vertex() {
        let mut g = graph(4, &DIAMOND);
        let hints = [0, 9, 1, 0, 4, 2];
        let head = g.topo_order_by(&hints, 0).unwrap();
        for _ in 0..2 {
            g.add_vertex();
        }
        for (a, b) in [(3, 5), (1, 4), (5, 4)] {
            g.add_edge(a, b);
        }
        let tail = g.topo_order_by(&hints, 4).unwrap();
        assert_eq!(tail, vec![5, 4]);
        assert_eq!([head, tail].concat(), g.topo_order_by(&hints, 0).unwrap());
        g.add_edge(4, 5);
        assert!(g.topo_order_by(&hints, 4).is_none(), "a cycle in the tail");
    }

    #[test]
    fn cycles_are_detected_with_a_path() {
        let mut g = graph(4, &DIAMOND);
        assert!(g.find_cycle().is_none());
        g.add_edge(3, 0);
        assert!(g.topo_order_by(&[0; 4], 0).is_none());
        assert_eq!(g.find_cycle().unwrap(), vec![0, 1, 3, 0]);
        let mut g = graph(2, &[]);
        g.add_edge(1, 1);
        assert!(g.topo_order_by(&[0, 0], 0).is_none());
        assert_eq!(g.find_cycle().unwrap(), vec![1, 1], "a self-loop is a cycle");
    }

    /// The walks over a graph's out-lists followed by extra edges — some
    /// repeating an edge of the graph or each other — answer as over the
    /// graph holding each edge once, in first-occurrence order.
    #[test]
    fn repeated_edges_change_no_walk() {
        let g = graph(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let hints = [0, 3, 1, 2, 0];
        for extra in [vec![(0, 2), (2, 1), (2, 1), (4, 2)], vec![(1, 3), (4, 0), (3, 4)]] {
            let lists = OutLists::new(5, extra.iter().copied());
            let walked = |v: u32| g.neighbors(v).chain(lists.get(v).iter().copied());
            let mut once = Vec::new();
            for v in 0..5 {
                once.push(Vec::new());
                for b in walked(v) {
                    if !once[v as usize].contains(&b) {
                        once[v as usize].push(b);
                    }
                }
            }
            let listed = |v: u32| once[v as usize].iter().copied();
            assert_eq!(topo_order_by(5, walked, &hints, 0), topo_order_by(5, listed, &hints, 0));
            assert_eq!(find_cycle(5, walked), find_cycle(5, listed), "{extra:?}");
        }
    }

    fn read_txn(var: usize, value: i64, hint: u64) -> AuditTxn {
        AuditTxn { reads: [(var, value)].into(), hint, ..AuditTxn::default() }
    }

    fn write_txn(var: usize, value: i64, hint: u64) -> AuditTxn {
        AuditTxn { writes: [(var, value)].into(), hint, ..AuditTxn::default() }
    }
}
