//! Polynomial-time checkers for the lower half of the hierarchy, by
//! saturation on the transaction partial order (after Biswas & Enea,
//! "On the Complexity of Checking Transactional Consistency", OOPSLA 2019) —
//! run whole or **incrementally**, paying only for what arrived.
//!
//! All three levels are phrased the same way: *some total commit order `co`
//! containing `so ∪ wr` must exist* such that a level-specific axiom holds.
//! Each axiom has the shape
//!
//! > if `t3` reads `x` from `t1`, and `t2` also writes `x` (`t2 ∉ {t1, t3}`),
//! > and `t2` is *visible* to `t3`, then `t2` must commit before `t1`
//!
//! with the levels differing only in what "visible" means:
//!
//! * **Read Committed** — nothing beyond the base relation: the history is
//!   valid (reads observe committed writes — guaranteed by construction here —
//!   with unique attribution) and `so ∪ wr` itself is acyclic.  (The
//!   event-level prefix rules of the paper need intra-transaction event order,
//!   which an atomic read-set/write-set history does not carry.)
//! * **Read Atomic** — `t2` visible means a direct `so ∪ wr` edge `t2 → t3`:
//!   one derivation pass, then an acyclicity check.  This is what rules out
//!   fractured reads (reading `x` from a transaction while missing its
//!   sibling write on `y`).
//! * **Causal** — `t2` visible means reachability through everything derived
//!   so far: derive write-write edges, close, and repeat to a fixpoint
//!   (Algorithm 1 of the paper), then check acyclicity.
//!
//! # Incremental re-saturation
//!
//! None of this runs for a history or window whose recording order verifies
//! as a serial order (see [`crate::linearization`]): saturation is the
//! search-on-failure half.  A window that stops verifying mid-stream calls
//! [`resaturate`] for the first time then, and the edge-log cursor
//! ([`TxnPartialOrder::edge_log`]) catches it up on everything extended so
//! far; later calls absorb only the base edges that appeared since.
//! [`check_causal`] is the same path, called once on a whole history.
//!
//! Visibility is answered from **chain clocks**, not a closure.  Every
//! transaction sits at a position of a chain (its session, or a chain of one
//! for a detached stand-in — [`TxnPartialOrder::chain_pos`]), consecutive
//! members of a chain are joined by a base edge, so the members of chain `c`
//! that reach a vertex `v` are a prefix of `c` and one number describes them:
//! `clocks[v][c]`, the last position of `c` that reaches `v`.  The table is
//! `V · k` words for `k` chains (a handful of sessions plus the window's
//! detached stand-ins), and "`a` reaches `b`" is `clocks[b][chain(a)] ≥
//! pos(a)`.
//!
//! The rule is applied per (read source, chain) instead of per writer pair:
//! for the readers of `t1`'s write of `x`, only the *last* writer of `x` in
//! each chain that any of them sees can need a new edge — earlier writers of
//! the chain already reach it.  The derived edge set is therefore smaller
//! than the textbook one but has the same transitive closure after every
//! round, so the rounds, the cycle check and every consumer of the
//! [`Saturated`] order (all of which only ask for linear extensions) see the
//! same constraints.
//!
//! Nothing is swept per call; three things are kept exact instead:
//!
//! * **Clocks.**  A row only grows as edges are added, so a new edge `a → b`
//!   — base or derived — is absorbed by pushing `a`'s row (with `a` itself)
//!   along `a`'s out-edges, and on from every row that grew, in recording
//!   order, stopping wherever a row stops growing.  That reaches the
//!   fixpoint a sweep along a topological order would.  A chain that
//!   appears mid-window (a detached stand-in) widens every row.  The graph
//!   was acyclic before, so the new edges close a cycle iff one of them
//!   enters [`ROOT`] or its head's row reaches the head itself afterwards.
//! * **The rule** revisits only the `(variable, source)` read groups that
//!   hold a new reader or a reader whose row grew, in the order a full scan
//!   visits them.  A group whose readers' rows are unchanged derives nothing
//!   new: every writer it sees already reached its source when the group
//!   was last visited (a writer that arrived since is seen only through a
//!   grown row).  So every round derives the edges a full scan would, in the
//!   same order — the same graph, rounds, cycles and witnesses.  The groups
//!   to visit are listed as the edges and grown rows come in (the reads of a
//!   grown reader name its groups), then sorted; each variable keeps its
//!   writers sorted by chain position and its write-read edges sorted by
//!   source as they arrive, so a group is found by binary search.
//! * **The topological order** is not needed to saturate; the hint-keyed
//!   Kahn order runs once, on the final graph, when a consumer asks for it
//!   ([`Saturated::topo`]).
//!
//! A round touches only what grew.  For `E↑` the edges leaving vertices
//! whose rows grew and `R↑` the reads of the `G↑` groups it revisits, it pays
//! a heap step and a `k`-word max per edge, a `k`-word max per read, and per
//! group a sort step, a binary search in the variable's read list and one per
//! chain in its writer list (length `W`): `O(k · (E↑ + R↑) + E↑ · log V +
//! G↑ · (log G↑ + log R + k · log W))`.  Absorbing a call's batch costs its
//! own size — its edges, and its writers and write-read edges appended to
//! their variables' lists — plus a length check per variable.  Two steps
//! still cost the window, each only on an occasion the batch brings: a new
//! chain (a detached stand-in) re-lays out the table (`V · k` words), and a
//! writer or write-read edge that sorts before its list's last re-sorts
//! that list.  Otherwise a search-mode probe costs what its batch changed,
//! not the window.
//!
//! A successful causal check returns the [`Saturated`] order — the input the
//! NP-hard SI/SER searches in [`crate::linearization`] start from.

use crate::digraph::DiGraph;
use crate::po::{TxnPartialOrder, ROOT};
use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A violation found by a saturation checker: a cycle the commit order would
/// have to contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleViolation {
    /// The offending cycle as dense indices, first == last.
    pub path: Vec<u32>,
}

impl CycleViolation {
    fn from_path(path: Option<Vec<u32>>) -> Self {
        CycleViolation { path: path.expect("called only when the graph is cyclic") }
    }

    /// Render with history transaction names.
    pub fn render(&self, po: &TxnPartialOrder) -> String {
        format!("commit order must contain the cycle {}", po.render_path(&self.path))
    }
}

/// A non-initial writer of some variable as `((chain, position), vertex)`.
type ChainWriter = ((u32, u32), u32);

/// One variable as the rule sees it, kept in step with the partial order.
#[derive(Debug, Default)]
struct VarState {
    /// Non-initial writers sorted by chain position: the first `len` of
    /// `po.writers_by_var[var][1..]`.
    writers: Vec<ChainWriter>,
    /// The write-read edges of `po.wr_by_var[var]` as `(source, reader)`,
    /// sorted.
    reads: Vec<(u32, u32)>,
}

/// The chain-clock table: `words[v * k + c]` is the last position of chain
/// `c` that strictly reaches `v`, 0 for none.
#[derive(Debug, Default)]
struct Clocks {
    words: Vec<u32>,
    /// Chains per row.
    k: usize,
}

impl Clocks {
    fn row(&self, v: u32) -> &[u32] {
        &self.words[v as usize * self.k..][..self.k]
    }

    fn reaches(&self, po: &TxnPartialOrder, a: u32, b: u32) -> bool {
        if a == ROOT {
            return b != ROOT; // the initial transaction precedes every chain
        }
        let (chain, pos) = po.chain_pos(a);
        self.row(b)[chain as usize] >= pos
    }

    /// Give every vertex of `po` a row as wide as its chain count, keeping
    /// what the rows already hold.
    fn lay_out(&mut self, po: &TxnPartialOrder) {
        let (n, k) = (po.len(), po.chains());
        if k != self.k && self.k > 0 {
            let mut wide = vec![0u32; n * k];
            for (row, old) in wide.chunks_exact_mut(k).zip(self.words.chunks_exact(self.k)) {
                row[..old.len()].copy_from_slice(old);
            }
            self.words = wide;
        } else {
            self.words.resize(n * k, 0);
        }
        self.k = k;
    }

    /// Raise `w`'s row to at least `row`; returns whether it grew.  [`ROOT`]
    /// never grows: an edge into it heads a cycle.
    fn raise(&mut self, row: &[u32], w: u32) -> bool {
        if w == ROOT {
            return false;
        }
        let mut grew = false;
        for (seen, &from) in self.words[w as usize * self.k..][..self.k].iter_mut().zip(row) {
            if from > *seen {
                *seen = from;
                grew = true;
            }
        }
        grew
    }
}

/// The saturated constraint system a causally-consistent history induces.
///
/// Holds the private bookkeeping (edge-log cursor, chain clocks, per-variable
/// writer and read lists) that lets [`resaturate`] continue where the
/// previous call stopped.
#[derive(Debug)]
pub struct Saturated {
    /// `so ∪ wr` plus the derived write-write edges (not transitively
    /// closed — linear extensions are unchanged by closure).
    pub graph: DiGraph,
    /// Derivation rounds run so far across all [`resaturate`] calls.
    pub rounds: usize,
    /// [`Self::topo`] of the current graph, once asked for.
    topo: OnceCell<Vec<u32>>,
    /// Cursor into the partial order's base-edge log.
    synced_base_edges: usize,
    /// A cycle was found; every later call reports it again.
    poisoned: bool,
    clocks: Clocks,
    vars: Vec<VarState>,
    /// Per-vertex scratch flags of [`Self::propagate`], all clear between
    /// calls.
    marks: Vec<u8>,
}

impl Saturated {
    /// An empty saturation state; [`resaturate`] grows it to match a partial
    /// order.
    pub fn empty() -> Self {
        Saturated {
            graph: DiGraph::new(0),
            rounds: 0,
            topo: OnceCell::new(),
            synced_base_edges: 0,
            poisoned: false,
            clocks: Clocks::default(),
            vars: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// A topological order of [`Self::graph`] whose ties go to the lowest
    /// recording-order hint of `po` — the order the graph was saturated
    /// against.  Computed on the first call after the graph last changed.
    ///
    /// # Panics
    ///
    /// If the last [`resaturate`] found a cycle (there is no order).
    pub fn topo(&self, po: &TxnPartialOrder) -> &[u32] {
        self.topo.get_or_init(|| {
            self.graph.topo_order_by(&po.hints, 0).expect("a saturated graph is acyclic")
        })
    }

    /// Bytes of the chain-clock table — what stands in for a reachability
    /// closure.  Vertices and chains only ever grow, so the current size is
    /// also the high-water mark; 0 until the first [`resaturate`].
    pub fn peak_closure_bytes(&self) -> usize {
        std::mem::size_of_val(self.clocks.words.as_slice())
    }

    /// Whether `a →⁺ b` in [`Self::graph`], as of the last successful
    /// [`resaturate`] against `po`.
    pub fn reaches(&self, po: &TxnPartialOrder, a: u32, b: u32) -> bool {
        self.clocks.reaches(po, a, b)
    }

    /// Absorb `edges`, already in [`Self::graph`], into the clocks: push the
    /// row of each edge's tail (with the tail itself) along its out-edges,
    /// then that of every vertex whose row grew, lowest hint first, until
    /// rows stop growing.  Each vertex whose row grew is appended to `grown`
    /// once.  Returns whether the edges closed a cycle.
    fn propagate(
        &mut self,
        po: &TxnPartialOrder,
        edges: &[(u32, u32)],
        grown: &mut Vec<u32>,
    ) -> bool {
        const QUEUED: u8 = 1;
        const GREW: u8 = 2;
        let marks = &mut self.marks;
        marks.resize(self.graph.len(), 0);
        let first_grown = grown.len();
        // The tails, sorted, and a heap of what grew: on a whole-history
        // call every vertex is a tail, and the heap stays small.
        let mut tails = Vec::new();
        for &(a, _) in edges {
            // ROOT is in no chain: its row passes nothing along.
            if a != ROOT && marks[a as usize] & QUEUED == 0 {
                marks[a as usize] |= QUEUED;
                tails.push((po.hints[a as usize], a));
            }
        }
        tails.sort_unstable();
        let mut tails = tails.into_iter().peekable();
        let mut ready = BinaryHeap::new();
        let mut row = vec![0u32; self.clocks.k];
        loop {
            let next = match (tails.peek(), ready.peek()) {
                (Some(tail), Some(Reverse(grew))) if grew < tail => ready.pop().map(|Reverse(v)| v),
                (Some(_), _) => tails.next(),
                (None, _) => ready.pop().map(|Reverse(v)| v),
            };
            let Some((_, v)) = next else { break };
            marks[v as usize] &= !QUEUED;
            row.copy_from_slice(self.clocks.row(v));
            let (chain, pos) = po.chain_pos(v);
            row[chain as usize] = pos;
            for &w in self.graph.neighbors(v) {
                if !self.clocks.raise(&row, w) {
                    continue;
                }
                let mark = &mut marks[w as usize];
                if *mark & GREW == 0 {
                    grown.push(w);
                }
                if *mark & QUEUED == 0 {
                    ready.push(Reverse((po.hints[w as usize], w)));
                }
                *mark |= GREW | QUEUED;
            }
        }
        // Every queued vertex was taken: only the grown ones hold a mark.
        for &w in &grown[first_grown..] {
            marks[w as usize] = 0;
        }
        edges.iter().any(|&(_, b)| {
            b == ROOT || {
                let (chain, pos) = po.chain_pos(b);
                self.clocks.row(b)[chain as usize] >= pos
            }
        })
    }

    /// Catch every variable up with `po`: new writers go into the sorted
    /// writer list, new write-read edges into the sorted read list and their
    /// `(var, source)` groups into `pending`.  Returns whether the rule can
    /// fire at all: some variable has another writer than the initial
    /// transaction, and a read.
    fn sync_vars(&mut self, po: &TxnPartialOrder, pending: &mut Vec<(u32, u32)>) -> bool {
        self.vars.resize_with(po.n_vars(), VarState::default);
        let mut fires = false;
        for (var, state) in self.vars.iter_mut().enumerate() {
            let new = &po.writers_by_var[var][1 + state.writers.len()..];
            append_sorted(&mut state.writers, new.iter().map(|&w| (po.chain_pos(w), w)));
            let new = &po.wr_by_var[var][state.reads.len()..];
            pending.extend(new.iter().map(|&(source, _)| (var as u32, source)));
            append_sorted(&mut state.reads, new.iter().copied());
            fires |= !state.writers.is_empty() && !state.reads.is_empty();
        }
        fires
    }

    fn poison(&mut self) -> CycleViolation {
        self.poisoned = true;
        CycleViolation::from_path(self.graph.find_cycle())
    }
}

/// Read Committed: the base relation `so ∪ wr` admits a total commit order.
pub fn check_read_committed(po: &TxnPartialOrder) -> Result<Vec<u32>, CycleViolation> {
    po.base
        .topo_order_by(&po.hints, 0)
        .ok_or_else(|| CycleViolation::from_path(po.base.find_cycle()))
}

/// Read Atomic: one derivation pass with direct-edge visibility.
pub fn check_read_atomic(po: &TxnPartialOrder) -> Result<Vec<u32>, CycleViolation> {
    // The writers visible to `t3` are among its base predecessors — a handful
    // — so walk those instead of probing every writer of the variable:
    // `preds[starts[v]..starts[v + 1]]`, ascending like the writer lists.
    let n = po.len();
    let mut starts = vec![0usize; n + 1];
    for v in 0..n as u32 {
        for b in po.base.neighbors(v) {
            starts[b as usize + 1] += 1;
        }
    }
    for v in 0..n {
        starts[v + 1] += starts[v];
    }
    let mut preds = vec![0u32; starts[n]];
    let mut next = starts.clone();
    for v in 0..n as u32 {
        for b in po.base.neighbors(v) {
            preds[next[b as usize]] = v;
            next[b as usize] += 1;
        }
    }

    let mut graph = po.base.to_digraph();
    for (var, wr_edges) in po.wr_by_var.iter().enumerate() {
        for &(t1, t3) in wr_edges {
            for &t2 in &preds[starts[t3 as usize]..starts[t3 as usize + 1]] {
                let writes_var = t2 == ROOT || po.writes(t2).contains(&(var as u32));
                if t2 != t1 && writes_var {
                    graph.add_edge(t2, t1);
                }
            }
        }
    }
    graph.topo_order_by(&po.hints, 0).ok_or_else(|| CycleViolation::from_path(graph.find_cycle()))
}

/// Causal: saturate write-write edges against reachability to a fixpoint.
pub fn check_causal(po: &TxnPartialOrder) -> Result<Saturated, CycleViolation> {
    let mut sat = Saturated::empty();
    resaturate(&mut sat, po)?;
    sat.topo(po); // every consumer of a whole-history check reads the order
    Ok(sat)
}

/// Absorb everything `po` gained since the last call and saturate again.
/// Calling this after every [`TxnPartialOrder::extend`] batch keeps the
/// causal verdict warm as the stream flows; a cycle, once found, is final
/// (the constraint set only ever grows) and is reported again by every later
/// call.
pub fn resaturate(sat: &mut Saturated, po: &TxnPartialOrder) -> Result<(), CycleViolation> {
    if sat.poisoned {
        return Err(CycleViolation::from_path(sat.graph.find_cycle()));
    }
    let known = sat.graph.len() as u32;
    while sat.graph.len() < po.len() {
        sat.graph.add_vertex();
    }
    let synced_from = std::mem::replace(&mut sat.synced_base_edges, po.edge_log().len());
    let mut added: Vec<(u32, u32)> = po.edge_log()[synced_from..]
        .iter()
        .copied()
        .filter(|&(a, b)| sat.graph.add_edge(a, b))
        .collect();
    if added.is_empty() {
        return Ok(()); // nothing new since the previous fixpoint
    }
    sat.topo.take();
    // A cycle among the base edges leaves the table at its size before this
    // call, as a sweep that gave up before re-laying it out would.
    let laid_out = sat.clocks.words.len();
    sat.clocks.lay_out(po);
    let mut grown = Vec::new();
    if sat.propagate(po, &added, &mut grown) {
        sat.clocks.words.truncate(laid_out);
        return Err(sat.poison());
    }
    // The `(var, source)` read groups the next round visits.
    let mut pending = Vec::new();
    if !sat.sync_vars(po, &mut pending) {
        return Ok(()); // no variable the rule can fire on: no round
    }
    // A vertex new to this call has only new reads, pending already.
    grown.retain(|&v| v < known);
    let mut derived = Vec::new();
    loop {
        sat.rounds += 1;
        pending.extend(grown.iter().flat_map(|&v| po.reads(v).iter().copied()));
        apply_rule(po, &sat.clocks, &sat.vars, &mut pending, &mut derived);
        if derived.is_empty() {
            return Ok(());
        }
        added.clear();
        added.extend(derived.drain(..).filter(|&(a, b)| sat.graph.add_edge(a, b)));
        grown.clear();
        if sat.propagate(po, &added, &mut grown) {
            return Err(sat.poison());
        }
    }
}

/// Append `new` to the sorted `list`, re-sorting it only when something new
/// sorts before what was last.
fn append_sorted<T: Ord>(list: &mut Vec<T>, new: impl Iterator<Item = T>) {
    let from = list.len().saturating_sub(1);
    list.extend(new);
    if !list[from..].is_sorted() {
        list.sort_unstable();
    }
}

/// One application of the causal visibility rule to the `(var, t1)` read
/// groups in `pending`, in variable then source order, draining it and
/// collecting the write-write edges it forces: per chain, the last writer of
/// `var` in the chain that some reader of `t1`'s write sees must commit
/// before `t1`.  Earlier writers of the chain follow through the chain's own
/// edges.
fn apply_rule(
    po: &TxnPartialOrder,
    clocks: &Clocks,
    vars: &[VarState],
    pending: &mut Vec<(u32, u32)>,
    out: &mut Vec<(u32, u32)>,
) {
    pending.sort_unstable();
    pending.dedup();
    let mut seen = vec![0u32; clocks.k];
    for (var, t1) in pending.drain(..) {
        let VarState { writers, reads } = &vars[var as usize];
        let group = &reads[reads.partition_point(|&(source, _)| source < t1)..];
        let group = &group[..group.partition_point(|&(source, _)| source == t1)];
        seen.fill(0);
        for &(_, t3) in group {
            for (upto, &c) in seen.iter_mut().zip(clocks.row(t3)) {
                *upto = (*upto).max(c);
            }
        }
        for (chain, &upto) in seen.iter().enumerate() {
            let visible = writers.partition_point(|&(at, _)| at <= (chain as u32, upto));
            let Some(&((c, _), t2)) = visible.checked_sub(1).map(|last| &writers[last]) else {
                continue;
            };
            // `t2 == t1`, or `t2` already before `t1`: nothing to add.
            if c as usize == chain && t2 != t1 && !clocks.reaches(po, t2, t1) {
                out.push((t2, t1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{AuditHistory, TxnId};

    fn build(h: &AuditHistory) -> TxnPartialOrder {
        TxnPartialOrder::build(h).unwrap()
    }

    /// Two sessions that each read the other's later write: so ∪ wr is cyclic,
    /// nothing in the hierarchy can hold.
    #[test]
    fn read_committed_rejects_so_wr_cycles() {
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 20)], []); // s0:0 reads s1:1's write
        h.push_txn(0, [], [(1, 10)]); // s0:1 writes v1
        h.push_txn(1, [(1, 10)], []); // s1:0 reads s0:1's write
        h.push_txn(1, [], [(0, 20)]); // s1:1 writes v0
        let po = build(&h);
        let err = check_read_committed(&po).unwrap_err();
        assert!(err.render(&po).contains("cycle"));
        assert!(check_read_atomic(&po).is_err());
        assert!(check_causal(&po).is_err());
    }

    /// Fractured read: reader observes one of a transaction's two writes and
    /// the initial value of the other.  RC passes, RA does not.
    #[test]
    fn read_atomic_rejects_fractured_reads() {
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [], [(0, 1), (1, 2)]); // s0:0 writes both vars
        h.push_txn(1, [(0, 1), (1, 0)], []); // s1:0 sees v0 new, v1 initial
        let po = build(&h);
        assert!(check_read_committed(&po).is_ok());
        let err = check_read_atomic(&po).unwrap_err();
        // The cycle runs through the initial transaction: s0:0 must commit
        // before init because init's v1 value was read by someone who saw
        // s0:0.
        assert!(err.path.contains(&0), "{:?}", err.path);
        assert!(check_causal(&po).is_err());
    }

    /// The 7-session causality chain: RA holds but causal saturation finds the
    /// cycle (the dbcop regression scenario).
    #[test]
    fn causal_rejects_transitive_stale_reads() {
        let mut h = AuditHistory::new(6, 0, 7);
        // x=1,a=1 ; read x, write y ; read y, write z ; read z, write a=2 ;
        // read a=2, write p ; read p, write q ; read q, read a=1.
        let (x, y, z, a, p, q) = (0, 1, 2, 3, 4, 5);
        h.push_txn(0, [], [(x, 1), (a, 1)]);
        h.push_txn(1, [(x, 1)], [(y, 1)]);
        h.push_txn(2, [(y, 1)], [(z, 1)]);
        h.push_txn(3, [(z, 1)], [(a, 2)]);
        h.push_txn(4, [(a, 2)], [(p, 1)]);
        h.push_txn(5, [(p, 1)], [(q, 1)]);
        h.push_txn(6, [(q, 1), (a, 1)], []);
        let po = build(&h);
        assert!(check_read_committed(&po).is_ok());
        assert!(check_read_atomic(&po).is_ok(), "RA must accept the chain");
        let err = check_causal(&po).unwrap_err();
        assert!(!err.path.is_empty());
    }

    /// Concurrent blind writes to the same variable are fine at every
    /// saturation level.
    #[test]
    fn independent_sessions_saturate_to_a_fixpoint_quickly() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 0)], [(0, 2)]);
        let po = build(&h);
        assert!(check_read_committed(&po).is_ok());
        assert!(check_read_atomic(&po).is_ok());
        let sat = check_causal(&po).unwrap();
        assert!(sat.rounds <= 2, "rounds: {}", sat.rounds);
        assert_eq!(sat.topo(&po).len(), 3);
        assert_eq!(sat.topo(&po)[0], 0, "the initial transaction comes first");
    }

    /// A session-order-respecting chain of reads is causal, and saturation
    /// derives the cross-session write-write order.
    #[test]
    fn causal_accepts_and_orders_a_clean_handoff() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]); // s0:0: 0 → 1
        h.push_txn(1, [(0, 1)], [(0, 2)]); // s1:0: 1 → 2 (read s0:0's write)
        h.push_txn(0, [(0, 2)], [(0, 3)]); // s0:1: 2 → 3 (read s1:0's write)
        let po = build(&h);
        let sat = check_causal(&po).unwrap();
        // init < s0:0 < s1:0 < s0:1 is forced.
        let pos = |v: u32| sat.topo(&po).iter().position(|&u| u == v).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(3) && pos(3) < pos(2));
    }

    /// Strict reachability over `graph` by one DFS per source.
    fn closure(graph: &DiGraph) -> Vec<Vec<bool>> {
        (0..graph.len() as u32)
            .map(|start| {
                let mut seen = vec![false; graph.len()];
                let mut stack = graph.neighbors(start).to_vec();
                while let Some(v) = stack.pop() {
                    if !std::mem::replace(&mut seen[v as usize], true) {
                        stack.extend_from_slice(graph.neighbors(v));
                    }
                }
                seen
            })
            .collect()
    }

    /// The causal fixpoint written the obvious way: every visible writer,
    /// DFS reachability, until a round derives nothing or closes a cycle.
    fn reference_fixpoint(po: &TxnPartialOrder) -> Result<Vec<Vec<bool>>, ()> {
        let mut graph = po.base.to_digraph();
        loop {
            if graph.find_cycle().is_some() {
                return Err(());
            }
            let reach = closure(&graph);
            let mut grew = false;
            for (var, wr_edges) in po.wr_by_var.iter().enumerate() {
                for &(t1, t3) in wr_edges {
                    for &t2 in &po.writers_by_var[var] {
                        if t2 != t1 && t2 != t3 && reach[t2 as usize][t3 as usize] {
                            grew |= graph.add_edge(t2, t1);
                        }
                    }
                }
            }
            if !grew {
                return Ok(reach);
            }
        }
    }

    /// A seeded random workload, saturated whole vs. extended txn-by-txn with
    /// [`resaturate`] after each step: both paths must reach the same
    /// fixpoint (same reachability — which edges carry it is an accident of
    /// insertion order) and the same verdict.
    #[test]
    fn saturation_is_batch_incremental_agnostic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (sessions, vars) = (3usize, 4usize);
            let mut h = AuditHistory::new(vars, 0, sessions);
            // Track last committed value per var so reads are resolvable
            // (occasionally stale: read a var's older value).
            let mut values: Vec<Vec<i64>> = vec![vec![0]; vars];
            let mut next = 1i64;
            for _ in 0..30 {
                let s = rng.gen_range(0..sessions);
                let v = rng.gen_range(0..vars);
                let vals = &values[v];
                let read = vals[rng.gen_range(0..vals.len())];
                let reads = [(v, read)].into();
                let writes = if rng.gen_bool(0.6) {
                    values[v].push(next);
                    next += 1;
                    [(v, next - 1)].into()
                } else {
                    Default::default()
                };
                let hint = h.txn_count() as u64;
                h.sessions[s].push(crate::history::AuditTxn {
                    reads,
                    writes,
                    hint,
                    ..Default::default()
                });
            }

            let po = build(&h);
            let batch = check_causal(&po);

            let mut inc_po = TxnPartialOrder::new(vars, 0);
            let mut sat = Saturated::empty();
            let mut incremental: Result<(), CycleViolation> = Ok(());
            'outer: for (s, session) in h.sessions.iter().enumerate() {
                for (seq, txn) in session.iter().enumerate() {
                    inc_po.extend(TxnId { session: s, seq }, txn).unwrap();
                    if let Err(cycle) = resaturate(&mut sat, &inc_po) {
                        incremental = Err(cycle);
                        break 'outer;
                    }
                }
            }
            if incremental.is_ok() {
                inc_po.seal().unwrap();
                incremental = resaturate(&mut sat, &inc_po);
            }

            match (&batch, &incremental) {
                (Ok(b), Ok(())) => {
                    assert_eq!(closure(&b.graph), closure(&sat.graph), "seed {seed}");
                    assert_eq!(Ok(closure(&b.graph)), reference_fixpoint(&po), "seed {seed}");
                }
                (Err(_), Err(_)) => assert!(reference_fixpoint(&po).is_err(), "seed {seed}"),
                other => panic!("seed {seed}: batch and incremental verdicts differ: {other:?}"),
            }
        }
    }

    /// One variable as [`FullSweep`] scans it: its write-read edges sorted by
    /// source, and its non-initial writers sorted by chain position.
    type ScannedVar = (Vec<(u32, u32)>, Vec<ChainWriter>);

    /// The engine before saturation became incremental in its derivation,
    /// kept as the oracle for [`resaturate`]: every call that absorbed
    /// something re-sorts the whole graph, refills every clock row along that
    /// order, and applies the rule to every read group of every variable.
    #[derive(Default)]
    struct FullSweep {
        graph: DiGraph,
        topo: Vec<u32>,
        rounds: usize,
        synced_base_edges: usize,
        poisoned: bool,
        clocks: Vec<u32>,
        chains: usize,
    }

    impl FullSweep {
        fn clock(&self, v: u32) -> &[u32] {
            &self.clocks[v as usize * self.chains..][..self.chains]
        }

        fn reaches(&self, po: &TxnPartialOrder, a: u32, b: u32) -> bool {
            if a == ROOT {
                return b != ROOT;
            }
            let (chain, pos) = po.chain_pos(a);
            self.clock(b)[chain as usize] >= pos
        }

        fn resaturate(&mut self, po: &TxnPartialOrder) -> Result<(), CycleViolation> {
            if self.poisoned {
                return Err(CycleViolation::from_path(self.graph.find_cycle()));
            }
            while self.graph.len() < po.len() {
                self.graph.add_vertex();
            }
            let synced_from = std::mem::replace(&mut self.synced_base_edges, po.edge_log().len());
            let mut added = false;
            for &(a, b) in &po.edge_log()[synced_from..] {
                added |= self.graph.add_edge(a, b);
            }
            if !added && self.topo.len() == self.graph.len() {
                return Ok(());
            }
            self.refresh(po)?;
            let scanned: Vec<ScannedVar> = (0..po.n_vars())
                .filter(|&var| po.writers_by_var[var].len() > 1 && !po.wr_by_var[var].is_empty())
                .map(|var| {
                    let mut reads = po.wr_by_var[var].clone();
                    reads.sort_unstable();
                    let mut writers: Vec<ChainWriter> =
                        po.writers_by_var[var][1..].iter().map(|&w| (po.chain_pos(w), w)).collect();
                    writers.sort_unstable();
                    (reads, writers)
                })
                .collect();
            let mut derived = Vec::new();
            while !scanned.is_empty() {
                self.rounds += 1;
                self.apply_rule(po, &scanned, &mut derived);
                if derived.is_empty() {
                    break;
                }
                for (a, b) in derived.drain(..) {
                    self.graph.add_edge(a, b);
                }
                self.refresh(po)?;
            }
            Ok(())
        }

        fn refresh(&mut self, po: &TxnPartialOrder) -> Result<(), CycleViolation> {
            let Some(topo) = self.graph.topo_order_by(&po.hints, 0) else {
                self.poisoned = true;
                return Err(CycleViolation::from_path(self.graph.find_cycle()));
            };
            let k = po.chains();
            self.chains = k;
            self.clocks.clear();
            self.clocks.resize(self.graph.len() * k, 0);
            let mut row = vec![0u32; k];
            for &v in &topo {
                if v == ROOT {
                    continue;
                }
                row.copy_from_slice(self.clock(v));
                let (chain, pos) = po.chain_pos(v);
                row[chain as usize] = pos;
                for &w in self.graph.neighbors(v) {
                    let successor = &mut self.clocks[w as usize * k..][..k];
                    for (seen, &from_v) in successor.iter_mut().zip(&row) {
                        *seen = (*seen).max(from_v);
                    }
                }
            }
            self.topo = topo;
            Ok(())
        }

        fn apply_rule(
            &self,
            po: &TxnPartialOrder,
            scanned: &[ScannedVar],
            out: &mut Vec<(u32, u32)>,
        ) {
            let mut seen = vec![0u32; self.chains];
            for (reads, writers) in scanned {
                for readers in reads.chunk_by(|a, b| a.0 == b.0) {
                    let t1 = readers[0].0;
                    seen.fill(0);
                    for &(_, t3) in readers {
                        for (upto, &c) in seen.iter_mut().zip(self.clock(t3)) {
                            *upto = (*upto).max(c);
                        }
                    }
                    for (chain, &upto) in seen.iter().enumerate() {
                        let visible =
                            writers.partition_point(|&(at, _)| at <= (chain as u32, upto));
                        let Some(&((c, _), t2)) = visible.checked_sub(1).map(|last| &writers[last])
                        else {
                            continue;
                        };
                        if c as usize == chain && t2 != t1 && !self.reaches(po, t2, t1) {
                            out.push((t2, t1));
                        }
                    }
                }
            }
        }
    }

    /// Chain clocks against brute force, and the incremental engine against
    /// [`FullSweep`].  Random partial orders — 3–6 sessions; detached
    /// stand-ins under real and `past?n` identities, which add chains after
    /// the clock table exists; reads parked on a writer that arrives later;
    /// stale and initial-value reads that plant cycles, some through a
    /// derived edge into [`ROOT`] — grown a few transactions at a time.
    /// After every [`resaturate`] both engines hold the same edges in the
    /// same adjacency order, the same rounds, the same table size and the
    /// same verdict, cycle path included; on success they hold the same
    /// clocks and topological order, the clocks answer every pair as a DFS
    /// over the saturated graph does, and the final verdict and closure are
    /// the reference fixpoint's.
    #[test]
    fn chain_clocks_agree_with_brute_force_reachability() {
        use crate::history::{AccessSet, AuditTxn};
        use crate::po::EVICTED_SESSION;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut acyclic, mut derived, mut parked) = (0, 0, 0);
        let (mut widened, mut base_cycles, mut into_root) = (0, 0, 0);
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sessions = rng.gen_range(3..=6usize);
            let (vars, n) = (4usize, 30usize);
            // Transaction `i` writes value `i + 1` (when it writes at all),
            // so a read can name a writer that has not been extended yet.
            let writes: Vec<Option<usize>> =
                (0..n).map(|_| rng.gen_bool(0.6).then(|| rng.gen_range(0..vars))).collect();
            let mut po = TxnPartialOrder::new(vars, 0);
            let mut sat = Saturated::empty();
            let mut reference = FullSweep::default();
            let mut seqs = vec![0usize; sessions];
            let mut verdict = Ok(());
            let mut i = 0;
            while i < n && verdict.is_ok() {
                let chains = po.chains();
                for i in i..n.min(i + rng.gen_range(1..=4usize)) {
                    let mut reads = AccessSet::new();
                    for var in 0..vars {
                        if !rng.gen_bool(0.4) {
                            continue;
                        }
                        // Mostly the latest writer of `var` (the initial
                        // value before any), rarely the one before it or the
                        // initial value regardless, rarely one still to come.
                        let writes_var = |w: &usize| writes[*w] == Some(var);
                        let writer = (i + 1..n.min(i + 4))
                            .find(|w| rng.gen_bool(0.03) && writes_var(w))
                            .or_else(|| {
                                (0..i).rev().filter(writes_var).nth(usize::from(rng.gen_bool(0.02)))
                            })
                            .filter(|_| !rng.gen_bool(0.01));
                        parked += usize::from(writer.is_some_and(|w| w > i));
                        reads.push((var, writer.map_or(0, |w| w as i64 + 1)));
                    }
                    let txn = AuditTxn {
                        reads,
                        writes: writes[i].map(|var| (var, i as i64 + 1)).into_iter().collect(),
                        hint: i as u64,
                        ..Default::default()
                    };
                    let session = rng.gen_range(0..sessions);
                    match rng.gen_range(0..10) {
                        0 => po.extend_detached(TxnId { session, seq: 1000 + i }, &txn),
                        1 => po.extend_detached(TxnId { session: EVICTED_SESSION, seq: i }, &txn),
                        _ => {
                            seqs[session] += 1;
                            po.extend(TxnId { session, seq: seqs[session] - 1 }, &txn)
                        }
                    }
                    .unwrap();
                }
                widened += usize::from(sat.peak_closure_bytes() > 0 && po.chains() > chains);
                i = po.len() - 1;
                let rounds = sat.rounds;
                verdict = resaturate(&mut sat, &po);
                // A cycle among the new base edges fails before any round.
                base_cycles += usize::from(verdict.is_err() && sat.rounds == rounds);
                let at = format!("seed {seed}, {i} txns");
                assert_eq!(reference.resaturate(&po), verdict, "{at}");
                assert_eq!(sat.rounds, reference.rounds, "{at}");
                assert_eq!(sat.peak_closure_bytes(), 4 * reference.clocks.len(), "{at}");
                for v in 0..po.len() as u32 {
                    assert_eq!(sat.graph.neighbors(v), reference.graph.neighbors(v), "{at}: {v}");
                }
                if verdict.is_ok() {
                    assert_eq!(sat.clocks.words, reference.clocks, "{at}");
                    assert_eq!(sat.topo(&po), reference.topo, "{at}");
                    let reach = closure(&sat.graph);
                    for a in 0..po.len() as u32 {
                        for b in 0..po.len() as u32 {
                            let reached = reach[a as usize][b as usize];
                            assert_eq!(sat.reaches(&po, a, b), reached, "{at}: {a} → {b}");
                        }
                    }
                    assert_eq!(sat.peak_closure_bytes(), po.len() * po.chains() * 4);
                }
            }
            match (verdict, reference_fixpoint(&po)) {
                (Ok(()), Ok(reach)) => {
                    assert_eq!(closure(&sat.graph), reach, "seed {seed}");
                    acyclic += 1;
                    derived += sat.graph.edge_count() - po.base.edge_count();
                }
                // A cycle stops the incremental run early; the reference
                // sees the same prefix, so it must find one too.  No base
                // edge enters the initial transaction, so a cycle through it
                // closed on a derived edge.
                (Err(cycle), Err(())) => into_root += usize::from(cycle.path.contains(&ROOT)),
                other => panic!("seed {seed}: verdicts differ: {other:?}"),
            }
        }
        assert!(
            acyclic >= 30 && derived >= 100 && parked >= 20,
            "{acyclic} acyclic, {derived} derived edges, {parked} parked reads"
        );
        assert!(
            widened >= 100 && base_cycles >= 10 && into_root >= 10,
            "{widened} widened tables, {base_cycles} base cycles, {into_root} cycles into ROOT"
        );
    }
}
