//! The NP-hard upper half of the hierarchy — Prefix, Snapshot Isolation and
//! Serializability — and the linear check that usually makes deciding it
//! unnecessary.
//!
//! 1. **Verify the recording order, for all six levels at once**
//!    (`certify_hint_order`, `HintOrder`).  The recording order is almost the
//!    commit order on the consistent backends, so the hint-ordered
//!    topological order of `so ∪ wr` is checked against reads-last-write
//!    before anything else runs — before saturation, not after it.  If it
//!    explains every read it *is* a serialization, hence (the hierarchy
//!    being strict) a witness for every level below, and no search runs.
//!    This is the first step of [`crate::audit_with_options`] — one
//!    O(history · log) pass — and of every probe and close of the windowed
//!    engine, where the verified prefix is carried from pass to pass: a pass
//!    costs O(new · log) in what arrived since the last, and restarts from
//!    the window's first transaction only when a parked read resolved into
//!    the prefix or a new vertex's hint sorts before its end.  The rest of
//!    this module is what runs when it fails.
//! 2. **Polynomial refutation** — the lost-update rule: two distinct
//!    transactions that read variable `x` from the *same* source and both
//!    write `x` cannot be serialized (whichever is ordered second must have
//!    read the other's write), and cannot both commit under snapshot
//!    isolation's first-committer-wins.  This catches the entire PRAM-backend
//!    failure mode in O(history) time, with a two-transaction witness.  The
//!    same-source skew rule does the same for write skew, for SER only.
//! 3. **The saturated order** — the searches (Biswas & Enea, Theorem 4.8 /
//!    the dbcop search) run over the causally-saturated constraints, whose
//!    hint-ordered topological order is verified once more first: derived
//!    write-write edges can repair an order the base relation alone left
//!    wrong.
//! 4. **Memoized DFS** — otherwise a backtracking search over linear
//!    extensions runs, pruned by (a) the saturated partial order, (b) eager
//!    write-blocking (a writer may not be placed while readers of the current
//!    version are still pending — which is what makes the placed *set*
//!    determine the whole search state, so (c) Zobrist memoization on the
//!    placed set is sound), and bounded by an explicit state budget: an
//!    exhausted budget reports *unknown*, never a verdict.

use crate::digraph::{splitmix64, DiGraph};
use crate::po::{TxnPartialOrder, ROOT};
use crate::saturation::Saturated;
use std::collections::{HashMap, HashSet};

/// Outcome of a linearization search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Search {
    /// A valid commit order (dense indices, initial transaction excluded).
    Order(Vec<u32>),
    /// The search space is exhausted: no valid order exists.
    NoOrder,
    /// The state budget ran out before either answer.
    Exhausted {
        /// States visited before giving up.
        states: u64,
    },
}

/// How many DFS states the SI/SER searches may visit before giving up.
pub const DEFAULT_STATE_BUDGET: u64 = 2_000_000;

/// A two-transaction lost-update witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostUpdate {
    /// The variable both transactions read-modify-wrote.
    pub var: u32,
    /// The common source both read `var` from.
    pub source: u32,
    /// First of the two conflicting read-modify-writes.
    pub first: u32,
    /// Second of the two conflicting read-modify-writes.
    pub second: u32,
}

impl LostUpdate {
    /// Render with history transaction names.
    pub fn render(&self, po: &TxnPartialOrder) -> String {
        format!(
            "lost update on v{}: {} and {} both read it from {} and both wrote it",
            self.var,
            po.name(self.first),
            po.name(self.second),
            po.name(self.source),
        )
    }
}

/// O(history) refutation shared by SER and SI: find two transactions that read
/// the same variable from the same source and both write that variable.
pub fn find_lost_update(po: &TxnPartialOrder) -> Option<LostUpdate> {
    let mut rmw_reader_of: std::collections::HashMap<(u32, u32), u32> =
        std::collections::HashMap::new();
    for (var, wr_edges) in po.wr_by_var.iter().enumerate() {
        for &(src, reader) in wr_edges {
            if !po.writes(reader).contains(&(var as u32)) {
                continue; // a plain read never loses an update
            }
            if let Some(&prev) = rmw_reader_of.get(&(var as u32, src)) {
                return Some(LostUpdate {
                    var: var as u32,
                    source: src,
                    first: prev,
                    second: reader,
                });
            }
            rmw_reader_of.insert((var as u32, src), reader);
        }
    }
    None
}

/// O(history) serializability refutation that catches **write skew** (which
/// [`find_lost_update`] deliberately does not): among transactions that read
/// a variable `x` from the *same* source, every plain reader must be
/// serialized **before** every reader that also writes `x` — were the writer
/// first, the plain reader would have observed its write, not the shared
/// source.  These forced anti-dependency edges are added to the saturated
/// constraint graph; a cycle means no serialization order exists, with the
/// cycle as a two-(or more)-transaction witness.  The edges are *not* sound
/// for snapshot isolation (a reader's snapshot, not its commit, precedes the
/// writer there) — which is exactly why write skew separates SI from SER.
///
/// Requires [`find_lost_update`] to have returned `None` (so each
/// `(variable, source)` group holds at most one writer) and the causal check
/// to have passed (so `sat.graph` itself is acyclic).
pub fn find_same_source_skew(po: &TxnPartialOrder, sat: &Saturated) -> Option<Vec<u32>> {
    // reader → writer edges, grouped per (variable, shared source).
    let mut forced: Vec<(u32, u32)> = Vec::new();
    for (var, wr_edges) in po.wr_by_var.iter().enumerate() {
        let mut by_src: HashMap<u32, (Vec<u32>, Option<u32>)> = HashMap::new();
        for &(src, reader) in wr_edges {
            let entry = by_src.entry(src).or_default();
            if po.writes(reader).contains(&(var as u32)) {
                entry.1 = Some(reader); // at most one, or lost-update fired
            } else {
                entry.0.push(reader);
            }
        }
        // Drain in source order: HashMap iteration order varies per instance,
        // and the witness chosen downstream must not — replaying an exported
        // history has to reproduce the live verdict byte for byte.
        let mut groups: Vec<_> = by_src.into_iter().collect();
        groups.sort_unstable_by_key(|&(src, _): &(u32, _)| src);
        for (_, (plain_readers, writer)) in groups {
            if let Some(w) = writer {
                forced.extend(plain_readers.into_iter().map(|r| (r, w)));
            }
        }
    }
    if forced.is_empty() {
        return None;
    }
    // Prefer the minimal witness: a symmetric forced pair is the textbook
    // two-transaction write skew.
    let pairs: HashSet<(u32, u32)> = forced.iter().copied().collect();
    if let Some(&(r, w)) = forced.iter().find(|&&(r, w)| pairs.contains(&(w, r))) {
        return Some(vec![r, w, r]);
    }
    let mut graph = DiGraph::new(po.len());
    for a in 0..po.len() as u32 {
        for &b in sat.graph.neighbors(a) {
            graph.add_edge(a, b);
        }
    }
    let mut added = false;
    for (reader, writer) in forced {
        added |= graph.add_edge(reader, writer);
    }
    if !added {
        return None; // every forced edge was already a saturated constraint
    }
    graph.find_cycle()
}

/// Verify a full candidate **commit order** against snapshot-isolation
/// semantics by searching, per transaction, for a feasible snapshot point —
/// the O(history · log) fast path mirroring [`verify_serial_order`].
///
/// A transaction committing at position `i` needs a snapshot position
/// `s ≤ i - 1` such that (a) every saturated predecessor has committed by
/// `s` (the split-vertex encoding's `W(a) → R(b)` edges), (b) every read
/// `(x, src)` sees `src` as the newest writer of `x` at `s`, and (c)
/// first-committer-wins: no other writer of a written variable commits in
/// `(s, i)`.  The per-read windows and per-write lower bounds intersect to
/// an interval; a non-empty interval for every transaction *exhibits* a
/// valid SI execution, so a `true` here is a sound pass — this is what the
/// recording order of an MVCC backend satisfies by construction, making the
/// SI verdict decidable at scales where the DFS would exhaust its budget.
#[cfg(test)]
fn verify_si_order(po: &TxnPartialOrder, sat: &Saturated, order: &[u32]) -> bool {
    verify_split_order(po, sat, order, true)
}

/// [`verify_si_order`] without clause (c): **prefix consistency** drops
/// first-committer-wins, so a candidate order only needs a snapshot point per
/// transaction that explains its reads against some commit-order prefix.
#[cfg(test)]
fn verify_prefix_order(po: &TxnPartialOrder, sat: &Saturated, order: &[u32]) -> bool {
    verify_split_order(po, sat, order, false)
}

fn verify_split_order(
    po: &TxnPartialOrder,
    sat: &Saturated,
    order: &[u32],
    first_committer_wins: bool,
) -> bool {
    let n = po.len();
    // Positions: ROOT pinned at 0, everything else 1-based in order.
    let mut pos = vec![0usize; n];
    let mut p = 1usize;
    for &t in order {
        if t == ROOT {
            continue;
        }
        pos[t as usize] = p;
        p += 1;
    }
    if p != n {
        return false; // not a full order
    }
    // Per-variable committed writer positions, ascending.
    let writer_positions: Vec<Vec<usize>> = po
        .writers_by_var
        .iter()
        .map(|writers| {
            let mut ps: Vec<usize> = writers.iter().map(|&w| pos[w as usize]).collect();
            ps.sort_unstable();
            ps
        })
        .collect();
    // Latest-committing saturated predecessor of each transaction.
    let mut pred_max = vec![0usize; n];
    for a in 0..n as u32 {
        for &b in sat.graph.neighbors(a) {
            pred_max[b as usize] = pred_max[b as usize].max(pos[a as usize]);
        }
    }
    for t in 1..n {
        let i = pos[t];
        let mut lo = pred_max[t];
        let mut hi = i - 1;
        for &(var, src) in po.reads(t as u32) {
            let ps = pos[src as usize];
            lo = lo.max(ps);
            // The snapshot must predate the next writer of `var` after `src`.
            let writers = &writer_positions[var as usize];
            let next = writers.partition_point(|&w| w <= ps);
            if let Some(&np) = writers.get(next) {
                if np == 0 {
                    return false;
                }
                hi = hi.min(np - 1);
            }
        }
        if first_committer_wins {
            for &var in po.writes(t as u32) {
                // First-committer-wins: the snapshot must include the latest
                // other writer of `var` committing before us.
                let writers = &writer_positions[var as usize];
                let before = writers.partition_point(|&w| w < i);
                if before > 0 {
                    lo = lo.max(writers[before - 1]);
                }
            }
        }
        if lo > hi {
            return false;
        }
    }
    true
}

// Deterministic per-vertex Zobrist keys (SplitMix64, two streams xor-combined
// into a u128 so accidental collisions need 128 matching bits).
fn zobrist(v: u64) -> u128 {
    let high = splitmix64(v.wrapping_mul(2).wrapping_add(1));
    (u128::from(high) << 64) | u128::from(splitmix64(v << 7))
}

/// Per-variable version bookkeeping shared by the SER and SI searches.
struct VersionState<'a> {
    /// Per transaction: its reads and its written variables, looked up in
    /// the partial order once, since the search asks at every step.
    reads: Vec<&'a [(u32, u32)]>,
    writes: Vec<&'a [u32]>,
    /// `(writer, var)` → transactions that read `var` from `writer`; only
    /// the searches ask, so they build it, not ingest.
    readers: HashMap<(u32, u32), Vec<u32>>,
    /// var → writer whose value is current in the placed prefix.
    last_writer: Vec<u32>,
    /// var → readers of the current version not yet placed.
    pending: Vec<Vec<u32>>,
}

type WriteUndo = Vec<(u32, u32, Vec<u32>)>;

impl<'a> VersionState<'a> {
    fn new(po: &'a TxnPartialOrder, n_vars: usize) -> Self {
        let wired = po.wr_by_var.iter().map(Vec::len).sum();
        let mut readers: HashMap<(u32, u32), Vec<u32>> = HashMap::with_capacity(wired);
        for (var, wr_edges) in po.wr_by_var.iter().enumerate() {
            for &(src, reader) in wr_edges {
                readers.entry((src, var as u32)).or_default().push(reader);
            }
        }
        let pending = (0..n_vars as u32)
            .map(|var| readers.get(&(ROOT, var)).cloned().unwrap_or_default())
            .collect();
        let reads = (0..po.len() as u32).map(|t| po.reads(t)).collect();
        let writes = (0..po.len() as u32).map(|t| po.writes(t)).collect();
        VersionState { reads, writes, readers, last_writer: vec![ROOT; n_vars], pending }
    }

    /// The variables `t` wrote.
    fn writes(&self, t: u32) -> &'a [u32] {
        self.writes[t as usize]
    }

    /// All reads of `t` observe the currently-installed versions.
    fn reads_current(&self, t: u32) -> bool {
        self.reads[t as usize].iter().all(|&(var, src)| self.last_writer[var as usize] == src)
    }

    /// `t` overwrites no version that still has pending readers besides `t`.
    fn writes_unblocked(&self, t: u32) -> bool {
        self.writes(t).iter().all(|&var| {
            let p = &self.pending[var as usize];
            p.is_empty() || (p.len() == 1 && p[0] == t)
        })
    }

    fn apply_reads(&mut self, t: u32) {
        for &(var, _) in self.reads[t as usize] {
            let p = &mut self.pending[var as usize];
            let i = p.iter().position(|&r| r == t).expect("reader was pending");
            p.swap_remove(i);
        }
    }

    fn undo_reads(&mut self, t: u32) {
        for &(var, _) in self.reads[t as usize] {
            self.pending[var as usize].push(t);
        }
    }

    fn apply_writes(&mut self, t: u32) -> WriteUndo {
        let mut undo = Vec::with_capacity(self.writes(t).len());
        for &var in self.writes(t) {
            let fresh = self.readers.get(&(t, var)).cloned().unwrap_or_default();
            let old_writer = std::mem::replace(&mut self.last_writer[var as usize], t);
            let old_pending = std::mem::replace(&mut self.pending[var as usize], fresh);
            undo.push((var, old_writer, old_pending));
        }
        undo
    }

    fn undo_writes(&mut self, undo: WriteUndo) {
        for (var, old_writer, old_pending) in undo.into_iter().rev() {
            self.last_writer[var as usize] = old_writer;
            self.pending[var as usize] = old_pending;
        }
    }
}

/// The verify-first step every audit entry point starts with, run from a
/// fresh [`HintOrder`] over the whole of `po`: `Some` with the verified order
/// if the recording order is a serialization, `None` (which says nothing)
/// otherwise.  The batch audit calls this once; a window carries its
/// [`HintOrder`] from probe to probe instead.
pub(crate) fn certify_hint_order(po: &TxnPartialOrder) -> Option<HintOrder> {
    let mut fresh = HintOrder::new(po.n_vars());
    fresh.certify(po).then_some(fresh)
}

/// The verify-first step's state, carried across the passes over a growing
/// partial order: the hint-ordered topological order of `so ∪ wr` the last
/// pass verified against reads-last-write semantics, the version each
/// variable holds after it, the `edge_log` cursor at that pass and the
/// largest hint it placed.  The order covers every vertex the last pass saw,
/// so its length is that pass's vertex count.
///
/// A total order that extends `so ∪ wr` and in which every read observes the
/// latest preceding write **is** a serialization, and the hierarchy is
/// strict (SER ⊆ SI ⊆ Prefix ⊆ Causal ⊆ RA ⊆ RC), so a verified order
/// witnesses all six levels at once — with no saturation, closure or search.
/// A failed pass (a cyclic base relation, or an order some read contradicts)
/// says nothing: the caller falls back to the saturation and search engines.
///
/// [`HintOrder::certify`] **resumes**: it sorts and verifies only the
/// vertices extended since the last pass, O(new · log), when
///
/// 1. every base edge logged since the cursor enters one of those new
///    vertices, and
/// 2. every new vertex's hint is at least the largest hint placed.
///
/// Then a full pass over the grown order would place the old vertices first
/// and in the same order: no new edge enters them, so the placed set stays
/// closed under predecessors and, while an old vertex is unplaced, some old
/// vertex is ready — and it outranks every new vertex in the `(hint, index)`
/// heap.  Nor can an old vertex's reads have changed behind the cursor: the
/// only way ingest wires a read into an extended transaction is a parked
/// read resolving to a writer extended later, and that logs a new edge into
/// the reader ([`TxnPartialOrder::extend`]).  Otherwise — a parked read
/// resolved, or a stand-in arrived with an older hint (a detached frontier
/// writer, an evicted `past?n` at hint 0) — the pass **restarts** from
/// vertex 0.  Either way the verdict and order are exactly a fresh pass's.
///
/// Reads still parked on a writer that has not arrived are not part of `po`
/// yet, so mid-stream this certifies the wired prefix only.
#[derive(Debug, Clone)]
pub(crate) struct HintOrder {
    /// The verified order, the initial transaction first.
    order: Vec<u32>,
    /// var → writer whose value is current after `order`.
    last_writer: Vec<u32>,
    /// `edge_log` entries the last pass covered.
    edges: usize,
    /// The largest hint in `order`.
    max_hint: u64,
    /// Vertices (the initial transaction excluded) the passes topo-sorted.
    pub(crate) placed: u64,
    /// Passes that had to discard a verified prefix and start over.
    pub(crate) restarts: u64,
}

impl HintOrder {
    /// Nothing verified yet, over `n_vars` variables.
    pub(crate) fn new(n_vars: usize) -> Self {
        HintOrder {
            order: Vec::new(),
            last_writer: vec![ROOT; n_vars],
            edges: 0,
            max_hint: 0,
            placed: 0,
            restarts: 0,
        }
    }

    /// The verified order, initial transaction excluded (empty until a pass
    /// verified).
    pub(crate) fn order(&self) -> &[u32] {
        self.order.get(1..).unwrap_or_default()
    }

    /// Bring the verified order up to everything in `po` — resuming where
    /// the last pass ended when that yields the same order — and report
    /// whether it still verifies.  A failed pass clears the state, so the
    /// next one starts from vertex 0.
    pub(crate) fn certify(&mut self, po: &TxnPartialOrder) -> bool {
        let from = self.order.len();
        let resumes = po.edge_log()[self.edges..].iter().all(|&(_, b)| b as usize >= from)
            && po.hints[from..].iter().all(|&h| h >= self.max_hint);
        if !resumes {
            self.restarts += 1;
            self.clear();
        }
        let from = self.order.len();
        let Some(tail) = po.base.topo_order_by(&po.hints, from as u32) else {
            self.clear();
            return false;
        };
        self.placed += (po.len() - from.max(1)) as u64;
        if !verify_serial_order(po, &mut self.last_writer, &tail) {
            self.clear();
            return false;
        }
        self.max_hint = po.hints[from..].iter().fold(self.max_hint, |m, &h| m.max(h));
        self.order.extend_from_slice(&tail);
        self.edges = po.edge_log().len();
        true
    }

    fn clear(&mut self) {
        self.order.clear();
        self.last_writer.fill(ROOT);
        self.edges = 0;
        self.max_hint = 0;
    }
}

/// Verify a candidate order (dense indices, `ROOT` anywhere-first) against
/// reads-last-write semantics, continuing from the versions in `last_writer`
/// and leaving them as `order` does — one O(order) pass.
fn verify_serial_order(po: &TxnPartialOrder, last_writer: &mut [u32], order: &[u32]) -> bool {
    for &t in order {
        if t == ROOT {
            continue;
        }
        if !po.reads(t).iter().all(|&(var, src)| last_writer[var as usize] == src) {
            return false;
        }
        for &var in po.writes(t) {
            last_writer[var as usize] = t;
        }
    }
    true
}

/// The generic memoized backtracking engine over an abstract vertex space.
///
/// `Model` supplies the per-vertex feasibility test and the apply/undo pair;
/// the engine owns precedence counting (over `succs`/`preds` adjacency),
/// candidate ordering by hint, Zobrist memoization and the state budget.
trait Model {
    /// May `v` be placed now?
    fn allowed(&self, v: u32) -> bool;
    /// Place `v`.
    fn apply(&mut self, v: u32);
    /// Undo the most recent placement of `v`.
    fn undo(&mut self, v: u32);
}

/// A successor enumerator: calls the sink once per successor of the vertex,
/// without allocating (the hot path of the backtracking engine).
type SuccFn<'a> = &'a dyn Fn(u32, &mut dyn FnMut(u32));

struct Dfs<'a> {
    succs: SuccFn<'a>,
    hints: Vec<u64>,
    n_to_place: usize,
    budget: u64,
}

struct Frame {
    candidates: Vec<u32>,
    next: usize,
    placed: Option<u32>,
}

impl Dfs<'_> {
    fn run(&self, model: &mut dyn Model, initial: Vec<u32>, indegree: &mut [u32]) -> Search {
        let mut first = initial;
        first.sort_by_key(|&v| self.hints[v as usize]);
        let mut frames = vec![Frame { candidates: first, next: 0, placed: None }];
        let mut order: Vec<u32> = Vec::with_capacity(self.n_to_place);
        let mut seen: HashSet<u128> = HashSet::new();
        let mut hash: u128 = 0;
        let mut states: u64 = 0;

        while let Some(frame) = frames.last_mut() {
            if order.len() == self.n_to_place {
                return Search::Order(order);
            }
            let mut advanced = false;
            while frame.next < frame.candidates.len() {
                let v = frame.candidates[frame.next];
                frame.next += 1;
                if !model.allowed(v) {
                    continue;
                }
                let candidate_hash = hash ^ zobrist(u64::from(v));
                if !seen.insert(candidate_hash) {
                    continue; // an equal placed set was already fully explored
                }
                states += 1;
                if states > self.budget {
                    return Search::Exhausted { states };
                }
                hash = candidate_hash;
                model.apply(v);
                order.push(v);
                let mut next_candidates: Vec<u32> =
                    frame.candidates.iter().copied().filter(|&u| u != v).collect();
                (self.succs)(v, &mut |b| {
                    indegree[b as usize] -= 1;
                    if indegree[b as usize] == 0 {
                        next_candidates.push(b);
                    }
                });
                next_candidates.sort_by_key(|&u| self.hints[u as usize]);
                frames.push(Frame { candidates: next_candidates, next: 0, placed: Some(v) });
                advanced = true;
                break;
            }
            if !advanced {
                let done = frames.pop().expect("loop guard ensures a frame");
                if let Some(v) = done.placed {
                    order.pop();
                    hash ^= zobrist(u64::from(v));
                    model.undo(v);
                    (self.succs)(v, &mut |b| indegree[b as usize] += 1);
                }
            }
        }
        Search::NoOrder
    }
}

struct SerModel<'a> {
    versions: VersionState<'a>,
    undo_logs: Vec<WriteUndo>,
}

impl Model for SerModel<'_> {
    fn allowed(&self, v: u32) -> bool {
        self.versions.reads_current(v) && self.versions.writes_unblocked(v)
    }

    fn apply(&mut self, v: u32) {
        self.versions.apply_reads(v);
        let undo = self.versions.apply_writes(v);
        self.undo_logs.push(undo);
    }

    fn undo(&mut self, v: u32) {
        let undo = self.undo_logs.pop().expect("one undo log per placement");
        self.versions.undo_writes(undo);
        self.versions.undo_reads(v);
    }
}

/// Search for a serializable commit order extending the saturated constraints.
pub fn search_serializable(
    po: &TxnPartialOrder,
    sat: &Saturated,
    n_vars: usize,
    budget: u64,
) -> Search {
    let topo = sat.topo(po);
    if verify_serial_order(po, &mut vec![ROOT; n_vars], topo) {
        return Search::Order(topo.iter().copied().filter(|&t| t != ROOT).collect());
    }

    let n = po.len();
    let mut indegree = vec![0u32; n];
    for v in 0..n as u32 {
        for &b in sat.graph.neighbors(v) {
            indegree[b as usize] += 1;
        }
    }
    // Pre-place the initial transaction.
    let mut initial: Vec<u32> = Vec::new();
    for &b in sat.graph.neighbors(ROOT) {
        indegree[b as usize] -= 1;
        if indegree[b as usize] == 0 {
            initial.push(b);
        }
    }
    let mut model = SerModel { versions: VersionState::new(po, n_vars), undo_logs: Vec::new() };
    let succs = |v: u32, f: &mut dyn FnMut(u32)| {
        for &b in sat.graph.neighbors(v) {
            f(b);
        }
    };
    let dfs = Dfs { succs: &succs, hints: po.hints.clone(), n_to_place: n - 1, budget };
    dfs.run(&mut model, initial, &mut indegree)
}

/// Split-vertex encoding for the snapshot-isolation search: vertex `2t` is
/// transaction `t`'s snapshot (read) point, `2t + 1` its commit (write) point.
fn read_point(t: u32) -> u32 {
    2 * t
}
fn write_point(t: u32) -> u32 {
    2 * t + 1
}
fn txn_of(v: u32) -> u32 {
    v / 2
}
fn is_write_point(v: u32) -> bool {
    v % 2 == 1
}

struct SiModel<'a> {
    versions: VersionState<'a>,
    undo_logs: Vec<WriteUndo>,
    /// var → a transaction is "open" (snapshot taken, commit pending) that
    /// writes this var.  First-committer-wins: two such transactions may
    /// never be open at once, and a snapshot may not be taken while a
    /// conflicting writer is open.
    open_writer: Vec<bool>,
    /// Enforce first-committer-wins (`true` = snapshot isolation, `false` =
    /// prefix consistency, which admits overlapping writers).
    first_committer_wins: bool,
}

impl Model for SiModel<'_> {
    fn allowed(&self, v: u32) -> bool {
        let t = txn_of(v);
        if is_write_point(v) {
            self.versions.writes_unblocked(t)
        } else {
            let unopened = |&var: &u32| !self.open_writer[var as usize];
            self.versions.reads_current(t)
                && (!self.first_committer_wins || self.versions.writes(t).iter().all(unopened))
        }
    }

    fn apply(&mut self, v: u32) {
        let t = txn_of(v);
        if is_write_point(v) {
            let undo = self.versions.apply_writes(t);
            self.undo_logs.push(undo);
            for &var in self.versions.writes(t) {
                self.open_writer[var as usize] = false;
            }
        } else {
            self.versions.apply_reads(t);
            for &var in self.versions.writes(t) {
                self.open_writer[var as usize] = true;
            }
        }
    }

    fn undo(&mut self, v: u32) {
        let t = txn_of(v);
        if is_write_point(v) {
            let undo = self.undo_logs.pop().expect("one undo log per write point");
            self.versions.undo_writes(undo);
            for &var in self.versions.writes(t) {
                self.open_writer[var as usize] = true;
            }
        } else {
            self.versions.undo_reads(t);
            for &var in self.versions.writes(t) {
                self.open_writer[var as usize] = false;
            }
        }
    }
}

/// Search for a snapshot-isolation commit order extending the saturated
/// constraints.  On success the returned order lists commit (write) points.
pub fn search_snapshot_isolation(
    po: &TxnPartialOrder,
    sat: &Saturated,
    n_vars: usize,
    budget: u64,
) -> Search {
    search_split(po, sat, n_vars, budget, true)
}

/// Search for a **prefix-consistent** commit order: the snapshot-isolation
/// split-vertex search minus first-committer-wins, so overlapping writers of
/// the same variable are admitted (lost updates pass, long forks still fail)
/// and saturation's derived edges order commits only, as in the solver's
/// encoding (`sat_bridge`'s commit edges; Biswas & Enea's `CommitOrder`).
pub fn search_prefix(po: &TxnPartialOrder, sat: &Saturated, n_vars: usize, budget: u64) -> Search {
    search_split(po, sat, n_vars, budget, false)
}

fn search_split(
    po: &TxnPartialOrder,
    sat: &Saturated,
    n_vars: usize,
    budget: u64,
    first_committer_wins: bool,
) -> Search {
    // Fast path: if the hint-ordered topological order admits per-transaction
    // snapshot points, it *is* an SI witness and no search runs (the MVCC
    // backend's recording order verifies by construction).
    let topo = sat.topo(po);
    if verify_split_order(po, sat, topo, first_committer_wins) {
        return Search::Order(topo.iter().copied().filter(|&t| t != ROOT).collect());
    }
    let n = po.len();
    // Split-vertex precedence: every transaction's snapshot precedes its
    // commit, and a base (`so ∪ wr`) edge a → b is visibility, W(a) → R(b).
    // An edge only saturation derived orders the two *commits*: under
    // first-committer-wins the later writer must also see the earlier one,
    // so it stays W(a) → R(b); under Prefix, whose witness is a plain commit
    // order, it is W(a) → W(b) and b's snapshot may predate a's commit (a
    // long-running b).
    let point_after = |a: u32, b: u32| {
        if first_committer_wins || po.has_edge(a, b) {
            read_point(b)
        } else {
            write_point(b)
        }
    };
    // The points after each commit, resolved once: the search enumerates
    // them at every step.
    let mut after_starts = Vec::with_capacity(n + 1);
    let mut after = Vec::with_capacity(sat.graph.edge_count());
    for a in 0..n as u32 {
        after_starts.push(after.len());
        after.extend(sat.graph.neighbors(a).iter().map(|&b| point_after(a, b)));
    }
    after_starts.push(after.len());
    let points_after = |a: u32| &after[after_starts[a as usize]..after_starts[a as usize + 1]];
    let mut indegree = vec![0u32; 2 * n];
    for a in 0..n as u32 {
        indegree[write_point(a) as usize] += 1; // from R(a)
        for &p in points_after(a) {
            indegree[p as usize] += 1;
        }
    }
    indegree[write_point(ROOT) as usize] -= 1;
    // Pre-place the initial transaction.  A commit point it releases still
    // waits for its own snapshot, so only snapshots can become ready here.
    let mut initial: Vec<u32> = Vec::new();
    for &p in points_after(ROOT) {
        indegree[p as usize] -= 1;
        if indegree[p as usize] == 0 {
            initial.push(p);
        }
    }
    let mut split_hints = vec![0u64; 2 * n];
    for t in 0..n {
        split_hints[2 * t] = 2 * po.hints[t];
        split_hints[2 * t + 1] = 2 * po.hints[t] + 1;
    }
    let mut model = SiModel {
        versions: VersionState::new(po, n_vars),
        undo_logs: Vec::new(),
        open_writer: vec![false; n_vars],
        first_committer_wins,
    };
    let succs = |v: u32, f: &mut dyn FnMut(u32)| {
        if is_write_point(v) {
            for &p in points_after(txn_of(v)) {
                f(p);
            }
        } else {
            f(write_point(txn_of(v)));
        }
    };
    let dfs = Dfs { succs: &succs, hints: split_hints, n_to_place: 2 * (n - 1), budget };
    match dfs.run(&mut model, initial, &mut indegree) {
        Search::Order(split) => {
            Search::Order(split.into_iter().filter(|&v| is_write_point(v)).map(txn_of).collect())
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::AuditHistory;
    use crate::saturation::check_causal;

    fn solve(h: &AuditHistory) -> (Search, Search) {
        let po = TxnPartialOrder::build(h).unwrap();
        let sat = check_causal(&po).expect("causal holds for these scenarios");
        let ser = search_serializable(&po, &sat, h.n_vars, DEFAULT_STATE_BUDGET);
        let si = search_snapshot_isolation(&po, &sat, h.n_vars, DEFAULT_STATE_BUDGET);
        (ser, si)
    }

    /// Sequential handoff across sessions: serializable, and the witness is
    /// the forced order.
    #[test]
    fn clean_handoff_is_serializable() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 1)], [(0, 2)]);
        let (ser, si) = solve(&h);
        assert_eq!(ser, Search::Order(vec![1, 2]));
        assert_eq!(si, Search::Order(vec![1, 2]));
    }

    /// The classic lost update: both the polynomial rule and the search
    /// refute it, for SER and SI alike.
    #[test]
    fn lost_update_is_neither_serializable_nor_si() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 0)], [(0, 2)]);
        let po = TxnPartialOrder::build(&h).unwrap();
        let lu = find_lost_update(&po).expect("rule fires");
        assert_eq!(lu.var, 0);
        assert_eq!(lu.source, ROOT);
        assert!(lu.render(&po).contains("lost update on v0"));
        let (ser, si) = solve(&h);
        assert_eq!(ser, Search::NoOrder);
        assert_eq!(si, Search::NoOrder);
    }

    /// Write skew: T1 reads x writes y, T2 reads y writes x, both from the
    /// initial snapshot.  SI admits it; serializability does not.  This is
    /// the separating pair for the two searches.
    #[test]
    fn write_skew_separates_si_from_serializability() {
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 0)], [(1, 10)]); // reads x=init, writes y
        h.push_txn(1, [(1, 0)], [(0, 20)]); // reads y=init, writes x
        let po = TxnPartialOrder::build(&h).unwrap();
        assert_eq!(find_lost_update(&po), None, "write skew is not a lost update");
        let (ser, si) = solve(&h);
        assert_eq!(ser, Search::NoOrder, "write skew is not serializable");
        assert!(matches!(si, Search::Order(_)), "write skew is SI: {si:?}");
    }

    /// The polynomial refutation catches the same write skew the search
    /// refutes — with a cycle witness and in O(history), which is what keeps
    /// live SI/SER separations decidable at real run sizes.
    #[test]
    fn same_source_skew_rule_refutes_write_skew_polynomially() {
        // The canonical skew: both read {x, y} from the initial snapshot,
        // T1 writes x, T2 writes y.
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 0), (1, 0)], [(0, 10)]);
        h.push_txn(1, [(0, 0), (1, 0)], [(1, 20)]);
        let po = TxnPartialOrder::build(&h).unwrap();
        assert_eq!(find_lost_update(&po), None);
        let sat = check_causal(&po).expect("write skew is causal");
        let cycle = find_same_source_skew(&po, &sat).expect("the rule must fire");
        assert!(cycle.len() >= 3, "a cycle has at least two distinct vertices: {cycle:?}");
        assert_eq!(cycle.first(), cycle.last());
        // SI is untouched by the rule: the search still finds an order.
        let si = search_snapshot_isolation(&po, &sat, 2, DEFAULT_STATE_BUDGET);
        assert!(matches!(si, Search::Order(_)), "{si:?}");
    }

    /// The rule stays silent on serializable histories and on anomalies it
    /// does not cover (long fork), so it can never convict a clean backend.
    #[test]
    fn same_source_skew_rule_has_no_false_positives() {
        // Serializable handoff.
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 1)], [(0, 2)]);
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        assert_eq!(find_same_source_skew(&po, &sat), None);

        // Same-source readers where the writer is forced *after* the plain
        // reader anyway: the forced edge already exists, no cycle.
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 0)], []); // plain reader of x=init
        h.push_txn(1, [(0, 0)], [(0, 5)]); // RMW of x from init
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        assert_eq!(find_same_source_skew(&po, &sat), None, "a single rw edge is not a cycle");

        // Long fork fails SI but is not a same-source skew.
        let mut h = AuditHistory::new(2, 0, 4);
        h.push_txn(0, [], [(0, 1)]);
        h.push_txn(1, [], [(1, 1)]);
        h.push_txn(2, [(0, 1), (1, 0)], []);
        h.push_txn(3, [(0, 0), (1, 1)], []);
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        assert_eq!(find_same_source_skew(&po, &sat), None, "long fork is out of scope");
    }

    /// The SI fast path: sound on witnesses (write skew in recording order
    /// verifies), conservative on violations (long fork must not verify).
    #[test]
    fn si_order_verification_accepts_skew_and_rejects_long_fork() {
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 0), (1, 0)], [(0, 10)]);
        h.push_txn(1, [(0, 0), (1, 0)], [(1, 20)]);
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        assert!(verify_si_order(&po, &sat, sat.topo(&po)), "write skew verifies in hint order");

        let mut h = AuditHistory::new(2, 0, 4);
        h.push_txn(0, [], [(0, 1)]);
        h.push_txn(1, [], [(1, 1)]);
        h.push_txn(2, [(0, 1), (1, 0)], []);
        h.push_txn(3, [(0, 0), (1, 1)], []);
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        assert!(!verify_si_order(&po, &sat, sat.topo(&po)), "long fork must never verify");
        // And the full search agrees (fast path bypassed, DFS refutes).
        assert_eq!(search_snapshot_isolation(&po, &sat, 2, DEFAULT_STATE_BUDGET), Search::NoOrder);
    }

    /// Long-fork (two observers disagreeing on the order of two independent
    /// writes) passes causal but fails SI.
    #[test]
    fn long_fork_fails_si() {
        let mut h = AuditHistory::new(2, 0, 4);
        h.push_txn(0, [], [(0, 1)]); // W x
        h.push_txn(1, [], [(1, 1)]); // W y
        h.push_txn(2, [(0, 1), (1, 0)], []); // sees x, not y
        h.push_txn(3, [(0, 0), (1, 1)], []); // sees y, not x
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).expect("long fork is causal");
        let si = search_snapshot_isolation(&po, &sat, 2, DEFAULT_STATE_BUDGET);
        assert_eq!(si, Search::NoOrder, "long fork must not be SI");
        let ser = search_serializable(&po, &sat, 2, DEFAULT_STATE_BUDGET);
        assert_eq!(ser, Search::NoOrder);
    }

    /// A hint order that deliberately contradicts the data flow still
    /// produces a valid witness via the DFS (fast path fails, search
    /// succeeds).
    #[test]
    fn search_recovers_from_misleading_hints() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 1)], [(0, 2)]);
        // Swap the hints so recording order contradicts the wr edge.
        h.sessions[0][0].hint = 9;
        h.sessions[1][0].hint = 1;
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        let ser = search_serializable(&po, &sat, 1, DEFAULT_STATE_BUDGET);
        assert_eq!(ser, Search::Order(vec![1, 2]), "wr edge forces the true order");
    }

    /// Prefix sits strictly between Causal and SI: it admits the lost update
    /// (no first-committer-wins) but still refutes the long fork (reads must
    /// come from one order's prefix).
    #[test]
    fn prefix_admits_lost_update_but_rejects_long_fork() {
        // Lost update: both RMW x from the initial version.
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(0, [(0, 0)], [(0, 1)]);
        h.push_txn(1, [(0, 0)], [(0, 2)]);
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        let prefix = search_prefix(&po, &sat, 1, DEFAULT_STATE_BUDGET);
        assert!(matches!(prefix, Search::Order(_)), "prefix admits lost updates: {prefix:?}");
        assert_eq!(search_snapshot_isolation(&po, &sat, 1, DEFAULT_STATE_BUDGET), Search::NoOrder);

        // Long fork: opposite observation orders cannot share a prefix.
        let mut h = AuditHistory::new(2, 0, 4);
        h.push_txn(0, [], [(0, 1)]);
        h.push_txn(1, [], [(1, 1)]);
        h.push_txn(2, [(0, 1), (1, 0)], []);
        h.push_txn(3, [(0, 0), (1, 1)], []);
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        assert!(!verify_prefix_order(&po, &sat, sat.topo(&po)), "fast path must not verify");
        assert_eq!(search_prefix(&po, &sat, 2, DEFAULT_STATE_BUDGET), Search::NoOrder);
    }

    /// SI pass implies prefix pass on the separating scenarios (hierarchy
    /// sanity: SER ⊆ SI ⊆ Prefix).
    #[test]
    fn si_witnesses_are_prefix_witnesses() {
        let mut h = AuditHistory::new(2, 0, 2);
        h.push_txn(0, [(0, 0), (1, 0)], [(0, 10)]);
        h.push_txn(1, [(0, 0), (1, 0)], [(1, 20)]);
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        assert!(
            verify_prefix_order(&po, &sat, sat.topo(&po)),
            "write skew verifies for prefix too"
        );
        assert!(matches!(search_prefix(&po, &sat, 2, DEFAULT_STATE_BUDGET), Search::Order(_)));
    }

    /// An absurdly small budget reports exhaustion rather than a verdict.
    #[test]
    fn budget_exhaustion_is_reported_not_decided() {
        let mut h = AuditHistory::new(4, 0, 4);
        // Four independent read-modify-writes on distinct vars, then a
        // misleading-hint conflict to force backtracking work.
        for s in 0..4usize {
            h.push_txn(s, [(s, 0)], [(s, 100 + s as i64)]);
        }
        h.push_txn(0, [(1, 0)], []); // stale read of v1 → hint order invalid
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        match search_serializable(&po, &sat, 4, 1) {
            Search::Exhausted { states } => assert!(states >= 1),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    /// What one step of the random growth below appended.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Step {
        Txn,
        Detached,
        Evicted,
        Defect,
    }

    /// What the random growth exercised, for its coverage floors.
    #[derive(Debug, Default)]
    struct Seen {
        resumed: u32,
        resumed_at_equal_hint: u32,
        parked_restarts: u32,
        detached_restarts: u32,
        evicted_restarts: u32,
        cyclic: u32,
        contradicted: u32,
        defects: u32,
    }

    /// The resumable verify-first pass against the definition it shortcuts:
    /// after every extend of a seeded random growth, the carried
    /// [`HintOrder`] gives exactly the verdict and order of a fresh
    /// [`certify_hint_order`] over the same partial order.  The growth parks
    /// reads on writers that arrive later, detaches stand-ins with older
    /// hints, adds evicted stand-ins at hint 0, repeats hints, closes base
    /// cycles and breaks the recording contract; the floors keep every
    /// restart cause exercised.
    #[test]
    fn resumed_certification_matches_a_fresh_pass() {
        use crate::history::{AuditTxn, TxnId};
        use crate::po::EVICTED_SESSION;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut seen = Seen::default();
        for seed in 0..1_000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n_vars, sessions) = (rng.gen_range(1..=4usize), rng.gen_range(1..=3usize));
            let mut po = TxnPartialOrder::new(n_vars, 0);
            let mut carried = HintOrder::new(n_vars);
            // Per variable: the values written so far (the latest last), and
            // the values read before anyone wrote them.
            let mut written: Vec<Vec<i64>> = vec![Vec::new(); n_vars];
            let mut promised: Vec<Vec<i64>> = vec![Vec::new(); n_vars];
            let (mut next, mut hint, mut seq) = (1i64, 0u64, 0usize);
            for _ in 0..rng.gen_range(4..40) {
                let step = match rng.gen_range(0..100u32) {
                    0..=7 => Step::Detached,
                    8..=12 => Step::Evicted,
                    13..=15 => Step::Defect,
                    _ => Step::Txn,
                };
                let mut txn = AuditTxn::default();
                if step == Step::Txn {
                    for var in 0..n_vars {
                        if !rng.gen_bool(0.4) {
                            continue;
                        }
                        let value = match rng.gen_range(0..10u32) {
                            0 | 1 => {
                                promised[var].push(next);
                                next += 1;
                                next - 1
                            }
                            2 if !written[var].is_empty() => {
                                written[var][rng.gen_range(0..written[var].len())]
                            }
                            _ => written[var].last().copied().unwrap_or(0),
                        };
                        txn.reads.push((var, value));
                    }
                }
                if step != Step::Defect {
                    let only = rng.gen_range(0..n_vars);
                    for var in 0..n_vars {
                        let writes = match step {
                            Step::Evicted => var == only,
                            _ => rng.gen_bool(0.4),
                        };
                        if !writes {
                            continue;
                        }
                        // A promised value resolves the reads parked on it.
                        let value = match promised[var].len() {
                            0 => None,
                            n if rng.gen_bool(0.6) => Some(promised[var].swap_remove(n - 1)),
                            _ => None,
                        };
                        let value = value.unwrap_or_else(|| {
                            next += 1;
                            next - 1
                        });
                        written[var].push(value);
                        txn.writes.push((var, value));
                    }
                }
                let extended = match step {
                    Step::Txn | Step::Defect => {
                        if step == Step::Defect {
                            let var = rng.gen_range(0..n_vars);
                            match (rng.gen_range(0..3u32), written[var].first()) {
                                (0, Some(&dup)) => txn.writes.push((var, dup)),
                                (1, _) => txn.writes.push((var, 0)),
                                _ => txn.reads = [(var, 0), (var, next)].into(),
                            }
                        }
                        hint += rng.gen_range(0..=1u64);
                        txn.hint = hint;
                        let session = rng.gen_range(0..sessions);
                        po.extend(TxnId { session, seq }, &txn)
                    }
                    Step::Detached => {
                        txn.hint = rng.gen_range(0..=hint);
                        po.extend_detached(TxnId { session: sessions, seq }, &txn)
                    }
                    Step::Evicted => {
                        po.extend_detached(TxnId { session: EVICTED_SESSION, seq }, &txn)
                    }
                };
                seq += 1;
                if extended.is_err() {
                    seen.defects += 1;
                }

                let from = carried.order.len();
                let into_prefix =
                    po.edge_log()[carried.edges..].iter().any(|&(_, b)| (b as usize) < from);
                let at_max = po.hints[from..].contains(&carried.max_hint);
                let restarts = carried.restarts;
                let verdict = carried.certify(&po);
                let fresh = certify_hint_order(&po);
                assert_eq!(verdict, fresh.is_some(), "seed {seed}");
                if let Some(fresh) = &fresh {
                    assert_eq!(carried.order(), fresh.order(), "seed {seed}");
                }
                if carried.restarts > restarts {
                    match step {
                        _ if into_prefix => seen.parked_restarts += 1,
                        Step::Evicted => seen.evicted_restarts += 1,
                        _ => seen.detached_restarts += 1,
                    }
                } else if from > 0 && verdict {
                    seen.resumed += 1;
                    seen.resumed_at_equal_hint += u32::from(at_max);
                }
                if !verdict {
                    match po.base.topo_order_by(&po.hints, 0) {
                        None => seen.cyclic += 1,
                        Some(_) => seen.contradicted += 1,
                    }
                }
            }
        }
        // About half of what these seeds reach.
        let floors = [
            (seen.resumed, 3_000),
            (seen.resumed_at_equal_hint, 1_500),
            (seen.parked_restarts, 250),
            (seen.detached_restarts, 150),
            (seen.evicted_restarts, 150),
            (seen.cyclic, 1_000),
            (seen.contradicted, 1_000),
            (seen.defects, 300),
        ];
        assert!(floors.iter().all(|&(count, floor)| count >= floor), "{seen:?}");
    }
}
