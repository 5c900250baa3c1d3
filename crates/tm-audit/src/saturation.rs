//! Polynomial-time checkers for the lower half of the hierarchy, by
//! saturation on the transaction partial order (after Biswas & Enea,
//! "On the Complexity of Checking Transactional Consistency", OOPSLA 2019) —
//! run whole or **incrementally**, re-saturating only the frontier new edges
//! touched.
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
//! [`resaturate`] for the first time then, and the edge-log cursor catches it
//! up on everything extended so far.
//!
//! From there the streaming pipeline extends the partial order one commit
//! batch at a time, so rerunning the fixpoint from scratch per batch would be
//! quadratic in the window.  [`resaturate`] instead absorbs only the base
//! edges that appeared since the last call (via
//! [`TxnPartialOrder::edge_log`]) and derives a **dirty variable set**: a new
//! edge `a → b` can only newly fire the rule for variable `x` if some writer
//! of `x` reaches `a` (so its visibility grew) and some reader of `x` is
//! reachable from `b`.  Ancestor /
//! descendant marks from one DFS per new edge make that test cheap, and only
//! dirty variables are re-scanned; edges derived in a round mark their own
//! dirty variables for the next round, to the same fixpoint the whole-history
//! run reaches (`saturation_is_batch_incremental_agnostic` below checks this
//! on randomized histories).
//!
//! A successful causal check returns the [`Saturated`] order — the input the
//! NP-hard SI/SER searches in [`crate::linearization`] start from.

use crate::digraph::{DiGraph, Reach};
use crate::po::TxnPartialOrder;
use std::collections::BTreeSet;

/// A violation found by a saturation checker: a cycle the commit order would
/// have to contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleViolation {
    /// The offending cycle as dense indices, first == last.
    pub path: Vec<u32>,
}

impl CycleViolation {
    fn from_graph(graph: &DiGraph) -> Self {
        CycleViolation { path: graph.find_cycle().expect("called only when the graph is cyclic") }
    }

    /// Render with history transaction names.
    pub fn render(&self, po: &TxnPartialOrder) -> String {
        format!("commit order must contain the cycle {}", po.render_path(&self.path))
    }
}

/// The saturated constraint system a causally-consistent history induces.
///
/// Holds the private bookkeeping (edge-log cursor, reverse adjacency) that
/// lets [`resaturate`] continue where the previous call stopped.
#[derive(Debug)]
pub struct Saturated {
    /// `so ∪ wr` plus every derived write-write edge (not transitively
    /// closed — linear extensions are unchanged by closure).
    pub graph: DiGraph,
    /// A topological order of [`Self::graph`], hint-ordered.
    pub topo: Vec<u32>,
    /// Strict reachability over [`Self::graph`] (lazy, budget-bounded).
    pub reach: Reach,
    /// Derivation rounds run so far across all [`resaturate`] calls.
    pub rounds: usize,
    /// Cursor into the partial order's base-edge log.
    synced_base_edges: usize,
    /// Reverse adjacency of [`Self::graph`], for ancestor marking.
    rev: Vec<Vec<u32>>,
    /// A cycle was found; every later call reports it again.
    poisoned: bool,
    /// Closure-memory high-water mark across every refresh, including
    /// oracle instances that were since replaced.
    peak_reach_bytes: usize,
}

impl Saturated {
    /// An empty saturation state; [`resaturate`] grows it to match a partial
    /// order.
    pub fn empty() -> Self {
        let graph = DiGraph::new(0);
        let reach = Reach::new(&graph);
        Saturated {
            graph,
            topo: Vec::new(),
            reach,
            rounds: 0,
            synced_base_edges: 0,
            rev: Vec::new(),
            poisoned: false,
            peak_reach_bytes: 0,
        }
    }

    /// The true closure-memory high-water mark over this state's lifetime —
    /// every reachability oracle it ever held, not just the current one.
    pub fn peak_closure_bytes(&self) -> usize {
        self.peak_reach_bytes.max(self.reach.peak_resident_bytes())
    }
}

/// Read Committed: the base relation `so ∪ wr` admits a total commit order.
pub fn check_read_committed(po: &TxnPartialOrder) -> Result<Vec<u32>, CycleViolation> {
    po.base.topo_order_by(&po.hints).ok_or_else(|| CycleViolation::from_graph(&po.base))
}

/// Read Atomic: one derivation pass with direct-edge visibility.
pub fn check_read_atomic(po: &TxnPartialOrder) -> Result<Vec<u32>, CycleViolation> {
    let mut graph = po.base.clone();
    for (var, wr_edges) in po.wr_by_var.iter().enumerate() {
        for &(t1, t3) in wr_edges {
            for &t2 in &po.writers_by_var[var] {
                if t2 != t1 && t2 != t3 && po.base.has_edge(t2, t3) {
                    graph.add_edge(t2, t1);
                }
            }
        }
    }
    graph.topo_order_by(&po.hints).ok_or_else(|| CycleViolation::from_graph(&graph))
}

/// Causal: saturate write-write edges against reachability to a fixpoint.
pub fn check_causal(po: &TxnPartialOrder) -> Result<Saturated, CycleViolation> {
    let mut sat = Saturated::empty();
    resaturate(&mut sat, po)?;
    Ok(sat)
}

/// Absorb everything `po` gained since the last call and re-saturate only the
/// variables the new edges could have affected.  Calling this after every
/// [`TxnPartialOrder::extend`] batch keeps the causal verdict warm as the
/// stream flows; a cycle, once found, is final (the constraint set only ever
/// grows) and is reported again by every later call.
pub fn resaturate(sat: &mut Saturated, po: &TxnPartialOrder) -> Result<(), CycleViolation> {
    if sat.poisoned {
        return Err(CycleViolation::from_graph(&sat.graph));
    }
    while sat.graph.len() < po.len() {
        sat.graph.add_vertex();
        sat.rev.push(Vec::new());
    }
    let synced_from = sat.synced_base_edges;
    sat.synced_base_edges = po.edge_log().len();
    let mut added: Vec<(u32, u32)> = Vec::new();
    for &(a, b) in &po.edge_log()[synced_from..] {
        if sat.graph.add_edge(a, b) {
            sat.rev[b as usize].push(a);
            added.push((a, b));
        }
    }
    if added.is_empty() && sat.topo.len() == sat.graph.len() {
        return Ok(()); // nothing new since the previous fixpoint
    }

    let marks = edge_marks(sat, &added);
    refresh(sat, po, &marks.anc)?;
    let mut dirty = dirty_vars(po, &marks);
    while !dirty.is_empty() {
        sat.rounds += 1;
        let mut derived: Vec<(u32, u32)> = Vec::new();
        for &var in &dirty {
            apply_rule(po, sat, var, &mut derived);
        }
        let mut fresh: Vec<(u32, u32)> = Vec::new();
        for (a, b) in derived {
            if sat.graph.add_edge(a, b) {
                sat.rev[b as usize].push(a);
                fresh.push((a, b));
            }
        }
        if fresh.is_empty() {
            break;
        }
        let marks = edge_marks(sat, &fresh);
        refresh(sat, po, &marks.anc)?;
        dirty = dirty_vars(po, &marks);
    }
    Ok(())
}

/// Recompute the topological order (detecting cycles) and refresh the lazy
/// reachability oracle after the edge set changed, keeping every cached row
/// whose source (`stale[v] == false`) the new edges cannot have affected.
fn refresh(
    sat: &mut Saturated,
    po: &TxnPartialOrder,
    stale: &[bool],
) -> Result<(), CycleViolation> {
    match sat.graph.topo_order_by(&po.hints) {
        Some(topo) => {
            sat.topo = topo;
            sat.peak_reach_bytes = sat.peak_reach_bytes.max(sat.reach.peak_resident_bytes());
            sat.reach.refresh_from(&sat.graph, stale);
            Ok(())
        }
        None => {
            sat.poisoned = true;
            Err(CycleViolation::from_graph(&sat.graph))
        }
    }
}

/// One application of the causal visibility rule for `var`, collecting the
/// write-write edges it forces.
fn apply_rule(po: &TxnPartialOrder, sat: &Saturated, var: u32, out: &mut Vec<(u32, u32)>) {
    let writers = &po.writers_by_var[var as usize];
    for &t1 in writers {
        let readers = match po.readers.get(&(t1, var)) {
            Some(r) => r,
            None => continue,
        };
        for &t2 in writers {
            if t2 == t1 || sat.reach.contains(t2, t1) {
                // Equal, or the conclusion is already implied.
                continue;
            }
            // t2's write of `var` is visible to a reader of t1's write:
            // t2 must commit before t1.
            if readers.iter().any(|&t3| t3 != t2 && sat.reach.contains(t2, t3)) {
                out.push((t2, t1));
            }
        }
    }
}

/// Ancestor marks of a new edge batch's tails and descendant marks of its
/// heads: the exact vertex pairs whose reachability the batch can have
/// created.  The ancestor side doubles as the set of stale reachability
/// rows.
struct EdgeMarks {
    anc: Vec<bool>,
    desc: Vec<bool>,
}

fn edge_marks(sat: &Saturated, edges: &[(u32, u32)]) -> EdgeMarks {
    let n = sat.graph.len();
    let mut anc = vec![false; n];
    let mut desc = vec![false; n];
    for &(a, b) in edges {
        mark(a, &mut anc, |v| &sat.rev[v as usize]);
        mark(b, &mut desc, |v| sat.graph.neighbors(v));
    }
    EdgeMarks { anc, desc }
}

/// The variables whose rule instances a batch of new edges could have
/// enabled: an edge `a → b` only creates reachability from ancestors of `a`
/// (and `a`) to descendants of `b` (and `b`), so `x` needs a writer on the
/// ancestor side and a reader on the descendant side.
fn dirty_vars(po: &TxnPartialOrder, marks: &EdgeMarks) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    for (var, writers) in po.writers_by_var.iter().enumerate() {
        if writers.len() < 2 || po.wr_by_var[var].is_empty() {
            continue;
        }
        if !writers.iter().any(|&w| marks.anc[w as usize]) {
            continue;
        }
        let touched = writers.iter().any(|&w| marks.desc[w as usize])
            || po.wr_by_var[var].iter().any(|&(_, r)| marks.desc[r as usize]);
        if touched {
            out.insert(var as u32);
        }
    }
    out
}

/// DFS-mark `start` and everything reachable through `next`.
fn mark<'a>(start: u32, marks: &mut [bool], next: impl Fn(u32) -> &'a [u32]) {
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut marks[v as usize], true) {
            continue;
        }
        stack.extend_from_slice(next(v));
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
        assert_eq!(sat.topo.len(), 3);
        assert_eq!(sat.topo[0], 0, "the initial transaction comes first");
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
        let pos = |v: u32| sat.topo.iter().position(|&u| u == v).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(3) && pos(3) < pos(2));
    }

    /// A seeded random workload, saturated whole vs. extended txn-by-txn with
    /// [`resaturate`] after each step: both paths must reach the same
    /// fixpoint (same edges) and the same verdict.
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
                let reads = vec![(v, read)];
                let writes = if rng.gen_bool(0.6) {
                    values[v].push(next);
                    next += 1;
                    vec![(v, next - 1)]
                } else {
                    vec![]
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
                    assert_eq!(
                        b.graph.edge_count(),
                        sat.graph.edge_count(),
                        "seed {seed}: fixpoints differ"
                    );
                    for v in 0..b.graph.len() as u32 {
                        for &w in b.graph.neighbors(v) {
                            assert!(sat.graph.has_edge(v, w), "seed {seed}: missing {v}→{w}");
                        }
                    }
                }
                (Err(_), Err(_)) => {}
                other => panic!("seed {seed}: batch and incremental verdicts differ: {other:?}"),
            }
        }
    }
}
