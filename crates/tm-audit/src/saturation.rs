//! Polynomial-time checkers for the lower half of the hierarchy, by
//! saturation on the transaction partial order (after Biswas & Enea,
//! "On the Complexity of Checking Transactional Consistency", OOPSLA 2019) —
//! run whole or **incrementally**, absorbing only the base edges that are new.
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
//!
//! Visibility is answered from **chain clocks**, not a closure.  Every
//! transaction sits at a position of a chain (its session, or a chain of one
//! for a detached stand-in — [`TxnPartialOrder::chain_pos`]), consecutive
//! members of a chain are joined by a base edge, so the members of chain `c`
//! that reach a vertex `v` are a prefix of `c` and one number describes them:
//! `clocks[v][c]`, the last position of `c` that reaches `v`.  The table is
//! `V · k` words for `k` chains (a handful of sessions plus the window's
//! detached stand-ins) and is refilled by one sweep over the topological
//! order that each round's cycle check computes anyway; "`a` reaches `b`" is
//! then `clocks[b][chain(a)] ≥ pos(a)`.
//!
//! The rule is applied per (read source, chain) instead of per writer pair:
//! for the readers of `t1`'s write of `x`, only the *last* writer of `x` in
//! each chain that any of them sees can need a new edge — earlier writers of
//! the chain already reach it.  The derived edge set is therefore smaller
//! than the textbook one but has the same transitive closure after every
//! round, so the rounds, the cycle check and every consumer of the
//! [`Saturated`] order (all of which only ask for linear extensions) see the
//! same constraints.  A round costs `O((V + E + reads + W log W) · k)`.
//!
//! A successful causal check returns the [`Saturated`] order — the input the
//! NP-hard SI/SER searches in [`crate::linearization`] start from.

use crate::digraph::DiGraph;
use crate::po::{TxnPartialOrder, ROOT};

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
/// Holds the private bookkeeping (edge-log cursor, chain clocks) that lets
/// [`resaturate`] continue where the previous call stopped.
#[derive(Debug)]
pub struct Saturated {
    /// `so ∪ wr` plus the derived write-write edges (not transitively
    /// closed — linear extensions are unchanged by closure).
    pub graph: DiGraph,
    /// A topological order of [`Self::graph`], hint-ordered.
    pub topo: Vec<u32>,
    /// Derivation rounds run so far across all [`resaturate`] calls.
    pub rounds: usize,
    /// Cursor into the partial order's base-edge log.
    synced_base_edges: usize,
    /// A cycle was found; every later call reports it again.
    poisoned: bool,
    /// `clocks[v * chains + c]`: the last position of chain `c` that strictly
    /// reaches `v` in [`Self::graph`], 0 for none.
    clocks: Vec<u32>,
    /// Chains per row of [`Self::clocks`].
    chains: usize,
}

impl Saturated {
    /// An empty saturation state; [`resaturate`] grows it to match a partial
    /// order.
    pub fn empty() -> Self {
        Saturated {
            graph: DiGraph::new(0),
            topo: Vec::new(),
            rounds: 0,
            synced_base_edges: 0,
            poisoned: false,
            clocks: Vec::new(),
            chains: 0,
        }
    }

    /// Bytes of the chain-clock table — what stands in for a reachability
    /// closure.  Vertices and chains only ever grow, so the current size is
    /// also the high-water mark; 0 until the first [`resaturate`].
    pub fn peak_closure_bytes(&self) -> usize {
        std::mem::size_of_val(self.clocks.as_slice())
    }

    /// Whether `a →⁺ b` in [`Self::graph`], as of the last successful
    /// [`resaturate`] against `po`.
    pub fn reaches(&self, po: &TxnPartialOrder, a: u32, b: u32) -> bool {
        if a == ROOT {
            return b != ROOT; // the initial transaction precedes every chain
        }
        let (chain, pos) = po.chain_pos(a);
        self.clock(b)[chain as usize] >= pos
    }

    fn clock(&self, v: u32) -> &[u32] {
        &self.clocks[v as usize * self.chains..][..self.chains]
    }
}

/// Read Committed: the base relation `so ∪ wr` admits a total commit order.
pub fn check_read_committed(po: &TxnPartialOrder) -> Result<Vec<u32>, CycleViolation> {
    po.base.topo_order_by(&po.hints).ok_or_else(|| CycleViolation::from_graph(&po.base))
}

/// Read Atomic: one derivation pass with direct-edge visibility.
pub fn check_read_atomic(po: &TxnPartialOrder) -> Result<Vec<u32>, CycleViolation> {
    // The writers visible to `t3` are among its base predecessors — a handful
    // — so walk those instead of probing every writer of the variable:
    // `preds[starts[v]..starts[v + 1]]`, ascending like the writer lists.
    let n = po.len();
    let mut starts = vec![0usize; n + 1];
    for v in 0..n as u32 {
        for &b in po.base.neighbors(v) {
            starts[b as usize + 1] += 1;
        }
    }
    for v in 0..n {
        starts[v + 1] += starts[v];
    }
    let mut preds = vec![0u32; starts[n]];
    let mut next = starts.clone();
    for v in 0..n as u32 {
        for &b in po.base.neighbors(v) {
            preds[next[b as usize]] = v;
            next[b as usize] += 1;
        }
    }

    let mut graph = po.base.clone();
    for (var, wr_edges) in po.wr_by_var.iter().enumerate() {
        for &(t1, t3) in wr_edges {
            for &t2 in &preds[starts[t3 as usize]..starts[t3 as usize + 1]] {
                let writes_var = t2 == ROOT || po.writes[t2 as usize].contains(&(var as u32));
                if t2 != t1 && writes_var {
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

/// Absorb everything `po` gained since the last call and saturate again.
/// Calling this after every [`TxnPartialOrder::extend`] batch keeps the
/// causal verdict warm as the stream flows; a cycle, once found, is final
/// (the constraint set only ever grows) and is reported again by every later
/// call.
pub fn resaturate(sat: &mut Saturated, po: &TxnPartialOrder) -> Result<(), CycleViolation> {
    if sat.poisoned {
        return Err(CycleViolation::from_graph(&sat.graph));
    }
    while sat.graph.len() < po.len() {
        sat.graph.add_vertex();
    }
    let synced_from = sat.synced_base_edges;
    sat.synced_base_edges = po.edge_log().len();
    let mut added = false;
    for &(a, b) in &po.edge_log()[synced_from..] {
        added |= sat.graph.add_edge(a, b);
    }
    if !added && sat.topo.len() == sat.graph.len() {
        return Ok(()); // nothing new since the previous fixpoint
    }
    refresh(sat, po)?;

    // The variables the rule can fire on — another writer than the initial
    // transaction, and a read — each as its write-read edges grouped by
    // source and its writers keyed by chain position.
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
    let mut derived: Vec<(u32, u32)> = Vec::new();
    while !scanned.is_empty() {
        sat.rounds += 1;
        apply_rule(po, sat, &scanned, &mut derived);
        if derived.is_empty() {
            break;
        }
        for (a, b) in derived.drain(..) {
            sat.graph.add_edge(a, b);
        }
        refresh(sat, po)?;
    }
    Ok(())
}

/// A non-initial writer of some variable as `((chain, position), vertex)`.
type ChainWriter = ((u32, u32), u32);

/// One variable as the rule scans it: its write-read edges sorted by source,
/// and its non-initial writers sorted by chain position.
type ScannedVar = (Vec<(u32, u32)>, Vec<ChainWriter>);

/// Recompute the topological order (detecting cycles) and, along it, the
/// chain clocks after the edge set changed.
fn refresh(sat: &mut Saturated, po: &TxnPartialOrder) -> Result<(), CycleViolation> {
    let Some(topo) = sat.graph.topo_order_by(&po.hints) else {
        sat.poisoned = true;
        return Err(CycleViolation::from_graph(&sat.graph));
    };
    let k = po.chains();
    sat.chains = k;
    sat.clocks.clear();
    sat.clocks.resize(sat.graph.len() * k, 0);
    // Every predecessor of `v` comes before it in `topo`, so `v`'s row is
    // final when it is pushed on to `v`'s successors — with `v` itself added.
    let mut row = vec![0u32; k];
    for &v in &topo {
        if v == ROOT {
            continue; // in no chain, reached by nothing
        }
        row.copy_from_slice(sat.clock(v));
        let (chain, pos) = po.chain_pos(v);
        row[chain as usize] = pos;
        for &w in sat.graph.neighbors(v) {
            let successor = &mut sat.clocks[w as usize * k..][..k];
            for (seen, &from_v) in successor.iter_mut().zip(&row) {
                *seen = (*seen).max(from_v);
            }
        }
    }
    sat.topo = topo;
    Ok(())
}

/// One application of the causal visibility rule to every scanned variable,
/// collecting the write-write edges it forces: per read source `t1` and
/// chain, the last writer of the variable in the chain that some reader of
/// `t1` sees must commit before `t1`.  Earlier writers of the chain follow
/// through the chain's own edges.
fn apply_rule(
    po: &TxnPartialOrder,
    sat: &Saturated,
    scanned: &[ScannedVar],
    out: &mut Vec<(u32, u32)>,
) {
    let mut seen = vec![0u32; sat.chains];
    for (reads, writers) in scanned {
        for readers in reads.chunk_by(|a, b| a.0 == b.0) {
            let t1 = readers[0].0;
            seen.fill(0);
            for &(_, t3) in readers {
                for (upto, &c) in seen.iter_mut().zip(sat.clock(t3)) {
                    *upto = (*upto).max(c);
                }
            }
            for (chain, &upto) in seen.iter().enumerate() {
                let visible = writers.partition_point(|&(at, _)| at <= (chain as u32, upto));
                let Some(&((c, _), t2)) = visible.checked_sub(1).map(|last| &writers[last]) else {
                    continue;
                };
                // `t2 == t1`, or `t2` already before `t1`: nothing to add.
                if c as usize == chain && t2 != t1 && !sat.reaches(po, t2, t1) {
                    out.push((t2, t1));
                }
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
        let mut graph = po.base.clone();
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

    /// Chain clocks against brute force.  Random partial orders — 3–6
    /// sessions, detached stand-ins under real and `past?n` identities,
    /// reads parked on a writer that arrives later — grown a few
    /// transactions at a time: after every [`resaturate`] the clocks answer
    /// every pair as a DFS over the saturated graph does, and the final
    /// verdict and closure are the reference fixpoint's.
    #[test]
    fn chain_clocks_agree_with_brute_force_reachability() {
        use crate::history::{AccessSet, AuditTxn};
        use crate::po::EVICTED_SESSION;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut acyclic, mut derived, mut parked) = (0, 0, 0);
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
            let mut seqs = vec![0usize; sessions];
            let mut verdict = Ok(());
            let mut i = 0;
            while i < n && verdict.is_ok() {
                for i in i..n.min(i + rng.gen_range(1..=4usize)) {
                    let mut reads = AccessSet::new();
                    for var in 0..vars {
                        if !rng.gen_bool(0.4) {
                            continue;
                        }
                        // Mostly the latest writer of `var` (the initial
                        // value before any), rarely the one before it,
                        // rarely one still to come.
                        let writes_var = |w: &usize| writes[*w] == Some(var);
                        let writer = (i + 1..n.min(i + 4))
                            .find(|w| rng.gen_bool(0.03) && writes_var(w))
                            .or_else(|| {
                                (0..i).rev().filter(writes_var).nth(usize::from(rng.gen_bool(0.02)))
                            });
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
                i = po.len() - 1;
                verdict = resaturate(&mut sat, &po);
                if verdict.is_ok() {
                    let reach = closure(&sat.graph);
                    for a in 0..po.len() as u32 {
                        for b in 0..po.len() as u32 {
                            assert_eq!(
                                sat.reaches(&po, a, b),
                                reach[a as usize][b as usize],
                                "seed {seed}, {} txns: {a} → {b}",
                                po.len() - 1
                            );
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
                // sees the same prefix, so it must find one too.
                (Err(_), Err(())) => {}
                other => panic!("seed {seed}: verdicts differ: {other:?}"),
            }
        }
        assert!(acyclic >= 30 && derived >= 100 && parked >= 20, "{acyclic} {derived} {parked}");
    }
}
