//! Per-window encoding of the commit-order axioms: a digraph of what is
//! already known, and a boolean only where a disjunction is still open.
//!
//! A window's problem is "find a strict total order of its **points**".
//! Points per level:
//!
//! * **Serializable** — one commit point per transaction.  The read axiom:
//!   for a write-read edge `w →x t` and any other writer `o` of `x`,
//!   `o < w ∨ t < o` (no write may land between a read's source and the
//!   reader).
//! * **SI / Prefix** — the split-vertex encoding: a snapshot point `R(t)` and
//!   a commit point `W(t)` per transaction, `R(t) < W(t)`.  The read axiom
//!   becomes `W(o) < W(w) ∨ R(t) < W(o)`; snapshot isolation additionally
//!   enforces first-committer-wins (`W(t) < R(t') ∨ W(t') < R(t)` for
//!   write-conflicting pairs), and **Prefix Consistency is exactly SI without
//!   that axiom** — each transaction reads a consistent prefix but lost
//!   updates are admitted.
//!
//! Everything forced — [`OrderInstance`]'s edge lists (where saturation
//! stopped), `R(t) < W(t)`, read sources, reads of the initial value — is an
//! edge of the **known digraph**; the two axioms are binary clauses over
//! ordered point pairs.  [`decide`] then works in three steps of rising cost:
//!
//! 1. A cycle in the known digraph is the refutation, named.
//! 2. Each clause literal `i < j` is read against the digraph's reachability
//!    closure (one bit per point pair: 2 MB for a 2 048-transaction split
//!    window): reachable `i ⇝ j` satisfies the clause, `j ⇝ i` falsifies the
//!    literal and makes the other one a known edge, both falsified is a
//!    refutation named by the two paths — repeated to fixpoint.
//! 3. Only the pairs of clauses that survive get a solver variable (encoding
//!    size is Σ over reads of the *unordered* other writers, not points³).
//!    Acyclicity is enforced lazily: solve, orient the pairs as the model
//!    says, and if that closes a cycle with the known edges forbid exactly
//!    that cycle and solve again; any topological order of an acyclic result
//!    is the witness.  Refinements count against the conflict budget, so an
//!    adversarial window still ends in an honest [`OrderVerdict::Unknown`].

use crate::{Lit, SolveOutcome, Solver};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Which level's axioms to encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelSpec {
    /// Prefix consistency: snapshot reads over a commit-order prefix, no
    /// first-committer-wins (lost updates admitted).
    Prefix,
    /// Snapshot isolation: Prefix + first-committer-wins.
    SnapshotIsolation,
    /// Serializability: a single commit point explains every read.
    Serializable,
}

/// A neutral description of one window's commit-order problem.
///
/// Transactions are dense `0..n`, ideally in recording order (it is the
/// order the solver tries first); the initial transaction is *not* a member
/// — reads of the initial value carry `None` as their writer.  `tm-audit`
/// maps its partial order into this shape, keeping this crate
/// dependency-free.
#[derive(Debug, Clone, Default)]
pub struct OrderInstance {
    /// Number of transactions.
    pub n: usize,
    /// Per-transaction external reads: `(variable, writer)`; `None` = the
    /// initial value.
    pub reads: Vec<Vec<(u32, Option<u32>)>>,
    /// Per-transaction written variables.
    pub writes: Vec<Vec<u32>>,
    /// Visibility edges `a → b` (session order ∪ write-read): `a`'s effects
    /// are visible to `b`, i.e. `W(a) < R(b)` in the split encoding.
    pub visibility_edges: Vec<(u32, u32)>,
    /// Derived commit-order edges `a → b` (saturation's ww derivations):
    /// `W(a) < W(b)` — weaker than visibility, still forced.
    pub commit_edges: Vec<(u32, u32)>,
    /// Number of variables (bound on the `u32` variable ids above).
    pub n_vars: usize,
}

/// Solver effort limits for one [`decide`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveConfig {
    /// Budget for CDCL conflicts plus cycle refinements; exhaustion yields
    /// [`OrderVerdict::Unknown`].
    pub conflicts: u64,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig { conflicts: 100_000 }
    }
}

/// What one [`decide`] call built and spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effort {
    /// CDCL conflicts.
    pub conflicts: u64,
    /// Model cycles forbidden and re-solved.
    pub refinements: u64,
    /// Point pairs that needed a solver variable.
    pub pairs: usize,
    /// Clauses the known order left open.
    pub clauses: usize,
}

/// What the solver concluded about one window at one level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderVerdict {
    /// Satisfiable: a commit order (transaction ids, a witness).
    Order {
        /// A valid commit order over `0..n`.
        order: Vec<u32>,
        /// What finding it took.
        effort: Effort,
    },
    /// Unsatisfiable: no commit order exists.
    NoOrder {
        /// The closed cycle of transactions the known order forces, when
        /// the refutation needed no search; empty when it needed learned
        /// clauses.
        cycle: Vec<u32>,
        /// What refuting it took.
        effort: Effort,
    },
    /// The budget ran out before either answer.
    Unknown {
        /// What was spent before giving up.
        effort: Effort,
    },
}

/// "Point `.0` precedes point `.1`".
type Before = (u32, u32);

/// Remove from `alive`, repeatedly, every vertex no alive vertex points at
/// (Kahn's algorithm), lowest index first; the removed vertices in removal
/// order.  Indices follow the recording order, so on an acyclic digraph this
/// is the topological order closest to it.
fn peel(succ: &[Vec<u32>], alive: &mut [bool]) -> Vec<u32> {
    let mut indegree = vec![0u32; succ.len()];
    for (v, out) in succ.iter().enumerate() {
        if alive[v] {
            out.iter().for_each(|&s| indegree[s as usize] += 1);
        }
    }
    let free = |v: &u32| alive[*v as usize] && indegree[*v as usize] == 0;
    let mut ready: BinaryHeap<Reverse<u32>> =
        (0..succ.len() as u32).filter(free).map(Reverse).collect();
    let mut order = Vec::with_capacity(succ.len());
    while let Some(Reverse(v)) = ready.pop() {
        order.push(v);
        alive[v as usize] = false;
        for &s in &succ[v as usize] {
            indegree[s as usize] -= 1;
            if indegree[s as usize] == 0 && alive[s as usize] {
                ready.push(Reverse(s));
            }
        }
    }
    order
}

/// Shortest path `from → … → to` of at least one edge, endpoints included,
/// whose interior stays inside `alive`.
fn path(succ: &[Vec<u32>], alive: &[bool], from: u32, to: u32) -> Option<Vec<u32>> {
    let mut parent = vec![u32::MAX; succ.len()];
    let mut queue = VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        for &s in &succ[v as usize] {
            if s == to {
                let (mut back, mut at) = (vec![to, v], v);
                while at != from {
                    at = parent[at as usize];
                    back.push(at);
                }
                back.reverse();
                return Some(back);
            }
            if alive[s as usize] && s != from && parent[s as usize] == u32::MAX {
                parent[s as usize] = v;
                queue.push_back(s);
            }
        }
    }
    None
}

/// A topological order of the digraph, or its shortest cycle (closed:
/// first = last).  Every cycle has an edge that does not climb `rank`, so
/// only those are tried as the closing edge: with `rank` a topological
/// position of most of the digraph, that is a handful of searches.
fn topo_order(succ: &[Vec<u32>], rank: &[u32]) -> Result<Vec<u32>, Vec<u32>> {
    let mut alive = vec![true; succ.len()];
    let order = peel(succ, &mut alive);
    if order.len() == succ.len() {
        return Ok(order);
    }
    // What merely trails a cycle goes too: the searches stay between cycles.
    let mut pred: Vec<Vec<u32>> = vec![Vec::new(); succ.len()];
    for (v, out) in succ.iter().enumerate() {
        out.iter().for_each(|&s| pred[s as usize].push(v as u32));
    }
    peel(&pred, &mut alive);
    let on = |v: u32| alive[v as usize];
    let closing = (0..succ.len() as u32).filter(|&u| on(u)).flat_map(|u| {
        let falls = move |&&v: &&u32| on(v) && rank[v as usize] <= rank[u as usize];
        succ[u as usize].iter().filter(falls).map(move |&v| (u, v))
    });
    let mut cycle = closing
        .filter_map(|(u, v)| path(succ, &alive, v, u))
        .min_by_key(Vec::len)
        .expect("a digraph Kahn's algorithm cannot finish has a cycle");
    cycle.push(cycle[0]);
    Err(cycle)
}

/// The known order: a digraph over points and, after [`Known::close`], its
/// reachability closure.
struct Known {
    succ: Vec<Vec<u32>>,
    /// Row `i`, bit `j`: a path `i ⇝ j` exists.
    reach: Vec<u64>,
    /// Topological position of each point (its index until the first
    /// [`Known::close`]).
    pos: Vec<u32>,
}

impl Known {
    fn add(&mut self, (i, j): Before) {
        if i != j {
            self.succ[i as usize].push(j);
        }
    }

    fn words(&self) -> usize {
        self.succ.len().div_ceil(64)
    }

    /// Refresh `pos` and `reach`; `Err` carries the shortest cycle.
    fn close(&mut self) -> Result<(), Vec<u32>> {
        let order = topo_order(&self.succ, &self.pos)?;
        let words = self.words();
        self.reach.clear();
        self.reach.resize(self.succ.len() * words, 0);
        let mut row = vec![0u64; words];
        for (at, &v) in order.iter().enumerate().rev() {
            self.pos[v as usize] = at as u32;
            row.fill(0);
            for &s in &self.succ[v as usize] {
                row[s as usize / 64] |= 1 << (s % 64);
                let below = &self.reach[s as usize * words..][..words];
                row.iter_mut().zip(below).for_each(|(r, b)| *r |= b);
            }
            self.reach[v as usize * words..][..words].copy_from_slice(&row);
        }
        Ok(())
    }

    /// What the known order says about a literal, if anything.
    fn value(&self, (i, j): Before) -> Option<bool> {
        let bit = |a: u32, b: u32| {
            (self.reach[a as usize * self.words() + b as usize / 64] >> (b % 64)) & 1 == 1
        };
        if bit(i, j) {
            Some(true)
        } else {
            bit(j, i).then_some(false)
        }
    }
}

/// Writers of each variable, from the instance's write sets.
fn writers_by_var(inst: &OrderInstance) -> Vec<Vec<u32>> {
    let mut writers: Vec<Vec<u32>> = vec![Vec::new(); inst.n_vars];
    for (t, vars) in inst.writes.iter().enumerate().take(inst.n) {
        for &v in vars {
            if let Some(list) = writers.get_mut(v as usize) {
                list.push(t as u32);
            }
        }
    }
    writers
}

/// Decide whether a commit order satisfying `level`'s axioms exists for the
/// window described by `inst`.
pub fn decide(inst: &OrderInstance, level: LevelSpec, cfg: &SolveConfig) -> OrderVerdict {
    let n = inst.n as u32;
    // Points: `R(t)` and `W(t)`, one and the same for serializability.
    let split = level != LevelSpec::Serializable;
    let r = |t: u32| if split { 2 * t } else { t };
    let w = |t: u32| if split { 2 * t + 1 } else { t };
    let txn_of = |p: u32| if split { p / 2 } else { p };
    let points = inst.n * if split { 2 } else { 1 };
    let mut effort = Effort::default();
    // A closed point cycle as the transactions it passes through.
    let no_order = |points: Vec<u32>, effort: Effort| {
        let mut cycle: Vec<u32> = points.into_iter().map(txn_of).collect();
        cycle.dedup();
        if cycle.first() != cycle.last() {
            cycle.push(cycle[0]);
        }
        if cycle.len() <= 2 {
            cycle.clear();
        }
        OrderVerdict::NoOrder { cycle, effort }
    };

    let mut known = Known {
        succ: vec![Vec::new(); points],
        reach: Vec::new(),
        pos: (0..points as u32).collect(),
    };
    let inside = |&&(a, b): &&(u32, u32)| a < n && b < n && a != b;
    (0..n).for_each(|t| known.add((r(t), w(t))));
    inst.visibility_edges.iter().filter(inside).for_each(|&(a, b)| known.add((w(a), r(b))));
    inst.commit_edges.iter().filter(inside).for_each(|&(a, b)| known.add((w(a), w(b))));
    let writers = writers_by_var(inst);
    let mut clauses: Vec<[Before; 2]> = Vec::new();
    for (t, reads) in (0..n).zip(&inst.reads) {
        for &(var, src) in reads {
            let Some(others) = writers.get(var as usize) else { continue };
            let others = others.iter().copied().filter(|&o| o != t);
            match src.filter(|&s| s < n) {
                Some(s) => {
                    known.add((w(s), r(t)));
                    // `o` commits before the source, or after `t`'s snapshot.
                    clauses
                        .extend(others.filter(|&o| o != s).map(|o| [(w(o), w(s)), (r(t), w(o))]));
                }
                // The initial value: every writer commits after the snapshot.
                None => others.for_each(|o| known.add((r(t), w(o)))),
            }
        }
    }
    if level == LevelSpec::SnapshotIsolation {
        // Write-conflicting transactions may not overlap: one's commit
        // precedes the other's snapshot.
        for ws in &writers {
            for (i, &a) in ws.iter().enumerate() {
                clauses.extend(ws[i + 1..].iter().map(|&b| [(w(a), r(b)), (w(b), r(a))]));
            }
        }
    }

    // Settle what the known order settles, to fixpoint.
    loop {
        if let Err(cycle) = known.close() {
            return no_order(cycle, effort);
        }
        let mut forced: Vec<Before> = Vec::new();
        let mut refuted = None;
        clauses.retain(|&[a, b]| match (known.value(a), known.value(b)) {
            (Some(true), _) | (_, Some(true)) => false,
            (Some(false), Some(false)) => {
                refuted.get_or_insert([a, b]);
                false
            }
            (Some(false), None) => {
                forced.push(b);
                false
            }
            (None, Some(false)) => {
                forced.push(a);
                false
            }
            (None, None) => true,
        });
        if let Some([a, b]) = refuted {
            // Both literals false: `a.1 ⇝ a.0` and `b.1 ⇝ b.0`.  For a read
            // clause that is source ⇝ other writer ⇝ reader.
            let all = vec![true; points];
            let mut cycle = path(&known.succ, &all, a.1, a.0).expect("closure said reachable");
            cycle.extend(path(&known.succ, &all, b.1, b.0).expect("closure said reachable"));
            return no_order(cycle, effort);
        }
        if forced.is_empty() {
            break;
        }
        forced.sort_unstable();
        forced.dedup();
        forced.into_iter().for_each(|e| known.add(e));
    }

    // One variable per open pair, keyed with the topologically earlier point
    // first and *false* meaning "in that order": the solver's default phase
    // is then the known order's own extension, which has no cycle.
    let mut ids: HashMap<Before, usize> = HashMap::new();
    let mut pairs: Vec<Before> = Vec::new();
    let cnf: Vec<[Lit; 2]> = clauses
        .iter()
        .map(|&clause| {
            clause.map(|(i, j)| {
                let with = known.pos[i as usize] < known.pos[j as usize];
                let key = if with { (i, j) } else { (j, i) };
                let var = *ids.entry(key).or_insert_with(|| {
                    pairs.push(key);
                    pairs.len() - 1
                });
                if with {
                    Lit::neg(var)
                } else {
                    Lit::pos(var)
                }
            })
        })
        .collect();
    effort.pairs = pairs.len();
    effort.clauses = cnf.len();
    let mut solver = Solver::new(pairs.len());
    cnf.iter().for_each(|c| solver.add_clause(c));
    let budget = cfg.conflicts.max(1);
    loop {
        let outcome = solver.solve(budget - effort.refinements);
        effort.conflicts = solver.stats().conflicts;
        match outcome {
            SolveOutcome::Sat => {}
            SolveOutcome::Unsat => return OrderVerdict::NoOrder { cycle: Vec::new(), effort },
            SolveOutcome::Unknown => return OrderVerdict::Unknown { effort },
        }
        let mut oriented = known.succ.clone();
        for (var, &(i, j)) in pairs.iter().enumerate() {
            let (from, to) = if solver.value(var) { (j, i) } else { (i, j) };
            oriented[from as usize].push(to);
        }
        let cycle = match topo_order(&oriented, &known.pos) {
            Ok(order) => {
                let commits = order.into_iter().filter(|&p| p == w(txn_of(p)));
                return OrderVerdict::Order { order: commits.map(txn_of).collect(), effort };
            }
            Err(cycle) => cycle,
        };
        effort.refinements += 1;
        if effort.conflicts + effort.refinements >= budget {
            return OrderVerdict::Unknown { effort };
        }
        // At least one of the model's edges on the cycle must turn around.
        let turn: Vec<Lit> = cycle
            .windows(2)
            .filter_map(|e| match (ids.get(&(e[0], e[1])), ids.get(&(e[1], e[0]))) {
                (Some(&var), _) => Some(Lit::pos(var)),
                (_, Some(&var)) => Some(Lit::neg(var)),
                _ => None,
            })
            .collect();
        solver.add_clause(&turn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SolveConfig {
        SolveConfig::default()
    }

    /// `a` hands off to `b` through a read: the only valid order is a, b.
    fn handoff() -> OrderInstance {
        OrderInstance {
            n: 2,
            reads: vec![vec![], vec![(0, Some(0))]],
            writes: vec![vec![0], vec![0]],
            visibility_edges: vec![(0, 1)],
            commit_edges: vec![],
            n_vars: 1,
        }
    }

    #[test]
    fn zero_transaction_window_is_trivially_ordered() {
        let inst = OrderInstance::default();
        for level in [LevelSpec::Serializable, LevelSpec::SnapshotIsolation, LevelSpec::Prefix] {
            match decide(&inst, level, &cfg()) {
                OrderVerdict::Order { order, .. } => assert!(order.is_empty()),
                other => panic!("{level:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn handoff_orders_at_every_level() {
        let inst = handoff();
        for level in [LevelSpec::Serializable, LevelSpec::SnapshotIsolation, LevelSpec::Prefix] {
            match decide(&inst, level, &cfg()) {
                OrderVerdict::Order { order, .. } => {
                    assert_eq!(order, vec![0, 1], "{level:?}");
                }
                other => panic!("{level:?}: {other:?}"),
            }
        }
    }

    /// The model decode round-trips: the returned order satisfies every
    /// seeded edge.
    #[test]
    fn model_decode_round_trip_respects_seeded_edges() {
        // A diamond: 0 → {1, 2} → 3, plus reads forcing 1 before 2.
        let inst = OrderInstance {
            n: 4,
            reads: vec![vec![], vec![(0, Some(0))], vec![(1, Some(1))], vec![(2, Some(2))]],
            writes: vec![vec![0], vec![1], vec![2], vec![3]],
            visibility_edges: vec![(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)],
            commit_edges: vec![],
            n_vars: 4,
        };
        for level in [LevelSpec::Serializable, LevelSpec::SnapshotIsolation, LevelSpec::Prefix] {
            let OrderVerdict::Order { order, .. } = decide(&inst, level, &cfg()) else {
                panic!("diamond must order at {level:?}");
            };
            let pos = |t: u32| order.iter().position(|&x| x == t).unwrap();
            for &(a, b) in &inst.visibility_edges {
                assert!(pos(a) < pos(b), "{level:?}: edge {a}→{b} violated by {order:?}");
            }
        }
    }

    /// A planted commit-order cycle is UNSAT with the cycle extracted as the
    /// witness.
    #[test]
    fn planted_cycle_yields_unsat_with_minimal_witness() {
        let inst = OrderInstance {
            n: 3,
            reads: vec![vec![], vec![], vec![]],
            writes: vec![vec![], vec![], vec![]],
            visibility_edges: vec![(0, 1), (1, 2), (2, 0)],
            commit_edges: vec![],
            n_vars: 0,
        };
        for level in [LevelSpec::Serializable, LevelSpec::SnapshotIsolation, LevelSpec::Prefix] {
            let OrderVerdict::NoOrder { cycle, .. } = decide(&inst, level, &cfg()) else {
                panic!("a 3-cycle cannot be ordered ({level:?})");
            };
            assert!(cycle.len() >= 4, "closed cycle through 3 txns: {cycle:?}");
            assert_eq!(cycle.first(), cycle.last());
            let mut interior = cycle[..cycle.len() - 1].to_vec();
            interior.sort_unstable();
            assert_eq!(interior, vec![0, 1, 2], "minimal cycle covers exactly the plant");
        }
    }

    /// The long fork: two independent writers, two readers seeing opposite
    /// orders.  SER, SI *and* Prefix all refute it — this is the anomaly
    /// that separates Prefix from Causal.
    #[test]
    fn long_fork_fails_prefix_si_and_ser() {
        // t0 writes x, t1 writes y, t2 reads x=t0 & y=initial, t3 reads
        // y=t1 & x=initial.
        let inst = OrderInstance {
            n: 4,
            reads: vec![
                vec![],
                vec![],
                vec![(0, Some(0)), (1, None)],
                vec![(1, Some(1)), (0, None)],
            ],
            writes: vec![vec![0], vec![1], vec![], vec![]],
            visibility_edges: vec![(0, 2), (1, 3)],
            commit_edges: vec![],
            n_vars: 2,
        };
        for level in [LevelSpec::Serializable, LevelSpec::SnapshotIsolation, LevelSpec::Prefix] {
            let OrderVerdict::NoOrder { cycle, .. } = decide(&inst, level, &cfg()) else {
                panic!("long fork must fail {level:?}");
            };
            assert!(!cycle.is_empty(), "the long-fork refutation is unit-implied: {level:?}");
        }
    }

    /// Write skew separates the levels: SER refutes, SI and Prefix admit.
    #[test]
    fn write_skew_separates_ser_from_si_and_prefix() {
        let inst = OrderInstance {
            n: 2,
            reads: vec![vec![(0, None), (1, None)], vec![(0, None), (1, None)]],
            writes: vec![vec![0], vec![1]],
            visibility_edges: vec![],
            commit_edges: vec![],
            n_vars: 2,
        };
        assert!(
            matches!(decide(&inst, LevelSpec::Serializable, &cfg()), OrderVerdict::NoOrder { .. }),
            "write skew is not serializable"
        );
        for level in [LevelSpec::SnapshotIsolation, LevelSpec::Prefix] {
            assert!(
                matches!(decide(&inst, level, &cfg()), OrderVerdict::Order { .. }),
                "write skew is admitted at {level:?}"
            );
        }
    }

    /// The lost update separates Prefix from SI: first-committer-wins is the
    /// only axiom it violates.
    #[test]
    fn lost_update_separates_si_from_prefix() {
        let inst = OrderInstance {
            n: 2,
            reads: vec![vec![(0, None)], vec![(0, None)]],
            writes: vec![vec![0], vec![0]],
            visibility_edges: vec![],
            commit_edges: vec![],
            n_vars: 1,
        };
        assert!(
            matches!(
                decide(&inst, LevelSpec::SnapshotIsolation, &cfg()),
                OrderVerdict::NoOrder { .. }
            ),
            "lost update violates first-committer-wins"
        );
        assert!(
            matches!(decide(&inst, LevelSpec::Prefix, &cfg()), OrderVerdict::Order { .. }),
            "prefix consistency admits lost updates"
        );
        assert!(
            matches!(decide(&inst, LevelSpec::Serializable, &cfg()), OrderVerdict::NoOrder { .. }),
            "lost update is not serializable"
        );
    }

    /// Two unordered writers of y (txns 1 and 2), txn 3 session-after txn 1
    /// and reading its y, txn 0 and the y-writers reading each other's
    /// variable at its initial value: the known order settles no SI clause,
    /// and the first model closes a cycle.
    fn unordered_writers() -> OrderInstance {
        OrderInstance {
            n: 4,
            reads: vec![vec![(1, None)], vec![(0, None)], vec![(0, None)], vec![(1, Some(1))]],
            writes: vec![vec![0], vec![1], vec![1], vec![0]],
            visibility_edges: vec![(1, 3)],
            commit_edges: vec![],
            n_vars: 2,
        }
    }

    /// `chains` single-session read-modify-write chains of `len`, each on its
    /// own variable, appended to `inst`.
    fn with_chains(mut inst: OrderInstance, chains: usize, len: usize) -> OrderInstance {
        for _ in 0..chains {
            let var = inst.n_vars as u32;
            inst.n_vars += 1;
            for i in 0..len {
                let t = inst.n as u32;
                inst.n += 1;
                inst.reads.push(vec![(var, (i > 0).then(|| t - 1))]);
                inst.writes.push(vec![var]);
                if i > 0 {
                    inst.visibility_edges.push((t - 1, t));
                }
            }
        }
        inst
    }

    /// Budget exhaustion is an honest Unknown, never a verdict.
    #[test]
    fn conflict_budget_exhaustion_returns_unknown() {
        let inst = unordered_writers();
        let level = LevelSpec::SnapshotIsolation;
        match decide(&inst, level, &SolveConfig { conflicts: 1 }) {
            OrderVerdict::Unknown { effort } => {
                assert!(effort.conflicts + effort.refinements >= 1, "{effort:?}");
                assert!(effort.pairs > 0 && effort.clauses > 0, "{effort:?}");
            }
            other => panic!("{other:?}"),
        }
        let OrderVerdict::Order { order, .. } = decide(&inst, level, &cfg()) else {
            panic!("snapshot-isolated once the solver may refine");
        };
        let pos = |t: u32| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(1) < pos(3), "{order:?}");
    }

    /// A default live window of `generate_hard`'s shape — the fork core plus
    /// 8 chains of 255 — is refuted by the cycle its known edges already
    /// hold, before any clause is read.
    #[test]
    fn a_2048_txn_hard_window_is_refuted_from_its_known_edges() {
        let (t0, t1) = (Some(0), Some(1));
        let core = OrderInstance {
            n: 4,
            reads: vec![vec![], vec![], vec![(0, t0), (1, None)], vec![(1, t1), (0, None)]],
            writes: vec![vec![0], vec![1], vec![], vec![]],
            visibility_edges: vec![(0, 2), (1, 3)],
            commit_edges: vec![],
            n_vars: 2,
        };
        let inst = with_chains(core, 8, 255);
        assert_eq!(inst.n, 2044);
        for level in [LevelSpec::Prefix, LevelSpec::SnapshotIsolation, LevelSpec::Serializable] {
            let OrderVerdict::NoOrder { mut cycle, effort } = decide(&inst, level, &cfg()) else {
                panic!("the long fork must fail {level:?}");
            };
            assert_eq!(effort, Effort::default(), "{level:?}");
            assert_eq!(cycle.first(), cycle.last());
            cycle.pop();
            cycle.sort_unstable();
            assert_eq!(cycle, vec![0, 1, 2, 3], "{level:?}: the fork, not the padding");
        }
    }

    /// Encoding size follows the pairs the known order leaves open, not the
    /// window: none for a serial chain, the same few however much ordered
    /// padding surrounds an unordered core.
    #[test]
    fn encoding_size_tracks_unordered_pairs() {
        let serial = with_chains(OrderInstance::default(), 1, 1000);
        for level in [LevelSpec::Prefix, LevelSpec::SnapshotIsolation, LevelSpec::Serializable] {
            let OrderVerdict::Order { order, effort } = decide(&serial, level, &cfg()) else {
                panic!("a serial chain orders at {level:?}");
            };
            assert_eq!(order, (0..1000).collect::<Vec<u32>>(), "{level:?}");
            assert_eq!(effort, Effort::default(), "{level:?}");
        }
        let pairs = |chains| {
            let inst = with_chains(unordered_writers(), chains, 40);
            match decide(&inst, LevelSpec::SnapshotIsolation, &cfg()) {
                OrderVerdict::Order { effort, .. } => effort.pairs,
                other => panic!("{other:?}"),
            }
        };
        assert!(pairs(0) > 0);
        assert_eq!(pairs(2), pairs(0));
        assert_eq!(pairs(8), pairs(0));
    }

    /// A read clause the known order falsifies on both sides is a named
    /// refutation: source ⇝ other writer ⇝ reader, closed.
    #[test]
    fn a_clause_refuted_by_propagation_names_its_cycle() {
        // Three sessions: txn 0 writes x; txn 1 reads it and overwrites x;
        // txn 2 sees txn 1 (through y) yet reads x from txn 0.
        let inst = OrderInstance {
            n: 3,
            reads: vec![vec![], vec![(0, Some(0))], vec![(1, Some(1)), (0, Some(0))]],
            writes: vec![vec![0], vec![0, 1], vec![]],
            visibility_edges: vec![(0, 1), (1, 2), (0, 2)],
            commit_edges: vec![],
            n_vars: 2,
        };
        for level in [LevelSpec::Prefix, LevelSpec::SnapshotIsolation, LevelSpec::Serializable] {
            let OrderVerdict::NoOrder { cycle, effort } = decide(&inst, level, &cfg()) else {
                panic!("a stale read under a visible overwrite fails {level:?}");
            };
            assert_eq!(cycle, vec![0, 1, 2, 0], "{level:?}");
            assert_eq!(effort, Effort::default(), "{level:?}: no search was needed");
        }
    }

    /// Malformed instances (dangling edge endpoints, unknown writers,
    /// out-of-range variables) must not panic — they are ignored.
    #[test]
    fn adversarial_instances_do_not_panic() {
        let inst = OrderInstance {
            n: 2,
            reads: vec![vec![(99, Some(77)), (0, Some(1))], vec![(0, None)]],
            writes: vec![vec![0], vec![98]],
            visibility_edges: vec![(0, 50), (60, 61), (1, 1)],
            commit_edges: vec![(7, 0)],
            n_vars: 3,
        };
        for level in [LevelSpec::Serializable, LevelSpec::SnapshotIsolation, LevelSpec::Prefix] {
            let _ = decide(&inst, level, &cfg());
        }
    }
}
