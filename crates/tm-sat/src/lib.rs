//! # tm-sat — a dependency-free CDCL solver and commit-order encoder
//!
//! The auditor's SI/SER/Prefix searches are NP-complete (Biswas & Enea, *"On
//! the Complexity of Checking Transactional Consistency"*), and the DFS in
//! `tm-audit::linearization` honestly reports `Unknown` when its state budget
//! runs out.  This crate is the escalation path: the window's commit-order
//! axioms, settled from what is already known wherever that suffices and
//! handed to a small conflict-driven clause-learning solver where it does
//! not, so budget-exhausted windows become decidable instead of staying
//! `Unknown` forever — at the size of a live window, not of a toy.
//!
//! * [`Solver`] — CDCL with two watched literals, VSIDS-style activity on a
//!   lazy heap, first-UIP conflict analysis with backjumping, phase saving,
//!   Luby restarts, clauses accepted between solves, and a **configurable
//!   conflict budget**: an exhausted budget returns
//!   [`SolveOutcome::Unknown`], never a verdict, mirroring the DFS's honesty
//!   contract.
//! * [`order`] — the per-window encoder for **Prefix**, **SI** and **SER**.
//!   Forced precedences (saturation's derived edges among them, so the
//!   solver starts exactly where polynomial reasoning stopped) form a
//!   digraph; the read and first-committer-wins axioms are binary clauses
//!   over ordered point pairs, evaluated against the digraph's reachability
//!   to fixpoint; only pairs still open afterwards become solver variables,
//!   and acyclicity of the solver's model is enforced lazily, one forbidden
//!   cycle at a time.  No transitivity clause is ever materialized.
//!
//! The crate deliberately depends on nothing — not even other workspace
//! crates — so the solver can be reused and fuzzed in isolation; `tm-audit`
//! adapts its partial order into [`order::OrderInstance`] on its side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod order;

pub use order::{decide, Effort, LevelSpec, OrderInstance, OrderVerdict, SolveConfig};

/// A literal: variable index shifted left once, low bit = negated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `var`.
    pub fn pos(var: usize) -> Lit {
        Lit((var as u32) << 1)
    }

    /// Negative literal of `var`.
    pub fn neg(var: usize) -> Lit {
        Lit(((var as u32) << 1) | 1)
    }

    /// The literal's variable.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// `true` if the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// What [`Solver::solve`] concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment exists; read it back with [`Solver::value`].
    Sat,
    /// No satisfying assignment exists.
    Unsat,
    /// The conflict budget ran out before either answer.
    Unknown,
}

/// Search effort counters, exposed for telemetry and budget hints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts hit (the budgeted quantity).
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
}

/// Activity-ordered heap entry; stale entries (old activity, or already
/// assigned) are skipped lazily at pop time.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    activity: f64,
    var: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.activity.total_cmp(&other.activity).is_eq() && self.var == other.var
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.activity.total_cmp(&other.activity).then(self.var.cmp(&other.var))
    }
}

const INVALID_CLAUSE: u32 = u32::MAX;

/// CDCL solver over a fixed variable set.
pub struct Solver {
    n_vars: usize,
    /// Clause arena; index 0.. are stable `reason` references.
    clauses: Vec<Vec<Lit>>,
    /// Per-literal watch lists: clauses currently watching that literal.
    watches: Vec<Vec<u32>>,
    /// 0 = unassigned, 1 = true, -1 = false.
    assign: Vec<i8>,
    /// Assigned literals in trail order.
    trail: Vec<Lit>,
    /// Trail indices where each decision level starts.
    trail_lim: Vec<usize>,
    /// Propagation frontier into `trail`.
    qhead: usize,
    /// Per-variable implying clause (`INVALID_CLAUSE` for decisions/roots).
    reason: Vec<u32>,
    /// Per-variable decision level.
    level: Vec<u32>,
    activity: Vec<f64>,
    var_inc: f64,
    heap: std::collections::BinaryHeap<HeapEntry>,
    saved_phase: Vec<bool>,
    /// Root-level contradiction discovered while adding clauses.
    root_unsat: bool,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    stats: SolverStats,
}

impl Solver {
    /// A solver over `n_vars` variables (indices `0..n_vars`).
    pub fn new(n_vars: usize) -> Solver {
        Solver {
            n_vars,
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * n_vars],
            assign: vec![0; n_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: vec![INVALID_CLAUSE; n_vars],
            level: vec![0; n_vars],
            activity: vec![0.0; n_vars],
            var_inc: 1.0,
            heap: std::collections::BinaryHeap::new(),
            saved_phase: vec![false; n_vars],
            root_unsat: false,
            seen: vec![false; n_vars],
            stats: SolverStats::default(),
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Search counters so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    fn lit_value(&self, lit: Lit) -> i8 {
        let v = self.assign[lit.var()];
        if lit.is_neg() {
            -v
        } else {
            v
        }
    }

    /// The value assigned to `var` (meaningful after [`SolveOutcome::Sat`]).
    pub fn value(&self, var: usize) -> bool {
        self.assign[var] > 0
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Assert `lit` with an optional implying clause; `false` if it is
    /// already false (a conflict the caller must handle).
    fn enqueue(&mut self, lit: Lit, reason: u32) -> bool {
        match self.lit_value(lit) {
            1 => true,
            -1 => false,
            _ => {
                let var = lit.var();
                self.assign[var] = if lit.is_neg() { -1 } else { 1 };
                self.saved_phase[var] = !lit.is_neg();
                self.reason[var] = reason;
                self.level[var] = self.decision_level();
                self.trail.push(lit);
                true
            }
        }
    }

    /// Add a clause.  Literals over `n_vars` panic; duplicates are removed;
    /// tautologies are dropped.  Clauses may arrive between solves: adding
    /// one returns the solver to the root level, discarding the last model.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.cancel_until(0);
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            assert!(l.var() < self.n_vars, "literal out of range");
            if c.contains(&l.negate()) {
                return; // tautology
            }
            if !c.contains(&l) {
                c.push(l);
            }
        }
        // Drop root-false literals; a clause already satisfied at root is a
        // no-op.
        if c.iter().any(|&l| self.lit_value(l) == 1) {
            return;
        }
        c.retain(|&l| self.lit_value(l) != -1);
        match c.len() {
            0 => self.root_unsat = true,
            1 => {
                if !self.enqueue(c[0], INVALID_CLAUSE) {
                    self.root_unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[c[0].index()].push(idx);
                self.watches[c[1].index()].push(idx);
                self.clauses.push(c);
            }
        }
    }

    /// Propagate everything pending; `Some(clause)` on conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // p became true: clauses watching ¬p must be visited.
            let false_lit = p.negate();
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < watch_list.len() {
                let ci = watch_list[i];
                // Normalize: the false literal sits at position 1.
                if self.clauses[ci as usize][0] == false_lit {
                    self.clauses[ci as usize].swap(0, 1);
                }
                let first = self.clauses[ci as usize][0];
                if self.lit_value(first) == 1 {
                    i += 1;
                    continue; // satisfied; keep watching
                }
                // Look for a non-false literal to watch instead.
                let len = self.clauses[ci as usize].len();
                let mut moved = false;
                for k in 2..len {
                    let lk = self.clauses[ci as usize][k];
                    if self.lit_value(lk) != -1 {
                        self.clauses[ci as usize].swap(1, k);
                        self.watches[lk.index()].push(ci);
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflicting.
                self.stats.propagations += 1;
                if !self.enqueue(first, ci) {
                    // Conflict: restore the remaining watches and report.
                    self.watches[false_lit.index()].extend_from_slice(&watch_list);
                    return Some(ci);
                }
                i += 1;
            }
            let kept = std::mem::replace(&mut self.watches[false_lit.index()], watch_list);
            debug_assert!(kept.is_empty());
        }
        None
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.assign[var] == 0 {
            self.heap.push(HeapEntry { activity: self.activity[var], var: var as u32 });
        }
    }

    /// First-UIP conflict analysis: the learned clause and the level to jump
    /// back to.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // slot 0 = asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut reason_clause = conflict;
        let mut trail_idx = self.trail.len();
        let current = self.decision_level();

        loop {
            let start = if p.is_some() { 1 } else { 0 };
            // Borrow the clause by index to appease split borrows.
            for k in start..self.clauses[reason_clause as usize].len() {
                let q = self.clauses[reason_clause as usize][k];
                let v = q.var();
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.seen[v] = true;
                self.bump(v);
                if self.level[v] == current {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var()] {
                    break;
                }
            }
            let lit = self.trail[trail_idx];
            self.seen[lit.var()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            reason_clause = self.reason[lit.var()];
            debug_assert_ne!(reason_clause, INVALID_CLAUSE);
            p = Some(lit);
        }
        learnt[0] = p.expect("first UIP exists").negate();
        for l in &learnt[1..] {
            self.seen[l.var()] = false;
        }
        // Backjump level = highest level among the non-asserting literals.
        let mut back = 0u32;
        let mut swap_at = 0usize;
        for (k, l) in learnt.iter().enumerate().skip(1) {
            if self.level[l.var()] > back {
                back = self.level[l.var()];
                swap_at = k;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, swap_at);
        }
        (learnt, back)
    }

    /// Undo assignments above `level`, refilling the decision heap.
    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        while self.trail.len() > bound {
            let lit = self.trail.pop().expect("trail non-empty above bound");
            let var = lit.var();
            self.assign[var] = 0;
            self.reason[var] = INVALID_CLAUSE;
            self.heap.push(HeapEntry { activity: self.activity[var], var: var as u32 });
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<usize> {
        while let Some(entry) = self.heap.pop() {
            let var = entry.var as usize;
            if self.assign[var] == 0 {
                return Some(var);
            }
        }
        // The heap can run dry while unassigned vars remain (never bumped):
        // linear fallback.
        (0..self.n_vars).find(|&v| self.assign[v] == 0)
    }

    /// The Luby restart sequence: 1 1 2 1 1 2 4 …
    fn luby(mut i: u64) -> u64 {
        loop {
            let mut k = 1u32;
            while (1u64 << k) - 1 < i + 1 {
                k += 1;
            }
            if (1u64 << k) - 1 == i + 1 {
                return 1u64 << (k - 1);
            }
            i -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Solve under a conflict budget.  [`SolveOutcome::Unknown`] when the
    /// budget runs out — an honest "could not decide", mirroring the DFS.
    pub fn solve(&mut self, conflict_budget: u64) -> SolveOutcome {
        if self.root_unsat {
            return SolveOutcome::Unsat;
        }
        // Seed the decision heap once.
        if self.heap.is_empty() {
            for v in 0..self.n_vars {
                if self.assign[v] == 0 {
                    self.heap.push(HeapEntry { activity: self.activity[v], var: v as u32 });
                }
            }
        }
        let mut restart_conflicts = 0u64;
        let mut restart_limit = Self::luby(self.stats.restarts) * 128;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                restart_conflicts += 1;
                if self.decision_level() == 0 {
                    self.root_unsat = true;
                    return SolveOutcome::Unsat;
                }
                let (learnt, back) = self.analyze(conflict);
                self.cancel_until(back);
                self.var_inc /= 0.95;
                let assert_lit = learnt[0];
                let reason = if learnt.len() == 1 {
                    INVALID_CLAUSE
                } else {
                    let idx = self.clauses.len() as u32;
                    self.watches[learnt[0].index()].push(idx);
                    self.watches[learnt[1].index()].push(idx);
                    self.clauses.push(learnt);
                    self.stats.learned += 1;
                    idx
                };
                let ok = self.enqueue(assert_lit, reason);
                debug_assert!(ok, "asserting literal must be enqueueable after backjump");
                if self.stats.conflicts >= conflict_budget {
                    self.cancel_until(0);
                    return SolveOutcome::Unknown;
                }
                continue;
            }
            if restart_conflicts >= restart_limit {
                self.stats.restarts += 1;
                restart_conflicts = 0;
                restart_limit = Self::luby(self.stats.restarts) * 128;
                self.cancel_until(0);
                continue;
            }
            match self.pick_branch_var() {
                None => return SolveOutcome::Sat,
                Some(var) => {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    let lit = if self.saved_phase[var] { Lit::pos(var) } else { Lit::neg(var) };
                    let ok = self.enqueue(lit, INVALID_CLAUSE);
                    debug_assert!(ok, "a fresh decision variable is unassigned");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(l: i32) -> Lit {
        if l > 0 {
            Lit::pos((l - 1) as usize)
        } else {
            Lit::neg((-l - 1) as usize)
        }
    }

    fn solver_with(n: usize, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new(n);
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&l| lit(l)).collect();
            s.add_clause(&lits);
        }
        s
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = solver_with(1, &[&[1]]);
        assert_eq!(s.solve(u64::MAX), SolveOutcome::Sat);
        assert!(s.value(0));

        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(u64::MAX), SolveOutcome::Unsat);

        let mut s = solver_with(1, &[&[]]);
        assert_eq!(s.solve(u64::MAX), SolveOutcome::Unsat);
    }

    #[test]
    fn empty_instance_is_sat() {
        let mut s = Solver::new(0);
        assert_eq!(s.solve(u64::MAX), SolveOutcome::Sat);
    }

    #[test]
    fn implication_chain_propagates() {
        // 1, 1→2, 2→3, 3→4: all true.
        let mut s = solver_with(4, &[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
        assert_eq!(s.solve(u64::MAX), SolveOutcome::Sat);
        for v in 0..4 {
            assert!(s.value(v), "v{v}");
        }
    }

    #[test]
    fn pigeonhole_three_into_two_is_unsat() {
        // Pigeons p in {1,2,3}, holes h in {1,2}; var(p,h) = 2(p-1)+h.
        // Each pigeon somewhere; no two pigeons share a hole.
        let mut s = solver_with(
            6,
            &[
                &[1, 2],
                &[3, 4],
                &[5, 6],
                &[-1, -3],
                &[-1, -5],
                &[-3, -5],
                &[-2, -4],
                &[-2, -6],
                &[-4, -6],
            ],
        );
        assert_eq!(s.solve(u64::MAX), SolveOutcome::Unsat);
        assert!(s.stats().conflicts >= 1);
    }

    #[test]
    fn larger_pigeonhole_needs_learning_and_stays_correct() {
        // 6 pigeons into 5 holes: small but requires real search.
        let pigeons = 6usize;
        let holes = 5usize;
        let var = |p: usize, h: usize| (p * holes + h + 1) as i32;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| var(p, h)).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    clauses.push(vec![-var(p1, h), -var(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(pigeons * holes, &refs);
        assert_eq!(s.solve(u64::MAX), SolveOutcome::Unsat);
        assert!(s.stats().learned > 0, "PHP(6,5) requires clause learning");
    }

    #[test]
    fn conflict_budget_exhaustion_is_unknown() {
        // PHP(8,7) takes thousands of conflicts; budget 1 must give up.
        let pigeons = 8usize;
        let holes = 7usize;
        let var = |p: usize, h: usize| (p * holes + h + 1) as i32;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| var(p, h)).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    clauses.push(vec![-var(p1, h), -var(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(pigeons * holes, &refs);
        assert_eq!(s.solve(1), SolveOutcome::Unknown);
        assert!(s.stats().conflicts >= 1);
    }

    #[test]
    fn satisfiable_random_3sat_models_verify() {
        // Deterministic LCG-generated planted instances: plant the
        // all-true assignment, every clause gets one positive literal.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        let n = 60usize;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for _ in 0..220 {
            let a = next(n) as i32 + 1;
            let mut b = next(n) as i32 + 1;
            let mut c = next(n) as i32 + 1;
            if next(2) == 0 {
                b = -b;
            }
            if next(2) == 0 {
                c = -c;
            }
            clauses.push(vec![a, b, c]); // `a` positive: all-true satisfies
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(n, &refs);
        assert_eq!(s.solve(u64::MAX), SolveOutcome::Sat);
        for c in &clauses {
            assert!(
                c.iter().any(|&l| {
                    let v = (l.unsigned_abs() - 1) as usize;
                    (l > 0) == s.value(v)
                }),
                "model violates clause {c:?}"
            );
        }
    }

    #[test]
    fn clauses_added_after_a_model_constrain_the_next_solve() {
        // x ∨ y has three models; forbid each one found until none is left.
        let mut s = solver_with(2, &[&[1, 2]]);
        let mut models = 0;
        while s.solve(u64::MAX) == SolveOutcome::Sat {
            models += 1;
            let forbid: Vec<Lit> =
                (0..2).map(|v| if s.value(v) { Lit::neg(v) } else { Lit::pos(v) }).collect();
            s.add_clause(&forbid);
        }
        assert_eq!(models, 3);
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_harmless() {
        let mut s = solver_with(2, &[&[1, 1, 2], &[1, -1], &[2, 2]]);
        assert_eq!(s.solve(u64::MAX), SolveOutcome::Sat);
        assert!(s.value(1));
    }
}
