//! Parameterized adversarial history generation.
//!
//! The generator emits histories one transaction at a time in a single
//! global order, so the **base traffic is serializable by construction**:
//! every read observes the current value of its variable and every write
//! installs a globally-unique fresh value (never the initial value 0).  The
//! emission order itself is a witness commit order, so a history with no
//! planted anomalies passes all five levels — which is what makes planted
//! anomalies *oracles*: any verdict beyond the planted set is a checker
//! disagreement, not noise.
//!
//! Anomaly knobs plant the three classic patterns at chosen per-mille
//! rates, each as a short **contiguous** run of transactions (so windowed
//! auditors with overlap ≥ 3 always see a plant whole in some window):
//!
//! * **lost update** (2 txns, 2 sessions): both read-modify-write the same
//!   variable from the same source — fails SI and SER, passes Causal;
//! * **write skew** (2 txns, 2 sessions): both read both variables from a
//!   common snapshot, writes disjoint — fails SER only;
//! * **causal cycle** (4 txns, 3 sessions): a setup write, an RMW over it,
//!   a reader of the RMW, and a third-session observer that sees the
//!   downstream effect but reads the variable *stale* — the saturation
//!   cycle that fails Causal (and therefore SI and SER);
//! * **long fork** (4 txns, 2 sessions): two independent writers and one
//!   reader per writer session, each reader seeing its own session's write
//!   but the *other* writer's variable stale — two irreconcilable snapshot
//!   prefixes, so Prefix Consistency fails (and SI and SER with it) while
//!   Causal holds.
//!
//! [`generate_hard`] builds the SAT-escalation lane's planted workload: a
//! long-fork core padded with independent per-session RMW chains, sized so
//! the DFS linearization search exhausts any practical state budget while
//! the CDCL solver refutes the window from its unit clauses.

use crate::wire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_audit::{AccessSet, AuditHistory, AuditTxn, Level};

/// Shape and adversity of one generated history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Number of sessions (causal-cycle plants need ≥ 3, the other plants
    /// ≥ 2).
    pub sessions: usize,
    /// Size of the variable pool (write-skew and causal-cycle plants need
    /// ≥ 2).
    pub vars: usize,
    /// Transactions per session (total = `sessions × txns_per_session`).
    pub txns_per_session: usize,
    /// Read/write events attempted per base transaction (≥ 1; internal
    /// reads and overwritten writes coalesce, so recorded sets may be
    /// smaller).
    pub events_per_txn: usize,
    /// Generator seed: same config + seed ⇒ byte-identical history.
    pub seed: u64,
    /// Per-mille chance that the next emission is a lost-update plant.
    pub lost_update_per_mille: u32,
    /// Per-mille chance that the next emission is a write-skew plant.
    pub write_skew_per_mille: u32,
    /// Per-mille chance that the next emission is a causal-cycle plant.
    pub causal_cycle_per_mille: u32,
    /// Per-mille chance that the next emission is a long-fork plant.
    pub long_fork_per_mille: u32,
    /// When `Some(k)`, multi-variable plants pick their second variable from
    /// the *same* `k`-way partition as the first
    /// ([`tm_audit::partition_of`]), so every plant is fully visible to one
    /// partition auditor of a `k`-sharded pipeline.  The sharded engine's
    /// merged pass only *attests* anomalies whose participants all stay
    /// in-band (see `tm_audit::partition` soundness notes), so a
    /// differential harness that gates on sharded misses must align its
    /// plants; `None` leaves plants free to cross bands.  A plant is
    /// skipped (not emitted) when no same-partition partner variable
    /// exists.
    pub shard_align: Option<usize>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            sessions: 3,
            vars: 8,
            txns_per_session: 50,
            events_per_txn: 3,
            seed: 1,
            lost_update_per_mille: 0,
            write_skew_per_mille: 0,
            causal_cycle_per_mille: 0,
            long_fork_per_mille: 0,
            shard_align: None,
        }
    }
}

/// How many of each anomaly the generator actually planted (a plant is
/// skipped when too few sessions still have capacity, so rates are upper
/// bounds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Planted {
    /// Lost-update plants (each fails SI and SER).
    pub lost_updates: u64,
    /// Write-skew plants (each fails SER only).
    pub write_skews: u64,
    /// Causal-cycle plants (each fails Causal, SI and SER).
    pub causal_cycles: u64,
    /// Long-fork plants (each fails Prefix, SI and SER; Causal holds).
    pub long_forks: u64,
}

impl Planted {
    /// Total plants.
    pub fn total(&self) -> u64 {
        self.lost_updates + self.write_skews + self.causal_cycles + self.long_forks
    }

    /// The levels the planted anomalies *guarantee* a sound checker fails
    /// (closed under the hierarchy: a causal violation implies SI and SER).
    /// Levels not listed carry no expectation either way.
    pub fn expected_failures(&self) -> Vec<Level> {
        let mut fails = Vec::new();
        if self.causal_cycles > 0 {
            fails.push(Level::Causal);
        }
        if self.causal_cycles > 0 || self.long_forks > 0 {
            fails.push(Level::Prefix);
        }
        if self.causal_cycles > 0 || self.lost_updates > 0 || self.long_forks > 0 {
            fails.push(Level::SnapshotIsolation);
        }
        if self.total() > 0 {
            fails.push(Level::Serializable);
        }
        fails
    }
}

/// A generated history plus its oracle.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The history (it round-trips the wire format field-for-field).
    pub history: AuditHistory,
    /// What was planted, for expected-verdict computation.
    pub planted: Planted,
}

struct Gen {
    history: AuditHistory,
    /// Current value of every variable under the sequential emission order.
    current: Vec<i64>,
    /// Per-session transactions still to emit.
    remaining: Vec<usize>,
    next_value: i64,
    next_hint: u64,
}

impl Gen {
    fn fresh(&mut self) -> i64 {
        let value = self.next_value;
        self.next_value += 1;
        value
    }

    /// Emit one transaction into `session`, consuming one slot.
    fn emit(&mut self, session: usize, reads: impl Into<AccessSet>, writes: impl Into<AccessSet>) {
        let (reads, writes) = (reads.into(), writes.into());
        let hint = self.next_hint;
        self.next_hint += 1;
        self.history.sessions[session].push(AuditTxn { reads, writes, hint, footprint: 0 });
        self.remaining[session] -= 1;
    }

    /// Up to `k` distinct sessions with capacity, in random order.
    fn pick_sessions(&self, rng: &mut StdRng, k: usize) -> Vec<usize> {
        let mut open: Vec<usize> =
            (0..self.remaining.len()).filter(|&s| self.remaining[s] > 0).collect();
        let mut picked = Vec::with_capacity(k);
        while picked.len() < k && !open.is_empty() {
            picked.push(open.swap_remove(rng.gen_range(0..open.len())));
        }
        picked
    }
}

/// Two distinct variables for a cross-variable plant, honoring
/// [`GenConfig::shard_align`]: both from the same `k`-way partition when
/// alignment is on.  `None` when no such pair exists in the pool.
fn plant_pair(rng: &mut StdRng, n_vars: usize, align: Option<usize>) -> Option<(usize, usize)> {
    let mates = |x: usize| -> Vec<usize> {
        (0..n_vars)
            .filter(|&v| v != x)
            .filter(|&v| match align {
                Some(k) => tm_audit::partition_of(v, k) == tm_audit::partition_of(x, k),
                None => true,
            })
            .collect()
    };
    let xs: Vec<usize> = (0..n_vars).filter(|&x| !mates(x).is_empty()).collect();
    if xs.is_empty() {
        return None;
    }
    let x = xs[rng.gen_range(0..xs.len())];
    let partners = mates(x);
    Some((x, partners[rng.gen_range(0..partners.len())]))
}

/// Generate one history from `config` (deterministic in the config).
pub fn generate(config: &GenConfig) -> Generated {
    assert!(config.sessions > 0, "GenConfig::sessions must be positive");
    assert!(config.vars > 0, "GenConfig::vars must be positive");
    assert!(config.events_per_txn > 0, "GenConfig::events_per_txn must be positive");
    assert!(
        config.write_skew_per_mille == 0
            && config.causal_cycle_per_mille == 0
            && config.long_fork_per_mille == 0
            || config.vars >= 2,
        "write-skew, causal-cycle and long-fork plants need at least 2 variables"
    );
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7A11_9E5E_D0C5_F00D);
    let mut gen = Gen {
        history: AuditHistory::new(config.vars, 0, config.sessions),
        current: vec![0; config.vars],
        remaining: vec![config.txns_per_session; config.sessions],
        next_value: 1,
        next_hint: 0,
    };
    let mut planted = Planted::default();
    while gen.remaining.iter().any(|&r| r > 0) {
        let roll = rng.gen_range(0..1000u32);
        if roll < config.causal_cycle_per_mille {
            if plant_causal_cycle(&mut gen, &mut rng, config.shard_align) {
                planted.causal_cycles += 1;
                continue;
            }
        } else if roll < config.causal_cycle_per_mille + config.lost_update_per_mille {
            if plant_lost_update(&mut gen, &mut rng) {
                planted.lost_updates += 1;
                continue;
            }
        } else if roll
            < config.causal_cycle_per_mille
                + config.lost_update_per_mille
                + config.write_skew_per_mille
        {
            if plant_write_skew(&mut gen, &mut rng, config.shard_align) {
                planted.write_skews += 1;
                continue;
            }
        } else if roll
            < config.causal_cycle_per_mille
                + config.lost_update_per_mille
                + config.write_skew_per_mille
                + config.long_fork_per_mille
            && plant_long_fork(&mut gen, &mut rng, config.shard_align)
        {
            planted.long_forks += 1;
            continue;
        }
        base_txn(&mut gen, &mut rng, config.events_per_txn);
    }
    Generated { history: gen.history, planted }
}

/// One well-behaved transaction: random read/write events over the pool,
/// reads observing current values (read-your-writes respected: a read after
/// the transaction's own write is internal and not recorded), writes
/// installing fresh unique values.
fn base_txn(gen: &mut Gen, rng: &mut StdRng, events: usize) {
    let sessions = gen.pick_sessions(rng, 1);
    let session = sessions[0];
    let mut reads = AccessSet::new();
    let mut writes = AccessSet::new();
    for _ in 0..events {
        let var = rng.gen_range(0..gen.current.len());
        if rng.gen_bool(0.5) {
            // Read: external only if the transaction hasn't written (or
            // already read) the variable.
            if writes.iter().all(|&(v, _)| v != var) && reads.iter().all(|&(v, _)| v != var) {
                reads.push((var, gen.current[var]));
            }
        } else {
            let value = gen.fresh();
            match writes.iter_mut().find(|(v, _)| *v == var) {
                Some(entry) => entry.1 = value,
                None => writes.push((var, value)),
            }
        }
    }
    for &(var, value) in &writes {
        gen.current[var] = value;
    }
    gen.emit(session, reads, writes);
}

/// Two sessions read-modify-write the same variable from the same source.
fn plant_lost_update(gen: &mut Gen, rng: &mut StdRng) -> bool {
    let picked = gen.pick_sessions(rng, 2);
    let &[a, b] = picked.as_slice() else { return false };
    let var = rng.gen_range(0..gen.current.len());
    let source = gen.current[var];
    let (f1, f2) = (gen.fresh(), gen.fresh());
    gen.emit(a, [(var, source)], [(var, f1)]);
    gen.emit(b, [(var, source)], [(var, f2)]);
    gen.current[var] = f2;
    true
}

/// The classic skew: both transactions read *both* variables from the same
/// snapshot and write disjoint halves.  Each read pins its writer as the
/// last writer of that variable before the reader, so whichever of T1, T2
/// serializes second must have observed the other's write — unconditionally
/// non-serializable, whatever surrounds the plant.  (The one-sided "cross"
/// variant — each reading only the other's variable — is *not* a guaranteed
/// violation: a serialization may slide T2 before `cy`'s writer whenever
/// `f2` is never re-read.)  Writes stay disjoint, so first-committer-wins
/// is unviolated and SI holds.
fn plant_write_skew(gen: &mut Gen, rng: &mut StdRng, align: Option<usize>) -> bool {
    let picked = gen.pick_sessions(rng, 2);
    let &[a, b] = picked.as_slice() else { return false };
    let Some((x, y)) = plant_pair(rng, gen.current.len(), align) else { return false };
    let (cx, cy) = (gen.current[x], gen.current[y]);
    let (f1, f2) = (gen.fresh(), gen.fresh());
    gen.emit(a, [(x, cx), (y, cy)], [(x, f1)]);
    gen.emit(b, [(x, cx), (y, cy)], [(y, f2)]);
    gen.current[x] = f1;
    gen.current[y] = f2;
    true
}

/// Setup write S(x=p); T1 RMWs x (p → f1); T2 reads f1, writes y; T3 (third
/// session) reads T2's y *and* the stale x = p.  Saturation derives
/// T1 → S from T3's stale read while S → T1 from T1's read of p: a causal
/// cycle.
fn plant_causal_cycle(gen: &mut Gen, rng: &mut StdRng, align: Option<usize>) -> bool {
    let picked = gen.pick_sessions(rng, 3);
    let &[a, b, c] = picked.as_slice() else { return false };
    // Four slots: S rides in session a ahead of T1.
    if gen.remaining[a] < 2 {
        return false;
    }
    let Some((x, y)) = plant_pair(rng, gen.current.len(), align) else { return false };
    let (p, f1, f2) = (gen.fresh(), gen.fresh(), gen.fresh());
    gen.emit(a, AccessSet::new(), [(x, p)]);
    gen.emit(a, [(x, p)], [(x, f1)]);
    gen.emit(b, [(x, f1)], [(y, f2)]);
    gen.emit(c, [(y, f2), (x, p)], AccessSet::new());
    gen.current[x] = f1;
    gen.current[y] = f2;
    true
}

/// Two sessions fork: each writes its own variable, then reads back its own
/// write alongside the *other* variable read stale (the value both sessions
/// saw before the plant).  The two readers observe irreconcilable snapshot
/// prefixes — whichever writer a commit order puts first is missing from the
/// other reader's snapshot — so **prefix consistency fails** (and SI/SER by
/// containment) while the base order stays acyclic: Causal holds.
fn plant_long_fork(gen: &mut Gen, rng: &mut StdRng, align: Option<usize>) -> bool {
    let picked = gen.pick_sessions(rng, 2);
    let &[a, b] = picked.as_slice() else { return false };
    if gen.remaining[a] < 3 || gen.remaining[b] < 3 {
        return false;
    }
    let Some((x, y)) = plant_pair(rng, gen.current.len(), align) else { return false };
    // Anchor writes first: session order pins anchor < fork inside each
    // session, so the stale cross-reads below contradict in *every* total
    // order (a free-floating old value could legally commit after the fork
    // writes and dissolve the anomaly).
    let (ax, ay) = (gen.fresh(), gen.fresh());
    let (f1, f2) = (gen.fresh(), gen.fresh());
    gen.emit(a, AccessSet::new(), [(x, ax)]);
    gen.emit(b, AccessSet::new(), [(y, ay)]);
    gen.emit(a, [(x, ax)], [(x, f1)]);
    gen.emit(b, [(y, ay)], [(y, f2)]);
    gen.emit(a, [(x, f1), (y, ay)], AccessSet::new());
    gen.emit(b, [(y, f2), (x, ax)], AccessSet::new());
    gen.current[x] = f1;
    gen.current[y] = f2;
    true
}

/// The SAT-escalation lane's planted hard window: a 4-transaction long-fork
/// core (a definite Prefix/SI/SER violation that the polynomial refutations
/// cannot see) padded with `chains` independent single-session RMW chains of
/// length `chain_len` over disjoint variables.  The chains multiply the DFS
/// linearization search space combinatorially — `chains` and `chain_len` a
/// few steps up from trivial already blow past the default 2M-state budget,
/// leaving the DFS verdict `Unknown` — while the solver's unit clauses (each
/// chain is session-and-wr totally ordered) collapse the same window to the
/// core, which CDCL refutes in a handful of conflicts.
pub fn generate_hard(seed: u64, chains: usize, chain_len: usize) -> Generated {
    assert!(chains > 0 && chain_len > 0, "generate_hard needs positive chain dimensions");
    let sessions = 2 + chains;
    let vars = 2 + chains;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A7_E5CA_1A7E_D0C5);
    let mut gen = Gen {
        history: AuditHistory::new(vars, 0, sessions),
        current: vec![0; vars],
        remaining: vec![usize::MAX; sessions],
        next_value: 1,
        next_hint: 0,
    };
    // The fork core on vars 0 and 1, sessions 0 and 1.
    let (f1, f2) = (gen.fresh(), gen.fresh());
    gen.emit(0, AccessSet::new(), [(0, f1)]);
    gen.emit(1, AccessSet::new(), [(1, f2)]);
    gen.emit(0, [(0, f1), (1, 0)], AccessSet::new());
    gen.emit(1, [(1, f2), (0, 0)], AccessSet::new());
    // Independent RMW chains, one per extra session, each on its own var —
    // emitted in seed-shuffled round-robin order so the recording order (and
    // with it the DFS's traversal) varies across seeds while the verdict
    // oracle does not.
    let mut slots: Vec<usize> =
        (0..chains).flat_map(|c| std::iter::repeat_n(c, chain_len)).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.gen_range(0..=i));
    }
    for c in slots {
        let (session, var) = (2 + c, 2 + c);
        let last = gen.current[var];
        let next = gen.fresh();
        gen.emit(session, [(var, last)], [(var, next)]);
        gen.current[var] = next;
    }
    Generated { history: gen.history, planted: Planted { long_forks: 1, ..Planted::default() } }
}

/// Convenience: generate and serialize in one step (the fuzz harness's
/// reproducer artifacts and the CLI's generated-ingest demos).
pub fn generate_wire(config: &GenConfig) -> (String, Planted) {
    let generated = generate(config);
    (wire::encode(&generated.history), generated.planted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_audit::{
        audit_with_budget, audit_with_options, AuditOptions, DecidedBy, Outcome, SatConfig,
    };

    fn long_fork_only(seed: u64) -> GenConfig {
        GenConfig {
            sessions: 4,
            vars: 4,
            txns_per_session: 12,
            events_per_txn: 2,
            seed,
            lost_update_per_mille: 0,
            write_skew_per_mille: 0,
            causal_cycle_per_mille: 0,
            long_fork_per_mille: 400,
            shard_align: None,
        }
    }

    #[test]
    fn long_fork_plants_convict_prefix_and_spare_causal() {
        let mut planted_somewhere = false;
        for seed in 0..8 {
            let generated = generate(&long_fork_only(seed));
            if generated.planted.long_forks == 0 {
                continue;
            }
            planted_somewhere = true;
            let expected = generated.planted.expected_failures();
            assert!(expected.contains(&Level::Prefix), "oracle must expect a Prefix failure");
            let report = audit_with_budget(&generated.history, 50_000_000);
            assert!(report.passes(Level::Causal), "seed {seed}: long fork is causal:\n{report}");
            for level in expected {
                assert!(report.fails(level), "seed {seed}: {level} must fail:\n{report}");
            }
        }
        assert!(planted_somewhere, "no seed planted a long fork at 400‰");
    }

    #[test]
    fn generate_hard_starves_dfs_and_sat_convicts() {
        let generated = generate_hard(3, 7, 8);
        let budget = 100_000; // scaled-down stand-in for the default 2M (CI runs full size)
        let starved = audit_with_budget(&generated.history, budget);
        for level in [Level::Prefix, Level::SnapshotIsolation, Level::Serializable] {
            assert!(
                matches!(starved.outcome(level), Some(Outcome::Unknown { .. })),
                "{level} should exhaust the DFS budget:\n{starved}"
            );
        }
        let options = AuditOptions { budget, sat: Some(SatConfig::default()) };
        let decided = audit_with_options(&generated.history, &options);
        assert!(decided.passes(Level::Causal), "{decided}");
        for level in [Level::Prefix, Level::SnapshotIsolation, Level::Serializable] {
            assert!(decided.fails(level), "{level} must be convicted:\n{decided}");
            let report = decided.levels.iter().find(|l| l.level == level).unwrap();
            assert_eq!(report.decided_by, DecidedBy::Sat, "{level} must carry SAT provenance");
        }
    }

    #[test]
    fn generate_hard_is_deterministic_and_seed_sensitive() {
        let a = wire::encode(&generate_hard(7, 3, 4).history);
        let b = wire::encode(&generate_hard(7, 3, 4).history);
        let c = wire::encode(&generate_hard(8, 3, 4).history);
        assert_eq!(a, b, "same seed must be byte-identical");
        assert_ne!(a, c, "different seeds must interleave differently");
    }
}
