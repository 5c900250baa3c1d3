//! The built-in scenarios: the register mix (audit workhorse), a read-heavy
//! Zipf-hotspot KV store, long read-only scans racing short writers, and the
//! classic bank ported onto the [`crate::Scenario`] API.
//!
//! The recordable scenarios write **unique tokens**: the value encodes
//! `(thread, per-thread sequence)` so the audit's write-read inference can
//! recover edges (see [`crate::scenario`]).  Their self-checks verify token
//! well-formedness — every value a variable ends at must be a token some
//! thread actually wrote (or the initial 0) — while the real consistency
//! proving is the audit modes' job.

use crate::bank::{Bank, BankConfig};
use crate::scenario::{Scenario, ScenarioCheck, ScenarioConfig, ScenarioState};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::Rng;
use stm_runtime::{Stm, TVar};

/// Build a globally-unique write token: thread in the high bits, a
/// per-thread counter below (same encoding the `tm-audit` register workload
/// uses).
fn token(thread: usize, counter: u64) -> i64 {
    ((thread as i64 + 1) << 40) + counter as i64
}

/// `true` if `value` is the initial 0 or a well-formed token from one of
/// `threads` workers.
fn token_valid(value: i64, threads: usize) -> bool {
    if value == 0 {
        return true;
    }
    let thread = value >> 40;
    thread >= 1 && thread <= threads as i64 && (value & ((1 << 40) - 1)) >= 0
}

fn check_tokens(stm: &Stm, vars: &[TVar<i64>], threads: usize) -> ScenarioCheck {
    let bad =
        vars.iter().map(|&v| stm.read_now(v)).filter(|&value| !token_valid(value, threads)).count();
    ScenarioCheck {
        invariant: Some(bad == 0),
        detail: if bad == 0 {
            format!("all {} variables hold well-formed write tokens", vars.len())
        } else {
            format!("{bad} of {} variables hold out-of-thin-air values", vars.len())
        },
    }
}

// ---------------------------------------------------------------------------
// registers — the audit workhorse mix
// ---------------------------------------------------------------------------

/// The register mix every audited run historically used: read-modify-writes,
/// atomic pair writes and read-only observers over a shared pool.
pub struct RegistersScenario;

struct RegistersState {
    vars: Vec<TVar<i64>>,
    threads: usize,
}

impl Scenario for RegistersScenario {
    fn name(&self) -> &'static str {
        "registers"
    }

    fn summary(&self) -> &'static str {
        "RMW-heavy register mix with pair writes and observers (the audit workhorse)"
    }

    fn recordable(&self) -> bool {
        true
    }

    fn build(&self, stm: &Stm, config: &ScenarioConfig) -> Box<dyn ScenarioState> {
        let vars = (0..config.vars).map(|_| stm.alloc(0i64)).collect();
        Box::new(RegistersState { vars, threads: config.threads })
    }
}

impl ScenarioState for RegistersState {
    fn run_txn(&self, stm: &Stm, thread: usize, seq: u64, rng: &mut StdRng) {
        let a = self.vars[rng.gen_range(0..self.vars.len())];
        let b = self.vars[rng.gen_range(0..self.vars.len())];
        let shape = rng.gen_range(0..10u32);
        let value = token(thread, seq * 2 + 1);
        let second = token(thread, seq * 2 + 2);
        stm.run(|tx| match shape {
            // Read-only observer.
            0..=1 => {
                let _ = tx.read(a)?;
                let _ = tx.read(b)?;
                Ok(())
            }
            // Atomic pair write (after reading one of the pair).
            2..=3 => {
                let _ = tx.read(a)?;
                tx.write(a, value)?;
                tx.write(b, second)?;
                Ok(())
            }
            // Read-modify-write.
            _ => {
                let _ = tx.read(a)?;
                tx.write(a, value)?;
                Ok(())
            }
        });
    }

    fn words(&self) -> usize {
        self.vars.len()
    }

    fn verify(&self, stm: &Stm) -> ScenarioCheck {
        check_tokens(stm, &self.vars, self.threads)
    }
}

// ---------------------------------------------------------------------------
// kv-zipf — read-heavy key-value store with a Zipfian hotspot
// ---------------------------------------------------------------------------

/// A read-heavy KV workload whose keys are drawn from a Zipfian hotspot:
/// most transactions read two hot keys, a minority read-modify-write one.
/// The regime where backends separate on read scalability and where the
/// hot keys push up the attempt histogram.
pub struct KvZipfScenario {
    /// Zipf exponent for key choice (≈0.99 = heavily skewed).
    pub theta: f64,
    /// Fraction of transactions that are read-only.
    pub read_fraction: f64,
}

impl Default for KvZipfScenario {
    fn default() -> Self {
        KvZipfScenario { theta: 0.99, read_fraction: 0.9 }
    }
}

struct KvZipfState {
    keys: Vec<TVar<i64>>,
    zipf: Zipf,
    read_fraction: f64,
    threads: usize,
}

impl Scenario for KvZipfScenario {
    fn name(&self) -> &'static str {
        "kv-zipf"
    }

    fn summary(&self) -> &'static str {
        "read-heavy KV lookups with Zipf-hotspot keys and a minority of RMW writes"
    }

    fn recordable(&self) -> bool {
        true
    }

    fn build(&self, stm: &Stm, config: &ScenarioConfig) -> Box<dyn ScenarioState> {
        Box::new(KvZipfState {
            keys: (0..config.vars).map(|_| stm.alloc(0i64)).collect(),
            zipf: Zipf::new(config.vars, self.theta),
            read_fraction: self.read_fraction,
            threads: config.threads,
        })
    }
}

impl ScenarioState for KvZipfState {
    fn run_txn(&self, stm: &Stm, thread: usize, seq: u64, rng: &mut StdRng) {
        let hot = self.keys[self.zipf.sample(rng)];
        if rng.gen_bool(self.read_fraction) {
            let other = self.keys[self.zipf.sample(rng)];
            stm.run(|tx| {
                let _ = tx.read(hot)?;
                let _ = tx.read(other)?;
                Ok(())
            });
        } else {
            let value = token(thread, seq + 1);
            stm.run(|tx| {
                let _ = tx.read(hot)?;
                tx.write(hot, value)
            });
        }
    }

    fn words(&self) -> usize {
        self.keys.len()
    }

    fn verify(&self, stm: &Stm) -> ScenarioCheck {
        check_tokens(stm, &self.keys, self.threads)
    }
}

// ---------------------------------------------------------------------------
// scan-writers — long read-only scans racing short writers
// ---------------------------------------------------------------------------

/// Thread 0 runs long read-only scans over the whole slot array while every
/// other thread runs short read-modify-writes.  The shape that separates
/// liveness designs: on the blocking backend a stalled writer starves the
/// scan; on the obstruction-free backend the scan aborts and retries, and
/// its attempt histogram (p99) shows the cost.
#[derive(Default)]
pub struct ScanWritersScenario;

struct ScanWritersState {
    slots: Vec<TVar<i64>>,
    threads: usize,
}

impl Scenario for ScanWritersScenario {
    fn name(&self) -> &'static str {
        "scan-writers"
    }

    fn summary(&self) -> &'static str {
        "one long read-only scanner vs short RMW writers (liveness separator)"
    }

    fn recordable(&self) -> bool {
        true
    }

    fn build(&self, stm: &Stm, config: &ScenarioConfig) -> Box<dyn ScenarioState> {
        Box::new(ScanWritersState {
            slots: (0..config.vars).map(|_| stm.alloc(0i64)).collect(),
            threads: config.threads,
        })
    }
}

impl ScenarioState for ScanWritersState {
    fn run_txn(&self, stm: &Stm, thread: usize, seq: u64, rng: &mut StdRng) {
        if thread == 0 && self.threads > 1 {
            // The long transaction: one read-only scan of every slot.
            let sum = stm.run(|tx| {
                let mut acc = 0i64;
                for &slot in &self.slots {
                    acc = acc.wrapping_add(tx.read(slot)?);
                }
                Ok(acc)
            });
            let _ = std::hint::black_box(sum);
        } else {
            let slot = self.slots[rng.gen_range(0..self.slots.len())];
            let value = token(thread, seq + 1);
            stm.run(|tx| {
                let _ = tx.read(slot)?;
                tx.write(slot, value)
            });
        }
    }

    fn words(&self) -> usize {
        self.slots.len()
    }

    fn verify(&self, stm: &Stm) -> ScenarioCheck {
        check_tokens(stm, &self.slots, self.threads)
    }
}

// ---------------------------------------------------------------------------
// write-skew — the SI-vs-SER separator
// ---------------------------------------------------------------------------

/// The classic two-account write-skew shape, ported to typed
/// `TVar<(i64, i64)>` pairs: every transaction reads a **whole pair
/// atomically** and then writes exactly one of its halves (which half is
/// fixed by thread parity, so differently-paritied threads overlapping on a
/// pair write disjoint halves from the same snapshot).
///
/// On a serializable backend the read of the partner half is validated at
/// commit, so overlaps serialize (one side retries).  On the `mvcc`
/// snapshot-isolation backend both sides commit — first-committer-wins only
/// sees write-write conflicts — producing histories that **pass every SI
/// audit and fail the serializability audit**: the live separation of the
/// consistency axis.  Half of the traffic targets pair 0 so overlaps are
/// frequent at any pool size.
pub struct WriteSkewScenario;

struct WriteSkewState {
    pairs: Vec<TVar<(i64, i64)>>,
    halves: Vec<[TVar<i64>; 2]>,
    threads: usize,
}

impl Scenario for WriteSkewScenario {
    fn name(&self) -> &'static str {
        "write-skew"
    }

    fn summary(&self) -> &'static str {
        "read-a-pair-write-one-half two-account mix (separates SI from SER on mvcc)"
    }

    fn recordable(&self) -> bool {
        true
    }

    fn build(&self, stm: &Stm, config: &ScenarioConfig) -> Box<dyn ScenarioState> {
        let pairs: Vec<TVar<(i64, i64)>> =
            (0..(config.vars / 2).max(1)).map(|_| stm.alloc((0i64, 0i64))).collect();
        let halves = pairs
            .iter()
            .map(|pair| {
                let base = pair.base();
                [TVar::from_base(base), TVar::from_base(stm_runtime::VarId(base.index() + 1))]
            })
            .collect();
        Box::new(WriteSkewState { pairs, halves, threads: config.threads })
    }
}

impl ScenarioState for WriteSkewState {
    fn run_txn(&self, stm: &Stm, thread: usize, seq: u64, rng: &mut StdRng) {
        // A hot pair keeps overlap frequent regardless of the pool size.
        let idx = if rng.gen_bool(0.5) { 0 } else { rng.gen_range(0..self.pairs.len()) };
        let pair = self.pairs[idx];
        let half = self.halves[idx][thread % 2];
        let value = token(thread, seq + 1);
        stm.run(|tx| {
            // The whole pair from one snapshot — the "check the invariant
            // over both accounts" read of the classic anomaly …
            let (a, b) = tx.read(pair)?;
            // … a deliberation window standing in for the decision logic
            // between check and act (what makes the anomaly reachable in
            // practice: snapshots taken before either side commits).  The
            // yield hands the core to an overlapping partner even on a
            // single-CPU host, so the separation is observable everywhere …
            let _ = std::hint::black_box(a ^ b);
            std::thread::yield_now();
            // … then a write to only one half: disjoint from a
            // different-parity overlapper, hence invisible to
            // first-committer-wins.
            tx.write(half, value)
        });
    }

    fn words(&self) -> usize {
        self.pairs.len() * 2
    }

    fn verify(&self, stm: &Stm) -> ScenarioCheck {
        let flat: Vec<TVar<i64>> = self.halves.iter().flatten().copied().collect();
        check_tokens(stm, &flat, self.threads)
    }
}

// ---------------------------------------------------------------------------
// bank — the classic transfer workload, ported onto the Scenario API
// ---------------------------------------------------------------------------

/// The bank-transfer workload as a scenario.  Not recordable (balances are
/// not unique tokens), but it carries the strongest *self*-check: the total
/// balance must be conserved on every consistent backend.
pub struct BankScenario {
    /// Template for the bank shape; `accounts` is overridden by
    /// [`ScenarioConfig::vars`].
    pub template: BankConfig,
}

impl Default for BankScenario {
    fn default() -> Self {
        BankScenario { template: BankConfig { cross_fraction: 0.2, ..BankConfig::default() } }
    }
}

struct BankState {
    bank: Bank,
    threads: usize,
}

impl Scenario for BankScenario {
    fn name(&self) -> &'static str {
        "bank"
    }

    fn summary(&self) -> &'static str {
        "transfer transactions with a conserved-total invariant (throughput classic)"
    }

    fn recordable(&self) -> bool {
        false // balances are not globally-unique write values
    }

    fn build(&self, stm: &Stm, config: &ScenarioConfig) -> Box<dyn ScenarioState> {
        let bank_config = BankConfig { accounts: config.vars, ..self.template };
        Box::new(BankState { bank: Bank::new(stm, bank_config), threads: config.threads })
    }
}

impl ScenarioState for BankState {
    fn run_txn(&self, stm: &Stm, thread: usize, _seq: u64, rng: &mut StdRng) {
        let (from, to) = self.bank.pick_accounts(thread, self.threads, rng);
        self.bank.transfer(stm, from, to, 5);
    }

    fn words(&self) -> usize {
        self.bank.len()
    }

    fn verify(&self, stm: &Stm) -> ScenarioCheck {
        let total = self.bank.total(stm);
        let expected = self.bank.expected_total();
        ScenarioCheck {
            invariant: Some(total == expected),
            detail: format!("total balance {total} (expected {expected})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::all_scenarios;
    use rand::SeedableRng;
    use stm_runtime::registry::{OBSTRUCTION_FREE, PRAM_LOCAL, TL2_BLOCKING};

    fn tiny_config(backend: impl Into<stm_runtime::BackendId>) -> ScenarioConfig {
        ScenarioConfig { threads: 2, txns_per_thread: 40, vars: 8, ..ScenarioConfig::new(backend) }
    }

    #[test]
    fn every_scenario_runs_single_threaded_on_every_builtin_backend() {
        for kind in [TL2_BLOCKING, OBSTRUCTION_FREE, PRAM_LOCAL] {
            for scenario in all_scenarios() {
                let config = tiny_config(kind);
                let stm = Stm::new(config.backend);
                let state = scenario.build(&stm, &config);
                assert_eq!(state.words(), config.vars, "{}", scenario.name());
                let mut rng = StdRng::seed_from_u64(1);
                for seq in 0..20 {
                    state.run_txn(&stm, 0, seq, &mut rng);
                    state.run_txn(&stm, 1, seq, &mut rng);
                }
                let check = state.verify(&stm);
                assert_ne!(
                    check.invariant,
                    Some(false),
                    "{} on {kind:?}: {}",
                    scenario.name(),
                    check.detail
                );
            }
        }
    }

    #[test]
    fn tokens_encode_thread_and_sequence() {
        assert_ne!(token(0, 1), token(1, 1));
        assert_ne!(token(0, 1), token(0, 2));
        assert!(token_valid(token(0, 1), 1));
        assert!(token_valid(0, 4));
        assert!(!token_valid(token(5, 1), 2), "token from a thread that never ran");
        assert!(!token_valid(-3, 4));
    }

    #[test]
    fn bank_scenario_detects_its_own_invariant() {
        let config = tiny_config(OBSTRUCTION_FREE);
        let stm = Stm::new(config.backend);
        let scenario = BankScenario::default();
        assert!(!scenario.recordable());
        let state = scenario.build(&stm, &config);
        let mut rng = StdRng::seed_from_u64(7);
        for seq in 0..50 {
            state.run_txn(&stm, 0, seq, &mut rng);
        }
        let check = state.verify(&stm);
        assert_eq!(check.invariant, Some(true), "{}", check.detail);
    }
}
