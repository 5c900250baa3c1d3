//! Cross-validation of the two checker families (dbcop's `cross_check.rs`
//! style): random small scenarios run through the deterministic simulator,
//! the resulting execution is checked by `tm-consistency`'s value-based
//! serializability search **and**, after conversion through `tm-audit`'s
//! adapter, by the history-based constrained-linearization search.  The two
//! verdicts must agree on every case, and every adapter-built history must
//! cross the wire format unchanged.
//!
//! Scenarios use one transaction per process (both definitions then quantify
//! over the same commit orders) and globally-unique write values (the
//! history-side write-read inference contract).

use pcl_tm::algorithms::{OfDapCandidate, TransactionalLocking};
use pcl_tm::audit::{audit, from_execution, Level};
use pcl_tm::consistency::serializability::check_serializability;
use pcl_tm::model::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 40;
const N_PROCS: usize = 3;

/// A random scenario with one transaction per process and globally-unique
/// write values.
fn random_scenario(rng: &mut StdRng) -> Scenario {
    let mut next_value = 0i64;
    let mut builder = Scenario::builder();
    for p in 0..N_PROCS {
        let ops: Vec<(bool, String, i64)> = (0..rng.gen_range(1..4usize))
            .map(|_| {
                let item = format!("x{}", rng.gen_range(0..3usize));
                next_value += 1;
                (rng.gen_bool(0.5), item, next_value)
            })
            .collect();
        builder = builder.tx(p, format!("T{}", p + 1), |mut t| {
            for (is_read, item, value) in &ops {
                if *is_read {
                    t = t.read(item.as_str());
                } else {
                    t = t.write(item.as_str(), *value);
                }
            }
            t
        });
    }
    builder.build()
}

fn random_schedule(rng: &mut StdRng) -> Schedule {
    let mut schedule = Schedule::new();
    for _ in 0..rng.gen_range(0..30usize) {
        schedule.push(Directive::Step(ProcId(rng.gen_range(0..N_PROCS))));
    }
    for p in 0..N_PROCS {
        schedule.push(Directive::RunUntilTxDone(ProcId(p)));
    }
    schedule
}

fn cross_check(algo: &dyn TmAlgorithm, seed_base: u64) {
    let mut agreements = 0u64;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed_base + seed);
        let scenario = random_scenario(&mut rng);
        let schedule = random_schedule(&mut rng);
        let sim = Simulator::new(algo, &scenario).with_step_limit(4_000);
        let out = sim.run(&schedule);
        if !out.all_committed() {
            // The execution-side checker may serialize commit-pending
            // transactions the history-side auditor never sees; only fully
            // committed runs are comparable verdict-for-verdict.
            continue;
        }

        let execution_verdict = check_serializability(&out.execution).satisfied;
        let history = from_execution(&out.execution, 0);
        // Every comparable run crosses the wire unchanged, a simulated
        // transaction that read one item twice and saw two values included.
        match tm_history::decode(&tm_history::encode(&history)) {
            Ok(decoded) => assert_eq!(decoded, history, "seed {seed}: wire round trip"),
            Err(e) => panic!("seed {seed}: the adapter-built history does not decode: {e}"),
        }
        let report = audit(&history);
        let history_verdict = report.passes(Level::Serializable);
        assert!(
            !report
                .levels
                .iter()
                .any(|l| matches!(l.outcome, pcl_tm::audit::Outcome::Unknown { .. })),
            "seed {seed}: tiny scenarios must never exhaust the search budget"
        );
        assert_eq!(
            execution_verdict,
            history_verdict,
            "seed {seed}: execution-based and history-based serializability \
             verdicts disagree\nexecution:\n{}\naudit:\n{report}",
            out.execution.render(),
        );
        agreements += 1;
    }
    assert!(agreements >= CASES / 2, "too few comparable runs: {agreements}");
}

#[test]
fn audit_agrees_with_execution_checker_on_the_ofdap_candidate() {
    cross_check(&OfDapCandidate::new(), 9_000);
}

#[test]
fn audit_agrees_with_execution_checker_on_transactional_locking() {
    cross_check(&TransactionalLocking::new(), 10_000);
}

/// The hierarchy must be monotone on every adapted execution: a pass at a
/// stronger level implies a pass at every weaker level.
#[test]
fn audit_hierarchy_is_monotone_on_simulated_executions() {
    let algo = OfDapCandidate::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(11_000 + seed);
        let scenario = random_scenario(&mut rng);
        let schedule = random_schedule(&mut rng);
        let out = Simulator::new(&algo, &scenario).with_step_limit(4_000).run(&schedule);
        if !out.all_committed() {
            continue;
        }
        let report = audit(&from_execution(&out.execution, 0));
        let pass: Vec<bool> = Level::ALL.iter().map(|&l| report.passes(l)).collect();
        for stronger in 1..pass.len() {
            for weaker in 0..stronger {
                assert!(
                    !pass[stronger] || pass[weaker],
                    "seed {seed}: {:?} passed but {:?} failed\n{report}",
                    Level::ALL[stronger],
                    Level::ALL[weaker],
                );
            }
        }
    }
}
