//! Randomized property tests for the core invariants of the model and of the
//! consistency hierarchy, plus cross-crate sanity checks on randomized schedules.
//!
//! The container this workspace builds in has no registry access, so instead of
//! `proptest` these properties run over explicitly seeded random scenarios from
//! the workspace `rand` shim: same coverage style (dozens of random cases per
//! property), fully deterministic, and failures print the offending seed.

use pcl_tm::algorithms::{all_algorithms, OfDapCandidate, TransactionalLocking};
use pcl_tm::consistency::{
    pram::check_pram, processor::check_processor_consistency,
    serializability::check_serializability, serializability::check_strict_serializability,
    snapshot_isolation::check_snapshot_isolation, weak_adaptive::check_weak_adaptive,
};
use pcl_tm::model::prelude::*;
use pcl_tm::properties::dap::check_strict_dap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// Build a small random scenario: `n_procs` processes, one transaction each, every
/// transaction reading and writing a couple of items drawn from a tiny namespace.
fn random_scenario(rng: &mut StdRng, n_procs: usize, n_items: usize) -> Scenario {
    let mut builder = Scenario::builder();
    for p in 0..n_procs {
        let ops: Vec<(bool, String, i64)> = (0..rng.gen_range(1..4usize))
            .map(|_| {
                let item = format!("x{}", rng.gen_range(0..n_items));
                let is_read = rng.gen_bool(0.5);
                let value = rng.gen_range(1..100i64);
                (is_read, item, value)
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

/// A random schedule interleaving single steps of each process, ending with everyone
/// running to completion.
fn random_schedule(rng: &mut StdRng, n_procs: usize) -> Schedule {
    let mut schedule = Schedule::new();
    for _ in 0..rng.gen_range(0..30usize) {
        schedule.push(Directive::Step(ProcId(rng.gen_range(0..n_procs))));
    }
    for p in 0..n_procs {
        schedule.push(Directive::RunUntilTxDone(ProcId(p)));
    }
    schedule
}

/// The simulator is deterministic: the same (algorithm, scenario, schedule)
/// triple always produces the same execution.
#[test]
fn simulator_is_deterministic() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = random_scenario(&mut rng, 3, 4);
        let schedule = random_schedule(&mut rng, 3);
        let algo = OfDapCandidate::new();
        let sim = Simulator::new(&algo, &scenario).with_step_limit(2_000);
        let a = sim.run(&schedule);
        let b = sim.run(&schedule);
        assert_eq!(a.execution, b.execution, "seed {seed}");
    }
}

/// Histories recorded by the simulator are always well-formed, and the
/// consistency hierarchy is respected on every execution we can produce:
/// strict serializability ⇒ serializability, processor consistency ⇒ PRAM, and
/// snapshot isolation ∨ processor consistency ⇒ weak adaptive consistency.
#[test]
fn hierarchy_holds_on_random_executions() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let scenario = random_scenario(&mut rng, 3, 3);
        let schedule = random_schedule(&mut rng, 3);
        let algo = OfDapCandidate::new();
        let sim = Simulator::new(&algo, &scenario).with_step_limit(2_000);
        let out = sim.run(&schedule);
        let exec = &out.execution;
        assert!(exec.history().is_well_formed(), "seed {seed}");

        let strict = check_strict_serializability(exec).satisfied;
        let ser = check_serializability(exec).satisfied;
        let si = check_snapshot_isolation(exec).satisfied;
        let pc = check_processor_consistency(exec).satisfied;
        let pram = check_pram(exec).satisfied;
        let wac = check_weak_adaptive(exec).satisfied;

        assert!(!strict || ser, "seed {seed}: strict serializability must imply serializability");
        assert!(!pc || pram, "seed {seed}: processor consistency must imply PRAM");
        assert!(!(si || pc) || wac, "seed {seed}: SI or PC must imply weak adaptive consistency");
    }
}

/// The OF-DAP candidate never touches anything but per-item registers, so strict
/// DAP holds on every schedule; and every transaction eventually commits.
#[test]
fn ofdap_candidate_is_always_strictly_dap_and_commits() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let scenario = random_scenario(&mut rng, 3, 4);
        let schedule = random_schedule(&mut rng, 3);
        let algo = OfDapCandidate::new();
        let sim = Simulator::new(&algo, &scenario).with_step_limit(2_000);
        let out = sim.run(&schedule);
        assert!(out.all_committed(), "seed {seed}");
        assert!(check_strict_dap(&out.execution, &scenario).satisfied(), "seed {seed}");
    }
}

/// The lock-based algorithm keeps strict DAP and strict serializability on every
/// schedule in which all transactions manage to complete.
#[test]
fn tl_is_strictly_serializable_whenever_it_completes() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3_000 + seed);
        let scenario = random_scenario(&mut rng, 3, 3);
        let schedule = random_schedule(&mut rng, 3);
        let algo = TransactionalLocking::new();
        let sim = Simulator::new(&algo, &scenario).with_step_limit(4_000);
        let out = sim.run(&schedule);
        assert!(check_strict_dap(&out.execution, &scenario).satisfied(), "seed {seed}");
        if out.all_committed() {
            assert!(check_strict_serializability(&out.execution).satisfied, "seed {seed}");
        }
    }
}

#[test]
fn every_algorithm_commits_the_paper_scenario_when_run_sequentially() {
    let scenario = pcl_tm::theorem::pcl_scenario();
    for algo in all_algorithms() {
        let sim = Simulator::new(algo.as_ref(), &scenario).with_step_limit(5_000);
        let out = sim.run(&Schedule::solo_sequence(&scenario));
        assert!(out.all_committed(), "{} failed the sequential run", algo.name());
        assert!(out.execution.history().is_well_formed());
    }
}

#[test]
fn real_stm_backends_agree_with_their_simulated_counterparts_on_the_bank_invariant() {
    use pcl_tm::stm::registry::{OBSTRUCTION_FREE, TL2_BLOCKING};
    use pcl_tm::stm::Stm;
    for kind in [TL2_BLOCKING, OBSTRUCTION_FREE] {
        let stm = Stm::new(kind);
        let a = stm.alloc(50);
        let b = stm.alloc(50);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..250 {
                        stm.run(|tx| {
                            let va = tx.read(a)?;
                            if va > 0 {
                                tx.write(a, va - 1)?;
                                let vb = tx.read(b)?;
                                tx.write(b, vb + 1)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(stm.read_now(a) + stm.read_now(b), 100, "{kind:?}");
    }
}
