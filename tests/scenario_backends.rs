//! End-to-end acceptance for the scenario and backend APIs: every row of the
//! backend table resolves by name with no set-up call, README's P/C/L table
//! is that table, scenarios other than `bank` run through the scenario
//! runner's audit plans and produce verdicts, names parse through the
//! registries (with helpful unknown-name errors), and retry policies and the
//! attempt histogram flow into the reports.

use pcl_tm::audit::{Level, WindowConfig};
use pcl_tm::stm::{registry, BackendId};
use workloads::{
    run_live, run_scenario, scenario_by_name, AuditPlan, LivePlan, ScenarioConfig, Verdict,
};

fn config(backend: impl Into<BackendId>, threads: usize, txns: usize) -> ScenarioConfig {
    ScenarioConfig { threads, txns_per_thread: txns, vars: 16, ..ScenarioConfig::new(backend) }
}

#[test]
fn the_backend_table_is_six_fixed_rows_that_resolve_without_set_up(
) -> Result<(), Box<dyn std::error::Error>> {
    let stm = pcl_tm::stm::Stm::new("global-lock".parse::<BackendId>()?);
    let x = stm.alloc(1i64);
    stm.run(|tx| tx.update(x, |v| v + 1));
    assert_eq!(stm.read_now(x), 2);
    let names: Vec<&str> = registry::all_ids().into_iter().map(BackendId::name).collect();
    assert_eq!(
        names,
        ["global-lock", "mvcc", "obstruction-free", "pram-local", "shard-lock", "tl2-blocking"]
    );
    Ok(())
}

/// README's "which backend gives up what" table is the registry's rows,
/// verbatim: a spec edit that README does not follow fails here.
#[test]
fn readme_backend_table_is_the_registry() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("reading README.md");
    for spec in registry::all() {
        let t = &spec.triangle;
        let row = format!(
            "| `{}` | {} | {} | {} | {} |",
            spec.name, t.sacrificed, t.parallelism, t.consistency, t.liveness
        );
        assert!(readme.lines().any(|line| line == row), "README.md lacks the row\n{row}");
    }
}

#[test]
fn global_lock_backend_is_audited_end_to_end() {
    // The name resolves through the registry (not an enum) …
    let glock: BackendId = "global-lock".parse().expect("a row of the table");
    // … and a non-bank scenario runs and is proven serializable on it.
    let scenario = scenario_by_name("kv-zipf").unwrap();
    let plan = LivePlan::new(AuditPlan::Batch(Default::default()));
    let report = run_live(scenario.as_ref(), &config(glock, 4, 200), plan).unwrap();
    assert_eq!(report.run.scenario, "kv-zipf");
    let audit = report.verdict.as_ref().expect("batch plan").merged();
    for level in Level::ALL {
        assert!(audit.passes(level), "{level}: {audit}");
    }
    assert_eq!(report.run.check.invariant, Some(true), "{}", report.run.check.detail);
}

#[test]
fn scan_writers_scenario_streams_to_a_verdict_on_every_builtin() {
    let scenario = scenario_by_name("scan-writers").unwrap();
    let streamed = |config: ScenarioConfig, window: usize| {
        let plan = LivePlan::new(AuditPlan::Windowed(WindowConfig::sized(window)));
        match run_live(scenario.as_ref(), &config, plan).unwrap().verdict {
            Some(Verdict::Windowed(stream)) => stream,
            other => panic!("a windowed plan yields a windowed verdict, got {other:?}"),
        }
    };
    for backend in [registry::TL2_BLOCKING, registry::OBSTRUCTION_FREE] {
        let stream = streamed(config(backend, 3, 200), 100);
        assert_eq!(stream.total_txns, 600, "{backend}");
        for level in Level::ALL {
            assert!(!stream.fails(level), "{backend}: {level}: {}", stream.merged);
        }
    }
    // The consistency-sacrificing backend is convicted on the same scenario.
    let stream = streamed(config(registry::PRAM_LOCAL, 4, 400), 150);
    assert!(stream.fails(Level::Serializable), "{}", stream.merged);
}

#[test]
fn unknown_names_fail_with_the_registered_lists() {
    let backend_err = "no-such-backend".parse::<BackendId>().unwrap_err();
    assert!(backend_err.known.contains(&"global-lock"), "{backend_err}");
    let scenario_err = scenario_by_name("no-such-scenario").unwrap_err();
    assert!(scenario_err.known.contains(&"scan-writers"), "{scenario_err}");
}

#[test]
fn retry_policies_and_attempt_percentiles_reach_the_report() {
    use pcl_tm::stm::policy::parse_policy;
    let scenario = scenario_by_name("registers").unwrap();
    let mut cfg = config(registry::OBSTRUCTION_FREE, 4, 250);
    cfg.policy = parse_policy("backoff:8:512").unwrap();
    let report = run_scenario(scenario.as_ref(), &cfg);
    assert_eq!(report.config.policy.name(), "backoff");
    assert_eq!(report.commits, 1_000);
    assert!(report.attempts_p50 >= 1);
    assert!(report.attempts_p99 >= report.attempts_p50);
    assert!(report.attempts_mean >= 1.0);
}

#[test]
fn typed_tvars_work_through_the_facade() {
    let stm = pcl_tm::stm::Stm::new(registry::TL2_BLOCKING);
    let pair = stm.alloc((0i64, false));
    let history = stm.alloc([0i64; 4]);
    stm.run(|tx| {
        let (n, _) = tx.read(pair)?;
        tx.write(pair, (n + 1, true))?;
        tx.update(history, |mut h| {
            h.rotate_right(1);
            h[0] = n + 1;
            h
        })?;
        Ok(())
    });
    assert_eq!(stm.read_now(pair), (1, true));
    assert_eq!(stm.read_now(history), [1, 0, 0, 0]);
}
