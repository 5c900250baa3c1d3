//! Satellite: ingestion equivalence.  Live-captured histories survive the
//! wire format losslessly, and a live audited run and a replay of its
//! exported-then-decoded history must agree **byte for byte** — same merged
//! verdict JSON — across seeds, backends and both audited plans.
//!
//! The capture tees off *after* the stream merger, so the exported document
//! records exactly the transaction stream the live auditor consumed (same
//! order, same hints); replaying it under the same plan must therefore
//! reproduce the live verdicts, not merely agree on pass/fail.

use stm_runtime::BackendId;
use tm_audit::{AuditHistory, AuditOptions, WindowConfig};
use tm_history::{decode, encode, Decoder};
use workloads::{run_live, scenario_by_name, AuditPlan, LivePlan, ScenarioConfig, Verdict};

const BUDGET: u64 = 2_000_000;
const BACKENDS: [BackendId; 4] = [
    stm_runtime::registry::TL2_BLOCKING,
    stm_runtime::registry::OBSTRUCTION_FREE,
    stm_runtime::registry::PRAM_LOCAL,
    stm_runtime::registry::MVCC,
];

fn run_config(backend: BackendId, seed: u64) -> ScenarioConfig {
    ScenarioConfig { backend, threads: 2, txns_per_thread: 60, vars: 12, seed }
}

/// Batch and rolling windows.
fn plans() -> [AuditPlan; 2] {
    let mut window = WindowConfig::sized(64);
    window.budget = BUDGET;
    [AuditPlan::Batch(AuditOptions { budget: BUDGET, sat: None }), AuditPlan::Windowed(window)]
}

/// A live-captured `registers` history (capture on, no audit).
fn captured(config: &ScenarioConfig) -> AuditHistory {
    let plan = LivePlan { capture: true, ..LivePlan::new(AuditPlan::Off) };
    let scenario = scenario_by_name("registers").expect("built-in scenario");
    run_live(scenario.as_ref(), config, plan).expect("recorded run").history.expect("captured")
}

/// Lossless round trip: encoding a live-captured history and decoding it
/// back yields the *same* history, and re-encoding yields the same bytes.
#[test]
fn fifty_live_histories_round_trip_identically() {
    for seed in 0..50u64 {
        let backend = BACKENDS[(seed % BACKENDS.len() as u64) as usize];
        let config = ScenarioConfig {
            threads: 3,
            txns_per_thread: 40,
            ..run_config(backend, 0xC0FFEE ^ seed)
        };
        let history = captured(&config);
        let doc = encode(&history);
        let decoded = match decode(&doc) {
            Ok(decoded) => decoded,
            Err(e) => panic!("seed {seed}: captured history failed to decode: {e}"),
        };
        assert_eq!(decoded, history, "seed {seed}: decode(encode(h)) != h");
        assert_eq!(encode(&decoded), doc, "seed {seed}: re-encode is not byte-identical");
    }
}

/// A [`Decoder`] over a multi-document export returns every history in
/// order.
#[test]
fn the_decoder_streams_multi_document_exports() {
    let histories = [7, 8].map(|seed| {
        captured(&ScenarioConfig {
            threads: 4,
            txns_per_thread: 25,
            vars: 32,
            ..run_config(stm_runtime::registry::TL2_BLOCKING, seed)
        })
    });
    let mut doc = String::new();
    for history in &histories {
        doc.push_str(&encode(history));
        doc.push('\n');
    }
    let mut decoder = Decoder::new(doc.as_bytes());
    for history in &histories {
        assert_eq!(&decoder.next_history().expect("document decodes").expect("document"), history);
    }
    assert_eq!(decoder.next_history(), Ok(None));
}

/// Run `scenario` live under `plan` with capture on; returns the live
/// verdict and the captured history after a wire round trip.
fn live_and_decoded(
    scenario: &str,
    config: &ScenarioConfig,
    plan: AuditPlan,
) -> (Verdict, AuditHistory) {
    let scenario = scenario_by_name(scenario).expect("built-in scenario");
    let report =
        run_live(scenario.as_ref(), config, LivePlan { capture: true, ..LivePlan::new(plan) })
            .expect("audited run");
    let history = report.history.expect("capture was requested");
    let decoded = decode(&encode(&history)).expect("export decodes");
    assert_eq!(decoded, history, "{plan:?} on {}: wire round trip", config.backend);
    (report.verdict.expect("audited plan"), decoded)
}

/// 50 seeds, backends rotated so every backend sees many seeds, and both
/// plans checked per seed.
#[test]
fn exported_histories_replay_to_identical_verdicts() {
    for seed in 0..50u64 {
        let backend = BACKENDS[(seed % BACKENDS.len() as u64) as usize];
        let config = run_config(backend, 0x5EED ^ seed);
        for plan in plans() {
            let (live, decoded) = live_and_decoded("registers", &config, plan);
            let replay = Verdict::audit(&decoded, &plan).expect("audited plan");
            assert_eq!(
                replay.merged().to_json(),
                live.merged().to_json(),
                "seed {seed} on {backend}: {plan:?} replay verdict diverged"
            );
        }
    }
}

/// The capture must see exactly what the auditor saw even for scenarios
/// whose live verdict is a conviction: the SI/SER-separating write-skew
/// scenario on mvcc replays to the same violation witness text.
#[test]
fn convicting_runs_replay_their_violations_verbatim() {
    let config = run_config(stm_runtime::registry::MVCC, 2024);
    let [batch, ..] = plans();
    let (live, decoded) = live_and_decoded("write-skew", &config, batch);
    let replay = Verdict::audit(&decoded, &batch).expect("audited plan");
    assert_eq!(replay.merged().to_json(), live.merged().to_json(), "conviction replay diverged");
}
