//! `audit` — run any scenario against any registered STM backend and audit
//! its consistency from the command line, no Rust required.
//!
//! ```text
//! cargo run --release -p workloads --bin audit -- --backend pram --audit=1000
//! cargo run --release -p workloads --bin audit -- --backend all --scenario kv-zipf \
//!     --threads 4 --txns 2500 --audit --json audit-report.json
//! cargo run --release -p workloads --bin audit -- --backend global-lock \
//!     --scenario scan-writers --retry backoff --audit
//! ```
//!
//! Flags:
//!
//! * `--backend NAME|all` — any backend registered with
//!   `stm_runtime::registry` (canonical name or alias: `tl2`, `ofree`,
//!   `pram`, `mvcc`, `shard-lock`, `global-lock`, …; default `all`).
//!   `all` iterates the registry **sorted by name**, so multi-backend output
//!   and `--json` reports are diff-stable;
//! * `--scenario NAME|all` — any scenario from `workloads::all_scenarios()`
//!   (`registers`, `kv-zipf`, `scan-writers`, `write-skew`, `bank`; default
//!   `registers`).  `write-skew` on `mvcc` is the SI/SER separator: the
//!   audited run reports SI pass and a serializability violation with a
//!   write-skew witness;
//! * `--retry POLICY` — contention-manager retry pacing: `immediate`,
//!   `bounded:N`, `backoff[:BASE:MAX[:TOTAL]]`, `karma[:BASE]`,
//!   `timestamp[:BASE]` or `adaptive[:BASE:MAX]` (default `immediate`; see
//!   `stm_runtime::policy::POLICY_SPECS` for every spelling);
//! * `--threads N` — worker threads = audit sessions (default 4);
//! * `--txns N` — committed transactions per thread (default 2500);
//! * `--vars N` — scenario variable pool size (default 64);
//! * `--seed N` — workload seed (default 2024);
//! * `--audit[=SPEC]` — audit the run: bare `--audit` checks the whole
//!   history in one batch; `--audit=WINDOW` (a number) streams it through
//!   rolling windows of `WINDOW` transactions, concurrently with the
//!   workload, with bounded memory (the mode that scales past ~10⁵
//!   transactions); `--audit=window[:size=N][:shards=K][:overlap=M]` is the
//!   full streaming spec — `shards=K` fans the stream out to `K`
//!   per-variable-partition windowed auditors plus a cross-partition
//!   escalation lane, so audit throughput scales with cores (see
//!   `tm-audit::partition` for the soundness statement).  `--adaptive` adds
//!   the live band router on top: the lag sampler re-bands hot variable
//!   partitions onto cooler auditor lanes mid-stream (verdicts stay sound;
//!   routing is no longer reproducible across runs).  Only *recordable*
//!   scenarios (unique write values) can be audited: asking for an audited
//!   `bank` run is an error, and `--scenario all` skips it with a note;
//! * `--overlap N` — window overlap for streaming mode (default WINDOW/8);
//! * `--budget N` — SI/SER search state budget (default 2,000,000);
//! * `--sat[=conflicts=N[:max-txns=N][:force]]` — escalate any NP-hard level
//!   the DFS left `Unknown` to the `tm-sat` CDCL commit-order solver: UNSAT
//!   convicts (with the forced cycle as witness), a model passes (with the
//!   decoded commit order), and verdicts carry `decided_by:
//!   "hint"|"dfs"|"sat"` provenance everywhere a report lands (stdout,
//!   `--json`, serve records) — `"hint"` for a history or window whose
//!   recording order verified as a serial order, which certifies all six
//!   levels in one pass and runs neither the DFS nor the solver.
//!   `conflicts=N` bounds solver effort per window (exhaustion keeps
//!   `Unknown`, with the retry hint recomputed as a conflict budget);
//!   `max-txns=N` caps the window size the cubic encoding is materialized
//!   for; `force` decides every NP-hard level by SAT alone (the differential
//!   cross-check lane).  Applies to every mode: batch, streaming windows,
//!   sharded lanes and `--ingest` replays;
//! * `--export PATH` — capture the run's commit history exactly as the
//!   auditor saw it (post-merge order, auditor-assigned hints) and write it
//!   to PATH in the `tm-history` wire format (see `docs/history-format.md`).
//!   Needs exactly one scenario and one backend, both recordable; composes
//!   with every audit mode — without `--audit` the run is recorded but not
//!   checked;
//! * `--ingest FILE|-` — skip the workload entirely: decode wire-format
//!   history documents from FILE (or stdin when the argument is `-`) and
//!   audit each one through the configured mode (batch unless a streaming
//!   or sharded `--audit=` spec is given).  Verdicts print per document and
//!   land under `"ingest"` in the `--json` report; `--fail-on-violation`
//!   covers ingested documents exactly like live runs.  Combined with
//!   `--serve`, the endpoint audits newline-delimited history documents
//!   from stdin instead of generating traffic: one `ingest-verdict` record
//!   per document, and a positioned `ingest-error` record (followed by a
//!   resync at the next blank line) for each malformed document;
//! * `--serve` — the long-running ops endpoint: keep the process alive
//!   running audited rounds of the chosen scenario back to back, tailing
//!   line-delimited JSON records (per-window verdicts, convictions,
//!   per-partition lag, per-round merged verdicts) to stdout — and to
//!   `--sink PATH` — until SIGTERM/ctrl-c, which finishes the current round
//!   and shuts down cleanly.  Requires one scenario and one backend; implies
//!   `--audit=window:shards=4` unless a streaming spec is given;
//! * `--serve-rounds N` — stop serving after N rounds (0 = until signal).
//!   A second SIGTERM/SIGINT while a round is still draining exits
//!   immediately with status 130 instead of waiting for the boundary;
//! * `--wal DIR` — crash-consistent commit logging for `--serve`: every
//!   committed transaction is appended to `DIR/round-NNNN/` (in the
//!   `tm-history` wire format, so the concatenated segments of a round are
//!   ingestible as-is) *before* it reaches the auditor; segments seal with
//!   length+CRC framing at window boundaries and each seal persists the
//!   auditor's committed frontier.  Forces the streaming (single-auditor)
//!   topology — the log is the merged stream, which the sharded pipeline
//!   does not have.  See `docs/recovery.md`;
//! * `--recover DIR` — finish auditing the rounds a killed process left
//!   behind: torn tails are truncated to the last sealed-or-complete line,
//!   the newest frontier snapshot is verified as a legal prefix of the
//!   surviving log (the continuation check), the auditor resumes from it
//!   and replays the suffix.  Standalone it prints one `recovered-verdict`
//!   record per round (and a `--json` report with `"recovered":true`);
//!   combined with `--serve --wal` the endpoint recovers first, then keeps
//!   serving at the next free round index;
//! * `--sink PATH` — also append every serve record to PATH (a file another
//!   process can tail);
//! * `--metrics` — turn the telemetry spine on (`tm-telemetry`): runs report
//!   per-backend commit/abort counters (aborts broken down by reason),
//!   per-phase latency histograms and auditor gauges.  Batch/streaming runs
//!   print the full snapshot after the run and embed it under `"telemetry"`
//!   in the `--json` document; `--serve` additionally streams periodic
//!   `{"type":"metrics"}` records, and dumps the runtime's bounded event
//!   ring as one `{"type":"post-mortem"}` record on the first conviction;
//! * `--json PATH` — additionally write the machine-readable report
//!   (throughput, attempt percentiles, per-level verdicts) to PATH;
//! * `--fail-on-violation` — exit 1 if any audited run shows a definite
//!   violation or a scenario self-check fails;
//! * `--list` — print the registered backends (with their P/C/L triangle
//!   positions) and scenarios, then exit.
//!
//! Without `--audit` the workload runs unrecorded and only throughput,
//! attempt percentiles and the scenario's own invariant are reported.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use stm_runtime::{policy, BackendId, RetryPolicy};
use tm_audit::linearization::DEFAULT_STATE_BUDGET;
use tm_audit::report::json_escape;
use tm_audit::{
    audit_sharded, audit_streamed, audit_with_options, AuditHistory, AuditOptions, PartitionLag,
    SatConfig, ShardConfig, ShardEvent, WindowConfig,
};
use tm_history::{decode_all, encode, Decoder};
use workloads::{
    all_scenarios, run_scenario, run_scenario_audited_sharded,
    run_scenario_audited_sharded_captured, run_scenario_audited_streaming,
    run_scenario_audited_streaming_captured, run_scenario_audited_with,
    run_scenario_audited_with_captured, run_scenario_captured, scenario_by_name, Scenario,
    ScenarioConfig,
};

#[derive(Debug, Clone, Copy, PartialEq)]
enum AuditMode {
    Off,
    Batch,
    Streaming { window: usize },
    Sharded { window: usize, shards: usize },
}

/// Parse the value of `--audit=SPEC`: a bare number (legacy window size) or
/// `window[:size=N][:shards=K][:overlap=M]`.  Returns the mode plus the
/// spec's overlap override, if any.
fn parse_audit_spec(spec: &str) -> Result<(AuditMode, Option<usize>), String> {
    if let Ok(window) = spec.parse::<usize>() {
        if window < 2 {
            return Err("--audit=WINDOW needs WINDOW ≥ 2".into());
        }
        return Ok((AuditMode::Streaming { window }, None));
    }
    let mut parts = spec.split(':');
    if parts.next() != Some("window") {
        return Err(format!(
            "--audit={spec:?}: expected a window size or window[:size=N][:shards=K][:overlap=M]"
        ));
    }
    let (mut size, mut shards, mut overlap) = (2_048usize, None::<usize>, None::<usize>);
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("--audit spec element {part:?} is not key=value"))?;
        let parsed: usize =
            value.parse().map_err(|e| format!("--audit spec {key}={value:?}: {e}"))?;
        match key {
            "size" => size = parsed,
            "shards" => shards = Some(parsed),
            "overlap" => overlap = Some(parsed),
            other => return Err(format!("--audit spec has no key {other:?}")),
        }
    }
    if size < 2 {
        return Err("--audit=window:size=N needs N ≥ 2".into());
    }
    let mode = match shards {
        Some(0) => return Err("--audit=window:shards=K needs K ≥ 1".into()),
        Some(k) => AuditMode::Sharded { window: size, shards: k },
        None => AuditMode::Streaming { window: size },
    };
    Ok((mode, overlap))
}

struct Args {
    backends: Vec<BackendId>,
    scenarios: Vec<Arc<dyn Scenario>>,
    /// `true` when `--scenario all` chose the list (non-recordable scenarios
    /// are then skipped, not errors, in audit modes).
    scenarios_are_all: bool,
    policy: Arc<dyn RetryPolicy>,
    threads: usize,
    txns: usize,
    vars: usize,
    seed: u64,
    mode: AuditMode,
    overlap: Option<usize>,
    budget: u64,
    sat: Option<SatConfig>,
    json: Option<String>,
    ingest: Option<String>,
    export: Option<String>,
    fail_on_violation: bool,
    list: bool,
    serve: bool,
    serve_rounds: u64,
    sink: Option<String>,
    metrics: bool,
    adaptive: bool,
    wal: Option<String>,
    recover: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            backends: stm_runtime::registry::all_ids(),
            scenarios: vec![scenario_by_name("registers").expect("built-in scenario")],
            scenarios_are_all: false,
            policy: Arc::new(policy::ImmediateRetry),
            threads: 4,
            txns: 2_500,
            vars: 64,
            seed: 2_024,
            mode: AuditMode::Off,
            overlap: None,
            budget: DEFAULT_STATE_BUDGET,
            sat: None,
            json: None,
            ingest: None,
            export: None,
            fail_on_violation: false,
            list: false,
            serve: false,
            serve_rounds: 0,
            sink: None,
            metrics: false,
            adaptive: false,
            wal: None,
            recover: None,
        }
    }
}

fn parse_backends(name: &str) -> Result<Vec<BackendId>, String> {
    if name == "all" {
        return Ok(stm_runtime::registry::all_ids());
    }
    name.parse::<BackendId>().map(|id| vec![id]).map_err(|e| e.to_string())
}

fn parse_scenarios(name: &str) -> Result<(Vec<Arc<dyn Scenario>>, bool), String> {
    if name == "all" {
        return Ok((all_scenarios(), true));
    }
    scenario_by_name(name).map(|s| (vec![s], false)).map_err(|e| e.to_string())
}

/// Parse the value of `--sat=SPEC`: `conflicts=N` / `max-txns=N` / `force`
/// elements separated by `:` (a bare number is shorthand for `conflicts=N`).
fn parse_sat_spec(spec: &str) -> Result<SatConfig, String> {
    let mut cfg = SatConfig::default();
    for part in spec.split(':').filter(|p| !p.is_empty()) {
        if let Ok(n) = part.parse::<u64>() {
            cfg.conflicts = n;
        } else if let Some(n) = part.strip_prefix("conflicts=") {
            cfg.conflicts = n.parse().map_err(|e| format!("--sat conflicts: {e}"))?;
        } else if let Some(n) = part.strip_prefix("max-txns=") {
            cfg.max_txns = n.parse().map_err(|e| format!("--sat max-txns: {e}"))?;
        } else if part == "force" {
            cfg.force = true;
        } else {
            return Err(format!("--sat: unknown element {part:?}"));
        }
    }
    if cfg.conflicts == 0 {
        return Err("--sat: conflicts must be positive".into());
    }
    Ok(cfg)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut spec_overlap = None;
    let mut it = argv.iter().peekable();
    let value_of = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                    flag: &str|
     -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--backend" => args.backends = parse_backends(&value_of(&mut it, "--backend")?)?,
            "--scenario" => {
                let (scenarios, all) = parse_scenarios(&value_of(&mut it, "--scenario")?)?;
                args.scenarios = scenarios;
                args.scenarios_are_all = all;
            }
            "--retry" => args.policy = policy::parse_policy(&value_of(&mut it, "--retry")?)?,
            "--threads" => {
                args.threads = value_of(&mut it, "--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--txns" => {
                args.txns =
                    value_of(&mut it, "--txns")?.parse().map_err(|e| format!("--txns: {e}"))?
            }
            "--vars" => {
                args.vars =
                    value_of(&mut it, "--vars")?.parse().map_err(|e| format!("--vars: {e}"))?
            }
            "--seed" => {
                args.seed =
                    value_of(&mut it, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--overlap" => {
                args.overlap = Some(
                    value_of(&mut it, "--overlap")?
                        .parse()
                        .map_err(|e| format!("--overlap: {e}"))?,
                )
            }
            "--budget" => {
                args.budget =
                    value_of(&mut it, "--budget")?.parse().map_err(|e| format!("--budget: {e}"))?
            }
            "--json" => args.json = Some(value_of(&mut it, "--json")?),
            "--ingest" => args.ingest = Some(value_of(&mut it, "--ingest")?),
            "--export" => args.export = Some(value_of(&mut it, "--export")?),
            "--sink" => args.sink = Some(value_of(&mut it, "--sink")?),
            "--wal" => args.wal = Some(value_of(&mut it, "--wal")?),
            "--recover" => args.recover = Some(value_of(&mut it, "--recover")?),
            "--fail-on-violation" => args.fail_on_violation = true,
            "--metrics" => args.metrics = true,
            "--adaptive" => args.adaptive = true,
            "--audit" => args.mode = AuditMode::Batch,
            "--sat" => args.sat = Some(SatConfig::default()),
            "--serve" => args.serve = true,
            "--serve-rounds" => {
                args.serve_rounds = value_of(&mut it, "--serve-rounds")?
                    .parse()
                    .map_err(|e| format!("--serve-rounds: {e}"))?
            }
            "--list" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--audit=") => {
                let (mode, overlap) = parse_audit_spec(&other["--audit=".len()..])?;
                args.mode = mode;
                spec_overlap = overlap;
            }
            other if other.starts_with("--sat=") => {
                args.sat = Some(parse_sat_spec(&other["--sat=".len()..])?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // An explicit --overlap flag wins over the spec's overlap= element.
    args.overlap = args.overlap.or(spec_overlap);
    if args.threads == 0 || args.txns == 0 || args.vars == 0 {
        return Err("--threads, --txns and --vars must be positive".into());
    }
    if args.ingest.is_some() && args.export.is_some() {
        return Err("--ingest replays an exported history; it cannot be combined with \
                    --export (nothing runs, so there is nothing to capture)"
            .into());
    }
    if args.ingest.is_some() && args.mode == AuditMode::Off && !args.serve {
        // Ingesting without auditing would be a no-op; default to batch.
        // (Under --serve the streaming default below applies instead.)
        args.mode = AuditMode::Batch;
    }
    if args.export.is_some() {
        if args.serve {
            return Err("--export captures one run's history; combine it with a single \
                        scenario × backend invocation, not --serve"
                .into());
        }
        if args.scenarios.len() != 1 || args.backends.len() != 1 {
            return Err("--export needs exactly one --scenario and one --backend".into());
        }
    }
    if args.wal.is_some() {
        if !args.serve {
            return Err("--wal logs serve rounds; combine it with --serve".into());
        }
        if args.ingest.is_some() {
            return Err("--wal logs generated rounds; it cannot be combined with --ingest \
                        (ingested documents are already on disk)"
                .into());
        }
    }
    if args.recover.is_some() {
        if args.ingest.is_some() || args.export.is_some() {
            return Err("--recover audits a crashed WAL directory; it cannot be combined \
                        with --ingest or --export"
                .into());
        }
        if args.serve && args.wal.is_none() {
            return Err("--serve --recover resumes a WAL endpoint; it also needs --wal DIR".into());
        }
    }
    if args.serve {
        match args.mode {
            // --wal logs the single merged commit stream, so its default (and
            // only) topology is the unsharded streaming auditor.
            AuditMode::Off if args.wal.is_some() => {
                args.mode = AuditMode::Streaming { window: 2_048 }
            }
            AuditMode::Off => args.mode = AuditMode::Sharded { window: 2_048, shards: 4 },
            AuditMode::Batch => {
                return Err("--serve streams windowed verdicts; combine it with \
                            --audit=window[:shards=K], not batch --audit"
                    .into())
            }
            AuditMode::Streaming { .. } | AuditMode::Sharded { .. } => {}
        }
        if args.wal.is_some() {
            match args.mode {
                AuditMode::Sharded { window, shards: 1 } => {
                    args.mode = AuditMode::Streaming { window }
                }
                AuditMode::Sharded { .. } => {
                    return Err("--wal logs the single merged commit stream; use \
                                --audit=window[:size=N] (the streaming topology), not shards=K"
                        .into())
                }
                _ => {}
            }
        }
        if args.ingest.is_none() {
            if args.scenarios.len() != 1 || args.backends.len() != 1 {
                return Err("--serve needs exactly one --scenario and one --backend".into());
            }
            if !args.scenarios[0].recordable() {
                return Err(format!(
                    "--serve: scenario {:?} is not auditable (no unique-write contract)",
                    args.scenarios[0].name()
                ));
            }
        }
    }
    if args.adaptive && !matches!(args.mode, AuditMode::Sharded { .. }) {
        return Err("--adaptive re-bands the sharded auditor; combine it with \
                    --audit=window[:size=N]:shards=K (or --serve)"
            .into());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: audit [--backend NAME|all] [--scenario NAME|all] [--retry POLICY]\n\
         \x20            [--threads N] [--txns N] [--vars N] [--seed N]\n\
         \x20            [--audit[=WINDOW | window[:size=N][:shards=K][:overlap=M]]]\n\
         \x20            [--overlap N] [--budget N] [--sat[=conflicts=N[:max-txns=N][:force]]]\n\
         \x20            [--json PATH] [--fail-on-violation]\n\
         \x20            [--export PATH] [--ingest FILE|-]\n\
         \x20            [--serve] [--serve-rounds N] [--sink PATH] [--metrics] [--adaptive]\n\
         \x20            [--wal DIR] [--recover DIR] [--list]\n\
         \n\
         backends and scenarios resolve through their registries; run `audit --list`\n\
         to see what is registered.  --retry POLICY is one of immediate, bounded:N,\n\
         backoff[:BASE:MAX[:TOTAL]], karma[:BASE], timestamp[:BASE], adaptive[:BASE:MAX].\n\
         --export PATH writes the audited run's commit history in the tm-history wire\n\
         format; --ingest FILE|- audits wire-format documents instead of running a\n\
         workload (see docs/history-format.md).  --sat escalates budget-exhausted\n\
         Prefix/SI/SER verdicts to the CDCL commit-order solver (tm-sat); verdicts\n\
         carry decided_by provenance.\n\
         --serve keeps the process alive running audited rounds back to back, streaming\n\
         line-delimited JSON verdict/window/lag records to stdout (and --sink PATH)\n\
         until SIGTERM/ctrl-c (a second signal exits immediately, status 130); --adaptive\n\
         lets the lag sampler re-band hot variable partitions across the sharded\n\
         auditor's lanes mid-stream; --serve --ingest - audits history documents from\n\
         stdin instead of generating traffic.  --wal DIR logs every commit of a serve\n\
         round to DIR/round-NNNN before the auditor sees it (crash-consistent, sealed\n\
         segments + frontier snapshots); --recover DIR finishes auditing the rounds a\n\
         killed process left behind (see docs/recovery.md)."
    );
}

fn print_registries() {
    println!("registered backends (stm_runtime::registry):");
    for spec in stm_runtime::registry::all() {
        println!("  {:<18} gives up {:<12} {}", spec.name, spec.triangle.sacrificed, spec.summary);
        if !spec.aliases.is_empty() {
            println!("  {:<18} aliases: {}", "", spec.aliases.join(", "));
        }
    }
    println!("\nregistered scenarios (workloads::all_scenarios):");
    for scenario in all_scenarios() {
        let audit = if scenario.recordable() { "auditable" } else { "not auditable" };
        println!("  {:<18} [{audit}] {}", scenario.name(), scenario.summary());
    }
}

fn json_run_fields(run: &workloads::ScenarioRunReport) -> String {
    let invariant = match run.check.invariant {
        Some(ok) => ok.to_string(),
        None => "null".to_string(),
    };
    let reasons: Vec<String> =
        run.abort_reasons.iter().map(|(r, n)| format!("\"{}\":{n}", r.name())).collect();
    format!(
        "\"scenario\":\"{}\",\"backend\":\"{}\",\"retry\":\"{}\",\"commits\":{},\
         \"throughput\":{:.0},\"aborts\":{},\"abort_reasons\":{{{}}},\"gave_up\":{},\
         \"attempts_p50\":{},\"attempts_p99\":{},\"attempts_max\":{},\
         \"attempts_mean\":{:.3},\"invariant\":{}",
        run.scenario,
        run.config.backend,
        run.config.policy.name(),
        run.commits,
        run.throughput,
        run.aborts,
        reasons.join(","),
        run.gave_up,
        run.attempts_p50,
        run.attempts_p99,
        run.attempts_max,
        run.attempts_mean,
        invariant
    )
}

fn print_run_line(run: &workloads::ScenarioRunReport) {
    println!(
        "  {} commits in {:.3?} ({:.0} commits/s); aborts {}; gave up {}; \
         attempts p50/p99 {}/{}",
        run.commits,
        run.elapsed,
        run.throughput,
        run.aborts,
        run.gave_up,
        run.attempts_p50,
        run.attempts_p99
    );
    if run.aborts > 0 {
        let reasons: Vec<String> = run
            .abort_reasons
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| format!("{} {n}", r.name()))
            .collect();
        println!("  abort reasons: {}", reasons.join(", "));
    }
    match run.check.invariant {
        Some(true) => println!("  self-check ✓  {}", run.check.detail),
        Some(false) => println!("  self-check ✗  {}", run.check.detail),
        None => println!("  self-check –  {}", run.check.detail),
    }
}

fn window_config(window: usize, args: &Args) -> WindowConfig {
    let mut wc = WindowConfig::sized(window);
    wc.budget = args.budget;
    wc.sat = args.sat;
    if let Some(overlap) = args.overlap {
        wc.overlap = overlap;
    }
    wc
}

/// The batch-mode audit knobs: the DFS budget plus the optional `--sat`
/// escalation stage.
fn audit_options(args: &Args) -> AuditOptions {
    AuditOptions { budget: args.budget, sat: args.sat }
}

/// Set by the SIGTERM/SIGINT handler; the serve loop finishes its current
/// round and shuts down cleanly when it flips.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn handle_stop_signal(_signum: i32) {
    // Only an atomic swap and (on repeat) `_exit`: async-signal-safe.
    if STOP.swap(true, Ordering::SeqCst) {
        // A second SIGTERM/SIGINT means the operator is done waiting for
        // the round-boundary shutdown — exit immediately with the
        // conventional 128+SIGINT code.  `_exit` skips atexit/unwinding,
        // which is exactly what a handler may do; re-storing the flag (the
        // old behavior) made the second ctrl-c a silent no-op for the rest
        // of a long round.
        extern "C" {
            fn _exit(code: i32) -> !;
        }
        // SAFETY: `_exit` is the POSIX libc function and is async-signal-safe.
        unsafe { _exit(130) }
    }
}

/// Install the SIGTERM/SIGINT handlers for `--serve` via the libc already
/// linked into every Rust binary — no signal crate exists in this offline
/// build environment, and an atomic flag is all clean shutdown needs.
fn install_stop_handlers() {
    type SigHandler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the POSIX libc function; the handler only touches
    // an atomic flag, which is async-signal-safe.
    unsafe {
        signal(SIGINT, handle_stop_signal);
        signal(SIGTERM, handle_stop_signal);
    }
}

/// Where serve records go: stdout always, plus the optional `--sink` file.
///
/// Sink writes are buffered — a per-record `flush` made the mirror an fsync
/// hot spot under high event rates — so every serve loop must call
/// [`ServeEmitter::flush`] at its round/document boundaries and after the
/// final `serve-stop` record: SIGTERM lands between records, and the records
/// buffered since the last boundary would otherwise die with the process.
struct ServeEmitter {
    sink: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
}

impl ServeEmitter {
    fn open(sink: Option<&str>) -> Result<Self, String> {
        let sink = match sink {
            Some(path) => Some(Mutex::new(std::io::BufWriter::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("--sink {path}: {e}"))?,
            ))),
            None => None,
        };
        Ok(ServeEmitter { sink })
    }

    /// Emit one line-delimited JSON record (buffered in the sink mirror).
    fn emit(&self, record: &str) {
        println!("{record}");
        if let Some(file) = &self.sink {
            let mut file = file.lock().expect("sink file lock");
            let _ = writeln!(file, "{record}");
        }
    }

    /// Push everything buffered so far out to the sink file.
    fn flush(&self) {
        if let Some(file) = &self.sink {
            let _ = file.lock().expect("sink file lock").flush();
        }
    }

    /// [`ServeEmitter::flush`], then fsync the sink file — the pre-seal hook
    /// of WAL rounds: a sealed segment claims its prefix of the round is
    /// durable, so the serve records describing that prefix must not be
    /// sitting in a user-space buffer (or the page cache) when the seal
    /// lands.
    fn sync(&self) {
        if let Some(file) = &self.sink {
            let mut file = file.lock().expect("sink file lock");
            let _ = file.flush();
            let _ = file.get_ref().sync_data();
        }
    }
}

fn lag_json(partitions: &[PartitionLag]) -> String {
    let entries: Vec<String> = partitions
        .iter()
        .map(|l| {
            format!(
                "{{\"partition\":{},\"escalation\":{},\"routed\":{},\"ingested\":{},\
                 \"queued\":{},\"queued_max\":{},\"queued_mean\":{:.3},\"windows\":{}}}",
                l.partition,
                l.escalation,
                l.routed,
                l.ingested,
                l.queued(),
                l.queued_max,
                l.queued_mean,
                l.windows
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

fn emit_event(emitter: &ServeEmitter, round: u64, event: &ShardEvent) {
    match event {
        ShardEvent::Window { partition, escalation, index, txns, summary, decided_by, elapsed } => {
            emitter.emit(&format!(
                "{{\"type\":\"window\",\"round\":{round},\"partition\":{partition},\
                 \"escalation\":{escalation},\"window\":{index},\"txns\":{txns},\
                 \"verdict\":\"{}\",\"decided_by\":\"{}\",\"elapsed_ms\":{:.3}}}",
                json_escape(summary),
                decided_by.as_str(),
                elapsed.as_secs_f64() * 1e3
            ));
        }
        ShardEvent::Conviction { partition, escalation, conviction } => {
            emitter.emit(&format!(
                "{{\"type\":\"conviction\",\"round\":{round},\"partition\":{partition},\
                 \"escalation\":{escalation},\"level\":\"{}\",\"window\":{},\
                 \"txns_seen\":{},\"violation\":\"{}\"}}",
                conviction.level.name(),
                conviction.window,
                conviction.txns_seen,
                json_escape(&conviction.violation)
            ));
        }
        ShardEvent::Lag { partitions } => {
            emitter.emit(&format!(
                "{{\"type\":\"lag\",\"round\":{round},\"partitions\":{}}}",
                lag_json(partitions)
            ));
        }
    }
}

/// The `--serve` ops endpoint: audited rounds back to back, each round's
/// window verdicts / convictions / partition lag streamed as JSON lines
/// while the workload runs, until SIGTERM/SIGINT or `--serve-rounds`.
fn serve(args: &Args) -> ExitCode {
    let (window, shards) = match args.mode {
        AuditMode::Sharded { window, shards } => (window, shards),
        AuditMode::Streaming { window } => (window, 1),
        _ => unreachable!("parse_args forces a streaming mode under --serve"),
    };
    let scenario = &args.scenarios[0];
    let backend = args.backends[0];
    let emitter = match ServeEmitter::open(args.sink.as_deref()) {
        Ok(emitter) => emitter,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    install_stop_handlers();
    emitter.emit(&format!(
        "{{\"type\":\"serve-start\",\"scenario\":\"{}\",\"backend\":\"{backend}\",\
         \"shards\":{shards},\"window\":{window},\"threads\":{},\"txns_per_round\":{},\
         \"pid\":{}}}",
        scenario.name(),
        args.threads,
        args.threads * args.txns,
        std::process::id()
    ));
    let mut rounds = 0u64;
    let mut violated = false;
    // One post-mortem per serve lifetime: the bounded event ring is dumped on
    // the *first* conviction and never again (the flight recorder's contents
    // after that point describe post-violation traffic).
    let post_mortem_done = AtomicBool::new(false);
    while !STOP.load(Ordering::SeqCst) {
        if args.serve_rounds > 0 && rounds >= args.serve_rounds {
            break;
        }
        let config = ScenarioConfig {
            backend,
            threads: args.threads,
            txns_per_thread: args.txns,
            vars: args.vars,
            // A fresh seed per round: sustained traffic, not one replayed run.
            seed: args.seed.wrapping_add(rounds),
            policy: Arc::clone(&args.policy),
        };
        let shard = ShardConfig {
            adaptive: args.adaptive,
            ..ShardConfig::new(shards, window_config(window, args))
        };
        let (events_tx, events_rx) = std::sync::mpsc::channel::<ShardEvent>();
        let round = rounds;
        let round_done = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            let emitter = &emitter;
            let post_mortem_done = &post_mortem_done;
            let printer = scope.spawn(move || {
                while let Ok(event) = events_rx.recv() {
                    emit_event(emitter, round, &event);
                    if matches!(event, ShardEvent::Conviction { .. })
                        && tm_telemetry::trace_enabled()
                        && !post_mortem_done.swap(true, Ordering::SeqCst)
                    {
                        emitter.emit(&format!(
                            "{{\"type\":\"post-mortem\",\"round\":{round},\"pushed\":{},\
                             \"events\":{}}}",
                            tm_telemetry::tracer().pushed(),
                            tm_telemetry::tracer().to_json()
                        ));
                    }
                }
            });
            let round_done = &round_done;
            let ticker = args.metrics.then(|| {
                scope.spawn(move || {
                    // Poll at 25 ms so shutdown is prompt; emit every 500 ms.
                    let mut ticks = 0u32;
                    while !round_done.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_millis(25));
                        ticks += 1;
                        if ticks.is_multiple_of(20) {
                            emitter.emit(&format!(
                                "{{\"type\":\"metrics\",\"round\":{round},\"snapshot\":{}}}",
                                tm_telemetry::global().snapshot().to_json()
                            ));
                        }
                    }
                })
            });
            let report =
                run_scenario_audited_sharded(scenario.as_ref(), &config, shard, Some(events_tx));
            printer.join().expect("serve printer panicked");
            round_done.store(true, Ordering::SeqCst);
            if let Some(ticker) = ticker {
                ticker.join().expect("serve metrics ticker panicked");
            }
            report
        });
        let report = match report {
            Ok(report) => report,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        };
        violated |= report.run.check.invariant == Some(false)
            || tm_audit::Level::ALL.iter().any(|&l| report.sharded.fails(l));
        emitter.emit(&format!(
            "{{\"type\":\"verdict\",\"round\":{round},\"summary\":\"{}\",\"commits\":{},\
             \"throughput\":{:.0},\"drain_ms\":{:.3},\"report\":{}}}",
            json_escape(&report.sharded.summary()),
            report.run.commits,
            report.run.throughput,
            report.drain_elapsed.as_secs_f64() * 1e3,
            report.sharded.to_json()
        ));
        if args.metrics {
            // Guaranteed snapshot per round, even when the round finishes
            // inside the ticker's first 500 ms.
            emitter.emit(&format!(
                "{{\"type\":\"metrics\",\"round\":{round},\"snapshot\":{}}}",
                tm_telemetry::global().snapshot().to_json()
            ));
        }
        // Round boundary: the sink mirror is durable up to the last full round
        // even if the next one is cut short.
        emitter.flush();
        rounds += 1;
    }
    let reason = if STOP.load(Ordering::SeqCst) { "signal" } else { "rounds-exhausted" };
    emitter
        .emit(&format!("{{\"type\":\"serve-stop\",\"rounds\":{rounds},\"reason\":\"{reason}\"}}"));
    emitter.flush();
    if args.fail_on_violation && violated {
        eprintln!("audit found definite violations (--fail-on-violation)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Fold a [`workloads::RecoveredRoundReport`] into a serve record: the
/// report JSON already opens with `{"recovered":true,...`, so splicing a
/// `type` key in front keeps one canonical recovered-verdict shape between
/// `--recover` stdout, `--json` documents and serve records.
fn recovered_record(report: &workloads::RecoveredRoundReport) -> String {
    format!("{{\"type\":\"recovered-verdict\",{}", &report.to_json()[1..])
}

/// The fallback window shape for recovering rounds whose crash landed
/// before the first frontier snapshot: an explicit `--audit=window...` spec
/// wins, then the WAL directory's own `wal-meta.json` (the shape the round
/// was actually produced with), then the serve default.  Rounds with a
/// surviving snapshot ignore this — the snapshot's persisted config wins.
fn recover_fallback_window(args: &Args, wal_dir: &std::path::Path) -> Result<WindowConfig, String> {
    if let AuditMode::Streaming { window } = args.mode {
        return Ok(window_config(window, args));
    }
    if let Some(meta) = workloads::WalMeta::load(wal_dir)? {
        let mut window = meta.window;
        window.sat = args.sat;
        return Ok(window);
    }
    Ok(window_config(2_048, args))
}

/// Recover every incomplete round under `wal_dir`, emitting one
/// `recovered-verdict` record each; returns whether any recovered verdict
/// carries a definite violation.
fn recover_rounds(
    args: &Args,
    wal_dir: &std::path::Path,
    emitter: &ServeEmitter,
    json_entries: &mut Vec<String>,
) -> Result<bool, String> {
    let fallback = recover_fallback_window(args, wal_dir)?;
    let rounds =
        workloads::incomplete_rounds(wal_dir).map_err(|e| format!("{}: {e}", wal_dir.display()))?;
    let mut violated = false;
    for (_, dir) in rounds {
        let report = workloads::recover_round_report(&dir, fallback, args.sat)?;
        violated |= tm_audit::Level::ALL.iter().any(|&l| report.stream.fails(l));
        emitter.emit(&recovered_record(&report));
        json_entries.push(report.to_json());
    }
    emitter.flush();
    Ok(violated)
}

/// `--recover DIR` without `--serve`: finish auditing every crashed round
/// under DIR and report the recovered verdicts like a live run would —
/// stdout records, `--json` document, `--fail-on-violation` semantics.
fn recover_cli(args: &Args) -> ExitCode {
    let wal_dir = std::path::Path::new(args.recover.as_deref().expect("recover dispatch"));
    let emitter = match ServeEmitter::open(args.sink.as_deref()) {
        Ok(emitter) => emitter,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut json_entries = Vec::new();
    let violated = match recover_rounds(args, wal_dir, &emitter, &mut json_entries) {
        Ok(violated) => violated,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    if json_entries.is_empty() {
        println!("{}: no incomplete rounds; nothing to recover", wal_dir.display());
    }
    if let Some(path) = &args.json {
        let doc = format!("{{\"recovered\":[{}]}}", json_entries.join(","));
        if let Err(err) = std::fs::write(path, doc) {
            eprintln!("error: writing {path}: {err}");
            return ExitCode::from(3);
        }
        println!("machine-readable report written to {path}");
    }
    if args.fail_on_violation && violated {
        eprintln!("audit found definite violations (--fail-on-violation)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `--serve --wal DIR`: audited rounds back to back like [`serve`], but
/// through the streaming (single-auditor) topology with every committed
/// transaction logged to `DIR/round-NNNN/` before it reaches the auditor.
/// Segments seal at window boundaries (flushing + fsyncing the `--sink`
/// mirror first), each seal persists the auditor's frontier snapshot, and a
/// finished round gets a `complete.json` marker.  With `--recover DIR` the
/// endpoint first finishes auditing any rounds a previous process left
/// behind, then resumes serving at the next free round index.
fn serve_wal(args: &Args) -> ExitCode {
    let window = match args.mode {
        AuditMode::Streaming { window } => window,
        _ => unreachable!("parse_args forces the streaming topology under --wal"),
    };
    let wal_dir = std::path::Path::new(args.wal.as_deref().expect("wal dispatch"));
    let scenario = &args.scenarios[0];
    let backend = args.backends[0];
    let emitter = match ServeEmitter::open(args.sink.as_deref()) {
        Ok(emitter) => emitter,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    install_stop_handlers();
    let wc = window_config(window, args);
    let meta = workloads::WalMeta {
        scenario: scenario.name().to_string(),
        backend: backend.to_string(),
        threads: args.threads,
        txns_per_thread: args.txns,
        vars: args.vars,
        seed: args.seed,
        window: wc,
    };
    if let Err(err) = meta.store(wal_dir) {
        eprintln!("error: --wal {}: {err}", wal_dir.display());
        return ExitCode::from(2);
    }
    emitter.emit(&format!(
        "{{\"type\":\"serve-start\",\"scenario\":\"{}\",\"backend\":\"{backend}\",\
         \"shards\":1,\"window\":{window},\"threads\":{},\"txns_per_round\":{},\
         \"wal\":\"{}\",\"pid\":{}}}",
        scenario.name(),
        args.threads,
        args.threads * args.txns,
        json_escape(&wal_dir.display().to_string()),
        std::process::id()
    ));
    let mut violated = false;
    if args.recover.is_some() {
        let mut entries = Vec::new();
        match recover_rounds(args, wal_dir, &emitter, &mut entries) {
            Ok(v) => violated |= v,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    let mut rounds = 0u64;
    while !STOP.load(Ordering::SeqCst) {
        if args.serve_rounds > 0 && rounds >= args.serve_rounds {
            break;
        }
        let round_index = match workloads::next_round_index(wal_dir) {
            Ok(index) => index,
            Err(err) => {
                eprintln!("error: --wal {}: {err}", wal_dir.display());
                return ExitCode::from(2);
            }
        };
        let round_dir = wal_dir.join(workloads::round_dir_name(round_index));
        let config = ScenarioConfig {
            backend,
            threads: args.threads,
            txns_per_thread: args.txns,
            vars: args.vars,
            // Seeded by the durable round index, not the in-process counter,
            // so a restarted endpoint continues the seed sequence where the
            // killed one stopped.
            seed: args.seed.wrapping_add(round_index),
            policy: Arc::clone(&args.policy),
        };
        let report = match workloads::run_scenario_audited_walled(
            scenario.as_ref(),
            &config,
            wc,
            &round_dir,
            || emitter.sync(),
        ) {
            Ok(report) => report,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        };
        violated |= report.run.check.invariant == Some(false)
            || tm_audit::Level::ALL.iter().any(|&l| report.stream.fails(l));
        emitter.emit(&format!(
            "{{\"type\":\"verdict\",\"round\":{round_index},\"summary\":\"{}\",\"commits\":{},\
             \"throughput\":{:.0},\"drain_ms\":{:.3},\"wal\":{{\"dir\":\"{}\",\
             \"logged_txns\":{},\"sealed_segments\":{}}},\"report\":{}}}",
            json_escape(&report.stream.summary()),
            report.run.commits,
            report.run.throughput,
            report.drain_elapsed.as_secs_f64() * 1e3,
            json_escape(&round_dir.display().to_string()),
            report.wal.logged_txns,
            report.wal.sealed_segments,
            report.stream.to_json()
        ));
        if args.metrics {
            emitter.emit(&format!(
                "{{\"type\":\"metrics\",\"round\":{round_index},\"snapshot\":{}}}",
                tm_telemetry::global().snapshot().to_json()
            ));
        }
        emitter.flush();
        rounds += 1;
    }
    let reason = if STOP.load(Ordering::SeqCst) { "signal" } else { "rounds-exhausted" };
    emitter
        .emit(&format!("{{\"type\":\"serve-stop\",\"rounds\":{rounds},\"reason\":\"{reason}\"}}"));
    emitter.flush();
    if args.fail_on_violation && violated {
        eprintln!("audit found definite violations (--fail-on-violation)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `--ingest FILE|-` (batch invocation): decode every wire document from the
/// file (or stdin), audit each through the configured mode, and report like
/// a live run — per-document verdicts on stdout, `"ingest"` entries in the
/// `--json` document, `--fail-on-violation` semantics intact.
fn ingest(args: &Args) -> ExitCode {
    let source = args.ingest.as_deref().expect("ingest dispatch");
    let text = if source == "-" {
        let mut text = String::new();
        match std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut text) {
            Ok(_) => text,
            Err(e) => {
                eprintln!("error: reading stdin: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        match std::fs::read_to_string(source) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: {source}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let histories = match decode_all(&text) {
        Ok(histories) => histories,
        Err(e) => {
            eprintln!("error: {source}: {e}");
            return ExitCode::from(2);
        }
    };
    if histories.is_empty() {
        eprintln!("error: {source}: no history documents");
        return ExitCode::from(2);
    }
    let mut violated = false;
    let mut json_entries: Vec<String> = Vec::new();
    for (doc, history) in histories.iter().enumerate() {
        println!("history #{doc} from {source}: {}", history.shape());
        let (mode_label, report_json) = match args.mode {
            AuditMode::Off | AuditMode::Batch => {
                let report = audit_with_options(history, &audit_options(args));
                violated |= tm_audit::Level::ALL.iter().any(|&l| report.fails(l));
                for level in &report.levels {
                    println!("  {level}");
                }
                println!("  verdict: {}\n", report.summary());
                ("batch", report.to_json())
            }
            AuditMode::Streaming { window } => {
                let report = audit_streamed(history, window_config(window, args));
                violated |= tm_audit::Level::ALL.iter().any(|&l| report.fails(l));
                println!(
                    "  verdict: {} ({} txns through {} windows)\n",
                    report.merged.summary(),
                    report.total_txns,
                    report.windows.len()
                );
                // The merged report is timing-free, so ingest replays of the
                // same document produce byte-identical JSON.
                ("streaming", report.merged.to_json())
            }
            AuditMode::Sharded { window, shards } => {
                let shard = ShardConfig {
                    adaptive: args.adaptive,
                    ..ShardConfig::new(shards, window_config(window, args))
                };
                let report = audit_sharded(history, shard);
                violated |= tm_audit::Level::ALL.iter().any(|&l| report.fails(l));
                println!(
                    "  verdict: {} ({} txns through {} partitions + escalation lane)\n",
                    report.merged.summary(),
                    report.total_txns,
                    shards
                );
                ("window-sharded", report.merged.to_json())
            }
        };
        json_entries.push(format!(
            "{{\"source\":\"ingest\",\"doc\":{doc},\"mode\":\"{mode_label}\",\"shape\":\"{}\",\
             \"report\":{}}}",
            json_escape(&history.shape()),
            report_json
        ));
    }
    if let Some(path) = &args.json {
        let doc = format!("{{\"ingest\":[{}]}}", json_entries.join(","));
        if let Err(err) = std::fs::write(path, doc) {
            eprintln!("error: writing {path}: {err}");
            return ExitCode::from(3);
        }
        println!("machine-readable report written to {path}");
    }
    if args.fail_on_violation && violated {
        eprintln!("audit found definite violations (--fail-on-violation)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `--serve --ingest FILE|-`: the ops endpoint fed by wire documents instead
/// of generated traffic.  One `ingest-verdict` record per decoded document;
/// a malformed document yields a positioned `ingest-error` record, then the
/// decoder resyncs at the next document boundary (blank line) and keeps
/// going — one bad batch does not take the endpoint down.
fn serve_ingest(args: &Args) -> ExitCode {
    let source = args.ingest.as_deref().expect("serve-ingest dispatch");
    let emitter = match ServeEmitter::open(args.sink.as_deref()) {
        Ok(emitter) => emitter,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    install_stop_handlers();
    let reader: Box<dyn BufRead> = if source == "-" {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    } else {
        match std::fs::File::open(source) {
            Ok(file) => Box::new(std::io::BufReader::new(file)),
            Err(e) => {
                eprintln!("error: {source}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let mut decoder = Decoder::new(reader);
    let (window, shards) = match args.mode {
        AuditMode::Sharded { window, shards } => (window, shards),
        AuditMode::Streaming { window } => (window, 1),
        _ => unreachable!("parse_args forces a streaming mode under --serve"),
    };
    emitter.emit(&format!(
        "{{\"type\":\"serve-start\",\"mode\":\"ingest\",\"source\":\"{}\",\"shards\":{shards},\
         \"window\":{window},\"pid\":{}}}",
        json_escape(source),
        std::process::id()
    ));
    let mut docs = 0u64;
    let mut errors = 0u64;
    let mut violated = false;
    let mut eof = false;
    while !STOP.load(Ordering::SeqCst) {
        if args.serve_rounds > 0 && docs >= args.serve_rounds {
            break;
        }
        match decoder.next_history() {
            Ok(Some(history)) => {
                let (summary, report_json, fails) = match args.mode {
                    AuditMode::Sharded { .. } => {
                        let shard = ShardConfig {
                            adaptive: args.adaptive,
                            ..ShardConfig::new(shards, window_config(window, args))
                        };
                        let report = audit_sharded(&history, shard);
                        (
                            report.merged.summary(),
                            report.to_json(),
                            tm_audit::Level::ALL.iter().any(|&l| report.fails(l)),
                        )
                    }
                    _ => {
                        let report = audit_streamed(&history, window_config(window, args));
                        (
                            report.merged.summary(),
                            report.to_json(),
                            tm_audit::Level::ALL.iter().any(|&l| report.fails(l)),
                        )
                    }
                };
                violated |= fails;
                emitter.emit(&format!(
                    "{{\"type\":\"ingest-verdict\",\"doc\":{docs},\"shape\":\"{}\",\
                     \"summary\":\"{}\",\"report\":{}}}",
                    json_escape(&history.shape()),
                    json_escape(&summary),
                    report_json
                ));
                docs += 1;
            }
            Ok(None) => {
                eof = true;
                break;
            }
            Err(e) => {
                errors += 1;
                emitter.emit(&format!(
                    "{{\"type\":\"ingest-error\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
                    e.line,
                    e.col,
                    json_escape(&e.message)
                ));
                if decoder.skip_document().is_err() {
                    eof = true;
                    break;
                }
            }
        }
        // Document boundary: verdicts and errors are durable in the sink
        // mirror before the next (possibly blocking) stdin read.
        emitter.flush();
    }
    let reason = if STOP.load(Ordering::SeqCst) {
        "signal"
    } else if eof {
        "eof"
    } else {
        "rounds-exhausted"
    };
    emitter.emit(&format!(
        "{{\"type\":\"serve-stop\",\"docs\":{docs},\"decode_errors\":{errors},\
         \"reason\":\"{reason}\"}}"
    ));
    emitter.flush();
    if args.fail_on_violation && (violated || errors > 0) {
        eprintln!("audit found definite violations (--fail-on-violation)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Make this crate's contributed backends ("global-lock") resolvable
    // before any name parsing happens.
    workloads::register_workload_backends();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return if msg.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(2) };
        }
    };
    if args.list {
        print_registries();
        return ExitCode::SUCCESS;
    }
    if args.metrics {
        // Must flip before any Stm or auditor is constructed: every producer
        // checks the flag once, at construction, and carries `None` handles
        // (one never-taken branch) when it is off.
        tm_telemetry::set_enabled(true);
        if args.serve {
            // The bounded event ring backs --serve post-mortems only; it
            // takes a mutex per event, so batch runs leave it off.
            tm_telemetry::set_trace_enabled(true);
        }
    }
    if args.recover.is_some() && !args.serve {
        return recover_cli(&args);
    }
    if args.serve {
        if args.ingest.is_some() {
            return serve_ingest(&args);
        }
        if args.wal.is_some() {
            return serve_wal(&args);
        }
        return serve(&args);
    }
    if args.ingest.is_some() {
        return ingest(&args);
    }

    let mut json_entries: Vec<String> = Vec::new();
    let mut violated = false;
    let mut exported: Option<AuditHistory> = None;
    for scenario in &args.scenarios {
        for &backend in &args.backends {
            let config = ScenarioConfig {
                backend,
                threads: args.threads,
                txns_per_thread: args.txns,
                vars: args.vars,
                seed: args.seed,
                policy: Arc::clone(&args.policy),
            };
            println!(
                "scenario {} on {backend}: {} threads × {} txns over {} vars \
                 (seed {}, retry {})",
                scenario.name(),
                args.threads,
                args.txns,
                args.vars,
                args.seed,
                args.policy.name()
            );
            if (args.mode != AuditMode::Off || args.export.is_some()) && !scenario.recordable() {
                if args.scenarios_are_all {
                    println!(
                        "  skipped: {} is not auditable (no unique-write contract)\n",
                        scenario.name()
                    );
                    continue;
                }
                eprintln!(
                    "error: scenario {:?} is not auditable (its writes are not globally \
                     unique); run it without --audit/--export",
                    scenario.name()
                );
                return ExitCode::from(2);
            }
            match args.mode {
                AuditMode::Off => {
                    let run = if args.export.is_some() {
                        match run_scenario_captured(scenario.as_ref(), &config) {
                            Ok((run, history)) => {
                                exported = Some(history);
                                run
                            }
                            Err(msg) => {
                                eprintln!("error: {msg}");
                                return ExitCode::from(2);
                            }
                        }
                    } else {
                        run_scenario(scenario.as_ref(), &config)
                    };
                    print_run_line(&run);
                    println!();
                    violated |= run.check.invariant == Some(false);
                    json_entries.push(format!("{{{},\"mode\":\"off\"}}", json_run_fields(&run)));
                }
                AuditMode::Batch => {
                    let options = audit_options(&args);
                    let result = if args.export.is_some() {
                        run_scenario_audited_with_captured(scenario.as_ref(), &config, &options)
                            .map(|(report, history)| {
                                exported = Some(history);
                                report
                            })
                    } else {
                        run_scenario_audited_with(scenario.as_ref(), &config, &options)
                    };
                    let report = match result {
                        Ok(report) => report,
                        Err(msg) => {
                            eprintln!("error: {msg}");
                            return ExitCode::from(2);
                        }
                    };
                    violated |= report.run.check.invariant == Some(false)
                        || tm_audit::Level::ALL.iter().any(|&l| report.audit.fails(l));
                    print_run_line(&report.run);
                    println!("  checked in {:.3?}", report.audit_elapsed);
                    for level in &report.audit.levels {
                        println!("  {level}");
                    }
                    println!("  verdict: {}\n", report.audit.summary());
                    json_entries.push(format!(
                        "{{{},\"mode\":\"batch\",\"audit_ms\":{:.3},\"report\":{}}}",
                        json_run_fields(&report.run),
                        report.audit_elapsed.as_secs_f64() * 1e3,
                        report.audit.to_json()
                    ));
                }
                AuditMode::Sharded { window, shards } => {
                    let shard = ShardConfig {
                        adaptive: args.adaptive,
                        ..ShardConfig::new(shards, window_config(window, &args))
                    };
                    let result = if args.export.is_some() {
                        run_scenario_audited_sharded_captured(
                            scenario.as_ref(),
                            &config,
                            shard,
                            None,
                        )
                        .map(|(report, history)| {
                            exported = Some(history);
                            report
                        })
                    } else {
                        run_scenario_audited_sharded(scenario.as_ref(), &config, shard, None)
                    };
                    let report = match result {
                        Ok(report) => report,
                        Err(msg) => {
                            eprintln!("error: {msg}");
                            return ExitCode::from(2);
                        }
                    };
                    violated |= report.run.check.invariant == Some(false)
                        || tm_audit::Level::ALL.iter().any(|&l| report.sharded.fails(l));
                    print_run_line(&report.run);
                    println!(
                        "  merged verdict {:.3?} after run end ({} txns through {} partitions \
                         + escalation lane{})",
                        report.drain_elapsed,
                        report.sharded.total_txns,
                        report.shard.shards,
                        if args.adaptive {
                            format!(", {} adaptive band moves", report.band_moves)
                        } else {
                            String::new()
                        }
                    );
                    print!("  {}", report.sharded);
                    println!("  verdict: {}\n", report.sharded.summary());
                    json_entries.push(format!(
                        "{{{},\"mode\":\"window-sharded\",\"drain_ms\":{:.3},\"band_moves\":{},\
                         \"report\":{}}}",
                        json_run_fields(&report.run),
                        report.drain_elapsed.as_secs_f64() * 1e3,
                        report.band_moves,
                        report.sharded.to_json()
                    ));
                }
                AuditMode::Streaming { window } => {
                    let wc = window_config(window, &args);
                    let result = if args.export.is_some() {
                        run_scenario_audited_streaming_captured(scenario.as_ref(), &config, wc).map(
                            |(report, history)| {
                                exported = Some(history);
                                report
                            },
                        )
                    } else {
                        run_scenario_audited_streaming(scenario.as_ref(), &config, wc)
                    };
                    let report = match result {
                        Ok(report) => report,
                        Err(msg) => {
                            eprintln!("error: {msg}");
                            return ExitCode::from(2);
                        }
                    };
                    violated |= report.run.check.invariant == Some(false)
                        || tm_audit::Level::ALL.iter().any(|&l| report.stream.fails(l));
                    print_run_line(&report.run);
                    println!(
                        "  merged verdict {:.3?} after run end ({} windowed txns)",
                        report.drain_elapsed, report.stream.total_txns
                    );
                    print!("  {}", report.stream);
                    println!("  verdict: {}\n", report.stream.summary());
                    json_entries.push(format!(
                        "{{{},\"mode\":\"streaming\",\"drain_ms\":{:.3},\"report\":{}}}",
                        json_run_fields(&report.run),
                        report.drain_elapsed.as_secs_f64() * 1e3,
                        report.stream.to_json()
                    ));
                }
            }
        }
    }

    if let Some(path) = &args.export {
        // parse_args pinned us to one scenario × backend, and non-recordable
        // single scenarios errored above, so the capture must be present.
        let history = exported.expect("--export run captured a history");
        let doc = encode(&history);
        if let Err(err) = std::fs::write(path, &doc) {
            eprintln!("error: writing {path}: {err}");
            return ExitCode::from(3);
        }
        println!(
            "history exported to {path} ({} txns, {} bytes, tm-history wire v{})",
            history.txn_count(),
            doc.len(),
            tm_history::WIRE_VERSION
        );
    }
    if args.metrics {
        println!("telemetry snapshot:");
        print!("{}", tm_telemetry::global().snapshot().to_text());
        println!();
    }
    if let Some(path) = &args.json {
        let doc = if args.metrics {
            format!(
                "{{\"runs\":[{}],\"telemetry\":{}}}",
                json_entries.join(","),
                tm_telemetry::global().snapshot().to_json()
            )
        } else {
            format!("{{\"runs\":[{}]}}", json_entries.join(","))
        };
        if let Err(err) = std::fs::write(path, doc) {
            eprintln!("error: writing {path}: {err}");
            return ExitCode::from(3);
        }
        println!("machine-readable report written to {path}");
    }
    if args.fail_on_violation && violated {
        eprintln!("audit found definite violations (--fail-on-violation)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
