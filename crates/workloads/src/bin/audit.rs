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
//! Every invocation parses into one description — **what to audit** (a
//! scenario × backend run, `--ingest`ed documents, or a `--recover`ed WAL
//! directory) under **which plan** (`workloads::AuditPlan`: off, batch or
//! windowed, with `--budget` / `--sat` / `--overlap` folded in) —
//! and live runs, replays and every `--serve` endpoint execute that one plan
//! through `workloads::run_live` / `workloads::Verdict::audit`.  Flags:
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
//! * `--audit[=SPEC]` — the audit plan.  Absent: `Off`.  Bare `--audit`:
//!   `Batch`, the whole history checked at once.  `--audit=WINDOW` (a
//!   number): `Windowed`, rolling windows of `WINDOW` transactions audited
//!   concurrently with the workload, with bounded memory (the plan that
//!   scales past ~10⁵ transactions).
//!   `--audit=window[:size=N][:overlap=M]` is the full streaming spec; any
//!   other key is a usage error.  Only *recordable* scenarios (unique write
//!   values) can be audited: asking for an audited `bank` run is an error,
//!   and `--scenario all` skips it with a note;
//! * `--overlap N` — transactions re-audited at the head of the next window
//!   (default WINDOW/8; wins over the spec's `overlap=`).  Must be smaller
//!   than the window: an overlap ≥ the size would mean a stride of one
//!   transaction, and is refused rather than clamped;
//! * `--budget N` — SI/SER search state budget of the plan (default
//!   2,000,000);
//! * `--sat[=conflicts=N[:force]]` — put the `tm-sat` commit-order solver
//!   behind the NP-hard levels: the DFS runs as a probe linear in the
//!   window, what it leaves `Unknown` goes to the solver, and only what the
//!   solver gives up on gets the DFS at the full `--budget`.  The encoding
//!   grows with the unordered writer pairs, not the window, so this reaches
//!   the default live window (2 048).  UNSAT convicts (with the forced cycle
//!   as witness), a model passes (with the decoded commit order), and
//!   verdicts carry `decided_by:
//!   "hint"|"dfs"|"sat"` provenance everywhere a report lands (stdout,
//!   `--json`, serve records) — `"hint"` for a history or window whose
//!   recording order verified as a serial order, which certifies all six
//!   levels in one pass and runs neither the DFS nor the solver.
//!   `conflicts=N` bounds solver effort per window and level (when both
//!   engines exhaust the verdict stays `Unknown`, with the retry hint
//!   recomputed as a conflict budget); `force` decides every NP-hard level
//!   by SAT alone (the differential cross-check lane).  Part of every plan:
//!   batch or windowed, live or replayed;
//! * `--export PATH` — capture the run's commit history exactly as the
//!   auditor saw it (post-merge order, auditor-assigned hints) and write it
//!   to PATH in the `tm-history` wire format (see `docs/history-format.md`).
//!   Needs exactly one scenario and one backend, both recordable; composes
//!   with every plan — without `--audit` the run is recorded but not
//!   checked;
//! * `--ingest FILE|-` — skip the workload entirely: decode wire-format
//!   history documents from FILE (or stdin when the argument is `-`) and
//!   audit each one under the plan (batch unless a windowed `--audit=` spec
//!   is given).  Verdicts print per document and land under `"ingest"` in
//!   the `--json` report; `--fail-on-violation`
//!   covers ingested documents exactly like live runs.  Combined with
//!   `--serve`, the endpoint audits newline-delimited history documents
//!   from stdin instead of generating traffic: one `ingest-verdict` record
//!   per document, and a positioned `ingest-error` record (followed by a
//!   resync at the next blank line) for each malformed document;
//! * `--serve` — the long-running ops endpoint: keep the process alive
//!   running audited rounds of the chosen scenario back to back, tailing
//!   line-delimited JSON records (per-window verdicts, convictions,
//!   per-round merged verdicts) to stdout — and to `--sink PATH` — until
//!   SIGTERM/ctrl-c, which finishes the current round and shuts down
//!   cleanly.  Requires one scenario and one backend; implies
//!   `--audit=window:size=2048` unless a streaming spec is given, with or
//!   without `--wal`;
//! * `--serve-rounds N` — stop serving after N rounds (0 = until signal).
//!   A second SIGTERM/SIGINT while a round is still draining exits
//!   immediately with status 130 instead of waiting for the boundary;
//! * `--wal DIR` — crash-consistent commit logging for `--serve`: every
//!   committed transaction is appended to `DIR/round-NNNN/` (in the
//!   `tm-history` wire format, so the concatenated segments of a round are
//!   ingestible as-is) *before* it reaches the auditor; segments seal with
//!   length+CRC framing at window boundaries and each seal persists the
//!   closed window's verdict (the frontier itself lives in the log).  The
//!   round streams the same window / conviction / metrics records as one
//!   without a log.  See `docs/recovery.md`;
//! * `--recover DIR` — finish auditing the rounds a killed process left
//!   behind: torn tails are truncated to the last sealed-or-complete line,
//!   the seals' verdict records are read back, the auditor's frontier is
//!   re-absorbed from the log prefix they cover and the suffix replayed.
//!   Standalone it prints one `recovered-verdict` record per round (and a
//!   `--json` report with `"recovered":true`); combined with `--serve
//!   --wal` the endpoint recovers first, then keeps serving at the next free
//!   round index;
//! * `--sink PATH` — also append every serve record to PATH (a file another
//!   process can tail);
//! * `--metrics` — turn the telemetry spine on (`tm-telemetry`): runs report
//!   per-backend commit/abort counters (aborts broken down by reason),
//!   per-phase latency histograms and auditor gauges.  Live runs, `--ingest`
//!   replays and `--recover` print the full snapshot at the end and embed it
//!   under `"telemetry"` in the `--json` document; `--serve` additionally streams periodic
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
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use stm_runtime::{policy, BackendId, RetryPolicy};
use tm_audit::linearization::DEFAULT_STATE_BUDGET;
use tm_audit::{AuditEvent, AuditHistory, AuditOptions, SatConfig, WindowConfig};
use tm_history::{decode_all, encode, Decoder};
use tm_telemetry::json;
use workloads::{
    all_scenarios, run_live, scenario_by_name, AuditPlan, LivePlan, LiveReport, Scenario,
    ScenarioConfig, Verdict, WalRound,
};

/// What `--audit[=SPEC]` asked for, before the knob flags are folded in:
/// `parse_args` turns it into the [`AuditPlan`] everything else runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AuditMode {
    Off,
    Batch,
    Streaming { window: usize },
}

/// Parse the value of `--audit=SPEC`: a bare number (legacy window size) or
/// `window[:size=N][:overlap=M]`.  Returns the mode plus the spec's overlap
/// override, if any.
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
            "--audit={spec:?}: expected a window size or window[:size=N][:overlap=M]"
        ));
    }
    let (mut size, mut overlap) = (2_048usize, None::<usize>);
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("--audit spec element {part:?} is not key=value"))?;
        let parsed: usize =
            value.parse().map_err(|e| format!("--audit spec {key}={value:?}: {e}"))?;
        match key {
            "size" => size = parsed,
            "overlap" => overlap = Some(parsed),
            other => return Err(format!("--audit spec has no key {other:?}")),
        }
    }
    if size < 2 {
        return Err("--audit=window:size=N needs N ≥ 2".into());
    }
    Ok((AuditMode::Streaming { window: size }, overlap))
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
    /// `--audit[=SPEC]` with `--budget`, `--sat` and `--overlap` folded in:
    /// the one description live runs, `--ingest` replays and every `--serve`
    /// endpoint execute.
    plan: AuditPlan,
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
            plan: AuditPlan::Off,
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

/// Parse the value of `--sat=SPEC`: `conflicts=N` / `force` elements
/// separated by `:` (a bare number is shorthand for `conflicts=N`).
fn parse_sat_spec(spec: &str) -> Result<SatConfig, String> {
    let mut cfg = SatConfig::default();
    for part in spec.split(':').filter(|p| !p.is_empty()) {
        if let Ok(n) = part.parse::<u64>() {
            cfg.conflicts = n;
        } else if let Some(n) = part.strip_prefix("conflicts=") {
            cfg.conflicts = n.parse().map_err(|e| format!("--sat conflicts: {e}"))?;
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

/// The value following `flag`, parsed.
fn value_of<T: std::str::FromStr>(
    it: &mut std::slice::Iter<String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut mode = AuditMode::Off;
    let mut spec_overlap = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--backend" => args.backends = parse_backends(&value_of::<String>(&mut it, arg)?)?,
            "--scenario" => {
                (args.scenarios, args.scenarios_are_all) =
                    parse_scenarios(&value_of::<String>(&mut it, arg)?)?;
            }
            "--retry" => args.policy = policy::parse_policy(&value_of::<String>(&mut it, arg)?)?,
            "--threads" => args.threads = value_of(&mut it, arg)?,
            "--txns" => args.txns = value_of(&mut it, arg)?,
            "--vars" => args.vars = value_of(&mut it, arg)?,
            "--seed" => args.seed = value_of(&mut it, arg)?,
            "--overlap" => args.overlap = Some(value_of(&mut it, arg)?),
            "--budget" => args.budget = value_of(&mut it, arg)?,
            "--serve-rounds" => args.serve_rounds = value_of(&mut it, arg)?,
            "--json" => args.json = Some(value_of(&mut it, arg)?),
            "--ingest" => args.ingest = Some(value_of(&mut it, arg)?),
            "--export" => args.export = Some(value_of(&mut it, arg)?),
            "--sink" => args.sink = Some(value_of(&mut it, arg)?),
            "--wal" => args.wal = Some(value_of(&mut it, arg)?),
            "--recover" => args.recover = Some(value_of(&mut it, arg)?),
            "--fail-on-violation" => args.fail_on_violation = true,
            "--metrics" => args.metrics = true,
            "--audit" => mode = AuditMode::Batch,
            "--sat" => args.sat = Some(SatConfig::default()),
            "--serve" => args.serve = true,
            "--list" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--audit=") => {
                (mode, spec_overlap) = parse_audit_spec(&other["--audit=".len()..])?;
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
    if args.ingest.is_some() && mode == AuditMode::Off && !args.serve {
        // Ingesting without auditing would be a no-op; default to batch.
        // (Under --serve the streaming default below applies instead.)
        mode = AuditMode::Batch;
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
        match mode {
            AuditMode::Off => mode = AuditMode::Streaming { window: 2_048 },
            AuditMode::Batch => {
                return Err("--serve streams windowed verdicts; combine it with \
                            --audit=window[:size=N], not batch --audit"
                    .into())
            }
            AuditMode::Streaming { .. } => {}
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
    args.plan = match mode {
        AuditMode::Off => AuditPlan::Off,
        AuditMode::Batch => AuditPlan::Batch(AuditOptions { budget: args.budget, sat: args.sat }),
        AuditMode::Streaming { window } => AuditPlan::Windowed(window_config(window, &args)?),
    };
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: audit [--backend NAME|all] [--scenario NAME|all] [--retry POLICY]\n\
         \x20            [--threads N] [--txns N] [--vars N] [--seed N]\n\
         \x20            [--audit[=WINDOW | window[:size=N][:overlap=M]]]\n\
         \x20            [--overlap N] [--budget N] [--sat[=conflicts=N[:force]]]\n\
         \x20            [--json PATH] [--fail-on-violation]\n\
         \x20            [--export PATH] [--ingest FILE|-]\n\
         \x20            [--serve] [--serve-rounds N] [--sink PATH] [--metrics]\n\
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
         line-delimited JSON verdict/window/conviction records to stdout (and --sink\n\
         PATH) until SIGTERM/ctrl-c (a second signal exits immediately, status 130);\n\
         without --audit= it runs window:size=2048.\n\
         --serve --ingest - audits history documents from stdin instead of generating\n\
         traffic.  --wal DIR logs every commit of a serve round to DIR/round-NNNN before\n\
         the auditor sees it (crash-consistent: each seal carries its window's verdict);\n\
         --recover DIR finishes auditing the rounds a killed process left behind (see\n\
         docs/recovery.md)."
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

/// The window shape `--audit=…`, `--budget`, `--sat` and `--overlap` add
/// up to.  An overlap that does not fit inside the window is refused here:
/// the auditor would clamp it to `size − 1`, a stride of one transaction,
/// and audit hundreds of times more windows without a word.
fn window_config(window: usize, args: &Args) -> Result<WindowConfig, String> {
    let mut wc = WindowConfig::sized(window);
    wc.budget = args.budget;
    wc.sat = args.sat;
    if let Some(overlap) = args.overlap {
        if overlap >= wc.size {
            return Err(format!(
                "--overlap {overlap} must be smaller than the window of {} transactions",
                wc.size
            ));
        }
        wc.overlap = overlap;
    }
    Ok(wc)
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
    /// durable, so the serve records emitted about that prefix must not be
    /// sitting in a user-space buffer (or the page cache) when the seal
    /// lands.  (The closing window's own record may still be on its way
    /// through the event feed; the next seal covers it.)
    fn sync(&self) {
        if let Some(file) = &self.sink {
            let mut file = file.lock().expect("sink file lock");
            let _ = file.flush();
            let _ = file.get_ref().sync_data();
        }
    }
}

fn emit_event(emitter: &ServeEmitter, round: u64, event: &AuditEvent) {
    match event {
        AuditEvent::Window { index, txns, summary, decided_by, elapsed } => {
            emitter.emit(&format!(
                "{{\"type\":\"window\",\"round\":{round},\"window\":{index},\"txns\":{txns},\
                 \"verdict\":\"{}\",\"decided_by\":\"{}\",\"elapsed_ms\":{:.3}}}",
                json::escape(summary),
                decided_by.as_str(),
                elapsed.as_secs_f64() * 1e3
            ));
        }
        AuditEvent::Conviction { conviction } => {
            emitter.emit(&format!(
                "{{\"type\":\"conviction\",\"round\":{round},\"level\":\"{}\",\"window\":{},\
                 \"txns_seen\":{},\"violation\":\"{}\"}}",
                conviction.level.name(),
                conviction.window,
                conviction.txns_seen,
                json::escape(&conviction.violation)
            ));
        }
    }
}

/// A failed invocation: the message for stderr and the process exit code —
/// 2 for bad input or a run that could not complete, 3 for an output file
/// that could not be written.
struct Failure {
    code: u8,
    message: String,
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure { code: 2, message }
    }
}

fn write_file(path: &str, doc: &str) -> Result<(), Failure> {
    std::fs::write(path, doc)
        .map_err(|err| Failure { code: 3, message: format!("writing {path}: {err}") })
}

fn violation_exit(args: &Args, violated: bool) -> ExitCode {
    if args.fail_on_violation && violated {
        eprintln!("audit found definite violations (--fail-on-violation)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// How every non-serve invocation ends — live runs, `--ingest` and
/// `--recover` alike: the `--metrics` snapshot, the `--json` document
/// (`{"<key>":[entries…]}`, plus `"telemetry"` under `--metrics`), then the
/// `--fail-on-violation` exit code.
fn finish_report(
    args: &Args,
    key: &str,
    entries: &[String],
    violated: bool,
) -> Result<ExitCode, Failure> {
    if args.metrics {
        println!("telemetry snapshot:");
        print!("{}", tm_telemetry::global().snapshot().to_text());
        println!();
    }
    if let Some(path) = &args.json {
        let telemetry = if args.metrics {
            format!(",\"telemetry\":{}", tm_telemetry::global().snapshot().to_json())
        } else {
            String::new()
        };
        write_file(path, &format!("{{\"{key}\":[{}]{telemetry}}}", entries.join(",")))?;
        println!("machine-readable report written to {path}");
    }
    Ok(violation_exit(args, violated))
}

fn scenario_config(args: &Args, backend: BackendId, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        backend,
        threads: args.threads,
        txns_per_thread: args.txns,
        vars: args.vars,
        seed,
        policy: Arc::clone(&args.policy),
    }
}

fn metrics_record(round: u64) -> String {
    format!(
        "{{\"type\":\"metrics\",\"round\":{round},\"snapshot\":{}}}",
        tm_telemetry::global().snapshot().to_json()
    )
}

/// Fold a [`workloads::RecoveredRoundReport`] into a serve record: the
/// report JSON already opens with `{"recovered":true,...`, so splicing a
/// `type` key in front keeps one canonical recovered-verdict shape between
/// `--recover` stdout, `--json` documents and serve records.
fn recovered_record(report: &workloads::RecoveredRoundReport) -> String {
    format!("{{\"type\":\"recovered-verdict\",{}", &report.to_json()[1..])
}

/// The fallback window shape for recovering rounds whose crash landed
/// before the first window-closing seal: an explicit `--audit=window...`
/// spec wins, then the WAL directory's own `wal-meta.json` (the shape the
/// round was actually produced with), then the serve default.  Rounds with a
/// window-closing seal ignore this — its recorded config wins.
fn recover_fallback_window(args: &Args, wal_dir: &Path) -> Result<WindowConfig, String> {
    if let AuditPlan::Windowed(window) = args.plan {
        return Ok(window);
    }
    if let Some(meta) = workloads::WalMeta::load(wal_dir)? {
        let mut window = meta.window;
        window.sat = args.sat;
        return Ok(window);
    }
    window_config(2_048, args)
}

/// Recover every incomplete round under `wal_dir`, emitting one
/// `recovered-verdict` record each; returns whether any recovered verdict
/// carries a definite violation.
fn recover_rounds(
    args: &Args,
    wal_dir: &Path,
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
fn recover_cli(args: &Args) -> Result<ExitCode, Failure> {
    let wal_dir = Path::new(args.recover.as_deref().expect("recover dispatch"));
    let emitter = ServeEmitter::open(args.sink.as_deref())?;
    let mut json_entries = Vec::new();
    let violated = recover_rounds(args, wal_dir, &emitter, &mut json_entries)?;
    if json_entries.is_empty() {
        println!("{}: no incomplete rounds; nothing to recover", wal_dir.display());
    }
    finish_report(args, "recovered", &json_entries, violated)
}

/// The `--serve` ops endpoint for generated traffic — plain, `--wal DIR`, or
/// `--wal DIR --recover DIR`: audited rounds back to back until
/// SIGTERM/SIGINT or `--serve-rounds`, each round's window verdicts and
/// convictions streamed as JSON lines while the workload runs, then one
/// `verdict` record (and, under `--metrics`, one guaranteed `metrics`
/// record), the sink mirror flushed at every round boundary.
///
/// `--wal` adds exactly three things: the directory's `wal-meta.json`, an
/// optional recovery pass over the rounds a previous process left behind,
/// and rounds that log to `DIR/round-NNNN/` — numbered (and seeded) by the
/// durable round index, so a restarted endpoint continues where the killed
/// one stopped — sealing at window boundaries after flushing + fsyncing the
/// `--sink` mirror.
fn serve(args: &Args) -> Result<ExitCode, Failure> {
    let emitter = ServeEmitter::open(args.sink.as_deref())?;
    let emitter = &emitter;
    install_stop_handlers();
    let wal_dir = args.wal.as_deref().map(Path::new);
    let wal_error =
        |err: std::io::Error| format!("--wal {}: {err}", args.wal.as_deref().unwrap_or_default());
    let AuditPlan::Windowed(shape) = args.plan else {
        unreachable!("parse_args forces the windowed plan under --serve")
    };
    let mut wal_field = String::new();
    if let Some(dir) = wal_dir {
        workloads::WalMeta { window: shape }.store(dir).map_err(wal_error)?;
        wal_field = format!("\"wal\":\"{}\",", json::escape(&dir.display().to_string()));
    }
    emitter.emit(&format!(
        "{{\"type\":\"serve-start\",\"scenario\":\"{}\",\"backend\":\"{}\",\
         \"window\":{},\"threads\":{},\"txns_per_round\":{},\
         {wal_field}\"pid\":{}}}",
        args.scenarios[0].name(),
        args.backends[0],
        shape.size,
        args.threads,
        args.threads * args.txns,
        std::process::id()
    ));
    let mut violated = match (wal_dir, &args.recover) {
        (Some(dir), Some(_)) => recover_rounds(args, dir, emitter, &mut Vec::new())?,
        _ => false,
    };
    // One post-mortem per serve lifetime: the bounded event ring is dumped on
    // the *first* conviction and never again (the flight recorder's contents
    // after that point describe post-violation traffic).
    let post_mortem_done = &AtomicBool::new(false);
    let mut rounds = 0u64;
    while !STOP.load(Ordering::SeqCst) && (args.serve_rounds == 0 || rounds < args.serve_rounds) {
        let round = match wal_dir {
            Some(dir) => workloads::next_round_index(dir).map_err(wal_error)?,
            None => rounds,
        };
        let round_dir = wal_dir.map(|dir| dir.join(workloads::round_dir_name(round)));
        // A fresh seed per round: sustained traffic, not one replayed run.
        let config = scenario_config(args, args.backends[0], args.seed.wrapping_add(round));
        let (events_tx, events_rx) = std::sync::mpsc::channel::<AuditEvent>();
        let plan = LivePlan {
            events: Some(events_tx),
            wal: round_dir
                .as_deref()
                .map(|dir| WalRound { dir, pre_seal: Box::new(|| emitter.sync()) }),
            ..LivePlan::new(args.plan)
        };
        let round_done = &AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            let printer = scope.spawn(move || {
                while let Ok(event) = events_rx.recv() {
                    emit_event(emitter, round, &event);
                    if matches!(event, AuditEvent::Conviction { .. })
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
            let ticker = args.metrics.then(|| {
                scope.spawn(move || {
                    // Poll at 25 ms so shutdown is prompt; emit every 500 ms.
                    let mut ticks = 0u32;
                    while !round_done.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_millis(25));
                        ticks += 1;
                        if ticks.is_multiple_of(20) {
                            emitter.emit(&metrics_record(round));
                        }
                    }
                })
            });
            let report = run_live(args.scenarios[0].as_ref(), &config, plan);
            printer.join().expect("serve printer panicked");
            round_done.store(true, Ordering::SeqCst);
            if let Some(ticker) = ticker {
                ticker.join().expect("serve metrics ticker panicked");
            }
            report
        })?;
        violated |= report.violated();
        let logged = match (&round_dir, report.wal) {
            (Some(dir), Some(stats)) => format!(
                "\"wal\":{{\"dir\":\"{}\",\"logged_txns\":{},\"sealed_segments\":{}}},",
                json::escape(&dir.display().to_string()),
                stats.logged_txns,
                stats.sealed_segments
            ),
            _ => String::new(),
        };
        let verdict = report.verdict.as_ref().expect("serve rounds run an audited plan");
        emitter.emit(&format!(
            "{{\"type\":\"verdict\",\"round\":{round},\"summary\":\"{}\",\"commits\":{},\
             \"throughput\":{:.0},\"drain_ms\":{:.3},{logged}\"report\":{}}}",
            json::escape(&verdict.merged().summary()),
            report.run.commits,
            report.run.throughput,
            report.tail.as_secs_f64() * 1e3,
            verdict.to_json()
        ));
        if args.metrics {
            // Guaranteed snapshot per round, even when the round finishes
            // inside the ticker's first 500 ms.
            emitter.emit(&metrics_record(round));
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
    Ok(violation_exit(args, violated))
}

/// Print one ingested document's verdict in its plan's words; returns the
/// `"mode"` label of its `--json` entry.
fn print_ingested(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Batch(report) => {
            for level in &report.levels {
                println!("  {level}");
            }
            println!("  verdict: {}\n", report.summary());
            "batch"
        }
        Verdict::Windowed(stream) => {
            println!(
                "  verdict: {} ({} txns through {} windows)\n",
                stream.merged.summary(),
                stream.total_txns,
                stream.windows.len()
            );
            "streaming"
        }
    }
}

/// `--ingest FILE|-` (batch invocation): decode every wire document from the
/// file (or stdin), audit each under the plan, and report like a live run —
/// per-document verdicts on stdout, `"ingest"` entries in the `--json`
/// document, `--fail-on-violation` semantics intact.
fn ingest(args: &Args) -> Result<ExitCode, Failure> {
    let source = args.ingest.as_deref().expect("ingest dispatch");
    let text = if source == "-" {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        text
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?
    };
    let histories = decode_all(&text).map_err(|e| format!("{source}: {e}"))?;
    if histories.is_empty() {
        return Err(format!("{source}: no history documents").into());
    }
    let mut violated = false;
    let mut json_entries: Vec<String> = Vec::new();
    for (doc, history) in histories.iter().enumerate() {
        println!("history #{doc} from {source}: {}", history.shape());
        let verdict = Verdict::audit(history, &args.plan)
            .expect("parse_args defaults --ingest to the batch plan");
        violated |= verdict.violated();
        let mode_label = print_ingested(&verdict);
        // The merged report is timing-free, so ingest replays of the same
        // document produce byte-identical JSON.
        json_entries.push(format!(
            "{{\"source\":\"ingest\",\"doc\":{doc},\"mode\":\"{mode_label}\",\"shape\":\"{}\",\
             \"report\":{}}}",
            json::escape(&history.shape()),
            verdict.merged().to_json()
        ));
    }
    finish_report(args, "ingest", &json_entries, violated)
}

/// `--serve --ingest FILE|-`: the ops endpoint fed by wire documents instead
/// of generated traffic.  One `ingest-verdict` record per decoded document;
/// a malformed document yields a positioned `ingest-error` record, then the
/// decoder resyncs at the next document boundary (blank line) and keeps
/// going — one bad batch does not take the endpoint down.
fn serve_ingest(args: &Args) -> Result<ExitCode, Failure> {
    let source = args.ingest.as_deref().expect("serve-ingest dispatch");
    let emitter = ServeEmitter::open(args.sink.as_deref())?;
    install_stop_handlers();
    let reader: Box<dyn BufRead> = if source == "-" {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    } else {
        let file = std::fs::File::open(source).map_err(|e| format!("{source}: {e}"))?;
        Box::new(std::io::BufReader::new(file))
    };
    let mut decoder = Decoder::new(reader);
    let AuditPlan::Windowed(shape) = args.plan else {
        unreachable!("parse_args forces the windowed plan under --serve")
    };
    emitter.emit(&format!(
        "{{\"type\":\"serve-start\",\"mode\":\"ingest\",\"source\":\"{}\",\"window\":{},\
         \"pid\":{}}}",
        json::escape(source),
        shape.size,
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
                let verdict = Verdict::audit(&history, &args.plan)
                    .expect("parse_args forces a streaming plan under --serve");
                violated |= verdict.violated();
                emitter.emit(&format!(
                    "{{\"type\":\"ingest-verdict\",\"doc\":{docs},\"shape\":\"{}\",\
                     \"summary\":\"{}\",\"report\":{}}}",
                    json::escape(&history.shape()),
                    json::escape(&verdict.merged().summary()),
                    verdict.to_json()
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
                    json::escape(&e.message)
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
    Ok(violation_exit(args, violated || errors > 0))
}

/// Print a live run's audit lines in its plan's words and render its
/// `--json` entry.
fn print_live(report: &LiveReport) -> String {
    print_run_line(&report.run);
    let run = json_run_fields(&report.run);
    let tail_ms = report.tail.as_secs_f64() * 1e3;
    match &report.verdict {
        None => {
            println!();
            format!("{{{run},\"mode\":\"off\"}}")
        }
        Some(Verdict::Batch(audit)) => {
            println!("  checked in {:.3?}", report.tail);
            for level in &audit.levels {
                println!("  {level}");
            }
            println!("  verdict: {}\n", audit.summary());
            format!(
                "{{{run},\"mode\":\"batch\",\"audit_ms\":{tail_ms:.3},\"report\":{}}}",
                audit.to_json()
            )
        }
        Some(Verdict::Windowed(stream)) => {
            println!(
                "  merged verdict {:.3?} after run end ({} windowed txns)",
                report.tail, stream.total_txns
            );
            print!("  {stream}");
            println!("  verdict: {}\n", stream.summary());
            format!(
                "{{{run},\"mode\":\"streaming\",\"drain_ms\":{tail_ms:.3},\"report\":{}}}",
                stream.to_json()
            )
        }
    }
}

/// The default invocation: run every chosen scenario × backend under the
/// plan, print and collect the reports, export the capture if asked.
fn live(args: &Args) -> Result<ExitCode, Failure> {
    let audited = !matches!(args.plan, AuditPlan::Off) || args.export.is_some();
    let mut json_entries: Vec<String> = Vec::new();
    let mut violated = false;
    let mut exported: Option<AuditHistory> = None;
    for scenario in &args.scenarios {
        for &backend in &args.backends {
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
            if audited && !scenario.recordable() {
                if args.scenarios_are_all {
                    println!(
                        "  skipped: {} is not auditable (no unique-write contract)\n",
                        scenario.name()
                    );
                    continue;
                }
                return Err(format!(
                    "scenario {:?} is not auditable (its writes are not globally \
                     unique); run it without --audit/--export",
                    scenario.name()
                )
                .into());
            }
            let plan = LivePlan { capture: args.export.is_some(), ..LivePlan::new(args.plan) };
            let config = scenario_config(args, backend, args.seed);
            let mut report = run_live(scenario.as_ref(), &config, plan)?;
            violated |= report.violated();
            json_entries.push(print_live(&report));
            exported = report.history.take();
        }
    }

    if let Some(path) = &args.export {
        // parse_args pinned us to one scenario × backend, and non-recordable
        // single scenarios errored above, so the capture must be present.
        let history = exported.expect("--export run captured a history");
        let doc = encode(&history);
        write_file(path, &doc)?;
        println!(
            "history exported to {path} ({} txns, {} bytes, tm-history wire v{})",
            history.txn_count(),
            doc.len(),
            tm_history::WIRE_VERSION
        );
    }
    finish_report(args, "runs", &json_entries, violated)
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
    let outcome = if args.recover.is_some() && !args.serve {
        recover_cli(&args)
    } else if args.serve {
        if args.ingest.is_some() {
            serve_ingest(&args)
        } else {
            serve(&args)
        }
    } else if args.ingest.is_some() {
        ingest(&args)
    } else {
        live(&args)
    };
    outcome.unwrap_or_else(|failure| {
        eprintln!("error: {}", failure.message);
        ExitCode::from(failure.code)
    })
}
