//! `audit` — run any scenario against any registered STM backend and audit
//! its consistency from the command line, no Rust required.
//!
//! ```text
//! cargo run --release -p workloads --bin audit -- --backend pram --audit=1000
//! cargo run --release -p workloads --bin audit -- --backend all --scenario kv-zipf \
//!     --threads 4 --txns 2500 --audit --json audit-report.json
//! cargo run --release -p workloads --bin audit -- --backend global-lock \
//!     --scenario scan-writers --audit
//! ```
//!
//! Every invocation parses into one description — **what to audit** (a
//! scenario × backend run, `--ingest`ed documents, or a `--recover`ed WAL
//! directory) under **which plan** (`workloads::AuditPlan`: off, batch or
//! windowed, with `--budget` / `--sat` folded in) — and every
//! job executes that one plan through `workloads::run_live` /
//! `workloads::Verdict::audit`.  Flags (README and `docs/` hold the detail):
//!
//! * `--backend NAME|all` — any backend of `stm_runtime::registry`, by
//!   canonical name or alias (default `all`, iterated sorted by name so
//!   output is diff-stable);
//! * `--scenario NAME|all` — any scenario from `workloads::all_scenarios()`
//!   (default `registers`);
//! * `--threads N`, `--txns N` (per thread), `--vars N`, `--seed N` — the
//!   workload's shape (defaults 4, 2500, 64, 2024);
//! * `--audit[=SPEC]` — the plan: absent `Off`; bare `Batch` (the whole
//!   history at once); `--audit=WINDOW` or `window[:size=N][:overlap=M]`
//!   `Windowed` (rolling windows audited beside the workload, bounded
//!   memory; `overlap` is the transactions re-audited at the head of the
//!   next window, default size/8, and must be smaller than the window).
//!   Only *recordable* scenarios (unique write values) can be audited;
//!   `--scenario all` skips the others with a note;
//! * `--budget N` — SI/SER search state budget (default 2,000,000);
//! * `--sat[=conflicts=N[:force]]` — decide what the DFS probe leaves
//!   `Unknown` with the `tm-sat` commit-order solver; verdicts carry
//!   `decided_by: "hint"|"dfs"|"sat"` provenance everywhere they land;
//! * `--export PATH` — write the run's history, exactly as the auditor saw
//!   it, in the `tm-history` wire format (`docs/history-format.md`); one
//!   scenario and one backend;
//! * `--ingest FILE|-` — audit wire documents from FILE (or stdin) instead of
//!   running a workload, one document at a time (batch plan unless a
//!   windowed `--audit=` is given).  Alone it prints each verdict, lists them
//!   under `"ingest"` in `--json`, and stops at the first malformed document
//!   with its positioned error (exit 2).  Under `--serve` each document
//!   yields an `ingest-verdict` record and a malformed one a positioned
//!   `ingest-error` record, then a resync at the next blank line;
//! * `--serve` — the long-running ops endpoint: audited rounds of the one
//!   chosen scenario × backend back to back (default
//!   `--audit=window:size=2048`), line-delimited JSON records on stdout until
//!   SIGTERM/ctrl-c finishes the current round (a second signal exits 130);
//! * `--serve-rounds N` — stop serving after N rounds or documents (0 = until
//!   signal); `--serve` only;
//! * `--wal DIR` — log every committed transaction of a serve round to
//!   `DIR/round-NNNN/` before the auditor sees it, sealed at window
//!   boundaries (`docs/recovery.md`); `--serve` only;
//! * `--recover DIR` — finish auditing the rounds a killed process left
//!   behind: one `recovered-verdict` record per round; with `--serve --wal`
//!   the endpoint recovers first, then serves the next round index, so
//!   there `--recover` must name the `--wal` directory (any other path
//!   exits 2);
//! * `--sink PATH` — also append every serve or recovery record to PATH;
//!   `--serve` or `--recover` only;
//! * `--metrics` — turn the `tm-telemetry` spine on: the snapshot prints at
//!   the end and lands under `"telemetry"` in `--json`; `--serve` also
//!   streams `metrics` records and one `post-mortem` on the first
//!   conviction;
//! * `--json PATH` — also write the machine-readable report to PATH;
//! * `--fail-on-violation` — exit 1 on a definite violation, a failed
//!   scenario self-check or (under `--serve --ingest`) a malformed document;
//! * `--list` — print the registered backends (with their P/C/L triangle
//!   positions) and scenarios, then exit.

use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use stm_runtime::BackendId;
use tm_audit::linearization::DEFAULT_STATE_BUDGET;
use tm_audit::{AuditEvent, AuditHistory, AuditOptions, SatConfig, WindowConfig};
use tm_history::{encode, Decoder};
use tm_telemetry::json;
use workloads::{
    all_scenarios, run_live, scenario_by_name, AuditPlan, LivePlan, LiveReport, Scenario,
    ScenarioConfig, Verdict, WalRound,
};

/// Parse the value of `--audit=SPEC`: a bare number (legacy window size) or
/// `window[:size=N][:overlap=M]`, into the window shape (`--budget` and
/// `--sat` not yet folded in).  An overlap that does not fit inside the
/// window is refused here: the auditor would clamp it to `size − 1`, a
/// stride of one transaction, and audit hundreds of times more windows
/// without a word.
fn parse_audit_spec(spec: &str) -> Result<WindowConfig, String> {
    if let Ok(window) = spec.parse::<usize>() {
        if window < 2 {
            return Err("--audit=WINDOW needs WINDOW ≥ 2".into());
        }
        return Ok(WindowConfig::sized(window));
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
    let mut window = WindowConfig::sized(size);
    if let Some(overlap) = overlap {
        if overlap >= size {
            return Err(format!(
                "--audit spec overlap={overlap} must be smaller than the window of {size} \
                 transactions"
            ));
        }
        window.overlap = overlap;
    }
    Ok(window)
}

struct Args {
    backends: Vec<BackendId>,
    scenarios: Vec<Arc<dyn Scenario>>,
    /// `true` when `--scenario all` chose the list (non-recordable scenarios
    /// are then skipped, not errors, in audit modes).
    scenarios_are_all: bool,
    threads: usize,
    txns: usize,
    vars: usize,
    seed: u64,
    /// `--audit[=SPEC]` with `--budget` and `--sat` folded in: the one
    /// description live runs, `--ingest` replays and every `--serve`
    /// endpoint execute.
    plan: AuditPlan,
    budget: u64,
    sat: Option<SatConfig>,
    json: Option<String>,
    ingest: Option<String>,
    export: Option<String>,
    fail_on_violation: bool,
    list: bool,
    serve: bool,
    serve_rounds: Option<u64>,
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
            threads: 4,
            txns: 2_500,
            vars: 64,
            seed: 2_024,
            plan: AuditPlan::Off,
            budget: DEFAULT_STATE_BUDGET,
            sat: None,
            json: None,
            ingest: None,
            export: None,
            fail_on_violation: false,
            list: false,
            serve: false,
            serve_rounds: None,
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
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--backend" => args.backends = parse_backends(&value_of::<String>(&mut it, arg)?)?,
            "--scenario" => {
                (args.scenarios, args.scenarios_are_all) =
                    parse_scenarios(&value_of::<String>(&mut it, arg)?)?;
            }
            "--threads" => args.threads = value_of(&mut it, arg)?,
            "--txns" => args.txns = value_of(&mut it, arg)?,
            "--vars" => args.vars = value_of(&mut it, arg)?,
            "--seed" => args.seed = value_of(&mut it, arg)?,
            "--budget" => args.budget = value_of(&mut it, arg)?,
            "--serve-rounds" => args.serve_rounds = Some(value_of(&mut it, arg)?),
            "--json" => args.json = Some(value_of(&mut it, arg)?),
            "--ingest" => args.ingest = Some(value_of(&mut it, arg)?),
            "--export" => args.export = Some(value_of(&mut it, arg)?),
            "--sink" => args.sink = Some(value_of(&mut it, arg)?),
            "--wal" => args.wal = Some(value_of(&mut it, arg)?),
            "--recover" => args.recover = Some(value_of(&mut it, arg)?),
            "--fail-on-violation" => args.fail_on_violation = true,
            "--metrics" => args.metrics = true,
            "--audit" => args.plan = AuditPlan::Batch(AuditOptions::default()),
            "--sat" => args.sat = Some(SatConfig::default()),
            "--serve" => args.serve = true,
            "--list" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--audit=") => {
                args.plan = AuditPlan::Windowed(parse_audit_spec(&other["--audit=".len()..])?);
            }
            other if other.starts_with("--sat=") => {
                args.sat = Some(parse_sat_spec(&other["--sat=".len()..])?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.threads == 0 || args.txns == 0 || args.vars == 0 {
        return Err("--threads, --txns and --vars must be positive".into());
    }
    if args.ingest.is_some() && args.export.is_some() {
        return Err("--ingest replays an exported history; it cannot be combined with \
                    --export (nothing runs, so there is nothing to capture)"
            .into());
    }
    if args.ingest.is_some() && matches!(args.plan, AuditPlan::Off) && !args.serve {
        // Ingesting without auditing would be a no-op; default to batch.
        // (Under --serve the streaming default below applies instead.)
        args.plan = AuditPlan::Batch(AuditOptions::default());
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
    if args.serve_rounds.is_some() && !args.serve {
        return Err("--serve-rounds bounds a --serve endpoint; combine it with --serve".into());
    }
    if args.sink.is_some() && !args.serve && args.recover.is_none() {
        return Err("--sink mirrors serve and recovery records; combine it with --serve or \
                    --recover"
            .into());
    }
    if let Some(recover) = &args.recover {
        if args.ingest.is_some() || args.export.is_some() {
            return Err("--recover audits a crashed WAL directory; it cannot be combined \
                        with --ingest or --export"
                .into());
        }
        if args.serve {
            let Some(wal) = &args.wal else {
                return Err(
                    "--serve --recover resumes a WAL endpoint; it also needs --wal DIR".into()
                );
            };
            if Path::new(wal) != Path::new(recover) {
                return Err(format!(
                    "--serve resumes the rounds under its --wal directory {wal:?}, but \
                     --recover names {recover:?}; give both the same directory"
                ));
            }
        }
    }
    if args.serve {
        match args.plan {
            AuditPlan::Off => args.plan = AuditPlan::Windowed(WindowConfig::sized(2_048)),
            AuditPlan::Batch(_) => {
                return Err("--serve streams windowed verdicts; combine it with \
                            --audit=window[:size=N], not batch --audit"
                    .into())
            }
            AuditPlan::Windowed(_) => {}
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
    // Fold the knob flags in, wherever they stood relative to --audit.
    args.plan = match args.plan {
        AuditPlan::Off => AuditPlan::Off,
        AuditPlan::Batch(_) => {
            AuditPlan::Batch(AuditOptions { budget: args.budget, sat: args.sat })
        }
        AuditPlan::Windowed(window) => AuditPlan::Windowed(with_knobs(window, &args)),
    };
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: audit [--backend NAME|all] [--scenario NAME|all]\n\
         \x20            [--threads N] [--txns N] [--vars N] [--seed N]\n\
         \x20            [--audit[=WINDOW | window[:size=N][:overlap=M]]]\n\
         \x20            [--budget N] [--sat[=conflicts=N[:force]]]\n\
         \x20            [--json PATH] [--fail-on-violation]\n\
         \x20            [--export PATH] [--ingest FILE|-]\n\
         \x20            [--serve] [--serve-rounds N] [--sink PATH] [--metrics]\n\
         \x20            [--wal DIR] [--recover DIR] [--list]\n\
         \n\
         backends and scenarios resolve through their registries; run `audit --list`\n\
         to see what is registered.\n\
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
         docs/recovery.md); with --serve --wal DIR it must name that same DIR."
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
        "\"scenario\":\"{}\",\"backend\":\"{}\",\"commits\":{},\
         \"throughput\":{:.0},\"aborts\":{},\"abort_reasons\":{{{}}},\
         \"attempts_p50\":{},\"attempts_p99\":{},\"attempts_max\":{},\
         \"attempts_mean\":{:.3},\"invariant\":{}",
        run.scenario,
        run.config.backend,
        run.commits,
        run.throughput,
        run.aborts,
        reasons.join(","),
        run.attempts_p50,
        run.attempts_p99,
        run.attempts_max,
        run.attempts_mean,
        invariant
    )
}

fn print_run_line(run: &workloads::ScenarioRunReport) {
    println!(
        "  {} commits in {:.3?} ({:.0} commits/s); aborts {}; attempts p50/p99 {}/{}",
        run.commits, run.elapsed, run.throughput, run.aborts, run.attempts_p50, run.attempts_p99
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

/// `window` with the `--budget` and `--sat` knobs folded in.
fn with_knobs(window: WindowConfig, args: &Args) -> WindowConfig {
    WindowConfig { budget: args.budget, sat: args.sat, ..window }
}

/// Set by the SIGTERM/SIGINT handler; the serve loop finishes its current
/// round and shuts down cleanly when it flips.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn handle_stop_signal(_signum: i32) {
    // Only an atomic swap and (on repeat) `_exit`: async-signal-safe.
    if STOP.swap(true, Ordering::SeqCst) {
        // A second SIGTERM/SIGINT means the operator is done waiting for
        // the round-boundary shutdown: exit at once with the conventional
        // 128+SIGINT code (`_exit` skips atexit/unwinding, as a handler may).
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
        let open = |path| std::fs::OpenOptions::new().create(true).append(true).open(path);
        let sink = sink
            .map(|path| open(path).map_err(|e| format!("--sink {path}: {e}")))
            .transpose()?
            .map(|file| Mutex::new(std::io::BufWriter::new(file)));
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
/// before the first window-closing seal: the WAL directory's own
/// `wal-meta.json` (the shape the rounds were produced with) wins — so a
/// recovered round reaches the verdict the uninterrupted round would have —
/// then an explicit `--audit=window...` spec, then the serve default.
/// Rounds with a window-closing seal ignore this — its recorded config wins.
fn recover_fallback_window(args: &Args, wal_dir: &Path) -> Result<WindowConfig, String> {
    if let Some(meta) = workloads::WalMeta::load(wal_dir)? {
        return Ok(WindowConfig { sat: args.sat, ..meta.window });
    }
    Ok(match args.plan {
        AuditPlan::Windowed(window) => window,
        _ => with_knobs(WindowConfig::default(), args),
    })
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

/// What one step of a serve endpoint did, as [`serve_lifecycle`] counts it.
enum Served {
    /// A round or a document was audited; `violated` when its verdict holds
    /// a definite violation.
    Audited { violated: bool },
    /// A malformed document was reported and skipped: it fails
    /// `--fail-on-violation` but does not count toward `--serve-rounds`.
    Rejected,
    /// The source ran dry (end of `--ingest` input).
    Exhausted,
}

/// The lifecycle every `--serve` endpoint shares: open the emitter, install
/// the signal handlers, emit `serve-start` (`start_fields`, then the pid),
/// run `resume` once, then `step` one unit at a time — the unit index is the
/// count of units audited so far — until a signal, `--serve-rounds` or an
/// exhausted source, flushing the sink mirror at every unit boundary; then
/// `serve-stop` (`stop_fields` of the audited and rejected counts, then the
/// reason) and the exit code.
fn serve_lifecycle(
    args: &Args,
    start_fields: &str,
    resume: impl FnOnce(&ServeEmitter) -> Result<bool, Failure>,
    mut step: impl FnMut(&ServeEmitter, u64) -> Result<Served, Failure>,
    stop_fields: fn(u64, u64) -> String,
) -> Result<ExitCode, Failure> {
    let emitter = ServeEmitter::open(args.sink.as_deref())?;
    install_stop_handlers();
    emitter.emit(&format!(
        "{{\"type\":\"serve-start\",{start_fields}\"pid\":{}}}",
        std::process::id()
    ));
    let mut violated = resume(&emitter)?;
    let limit = args.serve_rounds.unwrap_or(0);
    let (mut audited, mut rejected, mut exhausted) = (0u64, 0u64, false);
    while !exhausted && !STOP.load(Ordering::SeqCst) && (limit == 0 || audited < limit) {
        match step(&emitter, audited)? {
            Served::Audited { violated: v } => {
                violated |= v;
                audited += 1;
            }
            Served::Rejected => rejected += 1,
            Served::Exhausted => exhausted = true,
        }
        // Unit boundary: the sink mirror is durable up to the last full unit
        // before the next one (a round, a possibly blocking read) begins.
        emitter.flush();
    }
    let reason = if STOP.load(Ordering::SeqCst) {
        "signal"
    } else if exhausted {
        "eof"
    } else {
        "rounds-exhausted"
    };
    emitter.emit(&format!(
        "{{\"type\":\"serve-stop\",{}\"reason\":\"{reason}\"}}",
        stop_fields(audited, rejected)
    ));
    emitter.flush();
    Ok(violation_exit(args, violated || rejected > 0))
}

/// The `--serve` ops endpoint for generated traffic — plain, `--wal DIR`, or
/// `--wal DIR --recover DIR`: audited rounds back to back, each round's
/// window verdicts and convictions streamed as JSON lines while the workload
/// runs, then one `verdict` record (and, under `--metrics`, one guaranteed
/// `metrics` record).
///
/// `--wal` adds exactly three things: an optional recovery pass over the
/// rounds a previous process left behind; then the directory's
/// `wal-meta.json`, stored only after that pass, which must read the shape
/// the crashed rounds were produced with; and rounds that log to
/// `DIR/round-NNNN/` — numbered (and seeded) by the durable round index, so
/// a restarted endpoint continues where the killed one stopped — sealing at
/// window boundaries after flushing + fsyncing the `--sink` mirror.
fn serve(args: &Args) -> Result<ExitCode, Failure> {
    let wal_dir = args.wal.as_deref().map(Path::new);
    let wal_error =
        |err: std::io::Error| format!("--wal {}: {err}", args.wal.as_deref().unwrap_or_default());
    let AuditPlan::Windowed(shape) = args.plan else {
        unreachable!("parse_args forces the windowed plan under --serve")
    };
    let wal_field = wal_dir.map_or(String::new(), |dir| {
        format!("\"wal\":\"{}\",", json::escape(&dir.display().to_string()))
    });
    let start_fields = format!(
        "\"scenario\":\"{}\",\"backend\":\"{}\",\"window\":{},\"threads\":{},\
         \"txns_per_round\":{},{wal_field}",
        args.scenarios[0].name(),
        args.backends[0],
        shape.size,
        args.threads,
        args.threads * args.txns,
    );
    let resume = |emitter: &ServeEmitter| -> Result<bool, Failure> {
        let Some(dir) = wal_dir else { return Ok(false) };
        let violated = match args.recover {
            Some(_) => recover_rounds(args, dir, emitter, &mut Vec::new())?,
            None => false,
        };
        workloads::WalMeta { window: shape }.store(dir).map_err(wal_error)?;
        Ok(violated)
    };
    // One post-mortem per serve lifetime: the bounded event ring is dumped on
    // the *first* conviction and never again (the flight recorder's contents
    // after that point describe post-violation traffic).
    let post_mortem_done = &AtomicBool::new(false);
    let round = |emitter: &ServeEmitter, served: u64| -> Result<Served, Failure> {
        let round = match wal_dir {
            Some(dir) => workloads::next_round_index(dir).map_err(wal_error)?,
            None => served,
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
        Ok(Served::Audited { violated: report.violated() })
    };
    serve_lifecycle(args, &start_fields, resume, round, |rounds, _| format!("\"rounds\":{rounds},"))
}

/// `--ingest FILE|-` as a streaming document decoder: one document is
/// decoded (and audited) at a time, whatever the input's size.
fn open_ingest(source: &str) -> Result<Decoder<Box<dyn BufRead>>, Failure> {
    let reader: Box<dyn BufRead> = if source == "-" {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    } else {
        let file = std::fs::File::open(source).map_err(|e| format!("{source}: {e}"))?;
        Box::new(std::io::BufReader::new(file))
    };
    Ok(Decoder::new(reader))
}

/// `--ingest FILE|-` (batch invocation): decode the wire documents from the
/// file (or stdin) one at a time, audit each under the plan, and report like
/// a live run — per-document verdicts on stdout, `"ingest"` entries in the
/// `--json` document, `--fail-on-violation` semantics intact.  The first
/// malformed document ends the run with its positioned error (exit 2),
/// after the documents before it are reported.
fn ingest(args: &Args) -> Result<ExitCode, Failure> {
    let source = args.ingest.as_deref().expect("ingest dispatch");
    let mut decoder = open_ingest(source)?;
    let mut violated = false;
    let mut json_entries: Vec<String> = Vec::new();
    while let Some(history) = decoder.next_history().map_err(|e| format!("{source}: {e}"))? {
        let doc = json_entries.len();
        println!("history #{doc} from {source}: {}", history.shape());
        let verdict = Verdict::audit(&history, &args.plan)
            .expect("parse_args defaults --ingest to the batch plan");
        violated |= verdict.violated();
        println!("{verdict}");
        // The merged report is timing-free, so ingest replays of the same
        // document produce byte-identical JSON.
        json_entries.push(format!(
            "{{\"source\":\"ingest\",\"doc\":{doc},\"mode\":\"{}\",\"shape\":\"{}\",\
             \"report\":{}}}",
            verdict.mode(),
            json::escape(&history.shape()),
            verdict.merged().to_json()
        ));
    }
    if json_entries.is_empty() {
        return Err(format!("{source}: no history documents").into());
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
    let mut decoder = open_ingest(source)?;
    let AuditPlan::Windowed(shape) = args.plan else {
        unreachable!("parse_args forces the windowed plan under --serve")
    };
    let start_fields = format!(
        "\"mode\":\"ingest\",\"source\":\"{}\",\"window\":{},",
        json::escape(source),
        shape.size
    );
    // Set when a resync hits a read error: the stream cannot be trusted to
    // make progress, so the next step ends it.
    let mut dry = false;
    let document = |emitter: &ServeEmitter, doc: u64| -> Result<Served, Failure> {
        if dry {
            return Ok(Served::Exhausted);
        }
        Ok(match decoder.next_history() {
            Ok(Some(history)) => {
                let verdict = Verdict::audit(&history, &args.plan)
                    .expect("parse_args forces a streaming plan under --serve");
                emitter.emit(&format!(
                    "{{\"type\":\"ingest-verdict\",\"doc\":{doc},\"shape\":\"{}\",\
                     \"summary\":\"{}\",\"report\":{}}}",
                    json::escape(&history.shape()),
                    json::escape(&verdict.merged().summary()),
                    verdict.to_json()
                ));
                Served::Audited { violated: verdict.violated() }
            }
            Ok(None) => Served::Exhausted,
            Err(e) => {
                emitter.emit(&format!(
                    "{{\"type\":\"ingest-error\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
                    e.line,
                    e.col,
                    json::escape(&e.message)
                ));
                dry = decoder.skip_document().is_err();
                Served::Rejected
            }
        })
    };
    serve_lifecycle(
        args,
        &start_fields,
        |_| Ok(false),
        document,
        |docs, errors| format!("\"docs\":{docs},\"decode_errors\":{errors},"),
    )
}

/// Print a live run's audit lines in its plan's words and render its
/// `--json` entry.
fn print_live(report: &LiveReport) -> String {
    print_run_line(&report.run);
    let run = json_run_fields(&report.run);
    let Some(verdict) = &report.verdict else {
        println!();
        return format!("{{{run},\"mode\":\"off\"}}");
    };
    let timing = match verdict {
        Verdict::Batch(_) => {
            println!("  checked in {:.3?}", report.tail);
            "audit_ms"
        }
        Verdict::Windowed(stream) => {
            println!(
                "  merged verdict {:.3?} after run end ({} windowed txns)",
                report.tail, stream.total_txns
            );
            "drain_ms"
        }
    };
    println!("{verdict}");
    format!(
        "{{{run},\"mode\":\"{}\",\"{timing}\":{:.3},\"report\":{}}}",
        verdict.mode(),
        report.tail.as_secs_f64() * 1e3,
        verdict.to_json()
    )
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
                 (seed {})",
                scenario.name(),
                args.threads,
                args.txns,
                args.vars,
                args.seed
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
