//! The repository's benchmark: eight fixed-input workloads that measure
//! commit → merged verdict end to end and stage by stage, timed from outside
//! through public functions only.  See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick] [--out PATH]
//! ```
//!
//! With `--workload` the process runs that workload itself and its last line
//! of output is the result object.  Without it, the process re-executes
//! itself once per workload, so that peak memory and allocator state do not
//! leak from one workload into the next.

mod host;
mod inputs;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trace::Tracer;
use workloads::{RunCfg, Workload, ALL};

/// The default seed: the paper's SPAA session, 23 June 2014.
const DEFAULT_SEED: u64 = 20_140_623;

/// Default measuring time per workload: eight workloads with their set-up
/// finish inside a minute on two cores.
const DEFAULT_SECONDS: f64 = 5.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    cfg: RunCfg,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = ALL.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
         [--quick] [--out PATH]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: RunCfg { seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, traced: false, quick: false },
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                args.cfg.seconds = seconds;
            }
            "--trace" => {
                args.cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => args.cfg.traced = true,
            "--quick" => args.cfg.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if let Some(name) = &args.workload {
        if !ALL.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name:?}\n{}", usage()));
        }
    }
    Ok(args)
}

/// Whether the host has fewer cores than the load generator has threads.
fn oversubscribed() -> bool {
    host::nproc() < workloads::commit::WORKERS
}

/// The header every output starts with, as `(key, value)` pairs.
fn header(workload: &str, cfg: &RunCfg) -> Vec<(&'static str, String)> {
    vec![
        ("workload", workload.to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("traced", cfg.traced.to_string()),
        ("quick", cfg.quick.to_string()),
        ("nproc", host::nproc().to_string()),
        ("oversubscribed", oversubscribed().to_string()),
        ("commit", host::commit_id()),
        ("rustc", host::rustc_version()),
    ]
}

fn print_outcome(
    workload: &Workload,
    cfg: &RunCfg,
    head: &[(&'static str, String)],
    out: &Outcome,
) {
    let line: Vec<String> = head.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# pcl-benchmark {}", line.join(" "));
    if oversubscribed() {
        println!(
            "# WARNING: fewer cores than load-generating threads: wall-clock figures are not \
             comparable with a {}-core host's",
            workloads::commit::WORKERS
        );
    }
    if cfg.quick {
        println!(
            "# quick mode: 1/20 size, one round; oracles and output shape only, no timing claims"
        );
    }
    println!("# why: {}", workload.why);
    for line in &out.header {
        println!("# {line}");
    }
    let units: std::collections::BTreeMap<String, &'static str> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .map(|d| (d.name, d.unit))
        .collect();
    for (name, value) in &out.values {
        let samples = out.samples.get(name).map_or(String::new(), |n| format!("  (n={n})"));
        println!("{name:<44} {value:>18.6} {}{samples}", units.get(name).copied().unwrap_or(""));
    }
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "operations: attempted={} failed={} failed_share={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for error in &out.errors {
        println!("ORACLE MISMATCH: {error}");
    }
}

/// Run one workload in this process and print its result line last.
fn run_one(workload: &Workload, cfg: &RunCfg, out_path: Option<PathBuf>) -> ExitCode {
    let head = header(workload.name, cfg);
    let mut tracer = Tracer::new();
    let mut out = (workload.run)(cfg, &mut tracer);
    match host::peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.notes.push("peak_rss_mb: unsupported on this platform".to_string()),
    }
    out.set("failed_share", out.failed as f64 / out.attempted.max(1) as f64);
    print_outcome(workload, cfg, &head, &out);

    if cfg.traced {
        let path = out_path.unwrap_or_else(|| {
            host::package_dir().join("out").join(format!("trace-{}.json", workload.name))
        });
        let head_json = json::object(head.iter().map(|(k, v)| (*k, json::string(v))));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&head_json)));
        match written {
            Ok(()) => {
                println!("# trace: {} spans written to {}", tracer.spans().len(), path.display())
            }
            Err(e) => {
                eprintln!("cannot write the trace to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!("# self time by span name (a layer's span minus its children):");
        for s in tracer.self_times() {
            println!(
                "#   {:<36} spans={:<7} calls={:<9} total={:>10.4} s self={:>10.4} s",
                s.name, s.spans, s.calls, s.total_s, s.self_s
            );
        }
    }
    if out.attempted == 0 {
        eprintln!("{}: no operation was attempted", workload.name);
        return ExitCode::FAILURE;
    }
    match out.result_line(cfg.traced) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-execute this program once per workload (twice with `--traced`: the
/// end-to-end numbers are taken untraced) and gather the result lines.
fn run_suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to re-run it: {e}");
            return ExitCode::FAILURE;
        }
    };
    let start = std::time::Instant::now();
    let mut results = Vec::new();
    let mut ok = true;
    let passes: &[bool] = if args.cfg.traced { &[false, true] } else { &[false] };
    for workload in &ALL {
        for &traced in passes {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &args.cfg.seed.to_string()])
                .args(["--seconds", &args.cfg.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.cfg.quick {
                child.arg("--quick");
            }
            if let (true, Some(dir)) = (traced, &args.out) {
                child.arg("--out").arg(dir.join(format!("trace-{}.json", workload.name)));
            }
            // `output` waits for the child, so none outlives the suite.
            let output = match child.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("{}: cannot start the child process: {e}", workload.name);
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            println!();
            let last = stdout.lines().last().filter(|l| l.starts_with('{'));
            match (output.status.success(), last) {
                (true, Some(line)) => {
                    let key = if traced { "per_layer" } else { "end_to_end" };
                    results.push(format!(
                        "{{\"workload\":{},\"metrics\":\"{key}\",\"result\":{line}}}",
                        json::string(workload.name)
                    ));
                }
                _ => {
                    ok = false;
                    eprintln!("{}: FAILED ({})", workload.name, output.status);
                }
            }
        }
    }
    println!("# suite: {} runs in {:.1} s", results.len(), start.elapsed().as_secs_f64());
    println!("{{\"correct\":{ok},\"runs\":{}}}", json::array(results));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => {
            let workload = ALL.iter().find(|w| w.name == name).expect("checked by parse_args");
            run_one(workload, &args.cfg, args.out)
        }
        None => run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_flags_and_the_issue_flags_both_parse() {
        let a =
            parse(&["--workload", "hard-sat", "--seed", "9", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload.as_deref(), Some("hard-sat"));
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.traced, a.cfg.quick), (9, 10.0, true, false));
        let a = parse(&["--traced", "--quick", "--out", "x"]).unwrap();
        assert!(a.workload.is_none() && a.cfg.traced && a.cfg.quick);
        assert_eq!(a.cfg.seed, DEFAULT_SEED);
        assert_eq!(a.out, Some(PathBuf::from("x")));
        assert!(!parse(&["--trace", "0"]).unwrap().cfg.traced);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).unwrap_err().contains("unknown workload"));
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn workload_names_and_reasons_fit_the_contract() {
        assert!((2..=8).contains(&ALL.len()));
        for w in &ALL {
            assert!(
                w.name.len() <= 64 && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
    }
}
