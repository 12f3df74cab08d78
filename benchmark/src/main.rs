//! The repository benchmark.
//!
//! ```text
//! benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--toy] [--out FILE]
//! benchmark compare OLD NEW
//! ```
//!
//! With `--workload`, runs that workload for about `--seconds`, checks
//! every output, prints a table of every metric (median, quartiles,
//! sample count) and, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end table,
//! or with `--trace 1` the per-layer table. Without `--workload`, runs
//! every workload untraced and then traced, each in a fresh child
//! process. `--out` appends a labelled copy of each result line to FILE;
//! `compare` judges two such files metric by metric against the bounds
//! in `BENCHMARK.json`. `--toy` shrinks every input for smoke tests.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::process::{Command, ExitCode};

use tg_benchmark::workload::Workload;
use tg_benchmark::{offline, report, serve};

const USAGE: &str = "usage: benchmark [--workload serve_write|serve_read|serve_mixed|offline_audit] [--seed N] [--seconds S] [--trace 0|1] [--toy] [--out FILE]\n       benchmark compare OLD NEW";

/// The default measuring time of one run, seconds (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    toy: bool,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        toy: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            options.toy = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                options.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                options.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
            }
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                options.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            "--out" => options.out = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(options)
}

/// Runs one workload in this process and prints its report.
fn run_one(workload: Workload, options: &Options) -> Result<(), String> {
    let (toy, seed, seconds, trace) = (options.toy, options.seed, options.seconds, options.trace);
    let result = match workload {
        Workload::OfflineAudit => offline::run(toy, seed, seconds, trace),
        serve => serve::run(serve, toy, seed, seconds, trace),
    }?;
    let table = result.render_table()?;
    let line = result.result_line()?;
    if let Some(path) = &options.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(file, "{}", result.record_line()?)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    print!("{table}");
    println!("{line}");
    Ok(())
}

/// Runs every workload, untraced then traced, each in a fresh child
/// process so peak RSS and allocator state belong to that run.
fn run_all(options: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut command = Command::new(&exe);
            command.args([
                "--workload",
                workload.name(),
                "--seed",
                &options.seed.to_string(),
                "--seconds",
                &options.seconds.to_string(),
                "--trace",
                trace,
            ]);
            if options.toy {
                command.arg("--toy");
            }
            if let Some(out) = &options.out {
                command.args(["--out", out]);
            }
            let status = command
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            if !status.success() {
                failures.push(format!("{} (trace {trace})", workload.name()));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failures.join(", ")))
    }
}

fn compare(old: &str, new: &str) -> Result<bool, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let (table, regressed) = report::compare(&read(old)?, &read(new)?)?;
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, old, new] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare(old, new) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match options.workload {
        Some(workload) => run_one(workload, &options),
        None => run_all(&options),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
