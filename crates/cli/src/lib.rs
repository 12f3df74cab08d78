//! `tgq` — a command-line analyzer for Take-Grant protection graphs.
//!
//! ```text
//! tgq show <file>                      summary: vertices, edges, islands, levels
//! tgq dot <file>                       Graphviz DOT on stdout
//! tgq islands <file>                   island decomposition
//! tgq levels <file>                    derived rw- and rwtg-levels
//! tgq secure <file>                    derived security check (§5)
//! tgq can-share <file> <right> <x> <y> [--witness]
//! tgq can-know <file> <x> <y> [--witness]
//! tgq can-know-f <file> <x> <y>
//! tgq figure <2.1|2.2|3.1|4.1|4.2|5.1|6.1>
//! tgq monitor <graph> <policy> <trace> [--batch] [--log <dir>]
//! tgq replay <graph> <policy> <log-dir> [--dump-state <file>]
//! tgq serve <graph> <policy> --listen <addr>|--unix <path>   the TGP1 daemon
//! tgq client --connect <addr>|--unix <path> [--script <file>]
//! tgq at <log-dir> <epoch> <query...>     query a reconstructed historical state
//! tgq diff <log-dir> <epoch1> <epoch2>    edge/verdict delta between two epochs
//! tgq lint <graph> [<policy>] [--format text|json|sarif] [--fix] [--deny <code>]
//! tgq plan <graph> <policy> <trace>    vet a trace statically, without applying it
//! tgq watch <graph> <policy> <trace>   incremental per-rule audit of a trace
//! tgq trace <graph> <policy> <trace> [--out <file>] [--format chrome|jsonl]
//! tgq stats                            the span/counter catalog with paper refs
//! tgq gen <family> [--scale N] [--seed N] [--campaign conspiracy|trojan|none] [--out dir]
//! tgq bench [--scale N] [--levels N] [--per-level N] [--ops N] [--seed N] [--json <file>]
//! ```
//!
//! Every subcommand also accepts two global flags. `--stats` runs the
//! command inside a `tg-obs` recording session and appends the aggregate
//! span/counter table (`tgq stats` lists what each row measures).
//! `--jobs <n>` sets the worker count for the commands that evaluate in
//! parallel (`audit`, `lint`, `bench`, `watch`); the default is the
//! `TGQ_JOBS` environment variable if set, else the machine's available
//! parallelism, and `--jobs 1` is exactly the sequential path. Parallel
//! output is byte-identical at any job count (see `tg-par`).
//! `tgq trace` replays a rule trace through the monitor with
//! an attached incremental index and emits the captured event stream as
//! Chrome `trace_event` JSON (load it in `chrome://tracing` or
//! <https://ui.perfetto.dev>) or JSONL.
//!
//! Exit codes: `0` success (for `lint`: no diagnostics above info), `1`
//! analysis failure or negative verdict (for `lint`: warnings), `2` usage
//! error (for `lint`: error-severity diagnostics).
//!
//! Graph files use the `tg-graph` text format (`subject`/`object`/`edge`
//! lines); vertices are referred to by name. Rule traces use the
//! `tg-rules` codec (one rule per line).
//!
//! `tgq monitor --log <dir>` commits every event the monitor records
//! through the hash-chained `tg-log` commit log in `<dir>`, writing an
//! epoch snapshot every `--snap-interval <n>` commits (default 64;
//! `0` disables). Rerunning against the same directory *continues* the
//! logged history: the prior state is recovered from the newest valid
//! snapshot plus a verified chain-suffix replay. `tgq replay` takes a
//! commit-log directory (any other path fails closed) and prints a
//! recovery report (snapshot used, records replayed, torn-tail bytes,
//! chain-verify result). `tgq at` and `tgq diff` reconstruct committed
//! historical states by epoch, opening the log **read-only**: a query
//! never rewrites the log directory (only `monitor` and `replay` heal a
//! torn chain on disk). A forged, reordered, spliced or
//! mid-chain-corrupted log **fails closed** (exit `1`) on every one of
//! these commands; only a torn tail (a crashed append) is truncated,
//! and that truncation is reported.
//!
//! `tgq serve` boots the same monitor as a resident daemon speaking the
//! TGP1 wire protocol (normative spec: `docs/PROTOCOL.md`) over TCP
//! (`--listen`) or a Unix socket (`--unix`), with every mutation
//! admission-batched through one gateway and, with `--log <dir>`,
//! committed through the hash-chained log before the verdict is sent.
//! `tgq client` drives a running daemon with a line-oriented script
//! (`ping`, `apply <rule>`, `can-share <right> <x> <y>`, `can-know`,
//! `same-island`, `audit`, `stats`, `shutdown`); it exits `1` if any
//! request was answered with an `error` frame. `--dump-state <file>` on
//! `serve` and `replay` writes the final graph in `tg-graph` text form,
//! so CI can check a daemon's end state is byte-identical to an offline
//! recovery of its commit log.

#![forbid(unsafe_code)]

pub mod bench;
mod serve;

use std::fmt::Write as _;

use tg_analysis::{
    can_know, can_know_f, can_share, can_steal, min_conspirators, synthesis, Islands,
};
use tg_graph::{
    parse_graph, parse_graph_with_spans, render_graph, DotOptions, ProtectionGraph, Right, VertexId,
};
use tg_hierarchy::policy::parse_policy;
use tg_hierarchy::{rw_levels, rwtg_levels, secure_derived, secure_policy, CombinedRestriction};
use tg_lint::{apply_deny, apply_fixes, render, Diagnostic, LintContext, Registry, Severity};

/// How a `tgq` invocation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CliError {
    /// The command line itself is wrong (unknown subcommand, bad arity,
    /// malformed flag). The binary exits `2`.
    Usage(String),
    /// The inputs or the analysis failed (unreadable file, parse error,
    /// negative verdict). The binary exits `1`.
    Fail(String),
}

impl CliError {
    /// The message, regardless of kind.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Fail(m) => m,
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Fail(m)
    }
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.message())
    }
}

/// One `tgq` subcommand: its positional signature and every optional
/// flag it accepts. Usage lines are **generated** from this table
/// ([`usage_line`]), so a flag added to the parser cannot silently go
/// missing from the help text — the hand-written strings this replaces
/// had drifted from what `bench` and `watch` actually accepted.
pub struct CommandSpec {
    /// Subcommand name as typed.
    pub name: &'static str,
    /// Positional arguments, rendered verbatim (empty for none).
    pub args: &'static str,
    /// Optional flags with their value shapes, e.g. `"--log <dir>"`;
    /// each renders bracketed after the positionals.
    pub flags: &'static [&'static str],
}

/// Every subcommand, in help order.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "show",
        args: "<file>",
        flags: &[],
    },
    CommandSpec {
        name: "dot",
        args: "<file>",
        flags: &[],
    },
    CommandSpec {
        name: "islands",
        args: "<file>",
        flags: &[],
    },
    CommandSpec {
        name: "levels",
        args: "<file>",
        flags: &[],
    },
    CommandSpec {
        name: "secure",
        args: "<file>",
        flags: &[],
    },
    CommandSpec {
        name: "secure-policy",
        args: "<graph-file> <policy-file>",
        flags: &[],
    },
    CommandSpec {
        name: "audit",
        args: "<graph-file> <policy-file>",
        flags: &[],
    },
    CommandSpec {
        name: "explain",
        args: "<graph> <policy> take|grant <actor> <via> <target> <right>",
        flags: &[],
    },
    CommandSpec {
        name: "can-share",
        args: "<file> <right> <x> <y>",
        flags: &["--witness"],
    },
    CommandSpec {
        name: "can-know",
        args: "<file> <x> <y>",
        flags: &["--witness"],
    },
    CommandSpec {
        name: "can-know-f",
        args: "<file> <x> <y>",
        flags: &[],
    },
    CommandSpec {
        name: "can-steal",
        args: "<file> <right> <x> <y>",
        flags: &["--witness"],
    },
    CommandSpec {
        name: "conspirators",
        args: "<file> <right> <x> <y>",
        flags: &[],
    },
    CommandSpec {
        name: "figure",
        args: "<2.1|2.2|3.1|4.1|4.2|5.1|6.1>",
        flags: &[],
    },
    CommandSpec {
        name: "monitor",
        args: "<graph> <policy> <trace>",
        flags: &["--batch", "--log <dir>", "--snap-interval <n>"],
    },
    CommandSpec {
        name: "replay",
        args: "<graph> <policy> <log-dir>",
        flags: &["--dump-state <file>"],
    },
    CommandSpec {
        name: "serve",
        args: "<graph> <policy>",
        flags: &[
            "--listen <addr>",
            "--unix <path>",
            "--batch-window <n>",
            "--log <dir>",
            "--snap-interval <n>",
            "--dump-state <file>",
        ],
    },
    CommandSpec {
        name: "client",
        args: "",
        flags: &["--connect <addr>", "--unix <path>", "--script <file>"],
    },
    CommandSpec {
        name: "at",
        args: "<log-dir> <epoch> can-share <right> <x> <y> | can-know <x> <y> | can-steal <right> <x> <y> | audit",
        flags: &[],
    },
    CommandSpec {
        name: "diff",
        args: "<log-dir> <epoch1> <epoch2>",
        flags: &[],
    },
    CommandSpec {
        name: "lint",
        args: "<graph> [<policy>]",
        flags: &[
            "--format text|json|sarif",
            "--fix",
            "--deny <code|warn|info|all>",
        ],
    },
    CommandSpec {
        name: "plan",
        args: "<graph> <policy> <trace>",
        flags: &["--format text|json|sarif", "--deny <code|warn|info|all>"],
    },
    CommandSpec {
        name: "watch",
        args: "<graph> <policy> <trace>",
        flags: &[],
    },
    CommandSpec {
        name: "trace",
        args: "<graph> <policy> <trace>",
        flags: &["--out <file>", "--format chrome|jsonl"],
    },
    CommandSpec {
        name: "stats",
        args: "",
        flags: &[],
    },
    CommandSpec {
        name: "gen",
        args: "<military|chain|antichain|dag>",
        flags: &[
            "--scale <n>",
            "--seed <n>",
            "--campaign conspiracy|trojan|none",
            "--out <dir>",
        ],
    },
    CommandSpec {
        name: "bench",
        args: "",
        flags: &[
            "--scale <n>",
            "--levels <n>",
            "--per-level <n>",
            "--ops <n>",
            "--seed <n>",
            "--json <file>",
        ],
    },
];

/// The generated usage line for `command`: positionals, then each flag
/// bracketed, then the globals `[--jobs <n>] [--stats]` every command
/// accepts (except `stats` itself, which *is* the metrics surface).
pub fn usage_line(command: &str) -> String {
    let spec = COMMANDS
        .iter()
        .find(|c| c.name == command)
        .expect("every dispatched command has a table entry");
    let mut line = format!("tgq {}", spec.name);
    if !spec.args.is_empty() {
        let _ = write!(line, " {}", spec.args);
    }
    for flag in spec.flags {
        let _ = write!(line, " [{flag}]");
    }
    if spec.name != "stats" {
        line.push_str(" [--jobs <n>] [--stats]");
    }
    line
}

/// The usage error for one command.
fn usage_of(command: &str) -> CliError {
    CliError::Usage(format!("usage: {}", usage_line(command)))
}

fn usage() -> String {
    let mut out = String::from("usage: tgq <command> ...\n");
    for spec in COMMANDS {
        let _ = writeln!(out, "  {}", usage_line(spec.name));
    }
    out.push_str("run with a command name for details");
    out
}

fn load(path: &str) -> Result<ProtectionGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_graph(&text).map_err(|e| format!("{path}: {e}"))
}

fn vertex(graph: &ProtectionGraph, name: &str) -> Result<VertexId, String> {
    graph
        .find_by_name(name)
        .ok_or_else(|| format!("no vertex named {name:?}"))
}

fn name(graph: &ProtectionGraph, v: VertexId) -> String {
    graph.vertex(v).name.clone()
}

/// Opens the commit log in `dir` **read-only** (self-anchored: the
/// epoch-0 snapshot validates the chain's genesis digest) and
/// reconstructs the committed state at `epoch`. Queries never rewrite
/// the log directory: a torn tail is truncated in memory only, leaving
/// the on-disk bytes for `tgq replay` to heal. Any verification failure
/// — forged hash link, mid-chain corruption, unusable snapshots, replay
/// divergence — fails closed as a [`CliError::Fail`] (exit `1`).
fn state_at(
    dir: &str,
    epoch: u64,
) -> Result<(tg_hierarchy::Monitor, tg_log::TravelInfo), CliError> {
    let store = tg_log::DirStore::open(dir).map_err(|e| e.to_string())?;
    let (log, _) = tg_log::CommitLog::open_read_only(
        Box::new(store),
        Box::new(CombinedRestriction),
        tg_log::LogConfig::default(),
        None,
    )
    .map_err(|e| CliError::Fail(format!("{dir}: {e}")))?;
    log.state_at(epoch, Box::new(CombinedRestriction))
        .map_err(|e| CliError::Fail(format!("{dir}: {e}")))
}

/// Every edge keyed by endpoint indices, with its explicit and implicit
/// labels rendered, for epoch-to-epoch diffing (vertex ids are stable
/// across epochs: replaying a longer prefix only appends vertices).
fn edge_map(
    graph: &ProtectionGraph,
) -> std::collections::BTreeMap<(usize, usize), (String, String)> {
    graph
        .edges()
        .map(|e| {
            (
                (e.src.index(), e.dst.index()),
                (
                    e.rights.explicit().to_string(),
                    e.rights.implicit().to_string(),
                ),
            )
        })
        .collect()
}

fn rights_text(rights: &(String, String)) -> String {
    let (explicit, implicit) = rights;
    if implicit == "∅" {
        explicit.clone()
    } else {
        format!("{explicit} [de facto: {implicit}]")
    }
}

fn edge_label(graph: &ProtectionGraph, key: (usize, usize), rights: &(String, String)) -> String {
    format!(
        "{} -> {} : {}",
        name(graph, VertexId::from_index(key.0)),
        name(graph, VertexId::from_index(key.1)),
        rights_text(rights)
    )
}

/// Executes one `tgq` invocation, writing human-readable output to `out`.
/// Returns `Err` with a message for usage errors, unparsable inputs and
/// negative `secure`-family verdicts, and `Err` with a short summary when
/// a command (such as `lint`) asks for a nonzero exit despite producing
/// output. Compatibility wrapper over [`run_full`].
pub fn run(args: &[String], out: &mut String) -> Result<(), String> {
    match run_full(args, out) {
        Ok(0) => Ok(()),
        Ok(code) => Err(format!("exit code {code}")),
        Err(e) => Err(e.message().to_string()),
    }
}

/// Executes one `tgq` invocation, writing human-readable output to `out`.
/// `Ok(code)` is the process exit status a successful dispatch asks for
/// (nonzero for `lint` findings); [`CliError`] distinguishes usage errors
/// (exit `2`) from input/analysis failures (exit `1`).
///
/// The global `--stats` flag (accepted by every subcommand, stripped
/// here before dispatch) wraps the run in a [`tg_obs::Session`] and
/// appends the aggregate span/counter table to `out`.
pub fn run_full(args: &[String], out: &mut String) -> Result<u8, CliError> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stats, args) = split_flag(&args, "--stats");
    // Global `--jobs <n>`: the worker pool handed to every subcommand
    // that evaluates in parallel. Flag beats `TGQ_JOBS` beats available
    // parallelism; `--jobs 1` runs inline on this thread.
    let (jobs, args) = split_opt(&args, "--jobs")?;
    let pool = match jobs {
        Some(raw) => {
            let n: usize = raw
                .parse()
                .map_err(|_| CliError::Usage(format!("--jobs expects a number, got {raw:?}")))?;
            if n == 0 {
                return Err(CliError::Usage("--jobs must be at least 1".to_string()));
            }
            tg_par::Pool::new(n)
        }
        None => tg_par::Pool::from_env_or_available(),
    };
    // `trace` needs event capture; one session serves both it and
    // `--stats` (tg_obs sessions are exclusive, so nesting would
    // deadlock).
    let capture_events = args.first() == Some(&"trace");
    let session = if stats || capture_events {
        Some(tg_obs::Session::start(true, capture_events))
    } else {
        None
    };
    let result = {
        let _span = tg_obs::span(tg_obs::SpanKind::CliCommand);
        dispatch(&args, out, session.as_ref(), &pool)
    };
    if stats {
        if let Some(session) = &session {
            let _ = writeln!(out);
            out.push_str(&session.snapshot().render_table());
        }
    }
    result
}

fn dispatch(
    args: &[&str],
    out: &mut String,
    session: Option<&tg_obs::Session>,
    pool: &tg_par::Pool,
) -> Result<u8, CliError> {
    let mut iter = args.iter().copied();
    let command = iter.next().ok_or_else(|| CliError::Usage(usage()))?;
    let rest: Vec<&str> = iter.collect();
    match command {
        "show" => {
            let [path] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(path)?;
            let _ = writeln!(
                out,
                "{} vertices ({} subjects, {} objects), {} edges ({} explicit)",
                g.vertex_count(),
                g.subjects().count(),
                g.objects().count(),
                g.edge_count(),
                g.explicit_edge_count()
            );
            let stats = tg_graph::stats::stats(&g);
            let _ = writeln!(out, "rights histogram: {}", stats.rights_histogram());
            let _ = writeln!(
                out,
                "max out-degree {}, max in-degree {}",
                stats.max_out_degree, stats.max_in_degree
            );
            let islands = Islands::compute(&g);
            let _ = writeln!(out, "{} islands", islands.len());
            let rw = rw_levels(&g);
            let rwtg = rwtg_levels(&g);
            let _ = writeln!(out, "{} rw-levels, {} rwtg-levels", rw.len(), rwtg.len());
            Ok(0)
        }
        "dot" => {
            let [path] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(path)?;
            let _ = write!(out, "{}", DotOptions::default().render(&g));
            Ok(0)
        }
        "islands" => {
            let [path] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(path)?;
            let islands = Islands::compute(&g);
            for (i, island) in islands.iter().enumerate() {
                let names: Vec<String> = island.iter().map(|&v| name(&g, v)).collect();
                let _ = writeln!(out, "island {i}: {{{}}}", names.join(", "));
            }
            Ok(0)
        }
        "levels" => {
            let [path] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(path)?;
            for (title, levels) in [("rw", rw_levels(&g)), ("rwtg", rwtg_levels(&g))] {
                let _ = writeln!(out, "{title}-levels:");
                for i in 0..levels.len() {
                    let names: Vec<String> =
                        levels.members(i).iter().map(|&v| name(&g, v)).collect();
                    let above: Vec<String> = (0..levels.len())
                        .filter(|&j| levels.higher(i, j))
                        .map(|j| format!("{j}"))
                        .collect();
                    if above.is_empty() {
                        let _ = writeln!(out, "  level {i}: {{{}}}", names.join(", "));
                    } else {
                        let _ = writeln!(
                            out,
                            "  level {i}: {{{}}} (higher than {})",
                            names.join(", "),
                            above.join(", ")
                        );
                    }
                }
            }
            Ok(0)
        }
        "secure" => {
            let [path] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(path)?;
            match secure_derived(&g) {
                Ok(()) => {
                    let _ = writeln!(
                        out,
                        "secure: the de jure rules cannot invert the de facto hierarchy"
                    );
                    Ok(0)
                }
                Err(breach) => Err(format!(
                    "INSECURE: {} can come to know {} ({})",
                    name(&g, breach.x),
                    name(&g, breach.y),
                    breach.reason
                )
                .into()),
            }
        }
        "can-share" => {
            let (witness, rest): (bool, Vec<&str>) = split_flag(&rest, "--witness");
            let [path, right, x, y] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(path)?;
            let right = Right::parse(right).ok_or_else(|| format!("unknown right {right:?}"))?;
            let vx = vertex(&g, x)?;
            let vy = vertex(&g, y)?;
            if can_share(&g, right, vx, vy) {
                let _ = writeln!(out, "true: {x} can acquire {right} to {y}");
                if witness {
                    let d = synthesis::share_witness(&g, right, vx, vy)
                        .map_err(|e| format!("witness synthesis failed: {e}"))?;
                    let _ = write!(out, "{d}");
                }
                Ok(0)
            } else {
                let _ = writeln!(out, "false: {x} can never acquire {right} to {y}");
                Ok(0)
            }
        }
        "can-know" | "can-know-f" => {
            let (witness, rest): (bool, Vec<&str>) = split_flag(&rest, "--witness");
            let [path, x, y] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(path)?;
            let vx = vertex(&g, x)?;
            let vy = vertex(&g, y)?;
            let result = if command == "can-know" {
                can_know(&g, vx, vy)
            } else {
                can_know_f(&g, vx, vy)
            };
            if result {
                let _ = writeln!(out, "true: {x} can come to know {y}'s information");
                if witness && command == "can-know" {
                    let d = synthesis::know_witness(&g, vx, vy)
                        .map_err(|e| format!("witness synthesis failed: {e}"))?;
                    let _ = write!(out, "{d}");
                }
            } else {
                let _ = writeln!(out, "false: information cannot flow from {y} to {x}");
            }
            Ok(0)
        }
        "secure-policy" | "audit" => {
            let [graph_path, policy_path] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(graph_path)?;
            let policy_text = std::fs::read_to_string(policy_path)
                .map_err(|e| format!("cannot read {policy_path}: {e}"))?;
            let levels =
                parse_policy(&policy_text, &g).map_err(|e| format!("{policy_path}: {e}"))?;
            if command == "audit" {
                // Island-sharded parallel Corollary 5.6 scan; with
                // `--jobs 1` this is the sequential edge walk, and the
                // output is byte-identical at any width.
                let violations = tg_par::par_audit(&g, &levels, &CombinedRestriction, pool);
                if violations.is_empty() {
                    let _ = writeln!(out, "audit clean: no r/w edge crosses levels");
                    Ok(0)
                } else {
                    for v in &violations {
                        let _ = writeln!(
                            out,
                            "violation: {} -> {} : {}",
                            name(&g, v.src),
                            name(&g, v.dst),
                            v.rights
                        );
                    }
                    Err(format!("{} violating edge(s)", violations.len()).into())
                }
            } else {
                match secure_policy(&g, &levels) {
                    Ok(()) => {
                        let _ = writeln!(out, "secure: every knowable pair respects dominance");
                        Ok(0)
                    }
                    Err(breach) => Err(format!(
                        "INSECURE: {} can come to know {}",
                        name(&g, breach.x),
                        name(&g, breach.y)
                    )
                    .into()),
                }
            }
        }
        "can-steal" => {
            let (witness, rest): (bool, Vec<&str>) = split_flag(&rest, "--witness");
            let [path, right, x, y] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(path)?;
            let right = Right::parse(right).ok_or_else(|| format!("unknown right {right:?}"))?;
            let vx = vertex(&g, x)?;
            let vy = vertex(&g, y)?;
            if can_steal(&g, right, vx, vy) {
                let _ = writeln!(
                    out,
                    "true: {x} can steal {right} to {y} (no owner grants it)"
                );
                if witness {
                    let d = synthesis::steal_witness(&g, right, vx, vy)
                        .map_err(|e| format!("witness synthesis failed: {e}"))?;
                    let _ = write!(out, "{d}");
                }
            } else {
                let _ = writeln!(out, "false: {x} cannot steal {right} to {y}");
            }
            Ok(0)
        }
        "conspirators" => {
            let [path, right, x, y] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(path)?;
            let right = Right::parse(right).ok_or_else(|| format!("unknown right {right:?}"))?;
            let vx = vertex(&g, x)?;
            let vy = vertex(&g, y)?;
            match min_conspirators(&g, right, vx, vy) {
                None => {
                    let _ = writeln!(out, "can_share is false: no conspiracy suffices");
                }
                Some(chain) if chain.is_empty() => {
                    let _ = writeln!(out, "0 conspirators: {x} already holds {right} to {y}");
                }
                Some(chain) => {
                    let names: Vec<String> = chain.iter().map(|&v| name(&g, v)).collect();
                    let _ = writeln!(
                        out,
                        "{} conspirator(s): {}",
                        chain.len(),
                        names.join(" -> ")
                    );
                }
            }
            Ok(0)
        }
        "explain" => {
            let [graph_path, policy_path, verb, actor, via, target, right] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(graph_path)?;
            let policy_text = std::fs::read_to_string(policy_path)
                .map_err(|e| format!("cannot read {policy_path}: {e}"))?;
            let levels =
                parse_policy(&policy_text, &g).map_err(|e| format!("{policy_path}: {e}"))?;
            let rights = tg_graph::Rights::singleton(
                Right::parse(right).ok_or_else(|| format!("unknown right {right:?}"))?,
            );
            let (actor, via, target) = (vertex(&g, actor)?, vertex(&g, via)?, vertex(&g, target)?);
            let rule = match *verb {
                "take" => tg_rules::Rule::DeJure(tg_rules::DeJureRule::Take {
                    actor,
                    via,
                    target,
                    rights,
                }),
                "grant" => tg_rules::Rule::DeJure(tg_rules::DeJureRule::Grant {
                    actor,
                    via,
                    target,
                    rights,
                }),
                other => return Err(format!("unknown rule verb {other:?} (take|grant)").into()),
            };
            let monitor =
                tg_hierarchy::Monitor::new(g.clone(), levels, Box::new(CombinedRestriction));
            match monitor.explain(&rule).map_err(|e| e.to_string())? {
                None => {
                    let _ = writeln!(out, "permitted: the combined restriction allows this rule");
                }
                Some(explanation) => {
                    let _ = writeln!(out, "denied: {}", explanation.reason);
                    if explanation.enabled_breaches.is_empty() {
                        let _ = writeln!(
                            out,
                            "permitting it creates no immediate de facto breach (the \
                             restriction is conservative about edges)"
                        );
                    } else {
                        let _ = writeln!(out, "permitting it would create:");
                        for b in &explanation.enabled_breaches {
                            let _ = writeln!(
                                out,
                                "  {} would come to know {}",
                                name(&g, b.x),
                                name(&g, b.y)
                            );
                        }
                    }
                }
            }
            Ok(0)
        }
        "monitor" => {
            let (batch, rest) = split_flag(&rest, "--batch");
            let (log_dir, rest) = split_opt(&rest, "--log")?;
            let (snap_interval, rest) = split_opt(&rest, "--snap-interval")?;
            let [graph_path, policy_path, trace_path] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            if snap_interval.is_some() && log_dir.is_none() {
                return Err(CliError::Usage(
                    "--snap-interval only makes sense with --log <dir>".to_string(),
                ));
            }
            let interval: u64 = match snap_interval {
                None => 64,
                Some(raw) => raw.parse().map_err(|_| {
                    CliError::Usage(format!("--snap-interval expects a number, got {raw:?}"))
                })?,
            };
            let g = load(graph_path)?;
            let policy_text = std::fs::read_to_string(policy_path)
                .map_err(|e| format!("cannot read {policy_path}: {e}"))?;
            let levels =
                parse_policy(&policy_text, &g).map_err(|e| format!("{policy_path}: {e}"))?;
            let trace_text = std::fs::read_to_string(trace_path)
                .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
            let trace = tg_rules::codec::decode_derivation(&trace_text)
                .map_err(|e| format!("{trace_path}: {e}"))?;
            // With --log, the monitor commits every recorded event
            // through the hash-chained log in <dir>; an existing chain
            // there is recovered and continued (its genesis must match
            // the seed files, so a directory from another system is
            // rejected).
            let (log, mut monitor) = match log_dir {
                None => (
                    None,
                    tg_hierarchy::Monitor::new(g, levels, Box::new(CombinedRestriction)),
                ),
                Some(dir) => {
                    let config = tg_log::LogConfig {
                        snapshot_interval: interval,
                        write_through: true,
                    };
                    let store = tg_log::DirStore::open(dir).map_err(|e| e.to_string())?;
                    let fresh = !store.dir().join(tg_log::CHAIN_FILE).exists();
                    if fresh {
                        let (log, monitor) = tg_log::CommitLog::create(
                            Box::new(store),
                            g,
                            levels,
                            Box::new(CombinedRestriction),
                            config,
                        )
                        .map_err(|e| format!("{dir}: {e}"))?;
                        let _ = writeln!(out, "commit log created in {dir}");
                        (Some(log), monitor)
                    } else {
                        let genesis = tg_log::seed_digest(&g, &levels);
                        let (log, monitor, report) = tg_log::CommitLog::open(
                            Box::new(store),
                            Box::new(CombinedRestriction),
                            config,
                            Some(genesis),
                        )
                        .map_err(|e| format!("{dir}: {e}"))?;
                        let _ = writeln!(
                            out,
                            "commit log resumed at epoch {} (snapshot {} + {} replayed)",
                            report.end_epoch, report.snapshot_epoch, report.replayed
                        );
                        (Some(log), monitor)
                    }
                }
            };
            if batch {
                match monitor.try_apply_all(&trace.steps) {
                    Ok(effects) => {
                        let _ = writeln!(out, "batch committed: {} rules applied", effects.len());
                    }
                    Err(e) => {
                        let _ = writeln!(
                            out,
                            "batch rolled back at rule {} ({}): {}",
                            e.index, e.rule, e.error
                        );
                    }
                }
                if let Some(log) = &log {
                    log.maybe_snapshot(&monitor).map_err(|e| e.to_string())?;
                }
            } else {
                for rule in &trace.steps {
                    match monitor.try_apply(rule) {
                        Ok(_) => {}
                        Err(e) => {
                            let _ = writeln!(out, "refused {rule}: {e}");
                        }
                    }
                    if let Some(log) = &log {
                        log.maybe_snapshot(&monitor).map_err(|e| e.to_string())?;
                    }
                }
            }
            let stats = monitor.stats();
            let _ = writeln!(
                out,
                "{} permitted, {} denied, {} malformed, {} refused",
                stats.permitted, stats.denied, stats.malformed, stats.refused
            );
            let violations = monitor.audit_cycle();
            if violations.is_empty() {
                let _ = writeln!(out, "audit clean: no r/w edge crosses levels");
            } else {
                let g = monitor.graph();
                for v in &violations {
                    let _ = writeln!(
                        out,
                        "violation: {} -> {} : {}",
                        name(g, v.src),
                        name(g, v.dst),
                        v.rights
                    );
                }
                let _ = writeln!(out, "monitor degraded: de jure rules now fail closed");
            }
            if let Some(log) = &log {
                log.persist().map_err(|e| e.to_string())?;
                let _ = writeln!(
                    out,
                    "commit log at epoch {} ({} snapshot(s), head {})",
                    log.end_epoch(),
                    log.snapshot_epochs().len(),
                    tg_log::hex16(log.head_hash())
                );
            }
            Ok(0)
        }
        "serve" => serve::cmd_serve(&rest, out, pool),
        "client" => serve::cmd_client(&rest, out),
        "replay" => {
            let (dump_state, rest) = split_opt(&rest, "--dump-state")?;
            let [graph_path, policy_path, log_dir] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(graph_path)?;
            let policy_text = std::fs::read_to_string(policy_path)
                .map_err(|e| format!("cannot read {policy_path}: {e}"))?;
            let levels =
                parse_policy(&policy_text, &g).map_err(|e| format!("{policy_path}: {e}"))?;
            // Checked before DirStore::open, which would create a
            // missing directory: a file or a typo fails closed.
            if !std::path::Path::new(log_dir).is_dir() {
                return Err(CliError::Fail(format!(
                    "{log_dir}: not a directory: replay needs a commit-log directory \
                     (written by `tgq monitor --log` or `tgq serve --log`)"
                )));
            }
            // Recover through the hash chain, pinning its genesis to
            // these seed files.
            let store = tg_log::DirStore::open(*log_dir).map_err(|e| e.to_string())?;
            let genesis = tg_log::seed_digest(&g, &levels);
            let (_, monitor, report) = tg_log::CommitLog::open(
                Box::new(store),
                Box::new(CombinedRestriction),
                tg_log::LogConfig::default(),
                Some(genesis),
            )
            .map_err(|e| format!("{log_dir}: {e}"))?;
            let _ = writeln!(out, "recovered: {} records replayed", report.replayed);
            let _ = writeln!(out, "recovery report:");
            let _ = writeln!(
                out,
                "  chain verify: ok (genesis {})",
                tg_log::hex16(report.genesis)
            );
            let _ = writeln!(
                out,
                "  snapshot used: epoch {} ({} rejected)",
                report.snapshot_epoch, report.snapshots_rejected
            );
            let _ = writeln!(out, "  records replayed: {}", report.replayed);
            match report.torn {
                Some(t) => {
                    let _ = writeln!(out, "  torn tail: {} bytes truncated", t.dropped_bytes);
                }
                None => {
                    let _ = writeln!(out, "  torn tail: none");
                }
            }
            let _ = writeln!(
                out,
                "  open batch: {}",
                if report.discarded_open_batch {
                    "discarded"
                } else {
                    "none"
                }
            );
            let _ = writeln!(
                out,
                "  recovered epoch: {} (base {})",
                report.end_epoch, report.base_epoch
            );
            let stats = monitor.stats();
            let _ = writeln!(
                out,
                "{} permitted, {} denied, {} malformed, {} refused",
                stats.permitted, stats.denied, stats.malformed, stats.refused
            );
            let g = monitor.graph();
            let _ = writeln!(
                out,
                "{} vertices, {} explicit edges",
                g.vertex_count(),
                g.explicit_edge_count()
            );
            if let Some(path) = dump_state {
                std::fs::write(path, render_graph(g))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                let _ = writeln!(out, "recovered state dumped to {path}");
            }
            Ok(0)
        }
        "at" => {
            let (dir, epoch, query) = match rest.as_slice() {
                [dir, epoch, query @ ..] if !query.is_empty() => (*dir, *epoch, query.to_vec()),
                _ => return Err(usage_of(command)),
            };
            let epoch: u64 = epoch
                .parse()
                .map_err(|_| CliError::Usage(format!("not an epoch number: {epoch:?}")))?;
            let (monitor, info) = state_at(dir, epoch)?;
            let g = monitor.graph();
            let _ = writeln!(
                out,
                "epoch {epoch} (snapshot {} + {} replayed):",
                info.snapshot_epoch, info.replayed
            );
            match query.as_slice() {
                ["can-share", right, x, y] => {
                    let right =
                        Right::parse(right).ok_or_else(|| format!("unknown right {right:?}"))?;
                    let (vx, vy) = (vertex(g, x)?, vertex(g, y)?);
                    if can_share(g, right, vx, vy) {
                        let _ = writeln!(out, "true: {x} can acquire {right} to {y}");
                    } else {
                        let _ = writeln!(out, "false: {x} can never acquire {right} to {y}");
                    }
                    Ok(0)
                }
                ["can-know", x, y] => {
                    let (vx, vy) = (vertex(g, x)?, vertex(g, y)?);
                    if can_know(g, vx, vy) {
                        let _ = writeln!(out, "true: {x} can come to know {y}'s information");
                    } else {
                        let _ = writeln!(out, "false: information cannot flow from {y} to {x}");
                    }
                    Ok(0)
                }
                ["can-steal", right, x, y] => {
                    let right =
                        Right::parse(right).ok_or_else(|| format!("unknown right {right:?}"))?;
                    let (vx, vy) = (vertex(g, x)?, vertex(g, y)?);
                    if can_steal(g, right, vx, vy) {
                        let _ = writeln!(
                            out,
                            "true: {x} can steal {right} to {y} (no owner grants it)"
                        );
                    } else {
                        let _ = writeln!(out, "false: {x} cannot steal {right} to {y}");
                    }
                    Ok(0)
                }
                ["audit"] => {
                    let violations = monitor.audit();
                    if violations.is_empty() {
                        let _ = writeln!(out, "audit clean: no r/w edge crosses levels");
                        Ok(0)
                    } else {
                        for v in &violations {
                            let _ = writeln!(
                                out,
                                "violation: {} -> {} : {}",
                                name(g, v.src),
                                name(g, v.dst),
                                v.rights
                            );
                        }
                        Err(format!("{} violating edge(s)", violations.len()).into())
                    }
                }
                _ => Err(usage_of(command)),
            }
        }
        "diff" => {
            let [dir, e1, e2] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let parse_epoch = |raw: &str| -> Result<u64, CliError> {
                raw.parse()
                    .map_err(|_| CliError::Usage(format!("not an epoch number: {raw:?}")))
            };
            let (e1, e2) = (parse_epoch(e1)?, parse_epoch(e2)?);
            let (m1, _) = state_at(dir, e1)?;
            let (m2, _) = state_at(dir, e2)?;
            let (g1, g2) = (m1.graph(), m2.graph());
            let _ = writeln!(out, "diff epoch {e1} -> epoch {e2}:");
            let _ = writeln!(
                out,
                "  vertices: {} -> {}",
                g1.vertex_count(),
                g2.vertex_count()
            );
            // Edge delta, keyed by endpoints; `~` marks a rights change.
            let before = edge_map(g1);
            let after = edge_map(g2);
            let mut delta = 0usize;
            for (key, rights) in &after {
                let label = edge_label(g2, *key, rights);
                match before.get(key) {
                    None => {
                        let _ = writeln!(out, "  + {label}");
                        delta += 1;
                    }
                    Some(old) if old != rights => {
                        let _ = writeln!(
                            out,
                            "  ~ {} => {}",
                            edge_label(g1, *key, old),
                            rights_text(rights)
                        );
                        delta += 1;
                    }
                    Some(_) => {}
                }
            }
            for (key, rights) in &before {
                if !after.contains_key(key) {
                    let _ = writeln!(out, "  - {}", edge_label(g1, *key, rights));
                    delta += 1;
                }
            }
            if delta == 0 {
                let _ = writeln!(out, "  edges: unchanged");
            }
            let (s1, s2) = (m1.stats(), m2.stats());
            let _ = writeln!(
                out,
                "  stats: {:+} permitted, {:+} denied, {:+} malformed, {:+} refused",
                s2.permitted as i64 - s1.permitted as i64,
                s2.denied as i64 - s1.denied as i64,
                s2.malformed as i64 - s1.malformed as i64,
                s2.refused as i64 - s1.refused as i64
            );
            let (v1, v2) = (m1.audit(), m2.audit());
            let verdict = |v: &[tg_hierarchy::Violation]| {
                if v.is_empty() {
                    "clean".to_string()
                } else {
                    format!("VIOLATING ({})", v.len())
                }
            };
            let _ = writeln!(out, "  audit: {} -> {}", verdict(&v1), verdict(&v2));
            Ok(0)
        }
        "figure" => {
            let [id] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let graph = match *id {
                "2.1" => tg_sim::scenarios::fig_2_1().wu.graph,
                "2.2" => tg_sim::scenarios::fig_2_2().graph,
                "3.1" => tg_sim::scenarios::fig_3_1().graph,
                "4.1" => tg_sim::scenarios::fig_4_1().graph,
                "4.2" => tg_sim::scenarios::fig_4_2().graph,
                "5.1" => tg_sim::scenarios::fig_5_1().graph,
                "6.1" => tg_sim::scenarios::fig_6_1().graph,
                other => return Err(format!("unknown figure {other:?}").into()),
            };
            let _ = write!(out, "{}", render_graph(&graph));
            Ok(0)
        }
        "lint" => {
            let (fix, rest) = split_flag(&rest, "--fix");
            let (format, rest) = split_opt(&rest, "--format")?;
            let (deny, rest) = split_multi(&rest, "--deny")?;
            validate_deny(&deny)?;
            let format = format.unwrap_or("text");
            if !matches!(format, "text" | "json" | "sarif") {
                return Err(CliError::Usage(format!(
                    "unknown --format {format:?} (text|json|sarif)"
                )));
            }
            let (graph_path, policy_path) = match rest.as_slice() {
                [g] => (*g, None),
                [g, p] => (*g, Some(*p)),
                _ => return Err(usage_of(command)),
            };
            let text = std::fs::read_to_string(graph_path)
                .map_err(|e| format!("cannot read {graph_path}: {e}"))?;
            let (mut graph, srcmap) =
                parse_graph_with_spans(&text).map_err(|e| format!("{graph_path}: {e}"))?;
            let levels = match policy_path {
                Some(p) => {
                    let policy_text =
                        std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
                    Some(parse_policy(&policy_text, &graph).map_err(|e| format!("{p}: {e}"))?)
                }
                None => None,
            };
            let registry = Registry::with_default_lints();
            let mut diags = if fix {
                let report = apply_fixes(&registry, &mut graph, levels.as_ref());
                std::fs::write(graph_path, render_graph(&graph))
                    .map_err(|e| format!("cannot write {graph_path}: {e}"))?;
                let _ = writeln!(
                    out,
                    "applied {} fix(es) in {} round(s); rewrote {graph_path}",
                    report.applied, report.rounds
                );
                if let Some(clean) = report.certified {
                    let _ = writeln!(
                        out,
                        "incremental certification: edge invariants {}",
                        if clean { "clean" } else { "still violated" }
                    );
                }
                // Spans refer to the pre-fix text; report what remains
                // without locations.
                report.remaining
            } else {
                // Independent passes fan out across the pool; the merge
                // re-establishes the canonical order, so `--jobs` never
                // changes a byte of text/JSON/SARIF output.
                registry.run_parallel(
                    &LintContext::new(&graph, levels.as_ref(), Some(&srcmap)),
                    pool,
                )
            };
            apply_deny(&mut diags, &deny);
            diags.sort_by(Diagnostic::canonical_cmp);
            let source = if fix { None } else { Some(text.as_str()) };
            match format {
                "json" => out.push_str(&render::render_json(&diags, graph_path)),
                "sarif" => out.push_str(&render::render_sarif(&diags, graph_path)),
                _ => render::render_text(&diags, graph_path, source, out),
            }
            let worst = diags.iter().map(|d| d.severity).max();
            Ok(match worst {
                Some(Severity::Error) => 2,
                Some(Severity::Warn) => 1,
                _ => 0,
            })
        }
        "plan" => {
            let (format, rest) = split_opt(&rest, "--format")?;
            let (deny, rest) = split_multi(&rest, "--deny")?;
            validate_deny(&deny)?;
            let format = format.unwrap_or("text");
            if !matches!(format, "text" | "json" | "sarif") {
                return Err(CliError::Usage(format!(
                    "unknown --format {format:?} (text|json|sarif)"
                )));
            }
            let [graph_path, policy_path, trace_path] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let text = std::fs::read_to_string(graph_path)
                .map_err(|e| format!("cannot read {graph_path}: {e}"))?;
            let (graph, srcmap) =
                parse_graph_with_spans(&text).map_err(|e| format!("{graph_path}: {e}"))?;
            let policy_text = std::fs::read_to_string(policy_path)
                .map_err(|e| format!("cannot read {policy_path}: {e}"))?;
            let levels =
                parse_policy(&policy_text, &graph).map_err(|e| format!("{policy_path}: {e}"))?;
            let trace_text = std::fs::read_to_string(trace_path)
                .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
            let trace = tg_rules::codec::decode_derivation(&trace_text)
                .map_err(|e| format!("{trace_path}: {e}"))?;
            // Only the trace-vetting pass runs: `plan` answers "would the
            // monitor accept this?", not "is the graph clean?" — that is
            // `tgq lint`'s job. The graph is never mutated.
            let registry = {
                let mut r = Registry::empty();
                r.register(Box::new(tg_lint::passes::RefusedTraceStep));
                r
            };
            let cx = LintContext::new(&graph, Some(&levels), Some(&srcmap)).with_trace(&trace);
            let mut diags = registry.run_parallel(&cx, pool);
            apply_deny(&mut diags, &deny);
            diags.sort_by(Diagnostic::canonical_cmp);
            match format {
                "json" => out.push_str(&render::render_json(&diags, graph_path)),
                "sarif" => out.push_str(&render::render_sarif(&diags, graph_path)),
                _ => {
                    if diags.is_empty() {
                        let _ =
                            writeln!(out, "plan: all {} step(s) statically accepted", trace.len());
                    }
                    render::render_text(&diags, graph_path, Some(text.as_str()), out);
                }
            }
            let worst = diags.iter().map(|d| d.severity).max();
            Ok(match worst {
                Some(Severity::Error) => 2,
                Some(Severity::Warn) => 1,
                _ => 0,
            })
        }
        "watch" => {
            let [graph_path, policy_path, trace_path] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(graph_path)?;
            let policy_text = std::fs::read_to_string(policy_path)
                .map_err(|e| format!("cannot read {policy_path}: {e}"))?;
            let levels =
                parse_policy(&policy_text, &g).map_err(|e| format!("{policy_path}: {e}"))?;
            let trace_text = std::fs::read_to_string(trace_path)
                .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
            let trace = tg_rules::codec::decode_derivation(&trace_text)
                .map_err(|e| format!("{trace_path}: {e}"))?;
            // The incremental index watches every committed delta; the
            // audit verdict after each rule is read off the maintained
            // violation set instead of a Corollary 5.6 rescan per rule.
            let index = tg_inc::SharedIndex::new(&g, &levels, &CombinedRestriction);
            let mut monitor = tg_hierarchy::Monitor::new(g, levels, Box::new(CombinedRestriction));
            monitor.attach_observer(index.observer());
            let mut clean = index.audit_clean();
            if !clean {
                let _ = writeln!(out, "rule 0: audit starts dirty");
            }
            for (i, rule) in trace.steps.iter().enumerate() {
                if let Err(e) = monitor.try_apply(rule) {
                    let _ = writeln!(out, "rule {}: refused {rule}: {e}", i + 1);
                }
                let now = index.audit_clean();
                if now != clean {
                    let state = if now { "clean" } else { "VIOLATING" };
                    let _ = writeln!(out, "rule {}: audit is now {state}", i + 1);
                    clean = now;
                }
            }
            for v in index.violations() {
                let g = monitor.graph();
                let _ = writeln!(
                    out,
                    "violation: {} -> {} : {}",
                    name(g, v.src),
                    name(g, v.dst),
                    v.rights
                );
            }
            // Cross-check the maintained violation set against a sharded
            // from-scratch scan on the pool. Silent when they agree (so
            // output stays byte-identical at any --jobs); a mismatch
            // would mean the incremental index is unsound.
            let rescan = tg_par::par_audit(
                monitor.graph(),
                monitor.levels(),
                &CombinedRestriction,
                pool,
            );
            if rescan != index.violations() {
                let _ = writeln!(
                    out,
                    "parallel audit cross-check FAILED: maintained set diverges from rescan"
                );
                return Ok(1);
            }
            let mstats = monitor.stats();
            let istats = index.stats();
            let _ = writeln!(
                out,
                "{} permitted, {} denied, {} malformed",
                mstats.permitted, mstats.denied, mstats.malformed
            );
            let _ = writeln!(
                out,
                "index: {} edge checks, {} island unions, {} island rebuilds",
                istats.edge_checks, istats.island_unions, istats.island_rebuilds
            );
            Ok(if clean { 0 } else { 1 })
        }
        "trace" => {
            let (out_path, rest) = split_opt(&rest, "--out")?;
            let (format, rest) = split_opt(&rest, "--format")?;
            let format = format.unwrap_or("chrome");
            if !matches!(format, "chrome" | "jsonl") {
                return Err(CliError::Usage(format!(
                    "unknown --format {format:?} (chrome|jsonl)"
                )));
            }
            let [graph_path, policy_path, trace_path] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let g = load(graph_path)?;
            let policy_text = std::fs::read_to_string(policy_path)
                .map_err(|e| format!("cannot read {policy_path}: {e}"))?;
            let levels =
                parse_policy(&policy_text, &g).map_err(|e| format!("{policy_path}: {e}"))?;
            let trace_text = std::fs::read_to_string(trace_path)
                .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
            let trace = tg_rules::codec::decode_derivation(&trace_text)
                .map_err(|e| format!("{trace_path}: {e}"))?;
            let session = session.expect("run_full opens a session for trace");
            // The instrumented pipeline: monitor, incremental index
            // observing every committed delta, one audit at the end —
            // the same shape as `watch`, with event capture on.
            let index = tg_inc::SharedIndex::new(&g, &levels, &CombinedRestriction);
            let mut monitor = tg_hierarchy::Monitor::new(g, levels, Box::new(CombinedRestriction));
            monitor.attach_observer(index.observer());
            let mut refused = 0usize;
            for rule in &trace.steps {
                if monitor.try_apply(rule).is_err() {
                    refused += 1;
                }
            }
            let violations = monitor.audit();
            let events = session.drain_events();
            let rendered = match format {
                "jsonl" => tg_obs::render(&events, &mut tg_obs::JsonlSink::new()),
                _ => tg_obs::render(&events, &mut tg_obs::ChromeSink::new()),
            };
            match out_path {
                Some(path) => {
                    std::fs::write(path, &rendered)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    let _ = writeln!(
                        out,
                        "{} events written to {path} ({} rules applied, {} refused, \
                         {} violations, {} events dropped)",
                        events.len(),
                        trace.steps.len() - refused,
                        refused,
                        violations.len(),
                        session.dropped_events()
                    );
                }
                None => out.push_str(&rendered),
            }
            Ok(0)
        }
        "stats" => {
            if !rest.is_empty() {
                return Err(usage_of(command));
            }
            let _ = writeln!(out, "spans (tgq --stats rows; stable id, name, measures):");
            for kind in tg_obs::SpanKind::ALL {
                let _ = writeln!(
                    out,
                    "  {:>2}  {:<24} {}",
                    kind.id(),
                    kind.name(),
                    kind.doc()
                );
            }
            let _ = writeln!(out);
            let _ = writeln!(out, "counters:");
            for counter in tg_obs::Counter::ALL {
                let _ = writeln!(
                    out,
                    "  {:>2}  {:<24} {}",
                    counter.id(),
                    counter.name(),
                    counter.doc()
                );
            }
            Ok(0)
        }
        "gen" => {
            let (scale, rest) = split_opt(&rest, "--scale")?;
            let (seed, rest) = split_opt(&rest, "--seed")?;
            let (campaign_raw, rest) = split_opt(&rest, "--campaign")?;
            let (out_dir, rest) = split_opt(&rest, "--out")?;
            let [family_raw] = rest.as_slice() else {
                return Err(usage_of(command));
            };
            let family = tg_gen::Family::parse(family_raw).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown family {family_raw:?} (expected military, chain, antichain, or dag)"
                ))
            })?;
            let parse = |v: Option<&str>, default: usize| -> Result<usize, CliError> {
                match v {
                    None => Ok(default),
                    Some(s) => s
                        .parse()
                        .map_err(|_| CliError::Usage(format!("not a number: {s:?}"))),
                }
            };
            let campaign = match campaign_raw {
                None | Some("none") => None,
                Some(raw) => Some(tg_gen::CampaignKind::parse(raw).ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown campaign {raw:?} (expected conspiracy, trojan, or none)"
                    ))
                })?),
            };
            let config = tg_gen::GenConfig {
                campaign,
                ..tg_gen::GenConfig::new(family, parse(scale, 32)?, parse(seed, 1)? as u64)
            };
            let scenario = tg_gen::generate(&config);
            let dir = std::path::Path::new(out_dir.unwrap_or("."));
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let stem = scenario.stem();
            let mut emit = |ext: &str, text: &str| -> Result<(), String> {
                let path = dir.join(format!("{stem}.{ext}"));
                std::fs::write(&path, text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                let _ = writeln!(out, "wrote {}", path.display());
                Ok(())
            };
            emit("tg", &scenario.graph_text())?;
            emit("pol", &scenario.policy_text())?;
            if let Some(trace) = scenario.trace_text() {
                emit("tr", &trace)?;
            }
            let _ = writeln!(
                out,
                "{}: {} levels, {} vertices, {} edges",
                family,
                scenario.levels.len(),
                scenario.graph.vertex_count(),
                scenario.graph.edge_count()
            );
            if let Some(campaign) = &scenario.campaign {
                let _ = writeln!(
                    out,
                    "campaign {}: {} steps ({} permitted, final step refused by the monitor)",
                    campaign.kind,
                    campaign.trace.len(),
                    campaign.trace.len() - 1
                );
            }
            Ok(0)
        }
        "bench" => {
            let (json_out, rest) = split_opt(&rest, "--json")?;
            let (scale_flag, rest) = split_opt(&rest, "--scale")?;
            let (levels_n, rest) = split_opt(&rest, "--levels")?;
            let (per_level, rest) = split_opt(&rest, "--per-level")?;
            let (ops, rest) = split_opt(&rest, "--ops")?;
            let (seed, rest) = split_opt(&rest, "--seed")?;
            if !rest.is_empty() {
                return Err(usage_of(command));
            }
            let parse = |v: Option<&str>, default: usize| -> Result<usize, CliError> {
                match v {
                    None => Ok(default),
                    Some(s) => s
                        .parse()
                        .map_err(|_| CliError::Usage(format!("not a number: {s:?}"))),
                }
            };
            // Workload size: `--scale` beats `TGQ_BENCH_SCALE` beats the
            // historical default of 200 vertices (20 levels × 10); explicit
            // `--levels`/`--per-level` still override the derived shape.
            let env_scale = std::env::var("TGQ_BENCH_SCALE").ok();
            let scale = parse(scale_flag.or(env_scale.as_deref()), 200)?;
            let (scaled_levels, scaled_per_level) = bench::dims_for_scale(scale);
            let config = bench::BenchConfig {
                scale,
                levels: parse(levels_n, scaled_levels)?,
                per_level: parse(per_level, scaled_per_level)?,
                ops: parse(ops, 500)?,
                seed: parse(seed, 42)? as u64,
                jobs: pool.jobs(),
            };
            let report = bench::run(&config).map_err(CliError::Fail)?;
            let _ = write!(out, "{}", report.render());
            if let Some(path) = json_out {
                std::fs::write(path, report.to_json())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                let _ = writeln!(out, "json summary written to {path}");
            }
            Ok(0)
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n{}",
            usage()
        ))),
    }
}

/// Rejects `--deny` entries that name nothing: an entry must be `all`, a
/// severity (`warn`/`info`), or a code from the rule registry. A typo'd
/// code used to be silently ignored — the user believed the gate was up
/// when nothing was being denied.
fn validate_deny(deny: &[String]) -> Result<(), CliError> {
    for entry in deny {
        let known = entry == "all"
            || Severity::parse(entry).is_some()
            || tg_lint::RULES
                .iter()
                .any(|r| r.code.eq_ignore_ascii_case(entry));
        if !known {
            let codes: Vec<&str> = tg_lint::RULES.iter().map(|r| r.code).collect();
            return Err(CliError::Usage(format!(
                "unknown --deny entry {entry:?} (expected all, warn, info, or one of {})",
                codes.join(", ")
            )));
        }
    }
    Ok(())
}

/// Extracts every `flag <value>` pair from `args`, splitting values on
/// commas: `--deny TG006 --deny warn,info` yields three entries.
fn split_multi<'a>(args: &[&'a str], flag: &str) -> Result<(Vec<String>, Vec<&'a str>), CliError> {
    let mut values = Vec::new();
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(&arg) = iter.next() {
        if arg == flag {
            match iter.next() {
                Some(&v) => values.extend(v.split(',').map(str::to_string)),
                None => return Err(CliError::Usage(format!("{flag} requires a value"))),
            }
        } else {
            rest.push(arg);
        }
    }
    Ok((values, rest))
}

/// Extracts `flag <value>` from `args`, erroring if the value is missing.
fn split_opt<'a>(
    args: &[&'a str],
    flag: &str,
) -> Result<(Option<&'a str>, Vec<&'a str>), CliError> {
    let mut value = None;
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(&arg) = iter.next() {
        if arg == flag {
            match iter.next() {
                Some(&v) => value = Some(v),
                None => return Err(CliError::Usage(format!("{flag} requires a value"))),
            }
        } else {
            rest.push(arg);
        }
    }
    Ok((value, rest))
}

fn split_flag<'a>(args: &[&'a str], flag: &str) -> (bool, Vec<&'a str>) {
    let mut found = false;
    let rest = args
        .iter()
        .filter(|&&a| {
            if a == flag {
                found = true;
                false
            } else {
                true
            }
        })
        .copied()
        .collect();
    (found, rest)
}
