//! End-to-end tests of every `tgq` command through the library entry
//! point, including failure modes.

use std::io::Write as _;

fn run(args: &[&str]) -> Result<String, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    tg_cli::run(&args, &mut out).map(|()| out)
}

/// Writes `contents` to a fresh temp file and returns its path.
fn temp_file(name: &str, contents: &str) -> String {
    let path = std::env::temp_dir().join(format!("tgq-test-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path.to_string_lossy().into_owned()
}

const FIG61: &str = "subject x\nobject s\nobject y\nedge x -> s : t\nedge s -> y : r\n";

#[test]
fn show_summarizes_the_graph() {
    let path = temp_file("show.tg", FIG61);
    let out = run(&["show", &path]).unwrap();
    assert!(out.contains("3 vertices (1 subjects, 2 objects)"));
    assert!(out.contains("islands"));
}

#[test]
fn dot_emits_graphviz() {
    let path = temp_file("dot.tg", FIG61);
    let out = run(&["dot", &path]).unwrap();
    assert!(out.starts_with("digraph"));
    assert!(out.contains("label=\"t\""));
}

#[test]
fn islands_and_levels_render() {
    let path = temp_file("islands.tg", "subject a\nsubject b\nedge a -> b : tg\n");
    let out = run(&["islands", &path]).unwrap();
    assert!(out.contains("island 0: {a, b}"));
    let out = run(&["levels", &path]).unwrap();
    assert!(out.contains("rw-levels:"));
    assert!(out.contains("rwtg-levels:"));
}

#[test]
fn can_share_with_witness() {
    let path = temp_file("share.tg", FIG61);
    let out = run(&["can-share", &path, "r", "x", "y", "--witness"]).unwrap();
    assert!(out.contains("true"));
    assert!(out.contains("takes"));
    let out = run(&["can-share", &path, "w", "x", "y"]).unwrap();
    assert!(out.contains("false"));
}

#[test]
fn can_know_family() {
    let path = temp_file("know.tg", FIG61);
    assert!(run(&["can-know", &path, "x", "y"])
        .unwrap()
        .contains("true"));
    assert!(run(&["can-know-f", &path, "x", "y"])
        .unwrap()
        .contains("false"));
    let out = run(&["can-know", &path, "x", "y", "--witness"]).unwrap();
    assert!(out.contains("true"));
}

#[test]
fn can_steal_and_conspirators() {
    let path = temp_file("steal.tg", FIG61);
    let out = run(&["can-steal", &path, "r", "x", "y", "--witness"]).unwrap();
    assert!(out.contains("true"));
    let out = run(&["conspirators", &path, "r", "x", "y"]).unwrap();
    assert!(out.contains("1 conspirator(s): x"));
}

#[test]
fn secure_policy_and_audit() {
    let graph = temp_file("pol.tg", "subject hi\nsubject lo\nedge hi -> lo : r\n");
    let policy = temp_file(
        "pol.pol",
        "level low\nlevel high\ndominates high low\nassign hi high\nassign lo low\n",
    );
    let out = run(&["secure-policy", &graph, &policy]).unwrap();
    assert!(out.contains("secure"));
    assert!(run(&["audit", &graph, &policy]).unwrap().contains("clean"));

    // Plant a read-up and watch both commands fail.
    let bad_graph = temp_file("bad.tg", "subject hi\nsubject lo\nedge lo -> hi : r\n");
    let err = run(&["secure-policy", &bad_graph, &policy]).unwrap_err();
    assert!(err.contains("INSECURE"));
    let err = run(&["audit", &bad_graph, &policy]).unwrap_err();
    assert!(err.contains("violating"));
}

#[test]
fn figure_command_emits_parsable_graphs() {
    for id in ["2.1", "2.2", "3.1", "4.1", "4.2", "5.1", "6.1"] {
        let out = run(&["figure", id]).unwrap();
        assert!(
            tg_graph::parse_graph(&out).is_ok(),
            "figure {id} must round-trip"
        );
    }
}

#[test]
fn secure_derived_reports_breaches() {
    let path = temp_file("sec.tg", FIG61);
    // Fig 6.1 with derived levels: x below s/y de facto? x reads nothing,
    // so the derived order has no strict relation and the check passes or
    // fails depending on structure; assert it at least runs.
    let _ = run(&["secure", &path]);
}

const HIER_GRAPH: &str = "subject hi\nsubject lo\nobject q\nedge lo -> q : t\nedge q -> hi : rw\n";
const HIER_POLICY: &str = "level low\nlevel high\ndominates high low\nassign hi high\n\
                           assign lo low\nassign q high\n";

/// `take` rules against HIER_GRAPH (hi=0, lo=1, q=2), in trace format.
fn take_line(actor: usize, via: usize, target: usize, rights: tg_graph::Rights) -> String {
    use tg_graph::VertexId;
    tg_rules::codec::encode_rule(&tg_rules::Rule::DeJure(tg_rules::DeJureRule::Take {
        actor: VertexId::from_index(actor),
        via: VertexId::from_index(via),
        target: VertexId::from_index(target),
        rights,
    }))
}

#[test]
fn monitor_batch_rolls_back() {
    use tg_graph::Rights;
    let graph = temp_file("batch.tg", HIER_GRAPH);
    let policy = temp_file("batch.pol", HIER_POLICY);
    let trace = temp_file(
        "batch.trace",
        &format!(
            "{}\n{}\n",
            take_line(1, 2, 0, Rights::W),
            take_line(1, 2, 0, Rights::R)
        ),
    );
    let out = run(&["monitor", &graph, &policy, &trace, "--batch"]).unwrap();
    assert!(out.contains("batch rolled back at rule 1"));
    assert!(out.contains("0 permitted, 1 denied, 0 malformed, 0 refused"));
}

/// Fresh directory path for a commit log (removed if a previous run
/// left one behind; the CLI creates it).
fn temp_dir(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("tgq-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path.to_string_lossy().into_owned()
}

#[test]
fn monitor_commit_log_round_trips_with_report_at_and_diff() {
    use tg_graph::Rights;
    let graph = temp_file("log.tg", HIER_GRAPH);
    let policy = temp_file("log.pol", HIER_POLICY);
    let trace = temp_file(
        "log.trace",
        &format!(
            "{}\n{}\n",
            take_line(1, 2, 0, Rights::W),
            take_line(1, 2, 0, Rights::R)
        ),
    );
    let dir = temp_dir("log.dir");
    let out = run(&["monitor", &graph, &policy, &trace, "--log", &dir]).unwrap();
    assert!(out.contains("commit log created in"), "got: {out}");
    assert!(out.contains("1 permitted, 1 denied, 0 malformed, 0 refused"));
    assert!(
        out.contains("commit log at epoch 2 (1 snapshot(s)"),
        "got: {out}"
    );

    // Replaying the directory prints the pinned recovery report block.
    let out = run(&["replay", &graph, &policy, &dir]).unwrap();
    assert!(out.contains("recovered: 2 records replayed"), "got: {out}");
    assert!(out.contains("recovery report:"), "got: {out}");
    assert!(out.contains("  chain verify: ok (genesis "), "got: {out}");
    assert!(
        out.contains("  snapshot used: epoch 0 (0 rejected)"),
        "got: {out}"
    );
    assert!(out.contains("  records replayed: 2"), "got: {out}");
    assert!(out.contains("  torn tail: none"), "got: {out}");
    assert!(out.contains("  open batch: none"), "got: {out}");
    assert!(out.contains("  recovered epoch: 2 (base 0)"), "got: {out}");
    assert!(out.contains("1 permitted, 1 denied, 0 malformed, 0 refused"));

    // Rerunning the monitor against the same directory continues the
    // logged history instead of starting over.
    let out = run(&["monitor", &graph, &policy, &trace, "--log", &dir]).unwrap();
    assert!(
        out.contains("commit log resumed at epoch 2 (snapshot 0 + 2 replayed)"),
        "got: {out}"
    );
    assert!(out.contains("commit log at epoch 4"), "got: {out}");

    // Time travel: epoch 0 has no lo -> hi edge, epoch 2 does.
    let out = run(&["at", &dir, "0", "can-share", "w", "lo", "hi"]).unwrap();
    assert!(
        out.contains("epoch 0 (snapshot 0 + 0 replayed):"),
        "got: {out}"
    );
    let out = run(&["at", &dir, "2", "audit"]).unwrap();
    assert!(
        out.contains("epoch 2 (snapshot 0 + 2 replayed):"),
        "got: {out}"
    );
    assert!(out.contains("audit clean"), "got: {out}");

    let out = run(&["diff", &dir, "0", "2"]).unwrap();
    assert!(out.contains("diff epoch 0 -> epoch 2:"), "got: {out}");
    assert!(out.contains("  vertices: 3 -> 3"), "got: {out}");
    assert!(out.contains("  + lo -> hi : w"), "got: {out}");
    assert!(
        out.contains("  stats: +1 permitted, +1 denied, +0 malformed, +0 refused"),
        "got: {out}"
    );
    assert!(out.contains("  audit: clean -> clean"), "got: {out}");

    // Unreachable epochs refuse closed.
    let err = run(&["at", &dir, "99", "audit"]).unwrap_err();
    assert!(err.contains("future"), "got: {err}");
}

#[test]
fn corrupted_commit_logs_fail_closed_with_exit_1() {
    use tg_graph::Rights;
    let graph = temp_file("logcorrupt.tg", HIER_GRAPH);
    let policy = temp_file("logcorrupt.pol", HIER_POLICY);
    let trace = temp_file(
        "logcorrupt.trace",
        &format!(
            "{}\n{}\n",
            take_line(1, 2, 0, Rights::W),
            take_line(1, 2, 0, Rights::R)
        ),
    );
    let dir = temp_dir("logcorrupt.dir");
    run(&["monitor", &graph, &policy, &trace, "--log", &dir]).unwrap();
    let chain_path = std::path::Path::new(&dir).join("chain.tgl");
    let pristine = std::fs::read(&chain_path).unwrap();

    // Flip a byte in the FIRST record (not the tail): fails closed as a
    // Fail error — the binary maps that to exit 1.
    let mut forged = pristine.clone();
    let first_record = forged.iter().position(|&b| b == b'\n').unwrap() + 3;
    forged[first_record] ^= 0x41;
    std::fs::write(&chain_path, &forged).unwrap();
    match run_full(&["replay", &graph, &policy, &dir]) {
        Err(tg_cli::CliError::Fail(msg)) => {
            assert!(
                msg.contains("corrupt") || msg.contains("link") || msg.contains("refus"),
                "got: {msg}"
            );
        }
        other => panic!("forged chain must fail closed, got {other:?}"),
    }
    assert!(matches!(
        run_full(&["at", &dir, "1", "audit"]),
        Err(tg_cli::CliError::Fail(_))
    ));
    assert!(matches!(
        run_full(&["diff", &dir, "0", "1"]),
        Err(tg_cli::CliError::Fail(_))
    ));

    // A torn tail (truncated mid-record) is recoverable and reported.
    std::fs::write(&chain_path, &pristine[..pristine.len() - 7]).unwrap();
    let out = run(&["replay", &graph, &policy, &dir]).unwrap();
    assert!(out.contains("torn tail: "), "got: {out}");
    assert!(out.contains("recovered: 1 records replayed"), "got: {out}");

    // A wrong seed (different graph) is a genesis mismatch: fail closed.
    std::fs::write(&chain_path, &pristine).unwrap();
    let other_graph = temp_file("logcorrupt-other.tg", FIG61);
    let other_policy = temp_file(
        "logcorrupt-other.pol",
        "level low\nassign x low\nassign s low\nassign y low\n",
    );
    match run_full(&["replay", &other_graph, &other_policy, &dir]) {
        Err(tg_cli::CliError::Fail(msg)) => {
            assert!(msg.contains("genesis"), "got: {msg}");
        }
        other => panic!("wrong seed must fail closed, got {other:?}"),
    }
}

/// `tgq at` / `tgq diff` are queries: they open the log read-only, so a
/// torn chain is truncated in memory only and the on-disk bytes (the
/// forensic evidence) survive until a healing command (`replay`) runs.
#[test]
fn at_and_diff_never_rewrite_the_log_directory() {
    use tg_graph::Rights;
    let graph = temp_file("logro.tg", HIER_GRAPH);
    let policy = temp_file("logro.pol", HIER_POLICY);
    let trace = temp_file(
        "logro.trace",
        &format!(
            "{}\n{}\n",
            take_line(1, 2, 0, Rights::W),
            take_line(1, 2, 0, Rights::R)
        ),
    );
    let dir = temp_dir("logro.dir");
    run(&["monitor", &graph, &policy, &trace, "--log", &dir]).unwrap();
    let chain_path = std::path::Path::new(&dir).join("chain.tgl");
    let pristine = std::fs::read(&chain_path).unwrap();

    // Tear the tail (drops record 2): queries answer from the committed
    // prefix without rewriting the chain file.
    let torn = pristine[..pristine.len() - 7].to_vec();
    std::fs::write(&chain_path, &torn).unwrap();
    let out = run(&["at", &dir, "1", "audit"]).unwrap();
    assert!(out.contains("epoch 1"), "got: {out}");
    assert_eq!(
        std::fs::read(&chain_path).unwrap(),
        torn,
        "tgq at rewrote the chain file"
    );
    let out = run(&["diff", &dir, "0", "1"]).unwrap();
    assert!(out.contains("diff epoch 0 -> epoch 1:"), "got: {out}");
    assert_eq!(
        std::fs::read(&chain_path).unwrap(),
        torn,
        "tgq diff rewrote the chain file"
    );

    // `tgq replay` is the healing command: afterwards the torn tail is
    // gone from disk.
    let out = run(&["replay", &graph, &policy, &dir]).unwrap();
    assert!(out.contains("torn tail: "), "got: {out}");
    assert_ne!(
        std::fs::read(&chain_path).unwrap(),
        torn,
        "replay heals the persisted chain"
    );
}

#[test]
fn monitor_and_replay_error_paths() {
    let graph = temp_file("err2.tg", HIER_GRAPH);
    let policy = temp_file("err2.pol", HIER_POLICY);
    // Unreadable inputs.
    assert!(run(&["monitor", &graph, &policy, "/nonexistent/trace"]).is_err());
    // Unparsable trace.
    let bad_trace = temp_file("err2.trace", "levitate 0 1 2 x1\n");
    assert!(run(&["monitor", &graph, &policy, &bad_trace]).is_err());
    // Replay takes only a commit-log directory: a file, or a path that
    // does not exist (never created on the way), fails closed.
    let not_a_dir = temp_file("err2.chain", "not a commit log\n");
    for path in [not_a_dir.as_str(), "/nonexistent/log-dir"] {
        match run_full(&["replay", &graph, &policy, path]) {
            Err(tg_cli::CliError::Fail(msg)) => {
                assert!(msg.contains("commit-log directory"), "got: {msg}")
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }
    assert!(!std::path::Path::new("/nonexistent/log-dir").exists());
    // A dangling --log flag.
    let trace = temp_file("err2.ok-trace", "");
    assert!(run(&["monitor", &graph, &policy, &trace, "--log"]).is_err());
    // Bad arity.
    assert!(run(&["monitor", &graph, &policy]).is_err());
    assert!(run(&["replay", &graph]).is_err());
}

#[test]
fn errors_are_reported_not_panicked() {
    assert!(run(&[]).is_err());
    assert!(run(&["bogus"]).is_err());
    assert!(run(&["show"]).is_err());
    assert!(run(&["show", "/nonexistent/file.tg"]).is_err());
    let bad = temp_file("bad-syntax.tg", "vertex a\n");
    assert!(run(&["show", &bad]).is_err());
    let path = temp_file("err.tg", FIG61);
    assert!(run(&["can-share", &path, "zz", "x", "y"]).is_err());
    assert!(run(&["can-share", &path, "r", "nobody", "y"]).is_err());
    assert!(run(&["figure", "9.9"]).is_err());
}

fn run_full(args: &[&str]) -> Result<(u8, String), tg_cli::CliError> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    tg_cli::run_full(&args, &mut out).map(|code| (code, out))
}

#[test]
fn usage_errors_carry_the_per_command_usage_string() {
    // Unknown subcommand: a usage error listing every command.
    match run_full(&["frobnicate"]) {
        Err(tg_cli::CliError::Usage(msg)) => {
            assert!(msg.contains("unknown command \"frobnicate\""), "got: {msg}");
            assert!(msg.contains("tgq lint <graph>"), "lists commands: {msg}");
        }
        other => panic!("expected usage error, got {other:?}"),
    }
    // Bad arity: exactly that command's generated usage line.
    match run_full(&["can-share"]) {
        Err(tg_cli::CliError::Usage(msg)) => {
            assert_eq!(
                msg,
                "usage: tgq can-share <file> <right> <x> <y> [--witness] [--jobs <n>] [--stats]"
            )
        }
        other => panic!("expected usage error, got {other:?}"),
    }
    match run_full(&["lint"]) {
        Err(tg_cli::CliError::Usage(msg)) => assert!(msg.starts_with("usage: tgq lint")),
        other => panic!("expected usage error, got {other:?}"),
    }
    // A dangling flag value is a usage error too.
    match run_full(&["lint", "g.tg", "--deny"]) {
        Err(tg_cli::CliError::Usage(msg)) => assert!(msg.contains("--deny requires a value")),
        other => panic!("expected usage error, got {other:?}"),
    }
    // But a missing input file is an analysis failure, not a usage error.
    match run_full(&["show", "/nonexistent/file.tg"]) {
        Err(tg_cli::CliError::Fail(msg)) => assert!(msg.contains("cannot read")),
        other => panic!("expected failure, got {other:?}"),
    }
}

#[test]
fn usage_lines_mention_every_accepted_flag() {
    // Hand-maintained mirror of the flags each subcommand's parser
    // actually pulls out (the split_flag/split_opt/split_multi calls in
    // dispatch). Usage lines are generated from the COMMANDS table;
    // comparing against this independent list catches a flag added to
    // the parser but forgotten in the table — the drift that left
    // `bench` and `watch` flags undocumented before the table existed.
    let accepted: &[(&str, &[&str])] = &[
        ("can-share", &["--witness"]),
        ("can-know", &["--witness"]),
        ("can-steal", &["--witness"]),
        ("monitor", &["--batch", "--log", "--snap-interval"]),
        ("lint", &["--format", "--fix", "--deny"]),
        ("trace", &["--out", "--format"]),
        (
            "bench",
            &["--levels", "--per-level", "--ops", "--seed", "--json"],
        ),
    ];
    let mut seen = Vec::new();
    for spec in tg_cli::COMMANDS {
        seen.push(spec.name);
        let line = tg_cli::usage_line(spec.name);
        let flags = accepted
            .iter()
            .find(|(name, _)| *name == spec.name)
            .map_or(&[][..], |(_, flags)| flags);
        for flag in flags {
            assert!(
                line.contains(flag),
                "usage for {} omits {flag}: {line}",
                spec.name
            );
        }
        // Every command takes the globals --jobs and --stats (except
        // stats itself).
        if spec.name != "stats" {
            assert!(line.contains("[--stats]"), "{}: {line}", spec.name);
            assert!(line.contains("[--jobs <n>]"), "{}: {line}", spec.name);
        }
    }
    // Every parser entry above corresponds to a real subcommand.
    for (name, _) in accepted {
        assert!(seen.contains(name), "{name} is not in COMMANDS");
    }
}

#[test]
fn stats_flag_appends_the_metrics_table() {
    let path = temp_file("stats-flag.tg", FIG61);
    let (code, out) = run_full(&["show", &path, "--stats"]).unwrap();
    assert_eq!(code, 0);
    assert!(out.contains("3 vertices"), "command output first: {out}");
    assert!(out.contains("cli.command"), "span table follows: {out}");
    assert!(out.contains("counter"), "counter table follows: {out}");
}

#[test]
fn stats_subcommand_prints_the_catalog() {
    let (code, out) = run_full(&["stats"]).unwrap();
    assert_eq!(code, 0);
    assert!(out.contains("monitor.apply"));
    assert!(out.contains("inc.memo_hits"));
    assert!(out.contains("Cor 5.6"), "docs cite the paper: {out}");
    assert!(out.contains("Thm 5.2"), "docs cite the paper: {out}");
    // Arguments are a usage error.
    assert!(matches!(
        run_full(&["stats", "extra"]),
        Err(tg_cli::CliError::Usage(_))
    ));
}

#[test]
fn trace_emits_chrome_and_jsonl_renderings() {
    use tg_graph::Rights;
    let graph = temp_file("trace-cmd.tg", HIER_GRAPH);
    let policy = temp_file("trace-cmd.pol", HIER_POLICY);
    let trace = temp_file(
        "trace-cmd.trace",
        &format!(
            "{}\n{}\n",
            take_line(1, 2, 0, Rights::W),
            take_line(1, 2, 0, Rights::R)
        ),
    );
    let (code, out) = run_full(&["trace", &graph, &policy, &trace]).unwrap();
    assert_eq!(code, 0);
    assert!(out.starts_with("{\"traceEvents\":["), "got: {out}");
    assert!(out.contains("\"monitor.apply\""), "got: {out}");
    assert!(out.contains("\"ph\":\"C\""), "counter events too: {out}");

    let (_, out) = run_full(&["trace", &graph, &policy, &trace, "--format", "jsonl"]).unwrap();
    assert!(out.lines().count() > 2, "one event per line: {out}");
    assert!(out.lines().all(|l| l.starts_with('{') && l.ends_with('}')));

    // --out writes the document and prints a summary instead.
    let out_path = temp_file("trace-cmd.json", "");
    let (_, out) = run_full(&["trace", &graph, &policy, &trace, "--out", &out_path]).unwrap();
    assert!(out.contains("events written to"), "got: {out}");
    assert!(out.contains("1 rules applied, 1 refused"), "got: {out}");
    let written = std::fs::read_to_string(&out_path).unwrap();
    assert!(written.starts_with("{\"traceEvents\":["));

    // Unknown formats and bad arity are usage errors.
    assert!(matches!(
        run_full(&["trace", &graph, &policy, &trace, "--format", "xml"]),
        Err(tg_cli::CliError::Usage(_))
    ));
    assert!(matches!(
        run_full(&["trace", &graph]),
        Err(tg_cli::CliError::Usage(_))
    ));
}

#[test]
fn bench_stats_prints_nonzero_incremental_counters() {
    let (code, out) = run_full(&[
        "bench",
        "--levels",
        "6",
        "--per-level",
        "4",
        "--ops",
        "60",
        "--stats",
    ])
    .unwrap();
    assert_eq!(code, 0);
    assert!(out.contains("inc.edge_checks"), "got: {out}");
    assert!(out.contains("inc.memo_hits"), "got: {out}");
    assert!(out.contains("inc.memo_misses"), "got: {out}");
}

#[test]
fn parse_errors_report_line_and_column() {
    // The rights list of line 2 starts at column 15: `q` is not a right.
    let path = temp_file("span-err.tg", "subject a\nedge a -> a : q\n");
    let err = run(&["show", &path]).unwrap_err();
    assert!(err.contains("line 2"), "got: {err}");
    assert!(err.contains("column 15"), "got: {err}");
}

#[test]
fn lint_exit_codes_are_severity_keyed() {
    // Figure 6.1's shape: no policy, one theft warning, no errors.
    let graph = temp_file("lint-61.tg", FIG61);
    let (code, out) = run_full(&["lint", &graph]).unwrap();
    assert_eq!(code, 1, "warnings exit 1: {out}");
    assert!(out.contains("warn[TG006]"), "got: {out}");
    // Denying the warning promotes it to an error and exit 2.
    let (code, out) = run_full(&["lint", &graph, "--deny", "TG006"]).unwrap();
    assert_eq!(code, 2, "denied warnings exit 2: {out}");
    assert!(out.contains("error[TG006]"), "got: {out}");
    // An isolated vertex alone is informational: exit 0.
    let clean = temp_file("lint-clean.tg", "subject a\nobject b\n");
    let (code, out) = run_full(&["lint", &clean]).unwrap();
    assert_eq!(code, 0, "info-only exits 0: {out}");
    assert!(out.contains("info[TG008]"), "got: {out}");
    // Unknown format is a usage error.
    assert!(matches!(
        run_full(&["lint", &clean, "--format", "yaml"]),
        Err(tg_cli::CliError::Usage(_))
    ));
}

#[test]
fn lint_rejects_unknown_deny_entries() {
    let graph = temp_file("lint-deny.tg", FIG61);
    // A typo'd code used to be silently ignored; now it is a usage error
    // (exit 2), before any file is even read.
    match run_full(&["lint", &graph, "--deny", "TG099"]) {
        Err(tg_cli::CliError::Usage(msg)) => {
            assert!(msg.contains("TG099"), "names the bad entry: {msg}");
            assert!(msg.contains("TG006"), "lists the real codes: {msg}");
        }
        other => panic!("expected usage error, got {other:?}"),
    }
    match run_full(&["lint", &graph, "--deny", "sevère"]) {
        Err(tg_cli::CliError::Usage(_)) => {}
        other => panic!("expected usage error, got {other:?}"),
    }
    // Every legitimate shape still passes: a code (any case), a
    // severity, and `all`.
    for deny in ["tg006", "TG006", "warn", "info", "all"] {
        assert!(
            run_full(&["lint", &graph, "--deny", deny]).is_ok(),
            "--deny {deny} should be accepted"
        );
    }
}

#[test]
fn plan_vets_a_trace_without_applying_it() {
    let graph = temp_file("plan.tg", FIG61);
    let policy = temp_file(
        "plan.pol",
        "level low\nlevel high\ndominates high low\nassign x low\nassign s high\nassign y high\n",
    );
    let before = std::fs::read_to_string(&graph).unwrap();
    // `x` (low) takes `r` over `y` (high): preconditions hold, the
    // restriction refuses the read-up.
    let refused = temp_file("plan-refused.tr", "take 0 1 2 x1\n");
    let (code, out) = run_full(&["plan", &graph, &policy, &refused]).unwrap();
    assert_eq!(code, 2, "a refused step exits 2: {out}");
    assert!(out.contains("error[TG011]"), "got: {out}");
    assert!(out.contains("step 1"), "got: {out}");
    // `x` removing its own `t` right is fine.
    let ok = temp_file("plan-ok.tr", "remove 0 1 x4\n");
    let (code, out) = run_full(&["plan", &graph, &policy, &ok]).unwrap();
    assert_eq!(code, 0, "a legal trace exits 0: {out}");
    assert!(out.contains("statically accepted"), "got: {out}");
    // Vetting never mutates the graph file.
    assert_eq!(std::fs::read_to_string(&graph).unwrap(), before);
    // Usage errors: missing arguments, unknown format, bad deny entry.
    assert!(matches!(
        run_full(&["plan", &graph, &policy]),
        Err(tg_cli::CliError::Usage(_))
    ));
    assert!(matches!(
        run_full(&["plan", &graph, &policy, &ok, "--format", "yaml"]),
        Err(tg_cli::CliError::Usage(_))
    ));
    assert!(matches!(
        run_full(&["plan", &graph, &policy, &ok, "--deny", "TG0XX"]),
        Err(tg_cli::CliError::Usage(_))
    ));
}

#[test]
fn lint_fix_rewrites_the_graph_to_a_clean_state() {
    // Figure 5.1: x (high) -t-> s (high) -w,e-> y (low).
    let graph = temp_file(
        "lint-fix.tg",
        "subject x\nobject s\nsubject y\nedge x -> s : t\nedge s -> y : w e\n",
    );
    let policy = temp_file(
        "lint-fix.pol",
        "level low\nlevel high\ndominates high low\nassign x high\nassign s high\nassign y low\n",
    );
    let (code, _) = run_full(&["lint", &graph, &policy]).unwrap();
    assert_eq!(code, 2, "the unrestricted figure is insecure");
    let (_, out) = run_full(&["lint", &graph, &policy, "--fix"]).unwrap();
    assert!(out.contains("applied"), "got: {out}");
    // The rewritten file now lints clean of errors…
    let (code, out) = run_full(&["lint", &graph, &policy]).unwrap();
    assert!(code < 2, "no errors remain: {out}");
    // …and passes the derived security check.
    let out = run(&["secure", &graph]).unwrap();
    assert!(out.contains("secure"), "got: {out}");
}
