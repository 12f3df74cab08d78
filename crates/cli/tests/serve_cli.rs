//! `tgq serve` / `tgq client` — the documented exit codes, the
//! fail-closed error paths, and one full daemon round trip whose final
//! state is byte-identical to an offline `tgq replay` of its commit
//! log (the same check the CI `serve-smoke` job scripts via `cmp`).

use std::io::Write as _;

use tg_cli::CliError;

fn run_full(args: &[&str]) -> Result<(u8, String), CliError> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    tg_cli::run_full(&args, &mut out).map(|code| (code, out))
}

fn temp_file(name: &str, contents: &str) -> String {
    let path = std::env::temp_dir().join(format!("tgq-serve-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path.to_string_lossy().into_owned()
}

const GRAPH: &str = "subject s1\nsubject s2\nobject doc\nedge s1 -> s2 : t\nedge s2 -> doc : r\n";
const POLICY: &str = "level only\nassign s1 only\nassign s2 only\nassign doc only\n";

/// Writes the graph and policy into a directory of the calling test's
/// own. Cargo runs tests as threads of one process, so one shared path
/// would be truncated and rewritten by one test while another test's
/// daemon is still parsing it.
fn fixture(test: &str) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("tgq-serve-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let write = |name: &str, contents: &str| {
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("fixture file");
        path.to_string_lossy().into_owned()
    };
    (write("g.tg", GRAPH), write("p.pol", POLICY))
}

#[test]
fn serve_requires_exactly_one_bind() {
    let (g, p) = fixture("serve_requires_exactly_one_bind");
    // Neither --listen nor --unix.
    let err = run_full(&["serve", &g, &p]).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    // Both at once.
    let err = run_full(&[
        "serve",
        &g,
        &p,
        "--listen",
        "127.0.0.1:0",
        "--unix",
        "/tmp/x.sock",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    assert!(err.message().contains("usage: tgq serve"), "{err}");
}

#[test]
fn serve_rejects_bad_flag_values() {
    let (g, p) = fixture("serve_rejects_bad_flag_values");
    let err = run_full(&[
        "serve",
        &g,
        &p,
        "--listen",
        "127.0.0.1:0",
        "--batch-window",
        "zero",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    let err = run_full(&[
        "serve",
        &g,
        &p,
        "--listen",
        "127.0.0.1:0",
        "--batch-window",
        "0",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    // --snap-interval is a --log modifier, alone it is a usage error.
    let err = run_full(&[
        "serve",
        &g,
        &p,
        "--listen",
        "127.0.0.1:0",
        "--snap-interval",
        "8",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
}

#[test]
fn serve_fails_closed_on_an_unbindable_address() {
    let (g, p) = fixture("serve_fails_closed_on_an_unbindable_address");
    let err = run_full(&["serve", &g, &p, "--listen", "not-an-address"]).unwrap_err();
    // An input failure, not a usage error: exit 1, and the daemon never
    // started (nothing to clean up, nothing listening).
    assert!(matches!(err, CliError::Fail(_)), "{err}");
    assert!(err.message().contains("cannot bind"), "{err}");
}

#[cfg(unix)]
#[test]
fn serve_refuses_an_occupied_unix_socket_path() {
    let (g, p) = fixture("serve_refuses_an_occupied_unix_socket_path");
    let sock = temp_file("occupied.sock", "not a socket");
    let err = run_full(&["serve", &g, &p, "--unix", &sock]).unwrap_err();
    assert!(matches!(err, CliError::Fail(_)), "{err}");
    assert!(err.message().contains("already exists"), "{err}");
    // The occupant was not clobbered.
    assert_eq!(std::fs::read_to_string(&sock).unwrap(), "not a socket");
}

#[test]
fn client_requires_exactly_one_target() {
    let err = run_full(&["client"]).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    let err = run_full(&[
        "client",
        "--connect",
        "127.0.0.1:1",
        "--unix",
        "/tmp/x.sock",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
}

#[test]
fn client_rejects_a_malformed_script_before_connecting() {
    // The target does not exist; a script error must surface first
    // (scripts are vetted before any socket is opened).
    let script = temp_file("bad.tgp", "ping\nfrobnicate the thing\n");
    let err = run_full(&["client", "--connect", "127.0.0.1:1", "--script", &script]).unwrap_err();
    assert!(matches!(err, CliError::Fail(_)), "{err}");
    assert!(err.message().contains("line 2"), "{err}");
}

#[test]
fn client_fails_closed_when_nothing_listens() {
    // Bind an ephemeral port, then drop it: connecting there is refused.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let script = temp_file("ping.tgp", "ping\n");
    let err = run_full(&[
        "client",
        "--connect",
        &format!("127.0.0.1:{port}"),
        "--script",
        &script,
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Fail(_)), "{err}");
    assert!(err.message().contains("cannot connect"), "{err}");
}

#[test]
fn client_fails_closed_against_a_server_that_frames_garbage() {
    // A fake "daemon" that answers any connection with 16 bytes of 0xFF:
    // the length prefix is over MAX_FRAME, so the client must refuse to
    // allocate and exit 1 rather than trust the stream.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        if let Ok((mut sock, _)) = listener.accept() {
            let _ = sock.write_all(&[0xFF; 16]);
            // Hold the socket open (draining whatever the client sends)
            // until the client gives up, so its own writes cannot race
            // into a broken pipe before it reads the bad length prefix.
            let mut buf = [0u8; 64];
            while let Ok(n) = std::io::Read::read(&mut sock, &mut buf) {
                if n == 0 {
                    break;
                }
            }
        }
    });
    let script = temp_file("garbage.tgp", "ping\n");
    let err = run_full(&["client", "--connect", &addr, "--script", &script]).unwrap_err();
    assert!(matches!(err, CliError::Fail(_)), "{err}");
    assert!(err.message().contains("oversized-frame"), "{err}");
    fake.join().unwrap();
}

/// Full lifecycle on a Unix socket with a commit log: serve boots, one
/// client trips a documented error (exit 1), a second runs a clean
/// mixed script ending in `shutdown` (exit 0), the daemon's
/// `--dump-state` is byte-identical to `tgq replay --dump-state` of
/// the log directory it left behind.
#[cfg(unix)]
#[test]
fn serve_client_replay_round_trip() {
    let (g, p) = fixture("serve_client_replay_round_trip");
    let base = std::env::temp_dir().join(format!("tgq-serve-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let sock = base.join("tgq.sock");
    let log_dir = base.join("log");
    std::fs::create_dir_all(&log_dir).unwrap();
    let live_dump = base.join("live.tg");
    let replay_dump = base.join("replay.tg");

    let serve_args: Vec<String> = [
        "serve",
        &g,
        &p,
        "--unix",
        sock.to_str().unwrap(),
        "--log",
        log_dir.to_str().unwrap(),
        "--snap-interval",
        "4",
        "--batch-window",
        "2",
        "--dump-state",
        live_dump.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let daemon = std::thread::spawn(move || {
        let mut out = String::new();
        tg_cli::run_full(&serve_args, &mut out).map(|code| (code, out))
    });
    // Wait for the readiness side effect: the socket path appearing.
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(sock.exists(), "daemon never bound its socket");

    // Client 1: an unknown vertex is an `error` verdict — documented
    // exit code 1, and the session (and daemon) survive it.
    let bad = temp_file("unknown.tgp", "can-share r nobody nowhere\n");
    let (code, out) =
        run_full(&["client", "--unix", sock.to_str().unwrap(), "--script", &bad]).unwrap();
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("unknown-vertex"), "{out}");

    // Client 2: a clean mixed workload, ending in shutdown.
    let script = temp_file(
        "mixed.tgp",
        "ping\n\
         apply take 0 1 2 x1\n\
         can-share r s1 doc\n\
         can-know s1 doc\n\
         same-island s1 s2\n\
         audit\n\
         stats\n\
         shutdown\n",
    );
    let (code, out) = run_full(&[
        "client",
        "--unix",
        sock.to_str().unwrap(),
        "--script",
        &script,
    ])
    .unwrap();
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("8 ok, 0 refused, 0 errors"), "{out}");
    assert!(out.contains("pong"), "{out}");
    assert!(out.contains("bye"), "{out}");

    let (code, out) = daemon.join().unwrap().unwrap();
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("commit log created"), "{out}");
    assert!(out.contains("1 permitted"), "{out}");
    assert!(!sock.exists(), "socket file must be removed on shutdown");

    // Offline recovery of the daemon's log reproduces its final state
    // byte-for-byte.
    let (code, out) = run_full(&[
        "replay",
        &g,
        &p,
        log_dir.to_str().unwrap(),
        "--dump-state",
        replay_dump.to_str().unwrap(),
    ])
    .unwrap();
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("chain verify: ok"), "{out}");
    let live = std::fs::read(&live_dump).unwrap();
    let replayed = std::fs::read(&replay_dump).unwrap();
    assert_eq!(live, replayed, "live daemon state diverged from replay");
    assert!(!live.is_empty());

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn serve_and_client_appear_in_usage() {
    let err = run_full(&[]).unwrap_err();
    assert!(
        err.message().contains("tgq serve <graph> <policy>"),
        "{err}"
    );
    assert!(err.message().contains("tgq client"), "{err}");
    assert!(err.message().contains("--batch-window <n>"), "{err}");
}
