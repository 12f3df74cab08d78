//! The daemon workloads: a fresh in-process `tg_serve::Server` per phase,
//! driven over a Unix socket by one connection with a sender and a
//! receiver thread.
//!
//! Each repeat runs two phases against two fresh daemons started from the
//! same seed: an **open loop** that sends at a fixed rate and times each
//! request from when it was due, and a **closed loop** that keeps
//! [`IN_FLIGHT`] requests outstanding over the same stream. Every
//! response is checked byte for byte against a sequential replay of the
//! stream through a plain `Monitor` and `tg_analysis`, and the commit log
//! is reopened to check that it recovers the daemon's final state.
//!
//! The commit log lives in memory ([`BenchStore`]), so the host's disk is
//! not measured; what the log asks of a disk is reported as exact counts
//! by the traced run.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tg_analysis::Islands;
use tg_gen::Scenario;
use tg_graph::{parse_graph, render_graph, ProtectionGraph};
use tg_hierarchy::policy::parse_policy;
use tg_hierarchy::{audit_graph, CombinedRestriction, LevelAssignment, Monitor, Restriction};
use tg_log::{CommitLog, LogConfig, Store, CHAIN_FILE};
use tg_obs::{Counter, LogHistogram, SpanKind, Tally};
use tg_par::Pool;
use tg_serve::proto::{encode_frame, read_frame, write_magic};
use tg_serve::{parse_request, Bind, Frame, Opcode, Request, ServeConfig, Server};

use crate::probe::{self, BenchStore, RestrictionTally, StoreTally, TimedRestriction};
use crate::report::{Measured, RunResult};
use crate::stats::{tail_supported, Samples};
use crate::workload::{self, ServeShape, Workload, IN_FLIGHT};

/// The commit-log settings of `tgq serve --log`.
const LOG_CONFIG: LogConfig = LogConfig {
    snapshot_interval: 64,
    write_through: false,
};

/// The admission batch window of `tgq serve`.
const BATCH_WINDOW: usize = 16;

/// How long the receiver waits for a response before counting the rest
/// of the phase as unanswered.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// One expected response: opcode and payload text.
type Expected = Vec<(Opcode, String)>;

/// The rendered system every phase's daemon starts from.
struct System {
    graph_text: String,
    policy_text: String,
    vertices: usize,
    edges: usize,
}

impl System {
    fn of(scenario: &Scenario) -> System {
        System {
            graph_text: scenario.graph_text(),
            policy_text: scenario.policy_text(),
            vertices: scenario.graph.vertex_count(),
            edges: scenario.graph.edge_count(),
        }
    }
}

/// One repeat's request stream and the responses it must get.
struct Stream {
    /// Encoded request frames, ids `1..=n`. A phase sends a prefix.
    frames: Vec<Vec<u8>>,
    opcodes: Vec<Opcode>,
    expected: Expected,
}

impl Stream {
    fn generate(
        workload: Workload,
        shape: &ServeShape,
        scenario: &Scenario,
        seed: u64,
    ) -> Result<Stream, String> {
        let n = shape.open_requests.max(shape.closed_requests);
        let lines = workload::serve_requests(workload, scenario, n, seed)?;
        let frames: Vec<Frame> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| Frame::text(i as u64 + 1, l.opcode, &l.payload))
            .collect();
        Ok(Stream {
            expected: expected_responses(&scenario.graph, &scenario.levels, &frames)?,
            frames: frames.iter().map(encode_frame).collect(),
            opcodes: lines.iter().map(|l| l.opcode).collect(),
        })
    }

    /// Requests with one of `ops` among the first `n`.
    fn count(&self, n: usize, ops: &[Opcode]) -> usize {
        self.opcodes[..n].iter().filter(|o| ops.contains(o)).count()
    }
}

/// The oracle: the stream replayed in order through a plain monitor, with
/// every query answered by `tg_analysis` (or the Cor 5.6 scan) on the
/// state it observes. Refusals are verdicts, so they are expected too;
/// anything the daemon would answer with an `error` frame is a workload
/// bug.
fn expected_responses(
    graph: &ProtectionGraph,
    levels: &LevelAssignment,
    frames: &[Frame],
) -> Result<Expected, String> {
    let mut monitor = Monitor::new(graph.clone(), levels.clone(), Box::new(CombinedRestriction));
    // Both answers only change when a rule applies.
    let mut islands: Option<Islands> = None;
    let mut audit: Option<String> = None;
    let mut out = Vec::with_capacity(frames.len());
    for frame in frames {
        let request = parse_request(frame)?;
        let g = monitor.graph();
        let resolve = |name: &str| {
            g.find_by_name(name)
                .ok_or_else(|| format!("the workload names an unknown vertex {name:?}"))
        };
        let answer = match &request {
            Request::CanShare(right, x, y) => {
                tg_analysis::can_share(g, *right, resolve(x)?, resolve(y)?).to_string()
            }
            Request::CanKnow(x, y) => {
                tg_analysis::can_know(g, resolve(x)?, resolve(y)?).to_string()
            }
            Request::SameIsland(x, y) => {
                let (x, y) = (resolve(x)?, resolve(y)?);
                islands
                    .get_or_insert_with(|| Islands::compute(g))
                    .same_island(x, y)
                    .to_string()
            }
            Request::Audit => audit
                .get_or_insert_with(|| {
                    match audit_graph(g, monitor.levels(), &CombinedRestriction).len() {
                        0 => "clean".to_string(),
                        n => format!("violating {n}"),
                    }
                })
                .clone(),
            Request::Apply(rule) => match monitor.try_apply(rule) {
                Ok(_) => {
                    islands = None;
                    audit = None;
                    "applied".to_string()
                }
                Err(e) => {
                    out.push((Opcode::Refused, e.to_string()));
                    continue;
                }
            },
            other => return Err(format!("the workload never sends {other:?}")),
        };
        out.push((Opcode::Ok, answer));
    }
    Ok(out)
}

/// How a phase offers its load.
#[derive(Clone, Copy, Debug)]
enum Load {
    /// Requests per second, sent on schedule.
    Open(f64),
    /// [`IN_FLIGHT`] requests outstanding.
    Closed,
}

/// What the load generator saw in one phase.
struct Driven {
    /// Per request: when it was due (open loop) or sent (closed loop).
    stamps: Vec<Instant>,
    /// Open loop: how late each request was sent, nanoseconds.
    late_ns: Vec<u64>,
    received: Vec<Option<(Instant, Frame)>>,
}

impl Driven {
    fn latencies_ms(&self) -> Vec<f64> {
        self.stamps
            .iter()
            .zip(&self.received)
            .filter_map(|(due, r)| r.as_ref().map(|(at, _)| (*at - *due).as_secs_f64() * 1e3))
            .collect()
    }

    /// First send to last response, seconds.
    fn wall_s(&self) -> f64 {
        let last = self.received.iter().flatten().map(|(at, _)| *at).max();
        match (self.stamps.first(), last) {
            (Some(first), Some(last)) => (last - *first).as_secs_f64(),
            _ => 0.0,
        }
    }

    fn answered(&self) -> usize {
        self.received.iter().flatten().count()
    }
}

/// Sends `frames` on `writer` from a sender thread while this thread
/// receives on `reader`.
fn drive(
    writer: &mut UnixStream,
    reader: &mut BufReader<UnixStream>,
    frames: &[Vec<u8>],
    load: Load,
) -> Result<Driven, String> {
    let n = frames.len();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<(Vec<Instant>, Vec<u64>), String> {
            let start = Instant::now();
            let mut stamps = Vec::with_capacity(n);
            let mut late_ns = Vec::new();
            for (i, frame) in frames.iter().enumerate() {
                match load {
                    Load::Open(rate) => {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                        late_ns.push(Instant::now().duration_since(due).as_nanos() as u64);
                        stamps.push(due);
                    }
                    Load::Closed => {
                        // A lost credit means the receiver gave up.
                        if i >= IN_FLIGHT && credit_rx.recv().is_err() {
                            break;
                        }
                        stamps.push(Instant::now());
                    }
                }
                writer
                    .write_all(frame)
                    .map_err(|e| format!("cannot send request {}: {e}", i + 1))?;
            }
            Ok((stamps, late_ns))
        });
        let mut received: Vec<Option<(Instant, Frame)>> = vec![None; n];
        let mut answered = 0;
        while answered < n {
            // A timeout or a closed connection leaves the rest unanswered.
            let Ok(frame) = read_frame(reader) else { break };
            let at = Instant::now();
            let slot = usize::try_from(frame.request_id)
                .ok()
                .and_then(|id| id.checked_sub(1))
                .and_then(|i| received.get_mut(i))
                .filter(|slot| slot.is_none())
                .ok_or_else(|| format!("unexpected response id {}", frame.request_id))?;
            *slot = Some((at, frame));
            answered += 1;
            let _ = credit_tx.send(());
        }
        drop(credit_tx);
        let (stamps, late_ns) = sender.join().map_err(|_| "sender panicked".to_string())??;
        Ok(Driven {
            stamps,
            late_ns,
            received,
        })
    })
}

/// Checks every response against the oracle.
fn check_responses(
    expected: &[(Opcode, String)],
    received: &[Option<(Instant, Frame)>],
) -> Result<(), String> {
    for (i, ((opcode, text), got)) in expected.iter().zip(received).enumerate() {
        let Some((_, frame)) = got else {
            return Err(format!("request {} was not answered", i + 1));
        };
        if frame.opcode != *opcode || frame.payload != text.as_bytes() {
            return Err(format!(
                "response {} differs from the sequential replay: expected {opcode:?} {text:?}, got {:?} {:?}",
                i + 1,
                frame.opcode,
                frame.payload_text()
            ));
        }
    }
    Ok(())
}

/// A socket path relative to the working directory, unique per phase.
fn socket_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    PathBuf::from(format!(
        ".benchmark-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The wrappers and session of a traced phase.
struct Tracing {
    store: Arc<Mutex<StoreTally>>,
    restriction: Arc<RestrictionTally>,
    session: tg_obs::Session,
}

/// One phase's measurements.
struct Phase {
    /// Requests sent: a prefix of the stream.
    sent: usize,
    /// Apply requests among them.
    mutations: usize,
    /// `can_share`/`can_know` requests among them: the ones the gateway
    /// answers on the pool.
    pool_queries: usize,
    setup_s: f64,
    parse_ms: f64,
    driven: Driven,
    cpu_s: f64,
    batches: u64,
    refusals: u64,
    final_edges: usize,
    recover_ms: f64,
    recover_records: u64,
    chain_bytes: usize,
    /// Traced phases only.
    traced: Option<(Tally, StoreTally, Arc<RestrictionTally>)>,
}

/// Starts a daemon, sends it the first `n` requests, stops it and checks
/// everything it answered and logged.
fn phase(
    system: &System,
    stream: &Stream,
    load: Load,
    n: usize,
    pool: Pool,
    traced: bool,
) -> Result<Phase, String> {
    let tracing = traced.then(|| Tracing {
        store: Arc::default(),
        restriction: Arc::default(),
        session: tg_obs::Session::start(true, false),
    });

    let started = Instant::now();
    let graph = parse_graph(&system.graph_text).map_err(|e| e.to_string())?;
    let levels = parse_policy(&system.policy_text, &graph).map_err(|e| e.to_string())?;
    let parse_ms = started.elapsed().as_secs_f64() * 1e3;
    let (store, restriction): (BenchStore, Box<dyn Restriction>) = match &tracing {
        Some(t) => (
            BenchStore::timed(Arc::clone(&t.store)),
            Box::new(TimedRestriction {
                tally: Arc::clone(&t.restriction),
            }),
        ),
        None => (BenchStore::default(), Box::new(CombinedRestriction)),
    };
    let (log, monitor) = CommitLog::create(
        Box::new(store.clone()),
        graph,
        levels,
        restriction,
        LOG_CONFIG,
    )
    .map_err(|e| e.to_string())?;
    let genesis = log.genesis();
    let path = socket_path();
    let server = Server::start(
        Bind::Unix(path.clone()),
        monitor,
        Some(log),
        ServeConfig {
            batch_window: BATCH_WINDOW,
        },
        pool,
    )?;
    let (mut writer, mut reader) = match connect(&path) {
        Ok(halves) => halves,
        Err(e) => {
            server.shutdown_now();
            let _ = server.join();
            return Err(e);
        }
    };
    let setup_s = started.elapsed().as_secs_f64();

    let cpu_before = probe::cpu_seconds();
    let driven = drive(&mut writer, &mut reader, &stream.frames[..n], load);
    let cpu_s = probe::cpu_seconds() - cpu_before;
    let tally = tracing.as_ref().map(|t| t.session.snapshot());

    // Stop the daemon through the protocol whatever happened above, so
    // its threads end before this phase returns.
    let bye_id = n as u64 + 1;
    let stopped = writer
        .write_all(&encode_frame(&Frame::text(bye_id, Opcode::Shutdown, "")))
        .map_err(|e| e.to_string())
        .and_then(|()| read_frame(&mut reader).map_err(|e| e.to_string()));
    if stopped.is_err() {
        server.shutdown_now();
    }
    drop((writer, reader));
    let (report, monitor, log) = server.join()?;
    let driven = driven?;
    stopped?;
    check_responses(&stream.expected[..n], &driven.received)?;

    let log = log.ok_or("the daemon lost its commit log")?;
    let live_epoch = log.end_epoch();
    let live_graph = render_graph(monitor.graph());
    let final_edges = monitor.graph().edge_count();
    drop((log, monitor));
    let chain_bytes = store
        .read(CHAIN_FILE)
        .map_err(|e| e.to_string())?
        .map_or(0, |c| c.len());
    let started = Instant::now();
    let (_, recovered, recovery) = CommitLog::open(
        Box::new(store),
        Box::new(CombinedRestriction),
        LOG_CONFIG,
        Some(genesis),
    )
    .map_err(|e| format!("commit log does not recover: {e}"))?;
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    if recovery.end_epoch != live_epoch || render_graph(recovered.graph()) != live_graph {
        return Err(format!(
            "recovery reached epoch {} but the daemon stopped at {live_epoch}, or its graph differs",
            recovery.end_epoch
        ));
    }

    let traced = match (tracing, tally) {
        (Some(t), Some(tally)) => {
            drop(t.session);
            let store = std::mem::take(&mut *t.store.lock().expect("store tally lock"));
            Some((tally, store, t.restriction))
        }
        _ => None,
    };
    Ok(Phase {
        sent: n,
        mutations: stream.count(n, &[Opcode::Apply]),
        pool_queries: stream.count(n, &[Opcode::CanShare, Opcode::CanKnow]),
        setup_s,
        parse_ms,
        driven,
        cpu_s,
        batches: report.batches,
        refusals: report.refusals,
        final_edges,
        recover_ms,
        recover_records: recovery.end_epoch,
        chain_bytes,
        traced,
    })
}

/// Connects, sends the preamble and waits for the first `ping`.
fn connect(path: &std::path::Path) -> Result<(UnixStream, BufReader<UnixStream>), String> {
    let mut writer = UnixStream::connect(path).map_err(|e| format!("cannot connect: {e}"))?;
    let read_half = writer.try_clone().map_err(|e| e.to_string())?;
    read_half
        .set_read_timeout(Some(ANSWER_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(read_half);
    write_magic(&mut writer).map_err(|e| e.to_string())?;
    writer
        .write_all(&encode_frame(&Frame::text(0, Opcode::Ping, "")))
        .map_err(|e| e.to_string())?;
    let pong = read_frame(&mut reader).map_err(|e| e.to_string())?;
    if pong.opcode != Opcode::Ok {
        return Err(format!("ping answered {:?}", pong.payload_text()));
    }
    Ok((writer, reader))
}

/// Both phases of one repeat.
struct Repeat {
    open: Phase,
    closed: Phase,
    /// Traced repeats: mean nanoseconds to decode one of the stream's
    /// frames and parse its payload, the daemon's per-frame work before
    /// the gateway.
    decode_ns: f64,
}

impl Repeat {
    fn sat_rps(&self) -> f64 {
        self.closed.driven.answered() as f64 / self.closed.driven.wall_s().max(1e-9)
    }
}

fn repeat(
    system: &System,
    stream: &Stream,
    shape: &ServeShape,
    pool: Pool,
    traced: bool,
) -> Result<Repeat, String> {
    Ok(Repeat {
        open: phase(
            system,
            stream,
            Load::Open(shape.rate),
            shape.open_requests,
            pool,
            traced,
        )?,
        closed: phase(
            system,
            stream,
            Load::Closed,
            shape.closed_requests,
            pool,
            traced,
        )?,
        decode_ns: if traced { decode_ns(stream)? } else { 0.0 },
    })
}

/// Runs a daemon workload for about `seconds` (see
/// [`workload::repeat_for`]). Every repeat draws a fresh request stream
/// from the seed, so a run's medians cover several streams rather than
/// the accidents of one.
pub fn run(
    workload: Workload,
    toy: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let shape = ServeShape::of(workload, toy);
    let scenario = workload::scenario(shape.scale, seed);
    let system = System::of(&scenario);
    let pool = Pool::new(probe::host_parallelism());
    let (plain, traced) = workload::repeat_for(seconds, trace, |index, traced| {
        let draw = workload::draw_seed(seed, index);
        let stream = Stream::generate(workload, &shape, &scenario, draw)?;
        repeat(&system, &stream, &shape, pool, traced)
    })?;

    let repeats = if trace { &traced } else { &plain };
    let phases = || repeats.iter().flat_map(|r| [&r.open, &r.closed]);
    let attempted = phases().map(|p| p.sent as u64).sum();
    let mut notes = vec![
        format!(
            "military scale {} ({} vertices, {} edges); a fresh request stream per repeat",
            shape.scale, system.vertices, system.edges
        ),
        format!(
            "open loop: {} requests at {}/s; closed loop: {} requests, {IN_FLIGHT} in flight",
            shape.open_requests, shape.rate, shape.closed_requests
        ),
        format!(
            "batch window {BATCH_WINDOW}, snapshot interval {}, log store in memory",
            LOG_CONFIG.snapshot_interval
        ),
        format!(
            "pool width {} (available_parallelism), {} repeat(s) of two phases",
            pool.jobs(),
            repeats.len()
        ),
    ];
    let mut measured = Measured::default();
    if trace {
        let sat = |rs: &[Repeat]| Samples::new(rs.iter().map(Repeat::sat_rps).collect()).median();
        let overhead = sat(&plain) / sat(&traced);
        per_layer(&mut measured, &system, &traced, overhead)?;
    } else {
        // Per repeat, so one repeat that met a host stall moves the
        // run's median by one rank rather than its pooled tail.
        let opens: Vec<Samples> = repeats
            .iter()
            .map(|r| Samples::new(r.open.driven.latencies_ms()))
            .collect();
        if !tail_supported(shape.open_requests, shape.tail_q) {
            notes.push(format!(
                "tail p{} has fewer than 10 samples beyond it in a phase at this size",
                shape.tail_q * 100.0
            ));
        }
        notes.push(format!(
            "p50_ms and tail_ms (open-loop p{}) are medians over repeats",
            shape.tail_q * 100.0
        ));
        measured.set(
            "p50_ms",
            Samples::new(opens.iter().map(Samples::median).collect()),
        );
        measured.set(
            "tail_ms",
            Samples::new(opens.iter().map(|s| s.quantile(shape.tail_q)).collect()),
        );
        measured.set(
            "throughput",
            Samples::new(repeats.iter().map(Repeat::sat_rps).collect()),
        );
        measured.set(
            "setup_s",
            Samples::new(phases().map(|p| p.setup_s).collect()),
        );
    }
    Ok(RunResult {
        workload: workload.name(),
        seed,
        trace,
        attempted,
        failed: 0,
        notes,
        measured,
    })
}

/// Adds `from` into `into`, bucket by bucket.
fn merge_hist(into: &mut LogHistogram, from: &LogHistogram) {
    for (a, b) in into.buckets.iter_mut().zip(from.buckets) {
        *a += b;
    }
    into.count += from.count;
    into.total_ns += from.total_ns;
    into.max_ns = into.max_ns.max(from.max_ns);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer table from the traced repeats: each metric's value per
/// repeat, reported as the median over repeats.
fn per_layer(
    measured: &mut Measured,
    system: &System,
    traced: &[Repeat],
    overhead: f64,
) -> Result<(), String> {
    let mut rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    for r in traced {
        let (Some((t_open, s_open, r_open)), Some((t_closed, s_closed, r_closed))) =
            (&r.open.traced, &r.closed.traced)
        else {
            return Err("a traced repeat lost its tallies".to_string());
        };
        let mut tally = t_open.clone();
        for (a, b) in tally.counters.iter_mut().zip(&t_closed.counters) {
            *a += b;
        }
        for (a, b) in tally.spans.iter_mut().zip(&t_closed.spans) {
            merge_hist(a, b);
        }
        let span = |k: SpanKind| tally.span(k);
        let q_us = |k: SpanKind, q: f64| span(k).quantile_ns(q) as f64 / 1e3;
        let total_ns = |t: &Tally, k: SpanKind| t.span(k).total_ns as f64;

        let append_ns: Vec<u64> = s_open
            .append_ns
            .iter()
            .chain(&s_closed.append_ns)
            .copied()
            .collect();
        let appends = Samples::new(append_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
        let write_bytes = (s_open.append_bytes
            + s_open.atomic_bytes
            + s_closed.append_bytes
            + s_closed.atomic_bytes) as f64;
        let permits = (r_open.permits.load(Ordering::Relaxed)
            + r_closed.permits.load(Ordering::Relaxed)) as f64;
        let permits_ns = (r_open.permits_ns.load(Ordering::Relaxed)
            + r_closed.permits_ns.load(Ordering::Relaxed)) as f64;
        let edge_checks = (r_open.edge_checks.load(Ordering::Relaxed)
            + r_closed.edge_checks.load(Ordering::Relaxed)) as f64;

        let requests = (r.open.sent + r.closed.sent) as f64;
        let mutations = (r.open.mutations + r.closed.mutations) as f64;
        let pool_queries = (r.open.pool_queries + r.closed.pool_queries) as f64;
        let batches = (r.open.batches + r.closed.batches) as f64;
        let true_answers = [&r.open, &r.closed]
            .iter()
            .flat_map(|p| p.driven.received.iter().flatten())
            .filter(|(_, f)| matches!(f.opcode, Opcode::Ok) && f.payload == b"true")
            .count() as f64;
        let query_answers = [&r.open, &r.closed]
            .iter()
            .flat_map(|p| p.driven.received.iter().flatten())
            .filter(|(_, f)| f.payload == b"true" || f.payload == b"false")
            .count() as f64;
        let flush_total = total_ns(&tally, SpanKind::ServeFlush);
        let covered = total_ns(&tally, SpanKind::ServeBatch)
            + total_ns(&tally, SpanKind::LogSnapshot)
            + append_ns.iter().sum::<u64>() as f64;
        let late = Samples::new(
            r.open
                .driven
                .late_ns
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect(),
        );

        rows.push(vec![
            ("serve.mut_per_batch", ratio(mutations, batches)),
            ("serve.decode_ns", r.decode_ns),
            ("serve.flush_us_p50", q_us(SpanKind::ServeFlush, 0.5)),
            ("serve.flush_us_p99", q_us(SpanKind::ServeFlush, 0.99)),
            (
                "serve.gateway_busy_frac",
                ratio(
                    total_ns(t_closed, SpanKind::ServeFlush)
                        + total_ns(t_closed, SpanKind::ParQueries),
                    r.closed.driven.wall_s() * 1e9,
                ),
            ),
            ("core.check_ns", ratio(permits_ns, permits)),
            ("core.checks", permits),
            ("core.batch_us_p50", q_us(SpanKind::MonitorBatch, 0.5)),
            ("core.batch_us_p99", q_us(SpanKind::MonitorBatch, 0.99)),
            (
                "core.rollback_frac",
                ratio(
                    span(SpanKind::MonitorRollback).count as f64,
                    span(SpanKind::MonitorBatch).count as f64,
                ),
            ),
            (
                "core.refused_frac",
                ratio((r.open.refusals + r.closed.refusals) as f64, mutations),
            ),
            ("log.append_us_p50", appends.median()),
            ("log.append_us_p99", appends.quantile(0.99)),
            ("log.appends_per_mut", ratio(appends.n() as f64, mutations)),
            (
                "log.snapshot_ms_p50",
                q_us(SpanKind::LogSnapshot, 0.5) / 1e3,
            ),
            (
                "log.snapshot_ms_p99",
                q_us(SpanKind::LogSnapshot, 0.99) / 1e3,
            ),
            ("log.snapshots", tally.counter(Counter::LogSnapshots) as f64),
            ("log.bytes_per_req", ratio(write_bytes, requests)),
            ("log.commit_ns", span(SpanKind::LogCommit).mean_ns() as f64),
            ("log.recover_ms", r.open.recover_ms),
            ("log.recover_records", r.open.recover_records as f64),
            (
                "log.chain_mb",
                r.open.chain_bytes as f64 / (1024.0 * 1024.0),
            ),
            ("inc.edge_checks_per_mut", ratio(edge_checks, mutations)),
            (
                "inc.island_rebuilds",
                tally.counter(Counter::IncIslandRebuilds) as f64,
            ),
            (
                "inc.build_ms",
                span(SpanKind::IncBuild).mean_ns() as f64 / 1e6,
            ),
            ("par.queries_us_p50", q_us(SpanKind::ParQueries, 0.5)),
            ("par.queries_us_p99", q_us(SpanKind::ParQueries, 0.99)),
            (
                "par.wave_size",
                ratio(pool_queries, span(SpanKind::ParQueries).count as f64),
            ),
            (
                "analysis.query_ms",
                ratio(total_ns(&tally, SpanKind::ParQueries) / 1e6, pool_queries),
            ),
            ("analysis.true_frac", ratio(true_answers, query_answers)),
            (
                "graph.parse_ms",
                (r.open.parse_ms + r.closed.parse_ms) / 2.0,
            ),
            (
                "graph.edges_growth",
                ratio(r.open.final_edges as f64, system.edges as f64),
            ),
            ("bench.late_p99_ms", late.quantile(0.99)),
            ("bench.trace_overhead", overhead),
            (
                "bench.unattributed_frac",
                ratio((flush_total - covered).max(0.0), flush_total),
            ),
            (
                "proc.cpu_us_per_req",
                r.closed.cpu_s * 1e6 / r.closed.sent as f64,
            ),
            ("proc.peak_rss_mb", probe::peak_rss_mb()),
        ]);
    }
    measured.fill_layers(&rows);
    Ok(())
}

/// Mean nanoseconds to decode one request frame and parse its payload.
fn decode_ns(stream: &Stream) -> Result<f64, String> {
    let started = Instant::now();
    for bytes in &stream.frames {
        let frame = tg_serve::proto::decode_frame(std::hint::black_box(bytes))
            .map_err(|e| e.to_string())?;
        std::hint::black_box(parse_request(&frame)?);
    }
    Ok(started.elapsed().as_nanos() as f64 / stream.frames.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(workload: Workload, seed: u64) -> (System, Stream) {
        let shape = ServeShape::of(workload, true);
        let scenario = workload::scenario(shape.scale, seed);
        let stream = Stream::generate(workload, &shape, &scenario, seed).unwrap();
        (System::of(&scenario), stream)
    }

    #[test]
    fn a_tampered_expected_stream_fails_the_check() {
        let (system, mut stream) = toy(Workload::ServeMixed, 5);
        let load = Load::Closed;
        let n = stream.frames.len();
        let ok = phase(&system, &stream, load, n, Pool::new(2), false).unwrap();
        assert_eq!(ok.driven.answered(), n);
        let i = n / 2;
        stream.expected[i].1.push('!');
        let err = phase(&system, &stream, load, n, Pool::new(2), false)
            .err()
            .unwrap();
        assert!(err.contains(&format!("response {}", i + 1)), "{err}");
    }

    #[test]
    fn the_oracle_refuses_and_applies() {
        let (_, stream) = toy(Workload::ServeWrite, 1);
        let applied = stream
            .expected
            .iter()
            .filter(|(_, t)| t == "applied")
            .count();
        let refused = stream
            .expected
            .iter()
            .filter(|(o, _)| *o == Opcode::Refused)
            .count();
        assert!(
            applied > 0 && refused > 0,
            "{applied} applied, {refused} refused"
        );
        assert!(stream.expected.iter().all(|(o, _)| *o != Opcode::Error));
    }
}
