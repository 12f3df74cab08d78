//! Commit-log overhead and bounded-recovery head-to-head.
//!
//! Two claims from the `tg-log` design are measured and enforced:
//!
//! * **commit overhead**: recording every monitor decision through the
//!   hash-chained commit log (`tg_log::CommitLog`, FNV-1a chain link per
//!   record) must cost at most **1.25×** the fixed baseline
//!   [`Crc32Sink`]: per record, a sequence number, the event payload and
//!   an IEEE CRC-32 line checksum, accumulated in memory.
//! * **bounded recovery**: reopening a log of N commits replays at most
//!   `snapshot_interval` records past the newest snapshot, so recovery
//!   time is governed by the interval, not the history length. Measured
//!   at intervals 64, 1024 and ∞ (`0`, snapshots disabled — full
//!   replay), the interval-64 recovery must beat the full replay.
//!
//! Both gates are judged on medians of per-round ratios: each round
//! times every contender once, back to back, rotating which goes first,
//! so drift in the host's speed hits both sides of a ratio alike.
//!
//! Besides the Criterion display, the bench writes a machine-readable
//! summary to `BENCH_log.json` at the workspace root and **panics if
//! either claim fails** — CI's bench-smoke job runs this bench in smoke
//! mode (`BENCH_LOG_SMOKE=1`, shorter history, same graph) to catch a
//! commit path that quietly grows past its budget.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use tg_hierarchy::{CombinedRestriction, EventSink, JournalEvent, Monitor};
use tg_log::{CommitLog, LogConfig, MemStore};
use tg_rules::Rule;
use tg_sim::faults::adversarial_trace;
use tg_sim::workload::hierarchy;

/// Smoke mode: same graph, shorter history and fewer timing rounds.
fn smoke() -> bool {
    std::env::var_os("BENCH_LOG_SMOKE").is_some()
}

fn restriction() -> Box<CombinedRestriction> {
    Box::new(CombinedRestriction)
}

/// The commit gate's fixed baseline: the per-record work of a plain
/// checksummed event log — `"{seq} {payload}"`, its IEEE CRC-32, then
/// the line `"{crc:08x} {body}\n"`, kept in memory. It is a yardstick
/// for the chain's per-record cost, not a log anything reads back.
#[derive(Default)]
struct Crc32Sink {
    text: String,
    seq: u64,
}

impl EventSink for Crc32Sink {
    fn append(&mut self, event: &JournalEvent) {
        let body = format!("{} {}", self.seq, event.encode_payload());
        let crc = crc32(body.as_bytes());
        self.text.push_str(&format!("{crc:08x} {body}\n"));
        self.seq += 1;
    }
}

/// IEEE CRC-32 (the zlib/PNG polynomial), table-driven.
fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

struct Workload {
    built: tg_hierarchy::structure::BuiltHierarchy,
    trace: Vec<Rule>,
}

fn workload() -> Workload {
    // 20 levels x 10 subjects: a few hundred vertices — big enough that
    // snapshots carry real state, small enough that the per-commit cost
    // dominates the run.
    let built = hierarchy(20, 10);
    // Not a multiple of either interval, so recovery has a real tail.
    let commits = if smoke() { 2_085 } else { 4_133 };
    let trace = adversarial_trace(&built.graph, &built.assignment, commits, 0x106);
    Workload { built, trace }
}

/// One baseline pass: the monitor recording into a [`Crc32Sink`].
fn run_baseline(w: &Workload) -> Monitor {
    let mut monitor = Monitor::new(
        w.built.graph.clone(),
        w.built.assignment.clone(),
        restriction(),
    );
    monitor.attach_event_sink(Box::new(Crc32Sink::default()));
    for rule in &w.trace {
        let _ = monitor.try_apply(rule);
    }
    monitor
}

/// One commit-log pass at the given snapshot interval; returns the store
/// holding the persisted chain and snapshots.
fn run_log(w: &Workload, interval: u64, write_through: bool) -> MemStore {
    let store = MemStore::new();
    let config = LogConfig {
        snapshot_interval: interval,
        write_through,
    };
    let (log, mut monitor) = CommitLog::create(
        Box::new(store.clone()),
        w.built.graph.clone(),
        w.built.assignment.clone(),
        restriction(),
        config,
    )
    .expect("fresh commit log");
    for rule in &w.trace {
        let _ = monitor.try_apply(rule);
        log.maybe_snapshot(&monitor).expect("snapshot");
    }
    log.persist().expect("flush");
    store
}

fn config(interval: u64) -> LogConfig {
    LogConfig {
        snapshot_interval: interval,
        write_through: true,
    }
}

/// Runs every contender once per round, `count` rounds after one
/// warm-up round, starting each round one contender further along.
/// Returns each contender's per-round wall times in nanoseconds.
fn rounds<const N: usize>(count: usize, contenders: [&dyn Fn(); N]) -> [Vec<f64>; N] {
    let mut times: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(count));
    for round in 0..=count {
        for k in 0..N {
            let i = (round + k) % N;
            let start = Instant::now();
            contenders[i]();
            if round > 0 {
                times[i].push(start.elapsed().as_nanos() as f64);
            }
        }
    }
    times
}

/// The median (upper middle for an even count).
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The median of the per-round ratios `num[i] / den[i]`.
fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    median(&num.iter().zip(den).map(|(n, d)| n / d).collect::<Vec<_>>())
}

fn bench_log(c: &mut Criterion) {
    let w = workload();
    let commits = w.trace.len() as u64;

    // Correctness first: the committed chain must reduce to the same
    // state the baseline monitor reached.
    let baseline_monitor = run_baseline(&w);
    {
        let store = run_log(&w, 64, true);
        let (_, recovered, report) =
            CommitLog::open(Box::new(store), restriction(), config(64), None)
                .expect("clean reopen");
        assert_eq!(report.end_epoch, commits);
        assert_eq!(recovered.graph(), baseline_monitor.graph());
        assert_eq!(recovered.stats(), baseline_monitor.stats());
    }

    let pairs = if smoke() { 21 } else { 61 };
    // Interval 0, no write-through: the commit path alone (hash link +
    // chain append), matching the baseline's accumulate-in-memory
    // semantics; snapshot cost shows up in recovery below.
    let [baseline, log] = rounds(
        pairs,
        [&|| drop(run_baseline(&w)), &|| drop(run_log(&w, 0, false))],
    );
    let (baseline_ns, log_ns) = (median(&baseline), median(&log));
    let overhead = median_ratio(&log, &baseline);

    // Recovery at each interval: persist a clean history once, then time
    // CommitLog::open on clones of the frozen store (reopen of a clean
    // chain is read-only, so clones share the bytes safely).
    let intervals = [64u64, 1_024, 0];
    let stores = intervals.map(|interval| run_log(&w, interval, true));
    let reopen = |k: usize| {
        let store = Box::new(stores[k].clone());
        CommitLog::open(store, restriction(), config(intervals[k]), None).expect("clean reopen")
    };
    for (k, interval) in intervals.into_iter().enumerate() {
        let (_, _, report) = reopen(k);
        assert_eq!(report.end_epoch, commits, "committed history lost");
        if interval == 0 {
            assert_eq!(
                report.replayed as u64, commits,
                "with snapshots disabled, recovery must replay everything"
            );
        } else {
            assert!(
                report.replayed as u64 <= interval,
                "recovery replayed {} records — over the interval-{} bound",
                report.replayed,
                interval
            );
        }
    }
    let timed = |k: usize| move || drop(reopen(k));
    let recovery = rounds(pairs, [&timed(0), &timed(1), &timed(2)]);
    let recover_64_vs_full = median_ratio(&recovery[0], &recovery[2]);

    let recovery_json: Vec<String> = (0..3)
        .map(|k| {
            let (_, _, report) = reopen(k);
            format!(
                "    {{ \"interval\": {}, \"recover_ns\": {:.0}, \"replayed\": {}, \
                 \"snapshot_epoch\": {} }}",
                intervals[k],
                median(&recovery[k]),
                report.replayed,
                report.snapshot_epoch
            )
        })
        .collect();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"bench_log\",\n",
            "  \"smoke\": {},\n",
            "  \"jobs\": 1,\n  \"host_parallelism\": {},\n",
            "  \"vertices\": {},\n  \"edges\": {},\n  \"commits\": {},\n",
            "  \"rounds\": {}, \"statistic\": \"median\",\n",
            "  \"commit\": {{ \"baseline\": \"crc32_sink\", \"baseline_ns\": {:.0}, ",
            "\"log_ns\": {:.0}, \"overhead\": {:.3}, \"budget\": 1.25 }},\n",
            "  \"recovery\": [\n{}\n  ],\n",
            "  \"recover_64_vs_full\": {:.3}\n",
            "}}\n"
        ),
        smoke(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        w.built.graph.vertex_count(),
        w.built.graph.edge_count(),
        commits,
        pairs,
        baseline_ns,
        log_ns,
        overhead,
        recovery_json.join(",\n"),
        recover_64_vs_full,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_log.json");
    std::fs::write(path, &json).expect("write BENCH_log.json");
    println!("bench_log summary ({path}):\n{json}");

    assert!(
        overhead <= 1.25,
        "commit log costs {overhead:.2}x the crc32 baseline sink (medians {log_ns:.0} ns vs \
         {baseline_ns:.0} ns) — over the 1.25x budget"
    );
    assert!(
        recover_64_vs_full < 1.0,
        "interval-64 recovery must beat full replay: median ratio {recover_64_vs_full:.3}"
    );

    // Criterion display of the same comparisons.
    let mut group = c.benchmark_group("log/commit_path");
    group.bench_function("crc32_sink", |b| {
        b.iter(|| run_baseline(criterion::black_box(&w)))
    });
    group.bench_function("commit_log", |b| {
        b.iter(|| run_log(criterion::black_box(&w), 0, false))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_log
}
criterion_main!(benches);
