//! The 256-case differential suite: every state the commit log
//! reconstructs (snapshot + chain-suffix replay) must be *identical* to
//! the state the naive oracle produces by replaying the recorded event
//! prefix from the seed — across snapshot boundaries, with snapshots
//! disabled, and after compaction.
//!
//! A twin monitor (see `common`), driven by the same trace and schedule
//! as the live one, captures every event in memory, so captured event
//! `k` and chain record `k` describe the same decision and "epoch `e`"
//! means the same cut in both histories. The oracle for epoch `e` is
//! then the seed folded through the first `e` captured events, with a
//! batch open at the cut discarded.

mod common;

use common::Twin;
use tg_analysis::can_know;
use tg_graph::{ProtectionGraph, VertexId};
use tg_hierarchy::journal::JournalEvent;
use tg_hierarchy::structure::linear_hierarchy;
use tg_hierarchy::{CombinedRestriction, LevelAssignment, Monitor};
use tg_log::{CommitLog, LogConfig, LogError, MemStore, Store};
use tg_rules::Rule;
use tg_sim::faults::adversarial_trace;
use tg_sim::prng::Prng;

fn restriction() -> Box<CombinedRestriction> {
    Box::new(CombinedRestriction)
}

fn seed_state() -> (ProtectionGraph, LevelAssignment) {
    let built = linear_hierarchy(&["low", "mid", "high"], 3);
    (built.graph, built.assignment)
}

/// Mixes single applications with transactional batches so the history
/// exercises `R`, `B`/`A`/`C` and `B`/`A`/`X` records, calling
/// `maybe_snapshot` after every step the way the CLI service loop does
/// (a twin has no log to snapshot).
fn drive(monitor: &mut Monitor, log: Option<&CommitLog>, trace: &[Rule], seed: u64) {
    let mut rng = Prng::seed_from_u64(seed ^ 0x5EED);
    let mut i = 0;
    while i < trace.len() {
        if rng.gen_bool(0.3) {
            let width = 2 + rng.below(3);
            let batch = &trace[i..(i + width).min(trace.len())];
            let _ = monitor.try_apply_all(batch);
            i += batch.len();
        } else {
            let _ = monitor.try_apply(&trace[i]);
            i += 1;
        }
        if let Some(log) = log {
            log.maybe_snapshot(monitor).expect("snapshotting succeeds");
        }
    }
}

/// The full history of `trace` under `seed`'s schedule, as a twin
/// recorded it.
fn intended(trace: &[Rule], seed: u64) -> Vec<JournalEvent> {
    let mut twin = Twin::new(seed_state());
    drive(&mut twin.monitor, None, trace, seed);
    twin.events()
}

/// The naive oracle: seed state folded through the first `epoch`
/// recorded events.
fn oracle_at(events: &[JournalEvent], epoch: u64) -> Monitor {
    common::oracle_at(seed_state(), events, epoch)
}

fn assert_state_matches(case: &str, ours: &Monitor, oracle: &Monitor) {
    assert_eq!(ours.graph(), oracle.graph(), "{case}: graphs diverge");
    assert_eq!(ours.levels(), oracle.levels(), "{case}: levels diverge");
    assert_eq!(ours.stats(), oracle.stats(), "{case}: stats diverge");
    // Same graph, same verdicts — probe a query anyway so the suite
    // fails loudly if graph equality ever stops implying verdict
    // equality.
    let n = ours.graph().vertex_count();
    if n >= 2 {
        let x = VertexId::from_index(0);
        let y = VertexId::from_index(n - 1);
        assert_eq!(
            can_know(ours.graph(), x, y),
            can_know(oracle.graph(), x, y),
            "{case}: can_know verdicts diverge"
        );
    }
}

/// Four probe epochs per run: genesis, two interior cuts, and the head.
fn probes(end: u64) -> [u64; 4] {
    [0, end / 3, 2 * end / 3, end]
}

/// 16 seeds x 4 snapshot intervals x 4 probe epochs = 256 differential
/// reconstructions.
#[test]
fn time_travel_matches_naive_event_replay() {
    let mut cases = 0usize;
    for seed in 0..16u64 {
        for interval in [0u64, 2, 5, 8] {
            let (graph, levels) = seed_state();
            let trace = adversarial_trace(&graph, &levels, 30 + (seed as usize % 20), seed);
            let config = LogConfig {
                snapshot_interval: interval,
                write_through: true,
            };
            let (log, mut monitor) = CommitLog::create(
                Box::new(MemStore::new()),
                graph,
                levels,
                restriction(),
                config,
            )
            .expect("fresh log");
            drive(&mut monitor, Some(&log), &trace, seed);

            let events = intended(&trace, seed);
            let end = log.end_epoch();
            assert_eq!(
                end,
                events.len() as u64,
                "chain and twin record the same history"
            );

            for epoch in probes(end) {
                let (ours, info) = log
                    .state_at(epoch, restriction())
                    .expect("committed epochs reconstruct");
                let oracle = oracle_at(&events, epoch);
                let case = format!("seed {seed} interval {interval} epoch {epoch}");
                assert_state_matches(&case, &ours, &oracle);
                assert!(
                    info.snapshot_epoch <= epoch,
                    "{case}: snapshot used is at or below the probe"
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 256, "the differential suite is exactly 256 cases");
}

/// After compaction the reachable epochs must reconstruct to the exact
/// same states as before, and folded epochs must refuse closed.
#[test]
fn compaction_preserves_every_reachable_state() {
    for seed in [3u64, 11, 17] {
        let (graph, levels) = seed_state();
        let trace = adversarial_trace(&graph, &levels, 40, seed);
        let config = LogConfig {
            snapshot_interval: 6,
            write_through: true,
        };
        let (log, mut monitor) = CommitLog::create(
            Box::new(MemStore::new()),
            graph,
            levels,
            restriction(),
            config,
        )
        .expect("fresh log");
        drive(&mut monitor, Some(&log), &trace, seed);
        let events = intended(&trace, seed);
        let end = log.end_epoch();

        let report = log.compact(restriction()).expect("compaction proof holds");
        assert!(report.base_epoch > 0, "seed {seed}: something was folded");
        assert_eq!(log.base_epoch(), report.base_epoch);
        assert_eq!(log.end_epoch(), end, "compaction never loses the head");

        for epoch in report.base_epoch..=end {
            let (ours, _) = log
                .state_at(epoch, restriction())
                .expect("post-compaction epochs reconstruct");
            let oracle = oracle_at(&events, epoch);
            assert_state_matches(
                &format!("seed {seed} post-compaction epoch {epoch}"),
                &ours,
                &oracle,
            );
        }
        match log.state_at(report.base_epoch - 1, restriction()) {
            Err(LogError::CompactedAway { .. }) => {}
            other => panic!("folded epoch must refuse closed, got {other:?}"),
        }
        match log.state_at(end + 1, restriction()) {
            Err(LogError::FutureEpoch { .. }) => {}
            other => panic!("future epoch must refuse closed, got {other:?}"),
        }
    }
}

/// A snapshot whose *state* was forged but whose body digest and chain
/// hash still validate must fail `compact()`'s differential proof: the
/// proof folds from the base snapshot — never from the candidate itself
/// — so it actually replays the records about to be folded away.
#[test]
fn forged_snapshot_state_fails_the_compaction_proof() {
    let (graph, levels) = seed_state();
    let trace = adversarial_trace(&graph, &levels, 40, 7);
    let config = LogConfig {
        snapshot_interval: 6,
        write_through: true,
    };
    let store = MemStore::new();
    let (log, mut monitor) = CommitLog::create(
        Box::new(store.clone()),
        graph,
        levels,
        restriction(),
        config,
    )
    .expect("fresh log");
    drive(&mut monitor, Some(&log), &trace, 7);
    let target = *log.snapshot_epochs().last().expect("snapshots exist");
    assert!(target > 0, "an interval snapshot exists to compact into");

    // Forge the candidate's state while keeping every integrity check
    // happy: decode, add a subject the history never created, re-encode
    // (which recomputes the body digest) with the genuine epoch and
    // chain hash.
    let name = tg_log::snapshot::file_name(target);
    let bytes = store.read(&name).expect("read").expect("snapshot exists");
    let mut snap = tg_log::Snapshot::decode(&bytes).expect("valid snapshot");
    snap.graph.add_subject("forged");
    {
        let mut boxed: Box<dyn Store> = Box::new(store.clone());
        boxed
            .write_atomic(&name, snap.encode().as_bytes())
            .expect("tamper");
    }

    match log.compact(restriction()) {
        Err(LogError::CompactionProof { epoch, .. }) => assert_eq!(epoch, target),
        other => panic!("forged snapshot must fail the proof, got {other:?}"),
    }
    assert_eq!(log.base_epoch(), 0, "nothing was modified");
}

/// Snapshots written after a torn-tail recovery land *below* stale
/// snapshot epochs from the torn region; the stale epochs must be
/// dropped on open and later inserts must keep the list sorted, or
/// best_snapshot's newest-first reverse scan picks the wrong snapshot.
#[test]
fn snapshot_list_stays_sorted_across_torn_recovery() {
    let (graph, levels) = seed_state();
    let trace = adversarial_trace(&graph, &levels, 40, 11);
    let config = LogConfig {
        snapshot_interval: 2,
        write_through: true,
    };
    let store = MemStore::new();
    let (log, mut monitor) = CommitLog::create(
        Box::new(store.clone()),
        graph,
        levels,
        restriction(),
        config,
    )
    .expect("fresh log");
    drive(&mut monitor, Some(&log), &trace, 11);
    let newest = *log.snapshot_epochs().last().expect("snapshots exist");
    assert!(newest > 2, "interval snapshots exist above the tear point");
    drop(log);

    // Tear the chain back below the newest snapshot: keep the header
    // plus the first `newest - 2` records, then a torn partial line.
    let chain = store
        .read(tg_log::CHAIN_FILE)
        .expect("read")
        .expect("chain exists");
    let text = String::from_utf8(chain).expect("utf8");
    let keep = (newest - 2) as usize;
    let mut torn: String = text
        .lines()
        .take(1 + keep)
        .flat_map(|l| [l, "\n"])
        .collect();
    torn.push_str("0000 torn mid-append");
    {
        let mut boxed: Box<dyn Store> = Box::new(store.clone());
        boxed
            .write_atomic(tg_log::CHAIN_FILE, torn.as_bytes())
            .expect("tamper");
    }

    let (log2, monitor2, report) =
        CommitLog::open(Box::new(store.clone()), restriction(), config, None).expect("torn reopen");
    assert!(report.torn.is_some(), "the tear is reported");
    // A tear mid-batch can truncate further than the cut itself.
    assert!(report.end_epoch <= keep as u64);
    assert!(report.end_epoch < newest, "history healed below the tear");
    assert!(
        log2.snapshot_epochs()
            .iter()
            .all(|&e| e <= report.end_epoch),
        "stale snapshots above the healed end are dropped: {:?}",
        log2.snapshot_epochs()
    );

    let epoch = log2.snapshot_now(&monitor2).expect("snapshot");
    let snaps = log2.snapshot_epochs();
    let mut sorted = snaps.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(snaps, sorted, "the list stays sorted and duplicate-free");
    let (_, info) = log2.state_at(epoch, restriction()).expect("reconstructs");
    assert_eq!(info.snapshot_epoch, epoch, "the newest snapshot is found");
    assert_eq!(info.replayed, 0);
}

/// A read-only open verifies and recovers like a normal open but never
/// rewrites the store, and every write path refuses.
#[test]
fn read_only_open_heals_in_memory_only() {
    let (graph, levels) = seed_state();
    let trace = adversarial_trace(&graph, &levels, 30, 5);
    let config = LogConfig {
        snapshot_interval: 4,
        write_through: true,
    };
    let store = MemStore::new();
    let (log, mut monitor) = CommitLog::create(
        Box::new(store.clone()),
        graph,
        levels,
        restriction(),
        config,
    )
    .expect("fresh log");
    drive(&mut monitor, Some(&log), &trace, 5);
    let events = intended(&trace, 5);
    drop(log);

    // Tear the tail; a read-only open must truncate in memory only.
    let chain = store
        .read(tg_log::CHAIN_FILE)
        .expect("read")
        .expect("chain exists");
    let torn = chain[..chain.len() - 5].to_vec();
    {
        let mut boxed: Box<dyn Store> = Box::new(store.clone());
        boxed
            .write_atomic(tg_log::CHAIN_FILE, &torn)
            .expect("tamper");
    }
    let before = store.read(tg_log::CHAIN_FILE).expect("read");

    let (rlog, report) =
        CommitLog::open_read_only(Box::new(store.clone()), restriction(), config, None)
            .expect("read-only reopen");
    assert!(report.torn.is_some(), "the tear is reported");
    assert_eq!(
        store.read(tg_log::CHAIN_FILE).expect("read"),
        before,
        "a read-only open must not rewrite the chain"
    );

    // Queries answer from the committed prefix...
    let (ours, _) = rlog
        .state_at(report.end_epoch, restriction())
        .expect("reconstructs");
    let oracle = oracle_at(&events, report.end_epoch);
    assert_state_matches("read-only torn reopen", &ours, &oracle);

    // ...and every write path refuses.
    assert!(matches!(rlog.persist(), Err(LogError::ReadOnly)));
    assert!(matches!(rlog.snapshot_now(&ours), Err(LogError::ReadOnly)));
    assert!(matches!(
        rlog.compact(restriction()),
        Err(LogError::ReadOnly)
    ));
}

/// Reopening a log continues the same history: the recovered monitor
/// matches the live one, and the recovery report's replay length is
/// bounded by the snapshot interval (plus a discarded trailing batch).
#[test]
fn reopen_round_trips_and_bounds_replay() {
    for seed in [2u64, 9, 23] {
        for interval in [4u64, 64] {
            let (graph, levels) = seed_state();
            let trace = adversarial_trace(&graph, &levels, 35, seed);
            let config = LogConfig {
                snapshot_interval: interval,
                write_through: true,
            };
            let store = MemStore::new();
            let (log, mut monitor) = CommitLog::create(
                Box::new(store.clone()),
                graph,
                levels,
                restriction(),
                config,
            )
            .expect("fresh log");
            drive(&mut monitor, Some(&log), &trace, seed);
            let end = log.end_epoch();
            drop(log);

            let reopened: Box<dyn Store> = Box::new(store.clone());
            let (log2, recovered, report) =
                CommitLog::open(reopened, restriction(), config, None).expect("clean reopen");
            assert_eq!(report.end_epoch, end, "no committed history is lost");
            assert_eq!(
                recovered.graph(),
                monitor.graph(),
                "graphs diverge on reopen"
            );
            assert_eq!(
                recovered.levels(),
                monitor.levels(),
                "levels diverge on reopen"
            );
            assert_eq!(
                recovered.stats(),
                monitor.stats(),
                "stats diverge on reopen"
            );
            assert!(
                report.replayed as u64 <= interval,
                "seed {seed}: replayed {} > interval {interval}",
                report.replayed
            );
            assert!(
                !report.discarded_open_batch,
                "clean shutdown has no open batch"
            );
            assert!(report.torn.is_none(), "clean shutdown has no torn tail");
            assert_eq!(log2.end_epoch(), end);
        }
    }
}
