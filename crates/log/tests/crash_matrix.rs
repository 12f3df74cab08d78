//! The crash-point matrix: kill the writer at **every byte** of the
//! log's lifetime — during commits, snapshot writes and compaction —
//! then reboot and require that recovery yields *exactly* the committed
//! pre-crash state or refuses fail-closed. Zero silently-divergent
//! recoveries, by exhaustion.
//!
//! The oracle is the same as in `differential.rs` (see `common`): a
//! twin monitor driven by the same trace and schedule captures the full
//! intended event history in memory, where no simulated crash reaches
//! it, and the committed state at epoch `e` is the seed folded through
//! the first `e` of those events.

mod common;

use common::Twin;
use proptest::prelude::*;
use tg_graph::ProtectionGraph;
use tg_hierarchy::journal::JournalEvent;
use tg_hierarchy::structure::linear_hierarchy;
use tg_hierarchy::{CombinedRestriction, LevelAssignment, Monitor};
use tg_log::{Chain, CommitLog, LogConfig, LogError, MemStore, Store, CHAIN_FILE};
use tg_rules::Rule;
use tg_sim::faults::{adversarial_trace, corrupt_bytes, CorruptionKind, CrashPlan};
use tg_sim::prng::Prng;

const INTERVAL: u64 = 4;
const MAX_BATCH: u64 = 4;

fn restriction() -> Box<CombinedRestriction> {
    Box::new(CombinedRestriction)
}

fn seed_state() -> (ProtectionGraph, LevelAssignment) {
    let built = linear_hierarchy(&["low", "mid", "high"], 3);
    (built.graph, built.assignment)
}

fn config() -> LogConfig {
    LogConfig {
        snapshot_interval: INTERVAL,
        write_through: true,
    }
}

/// Same deterministic schedule as the differential suite; every store
/// error is swallowed, the way a real process keeps issuing writes it
/// does not know are doomed. A twin has no log to snapshot.
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
            let _ = log.maybe_snapshot(monitor);
        }
    }
}

/// The full intended history of `trace` under `seed`'s schedule.
fn intended(trace: &[Rule], seed: u64) -> Vec<JournalEvent> {
    let mut twin = Twin::new(seed_state());
    drive(&mut twin.monitor, None, trace, seed);
    twin.events()
}

/// Copies whatever survived the crash into a fresh, healthy store —
/// the reboot.
fn reboot(crashed: &MemStore) -> MemStore {
    let fresh = MemStore::new();
    let mut out: Box<dyn Store> = Box::new(fresh.clone());
    for name in crashed.list().expect("listing survives") {
        if let Some(bytes) = crashed.read(&name).expect("reading survives") {
            out.write_atomic(&name, &bytes)
                .expect("healthy store writes");
        }
    }
    fresh
}

/// The committed state at `epoch` per the intended history.
fn oracle_at(events: &[JournalEvent], epoch: u64) -> Monitor {
    common::oracle_at(seed_state(), events, epoch)
}

/// Reopens a crashed-and-rebooted store and checks the verdict: either
/// recovery refuses (fail closed), or the recovered state is exactly a
/// committed prefix of the intended history and the healed chain holds
/// exactly that prefix's events. Returns whether it opened.
fn assert_sound_recovery(
    case: &str,
    crashed: &MemStore,
    events: &[JournalEvent],
    max_end: u64,
) -> bool {
    let rebooted = reboot(crashed);
    match CommitLog::open(Box::new(rebooted.clone()), restriction(), config(), None) {
        Err(_) => false,
        Ok((log, recovered, report)) => {
            assert!(
                report.end_epoch <= max_end,
                "{case}: recovered past the intended history"
            );
            let oracle = oracle_at(events, report.end_epoch);
            assert_eq!(recovered.graph(), oracle.graph(), "{case}: graphs diverge");
            assert_eq!(
                recovered.levels(),
                oracle.levels(),
                "{case}: levels diverge"
            );
            assert_eq!(recovered.stats(), oracle.stats(), "{case}: stats diverge");
            assert!(
                (report.replayed as u64) <= INTERVAL + MAX_BATCH,
                "{case}: replayed {} records, bound is {}",
                report.replayed,
                INTERVAL + MAX_BATCH
            );
            // Damage that would replay to the same state (a rewritten
            // malformed rule, say) must still be refused, not kept.
            let bytes = rebooted.read(CHAIN_FILE).expect("read").expect("chain");
            let (chain, _) = Chain::parse(&bytes, log.genesis()).expect("healed chain parses");
            for record in chain.records() {
                assert_eq!(
                    record.event, events[record.seq as usize],
                    "{case}: record {} is not the committed event",
                    record.seq
                );
            }
            true
        }
    }
}

/// One full run (create + drive) against a store that dies after
/// `budget` bytes. Returns the crashed store plus the full intended
/// history and its length.
fn crashed_run(seed: u64, budget: u64) -> (MemStore, Vec<JournalEvent>, u64) {
    let (graph, levels) = seed_state();
    let trace = adversarial_trace(&graph, &levels, 20, seed);
    let store = MemStore::with_plan(CrashPlan::kill_after_bytes(budget));
    match CommitLog::create(
        Box::new(store.clone()),
        graph.clone(),
        levels.clone(),
        restriction(),
        config(),
    ) {
        Err(_) => {
            // Creation itself crashed; there is no history at all.
            (store, Vec::new(), 0)
        }
        Ok((log, mut monitor)) => {
            drive(&mut monitor, Some(&log), &trace, seed);
            let events = intended(&trace, seed);
            let end = events.len() as u64;
            (store, events, end)
        }
    }
}

/// Kill the writer after every possible byte budget across the whole
/// commit + snapshot lifetime; every reboot must be sound.
#[test]
fn every_commit_byte_offset_recovers_or_refuses() {
    for seed in [7u64, 31] {
        // Measure the run's total write volume with an immortal store.
        let (healthy, _, _) = crashed_run(seed, u64::MAX);
        let total = healthy.bytes_stored() as u64;
        assert!(total > 500, "the run writes enough to be worth sweeping");

        let mut opened = 0u64;
        for budget in 0..=total {
            let (store, events, end) = crashed_run(seed, budget);
            let case = format!("seed {seed} budget {budget}");
            if assert_sound_recovery(&case, &store, &events, end) {
                opened += 1;
            }
        }
        // Once the seed snapshot and header are down, every later crash
        // point must recover (the matrix would be vacuous otherwise).
        assert!(
            opened > total / 2,
            "seed {seed}: only {opened} of {total} crash points recovered"
        );
    }
}

/// Kill the snapshot writer at every byte of the atomic
/// write-temp/rename protocol; the chain is already durable, so every
/// single crash point must reopen to the full committed state.
#[test]
fn every_snapshot_byte_offset_recovers_committed_state() {
    let seed = 13u64;
    let (graph, levels) = seed_state();
    let trace = adversarial_trace(&graph, &levels, 15, seed);

    // Clean run establishing the committed state.
    let store = MemStore::new();
    let (log, mut monitor) = CommitLog::create(
        Box::new(store.clone()),
        graph,
        levels,
        restriction(),
        config(),
    )
    .expect("fresh log");
    drive(&mut monitor, Some(&log), &trace, seed);
    log.persist().expect("clean flush");
    let events = intended(&trace, seed);
    let end = log.end_epoch();
    assert_eq!(
        end,
        events.len() as u64,
        "the chain holds the whole history"
    );

    // Measure an unconstrained snapshot write, then sweep every budget.
    // The atomic protocol admits `len` bytes for the temp file plus one
    // unit for the rename tick, so `len + 1` covers every crash point.
    let probe = reboot(&store);
    {
        let (plog, pmon, _) =
            CommitLog::open(Box::new(probe.clone()), restriction(), config(), None)
                .expect("probe reopen");
        let epoch = plog.snapshot_now(&pmon).expect("probe snapshot");
        let snap_file = format!("snap-{epoch:020}.tgs");
        let snap_bytes = probe
            .read(&snap_file)
            .expect("read")
            .expect("snapshot written")
            .len() as u64
            + 1;
        assert!(snap_bytes > 100, "snapshot writes enough to sweep");

        for budget in 0..=snap_bytes {
            let victim = reboot(&store);
            let (vlog, vmon, _) =
                CommitLog::open(Box::new(victim.clone()), restriction(), config(), None)
                    .expect("victim reopen");
            victim.set_plan(CrashPlan::kill_after_bytes(budget));
            let _ = vlog.snapshot_now(&vmon);
            let case = format!("snapshot budget {budget}");
            assert!(
                assert_sound_recovery(&case, &victim, &events, end),
                "{case}: a crashed snapshot must never block recovery"
            );
            // Stronger: the chain was durable before the snapshot, so
            // recovery must reach exactly `end`, not a prefix.
            let (_, r2, report) =
                CommitLog::open(Box::new(reboot(&victim)), restriction(), config(), None)
                    .expect("reopen after snapshot crash");
            assert_eq!(report.end_epoch, end, "{case}: committed history lost");
            let oracle = oracle_at(&events, end);
            assert_eq!(r2.graph(), oracle.graph(), "{case}: graphs diverge");
        }
    }
}

/// Kill compaction at every byte of its rewrite+prune sequence; the old
/// chain stays authoritative until the atomic rename, so every crash
/// point must reopen to the full committed state.
#[test]
fn every_compaction_byte_offset_recovers_committed_state() {
    let seed = 19u64;
    let (graph, levels) = seed_state();
    let trace = adversarial_trace(&graph, &levels, 18, seed);

    let store = MemStore::new();
    let (log, mut monitor) = CommitLog::create(
        Box::new(store.clone()),
        graph,
        levels,
        restriction(),
        config(),
    )
    .expect("fresh log");
    drive(&mut monitor, Some(&log), &trace, seed);
    log.persist().expect("clean flush");
    let events = intended(&trace, seed);
    let end = log.end_epoch();
    assert_eq!(
        end,
        events.len() as u64,
        "the chain holds the whole history"
    );
    assert!(
        log.snapshot_epochs().len() > 1,
        "the run produced interval snapshots to compact into"
    );

    // Measure an unconstrained compaction's write volume.
    let probe = reboot(&store);
    let before = probe.bytes_stored();
    {
        let (plog, _, _) = CommitLog::open(Box::new(probe.clone()), restriction(), config(), None)
            .expect("probe reopen");
        plog.compact(restriction()).expect("probe compaction");
    }
    let compact_bytes = (probe.bytes_stored() as i64 - before as i64).unsigned_abs() + 64;

    for budget in 0..=compact_bytes {
        let victim = reboot(&store);
        let (vlog, _, _) = CommitLog::open(Box::new(victim.clone()), restriction(), config(), None)
            .expect("victim reopen");
        victim.set_plan(CrashPlan::kill_after_bytes(budget));
        let _ = vlog.compact(restriction());
        let case = format!("compaction budget {budget}");
        let (_, recovered, report) =
            CommitLog::open(Box::new(reboot(&victim)), restriction(), config(), None)
                .unwrap_or_else(|e| panic!("{case}: compaction crash must not block reopen: {e}"));
        assert_eq!(report.end_epoch, end, "{case}: committed history lost");
        let oracle = oracle_at(&events, end);
        assert_eq!(recovered.graph(), oracle.graph(), "{case}: graphs diverge");
        assert_eq!(recovered.stats(), oracle.stats(), "{case}: stats diverge");
    }
}

/// Flip every single byte of a committed chain file: recovery must
/// refuse, or truncate to a committed prefix — never accept a forgery.
#[test]
fn every_chain_byte_flip_fails_closed_or_truncates() {
    let seed = 5u64;
    let (graph, levels) = seed_state();
    let trace = adversarial_trace(&graph, &levels, 12, seed);
    let store = MemStore::new();
    let (log, mut monitor) = CommitLog::create(
        Box::new(store.clone()),
        graph,
        levels,
        restriction(),
        config(),
    )
    .expect("fresh log");
    drive(&mut monitor, Some(&log), &trace, seed);
    log.persist().expect("clean flush");
    let events = intended(&trace, seed);
    let end = log.end_epoch();
    assert_eq!(
        end,
        events.len() as u64,
        "the chain holds the whole history"
    );

    let chain = store.read(CHAIN_FILE).expect("read").expect("chain exists");
    let mut refused = 0usize;
    for pos in 0..chain.len() {
        let mut forged = chain.clone();
        forged[pos] ^= 0x41;
        let tampered = reboot(&store);
        {
            let mut boxed: Box<dyn Store> = Box::new(tampered.clone());
            boxed.write_atomic(CHAIN_FILE, &forged).expect("tamper");
        }
        let case = format!("chain byte {pos} flipped");
        if !assert_sound_recovery(&case, &tampered, &events, end) {
            refused += 1;
        }
    }
    assert!(
        refused > 0,
        "at least the header and mid-chain flips must refuse outright"
    );
}

/// Splicing the suffix of one log onto another must refuse: the chain
/// hash binds every record to its ancestry.
#[test]
fn spliced_chain_files_fail_closed() {
    let (graph, levels) = seed_state();
    let mut stores = Vec::new();
    for seed in [41u64, 42] {
        let trace = adversarial_trace(&graph, &levels, 12, seed);
        let store = MemStore::new();
        let (log, mut monitor) = CommitLog::create(
            Box::new(store.clone()),
            graph.clone(),
            levels.clone(),
            restriction(),
            config(),
        )
        .expect("fresh log");
        drive(&mut monitor, Some(&log), &trace, seed);
        log.persist().expect("clean flush");
        stores.push(store);
    }
    let a = stores[0].read(CHAIN_FILE).expect("read").expect("chain a");
    let b = stores[1].read(CHAIN_FILE).expect("read").expect("chain b");
    let a_text = String::from_utf8(a).expect("utf8");
    let b_text = String::from_utf8(b).expect("utf8");
    let a_lines: Vec<&str> = a_text.lines().collect();
    let b_lines: Vec<&str> = b_text.lines().collect();
    let cut = a_lines.len().min(b_lines.len()) / 2;
    assert!(cut > 1, "both histories are long enough to splice");

    // a's header and early records, b's later records.
    let mut spliced = a_lines[..cut].join("\n");
    spliced.push('\n');
    spliced.push_str(&b_lines[cut..].join("\n"));
    spliced.push('\n');

    let tampered = reboot(&stores[0]);
    {
        let mut boxed: Box<dyn Store> = Box::new(tampered.clone());
        boxed
            .write_atomic(CHAIN_FILE, spliced.as_bytes())
            .expect("tamper");
    }
    match CommitLog::open(Box::new(tampered), restriction(), config(), None) {
        Err(LogError::Chain(_)) => {}
        Err(other) => panic!("expected a chain error, got {other}"),
        Ok((_, _, report)) => panic!("splice accepted: {report:?}"),
    }
}

/// Truncating or corrupting snapshot files silently falls back to an
/// older snapshot — never to a wrong state.
#[test]
fn damaged_snapshots_fall_back_without_diverging() {
    let seed = 29u64;
    let (graph, levels) = seed_state();
    let trace = adversarial_trace(&graph, &levels, 18, seed);
    let store = MemStore::new();
    let (log, mut monitor) = CommitLog::create(
        Box::new(store.clone()),
        graph,
        levels,
        restriction(),
        config(),
    )
    .expect("fresh log");
    drive(&mut monitor, Some(&log), &trace, seed);
    log.persist().expect("clean flush");
    let events = intended(&trace, seed);
    let end = log.end_epoch();
    assert_eq!(
        end,
        events.len() as u64,
        "the chain holds the whole history"
    );
    let snaps = log.snapshot_epochs();
    assert!(snaps.len() > 1, "interval snapshots exist");
    let newest = *snaps.last().expect("nonempty");
    let name = format!("snap-{newest:020}.tgs");

    let full = store.read(&name).expect("read").expect("snapshot exists");
    for cut in [0, 1, full.len() / 2, full.len() - 1] {
        let tampered = reboot(&store);
        {
            let mut boxed: Box<dyn Store> = Box::new(tampered.clone());
            boxed.write_atomic(&name, &full[..cut]).expect("tamper");
        }
        let case = format!("snapshot truncated to {cut} bytes");
        let (_, recovered, report) =
            CommitLog::open(Box::new(tampered), restriction(), config(), None)
                .unwrap_or_else(|e| panic!("{case}: fallback must succeed: {e}"));
        assert_eq!(report.end_epoch, end, "{case}: committed history lost");
        assert!(
            report.snapshots_rejected >= 1,
            "{case}: rejection is reported"
        );
        assert!(
            report.snapshot_epoch < newest,
            "{case}: an older snapshot was used"
        );
        let oracle = oracle_at(&events, end);
        assert_eq!(recovered.graph(), oracle.graph(), "{case}: graphs diverge");
        assert_eq!(recovered.stats(), oracle.stats(), "{case}: stats diverge");
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    /// Random damage anywhere in a committed chain — garbage spans or bit
    /// flips, one to three hits — never opens to a state outside the
    /// committed history: recovery equals the oracle replay of a
    /// committed prefix, or refuses. It never panics.
    #[test]
    fn corrupted_chains_recover_a_committed_prefix_or_refuse(
        seed in 0u64..10_000,
        len in 1usize..40,
        hits in 1usize..4,
        garbage in proptest::bool::ANY,
    ) {
        let (graph, levels) = seed_state();
        let trace = adversarial_trace(&graph, &levels, len, seed);
        let store = MemStore::new();
        let (log, mut monitor) = CommitLog::create(
            Box::new(store.clone()),
            graph,
            levels,
            restriction(),
            config(),
        )
        .expect("fresh log");
        drive(&mut monitor, Some(&log), &trace, seed);
        log.persist().expect("clean flush");
        let events = intended(&trace, seed);
        let end = log.end_epoch();

        let kind = if garbage { CorruptionKind::Garbage } else { CorruptionKind::BitFlip };
        let mut rng = Prng::seed_from_u64(seed.rotate_left(17) | 1);
        let mut chain = store.read(CHAIN_FILE).expect("read").expect("chain exists");
        for _ in 0..hits {
            chain = corrupt_bytes(&chain, kind, &mut rng).0;
        }
        let tampered = reboot(&store);
        {
            let mut boxed: Box<dyn Store> = Box::new(tampered.clone());
            boxed.write_atomic(CHAIN_FILE, &chain).expect("tamper");
        }
        let case = format!("seed {seed} len {len} {hits} x {kind:?}");
        assert_sound_recovery(&case, &tampered, &events, end);
    }
}
