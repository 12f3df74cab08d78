//! Property test for the atomic snapshot protocol: kill the snapshot
//! writer at a random byte offset of the temp-file write or at the
//! rename tick, over random traces — recovery must always equal the
//! last committed state. (The exhaustive single-trace sweep lives in
//! `crash_matrix.rs`; this randomizes the history too.) The oracle is
//! the event replay of `common`.

mod common;

use common::{oracle_at, Twin};
use proptest::prelude::*;
use tg_graph::ProtectionGraph;
use tg_hierarchy::structure::linear_hierarchy;
use tg_hierarchy::{CombinedRestriction, LevelAssignment};
use tg_log::{CommitLog, LogConfig, MemStore, Store};
use tg_sim::faults::{adversarial_trace, CrashPlan};

fn restriction() -> Box<CombinedRestriction> {
    Box::new(CombinedRestriction)
}

fn seed_state() -> (ProtectionGraph, LevelAssignment) {
    let built = linear_hierarchy(&["low", "mid", "high"], 3);
    (built.graph, built.assignment)
}

fn config() -> LogConfig {
    LogConfig {
        snapshot_interval: 0, // snapshots fired explicitly below
        write_through: true,
    }
}

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

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    /// For any trace and any crash offset within the snapshot write,
    /// reopening yields exactly the state committed before the
    /// snapshot was attempted.
    #[test]
    fn killed_snapshot_writers_never_corrupt_recovery(
        seed in 0u64..1_000,
        len in 5usize..30,
        offset_pct in 0u64..101,
    ) {
        let (graph, levels) = seed_state();
        let trace = adversarial_trace(&graph, &levels, len, seed);

        // Commit a history cleanly.
        let store = MemStore::new();
        let (log, mut monitor) = CommitLog::create(
            Box::new(store.clone()),
            graph,
            levels,
            restriction(),
            config(),
        )
        .expect("fresh log");
        let mut twin = Twin::new(seed_state());
        for rule in &trace {
            let _ = monitor.try_apply(rule);
            let _ = twin.monitor.try_apply(rule);
        }
        log.persist().expect("clean flush");
        let events = twin.events();
        let end = log.end_epoch();

        // Size the snapshot write on a probe copy: `len` temp bytes
        // plus one rename tick.
        let probe = reboot(&store);
        let snap_total = {
            let (plog, pmon, _) =
                CommitLog::open(Box::new(probe.clone()), restriction(), config(), None)
                    .expect("probe reopen");
            let epoch = plog.snapshot_now(&pmon).expect("probe snapshot");
            probe
                .read(&format!("snap-{epoch:020}.tgs"))
                .expect("read")
                .expect("snapshot written")
                .len() as u64
                + 1
        };
        let budget = snap_total * offset_pct / 100;

        // Kill the snapshot writer mid-protocol on the victim.
        let victim = reboot(&store);
        let (vlog, vmon, _) =
            CommitLog::open(Box::new(victim.clone()), restriction(), config(), None)
                .expect("victim reopen");
        victim.set_plan(CrashPlan::kill_after_bytes(budget));
        let _ = vlog.snapshot_now(&vmon);

        // Reboot: recovery must reach exactly the committed state.
        let (_, recovered, report) =
            CommitLog::open(Box::new(reboot(&victim)), restriction(), config(), None)
                .expect("a crashed snapshot never blocks recovery");
        prop_assert_eq!(report.end_epoch, end, "committed history lost");
        let oracle = oracle_at(seed_state(), &events, end);
        prop_assert_eq!(recovered.graph(), oracle.graph(), "graphs diverge");
        prop_assert_eq!(recovered.levels(), oracle.levels(), "levels diverge");
        prop_assert_eq!(recovered.stats(), oracle.stats(), "stats diverge");
    }
}
