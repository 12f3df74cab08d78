//! Measurements taken from outside the program: the two injection points
//! the daemon accepts from its caller (`tg_log::Store` and
//! `tg_hierarchy::Restriction`), and the process's own `/proc` counters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tg_graph::{ProtectionGraph, Rights, VertexId};
use tg_hierarchy::{CombinedRestriction, Decision, LevelAssignment, Restriction};
use tg_log::{snapshot, Store, StoreError};
use tg_rules::{DeJureRule, Effect};

/// What the commit log asked of its store.
#[derive(Default, Debug)]
pub struct StoreTally {
    /// Nanoseconds per `append` (each one a write plus `fdatasync` on a
    /// directory store).
    pub append_ns: Vec<u64>,
    pub append_bytes: u64,
    /// Bytes of `write_atomic` (snapshots, timed by the `log.snapshot`
    /// span).
    pub atomic_bytes: u64,
}

/// The commit log's store: in memory, so the host's disk is not
/// measured, and keeping only what recovery reads (the chain and the
/// newest snapshot, as if older ones were pruned), so the resident set
/// stays the daemon's own. Appends are kept as chunks, as a file would
/// take them, rather than regrown in place. Clones share the files; with
/// a tally, every write is counted and every append timed.
#[derive(Clone, Default)]
pub struct BenchStore {
    files: Arc<Mutex<BTreeMap<String, Vec<Vec<u8>>>>>,
    tally: Option<Arc<Mutex<StoreTally>>>,
}

impl BenchStore {
    pub fn timed(tally: Arc<Mutex<StoreTally>>) -> BenchStore {
        BenchStore {
            files: Arc::default(),
            tally: Some(tally),
        }
    }

    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<Vec<u8>>>> {
        self.files.lock().expect("store files lock")
    }

    fn tally(&self) -> Option<std::sync::MutexGuard<'_, StoreTally>> {
        self.tally
            .as_ref()
            .map(|t| t.lock().expect("store tally lock"))
    }
}

impl Store for BenchStore {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.files().get(name).map(|chunks| chunks.concat()))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let started = Instant::now();
        self.files()
            .entry(name.to_string())
            .or_default()
            .push(bytes.to_vec());
        if let Some(mut tally) = self.tally() {
            tally.append_ns.push(started.elapsed().as_nanos() as u64);
            tally.append_bytes += bytes.len() as u64;
        }
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let mut files = self.files();
        if snapshot::parse_file_name(name).is_some() {
            files.retain(|file, _| snapshot::parse_file_name(file).is_none());
        }
        files.insert(name.to_string(), vec![bytes.to_vec()]);
        drop(files);
        if let Some(mut tally) = self.tally() {
            tally.atomic_bytes += bytes.len() as u64;
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.files().remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        Ok(self.files().keys().cloned().collect())
    }
}

/// Calls into the restriction, counted by a [`TimedRestriction`].
#[derive(Default, Debug)]
pub struct RestrictionTally {
    /// `permits` calls: one Cor 5.7 check per de jure rule.
    pub permits: AtomicU64,
    pub permits_ns: AtomicU64,
    /// `edge_violates` calls: the per-edge predicate of the audit and of
    /// the incremental index's rechecks.
    pub edge_checks: AtomicU64,
}

/// [`CombinedRestriction`], timed and counted.
pub struct TimedRestriction {
    pub tally: Arc<RestrictionTally>,
}

impl Restriction for TimedRestriction {
    fn name(&self) -> &'static str {
        CombinedRestriction.name()
    }

    fn permits(
        &self,
        graph: &ProtectionGraph,
        levels: &LevelAssignment,
        rule: &DeJureRule,
        effect: &Effect,
    ) -> Decision {
        let started = Instant::now();
        let decision = CombinedRestriction.permits(graph, levels, rule, effect);
        let ns = started.elapsed().as_nanos() as u64;
        self.tally.permits.fetch_add(1, Ordering::Relaxed);
        self.tally.permits_ns.fetch_add(ns, Ordering::Relaxed);
        decision
    }

    fn edge_violates(
        &self,
        levels: &LevelAssignment,
        src: VertexId,
        dst: VertexId,
        rights: Rights,
    ) -> bool {
        self.tally.edge_checks.fetch_add(1, Ordering::Relaxed);
        CombinedRestriction.edge_violates(levels, src, dst, rights)
    }
}

fn proc_field(file: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// The process's current resident set (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmRSS:").unwrap_or(0.0) / 1024.0
}

/// User plus system CPU time of every thread of the process, seconds, at
/// the kernel's 100 Hz reporting resolution.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// `std::thread::available_parallelism`, the pool width every run uses.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
