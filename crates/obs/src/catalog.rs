//! The closed catalog of instrumentation points.
//!
//! Ids are **stable**: they appear in persisted traces (`tgq trace`
//! output, `BENCH_obs.json`) and must never be renumbered — new points
//! are appended with fresh ids, and a point whose instrumented code is
//! gone stays in the catalog as *retired* (never emitted). Each entry
//! documents the paper result it makes observable, mirroring the
//! `RULES` table of `tg-lint`.

/// One kind of timed region. The discriminant is the span's stable id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u32)]
pub enum SpanKind {
    /// One `Monitor::try_apply`: preview, Corollary 5.7 restriction
    /// check, commit.
    MonitorApply = 0,
    /// One `Monitor::try_apply_all` transactional batch.
    MonitorBatch = 1,
    /// The inverse-effect rollback of a failed batch.
    MonitorRollback = 2,
    /// Retired, never emitted: one append to the former `TGJ1` journal.
    /// Event appends are timed as [`SpanKind::LogCommit`].
    JournalWrite = 3,
    /// Retired, never emitted: recovery of the former `TGJ1` journal.
    /// Recovery is timed as [`SpanKind::LogRecover`].
    JournalRecover = 4,
    /// One whole-graph audit (Corollary 5.6 scan, or the maintained-set
    /// read when an incremental index is attached).
    MonitorAudit = 5,
    /// One `Monitor::quarantine` repair cycle.
    MonitorQuarantine = 6,
    /// The one full scan that builds an incremental index.
    IncBuild = 7,
    /// An island rebuild forced by a `t`/`g` removal between subjects
    /// (the union-find split case, Theorem 5.2's island structure).
    IncIslandRebuild = 8,
    /// An incremental batch abort rolling back to saved epochs.
    IncRollback = 9,
    /// One full lint run over a graph (all registered passes).
    LintRun = 10,
    /// The `TG000`–`TG002` edge-invariant pass (Corollary 5.6).
    LintEdgeInvariants = 11,
    /// The `TG003` cross-level-link pass (Theorem 5.2).
    LintCrossLevelLinks = 12,
    /// The `TG004` order-collapse pass (Proposition 4.4).
    LintOrderCollapse = 13,
    /// The `TG005` hierarchy-inversion pass (`secure_derived`).
    LintHierarchyInversion = 14,
    /// The `TG006` theft-exposure pass (`can_steal`).
    LintTheftExposure = 15,
    /// The `TG007` unassigned-vertex pass.
    LintUnassignedVertices = 16,
    /// The `TG008` isolated-vertex pass.
    LintIsolatedVertices = 17,
    /// A lint pass registered outside the default registry.
    LintOtherPass = 18,
    /// One `apply_fixes` fixpoint (lint, strip, re-lint until clean).
    LintFix = 19,
    /// One whole `tgq` subcommand, parse to output.
    CliCommand = 20,
    /// One sharded parallel audit (Corollary 5.6 scan across a pool).
    ParAudit = 21,
    /// One batched parallel query evaluation (Thm 2.3/3.2/4.1).
    ParQueries = 22,
    /// The deterministic merge of per-shard results (canonical sort).
    ParMerge = 23,
    /// One hash-chained commit-log record append.
    LogCommit = 24,
    /// One atomic epoch snapshot write (temp file + fsync + rename).
    LogSnapshot = 25,
    /// Commit-log recovery: chain verify, snapshot load, suffix replay.
    LogRecover = 26,
    /// One compaction: differential proof, chain rewrite, pruning.
    LogCompact = 27,
    /// One whole-graph flow closure (Theorem 5.5 via typed bridges).
    FlowClosure = 28,
    /// The `TG009` conspiracy-reachable downward-flow pass.
    LintConspiracyFlow = 29,
    /// The `TG010` rights-laundering / trojan-exposure pass.
    LintRightsLaundering = 30,
    /// The `TG011` statically-refused trace-step pass (`tgq plan`).
    LintRefusedTraceStep = 31,
    /// One island-sharded parallel flow closure.
    ParClosure = 32,
    /// One accepted daemon connection, preamble check included.
    ServeAccept = 33,
    /// One wire frame read, decoded and routed to the gateway.
    ServeFrame = 34,
    /// One admission batch through `Monitor::try_apply_all` (plus the
    /// sequential verdict-attribution replay when the batch aborts).
    ServeBatch = 35,
    /// One gateway flush cycle: admission batch, snapshot opportunity,
    /// incremental re-audit.
    ServeFlush = 36,
}

impl SpanKind {
    /// Number of span kinds (ids are `0..COUNT`).
    pub const COUNT: usize = 37;

    /// Every kind, in id order.
    pub const ALL: &'static [SpanKind] = &[
        SpanKind::MonitorApply,
        SpanKind::MonitorBatch,
        SpanKind::MonitorRollback,
        SpanKind::JournalWrite,
        SpanKind::JournalRecover,
        SpanKind::MonitorAudit,
        SpanKind::MonitorQuarantine,
        SpanKind::IncBuild,
        SpanKind::IncIslandRebuild,
        SpanKind::IncRollback,
        SpanKind::LintRun,
        SpanKind::LintEdgeInvariants,
        SpanKind::LintCrossLevelLinks,
        SpanKind::LintOrderCollapse,
        SpanKind::LintHierarchyInversion,
        SpanKind::LintTheftExposure,
        SpanKind::LintUnassignedVertices,
        SpanKind::LintIsolatedVertices,
        SpanKind::LintOtherPass,
        SpanKind::LintFix,
        SpanKind::CliCommand,
        SpanKind::ParAudit,
        SpanKind::ParQueries,
        SpanKind::ParMerge,
        SpanKind::LogCommit,
        SpanKind::LogSnapshot,
        SpanKind::LogRecover,
        SpanKind::LogCompact,
        SpanKind::FlowClosure,
        SpanKind::LintConspiracyFlow,
        SpanKind::LintRightsLaundering,
        SpanKind::LintRefusedTraceStep,
        SpanKind::ParClosure,
        SpanKind::ServeAccept,
        SpanKind::ServeFrame,
        SpanKind::ServeBatch,
        SpanKind::ServeFlush,
    ];

    /// The stable id (the `repr` discriminant).
    pub fn id(self) -> u32 {
        self as u32
    }

    /// The dotted name used in rendered traces and tables.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::MonitorApply => "monitor.apply",
            SpanKind::MonitorBatch => "monitor.batch",
            SpanKind::MonitorRollback => "monitor.rollback",
            SpanKind::JournalWrite => "journal.write",
            SpanKind::JournalRecover => "journal.recover",
            SpanKind::MonitorAudit => "monitor.audit",
            SpanKind::MonitorQuarantine => "monitor.quarantine",
            SpanKind::IncBuild => "inc.build",
            SpanKind::IncIslandRebuild => "inc.island_rebuild",
            SpanKind::IncRollback => "inc.rollback",
            SpanKind::LintRun => "lint.run",
            SpanKind::LintEdgeInvariants => "lint.edge_invariants",
            SpanKind::LintCrossLevelLinks => "lint.cross_level_links",
            SpanKind::LintOrderCollapse => "lint.order_collapse",
            SpanKind::LintHierarchyInversion => "lint.hierarchy_inversion",
            SpanKind::LintTheftExposure => "lint.theft_exposure",
            SpanKind::LintUnassignedVertices => "lint.unassigned_vertices",
            SpanKind::LintIsolatedVertices => "lint.isolated_vertices",
            SpanKind::LintOtherPass => "lint.other_pass",
            SpanKind::LintFix => "lint.fix",
            SpanKind::CliCommand => "cli.command",
            SpanKind::ParAudit => "par.audit",
            SpanKind::ParQueries => "par.queries",
            SpanKind::ParMerge => "par.merge",
            SpanKind::LogCommit => "log.commit",
            SpanKind::LogSnapshot => "log.snapshot",
            SpanKind::LogRecover => "log.recover",
            SpanKind::LogCompact => "log.compact",
            SpanKind::FlowClosure => "flow.closure",
            SpanKind::LintConspiracyFlow => "lint.conspiracy_flow",
            SpanKind::LintRightsLaundering => "lint.rights_laundering",
            SpanKind::LintRefusedTraceStep => "lint.refused_trace_step",
            SpanKind::ParClosure => "par.closure",
            SpanKind::ServeAccept => "serve.accept",
            SpanKind::ServeFrame => "serve.frame",
            SpanKind::ServeBatch => "serve.batch",
            SpanKind::ServeFlush => "serve.flush",
        }
    }

    /// The subsystem (the part before the dot) — Chrome's `cat` field.
    pub fn category(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("names are dotted")]
    }

    /// What the span measures, citing the paper result where one
    /// applies.
    pub fn doc(self) -> &'static str {
        match self {
            SpanKind::MonitorApply => "one rule through the monitor (Cor 5.7 check + commit)",
            SpanKind::MonitorBatch => "one transactional rule batch",
            SpanKind::MonitorRollback => "inverse-effect rollback of a failed batch",
            SpanKind::JournalWrite => "retired, never emitted (was the TGJ1 journal append)",
            SpanKind::JournalRecover => "retired, never emitted (was TGJ1 journal recovery)",
            SpanKind::MonitorAudit => "whole-graph audit (Cor 5.6 scan or maintained-set read)",
            SpanKind::MonitorQuarantine => "strip-and-reaudit repair cycle",
            SpanKind::IncBuild => "the one full scan building the incremental index",
            SpanKind::IncIslandRebuild => "island rebuild after a t/g cut (Thm 5.2 structure)",
            SpanKind::IncRollback => "incremental epoch rollback on batch abort",
            SpanKind::LintRun => "one full lint run (all passes)",
            SpanKind::LintEdgeInvariants => "TG000-TG002 edge invariants (Cor 5.6)",
            SpanKind::LintCrossLevelLinks => "TG003 bridge/connection search (Thm 5.2)",
            SpanKind::LintOrderCollapse => "TG004 rw-level collapse (Prop 4.4)",
            SpanKind::LintHierarchyInversion => "TG005 derived-security check (Thm 5.2)",
            SpanKind::LintTheftExposure => "TG006 can_steal sweep",
            SpanKind::LintUnassignedVertices => "TG007 policy coverage",
            SpanKind::LintIsolatedVertices => "TG008 isolated vertices",
            SpanKind::LintOtherPass => "a custom lint pass",
            SpanKind::LintFix => "lint/strip/re-lint fixpoint",
            SpanKind::CliCommand => "one tgq subcommand end to end",
            SpanKind::ParAudit => "island-sharded parallel audit (Cor 5.6 across a pool)",
            SpanKind::ParQueries => "batched parallel Thm 2.3/3.2/4.1 queries",
            SpanKind::ParMerge => "deterministic merge of per-shard results",
            SpanKind::LogCommit => "one hash-chained commit-log append",
            SpanKind::LogSnapshot => "one atomic epoch snapshot write",
            SpanKind::LogRecover => "commit-log chain verify + snapshot + replay",
            SpanKind::LogCompact => "compaction proof, chain rewrite and pruning",
            SpanKind::FlowClosure => "whole-graph flow closure (Thm 5.5 via typed bridges)",
            SpanKind::LintConspiracyFlow => "TG009 conspiracy-reachable downward flows",
            SpanKind::LintRightsLaundering => "TG010 rights-laundering exposure",
            SpanKind::LintRefusedTraceStep => "TG011 static trace vetting (tgq plan)",
            SpanKind::ParClosure => "island-sharded parallel flow closure",
            SpanKind::ServeAccept => "one accepted daemon connection (TGP1 preamble)",
            SpanKind::ServeFrame => "one wire frame read, decode, route",
            SpanKind::ServeBatch => "one admission batch (Cor 5.7 checks en bloc)",
            SpanKind::ServeFlush => "one gateway flush: batch + snapshot + re-audit",
        }
    }

    /// The kind with stable id `id`, if it exists.
    pub fn from_id(id: u32) -> Option<SpanKind> {
        SpanKind::ALL.get(id as usize).copied()
    }
}

/// One monotonic counter. The discriminant is the counter's stable id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u32)]
pub enum Counter {
    /// Rules applied and persisted.
    MonitorPermitted = 0,
    /// Rules denied by the restriction (Corollary 5.7 rejections).
    MonitorDenied = 1,
    /// Rules rejected by their own preconditions.
    MonitorMalformed = 2,
    /// De jure rules refused while the monitor was degraded.
    MonitorRefused = 3,
    /// Violating edges stripped by quarantine.
    MonitorQuarantined = 4,
    /// Returns from degraded mode to clean service.
    MonitorRecoveries = 5,
    /// Retired, never emitted: records appended to the former `TGJ1`
    /// journal. Chain records are counted as [`Counter::LogCommits`].
    JournalRecords = 6,
    /// Per-edge restriction rechecks (Corollary 5.7 applications) in the
    /// incremental index.
    IncEdgeChecks = 7,
    /// Effective island union operations.
    IncIslandUnions = 8,
    /// Island rebuilds forced by a `t`/`g` removal between subjects.
    IncIslandRebuilds = 9,
    /// Memoized `can_share`/`can_know` answers served without
    /// recomputation.
    IncMemoHits = 10,
    /// Queries decided fresh (Theorem 2.3 / 3.2) and then memoized.
    IncMemoMisses = 11,
    /// Incremental batch aborts rolled back via union-find epochs.
    IncRollbacks = 12,
    /// Diagnostics emitted by lint passes.
    LintDiagnostics = 13,
    /// Fix-its that removed something from the graph.
    LintFixesApplied = 14,
    /// Work shards created by parallel evaluation (audit shards plus
    /// query chunks).
    ParShards = 15,
    /// Work-stealing claims beyond a worker's fair static share.
    ParSteals = 16,
    /// Records appended to the hash-chained commit log.
    LogCommits = 17,
    /// Epoch snapshots written atomically.
    LogSnapshots = 18,
    /// Compactions that folded dead history below a snapshot.
    LogCompactions = 19,
    /// Chain records replayed during commit-log recovery or time travel.
    LogReplayed = 20,
    /// Whole-graph flow closures assembled.
    FlowClosures = 21,
    /// Island take-reaches served from a generation-stamped cache.
    FlowIslandsReused = 22,
    /// Trace steps a static `tgq plan` vetting found the monitor would
    /// refuse.
    PlanRefusals = 23,
    /// Daemon sessions opened (accepted connections with a valid
    /// preamble). With [`Counter::ServeSessionsClosed`] this is the
    /// in-flight session gauge: open − closed = live now.
    ServeSessionsOpened = 24,
    /// Daemon sessions closed (EOF, error, or shutdown drain).
    ServeSessionsClosed = 25,
    /// Wire frames the daemon read and routed.
    ServeFrames = 26,
    /// Admission batches the gateway flushed.
    ServeBatches = 27,
    /// Mutations the gateway's monitor refused.
    ServeRefusals = 28,
    /// Shard-lock acquisitions that found the lock held (the contention
    /// gauge of the island-sharded index: Cor 5.6 predicts near-zero
    /// when work stays island-local).
    ParLockWait = 29,
}

impl Counter {
    /// Number of counters (ids are `0..COUNT`).
    pub const COUNT: usize = 30;

    /// Every counter, in id order.
    pub const ALL: &'static [Counter] = &[
        Counter::MonitorPermitted,
        Counter::MonitorDenied,
        Counter::MonitorMalformed,
        Counter::MonitorRefused,
        Counter::MonitorQuarantined,
        Counter::MonitorRecoveries,
        Counter::JournalRecords,
        Counter::IncEdgeChecks,
        Counter::IncIslandUnions,
        Counter::IncIslandRebuilds,
        Counter::IncMemoHits,
        Counter::IncMemoMisses,
        Counter::IncRollbacks,
        Counter::LintDiagnostics,
        Counter::LintFixesApplied,
        Counter::ParShards,
        Counter::ParSteals,
        Counter::LogCommits,
        Counter::LogSnapshots,
        Counter::LogCompactions,
        Counter::LogReplayed,
        Counter::FlowClosures,
        Counter::FlowIslandsReused,
        Counter::PlanRefusals,
        Counter::ServeSessionsOpened,
        Counter::ServeSessionsClosed,
        Counter::ServeFrames,
        Counter::ServeBatches,
        Counter::ServeRefusals,
        Counter::ParLockWait,
    ];

    /// The stable id (the `repr` discriminant).
    pub fn id(self) -> u32 {
        self as u32
    }

    /// The dotted name used in rendered traces and tables.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MonitorPermitted => "monitor.permitted",
            Counter::MonitorDenied => "monitor.denied",
            Counter::MonitorMalformed => "monitor.malformed",
            Counter::MonitorRefused => "monitor.refused",
            Counter::MonitorQuarantined => "monitor.quarantined",
            Counter::MonitorRecoveries => "monitor.recoveries",
            Counter::JournalRecords => "journal.records",
            Counter::IncEdgeChecks => "inc.edge_checks",
            Counter::IncIslandUnions => "inc.island_unions",
            Counter::IncIslandRebuilds => "inc.island_rebuilds",
            Counter::IncMemoHits => "inc.memo_hits",
            Counter::IncMemoMisses => "inc.memo_misses",
            Counter::IncRollbacks => "inc.rollbacks",
            Counter::LintDiagnostics => "lint.diagnostics",
            Counter::LintFixesApplied => "lint.fixes_applied",
            Counter::ParShards => "par.shards",
            Counter::ParSteals => "par.steals",
            Counter::LogCommits => "log.commits",
            Counter::LogSnapshots => "log.snapshots",
            Counter::LogCompactions => "log.compactions",
            Counter::LogReplayed => "log.replayed",
            Counter::FlowClosures => "flow.closures",
            Counter::FlowIslandsReused => "flow.islands_reused",
            Counter::PlanRefusals => "cli.plan_refusals",
            Counter::ServeSessionsOpened => "serve.sessions_opened",
            Counter::ServeSessionsClosed => "serve.sessions_closed",
            Counter::ServeFrames => "serve.frames",
            Counter::ServeBatches => "serve.batches",
            Counter::ServeRefusals => "serve.refusals",
            Counter::ParLockWait => "par.lock_wait",
        }
    }

    /// The subsystem (the part before the dot).
    pub fn category(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("names are dotted")]
    }

    /// What the counter measures, citing the paper result where one
    /// applies.
    pub fn doc(self) -> &'static str {
        match self {
            Counter::MonitorPermitted => "rules applied and persisted",
            Counter::MonitorDenied => "rules denied by the restriction (Cor 5.7)",
            Counter::MonitorMalformed => "rules failing their own preconditions",
            Counter::MonitorRefused => "de jure rules refused while degraded (fail closed)",
            Counter::MonitorQuarantined => "violating edges stripped by quarantine",
            Counter::MonitorRecoveries => "returns from degraded mode to clean service",
            Counter::JournalRecords => "retired, never emitted (was TGJ1 journal records)",
            Counter::IncEdgeChecks => "per-edge restriction rechecks (Cor 5.7 per mutation)",
            Counter::IncIslandUnions => "island union-find merges (paper section 2)",
            Counter::IncIslandRebuilds => "island rebuilds after a t/g cut (Thm 5.2 islands)",
            Counter::IncMemoHits => "memoized Thm 2.3/3.2 answers served",
            Counter::IncMemoMisses => "Thm 2.3/3.2 decisions computed fresh",
            Counter::IncRollbacks => "incremental epoch rollbacks on batch abort",
            Counter::LintDiagnostics => "lint diagnostics emitted",
            Counter::LintFixesApplied => "lint fix-its that removed rights",
            Counter::ParShards => "parallel work shards created",
            Counter::ParSteals => "work-steal claims beyond the fair share",
            Counter::LogCommits => "hash-chained commit-log records appended",
            Counter::LogSnapshots => "epoch snapshots written atomically",
            Counter::LogCompactions => "compactions folding dead history",
            Counter::LogReplayed => "chain records replayed (recovery + time travel)",
            Counter::FlowClosures => "whole-graph flow closures assembled (Thm 5.5)",
            Counter::FlowIslandsReused => "island take-reaches served from cache",
            Counter::PlanRefusals => "trace steps statically refused by tgq plan",
            Counter::ServeSessionsOpened => "daemon sessions opened (in-flight = opened - closed)",
            Counter::ServeSessionsClosed => "daemon sessions closed",
            Counter::ServeFrames => "wire frames read and routed",
            Counter::ServeBatches => "admission batches flushed",
            Counter::ServeRefusals => "daemon mutations refused by the monitor",
            Counter::ParLockWait => "shard-lock acquisitions that had to wait (contention)",
        }
    }

    /// The counter with stable id `id`, if it exists.
    pub fn from_id(id: u32) -> Option<Counter> {
        Counter::ALL.get(id as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        assert_eq!(SpanKind::ALL.len(), SpanKind::COUNT);
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(kind.id() as usize, i, "span ids are their index");
            assert_eq!(SpanKind::from_id(kind.id()), Some(*kind));
        }
        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter.id() as usize, i, "counter ids are their index");
            assert_eq!(Counter::from_id(counter.id()), Some(*counter));
        }
        assert_eq!(SpanKind::from_id(999), None);
        assert_eq!(Counter::from_id(999), None);
    }

    #[test]
    fn names_are_dotted_and_unique() {
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.extend(Counter::ALL.iter().map(|c| c.name()));
        for name in &names {
            assert!(name.contains('.'), "{name} is subsystem-dotted");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names are unique");
        assert_eq!(SpanKind::MonitorApply.category(), "monitor");
        assert_eq!(Counter::IncEdgeChecks.category(), "inc");
    }
}
