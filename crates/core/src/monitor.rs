//! The reference monitor.
//!
//! A [`Monitor`] owns a protection graph, a level assignment and a
//! [`Restriction`]; every rule application flows through
//! [`Monitor::try_apply`], which previews the rule, consults the
//! restriction (a constant number of level comparisons — Corollary 5.7)
//! and commits only permitted rules. [`Monitor::audit`] re-checks the
//! whole graph in one pass over its `r`/`w` edges (Corollary 5.6).
//!
//! Created vertices inherit their creator's level: the new vertex starts
//! as the creator's private resource, and every subsequent right over it
//! passes through the monitor like any other.
//!
//! Three durability-and-recovery mechanisms harden the monitor against a
//! crashing or hostile host:
//!
//! * **A write-ahead event stream** ([`EventSink`], the
//!   [`journal`](crate::journal) module): every attempted rule is handed
//!   to the attached sink (permitted, denied, malformed or refused)
//!   *before* any mutation. The `tg-log` commit log is the sink that
//!   makes the stream durable, and
//!   [`journal::replay_events`](crate::journal::replay_events) rebuilds
//!   an identical monitor from the seed graph plus the events.
//! * **Transactional batches** ([`Monitor::try_apply_all`]): a rule trace
//!   is applied atomically; if any rule is refused, the already-applied
//!   prefix is rolled back via exact inverse effects
//!   ([`Effect::invert`]), so a partially-applied conspiracy never
//!   persists.
//! * **Fail-closed degradation** ([`Monitor::audit_cycle`],
//!   [`Monitor::quarantine`]): when an audit finds out-of-band graph
//!   tampering, the monitor refuses every de jure rule until the violating
//!   edges are quarantined and a clean audit restores service.

use std::collections::BTreeMap;

use tg_graph::diag::{Diagnostic, Fix, FixIt, LabeledSpan, Severity};
use tg_graph::{ProtectionGraph, Right, Rights, SourceMap, VertexId};
use tg_rules::{Derivation, Effect, Rule, RuleError};

use crate::journal::{JournalEvent, Outcome};
use crate::levels::LevelAssignment;
use crate::restrict::{Decision, DenyReason, Restriction};

/// Why the monitor refused a rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MonitorError {
    /// The rule's own preconditions failed.
    Rule(RuleError),
    /// The restriction denied the rule.
    Denied(DenyReason),
    /// The monitor is in fail-closed degraded mode (an audit found
    /// violations that have not been quarantined yet); all de jure rules
    /// are refused.
    Degraded,
}

impl core::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MonitorError::Rule(e) => write!(f, "{e}"),
            MonitorError::Denied(d) => write!(f, "{d}"),
            MonitorError::Degraded => write!(
                f,
                "monitor is degraded: unquarantined audit violations present"
            ),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<RuleError> for MonitorError {
    fn from(e: RuleError) -> MonitorError {
        MonitorError::Rule(e)
    }
}

/// Why a transactional batch was rolled back (see
/// [`Monitor::try_apply_all`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchError {
    /// Index of the first refused rule within the batch.
    pub index: usize,
    /// The refused rule itself.
    pub rule: Rule,
    /// Why it was refused.
    pub error: MonitorError,
}

impl core::fmt::Display for BatchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "batch rolled back at rule {} ({}): {}",
            self.index, self.rule, self.error
        )
    }
}

impl std::error::Error for BatchError {}

/// Hooks through which an external index observes every state change the
/// monitor commits — the attachment point for the incremental engine
/// (`tg-inc`), which keeps islands, per-level adjacency and a maintained
/// violation set in sync with the graph so audits need no full rescan.
///
/// The monitor calls these *after* mutating its graph and levels, passing
/// both (plus the restriction) so the observer can read the post-state.
/// Batch notifications bracket [`Monitor::try_apply_all`]: on abort the
/// graph has already been rolled back via exact inverse effects, and the
/// observer must roll its own state back too (e.g. with union-find
/// epochs).
///
/// Observers must be `Send`: a `Monitor` (which owns its observer) is
/// shared across threads behind a mutex in concurrent deployments, so the
/// boxed observer travels with it.
pub trait MonitorObserver: Send {
    /// A rule's effect was applied. For a [`Effect::Created`] effect the
    /// new vertex's inherited level is already assigned.
    fn applied(
        &mut self,
        graph: &ProtectionGraph,
        levels: &LevelAssignment,
        restriction: &dyn Restriction,
        effect: &Effect,
    );

    /// A transactional batch opened; subsequent [`MonitorObserver::applied`]
    /// calls belong to it until a commit or abort.
    fn batch_begin(&mut self);

    /// The open batch rolled back: graph and levels are exactly as they
    /// were at [`MonitorObserver::batch_begin`].
    fn batch_abort(
        &mut self,
        graph: &ProtectionGraph,
        levels: &LevelAssignment,
        restriction: &dyn Restriction,
    );

    /// The open batch committed.
    fn batch_commit(&mut self);

    /// [`Monitor::quarantine`] stripped rights from the edge `src → dst`
    /// (the graph already reflects the repair).
    fn repaired(
        &mut self,
        graph: &ProtectionGraph,
        levels: &LevelAssignment,
        restriction: &dyn Restriction,
        src: VertexId,
        dst: VertexId,
    );

    /// The current audit verdict, if the observer maintains one.
    /// Returning `Some` lets [`Monitor::audit`] skip the full Corollary
    /// 5.6 edge scan; the default observer maintains nothing.
    fn audit_cached(&self) -> Option<Vec<Violation>> {
        None
    }
}

/// A sink that receives every event the monitor records, in order,
/// *before* the corresponding graph mutation (write-ahead discipline).
/// This is the monitor's only route to storage: the hash-chained commit
/// log in `tg-log` attaches one, and the monitor stays ignorant of
/// storage, hashing and snapshot policy; the sink owns all of it.
///
/// `Send` for the same reason as [`MonitorObserver`]: a monitor handed to
/// a worker thread carries its sink along.
pub trait EventSink: Send {
    /// Called with each event at the moment it is recorded.
    fn append(&mut self, event: &JournalEvent);
}

/// An `r`/`w` edge violating the restriction's invariant, found by audit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Edge source.
    pub src: VertexId,
    /// Edge destination.
    pub dst: VertexId,
    /// The offending explicit rights.
    pub rights: Rights,
}

/// Counters kept by the monitor.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct MonitorStats {
    /// Rules applied (and still persisted — rolled-back batch prefixes are
    /// not counted).
    pub permitted: usize,
    /// Rules denied by the restriction.
    pub denied: usize,
    /// Rules rejected by their own preconditions.
    pub malformed: usize,
    /// De jure rules refused while the monitor was degraded.
    pub refused: usize,
    /// Violating explicit edges stripped by [`Monitor::quarantine`].
    pub quarantined: usize,
    /// Times the monitor returned from degraded mode to clean service.
    pub recoveries: usize,
}

/// A protection system mediated by a restriction.
///
/// # Examples
///
/// ```
/// use tg_graph::{ProtectionGraph, Rights};
/// use tg_hierarchy::{CombinedRestriction, LevelAssignment, Monitor};
/// use tg_rules::{DeJureRule, Rule};
///
/// let mut g = ProtectionGraph::new();
/// let hi = g.add_subject("hi");
/// let lo = g.add_subject("lo");
/// let q = g.add_object("q");
/// g.add_edge(lo, q, Rights::T).unwrap();
/// g.add_edge(q, hi, Rights::R).unwrap();
///
/// let mut levels = LevelAssignment::linear(&["low", "high"]);
/// levels.assign(hi, 1).unwrap();
/// levels.assign(lo, 0).unwrap();
/// levels.assign(q, 0).unwrap();
///
/// let mut monitor = Monitor::new(g, levels, Box::new(CombinedRestriction));
/// // lo tries to take (r to hi) — read-up, denied.
/// let rule = Rule::DeJure(DeJureRule::Take {
///     actor: lo, via: q, target: hi, rights: Rights::R,
/// });
/// assert!(monitor.try_apply(&rule).is_err());
/// assert_eq!(monitor.stats().denied, 1);
/// ```
pub struct Monitor {
    graph: ProtectionGraph,
    levels: LevelAssignment,
    restriction: Box<dyn Restriction>,
    log: Derivation,
    stats: MonitorStats,
    sink: Option<Box<dyn EventSink>>,
    degraded: bool,
    observer: Option<Box<dyn MonitorObserver>>,
}

impl core::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Monitor")
            .field("graph", &self.graph)
            .field("levels", &self.levels)
            .field("stats", &self.stats)
            .field("degraded", &self.degraded)
            .finish_non_exhaustive()
    }
}

impl Monitor {
    /// Creates a monitor over `graph` with the given classification and
    /// restriction.
    pub fn new(
        graph: ProtectionGraph,
        levels: LevelAssignment,
        restriction: Box<dyn Restriction>,
    ) -> Monitor {
        Monitor {
            graph,
            levels,
            restriction,
            log: Derivation::new(),
            stats: MonitorStats::default(),
            sink: None,
            degraded: false,
            observer: None,
        }
    }

    /// Reconstitutes a monitor from externally persisted state — a
    /// commit-log snapshot: the graph, classification and counters are
    /// adopted as recorded, while the [`Derivation`] log restarts empty
    /// (carrying the full rule-by-rule history in every snapshot would
    /// defeat bounded recovery; the commit log's chain remains the
    /// history of record). The monitor starts undegraded with no sink or
    /// observer attached.
    pub fn restore(
        graph: ProtectionGraph,
        levels: LevelAssignment,
        restriction: Box<dyn Restriction>,
        stats: MonitorStats,
    ) -> Monitor {
        let mut monitor = Monitor::new(graph, levels, restriction);
        monitor.stats = stats;
        monitor
    }

    /// Attaches an observer that is notified of every committed state
    /// change from now on. The observer sees nothing retroactively, so it
    /// should be built from the monitor's current graph and levels (the
    /// incremental engine's `SharedIndex` does exactly that).
    pub fn attach_observer(&mut self, observer: Box<dyn MonitorObserver>) {
        self.observer = Some(observer);
    }

    /// Whether an observer is attached.
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// Adds an explicit edge *out of band* — around the rule interface,
    /// not recorded as an event — while still notifying the attached
    /// observer, so an incremental index stays consistent. This is the
    /// fault-injection port used to model a hostile co-resident component
    /// in tests; the planted edge is exactly what the Corollary 5.6 audit
    /// exists to catch.
    ///
    /// # Errors
    ///
    /// Propagates [`tg_graph::GraphError`] (self-edge, empty rights,
    /// unknown vertex).
    pub fn inject_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        rights: Rights,
    ) -> Result<(), tg_graph::GraphError> {
        let before = self.graph.rights(src, dst).explicit();
        self.graph.add_edge(src, dst, rights)?;
        let added = self.graph.rights(src, dst).explicit().difference(before);
        if let Some(observer) = self.observer.as_mut() {
            observer.applied(
                &self.graph,
                &self.levels,
                self.restriction.as_ref(),
                &Effect::ExplicitAdded {
                    src,
                    dst,
                    rights: added,
                },
            );
        }
        Ok(())
    }

    /// Notifies the observer of an applied effect, if one is attached.
    fn notify_applied(&mut self, effect: &Effect) {
        if let Some(observer) = self.observer.as_mut() {
            observer.applied(&self.graph, &self.levels, self.restriction.as_ref(), effect);
        }
    }

    /// Attaches an event sink that receives every recorded event from now
    /// on — every attempted rule application, with its outcome — before
    /// the corresponding mutation, so a crash at any point leaves a
    /// record from which [`journal::replay_events`](crate::journal::replay_events)
    /// rebuilds the monitor exactly. Attach it *after* any recovery
    /// replay, or the replayed history is logged twice.
    pub fn attach_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Whether the monitor is in fail-closed degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    fn record(&mut self, event: &JournalEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.append(event);
        }
    }

    /// Counts a refusal and returns its event outcome tag.
    fn count_refusal(&mut self, error: &MonitorError) -> Outcome {
        match error {
            MonitorError::Rule(_) => {
                self.stats.malformed += 1;
                tg_obs::add(tg_obs::Counter::MonitorMalformed, 1);
                Outcome::Malformed
            }
            MonitorError::Denied(_) => {
                self.stats.denied += 1;
                tg_obs::add(tg_obs::Counter::MonitorDenied, 1);
                Outcome::Denied
            }
            MonitorError::Degraded => {
                self.stats.refused += 1;
                tg_obs::add(tg_obs::Counter::MonitorRefused, 1);
                Outcome::Refused
            }
        }
    }

    pub(crate) fn stats_mut(&mut self) -> &mut MonitorStats {
        &mut self.stats
    }

    /// The current graph.
    pub fn graph(&self) -> &ProtectionGraph {
        &self.graph
    }

    /// The classification.
    pub fn levels(&self) -> &LevelAssignment {
        &self.levels
    }

    /// The log of applied rules.
    pub fn log(&self) -> &Derivation {
        &self.log
    }

    /// Counters.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Checks a rule without applying it.
    ///
    /// While the monitor is degraded every de jure rule fails closed with
    /// [`MonitorError::Degraded`]; de facto rules (which only *exhibit*
    /// existing flow, §6) are still checked normally.
    pub fn check(&self, rule: &Rule) -> Result<Effect, MonitorError> {
        if self.degraded && matches!(rule, Rule::DeJure(_)) {
            return Err(MonitorError::Degraded);
        }
        let effect = match tg_rules::preview(&self.graph, rule) {
            Ok(e) => e,
            Err(e) => return Err(MonitorError::Rule(e)),
        };
        if let Rule::DeJure(dj) = rule {
            match self
                .restriction
                .permits(&self.graph, &self.levels, dj, &effect)
            {
                Decision::Permit => {}
                Decision::Deny(reason) => return Err(MonitorError::Denied(reason)),
            }
        }
        Ok(effect)
    }

    /// Applies a rule if its preconditions hold and the restriction
    /// permits it. On success the rule is logged; created vertices inherit
    /// the creator's level.
    pub fn try_apply(&mut self, rule: &Rule) -> Result<Effect, MonitorError> {
        let _span = tg_obs::span(tg_obs::SpanKind::MonitorApply);
        if let Err(e) = self.check(rule) {
            let outcome = self.count_refusal(&e);
            self.record(&JournalEvent::Attempt {
                outcome,
                rule: rule.clone(),
            });
            return Err(e);
        }
        // Write-ahead: the decision reaches the sink before the graph
        // mutates, so a crash between the two replays to the same state.
        self.record(&JournalEvent::Attempt {
            outcome: Outcome::Permitted,
            rule: rule.clone(),
        });
        let effect = tg_rules::apply(&mut self.graph, rule)?;
        if let Effect::Created { id, creator, .. } = &effect {
            if let Some(level) = self.levels.level_of(*creator) {
                self.levels
                    .assign(*id, level)
                    .expect("creator level exists");
            }
        }
        self.notify_applied(&effect);
        self.log.push(rule.clone());
        self.stats.permitted += 1;
        tg_obs::add(tg_obs::Counter::MonitorPermitted, 1);
        Ok(effect)
    }

    /// Applies a whole rule trace transactionally: either every rule is
    /// applied (and logged, and counted permitted), or — at the first
    /// refusal — the already-applied prefix is rolled back via exact
    /// inverse effects ([`Effect::invert`]) and only the refused rule is
    /// counted. The event stream records the batch as `B`/`A…`/`C` on
    /// commit or `B`/`A…`/`X` on abort; a crash mid-batch leaves no
    /// commit marker, so recovery discards the partial batch — matching
    /// the rollback.
    ///
    /// # Errors
    ///
    /// Returns a [`BatchError`] naming the first refused rule; the monitor
    /// is left exactly as it was before the call.
    pub fn try_apply_all(&mut self, rules: &[Rule]) -> Result<Vec<Effect>, BatchError> {
        let _span = tg_obs::span(tg_obs::SpanKind::MonitorBatch);
        self.record(&JournalEvent::BatchBegin);
        if let Some(observer) = self.observer.as_mut() {
            observer.batch_begin();
        }
        let mut applied: Vec<Effect> = Vec::with_capacity(rules.len());
        for (index, rule) in rules.iter().enumerate() {
            if let Err(error) = self.check(rule) {
                let _rollback = tg_obs::span(tg_obs::SpanKind::MonitorRollback);
                // Roll back in reverse order: Created effects are only
                // invertible while theirs is still the newest vertex.
                for effect in applied.iter().rev() {
                    effect
                        .invert(&mut self.graph)
                        .expect("inverse of an applied effect");
                    if let Effect::Created { id, .. } = effect {
                        self.levels.unassign(*id);
                    }
                }
                // The graph is back at its batch_begin state; the
                // observer rolls back to its matching epoch.
                if let Some(observer) = self.observer.as_mut() {
                    observer.batch_abort(&self.graph, &self.levels, self.restriction.as_ref());
                }
                let outcome = self.count_refusal(&error);
                self.record(&JournalEvent::BatchAbort {
                    index,
                    outcome,
                    rule: rule.clone(),
                });
                return Err(BatchError {
                    index,
                    rule: rule.clone(),
                    error,
                });
            }
            self.record(&JournalEvent::BatchApply { rule: rule.clone() });
            let effect = tg_rules::apply(&mut self.graph, rule).expect("checked rule applies");
            if let Effect::Created { id, creator, .. } = &effect {
                if let Some(level) = self.levels.level_of(*creator) {
                    self.levels
                        .assign(*id, level)
                        .expect("creator level exists");
                }
            }
            self.notify_applied(&effect);
            applied.push(effect);
        }
        if let Some(observer) = self.observer.as_mut() {
            observer.batch_commit();
        }
        self.record(&JournalEvent::BatchCommit);
        for rule in rules {
            self.log.push(rule.clone());
        }
        self.stats.permitted += rules.len();
        tg_obs::add(tg_obs::Counter::MonitorPermitted, rules.len() as u64);
        Ok(applied)
    }

    /// Audits the whole graph against the restriction's edge invariant.
    ///
    /// Without an observer this is one pass over the explicit edges
    /// (Corollary 5.6: linear in the number of edges — only `r`/`w`
    /// labels can violate). With an attached incremental index the
    /// maintained violation set is returned instead — O(violations), not
    /// O(edges) — and debug builds cross-check it against the full scan.
    pub fn audit(&self) -> Vec<Violation> {
        let _span = tg_obs::span(tg_obs::SpanKind::MonitorAudit);
        if let Some(cached) = self.observer.as_ref().and_then(|o| o.audit_cached()) {
            debug_assert_eq!(
                cached,
                audit_graph(&self.graph, &self.levels, self.restriction.as_ref()),
                "incremental audit diverged from the Corollary 5.6 scan"
            );
            return cached;
        }
        audit_graph(&self.graph, &self.levels, self.restriction.as_ref())
    }

    /// Audits the graph and, if any violation is found (out-of-band
    /// tampering — the monitor itself never commits one), enters
    /// fail-closed degraded mode: every subsequent de jure rule is refused
    /// until [`Monitor::quarantine`] repairs the graph.
    pub fn audit_cycle(&mut self) -> Vec<Violation> {
        let violations = self.audit();
        if !violations.is_empty() {
            self.degraded = true;
        }
        violations
    }

    /// Applies the strip fix-its of every audit diagnostic, then
    /// re-audits. If the graph comes back clean and the monitor was
    /// degraded, normal service resumes (counted in
    /// [`MonitorStats::recoveries`]). Returns the violations that were
    /// quarantined (one per repaired edge).
    ///
    /// Quarantines are repairs of *out-of-band* tampering, so they are not
    /// recorded: the event stream records rule traffic, and replaying it
    /// onto the untampered seed never re-creates the stripped edges.
    pub fn quarantine(&mut self) -> Vec<Violation> {
        let _span = tg_obs::span(tg_obs::SpanKind::MonitorQuarantine);
        let diagnostics =
            audit_diagnostics(&self.graph, &self.levels, self.restriction.as_ref(), None);
        for diag in &diagnostics {
            if let Some(fix) = &diag.fix {
                fix.edit
                    .apply(&mut self.graph)
                    .expect("audited edge exists");
                let (src, dst) = fix.edit.edge();
                if let Some(observer) = self.observer.as_mut() {
                    observer.repaired(
                        &self.graph,
                        &self.levels,
                        self.restriction.as_ref(),
                        src,
                        dst,
                    );
                }
            }
        }
        let violations = violations_of(&diagnostics);
        self.stats.quarantined += violations.len();
        tg_obs::add(tg_obs::Counter::MonitorQuarantined, violations.len() as u64);
        if self.degraded && self.audit().is_empty() {
            self.degraded = false;
            self.stats.recoveries += 1;
            tg_obs::add(tg_obs::Counter::MonitorRecoveries, 1);
        }
        violations
    }

    /// Counterfactual analysis of a denied rule: which *actual* de facto
    /// flows (`can_know_f`) against dominance would permitting it create?
    /// Applies the rule to a scratch copy and diffs the de facto breach
    /// sets — the security-operator's answer to "why was this denied?".
    ///
    /// Returns `Ok(None)` if the rule is actually permitted, the denial
    /// reason plus the newly enabled `can_know` breaches otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the rule's own precondition failures.
    pub fn explain(&self, rule: &Rule) -> Result<Option<Explanation>, RuleError> {
        let reason = match self.check(rule) {
            Ok(_) => return Ok(None),
            Err(MonitorError::Rule(e)) => return Err(e),
            Err(MonitorError::Denied(reason)) => reason,
            // Degraded mode refuses without consulting the restriction;
            // there is no counterfactual to explain.
            Err(MonitorError::Degraded) => return Ok(None),
        };
        let mut scratch = self.graph.clone();
        tg_rules::apply(&mut scratch, rule)?;
        let before = crate::secure::breaches_f(&self.graph, &self.levels);
        let after = crate::secure::breaches_f(&scratch, &self.levels);
        let enabled: Vec<crate::secure::Breach> = after
            .into_iter()
            .filter(|b| !before.iter().any(|p| p.x == b.x && p.y == b.y))
            .collect();
        Ok(Some(Explanation {
            reason,
            enabled_breaches: enabled,
        }))
    }

    /// Consumes the monitor, returning the graph, levels and log.
    pub fn into_parts(self) -> (ProtectionGraph, LevelAssignment, Derivation) {
        (self.graph, self.levels, self.log)
    }
}

/// Why a rule was denied, with the counterfactual consequences of
/// permitting it (see [`Monitor::explain`]).
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The restriction's denial reason.
    pub reason: DenyReason,
    /// `can_know` pairs that would newly violate dominance if the rule
    /// were applied. May be empty: the restriction is conservative about
    /// *edges*, while breaches are about *flows* — a denied edge into an
    /// isolated corner enables nothing yet.
    pub enabled_breaches: Vec<crate::secure::Breach>,
}

/// Stand-alone audit as *lint diagnostics* (Corollary 5.6): one pass over
/// the explicit edges, emitting a [`Diagnostic`] — with a stable code, a
/// message naming the levels, optional source spans via `srcmap`, and a
/// machine-applicable strip fix-it — for every right that violates the
/// restriction's edge invariant.
///
/// Codes: `TG001` for a read that must not be (restriction (a), Theorem
/// 5.5(a)), `TG002` for a write that must not be (restriction (b), Theorem
/// 5.5(b)), `TG000` for violations a custom restriction reports on other
/// rights. The `tg-lint` analyzer re-exports these as its first two passes;
/// [`audit_graph`] and [`Monitor::quarantine`] are thin consumers of the
/// same diagnostics.
pub fn audit_diagnostics(
    graph: &ProtectionGraph,
    levels: &LevelAssignment,
    restriction: &dyn Restriction,
    srcmap: Option<&SourceMap>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for edge in graph.edges() {
        edge_audit_diagnostics(
            graph,
            levels,
            restriction,
            srcmap,
            edge.src,
            edge.dst,
            &mut out,
        );
    }
    // Canonical order (span, then code, then message): the edge scan is
    // order-independent per edge, so sorting here makes the output
    // byte-identical whether the edges were walked sequentially or
    // audited shard-by-shard in parallel (`tg_par::par_audit`).
    out.sort_by(Diagnostic::canonical_cmp);
    out
}

/// The Corollary 5.6 check for *one* explicit edge, appending any
/// [`Diagnostic`]s to `out`. This is the unit of work [`audit_diagnostics`]
/// folds over the whole edge set and `tg_par` distributes across shards —
/// a single shared implementation is what makes the parallel and
/// sequential audits trivially equivalent per edge.
///
/// Does nothing if `src → dst` has no explicit rights.
#[allow(clippy::too_many_arguments)]
pub fn edge_audit_diagnostics(
    graph: &ProtectionGraph,
    levels: &LevelAssignment,
    restriction: &dyn Restriction,
    srcmap: Option<&SourceMap>,
    src: VertexId,
    dst: VertexId,
    out: &mut Vec<Diagnostic>,
) {
    let level_name = |v: VertexId| match levels.level_of(v) {
        Some(l) => format!("level {}", levels.name(l)),
        None => "no assigned level".to_string(),
    };
    {
        let explicit = graph.rights(src, dst).explicit;
        if explicit.is_empty() {
            return;
        }
        let src_name = &graph.vertex(src).name;
        let dst_name = &graph.vertex(dst).name;
        let edge_span = srcmap.and_then(|m| m.edge_span(src, dst));
        let mut flagged = Rights::EMPTY;
        for right in explicit.iter() {
            if !restriction.edge_violates(levels, src, dst, Rights::singleton(right)) {
                continue;
            }
            flagged.insert(right);
            let (code, what) = match right {
                Right::Read => ("TG001", "read-up"),
                Right::Write => ("TG002", "write-down"),
                _ => ("TG000", "restricted"),
            };
            let diag = Diagnostic::new(
                code,
                Severity::Error,
                format!(
                    "{what}: explicit `{right}` edge from `{src_name}` ({}) to `{dst_name}` ({})",
                    level_name(src),
                    level_name(dst),
                ),
                LabeledSpan::new(
                    edge_span,
                    format!("edge `{src_name} -> {dst_name}` carries `{right}`"),
                ),
            )
            .with_secondary(LabeledSpan::new(
                srcmap.and_then(|m| m.vertex_span(src)),
                format!("`{src_name}` declared here ({})", level_name(src)),
            ))
            .with_secondary(LabeledSpan::new(
                srcmap.and_then(|m| m.vertex_span(dst)),
                format!("`{dst_name}` declared here ({})", level_name(dst)),
            ))
            .with_fix(Fix::new(
                FixIt::StripExplicit {
                    src,
                    dst,
                    rights: Rights::singleton(right),
                },
                format!("strip `{right}` from edge {src_name} -> {dst_name}"),
            ));
            out.push(diag);
        }
        // A restriction may reject the combined label without rejecting any
        // single right (none of the shipped ones do); keep the audit
        // complete by flagging the remainder as one whole-label finding.
        if flagged.is_empty() && restriction.edge_violates(levels, src, dst, explicit) {
            out.push(
                Diagnostic::new(
                    "TG000",
                    Severity::Error,
                    format!(
                        "restricted: explicit edge `{src_name} -> {dst_name} : {explicit}` violates the {} invariant",
                        restriction.name()
                    ),
                    LabeledSpan::new(edge_span, format!("edge `{src_name} -> {dst_name}`")),
                )
                .with_fix(Fix::new(
                    FixIt::StripExplicit {
                        src,
                        dst,
                        rights: explicit,
                    },
                    format!("strip `{explicit}` from edge {src_name} -> {dst_name}"),
                )),
            );
        }
    }
}

/// Folds audit diagnostics back into per-edge [`Violation`]s (the compact
/// form the monitor's degraded-mode bookkeeping uses): one violation per
/// edge, carrying the union of the rights its diagnostics would strip.
/// Public so `tg_par`'s sharded audit can produce exactly the same fold.
pub fn violations_of(diagnostics: &[Diagnostic]) -> Vec<Violation> {
    let mut per_edge: BTreeMap<(VertexId, VertexId), Rights> = BTreeMap::new();
    for diag in diagnostics {
        if let Some(Fix {
            edit: FixIt::StripExplicit { src, dst, rights },
            ..
        }) = diag.fix
        {
            *per_edge.entry((src, dst)).or_default() |= rights;
        }
    }
    per_edge
        .into_iter()
        .map(|((src, dst), rights)| Violation { src, dst, rights })
        .collect()
}

/// Stand-alone audit (Corollary 5.6): scans every explicit edge once and
/// reports those violating the restriction's invariant. A thin consumer of
/// [`audit_diagnostics`].
pub fn audit_graph(
    graph: &ProtectionGraph,
    levels: &LevelAssignment,
    restriction: &dyn Restriction,
) -> Vec<Violation> {
    violations_of(&audit_diagnostics(graph, levels, restriction, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restrict::{CombinedRestriction, Unrestricted};
    use tg_graph::{Right, VertexKind};
    use tg_rules::{DeFactoRule, DeJureRule};

    fn setup() -> Monitor {
        let mut g = ProtectionGraph::new();
        let hi = g.add_subject("hi"); // v0
        let lo = g.add_subject("lo"); // v1
        let q = g.add_object("q"); // v2
        g.add_edge(lo, q, Rights::T).unwrap();
        g.add_edge(q, hi, Rights::RW | Rights::E).unwrap();
        g.add_edge(hi, q, Rights::T).unwrap();
        let mut levels = LevelAssignment::linear(&["low", "high"]);
        levels.assign(hi, 1).unwrap();
        levels.assign(lo, 0).unwrap();
        levels.assign(q, 1).unwrap();
        Monitor::new(g, levels, Box::new(CombinedRestriction))
    }

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    #[test]
    fn denies_read_up_but_permits_execute() {
        let mut m = setup();
        let (hi, lo, q) = (v(0), v(1), v(2));
        let _ = hi;
        let read_up = Rule::DeJure(DeJureRule::Take {
            actor: lo,
            via: q,
            target: v(0),
            rights: Rights::R,
        });
        assert!(matches!(
            m.try_apply(&read_up),
            Err(MonitorError::Denied(DenyReason::ReadUp { .. }))
        ));
        // Figure 5.1: the execute right is not constrained.
        let exec = Rule::DeJure(DeJureRule::Take {
            actor: lo,
            via: q,
            target: v(0),
            rights: Rights::E,
        });
        assert!(m.try_apply(&exec).is_ok());
        assert!(m.graph().has_explicit(lo, v(0), Right::Execute));
        assert_eq!(m.stats().permitted, 1);
        assert_eq!(m.stats().denied, 1);
    }

    #[test]
    fn denies_write_down() {
        // hi -t-> m2 -w-> lofile(level 0): hi taking the w right would
        // complete a write-down; the monitor denies it.
        let mut g = ProtectionGraph::new();
        let hi = g.add_subject("hi");
        let mid = g.add_object("mid");
        let lofile = g.add_object("lofile");
        g.add_edge(hi, mid, Rights::T).unwrap();
        g.add_edge(mid, lofile, Rights::W).unwrap();
        let mut levels = LevelAssignment::linear(&["low", "high"]);
        levels.assign(hi, 1).unwrap();
        levels.assign(mid, 1).unwrap();
        levels.assign(lofile, 0).unwrap();
        let mut m = Monitor::new(g, levels, Box::new(CombinedRestriction));
        let rule = Rule::DeJure(DeJureRule::Take {
            actor: hi,
            via: mid,
            target: lofile,
            rights: Rights::W,
        });
        assert!(matches!(
            m.try_apply(&rule),
            Err(MonitorError::Denied(DenyReason::WriteDown { .. }))
        ));
        // A malformed rule counts as malformed, not denied.
        let fake = Rule::DeJure(DeJureRule::Grant {
            actor: hi,
            via: lofile,
            target: lofile,
            rights: Rights::W,
        });
        assert!(matches!(m.try_apply(&fake), Err(MonitorError::Rule(_))));
        assert_eq!(m.stats().malformed, 1);
        assert_eq!(m.stats().denied, 1);
    }

    #[test]
    fn created_vertices_inherit_levels() {
        let mut m = setup();
        let lo = v(1);
        let rule = Rule::DeJure(DeJureRule::Create {
            actor: lo,
            kind: VertexKind::Subject,
            rights: Rights::TG,
            name: "child".to_string(),
        });
        let Effect::Created { id, .. } = m.try_apply(&rule).unwrap() else {
            panic!("expected Created");
        };
        assert_eq!(m.levels().level_of(id), Some(0));
    }

    #[test]
    fn de_facto_rules_are_never_denied() {
        // post(x, shared, z): a well-formed de facto rule is applied even
        // though the resulting implicit edge crosses levels upward from
        // the restriction's point of view — de facto rules only exhibit
        // flow, they are not restricted (§6).
        let mut g = ProtectionGraph::new();
        let x = g.add_subject("x");
        let shared = g.add_object("shared");
        let z = g.add_subject("z");
        g.add_edge(x, shared, Rights::R).unwrap();
        g.add_edge(z, shared, Rights::W).unwrap();
        let mut levels = LevelAssignment::linear(&["low", "high"]);
        levels.assign(x, 1).unwrap();
        levels.assign(shared, 1).unwrap();
        levels.assign(z, 0).unwrap();
        let mut m = Monitor::new(g, levels, Box::new(CombinedRestriction));
        let rule = Rule::DeFacto(DeFactoRule::Post { x, y: shared, z });
        assert!(m.try_apply(&rule).is_ok());
        assert!(m.graph().rights(x, z).implicit().contains(Right::Read));
        // A malformed de facto rule errors as Rule, never as Denied.
        let bad = Rule::DeFacto(DeFactoRule::Spy { x, y: shared, z });
        assert!(matches!(m.try_apply(&bad), Err(MonitorError::Rule(_))));
    }

    #[test]
    fn audit_finds_planted_violations() {
        let mut m = setup();
        let (hi, lo) = (v(0), v(1));
        assert!(m.audit().is_empty());
        // Plant a read-up edge behind the monitor's back.
        m.graph.add_edge(lo, hi, Rights::R).unwrap();
        let violations = m.audit();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].src, lo);
        assert_eq!(violations[0].dst, hi);
        assert_eq!(violations[0].rights, Rights::R);
    }

    #[test]
    fn unrestricted_monitor_audits_nothing() {
        let mut g = ProtectionGraph::new();
        let a = g.add_subject("a");
        let b = g.add_subject("b");
        g.add_edge(a, b, Rights::RW).unwrap();
        let mut levels = LevelAssignment::linear(&["low", "high"]);
        levels.assign(a, 0).unwrap();
        levels.assign(b, 1).unwrap();
        let m = Monitor::new(g, levels, Box::new(Unrestricted));
        assert!(m.audit().is_empty());
    }

    #[test]
    fn monitored_system_stays_secure_while_unmonitored_breaks() {
        // Figure 5.1 end to end. The setup graph is statically insecure:
        // lo -t-> q -r-> hi lets lo take read-up, so the unrestricted
        // analysis flags it...
        use crate::secure::secure_policy;
        let m = setup();
        assert!(secure_policy(m.graph(), m.levels()).is_err());
        // ...and an unrestricted monitor indeed lets the breach happen:
        let (g, levels, _) = m.into_parts();
        let rule = Rule::DeJure(DeJureRule::Take {
            actor: v(1),
            via: v(2),
            target: v(0),
            rights: Rights::R,
        });
        let mut free = Monitor::new(g.clone(), levels.clone(), Box::new(Unrestricted));
        free.try_apply(&rule).unwrap();
        assert_eq!(
            audit_graph(free.graph(), free.levels(), &CombinedRestriction).len(),
            1
        );
        // ...while the combined restriction denies it and the audit stays
        // clean no matter what lo tries.
        let mut guarded = Monitor::new(g, levels, Box::new(CombinedRestriction));
        assert!(guarded.try_apply(&rule).is_err());
        assert!(guarded.audit().is_empty());
    }

    #[test]
    fn explain_reports_enabled_breaches() {
        let m = setup();
        let (hi, lo, q) = (v(0), v(1), v(2));
        let _ = hi;
        let read_up = Rule::DeJure(DeJureRule::Take {
            actor: lo,
            via: q,
            target: v(0),
            rights: Rights::R,
        });
        let explanation = m.explain(&read_up).unwrap().expect("rule is denied");
        assert!(matches!(explanation.reason, DenyReason::ReadUp { .. }));
        // Permitting it would let lo know hi (and q, which lo could then
        // read through hi's rw edge chain? — at minimum the hi breach).
        assert!(explanation
            .enabled_breaches
            .iter()
            .any(|b| b.x == lo && b.y == v(0)));
        // A permitted rule explains to None.
        let exec = Rule::DeJure(DeJureRule::Take {
            actor: lo,
            via: q,
            target: v(0),
            rights: Rights::E,
        });
        assert!(m.explain(&exec).unwrap().is_none());
        // A malformed rule propagates its error.
        let bad = Rule::DeJure(DeJureRule::Take {
            actor: lo,
            via: q,
            target: lo,
            rights: Rights::R,
        });
        assert!(m.explain(&bad).is_err());
    }

    #[test]
    fn batch_commits_atomically() {
        let mut m = setup();
        let lo = v(1);
        let rules = vec![
            Rule::DeJure(DeJureRule::Take {
                actor: lo,
                via: v(2),
                target: v(0),
                rights: Rights::E,
            }),
            Rule::DeJure(DeJureRule::Create {
                actor: lo,
                kind: VertexKind::Object,
                rights: Rights::RW,
                name: "scratch".to_string(),
            }),
        ];
        let effects = m.try_apply_all(&rules).unwrap();
        assert_eq!(effects.len(), 2);
        assert_eq!(m.stats().permitted, 2);
        assert_eq!(m.log().len(), 2);
        assert!(m.graph().has_explicit(lo, v(0), Right::Execute));
    }

    #[test]
    fn failed_batch_rolls_back_completely() {
        let mut m = setup();
        let lo = v(1);
        let before_graph = m.graph().clone();
        let before_levels = m.levels().clone();
        let rules = vec![
            // Applies: execute is unconstrained.
            Rule::DeJure(DeJureRule::Take {
                actor: lo,
                via: v(2),
                target: v(0),
                rights: Rights::E,
            }),
            // Applies: creates a vertex that must be retracted again.
            Rule::DeJure(DeJureRule::Create {
                actor: lo,
                kind: VertexKind::Subject,
                rights: Rights::TG,
                name: "child".to_string(),
            }),
            // Denied: read-up. The whole batch must roll back.
            Rule::DeJure(DeJureRule::Take {
                actor: lo,
                via: v(2),
                target: v(0),
                rights: Rights::R,
            }),
        ];
        let err = m.try_apply_all(&rules).unwrap_err();
        assert_eq!(err.index, 2);
        assert!(matches!(err.error, MonitorError::Denied(_)));
        assert_eq!(m.graph(), &before_graph);
        assert_eq!(m.levels(), &before_levels);
        // Only the failing rule is counted; the rolled-back prefix is not.
        assert_eq!(m.stats().permitted, 0);
        assert_eq!(m.stats().denied, 1);
        assert_eq!(m.log().len(), 0);
    }

    #[test]
    fn degraded_mode_fails_closed_until_quarantine() {
        let mut m = setup();
        let (hi, lo) = (v(0), v(1));
        // Out-of-band tampering: a read-up edge the monitor never saw.
        m.graph.add_edge(lo, hi, Rights::R).unwrap();
        assert_eq!(m.audit_cycle().len(), 1);
        assert!(m.is_degraded());
        // De jure rules — even harmless ones — are refused...
        let exec = Rule::DeJure(DeJureRule::Take {
            actor: lo,
            via: v(2),
            target: hi,
            rights: Rights::E,
        });
        assert_eq!(m.try_apply(&exec), Err(MonitorError::Degraded));
        assert_eq!(m.stats().refused, 1);
        // ...and batches refuse at their first de jure rule.
        let err = m.try_apply_all(std::slice::from_ref(&exec)).unwrap_err();
        assert_eq!(err.error, MonitorError::Degraded);
        // Quarantine strips the violating edge and restores service.
        let quarantined = m.quarantine();
        assert_eq!(quarantined.len(), 1);
        assert!(!m.is_degraded());
        assert_eq!(m.stats().quarantined, 1);
        assert_eq!(m.stats().recoveries, 1);
        assert!(!m.graph().has_explicit(lo, hi, Right::Read));
        assert!(m.try_apply(&exec).is_ok());
    }

    #[test]
    fn de_facto_rules_survive_degradation() {
        // Degradation refuses de jure rules only: de facto rules exhibit
        // flow that already exists, so refusing them hides information
        // from the auditor without protecting anything.
        let mut g = ProtectionGraph::new();
        let x = g.add_subject("x");
        let shared = g.add_object("shared");
        let z = g.add_subject("z");
        g.add_edge(x, shared, Rights::R).unwrap();
        g.add_edge(z, shared, Rights::W).unwrap();
        let mut levels = LevelAssignment::linear(&["low", "high"]);
        levels.assign(x, 0).unwrap();
        levels.assign(shared, 0).unwrap();
        levels.assign(z, 1).unwrap();
        let mut m = Monitor::new(g, levels, Box::new(CombinedRestriction));
        // Tamper to degrade: z (high) writes down to shared? Use a fresh
        // read-up edge instead.
        m.graph.add_edge(x, z, Rights::R).unwrap();
        m.audit_cycle();
        assert!(m.is_degraded());
        let post = Rule::DeFacto(DeFactoRule::Post { x, y: shared, z });
        assert!(m.try_apply(&post).is_ok());
    }

    #[test]
    fn into_parts_returns_the_log() {
        let mut m = setup();
        let lo = v(1);
        m.try_apply(&Rule::DeJure(DeJureRule::Create {
            actor: lo,
            kind: VertexKind::Object,
            rights: Rights::R,
            name: "n".to_string(),
        }))
        .unwrap();
        let (_, _, log) = m.into_parts();
        assert_eq!(log.len(), 1);
    }
}
