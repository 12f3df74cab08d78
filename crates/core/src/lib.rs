//! Hierarchical Take-Grant protection systems — the paper's contribution.
//!
//! This crate turns the analysis machinery into a model of multilevel
//! security:
//!
//! * [`levels`] — rw-levels and rwtg-levels (§4–§5), both *derived* from a
//!   graph (SCCs of mutual information flow) and *assigned* by a policy
//!   ([`LevelAssignment`]), with the `higher` strict partial order.
//! * [`structure`] — builders realizing linear and lattice classification
//!   hierarchies as protection graphs (Figures 4.1 and 4.2), including the
//!   military classification lattice.
//! * [`objects`] — object classification: an object belongs to the lowest
//!   rw-level of a subject holding `r` or `w` over it (§4).
//! * [`secure`] — the security predicate (§5): no vertex may come to know
//!   information above its level, checked both definitionally (via
//!   `can_know`) and structurally (Theorem 5.2: no bridges or connections
//!   between rwtg-levels).
//! * [`restrict`] — the three restriction families of §5 (direction,
//!   application, combined no-read-up/no-write-down) as pluggable policies.
//! * [`monitor`] — the reference monitor enforcing a restriction with the
//!   constant-time per-rule check of Corollary 5.7 and the linear-time
//!   audit of Corollary 5.6.
//! * [`journal`] — the monitor's write-ahead event stream: the events
//!   an [`EventSink`] receives, their payload codec, and the
//!   re-verifying replay that `tg-log`'s commit log recovers through.
//! * [`wu`] — the Wu-model baseline (hierarchy by edge direction only) and
//!   the two-subject conspiracy that breaks it (Figure 2.1).
//! * [`declass`] — the declassification analysis of §6: why raising or
//!   lowering a classification compromises security.
//!
//! # Observability
//!
//! The monitor is instrumented through the `tg_obs` facade: every
//! `try_apply` runs under a `monitor.apply` span (one span per
//! Corollary 5.7 check), every whole-graph audit under `monitor.audit`
//! (Corollary 5.6), with `monitor.permitted`/`denied`/`refused` counters
//! splitting verdicts. Event writes are timed by the sink that stores
//! them (`log.commit` in `tg-log`). Recording is off by default and costs one relaxed atomic
//! load per site; `tgq --stats` or `tg_obs::Session` turns it on.
//!
//! # Examples
//!
//! ```
//! use tg_hierarchy::structure::linear_hierarchy;
//! use tg_hierarchy::secure::secure_policy;
//!
//! // A four-level linear classification (Figure 4.1).
//! let built = linear_hierarchy(&["L1", "L2", "L3", "L4"], 2);
//! assert!(secure_policy(&built.graph, &built.assignment).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod declass;
pub mod journal;
pub mod levels;
pub mod monitor;
pub mod objects;
pub mod policy;
pub mod restrict;
pub mod secure;
pub mod structure;
pub mod wu;

pub use journal::{open_batch_start, replay_events, JournalError, JournalEvent, Outcome};
pub use levels::{rw_levels, rwtg_levels, DerivedLevels, LevelAssignment, LevelError};
pub use monitor::{
    audit_diagnostics, audit_graph, edge_audit_diagnostics, violations_of, BatchError, EventSink,
    Explanation, Monitor, MonitorError, MonitorObserver, MonitorStats, Violation,
};
pub use restrict::{
    ApplicationRestriction, CombinedRestriction, Decision, DenyReason, DirectionRestriction,
    Restriction, Unrestricted,
};
pub use secure::{secure_derived, secure_policy, secure_structural, Breach};
