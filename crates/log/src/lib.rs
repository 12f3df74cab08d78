//! `tg_log`: a hash-chained commit log for the reference monitor, with
//! epoch snapshots, bounded-time crash recovery, verified compaction and
//! time-travel queries.
//!
//! The monitor hands every decision to an event sink as a
//! [`tg_hierarchy::JournalEvent`], before it mutates anything; this
//! crate is the monitor's one durable record of those events, and makes
//! it *self-authenticating and cheap to recover from*:
//!
//! - **[`chain`]** — the `TGL1` record format, the monitor's only
//!   on-disk format. Every record carries one encoded event and an
//!   FNV-1a chain hash over its predecessor's hash, its sequence number
//!   and its payload, anchored at a genesis digest of the seed state.
//!   Forged, reordered or spliced records fail closed on open; only a
//!   torn tail (a crashed append) is recoverable, by truncation.
//! - **[`snapshot`]** — `TGS1` epoch snapshots: the full protection
//!   state (graph, levels, counters) at a commit boundary, digested and
//!   pinned to the chain hash at that epoch. Written atomically
//!   (temp file + fsync + rename) so a crashed snapshot write never
//!   corrupts an older one.
//! - **[`commitlog`]** — the orchestrator: `reduce(genesis, commits) ->
//!   state` as the verified invariant, recovery bounded by the snapshot
//!   interval, compaction guarded by a differential replay proof, and
//!   `state_at` reconstruction for `tgq at` / `tgq diff`.
//! - **[`store`]** — the storage seam: a real directory-backed store and
//!   an in-memory store that runs a [`tg_sim::faults::CrashPlan`], so
//!   tests can kill the writer at every byte offset.
//! - **[`digest`]** — the hand-rolled FNV-1a digest and hex codec.
//!
//! The design notes in `DESIGN.md` §12 cover the trust model; the short
//! version: the chain is tamper *evidence*, replay re-verification is
//! the authority.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod commitlog;
pub mod digest;
pub mod snapshot;
pub mod store;

pub use chain::{Chain, ChainError, ChainRecord, ChainTear};
pub use commitlog::{
    CommitLog, CompactionReport, LogConfig, LogError, RecoveryReport, TravelInfo, CHAIN_FILE,
};
pub use digest::{chain_hash, fnv1a, hex16, parse_hex16};
pub use snapshot::{seed_digest, Snapshot, SnapshotError};
pub use store::{DirStore, MemStore, Store, StoreError};
