//! The repository benchmark's library: workloads, checks, statistics and
//! reports, shared by the `benchmark` binary and its tests.

#![forbid(unsafe_code)]

pub mod json;
pub mod offline;
pub mod probe;
pub mod report;
pub mod serve;
pub mod stats;
pub mod workload;
