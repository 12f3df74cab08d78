//! Workload generators, adversaries and the figure scenario library.
//!
//! * [`gen`] — seeded random protection graphs, classified hierarchies
//!   with noise, and random rule traces (the fuzzing side of the test
//!   suite and the input side of the benchmarks).
//! * [`workload`] — deterministic parametric graph families (take-chains,
//!   island chains, bridge chains, hierarchies) whose analysis cost scales
//!   predictably; the benches sweep their size parameters to reproduce
//!   the paper's complexity claims.
//! * [`scenarios`] — every figure of the paper reconstructed as an
//!   executable scenario with its expected facts.
//! * [`prng`] — the deterministic in-tree random-number generator behind
//!   [`gen`] and [`faults`] (no external `rand` dependency).
//! * [`faults`] — fault injection: adversarial traces, log byte
//!   corruption, deterministic crash schedules ([`faults::CrashPlan`])
//!   for write-path kill-point matrices, and out-of-band graph/level
//!   tampering for testing the monitor's crash-safety and fail-closed
//!   guarantees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod gen;
pub mod prng;
pub mod scenarios;
pub mod workload;
