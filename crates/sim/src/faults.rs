//! Fault injection for the reference monitor's crash-safety story.
//!
//! Four fault classes, matching the threats a deployed monitor faces:
//!
//! * **Crashes mid-write** ([`CrashPlan`]) — a writer killed at one
//!   exact byte, leaving a torn tail. Recovery must truncate it and
//!   reach exactly the committed state.
//! * **Log corruption** ([`corrupt_bytes`], [`CorruptionKind`]) — bit
//!   flips and garbage insertion, applied to the raw bytes of a
//!   commit-log chain. Recovery must either reach a committed prefix or
//!   fail closed, never silently accept a tampered history.
//! * **Out-of-band graph tampering** ([`tamper_graph`]) — explicit `r`/`w`
//!   edges written into the protection graph *around* the rule interface,
//!   the attack Bishop's linear audit (Cor 5.6) exists to catch.
//! * **Adversarial traces** ([`adversarial_trace`]) — rule streams biased
//!   toward upward reads and downward writes against a classified
//!   hierarchy, exercising the deny path far more often than
//!   [`gen::random_trace`](crate::gen::random_trace) does.

use crate::prng::Prng;
use tg_graph::{ProtectionGraph, Right, Rights, VertexId};
use tg_hierarchy::LevelAssignment;
use tg_rules::{DeJureRule, Rule};

/// What a fault-instrumented write is allowed to do (see [`CrashPlan`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteFate {
    /// The whole write goes through.
    Full,
    /// Only the first `n` bytes land — the process died mid-write.
    Partial(usize),
    /// Nothing lands: the process is already dead.
    Dead,
}

/// A deterministic crash schedule for write-path fault injection.
///
/// A storage shim routes every write through [`CrashPlan::admit`]; the
/// plan counts bytes (or whole writes) until its budget runs out, then
/// *trips*: the offending write lands partially and every later write is
/// refused outright, modelling a process killed at one exact point. One
/// plan is shared by the commit-, snapshot- and compaction-crash test
/// matrices, so "kill at byte `k`" means the same thing in all three.
///
/// Sweeping `kill_after_bytes(k)` for every `k` up to the total bytes
/// written visits every record boundary and every mid-record byte
/// exactly once — the exhaustive crash-point matrix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CrashPlan {
    limit: CrashLimit,
    tripped: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CrashLimit {
    /// Never crash.
    Never,
    /// Bytes still allowed to land before the crash.
    Bytes(u64),
    /// Whole writes still allowed before one fails with nothing landed.
    Writes(u64),
}

impl CrashPlan {
    /// A plan that never crashes.
    pub fn never() -> CrashPlan {
        CrashPlan {
            limit: CrashLimit::Never,
            tripped: false,
        }
    }

    /// Crash once `budget` more bytes have landed: the write that would
    /// exceed the budget lands only its allowed prefix (possibly zero
    /// bytes), and everything after it is refused.
    pub fn kill_after_bytes(budget: u64) -> CrashPlan {
        CrashPlan {
            limit: CrashLimit::Bytes(budget),
            tripped: false,
        }
    }

    /// Crash at the `nth` write call (0-based): writes before it land in
    /// full, the `nth` lands nothing, and everything after is refused.
    pub fn kill_at_write(nth: u64) -> CrashPlan {
        CrashPlan {
            limit: CrashLimit::Writes(nth),
            tripped: false,
        }
    }

    /// Admits a write of `len` bytes against the schedule, returning how
    /// much of it survives. Once a write is cut short the plan is
    /// *tripped* and every subsequent call returns [`WriteFate::Dead`].
    pub fn admit(&mut self, len: usize) -> WriteFate {
        if self.tripped {
            return WriteFate::Dead;
        }
        match &mut self.limit {
            CrashLimit::Never => WriteFate::Full,
            CrashLimit::Bytes(budget) => {
                if len as u64 <= *budget {
                    *budget -= len as u64;
                    WriteFate::Full
                } else {
                    let keep = *budget as usize;
                    *budget = 0;
                    self.tripped = true;
                    WriteFate::Partial(keep)
                }
            }
            CrashLimit::Writes(remaining) => {
                if *remaining == 0 {
                    self.tripped = true;
                    WriteFate::Partial(0)
                } else {
                    *remaining -= 1;
                    WriteFate::Full
                }
            }
        }
    }

    /// Whether the crash point has been reached.
    pub fn tripped(&self) -> bool {
        self.tripped
    }
}

/// One way of damaging a byte buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Flip a single bit somewhere in the buffer.
    BitFlip,
    /// Overwrite a span with arbitrary bytes.
    Garbage,
}

/// Applies `kind` to a copy of `bytes` at an `rng`-chosen position.
///
/// Returns the damaged buffer and the byte offset where damage begins.
/// Empty input is returned unchanged with offset 0.
pub fn corrupt_bytes(bytes: &[u8], kind: CorruptionKind, rng: &mut Prng) -> (Vec<u8>, usize) {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return (out, 0);
    }
    match kind {
        CorruptionKind::BitFlip => {
            let pos = rng.below(out.len());
            out[pos] ^= 1 << rng.below(8);
            (out, pos)
        }
        CorruptionKind::Garbage => {
            let pos = rng.below(out.len());
            let len = 1 + rng.below((out.len() - pos).min(8));
            for b in &mut out[pos..pos + len] {
                *b = rng.below(256) as u8;
            }
            (out, pos)
        }
    }
}

/// An out-of-band edge written into the graph behind the monitor's back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tamper {
    /// Edge source.
    pub src: VertexId,
    /// Edge destination.
    pub dst: VertexId,
    /// Rights planted on the edge.
    pub rights: Rights,
    /// Whether this edge violates the hierarchy (reads up or writes down
    /// across `higher` levels) and so must be caught by an audit.
    pub violating: bool,
}

/// Plants `count` random explicit `r`/`w` edges directly into `graph`,
/// bypassing the rule interface. Returns what was planted, with each
/// edge classified against `levels` (planting between unassigned
/// vertices is allowed and marked non-violating).
///
/// This models a buggy or hostile co-resident component — exactly the
/// scenario the paper's audit addresses: the security invariant can be
/// broken from outside the eight rules, so the monitor must detect it.
pub fn tamper_graph(
    graph: &mut ProtectionGraph,
    levels: &LevelAssignment,
    count: usize,
    rng: &mut Prng,
) -> Vec<Tamper> {
    let n = graph.vertex_count();
    if n < 2 {
        return Vec::new();
    }
    let mut planted = Vec::with_capacity(count);
    for _ in 0..count {
        let src = VertexId::from_index(rng.below(n));
        let dst = VertexId::from_index(rng.below(n));
        if src == dst {
            continue;
        }
        let right = if rng.gen_bool(0.5) {
            Right::Read
        } else {
            Right::Write
        };
        let rights = Rights::singleton(right);
        let violating = match (levels.level_of(src), levels.level_of(dst)) {
            (Some(ls), Some(ld)) => match right {
                // Read up: information at a strictly higher level becomes
                // readable. Write down: data flows to a strictly lower level.
                Right::Read => levels.higher(ld, ls),
                Right::Write => levels.higher(ls, ld),
                _ => false,
            },
            _ => false,
        };
        if graph.add_edge(src, dst, rights).is_ok() {
            planted.push(Tamper {
                src,
                dst,
                rights,
                violating,
            });
        }
    }
    planted
}

/// Generates a rule trace biased toward hierarchy violations: takes and
/// grants that would move `r` up or `w` down across levels, interleaved
/// with ordinary random rules. Against a correct monitor most of these
/// are denied; a transactional batch containing one must roll back whole.
pub fn adversarial_trace(
    graph: &ProtectionGraph,
    levels: &LevelAssignment,
    len: usize,
    seed: u64,
) -> Vec<Rule> {
    let mut rng = Prng::seed_from_u64(seed);
    let n = graph.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    // Partition assigned vertices by relative height once, so the hostile
    // rules can aim across a real level boundary.
    let assigned: Vec<(VertexId, usize)> = levels.assignments().collect();
    let mut trace = Vec::with_capacity(len);
    for _ in 0..len {
        let hostile = rng.gen_bool(0.7) && assigned.len() >= 2;
        if hostile {
            let &(a, la) = rng.choose(&assigned);
            let &(b, lb) = rng.choose(&assigned);
            if a != b && (levels.higher(la, lb) || levels.higher(lb, la)) {
                // Aim the read at the higher vertex, the write at the lower.
                let (high, low) = if levels.higher(la, lb) {
                    (a, b)
                } else {
                    (b, a)
                };
                let via = VertexId::from_index(rng.below(n));
                let rule = if rng.gen_bool(0.5) {
                    DeJureRule::Take {
                        actor: low,
                        via,
                        target: high,
                        rights: Rights::R,
                    }
                } else {
                    DeJureRule::Grant {
                        actor: high,
                        via,
                        target: low,
                        rights: Rights::W,
                    }
                };
                trace.push(Rule::DeJure(rule));
                continue;
            }
        }
        trace.push(crate::gen::random_rule(graph, &mut rng));
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_hierarchy::structure::linear_hierarchy;

    fn sample_bytes() -> Vec<u8> {
        (0u8..=255).cycle().take(400).collect()
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let bytes = sample_bytes();
        let mut rng = Prng::seed_from_u64(1);
        for _ in 0..50 {
            let (out, pos) = corrupt_bytes(&bytes, CorruptionKind::BitFlip, &mut rng);
            assert_eq!(out.len(), bytes.len());
            let diff: u32 = bytes
                .iter()
                .zip(&out)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(diff, 1);
            assert_ne!(bytes[pos], out[pos]);
        }
    }

    #[test]
    fn garbage_stays_in_bounds() {
        let bytes = sample_bytes();
        let mut rng = Prng::seed_from_u64(3);
        for _ in 0..50 {
            let (out, _) = corrupt_bytes(&bytes, CorruptionKind::Garbage, &mut rng);
            assert_eq!(out.len(), bytes.len());
        }
    }

    #[test]
    fn empty_buffers_survive_all_kinds() {
        let mut rng = Prng::seed_from_u64(4);
        for kind in [CorruptionKind::BitFlip, CorruptionKind::Garbage] {
            let (out, pos) = corrupt_bytes(&[], kind, &mut rng);
            assert!(out.is_empty());
            assert_eq!(pos, 0);
        }
    }

    #[test]
    fn crash_plans_cut_exactly_at_the_byte_budget() {
        // Simulate writes of 10 bytes each against every budget up to 35:
        // bytes landed must equal min(budget, total), and the plan trips
        // exactly when the budget falls short.
        for budget in 0..=35u64 {
            let mut plan = CrashPlan::kill_after_bytes(budget);
            let mut landed = 0u64;
            for _ in 0..3 {
                match plan.admit(10) {
                    WriteFate::Full => landed += 10,
                    WriteFate::Partial(k) => landed += k as u64,
                    WriteFate::Dead => {}
                }
            }
            assert_eq!(landed, budget.min(30), "budget = {budget}");
            assert_eq!(plan.tripped(), budget < 30, "budget = {budget}");
        }
    }

    #[test]
    fn crash_plans_kill_the_nth_write_whole() {
        let mut plan = CrashPlan::kill_at_write(2);
        assert_eq!(plan.admit(5), WriteFate::Full);
        assert_eq!(plan.admit(7), WriteFate::Full);
        assert_eq!(plan.admit(3), WriteFate::Partial(0));
        assert_eq!(plan.admit(1), WriteFate::Dead);
        assert!(plan.tripped());
    }

    #[test]
    fn never_plans_admit_everything() {
        let mut plan = CrashPlan::never();
        for _ in 0..1000 {
            assert_eq!(plan.admit(1 << 20), WriteFate::Full);
        }
        assert!(!plan.tripped());
    }

    #[test]
    fn tampering_plants_classified_edges() {
        let mut built = linear_hierarchy(&["low", "mid", "high"], 3);
        let before = built.graph.explicit_edge_count();
        let mut rng = Prng::seed_from_u64(5);
        let planted = tamper_graph(&mut built.graph, &built.assignment, 40, &mut rng);
        assert!(!planted.is_empty());
        assert!(built.graph.explicit_edge_count() > before);
        // With 40 attempts across 3 levels, some must cross a boundary.
        assert!(planted.iter().any(|t| t.violating));
        for t in &planted {
            assert!(built
                .graph
                .rights(t.src, t.dst)
                .explicit()
                .contains_all(t.rights));
        }
    }

    #[test]
    fn adversarial_traces_are_deterministic_and_hostile() {
        let built = linear_hierarchy(&["low", "high"], 4);
        let a = adversarial_trace(&built.graph, &built.assignment, 100, 9);
        let b = adversarial_trace(&built.graph, &built.assignment, 100, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let hostile = a
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Rule::DeJure(DeJureRule::Take { rights, .. }) if *rights == Rights::R
                ) || matches!(
                    r,
                    Rule::DeJure(DeJureRule::Grant { rights, .. }) if *rights == Rights::W
                )
            })
            .count();
        assert!(hostile > 20, "expected a hostile majority, got {hostile}");
    }
}
