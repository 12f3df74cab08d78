//! The four workloads and the inputs each one generates from its seed.
//!
//! Every workload runs on the `tg-gen` military compartment lattice (the
//! Figure 4.2 shape). Its graph depends only on the scale; the seed picks
//! the request stream or the sampled vertex pairs. The program under test
//! receives only the rendered `.tg`/`.pol` text and the request frames.

use std::time::{Duration, Instant};

use tg_gen::{generate, Family, GenConfig, Scenario};
use tg_graph::VertexId;
use tg_serve::{parse_script, ScriptLine};
use tg_sim::prng::Prng;
use tg_sim::workload::{corpus_trace, render_script, MixedOp};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Mutations and audits only: the Cor 5.7 check, admission batching
    /// and the commit log do the work.
    ServeWrite,
    /// Cross-level `can_know` queries on a 40k-edge graph: the per-pair
    /// Thm 3.2 evaluation on the pool does the work.
    ServeRead,
    /// The unfiltered corpus mix, where every query flushes the pending
    /// admission batch.
    ServeMixed,
    /// No daemon and no log: parse, audit, index build, flow closure and
    /// per-pair analysis on a 40k-edge graph.
    OfflineAudit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeWrite,
        Workload::ServeRead,
        Workload::ServeMixed,
        Workload::OfflineAudit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWrite => "serve_write",
            Workload::ServeRead => "serve_read",
            Workload::ServeMixed => "serve_mixed",
            Workload::OfflineAudit => "offline_audit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The size of one daemon workload. Both phases send a prefix of one
/// request stream.
#[derive(Clone, Copy, Debug)]
pub struct ServeShape {
    /// `tg-gen` scale of the military lattice.
    pub scale: usize,
    /// Requests the open-loop phase sends.
    pub open_requests: usize,
    /// Open-loop send rate, requests per second.
    pub rate: f64,
    /// Requests the closed-loop phase sends.
    pub closed_requests: usize,
    /// The reported open-loop tail percentile.
    pub tail_q: f64,
}

/// Requests the closed-loop phase keeps in flight.
pub const IN_FLIGHT: usize = 32;

impl ServeShape {
    pub fn of(workload: Workload, toy: bool) -> ServeShape {
        if toy {
            return ServeShape {
                scale: 96,
                open_requests: 200,
                rate: 2_000.0,
                closed_requests: 200,
                tail_q: 0.99,
            };
        }
        match workload {
            // At 2,500/s about a fifth of requests queue behind a
            // snapshot write, which keeps the median off that cliff.
            Workload::ServeWrite | Workload::ServeMixed => ServeShape {
                scale: 2_000,
                open_requests: 5_000,
                rate: 2_500.0,
                closed_requests: 10_000,
                tail_q: 0.99,
            },
            // One can_know takes about 2 ms, so 100/s keeps the gateway
            // a fifth busy.
            Workload::ServeRead => ServeShape {
                scale: 20_000,
                open_requests: 400,
                rate: 100.0,
                closed_requests: 600,
                tail_q: 0.9,
            },
            Workload::OfflineAudit => unreachable!("offline_audit has no daemon"),
        }
    }
}

/// The size of the offline workload.
#[derive(Clone, Copy, Debug)]
pub struct OfflineShape {
    pub scale: usize,
    /// Cross-level pairs answered per pass by per-pair `can_know`.
    pub pairs: usize,
    /// Cross-level `can_know` lookups per pass in the closure.
    pub lookups: usize,
    /// The reported tail percentile of pass times. A run has tens of
    /// passes, fewer than the ten-beyond rule needs for any tail.
    pub tail_q: f64,
}

impl OfflineShape {
    pub fn of(toy: bool) -> OfflineShape {
        OfflineShape {
            scale: if toy { 500 } else { 20_000 },
            pairs: 256,
            lookups: 1_024,
            tail_q: 0.9,
        }
    }
}

/// Calls `once(index, traced)` for index 0, 1, … until another call as
/// long as the last would overrun `seconds`, and returns the untraced and
/// the traced results. Without `trace` every call is untraced. With it,
/// calls alternate untraced and traced, so the two sets see the same host
/// and their ratio is the tracing overhead, and at least one is traced.
pub fn repeat_for<T>(
    seconds: f64,
    trace: bool,
    mut once: impl FnMut(usize, bool) -> Result<T, String>,
) -> Result<(Vec<T>, Vec<T>), String> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for index in 0.. {
        let began = Instant::now();
        if trace && index % 2 == 1 {
            traced.push(once(index, true)?);
        } else {
            plain.push(once(index, false)?);
        }
        let done = !trace || !traced.is_empty();
        if done && started.elapsed() + began.elapsed() > budget {
            break;
        }
    }
    Ok((plain, traced))
}

/// The seed of the `index`th draw of a run's random inputs (a request
/// stream, a set of vertex pairs); draw 0 uses the run's seed itself.
pub fn draw_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The scenario every workload of this scale runs on.
pub fn scenario(scale: usize, seed: u64) -> Scenario {
    generate(&GenConfig::new(Family::Military, scale, seed))
}

/// The request stream of a daemon workload: the corpus trace filtered to
/// the workload's mix, `n` requests long, as parsed `tgq client` lines.
pub fn serve_requests(
    workload: Workload,
    scenario: &Scenario,
    n: usize,
    seed: u64,
) -> Result<Vec<ScriptLine>, String> {
    let mut ops: Vec<MixedOp> = Vec::new();
    let mut generated = n;
    while ops.len() < n {
        // The filters keep a fixed share of the trace, so a few doublings
        // always suffice; the trace is a pure function of its length and
        // seed, so the stream stays deterministic.
        generated *= 2;
        let trace = corpus_trace(&scenario.graph, &scenario.levels, generated, seed);
        ops = keep(workload, trace);
    }
    ops.truncate(n);
    parse_script(&render_script(&scenario.graph, &ops))
}

/// Applies a workload's filter to a corpus trace (50% apply, 20% audit,
/// 30% queries).
fn keep(workload: Workload, trace: Vec<MixedOp>) -> Vec<MixedOp> {
    let (mut applies, mut audits) = (0usize, 0usize);
    trace
        .into_iter()
        .filter(|op| match (workload, op) {
            (Workload::ServeMixed, _) => true,
            // Every second audit dropped: five applies per audit.
            (Workload::ServeWrite, MixedOp::Apply(_)) => true,
            (Workload::ServeWrite, MixedOp::Audit) => {
                audits += 1;
                audits % 2 == 1
            }
            (Workload::ServeWrite, _) => false,
            // Every fiftieth apply and every can_know kept: about 9%
            // apply. Cross-level can_share and same-island answers cost
            // a twentieth of a can_know, and mixing them in would put the
            // median on the edge between the two.
            (Workload::ServeRead, MixedOp::Apply(_)) => {
                applies += 1;
                applies % 50 == 0
            }
            (Workload::ServeRead, op) => matches!(op, MixedOp::CanKnow(..)),
            (Workload::OfflineAudit, _) => unreachable!("offline_audit has no requests"),
        })
        .collect()
}

/// `n` vertex pairs drawn from two different levels of the scenario.
pub fn cross_level_pairs(scenario: &Scenario, n: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut by_level: Vec<Vec<VertexId>> = vec![Vec::new(); scenario.levels.len()];
    for (v, level) in scenario.levels.assignments() {
        by_level[level].push(v);
    }
    by_level.retain(|vs| !vs.is_empty());
    assert!(by_level.len() >= 2, "the military lattice has many levels");
    let mut rng = Prng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let la = rng.gen_range(0..by_level.len());
            let mut lb = rng.gen_range(0..by_level.len() - 1);
            if lb >= la {
                lb += 1;
            }
            (*rng.choose(&by_level[la]), *rng.choose(&by_level[lb]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_serve::Opcode;

    fn mix(lines: &[ScriptLine]) -> (usize, usize, usize) {
        let applies = lines.iter().filter(|l| l.opcode == Opcode::Apply).count();
        let audits = lines.iter().filter(|l| l.opcode == Opcode::Audit).count();
        (applies, audits, lines.len() - applies - audits)
    }

    #[test]
    fn streams_have_their_workload_mix() {
        let s = scenario(96, 3);
        let write = serve_requests(Workload::ServeWrite, &s, 600, 3).unwrap();
        let read = serve_requests(Workload::ServeRead, &s, 600, 3).unwrap();
        let mixed = serve_requests(Workload::ServeMixed, &s, 600, 3).unwrap();
        for lines in [&write, &read, &mixed] {
            assert_eq!(lines.len(), 600);
        }
        let (a, au, q) = mix(&write);
        assert_eq!(q, 0);
        assert!((4..=6).contains(&(a / au)), "{a} applies per {au} audits");
        let (a, au, q) = mix(&read);
        assert_eq!(au, 0);
        assert!(a * 100 / 600 <= 12 && a > 0, "{a} applies in {q} queries");
        assert!(read
            .iter()
            .all(|l| matches!(l.opcode, Opcode::Apply | Opcode::CanKnow)));
        let (a, au, q) = mix(&mixed);
        assert!(a > au && au > 0 && q > 0);
        assert_eq!(
            write,
            serve_requests(Workload::ServeWrite, &s, 600, 3).unwrap()
        );
        assert_ne!(
            write,
            serve_requests(Workload::ServeWrite, &s, 600, 4).unwrap()
        );
    }

    #[test]
    fn pairs_cross_levels() {
        let s = scenario(96, 1);
        let pairs = cross_level_pairs(&s, 50, 9);
        assert_eq!(pairs.len(), 50);
        for (x, y) in pairs {
            assert_ne!(s.levels.level_of(x), s.levels.level_of(y));
        }
    }
}
