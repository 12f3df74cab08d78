//! The offline workload: no daemon and no log, the analysis a `tgq audit`
//! / `tgq lint` user waits for.
//!
//! Each pass parses the rendered `.tg`/`.pol` text (the set-up sample),
//! then runs the Cor 5.6 audit sequentially and on the pool, builds the
//! incremental index, computes the flow closure and looks up cross-level
//! `can_know` pairs in it, and answers per-pair `can_know` queries on the
//! pool. The pass checks that the two audits agree and are clean, and
//! that the closure agrees with every per-pair answer.

use std::time::Instant;

use tg_flow::FlowClosure;
use tg_graph::{parse_graph, ProtectionGraph, VertexId};
use tg_hierarchy::policy::parse_policy;
use tg_hierarchy::{audit_graph, CombinedRestriction, LevelAssignment};
use tg_inc::SharedIndex;
use tg_par::{par_audit, par_queries, Pool, Query};

use crate::probe;
use crate::report::{Measured, RunResult};
use crate::stats::Samples;
use tg_gen::Scenario;

use crate::workload::{self, OfflineShape, Workload};

/// One pass's sampled vertex pairs.
struct Draw {
    queries: Vec<Query>,
    lookups: Vec<(VertexId, VertexId)>,
}

impl Draw {
    fn new(scenario: &Scenario, shape: &OfflineShape, seed: u64) -> Draw {
        Draw {
            queries: workload::cross_level_pairs(scenario, shape.pairs, seed)
                .into_iter()
                .map(|(x, y)| Query::CanKnow(x, y))
                .collect(),
            lookups: workload::cross_level_pairs(scenario, shape.lookups, !seed),
        }
    }
}

/// One pass's phase timings, milliseconds.
struct Pass {
    parse_ms: f64,
    total_ms: f64,
    audit_ms: f64,
    par_audit_ms: f64,
    index_ms: f64,
    closure_ms: f64,
    lookups_ms: f64,
    queries_ms: f64,
    cpu_s: f64,
    true_answers: usize,
    /// Traced passes: resident set growth while the closure is alive.
    closure_rss_mb: f64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn pass(text: &(String, String), draw: &Draw, pool: Pool, traced: bool) -> Result<Pass, String> {
    let restriction = &CombinedRestriction;
    let started = Instant::now();
    let graph: ProtectionGraph = parse_graph(&text.0).map_err(|e| e.to_string())?;
    let levels: LevelAssignment = parse_policy(&text.1, &graph).map_err(|e| e.to_string())?;
    let parse_ms = ms(started);

    let cpu_before = probe::cpu_seconds();
    let began = Instant::now();
    let t = Instant::now();
    let audit = audit_graph(&graph, &levels, restriction);
    let audit_ms = ms(t);
    let t = Instant::now();
    let par = par_audit(&graph, &levels, restriction, &pool);
    let par_audit_ms = ms(t);
    let t = Instant::now();
    let index = SharedIndex::new(&graph, &levels, restriction);
    let index_ms = ms(t);
    let rss_before = if traced { probe::rss_mb() } else { 0.0 };
    let t = Instant::now();
    let closure = FlowClosure::compute(&graph);
    let closure_ms = ms(t);
    let closure_rss_mb = if traced {
        probe::rss_mb() - rss_before
    } else {
        0.0
    };
    let t = Instant::now();
    let known = draw
        .lookups
        .iter()
        .filter(|&&(x, y)| closure.can_know(std::hint::black_box(x), y))
        .count();
    let lookups_ms = ms(t);
    let t = Instant::now();
    let answers = par_queries(&graph, &draw.queries, &pool);
    let queries_ms = ms(t);
    let total_ms = ms(began);
    let cpu_s = probe::cpu_seconds() - cpu_before;
    std::hint::black_box((known, &index));

    if par != audit {
        return Err("par_audit disagrees with audit_graph".to_string());
    }
    if !audit.is_empty() {
        return Err(format!(
            "the generated lattice audits with {} violation(s)",
            audit.len()
        ));
    }
    for (query, &answer) in draw.queries.iter().zip(&answers) {
        let Query::CanKnow(x, y) = *query else {
            unreachable!("the workload only asks can_know")
        };
        if closure.can_know(x, y) != answer {
            return Err(format!(
                "closure says can_know({}, {}) = {}, per-pair analysis says {answer}",
                graph.vertex(x).name,
                graph.vertex(y).name,
                !answer
            ));
        }
    }
    Ok(Pass {
        parse_ms,
        total_ms,
        audit_ms,
        par_audit_ms,
        index_ms,
        closure_ms,
        lookups_ms,
        queries_ms,
        cpu_s,
        true_answers: answers.iter().filter(|&&a| a).count(),
        closure_rss_mb,
    })
}

/// Runs passes for about `seconds` (see [`workload::repeat_for`]), each
/// on fresh pairs drawn from the seed.
pub fn run(toy: bool, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let shape = OfflineShape::of(toy);
    let scenario = workload::scenario(shape.scale, seed);
    let text = (scenario.graph_text(), scenario.policy_text());
    let pool = Pool::new(probe::host_parallelism());
    let (plain, traced) = workload::repeat_for(seconds, trace, |index, traced| {
        let draw = Draw::new(&scenario, &shape, workload::draw_seed(seed, index));
        let _session = traced.then(|| tg_obs::Session::start(true, false));
        pass(&text, &draw, pool, traced)
    })?;

    let passes = if trace { &traced } else { &plain };
    let notes = vec![
        format!(
            "military scale {} ({} vertices, {} edges); per pass, {} fresh cross-level pairs for per-pair can_know and {} for closure lookups",
            shape.scale,
            scenario.graph.vertex_count(),
            scenario.graph.edge_count(),
            shape.pairs,
            shape.lookups
        ),
        format!(
            "pool width {} (available_parallelism), {} pass(es); p50_ms/tail_ms are pass times, tail p{}",
            pool.jobs(),
            passes.len(),
            shape.tail_q * 100.0
        ),
    ];
    let mut measured = Measured::default();
    if trace {
        let median_ms =
            |ps: &[Pass]| Samples::new(ps.iter().map(|p| p.total_ms).collect()).median();
        let overhead = median_ms(&traced) / median_ms(&plain);
        let rows: Vec<Vec<(&'static str, f64)>> = traced
            .iter()
            .map(|p| {
                let phases = p.audit_ms
                    + p.par_audit_ms
                    + p.index_ms
                    + p.closure_ms
                    + p.lookups_ms
                    + p.queries_ms;
                vec![
                    ("core.audit_ms", p.audit_ms),
                    ("inc.build_ms", p.index_ms),
                    ("par.queries_us_p50", p.queries_ms * 1e3),
                    ("par.queries_us_p99", p.queries_ms * 1e3),
                    ("par.wave_size", shape.pairs as f64),
                    ("par.audit_ms", p.par_audit_ms),
                    ("par.audit_speedup", p.audit_ms / p.par_audit_ms.max(1e-9)),
                    ("analysis.query_ms", p.queries_ms / shape.pairs as f64),
                    (
                        "analysis.true_frac",
                        p.true_answers as f64 / shape.pairs as f64,
                    ),
                    ("flow.closure_ms", p.closure_ms),
                    ("flow.lookup_ns", p.lookups_ms * 1e6 / shape.lookups as f64),
                    ("flow.rss_delta_mb", p.closure_rss_mb),
                    ("graph.parse_ms", p.parse_ms),
                    ("graph.edges_growth", 1.0),
                    ("bench.trace_overhead", overhead),
                    ("bench.unattributed_frac", 1.0 - phases / p.total_ms),
                    ("proc.cpu_us_per_req", p.cpu_s * 1e6),
                    ("proc.peak_rss_mb", probe::peak_rss_mb()),
                ]
            })
            .collect();
        measured.fill_layers(&rows);
    } else {
        let totals = Samples::new(passes.iter().map(|p| p.total_ms).collect());
        measured.one("tail_ms", totals.quantile(shape.tail_q));
        measured.set(
            "throughput",
            Samples::new(passes.iter().map(|p| 1e3 / p.total_ms).collect()),
        );
        measured.set("p50_ms", totals);
        measured.set(
            "setup_s",
            Samples::new(passes.iter().map(|p| p.parse_ms / 1e3).collect()),
        );
    }
    Ok(RunResult {
        workload: Workload::OfflineAudit.name(),
        seed,
        trace,
        attempted: passes.len() as u64,
        failed: 0,
        notes,
        measured,
    })
}
