//! Interchange-format round trips through the public facade: the text
//! format, DOT, and the rule codec behind the monitor's commit log.

use proptest::prelude::*;
use take_grant::graph::{parse_graph, render_graph, DotOptions, ProtectionGraph, Rights, VertexId};
use take_grant::sim::gen::GraphGen;

#[test]
fn figures_round_trip_through_the_text_format() {
    for graph in [
        take_grant::sim::scenarios::fig_2_2().graph,
        take_grant::sim::scenarios::fig_5_1().graph,
        take_grant::sim::scenarios::fig_6_1().graph,
        take_grant::sim::scenarios::fig_4_1().graph,
    ] {
        let text = render_graph(&graph);
        let back = parse_graph(&text).expect("rendered graphs parse");
        assert_eq!(graph, back);
    }
}

#[test]
fn generated_graphs_round_trip() {
    for seed in 0..10 {
        let graph = GraphGen {
            vertices: 24,
            seed,
            ..GraphGen::default()
        }
        .build();
        let back = parse_graph(&render_graph(&graph)).unwrap();
        assert_eq!(graph, back);
    }
}

#[test]
fn dot_output_mentions_every_vertex_and_edge() {
    let graph = take_grant::sim::scenarios::fig_2_2().graph;
    let dot = DotOptions::default().render(&graph);
    for (id, _) in graph.vertices() {
        assert!(dot.contains(&format!("{id} [")), "vertex {id} missing");
    }
    for edge in graph.edges() {
        assert!(
            dot.contains(&format!("{} -> {}", edge.src, edge.dst)),
            "edge {} -> {} missing",
            edge.src,
            edge.dst
        );
    }
}

#[test]
fn text_round_trips_preserve_analysis_results() {
    let graph = take_grant::sim::scenarios::fig_6_1().graph;
    let back = parse_graph(&render_graph(&graph)).unwrap();
    assert_eq!(graph, back);
    let x = back.find_by_name("x").unwrap();
    let y = back.find_by_name("y").unwrap();
    assert!(take_grant::analysis::can_know(&back, x, y));
}

proptest! {
    /// Arbitrary explicit/implicit-mixed graphs survive text round trips.
    #[test]
    fn text_format_round_trip(
        kinds in prop::collection::vec(prop::bool::ANY, 1..8),
        edges in prop::collection::vec((0usize..8, 0usize..8, 1u16..32, prop::bool::ANY), 0..16),
    ) {
        let mut g = ProtectionGraph::new();
        for (i, subject) in kinds.iter().enumerate() {
            if *subject {
                g.add_subject(format!("s{i}"));
            } else {
                g.add_object(format!("o{i}"));
            }
        }
        for &(a, b, bits, implicit) in &edges {
            let src = VertexId::from_index(a % kinds.len());
            let dst = VertexId::from_index(b % kinds.len());
            if src == dst { continue; }
            let rights = Rights::from_bits(bits & 0b11111);
            if rights.is_empty() { continue; }
            if implicit {
                g.add_implicit_edge(src, dst, rights).unwrap();
            } else {
                g.add_edge(src, dst, rights).unwrap();
            }
        }
        let back = parse_graph(&render_graph(&g)).expect("render output parses");
        prop_assert_eq!(g, back);
    }
}
