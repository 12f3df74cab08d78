//! Codec round trips for rules and derivations — the on-disk form the
//! monitor's commit log records and replays.

use tg_graph::{ProtectionGraph, Rights, VertexId, VertexKind};
use tg_rules::codec::{decode_derivation, decode_rule, encode_derivation, encode_rule};
use tg_rules::{DeFactoRule, DeJureRule, Derivation, Rule};

fn sample_rules() -> Vec<Rule> {
    let v = VertexId::from_index;
    vec![
        Rule::DeJure(DeJureRule::Take {
            actor: v(0),
            via: v(1),
            target: v(2),
            rights: Rights::R | Rights::T,
        }),
        Rule::DeJure(DeJureRule::Grant {
            actor: v(0),
            via: v(2),
            target: v(1),
            rights: Rights::E,
        }),
        Rule::DeJure(DeJureRule::Create {
            actor: v(0),
            kind: VertexKind::Object,
            rights: Rights::TG,
            name: "buffer".to_string(),
        }),
        Rule::DeJure(DeJureRule::Remove {
            actor: v(0),
            target: v(1),
            rights: Rights::RW,
        }),
        Rule::DeFacto(DeFactoRule::Post {
            x: v(0),
            y: v(1),
            z: v(2),
        }),
        Rule::DeFacto(DeFactoRule::Pass {
            x: v(1),
            y: v(0),
            z: v(2),
        }),
        Rule::DeFacto(DeFactoRule::Spy {
            x: v(0),
            y: v(2),
            z: v(1),
        }),
        Rule::DeFacto(DeFactoRule::Find {
            x: v(2),
            y: v(0),
            z: v(1),
        }),
    ]
}

#[test]
fn every_rule_round_trips_through_the_codec() {
    for rule in sample_rules() {
        let line = encode_rule(&rule);
        let back = decode_rule(&line).unwrap();
        assert_eq!(rule, back, "{line}");
    }
}

#[test]
fn derivations_round_trip_and_still_replay() {
    // A real derivation from a session, encoded, decoded, replayed.
    let mut g = ProtectionGraph::new();
    let s = g.add_subject("s");
    let q = g.add_object("q");
    let o = g.add_object("o");
    g.add_edge(s, q, Rights::T).unwrap();
    g.add_edge(q, o, Rights::R).unwrap();

    let mut d = Derivation::new();
    d.push(DeJureRule::Take {
        actor: s,
        via: q,
        target: o,
        rights: Rights::R,
    });
    d.push(DeJureRule::Create {
        actor: s,
        kind: VertexKind::Object,
        rights: Rights::RW,
        name: "copy".to_string(),
    });

    let text = encode_derivation(&d);
    let back = decode_derivation(&text).unwrap();
    assert_eq!(d, back);
    let from_original = d.replayed(&g).unwrap();
    let from_wire = back.replayed(&g).unwrap();
    assert_eq!(from_original, from_wire);
    assert!(from_wire.has_explicit(s, o, tg_graph::Right::Read));
}

#[test]
fn malformed_lines_are_rejected() {
    assert!(decode_rule("take").is_err());
    assert!(decode_rule("take 0 1 2 x1 extra").is_err());
    assert!(decode_rule("borrow 0 1 2").is_err());
    assert!(decode_rule("post 0 one 2").is_err());
    assert!(decode_derivation("take 0 1 2 x1\ngarbage line\n").is_err());
}

#[test]
fn custom_rights_beyond_the_named_five_round_trip() {
    let rule = Rule::DeJure(DeJureRule::Take {
        actor: VertexId::from_index(0),
        via: VertexId::from_index(1),
        target: VertexId::from_index(2),
        rights: Rights::from_bits(0b1010_0000_0010_0001),
    });
    assert_eq!(decode_rule(&encode_rule(&rule)).unwrap(), rule);
}
