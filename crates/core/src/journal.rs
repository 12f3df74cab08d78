//! The monitor's event stream: one [`JournalEvent`] per attempted rule,
//! its payload codec, and re-verifying replay.
//!
//! Every rule the monitor is *asked* to apply — permitted, denied,
//! malformed, or refused — becomes an event handed to the attached
//! [`EventSink`](crate::EventSink) **before** the corresponding graph
//! mutation (write-ahead discipline). The event stream is in memory
//! only; its durable container is the hash-chained `TGL1` commit log in
//! `tg-log`, which stores one encoded payload per chain record and
//! recovers by folding the chain through [`replay_events`]. Together
//! with the seed graph, the events are a complete record of the
//! monitor's history: replay reproduces the live monitor's graph, level
//! assignment, rule log and statistics exactly.
//!
//! # Payloads
//!
//! ```text
//! R <outcome> <rule>      single attempt; outcome ∈ permitted|denied|malformed|refused
//! B                       begin a transactional batch
//! A <rule>                rule applied inside the open batch
//! C                       batch committed
//! X <idx> <outcome> <rule> batch aborted at rule idx; prefix rolled back
//! ```
//!
//! Rules use the canonical text codec from
//! [`tg_rules::codec`].
//!
//! # Replay semantics
//!
//! * **Open batch at end of history** — a crash mid-batch. The batch
//!   never committed (no `C`), so its events are discarded before replay
//!   ([`open_batch_start`]), matching the live monitor's
//!   rollback-on-abort semantics.
//! * **Impossible order** — a well-formed event in a position no monitor
//!   produces (`A` outside a batch, `R` inside one, a stray `C`). Replay
//!   fails closed with [`JournalError::UnexpectedEvent`].
//! * **Divergent replay** — a `permitted`/`A` event whose rule the
//!   restriction no longer permits (wrong seed graph, forged record), or
//!   a refusal that replays differently. Replay fails closed with
//!   [`JournalError::Diverged`] rather than admit an unauthorized effect.
//!
//! Quarantine repairs ([`Monitor::quarantine`]) are *not* recorded: the
//! stream records rule traffic, and out-of-band tampering — the only
//! thing quarantine removes — never entered the graph through a rule, so
//! replaying onto the untampered seed never re-creates it.

use core::fmt;

use tg_rules::codec::{decode_rule, encode_rule, CodecError};
use tg_rules::Rule;

use crate::monitor::{Monitor, MonitorError};

/// Outcome tag recorded for an attempted rule application.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The rule was applied.
    Permitted,
    /// The restriction denied it.
    Denied,
    /// Its own preconditions failed.
    Malformed,
    /// The monitor was degraded and refused it.
    Refused,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Permitted => "permitted",
            Outcome::Denied => "denied",
            Outcome::Malformed => "malformed",
            Outcome::Refused => "refused",
        }
    }

    fn parse(word: &str) -> Option<Outcome> {
        Some(match word {
            "permitted" => Outcome::Permitted,
            "denied" => Outcome::Denied,
            "malformed" => Outcome::Malformed,
            "refused" => Outcome::Refused,
            _ => return None,
        })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One event of the monitor's write-ahead stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JournalEvent {
    /// A single (non-batch) attempt and its outcome.
    Attempt {
        /// How the monitor ruled.
        outcome: Outcome,
        /// The attempted rule.
        rule: Rule,
    },
    /// A transactional batch begins.
    BatchBegin,
    /// A rule applied inside the open batch.
    BatchApply {
        /// The applied rule.
        rule: Rule,
    },
    /// The open batch committed.
    BatchCommit,
    /// The open batch aborted at rule `index`; its prefix was rolled
    /// back.
    BatchAbort {
        /// Index of the refused rule within the batch.
        index: usize,
        /// Why it was refused.
        outcome: Outcome,
        /// The refused rule.
        rule: Rule,
    },
}

impl JournalEvent {
    /// Encodes this event as a one-line text payload — the body of a
    /// `TGL1` chain record in `tg-log`, after its hashes and sequence
    /// number.
    pub fn encode_payload(&self) -> String {
        match self {
            JournalEvent::Attempt { outcome, rule } => {
                format!("R {outcome} {}", encode_rule(rule))
            }
            JournalEvent::BatchBegin => "B".to_string(),
            JournalEvent::BatchApply { rule } => format!("A {}", encode_rule(rule)),
            JournalEvent::BatchCommit => "C".to_string(),
            JournalEvent::BatchAbort {
                index,
                outcome,
                rule,
            } => format!("X {index} {outcome} {}", encode_rule(rule)),
        }
    }

    /// Decodes an event payload (inverse of
    /// [`encode_payload`](JournalEvent::encode_payload)).
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the payload tag, outcome word, batch index, or
    /// embedded rule fails to parse.
    pub fn decode_payload(payload: &str) -> Result<JournalEvent, CodecError> {
        let (tag, rest) = match payload.split_once(' ') {
            Some((tag, rest)) => (tag, rest),
            None => (payload, ""),
        };
        match tag {
            "R" => {
                let (word, rule) = rest.split_once(' ').ok_or(CodecError::Empty)?;
                let outcome = Outcome::parse(word).ok_or(CodecError::Empty)?;
                Ok(JournalEvent::Attempt {
                    outcome,
                    rule: decode_rule(rule)?,
                })
            }
            "B" if rest.is_empty() => Ok(JournalEvent::BatchBegin),
            "A" => Ok(JournalEvent::BatchApply {
                rule: decode_rule(rest)?,
            }),
            "C" if rest.is_empty() => Ok(JournalEvent::BatchCommit),
            "X" => {
                let (idx, rest) = rest.split_once(' ').ok_or(CodecError::Empty)?;
                let index = idx.parse::<usize>().map_err(|_| CodecError::Empty)?;
                let (word, rule) = rest.split_once(' ').ok_or(CodecError::Empty)?;
                let outcome = Outcome::parse(word).ok_or(CodecError::Empty)?;
                Ok(JournalEvent::BatchAbort {
                    index,
                    outcome,
                    rule: decode_rule(rule)?,
                })
            }
            _ => Err(CodecError::Empty),
        }
    }
}

/// Why an event stream could not be replayed. Every variant fails
/// closed: no partially-trusted state is returned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JournalError {
    /// A well-formed event arrived in an impossible position (e.g. `A`
    /// outside a batch, `R` inside one).
    UnexpectedEvent {
        /// 0-based index of the offending event.
        record: usize,
    },
    /// Replay verification failed: a recorded `permitted` rule is not
    /// permitted against the seed — wrong seed graph or a forged record.
    Diverged {
        /// 0-based index of the offending event.
        record: usize,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::UnexpectedEvent { record } => {
                write!(f, "record {record} is invalid in its position")
            }
            JournalError::Diverged { record, detail } => {
                write!(f, "replay diverged at record {record}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Replays events onto a live monitor, **re-verifying** every record
/// against the monitor's restriction (the record is evidence, not
/// authority). Callers must strip a trailing open batch first (see
/// [`open_batch_start`]); the commit log's recovery, `state_at` and
/// compaction proof all do, for the chain suffix they fold. Attach the
/// monitor's event sink only afterwards, or the replayed history is
/// recorded twice.
///
/// # Errors
///
/// [`JournalError::UnexpectedEvent`] on a structurally impossible event
/// order, [`JournalError::Diverged`] when a recorded outcome does not
/// reproduce. Record numbers in errors are 0-based indexes into `events`.
pub fn replay_events(monitor: &mut Monitor, events: &[JournalEvent]) -> Result<(), JournalError> {
    let mut batch: Option<Vec<Rule>> = None;
    for (record, event) in events.iter().enumerate() {
        match (event, batch.as_mut()) {
            (JournalEvent::Attempt { outcome, rule }, None) => {
                replay_attempt(monitor, *outcome, rule, record)?;
            }
            (JournalEvent::BatchBegin, None) => {
                batch = Some(Vec::new());
            }
            (JournalEvent::BatchApply { rule }, Some(rules)) => {
                rules.push(rule.clone());
            }
            (JournalEvent::BatchCommit, Some(_)) => {
                let rules = batch.take().expect("batch is open");
                if let Err(e) = monitor.try_apply_all(&rules) {
                    return Err(JournalError::Diverged {
                        record,
                        detail: format!("committed batch no longer applies: {e}"),
                    });
                }
            }
            (
                JournalEvent::BatchAbort {
                    index,
                    outcome,
                    rule,
                },
                Some(_),
            ) => {
                let mut rules = batch.take().expect("batch is open");
                if rules.len() != *index {
                    return Err(JournalError::UnexpectedEvent { record });
                }
                rules.push(rule.clone());
                match monitor.try_apply_all(&rules) {
                    Err(e) if e.index == *index && outcome_of(&e.error) == *outcome => {}
                    Err(e) => {
                        return Err(JournalError::Diverged {
                            record,
                            detail: format!(
                                "batch aborted at {} ({}) live, at {} on replay",
                                index, outcome, e.index
                            ),
                        });
                    }
                    Ok(_) => {
                        return Err(JournalError::Diverged {
                            record,
                            detail: format!("batch aborted live at rule {index} but replays clean"),
                        });
                    }
                }
            }
            _ => return Err(JournalError::UnexpectedEvent { record }),
        }
    }
    Ok(())
}

/// Index of the `BatchBegin` of a batch still open at the end of
/// `events`, if any.
/// Recovery discards everything from here on — the batch never committed,
/// matching the live monitor's rollback-on-abort semantics.
pub fn open_batch_start(events: &[JournalEvent]) -> Option<usize> {
    let mut open: Option<usize> = None;
    for (i, event) in events.iter().enumerate() {
        match event {
            JournalEvent::BatchBegin => open = Some(i),
            JournalEvent::BatchCommit | JournalEvent::BatchAbort { .. } => open = None,
            _ => {}
        }
    }
    open
}

fn outcome_of(error: &MonitorError) -> Outcome {
    match error {
        MonitorError::Rule(_) => Outcome::Malformed,
        MonitorError::Denied(_) => Outcome::Denied,
        MonitorError::Degraded => Outcome::Refused,
    }
}

fn replay_attempt(
    monitor: &mut Monitor,
    outcome: Outcome,
    rule: &Rule,
    record: usize,
) -> Result<(), JournalError> {
    match outcome {
        Outcome::Permitted => match monitor.try_apply(rule) {
            Ok(_) => Ok(()),
            Err(e) => Err(JournalError::Diverged {
                record,
                detail: format!("recorded as permitted but refused on replay: {e}"),
            }),
        },
        Outcome::Denied | Outcome::Malformed => match monitor.try_apply(rule) {
            Err(ref e) if outcome_of(e) == outcome => Ok(()),
            Err(e) => Err(JournalError::Diverged {
                record,
                detail: format!("recorded as {outcome} but refused as {e} on replay"),
            }),
            Ok(_) => Err(JournalError::Diverged {
                record,
                detail: format!("recorded as {outcome} but permitted on replay"),
            }),
        },
        // Degradation depends on audit history, which the stream does
        // not carry (quarantine is out-of-band); trust the counter.
        Outcome::Refused => {
            monitor.stats_mut().refused += 1;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::levels::LevelAssignment;
    use crate::monitor::EventSink;
    use crate::restrict::CombinedRestriction;
    use tg_graph::{ProtectionGraph, Rights, VertexId};
    use tg_rules::DeJureRule;

    fn seed() -> Monitor {
        let mut g = ProtectionGraph::new();
        let hi = g.add_subject("hi"); // v0
        let lo = g.add_subject("lo"); // v1
        let q = g.add_object("q"); // v2
        g.add_edge(lo, q, Rights::T).unwrap();
        g.add_edge(q, hi, Rights::RW | Rights::E).unwrap();
        let mut levels = LevelAssignment::linear(&["low", "high"]);
        levels.assign(hi, 1).unwrap();
        levels.assign(lo, 0).unwrap();
        levels.assign(q, 1).unwrap();
        Monitor::new(g, levels, Box::new(CombinedRestriction))
    }

    fn take(actor: usize, via: usize, target: usize, rights: Rights) -> Rule {
        Rule::DeJure(DeJureRule::Take {
            actor: VertexId::from_index(actor),
            via: VertexId::from_index(via),
            target: VertexId::from_index(target),
            rights,
        })
    }

    /// Collects every recorded event in memory, standing in for the
    /// commit log.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<JournalEvent>>>);

    impl EventSink for Capture {
        fn append(&mut self, event: &JournalEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    fn permitted(rule: Rule) -> JournalEvent {
        JournalEvent::Attempt {
            outcome: Outcome::Permitted,
            rule,
        }
    }

    #[test]
    fn every_event_round_trips_through_the_codec() {
        let events = [
            permitted(take(1, 2, 0, Rights::E)),
            JournalEvent::Attempt {
                outcome: Outcome::Refused,
                rule: take(1, 2, 0, Rights::R),
            },
            JournalEvent::BatchBegin,
            JournalEvent::BatchApply {
                rule: take(1, 2, 0, Rights::W),
            },
            JournalEvent::BatchCommit,
            JournalEvent::BatchAbort {
                index: 3,
                outcome: Outcome::Malformed,
                rule: take(1, 1, 0, Rights::R),
            },
        ];
        for event in events {
            let payload = event.encode_payload();
            assert_eq!(
                JournalEvent::decode_payload(&payload),
                Ok(event),
                "{payload}"
            );
        }
        for bad in [
            "",
            "Z",
            "B extra",
            "R sideways take 1 2 0 x1",
            "X one denied",
        ] {
            assert!(JournalEvent::decode_payload(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn replay_reproduces_the_live_monitor() {
        let capture = Capture::default();
        let mut live = seed();
        live.attach_event_sink(Box::new(capture.clone()));
        live.try_apply(&take(1, 2, 0, Rights::E)).unwrap(); // permitted
        live.try_apply(&take(1, 2, 0, Rights::R)).unwrap_err(); // denied
        live.try_apply(&take(1, 1, 0, Rights::R)).unwrap_err(); // malformed
        live.try_apply_all(&[take(1, 2, 0, Rights::W)]).unwrap(); // committed
        live.try_apply_all(&[take(0, 2, 1, Rights::RW)])
            .unwrap_err(); // write-down aborts
        let events = capture.0.lock().unwrap().clone();
        let outcomes: Vec<Outcome> = events
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Attempt { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .collect();
        assert_eq!(
            outcomes,
            [Outcome::Permitted, Outcome::Denied, Outcome::Malformed]
        );
        assert_eq!(events.len(), 3 + 3 + 2);

        let mut replayed = seed();
        replay_events(&mut replayed, &events).unwrap();
        assert_eq!(replayed.graph(), live.graph());
        assert_eq!(replayed.levels(), live.levels());
        assert_eq!(replayed.stats(), live.stats());
        assert_eq!(replayed.log().steps, live.log().steps);
    }

    #[test]
    fn forged_permit_fails_closed_as_divergence() {
        // A permit the restriction denies (read-up): replay must not
        // admit it.
        let err = replay_events(&mut seed(), &[permitted(take(1, 2, 0, Rights::R))]).unwrap_err();
        assert!(matches!(err, JournalError::Diverged { record: 0, .. }));
    }

    #[test]
    fn open_batch_at_the_end_is_discarded() {
        // A crash mid-batch leaves B and A events with no commit marker.
        let events = [
            permitted(take(1, 2, 0, Rights::E)),
            JournalEvent::BatchBegin,
            JournalEvent::BatchApply {
                rule: take(1, 2, 0, Rights::W),
            },
        ];
        let open_at = open_batch_start(&events).expect("the batch is open");
        assert_eq!(open_at, 1);
        let mut replayed = seed();
        replay_events(&mut replayed, &events[..open_at]).unwrap();
        assert_eq!(replayed.stats().permitted, 1);
        assert_eq!(open_batch_start(&events[..open_at]), None);
    }

    #[test]
    fn impossible_event_order_fails_closed() {
        for events in [
            // `C` with no open batch.
            vec![
                JournalEvent::BatchCommit,
                permitted(take(1, 2, 0, Rights::E)),
            ],
            // `A` outside a batch.
            vec![JournalEvent::BatchApply {
                rule: take(1, 2, 0, Rights::E),
            }],
        ] {
            let err = replay_events(&mut seed(), &events).unwrap_err();
            assert_eq!(err, JournalError::UnexpectedEvent { record: 0 });
        }
        // An abort whose index disagrees with the batch it closes.
        let events = [
            JournalEvent::BatchBegin,
            JournalEvent::BatchAbort {
                index: 2,
                outcome: Outcome::Denied,
                rule: take(1, 2, 0, Rights::R),
            },
        ];
        let err = replay_events(&mut seed(), &events).unwrap_err();
        assert_eq!(err, JournalError::UnexpectedEvent { record: 1 });
    }
}
