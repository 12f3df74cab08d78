//! The event-prefix oracle shared by the commit-log suites.
//!
//! The committed state at epoch `e` is the seed state folded through
//! the first `e` events the monitor recorded, with a batch left open at
//! the cut discarded: [`replay_events`] over an [`open_batch_start`]
//! truncated prefix, exactly the fold `CommitLog` claims to compute.
//!
//! The events come from a [`Twin`]: a second monitor built from the same
//! seed and driven by the same trace and batch schedule as the live one.
//! The live monitor's one sink slot holds the commit log; the twin's
//! sink keeps every event in memory, beyond the reach of a simulated
//! crash, so it records the full intended history.

use std::sync::{Arc, Mutex};

use tg_graph::ProtectionGraph;
use tg_hierarchy::journal::{open_batch_start, replay_events, JournalEvent};
use tg_hierarchy::{CombinedRestriction, EventSink, LevelAssignment, Monitor};

/// Collects every recorded event in memory.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<JournalEvent>>>);

impl EventSink for Capture {
    fn append(&mut self, event: &JournalEvent) {
        self.0.lock().expect("capture lock").push(event.clone());
    }
}

/// A monitor whose every recorded event is captured in memory.
pub struct Twin {
    /// Drive this exactly like the live monitor.
    pub monitor: Monitor,
    capture: Capture,
}

impl Twin {
    /// A twin over the seed state, with the combined restriction.
    pub fn new((graph, levels): (ProtectionGraph, LevelAssignment)) -> Twin {
        let capture = Capture::default();
        let mut monitor = Monitor::new(graph, levels, Box::new(CombinedRestriction));
        monitor.attach_event_sink(Box::new(capture.clone()));
        Twin { monitor, capture }
    }

    /// Every event recorded so far, in order.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.capture.0.lock().expect("capture lock").clone()
    }
}

/// The committed state at `epoch`: the seed folded through the first
/// `epoch` events, a batch open at the cut discarded.
pub fn oracle_at(
    (graph, levels): (ProtectionGraph, LevelAssignment),
    events: &[JournalEvent],
    epoch: u64,
) -> Monitor {
    let mut prefix = &events[..epoch as usize];
    if let Some(open_at) = open_batch_start(prefix) {
        prefix = &prefix[..open_at];
    }
    let mut monitor = Monitor::new(graph, levels, Box::new(CombinedRestriction));
    replay_events(&mut monitor, prefix).expect("a recorded prefix replays");
    monitor
}
