//! Fault-injection property for the reference monitor's fail-closed
//! degradation: no out-of-band graph tampering lets a
//! hierarchy-violating `r`/`w` edge survive an audit cycle.
//!
//! The crash-safety properties of the monitor's durable record —
//! recovery equivalence, torn prefixes, and fail-closed corruption —
//! are checked against the `TGL1` commit log in `tg-log`: its
//! time-travel differential suite, and the crash matrix's byte-offset
//! kills, byte flips, splices and garbage insertion.

use proptest::prelude::*;
use tg_hierarchy::structure::linear_hierarchy;
use tg_hierarchy::{CombinedRestriction, Monitor};
use tg_rules::Rule;
use tg_sim::faults::{adversarial_trace, tamper_graph};
use tg_sim::prng::Prng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Out-of-band tampering: every violating planted edge is caught by
    /// the audit cycle, the monitor fails closed while degraded, and no
    /// violating edge survives quarantine.
    #[test]
    fn tampering_never_survives_an_audit_cycle(seed in 0u64..10_000, count in 1usize..20) {
        // Tamper behind the monitor's back: plant edges straight into the
        // graph before handing it to the monitor.
        let mut built = linear_hierarchy(&["low", "mid", "high"], 3);
        let mut rng = Prng::seed_from_u64(seed ^ 0xBAD);
        let planted = tamper_graph(&mut built.graph, &built.assignment, count, &mut rng);
        let mut monitor =
            Monitor::new(built.graph, built.assignment, Box::new(CombinedRestriction));

        let violating: Vec<_> = planted.iter().filter(|t| t.violating).collect();
        let violations = monitor.audit_cycle();
        // Completeness: every violating tamper is reported (Cor 5.6).
        for t in &violating {
            prop_assert!(
                violations.iter().any(|v| v.src == t.src && v.dst == t.dst),
                "planted violation {:?} not audited", t
            );
        }
        if violating.is_empty() {
            // Nothing violating planted: service continues undegraded.
            prop_assert!(!monitor.is_degraded());
            return Ok(());
        }

        // Fail closed: de jure traffic is refused while degraded.
        prop_assert!(monitor.is_degraded());
        let trace = adversarial_trace(monitor.graph(), monitor.levels(), 10, seed);
        let before = monitor.graph().clone();
        for rule in trace.iter().filter(|r| matches!(r, Rule::DeJure(_))) {
            prop_assert!(monitor.try_apply(rule).is_err());
        }
        prop_assert_eq!(monitor.graph(), &before);

        // Quarantine repairs: afterwards no violating r/w edge survives.
        monitor.quarantine();
        prop_assert!(!monitor.is_degraded());
        prop_assert!(monitor.audit().is_empty());
        prop_assert!(monitor.stats().quarantined >= 1);
        prop_assert_eq!(monitor.stats().recoveries, 1);
    }
}
