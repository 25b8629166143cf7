//! Tick-vs-event engine parity, pinned exactly.
//!
//! The event-driven engine is an *optimisation*, not a different model:
//! under the default priority tie-break it must reproduce the cycle-accurate
//! tick engine's results bit for bit — same completion, same operation
//! count, same makespan, same migration and failure counts, same idle and
//! latency accounting.  Two legs pin that claim:
//!
//! * a **catalog sweep** over every sim-compatible catalogued scenario —
//!   the replay, workload, bursty, PELT and mixed-nice shapes the
//!   experiments actually run;
//! * a **property leg** over random small replay specs, so the parity does
//!   not silently hold only on the hand-picked catalog shapes.
//!
//! Equality here is exact, not a tolerance
//! ([`sched_sim::SimResult::parity_mismatches`], the comparison the
//! scenario fuzzer's parity oracle makes too): both engines are
//! deterministic, so any divergence is an ordering or decay bug in one
//! upkeep, found at the exact scenario that triggers it.

use proptest::prelude::*;

use sched_bench::{run_sim_result, SimEngine};
use sched_dsl::{Driver, PolicyRecipe, Scenario, Topology};

/// Runs `spec` on both engines and asserts exact result parity.  Returns
/// `false` when the simulator declines the spec (storm or batch shapes).
fn engines_agree(spec: &Scenario) -> bool {
    let Some(tick) = run_sim_result(SimEngine::Tick, spec) else {
        return false;
    };
    let event = run_sim_result(SimEngine::Event, spec).expect("engines decline the same specs");
    let mismatches = event.parity_mismatches(&tick);
    assert!(mismatches.is_empty(), "{}: {mismatches:#?}", spec.name);
    true
}

/// The catalog sweep: every sim-compatible catalogued scenario, exact
/// parity.  E24 is the one exception: it caps the event budget so that the
/// tick engine is *cut off* where the event engine finishes, which is its
/// point.
#[test]
fn the_catalogued_sim_scenarios_agree_across_engines() {
    let checked = sched_bench::builtin()
        .iter()
        .filter(|spec| spec.events.is_none() && engines_agree(spec))
        .count();
    assert_eq!(
        checked, 33,
        "e1-e21 (e14 three times, e15, e17 and e18 twice, e21 eight) are sim-compatible"
    );
}

proptest! {
    /// The property leg: random small replay imbalances agree exactly too.
    #[test]
    fn random_replay_specs_agree_across_engines(
        loads in prop::collection::vec(0usize..5, 2..8),
        hot in 0usize..8,
        steal_half in any::<bool>(),
    ) {
        let mut loads = loads;
        let slot = hot % loads.len();
        loads[slot] += 2 * loads.len(); // one hot core, so balancing has work to do
        let cores = loads.len();
        let spec = Scenario {
            name: "random replay parity".into(),
            experiment: "e1".into(),
            topology: Topology::Flat(cores),
            budget: 8 * cores + 256,
            loads,
            policy: if steal_half { PolicyRecipe::StealHalf } else { PolicyRecipe::Listing1 },
            backends: None,
            driver: Driver::Replay,
            events: None,
            order: None,
            batch: None,
            mixed_nice: false,
            expect: Vec::new(),
        };
        sched_bench::validate(&spec).expect("random replay scenarios are valid");
        prop_assert!(engines_agree(&spec));
    }
}
