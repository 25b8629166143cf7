//! E8's `listing1+steal_half` scenario runs the step 3 it names on every
//! backend.  The policy's `StealRule::HalfImbalance` is what the model's
//! balancer, the simulator's balance pass and the runqueues' claims are
//! sized by, so each of the five records must show batches: more tasks
//! moved than steals succeeded.  (The simulator and the runqueues used to
//! move one task per steal whatever the policy said.)

use sched_bench::{catalog, ExperimentId, ExperimentRecord, ExperimentRunner};
use sched_core::{converge, Balancer, Policy, RoundSchedule, StealRule, SystemState};
use sched_dsl::PolicyRecipe;
use sched_trace::FoldedStats;

fn e8() -> sched_dsl::Scenario {
    let spec = catalog::spec(ExperimentId::E8);
    assert_eq!(spec.policy, PolicyRecipe::StealHalf);
    spec
}

/// The model records no trace: its successful steals are recounted from
/// the same rounds its backend runs, pinned to the record by the totals.
#[test]
fn the_model_record_moves_more_than_one_task_per_successful_steal() {
    let spec = e8();
    let runner = ExperimentRunner::with_all_backends();
    let mut only = spec.clone();
    only.backends = Some(vec!["model".into()]);
    let record = runner.run(only).pop().expect("the model runs e8");

    let mut system = SystemState::from_loads(&spec.loads);
    let balancer = Balancer::new(Policy::simple().with_steal(StealRule::HalfImbalance));
    let run = converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, spec.budget);
    assert_eq!(run.rounds, record.convergence_rounds, "the recount is the record's run");
    assert_eq!(run.total_migrations() as u64, record.steals.migrations);
    assert_eq!(run.total_failures() as u64, record.steals.failures());
    assert!(
        run.total_migrations() > run.total_successes(),
        "{} tasks in {} steals",
        run.total_migrations(),
        run.total_successes()
    );
}

/// The four traced backends: the trace folds back into each record (the
/// simulator's `stats == fold(trace)` on both engines included), and its
/// successful steal attempts moved more than one task each on average.
#[test]
fn the_traced_records_move_more_than_one_task_per_successful_steal() {
    let spec = e8();
    let runner = ExperimentRunner::with_all_backends();
    let mut sims: Vec<ExperimentRecord> = Vec::new();
    for backend in ["sim", "sim-event", "rq", "rq-deque"] {
        let (record, trace) =
            runner.run_traced(backend, &spec).expect("a known backend").expect("e8 runs");
        assert_eq!(trace.dropped, 0, "{backend}");
        let folded = FoldedStats::from_trace(&trace);
        assert_eq!(record.steals, folded, "{backend}: steals == fold(trace)");
        assert!(
            folded.migrations > folded.successes,
            "{backend}: {} tasks in {} successful steals",
            folded.migrations,
            folded.successes
        );
        if record.sim_engine.is_some() {
            sims.push(record);
        }
    }
    // Tick and event engines: the same schedule, record for record.
    let measured =
        |r: &ExperimentRecord| (r.steals, r.violating_idle, r.throughput, r.p99_sched_latency_us);
    assert_eq!(measured(&sims[0]), measured(&sims[1]));
}
