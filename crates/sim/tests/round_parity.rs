//! One round, two substrates: from equal states, one
//! `RoundSchedule::AllSelectThenSteal` round of the one driver on the
//! model's `SystemState` and on the simulator's runqueues (`SimState`)
//! makes the same attempts with the same outcomes and planned counts,
//! moves the same threads in the same order, and leaves the same queues.
//!
//! The simulator selects from its count index when the policy claims it
//! (Listing 1 does), while the model always scans, so this also holds the
//! index to the scan on every generated state.

use proptest::prelude::*;
use sched_core::{
    BalanceAttempt, Balancer, ConcurrentRound, CoreId, Nice, Policy, RoundReport, RoundSchedule,
    StealOutcome, StealRule, SystemState, Task, TaskId,
};
use sched_sim::{CoreQueues, SimState, SimThread, SimThreadId};

/// Nice levels a generated thread draws from: few distinct weights, so
/// equal weights are common.
const NICES: [i8; 4] = [-5, 0, 0, 19];

/// A generated core: whether its first thread runs, and the nice level
/// index of each of its threads, oldest first.
type CoreSpec = (bool, Vec<usize>);

/// The same threads, numbered in core order, on both substrates.
fn build(spec: &[CoreSpec]) -> (SystemState, CoreQueues, Vec<SimThread>) {
    let mut system = SystemState::new(spec.len());
    let mut queues = CoreQueues::new(spec.len());
    let mut threads = Vec::new();
    for (core, (runs, nices)) in spec.iter().enumerate() {
        let core = CoreId(core);
        for (i, &n) in nices.iter().enumerate() {
            let nice = Nice::new(NICES[n]);
            let id = threads.len();
            threads.push(SimThread::new(SimThreadId(id), nice.weight()));
            let task = Task::with_nice(TaskId(id as u64), nice);
            if *runs && i == 0 {
                system.core_mut(core).current = Some(task);
                queues.set_current(core, Some(SimThreadId(id)));
            } else {
                system.core_mut(core).push_ready(task);
                queues.enqueue(core, SimThreadId(id));
            }
        }
    }
    (system, queues, threads)
}

/// Every core's running thread and waiting threads, oldest first.
type Queues = Vec<(Option<u64>, Vec<u64>)>;

/// The [`Queues`] of the model's state.
fn model_queues(system: &SystemState) -> Queues {
    let ids = |tasks: &[Task]| tasks.iter().map(|t| t.id.0).collect();
    system.cores().iter().map(|c| (c.current.as_ref().map(|t| t.id.0), ids(&c.ready))).collect()
}

/// The [`Queues`] of the simulator's runqueues.
fn sim_queues(queues: &CoreQueues) -> Queues {
    let id = |tid: &SimThreadId| tid.0 as u64;
    queues
        .cores()
        .iter()
        .map(|c| (c.current.as_ref().map(id), c.ready.iter().map(id).collect()))
        .collect()
}

/// An attempt's thief, select and steal times, candidates, choice, planned
/// count and outcome.
type Seen<'a> =
    (CoreId, usize, usize, Option<&'a Vec<CoreId>>, Option<CoreId>, usize, &'a StealOutcome);

/// Every field of every attempt, the candidate list only when the round
/// scanned (an indexed selection leaves it empty).
fn attempts(report: &RoundReport, scanned: bool) -> Vec<Seen<'_>> {
    let mut seen = Vec::new();
    for a in &report.attempts {
        let candidates = scanned.then_some(&a.candidates);
        seen.push((a.thief, a.select_time, a.steal_time, candidates, a.chosen, a.k, &a.outcome));
    }
    seen
}

/// One `AllSelectThenSteal` round of `policy` from `spec` on each
/// substrate: the model's and the simulator's reports and final queues.
fn both(spec: &[CoreSpec], policy: Policy) -> (Balancer, [(RoundReport, Queues); 2]) {
    let balancer = Balancer::new(policy);
    let round = ConcurrentRound::new(&balancer);
    let (mut system, mut queues, threads) = build(spec);
    let model = round.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
    let mut state = SimState { queues: &mut queues, threads: &threads };
    let sim = round.execute(&mut state, &RoundSchedule::AllSelectThenSteal);
    (balancer, [(model, model_queues(&system)), (sim, sim_queues(&queues))])
}

fn policies() -> Vec<Policy> {
    let rules =
        [StealRule::One, StealRule::Lightest, StealRule::Fixed(2), StealRule::HalfImbalance];
    [Policy::simple as fn() -> Policy, Policy::weighted]
        .into_iter()
        .flat_map(|policy| rules.map(|rule| policy().with_steal(rule)))
        .collect()
}

proptest! {
    #[test]
    fn the_model_and_the_simulator_run_the_same_round(
        spec in prop::collection::vec((any::<bool>(), prop::collection::vec(0usize..4, 0..7)), 2..9),
    ) {
        for policy in policies() {
            let name = policy.describe();
            let (balancer, [(model, model_end), (sim, sim_end)]) = both(&spec, policy);
            let scanned = balancer.policy().index_threshold().is_none();
            let (model, sim) = (attempts(&model, scanned), attempts(&sim, scanned));
            prop_assert!(model == sim, "{name} on {spec:?}: {model:?} vs {sim:?}");
            prop_assert!(model_end == sim_end, "{name} on {spec:?}: {model_end:?} vs {sim_end:?}");
        }
    }
}

/// The stolen ids of each attempt of one weighted round, the same on both
/// substrates.
fn stolen(spec: &[CoreSpec], rule: StealRule) -> Vec<Vec<u64>> {
    let (_, [(model, model_end), (sim, sim_end)]) = both(spec, Policy::weighted().with_steal(rule));
    assert_eq!(attempts(&model, true), attempts(&sim, true));
    assert_eq!(model_end, sim_end);
    let ids = |a: &BalanceAttempt| match &a.outcome {
        StealOutcome::Stole { tasks, .. } => tasks.iter().map(|t| t.0).collect(),
        _ => Vec::new(),
    };
    sim.attempts.iter().map(ids).collect()
}

#[test]
fn a_lightest_tie_and_a_kept_thread_move_alike() {
    // Core 0 runs thread 0 (nice 0), core 1 is idle, and core 2 runs
    // nothing and queues threads 1–4 at nice -5, 0, 19, 0.  Both thieves
    // choose core 2 and steal in id order.
    let spec: Vec<CoreSpec> = vec![(true, vec![1]), (false, vec![]), (false, vec![0, 1, 3, 2])];
    // Lightest first: the nice-19 thread, then the newer of the two nice-0
    // threads.
    assert_eq!(stolen(&spec, StealRule::Lightest), [vec![3], vec![4], vec![]]);
    // A batch of two, newest first, then one: the batch leaves a waiting
    // thread behind on a core where nothing runs.
    assert_eq!(stolen(&spec, StealRule::Fixed(2)), [vec![4, 3], vec![2], vec![]]);
}
