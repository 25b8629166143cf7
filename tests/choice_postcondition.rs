//! Listing 1's `ensuring(res => cores.contains(res))` on every substrate: a
//! choice policy that breaks its contract may cost locality — never a
//! panic, a steal from a core the filter refused, or a steal that should
//! have happened and did not.  One table: every rogue answer, through
//! everything that runs the selection phase (`Policy::select`).

use std::sync::{mpsc, Arc};
use std::time::Duration;

use optimistic_sched::core::{
    Balancer, ChoicePolicy, ConcurrentRound, CoreId, CoreSnapshot, Policy, RoundSchedule,
    StealOutcome, SystemState, Weight,
};
use optimistic_sched::rq::{BalanceStats, DequeRq, FifoQueue, MultiQueue, PerCoreRq, RqBackend};
use optimistic_sched::sim::{
    CoreQueues, OptimisticScheduler, SimScheduler, SimThread, SimThreadId,
};
use optimistic_sched::topology::TopologyBuilder;
use sched_exec::{ExecConfig, Executor, JoinHandle};

/// Core 1 is the only core Listing 1's filter lets anybody steal from, so
/// every substrate below has to steal from it — through the rogue choice.
const LOADS: [usize; 4] = [0, 3, 0, 1];

type Answer = fn(&CoreSnapshot, &[CoreSnapshot]) -> Option<CoreId>;
type Substrate = fn(Policy);

/// Every way of answering a non-empty candidate list from outside it.
const ROGUE_ANSWERS: [(&str, Answer); 4] = [
    ("the thief itself", |thief, _| Some(thief.id)),
    ("a core the filter refused", |thief, candidates| {
        (0..LOADS.len())
            .map(CoreId)
            .find(|&id| id != thief.id && candidates.iter().all(|c| c.id != id))
    }),
    ("a core that does not exist", |_, _| Some(CoreId(4096))),
    ("nobody", |_, _| None),
];

/// Chooses by `self.0`; places every wakeup on core 0, so that an
/// executor's other workers get work only by stealing it.
struct Rogue(Answer);

impl ChoicePolicy for Rogue {
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        (self.0)(thief, candidates)
    }

    fn place_wakeup(&self, _prev: CoreId, _candidates: &[CoreSnapshot]) -> Option<CoreId> {
        Some(CoreId(0))
    }

    fn name(&self) -> &'static str {
        "rogue"
    }
}

fn on_the_model(policy: Policy) {
    let mut system = SystemState::from_loads(&LOADS);
    let balancer = Balancer::new(policy);
    let round = ConcurrentRound::new(&balancer).execute(&mut system, &RoundSchedule::Sequential);
    for attempt in round.attempts {
        assert_eq!(attempt.chosen.is_some(), !attempt.candidates.is_empty());
        assert!(attempt.chosen.is_none_or(|victim| attempt.candidates.contains(&victim)));
    }
    assert!(system.is_work_conserving() && system.tasks_are_unique());
}

fn on_runqueues<B: RqBackend>(policy: Policy) {
    let mq: MultiQueue<B> = MultiQueue::with_loads(&LOADS);
    match mq.balance_once_recorded(CoreId(0), &policy, &BalanceStats::new()) {
        StealOutcome::Stole { victim, .. } => assert_eq!(victim, CoreId(1)),
        other => panic!("core 0 had core 1 to steal from, got {other:?}"),
    }
    assert!(mq.converge(&policy, 16).0.is_some(), "concurrent rounds must still converge");
    assert_eq!(mq.total_threads(), 4);
}

fn on_the_executor(policy: Policy) {
    // On its own thread, so that a dead worker or a `drain` that hangs
    // fails the test instead of blocking it.
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let topo = Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(4).build());
        let exec = Executor::start(ExecConfig::new(topo, policy));
        // Whoever holds the gate, a steal has to happen: worker 0 holds it
        // and everything queued behind it is stolen, or the gate itself was.
        let (release, held) = mpsc::channel::<()>();
        let gate = exec.spawn(move || held.recv().expect("the test releases the gate"));
        let jobs: Vec<JoinHandle<u64>> = (0..64).map(|i| exec.spawn(move || i)).collect();
        let sum: u64 = jobs.into_iter().map(JoinHandle::join).sum();
        release.send(()).expect("the gate job is waiting");
        gate.join();
        exec.drain();
        done.send((sum, exec.shutdown())).expect("the test is waiting");
    });
    let (sum, report) = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("a worker died, or drain / shutdown did not return");
    assert_eq!((sum, report.completed), ((0..64).sum(), 65));
    assert!(report.stats.successes() >= 1);
}

fn on_the_simulator(policy: Policy) {
    let table: Vec<SimThread> =
        (0..4).map(|i| SimThread::new(SimThreadId(i), Weight::NICE_0)).collect();
    let mut queues = CoreQueues::new(LOADS.len());
    queues.set_current(CoreId(1), Some(SimThreadId(0)));
    queues.enqueue(CoreId(1), SimThreadId(1));
    queues.enqueue(CoreId(1), SimThreadId(2));
    queues.set_current(CoreId(3), Some(SimThreadId(3)));
    // Cores 0, 2 and 3 all plan to steal from core 1, which has two to give.
    let stats = OptimisticScheduler::new(policy).balance_round(&mut queues, &table);
    assert_eq!((stats.successes, stats.failures()), (2, 1));
    assert!(queues.is_work_conserving());
    assert_eq!(queues.total_threads(), 4);
}

#[test]
fn a_choice_outside_the_candidate_list_never_panics_and_never_picks_a_non_candidate() {
    let substrates: [(&str, Substrate); 5] = [
        ("Balancer", on_the_model),
        ("MultiQueue<PerCoreRq<FifoQueue>>", on_runqueues::<PerCoreRq<FifoQueue>>),
        ("MultiQueue<DequeRq>", on_runqueues::<DequeRq>),
        ("Executor", on_the_executor),
        ("OptimisticScheduler", on_the_simulator),
    ];
    for (what, answer) in ROGUE_ANSWERS {
        for (substrate, run) in substrates {
            println!("{substrate}: the choice answers {what}");
            run(Policy::simple().with_choice(Box::new(Rogue(answer))));
        }
    }
}
