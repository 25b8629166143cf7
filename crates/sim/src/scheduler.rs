//! The simulator's scheduler interface and the verified optimistic
//! scheduler built from `sched-core` policies.
//!
//! A [`SimScheduler`] is engine-agnostic: the one
//! [`Machine`](crate::machine::Machine) behind the tick-driven
//! [`crate::engine::Engine`] and the event-driven
//! [`crate::event_engine::EventEngine`] invokes the two callbacks —
//! [`SimScheduler::place_wakeup`] on every wakeup and
//! [`SimScheduler::balance_round`] every balancing period — from one place
//! each, at the same simulated times under either upkeep.
//!
//! [`OptimisticScheduler`]'s balancing round is the model's: `sched-core`'s
//! one round driver, [`ConcurrentRound`], under
//! [`RoundSchedule::AllSelectThenSteal`] ("all cores balance
//! simultaneously", so later selections can be stale and their steals
//! fail), run on [`SimState`], the runqueues and the thread table.  The
//! selection, the re-check and step 3 are the code `sched-verify` checks;
//! this module supplies the state and narrates the attempts.  A
//! topology-aware policy makes the round hierarchical through its step-2
//! choice alone.  For a policy whose selection claims the count index
//! ([`Policy::index_threshold`], proven by `sched-verify`'s
//! `lemmas::indexed_select`), the round selects from
//! [`CoreQueues::busiest`] and takes no snapshot.

use std::sync::Arc;

use sched_core::tracker::{LoadTracker, NrThreadsTracker};
use sched_core::{
    Balancer, ConcurrentRound, CoreId, CoreSnapshot, Policy, RoundSchedule, RoundState,
    StealOutcome, Step, TaskId,
};
use sched_topology::MachineTopology;
use sched_trace::{FoldedStats, TraceEvent, TraceSink};

use crate::queues::CoreQueues;
use crate::thread::{SimThread, SimThreadId};

/// The simulator's runqueues with the thread table that weighs their
/// threads: the state a balancing round runs on.  A thread's [`TaskId`] is
/// its [`SimThreadId`].
pub struct SimState<'a> {
    /// The runqueues the round reads and moves threads between.
    pub queues: &'a mut CoreQueues,
    /// The thread table, indexed by [`SimThreadId`].
    pub threads: &'a [SimThread],
}

impl RoundState for SimState<'_> {
    fn nr_cores(&self) -> usize {
        self.queues.nr_cores()
    }

    fn snapshot(&self, core: CoreId) -> CoreSnapshot {
        self.queues.snapshot(core, self.threads)
    }

    fn queue(&self, core: CoreId) -> (usize, bool) {
        let core = self.queues.core(core);
        (core.ready.len(), core.current.is_some())
    }

    fn ready_weight(&self, core: CoreId, position: usize) -> u64 {
        self.threads[self.queues.core(core).ready[position].0].weight().raw()
    }

    fn migrate_ready(&mut self, from: CoreId, to: CoreId, positions: &[usize]) -> Vec<TaskId> {
        let ready = &self.queues.core(from).ready;
        let moved = positions.iter().map(|&i| TaskId(ready[i].0 as u64)).collect();
        self.queues.migrate_picks(from, to, positions);
        moved
    }

    fn busiest(&self) -> Option<(CoreId, u64)> {
        Some(self.queues.busiest())
    }
}

/// The decisions a scheduler makes inside the simulator.
///
/// The engine owns the mechanism (runqueues, election, preemption, time);
/// the scheduler owns the two policies the paper is about: where waking
/// threads are placed, and how load is balanced between runqueues.
pub trait SimScheduler: Send {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// The load criterion the engine maintains per-core tracked averages
    /// under (updated on every run/sleep/wakeup event).  Defaults to
    /// instantaneous thread counts, which is what every scheduler balanced
    /// on before trackers became pluggable.
    fn tracker(&self) -> Arc<dyn LoadTracker> {
        Arc::new(NrThreadsTracker)
    }

    /// Chooses the core a waking (or newly arrived, unpinned) thread is
    /// enqueued on.  `prev` is the core the thread last ran on, if any.
    fn place_wakeup(
        &mut self,
        queues: &CoreQueues,
        threads: &[SimThread],
        tid: SimThreadId,
        prev: Option<CoreId>,
    ) -> CoreId;

    /// Runs one machine-wide load-balancing round ("load balancing
    /// operations are performed simultaneously on all cores", §3.1),
    /// migrating waiting threads between runqueues.
    fn balance_round(&mut self, queues: &mut CoreQueues, threads: &[SimThread]) -> FoldedStats;

    /// Attaches a trace sink so the scheduler narrates its steal decisions
    /// ([`TraceEvent::StealAttempt`] / [`TraceEvent::Migration`]).  The
    /// default ignores it: schedulers without recording still work, they
    /// just leave the steal lane of the trace empty.
    fn set_trace_sink(&mut self, sink: TraceSink) {
        let _ = sink;
    }
}

/// The verified optimistic scheduler: wakeups go to idle cores, balancing is
/// the paper's three-step round driven by a [`Policy`].
pub struct OptimisticScheduler {
    balancer: Balancer,
    /// The round's steps on this machine, materialised at the first round.
    steps: Vec<Step>,
    topo: Option<Arc<MachineTopology>>,
    trace: TraceSink,
}

impl OptimisticScheduler {
    /// Creates the scheduler around `policy` (usually [`Policy::simple`]).
    pub fn new(policy: Policy) -> Self {
        OptimisticScheduler {
            balancer: Balancer::new(policy),
            steps: Vec::new(),
            topo: None,
            trace: TraceSink::disabled(),
        }
    }

    /// Creates the scheduler with a machine topology, enabling per-level
    /// attribution of migrations (SMT/LLC/node/remote).
    pub fn with_topology(policy: Policy, topo: Arc<MachineTopology>) -> Self {
        OptimisticScheduler { topo: Some(topo), ..Self::new(policy) }
    }

    /// The policy driving the balancing rounds.
    pub fn policy(&self) -> &Policy {
        self.balancer.policy()
    }
}

impl SimScheduler for OptimisticScheduler {
    fn name(&self) -> &'static str {
        "optimistic"
    }

    fn tracker(&self) -> Arc<dyn LoadTracker> {
        Arc::clone(&self.policy().tracker)
    }

    fn place_wakeup(
        &mut self,
        queues: &CoreQueues,
        _threads: &[SimThread],
        _tid: SimThreadId,
        prev: Option<CoreId>,
    ) -> CoreId {
        // Prefer the previous core if it is idle (cache affinity for free),
        // then any idle core, then the least loaded core.
        if let Some(prev) = prev {
            if queues.core(prev).is_idle() {
                return prev;
            }
        }
        queues.idlest()
    }

    /// One [`RoundSchedule::AllSelectThenSteal`] round of the one driver.
    /// Every attempt that chose a victim is counted and, on the thief's
    /// ring at the engine-published clock ([`TraceSink::record_now`]),
    /// recorded with one [`TraceEvent::Migration`] per moved thread, which
    /// parity folding and the sanity checker consume.  A thief that
    /// selected nothing leaves no trace.
    fn balance_round(&mut self, queues: &mut CoreQueues, threads: &[SimThread]) -> FoldedStats {
        if self.steps.len() != 2 * queues.nr_cores() {
            self.steps = RoundSchedule::AllSelectThenSteal.steps(queues.nr_cores());
        }
        let report = ConcurrentRound::new(&self.balancer)
            .execute_steps(&mut SimState { queues, threads }, &self.steps);
        let mut stats = FoldedStats::default();
        for attempt in &report.attempts {
            let (thief, Some(victim)) = (attempt.thief, attempt.chosen) else {
                continue;
            };
            let level = self.topo.as_ref().map(|topo| topo.steal_level(thief, victim));
            let event = TraceEvent::steal_attempt(&attempt.outcome, level, attempt.k);
            stats.observe(&event);
            if self.trace.is_enabled() {
                self.trace.record_now(thief, &event);
                if let StealOutcome::Stole { tasks, .. } = &attempt.outcome {
                    for &task in tasks {
                        self.trace.record_now(thief, &TraceEvent::Migration { task, from: victim });
                    }
                }
            }
        }
        stats
    }

    fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::Weight;

    fn threads(n: usize) -> Vec<SimThread> {
        (0..n).map(|i| SimThread::new(SimThreadId(i), Weight::NICE_0)).collect()
    }

    #[test]
    fn wakeups_prefer_idle_cores() {
        let mut sched = OptimisticScheduler::new(Policy::simple());
        let mut queues = CoreQueues::new(4);
        let table = threads(4);
        queues.set_current(CoreId(0), Some(SimThreadId(0)));
        queues.set_current(CoreId(1), Some(SimThreadId(1)));
        let core = sched.place_wakeup(&queues, &table, SimThreadId(2), Some(CoreId(0)));
        assert_eq!(core, CoreId(2), "the first idle core wins when the previous core is busy");
        let back_home = sched.place_wakeup(&queues, &table, SimThreadId(3), Some(CoreId(3)));
        assert_eq!(back_home, CoreId(3), "an idle previous core is preferred");
    }

    #[test]
    fn wakeups_fall_back_to_least_loaded_core() {
        let mut sched = OptimisticScheduler::new(Policy::simple());
        let mut queues = CoreQueues::new(2);
        let table = threads(4);
        queues.set_current(CoreId(0), Some(SimThreadId(0)));
        queues.enqueue(CoreId(0), SimThreadId(1));
        queues.set_current(CoreId(1), Some(SimThreadId(2)));
        let core = sched.place_wakeup(&queues, &table, SimThreadId(3), None);
        assert_eq!(core, CoreId(1));
    }

    #[test]
    fn balance_round_spreads_a_pileup_and_reports_conflicts() {
        let mut sched = OptimisticScheduler::new(Policy::simple());
        let mut queues = CoreQueues::new(4);
        let table = threads(5);
        // Core 3 runs one thread and queues four; everyone else is idle.
        queues.set_current(CoreId(3), Some(SimThreadId(0)));
        for i in 1..5 {
            queues.enqueue(CoreId(3), SimThreadId(i));
        }
        let stats = sched.balance_round(&mut queues, &table);
        assert!(stats.successes >= 3, "three idle cores should each obtain a thread");
        assert_eq!(queues.total_threads(), 5);
        assert!(queues.is_work_conserving());
    }

    #[test]
    fn balance_round_failures_happen_when_selections_go_stale() {
        let mut sched = OptimisticScheduler::new(Policy::simple());
        let mut queues = CoreQueues::new(3);
        let table = threads(2);
        // One victim with exactly two threads, two idle thieves: one must fail.
        queues.set_current(CoreId(2), Some(SimThreadId(0)));
        queues.enqueue(CoreId(2), SimThreadId(1));
        let stats = sched.balance_round(&mut queues, &table);
        assert_eq!(stats.successes, 1);
        assert_eq!(stats.failures(), 1);
    }

    /// 2 sockets × 2 cores × SMT-2 = 8 CPUs; cpu0's sibling is cpu1.
    fn numa_topo() -> Arc<MachineTopology> {
        Arc::new(
            sched_topology::TopologyBuilder::new().sockets(2).cores_per_socket(2).smt(2).build(),
        )
    }

    #[test]
    fn flat_round_attributes_migration_levels() {
        let topo = numa_topo();
        let mut sched = OptimisticScheduler::with_topology(Policy::simple(), Arc::clone(&topo));
        let mut queues = CoreQueues::with_topology(&topo);
        let table = threads(4);
        queues.set_current(CoreId(0), Some(SimThreadId(0)));
        for i in 1..4 {
            queues.enqueue(CoreId(0), SimThreadId(i));
        }
        let stats = sched.balance_round(&mut queues, &table);
        assert!(stats.migrations >= 1);
        assert_eq!(stats.level_migrations.iter().sum::<u64>(), stats.migrations);
    }
}
