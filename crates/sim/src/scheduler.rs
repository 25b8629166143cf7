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
//! Balancing is one pass function, `balance_pass`: every core plans through
//! [`Policy::select`] — the selection `sched-verify` checks, shared with the
//! model, the runqueues and the executor — against one shared snapshot, then
//! the planned steals re-check against the live queues and move what step 3,
//! [`sched_core::StealRule::plan`], sizes from the live observations.
//! [`OptimisticScheduler`]'s round is that pass; a topology-aware policy
//! makes it hierarchical through its step-2 choice alone.
//!
//! **The index.**  Planning by scan costs a snapshot per core and a filter
//! call per pair of cores.  When both selection steps claim the index
//! ([`Policy::index_threshold`] is some δ: a filter admitting exactly the
//! victims at least δ threads above the thief, a choice picking the most
//! threads, lowest id among equals), every thief's [`Policy::select`] is
//! known without a call: the first core of the highest thread count, if
//! that count is at least the thief's plus δ.  The pass then plans from the
//! queues' count index ([`CoreQueues::busiest`]) in thief-id order, the
//! order of the scan.  The claim is proven, not trusted: `sched-verify`'s
//! `lemmas::indexed_select` checks each claimant against the scan, and a
//! policy whose steps do not both claim keeps the scan.  Listing 1 claims
//! (so does a topology-aware choice on a machine of one steal level);
//! weighted, decayed and greedy policies do not.  The stealing phase is
//! the same either way.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::Arc;

use sched_core::tracker::{LoadTracker, NrThreadsTracker};
use sched_core::{CoreId, CoreSnapshot, Policy, TaskId};
use sched_topology::{MachineTopology, StealLevel};
use sched_trace::{FoldedStats, StealOutcomeKind, TraceEvent, TraceSink};

use crate::queues::CoreQueues;
use crate::thread::{SimThread, SimThreadId};

/// Distance class between two distinct cores: exact when a topology is
/// known, node-based (same node vs remote) otherwise.
fn steal_level_of(
    topo: Option<&MachineTopology>,
    thief: &CoreSnapshot,
    victim: &CoreSnapshot,
) -> StealLevel {
    match topo {
        Some(topo) => topo.steal_level(thief.id, victim.id),
        None => {
            if thief.node == victim.node {
                StealLevel::SameNode
            } else {
                StealLevel::Remote
            }
        }
    }
}

/// Records one simulated steal attempt on the thief's ring, using the
/// engine-published clock ([`TraceSink::record_now`]): the attempt the
/// pass counted, then one [`TraceEvent::Migration`] per moved thread, which
/// parity folding and the sanity checker consume.
fn trace_steal(
    trace: &TraceSink,
    thief: CoreId,
    victim: CoreId,
    attempt: &TraceEvent,
    moved: &[SimThreadId],
) {
    if !trace.is_enabled() {
        return;
    }
    trace.record_now(thief, attempt);
    for tid in moved {
        trace
            .record_now(thief, &TraceEvent::Migration { task: TaskId(tid.0 as u64), from: victim });
    }
}

/// The steals a scan plans, in thief-id order: every core selects through
/// [`Policy::select`] against one shared snapshot.
fn scanned_plans(
    policy: &Policy,
    queues: &CoreQueues,
    threads: &[SimThread],
) -> Vec<(CoreId, CoreId)> {
    let snapshots = queues.snapshots(threads);
    let mut candidates = Vec::new();
    snapshots
        .iter()
        .filter_map(|thief| {
            let victim = policy.select(thief, snapshots.iter().copied(), &mut candidates)?;
            Some((thief.id, victim.id))
        })
        .collect()
}

/// The same plans read off the count index, for a policy whose selection
/// claims it with threshold `delta`: every core at least `delta` threads
/// below the busiest plans to steal from it.
fn indexed_plans(queues: &CoreQueues, delta: u64) -> Vec<(CoreId, CoreId)> {
    let (victim, top) = queues.busiest();
    queues
        .cores()
        .iter()
        .filter(|thief| thief.nr_threads() + delta <= top)
        .map(|thief| (thief.id, victim))
        .collect()
}

/// The runqueue positions step 3 takes from `ready`, in the order it moves
/// them: the `take` newest, or for a lightest-first plan the `take`
/// lightest, newest first among equals — selected and ordered once, not
/// rescanned per thread moved.
fn picks(
    ready: &VecDeque<SimThreadId>,
    threads: &[SimThread],
    take: usize,
    lightest: bool,
) -> Vec<usize> {
    if !lightest {
        return (0..ready.len()).rev().take(take).collect();
    }
    let key = |&i: &usize| (threads[ready[i].0].weight(), Reverse(i));
    let mut picks: Vec<usize> = (0..ready.len()).collect();
    if take < picks.len() {
        picks.select_nth_unstable_by_key(take, key);
        picks.truncate(take);
    }
    picks.sort_unstable_by_key(key);
    picks
}

/// One machine-wide balancing pass, the only one the simulator has: every
/// core plans its steal against ONE shared view — the "all cores balance
/// simultaneously" interleaving, so selections made by later cores can be
/// stale and their steals can fail, exactly the optimism of the model — by
/// scan, or from the count index when the policy's claim `index` allows
/// (module docs).  Then each planned steal re-checks the filter against the
/// live queues before migrating (Listing 1 line 12) as many threads as the
/// policy's step 3 plans from the same live observations and the planned
/// thieves of that victim still to come, as the model's round does.
fn balance_pass(
    policy: &Policy,
    index: Option<u64>,
    topo: Option<&MachineTopology>,
    trace: &TraceSink,
    queues: &mut CoreQueues,
    threads: &[SimThread],
) -> FoldedStats {
    let plans = match index {
        Some(delta) => indexed_plans(queues, delta),
        None => scanned_plans(policy, queues, threads),
    };
    // Per victim, the planned thieves that have not stolen yet: step 3's `r`.
    let mut contenders = vec![0usize; queues.nr_cores()];
    for &(_, victim) in &plans {
        contenders[victim.0] += 1;
    }
    let mut stats = FoldedStats::default();
    for (thief, victim) in plans {
        let r = contenders[victim.0];
        contenders[victim.0] -= 1;
        let live_thief = queues.snapshot(thief, threads);
        let live_victim = queues.snapshot(victim, threads);
        let (mut k, mut moved) = (1, Vec::new());
        if policy.filter.can_steal(&live_thief, &live_victim) {
            // Step 3: the planned number of waiting threads, newest first or
            // lightest first (newest among equals) as the rule asks, capped
            // by the live queue (§4.2, "does not steal too much").
            let plan = policy.steal.plan(policy, &live_thief, &live_victim, r);
            let live = queues.core(victim);
            let take = plan.take(live.ready.len(), live.current.is_some());
            k = plan.count;
            let picks = picks(&live.ready, threads, take, plan.lightest);
            queues.migrate_picks(victim, thief, &picks, &mut moved);
        }
        // Every failure class in the simulator is a stale optimistic
        // selection, so a failed attempt is a re-check failure.
        let stole = !moved.is_empty();
        let attempt = TraceEvent::StealAttempt {
            victim: Some(victim),
            level: stole.then(|| steal_level_of(topo, &live_thief, &live_victim)),
            outcome: if stole { StealOutcomeKind::Stole } else { StealOutcomeKind::RecheckFailed },
            k: k as u32,
            moved: moved.len() as u32,
        };
        stats.observe(&attempt);
        trace_steal(trace, thief, victim, &attempt, &moved);
    }
    stats
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
    policy: Policy,
    /// The policy's [`Policy::index_threshold`], read once: `Some` plans
    /// every round from the count index.
    index: Option<u64>,
    topo: Option<Arc<MachineTopology>>,
    trace: TraceSink,
}

impl OptimisticScheduler {
    /// Creates the scheduler around `policy` (usually [`Policy::simple`]).
    pub fn new(policy: Policy) -> Self {
        let index = policy.index_threshold();
        OptimisticScheduler { policy, index, topo: None, trace: TraceSink::disabled() }
    }

    /// Creates the scheduler with a machine topology, enabling exact
    /// per-level attribution of migrations (SMT/LLC/node/remote).
    pub fn with_topology(policy: Policy, topo: Arc<MachineTopology>) -> Self {
        OptimisticScheduler { topo: Some(topo), ..Self::new(policy) }
    }

    /// The policy driving the balancing rounds.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }
}

impl SimScheduler for OptimisticScheduler {
    fn name(&self) -> &'static str {
        "optimistic"
    }

    fn tracker(&self) -> Arc<dyn LoadTracker> {
        Arc::clone(&self.policy.tracker)
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

    fn balance_round(&mut self, queues: &mut CoreQueues, threads: &[SimThread]) -> FoldedStats {
        balance_pass(&self.policy, self.index, self.topo.as_deref(), &self.trace, queues, threads)
    }

    fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use sched_core::{Nice, Weight};

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

    /// The loop the one-pass picks replaced: rescan the live runqueue for
    /// each thread moved, the newest of the lightest (or the newest).
    fn rescanning(
        queues: &mut CoreQueues,
        threads: &[SimThread],
        take: usize,
        lightest: bool,
    ) -> Vec<SimThreadId> {
        let (victim, thief) = (CoreId(0), CoreId(1));
        let mut moved = Vec::new();
        while moved.len() < take {
            let ready = &queues.core(victim).ready;
            let pick = if lightest {
                (0..ready.len()).rev().min_by_key(|&i| threads[ready[i].0].weight())
            } else {
                ready.len().checked_sub(1)
            };
            let Some(tid) = pick.and_then(|i| queues.migrate_at(victim, thief, i)) else {
                break;
            };
            moved.push(tid);
        }
        moved
    }

    proptest! {
        #[test]
        fn one_pass_picks_move_what_the_rescan_moved(
            nices in prop::collection::vec(0usize..4, 0..16),
            take in 0usize..18,
            lightest in any::<bool>(),
        ) {
            // Few distinct weights, so equal weights are common.
            let threads: Vec<SimThread> = nices
                .iter()
                .enumerate()
                .map(|(i, &n)| SimThread::new(SimThreadId(i), Nice::new([-5, 0, 0, 19][n]).weight()))
                .collect();
            let take = take.min(threads.len());
            let mut queues = CoreQueues::new(2);
            for thread in &threads {
                queues.enqueue(CoreId(0), thread.id);
            }
            let mut oracle = queues.clone();
            let expected = rescanning(&mut oracle, &threads, take, lightest);
            let picks = picks(&queues.core(CoreId(0)).ready, &threads, take, lightest);
            let mut moved = Vec::new();
            queues.migrate_picks(CoreId(0), CoreId(1), &picks, &mut moved);
            prop_assert_eq!(&moved, &expected);
            prop_assert_eq!(&queues.core(CoreId(0)).ready, &oracle.core(CoreId(0)).ready);
            prop_assert_eq!(&queues.core(CoreId(1)).ready, &oracle.core(CoreId(1)).ready);
        }
    }
}
