//! A machine's worth of concurrent runqueues and optimistic balancing over
//! them.
//!
//! Every balancing operation here — flat, barrier-synchronized,
//! pessimistic — is the same two phases.  The selection is
//! [`Policy::select`], the one `sched-verify` checks and the model, the
//! executor and the simulator also run; the operations differ only in which
//! observations they hand it (fresh lock-less snapshots, or snapshots taken
//! under every lock).  How much the thief claims is the policy's
//! step 3, [`StealRule::plan`] of the same observations.  The stealing
//! phase is one private step, the
//! only caller of [`RqBackend::try_steal_recorded`]: claim, count and trace
//! through the [`StealRecorder`], tell the choice how it went.  Likewise
//! there is one scoped-thread round (every core runs an operation from its
//! own OS thread) under the two public rounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sched_core::tracker::{LoadTracker, NrThreadsTracker};
use sched_core::{CoreId, CoreSnapshot, Nice, Policy, StealOutcome, StealRule, TaskId};
use sched_topology::{MachineTopology, NodeId, StealLevel};
use sched_trace::{TraceEvent, TraceSink};

use crate::backend::RqBackend;
use crate::entity::RqTask;
use crate::fifo::FifoQueue;
use crate::percore::PerCoreRq;
use crate::stats::BalanceStats;
use crate::steal::{snapshot_locked, StealRecorder};
use crate::TaskQueue;

/// All the per-core runqueues of one machine.
///
/// This is the threaded counterpart of [`sched_core::SystemState`]: the same
/// [`Policy`] objects drive balancing here, but the selection phase reads
/// lock-free atomics and the stealing phase really does contend from
/// multiple OS threads.
///
/// `MultiQueue` is generic over the [`RqBackend`] discipline of its
/// runqueues: the mutex backend ([`PerCoreRq`], the default) double-locks
/// the stealing phase, the lock-free backend ([`crate::DequeRq`]) claims
/// with a CAS at the top of a Chase–Lev deque.  All the balancing
/// machinery — rounds, stats recording, tracker ticks — is this one generic
/// implementation.
///
/// When built over a [`MachineTopology`] the queue knows the distance class
/// of every (thief, victim) pair: successful steals are attributed to their
/// [`StealLevel`] in the round's [`BalanceStats`]; balancing is
/// hierarchical when the policy's step-2 choice is (see
/// [`sched_core::policy::TopologyAwareChoice`]).
#[derive(Debug)]
pub struct MultiQueue<B: RqBackend = PerCoreRq<FifoQueue>> {
    cores: Vec<B>,
    topo: Option<Arc<MachineTopology>>,
    tracker: Arc<dyn LoadTracker>,
    /// Logical machine clock, in nanoseconds: advanced by [`MultiQueue::tick`],
    /// read by every runqueue when folding its decayed load.
    clock: Arc<AtomicU64>,
    next_task_id: AtomicU64,
    /// Decision trace sink; disabled (one branch per would-be record, zero
    /// atomics) unless [`MultiQueue::set_trace_sink`] attached one.
    trace: TraceSink,
}

impl<B: RqBackend> MultiQueue<B> {
    /// Creates `nr_cores` empty runqueues, all on NUMA node 0, tracking
    /// instantaneous thread counts.
    pub fn new(nr_cores: usize) -> Self {
        Self::with_tracker(nr_cores, Arc::new(NrThreadsTracker))
    }

    /// Creates `nr_cores` empty runqueues maintaining their load under
    /// `tracker`.
    pub fn with_tracker(nr_cores: usize, tracker: Arc<dyn LoadTracker>) -> Self {
        let clock = Arc::new(AtomicU64::new(0));
        let cores = (0..nr_cores)
            .map(|i| {
                B::with_tracker(CoreId(i), NodeId(0), Arc::clone(&tracker), Arc::clone(&clock))
            })
            .collect();
        MultiQueue {
            cores,
            topo: None,
            tracker,
            clock,
            next_task_id: AtomicU64::new(0),
            trace: TraceSink::disabled(),
        }
    }

    /// Creates one runqueue per CPU of `topo`, with matching node ids; the
    /// topology is retained for distance-ordered stealing and per-level
    /// steal attribution.
    pub fn with_topology(topo: &MachineTopology) -> Self {
        Self::with_topology_and_tracker(topo, Arc::new(NrThreadsTracker))
    }

    /// Creates one runqueue per CPU of `topo`, maintaining loads under
    /// `tracker`.
    pub fn with_topology_and_tracker(
        topo: &MachineTopology,
        tracker: Arc<dyn LoadTracker>,
    ) -> Self {
        let clock = Arc::new(AtomicU64::new(0));
        let cores = topo
            .cpus()
            .iter()
            .map(|c| B::with_tracker(c.id, c.node, Arc::clone(&tracker), Arc::clone(&clock)))
            .collect();
        MultiQueue {
            cores,
            topo: Some(Arc::new(topo.clone())),
            tracker,
            clock,
            next_task_id: AtomicU64::new(0),
            trace: TraceSink::disabled(),
        }
    }

    /// Attaches a trace sink: balancing decisions (steal attempts with
    /// their level attribution, migrations, no-candidate rounds) and task
    /// placements are recorded from here on, and each backend gets a clone
    /// for its internal events (injector pushes and drains, batch
    /// trims).  Recording happens at exactly the program points where
    /// [`BalanceStats`] counters move, so a drained trace folds back to
    /// the stats (`sched_trace::FoldedStats`) bit for bit.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        for core in &mut self.cores {
            core.attach_trace(sink.clone());
        }
        self.trace = sink;
    }

    /// The attached trace sink (disabled unless
    /// [`MultiQueue::set_trace_sink`] was called).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// The machine topology, if this queue was built over one.
    pub fn topology(&self) -> Option<&Arc<MachineTopology>> {
        self.topo.as_ref()
    }

    /// The load criterion the runqueues are maintained under.
    pub fn tracker(&self) -> &Arc<dyn LoadTracker> {
        &self.tracker
    }

    /// The machine's logical clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Advances the logical clock to `now_ns` and folds the elapsed time
    /// into every core's tracked load — the runqueue substrate's scheduler
    /// tick.  Each core is refreshed under its own lock, so ticks interleave
    /// safely with concurrent balancing.
    ///
    /// A clock that went backwards would make decayed sums non-monotone, so
    /// earlier timestamps are ignored.
    pub fn tick(&self, now_ns: u64) {
        self.clock.fetch_max(now_ns, Ordering::AcqRel);
        for core in &self.cores {
            core.refresh();
        }
    }

    /// Distance class between two distinct cores: exact when a topology is
    /// attached, node-based (same node vs remote) otherwise.
    pub fn steal_level_of(&self, thief: CoreId, victim: CoreId) -> StealLevel {
        match &self.topo {
            Some(topo) => topo.steal_level(thief, victim),
            None => {
                if self.cores[thief.0].node() == self.cores[victim.0].node() {
                    StealLevel::SameNode
                } else {
                    StealLevel::Remote
                }
            }
        }
    }

    /// Creates runqueues pre-populated so core `i` holds `loads[i]` `nice 0`
    /// tasks.
    pub fn with_loads(loads: &[usize]) -> Self {
        let mq = Self::new(loads.len());
        for (core, &n) in loads.iter().enumerate() {
            for _ in 0..n {
                mq.spawn_on(CoreId(core));
            }
        }
        mq
    }

    /// Number of cores.
    pub fn nr_cores(&self) -> usize {
        self.cores.len()
    }

    /// One core's runqueue.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core(&self, id: CoreId) -> &B {
        &self.cores[id.0]
    }

    /// All runqueues, in id order.
    pub fn cores(&self) -> &[B] {
        &self.cores
    }

    /// Creates a fresh `nice 0` task and makes it runnable on `core`.
    pub fn spawn_on(&self, core: CoreId) -> TaskId {
        let id = TaskId(self.next_task_id.fetch_add(1, Ordering::Relaxed));
        self.trace_placement(id, core);
        self.cores[core.0].enqueue(RqTask::new(id));
        id
    }

    /// Creates a fresh task with the given niceness and makes it runnable on
    /// `core`.
    pub fn spawn_on_with_nice(&self, core: CoreId, nice: Nice) -> TaskId {
        let id = TaskId(self.next_task_id.fetch_add(1, Ordering::Relaxed));
        self.trace_placement(id, core);
        self.cores[core.0].enqueue(RqTask::with_nice(id, nice));
        id
    }

    /// Records a wakeup and its placement on the placed core's ring.
    fn trace_placement(&self, task: TaskId, core: CoreId) {
        if self.trace.is_enabled() {
            let now = self.now_ns();
            self.trace.record(core, now, &TraceEvent::TaskWake { task });
            self.trace.record(core, now, &TraceEvent::PlaceDecision { task, core });
        }
    }

    /// Lock-less snapshots of every core, in id order (the selection phase's
    /// entire view of the world).
    pub fn snapshots(&self) -> Vec<CoreSnapshot> {
        self.cores.iter().map(B::snapshot).collect()
    }

    /// Total number of threads across all runqueues (exact, takes each lock
    /// in turn; used by invariant checks, not by balancing).
    pub fn total_threads(&self) -> u64 {
        self.cores.iter().map(B::nr_threads_exact).sum()
    }

    /// Returns `true` if no core is idle while another is overloaded
    /// ([`sched_core::is_work_conserving`]), judged on exact (locked) loads.
    pub fn is_work_conserving(&self) -> bool {
        sched_core::is_work_conserving(self.cores.iter().map(B::nr_threads_exact))
    }

    /// Runs the three-step optimistic balancing operation for one core.
    ///
    /// Steps 1 and 2 (filter + choice) read only the lock-less snapshots;
    /// step 3 locks exactly the two runqueues involved.
    pub fn balance_once(&self, thief: CoreId, policy: &Policy) -> StealOutcome {
        self.steal(thief, self.select(thief, policy, policy.steal), policy, None)
    }

    /// Like [`MultiQueue::balance_once`], but records the outcome (with its
    /// steal-level attribution) into `stats` while the runqueue locks are
    /// still held, so the counters move atomically with the dequeue.
    pub fn balance_once_recorded(
        &self,
        thief: CoreId,
        policy: &Policy,
        stats: &BalanceStats,
    ) -> StealOutcome {
        self.steal(thief, self.select(thief, policy, policy.steal), policy, Some(stats))
    }

    /// Selection phase of one flat operation: [`Policy::select`] over fresh
    /// lock-less snapshots of every core, plus the claim size, which
    /// `step`'s [`StealRule::plan`] takes from the same optimistic
    /// observations the choice just used — one multi-claim CAS on the
    /// deque backend, one lock hold on the mutex backend.  By the time the
    /// claim runs the observation may be stale, which is fine: the backend
    /// claims at most what the victim still has, the delivery's re-check
    /// trims a batch that would overshoot, and a partial batch is still a
    /// success ([`StealOutcome::is_success`]).
    fn select(&self, thief: CoreId, policy: &Policy, step: StealRule) -> Option<(CoreId, usize)> {
        let thief_snap = self.cores[thief.0].snapshot();
        let victim =
            policy.select(&thief_snap, self.cores.iter().map(B::snapshot), &mut Vec::new())?;
        Some((victim.id, step.plan(policy, &thief_snap, &victim, 1).count))
    }

    /// Stealing phase of one operation, the only one there is: claims up to
    /// `max_tasks` from the selected victim — atomically per backend
    /// discipline (double-lock or CAS claim), re-checked, the outcome
    /// counted and traced with the claim and attributed to the victim's
    /// distance class — or counts an operation whose selection found no
    /// victim at all.
    fn steal(
        &self,
        thief: CoreId,
        selected: Option<(CoreId, usize)>,
        policy: &Policy,
        stats: Option<&BalanceStats>,
    ) -> StealOutcome {
        let recorder = |level| {
            stats.map(|stats| {
                StealRecorder::new(stats, level).with_trace(&self.trace, thief, &self.clock)
            })
        };
        let Some((victim, max_tasks)) = selected else {
            if let Some(recorder) = recorder(None) {
                recorder.record_attempt(&StealOutcome::NoCandidates, 1);
            }
            return StealOutcome::NoCandidates;
        };
        B::try_steal_recorded(
            &self.cores[thief.0],
            &self.cores[victim.0],
            policy.filter.as_ref(),
            max_tasks,
            recorder(Some(self.steal_level_of(thief, victim))),
        )
    }

    /// One concurrent round: every core runs `op` from its own OS thread
    /// simultaneously, all counting into the returned stats.
    fn round(&self, op: impl Fn(CoreId, &BalanceStats) + Sync) -> BalanceStats {
        let stats = BalanceStats::new();
        std::thread::scope(|scope| {
            for core in &self.cores {
                let (op, stats) = (&op, &stats);
                scope.spawn(move || op(core.id(), stats));
            }
        });
        stats
    }

    /// Runs one *concurrent* balancing round: every core executes
    /// [`MultiQueue::balance_once`] from its own OS thread simultaneously,
    /// which is how CFS runs its 4 ms balancing pass on every core at once.
    ///
    /// Returns the aggregated outcome counters.
    pub fn concurrent_round(&self, policy: &Policy) -> BalanceStats {
        self.concurrent_round_batched(policy, policy.steal)
    }

    /// Like [`MultiQueue::concurrent_round`], with `step` in place of the
    /// policy's own step 3.
    pub fn concurrent_round_batched(&self, policy: &Policy, step: StealRule) -> BalanceStats {
        // The outcome is recorded inside the stealing phase's critical
        // section, atomically with the dequeue.
        self.round(|thief, stats| {
            self.steal(thief, self.select(thief, policy, step), policy, Some(stats));
        })
    }

    /// Like [`MultiQueue::concurrent_round`], but every thread performs its
    /// selection phase against the *initial* state of the round: all threads
    /// rendezvous on a barrier between selecting and stealing.
    ///
    /// This is the threaded equivalent of the model's
    /// `RoundSchedule::AllSelectThenSteal` — the maximally stale
    /// interleaving, in which conflicting optimistic selections (and hence
    /// failed steals) are guaranteed rather than merely possible.  The tests
    /// use it to force the failures the paper's P1/P2 lemmas are about.
    #[cfg(test)]
    fn concurrent_round_synchronized(&self, policy: &Policy) -> BalanceStats {
        let barrier = std::sync::Barrier::new(self.cores.len());
        self.round(|thief, stats| {
            let selected = self.select(thief, policy, policy.steal);
            // Every core finishes selecting before anyone steals.
            barrier.wait();
            self.steal(thief, selected, policy, Some(stats));
        })
    }

    /// Runs concurrent rounds until the machine is work-conserving or the
    /// round budget is exhausted; returns the number of rounds used, if it
    /// converged, and the per-round counters (including the per-level
    /// attribution) folded into one total.
    pub fn converge(&self, policy: &Policy, max_rounds: usize) -> (Option<usize>, BalanceStats) {
        let total = BalanceStats::new();
        for rounds in 0..=max_rounds {
            if self.is_work_conserving() {
                return (Some(rounds), total);
            }
            if rounds == max_rounds {
                break;
            }
            total.add(&self.concurrent_round(policy).tally());
        }
        (None, total)
    }
}

/// Operations that only make sense on the mutex discipline: the lock-free
/// backend has no per-core lock to hold, so "lock everything" is not a
/// point in its design space.
impl<Q: TaskQueue + 'static> MultiQueue<PerCoreRq<Q>> {
    /// The pessimistic baseline: holds **every** runqueue lock while
    /// selecting, so selections can never be stale and steals never fail —
    /// at the cost of stalling every core of the machine for the duration.
    ///
    /// This is the design the paper rejects in §1; the tests check it ends
    /// at the same fixed point as [`MultiQueue::balance_once`].
    pub fn balance_once_pessimistic(&self, thief: CoreId, policy: &Policy) -> StealOutcome {
        // Lock all runqueues in id order (a global order, so concurrent
        // pessimistic balancers cannot deadlock).
        let guards: Vec<_> = self.cores.iter().map(|c| c.lock()).collect();
        let snapshots: Vec<CoreSnapshot> =
            self.cores.iter().zip(&guards).map(|(rq, inner)| snapshot_locked(rq, inner)).collect();
        let victim = policy.select(&snapshots[thief.0], snapshots.iter().copied(), &mut Vec::new());
        drop(guards);
        // Re-acquire just the two locks to perform the migration; because the
        // selection was made under the global lock there is no staleness in a
        // single-threaded use, and under concurrency the re-check still
        // protects correctness.
        let sized =
            victim.map(|v| (v.id, policy.steal.plan(policy, &snapshots[thief.0], &v, 1).count));
        self.steal(thief, sized, policy, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::Policy;

    /// The deque-backed machine, for the shared-behaviour tests below.
    type DequeMq = MultiQueue<crate::DequeRq>;

    #[test]
    fn balance_once_fixes_a_two_core_imbalance() {
        let mq: MultiQueue = MultiQueue::with_loads(&[0, 3]);
        let policy = Policy::simple();
        let outcome = mq.balance_once(CoreId(0), &policy);
        assert!(outcome.is_success());
        assert_eq!(mq.core(CoreId(0)).snapshot().nr_threads, 1);
        assert_eq!(mq.core(CoreId(1)).snapshot().nr_threads, 2);
        assert_eq!(mq.total_threads(), 3);
    }

    #[test]
    fn concurrent_round_preserves_every_task() {
        let mq: MultiQueue = MultiQueue::with_loads(&[0, 8, 0, 4, 0, 0, 2, 1]);
        let before = mq.total_threads();
        let policy = Policy::simple();
        let stats = mq.concurrent_round(&policy);
        assert_eq!(mq.total_threads(), before, "steals must neither lose nor duplicate tasks");
        assert!(stats.successes() >= 1);
    }

    #[test]
    fn converge_reaches_work_conservation() {
        let mq: MultiQueue = MultiQueue::with_loads(&[0, 0, 0, 0, 0, 0, 0, 16]);
        let policy = Policy::simple();
        let (rounds, stats) = mq.converge(&policy, 64);
        assert!(rounds.is_some(), "optimistic balancing must converge");
        assert!(mq.is_work_conserving());
        assert!(stats.successes() >= 7, "at least seven cores had to obtain work");
    }

    #[test]
    fn synchronized_round_produces_real_optimistic_failures() {
        // Seven idle cores all select the single overloaded core against the
        // same pre-round snapshot; only a few steals can succeed, the rest
        // must fail their re-check — on real OS threads, not in the model.
        let mq: MultiQueue = MultiQueue::with_loads(&[4, 0, 0, 0, 0, 0, 0, 0]);
        let policy = Policy::simple();
        let stats = mq.concurrent_round_synchronized(&policy);
        assert_eq!(mq.total_threads(), 4);
        assert!(stats.successes() >= 1);
        assert!(
            stats.successes() + stats.tally().recheck_failures >= 7,
            "every idle core chose the hot core as its victim"
        );
        assert!(
            stats.tally().recheck_failures >= 1,
            "conflicting selections must produce failures"
        );
    }

    #[test]
    fn deque_backend_balances_and_conserves_through_the_same_api() {
        // The identical generic machinery, on the lock-free backend.
        let mq: DequeMq = MultiQueue::with_loads(&[0, 3]);
        let policy = Policy::simple();
        assert!(mq.balance_once(CoreId(0), &policy).is_success());
        assert_eq!(mq.core(CoreId(0)).snapshot().nr_threads, 1);
        assert_eq!(mq.total_threads(), 3);

        let mq: DequeMq = MultiQueue::with_loads(&[0, 0, 0, 0, 0, 0, 0, 16]);
        let (rounds, stats) = mq.converge(&policy, 64);
        assert!(rounds.is_some(), "lock-free optimistic balancing must converge");
        assert!(mq.is_work_conserving());
        assert_eq!(mq.total_threads(), 16);
        assert!(stats.successes() >= 7);
    }

    #[test]
    fn deque_backend_synchronized_round_produces_optimistic_failures() {
        // The maximally stale interleaving on the lock-free backend: the
        // conflicting selections resolve through CAS claims instead of
        // lock rechecks, but the P1 accounting is the same.
        let mq: DequeMq = MultiQueue::with_loads(&[4, 0, 0, 0, 0, 0, 0, 0]);
        let policy = Policy::simple();
        let stats = mq.concurrent_round_synchronized(&policy);
        assert_eq!(mq.total_threads(), 4);
        assert!(stats.successes() >= 1);
        assert!(
            stats.successes() + stats.tally().failures() >= 7,
            "every idle core chose the hot core as its victim"
        );
        assert!(stats.tally().failures() >= 1, "conflicting selections must produce failures");
    }

    #[test]
    fn deque_backend_pelt_loads_decay_and_gate_the_filter() {
        use sched_core::{LoadMetric, PeltTracker};

        let half_life = 8_000_000u64;
        let mq: DequeMq = MultiQueue::with_tracker(
            2,
            std::sync::Arc::new(PeltTracker::new(LoadMetric::NrThreads, half_life)),
        );
        for _ in 0..4 {
            mq.spawn_on(CoreId(1));
        }
        assert_eq!(mq.snapshots()[1].load(LoadMetric::Tracked), 0, "cold tracked loads");
        let policy = Policy::pelt(half_life);
        assert!(!mq.balance_once(CoreId(0), &policy).is_success());
        mq.tick(32 * half_life);
        assert_eq!(mq.snapshots()[1].load(LoadMetric::Tracked), 4);
        assert!(mq.balance_once(CoreId(0), &policy).is_success());
        assert_eq!(mq.total_threads(), 4);
    }

    #[test]
    fn pessimistic_balancing_also_works() {
        let mq: MultiQueue = MultiQueue::with_loads(&[0, 4]);
        let policy = Policy::simple();
        let outcome = mq.balance_once_pessimistic(CoreId(0), &policy);
        assert!(outcome.is_success());
        assert!(mq.is_work_conserving());
    }

    #[test]
    fn topology_construction_assigns_nodes() {
        let topo = sched_topology::TopologyBuilder::new().sockets(2).cores_per_socket(2).build();
        let mq: MultiQueue = MultiQueue::with_topology(&topo);
        assert_eq!(mq.nr_cores(), 4);
        assert_ne!(mq.core(CoreId(0)).node(), mq.core(CoreId(3)).node());
    }

    #[test]
    fn spawn_on_allocates_unique_ids() {
        let mq: MultiQueue = MultiQueue::new(2);
        let a = mq.spawn_on(CoreId(0));
        let b = mq.spawn_on(CoreId(1));
        assert_ne!(a, b);
        assert_eq!(mq.total_threads(), 2);
    }

    #[test]
    fn pelt_tracked_loads_decay_on_ticks_and_gate_the_filter() {
        use sched_core::{LoadMetric, PeltTracker};

        let half_life = 8_000_000u64;
        let mq: MultiQueue = MultiQueue::with_tracker(
            2,
            std::sync::Arc::new(PeltTracker::new(LoadMetric::NrThreads, half_life)),
        );
        for _ in 0..4 {
            mq.spawn_on(CoreId(1));
        }
        // Fresh queues publish a cold (zero) tracked load: the decayed
        // criterion has not seen any history yet.
        assert_eq!(mq.snapshots()[1].load(LoadMetric::Tracked), 0);
        let policy = Policy::pelt(half_life);
        assert!(!mq.balance_once(CoreId(0), &policy).is_success(), "cold tracked loads");
        // Many half-lives later the tracked load has converged to the
        // instantaneous one, and balancing proceeds as Listing 1 would.
        mq.tick(32 * half_life);
        assert_eq!(mq.snapshots()[1].load(LoadMetric::Tracked), 4);
        assert!(mq.balance_once(CoreId(0), &policy).is_success());
        // The dequeue is folded at the frozen clock, so the tracked value
        // survives the migration and only decays on the next tick.
        assert_eq!(mq.snapshots()[1].load(LoadMetric::Tracked), 4);
        mq.tick(33 * half_life);
        assert!(mq.snapshots()[1].tracked_scaled < 4 * sched_core::TRACK_SCALE);
        assert_eq!(mq.total_threads(), 4);
    }

    #[test]
    fn instantaneous_trackers_mirror_loads_through_the_tracked_view() {
        use sched_core::LoadMetric;

        let mq: MultiQueue = MultiQueue::with_loads(&[3, 0]);
        let snap = mq.snapshots();
        assert_eq!(snap[0].load(LoadMetric::Tracked), 3);
        assert_eq!(snap[1].load(LoadMetric::Tracked), 0);
        assert_eq!(mq.tracker().name(), "nr_threads");
        assert_eq!(mq.now_ns(), 0);
    }

    fn numa_mq<B: RqBackend>() -> MultiQueue<B> {
        // 2 sockets × 2 cores × SMT-2 = 8 CPUs; cpu0's sibling is cpu1.
        let topo =
            sched_topology::TopologyBuilder::new().sockets(2).cores_per_socket(2).smt(2).build();
        MultiQueue::with_topology(&topo)
    }

    /// Listing 1 with the hierarchy in step 2: the distance-ordered choice.
    fn topology_aware<B: RqBackend>(mq: &MultiQueue<B>) -> Policy {
        let topo = Arc::clone(mq.topology().expect("built over a topology"));
        Policy::simple().with_choice(Box::new(sched_core::policy::TopologyAwareChoice::new(
            topo,
            sched_core::LoadMetric::NrThreads,
        )))
    }

    #[test]
    fn recorded_rounds_attribute_steal_levels() {
        let mq: MultiQueue = numa_mq();
        for _ in 0..4 {
            mq.spawn_on(CoreId(0));
        }
        let policy = Policy::simple();
        let stats = BalanceStats::new();
        // The SMT sibling of the hot core steals: a level-0 migration.
        let outcome = mq.balance_once_recorded(CoreId(1), &policy, &stats);
        assert!(outcome.is_success());
        assert_eq!(stats.tally().level_migrations, [1, 0, 0, 0]);
        // A remote core steals: attributed to the remote level.
        let outcome = mq.balance_once_recorded(CoreId(4), &policy, &stats);
        assert!(outcome.is_success());
        assert_eq!(stats.tally().level_migrations, [1, 0, 0, 1]);
    }

    #[test]
    fn hierarchical_operation_prefers_the_nearest_victim() {
        fn on<B: RqBackend>() {
            let mq: MultiQueue<B> = numa_mq();
            // Both the SMT sibling (cpu1) and a remote core (cpu4) are
            // overloaded; the distance-ordered choice must take the sibling.
            for _ in 0..3 {
                mq.spawn_on(CoreId(1));
                mq.spawn_on(CoreId(4));
            }
            let stats = BalanceStats::new();
            let outcome = mq.balance_once_recorded(CoreId(0), &topology_aware(&mq), &stats);
            assert!(outcome.is_success());
            assert_eq!(stats.tally().level_migrations, [1, 0, 0, 0], "one SMT-sibling steal");
        }
        on::<PerCoreRq<FifoQueue>>();
        on::<crate::DequeRq>();
    }

    #[test]
    fn hierarchical_operation_falls_back_outwards_after_a_failed_level() {
        let mq: MultiQueue = numa_mq();
        // The sibling has exactly 2 threads; a first steal drains it below
        // the filter threshold, so a second thief's choice must fall back
        // to the loaded remote core.
        mq.spawn_on(CoreId(1));
        mq.spawn_on(CoreId(1));
        for _ in 0..4 {
            mq.spawn_on(CoreId(4));
        }
        let policy = topology_aware(&mq);
        let stats = BalanceStats::new();
        assert!(mq.balance_once_recorded(CoreId(0), &policy, &stats).is_success());
        assert_eq!(stats.tally().level_migrations, [1, 0, 0, 0], "the sibling first");
        // cpu0 now has 1 thread, sibling has 1: the SMT level is exhausted.
        let outcome = mq.balance_once_recorded(CoreId(2), &policy, &stats);
        assert!(outcome.is_success());
        assert!(
            stats.tally().level_migrations[sched_topology::StealLevel::Remote.index()] >= 1,
            "the second thief had to escalate to the remote level"
        );
    }

    #[test]
    fn hierarchical_convergence_reaches_work_conservation() {
        let mq: MultiQueue = numa_mq();
        for _ in 0..16 {
            mq.spawn_on(CoreId(0));
        }
        let (rounds, stats) = mq.converge(&topology_aware(&mq), 64);
        assert!(rounds.is_some(), "hierarchical balancing must converge");
        assert!(mq.is_work_conserving());
        assert_eq!(mq.total_threads(), 16);
        assert!(stats.migrations() >= 7, "seven idle cores had to obtain work");
        assert!(
            stats.tally().level_migrations[sched_topology::StealLevel::Remote.index()] >= 1,
            "work had to cross the node boundary"
        );
    }

    #[test]
    fn half_imbalance_batches_size_from_the_observed_surplus() {
        let policy = Policy::simple();
        let snap = |id: usize, nr: u64| CoreSnapshot {
            id: CoreId(id),
            node: NodeId(0),
            nr_threads: nr,
            weighted_load: nr * 1024,
            lightest_ready_weight: (nr > 1).then_some(1024),
            tracked_scaled: 0,
            injected: 0,
        };
        let idle = snap(0, 0);
        assert_eq!(StealRule::One.plan(&policy, &idle, &snap(1, 9), 1).count, 1);
        assert_eq!(StealRule::Fixed(4).plan(&policy, &idle, &snap(1, 9), 1).count, 4);
        assert_eq!(StealRule::Fixed(0).plan(&policy, &idle, &snap(1, 9), 1).count, 1, "clamped");
        assert_eq!(StealRule::HalfImbalance.plan(&policy, &idle, &snap(1, 9), 1).count, 4);
        assert_eq!(StealRule::HalfImbalance.plan(&policy, &snap(0, 3), &snap(1, 9), 1).count, 3);
        assert_eq!(
            StealRule::HalfImbalance.plan(&policy, &snap(0, 2), &snap(1, 3), 1).count,
            1,
            "≥ 1"
        );
        // Weighted policies size in nice-0 units.
        let weighted = Policy::weighted();
        assert_eq!(StealRule::HalfImbalance.plan(&weighted, &idle, &snap(1, 8), 1).count, 4);
    }

    #[test]
    fn batched_round_moves_the_fan_out_in_fewer_acquisitions() {
        // One hot core, seven idle thieves, k sized from the imbalance:
        // each successful decision must migrate *more* than one task, so
        // the round reaches work conservation with fewer successes than
        // migrations — the tasks-per-acquisition win E23 measures.
        let mq: DequeMq = MultiQueue::with_loads(&[32, 0, 0, 0, 0, 0, 0, 0]);
        let policy = Policy::simple();
        let mut successes = 0u64;
        let mut rounds = 0;
        while !mq.is_work_conserving() && rounds < 64 {
            let stats = mq.concurrent_round_batched(&policy, StealRule::HalfImbalance);
            successes += stats.successes();
            assert!(
                stats.migrations() >= stats.successes(),
                "a batched success moves at least one task"
            );
            rounds += 1;
        }
        assert!(mq.is_work_conserving());
        assert_eq!(mq.total_threads(), 32, "batched claims neither lose nor duplicate");
        let moved: u64 = (1..8).map(|c| mq.core(CoreId(c)).nr_threads_exact()).sum();
        assert!(moved >= 7, "every idle core obtained work");
        assert!(
            successes < moved,
            "{successes} acquisitions moved {moved} tasks: batching must beat one-per-claim"
        );
    }

    #[test]
    fn a_partial_batch_is_a_success() {
        // A thief that asked for more and got fewer still migrated real
        // work: the outcome is `Stole`, never a failure.
        let mq: DequeMq = MultiQueue::with_loads(&[0, 4]);
        let policy = Policy::simple().with_steal(StealRule::Fixed(8));
        let stats = BalanceStats::new();
        // The victim has 3 waiting tasks: 8 is sized down to 3, and the
        // claim's live-counter cap takes 2 of them.
        let outcome = mq.balance_once_recorded(CoreId(0), &policy, &stats);
        match outcome {
            StealOutcome::Stole { ref tasks, .. } => assert!(tasks.len() >= 2, "a real batch"),
            ref other => panic!("expected a (partial) batch steal, got {other:?}"),
        }
        assert!(outcome.is_success(), "partial batch ≠ failure");
        assert_eq!(mq.total_threads(), 4);
    }

    #[test]
    fn stats_stay_consistent_when_steals_race_local_wakeups() {
        // Steals race local wakeups (enqueues) on the victim; because the
        // counters move inside the stealing phase's critical section, the
        // final thread count must equal spawns, and the migration counter
        // must equal the threads that actually changed cores.
        let mq = std::sync::Arc::new({
            let mq: MultiQueue = MultiQueue::new(4);
            for _ in 0..8 {
                mq.spawn_on(CoreId(0));
            }
            mq
        });
        let policy = Policy::simple();
        let stats = BalanceStats::new();
        std::thread::scope(|scope| {
            let waker = {
                let mq = std::sync::Arc::clone(&mq);
                scope.spawn(move || {
                    for _ in 0..32 {
                        mq.spawn_on(CoreId(0));
                        std::thread::yield_now();
                    }
                })
            };
            for _ in 0..16 {
                let stats = &stats;
                let policy = &policy;
                let mq = std::sync::Arc::clone(&mq);
                scope.spawn(move || {
                    for thief in 1..4 {
                        let _ = mq.balance_once_recorded(CoreId(thief), policy, stats);
                    }
                });
            }
            waker.join().unwrap();
        });
        assert_eq!(mq.total_threads(), 40, "8 initial + 32 woken, none lost or duplicated");
        // Every thread residing away from its spawn core got there through
        // a recorded migration (threads may migrate more than once, so the
        // counter bounds the residents from above), and with `StealRule::One`
        // each success accounts for exactly one migration — an entity can
        // never be double-counted by a steal racing a wakeup.
        let moved: u64 = (1..4).map(|c| mq.core(CoreId(c)).nr_threads_exact()).sum();
        assert!(moved <= stats.migrations(), "{moved} residents > {} counted", stats.migrations());
        assert_eq!(stats.migrations(), stats.successes());
    }
}
