//! The simulated machine, written once.
//!
//! A [`Machine`] owns the *mechanism* — time, runqueues, election,
//! preemption, barriers, the event calendar, the trace and the counters —
//! and delegates the two *policies* the paper studies to a
//! [`SimScheduler`]: where waking threads are placed, and how runqueues are
//! balanced every balancing period.  Runs are fully deterministic given the
//! workload, the scheduler and the configured [`OrderingPolicy`].
//!
//! The machine borrows the [`Workload`] it runs for its whole life and
//! copies none of it: each thread's phase program, arrival time and origin
//! core are read in place, and a [`SimThread`] holds only the thread's run
//! state and its load weight.
//!
//! What the machine does *not* decide is its own upkeep, the [`Upkeep`]
//! parameter: which timers and balance ticks are on the calendar, when a
//! core's tracked load is folded, when idle time is charged, and which
//! cores are re-elected after a balancing round.  Two upkeeps exist, and
//! they are the two engines:
//!
//! * [`Eager`](crate::engine::Eager) keeps every core current at every
//!   event — the reference ([`crate::engine::Engine`]);
//! * [`Lazy`](crate::event_engine::Lazy) keeps a core current only when
//!   something happens to it ([`crate::event_engine::EventEngine`]).
//!
//! The upkeep is a type parameter, so each engine is its own monomorphic
//! copy of the handlers below with its hooks inlined; nothing on the
//! per-event path is selected at run time.
//!
//! A preempted thread leaves its phase completion on the calendar: the
//! calendar cannot delete.  Instead every push returns a tie unique to it
//! ([`EventQueue::push`]), a running thread records the tie of its one live
//! completion, and a completion whose tie is not the live one is stale and
//! ignored.  The check is exact: ties never repeat within a run.
//!
//! The machine reads its tracker's constants — [`LoadTracker::base`] and
//! [`LoadTracker::is_decayed`] — once, when it is built; no queue change
//! asks the tracker again, and under an instantaneous tracker no queue
//! change replays missed folds ([`CoreQueues::catch_up`]).  A preemption is
//! one [`CoreQueues::rotate`] and an election one
//! [`CoreQueues::promote`]: neither changes a core's count, so neither
//! touches the count index the scheduler selects from.
//!
//! [`OrderingPolicy`]: crate::event::OrderingPolicy

use std::sync::Arc;

use sched_core::tracker::LoadTracker;
use sched_core::{CoreId, LoadMetric, Nice, TaskId};
use sched_metrics::{Histogram, IdleAccounting};
use sched_topology::MachineTopology;
use sched_trace::{FoldedStats, TraceEvent, TraceSink};
use sched_workloads::{Phase, Workload};

use crate::barrier::SimBarrier;
use crate::config::SimConfig;
use crate::event::{Event, EventKind, EventQueue};
use crate::queues::CoreQueues;
use crate::result::SimResult;
use crate::scheduler::SimScheduler;
use crate::thread::{SimThread, SimThreadId, ThreadState};

/// What the two engines disagree on: how a [`Machine`] keeps its calendar,
/// its tracked loads and its idle accounting up to date.
///
/// Implemented by this crate's two upkeeps and nothing else — the
/// machine's state is crate-private, so this names the two engines in
/// generic code and is not an extension point.  The hooks are called by the
/// machine's handlers only, at the present simulation time (`now`).
pub trait Upkeep: Sized {
    /// The upkeep of `nr_cores` idle cores at time zero.  Puts whatever
    /// timers and balance ticks it wants on `events`, after the arrivals.
    fn new(nr_cores: usize, config: &SimConfig, events: &mut EventQueue) -> Self;

    /// Time is about to move to `to`: the machine stayed as it is since the
    /// previous event.
    fn advance(m: &mut Machine<'_, Self>, to: u64);

    /// `core`'s runqueue is about to change.  Nothing to do for an upkeep
    /// that keeps every core current anyway.
    fn before_change(_m: &mut Machine<'_, Self>, _core: CoreId) {}

    /// `core`'s runqueue changed and its tracked load has been folded.
    fn after_change(_m: &mut Machine<'_, Self>, _core: CoreId) {}

    /// A thread woke up and was placed on a runqueue.
    fn on_wakeup(_m: &mut Machine<'_, Self>) {}

    /// `core`'s preemption timer fired: run the machine's `preempt` and
    /// decide whether a next timer goes on the calendar.
    fn on_timer(m: &mut Machine<'_, Self>, core: CoreId);

    /// The machine-wide balance tick fired: bring the tracked loads to the
    /// present, run the machine's `balance_round`, `elect_next` on the cores
    /// that received work and decide whether a next tick goes on the
    /// calendar.
    fn on_balance(m: &mut Machine<'_, Self>);

    /// The run is over (`budget_exhausted`: it hit the event budget): fix
    /// the final time and flush the idle accounting up to it.
    fn finish(m: &mut Machine<'_, Self>, budget_exhausted: bool);
}

/// The discrete-event simulator, generic over its [`Upkeep`].  Use it
/// through [`crate::Engine`] or [`crate::EventEngine`].
pub struct Machine<'w, U: Upkeep> {
    pub(crate) config: SimConfig,
    /// What runs: each thread's phase program, arrival and origin core are
    /// read here in place, never copied.
    workload: &'w Workload,
    pub(crate) queues: CoreQueues,
    pub(crate) threads: Vec<SimThread>,
    barriers: Vec<SimBarrier>,
    pub(crate) events: EventQueue,
    scheduler: Box<dyn SimScheduler>,
    /// The scheduler's load criterion: every run, sleep and wakeup event is
    /// folded into the per-core tracked averages under it.
    tracker: Arc<dyn LoadTracker>,
    /// The tracker's base metric, read once.
    base: LoadMetric,
    /// Whether the tracker decays, read once: only then does a core that
    /// was off the calendar replay the folds it missed.
    decayed: bool,
    pub(crate) now: u64,
    pub(crate) idle: IdleAccounting,
    latency: Histogram,
    balance_stats: FoldedStats,
    finished_count: usize,
    events_processed: u64,
    trace: TraceSink,
    /// Last narrated busy-state per core, so Park/Unpark events fire only
    /// on transitions (the trace is edge-, not level-triggered).
    core_busy: Vec<bool>,
    balance_rounds: u64,
    pub(crate) upkeep: U,
}

impl<'w, U: Upkeep> Machine<'w, U> {
    /// Builds a machine for `workload` under `scheduler`.
    ///
    /// If `topo` is given the core count and NUMA layout come from it,
    /// otherwise `config.nr_cores` cores on a single node are used.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails validation (mismatched barriers) or if
    /// the timeslice or the balancing period is zero.
    pub fn new(
        config: SimConfig,
        topo: Option<&MachineTopology>,
        workload: &'w Workload,
        scheduler: Box<dyn SimScheduler>,
    ) -> Self {
        workload.validate().unwrap_or_else(|e| panic!("invalid workload: {e}"));
        // The fields are public, so the builder methods' checks can be
        // walked past; both are grid steps the calendar divides by.
        assert!(config.timeslice_ns > 0, "the timeslice must be positive");
        assert!(config.balance_period_ns > 0, "the balancing period must be positive");
        let queues = match topo {
            Some(t) => CoreQueues::with_topology(t),
            None => CoreQueues::new(config.nr_cores),
        };
        let nr_cores = queues.nr_cores();

        let threads: Vec<SimThread> = workload
            .threads
            .iter()
            .enumerate()
            .map(|(i, spec)| SimThread::new(SimThreadId(i), Nice::new(spec.nice).weight()))
            .collect();
        let barriers = workload.barriers.iter().map(|&(id, n)| SimBarrier::new(id, n)).collect();

        let mut events = EventQueue::new(&config);
        for (i, spec) in workload.threads.iter().enumerate() {
            events.push(spec.arrival_ns, EventKind::Arrival(SimThreadId(i)));
        }
        let upkeep = U::new(nr_cores, &config, &mut events);
        let tracker = scheduler.tracker();

        Machine {
            idle: IdleAccounting::new(nr_cores),
            latency: Histogram::new(),
            balance_stats: FoldedStats::default(),
            workload,
            queues,
            threads,
            barriers,
            events,
            base: tracker.base(),
            decayed: tracker.is_decayed(),
            tracker,
            scheduler,
            now: 0,
            finished_count: 0,
            events_processed: 0,
            trace: TraceSink::disabled(),
            core_busy: vec![false; nr_cores],
            balance_rounds: 0,
            upkeep,
            config,
        }
    }

    /// Attaches `sink` so the run narrates its decisions: placements,
    /// parking transitions and balancing rounds from the machine, steal
    /// attempts from the scheduler (forwarded a clone).  Recording is
    /// write-only — an attached sink never changes the schedule.  Call
    /// before [`Machine::run`] and keep a clone of the sink to drain.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.scheduler.set_trace_sink(sink.clone());
        self.trace = sink;
        self.trace.set_now(self.now);
        if self.trace.is_enabled() {
            // Every core starts parked; the first election narrates Unpark.
            for core in 0..self.queues.nr_cores() {
                self.trace.record_now(CoreId(core), &TraceEvent::Park);
            }
        }
    }

    /// Runs the simulation to completion (or to the horizon / event budget)
    /// and returns the measurements.
    pub fn run(mut self) -> SimResult {
        let mut budget_exhausted = false;
        while let Some(event) = self.events.pop() {
            if event.time > self.config.horizon_ns {
                break;
            }
            if let Some(budget) = self.config.event_budget {
                if self.events_processed >= budget {
                    budget_exhausted = true;
                    break;
                }
            }
            self.events_processed += 1;
            U::advance(&mut self, event.time);
            self.now = event.time;
            self.trace.set_now(self.now);
            self.handle(event);
            if !self.unfinished() {
                break;
            }
        }
        U::finish(&mut self, budget_exhausted);
        SimResult {
            scheduler: self.scheduler.name(),
            workload: self.workload.name.clone(),
            makespan_ns: self.now,
            finished: self.finished_count == self.threads.len(),
            operations: self.threads.iter().map(|t| t.ops_completed).sum(),
            events_processed: self.events_processed,
            idle: self.idle,
            latency: self.latency,
            balance: self.balance_stats,
        }
    }

    /// Some thread has not finished yet.
    pub(crate) fn unfinished(&self) -> bool {
        self.finished_count < self.threads.len()
    }

    /// Narrates `core`'s idle/busy transition, if its state changed since
    /// the last narration.
    fn trace_core_state(&mut self, core: CoreId) {
        if !self.trace.is_enabled() {
            return;
        }
        let busy = self.queues.core(core).current.is_some();
        if busy != self.core_busy[core.0] {
            self.core_busy[core.0] = busy;
            self.trace.record_now(core, if busy { &TraceEvent::Unpark } else { &TraceEvent::Park });
        }
    }

    /// Folds `core`'s current instantaneous load into its tracked average
    /// at the present simulation time.  Called after every queue mutation,
    /// so decayed criteria see each run/sleep/wakeup transition.
    pub(crate) fn touch(&mut self, core: CoreId) {
        self.queues.touch(core, self.now, self.tracker.as_ref(), self.base, &self.threads);
    }

    /// Brings `core`'s tracked load up to the present before its runqueue
    /// changes, if the tracker decays ([`CoreQueues::catch_up`]).
    #[inline]
    pub(crate) fn catch_up(&mut self, core: CoreId) {
        if self.decayed {
            let (tracker, period) = (self.tracker.as_ref(), self.config.balance_period_ns);
            self.queues.catch_up(core, self.now, period, tracker, self.base, &self.threads);
        }
    }

    /// [`CoreQueues::touch_all`]: folds every core at the present.
    pub(crate) fn touch_all(&mut self) {
        self.queues.touch_all(self.now, self.tracker.as_ref(), self.base, &self.threads);
    }

    fn handle(&mut self, event: Event) {
        match event.kind {
            EventKind::Arrival(tid) => {
                debug_assert_eq!(self.threads[tid.0].state, ThreadState::NotArrived);
                self.threads[tid.0].arrive(&self.workload.threads[tid.0]);
                self.enter_phase(tid);
            }
            EventKind::SleepDone(tid) => {
                debug_assert_eq!(self.threads[tid.0].state, ThreadState::Sleeping);
                self.enter_phase(tid);
            }
            EventKind::PhaseDone(tid) => self.on_phase_done(tid, event.tie),
            EventKind::Timer(core) => U::on_timer(self, core),
            EventKind::Balance => U::on_balance(self),
        }
    }

    /// Records that `tid` voluntarily left the runnable population (a
    /// sleep phase or a barrier wait), so trace consumers stop counting
    /// it against its last core's occupancy until it wakes again.
    fn trace_task_sleep(&mut self, tid: SimThreadId) {
        if self.trace.is_enabled() {
            let core = self.threads[tid.0].last_core.unwrap_or(CoreId(0));
            self.trace.record_now(core, &TraceEvent::TaskSleep { task: TaskId(tid.0 as u64) });
        }
    }

    /// Starts the thread's next phase (compute, sleep, barrier) or
    /// finishes the thread if no phase remains.
    fn enter_phase(&mut self, tid: SimThreadId) {
        let phase = self.threads[tid.0].enter_next_phase(&self.workload.threads[tid.0]);
        match phase {
            None => {
                let thread = &mut self.threads[tid.0];
                thread.state = ThreadState::Finished;
                let last = thread.last_core;
                self.finished_count += 1;
                if self.trace.is_enabled() {
                    self.trace.record_now(
                        last.unwrap_or(CoreId(0)),
                        &TraceEvent::TaskDone { task: TaskId(tid.0 as u64) },
                    );
                }
            }
            Some(Phase::Compute(ns)) => {
                self.threads[tid.0].remaining_ns = ns;
                self.make_runnable(tid);
            }
            Some(Phase::Sleep(ns)) => {
                self.threads[tid.0].state = ThreadState::Sleeping;
                self.trace_task_sleep(tid);
                self.events.push(self.now + ns, EventKind::SleepDone(tid));
            }
            Some(Phase::Barrier(id)) => {
                self.threads[tid.0].state = ThreadState::AtBarrier(id);
                self.trace_task_sleep(tid);
                let barrier = self
                    .barriers
                    .iter_mut()
                    .find(|b| b.id == id)
                    .expect("validated workloads declare every barrier");
                if let Some(released) = barrier.arrive(tid) {
                    for freed in released {
                        self.enter_phase(freed);
                    }
                }
            }
        }
    }

    /// Places a runnable thread on a core, starting it immediately if the
    /// core is idle.
    fn make_runnable(&mut self, tid: SimThreadId) {
        let prev = self.threads[tid.0].last_core;
        // First placement of a pinned thread: honour the workload's origin
        // core (e.g. "all workers forked on core 0").  Only a first
        // placement reads the workload.
        let origin = if prev.is_none() { self.workload.threads[tid.0].origin_core } else { None };
        let target = match origin {
            Some(origin) => CoreId(origin % self.queues.nr_cores()),
            None => self.scheduler.place_wakeup(&self.queues, &self.threads, tid, prev),
        };
        U::before_change(self, target);
        if self.trace.is_enabled() {
            let task = TaskId(tid.0 as u64);
            self.trace.record_now(target, &TraceEvent::TaskWake { task });
            self.trace.record_now(target, &TraceEvent::PlaceDecision { task, core: target });
        }
        let thread = &mut self.threads[tid.0];
        thread.state = ThreadState::Runnable;
        thread.ready_since = Some(self.now);
        thread.last_core = Some(target);
        if self.queues.core(target).current.is_none() {
            self.queues.set_current(target, Some(tid));
            self.start_running(target, tid);
        } else {
            self.queues.enqueue(target, tid);
        }
        self.touch(target);
        self.trace_core_state(target);
        U::after_change(self, target);
        U::on_wakeup(self);
    }

    /// Starts `tid`, which the queues have just made `core`'s current
    /// thread, and schedules the completion of its compute phase.
    fn start_running(&mut self, core: CoreId, tid: SimThreadId) {
        debug_assert_eq!(self.queues.core(core).current, Some(tid));
        let thread = &mut self.threads[tid.0];
        thread.state = ThreadState::Running;
        thread.running_since = Some(self.now);
        thread.last_core = Some(core);
        if let Some(ready_since) = thread.ready_since.take() {
            assert!(self.now >= ready_since, "a thread cannot run before it is ready");
            self.latency.record(self.now - ready_since);
        }
        let tie = self.events.push(self.now + thread.remaining_ns, EventKind::PhaseDone(tid));
        thread.completion = Some(tie);
    }

    /// Elects the oldest waiting thread of `core` if the core is idle, and
    /// folds the core's tracked load.
    pub(crate) fn elect_next(&mut self, core: CoreId) {
        if let Some(next) = self.queues.promote(core) {
            self.start_running(core, next);
        }
        self.touch(core);
        self.trace_core_state(core);
    }

    fn on_phase_done(&mut self, tid: SimThreadId, tie: u64) {
        if self.threads[tid.0].completion != Some(tie) {
            // The thread was preempted since this completion was scheduled.
            return;
        }
        debug_assert_eq!(self.threads[tid.0].state, ThreadState::Running);
        let core = self.threads[tid.0].last_core.expect("a running thread has a core");
        debug_assert_eq!(self.queues.core(core).current, Some(tid));
        U::before_change(self, core);
        self.queues.set_current(core, None);
        {
            let thread = &mut self.threads[tid.0];
            thread.ops_completed += 1;
            thread.remaining_ns = 0;
            thread.completion = None;
        }
        self.enter_phase(tid);
        self.elect_next(core);
        U::after_change(self, core);
    }

    /// Round-robin preemption: if somebody is waiting on `core`, the running
    /// thread yields the core and requeues at the tail.
    pub(crate) fn preempt(&mut self, core: CoreId) {
        let c = self.queues.core(core);
        let Some(running) = c.current.filter(|_| !c.ready.is_empty()) else {
            return;
        };
        U::before_change(self, core);
        let thread = &mut self.threads[running.0];
        let ran_for = self.now - thread.running_since.expect("running thread has a start time");
        thread.remaining_ns = thread.remaining_ns.saturating_sub(ran_for);
        thread.completion = None;
        thread.state = ThreadState::Runnable;
        thread.ready_since = Some(self.now);
        let next = self.queues.rotate(core).expect("a thread runs and another waits");
        self.start_running(core, next);
        self.touch(core);
        self.trace_core_state(core);
        U::after_change(self, core);
    }

    /// One machine-wide balancing round of the scheduler over the queues as
    /// they are.  Moves waiting threads only: the caller elects afterwards.
    pub(crate) fn balance_round(&mut self) -> FoldedStats {
        if self.trace.is_enabled() {
            self.trace
                .record_now(CoreId(0), &TraceEvent::BalanceRound { round: self.balance_rounds });
        }
        self.balance_rounds += 1;
        let stats = self.scheduler.balance_round(&mut self.queues, &self.threads);
        self.balance_stats.merge(&stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use sched_core::Policy;

    use super::*;
    use crate::engine::Eager;
    use crate::event_engine::Lazy;
    use crate::scheduler::OptimisticScheduler;

    fn construction_panic<U: Upkeep>(config: &SimConfig) -> String {
        let workload = Workload::new("empty");
        let build = || {
            Machine::<U>::new(
                config.clone(),
                None,
                &workload,
                Box::new(OptimisticScheduler::new(Policy::simple())),
            )
        };
        let payload = catch_unwind(AssertUnwindSafe(build)).err().expect("must be rejected");
        payload.downcast_ref::<&str>().expect("an assert! message").to_string()
    }

    #[test]
    fn a_preempted_threads_stale_completion_is_ignored() {
        // Two 10 ms phases on one core: the timer preempts each thread every
        // timeslice, so the completion scheduled when a thread first ran is
        // stale when it fires.  Honouring it would retire a phase early and
        // end the run before the 20 ms of work are done.
        let mut workload = Workload::new("preempted");
        for _ in 0..2 {
            workload.push(sched_workloads::ThreadSpec::new(vec![Phase::Compute(10_000_000)]));
        }
        let scheduler = || Box::new(OptimisticScheduler::new(Policy::simple()));
        let config = SimConfig::with_cores(1);
        for result in [
            Machine::<Eager>::new(config.clone(), None, &workload, scheduler()).run(),
            Machine::<Lazy>::new(config.clone(), None, &workload, scheduler()).run(),
        ] {
            assert!(result.finished);
            assert_eq!((result.operations, result.makespan_ns), (2, 20_000_000));
        }
    }

    /// A scheduling latency is the time from runnable to running; a thread
    /// started before it became runnable is a simulator bug.
    #[test]
    #[should_panic(expected = "cannot run before it is ready")]
    fn negative_latency_is_a_bug() {
        let mut workload = Workload::new("one thread");
        workload.push(sched_workloads::ThreadSpec::new(vec![Phase::Compute(1_000)]));
        let scheduler = Box::new(OptimisticScheduler::new(Policy::simple()));
        let mut machine =
            Machine::<Eager>::new(SimConfig::with_cores(1), None, &workload, scheduler);
        machine.threads[0].ready_since = Some(machine.now + 1);
        machine.queues.set_current(CoreId(0), Some(SimThreadId(0)));
        machine.start_running(CoreId(0), SimThreadId(0));
    }

    #[test]
    fn a_zero_timeslice_or_balance_period_is_rejected_by_both_engines() {
        // Struct-update syntax walks past the builder methods' asserts; a
        // zero step would re-arm the eager timer at `now + 0` forever and
        // divide by zero on the lazy grid.
        let zero_slice = SimConfig { timeslice_ns: 0, ..Default::default() };
        let zero_period = SimConfig { balance_period_ns: 0, ..Default::default() };
        for config in [&zero_slice, &zero_period] {
            for message in [construction_panic::<Eager>(config), construction_panic::<Lazy>(config)]
            {
                assert!(message.contains("must be positive"), "{message}");
            }
        }
    }
}
