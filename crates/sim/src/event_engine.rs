//! The event-driven engine: the simulated machine under its lazy upkeep,
//! O(events) instead of O(cores × ticks).
//!
//! The tick engine ([`crate::engine::Engine`]) keeps every core on the
//! calendar: per-core preemption timers re-arm every timeslice whether or not
//! the core has anything to preempt, and every balance tick eagerly folds
//! every core's tracked load (`touch_all`).  A machine that is 99% asleep
//! still pays for 100% of its cores, which is exactly backwards for the
//! idle-while-overloaded scenarios the paper cares about.
//!
//! This engine is the *same* [`Machine`] — same handlers, same scheduler
//! callbacks, same accounting totals — whose upkeep, [`Lazy`], only pays for
//! cores that have something to do:
//!
//! * **Timer elision** — a core's preemption timer is on the calendar only
//!   while the core is preemptible (someone running *and* someone waiting).
//!   Timers still fire on the tick engine's timeslice grid, so preemptions
//!   land at identical times.
//! * **Balance parking** — once a balance round finds the machine fully
//!   asleep (no queued threads, every tracked load decayed to zero, a no-op
//!   round), the machine-wide balance event leaves the calendar; the next
//!   wakeup re-schedules it on the next balance-grid point.  Every skipped
//!   round is provably a no-op, so the schedule is unchanged.
//! * **Lazy tracker decay** — instead of the O(cores) pre-balance
//!   `touch_all`, each core's tracked load is caught up on demand by
//!   replaying the balance-grid folds it missed
//!   ([`CoreQueues::catch_up`]; decay folds do not compose, so the replay
//!   is fold-for-fold).
//! * **O(1) idle accounting** — the tick engine charges every core on every
//!   event; here a global "some core is overloaded" time integral plus
//!   per-core change timestamps settle each core lazily, producing the same
//!   per-core busy / benign-idle / violating-idle totals.
//! * **Election of mutated cores only** — a balancing round logs the cores
//!   it moved work between; only those are re-elected afterwards.
//!
//! Under the default [`OrderingPolicy::Priority`] the two engines produce
//! bit-identical results (pinned by the parity suites): ranks
//! order simultaneous events as balance, then wakeups in push order, then
//! timers in core order, which is engine-independent.  A tie-break by push
//! order alone could not be: eliding a timer push renumbers every later
//! event.  [`OrderingPolicy::Seeded`]
//! permutes same-time events instead and is the verification mode: sweeping
//! seeds explores alternative same-time schedules, with every run replayable
//! from its seed.
//!
//! [`OrderingPolicy::Priority`]: crate::event::OrderingPolicy::Priority
//! [`OrderingPolicy::Seeded`]: crate::event::OrderingPolicy::Seeded
//! [`CoreQueues::catch_up`]: crate::queues::CoreQueues::catch_up

use sched_core::CoreId;

use crate::config::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::machine::{Machine, Upkeep};

/// The event-driven simulator: a [`Machine`] kept up to date lazily.
/// Construction and results are drop-in compatible with
/// [`crate::engine::Engine`].
pub type EventEngine<'w> = Machine<'w, Lazy>;

/// Per-core bookkeeping the lazy upkeep keeps off the calendar.
#[derive(Debug, Clone)]
struct CoreMeta {
    /// A preemption timer for this core is currently on the calendar.
    timer_armed: bool,
    /// Time this core's timer last fired; guards against arming a second
    /// timer at a timestamp whose timer already fired.  `u64::MAX` = never.
    last_timer_fired_ns: u64,
    /// When the core's idle/busy status last changed (accounting settled).
    last_change_ns: u64,
    /// Idle status over `[last_change_ns, now)`.
    was_idle: bool,
    /// Overload status as currently folded into `nr_overloaded`.
    was_overloaded: bool,
    /// Value of the violation integral at `last_change_ns`.
    v_snapshot: u64,
}

/// The lazy upkeep: a core is brought up to date when something happens to
/// it, and the calendar holds only the timers and ticks that can matter.
#[derive(Debug)]
pub struct Lazy {
    meta: Vec<CoreMeta>,
    /// Number of cores currently holding two or more threads.
    nr_overloaded: usize,
    /// Total simulated time during which some core was overloaded, advanced
    /// to `v_last_ns`.
    v_total: u64,
    v_last_ns: u64,
    /// The machine-wide balance event is off the calendar (machine asleep).
    balance_parked: bool,
}

impl Upkeep for Lazy {
    fn new(nr_cores: usize, config: &SimConfig, events: &mut EventQueue) -> Self {
        // No per-core timers: they are armed on demand.  The balance tick
        // starts live and parks itself once the machine is asleep.
        events.push(config.balance_period_ns, EventKind::Balance);
        Lazy {
            meta: vec![
                CoreMeta {
                    timer_armed: false,
                    last_timer_fired_ns: u64::MAX,
                    last_change_ns: 0,
                    was_idle: true,
                    was_overloaded: false,
                    v_snapshot: 0,
                };
                nr_cores
            ],
            nr_overloaded: 0,
            v_total: 0,
            v_last_ns: 0,
            balance_parked: false,
        }
    }

    /// Advances the machine-wide violation integral to `to` using the state
    /// that held since the previous event.
    fn advance(m: &mut EventEngine<'_>, to: u64) {
        let up = &mut m.upkeep;
        let span = to.saturating_sub(up.v_last_ns);
        if span > 0 && up.nr_overloaded > 0 {
            up.v_total += span;
        }
        up.v_last_ns = to;
    }

    /// Replays the balance-grid tracker folds `core` missed while it was off
    /// the calendar.
    fn before_change(m: &mut EventEngine<'_>, core: CoreId) {
        m.catch_up(core);
    }

    fn after_change(m: &mut EventEngine<'_>, core: CoreId) {
        m.settle(core);
        m.refresh(core);
        m.maybe_arm_timer(core);
    }

    /// Puts the machine-wide balance event back on its grid after a wakeup
    /// ended a fully-asleep episode.
    fn on_wakeup(m: &mut EventEngine<'_>) {
        if !m.upkeep.balance_parked {
            return;
        }
        m.upkeep.balance_parked = false;
        let bp = m.config.balance_period_ns;
        m.events.push((m.now / bp + 1) * bp, EventKind::Balance);
    }

    fn on_timer(m: &mut EventEngine<'_>, core: CoreId) {
        m.upkeep.meta[core.0].timer_armed = false;
        m.upkeep.meta[core.0].last_timer_fired_ns = m.now;
        // A timer that went stale while on the calendar fires as a no-op; a
        // preemption re-arms through `after_change`.
        m.preempt(core);
    }

    fn on_balance(m: &mut EventEngine<'_>) {
        // Bring every core to the present before the selection phase reads
        // it: replay missed grid folds, fold at the present (the tick
        // engine's `touch_all`), and flush idle accounting so the round's
        // mutations settle from a clean slate.  O(cores) here is free —
        // `balance_round` itself snapshots every core anyway.
        for core in 0..m.queues.nr_cores() {
            let id = CoreId(core);
            Self::before_change(m, id);
            m.touch(id);
            m.settle(id);
        }
        m.queues.enable_mutation_log();
        let stats = m.balance_round();
        let mutated = m.queues.drain_mutation_log();
        let round_was_noop = stats.attempts() == 0;
        // Only cores the round actually moved work between need election
        // (the tick engine elects every core, but an untouched core's
        // election is a no-op by the runqueue invariant).
        for &core in &mutated {
            m.elect_next(core);
            Self::after_change(m, core);
        }
        if m.unfinished() {
            let asleep = round_was_noop
                && m.queues.total_threads() == 0
                && m.queues.cores().iter().all(|c| c.tracked.scaled == 0);
            if asleep {
                // Every future round would be a no-op over unchanged queues
                // and fully-decayed loads: park until the next wakeup.
                m.upkeep.balance_parked = true;
            } else {
                m.events.push(m.now + m.config.balance_period_ns, EventKind::Balance);
            }
        }
    }

    fn finish(m: &mut EventEngine<'_>, budget_exhausted: bool) {
        if m.unfinished() && !budget_exhausted {
            // The tick engine keeps every timer and the balance tick on the
            // calendar until the horizon, so its truncated makespan is the
            // last grid point within it; reproduce that without the events.
            let ts = m.config.timeslice_ns;
            let bp = m.config.balance_period_ns;
            let h = m.config.horizon_ns;
            m.now = m.now.max(h / ts * ts).max(h / bp * bp);
        }
        Self::advance(m, m.now);
        for core in 0..m.queues.nr_cores() {
            m.settle(CoreId(core));
        }
    }
}

impl Machine<'_, Lazy> {
    /// Flushes `core`'s idle accounting up to the present using the status
    /// flags stored at its last change (the violation integral must already
    /// be advanced to `self.now`).
    fn settle(&mut self, core: CoreId) {
        let m = &mut self.upkeep.meta[core.0];
        let span = self.now.saturating_sub(m.last_change_ns);
        if span > 0 {
            if m.was_idle {
                let violating = self.upkeep.v_total - m.v_snapshot;
                self.idle.account(core.0, violating, true, true);
                self.idle.account(core.0, span - violating, true, false);
            } else {
                self.idle.account(core.0, span, false, false);
            }
        }
        m.last_change_ns = self.now;
        m.v_snapshot = self.upkeep.v_total;
    }

    /// Re-reads `core`'s live status into its meta and the overload count.
    fn refresh(&mut self, core: CoreId) {
        let (is_idle, is_over) = {
            let c = self.queues.core(core);
            (c.is_idle(), c.is_overloaded())
        };
        let was_over = self.upkeep.meta[core.0].was_overloaded;
        if is_over && !was_over {
            self.upkeep.nr_overloaded += 1;
        } else if !is_over && was_over {
            self.upkeep.nr_overloaded -= 1;
        }
        let m = &mut self.upkeep.meta[core.0];
        m.was_idle = is_idle;
        m.was_overloaded = is_over;
    }

    /// Puts a preemption timer for `core` on the calendar if the core is
    /// preemptible and none is pending.  Timers land on the tick engine's
    /// timeslice grid; a grid point whose timer already fired is skipped.
    fn maybe_arm_timer(&mut self, core: CoreId) {
        if self.upkeep.meta[core.0].timer_armed {
            return;
        }
        {
            let c = self.queues.core(core);
            if c.current.is_none() || c.ready.is_empty() {
                return;
            }
        }
        let ts = self.config.timeslice_ns;
        let at = if self.now > 0
            && self.now.is_multiple_of(ts)
            && self.upkeep.meta[core.0].last_timer_fired_ns != self.now
        {
            self.now
        } else {
            (self.now / ts + 1) * ts
        };
        self.events.push(at, EventKind::Timer(core));
        self.upkeep.meta[core.0].timer_armed = true;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::cfs::{CfsBugs, CfsLikeScheduler};
    use crate::engine::Engine;
    use crate::scheduler::{OptimisticScheduler, SimScheduler};
    use sched_core::policy::TopologyAwareChoice;
    use sched_core::{LoadMetric, Policy};
    use sched_workloads::{Phase, ScientificWorkload, ThreadSpec, Workload};

    fn scientific(nr_threads: usize) -> Workload {
        ScientificWorkload {
            nr_threads,
            iterations: 3,
            phase_ns: 2_000_000,
            jitter: 0.0,
            seed: 1,
            fork_on_core: Some(0),
        }
        .generate()
    }

    #[test]
    fn matches_the_tick_engine_on_a_fork_join_workload() {
        let workload = scientific(8);
        let tick = Engine::new(
            SimConfig::with_cores(8),
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        )
        .run();
        let event = EventEngine::new(
            SimConfig::with_cores(8),
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        )
        .run();
        assert_eq!(event.parity_mismatches(&tick), Vec::<String>::new());
        assert!(
            event.events_processed < tick.events_processed,
            "timer elision must shrink the event count ({} vs {})",
            event.events_processed,
            tick.events_processed
        );
    }

    #[test]
    fn matches_the_tick_engine_under_pelt_decay() {
        let workload = sched_workloads::BurstyWorkload::default().generate();
        let run_tick = |policy: Policy| {
            Engine::new(
                SimConfig::with_cores(8),
                None,
                &workload,
                Box::new(OptimisticScheduler::new(policy)),
            )
            .run()
        };
        let run_event = |policy: Policy| {
            EventEngine::new(
                SimConfig::with_cores(8),
                None,
                &workload,
                Box::new(OptimisticScheduler::new(policy)),
            )
            .run()
        };
        for policy in [Policy::simple, || Policy::pelt(8_000_000)] {
            let (tick, event) = (run_tick(policy()), run_event(policy()));
            assert_eq!(event.parity_mismatches(&tick), Vec::<String>::new());
        }
    }

    #[test]
    fn matches_the_tick_engine_on_numa_topologies_and_buggy_cfs() {
        let topo = sched_topology::TopologyBuilder::new().sockets(2).cores_per_socket(8).build();
        let arc = Arc::new(topo.clone());
        let workload = scientific(topo.nr_cpus());
        let schedulers: Vec<Box<dyn Fn() -> Box<dyn SimScheduler>>> = vec![
            Box::new(|| Box::new(OptimisticScheduler::new(Policy::simple()))),
            Box::new(|| Box::new(CfsLikeScheduler::new(CfsBugs::all()))),
            Box::new(move || {
                let choice = TopologyAwareChoice::new(Arc::clone(&arc), LoadMetric::NrThreads);
                let policy = Policy::simple().with_choice(Box::new(choice));
                Box::new(OptimisticScheduler::with_topology(policy, Arc::clone(&arc)))
            }),
        ];
        for make in schedulers {
            let tick = Engine::new(SimConfig::default(), Some(&topo), &workload, make()).run();
            let event =
                EventEngine::new(SimConfig::default(), Some(&topo), &workload, make()).run();
            assert_eq!(event.parity_mismatches(&tick), Vec::<String>::new());
        }
    }

    #[test]
    fn a_mostly_sleeping_machine_stays_off_the_calendar() {
        // 64 threads that sleep almost the whole run: the tick engine pays
        // for every core every timeslice, the event engine only for the
        // sparse bursts.
        let mut workload = Workload::new("sleepy");
        for i in 0..64u64 {
            let mut spec = ThreadSpec::new(vec![
                Phase::Compute(100_000),
                Phase::Sleep(2_000_000_000 + i * 1_000),
                Phase::Compute(100_000),
            ]);
            spec.arrival_ns = i * 7_000;
            workload.push(spec);
        }
        let config = SimConfig::with_cores(64);
        let tick = Engine::new(
            config.clone(),
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        )
        .run();
        let event = EventEngine::new(
            config,
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        )
        .run();
        assert_eq!(event.parity_mismatches(&tick), Vec::<String>::new());
        assert!(
            event.events_processed * 20 < tick.events_processed,
            "a sleeping machine must cost events proportional to work, not cores × time \
             ({} vs {})",
            event.events_processed,
            tick.events_processed
        );
    }

    #[test]
    fn event_budget_truncates_the_run() {
        let workload = scientific(8);
        let result = EventEngine::new(
            SimConfig::with_cores(8).with_event_budget(10),
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        )
        .run();
        assert!(!result.finished);
        assert_eq!(result.events_processed, 10);
    }

    /// `loads[i]` fixed-length compute tasks pinned to core `i`: the replay
    /// shape the convergence lemmas bound.
    fn replay(loads: &[usize]) -> Workload {
        let mut workload = Workload::new("replay");
        for (core, &n) in loads.iter().enumerate() {
            for _ in 0..n {
                let mut spec = ThreadSpec::new(vec![Phase::Compute(4_000_000)]);
                spec.origin_core = Some(core);
                workload.push(spec);
            }
        }
        workload
    }

    /// Same-time permutations change the schedule but never lose or
    /// duplicate work: every seed reproduces the priority-ordered
    /// baseline's completion and operation count.
    fn assert_seeded_orderings_conserve(workload: &Workload, config: SimConfig, seeds: &[u64]) {
        let run = |config: SimConfig| {
            let scheduler = Box::new(OptimisticScheduler::new(Policy::simple()));
            EventEngine::new(config, None, workload, scheduler).run()
        };
        let baseline = run(config.clone());
        assert!(baseline.finished || config.event_budget.is_some(), "{}", workload.name);
        for &seed in seeds {
            let seeded = config.clone().with_ordering(crate::event::OrderingPolicy::Seeded(seed));
            let result = run(seeded);
            assert_eq!(result.finished, baseline.finished, "{}: seed {seed}", workload.name);
            assert_eq!(result.operations, baseline.operations, "{}: seed {seed}", workload.name);
        }
    }

    #[test]
    fn seeded_ordering_still_satisfies_conservation() {
        let seeds: Vec<u64> = (0..8).collect();
        assert_seeded_orderings_conserve(&scientific(8), SimConfig::with_cores(8), &seeds);
    }

    #[test]
    fn the_ordering_lemma_holds_on_the_single_hot_core_shape() {
        assert_seeded_orderings_conserve(
            &replay(&[12, 0, 0, 0]),
            SimConfig::with_cores(4),
            &[1, 2, 3, 0xDEAD_BEEF],
        );
    }

    #[test]
    fn a_truncating_budget_still_satisfies_the_lemma_vacuously_or_fails_loudly() {
        // Under a budget every ordering stops at exactly the same event
        // count; whether each permutation finishes the same way is exactly
        // what the lemma asks.
        assert_seeded_orderings_conserve(
            &replay(&[8, 0]),
            SimConfig::with_cores(2).with_event_budget(10_000),
            &[7, 11, 13],
        );
    }

    #[test]
    fn horizon_truncation_matches_the_tick_engine() {
        let mut workload = Workload::new("huge");
        workload.push(ThreadSpec::new(vec![Phase::Compute(1_000_000_000)]));
        let config = SimConfig::with_cores(2).horizon(10_500_000);
        let tick = Engine::new(
            config.clone(),
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        )
        .run();
        let event = EventEngine::new(
            config,
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        )
        .run();
        assert!(!tick.finished && !event.finished);
        assert_eq!(event.parity_mismatches(&tick), Vec::<String>::new());
    }
}
