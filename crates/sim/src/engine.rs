//! The tick-driven engine: the simulated machine under its eager upkeep,
//! and the reference the event-driven engine is checked against.
//!
//! [`Eager`] keeps every core on the calendar and every number current:
//! each core re-arms its preemption timer every timeslice whether or not it
//! has work, every balance tick folds every core's tracked load and
//! re-elects every core, and every event charges every core's idle time.
//! A run therefore costs O(cores × rounds) even when the machine is mostly
//! asleep — which is the price of being obviously right.
//!
//! [`crate::event_engine::EventEngine`] reproduces exactly the same
//! schedule (pinned by the parity suites) while only paying for cores that
//! have something to do.  This upkeep is its oracle, so it stays
//! *independent* of it: nothing here calls the lazy accounting, the
//! catch-up replay, timer elision, balance parking or the mutation log.
//! It is also the `sim` backend of the experiment records.

use sched_core::CoreId;

use crate::config::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::machine::{Machine, Upkeep};

/// The tick-driven simulator: a [`Machine`] kept up to date eagerly.
pub type Engine<'w> = Machine<'w, Eager>;

/// The eager upkeep: everything about every core, at every event.
#[derive(Debug)]
pub struct Eager {
    /// Time up to which every core's idle time has been charged.
    last_account: u64,
}

impl Upkeep for Eager {
    fn new(nr_cores: usize, config: &SimConfig, events: &mut EventQueue) -> Self {
        for core in 0..nr_cores {
            events.push(config.timeslice_ns, EventKind::Timer(CoreId(core)));
        }
        events.push(config.balance_period_ns, EventKind::Balance);
        Eager { last_account: 0 }
    }

    fn advance(m: &mut Engine<'_>, to: u64) {
        let span = to.saturating_sub(m.upkeep.last_account);
        if span == 0 {
            return;
        }
        let any_overloaded = m.queues.any_overloaded();
        for core in m.queues.cores() {
            m.idle.account(core.id.0, span, core.is_idle(), any_overloaded);
        }
        m.upkeep.last_account = to;
    }

    fn on_timer(m: &mut Engine<'_>, core: CoreId) {
        m.preempt(core);
        if m.unfinished() {
            m.events.push(m.now + m.config.timeslice_ns, EventKind::Timer(core));
        }
    }

    fn on_balance(m: &mut Engine<'_>) {
        // Decay every tracked load to the present before the selection
        // phase reads it, and refresh after the migrations settle.
        m.touch_all();
        m.balance_round();
        // Any core that received work while idle starts running it now
        // (elect_next also refreshes each core's tracked load).
        for core in 0..m.queues.nr_cores() {
            m.elect_next(CoreId(core));
        }
        if m.unfinished() {
            m.events.push(m.now + m.config.balance_period_ns, EventKind::Balance);
        }
    }

    fn finish(m: &mut Engine<'_>, _budget_exhausted: bool) {
        Self::advance(m, m.now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfs::{CfsBugs, CfsLikeScheduler};
    use crate::scheduler::OptimisticScheduler;
    use sched_core::Policy;
    use sched_workloads::{Phase, ScientificWorkload, ThreadSpec, Workload};

    fn small_scientific() -> Workload {
        ScientificWorkload {
            nr_threads: 8,
            iterations: 3,
            phase_ns: 2_000_000,
            jitter: 0.0,
            seed: 1,
            fork_on_core: Some(0),
        }
        .generate()
    }

    #[test]
    fn optimistic_scheduler_finishes_the_scientific_workload() {
        let workload = small_scientific();
        let engine = Engine::new(
            SimConfig::with_cores(8),
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        );
        let result = engine.run();
        assert!(result.finished, "the workload must complete before the horizon");
        assert_eq!(result.operations, 8 * 3);
        // Perfectly parallel, each iteration takes ~2ms: the makespan should
        // be within a small factor of the 6ms ideal.
        assert!(result.makespan_ns >= 6_000_000);
        assert!(result.makespan_ns < 30_000_000, "makespan {} too slow", result.makespan_ns);
    }

    #[test]
    fn buggy_cfs_is_substantially_slower_on_fork_join() {
        // A dual-socket machine; all workers fork on a core of node 0.  The
        // group-imbalance bug keeps node 1 idle, so the barrier workload
        // loses roughly half the machine.
        let topo = sched_topology::TopologyBuilder::new().sockets(2).cores_per_socket(8).build();
        let workload = ScientificWorkload {
            nr_threads: topo.nr_cpus(),
            iterations: 3,
            phase_ns: 2_000_000,
            jitter: 0.0,
            seed: 1,
            fork_on_core: Some(0),
        }
        .generate();
        let good = Engine::new(
            SimConfig::default(),
            Some(&topo),
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        )
        .run();
        let bad = Engine::new(
            SimConfig::default(),
            Some(&topo),
            &workload,
            Box::new(CfsLikeScheduler::new(CfsBugs::all())),
        )
        .run();
        assert!(bad.finished && good.finished);
        assert!(
            bad.slowdown_vs(&good) > 1.5,
            "hiding half the machine should hurt the barrier workload (slowdown {:.2})",
            bad.slowdown_vs(&good)
        );
        assert!(bad.violating_idle_fraction() > good.violating_idle_fraction());
    }

    #[test]
    fn single_thread_workload_runs_to_completion() {
        let mut workload = Workload::new("one");
        workload.push(ThreadSpec::new(vec![
            Phase::Compute(1_000_000),
            Phase::Sleep(500_000),
            Phase::Compute(1_000_000),
        ]));
        let engine = Engine::new(
            SimConfig::with_cores(2),
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        );
        let result = engine.run();
        assert!(result.finished);
        assert_eq!(result.operations, 2);
        assert!(result.makespan_ns >= 2_500_000);
    }

    #[test]
    fn horizon_truncates_unfinished_runs() {
        let mut workload = Workload::new("huge");
        workload.push(ThreadSpec::new(vec![Phase::Compute(1_000_000_000)]));
        let engine = Engine::new(
            SimConfig::with_cores(1).horizon(10_000_000),
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        );
        let result = engine.run();
        assert!(!result.finished);
    }

    #[test]
    fn balancing_statistics_are_collected() {
        let workload = ScientificWorkload {
            nr_threads: 16,
            iterations: 2,
            phase_ns: 8_000_000,
            jitter: 0.0,
            seed: 3,
            fork_on_core: Some(0),
        }
        .generate();
        let result = Engine::new(
            SimConfig::with_cores(8),
            None,
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        )
        .run();
        assert!(result.balance.successes > 0, "forked threads must be spread by stealing");
        assert!(result.latency.count() > 0);
    }

    #[test]
    fn pelt_scheduler_completes_workloads_and_migrates_less_than_instantaneous() {
        // A bursty on/off workload: the instantaneous balancer reacts to
        // every blip, the decayed one only to sustained imbalance.
        let workload = sched_workloads::BurstyWorkload::default().generate();
        let run = |policy: Policy| {
            Engine::new(SimConfig::with_cores(8), None, &workload, {
                Box::new(OptimisticScheduler::new(policy))
            })
            .run()
        };
        let inst = run(Policy::simple());
        let pelt = run(Policy::pelt(8_000_000));
        assert!(inst.finished && pelt.finished);
        assert!(
            pelt.balance.migrations <= inst.balance.migrations,
            "decayed balancing must not out-migrate instantaneous balancing \
             on a bursty workload ({} vs {})",
            pelt.balance.migrations,
            inst.balance.migrations
        );
    }

    #[test]
    fn runs_with_a_numa_topology() {
        let topo = sched_topology::TopologyBuilder::dual_socket_server();
        let workload = ScientificWorkload {
            nr_threads: topo.nr_cpus(),
            iterations: 2,
            phase_ns: 1_000_000,
            jitter: 0.0,
            seed: 5,
            fork_on_core: Some(0),
        }
        .generate();
        let result = Engine::new(
            SimConfig::default(),
            Some(&topo),
            &workload,
            Box::new(OptimisticScheduler::new(Policy::simple())),
        )
        .run();
        assert!(result.finished);
        assert_eq!(result.idle.nr_cores(), topo.nr_cpus());
    }
}
