//! A CFS-like baseline scheduler with injectable "wasted cores" bugs.
//!
//! The paper's motivation ("The default Linux scheduler (CFS) has been shown
//! to leave cores idle while threads are waiting in runqueues", §1) comes
//! from the Lozi et al. EuroSys'16 study.  This module reproduces the two
//! bug families relevant to load balancing so that the verified optimistic
//! scheduler has a realistic baseline to be compared against:
//!
//! * **overload-on-wakeup** — wakeups only consider the waker's vicinity
//!   (previous core / same node) and stack runnable threads there even when
//!   remote cores are idle;
//! * **group imbalance** — the load balancer compares *average* group loads,
//!   so a node whose average looks fine never gets help even though one of
//!   its cores is heavily overloaded.
//!
//! Without the bug flags the baseline behaves like a sane (but unverified)
//! hierarchical balancer, which is useful as a sanity reference.

use sched_core::CoreId;
use sched_topology::NodeId;
use sched_trace::{FoldedStats, StealOutcomeKind, TraceEvent};

use crate::queues::CoreQueues;
use crate::scheduler::SimScheduler;
use crate::thread::{SimThread, SimThreadId};

/// Which of the documented CFS bugs are injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CfsBugs {
    /// Wakeup placement ignores idle cores outside the waker's vicinity.
    pub overload_on_wakeup: bool,
    /// Inter-node balancing compares group averages instead of spotting
    /// overloaded cores.
    pub group_imbalance: bool,
}

impl CfsBugs {
    /// No bugs: the sane baseline.
    pub fn none() -> Self {
        CfsBugs::default()
    }

    /// Both bugs enabled: the configuration used by E9/E10.
    pub fn all() -> Self {
        CfsBugs { overload_on_wakeup: true, group_imbalance: true }
    }
}

/// The CFS-like baseline scheduler.
#[derive(Debug, Clone)]
pub struct CfsLikeScheduler {
    bugs: CfsBugs,
    /// Minimum per-core thread imbalance before stealing (CFS's
    /// `imbalance_pct`-style hysteresis, expressed in threads).
    imbalance_threshold: u64,
}

impl CfsLikeScheduler {
    /// Creates the baseline with the given bug set.
    pub fn new(bugs: CfsBugs) -> Self {
        CfsLikeScheduler { bugs, imbalance_threshold: 2 }
    }

    /// The injected bug set.
    pub fn bugs(&self) -> CfsBugs {
        self.bugs
    }

    fn node_average_load(queues: &CoreQueues, node: NodeId) -> f64 {
        let cores: Vec<_> = queues.cores().iter().filter(|c| c.node == node).collect();
        if cores.is_empty() {
            return 0.0;
        }
        cores.iter().map(|c| c.nr_threads()).sum::<u64>() as f64 / cores.len() as f64
    }
}

/// Moves `victim`'s newest waiting thread to `thief`, counting the attempt
/// into `stats`: a success with no level, or — when nothing was waiting — a
/// failure.
fn steal_newest(queues: &mut CoreQueues, victim: CoreId, thief: CoreId, stats: &mut FoldedStats) {
    let stole = queues.migrate_newest(victim, thief).is_some();
    stats.observe(&TraceEvent::StealAttempt {
        victim: Some(victim),
        level: None,
        outcome: if stole { StealOutcomeKind::Stole } else { StealOutcomeKind::RecheckFailed },
        k: 1,
        moved: u32::from(stole),
    });
}

impl SimScheduler for CfsLikeScheduler {
    fn name(&self) -> &'static str {
        match (self.bugs.overload_on_wakeup, self.bugs.group_imbalance) {
            (false, false) => "cfs_like",
            (true, false) => "cfs_like+wakeup_bug",
            (false, true) => "cfs_like+group_bug",
            (true, true) => "cfs_like+bugs",
        }
    }

    fn place_wakeup(
        &mut self,
        queues: &CoreQueues,
        _threads: &[SimThread],
        _tid: SimThreadId,
        prev: Option<CoreId>,
    ) -> CoreId {
        if self.bugs.overload_on_wakeup {
            // The buggy wake_affine path: stay on the previous core (or the
            // first core of the machine), regardless of how loaded it is and
            // regardless of idle cores elsewhere.
            return prev.unwrap_or(CoreId(0));
        }
        // Sane behaviour: previous core if idle, otherwise the idlest core of
        // the whole machine.
        if let Some(prev) = prev {
            if queues.core(prev).is_idle() {
                return prev;
            }
        }
        queues.idlest()
    }

    fn balance_round(&mut self, queues: &mut CoreQueues, threads: &[SimThread]) -> FoldedStats {
        let _ = threads;
        let mut stats = FoldedStats::default();
        let core_ids: Vec<CoreId> = queues.cores().iter().map(|c| c.id).collect();
        for thief in core_ids {
            // Find the busiest core (optionally filtered through the buggy
            // group-average comparison).
            let thief_node = queues.core(thief).node;
            let thief_load = queues.core(thief).nr_threads();

            if self.bugs.group_imbalance {
                // The buggy path: compare node averages.  Unless some remote
                // node's *average* load exceeds ours by strictly more than one
                // full thread, conclude the machine is balanced and keep the
                // balancing node-local — even if a single remote core is
                // drowning.  An overloaded core surrounded by idle siblings
                // is exactly what this averaging hides.
                let my_avg = Self::node_average_load(queues, thief_node);
                let busiest_remote_avg = queues
                    .cores()
                    .iter()
                    .map(|c| c.node)
                    .filter(|&n| n != thief_node)
                    .map(|n| Self::node_average_load(queues, n))
                    .fold(0.0f64, f64::max);
                if busiest_remote_avg <= my_avg + 1.0 {
                    // Still allow stealing inside our own node.
                    let local_busiest = queues
                        .cores()
                        .iter()
                        .filter(|c| c.node == thief_node && c.id != thief)
                        .max_by_key(|c| c.nr_threads())
                        .map(|c| (c.id, c.nr_threads()));
                    if let Some((victim, load)) = local_busiest {
                        if load >= thief_load + self.imbalance_threshold {
                            steal_newest(queues, victim, thief, &mut stats);
                        }
                    }
                    continue;
                }
            }

            let busiest = queues
                .cores()
                .iter()
                .filter(|c| c.id != thief)
                .max_by_key(|c| c.nr_threads())
                .map(|c| (c.id, c.nr_threads()));
            if let Some((victim, load)) = busiest {
                if load >= thief_load + self.imbalance_threshold {
                    steal_newest(queues, victim, thief, &mut stats);
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::Weight;

    fn threads(n: usize) -> Vec<SimThread> {
        (0..n).map(|i| SimThread::new(SimThreadId(i), Weight::NICE_0)).collect()
    }

    fn two_node_queues() -> CoreQueues {
        let topo = sched_topology::TopologyBuilder::new().sockets(2).cores_per_socket(4).build();
        CoreQueues::with_topology(&topo)
    }

    #[test]
    fn buggy_wakeup_stacks_threads_on_the_previous_core() {
        let mut sched =
            CfsLikeScheduler::new(CfsBugs { overload_on_wakeup: true, ..CfsBugs::none() });
        let mut queues = CoreQueues::new(4);
        let table = threads(3);
        queues.set_current(CoreId(1), Some(SimThreadId(0)));
        queues.enqueue(CoreId(1), SimThreadId(1));
        // Despite cores 0, 2 and 3 being idle, the waking thread lands on
        // its busy previous core.
        let core = sched.place_wakeup(&queues, &table, SimThreadId(2), Some(CoreId(1)));
        assert_eq!(core, CoreId(1));
        assert_eq!(sched.name(), "cfs_like+wakeup_bug");
    }

    #[test]
    fn sane_wakeup_finds_an_idle_core() {
        let mut sched = CfsLikeScheduler::new(CfsBugs::none());
        let mut queues = CoreQueues::new(4);
        let table = threads(3);
        queues.set_current(CoreId(1), Some(SimThreadId(0)));
        let core = sched.place_wakeup(&queues, &table, SimThreadId(2), Some(CoreId(1)));
        assert_eq!(core, CoreId(0));
    }

    #[test]
    fn group_imbalance_bug_leaves_remote_overload_unattended() {
        let mut sched = CfsLikeScheduler::new(CfsBugs { group_imbalance: true, ..CfsBugs::none() });
        let mut queues = two_node_queues();
        let table = threads(4);
        // Node 1 (cores 4..8): one core holds 4 threads, the rest are idle,
        // so the node average is only 1.0 — the bug hides the overload.
        queues.set_current(CoreId(4), Some(SimThreadId(0)));
        for i in 1..4 {
            queues.enqueue(CoreId(4), SimThreadId(i));
        }
        let stats = sched.balance_round(&mut queues, &table);
        // Idle cores on node 0 never steal (cross-node averages look even);
        // only node-1-local cores may help.
        assert!(queues.core(CoreId(0)).is_idle());
        assert!(!queues.is_work_conserving() || stats.successes > 0);
        assert_eq!(sched.bugs(), CfsBugs { group_imbalance: true, overload_on_wakeup: false });
    }

    #[test]
    fn sane_baseline_does_spread_the_load() {
        let mut sched = CfsLikeScheduler::new(CfsBugs::none());
        let mut queues = two_node_queues();
        let table = threads(5);
        queues.set_current(CoreId(4), Some(SimThreadId(0)));
        for i in 1..5 {
            queues.enqueue(CoreId(4), SimThreadId(i));
        }
        let stats = sched.balance_round(&mut queues, &table);
        assert!(stats.successes >= 3);
        assert_eq!(queues.total_threads(), 5);
    }
}
