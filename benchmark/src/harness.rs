//! What every executor run shares: machine shape, executor construction,
//! warm-up, the service spin and the process's peak memory.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sched_core::policy::TopologyAwareChoice;
use sched_core::{ChoicePolicy, CoreId, CoreSnapshot, LoadMetric, Policy};
use sched_exec::{ExecConfig, Executor};
use sched_topology::{MachineTopology, TopologyBuilder};
use sched_trace::TraceSink;

/// Closures run before any timing: faults in the job-table shards, the
/// rings, the join cells and the parkers' futexes.  Counted into `setup_s`.
pub const WARM_UP_TASKS: u64 = 2000;
/// Warm-up closures are spawned this many at a time and then joined.  One
/// `spawn().join()` round trip at a time would make set-up 2000 futex wakes
/// long, and a wake costs 7 us or 45 us depending on which vCPU the
/// hypervisor left the worker on: `setup_s` would measure that coin flip,
/// not set-up work.
const WARM_UP_BURST: u64 = 250;

/// The machine the run sees and the worker count derived from it.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Executor threads: one CPU is left for the generator where there is
    /// one to leave, but stealing needs at least two workers, and more than
    /// four adds nothing the CI-class machines can show.
    pub workers: usize,
}

impl Machine {
    /// Reads the available parallelism.
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Machine { nproc, workers: nproc.saturating_sub(1).clamp(2, 4) }
    }
}

/// One socket, one LLC, `cores` CPUs.
pub fn flat(cores: usize) -> Arc<MachineTopology> {
    Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(cores).build())
}

/// Where submissions land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The policy's own `place_wakeup`.
    Policy,
    /// Every submission on worker 0 (the paper's overloaded core).
    PinCore0,
}

/// `TopologyAwareChoice` for stealing, but every wakeup placed on core 0:
/// the other workers get work only by stealing it.
struct PinToCore0(TopologyAwareChoice);

impl ChoicePolicy for PinToCore0 {
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        self.0.choose(thief, candidates)
    }

    fn observe(&self, thief: CoreId, victim: CoreId, success: bool) {
        self.0.observe(thief, victim, success);
    }

    fn place_wakeup(&self, _prev: CoreId, _candidates: &[CoreSnapshot]) -> Option<CoreId> {
        Some(CoreId(0))
    }

    fn name(&self) -> &'static str {
        "pin-core-0"
    }
}

/// `Policy::simple()` with topology-aware victim choice on thread counts.
pub fn policy(topo: &Arc<MachineTopology>, placement: Placement) -> Policy {
    let choice = TopologyAwareChoice::new(Arc::clone(topo), LoadMetric::NrThreads);
    Policy::simple().with_choice(match placement {
        Placement::Policy => Box::new(choice),
        Placement::PinCore0 => Box::new(PinToCore0(choice)),
    })
}

/// Starts an executor (default ring, one-task steals) and warms it up.
pub fn start(workers: usize, placement: Placement, trace: TraceSink) -> Arc<Executor> {
    let topo = flat(workers);
    let policy = policy(&topo, placement);
    let exec = Executor::start(ExecConfig::new(topo, policy).with_trace(trace));
    for burst in 0..WARM_UP_TASKS / WARM_UP_BURST {
        let handles: Vec<_> = (0..WARM_UP_BURST).map(|i| exec.spawn(move || burst + i)).collect();
        for (i, handle) in (0..).zip(handles) {
            assert_eq!(handle.join(), burst + i, "a warm-up closure returned a wrong value");
        }
    }
    Arc::new(exec)
}

/// Burns `ns` of CPU: a request occupies its worker the way real work
/// would, so queueing behind it is real.
pub fn spin_for(ns: u64) {
    let end = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_is_clamped() {
        let m = Machine::detect();
        assert!((2..=4).contains(&m.workers));
    }

    #[test]
    fn pinned_placement_always_picks_core_zero() {
        let topo = flat(4);
        let p = policy(&topo, Placement::PinCore0);
        assert_eq!(p.choice.place_wakeup(CoreId(3), &[]), Some(CoreId(0)));
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
