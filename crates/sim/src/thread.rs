//! Simulated threads and their lifecycle.

use sched_core::{CoreId, Nice, Weight};
use sched_workloads::{Phase, ThreadSpec};

/// Identifier of a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimThreadId(pub usize);

impl std::fmt::Display for SimThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

/// The lifecycle state of a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// The thread has not arrived yet.
    NotArrived,
    /// The thread is on some core's runqueue, waiting to run.
    Runnable,
    /// The thread is running on its core.
    Running,
    /// The thread is blocked on a sleep/IO.
    Sleeping,
    /// The thread is blocked waiting for a barrier.
    AtBarrier(u32),
    /// The thread has executed all its phases.
    Finished,
}

/// One simulated thread.
#[derive(Debug, Clone)]
pub struct SimThread {
    /// Identity of the thread.
    pub id: SimThreadId,
    /// The workload description of the thread.
    pub spec: ThreadSpec,
    /// Lifecycle state.
    pub state: ThreadState,
    /// Index of the phase currently being executed (or about to be).
    pub phase_idx: usize,
    /// Remaining CPU time of the current compute phase, in nanoseconds.
    pub remaining_ns: u64,
    /// Core the thread last ran (or is running) on.
    pub last_core: Option<CoreId>,
    /// Time the thread last became runnable (for scheduling latency).
    pub ready_since: Option<u64>,
    /// Time the thread last started running (for preemption accounting).
    pub running_since: Option<u64>,
    /// Calendar tie of the thread's one live phase completion, while it
    /// runs; any other completion of the thread is stale.
    pub completion: Option<u64>,
    /// Number of completed compute phases ("operations").
    pub ops_completed: u64,
    /// Completion time, once finished.
    pub finish_time: Option<u64>,
}

impl SimThread {
    /// Creates a thread from its workload spec.
    pub fn new(id: SimThreadId, spec: ThreadSpec) -> Self {
        SimThread {
            id,
            spec,
            state: ThreadState::NotArrived,
            phase_idx: 0,
            remaining_ns: 0,
            last_core: None,
            ready_since: None,
            running_since: None,
            completion: None,
            ops_completed: 0,
            finish_time: None,
        }
    }

    /// Niceness of the thread.
    pub fn nice(&self) -> Nice {
        Nice::new(self.spec.nice)
    }

    /// Load weight of the thread.
    pub fn weight(&self) -> Weight {
        self.nice().weight()
    }

    /// The phase the thread is currently executing, if any remain.
    pub fn current_phase(&self) -> Option<Phase> {
        self.spec.phases.get(self.phase_idx).copied()
    }

    /// Returns `true` if the thread contributes to a core's load (it is
    /// either running or waiting on a runqueue).
    pub fn is_on_a_runqueue(&self) -> bool {
        matches!(self.state, ThreadState::Runnable | ThreadState::Running)
    }

    /// Returns `true` if the thread has completed all its phases.
    pub fn is_finished(&self) -> bool {
        matches!(self.state, ThreadState::Finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_starts_before_arrival() {
        let t = SimThread::new(SimThreadId(0), ThreadSpec::new(vec![Phase::Compute(100)]));
        assert_eq!(t.state, ThreadState::NotArrived);
        assert!(!t.is_on_a_runqueue());
        assert!(!t.is_finished());
        assert_eq!(t.current_phase(), Some(Phase::Compute(100)));
        assert_eq!(t.weight(), Weight::NICE_0);
    }

    #[test]
    fn display_and_phase_iteration() {
        let mut t = SimThread::new(
            SimThreadId(3),
            ThreadSpec::new(vec![Phase::Compute(100), Phase::Sleep(50)]),
        );
        assert_eq!(t.id.to_string(), "thread3");
        t.phase_idx = 1;
        assert_eq!(t.current_phase(), Some(Phase::Sleep(50)));
        t.phase_idx = 2;
        assert_eq!(t.current_phase(), None);
    }
}
