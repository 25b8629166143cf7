//! Simulated threads and their lifecycle.

use sched_core::{CoreId, Weight};
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

/// One simulated thread: its run state only.  Its phase program, arrival
/// time and origin core stay in the workload the machine borrows.
#[derive(Debug, Clone)]
pub struct SimThread {
    /// Identity of the thread.
    pub id: SimThreadId,
    /// Load weight of the thread, from its niceness.
    weight: Weight,
    /// Lifecycle state.
    pub state: ThreadState,
    /// Index in the thread's program of `next_phase`: the number of
    /// phases entered since arrival.  Private, so that only
    /// [`SimThread::enter_next_phase`] moves it and the read-ahead stays in
    /// step.
    phase_idx: usize,
    /// The phase the thread enters next (`None` once none remain), read
    /// ahead when the previous one was entered, so that a phase change
    /// finds it here instead of in the program's memory.
    next_phase: Option<Phase>,
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
}

impl SimThread {
    /// Creates a thread of load `weight` that has not arrived yet.
    pub fn new(id: SimThreadId, weight: Weight) -> Self {
        SimThread {
            id,
            weight,
            state: ThreadState::NotArrived,
            phase_idx: 0,
            next_phase: None,
            remaining_ns: 0,
            last_core: None,
            ready_since: None,
            running_since: None,
            completion: None,
            ops_completed: 0,
        }
    }

    /// Load weight of the thread.
    pub fn weight(&self) -> Weight {
        self.weight
    }

    /// The thread arrives: reads the first phase of `spec`, its program.
    pub fn arrive(&mut self, spec: &ThreadSpec) {
        self.phase_idx = 0;
        self.next_phase = spec.phases.first().copied();
    }

    /// Enters the thread's next phase: returns it, or `None` once its
    /// program `spec` is done, and reads the one after it ahead.  Nothing
    /// waits on that read until the thread's next phase change.
    pub fn enter_next_phase(&mut self, spec: &ThreadSpec) -> Option<Phase> {
        let phase = self.next_phase;
        self.phase_idx += 1;
        self.next_phase = spec.phases.get(self.phase_idx).copied();
        phase
    }
}

// One per simulated thread, and read on every event: a field that grows it,
// or a copy of the thread's spec moving back in, fails the build.
const _: () = assert!(std::mem::size_of::<SimThread>() <= 128);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_starts_before_arrival() {
        let t = SimThread::new(SimThreadId(0), Weight::NICE_0);
        assert_eq!(t.state, ThreadState::NotArrived);
        assert_eq!(t.phase_idx, 0);
        assert_eq!(t.weight(), Weight::NICE_0);
    }

    #[test]
    fn display_and_phase_iteration() {
        let spec = ThreadSpec::new(vec![Phase::Compute(100), Phase::Sleep(50)]);
        let mut t = SimThread::new(SimThreadId(3), Weight::NICE_0);
        assert_eq!(t.id.to_string(), "thread3");
        t.arrive(&spec);
        assert_eq!(t.enter_next_phase(&spec), Some(Phase::Compute(100)));
        assert_eq!(t.phase_idx, 1);
        assert_eq!(t.enter_next_phase(&spec), Some(Phase::Sleep(50)));
        assert_eq!(t.enter_next_phase(&spec), None);
        assert_eq!(t.enter_next_phase(&spec), None);
    }
}
