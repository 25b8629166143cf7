//! Runnable entities carried by the concurrent runqueues.

use sched_core::{Nice, Task, TaskId, Weight};

/// A runnable task as stored in a concurrent runqueue: the identity and
/// niceness of the pure-model [`Task`] it converts to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RqTask {
    /// Identity of the task.
    pub id: TaskId,
    /// Niceness (importance) of the task.
    pub nice: Nice,
}

impl RqTask {
    /// Creates a `nice 0` task.
    pub fn new(id: TaskId) -> Self {
        RqTask { id, nice: Nice::NORMAL }
    }

    /// Creates a task with the given niceness.
    pub fn with_nice(id: TaskId, nice: Nice) -> Self {
        RqTask { id, nice }
    }

    /// Load weight of the task.
    pub fn weight(&self) -> Weight {
        self.nice.weight()
    }

    /// Converts to the pure-model task.
    pub fn to_model(&self) -> Task {
        Task::with_nice(self.id, self.nice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_to_model_preserves_identity_and_nice() {
        let t = RqTask::with_nice(TaskId(9), Nice::new(5));
        let m = t.to_model();
        assert_eq!(m.id, TaskId(9));
        assert_eq!(m.nice, Nice::new(5));
        assert_eq!(t.weight(), m.weight());
    }
}
