//! Runnable entities carried by the concurrent runqueues.

use sched_core::{Nice, TaskId, Weight};

/// A runnable task as stored in a concurrent runqueue: the identity and
/// niceness of a pure-model [`sched_core::Task`].
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_rq_task_weighs_what_the_model_task_weighs() {
        let t = RqTask::with_nice(TaskId(9), Nice::new(5));
        let m = sched_core::Task::with_nice(TaskId(9), Nice::new(5));
        assert_eq!((t.id, t.nice), (m.id, m.nice));
        assert_eq!(t.weight(), m.weight());
        assert_eq!(RqTask::new(TaskId(9)).nice, Nice::NORMAL);
    }
}
