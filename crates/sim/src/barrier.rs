//! Barrier synchronisation between simulated threads.

use crate::thread::SimThreadId;

/// One barrier: threads block in it until every participant has arrived,
/// then all are released together (and the barrier resets for reuse).
#[derive(Debug, Clone)]
pub struct SimBarrier {
    /// The barrier id used by workload phases.
    pub id: u32,
    /// Number of participants required to release the barrier.
    pub participants: usize,
    waiting: Vec<SimThreadId>,
}

impl SimBarrier {
    /// Creates a barrier for `participants` threads.
    pub fn new(id: u32, participants: usize) -> Self {
        assert!(participants > 0, "a barrier needs at least one participant");
        SimBarrier { id, participants, waiting: Vec::with_capacity(participants) }
    }

    /// Records that `tid` arrived at the barrier.
    ///
    /// Returns the full list of released threads if this arrival was the
    /// last one, or `None` if the barrier is still waiting.
    pub fn arrive(&mut self, tid: SimThreadId) -> Option<Vec<SimThreadId>> {
        debug_assert!(
            !self.waiting.contains(&tid),
            "a thread cannot wait twice at the same barrier"
        );
        self.waiting.push(tid);
        if self.waiting.len() == self.participants {
            Some(std::mem::take(&mut self.waiting))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_when_the_last_participant_arrives() {
        let mut b = SimBarrier::new(0, 3);
        assert!(b.arrive(SimThreadId(0)).is_none());
        assert!(b.arrive(SimThreadId(1)).is_none());
        assert_eq!(b.waiting.len(), 2);
        let released = b.arrive(SimThreadId(2)).unwrap();
        assert_eq!(released.len(), 3);
        assert!(b.waiting.is_empty(), "the barrier resets for the next iteration");
    }

    #[test]
    fn single_participant_barrier_releases_immediately() {
        let mut b = SimBarrier::new(0, 1);
        assert_eq!(b.arrive(SimThreadId(7)).unwrap(), vec![SimThreadId(7)]);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_is_rejected() {
        let _ = SimBarrier::new(0, 0);
    }
}
