//! Workload description consumed by the simulator.

/// One phase of a thread's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Execute on a CPU for this many nanoseconds.
    Compute(u64),
    /// Sleep (blocked, off the runqueue) for this many nanoseconds.
    Sleep(u64),
    /// Wait at the barrier with this id until every participant arrives.
    Barrier(u32),
}

impl Phase {
    /// Returns the CPU time this phase consumes.
    fn cpu_ns(&self) -> u64 {
        match self {
            Phase::Compute(ns) => *ns,
            _ => 0,
        }
    }

    /// Returns the wall time this phase occupies on its own (compute or
    /// sleep duration; zero for barriers, whose wait depends on the other
    /// participants).
    pub fn duration_ns(&self) -> u64 {
        match self {
            Phase::Compute(ns) | Phase::Sleep(ns) => *ns,
            Phase::Barrier(_) => 0,
        }
    }
}

/// The static description of one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSpec {
    /// Niceness of the thread (importance).
    pub nice: i8,
    /// Time at which the thread becomes runnable for the first time.
    pub arrival_ns: u64,
    /// Core the thread is initially placed on, if the workload pins the
    /// fork; `None` lets the scheduler's wakeup placement decide.
    pub origin_core: Option<usize>,
    /// The phases the thread executes, in order.
    pub phases: Vec<Phase>,
}

impl ThreadSpec {
    /// Creates a spec arriving at time zero with default niceness.
    pub fn new(phases: Vec<Phase>) -> Self {
        ThreadSpec { nice: 0, arrival_ns: 0, origin_core: None, phases }
    }

    /// Total CPU demand of the thread.
    pub fn total_cpu_ns(&self) -> u64 {
        self.phases.iter().map(Phase::cpu_ns).sum()
    }

    /// Number of `Compute` phases — the "operations" counted for throughput.
    pub fn nr_operations(&self) -> u64 {
        self.phases.iter().filter(|p| matches!(p, Phase::Compute(_))).count() as u64
    }
}

/// A complete workload: a set of threads plus barrier membership counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Workload {
    /// Human-readable name used in experiment tables.
    pub name: String,
    /// The threads of the workload.
    pub threads: Vec<ThreadSpec>,
    /// For each barrier id used by the threads, the number of participants.
    pub barriers: Vec<(u32, usize)>,
}

impl Workload {
    /// Creates an empty workload.
    pub fn new(name: impl Into<String>) -> Self {
        Workload { name: name.into(), threads: Vec::new(), barriers: Vec::new() }
    }

    /// Adds a thread.
    pub fn push(&mut self, spec: ThreadSpec) -> &mut Self {
        self.threads.push(spec);
        self
    }

    /// Declares a barrier with the given participant count.
    pub fn declare_barrier(&mut self, id: u32, participants: usize) -> &mut Self {
        self.barriers.push((id, participants));
        self
    }

    /// Number of threads.
    pub fn nr_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total CPU demand across all threads.
    pub fn total_cpu_ns(&self) -> u64 {
        self.threads.iter().map(ThreadSpec::total_cpu_ns).sum()
    }

    /// Total number of operations (compute phases) across all threads.
    pub fn total_operations(&self) -> u64 {
        self.threads.iter().map(ThreadSpec::nr_operations).sum()
    }

    /// The ideal (perfectly parallel, zero-overhead) makespan on `nr_cores`
    /// cores: total CPU time divided by core count, ignoring barriers and
    /// sleeps.  Used as the denominator of slowdown factors in experiment
    /// tables.
    pub fn ideal_makespan_ns(&self, nr_cores: usize) -> u64 {
        if nr_cores == 0 {
            return 0;
        }
        self.total_cpu_ns() / nr_cores as u64
    }

    /// Validates that every barrier referenced by a thread is declared with
    /// a participant count matching the number of threads that use it.
    pub fn validate(&self) -> Result<(), String> {
        for (id, participants) in &self.barriers {
            let users = self
                .threads
                .iter()
                .filter(|t| t.phases.iter().any(|p| matches!(p, Phase::Barrier(b) if b == id)))
                .count();
            if users != *participants {
                return Err(format!(
                    "barrier {id} declares {participants} participants but {users} threads use it"
                ));
            }
        }
        for thread in &self.threads {
            for phase in &thread.phases {
                if let Phase::Barrier(id) = phase {
                    if !self.barriers.iter().any(|(b, _)| b == id) {
                        return Err(format!("barrier {id} is used but never declared"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_spec_accounting() {
        let spec = ThreadSpec::new(vec![
            Phase::Compute(1_000),
            Phase::Sleep(5_000),
            Phase::Compute(2_000),
            Phase::Barrier(0),
        ]);
        assert_eq!(spec.total_cpu_ns(), 3_000);
        assert_eq!(spec.nr_operations(), 2);
    }

    #[test]
    fn workload_validation_catches_mismatched_barriers() {
        let mut w = Workload::new("test");
        w.push(ThreadSpec::new(vec![Phase::Barrier(0)]));
        w.push(ThreadSpec::new(vec![Phase::Barrier(0)]));
        w.declare_barrier(0, 3);
        assert!(w.validate().is_err());
        let mut ok = Workload::new("test");
        ok.push(ThreadSpec::new(vec![Phase::Barrier(0)]));
        ok.push(ThreadSpec::new(vec![Phase::Barrier(0)]));
        ok.declare_barrier(0, 2);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn undeclared_barrier_is_rejected() {
        let mut w = Workload::new("test");
        w.push(ThreadSpec::new(vec![Phase::Barrier(7)]));
        assert!(w.validate().is_err());
    }

    #[test]
    fn ideal_makespan_divides_by_cores() {
        let mut w = Workload::new("test");
        for _ in 0..4 {
            w.push(ThreadSpec::new(vec![Phase::Compute(1_000_000)]));
        }
        assert_eq!(w.ideal_makespan_ns(4), 1_000_000);
        assert_eq!(w.ideal_makespan_ns(2), 2_000_000);
        assert_eq!(w.ideal_makespan_ns(0), 0);
        assert_eq!(w.total_operations(), 4);
        assert_eq!(w.nr_threads(), 4);
    }
}
