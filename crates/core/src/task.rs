//! Tasks (threads), their niceness and their load weights.

/// Globally unique identifier of a task (a schedulable thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl TaskId {
    /// Returns the raw id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Unix niceness of a task, clamped to the conventional `[-20, 19]` range.
///
/// "CFS considers some threads more important (different niceness), and gives
/// them a higher share of CPU resources" (§3.1) — the weighted load metric
/// and the weighted balancing policy consume this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nice(i8);

impl Nice {
    /// The default niceness.
    pub const NORMAL: Nice = Nice(0);

    /// Creates a niceness, clamping to `[-20, 19]`.
    pub fn new(nice: i8) -> Self {
        Nice(nice.clamp(-20, 19))
    }

    /// Returns the raw niceness value.
    pub fn value(self) -> i8 {
        self.0
    }

    /// Converts the niceness to its CFS load weight.
    pub fn weight(self) -> Weight {
        Weight::from_nice(self)
    }
}

impl Default for Nice {
    fn default() -> Self {
        Nice::NORMAL
    }
}

/// Load weight of a task, in the same units as Linux (`nice 0` ⇒ 1024).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Weight(pub u64);

/// The CFS `sched_prio_to_weight` table: weight for each niceness from -20
/// (index 0) to 19 (index 39).  Each step multiplies the CPU share by ~1.25.
const PRIO_TO_WEIGHT: [u64; 40] = [
    88761, 71755, 56483, 46273, 36291, // -20 .. -16
    29154, 23254, 18705, 14949, 11916, // -15 .. -11
    9548, 7620, 6100, 4904, 3906, // -10 .. -6
    3121, 2501, 1991, 1586, 1277, // -5 .. -1
    1024, 820, 655, 526, 423, // 0 .. 4
    335, 272, 215, 172, 137, // 5 .. 9
    110, 87, 70, 56, 45, // 10 .. 14
    36, 29, 23, 18, 15, // 15 .. 19
];

impl Weight {
    /// Weight of a `nice 0` task.
    pub const NICE_0: Weight = Weight(1024);

    /// Smallest weight in the niceness table (`nice 19`).
    pub const MIN: Weight = Weight(15);

    /// Largest weight in the niceness table (`nice -20`).
    pub const MAX: Weight = Weight(88761);

    /// Converts a niceness value to its load weight using the CFS table.
    pub fn from_nice(nice: Nice) -> Self {
        Weight(PRIO_TO_WEIGHT[(nice.value() as i32 + 20) as usize])
    }

    /// Returns the raw weight.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl Default for Weight {
    fn default() -> Self {
        Weight::NICE_0
    }
}

/// A schedulable thread in the scheduler model.
///
/// The model only tracks the properties load balancing consumes: identity
/// and importance (niceness/weight).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Unique identity of the task.
    pub id: TaskId,
    /// Niceness (importance) of the task.
    pub nice: Nice,
}

impl Task {
    /// Creates a `nice 0` task.
    pub fn new(id: TaskId) -> Self {
        Task { id, nice: Nice::NORMAL }
    }

    /// Creates a task with the given niceness.
    pub fn with_nice(id: TaskId, nice: Nice) -> Self {
        Task { id, nice }
    }

    /// Load weight of this task.
    pub fn weight(&self) -> Weight {
        self.nice.weight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nice_is_clamped() {
        assert_eq!(Nice::new(-100).value(), -20);
        assert_eq!(Nice::new(100).value(), 19);
        assert_eq!(Nice::new(5).value(), 5);
    }

    #[test]
    fn nice_zero_weight_is_1024() {
        assert_eq!(Nice::NORMAL.weight(), Weight::NICE_0);
    }

    #[test]
    fn weight_table_is_monotonically_decreasing_in_nice() {
        let mut prev = Weight::from_nice(Nice::new(-20));
        for n in -19..=19 {
            let w = Weight::from_nice(Nice::new(n));
            assert!(w < prev, "weight must decrease as niceness increases");
            prev = w;
        }
        assert_eq!(Weight::from_nice(Nice::new(-20)), Weight::MAX);
        assert_eq!(Weight::from_nice(Nice::new(19)), Weight::MIN);
    }

    #[test]
    fn each_nice_step_changes_share_by_about_25_percent() {
        for n in -20..19 {
            let w0 = Weight::from_nice(Nice::new(n)).raw() as f64;
            let w1 = Weight::from_nice(Nice::new(n + 1)).raw() as f64;
            let ratio = w0 / w1;
            assert!((1.15..1.40).contains(&ratio), "ratio {ratio} at nice {n}");
        }
    }

    #[test]
    fn task_builders() {
        let t = Task::with_nice(TaskId(7), Nice::new(-5));
        assert_eq!(t.id.raw(), 7);
        assert_eq!(t.weight(), Weight::from_nice(Nice::new(-5)));
        assert_eq!(Task::new(TaskId(7)).nice, Nice::NORMAL);
        assert_eq!(t.id.to_string(), "task7");
    }
}
