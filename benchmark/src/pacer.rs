//! The open-loop pacer: sleep until shortly before an absolute due time,
//! then spin.
//!
//! Due times come from the schedule and are never recomputed from "now":
//! a late release delays that one request only, so oversleeping cannot
//! drift the rest of the schedule.  The release instant is returned so the
//! caller can report how late the generator ran.

use std::time::{Duration, Instant};

/// How long before the due time the pacer stops sleeping and spins.
/// `thread::sleep` overshoots by tens of microseconds; spinning the last
/// stretch keeps releases on time without burning a core between
/// arrivals.
pub const SPIN_NS: u64 = 80_000;

/// Time as the pacer sees it; the tests substitute a clock that oversleeps.
pub trait Clock {
    /// Nanoseconds since the run's epoch.
    fn now_ns(&self) -> u64;
    /// Blocks for roughly `ns`.
    fn sleep_ns(&self, ns: u64);
}

/// Wall time since a fixed epoch.
#[derive(Debug, Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    /// An epoch starting now.
    pub fn start() -> Self {
        Epoch(Instant::now())
    }
}

impl Clock for Epoch {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_ns(&self, ns: u64) {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// Blocks until `due_ns` and returns the instant of release (≥ `due_ns`).
pub fn wait_until(clock: &impl Clock, due_ns: u64) -> u64 {
    loop {
        let now = clock.now_ns();
        if now >= due_ns {
            return now;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            clock.sleep_ns(left - SPIN_NS);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Advances only when asked: sleeps overshoot by a fixed amount, each
    /// `now_ns` costs 1 µs.
    struct Oversleeper {
        now: Cell<u64>,
        overshoot_ns: u64,
        sleeps: Cell<u32>,
    }

    impl Clock for Oversleeper {
        fn now_ns(&self) -> u64 {
            self.now.set(self.now.get() + 1_000);
            self.now.get()
        }

        fn sleep_ns(&self, ns: u64) {
            self.sleeps.set(self.sleeps.get() + 1);
            self.now.set(self.now.get() + ns + self.overshoot_ns);
        }
    }

    #[test]
    fn releases_follow_absolute_due_times_without_drift() {
        // Sleeps overshoot by 50 µs (inside the spin margin): every
        // release must land within a clock step of its due time, the
        // 1000th as punctually as the first.
        let clock = Oversleeper { now: Cell::new(0), overshoot_ns: 50_000, sleeps: Cell::new(0) };
        for i in 1..=1000u64 {
            let due = i * 250_000;
            let released = wait_until(&clock, due);
            assert!(released >= due, "released early");
            assert!(released - due <= 1_000, "request {i} released {} ns late", released - due);
        }
        assert!(clock.sleeps.get() >= 1000, "long gaps are slept, not spun");
    }

    #[test]
    fn a_late_release_does_not_push_later_requests_back() {
        // Sleeps overshoot by 300 µs — more than one 250 µs gap, so the
        // generator falls behind.  Lateness must stay bounded by one
        // overshoot rather than accumulate, because due times are absolute.
        let clock = Oversleeper { now: Cell::new(0), overshoot_ns: 300_000, sleeps: Cell::new(0) };
        let mut worst = 0;
        for i in 1..=1000u64 {
            let due = i * 250_000;
            worst = worst.max(wait_until(&clock, due) - due);
        }
        assert!(worst <= 300_000 - SPIN_NS + 2_000, "lateness accumulated: {worst} ns");
    }

    #[test]
    fn a_past_due_time_releases_immediately() {
        let clock =
            Oversleeper { now: Cell::new(5_000_000), overshoot_ns: 0, sleeps: Cell::new(0) };
        assert_eq!(wait_until(&clock, 1_000), 5_001_000);
        assert_eq!(clock.sleeps.get(), 0);
    }
}
