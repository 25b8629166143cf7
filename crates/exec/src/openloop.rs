//! The open-loop load generator: Poisson arrivals, seeded service mixes.
//!
//! Closed-loop harnesses (a fixed pool of callers, each waiting for its
//! previous request) hide latency problems by construction: when the
//! system slows down the offered load politely slows down with it, so the
//! queues never reveal the knee.  An *open-loop* generator submits on a
//! schedule that does not care how the executor is doing — arrivals are a
//! Poisson process at a configured rate, exactly like independent users —
//! so when service falls behind, queueing delay shows up undiluted in the
//! measured end-to-end latency.  That is the methodology the latency
//! ladder (`e26`) sweeps toward saturation.
//!
//! The latency is measured **from outside the executor**, which runs
//! closures and knows nothing of requests: [`drive`] owns one slot per
//! scheduled arrival, each request is a spawned closure that spins its
//! service time and writes how long it took into its slot, and the
//! [`OpenLoopReport`] folds the slots into a histogram once the caller has
//! drained.  A request's clock starts at its *scheduled* arrival, not when
//! the generator got round to submitting it: time the generator runs late
//! is time the request waited, and stamping at submission would leave out
//! exactly the delays an overloaded system causes (coordinated omission).
//!
//! Everything is deterministic given the seed: the arrival timestamps and
//! the per-request service times come from one splitmix64 stream, so a
//! scenario replays the identical request schedule on every run (the
//! *submission* schedule, that is — wall-clock jitter in when those
//! submissions land is the operating system's to add).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sched_core::{splitmix64, SPLITMIX64_GAMMA};
use sched_metrics::Histogram;

use crate::executor::Executor;

/// The per-request service-time distribution of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMix {
    /// Every request costs exactly `ns` nanoseconds of spinning.
    Fixed {
        /// Service time of every request.
        ns: u64,
    },
    /// Exponentially distributed service times with the given mean — the
    /// classic M/M/c shape.
    Exp {
        /// Mean service time.
        mean_ns: u64,
    },
    /// A short/long mixture: `long_pct` percent of requests cost
    /// `long_ns`, the rest cost `short_ns` — the mice-and-elephants shape
    /// that makes tail latency interesting.
    Bimodal {
        /// Service time of the common, short requests.
        short_ns: u64,
        /// Service time of the rare, long requests.
        long_ns: u64,
        /// Percentage (0–100) of requests that are long.
        long_pct: u8,
    },
}

impl ServiceMix {
    /// Samples one service time from the mix using `u` (a uniform draw).
    fn sample(&self, u: u64) -> u64 {
        match *self {
            ServiceMix::Fixed { ns } => ns,
            ServiceMix::Exp { mean_ns } => {
                // Inverse CDF: -ln(u) * mean, u uniform in (0, 1].
                let x = (-unit_open(u).ln()) * mean_ns as f64;
                x.min(u64::MAX as f64) as u64
            }
            ServiceMix::Bimodal { short_ns, long_ns, long_pct } => {
                if u % 100 < u64::from(long_pct.min(100)) {
                    long_ns
                } else {
                    short_ns
                }
            }
        }
    }

    /// Mean service time of the mix, in nanoseconds (exact for fixed and
    /// exponential, the weighted average for bimodal).
    pub fn mean_ns(&self) -> u64 {
        match *self {
            ServiceMix::Fixed { ns } => ns,
            ServiceMix::Exp { mean_ns } => mean_ns,
            ServiceMix::Bimodal { short_ns, long_ns, long_pct } => {
                let pct = u64::from(long_pct.min(100));
                (long_ns * pct + short_ns * (100 - pct)) / 100
            }
        }
    }
}

/// One open-loop run: who arrives when, costing what, for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSpec {
    /// Mean arrival rate, requests per second.
    pub rate_hz: u64,
    /// Horizon of the arrival schedule, in milliseconds.
    pub duration_ms: u64,
    /// Per-request service-time distribution.
    pub service: ServiceMix,
    /// Seed of the arrival/service stream.
    pub seed: u64,
}

impl OpenLoopSpec {
    /// The deterministic arrival schedule this spec describes.
    pub fn arrivals(&self) -> ArrivalStream {
        ArrivalStream {
            state: self.seed,
            next_at_ns: 0.0,
            gap_ns: 1e9 / (self.rate_hz.max(1) as f64),
            horizon_ns: self.duration_ms.saturating_mul(1_000_000),
            service: self.service,
        }
    }

    /// Offered load in service-seconds per second (ρ for one worker;
    /// divide by the worker count for the per-core utilisation).
    pub fn offered_load(&self) -> f64 {
        self.rate_hz as f64 * self.service.mean_ns() as f64 / 1e9
    }
}

/// Maps a raw 64-bit draw onto a uniform float in the open-closed unit
/// interval (never zero, so `ln` is always finite).
fn unit_open(u: u64) -> f64 {
    ((u >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// One scheduled request: when it arrives and what it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time, nanoseconds from the start of the run.
    pub at_ns: u64,
    /// Sampled service time.
    pub service_ns: u64,
}

/// The seeded, deterministic request schedule of an [`OpenLoopSpec`].
///
/// Iterating yields [`Arrival`]s in time order until the horizon; the
/// sequence depends only on the spec (same seed ⇒ same schedule, bit for
/// bit), which the generator proptests pin.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    state: u64,
    next_at_ns: f64,
    gap_ns: f64,
    horizon_ns: u64,
    service: ServiceMix,
}

impl ArrivalStream {
    /// The next [`splitmix64`] draw, the workspace's one seeded stream.
    fn next_u64(&mut self) -> u64 {
        let state = self.state;
        self.state = state.wrapping_add(SPLITMIX64_GAMMA);
        splitmix64(state)
    }
}

impl Iterator for ArrivalStream {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        // Poisson process: exponential inter-arrival gaps at the mean rate.
        let gap = -unit_open(self.next_u64()).ln() * self.gap_ns;
        self.next_at_ns += gap;
        let at_ns = self.next_at_ns as u64;
        if at_ns >= self.horizon_ns {
            return None;
        }
        let draw = self.next_u64();
        let service_ns = self.service.sample(draw);
        Some(Arrival { at_ns, service_ns })
    }
}

/// What an open-loop run submitted and, once the executor has drained,
/// how long each request took.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Requests submitted to the executor.
    pub submitted: u64,
    /// Wall-clock length of the submission phase, nanoseconds.
    pub wall_ns: u64,
    /// One slot per request: nanoseconds from its scheduled arrival to the
    /// end of its service, written by its closure; 0 until it has run.
    latency_ns: Arc<[AtomicU64]>,
}

impl OpenLoopReport {
    /// End-to-end latency, in microseconds, of every request that has
    /// completed: from its scheduled arrival to the end of its service.
    /// Read it after [`Executor::drain`] and it covers the whole schedule,
    /// the backlog included.
    pub fn latency_us(&self) -> Histogram {
        let mut latency = Histogram::new();
        for slot in self.latency_ns.iter() {
            // Relaxed is enough after a drain: the completion count the
            // drain waited for was bumped after the closure's store.
            match slot.load(Ordering::Relaxed) {
                0 => {}
                ns => latency.record(ns / 1_000),
            }
        }
        latency
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Burns roughly `ns` nanoseconds of CPU (the "service" of a request).
/// Spinning, not sleeping: a request occupies its core exactly the way real
/// work would, which is what makes the measured queueing delays honest.
pub(crate) fn spin_for(ns: u64) {
    let end = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Drives `spec`'s arrival schedule into `exec` in real time.
///
/// The generator sleeps until each arrival's timestamp and spawns it,
/// *never* waiting for completions — that is the open-loop contract.  If
/// the clock has already passed a batch of arrivals (sleep overshoot, or
/// an executor hogging every core of a small machine), they are submitted
/// back to back; their queueing delay is real and belongs in the
/// measurement, which is why each request is timed from its scheduled
/// arrival.  Returns once the schedule is exhausted, without draining:
/// callers decide whether to wait for the queues to empty
/// ([`Executor::drain`]) before reading [`OpenLoopReport::latency_us`].
pub fn drive(exec: &Executor, spec: OpenLoopSpec) -> OpenLoopReport {
    let schedule: Vec<Arrival> = spec.arrivals().collect();
    let latency_ns: Arc<[AtomicU64]> = schedule.iter().map(|_| AtomicU64::new(0)).collect();
    let start = Instant::now();
    for (slot, arrival) in schedule.iter().enumerate() {
        let due = Duration::from_nanos(arrival.at_ns);
        loop {
            let elapsed = start.elapsed();
            if elapsed >= due {
                break;
            }
            // Sleep in one go: the OS may overshoot, which for an
            // open-loop generator is fine — late submissions queue up.
            std::thread::sleep(due - elapsed);
        }
        let (latency_ns, Arrival { at_ns, service_ns }) = (Arc::clone(&latency_ns), *arrival);
        // Nobody joins a request: the dropped handle costs its completion
        // nothing.
        drop(exec.spawn(move || {
            spin_for(service_ns);
            let waited_ns = elapsed_ns(start).saturating_sub(at_ns);
            latency_ns[slot].store(waited_ns.max(1), Ordering::Relaxed);
        }));
    }
    OpenLoopReport { submitted: schedule.len() as u64, wall_ns: elapsed_ns(start), latency_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate_hz: u64, duration_ms: u64, service: ServiceMix, seed: u64) -> OpenLoopSpec {
        OpenLoopSpec { rate_hz, duration_ms, service, seed }
    }

    #[test]
    fn arrivals_are_time_ordered_and_bounded_by_the_horizon() {
        let s = spec(50_000, 20, ServiceMix::Fixed { ns: 1_000 }, 7);
        let mut last = 0;
        for a in s.arrivals() {
            assert!(a.at_ns >= last, "arrivals must be sorted");
            assert!(a.at_ns < 20_000_000, "horizon is 20 ms");
            last = a.at_ns;
        }
    }

    #[test]
    fn the_bimodal_mix_yields_exactly_its_two_modes() {
        let s = spec(
            100_000,
            50,
            ServiceMix::Bimodal { short_ns: 500, long_ns: 9_000, long_pct: 10 },
            42,
        );
        let arrivals: Vec<Arrival> = s.arrivals().collect();
        assert!(!arrivals.is_empty());
        let long = arrivals.iter().filter(|a| a.service_ns == 9_000).count();
        let short = arrivals.iter().filter(|a| a.service_ns == 500).count();
        assert_eq!(long + short, arrivals.len(), "no third mode exists");
        let long_share = long as f64 / arrivals.len() as f64;
        assert!((0.05..0.2).contains(&long_share), "~10% long, got {long_share}");
    }

    #[test]
    fn offered_load_is_rate_times_mean_service() {
        let s = spec(10_000, 100, ServiceMix::Fixed { ns: 50_000 }, 1);
        assert!((s.offered_load() - 0.5).abs() < 1e-9);
        let mix = ServiceMix::Bimodal { short_ns: 1_000, long_ns: 11_000, long_pct: 50 };
        assert_eq!(mix.mean_ns(), 6_000);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Satellite: same seed ⇒ bit-identical schedule.
            #[test]
            fn streams_are_seed_deterministic(
                seed in any::<u64>(),
                rate in 1_000u64..200_000,
                mean in 100u64..100_000,
            ) {
                let s = spec(rate, 50, ServiceMix::Exp { mean_ns: mean }, seed);
                let a: Vec<Arrival> = s.arrivals().collect();
                let b: Vec<Arrival> = s.arrivals().collect();
                prop_assert_eq!(a, b);
            }

            /// Satellite: different seeds ⇒ different schedules (the seed
            /// actually reaches the stream).
            #[test]
            fn the_seed_moves_the_schedule(seed in any::<u64>()) {
                let a: Vec<Arrival> =
                    spec(50_000, 20, ServiceMix::Exp { mean_ns: 1_000 }, seed).arrivals().collect();
                let b: Vec<Arrival> =
                    spec(50_000, 20, ServiceMix::Exp { mean_ns: 1_000 }, seed ^ 1).arrivals().collect();
                prop_assert_ne!(a, b);
            }

            /// Satellite: over a long horizon the realised rate converges
            /// on the configured one (Poisson counts concentrate: at the
            /// smallest expectation here, n = 1000·0.5 = 500, five standard
            /// deviations are ~11% of the mean).
            #[test]
            fn the_realised_rate_matches_the_configured_rate(
                seed in any::<u64>(),
                rate in 500u64..50_000,
            ) {
                let horizon_ms = 1_000u64;
                let s = spec(rate, horizon_ms, ServiceMix::Fixed { ns: 100 }, seed);
                let n = s.arrivals().count() as f64;
                let expected = rate as f64 * horizon_ms as f64 / 1e3;
                let tolerance = 5.0 * expected.sqrt();
                prop_assert!(
                    (n - expected).abs() <= tolerance,
                    "saw {} arrivals, expected {} ± {}", n, expected, tolerance
                );
            }

            /// Satellite: service mixes reproduce exactly across runs and
            /// every sampled value is legal for its mix.
            #[test]
            fn service_mixes_are_exactly_reproducible(
                seed in any::<u64>(),
                short in 100u64..5_000,
                spread in 1u64..50_000,
                pct in 0u8..=100,
            ) {
                let mix = ServiceMix::Bimodal { short_ns: short, long_ns: short + spread, long_pct: pct };
                let s = spec(20_000, 50, mix, seed);
                let a: Vec<u64> = s.arrivals().map(|x| x.service_ns).collect();
                let b: Vec<u64> = s.arrivals().map(|x| x.service_ns).collect();
                prop_assert_eq!(&a, &b);
                for v in a {
                    prop_assert!(v == short || v == short + spread);
                }
            }

            /// The exponential sampler hits its mean within tolerance.
            #[test]
            fn exponential_services_average_their_mean(seed in any::<u64>()) {
                let mean = 10_000u64;
                let s = spec(50_000, 400, ServiceMix::Exp { mean_ns: mean }, seed);
                let services: Vec<u64> = s.arrivals().map(|a| a.service_ns).collect();
                prop_assume!(services.len() > 1_000);
                let avg = services.iter().sum::<u64>() as f64 / services.len() as f64;
                // Exponential: σ = mean, so 5σ/√n of slack.
                let tolerance = 5.0 * mean as f64 / (services.len() as f64).sqrt();
                prop_assert!(
                    (avg - mean as f64).abs() <= tolerance,
                    "mean {} vs configured {} ± {}", avg, mean, tolerance
                );
            }
        }
    }
}
