//! Seeded inputs: the generator, the open-loop arrival schedule and the
//! payload values the closed loops check.
//!
//! `--seed` is the only source of randomness in the benchmark.  The system
//! under test never sees the seed or the generator — only the closures built
//! from what is drawn here.

/// Mean service time of a short request (19 in every 20).
pub const SHORT_SERVICE_NS: u64 = 200_000;
/// Mean service time of a long request (1 in every 20).
pub const LONG_SERVICE_NS: u64 = 2_000_000;
/// Requests per block; each block holds exactly one long request, at a
/// seeded position.  Drawing "long" independently at 5% instead lets the
/// realised load of a few-second run swing by several percent with the
/// seed (one long request is ten short ones), and at rho 0.8 that alone
/// spread p95 by 15% between seeds in an M/G/2 model; one per block keeps
/// the mix and removes the swing.
pub const BLOCK: u64 = 20;
/// Mean service time of the mix; fixes the arrival rate for a target ρ.
pub const MEAN_SERVICE_NS: u64 = (SHORT_SERVICE_NS * (BLOCK - 1) + LONG_SERVICE_NS) / BLOCK;

/// SplitMix64: tiny, seedable, and every seed (zero included) is valid.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (a Poisson process's gap).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// One open-loop request: when it is due and how long it spins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Intended arrival, nanoseconds after the run's epoch.  Absolute, so a
    /// late generator never pushes later arrivals back.
    pub due_ns: u64,
    /// CPU the request burns inside its closure.
    pub service_ns: u64,
}

/// Arrival rate (requests per second) that loads `workers` to utilisation
/// `rho` under the bimodal mix.
pub fn rate_for(rho: f64, workers: usize) -> f64 {
    rho * workers as f64 * 1e9 / MEAN_SERVICE_NS as f64
}

/// Poisson arrivals at `rate_per_s` over `duration_ns`, each with a bimodal
/// service draw: uniform within ±50% of the short or the long mean.  The
/// spread within each mode keeps the latency distribution free of atoms —
/// with two fixed service times, p95 sat beside a jump of the distribution
/// (the long requests that found a free worker) and flipped across it with
/// the seed.
pub fn open_loop(seed: u64, rate_per_s: f64, duration_ns: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut requests = Vec::with_capacity((duration_ns as f64 / mean_gap_ns * 1.1) as usize + 16);
    let mut due = 0.0f64;
    let mut long_at = 0;
    loop {
        due += rng.exp(mean_gap_ns);
        if due >= duration_ns as f64 {
            return requests;
        }
        let in_block = requests.len() as u64 % BLOCK;
        if in_block == 0 {
            long_at = rng.next_u64() % BLOCK;
        }
        let mean = if in_block == long_at { LONG_SERVICE_NS } else { SHORT_SERVICE_NS };
        requests.push(Request {
            due_ns: due as u64,
            service_ns: mean / 2 + (rng.unit() * mean as f64) as u64,
        });
    }
}

/// The seed of trial `trial` of a run seeded `seed`: trials of one run never
/// share inputs, and neither do equal trials of runs with different seeds.
pub fn trial_seed(seed: u64, trial: u64) -> u64 {
    Rng::new(seed ^ trial.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// The value task `index` of a closed-loop workload returns (or adds to its
/// tree's sum): a function of the seed, so a lost, duplicated or
/// misdelivered result changes the checksum.
pub fn payload(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64() >> 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = open_loop(42, 4000.0, 500_000_000);
        let b = open_loop(42, 4000.0, 500_000_000);
        let c = open_loop(43, 4000.0, 500_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(payload(42, 7), payload(42, 7));
        assert_ne!(payload(42, 7), payload(43, 7));
        assert_ne!(payload(42, 7), payload(42, 8));
    }

    #[test]
    fn arrivals_are_ordered_bounded_and_near_the_rate() {
        let duration = 2_000_000_000;
        let s = open_loop(7, 5000.0, duration);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|r| r.due_ns < duration));
        // 10 000 expected, σ = 100.
        assert!((9_500..10_500).contains(&s.len()), "{} arrivals", s.len());
    }

    #[test]
    fn every_block_holds_exactly_one_long_request() {
        let s = open_loop(11, 5000.0, 2_000_000_000);
        for block in s.chunks_exact(BLOCK as usize) {
            let long = block.iter().filter(|r| r.service_ns >= LONG_SERVICE_NS / 2).count();
            assert_eq!(long, 1);
            assert!(block.iter().all(|r| {
                (SHORT_SERVICE_NS / 2..=SHORT_SERVICE_NS * 3 / 2).contains(&r.service_ns)
                    || (LONG_SERVICE_NS / 2..=LONG_SERVICE_NS * 3 / 2).contains(&r.service_ns)
            }));
        }
        let mean = s.iter().map(|r| r.service_ns).sum::<u64>() / s.len() as u64;
        assert!((280_000..300_000).contains(&mean), "mean service {mean} ns");
        let positions: Vec<usize> = s
            .chunks_exact(BLOCK as usize)
            .map(|b| b.iter().position(|r| r.service_ns >= LONG_SERVICE_NS / 2).unwrap())
            .collect();
        assert!(positions.windows(2).any(|w| w[0] != w[1]), "the long request's place is drawn");
    }

    #[test]
    fn trial_seeds_differ_by_trial_and_by_seed() {
        assert_eq!(trial_seed(5, 2), trial_seed(5, 2));
        assert_ne!(trial_seed(5, 2), trial_seed(5, 3));
        assert_ne!(trial_seed(5, 2), trial_seed(6, 2));
    }

    #[test]
    fn the_rate_matches_the_target_utilisation() {
        assert_eq!(MEAN_SERVICE_NS, 290_000);
        let rate = rate_for(0.6, 2);
        assert!((rate - 4137.93).abs() < 0.01, "{rate}");
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut rng = Rng::new(1);
        let n = 200_000;
        let mean = (0..n).map(|_| rng.exp(250.0)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 2.5, "{mean}");
    }
}
