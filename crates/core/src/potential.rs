//! The pairwise load-difference potential of §4.3.
//!
//! "We show that the absolute 'load difference' between cores, computed as
//! follows, decreases with every successful stealing attempt:
//! `d(c₁, …, cₙ) = Σᵢ Σⱼ |cᵢ.load − cⱼ.load|`.
//! If `d` always decreases when a core steals threads then, because `d ≥ 0`,
//! the number of successful work-stealing operations is bounded."
//!
//! The potential is the heart of the termination argument: together with P1
//! ("a failure implies a concurrent success") it bounds the number of
//! failures and hence yields work conservation.

use crate::load::LoadMetric;
use crate::system::SystemState;

/// Computes the paper's potential `d` over the whole system.
///
/// The double sum counts every ordered pair, exactly as written in §4.3
/// (each unordered pair therefore contributes twice).
pub fn potential(system: &SystemState, metric: LoadMetric) -> u64 {
    potential_of_loads(&system.loads(metric))
}

/// Computes the potential from a plain load vector.
pub fn potential_of_loads(loads: &[u64]) -> u64 {
    let mut d = 0u64;
    for &a in loads {
        for &b in loads {
            d += a.abs_diff(b);
        }
    }
    d
}

/// The contribution of one pair of cores to the potential (counted once).
pub fn potential_between(a: u64, b: u64) -> u64 {
    a.abs_diff(b)
}

/// The change in potential caused by moving `delta` units of load from a
/// core currently at `victim_load` to a core currently at `thief_load`,
/// keeping every other core fixed.
///
/// Returns a signed value: negative means the steal decreased the potential.
/// Only the terms involving the two affected cores change, so the difference
/// can be computed locally — this is the observation that lets the verifier
/// check the potential lemma per-steal instead of per-system.
pub fn potential_delta_of_steal(loads: &[u64], thief: usize, victim: usize, delta: u64) -> i128 {
    assert_ne!(thief, victim, "a core cannot steal from itself");
    assert!(loads[victim] >= delta, "cannot move more load than the victim has");
    let before = potential_of_loads(loads);
    let mut after_loads = loads.to_vec();
    after_loads[victim] -= delta;
    after_loads[thief] += delta;
    let after = potential_of_loads(&after_loads);
    i128::from(after) - i128::from(before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn potential_is_zero_iff_perfectly_balanced() {
        assert_eq!(potential_of_loads(&[3, 3, 3, 3]), 0);
        assert_eq!(potential_of_loads(&[0, 0]), 0);
        assert!(potential_of_loads(&[3, 3, 4]) > 0);
    }

    #[test]
    fn potential_matches_hand_computation() {
        // loads [0, 1, 3]: ordered pairs |0-1|+|0-3|+|1-0|+|1-3|+|3-0|+|3-1| = 1+3+1+2+3+2 = 12.
        assert_eq!(potential_of_loads(&[0, 1, 3]), 12);
        let system = SystemState::from_loads(&[0, 1, 3]);
        assert_eq!(potential(&system, LoadMetric::NrThreads), 12);
    }

    #[test]
    fn potential_between_is_symmetric() {
        assert_eq!(potential_between(2, 7), 5);
        assert_eq!(potential_between(7, 2), 5);
    }

    #[test]
    fn listing1_steal_strictly_decreases_the_potential() {
        // Whenever the Listing 1 filter holds (difference >= 2) and one
        // thread moves, the potential strictly decreases.
        let loads = [0u64, 1, 3, 5];
        for thief in 0..loads.len() {
            for victim in 0..loads.len() {
                if thief == victim || loads[victim] < loads[thief] + 2 {
                    continue;
                }
                let delta = potential_delta_of_steal(&loads, thief, victim, 1);
                assert!(delta < 0, "steal {victim}->{thief} must decrease d, got {delta}");
            }
        }
    }

    #[test]
    fn pingpong_steal_does_not_decrease_the_potential() {
        // The §4.3 greedy filter lets core 1 (load 1) steal from core 2
        // (load 2): the potential does not decrease, which is why the
        // termination argument breaks for that filter.
        let delta = potential_delta_of_steal(&[0, 1, 2], 1, 2, 1);
        assert!(delta >= 0, "the ping-pong steal must not decrease d, got {delta}");
    }

    #[test]
    #[should_panic(expected = "cannot steal from itself")]
    fn self_steal_is_rejected() {
        let _ = potential_delta_of_steal(&[1, 1], 0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "more load than the victim has")]
    fn overdraft_is_rejected() {
        let _ = potential_delta_of_steal(&[0, 1], 0, 1, 2);
    }
}
