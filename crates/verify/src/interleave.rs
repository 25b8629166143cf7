//! Enumeration of every interleaving of a concurrent load-balancing round.
//!
//! Each core contributes two ordered steps to a round — `Select` then
//! `Steal` — and "the operations of a load balancing round might be
//! performed simultaneously on multiple cores" (§3.1).  The set of possible
//! concurrent executions is therefore the set of interleavings of `n`
//! two-step sequences, of which there are `(2n)! / 2ⁿ`.  Enumerating all of
//! them is what replaces Leon's symbolic reasoning about concurrency.

use sched_core::{CoreId, Phase, Step};

/// Number of interleavings of a round with `nr_cores` cores: `(2n)! / 2ⁿ`.
///
/// Returns `None` on overflow (the checker refuses such scopes anyway).
pub fn interleaving_count(nr_cores: usize) -> Option<u128> {
    let mut numerator: u128 = 1;
    for i in 1..=(2 * nr_cores as u128) {
        numerator = numerator.checked_mul(i)?;
    }
    Some(numerator / (1u128 << nr_cores))
}

/// Enumerates every valid interleaving of a round with `nr_cores` cores.
///
/// Every returned sequence satisfies [`sched_core::RoundSchedule::validate`]:
/// each core appears exactly once per phase, with `Select` before `Steal`.
///
/// # Panics
///
/// Panics if `nr_cores > 6`: beyond that the enumeration (12!/2⁶ ≈ 7.5M
/// interleavings) stops being a reasonable exhaustive scope.
pub fn all_interleavings(nr_cores: usize) -> Vec<Vec<Step>> {
    assert!(nr_cores <= 6, "interleaving enumeration is limited to 6 cores");
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(2 * nr_cores);
    // remaining[i]: how many steps core i still has to emit (2 = select
    // pending, 1 = steal pending, 0 = done).
    let mut remaining = vec![2u8; nr_cores];
    rec(&mut remaining, &mut current, &mut out);
    out
}

fn rec(remaining: &mut Vec<u8>, current: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    if remaining.iter().all(|&r| r == 0) {
        out.push(current.clone());
        return;
    }
    for core in 0..remaining.len() {
        if remaining[core] == 0 {
            continue;
        }
        let phase = if remaining[core] == 2 { Phase::Select } else { Phase::Steal };
        remaining[core] -= 1;
        current.push(Step { core: CoreId(core), phase });
        rec(remaining, current, out);
        current.pop();
        remaining[core] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::RoundSchedule;

    #[test]
    fn counts_match_the_formula() {
        assert_eq!(interleaving_count(1), Some(1));
        assert_eq!(interleaving_count(2), Some(6));
        assert_eq!(interleaving_count(3), Some(90));
        assert_eq!(interleaving_count(4), Some(2520));
    }

    #[test]
    fn enumeration_size_matches_count() {
        for n in 1..=4 {
            let all = all_interleavings(n);
            assert_eq!(all.len() as u128, interleaving_count(n).unwrap());
        }
    }

    #[test]
    fn every_enumerated_interleaving_is_valid_and_unique() {
        let all = all_interleavings(3);
        for steps in &all {
            RoundSchedule::validate(steps, 3).unwrap();
        }
        let mut dedup = all.clone();
        dedup.sort_by_key(|s| {
            s.iter().map(|st| (st.core.0, st.phase == Phase::Steal)).collect::<Vec<_>>()
        });
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    #[should_panic(expected = "limited to 6 cores")]
    fn oversized_enumeration_is_refused() {
        let _ = all_interleavings(7);
    }
}
