//! Exhaustive enumeration of scheduler configurations within a scope.

use sched_core::{CoreId, CoreSnapshot, Policy, SystemState};

use crate::scope::Scope;

/// Enumerates every load vector (threads per core) with exactly `nr_cores`
/// cores and exactly `nr_threads` threads in total.
///
/// The enumeration is the set of *compositions* of `nr_threads` into
/// `nr_cores` non-negative parts, in lexicographic order.
fn compositions(nr_cores: usize, nr_threads: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = vec![0usize; nr_cores];
    fn rec(remaining: usize, idx: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if idx == current.len() - 1 {
            current[idx] = remaining;
            out.push(current.clone());
            return;
        }
        for take in 0..=remaining {
            current[idx] = take;
            rec(remaining - take, idx + 1, current, out);
        }
    }
    if nr_cores == 0 {
        return out;
    }
    rec(nr_threads, 0, &mut current, &mut out);
    out
}

/// Enumerates every load vector within `scope`: all core counts from 2 to
/// `max_cores` and all thread totals from 0 to `max_threads`.
pub fn configurations(scope: &Scope) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for cores in 2..=scope.max_cores {
        for threads in 0..=scope.max_threads {
            out.extend(compositions(cores, threads));
        }
    }
    out
}

/// Enumerates every [`SystemState`] within `scope`.
///
/// Threads are `nice 0` and numbered sequentially, so two states with the
/// same load vector are behaviourally identical for thread-count policies —
/// the enumeration is complete for the lemmas phrased over loads.
pub fn states(scope: &Scope) -> impl Iterator<Item = SystemState> {
    configurations(scope).into_iter().map(|loads| SystemState::from_loads(&loads))
}

/// Every steal the stealing-phase lemmas quantify over: each state within
/// `scope`, once per (thief, victim) pair whose filter holds on that live
/// state, handed out as a copy the lemma may steal on.
pub fn admitted_steals<'a>(
    policy: &'a Policy,
    scope: &Scope,
) -> impl Iterator<Item = (SystemState, CoreId, CoreId)> + 'a {
    states(scope).flat_map(move |state| {
        let ids = state.core_ids();
        let admitted: Vec<(CoreId, CoreId)> = ids
            .iter()
            .flat_map(|&thief| ids.iter().map(move |&victim| (thief, victim)))
            .filter(|&(thief, victim)| {
                let snap = |core| CoreSnapshot::capture(state.core(core));
                thief != victim && policy.filter.can_steal(&snap(thief), &snap(victim))
            })
            .collect();
        admitted.into_iter().map(move |(thief, victim)| (state.clone(), thief, victim))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compositions_of_small_cases() {
        assert_eq!(compositions(2, 2), vec![vec![0, 2], vec![1, 1], vec![2, 0]]);
        assert_eq!(compositions(3, 0), vec![vec![0, 0, 0]]);
        assert_eq!(compositions(1, 5), vec![vec![5]]);
        assert!(compositions(0, 3).is_empty());
    }

    #[test]
    fn composition_count_is_binomial() {
        // C(n + k - 1, k - 1) compositions of n into k parts.
        assert_eq!(compositions(3, 4).len(), 15);
        assert_eq!(compositions(4, 6).len(), 84);
        for c in compositions(4, 6) {
            assert_eq!(c.iter().sum::<usize>(), 6);
        }
    }

    #[test]
    fn scope_enumeration_covers_the_pingpong_configuration() {
        let scope = Scope::small();
        let configs = configurations(&scope);
        assert!(configs.contains(&vec![0, 1, 2]), "the §4.3 counterexample must be in scope");
    }

    #[test]
    fn states_match_their_load_vectors() {
        let scope = Scope::new(2, 3, 8);
        let states: Vec<_> = states(&scope).collect();
        let configs = configurations(&scope);
        assert_eq!(states.len(), configs.len());
        for (state, config) in states.iter().zip(&configs) {
            let loads: Vec<usize> = state
                .loads(sched_core::LoadMetric::NrThreads)
                .iter()
                .map(|&l| l as usize)
                .collect();
            assert_eq!(&loads, config);
            assert!(state.tasks_are_unique());
        }
    }
}
