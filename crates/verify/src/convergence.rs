//! Concurrent convergence: the §3.2 `∃N` bound and the §4.3 counterexample
//! search.
//!
//! A policy is work-conserving iff, from every initial configuration, every
//! possible execution (any interleaving of every round, any victim choice)
//! reaches a state where no core is idle while another is overloaded.  Since
//! thread counts are preserved by balancing, the reachable state space is
//! finite, so the check reduces to graph search:
//!
//! * a **violation** is a reachable cycle consisting entirely of
//!   non-work-conserving states — an infinite execution that never
//!   converges.  For the §4.3 greedy filter the search finds the 3-core
//!   ping-pong `[0,1,2] → [0,2,1] → [0,1,2] → …` automatically;
//! * if no such cycle exists, the length of the longest path from any
//!   initial state to a work-conserving state is exactly the paper's `N`.

use std::collections::{BTreeMap, BTreeSet};

use sched_core::{is_work_conserving, Balancer, ConcurrentRound, LoadMetric, SystemState};

use crate::counterexample::Counterexample;
use crate::enumerate::configurations;
use crate::interleave::all_interleavings;
use crate::scope::Scope;

/// How the step-2 choice is resolved while exploring executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceStrategy {
    /// Use the policy's own (deterministic) choice function.
    PolicyChoice,
    /// Treat the choice as adversarial: branch over *every* candidate each
    /// core could pick.  This is the strongest reading of the paper's claim
    /// that the choice step is irrelevant to the proof.
    Adversarial,
}

/// A witness of a work-conservation violation: a reachable cycle of
/// non-work-conserving states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleWitness {
    /// The initial configuration the cycle is reachable from.
    pub initial_loads: Vec<u64>,
    /// The load vectors along the cycle (first element repeats at the end).
    pub cycle: Vec<Vec<u64>>,
}

impl CycleWitness {
    /// Converts the witness into a printable counterexample.
    pub fn to_counterexample(&self) -> Counterexample {
        let mut ce = Counterexample::new(
            "an execution exists in which an idle core never obtains work (work-conservation violation)",
            self.initial_loads.clone(),
        );
        for (i, state) in self.cycle.iter().enumerate() {
            ce = ce.step(format!(
                "cycle state {i}: loads {state:?} (idle core coexists with an overloaded core)"
            ));
        }
        ce
    }
}

/// The outcome of the convergence analysis of one policy over one scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceAnalysis {
    /// The maximum number of rounds any reachable execution needs before the
    /// system is work-conserving — the `N` of §3.2 — when no violation
    /// exists.
    pub max_rounds: usize,
    /// Number of distinct non-work-conserving states explored.
    pub states_explored: usize,
}

fn loads_of(system: &SystemState) -> Vec<u64> {
    system.loads(LoadMetric::NrThreads)
}

/// Computes every state reachable from `loads` after exactly one concurrent
/// round, under every interleaving (and, if adversarial, every choice).
fn successors(balancer: &Balancer, loads: &[u64], strategy: ChoiceStrategy) -> BTreeSet<Vec<u64>> {
    let nr_cores = loads.len();
    let loads_usize: Vec<usize> = loads.iter().map(|&l| l as usize).collect();
    let mut out = BTreeSet::new();
    let executor = ConcurrentRound::new(balancer);
    for steps in all_interleavings(nr_cores) {
        match strategy {
            ChoiceStrategy::PolicyChoice => {
                let mut system = SystemState::from_loads(&loads_usize);
                executor.execute_steps(&mut system, &steps);
                out.insert(loads_of(&system));
            }
            ChoiceStrategy::Adversarial => {
                explore_adversarial(
                    balancer,
                    SystemState::from_loads(&loads_usize),
                    &steps,
                    0,
                    &mut vec![None; nr_cores],
                    &mut out,
                );
            }
        }
    }
    out
}

/// Depth-first exploration of every victim choice along one interleaving.
fn explore_adversarial(
    balancer: &Balancer,
    system: SystemState,
    steps: &[sched_core::Step],
    idx: usize,
    pending: &mut Vec<Option<Vec<sched_core::CoreId>>>,
    out: &mut BTreeSet<Vec<u64>>,
) {
    if idx == steps.len() {
        out.insert(loads_of(&system));
        return;
    }
    let step = steps[idx];
    match step.phase {
        sched_core::Phase::Select => {
            let snapshot = sched_core::SystemSnapshot::capture(&system);
            let selection = balancer.select(&snapshot, step.core);
            pending[step.core.0] = Some(selection.candidates);
            explore_adversarial(balancer, system, steps, idx + 1, pending, out);
            pending[step.core.0] = None;
        }
        sched_core::Phase::Steal => {
            let candidates = pending[step.core.0].clone().unwrap_or_default();
            if candidates.is_empty() {
                explore_adversarial(balancer, system, steps, idx + 1, pending, out);
                return;
            }
            for victim in candidates {
                let mut branch = system.clone();
                let _ = balancer.steal(&mut branch, step.core, victim, 1);
                explore_adversarial(balancer, branch, steps, idx + 1, pending, out);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Currently on the DFS stack.
    InProgress,
    /// Fully explored; value = longest distance (in rounds) to reach a
    /// work-conserving state from here.
    Done(usize),
}

struct Search<'a> {
    balancer: &'a Balancer,
    strategy: ChoiceStrategy,
    marks: BTreeMap<Vec<u64>, Mark>,
    successor_cache: BTreeMap<Vec<u64>, BTreeSet<Vec<u64>>>,
    stack: Vec<Vec<u64>>,
}

enum SearchOutcome {
    /// Longest distance to a work-conserving state.
    Depth(usize),
    /// A cycle of non-work-conserving states was found.
    Cycle(Vec<Vec<u64>>),
}

impl<'a> Search<'a> {
    fn dfs(&mut self, loads: Vec<u64>) -> SearchOutcome {
        if is_work_conserving(loads.iter().copied()) {
            return SearchOutcome::Depth(0);
        }
        match self.marks.get(&loads) {
            Some(Mark::Done(d)) => return SearchOutcome::Depth(*d),
            Some(Mark::InProgress) => {
                // Back-edge: reconstruct the cycle from the DFS stack.
                let start = self.stack.iter().position(|s| s == &loads).unwrap_or(0);
                let mut cycle: Vec<Vec<u64>> = self.stack[start..].to_vec();
                cycle.push(loads);
                return SearchOutcome::Cycle(cycle);
            }
            None => {}
        }
        self.marks.insert(loads.clone(), Mark::InProgress);
        self.stack.push(loads.clone());

        let succs = self
            .successor_cache
            .entry(loads.clone())
            .or_insert_with(|| successors(self.balancer, &loads, self.strategy))
            .clone();

        let mut worst = 0usize;
        for succ in succs {
            match self.dfs(succ) {
                SearchOutcome::Depth(d) => worst = worst.max(d),
                SearchOutcome::Cycle(c) => {
                    self.stack.pop();
                    return SearchOutcome::Cycle(c);
                }
            }
        }
        self.stack.pop();
        self.marks.insert(loads, Mark::Done(worst + 1));
        SearchOutcome::Depth(worst + 1)
    }
}

/// Analyses every execution of `balancer` from every configuration in
/// `scope`.
///
/// Returns the convergence bound if the policy is work-conserving, or a
/// [`CycleWitness`] if some execution never converges.
pub fn analyze_convergence(
    balancer: &Balancer,
    scope: &Scope,
    strategy: ChoiceStrategy,
) -> Result<ConvergenceAnalysis, CycleWitness> {
    let mut search = Search {
        balancer,
        strategy,
        marks: BTreeMap::new(),
        successor_cache: BTreeMap::new(),
        stack: Vec::new(),
    };
    let mut max_rounds = 0usize;
    for loads in configurations(scope) {
        let loads: Vec<u64> = loads.iter().map(|&l| l as u64).collect();
        if is_work_conserving(loads.iter().copied()) {
            continue;
        }
        match search.dfs(loads.clone()) {
            SearchOutcome::Depth(d) => max_rounds = max_rounds.max(d),
            SearchOutcome::Cycle(cycle) => {
                return Err(CycleWitness { initial_loads: loads, cycle });
            }
        }
    }
    Ok(ConvergenceAnalysis { max_rounds, states_explored: search.marks.len() })
}

/// Searches for an execution that never becomes work-conserving.
///
/// Returns `None` if every execution within `scope` converges.
pub fn find_non_conserving_cycle(
    balancer: &Balancer,
    scope: &Scope,
    strategy: ChoiceStrategy,
) -> Option<CycleWitness> {
    analyze_convergence(balancer, scope, strategy).err()
}

/// The maximum number of rounds any execution within `scope` needs before
/// becoming work-conserving (the `N` of §3.2).
///
/// Returns `Err` with the violating cycle if the policy is not
/// work-conserving within the scope.
pub fn max_rounds_to_converge(
    balancer: &Balancer,
    scope: &Scope,
    strategy: ChoiceStrategy,
) -> Result<usize, CycleWitness> {
    analyze_convergence(balancer, scope, strategy).map(|a| a.max_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::prelude::*;

    #[test]
    fn simple_policy_converges_under_every_interleaving() {
        let balancer = Balancer::new(Policy::simple());
        let analysis =
            analyze_convergence(&balancer, &Scope::small(), ChoiceStrategy::PolicyChoice).unwrap();
        assert!(analysis.max_rounds >= 1);
        assert!(analysis.states_explored > 0);
    }

    #[test]
    fn simple_policy_converges_even_with_adversarial_choice() {
        // The paper's claim: the choice step cannot break the proof.
        let balancer = Balancer::new(Policy::simple());
        let result =
            max_rounds_to_converge(&balancer, &Scope::small(), ChoiceStrategy::Adversarial);
        assert!(result.is_ok(), "{:?}", result.err().map(|c| c.to_counterexample().render()));
    }

    #[test]
    fn greedy_policy_exhibits_the_pingpong() {
        // §4.3: "consider a three-core system where core 0 is idle, core 1
        // has 1 thread and core 2 has 2 threads […] Core 0 might fail to
        // steal threads forever."
        let balancer = Balancer::new(Policy::greedy());
        let witness =
            find_non_conserving_cycle(&balancer, &Scope::small(), ChoiceStrategy::Adversarial)
                .expect("the greedy filter must admit a non-converging execution");
        // Every state along the cycle keeps an idle core next to an
        // overloaded core.
        for state in &witness.cycle {
            assert!(
                !is_work_conserving(state.iter().copied()),
                "cycle state {state:?} should violate work conservation"
            );
        }
        assert!(witness.cycle.len() >= 2);
    }

    #[test]
    fn node_restricted_filter_never_converges_across_nodes() {
        // This intentionally does not fire within the single-node
        // enumeration, mirroring the Lemma 1 test; the cross-node violation
        // is exercised in the integration tests with a real topology.
        let policy = Policy::new(
            LoadMetric::NrThreads,
            Box::new(NodeRestrictedFilter::new(DeltaFilter::listing1())),
            Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
            StealRule::One,
        );
        let balancer = Balancer::new(policy);
        let result =
            max_rounds_to_converge(&balancer, &Scope::new(3, 4, 16), ChoiceStrategy::PolicyChoice);
        assert!(result.is_ok());
    }

    #[test]
    fn wc_predicate_on_load_vectors() {
        assert!(is_work_conserving([1, 1]));
        assert!(is_work_conserving([0, 1]));
        assert!(is_work_conserving([5, 3]));
        assert!(!is_work_conserving([0, 2]));
    }
}
