//! Concurrent load-balancing rounds with interleaved phases: the one round
//! driver.
//!
//! "The operations of a load balancing round might be performed
//! simultaneously on multiple cores, both idle and non-idle. […] When load
//! balancing operations happen simultaneously on multiple cores, some of
//! them may conflict." (§3.1)
//!
//! A round is modelled as an interleaving of per-core *phase steps*: each
//! core contributes a [`Phase::Select`] step (take the optimistic snapshot,
//! run the filter and the choice) followed later by a [`Phase::Steal`] step
//! (lock both runqueues, re-check the filter, migrate or fail).  The
//! interleaving decides how stale each core's selection is by the time it
//! steals; enumerating all interleavings is how `sched-verify` explores
//! every possible conflict.
//!
//! [`ConcurrentRound::execute_steps`] is the only code that runs those
//! steps, written once over [`RoundState`], which the model's
//! [`SystemState`] and the simulator's runqueues implement: the driver owns
//! the selection, the count of contending thieves, the re-check and step 3.

use crate::balancer::{steal_step, Balancer, Selection};
use crate::outcome::{BalanceAttempt, RoundReport, StealOutcome};
use crate::snapshot::{CoreSnapshot, SystemSnapshot};
use crate::system::SystemState;
use crate::task::TaskId;
use crate::CoreId;

/// What a balancing round reads and moves: the live runqueues of every
/// core.  The model's [`SystemState`] and the simulator's runqueues
/// implement it; [`ConcurrentRound`] runs every step against it.
pub trait RoundState {
    /// Number of cores, numbered from 0.
    fn nr_cores(&self) -> usize;

    /// A live observation of `core`.
    fn snapshot(&self, core: CoreId) -> CoreSnapshot;

    /// The number of threads waiting in `core`'s runqueue, and whether a
    /// thread runs there.
    fn queue(&self, core: CoreId) -> (usize, bool);

    /// Load weight of the waiting thread at `position` of `core`'s
    /// runqueue, oldest first.
    fn ready_weight(&self, core: CoreId, position: usize) -> u64;

    /// Moves the waiting threads of `from` at `positions` (distinct, oldest
    /// first, as the runqueue was before the first move) to the tail of
    /// `to`'s runqueue in the order given, and returns their ids.
    fn migrate_ready(&mut self, from: CoreId, to: CoreId, positions: &[usize]) -> Vec<TaskId>;

    /// The most loaded core by thread count, the lowest id among equals, and
    /// its count, when the state keeps a count index for a policy that claims
    /// it ([`crate::Policy::index_threshold`]).  The model keeps none: the
    /// oracle scans.
    fn busiest(&self) -> Option<(CoreId, u64)> {
        None
    }
}

impl RoundState for SystemState {
    fn nr_cores(&self) -> usize {
        self.cores().len()
    }

    fn snapshot(&self, core: CoreId) -> CoreSnapshot {
        CoreSnapshot::capture(self.core(core))
    }

    fn queue(&self, core: CoreId) -> (usize, bool) {
        (self.core(core).ready.len(), self.core(core).current.is_some())
    }

    fn ready_weight(&self, core: CoreId, position: usize) -> u64 {
        self.core(core).ready[position].weight().raw()
    }

    fn migrate_ready(&mut self, from: CoreId, to: CoreId, positions: &[usize]) -> Vec<TaskId> {
        let moved: Vec<TaskId> = positions.iter().map(|&i| self.core(from).ready[i].id).collect();
        for &id in &moved {
            self.migrate(from, to, id);
        }
        moved
    }
}

/// The two atomic phases of one core's balancing operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Steps 1 + 2 of Figure 1: lock-less, read-only selection.
    Select,
    /// Step 3 of Figure 1: the locked, atomic stealing operation.
    Steal,
}

/// One step of a round's interleaving: a core performing one of its phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Step {
    /// The core performing the step.
    pub core: CoreId,
    /// Which phase it performs.
    pub phase: Phase,
}

impl Step {
    /// Convenience constructor for a selection step.
    pub fn select(core: CoreId) -> Self {
        Step { core, phase: Phase::Select }
    }

    /// Convenience constructor for a stealing step.
    pub fn steal(core: CoreId) -> Self {
        Step { core, phase: Phase::Steal }
    }
}

/// How the per-core phases of one round are interleaved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundSchedule {
    /// Core 0 runs Select then Steal, then core 1, etc. — the no-concurrency
    /// setting of §4.2 in which selections are never stale.
    Sequential,
    /// Every core runs Select (in id order), then every core runs Steal (in
    /// id order) — the maximally stale interleaving, where every selection
    /// observes the same initial state.  This models CFS's "load balancing
    /// operations are performed simultaneously on all cores every 4ms".
    AllSelectThenSteal,
    /// A pseudo-random valid interleaving derived from the seed; different
    /// rounds should use different seeds.
    Seeded(u64),
}

impl RoundSchedule {
    /// Materialises the schedule into an ordered list of steps for a system
    /// of `nr_cores` cores.
    pub fn steps(&self, nr_cores: usize) -> Vec<Step> {
        match self {
            RoundSchedule::Sequential => (0..nr_cores)
                .flat_map(|i| [Step::select(CoreId(i)), Step::steal(CoreId(i))])
                .collect(),
            RoundSchedule::AllSelectThenSteal => (0..nr_cores)
                .map(|i| Step::select(CoreId(i)))
                .chain((0..nr_cores).map(|i| Step::steal(CoreId(i))))
                .collect(),
            RoundSchedule::Seeded(seed) => seeded_interleaving(nr_cores, *seed),
        }
    }

    /// Derives the schedule to use for round number `round`.
    ///
    /// Deterministic schedules are reused unchanged; seeded schedules derive
    /// a fresh interleaving per round so that races differ between rounds.
    pub fn for_round(&self, round: usize) -> RoundSchedule {
        match self {
            RoundSchedule::Seeded(seed) => RoundSchedule::Seeded(
                seed.wrapping_add(round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            ),
            other => other.clone(),
        }
    }

    /// Checks that `steps` forms a valid round for `nr_cores` cores: every
    /// core appears exactly once per phase and selects before it steals.
    pub fn validate(steps: &[Step], nr_cores: usize) -> Result<(), String> {
        let mut selected = vec![false; nr_cores];
        let mut stolen = vec![false; nr_cores];
        for step in steps {
            let i = step.core.0;
            if i >= nr_cores {
                return Err(format!("step references unknown core {}", step.core));
            }
            match step.phase {
                Phase::Select => {
                    if selected[i] {
                        return Err(format!("{} selects twice", step.core));
                    }
                    selected[i] = true;
                }
                Phase::Steal => {
                    if !selected[i] {
                        return Err(format!("{} steals before selecting", step.core));
                    }
                    if stolen[i] {
                        return Err(format!("{} steals twice", step.core));
                    }
                    stolen[i] = true;
                }
            }
        }
        for i in 0..nr_cores {
            if !selected[i] || !stolen[i] {
                return Err(format!("core {i} did not complete its round"));
            }
        }
        Ok(())
    }
}

/// Builds a valid pseudo-random interleaving of `nr_cores` rounds.
fn seeded_interleaving(nr_cores: usize, seed: u64) -> Vec<Step> {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*: deterministic, seed-reproducible stream.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    // Start from the fully concurrent interleaving and shuffle it while
    // preserving the per-core Select-before-Steal order.
    let mut remaining_select: Vec<usize> = (0..nr_cores).collect();
    let mut pending_steal: Vec<usize> = Vec::new();
    let mut steps = Vec::with_capacity(nr_cores * 2);
    while !remaining_select.is_empty() || !pending_steal.is_empty() {
        let pick_select = if remaining_select.is_empty() {
            false
        } else if pending_steal.is_empty() {
            true
        } else {
            next() % 2 == 0
        };
        if pick_select {
            let idx = (next() % remaining_select.len() as u64) as usize;
            let core = remaining_select.swap_remove(idx);
            pending_steal.push(core);
            steps.push(Step::select(CoreId(core)));
        } else {
            let idx = (next() % pending_steal.len() as u64) as usize;
            let core = pending_steal.swap_remove(idx);
            steps.push(Step::steal(CoreId(core)));
        }
    }
    steps
}

/// Executes concurrent rounds of a [`Balancer`] under a given interleaving.
#[derive(Debug)]
pub struct ConcurrentRound<'a> {
    balancer: &'a Balancer,
}

impl<'a> ConcurrentRound<'a> {
    /// Creates an executor for `balancer`.
    pub fn new(balancer: &'a Balancer) -> Self {
        ConcurrentRound { balancer }
    }

    /// Executes one round under `schedule`, mutating `state` in place.
    ///
    /// # Panics
    ///
    /// Panics if the materialised schedule is not a valid round (see
    /// [`RoundSchedule::validate`]).
    pub fn execute<S: RoundState>(&self, state: &mut S, schedule: &RoundSchedule) -> RoundReport {
        let steps = schedule.steps(state.nr_cores());
        RoundSchedule::validate(&steps, state.nr_cores())
            .unwrap_or_else(|e| panic!("invalid round schedule: {e}"));
        self.execute_steps(state, &steps)
    }

    /// Executes one round described by an explicit, already validated list of
    /// steps.  Exposed separately for the model checker, which generates and
    /// validates interleavings itself, and for the simulator, which
    /// materialises its schedule once.
    ///
    /// Each core's Select step plans against the state of that moment, from
    /// the state's count index when it keeps one and the policy claims it
    /// (leaving the candidate list empty), else by [`Balancer::select`] over
    /// a snapshot kept until a steal moves a thread.  Its Steal step acts on
    /// the plan against whatever the state has become ([`steal_step`]), sized
    /// for the thieves that chose the same victim and have not yet stolen.
    pub fn execute_steps<S: RoundState>(&self, state: &mut S, steps: &[Step]) -> RoundReport {
        let mut pending: Vec<Option<(Selection, usize)>> = vec![None; state.nr_cores()];
        let mut contenders = vec![0usize; state.nr_cores()];
        let mut view: Option<SystemSnapshot> = None;
        let mut report = RoundReport { attempts: Vec::with_capacity(state.nr_cores()) };
        for (time, step) in steps.iter().enumerate() {
            let thief = step.core;
            match step.phase {
                Phase::Select => {
                    let selection = match self.balancer.index.zip(state.busiest()) {
                        Some((delta, (victim, most))) => {
                            let (waiting, running) = state.queue(thief);
                            let threads = (waiting + usize::from(running)) as u64;
                            let chosen = (threads + delta <= most).then_some(victim);
                            Selection { candidates: Vec::new(), chosen }
                        }
                        None => self.balancer.select(
                            view.get_or_insert_with(|| SystemSnapshot::capture(state)),
                            thief,
                        ),
                    };
                    if let Some(victim) = selection.chosen {
                        contenders[victim.0] += 1;
                    }
                    pending[thief.0] = Some((selection, time));
                }
                Phase::Steal => {
                    let (selection, select_time) = pending[thief.0]
                        .take()
                        .expect("validated schedule guarantees select before steal");
                    let (outcome, k) = match selection.chosen {
                        Some(victim) => {
                            let r = contenders[victim.0];
                            contenders[victim.0] -= 1;
                            steal_step(self.balancer.policy(), state, thief, victim, r)
                        }
                        None => (StealOutcome::NoCandidates, 0),
                    };
                    if outcome.is_success() {
                        view = None;
                    }
                    report.attempts.push(BalanceAttempt {
                        thief,
                        select_time,
                        steal_time: time,
                        candidates: selection.candidates,
                        chosen: selection.chosen,
                        k,
                        outcome,
                    });
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadMetric;
    use crate::policy::Policy;

    #[test]
    fn schedules_materialise_to_valid_rounds() {
        for schedule in [
            RoundSchedule::Sequential,
            RoundSchedule::AllSelectThenSteal,
            RoundSchedule::Seeded(7),
            RoundSchedule::Seeded(u64::MAX),
        ] {
            for n in 1..8 {
                let steps = schedule.steps(n);
                assert_eq!(steps.len(), 2 * n);
                RoundSchedule::validate(&steps, n).unwrap();
            }
        }
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        let missing = vec![Step::select(CoreId(0)), Step::steal(CoreId(0))];
        assert!(RoundSchedule::validate(&missing, 2).is_err());
        let reversed = vec![
            Step::steal(CoreId(0)),
            Step::select(CoreId(0)),
            Step::select(CoreId(1)),
            Step::steal(CoreId(1)),
        ];
        assert!(RoundSchedule::validate(&reversed, 2).is_err());
        let double = vec![
            Step::select(CoreId(0)),
            Step::select(CoreId(0)),
            Step::steal(CoreId(0)),
            Step::steal(CoreId(0)),
        ];
        assert!(RoundSchedule::validate(&double, 1).is_err());
    }

    #[test]
    fn seeded_schedules_differ_across_rounds_but_are_reproducible() {
        let schedule = RoundSchedule::Seeded(3);
        let a = schedule.for_round(1).steps(6);
        let b = schedule.for_round(2).steps(6);
        let a2 = schedule.for_round(1).steps(6);
        assert_eq!(a, a2);
        assert_ne!(a, b, "different rounds should race differently");
    }

    #[test]
    fn concurrent_round_produces_the_papers_conflict() {
        // §3.1's example: "if two cores simultaneously try to steal a thread
        // from a third core that has only one thread waiting in its runqueue,
        // then one of the two cores will fail to steal a thread."
        let mut system = SystemState::from_loads(&[0, 0, 2]);
        let balancer = Balancer::new(Policy::simple());
        let round = ConcurrentRound::new(&balancer);
        let report = round.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
        assert_eq!(report.nr_successes(), 1);
        assert_eq!(report.nr_failures(), 1);
        assert!(system.tasks_are_unique());
        assert_eq!(system.total_threads(), 2);
    }

    #[test]
    fn sequential_schedule_through_the_executor_matches_the_balancer() {
        // Under the sequential schedule each core selects on the state the
        // previous core's steal left, so it is the balancer's select then
        // steal, core after core.
        let mut a = SystemState::from_loads(&[0, 4, 1, 0]);
        let mut b = a.clone();
        let balancer = Balancer::new(Policy::simple());
        let ra = ConcurrentRound::new(&balancer).execute(&mut a, &RoundSchedule::Sequential);
        let mut successes = 0;
        for thief in b.core_ids() {
            let selection = balancer.select(&SystemSnapshot::capture(&b), thief);
            if let Some(victim) = selection.chosen {
                successes += usize::from(balancer.steal(&mut b, thief, victim, 1).is_success());
            }
        }
        assert_eq!(a, b);
        assert_eq!(ra.nr_successes(), successes);
        assert_eq!(ra.nr_failures(), 0, "no failures without concurrency");
        assert_eq!(a.loads(LoadMetric::NrThreads), vec![1, 1, 2, 1]);
    }

    #[test]
    fn a_herd_on_one_victim_shares_its_surplus() {
        // Three idle cores all choose core 0 from one snapshot.  Halving the
        // live surplus thief after thief would end at [3, 12, 6, 3]; sized
        // for the thieves still to come, the first takes 24 / 4 and the
        // round ends balanced.
        let mut system = SystemState::from_loads(&[24, 0, 0, 0]);
        let balancer = Balancer::new(Policy::simple().with_steal(crate::StealRule::HalfImbalance));
        let report = ConcurrentRound::new(&balancer)
            .execute(&mut system, &RoundSchedule::AllSelectThenSteal);
        assert_eq!(report.nr_failures(), 0);
        assert_eq!(system.loads(LoadMetric::NrThreads), vec![6, 6, 6, 6]);
        // Each attempt carries the count step 3 planned: 24 / (1 + 3) for
        // the first thief, 18 / (1 + 2) and 12 / (1 + 1) for the next two.
        let planned: Vec<usize> = report.attempts.iter().map(|a| a.k).collect();
        assert_eq!(planned, [0, 6, 6, 6], "core 0 selected nothing");
    }

    #[test]
    fn explicit_interleavings_are_respected() {
        // Interleave so that core 1 steals before core 0: core 0's selection
        // becomes stale and its steal fails.
        let steps = vec![
            Step::select(CoreId(0)),
            Step::select(CoreId(1)),
            Step::steal(CoreId(1)),
            Step::steal(CoreId(0)),
            Step::select(CoreId(2)),
            Step::steal(CoreId(2)),
        ];
        let mut system = SystemState::from_loads(&[0, 0, 2]);
        let balancer = Balancer::new(Policy::simple());
        let round = ConcurrentRound::new(&balancer);
        let report = round.execute_steps(&mut system, &steps);
        let core0 = report.attempts.iter().find(|a| a.thief == CoreId(0)).unwrap();
        let core1 = report.attempts.iter().find(|a| a.thief == CoreId(1)).unwrap();
        assert!(core1.is_success());
        assert!(core0.is_failure());
    }
}
