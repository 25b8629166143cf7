//! The typed event vocabulary and its fixed-size slot encoding.
//!
//! Every event packs into three `u64` payload words (plus the timestamp),
//! so a ring slot has a fixed shape and the writer never allocates.  The
//! encoding is an internal detail of the ring; consumers only ever see
//! [`TraceEvent`] values again.

use sched_core::{CoreId, StealOutcome, TaskId};
use sched_topology::StealLevel;

/// Outcome class of a recorded steal attempt — [`StealOutcome`] with the
/// task payload stripped (migrated tasks are carried by the per-task
/// [`TraceEvent::Migration`] events that follow a successful attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealOutcomeKind {
    /// The attempt migrated at least one task.
    Stole,
    /// The filter re-check failed on the live state (stale selection).
    RecheckFailed,
    /// The filter held but nothing was migratable.
    NothingToSteal,
    /// Selection produced no victim at all.
    NoCandidates,
}

impl StealOutcomeKind {
    /// The outcome class of a concrete [`StealOutcome`].
    pub fn of(outcome: &StealOutcome) -> Self {
        match outcome {
            StealOutcome::Stole { .. } => StealOutcomeKind::Stole,
            StealOutcome::RecheckFailed { .. } => StealOutcomeKind::RecheckFailed,
            StealOutcome::NothingToSteal { .. } => StealOutcomeKind::NothingToSteal,
            StealOutcome::NoCandidates => StealOutcomeKind::NoCandidates,
        }
    }

    /// Short lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            StealOutcomeKind::Stole => "stole",
            StealOutcomeKind::RecheckFailed => "recheck-failed",
            StealOutcomeKind::NothingToSteal => "nothing-to-steal",
            StealOutcomeKind::NoCandidates => "no-candidates",
        }
    }

    fn code(self) -> u64 {
        match self {
            StealOutcomeKind::Stole => 0,
            StealOutcomeKind::RecheckFailed => 1,
            StealOutcomeKind::NothingToSteal => 2,
            StealOutcomeKind::NoCandidates => 3,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(StealOutcomeKind::Stole),
            1 => Some(StealOutcomeKind::RecheckFailed),
            2 => Some(StealOutcomeKind::NothingToSteal),
            3 => Some(StealOutcomeKind::NoCandidates),
            _ => None,
        }
    }
}

/// One scheduling decision, recorded on the ring of the core that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A task became runnable (wakeup or arrival).
    TaskWake {
        /// The waking task.
        task: TaskId,
    },
    /// The placement decision for a runnable task: it was enqueued on
    /// `core` (recorded on the ring of the deciding core, which for the
    /// runqueue substrates is the target core itself).
    PlaceDecision {
        /// The placed task.
        task: TaskId,
        /// The core it was enqueued on.
        core: CoreId,
    },
    /// One balancing attempt by the recording (thief) core.
    StealAttempt {
        /// The victim chosen during selection, if any ([`None`] exactly
        /// when `outcome` is [`StealOutcomeKind::NoCandidates`]).
        victim: Option<CoreId>,
        /// Topological distance class of the victim, when known.
        level: Option<StealLevel>,
        /// What the attempt amounted to.
        outcome: StealOutcomeKind,
        /// How many tasks the attempt asked for (the batch size `k`).
        k: u32,
        /// How many tasks actually migrated (0 on failure).
        moved: u32,
    },
    /// One task moved from `from` to the recording (thief) core as part of
    /// the immediately preceding successful [`TraceEvent::StealAttempt`].
    Migration {
        /// The migrated task.
        task: TaskId,
        /// The victim core it left.
        from: CoreId,
    },
    /// A batch steal's delivery re-check stopped short of the claim and looped
    /// `returned` claimed tasks back to the recording (victim) core.
    BatchTrim {
        /// Tasks returned to the victim's stealable set.
        returned: u64,
    },
    /// Ring overflow parked a task in the recording core's shared
    /// injector, where it stays claimable by anyone.
    InjectorPush {
        /// The overflowed task.
        task: TaskId,
    },
    /// A tick folded `moved` injector residents back into the recording
    /// core's ring (the aging drain).
    InjectorDrain {
        /// Residents moved into the ring.
        moved: u64,
    },
    /// A machine-wide balancing round started (recorded on core 0, with a
    /// running round counter).
    BalanceRound {
        /// Zero-based round number.
        round: u64,
    },
    /// The recording core went idle (nothing to run).
    Park,
    /// The recording core left idle (something to run again).
    Unpark,
    /// A task completed (or left the machine) on the recording core.
    TaskDone {
        /// The finished task.
        task: TaskId,
    },
    /// A task voluntarily left the recording core's runnable population
    /// (a sleep phase, a barrier wait) and will wake again later.  Without
    /// this event a sleeping task would keep inflating its core's derived
    /// occupancy in every trace consumer.
    TaskSleep {
        /// The task that went to sleep.
        task: TaskId,
    },
}

/// Sentinel payload word for "no core" (a `CoreId` is an index, so the
/// all-ones word can never collide with one).
const NO_CORE: u64 = u64::MAX;

const TAG_TASK_WAKE: u64 = 0;
const TAG_PLACE_DECISION: u64 = 1;
const TAG_STEAL_ATTEMPT: u64 = 2;
const TAG_MIGRATION: u64 = 3;
const TAG_BATCH_TRIM: u64 = 4;
const TAG_INJECTOR_PUSH: u64 = 5;
const TAG_INJECTOR_DRAIN: u64 = 6;
const TAG_BALANCE_ROUND: u64 = 7;
const TAG_PARK: u64 = 8;
const TAG_UNPARK: u64 = 9;
const TAG_TASK_DONE: u64 = 10;
const TAG_TASK_SLEEP: u64 = 11;

impl TraceEvent {
    /// Builds the [`TraceEvent::StealAttempt`] describing a concrete
    /// [`StealOutcome`] with the batch size it was attempted at.
    pub fn steal_attempt(outcome: &StealOutcome, level: Option<StealLevel>, k: usize) -> Self {
        let (victim, moved) = match outcome {
            StealOutcome::Stole { victim, tasks } => (Some(*victim), tasks.len() as u32),
            StealOutcome::RecheckFailed { victim } => (Some(*victim), 0),
            StealOutcome::NothingToSteal { victim } => (Some(*victim), 0),
            StealOutcome::NoCandidates => (None, 0),
        };
        TraceEvent::StealAttempt {
            victim,
            level,
            outcome: StealOutcomeKind::of(outcome),
            k: k.min(u32::MAX as usize) as u32,
            moved,
        }
    }

    /// Packs the event into `(tag_word, a, b)` — the three payload words of
    /// a ring slot.
    pub fn pack(&self) -> (u64, u64, u64) {
        match *self {
            TraceEvent::TaskWake { task } => (TAG_TASK_WAKE, task.0, 0),
            TraceEvent::PlaceDecision { task, core } => (TAG_PLACE_DECISION, task.0, core.0 as u64),
            TraceEvent::StealAttempt { victim, level, outcome, k, moved } => {
                let level_code = level.map_or(0, |l| l.index() as u64 + 1);
                let tag = TAG_STEAL_ATTEMPT | (outcome.code() << 8) | (level_code << 16);
                let victim_word = victim.map_or(NO_CORE, |v| v.0 as u64);
                (tag, victim_word, (u64::from(k) << 32) | u64::from(moved))
            }
            TraceEvent::Migration { task, from } => (TAG_MIGRATION, task.0, from.0 as u64),
            TraceEvent::BatchTrim { returned } => (TAG_BATCH_TRIM, returned, 0),
            TraceEvent::InjectorPush { task } => (TAG_INJECTOR_PUSH, task.0, 0),
            TraceEvent::InjectorDrain { moved } => (TAG_INJECTOR_DRAIN, moved, 0),
            TraceEvent::BalanceRound { round } => (TAG_BALANCE_ROUND, round, 0),
            TraceEvent::Park => (TAG_PARK, 0, 0),
            TraceEvent::Unpark => (TAG_UNPARK, 0, 0),
            TraceEvent::TaskDone { task } => (TAG_TASK_DONE, task.0, 0),
            TraceEvent::TaskSleep { task } => (TAG_TASK_SLEEP, task.0, 0),
        }
    }

    /// Reverses [`TraceEvent::pack`].  Returns [`None`] for words no event
    /// packs to (a defensive guard — the ring's seqlock already rejects
    /// torn slots before they reach here).
    pub fn unpack(tag_word: u64, a: u64, b: u64) -> Option<Self> {
        match tag_word & 0xff {
            TAG_TASK_WAKE => Some(TraceEvent::TaskWake { task: TaskId(a) }),
            TAG_PLACE_DECISION => {
                Some(TraceEvent::PlaceDecision { task: TaskId(a), core: CoreId(b as usize) })
            }
            TAG_STEAL_ATTEMPT => {
                let outcome = StealOutcomeKind::from_code((tag_word >> 8) & 0xff)?;
                let level = match (tag_word >> 16) & 0xff {
                    0 => None,
                    code => Some(*StealLevel::ALL.get(code as usize - 1)?),
                };
                let victim = (a != NO_CORE).then_some(CoreId(a as usize));
                Some(TraceEvent::StealAttempt {
                    victim,
                    level,
                    outcome,
                    k: (b >> 32) as u32,
                    moved: b as u32,
                })
            }
            TAG_MIGRATION => {
                Some(TraceEvent::Migration { task: TaskId(a), from: CoreId(b as usize) })
            }
            TAG_BATCH_TRIM => Some(TraceEvent::BatchTrim { returned: a }),
            TAG_INJECTOR_PUSH => Some(TraceEvent::InjectorPush { task: TaskId(a) }),
            TAG_INJECTOR_DRAIN => Some(TraceEvent::InjectorDrain { moved: a }),
            TAG_BALANCE_ROUND => Some(TraceEvent::BalanceRound { round: a }),
            TAG_PARK => Some(TraceEvent::Park),
            TAG_UNPARK => Some(TraceEvent::Unpark),
            TAG_TASK_DONE => Some(TraceEvent::TaskDone { task: TaskId(a) }),
            TAG_TASK_SLEEP => Some(TraceEvent::TaskSleep { task: TaskId(a) }),
            _ => None,
        }
    }

    /// Short lower-case label used by the exporters and reports.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::TaskWake { .. } => "task-wake",
            TraceEvent::PlaceDecision { .. } => "place",
            TraceEvent::StealAttempt { .. } => "steal-attempt",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::BatchTrim { .. } => "batch-trim",
            TraceEvent::InjectorPush { .. } => "injector-push",
            TraceEvent::InjectorDrain { .. } => "injector-drain",
            TraceEvent::BalanceRound { .. } => "balance-round",
            TraceEvent::Park => "park",
            TraceEvent::Unpark => "unpark",
            TraceEvent::TaskDone { .. } => "task-done",
            TraceEvent::TaskSleep { .. } => "task-sleep",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events() -> Vec<TraceEvent> {
        let mut events = vec![
            TraceEvent::TaskWake { task: TaskId(7) },
            TraceEvent::PlaceDecision { task: TaskId(7), core: CoreId(3) },
            TraceEvent::Migration { task: TaskId(9), from: CoreId(5) },
            TraceEvent::BatchTrim { returned: 4 },
            TraceEvent::InjectorPush { task: TaskId(11) },
            TraceEvent::InjectorDrain { moved: 3 },
            TraceEvent::BalanceRound { round: 42 },
            TraceEvent::Park,
            TraceEvent::Unpark,
            TraceEvent::TaskDone { task: TaskId(13) },
            TraceEvent::TaskSleep { task: TaskId(14) },
        ];
        for outcome in [
            StealOutcomeKind::Stole,
            StealOutcomeKind::RecheckFailed,
            StealOutcomeKind::NothingToSteal,
            StealOutcomeKind::NoCandidates,
        ] {
            for level in [None, Some(StealLevel::SmtSibling), Some(StealLevel::Remote)] {
                events.push(TraceEvent::StealAttempt {
                    victim: (outcome != StealOutcomeKind::NoCandidates).then_some(CoreId(2)),
                    level,
                    outcome,
                    k: 8,
                    moved: u32::from(outcome == StealOutcomeKind::Stole) * 3,
                });
            }
        }
        events
    }

    #[test]
    fn pack_unpack_round_trips_every_event() {
        for event in all_events() {
            let (tag, a, b) = event.pack();
            assert_eq!(TraceEvent::unpack(tag, a, b), Some(event), "{event:?}");
        }
    }

    #[test]
    fn steal_attempt_builder_matches_the_outcome_vocabulary() {
        let stole = StealOutcome::Stole { victim: CoreId(4), tasks: vec![TaskId(1), TaskId(2)] };
        match TraceEvent::steal_attempt(&stole, Some(StealLevel::SameNode), 8) {
            TraceEvent::StealAttempt { victim, level, outcome, k, moved } => {
                assert_eq!(victim, Some(CoreId(4)));
                assert_eq!(level, Some(StealLevel::SameNode));
                assert_eq!(outcome, StealOutcomeKind::Stole);
                assert_eq!(k, 8);
                assert_eq!(moved, 2);
            }
            other => panic!("expected a steal attempt, got {other:?}"),
        }
        match TraceEvent::steal_attempt(&StealOutcome::NoCandidates, None, 1) {
            TraceEvent::StealAttempt { victim: None, outcome, moved: 0, .. } => {
                assert_eq!(outcome, StealOutcomeKind::NoCandidates);
            }
            other => panic!("expected no-candidates, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tags_unpack_to_none() {
        assert_eq!(TraceEvent::unpack(0xfe, 0, 0), None);
        assert_eq!(TraceEvent::unpack(TAG_STEAL_ATTEMPT | (9 << 8), 0, 0), None);
        assert_eq!(TraceEvent::unpack(TAG_STEAL_ATTEMPT | (7 << 16), 0, 0), None);
    }
}
