//! The paper's lemmas, checked exhaustively over a bounded scope.
//!
//! | Module | Paper reference | Statement |
//! |---|---|---|
//! | [`lemma1`] | Listing 2 | An idle thief's filter selects a core iff some core is overloaded, and selects only overloaded cores. |
//! | [`steal_sound`] | §4.2 | When the filter holds at stealing time, the steal succeeds, moves ≥ 1 thread, never empties the victim, and neither loses nor duplicates threads. |
//! | [`seq_wc`] | §4.2 | Under sequential (non-overlapping) rounds, the system becomes work-conserving within a bounded number of rounds. |
//! | [`failure`] | §4.3, property P1 | A failed stealing attempt implies that a concurrent stealing attempt by another core succeeded in between, touching the failed attempt's victim or thief. |
//! | [`potential`] | §4.3, property P2 | Every successful steal strictly decreases the pairwise absolute load difference `d`. |
//! | [`steal_size`] | §4.2, §4.3 P2 | The one step-3 sizing every substrate calls sizes at least one thread, never the victim's last, and — for half the imbalance — never inverts the pair, for any contender count `r` and for `r` thieves stealing in turn from the live victim (sizing from the round's snapshot is refuted). |
//! | [`equivalence`] | §1 (one DSL text, compiled to proof and code) | Two policies balance the same load view, build the same candidate list, choose the same victim and size the same steal from every state of the scope, for every thief. |
//! | [`indexed_select`] | §3.1 (the proof licenses the substrate) | A policy whose filter claims a count threshold δ and whose choice claims the most threads selects, for every thief, the first core of the highest thread count when it is at least the thief's plus δ: the answer of a count index. |
//! | [`decay`] | §3.1 ("no assumption on the criteria") | A steady tracked load converges geometrically to the instantaneous load, and balancing on any monotone tracker preserves work conservation given settling ticks. |
//!
//! The concurrent convergence check (bounded failures + the §3.2 `∃N`) is in
//! [`crate::convergence`], since it explores multi-round executions rather
//! than a single round.

pub mod decay;
pub mod equivalence;
pub mod failure;
pub mod indexed_select;
pub mod lemma1;
pub mod potential;
pub mod seq_wc;
pub mod steal_size;
pub mod steal_sound;

pub use decay::{check_decay_convergence, check_tracked_work_conservation};
pub use equivalence::{check_equivalence, equivalence_states};
pub use failure::check_failure_implies_concurrent_success;
pub use indexed_select::{check_indexed_select, CLAIMANTS};
pub use lemma1::check_lemma1;
pub use potential::check_potential_decreases;
pub use seq_wc::check_sequential_work_conservation;
pub use steal_size::{check_contended_steals, check_steal_sizing, Sizing};
pub use steal_sound::check_steal_soundness;
