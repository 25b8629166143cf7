//! The verification substrate — a bounded, exhaustive substitute for the
//! Leon toolkit.
//!
//! The paper verifies its scheduler abstractions by compiling policies to
//! Scala and discharging `.holds` obligations with the Leon verification
//! system.  That toolchain is not available here, so this crate discharges
//! the *same lemmas* by exhaustive small-scope model checking plus
//! property-based testing:
//!
//! * every initial core configuration within a [`Scope`] (bounded number of
//!   cores and threads) is enumerated by [`enumerate`],
//! * every interleaving of the per-core selection/stealing phases of a
//!   load-balancing round is enumerated by [`interleave`],
//! * the paper's lemmas are checked over that space by [`lemmas`]:
//!   - Lemma 1 (Listing 2): an idle thief filters in a core iff it is
//!     overloaded,
//!   - steal soundness (§4.2): a steal whose filter holds succeeds, never
//!     empties the victim and never loses or duplicates threads,
//!   - sequential work conservation (§4.2),
//!   - P1 (§4.3): a failed attempt implies a concurrent successful steal,
//!   - P2 (§4.3): the load-difference potential strictly decreases on every
//!     successful steal,
//!   - bounded failures / concurrent convergence (§4.3 + §3.2): no reachable
//!     cycle of non-work-conserving states exists, and the bound `N` is
//!     computed,
//!   - indexed select: a policy whose steps claim the count index selects
//!     what the index answers, which licenses the simulator's indexed
//!     balancing round,
//! * failures are reported as step-by-step [`counterexample::Counterexample`]s
//!   — running the checker against the §4.3 greedy filter reproduces the
//!   three-core ping-pong exactly.
//!
//! The event-driven simulator's own degree of freedom — the order in which
//! same-timestamp events are processed — is not checked here: the scenario
//! fuzzer's ordering sweep (`sched_bench::check_ordering`) and the
//! simulator's own tests demand the priority-ordered outcome from seeded
//! permutations of every same-time group.

pub mod convergence;
pub mod counterexample;
pub mod enumerate;
pub mod interleave;
pub mod lemma;
pub mod lemmas;
pub mod report;
pub mod scope;

pub use convergence::{
    analyze_convergence, find_non_conserving_cycle, max_rounds_to_converge, ChoiceStrategy,
    ConvergenceAnalysis, CycleWitness,
};
pub use counterexample::Counterexample;
pub use enumerate::{configurations, states};
pub use interleave::{all_interleavings, interleaving_count};
pub use lemma::{LemmaReport, LemmaStatus};
pub use report::{verify_policy, VerificationReport};
pub use scope::Scope;
