//! Decision tracing for the scheduler substrates.
//!
//! The paper's complaint is not only that optimistic schedulers break their
//! invariants — it is that the breakage goes *unnoticed*, because the only
//! visibility into a scheduler is aggregate counters sampled after the
//! fact.  This crate is the remedy at the decision granularity: every
//! substrate (the pure model, both simulator engines, and both concurrent
//! runqueue backends) records its scheduling *decisions* — wakeup
//! placements, steal attempts with their outcome and level, injector
//! traffic, batch trims — into per-core, fixed-capacity, lock-free ring
//! recorders.
//!
//! Three consumers read the stream:
//!
//! * [`fold`] re-derives the steal tally, [`FoldedStats`], from the events
//!   alone.  It is also the type every substrate's live counters hold, and
//!   [`FoldedStats::of`] decides for both sides which counter an attempt
//!   moves, so a parity test pins `stats == fold(trace)` as one whole-struct
//!   comparison and the counters stop being a second source of truth;
//!   [`locality`] reads its per-level migrations as a remote-steal rate;
//! * [`sanity`] folds the stream *incrementally* and flags invariant
//!   violations — idle-while-overloaded windows, steals that invert the
//!   imbalance they were sized against, lost or duplicated task ids —
//!   with the offending event span attached;
//! * [`perfetto`] renders the stream as a Chrome/Perfetto `trace.json`
//!   (one track per core, steal arrows as flow events) for human eyes.
//!
//! The writer side never blocks a hot path: a full ring overwrites its
//! oldest slot and counts the loss ([`Trace::dropped`]), and a disabled
//! sink ([`TraceSink::disabled`]) performs **zero** atomic operations —
//! pinned by a probe counter ([`write_ops`]) that the runqueue tests
//! assert against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fold;
pub mod locality;
pub mod perfetto;
pub mod ring;
pub mod sanity;
pub mod sink;

pub use event::{StealOutcomeKind, TraceEvent};
pub use fold::FoldedStats;
pub use perfetto::to_chrome_json;
pub use ring::Ring;
pub use sanity::{SanityChecker, SanityKind, SanityViolation};
pub use sink::{write_ops, RecordedEvent, Trace, TraceSink};
