//! Deterministic multicore scheduler simulator.
//!
//! The paper's authors evaluate scheduling policies by generating a Linux
//! scheduling class and running real applications on real multicore
//! hardware.  Neither is available here, so this crate provides the
//! substitute substrate: a simulator of a multicore machine
//! with per-core runqueues, preemption, sleeping, barriers and periodic
//! machine-wide load-balancing rounds.
//!
//! There is one simulated machine, [`machine::Machine`]: one set of phase,
//! wakeup, election, completion and preemption handlers, one run loop,
//! reading the workload it borrows in place.  It is generic over its
//! [`machine::Upkeep`] — which timers and balance ticks are on the
//! calendar, when a core's tracked load is folded, when idle time is
//! charged, which cores are re-elected after a balancing round — and the
//! two upkeeps are the two engines:
//!
//! * [`engine::Engine`] — the tick-driven engine, the machine under its
//!   *eager* upkeep: every core re-arms its preemption timer every
//!   timeslice, every balance tick folds and re-elects every core and every
//!   event charges every core, so a run costs O(cores × rounds).  It is the
//!   **reference**: some forty lines that are right by inspection;
//! * [`event_engine::EventEngine`] — the event-driven engine, the machine
//!   under its *lazy* upkeep: cores sleep off the calendar until a wakeup,
//!   balance or timer event targets them, tracker decay is replayed lazily,
//!   and the machine-wide balance tick parks while the machine is asleep,
//!   so a run costs O(events).  It is the one to run.
//!
//! Under the default [`event::OrderingPolicy::Priority`] tie-break the two
//! engines produce identical results, pinned by parity suites over the
//! whole scenario catalog, random replays and the scenario fuzzer.  That
//! check is only worth something because the eager upkeep never calls the
//! lazy one's accounting, catch-up replay, timer elision or balance
//! parking — the reference stays independent of what it is the oracle for,
//! and only the mechanism, which both must share to be comparable at all,
//! is written once.  [`event::OrderingPolicy::Seeded`] turns the same-time
//! tie-break into a seeded permutation for systematic schedule exploration.
//!
//! Two schedulers plug into either engine:
//!
//! * [`scheduler::OptimisticScheduler`] — the paper's verified three-step
//!   balancer, driven by any [`sched_core::Policy`];
//! * [`cfs::CfsLikeScheduler`] — a CFS-like baseline with the two
//!   "wasted cores" bugs (overload-on-wakeup, group imbalance) injectable,
//!   reproducing the §1 motivation numbers in shape.
//!
//! The machine measures exactly the quantities the paper talks about:
//! violating idle time (idle while another core is overloaded), makespan,
//! throughput, scheduling latency, steal success/failure counts, and the
//! number of discrete events processed.
//!
//! # Example
//!
//! ```
//! use sched_core::Policy;
//! use sched_sim::{EventEngine, OptimisticScheduler, SimConfig};
//! use sched_workloads::ScientificWorkload;
//!
//! let workload = ScientificWorkload { nr_threads: 4, iterations: 2, ..Default::default() }.generate();
//! let engine = EventEngine::new(
//!     SimConfig::with_cores(4),
//!     None,
//!     &workload,
//!     Box::new(OptimisticScheduler::new(Policy::simple())),
//! );
//! let result = engine.run();
//! assert!(result.finished);
//! ```

pub mod barrier;
pub mod cfs;
pub mod config;
pub mod engine;
pub mod event;
pub mod event_engine;
pub mod machine;
pub mod queues;
pub mod result;
pub mod scheduler;
pub mod thread;

pub use cfs::{CfsBugs, CfsLikeScheduler};
pub use config::SimConfig;
pub use engine::Engine;
pub use event::OrderingPolicy;
pub use event_engine::EventEngine;
pub use machine::{Machine, Upkeep};
pub use queues::{CoreQueues, SimCore};
pub use result::SimResult;
pub use scheduler::{OptimisticScheduler, SimScheduler, SimState};
pub use thread::{SimThread, SimThreadId, ThreadState};
