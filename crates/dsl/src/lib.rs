//! The scheduling-policy DSL.
//!
//! "These abstractions are exposed to kernel developers via a
//! domain-specific language (DSL), which is then compiled to C code that can
//! be integrated as a scheduling class into the Linux kernel, and to Scala
//! code that is verified by the Leon toolkit." (§1)
//!
//! This crate reproduces that architecture with two backends over one
//! front-end:
//!
//! * **front-end** — [`lexer`], [`parser`], [`mod@typecheck`] and
//!   [`mod@phase_check`]: a policy is a `filter` expression, a `choose`
//!   rule, a `steal` count and an optional `load` tracking criterion
//!   (`load pelt(8)` balances a decayed average instead of instantaneous
//!   queue lengths).  The phase checker enforces the §3.1 structural
//!   constraints (the selection phase is read-only by construction, the
//!   steal phase migrates at least one thread) and warns about greedy-style
//!   filters;
//! * **executable backend** — [`eval`] compiles a definition into
//!   `sched-core` policy objects runnable by the balancer, the simulator and
//!   the concurrent runqueues (the "C backend" analogue);
//! * **verification backend** — [`verification`] feeds the compiled policy
//!   to the `sched-verify` lemma suite (the "Leon backend" analogue).
//!
//! [`stdlib`] ships the paper's policies written in the DSL: Listing 1, the
//! §4.3 greedy counterexample, the weighted variant, a batched variant and
//! the decayed variants.  Each named `sched-core` recipe the substrates run
//! is proven to be its stdlib text by `sched-verify`'s exhaustive
//! equivalence lemma, so both backends stand for the same policy.
//!
//! [`doc`] applies the same idea to *experiments*: a [`Scenario`] is written
//! once, as a `*.scn` document, and that one type — parsed by
//! [`parse_doc`], printed back by [`print_doc`] — is what the `sched-bench`
//! harness loads, fuzzes and runs on every backend.
//!
//! # Example
//!
//! ```
//! use sched_dsl::{compile_source, stdlib};
//!
//! let compiled = compile_source(stdlib::LISTING1).unwrap();
//! assert_eq!(compiled.def.name, "listing1");
//! assert!(compiled.warnings.is_empty());
//! ```

pub mod ast;
pub mod doc;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod phase_check;
pub mod pretty;
pub mod stdlib;
pub mod typecheck;
pub mod verification;

pub use ast::{Actor, BinOp, ChooseRule, Expr, Field, LoadSpec, MetricSpec, PolicyDef};
pub use doc::{
    parse_doc, print_doc, print_scenario, Batch, Burst, Driver, Invariant, OpenLoop, PolicyRecipe,
    Scenario, Service, Storm, Topology, WorkloadKind,
};
pub use error::DslError;
pub use eval::{compile, compile_source, CompiledPolicy};
pub use parser::parse;
pub use phase_check::{phase_check, PhaseWarning};
pub use pretty::{print_expr, print_policy};
pub use typecheck::typecheck;
pub use verification::{verify_definition, verify_source, VerifiedPolicy};
