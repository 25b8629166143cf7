//! The scenario: one declarative experiment, and its `*.scn` file format.
//!
//! A [`Scenario`] is an experiment as *data*: a topology, an initial load
//! vector, a balancing policy (one of the named [`PolicyRecipe`]s or an
//! inline policy program in the same DSL the rest of this crate parses), a
//! [`Driver`] describing how work arrives (replay / workload / burst /
//! storm / open loop — the grammar admits exactly one, so contradictory
//! combinations are unrepresentable), an optional backend matrix, and an
//! `expect` block stating which paper invariants the scenario must uphold.
//!
//! It is defined **once**, here, next to the grammar that owns it: what
//! [`parse_doc`] produces is what [`print_doc`] prints, what the scenario
//! fuzzer generates and what every harness backend executes.  The parser
//! resolves everything a document may leave implicit — recipe names,
//! workload kinds, the per-kind default seeds and jitters — so a
//! `Scenario` holds concrete values only, and the printer writes all of
//! them back (`parse(print(s)) == s`).  What a scenario *means* — the
//! `Policy`, machine and workload it builds, its record names, the
//! cross-field rules a runnable one obeys — lives in `sched-bench`, as
//! functions of this type.
//!
//! Adding a clause is three edits in this file: the field, its arm in the
//! parser, its line in the printer.
//!
//! ```text
//! scenario "single hot core: Listing 1" {
//!     experiment e2;
//!     topology flat(8);
//!     loads [16, 0, 0, 0, 0, 0, 0, 0];
//!     policy listing1;
//!     driver replay;
//!     budget 128;
//!     expect {
//!         work_conservation;
//!         conservation_of_tasks;
//!         non_inversion;
//!     }
//! }
//! ```

use crate::ast::PolicyDef;
use crate::error::DslError;
use crate::lexer::{lex, Token};
use crate::parser::Parser;
use crate::pretty::print_policy;

/// The machine a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `n` identical cores on one node.
    Flat(usize),
    /// The dual-socket 2 × 8-core server of the wasted-cores study.
    DualSocket,
    /// The eight-node × 8-core NUMA machine of the hierarchical experiments.
    EightNode,
}

/// How a scenario's policy is built.  Policies are not `Clone` and each
/// backend needs its own instance, so the *recipe* is what a scenario
/// holds: one of nine names the grammar knows, or an inline program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyRecipe {
    /// The paper's Listing 1: `delta >= 2` filter, max-load choice, steal one.
    Listing1,
    /// The refuted greedy filter (`victim load >= 2`, ignores the thief).
    Greedy,
    /// Weighted-load variant of Listing 1.
    Weighted,
    /// Listing 1 with a CFS-style steal-half-the-imbalance step 3.
    StealHalf,
    /// Listing 1 with a NUMA-aware step-2 choice over the scenario topology.
    NumaAware,
    /// Listing 1 with the distance-ordered topology-aware step 2 (per-level
    /// thresholds, no memory between choices): the hierarchy, in the
    /// choice.
    TopoAware,
    /// Listing 1 over a PELT-style decayed thread count (8 ms half-life).
    Pelt,
    /// The weighted balancer over a PELT-style decayed weighted load.
    PeltWeighted,
    /// Listing 1 over a PELT-decayed thread count with an explicit
    /// half-life in milliseconds, 1 ms to one hour (`pelt_half_life(<ms>)`,
    /// the E21 sensitivity sweep).
    PeltHalfLife(u32),
    /// A policy program inlined in the document (`policy <name> { … }`).
    /// The catalogued `dsl(listing1)` rows use this with the stdlib
    /// Listing 1 program.
    Inline(PolicyDef),
}

/// The argument-less recipes and the names the grammar knows them by.
fn named_recipes() -> [(&'static str, PolicyRecipe); 8] {
    use PolicyRecipe::*;
    [
        ("listing1", Listing1),
        ("greedy", Greedy),
        ("weighted", Weighted),
        ("steal_half", StealHalf),
        ("numa_aware", NumaAware),
        ("topo_aware", TopoAware),
        ("pelt", Pelt),
        ("pelt_weighted", PeltWeighted),
    ]
}

/// The simulator workload generators a scenario may name (E9/E10 reproduce
/// the paper's motivation numbers with these), sized to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Fork-join scientific workload.
    Scientific,
    /// OLTP workload.
    Oltp,
    /// Huge mostly-sleeping population with sparse bursts (E24) — sized to
    /// stress the asymptotic gap between the tick and event engines.
    Sleepers,
}

impl WorkloadKind {
    const ALL: [WorkloadKind; 3] =
        [WorkloadKind::Scientific, WorkloadKind::Oltp, WorkloadKind::Sleepers];

    fn keyword(self) -> &'static str {
        match self {
            WorkloadKind::Scientific => "scientific",
            WorkloadKind::Oltp => "oltp",
            WorkloadKind::Sleepers => "sleepers",
        }
    }

    /// The `(seed, jitter_pct)` a `driver workload <kind>` clause gets
    /// where it names none: the values the experiments were first run with.
    fn defaults(self) -> (u64, u32) {
        match self {
            WorkloadKind::Scientific => (42, 5),
            WorkloadKind::Oltp => (7, 20),
            WorkloadKind::Sleepers => (24, 20),
        }
    }
}

/// A bursty on/off driver layered over the load vector: each epoch, one
/// core's tasks briefly go to sleep (its instantaneous load drops to zero)
/// and return at the epoch's end.  The time-averaged load of every core is
/// identical, so migrations performed during the blips are pure churn —
/// the shape E17 uses to separate instantaneous from decayed load criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Number of sleep/wake epochs (one balancing round each).
    pub epochs: usize,
    /// Logical time between epochs, in nanoseconds.  Kept well below the
    /// PELT half-life so decayed loads barely move across one blip.
    pub epoch_ns: u64,
    /// Logical warm-up time before the first epoch, so decayed trackers
    /// have converged to the steady per-core load when the blinking starts.
    pub warmup_ns: u64,
    /// RNG seed for the simulator's blinker realisation of the shape
    /// (17 where the document names none).
    pub seed: u64,
    /// On/off cycle jitter for the simulator realisation, in percent
    /// (40 where the document names none).
    pub jitter_pct: u32,
}

/// An overflow-storm driver replacing the run-to-convergence loop: each
/// epoch, a fan-out burst lands on core 0 and a fixed number of genuinely
/// concurrent balancing rounds runs against it **without any tick** — so
/// whatever the runqueue backend does with ring overflow is exactly what
/// thieves see — then the machine drains and the next burst fires.
///
/// The headline metric is the fraction of the machine left idle *after*
/// each round while an overloaded core still held waiting work.  A backend
/// whose overflow stays stealable (the shared injector) pins this at ~0;
/// one that hides overflow behind the tick (the legacy private spill)
/// strands idle cores for the rest of every epoch.  Only the runqueue
/// backends execute storms — the model and simulator have no ring to
/// overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Storm {
    /// Number of burst/balance/drain epochs.
    pub epochs: usize,
    /// Tasks spawned onto core 0 at each epoch's start — sized well past
    /// the tiny flavours' ring capacity so most of the burst overflows.
    pub fanout: usize,
    /// Concurrent balancing rounds per epoch, run with no tick in between.
    pub rounds: usize,
}

/// An open-loop arrival driver for the real executor: Poisson arrivals at
/// a fixed offered rate, each request costing a sampled service time,
/// submitted on the generator's clock *regardless of completions* — the
/// load shape under which queueing delay (and so the measured end-to-end
/// p99/p999) is honest rather than self-throttled.  Only the `exec` backend
/// executes open loops: the model and simulators have no wall clock to
/// measure against, and the runqueue harnesses drive balancing rounds, not
/// request streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoop {
    /// Offered arrival rate, in requests per second.
    pub rate_hz: u64,
    /// Generator horizon, in milliseconds of wall-clock time.
    pub duration_ms: u64,
    /// Per-request service-time distribution.
    pub service: Service,
    /// RNG seed for the arrival/service draws (11 where the document names
    /// none).
    pub seed: u64,
}

/// The service-time distribution of an open-loop driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Every request costs exactly this many nanoseconds.
    Fixed(u64),
    /// Exponentially distributed with the given mean, in nanoseconds.
    Exp(u64),
    /// `long_pct` percent (0–100) of requests cost `long_ns`, the rest
    /// `short_ns`: `bimodal(short_ns, long_ns, long_pct)`.
    Bimodal(u64, u64, u8),
}

/// How work arrives while the balancer runs — exactly one of five shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Replay the initial load vector and balance to convergence (or the
    /// round budget).
    Replay,
    /// The simulator runs a named workload generator; the model and
    /// runqueue backends replay the load vector as usual.
    Workload {
        /// Which generator runs.
        kind: WorkloadKind,
        /// RNG seed for the generator.
        seed: u64,
        /// Service-time jitter, in percent.
        jitter_pct: u32,
    },
    /// Bursty on/off epochs replacing the run-to-convergence loop.
    Burst(Burst),
    /// Overflow storms (runqueue backends only).
    Storm(Storm),
    /// Open-loop request stream on the real executor (`exec` backend only).
    OpenLoop(OpenLoop),
}

/// Steal-batch sizing for the runqueue backends: how many threads one
/// successful steal decision may claim in a single queue acquisition.  It
/// is sugar for the policy's step 3 (`Fixed(k)` is
/// `sched_core::StealRule::Fixed(k)`, `Half` is `HalfImbalance`); the model
/// and simulator have no queue acquisition for a batch to amortise, so a
/// batched row there would measure nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// A fixed batch of `k >= 1` per acquisition; `Fixed(1)` is the
    /// Listing 1 `stealOneThread` baseline every other point is compared
    /// against.
    Fixed(usize),
    /// Half the observed thief/victim imbalance (at least one) — the
    /// convergence-preserving transfer that leaves neither side more
    /// loaded than the other was.
    Half,
}

/// An invariant a scenario is expected to uphold: a claim *about* a run,
/// checked against its records after the fact, not an input to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// No core ends (or stays) idle while another has waiting work.
    WorkConservation,
    /// No task is lost or duplicated by balancing.
    ConservationOfTasks,
    /// Balancing never makes any core more loaded than the initial maximum.
    NonInversion,
}

impl Invariant {
    const ALL: [Invariant; 3] =
        [Invariant::WorkConservation, Invariant::ConservationOfTasks, Invariant::NonInversion];

    /// The clause keyword for this invariant.
    pub fn keyword(self) -> &'static str {
        match self {
            Invariant::WorkConservation => "work_conservation",
            Invariant::ConservationOfTasks => "conservation_of_tasks",
            Invariant::NonInversion => "non_inversion",
        }
    }
}

/// One experiment, declared once, executable on every backend: one
/// `scenario` block of a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Human-readable scenario name (the `scenario` record column).
    pub name: String,
    /// Key of the experiment this scenario belongs to (`e1` … `e26`).
    pub experiment: String,
    /// Machine shape; `loads.len()` must equal its core count.
    pub topology: Topology,
    /// Initial per-core load vector (`loads[i]` threads start on core `i`).
    pub loads: Vec<usize>,
    /// Policy recipe.
    pub policy: PolicyRecipe,
    /// Backend matrix: only backends whose name appears here execute the
    /// scenario.  `None` means every applicable backend (a backend may
    /// still decline, e.g. the model on storms).
    pub backends: Option<Vec<String>>,
    /// How work arrives while the balancer runs.
    pub driver: Driver,
    /// Balancing-round budget for the model and runqueue backends (replay
    /// and workload drivers; burst/storm epochs pace themselves).
    pub budget: usize,
    /// Event budget for the simulator backends: both sim engines stop after
    /// this many processed events and report the run as truncated.  E24
    /// uses it to cap the tick engine where the event engine finishes
    /// comfortably.  `None` means unbounded.
    pub events: Option<u64>,
    /// Same-time tie-break seed for the event-driven simulator backend;
    /// `None` keeps the parity-preserving priority ordering.  Repro
    /// documents emitted by the fuzzer's ordering sweep carry it.
    pub order: Option<u64>,
    /// Steal-batch sizing for the E23 sweep, if any (runqueue backends
    /// only; `None` keeps the policy's own step 3).
    pub batch: Option<Batch>,
    /// Give the initial tasks mixed niceness (cycling −10 / 0 / 10:
    /// important, normal, background) instead of uniform `nice 0`.
    pub mixed_nice: bool,
    /// Invariants the scenario's records must uphold.
    pub expect: Vec<Invariant>,
}

impl Scenario {
    /// Total threads in the initial load vector.
    pub fn nr_threads(&self) -> usize {
        self.loads.iter().sum()
    }
}

/// Parses a scenario document: a sequence of one or more `scenario` blocks.
///
/// # Examples
///
/// ```
/// let docs = sched_dsl::doc::parse_doc(
///     "scenario \"probe\" {\n\
///          experiment e1;\n\
///          topology flat(2);\n\
///          loads [3, 0];\n\
///          policy listing1;\n\
///          driver replay;\n\
///          budget 16;\n\
///      }",
/// )
/// .unwrap();
/// assert_eq!(docs.len(), 1);
/// assert_eq!(docs[0].experiment, "e1");
/// ```
pub fn parse_doc(source: &str) -> Result<Vec<Scenario>, DslError> {
    let tokens = lex(source)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut docs = Vec::new();
    while parser.peek().is_some() {
        docs.push(scenario(&mut parser)?);
    }
    if docs.is_empty() {
        return Err(DslError::parse("a scenario document needs at least one `scenario` block"));
    }
    Ok(docs)
}

fn scenario(p: &mut Parser) -> Result<Scenario, DslError> {
    p.expect_keyword("scenario")?;
    let name = match p.next()? {
        Token::Str(s) => s,
        other => {
            return Err(DslError::parse(format!(
                "expected a quoted scenario name, found {other:?}"
            )))
        }
    };
    p.expect(Token::LBrace)?;

    let mut experiment = None;
    let mut topology = None;
    let mut loads = None;
    let mut policy = None;
    let mut backends = None;
    let mut driver = None;
    let mut budget = None;
    let mut events = None;
    let mut order = None;
    let mut batch = None;
    let mut mixed_nice = false;
    let mut expect = None;

    while p.peek() != Some(&Token::RBrace) {
        let keyword = p.expect_ident()?;
        let dup = |slot_taken: bool| {
            if slot_taken {
                Err(DslError::parse(format!("duplicate `{keyword}` clause in scenario `{name}`")))
            } else {
                Ok(())
            }
        };
        match keyword.as_str() {
            "experiment" => {
                dup(experiment.is_some())?;
                experiment = Some(p.expect_ident()?);
                p.expect(Token::Semi)?;
            }
            "topology" => {
                dup(topology.is_some())?;
                topology = Some(topo(p)?);
                p.expect(Token::Semi)?;
            }
            "loads" => {
                dup(loads.is_some())?;
                loads = Some(load_list(p)?);
                p.expect(Token::Semi)?;
            }
            "policy" => {
                dup(policy.is_some())?;
                policy = Some(policy_clause(p)?);
            }
            "backends" => {
                dup(backends.is_some())?;
                backends = Some(backend_list(p)?);
                p.expect(Token::Semi)?;
            }
            "driver" => {
                dup(driver.is_some())?;
                driver = Some(driver_clause(p)?);
            }
            "budget" => {
                dup(budget.is_some())?;
                budget = Some(count(p, "budget")?);
                p.expect(Token::Semi)?;
            }
            "events" => {
                dup(events.is_some())?;
                events = Some(unsigned(p, "events")?);
                p.expect(Token::Semi)?;
            }
            "order" => {
                dup(order.is_some())?;
                order = Some(unsigned(p, "order")?);
                p.expect(Token::Semi)?;
            }
            "batch" => {
                dup(batch.is_some())?;
                batch = Some(match p.next()? {
                    Token::Int(k) if k > 0 => Batch::Fixed(to_count(k, "batch size")?),
                    Token::Ident(word) if word == "half" => Batch::Half,
                    other => {
                        return Err(DslError::parse(format!(
                            "expected a positive batch size or `half`, found {other:?}"
                        )))
                    }
                });
                p.expect(Token::Semi)?;
            }
            "mixed_nice" => {
                dup(mixed_nice)?;
                mixed_nice = true;
                p.expect(Token::Semi)?;
            }
            "expect" => {
                dup(expect.is_some())?;
                expect = Some(expect_block(p)?);
            }
            other => {
                return Err(DslError::parse(format!(
                    "unknown scenario clause `{other}` in scenario `{name}`"
                )))
            }
        }
    }
    p.expect(Token::RBrace)?;

    let require =
        |what: &str| DslError::parse(format!("scenario `{name}` needs a `{what}` clause"));
    Ok(Scenario {
        experiment: experiment.ok_or_else(|| require("experiment"))?,
        topology: topology.ok_or_else(|| require("topology"))?,
        loads: loads.ok_or_else(|| require("loads"))?,
        policy: policy.ok_or_else(|| require("policy"))?,
        backends,
        driver: driver.unwrap_or(Driver::Replay),
        budget: budget.unwrap_or(0),
        events,
        order,
        batch,
        mixed_nice,
        expect: expect.unwrap_or_default(),
        name,
    })
}

fn topo(p: &mut Parser) -> Result<Topology, DslError> {
    match p.expect_ident()?.as_str() {
        "flat" => {
            p.expect(Token::LParen)?;
            let n = count(p, "core count")?;
            p.expect(Token::RParen)?;
            if n == 0 {
                return Err(DslError::parse("a flat topology needs at least one core"));
            }
            Ok(Topology::Flat(n))
        }
        "dual_socket" => Ok(Topology::DualSocket),
        "eight_node" => Ok(Topology::EightNode),
        other => Err(DslError::parse(format!(
            "unknown topology `{other}` (expected `flat(<cores>)`, `dual_socket` or `eight_node`)"
        ))),
    }
}

fn load_list(p: &mut Parser) -> Result<Vec<usize>, DslError> {
    p.expect(Token::LBracket)?;
    let mut items = Vec::new();
    if p.peek() != Some(&Token::RBracket) {
        loop {
            items.push(count(p, "load")?);
            match p.next()? {
                Token::Comma => continue,
                Token::RBracket => return Ok(items),
                other => {
                    return Err(DslError::parse(format!(
                        "expected `,` or `]` in a load list, found {other:?}"
                    )))
                }
            }
        }
    }
    p.expect(Token::RBracket)?;
    Ok(items)
}

fn backend_list(p: &mut Parser) -> Result<Vec<String>, DslError> {
    p.expect(Token::LBracket)?;
    let mut items = Vec::new();
    if p.peek() != Some(&Token::RBracket) {
        loop {
            match p.next()? {
                Token::Str(s) => items.push(s),
                other => {
                    return Err(DslError::parse(format!(
                        "expected a quoted backend name, found {other:?}"
                    )))
                }
            }
            match p.next()? {
                Token::Comma => continue,
                Token::RBracket => return Ok(items),
                other => {
                    return Err(DslError::parse(format!(
                        "expected `,` or `]` in a backend list, found {other:?}"
                    )))
                }
            }
        }
    }
    p.expect(Token::RBracket)?;
    Ok(items)
}

fn policy_clause(p: &mut Parser) -> Result<PolicyRecipe, DslError> {
    let name = p.expect_ident()?;
    // `policy <name> { … }` — an inline policy program; the brace block is
    // the same grammar `sched_dsl::parse` accepts after the header.
    if p.peek() == Some(&Token::LBrace) {
        return Ok(PolicyRecipe::Inline(p.policy_body(name)?));
    }
    let arg = if p.peek() == Some(&Token::LParen) {
        p.next()?;
        let arg = match p.next()? {
            Token::Int(v) => v,
            other => {
                return Err(DslError::parse(format!(
                    "expected an integer policy argument, found {other:?}"
                )))
            }
        };
        p.expect(Token::RParen)?;
        Some(arg)
    } else {
        None
    };
    p.expect(Token::Semi)?;
    let named = named_recipes().into_iter().find(|(known, _)| *known == name);
    match (named, arg) {
        (Some((_, recipe)), None) => Ok(recipe),
        (Some(_), Some(arg)) => {
            Err(DslError::parse(format!("policy `{name}` takes no argument (got {arg})")))
        }
        (None, Some(ms)) if name == "pelt_half_life" && (1..=3_600_000).contains(&ms) => {
            Ok(PolicyRecipe::PeltHalfLife(ms as u32))
        }
        (None, arg) if name == "pelt_half_life" => Err(DslError::parse(format!(
            "pelt_half_life needs a half-life in milliseconds (1 to 3600000), got {arg:?}"
        ))),
        (None, _) => Err(DslError::parse(format!(
            "unknown policy `{name}` (write an inline `policy {name} {{ … }}` block to define one)"
        ))),
    }
}

fn driver_clause(p: &mut Parser) -> Result<Driver, DslError> {
    match p.expect_ident()?.as_str() {
        "replay" => {
            p.expect(Token::Semi)?;
            Ok(Driver::Replay)
        }
        "workload" => {
            let word = p.expect_ident()?;
            let kind =
                WorkloadKind::ALL.into_iter().find(|k| k.keyword() == word).ok_or_else(|| {
                    DslError::parse(format!(
                        "unknown workload `{word}` (scientific, oltp, sleepers)"
                    ))
                })?;
            let (mut seed, mut jitter_pct) = (None, None);
            if p.peek() == Some(&Token::Semi) {
                p.next()?;
            } else {
                block(p, "workload", |p, key| match key {
                    "seed" => set_once(&mut seed, unsigned(p, "seed")?, key),
                    "jitter_pct" => set_once(&mut jitter_pct, percent(p)?, key),
                    other => Err(DslError::parse(format!("unknown workload clause `{other}`"))),
                })?;
            }
            let (default_seed, default_jitter) = kind.defaults();
            Ok(Driver::Workload {
                kind,
                seed: seed.unwrap_or(default_seed),
                jitter_pct: jitter_pct.unwrap_or(default_jitter),
            })
        }
        "burst" => {
            let (mut epochs, mut epoch_ns, mut warmup_ns) = (None, None, None);
            let (mut seed, mut jitter_pct) = (None, None);
            block(p, "burst", |p, key| match key {
                "epochs" => set_once(&mut epochs, count(p, key)?, key),
                "epoch_ns" => set_once(&mut epoch_ns, unsigned(p, key)?, key),
                "warmup_ns" => set_once(&mut warmup_ns, unsigned(p, key)?, key),
                "seed" => set_once(&mut seed, unsigned(p, key)?, key),
                "jitter_pct" => set_once(&mut jitter_pct, percent(p)?, key),
                other => Err(DslError::parse(format!("unknown burst clause `{other}`"))),
            })?;
            let need = |what: &str| DslError::parse(format!("a burst driver needs `{what}`"));
            Ok(Driver::Burst(Burst {
                epochs: epochs.ok_or_else(|| need("epochs"))?,
                epoch_ns: epoch_ns.ok_or_else(|| need("epoch_ns"))?,
                warmup_ns: warmup_ns.ok_or_else(|| need("warmup_ns"))?,
                seed: seed.unwrap_or(17),
                jitter_pct: jitter_pct.unwrap_or(40),
            }))
        }
        "storm" => {
            let (mut epochs, mut fanout, mut rounds) = (None, None, None);
            block(p, "storm", |p, key| match key {
                "epochs" => set_once(&mut epochs, count(p, key)?, key),
                "fanout" => set_once(&mut fanout, count(p, key)?, key),
                "rounds" => set_once(&mut rounds, count(p, key)?, key),
                other => Err(DslError::parse(format!("unknown storm clause `{other}`"))),
            })?;
            let need = |what: &str| DslError::parse(format!("a storm driver needs `{what}`"));
            Ok(Driver::Storm(Storm {
                epochs: epochs.ok_or_else(|| need("epochs"))?,
                fanout: fanout.ok_or_else(|| need("fanout"))?,
                rounds: rounds.ok_or_else(|| need("rounds"))?,
            }))
        }
        "openloop" => {
            let (mut rate_hz, mut duration_ms) = (None, None);
            let (mut service, mut seed) = (None, None);
            block(p, "openloop", |p, key| match key {
                "rate_hz" => set_once(&mut rate_hz, unsigned(p, key)?, key),
                "duration_ms" => set_once(&mut duration_ms, unsigned(p, key)?, key),
                "service" => set_once(&mut service, service_clause(p)?, key),
                "seed" => set_once(&mut seed, unsigned(p, key)?, key),
                other => Err(DslError::parse(format!("unknown openloop clause `{other}`"))),
            })?;
            let need = |what: &str| DslError::parse(format!("an openloop driver needs `{what}`"));
            Ok(Driver::OpenLoop(OpenLoop {
                rate_hz: rate_hz.ok_or_else(|| need("rate_hz"))?,
                duration_ms: duration_ms.ok_or_else(|| need("duration_ms"))?,
                service: service.ok_or_else(|| need("service"))?,
                seed: seed.unwrap_or(11),
            }))
        }
        other => Err(DslError::parse(format!(
            "unknown driver `{other}` (expected `replay`, `workload`, `burst`, `storm` or `openloop`)"
        ))),
    }
}

/// Parses a `service fixed(NS) | exp(NS) | bimodal(SHORT, LONG, PCT)`
/// distribution (the clause's trailing `;` belongs to the enclosing block).
fn service_clause(p: &mut Parser) -> Result<Service, DslError> {
    let kind = p.expect_ident()?;
    p.expect(Token::LParen)?;
    let mut args = vec![unsigned(p, "service argument")?];
    while p.peek() == Some(&Token::Comma) {
        p.next()?;
        args.push(unsigned(p, "service argument")?);
    }
    p.expect(Token::RParen)?;
    match (kind.as_str(), args.as_slice()) {
        ("fixed", [ns]) => Ok(Service::Fixed(*ns)),
        ("exp", [mean_ns]) => Ok(Service::Exp(*mean_ns)),
        ("bimodal", [short_ns, long_ns, pct]) if *pct <= 100 => {
            Ok(Service::Bimodal(*short_ns, *long_ns, *pct as u8))
        }
        ("bimodal", [_, _, pct]) => {
            Err(DslError::parse(format!("bimodal percentage must be 0–100, got {pct}")))
        }
        ("fixed" | "exp" | "bimodal", args) => Err(DslError::parse(format!(
            "wrong number of `{kind}` service arguments ({})",
            args.len()
        ))),
        (other, _) => Err(DslError::parse(format!(
            "unknown service mix `{other}` (expected `fixed`, `exp` or `bimodal`)"
        ))),
    }
}

/// Parses a `{ key value; … }` block, dispatching each key to `clause`.
fn block(
    p: &mut Parser,
    what: &str,
    mut clause: impl FnMut(&mut Parser, &str) -> Result<(), DslError>,
) -> Result<(), DslError> {
    p.expect(Token::LBrace)?;
    while p.peek() != Some(&Token::RBrace) {
        let key = p.expect_ident()?;
        clause(p, &key).map_err(|e| DslError::parse(format!("in `{what}` block: {e}")))?;
        p.expect(Token::Semi)?;
    }
    p.expect(Token::RBrace)?;
    Ok(())
}

fn set_once<T>(slot: &mut Option<T>, value: T, key: &str) -> Result<(), DslError> {
    if slot.is_some() {
        return Err(DslError::parse(format!("duplicate `{key}`")));
    }
    *slot = Some(value);
    Ok(())
}

fn unsigned(p: &mut Parser, what: &str) -> Result<u64, DslError> {
    match p.next()? {
        Token::Int(v) if v >= 0 => Ok(v as u64),
        Token::Int(v) => Err(DslError::parse(format!("{what} must be non-negative, got {v}"))),
        other => Err(DslError::parse(format!("expected an integer {what}, found {other:?}"))),
    }
}

/// A non-negative integer that counts things the harness allocates or
/// iterates over (cores, threads, rounds).
fn count(p: &mut Parser, what: &str) -> Result<usize, DslError> {
    match p.next()? {
        Token::Int(v) => to_count(v, what),
        other => Err(DslError::parse(format!("expected an integer {what}, found {other:?}"))),
    }
}

fn to_count(v: i64, what: &str) -> Result<usize, DslError> {
    usize::try_from(v).map_err(|_| DslError::parse(format!("{what} must be non-negative, got {v}")))
}

fn percent(p: &mut Parser) -> Result<u32, DslError> {
    match p.next()? {
        Token::Int(v) if (0..=100).contains(&v) => Ok(v as u32),
        Token::Int(v) => Err(DslError::parse(format!("jitter_pct must be 0–100, got {v}"))),
        other => Err(DslError::parse(format!("expected a jitter percentage, found {other:?}"))),
    }
}

fn expect_block(p: &mut Parser) -> Result<Vec<Invariant>, DslError> {
    let mut invariants = Vec::new();
    block(p, "expect", |_, key| {
        let inv = Invariant::ALL
            .into_iter()
            .find(|inv| inv.keyword() == key)
            .ok_or_else(|| DslError::parse(format!("unknown invariant `{key}`")))?;
        if invariants.contains(&inv) {
            return Err(DslError::parse(format!("duplicate invariant `{key}`")));
        }
        invariants.push(inv);
        Ok(())
    })?;
    Ok(invariants)
}

/// Renders a whole document (blank line between scenarios).
pub fn print_doc(scenarios: &[Scenario]) -> String {
    scenarios.iter().map(print_scenario).collect::<Vec<_>>().join("\n")
}

/// Renders one scenario block as canonical source: every clause in a fixed
/// order, every seed and jitter spelled out.
///
/// Forms a round-trip pair with [`parse_doc`]:
/// `parse_doc(&print_scenario(&s)) == vec![s]`.
pub fn print_scenario(scenario: &Scenario) -> String {
    let mut out = String::new();
    out.push_str(&format!("scenario \"{}\" {{\n", escape(&scenario.name)));
    out.push_str(&format!("    experiment {};\n", scenario.experiment));
    out.push_str(&format!(
        "    topology {};\n",
        match scenario.topology {
            Topology::Flat(n) => format!("flat({n})"),
            Topology::DualSocket => "dual_socket".into(),
            Topology::EightNode => "eight_node".into(),
        }
    ));
    let loads: Vec<String> = scenario.loads.iter().map(usize::to_string).collect();
    out.push_str(&format!("    loads [{}];\n", loads.join(", ")));
    match &scenario.policy {
        PolicyRecipe::Inline(def) => out.push_str(&print_inline_policy(def)),
        PolicyRecipe::PeltHalfLife(ms) => {
            out.push_str(&format!("    policy pelt_half_life({ms});\n"))
        }
        named => {
            let (name, _) = named_recipes()
                .into_iter()
                .find(|(_, recipe)| recipe == named)
                .expect("every argument-less recipe has a name");
            out.push_str(&format!("    policy {name};\n"));
        }
    }
    if let Some(backends) = &scenario.backends {
        let quoted: Vec<String> = backends.iter().map(|b| format!("\"{}\"", escape(b))).collect();
        out.push_str(&format!("    backends [{}];\n", quoted.join(", ")));
    }
    out.push_str(&print_driver(&scenario.driver));
    out.push_str(&format!("    budget {};\n", scenario.budget));
    if let Some(events) = scenario.events {
        out.push_str(&format!("    events {events};\n"));
    }
    if let Some(order) = scenario.order {
        out.push_str(&format!("    order {order};\n"));
    }
    match scenario.batch {
        None => {}
        Some(Batch::Fixed(k)) => out.push_str(&format!("    batch {k};\n")),
        Some(Batch::Half) => out.push_str("    batch half;\n"),
    }
    if scenario.mixed_nice {
        out.push_str("    mixed_nice;\n");
    }
    if !scenario.expect.is_empty() {
        out.push_str("    expect {\n");
        for inv in &scenario.expect {
            out.push_str(&format!("        {};\n", inv.keyword()));
        }
        out.push_str("    }\n");
    }
    out.push_str("}\n");
    out
}

fn print_driver(driver: &Driver) -> String {
    let block = |head: &str, clauses: &[(&str, String)]| {
        let mut s = format!("    driver {head} {{\n");
        for (key, value) in clauses {
            s.push_str(&format!("        {key} {value};\n"));
        }
        s.push_str("    }\n");
        s
    };
    match *driver {
        Driver::Replay => "    driver replay;\n".into(),
        Driver::Workload { kind, seed, jitter_pct } => block(
            &format!("workload {}", kind.keyword()),
            &[("seed", seed.to_string()), ("jitter_pct", jitter_pct.to_string())],
        ),
        Driver::Burst(Burst { epochs, epoch_ns, warmup_ns, seed, jitter_pct }) => block(
            "burst",
            &[
                ("epochs", epochs.to_string()),
                ("epoch_ns", epoch_ns.to_string()),
                ("warmup_ns", warmup_ns.to_string()),
                ("seed", seed.to_string()),
                ("jitter_pct", jitter_pct.to_string()),
            ],
        ),
        Driver::Storm(Storm { epochs, fanout, rounds }) => block(
            "storm",
            &[
                ("epochs", epochs.to_string()),
                ("fanout", fanout.to_string()),
                ("rounds", rounds.to_string()),
            ],
        ),
        Driver::OpenLoop(OpenLoop { rate_hz, duration_ms, service, seed }) => block(
            "openloop",
            &[
                ("rate_hz", rate_hz.to_string()),
                ("duration_ms", duration_ms.to_string()),
                (
                    "service",
                    match service {
                        Service::Fixed(ns) => format!("fixed({ns})"),
                        Service::Exp(mean_ns) => format!("exp({mean_ns})"),
                        Service::Bimodal(short_ns, long_ns, pct) => {
                            format!("bimodal({short_ns}, {long_ns}, {pct})")
                        }
                    },
                ),
                ("seed", seed.to_string()),
            ],
        ),
    }
}

/// Renders an inline policy at scenario indent:
/// [`crate::pretty::print_policy`]'s canonical source, one level deeper.
fn print_inline_policy(def: &PolicyDef) -> String {
    print_policy(def).lines().map(|line| format!("    {line}\n")).collect()
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn replay_doc() -> Scenario {
        Scenario {
            name: "single hot core".into(),
            experiment: "e2".into(),
            topology: Topology::Flat(8),
            loads: vec![16, 0, 0, 0, 0, 0, 0, 0],
            policy: PolicyRecipe::Listing1,
            backends: None,
            driver: Driver::Replay,
            budget: 128,
            events: None,
            order: None,
            batch: None,
            mixed_nice: false,
            expect: Invariant::ALL.to_vec(),
        }
    }

    #[test]
    fn replay_scenario_round_trips() {
        let doc = replay_doc();
        let printed = print_scenario(&doc);
        let parsed = parse_doc(&printed).unwrap();
        assert_eq!(parsed, vec![doc], "printed source:\n{printed}");
    }

    #[test]
    fn every_driver_shape_round_trips() {
        let mut burst = replay_doc();
        burst.driver = Driver::Burst(Burst {
            epochs: 32,
            epoch_ns: 1_000_000,
            warmup_ns: 256_000_000,
            seed: 3,
            jitter_pct: 0,
        });
        let mut storm = replay_doc();
        storm.driver = Driver::Storm(Storm { epochs: 16, fanout: 24, rounds: 2 });
        storm.batch = Some(Batch::Half);
        storm.budget = 0;
        let mut docs = vec![replay_doc(), burst, storm];
        for (kind, seed, jitter_pct) in [
            (WorkloadKind::Scientific, 42, 5),
            (WorkloadKind::Oltp, 9, 0),
            (WorkloadKind::Sleepers, 24, 100),
        ] {
            let mut workload = replay_doc();
            workload.name = format!("{kind:?}");
            workload.driver = Driver::Workload { kind, seed, jitter_pct };
            workload.topology = Topology::DualSocket;
            workload.backends = Some(vec!["model".into(), "sim".into(), "rq-deque".into()]);
            workload.mixed_nice = true;
            docs.push(workload);
        }
        let mut event = replay_doc();
        event.backends = Some(vec!["sim".into(), "sim-event".into()]);
        event.events = Some(4_000_000);
        event.order = Some(7);
        docs.push(event);
        let printed = print_doc(&docs);
        assert_eq!(parse_doc(&printed).unwrap(), docs, "printed source:\n{printed}");
    }

    #[test]
    fn omitted_seeds_and_jitters_get_the_per_kind_defaults() {
        let base = "experiment e9; topology flat(2); loads [1, 0]; policy listing1;";
        let driver = |clause: &str| {
            parse_doc(&format!("scenario \"x\" {{ {base} driver {clause} }}"))
                .unwrap()
                .remove(0)
                .driver
        };
        for (kind, seed, jitter_pct) in [
            (WorkloadKind::Scientific, 42, 5),
            (WorkloadKind::Oltp, 7, 20),
            (WorkloadKind::Sleepers, 24, 20),
        ] {
            let clause = format!("workload {};", kind.keyword());
            assert_eq!(driver(&clause), Driver::Workload { kind, seed, jitter_pct });
        }
        // A block may name either one; the other keeps its default.
        assert_eq!(
            driver("workload oltp { jitter_pct 3; }"),
            Driver::Workload { kind: WorkloadKind::Oltp, seed: 7, jitter_pct: 3 }
        );
        let Driver::Burst(burst) = driver("burst { epochs 4; epoch_ns 10; warmup_ns 80; }") else {
            panic!("a burst driver")
        };
        assert_eq!((burst.seed, burst.jitter_pct), (17, 40));
        let Driver::OpenLoop(openloop) =
            driver("openloop { rate_hz 100; duration_ms 10; service fixed(10); }")
        else {
            panic!("an open-loop driver")
        };
        assert_eq!(openloop.seed, 11);
        let err = parse_doc(&format!("scenario \"x\" {{ {base} driver workload webserver; }}"))
            .unwrap_err();
        assert!(err.to_string().contains("unknown workload"), "{err}");
    }

    #[test]
    fn inline_policies_embed_the_policy_grammar() {
        let source = "scenario \"inline\" {\n\
                          experiment e13;\n\
                          topology flat(4);\n\
                          loads [8, 0, 0, 0];\n\
                          policy listing1 {\n\
                              metric threads;\n\
                              filter = victim.load - self.load >= 2;\n\
                              choose = max victim.load;\n\
                              steal  = 1;\n\
                          }\n\
                          driver replay;\n\
                          budget 64;\n\
                      }";
        let docs = parse_doc(source).unwrap();
        let PolicyRecipe::Inline(def) = &docs[0].policy else {
            panic!("expected an inline policy, got {:?}", docs[0].policy)
        };
        assert_eq!(def, &crate::parser::parse(crate::stdlib::LISTING1).unwrap());
        let reparsed = parse_doc(&print_scenario(&docs[0])).unwrap();
        assert_eq!(reparsed, docs);
    }

    #[test]
    fn named_policy_arguments_round_trip() {
        let mut doc = replay_doc();
        doc.policy = PolicyRecipe::PeltHalfLife(4);
        assert_eq!(parse_doc(&print_scenario(&doc)).unwrap(), vec![doc]);
    }

    #[test]
    fn recipe_names_are_resolved_by_the_parser() {
        let policy = |clause: &str| {
            parse_doc(&format!(
                "scenario \"x\" {{ experiment e1; topology flat(2); loads [1, 0]; policy {clause}; }}"
            ))
            .map(|mut docs| docs.remove(0).policy)
        };
        for (name, recipe) in named_recipes() {
            assert_eq!(policy(name).unwrap(), recipe);
        }
        for (clause, complaint) in [
            ("bogus", "unknown policy"),
            ("bogus(3)", "unknown policy"),
            ("listing1(3)", "takes no argument"),
            ("pelt_half_life", "half-life in milliseconds"),
            ("pelt_half_life(0)", "half-life in milliseconds"),
            ("pelt_half_life(3600001)", "half-life in milliseconds"),
        ] {
            let err = policy(clause).unwrap_err();
            assert!(err.to_string().contains(complaint), "{clause}: {err}");
        }
    }

    #[test]
    fn missing_required_clauses_are_rejected() {
        let err = parse_doc("scenario \"x\" { topology flat(2); loads [1, 0]; policy pelt; }")
            .unwrap_err();
        assert!(err.to_string().contains("experiment"), "{err}");
        let err =
            parse_doc("scenario \"x\" { experiment e1; loads [1, 0]; policy pelt; }").unwrap_err();
        assert!(err.to_string().contains("topology"), "{err}");
        assert!(parse_doc("").is_err());
    }

    #[test]
    fn duplicate_and_unknown_clauses_are_rejected() {
        let base = "experiment e1; topology flat(2); loads [1, 0]; policy pelt;";
        let err = parse_doc(&format!("scenario \"x\" {{ {base} driver replay; driver storm {{ epochs 1; fanout 2; rounds 1; }} }}"))
            .unwrap_err();
        assert!(err.to_string().contains("duplicate `driver`"), "{err}");
        let err = parse_doc(&format!("scenario \"x\" {{ {base} frobnicate 3; }}")).unwrap_err();
        assert!(err.to_string().contains("unknown scenario clause"), "{err}");
        let err =
            parse_doc(&format!("scenario \"x\" {{ {base} expect {{ conservation_of_mass; }} }}"))
                .unwrap_err();
        assert!(err.to_string().contains("unknown invariant"), "{err}");
    }

    #[test]
    fn incomplete_driver_blocks_are_rejected() {
        let base = "experiment e1; topology flat(2); loads [1, 0]; policy pelt;";
        let err = parse_doc(&format!(
            "scenario \"x\" {{ {base} driver storm {{ epochs 4; fanout 8; }} }}"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("rounds"), "{err}");
        let err = parse_doc(&format!(
            "scenario \"x\" {{ {base} driver burst {{ epochs 4; epoch_ns 1000; }} }}"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("warmup_ns"), "{err}");
    }

    #[test]
    fn openloop_drivers_parse_and_round_trip() {
        let base = "experiment e26; topology flat(4); loads [0, 0, 0, 0]; policy pelt;";
        let source = format!(
            "scenario \"ladder\" {{ {base} driver openloop {{ rate_hz 6000; duration_ms 120; \
             service bimodal(2000, 20000, 5); seed 42; }} }}"
        );
        let docs = parse_doc(&source).unwrap();
        assert_eq!(
            docs[0].driver,
            Driver::OpenLoop(OpenLoop {
                rate_hz: 6000,
                duration_ms: 120,
                service: Service::Bimodal(2000, 20_000, 5),
                seed: 42,
            })
        );
        assert_eq!(parse_doc(&print_scenario(&docs[0])).unwrap(), docs);

        let err = parse_doc(&format!(
            "scenario \"x\" {{ {base} driver openloop {{ rate_hz 100; service fixed(10); }} }}"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("duration_ms"), "{err}");
        let err = parse_doc(&format!(
            "scenario \"x\" {{ {base} driver openloop {{ rate_hz 100; duration_ms 10; \
             service trimodal(1, 2, 3); }} }}"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("unknown service mix"), "{err}");
        let err = parse_doc(&format!(
            "scenario \"x\" {{ {base} driver openloop {{ rate_hz 100; duration_ms 10; \
             service bimodal(1, 2, 150); }} }}"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("0–100"), "{err}");
        let err = parse_doc(&format!(
            "scenario \"x\" {{ {base} driver openloop {{ rate_hz 100; duration_ms 10; \
             service exp(1, 2); }} }}"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("wrong number"), "{err}");
    }

    fn arb_driver() -> impl Strategy<Value = Driver> {
        let kind = prop_oneof![
            Just(WorkloadKind::Scientific),
            Just(WorkloadKind::Oltp),
            Just(WorkloadKind::Sleepers),
        ];
        prop_oneof![
            Just(Driver::Replay),
            (1usize..40, 1u64..5_000_000u64, 0u64..100, 0u32..=100).prop_map(
                |(epochs, epoch_ns, seed, jitter_pct)| Driver::Burst(Burst {
                    epochs,
                    epoch_ns,
                    warmup_ns: epoch_ns * 8,
                    seed,
                    jitter_pct,
                })
            ),
            (1usize..20, 1usize..64, 1usize..5).prop_map(|(epochs, fanout, rounds)| {
                Driver::Storm(Storm { epochs, fanout, rounds })
            }),
            (kind, 0u64..100, 0u32..=100).prop_map(|(kind, seed, jitter_pct)| Driver::Workload {
                kind,
                seed,
                jitter_pct
            }),
            (1u64..100_000, 1u64..2_000, arb_service(), 0u64..100).prop_map(
                |(rate_hz, duration_ms, service, seed)| Driver::OpenLoop(OpenLoop {
                    rate_hz,
                    duration_ms,
                    service,
                    seed,
                })
            ),
        ]
    }

    fn arb_service() -> impl Strategy<Value = Service> {
        prop_oneof![
            (1u64..1_000_000).prop_map(Service::Fixed),
            (1u64..1_000_000).prop_map(Service::Exp),
            (1u64..100_000, 1u64..1_000_000, 0u8..=100)
                .prop_map(|(s, l, p)| Service::Bimodal(s, l, p)),
        ]
    }

    fn arb_doc() -> impl Strategy<Value = Scenario> {
        let topo = prop_oneof![
            (1usize..12).prop_map(Topology::Flat),
            Just(Topology::DualSocket),
            Just(Topology::EightNode),
        ];
        let policy = prop_oneof![
            (0..named_recipes().len()).prop_map(|i| named_recipes()[i].1.clone()),
            (1u32..64).prop_map(PolicyRecipe::PeltHalfLife),
        ];
        let batch = prop_oneof![
            Just(None),
            (1usize..16).prop_map(|k| Some(Batch::Fixed(k))),
            Just(Some(Batch::Half)),
        ];
        let head = (0u64..1000, 1u64..24, topo, prop::collection::vec(0usize..20, 1..16));
        let mid = (policy, arb_driver(), 0usize..2048, batch);
        let events = prop_oneof![Just(None), (1u64..10_000_000).prop_map(Some)];
        let order = prop_oneof![Just(None), (0u64..1_000).prop_map(Some)];
        let tail = (any::<bool>(), 0u8..8, events, order);
        (head, mid, tail).prop_map(
            |(
                (name_nr, exp, topology, loads),
                (policy, driver, budget, batch),
                (mixed_nice, invariant_mask, events, order),
            )| {
                let expect = Invariant::ALL
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| invariant_mask & (1 << i) != 0)
                    .map(|(_, inv)| inv)
                    .collect();
                Scenario {
                    name: format!("generated scenario #{name_nr}: a \"quoted\" name"),
                    experiment: format!("e{exp}"),
                    topology,
                    loads,
                    policy,
                    backends: None,
                    driver,
                    budget,
                    events,
                    order,
                    batch,
                    mixed_nice,
                    expect,
                }
            },
        )
    }

    proptest! {
        #[test]
        fn random_documents_round_trip(doc in arb_doc()) {
            let printed = print_scenario(&doc);
            let parsed = parse_doc(&printed).unwrap();
            prop_assert!(parsed == vec![doc], "round trip changed the document; printed source:\n{}", printed);
        }
    }
}
