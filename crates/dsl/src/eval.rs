//! The executable backend: compiling a DSL policy into `sched-core` policy
//! objects (the analogue of the paper's "compiled to C" path).

use sched_core::tracker::TrackerSpec;
use sched_core::{ChoicePolicy, CoreId, CoreSnapshot, FilterPolicy, LoadMetric, Policy};

use crate::ast::{Actor, BinOp, ChooseRule, Expr, Field, LoadSpec, MetricSpec, PolicyDef};
use crate::error::DslError;
use crate::phase_check::{phase_check, PhaseWarning};
use crate::typecheck::typecheck;

/// The result of compiling a policy definition.
pub struct CompiledPolicy {
    /// The executable policy.
    pub policy: Policy,
    /// Warnings produced by the phase checker.
    pub warnings: Vec<PhaseWarning>,
    /// The definition the policy was compiled from.
    pub def: PolicyDef,
}

/// Compiles a checked policy definition into an executable [`Policy`].
pub fn compile(def: &PolicyDef) -> Result<CompiledPolicy, DslError> {
    typecheck(def)?;
    let warnings = phase_check(def)?;
    let base = match def.metric {
        MetricSpec::Threads => LoadMetric::NrThreads,
        MetricSpec::Weighted => LoadMetric::Weighted,
    };
    // A `load pelt(h)` clause wraps the base metric in a decayed tracker and
    // makes every `.load` in the policy read the tracked view.
    let tracker = match def.load {
        Some(LoadSpec::Pelt { half_life_ms }) => {
            TrackerSpec::Pelt { base, half_life_ns: u64::from(half_life_ms) * 1_000_000 }
        }
        _ => TrackerSpec::instantaneous(base),
    };
    let built = tracker.build();
    let metric = built.view();
    let policy = Policy::with_tracker(
        built,
        Box::new(DslFilter { expr: def.filter.clone(), metric }),
        Box::new(DslChoice { rule: def.choose.clone(), metric }),
        def.steal,
    );
    Ok(CompiledPolicy { policy, warnings, def: def.clone() })
}

/// Parses, checks and compiles DSL source in one step.
pub fn compile_source(source: &str) -> Result<CompiledPolicy, DslError> {
    let def = crate::parser::parse(source)?;
    compile(&def)
}

/// Evaluates an expression over the two observations.  A boolean is 0 or
/// 1: the type checker keeps integer and boolean operands apart, so one
/// evaluator serves the filter and the choose key.
fn eval(expr: &Expr, this: &CoreSnapshot, victim: &CoreSnapshot, metric: LoadMetric) -> i128 {
    match expr {
        Expr::Int(v) => i128::from(*v),
        Expr::Field(actor, field) => {
            let snap = match actor {
                Actor::SelfCore => this,
                Actor::Victim => victim,
            };
            let value = match field {
                Field::Load => snap.load(metric),
                Field::NrThreads => snap.nr_threads,
                Field::WeightedLoad => snap.weighted_load,
                Field::LightestReady => snap.lightest_ready_weight.unwrap_or(0),
                Field::TrackedLoad => snap.load(LoadMetric::Tracked),
            };
            i128::from(value)
        }
        Expr::Binary(op, lhs, rhs) => {
            let l = eval(lhs, this, victim, metric);
            let r = eval(rhs, this, victim, metric);
            match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Mul => l * r,
                BinOp::Ge => i128::from(l >= r),
                BinOp::Gt => i128::from(l > r),
                BinOp::Le => i128::from(l <= r),
                BinOp::Lt => i128::from(l < r),
                BinOp::Eq => i128::from(l == r),
                BinOp::Ne => i128::from(l != r),
                BinOp::And => l & r,
                BinOp::Or => l | r,
            }
        }
    }
}

/// Step 1 compiled from a DSL filter expression.
#[derive(Debug, Clone)]
pub struct DslFilter {
    expr: Expr,
    metric: LoadMetric,
}

impl FilterPolicy for DslFilter {
    fn can_steal(&self, thief: &CoreSnapshot, victim: &CoreSnapshot) -> bool {
        eval(&self.expr, thief, victim, self.metric) != 0
    }

    fn name(&self) -> &'static str {
        "dsl_filter"
    }
}

/// Step 2 compiled from a DSL choose rule.
#[derive(Debug, Clone)]
pub struct DslChoice {
    rule: ChooseRule,
    metric: LoadMetric,
}

impl ChoicePolicy for DslChoice {
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        match &self.rule {
            ChooseRule::First => candidates.first().map(|c| c.id),
            ChooseRule::MaxBy(key) => candidates
                .iter()
                .max_by_key(|c| (eval(key, thief, c, self.metric), std::cmp::Reverse(c.id)))
                .map(|c| c.id),
            ChooseRule::MinBy(key) => candidates
                .iter()
                .min_by_key(|c| (eval(key, thief, c, self.metric), c.id))
                .map(|c| c.id),
        }
    }

    fn name(&self) -> &'static str {
        "dsl_choice"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::prelude::*;

    const LISTING1: &str = "policy listing1 {\n    metric threads;\n    filter = victim.load - self.load >= 2;\n    choose = max victim.load;\n    steal  = 1;\n}";

    #[test]
    fn compiled_listing1_behaves_like_the_handwritten_policy() {
        let compiled = compile_source(LISTING1).unwrap();
        assert!(compiled.warnings.is_empty());

        let mut via_dsl = SystemState::from_loads(&[0, 4, 1, 0]);
        let mut via_rust = via_dsl.clone();
        let dsl_balancer = Balancer::new(compiled.policy);
        let rust_balancer = Balancer::new(Policy::simple());
        let a = converge(&mut via_dsl, &dsl_balancer, RoundSchedule::Sequential, 16);
        let b = converge(&mut via_rust, &rust_balancer, RoundSchedule::Sequential, 16);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(
            via_dsl.loads(LoadMetric::NrThreads),
            via_rust.loads(LoadMetric::NrThreads),
            "the DSL backend and the handwritten policy must agree step for step"
        );
    }

    #[test]
    fn greedy_dsl_policy_compiles_with_a_warning() {
        let compiled = compile_source("policy greedy { filter = stealee.load >= 2; }").unwrap();
        assert_eq!(compiled.warnings.len(), 1);
        assert_eq!(compiled.def.name, "greedy");
    }

    #[test]
    fn choose_min_prefers_the_least_loaded_candidate() {
        let compiled = compile_source(
            "policy nearest { filter = victim.load - self.load >= 2; choose = min victim.load; }",
        )
        .unwrap();
        let system = SystemState::from_loads(&[0, 3, 5]);
        let snapshot = SystemSnapshot::capture(&system);
        let balancer = Balancer::new(compiled.policy);
        let selection = balancer.select(&snapshot, CoreId(0));
        assert_eq!(selection.chosen, Some(CoreId(1)));
    }

    #[test]
    fn steal_count_is_respected() {
        let compiled =
            compile_source("policy batch { filter = victim.load - self.load >= 2; steal = 2; }")
                .unwrap();
        let mut system = SystemState::from_loads(&[0, 5]);
        let balancer = Balancer::new(compiled.policy);
        let round =
            ConcurrentRound::new(&balancer).execute(&mut system, &RoundSchedule::Sequential);
        assert_eq!(round.nr_stolen(), 2);
        // `steal = half` is the step the executor runs.
        let compiled =
            compile_source("policy half { filter = victim.load - self.load >= 2; steal = half; }")
                .unwrap();
        assert_eq!(compiled.policy.steal, StealRule::HalfImbalance);
        let mut system = SystemState::from_loads(&[0, 7]);
        let balancer = Balancer::new(compiled.policy);
        let round =
            ConcurrentRound::new(&balancer).execute(&mut system, &RoundSchedule::Sequential);
        assert_eq!(round.nr_stolen(), 3);
    }

    #[test]
    fn ill_typed_sources_do_not_compile() {
        assert!(compile_source("policy p { filter = victim.load + self.load; }").is_err());
        assert!(compile_source("policy p { filter = self.load >= 2; }").is_err());
    }

    #[test]
    fn tracked_load_mixes_decayed_and_instantaneous_views() {
        // "Decayed imbalance AND currently overloaded": the tracked gap
        // alone is not enough — the victim must have threads right now.
        let compiled = compile_source(
            "policy hybrid { metric threads; load pelt(8); \
             filter = victim.tracked_load - self.tracked_load >= 2 && victim.nr_threads >= 2; }",
        )
        .unwrap();
        // Build live observations through the model, so the test needs no
        // hand-rolled snapshot plumbing: core 1's tracked history warms up
        // separately from its instantaneous queue length.
        let warm = |tracked: u64, now: u64| {
            let mut system = SystemState::from_loads(&[0, now as usize]);
            system.core_mut(CoreId(1)).tracked.scaled = tracked * sched_core::TRACK_SCALE;
            CoreSnapshot::capture(system.core(CoreId(1)))
        };
        let this = CoreSnapshot::capture(SystemState::from_loads(&[0]).core(CoreId(0)));
        let filter = &compiled.policy.filter;
        // Decayed history says hot AND the queue is hot now: steal.
        assert!(filter.can_steal(&this, &warm(4, 4)));
        // Decayed history says hot but the queue just drained: no steal
        // (the instantaneous conjunct vetoes it).
        assert!(!filter.can_steal(&this, &warm(4, 0)));
        // Queue is hot now but the decayed view says it is a blip: no
        // steal (the tracked conjunct vetoes it).
        assert!(!filter.can_steal(&this, &warm(0, 4)));
    }

    #[test]
    fn tracked_load_without_a_decayed_tracker_is_rejected() {
        for source in [
            // No load clause at all.
            "policy p { filter = victim.tracked_load >= 2; }",
            // Instantaneous load clause (an alias for the metric).
            "policy p { load nr_threads; filter = victim.tracked_load >= 2; }",
            // Tracked view in the choose key only.
            "policy p { filter = victim.load >= 2; choose = max victim.tracked_load; }",
        ] {
            let err = match compile_source(source) {
                Err(err) => err,
                Ok(_) => panic!("{source}: must be rejected without a decayed tracker"),
            };
            assert!(
                err.to_string().contains("pelt"),
                "{source}: error must point at the missing tracker, got: {err}"
            );
        }
        // The same expressions compile once a decayed tracker is declared.
        assert!(compile_source(
            "policy p { load pelt(8); filter = victim.tracked_load >= 2; \
             choose = max victim.tracked_load; }"
        )
        .is_ok());
    }
}
