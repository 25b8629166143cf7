//! The Rust code generator — the analogue of the paper's "compiled to C
//! code that can be integrated as a scheduling class into the Linux kernel".
//!
//! The generator emits a self-contained Rust module implementing the two
//! `sched-core` selection traits for the given definition and assembling
//! them with its step-3 [`sched_core::StealRule`].  The output is plain
//! text; it is not compiled by this crate (there is no `rustc` at run time),
//! but the golden tests assert its shape and the emitted code mirrors the
//! interpreter in [`crate::eval`] one-to-one, so behavioural equivalence is
//! inherited from the interpreter tests.

use crate::ast::{Actor, ChooseRule, Expr, Field, LoadSpec, MetricSpec, PolicyDef};

/// Generates a Rust module implementing `def`.
pub fn generate_rust(def: &PolicyDef) -> String {
    let base_metric = match def.metric {
        MetricSpec::Threads => "LoadMetric::NrThreads",
        MetricSpec::Weighted => "LoadMetric::Weighted",
    };
    // A decayed criterion makes every `.load` read the tracked view, and the
    // assembled policy carry the matching tracker.
    let (metric, tracker_expr) = match def.load {
        Some(LoadSpec::Pelt { half_life_ms }) => (
            "LoadMetric::Tracked",
            format!(
                "TrackerSpec::Pelt {{ base: {base_metric}, half_life_ns: {} }}.build()",
                u64::from(half_life_ms) * 1_000_000
            ),
        ),
        _ => (base_metric, format!("TrackerSpec::instantaneous({base_metric}).build()")),
    };
    let struct_name = camel_case(&def.name);
    let filter_expr = gen_bool_expr(&def.filter);
    let choose_body = match &def.choose {
        ChooseRule::First => "candidates.first().map(|c| c.id)".to_string(),
        ChooseRule::MaxBy(key) => format!(
            "candidates.iter().max_by_key(|victim| ({}, std::cmp::Reverse(victim.id))).map(|c| c.id)",
            gen_int_expr(key)
        ),
        ChooseRule::MinBy(key) => format!(
            "candidates.iter().min_by_key(|victim| ({}, victim.id)).map(|c| c.id)",
            gen_int_expr(key)
        ),
    };

    format!(
        r#"//! Generated from the `{name}` policy definition — do not edit by hand.

use sched_core::{{ChoicePolicy, CoreId, CoreSnapshot, FilterPolicy, LoadMetric, Policy, StealRule, TrackerSpec}};

/// Step 1 of `{name}`: the filter.
#[derive(Debug, Clone, Copy, Default)]
pub struct {struct_name}Filter;

impl FilterPolicy for {struct_name}Filter {{
    fn can_steal(&self, this: &CoreSnapshot, victim: &CoreSnapshot) -> bool {{
        let metric = {metric};
        {filter_expr}
    }}

    fn name(&self) -> &'static str {{
        "{name}_filter"
    }}
}}

/// Step 2 of `{name}`: the choice.
#[derive(Debug, Clone, Copy, Default)]
pub struct {struct_name}Choice;

impl ChoicePolicy for {struct_name}Choice {{
    fn choose(&self, this: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {{
        let metric = {metric};
        let _ = (this, metric);
        {choose_body}
    }}

    fn name(&self) -> &'static str {{
        "{name}_choice"
    }}
}}

/// Assembles the `{name}` policy; step 3 is a rule, not code.
pub fn policy() -> Policy {{
    Policy::with_tracker({tracker_expr}, Box::new({struct_name}Filter), Box::new({struct_name}Choice), StealRule::{steal:?})
}}
"#,
        name = def.name,
        struct_name = struct_name,
        metric = metric,
        tracker_expr = tracker_expr,
        filter_expr = filter_expr,
        choose_body = choose_body,
        steal = def.steal,
    )
}

fn camel_case(name: &str) -> String {
    name.split(['_', '-'])
        .filter(|s| !s.is_empty())
        .map(|s| {
            let mut chars = s.chars();
            match chars.next() {
                Some(first) => first.to_ascii_uppercase().to_string() + chars.as_str(),
                None => String::new(),
            }
        })
        .collect()
}

fn field_access(actor: &Actor, field: &Field) -> String {
    let base = match actor {
        Actor::SelfCore => "this",
        Actor::Victim => "victim",
    };
    match field {
        Field::Load => format!("{base}.load(metric) as i128"),
        Field::NrThreads => format!("{base}.nr_threads as i128"),
        Field::WeightedLoad => format!("{base}.weighted_load as i128"),
        Field::LightestReady => format!("{base}.lightest_ready_weight.unwrap_or(0) as i128"),
        Field::TrackedLoad => format!("{base}.load(LoadMetric::Tracked) as i128"),
    }
}

fn gen_int_expr(expr: &Expr) -> String {
    match expr {
        Expr::Int(v) => format!("{v}i128"),
        Expr::Field(actor, field) => field_access(actor, field),
        Expr::Binary(op, lhs, rhs) => {
            format!("({} {} {})", gen_int_expr(lhs), op.symbol(), gen_int_expr(rhs))
        }
    }
}

fn gen_bool_expr(expr: &Expr) -> String {
    match expr {
        Expr::Binary(op, lhs, rhs) if op.takes_booleans() => {
            format!("({} {} {})", gen_bool_expr(lhs), op.symbol(), gen_bool_expr(rhs))
        }
        Expr::Binary(op, lhs, rhs) => {
            format!("({} {} {})", gen_int_expr(lhs), op.symbol(), gen_int_expr(rhs))
        }
        other => gen_int_expr(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn generates_a_module_for_listing1() {
        let def = parse(
            "policy listing1 { metric threads; filter = victim.load - self.load >= 2; choose = max victim.load; steal = 1; }",
        )
        .unwrap();
        let code = generate_rust(&def);
        assert!(code.contains("pub struct Listing1Filter"));
        assert!(
            code.contains("((victim.load(metric) as i128 - this.load(metric) as i128) >= 2i128)")
        );
        assert!(code.contains("impl ChoicePolicy for Listing1Choice"));
        assert!(code.contains("StealRule::One)"));
        assert!(code.contains("pub fn policy() -> Policy"));
    }

    #[test]
    fn weighted_policies_use_the_weighted_metric() {
        let def = parse(
            "policy weighted_fair { metric weighted; filter = victim.nr_threads >= 2 && victim.load > self.load + victim.lightest_ready; }",
        )
        .unwrap();
        let code = generate_rust(&def);
        assert!(code.contains("LoadMetric::Weighted"));
        assert!(code.contains("WeightedFairFilter"));
        assert!(code.contains("lightest_ready_weight.unwrap_or(0)"));
        assert!(code.contains("&&"));
    }

    #[test]
    fn pelt_policies_generate_a_decayed_tracker() {
        let def = parse(crate::stdlib::PELT).unwrap();
        let code = generate_rust(&def);
        assert!(code.contains("LoadMetric::Tracked"), "{code}");
        assert!(
            code.contains(
                "TrackerSpec::Pelt { base: LoadMetric::NrThreads, half_life_ns: 8000000 }"
            ),
            "{code}"
        );
        assert!(code.contains("Policy::with_tracker("));
    }

    #[test]
    fn camel_case_handles_separators() {
        assert_eq!(camel_case("simple_policy"), "SimplePolicy");
        assert_eq!(camel_case("a-b_c"), "ABC");
        assert_eq!(camel_case("x"), "X");
    }

    #[test]
    fn the_steal_rule_is_assembled_into_the_policy() {
        let def =
            parse("policy p { filter = victim.load - self.load >= 2; steal = half; }").unwrap();
        assert!(generate_rust(&def).contains("StealRule::HalfImbalance)"));
        let def = parse("policy p { filter = victim.load - self.load >= 2; steal = 3; }").unwrap();
        assert!(generate_rust(&def).contains("StealRule::Fixed(3))"));
    }

    #[test]
    fn first_choice_degenerates_to_first_candidate() {
        let def = parse("policy p { filter = victim.load >= 2; choose = first; }").unwrap();
        let code = generate_rust(&def);
        assert!(code.contains("candidates.first()"));
    }
}
