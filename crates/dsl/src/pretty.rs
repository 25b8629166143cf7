//! Pretty-printer: turning a [`PolicyDef`] back into DSL source.
//!
//! The printer and the parser form a round-trip pair
//! (`parse(print(def)) == def`), which keeps generated policies (e.g. ones
//! assembled programmatically by tooling) storable in the same textual
//! format that humans write.

use sched_core::StealRule;

use crate::ast::{ChooseRule, Expr, LoadSpec, MetricSpec, PolicyDef};

/// Renders a policy definition as canonical DSL source.
pub fn print_policy(def: &PolicyDef) -> String {
    let metric = match def.metric {
        MetricSpec::Threads => "threads",
        MetricSpec::Weighted => "weighted",
    };
    let load = match def.load {
        None => String::new(),
        Some(LoadSpec::NrThreads) => "    load   nr_threads;\n".into(),
        Some(LoadSpec::Weighted) => "    load   weighted;\n".into(),
        Some(LoadSpec::Pelt { half_life_ms }) => {
            format!("    load   pelt({half_life_ms});\n")
        }
    };
    let choose = match &def.choose {
        ChooseRule::First => "first".to_string(),
        ChooseRule::MaxBy(key) => format!("max {}", print_expr(key)),
        ChooseRule::MinBy(key) => format!("min {}", print_expr(key)),
    };
    let steal = match def.steal {
        StealRule::One => "1".to_string(),
        StealRule::Lightest => "lightest".to_string(),
        StealRule::Fixed(k) => k.to_string(),
        StealRule::HalfImbalance => "half".to_string(),
    };
    format!(
        "policy {name} {{\n    metric {metric};\n{load}    filter = {filter};\n    choose = {choose};\n    steal  = {steal};\n}}\n",
        name = def.name,
        metric = metric,
        load = load,
        filter = print_expr(&def.filter),
        choose = choose,
        steal = steal,
    )
}

/// Renders an expression without redundant outer parentheses.
pub fn print_expr(expr: &Expr) -> String {
    match expr {
        Expr::Binary(op, lhs, rhs) => {
            format!("{} {} {}", lhs.to_source(), op.symbol(), rhs.to_source())
        }
        other => other.to_source(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::stdlib;
    use proptest::prelude::*;

    #[test]
    fn printing_listing1_round_trips() {
        let def = parse(stdlib::LISTING1).unwrap();
        let printed = print_policy(&def);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(def, reparsed, "printed source:\n{printed}");
    }

    #[test]
    fn every_stdlib_policy_round_trips() {
        for (name, source) in stdlib::all() {
            let def = parse(source).unwrap();
            let printed = print_policy(&def);
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("{name} failed to re-parse: {e}\n{printed}"));
            assert_eq!(def, reparsed, "{name} did not round-trip");
        }
    }

    #[test]
    fn pelt_policies_round_trip_through_the_printer() {
        let def = parse(stdlib::PELT).unwrap();
        let printed = print_policy(&def);
        assert!(printed.contains("load   pelt(8);"), "printed:\n{printed}");
        assert_eq!(parse(&printed).unwrap(), def);
    }

    #[test]
    fn printed_source_is_human_shaped() {
        let def = parse(stdlib::WEIGHTED).unwrap();
        let printed = print_policy(&def);
        assert!(printed.starts_with("policy weighted {"));
        assert!(printed.contains("metric weighted;"));
        assert!(printed.contains("steal  = lightest;"));
        assert!(printed.ends_with("}\n"));
    }

    fn arb_simple_filter() -> impl Strategy<Value = String> {
        // Generate small filters of the shape the DSL is used for and check
        // the parse → print → parse loop is the identity.
        (1i64..6, prop_oneof![Just(">="), Just(">"), Just("==")])
            .prop_map(|(threshold, op)| format!("victim.load - self.load {op} {threshold}"))
    }

    fn arb_steal() -> impl Strategy<Value = String> {
        prop_oneof![
            (1u32..4).prop_map(|k| k.to_string()),
            Just("half".into()),
            Just("lightest".into())
        ]
    }

    proptest! {
        #[test]
        fn random_delta_filters_round_trip(filter in arb_simple_filter(), steal in arb_steal()) {
            let source = format!(
                "policy generated {{ metric threads; filter = {filter}; choose = max victim.load; steal = {steal}; }}"
            );
            let def = parse(&source).unwrap();
            let reparsed = parse(&print_policy(&def)).unwrap();
            prop_assert_eq!(def, reparsed);
        }
    }
}
