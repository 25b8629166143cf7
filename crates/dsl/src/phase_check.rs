//! Structural phase checks.
//!
//! The abstractions constrain each step of a balancing round (§3.1):
//!
//! * the selection phase (filter + choose) "may not modify runqueues, and
//!   all accesses to shared variables must be read-only" — in the DSL this
//!   is true by construction (there is no write expression), and the phase
//!   checker asserts it as an invariant over the AST;
//! * the stealing phase must migrate at least one thread when it succeeds,
//!   so a zero steal count is rejected (`steal = half` sizes at least one
//!   by construction);
//! * a filter that never looks at the victim can never be sound, so it is
//!   rejected outright.
//!
//! The checker additionally produces *warnings* for policies that are
//! accepted but known-dangerous, the prime example being a filter that
//! ignores `self` — exactly the §4.3 greedy counterexample, which is sound
//! sequentially but not work-conserving under concurrency.

use sched_core::StealRule;

use crate::ast::{Actor, ChooseRule, PolicyDef};
use crate::error::DslError;

/// Non-fatal observations about a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseWarning {
    /// Human-readable description of the concern.
    pub message: String,
}

/// Checks the structural constraints, returning warnings on success.
pub fn phase_check(policy: &PolicyDef) -> Result<Vec<PhaseWarning>, DslError> {
    if policy.steal == StealRule::Fixed(0) {
        return Err(DslError::phase("the stealing phase must migrate at least one thread"));
    }
    if !policy.filter.references(Actor::Victim) {
        return Err(DslError::phase(
            "the filter never inspects the victim, so it cannot distinguish overloaded cores",
        ));
    }

    let mut warnings = Vec::new();
    if !policy.filter.references(Actor::SelfCore) {
        warnings.push(PhaseWarning {
            message: format!(
                "the filter of `{}` ignores `self`: like the §4.3 greedy filter it may admit \
                 thread ping-pong and fail work conservation under concurrency — run the verifier",
                policy.name
            ),
        });
    }
    match &policy.choose {
        ChooseRule::MaxBy(key) | ChooseRule::MinBy(key) => {
            if !key.references(Actor::Victim) {
                warnings.push(PhaseWarning {
                    message: format!(
                        "the choose key of `{}` does not depend on the victim, so it degenerates to `first`",
                        policy.name
                    ),
                });
            }
        }
        ChooseRule::First => {}
    }
    Ok(warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn listing1_passes_with_no_warnings() {
        let p =
            parse("policy p { filter = victim.load - self.load >= 2; choose = max victim.load; }")
                .unwrap();
        assert_eq!(phase_check(&p).unwrap(), vec![]);
    }

    #[test]
    fn greedy_filter_is_accepted_with_a_pingpong_warning() {
        let p = parse("policy greedy { filter = victim.load >= 2; }").unwrap();
        let warnings = phase_check(&p).unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].message.contains("ping-pong"));
    }

    #[test]
    fn victim_free_filter_is_rejected() {
        let p = parse("policy broken { filter = self.load >= 2; }").unwrap();
        assert!(phase_check(&p).is_err());
    }

    #[test]
    fn constant_choose_key_warns() {
        let p =
            parse("policy p { filter = victim.load - self.load >= 2; choose = max self.load; }")
                .unwrap();
        let warnings = phase_check(&p).unwrap();
        assert!(warnings.iter().any(|w| w.message.contains("degenerates")));
    }
}
