//! Expression typing: integers vs booleans, and field/criterion
//! coherence (`.tracked_load` needs a decayed tracker).

use crate::ast::{ChooseRule, Expr, Field, LoadSpec, PolicyDef};
use crate::error::DslError;

/// The type of a DSL expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprType {
    /// An integer quantity (loads, counts, weights).
    Int,
    /// A boolean (filter results).
    Bool,
}

/// Infers the type of `expr`, rejecting ill-typed operands.
fn type_of(expr: &Expr) -> Result<ExprType, DslError> {
    match expr {
        Expr::Int(_) | Expr::Field(_, _) => Ok(ExprType::Int),
        Expr::Binary(op, lhs, rhs) => {
            let lt = type_of(lhs)?;
            let rt = type_of(rhs)?;
            let expected = if op.takes_booleans() { ExprType::Bool } else { ExprType::Int };
            if lt != expected || rt != expected {
                return Err(DslError::type_error(format!(
                    "operator `{}` expects {:?} operands, found {:?} and {:?}",
                    op.symbol(),
                    expected,
                    lt,
                    rt
                )));
            }
            Ok(if op.is_boolean() { ExprType::Bool } else { ExprType::Int })
        }
    }
}

/// Type-checks a whole policy: the filter must be boolean, the choose key
/// must be an integer, and `.tracked_load` may only appear when the policy
/// configures a decayed tracker — this rule lives here, in the checker
/// both back-ends (the executable and the verification one) run through,
/// rather than in either back-end.
pub fn typecheck(policy: &PolicyDef) -> Result<(), DslError> {
    if type_of(&policy.filter)? != ExprType::Bool {
        return Err(DslError::type_error(format!(
            "the filter of `{}` must be a boolean expression",
            policy.name
        )));
    }
    let choose_key = match &policy.choose {
        ChooseRule::First => None,
        ChooseRule::MaxBy(key) | ChooseRule::MinBy(key) => {
            if type_of(key)? != ExprType::Int {
                return Err(DslError::type_error(format!(
                    "the choose key of `{}` must be an integer expression",
                    policy.name
                )));
            }
            Some(key)
        }
    };
    // `.tracked_load` reads the decayed average; without a decayed tracker
    // there is no history to read and the field would silently alias
    // `.load` — reject rather than mislead.
    let uses_tracked = policy.filter.uses_field(Field::TrackedLoad)
        || choose_key.is_some_and(|key| key.uses_field(Field::TrackedLoad));
    if uses_tracked && !matches!(policy.load, Some(LoadSpec::Pelt { .. })) {
        return Err(DslError::type_error(
            "`.tracked_load` needs a decayed tracker: add a `load pelt(<half-life ms>)` clause",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn listing1_typechecks() {
        let p =
            parse("policy p { filter = victim.load - self.load >= 2; choose = max victim.load; }")
                .unwrap();
        assert!(typecheck(&p).is_ok());
    }

    #[test]
    fn integer_filter_is_rejected() {
        let p = parse("policy p { filter = victim.load - self.load; }").unwrap();
        let err = typecheck(&p).unwrap_err();
        assert!(err.to_string().contains("boolean"));
    }

    #[test]
    fn boolean_choose_key_is_rejected() {
        let p = parse("policy p { filter = victim.load >= 2; choose = max victim.load >= 2; }")
            .unwrap();
        let err = typecheck(&p).unwrap_err();
        assert!(err.to_string().contains("integer"));
    }

    #[test]
    fn tracked_load_requires_a_decayed_tracker_in_the_shared_checker() {
        // The rule guards both back-ends (executable and verification), so
        // it lives here rather than in either one.
        let p = parse("policy p { filter = victim.tracked_load >= 2; }").unwrap();
        let err = typecheck(&p).unwrap_err();
        assert!(err.to_string().contains("pelt"), "{err}");
        let p = parse("policy p { load pelt(8); filter = victim.tracked_load >= 2; }").unwrap();
        assert!(typecheck(&p).is_ok());
    }

    #[test]
    fn mixed_operand_types_are_rejected() {
        let p = parse("policy p { filter = (victim.load >= 2) && self.load; }").unwrap();
        assert!(typecheck(&p).is_err());
        let q = parse("policy p { filter = (victim.load >= 2) + 1 >= 1; }").unwrap();
        assert!(typecheck(&q).is_err());
    }
}
