//! Abstract syntax of the scheduling-policy DSL.
//!
//! The paper's abstractions are "exposed to kernel developers via a
//! domain-specific language (DSL), which is then compiled to C code that can
//! be integrated as a scheduling class into the Linux kernel, and to Scala
//! code that is verified by the Leon toolkit" (§1).  The DSL here follows
//! the same three-step shape: a policy is a *filter* expression, a *choose*
//! rule and a *steal* rule, plus the load metric it balances.
//!
//! Example source (the Listing 1 policy):
//!
//! ```text
//! policy listing1 {
//!     metric threads;
//!     filter = victim.load - self.load >= 2;
//!     choose = max victim.load;
//!     steal  = 1;
//! }
//! ```

use sched_core::StealRule;

/// The load metric a policy balances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricSpec {
    /// Thread counts (`metric threads`).
    Threads,
    /// Niceness-weighted load (`metric weighted`).
    Weighted,
}

/// The load-tracking criterion a policy balances (`load` clause).
///
/// Where [`MetricSpec`] names *which entities count*, `LoadSpec` names *how
/// the count evolves over time*: read instantaneously, or smoothed through
/// a PELT-style decayed average (`load pelt(<half-life ms>)`, compiled to a
/// [`sched_core::tracker::PeltTracker`] over the policy's metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSpec {
    /// Instantaneous thread counts (`load nr_threads`).
    NrThreads,
    /// Instantaneous weighted load (`load weighted`).
    Weighted,
    /// PELT-style decayed average of the policy's metric with the given
    /// half-life (`load pelt(8)` = 8 ms).
    Pelt {
        /// Half-life of the decay, in milliseconds.
        half_life_ms: u32,
    },
}

/// The core an expression field refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actor {
    /// The core executing the balancing operation (`self`).
    SelfCore,
    /// The prospective victim being filtered or ranked (`victim`).
    Victim,
}

impl std::fmt::Display for Actor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Actor::SelfCore => f.write_str("self"),
            Actor::Victim => f.write_str("victim"),
        }
    }
}

/// A readable field of a core observation.
///
/// All fields are read-only views of a [`sched_core::CoreSnapshot`]; the DSL
/// has no construct that writes to a runqueue, which is how the "selection
/// phase may not modify runqueues" constraint (§3.1) is enforced by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// The load under the policy's metric (`.load`).
    Load,
    /// The thread count regardless of metric (`.nr_threads`).
    NrThreads,
    /// The weighted load regardless of metric (`.weighted_load`).
    WeightedLoad,
    /// The weight of the lightest waiting thread, or 0 if none
    /// (`.lightest_ready`).
    LightestReady,
    /// The tracker-maintained (decayed) load average (`.tracked_load`).
    ///
    /// Only meaningful when the policy configures a decayed tracker
    /// (`load pelt(h)`); the compiler rejects it otherwise, because with
    /// an instantaneous criterion there is no tracker history to read and
    /// the field would silently alias `.load`.  Exposing it alongside the
    /// instantaneous fields lets one predicate mix both views — "decayed
    /// imbalance AND currently overloaded".
    TrackedLoad,
}

impl std::fmt::Display for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Field::Load => "load",
            Field::NrThreads => "nr_threads",
            Field::WeightedLoad => "weighted_load",
            Field::LightestReady => "lightest_ready",
            Field::TrackedLoad => "tracked_load",
        };
        f.write_str(s)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Returns `true` if the operator produces a boolean.
    pub fn is_boolean(self) -> bool {
        !matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul)
    }

    /// Returns `true` if the operator takes boolean operands.
    pub fn takes_booleans(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Source text of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Ge => ">=",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Lt => "<",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// An expression over two core observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// A field of `self` or `victim`.
    Field(Actor, Field),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Builds a binary expression.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Returns `true` if the expression mentions the given actor.
    pub fn references(&self, actor: Actor) -> bool {
        match self {
            Expr::Int(_) => false,
            Expr::Field(a, _) => *a == actor,
            Expr::Binary(_, l, r) => l.references(actor) || r.references(actor),
        }
    }

    /// Returns `true` if the expression reads the given field (of either
    /// actor).
    pub fn uses_field(&self, field: Field) -> bool {
        match self {
            Expr::Int(_) => false,
            Expr::Field(_, f) => *f == field,
            Expr::Binary(_, l, r) => l.uses_field(field) || r.uses_field(field),
        }
    }

    /// Renders the expression back to DSL source.
    pub fn to_source(&self) -> String {
        match self {
            Expr::Int(v) => v.to_string(),
            Expr::Field(actor, field) => format!("{actor}.{field}"),
            Expr::Binary(op, l, r) => {
                format!("({} {} {})", l.to_source(), op.symbol(), r.to_source())
            }
        }
    }
}

/// The choose (step 2) rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChooseRule {
    /// Pick the first candidate.
    First,
    /// Pick the candidate maximising the key expression.
    MaxBy(Expr),
    /// Pick the candidate minimising the key expression.
    MinBy(Expr),
}

/// A complete policy definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyDef {
    /// Policy name.
    pub name: String,
    /// Metric the policy balances.
    pub metric: MetricSpec,
    /// Load-tracking criterion, if the policy declared one (`load` clause);
    /// `None` means the metric is read instantaneously.
    pub load: Option<LoadSpec>,
    /// The step-1 filter: a boolean expression over `self` and `victim`.
    pub filter: Expr,
    /// The step-2 choose rule.
    pub choose: ChooseRule,
    /// The step-3 rule: how many waiting threads migrate (`steal = k`,
    /// `steal = half`, `steal = lightest`).
    pub steal: StealRule,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing1_filter() -> Expr {
        Expr::binary(
            BinOp::Ge,
            Expr::binary(
                BinOp::Sub,
                Expr::Field(Actor::Victim, Field::Load),
                Expr::Field(Actor::SelfCore, Field::Load),
            ),
            Expr::Int(2),
        )
    }

    #[test]
    fn references_walks_the_tree() {
        let e = listing1_filter();
        assert!(e.references(Actor::Victim));
        assert!(e.references(Actor::SelfCore));
        assert!(!Expr::Int(3).references(Actor::Victim));
    }

    #[test]
    fn to_source_round_trips_structure() {
        assert_eq!(listing1_filter().to_source(), "((victim.load - self.load) >= 2)");
        assert_eq!(
            Expr::Field(Actor::SelfCore, Field::LightestReady).to_source(),
            "self.lightest_ready"
        );
    }

    #[test]
    fn operator_classification() {
        assert!(BinOp::Ge.is_boolean());
        assert!(!BinOp::Add.is_boolean());
        assert!(BinOp::And.takes_booleans());
        assert!(!BinOp::Lt.takes_booleans());
        assert_eq!(BinOp::Ne.symbol(), "!=");
    }
}
