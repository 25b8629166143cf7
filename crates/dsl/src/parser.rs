//! Recursive-descent parser for the policy DSL.

use sched_core::StealRule;

use crate::ast::{Actor, BinOp, ChooseRule, Expr, Field, LoadSpec, MetricSpec, PolicyDef};
use crate::error::DslError;
use crate::lexer::{lex, Token};

/// Parses one policy definition from DSL source.
///
/// # Examples
///
/// ```
/// let policy = sched_dsl::parser::parse(
///     "policy listing1 {\n\
///          metric threads;\n\
///          filter = victim.load - self.load >= 2;\n\
///          choose = max victim.load;\n\
///          steal  = 1;\n\
///      }",
/// )
/// .unwrap();
/// assert_eq!(policy.name, "listing1");
/// ```
pub fn parse(source: &str) -> Result<PolicyDef, DslError> {
    let tokens = lex(source)?;
    Parser { tokens, pos: 0 }.policy()
}

/// Shared cursor over the token stream.  `pub(crate)` so the scenario
/// document parser in [`crate::doc`] can reuse the policy grammar (and its
/// expression precedence) for inline `policy <name> { … }` blocks.
pub(crate) struct Parser {
    pub(crate) tokens: Vec<Token>,
    pub(crate) pos: usize,
}

impl Parser {
    pub(crate) fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    pub(crate) fn next(&mut self) -> Result<Token, DslError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| DslError::parse("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    pub(crate) fn expect(&mut self, expected: Token) -> Result<(), DslError> {
        let got = self.next()?;
        if got == expected {
            Ok(())
        } else {
            Err(DslError::parse(format!("expected {expected:?}, found {got:?}")))
        }
    }

    pub(crate) fn expect_ident(&mut self) -> Result<String, DslError> {
        match self.next()? {
            Token::Ident(name) => Ok(name),
            other => Err(DslError::parse(format!("expected an identifier, found {other:?}"))),
        }
    }

    pub(crate) fn expect_keyword(&mut self, keyword: &str) -> Result<(), DslError> {
        let name = self.expect_ident()?;
        if name == keyword {
            Ok(())
        } else {
            Err(DslError::parse(format!("expected keyword `{keyword}`, found `{name}`")))
        }
    }

    fn policy(&mut self) -> Result<PolicyDef, DslError> {
        self.expect_keyword("policy")?;
        let name = self.expect_ident()?;
        self.policy_body(name)
    }

    /// Parses a policy body (`{ metric …; filter = …; }`) once the header
    /// (`policy <name>`) has already been consumed.  The document grammar
    /// enters here for inline policies.
    pub(crate) fn policy_body(&mut self, name: String) -> Result<PolicyDef, DslError> {
        self.expect(Token::LBrace)?;

        let mut metric = None;
        let mut load = None;
        let mut filter = None;
        let mut choose = None;
        let mut steal = None;

        while self.peek() != Some(&Token::RBrace) {
            let keyword = self.expect_ident()?;
            match keyword.as_str() {
                "metric" => {
                    let which = self.expect_ident()?;
                    metric = Some(match which.as_str() {
                        "threads" => MetricSpec::Threads,
                        "weighted" => MetricSpec::Weighted,
                        other => {
                            return Err(DslError::parse(format!(
                                "unknown metric `{other}` (expected `threads` or `weighted`)"
                            )))
                        }
                    });
                }
                "load" => {
                    let which = self.expect_ident()?;
                    load = Some(match which.as_str() {
                        "nr_threads" => LoadSpec::NrThreads,
                        "weighted" => LoadSpec::Weighted,
                        "pelt" => {
                            self.expect(Token::LParen)?;
                            let half_life = match self.next()? {
                                Token::Int(v) if v > 0 && v <= u32::MAX as i64 => v as u32,
                                Token::Int(v) => {
                                    return Err(DslError::parse(format!(
                                        "pelt half-life must be a positive number of \
                                         milliseconds, got {v}"
                                    )))
                                }
                                other => {
                                    return Err(DslError::parse(format!(
                                        "expected a half-life in milliseconds, found {other:?}"
                                    )))
                                }
                            };
                            self.expect(Token::RParen)?;
                            LoadSpec::Pelt { half_life_ms: half_life }
                        }
                        other => {
                            return Err(DslError::parse(format!(
                                "unknown load criterion `{other}` (expected `nr_threads`, \
                                 `weighted` or `pelt(<half-life ms>)`)"
                            )))
                        }
                    });
                }
                "filter" => {
                    self.expect(Token::Assign)?;
                    filter = Some(self.expr()?);
                }
                "choose" => {
                    self.expect(Token::Assign)?;
                    choose = Some(self.choose_rule()?);
                }
                "steal" => {
                    self.expect(Token::Assign)?;
                    steal = Some(match self.next()? {
                        Token::Int(1) => StealRule::One,
                        Token::Int(v) if v > 1 => StealRule::Fixed(v as usize),
                        Token::Ident(word) if word == "half" => StealRule::HalfImbalance,
                        Token::Ident(word) if word == "lightest" => StealRule::Lightest,
                        Token::Int(v) => {
                            return Err(DslError::parse(format!(
                                "steal count must be positive, got {v}"
                            )))
                        }
                        other => {
                            return Err(DslError::parse(format!(
                                "expected a steal count, `half` or `lightest`, found {other:?}"
                            )))
                        }
                    });
                }
                other => return Err(DslError::parse(format!("unknown clause `{other}`"))),
            }
            self.expect(Token::Semi)?;
        }
        self.expect(Token::RBrace)?;

        // `load nr_threads` / `load weighted` are aliases for the metric
        // clause; only the decayed criterion stays in the `load` slot.  An
        // alias that contradicts an explicit `metric` clause is rejected —
        // silently letting one win would turn the policy's thresholds into
        // comparisons against the wrong units.
        let alias = match load {
            Some(LoadSpec::NrThreads) => Some(MetricSpec::Threads),
            Some(LoadSpec::Weighted) => Some(MetricSpec::Weighted),
            _ => None,
        };
        let metric = match (metric, alias) {
            (Some(m), Some(a)) if m != a => {
                return Err(DslError::parse(format!(
                    "conflicting criteria: `metric {}` vs `load {}`",
                    match m {
                        MetricSpec::Threads => "threads",
                        MetricSpec::Weighted => "weighted",
                    },
                    match a {
                        MetricSpec::Threads => "nr_threads",
                        MetricSpec::Weighted => "weighted",
                    },
                )))
            }
            (m, a) => m.or(a),
        };
        let load = match load {
            Some(LoadSpec::Pelt { half_life_ms }) => Some(LoadSpec::Pelt { half_life_ms }),
            _ => None,
        };

        Ok(PolicyDef {
            name,
            metric: metric.unwrap_or(MetricSpec::Threads),
            load,
            filter: filter.ok_or_else(|| DslError::parse("a policy needs a `filter` clause"))?,
            choose: choose.unwrap_or(ChooseRule::First),
            steal: steal.unwrap_or_default(),
        })
    }

    fn choose_rule(&mut self) -> Result<ChooseRule, DslError> {
        let keyword = self.expect_ident()?;
        match keyword.as_str() {
            "first" => Ok(ChooseRule::First),
            "max" => Ok(ChooseRule::MaxBy(self.expr()?)),
            "min" => Ok(ChooseRule::MinBy(self.expr()?)),
            other => Err(DslError::parse(format!(
                "unknown choose rule `{other}` (expected `first`, `max <expr>` or `min <expr>`)"
            ))),
        }
    }

    // Precedence climbing: ||  <  &&  <  comparisons  <  + -  <  *  <  atoms.
    fn expr(&mut self) -> Result<Expr, DslError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == Some(&Token::OrOr) {
            self.next()?;
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek() == Some(&Token::AndAnd) {
            self.next()?;
            let rhs = self.cmp_expr()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, DslError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Ge) => BinOp::Ge,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::EqEq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.next()?;
        let rhs = self.add_expr()?;
        Ok(Expr::binary(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next()?;
            let rhs = self.mul_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.atom()?;
        while self.peek() == Some(&Token::Star) {
            self.next()?;
            let rhs = self.atom()?;
            lhs = Expr::binary(BinOp::Mul, lhs, rhs);
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Expr, DslError> {
        match self.next()? {
            Token::Int(v) => Ok(Expr::Int(v)),
            Token::LParen => {
                let inner = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(inner)
            }
            Token::Ident(name) => {
                let actor = match name.as_str() {
                    "self" => Actor::SelfCore,
                    "victim" | "stealee" => Actor::Victim,
                    other => {
                        return Err(DslError::parse(format!(
                            "unknown identifier `{other}` (expected `self` or `victim`)"
                        )))
                    }
                };
                self.expect(Token::Dot)?;
                let field = match self.expect_ident()?.as_str() {
                    "load" => Field::Load,
                    "nr_threads" => Field::NrThreads,
                    "weighted_load" => Field::WeightedLoad,
                    "lightest_ready" => Field::LightestReady,
                    "tracked_load" => Field::TrackedLoad,
                    other => return Err(DslError::parse(format!("unknown field `.{other}`"))),
                };
                Ok(Expr::Field(actor, field))
            }
            other => Err(DslError::parse(format!("unexpected token {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_listing1_policy() {
        let p = parse(
            "policy listing1 { metric threads; filter = victim.load - self.load >= 2; choose = max victim.load; steal = 1; }",
        )
        .unwrap();
        assert_eq!(p.name, "listing1");
        assert_eq!(p.metric, MetricSpec::Threads);
        assert_eq!(p.steal, StealRule::One);
        assert!(matches!(p.choose, ChooseRule::MaxBy(_)));
        assert_eq!(p.filter.to_source(), "((victim.load - self.load) >= 2)");
    }

    #[test]
    fn parses_the_greedy_counterexample_with_stealee_alias() {
        let p = parse("policy greedy { filter = stealee.load >= 2; }").unwrap();
        assert!(p.filter.references(Actor::Victim));
        assert!(!p.filter.references(Actor::SelfCore));
        assert_eq!(p.choose, ChooseRule::First);
    }

    #[test]
    fn parses_boolean_connectives_and_parentheses() {
        let p = parse(
            "policy weighted { metric weighted; filter = victim.nr_threads >= 2 && victim.load > self.load + victim.lightest_ready; choose = min (self.load + victim.load); steal = 2; }",
        )
        .unwrap();
        assert_eq!(p.metric, MetricSpec::Weighted);
        assert_eq!(p.steal, StealRule::Fixed(2));
        match &p.filter {
            Expr::Binary(BinOp::And, _, _) => {}
            other => panic!("expected a conjunction, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_load_clause() {
        let p = parse("policy p { load pelt(8); filter = victim.load - self.load >= 2; }").unwrap();
        assert_eq!(p.load, Some(LoadSpec::Pelt { half_life_ms: 8 }));
        assert_eq!(p.metric, MetricSpec::Threads);

        // `load nr_threads` / `load weighted` are metric aliases: they land
        // in the metric slot and leave the load slot empty.
        let p = parse("policy p { load weighted; filter = victim.load >= 2; }").unwrap();
        assert_eq!(p.metric, MetricSpec::Weighted);
        assert_eq!(p.load, None);
        let p = parse("policy p { load nr_threads; filter = victim.load >= 2; }").unwrap();
        assert_eq!(p.metric, MetricSpec::Threads);

        // A pelt criterion composes with an explicit metric: it decays that
        // metric.
        let p = parse(
            "policy p { metric weighted; load pelt(32); filter = victim.load - self.load >= 2048; }",
        )
        .unwrap();
        assert_eq!(p.metric, MetricSpec::Weighted);
        assert_eq!(p.load, Some(LoadSpec::Pelt { half_life_ms: 32 }));
    }

    #[test]
    fn bad_load_clauses_are_rejected() {
        assert!(parse("policy p { load bogus; filter = victim.load >= 2; }").is_err());
        assert!(parse("policy p { load pelt(0); filter = victim.load >= 2; }").is_err());
        assert!(parse("policy p { load pelt; filter = victim.load >= 2; }").is_err());
        assert!(parse("policy p { load pelt(x); filter = victim.load >= 2; }").is_err());
    }

    #[test]
    fn conflicting_metric_and_load_alias_are_rejected() {
        let err =
            parse("policy p { metric weighted; load nr_threads; filter = victim.load >= 2; }")
                .unwrap_err();
        assert!(err.to_string().contains("conflicting"), "{err}");
        let err = parse("policy p { load weighted; metric threads; filter = victim.load >= 2; }")
            .unwrap_err();
        assert!(err.to_string().contains("conflicting"), "{err}");
        // Agreeing spellings are fine in either order.
        assert!(parse("policy p { metric weighted; load weighted; filter = victim.load >= 2; }")
            .is_ok());
    }

    #[test]
    fn missing_filter_is_rejected() {
        let err = parse("policy empty { metric threads; }").unwrap_err();
        assert!(err.to_string().contains("filter"));
    }

    #[test]
    fn bad_clauses_are_rejected() {
        assert!(parse("policy p { filter = nobody.load >= 2; }").is_err());
        assert!(parse("policy p { filter = victim.bogus >= 2; }").is_err());
        assert!(parse("policy p { filter = victim.load >= 2; steal = 0; }").is_err());
        assert!(parse("policy p { filter = victim.load >= 2; steal = most; }").is_err());
        assert!(parse("policy p { frobnicate = 3; filter = victim.load >= 2; }").is_err());
        assert!(parse("policy p { metric bogus; filter = victim.load >= 2; }").is_err());
        assert!(parse("policy p { filter = victim.load >= ; }").is_err());
    }

    #[test]
    fn precedence_binds_arithmetic_tighter_than_comparison() {
        let p = parse("policy p { filter = victim.load >= self.load + 2 * 3; }").unwrap();
        assert_eq!(p.filter.to_source(), "(victim.load >= (self.load + (2 * 3)))");
    }
}
