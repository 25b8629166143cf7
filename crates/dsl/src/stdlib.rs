//! The built-in policy library, written in the DSL itself.
//!
//! Each named [`sched_core::Policy`] recipe the substrates run is proven to
//! be its text here by [`sched_verify::lemmas::check_equivalence`]:
//! [`LISTING1`] is `Policy::simple`, [`GREEDY`] `greedy`, [`WEIGHTED`]
//! `weighted`, and [`PELT`] and [`PELT_WEIGHTED`] are `pelt` and
//! `pelt_weighted` at 8 ms.

/// The paper's Listing 1 policy: steal one thread from a core at least two
/// threads ahead, choosing the most loaded candidate.
pub const LISTING1: &str = "\
# Listing 1 of the paper: the simple, provably work-conserving balancer.
policy listing1 {
    metric threads;
    filter = victim.load - self.load >= 2;
    choose = max victim.load;
    steal  = 1;
}
";

/// The §4.3 counterexample: steal from any overloaded core.  Sound
/// sequentially, not work-conserving under concurrency.
pub const GREEDY: &str = "\
# The concurrency counterexample of the paper's section 4.3.
policy greedy {
    metric threads;
    filter = stealee.load >= 2;
    choose = max victim.load;
    steal  = 1;
}
";

/// A niceness-aware policy balancing weighted load (the §4.2 variant); it
/// steals the lightest waiting thread, the one its filter's margin counts.
pub const WEIGHTED: &str = "\
# Balance weighted load; steal only when moving the lightest waiting thread
# still strictly reduces the imbalance.
policy weighted {
    metric weighted;
    filter = victim.nr_threads >= 2 && victim.weighted_load > self.weighted_load + victim.lightest_ready;
    choose = max victim.weighted_load;
    steal  = lightest;
}
";

/// A batched variant of Listing 1 that migrates two threads per steal.
pub const BATCHED: &str = "\
policy batched {
    metric threads;
    filter = victim.load - self.load >= 2;
    choose = max victim.load;
    steal  = 2;
}
";

/// Listing 1 over a PELT-style decayed thread count: `.load` reads the
/// tracked (half-life 8 ms) average instead of the instantaneous queue
/// length, so brief bursts no longer trigger migrations.  Time-coupled:
/// see [`all`].
pub const PELT: &str = "\
# Listing 1 rebased onto a decayed load average (half-life 8 ms).
policy pelt {
    metric threads;
    load   pelt(8);
    filter = victim.load - self.load >= 2;
    choose = max victim.load;
    steal  = 1;
}
";

/// The weighted balancer over a decayed weighted load (half-life 8 ms):
/// steal the lightest waiting thread once the decayed loads differ by two
/// `nice 0` units.  Time-coupled like [`PELT`].
pub const PELT_WEIGHTED: &str = "\
# The weighted balancer rebased onto a decayed weighted load (half-life 8 ms).
policy pelt_weighted {
    metric weighted;
    load   pelt(8);
    filter = victim.load - self.load >= 2048;
    choose = max victim.load;
    steal  = lightest;
}
";

/// A hybrid-criterion policy mixing both load views in one predicate: a
/// *decayed* imbalance must exist (`.tracked_load`, so transient blips do
/// not trigger it) **and** the victim must be instantaneously overloaded
/// right now (`.nr_threads`, so work is actually there to take).  This is
/// the expression shape the `.tracked_load` field exists for; with only
/// `.load` a policy is all-decayed or all-instantaneous.
pub const PELT_HYBRID: &str = "\
# Steal on decayed imbalance, but only from a currently overloaded victim.
policy pelt_hybrid {
    metric threads;
    load   pelt(8);
    filter = victim.tracked_load - self.tracked_load >= 2 && victim.nr_threads >= 2;
    choose = max victim.tracked_load;
    steal  = 1;
}
";

/// All built-in *instantaneous* policies with their names, the set the
/// untimed verifier checks.  [`PELT`], [`PELT_WEIGHTED`] and [`PELT_HYBRID`]
/// are time-coupled: their correctness argument needs settling ticks between
/// rounds, so `sched-verify`'s decay lemmas and E17/E21 check them instead.
pub fn all() -> Vec<(&'static str, &'static str)> {
    vec![("listing1", LISTING1), ("greedy", GREEDY), ("weighted", WEIGHTED), ("batched", BATCHED)]
}

#[cfg(test)]
mod tests {
    use crate::eval::compile_source;
    use crate::parser::parse;

    #[test]
    fn every_stdlib_policy_parses_and_compiles() {
        for (name, source) in super::all() {
            let def = parse(source).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            assert_eq!(def.name, name);
            compile_source(source).unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
        }
    }

    #[test]
    fn the_hybrid_policy_compiles_and_mixes_both_views() {
        let compiled = compile_source(super::PELT_HYBRID)
            .unwrap_or_else(|e| panic!("pelt_hybrid does not compile: {e}"));
        assert!(compiled.policy.tracker.is_decayed());
        assert_eq!(compiled.def.name, "pelt_hybrid");
        // The whole point of the policy: the filter reads the tracked view
        // AND an instantaneous field in one predicate.
        assert!(compiled.def.filter.uses_field(crate::ast::Field::TrackedLoad));
        assert!(compiled.def.filter.uses_field(crate::ast::Field::NrThreads));
    }

    #[test]
    fn the_pelt_policy_compiles_to_a_decayed_tracker() {
        let compiled = compile_source(super::PELT).unwrap();
        assert!(compiled.policy.tracker.is_decayed());
        assert_eq!(compiled.policy.tracker.name(), "pelt(nr_threads, 8ms)");
        assert_eq!(compiled.policy.metric, sched_core::LoadMetric::Tracked);
    }

    #[test]
    fn stdlib_has_the_four_reference_policies() {
        let names: Vec<&str> = super::all().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["listing1", "greedy", "weighted", "batched"]);
    }
}
