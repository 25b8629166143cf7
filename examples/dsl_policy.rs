//! Writing a policy in the DSL and pushing it through both backends.
//!
//! The paper's architecture: one policy source, compiled both to an
//! executable scheduler and to a verifiable artefact.  This example parses a
//! policy written in the DSL, runs it in the simulator-free pure model,
//! verifies it, and proves a hand-tuned policy is that DSL spec.
//!
//! Run with: `cargo run --release --example dsl_policy`

use optimistic_sched::core::prelude::*;
use optimistic_sched::dsl;
use optimistic_sched::verify::{lemmas, Scope};

const MY_POLICY: &str = "\
# Steal one thread from any core at least three threads ahead of us,
# preferring the victim with the most threads.
policy cautious {
    metric threads;
    filter = victim.load - self.load >= 3;
    choose = max victim.load;
    steal  = 1;
}
";

fn run() {
    // Front-end: parse + type check + phase check.
    let compiled = dsl::compile_source(MY_POLICY).expect("the policy should compile");
    println!("compiled policy `{}`", compiled.def.name);
    for warning in &compiled.warnings {
        println!("  warning: {}", warning.message);
    }

    // Executable backend: run it on an imbalanced system.
    let mut system = SystemState::from_loads(&[0, 6, 1, 0]);
    let balancer = Balancer::new(compiled.policy);
    let result = converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 32);
    println!(
        "\nexecuted: converged after {:?} rounds, final loads {}",
        result.rounds,
        system.load_vector_string(LoadMetric::NrThreads)
    );

    // Verification backend: the full lemma suite.
    let verified = dsl::verify_source(MY_POLICY, &Scope::small()).expect("verification runs");
    println!("\n{}", verified.report);

    // A hand-tuned spelling proven equal to the spec inherits its verdict.
    let hand_written = Policy::new(
        LoadMetric::NrThreads,
        Box::new(DeltaFilter::new(LoadMetric::NrThreads, 3)),
        Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
        StealRule::One,
    );
    let equivalence = lemmas::check_equivalence(balancer.policy(), &hand_written, &Scope::small());
    println!("{equivalence}");
    assert!(equivalence.is_proved(), "the hand-written policy is not its DSL spec");

    // The greedy counterexample from the standard library, for contrast.
    let greedy =
        dsl::verify_source(dsl::stdlib::GREEDY, &Scope::small()).expect("verification runs");
    println!(
        "\nthe stdlib `greedy` policy verifies work-conserving? {}",
        greedy.is_work_conserving()
    );
}

fn main() {
    run();
}

#[cfg(test)]
mod tests {
    /// `cargo test` drives the example's whole main path (see the
    /// `[[example]] test = true` entries in Cargo.toml), so examples
    /// cannot silently rot.
    #[test]
    fn smoke() {
        super::run();
    }
}
