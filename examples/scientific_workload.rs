//! The E9 scenario as a runnable example: a fork-join scientific kernel on a
//! dual-socket machine, under the verified optimistic scheduler and under a
//! CFS-like baseline with the "wasted cores" bugs injected.
//!
//! Run with: `cargo run --release --example scientific_workload`

use optimistic_sched::core::Policy;
use optimistic_sched::sim::{
    CfsBugs, CfsLikeScheduler, EventEngine, OptimisticScheduler, SimConfig,
};
use optimistic_sched::topology::TopologyBuilder;
use optimistic_sched::workloads::ScientificWorkload;

fn run() {
    let topo = TopologyBuilder::new().sockets(2).cores_per_socket(8).build();
    let workload = ScientificWorkload {
        nr_threads: topo.nr_cpus(),
        iterations: 8,
        phase_ns: 4_000_000,
        jitter: 0.05,
        seed: 42,
        fork_on_core: Some(0),
    }
    .generate();
    println!("workload: {} on {} cores", workload.name, topo.nr_cpus());
    println!("ideal makespan: {:.2} ms\n", workload.ideal_makespan_ns(topo.nr_cpus()) as f64 / 1e6);

    let optimistic = EventEngine::new(
        SimConfig::default(),
        Some(&topo),
        &workload,
        Box::new(OptimisticScheduler::new(Policy::simple())),
    )
    .run();
    let buggy = EventEngine::new(
        SimConfig::default(),
        Some(&topo),
        &workload,
        Box::new(CfsLikeScheduler::new(CfsBugs::all())),
    )
    .run();

    for result in [&optimistic, &buggy] {
        println!(
            "{:<28} makespan {:>8.2} ms   violating idle {:>5.1}%   steals {} (failed {})",
            result.scheduler,
            result.makespan_ms(),
            result.violating_idle_fraction() * 100.0,
            result.balance.successes,
            result.balance.failures(),
        );
    }
    println!(
        "\nslowdown of the buggy baseline: {:.2}x  (the paper reports \"many-fold\" degradation for scientific applications)",
        buggy.slowdown_vs(&optimistic)
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
