//! The E10 scenario as a runnable example: an OLTP workload on a dual-socket
//! machine, comparing throughput under the verified optimistic scheduler and
//! under the buggy CFS-like baseline.
//!
//! Run with: `cargo run --release --example database_workload`

use optimistic_sched::core::Policy;
use optimistic_sched::sim::{
    CfsBugs, CfsLikeScheduler, EventEngine, OptimisticScheduler, SimConfig,
};
use optimistic_sched::topology::TopologyBuilder;
use optimistic_sched::workloads::OltpWorkload;

fn run() {
    let topo = TopologyBuilder::new().sockets(2).cores_per_socket(8).build();
    let workload = OltpWorkload {
        nr_workers: topo.nr_cpus() * 2,
        transactions: 40,
        service_ns: 500_000,
        think_ns: 250_000,
        jitter: 0.2,
        seed: 7,
        initial_spread: 4,
    }
    .generate();
    println!("workload: {} on {} cores\n", workload.name, topo.nr_cpus());

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
            "{:<28} throughput {:>9.0} txn/s   violating idle {:>5.1}%   p99 latency {:>6.0} us",
            result.scheduler,
            result.throughput_ops_per_sec(),
            result.violating_idle_fraction() * 100.0,
            result.latency.quantile(0.99) as f64 / 1e3,
        );
    }
    println!(
        "\nthroughput kept by the buggy baseline: {:.0}%  (the paper reports up to a 25% decrease)",
        buggy.relative_throughput(&optimistic) * 100.0
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
