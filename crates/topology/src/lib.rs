//! Machine topology substrate.
//!
//! The paper targets "schedulers that could be used in practice, which implies
//! that the scheduler should scale to a large number of cores, and implement
//! the complex scheduling heuristics used on modern hardware such as
//! NUMA-aware thread placement" (§1).  This crate models the hardware facts
//! those heuristics consume:
//!
//! * a [`MachineTopology`] describing sockets, NUMA nodes, last-level-cache
//!   (LLC) groups and SMT siblings,
//! * a NUMA [`DistanceMatrix`] in the style of the ACPI SLIT table,
//! * the [`StealLevel`] of every thief/victim pair (SMT sibling → LLC →
//!   NUMA node → remote), the distance classes a topology-aware step-2
//!   choice searches in — the paper's §5 hierarchy, with no separate tree
//!   to walk.
//!
//! The topology is *pure data*: it never changes at run time, so the
//! lock-less selection phase of the balancer may consult it freely.

pub mod builder;
pub mod cpu;
pub mod distance;
pub mod level;
pub mod machine;
pub mod node;

pub use builder::TopologyBuilder;
pub use cpu::{CpuId, CpuInfo};
pub use distance::DistanceMatrix;
pub use level::StealLevel;
pub use machine::MachineTopology;
pub use node::{NodeId, NodeInfo};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_socket_machine_has_one_node() {
        let topo = TopologyBuilder::new().sockets(1).cores_per_socket(4).build();
        assert_eq!(topo.nr_nodes(), 1);
        assert_eq!(topo.nr_cpus(), 4);
    }

    #[test]
    fn dual_socket_machine_has_two_nodes() {
        let topo = TopologyBuilder::new().sockets(2).cores_per_socket(8).build();
        assert_eq!(topo.nr_nodes(), 2);
        assert_eq!(topo.nr_cpus(), 16);
        assert_ne!(topo.node_of(CpuId(0)), topo.node_of(CpuId(8)));
    }
}
