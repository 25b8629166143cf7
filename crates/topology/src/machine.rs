//! Whole-machine topology description.

use crate::cpu::{CpuId, CpuInfo};
use crate::distance::DistanceMatrix;
use crate::node::{NodeId, NodeInfo};

/// Immutable description of the machine the scheduler runs on.
///
/// Built by [`crate::TopologyBuilder`]; consumed by the topology-aware
/// choice policies (step 2 of the balancing round), which walk it in
/// [`crate::StealLevel`]s.
#[derive(Debug, Clone)]
pub struct MachineTopology {
    cpus: Vec<CpuInfo>,
    nodes: Vec<NodeInfo>,
    distances: DistanceMatrix,
}

impl MachineTopology {
    /// Assembles a topology from its parts.
    ///
    /// Callers normally go through [`crate::TopologyBuilder`]; this
    /// constructor is public so tests and simulators can craft irregular
    /// topologies.
    pub fn new(cpus: Vec<CpuInfo>, nodes: Vec<NodeInfo>, distances: DistanceMatrix) -> Self {
        Self { cpus, nodes, distances }
    }

    /// Number of logical CPUs.
    pub fn nr_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Number of NUMA nodes.
    pub fn nr_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Per-CPU facts for `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn cpu(&self, cpu: CpuId) -> &CpuInfo {
        &self.cpus[cpu.0]
    }

    /// Per-node facts for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &NodeInfo {
        &self.nodes[node.0]
    }

    /// All CPUs, in id order.
    pub fn cpus(&self) -> &[CpuInfo] {
        &self.cpus
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// NUMA node `cpu` belongs to.
    pub fn node_of(&self, cpu: CpuId) -> NodeId {
        self.cpus[cpu.0].node
    }

    /// NUMA distance matrix.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }

    /// Relative cost of migrating a thread from `from` to `to`.
    ///
    /// The cost is 0 for the same CPU, 1 within an LLC, 2 within a node and
    /// the NUMA distance (≥ 10) across nodes.  Choice policies use it as a
    /// tie-breaker; it never affects the work-conservation proof because it
    /// only influences step 2.
    pub fn migration_cost(&self, from: CpuId, to: CpuId) -> u32 {
        if from == to {
            return 0;
        }
        let a = &self.cpus[from.0];
        let b = &self.cpus[to.0];
        if a.shares_llc_with(b) {
            1
        } else if a.node == b.node {
            2
        } else {
            self.distances.distance(a.node, b.node)
        }
    }

    /// CPUs on node `node`, in id order.
    pub fn cpus_of_node(&self, node: NodeId) -> &[CpuId] {
        &self.nodes[node.0].cpus
    }

    /// Returns `true` if the two CPUs are on the same NUMA node.
    pub fn same_node(&self, a: CpuId, b: CpuId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Returns `true` if the two CPUs share a last-level cache.
    pub fn same_llc(&self, a: CpuId, b: CpuId) -> bool {
        self.cpus[a.0].shares_llc_with(&self.cpus[b.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologyBuilder;

    #[test]
    fn migration_cost_ordering() {
        let topo = TopologyBuilder::new().sockets(2).cores_per_socket(4).llcs_per_socket(2).build();
        let same_llc = topo.migration_cost(CpuId(0), CpuId(1));
        let same_node = topo.migration_cost(CpuId(0), CpuId(2));
        let cross_node = topo.migration_cost(CpuId(0), CpuId(4));
        assert!(same_llc < same_node, "{same_llc} < {same_node}");
        assert!(same_node < cross_node, "{same_node} < {cross_node}");
        assert_eq!(topo.migration_cost(CpuId(3), CpuId(3)), 0);
    }

    #[test]
    fn node_of_maps_cpus_to_sockets() {
        let topo = TopologyBuilder::new().sockets(2).cores_per_socket(2).build();
        assert_eq!(topo.node_of(CpuId(0)), NodeId(0));
        assert_eq!(topo.node_of(CpuId(3)), NodeId(1));
        assert!(topo.same_node(CpuId(0), CpuId(1)));
        assert!(!topo.same_node(CpuId(1), CpuId(2)));
    }

    #[test]
    fn cpus_of_node_partition_the_machine() {
        let topo = TopologyBuilder::new().sockets(4).cores_per_socket(4).build();
        let mut seen = vec![false; topo.nr_cpus()];
        for n in 0..topo.nr_nodes() {
            for cpu in topo.cpus_of_node(NodeId(n)) {
                assert!(!seen[cpu.0], "cpu listed twice");
                seen[cpu.0] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }
}
