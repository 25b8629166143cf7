//! Builder for regular machine topologies.

use crate::cpu::{CpuId, CpuInfo};
use crate::distance::DistanceMatrix;
use crate::machine::MachineTopology;
use crate::node::{NodeId, NodeInfo};

/// Builds regular (socket × LLC × core × SMT) machine topologies.
///
/// # Examples
///
/// ```
/// use sched_topology::TopologyBuilder;
///
/// let topo = TopologyBuilder::new()
///     .sockets(2)
///     .cores_per_socket(8)
///     .smt(2)
///     .build();
/// assert_eq!(topo.nr_cpus(), 32);
/// assert_eq!(topo.nr_nodes(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    sockets: usize,
    cores_per_socket: usize,
    llcs_per_socket: usize,
    smt: usize,
    ring_interconnect: bool,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Starts from a single-socket, 4-core, no-SMT machine.
    pub fn new() -> Self {
        Self {
            sockets: 1,
            cores_per_socket: 4,
            llcs_per_socket: 1,
            smt: 1,
            ring_interconnect: false,
        }
    }

    /// Number of sockets; each socket is one NUMA node.
    pub fn sockets(mut self, sockets: usize) -> Self {
        assert!(sockets >= 1, "at least one socket");
        self.sockets = sockets;
        self
    }

    /// Physical cores per socket.
    pub fn cores_per_socket(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "at least one core per socket");
        self.cores_per_socket = cores;
        self
    }

    /// Number of last-level caches per socket (e.g. CCX-style splits).
    pub fn llcs_per_socket(mut self, llcs: usize) -> Self {
        assert!(llcs >= 1, "at least one LLC per socket");
        self.llcs_per_socket = llcs;
        self
    }

    /// Hardware threads per physical core (1 = SMT off).
    pub fn smt(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread per core");
        self.smt = threads;
        self
    }

    /// Uses a ring interconnect (distance grows with hop count) instead of a
    /// flat all-to-all distance matrix.
    fn ring_interconnect(mut self, ring: bool) -> Self {
        self.ring_interconnect = ring;
        self
    }

    /// A 2-socket, 8-core-per-socket server preset, similar to the machines
    /// used by the "wasted cores" study the paper builds its motivation on.
    pub fn dual_socket_server() -> MachineTopology {
        Self::new().sockets(2).cores_per_socket(8).llcs_per_socket(1).smt(2).build()
    }

    /// An 8-node NUMA machine preset (the scale at which CFS bugs appeared).
    pub fn eight_node_numa() -> MachineTopology {
        Self::new()
            .sockets(8)
            .cores_per_socket(8)
            .llcs_per_socket(2)
            .ring_interconnect(true)
            .build()
    }

    /// Builds the immutable topology.
    pub fn build(self) -> MachineTopology {
        let cpus_per_socket = self.cores_per_socket * self.smt;
        let nr_cpus = self.sockets * cpus_per_socket;
        let cores_per_llc = self.cores_per_socket.div_ceil(self.llcs_per_socket);

        let mut cpus = Vec::with_capacity(nr_cpus);
        let mut nodes = Vec::with_capacity(self.sockets);

        for socket in 0..self.sockets {
            let mut node_cpus = Vec::with_capacity(cpus_per_socket);
            for core in 0..self.cores_per_socket {
                let physical_core = socket * self.cores_per_socket + core;
                let llc = core / cores_per_llc;
                let mut siblings = Vec::with_capacity(self.smt);
                for t in 0..self.smt {
                    let id = CpuId(socket * cpus_per_socket + core * self.smt + t);
                    siblings.push(id);
                }
                for t in 0..self.smt {
                    let id = siblings[t];
                    node_cpus.push(id);
                    cpus.push(CpuInfo {
                        id,
                        socket,
                        node: NodeId(socket),
                        llc,
                        physical_core,
                        smt_siblings: siblings.clone(),
                    });
                }
            }
            node_cpus.sort();
            nodes.push(NodeInfo { id: NodeId(socket), cpus: node_cpus });
        }
        cpus.sort_by_key(|c| c.id);

        let distances = if self.ring_interconnect {
            DistanceMatrix::ring(self.sockets)
        } else {
            DistanceMatrix::flat(self.sockets)
        };

        MachineTopology::new(cpus, nodes, distances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smt_siblings_share_physical_core() {
        let topo = TopologyBuilder::new().sockets(1).cores_per_socket(2).smt(2).build();
        assert_eq!(topo.nr_cpus(), 4);
        let c0 = topo.cpu(CpuId(0));
        let c1 = topo.cpu(CpuId(1));
        assert!(c0.is_smt_sibling_of(c1));
        assert_eq!(c0.smt_siblings, vec![CpuId(0), CpuId(1)]);
    }

    #[test]
    fn llc_split_partitions_a_socket() {
        let topo = TopologyBuilder::new().sockets(1).cores_per_socket(8).llcs_per_socket(2).build();
        assert!(topo.same_llc(CpuId(0), CpuId(3)));
        assert!(!topo.same_llc(CpuId(0), CpuId(4)));
    }

    #[test]
    fn eight_node_preset_uses_ring_distances() {
        let topo = TopologyBuilder::eight_node_numa();
        assert_eq!(topo.nr_nodes(), 8);
        let d1 = topo.distances().distance(NodeId(0), NodeId(1));
        let d4 = topo.distances().distance(NodeId(0), NodeId(4));
        assert!(d4 > d1);
    }
}
