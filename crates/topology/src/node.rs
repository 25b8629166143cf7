//! NUMA node identifiers and per-node topology facts.

use crate::cpu::CpuId;

/// Identifier of a NUMA node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the raw index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Static facts about one NUMA node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node this record describes.
    pub id: NodeId,
    /// CPUs local to this node, in ascending order.
    pub cpus: Vec<CpuId>,
}

impl NodeInfo {
    /// Returns the number of CPUs on this node.
    pub fn nr_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Returns `true` if `cpu` belongs to this node.
    pub fn contains(&self, cpu: CpuId) -> bool {
        self.cpus.binary_search(&cpu).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_uses_sorted_cpu_list() {
        let node = NodeInfo { id: NodeId(0), cpus: vec![CpuId(0), CpuId(1), CpuId(2), CpuId(3)] };
        assert!(node.contains(CpuId(2)));
        assert!(!node.contains(CpuId(4)));
        assert_eq!(node.nr_cpus(), 4);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(NodeId(1).to_string(), "node1");
    }
}
