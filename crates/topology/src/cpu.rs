//! CPU (logical core) identifiers and per-CPU topology facts.

use crate::node::NodeId;

/// Identifier of a logical CPU (a hardware thread).
///
/// The scheduler model of the paper has one runqueue per CPU; `CpuId` is the
/// index shared by the topology, the runqueue array and the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub usize);

impl CpuId {
    /// Returns the raw index of this CPU.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for CpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Static topology facts about one logical CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuInfo {
    /// The CPU this record describes.
    pub id: CpuId,
    /// Socket (physical package) the CPU belongs to.
    pub socket: usize,
    /// NUMA node the CPU belongs to.
    pub node: NodeId,
    /// Last-level-cache group within the socket (e.g. a CCX on AMD parts).
    pub llc: usize,
    /// Physical core index within the machine (SMT siblings share it).
    pub physical_core: usize,
    /// SMT sibling CPUs (includes `id` itself).
    pub smt_siblings: Vec<CpuId>,
}

impl CpuInfo {
    /// Returns `true` if `other` shares the physical core with this CPU.
    pub fn is_smt_sibling_of(&self, other: &CpuInfo) -> bool {
        self.physical_core == other.physical_core && self.id != other.id
    }

    /// Returns `true` if `other` shares the last-level cache with this CPU.
    pub fn shares_llc_with(&self, other: &CpuInfo) -> bool {
        self.socket == other.socket && self.llc == other.llc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu(id: usize, socket: usize, node: usize, llc: usize, phys: usize) -> CpuInfo {
        CpuInfo {
            id: CpuId(id),
            socket,
            node: NodeId(node),
            llc,
            physical_core: phys,
            smt_siblings: vec![CpuId(id)],
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(CpuId(3).to_string(), "cpu3");
    }

    #[test]
    fn llc_sharing_requires_same_socket() {
        let a = cpu(0, 0, 0, 0, 0);
        let b = cpu(1, 1, 1, 0, 1);
        assert!(!a.shares_llc_with(&b));
        let c = cpu(2, 0, 0, 0, 2);
        assert!(a.shares_llc_with(&c));
    }

    #[test]
    fn smt_sibling_is_not_self() {
        let a = cpu(0, 0, 0, 0, 0);
        assert!(!a.is_smt_sibling_of(&a));
        let mut b = cpu(1, 0, 0, 0, 0);
        b.physical_core = 0;
        assert!(a.is_smt_sibling_of(&b));
    }
}
