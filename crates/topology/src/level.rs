//! Steal levels: the distance classes a victim search walks outwards.
//!
//! Topology-aware stealing orders victims by the cost of migrating a thread
//! from them: an SMT sibling shares everything, an LLC neighbour shares the
//! cache, a node-local core shares the memory controller, and a remote core
//! shares nothing but the interconnect.  The classic "wasted cores" bugs are
//! precisely violations of this ordering — balancing logic that either never
//! looks past its own node (starving idle cores) or that treats every core
//! as equidistant (shredding locality).  [`StealLevel`] is the shared
//! vocabulary the model, the simulator and the real-thread runqueues use so
//! that all three altitudes run the *identical* distance-ordered policy.

use crate::cpu::CpuId;
use crate::machine::MachineTopology;

/// The distance class between a thief and a victim, innermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StealLevel {
    /// Victim is an SMT sibling: same physical core.
    SmtSibling,
    /// Victim shares the last-level cache (but not the physical core).
    SameLlc,
    /// Victim is on the same NUMA node (but not the same LLC).
    SameNode,
    /// Victim is on a remote NUMA node.
    Remote,
}

impl StealLevel {
    /// All levels, ordered innermost (cheapest migration) first.
    pub const ALL: [StealLevel; 4] =
        [StealLevel::SmtSibling, StealLevel::SameLlc, StealLevel::SameNode, StealLevel::Remote];

    /// Index of this level in [`StealLevel::ALL`] (0 = innermost).
    pub fn index(self) -> usize {
        match self {
            StealLevel::SmtSibling => 0,
            StealLevel::SameLlc => 1,
            StealLevel::SameNode => 2,
            StealLevel::Remote => 3,
        }
    }

    /// The level with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in `0..4`.
    pub fn from_index(index: usize) -> StealLevel {
        StealLevel::ALL[index]
    }

    /// Short lowercase name used in stats columns (`"smt"`, `"llc"`,
    /// `"node"`, `"remote"`).
    pub fn short_name(self) -> &'static str {
        match self {
            StealLevel::SmtSibling => "smt",
            StealLevel::SameLlc => "llc",
            StealLevel::SameNode => "node",
            StealLevel::Remote => "remote",
        }
    }
}

impl std::fmt::Display for StealLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

impl MachineTopology {
    /// Classifies the distance between two distinct CPUs into the steal
    /// level a victim search would find the second one at.
    ///
    /// # Panics
    ///
    /// Panics if the two CPUs are the same (a core never steals from
    /// itself, so the classification is meaningless).
    pub fn steal_level(&self, thief: CpuId, victim: CpuId) -> StealLevel {
        assert_ne!(thief, victim, "a core has no steal level relative to itself");
        let a = self.cpu(thief);
        let b = self.cpu(victim);
        if a.is_smt_sibling_of(b) {
            StealLevel::SmtSibling
        } else if a.shares_llc_with(b) {
            StealLevel::SameLlc
        } else if a.node == b.node {
            StealLevel::SameNode
        } else {
            StealLevel::Remote
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologyBuilder;

    #[test]
    fn levels_are_ordered_innermost_first() {
        let levels = StealLevel::ALL;
        for (i, level) in levels.iter().enumerate() {
            assert_eq!(level.index(), i);
            assert_eq!(StealLevel::from_index(i), *level);
        }
        assert!(StealLevel::SmtSibling < StealLevel::Remote);
    }

    #[test]
    fn classification_walks_outwards_on_a_full_machine() {
        // 2 sockets × 4 cores × 2 LLCs × SMT-2: cpu0's sibling is cpu1, its
        // LLC spans cpus 0..4, its node spans cpus 0..8.
        let topo =
            TopologyBuilder::new().sockets(2).cores_per_socket(4).llcs_per_socket(2).smt(2).build();
        assert_eq!(topo.steal_level(CpuId(0), CpuId(1)), StealLevel::SmtSibling);
        assert_eq!(topo.steal_level(CpuId(0), CpuId(2)), StealLevel::SameLlc);
        assert_eq!(topo.steal_level(CpuId(0), CpuId(4)), StealLevel::SameNode);
        assert_eq!(topo.steal_level(CpuId(0), CpuId(8)), StealLevel::Remote);
    }

    #[test]
    fn classification_is_symmetric() {
        let topo =
            TopologyBuilder::new().sockets(2).cores_per_socket(4).llcs_per_socket(2).smt(2).build();
        for a in 0..topo.nr_cpus() {
            for b in 0..topo.nr_cpus() {
                if a == b {
                    continue;
                }
                assert_eq!(
                    topo.steal_level(CpuId(a), CpuId(b)),
                    topo.steal_level(CpuId(b), CpuId(a)),
                );
            }
        }
    }

    #[test]
    fn level_agrees_with_migration_cost_ordering() {
        // The steal-level order must refine the migration-cost order: a
        // strictly closer level never costs more than a farther one.
        let topo =
            TopologyBuilder::new().sockets(2).cores_per_socket(4).llcs_per_socket(2).smt(2).build();
        let thief = CpuId(0);
        for a in 1..topo.nr_cpus() {
            for b in 1..topo.nr_cpus() {
                let (a, b) = (CpuId(a), CpuId(b));
                if a == b {
                    continue;
                }
                if topo.steal_level(thief, a) < topo.steal_level(thief, b) {
                    assert!(topo.migration_cost(thief, a) <= topo.migration_cost(thief, b));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no steal level")]
    fn self_classification_is_rejected() {
        let topo = TopologyBuilder::new().build();
        let _ = topo.steal_level(CpuId(0), CpuId(0));
    }

    #[test]
    fn same_level_cpus_share_a_region() {
        // "Within `level`" is an equivalence: the regions a steal at or below
        // a level stays inside nest, so the steal levels form an ultrametric.
        let topo =
            TopologyBuilder::new().sockets(2).cores_per_socket(4).llcs_per_socket(2).smt(2).build();
        let n = topo.nr_cpus();
        let level = |a: usize, b: usize| topo.steal_level(CpuId(a), CpuId(b));
        for a in 0..n {
            for b in (0..n).filter(|&b| b != a) {
                assert_eq!(level(a, b), level(b, a));
                for c in (0..n).filter(|&c| c != a && c != b) {
                    assert!(level(a, c) <= level(a, b).max(level(b, c)), "cpus {a}, {b}, {c}");
                }
            }
        }
    }
}
