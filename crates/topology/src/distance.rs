//! NUMA distance matrix, in the style of the ACPI SLIT table.

use crate::node::NodeId;

/// Local-access distance used as the matrix diagonal, matching the ACPI
/// convention where local accesses have distance 10.
pub const LOCAL_DISTANCE: u32 = 10;

/// Default remote distance for directly connected nodes.
pub const REMOTE_DISTANCE: u32 = 20;

/// Symmetric matrix of relative memory-access distances between NUMA nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    nr_nodes: usize,
    /// Row-major `nr_nodes * nr_nodes` distances.
    distances: Vec<u32>,
}

impl DistanceMatrix {
    /// Creates a matrix where every pair of distinct nodes is at
    /// [`REMOTE_DISTANCE`] and the diagonal is [`LOCAL_DISTANCE`].
    pub fn flat(nr_nodes: usize) -> Self {
        let mut m = Self { nr_nodes, distances: vec![REMOTE_DISTANCE; nr_nodes * nr_nodes] };
        for n in 0..nr_nodes {
            m.distances[n * nr_nodes + n] = LOCAL_DISTANCE;
        }
        m
    }

    /// Creates a matrix where distance grows with hop count on a ring of
    /// nodes, approximating a glueless multi-socket interconnect.
    pub fn ring(nr_nodes: usize) -> Self {
        let mut m = Self::flat(nr_nodes);
        for a in 0..nr_nodes {
            for b in 0..nr_nodes {
                if a == b {
                    continue;
                }
                let fwd = (b + nr_nodes - a) % nr_nodes;
                let back = (a + nr_nodes - b) % nr_nodes;
                let hops = fwd.min(back) as u32;
                m.distances[a * nr_nodes + b] = LOCAL_DISTANCE + 10 * hops;
            }
        }
        m
    }

    /// Number of nodes covered by this matrix.
    pub fn nr_nodes(&self) -> usize {
        self.nr_nodes
    }

    /// Distance from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(a.0 < self.nr_nodes && b.0 < self.nr_nodes, "node out of range");
        self.distances[a.0 * self.nr_nodes + b.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_matrix_is_symmetric_with_local_diagonal() {
        let m = DistanceMatrix::flat(4);
        for a in 0..4 {
            for b in 0..4 {
                let d = m.distance(NodeId(a), NodeId(b));
                assert_eq!(d, m.distance(NodeId(b), NodeId(a)));
                if a == b {
                    assert_eq!(d, LOCAL_DISTANCE);
                } else {
                    assert_eq!(d, REMOTE_DISTANCE);
                }
            }
        }
    }

    #[test]
    fn ring_distance_grows_with_hops() {
        let m = DistanceMatrix::ring(4);
        assert_eq!(m.distance(NodeId(0), NodeId(1)), 20);
        assert_eq!(m.distance(NodeId(0), NodeId(2)), 30);
        assert_eq!(m.distance(NodeId(0), NodeId(3)), 20);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn distance_panics_out_of_range() {
        let m = DistanceMatrix::flat(2);
        let _ = m.distance(NodeId(0), NodeId(5));
    }
}
