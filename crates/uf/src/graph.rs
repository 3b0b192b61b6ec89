//! The 3-D decoding graph the union-find decoder grows clusters on.
//!
//! Nodes are detection cells `(ancilla, round)` for every round of the
//! observation window, plus one *distinct* virtual boundary node per
//! boundary-adjacent horizontal edge per round (keeping west and east
//! boundaries homologically separate — collapsing them into one node
//! would let peeling route a correction "through" the boundary and flip
//! the logical class silently).
//!
//! Edges carry the physical meaning needed to turn a peeled erasure into
//! a correction:
//!
//! * **spatial** edges — one per data qubit per round; peeling one emits
//!   that data-qubit correction;
//! * **temporal** edges — same ancilla, adjacent rounds; peeling one
//!   asserts a measurement error, no data correction.

use qecool_surface_code::{Edge, Lattice};

/// Physical meaning of one decoding-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphEdgeKind {
    /// An X error on a data qubit (correctable).
    Data(Edge),
    /// A syndrome measurement error (nothing to correct on data).
    Measurement,
}

/// One undirected decoding-graph edge.
#[derive(Debug, Clone, Copy)]
pub struct GraphEdge {
    /// First endpoint (node index).
    pub u: u32,
    /// Second endpoint (node index).
    pub v: u32,
    /// Physical meaning.
    pub kind: GraphEdgeKind,
}

/// The decoding graph for a lattice and a window of `rounds` layers.
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    rounds: usize,
    num_ancillas: usize,
    num_nodes: usize,
    first_boundary_node: usize,
    edges: Vec<GraphEdge>,
    /// Incident edge indices of all nodes, node-major (CSR), each node's
    /// run in ascending edge order.
    incident: Vec<u32>,
    /// `incident[incident_start[v]..incident_start[v + 1]]` is node `v`'s
    /// run.
    incident_start: Vec<u32>,
}

impl DecodingGraph {
    /// Builds the graph for `rounds` measurement layers on `lattice`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn new(lattice: &Lattice, rounds: usize) -> Self {
        assert!(rounds > 0, "need at least one measurement round");
        let na = lattice.num_ancillas();
        let cell_nodes = na * rounds;
        let mut edges: Vec<GraphEdge> = Vec::new();
        let mut next_boundary = cell_nodes;

        for t in 0..rounds {
            let base = t * na;
            // Spatial edges: every data qubit of the round.
            for q in 0..lattice.num_data_qubits() {
                let e = Edge(q);
                let (a, b) = lattice.endpoints(e);
                let u = (base + lattice.ancilla_index(a)) as u32;
                match b {
                    Some(b) => {
                        let v = (base + lattice.ancilla_index(b)) as u32;
                        edges.push(GraphEdge {
                            u,
                            v,
                            kind: GraphEdgeKind::Data(e),
                        });
                    }
                    None => {
                        // Boundary edge: a fresh virtual node keeps each
                        // boundary stub distinct.
                        let v = next_boundary as u32;
                        next_boundary += 1;
                        edges.push(GraphEdge {
                            u,
                            v,
                            kind: GraphEdgeKind::Data(e),
                        });
                    }
                }
            }
            // Temporal edges to the next round.
            if t + 1 < rounds {
                for a in 0..na {
                    edges.push(GraphEdge {
                        u: (base + a) as u32,
                        v: (base + na + a) as u32,
                        kind: GraphEdgeKind::Measurement,
                    });
                }
            }
        }

        let num_nodes = next_boundary;
        let mut incident_start = vec![0u32; num_nodes + 1];
        for e in &edges {
            incident_start[e.u as usize + 1] += 1;
            incident_start[e.v as usize + 1] += 1;
        }
        for v in 0..num_nodes {
            incident_start[v + 1] += incident_start[v];
        }
        let mut fill = incident_start[..num_nodes].to_vec();
        let mut incident = vec![0u32; 2 * edges.len()];
        for (i, e) in edges.iter().enumerate() {
            for end in [e.u, e.v] {
                let slot = &mut fill[end as usize];
                incident[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        Self {
            rounds,
            num_ancillas: na,
            num_nodes,
            first_boundary_node: cell_nodes,
            edges,
            incident,
            incident_start,
        }
    }

    /// Number of measurement rounds covered.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total node count (cells + virtual boundary nodes).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// Edge indices incident to `node`, ascending.
    pub fn incident(&self, node: usize) -> &[u32] {
        let start = self.incident_start[node] as usize;
        let end = self.incident_start[node + 1] as usize;
        &self.incident[start..end]
    }

    /// Node index of detection cell `(ancilla_index, round)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn cell(&self, ancilla_index: usize, round: usize) -> usize {
        assert!(ancilla_index < self.num_ancillas && round < self.rounds);
        round * self.num_ancillas + ancilla_index
    }

    /// `true` for virtual boundary nodes.
    pub fn is_boundary(&self, node: usize) -> bool {
        node >= self.first_boundary_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_consistent() {
        let lat = Lattice::new(5).unwrap();
        let g = DecodingGraph::new(&lat, 3);
        let na = lat.num_ancillas();
        // Boundary stubs: 2 per row per round.
        let boundary = 2 * lat.rows() * 3;
        assert_eq!(g.num_nodes(), na * 3 + boundary);
        // Edges: data qubits per round + temporal links.
        assert_eq!(g.edges().len(), lat.num_data_qubits() * 3 + na * 2);
        assert_eq!(g.rounds(), 3);
    }

    #[test]
    fn cell_indexing_is_dense() {
        let lat = Lattice::new(3).unwrap();
        let g = DecodingGraph::new(&lat, 2);
        let na = lat.num_ancillas();
        for t in 0..2 {
            for a in 0..na {
                let n = g.cell(a, t);
                assert!(!g.is_boundary(n));
                assert_eq!(n, t * na + a);
            }
        }
    }

    #[test]
    fn boundary_nodes_have_single_incident_edge() {
        let lat = Lattice::new(5).unwrap();
        let g = DecodingGraph::new(&lat, 2);
        for n in 0..g.num_nodes() {
            if g.is_boundary(n) {
                assert_eq!(g.incident(n).len(), 1, "boundary node {n}");
            }
        }
    }

    #[test]
    fn incident_lists_hold_each_edge_at_both_ends_in_ascending_order() {
        let lat = Lattice::new(5).unwrap();
        let g = DecodingGraph::new(&lat, 3);
        let mut seen = vec![0; g.edges().len()];
        for n in 0..g.num_nodes() {
            let inc = g.incident(n);
            assert!(inc.windows(2).all(|w| w[0] < w[1]), "node {n}: {inc:?}");
            for &e in inc {
                let edge = g.edges()[e as usize];
                assert!(edge.u as usize == n || edge.v as usize == n);
                seen[e as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 2));
    }

    #[test]
    fn interior_cell_degree_matches_geometry() {
        // An interior ancilla in a middle round touches 4 spatial + 2
        // temporal edges.
        let lat = Lattice::new(5).unwrap();
        let g = DecodingGraph::new(&lat, 3);
        let a = lat.ancilla_index(qecool_surface_code::Ancilla::new(2, 1));
        assert_eq!(g.incident(g.cell(a, 1)).len(), 4 + 2);
        // First-round cell: 4 spatial + 1 temporal.
        assert_eq!(g.incident(g.cell(a, 0)).len(), 4 + 1);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_rounds_rejected() {
        let lat = Lattice::new(3).unwrap();
        DecodingGraph::new(&lat, 0);
    }
}
