//! The union-find decoder: cluster growth + peeling.
//!
//! Algorithm (Delfosse–Nickerson):
//!
//! 1. **Syndrome validation / growth** — every detection event starts a
//!    singleton cluster. All *active* clusters (odd defect parity, no
//!    boundary contact) grow by a half-edge per step; edges whose support
//!    reaches 2 merge their endpoint clusters. Growth stops when every
//!    cluster is neutral (even parity or boundary-touching).
//! 2. **Peeling** — the fully-grown edges form an *erasure*; a spanning
//!    forest of the erasure (rooted at boundary nodes where available) is
//!    peeled leaf-first: a leaf carrying a defect emits its tree edge as
//!    part of the correction and hands the defect to its parent.
//!
//! Spatial tree edges emit data-qubit corrections (XOR-accumulated per
//! qubit across rounds); temporal edges absorb measurement errors.
//!
//! A decode's work follows the defects, not the graph: each growth step
//! visits only the nodes of active clusters, the peeler walks only
//! erasure edges, and all scratch is reset through lists of the entries
//! touched. The decoding graph and that scratch live in a per-thread
//! workspace that is rebuilt only when the `(d, rounds)` shape changes.

use crate::dsu::ClusterSets;
use crate::graph::{DecodingGraph, GraphEdgeKind};
use qecool_surface_code::{CodePatch, Edge, Lattice, SyndromeHistory};
use std::cell::Cell;

/// Result of one union-find decode.
#[derive(Debug, Clone, Default)]
pub struct UfOutcome {
    /// Data-qubit corrections (already XOR-reduced per qubit).
    pub corrections: Vec<Edge>,
    /// Growth iterations until all clusters neutralized.
    pub growth_steps: usize,
    /// Number of fully-grown (erasure) edges handed to the peeler.
    pub erasure_edges: usize,
}

impl UfOutcome {
    /// Applies the corrections to a code patch.
    pub fn apply(&self, patch: &mut CodePatch) {
        patch.apply_corrections(self.corrections.iter().copied());
    }
}

/// One erasure component of a union-find decode.
///
/// Components are disjoint: every detection event is peeled by exactly
/// one component, and XOR-composing all component corrections
/// reproduces the monolithic [`UfOutcome::corrections`]. Sliding-window
/// callers use the per-component granularity to decide which matches to
/// *commit* (a component whose earliest defect round falls inside the
/// commit stride) and which to leave tentative for the next window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UfComponent {
    /// Data-qubit corrections contributed by this component
    /// (XOR-reduced within the component, sorted by qubit index).
    pub corrections: Vec<Edge>,
    /// Detection events `(ancilla_index, round)` this component
    /// explains, in deterministic BFS discovery order. Never empty.
    pub defects: Vec<(usize, usize)>,
}

impl UfComponent {
    /// The earliest round any of this component's defects occurred in.
    pub fn min_round(&self) -> usize {
        self.defects
            .iter()
            .map(|&(_, t)| t)
            .min()
            .expect("a UfComponent always holds at least one defect")
    }
}

/// Result of a per-component union-find decode
/// ([`UnionFindDecoder::decode_components`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UfComponentOutcome {
    /// The disjoint erasure components, in deterministic peel order.
    pub components: Vec<UfComponent>,
    /// Growth iterations until all clusters neutralized.
    pub growth_steps: usize,
    /// Number of fully-grown (erasure) edges handed to the peeler.
    pub erasure_edges: usize,
}

/// Union-find decoder over a [`SyndromeHistory`] (batch decoding).
///
/// # Example
///
/// ```
/// use qecool_surface_code::{CodePatch, Lattice, SyndromeHistory};
/// use qecool_uf::UnionFindDecoder;
///
/// # fn main() -> Result<(), qecool_surface_code::LatticeError> {
/// let lattice = Lattice::new(5)?;
/// let mut patch = CodePatch::new(lattice.clone());
/// patch.inject_error(lattice.horizontal_edge(2, 2));
/// let mut history = SyndromeHistory::new(lattice.clone());
/// history.push(patch.perfect_round());
///
/// let outcome = UnionFindDecoder::new(lattice).decode(&history);
/// outcome.apply(&mut patch);
/// assert!(patch.syndrome_is_trivial());
/// assert!(!patch.has_logical_error());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct UnionFindDecoder {
    lattice: Lattice,
}

impl UnionFindDecoder {
    /// Creates a decoder for the given lattice.
    pub fn new(lattice: Lattice) -> Self {
        Self { lattice }
    }

    /// The lattice this decoder was built for.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Decodes a full syndrome history.
    ///
    /// Equivalent to XOR-composing the corrections of every component
    /// returned by [`Self::decode_components`].
    ///
    /// # Panics
    ///
    /// Panics if the history is empty or belongs to a different lattice
    /// size.
    pub fn decode(&self, history: &SyndromeHistory) -> UfOutcome {
        let parts = self.decode_components(history);
        let mut qubit_parity = vec![false; self.lattice.num_data_qubits()];
        for comp in &parts.components {
            for e in &comp.corrections {
                qubit_parity[e.index()] ^= true;
            }
        }
        let corrections: Vec<Edge> = qubit_parity
            .iter()
            .enumerate()
            .filter_map(|(q, &on)| on.then_some(Edge(q)))
            .collect();
        UfOutcome {
            corrections,
            growth_steps: parts.growth_steps,
            erasure_edges: parts.erasure_edges,
        }
    }

    /// Decodes a full syndrome history, keeping the erasure components
    /// separate.
    ///
    /// Each returned component holds the detection events it explains
    /// and the corrections it contributes; components are disjoint, so
    /// a sliding-window caller can commit some components (emitting
    /// their corrections and clearing their defect events from the
    /// buffered rounds) while discarding others as tentative.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty or belongs to a different lattice
    /// size.
    pub fn decode_components(&self, history: &SyndromeHistory) -> UfComponentOutcome {
        assert_eq!(
            history.lattice().num_ancillas(),
            self.lattice.num_ancillas(),
            "history lattice does not match decoder lattice"
        );
        let rounds = history.num_rounds();
        // Take the thread's workspace out of its slot for the decode: a
        // panic mid-decode then drops it instead of leaving dirty scratch
        // behind for the next caller.
        let mut ws = match WORKSPACE.with(Cell::take) {
            Some(ws) if ws.fits(&self.lattice, rounds) => ws,
            _ => Workspace::new(&self.lattice, rounds),
        };
        let outcome = ws.decode(history);
        WORKSPACE.with(|slot| slot.set(Some(ws)));
        outcome
    }
}

thread_local! {
    /// One workspace per thread, for the last `(d, rounds)` shape decoded
    /// on it. Decoders are cheap values shared across threads; keeping
    /// the scratch here rather than in each decoder bounds memory by the
    /// thread count, not the session count.
    static WORKSPACE: Cell<Option<Workspace>> = const { Cell::new(None) };
}

/// The decoding graph of one `(d, rounds)` shape plus every scratch
/// buffer a decode touches. Between decodes every per-node and per-edge
/// array is back at its initial value; a decode records what it touches
/// in the `grown` and `cluster` lists and resets only those entries, so
/// its cost follows the defects and their growth, not the graph size.
struct Workspace {
    distance: usize,
    num_ancillas: usize,
    graph: DecodingGraph,
    sets: ClusterSets,
    /// Per-edge half-edge count: 0, 1, or 2 once fused into the erasure.
    support: Vec<u8>,
    /// Edges with nonzero support.
    grown: Vec<u32>,
    /// Fused edges, in fusion order.
    erasure: Vec<u32>,
    /// Per-node detection-event flag.
    defect: Vec<bool>,
    /// The detection-event nodes.
    defects: Vec<u32>,
    /// Per-node membership flag of `cluster`.
    in_cluster: Vec<bool>,
    /// Defects and fused-edge endpoints: every node whose cluster can
    /// be active, and after growth every erasure endpoint.
    cluster: Vec<u32>,
    /// Per-node BFS flag of the peeler.
    visited: Vec<bool>,
    /// BFS tree `(parent node, edge)` of each visited non-root node.
    parent: Vec<(u32, u32)>,
    /// Per-node defect parity carried towards the root while peeling.
    carry: Vec<bool>,
    /// One component's nodes in BFS order.
    order: Vec<u32>,
    /// Per-data-qubit correction parity of the component being peeled.
    flipped: Vec<bool>,
    /// Data qubits toggled in `flipped` (with repeats).
    flips: Vec<u32>,
}

impl Workspace {
    fn new(lattice: &Lattice, rounds: usize) -> Self {
        let graph = DecodingGraph::new(lattice, rounds);
        let n = graph.num_nodes();
        let mut sets = ClusterSets::new(n);
        for node in (0..n).filter(|&v| graph.is_boundary(v)) {
            sets.set_boundary(node);
        }
        Self {
            distance: lattice.distance(),
            num_ancillas: lattice.num_ancillas(),
            support: vec![0; graph.edges().len()],
            grown: Vec::new(),
            erasure: Vec::new(),
            defect: vec![false; n],
            defects: Vec::new(),
            in_cluster: vec![false; n],
            cluster: Vec::new(),
            visited: vec![false; n],
            parent: vec![(0, 0); n],
            carry: vec![false; n],
            order: Vec::new(),
            flipped: vec![false; lattice.num_data_qubits()],
            flips: Vec::new(),
            sets,
            graph,
        }
    }

    fn fits(&self, lattice: &Lattice, rounds: usize) -> bool {
        self.distance == lattice.distance() && self.graph.rounds() == rounds
    }

    fn decode(&mut self, history: &SyndromeHistory) -> UfComponentOutcome {
        for (t, round) in history.iter().enumerate() {
            for idx in round.events().iter_ones() {
                let node = self.graph.cell(idx, t);
                self.defect[node] = true;
                self.sets.set_defect(node);
                self.defects.push(node as u32);
                self.in_cluster[node] = true;
                self.cluster.push(node as u32);
            }
        }
        if self.defects.is_empty() {
            return UfComponentOutcome::default();
        }
        let growth_steps = self.grow();
        let components = self.peel();
        let erasure_edges = self.erasure.len();
        self.clear();
        UfComponentOutcome {
            components,
            growth_steps,
            erasure_edges,
        }
    }

    /// Phase 1: grows active clusters by a half-edge per step until all
    /// are neutral; returns the step count. Only nodes of active
    /// clusters bump their incident edges, so an edge between two active
    /// nodes gains 2 in one step, as in a scan over every edge.
    fn grow(&mut self) -> usize {
        let mut steps = 0;
        while self
            .defects
            .iter()
            .any(|&v| self.sets.is_active(v as usize))
        {
            steps += 1;
            let fused_before = self.erasure.len();
            for i in 0..self.cluster.len() {
                let v = self.cluster[i] as usize;
                if !self.sets.is_active(v) {
                    continue;
                }
                for &e in self.graph.incident(v) {
                    let support = &mut self.support[e as usize];
                    match *support {
                        0 => self.grown.push(e),
                        1 => self.erasure.push(e),
                        _ => continue,
                    }
                    *support += 1;
                }
            }
            assert!(
                self.erasure.len() > fused_before || steps < 2 * self.graph.num_nodes(),
                "union-find growth stalled"
            );
            for &e in &self.erasure[fused_before..] {
                let edge = self.graph.edges()[e as usize];
                self.sets.union(edge.u as usize, edge.v as usize);
                for end in [edge.u, edge.v] {
                    if !self.in_cluster[end as usize] {
                        self.in_cluster[end as usize] = true;
                        self.cluster.push(end);
                    }
                }
            }
        }
        steps
    }

    /// Phase 2: peels a BFS spanning forest of the erasure, one component
    /// per tree. Roots are the erasure endpoints, boundary nodes first so
    /// defects can drain into them, each group ascending.
    fn peel(&mut self) -> Vec<UfComponent> {
        // Every defect is an erasure endpoint: a lone defect is an active
        // cluster, so growth fused an edge at it.
        self.cluster.sort_unstable();
        let first_boundary = self
            .cluster
            .partition_point(|&v| !self.graph.is_boundary(v as usize));
        let roots = (first_boundary..self.cluster.len()).chain(0..first_boundary);
        let mut components = Vec::new();
        for i in roots {
            let root = self.cluster[i] as usize;
            if self.visited[root] {
                continue;
            }
            // BFS spanning tree of this erasure component.
            self.visited[root] = true;
            self.order.clear();
            self.order.push(root as u32);
            let mut head = 0;
            while head < self.order.len() {
                let v = self.order[head];
                head += 1;
                for &e in self.graph.incident(v as usize) {
                    if self.support[e as usize] < 2 {
                        continue;
                    }
                    let edge = self.graph.edges()[e as usize];
                    let w = if edge.u == v { edge.v } else { edge.u };
                    if !self.visited[w as usize] {
                        self.visited[w as usize] = true;
                        self.parent[w as usize] = (v, e);
                        self.order.push(w);
                    }
                }
            }
            // The detection events this component explains, in BFS
            // discovery order (boundary stubs never carry defects).
            let na = self.num_ancillas;
            let defects: Vec<(usize, usize)> = self
                .order
                .iter()
                .map(|&v| v as usize)
                .filter(|&v| self.defect[v])
                .map(|v| (v % na, v / na))
                .collect();
            // Peel leaf-first (reverse BFS order).
            for &v in &self.order {
                self.carry[v as usize] = self.defect[v as usize];
            }
            for &v in self.order[1..].iter().rev() {
                if self.carry[v as usize] {
                    let (p, e) = self.parent[v as usize];
                    self.carry[v as usize] = false;
                    self.carry[p as usize] ^= true;
                    if let GraphEdgeKind::Data(q) = self.graph.edges()[e as usize].kind {
                        self.flipped[q.index()] ^= true;
                        self.flips.push(q.index() as u32);
                    }
                }
            }
            // Defects drained into this component's root must end on a
            // boundary (or cancel) — otherwise the cluster was not neutral.
            assert!(
                !self.carry[root] || self.graph.is_boundary(root),
                "peeling left a defect on a non-boundary root"
            );
            self.flips.sort_unstable();
            self.flips.dedup();
            // Defect-free components contribute no corrections (nothing
            // to carry) — keep only those that explain real events.
            if !defects.is_empty() {
                let corrections = self
                    .flips
                    .iter()
                    .filter(|&&q| self.flipped[q as usize])
                    .map(|&q| Edge(q as usize))
                    .collect();
                components.push(UfComponent {
                    corrections,
                    defects,
                });
            }
            for &q in &self.flips {
                self.flipped[q as usize] = false;
            }
            self.flips.clear();
        }
        debug_assert!(
            self.defects.iter().all(|&v| self.visited[v as usize]),
            "some defect was outside every erasure component"
        );
        components
    }

    /// Returns every entry this decode touched to its initial value.
    fn clear(&mut self) {
        for &e in &self.grown {
            self.support[e as usize] = 0;
        }
        for &v in &self.cluster {
            let v = v as usize;
            self.sets.reset(v, self.graph.is_boundary(v));
            self.defect[v] = false;
            self.in_cluster[v] = false;
            self.visited[v] = false;
        }
        self.grown.clear();
        self.erasure.clear();
        self.defects.clear();
        self.cluster.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qecool_surface_code::{Ancilla, PhenomenologicalNoise};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn single_round(patch: &mut CodePatch) -> SyndromeHistory {
        let mut h = SyndromeHistory::new(patch.lattice().clone());
        h.push(patch.perfect_round());
        h
    }

    #[test]
    fn empty_syndrome_decodes_to_nothing() {
        let lat = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lat.clone());
        let h = single_round(&mut patch);
        let out = UnionFindDecoder::new(lat).decode(&h);
        assert!(out.corrections.is_empty());
        assert_eq!(out.growth_steps, 0);
        assert_eq!(out.erasure_edges, 0);
    }

    #[test]
    fn corrects_every_single_qubit_error() {
        let lat = Lattice::new(5).unwrap();
        let decoder = UnionFindDecoder::new(lat.clone());
        for q in 0..lat.num_data_qubits() {
            let mut patch = CodePatch::new(lat.clone());
            patch.inject_error(Edge(q));
            let h = single_round(&mut patch);
            let out = decoder.decode(&h);
            out.apply(&mut patch);
            assert!(patch.syndrome_is_trivial(), "qubit {q}");
            assert!(!patch.has_logical_error(), "qubit {q}");
        }
    }

    #[test]
    fn corrects_pure_measurement_error() {
        let lat = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lat.clone());
        let idx = lat.ancilla_index(Ancilla::new(2, 1));
        let mut h = SyndromeHistory::new(lat.clone());
        let mut r0 = patch.perfect_round().into_inner();
        r0.toggle(idx);
        h.push(qecool_surface_code::DetectionRound::new(r0));
        let mut r1 = patch.perfect_round().into_inner();
        r1.toggle(idx);
        h.push(qecool_surface_code::DetectionRound::new(r1));
        let out = UnionFindDecoder::new(lat).decode(&h);
        assert!(
            out.corrections.is_empty(),
            "measurement error must not touch data: {out:?}"
        );
    }

    #[test]
    fn always_clears_syndrome_under_noise() {
        let lat = Lattice::new(9).unwrap();
        let noise = PhenomenologicalNoise::symmetric(0.04);
        let decoder = UnionFindDecoder::new(lat.clone());
        for seed in 0..40u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut h = SyndromeHistory::new(lat.clone());
            for _ in 0..9 {
                h.push(patch.noisy_round(&noise, &mut rng));
            }
            h.push(patch.perfect_round());
            let out = decoder.decode(&h);
            out.apply(&mut patch);
            assert!(patch.syndrome_is_trivial(), "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_mwpm_on_sparse_errors() {
        // On isolated weight-1 and weight-2 errors, UF and MWPM decode to
        // the same homology class.
        let lat = Lattice::new(7).unwrap();
        let uf = UnionFindDecoder::new(lat.clone());
        let mwpm = qecool_mwpm::MwpmDecoder::new(lat.clone());
        for (q1, q2) in [(10usize, 11usize), (3, 20), (40, 41), (0, 60)] {
            let mut patch = CodePatch::new(lat.clone());
            patch.inject_error(Edge(q1 % lat.num_data_qubits()));
            patch.inject_error(Edge(q2 % lat.num_data_qubits()));
            let h = single_round(&mut patch);
            let mut p1 = patch.clone();
            uf.decode(&h).apply(&mut p1);
            let mut p2 = patch.clone();
            mwpm.decode(&h).unwrap().apply(&mut p2);
            assert!(p1.syndrome_is_trivial() && p2.syndrome_is_trivial());
            assert_eq!(
                p1.has_logical_error(),
                p2.has_logical_error(),
                "UF and MWPM disagree on ({q1},{q2})"
            );
        }
    }

    #[test]
    fn components_compose_to_the_monolithic_decode() {
        let lat = Lattice::new(9).unwrap();
        let noise = PhenomenologicalNoise::symmetric(0.04);
        let decoder = UnionFindDecoder::new(lat.clone());
        for seed in 0..20u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut h = SyndromeHistory::new(lat.clone());
            for _ in 0..9 {
                h.push(patch.noisy_round(&noise, &mut rng));
            }
            h.push(patch.perfect_round());

            let mono = decoder.decode(&h);
            let parts = decoder.decode_components(&h);
            assert_eq!(parts.growth_steps, mono.growth_steps);
            assert_eq!(parts.erasure_edges, mono.erasure_edges);

            // XOR-composing per-component corrections reproduces the
            // monolithic correction exactly.
            let mut parity = vec![false; lat.num_data_qubits()];
            for comp in &parts.components {
                assert!(!comp.defects.is_empty());
                assert!(comp.defects.iter().any(|&(_, t)| t == comp.min_round()));
                for e in &comp.corrections {
                    parity[e.index()] ^= true;
                }
            }
            let composed: Vec<Edge> = parity
                .iter()
                .enumerate()
                .filter_map(|(q, &on)| on.then_some(Edge(q)))
                .collect();
            assert_eq!(composed, mono.corrections, "seed {seed}");

            // Components partition the events: every detection event is
            // explained exactly once.
            let mut seen: Vec<(usize, usize)> = parts
                .components
                .iter()
                .flat_map(|c| c.defects.iter().copied())
                .collect();
            seen.sort_unstable_by_key(|&(a, t)| (t, a));
            let events: Vec<(usize, usize)> = h
                .events()
                .iter()
                .map(|ev| (lat.ancilla_index(ev.ancilla), ev.round))
                .collect();
            assert_eq!(seen, events, "seed {seed}");
        }
    }

    #[test]
    fn growth_steps_scale_with_separation() {
        // Two far-apart events need more growth than two adjacent ones.
        let lat = Lattice::new(9).unwrap();
        let near = {
            let mut patch = CodePatch::new(lat.clone());
            patch.inject_error(lat.horizontal_edge(4, 4));
            let h = single_round(&mut patch);
            UnionFindDecoder::new(lat.clone()).decode(&h).growth_steps
        };
        let far = {
            let mut patch = CodePatch::new(lat.clone());
            let a = Ancilla::new(0, 4);
            let b = Ancilla::new(8, 4);
            for e in lat.route(a, b) {
                patch.inject_error(e);
            }
            let h = single_round(&mut patch);
            UnionFindDecoder::new(lat.clone()).decode(&h).growth_steps
        };
        assert!(far > near, "far {far} vs near {near}");
    }
}
