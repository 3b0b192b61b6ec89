//! The MWPM baseline decoder for the 3-D surface-code syndrome lattice.
//!
//! This is the comparator of Fig. 4(a) and Table IV of the QECOOL paper
//! (Fowler \[7\]): detection events become nodes of a matching graph, edge
//! weights are 3-D Manhattan distances (space + time — the correct
//! log-likelihood weight when data and measurement error rates are equal,
//! as the paper assumes), and an exact minimum-weight perfect matching
//! selects the correction.
//!
//! Open boundaries use the standard **graph-doubling reduction**: the event
//! graph is duplicated, each event is connected to its own copy with weight
//! `2 × (distance to nearest boundary)`, and event–event edges appear in
//! both copies. A minimum-weight perfect matching of the doubled graph
//! projects (copy 1 + cross edges) onto an optimal boundary-aware matching
//! of the original events.

use qecool_surface_code::{
    syndrome::DetectionEvent, Boundary, CodePatch, Edge, Lattice, SyndromeHistory,
};

use crate::perfect::{min_weight_perfect_matching, PerfectMatchingError};

/// A matched pair of detection events, or an event matched to a boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Match {
    /// Two detection events paired through the bulk.
    Pair(DetectionEvent, DetectionEvent),
    /// An event matched to the nearest open boundary.
    ToBoundary(DetectionEvent, Boundary),
}

impl Match {
    /// Vertical (temporal) extent of this match in measurement rounds.
    ///
    /// `Pair` extents count the time-layer separation; boundary matches are
    /// purely spatial and have extent 0.
    pub fn vertical_extent(&self) -> usize {
        match self {
            Match::Pair(a, b) => a.round.abs_diff(b.round),
            Match::ToBoundary(..) => 0,
        }
    }

    /// The earliest measurement round this match touches.
    ///
    /// Sliding-window callers use this to decide whether a match is
    /// anchored in the commit stride (committed now) or floats entirely
    /// in the overlap region (left tentative for the next window).
    pub fn min_round(&self) -> usize {
        match self {
            Match::Pair(a, b) => a.round.min(b.round),
            Match::ToBoundary(a, _) => a.round,
        }
    }

    /// The detection events this match explains (one or two).
    pub fn events(&self) -> impl Iterator<Item = DetectionEvent> + '_ {
        let (first, second) = match self {
            Match::Pair(a, b) => (*a, Some(*b)),
            Match::ToBoundary(a, _) => (*a, None),
        };
        std::iter::once(first).chain(second)
    }
}

/// Result of decoding one syndrome history.
#[derive(Debug, Clone, Default)]
pub struct MwpmOutcome {
    /// The pairing selected by the matcher.
    pub matches: Vec<Match>,
    /// Data-qubit corrections implied by the pairing.
    pub corrections: Vec<Edge>,
}

impl MwpmOutcome {
    /// Applies the data-qubit corrections to a code patch.
    pub fn apply(&self, patch: &mut CodePatch) {
        patch.apply_corrections(self.corrections.iter().copied());
    }
}

/// Exact MWPM decoder over a [`SyndromeHistory`].
///
/// # Example
///
/// ```
/// use qecool_mwpm::MwpmDecoder;
/// use qecool_surface_code::{CodePatch, Lattice, SyndromeHistory};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lattice = Lattice::new(5)?;
/// let mut patch = CodePatch::new(lattice.clone());
/// patch.inject_error(lattice.horizontal_edge(2, 2));
/// let mut history = SyndromeHistory::new(lattice.clone());
/// history.push(patch.perfect_round());
///
/// let decoder = MwpmDecoder::new(lattice);
/// let outcome = decoder.decode(&history)?;
/// outcome.apply(&mut patch);
/// assert!(patch.syndrome_is_trivial());
/// assert!(!patch.has_logical_error());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MwpmDecoder {
    lattice: Lattice,
    neighbor_cap: Option<usize>,
}

impl MwpmDecoder {
    /// Creates a decoder with the default neighbor cap (each event connects
    /// to its 16 nearest events — the standard sparsification that leaves
    /// matching quality unchanged in practice while keeping the graph
    /// linear in the number of events).
    ///
    /// Building the capped graph costs, per event, O(n) distance
    /// evaluations and an O(n) select of the `cap` nearest, then an
    /// O(cap log cap) sort of just those; duplicate pairs are dropped by
    /// an O(1) comparison, with no hash set.
    pub fn new(lattice: Lattice) -> Self {
        Self {
            lattice,
            neighbor_cap: Some(16),
        }
    }

    /// Creates a decoder that builds the *complete* event graph (exact but
    /// quadratic in the number of events). Useful for validating the capped
    /// variant.
    pub fn exact(lattice: Lattice) -> Self {
        Self {
            lattice,
            neighbor_cap: None,
        }
    }

    /// Sets the neighbor cap (`None` = complete graph).
    pub fn with_neighbor_cap(mut self, cap: Option<usize>) -> Self {
        self.neighbor_cap = cap;
        self
    }

    /// The lattice this decoder was built for.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// 3-D Manhattan distance between two detection events.
    fn dist(&self, a: &DetectionEvent, b: &DetectionEvent) -> i64 {
        (self.lattice.grid_distance(a.ancilla, b.ancilla) + a.round.abs_diff(b.round)) as i64
    }

    /// The capped candidate event-event edges `(i, j, w)` with `i < j`:
    /// node `i` proposes its `cap` smallest `(w, j)` keys, visited in
    /// ascending `i` and then ascending key, and each pair is kept the
    /// first time it is proposed.
    ///
    /// Keys are unique (`j` breaks ties), so an O(n) select followed by a
    /// sort of the `cap`-long prefix yields exactly the set and order a
    /// full sort would. A pair `{j, i}` with `j < i` was already proposed
    /// by `j` iff `(w, i)` is no larger than `kth[j]`, the largest key
    /// `j` kept, which replaces a hash-set lookup.
    pub(crate) fn capped_pair_edges(
        &self,
        events: &[DetectionEvent],
        cap: usize,
    ) -> Vec<(usize, usize, i64)> {
        let n = events.len();
        let mut pair_edges = Vec::new();
        if cap == 0 {
            return pair_edges;
        }
        let mut kth = vec![(0i64, 0usize); n];
        let mut near: Vec<(i64, usize)> = Vec::with_capacity(n);
        for i in 0..n {
            near.clear();
            near.extend(
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| (self.dist(&events[i], &events[j]), j)),
            );
            if cap < near.len() {
                near.select_nth_unstable(cap - 1);
                near.truncate(cap);
            }
            near.sort_unstable();
            if let Some(&last) = near.last() {
                kth[i] = last;
            }
            for &(w, j) in &near {
                if j > i {
                    pair_edges.push((i, j, w));
                } else if (w, i) > kth[j] {
                    pair_edges.push((j, i, w));
                }
            }
        }
        pair_edges
    }

    /// Decodes a full syndrome history (batch decoding).
    ///
    /// # Errors
    ///
    /// Propagates [`PerfectMatchingError`] if the internal doubled graph
    /// admits no perfect matching; by construction (every event has a
    /// cross edge to its copy) this cannot happen, so an error indicates a
    /// bug upstream.
    ///
    /// # Panics
    ///
    /// Panics if the history belongs to a different lattice size.
    pub fn decode(&self, history: &SyndromeHistory) -> Result<MwpmOutcome, PerfectMatchingError> {
        assert_eq!(
            history.lattice().num_ancillas(),
            self.lattice.num_ancillas(),
            "history lattice does not match decoder lattice"
        );
        let events = history.events();
        self.decode_events(&events)
    }

    /// Decodes an explicit list of detection events.
    ///
    /// # Errors
    ///
    /// Same as [`Self::decode`].
    pub fn decode_events(
        &self,
        events: &[DetectionEvent],
    ) -> Result<MwpmOutcome, PerfectMatchingError> {
        let n = events.len();
        if n == 0 {
            return Ok(MwpmOutcome::default());
        }

        // Candidate event-event edges (possibly capped to nearest
        // neighbours).
        let pair_edges = match self.neighbor_cap {
            None => {
                let mut pair_edges = Vec::new();
                for i in 0..n {
                    for j in i + 1..n {
                        pair_edges.push((i, j, self.dist(&events[i], &events[j])));
                    }
                }
                pair_edges
            }
            Some(cap) => self.capped_pair_edges(events, cap),
        };
        self.match_pair_edges(events, &pair_edges)
    }

    /// Matches `events` over the candidate edges `pair_edges` and projects
    /// the solution onto matches and corrections.
    fn match_pair_edges(
        &self,
        events: &[DetectionEvent],
        pair_edges: &[(usize, usize, i64)],
    ) -> Result<MwpmOutcome, PerfectMatchingError> {
        let n = events.len();
        // Doubled graph: copy-1 nodes 0..n, copy-2 nodes n..2n, cross edges
        // i <-> n+i with weight 2 * boundary distance.
        let mut edges: Vec<(usize, usize, i64)> = Vec::with_capacity(2 * pair_edges.len() + n);
        for &(i, j, w) in pair_edges {
            edges.push((i, j, w));
            edges.push((n + i, n + j, w));
        }
        for (i, ev) in events.iter().enumerate() {
            let (_, dist) = self.lattice.nearest_boundary(ev.ancilla);
            edges.push((i, n + i, 2 * dist as i64));
        }

        let mate = min_weight_perfect_matching(2 * n, &edges)?;

        // Project the copy-1 solution.
        let mut outcome = MwpmOutcome::default();
        for i in 0..n {
            let m = mate[i];
            if m == n + i {
                let (boundary, _) = self.lattice.nearest_boundary(events[i].ancilla);
                outcome.matches.push(Match::ToBoundary(events[i], boundary));
            } else if m < n && i < m {
                outcome.matches.push(Match::Pair(events[i], events[m]));
            } else {
                debug_assert!(
                    m < n || m == n + i,
                    "cross edges only connect an event to its own copy"
                );
                continue;
            }
            let last = outcome.matches.last().expect("just pushed");
            self.append_match_corrections(last, &mut outcome.corrections);
        }
        Ok(outcome)
    }

    /// Appends the data-qubit corrections implied by a single match.
    ///
    /// [`Self::decode_events`] routes every selected match through this
    /// helper, so a sliding-window caller committing a subset of the
    /// matches reproduces exactly the corrections the monolithic decode
    /// would have emitted for them.
    pub fn append_match_corrections(&self, m: &Match, out: &mut Vec<Edge>) {
        match m {
            Match::Pair(a, b) => out.extend(self.lattice.route(a.ancilla, b.ancilla)),
            Match::ToBoundary(a, boundary) => {
                out.extend(self.lattice.route_to_boundary(a.ancilla, *boundary));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qecool_surface_code::{Ancilla, PhenomenologicalNoise};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(d: usize) -> (Lattice, CodePatch, SyndromeHistory) {
        let lat = Lattice::new(d).unwrap();
        let patch = CodePatch::new(lat.clone());
        let hist = SyndromeHistory::new(lat.clone());
        (lat, patch, hist)
    }

    /// The candidate-edge builder as it was before the select: a full sort
    /// of every event's neighbour list and a hash set of emitted pairs.
    /// One pass serves several caps, so each list is sorted only once.
    fn reference_pair_edges(
        decoder: &MwpmDecoder,
        events: &[DetectionEvent],
        caps: &[usize],
    ) -> Vec<Vec<(usize, usize, i64)>> {
        let n = events.len();
        let mut pair_edges = vec![Vec::new(); caps.len()];
        let mut seen = vec![std::collections::HashSet::new(); caps.len()];
        for i in 0..n {
            let mut near: Vec<(i64, usize)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (decoder.dist(&events[i], &events[j]), j))
                .collect();
            near.sort_unstable();
            for (c, &cap) in caps.iter().enumerate() {
                for &(w, j) in near.iter().take(cap) {
                    let key = (i.min(j), i.max(j));
                    if seen[c].insert(key) {
                        pair_edges[c].push((key.0, key.1, w));
                    }
                }
            }
        }
        pair_edges
    }

    /// `3d` noisy rounds plus the closing perfect round.
    fn noisy_events(lat: &Lattice, p: f64, seed: u64) -> Vec<DetectionEvent> {
        let noise = PhenomenologicalNoise::symmetric(p);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut patch = CodePatch::new(lat.clone());
        let mut hist = SyndromeHistory::new(lat.clone());
        for _ in 0..3 * lat.distance() {
            hist.push(patch.noisy_round(&noise, &mut rng));
        }
        hist.push(patch.perfect_round());
        hist.events()
    }

    #[test]
    fn capped_pair_edges_match_the_sorting_reference() {
        // Unoptimised builds run 3 seeds per case; `--release` runs 100.
        let seeds = if cfg!(debug_assertions) { 3 } else { 100 };
        for d in [3usize, 5, 9, 13] {
            let lat = Lattice::new(d).unwrap();
            let decoder = MwpmDecoder::new(lat.clone());
            for p in [0.001, 0.005, 0.02, 0.05, 0.1] {
                for seed in 0..seeds {
                    let events = noisy_events(&lat, p, seed);
                    let caps = [0usize, 1, 2, 16, 40];
                    let reference = reference_pair_edges(&decoder, &events, &caps);
                    for (&cap, expected) in caps.iter().zip(&reference) {
                        assert_eq!(
                            &decoder.capped_pair_edges(&events, cap),
                            expected,
                            "d={d} p={p} seed={seed} cap={cap} n={}",
                            events.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn capped_decode_matches_the_sorting_reference() {
        for d in [3usize, 5, 9] {
            let lat = Lattice::new(d).unwrap();
            for p in [0.005, 0.02, 0.05] {
                for seed in 0..10u64 {
                    let events = noisy_events(&lat, p, seed);
                    for cap in [1usize, 2, 16] {
                        let decoder = MwpmDecoder::new(lat.clone()).with_neighbor_cap(Some(cap));
                        let fast = decoder.decode_events(&events).unwrap();
                        let edges = reference_pair_edges(&decoder, &events, &[cap]);
                        let reference = decoder.match_pair_edges(&events, &edges[0]).unwrap();
                        let label = format!("d={d} p={p} seed={seed} cap={cap}");
                        assert_eq!(fast.matches, reference.matches, "{label}");
                        assert_eq!(fast.corrections, reference.corrections, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_history_decodes_to_nothing() {
        let (lat, _, hist) = setup(5);
        let outcome = MwpmDecoder::new(lat).decode(&hist).unwrap();
        assert!(outcome.matches.is_empty());
        assert!(outcome.corrections.is_empty());
    }

    #[test]
    fn corrects_every_single_qubit_error() {
        let lat = Lattice::new(5).unwrap();
        let decoder = MwpmDecoder::new(lat.clone());
        for q in 0..lat.num_data_qubits() {
            let mut patch = CodePatch::new(lat.clone());
            patch.inject_error(Edge(q));
            let mut hist = SyndromeHistory::new(lat.clone());
            hist.push(patch.perfect_round());
            let outcome = decoder.decode(&hist).unwrap();
            outcome.apply(&mut patch);
            assert!(patch.syndrome_is_trivial(), "qubit {q} left syndrome");
            assert!(!patch.has_logical_error(), "qubit {q} caused logical flip");
        }
    }

    #[test]
    fn corrects_measurement_error_without_touching_data() {
        // A lone measurement error produces two vertically adjacent events
        // on the same ancilla; MWPM must pair them with zero data
        // correction.
        let (lat, mut patch, mut hist) = setup(5);
        let idx = lat.ancilla_index(Ancilla::new(2, 1));
        // Round 0: flip the readout of one ancilla by hand.
        let mut r0 = patch.perfect_round().into_inner();
        r0.toggle(idx);
        hist.push(qecool_surface_code::DetectionRound::new(r0));
        // Round 1: the wrong value reverts, producing the second event.
        let mut r1 = patch.perfect_round().into_inner();
        r1.toggle(idx);
        hist.push(qecool_surface_code::DetectionRound::new(r1));

        let outcome = MwpmDecoder::new(lat).decode(&hist).unwrap();
        assert!(outcome.corrections.is_empty(), "{outcome:?}");
        assert_eq!(outcome.matches.len(), 1);
        assert_eq!(outcome.matches[0].vertical_extent(), 1);
    }

    #[test]
    fn pairs_adjacent_events_rather_than_boundary() {
        let (lat, mut patch, mut hist) = setup(7);
        // Error in the middle: two events one apart; boundary is farther.
        patch.inject_error(lat.horizontal_edge(3, 3));
        hist.push(patch.perfect_round());
        let outcome = MwpmDecoder::new(lat.clone()).decode(&hist).unwrap();
        assert_eq!(outcome.matches.len(), 1);
        assert!(matches!(outcome.matches[0], Match::Pair(..)));
        assert_eq!(outcome.corrections.len(), 1);
        outcome.apply(&mut patch);
        assert!(patch.syndrome_is_trivial());
        assert!(!patch.has_logical_error());
    }

    #[test]
    fn matches_edge_event_to_boundary() {
        let (lat, mut patch, mut hist) = setup(7);
        patch.inject_error(lat.horizontal_edge(3, 0));
        hist.push(patch.perfect_round());
        let outcome = MwpmDecoder::new(lat.clone()).decode(&hist).unwrap();
        assert_eq!(outcome.matches.len(), 1);
        assert!(matches!(
            outcome.matches[0],
            Match::ToBoundary(_, Boundary::West)
        ));
        outcome.apply(&mut patch);
        assert!(patch.syndrome_is_trivial());
        assert!(!patch.has_logical_error());
    }

    #[test]
    fn corrects_weight_two_chains() {
        let lat = Lattice::new(7).unwrap();
        let decoder = MwpmDecoder::new(lat.clone());
        // A chain of two adjacent horizontal errors.
        let mut patch = CodePatch::new(lat.clone());
        patch.inject_error(lat.horizontal_edge(3, 2));
        patch.inject_error(lat.horizontal_edge(3, 3));
        let mut hist = SyndromeHistory::new(lat.clone());
        hist.push(patch.perfect_round());
        let outcome = decoder.decode(&hist).unwrap();
        outcome.apply(&mut patch);
        assert!(patch.syndrome_is_trivial());
        assert!(!patch.has_logical_error());
    }

    #[test]
    fn capped_and_exact_agree_on_moderate_noise() {
        let lat = Lattice::new(7).unwrap();
        let noise = PhenomenologicalNoise::symmetric(0.02);
        let mut failures = 0;
        for seed in 0..30u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut hist = SyndromeHistory::new(lat.clone());
            for _ in 0..7 {
                hist.push(patch.noisy_round(&noise, &mut rng));
            }
            hist.push(patch.perfect_round());

            let exact = MwpmDecoder::exact(lat.clone()).decode(&hist).unwrap();
            let capped = MwpmDecoder::new(lat.clone()).decode(&hist).unwrap();
            // Both must return to the code space.
            let mut p1 = patch.clone();
            exact.apply(&mut p1);
            assert!(p1.syndrome_is_trivial());
            let mut p2 = patch.clone();
            capped.apply(&mut p2);
            assert!(p2.syndrome_is_trivial());
            if p1.has_logical_error() != p2.has_logical_error() {
                failures += 1;
            }
        }
        assert!(failures <= 2, "cap changed {failures}/30 logical outcomes");
    }

    #[test]
    fn always_returns_to_code_space_under_heavy_noise() {
        let lat = Lattice::new(5).unwrap();
        let decoder = MwpmDecoder::new(lat.clone());
        let noise = PhenomenologicalNoise::symmetric(0.1);
        for seed in 0..25u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut hist = SyndromeHistory::new(lat.clone());
            for _ in 0..5 {
                hist.push(patch.noisy_round(&noise, &mut rng));
            }
            hist.push(patch.perfect_round());
            let outcome = decoder.decode(&hist).unwrap();
            outcome.apply(&mut patch);
            assert!(patch.syndrome_is_trivial(), "seed {seed} left syndrome");
        }
    }

    #[test]
    fn vertical_extent_is_reported() {
        let a = DetectionEvent::new(Ancilla::new(0, 0), 1);
        let b = DetectionEvent::new(Ancilla::new(0, 0), 4);
        assert_eq!(Match::Pair(a, b).vertical_extent(), 3);
        assert_eq!(Match::ToBoundary(a, Boundary::West).vertical_extent(), 0);
    }

    #[test]
    fn min_round_and_events_cover_both_match_shapes() {
        let a = DetectionEvent::new(Ancilla::new(0, 0), 4);
        let b = DetectionEvent::new(Ancilla::new(1, 0), 1);
        let pair = Match::Pair(a, b);
        assert_eq!(pair.min_round(), 1);
        assert_eq!(pair.events().collect::<Vec<_>>(), vec![a, b]);
        let bd = Match::ToBoundary(a, Boundary::West);
        assert_eq!(bd.min_round(), 4);
        assert_eq!(bd.events().collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn per_match_corrections_compose_to_the_decode_corrections() {
        let lat = Lattice::new(7).unwrap();
        let noise = PhenomenologicalNoise::symmetric(0.04);
        let decoder = MwpmDecoder::new(lat.clone());
        for seed in 0..10u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lat.clone());
            let mut hist = SyndromeHistory::new(lat.clone());
            for _ in 0..7 {
                hist.push(patch.noisy_round(&noise, &mut rng));
            }
            hist.push(patch.perfect_round());
            let outcome = decoder.decode(&hist).unwrap();
            let mut rebuilt = Vec::new();
            for m in &outcome.matches {
                decoder.append_match_corrections(m, &mut rebuilt);
            }
            assert_eq!(rebuilt, outcome.corrections, "seed {seed}");
        }
    }
}
