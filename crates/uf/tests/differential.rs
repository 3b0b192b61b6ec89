//! Differential test of the union-find decoder against a naive
//! reference: growth that scans every edge each step and a peeler with
//! dense per-component arrays. The two must agree on every output field:
//! components and their order, corrections, defects, growth steps and
//! erasure size.

use qecool_surface_code::{CodePatch, Edge, Lattice, PhenomenologicalNoise, SyndromeHistory};
use qecool_uf::dsu::ClusterSets;
use qecool_uf::{DecodingGraph, GraphEdgeKind, UfComponent, UfComponentOutcome, UnionFindDecoder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Dense reference decode over a graph built for this call alone.
fn naive_decode(lattice: &Lattice, history: &SyndromeHistory) -> UfComponentOutcome {
    let na = lattice.num_ancillas();
    let graph = DecodingGraph::new(lattice, history.num_rounds());
    let n = graph.num_nodes();
    let edges = graph.edges();
    let mut defect = vec![false; n];
    let mut sets = ClusterSets::new(n);
    for (t, round) in history.iter().enumerate() {
        for idx in round.events().iter_ones() {
            defect[graph.cell(idx, t)] = true;
            sets.set_defect(graph.cell(idx, t));
        }
    }
    for v in (0..n).filter(|&v| graph.is_boundary(v)) {
        sets.set_boundary(v);
    }
    let defects: Vec<usize> = (0..n).filter(|&v| defect[v]).collect();
    if defects.is_empty() {
        return UfComponentOutcome::default();
    }

    let mut support = vec![0u8; edges.len()];
    let mut growth_steps = 0;
    while defects.iter().any(|&v| sets.is_active(v)) {
        growth_steps += 1;
        let mut fused = Vec::new();
        for (i, e) in edges.iter().enumerate() {
            if support[i] >= 2 {
                continue;
            }
            let inc =
                u8::from(sets.is_active(e.u as usize)) + u8::from(sets.is_active(e.v as usize));
            support[i] = (support[i] + inc).min(2);
            if inc > 0 && support[i] == 2 {
                fused.push(i);
            }
        }
        for i in fused {
            sets.union(edges[i].u as usize, edges[i].v as usize);
        }
    }

    let erasure: Vec<usize> = (0..edges.len()).filter(|&i| support[i] == 2).collect();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for &i in &erasure {
        adj[edges[i].u as usize].push((edges[i].v as usize, i));
        adj[edges[i].v as usize].push((edges[i].u as usize, i));
    }
    let mut visited = vec![false; n];
    let mut components = Vec::new();
    let roots: Vec<usize> = (0..n)
        .filter(|&v| graph.is_boundary(v))
        .chain(0..n)
        .collect();
    for root in roots {
        if visited[root] || adj[root].is_empty() {
            continue;
        }
        let mut order = vec![root];
        let mut parent = vec![None; n];
        visited[root] = true;
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &(w, i) in &adj[v] {
                if !visited[w] {
                    visited[w] = true;
                    parent[w] = Some((v, i));
                    order.push(w);
                }
            }
        }
        let comp_defects: Vec<(usize, usize)> = order
            .iter()
            .filter(|&&v| defect[v])
            .map(|&v| (v % na, v / na))
            .collect();
        let mut parity = vec![false; lattice.num_data_qubits()];
        let mut carry = defect.clone();
        for &v in order.iter().skip(1).rev() {
            if carry[v] {
                let (p, i) = parent[v].unwrap();
                carry[v] = false;
                carry[p] = !carry[p];
                if let GraphEdgeKind::Data(q) = edges[i].kind {
                    parity[q.index()] ^= true;
                }
            }
        }
        if !comp_defects.is_empty() {
            components.push(UfComponent {
                corrections: (0..parity.len()).filter(|&q| parity[q]).map(Edge).collect(),
                defects: comp_defects,
            });
        }
    }
    UfComponentOutcome {
        components,
        growth_steps,
        erasure_edges: erasure.len(),
    }
}

/// `rounds` noisy rounds at phenomenological rate `p`.
fn noisy_history(lattice: &Lattice, rounds: usize, p: f64, seed: u64) -> SyndromeHistory {
    let noise = PhenomenologicalNoise::symmetric(p);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut patch = CodePatch::new(lattice.clone());
    let mut history = SyndromeHistory::new(lattice.clone());
    for _ in 0..rounds {
        history.push(patch.noisy_round(&noise, &mut rng));
    }
    history
}

#[test]
fn sparse_decode_matches_the_naive_reference() {
    let mut histories = 0;
    for d in [3usize, 5, 9, 13] {
        let lattice = Lattice::new(d).unwrap();
        let decoder = UnionFindDecoder::new(lattice.clone());
        for rounds in [1, d + 1, 3 * d] {
            for p in [0.001, 0.003, 0.01, 0.03, 0.08] {
                for seed in 0..50u64 {
                    let h = noisy_history(&lattice, rounds, p, seed);
                    assert_eq!(
                        decoder.decode_components(&h),
                        naive_decode(&lattice, &h),
                        "d={d} rounds={rounds} p={p} seed={seed}"
                    );
                    histories += 1;
                }
            }
        }
    }
    assert_eq!(histories, 3000);
}

#[test]
fn interleaved_shapes_match_fresh_decodes() {
    // Each shape change on one thread replaces the thread's cached graph
    // and scratch; every decode must still equal a decode on a fresh
    // thread, whose workspace has never held another shape.
    let fresh = |d: usize, h: &SyndromeHistory| {
        let decoder = UnionFindDecoder::new(Lattice::new(d).unwrap());
        let h = h.clone();
        std::thread::spawn(move || decoder.decode_components(&h))
            .join()
            .unwrap()
    };
    let window = |d: usize| 3 * d;
    let tail = |d: usize| d + 2;
    let mut cases = Vec::new();
    for (d, rounds) in [
        (5, window(5)),
        (9, window(9)),
        (5, window(5)),
        (5, tail(5)),
        (5, window(5)),
        (9, tail(9)),
        (9, window(9)),
    ] {
        for seed in 0..4u64 {
            let lattice = Lattice::new(d).unwrap();
            let h = noisy_history(&lattice, rounds, 0.03, 1000 * d as u64 + seed);
            let expected = fresh(d, &h);
            cases.push((d, h, expected));
        }
    }
    for (d, h, expected) in &cases {
        let decoder = UnionFindDecoder::new(Lattice::new(*d).unwrap());
        assert_eq!(&decoder.decode_components(h), expected, "d={d}");
        // Back-to-back decodes of one shape reuse the workspace.
        assert_eq!(&decoder.decode_components(h), expected, "d={d} again");
    }
}

#[test]
fn decoder_is_send_sync_and_clone() {
    fn assert_traits<T: Send + Sync + Clone>() {}
    assert_traits::<UnionFindDecoder>();
}
