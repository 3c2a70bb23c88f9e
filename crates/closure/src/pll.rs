//! Pruned landmark labeling (2-hop index) for distance queries.
//!
//! §5 "Managing Closure Size" points at 2-hop node labeling
//! (Cohen et al. SODA'02, Akiba et al. SIGMOD'13) as the way to avoid
//! materializing an O(n²) closure: keep only "hot" closure lists and
//! answer the rest of the `δ_min` queries from a small in-memory index.
//! This module implements the directed, weighted variant of pruned
//! landmark labeling; the kGPM engine can use it to verify non-tree edges,
//! and the ablation bench compares it against full closure lookups.
//!
//! Semantics note: internally the index uses standard (empty-path-allowed)
//! distances; [`PllIndex::dist`] converts to the closure's non-empty-path
//! semantics (`dist(v, v)` is the shortest cycle through `v`, or `None`).

use ktpm_graph::{Dist, LabeledGraph, NodeId, INF_DIST};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A 2-hop labeling over a directed weighted graph.
#[derive(Debug, Clone)]
pub struct PllIndex {
    /// For each node `v`: sorted `(landmark_rank, δ(landmark, v))`.
    label_in: Vec<Vec<(u32, Dist)>>,
    /// For each node `v`: sorted `(landmark_rank, δ(v, landmark))`.
    label_out: Vec<Vec<(u32, Dist)>>,
    /// Shortest cycle through each node (non-empty self distance).
    self_dist: Vec<Dist>,
}

/// Minimum `δ_out(u, w) + δ_in(w, v)` over common landmarks of two sorted
/// label lists (standard 2-hop query; empty-path semantics).
fn hop_query(out: &[(u32, Dist)], inc: &[(u32, Dist)]) -> Dist {
    let (mut i, mut j) = (0, 0);
    let mut best = INF_DIST;
    while i < out.len() && j < inc.len() {
        match out[i].0.cmp(&inc[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let d = out[i].1.saturating_add(inc[j].1);
                best = best.min(d);
                i += 1;
                j += 1;
            }
        }
    }
    best
}

impl PllIndex {
    /// Builds the index with landmarks ordered by decreasing degree product
    /// (the usual centrality heuristic).
    pub fn build(g: &LabeledGraph) -> Self {
        let n = g.num_nodes();
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.sort_unstable_by_key(|&v| {
            Reverse((g.out_degree(v) + 1) as u64 * (g.in_degree(v) + 1) as u64)
        });

        let mut label_in: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); n];
        let mut label_out: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); n];
        let mut dist = vec![INF_DIST; n];

        for (rank, &lm) in order.iter().enumerate() {
            let rank = rank as u32;
            // Forward search from lm: adds (rank, δ(lm, v)) to label_in[v].
            let fwd = pruned_dijkstra(g, lm, true, &label_out[lm.index()], &label_in, &mut dist);
            for (v, d) in fwd {
                label_in[v.index()].push((rank, d));
            }
            // Backward search: adds (rank, δ(v, lm)) to label_out[v].
            // Pruning compares against hop_query(label_out[v], label_in[lm]).
            let bwd = pruned_dijkstra(g, lm, false, &label_in[lm.index()], &label_out, &mut dist);
            for (v, d) in bwd {
                label_out[v.index()].push((rank, d));
            }
        }

        // Non-empty self distances: shortest cycle through v.
        let mut self_dist = vec![INF_DIST; n];
        for v in g.nodes() {
            let mut best = INF_DIST;
            for e in g.out_edges(v) {
                let back = hop_query(&label_out[e.to.index()], &label_in[v.index()]);
                if back != INF_DIST {
                    best = best.min(e.weight.saturating_add(back));
                }
            }
            self_dist[v.index()] = best;
        }

        PllIndex {
            label_in,
            label_out,
            self_dist,
        }
    }

    /// Shortest non-empty-path distance from `u` to `v` (closure semantics).
    pub fn dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        let d = if u == v {
            self.self_dist[u.index()]
        } else {
            hop_query(&self.label_out[u.index()], &self.label_in[v.index()])
        };
        (d != INF_DIST).then_some(d)
    }

    /// Average label entries per node (both directions), the usual 2-hop
    /// index size metric.
    pub fn avg_label_size(&self) -> f64 {
        let n = self.label_in.len();
        if n == 0 {
            return 0.0;
        }
        let total: usize = self
            .label_in
            .iter()
            .chain(self.label_out.iter())
            .map(Vec::len)
            .sum();
        total as f64 / n as f64
    }

    /// Approximate index size in bytes (8 bytes per label entry).
    pub fn approx_bytes(&self) -> u64 {
        let total: usize = self
            .label_in
            .iter()
            .chain(self.label_out.iter())
            .map(Vec::len)
            .sum();
        total as u64 * 8
    }
}

/// Dijkstra from `lm` (forward over out-edges or backward over in-edges),
/// pruned by the current index: a node whose tentative distance is already
/// covered by earlier landmarks is neither labeled nor expanded.
///
/// `lm_labels` are the labels of the landmark on the *opposite* side;
/// `other_side` holds the per-node labels on the side being queried
/// against. Returns the `(node, dist)` pairs to add.
fn pruned_dijkstra(
    g: &LabeledGraph,
    lm: NodeId,
    forward: bool,
    lm_labels: &[(u32, Dist)],
    other_side: &[Vec<(u32, Dist)>],
    dist: &mut [Dist],
) -> Vec<(NodeId, Dist)> {
    let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();
    let mut touched: Vec<NodeId> = Vec::new();
    let mut added: Vec<(NodeId, Dist)> = Vec::new();
    dist[lm.index()] = 0;
    touched.push(lm);
    heap.push(Reverse((0, lm)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v.index()] {
            continue;
        }
        // Prune if earlier landmarks already cover (lm -> v) at <= d.
        let covered = if forward {
            hop_query(lm_labels, &other_side[v.index()])
        } else {
            hop_query(&other_side[v.index()], lm_labels)
        };
        if covered <= d {
            continue;
        }
        added.push((v, d));
        let edges: Vec<(NodeId, Dist)> = if forward {
            g.out_edges(v).map(|e| (e.to, e.weight)).collect()
        } else {
            g.in_edges(v).map(|e| (e.from, e.weight)).collect()
        };
        for (to, w) in edges {
            let nd = d.saturating_add(w);
            if nd < dist[to.index()] {
                if dist[to.index()] == INF_DIST {
                    touched.push(to);
                }
                dist[to.index()] = nd;
                heap.push(Reverse((nd, to)));
            }
        }
    }
    for &v in &touched {
        dist[v.index()] = INF_DIST;
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::floyd_warshall;
    use ktpm_graph::GraphBuilder;

    fn check_against_fw(g: &LabeledGraph) {
        let pll = PllIndex::build(g);
        let fw = floyd_warshall(g);
        for (i, row) in fw.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                let expect = (d != INF_DIST).then_some(d);
                assert_eq!(
                    pll.dist(NodeId(i as u32), NodeId(j as u32)),
                    expect,
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn dag_distances() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..6).map(|i| b.add_node(&format!("l{i}"))).collect();
        for (u, v, w) in [
            (0, 1, 1),
            (0, 2, 4),
            (1, 2, 1),
            (1, 3, 7),
            (2, 3, 2),
            (2, 4, 5),
            (3, 5, 1),
            (4, 5, 1),
        ] {
            b.add_edge(n[u], n[v], w);
        }
        check_against_fw(&b.build().unwrap());
    }

    #[test]
    fn cyclic_distances_and_self_loops() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|i| b.add_node(&format!("l{i}"))).collect();
        for (u, v, w) in [(0, 1, 1), (1, 2, 2), (2, 0, 3), (2, 3, 1)] {
            b.add_edge(n[u], n[v], w);
        }
        let g = b.build().unwrap();
        check_against_fw(&g);
        let pll = PllIndex::build(&g);
        assert_eq!(pll.dist(n[0], n[0]), Some(6)); // cycle 0->1->2->0
        assert_eq!(pll.dist(n[3], n[3]), None); // 3 is not on a cycle
    }

    #[test]
    fn disconnected_pairs_return_none() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let x = b.add_node("x");
        let y = b.add_node("y");
        b.add_edge(a, x, 1);
        let g = b.build().unwrap();
        let pll = PllIndex::build(&g);
        assert_eq!(pll.dist(a, y), None);
        assert_eq!(pll.dist(x, a), None);
    }

    #[test]
    fn random_graphs_match_floyd_warshall() {
        // Deterministic xorshift so the test is reproducible without rand.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..8 {
            let n = 8 + (trial % 4) * 3;
            let mut b = GraphBuilder::new();
            let nodes: Vec<_> = (0..n).map(|i| b.add_node(&format!("l{i}"))).collect();
            for u in 0..n {
                for v in 0..n {
                    if u != v && next() % 4 == 0 {
                        b.add_edge(nodes[u], nodes[v], (next() % 5 + 1) as Dist);
                    }
                }
            }
            check_against_fw(&b.build().unwrap());
        }
    }

    #[test]
    fn index_size_metrics() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..5).map(|i| b.add_node(&format!("l{i}"))).collect();
        for w in n.windows(2) {
            b.add_edge(w[0], w[1], 1);
        }
        let pll = PllIndex::build(&b.build().unwrap());
        assert!(pll.avg_label_size() > 0.0);
        assert!(pll.approx_bytes() > 0);
    }
}
