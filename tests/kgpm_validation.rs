//! kGPM validation through the `ktpm::api` facade: on random graphs
//! and random cyclic patterns, and on fixed paper-graph fixtures, both
//! tree drivers — mtree (DP-B inside, `ShardEngine::Full`) and mtree+
//! (Topk-EN inside, `ShardEngine::Lazy`) — must agree with exhaustive
//! enumeration over the undirected closure, sequentially and sharded.

use ktpm::api::Executor;
use ktpm::graph::fixtures::{citation_graph, paper_graph};
use ktpm::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_graph(rng: &mut StdRng, nodes: usize, labels: usize) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|_| b.add_node(&format!("L{}", rng.random_range(0..labels))))
        .collect();
    for u in 0..nodes {
        for _ in 0..rng.random_range(1..4) {
            let v = rng.random_range(0..nodes);
            if v != u {
                b.add_edge(ids[u], ids[v], rng.random_range(1..4));
            }
        }
    }
    b.build().unwrap()
}

/// A facade executor whose store carries the data graph, so pattern
/// plans can derive the undirected mirror.
fn pattern_exec(g: &LabeledGraph) -> Executor {
    let store = MemStore::new(ClosureTables::compute(g))
        .with_graph(g.clone())
        .into_shared();
    Executor::new(g.interner().clone(), store)
}

/// Exhaustive kGPM oracle: the top-k scores of every label-consistent
/// assignment whose pattern edges all have finite undirected distances.
fn oracle(g: &LabeledGraph, q: &GraphQuery, k: usize) -> Vec<Score> {
    ktpm::core::brute::all_pattern_matches(g, q)
        .into_iter()
        .take(k)
        .map(|(score, _)| score)
        .collect()
}

/// A random connected pattern with distinct labels and possible cycles.
fn random_pattern(rng: &mut StdRng, labels: usize) -> Option<GraphQuery> {
    let n = rng.random_range(2..5usize);
    if n > labels {
        return None;
    }
    // Distinct labels via partial shuffle.
    let mut pool: Vec<usize> = (0..labels).collect();
    for i in 0..n {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    let names: Vec<String> = pool[..n].iter().map(|l| format!("L{l}")).collect();
    // Random spanning tree + up to 2 extra edges.
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (rng.random_range(0..i), i)).collect();
    for _ in 0..rng.random_range(0..3usize) {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    GraphQuery::new(names, edges).ok()
}

#[test]
fn kgpm_matchers_agree_with_oracle_on_random_workloads() {
    for t in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(9000 + t);
        let nodes = rng.random_range(5..12);
        let g = random_graph(&mut rng, nodes, 4);
        let exec = pattern_exec(&g);
        let Some(q) = random_pattern(&mut rng, 4) else {
            continue;
        };
        let k = rng.random_range(1..12);
        let expect = oracle(&g, &q, k);
        for engine in [ShardEngine::Full, ShardEngine::Lazy] {
            for shards in [1, 3] {
                let got: Vec<Score> = exec
                    .query_pattern(q.clone())
                    .shard_engine(engine)
                    .shards(shards)
                    .k(k)
                    .topk()
                    .unwrap()
                    .into_iter()
                    .map(|m| m.score)
                    .collect();
                assert_eq!(
                    got, expect,
                    "trial {t}, engine {engine:?}, {shards} shards, q {q:?}"
                );
            }
        }
    }
}

#[test]
fn kgpm_matches_verify_against_closure() {
    let mut rng = StdRng::seed_from_u64(9999);
    let g = random_graph(&mut rng, 20, 5);
    let exec = pattern_exec(&g);
    let ug = ktpm::graph::undirect(&g);
    let tc = ktpm::closure::ClosureTables::compute(&ug);
    for t in 0..5u64 {
        let mut prng = StdRng::seed_from_u64(7000 + t);
        let Some(q) = random_pattern(&mut prng, 5) else {
            continue;
        };
        for m in exec.query_pattern(q.clone()).k(15).topk().unwrap() {
            let mut total: Score = 0;
            for &(a, b) in q.edges() {
                let d = tc
                    .dist(m.assignment[a], m.assignment[b])
                    .expect("edge must map to a path");
                total += d as Score;
            }
            assert_eq!(total, m.score);
            for (u, &v) in m.assignment.iter().enumerate() {
                assert_eq!(ug.label_name(ug.label(v)), q.label(u), "label preserved");
            }
        }
    }
}

fn labels(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn kgpm_matchers_agree_with_oracle_on_fixed_fixtures() {
    // Hand-picked inputs with known shapes: two triangles and a square
    // on the paper graph, a tree-shaped pattern on the Figure-1 graph,
    // a label the graph lacks, and k = 0. Streams must equal the
    // oracle element for element — scores and assignments.
    let paper = paper_graph();
    let citation = citation_graph();
    let cases: Vec<(&LabeledGraph, GraphQuery, usize)> = vec![
        (
            &paper,
            GraphQuery::new(labels(&["a", "c", "d"]), vec![(0, 1), (1, 2), (0, 2)]).unwrap(),
            50,
        ),
        (
            &paper,
            GraphQuery::new(labels(&["c", "d", "e"]), vec![(0, 1), (1, 2), (2, 0)]).unwrap(),
            10,
        ),
        (
            &paper,
            GraphQuery::new(
                labels(&["a", "b", "c", "d"]),
                vec![(0, 1), (0, 2), (2, 3), (1, 3)],
            )
            .unwrap(),
            10,
        ),
        (
            &citation,
            GraphQuery::new(labels(&["C", "E", "S"]), vec![(0, 1), (0, 2)]).unwrap(),
            20,
        ),
        (
            &paper,
            GraphQuery::new(labels(&["a", "zz"]), vec![(0, 1)]).unwrap(),
            5,
        ),
        (
            &paper,
            GraphQuery::new(labels(&["a", "b"]), vec![(0, 1)]).unwrap(),
            0,
        ),
    ];
    let mut nonempty = 0;
    for (g, q, k) in &cases {
        let exec = pattern_exec(g);
        let mut want = ktpm::core::brute::all_pattern_matches(g, q);
        want.truncate(*k);
        nonempty += usize::from(!want.is_empty());
        for engine in [ShardEngine::Full, ShardEngine::Lazy] {
            for shards in [1, 3] {
                let got: Vec<(Score, Vec<NodeId>)> = exec
                    .query_pattern(q.clone())
                    .shard_engine(engine)
                    .shards(shards)
                    .k(*k)
                    .topk()
                    .unwrap()
                    .into_iter()
                    .map(|m| (m.score, m.assignment.to_vec()))
                    .collect();
                assert_eq!(
                    got, want,
                    "engine {engine:?}, {shards} shards, k {k}, q {q:?}"
                );
            }
        }
    }
    assert_eq!(nonempty, 4, "only the missing label and k = 0 are empty");
}
