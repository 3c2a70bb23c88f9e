//! Cross-algorithm validation: on hundreds of random graphs and queries,
//! all four systems (Topk, Topk-EN, DP-B, DP-P) must produce the same
//! top-k score sequence as exhaustive enumeration. This is the central
//! correctness argument of the reproduction: the four implementations
//! share almost no code paths (eager vs lazy loading, Lawler vs DP), so
//! agreement under randomized weighted/duplicate/wildcard workloads is
//! strong evidence each is right.

use ktpm::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// A small random graph with controllable label count and weights.
fn random_graph(rng: &mut StdRng, nodes: usize, labels: usize, max_w: u32) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|_| b.add_node(&format!("L{}", rng.random_range(0..labels))))
        .collect();
    for u in 0..nodes {
        let deg = rng.random_range(0..4);
        for _ in 0..deg {
            let v = rng.random_range(0..nodes);
            if v != u {
                b.add_edge(ids[u], ids[v], rng.random_range(1..=max_w));
            }
        }
    }
    b.build().unwrap()
}

/// A random tree query over the label alphabet (not necessarily
/// matchable — empty result sets are part of the contract).
fn random_query(rng: &mut StdRng, labels: usize, opts: QueryOpts) -> TreeQuery {
    let size = rng.random_range(1..=opts.max_size);
    let mut b = TreeQueryBuilder::new();
    let mut nodes = Vec::new();
    let mut used = std::collections::HashSet::new();
    for i in 0..size {
        let node = if opts.wildcards && rng.random_range(0..6) == 0 {
            b.wildcard()
        } else {
            let l = loop {
                let l = rng.random_range(0..labels);
                if opts.duplicates || used.insert(l) {
                    break l;
                }
                if used.len() >= labels {
                    break l; // alphabet exhausted; allow duplicate
                }
            };
            b.node(&format!("L{l}"))
        };
        if i > 0 {
            let parent = nodes[rng.random_range(0..i)];
            let kind = if opts.child_edges && rng.random_range(0..4) == 0 {
                EdgeKind::Child
            } else {
                EdgeKind::Descendant
            };
            b.edge(parent, node, kind);
        }
        nodes.push(node);
    }
    b.build().unwrap()
}

#[derive(Copy, Clone)]
struct QueryOpts {
    max_size: usize,
    duplicates: bool,
    wildcards: bool,
    child_edges: bool,
}

fn check_one(g: &LabeledGraph, q: &TreeQuery, k: usize, block_edges: usize) {
    let resolved = q.resolve(g.interner());
    let store = MemStore::with_block_edges(ClosureTables::compute(g), block_edges);
    let rg = RuntimeGraph::load(&resolved, &store);

    let oracle: Vec<Score> = ktpm::core::brute::topk_scores(&rg, k);
    let topk: Vec<Score> = TopkEnumerator::new(&rg).take(k).map(|m| m.score).collect();
    assert_eq!(topk, oracle, "Topk vs oracle");
    let no_side: Vec<Score> = TopkEnumerator::with_side_queues(&rg, false)
        .take(k)
        .map(|m| m.score)
        .collect();
    assert_eq!(no_side, oracle, "Topk (no side queues) vs oracle");
    let en: Vec<Score> = TopkEnEnumerator::new(&resolved, &store)
        .take(k)
        .map(|m| m.score)
        .collect();
    assert_eq!(en, oracle, "Topk-EN vs oracle");
    let dpb: Vec<Score> = DpBEnumerator::new(&rg).take(k).map(|m| m.score).collect();
    assert_eq!(dpb, oracle, "DP-B vs oracle");
    let dpp: Vec<Score> = DpPEnumerator::new(&resolved, &store)
        .take(k)
        .map(|m| m.score)
        .collect();
    assert_eq!(dpp, oracle, "DP-P vs oracle");

    // ParTopk must reproduce `topk_full` *exactly* — order, scores and
    // witnesses — for every shard count and either shard engine. Tiny
    // batches force the refill/merge machinery through its paces.
    let want_exact = topk_full(&resolved, &store, k);
    let shared: SharedSource =
        MemStore::with_block_edges(store.tables().clone(), block_edges).into_shared();
    for engine in [ShardEngine::Full, ShardEngine::Lazy] {
        for shards in [1usize, 2, 5] {
            let policy = ParallelPolicy {
                shards,
                batch: 2,
                engine,
            };
            let got = par_topk(
                &resolved,
                Arc::clone(&shared),
                k,
                &policy,
                ktpm::exec::default_pool(),
            );
            assert_eq!(got, want_exact, "ParTopk {engine:?} x{shards} vs topk_full");
        }
    }

    // Every Topk match must be structurally valid (labels + distances).
    for m in TopkEnumerator::new(&rg).take(k) {
        for u in resolved.tree().node_ids().skip(1) {
            let p = resolved.tree().parent(u).unwrap();
            let d = store
                .tables()
                .dist(m.assignment[p.index()], m.assignment[u.index()])
                .expect("mapped edge must be a path");
            if resolved.tree().edge_kind(u) == EdgeKind::Child {
                assert_eq!(d, 1, "child edge must map to distance 1");
            }
        }
    }
}

fn run_trials(seed_base: u64, trials: usize, opts: QueryOpts, labels: usize, max_w: u32) {
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed_base + t as u64);
        let nodes = rng.random_range(4..16);
        let g = random_graph(&mut rng, nodes, labels, max_w);
        let q = random_query(&mut rng, labels, opts);
        let k = rng.random_range(1..25);
        let block = rng.random_range(1..5);
        check_one(&g, &q, k, block);
    }
}

#[test]
fn distinct_label_unit_weight_queries() {
    run_trials(
        1000,
        60,
        QueryOpts {
            max_size: 5,
            duplicates: false,
            wildcards: false,
            child_edges: false,
        },
        6,
        1,
    );
}

#[test]
fn weighted_graphs() {
    run_trials(
        2000,
        60,
        QueryOpts {
            max_size: 5,
            duplicates: false,
            wildcards: false,
            child_edges: false,
        },
        6,
        5,
    );
}

#[test]
fn duplicate_labels_topk_gt() {
    run_trials(
        3000,
        60,
        QueryOpts {
            max_size: 4,
            duplicates: true,
            wildcards: false,
            child_edges: false,
        },
        3,
        3,
    );
}

#[test]
fn wildcards_and_child_edges() {
    run_trials(
        4000,
        60,
        QueryOpts {
            max_size: 4,
            duplicates: true,
            wildcards: true,
            child_edges: true,
        },
        4,
        2,
    );
}

#[test]
fn cyclic_dense_graphs() {
    // Denser graphs with few labels: cycles, self-distances, big lists.
    for t in 0..30 {
        let mut rng = StdRng::seed_from_u64(5000 + t);
        let mut b = GraphBuilder::new();
        let n = 8;
        let ids: Vec<NodeId> = (0..n)
            .map(|_| b.add_node(&format!("L{}", rng.random_range(0..3))))
            .collect();
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.random_range(0..3) == 0 {
                    b.add_edge(ids[u], ids[v], rng.random_range(1..4));
                }
            }
        }
        let g = b.build().unwrap();
        let q = random_query(
            &mut rng,
            3,
            QueryOpts {
                max_size: 4,
                duplicates: true,
                wildcards: false,
                child_edges: false,
            },
        );
        check_one(&g, &q, 30, 2);
    }
}

#[test]
fn paged_store_end_to_end_agrees_with_memory_under_a_tight_cache() {
    // The v3 paged tier with a cache budget far below the closure size:
    // every algorithm must still stream the exact MemStore results while
    // resident bytes stay bounded.
    let mut rng = StdRng::seed_from_u64(6100);
    let g = random_graph(&mut rng, 30, 5, 3);
    let q = TreeQuery::parse("L0 -> L1\nL0 -> L2\nL2 -> L3").unwrap();
    let resolved = q.resolve(g.interner());
    let tables = ClosureTables::compute(&g);
    let mut path = std::env::temp_dir();
    path.push(format!("ktpm-xval-paged-{}.bin", std::process::id()));
    write_store_v3(&tables, &path, 2).unwrap();
    let budget = 6 * (2 * 8) as u64; // six 2-entry block payloads
    let paged = PagedStore::open_with_cache_bytes(&path, budget).unwrap();
    let mem = MemStore::with_block_edges(tables, 2);
    let from_mem: Vec<Score> = TopkEnEnumerator::new(&resolved, &mem)
        .take(20)
        .map(|m| m.score)
        .collect();
    let from_paged: Vec<Score> = TopkEnEnumerator::new(&resolved, &paged)
        .take(20)
        .map(|m| m.score)
        .collect();
    assert_eq!(from_mem, from_paged);
    let io = paged.io();
    assert!(
        io.cache_bytes_resident <= budget,
        "resident {} over budget {budget}",
        io.cache_bytes_resident
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn on_demand_store_agrees_with_memory() {
    // The §5 "Managing Closure Size" backend must be observationally
    // identical to a precomputed closure for every algorithm.
    let mut rng = StdRng::seed_from_u64(7000);
    let g = random_graph(&mut rng, 25, 5, 3);
    let q = TreeQuery::parse("L0 -> L1\nL0 -> L2\nL2 -> L3").unwrap();
    let resolved = q.resolve(g.interner());
    let mem = MemStore::with_block_edges(ClosureTables::compute(&g), 2);
    let od = OnDemandStore::with_block_edges(g.clone(), 2);
    let from_mem: Vec<Score> = TopkEnEnumerator::new(&resolved, &mem)
        .take(20)
        .map(|m| m.score)
        .collect();
    let from_od: Vec<Score> = TopkEnEnumerator::new(&resolved, &od)
        .take(20)
        .map(|m| m.score)
        .collect();
    assert_eq!(from_mem, from_od);
    // Full-load path too.
    let rg_mem = RuntimeGraph::load(&resolved, &mem);
    let rg_od = RuntimeGraph::load(&resolved, &od);
    let a: Vec<Score> = TopkEnumerator::new(&rg_mem)
        .take(20)
        .map(|m| m.score)
        .collect();
    let b: Vec<Score> = TopkEnumerator::new(&rg_od)
        .take(20)
        .map(|m| m.score)
        .collect();
    assert_eq!(a, b);
    // Only the labels the query touches were swept.
    assert!(od.sweeps() <= 4, "swept {} labels", od.sweeps());
}
