//! Figure 9's two kGPM systems on fixed fixtures: *mtree* (the DP-B
//! driver, [`ShardEngine::Full`]) and *mtree+* (the Topk-EN driver,
//! [`ShardEngine::Lazy`]) run through [`KgpmStream`] on the paper and
//! citation graphs and are checked against the exhaustive pattern
//! oracle of [`crate::brute`].

use crate::brute::all_pattern_matches;
use crate::{KgpmStats, KgpmStream, MatchStream, ParallelPolicy, QueryPlan, ShardEngine};
use ktpm_closure::ClosureTables;
use ktpm_graph::fixtures::{citation_graph, paper_graph};
use ktpm_graph::{LabeledGraph, NodeId, Score};
use ktpm_query::GraphQuery;
use ktpm_storage::{MemStore, SharedSource};
use std::collections::HashSet;

/// mtree and mtree+, in that order.
const MATCHERS: [ShardEngine; 2] = [ShardEngine::Full, ShardEngine::Lazy];

fn labels(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// A graph-attached source, so pattern plans can derive the
/// undirected mirror (§5's transform).
fn source_for(g: &LabeledGraph) -> SharedSource {
    MemStore::new(ClosureTables::compute(g))
        .with_graph(g.clone())
        .into_shared()
}

/// The first `k` matches of `q` with the given driver, sequentially,
/// plus the stream's work counters.
fn topk(
    g: &LabeledGraph,
    q: &GraphQuery,
    k: usize,
    engine: ShardEngine,
) -> (Vec<(Score, Vec<NodeId>)>, KgpmStats) {
    let plan = QueryPlan::new_pattern(q.clone(), g.interner(), &source_for(g))
        .expect("graph-attached MemStore supports pattern plans");
    let policy = ParallelPolicy {
        shards: 1,
        engine,
        ..ParallelPolicy::default()
    };
    let mut stream = KgpmStream::from_plan(&plan, &policy, ktpm_exec::default_pool());
    let mut out = Vec::new();
    while out.len() < k {
        let Some(m) = MatchStream::next(&mut stream) else {
            break;
        };
        out.push((m.score, m.assignment.to_vec()));
    }
    (out, stream.stats())
}

fn scores(matches: &[(Score, Vec<NodeId>)]) -> Vec<Score> {
    matches.iter().map(|&(s, _)| s).collect()
}

fn oracle_scores(g: &LabeledGraph, q: &GraphQuery, k: usize) -> Vec<Score> {
    all_pattern_matches(g, q)
        .into_iter()
        .take(k)
        .map(|(s, _)| s)
        .collect()
}

mod tests {
    use super::*;

    #[test]
    fn both_matchers_agree_with_brute_force() {
        let g = paper_graph();
        let queries = vec![
            GraphQuery::new(labels(&["a", "c", "d"]), vec![(0, 1), (1, 2), (0, 2)]).unwrap(),
            GraphQuery::new(labels(&["c", "d", "e"]), vec![(0, 1), (1, 2), (2, 0)]).unwrap(),
            GraphQuery::new(
                labels(&["a", "b", "c", "d"]),
                vec![(0, 1), (0, 2), (2, 3), (1, 3)],
            )
            .unwrap(),
        ];
        for q in &queries {
            let expect = oracle_scores(&g, q, 10);
            assert!(!expect.is_empty(), "fixture {q:?} has matches");
            for engine in MATCHERS {
                let (got, _) = topk(&g, q, 10, engine);
                assert_eq!(scores(&got), expect, "driver {engine:?} on {q:?}");
            }
        }
    }

    #[test]
    fn tree_pattern_reduces_to_tree_matching() {
        let g = citation_graph();
        let q = GraphQuery::new(labels(&["C", "E", "S"]), vec![(0, 1), (0, 2)]).unwrap();
        let expect = oracle_scores(&g, &q, 20);
        assert!(!expect.is_empty());
        for engine in MATCHERS {
            let (got, stats) = topk(&g, &q, 20, engine);
            assert_eq!(scores(&got), expect, "driver {engine:?}");
            // No non-tree edges: every tree match is a full match.
            assert_eq!(stats.rejected_disconnected, 0);
        }
    }

    #[test]
    fn matches_are_distinct_and_valid() {
        let g = paper_graph();
        let q = GraphQuery::new(labels(&["a", "c", "d"]), vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let mirror = source_for(&g)
            .undirected()
            .expect("graph-attached MemStore has a mirror");
        for engine in MATCHERS {
            let (matches, stats) = topk(&g, &q, 50, engine);
            assert!(!matches.is_empty());
            let mut seen = HashSet::new();
            for (score, assignment) in &matches {
                assert!(seen.insert(assignment.clone()), "duplicate {assignment:?}");
                let mut total: Score = 0;
                for &(a, b) in q.edges() {
                    total += mirror
                        .lookup_dist(assignment[a], assignment[b])
                        .expect("verified edge") as Score;
                }
                assert_eq!(total, *score, "driver {engine:?}");
            }
            assert!(stats.tree_matches_enumerated >= matches.len() as u64);
        }
    }

    #[test]
    fn unmatchable_label_yields_empty() {
        let g = paper_graph();
        let q = GraphQuery::new(labels(&["a", "zz"]), vec![(0, 1)]).unwrap();
        for engine in MATCHERS {
            assert!(topk(&g, &q, 5, engine).0.is_empty(), "driver {engine:?}");
        }
    }

    #[test]
    fn k_zero_is_empty() {
        let g = paper_graph();
        let q = GraphQuery::new(labels(&["a", "b"]), vec![(0, 1)]).unwrap();
        for engine in MATCHERS {
            assert!(topk(&g, &q, 0, engine).0.is_empty(), "driver {engine:?}");
            // The same pattern does match once k allows it.
            assert!(!topk(&g, &q, 1, engine).0.is_empty(), "driver {engine:?}");
        }
    }
}
