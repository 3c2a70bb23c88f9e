//! Label-pair lookup during query setup. A query edge whose two ends
//! carry concrete labels is resolved with one `contains_pair` lookup,
//! so plan setup grows with the query, not with the store's list of
//! label pairs; only wildcard ends still scan `pair_keys()`. Checked on
//! every backend against the scan-and-filter definition.

use ktpm_closure::ClosureTables;
use ktpm_core::{build_stream, Algo, ParallelPolicy, QueryPlan, ScoredMatch};
use ktpm_graph::{Dist, GraphDelta, LabelId, LabeledGraph, NodeId};
use ktpm_query::{QNodeId, QueryLabel, ResolvedQuery, TreeQuery};
use ktpm_runtime::{label_pairs, RuntimeGraph};
use ktpm_storage::{
    write_store, write_store_sharded, ClosureSource, DeltaReport, EdgeCursor, IoSnapshot,
    LiveStore, MemStore, PagedStore, ShardSpec, ShardedStore, SharedSource, StorageError,
};
use ktpm_workload::{generate, query_set, GraphSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ktpm-label-pairs-{}-{name}", std::process::id()));
    p
}

/// A skewed citation graph: rare labels leave some label pairs empty,
/// so concrete edges hit both present and absent pairs.
fn workload_graph() -> LabeledGraph {
    generate(&GraphSpec {
        labels: 24,
        ..GraphSpec::citation(300, 5)
    })
}

/// Delegates to `inner`, counting the label-pair calls.
struct Counting {
    inner: SharedSource,
    pair_keys: AtomicUsize,
    contains_pair: AtomicUsize,
}

impl Counting {
    fn new(inner: SharedSource) -> Arc<Self> {
        Arc::new(Counting {
            inner,
            pair_keys: AtomicUsize::new(0),
            contains_pair: AtomicUsize::new(0),
        })
    }
}

impl ClosureSource for Counting {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn node_label(&self, v: NodeId) -> LabelId {
        self.inner.node_label(v)
    }
    fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        self.pair_keys.fetch_add(1, Ordering::Relaxed);
        self.inner.pair_keys()
    }
    fn contains_pair(&self, a: LabelId, b: LabelId) -> bool {
        self.contains_pair.fetch_add(1, Ordering::Relaxed);
        self.inner.contains_pair(a, b)
    }
    fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        self.inner.load_d(a, b)
    }
    fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        self.inner.load_e(a, b)
    }
    fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        self.inner.load_pair(a, b)
    }
    fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        self.inner.incoming_cursor(a, v)
    }
    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        self.inner.lookup_dist(u, v)
    }
    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
    fn reset_io(&self) {
        self.inner.reset_io()
    }
    fn graph_version(&self) -> u64 {
        self.inner.graph_version()
    }
    fn apply_delta(&self, delta: &GraphDelta) -> Result<DeltaReport, StorageError> {
        self.inner.apply_delta(delta)
    }
    fn take_error(&self) -> Option<StorageError> {
        self.inner.take_error()
    }
}

/// Draws the top 50 of a cold Topk-EN stream over `source`.
fn topk_en(q: &ResolvedQuery, source: SharedSource) -> Vec<ScoredMatch> {
    let plan = QueryPlan::new(q.clone(), source);
    let mut stream = build_stream(
        Algo::TopkEn,
        &plan,
        &ParallelPolicy::default(),
        ktpm_exec::default_pool(),
    );
    let mut out = Vec::new();
    stream.next_batch(50, &mut out);
    out
}

#[test]
fn concrete_label_setup_never_lists_pair_keys() {
    let g = workload_graph();
    let tables = ClosureTables::compute(&g);
    let path = temp_path("counting.v3");
    write_store(&tables, &path).unwrap();
    let mem = MemStore::new(tables).into_shared();
    let queries = query_set(&g, 8, 10, true, 0x5EED);
    assert!(!queries.is_empty());
    for q in &queries {
        let q = q.resolve(g.interner());
        assert!(q
            .tree()
            .node_ids()
            .all(|u| matches!(q.label(u), QueryLabel::Label(_))));
        let paged = Counting::new(PagedStore::open(&path).unwrap().into_shared());
        assert_eq!(
            topk_en(&q, paged.clone()),
            topk_en(&q, Arc::clone(&mem)),
            "Topk-EN over the counted paged store"
        );
        assert_eq!(paged.pair_keys.load(Ordering::Relaxed), 0, "Topk-EN");
        assert!(paged.contains_pair.load(Ordering::Relaxed) >= q.len() - 1);

        let counted = Counting::new(PagedStore::open(&path).unwrap().into_shared());
        let rg = RuntimeGraph::load(&q, counted.as_ref());
        assert_eq!(rg.stats(), RuntimeGraph::load(&q, mem.as_ref()).stats());
        assert_eq!(
            counted.pair_keys.load(Ordering::Relaxed),
            0,
            "RuntimeGraph::load"
        );
    }
    // The counter does see the scan a wildcard end still needs.
    let star = TreeQuery::parse("L0 -> *#1").unwrap().resolve(g.interner());
    let counted = Counting::new(PagedStore::open(&path).unwrap().into_shared());
    RuntimeGraph::load(&star, counted.as_ref());
    assert!(counted.pair_keys.load(Ordering::Relaxed) > 0);
    std::fs::remove_file(&path).ok();
}

/// The definition `label_pairs` must keep: every stored pair whose
/// ends match the edge's label requirements, ascending.
fn filtered_pairs(
    q: &ResolvedQuery,
    source: &dyn ClosureSource,
    p: QNodeId,
    u: QNodeId,
) -> Vec<(LabelId, LabelId)> {
    let ok = |l: QueryLabel, x: LabelId| match l {
        QueryLabel::Label(l) => l == x,
        QueryLabel::Wildcard => true,
        QueryLabel::Unmatchable => false,
    };
    source
        .pair_keys()
        .into_iter()
        .filter(|&(a, b)| ok(q.label(p), a) && ok(q.label(u), b))
        .collect()
}

#[test]
fn label_pairs_equals_the_pair_key_filter_on_every_backend() {
    let g = workload_graph();
    let tables = ClosureTables::compute(&g);
    let path = temp_path("equiv.v3");
    write_store(&tables, &path).unwrap();
    let dir = temp_path("equiv-sharded");
    std::fs::remove_dir_all(&dir).ok();
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 3), 16).unwrap();
    let stores: Vec<(&str, SharedSource)> = vec![
        ("mem", MemStore::new(tables).into_shared()),
        ("paged", PagedStore::open(&path).unwrap().into_shared()),
        (
            "sharded",
            ShardedStore::open(&dir.join("MANIFEST"))
                .unwrap()
                .into_shared(),
        ),
        ("live", LiveStore::new(g.clone()).into_shared()),
    ];
    let names: Vec<&str> = g.interner().iter().map(|(_, n)| n).collect();
    let mut texts: Vec<String> = Vec::new();
    for a in &names {
        for b in &names {
            texts.push(format!("{a}#1 -> {b}#2"));
        }
        texts.push(format!("{a} -> *#1"));
        texts.push(format!("*#1 -> {a}"));
        texts.push(format!("{a} -> nosuchlabel"));
        texts.push(format!("nosuchlabel -> {a}"));
    }
    texts.push("*#1 -> *#2".into());
    texts.push("nosuchlabel -> *#1".into());
    let (mut present, mut absent) = (0, 0);
    for (name, store) in &stores {
        for text in &texts {
            let q = TreeQuery::parse(text).unwrap().resolve(g.interner());
            let got = label_pairs(&q, store.as_ref(), QNodeId(0), QNodeId(1));
            assert_eq!(
                got,
                filtered_pairs(&q, store.as_ref(), QNodeId(0), QNodeId(1)),
                "{name}: {text}"
            );
            if matches!(
                (q.label(QNodeId(0)), q.label(QNodeId(1))),
                (QueryLabel::Label(_), QueryLabel::Label(_))
            ) {
                if got.is_empty() {
                    absent += 1;
                } else {
                    present += 1;
                }
            }
        }
    }
    assert!(
        present > 0 && absent > 0,
        "{present} present, {absent} absent"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}
