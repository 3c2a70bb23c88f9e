//! # ktpm-bench
//!
//! The experiment harness behind `cargo run --release -p ktpm-bench --bin
//! experiments` and the criterion benches: dataset preparation (with an
//! on-disk closure cache under `target/ktpm-data/`), query-set
//! generation, and one measurement routine per algorithm. Every table
//! and figure of the paper's §6 maps to a function here; the
//! `experiments` binary prints them in the paper's layout.

#[cfg(feature = "count-allocs")]
mod counting_alloc {
    //! A counting wrapper around the system allocator: every `alloc`
    //! and `realloc` bumps one relaxed atomic. The smoke harness diffs
    //! the counter around enumeration loops to report allocations/op —
    //! the metric the arena-backed deviation encoding is gated on.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub(crate) struct CountingAlloc;

    // SAFETY: delegates verbatim to `System`; the counter has no effect
    // on allocation behavior.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// Heap allocation events (alloc + realloc) since process start.
/// Always 0 when the `count-allocs` feature is off.
pub fn alloc_count() -> u64 {
    #[cfg(feature = "count-allocs")]
    {
        counting_alloc::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        0
    }
}

use ktpm_closure::ClosureTables;
use ktpm_core::{build_stream, MatchStream, ParallelPolicy, QueryPlan};
use ktpm_exec::WorkerPool;
use ktpm_graph::LabeledGraph;
use ktpm_query::ResolvedQuery;
use ktpm_runtime::RuntimeGraph;
use ktpm_storage::{open_store_auto, write_store, MemStore, SharedSource};
use ktpm_workload::{generate, query_set, GraphSpec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The engine registry the harness measures — the same [`Algo`] the
/// facade, the CLI and the serving tier dispatch on. The bench crate
/// adds nothing on top: every measurement routes through the one
/// [`build_stream`] entry point.
pub use ktpm_core::Algo;

/// The four systems of Figure 6, in the paper's legend order.
pub const FIG6: [Algo; 4] = [Algo::DpB, Algo::DpP, Algo::Topk, Algo::TopkEn];

/// Display name as used in the paper's figures (the registry's
/// [`Algo::name`] is the wire/CLI spelling).
pub fn paper_name(algo: Algo) -> &'static str {
    match algo {
        Algo::DpB => "DP-B",
        Algo::DpP => "DP-P",
        Algo::Topk => "Topk",
        Algo::TopkEn => "Topk-EN",
        Algo::Par => "Par-Topk",
        Algo::Brute => "Brute",
        Algo::Kgpm => "kGPM",
    }
}

/// A prepared dataset: graph + on-disk closure store + offline stats.
pub struct Dataset {
    /// Family name (`GD3`, `GS1`, ...).
    pub name: String,
    /// The data graph.
    pub graph: LabeledGraph,
    /// The opened on-disk closure store, behind a shared handle so
    /// parallel runs can clone it per shard.
    pub store: SharedSource,
    /// Closure computation wall time (seconds); 0 when served from cache.
    pub closure_secs: f64,
    /// Closure edge count.
    pub closure_edges: usize,
    /// Size of the store file in bytes.
    pub file_bytes: u64,
    /// Path of the store file, so benchmarks can re-open it with
    /// explicit backends or cache budgets (cold/warm paged-store runs).
    pub path: PathBuf,
}

impl Dataset {
    /// Opens the store file again: a handle of its own, with an empty
    /// block cache and zeroed I/O counters, so a run over it is charged
    /// with exactly the reads it makes.
    pub fn open_fresh(&self) -> SharedSource {
        open_store_auto(&self.path, None).expect("re-open closure store")
    }
}

fn cache_dir() -> PathBuf {
    let mut p = std::env::current_dir().expect("cwd");
    // Walk up to the workspace root if invoked from a member dir.
    while !p.join("Cargo.toml").exists() && p.pop() {}
    p.push("target");
    p.push("ktpm-data");
    std::fs::create_dir_all(&p).expect("create cache dir");
    p
}

/// Prepares (or re-opens from cache) the dataset for `spec`. The cache
/// key fingerprints every generator parameter so preset changes
/// invalidate stale closures.
pub fn prepare_dataset(name: &str, spec: &GraphSpec) -> Dataset {
    let graph = generate(spec);
    let fingerprint = format!(
        "{}-{}-{}-{}-{}-{}-{}-{}-{}",
        spec.nodes,
        spec.seed,
        spec.labels,
        (spec.label_skew * 100.0) as u32,
        (spec.avg_out_degree * 100.0) as u32,
        spec.community,
        (spec.cross_fraction * 1000.0) as u32,
        spec.weight_range.0,
        spec.weight_range.1,
    );
    let mut path = cache_dir();
    // The filename carries the store format version so a checkout that
    // changes the default output format never re-opens a stale cache
    // file written in the old one (the paged-store smoke section needs
    // `path` to really be v3).
    path.push(format!("{name}-{fingerprint}-v3.tc"));
    let (closure_secs, closure_edges) = if path.exists() {
        (0.0, 0)
    } else {
        let t = Instant::now();
        let tables = ClosureTables::compute(&graph);
        let secs = t.elapsed().as_secs_f64();
        let edges = tables.num_edges();
        write_store(&tables, &path).expect("write closure store");
        (secs, edges)
    };
    let file_bytes = std::fs::metadata(&path).expect("store file").len();
    // Version-sniffing open (v3 paged with the default cache budget
    // here; the helper keeps working if the default format moves).
    let store: SharedSource = open_store_auto(&path, None).expect("open closure store");
    let closure_edges = if closure_edges == 0 {
        // Served from cache: recount cheaply from the index.
        store
            .pair_keys()
            .iter()
            .map(|&(a, b)| store.load_d(a, b).len())
            .sum::<usize>()
            .max(1) // D undercounts edges; only used for display when cached
    } else {
        closure_edges
    };
    Dataset {
        name: name.to_string(),
        graph,
        store,
        closure_secs,
        closure_edges,
        file_bytes,
        path,
    }
}

/// Forces a fresh closure computation (Table 2 timing), without cache.
pub fn closure_cost(spec: &GraphSpec) -> (f64, ktpm_closure::ClosureStats) {
    let graph = generate(spec);
    let t = Instant::now();
    let tables = ClosureTables::compute(&graph);
    (t.elapsed().as_secs_f64(), tables.stats())
}

/// Resolved query set of `count` trees with `size` nodes.
pub fn queries_for(ds: &Dataset, size: usize, count: usize, distinct: bool) -> Vec<ResolvedQuery> {
    query_set(&ds.graph, size, count, distinct, 0xBEEF + size as u64)
        .into_iter()
        .map(|q| q.resolve(ds.graph.interner()))
        .collect()
}

/// A match-dense `root -> *#1, ..., *#fanout` wildcard star (the §5
/// general-twig workload). Wildcard children multiply the branching
/// under every root candidate, so total matches grow combinatorially
/// while the run-time graph stays linear in the root label's tables —
/// the large-k regime where enumeration dominates loading, which is
/// exactly what partitioned execution parallelizes. Returns `None` if
/// the label does not occur in the dataset.
pub fn wildcard_star(ds: &Dataset, root_label: &str, fanout: usize) -> Option<ResolvedQuery> {
    ds.graph.interner().get(root_label)?;
    let text: String = (1..=fanout)
        .map(|i| format!("{root_label} -> *#{i}\n"))
        .collect();
    ktpm_query::TreeQuery::parse(&text)
        .ok()
        .map(|q| q.resolve(ds.graph.interner()))
}

/// One algorithm measurement over a single query.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measurement {
    /// Wall time to produce the top-1 match (including loading), seconds.
    pub top1_secs: f64,
    /// Wall time for the remaining k-1 matches, seconds.
    pub enum_secs: f64,
    /// Closure edges read from storage.
    pub edges_loaded: u64,
    /// Bytes read from storage.
    pub bytes_read: u64,
    /// Matches actually produced (may be < k).
    pub produced: usize,
}

impl Measurement {
    /// Total wall time.
    pub fn total_secs(&self) -> f64 {
        self.top1_secs + self.enum_secs
    }
}

/// Measures one facade stream over `store` — the same execution path
/// `ktpm::api`, `ktpm query` and serving sessions run: a cold plan, the
/// engine selected by [`Algo`] through the single [`build_stream`]
/// dispatch, top-1 in one pull, and the remaining `k-1` matches in ONE
/// batched `next_batch` call (the shape a `NEXT <s> k` serves). The
/// store's I/O counters are reset, but not its block cache: pass a
/// [`Dataset::open_fresh`] store to charge the run with all its reads.
pub fn run_stream(
    store: &SharedSource,
    query: &ResolvedQuery,
    k: usize,
    algo: Algo,
    policy: &ParallelPolicy,
    pool: &Arc<WorkerPool>,
) -> Measurement {
    let plan = QueryPlan::new(query.clone(), Arc::clone(store));
    run_plan_stream(store, &plan, k, algo, policy, pool)
}

/// As [`run_stream`], but over a pre-built plan — the warm-open shape,
/// where the plan half (candidate discovery, or a pattern's
/// decomposition and lower bounds) is amortized across opens and only
/// the stream half is on the clock. `store` must be the source the
/// plan was built over (its I/O counters are reset and read).
pub fn run_plan_stream(
    store: &SharedSource,
    plan: &QueryPlan,
    k: usize,
    algo: Algo,
    policy: &ParallelPolicy,
    pool: &Arc<WorkerPool>,
) -> Measurement {
    store.reset_io();
    let mut m = Measurement::default();
    let t0 = Instant::now();
    let mut it = build_stream(algo, plan, policy, Arc::clone(pool));
    let first = MatchStream::next(&mut *it);
    m.top1_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut rest = Vec::new();
    if first.is_some() {
        it.next_batch(k.saturating_sub(1), &mut rest);
    }
    m.produced = usize::from(first.is_some()) + rest.len();
    m.enum_secs = t1.elapsed().as_secs_f64();
    let io = store.io();
    m.edges_loaded = io.edges_read;
    m.bytes_read = io.bytes_read;
    m
}

/// Runs `algo` for the top-`k` matches of `query`, measuring phases
/// and I/O against the dataset's disk store. Every engine — the DP
/// baselines included — goes through the facade stream
/// ([`run_stream`]); there is no per-algorithm constructor dispatch
/// left in the harness.
pub fn run_algo(ds: &Dataset, query: &ResolvedQuery, k: usize, algo: Algo) -> Measurement {
    run_stream(
        &ds.store,
        query,
        k,
        algo,
        &ParallelPolicy::default(),
        &ktpm_exec::default_pool(),
    )
}

/// A graph-attached in-memory source over the dataset's graph: what
/// kGPM pattern plans need (the undirected mirror is derived from the
/// attached graph; the on-disk [`Dataset::store`] is closure-only).
/// Recomputes the closure, so reserve it for kGPM-sized graphs.
pub fn pattern_store(ds: &Dataset) -> SharedSource {
    MemStore::new(ClosureTables::compute(&ds.graph))
        .with_graph(ds.graph.clone())
        .into_shared()
}

/// Runs `ParTopk` with `shards` shards for the top-`k` matches of
/// `query` on `pool` — [`run_stream`] with [`ktpm_core::Algo::Par`].
/// With `shards == 1` this is the sequential canonical-order baseline
/// the speedup figures compare against.
pub fn run_par(
    ds: &Dataset,
    query: &ResolvedQuery,
    k: usize,
    shards: usize,
    pool: &Arc<WorkerPool>,
) -> Measurement {
    run_stream(
        &ds.store,
        query,
        k,
        ktpm_core::Algo::Par,
        &ParallelPolicy::with_shards(shards),
        pool,
    )
}

/// Averages [`run_par`] over a query set (same shape as
/// [`run_algo_avg`], including the warm-up run and the fresh store).
pub fn run_par_avg(
    ds: &Dataset,
    queries: &[ResolvedQuery],
    k: usize,
    shards: usize,
    pool: &Arc<WorkerPool>,
) -> Measurement {
    let policy = ParallelPolicy::with_shards(shards);
    run_fresh_avg(ds, queries, k, Algo::Par, &policy, pool)
}

/// Averages [`run_algo`] over a query set.
pub fn run_algo_avg(ds: &Dataset, queries: &[ResolvedQuery], k: usize, algo: Algo) -> Measurement {
    let pool = ktpm_exec::default_pool();
    run_fresh_avg(ds, queries, k, algo, &ParallelPolicy::default(), &pool)
}

/// Averages [`run_stream`] over a query set, every measured run of the
/// call on one [`Dataset::open_fresh`] store: a call is charged with
/// its own reads, never warmed by (or warming) another call's block
/// cache. One k=1 warm-up run (page cache / allocator, so the first k
/// doesn't pay setup) goes first, on a store of its own, so it does
/// not fill the measured store's block cache either.
fn run_fresh_avg(
    ds: &Dataset,
    queries: &[ResolvedQuery],
    k: usize,
    algo: Algo,
    policy: &ParallelPolicy,
    pool: &Arc<WorkerPool>,
) -> Measurement {
    let mut acc = Measurement::default();
    if queries.is_empty() {
        return acc;
    }
    let _ = run_stream(&ds.open_fresh(), &queries[0], 1, algo, policy, pool);
    let store = ds.open_fresh();
    for q in queries {
        let m = run_stream(&store, q, k, algo, policy, pool);
        acc.top1_secs += m.top1_secs;
        acc.enum_secs += m.enum_secs;
        acc.edges_loaded += m.edges_loaded;
        acc.bytes_read += m.bytes_read;
        acc.produced += m.produced;
    }
    let n = queries.len() as f64;
    acc.top1_secs /= n;
    acc.enum_secs /= n;
    acc.edges_loaded = (acc.edges_loaded as f64 / n) as u64;
    acc.bytes_read = (acc.bytes_read as f64 / n) as u64;
    acc.produced /= queries.len();
    acc
}

/// Average run-time graph sizes over a query set (Table 3).
pub fn runtime_graph_sizes(ds: &Dataset, queries: &[ResolvedQuery]) -> (f64, f64) {
    if queries.is_empty() {
        return (0.0, 0.0);
    }
    let (mut nodes, mut edges) = (0usize, 0usize);
    for q in queries {
        let rg = RuntimeGraph::load(q, ds.store.as_ref());
        let s = rg.stats();
        nodes += s.nodes;
        edges += s.edges;
    }
    (
        nodes as f64 / queries.len() as f64,
        edges as f64 / queries.len() as f64,
    )
}

/// Pretty-prints seconds with a stable unit.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_core::{TopkEnEnumerator, TopkEnumerator};

    #[test]
    fn prepare_and_measure_smoke() {
        let ds = prepare_dataset("SMOKE", &GraphSpec::citation(400, 123));
        assert!(ds.file_bytes > 0);
        let queries = queries_for(&ds, 6, 3, true);
        assert!(!queries.is_empty());
        // Every tree-capable registry engine runs through the one
        // facade path; kGPM needs a pattern plan (covered below).
        for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Kgpm) {
            let m = run_algo_avg(&ds, &queries, 5, algo);
            assert!(m.produced >= 1, "{algo:?} produced nothing");
        }
        let (n, e) = runtime_graph_sizes(&ds, &queries);
        assert!(n > 0.0 && e > 0.0);
    }

    #[test]
    fn fresh_stores_charge_each_run_with_its_own_reads() {
        let ds = prepare_dataset("SMOKE", &GraphSpec::citation(400, 123));
        let queries = queries_for(&ds, 6, 3, true);
        let q = &queries[0];
        let (policy, pool) = (ParallelPolicy::default(), ktpm_exec::default_pool());
        for algo in [Algo::DpB, Algo::TopkEn] {
            let first = run_stream(&ds.open_fresh(), q, 10, algo, &policy, &pool);
            let second = run_stream(&ds.open_fresh(), q, 10, algo, &policy, &pool);
            assert!(first.bytes_read > 0, "{algo:?} read nothing");
            assert_eq!(first.bytes_read, second.bytes_read, "{algo:?}");
            assert_eq!(first.edges_loaded, second.edges_loaded, "{algo:?}");
            // The averaging drivers open a fresh store per call too, so
            // a second call is not served by the first one's cache.
            let first = run_algo_avg(&ds, &queries, 10, algo);
            let second = run_algo_avg(&ds, &queries, 10, algo);
            assert!(first.bytes_read > 0, "{algo:?} read nothing");
            assert_eq!(first.bytes_read, second.bytes_read, "{algo:?}");
            assert_eq!(first.edges_loaded, second.edges_loaded, "{algo:?}");
        }
        // The k=1 warm-up runs on a store of its own: a one-query call
        // still pays for that query's reads.
        let one = run_algo_avg(&ds, &queries[..1], 10, Algo::DpB);
        assert!(one.bytes_read > 0, "the warm-up pre-read the measured run");
    }

    #[test]
    fn kgpm_measures_over_a_pattern_plan() {
        let ds = prepare_dataset("SMOKE", &GraphSpec::citation(400, 123));
        let store = pattern_store(&ds);
        let ug = ktpm_graph::undirect(&ds.graph);
        let q = ktpm_workload::random_graph_query(&ug, 4, 1, 11).expect("pattern extraction");
        let plan = QueryPlan::new_pattern(q, ds.graph.interner(), &store)
            .expect("graph-attached store supports pattern plans");
        let pool = ktpm_exec::default_pool();
        let seq = run_plan_stream(
            &store,
            &plan,
            8,
            Algo::Kgpm,
            &ParallelPolicy::default(),
            &pool,
        );
        assert!(seq.produced >= 1, "kGPM produced nothing");
        // Sharding must not change what the stream yields.
        let sharded = run_plan_stream(
            &store,
            &plan,
            8,
            Algo::Kgpm,
            &ParallelPolicy::with_shards(3),
            &pool,
        );
        assert_eq!(sharded.produced, seq.produced);
    }

    #[test]
    fn algorithms_agree_on_prepared_dataset() {
        let ds = prepare_dataset("SMOKE2", &GraphSpec::power_law(400, 5));
        let queries = queries_for(&ds, 5, 3, true);
        for q in &queries {
            let rg = RuntimeGraph::load(q, ds.store.as_ref());
            let a: Vec<_> = TopkEnumerator::new(&rg).take(10).map(|m| m.score).collect();
            let b: Vec<_> = TopkEnEnumerator::new(q, ds.store.as_ref())
                .take(10)
                .map(|m| m.score)
                .collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn par_topk_agrees_with_sequential_on_prepared_dataset() {
        let ds = prepare_dataset("SMOKE2", &GraphSpec::power_law(400, 5));
        let queries = queries_for(&ds, 5, 2, true);
        let pool = ktpm_exec::default_pool();
        for q in &queries {
            let want = ktpm_core::topk_full(q, ds.store.as_ref(), 25);
            for shards in [1usize, 2, 4] {
                let m = run_par(&ds, q, 25, shards, &pool);
                assert_eq!(m.produced, want.len().min(25), "shards {shards}");
                let got = ktpm_core::par_topk(
                    q,
                    Arc::clone(&ds.store),
                    25,
                    &ParallelPolicy::with_shards(shards),
                    Arc::clone(&pool),
                );
                assert_eq!(got, want, "shards {shards}");
            }
        }
    }

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(0.0000025), "2.5µs");
    }
}
