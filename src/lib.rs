//! # ktpm — Optimal Enumeration: Efficient Top-k Tree Matching
//!
//! A Rust implementation of Chang, Lin, Zhang, Yu, Zhang & Qin,
//! *"Optimal Enumeration: Efficient Top-k Tree Matching"*, PVLDB 8(5),
//! 2015 — including the optimal Lawler-based enumerator (`Topk`), the
//! priority-based `Topk-EN`, the DP-B/DP-P baselines it compares
//! against, general twig support (duplicate labels, wildcards, `/`
//! edges), and the kGPM graph-pattern extension (mtree / mtree+).
//!
//! ## Quickstart
//!
//! ```
//! use ktpm::prelude::*;
//!
//! // A node-labeled directed data graph.
//! let mut b = GraphBuilder::new();
//! let c1 = b.add_node("C");
//! let e1 = b.add_node("E");
//! let s1 = b.add_node("S");
//! b.add_edge(c1, e1, 1);
//! b.add_edge(e1, s1, 1);
//! let g = b.build().unwrap();
//!
//! // Offline: shortest-distance transitive closure, organized as
//! // label-pair tables (persist with `write_store` for real block I/O).
//! let store = MemStore::new(ClosureTables::compute(&g)).into_shared();
//!
//! // Online: top-k matches through the facade — one builder for every
//! // algorithm (Topk, Topk-EN, ParTopk, brute), one identical stream.
//! // The twig query is the paper's Figure 1: C -> E, C -> S (both `//`).
//! let exec = Executor::new(g.interner().clone(), store);
//! let matches = exec.query("C -> E\nC -> S").unwrap().k(10).topk().unwrap();
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].score, 3); // δ(C,E) + δ(C,S) = 1 + 2
//! ```
//!
//! ## One enumeration surface
//!
//! All seven engines — the four tree engines, DP-B/DP-P and the kGPM
//! graph-pattern engine — run behind one object-safe trait,
//! [`core::MatchStream`], whose primitive is **batched pull**
//! (`next_batch(n, &mut out)` — one virtual call per batch, not per
//! match); [`api::Executor`] / [`api::QueryBuilder`] are the
//! ergonomic front end, and [`core::build_stream`] +
//! the canonical [`core::Algo`] registry (with per-algorithm
//! capability flags) are the single dispatch every layer — facade,
//! serving sessions, CLI, bench drivers — goes through. Algorithm
//! choice is a performance decision only: the streams are
//! byte-identical.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`graph`] | labeled directed CSR graph, interner, fixtures |
//! | [`query`] | twig queries (`//`, `/`, `*`, duplicates), graph patterns, text format |
//! | [`closure`] | transitive closure, label-pair tables, 2-hop (PLL) index |
//! | [`storage`] | on-disk closure store, block cursors, I/O accounting |
//! | [`runtime`] | run-time graph `G_R` construction |
//! | [`core`] | **Algorithms 1–3** (`Topk`, `ComputeFirst`, `Topk-EN`) + `ParTopk`, the DP-B / DP-P baselines, the kGPM pattern engine (`KgpmStream`, pattern plans, `decompose`), the [`core::MatchStream`] surface, [`core::Algo`] registry |
//! | [`api`] | **the facade**: `Executor` / `QueryBuilder` → `Box<dyn MatchStream + Send>` (tree *and* graph-pattern queries) |
//! | [`kgpm`] | compat shim over `core`'s kGPM engine: `KgpmContext` batch API, mtree / mtree+ |
//! | [`workload`] | dataset & query generators for the §6 experiments |
//! | [`exec`] | shared worker pool scheduling shard jobs and request batches |
//! | [`service`] | concurrent query service: sessions, result cache, TCP protocol |
//! | [`net`] | event-driven TCP front end: readiness loop, pipelining, backpressure |
//!
//! ## Serving
//!
//! Beyond one-shot queries, [`service`] keeps enumeration state alive
//! across requests: open a session, pull "next k" matches repeatedly
//! (resuming is free — the `Topk`/`Topk-EN` iterators are parked
//! between calls), and let hot queries hit the LRU result cache. Query
//! *setup* is amortized too: a cross-session plan cache of
//! [`core::QueryPlan`]s (candidate discovery + run-time graph + `bs` +
//! slot templates, keyed by canonical query text, shared by every
//! algorithm) makes a warm `OPEN` pay zero candidate-discovery work.
//! See `ktpm serve` (the TCP front end) and `examples/service_embed.rs`
//! (the in-process API).
//!
//! Two interchangeable TCP front ends speak the same wire protocol over
//! the same engine: the legacy thread-per-connection
//! [`service::Server`], and the [`net::EventServer`] readiness loop
//! (`ktpm serve --event-loop`) — one reactor thread multiplexing every
//! connection, a fixed executor pool, pipelined requests answered in
//! order, and bounded per-connection queues that shed overload with
//! `ERR overloaded` instead of queueing without limit. Parked sessions
//! hold no thread on either path; on the event loop, parked
//! *connections* don't either.
//!
//! ## Parallel execution
//!
//! `ParTopk` ([`core::parallel`]) splits a query's root-candidate set
//! into `P` disjoint shards ([`storage::ShardSpec`], node-id stride),
//! runs an independent sequential enumerator per shard on an
//! [`exec::WorkerPool`], and lazily k-way-merges the shard streams.
//! Every match has exactly one root, so shards partition the match
//! universe; each stream is put into the workspace's **canonical
//! order** (ascending `(score, assignment)` — [`core::partition`]),
//! and a `(score, assignment)`-keyed merge of disjoint canonical
//! streams is itself canonical. Hence `ParTopk` output is
//! byte-identical to [`core::topk_full`] for *every* shard count —
//! order, scores and witnesses. Exposed end to end: `--algo par` /
//! `--parallel N` in `ktpm query`, `OPEN par …` sessions in
//! `ktpm serve` (policy in `ServiceConfig::parallel`), and the
//! `bench-smoke` CI job's `BENCH_parallel.json` perf trajectory.

pub mod api;

pub use ktpm_closure as closure;
pub use ktpm_core as core;
pub use ktpm_exec as exec;
pub use ktpm_graph as graph;
pub use ktpm_kgpm as kgpm;
pub use ktpm_net as net;
pub use ktpm_query as query;
pub use ktpm_runtime as runtime;
pub use ktpm_service as service;
pub use ktpm_storage as storage;
pub use ktpm_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::api::{ApiError, Executor, QueryBuilder};
    pub use ktpm_closure::{sssp, ClosureTables};
    pub use ktpm_core::{
        build_stream, canonical, canonical_query_text, decompose, limit, par_topk, topk_en,
        topk_full, Algo, AlgoCaps, BoundMode, BoxedMatchStream, DpBEnumerator, DpPEnumerator,
        MatchStream, ParTopk, ParallelPolicy, PatternUnsupported, QueryPlan, ScoredMatch,
        ShardEngine, ShardSpec, SpanningTree, StreamState, TopkEnEnumerator, TopkEnumerator,
    };
    pub use ktpm_exec::WorkerPool;
    pub use ktpm_graph::{
        Dist, GraphBuilder, GraphDelta, LabelId, LabeledGraph, NodeId, NodeRow, Score, INF_DIST,
        INF_SCORE,
    };
    pub use ktpm_kgpm::{GraphMatch, KgpmContext, KgpmStats, KgpmStream, TreeMatcher};
    pub use ktpm_net::{BlockServer, EventServer, NetConfig};
    pub use ktpm_query::{
        EdgeKind, GraphQuery, QNodeId, ResolvedQuery, TreeQuery, TreeQueryBuilder,
    };
    pub use ktpm_runtime::RuntimeGraph;
    pub use ktpm_service::{
        InvalidationPolicy, NextBatch, PlanCache, QueryEngine, Server, ServiceConfig,
        ServiceHandle, SessionId, UpdateReport, WarmReport,
    };
    pub use ktpm_storage::{
        open_store_auto, open_store_uri, write_store, write_store_sharded, write_store_v3,
        ClosureSource, DeltaReport, IoSnapshot, LiveStore, Manifest, MemStore, OnDemandStore,
        PagedStore, RemoteStore, ShardedStore, SharedSource, StorageError,
        DEFAULT_BLOCK_CACHE_BYTES, DEFAULT_BLOCK_EDGES,
    };
    pub use ktpm_workload::{generate, query_set, random_tree_query, GraphSpec, QuerySpec};
}
