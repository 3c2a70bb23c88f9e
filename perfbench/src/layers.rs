//! Per-layer metrics for the traced run (`--trace 1`).
//!
//! Each layer is measured by timing direct calls into its crate's public
//! functions, inside spans, over the workload's own dataset and queries.
//! The storage counters come from the workload's own requests.

use crate::cold::Load;
use crate::data::{self, Dataset};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{alloc_count, wire, Report};
use ktpm_core::{build_stream, Algo, MatchStream, ParallelPolicy, QueryPlan};
use ktpm_exec::WorkerPool;
use ktpm_graph::LabelId;
use ktpm_query::{QueryLabel, ResolvedQuery};
use ktpm_service::{QueryEngine, ServiceConfig, ServiceHandle};
use ktpm_storage::{IoSnapshot, LiveStore, MemStore, PagedStore, SharedSource};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric a traced run prints, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 55] = [
    "storage.open_ms",
    "storage.load_d_us",
    "storage.load_e_us",
    "storage.bytes_read_per_req",
    "storage.block_reads_per_req",
    "storage.edges_read_per_req",
    "storage.d_entries_per_req",
    "storage.e_entries_per_req",
    "storage.cache_hit_ratio",
    "storage.cache_evictions",
    "query.parse_us",
    "runtime.discover_ms",
    "runtime.rg_load_ms",
    "runtime.rg_edges",
    "core.build_stream_ms",
    "core.first_match_ms",
    "core.delay_ns_per_match",
    "core.allocs_per_match",
    "core.edges_per_match",
    "core.ref.topk_ms",
    "core.ref.topk_edges",
    "core.ref.topk_bytes",
    "core.ref.dpb_ms",
    "core.ref.dpb_edges",
    "core.ref.dpb_bytes",
    "core.ref.dpp_ms",
    "core.ref.dpp_edges",
    "core.ref.dpp_bytes",
    "exec.pool_run_us",
    "service.open_us",
    "service.next_us",
    "service.close_us",
    "service.plan_hit_ratio",
    "service.result_hit_ratio",
    "service.apply_delta_ms",
    "service.plans_invalidated_per_update",
    "service.sessions_fenced",
    "net.wire_us",
    "net.sheds",
    "net.protocol_errors",
    "net.gen_lag_ms",
    "closure.compute_s",
    "closure.repair_ms",
    "graph.apply_delta_us",
    "self.bench_ms",
    "self.storage_ms",
    "self.query_ms",
    "self.runtime_ms",
    "self.core_ms",
    "self.exec_ms",
    "self.service_ms",
    "self.net_ms",
    "self.closure_ms",
    "self.graph_ms",
    "trace.overhead_p50_pct",
];

/// Layers with a self-time metric, in span-name prefix form.
const LAYERS: [&str; 10] = [
    "bench", "storage", "query", "runtime", "core", "exec", "service", "net", "closure", "graph",
];

/// Updates applied by the update probe.
const PROBE_UPDATES: usize = 4;
/// Requests of the service and wire probe, at most, and the time budget
/// in seconds of its warm-up pass (cold-t20's requests are slow to warm).
const REPLAY: usize = 200;
const REPLAY_S: f64 = 2.0;
/// Rounds of the service and wire probe after its warm-up.
const ROUNDS: usize = 4;
/// The wire probe's offered rate, requests per second.
const WIRE_RPS: f64 = 200.0;

/// What the probes run over.
pub struct Ctx<'a> {
    pub ds: &'a Dataset,
    /// A v3 snapshot of `ds`.
    pub snapshot: &'a Path,
    /// Queries, for the storage/runtime/core probes.
    pub queries: &'a [ResolvedQuery],
    /// Query texts in request order, for the query/service/net probes.
    pub texts: &'a [String],
    /// Matches per request of the workload.
    pub k: usize,
    pub seed: u64,
    /// Median `ClosureTables::compute` seconds over the set-ups.
    pub closure_s: f64,
    /// The oracle's in-memory store of the same closure.
    pub mem: &'a MemStore,
}

fn cold(path: &Path) -> SharedSource {
    PagedStore::open(path)
        .expect("open the snapshot")
        .into_shared()
}

/// Tracing overhead: the traced segments' p50 against the untraced ones'.
pub fn overhead(r: &mut Report, load: &Load) {
    let u = median(&load.untraced.col(|s| s.latency_ms));
    let t = median(&load.traced.col(|s| s.latency_ms));
    r.layer("trace.overhead_p50_pct", (t - u) / u * 100.0, "%");
}

/// Storage counters averaged over per-request I/O snapshots.
pub fn storage_counters(r: &mut Report, per_req: &[IoSnapshot]) {
    let mut sum = IoSnapshot::default();
    for io in per_req {
        sum.bytes_read += io.bytes_read;
        sum.block_reads += io.block_reads;
        sum.edges_read += io.edges_read;
        sum.d_entries += io.d_entries;
        sum.e_entries += io.e_entries;
        sum.cache_hits += io.cache_hits;
        sum.cache_misses += io.cache_misses;
        sum.cache_evictions += io.cache_evictions;
    }
    let (io, requests) = (sum, per_req.len().max(1) as f64);
    r.layer(
        "storage.bytes_read_per_req",
        io.bytes_read as f64 / requests,
        "B",
    );
    r.layer(
        "storage.block_reads_per_req",
        io.block_reads as f64 / requests,
        "count",
    );
    r.layer(
        "storage.edges_read_per_req",
        io.edges_read as f64 / requests,
        "count",
    );
    r.layer(
        "storage.d_entries_per_req",
        io.d_entries as f64 / requests,
        "count",
    );
    r.layer(
        "storage.e_entries_per_req",
        io.e_entries as f64 / requests,
        "count",
    );
    let lookups = (io.cache_hits + io.cache_misses).max(1) as f64;
    r.layer(
        "storage.cache_hit_ratio",
        io.cache_hits as f64 / lookups,
        "ratio",
    );
    r.layer(
        "storage.cache_evictions",
        io.cache_evictions as f64,
        "count",
    );
}

/// Self time per layer over every recorded span.
pub fn self_times(r: &mut Report, t: &Tracer) {
    let by_layer = trace::self_time_by_layer(t.spans());
    for l in LAYERS {
        let ns = by_layer.get(l).copied().unwrap_or(0);
        r.layer(&format!("self.{l}_ms"), ns as f64 / 1e6, "ms");
    }
}

/// Label pairs the queries' edges read: the edge's own pair, or every
/// stored pair on a wildcard's side.
fn label_pairs(
    queries: &[ResolvedQuery],
    stored: &[(LabelId, LabelId)],
) -> Vec<(LabelId, LabelId)> {
    let mut pairs = Vec::new();
    for q in queries {
        for (p, c, _) in q.tree().edges() {
            let matches = |l: QueryLabel, x: LabelId| match l {
                QueryLabel::Label(a) => a == x,
                _ => true,
            };
            for &(a, b) in stored {
                if matches(q.label(p), a) && matches(q.label(c), b) && !pairs.contains(&(a, b)) {
                    pairs.push((a, b));
                }
            }
        }
    }
    pairs
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn storage_probe(r: &mut Report, t: &mut Tracer, ctx: &Ctx) {
    let mut open = Vec::new();
    for _ in 0..20 {
        let s = Instant::now();
        drop(t.span("storage.open", |_| cold(ctx.snapshot)));
        open.push(ms(s));
    }
    r.layer("storage.open_ms", median(&open), "ms");
    let pairs = label_pairs(ctx.queries, &cold(ctx.snapshot).pair_keys());
    let (mut d, mut e) = (Vec::new(), Vec::new());
    for &(a, b) in pairs.iter().take(64) {
        let store = cold(ctx.snapshot);
        let s = Instant::now();
        t.span("storage.load_d", |_| store.load_d(a, b));
        d.push(ms(s) * 1e3);
        let store = cold(ctx.snapshot);
        let s = Instant::now();
        t.span("storage.load_e", |_| store.load_e(a, b));
        e.push(ms(s) * 1e3);
    }
    r.layer("storage.load_d_us", median(&d), "us");
    r.layer("storage.load_e_us", median(&e), "us");
}

fn query_probe(r: &mut Report, t: &mut Tracer, ctx: &Ctx) {
    let interner = ctx.ds.graph.interner();
    let mut us = Vec::new();
    for text in ctx.texts.iter().take(REPLAY) {
        let s = Instant::now();
        t.span("query.parse", |_| {
            ktpm_query::TreeQuery::parse(text)
                .expect("workload text parses")
                .resolve(interner)
        });
        us.push(ms(s) * 1e3);
    }
    r.layer("query.parse_us", median(&us), "us");
}

fn runtime_probe(r: &mut Report, t: &mut Tracer, ctx: &Ctx, n: usize) {
    let (mut disc, mut load, mut edges) = (Vec::new(), Vec::new(), Vec::new());
    for q in ctx.queries.iter().take(n) {
        let store = cold(ctx.snapshot);
        let s = Instant::now();
        t.span("runtime.discover", |_| {
            ktpm_runtime::CandidateSets::from_d_tables(q, store.as_ref())
        });
        disc.push(ms(s));
        let store = cold(ctx.snapshot);
        let s = Instant::now();
        let rg = t.span("runtime.rg_load", |_| {
            ktpm_runtime::RuntimeGraph::load(q, store.as_ref())
        });
        load.push(ms(s));
        edges.push(rg.stats().edges as f64);
    }
    r.layer("runtime.discover_ms", median(&disc), "ms");
    r.layer("runtime.rg_load_ms", median(&load), "ms");
    r.layer("runtime.rg_edges", median(&edges), "count");
}

/// One engine's cold stream: `(wall ms, io, matches)`.
fn engine_run(
    t: &mut Tracer,
    ctx: &Ctx,
    q: &ResolvedQuery,
    algo: Algo,
    k: usize,
    pool: &Arc<WorkerPool>,
) -> (f64, IoSnapshot, Vec<ktpm_core::ScoredMatch>) {
    let store = cold(ctx.snapshot);
    let s = Instant::now();
    let out = t.span("core.ref", |_| {
        let plan = QueryPlan::new(q.clone(), Arc::clone(&store));
        let stream = build_stream(algo, &plan, &ParallelPolicy::default(), Arc::clone(pool));
        ktpm_core::limit(stream, k).collect::<Vec<_>>()
    });
    (ms(s), store.io(), out)
}

fn core_probe(
    r: &mut Report,
    t: &mut Tracer,
    ctx: &Ctx,
    pool: &Arc<WorkerPool>,
    n: usize,
    io_claim: bool,
) {
    let (mut build, mut first, mut delay, mut allocs, mut epm) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for q in ctx.queries.iter().take(n) {
        let store = cold(ctx.snapshot);
        let plan = QueryPlan::new(q.clone(), Arc::clone(&store));
        let s = Instant::now();
        let mut stream = t.span("core.build_stream", |_| {
            build_stream(
                Algo::TopkEn,
                &plan,
                &ParallelPolicy::default(),
                Arc::clone(pool),
            )
        });
        build.push(ms(s));
        let s = Instant::now();
        let top = t.span("core.first_match", |_| MatchStream::next(&mut *stream));
        first.push(ms(s));
        let mut out = Vec::with_capacity(ctx.k);
        out.extend(top);
        let (a0, s) = (alloc_count(), Instant::now());
        if !out.is_empty() {
            t.span("core.drain", |_| stream.next_batch(ctx.k - 1, &mut out));
        }
        let (ns, a) = (ms(s) * 1e6, alloc_count() - a0);
        let rest = out.len().saturating_sub(1).max(1) as f64;
        delay.push(ns / rest);
        allocs.push(a as f64 / rest);
        epm.push(store.io().edges_read as f64 / out.len().max(1) as f64);
    }
    r.layer("core.build_stream_ms", median(&build), "ms");
    r.layer("core.first_match_ms", median(&first), "ms");
    r.layer("core.delay_ns_per_match", median(&delay), "ns");
    r.layer("core.allocs_per_match", median(&allocs), "count");
    r.layer("core.edges_per_match", median(&epm), "count");

    // The other Figure 6 engines, each on its own fresh store, plus the
    // paper's I/O claim per query.
    let k = ctx.k.min(1000);
    let mut rows: Vec<[(f64, IoSnapshot); 4]> = Vec::new();
    for q in ctx.queries.iter().take(n) {
        let want = ktpm_core::topk_full(q, ctx.mem, k);
        let mut row = [(0.0, IoSnapshot::default()); 4];
        for (slot, algo) in [Algo::Topk, Algo::DpB, Algo::DpP, Algo::TopkEn]
            .into_iter()
            .enumerate()
        {
            let (wall, io, out) = engine_run(t, ctx, q, algo, k, pool);
            r.check(
                out == want,
                format!("{} stream differs from Topk over MemStore", algo.name()),
            );
            row[slot] = (wall, io);
        }
        if io_claim {
            let [topk, dpb, dpp, topk_en] = &row;
            r.check(
                topk_en.1.edges_read <= topk.1.edges_read,
                "a query where Topk-EN read more edges than Topk",
            );
            r.check(
                dpp.1.edges_read <= dpb.1.edges_read,
                "a query where DP-P read more edges than DP-B",
            );
        }
        rows.push(row);
    }
    for (slot, name) in ["topk", "dpb", "dpp"].into_iter().enumerate() {
        let col = |f: &dyn Fn(&(f64, IoSnapshot)) -> f64| {
            median(&rows.iter().map(|row| f(&row[slot])).collect::<Vec<_>>())
        };
        r.layer(&format!("core.ref.{name}_ms"), col(&|c| c.0), "ms");
        r.layer(
            &format!("core.ref.{name}_edges"),
            col(&|c| c.1.edges_read as f64),
            "count",
        );
        r.layer(
            &format!("core.ref.{name}_bytes"),
            col(&|c| c.1.bytes_read as f64),
            "B",
        );
    }
}

fn exec_probe(r: &mut Report, t: &mut Tracer, pool: &Arc<WorkerPool>) {
    let mut us = Vec::new();
    for _ in 0..2000 {
        let s = Instant::now();
        t.span("exec.pool_run", |_| pool.run(|| ()));
        us.push(ms(s) * 1e3);
    }
    r.layer("exec.pool_run_us", median(&us), "us");
}

/// Closure repair, graph delta and service update paths, on clones.
fn update_probe(r: &mut Report, t: &mut Tracer, ctx: &Ctx) {
    let ups = data::update_stream(&ctx.ds.graph, ctx.seed, PROBE_UPDATES);
    let (mut repair, mut apply) = (Vec::new(), Vec::new());
    for u in &ups {
        let s = Instant::now();
        let (g2, effects) = t.span("graph.apply_delta", |_| {
            ctx.ds.graph.apply_delta(&u.delta()).expect("valid update")
        });
        apply.push(ms(s) * 1e3);
        let mut tables = ctx.ds.tables.clone();
        let s = Instant::now();
        t.span("closure.repair", |_| tables.repair(&g2, &effects));
        repair.push(ms(s));
    }
    r.layer("closure.compute_s", ctx.closure_s, "s");
    r.layer("closure.repair_ms", median(&repair), "ms");
    r.layer("graph.apply_delta_us", median(&apply), "us");

    // Service path: plans warmed by the workload's texts and a few
    // sessions left open, so invalidation and fencing have work to do.
    let live = LiveStore::with_tables(ctx.ds.graph.clone(), ctx.ds.tables.clone()).into_shared();
    let engine = QueryEngine::new(
        ctx.ds.graph.interner().clone(),
        live,
        ServiceConfig::default(),
    );
    for text in ctx.texts.iter().take(32) {
        engine
            .topk(text, Algo::TopkEn, wire::BATCH)
            .expect("warm a plan");
    }
    let (mut lat, mut invalidated, mut fenced) = (Vec::new(), 0, 0);
    for u in &ups {
        let open: Vec<_> = ctx
            .texts
            .iter()
            .take(4)
            .map(|q| engine.open(q, Algo::TopkEn).expect("open a session"))
            .collect();
        let s = Instant::now();
        let rep = t.span("service.apply_delta", |_| engine.apply_delta(&u.delta()));
        lat.push(ms(s));
        let rep = rep.expect("apply a seeded update");
        invalidated += rep.plans_invalidated;
        fenced += rep.sessions_fenced;
        for id in open {
            let _ = engine.close(id);
        }
    }
    r.layer("service.apply_delta_ms", median(&lat), "ms");
    r.layer(
        "service.plans_invalidated_per_update",
        invalidated as f64 / ups.len() as f64,
        "count",
    );
    r.layer("service.sessions_fenced", fenced as f64, "count");
}

/// One request through `ServiceHandle`: `OPEN`, `NEXT 10`, `CLOSE`.
/// Returns the batch and the three calls' times in µs.
fn in_process(
    t: &mut Tracer,
    engine: &ServiceHandle,
    text: &str,
) -> (Vec<ktpm_core::ScoredMatch>, [f64; 3]) {
    let s0 = Instant::now();
    let id = t.span("service.open", |_| engine.open(text, Algo::TopkEn));
    let s1 = Instant::now();
    let id = id.expect("in-process open");
    let batch = t.span("service.next", |_| engine.next(id, wire::BATCH));
    let s2 = Instant::now();
    t.span("service.close", |_| engine.close(id))
        .expect("in-process close");
    let s3 = Instant::now();
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    (
        batch.expect("in-process next").matches,
        [us(s0, s1), us(s1, s2), us(s2, s3)],
    )
}

/// The service and net layers on one engine over a freshly opened
/// snapshot. A warm-up pass runs the workload's queries once in process
/// (its batches must equal Topk over a `MemStore`), filling the plan and
/// result caches. Then [`ROUNDS`] rounds run the same requests in
/// process and over an `EventServer` on that engine, alternating which
/// side goes first; both sides are warm, so the per-request difference
/// is the wire's cost. Every wire batch must equal the in-process one.
fn service_and_wire_probe(r: &mut Report, t: &mut Tracer, ctx: &Ctx) {
    let engine = QueryEngine::new(
        ctx.ds.graph.interner().clone(),
        cold(ctx.snapshot),
        ServiceConfig::default(),
    );
    let budget = Instant::now();
    let mut want = Vec::new();
    for (text, q) in ctx.texts.iter().zip(ctx.queries).take(REPLAY) {
        if budget.elapsed().as_secs_f64() > REPLAY_S {
            break;
        }
        let (batch, _) = in_process(t, &engine, text);
        r.check(
            batch == ktpm_core::topk_full(q, ctx.mem, wire::BATCH),
            "a service batch differs from Topk over MemStore",
        );
        want.push(batch);
    }
    let texts = &ctx.texts[..want.len()];
    let lines: Vec<String> = texts.iter().map(|t| wire::one_line(t)).collect();
    let server = ktpm_net::EventServer::spawn(
        engine.clone(),
        ("127.0.0.1", 0),
        ktpm_net::NetConfig::default(),
    )
    .expect("start the probe server");
    let (mut calls, mut diffs, mut outcomes) = ([vec![], vec![], vec![]], vec![], vec![]);
    for round in 0..ROUNDS {
        let first_request = (round * texts.len()) as u64;
        let mut local = vec![0.0; texts.len()];
        let mut remote = Vec::new();
        let wire_first = round % 2 == 1;
        for wire_side in [wire_first, !wire_first] {
            if wire_side {
                let due = wire::arrivals(texts.len(), WIRE_RPS, ctx.seed ^ round as u64);
                remote = wire::drive(server.local_addr(), &lines, &due);
                wire::record_spans(t, &remote, first_request);
                continue;
            }
            for (i, text) in texts.iter().enumerate() {
                t.set_request(first_request + i as u64);
                let (batch, us) = in_process(t, &engine, text);
                r.check(
                    batch == want[i],
                    "a warm service batch differs from its first",
                );
                for (c, v) in calls.iter_mut().zip(us) {
                    c.push(v);
                }
                local[i] = us.iter().sum();
            }
        }
        for (i, o) in remote.iter().enumerate() {
            r.check(
                o.error.is_none() && o.matches.as_ref() == Some(&want[i]),
                format!(
                    "a wire batch failed or differs from in process: {:?}",
                    o.error
                ),
            );
            diffs.push(o.service_ms() * 1e3 - local[i]);
        }
        outcomes.extend(remote);
    }
    server.shutdown();
    let [open, next, close] = &calls;
    r.layer("service.open_us", median(open), "us");
    r.layer("service.next_us", median(next), "us");
    r.layer("service.close_us", median(close), "us");
    let m = engine.stats().metrics;
    let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
    r.layer(
        "service.plan_hit_ratio",
        ratio(m.plan_hits, m.plan_misses),
        "ratio",
    );
    r.layer(
        "service.result_hit_ratio",
        ratio(m.cache_hits, m.cache_misses),
        "ratio",
    );
    r.layer("net.wire_us", median(&diffs), "us");
    r.layer("net.sheds", m.shed_total as f64, "count");
    let errors = outcomes.iter().filter(|o| o.error.is_some()).count();
    r.layer("net.protocol_errors", errors as f64, "count");
    let lags: Vec<f64> = outcomes.iter().map(wire::Outcome::gen_lag_ms).collect();
    let lag_p99 = percentile(&lags, 99);
    r.layer("net.gen_lag_ms", lag_p99, "ms");
    // The open-loop schedule held if the generator's p99 lateness stayed
    // under one mean gap between arrivals.
    r.note(
        "wire_generator_valid",
        (lag_p99 < 1e3 / WIRE_RPS).to_string(),
    );
}

/// Runs every probe and records the per-layer metrics.
pub fn probes(r: &mut Report, t: &mut Tracer, ctx: &Ctx, pool: &Arc<WorkerPool>, io_claim: bool) {
    let n = if ctx.k > 1000 { 4 } else { 16 };
    t.set_request(u64::MAX);
    storage_probe(r, t, ctx);
    query_probe(r, t, ctx);
    runtime_probe(r, t, ctx, n);
    core_probe(r, t, ctx, pool, n, io_claim);
    exec_probe(r, t, pool);
    update_probe(r, t, ctx);
    service_and_wire_probe(r, t, ctx);
    self_times(r, t);
    for name in PER_LAYER {
        if !r.layers.iter().any(|m| m.name == name) {
            r.layer(name, f64::NAN, "count");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names here and in `BENCHMARK.json` must agree.
    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find("\"per_layer\"").expect("per_layer key");
        let names: Vec<&str> = json[start..]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        assert_eq!(names, PER_LAYER);
        for l in LAYERS {
            assert!(PER_LAYER.contains(&format!("self.{l}_ms").as_str()));
        }
    }
}
