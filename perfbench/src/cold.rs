//! `cold-t20`: seeded T20 tree queries on GS3, top-100 through Topk-EN,
//! each request on a freshly opened `PagedStore` with an empty block
//! cache. Closed loop, one thread. Set-up dominates latency here.

use crate::data::{self, Dataset, Scratch};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{layers, wire, Args, Report};
use ktpm_core::{build_stream, Algo, MatchStream, ParallelPolicy, QueryPlan, ScoredMatch};
use ktpm_exec::WorkerPool;
use ktpm_query::ResolvedQuery;
use ktpm_storage::{IoSnapshot, MemStore, PagedStore, SharedSource};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Matches requested per query.
pub const K: usize = 100;
/// Query tree size.
const QUERY_NODES: usize = 20;
/// Distinct queries per run, cycled in order: each runs six times or
/// more in a 30-second run.
const POOL: usize = 100;
/// Fixed tail percentile (a run yields over 500 requests).
pub const TAIL_PCT: u32 = 95;
/// Segments of a traced run's load, untraced and traced in turn.
const TRACE_SEGMENTS: usize = 8;

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency_ms: f64,
    pub first_ms: f64,
    pub delay_ns: f64,
}

/// The requests a closed loop measured, each with its query.
#[derive(Default)]
pub struct Timed {
    pub samples: Vec<(usize, Sample)>,
}

impl Timed {
    /// Every request's value of `f`.
    pub fn col(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(|(_, s)| f(s)).collect()
    }

    /// Each query's best (lowest) value of `f` over its repeats.
    pub fn best(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        let mut best: BTreeMap<usize, f64> = BTreeMap::new();
        for (q, s) in &self.samples {
            let v = f(s);
            best.entry(*q).and_modify(|b| *b = b.min(v)).or_insert(v);
        }
        best.into_values().collect()
    }
}

/// The end-to-end metrics of a closed loop, after `setup_s`. Every
/// request of a query does the same work (cold-t20 opens a fresh store
/// each time, deep-k drains a warm plan), so its repeats differ only by
/// how fast the host ran at the time. The central figures count each
/// query with its best repeat, which keeps a shared machine's swings in
/// speed out of them as far as one run allows: a swing that lasts the
/// whole run still shows. The tail is over every request, where those
/// swings show in any case.
pub fn closed_loop_metrics(r: &mut Report, timed: &Timed, tail_pct: u32) {
    let lat = timed.best(|s| s.latency_ms);
    let tail = stats::tail(&timed.col(|s| s.latency_ms), tail_pct);
    r.note("requests", timed.samples.len().to_string());
    r.note("queries_run", lat.len().to_string());
    r.note("tail_pct", tail.pct.to_string());
    r.e2e("p50_ms", median(&lat), "ms");
    r.e2e("tail_ms", tail.value, "ms");
    r.e2e(
        "first_match_p50_ms",
        median(&timed.best(|s| s.first_ms)),
        "ms",
    );
    r.e2e(
        "delay_ns_per_match",
        median(&timed.best(|s| s.delay_ns)),
        "ns",
    );
    let mean_s = lat.iter().sum::<f64>() / lat.len() as f64 / 1e3;
    r.e2e("throughput_rps", 1.0 / mean_s, "1/s");
}

/// Times one stream: construction plus first match, then matches 2..k,
/// into `out` (cleared first; callers reuse it, so the timing holds no
/// page faults of a fresh multi-megabyte buffer). Latency counts from `t0`.
pub fn drain(
    t: &mut Tracer,
    t0: Instant,
    k: usize,
    out: &mut Vec<ScoredMatch>,
    make: impl FnOnce(&mut Tracer) -> Box<dyn MatchStream + Send>,
) -> Sample {
    out.clear();
    let mut stream = make(t);
    let first = t.span("core.first_match", |_| MatchStream::next(&mut *stream));
    let t1 = Instant::now();
    out.extend(first);
    if !out.is_empty() {
        t.span("core.drain", |_| stream.next_batch(k - 1, out));
    }
    let t2 = Instant::now();
    Sample {
        latency_ms: (t2 - t0).as_secs_f64() * 1e3,
        first_ms: (t1 - t0).as_secs_f64() * 1e3,
        delay_ns: (t2 - t1).as_secs_f64() * 1e9 / (out.len().max(2) - 1) as f64,
    }
}

/// One cold request: open the snapshot, plan, stream, drain.
fn request(
    t: &mut Tracer,
    path: &Path,
    q: &ResolvedQuery,
    pool: &Arc<WorkerPool>,
    out: &mut Vec<ScoredMatch>,
) -> (Sample, IoSnapshot) {
    let t0 = Instant::now();
    let (sample, store) = t.span("bench.request", |t| {
        let store: SharedSource = t.span("storage.open", |_| {
            PagedStore::open(path)
                .expect("open the snapshot")
                .into_shared()
        });
        let sample = drain(t, t0, K, out, |t| {
            t.span("core.build_stream", |_| {
                let plan = QueryPlan::new(q.clone(), Arc::clone(&store));
                build_stream(
                    Algo::TopkEn,
                    &plan,
                    &ParallelPolicy::default(),
                    Arc::clone(pool),
                )
            })
        });
        (sample, store)
    });
    (sample, store.io())
}

/// Output checks for a closed loop: each request's `(score,
/// assignment)` stream must equal Topk over a `MemStore` of the same
/// closure. The oracle runs before the timed load, and outputs are
/// compared by a 64-bit digest of the whole sequence, so a run keeps one
/// number per query instead of up to 50,000 matches.
pub struct Checker {
    want: Vec<u64>,
    /// Requests checked so far.
    pub checked: u64,
    /// Requests whose output differed from the oracle's.
    pub mismatches: u64,
}

fn digest(out: &[ScoredMatch]) -> u64 {
    let mut h = DefaultHasher::new();
    out.len().hash(&mut h);
    for m in out {
        m.score.hash(&mut h);
        for v in &m.assignment {
            v.0.hash(&mut h);
        }
    }
    h.finish()
}

impl Checker {
    /// Expects `oracle(i)` from query `i < n`; the oracle runs on two
    /// threads.
    pub fn new(n: usize, oracle: impl Fn(usize) -> Vec<ScoredMatch> + Sync) -> Self {
        let half = n.div_ceil(2).max(1);
        let oracle = &oracle;
        let want = std::thread::scope(|s| {
            let parts: Vec<_> = (0..n)
                .step_by(half)
                .map(|lo| {
                    s.spawn(move || {
                        (lo..n.min(lo + half))
                            .map(|i| digest(&oracle(i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            parts
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread"))
                .collect()
        });
        Checker {
            want,
            checked: 0,
            mismatches: 0,
        }
    }

    pub fn check(&mut self, i: usize, out: &[ScoredMatch]) {
        self.checked += 1;
        self.mismatches += u64::from(self.want[i] != digest(out));
    }
}

/// A workload's timed load.
#[derive(Default)]
pub struct Load {
    /// The untraced requests.
    pub untraced: Timed,
    /// The traced requests (none in an untraced run).
    pub traced: Timed,
    /// Every request's I/O counters.
    pub io: Vec<IoSnapshot>,
}

/// Runs the timed load, one closed loop over queries `0..queries` in
/// turn: `one(tracer, query)` serves one request. Untraced, the loop
/// runs for `seconds`. Traced, it runs in [`TRACE_SEGMENTS`] segments,
/// untraced and traced in the order U T T U U T T U, so that both sample
/// the same stretch of time and each runs first equally often.
pub fn load(
    seconds: f64,
    trace: bool,
    queries: usize,
    mut one: impl FnMut(&mut Tracer, usize) -> (Sample, IoSnapshot),
) -> (Load, Tracer) {
    let mut untraced = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut load = Load::default();
    let segments = if trace { TRACE_SEGMENTS } else { 1 };
    let mut i = 0;
    for seg in 0..segments {
        let traced = trace && matches!(seg % 4, 1 | 2);
        let (t, timed) = if traced {
            (&mut tracer, &mut load.traced)
        } else {
            (&mut untraced, &mut load.untraced)
        };
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds / segments as f64 {
            let q = i % queries;
            t.set_request(i as u64);
            let (sample, io) = one(t, q);
            timed.samples.push((q, sample));
            load.io.push(io);
            i += 1;
        }
    }
    (load, tracer)
}

pub fn run(args: &Args, scratch: &Scratch) -> Report {
    let mut r = Report::default();
    let path = scratch.file("gs3.tc");
    let (ds, setup_s, closure_s) = data::repeat_setup(|| {
        let ds = Dataset::build(&path);
        drop(PagedStore::open(&path).expect("open the snapshot"));
        let c = ds.closure_s;
        (ds, c)
    });
    let queries: Vec<ResolvedQuery> =
        ktpm_workload::query_set(&ds.graph, QUERY_NODES, POOL, true, args.seed)
            .into_iter()
            .map(|q| q.resolve(ds.graph.interner()))
            .collect();
    assert!(!queries.is_empty(), "no T20 query could be extracted");
    let pool = ktpm_exec::default_pool();
    r.note("dataset", ds.describe());
    r.note("snapshot_bytes", ds.file_bytes.to_string());
    r.note(
        "block_cache_bytes",
        ktpm_storage::DEFAULT_BLOCK_CACHE_BYTES.to_string(),
    );
    r.note(
        "state",
        "\"cold: fresh PagedStore and empty block cache per request; OS page cache warm\"",
    );
    r.note("queries", queries.len().to_string());

    let mem = MemStore::new(ds.tables.clone());
    let mut checker = Checker::new(queries.len(), |qi| {
        ktpm_core::topk_full(&queries[qi], &mem, K)
    });
    // Only the traced run's probes use the dataset and the oracle's
    // store from here on; an untraced run frees them, so that
    // `peak_rss_mb` is the load's own footprint.
    let kept = args.trace.then_some((ds, mem));

    // Warm-up (page cache, allocator): checked, not timed.
    let mut out = Vec::with_capacity(K);
    for (qi, q) in queries.iter().enumerate().take(5) {
        request(&mut Tracer::new(false), &path, q, &pool, &mut out);
        checker.check(qi, &out);
    }
    let seconds = if args.trace {
        args.seconds * 2.0 / 3.0
    } else {
        args.seconds
    };
    crate::reset_peak_rss();
    let (measured, mut tracer) = load(seconds, args.trace, queries.len(), |t, qi| {
        let (sample, snap) = request(t, &path, &queries[qi], &pool, &mut out);
        checker.check(qi, &out);
        (sample, snap)
    });
    let peak_rss = crate::peak_rss_mb();

    r.attempted += checker.checked;
    let bad = checker.mismatches;
    r.fail(
        bad,
        format!("{bad} cold-t20 streams differ from Topk over MemStore"),
    );
    let warm = measured.io.iter().filter(|io| io.cache_misses == 0).count() as u64;
    r.fail(
        warm,
        format!("{warm} cold-t20 requests had no block-cache miss"),
    );

    r.e2e("setup_s", setup_s, "s");
    closed_loop_metrics(&mut r, &measured.untraced, TAIL_PCT);
    r.e2e("peak_rss_mb", peak_rss, "MB");

    if let Some((ds, mem)) = &kept {
        layers::overhead(&mut r, &measured);
        layers::storage_counters(&mut r, &measured.io);
        let texts: Vec<String> = queries.iter().map(|q| wire::query_text(q.tree())).collect();
        let ctx = layers::Ctx {
            ds,
            snapshot: &path,
            queries: &queries,
            texts: &texts,
            k: K,
            seed: args.seed,
            closure_s,
            mem,
        };
        layers::probes(&mut r, &mut tracer, &ctx, &pool, true);
    }
    r
}
