//! The `ktpm` command-line tool: top-k tree matching from the shell.
//!
//! ```text
//! ktpm closure <graph.txt> <store.tc>          precompute + persist the closure
//! ktpm closure <graph.txt> <dir> --shards <n>  ... as a sharded snapshot: n v3
//!                                              shard files + a v4 MANIFEST
//! ktpm query   <graph.txt> <query.txt> [opts]  run a top-k twig query
//! ktpm serve   <graph.txt> [opts]              run the TCP query service
//! ktpm blockd  --store <path> [--listen a]     serve a snapshot's raw blocks
//!                                              over TCP for remote stores
//!                                              (--store tcp://host:port)
//! ktpm store verify <store>                    re-check every checksum in a
//!                                              persisted store (single file,
//!                                              or a sharded snapshot given its
//!                                              MANIFEST/directory: manifest
//!                                              CRC, per-file content hashes,
//!                                              then a full per-shard scrub);
//!                                              nonzero exit on corruption,
//!                                              naming the corrupt file
//!
//! options for `query`:
//!   -k <n>            number of matches (default 10)
//!   --store <path>    use a persisted closure store instead of computing.
//!                     A store file (written by `ktpm closure`) is read
//!                     through the paged backend (lazy CRC-verified block
//!                     fetch behind an LRU block cache). A sharded
//!                     snapshot's MANIFEST (or directory) opens the
//!                     sharded backend — only shard files the query's
//!                     label pairs touch are opened. `tcp://host:port`
//!                     connects to `ktpm blockd` and fetches blocks
//!                     remotely on demand
//!   --block-cache-bytes <n>
//!                     byte budget for the block cache (default 8 MiB;
//!                     0 = unlimited)
//!   --iostats         print the store's I/O counters after the run:
//!                     blocks/bytes/edges read, D/E entries, the
//!                     block-cache hit/miss/eviction/resident-bytes set,
//!                     files opened (sharded backend) and the remote
//!                     fetch/bytes/retry/error counters (remote backend)
//!   --algo <name>     any name in the shared `Algo` registry:
//!                     topk | topk-en | par | brute | dp-b | dp-p | kgpm
//!                     (default topk-en). `kgpm` reads the query as an
//!                     undirected graph pattern — cycles allowed, `=>`
//!                     child edges not
//!   --parallel <n>    shard count for sharded algorithms (implies
//!                     --algo par when --algo is absent; default: CPU
//!                     count, capped at 8)
//!   --repeat <n>      run the query n times over ONE shared QueryPlan:
//!                     run 1 is cold (pays setup), runs 2..n are warm
//!                     (zero candidate discovery) — per-run timings show
//!                     the amortization the plan cache buys a server
//!   --on-demand       skip closure precomputation (lazy per-label SSSP)
//!
//! options for `serve`:
//!   --addr <host:port>  listen address (default 127.0.0.1:7878)
//!   --store <path>      use a persisted closure store instead of computing.
//!                       Persisted and on-demand stores are snapshots:
//!                       the `UPDATE` verb answers ERR update-unsupported
//!                       on them. The default (compute in memory) serves
//!                       a live store that accepts updates. Store
//!                       sniffing and --block-cache-bytes work as in
//!                       `query`; STATS reports the store's io_* counters
//!                       including the block-cache set.
//!   --on-demand         skip closure precomputation (lazy per-label SSSP)
//!   --invalidation <delta-aware|flush-all>
//!                       how an applied UPDATE invalidates cached plans,
//!                       result prefixes and sessions: `delta-aware`
//!                       (default) drops only state whose query reads a
//!                       closure table the delta touched; `flush-all`
//!                       drops everything
//!   --workers <n>       worker threads (default: CPU count, capped at 16)
//!   --event-loop        serve with the `ktpm-net` readiness loop instead
//!                       of a thread per connection: one reactor thread
//!                       multiplexes every socket, a fixed executor pool
//!                       runs requests, parked connections hold no
//!                       thread, and clients may pipeline requests
//!                       (responses stream back in request order,
//!                       byte-identical to the legacy path). Overload is
//!                       shed per request with `ERR overloaded`.
//!   --net-workers <n>   event-loop executor threads (default: CPU
//!                       count, clamped to 2..8; implies --event-loop)
//!   --pipeline <n>      per-connection bound on queued pipelined
//!                       requests before shedding (default 64; implies
//!                       --event-loop)
//!   --write-buf <bytes> per-connection bound on unflushed response
//!                       bytes before shedding (default 262144; implies
//!                       --event-loop)
//!   --idle-timeout <secs>
//!                       close connections silent for this long, on both
//!                       front ends (default 300; 0 = never). Sessions
//!                       survive their connection and can be resumed.
//!   --sweep-interval-ms <n>
//!                       janitor cadence for session-TTL eviction
//!                       (default 200)
//!   --parallel <n>      shard count for `par` sessions (default as above)
//!   --ttl <secs>        idle-session eviction timeout (default 300)
//!   --plan-cache <n>    cached query plans (default 256). Plans hold a
//!                       query's whole setup — candidate discovery,
//!                       run-time graph, bs pass, slot templates — keyed
//!                       by canonical query text and shared by ALL
//!                       algorithms and sessions of that query, so a warm
//!                       OPEN repeats none of it. LRU-evicted; each warm
//!                       entry costs O(m_R) memory, so size this to the
//!                       hot-query working set.
//!   --plan-cache-bytes <n>
//!                       byte budget over the plan cache (default: off;
//!                       n = 0 also means off): LRU plans are evicted
//!                       once the summed plan footprint exceeds it; the
//!                       entry-count cap above still applies. STATS
//!                       reports the budget as plan_cache_bytes_limit
//!                       (0 = off).
//!   --warm <file>       pre-build plans for a query list before
//!                       accepting connections: one query per line, `;`
//!                       for newlines (the wire form). The first OPEN of
//!                       a warmed query does zero candidate discovery.
//! ```
//!
//! `ktpm query` runs every algorithm through the `ktpm::api` facade
//! (`Executor`/`QueryBuilder` → one `MatchStream`): algorithm names
//! come from the shared `Algo` registry (case-insensitive) — there is
//! no CLI-only algorithm list and no per-algorithm construction here —
//! and the tree-query stream is byte-identical whichever engine runs
//! it. `--algo kgpm` answers the *pattern* reading of the same query
//! text (undirected semantics, non-tree edges verified lazily), so its
//! match set legitimately differs from the tree algorithms'.
//!
//! ## Parallel execution (`--algo par`, `--parallel N`)
//!
//! `par` runs `ParTopk`: the query's root-candidate set is split into
//! `N` disjoint shards (node-id stride — every match belongs to exactly
//! one shard, the one owning its root), each shard runs an independent
//! sequential enumerator on a shared worker pool, and the shard streams
//! are lazily k-way merged. **Order preservation:** each shard stream
//! is put into the workspace's canonical order (ascending
//! `(score, assignment)`), and a merge of disjoint canonically-ordered
//! streams keyed the same way is itself canonical — so `par` output is
//! byte-identical to `--algo topk` for every shard count. The same
//! policy drives `OPEN par ...` sessions in `ktpm serve` (configured by
//! `--parallel`).
//!
//! ## The `serve` wire protocol
//!
//! `ktpm serve` speaks a line-based TCP protocol; one request per line,
//! one response (possibly multi-line) per request:
//!
//! ```text
//! -> OPEN <algo> <query>      query in twig text with `;` for newlines,
//!                             e.g. OPEN topk-en C -> E; C -> S.
//!                             `OPEN kgpm ...` reads the query as an
//!                             undirected graph pattern (cycles allowed)
//!                             and streams ranked pattern matches
//! <- OK <session>
//! -> NEXT <session> <n>
//! <- OK <j> MORE|DONE         then j lines `M <score> <node> <node> ...`
//! -> CLOSE <session>
//! <- OK closed
//! -> STATS
//! <- OK key=value ...
//! -> UPDATE <op>[; <op> ...]  live graph mutation, ops: set <u> <v> <w>
//!                             | ins <u> <v> <w> | del <u> <v>
//! <- OK version=<v> ...       the new graph version + invalidation counts
//! <- ERR <code> <detail>      on any failure; the connection stays open.
//!                             Codes are a stable taxonomy (bad-request,
//!                             bad-query, stale-version, overloaded, ...);
//!                             see `ktpm::service::protocol`.
//! ```
//!
//! Sessions are resumable cursors: `NEXT` continues exactly where the
//! previous batch stopped without re-running query setup, and repeated
//! queries are served from the engine's result cache. Try it:
//!
//! ```text
//! $ ktpm serve graph.txt --addr 127.0.0.1:7878 &
//! $ printf 'OPEN topk-en C -> E; C -> S\nNEXT 1 2\nNEXT 1 2\nCLOSE 1\n' | nc 127.0.0.1 7878
//! ```
//!
//! Graph files use the `n <id> <label>` / `e <src> <dst> [w]` format of
//! [`ktpm::graph::io`]; query files use the `A -> B` / `A => B` twig
//! format of [`ktpm::query::TreeQuery::parse`].

use ktpm::api::Executor;
use ktpm::net::{EventServer, NetConfig};
use ktpm::prelude::*;
use ktpm::service::{QueryEngine, Server, ServiceConfig};
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("closure") => cmd_closure(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("blockd") => cmd_blockd(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        _ => {
            eprintln!(
                "usage: ktpm closure <graph.txt> <store.tc|dir> [--shards n] [--block-entries n]"
            );
            eprintln!("       ktpm query <graph.txt> <query.txt> [-k n] [--store p|tcp://host:port] [--algo a] [--parallel n] [--repeat n] [--on-demand] [--block-cache-bytes n] [--iostats]");
            eprintln!("       ktpm serve <graph.txt> [--addr host:port] [--store p|tcp://host:port] [--on-demand] [--block-cache-bytes n] [--workers n] [--parallel n] [--ttl secs] [--plan-cache n] [--plan-cache-bytes n] [--warm file] [--invalidation policy] [--event-loop] [--net-workers n] [--pipeline n] [--write-buf bytes] [--idle-timeout secs] [--sweep-interval-ms n]");
            eprintln!("       ktpm blockd --store <path> [--listen host:port]");
            eprintln!("       ktpm store verify <store.tc|MANIFEST|dir>");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_graph(path: &str) -> Result<LabeledGraph, Box<dyn std::error::Error>> {
    let f = std::fs::File::open(path)?;
    Ok(ktpm::graph::io::read_graph(BufReader::new(f))?)
}

/// Whether `path` is a file starting with the sharded-snapshot
/// MANIFEST magic (reads only the first 8 bytes).
fn file_has_v4_magic(path: &std::path::Path) -> bool {
    use std::io::Read;
    let Ok(mut f) = std::fs::File::open(path) else {
        return false;
    };
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).is_ok() && &magic == ktpm::storage::MAGIC_V4
}

/// Picks the storage backend shared by `query` and `serve`. Persisted
/// stores are opened by sniffing what `--store` names: a `tcp://`
/// address connects to `ktpm blockd`, a sharded snapshot's MANIFEST
/// (or directory) opens the sharded backend, and single files go
/// through the paged reader (lazy verified block fetch behind the
/// `--block-cache-bytes` LRU budget; 0 = unlimited).
fn open_store(
    g: &LabeledGraph,
    store_path: &Option<String>,
    on_demand: bool,
    block_cache_bytes: Option<u64>,
) -> Result<SharedSource, Box<dyn std::error::Error>> {
    Ok(match (store_path, on_demand) {
        (Some(p), _) => open_store_uri(p, block_cache_bytes)?,
        (None, true) => OnDemandStore::new(g.clone()).into_shared(),
        // Attach the graph so `--algo kgpm` / `OPEN kgpm` can derive
        // the undirected mirror; tree algorithms never look at it.
        // Persisted stores stay graph-less: kgpm over `--store` is an
        // explicit pattern-unsupported error.
        (None, false) => MemStore::new(ClosureTables::compute(g))
            .with_graph(g.clone())
            .into_shared(),
    })
}

fn cmd_closure(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut shards: Option<u32> = None;
    let mut block_entries: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => shards = Some(it.next().ok_or("--shards needs a count")?.parse()?),
            "--block-entries" => {
                block_entries = Some(it.next().ok_or("--block-entries needs a count")?.parse()?)
            }
            other => positional.push(other.to_string()),
        }
    }
    let [graph_path, out_path] = positional.as_slice() else {
        return Err(
            "usage: ktpm closure <graph.txt> <store.tc|dir> [--shards n] [--block-entries n]"
                .into(),
        );
    };
    let g = load_graph(graph_path)?;
    let t = std::time::Instant::now();
    let tables = ClosureTables::compute(&g);
    let stats = tables.stats();
    let wrote = match shards {
        // Sharded snapshot: one v3 file per partition + a v4 MANIFEST
        // in the output directory; open it via the MANIFEST path.
        Some(n) if n > 0 => {
            let spec = ShardSpec::new(0, n);
            let manifest = write_store_sharded(
                &tables,
                std::path::Path::new(out_path),
                &spec,
                block_entries.unwrap_or(DEFAULT_BLOCK_EDGES),
            )?;
            format!(
                "{out_path}/MANIFEST ({} shard files, {} routed pairs)",
                manifest.shards.len(),
                manifest.routing.len()
            )
        }
        Some(_) => return Err("--shards needs a nonzero count".into()),
        None => match block_entries {
            Some(be) => {
                write_store_v3(&tables, std::path::Path::new(out_path), be)?;
                out_path.to_string()
            }
            None => {
                write_store(&tables, std::path::Path::new(out_path))?;
                out_path.to_string()
            }
        },
    };
    println!(
        "closure of {} nodes / {} edges: {} closure edges (θ = {:.1}) in {:?} -> {}",
        g.num_nodes(),
        g.num_edges(),
        stats.edges,
        stats.theta,
        t.elapsed(),
        wrote
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut k = 10usize;
    let mut store_path: Option<String> = None;
    let mut algo: Option<String> = None;
    let mut parallel: Option<usize> = None;
    let mut repeat = 1usize;
    let mut on_demand = false;
    let mut block_cache_bytes: Option<u64> = None;
    let mut iostats = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-k" => k = it.next().ok_or("-k needs a value")?.parse()?,
            "--store" => store_path = Some(it.next().ok_or("--store needs a path")?.clone()),
            "--algo" => algo = Some(it.next().ok_or("--algo needs a name")?.clone()),
            "--parallel" => parallel = Some(it.next().ok_or("--parallel needs a count")?.parse()?),
            "--repeat" => repeat = it.next().ok_or("--repeat needs a count")?.parse()?,
            "--on-demand" => on_demand = true,
            "--block-cache-bytes" => {
                block_cache_bytes = Some(
                    it.next()
                        .ok_or("--block-cache-bytes needs a byte count")?
                        .parse()?,
                )
            }
            "--iostats" => iostats = true,
            other => positional.push(other.to_string()),
        }
    }
    let repeat = repeat.max(1);
    let [graph_path, query_path] = positional.as_slice() else {
        return Err(
            "usage: ktpm query <graph.txt> <query.txt> [-k n] [--store p] [--algo a] [--parallel n] [--repeat n] [--on-demand] [--block-cache-bytes n] [--iostats]"
                .into(),
        );
    };
    // --parallel alone selects parallel execution; pairing it with a
    // non-sharded --algo would silently ignore one of the two.
    let algo_name = match (&algo, parallel) {
        (None, Some(_)) => "par",
        (None, None) => "topk-en",
        (Some(a), _) => a.as_str(),
    };
    // One name registry for every front end: the CLI accepts exactly
    // the algorithms `build_stream` dispatches — no CLI-only list.
    let Some(algo) = Algo::parse(algo_name) else {
        return Err(format!(
            "unknown algorithm {algo_name:?} (expected {})",
            Algo::valid_names()
        )
        .into());
    };
    if parallel.is_some() && !algo.caps().sharded {
        return Err(format!(
            "--parallel needs a sharded algorithm (got --algo {algo_name}); use par or kgpm"
        )
        .into());
    }
    let g = load_graph(graph_path)?;
    let query_text = std::fs::read_to_string(query_path)?;

    let store: SharedSource = open_store(&g, &store_path, on_demand, block_cache_bytes)?;

    // Every algorithm runs behind the facade's single `MatchStream`
    // surface — no per-algorithm construction here. With `--repeat n`
    // runs share plans through a PlanCache exactly like `ktpm serve`
    // sessions: the setup pipeline (candidate discovery, run-time
    // graph, bs pass, slot templates — or, for kgpm, the pattern
    // decomposition) is paid by run 1; runs 2..n are warm hits.
    let exec = Executor::new(g.interner().clone(), Arc::clone(&store));
    let plans = Mutex::new(PlanCache::new(4));
    let mut matches: Vec<ScoredMatch> = Vec::new();
    let mut dt = std::time::Duration::ZERO;
    for run in 1..=repeat {
        let t = std::time::Instant::now();
        // Facade streams emit the canonical `(score, assignment)`
        // order (ties deterministic, sharded engines byte-identical to
        // their sequential runs for every shard count).
        let mut b = exec.query(&query_text)?.algo(algo).k(k).plan_cache(&plans);
        if let Some(n) = parallel {
            b = b.shards(n);
        }
        matches = b.topk()?;
        dt = t.elapsed();
        if repeat > 1 {
            println!(
                "# run {run}/{repeat}: {} matches in {dt:?} ({})",
                matches.len(),
                match (algo, run == 1) {
                    // `plan_reuse` capability: warm runs skip setup.
                    (a, false) if a.caps().plan_reuse => "warm: shared plan",
                    (Algo::Brute, false) => "brute: re-materializes each run",
                    (Algo::DpP, false) => "dp-p: streams from the closure each run",
                    (_, _) => "cold: builds the plan",
                }
            );
        }
    }
    println!(
        "# {} matches in {dt:?} (algo {}, {} edges loaded{})",
        matches.len(),
        algo.name(),
        store.io().edges_read,
        if repeat > 1 { " across all runs" } else { "" }
    );
    if iostats {
        let io = exec.io();
        println!(
            "# iostats: block_reads={} bytes_read={} edges_read={} d_entries={} e_entries={} \
             cache_hits={} cache_misses={} cache_evictions={} cache_bytes_resident={} \
             files_opened={} remote_fetches={} remote_bytes={} remote_retries={} remote_errors={}",
            io.block_reads,
            io.bytes_read,
            io.edges_read,
            io.d_entries,
            io.e_entries,
            io.cache_hits,
            io.cache_misses,
            io.cache_evictions,
            io.cache_bytes_resident,
            io.files_opened,
            io.remote_fetches,
            io.remote_bytes,
            io.remote_retries,
            io.remote_errors
        );
    }
    // Column labels per assignment slot: pattern nodes for kgpm rows,
    // query-tree nodes otherwise (both orders match the emitted rows).
    let labels: Vec<String> = if algo == Algo::Kgpm {
        let p = GraphQuery::parse(&query_text)?;
        p.labels().to_vec()
    } else {
        let resolved = TreeQuery::parse(&query_text)?.resolve(g.interner());
        resolved
            .tree()
            .node_ids()
            .map(|u| resolved.tree().label_name(u).unwrap_or("*").to_string())
            .collect()
    };
    for (rank, m) in matches.iter().enumerate() {
        let binding: Vec<String> = labels
            .iter()
            .zip(m.assignment.iter())
            .map(|(name, node)| format!("{name}={}", node.0))
            .collect();
        println!("{:<3} score={:<6} {}", rank + 1, m.score, binding.join(" "));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut store_path: Option<String> = None;
    let mut warm_path: Option<String> = None;
    let mut on_demand = false;
    let mut event_loop = false;
    let mut block_cache_bytes: Option<u64> = None;
    let mut config = ServiceConfig::default();
    let mut net_config = NetConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs host:port")?.clone(),
            "--store" => store_path = Some(it.next().ok_or("--store needs a path")?.clone()),
            "--block-cache-bytes" => {
                block_cache_bytes = Some(
                    it.next()
                        .ok_or("--block-cache-bytes needs a byte count")?
                        .parse()?,
                )
            }
            "--warm" => warm_path = Some(it.next().ok_or("--warm needs a file")?.clone()),
            "--on-demand" => on_demand = true,
            "--event-loop" => event_loop = true,
            "--net-workers" => {
                event_loop = true;
                net_config.workers = it.next().ok_or("--net-workers needs a count")?.parse()?;
            }
            "--pipeline" => {
                event_loop = true;
                net_config.max_pipeline = it.next().ok_or("--pipeline needs a count")?.parse()?;
            }
            "--write-buf" => {
                event_loop = true;
                net_config.max_write_buffer =
                    it.next().ok_or("--write-buf needs a byte count")?.parse()?;
            }
            "--idle-timeout" => {
                let secs: u64 = it.next().ok_or("--idle-timeout needs seconds")?.parse()?;
                config.idle_timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
            }
            "--sweep-interval-ms" => {
                config.sweep_interval = std::time::Duration::from_millis(
                    it.next()
                        .ok_or("--sweep-interval-ms needs millis")?
                        .parse()?,
                )
            }
            "--workers" => config.workers = it.next().ok_or("--workers needs a count")?.parse()?,
            "--parallel" => {
                config.parallel.shards = it.next().ok_or("--parallel needs a count")?.parse()?
            }
            "--ttl" => {
                config.session_ttl =
                    std::time::Duration::from_secs(it.next().ok_or("--ttl needs seconds")?.parse()?)
            }
            "--plan-cache" => {
                config.plan_cache_capacity =
                    it.next().ok_or("--plan-cache needs a count")?.parse()?
            }
            "--invalidation" => {
                config.invalidation =
                    match it.next().ok_or("--invalidation needs a policy")?.as_str() {
                        "delta-aware" => ktpm::service::InvalidationPolicy::DeltaAware,
                        "flush-all" => ktpm::service::InvalidationPolicy::FlushAll,
                        other => {
                            return Err(format!(
                        "unknown invalidation policy {other:?} (expected delta-aware | flush-all)"
                    )
                            .into())
                        }
                    }
            }
            "--plan-cache-bytes" => {
                // 0 means "off" here exactly as in STATS
                // (plan_cache_bytes_limit=0): Some(0) would instead
                // evict every plan but the one in use.
                let bytes: u64 = it
                    .next()
                    .ok_or("--plan-cache-bytes needs a count")?
                    .parse()?;
                config.plan_cache_max_bytes = (bytes > 0).then_some(bytes);
            }
            other => positional.push(other.to_string()),
        }
    }
    let [graph_path] = positional.as_slice() else {
        return Err(
            "usage: ktpm serve <graph.txt> [--addr host:port] [--store p] [--on-demand] [--block-cache-bytes n] [--workers n] [--parallel n] [--ttl secs] [--plan-cache n] [--plan-cache-bytes n] [--warm file] [--invalidation policy] [--event-loop] [--net-workers n] [--pipeline n] [--write-buf bytes] [--idle-timeout secs] [--sweep-interval-ms n]"
                .into(),
        );
    };
    let g = load_graph(graph_path)?;
    let t = std::time::Instant::now();
    // Unlike `query`, the default in-memory store here is a LiveStore:
    // same closure computation, but the UPDATE verb works. Persisted
    // and on-demand stores stay snapshots (UPDATE answers
    // ERR update-unsupported).
    let source: ktpm::storage::SharedSource = match (&store_path, on_demand) {
        (None, false) => LiveStore::new(g.clone()).into_shared(),
        _ => open_store(&g, &store_path, on_demand, block_cache_bytes)?,
    };
    let workers = config.workers;
    let handle = QueryEngine::new(g.interner().clone(), source, config);
    // Plan warm-up happens BEFORE the listener binds: the first client
    // request of a warmed query is a plan hit with zero discovery work.
    if let Some(path) = warm_path {
        let list = std::fs::read_to_string(&path)?;
        let t = std::time::Instant::now();
        // One query per line, `;` standing in for newlines exactly as
        // on the wire (`OPEN <algo> <query>`).
        let queries: Vec<String> = list
            .lines()
            .map(|l| l.replace(';', "\n"))
            .filter(|l| !l.trim().is_empty())
            .collect();
        let report = handle.warm_plans(queries.iter().map(String::as_str));
        println!(
            "warmed {} plans from {path} ({} plan bytes, {} skipped) in {:?}",
            report.warmed,
            report.plan_bytes,
            report.skipped,
            t.elapsed()
        );
    }
    // Either front end serves the same protocol over the same handle;
    // the boxed server is held only to keep its threads alive.
    let (local_addr, front_end, _server): (_, _, Box<dyn std::any::Any>) = if event_loop {
        let s = EventServer::spawn(handle, addr.as_str(), net_config)?;
        (s.local_addr(), "event loop", Box::new(s))
    } else {
        let s = Server::spawn(handle, addr.as_str())?;
        (s.local_addr(), "thread per connection", Box::new(s))
    };
    println!(
        "serving {} nodes / {} edges on {} ({} workers, {front_end}, setup {:?})",
        g.num_nodes(),
        g.num_edges(),
        local_addr,
        workers,
        t.elapsed()
    );
    println!(
        "protocol: OPEN <algo> <query> | NEXT <session> <n> | CLOSE <session> | STATS | UPDATE <ops>"
    );
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `ktpm blockd --store <path> [--listen host:port]`: serve a
/// snapshot's raw blocks over TCP for `--store tcp://host:port`
/// consumers. `--store` takes a sharded snapshot directory, its
/// MANIFEST path, or a plain single-file store (announced as a
/// synthesized one-file manifest).
fn cmd_blockd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut store: Option<String> = None;
    let mut listen = "127.0.0.1:7979".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => store = Some(it.next().ok_or("--store needs a path")?.clone()),
            "--listen" => listen = it.next().ok_or("--listen needs host:port")?.clone(),
            other => return Err(format!("unknown blockd option {other:?}").into()),
        }
    }
    let store = store.ok_or("usage: ktpm blockd --store <path> [--listen host:port]")?;
    let server = BlockServer::spawn(std::path::Path::new(&store), listen.as_str())?;
    println!("blockd serving {} on {}", store, server.local_addr());
    println!(
        "point query-side stores at --store tcp://{}",
        server.local_addr()
    );
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `ktpm store verify <store>`: re-checks every checksum in a
/// persisted snapshot — a single store file has each section and every
/// group block scrubbed. A sharded
/// snapshot (MANIFEST path or directory) checks the manifest CRC, then
/// every shard file's length and whole-file content hash against it,
/// then scrubs each shard; the first corrupt file is named in the
/// error. Exits nonzero (via the `Err` path in `main`) on the first
/// corruption.
fn cmd_store(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let [sub, store_arg] = args else {
        return Err("usage: ktpm store verify <store.tc|MANIFEST|dir>".into());
    };
    if sub != "verify" {
        return Err(format!("unknown store subcommand {sub:?} (expected verify)").into());
    }
    let path = std::path::Path::new(store_arg);
    let t = std::time::Instant::now();
    // Sharded snapshots first: a directory (must hold a MANIFEST — the
    // pointed error otherwise), or a file carrying the v4 magic.
    if path.is_dir() || file_has_v4_magic(path) {
        let manifest_path = if path.is_dir() {
            let p = path.join("MANIFEST");
            if !p.is_file() {
                return Err(format!(
                    "{store_arg} is a directory without a MANIFEST — did you mean the \
                     manifest path of a sharded snapshot (<dir>/MANIFEST)?"
                )
                .into());
            }
            p
        } else {
            path.to_path_buf()
        };
        let store = ShardedStore::open(&manifest_path).map_err(|e| format!("{store_arg}: {e}"))?;
        store.verify().map_err(|e| format!("{store_arg}: {e}"))?;
        println!(
            "{store_arg}: OK (v4 sharded, manifest + {} shard file(s) scrubbed, {:?})",
            store.shard_count(),
            t.elapsed()
        );
        return Ok(());
    }
    let store = PagedStore::open(path).map_err(|e| format!("{store_arg}: {e}"))?;
    store.verify().map_err(|e| format!("{store_arg}: {e}"))?;
    let io = store.io();
    println!(
        "{store_arg}: OK (v3 paged, {} blocks / {} bytes scrubbed, {:?})",
        io.block_reads,
        io.bytes_read,
        t.elapsed()
    );
    Ok(())
}
