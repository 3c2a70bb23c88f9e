//! Integration tests for the TCP serving tier: pipelining (byte-identical
//! to in-process dispatch), explicit shedding, idle timeouts, janitor
//! cadence, request panics, end-to-end sessions, and a many-session
//! concurrency check.

use ktpm_closure::ClosureTables;
use ktpm_core::{topk_full, ScoredMatch};
use ktpm_graph::fixtures::{citation_graph, paper_graph};
use ktpm_graph::{Dist, LabelId, LabeledGraph, NodeId, Score};
use ktpm_net::{EventServer, NetConfig};
use ktpm_query::TreeQuery;
use ktpm_service::{
    protocol, respond, NextBatch, QueryEngine, ServiceConfig, ServiceHandle, SessionId,
};
use ktpm_storage::{ClosureSource, EdgeCursor, IoSnapshot, MemStore, SharedSource};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn handle_for(g: &LabeledGraph, config: ServiceConfig) -> ServiceHandle {
    // Attach the data graph so `OPEN kgpm` sessions have an undirected
    // mirror to plan over; tree algorithms never look at it.
    let store = MemStore::new(ClosureTables::compute(g))
        .with_graph(g.clone())
        .into_shared();
    QueryEngine::new(g.interner().clone(), store, config)
}

fn handle_with(config: ServiceConfig) -> ServiceHandle {
    handle_for(&citation_graph(), config)
}

fn small_config() -> ServiceConfig {
    ServiceConfig::new().with_workers(2)
}

/// The oracle: top-k via Algorithm 1 on a private `MemStore`.
fn oracle(g: &LabeledGraph, query: &str, k: usize) -> Vec<ScoredMatch> {
    let store = MemStore::new(ClosureTables::compute(g));
    let q = TreeQuery::parse(query).unwrap().resolve(g.interner());
    topk_full(&q, &store, k)
}

fn oracle_scores(g: &LabeledGraph, query: &str, k: usize) -> Vec<Score> {
    scores(&oracle(g, query, k))
}

fn scores(ms: &[ScoredMatch]) -> Vec<Score> {
    ms.iter().map(|m| m.score).collect()
}

/// The replies a fresh in-process engine gives to `lines`, concatenated
/// — what the wire must reproduce byte for byte.
fn in_process(lines: &[&str]) -> String {
    let h = handle_with(small_config());
    lines.iter().map(|l| respond(&h, l)).collect()
}

/// Writes every line back-to-back without reading anything, half-closes
/// the write side, and returns the complete response stream. This is
/// pipelining in its purest form: if the server required a round-trip
/// per request, or answered out of order, the returned text would show
/// it.
fn pipeline_exchange(addr: SocketAddr, lines: &[&str]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut batch = String::new();
    for l in lines {
        batch.push_str(l);
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).unwrap();
    stream.flush().unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

/// The pipelined script the wire and in-process dispatch must answer
/// identically. A fresh engine assigns session ids 1, 2, ... so the
/// `NEXT`/`CLOSE` lines can target the ids the `OPEN`s *will* return.
const SCRIPT: &[&str] = &[
    "OPEN topk-en C -> E; C -> S",
    "NEXT 1 2",
    "NEXT 1 2",
    "NEXT 1 10",
    "OPEN topk C -> S",
    "NEXT 2 5",
    "CLOSE 2",
    "CLOSE 1",
    "NEXT 1 1",
];

fn check_script_response(resp: &str) {
    let lines: Vec<&str> = resp.lines().collect();
    // 9 requests; the three-batch NEXT sequence over the 5-match result
    // adds 2 + 2 + 1 match lines, and `NEXT 2 5` adds its own matches.
    assert_eq!(lines[0], "OK 1", "first OPEN");
    assert!(lines[1].starts_with("OK 2 MORE"), "{resp:?}");
    assert!(lines[4].starts_with("OK 2 MORE"), "{resp:?}");
    assert!(lines[7].starts_with("OK 1 DONE"), "{resp:?}");
    let g = citation_graph();
    let expected = oracle_scores(&g, "C -> E\nC -> S", 10);
    let got: Vec<Score> = lines
        .iter()
        .take(9)
        .filter(|l| l.starts_with("M "))
        .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(got, expected, "pipelined batches stream the oracle order");
    assert_eq!(lines[9], "OK 2", "second OPEN");
    assert!(lines[10].starts_with("OK "), "{resp:?}");
    assert_eq!(*lines.last().unwrap(), "ERR unknown-session 1");
    assert!(
        lines[lines.len() - 3..].starts_with(&["OK closed", "OK closed"]),
        "CLOSE responses arrive in order: {resp:?}"
    );
}

#[test]
fn pipelined_requests_answer_in_order_on_both_front_ends() {
    // Over the wire, the whole script written before any read.
    let ev = EventServer::spawn(
        handle_with(small_config()),
        ("127.0.0.1", 0),
        NetConfig::default(),
    )
    .unwrap();
    let ev_resp = pipeline_exchange(ev.local_addr(), SCRIPT);
    check_script_response(&ev_resp);

    // In process, one `respond` call per line: the acceptance bar is a
    // byte-identical response stream.
    let local = in_process(SCRIPT);
    check_script_response(&local);
    assert_eq!(ev_resp, local);

    ev.shutdown();
}

#[test]
fn kgpm_patterns_stream_identically_on_both_front_ends() {
    // A cyclic graph pattern is not tree-parseable, so this exercises
    // the pattern branch of `OPEN` end to end over the wire. The
    // triangle has 12 matches on citation_graph; pull them in two
    // batches and drain.
    let script: &[&str] = &[
        "OPEN kgpm C -> E; E -> S; S -> C",
        "NEXT 1 4",
        "NEXT 1 100",
        "CLOSE 1",
    ];
    let ev = EventServer::spawn(
        handle_with(small_config()),
        ("127.0.0.1", 0),
        NetConfig::default(),
    )
    .unwrap();
    let ev_resp = pipeline_exchange(ev.local_addr(), script);
    assert_eq!(
        ev_resp,
        in_process(script),
        "wire and in-process replies agree byte-for-byte"
    );

    let lines: Vec<&str> = ev_resp.lines().collect();
    assert_eq!(lines[0], "OK 1", "OPEN kgpm: {ev_resp:?}");
    let scores: Vec<Score> = lines
        .iter()
        .filter(|l| l.starts_with("M "))
        .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(scores.len(), 12, "triangle matches: {ev_resp:?}");
    let mut sorted = scores.clone();
    sorted.sort();
    assert_eq!(scores, sorted, "ranked order over the wire");
    assert!(
        lines.iter().any(|l| l.starts_with("OK 8 DONE")),
        "drain reports DONE: {ev_resp:?}"
    );

    ev.shutdown();
}

#[test]
fn stats_over_the_wire_reports_paged_store_io() {
    // A paged-store-backed engine behind the event front end: STATS
    // must carry the io_* fields, with the block-cache counters showing
    // real traffic after a query and hits after a warm replay.
    let g = citation_graph();
    let tables = ClosureTables::compute(&g);
    let mut path = std::env::temp_dir();
    path.push(format!("ktpm-net-paged-{}.bin", std::process::id()));
    ktpm_storage::write_store_v3(&tables, &path, 2).unwrap();
    let store = ktpm_storage::PagedStore::open(&path).unwrap().into_shared();
    let handle = QueryEngine::new(g.interner().clone(), store, small_config());
    let server = EventServer::spawn(handle, ("127.0.0.1", 0), NetConfig::new()).unwrap();
    // Same query, two algorithms: the lazy session streams some blocks
    // (misses); the full-loading session then fetches every block of
    // the same pair tables, re-hitting the streamed ones. (An identical
    // second session would be served from the result cache and never
    // touch storage at all.)
    let script = [
        "OPEN topk-en C -> E; C -> S",
        "NEXT 1 10",
        "OPEN topk C -> E; C -> S",
        "NEXT 2 10",
        "STATS",
    ];
    let resp = pipeline_exchange(server.local_addr(), &script);
    let stats = resp
        .lines()
        .find(|l| l.contains("io_block_reads="))
        .unwrap_or_else(|| panic!("no io_ fields in {resp}"));
    let field = |name: &str| -> u64 {
        stats
            .split(&format!(" {name}="))
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .unwrap_or_else(|| panic!("{name} missing from {stats}"))
            .parse()
            .expect("numeric field")
    };
    assert!(field("io_block_reads") > 0, "{stats}");
    assert!(
        field("io_cache_misses") > 0,
        "cold streaming fetches blocks"
    );
    assert!(
        field("io_cache_hits") > 0,
        "the full load replays the lazily-streamed blocks warm: {stats}"
    );
    assert!(field("io_cache_bytes_resident") > 0);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn overload_sheds_in_order_with_err_overloaded() {
    let handle = handle_with(ServiceConfig::new().with_workers(1));
    let server = EventServer::spawn(
        handle.clone(),
        ("127.0.0.1", 0),
        NetConfig::new().with_max_pipeline(1),
    )
    .unwrap();
    // A burst can race the (fast) worker draining the queue, so sheds
    // are not guaranteed on any single attempt — but with a pipeline
    // bound of 1 and 300 requests landing in one segment, a handful of
    // attempts is plenty.
    let burst: Vec<&str> = std::iter::repeat_n("STATS", 300).collect();
    let mut shed_seen = false;
    for _ in 0..20 {
        let resp = pipeline_exchange(server.local_addr(), &burst);
        let lines: Vec<&str> = resp.lines().collect();
        // Completeness + order even under shedding: one response per
        // request, each either served or shed, nothing dropped.
        assert_eq!(lines.len(), burst.len(), "every request gets an answer");
        assert!(lines
            .iter()
            .all(|l| l.starts_with("OK sessions_active=") || *l == "ERR overloaded"));
        if resp.contains("ERR overloaded") {
            shed_seen = true;
            break;
        }
    }
    assert!(shed_seen, "bounded queue never shed across 20 floods");
    let m = handle.stats().metrics;
    assert!(m.shed_total > 0, "sheds are counted");
    assert_eq!(m.errors, 0, "sheds are not engine errors");
    server.shutdown();
}

#[test]
fn event_loop_closes_idle_connections_but_keeps_sessions() {
    let handle = handle_with(small_config().with_idle_timeout(Some(Duration::from_millis(150))));
    let server =
        EventServer::spawn(handle.clone(), ("127.0.0.1", 0), NetConfig::default()).unwrap();
    let mut first = TcpStream::connect(server.local_addr()).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(first.try_clone().unwrap());
    writeln!(first, "OPEN topk-en C -> E; C -> S").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert_eq!(resp.trim(), "OK 1");
    // Go quiet: the server must hang up (EOF, not a client timeout).
    let mut rest = String::new();
    let start = Instant::now();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "idle close must come from the server, not the read timeout"
    );
    // The session outlives its connection: resume it from a new one.
    let resp = pipeline_exchange(server.local_addr(), &["NEXT 1 100"]);
    assert!(resp.starts_with("OK 5 DONE"), "{resp:?}");
    // Both connections are gone; the reactor released the gauge.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().metrics.connections_active != 0 {
        assert!(Instant::now() < deadline, "connection gauge never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn janitor_sweep_interval_is_config_not_hardcoded() {
    // A sweep interval far beyond the test: sessions past their TTL
    // stay resident because the janitor never fires (the old hard-coded
    // 200 ms sweep would have evicted). Shutdown must still be prompt.
    let slow = handle_with(
        small_config()
            .with_session_ttl(Duration::from_millis(20))
            .with_sweep_interval(Duration::from_secs(3600)),
    );
    let server = EventServer::spawn(slow.clone(), ("127.0.0.1", 0), NetConfig::default()).unwrap();
    let resp = pipeline_exchange(server.local_addr(), &["OPEN topk C -> E"]);
    assert_eq!(resp.trim(), "OK 1");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        slow.stats().sessions_active,
        1,
        "an hour-long sweep interval must not evict at 200 ms"
    );
    let shutdown_start = Instant::now();
    server.shutdown();
    assert!(
        shutdown_start.elapsed() < Duration::from_secs(5),
        "shutdown does not wait out the sweep interval"
    );

    // A tight interval evicts promptly.
    let fast = handle_with(
        small_config()
            .with_session_ttl(Duration::from_millis(20))
            .with_sweep_interval(Duration::from_millis(10)),
    );
    let server = EventServer::spawn(fast.clone(), ("127.0.0.1", 0), NetConfig::default()).unwrap();
    let resp = pipeline_exchange(server.local_addr(), &["OPEN topk C -> E"]);
    assert_eq!(resp.trim(), "OK 1");
    let deadline = Instant::now() + Duration::from_secs(5);
    while fast.stats().sessions_active != 0 {
        assert!(Instant::now() < deadline, "janitor never swept");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn oversized_request_lines_close_the_connection_with_an_error() {
    let server = EventServer::spawn(
        handle_with(small_config()),
        ("127.0.0.1", 0),
        NetConfig::new().with_max_line_len(256),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&[b'x'; 4096]).unwrap(); // no newline, ever
    stream.flush().unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert_eq!(out, "ERR line-too-long\n");
    server.shutdown();
}

/// The acceptance-criteria concurrency check: hundreds of concurrent
/// open sessions, all driven with pipelined `NEXT`, correct matches,
/// zero sheds, zero errors.
#[test]
fn five_hundred_concurrent_pipelined_sessions() {
    const CONNS: usize = 64;
    const SESSIONS_PER_CONN: usize = 8; // 512 concurrent sessions
    let handle = handle_with(ServiceConfig::new().with_workers(4));
    let server =
        EventServer::spawn(handle.clone(), ("127.0.0.1", 0), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let g = citation_graph();
    let expected = oracle_scores(&g, "C -> E\nC -> S", 10);

    let clients: Vec<_> = (0..CONNS)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                // Phase 1: pipeline all OPENs, then read the ids.
                let mut batch = String::new();
                for _ in 0..SESSIONS_PER_CONN {
                    batch.push_str("OPEN topk-en C -> E; C -> S\n");
                }
                writer.write_all(batch.as_bytes()).unwrap();
                let mut ids = Vec::new();
                for _ in 0..SESSIONS_PER_CONN {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    ids.push(
                        line.trim()
                            .strip_prefix("OK ")
                            .unwrap_or_else(|| panic!("OPEN failed: {line:?}"))
                            .to_string(),
                    );
                }
                // Phase 2: rounds of pipelined NEXT across every
                // session; collect each session's score sequence.
                let mut scores: Vec<Vec<Score>> = vec![Vec::new(); ids.len()];
                for _round in 0..3 {
                    let mut batch = String::new();
                    for id in &ids {
                        batch.push_str(&format!("NEXT {id} 2\n"));
                    }
                    writer.write_all(batch.as_bytes()).unwrap();
                    for s in scores.iter_mut() {
                        let mut header = String::new();
                        reader.read_line(&mut header).unwrap();
                        let count: usize = header
                            .split_whitespace()
                            .nth(1)
                            .and_then(|c| c.parse().ok())
                            .unwrap_or_else(|| panic!("bad NEXT header {header:?}"));
                        for _ in 0..count {
                            let mut m = String::new();
                            reader.read_line(&mut m).unwrap();
                            s.push(m.split_whitespace().nth(1).unwrap().parse().unwrap());
                        }
                    }
                }
                for s in &scores {
                    assert_eq!(*s, expected, "pipelined session diverged from oracle");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let stats = handle.stats();
    assert_eq!(
        stats.sessions_active,
        CONNS * SESSIONS_PER_CONN,
        "all sessions concurrently open"
    );
    assert_eq!(stats.metrics.shed_total, 0, "nominal load must not shed");
    assert_eq!(stats.metrics.errors, 0);
    // Clients hung up; the reactor notices EOFs and drains the gauge.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().metrics.connections_active != 0 {
        assert!(Instant::now() < deadline, "connection gauge never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Request panics
// ---------------------------------------------------------------------

/// A `MemStore` that panics whenever the closure table of one label
/// pair is read: a deterministic fault inside the engine, below the
/// session layer.
struct PanicOnPair {
    inner: SharedSource,
    pair: (LabelId, LabelId),
}

impl PanicOnPair {
    fn check(&self, a: LabelId, b: LabelId) {
        if (a, b) == self.pair {
            panic!("injected fault reading label pair {a:?} -> {b:?}");
        }
    }
}

impl ClosureSource for PanicOnPair {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn node_label(&self, v: NodeId) -> LabelId {
        self.inner.node_label(v)
    }
    fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        self.inner.pair_keys()
    }
    fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        self.check(a, b);
        self.inner.load_d(a, b)
    }
    fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        self.check(a, b);
        self.inner.load_e(a, b)
    }
    fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        self.check(a, b);
        self.inner.load_pair(a, b)
    }
    fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        self.check(a, self.inner.node_label(v));
        self.inner.incoming_cursor(a, v)
    }
    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        self.check(self.inner.node_label(u), self.inner.node_label(v));
        self.inner.lookup_dist(u, v)
    }
    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
    fn reset_io(&self) {
        self.inner.reset_io()
    }
}

#[test]
fn a_panicking_request_costs_one_reply_not_a_worker() {
    // More panics than executor threads: each one must answer
    // `ERR internal` and leave its worker serving. (A panic that kills
    // the worker instead leaves the server answering nothing, which the
    // client read timeouts turn into a failure, not a hang.)
    const WORKERS: usize = 2;
    const PANICS: usize = 5;
    let g = citation_graph();
    let label = |name: &str| g.interner().get(name).unwrap();
    let store = Arc::new(PanicOnPair {
        inner: MemStore::new(ClosureTables::compute(&g)).into_shared(),
        pair: (label("C"), label("S")),
    });
    let handle = QueryEngine::new(
        g.interner().clone(),
        store,
        ServiceConfig::new().with_workers(WORKERS),
    );
    let server =
        EventServer::spawn(handle.clone(), ("127.0.0.1", 0), NetConfig::default()).unwrap();

    let mut c = Client::connect(server.local_addr());
    let ids: Vec<SessionId> = (0..PANICS)
        .map(|_| c.open("topk-en", "C -> E; C -> S"))
        .collect();
    for id in &ids {
        let reply = c.send_line(&format!("NEXT {id} 3"));
        assert!(reply.starts_with("ERR internal "), "{reply:?}");
    }
    // Each panicking NEXT dropped its session.
    for id in &ids {
        let reply = c.send_line(&format!("NEXT {id} 1"));
        assert_eq!(reply.trim(), format!("ERR unknown-session {id}"));
    }
    assert_eq!(handle.stats().sessions_active, 0);
    let errors = handle.stats().metrics.errors;
    assert_eq!(errors, (2 * PANICS) as u64, "one error per reply");

    // A healthy query still streams the oracle, on the same connection
    // and on a new one.
    let want = oracle(&g, "C -> E", 100);
    assert!(!want.is_empty());
    let mut fresh = Client::connect(server.local_addr());
    for client in [&mut c, &mut fresh] {
        let id = client.open("topk-en", "C -> E");
        let batch = client.next(id, 100);
        assert!(batch.exhausted);
        assert_eq!(batch.matches, want);
        client.close(id);
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// End-to-end sessions
// ---------------------------------------------------------------------

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send_line(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        resp
    }

    fn open(&mut self, algo: &str, query_semicolons: &str) -> SessionId {
        let resp = self.send_line(&format!("OPEN {algo} {query_semicolons}"));
        resp.trim()
            .strip_prefix("OK ")
            .unwrap_or_else(|| panic!("open failed: {resp:?}"))
            .parse()
            .unwrap()
    }

    fn next(&mut self, id: SessionId, n: usize) -> NextBatch {
        let mut text = self.send_line(&format!("NEXT {id} {n}"));
        let count: usize = text
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("bad NEXT header {text:?}"));
        for _ in 0..count {
            self.reader.read_line(&mut text).unwrap();
        }
        protocol::parse_next_response(&text).unwrap()
    }

    fn close(&mut self, id: SessionId) {
        let resp = self.send_line(&format!("CLOSE {id}"));
        assert_eq!(resp.trim(), "OK closed");
    }
}

#[test]
fn tcp_end_to_end_with_two_concurrent_clients() {
    let g = citation_graph();
    let handle = handle_for(&g, ServiceConfig::default());
    let server =
        EventServer::spawn(handle.clone(), ("127.0.0.1", 0), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let want = oracle(&g, "C -> E\nC -> S", 100);
    assert_eq!(want.len(), 5);

    // The acceptance scenario: two concurrent clients each run
    // OPEN / NEXT / NEXT / CLOSE and must see exactly topk_full's
    // stream (same engine + same algorithm reproduces tie order).
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let id = c.open("topk", "C -> E; C -> S");
                let first = c.next(id, 2);
                assert!(!first.exhausted);
                let rest = c.next(id, 100);
                assert!(rest.exhausted);
                let got: Vec<ScoredMatch> = first.matches.into_iter().chain(rest.matches).collect();
                assert_eq!(got, want);
                c.close(id);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // STATS over the wire reflects both clients.
    let mut c = Client::connect(addr);
    let stats = c.send_line("STATS");
    assert!(stats.contains("sessions_opened=2"), "{stats:?}");
    assert!(stats.contains("sessions_closed=2"), "{stats:?}");
    assert!(stats.contains("errors=0"), "{stats:?}");
    server.shutdown();
}

#[test]
fn tcp_sessions_are_isolated_between_clients() {
    let g = paper_graph();
    let handle = handle_for(&g, ServiceConfig::default());
    let server = EventServer::spawn(handle, ("127.0.0.1", 0), NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    let qa = a.open("topk-en", "a -> b; a -> c; c -> d; c -> e");
    let qb = b.open("topk-en", "a -> c");
    assert_ne!(qa, qb);

    // Interleave: each client advances its own cursor only.
    let a1 = a.next(qa, 1);
    let b1 = b.next(qb, 1);
    let a2 = a.next(qa, 1);
    let b2 = b.next(qb, 1);
    let want_a = oracle(&g, "a -> b\na -> c\nc -> d\nc -> e", 2);
    let want_b = oracle(&g, "a -> c", 2);
    assert_eq!(scores(&[a1.matches, a2.matches].concat()), scores(&want_a));
    assert_eq!(scores(&[b1.matches, b2.matches].concat()), scores(&want_b));

    // Closing one session must not affect the other.
    a.close(qa);
    let b3 = b.next(qb, 100);
    assert!(b3.exhausted);
    server.shutdown();
}

#[test]
fn tcp_kgpm_sessions_stream_park_and_resume() {
    // Graph patterns over the wire: OPEN kgpm with a cyclic edge list,
    // pull across batch boundaries (the session parks the KgpmStream
    // between requests), and a second client's re-open of the same
    // pattern is a plan hit.
    let g = citation_graph();
    let handle = handle_for(&g, ServiceConfig::default());
    let server =
        EventServer::spawn(handle.clone(), ("127.0.0.1", 0), NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect(addr);
    let id = c.open("kgpm", "C -> E; E -> S; S -> C");
    let first = c.next(id, 4);
    assert_eq!(first.matches.len(), 4);
    assert!(!first.exhausted);
    let rest = c.next(id, 100);
    assert!(rest.exhausted);
    let all: Vec<ScoredMatch> = first.matches.into_iter().chain(rest.matches).collect();
    assert_eq!(all.len(), 12, "3 C × 2 E × 2 S pairwise-connected triples");
    assert!(all.windows(2).all(|w| w[0].score <= w[1].score));
    c.close(id);

    let mut d = Client::connect(addr);
    let id = d.open("kgpm", "C -> E; E -> S; S -> C");
    let again = d.next(id, 100);
    assert!(again.exhausted);
    assert_eq!(again.matches, all, "warm kgpm open streams identical bytes");
    d.close(id);
    let stats = handle.stats().metrics;
    assert_eq!(stats.plan_hits, 1, "second open hit the pattern plan");
    assert_eq!(stats.errors, 0);
    server.shutdown();
}
