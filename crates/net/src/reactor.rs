//! The readiness loop ([`EventServer`]) and its executor workers.
//!
//! One reactor thread owns every socket: it accepts, reads, parses
//! request lines incrementally, and flushes response bytes — all
//! non-blocking. A fixed worker set executes queued requests against
//! the [`ServiceHandle`] and appends responses to the owning
//! connection's write buffer. Parked connections are just entries in
//! the reactor's vector: no thread, no stack, no kernel object beyond
//! the socket itself.

use crate::conn::{drain_lines, ConnState, Req, SharedConn};
use crate::NetConfig;
use ktpm_service::{respond, ServiceHandle};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The executor job queue: a connection appears here at most once at a
/// time (guarded by its `in_flight` flag), and the worker that takes it
/// drains that connection's whole pending queue in request order.
#[derive(Default)]
struct ExecQueue {
    jobs: Mutex<VecDeque<SharedConn>>,
    ready: Condvar,
}

impl ExecQueue {
    fn push(&self, conn: SharedConn) {
        self.jobs.lock().expect("exec queue lock").push_back(conn);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` once `stop` is raised. The wait
    /// is time-sliced so shutdown never needs a wakeup for every
    /// worker to notice.
    fn pop(&self, stop: &AtomicBool) -> Option<SharedConn> {
        let mut jobs = self.jobs.lock().expect("exec queue lock");
        loop {
            if let Some(conn) = jobs.pop_front() {
                return Some(conn);
            }
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(jobs, Duration::from_millis(50))
                .expect("exec queue lock");
            jobs = guard;
        }
    }
}

/// The reactor-owned half of a connection: the socket, the raw read
/// buffer awaiting a newline, and the idle clock.
struct Connection {
    stream: TcpStream,
    read_buf: Vec<u8>,
    shared: SharedConn,
    last_activity: Instant,
}

/// An event-driven TCP server over a [`ServiceHandle`]: one reactor
/// thread multiplexes all connections (non-blocking readiness loop), a
/// fixed worker set executes requests, and a janitor drives session-TTL
/// eviction. Dropping it stops all three.
///
/// Parked sessions and idle connections hold **no thread**, clients
/// may pipeline requests (responses stream back in request order), and
/// overload is explicit: bounded per-connection request queues and
/// write buffers shed with `ERR overloaded`, counted in `shed_total`.
/// Every reply renders through [`ktpm_service::respond`].
pub struct EventServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ExecQueue>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    janitor: Option<JoinHandle<()>>,
}

impl EventServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `handle` on the
    /// reactor plus one executor thread per
    /// [`ktpm_service::ServiceConfig::workers`]. Idle-connection and
    /// session-sweep behavior come from the same config
    /// (`idle_timeout`, `sweep_interval`).
    pub fn spawn(
        handle: ServiceHandle,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<EventServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ExecQueue::default());

        let workers = (0..handle.config().workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let handle = handle.clone();
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("ktpm-net-exec-{i}"))
                    .spawn(move || worker_loop(&queue, &handle, &stop))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let reactor = {
            let queue = Arc::clone(&queue);
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("ktpm-net-reactor".into())
                .spawn(move || reactor_loop(listener, &handle, &queue, &config, &stop))?
        };
        let janitor = {
            let stop = Arc::clone(&stop);
            let interval = handle.config().sweep_interval;
            std::thread::Builder::new()
                .name("ktpm-net-janitor".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        handle.sweep_expired();
                        sleep_interruptible(&stop, interval);
                    }
                })?
        };
        Ok(EventServer {
            addr,
            stop,
            queue,
            reactor: Some(reactor),
            workers,
            janitor: Some(janitor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins every thread. Established connections
    /// are dropped (clients observe EOF); in-flight requests finish.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.queue.ready.notify_all();
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.janitor.take() {
            let _ = t.join();
        }
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Sleeps `total`, returning early once `stop` is raised (checked every
/// 50 ms) — so large sweep intervals never delay shutdown.
fn sleep_interruptible(stop: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Relaxed) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(50)));
    }
}

fn reactor_loop(
    listener: TcpListener,
    handle: &ServiceHandle,
    queue: &Arc<ExecQueue>,
    cfg: &NetConfig,
    stop: &AtomicBool,
) {
    let idle_timeout = handle.config().idle_timeout;
    let mut conns: Vec<Connection> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        // Accept everything ready (the listener is non-blocking).
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are latency-sensitive single lines;
                    // never let Nagle hold them back.
                    let _ = stream.set_nodelay(true);
                    handle.metrics().connection_opened();
                    conns.push(Connection {
                        stream,
                        read_buf: Vec::new(),
                        shared: Arc::new(Mutex::new(ConnState::default())),
                        last_activity: Instant::now(),
                    });
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept failures (EMFILE, ...): retry next
                // tick; the tick sleep below is the backoff.
                Err(_) => break,
            }
        }
        // One readiness sweep over every connection.
        let mut i = 0;
        while i < conns.len() {
            let (alive, progressed) = tick(&mut conns[i], handle, queue, cfg, idle_timeout);
            progress |= progressed;
            if alive {
                i += 1;
            } else {
                drop(conns.swap_remove(i));
                handle.metrics().connection_closed();
                progress = true;
            }
        }
        // Nothing moved: park instead of spinning. Worker completions
        // land in write buffers and are flushed next tick, so the park
        // interval bounds the added response latency.
        if !progress {
            std::thread::sleep(cfg.poll_interval);
        }
    }
    for _ in conns.drain(..) {
        handle.metrics().connection_closed();
    }
}

/// One readiness pass over one connection: read + parse, flush, decide
/// liveness. Returns `(alive, progressed)`.
fn tick(
    conn: &mut Connection,
    handle: &ServiceHandle,
    queue: &Arc<ExecQueue>,
    cfg: &NetConfig,
    idle_timeout: Option<Duration>,
) -> (bool, bool) {
    let mut progressed = false;
    // The hard pending bound (engine requests + shed markers): past it
    // the reactor stops reading the socket entirely, so a flooding
    // client is held by TCP flow control while its markers drain.
    let hard_cap = cfg.max_pipeline * 2 + 16;
    let paused = {
        let s = conn.shared.lock().expect("conn lock");
        s.closing || s.eof || s.pending.len() >= hard_cap
    };
    if !paused {
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Client half-closed: serve what was pipelined,
                    // then close once drained.
                    conn.shared.lock().expect("conn lock").eof = true;
                    progressed = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    conn.last_activity = Instant::now();
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    parse_available(conn, handle, queue, cfg);
                    if conn.read_buf.len() > cfg.max_line_len {
                        let mut s = conn.shared.lock().expect("conn lock");
                        s.push_response(b"ERR line-too-long\n");
                        s.pending.clear();
                        s.closing = true;
                        break;
                    }
                    if conn.shared.lock().expect("conn lock").pending.len() >= hard_cap {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (false, true),
            }
        }
    }
    // Flush whatever the workers owe this client.
    {
        let mut s = conn.shared.lock().expect("conn lock");
        while s.unsent() > 0 {
            match conn.stream.write(&s.write_buf[s.written..]) {
                Ok(0) => return (false, true),
                Ok(n) => {
                    s.written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (false, true),
            }
        }
        if s.written > 0 && s.written == s.write_buf.len() {
            s.write_buf.clear();
            s.written = 0;
        }
        if (s.closing || s.eof) && s.drained() {
            return (false, true);
        }
    }
    // Idle connections (no request for the whole window, nothing owed)
    // are hung up on — they cost a sweep iteration, not a thread, but
    // sockets are still finite.
    if let Some(t) = idle_timeout {
        if conn.last_activity.elapsed() > t && conn.shared.lock().expect("conn lock").drained() {
            return (false, true);
        }
    }
    (true, progressed)
}

/// Splits complete request lines out of the connection's read buffer
/// and queues them — or sheds them, in order — applying the pipeline
/// and write-buffer bounds.
fn parse_available(
    conn: &mut Connection,
    handle: &ServiceHandle,
    queue: &Arc<ExecQueue>,
    cfg: &NetConfig,
) {
    let shared = &conn.shared;
    drain_lines(&mut conn.read_buf, |line| {
        if line.trim().is_empty() {
            return;
        }
        let mut s = shared.lock().expect("conn lock");
        // Shed-on-full: the request queue bound caps engine work in
        // flight per connection; the write-buffer bound caps memory a
        // slow-reading client can pin. Either way the client gets an
        // in-order `ERR overloaded` for this request.
        if s.depth() >= cfg.max_pipeline || s.unsent() > cfg.max_write_buffer {
            handle.metrics().shed();
            s.pending.push_back(Req::Shed);
        } else {
            s.pending.push_back(Req::Line(line.to_string()));
            handle.metrics().queue_depth_observed(s.depth() as u64);
        }
        if !s.in_flight {
            s.in_flight = true;
            drop(s);
            queue.push(Arc::clone(shared));
        }
    });
}

/// Executor worker: takes a connection off the queue and drains its
/// pending requests in order, running each one right here and
/// appending its response to the write buffer. `in_flight` exclusivity
/// is what makes pipelined responses come back in request order;
/// [`respond`] turns a panic into `ERR internal`, so the loop always
/// reaches the `in_flight = false` hand-back.
fn worker_loop(queue: &ExecQueue, handle: &ServiceHandle, stop: &AtomicBool) {
    while let Some(conn) = queue.pop(stop) {
        loop {
            let req = {
                let mut s = conn.lock().expect("conn lock");
                if s.closing {
                    s.pending.clear();
                    s.in_flight = false;
                    break;
                }
                match s.pending.pop_front() {
                    Some(r) => r,
                    None => {
                        s.in_flight = false;
                        break;
                    }
                }
            };
            let resp = match req {
                Req::Line(line) => respond(handle, &line),
                Req::Shed => "ERR overloaded\n".to_string(),
            };
            conn.lock()
                .expect("conn lock")
                .push_response(resp.as_bytes());
        }
    }
}
