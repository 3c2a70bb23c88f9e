//! # ktpm-net
//!
//! The serving tier: the one TCP front end for a
//! [`ktpm_service::ServiceHandle`], a readiness loop on a small fixed
//! thread set.
//!
//! The paper's enumeration model already decouples *sessions* from
//! *connections*: a parked session is a `Box<dyn MatchStream>` in the
//! engine's session table, costing memory but no thread. This crate
//! finishes the decoupling on the transport side, so thousands of
//! open-but-quiet clients cost sockets, not threads:
//!
//! * **One reactor thread** owns every socket. The listener and all
//!   connections are non-blocking; the reactor sweeps them in a
//!   readiness loop (accept → read/parse → flush), parking briefly
//!   ([`NetConfig::poll_interval`]) when nothing is ready. No external
//!   async runtime, no OS-specific poller — plain `std::net`
//!   non-blocking I/O, in keeping with the workspace's no-external-deps
//!   rule.
//! * **A fixed executor set**
//!   ([`ktpm_service::ServiceConfig::workers`] threads) runs requests;
//!   each request runs to completion on its worker, with no second
//!   hand-off. A connection is handed to at most one worker at a time,
//!   which drains its queued requests in order — that exclusivity is
//!   the whole pipelining-order guarantee. A request that panics
//!   answers `ERR internal` and the worker keeps serving.
//! * **Pipelining**: request parsing is incremental, so a client can
//!   write `OPEN` + several `NEXT` lines back-to-back and read the
//!   responses — complete, in request order, rendered by
//!   [`ktpm_service::respond`] — without a round-trip between them.
//! * **Explicit backpressure**: each connection has a bounded request
//!   queue ([`NetConfig::max_pipeline`]) and write buffer
//!   ([`NetConfig::max_write_buffer`]). Requests beyond either bound
//!   are shed with an in-order `ERR overloaded` (counted in the
//!   `shed_total` STATS field) instead of queueing without limit; past
//!   a hard pending cap the reactor stops reading the socket entirely
//!   and TCP flow control holds the client.
//! * **Idle timeouts**: connections silent for
//!   [`ktpm_service::ServiceConfig::idle_timeout`] are closed. Their
//!   sessions survive (session TTL is separate) and can be resumed
//!   from a new connection.
//!
//! The crate also hosts the storage tier's block server
//! ([`BlockServer`], the `ktpm blockd` subcommand) — a second,
//! binary-protocol reactor serving raw snapshot blocks to
//! [`ktpm_storage::RemoteStore`] clients.
//!
//! ```no_run
//! use ktpm_net::{EventServer, NetConfig};
//! # fn handle() -> ktpm_service::ServiceHandle { unimplemented!() }
//! let server = EventServer::spawn(handle(), ("127.0.0.1", 0), NetConfig::default()).unwrap();
//! println!("serving on {}", server.local_addr());
//! # server.shutdown();
//! ```

mod blockd;
mod conn;
mod reactor;

pub use blockd::BlockServer;
pub use reactor::EventServer;

use std::time::Duration;

/// Tuning knobs for the front end's per-connection bounds. Engine-wide
/// behavior (executor width, idle timeout, sweep interval, session
/// TTL) lives in [`ktpm_service::ServiceConfig`] instead; the server
/// reads it from the handle.
///
/// `#[non_exhaustive]`: construct via [`NetConfig::default`] (or
/// [`NetConfig::new`]) and refine with the builder-style `with_*`
/// methods, so future knobs land without breaking embedders.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct NetConfig {
    /// Per-connection bound on queued (pipelined) engine requests;
    /// requests past it are shed with `ERR overloaded`.
    pub max_pipeline: usize,
    /// Per-connection bound on unflushed response bytes; while a
    /// slow-reading client is over it, further requests are shed.
    pub max_write_buffer: usize,
    /// How long the reactor parks when no socket made progress. Bounds
    /// the latency added to a response that became ready while the
    /// reactor slept; lower burns more idle CPU.
    pub poll_interval: Duration,
    /// Maximum bytes of a single request line; beyond it the connection
    /// gets `ERR line-too-long` and is closed (a newline-less flood
    /// must not grow the read buffer forever).
    pub max_line_len: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_pipeline: 64,
            max_write_buffer: 256 * 1024,
            poll_interval: Duration::from_micros(500),
            max_line_len: 64 * 1024,
        }
    }
}

impl NetConfig {
    /// The default configuration (alias of [`NetConfig::default`],
    /// reads better at the head of a builder chain).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets [`NetConfig::max_pipeline`].
    pub fn with_max_pipeline(mut self, max: usize) -> Self {
        self.max_pipeline = max;
        self
    }

    /// Sets [`NetConfig::max_write_buffer`].
    pub fn with_max_write_buffer(mut self, bytes: usize) -> Self {
        self.max_write_buffer = bytes;
        self
    }

    /// Sets [`NetConfig::poll_interval`].
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// Sets [`NetConfig::max_line_len`].
    pub fn with_max_line_len(mut self, bytes: usize) -> Self {
        self.max_line_len = bytes;
        self
    }
}
