//! The wire client of the traced runs' `net` probe. It sends requests
//! to an in-process `ktpm_net::EventServer` over one connection, open
//! loop on a seeded Poisson schedule. Each request is
//! `OPEN topk-en <q>` then pipelined `NEXT <id> 10` / `CLOSE <id>`.

use crate::trace::Tracer;
use ktpm_core::ScoredMatch;
use ktpm_service::protocol::parse_next_response;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Matches per `NEXT`.
pub const BATCH: usize = 10;
/// Socket read timeout; hitting it counts as a failed request.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Renders a tree query in the text format, one edge per line.
pub fn query_text(q: &ktpm_query::TreeQuery) -> String {
    let token = |u: ktpm_query::QNodeId| match q.label_name(u) {
        Some(l) => format!("{l}#{}", u.index()),
        None => format!("*#{}", u.index()),
    };
    q.edges()
        .map(|(p, c, kind)| {
            let arrow = match kind {
                ktpm_query::EdgeKind::Child => "=>",
                ktpm_query::EdgeKind::Descendant => "->",
            };
            format!("{} {arrow} {}\n", token(p), token(c))
        })
        .collect()
}

/// A query text on one line, as the wire protocol takes it.
pub fn one_line(text: &str) -> String {
    text.trim_end().replace('\n', "; ")
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub scheduled: Instant,
    /// When the connection was free to send (`max(scheduled, previous done)`).
    pub ready: Instant,
    pub sent: Instant,
    /// `OPEN` reply arrival.
    pub opened: Option<Instant>,
    /// `NEXT` header arrival.
    pub first: Option<Instant>,
    pub done: Instant,
    /// The `NEXT` matches.
    pub matches: Option<Vec<ScoredMatch>>,
    /// Error reply, timeout or I/O error, if the request failed.
    pub error: Option<String>,
}

impl Outcome {
    fn ms(from: Instant, to: Instant) -> f64 {
        to.saturating_duration_since(from).as_secs_f64() * 1e3
    }

    /// Latency from the actual send.
    pub fn service_ms(&self) -> f64 {
        Self::ms(self.sent, self.done)
    }

    /// How late the request went out after the connection was free.
    pub fn gen_lag_ms(&self) -> f64 {
        Self::ms(self.ready, self.sent)
    }
}

struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(TIMEOUT))?;
        Ok(Conn {
            w: s.try_clone()?,
            r: BufReader::new(s),
        })
    }

    fn line(&mut self) -> Result<String, String> {
        let mut l = String::new();
        match self.r.read_line(&mut l) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(l.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn send(&mut self, s: &str) -> Result<(), String> {
        self.w
            .write_all(s.as_bytes())
            .map_err(|e| format!("write: {e}"))
    }
}

/// One request: `(opened, first, matches)` or an error reply.
fn read_once(
    c: &mut Conn,
    wire_text: &str,
) -> Result<(Instant, Instant, Vec<ScoredMatch>), String> {
    c.send(&format!("OPEN topk-en {wire_text}\n"))?;
    let reply = c.line()?;
    let opened = Instant::now();
    let id = reply
        .strip_prefix("OK ")
        .ok_or_else(|| reply.clone())?
        .to_string();
    c.send(&format!("NEXT {id} {BATCH}\nCLOSE {id}\n"))?;
    let header = c.line()?;
    let first = Instant::now();
    let mut body = header.clone();
    body.push('\n');
    let count: usize = match header.strip_prefix("OK ") {
        Some(rest) => rest
            .split_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad NEXT header {header:?}"))?,
        None => 0,
    };
    for _ in 0..count {
        body.push_str(&c.line()?);
        body.push('\n');
    }
    let close = c.line()?;
    if !header.starts_with("OK ") {
        return Err(header);
    }
    if !close.starts_with("OK") {
        return Err(close);
    }
    let batch = parse_next_response(&body)?;
    Ok((opened, first, batch.matches))
}

/// Seeded Poisson arrival offsets (seconds) for `n` requests at `rps`.
/// Random gaps keep the schedule from locking into phase with the
/// server's poll tick, which fixed gaps do run after run differently.
pub fn arrivals(n: usize, rps: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4152_5256);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            let at = t;
            t += -(1.0 - u).ln() / rps;
            at
        })
        .collect()
}

/// Sends `wire[i]` at `start + due[i]` over one connection, open loop:
/// a request goes out when it is due or, if the previous one is still
/// running, as soon as that completes.
pub fn drive(addr: SocketAddr, wire: &[String], due: &[f64]) -> Vec<Outcome> {
    assert_eq!(wire.len(), due.len(), "one due time per request");
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"));
    let start = Instant::now() + Duration::from_millis(20);
    let mut prev_done = start;
    let mut out = Vec::with_capacity(wire.len());
    for (text, &at) in wire.iter().zip(due) {
        let scheduled = start + Duration::from_secs_f64(at);
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let ready = scheduled.max(prev_done);
        let sent = Instant::now();
        let res = match conn.as_mut() {
            Ok(c) => read_once(c, text),
            Err(e) => Err(e.clone()),
        };
        let done = Instant::now();
        let mut o = Outcome {
            scheduled,
            ready,
            sent,
            opened: None,
            first: None,
            done,
            matches: None,
            error: None,
        };
        match res {
            Ok((opened, first, m)) => {
                o.opened = Some(opened);
                o.first = Some(first);
                o.matches = Some(m);
            }
            Err(e) => o.error = Some(e),
        }
        prev_done = done;
        out.push(o);
    }
    out
}

/// Records each request's client-side timestamps as spans: the request
/// from its due time, and the `OPEN`, `NEXT` and `CLOSE` round trips.
pub fn record_spans(t: &mut Tracer, out: &[Outcome], first_request: u64) {
    for (i, o) in out.iter().enumerate() {
        let req = first_request + i as u64;
        let root = Some(t.record("bench.request", o.scheduled, o.done, req, None));
        if let (Some(opened), Some(first)) = (o.opened, o.first) {
            t.record("net.open", o.sent, opened, req, root);
            t.record("net.next", opened, first, req, root);
            t.record("net.close", first, o.done, req, root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_poisson_at_the_rate() {
        let a = arrivals(20_000, 500.0, 1);
        assert_eq!(a, arrivals(20_000, 500.0, 1));
        assert_ne!(a, arrivals(20_000, 500.0, 2));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = (a.len() - 1) as f64 / a[a.len() - 1];
        assert!((rate - 500.0).abs() < 25.0, "rate {rate}");
    }
}
