//! End-to-end run of `ktpm serve` with no front-end flags: the default
//! server must be the event loop, answering a pipelined script (every
//! request written before any reply is read) in order.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The Figure 1 citation graph (`ktpm_graph::fixtures::citation_graph`).
const GRAPH: &str = "n 0 C\nn 1 C\nn 2 C\nn 3 S\nn 4 E\nn 5 E\nn 6 S\n\
                     e 0 3 1\ne 0 4 1\ne 0 5 1\ne 1 5 1\ne 1 2 1\ne 2 3 1\ne 4 6 1\n";

/// Kills the server on every exit path, including a failed assertion.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn default_serve_is_the_pipelining_event_loop() {
    let mut graph = std::env::temp_dir();
    graph.push(format!("ktpm-cli-serve-{}.txt", std::process::id()));
    std::fs::write(&graph, GRAPH).unwrap();
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_ktpm"))
            .args(["serve", graph.to_str().unwrap(), "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("start ktpm serve"),
    );
    // The startup line names the bound address:
    // `serving 7 nodes / 7 edges on 127.0.0.1:<port> (...)`.
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in startup line {line:?}"));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"OPEN topk C -> E; C -> S\nNEXT 1 2\nNEXT 1 10\nSTATS\n")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    std::fs::remove_file(&graph).ok();

    let lines: Vec<&str> = resp.lines().collect();
    assert_eq!(lines[0], "OK 1", "{resp:?}");
    let scores: Vec<u32> = lines
        .iter()
        .filter(|l| l.starts_with("M "))
        .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(scores, [2, 2, 3, 3, 3], "{resp:?}");
    // Only the event loop queues requests per connection, so only it
    // moves the pipelining high-water mark.
    let depth: u64 = lines
        .last()
        .unwrap()
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("queue_depth_max="))
        .unwrap_or_else(|| panic!("no queue_depth_max in {resp:?}"))
        .parse()
        .unwrap();
    assert!(depth >= 1, "{resp:?}");
}
