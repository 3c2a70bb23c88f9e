//! End-to-end runs of the `ktpm` binary over a persisted store: write
//! it with `ktpm closure`, scrub it with `ktpm store verify`, query it
//! with `ktpm query --store`, and refuse damaged and retired-format
//! files with a nonzero exit and a pointed message (never a panic).

use ktpm::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The Figure 1 citation graph (`ktpm_graph::fixtures::citation_graph`).
const GRAPH: &str = "n 0 C\nn 1 C\nn 2 C\nn 3 S\nn 4 E\nn 5 E\nn 6 S\n\
                     e 0 3 1\ne 0 4 1\ne 0 5 1\ne 1 5 1\ne 1 2 1\ne 2 3 1\ne 4 6 1\n";
const QUERY: &str = "C -> E\nC -> S\n";

/// A scratch directory of its own per test (tests run concurrently).
fn workdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ktpm-cli-test-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    std::fs::write(p.join("g.txt"), GRAPH).unwrap();
    std::fs::write(p.join("q.txt"), QUERY).unwrap();
    p
}

fn ktpm(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ktpm"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run the ktpm binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The `score=` column of a `ktpm query` listing, in output order.
fn scores(out: &Output) -> Vec<u32> {
    stdout(out)
        .split_whitespace()
        .filter_map(|w| w.strip_prefix("score="))
        .map(|s| s.parse().unwrap())
        .collect()
}

/// Asserts `out` failed cleanly: nonzero exit, no panic, and a message
/// on stderr containing `needle`.
fn assert_refused(out: &Output, needle: &str) {
    let err = stderr(out);
    assert!(!out.status.success(), "must exit nonzero; stderr: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
    assert!(err.contains(needle), "stderr lacks {needle:?}: {err}");
}

#[test]
fn a_fresh_closure_store_verifies_clean() {
    let dir = workdir("verify");
    let out = ktpm(&dir, &["closure", "g.txt", "s.tc"]);
    assert!(out.status.success(), "closure: {}", stderr(&out));
    let out = ktpm(&dir, &["store", "verify", "s.tc"]);
    assert!(out.status.success(), "verify: {}", stderr(&out));
    assert!(stdout(&out).contains("OK"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_over_the_store_matches_the_in_memory_run() {
    let dir = workdir("query");
    assert!(ktpm(&dir, &["closure", "g.txt", "s.tc"]).status.success());
    let mem = ktpm(&dir, &["query", "g.txt", "q.txt", "-k", "100"]);
    assert!(mem.status.success(), "{}", stderr(&mem));
    let disk = ktpm(
        &dir,
        &["query", "g.txt", "q.txt", "-k", "100", "--store", "s.tc"],
    );
    assert!(disk.status.success(), "{}", stderr(&disk));
    assert_eq!(scores(&mem), [2, 2, 3, 3, 3]);
    assert_eq!(scores(&disk), scores(&mem));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flipped_byte_in_an_l_block_fails_verify() {
    let dir = workdir("bitrot");
    let store = dir.join("s.tc");
    assert!(ktpm(&dir, &["closure", "g.txt", "s.tc"]).status.success());
    let first_block = {
        let paged = PagedStore::open(&store).unwrap();
        let (a, b) = paged.pair_keys()[0];
        paged.group_block_ranges(a, b).unwrap()[0].1.start
    };
    let mut bytes = std::fs::read(&store).unwrap();
    bytes[first_block as usize + 1] ^= 0x40;
    std::fs::write(&store, &bytes).unwrap();
    assert_refused(&ktpm(&dir, &["store", "verify", "s.tc"]), "corrupt");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_retired_v2_file_is_refused_with_the_rewrite_hint() {
    let dir = workdir("v2");
    assert!(ktpm(&dir, &["closure", "g.txt", "s.tc"]).status.success());
    // The written store under the v2 magic, at both ends.
    let mut bytes = std::fs::read(dir.join("s.tc")).unwrap();
    let n = bytes.len();
    bytes[..8].copy_from_slice(b"KTPMCLO2");
    bytes[n - 8..].copy_from_slice(b"KTPMCLO2");
    std::fs::write(dir.join("old.tc"), &bytes).unwrap();
    let hint = "rewrite it from the graph with `ktpm closure`";
    assert_refused(&ktpm(&dir, &["store", "verify", "old.tc"]), hint);
    assert_refused(
        &ktpm(&dir, &["query", "g.txt", "q.txt", "--store", "old.tc"]),
        hint,
    );
    std::fs::remove_dir_all(&dir).ok();
}
