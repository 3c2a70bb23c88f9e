//! Datasets, scratch files and seeded update streams shared by the
//! workloads.

use crate::stats;
use ktpm_closure::ClosureTables;
use ktpm_graph::{GraphDelta, LabeledGraph, NodeId};
use ktpm_workload::{generate, gs_family, DEFAULT_GS};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// A directory for this process's snapshot files, inside the checkout
/// (under `$CARGO_TARGET_DIR` when set, else `target/`), removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> Self {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        let dir = base.join(format!("perfbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
        Scratch { dir }
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// GS3: the 5,000-node power-law graph, the paper's default synthetic
/// dataset at this repo's scale, with its closure and v3 snapshot.
pub struct Dataset {
    pub name: &'static str,
    pub graph: LabeledGraph,
    pub tables: ClosureTables,
    /// Snapshot size in bytes.
    pub file_bytes: u64,
    /// Seconds spent in `ClosureTables::compute`.
    pub closure_s: f64,
}

impl Dataset {
    /// Generates GS3, computes its closure and writes the default-format
    /// snapshot to `snapshot`.
    pub fn build(snapshot: &Path) -> Dataset {
        let (name, spec) = gs_family()[DEFAULT_GS].clone();
        let graph = generate(&spec);
        let t = Instant::now();
        let tables = ClosureTables::compute(&graph);
        let closure_s = t.elapsed().as_secs_f64();
        ktpm_storage::write_store(&tables, snapshot).expect("write the closure snapshot");
        Dataset {
            name,
            graph,
            tables,
            file_bytes: std::fs::metadata(snapshot).expect("snapshot written").len(),
            closure_s,
        }
    }

    /// A one-line description for the run record.
    pub fn describe(&self) -> String {
        format!("\"{} ({} nodes)\"", self.name, self.graph.num_nodes())
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping all but the last
/// result, and returns it with the median wall time in seconds and
/// every repetition's value of `inner` (a component the set-up timed).
pub fn repeat_setup<T>(mut setup: impl FnMut() -> (T, f64)) -> (T, f64, f64) {
    let mut times = Vec::new();
    let mut inner = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let (v, part) = setup();
        times.push(t.elapsed().as_secs_f64());
        inner.push(part);
        last = Some(v);
    }
    (
        last.expect("at least one set-up"),
        stats::median(&times),
        stats::median(&inner),
    )
}

/// One `UPDATE set <u> <v> <w>` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetWeight {
    pub from: NodeId,
    pub to: NodeId,
    pub weight: u32,
}

impl SetWeight {
    pub fn delta(self) -> GraphDelta {
        GraphDelta::new().set_weight(self.from, self.to, self.weight)
    }
}

/// A seeded stream of `n` weight updates on existing edges whose source
/// is among the highest-numbered tenth of the graph's nodes, each to a
/// weight in `2..=5`.
pub fn update_stream(g: &LabeledGraph, seed: u64, n: usize) -> Vec<SetWeight> {
    let newest = (g.num_nodes() - g.num_nodes() / 10) as u32;
    let edges: Vec<_> = g.edges().filter(|e| e.from.0 >= newest).collect();
    assert!(!edges.is_empty(), "the newest nodes have out-edges");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5550_4441_5445);
    (0..n)
        .map(|_| {
            let e = edges[rng.random_range(0..edges.len())];
            SetWeight {
                from: e.from,
                to: e.to,
                weight: rng.random_range(2..=5u32),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_workload::GraphSpec;

    #[test]
    fn update_stream_is_deterministic_and_valid() {
        let g = generate(&GraphSpec::power_law(400, 9));
        let a = update_stream(&g, 3, 50);
        assert_eq!(a, update_stream(&g, 3, 50));
        assert_ne!(a, update_stream(&g, 4, 50));
        for op in &a {
            assert!(g.edge_weight(op.from, op.to).is_some());
            assert!((2..=5).contains(&op.weight));
            assert!(g.apply_delta(&op.delta()).is_ok());
        }
    }
}
