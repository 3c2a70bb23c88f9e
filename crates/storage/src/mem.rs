//! The in-memory [`ClosureSource`] used for tests and CPU-only benches.
//!
//! Wraps a [`ClosureTables`] and *logically* counts the I/O a disk
//! store would perform (blocks of `block_edges` `L` entries), so
//! algorithm comparisons that report "edges loaded" work identically
//! on in-memory and on-disk backends.

use crate::format::{DEFAULT_BLOCK_EDGES, L_ENTRY_BYTES};
use crate::iostats::{IoSnapshot, IoStats};
use crate::source::{ClosureSource, EdgeCursor};
use ktpm_closure::ClosureTables;
use ktpm_graph::{undirect, Dist, LabelId, LabeledGraph, NodeId};
use std::sync::OnceLock;

/// An in-memory closure store.
pub struct MemStore {
    tables: ClosureTables,
    /// The data graph, when attached ([`MemStore::with_graph`]) —
    /// enables the lazily-built undirected mirror for graph patterns.
    graph: Option<LabeledGraph>,
    mirror: OnceLock<crate::SharedSource>,
    io: IoStats,
    block_edges: usize,
}

impl MemStore {
    /// Wraps already-computed closure tables.
    pub fn new(tables: ClosureTables) -> Self {
        Self::with_block_edges(tables, DEFAULT_BLOCK_EDGES)
    }

    /// Wraps with an explicit cursor block size (in `L` entries).
    pub fn with_block_edges(tables: ClosureTables, block_edges: usize) -> Self {
        MemStore {
            tables,
            graph: None,
            mirror: OnceLock::new(),
            io: IoStats::new(),
            block_edges: block_edges.max(1),
        }
    }

    /// Attaches the data graph, enabling [`ClosureSource::undirected`]
    /// (graph patterns need the bidirectional closure, which only the
    /// graph — not its directed closure — can produce). Returns `self`.
    pub fn with_graph(mut self, graph: LabeledGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The wrapped tables.
    pub fn tables(&self) -> &ClosureTables {
        &self.tables
    }

    /// Wraps the store in a [`crate::SharedSource`] for concurrent use.
    pub fn into_shared(self) -> crate::SharedSource {
        std::sync::Arc::new(self)
    }
}

impl ClosureSource for MemStore {
    fn num_nodes(&self) -> usize {
        self.tables.num_nodes()
    }

    fn node_label(&self, v: NodeId) -> LabelId {
        self.tables.label(v)
    }

    fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        let mut keys: Vec<_> = self.tables.iter_pairs().map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }

    fn contains_pair(&self, a: LabelId, b: LabelId) -> bool {
        self.tables.pair(a, b).is_some()
    }

    fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        let Some(t) = self.tables.pair(a, b) else {
            return Vec::new();
        };
        let out: Vec<(NodeId, Dist)> = t
            .dst_nodes()
            .iter()
            .map(|&v| (v, t.min_incoming_dist(v).expect("non-empty group")))
            .collect();
        self.io.add_block((out.len() * 8 + 4) as u64);
        self.io.add_d_entries(out.len() as u64);
        out
    }

    fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        let Some(t) = self.tables.pair(a, b) else {
            return Vec::new();
        };
        let out = t.min_out().to_vec();
        self.io.add_block((out.len() * 12 + 4) as u64);
        self.io.add_e_entries(out.len() as u64);
        out
    }

    fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        let Some(t) = self.tables.pair(a, b) else {
            return Vec::new();
        };
        let out: Vec<_> = t.iter_edges().collect();
        self.io.add_block((out.len() * L_ENTRY_BYTES) as u64);
        self.io.add_edges(out.len() as u64);
        out
    }

    fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        let entries = self
            .tables
            .pair(a, self.node_label(v))
            .map(|t| t.incoming(v).to_vec())
            .unwrap_or_default();
        Box::new(MemCursor {
            io: self.io.clone(),
            entries,
            pos: 0,
            block_edges: self.block_edges,
        })
    }

    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        self.tables.dist(u, v)
    }

    fn io(&self) -> IoSnapshot {
        self.io.snapshot()
    }

    fn reset_io(&self) {
        self.io.reset();
    }

    fn undirected(&self) -> Option<crate::SharedSource> {
        let g = self.graph.as_ref()?;
        Some(std::sync::Arc::clone(self.mirror.get_or_init(|| {
            MemStore::new(ClosureTables::compute(&undirect(g))).into_shared()
        })))
    }
}

struct MemCursor {
    io: IoStats,
    entries: Vec<(NodeId, Dist)>,
    pos: usize,
    block_edges: usize,
}

impl EdgeCursor for MemCursor {
    fn next_block(&mut self) -> Vec<(NodeId, Dist)> {
        if self.pos >= self.entries.len() {
            return Vec::new();
        }
        let take = (self.entries.len() - self.pos).min(self.block_edges);
        let out = self.entries[self.pos..self.pos + take].to_vec();
        self.pos += take;
        self.io.add_block((take * L_ENTRY_BYTES) as u64);
        self.io.add_edges(take as u64);
        out
    }

    fn remaining(&self) -> usize {
        self.entries.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktpm_graph::fixtures::paper_graph;

    fn store() -> MemStore {
        MemStore::with_block_edges(ClosureTables::compute(&paper_graph()), 1)
    }

    #[test]
    fn cursor_yields_blocks_in_distance_order() {
        let g = paper_graph();
        let s = store();
        let a = g.interner().get("a").unwrap();
        let mut cur = s.incoming_cursor(a, NodeId(4)); // v5
        assert_eq!(cur.remaining(), 2);
        assert_eq!(cur.next_block(), vec![(NodeId(0), 1)]);
        assert_eq!(cur.next_block(), vec![(NodeId(1), 2)]);
        assert!(cur.next_block().is_empty());
        assert!(cur.is_exhausted());
    }

    #[test]
    fn io_counters_track_cursor_reads() {
        let g = paper_graph();
        let s = store();
        let a = g.interner().get("a").unwrap();
        let mut cur = s.incoming_cursor(a, NodeId(4));
        cur.next_block();
        drop(cur);
        let io = s.io();
        assert_eq!(io.edges_read, 1);
        assert_eq!(io.block_reads, 1);
        s.reset_io();
        assert_eq!(s.io().edges_read, 0);
    }

    #[test]
    fn missing_pair_is_empty() {
        let g = paper_graph();
        let s = store();
        let sl = g.interner().get("s").unwrap();
        let a = g.interner().get("a").unwrap();
        // Nothing flows from s back to a.
        assert!(s.load_d(sl, a).is_empty());
        assert!(s.load_pair(sl, a).is_empty());
        let mut cur = s.incoming_cursor(sl, NodeId(0));
        assert!(cur.next_block().is_empty());
    }

    #[test]
    fn lookup_dist_delegates() {
        let s = store();
        assert_eq!(s.lookup_dist(NodeId(1), NodeId(4)), Some(2)); // δ(v2,v5)=2
        assert_eq!(s.lookup_dist(NodeId(4), NodeId(1)), None);
    }
}
