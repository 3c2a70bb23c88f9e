//! The [`ClosureSource`] trait — the storage interface every matching
//! algorithm consumes — plus cursor utilities.

use crate::iostats::IoSnapshot;
use ktpm_graph::{DeltaError, Dist, GraphDelta, LabelId, NodeId};
use std::fmt;
use std::sync::Arc;

/// Errors raised by storage backends.
#[derive(Debug)]
#[non_exhaustive]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a closure store or has an unsupported version.
    BadFormat(String),
    /// The file *is* a closure store but its bytes are inconsistent —
    /// truncated, bit-rotted, or carrying out-of-bounds offsets or
    /// counts. `offset` is where the reader needed `needed` more valid
    /// bytes than the snapshot provides. Every read path returns this
    /// instead of panicking, so a corrupt snapshot can never abort the
    /// process that opens it.
    Corrupt {
        /// File (or section-relative) offset of the failed read.
        offset: u64,
        /// Bytes the reader needed at `offset`.
        needed: usize,
    },
    /// The backend is an immutable snapshot and cannot apply graph
    /// deltas. Carries the backend name for diagnostics.
    UpdatesUnsupported(&'static str),
    /// A caller-supplied configuration value is unusable (e.g. a zero
    /// cursor block size or on-disk block capacity). Raised before any
    /// state is touched, instead of silently clamping.
    InvalidConfig(String),
    /// A delta was rejected before any state changed (unknown node,
    /// zero weight, missing/duplicate edge, ...).
    DeltaRejected(DeltaError),
    /// A remote block server could not be reached or kept failing after
    /// the client exhausted its capped-backoff retries (connect/request
    /// timeout, connection reset, server-reported failure, or repeated
    /// CRC mismatches on re-fetch). Surfaced instead of hanging so a
    /// dead `ktpm blockd` turns into a clean error at the serving tier.
    Remote {
        /// The `host:port` the client was talking to.
        addr: String,
        /// What failed, after how many attempts.
        detail: String,
    },
    /// One shard file of a sharded snapshot failed verification; wraps
    /// the per-file error so scrub reports can name the file *and* the
    /// offset.
    CorruptShard {
        /// Manifest-listed file name of the corrupt shard.
        file: String,
        /// The failure inside that file.
        error: Box<StorageError>,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::BadFormat(m) => write!(f, "bad store format: {m}"),
            StorageError::Corrupt { offset, needed } => write!(
                f,
                "corrupt store: needed {needed} byte(s) at offset {offset} \
                 (truncated or damaged snapshot)"
            ),
            StorageError::UpdatesUnsupported(backend) => write!(
                f,
                "graph updates unsupported: {backend} store is an immutable snapshot"
            ),
            StorageError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            StorageError::DeltaRejected(e) => write!(f, "delta rejected: {e}"),
            StorageError::Remote { addr, detail } => {
                write!(f, "remote store {addr} unavailable: {detail}")
            }
            StorageError::CorruptShard { file, error } => {
                write!(f, "corrupt shard file {file}: {error}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<DeltaError> for StorageError {
    fn from(e: DeltaError) -> Self {
        StorageError::DeltaRejected(e)
    }
}

/// What one applied delta did to a live store — the invalidation signal
/// the serving layer consumes.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Store version after the delta (monotonic, starts at 0).
    pub version: u64,
    /// Label pairs whose closure tables changed, ascending. A cached
    /// plan is stale iff one of its query-tree label pairs is listed
    /// here (wildcards match any label).
    pub touched_pairs: Vec<(LabelId, LabelId)>,
    /// Label pairs whose **undirected** closure tables changed — the
    /// invalidation signal for graph-pattern (kGPM) state, which reads
    /// the bidirectional mirror instead of the directed closure. Empty
    /// when the backend has no materialized mirror (then no pattern
    /// plans exist either: building one forces the mirror via
    /// [`ClosureSource::undirected`]) or when the delta was masked by
    /// the opposite direction and changed nothing undirected.
    pub undirected_touched_pairs: Vec<(LabelId, LabelId)>,
    /// Repair work counters.
    pub stats: ktpm_closure::RepairStats,
}

/// A block-at-a-time cursor over `Lᵅᵥ`: the incoming closure edges of one
/// node from one source label, in ascending distance order (§4.1).
pub trait EdgeCursor {
    /// Loads the next block of `(source, dist)` entries. An empty vector
    /// means the list is exhausted.
    fn next_block(&mut self) -> Vec<(NodeId, Dist)>;

    /// Entries not yet returned.
    fn remaining(&self) -> usize;

    /// Whether all entries have been returned.
    fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

/// A thread-safe, shared handle to a closure store — what the serving
/// layer passes around (one store, many concurrent queries).
pub type SharedSource = Arc<dyn ClosureSource>;

/// A closure source held either by borrow (the classic single-query
/// path) or by shared ownership (long-lived enumeration sessions that
/// must outlive their creator's stack frame).
pub enum SourceRef<'s> {
    /// Borrowed for the duration of one query.
    Borrowed(&'s dyn ClosureSource),
    /// Shared ownership; the `'static` variant used by sessions.
    Shared(SharedSource),
}

impl SourceRef<'_> {
    /// The underlying source.
    #[inline]
    pub fn get(&self) -> &dyn ClosureSource {
        match self {
            SourceRef::Borrowed(s) => *s,
            SourceRef::Shared(a) => a.as_ref(),
        }
    }
}

impl<'s> From<&'s dyn ClosureSource> for SourceRef<'s> {
    fn from(s: &'s dyn ClosureSource) -> Self {
        SourceRef::Borrowed(s)
    }
}

impl From<SharedSource> for SourceRef<'static> {
    fn from(s: SharedSource) -> Self {
        SourceRef::Shared(s)
    }
}

/// The storage interface of §3.1/§4.1: label-pair tables over the
/// transitive closure. Implemented by [`crate::PagedStore`] (real block
/// I/O), [`crate::MemStore`] and the other backends listed in the
/// crate docs.
///
/// `Send + Sync` is a supertrait: every backend must be safely sharable
/// across threads (`Arc<dyn ClosureSource>`), which the serving layer
/// relies on. All backends use atomic I/O counters and internal locks,
/// so queries never need external synchronization.
pub trait ClosureSource: Send + Sync {
    /// Number of nodes of the underlying data graph.
    fn num_nodes(&self) -> usize;

    /// The label of a data node.
    fn node_label(&self, v: NodeId) -> LabelId;

    /// All non-empty label pairs `(src label, dst label)`, ascending.
    fn pair_keys(&self) -> Vec<(LabelId, LabelId)>;

    /// Whether `(a, b)` is one of [`Self::pair_keys`]. The default
    /// binary-searches that list; backends override it with the index,
    /// table or manifest lookup they already hold, so a query edge with
    /// concrete labels costs one lookup instead of a copy of every key.
    fn contains_pair(&self, a: LabelId, b: LabelId) -> bool {
        self.pair_keys().binary_search(&(a, b)).is_ok()
    }

    /// `Dᵅᵦ`: per β-labeled destination node, the minimum incoming
    /// distance from any α-labeled node. Ascending node order.
    fn load_d(&self, src_label: LabelId, dst_label: LabelId) -> Vec<(NodeId, Dist)>;

    /// `Eᵅᵦ`: per α-labeled source node with at least one β-labeled
    /// descendant, its minimum outgoing closure edge. Ascending source.
    fn load_e(&self, src_label: LabelId, dst_label: LabelId) -> Vec<(NodeId, NodeId, Dist)>;

    /// The whole `Lᵅᵦ` table as `(src, dst, dist)` triples (used by the
    /// full-loading algorithms `Topk` and `DP-B`).
    fn load_pair(&self, src_label: LabelId, dst_label: LabelId) -> Vec<(NodeId, NodeId, Dist)>;

    /// Opens a block cursor over `Lᵅᵥ` (incoming edges of `v` from
    /// α-labeled sources, ascending distance). Cursors own their state
    /// (`Send + 'static`) so enumerators holding them can migrate
    /// between worker threads and outlive the opening stack frame.
    fn incoming_cursor(&self, src_label: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send>;

    /// Point lookup `δ_min(u, v)` (used by kGPM verification).
    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist>;

    /// Current I/O counters.
    fn io(&self) -> IoSnapshot;

    /// Zeroes the I/O counters.
    fn reset_io(&self);

    /// Monotonic version of the underlying graph, bumped once per
    /// applied delta. Immutable snapshot backends always report 0 —
    /// their graph can never change, so every plan stamped against them
    /// stays current forever.
    fn graph_version(&self) -> u64 {
        0
    }

    /// Applies a batch of graph mutations, repairing the closure tables
    /// in place and returning what changed. Default: this backend is an
    /// immutable snapshot ([`StorageError::UpdatesUnsupported`]); only
    /// live backends ([`crate::LiveStore`]) override it.
    fn apply_delta(&self, _delta: &GraphDelta) -> Result<DeltaReport, StorageError> {
        Err(StorageError::UpdatesUnsupported("snapshot"))
    }

    /// The closure of the **bidirectional** data graph (§5: "for each
    /// edge in the data graph, we make it bidirectional"), behind the
    /// same [`ClosureSource`] surface — what kGPM graph-pattern queries
    /// enumerate and verify against. Built lazily on first request and
    /// cached; on live backends it is kept consistent under
    /// [`ClosureSource::apply_delta`] (see
    /// [`DeltaReport::undirected_touched_pairs`]).
    ///
    /// Default: `None` — the backend has no data graph to mirror
    /// (e.g. a persisted closure snapshot), so graph patterns are
    /// unsupported on it.
    fn undirected(&self) -> Option<SharedSource> {
        None
    }

    /// Takes (and clears) the first storage error this source silently
    /// degraded over since the last call. The read API is infallible by
    /// design — a corrupt block becomes an empty group, an exhausted
    /// cursor — which is the right call for local bit-rot but would let
    /// a dead remote serve *silently truncated* match streams. Backends
    /// that can fail mid-read ([`crate::PagedStore`] and everything
    /// built on it) record the first swallowed error here; the serving
    /// layer checks after each batch and turns a set slot into a
    /// protocol error instead of shipping the partial batch. Default:
    /// `None` (in-memory backends cannot fail mid-read).
    fn take_error(&self) -> Option<StorageError> {
        None
    }
}

/// Merges pre-sorted `(src, dist)` blocks from several cursors into a
/// single ascending-distance stream, used for wildcard query nodes whose
/// incoming lists span every source label.
///
/// This is an eager k-way merge of whole lists (wildcards are rare; §5
/// notes they make the run-time graph large regardless).
pub fn merge_sorted_blocks(mut lists: Vec<Vec<(NodeId, Dist)>>) -> Vec<(NodeId, Dist)> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists.pop().unwrap(),
        _ => {
            let mut all: Vec<(NodeId, Dist)> = lists.into_iter().flatten().collect();
            all.sort_unstable_by_key(|&(s, d)| (d, s));
            all
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_are_thread_safe() {
        // Compile-time: every backend (and shared handles to them) can
        // cross threads. A failure here is a regression in the serving
        // layer's foundation.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::MemStore>();
        assert_send_sync::<crate::LiveStore>();
        assert_send_sync::<crate::OnDemandStore>();
        assert_send_sync::<crate::PagedStore>();
        assert_send_sync::<crate::ShardedStore>();
        assert_send_sync::<crate::RemoteStore>();
        assert_send_sync::<SharedSource>();
    }

    #[test]
    fn merge_empty() {
        assert!(merge_sorted_blocks(vec![]).is_empty());
    }

    #[test]
    fn merge_single_passthrough() {
        let l = vec![(NodeId(3), 1), (NodeId(1), 5)];
        assert_eq!(merge_sorted_blocks(vec![l.clone()]), l);
    }

    #[test]
    fn merge_orders_by_distance_then_node() {
        let a = vec![(NodeId(0), 2), (NodeId(1), 4)];
        let b = vec![(NodeId(5), 1), (NodeId(2), 2)];
        let merged = merge_sorted_blocks(vec![a, b]);
        assert_eq!(
            merged,
            vec![
                (NodeId(5), 1),
                (NodeId(0), 2),
                (NodeId(2), 2),
                (NodeId(1), 4)
            ]
        );
    }
}
