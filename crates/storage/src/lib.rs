//! # ktpm-storage
//!
//! The storage layer of §4.1: the transitive closure serialized as
//! label-pair tables (`Dᵅᵦ`, `Eᵅᵦ`, and `Lᵅᵦ` grouped per destination
//! node sorted by distance), read back block by block with I/O
//! accounting.
//!
//! Seven interchangeable backends implement [`ClosureSource`]:
//!
//! * [`PagedStore`] — the current (format v3) disk backend: group
//!   regions split into fixed-size CRC-verified blocks, fetched lazily
//!   through a byte-budgeted LRU block cache, so enumeration over a
//!   closure larger than RAM keeps a bounded resident set
//!   ([`write_store`] emits v3 by default);
//! * [`FileStore`] — the v1/v2 single-file reader with positioned
//!   whole-section block reads; kept for old snapshots (use
//!   [`open_store_auto`] to dispatch on the file's version);
//! * [`MemStore`] — the same logical layout in memory, with the same
//!   logical I/O counters, for tests and pure-CPU benchmarks;
//! * [`OnDemandStore`] — no precomputation at all: pair tables are
//!   materialized lazily from the data graph, one SSSP sweep per source
//!   label (§5 "Managing Closure Size");
//! * [`LiveStore`] — the mutable backend: graph + closure behind one
//!   lock, accepting [`ktpm_graph::GraphDelta`]s with incremental
//!   closure repair and a monotonic [`ClosureSource::graph_version`];
//! * [`ShardedStore`] — a multi-file v3 snapshot ([`write_store_sharded`])
//!   opened from its CRC'd v4 `MANIFEST`: label pairs are routed to
//!   owning shard files, opened lazily so a query touches only the
//!   files it owns, all sharing one byte-budgeted block cache;
//! * [`RemoteStore`] — the same snapshot served by `ktpm blockd` over
//!   TCP ([`open_store_uri`] with `tcp://host:port`): blocks are
//!   fetched on demand with client-side CRC re-verification, bounded
//!   connection pooling, timeouts, and capped-backoff retries that
//!   surface [`StorageError::Remote`] instead of hanging.
//!
//! All counters live in [`IoStats`] snapshots so experiments can report
//! edges/blocks/bytes read per phase (Figures 6(c)–6(f)), including the
//! paged backend's block-cache hit/miss/eviction/residency traffic.

mod cache;
mod format;
mod iostats;
mod live;
mod manifest;
mod mem;
mod ondemand;
mod paged;
mod reader;
mod remote;
mod shard;
mod sharded;
mod source;
mod writer;

pub use format::{crc32, FormatVersion, DEFAULT_BLOCK_EDGES, MAGIC_V4};
pub use iostats::{IoSnapshot, IoStats};
pub use live::LiveStore;
pub use manifest::{Manifest, ShardFileMeta};
pub use mem::MemStore;
pub use ondemand::OnDemandStore;
pub use paged::{open_store_auto, PagedStore, DEFAULT_BLOCK_CACHE_BYTES};
pub use reader::FileStore;
pub use remote::{blockproto, open_store_uri, RemoteOptions, RemoteStore};
pub use shard::ShardSpec;
pub use sharded::{load_snapshot_manifest, ShardedStore};
pub use source::{
    merge_sorted_blocks, ClosureSource, DeltaReport, EdgeCursor, SharedSource, SourceRef,
    StorageError,
};
pub use writer::{write_store, write_store_sharded, write_store_v3, write_store_versioned};
