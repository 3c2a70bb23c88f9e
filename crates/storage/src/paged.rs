//! The paged [`ClosureSource`] over format-v3 stores: lazy verified
//! block fetch behind a byte-budgeted LRU block cache.
//!
//! A [`PagedStore`] never materializes a group region: every `L` read
//! — block cursors, whole-pair loads, point lookups — goes through
//! [`fetch_block`](PagedShared::fetch_block), which serves the block
//! from the cache or reads it off disk, verifies its CRC-32 *before*
//! anything consumes it, and inserts it under the byte budget. This is
//! the backend for closures that exceed RAM: resident bytes are
//! bounded by `--block-cache-bytes` while enumeration streams the
//! paper's §5 block-at-a-time I/O model.
//!
//! Because the v3 writer starts every destination node's group on a
//! fresh block, [`crate::ShardSpec`]-partitioned root candidates touch
//! disjoint block sets — parallel shards warm the cache for their own
//! partition without false sharing.
//!
//! The store reads its bytes through a [`BlockSource`] — a positioned
//! `read_at` over one sealed v3 file. [`LocalFile`] is the plain
//! on-disk implementation; the remote tier plugs a network-backed
//! source into the *same* `PagedStore` (`crate::RemoteStore`), so
//! parsing, verification, caching, and accounting are written once.
//! Multi-file snapshots ([`crate::ShardedStore`]) give each member
//! file a distinct `file_id` and one shared cache, so the byte budget
//! bounds the whole snapshot.
//!
//! The label-pair index is verified at open and kept as the sorted
//! `Vec` the writer produced: lookups binary-search it, and
//! [`ClosureSource::pair_keys`] copies it in order without sorting.
//!
//! Cache traffic is accounted in [`IoStats`]: `cache_hits` /
//! `cache_misses` / `cache_evictions` plus the `cache_bytes_resident`
//! gauge, alongside the usual block/byte/edge counters (which, here,
//! count *disk* traffic only — a warm cache serves reads with zero
//! `block_reads`).
//!
//! The [`ClosureSource`] read API is infallible: a corrupt or
//! unreadable block degrades to an empty result or an exhausted
//! cursor. Every such silent degradation also records the swallowed
//! error into a sticky [`ErrorSlot`] surfaced via
//! [`ClosureSource::take_error`], so the serving tier can refuse to
//! ship a truncated batch (essential once the "disk" is a remote
//! server that can die mid-stream).

use crate::cache::BlockCache;
use crate::format::*;
use crate::iostats::{IoSnapshot, IoStats};
use crate::source::{ClosureSource, EdgeCursor, StorageError};
use ktpm_closure::ClosureTables;
use ktpm_graph::{undirect, Dist, LabelId, LabeledGraph, NodeId};
use std::collections::HashMap;
use std::io::Read;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// Default block-cache byte budget (8 MiB) used by [`PagedStore::open`].
pub const DEFAULT_BLOCK_CACHE_BYTES: u64 = 8 * 1024 * 1024;

/// One `L` directory entry: `(dst, absolute offset of the group's
/// first block, entry count)`.
type DirEntry = (NodeId, u64, u32);

type DirCache = HashMap<(LabelId, LabelId), Arc<Vec<DirEntry>>>;

/// One index entry: a label pair and the offsets of its `D` section,
/// `E` section and `L` directory.
type IndexEntry = ((LabelId, LabelId), (u64, u64, u64));

/// A positioned byte source over one sealed v3 store file — the seam
/// between [`PagedStore`]'s parsing/caching logic and where the bytes
/// actually live (local disk, or a remote block server).
pub(crate) trait BlockSource: Send + Sync {
    /// Reads exactly `bytes` at `off`. Short reads are errors
    /// ([`StorageError::Corrupt`] for a truncated file,
    /// [`StorageError::Remote`] for a failed remote fetch).
    fn read_at(&self, off: u64, bytes: usize) -> Result<Vec<u8>, StorageError>;

    /// Total length of the file, fixed at open.
    fn len(&self) -> u64;

    /// Whether a failed CRC check is worth one re-read (true for
    /// remote sources, where the wire — not the medium — may have
    /// flipped a bit; false for local files, where a re-read would
    /// return the same rotten bytes).
    fn is_retryable(&self) -> bool {
        false
    }
}

/// [`BlockSource`] over a local file. Reads are positional
/// (`pread`), so concurrent cursors share the handle without a lock or
/// a seek.
pub(crate) struct LocalFile {
    file: std::fs::File,
    len: u64,
}

impl LocalFile {
    pub(crate) fn open(path: &Path) -> Result<Self, StorageError> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(LocalFile { file, len })
    }
}

impl BlockSource for LocalFile {
    fn read_at(&self, off: u64, bytes: usize) -> Result<Vec<u8>, StorageError> {
        let mut buf = vec![0u8; bytes];
        self.file
            .read_exact_at(&mut buf, off)
            .map_err(|e| map_eof(e, off, bytes))?;
        Ok(buf)
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// A sticky first-error slot shared by a store, its cursors, and (for
/// multi-file snapshots) all member files. The infallible read paths
/// record the first error they swallow; [`ErrorSlot::take`] hands it
/// to the serving layer and re-arms the slot. First-wins: the root
/// cause, not the last symptom.
#[derive(Clone, Default)]
pub(crate) struct ErrorSlot(Arc<Mutex<Option<StorageError>>>);

impl ErrorSlot {
    pub(crate) fn record(&self, e: StorageError) {
        let mut slot = self.0.lock().expect("error slot");
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    pub(crate) fn take(&self) -> Option<StorageError> {
        self.0.lock().expect("error slot").take()
    }
}

struct PagedShared {
    source: Box<dyn BlockSource>,
    io: IoStats,
    /// Shared with every sibling file of a sharded snapshot; keys are
    /// namespaced by `file_id`.
    cache: Arc<Mutex<BlockCache>>,
    block_entries: usize,
    /// This file's id within its snapshot (0 for standalone stores).
    file_id: u32,
    errors: ErrorSlot,
}

impl PagedShared {
    /// One positioned read = one counted block fetch, validated
    /// against the file length before buffers are allocated.
    fn read_vec(&self, off: u64, bytes: usize) -> Result<Vec<u8>, StorageError> {
        if off
            .checked_add(bytes as u64)
            .is_none_or(|end| end > self.source.len())
        {
            return Err(StorageError::Corrupt {
                offset: off,
                needed: bytes,
            });
        }
        let buf = self.source.read_at(off, bytes)?;
        self.io.add_block(bytes as u64);
        Ok(buf)
    }

    fn block_bytes(&self) -> usize {
        v3_block_bytes(self.block_entries)
    }

    /// One read + CRC check of the group block at `off`; returns the
    /// padded payload only.
    fn read_block_once(&self, off: u64) -> Result<Vec<u8>, StorageError> {
        let bb = self.block_bytes();
        let mut buf = self.read_vec(off, bb)?;
        let payload = self.block_entries * L_ENTRY_BYTES;
        let expect = u32::from_le_bytes(
            buf[payload..]
                .try_into()
                .expect("sliced the trailing 4 bytes"),
        );
        if crc32(&buf[..payload]) != expect {
            return Err(StorageError::Corrupt {
                offset: off,
                needed: bb,
            });
        }
        buf.truncate(payload);
        Ok(buf)
    }

    /// Reads and CRC-verifies the group block at `off`, bypassing the
    /// cache (also the scrub path). On a retryable source (remote), a
    /// CRC mismatch earns exactly one counted re-read — the flip may
    /// have happened on the wire — before the error stands.
    fn read_block_verified(&self, off: u64) -> Result<Vec<u8>, StorageError> {
        match self.read_block_once(off) {
            Err(StorageError::Corrupt { .. }) if self.source.is_retryable() => {
                self.io.add_remote_retry();
                self.read_block_once(off)
            }
            other => other,
        }
    }

    /// The lazy verified fetch: cache hit, or disk read + CRC check +
    /// budgeted insert. Every consumer of group bytes funnels through
    /// here, so a block is verified exactly once per residency.
    fn fetch_block(&self, off: u64) -> Result<Arc<Vec<u8>>, StorageError> {
        let key = (self.file_id, off);
        if let Some(data) = self.cache.lock().expect("block cache").get(key) {
            self.io.add_cache_hit();
            return Ok(data);
        }
        self.io.add_cache_miss();
        let data = Arc::new(self.read_block_verified(off)?);
        let (evicted, resident) = self
            .cache
            .lock()
            .expect("block cache")
            .insert(key, Arc::clone(&data));
        if evicted > 0 {
            self.io.add_cache_evictions(evicted);
        }
        self.io.set_cache_resident(resident);
        Ok(data)
    }
}

/// Maps a short read onto [`StorageError::Corrupt`].
fn map_eof(e: std::io::Error, offset: u64, needed: usize) -> StorageError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        StorageError::Corrupt { offset, needed }
    } else {
        StorageError::Io(e)
    }
}

/// A format-v3 closure store opened from disk: group regions are
/// fixed-size CRC-checked blocks, fetched lazily through an LRU block
/// cache. See the module docs.
pub struct PagedStore {
    shared: Arc<PagedShared>,
    labels: Vec<LabelId>,
    /// The index as written: ascending by label pair, searched by
    /// binary search.
    index: Vec<IndexEntry>,
    dirs: Mutex<DirCache>,
    /// The data graph, when attached ([`PagedStore::with_graph`]) —
    /// enables the lazily-built undirected mirror for graph patterns.
    graph: Option<LabeledGraph>,
    mirror: OnceLock<crate::SharedSource>,
}

impl PagedStore {
    /// Opens a v3 store with the default cache budget
    /// ([`DEFAULT_BLOCK_CACHE_BYTES`]).
    ///
    /// Errors: [`StorageError::BadFormat`] when the file is not a
    /// closure store, or is a retired v1/v2 store (the message says to
    /// rewrite it with `ktpm closure`); [`StorageError::Corrupt`] when
    /// it is a v3 store but truncated or damaged (header and index
    /// checksums are verified eagerly here; group blocks verify on
    /// first fetch).
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        Self::open_with_cache_bytes(path, DEFAULT_BLOCK_CACHE_BYTES)
    }

    /// Opens with an explicit block-cache byte budget. `0` means
    /// unlimited (no block is ever evicted).
    pub fn open_with_cache_bytes(path: &Path, cache_bytes: u64) -> Result<Self, StorageError> {
        Self::from_source(
            Box::new(LocalFile::open(path)?),
            Arc::new(Mutex::new(BlockCache::new(cache_bytes))),
            IoStats::new(),
            0,
            ErrorSlot::default(),
        )
    }

    /// Opens a v3 store over any [`BlockSource`] — the shared
    /// constructor behind standalone opens, [`crate::ShardedStore`]
    /// member files (shared `cache`/`io`/`errors`, distinct
    /// `file_id`s), and [`crate::RemoteStore`] (network-backed
    /// source). Header and index checksums are verified eagerly, via
    /// the source.
    pub(crate) fn from_source(
        source: Box<dyn BlockSource>,
        cache: Arc<Mutex<BlockCache>>,
        io: IoStats,
        file_id: u32,
        errors: ErrorSlot,
    ) -> Result<Self, StorageError> {
        const HEAD_LEN: usize = 20; // magic + nodes + labels + block_entries
        let len = source.len();
        if len < FOOTER_LEN + HEAD_LEN as u64 {
            let head = source.read_at(0, len.min(8) as usize)?;
            // All format versions share the first 7 magic bytes; require
            // at least half of them before diagnosing a damaged store.
            let is_store_prefix = if head.len() < 8 {
                head.len() >= 4 && head == MAGIC_V3[..head.len().min(7)]
            } else {
                &head[..] == MAGIC_V3
            };
            if !is_store_prefix {
                return Err(bad_magic(&head));
            }
            return Err(StorageError::Corrupt {
                offset: len,
                needed: (FOOTER_LEN + HEAD_LEN as u64 - len) as usize,
            });
        }
        // Header.
        let head = source.read_at(0, HEAD_LEN)?;
        if &head[..8] != MAGIC_V3 {
            return Err(bad_magic(&head[..8]));
        }
        let mut pos = 8;
        let num_nodes = get_u32(&head, &mut pos)? as usize;
        let _num_labels = get_u32(&head, &mut pos)?;
        let block_entries = get_u32(&head, &mut pos)? as usize;
        if block_entries == 0 {
            return Err(StorageError::BadFormat(
                "v3 header declares a zero block capacity".into(),
            ));
        }
        let label_bytes = num_nodes
            .checked_mul(4)
            .filter(|&b| HEAD_LEN as u64 + b as u64 + 4 + FOOTER_LEN <= len)
            .ok_or(StorageError::Corrupt {
                offset: HEAD_LEN as u64,
                needed: num_nodes.saturating_mul(4),
            })?;
        // Labels + their trailing header CRC in one read.
        let tail = source.read_at(HEAD_LEN as u64, label_bytes + 4)?;
        let label_buf = &tail[..label_bytes];
        // Eager header verification: counts + block capacity + labels.
        let state = crc32_update(CRC_INIT, &head[8..HEAD_LEN]);
        let state = crc32_update(state, label_buf);
        let stored = u32::from_le_bytes(tail[label_bytes..].try_into().expect("4-byte tail"));
        if crc32_finish(state) != stored {
            return Err(StorageError::Corrupt {
                offset: 8,
                needed: HEAD_LEN - 8 + label_bytes,
            });
        }
        let labels: Vec<LabelId> = label_buf
            .chunks_exact(4)
            .map(|c| LabelId(u32::from_le_bytes(c.try_into().expect("chunked to 4"))))
            .collect();
        // Footer.
        let foot = source.read_at(len - FOOTER_LEN, FOOTER_LEN as usize)?;
        if &foot[8..] != MAGIC_V3 {
            return Err(StorageError::Corrupt {
                offset: len - 8,
                needed: 8,
            });
        }
        let mut pos = 0;
        let index_off = get_u64(&foot, &mut pos)?;
        // Index (bounds-check the count before trusting it).
        if index_off
            .checked_add(4)
            .is_none_or(|end| end > len - FOOTER_LEN)
        {
            return Err(StorageError::Corrupt {
                offset: index_off,
                needed: 4,
            });
        }
        let count_buf = source.read_at(index_off, 4)?;
        let num_pairs = u32::from_le_bytes(count_buf[..].try_into().expect("read 4")) as usize;
        let idx_bytes = num_pairs
            .checked_mul(4 + 4 + 8 + 8 + 8)
            .filter(|&b| index_off + 4 + b as u64 + 4 <= len - FOOTER_LEN)
            .ok_or(StorageError::Corrupt {
                offset: index_off + 4,
                needed: num_pairs.saturating_mul(32),
            })?;
        // Index entries + their trailing CRC in one read; verify
        // eagerly.
        let idx_tail = source.read_at(index_off + 4, idx_bytes + 4)?;
        let idx_buf = &idx_tail[..idx_bytes];
        let state = crc32_update(CRC_INIT, &count_buf);
        let state = crc32_update(state, idx_buf);
        let stored = u32::from_le_bytes(idx_tail[idx_bytes..].try_into().expect("4-byte tail"));
        if crc32_finish(state) != stored {
            return Err(StorageError::Corrupt {
                offset: index_off,
                needed: idx_bytes + 4,
            });
        }
        let mut index = Vec::with_capacity(num_pairs);
        let mut pos = 0;
        for _ in 0..num_pairs {
            let a = LabelId(get_u32(idx_buf, &mut pos)?);
            let b = LabelId(get_u32(idx_buf, &mut pos)?);
            let d = get_u64(idx_buf, &mut pos)?;
            let e = get_u64(idx_buf, &mut pos)?;
            let dir = get_u64(idx_buf, &mut pos)?;
            index.push(((a, b), (d, e, dir)));
        }
        // Lookups binary-search the index, so it must be strictly
        // ascending, as the writer emits it.
        if !index.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(StorageError::BadFormat(
                "v3 index is not strictly ascending by label pair".into(),
            ));
        }
        Ok(PagedStore {
            shared: Arc::new(PagedShared {
                source,
                io,
                cache,
                block_entries,
                file_id,
                errors,
            }),
            labels,
            index,
            dirs: Mutex::new(HashMap::new()),
            graph: None,
            mirror: OnceLock::new(),
        })
    }

    /// Attaches the data graph, enabling [`ClosureSource::undirected`]
    /// (graph patterns need the bidirectional closure, which only the
    /// graph — not its persisted directed closure — can produce).
    /// Returns `self`.
    pub fn with_graph(mut self, graph: LabeledGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Wraps the store in a [`crate::SharedSource`] for concurrent use.
    pub fn into_shared(self) -> crate::SharedSource {
        Arc::new(self)
    }

    /// The on-disk block capacity declared by the header, in `L`
    /// entries per block.
    pub fn block_entries(&self) -> usize {
        self.shared.block_entries
    }

    /// Live blocks currently held by the block cache. For a snapshot
    /// member file this counts the whole *shared* cache.
    pub fn cache_blocks(&self) -> usize {
        self.shared.cache.lock().expect("block cache").len()
    }

    /// Payload bytes currently resident in the block cache (the same
    /// value the `cache_bytes_resident` gauge tracks).
    pub fn cache_resident_bytes(&self) -> u64 {
        self.shared
            .cache
            .lock()
            .expect("block cache")
            .resident_bytes()
    }

    /// The byte ranges of every destination node's group blocks for one
    /// label pair, as `(dst, file byte range)`. Groups never share a
    /// block, so the ranges of distinct nodes are always disjoint —
    /// the placement property [`crate::ShardSpec`] partitions rely on.
    pub fn group_block_ranges(
        &self,
        a: LabelId,
        b: LabelId,
    ) -> Result<Vec<(NodeId, Range<u64>)>, StorageError> {
        let Some(dir) = self.directory(a, b)? else {
            return Ok(Vec::new());
        };
        let bb = self.shared.block_bytes() as u64;
        Ok(dir
            .iter()
            .map(|&(v, off, len)| {
                let blocks = v3_group_blocks(len as usize, self.shared.block_entries) as u64;
                (v, off..off + blocks * bb)
            })
            .collect())
    }

    /// Scrubs the whole snapshot: re-verifies every `D`/`E`/directory
    /// section checksum and **every group block**, reading straight
    /// from disk (the cache is neither consulted nor polluted). The
    /// header and index were already verified at open. Returns the
    /// first mismatch as [`StorageError::Corrupt`].
    pub fn verify(&self) -> Result<(), StorageError> {
        let bb = self.shared.block_bytes() as u64;
        for &((a, b), (d_off, e_off, _)) in &self.index {
            let count = self.read_count(d_off)?;
            self.read_body(d_off, count, 8)?;
            let count = self.read_count(e_off)?;
            self.read_body(e_off, count, 12)?;
            let dir = self.directory(a, b)?.expect("pair key came from the index");
            for &(_, off, len) in dir.iter() {
                let blocks = v3_group_blocks(len as usize, self.shared.block_entries) as u64;
                for i in 0..blocks {
                    self.shared.read_block_verified(off + i * bb)?;
                }
            }
        }
        Ok(())
    }

    /// The index entry of `(a, b)`: its `D`, `E` and directory offsets.
    fn offsets(&self, a: LabelId, b: LabelId) -> Option<(u64, u64, u64)> {
        let i = self.index.binary_search_by_key(&(a, b), |&(k, _)| k).ok()?;
        Some(self.index[i].1)
    }

    /// Reads the 4-byte count at `off`, bounds-validated.
    fn read_count(&self, off: u64) -> Result<usize, StorageError> {
        let buf = self.shared.read_vec(off, 4)?;
        Ok(u32::from_le_bytes(buf.try_into().expect("read 4 bytes")) as usize)
    }

    /// Reads a counted section's body (`count * entry_bytes` at
    /// `count_off + 4`), verifying the trailing CRC over count + body
    /// (always present in v3). Returns exactly the body bytes.
    fn read_body(
        &self,
        count_off: u64,
        count: usize,
        entry_bytes: usize,
    ) -> Result<Vec<u8>, StorageError> {
        let body_bytes = count
            .checked_mul(entry_bytes)
            .ok_or(StorageError::Corrupt {
                offset: count_off,
                needed: count.saturating_mul(entry_bytes),
            })?;
        let mut buf = self.shared.read_vec(count_off + 4, body_bytes + 4)?;
        let expect = u32::from_le_bytes(
            buf[body_bytes..]
                .try_into()
                .expect("sliced the trailing 4 bytes"),
        );
        let state = crc32_update(CRC_INIT, &(count as u32).to_le_bytes());
        let state = crc32_update(state, &buf[..body_bytes]);
        if crc32_finish(state) != expect {
            return Err(StorageError::Corrupt {
                offset: count_off,
                needed: body_bytes + 8,
            });
        }
        buf.truncate(body_bytes);
        Ok(buf)
    }

    /// The cached verified D/E section fetch: body bytes keyed by the
    /// section's count offset in the shared block cache, so warm table
    /// loads re-read nothing — locally or over the network. On a
    /// retryable (remote) source a CRC mismatch earns exactly one
    /// counted re-read, mirroring [`PagedShared::read_block_verified`].
    fn fetch_section(
        &self,
        count_off: u64,
        entry_bytes: usize,
    ) -> Result<Arc<Vec<u8>>, StorageError> {
        let key = (self.shared.file_id, count_off);
        if let Some(data) = self.shared.cache.lock().expect("block cache").get(key) {
            self.shared.io.add_cache_hit();
            return Ok(data);
        }
        self.shared.io.add_cache_miss();
        let read = || -> Result<Vec<u8>, StorageError> {
            let count = self.read_count(count_off)?;
            self.read_body(count_off, count, entry_bytes)
        };
        let body = match read() {
            Err(StorageError::Corrupt { .. }) if self.shared.source.is_retryable() => {
                self.shared.io.add_remote_retry();
                read()?
            }
            other => other?,
        };
        let data = Arc::new(body);
        let (evicted, resident) = self
            .shared
            .cache
            .lock()
            .expect("block cache")
            .insert(key, Arc::clone(&data));
        if evicted > 0 {
            self.shared.io.add_cache_evictions(evicted);
        }
        self.shared.io.set_cache_resident(resident);
        Ok(data)
    }

    fn directory(
        &self,
        a: LabelId,
        b: LabelId,
    ) -> Result<Option<Arc<Vec<DirEntry>>>, StorageError> {
        if let Some(dir) = self.dirs.lock().expect("dir cache").get(&(a, b)) {
            return Ok(Some(dir.clone()));
        }
        let Some((_, _, dir_off)) = self.offsets(a, b) else {
            return Ok(None);
        };
        let count = self.read_count(dir_off)?;
        let buf = self.read_body(dir_off, count, 4 + 8 + 4)?;
        let mut pos = 0;
        let mut dir = Vec::with_capacity(count);
        for _ in 0..count {
            let v = NodeId(get_u32(&buf, &mut pos)?);
            let off = get_u64(&buf, &mut pos)?;
            let len = get_u32(&buf, &mut pos)?;
            dir.push((v, off, len));
        }
        let dir = Arc::new(dir);
        self.dirs
            .lock()
            .expect("dir cache")
            .insert((a, b), dir.clone());
        Ok(Some(dir))
    }

    /// As [`Self::directory`], but on the infallible read paths: an
    /// error degrades to `None` and is recorded in the error slot.
    fn directory_noted(&self, a: LabelId, b: LabelId) -> Option<Arc<Vec<DirEntry>>> {
        match self.directory(a, b) {
            Ok(dir) => dir,
            Err(e) => {
                self.shared.errors.record(e);
                None
            }
        }
    }

    /// Reads one group's entries `[from, len)` through the block cache.
    /// Every touched block is verified on (first) fetch.
    fn read_group_range(
        &self,
        group_off: u64,
        len: usize,
        from: usize,
        out: &mut Vec<(NodeId, Dist)>,
    ) -> Result<(), StorageError> {
        let be = self.shared.block_entries;
        let bb = self.shared.block_bytes() as u64;
        let mut i = from;
        while i < len {
            let block_idx = i / be;
            let block = self.shared.fetch_block(group_off + block_idx as u64 * bb)?;
            let upto = len.min((block_idx + 1) * be);
            let mut pos = (i % be) * L_ENTRY_BYTES;
            for _ in i..upto {
                let s = get_u32(&block, &mut pos)?;
                let d = get_u32(&block, &mut pos)?;
                out.push((NodeId(s), d));
            }
            i = upto;
        }
        Ok(())
    }
}

impl ClosureSource for PagedStore {
    fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    fn node_label(&self, v: NodeId) -> LabelId {
        self.labels[v.index()]
    }

    fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        self.index.iter().map(|&(k, _)| k).collect()
    }

    fn contains_pair(&self, a: LabelId, b: LabelId) -> bool {
        self.offsets(a, b).is_some()
    }

    fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        let Some((d_off, _, _)) = self.offsets(a, b) else {
            return Vec::new();
        };
        let inner = || -> Result<Vec<(NodeId, Dist)>, StorageError> {
            let buf = self.fetch_section(d_off, 8)?;
            let count = buf.len() / 8;
            let mut pos = 0;
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let v = NodeId(get_u32(&buf, &mut pos)?);
                let dist = get_u32(&buf, &mut pos)?;
                out.push((v, dist));
            }
            self.shared.io.add_d_entries(count as u64);
            Ok(out)
        };
        inner().unwrap_or_else(|e| {
            self.shared.errors.record(e);
            Vec::new()
        })
    }

    fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        let Some((_, e_off, _)) = self.offsets(a, b) else {
            return Vec::new();
        };
        let inner = || -> Result<Vec<(NodeId, NodeId, Dist)>, StorageError> {
            let buf = self.fetch_section(e_off, 12)?;
            let count = buf.len() / 12;
            let mut pos = 0;
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let s = NodeId(get_u32(&buf, &mut pos)?);
                let d = NodeId(get_u32(&buf, &mut pos)?);
                let dist = get_u32(&buf, &mut pos)?;
                out.push((s, d, dist));
            }
            self.shared.io.add_e_entries(count as u64);
            Ok(out)
        };
        inner().unwrap_or_else(|e| {
            self.shared.errors.record(e);
            Vec::new()
        })
    }

    fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        let Some(dir) = self.directory_noted(a, b) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut group = Vec::new();
        let mut total = 0u64;
        for &(v, off, len) in dir.iter() {
            group.clear();
            // A corrupt block degrades to a partial result, like every
            // corrupt read on the infallible trait methods — recorded
            // in the error slot.
            if let Err(e) = self.read_group_range(off, len as usize, 0, &mut group) {
                self.shared.errors.record(e);
                break;
            }
            out.extend(group.iter().map(|&(s, d)| (s, v, d)));
            total += len as u64;
        }
        self.shared.io.add_edges(total);
        out
    }

    fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        let entry = self.directory_noted(a, self.node_label(v)).and_then(|dir| {
            dir.binary_search_by_key(&v, |&(n, _, _)| n)
                .ok()
                .map(|i| dir[i])
        });
        let (group_off, len) = match entry {
            Some((_, off, len)) => (off, len as usize),
            None => (0, 0),
        };
        Box::new(PagedCursor {
            shared: self.shared.clone(),
            group_off,
            len,
            pos: 0,
        })
    }

    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        let a = self.node_label(u);
        let dir = self.directory_noted(a, self.node_label(v))?;
        let i = dir.binary_search_by_key(&v, |&(n, _, _)| n).ok()?;
        let (_, off, len) = dir[i];
        let mut group = Vec::with_capacity(len as usize);
        if let Err(e) = self.read_group_range(off, len as usize, 0, &mut group) {
            self.shared.errors.record(e);
            return None;
        }
        self.shared.io.add_edges(len as u64);
        group.into_iter().find(|&(s, _)| s == u).map(|(_, d)| d)
    }

    fn io(&self) -> IoSnapshot {
        self.shared.io.snapshot()
    }

    fn reset_io(&self) {
        self.shared.io.reset();
    }

    fn undirected(&self) -> Option<crate::SharedSource> {
        let g = self.graph.as_ref()?;
        Some(Arc::clone(self.mirror.get_or_init(|| {
            crate::MemStore::new(ClosureTables::compute(&undirect(g))).into_shared()
        })))
    }

    fn take_error(&self) -> Option<StorageError> {
        self.shared.errors.take()
    }
}

/// A block cursor over one group: each `next_block` call yields the
/// rest of the current on-disk block (so reads stay block-aligned and
/// every fragment comes off a CRC-verified, cache-resident block).
struct PagedCursor {
    shared: Arc<PagedShared>,
    group_off: u64,
    len: usize,
    pos: usize,
}

impl EdgeCursor for PagedCursor {
    fn next_block(&mut self) -> Vec<(NodeId, Dist)> {
        if self.pos >= self.len {
            return Vec::new();
        }
        let be = self.shared.block_entries;
        let block_idx = self.pos / be;
        let block_off = self.group_off + (block_idx * self.shared.block_bytes()) as u64;
        let block = match self.shared.fetch_block(block_off) {
            Ok(block) => block,
            Err(e) => {
                // A corrupt or unreadable block degrades to exhaustion,
                // recorded in the error slot so the serving layer can
                // refuse the truncated stream.
                self.shared.errors.record(e);
                self.pos = self.len;
                return Vec::new();
            }
        };
        let upto = self.len.min((block_idx + 1) * be);
        let take = upto - self.pos;
        let mut out = Vec::with_capacity(take);
        let mut pos = (self.pos % be) * L_ENTRY_BYTES;
        for _ in 0..take {
            let Ok(s) = get_u32(&block, &mut pos) else {
                break;
            };
            let Ok(d) = get_u32(&block, &mut pos) else {
                break;
            };
            out.push((NodeId(s), d));
        }
        self.pos = upto;
        self.shared.io.add_edges(take as u64);
        out
    }

    fn remaining(&self) -> usize {
        self.len - self.pos
    }
}

/// Opens a store path of any kind behind the right backend:
///
/// * a sharded snapshot through a [`crate::ShardedStore`] — either the
///   `MANIFEST` file itself or the snapshot **directory** containing
///   one (a directory without a `MANIFEST` is a pointed
///   [`StorageError::BadFormat`], not a raw io error);
/// * any other file through a [`PagedStore`] (with `block_cache_bytes`
///   as the cache budget when given — `Some(0)` means unlimited), which
///   refuses retired v1/v2 files and non-store files with
///   [`StorageError::BadFormat`].
///
/// This is what the CLI and the bench harness use. For `tcp://` remote
/// stores, see [`crate::open_store_uri`].
pub fn open_store_auto(
    path: &Path,
    block_cache_bytes: Option<u64>,
) -> Result<crate::SharedSource, StorageError> {
    let budget = block_cache_bytes.unwrap_or(DEFAULT_BLOCK_CACHE_BYTES);
    if path.is_dir() {
        let manifest = path.join("MANIFEST");
        if manifest.is_file() {
            return Ok(
                crate::ShardedStore::open_with_cache_bytes(&manifest, budget)?.into_shared(),
            );
        }
        return Err(StorageError::BadFormat(format!(
            "{} is a directory without a MANIFEST — did you mean the manifest path \
             of a sharded snapshot (<dir>/MANIFEST, written by write_store_sharded)?",
            path.display()
        )));
    }
    let mut head = [0u8; 8];
    let is_manifest = std::fs::File::open(path)?.read_exact(&mut head).is_ok() && &head == MAGIC_V4;
    if is_manifest {
        Ok(crate::ShardedStore::open_with_cache_bytes(path, budget)?.into_shared())
    } else {
        Ok(PagedStore::open_with_cache_bytes(path, budget)?.into_shared())
    }
}
