//! The file-backed [`ClosureSource`] with positioned block reads.
//!
//! Every byte read off disk is bounds-checked against the file length
//! *before* buffers are allocated, and parsed with the fallible
//! [`crate::format`] readers — so a truncated or corrupted snapshot
//! surfaces as [`StorageError::Corrupt`] from [`FileStore::open`] (or
//! degrades to empty tables on the infallible trait methods), never as
//! a panic or an absurd allocation.
//!
//! Version-2 snapshots additionally carry per-section CRC-32 checksums
//! (see the `format` module docs): the header and index are verified eagerly
//! at [`FileStore::open`], each `D`/`E`/directory section on first
//! read, and a pair's group region on whole-pair loads —
//! [`FileStore::verify`] scrubs everything at once. Version-1 files
//! (no checksums) keep opening and reading unchanged.

use crate::format::*;
use crate::iostats::{IoSnapshot, IoStats};
use crate::source::{ClosureSource, EdgeCursor, StorageError};
use ktpm_graph::{Dist, LabelId, NodeId};
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One `L` directory entry: `(dst, absolute offset, entry count)`.
type DirEntry = (NodeId, u64, u32);

/// Lazily loaded per-pair `L` directories.
type DirCache = HashMap<(LabelId, LabelId), Arc<Vec<DirEntry>>>;

struct Shared {
    file: Mutex<std::fs::File>,
    /// Snapshot length at open time; every read is validated against it
    /// so corrupt counts/offsets cannot trigger huge allocations or
    /// reads past EOF.
    len: u64,
    io: IoStats,
}

impl Shared {
    /// One positioned read = one counted block fetch. Validates the
    /// range against the snapshot length *before* allocating — a
    /// corrupt on-disk count must neither size an allocation nor read
    /// past EOF; both cases are [`StorageError::Corrupt`].
    fn read_vec(&self, off: u64, bytes: usize) -> Result<Vec<u8>, StorageError> {
        if off
            .checked_add(bytes as u64)
            .is_none_or(|end| end > self.len)
        {
            return Err(StorageError::Corrupt {
                offset: off,
                needed: bytes,
            });
        }
        let mut buf = vec![0u8; bytes];
        let mut f = self.file.lock().expect("store file lock");
        f.seek(SeekFrom::Start(off))?;
        f.read_exact(&mut buf).map_err(|e| map_eof(e, off, bytes))?;
        self.io.add_block(bytes as u64);
        Ok(buf)
    }
}

/// Maps a short read onto [`StorageError::Corrupt`] (the snapshot ends
/// where the format says data should be); other I/O errors pass
/// through.
fn map_eof(e: std::io::Error, offset: u64, needed: usize) -> StorageError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        StorageError::Corrupt { offset, needed }
    } else {
        StorageError::Io(e)
    }
}

/// A closure store opened from disk. All reads go through real positioned
/// I/O and are counted in [`IoStats`].
pub struct FileStore {
    shared: Arc<Shared>,
    labels: Vec<LabelId>,
    index: HashMap<(LabelId, LabelId), (u64, u64, u64)>,
    dirs: Mutex<DirCache>,
    block_edges: usize,
    version: FormatVersion,
}

impl FileStore {
    /// Opens a v1/v2 store written by [`crate::write_store_versioned`]
    /// (v2 checksums are verified, v1 has none). Format-v3 (paged)
    /// files — what [`crate::write_store`] emits today — are read by
    /// [`crate::PagedStore`]; use [`crate::open_store_auto`] to
    /// dispatch on the file's actual version.
    ///
    /// Errors: [`StorageError::BadFormat`] when the file is not a
    /// closure store at all (wrong magic) or is a v3 store,
    /// [`StorageError::Corrupt`] when it is one but truncated or
    /// damaged (including a header or index checksum mismatch, verified
    /// eagerly here).
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        Self::open_with_block_edges(path, DEFAULT_BLOCK_EDGES)
    }

    /// Opens with an explicit cursor block size (in `L` entries).
    /// `block_edges == 0` is [`StorageError::InvalidConfig`] — a
    /// zero-entry cursor block can never make progress.
    pub fn open_with_block_edges(path: &Path, block_edges: usize) -> Result<Self, StorageError> {
        if block_edges == 0 {
            return Err(StorageError::InvalidConfig(
                "cursor block size must be at least 1 entry".into(),
            ));
        }
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len < FOOTER_LEN + 16 {
            // Too short to even hold header + footer. Still check what
            // magic there is, so "not our file at all" keeps reporting
            // BadFormat and only truncated *stores* report Corrupt. A
            // vacuous prefix match proves nothing — require at least
            // half the magic before diagnosing a damaged store.
            let mut head = vec![0u8; len.min(8) as usize];
            file.read_exact(&mut head)?;
            let is_store_prefix = if head.len() < 8 {
                // Both versions share the first 7 bytes.
                head.len() >= 4 && head == MAGIC[..head.len().min(7)]
            } else {
                FormatVersion::from_magic(&head).is_some()
            };
            if !is_store_prefix {
                return Err(StorageError::BadFormat("bad magic".into()));
            }
            return Err(StorageError::Corrupt {
                offset: len,
                needed: (FOOTER_LEN + 16 - len) as usize,
            });
        }
        // Header.
        let mut head = [0u8; 16];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut head).map_err(|e| map_eof(e, 0, 16))?;
        let Some(version) = FormatVersion::from_magic(&head[..8]) else {
            return Err(StorageError::BadFormat("bad magic".into()));
        };
        if version == FormatVersion::V3 {
            return Err(StorageError::BadFormat(
                "format v3 (paged) store; open it with PagedStore or open_store_auto".into(),
            ));
        }
        let head_crc_len: u64 = if version.has_crc() { 4 } else { 0 };
        let mut pos = 8;
        let num_nodes = get_u32(&head, &mut pos)? as usize;
        let _num_labels = get_u32(&head, &mut pos)?;
        let label_bytes = num_nodes
            .checked_mul(4)
            .filter(|&b| 16 + b as u64 + head_crc_len + FOOTER_LEN <= len)
            .ok_or(StorageError::Corrupt {
                offset: 16,
                needed: num_nodes.saturating_mul(4),
            })?;
        let mut label_buf = vec![0u8; label_bytes];
        file.read_exact(&mut label_buf)
            .map_err(|e| map_eof(e, 16, label_bytes))?;
        if version.has_crc() {
            // Eager header verification: counts + labels.
            let mut crc_buf = [0u8; 4];
            file.read_exact(&mut crc_buf)
                .map_err(|e| map_eof(e, 16 + label_bytes as u64, 4))?;
            let state = crc32_update(CRC_INIT, &head[8..16]);
            let state = crc32_update(state, &label_buf);
            if crc32_finish(state) != u32::from_le_bytes(crc_buf) {
                return Err(StorageError::Corrupt {
                    offset: 8,
                    needed: 8 + label_bytes,
                });
            }
        }
        let labels: Vec<LabelId> = label_buf
            .chunks_exact(4)
            .map(|c| LabelId(u32::from_le_bytes(c.try_into().expect("chunked to 4"))))
            .collect();
        // Footer.
        let mut foot = [0u8; FOOTER_LEN as usize];
        file.seek(SeekFrom::Start(len - FOOTER_LEN))?;
        file.read_exact(&mut foot)
            .map_err(|e| map_eof(e, len - FOOTER_LEN, foot.len()))?;
        if &foot[8..] != version.magic() {
            // The header proved this is one of our stores; a wrong
            // footer means the tail (where the index lives) is gone.
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
        file.seek(SeekFrom::Start(index_off))?;
        let mut count_buf = [0u8; 4];
        file.read_exact(&mut count_buf)
            .map_err(|e| map_eof(e, index_off, 4))?;
        let num_pairs = u32::from_le_bytes(count_buf) as usize;
        let idx_crc_len: u64 = if version.has_crc() { 4 } else { 0 };
        let idx_bytes = num_pairs
            .checked_mul(4 + 4 + 8 + 8 + 8)
            .filter(|&b| index_off + 4 + b as u64 + idx_crc_len <= len - FOOTER_LEN)
            .ok_or(StorageError::Corrupt {
                offset: index_off + 4,
                needed: num_pairs.saturating_mul(32),
            })?;
        let mut idx_buf = vec![0u8; idx_bytes];
        file.read_exact(&mut idx_buf)
            .map_err(|e| map_eof(e, index_off + 4, idx_bytes))?;
        if version.has_crc() {
            // Eager index verification.
            let mut crc_buf = [0u8; 4];
            file.read_exact(&mut crc_buf)
                .map_err(|e| map_eof(e, index_off + 4 + idx_bytes as u64, 4))?;
            let state = crc32_update(CRC_INIT, &count_buf);
            let state = crc32_update(state, &idx_buf);
            if crc32_finish(state) != u32::from_le_bytes(crc_buf) {
                return Err(StorageError::Corrupt {
                    offset: index_off,
                    needed: idx_bytes + 4,
                });
            }
        }
        let mut index = HashMap::with_capacity(num_pairs);
        let mut pos = 0;
        for _ in 0..num_pairs {
            let a = LabelId(get_u32(&idx_buf, &mut pos)?);
            let b = LabelId(get_u32(&idx_buf, &mut pos)?);
            let d = get_u64(&idx_buf, &mut pos)?;
            let e = get_u64(&idx_buf, &mut pos)?;
            let dir = get_u64(&idx_buf, &mut pos)?;
            index.insert((a, b), (d, e, dir));
        }
        Ok(FileStore {
            shared: Arc::new(Shared {
                file: Mutex::new(file),
                len,
                io: IoStats::new(),
            }),
            labels,
            index,
            dirs: Mutex::new(HashMap::new()),
            block_edges,
            version,
        })
    }

    /// Wraps the store in a [`crate::SharedSource`] for concurrent use.
    pub fn into_shared(self) -> crate::SharedSource {
        Arc::new(self)
    }

    /// The snapshot's on-disk format version.
    pub fn version(&self) -> FormatVersion {
        self.version
    }

    /// Scrubs the whole snapshot: re-verifies every `D`/`E`/directory
    /// section checksum and every pair's group-region checksum (the
    /// header and index were already verified at open). A no-op `Ok`
    /// on checksum-free v1 files. Returns the first mismatch as
    /// [`StorageError::Corrupt`].
    pub fn verify(&self) -> Result<(), StorageError> {
        if !self.version.has_crc() {
            return Ok(());
        }
        let mut keys: Vec<_> = self.index.iter().map(|(&k, &v)| (k, v)).collect();
        keys.sort_unstable_by_key(|&(k, _)| k);
        for ((a, b), (d_off, e_off, _)) in keys {
            let count = self.read_count(d_off)?;
            self.read_body(d_off, count, 8)?;
            let count = self.read_count(e_off)?;
            self.read_body(e_off, count, 12)?;
            let dir = self.directory(a, b)?.expect("pair key came from the index");
            self.read_group_region(&dir)?;
        }
        Ok(())
    }

    /// Reads the 4-byte count at `off`, bounds-validated.
    fn read_count(&self, off: u64) -> Result<usize, StorageError> {
        let buf = self.shared.read_vec(off, 4)?;
        Ok(u32::from_le_bytes(buf.try_into().expect("read 4 bytes")) as usize)
    }

    /// Reads a counted section's body (`count * entry_bytes` at
    /// `count_off + 4`), verifying the trailing CRC over count + body
    /// on v2 snapshots. Returns exactly the body bytes.
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
        if !self.version.has_crc() {
            return self.shared.read_vec(count_off + 4, body_bytes);
        }
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

    /// Reads (and on v2 verifies) a pair's whole contiguous group
    /// region, as laid out by the writer in directory order. Offsets
    /// come from the directory, which on v1 snapshots is *unverified* —
    /// all arithmetic is checked so corrupt offsets surface as
    /// [`StorageError::Corrupt`], never as an overflow panic.
    fn read_group_region(&self, dir: &[DirEntry]) -> Result<Vec<u8>, StorageError> {
        let Some(&(_, start, _)) = dir.first() else {
            return Ok(Vec::new());
        };
        let (_, last_off, last_len) = *dir.last().expect("non-empty");
        let end = last_off
            .checked_add(last_len as u64 * L_ENTRY_BYTES as u64)
            .filter(|&e| e >= start)
            .ok_or(StorageError::Corrupt {
                offset: last_off,
                needed: last_len as usize * L_ENTRY_BYTES,
            })?;
        let bytes = (end - start) as usize;
        if !self.version.has_crc() {
            return self.shared.read_vec(start, bytes);
        }
        let mut buf = self.shared.read_vec(start, bytes + 4)?;
        let expect = u32::from_le_bytes(
            buf[bytes..]
                .try_into()
                .expect("sliced the trailing 4 bytes"),
        );
        if crc32(&buf[..bytes]) != expect {
            return Err(StorageError::Corrupt {
                offset: start,
                needed: bytes + 4,
            });
        }
        buf.truncate(bytes);
        Ok(buf)
    }

    fn directory(
        &self,
        a: LabelId,
        b: LabelId,
    ) -> Result<Option<Arc<Vec<DirEntry>>>, StorageError> {
        if let Some(dir) = self.dirs.lock().expect("dir cache").get(&(a, b)) {
            return Ok(Some(dir.clone()));
        }
        let Some(&(_, _, dir_off)) = self.index.get(&(a, b)) else {
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

    fn read_group(&self, off: u64, len: usize) -> Result<Vec<(NodeId, Dist)>, StorageError> {
        let bytes = len
            .checked_mul(L_ENTRY_BYTES)
            .ok_or(StorageError::Corrupt {
                offset: off,
                needed: len.saturating_mul(L_ENTRY_BYTES),
            })?;
        let buf = self.shared.read_vec(off, bytes)?;
        let mut pos = 0;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let s = NodeId(get_u32(&buf, &mut pos)?);
            let d = get_u32(&buf, &mut pos)?;
            out.push((s, d));
        }
        self.shared.io.add_edges(len as u64);
        Ok(out)
    }

    fn load_d_inner(&self, d_off: u64) -> Result<Vec<(NodeId, Dist)>, StorageError> {
        let count = self.read_count(d_off)?;
        let buf = self.read_body(d_off, count, 8)?;
        let mut pos = 0;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let v = NodeId(get_u32(&buf, &mut pos)?);
            let dist = get_u32(&buf, &mut pos)?;
            out.push((v, dist));
        }
        self.shared.io.add_d_entries(count as u64);
        Ok(out)
    }

    fn load_e_inner(&self, e_off: u64) -> Result<Vec<(NodeId, NodeId, Dist)>, StorageError> {
        let count = self.read_count(e_off)?;
        let buf = self.read_body(e_off, count, 12)?;
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
    }
}

impl ClosureSource for FileStore {
    fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    fn node_label(&self, v: NodeId) -> LabelId {
        self.labels[v.index()]
    }

    fn pair_keys(&self) -> Vec<(LabelId, LabelId)> {
        let mut keys: Vec<_> = self.index.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    fn contains_pair(&self, a: LabelId, b: LabelId) -> bool {
        self.index.contains_key(&(a, b))
    }

    fn load_d(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, Dist)> {
        let Some(&(d_off, _, _)) = self.index.get(&(a, b)) else {
            return Vec::new();
        };
        self.load_d_inner(d_off).unwrap_or_default()
    }

    fn load_e(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        let Some(&(_, e_off, _)) = self.index.get(&(a, b)) else {
            return Vec::new();
        };
        self.load_e_inner(e_off).unwrap_or_default()
    }

    fn load_pair(&self, a: LabelId, b: LabelId) -> Vec<(NodeId, NodeId, Dist)> {
        let Ok(Some(dir)) = self.directory(a, b) else {
            return Vec::new();
        };
        // Whole-pair load: one read of the contiguous group region,
        // CRC-verified on v2 (a mismatch degrades to empty, like every
        // corrupt read on the infallible trait methods).
        let Ok(region) = self.read_group_region(&dir) else {
            return Vec::new();
        };
        let Some(&(_, base, _)) = dir.first() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut total = 0u64;
        for &(v, off, len) in dir.iter() {
            // Directory offsets are unverified on v1 snapshots: a
            // corrupt entry below the region base degrades to a partial
            // result instead of underflowing.
            let Some(rel) = off.checked_sub(base) else {
                return out;
            };
            let mut pos = rel as usize;
            for _ in 0..len {
                let Ok(s) = get_u32(&region, &mut pos) else {
                    return out;
                };
                let Ok(d) = get_u32(&region, &mut pos) else {
                    return out;
                };
                out.push((NodeId(s), v, d));
            }
            total += len as u64;
        }
        self.shared.io.add_edges(total);
        out
    }

    fn incoming_cursor(&self, a: LabelId, v: NodeId) -> Box<dyn EdgeCursor + Send> {
        let entry = self
            .directory(a, self.node_label(v))
            .ok()
            .flatten()
            .and_then(|dir| {
                dir.binary_search_by_key(&v, |&(n, _, _)| n)
                    .ok()
                    .map(|i| dir[i])
            });
        match entry {
            Some((_, off, len)) => Box::new(FileCursor {
                shared: self.shared.clone(),
                off,
                remaining: len as usize,
                block_edges: self.block_edges,
            }),
            None => Box::new(FileCursor {
                shared: self.shared.clone(),
                off: 0,
                remaining: 0,
                block_edges: self.block_edges,
            }),
        }
    }

    fn lookup_dist(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        let a = self.node_label(u);
        let dir = self.directory(a, self.node_label(v)).ok().flatten()?;
        let i = dir.binary_search_by_key(&v, |&(n, _, _)| n).ok()?;
        let (_, off, len) = dir[i];
        let group = self.read_group(off, len as usize).ok()?;
        group.into_iter().find(|&(s, _)| s == u).map(|(_, d)| d)
    }

    fn io(&self) -> IoSnapshot {
        self.shared.io.snapshot()
    }

    fn reset_io(&self) {
        self.shared.io.reset();
    }
}

struct FileCursor {
    shared: Arc<Shared>,
    off: u64,
    remaining: usize,
    block_edges: usize,
}

impl EdgeCursor for FileCursor {
    fn next_block(&mut self) -> Vec<(NodeId, Dist)> {
        if self.remaining == 0 {
            return Vec::new();
        }
        let take = self.remaining.min(self.block_edges);
        let Ok(buf) = self.shared.read_vec(self.off, take * L_ENTRY_BYTES) else {
            self.remaining = 0;
            return Vec::new();
        };
        let mut pos = 0;
        let mut out = Vec::with_capacity(take);
        for _ in 0..take {
            let Ok(s) = get_u32(&buf, &mut pos) else {
                break;
            };
            let Ok(d) = get_u32(&buf, &mut pos) else {
                break;
            };
            out.push((NodeId(s), d));
        }
        self.off += (take * L_ENTRY_BYTES) as u64;
        self.remaining -= take;
        self.shared.io.add_edges(take as u64);
        out
    }

    fn remaining(&self) -> usize {
        self.remaining
    }
}
