//! Serializes a [`ClosureTables`] into the on-disk store format —
//! single-file v3 snapshots and sharded multi-file v3 snapshots with a
//! v4 `MANIFEST` ([`write_store_sharded`]).

use crate::format::*;
use crate::manifest::{Manifest, ShardFileMeta};
use crate::shard::ShardSpec;
use crate::source::StorageError;
use ktpm_closure::ClosureTables;
use ktpm_graph::{LabelId, NodeId};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Writes the closure store file for `tables` at `path` (format v3:
/// paged group blocks, CRC-32 per block, block capacity
/// `DEFAULT_BLOCK_EDGES` (64) entries; see the `format` module docs).
/// Use [`write_store_v3`] to choose the block capacity.
///
/// Pairs are written in sorted key order so the output is deterministic.
pub fn write_store(tables: &ClosureTables, path: &Path) -> Result<(), StorageError> {
    write_store_inner(tables, path, DEFAULT_BLOCK_EDGES, None)
}

/// Writes a v3 store with an explicit on-disk block capacity (in `L`
/// entries per block). Small capacities force multi-block groups and
/// cache churn — useful in tests; `DEFAULT_BLOCK_EDGES` (64) is the
/// production default. `block_entries == 0` is
/// [`StorageError::InvalidConfig`].
pub fn write_store_v3(
    tables: &ClosureTables,
    path: &Path,
    block_entries: usize,
) -> Result<(), StorageError> {
    if block_entries == 0 {
        return Err(StorageError::InvalidConfig(
            "v3 block capacity must be at least 1 entry".into(),
        ));
    }
    write_store_inner(tables, path, block_entries, None)
}

/// Writes a sharded snapshot: one v3 shard file per partition of
/// `spec`'s split (so `spec.of()` files — any member of the split
/// names the same layout) plus a CRC'd v4 `MANIFEST` in `dir`, all
/// sharing the block capacity `block_entries`. Label pairs are routed
/// round-robin over their sorted order, so shards stay balanced and
/// the layout is deterministic; the manifest records the explicit
/// pair → file routing, so readers never depend on the rule.
///
/// `dir` is created if missing. Open the snapshot via
/// [`crate::open_store_auto`] on `dir/MANIFEST` (or on `dir` itself).
/// Returns the manifest that was written.
pub fn write_store_sharded(
    tables: &ClosureTables,
    dir: &Path,
    spec: &ShardSpec,
    block_entries: usize,
) -> Result<Manifest, StorageError> {
    if block_entries == 0 {
        return Err(StorageError::InvalidConfig(
            "v3 block capacity must be at least 1 entry".into(),
        ));
    }
    let shard_count = spec.of();
    std::fs::create_dir_all(dir)?;

    let mut keys: Vec<_> = tables.iter_pairs().map(|(k, _)| k).collect();
    keys.sort_unstable();
    let mut routing = std::collections::BTreeMap::new();
    let mut owned: Vec<Vec<(LabelId, LabelId)>> = vec![Vec::new(); shard_count as usize];
    for (i, &key) in keys.iter().enumerate() {
        let shard = (i % shard_count as usize) as u32;
        routing.insert(key, shard);
        owned[shard as usize].push(key);
    }

    let mut shards = Vec::with_capacity(shard_count as usize);
    for (shard, keys) in owned.iter().enumerate() {
        let name = format!("shard-{shard:04}.tc");
        let path = dir.join(&name);
        write_store_inner(tables, &path, block_entries, Some(keys))?;
        // Seal the exact bytes just written: length + whole-file CRC.
        let bytes = std::fs::read(&path)?;
        shards.push(ShardFileMeta {
            name,
            file_len: bytes.len() as u64,
            content_crc: crc32(&bytes),
        });
    }

    let n = tables.num_nodes();
    let labels: Vec<LabelId> = (0..n).map(|i| tables.label(NodeId(i as u32))).collect();
    let num_labels = labels.iter().map(|l| l.0 + 1).max().unwrap_or(0);
    let manifest = Manifest {
        block_entries: block_entries as u32,
        num_labels,
        labels,
        shards,
        routing,
    };
    std::fs::write(dir.join("MANIFEST"), manifest.encode())?;
    Ok(manifest)
}

fn write_store_inner(
    tables: &ClosureTables,
    path: &Path,
    block_entries: usize,
    // When set, emit only this subset of label pairs (a shard file);
    // `None` emits every pair in sorted order.
    only_pairs: Option<&[(LabelId, LabelId)]>,
) -> Result<(), StorageError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    let mut offset: u64 = 0;
    let emit = |w: &mut BufWriter<std::fs::File>, buf: &[u8], offset: &mut u64| {
        w.write_all(buf).map(|()| *offset += buf.len() as u64)
    };
    /// Appends the CRC-32 of everything in `buf` past `from`.
    fn seal(buf: &mut Vec<u8>, from: usize) {
        let sum = crc32(&buf[from..]);
        put_u32(buf, sum);
    }

    // Header: magic, counts, block capacity, labels, crc over
    // everything past the magic.
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC_V3);
    let n = tables.num_nodes();
    let num_labels = (0..n)
        .map(|i| tables.label(NodeId(i as u32)).0 + 1)
        .max()
        .unwrap_or(0);
    put_u32(&mut buf, n as u32);
    put_u32(&mut buf, num_labels);
    put_u32(&mut buf, block_entries as u32);
    for i in 0..n {
        put_u32(&mut buf, tables.label(NodeId(i as u32)).0);
    }
    seal(&mut buf, 8);
    emit(&mut w, &buf, &mut offset)?;

    let mut keys: Vec<_> = match only_pairs {
        Some(subset) => subset.to_vec(),
        None => tables.iter_pairs().map(|(k, _)| k).collect(),
    };
    keys.sort_unstable();

    // Per-pair sections.
    let mut index_entries: Vec<(u32, u32, u64, u64, u64)> = Vec::with_capacity(keys.len());
    for &(a, b) in &keys {
        let table = tables.pair(a, b).expect("key from iter_pairs");
        let d_off = offset;
        let mut buf = Vec::new();
        // D section: min incoming distance per destination node.
        put_u32(&mut buf, table.dst_nodes().len() as u32);
        for &v in table.dst_nodes() {
            put_u32(&mut buf, v.0);
            put_u32(
                &mut buf,
                table.min_incoming_dist(v).expect("non-empty group"),
            );
        }
        seal(&mut buf, 0);
        emit(&mut w, &buf, &mut offset)?;

        // E section.
        let e_off = offset;
        let mut buf = Vec::new();
        put_u32(&mut buf, table.min_out().len() as u32);
        for &(s, d, dist) in table.min_out() {
            put_u32(&mut buf, s.0);
            put_u32(&mut buf, d.0);
            put_u32(&mut buf, dist);
        }
        seal(&mut buf, 0);
        emit(&mut w, &buf, &mut offset)?;

        // L directory + blocks. Directory entries carry absolute
        // offsets of a group's first block, so compute the blocks' base
        // first (past the directory and its trailing CRC).
        let dir_off = offset;
        let dir_bytes = 4 + table.dst_nodes().len() * (4 + 8 + 4) + 4;
        let mut groups_base = dir_off + dir_bytes as u64;
        let mut buf = Vec::new();
        put_u32(&mut buf, table.dst_nodes().len() as u32);
        for &v in table.dst_nodes() {
            let len = table.incoming(v).len();
            put_u32(&mut buf, v.0);
            put_u64(&mut buf, groups_base);
            put_u32(&mut buf, len as u32);
            // Every group starts on a fresh block boundary and occupies
            // whole (padded, individually sealed) blocks.
            groups_base +=
                (v3_group_blocks(len, block_entries) * v3_block_bytes(block_entries)) as u64;
        }
        seal(&mut buf, 0);
        // Blocks: fixed payload (zero-padded tail) + CRC each.
        for &v in table.dst_nodes() {
            for chunk in table.incoming(v).chunks(block_entries) {
                let from = buf.len();
                for &(s, dist) in chunk {
                    put_u32(&mut buf, s.0);
                    put_u32(&mut buf, dist);
                }
                buf.resize(from + block_entries * L_ENTRY_BYTES, 0);
                seal(&mut buf, from);
            }
        }
        emit(&mut w, &buf, &mut offset)?;
        index_entries.push((a.0, b.0, d_off, e_off, dir_off));
    }

    // Index + footer.
    let index_off = offset;
    let mut buf = Vec::new();
    put_u32(&mut buf, index_entries.len() as u32);
    for (a, b, d, e, dir) in index_entries {
        put_u32(&mut buf, a);
        put_u32(&mut buf, b);
        put_u64(&mut buf, d);
        put_u64(&mut buf, e);
        put_u64(&mut buf, dir);
    }
    seal(&mut buf, 0);
    put_u64(&mut buf, index_off);
    buf.extend_from_slice(MAGIC_V3);
    emit(&mut w, &buf, &mut offset)?;
    w.flush()?;
    Ok(())
}
