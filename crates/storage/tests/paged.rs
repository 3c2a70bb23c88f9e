//! Paged (format v3) store suite: lazy verified block fetch, the LRU
//! block cache, shard-aligned placement, and corruption handling.

use ktpm_closure::ClosureTables;
use ktpm_graph::fixtures::paper_graph;
use ktpm_graph::{GraphBuilder, LabeledGraph, NodeId};
use ktpm_storage::{
    open_store_auto, open_store_uri, write_store, write_store_sharded, write_store_v3,
    ClosureSource, MemStore, PagedStore, ShardSpec, StorageError,
};

fn tempfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ktpm-paged-test-{}-{}", std::process::id(), name));
    p
}

/// A deterministic multi-label weighted graph big enough for multi-block
/// groups and cache churn.
fn dense_graph(n: usize, labels: usize) -> LabeledGraph {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = GraphBuilder::new();
    let nodes: Vec<_> = (0..n)
        .map(|i| b.add_node(&format!("L{}", i % labels)))
        .collect();
    for u in 0..n {
        for _ in 0..4 {
            let v = (next() % n as u64) as usize;
            if v != u {
                b.add_edge(nodes[u], nodes[v], (next() % 5 + 1) as u32);
            }
        }
    }
    b.build().unwrap()
}

fn check_equivalent(mem: &MemStore, paged: &PagedStore) {
    assert_eq!(mem.num_nodes(), paged.num_nodes());
    for i in 0..mem.num_nodes() {
        let v = NodeId(i as u32);
        assert_eq!(mem.node_label(v), paged.node_label(v));
    }
    assert_eq!(mem.pair_keys(), paged.pair_keys());
    for (a, b) in mem.pair_keys() {
        assert_eq!(mem.load_d(a, b), paged.load_d(a, b), "D table {a:?}->{b:?}");
        assert_eq!(mem.load_e(a, b), paged.load_e(a, b), "E table {a:?}->{b:?}");
        let mut pm = mem.load_pair(a, b);
        let mut pp = paged.load_pair(a, b);
        pm.sort_unstable();
        pp.sort_unstable();
        assert_eq!(pm, pp, "L table {a:?}->{b:?}");
    }
    // Cursors stream identical *content* (block sizes may differ — the
    // paged cursor is aligned to on-disk blocks), and point lookups
    // agree everywhere.
    for (a, _) in mem.pair_keys() {
        for i in 0..mem.num_nodes() {
            let v = NodeId(i as u32);
            let mut cm = mem.incoming_cursor(a, v);
            let mut cp = paged.incoming_cursor(a, v);
            assert_eq!(cm.remaining(), cp.remaining());
            let drain = |c: &mut Box<dyn ktpm_storage::EdgeCursor + Send>| {
                let mut all = Vec::new();
                loop {
                    let blk = c.next_block();
                    if blk.is_empty() {
                        break;
                    }
                    all.extend(blk);
                }
                all
            };
            assert_eq!(drain(&mut cm), drain(&mut cp), "cursor {a:?} -> {v:?}");
        }
    }
    for u in 0..mem.num_nodes() {
        for v in 0..mem.num_nodes() {
            let (u, v) = (NodeId(u as u32), NodeId(v as u32));
            assert_eq!(mem.lookup_dist(u, v), paged.lookup_dist(u, v));
        }
    }
}

#[test]
fn v3_is_the_default_and_roundtrips_against_mem() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let path = tempfile("default-roundtrip");
    write_store(&tables, &path).unwrap();
    let paged = PagedStore::open(&path).unwrap();
    paged.verify().unwrap();
    let mem = MemStore::new(tables);
    check_equivalent(&mem, &paged);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tiny_blocks_roundtrip_across_block_boundaries() {
    // block_entries=1..3 force every group across many blocks; content
    // must still be identical to memory, including resumed cursors.
    let g = dense_graph(48, 5);
    let tables = ClosureTables::compute(&g);
    for be in 1..=3usize {
        let path = tempfile(&format!("tiny-{be}"));
        write_store_v3(&tables, &path, be).unwrap();
        let paged = PagedStore::open(&path).unwrap();
        assert_eq!(paged.block_entries(), be);
        paged.verify().unwrap();
        let mem = MemStore::new(tables.clone());
        check_equivalent(&mem, &paged);
        std::fs::remove_file(&path).ok();
    }
}

/// `(length, CRC-32 of the whole file)` of the file at `path`.
fn fingerprint(path: &std::path::Path) -> (usize, u32) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), ktpm_storage::crc32(&bytes))
}

#[test]
fn v3_output_bytes_are_pinned() {
    // The writer's exact output (length, whole-file CRC-32). Existing
    // v3 files, bench caches and sharded snapshots stay valid only
    // while these hold: a new value here is a new on-disk format.
    let paper = ClosureTables::compute(&paper_graph());
    let path = tempfile("pinned-paper");
    write_store(&paper, &path).unwrap();
    assert_eq!(
        fingerprint(&path),
        (14648, 0x2210_BF8D),
        "paper_graph, block 64"
    );
    std::fs::remove_file(&path).ok();

    let dense = ClosureTables::compute(&dense_graph(48, 5));
    let path = tempfile("pinned-dense");
    write_store_v3(&dense, &path, 2).unwrap();
    assert_eq!(
        fingerprint(&path),
        (33040, 0x5ADB_F646),
        "dense_graph(48, 5), block 2"
    );
    std::fs::remove_file(&path).ok();

    let dir = tempfile("pinned-sharded");
    std::fs::remove_dir_all(&dir).ok();
    write_store_sharded(&dense, &dir, &ShardSpec::new(0, 3), 4).unwrap();
    let files = [
        "MANIFEST",
        "shard-0000.tc",
        "shard-0001.tc",
        "shard-0002.tc",
    ];
    let got: Vec<_> = files.iter().map(|f| fingerprint(&dir.join(f))).collect();
    let want = [
        (611, 0x6D9C_0118),
        (12600, 0x120E_694F),
        (11380, 0x2CC4_4ACA),
        (11380, 0xAF52_3139),
    ];
    assert_eq!(got, want, "3-shard snapshot, block 4");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn writer_rejects_zero_block_capacity() {
    let tables = ClosureTables::compute(&paper_graph());
    let path = tempfile("zero-capacity");
    assert!(matches!(
        write_store_v3(&tables, &path, 0),
        Err(StorageError::InvalidConfig(_))
    ));
    assert!(!path.exists(), "no file may be created for a bad config");
}

#[test]
fn cache_counters_flow_and_warm_reads_skip_disk() {
    let g = dense_graph(40, 4);
    let tables = ClosureTables::compute(&g);
    let path = tempfile("warm");
    write_store_v3(&tables, &path, 4).unwrap();
    // Unlimited budget: after one cold pass every block is resident.
    let paged = PagedStore::open_with_cache_bytes(&path, 0).unwrap();
    let keys = paged.pair_keys();
    for &(a, b) in &keys {
        let _ = paged.load_pair(a, b);
    }
    let cold = paged.io();
    assert!(cold.cache_misses > 0, "cold pass must miss");
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_evictions, 0, "unlimited budget never evicts");
    assert!(cold.cache_bytes_resident > 0);
    paged.reset_io();
    for &(a, b) in &keys {
        let _ = paged.load_pair(a, b);
    }
    let warm = paged.io();
    assert_eq!(warm.cache_misses, 0, "warm pass must be all hits");
    assert!(warm.cache_hits >= cold.cache_misses);
    assert_eq!(
        warm.block_reads, 0,
        "a warm cache serves group reads with zero disk fetches"
    );
    assert_eq!(warm.bytes_read, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tight_budget_bounds_resident_bytes_but_stays_correct() {
    let g = dense_graph(60, 4);
    let tables = ClosureTables::compute(&g);
    let path = tempfile("budget");
    write_store_v3(&tables, &path, 2).unwrap();
    // Budget of 4 blocks' payload (2 entries * 8B each): far below the
    // closure size, forcing constant eviction.
    let budget = 4 * 2 * 8;
    let paged = PagedStore::open_with_cache_bytes(&path, budget).unwrap();
    let mem = MemStore::new(tables);
    check_equivalent(&mem, &paged);
    let io = paged.io();
    assert!(io.cache_evictions > 0, "a tight budget must evict");
    assert!(
        io.cache_bytes_resident <= budget,
        "resident {res} exceeds budget {budget}",
        res = io.cache_bytes_resident
    );
    assert!(paged.cache_resident_bytes() <= budget);
    assert!(paged.cache_blocks() <= 4);
    std::fs::remove_file(&path).ok();
}

#[test]
fn groups_never_share_blocks_so_shards_touch_disjoint_ranges() {
    let g = dense_graph(50, 3);
    let tables = ClosureTables::compute(&g);
    let path = tempfile("shard-disjoint");
    write_store_v3(&tables, &path, 3).unwrap();
    let paged = PagedStore::open(&path).unwrap();
    let shards = ShardSpec::split(4);
    for (a, b) in paged.pair_keys() {
        let ranges = paged.group_block_ranges(a, b).unwrap();
        // Each group occupies whole blocks, non-overlapping with every
        // other group (of any pair table — offsets are absolute).
        let bb = 3 * 8 + 4;
        let mut per_shard: Vec<Vec<std::ops::Range<u64>>> = vec![Vec::new(); shards.len()];
        for (v, r) in &ranges {
            assert_eq!((r.end - r.start) % bb, 0, "group of {v:?} is whole blocks");
            let owner = shards.iter().position(|s| s.contains(*v)).unwrap();
            per_shard[owner].push(r.clone());
        }
        // Root partitions by shard touch disjoint block ranges.
        for i in 0..per_shard.len() {
            for j in i + 1..per_shard.len() {
                for x in &per_shard[i] {
                    for y in &per_shard[j] {
                        assert!(
                            x.end <= y.start || y.end <= x.start,
                            "shard {i} range {x:?} overlaps shard {j} range {y:?}"
                        );
                    }
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_rot_in_every_block_is_surfaced_never_panics() {
    // Flip a byte in EVERY v3 group block (payload and CRC positions):
    // the scrub must report Corrupt each time, and all read paths must
    // degrade (empty/partial/exhausted cursor) without panicking.
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let src = tempfile("bitrot-src");
    write_store_v3(&tables, &src, 2).unwrap();
    let bytes = std::fs::read(&src).unwrap();
    std::fs::remove_file(&src).ok();

    // Collect every block's byte range up front from a clean open.
    let clean = tempfile("bitrot-clean");
    std::fs::write(&clean, &bytes).unwrap();
    let paged = PagedStore::open(&clean).unwrap();
    let bb = 2 * 8 + 4;
    let mut block_offsets = Vec::new();
    for (a, b) in paged.pair_keys() {
        for (_, range) in paged.group_block_ranges(a, b).unwrap() {
            let mut off = range.start;
            while off < range.end {
                block_offsets.push(off);
                off += bb;
            }
        }
    }
    drop(paged);
    std::fs::remove_file(&clean).ok();
    assert!(block_offsets.len() > 10, "fixture too small to mean much");

    let path = tempfile("bitrot");
    for &off in &block_offsets {
        // One flip in the payload, one in the block's CRC.
        for delta in [1u64, bb - 2] {
            let mut corrupt = bytes.clone();
            corrupt[(off + delta) as usize] ^= 0x40;
            std::fs::write(&path, &corrupt).unwrap();
            let store = PagedStore::open(&path).expect("block rot never breaks open");
            assert!(
                matches!(store.verify(), Err(StorageError::Corrupt { .. })),
                "flip at block {off}+{delta} must fail the scrub"
            );
            for (a, b) in store.pair_keys() {
                let _ = store.load_d(a, b);
                let _ = store.load_e(a, b);
                let _ = store.load_pair(a, b);
            }
            for v in 0..store.num_nodes() {
                let v = NodeId(v as u32);
                let mut cur = store.incoming_cursor(store.node_label(v), v);
                while !cur.next_block().is_empty() {}
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_of_order_index_is_rejected_at_open() {
    // Lookups binary-search the index, so a checksummed index that is
    // not strictly ascending must fail the open, not misroute lookups.
    let tables = ClosureTables::compute(&paper_graph());
    let path = tempfile("unsorted-index");
    write_store(&tables, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let foot = bytes.len() - 16;
    let index_off = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(bytes[index_off..index_off + 4].try_into().unwrap()) as usize;
    assert!(count >= 2);
    let (first, second) = (index_off + 4, index_off + 4 + 32);
    let entry: Vec<u8> = bytes[first..second].to_vec();
    bytes.copy_within(second..second + 32, first);
    bytes[second..second + 32].copy_from_slice(&entry);
    let body_end = index_off + 4 + count * 32;
    let crc = ktpm_storage::crc32(&bytes[index_off..body_end]);
    bytes[body_end..body_end + 4].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let res = PagedStore::open(&path);
    assert!(
        matches!(res, Err(StorageError::BadFormat(_))),
        "got {:?}",
        res.err()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_at_every_byte_errors_never_panics() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let src = tempfile("trunc-src");
    write_store(&tables, &src).unwrap();
    let bytes = std::fs::read(&src).unwrap();
    std::fs::remove_file(&src).ok();
    let path = tempfile("trunc");
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let res = PagedStore::open(&path);
        assert!(
            res.is_err(),
            "truncation at {cut}/{} must fail",
            bytes.len()
        );
        if cut >= 36 {
            assert!(
                matches!(res, Err(StorageError::Corrupt { .. })),
                "truncation at {cut} should be Corrupt, got {res:?}",
                res = res.err()
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A paper-graph v3 store's bytes, for the corruption tests. `name`
/// must be unique per test: tests run concurrently in one process.
fn store_bytes(name: &str) -> Vec<u8> {
    let tables = ClosureTables::compute(&paper_graph());
    let path = tempfile(name);
    write_store(&tables, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// `bytes` with the header and footer magic replaced by `magic`.
fn with_magic(bytes: &[u8], magic: &[u8; 8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let n = out.len();
    out[..8].copy_from_slice(magic);
    out[n - 8..].copy_from_slice(magic);
    out
}

/// Asserts `res` is the rewrite refusal for a retired format `v`.
fn assert_retired<T>(res: Result<T, StorageError>, v: u32) {
    match res {
        Err(StorageError::BadFormat(m)) => {
            assert!(m.contains(&format!("v{v}")), "message names v{v}: {m}");
            assert!(m.contains("ktpm closure"), "message names the fix: {m}");
        }
        Err(e) => panic!("v{v} file must be BadFormat, got {e:?}"),
        Ok(_) => panic!("v{v} file must be refused"),
    }
}

#[test]
fn paged_store_rejects_v1_and_v2_files() {
    // Hand-built: a v3 store's bytes under the retired magics, at full
    // length and cut down to the bare magic (shorter than any header).
    let bytes = store_bytes("reject-src");
    for (magic, v) in [(b"KTPMCLO1", 1), (b"KTPMCLO2", 2)] {
        let path = tempfile(&format!("reject-v{v}"));
        for file in [with_magic(&bytes, magic), magic.to_vec()] {
            std::fs::write(&path, &file).unwrap();
            assert_retired(PagedStore::open(&path), v);
        }
        std::fs::remove_file(&path).ok();
    }
    // Any other magic stays a plain "bad magic".
    let path = tempfile("reject-other");
    for file in [with_magic(&bytes, b"KTPMCLO9"), b"NOTASTORE".to_vec()] {
        std::fs::write(&path, &file).unwrap();
        assert!(
            matches!(PagedStore::open(&path), Err(StorageError::BadFormat(m)) if m == "bad magic")
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_store_auto_dispatches_on_version() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let mem = MemStore::new(tables.clone());
    let check = |store: &dyn ClosureSource, what: &str| {
        assert_eq!(store.num_nodes(), mem.num_nodes());
        for (a, b) in mem.pair_keys() {
            let mut pm = mem.load_pair(a, b);
            let mut ps = store.load_pair(a, b);
            pm.sort_unstable();
            ps.sort_unstable();
            assert_eq!(pm, ps, "{what} {a:?}->{b:?}");
        }
    };
    // v3 single file.
    let path = tempfile("auto-v3");
    write_store(&tables, &path).unwrap();
    check(&*open_store_auto(&path, Some(0)).unwrap(), "v3");
    let bytes = std::fs::read(&path).unwrap();
    // v4 sharded snapshot, by MANIFEST path and by directory.
    let dir = tempfile("auto-v4");
    std::fs::remove_dir_all(&dir).ok();
    write_store_sharded(&tables, &dir, &ShardSpec::new(0, 2), 4).unwrap();
    check(
        &*open_store_auto(&dir.join("MANIFEST"), None).unwrap(),
        "MANIFEST",
    );
    check(&*open_store_auto(&dir, None).unwrap(), "snapshot dir");
    std::fs::remove_dir_all(&dir).ok();
    // Retired v1/v2 files are refused through every opener.
    for (magic, v) in [(b"KTPMCLO1", 1), (b"KTPMCLO2", 2)] {
        std::fs::write(&path, with_magic(&bytes, magic)).unwrap();
        assert_retired(open_store_auto(&path, None), v);
        assert_retired(open_store_uri(path.to_str().unwrap(), None), v);
    }
    std::fs::remove_file(&path).ok();
    // Garbage is still rejected.
    let path = tempfile("auto-garbage");
    std::fs::write(&path, b"clearly not a store file at all........").unwrap();
    assert!(matches!(
        open_store_auto(&path, None),
        Err(StorageError::BadFormat(m)) if m == "bad magic"
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_index_offset_is_rejected_not_followed() {
    // Point the footer's index offset past EOF: open must fail with
    // Corrupt instead of seeking into the void or allocating by a
    // garbage count.
    let mut bytes = store_bytes("badindex-src");
    let n = bytes.len();
    let path = tempfile("badindex");
    for off in [n as u64, u64::MAX - 7] {
        bytes[n - 16..n - 8].copy_from_slice(&off.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let res = PagedStore::open(&path);
        assert!(
            matches!(res, Err(StorageError::Corrupt { .. })),
            "index offset {off}: got {:?}",
            res.err()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn huge_d_count_is_corrupt_not_allocated() {
    // Overwrite the first pair's D count with u32::MAX. Open succeeds
    // (header and index are intact); the D read is bounds-checked
    // against the file length before any buffer of that size exists,
    // so it degrades to empty and the error reaches both `take_error`
    // and the scrub as Corrupt. Nothing panics.
    let mut bytes = store_bytes("badcount-src");
    let foot = bytes.len() - 16;
    let index_off = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;
    let first = index_off + 4;
    let d_off = u64::from_le_bytes(bytes[first + 8..first + 16].try_into().unwrap()) as usize;
    bytes[d_off..d_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let path = tempfile("badcount");
    std::fs::write(&path, &bytes).unwrap();
    let store = PagedStore::open(&path).unwrap();
    let keys = store.pair_keys();
    assert!(store.load_d(keys[0].0, keys[0].1).is_empty());
    assert!(matches!(
        store.take_error(),
        Some(StorageError::Corrupt { .. })
    ));
    for &(a, b) in &keys {
        let _ = store.load_d(a, b);
        let _ = store.load_e(a, b);
        let _ = store.load_pair(a, b);
    }
    assert!(matches!(store.verify(), Err(StorageError::Corrupt { .. })));
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_rot_in_any_data_byte_is_caught_by_open_or_the_scrub() {
    // Flip one bit in every 7th byte between the magic and the footer:
    // either open fails (header/label/index damage) or verify() — the
    // whole-store scrub — reports Corrupt. Every v3 byte past the
    // magic is under a checksum, block padding included.
    let bytes = store_bytes("bitrot-any-src");
    let path = tempfile("bitrot-any");
    for pos in (8..bytes.len() - 16).step_by(7) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        std::fs::write(&path, &corrupt).unwrap();
        if let Ok(store) = PagedStore::open(&path) {
            assert!(
                matches!(store.verify(), Err(StorageError::Corrupt { .. })),
                "bit flip at {pos} must be caught by open or verify"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn paged_store_counts_real_io() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let path = tempfile("iocount");
    write_store(&tables, &path).unwrap();
    let store = PagedStore::open(&path).unwrap();
    store.reset_io();
    let a = g.interner().get("a").unwrap();
    let c = g.interner().get("c").unwrap();
    let d = store.load_d(a, c);
    assert!(!d.is_empty());
    let io = store.io();
    assert!(io.block_reads >= 1);
    assert!(io.bytes_read > 0);
    assert_eq!(io.d_entries, d.len() as u64);
    std::fs::remove_file(&path).ok();
}

#[test]
fn undirected_mirror_serves_graph_patterns() {
    let g = paper_graph();
    let tables = ClosureTables::compute(&g);
    let path = tempfile("undirected");
    write_store(&tables, &path).unwrap();
    let paged = PagedStore::open(&path).unwrap().with_graph(g.clone());
    let mirror = paged.undirected().expect("graph attached");
    let mem = MemStore::new(tables).with_graph(g);
    let mem_mirror = mem.undirected().expect("graph attached");
    assert_eq!(mirror.pair_keys(), mem_mirror.pair_keys());
    for (a, b) in mirror.pair_keys() {
        let mut pp = mirror.load_pair(a, b);
        let mut pm = mem_mirror.load_pair(a, b);
        pp.sort_unstable();
        pm.sort_unstable();
        assert_eq!(pp, pm);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn verify_bypasses_and_does_not_pollute_the_cache() {
    let g = dense_graph(30, 3);
    let tables = ClosureTables::compute(&g);
    let path = tempfile("scrub-cache");
    write_store_v3(&tables, &path, 2).unwrap();
    let paged = PagedStore::open_with_cache_bytes(&path, 0).unwrap();
    paged.verify().unwrap();
    let io = paged.io();
    assert!(io.block_reads > 0, "the scrub reads from disk");
    assert_eq!(io.cache_hits, 0);
    assert_eq!(io.cache_misses, 0, "the scrub is not cache traffic");
    assert_eq!(paged.cache_blocks(), 0, "the scrub must not pollute");
    std::fs::remove_file(&path).ok();
}
