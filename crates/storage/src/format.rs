//! Binary layout of the closure store file (format v3, magic
//! `KTPMCLO3`), read by [`crate::PagedStore`]:
//!
//! ```text
//! magic "KTPMCLO3"
//! u32 num_nodes, u32 num_labels, u32 block_entries
//! labels: num_nodes * u32
//! u32 crc32 over [num_nodes .. labels]
//! per pair (in index order):
//!   D section:    u32 count, count * (u32 node, u32 dist), u32 crc32
//!   E section:    u32 count, count * (u32 src, u32 dst, u32 dist), u32 crc32
//!   L directory:  u32 group_count,
//!                 group_count * (u32 dst, u64 abs_off, u32 len), u32 crc32
//!   L blocks:     per group: ceil(len / block_entries) blocks; each
//!                 block = block_entries * 8 payload bytes of
//!                 (u32 src, u32 dist) in ascending dist (the final
//!                 block zero-padded) + u32 crc32 over the full padded
//!                 payload. `abs_off` points at a group's FIRST block.
//! index: u32 num_pairs,
//!        num_pairs * (u32 a, u32 b, u64 d_off, u64 e_off, u64 dir_off),
//!        ascending (a, b), u32 crc32
//! footer: u64 index_offset, magic "KTPMCLO3"
//! ```
//!
//! All integers little-endian. The `L` layout mirrors §4.1: incoming
//! edges of each node, grouped exclusively per (source label, node),
//! sorted by distance, addressable without scanning the table. The
//! `block_entries` header field makes files self-describing; writers
//! choose it at serialization time ([`crate::write_store_v3`]).
//!
//! ## Checksums
//!
//! Every section ends in a CRC-32 (IEEE) of its bytes, count prefix
//! included. The header and index checksums are verified **eagerly at
//! open**; each `D`/`E`/directory checksum on the read that first
//! touches the section; each group block's checksum as the block is
//! fetched, so block cursors verify every fragment without reading the
//! whole group. Bit rot therefore surfaces as [`StorageError::Corrupt`]
//! the moment damaged bytes are read, not merely bounds-checked.
//!
//! Because a block holds entries of exactly one destination node, any
//! [`crate::ShardSpec`] partition of the root candidates touches
//! *disjoint* block sets — parallel shards never contend for (or
//! falsely share) a cached block.
//!
//! ## Version 4: the sharded-snapshot `MANIFEST`
//!
//! Version 4 (magic `KTPMCLO4`) is not a new closure-file layout — it
//! is the **manifest** of a sharded snapshot written by
//! [`crate::write_store_sharded`]: one small routing file (`MANIFEST`)
//! next to a set of plain v3 shard files, each holding a disjoint
//! subset of the label-pair tables. Readers ([`crate::ShardedStore`],
//! [`crate::RemoteStore`]) open the manifest, answer
//! `num_nodes`/`node_label`/`pair_keys` from it directly, and open a
//! shard file only when a query first touches a label pair routed to
//! it.
//!
//! ```text
//! magic "KTPMCLO4"
//! u32 shard_count, u32 block_entries, u32 num_nodes, u32 num_labels
//! labels: num_nodes * u32
//! per shard (shard_count times, in file-id order):
//!   u32 name_len, name_len bytes (UTF-8 file name, no path),
//!   u64 file_len, u32 content_crc32 (over the whole shard file)
//! routing: u32 pair_count, pair_count * (u32 a, u32 b, u32 shard),
//!          ascending (a, b)
//! u32 crc32 over everything past the magic
//! ```
//!
//! The trailing CRC-32 covers every byte after the magic, so any
//! truncation or bit flip in the manifest is detected at open. Shard
//! file names are stored without directory components and resolved
//! relative to the manifest's parent directory. The per-file
//! `content_crc32` lets `ktpm store verify` prove a shard file is the
//! exact one the writer sealed before scrubbing its sections. A shard's
//! **file id** is its position in the manifest's shard list — the id
//! the remote `FETCH` protocol and the shared block-cache key use.
//!
//! ## Retired versions
//!
//! Versions 1 (`KTPMCLO1`, no checksums) and 2 (`KTPMCLO2`, packed
//! unblocked groups) are no longer read or written. Their magics are
//! recognised only so that opening such a file fails with a
//! [`StorageError::BadFormat`] that says to rewrite it
//! ([`bad_magic`]).
//!
//! The `get_*` readers are **fallible**: a buffer too short for the
//! requested integer yields [`StorageError::Corrupt`] instead of a
//! panic, so a truncated or bit-rotted snapshot surfaces as an `Err`
//! rather than aborting the process.

use crate::source::StorageError;

/// Store-file magic (paged, per-block checksummed groups), read by
/// [`crate::PagedStore`].
pub const MAGIC_V3: &[u8; 8] = b"KTPMCLO3";
/// Version-4 magic: the `MANIFEST` of a sharded snapshot (routing +
/// integrity metadata over a set of v3 shard files; see the module
/// docs). Read by [`crate::ShardedStore`] / [`crate::RemoteStore`].
pub const MAGIC_V4: &[u8; 8] = b"KTPMCLO4";
pub const FOOTER_LEN: u64 = 8 + 8;

/// Magics of the retired v1 and v2 layouts, in version order.
const RETIRED_MAGICS: [&[u8; 8]; 2] = [b"KTPMCLO1", b"KTPMCLO2"];

/// The open error for a file whose first bytes `magic` are not a v3
/// store's: a retired v1/v2 magic names its version and the rewrite
/// command, anything else is plain `"bad magic"`.
pub(crate) fn bad_magic(magic: &[u8]) -> StorageError {
    match RETIRED_MAGICS.iter().position(|m| m[..] == *magic) {
        Some(i) => StorageError::BadFormat(format!(
            "format v{v} store: this build no longer reads v{v} files; \
             rewrite it from the graph with `ktpm closure`",
            v = i + 1
        )),
        None => StorageError::BadFormat("bad magic".into()),
    }
}

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial:
/// `CRC_TABLES[0]` is the classic byte-at-a-time table, and
/// `CRC_TABLES[s][i]` is the CRC state of byte `i` followed by `s` zero
/// bytes, so eight input bytes fold into the state with eight lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// Streaming CRC-32 (IEEE 802.3) update; start from
/// [`CRC_INIT`], finish with [`crc32_finish`]. Folds eight bytes per
/// step (slicing-by-8); the values are those of the byte-at-a-time
/// table algorithm.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Initial CRC-32 state.
pub const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Finalizes a streaming CRC-32 state.
pub fn crc32_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

/// One-shot CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC_INIT, bytes))
}

/// Size of one `L` entry on disk: `(u32 src, u32 dist)`.
pub const L_ENTRY_BYTES: usize = 8;

/// Default cursor block size in `L` entries (512 bytes per block).
/// Doubles as the default v3 on-disk block capacity.
pub const DEFAULT_BLOCK_EDGES: usize = 64;

/// On-disk size of one v3 group block holding `entries` `L` entries:
/// the fixed (zero-padded) payload plus its trailing CRC-32.
pub const fn v3_block_bytes(entries: usize) -> usize {
    entries * L_ENTRY_BYTES + 4
}

/// Number of v3 blocks a group of `len` entries occupies.
pub const fn v3_group_blocks(len: usize, block_entries: usize) -> usize {
    len.div_ceil(block_entries)
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32` at `*pos`, advancing the position.
/// Errors with [`StorageError::Corrupt`] when fewer than 4 bytes
/// remain — the offset reported is the read position within `buf`.
pub fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, StorageError> {
    match buf.get(*pos..).and_then(|b| b.get(..4)) {
        Some(bytes) => {
            let v = u32::from_le_bytes(bytes.try_into().expect("sliced to 4 bytes"));
            *pos += 4;
            Ok(v)
        }
        None => Err(StorageError::Corrupt {
            offset: *pos as u64,
            needed: 4,
        }),
    }
}

/// Reads a little-endian `u64` at `*pos`, advancing the position;
/// fallible exactly like [`get_u32`].
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, StorageError> {
    match buf.get(*pos..).and_then(|b| b.get(..8)) {
        Some(bytes) => {
            let v = u64::from_le_bytes(bytes.try_into().expect("sliced to 8 bytes"));
            *pos += 8;
            Ok(v)
        }
        None => Err(StorageError::Corrupt {
            offset: *pos as u64,
            needed: 8,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u32(&mut buf, 7);
        let mut pos = 0;
        assert_eq!(get_u32(&buf, &mut pos).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u32(&buf, &mut pos).unwrap(), 7);
        assert_eq!(pos, 8);
    }

    #[test]
    fn u64_roundtrip() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX - 3);
        let mut pos = 0;
        assert_eq!(get_u64(&buf, &mut pos).unwrap(), u64::MAX - 3);
    }

    #[test]
    fn short_buffers_error_instead_of_panicking() {
        // Every truncation point of a u32/u64 read must yield Corrupt
        // with the exact position and need — and leave `pos` untouched.
        let buf = [1u8, 2, 3];
        for start in 0..=buf.len() {
            let mut pos = start;
            match get_u32(&buf, &mut pos) {
                Err(StorageError::Corrupt { offset, needed }) => {
                    assert_eq!(offset, start as u64);
                    assert_eq!(needed, 4);
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
            assert_eq!(pos, start, "failed reads must not advance");
            let mut pos = start;
            assert!(matches!(
                get_u64(&buf, &mut pos),
                Err(StorageError::Corrupt { needed: 8, .. })
            ));
        }
    }

    #[test]
    fn reads_past_usize_boundary_do_not_overflow() {
        let buf = [0u8; 4];
        let mut pos = usize::MAX - 1;
        assert!(get_u32(&buf, &mut pos).is_err());
        assert!(get_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming equals one-shot.
        let s = crc32_update(CRC_INIT, b"1234");
        let s = crc32_update(s, b"56789");
        assert_eq!(crc32_finish(s), 0xCBF4_3926);
    }

    /// The byte-at-a-time reference the sliced update must equal.
    fn crc32_update_bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut c = state;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c
    }

    /// A deterministic xorshift byte stream for the CRC tests.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_equals_bytewise_reference() {
        // Lengths 0..=64 cover every remainder after the 8-byte words,
        // each from the initial, a zero and an arbitrary state.
        let buf = noise(0x9E37_79B9, 64);
        for len in 0..=64 {
            for state in [CRC_INIT, 0, 0x1234_5678] {
                assert_eq!(
                    crc32_update(state, &buf[..len]),
                    crc32_update_bytewise(state, &buf[..len]),
                    "length {len}, state {state:#x}"
                );
            }
        }
        for seed in 1..=20u64 {
            let len = 1 + (seed as usize * 977) % 5000;
            let buf = noise(seed, len);
            assert_eq!(
                crc32(&buf),
                crc32_finish(crc32_update_bytewise(CRC_INIT, &buf)),
                "seed {seed}, length {len}"
            );
        }
    }

    #[test]
    fn sliced_crc32_agrees_across_random_splits() {
        for seed in 1..=20u64 {
            let buf = noise(seed.wrapping_mul(0xA24B_AED4_963E_E407), 3000);
            let whole = crc32(&buf);
            let mut cuts = noise(seed, 6)
                .iter()
                .map(|&b| (b as usize * buf.len()) / 256)
                .collect::<Vec<_>>();
            cuts.sort_unstable();
            let mut state = CRC_INIT;
            let mut from = 0;
            for cut in cuts.into_iter().chain([buf.len()]) {
                state = crc32_update(state, &buf[from..cut]);
                from = cut;
            }
            assert_eq!(crc32_finish(state), whole, "seed {seed}");
        }
    }

    #[test]
    fn retired_magics_name_their_version_and_the_rewrite() {
        for (magic, v) in [(b"KTPMCLO1", 1), (b"KTPMCLO2", 2)] {
            match bad_magic(magic) {
                StorageError::BadFormat(m) => {
                    assert!(m.contains(&format!("v{v}")), "{m}");
                    assert!(m.contains("ktpm closure"), "{m}");
                }
                other => panic!("expected BadFormat, got {other:?}"),
            }
        }
        for magic in [&b"KTPMXXX9"[..], MAGIC_V4, b"KTPMCLO"] {
            assert!(matches!(bad_magic(magic), StorageError::BadFormat(m) if m == "bad magic"));
        }
    }

    #[test]
    fn v3_block_geometry() {
        assert_eq!(v3_block_bytes(64), 64 * 8 + 4);
        assert_eq!(v3_group_blocks(0, 64), 0);
        assert_eq!(v3_group_blocks(1, 64), 1);
        assert_eq!(v3_group_blocks(64, 64), 1);
        assert_eq!(v3_group_blocks(65, 64), 2);
        assert_eq!(v3_group_blocks(129, 64), 3);
    }
}
