//! Store-file integrity and buffer-pool behaviour: every corruption a
//! disk can inflict must surface as a typed [`StoreError`], and the pool
//! must honour pins, evict towards its budget, and count faithfully.

use rpdbscan_grid::GridSpec;
use rpdbscan_store::{
    BufferPool, ColumnStore, PageKey, StoreError, StoreWriter, FORMAT_VERSION, MAGIC,
};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rpdbscan-store-test-{}-{tag}.store",
        std::process::id()
    ))
}

/// Writes a 2-d store of `n` deterministic points at 8 rows per page.
fn write_store(tag: &str, n: usize) -> PathBuf {
    let spec = GridSpec::new(2, 1.0, 0.5).unwrap();
    let mut w = StoreWriter::new(spec, 8).unwrap();
    for i in 0..n {
        let x = (i % 17) as f64 * 0.3;
        let y = (i / 17) as f64 * 0.4;
        w.push(&[x, y]).unwrap();
    }
    let path = temp_path(tag);
    let stats = w.finish(&path).unwrap();
    assert_eq!(stats.points, n as u64);
    path
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn round_trip_preserves_points_and_order() {
    let path = write_store("roundtrip", 100);
    let _c = Cleanup(path.clone());
    let store = Arc::new(ColumnStore::open(&path).unwrap());
    assert_eq!(store.len(), 100);
    assert_eq!(store.dim(), 2);
    let pool = BufferPool::new(Arc::clone(&store), u64::MAX);

    // Every directory cell's rows must decode back to points that (a)
    // really belong to that cell and (b) carry ascending original ids.
    let spec = store.spec().clone();
    let mut coords = Vec::new();
    let mut ids = Vec::new();
    let mut seen = [false; 100];
    for meta in store.cells() {
        pool.gather_coords(meta.row_start, meta.row_count, &mut coords)
            .unwrap();
        pool.gather_ids(meta.row_start, meta.row_count, &mut ids)
            .unwrap();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend in-cell");
        for (j, &id) in ids.iter().enumerate() {
            assert!(!seen[id as usize], "id {id} duplicated");
            seen[id as usize] = true;
            let p = &coords[j * 2..(j + 1) * 2];
            assert_eq!(spec.cell_of(p), meta.coord);
            // Reconstruct the original point from its id and compare
            // bitwise — the file round-trip must be exact.
            let x = (id % 17) as f64 * 0.3;
            let y = (id / 17) as f64 * 0.4;
            assert_eq!(p, &[x, y]);
        }
    }
    assert!(seen.iter().all(|&s| s), "every point accounted for");
}

#[test]
fn rows_of_ids_locates_core_points() {
    let path = write_store("rows-of-ids", 64);
    let _c = Cleanup(path.clone());
    let store = Arc::new(ColumnStore::open(&path).unwrap());
    let pool = BufferPool::new(Arc::clone(&store), u64::MAX);
    let mut ids = Vec::new();
    let mut rows = Vec::new();
    let mut coords = Vec::new();
    let meta = store
        .cells()
        .iter()
        .find(|m| m.row_count >= 2)
        .expect("a multi-point cell");
    pool.gather_ids(meta.row_start, meta.row_count, &mut ids)
        .unwrap();
    // Ask for a strict subset (every other id).
    let want: Vec<u32> = ids.iter().copied().step_by(2).collect();
    pool.rows_of_ids(meta.row_start, meta.row_count, &want, &mut rows)
        .unwrap();
    assert_eq!(rows.len(), want.len());
    pool.gather_rows_coords(&rows, &mut coords).unwrap();
    for (j, &id) in want.iter().enumerate() {
        let x = (id % 17) as f64 * 0.3;
        let y = (id / 17) as f64 * 0.4;
        assert_eq!(&coords[j * 2..(j + 1) * 2], &[x, y]);
    }
    // An id that is not in the cell is a corruption-grade error.
    let err = pool
        .rows_of_ids(meta.row_start, meta.row_count, &[u32::MAX], &mut rows)
        .unwrap_err();
    assert!(matches!(
        err,
        StoreError::Corrupt {
            what: "permutation",
            ..
        }
    ));
}

#[test]
fn bad_magic_is_rejected() {
    let path = write_store("magic", 10);
    let _c = Cleanup(path.clone());
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        ColumnStore::open(&path).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
}

#[test]
fn future_version_is_rejected() {
    let path = write_store("version", 10);
    let _c = Cleanup(path.clone());
    let mut bytes = std::fs::read(&path).unwrap();
    let future = (FORMAT_VERSION + 1).to_le_bytes();
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&future);
    std::fs::write(&path, &bytes).unwrap();
    match ColumnStore::open(&path).unwrap_err() {
        StoreError::UnsupportedVersion { got, supported } => {
            assert_eq!(got, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncation_is_typed_at_every_layer() {
    let path = write_store("truncate", 50);
    let _c = Cleanup(path.clone());
    let bytes = std::fs::read(&path).unwrap();
    // Shorter than a header.
    std::fs::write(&path, &bytes[..40]).unwrap();
    assert!(matches!(
        ColumnStore::open(&path).unwrap_err(),
        StoreError::Truncated { what: "header", .. }
    ));
    // Header intact, body cut.
    std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
    assert!(matches!(
        ColumnStore::open(&path).unwrap_err(),
        StoreError::Truncated {
            what: "file body",
            ..
        }
    ));
    // Trailing garbage is corruption, not silence.
    let mut long = bytes.clone();
    long.extend_from_slice(&[0u8; 7]);
    std::fs::write(&path, &long).unwrap();
    assert!(matches!(
        ColumnStore::open(&path).unwrap_err(),
        StoreError::Corrupt {
            what: "file body",
            ..
        }
    ));
}

#[test]
fn flipped_page_byte_fails_its_checksum() {
    let path = write_store("bitrot", 50);
    let _c = Cleanup(path.clone());
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one byte in the first coordinate page (just past the header).
    bytes[72 + 3] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    // The directory still checks out, so open succeeds…
    let store = ColumnStore::open(&path).unwrap();
    // …but reading the damaged page is a typed checksum failure.
    let mut buf = Vec::new();
    match store.read_page(0, 0, &mut buf).unwrap_err() {
        StoreError::ChecksumMismatch {
            what: "page",
            col: 0,
            page: 0,
            expected,
            got,
        } => assert_ne!(expected, got),
        other => panic!("expected page ChecksumMismatch, got {other:?}"),
    }
    // And the pool propagates it.
    let pool = BufferPool::new(Arc::new(store), u64::MAX);
    assert!(matches!(
        pool.pin(PageKey { col: 0, page: 0 }).unwrap_err(),
        StoreError::ChecksumMismatch { .. }
    ));
}

#[test]
fn flipped_directory_byte_fails_at_open() {
    let path = write_store("dirrot", 50);
    let _c = Cleanup(path.clone());
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 0x80;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        ColumnStore::open(&path).unwrap_err(),
        StoreError::ChecksumMismatch {
            what: "directory",
            ..
        }
    ));
}

#[test]
fn empty_store_round_trips() {
    let spec = GridSpec::new(3, 2.0, 0.25).unwrap();
    let w = StoreWriter::new(spec, 16).unwrap();
    let path = temp_path("empty");
    let _c = Cleanup(path.clone());
    let stats = w.finish(&path).unwrap();
    assert_eq!(stats.points, 0);
    assert_eq!(stats.cells, 0);
    assert_eq!(stats.pages, 0);
    let store = ColumnStore::open(&path).unwrap();
    assert!(store.is_empty());
    assert_eq!(store.cells().len(), 0);
    assert_eq!(store.pages_per_col(), 0);
    assert_eq!(store.dim(), 3);
    assert_eq!(store.eps(), 2.0);
}

#[test]
fn pool_evicts_towards_budget_and_counts() {
    let path = write_store("pool", 200);
    let _c = Cleanup(path.clone());
    let store = Arc::new(ColumnStore::open(&path).unwrap());
    // Budget of exactly two full coordinate pages (8 rows × 8 bytes).
    let pool = BufferPool::new(Arc::clone(&store), 2 * 8 * 8);
    let pages = store.pages_per_col();
    assert!(pages >= 4, "need enough pages to force eviction");

    // Touch every coordinate page of column 0, dropping each pin.
    for page in 0..pages {
        let p = pool.pin(PageKey { col: 0, page }).unwrap();
        assert_eq!(p.bytes().len(), store.page_bytes(0, page) as usize);
    }
    let s = pool.stats();
    assert_eq!(s.misses, pages as u64);
    assert_eq!(s.hits, 0);
    assert!(s.evictions > 0, "tiny budget must evict");
    assert!(s.tracked_bytes <= s.budget_bytes);
    assert!(s.peak_tracked_bytes >= s.tracked_bytes);

    // Re-pinning a page still cached is a hit; an evicted one refetches.
    let before = pool.stats();
    let _p = pool
        .pin(PageKey {
            col: 0,
            page: pages - 1,
        })
        .unwrap();
    let after = pool.stats();
    assert_eq!(after.hits + after.misses, before.hits + before.misses + 1);
}

#[test]
fn pinned_pages_survive_eviction_pressure() {
    let path = write_store("pins", 200);
    let _c = Cleanup(path.clone());
    let store = Arc::new(ColumnStore::open(&path).unwrap());
    let pool = BufferPool::new(Arc::clone(&store), 8 * 8); // one page
    let pages = store.pages_per_col();

    // Hold a pin while cycling the rest of the column through the pool.
    let pinned = pool.pin(PageKey { col: 0, page: 0 }).unwrap();
    let expected = pinned.bytes().to_vec();
    for page in 1..pages {
        let _ = pool.pin(PageKey { col: 0, page }).unwrap();
    }
    // The pinned page's bytes are untouched and still cached: re-pinning
    // it is a hit, not a refetch.
    assert_eq!(pinned.bytes(), &expected[..]);
    let before = pool.stats();
    let again = pool.pin(PageKey { col: 0, page: 0 }).unwrap();
    assert_eq!(pool.stats().hits, before.hits + 1);
    assert_eq!(again.bytes(), &expected[..]);
    // Budget was honestly overshot while both the pin and a newer page
    // were live; the peak records it.
    assert!(pool.stats().peak_tracked_bytes >= 2 * 8 * 8);
}

#[test]
fn pool_pin_evict_refetch_sequence_is_deterministic() {
    let path = write_store("determinism", 150);
    let _c = Cleanup(path.clone());
    let run = || {
        let store = Arc::new(ColumnStore::open(&path).unwrap());
        let pool = BufferPool::new(Arc::clone(&store), 3 * 8 * 8);
        let pages = store.pages_per_col();
        // A fixed access pattern with re-visits.
        for round in 0..3 {
            for page in 0..pages {
                let col = (round + page) % 3;
                let _ = pool.pin(PageKey { col, page }).unwrap();
            }
        }
        pool.stats()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical access pattern must give identical stats");
    assert!(a.evictions > 0);
}

#[test]
fn store_order_scan_reads_each_page_once_at_a_quarter_budget() {
    let path = write_store("scan", 2000);
    let _c = Cleanup(path.clone());
    let store = Arc::new(ColumnStore::open(&path).unwrap());
    let pages = store.pages_per_col() as u64;
    assert!(pages >= 100, "need a multi-page store");
    let pool = BufferPool::new(Arc::clone(&store), store.resident_bytes() / 4);

    // One reader gathers every cell in store order: each coordinate page
    // is read once and stays cached for the cells after it.
    let mut coords = Vec::new();
    for meta in store.cells() {
        pool.gather_coords(meta.row_start, meta.row_count, &mut coords)
            .unwrap();
    }
    let s = pool.stats();
    assert_eq!(s.misses, store.dim() as u64 * pages, "{s:?}");
    assert!(s.evictions > 0, "a quarter budget must evict: {s:?}");
    assert!(s.peak_tracked_bytes <= s.budget_bytes + 8 * 8, "{s:?}");
}

#[test]
fn interleaved_columns_never_evict_a_page_about_to_be_reused() {
    let path = write_store("interleave", 200);
    let _c = Cleanup(path.clone());
    let store = Arc::new(ColumnStore::open(&path).unwrap());
    let pool = BufferPool::new(Arc::clone(&store), 3 * 8 * 8); // three pages
    let pages = store.pages_per_col();

    // Page `i` of both columns, pinned alternately a few times, as a
    // row gather over cells within one page does. A freshly read page is
    // reused at once, so it must never be the next miss's victim.
    for page in 0..pages {
        for _ in 0..3 {
            for col in 0..2 {
                let _ = pool.pin(PageKey { col, page }).unwrap();
            }
        }
    }
    let s = pool.stats();
    assert_eq!(s.misses, 2 * pages as u64, "{s:?}");
    assert_eq!(s.hits, 4 * pages as u64, "{s:?}");
}
