//! The out-of-core pipeline must be bit-identical to the resident one:
//! same labels, same cluster statistics, same shared RunStats counters —
//! across dimensionality, ρ, pool budget and partition count. The pool
//! budget may change how often pages are refetched, but never what the
//! algorithm computes.

use rpdbscan_core::partition::group_by_cell;
use rpdbscan_core::{pseudo_random_deal, OutOfCoreConfig, RpDbscan, RpDbscanParams, RunStats};
use rpdbscan_engine::{CostModel, Engine};
use rpdbscan_geom::Dataset;
use rpdbscan_grid::{CellDictionary, CellEntry, GridSpec};
use rpdbscan_store::{ColumnStore, StoreWriter};
use std::sync::Arc;

/// Deterministic multi-blob dataset in `dim` dimensions: three dense
/// blobs plus a sprinkling of sparse outliers, sized to span many cells.
fn blobs(dim: usize, n_per_blob: usize) -> Vec<Vec<f64>> {
    let centers: [f64; 3] = [0.0, 9.0, -7.5];
    let mut rows = Vec::new();
    for (b, &c) in centers.iter().enumerate() {
        for i in 0..n_per_blob {
            let a = (i as f64 + b as f64 * 0.37) * 0.61803398875;
            let r = 0.45 * ((i % 10) as f64 / 10.0);
            let mut row = vec![0.0; dim];
            for (d, v) in row.iter_mut().enumerate() {
                *v = c + r * (a + d as f64).cos();
            }
            rows.push(row);
        }
    }
    for i in 0..8 {
        let mut row = vec![0.0; dim];
        for (d, v) in row.iter_mut().enumerate() {
            *v = 40.0 + (i * 7 + d * 3) as f64;
        }
        rows.push(row);
    }
    rows
}

fn build_store(
    rows: &[Vec<f64>],
    dim: usize,
    eps: f64,
    rho: f64,
    page_rows: u32,
) -> Arc<ColumnStore> {
    let spec = GridSpec::new(dim, eps, rho).unwrap();
    let mut w = StoreWriter::new(spec, page_rows).unwrap();
    for row in rows {
        w.push(row).unwrap();
    }
    // Tests run in parallel in one process and may build equal stores:
    // a per-call serial keeps one test from removing another's file.
    static SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let serial = SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "rpdbscan-equiv-{}-{serial}-{dim}-{page_rows}-{}.store",
        std::process::id(),
        rows.len()
    ));
    w.finish(&dir).unwrap();
    let store = Arc::new(ColumnStore::open(&dir).unwrap());
    std::fs::remove_file(&dir).unwrap();
    store
}

/// Zeroes the OOC-only fields so the shared counters can be compared
/// against a resident run's stats directly.
fn normalized(stats: &RunStats) -> RunStats {
    let mut s = stats.clone();
    s.out_of_core = false;
    s.pool_budget_bytes = 0;
    s.pool_hits = 0;
    s.pool_misses = 0;
    s.pool_evictions = 0;
    s.pool_peak_tracked_bytes = 0;
    s.spill_bytes_written = 0;
    s.spill_bytes_read = 0;
    s.merge_peak_frontier_bytes = 0;
    s
}

#[test]
fn ooc_matches_resident_across_the_grid() {
    let eps = 1.0;
    let min_pts = 5;
    // Tiny: a handful of 64-row pages; ample: everything fits.
    let budgets: [(&str, u64); 2] = [("tiny", 3 * 64 * 8), ("ample", u64::MAX)];
    for dim in [2usize, 3] {
        let rows = blobs(dim, 60);
        let data = Dataset::from_rows(dim, &rows).unwrap();
        for rho in [1.0, 0.1] {
            let store = build_store(&rows, dim, eps, rho, 64);
            for k in [1usize, 4] {
                let params = RpDbscanParams::new(eps, min_pts)
                    .with_rho(rho)
                    .with_partitions(k);
                let engine = Engine::with_cost_model(4, CostModel::free());
                let runner = RpDbscan::new(params).unwrap();
                let resident = runner.run(&data, &engine).unwrap();
                for (tag, budget) in budgets {
                    let ooc = runner
                        .run_out_of_core(&store, &OutOfCoreConfig::new(budget), &engine)
                        .unwrap();
                    let ctx = format!("dim={dim} rho={rho} k={k} budget={tag}");
                    assert_eq!(ooc.clustering, resident.clustering, "labels diverge: {ctx}");
                    assert_eq!(
                        ooc.cells.export(&data),
                        resident.cells.export(&data),
                        "cell exports diverge: {ctx}"
                    );
                    assert_eq!(
                        normalized(&ooc.stats),
                        normalized(&resident.stats),
                        "shared counters diverge: {ctx}"
                    );
                    assert!(ooc.stats.out_of_core);
                    assert_eq!(ooc.stats.pool_budget_bytes, budget);
                    assert!(
                        ooc.stats.spill_bytes_written > 0 || store.is_empty(),
                        "phase II must spill: {ctx}"
                    );
                    if k > 1 {
                        assert!(
                            ooc.stats.spill_bytes_read > 0,
                            "the tournament must stream spills back: {ctx}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn tiny_budget_run_is_deterministic() {
    // With one worker the pin/evict/refetch sequence is a pure function
    // of the input, so even the pool counters must reproduce exactly.
    let dim = 2;
    let rows = blobs(dim, 60);
    let store = build_store(&rows, dim, 1.0, 0.1, 64);
    let params = RpDbscanParams::new(1.0, 5).with_rho(0.1).with_partitions(4);
    let runner = RpDbscan::new(params).unwrap();
    let cfg = OutOfCoreConfig::new(2 * 64 * 8);
    let engine = Engine::with_cost_model(1, CostModel::free());
    let a = runner.run_out_of_core(&store, &cfg, &engine).unwrap();
    let b = runner.run_out_of_core(&store, &cfg, &engine).unwrap();
    assert_eq!(a.clustering, b.clustering);
    assert_eq!(a.stats, b.stats);
    assert!(a.stats.pool_evictions > 0, "tiny budget must evict");
    assert!(a.stats.pool_misses > a.stats.pool_evictions / 2);
}

/// Phase I-2 reads cells in store order, but the dictionary lists them in
/// the seeded deal's order: clusters are numbered by dictionary index, so
/// that order fixes the labels.
#[test]
fn dictionary_keeps_the_deal_order() {
    let (dim, eps, rho) = (2, 1.0, 0.1);
    let rows = blobs(dim, 60);
    let data = Dataset::from_rows(dim, &rows).unwrap();
    let spec = GridSpec::new(dim, eps, rho).unwrap();
    let cells = group_by_cell(&spec, &data);
    let store = build_store(&rows, dim, eps, rho, 32);
    let engine = Engine::with_cost_model(4, CostModel::free());
    for k in [1usize, 3, 16] {
        let params = RpDbscanParams::new(eps, 5).with_rho(rho).with_partitions(k);
        let deal = pseudo_random_deal((0..cells.len() as u32).collect(), k, params.seed).concat();
        let expected = CellDictionary::from_entries(
            spec.clone(),
            deal.iter().map(|&ci| {
                let cell = &cells[ci as usize];
                let points = cell.points.iter().map(|&id| data.point(id));
                CellEntry::from_points(&spec, cell.coord.clone(), points)
            }),
        )
        .encode();
        let runner = RpDbscan::new(params).unwrap();
        let resident = runner.run(&data, &engine).unwrap();
        let ooc = runner
            .run_out_of_core(&store, &OutOfCoreConfig::new(3 * 32 * 8), &engine)
            .unwrap();
        assert!(resident.cells.dict().encode() == expected, "resident k={k}");
        assert!(ooc.cells.dict().encode() == expected, "out-of-core k={k}");
    }
}

#[test]
fn grid_mismatch_is_a_typed_error() {
    let rows = blobs(2, 20);
    let store = build_store(&rows, 2, 1.0, 0.1, 64);
    let engine = Engine::with_cost_model(2, CostModel::free());
    for (eps, rho, field) in [(2.0, 0.1, "eps"), (1.0, 0.5, "rho")] {
        let runner = RpDbscan::new(RpDbscanParams::new(eps, 5).with_rho(rho)).unwrap();
        let err = runner
            .run_out_of_core(&store, &OutOfCoreConfig::new(1 << 20), &engine)
            .unwrap_err();
        match err {
            rpdbscan_core::CoreError::Store(rpdbscan_store::StoreError::GridMismatch {
                field: f,
                ..
            }) => assert_eq!(f, field),
            other => panic!("expected GridMismatch({field}), got {other:?}"),
        }
    }
}

#[test]
fn empty_store_clusters_nothing() {
    let spec = GridSpec::new(2, 1.0, 0.1).unwrap();
    let w = StoreWriter::new(spec, 64).unwrap();
    let path =
        std::env::temp_dir().join(format!("rpdbscan-equiv-empty-{}.store", std::process::id()));
    let stats = w.finish(&path).unwrap();
    assert_eq!(stats.points, 0);
    let store = Arc::new(ColumnStore::open(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    assert!(store.is_empty());
    let engine = Engine::with_cost_model(2, CostModel::free());
    let runner = RpDbscan::new(RpDbscanParams::new(1.0, 5).with_rho(0.1)).unwrap();
    let out = runner
        .run_out_of_core(&store, &OutOfCoreConfig::new(1 << 20), &engine)
        .unwrap();
    assert_eq!(out.clustering.len(), 0);
    assert_eq!(out.stats.num_clusters, 0);
    assert_eq!(out.stats.points_processed, 0);
}

#[test]
fn injected_fault_fails_typed_and_leaves_no_spill_files() {
    let rows = blobs(2, 60);
    let store = build_store(&rows, 2, 1.0, 0.1, 64);
    let spill_root =
        std::env::temp_dir().join(format!("rpdbscan-equiv-fault-{}.spill", std::process::id()));
    std::fs::create_dir_all(&spill_root).unwrap();
    let cfg = OutOfCoreConfig::new(1 << 20).with_spill_dir(spill_root.clone());
    let engine = Engine::with_cost_model(4, CostModel::free());
    let params = RpDbscanParams::new(1.0, 5).with_rho(0.1).with_partitions(4);

    let faulty = RpDbscan::new(params.with_injected_fault(1)).unwrap();
    match faulty.run_out_of_core(&store, &cfg, &engine).unwrap_err() {
        rpdbscan_core::CoreError::Stage(e) => {
            assert_eq!(e.stage, "phase2:local-clustering");
            assert!(e.to_string().contains("injected fault"), "{e}");
        }
        other => panic!("expected Stage error, got {other:?}"),
    }
    let left: Vec<_> = std::fs::read_dir(&spill_root).unwrap().collect();
    assert!(left.is_empty(), "spill files left behind: {left:?}");

    // The engine survives the failure and runs the same store again.
    let ok = RpDbscan::new(params)
        .unwrap()
        .run_out_of_core(&store, &cfg, &engine)
        .unwrap();
    assert_eq!(ok.clustering.num_clusters(), 3);
    assert!(ok.stats.spill_bytes_written > 0);
    std::fs::remove_dir(&spill_root).unwrap();
}
