//! The out-of-core pipeline must be bit-identical to the resident one:
//! same labels, same cluster statistics, same shared RunStats counters —
//! across dimensionality, ρ, pool budget and partition count. The pool
//! budget may change how often pages are refetched, but never what the
//! algorithm computes.

use rpdbscan_core::{OutOfCoreConfig, RpDbscan, RpDbscanParams, RunStats};
use rpdbscan_engine::{CostModel, Engine};
use rpdbscan_geom::Dataset;
use rpdbscan_grid::GridSpec;
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
    let dir = std::env::temp_dir().join(format!(
        "rpdbscan-equiv-{}-{dim}-{page_rows}-{}.store",
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
