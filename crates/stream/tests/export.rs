//! The batch run and the stream publish the same cell records: after the
//! stream inserts the rows a batch run clustered, `CellGraph::export` and
//! `StreamingRpDbscan::export_cells` agree on every cell's coordinate,
//! core status, predecessors and core points, and their cluster ids
//! differ by at most a renaming.

use std::collections::HashMap;
use std::f64::consts::TAU;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpdbscan_core::{CellExport, RpDbscan, RpDbscanParams};
use rpdbscan_geom::Dataset;
use rpdbscan_stream::StreamingRpDbscan;

/// Three golden-angle blobs, a sparse halo around each and two far
/// outliers, so the grid holds core cells, border cells with several
/// predecessors, and noise.
fn rows(dim: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for (b, centre) in [0.0, 2.2, 7.0].into_iter().enumerate() {
        for i in 0..70 {
            let a = (i as f64 + b as f64 * 0.3) * 0.618_033_988_75 * TAU;
            let r = 0.6 * ((i % 10) as f64 / 10.0);
            out.push(
                (0..dim)
                    .map(|d| centre + r * (a + d as f64 * 1.3).cos())
                    .collect(),
            );
        }
    }
    // A sparse halo just outside each blob: border points, some within
    // ε of core cells of two blobs, and noise.
    let mut rng = StdRng::seed_from_u64(dim as u64);
    for centre in [0.0, 2.2, 7.0] {
        for _ in 0..40 {
            out.push(
                (0..dim)
                    .map(|_| centre + rng.gen_range(-1.1..1.1))
                    .collect(),
            );
        }
    }
    out.push(vec![50.0; dim]);
    out.push(vec![-40.0; dim]);
    out
}

/// A cell's core points as a sorted list of coordinate rows.
fn sorted_points(flat: &[f64], dim: usize) -> Vec<Vec<f64>> {
    let mut pts: Vec<Vec<f64>> = flat.chunks_exact(dim).map(<[f64]>::to_vec).collect();
    pts.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
    pts
}

fn assert_exports_agree(batch: &[CellExport], stream: &[CellExport], dim: usize, ctx: &str) {
    assert_eq!(batch.len(), stream.len(), "cell counts differ: {ctx}");
    let mut to_stream: HashMap<u32, u32> = HashMap::new();
    let mut to_batch: HashMap<u32, u32> = HashMap::new();
    for (b, s) in batch.iter().zip(stream) {
        let cell = format!("{ctx} cell={}", b.coord);
        assert_eq!(b.coord, s.coord, "coordinates differ: {cell}");
        assert_eq!(
            b.cluster.is_some(),
            s.cluster.is_some(),
            "core status differs: {cell}"
        );
        assert_eq!(b.preds, s.preds, "predecessors differ: {cell}");
        assert_eq!(
            sorted_points(&b.core_coords, dim),
            sorted_points(&s.core_coords, dim),
            "core points differ: {cell}"
        );
        if let (Some(bc), Some(sc)) = (b.cluster, s.cluster) {
            assert_eq!(*to_stream.entry(bc).or_insert(sc), sc, "not a map: {cell}");
            assert_eq!(
                *to_batch.entry(sc).or_insert(bc),
                bc,
                "not one-to-one: {cell}"
            );
        }
    }
}

#[test]
fn batch_and_stream_exports_agree() {
    // The predecessor order only matters where a border cell has several.
    let mut multi_pred_borders = 0;
    for dim in 1..=3usize {
        let rows = rows(dim);
        let data = Dataset::from_rows(dim, &rows).unwrap();
        for rho in [1.0, 0.1] {
            let params = RpDbscanParams::new(0.5, 5).with_rho(rho);
            let mut stream = StreamingRpDbscan::new(dim, params).unwrap();
            stream.insert_rows(&rows).unwrap();
            let from_stream = stream.export_cells();
            for k in [1usize, 4, 9] {
                let ctx = format!("dim={dim} rho={rho} k={k}");
                let out = RpDbscan::new(params.with_partitions(k))
                    .unwrap()
                    .run_local(&data)
                    .unwrap();
                assert!(out.clustering.num_clusters() >= 1, "{ctx}");
                assert!(out.clustering.noise_count() >= 1, "{ctx}");
                let from_batch = out.cells.export(&data);
                multi_pred_borders += from_batch.iter().filter(|c| c.preds.len() > 1).count();
                assert_exports_agree(&from_batch, &from_stream, dim, &ctx);
            }
        }
    }
    assert!(
        multi_pred_borders > 0,
        "no border cell had several predecessors"
    );
}
