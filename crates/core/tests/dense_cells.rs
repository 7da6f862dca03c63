//! The dense-cell path of Phase II against the per-point kd oracle.
//!
//! A planned cell whose plan proves every point's density ≥ minPts skips
//! the per-point region queries: all its points are core and its
//! successor cells are found per cell. These tests pin that path
//! bit-identical to `QueryRouting::Oracle` (cell types, edges and core
//! point ids) on clustered inputs, where dense cells are common, and on
//! one hand-built cell that is dense only through a neighbour.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpdbscan_core::partition::{group_by_cell, pseudo_random_deal, CellPoints};
use rpdbscan_core::phase2::{build_local_clustering, QueryRouting};
use rpdbscan_core::{CellSource, CellType};
use rpdbscan_geom::Dataset;
use rpdbscan_grid::{CellDictionary, DictionaryIndex, GridSpec};

const EPS: f64 = 1.0;

/// Tight blobs plus uniform noise in `[0, 10)^dim`. Each blob spans 0.1
/// per axis, less than a cell side (`ε/√dim ≥ 0.5` for `dim ≤ 4`), so it
/// touches at most `2^dim ≤ 16` cells: 128 points leave some cell with
/// at least 8 of them.
fn clustered(dim: usize, seed: u64, blobs: usize, noise: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    for _ in 0..blobs {
        let centre: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.5..9.5)).collect();
        for _ in 0..128 {
            rows.push(
                centre
                    .iter()
                    .map(|&c| c + rng.gen_range(-0.05..0.05))
                    .collect::<Vec<f64>>(),
            );
        }
    }
    for _ in 0..noise {
        rows.push((0..dim).map(|_| rng.gen_range(0.0..10.0)).collect());
    }
    Dataset::from_rows(dim, &rows).unwrap()
}

/// The cells and their dictionary index (small fragments, so plans span
/// several sub-dictionaries).
fn world(data: &Dataset, rho: f64) -> (Vec<CellPoints>, DictionaryIndex) {
    let spec = GridSpec::new(data.dim(), EPS, rho).unwrap();
    let cells = group_by_cell(&spec, data);
    let dict = CellDictionary::build_from_points(spec, data.iter().map(|(_, p)| p));
    (cells, DictionaryIndex::new(dict, 64))
}

/// Runs every partition under `Planned` and `Auto`, asserts both equal
/// the oracle bit for bit, and returns the points the `Planned` route
/// resolved dense.
fn assert_matches_oracle(data: &Dataset, rho: f64, k: usize, min_pts: usize) -> u64 {
    let (cells, index) = world(data, rho);
    let src = CellSource::Resident {
        data,
        cells: &cells,
    };
    let parts = pseudo_random_deal((0..cells.len() as u32).collect(), k, 7);
    let mut dense = 0;
    for part in &parts {
        let oracle =
            build_local_clustering(&src, part, &index, min_pts, QueryRouting::Oracle).unwrap();
        assert_eq!(
            oracle.stats.points_dense, 0,
            "the oracle queries every point"
        );
        for routing in [QueryRouting::Planned, QueryRouting::auto(&index)] {
            let routed = build_local_clustering(&src, part, &index, min_pts, routing).unwrap();
            let ctx = format!(
                "dim {} rho {rho} k {k} minPts {min_pts} {routing:?}",
                data.dim()
            );
            assert_eq!(routed.subgraph.types(), oracle.subgraph.types(), "{ctx}");
            assert_eq!(routed.subgraph.edges(), oracle.subgraph.edges(), "{ctx}");
            assert_eq!(routed.core_points, oracle.core_points, "{ctx}");
            assert_eq!(routed.queries, oracle.queries, "{ctx}");
            if routing == QueryRouting::Planned {
                assert_eq!(
                    u64::from(routed.stats.plan_hits + routed.stats.points_dense),
                    routed.queries,
                    "{ctx}: every planned point is queried or resolved dense"
                );
                dense += u64::from(routed.stats.points_dense);
            }
        }
    }
    dense
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dims 1–4 × ρ {1.0, 0.1, 0.01} × partitions {1, 3} on clustered
    /// inputs: the dense path fires and changes nothing.
    #[test]
    fn dense_path_matches_oracle_on_clustered_inputs(
        seed in 0u64..10_000,
        min_pts in prop::sample::select(vec![2usize, 5, 8]),
    ) {
        for dim in 1..=4 {
            let data = clustered(dim, seed, 3, 40);
            for rho in [1.0, 0.1, 0.01] {
                for k in [1, 3] {
                    let dense = assert_matches_oracle(&data, rho, k, min_pts);
                    prop_assert!(dense > 0, "no dense cell: dim {} rho {} k {}", dim, rho, k);
                }
            }
        }
    }

    /// Uniform noise alone: few or no dense cells, same answers.
    #[test]
    fn sparse_inputs_match_oracle(seed in 0u64..10_000, dim in 1usize..=4) {
        let data = clustered(dim, seed, 0, 200);
        for rho in [1.0, 0.1, 0.01] {
            assert_matches_oracle(&data, rho, 3, 3);
        }
    }
}

/// A cell holding fewer than minPts points is still resolved dense when
/// a neighbour's always-qualifying sub-cells lift its density floor.
#[test]
fn cell_below_min_pts_is_dense_through_a_neighbour() {
    let rho = 0.1;
    let side = EPS / 2f64.sqrt();
    // Cell A = [0, side)²: one point at its centre. Cell B, A's right
    // neighbour: five points in one sub-cell hugging the shared edge.
    // That sub-cell's centre is within ε of every point of A with a wide
    // margin, so A's floor is 1 + 5 = 6.
    let mut rows = vec![vec![side / 2.0, side / 2.0]];
    rows.extend((0..5).map(|_| vec![side + 0.01, side / 2.0]));
    let data = Dataset::from_rows(2, &rows).unwrap();
    let min_pts = 5;
    let (cells, index) = world(&data, rho);
    let spec = index.spec().clone();
    let a = cells
        .iter()
        .position(|c| c.coord == spec.cell_of(&rows[0]))
        .unwrap() as u32;
    assert_eq!(cells[a as usize].points.len(), 1, "A holds one point");
    let src = CellSource::Resident {
        data: &data,
        cells: &cells,
    };
    let only_a = [a];
    let planned =
        build_local_clustering(&src, &only_a, &index, min_pts, QueryRouting::Planned).unwrap();
    assert_eq!(planned.stats.points_dense, 1, "A skipped its query");
    assert_eq!(planned.stats.plan_hits, 0);
    assert_eq!(planned.queries, 1);
    let a_idx = index.dict().index_of(&cells[a as usize].coord).unwrap();
    let b_idx = index.dict().index_of(&spec.cell_of(&rows[1])).unwrap();
    assert_eq!(planned.subgraph.cell_type(a_idx), CellType::Core);
    assert_eq!(planned.subgraph.edges(), &[(a_idx, b_idx)]);

    let oracle =
        build_local_clustering(&src, &only_a, &index, min_pts, QueryRouting::Oracle).unwrap();
    assert_eq!(planned.subgraph.types(), oracle.subgraph.types());
    assert_eq!(planned.subgraph.edges(), oracle.subgraph.edges());
    assert_eq!(planned.core_points, oracle.core_points);
    // And over both cells, in every partitioning.
    for k in [1, 2] {
        assert_matches_oracle(&data, rho, k, min_pts);
    }
}
