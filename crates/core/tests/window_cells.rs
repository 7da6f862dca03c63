//! The window path of Phase II against the per-point kd oracle.
//!
//! Phase II answers every cell from its ε-window, gathered once: a window
//! whose total density is below minPts marks the cell non-core outright,
//! each other point sums the window nearest first and stops at minPts,
//! and a core cell's successors are found per window cell. These tests
//! pin that path bit-identical to `QueryRouting::Oracle` (cell types,
//! edges and core point ids), with the dictionary in deal order as the
//! batch pipeline builds it, on:
//!
//! * sparse points that include cell faces and lattice corners, over dims
//!   1–5, both window gathers, ρ {1, 0.1, 0.01}, minPts {1, 4, 25, 10⁶}
//!   and 1 or 3 partitions;
//! * tight blobs with heavy cells plus noise, and noise alone, over dims
//!   1–4, ρ {1, 0.1, 0.01} and minPts {2, 5, 8};
//! * hand-built cells: a window whose total is exactly minPts, and a
//!   one-point cell that is core only through its neighbour.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpdbscan_core::partition::{group_by_cell, pseudo_random_deal, CellPoints};
use rpdbscan_core::phase2::{build_local_clustering, QueryRouting};
use rpdbscan_core::{CellSource, CellType};
use rpdbscan_geom::Dataset;
use rpdbscan_grid::{CellDictionary, CellEntry, DictionaryIndex, GridSpec};

const EPS: f64 = 1.0;

/// `n` points in `[0, extent)^dim`: a third uniform, a third on lattice
/// corners (every coordinate a multiple of the cell side) and a third on
/// a cell face (one coordinate a multiple of the side).
fn lattice_mix(dim: usize, seed: u64, n: usize, extent: f64) -> Dataset {
    let side = EPS / (dim as f64).sqrt();
    let cells = (extent / side).floor() as i64;
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut p: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..extent)).collect();
            match i % 3 {
                0 => {}
                1 => p
                    .iter_mut()
                    .for_each(|v| *v = rng.gen_range(0..=cells) as f64 * side),
                _ => p[rng.gen_range(0..dim)] = rng.gen_range(0..=cells) as f64 * side,
            }
            p
        })
        .collect();
    Dataset::from_rows(dim, &rows).unwrap()
}

/// `n` points along the last axis, all inside one lattice column: the
/// directory holds a single column, so for `dim ≥ 2` the window gather
/// takes the kd branch.
fn one_column(dim: usize, seed: u64, n: usize, extent: f64) -> Dataset {
    let side = EPS / (dim as f64).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let mut p: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..side)).collect();
            p[dim - 1] = rng.gen_range(0.0..extent);
            p
        })
        .collect();
    Dataset::from_rows(dim, &rows).unwrap()
}

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

/// The cells, their deal into `k` partitions, and the index over a
/// dictionary whose ids follow the deal, as the batch pipeline assembles it.
fn world(data: &Dataset, rho: f64, k: usize) -> (Vec<CellPoints>, Vec<Vec<u32>>, DictionaryIndex) {
    let spec = GridSpec::new(data.dim(), EPS, rho).unwrap();
    let cells = group_by_cell(&spec, data);
    let parts = pseudo_random_deal((0..cells.len() as u32).collect(), k, 11);
    let entries: Vec<CellEntry> = parts
        .iter()
        .flatten()
        .map(|&ci| {
            let c = &cells[ci as usize];
            CellEntry::from_points(
                &spec,
                c.coord.clone(),
                c.points.iter().map(|&p| data.point(p)),
            )
        })
        .collect();
    let dict = CellDictionary::from_entries(spec, entries);
    (cells, parts, DictionaryIndex::new(dict, 64))
}

/// Runs every partition under the oracle and the window path, and asserts
/// they agree. Returns whether the index walked columns.
fn assert_matches_oracle(data: &Dataset, rho: f64, k: usize, min_pts: usize) -> bool {
    let (cells, parts, index) = world(data, rho, k);
    let src = CellSource::Resident {
        data,
        cells: &cells,
    };
    for part in &parts {
        let oracle =
            build_local_clustering(&src, part, &index, min_pts, QueryRouting::Oracle).unwrap();
        let window =
            build_local_clustering(&src, part, &index, min_pts, QueryRouting::Window).unwrap();
        let ctx = format!(
            "dim {} n {} rho {rho} k {k} minPts {min_pts}",
            data.dim(),
            data.len()
        );
        assert_eq!(window.subgraph.types(), oracle.subgraph.types(), "{ctx}");
        assert_eq!(window.subgraph.edges(), oracle.subgraph.edges(), "{ctx}");
        assert_eq!(window.core_points, oracle.core_points, "{ctx}");
        assert_eq!(window.queries, oracle.queries, "{ctx}");
        assert_eq!(window.stats.cells_routed_kd as usize, part.len(), "{ctx}");
        assert_eq!(
            window.stats.plan_hits + window.stats.plans_built,
            0,
            "{ctx}"
        );
    }
    index.column_walks()
}

#[test]
fn window_path_matches_oracle() {
    // Extents that keep a few points per cell at n = 240.
    let extents = [30.0, 7.0, 4.0, 3.0, 2.6];
    let (mut walked, mut searched) = (0, 0);
    for dim in 1..=5 {
        let extent = extents[dim - 1];
        let inputs = [
            lattice_mix(dim, 100 + dim as u64, 240, extent),
            one_column(dim, 200 + dim as u64, 60, extent),
        ];
        for data in &inputs {
            for rho in [1.0, 0.1, 0.01] {
                for min_pts in [1, 4, 25, 1_000_000] {
                    for k in [1, 3] {
                        if assert_matches_oracle(data, rho, k, min_pts) {
                            walked += 1;
                        } else {
                            searched += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        walked > 0 && searched > 0,
        "walked {walked}, searched {searched}"
    );
}

/// A window whose total density equals minPts exactly: a tight group of
/// five points around a lattice corner, split over four cells, with
/// nothing else within reach. Every point reaches all five sub-cells, so
/// every point is core at minPts = 5 although no cell holds more than
/// two points.
#[test]
fn window_total_equal_to_min_pts_is_not_light() {
    let side = EPS / 2f64.sqrt();
    let corner = 3.0 * side;
    let rows: Vec<Vec<f64>> = [
        [-0.01, -0.01],
        [0.01, -0.01],
        [-0.01, 0.01],
        [0.01, 0.01],
        [0.005, 0.01],
    ]
    .iter()
    .map(|o| vec![corner + o[0], corner + o[1]])
    .collect();
    let mut rows = rows;
    rows.push(vec![corner + 10.0, corner + 10.0]); // a far singleton
    let data = Dataset::from_rows(2, &rows).unwrap();
    let min_pts = 5;
    for rho in [1.0, 0.1, 0.01] {
        for k in [1, 2] {
            let (cells, parts, index) = world(&data, rho, k);
            let src = CellSource::Resident {
                data: &data,
                cells: &cells,
            };
            let mut cores = 0;
            for part in &parts {
                let local =
                    build_local_clustering(&src, part, &index, min_pts, QueryRouting::Window)
                        .unwrap();
                cores += local.core_points.values().map(Vec::len).sum::<usize>();
                let core_cells = local
                    .subgraph
                    .types()
                    .iter()
                    .filter(|&&(_, t)| t == CellType::Core)
                    .count();
                assert_eq!(core_cells, local.core_points.len());
            }
            assert_eq!(cores, 5, "rho {rho} k {k}: the group's points are core");
            assert_matches_oracle(&data, rho, k, min_pts);
            // One more than the window holds: nothing is core.
            assert_matches_oracle(&data, rho, k, min_pts + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dims 1–4 × ρ {1.0, 0.1, 0.01} × partitions {1, 3} on clustered
    /// inputs, where some cell holds at least 8 points.
    #[test]
    fn window_path_matches_oracle_on_clustered_inputs(
        seed in 0u64..10_000,
        min_pts in prop::sample::select(vec![2usize, 5, 8]),
    ) {
        for dim in 1..=4 {
            let data = clustered(dim, seed, 3, 40);
            let spec = GridSpec::new(dim, EPS, 1.0).unwrap();
            let heaviest = group_by_cell(&spec, &data)
                .iter()
                .map(|c| c.points.len())
                .max()
                .unwrap_or(0);
            prop_assert!(heaviest >= 8, "dim {}: heaviest cell holds {}", dim, heaviest);
            for rho in [1.0, 0.1, 0.01] {
                for k in [1, 3] {
                    assert_matches_oracle(&data, rho, k, min_pts);
                }
            }
        }
    }

    /// Uniform noise alone: few or no heavy cells, same answers.
    #[test]
    fn window_path_matches_oracle_on_noise(seed in 0u64..10_000, dim in 1usize..=4) {
        let data = clustered(dim, seed, 0, 200);
        for rho in [1.0, 0.1, 0.01] {
            assert_matches_oracle(&data, rho, 3, 3);
        }
    }
}

/// A cell holding fewer than minPts points whose point is core through a
/// neighbour's sub-cell.
#[test]
fn cell_below_min_pts_is_core_through_a_neighbour() {
    let rho = 0.1;
    let side = EPS / 2f64.sqrt();
    // Cell A = [0, side)²: one point at its centre. Cell B, A's right
    // neighbour: five points in one sub-cell hugging the shared edge.
    // That sub-cell's centre is within ε of A's point, whose density is
    // 1 + 5 = 6.
    let mut rows = vec![vec![side / 2.0, side / 2.0]];
    rows.extend((0..5).map(|_| vec![side + 0.01, side / 2.0]));
    let data = Dataset::from_rows(2, &rows).unwrap();
    let min_pts = 5;
    let (cells, _, index) = world(&data, rho, 1);
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
    let window =
        build_local_clustering(&src, &only_a, &index, min_pts, QueryRouting::Window).unwrap();
    assert_eq!(window.queries, 1);
    let a_idx = index.dict().index_of(&cells[a as usize].coord).unwrap();
    let b_idx = index.dict().index_of(&spec.cell_of(&rows[1])).unwrap();
    assert_eq!(window.subgraph.cell_type(a_idx), CellType::Core);
    assert_eq!(window.subgraph.edges(), &[(a_idx, b_idx)]);

    let oracle =
        build_local_clustering(&src, &only_a, &index, min_pts, QueryRouting::Oracle).unwrap();
    assert_eq!(window.subgraph.types(), oracle.subgraph.types());
    assert_eq!(window.subgraph.edges(), oracle.subgraph.edges());
    assert_eq!(window.core_points, oracle.core_points);
    // And over both cells, in every partitioning.
    for k in [1, 2] {
        assert_matches_oracle(&data, rho, k, min_pts);
    }
}
