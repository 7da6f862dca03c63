//! The window path of Phase II against the per-point kd oracle.
//!
//! A cell below the planner's break-even occupancy is answered from its
//! ε-window, gathered once: a window whose total density is below minPts
//! marks the cell non-core outright, each other point sums the window
//! nearest first and stops at minPts, and a core cell's successors are
//! found per window cell. These tests pin that path bit-identical to
//! `QueryRouting::Oracle` (cell types, edges and core point ids) over
//! dims 1–5, both window gathers, ρ {1, 0.1, 0.01}, minPts
//! {1, 4, 25, 10⁶} and 1 or 3 partitions, on points that include cell
//! faces and lattice corners, with the dictionary in deal order as the
//! batch pipeline builds it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpdbscan_core::partition::{group_by_cell, pseudo_random_deal, CellPoints};
use rpdbscan_core::phase2::{build_local_clustering, QueryRouting};
use rpdbscan_core::{CellSource, CellType};
use rpdbscan_geom::Dataset;
use rpdbscan_grid::{CellDictionary, CellEntry, DictionaryIndex, GridSpec, PlannerCostModel};

const EPS: f64 = 1.0;

/// Routes every cell, whatever its occupancy, to the window path.
const ALL_WINDOW: QueryRouting = QueryRouting::Auto(PlannerCostModel {
    min_occupancy: u32::MAX,
});

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

/// Runs every partition under the oracle, the all-window routing and the
/// production routing, and asserts all three agree. Returns whether the
/// index walked columns.
fn assert_matches_oracle(data: &Dataset, rho: f64, k: usize, min_pts: usize) -> bool {
    let (cells, parts, index) = world(data, rho, k);
    let src = CellSource::Resident {
        data,
        cells: &cells,
    };
    for part in &parts {
        let oracle =
            build_local_clustering(&src, part, &index, min_pts, QueryRouting::Oracle).unwrap();
        for routing in [ALL_WINDOW, QueryRouting::auto(&index)] {
            let routed = build_local_clustering(&src, part, &index, min_pts, routing).unwrap();
            let ctx = format!(
                "dim {} n {} rho {rho} k {k} minPts {min_pts} {routing:?}",
                data.dim(),
                data.len()
            );
            assert_eq!(routed.subgraph.types(), oracle.subgraph.types(), "{ctx}");
            assert_eq!(routed.subgraph.edges(), oracle.subgraph.edges(), "{ctx}");
            assert_eq!(routed.core_points, oracle.core_points, "{ctx}");
            assert_eq!(routed.queries, oracle.queries, "{ctx}");
        }
        let all = build_local_clustering(&src, part, &index, min_pts, ALL_WINDOW).unwrap();
        assert_eq!(all.stats.cells_routed_kd as usize, part.len());
        assert_eq!(all.stats.plan_hits + all.stats.plans_built, 0);
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
                    build_local_clustering(&src, part, &index, min_pts, ALL_WINDOW).unwrap();
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
