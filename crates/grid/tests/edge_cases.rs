//! Edge-case integration tests for the grid crate: degenerate grid
//! configurations the unit tests don't reach.

use rpdbscan_grid::{CellDictionary, DictionaryIndex, GridSpec};

fn pts(rows: &[Vec<f64>]) -> Vec<&[f64]> {
    rows.iter().map(|r| r.as_slice()).collect()
}

#[test]
fn rho_one_zero_position_bits_encode_round_trip() {
    // rho = 1 -> h = 1 -> sub-cell == cell -> d(h-1) = 0 position bits:
    // the wire format writes zero-length packed positions.
    let spec = GridSpec::new(2, 1.0, 1.0).unwrap();
    assert_eq!(spec.sub_bits(), 0);
    let rows = vec![vec![0.1, 0.1], vec![0.2, 0.2], vec![5.0, 5.0]];
    let dict = CellDictionary::build_from_points(spec, pts(&rows));
    assert!(dict.cells().iter().all(|c| c.subs.len() == 1));
    let back = CellDictionary::decode(dict.encode()).unwrap();
    for cell in dict.cells() {
        assert_eq!(back.get(&cell.coord), Some(cell));
    }
}

#[test]
fn rho_one_queries_still_sandwich() {
    // Coarsest approximation: every point approximated by its cell
    // centre; the density must stay within the (1 ± 1/2)eps sandwich.
    let spec = GridSpec::new(2, 2.0, 1.0).unwrap();
    let rows: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
        .collect();
    let dict = CellDictionary::build_from_points(spec, pts(&rows));
    let idx = DictionaryIndex::single(dict);
    let q = [4.5, 4.5];
    let approx = idx.region_query_cells(&q).density;
    let count = |r: f64| {
        rows.iter()
            .filter(|p| rpdbscan_geom::dist(&q, p) <= r)
            .count() as u64
    };
    assert!(count(1.0) <= approx, "lower bound violated");
    assert!(approx <= count(3.0), "upper bound violated");
}

#[test]
fn one_dimensional_grid() {
    let spec = GridSpec::new(1, 0.5, 0.25).unwrap();
    assert_eq!(spec.side(), 0.5); // diag == side in 1-d
    let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 0.1]).collect();
    let dict = CellDictionary::build_from_points(spec, pts(&rows));
    let idx = DictionaryIndex::new(dict, 8);
    // Point at 2.5 sees [2.0, 3.0]: 11 points, sub-cell error ±rho*eps/2.
    let d = idx.region_query_cells(&[2.5]).density;
    assert!((9..=13).contains(&d), "density {d}");
}

#[test]
fn negative_and_large_coordinates() {
    let spec = GridSpec::new(2, 1.0, 0.25).unwrap();
    let rows = vec![vec![-1e7, -1e7], vec![-1e7 + 0.1, -1e7], vec![1e7, 1e7]];
    let dict = CellDictionary::build_from_points(spec, pts(&rows));
    let idx = DictionaryIndex::new(dict, 4);
    assert_eq!(idx.region_query_cells(&[-1e7, -1e7]).density, 2);
    assert_eq!(idx.region_query_cells(&[1e7, 1e7]).density, 1);
    assert_eq!(idx.region_query_cells(&[0.0, 0.0]).density, 0);
}

#[test]
fn duplicate_points_accumulate_density() {
    let spec = GridSpec::new(2, 1.0, 0.1).unwrap();
    let rows = vec![vec![3.0, 3.0]; 250];
    let dict = CellDictionary::build_from_points(spec, pts(&rows));
    assert_eq!(dict.num_cells(), 1);
    assert_eq!(dict.num_sub_cells(), 1);
    assert_eq!(dict.total_points(), 250);
    let idx = DictionaryIndex::single(dict);
    assert_eq!(idx.region_query_cells(&[3.0, 3.0]).density, 250);
}

#[test]
fn query_stats_accounting_consistent() {
    let spec = GridSpec::new(2, 1.0, 0.25).unwrap();
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|i| vec![(i % 20) as f64 * 0.7, (i / 20) as f64 * 0.7])
        .collect();
    let dict = CellDictionary::build_from_points(spec, pts(&rows));
    let idx = DictionaryIndex::new(dict, 16);
    let total_frags = idx.num_subdicts() as u32;
    let stats = idx.region_query_cells(&[5.0, 3.0]).stats;
    assert_eq!(stats.subdicts_skipped + stats.subdicts_visited, total_frags);
    assert!(stats.cells_full + stats.cells_partial <= stats.cells_candidate);
}
