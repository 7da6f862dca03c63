//! The cell sort and its sample-sort reduce against a `BTreeMap`
//! reference, and the sorted sub-cell histograms against a hash-map one.
//!
//! The reference groups points the obvious way: `GridSpec::cell_of` per
//! point into a `BTreeMap<CellCoord, Vec<PointId>>`, whose iteration
//! order is coordinate order with ids pushed ascending. One sort of all
//! points, and the sorts of `k` consecutive ranges merged bucket by
//! bucket, must both list exactly those cells and ids.

use proptest::prelude::*;
use rpdbscan_geom::PointId;
use rpdbscan_grid::{CellCoord, CellEntry, CellRuns, FxHashMap, GridSpec, SubCellIdx};
use std::collections::BTreeMap;

/// Dimensionalities the kernel is checked in.
const DIMS: [usize; 6] = [1, 2, 3, 4, 5, 13];

/// Points from raw draws: `(lattice step, fraction)` per coordinate,
/// placed by `mode` — 0 anywhere (negatives included), 1 exactly on cell
/// faces, 2 all inside one cell, 3 far apart (lattice offsets of several
/// bytes), 4 out to the ends of the `i64` lattice — with the first `dup`
/// points repeated.
fn points(spec: &GridSpec, raw: &[Vec<(i32, f64)>], mode: u8, dup: usize) -> Vec<Vec<f64>> {
    let side = spec.side();
    let mut pts: Vec<Vec<f64>> = raw
        .iter()
        .map(|row| {
            row[..spec.dim()]
                .iter()
                .map(|&(i, f)| match mode {
                    0 => (i as f64 + f) * side * 1.7,
                    1 => i as f64 * side,
                    2 => (3.25 + 0.5 * f) * side,
                    3 => (i as f64 * 1e6 + f) * side,
                    _ => i as f64 * 4e18 * side + f,
                })
                .collect()
        })
        .collect();
    for i in 0..dup.min(pts.len()) {
        pts.push(pts[i].clone());
    }
    pts
}

fn reference(spec: &GridSpec, pts: &[Vec<f64>]) -> BTreeMap<CellCoord, Vec<PointId>> {
    let mut map: BTreeMap<CellCoord, Vec<PointId>> = BTreeMap::new();
    for (i, p) in pts.iter().enumerate() {
        map.entry(spec.cell_of(p))
            .or_default()
            .push(PointId(i as u32));
    }
    map
}

/// `runs` as `(coordinate, ids)` pairs, for comparison with the
/// reference.
fn listed(runs: &CellRuns) -> Vec<(CellCoord, Vec<PointId>)> {
    (0..runs.len())
        .map(|ci| {
            let ids = runs.ids(ci).iter().map(|&i| PointId(i)).collect();
            (runs.coord(ci), ids)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn sort_and_sample_sort_match_btreemap(
        dim_at in 0usize..DIMS.len(),
        mode in 0u8..5,
        raw in prop::collection::vec(prop::collection::vec((-6i32..6, 0.0f64..1.0), 13), 0..90),
        dup in 0usize..4,
        ranges in 1usize..24,
        eps in 0.3f64..3.0,
    ) {
        let dim = DIMS[dim_at];
        let spec = GridSpec::new(dim, eps, 0.5).unwrap();
        let pts = points(&spec, &raw, mode, dup);
        let want: Vec<(CellCoord, Vec<PointId>)> = reference(&spec, &pts).into_iter().collect();
        let flat: Vec<f64> = pts.concat();
        let n = pts.len();

        let once = CellRuns::sort(&spec, &flat, 0);
        prop_assert_eq!(listed(&once), want.clone());
        prop_assert_eq!(once.all_ids().len(), n);
        for ci in 0..once.len() {
            prop_assert_eq!(once.coord(ci), CellCoord::new(once.lattice(ci).iter().copied()));
            prop_assert_eq!(&once.all_ids()[once.rows(ci)], once.ids(ci));
        }

        // `ranges` consecutive ranges, empty ones included when there are
        // more ranges than points.
        let runs: Vec<CellRuns> = (0..ranges)
            .map(|j| {
                let (lo, hi) = (j * n / ranges, (j + 1) * n / ranges);
                CellRuns::sort(&spec, &flat[lo * dim..hi * dim], lo as u32)
            })
            .collect();
        let splitters = CellRuns::splitters(&runs, ranges);
        prop_assert_eq!(splitters.len() % dim, 0);
        let buckets = splitters.len() / dim + 1;
        prop_assert!(buckets <= ranges);
        let merged: Vec<CellRuns> = (0..buckets)
            .map(|b| CellRuns::merge(dim, &runs, &splitters, b))
            .collect();
        if want.len() <= 1 {
            // One cell (or none): every bucket but one is empty.
            prop_assert!(merged.iter().filter(|b| !b.is_empty()).count() <= 1);
        }
        let joined = CellRuns::concat(dim, merged);
        prop_assert_eq!(listed(&joined), want);
        prop_assert_eq!(joined, once);
    }

    #[test]
    fn sorted_histograms_match_a_hash_map(
        dim_at in 0usize..DIMS.len(),
        raw in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 13), 1..120),
        cut in 0usize..120,
        rho_exp in 0u32..5,
    ) {
        let dim = DIMS[dim_at];
        let rho = 1.0 / (1u32 << rho_exp) as f64;
        let Ok(spec) = GridSpec::new(dim, 1.0, rho) else {
            // 13-d at a fine ρ exceeds the 128-bit sub-cell budget.
            return Ok(());
        };
        // All points in cell (2, …, 2); coarse fractions repeat sub-cells.
        let pts: Vec<Vec<f64>> = raw
            .iter()
            .map(|r| r[..dim].iter().map(|f| (2.0 + (f * 8.0).floor() / 8.0) * spec.side()).collect())
            .collect();
        let coord = spec.cell_of(&pts[0]);
        let mut hist: FxHashMap<SubCellIdx, u32> = FxHashMap::default();
        for p in &pts {
            prop_assert_eq!(&spec.cell_of(p), &coord);
            *hist.entry(spec.sub_index_of(&coord, p)).or_insert(0) += 1;
        }
        let mut want: Vec<(SubCellIdx, u32)> = hist.into_iter().collect();
        want.sort_unstable();
        let rows = || pts.iter().map(Vec::as_slice);
        let entry = CellEntry::from_points(&spec, coord.clone(), rows());
        let got: Vec<(SubCellIdx, u32)> = entry.subs.iter().map(|s| (s.idx, s.count)).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(entry.count as usize, pts.len());

        // Two halves merged equal the whole.
        let cut = cut.min(pts.len());
        let mut left = CellEntry::from_points(&spec, coord.clone(), rows().take(cut));
        left.merge(CellEntry::from_points(&spec, coord.clone(), rows().skip(cut)));
        prop_assert_eq!(left, entry);
    }
}
