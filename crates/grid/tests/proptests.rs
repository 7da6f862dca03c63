//! Property-based tests for the grid and dictionary.

use proptest::prelude::*;
use rpdbscan_geom::dist;
use rpdbscan_grid::{CellDictionary, DictionaryIndex, GridSpec};

fn points_strategy(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-20.0f64..20.0, dim), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every point maps to a cell whose box contains it, and to a sub-cell
    /// whose centre is within half a sub-cell diagonal.
    #[test]
    fn cell_and_subcell_containment(
        pts in points_strategy(3),
        eps in 0.2f64..5.0,
        rho_exp in 0u32..5,
    ) {
        let rho = 1.0 / (1 << rho_exp) as f64;
        let spec = GridSpec::new(3, eps, rho).unwrap();
        for p in &pts {
            let c = spec.cell_of(p);
            prop_assert!(spec.cell_aabb(&c).contains(p));
            let sub = spec.sub_index_of(&c, p);
            let center = spec.sub_center(&c, sub);
            let max_err = spec.sub_side() * (3f64).sqrt() / 2.0;
            prop_assert!(dist(p, &center) <= max_err + 1e-9);
        }
    }

    /// Dictionary totals equal the number of points, and cell counts equal
    /// the sum of their sub-cell counts.
    #[test]
    fn dictionary_conserves_mass(pts in points_strategy(2), eps in 0.2f64..5.0) {
        let spec = GridSpec::new(2, eps, 0.25).unwrap();
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec, refs);
        prop_assert_eq!(dict.total_points(), pts.len() as u64);
        for cell in dict.cells() {
            let sub_sum: u32 = cell.subs.iter().map(|s| s.count).sum();
            prop_assert_eq!(cell.count, sub_sum);
        }
    }

    /// Wire encoding round-trips exactly.
    #[test]
    fn encode_decode_identity(pts in points_strategy(2), eps in 0.2f64..5.0) {
        let spec = GridSpec::new(2, eps, 0.125).unwrap();
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec, refs);
        let back = CellDictionary::decode(dict.encode()).unwrap();
        prop_assert_eq!(back.num_cells(), dict.num_cells());
        for cell in dict.cells() {
            prop_assert_eq!(back.get(&cell.coord), Some(cell));
        }
    }

    /// The Lemma 5.2 sandwich: (1−ρ/2)ε-neighbours ≤ approximate density ≤
    /// (1+ρ/2)ε-neighbours, evaluated against the generating points.
    #[test]
    fn region_query_sandwich(
        pts in points_strategy(2),
        q in prop::collection::vec(-20.0f64..20.0, 2),
        eps in 0.3f64..4.0,
        rho_exp in 1u32..6,
    ) {
        let rho = 1.0 / (1 << rho_exp) as f64;
        let spec = GridSpec::new(2, eps, rho).unwrap();
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec, refs);
        let idx = DictionaryIndex::new(dict, 32);
        let approx = idx.region_query_cells(&q).density;
        let lower = pts.iter().filter(|p| dist(&q, p) <= (1.0 - rho / 2.0) * eps).count() as u64;
        let upper = pts.iter().filter(|p| dist(&q, p) <= (1.0 + rho / 2.0) * eps).count() as u64;
        prop_assert!(lower <= approx, "lower {lower} > approx {approx}");
        prop_assert!(approx <= upper, "approx {approx} > upper {upper}");
    }

    /// Defragmentation with any cap returns the same query results as the
    /// single-fragment dictionary (§5.2 claims no effect on results).
    #[test]
    fn defrag_invariance(
        pts in points_strategy(2),
        q in prop::collection::vec(-20.0f64..20.0, 2),
        cap in 2u64..64,
    ) {
        let spec = GridSpec::new(2, 1.0, 0.25).unwrap();
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec, refs);
        let single = DictionaryIndex::single(dict.clone());
        let frag = DictionaryIndex::new(dict, cap);
        prop_assert_eq!(single.region_query_cells(&q).density, frag.region_query_cells(&q).density);
    }
}
