//! Equivalence suite for the cell-level query planner: a planned query
//! must be indistinguishable from the unplanned `(ε,ρ)`-region query — the
//! correctness oracle — for every point of the planned cell's box, across
//! approximation rates, dimensionalities, and fragmentations.
//!
//! "Indistinguishable" is checked strictly: equal density, equal neighbour
//! cell set, and equal per-point `cells_full` / `cells_partial` /
//! `subcells_reported` counters. Only the amortised candidate-search
//! counters may differ (they live in the plan's one-off build stats).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpdbscan_grid::{
    CellDictionary, CellQueryPlan, DictionaryIndex, GridSpec, PlanCandidate, RegionQueryResult,
};

/// One candidate's owned fields: id, box origin, sub-cell centres,
/// counts and total.
type Candidate = (u32, Vec<f64>, Vec<f64>, Vec<u32>, u64);

/// The brute-force candidate list of cell `ci`: every dictionary cell
/// `GridSpec::in_eps_window` accepts, ascending by dictionary id, with
/// origins and centres computed by the spec.
fn candidates(idx: &DictionaryIndex, ci: u32) -> Vec<Candidate> {
    let dict = idx.dict();
    let spec = dict.spec();
    let own = &dict.entry(ci).coord;
    (0..dict.num_cells() as u32)
        .filter(|&c| spec.in_eps_window(own, &dict.entry(c).coord))
        .map(|c| {
            let e = dict.entry(c);
            let centers = e
                .subs
                .iter()
                .flat_map(|s| spec.sub_center(&e.coord, s.idx))
                .collect();
            let counts = e.subs.iter().map(|s| s.count).collect();
            (
                c,
                spec.cell_origin(&e.coord),
                centers,
                counts,
                e.count as u64,
            )
        })
        .collect()
}

/// Plans cell `ci` from [`candidates`].
fn plan_for(idx: &DictionaryIndex, ci: u32) -> CellQueryPlan {
    let spec = idx.spec();
    let origin = spec.cell_origin(&idx.dict().entry(ci).coord);
    let cands = candidates(idx, ci);
    CellQueryPlan::from_candidates(
        spec,
        &origin,
        cands
            .iter()
            .map(|(id, origin, centers, counts, total)| PlanCandidate {
                id: *id,
                origin,
                centers,
                counts,
                total: *total,
            }),
    )
}

fn random_index(seed: u64, n: usize, dim: usize, eps: f64, rho: f64, cap: u64) -> DictionaryIndex {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..8.0)).collect())
        .collect();
    let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
    let dict = CellDictionary::build_from_points(GridSpec::new(dim, eps, rho).unwrap(), refs);
    DictionaryIndex::new(dict, cap)
}

/// For every occupied cell: build its plan and fire `per_cell` random
/// queries from inside the cell box, plus the box's lo/hi corners (the
/// adversarial float case — corner-to-corner distance is exactly ε).
/// Each query must match the oracle exactly.
fn assert_plan_matches_oracle(idx: &DictionaryIndex, seed: u64, per_cell: usize) {
    let spec = idx.spec().clone();
    let dim = spec.dim();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut planned = RegionQueryResult::default();
    for ci in 0..idx.dict().num_cells() as u32 {
        let plan = plan_for(idx, ci);
        let bb = spec.cell_aabb(&idx.dict().entry(ci).coord);
        let mut queries: Vec<Vec<f64>> = vec![bb.min().to_vec(), bb.max().to_vec()];
        for _ in 0..per_cell {
            queries.push(
                (0..dim)
                    .map(|a| rng.gen_range(bb.min()[a]..bb.max()[a]))
                    .collect(),
            );
        }
        for p in &queries {
            plan.query_into(p, &mut planned);
            let oracle = idx.region_query_cells(p);
            assert_eq!(planned.density, oracle.density, "cell {ci}, p = {p:?}");
            // The plan reports each cell once, ascending; the oracle's
            // order depends on fragmentation, with adjacent dedup only.
            let mut want = oracle.neighbor_cells.clone();
            want.sort_unstable();
            want.dedup();
            assert_eq!(planned.neighbor_cells, want, "cell {ci}, p = {p:?}");
            assert_eq!(planned.stats.cells_full, oracle.stats.cells_full);
            assert_eq!(planned.stats.cells_partial, oracle.stats.cells_partial);
            assert_eq!(
                planned.stats.subcells_reported,
                oracle.stats.subcells_reported
            );
            // Per-query invariants of the planned path.
            assert_eq!(planned.stats.plan_hits, 1);
            assert_eq!(planned.stats.plans_built, 0);
            assert_eq!(planned.stats.cells_candidate, plan.num_cells() as u32);
            assert!(planned.stats.cells_planned_full <= planned.stats.cells_partial);
            // And of the oracle path.
            assert_eq!(oracle.stats.plan_hits, 0);
            assert_eq!(oracle.stats.cells_planned_full, 0);
        }
    }
}

#[test]
fn planned_equals_oracle_across_rho() {
    for rho in [1.0, 0.5, 0.1, 0.05] {
        let idx = random_index(41, 400, 2, 1.1, rho, 64);
        assert_plan_matches_oracle(&idx, 42, 4);
    }
}

#[test]
fn planned_equals_oracle_across_dims() {
    for dim in 1..=4 {
        let idx = random_index(50 + dim as u64, 300, dim, 1.6, 0.25, 128);
        assert_plan_matches_oracle(&idx, 60 + dim as u64, 3);
    }
}

#[test]
fn planned_equals_oracle_across_fragment_capacities() {
    // The plan's candidates come from the dictionary, so its layout — and
    // every result — is independent of how the index is fragmented.
    let base = random_index(71, 500, 2, 0.9, 0.25, u64::MAX);
    for cap in [1, 4, 32, u64::MAX] {
        let idx = DictionaryIndex::new(base.dict().clone(), cap);
        assert_plan_matches_oracle(&idx, 72, 3);
        // Same plan answers regardless of cap: spot-check density against
        // the unfragmented build.
        let mut a = RegionQueryResult::default();
        let mut b = RegionQueryResult::default();
        for ci in 0..idx.dict().num_cells() as u32 {
            let p = idx
                .spec()
                .cell_aabb(&idx.dict().entry(ci).coord)
                .min()
                .to_vec();
            plan_for(&idx, ci).query_into(&p, &mut a);
            plan_for(&base, ci).query_into(&p, &mut b);
            assert_eq!(a.density, b.density, "cap {cap}, cell {ci}");
            assert_eq!(a.neighbor_cells, b.neighbor_cells, "cap {cap}, cell {ci}");
        }
    }
}

#[test]
fn plan_accounting_is_consistent() {
    let idx = random_index(81, 400, 3, 1.3, 0.25, 64);
    let total_subcells: u64 = idx.dict().cells().iter().map(|c| c.subs.len() as u64).sum();
    for ci in 0..idx.dict().num_cells() as u32 {
        let plan = plan_for(&idx, ci);
        // The plan's own cell always survives pruning (distance 0).
        let own = idx.dict().index_of(&idx.dict().entry(ci).coord).unwrap();
        assert_eq!(own, ci);
        assert!(plan.num_cells() >= 1, "cell {ci}: own cell pruned");
        // Classified sub-cells are a partition of the planned cells' subs.
        assert!(plan.num_always_subcells() + plan.num_tested_subcells() as u64 <= total_subcells);
        // Build stats carry exactly one plan, and pruning only drops
        // candidates.
        assert_eq!(plan.build_stats().plans_built, 1);
        assert!(candidates(&idx, ci).len() >= plan.num_cells());
    }
}
