//! The `(ε,ρ)`-region query (Definition 5.1).
//!
//! Given a query point `p`, the query finds every *sub-cell* whose centre
//! `q̂` satisfies `dist(p, q̂) ≤ ε`, returning densities rather than points.
//! Processing follows §5 exactly:
//!
//! 1. sub-dictionaries whose MBR fails the Lemma 5.10 test are skipped;
//! 2. within a fragment, candidate cells are found by a kd-tree radius
//!    search over cell centres (radius `ε + diag/2`);
//! 3. a candidate cell *fully contained* in the query ball contributes all
//!    of its sub-cells without individual checks; a *partially contained*
//!    cell contributes only sub-cells whose centre passes the distance
//!    test.

use crate::dictionary::SubCellEntry;
use crate::subdict::DictionaryIndex;
use rpdbscan_geom::dist2;

/// Instrumentation counters for one region query — used by the anatomy
/// benches (§7.6) to demonstrate the effect of defragmentation and MBR
/// skipping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Sub-dictionaries skipped by the Lemma 5.10 MBR rule.
    pub subdicts_skipped: u32,
    /// Sub-dictionaries whose kd-tree was searched.
    pub subdicts_visited: u32,
    /// Candidate cells returned by kd-tree searches.
    pub cells_candidate: u32,
    /// Candidate cells fully contained in the query ball.
    pub cells_full: u32,
    /// Candidate cells contributing at least one sub-cell after per-centre
    /// checks.
    pub cells_partial: u32,
    /// Sub-cells reported to the visitor.
    pub subcells_reported: u32,
    /// Query plans built (cell-level planner; one per planned cell).
    pub plans_built: u32,
    /// Queries answered through a memoized [`crate::plan::CellQueryPlan`].
    pub plan_hits: u32,
    /// Cells answered from a plan's precomputed *always-qualifying*
    /// sub-cells without any per-point distance test (subset of
    /// `cells_partial`).
    pub cells_planned_full: u32,
    /// Occupied cells the cost model routed through the memoized planner
    /// ([`crate::plan::PlannerCostModel`]).
    pub cells_routed_planned: u32,
    /// Occupied cells the cost model routed through the per-point kd
    /// path (occupancy below the plan-build break-even).
    pub cells_routed_kd: u32,
    /// Points of planned cells resolved by the dense-cell path: the
    /// plan's density floor proves them core, so no per-point query ran.
    /// With `plan_hits` it covers every point of a planned cell.
    pub points_dense: u32,
}

impl QueryStats {
    /// Accumulates another query's counters.
    pub fn merge(&mut self, other: &QueryStats) {
        self.subdicts_skipped += other.subdicts_skipped;
        self.subdicts_visited += other.subdicts_visited;
        self.cells_candidate += other.cells_candidate;
        self.cells_full += other.cells_full;
        self.cells_partial += other.cells_partial;
        self.subcells_reported += other.subcells_reported;
        self.plans_built += other.plans_built;
        self.plan_hits += other.plan_hits;
        self.cells_planned_full += other.cells_planned_full;
        self.cells_routed_planned += other.cells_routed_planned;
        self.cells_routed_kd += other.cells_routed_kd;
        self.points_dense += other.points_dense;
    }
}

/// Aggregated result of a region query at the cell level: the neighbour
/// cells (dictionary indices) and the total neighbour density.
#[derive(Debug, Clone, Default)]
pub struct RegionQueryResult {
    /// Cells contributing at least one `(ε,ρ)`-neighbour sub-cell, i.e.
    /// the cells fully or partially directly reachable from the query
    /// point's cell (Algorithm 3, Line 13).
    pub neighbor_cells: Vec<u32>,
    /// Σ densities of qualifying sub-cells — the `num` of Algorithm 3,
    /// Line 8, compared against `minPts`.
    pub density: u64,
    /// Query counters.
    pub stats: QueryStats,
}

impl DictionaryIndex {
    /// Runs an `(ε,ρ)`-region query, invoking `visit(cell_idx, sub)` for
    /// every qualifying sub-cell. Returns instrumentation counters.
    pub fn region_query<F>(&self, p: &[f64], visit: F) -> QueryStats
    where
        F: FnMut(u32, &SubCellEntry),
    {
        let mut center = vec![0.0; self.spec().dim()];
        self.region_query_scratch(p, &mut center, visit)
    }

    /// Scratch-threaded form of [`Self::region_query`]: the caller owns
    /// the `dim`-sized centre buffer, so per-point callers (Phase II runs
    /// one query per point) stay allocation-free across queries.
    // lint:hot
    pub fn region_query_scratch<F>(&self, p: &[f64], center: &mut [f64], mut visit: F) -> QueryStats
    where
        F: FnMut(u32, &SubCellEntry),
    {
        let spec = self.spec();
        debug_assert_eq!(p.len(), spec.dim());
        debug_assert_eq!(center.len(), spec.dim());
        let eps = spec.eps();
        let eps2 = eps * eps;
        // A cell can hold a qualifying sub-cell centre only if its own
        // centre lies within ε + diag/2 of p (centres sit inside cells).
        let cell_radius = eps + spec.cell_diag() * 0.5;
        let mut stats = QueryStats::default();

        for sd in self.subdicts() {
            if sd.mbr().lemma_5_10_skippable(p, eps) {
                stats.subdicts_skipped += 1;
                continue;
            }
            stats.subdicts_visited += 1;
            sd.tree().for_each_within(p, cell_radius, |cell_idx, _| {
                stats.cells_candidate += 1;
                let entry = self.dict().entry(cell_idx);
                let (min_d2, max_d2) = spec.cell_dist2_bounds(&entry.coord, p);
                if min_d2 > eps2 {
                    return; // cannot contain any qualifying centre
                }
                if max_d2 <= eps2 {
                    // Fully contained: every sub-cell qualifies.
                    stats.cells_full += 1;
                    for sub in &entry.subs {
                        stats.subcells_reported += 1;
                        visit(cell_idx, sub);
                    }
                } else {
                    // Partially contained: test each sub-cell centre.
                    let mut any = false;
                    for sub in &entry.subs {
                        spec.sub_center_into(&entry.coord, sub.idx, center);
                        if dist2(p, center) <= eps2 {
                            stats.subcells_reported += 1;
                            any = true;
                            visit(cell_idx, sub);
                        }
                    }
                    if any {
                        stats.cells_partial += 1;
                    }
                }
            });
        }
        stats
    }

    /// Region query aggregated to the cell level: neighbour cells (each
    /// listed once) plus the total qualifying density.
    pub fn region_query_cells(&self, p: &[f64]) -> RegionQueryResult {
        let mut result = RegionQueryResult::default();
        self.region_query_cells_into(p, &mut result);
        result
    }

    /// Buffer-reusing form of [`Self::region_query_cells`]: clears and
    /// refills `result` so per-point callers (core marking runs one query
    /// per point) avoid an allocation per query.
    pub fn region_query_cells_into(&self, p: &[f64], result: &mut RegionQueryResult) {
        let mut center = vec![0.0; self.spec().dim()];
        self.region_query_cells_scratch(p, result, &mut center);
    }

    /// Scratch-threaded form of [`Self::region_query_cells_into`]; see
    /// [`Self::region_query_scratch`] for the buffer contract.
    pub fn region_query_cells_scratch(
        &self,
        p: &[f64],
        result: &mut RegionQueryResult,
        center: &mut [f64],
    ) {
        result.neighbor_cells.clear();
        result.density = 0;
        let mut last: Option<u32> = None;
        // Split borrows: the closure mutates fields, not the whole struct.
        let cells = &mut result.neighbor_cells;
        let density = &mut result.density;
        let stats = self.region_query_scratch(p, center, |cell_idx, sub| {
            *density += sub.count as u64;
            // Sub-cells of one cell arrive contiguously, so dedup is a
            // constant-time check against the previous id.
            if last != Some(cell_idx) {
                cells.push(cell_idx);
                last = Some(cell_idx);
            }
        });
        result.stats = stats;
    }

    /// Just the neighbour density of `p` (core test helper).
    pub fn neighbor_density(&self, p: &[f64]) -> u64 {
        let mut density = 0u64;
        self.region_query(p, |_, sub| density += sub.count as u64);
        density
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::CellDictionary;
    use crate::spec::GridSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rpdbscan_geom::dist;

    /// Brute-force reference: qualifying density = Σ counts of sub-cells
    /// whose centre is within eps of p, computed straight off the
    /// dictionary without any index.
    fn brute_density(dict: &CellDictionary, p: &[f64]) -> u64 {
        let spec = dict.spec();
        let mut density = 0;
        for cell in dict.cells() {
            for sub in &cell.subs {
                let c = spec.sub_center(&cell.coord, sub.idx);
                if dist(p, &c) <= spec.eps() {
                    density += sub.count as u64;
                }
            }
        }
        density
    }

    fn random_dict(seed: u64, n: usize, dim: usize, eps: f64, rho: f64) -> CellDictionary {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect();
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        CellDictionary::build_from_points(GridSpec::new(dim, eps, rho).unwrap(), refs)
    }

    #[test]
    fn query_matches_brute_force_2d() {
        let dict = random_dict(1, 800, 2, 0.9, 0.25);
        let idx = DictionaryIndex::new(dict, 64);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..60 {
            let p = [rng.gen_range(-1.0..11.0), rng.gen_range(-1.0..11.0)];
            assert_eq!(idx.neighbor_density(&p), brute_density(idx.dict(), &p));
        }
    }

    #[test]
    fn query_matches_brute_force_3d_various_rho() {
        for rho in [1.0, 0.5, 0.1, 0.05] {
            let dict = random_dict(3, 500, 3, 1.4, rho);
            let idx = DictionaryIndex::new(dict, 128);
            let mut rng = StdRng::seed_from_u64(4);
            for _ in 0..30 {
                let p: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..10.0)).collect();
                assert_eq!(
                    idx.neighbor_density(&p),
                    brute_density(idx.dict(), &p),
                    "rho={rho}"
                );
            }
        }
    }

    #[test]
    fn defragmentation_does_not_change_results() {
        // §5.2: skipping + defragmentation must not affect query output.
        let dict = random_dict(5, 600, 2, 0.8, 0.25);
        let single = DictionaryIndex::single(dict.clone());
        let frag = DictionaryIndex::new(dict, 16);
        assert!(frag.num_subdicts() > 4);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let p = [rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)];
            let a = single.region_query_cells(&p);
            let b = frag.region_query_cells(&p);
            assert_eq!(a.density, b.density);
            let mut ca = a.neighbor_cells.clone();
            let mut cb = b.neighbor_cells.clone();
            ca.sort_unstable();
            ca.dedup();
            cb.sort_unstable();
            cb.dedup();
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn skipping_actually_skips_far_fragments() {
        // Two distant blobs -> fragments around each; querying near one
        // must skip the other's fragment.
        let spec = GridSpec::new(2, 1.0, 0.5).unwrap();
        let mut pts = Vec::new();
        for i in 0..50 {
            pts.push(vec![i as f64 * 0.1, 0.0]);
            pts.push(vec![100.0 + i as f64 * 0.1, 0.0]);
        }
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec, refs);
        let idx = DictionaryIndex::new(dict, 20);
        let stats = idx.region_query(&[0.0, 0.0], |_, _| {});
        assert!(stats.subdicts_skipped > 0, "{stats:?}");
        assert!(stats.subdicts_visited > 0);
    }

    #[test]
    fn lemma_5_2_sandwich_bound() {
        // Every point counted by the (eps,rho)-query lies within
        // (1+rho/2)eps of p, and every point within (1-rho/2)eps is
        // counted. We verify on the generating points themselves.
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<Vec<f64>> = (0..400)
            .map(|_| vec![rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)])
            .collect();
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let eps = 0.7;
        let rho = 0.05;
        let spec = GridSpec::new(2, eps, rho).unwrap();
        let dict = CellDictionary::build_from_points(spec, refs);
        let idx = DictionaryIndex::new(dict, 256);
        for _ in 0..20 {
            let q = vec![rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)];
            let approx = idx.neighbor_density(&q);
            let lower = pts
                .iter()
                .filter(|p| dist(&q, p) <= (1.0 - rho / 2.0) * eps)
                .count() as u64;
            let upper = pts
                .iter()
                .filter(|p| dist(&q, p) <= (1.0 + rho / 2.0) * eps)
                .count() as u64;
            assert!(
                lower <= approx && approx <= upper,
                "sandwich violated: {lower} <= {approx} <= {upper}"
            );
        }
    }

    #[test]
    fn neighbor_cells_are_deduplicated() {
        let dict = random_dict(11, 300, 2, 1.2, 0.25);
        let idx = DictionaryIndex::new(dict, 64);
        let r = idx.region_query_cells(&[5.0, 5.0]);
        let mut sorted = r.neighbor_cells.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(before, sorted.len(), "duplicate neighbour cells reported");
    }

    #[test]
    fn empty_region_reports_nothing() {
        let dict = random_dict(13, 100, 2, 0.5, 0.5);
        let idx = DictionaryIndex::new(dict, 64);
        let r = idx.region_query_cells(&[500.0, 500.0]);
        assert_eq!(r.density, 0);
        assert!(r.neighbor_cells.is_empty());
    }

    #[test]
    fn own_subcell_counts_toward_density() {
        // A lone point: its own sub-cell centre is within eps (Example 5.7
        // counts p itself).
        let spec = GridSpec::new(2, 1.0, 0.1).unwrap();
        let p = [3.3f64, 4.4];
        let dict = CellDictionary::build_from_points(spec, [p.as_slice()]);
        let idx = DictionaryIndex::single(dict);
        assert_eq!(idx.neighbor_density(&p), 1);
    }
}
